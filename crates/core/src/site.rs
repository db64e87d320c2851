//! Site identifiers, site sets, and the a-priori total ordering on sites.
//!
//! The paper (Section V-A) assigns each replicated file an *a priori* total
//! ordering on the sites holding a copy. The ordering is used by
//! dynamic-linear and the hybrid algorithm to select the *distinguished
//! site* when an even number of sites participates in an update.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Maximum number of replica sites supported by [`SiteSet`]'s bitset
/// representation. The paper evaluates 3–20 sites; 64 leaves generous room.
pub const MAX_SITES: usize = 64;

/// Identifier of a replica site, an index in `0..MAX_SITES`.
///
/// Sites are displayed as letters `A`, `B`, `C`, … (wrapping to `S26`,
/// `S27`, … past `Z`) to match the paper's examples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SiteId(pub u8);

impl SiteId {
    /// Construct a site id, panicking if `index` is out of range.
    #[must_use]
    pub fn new(index: usize) -> Self {
        assert!(index < MAX_SITES, "site index {index} out of range");
        SiteId(index as u8)
    }

    /// The zero-based index of this site.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 26 {
            write!(f, "{}", (b'A' + self.0) as char)
        } else {
            write!(f, "S{}", self.0)
        }
    }
}

/// A set of sites, represented as a 64-bit bitset.
///
/// `SiteSet` is the universal currency of the crate: partitions, quorums,
/// distinguished-sites lists and vote tallies are all site sets.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SiteSet(u64);

impl SiteSet {
    /// The empty set.
    pub const EMPTY: SiteSet = SiteSet(0);

    /// Set containing the sites `0..n`.
    #[must_use]
    pub fn all(n: usize) -> Self {
        assert!(n <= MAX_SITES, "site count {n} out of range");
        if n == MAX_SITES {
            SiteSet(u64::MAX)
        } else {
            SiteSet((1u64 << n) - 1)
        }
    }

    /// Set containing exactly `site`.
    #[must_use]
    pub fn singleton(site: SiteId) -> Self {
        SiteSet(1u64 << site.index())
    }

    /// Build a set from an iterator of site ids.
    pub fn from_sites<I: IntoIterator<Item = SiteId>>(sites: I) -> Self {
        let mut s = SiteSet::EMPTY;
        for site in sites {
            s.insert(site);
        }
        s
    }

    /// Parse a compact site list such as `"ABC"` (letters `A`–`Z` only).
    ///
    /// Returns `None` on any character outside `A..=Z`/`a..=z`.
    #[must_use]
    pub fn parse(text: &str) -> Option<Self> {
        let mut s = SiteSet::EMPTY;
        for ch in text.chars() {
            let upper = ch.to_ascii_uppercase();
            if !upper.is_ascii_uppercase() {
                return None;
            }
            s.insert(SiteId(upper as u8 - b'A'));
        }
        Some(s)
    }

    /// Number of sites in the set.
    #[must_use]
    pub fn len(self) -> usize {
        self.0.count_ones() as usize
    }

    /// True if the set has no members.
    #[must_use]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// True if `site` is a member.
    #[must_use]
    pub fn contains(self, site: SiteId) -> bool {
        self.0 & (1u64 << site.index()) != 0
    }

    /// Insert a site (idempotent).
    pub fn insert(&mut self, site: SiteId) {
        self.0 |= 1u64 << site.index();
    }

    /// Remove a site (idempotent).
    pub fn remove(&mut self, site: SiteId) {
        self.0 &= !(1u64 << site.index());
    }

    /// Set union.
    #[must_use]
    pub fn union(self, other: SiteSet) -> SiteSet {
        SiteSet(self.0 | other.0)
    }

    /// Set intersection.
    #[must_use]
    pub fn intersection(self, other: SiteSet) -> SiteSet {
        SiteSet(self.0 & other.0)
    }

    /// Set difference `self \ other`.
    #[must_use]
    pub fn difference(self, other: SiteSet) -> SiteSet {
        SiteSet(self.0 & !other.0)
    }

    /// True if `self ⊆ other`.
    #[must_use]
    pub fn is_subset(self, other: SiteSet) -> bool {
        self.0 & !other.0 == 0
    }

    /// True if the two sets share no member.
    #[must_use]
    pub fn is_disjoint(self, other: SiteSet) -> bool {
        self.0 & other.0 == 0
    }

    /// Iterate over member sites in increasing index order.
    pub fn iter(self) -> impl Iterator<Item = SiteId> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                None
            } else {
                let idx = bits.trailing_zeros() as u8;
                bits &= bits - 1;
                Some(SiteId(idx))
            }
        })
    }

    /// The member with the smallest index, if any.
    #[must_use]
    pub fn first(self) -> Option<SiteId> {
        if self.0 == 0 {
            None
        } else {
            Some(SiteId(self.0.trailing_zeros() as u8))
        }
    }

    /// The raw bit representation (stable across calls; bit `i` = site `i`).
    #[must_use]
    pub fn bits(self) -> u64 {
        self.0
    }

    /// Reconstruct from a raw bit representation.
    #[must_use]
    pub fn from_bits(bits: u64) -> Self {
        SiteSet(bits)
    }
}

impl FromIterator<SiteId> for SiteSet {
    fn from_iter<I: IntoIterator<Item = SiteId>>(iter: I) -> Self {
        SiteSet::from_sites(iter)
    }
}

impl fmt::Display for SiteSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "∅");
        }
        for site in self.iter() {
            write!(f, "{site}")?;
        }
        Ok(())
    }
}

/// The a-priori total ordering (`>` in the paper) on the sites of one file.
///
/// `rank[i]` is the priority of site `i`; *greater rank wins*. The paper's
/// examples select distinguished sites "according to the linear order" such
/// that in `{B, C, D, E}` the winner is `B` — i.e. lexicographically earlier
/// site letters are *greater* in the order. [`LinearOrder::lexicographic`]
/// reproduces that convention; [`LinearOrder::new`] accepts any permutation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinearOrder {
    rank: Vec<u32>,
}

impl LinearOrder {
    /// Build an order from explicit ranks (`rank[i]` = priority of site `i`;
    /// larger is greater). Ranks must be distinct.
    #[must_use]
    pub fn new(rank: Vec<u32>) -> Self {
        let mut sorted = rank.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), rank.len(), "ranks must be distinct");
        LinearOrder { rank }
    }

    /// The paper's convention: site `A` is greatest, then `B`, and so on.
    #[must_use]
    pub fn lexicographic(n: usize) -> Self {
        assert!(n <= MAX_SITES);
        LinearOrder {
            rank: (0..n).map(|i| (n - i) as u32).collect(),
        }
    }

    /// Number of sites covered by the order.
    #[must_use]
    pub fn len(&self) -> usize {
        self.rank.len()
    }

    /// True if the order covers no sites.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rank.is_empty()
    }

    /// The priority of `site` (larger is greater in the order).
    #[must_use]
    pub fn rank(&self, site: SiteId) -> u32 {
        self.rank[site.index()]
    }

    /// The greatest member of `set`, or `None` if `set` is empty.
    ///
    /// This is the *distinguished site* selection rule of dynamic-linear:
    /// "the site which is greater (in the linear ordering for the file)
    /// than all other sites that participated in the most recent update".
    #[must_use]
    pub fn max_of(&self, set: SiteSet) -> Option<SiteId> {
        set.iter().max_by_key(|s| self.rank(*s))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_display_is_letters() {
        assert_eq!(SiteId(0).to_string(), "A");
        assert_eq!(SiteId(4).to_string(), "E");
        assert_eq!(SiteId(25).to_string(), "Z");
        assert_eq!(SiteId(26).to_string(), "S26");
    }

    #[test]
    fn parse_round_trips_display() {
        let set = SiteSet::parse("ACE").unwrap();
        assert_eq!(set.to_string(), "ACE");
        assert_eq!(set.len(), 3);
        assert!(set.contains(SiteId(0)));
        assert!(!set.contains(SiteId(1)));
    }

    #[test]
    fn parse_rejects_non_letters() {
        assert!(SiteSet::parse("A1").is_none());
        assert_eq!(SiteSet::parse(""), Some(SiteSet::EMPTY));
    }

    #[test]
    fn all_covers_exactly_n() {
        let set = SiteSet::all(5);
        assert_eq!(set.len(), 5);
        assert!(set.contains(SiteId(4)));
        assert!(!set.contains(SiteId(5)));
        assert_eq!(SiteSet::all(64).len(), 64);
    }

    #[test]
    fn set_algebra() {
        let abc = SiteSet::parse("ABC").unwrap();
        let bcd = SiteSet::parse("BCD").unwrap();
        assert_eq!(abc.union(bcd), SiteSet::parse("ABCD").unwrap());
        assert_eq!(abc.intersection(bcd), SiteSet::parse("BC").unwrap());
        assert_eq!(abc.difference(bcd), SiteSet::parse("A").unwrap());
        assert!(SiteSet::parse("AB").unwrap().is_subset(abc));
        assert!(!abc.is_subset(bcd));
        assert!(abc.is_disjoint(SiteSet::parse("E").unwrap()));
        assert!(!abc.is_disjoint(bcd));
    }

    #[test]
    fn insert_remove_are_idempotent() {
        let mut s = SiteSet::EMPTY;
        s.insert(SiteId(3));
        s.insert(SiteId(3));
        assert_eq!(s.len(), 1);
        s.remove(SiteId(3));
        s.remove(SiteId(3));
        assert!(s.is_empty());
    }

    #[test]
    fn iter_is_sorted_by_index() {
        let set = SiteSet::parse("DBAC").unwrap();
        let ids: Vec<usize> = set.iter().map(SiteId::index).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(set.first(), Some(SiteId(0)));
    }

    #[test]
    fn lexicographic_order_prefers_earlier_letters() {
        // Matches the paper's example: the distinguished site of {B,C,D,E}
        // is B.
        let order = LinearOrder::lexicographic(5);
        let bcde = SiteSet::parse("BCDE").unwrap();
        assert_eq!(order.max_of(bcde), Some(SiteId(1)));
        assert!(order.rank(SiteId(0)) > order.rank(SiteId(4)));
    }

    #[test]
    fn custom_order_is_honoured() {
        // Rank E highest.
        let order = LinearOrder::new(vec![1, 2, 3, 4, 5]);
        let all = SiteSet::all(5);
        assert_eq!(order.max_of(all), Some(SiteId(4)));
    }

    #[test]
    #[should_panic(expected = "ranks must be distinct")]
    fn duplicate_ranks_panic() {
        let _ = LinearOrder::new(vec![1, 1, 2]);
    }

    #[test]
    fn max_of_empty_is_none() {
        let order = LinearOrder::lexicographic(3);
        assert_eq!(order.max_of(SiteSet::EMPTY), None);
    }

    #[test]
    fn bits_round_trip() {
        let set = SiteSet::parse("AFZ").unwrap();
        assert_eq!(SiteSet::from_bits(set.bits()), set);
    }
}
