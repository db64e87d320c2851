//! The coordinator's view of its partition: collected `(VN, SC, DS)`
//! responses.
//!
//! Step 2 of `Is_Distinguished` (Section V-B) has the coordinator compute
//! from the responses: the largest version number `M` in the partition `P`,
//! the set `I ⊆ P` of sites holding version `M`, and the update sites
//! cardinality `N` shared by the sites in `I`. [`PartitionView`] performs
//! exactly that computation once, and every algorithm's decision rule reads
//! from it.

use crate::meta::CopyMeta;
use crate::site::{LinearOrder, SiteId, SiteSet};
use std::fmt;

/// Errors raised while assembling a [`PartitionView`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViewError {
    /// No responses: a partition view requires at least the coordinator.
    Empty,
    /// The same site responded twice.
    DuplicateSite(SiteId),
    /// A site index is `>= n`.
    SiteOutOfRange(SiteId),
    /// Sites holding the maximum version disagree on `SC` or `DS`.
    ///
    /// The protocol guarantees all copies at the maximum version share
    /// their cardinality and distinguished-sites entry (see the proof of
    /// Theorem 1); a view violating this indicates corruption.
    InconsistentCurrentCopies {
        /// First offending site.
        a: SiteId,
        /// Second offending site, disagreeing with the first.
        b: SiteId,
    },
}

impl fmt::Display for ViewError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ViewError::Empty => write!(f, "partition view has no members"),
            ViewError::DuplicateSite(s) => write!(f, "site {s} responded twice"),
            ViewError::SiteOutOfRange(s) => write!(f, "site {s} is not a replica site"),
            ViewError::InconsistentCurrentCopies { a, b } => write!(
                f,
                "sites {a} and {b} hold the maximum version but disagree on SC/DS"
            ),
        }
    }
}

impl std::error::Error for ViewError {}

/// The assembled view of one partition: which sites responded and with
/// what metadata, plus the derived quantities `M`, `I` and `N`.
#[derive(Debug, Clone)]
pub struct PartitionView<'a> {
    n: usize,
    order: &'a LinearOrder,
    responses: &'a [(SiteId, CopyMeta)],
    members: SiteSet,
    max_version: u64,
    current: SiteSet,
    current_meta: CopyMeta,
    guard_hint: Option<SiteId>,
}

impl<'a> PartitionView<'a> {
    /// Assemble a view from the responses collected by a coordinator.
    ///
    /// `n` is the total number of replica sites of the file (required by
    /// static voting and by the "optimal candidate" rule); `order` is the
    /// file's a-priori linear ordering. The responses are borrowed, not
    /// owned: a coordinator keeps them wherever it collected them (the
    /// protocol layer stores the meta slice alongside its membership
    /// bitset) and assembles views against that storage with zero copies.
    pub fn new(
        n: usize,
        order: &'a LinearOrder,
        responses: &'a [(SiteId, CopyMeta)],
    ) -> Result<Self, ViewError> {
        if responses.is_empty() {
            return Err(ViewError::Empty);
        }
        let mut members = SiteSet::EMPTY;
        for &(site, _) in responses {
            if site.index() >= n {
                return Err(ViewError::SiteOutOfRange(site));
            }
            if members.contains(site) {
                return Err(ViewError::DuplicateSite(site));
            }
            members.insert(site);
        }
        let max_version = responses
            .iter()
            .map(|(_, m)| m.version)
            .max()
            .expect("nonempty");
        let mut current = SiteSet::EMPTY;
        let mut current_meta: Option<(SiteId, CopyMeta)> = None;
        for &(site, meta) in responses {
            if meta.version == max_version {
                current.insert(site);
                match current_meta {
                    None => current_meta = Some((site, meta)),
                    Some((first_site, first_meta)) => {
                        if first_meta.cardinality != meta.cardinality
                            || first_meta.distinguished != meta.distinguished
                        {
                            return Err(ViewError::InconsistentCurrentCopies {
                                a: first_site,
                                b: site,
                            });
                        }
                    }
                }
            }
        }
        let (_, current_meta) = current_meta.expect("nonempty view has a max version");
        Ok(PartitionView {
            n,
            order,
            responses,
            members,
            max_version,
            current,
            current_meta,
            guard_hint: None,
        })
    }

    /// Attach a *guard hint*: a non-member site the surrounding system
    /// nominates for Section VII Change 1's "site that is down" choice.
    ///
    /// The modified hybrid's two-site commit must name a down site as the
    /// new distinguished site. Which down site is best is information the
    /// voting exchange itself does not carry (the paper suggests "the site
    /// that most recently failed"); the protocol layer supplies it here.
    /// For exact accept-set equivalence with the unmodified hybrid, the
    /// hint should name the absent holder of the maximum version when one
    /// exists (see `algorithms::modified_hybrid` for discussion).
    ///
    /// Hints naming a member of the partition are ignored.
    #[must_use]
    pub fn with_guard_hint(mut self, hint: Option<SiteId>) -> Self {
        self.guard_hint = hint.filter(|s| !self.members.contains(*s));
        self
    }

    /// The guard hint, if one was attached and names a non-member.
    #[must_use]
    pub fn guard_hint(&self) -> Option<SiteId> {
        self.guard_hint
    }

    /// Total number of replica sites of the file (`n` in the paper).
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The file's a-priori linear ordering.
    #[must_use]
    pub fn order(&self) -> &LinearOrder {
        self.order
    }

    /// The partition `P`: all sites that responded (including the
    /// coordinator).
    #[must_use]
    pub fn members(&self) -> SiteSet {
        self.members
    }

    /// `card(P)`.
    #[must_use]
    pub fn member_count(&self) -> usize {
        self.members.len()
    }

    /// `M`: the largest version number present in the partition.
    #[must_use]
    pub fn max_version(&self) -> u64 {
        self.max_version
    }

    /// `I`: the sites in `P` holding version `M` ("current" copies, from
    /// the partition's local point of view).
    #[must_use]
    pub fn current_sites(&self) -> SiteSet {
        self.current
    }

    /// `card(I)`.
    #[must_use]
    pub fn current_count(&self) -> usize {
        self.current.len()
    }

    /// The metadata shared by all sites in `I` (validated at construction).
    #[must_use]
    pub fn current_meta(&self) -> CopyMeta {
        self.current_meta
    }

    /// `N`: the update sites cardinality recorded by the sites in `I`.
    #[must_use]
    pub fn cardinality(&self) -> u32 {
        self.current_meta.cardinality
    }

    /// The raw responses, in the order they were supplied.
    #[must_use]
    pub fn responses(&self) -> &[(SiteId, CopyMeta)] {
        self.responses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meta::Distinguished;

    fn meta(version: u64, cardinality: u32, ds: Distinguished) -> CopyMeta {
        CopyMeta {
            version,
            cardinality,
            distinguished: ds,
        }
    }

    #[test]
    fn computes_m_i_n() {
        let order = LinearOrder::lexicographic(5);
        let responses = [
            (
                SiteId(0),
                meta(10, 3, Distinguished::Trio(SiteSet::parse("ABC").unwrap())),
            ),
            (
                SiteId(2),
                meta(10, 3, Distinguished::Trio(SiteSet::parse("ABC").unwrap())),
            ),
            (SiteId(3), meta(9, 5, Distinguished::Irrelevant)),
        ];
        let view = PartitionView::new(5, &order, &responses).unwrap();
        assert_eq!(view.max_version(), 10);
        assert_eq!(view.current_sites(), SiteSet::parse("AC").unwrap());
        assert_eq!(view.cardinality(), 3);
        assert_eq!(view.member_count(), 3);
        let stale = view.members().difference(view.current_sites());
        assert_eq!(stale, SiteSet::parse("D").unwrap());
    }

    #[test]
    fn empty_view_is_an_error() {
        let order = LinearOrder::lexicographic(3);
        assert_eq!(
            PartitionView::new(3, &order, &[]).unwrap_err(),
            ViewError::Empty
        );
    }

    #[test]
    fn duplicate_site_is_an_error() {
        let order = LinearOrder::lexicographic(3);
        let m = meta(1, 3, Distinguished::Irrelevant);
        let err = PartitionView::new(3, &order, &[(SiteId(0), m), (SiteId(0), m)]).unwrap_err();
        assert_eq!(err, ViewError::DuplicateSite(SiteId(0)));
    }

    #[test]
    fn out_of_range_site_is_an_error() {
        let order = LinearOrder::lexicographic(3);
        let m = meta(1, 3, Distinguished::Irrelevant);
        let err = PartitionView::new(3, &order, &[(SiteId(7), m)]).unwrap_err();
        assert_eq!(err, ViewError::SiteOutOfRange(SiteId(7)));
    }

    #[test]
    fn inconsistent_current_copies_are_detected() {
        let order = LinearOrder::lexicographic(4);
        let err = PartitionView::new(
            4,
            &order,
            &[
                (SiteId(0), meta(5, 4, Distinguished::Single(SiteId(0)))),
                (SiteId(1), meta(5, 3, Distinguished::Single(SiteId(0)))),
            ],
        )
        .unwrap_err();
        assert!(matches!(err, ViewError::InconsistentCurrentCopies { .. }));
    }

    #[test]
    fn stale_copies_may_disagree_freely() {
        // Only the maximum-version copies must agree on SC/DS.
        let order = LinearOrder::lexicographic(4);
        let responses = [
            (SiteId(0), meta(5, 2, Distinguished::Single(SiteId(0)))),
            (SiteId(1), meta(4, 4, Distinguished::Single(SiteId(2)))),
            (SiteId(2), meta(3, 4, Distinguished::Irrelevant)),
        ];
        let view = PartitionView::new(4, &order, &responses).unwrap();
        assert_eq!(view.current_count(), 1);
        assert_eq!(view.cardinality(), 2);
    }
}
