//! Network topology: site liveness, link liveness, partitions.
//!
//! Site or communication-link failures "may separate the sites into more
//! than one connected component of communicating sites. We call each
//! connected component a *partition*" (Section II). The topology tracks
//! both failure kinds; a message is deliverable iff its endpoints are up
//! and connected through up sites and up links.
//!
//! Links are stored *per direction*: the ordinary [`Topology::fail_link`]
//! / [`Topology::repair_link`] pair acts on both directions at once (the
//! paper's symmetric link failures), while
//! [`Topology::fail_link_one_way`] models the asymmetric failures real
//! networks exhibit — `a` hears `b` but not vice versa. With asymmetric
//! failures "partition" means *strongly connected component*: the set of
//! sites that can each reach the other; with symmetric links this
//! coincides with the paper's connected components.

use dynvote_core::{SiteId, SiteSet, MAX_SITES};

/// The mutable network state of a simulation.
#[derive(Debug, Clone)]
pub struct Topology {
    n: usize,
    up: SiteSet,
    /// `links[a][b]`: the `a → b` direction of the link is up.
    links: Vec<Vec<bool>>,
}

impl Topology {
    /// A fully connected network of `n` up sites.
    #[must_use]
    pub fn fully_connected(n: usize) -> Self {
        assert!((2..=MAX_SITES).contains(&n));
        Topology {
            n,
            up: SiteSet::all(n),
            links: vec![vec![true; n]; n],
        }
    }

    /// Number of sites.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// True if `site` is up.
    #[must_use]
    pub fn is_up(&self, site: SiteId) -> bool {
        self.up.contains(site)
    }

    /// Crash a site.
    pub fn crash(&mut self, site: SiteId) {
        self.up.remove(site);
    }

    /// Recover a site.
    pub fn recover(&mut self, site: SiteId) {
        assert!(site.index() < self.n);
        self.up.insert(site);
    }

    /// Fail the link between `a` and `b` (both directions).
    pub fn fail_link(&mut self, a: SiteId, b: SiteId) {
        assert_ne!(a, b);
        self.links[a.index()][b.index()] = false;
        self.links[b.index()][a.index()] = false;
    }

    /// Repair the link between `a` and `b` (both directions).
    pub fn repair_link(&mut self, a: SiteId, b: SiteId) {
        assert_ne!(a, b);
        self.links[a.index()][b.index()] = true;
        self.links[b.index()][a.index()] = true;
    }

    /// Fail only the `from → to` direction of a link: `to` still reaches
    /// `from` directly, but not vice versa (asymmetric failure).
    pub fn fail_link_one_way(&mut self, from: SiteId, to: SiteId) {
        assert_ne!(from, to);
        self.links[from.index()][to.index()] = false;
    }

    /// Repair only the `from → to` direction of a link.
    pub fn repair_link_one_way(&mut self, from: SiteId, to: SiteId) {
        assert_ne!(from, to);
        self.links[from.index()][to.index()] = true;
    }

    /// True if the `a → b` direction of the direct link is up.
    #[must_use]
    pub fn link_up(&self, a: SiteId, b: SiteId) -> bool {
        self.links[a.index()][b.index()]
    }

    /// Up sites reachable from `site` following links in the given
    /// direction (`forward`: edges out of the frontier; `!forward`:
    /// edges into it).
    fn reach(&self, site: SiteId, forward: bool) -> SiteSet {
        let mut seen = SiteSet::singleton(site);
        let mut frontier = vec![site];
        while let Some(current) = frontier.pop() {
            for next in self.up.iter() {
                let edge = if forward {
                    self.link_up(current, next)
                } else {
                    self.link_up(next, current)
                };
                if !seen.contains(next) && edge {
                    seen.insert(next);
                    frontier.push(next);
                }
            }
        }
        seen
    }

    /// The partition containing `site`: the up sites it can reach *and*
    /// that can reach it (a strongly connected component; with symmetric
    /// links, the plain connected component). Empty if the site is down.
    #[must_use]
    pub fn partition_of(&self, site: SiteId) -> SiteSet {
        if !self.is_up(site) {
            return SiteSet::EMPTY;
        }
        let forward = self.reach(site, true);
        let backward = self.reach(site, false);
        let mut component = SiteSet::EMPTY;
        for s in forward.iter() {
            if backward.contains(s) {
                component.insert(s);
            }
        }
        component
    }

    /// True if a message sent by `a` can reach `b` right now (through up
    /// sites and up link directions). Asymmetric link failures make this
    /// relation asymmetric: `connected(a, b)` may hold while
    /// `connected(b, a)` does not.
    #[must_use]
    pub fn connected(&self, a: SiteId, b: SiteId) -> bool {
        if a == b {
            return self.is_up(a);
        }
        self.is_up(a) && self.is_up(b) && self.reach(a, true).contains(b)
    }

    /// Every partition, as a list of disjoint site sets covering the up
    /// sites.
    #[must_use]
    pub fn partitions(&self) -> Vec<SiteSet> {
        let mut seen = SiteSet::EMPTY;
        let mut result = Vec::new();
        for site in self.up.iter() {
            if !seen.contains(site) {
                let part = self.partition_of(site);
                seen = seen.union(part);
                result.push(part);
            }
        }
        result
    }

    /// Repair every link in both directions (sites keep their liveness).
    pub fn heal_links(&mut self) {
        for row in &mut self.links {
            for cell in row.iter_mut() {
                *cell = true;
            }
        }
    }

    /// Impose an explicit partition layout: all links inside each given
    /// set are repaired, all links across sets are failed. Sets must be
    /// disjoint; sites not mentioned keep their liveness but lose links
    /// to everyone else.
    pub fn impose_partitions(&mut self, parts: &[SiteSet]) {
        for i in 0..self.n {
            for j in i + 1..self.n {
                let (a, b) = (SiteId::new(i), SiteId::new(j));
                let same = parts.iter().any(|p| p.contains(a) && p.contains(b));
                if same {
                    self.repair_link(a, b);
                } else {
                    self.fail_link(a, b);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(s: &str) -> SiteSet {
        SiteSet::parse(s).unwrap()
    }

    #[test]
    fn fully_connected_is_one_partition() {
        let topo = Topology::fully_connected(5);
        assert_eq!(topo.partitions(), vec![SiteSet::all(5)]);
        assert!(topo.connected(SiteId(0), SiteId(4)));
    }

    #[test]
    fn crash_removes_site_from_partitions() {
        let mut topo = Topology::fully_connected(3);
        topo.crash(SiteId(1));
        assert_eq!(topo.partitions(), vec![set("AC")]);
        assert!(!topo.connected(SiteId(0), SiteId(1)));
        assert!(topo.connected(SiteId(0), SiteId(2)));
        topo.recover(SiteId(1));
        assert!(topo.connected(SiteId(0), SiteId(1)));
    }

    #[test]
    fn link_failures_split_partitions() {
        let mut topo = Topology::fully_connected(4);
        // Cut AB|CD.
        topo.impose_partitions(&[set("AB"), set("CD")]);
        let mut parts = topo.partitions();
        parts.sort();
        assert_eq!(parts, vec![set("AB"), set("CD")]);
        assert!(!topo.connected(SiteId(0), SiteId(2)));
        assert!(topo.connected(SiteId(0), SiteId(1)));
    }

    #[test]
    fn transitive_connectivity_through_relay() {
        let mut topo = Topology::fully_connected(3);
        // Only links A-B and B-C are up: A reaches C through B.
        topo.fail_link(SiteId(0), SiteId(2));
        assert!(topo.connected(SiteId(0), SiteId(2)));
        // If B crashes, the relay disappears.
        topo.crash(SiteId(1));
        assert!(!topo.connected(SiteId(0), SiteId(2)));
    }

    #[test]
    fn down_site_has_empty_partition() {
        let mut topo = Topology::fully_connected(3);
        topo.crash(SiteId(0));
        assert_eq!(topo.partition_of(SiteId(0)), SiteSet::EMPTY);
        assert!(!topo.connected(SiteId(0), SiteId(0)));
        assert!(topo.connected(SiteId(1), SiteId(1)));
    }

    #[test]
    fn one_way_failures_are_asymmetric() {
        let mut topo = Topology::fully_connected(2);
        topo.fail_link_one_way(SiteId(0), SiteId(1));
        assert!(!topo.connected(SiteId(0), SiteId(1)));
        assert!(topo.connected(SiteId(1), SiteId(0)));
        // Mutual reachability is gone, so they are separate partitions.
        assert_eq!(topo.partition_of(SiteId(0)), set("A"));
        assert_eq!(topo.partition_of(SiteId(1)), set("B"));
        topo.repair_link_one_way(SiteId(0), SiteId(1));
        assert!(topo.connected(SiteId(0), SiteId(1)));
        assert_eq!(topo.partition_of(SiteId(0)), set("AB"));
    }

    #[test]
    fn one_way_routing_uses_directed_paths() {
        let mut topo = Topology::fully_connected(3);
        // Cut A→C directly; A still reaches C through B.
        topo.fail_link_one_way(SiteId(0), SiteId(2));
        assert!(topo.connected(SiteId(0), SiteId(2)));
        // Cut the relay direction too: now only C→A survives.
        topo.fail_link_one_way(SiteId(1), SiteId(2));
        assert!(!topo.connected(SiteId(0), SiteId(2)));
        assert!(topo.connected(SiteId(2), SiteId(0)));
    }

    #[test]
    fn heal_links_restores_full_connectivity() {
        let mut topo = Topology::fully_connected(4);
        topo.impose_partitions(&[set("AB"), set("CD")]);
        topo.fail_link_one_way(SiteId(0), SiteId(1));
        topo.heal_links();
        assert_eq!(topo.partitions(), vec![SiteSet::all(4)]);
    }

    #[test]
    fn fig1_partition_sequence() {
        let mut topo = Topology::fully_connected(5);
        for step in dynvote_core::fig1_partition_graph() {
            topo.impose_partitions(&step.partitions);
            let mut got = topo.partitions();
            got.sort();
            let mut want = step.partitions.clone();
            want.sort();
            assert_eq!(got, want, "{}", step.label);
        }
    }
}
