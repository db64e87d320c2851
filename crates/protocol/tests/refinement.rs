//! Refinement: the kernel that runs agrees with the model the Markov
//! chains are derived from.
//!
//! `core/tests/exhaustive.rs` walks every metadata state
//! `ReplicaSystem` reaches under every partition sequence to depth 7,
//! for n = 3 and 4 and all six algorithms. In that model an update is
//! instantaneous. This walk visits the same states jointly: each holds
//! the model's metadata and n kernel [`DurableState`]s. At each state
//! and for every non-empty partition P, exactly P is made mutually
//! reachable, one update is stepped in at P's lowest site, and the net
//! settles with no loss: vote, catch-up, commit or abort, all as
//! messages. The kernel must commit exactly when
//! `ReplicaSystem::attempt_update(P)` does and leave every site with the
//! model's `(VN, SC, DS)`, save for one modelling choice written up as
//! Deviation 3 in EXPERIMENTS.md (see [`deviation_3`]).

mod common;

use common::Net;
use dynvote_core::{
    AlgorithmKind, CopyMeta, LinearOrder, PartitionView, ReplicaControl, ReplicaSystem, SiteId,
    SiteSet,
};
use dynvote_protocol::{DurableState, Input, SiteActor};
use std::collections::HashSet;

const DEPTH: usize = 7;

type System = ReplicaSystem<Box<dyn ReplicaControl>>;

/// One state of the joint walk.
struct Joint {
    /// The model's metadata, indexed by site.
    metas: Vec<CopyMeta>,
    /// Each kernel site's durable state.
    durable: Vec<DurableState>,
    /// The partitions whose updates led here, in order.
    path: Vec<SiteSet>,
}

/// The rebased metadata key `exhaustive.rs` deduplicates on: only
/// relative currency matters to the algorithms.
fn canonical(metas: &[CopyMeta]) -> Vec<CopyMeta> {
    let max = metas.iter().map(|m| m.version).max().unwrap_or(0);
    metas
        .iter()
        .map(|m| CopyMeta {
            version: 8u64.saturating_sub((max - m.version).min(8)),
            ..*m
        })
        .collect()
}

/// The kernel's side of one step: restore `durable`, cut the net to
/// exactly `p`, step one update at `p`'s lowest site and settle.
fn run_kernel(kind: AlgorithmKind, durable: &[DurableState], p: SiteSet, traced: bool) -> Net {
    let n = durable.len();
    let mut net = Net::restored(kind, durable.to_vec(), false);
    if traced {
        net = net.traced();
    }
    let rest = SiteSet::all(n).difference(p);
    net.partition(&[p, rest]);
    let coordinator = p.first().expect("P is non-empty");
    let payloads = &[net.ledger.len() as u64 + 1];
    net.step(
        coordinator,
        Input::Update {
            payloads,
            hold: false,
        },
    );
    net.settle();
    net
}

/// Deviation 3 (EXPERIMENTS.md). When no site of the old guard trio
/// is absent, the modified hybrid's two-site commit takes the guard
/// hint `ReplicaSystem` supplies from global knowledge: the absent
/// holder of the newest version. The kernel knows only the votes it
/// collected, so it builds its view without the hint and the algorithm
/// falls back to the greatest absent site. For a committed update in
/// `p` from `metas`, this returns what the kernel holds instead when
/// that choice differs from the model's, and `None` otherwise.
fn deviation_3(
    kind: AlgorithmKind,
    metas: &[CopyMeta],
    p: SiteSet,
    model: &System,
) -> Option<Vec<CopyMeta>> {
    if kind != AlgorithmKind::ModifiedHybrid {
        return None;
    }
    let n = metas.len();
    let votes: Vec<(SiteId, CopyMeta)> = p.iter().map(|s| (s, metas[s.index()])).collect();
    let order = LinearOrder::lexicographic(n);
    let view = PartitionView::new(n, &order, &votes).expect("well-formed metadata");
    let meta = model.algorithm().commit_meta(&view);
    let mut local = metas.to_vec();
    for site in p.iter() {
        local[site.index()] = meta;
    }
    (local != model.metas()).then_some(local)
}

/// What the kernel did wrong at this step, if anything.
fn mismatch(net: &Net, before: usize, committed: bool, expected: &[CopyMeta]) -> Option<String> {
    let kernel: Vec<CopyMeta> = net.sites.iter().map(SiteActor::meta).collect();
    let kernel_committed = net.ledger.len() > before;
    if kernel_committed != committed {
        return Some(format!(
            "kernel committed {kernel_committed}, model {committed}"
        ));
    }
    if kernel != expected {
        return Some(format!(
            "kernel metas {kernel:?}\nmodel metas  {expected:?}"
        ));
    }
    let audit = net.audit();
    if !audit.is_empty() {
        return Some(format!("chain audit: {audit:?}"));
    }
    let stuck = net.sites.iter().find(|s| s.is_locked() || s.is_in_doubt());
    stuck.map(|site| format!("site {} left locked or in doubt", site.id()))
}

/// Walk every state to `DEPTH`; returns the number of distinct states
/// and of steps that took Deviation 3.
fn walk(kind: AlgorithmKind, n: usize) -> (usize, usize) {
    let mut model: System = ReplicaSystem::new(n, kind.instantiate(n));
    let root = Joint {
        metas: model.metas().to_vec(),
        durable: vec![DurableState::initial(n); n],
        path: Vec::new(),
    };
    let mut visited: HashSet<Vec<CopyMeta>> = HashSet::new();
    visited.insert(canonical(&root.metas));
    let mut frontier = vec![root];
    let parts: Vec<SiteSet> = (1u64..(1 << n)).map(SiteSet::from_bits).collect();
    let mut deviations = 0;
    for _ in 0..DEPTH {
        let mut next = Vec::new();
        for state in &frontier {
            for &p in &parts {
                for (i, meta) in state.metas.iter().enumerate() {
                    model.set_meta(SiteId::new(i), *meta);
                }
                let committed = model.attempt_update(p).committed();
                let local = committed.then(|| deviation_3(kind, &state.metas, p, &model));
                let expected = match local.flatten() {
                    Some(local) => {
                        deviations += 1;
                        local
                    }
                    None => model.metas().to_vec(),
                };
                let before = state.durable.iter().map(|d| d.log.len()).max();
                let before = before.unwrap_or(0);
                let net = run_kernel(kind, &state.durable, p, false);
                if let Some(what) = mismatch(&net, before, committed, &expected) {
                    let fed = run_kernel(kind, &state.durable, p, true).fed;
                    panic!(
                        "{kind} n={n}: kernel and model disagree on update in {p}\n\
                         {what}\npartitions so far: {:?}\nstate: {:?}\ninputs fed: {:#?}",
                        state.path, state.metas, fed
                    );
                }
                if !committed || !visited.insert(canonical(&expected)) {
                    continue;
                }
                let mut path = state.path.clone();
                path.push(p);
                next.push(Joint {
                    metas: expected,
                    durable: net.sites.iter().map(|s| s.durable().clone()).collect(),
                    path,
                });
            }
        }
        if next.is_empty() {
            break;
        }
        frontier = next;
    }
    (visited.len(), deviations)
}

#[test]
fn kernel_refines_the_model_three_and_four_sites() {
    for n in [3, 4] {
        for kind in AlgorithmKind::ALL {
            let (states, deviations) = walk(kind, n);
            println!(
                "refinement {kind} n={n}: {states} states explored, \
                 {deviations} steps took Deviation 3"
            );
            assert!(states >= 2, "{kind} n={n}: explored only {states} states");
        }
    }
}
