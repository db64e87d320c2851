//! The correctness gate every segment must pass before its numbers
//! count: what the clients were told is what the cluster holds, live
//! and (on the durable workload) after reopening the disks.

use crate::loadgen::{Conn, FailNames};
use crate::workload::{Workload, FAULT_SITE, SITES};
use dynvote_cluster::{AuditOutcome, ClientReply, Cluster};
use dynvote_core::SiteId;
use dynvote_protocol::{DurableState, ObjectId};
use dynvote_storage::{NodeStore, StoreConfig};
use std::path::Path;
use std::time::Duration;

/// Which objects still hold a lock or a prepare record, and where.
pub fn stuck_objects(w: &Workload, cluster: &Cluster) -> String {
    let mut stuck = Vec::new();
    for site in 0..SITES as u8 {
        for key in 0..w.objects as u32 {
            if let Ok(ClientReply::Probe {
                meta,
                locked,
                in_doubt,
                ..
            }) = cluster.probe_object(SiteId(site), key)
            {
                if locked || in_doubt {
                    stuck.push(format!(
                        "site {site} key {key} v{} locked={locked} in_doubt={in_doubt}",
                        meta.version
                    ));
                }
            }
        }
    }
    stuck.join("; ")
}

/// Acked versions are unique per key, lie inside the key's chain, and
/// — when every op was answered, so nothing is indeterminate — account
/// for every workload commit the cluster recorded. Without restart
/// commits that makes each key's acked versions exactly `1..=len`.
pub fn check_versions(
    w: &Workload,
    cluster: &Cluster,
    acked: &[(u32, u64)],
    unanswered: u64,
    audit: &AuditOutcome,
) -> Result<(), String> {
    let mut by_key: Vec<Vec<u64>> = vec![Vec::new(); w.objects];
    for &(key, version) in acked {
        by_key[key as usize].push(version);
    }
    for (key, versions) in by_key.iter_mut().enumerate() {
        versions.sort_unstable();
        if versions.windows(2).any(|pair| pair[0] == pair[1]) {
            return Err(format!("{}: key {key}: a version was acked twice", w.name));
        }
        let len = cluster.ledger().chain_len_of(ObjectId(key as u32));
        if versions.last().is_some_and(|&v| v > len) || versions.first() == Some(&0) {
            return Err(format!(
                "{}: key {key}: acked version outside the chain",
                w.name
            ));
        }
        if !w.fault && unanswered == 0 && versions.len() as u64 != len {
            return Err(format!(
                "{}: key {key}: {} versions acked but the chain holds {len}",
                w.name,
                versions.len()
            ));
        }
    }
    let acked_total = acked.len() as u64;
    if unanswered == 0 && acked_total != audit.commits {
        return Err(format!(
            "{}: clients were acked {acked_total} commits, coordinators recorded {}",
            w.name, audit.commits
        ));
    }
    if acked_total > audit.commits {
        return Err(format!(
            "{}: more commits acked ({acked_total}) than recorded ({})",
            w.name, audit.commits
        ));
    }
    if !w.fault && audit.chain_len != audit.commits {
        return Err(format!(
            "{}: chain holds {} versions but {} workload commits",
            w.name, audit.chain_len, audit.commits
        ));
    }
    Ok(())
}

/// After recovery the crashed site must be able to reach every key's
/// final version: keys whose restart round lost a lock race are brought
/// current by one update coordinated there.
pub fn check_rejoined(w: &Workload, cluster: &Cluster, probe: &mut Conn) -> Result<(), String> {
    let site = SiteId(FAULT_SITE);
    let version_at = |key: u32| match cluster.probe_object(site, key) {
        Ok(ClientReply::Probe { meta, down, .. }) if !down => Ok(meta.version),
        other => Err(format!(
            "{}: probe of site {site} key {key}: {other:?}",
            w.name
        )),
    };
    let chain = |key: u32| cluster.ledger().chain_len_of(ObjectId(key));
    let mut fails = FailNames::default();
    for key in 0..w.objects as u32 {
        if version_at(key)? == chain(key) {
            continue;
        }
        probe
            .request(key, false, &mut fails)
            .map_err(|e| format!("{}: catch-up update on key {key}: {e}", w.name))?;
        if !cluster.await_quiescence(Duration::from_secs(5)) || version_at(key)? != chain(key) {
            return Err(format!(
                "{}: site {site} did not reach key {key}'s final version after recovery",
                w.name
            ));
        }
    }
    Ok(())
}

/// Reopen every site's data directory after shutdown: each acked
/// `(key, version)` must be in the recovered chains, and every site's
/// log for a key must be a prefix of one chain.
pub fn check_durable(
    w: &Workload,
    data_dir: &Path,
    acked: &[(u32, u64)],
    chain_lens: &[u64],
) -> Result<(), String> {
    let mut longest: Vec<Vec<u64>> = vec![Vec::new(); w.objects];
    for site in 0..SITES {
        let dir = data_dir.join(format!("site-{site}"));
        let (_, states, _) = NodeStore::open(
            &dir,
            StoreConfig::default(),
            w.objects,
            DurableState::initial(SITES),
        )
        .map_err(|e| format!("{}: reopen {}: {e}", w.name, dir.display()))?;
        for (key, state) in states.iter().enumerate().take(w.objects) {
            let chain = &mut longest[key];
            for (i, entry) in state.log.iter().enumerate() {
                if entry.version != i as u64 + 1 {
                    return Err(format!(
                        "{}: site {site} key {key}: recovered log has a gap",
                        w.name
                    ));
                }
                match chain.get(i) {
                    Some(&payload) if payload != entry.payload => {
                        return Err(format!(
                            "{}: site {site} key {key} version {}: recovered logs diverge",
                            w.name, entry.version
                        ));
                    }
                    Some(_) => {}
                    None => chain.push(entry.payload),
                }
            }
        }
    }
    for &(key, version) in acked {
        if version > longest[key as usize].len() as u64 {
            return Err(format!(
                "{}: key {key} version {version} was acked but is in no recovered log",
                w.name
            ));
        }
    }
    for (key, (chain, &len)) in longest.iter().zip(chain_lens).enumerate() {
        if chain.len() as u64 != len {
            return Err(format!(
                "{}: key {key}: recovered chain holds {} versions, the live one held {len}",
                w.name,
                chain.len()
            ));
        }
    }
    Ok(())
}
