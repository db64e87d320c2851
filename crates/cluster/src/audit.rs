//! The consistency audit: one comparison of what the sites' copies hold.
//!
//! The paper's safety claim is about the copies themselves: every site's
//! log of an object is a prefix of one chain of versions (one-copy
//! serializability). A kernel only ever appends to its log, a crash
//! keeps it and a durable reboot re-reads it, so the sites' own logs
//! hold every committed entry and the longest one *is* the object's
//! chain. No omniscient observer is needed, and the check reads the
//! same thing in-process ([`crate::Cluster::audit`]) as over the wire
//! (a [`crate::ClientOp::DumpLog`] per site and object).

use dynvote_core::{CopyMeta, SiteId};
use dynvote_protocol::{LogEntry, ObjectId};

/// The verdict of a cluster-wide audit (see [`crate::Cluster::audit`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditOutcome {
    /// Workload updates committed, summed over all coordinators
    /// (`Make_Current` restart commits excluded).
    pub commits: u64,
    /// Versions committed, summed over every object's chain (its
    /// longest log; restart commits included).
    pub chain_len: u64,
    /// True exactly when `violations` is empty.
    pub consistent: bool,
    /// Human-readable violations (empty on a correct run).
    pub violations: Vec<String>,
}

impl AuditOutcome {
    /// Audit every object's copies — `objects[o]` holds each site's
    /// copy of object `o`, in site order — reporting `commits`
    /// workload commits counted by the coordinators.
    #[must_use]
    pub fn of_logs(commits: u64, objects: &[Vec<(CopyMeta, Vec<LogEntry>)>]) -> Self {
        let mut chain_len = 0;
        let mut violations = Vec::new();
        for (o, copies) in objects.iter().enumerate() {
            let (len, found) = audit_logs(ObjectId(o as u32), copies);
            chain_len += len;
            violations.extend(found);
        }
        AuditOutcome {
            commits,
            chain_len,
            consistent: violations.is_empty(),
            violations,
        }
    }
}

/// Compare every site's copy of `object` — its `(VN, SC, DS)` and its
/// committed log, as a [`crate::ClientReply::Log`] carries them, site
/// `i` at index `i`. Returns the object's chain length (its longest
/// log) and one violation for each copy whose log is not versions
/// `1..=len` in order, whose metadata version is not its log length, or
/// that holds a different payload than another site at some version. A
/// stale prefix, an empty log and a crashed site's log are clean.
#[must_use]
pub fn audit_logs(object: ObjectId, copies: &[(CopyMeta, Vec<LogEntry>)]) -> (u64, Vec<String>) {
    // `chain[v - 1]`: the payload of version `v` and the first site
    // seen holding it.
    let mut chain: Vec<(u64, SiteId)> = Vec::new();
    let mut chain_len = 0;
    let mut violations = Vec::new();
    for (i, (meta, log)) in copies.iter().enumerate() {
        let site = SiteId(i as u8);
        let len = log.len() as u64;
        chain_len = chain_len.max(len);
        if meta.version != len {
            violations.push(format!(
                "site {site} {object}: metadata at version {} but the log holds {len}",
                meta.version
            ));
        }
        if let Some((at, entry)) = (1..).zip(log).find(|&(at, e)| e.version != at) {
            violations.push(format!(
                "site {site} {object}: log position {at} holds version {}",
                entry.version
            ));
            continue;
        }
        for (at, entry) in log.iter().enumerate() {
            match chain.get(at) {
                None => chain.push((entry.payload, site)),
                Some(&(payload, first)) if payload != entry.payload => {
                    violations.push(format!(
                        "site {site} {object}: version {} holds payload {:#x}, \
                         site {first} holds {payload:#x}",
                        entry.version, entry.payload
                    ));
                    break;
                }
                Some(_) => {}
            }
        }
    }
    (chain_len, violations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynvote_core::Distinguished;

    /// A copy whose log holds `payloads` at versions `1..`, with its
    /// metadata in step.
    fn copy(payloads: &[u64]) -> (CopyMeta, Vec<LogEntry>) {
        let log: Vec<LogEntry> = (1..)
            .zip(payloads)
            .map(|(version, &payload)| LogEntry { version, payload })
            .collect();
        (meta(log.len() as u64), log)
    }

    fn meta(version: u64) -> CopyMeta {
        CopyMeta {
            version,
            cardinality: 3,
            distinguished: Distinguished::Irrelevant,
        }
    }

    const O: ObjectId = ObjectId::ZERO;

    #[test]
    fn stale_prefixes_empty_and_crashed_logs_are_clean() {
        // Site 0 current, site 1 a stale prefix, site 2 never reached
        // (or crashed before anything committed).
        let copies = [copy(&[0x10, 0x20, 0x30]), copy(&[0x10]), copy(&[])];
        assert_eq!(audit_logs(O, &copies), (3, Vec::new()));
        assert_eq!(audit_logs(O, &[]), (0, Vec::new()));
    }

    #[test]
    fn divergent_payloads_at_one_version_are_flagged() {
        let copies = [copy(&[0x10, 0x20]), copy(&[0x10, 0x99]), copy(&[0x10])];
        let (len, violations) = audit_logs(O, &copies);
        assert_eq!(len, 2);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("site B"), "{violations:?}");
        assert!(violations[0].contains("version 2"), "{violations:?}");
        assert!(violations[0].contains("0x99"), "{violations:?}");
    }

    #[test]
    fn a_log_that_is_not_gapless_is_flagged() {
        let (_, mut log) = copy(&[0x10, 0x20, 0x30]);
        log.remove(1); // versions 1, 3
        let copies = [copy(&[0x10, 0x20, 0x30]), (meta(3), log)];
        let (len, violations) = audit_logs(O, &copies);
        assert_eq!(len, 3);
        // The gap, and metadata (VN 3) out of step with a 2-entry log.
        assert_eq!(violations.len(), 2, "{violations:?}");
        assert!(violations
            .iter()
            .any(|v| v.contains("position 2 holds version 3")));

        let (_, mut log) = copy(&[0x10, 0x20]);
        log.swap(0, 1);
        let (_, violations) = audit_logs(O, &[(meta(2), log)]);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("position 1 holds version 2"));
    }

    #[test]
    fn metadata_out_of_step_with_the_log_is_flagged() {
        let (_, log) = copy(&[0x10, 0x20]);
        let (len, violations) = audit_logs(O, &[copy(&[0x10, 0x20]), (meta(1), log)]);
        assert_eq!(len, 2);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(violations[0].contains("metadata at version 1"));
    }

    #[test]
    fn objects_audit_independently() {
        // The same payload at version 1 of two objects is clean; a
        // divergence on object 1 is reported against object 1 only.
        let objects = vec![
            vec![copy(&[0xA0]), copy(&[0xA0])],
            vec![copy(&[0xA0]), copy(&[0xA0])],
            vec![copy(&[0xC0, 0xC1]), copy(&[0xC0])],
        ];
        let clean = AuditOutcome::of_logs(4, &objects);
        assert_eq!(
            clean,
            AuditOutcome {
                commits: 4,
                chain_len: 4,
                consistent: true,
                violations: Vec::new(),
            }
        );

        let mut diverged = objects;
        diverged[1][1] = copy(&[0xB1]);
        let audit = AuditOutcome::of_logs(4, &diverged);
        assert!(!audit.consistent);
        assert_eq!(audit.chain_len, 4);
        assert_eq!(audit.violations.len(), 1, "{:?}", audit.violations);
        assert!(audit.violations[0].contains("o1"), "{:?}", audit.violations);
    }
}
