//! Fault injection: run the message-level protocol through crashes,
//! partitions and message loss, and watch Theorem 1 hold.
//!
//! ```text
//! cargo run --example fault_injection
//! ```
//!
//! The discrete-event simulator executes the full Section V protocol —
//! voting, catch-up, two-phase commit, the cooperative termination
//! protocol and the restart protocol — while an adversarial schedule
//! crashes sites, severs links and drops 10% of messages. The engine's
//! omniscient ledger confirms that no interleaving ever commits two
//! different updates at the same version.

use dynvote::sim::{FaultSchedule, NemesisProfile, SimConfig, Simulation};
use dynvote::{AlgorithmKind, SiteId};

fn main() {
    // ---- Act 1: a scripted catastrophe -------------------------------
    println!("=== Act 1: scripted coordinator crash (the 2PC blocking window) ===");
    let mut sim = Simulation::new(SimConfig {
        n: 5,
        algorithm: AlgorithmKind::Hybrid,
        ..SimConfig::default()
    });
    sim.submit_update(SiteId(0));
    sim.quiesce();
    println!(
        "v1 committed everywhere; chain length {}",
        sim.ledger().len()
    );

    // A starts an update and crashes while the votes are in flight.
    sim.submit_update(SiteId(0));
    sim.run_until(sim.clock() + 0.015);
    sim.crash_site(SiteId(0));
    sim.run_until(sim.clock() + 1.0);
    println!(
        "coordinator A crashed mid-protocol; B..E hold prepare records: {}",
        (1..5)
            .map(|i| sim.site(SiteId(i)).is_in_doubt().to_string())
            .collect::<Vec<_>>()
            .join(" ")
    );

    // The in-doubt locks block new updates — the price of 2PC safety.
    sim.submit_update(SiteId(2));
    sim.run_until(sim.clock() + 1.0);
    println!(
        "update at C while in doubt: commits = {} (still blocked)",
        sim.stats().commits
    );

    // A recovers; its presumed-abort answer releases everyone.
    sim.recover_site(SiteId(0));
    sim.quiesce();
    sim.submit_update(SiteId(2));
    sim.quiesce();
    println!(
        "after A recovers: commits = {}, violations = {:?}",
        sim.stats().commits,
        sim.check_invariants()
    );

    // ---- Act 2: a nemesis schedule -----------------------------------
    // The chaos is no longer ad-hoc: it is a serializable FaultSchedule,
    // so the exact same adversary can be saved, shared and replayed
    // (`sim.apply_schedule` is deterministic per engine seed).
    println!("\n=== Act 2: 200 time units under a generated nemesis schedule ===");
    let mut sim = Simulation::new(SimConfig {
        n: 5,
        algorithm: AlgorithmKind::Hybrid,
        drop_probability: 0.10,
        seed: 42,
        ..SimConfig::default()
    });
    sim.submit_update(SiteId(0));
    sim.quiesce();

    let schedule = FaultSchedule::generate(5, 200.0, 42, &NemesisProfile::default());
    println!(
        "schedule: {} events (crashes, partitions, one-way cuts, lossy/",
        schedule.len()
    );
    println!(
        "duplicating/reordering bursts), horizon {:.0}",
        schedule.end_time()
    );
    sim.apply_schedule(&schedule);
    sim.schedule_poisson_arrivals(4.0, 200.0);
    sim.run_until(220.0);

    // Heal the world and let every blocked transaction resolve.
    sim.heal();
    sim.quiesce();

    let stats = sim.stats();
    println!("updates submitted   {}", stats.submitted);
    println!("commits             {}", stats.commits);
    println!("rejected (quorum)   {}", stats.rejected);
    println!("contended (race)    {}", stats.contended);
    println!("rejected (locked)   {}", stats.lock_busy);
    println!(
        "messages dropped    {}/{}",
        stats.messages_dropped, stats.messages_sent
    );
    println!("messages duplicated {}", stats.messages_duplicated);
    println!("site crashes        {}", stats.site_crashes);

    let violations = sim.check_invariants();
    assert!(
        violations.is_empty(),
        "consistency violated: {violations:?}"
    );
    println!("\nconsistency: OK — the committed history is a single chain of");
    println!(
        "{} versions, and every site's log is a prefix of it.",
        sim.ledger().len()
    );

    // Final updates prove the healed system converges. (The channel
    // still drops 10% of messages, so a site can miss a vote request
    // and sit out a round — it simply stays stale, unlocked, and joins
    // the next quorum; a few rounds suffice.)
    for round in 1..=10 {
        sim.submit_update(SiteId(3));
        sim.quiesce();
        let versions: Vec<u64> = (0..5).map(|i| sim.site(SiteId(i)).meta().version).collect();
        if versions.iter().all(|&v| v == versions[0]) {
            println!(
                "converged after {round} round(s): all sites at v{}",
                versions[0]
            );
            break;
        }
        println!("round {round}: versions {versions:?} (a vote request was dropped)");
    }
    assert!(sim.check_invariants().is_empty());
}
