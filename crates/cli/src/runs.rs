//! The non-repro subcommands: ad-hoc availability queries, sweeps,
//! crossover hunts and protocol simulations.

use crate::opts::Opts;
use dynvote_core::{par, AlgorithmKind, SiteId};
use dynvote_markov::hetero::{order_study, SiteRates};
use dynvote_markov::{crossover, statespace::DerivedChain, sweep};
use dynvote_mc::{simulate, simulate_replicated_with_progress, McConfig};
use dynvote_sim::{
    experiments::{results_to_csv, ExperimentPlan},
    minimize, FaultSchedule, NemesisProfile, SimConfig, Simulation,
};
use serde::Serialize;
use std::sync::atomic::{AtomicUsize, Ordering};

fn parse_algo(name: &str) -> Result<AlgorithmKind, String> {
    name.parse()
        .map_err(|_| format!("unknown algorithm {name:?}; see `dynvote help`"))
}

/// Resolve `--jobs` (0 or absent = auto: the machine's available
/// parallelism).
fn jobs_from(opts: &Opts) -> Result<usize, String> {
    let requested: usize = opts.get_or("jobs", 0).map_err(|e| e.to_string())?;
    Ok(par::resolve_jobs(Some(requested)))
}

/// A thread-safe `[done/total]` progress counter printing one line per
/// completed task to stderr (stdout stays machine-readable). Lines may
/// arrive in any order under parallel execution; the *results* never do.
struct Progress {
    done: AtomicUsize,
    total: usize,
}

impl Progress {
    fn new(total: usize, jobs: usize, what: &str) -> Self {
        eprintln!("# {what}: {total} tasks on {jobs} worker(s)");
        Progress {
            done: AtomicUsize::new(0),
            total,
        }
    }

    fn tick(&self, label: &str) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        eprintln!("# [{done}/{}] {label}", self.total);
    }
}

/// `dynvote avail`.
pub fn avail(opts: &Opts) -> Result<(), String> {
    let kind = parse_algo(opts.get("algo").unwrap_or("hybrid"))?;
    let n: usize = opts.get_or("n", 5).map_err(|e| e.to_string())?;
    let ratio: f64 = opts.get_or("ratio", 1.0).map_err(|e| e.to_string())?;
    if !(2..=20).contains(&n) {
        return Err("--n must be in 2..=20".into());
    }
    if ratio <= 0.0 {
        return Err("--ratio must be positive".into());
    }
    let analytic = sweep::availability(kind, n, ratio);
    println!("algorithm        {}", kind.id());
    println!("sites            {n}");
    println!("repair/failure   {ratio}");
    println!("site availability (analytic)   {analytic:.8}");
    println!(
        "normalised availability        {:.8}",
        dynvote_markov::normalized(analytic, ratio)
    );
    if opts.get_or("mc", false).map_err(|e| e.to_string())? {
        let result = simulate(
            kind,
            &McConfig {
                n,
                ratio,
                ..McConfig::default()
            },
        );
        println!(
            "site availability (simulated)  {:.8} ± {:.8}",
            result.site_availability, result.site_half_width
        );
    }
    Ok(())
}

#[derive(Serialize)]
struct SweepJson {
    n: usize,
    algorithms: Vec<String>,
    rows: Vec<SweepRowJson>,
}

#[derive(Serialize)]
struct SweepRowJson {
    ratio: f64,
    normalized_availability: Vec<f64>,
}

/// `dynvote sweep`.
pub fn sweep_cmd(opts: &Opts) -> Result<(), String> {
    let n: usize = opts.get_or("n", 5).map_err(|e| e.to_string())?;
    let lo: f64 = opts.get_or("lo", 0.1).map_err(|e| e.to_string())?;
    let hi: f64 = opts.get_or("hi", 10.0).map_err(|e| e.to_string())?;
    let steps: usize = opts.get_or("steps", 30).map_err(|e| e.to_string())?;
    if lo <= 0.0 || hi < lo || steps == 0 {
        return Err("need 0 < lo <= hi and steps >= 1".into());
    }
    let algos: Vec<AlgorithmKind> = match opts.get("algos") {
        None => sweep::FIGURE_ALGOS.to_vec(),
        Some(list) => list.split(',').map(parse_algo).collect::<Result<_, _>>()?,
    };
    let jobs = jobs_from(opts)?;
    let grid = sweep::ratio_grid(lo, hi, steps);
    let progress = Progress::new(grid.len(), jobs, "sweep");
    let result = sweep::figure_series_with_progress(n, &algos, &grid, jobs, |row| {
        progress.tick(&format!("ratio {:.4}", row.ratio));
    });
    match opts.get("format").unwrap_or("csv") {
        "csv" => print!("{}", result.to_csv()),
        "json" => {
            let json = SweepJson {
                n: result.n,
                algorithms: result
                    .algorithms
                    .iter()
                    .map(|a| a.id().to_owned())
                    .collect(),
                rows: result
                    .rows
                    .iter()
                    .map(|r| SweepRowJson {
                        ratio: r.ratio,
                        normalized_availability: r.values.clone(),
                    })
                    .collect(),
            };
            println!(
                "{}",
                serde_json::to_string_pretty(&json).expect("serializable")
            );
        }
        other => return Err(format!("unknown format {other:?} (csv|json)")),
    }
    Ok(())
}

/// `dynvote crossover`.
pub fn crossover_cmd(opts: &Opts) -> Result<(), String> {
    let first = parse_algo(opts.get("first").unwrap_or("hybrid"))?;
    let second = parse_algo(opts.get("second").unwrap_or("dynamic-linear"))?;
    let n: usize = opts.get_or("n", 5).map_err(|e| e.to_string())?;
    let lo: f64 = opts.get_or("lo", 0.05).map_err(|e| e.to_string())?;
    let hi: f64 = opts.get_or("hi", 5.0).map_err(|e| e.to_string())?;
    let a = DerivedChain::build(first, n);
    let b = DerivedChain::build(second, n);
    let diff = |ratio: f64| a.site_availability(ratio) - b.site_availability(ratio);
    let found = crossover::find_crossovers(n, diff, lo, hi);
    if found.is_empty() {
        let sample = diff(0.5 * (lo + hi));
        println!(
            "no crossover in [{lo}, {hi}]: {} is uniformly {} there",
            first.id(),
            if sample > 0.0 { "better" } else { "worse" }
        );
    } else {
        for c in found {
            println!(
                "{} overtakes {} at μ/λ = {:.4} (n = {n})",
                first.id(),
                second.id(),
                c.ratio
            );
        }
    }
    Ok(())
}

/// `dynvote chain` — print a chain as text or Graphviz DOT.
pub fn chain_cmd(opts: &Opts) -> Result<(), String> {
    let kind = parse_algo(opts.get("algo").unwrap_or("hybrid"))?;
    let n: usize = opts.get_or("n", 5).map_err(|e| e.to_string())?;
    let ratio: f64 = opts.get_or("ratio", 1.0).map_err(|e| e.to_string())?;
    if !(2..=20).contains(&n) || ratio <= 0.0 {
        return Err("need 2 <= n <= 20 and a positive ratio".into());
    }
    let chain = DerivedChain::build(kind, n).at_ratio(ratio);
    let title = format!("{} (n={n}, ratio={ratio})", kind.id());
    match opts.get("format").unwrap_or("text") {
        "dot" => print!("{}", chain.to_dot(&title)),
        "text" => {
            println!("{title}: {} states", chain.ctmc.len());
            let pi = chain.steady_state().map_err(|e| e.to_string())?;
            for (i, (s, p)) in chain.states.iter().zip(&pi).enumerate() {
                println!(
                    "  [{i:>3}] {:<44} π={p:.6} {}",
                    s.label,
                    if s.accepting { "accepting" } else { "" }
                );
            }
            println!(
                "site availability: {:.8}",
                chain.site_availability().map_err(|e| e.to_string())?
            );
        }
        other => return Err(format!("unknown format {other:?} (text|dot)")),
    }
    Ok(())
}

/// Parse `--rates "1:0.6,1:2,..."` into per-site (failure, repair).
fn parse_rates(text: &str) -> Result<Vec<SiteRates>, String> {
    text.split(',')
        .map(|pair| {
            let (f, r) = pair
                .split_once(':')
                .ok_or_else(|| format!("rate {pair:?} must look like failure:repair"))?;
            let failure: f64 = f.trim().parse().map_err(|_| format!("bad rate {f:?}"))?;
            let repair: f64 = r.trim().parse().map_err(|_| format!("bad rate {r:?}"))?;
            if failure <= 0.0 || repair <= 0.0 {
                return Err(format!("rates must be positive in {pair:?}"));
            }
            Ok(SiteRates { failure, repair })
        })
        .collect()
}

/// `dynvote hetero` — heterogeneous availability and the
/// distinguished-site ordering study (the paper's Section VII
/// challenge).
pub fn hetero_cmd(opts: &Opts) -> Result<(), String> {
    let rates = parse_rates(opts.get("rates").unwrap_or("1:0.6,1:1,1:2,1:4,1:8"))?;
    let n = rates.len();
    if !(2..=12).contains(&n) {
        return Err("need 2..=12 sites".into());
    }
    println!("per-site rates (failure:repair, p = up probability):");
    for (i, r) in rates.iter().enumerate() {
        println!(
            "  {}: {}:{}  p={:.4}",
            dynvote_core::SiteId::new(i),
            r.failure,
            r.repair,
            r.up_probability()
        );
    }
    println!();
    println!(
        "{:<18} {:>16} {:>16} {:>12}",
        "algorithm", "reliable-first", "reliable-last", "gain"
    );
    for kind in AlgorithmKind::ALL {
        let study = order_study(kind, &rates);
        println!(
            "{:<18} {:>16.8} {:>16.8} {:>+12.2e}",
            kind.id(),
            study.reliable_first,
            study.reliable_last,
            study.reliable_first - study.reliable_last
        );
    }
    println!("\n(`reliable-first` ranks the most reliable site greatest in the");
    println!("file's linear order, so it is preferred as the distinguished site.)");
    Ok(())
}

/// `dynvote witnesses` — availability of voting with witnesses vs full
/// copies (E12).
pub fn witnesses_cmd(opts: &Opts) -> Result<(), String> {
    use dynvote_core::algorithms::VotingWithWitnesses;
    use dynvote_core::{LinearOrder, SiteId, SiteSet};
    use dynvote_markov::hetero::{hetero_chain_for, SiteRates};

    let n: usize = opts.get_or("n", 5).map_err(|e| e.to_string())?;
    let ratio: f64 = opts.get_or("ratio", 2.0).map_err(|e| e.to_string())?;
    if !(2..=8).contains(&n) || ratio <= 0.0 {
        return Err("need 2 <= n <= 8 and a positive ratio".into());
    }
    println!("voting with witnesses at n={n}, ratio={ratio}:");
    println!(
        "{:<12} {:>16} {:>12}",
        "data copies", "availability", "vs all-copies"
    );
    let rates = vec![SiteRates::homogeneous(ratio); n];
    let full = dynvote_markov::chains::voting_availability(n, ratio);
    for copies in (1..=n).rev() {
        let copy_set: SiteSet = (0..copies).map(SiteId::new).collect();
        let a = hetero_chain_for(
            Box::new(VotingWithWitnesses::uniform(n, copy_set)),
            &rates,
            LinearOrder::lexicographic(n),
        )
        .site_availability()
        .map_err(|e| e.to_string())?;
        println!(
            "{:<12} {:>16.6} {:>+12.4}",
            format!("{copies} of {n}"),
            a,
            a - full
        );
    }
    println!("\n(each witness stores a version number instead of the file —");
    println!("the availability cost of the saved storage, quantified)");
    Ok(())
}

/// `dynvote joint` — joint availability of multi-file transactions
/// (E15).
pub fn joint_cmd(opts: &Opts) -> Result<(), String> {
    use dynvote_mc::{simulate_joint, MultiMcConfig};

    let ratio: f64 = opts.get_or("ratio", 1.0).map_err(|e| e.to_string())?;
    let n: usize = opts.get_or("n", 5).map_err(|e| e.to_string())?;
    let horizon: f64 = opts
        .get_or("horizon", 40_000.0)
        .map_err(|e| e.to_string())?;
    let seed: u64 = opts.get_or("seed", 0xFEED).map_err(|e| e.to_string())?;
    let algos: Vec<AlgorithmKind> = match opts.get("algos") {
        None => vec![AlgorithmKind::Hybrid, AlgorithmKind::Voting],
        Some(list) => list.split(',').map(parse_algo).collect::<Result<_, _>>()?,
    };
    if !(2..=12).contains(&n) || ratio <= 0.0 || horizon <= 0.0 {
        return Err("need 2 <= n <= 12, positive ratio and horizon".into());
    }
    let result = simulate_joint(&MultiMcConfig {
        files: algos.clone(),
        n,
        ratio,
        horizon,
        seed,
        ..MultiMcConfig::default()
    });
    println!("joint availability of a transaction touching every file");
    println!("(n={n}, ratio={ratio}, horizon={horizon}):\n");
    for (kind, marginal) in algos.iter().zip(&result.marginals) {
        println!("  marginal {:<18} {marginal:.4}", kind.id());
    }
    println!(
        "  joint (measured)            {:.4} ± {:.4}",
        result.joint_system, result.joint_half_width
    );
    println!(
        "  independence would predict  {:.4}",
        result.independence_product
    );
    println!("  joint, site-weighted        {:.4}", result.joint_site);
    println!("\nshared failures correlate the files: the joint sits near the");
    println!("weakest marginal, far above the independence product.");
    Ok(())
}

/// `dynvote votes` — the optimal static vote assignment vs uniform vs
/// the dynamic family (E16).
pub fn votes_cmd(opts: &Opts) -> Result<(), String> {
    use dynvote_core::LinearOrder;
    use dynvote_markov::hetero::hetero_availability;
    use dynvote_markov::optimal_vote_assignment;

    let rates = parse_rates(opts.get("rates").unwrap_or("1:0.6,1:1,1:2,1:4,1:8"))?;
    let max_vote: u64 = opts.get_or("max-vote", 3).map_err(|e| e.to_string())?;
    let n = rates.len();
    if !(2..=8).contains(&n) || !(1..=4).contains(&max_vote) {
        return Err("need 2..=8 sites and max-vote 1..=4".into());
    }
    let result = optimal_vote_assignment(&rates, max_vote);
    println!("optimal static vote assignment (votes 0..={max_vote} per site):");
    println!("  assignment      {}", result.votes);
    println!("  availability    {:.6}", result.availability);
    println!("  uniform votes   {:.6}", result.uniform_availability);
    println!("\nthe dynamic family under the same rates:");
    for kind in [
        AlgorithmKind::DynamicVoting,
        AlgorithmKind::DynamicLinear,
        AlgorithmKind::Hybrid,
    ] {
        let a = hetero_availability(kind, &rates, LinearOrder::lexicographic(n));
        println!(
            "  {:<16} {a:.6} ({:+.4} vs optimal static)",
            kind.id(),
            a - result.availability
        );
    }
    Ok(())
}

/// `dynvote transient` — availability over time from the all-up start.
pub fn transient_cmd(opts: &Opts) -> Result<(), String> {
    let kind = parse_algo(opts.get("algo").unwrap_or("hybrid"))?;
    let n: usize = opts.get_or("n", 5).map_err(|e| e.to_string())?;
    let ratio: f64 = opts.get_or("ratio", 1.0).map_err(|e| e.to_string())?;
    let until: f64 = opts.get_or("until", 10.0).map_err(|e| e.to_string())?;
    let steps: usize = opts.get_or("steps", 20).map_err(|e| e.to_string())?;
    if !(2..=20).contains(&n) || ratio <= 0.0 || until <= 0.0 || steps == 0 {
        return Err("need 2 <= n <= 20, positive ratio/until, steps >= 1".into());
    }
    let chain = DerivedChain::build(kind, n).at_ratio(ratio);
    let steady = chain.site_availability().map_err(|e| e.to_string())?;
    // The derived chain's initial state (index 0) is the all-up state.
    println!("t,site_availability");
    for i in 0..=steps {
        let t = until * i as f64 / steps as f64;
        println!("{t:.4},{:.8}", chain.site_availability_at(0, t));
    }
    println!("# steady state: {steady:.8}");
    Ok(())
}

/// `dynvote simulate`.
pub fn simulate_cmd(opts: &Opts) -> Result<(), String> {
    let kind = parse_algo(opts.get("algo").unwrap_or("hybrid"))?;
    let n: usize = opts.get_or("n", 5).map_err(|e| e.to_string())?;
    let duration: f64 = opts.get_or("duration", 100.0).map_err(|e| e.to_string())?;
    let update_rate: f64 = opts.get_or("update-rate", 3.0).map_err(|e| e.to_string())?;
    let fault_rate: f64 = opts.get_or("fault-rate", 0.3).map_err(|e| e.to_string())?;
    let link_rate: f64 = opts
        .get_or("link-fault-rate", 0.3)
        .map_err(|e| e.to_string())?;
    let drop: f64 = opts.get_or("drop", 0.0).map_err(|e| e.to_string())?;
    let seed: u64 = opts.get_or("seed", 7).map_err(|e| e.to_string())?;
    let trace: bool = opts.get_or("trace", false).map_err(|e| e.to_string())?;
    if !(2..=20).contains(&n) || duration <= 0.0 || update_rate <= 0.0 {
        return Err("need 2 <= n <= 20, positive duration and update-rate".into());
    }

    let mut sim = Simulation::new(SimConfig {
        n,
        algorithm: kind,
        drop_probability: drop,
        seed,
        ..SimConfig::default()
    });
    if trace {
        sim.enable_trace();
    }
    sim.submit_update(SiteId(0));
    sim.quiesce();
    sim.schedule_poisson_arrivals(update_rate, duration);
    if fault_rate > 0.0 || link_rate > 0.0 {
        sim.schedule_random_faults(fault_rate, link_rate, duration);
    }
    sim.run_until(duration * 1.1);
    // Heal and let in-doubt transactions resolve, then verify.
    for i in 0..n {
        sim.recover_site(SiteId::new(i));
        for j in i + 1..n {
            sim.repair_link(SiteId::new(i), SiteId::new(j));
        }
    }
    sim.quiesce();

    let stats = sim.stats();
    println!("algorithm           {}", kind.id());
    println!("simulated time      {:.1}", sim.clock());
    println!("updates submitted   {}", stats.submitted);
    println!("commits             {}", stats.commits);
    println!("rejected (quorum)   {}", stats.rejected);
    println!("contended (race)    {}", stats.contended);
    println!("rejected (locked)   {}", stats.lock_busy);
    println!("timeouts            {}", stats.timeouts);
    println!("messages sent       {}", stats.messages_sent);
    println!("messages dropped    {}", stats.messages_dropped);
    println!("site crashes        {}", stats.site_crashes);
    println!("site recoveries     {}", stats.site_recoveries);
    println!("chain length        {}", sim.ledger().len());
    println!("protocol events     {}", sim.event_tallies());
    let violations = sim.check_invariants();
    if violations.is_empty() {
        println!("consistency         OK (one-copy serializable)");
        Ok(())
    } else {
        for v in &violations {
            println!("VIOLATION: {v}");
        }
        Err("consistency violations detected".into())
    }
}

/// `dynvote chaos`: generate (or replay) a serialized nemesis fault
/// schedule, run it against one or all algorithms, and on failure
/// optionally delta-debug the schedule down to a minimal reproducer.
pub fn chaos_cmd(opts: &Opts) -> Result<(), String> {
    let algo = opts.get("algo").unwrap_or("all");
    let kinds: Vec<AlgorithmKind> = if algo == "all" {
        AlgorithmKind::ALL.to_vec()
    } else {
        vec![parse_algo(algo)?]
    };
    let n: usize = opts.get_or("n", 5).map_err(|e| e.to_string())?;
    let seed: u64 = opts.get_or("seed", 7).map_err(|e| e.to_string())?;
    let duration: f64 = opts.get_or("duration", 60.0).map_err(|e| e.to_string())?;
    let update_rate: f64 = opts.get_or("update-rate", 3.0).map_err(|e| e.to_string())?;
    let drop: f64 = opts.get_or("drop", 0.0).map_err(|e| e.to_string())?;
    if !(2..=20).contains(&n) || duration <= 0.0 || update_rate <= 0.0 {
        return Err("need 2 <= n <= 20, positive duration and update-rate".into());
    }
    let config = SimConfig {
        n,
        drop_probability: drop,
        seed,
        ..SimConfig::default()
    };
    config.validate().map_err(|e| e.to_string())?;

    let schedule = match opts.get("schedule") {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read schedule {path}: {e}"))?;
            FaultSchedule::from_json(&text)?
        }
        None => FaultSchedule::generate(n, duration, seed, &NemesisProfile::default()),
    };
    if let Some(path) = opts.get("out") {
        std::fs::write(path, schedule.to_json())
            .map_err(|e| format!("cannot write schedule {path}: {e}"))?;
        println!("# schedule written to {path}");
    }
    println!(
        "nemesis schedule    {} events, horizon {:.1}",
        schedule.len(),
        schedule.end_time()
    );

    // One deterministic run: healthy prologue, schedule + workload,
    // heal, then let every in-doubt transaction resolve.
    let run_one = |kind: AlgorithmKind, schedule: &FaultSchedule| -> Simulation {
        let mut sim = Simulation::new(SimConfig {
            algorithm: kind,
            ..config.clone()
        });
        sim.submit_update(SiteId(0));
        sim.quiesce();
        sim.apply_schedule(schedule);
        sim.schedule_poisson_arrivals(update_rate, duration);
        sim.run_until(duration.max(schedule.end_time()) * 1.25);
        sim.heal();
        sim.quiesce();
        sim
    };

    println!(
        "{:<18} {:>8} {:>8} {:>8} {:>8} {:>8}  verdict",
        "algorithm", "commits", "rejects", "dropped", "dups", "crashes"
    );
    let mut first_failing = None;
    for &kind in &kinds {
        let sim = run_one(kind, &schedule);
        let stats = sim.stats();
        let violations = sim.check_invariants();
        let verdict = if violations.is_empty() {
            "OK".to_string()
        } else {
            format!("{} VIOLATION(S)", violations.len())
        };
        println!(
            "{:<18} {:>8} {:>8} {:>8} {:>8} {:>8}  {verdict}",
            kind.id(),
            stats.commits,
            stats.rejected,
            stats.messages_dropped,
            stats.messages_duplicated,
            stats.site_crashes
        );
        for v in &violations {
            println!("    VIOLATION: {v}");
        }
        if !violations.is_empty() && first_failing.is_none() {
            first_failing = Some(kind);
        }
    }

    let Some(failing) = first_failing else {
        println!("consistency         OK for every algorithm (one-copy serializable)");
        return Ok(());
    };
    if opts.get_or("minimize", false).map_err(|e| e.to_string())? {
        println!("minimizing against {} ...", failing.id());
        let minimal = minimize(&schedule, |candidate| {
            !run_one(failing, candidate).check_invariants().is_empty()
        });
        println!(
            "minimal reproducer  {} of {} events",
            minimal.len(),
            schedule.len()
        );
        if let Some(path) = opts.get("min-out") {
            std::fs::write(path, minimal.to_json())
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            println!("# minimal schedule written to {path}");
        } else {
            println!("{}", minimal.to_json());
        }
    }
    Err("consistency violations detected".into())
}

/// `dynvote mc`: a batch of independent Monte-Carlo replications with
/// seeds derived from the master seed by the counter-based splitter.
pub fn mc_cmd(opts: &Opts) -> Result<(), String> {
    let kind = parse_algo(opts.get("algo").unwrap_or("hybrid"))?;
    let config = McConfig {
        n: opts.get_or("n", 5).map_err(|e| e.to_string())?,
        ratio: opts.get_or("ratio", 1.0).map_err(|e| e.to_string())?,
        horizon: opts
            .get_or("horizon", 10_000.0)
            .map_err(|e| e.to_string())?,
        burn_in: opts.get_or("burn-in", 500.0).map_err(|e| e.to_string())?,
        batches: opts.get_or("batches", 20).map_err(|e| e.to_string())?,
        seed: opts.get_or("seed", 0xD1CE).map_err(|e| e.to_string())?,
        rates: None,
    };
    config.validate().map_err(|e| e.to_string())?;
    let replications: usize = opts.get_or("replications", 8).map_err(|e| e.to_string())?;
    if replications == 0 {
        return Err("--replications must be at least 1".into());
    }
    let jobs = jobs_from(opts)?;
    let progress = Progress::new(replications, jobs, "mc replications");
    let result = simulate_replicated_with_progress(kind, &config, replications, jobs, |i, r| {
        progress.tick(&format!(
            "replication {i}: site availability {:.6}",
            r.site_availability
        ));
    });
    println!(
        "replication,seed,site_availability,site_half_width,system_availability,events,commits"
    );
    for (i, r) in result.replications.iter().enumerate() {
        println!(
            "{i},{},{:.6},{:.6},{:.6},{},{}",
            dynvote_mc::ReplicatedResult::seed_of(config.seed, i),
            r.site_availability,
            r.site_half_width,
            r.system_availability,
            r.events,
            r.commits
        );
    }
    println!(
        "# site availability   {:.6} ± {:.6} (95%, {} replications)",
        result.site_availability, result.site_half_width, replications
    );
    println!(
        "# system availability {:.6} ± {:.6}",
        result.system_availability, result.system_half_width
    );
    println!(
        "# analytic reference  {:.6}",
        sweep::availability(kind, config.n, config.ratio)
    );
    Ok(())
}

/// `dynvote experiments`: an algorithms × replications grid of
/// message-level protocol simulations, one CSV row per cell.
pub fn experiments_cmd(opts: &Opts) -> Result<(), String> {
    let algorithms: Vec<AlgorithmKind> = match opts.get("algos") {
        None => AlgorithmKind::ALL.to_vec(),
        Some(list) => list.split(',').map(parse_algo).collect::<Result<_, _>>()?,
    };
    let plan = ExperimentPlan {
        algorithms,
        replications: opts.get_or("replications", 3).map_err(|e| e.to_string())?,
        n: opts.get_or("n", 5).map_err(|e| e.to_string())?,
        duration: opts.get_or("duration", 100.0).map_err(|e| e.to_string())?,
        update_rate: opts.get_or("update-rate", 3.0).map_err(|e| e.to_string())?,
        fault_rate: opts.get_or("fault-rate", 0.3).map_err(|e| e.to_string())?,
        link_fault_rate: opts
            .get_or("link-fault-rate", 0.3)
            .map_err(|e| e.to_string())?,
        drop_probability: opts.get_or("drop", 0.0).map_err(|e| e.to_string())?,
        master_seed: opts.get_or("seed", 7).map_err(|e| e.to_string())?,
    };
    plan.validate().map_err(|e| e.to_string())?;
    let jobs = jobs_from(opts)?;
    let progress = Progress::new(plan.cells(), jobs, "experiments");
    let results = plan.execute_with_progress(jobs, |r| {
        progress.tick(&format!(
            "{} rep {}: {} commits",
            r.algorithm.id(),
            r.replication,
            r.stats.commits
        ));
    });
    print!("{}", results_to_csv(&results));
    let violations: usize = results.iter().map(|r| r.violations).sum();
    if violations == 0 {
        println!("# consistency OK across all {} cells", results.len());
        Ok(())
    } else {
        Err(format!("{violations} consistency violation(s) detected"))
    }
}
