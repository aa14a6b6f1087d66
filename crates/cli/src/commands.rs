//! The `ddcr` subcommands: analysis, feasibility, dimensioning, and
//! simulation front ends over the library crates.

use crate::args::{ArgError, Args};
use ddcr_baseline::QueueDiscipline;
use ddcr_core::{dimensioning, feasibility, federate, multibus, network, DdcrConfig, StaticAllocation};
use ddcr_sim::federation::{FederationFaultSpec, FederationOptions};
use ddcr_sim::{
    CollisionMode, Engine, FaultPlan, FaultRates, JsonlSink, MediumConfig, SimMetrics, SourceId,
    Ticks,
};
use ddcr_traffic::{scenario, MessageSet, ScheduleBuilder};
use ddcr_tree::{asymptotic, closed_form, witness, TreeShape};
use std::fmt::Write as _;

/// Top-level dispatch; returns the text to print.
///
/// # Errors
///
/// Returns a user-facing message for unknown commands, bad flags, or
/// failed runs.
pub fn run(args: &Args) -> Result<String, String> {
    match args.command() {
        Some("xi") => cmd_xi(args).map_err(|e| e.to_string()),
        Some("witness") => cmd_witness(args).map_err(|e| e.to_string()),
        Some("feasibility") => cmd_feasibility(args),
        Some("dimension") => cmd_dimension(args),
        Some("simulate") => cmd_simulate(args),
        Some("sweep") => cmd_sweep(args),
        Some("multibus") => cmd_multibus(args),
        Some("run") => cmd_run(args),
        Some("check") => cmd_check(args),
        Some("faults") => cmd_faults(args),
        Some("metrics") => cmd_metrics(args),
        Some("trace") => cmd_trace(args),
        Some("bench-engine") => cmd_bench_engine(args),
        Some("serve") => cmd_serve(args),
        Some("help") | None => Ok(usage()),
        Some(other) => Err(format!("unknown command `{other}`\n\n{}", usage())),
    }
}

/// The help text.
pub fn usage() -> String {
    "\
ddcr — CSMA/Deadline-Driven Collision Resolution toolkit (Hermant & Le Lann, ICDCS 1998)

USAGE: ddcr <command> [--flag value]...

COMMANDS
  xi           worst-case tree-search times ξ_k^t
                 --m M --n N [--k K]            (table when --k omitted)
  witness      a leaf placement achieving ξ_k^t
                 --m M --n N --k K
  feasibility  §4.3 feasibility report for a scenario
                 --scenario video|atc|stock|uniform --sources Z
                 [--load L --deadline-ms D --bits B] (uniform only)
                 [--medium ethernet|gigabit|atm]
  dimension    automated search for a provable configuration
                 --scenario ... --sources Z [--medium ...]
  simulate     run a peak-load workload through a protocol
                 --scenario ... --sources Z --protocol ddcr|csma-cd|dcr|np-edf
                 [--horizon-ms H] [--seed S] [--medium ...]
  sweep        compare all protocols over a peak-load workload, in parallel
                 --scenario ... --sources Z
                 [--horizon-ms H] [--seed S] [--jobs J] [--medium ...]
                 (J worker threads; default: core count;
                  results are identical for every J)
  multibus     per-bus feasibility over parallel media
                 --scenario ... --sources Z --buses B [--medium ...]
  run          multichannel parallel DDCR: shard the medium over C channels,
                 one deterministic engine per channel on J workers, with
                 per-channel xi budgets, metrics, optional channel-tagged
                 JSONL trace, and optional per-channel fault plans
                 --scenario ... --sources Z [--channels C] [--jobs J]
                 [--horizon-ms H] [--seed S] [--trace-out PATH]
                 [--corrupt P --erase P --crash P --down SLOTS] [--medium ...]
                 (output and trace are identical for every J; C=1 trace is
                  byte-identical to `ddcr trace`; see docs/MULTICHANNEL.md)
                 or: --segments N [--epoch-ms E] [same flags, minus
                 --channels]: federated DDCR — N bridged segments advance
                 in epoch-aligned rounds on a shared virtual clock, transit
                 classes handed off at epoch boundaries, segments advanced
                 on J workers (output and trace are
                 identical for every J; N=1 trace is byte-identical to
                 `ddcr trace`; see docs/FEDERATION.md)
  check        bounded exhaustive model check of the protocol
                 [--scope small|medium] [--mode destructive|arbitrating]
                 [--membership true [--seed S]]  (interleave seeded
                   leave/rejoin churn with adversarial faults and check no
                   surviving flow misses its deadline)
  faults       deterministic fault injection (slot corruption, frame
                 erasure, station crashes)
                 --check small|medium [--mode destructive|arbitrating] [--seed S]
                   (seeded adversarial model check: safety + bounded healing)
                 or: --scenario ... --sources Z [--corrupt P --erase P
                     --crash P --down SLOTS] [--horizon-ms H] [--seed S]
                     [--medium ...]  (one faulted DDCR run, replayable by seed)
  metrics      streaming observability report for a DDCR run: phase slot
                 accounting, per-station counters, latency percentiles, and
                 live observed-ξ checks against the analytic ξ_k^t bound
                 (exits non-zero on any violation)
                 --scenario ... --sources Z [--horizon-ms H] [--retain N]
                 [--medium ...]  (see docs/OBSERVABILITY.md)
  trace        stream the slot-level channel trace of a DDCR run as JSONL
                 --scenario ... --sources Z --out PATH
                 [--stepper fast|reference] [--contention-skip on|off]
                 [--active-set on|off] [--horizon-ms H] [--medium ...]
                 (the byte stream is identical for every stepper,
                  contention-skip, and active-set combination; the
                  independent switches exist for bisecting a divergence
                  to one fast path)
  bench-engine engine hot-path perf suite; writes the BENCH_engine.json gate
                 [--profile smoke|full] [--out PATH]  (see docs/PERF.md)
  serve        long-running online admission control: JSONL requests on
                 stdin (join/leave/flow/force-flow/status), one decision
                 line each on stdout, B_DDCR as the admission predicate
                 --sources Z [--class-width TICKS] [--join-nu N]
                 [--channels C] [--medium ...]
                 (replaying a session is byte-identical; exits non-zero on
                  any safety violation; see docs/ADMISSION.md)
  help         this text
"
    .to_owned()
}

/// `ms` milliseconds of flag `--{flag}` in ticks.
///
/// # Errors
///
/// Returns [`ArgError`] when the product leaves the u64 tick clock
/// (a release build would otherwise wrap it into a short run).
fn ticks_from_ms(flag: &str, ms: u64) -> Result<Ticks, ArgError> {
    ms.checked_mul(1_000_000).map(Ticks).ok_or_else(|| {
        ArgError(format!(
            "flag --{flag}: {ms} ms overflows the tick clock (at most {} ms)",
            u64::MAX / 1_000_000
        ))
    })
}

/// The arrival horizon, `--horizon-ms` (default 10), in ticks.
fn horizon_from(args: &Args) -> Result<Ticks, ArgError> {
    ticks_from_ms("horizon-ms", args.get_or("horizon-ms", 10)?)
}

/// The fault-plan horizon in decision slots: every slot is at least
/// `slot_ticks` wide, so this over-covers the arrival horizon; doubled for
/// the drain tail.
fn fault_horizon_slots(horizon: Ticks, medium: &MediumConfig) -> Result<u64, ArgError> {
    let ticks = horizon.as_u64().checked_mul(2).ok_or_else(|| {
        ArgError(format!(
            "flag --horizon-ms: twice {} ms (the fault-plan horizon) overflows the tick clock",
            horizon.as_u64() / 1_000_000
        ))
    })?;
    Ok(ticks / medium.slot_ticks.max(1))
}

/// The fault flags `--corrupt`, `--erase`, `--crash` and `--down` over
/// `defaults`, each rate checked to be a probability.
fn fault_rates_from(args: &Args, defaults: FaultRates) -> Result<FaultRates, ArgError> {
    let rates = FaultRates {
        corrupt: args.get_or("corrupt", defaults.corrupt)?,
        erase: args.get_or("erase", defaults.erase)?,
        crash: args.get_or("crash", defaults.crash)?,
        down_slots: args.get_or("down", defaults.down_slots)?,
    };
    rates
        .validate()
        .map_err(|e| ArgError(format!("flag --{}: {e}", e.lane)))?;
    Ok(rates)
}

/// The fault plan `ddcr run` installs when any fault flag is given: the
/// rates (unset rates 0, `--down` 64) and the plan horizon in slots.
fn run_faults_from(
    args: &Args,
    horizon: Ticks,
    medium: &MediumConfig,
) -> Result<Option<(FaultRates, u64)>, ArgError> {
    if ["corrupt", "erase", "crash", "down"]
        .iter()
        .all(|f| args.get(f).is_none())
    {
        return Ok(None);
    }
    let defaults = FaultRates {
        down_slots: 64,
        ..FaultRates::default()
    };
    let rates = fault_rates_from(args, defaults)?;
    let horizon_slots = fault_horizon_slots(horizon, medium)?;
    Ok(Some((rates, horizon_slots)))
}

fn shape_from(args: &Args) -> Result<TreeShape, ArgError> {
    let m: u64 = args.require_typed("m")?;
    let n: u32 = args.require_typed("n")?;
    TreeShape::new(m, n).map_err(|e| ArgError(e.to_string()))
}

fn cmd_xi(args: &Args) -> Result<String, ArgError> {
    args.allow_only(&["m", "n", "k"])?;
    let shape = shape_from(args)?;
    let table = ddcr_tree::cache::global()
        .worst_case(shape)
        .map_err(|e| ArgError(e.to_string()))?;
    let mut out = String::new();
    let _ = writeln!(out, "{shape}");
    match args.get("k") {
        Some(_) => {
            let k: u64 = args.require_typed("k")?;
            let xi = table.xi(k).map_err(|e| ArgError(e.to_string()))?;
            let _ = writeln!(out, "xi_{k} = {xi}");
            if (2..=2 * shape.leaves() / shape.branching()).contains(&k) {
                let _ = writeln!(
                    out,
                    "xi~_{k} = {:.4} (asymptotic bound, Eq. 11)",
                    asymptotic::xi_tilde(shape, k as f64)
                );
            }
        }
        None => {
            let _ = writeln!(out, "{:>5} {:>10}", "k", "xi_k");
            for (k, xi) in table.iter() {
                let _ = writeln!(out, "{k:>5} {xi:>10}");
            }
            let _ = writeln!(
                out,
                "peak at k = {} (value {}, Eq. 6); xi_t = {} (Eq. 7)",
                closed_form::peak_k(shape),
                closed_form::xi_peak(shape),
                closed_form::xi_full(shape)
            );
        }
    }
    Ok(out)
}

fn cmd_witness(args: &Args) -> Result<String, ArgError> {
    args.allow_only(&["m", "n", "k"])?;
    let shape = shape_from(args)?;
    let k: u64 = args.require_typed("k")?;
    let leaves =
        witness::worst_case_witness(shape, k).map_err(|e| ArgError(e.to_string()))?;
    let xi = closed_form::xi_closed(shape, k).map_err(|e| ArgError(e.to_string()))?;
    Ok(format!(
        "{shape}, k = {k}: xi = {xi} slots\nworst-case active leaves: {leaves:?}\n"
    ))
}

fn cmd_serve(args: &Args) -> Result<String, String> {
    args.allow_only(&["sources", "medium", "class-width", "join-nu", "channels"])
        .map_err(|e| e.to_string())?;
    let opts = crate::serve::Options {
        sources: args.require_typed("sources").map_err(|e| e.to_string())?,
        medium: medium_from(args)?,
        class_width: Ticks(args.get_or("class-width", 100_000).map_err(|e| e.to_string())?),
        join_nu: args.get_or("join-nu", 1).map_err(|e| e.to_string())?,
        channels: args.get_or("channels", 1).map_err(|e| e.to_string())?,
    };
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    let safe = crate::serve::run_session(stdin.lock(), &mut stdout.lock(), &opts)?;
    if safe {
        Ok(String::new())
    } else {
        Err("serve session ended with a safety violation (see summary line)".to_owned())
    }
}

fn medium_from(args: &Args) -> Result<MediumConfig, String> {
    match args.get("medium").unwrap_or("ethernet") {
        "ethernet" => Ok(MediumConfig::ethernet()),
        "gigabit" => Ok(MediumConfig::gigabit_ethernet()),
        "atm" => Ok(MediumConfig::atm_internal_bus()),
        other => Err(format!("unknown medium `{other}` (ethernet|gigabit|atm)")),
    }
}

fn set_from(args: &Args) -> Result<MessageSet, String> {
    let z: u32 = args.require_typed("sources").map_err(|e| e.to_string())?;
    match args.require("scenario").map_err(|e| e.to_string())? {
        "video" => scenario::videoconference(z).map_err(|e| e.to_string()),
        "atc" => scenario::air_traffic_control(z).map_err(|e| e.to_string()),
        "stock" => scenario::stock_exchange(z).map_err(|e| e.to_string()),
        "uniform" => {
            let load: f64 = args.get_or("load", 0.3).map_err(|e| e.to_string())?;
            let d_ms: u64 = args.get_or("deadline-ms", 5).map_err(|e| e.to_string())?;
            let bits: u64 = args.get_or("bits", 8_000).map_err(|e| e.to_string())?;
            scenario::uniform(z, bits, Ticks(d_ms * 1_000_000), load)
                .map_err(|e| e.to_string())
        }
        other => Err(format!(
            "unknown scenario `{other}` (video|atc|stock|uniform)"
        )),
    }
}

fn setup(
    set: &MessageSet,
    medium: &MediumConfig,
) -> Result<(DdcrConfig, StaticAllocation), String> {
    let c = network::recommended_class_width(set, 64, medium);
    let config = DdcrConfig::for_sources(set.sources(), c).map_err(|e| e.to_string())?;
    let allocation = StaticAllocation::round_robin(config.static_tree, set.sources())
        .map_err(|e| e.to_string())?;
    Ok((config, allocation))
}

fn cmd_feasibility(args: &Args) -> Result<String, String> {
    args.allow_only(&["scenario", "sources", "load", "deadline-ms", "bits", "medium"])
        .map_err(|e| e.to_string())?;
    let set = set_from(args)?;
    let medium = medium_from(args)?;
    let (config, allocation) = setup(&set, &medium)?;
    let report =
        feasibility::evaluate(&set, &config, &allocation, &medium).map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} sources, load {:.3}, c = {}, horizon = {}",
        set.sources(),
        set.offered_load(),
        config.class_width,
        config.horizon()
    );
    let _ = writeln!(
        out,
        "{:>6} {:>6} {:>6} {:>6} {:>4} {:>14} {:>12} {:>9}",
        "class", "source", "r", "u", "v", "B_DDCR", "deadline", "feasible"
    );
    for c in &report.per_class {
        let _ = writeln!(
            out,
            "{:>6} {:>6} {:>6} {:>6} {:>4} {:>14.0} {:>12} {:>9}",
            c.class.to_string(),
            c.source.to_string(),
            c.r,
            c.u,
            c.v,
            c.bound,
            c.deadline.as_u64(),
            c.feasible
        );
    }
    let _ = writeln!(
        out,
        "instance: {}",
        if report.feasible() { "FEASIBLE" } else { "INFEASIBLE" }
    );
    Ok(out)
}

fn cmd_dimension(args: &Args) -> Result<String, String> {
    args.allow_only(&["scenario", "sources", "load", "deadline-ms", "bits", "medium"])
        .map_err(|e| e.to_string())?;
    let set = set_from(args)?;
    let medium = medium_from(args)?;
    let candidates = dimensioning::dimension(&set, &medium, &Default::default())
        .map_err(|e| e.to_string())?;
    let mut out = String::new();
    let _ = writeln!(out, "top candidates (of {} evaluated):", candidates.len());
    let _ = writeln!(
        out,
        "{:>20} {:>14} {:>10} {:>14} {:>16} {:>9}",
        "time tree", "static tree", "c (ticks)", "strategy", "min slack", "feasible"
    );
    for cand in candidates.iter().take(8) {
        let _ = writeln!(
            out,
            "{:>20} {:>14} {:>10} {:>14} {:>16.3e} {:>9}",
            cand.config.time_tree.to_string(),
            cand.config.static_tree.to_string(),
            cand.config.class_width.as_u64(),
            format!("{:?}", cand.strategy),
            cand.min_slack(),
            cand.feasible()
        );
    }
    match candidates.first() {
        Some(best) if best.feasible() => {
            let _ = writeln!(out, "recommended: the first row (provably feasible).");
        }
        _ => {
            let _ = writeln!(
                out,
                "no provable configuration in the default search space — reduce load \
                 or relax deadlines."
            );
        }
    }
    Ok(out)
}

fn cmd_simulate(args: &Args) -> Result<String, String> {
    args.allow_only(&[
        "scenario",
        "sources",
        "load",
        "deadline-ms",
        "bits",
        "medium",
        "protocol",
        "horizon-ms",
        "seed",
    ])
    .map_err(|e| e.to_string())?;
    let set = set_from(args)?;
    let medium = medium_from(args)?;
    let horizon = horizon_from(args).map_err(|e| e.to_string())?;
    let seed: u64 = args.get_or("seed", 42).map_err(|e| e.to_string())?;
    let schedule = ScheduleBuilder::peak_load(&set)
        .build(horizon)
        .map_err(|e| e.to_string())?;
    let n = schedule.len();
    let budget = Ticks(1_000_000_000_000);
    let stats = match args.require("protocol").map_err(|e| e.to_string())? {
        "ddcr" => {
            let (config, allocation) = setup(&set, &medium)?;
            network::run(
                &set,
                schedule,
                &config,
                &allocation,
                medium,
                network::RunLimit::Completion(budget),
            )
            .map_err(|e| e.to_string())?
        }
        "csma-cd" => {
            let mut engine = Engine::new(medium).map_err(|e| e.to_string())?;
            for i in 0..set.sources() {
                engine.add_station(Box::new(ddcr_baseline::CsmaCdStation::new(
                    SourceId(i),
                    medium,
                    QueueDiscipline::Edf,
                    seed,
                )));
            }
            engine.add_arrivals(schedule).map_err(|e| e.to_string())?;
            let _ = engine.run_to_completion(budget);
            engine.into_stats()
        }
        "dcr" => {
            let mut engine = Engine::new(medium).map_err(|e| e.to_string())?;
            for i in 0..set.sources() {
                engine.add_station(Box::new(
                    ddcr_baseline::DcrStation::new(
                        SourceId(i),
                        set.sources(),
                        medium,
                        QueueDiscipline::Edf,
                    )
                    .map_err(|e| e.to_string())?,
                ));
            }
            engine.add_arrivals(schedule).map_err(|e| e.to_string())?;
            let _ = engine.run_to_completion(budget);
            engine.into_stats()
        }
        "np-edf" => ddcr_baseline::NpEdfOracle::run_schedule(medium, schedule, budget)
            .map_err(|e| e.to_string())?,
        other => {
            return Err(format!(
                "unknown protocol `{other}` (ddcr|csma-cd|dcr|np-edf)"
            ))
        }
    };
    Ok(format!(
        "scheduled {n}, delivered {}, misses {}, max latency {} ticks, \
         mean latency {:.0} ticks, utilization {:.3}, collisions {}\n",
        stats.deliveries.len(),
        stats.deadline_misses() + (n - stats.deliveries.len()),
        stats.max_latency().as_u64(),
        stats.mean_latency(),
        stats.utilization(),
        stats.collisions
    ))
}

fn cmd_sweep(args: &Args) -> Result<String, String> {
    use ddcr_bench::harness::{default_ddcr_config, ProtocolKind};
    use ddcr_bench::sweep::{SweepConfig, SweepGrid};

    args.allow_only(&[
        "scenario",
        "sources",
        "load",
        "deadline-ms",
        "bits",
        "medium",
        "horizon-ms",
        "seed",
        "jobs",
    ])
    .map_err(|e| e.to_string())?;
    let set = set_from(args)?;
    let medium = medium_from(args)?;
    let horizon = horizon_from(args).map_err(|e| e.to_string())?;
    let master_seed: u64 = args.get_or("seed", 42).map_err(|e| e.to_string())?;
    let jobs: Option<usize> = match args.get("jobs") {
        None => None,
        Some(_) => Some(args.require_typed("jobs").map_err(|e| e.to_string())?),
    };
    let schedule = ScheduleBuilder::peak_load(&set)
        .build(horizon)
        .map_err(|e| e.to_string())?;
    let kinds = [
        ProtocolKind::Ddcr(default_ddcr_config(&set, &medium)),
        ProtocolKind::CsmaCd(QueueDiscipline::Fifo, 0),
        ProtocolKind::CsmaCd(QueueDiscipline::Edf, 0),
        ProtocolKind::Dcr(QueueDiscipline::Edf),
        ProtocolKind::NpEdf,
    ];
    let mut grid = SweepGrid::new();
    grid.push_comparison(
        args.require("scenario").map_err(|e| e.to_string())?,
        &kinds,
        &set,
        &schedule,
        medium,
        Ticks(1_000_000_000_000),
    );
    let report = grid.run(SweepConfig::resolve(jobs, master_seed));
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>6} {:>9} {:>7} {:>12} {:>12} {:>7} {:>10}",
        "protocol", "sched", "delivered", "misses", "mean_lat", "max_lat", "util", "collisions"
    );
    for summary in report.summaries()? {
        let _ = writeln!(
            out,
            "{:<14} {:>6} {:>9} {:>7} {:>12.0} {:>12} {:>7.3} {:>10}",
            summary.protocol,
            summary.scheduled,
            summary.delivered,
            summary.misses,
            summary.mean_latency,
            summary.max_latency,
            summary.utilization,
            summary.collisions
        );
    }
    let _ = writeln!(out, "{}", report.perf_line());
    Ok(out)
}

fn cmd_multibus(args: &Args) -> Result<String, String> {
    args.allow_only(&["scenario", "sources", "load", "deadline-ms", "bits", "medium", "buses"])
        .map_err(|e| e.to_string())?;
    let set = set_from(args)?;
    let medium = medium_from(args)?;
    let buses: usize = args.get_or("buses", 2).map_err(|e| e.to_string())?;
    let (config, allocation) = setup(&set, &medium)?;
    let assignment = multibus::balance_by_load(&set, buses);
    let reports = multibus::evaluate(&set, &assignment, &config, &allocation, &medium)
        .map_err(|e| e.to_string())?;
    let mut out = String::new();
    for (bus, report) in reports.iter().enumerate() {
        let projected = assignment.project(&set, bus).map_err(|e| e.to_string())?;
        let _ = writeln!(
            out,
            "bus {bus}: {} classes, load {:.3}, {}",
            projected.classes().len(),
            projected.offered_load(),
            if report.feasible() { "FEASIBLE" } else { "INFEASIBLE" }
        );
    }
    let _ = writeln!(
        out,
        "instance over {buses} busses: {}",
        if reports.iter().all(|r| r.feasible()) {
            "FEASIBLE"
        } else {
            "INFEASIBLE"
        }
    );
    Ok(out)
}

fn cmd_run(args: &Args) -> Result<String, String> {
    args.allow_only(&[
        "scenario",
        "sources",
        "load",
        "deadline-ms",
        "bits",
        "medium",
        "channels",
        "segments",
        "epoch-ms",
        "jobs",
        "horizon-ms",
        "seed",
        "trace-out",
        "corrupt",
        "erase",
        "crash",
        "down",
    ])
    .map_err(|e| e.to_string())?;
    if args.get("segments").is_some() {
        return cmd_run_segments(args);
    }
    if args.get("epoch-ms").is_some() {
        return Err("--epoch-ms only applies to --segments runs".into());
    }
    let set = set_from(args)?;
    let medium = medium_from(args)?;
    let channels: usize = args.get_or("channels", 2).map_err(|e| e.to_string())?;
    if channels == 0 {
        return Err("--channels must be at least 1".into());
    }
    let jobs: usize = args.get_or("jobs", channels).map_err(|e| e.to_string())?;
    let horizon = horizon_from(args).map_err(|e| e.to_string())?;
    let seed: u64 = args.get_or("seed", 42).map_err(|e| e.to_string())?;
    let faults = run_faults_from(args, horizon, &medium).map_err(|e| e.to_string())?;
    let (config, allocation) = setup(&set, &medium)?;
    let assignment = multibus::balance_by_load(&set, channels);
    let budgets = multibus::channel_budgets(&set, &assignment, &config, &allocation, &medium)
        .map_err(|e| e.to_string())?;
    let schedule = ScheduleBuilder::peak_load(&set)
        .build(horizon)
        .map_err(|e| e.to_string())?;
    let n = schedule.len();

    let mut options = multibus::RunOptions::new(Ticks(1_000_000_000_000));
    options.workers = jobs;
    options.metrics = true;
    options.trace = args.get("trace-out").is_some();
    options.faults = faults.map(|(rates, horizon_slots)| multibus::FaultSpec {
        master_seed: seed,
        rates,
        horizon_slots,
    });
    let report = multibus::run_channels(
        &set,
        schedule,
        &assignment,
        &config,
        &allocation,
        medium,
        &options,
    )
    .map_err(|e| e.to_string())?;

    // Deterministic stdout: no wall-clock and no worker count, so the
    // output is byte-identical for every `--jobs`.
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} sources over {channels} channel(s), load {:.3}, c = {}",
        set.sources(),
        set.offered_load(),
        config.class_width
    );
    let _ = writeln!(
        out,
        "{:>7} {:>7} {:>8} {:>5} {:>4} {:>10} {:>9} {:>9} {:>9} {:>7} {:>11} {:>7}",
        "channel", "classes", "load", "u", "v", "p2_slots", "feasible", "scheduled", "delivered",
        "misses", "xi_violate", "faults"
    );
    for (budget, outcome) in budgets.iter().zip(&report.channels) {
        let violations = outcome
            .metrics
            .as_ref()
            .map_or(0, |m| m.violations_total);
        let _ = writeln!(
            out,
            "{:>7} {:>7} {:>8.3} {:>5} {:>4} {:>10.1} {:>9} {:>9} {:>9} {:>7} {:>11} {:>7}",
            outcome.channel,
            outcome.classes,
            budget.offered_load,
            budget.u,
            budget.v,
            budget.p2_slots,
            budget.feasible,
            outcome.scheduled,
            outcome.stats.deliveries.len(),
            outcome.stats.deadline_misses(),
            violations,
            outcome.fault_events
        );
    }
    let _ = writeln!(
        out,
        "fabric: {}; scheduled {n}, delivered {}, misses {}, drained {}",
        if budgets.iter().all(|b| b.feasible) {
            "FEASIBLE"
        } else {
            "INFEASIBLE"
        },
        report.delivered(),
        report.deadline_misses(),
        report.completed()
    );
    if let Some(path) = args.get("trace-out") {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create {path}: {e}"))?;
        let mut writer = std::io::BufWriter::new(file);
        let events = report
            .write_trace(&mut writer)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        use std::io::Write as _;
        writer
            .flush()
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        let _ = writeln!(
            out,
            "wrote {events} events ({} v{}) to {path}",
            ddcr_sim::TRACE_SCHEMA,
            if channels == 1 {
                ddcr_sim::TRACE_SCHEMA_VERSION
            } else {
                ddcr_sim::TRACE_MULTICHANNEL_VERSION
            }
        );
    }
    let violations = report.xi_violations();
    if violations == 0 {
        let _ = writeln!(out, "observed xi within the analytic bound: PASS");
        Ok(out)
    } else {
        let _ = writeln!(
            out,
            "observed xi EXCEEDED the analytic bound {violations} time(s)"
        );
        Err(out)
    }
}

/// `ddcr run --segments N`: the federated sibling of the multichannel
/// path. N bridged DDCR segments advance in epoch-aligned rounds on a
/// shared virtual clock; every fourth class transits to the next segment
/// through a deterministic bridge queue. Stdout and the optional trace
/// are byte-identical for every `--jobs`.
fn cmd_run_segments(args: &Args) -> Result<String, String> {
    if args.get("channels").is_some() {
        return Err("--segments and --channels are mutually exclusive".into());
    }
    let set = set_from(args)?;
    let medium = medium_from(args)?;
    let segments: usize = args.get_or("segments", 2).map_err(|e| e.to_string())?;
    if segments == 0 {
        return Err("--segments must be at least 1".into());
    }
    let jobs: usize = args.get_or("jobs", segments).map_err(|e| e.to_string())?;
    let horizon = horizon_from(args).map_err(|e| e.to_string())?;
    let epoch_ms: u64 = args.get_or("epoch-ms", 1).map_err(|e| e.to_string())?;
    if epoch_ms == 0 {
        return Err("--epoch-ms must be at least 1".into());
    }
    let seed: u64 = args.get_or("seed", 42).map_err(|e| e.to_string())?;
    let faults = run_faults_from(args, horizon, &medium).map_err(|e| e.to_string())?;
    let (config, allocation) = setup(&set, &medium)?;
    let assignment = multibus::balance_by_load(&set, segments);
    let routes = federate::transit_routes(&set, &assignment, 4);
    let schedule = ScheduleBuilder::peak_load(&set)
        .build(horizon)
        .map_err(|e| e.to_string())?;
    let n = schedule.len();

    let epoch = ticks_from_ms("epoch-ms", epoch_ms).map_err(|e| e.to_string())?;
    let mut options = FederationOptions::new(epoch, Ticks(1_000_000_000_000));
    options.workers = jobs;
    options.metrics = true;
    options.trace = args.get("trace-out").is_some();
    options.faults = faults.map(|(rates, horizon_slots)| FederationFaultSpec {
        master_seed: seed,
        rates,
        horizon_slots,
    });
    let report = federate::run_segments(
        &set,
        schedule,
        &assignment,
        &routes,
        &config,
        &allocation,
        medium,
        &options,
    )
    .map_err(|e| e.to_string())?;

    // Deterministic stdout: no wall-clock and no worker count, so the
    // output is byte-identical for every `--jobs`.
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{} sources over {segments} segment(s), epoch {epoch_ms} ms, load {:.3}, c = {}, \
         {} bridged class(es)",
        set.sources(),
        set.offered_load(),
        config.class_width,
        routes.len()
    );
    let _ = writeln!(
        out,
        "{:>7} {:>9} {:>8} {:>9} {:>7} {:>11} {:>7} {:>7}",
        "segment", "scheduled", "injected", "delivered", "misses", "xi_violate", "faults",
        "drained"
    );
    for outcome in &report.segments {
        let violations = outcome
            .metrics
            .as_ref()
            .map_or(0, |m| m.violations_total);
        let _ = writeln!(
            out,
            "{:>7} {:>9} {:>8} {:>9} {:>7} {:>11} {:>7} {:>7}",
            outcome.segment,
            outcome.scheduled,
            outcome.injected,
            outcome.stats.delivered,
            outcome.stats.missed_deadlines,
            violations,
            outcome.fault_events,
            outcome.completed
        );
    }
    let _ = writeln!(
        out,
        "fabric: scheduled {n}, delivered {}, handoffs {} over {} round(s), misses {}, \
         drained {}",
        report.delivered(),
        report.handoffs,
        report.rounds,
        report.deadline_misses(),
        report.completed()
    );
    if let Some(path) = args.get("trace-out") {
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create {path}: {e}"))?;
        let mut writer = std::io::BufWriter::new(file);
        let events = report
            .write_trace(&mut writer)
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        use std::io::Write as _;
        writer
            .flush()
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        let _ = writeln!(
            out,
            "wrote {events} events ({} v{}) to {path}",
            ddcr_sim::TRACE_SCHEMA,
            if segments == 1 {
                ddcr_sim::TRACE_SCHEMA_VERSION
            } else {
                ddcr_sim::TRACE_FEDERATION_VERSION
            }
        );
    }
    let violations = report.xi_violations();
    if violations == 0 {
        let _ = writeln!(out, "observed xi within the analytic bound: PASS");
        Ok(out)
    } else {
        let _ = writeln!(
            out,
            "observed xi EXCEEDED the analytic bound {violations} time(s)"
        );
        Err(out)
    }
}

fn mode_from(args: &Args) -> Result<CollisionMode, String> {
    match args.get("mode").unwrap_or("destructive") {
        "destructive" => Ok(CollisionMode::Destructive),
        "arbitrating" => Ok(CollisionMode::Arbitrating),
        other => Err(format!(
            "unknown mode `{other}` (destructive|arbitrating)"
        )),
    }
}

fn scope_from(name: &str) -> Result<ddcr_check::Scope, String> {
    match name {
        "small" => Ok(ddcr_check::Scope::small()),
        "medium" => Ok(ddcr_check::Scope::medium()),
        other => Err(format!("unknown scope `{other}` (small|medium)")),
    }
}

fn cmd_check(args: &Args) -> Result<String, String> {
    args.allow_only(&["scope", "mode", "membership", "seed"])
        .map_err(|e| e.to_string())?;
    let scope = scope_from(args.get("scope").unwrap_or("small"))?;
    let mode = mode_from(args)?;
    if args.get_or("membership", false).map_err(|e| e.to_string())? {
        return cmd_check_membership(&scope, args);
    }
    let report = ddcr_check::check_scope_with_mode(&scope, 5_000, mode);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "exhaustively checked {} scenarios ({} qualified for the strict EDF-order check)",
        report.scenarios, report.edf_checked
    );
    if report.clean() {
        let _ = writeln!(
            out,
            "all properties hold: liveness, exactly-once, replica consistency, \
             causality, EDF emulation"
        );
    } else {
        for finding in report.findings.iter().take(10) {
            let _ = writeln!(
                out,
                "VIOLATION in scenario {}: {:?}",
                finding.scenario_index, finding.violation
            );
        }
        return Err(out);
    }
    Ok(out)
}

fn cmd_check_membership(scope: &ddcr_check::Scope, args: &Args) -> Result<String, String> {
    let mode = mode_from(args)?;
    let seed: u64 = args.get_or("seed", 42).map_err(|e| e.to_string())?;
    let report = ddcr_check::check_scope_with_membership(scope, 5_000, mode, seed);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "checked {} scenarios under seeded membership churn interleaved with \
         adversarial faults (seed {seed}, {mode:?})",
        report.scenarios
    );
    let _ = writeln!(
        out,
        "leaves {}, joins {}, crashes {}, rejoins {}, worst heal {} slots, \
         deadline-checked deliveries {}, attributable timeouts {}",
        report.leaves,
        report.joins,
        report.crashes,
        report.rejoins,
        report.max_heal_slots,
        report.deadline_checked,
        report.attributable_timeouts,
    );
    if report.clean() {
        let _ = writeln!(
            out,
            "safety holds under churn: exactly-once, causality, no lost message \
             delivered, no deadline miss for surviving flows, healing bounded"
        );
        Ok(out)
    } else {
        for finding in report.findings.iter().take(10) {
            let _ = writeln!(
                out,
                "VIOLATION in scenario {}: {:?}",
                finding.scenario_index, finding.violation
            );
        }
        Err(out)
    }
}

fn cmd_faults(args: &Args) -> Result<String, String> {
    if args.get("check").is_some() {
        return cmd_faults_check(args);
    }
    args.allow_only(&[
        "scenario",
        "sources",
        "load",
        "deadline-ms",
        "bits",
        "medium",
        "horizon-ms",
        "seed",
        "corrupt",
        "erase",
        "crash",
        "down",
    ])
    .map_err(|e| e.to_string())?;
    let set = set_from(args)?;
    let medium = medium_from(args)?;
    let horizon = horizon_from(args).map_err(|e| e.to_string())?;
    let seed: u64 = args.get_or("seed", 42).map_err(|e| e.to_string())?;
    let rates = fault_rates_from(
        args,
        FaultRates {
            corrupt: 0.005,
            erase: 0.005,
            crash: 0.0005,
            down_slots: 64,
        },
    )
    .map_err(|e| e.to_string())?;
    let horizon_slots = fault_horizon_slots(horizon, &medium).map_err(|e| e.to_string())?;
    let (config, allocation) = setup(&set, &medium)?;
    let schedule = ScheduleBuilder::peak_load(&set)
        .build(horizon)
        .map_err(|e| e.to_string())?;
    let n = schedule.len();
    let plan = FaultPlan::generate(seed, set.sources(), horizon_slots, &rates);
    let injected = plan.len();
    let mut engine = network::build_engine(&set, &config, &allocation, medium)
        .map_err(|e| e.to_string())?;
    engine.set_fault_plan(plan);
    engine.add_arrivals(schedule).map_err(|e| e.to_string())?;
    let _ = engine.run_to_completion(Ticks(1_000_000_000_000));
    let stats = engine.into_stats();
    Ok(format!(
        "seed {seed}: injected {injected} fault events over {horizon_slots} slots\n\
         scheduled {n}, delivered {}, lost to crashes {}\n\
         corrupted slots {}, erased frames {}, crashes {}, restarts {}\n\
         misses {}, max latency {} ticks, utilization {:.3}\n",
        stats.deliveries.len(),
        stats.lost.len(),
        stats.corrupted_slots,
        stats.erased_frames,
        stats.crashes,
        stats.restarts,
        stats.deadline_misses(),
        stats.max_latency().as_u64(),
        stats.utilization(),
    ))
}

fn cmd_faults_check(args: &Args) -> Result<String, String> {
    args.allow_only(&["check", "mode", "seed"]).map_err(|e| e.to_string())?;
    let scope = scope_from(args.require("check").map_err(|e| e.to_string())?)?;
    let mode = mode_from(args)?;
    let seed: u64 = args.get_or("seed", 42).map_err(|e| e.to_string())?;
    let report = ddcr_check::check_scope_with_faults(&scope, 5_000, mode, seed);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "checked {} scenarios under seeded adversarial fault plans (seed {seed}, {mode:?})",
        report.scenarios
    );
    let _ = writeln!(
        out,
        "crashes {}, rejoins {}, worst heal {} slots, fault-attributable timeouts {}",
        report.crashes, report.rejoins, report.max_heal_slots, report.attributable_timeouts
    );
    if report.clean() {
        let _ = writeln!(
            out,
            "safety holds under faults: exactly-once, causality, no lost message \
             delivered, divergence only while crashed/resyncing, healing bounded"
        );
        Ok(out)
    } else {
        for finding in report.findings.iter().take(10) {
            let _ = writeln!(
                out,
                "VIOLATION in scenario {}: {:?}",
                finding.scenario_index, finding.violation
            );
        }
        Err(out)
    }
}

fn cmd_metrics(args: &Args) -> Result<String, String> {
    args.allow_only(&[
        "scenario",
        "sources",
        "load",
        "deadline-ms",
        "bits",
        "medium",
        "horizon-ms",
        "retain",
    ])
    .map_err(|e| e.to_string())?;
    let set = set_from(args)?;
    let medium = medium_from(args)?;
    let horizon = horizon_from(args).map_err(|e| e.to_string())?;
    // How many per-delivery records to keep in memory; counters and the
    // latency histogram are exact regardless, so 0 gives a constant-memory
    // run with full observability.
    let retain: usize = args.get_or("retain", 0).map_err(|e| e.to_string())?;
    let (config, allocation) = setup(&set, &medium)?;
    let schedule = ScheduleBuilder::peak_load(&set)
        .build(horizon)
        .map_err(|e| e.to_string())?;
    let n = schedule.len();
    let mut engine = network::build_engine(&set, &config, &allocation, medium)
        .map_err(|e| e.to_string())?;
    let (time, static_) = network::xi_bound_tables(&config).map_err(|e| e.to_string())?;
    engine.set_xi_bounds(time, static_);
    engine.set_retention(Some(retain), Some(retain));
    engine.add_arrivals(schedule).map_err(|e| e.to_string())?;
    let _ = engine.run_to_completion(Ticks(1_000_000_000_000));
    let metrics = engine
        .take_metrics()
        .ok_or_else(|| "internal error: metrics were not enabled for this run".to_owned())?;
    let stats = engine.into_stats();
    let (p50, p95, p99) = stats.histogram_percentiles();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "scheduled {n}, delivered {}, misses {}, retained {} delivery records",
        stats.delivered,
        stats.deadline_misses(),
        stats.deliveries.len()
    );
    let _ = writeln!(
        out,
        "latency: mean {:.0}, p50 <= {}, p95 <= {}, p99 <= {}, max {} ticks",
        stats.mean_latency(),
        p50.as_u64(),
        p95.as_u64(),
        p99.as_u64(),
        stats.max_latency().as_u64()
    );
    let ps = &metrics.phase_slots;
    let _ = writeln!(
        out,
        "slots: tts {}, sts {}, attempt {}, burst {}, skipped {}, unattributed {}",
        ps.tts, ps.sts, ps.attempt, ps.burst, ps.skipped, ps.unattributed
    );
    let _ = writeln!(
        out,
        "xi checks: {} epochs + {} STs windows checked; worst observed overhead \
         tts {} / sts {} slots",
        metrics.epochs_checked,
        metrics.sts_checked,
        metrics.max_tts_overhead,
        metrics.max_sts_overhead
    );
    let _ = writeln!(
        out,
        "{:>7} {:>12} {:>11} {:>8} {:>11}",
        "station", "transmitted", "collisions", "garbled", "queue_peak"
    );
    for (i, s) in metrics.stations().iter().enumerate() {
        let _ = writeln!(
            out,
            "{:>7} {:>12} {:>11} {:>8} {:>11}",
            i, s.transmitted, s.collisions_seen, s.garbled, s.queue_high_water
        );
    }
    xi_verdict(out, &metrics)
}

/// Turns the live ξ-check outcome into the command result: `Ok` (exit 0)
/// when every closed window stayed within the analytic bound, `Err` (exit
/// non-zero via `main`) listing the violations otherwise.
fn xi_verdict(mut out: String, metrics: &SimMetrics) -> Result<String, String> {
    if metrics.violations_total == 0 {
        let _ = writeln!(out, "observed xi within the analytic bound: PASS");
        Ok(out)
    } else {
        let _ = writeln!(
            out,
            "observed xi EXCEEDED the analytic bound {} time(s):",
            metrics.violations_total
        );
        for v in metrics.violations().iter().take(10) {
            let _ = writeln!(out, "  {v}");
        }
        Err(out)
    }
}

fn cmd_trace(args: &Args) -> Result<String, String> {
    args.allow_only(&[
        "scenario",
        "sources",
        "load",
        "deadline-ms",
        "bits",
        "medium",
        "horizon-ms",
        "out",
        "stepper",
        "contention-skip",
        "active-set",
    ])
    .map_err(|e| e.to_string())?;
    let set = set_from(args)?;
    let medium = medium_from(args)?;
    let horizon = horizon_from(args).map_err(|e| e.to_string())?;
    let out_path = args.require("out").map_err(|e| e.to_string())?;
    let stepper = args.get("stepper").unwrap_or("fast");
    let fast_forward = match stepper {
        "fast" => true,
        "reference" => false,
        other => return Err(format!("unknown stepper `{other}` (fast|reference)")),
    };
    // Contention (tree-search) fast-forward toggles independently of the
    // idle stepper so a trace divergence can be bisected to one fast path.
    // `--stepper reference` alone still disables it (full reference run).
    let contention_skip = args.get("contention-skip").unwrap_or(if fast_forward {
        "on"
    } else {
        "off"
    });
    let contention_fast_forward = match contention_skip {
        "on" => true,
        "off" => false,
        other => return Err(format!("unknown contention-skip `{other}` (on|off)")),
    };
    // The active-set scheduler is the third independent switch of the
    // bisection matrix, with the same default rule.
    let active_set_arg = args.get("active-set").unwrap_or(if fast_forward {
        "on"
    } else {
        "off"
    });
    let active_set = match active_set_arg {
        "on" => true,
        "off" => false,
        other => return Err(format!("unknown active-set `{other}` (on|off)")),
    };
    let (config, allocation) = setup(&set, &medium)?;
    let schedule = ScheduleBuilder::peak_load(&set)
        .build(horizon)
        .map_err(|e| e.to_string())?;
    let mut engine = network::build_engine(&set, &config, &allocation, medium)
        .map_err(|e| e.to_string())?;
    engine.set_fast_forward(fast_forward);
    engine.set_contention_fast_forward(contention_fast_forward);
    engine.set_active_set(active_set);
    let file = std::fs::File::create(out_path)
        .map_err(|e| format!("cannot create {out_path}: {e}"))?;
    engine.set_trace_sink(JsonlSink::new(Box::new(std::io::BufWriter::new(file))));
    engine.add_arrivals(schedule).map_err(|e| e.to_string())?;
    let _ = engine.run_to_completion(Ticks(1_000_000_000_000));
    let events = engine
        .take_trace_sink()
        .ok_or_else(|| "internal error: trace sink was not attached for this run".to_owned())?
        .finish()
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;
    let stats = engine.into_stats();
    Ok(format!(
        "wrote {events} events ({} v{}, {stepper} stepper, \
         contention-skip {contention_skip}, active-set {active_set_arg}) to {out_path}\n\
         delivered {}, collisions {}, {} simulated ticks\n",
        ddcr_sim::TRACE_SCHEMA,
        ddcr_sim::TRACE_SCHEMA_VERSION,
        stats.delivered,
        stats.collisions,
        stats.total_ticks.as_u64()
    ))
}

fn cmd_bench_engine(args: &Args) -> Result<String, String> {
    use ddcr_bench::enginebench::{check_report, run_suite, Profile, REPORT_PATH};

    args.allow_only(&["profile", "out"]).map_err(|e| e.to_string())?;
    let profile = Profile::from_arg(args.get("profile").unwrap_or("smoke"))?;
    let path = args.get("out").unwrap_or(REPORT_PATH);
    let report = run_suite(profile);
    let doc = report.to_json();
    let violations = check_report(&doc);
    std::fs::write(path, doc.to_pretty()).map_err(|e| format!("cannot write {path}: {e}"))?;
    let mut out = String::new();
    let idle = &report.idle;
    let _ = writeln!(
        out,
        "idle fast-forward ({} stations, load {:.2}, {} slots): {:.1}x speedup, equivalent={}",
        idle.stations,
        idle.load,
        idle.slots,
        idle.speedup(),
        idle.equivalent
    );
    for drain in &report.drains {
        let _ = writeln!(
            out,
            "drain {:<14} z={:<3} load={:.1}: {:>10.0} Mtick/s  delivered {:>4}  completed={}",
            drain.protocol,
            drain.stations,
            drain.load,
            drain.sim_ticks as f64 * 1e3 / drain.wall_ns.max(1) as f64,
            drain.delivered,
            drain.completed
        );
    }
    let _ = writeln!(
        out,
        "edf queue: {:.2} Mops/s over {} operations",
        report.queue.operations as f64 * 1e3 / report.queue.wall_ns.max(1) as f64,
        report.queue.operations
    );
    let _ = writeln!(out, "wrote {path}");
    if violations.is_empty() {
        let _ = writeln!(out, "perf gate: PASS");
        Ok(out)
    } else {
        for violation in &violations {
            let _ = writeln!(out, "perf gate: FAIL: {violation}");
        }
        Err(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_line(line: &[&str]) -> Result<String, String> {
        let args = Args::parse(line.iter().copied()).map_err(|e| e.to_string())?;
        run(&args)
    }

    #[test]
    fn help_on_empty_and_unknown() {
        assert!(run_line(&[]).unwrap().contains("USAGE"));
        assert!(run_line(&["help"]).unwrap().contains("COMMANDS"));
        assert!(run_line(&["bogus"]).is_err());
    }

    #[test]
    fn bench_engine_is_documented_and_validates_flags() {
        assert!(usage().contains("bench-engine"));
        // Flag validation happens before any measurement runs; the full
        // suite itself is exercised by the `bench_engine` binary and CI.
        let err = run_line(&["bench-engine", "--profile", "warp"]).unwrap_err();
        assert!(err.contains("unknown profile"), "{err}");
        let err = run_line(&["bench-engine", "--bogus", "1"]).unwrap_err();
        assert!(err.contains("bogus"), "{err}");
    }

    #[test]
    fn xi_table_and_single_value() {
        let table = run_line(&["xi", "--m", "4", "--n", "3"]).unwrap();
        assert!(table.contains("64-leaf"));
        assert!(table.contains("peak at k = 32"));
        let single = run_line(&["xi", "--m", "4", "--n", "3", "--k", "2"]).unwrap();
        assert!(single.contains("xi_2 = 11"));
        assert!(single.contains("xi~_2 = 11.0000"));
    }

    #[test]
    fn witness_prints_achieving_subset() {
        let out = run_line(&["witness", "--m", "2", "--n", "3", "--k", "3"]).unwrap();
        assert!(out.contains("xi = "));
        assert!(out.contains('['));
    }

    #[test]
    fn feasibility_on_uniform() {
        let out = run_line(&[
            "feasibility",
            "--scenario",
            "uniform",
            "--sources",
            "4",
            "--load",
            "0.1",
            "--deadline-ms",
            "10",
        ])
        .unwrap();
        assert!(out.contains("FEASIBLE"));
    }

    #[test]
    fn dimension_recommends_for_atc() {
        let out = run_line(&[
            "dimension",
            "--scenario",
            "atc",
            "--sources",
            "4",
            "--medium",
            "gigabit",
        ])
        .unwrap();
        assert!(out.contains("recommended"), "{out}");
    }

    #[test]
    fn simulate_all_protocols() {
        for protocol in ["ddcr", "csma-cd", "dcr", "np-edf"] {
            let out = run_line(&[
                "simulate",
                "--scenario",
                "uniform",
                "--sources",
                "4",
                "--load",
                "0.2",
                "--protocol",
                protocol,
                "--horizon-ms",
                "4",
            ])
            .unwrap();
            assert!(out.contains("delivered"), "{protocol}: {out}");
        }
    }

    #[test]
    fn sweep_is_worker_count_invariant() {
        let line = |jobs: &str| {
            run_line(&[
                "sweep",
                "--scenario",
                "uniform",
                "--sources",
                "4",
                "--load",
                "0.2",
                "--horizon-ms",
                "4",
                "--seed",
                "7",
                "--jobs",
                jobs,
            ])
            .unwrap()
        };
        let one = line("1");
        let four = line("4");
        assert!(one.contains("ddcr") && one.contains("np-edf"), "{one}");
        // Everything above the (timing-dependent) perf line is identical.
        let table = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("sweep:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(table(&one), table(&four));
    }

    #[test]
    fn multibus_reports_per_bus() {
        let out = run_line(&[
            "multibus",
            "--scenario",
            "video",
            "--sources",
            "8",
            "--buses",
            "2",
            "--medium",
            "gigabit",
        ])
        .unwrap();
        assert!(out.contains("bus 0"));
        assert!(out.contains("bus 1"));
    }

    #[test]
    fn run_is_worker_count_invariant() {
        let dir = std::env::temp_dir().join("ddcr_cli_run_jobs_test");
        std::fs::create_dir_all(&dir).unwrap();
        let line = |jobs: &str, trace: &std::path::Path| {
            run_line(&[
                "run",
                "--scenario",
                "video",
                "--sources",
                "8",
                "--channels",
                "3",
                "--medium",
                "gigabit",
                "--horizon-ms",
                "4",
                "--jobs",
                jobs,
                "--trace-out",
                trace.to_str().unwrap(),
            ])
            .unwrap()
        };
        let t1 = dir.join("jobs1.jsonl");
        let t8 = dir.join("jobs8.jsonl");
        let one = line("1", &t1);
        let eight = line("8", &t8);
        // Stdout is deterministic by construction (no wall-clock, no
        // worker count), so the whole report must match byte for byte —
        // except the trace path baked into the "wrote" line.
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("wrote"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&one), strip(&eight));
        assert!(one.contains("channel"), "{one}");
        assert!(one.contains("PASS"), "{one}");
        let bytes1 = std::fs::read(&t1).unwrap();
        let bytes8 = std::fs::read(&t8).unwrap();
        assert!(!bytes1.is_empty());
        assert_eq!(bytes1, bytes8, "trace must be identical for every --jobs");
        let header = String::from_utf8(bytes1).unwrap();
        assert_eq!(
            header.lines().next().unwrap(),
            "{\"schema\":\"ddcr-trace\",\"version\":2,\"channels\":3}"
        );
    }

    #[test]
    fn run_single_channel_trace_matches_trace_command() {
        let dir = std::env::temp_dir().join("ddcr_cli_run_c1_test");
        std::fs::create_dir_all(&dir).unwrap();
        let run_path = dir.join("run_c1.jsonl");
        let trace_path = dir.join("trace.jsonl");
        let common = [
            "--scenario",
            "uniform",
            "--sources",
            "4",
            "--load",
            "0.2",
            "--horizon-ms",
            "4",
        ];
        let mut run_args = vec!["run", "--channels", "1", "--trace-out", run_path.to_str().unwrap()];
        run_args.extend_from_slice(&common);
        run_line(&run_args).unwrap();
        let mut trace_args = vec!["trace", "--out", trace_path.to_str().unwrap()];
        trace_args.extend_from_slice(&common);
        run_line(&trace_args).unwrap();
        let from_run = std::fs::read(&run_path).unwrap();
        let from_trace = std::fs::read(&trace_path).unwrap();
        assert!(!from_run.is_empty());
        assert_eq!(
            from_run, from_trace,
            "C=1 multichannel trace must be byte-identical to the single-bus export"
        );
    }

    #[test]
    fn run_reports_faults_and_replays_by_seed() {
        let line = || {
            run_line(&[
                "run",
                "--scenario",
                "uniform",
                "--sources",
                "4",
                "--load",
                "0.2",
                "--channels",
                "2",
                "--horizon-ms",
                "4",
                "--seed",
                "9",
                "--corrupt",
                "0.01",
                "--erase",
                "0.01",
            ])
            .unwrap()
        };
        let a = line();
        assert!(a.contains("fabric:"), "{a}");
        assert_eq!(a, line(), "faulted multichannel run must replay by seed");
        assert!(run_line(&["run", "--scenario", "uniform", "--sources", "2", "--channels", "0"]).is_err());
    }

    #[test]
    fn run_segments_is_jobs_invariant() {
        let dir = std::env::temp_dir().join("ddcr_cli_run_segments_jobs_test");
        std::fs::create_dir_all(&dir).unwrap();
        let line = |jobs: &str, trace: &std::path::Path| {
            run_line(&[
                "run",
                "--scenario",
                "video",
                "--sources",
                "8",
                "--segments",
                "3",
                "--medium",
                "gigabit",
                "--horizon-ms",
                "4",
                "--jobs",
                jobs,
                "--trace-out",
                trace.to_str().unwrap(),
            ])
            .unwrap()
        };
        let t1 = dir.join("jobs1.jsonl");
        let t8 = dir.join("jobs8.jsonl");
        let one = line("1", &t1);
        let eight = line("8", &t8);
        let strip = |s: &str| {
            s.lines()
                .filter(|l| !l.starts_with("wrote"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(strip(&one), strip(&eight));
        assert!(one.contains("segment"), "{one}");
        assert!(one.contains("handoffs"), "{one}");
        assert!(one.contains("PASS"), "{one}");
        let bytes1 = std::fs::read(&t1).unwrap();
        let bytes8 = std::fs::read(&t8).unwrap();
        assert!(!bytes1.is_empty());
        assert_eq!(bytes1, bytes8, "trace must be identical for every --jobs");
        let header = String::from_utf8(bytes1).unwrap();
        assert_eq!(
            header.lines().next().unwrap(),
            "{\"schema\":\"ddcr-trace\",\"version\":3,\"segments\":3}"
        );
    }

    #[test]
    fn run_single_segment_trace_matches_trace_command() {
        let dir = std::env::temp_dir().join("ddcr_cli_run_n1_test");
        std::fs::create_dir_all(&dir).unwrap();
        let run_path = dir.join("run_n1.jsonl");
        let trace_path = dir.join("trace.jsonl");
        let common = [
            "--scenario",
            "uniform",
            "--sources",
            "4",
            "--load",
            "0.2",
            "--horizon-ms",
            "4",
        ];
        let mut run_args = vec!["run", "--segments", "1", "--trace-out", run_path.to_str().unwrap()];
        run_args.extend_from_slice(&common);
        run_line(&run_args).unwrap();
        let mut trace_args = vec!["trace", "--out", trace_path.to_str().unwrap()];
        trace_args.extend_from_slice(&common);
        run_line(&trace_args).unwrap();
        let from_run = std::fs::read(&run_path).unwrap();
        let from_trace = std::fs::read(&trace_path).unwrap();
        assert!(!from_run.is_empty());
        assert_eq!(
            from_run, from_trace,
            "N=1 federation trace must be byte-identical to the single-bus export"
        );
    }

    #[test]
    fn run_segments_faults_replay_by_seed_and_flags_validate() {
        let line = || {
            run_line(&[
                "run",
                "--scenario",
                "uniform",
                "--sources",
                "4",
                "--load",
                "0.2",
                "--segments",
                "2",
                "--horizon-ms",
                "4",
                "--seed",
                "9",
                "--corrupt",
                "0.01",
                "--erase",
                "0.01",
            ])
            .unwrap()
        };
        let a = line();
        assert!(a.contains("fabric:"), "{a}");
        assert_eq!(a, line(), "faulted federation run must replay by seed");
        let base = ["run", "--scenario", "uniform", "--sources", "2"];
        let mut zero = base.to_vec();
        zero.extend_from_slice(&["--segments", "0"]);
        assert!(run_line(&zero).is_err());
        let mut both = base.to_vec();
        both.extend_from_slice(&["--segments", "2", "--channels", "2"]);
        assert!(run_line(&both).is_err());
        let mut epoch = base.to_vec();
        epoch.extend_from_slice(&["--channels", "2", "--epoch-ms", "1"]);
        assert!(run_line(&epoch).is_err());
    }

    #[test]
    fn check_small_scope_is_clean() {
        let out = run_line(&["check", "--scope", "small"]).unwrap();
        assert!(out.contains("all properties hold"));
        assert!(run_line(&["check", "--scope", "weird"]).is_err());
    }

    #[test]
    fn check_supports_both_collision_modes() {
        let out =
            run_line(&["check", "--scope", "small", "--mode", "arbitrating"]).unwrap();
        assert!(out.contains("all properties hold"), "{out}");
        assert!(run_line(&["check", "--mode", "psychic"]).is_err());
    }

    #[test]
    fn faults_check_small_scope_is_safe() {
        let out = run_line(&["faults", "--check", "small", "--seed", "42"]).unwrap();
        assert!(out.contains("safety holds under faults"), "{out}");
        assert!(out.contains("crashes"), "{out}");
        assert!(run_line(&["faults", "--check", "weird"]).is_err());
    }

    #[test]
    fn faults_simulation_is_seed_replayable() {
        let line = || {
            run_line(&[
                "faults",
                "--scenario",
                "uniform",
                "--sources",
                "4",
                "--load",
                "0.2",
                "--horizon-ms",
                "4",
                "--seed",
                "9",
                "--corrupt",
                "0.01",
                "--erase",
                "0.01",
                "--crash",
                "0.002",
                "--down",
                "32",
            ])
            .unwrap()
        };
        let a = line();
        assert!(a.contains("injected"), "{a}");
        assert!(a.contains("corrupted slots"), "{a}");
        // Bitwise replayable: the same seed reproduces the exact report.
        assert_eq!(a, line());
    }

    #[test]
    fn metrics_reports_phase_accounting_and_passes_xi_check() {
        let out = run_line(&[
            "metrics",
            "--scenario",
            "uniform",
            "--sources",
            "4",
            "--load",
            "0.2",
            "--horizon-ms",
            "4",
        ])
        .unwrap();
        assert!(out.contains("slots: tts"), "{out}");
        assert!(out.contains("xi checks:"), "{out}");
        assert!(out.contains("PASS"), "{out}");
        // Default retention is 0: streaming counters only.
        assert!(out.contains("retained 0 delivery records"), "{out}");
        let retained = run_line(&[
            "metrics",
            "--scenario",
            "uniform",
            "--sources",
            "4",
            "--load",
            "0.2",
            "--horizon-ms",
            "4",
            "--retain",
            "5",
        ])
        .unwrap();
        assert!(retained.contains("retained 5 delivery records"), "{retained}");
    }

    #[test]
    fn metrics_verdict_is_err_on_xi_violation() {
        use ddcr_sim::{PhaseHint, ProtocolPhase, XiBoundTable};
        // A conforming run cannot breach the bound (that is the theorem the
        // live check validates), so the violating window is synthesized at
        // the metrics layer: 6 overhead slots against an envelope allowing
        // 4. This pins the `Err` half of `ddcr metrics`' exit contract —
        // `main` maps any `Err` from `run` to a non-zero exit code (see
        // `cli_smoke.rs`), so violations must surface as `Err`, never as
        // text in an `Ok`.
        let bounds = || XiBoundTable::from_envelope(2, &[0, 0, 3, 3, 3]);
        let tts = |epoch: u64| {
            Some(PhaseHint {
                phase: ProtocolPhase::TimeSearch,
                epoch_start: Ticks(epoch),
            })
        };
        let mut metrics = SimMetrics::new(1);
        metrics.set_xi_bounds(bounds(), bounds());
        metrics.on_slot(tts(0), 1, 2, false);
        for _ in 0..5 {
            metrics.on_slot(tts(0), 1, 0, false);
        }
        // The next epoch closes and checks the violating one.
        metrics.on_slot(tts(100), 1, 0, false);
        assert_eq!(metrics.violations_total, 1);
        let err = xi_verdict(String::new(), &metrics).unwrap_err();
        assert!(err.contains("EXCEEDED the analytic bound 1 time(s)"), "{err}");
        assert!(err.contains("time tree"), "{err}");
        // And the passing side stays `Ok` with the PASS marker CI greps for.
        let clean = SimMetrics::new(1);
        let ok = xi_verdict(String::new(), &clean).unwrap();
        assert!(ok.contains("within the analytic bound: PASS"), "{ok}");
    }

    #[test]
    fn trace_exports_are_bitwise_identical_across_steppers() {
        let dir = std::env::temp_dir().join("ddcr_cli_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        // Full bisection matrix: idle stepper x contention-skip x
        // active-set. Every byte stream must be identical to the full
        // reference run (the last entry).
        let mut matrix = Vec::new();
        for stepper in ["fast", "reference"] {
            for contention_skip in ["on", "off"] {
                for active_set in ["on", "off"] {
                    let path =
                        dir.join(format!("{stepper}_{contention_skip}_{active_set}.jsonl"));
                    matrix.push((stepper, contention_skip, active_set, path));
                }
            }
        }
        for (stepper, contention_skip, active_set, path) in &matrix {
            let out = run_line(&[
                "trace",
                "--scenario",
                "uniform",
                "--sources",
                "4",
                "--load",
                "0.2",
                "--horizon-ms",
                "4",
                "--stepper",
                stepper,
                "--contention-skip",
                contention_skip,
                "--active-set",
                active_set,
                "--out",
                path.to_str().unwrap(),
            ])
            .unwrap();
            assert!(out.contains("wrote"), "{out}");
            assert!(
                out.contains(&format!("contention-skip {contention_skip}")),
                "{out}"
            );
            assert!(out.contains(&format!("active-set {active_set}")), "{out}");
        }
        let (_, _, _, reference_path) = matrix.last().unwrap();
        let reference = std::fs::read(reference_path).unwrap();
        assert!(!reference.is_empty());
        for (stepper, contention_skip, active_set, path) in &matrix[..matrix.len() - 1] {
            let bytes = std::fs::read(path).unwrap();
            assert_eq!(
                bytes, reference,
                "stepper={stepper} contention-skip={contention_skip} \
                 active-set={active_set} trace diverges from full reference"
            );
        }
        let text = String::from_utf8(reference).unwrap();
        let header = text.lines().next().unwrap();
        assert_eq!(header, "{\"schema\":\"ddcr-trace\",\"version\":1}");
        assert!(run_line(&["trace", "--scenario", "uniform", "--sources", "2"]).is_err());
        assert!(run_line(&[
            "trace",
            "--scenario",
            "uniform",
            "--sources",
            "2",
            "--out",
            "/tmp/x.jsonl",
            "--stepper",
            "psychic"
        ])
        .is_err());
        assert!(run_line(&[
            "trace",
            "--scenario",
            "uniform",
            "--sources",
            "2",
            "--out",
            "/tmp/x.jsonl",
            "--contention-skip",
            "maybe"
        ])
        .is_err());
        assert!(run_line(&[
            "trace",
            "--scenario",
            "uniform",
            "--sources",
            "2",
            "--out",
            "/tmp/x.jsonl",
            "--active-set",
            "maybe"
        ])
        .is_err());
    }

    #[test]
    fn typos_are_rejected() {
        assert!(run_line(&["xi", "--m", "4", "--n", "3", "--q", "9"]).is_err());
        assert!(run_line(&["simulate", "--scenario", "uniform", "--sources", "2", "--protocol", "nope"]).is_err());
        assert!(run_line(&["feasibility", "--scenario", "weird", "--sources", "2"]).is_err());
    }

    #[test]
    fn millisecond_flags_convert_with_overflow_checks() {
        let max_ms = u64::MAX / 1_000_000;
        assert_eq!(ticks_from_ms("horizon-ms", 10), Ok(Ticks(10_000_000)));
        assert_eq!(
            ticks_from_ms("horizon-ms", max_ms),
            Ok(Ticks(max_ms * 1_000_000))
        );
        let err = ticks_from_ms("epoch-ms", max_ms + 1).unwrap_err();
        assert!(
            err.0.contains("--epoch-ms") && err.0.contains("overflows"),
            "{err}"
        );
        // The fault-plan horizon doubles the arrival horizon: a horizon that
        // fits once but not twice is an error (checked here on the helper,
        // since the commands refuse it before building any schedule).
        let medium = MediumConfig::ethernet();
        assert_eq!(
            fault_horizon_slots(Ticks(10_000_000), &medium),
            Ok(20_000_000 / medium.slot_ticks)
        );
        let err = fault_horizon_slots(Ticks(max_ms * 1_000_000), &medium).unwrap_err();
        assert!(err.0.contains("fault-plan horizon"), "{err}");
    }

    #[test]
    fn fault_flags_are_validated_in_one_place() {
        let parse = |line: &[&str]| Args::parse(line.iter().copied()).unwrap();
        let defaults = FaultRates {
            down_slots: 64,
            ..FaultRates::default()
        };
        let rates = fault_rates_from(&parse(&["run", "--crash", "2e-6"]), defaults).unwrap();
        assert_eq!(rates.crash, 2e-6);
        assert_eq!(rates.down_slots, 64);
        for (flag, value) in [
            ("--corrupt", "NaN"),
            ("--erase", "-0.5"),
            ("--crash", "1.5"),
        ] {
            let err = fault_rates_from(&parse(&["run", flag, value]), defaults).unwrap_err();
            assert!(err.0.starts_with(&format!("flag {flag}:")), "{err}");
        }
        // No fault flag, no plan.
        let args = parse(&["run"]);
        assert_eq!(
            run_faults_from(&args, Ticks(1_000_000), &MediumConfig::ethernet()),
            Ok(None)
        );
    }
}
