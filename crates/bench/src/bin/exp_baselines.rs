//! **Experiment E8 — §3.1 motivation**: CSMA/DDCR vs CSMA-CD/BEB vs
//! CSMA/DCR vs the centralized NP-EDF oracle, across an offered-load sweep
//! under adversarial peak-load bursts with hard deadlines.
//!
//! The workload mixes, per source, an **urgent** class (4 kbit, 300 µs
//! deadline) and a **bulk** class (24 kbit, 4 ms deadline), both arriving
//! in phase-aligned bursts — so the MAC must order cross-source traffic by
//! deadline to meet the urgent class.
//!
//! Expected shape (the paper's argument; it reports no measurements): the
//! stochastic BEB baseline misses urgent deadlines as load rises — its
//! tail latency is unbounded — while deadline-aware deterministic DDCR
//! holds zero misses far longer; the oracle lower-bounds everyone; DCR is
//! deterministic but deadline-blind, landing in between.
//!
//! Runs as a deterministic parallel sweep (`--jobs N`, default all cores;
//! the CSV is byte-identical for every worker count). Writes
//! `results/exp_baselines.csv` plus per-job timing/cache metadata to
//! `results/exp_baselines_sweep_stats.csv`.

use ddcr_baseline::QueueDiscipline;
use ddcr_bench::harness::{default_ddcr_config, ProtocolKind};
use ddcr_bench::report::{ascii_chart, write_sweep_stats, Csv, Series};
use ddcr_bench::results_dir;
use ddcr_bench::sweep::{jobs_flag_from_args, SweepConfig, SweepGrid};
use ddcr_sim::{ClassId, MediumConfig, SourceId, Ticks};
use ddcr_traffic::{DensityBound, MessageClass, MessageSet, ScheduleBuilder};
use std::collections::BTreeMap;

/// Two classes per source — bulk and urgent — with a fixed 2 ms burst
/// window; the burst size `a` scales the offered load. Bulk classes get
/// the lower ids so a FIFO queue (arrival order, id tie-break) services
/// bulk before urgent — the inversion local EDF exists to fix.
fn workload(z: u32, a: u64) -> MessageSet {
    let w = Ticks(2_000_000);
    let mut classes = Vec::new();
    for s in 0..z {
        classes.push(MessageClass {
            id: ClassId(2 * s),
            name: format!("bulk/s{s}"),
            source: SourceId(s),
            bits: 24_000,
            deadline: Ticks(4_000_000),
            density: DensityBound::new(a, w).expect("bound"),
        });
        classes.push(MessageClass {
            id: ClassId(2 * s + 1),
            name: format!("urgent/s{s}"),
            source: SourceId(s),
            bits: 4_000,
            deadline: Ticks(300_000),
            density: DensityBound::new(a, w).expect("bound"),
        });
    }
    MessageSet::new(z, classes).expect("set")
}

fn main() {
    let medium = MediumConfig::ethernet();
    let z = 8u32;
    let mut csv = Csv::create(
        &results_dir().join("exp_baselines.csv"),
        &[
            "load",
            "protocol",
            "scheduled",
            "delivered",
            "misses",
            "miss_ratio",
            "mean_latency",
            "max_latency",
            "p50_latency",
            "p95_latency",
            "p99_latency",
            "xi_observed",
            "utilization",
            "collisions",
        ],
    )
    .expect("create csv");

    println!("E8 — protocol comparison, {z} sources, urgent (300 us) + bulk (4 ms) classes, burst size sweep");
    println!(
        "{:>5} {:<14} {:>6} {:>7} {:>9} {:>12} {:>12} {:>7} {:>10}",
        "load", "protocol", "sched", "misses", "miss%", "mean_lat", "max_lat", "util", "collisions"
    );

    // Build the full (load × protocol) grid, then fan it out over the
    // sweep workers. Per-job seeds derive from (master_seed=42, job index),
    // so the stochastic BEB rows are reproducible for any --jobs value.
    let loads = [1u64, 2, 3, 4];
    let mut grid = SweepGrid::new();
    let mut offered_loads = Vec::new();
    for a in loads {
        let set = workload(z, a);
        let load = set.offered_load();
        offered_loads.push(load);
        let horizon = Ticks(set.classes()[0].density.w.as_u64() * 6);
        let schedule = ScheduleBuilder::peak_load(&set)
            .build(horizon)
            .expect("schedule");
        let kinds = [
            ProtocolKind::Ddcr(default_ddcr_config(&set, &medium)),
            ProtocolKind::CsmaCd(QueueDiscipline::Fifo, 42),
            ProtocolKind::CsmaCd(QueueDiscipline::Edf, 42),
            ProtocolKind::Dcr(QueueDiscipline::Edf),
            ProtocolKind::NpEdf,
        ];
        grid.push_comparison(
            &format!("{load:.2}"),
            &kinds,
            &set,
            &schedule,
            medium,
            Ticks(60_000_000_000),
        );
    }
    let kinds_per_load = grid.len() / loads.len();
    let report = grid.run(SweepConfig::resolve(jobs_flag_from_args(), 42));
    let all = report.summaries().expect("runs");

    let mut miss_series: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
    let mut summaries_by_load = Vec::new();
    for (i, &load) in offered_loads.iter().enumerate() {
        let summaries = all[i * kinds_per_load..(i + 1) * kinds_per_load].to_vec();
        for s in &summaries {
            println!(
                "{:>5.2} {:<14} {:>6} {:>7} {:>9.4} {:>12.0} {:>12} {:>7.3} {:>10}",
                load,
                s.protocol,
                s.scheduled,
                s.misses,
                s.miss_ratio,
                s.mean_latency,
                s.max_latency,
                s.utilization,
                s.collisions
            );
            csv.row(&[
                load.to_string(),
                s.protocol.clone(),
                s.scheduled.to_string(),
                s.delivered.to_string(),
                s.misses.to_string(),
                format!("{:.6}", s.miss_ratio),
                format!("{:.1}", s.mean_latency),
                s.max_latency.to_string(),
                s.p50_latency.to_string(),
                s.p95_latency.to_string(),
                s.p99_latency.to_string(),
                s.xi_observed.to_string(),
                format!("{:.4}", s.utilization),
                s.collisions.to_string(),
            ])
            .expect("row");
            miss_series
                .entry(s.protocol.clone())
                .or_default()
                .push((load, 100.0 * s.miss_ratio));
        }
        summaries_by_load.push((load, summaries));
        println!();
    }
    csv.finish().expect("flush");
    write_sweep_stats(
        &results_dir().join("exp_baselines_sweep_stats.csv"),
        &report,
    )
    .expect("sweep stats");
    println!("{}", report.perf_line());

    let series: Vec<Series> = miss_series
        .iter()
        .map(|(name, pts)| Series::new(name, pts.clone()))
        .collect();
    println!(
        "{}",
        ascii_chart("deadline miss % vs offered load", &series, 60, 14)
    );

    // Shape assertions (who wins, roughly where):
    for (load, summaries) in &summaries_by_load {
        let get = |name: &str| {
            summaries
                .iter()
                .find(|s| s.protocol == name)
                .expect("protocol present")
        };
        let ddcr = get("ddcr");
        let oracle = get("np-edf");
        assert!(
            oracle.max_latency <= ddcr.max_latency,
            "oracle beaten at load {load}"
        );
        assert_eq!(oracle.misses, 0, "oracle missed at load {load}");
    }
    let (last_load, last) = summaries_by_load.last().expect("runs");
    let beb = last
        .iter()
        .find(|s| s.protocol == "csma-cd/fifo")
        .expect("beb");
    let ddcr = last.iter().find(|s| s.protocol == "ddcr").expect("ddcr");
    println!(
        "at load {last_load:.2}: csma-cd/fifo misses = {}, ddcr misses = {}",
        beb.misses, ddcr.misses
    );
    assert!(
        beb.misses >= ddcr.misses,
        "expected BEB to miss at least as often as DDCR at high load"
    );
    assert!(
        beb.misses > 0,
        "expected the stochastic baseline to miss urgent deadlines at the top of the sweep"
    );
    println!("expected shape (deadline-aware deterministic beats stochastic): REPRODUCED");
    println!("wrote results/exp_baselines.csv");
}
