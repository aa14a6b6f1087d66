//! **Experiment E13 — §3.1 channel efficiency**: "theoretical work …
//! established that tree protocols achieve channel utilization ratios that
//! are very close to theoretical upper bounds".
//!
//! Two complementary measurements:
//!
//! 1. **Analytic saturation efficiency** via the exact average-case table
//!    ([`ddcr_tree::average`]): with `k` always-backlogged stations and
//!    frames of `L` slot times, useful/total = `k·L / (k·L + A_t(k))`.
//! 2. **Simulated saturation throughput** of the full CSMA/DDCR protocol:
//!    all stations permanently backlogged, measured channel utilization.
//!
//! Expected shape: efficiency grows with frame size and stays within a
//! few percent of 1 for Ethernet-scale frames — far above the classical
//! slotted-ALOHA 1/e. The analytic figure is per search round (k uniformly
//! random leaves); the protocol under sustained backlog amortizes searches
//! over ν_i messages per source and can exceed it.
//!
//! Runs the `(k, frame)` grid as a deterministic parallel sweep
//! (`--jobs N`, default all cores); every cell reads the shared ξ / A tables
//! through [`ddcr_tree::cache`], so the worst-case and average tables for
//! the 64-leaf quaternary shape are computed exactly once per process
//! regardless of the worker count. Writes `results/exp_efficiency.csv`
//! plus `results/exp_efficiency_sweep_stats.csv`.

use ddcr_bench::harness::{default_ddcr_config, run_protocol, ProtocolKind};
use ddcr_bench::report::{ascii_chart, write_indexed_stats, Csv, Series};
use ddcr_bench::results_dir;
use ddcr_bench::sweep::{jobs_flag_from_args, run_indexed, SweepConfig};
use ddcr_sim::{MediumConfig, Ticks};
use ddcr_traffic::{scenario, ScheduleBuilder};
use ddcr_tree::{cache, TreeShape};

struct Cell {
    k: u64,
    frame_slots: f64,
    eff_avg: f64,
    eff_worst: f64,
    sim_util: Option<f64>,
}

fn main() {
    let shape = TreeShape::new(4, 3).expect("64-leaf quaternary");
    let mut csv = Csv::create(
        &results_dir().join("exp_efficiency.csv"),
        &[
            "k",
            "frame_slots",
            "analytic_avg_efficiency",
            "analytic_worst_efficiency",
            "simulated_utilization",
        ],
    )
    .expect("create csv");

    println!("E13 — channel efficiency of tree-based resolution (64-leaf quaternary tree)");
    println!(
        "{:>3} {:>12} {:>14} {:>15} {:>14}",
        "k", "frame_slots", "avg analytic", "worst analytic", "simulated"
    );

    let medium = MediumConfig::ethernet();
    let grid: Vec<(u64, f64)> = [2u64, 4, 8, 16, 32]
        .into_iter()
        .flat_map(|k| [2.0f64, 8.0, 23.0].into_iter().map(move |f| (k, f)))
        .collect();
    let labels: Vec<String> = grid
        .iter()
        .map(|(k, f)| format!("k={k}/frame={f}"))
        .collect();

    // Every job pulls both tables from the process-wide cache: the first
    // toucher computes them, the other 14 cells hit.
    let report = run_indexed(
        SweepConfig::resolve(jobs_flag_from_args(), 13),
        grid.len(),
        |ctx| {
            let (k, frame_slots) = grid[ctx.index];
            let avg = cache::global().expected(shape).expect("average table");
            let worst = cache::global().worst_case(shape).expect("worst table");
            let eff_avg = avg.efficiency(k, frame_slots).expect("k in range");
            let worst_slots = worst.xi(k).expect("k in range") as f64;
            let eff_worst = k as f64 * frame_slots / (k as f64 * frame_slots + worst_slots);

            // Simulation: k stations, saturated with back-to-back bursts of
            // frames of ~frame_slots slot times each, measured utilization.
            let bits = (frame_slots * medium.slot_ticks as f64) as u64
                - medium.overhead_bits.min((frame_slots as u64) * 100);
            let sim_util = if frame_slots == 23.0 {
                let set = scenario::uniform(k as u32, bits, Ticks(1_000_000_000), 0.999)
                    .expect("scenario");
                let schedule = ScheduleBuilder::peak_load(&set)
                    .build(Ticks(40_000_000))
                    .expect("schedule");
                let summary = run_protocol(
                    &ProtocolKind::Ddcr(default_ddcr_config(&set, &medium)),
                    &set,
                    &schedule,
                    medium,
                    Ticks(400_000_000_000),
                )
                .expect("run");
                Some(summary.utilization)
            } else {
                None
            };
            Cell {
                k,
                frame_slots,
                eff_avg,
                eff_worst,
                sim_util,
            }
        },
    );

    let mut avg_pts = Vec::new();
    let mut sim_pts = Vec::new();
    for outcome in &report.outcomes {
        let cell = &outcome.value;
        println!(
            "{:>3} {:>12} {:>14.4} {:>15.4} {:>14}",
            cell.k,
            cell.frame_slots,
            cell.eff_avg,
            cell.eff_worst,
            cell.sim_util.map_or("-".into(), |u| format!("{u:.4}"))
        );
        csv.row(&[
            cell.k.to_string(),
            cell.frame_slots.to_string(),
            format!("{:.6}", cell.eff_avg),
            format!("{:.6}", cell.eff_worst),
            cell.sim_util.map_or("-".into(), |u| format!("{u:.6}")),
        ])
        .expect("row");
        if cell.frame_slots == 23.0 {
            avg_pts.push((cell.k as f64, cell.eff_avg));
            if let Some(u) = cell.sim_util {
                sim_pts.push((cell.k as f64, u));
            }
        }
    }
    csv.finish().expect("flush");
    write_indexed_stats(
        &results_dir().join("exp_efficiency_sweep_stats.csv"),
        &labels,
        &report,
    )
    .expect("sweep stats");
    println!("{}", report.perf_line());

    println!();
    println!(
        "{}",
        ascii_chart(
            "saturation efficiency vs k (frames of 23 slots = 1500B on Ethernet)",
            &[
                Series::new("a analytic", avg_pts.clone()),
                Series::new("s simulated", sim_pts.clone())
            ],
            56,
            12,
        )
    );
    // Shape: efficiency far above slotted-ALOHA's 1/e at Ethernet frame
    // sizes. The analytic number is for ONE search round isolating k
    // uniformly random leaves; the full protocol amortizes better under
    // sustained backlogs (a static tree search drains up to ν_i messages
    // per source), so the simulated utilization may exceed the per-round
    // average — both must sit well above 0.85 and below 1.
    for &(k, eff) in &avg_pts {
        assert!(
            eff > 0.8,
            "analytic efficiency at k={k} unexpectedly low: {eff}"
        );
    }
    for &(k, sim) in &sim_pts {
        assert!(
            sim > 0.85 && sim < 1.0,
            "simulated utilization at k={k} out of expected band: {sim}"
        );
    }
    let totals = report.cache_totals();
    assert!(
        totals.hits > 0,
        "expected repeated cells to hit the shared table cache"
    );
    println!("§3.1 shape (tree resolution keeps the channel nearly always useful): REPRODUCED");
    println!("wrote results/exp_efficiency.csv");
}
