//! **Experiment E16 — fault sweep**: CSMA/DDCR under seeded fault
//! injection.
//!
//! The paper's guarantees are proved for conforming, fault-free networks;
//! this experiment measures how the implementation degrades when the
//! medium misbehaves. A deterministic grid over per-slot fault rates
//! (slot corruption, frame erasure, station crashes) × seeds drives a
//! DDCR network at peak load; every cell is a pure function of its seed,
//! so the whole sweep is bitwise replayable. Writes
//! `results/exp_faults.csv`.

use ddcr_bench::report::Csv;
use ddcr_bench::results_dir;
use ddcr_core::{network, DdcrConfig, StaticAllocation};
use ddcr_sim::{ChannelStats, FaultPlan, FaultRates, MediumConfig, Ticks};
use ddcr_traffic::{scenario, ScheduleBuilder};

const SOURCES: u32 = 8;
const HORIZON: Ticks = Ticks(8_000_000);
const DOWN_SLOTS: u64 = 64;

fn run_cell(rates: &FaultRates, seed: u64) -> (usize, usize, ChannelStats) {
    let set = scenario::uniform(SOURCES, 8_000, Ticks(5_000_000), 0.3).expect("scenario");
    let medium = MediumConfig::ethernet();
    let c = network::recommended_class_width(&set, 64, &medium);
    let config = DdcrConfig::for_sources(SOURCES, c).expect("config");
    let allocation =
        StaticAllocation::round_robin(config.static_tree, SOURCES).expect("allocation");
    let schedule = ScheduleBuilder::peak_load(&set)
        .build(HORIZON)
        .expect("schedule");
    let scheduled = schedule.len();
    // Decision slots are at least one slot time wide, so this over-covers
    // the arrival horizon; doubled for the drain tail.
    let horizon_slots = 2 * HORIZON.as_u64() / medium.slot_ticks;
    let plan = FaultPlan::generate(seed, SOURCES, horizon_slots, rates);
    let injected = plan.len();
    let mut engine = network::build_engine(&set, &config, &allocation, medium).expect("engine");
    engine.set_fault_plan(plan);
    engine.add_arrivals(schedule).expect("arrivals");
    let _ = engine.run_to_completion(Ticks(1_000_000_000_000));
    (scheduled, injected, engine.into_stats())
}

fn main() {
    let mut csv = Csv::create(
        &results_dir().join("exp_faults.csv"),
        &[
            "corrupt",
            "erase",
            "crash",
            "seed",
            "injected",
            "scheduled",
            "delivered",
            "lost",
            "corrupted_slots",
            "erased_frames",
            "crashes",
            "restarts",
            "misses",
            "max_latency",
            "utilization",
        ],
    )
    .expect("create csv");

    println!("E16 — CSMA/DDCR under seeded fault injection ({SOURCES} sources, peak load)");
    println!(
        "{:>8} {:>7} {:>7} {:>5} {:>8} {:>9} {:>5} {:>8} {:>8} {:>8} {:>7}",
        "corrupt",
        "erase",
        "crash",
        "seed",
        "injected",
        "delivered",
        "lost",
        "corrupt#",
        "erased#",
        "restarts",
        "misses"
    );
    let grid = [
        FaultRates {
            corrupt: 0.0,
            erase: 0.0,
            crash: 0.0,
            down_slots: DOWN_SLOTS,
        },
        FaultRates {
            corrupt: 0.005,
            erase: 0.0,
            crash: 0.0,
            down_slots: DOWN_SLOTS,
        },
        FaultRates {
            corrupt: 0.0,
            erase: 0.01,
            crash: 0.0,
            down_slots: DOWN_SLOTS,
        },
        FaultRates {
            corrupt: 0.0,
            erase: 0.0,
            crash: 0.001,
            down_slots: DOWN_SLOTS,
        },
        FaultRates {
            corrupt: 0.005,
            erase: 0.01,
            crash: 0.001,
            down_slots: DOWN_SLOTS,
        },
        FaultRates {
            corrupt: 0.02,
            erase: 0.02,
            crash: 0.002,
            down_slots: DOWN_SLOTS,
        },
    ];
    for rates in &grid {
        for seed in [1u64, 2, 3] {
            let (scheduled, injected, stats) = run_cell(rates, seed);
            println!(
                "{:>8.3} {:>7.3} {:>7.4} {:>5} {:>8} {:>9} {:>5} {:>8} {:>8} {:>8} {:>7}",
                rates.corrupt,
                rates.erase,
                rates.crash,
                seed,
                injected,
                stats.deliveries.len(),
                stats.lost.len(),
                stats.corrupted_slots,
                stats.erased_frames,
                stats.restarts,
                stats.deadline_misses(),
            );
            csv.row(&[
                rates.corrupt.to_string(),
                rates.erase.to_string(),
                rates.crash.to_string(),
                seed.to_string(),
                injected.to_string(),
                scheduled.to_string(),
                stats.deliveries.len().to_string(),
                stats.lost.len().to_string(),
                stats.corrupted_slots.to_string(),
                stats.erased_frames.to_string(),
                stats.crashes.to_string(),
                stats.restarts.to_string(),
                stats.deadline_misses().to_string(),
                stats.max_latency().as_u64().to_string(),
                format!("{:.4}", stats.utilization()),
            ])
            .expect("row");
            // Safety under every cell: nothing delivered twice, and every
            // scheduled message is either delivered or lost in a crash.
            let delivered: std::collections::HashSet<u64> =
                stats.deliveries.iter().map(|d| d.message.id.0).collect();
            assert_eq!(
                delivered.len(),
                stats.deliveries.len(),
                "duplicate delivery under faults"
            );
            assert_eq!(
                delivered.len() + stats.lost.len(),
                scheduled,
                "message neither delivered nor accounted lost"
            );
        }
    }
    // Replayability spot check: the adversarial cell is a pure function
    // of its seed.
    let a = run_cell(&grid[4], 7);
    let b = run_cell(&grid[4], 7);
    assert_eq!(a.2.deliveries, b.2.deliveries, "fault sweep not replayable");
    csv.finish().expect("flush");
    println!();
    println!("every cell is exactly-once and loss-accounted: VERIFIED");
    println!("wrote results/exp_faults.csv");
}
