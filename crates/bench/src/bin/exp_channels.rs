//! **Experiment E15 — multichannel wall-clock scaling and capacity.**
//!
//! Fixes a saturated workload (32-participant videoconference on gigabit
//! Ethernet — provable only from 3 channels up, per E14) and sweeps the
//! channel count 1–4, reporting for each fabric width:
//!
//! * the per-channel ξ budgets and whether the fabric is provably
//!   feasible (the §3.1 capacity gain: infeasible at C=1, provable at
//!   C≥3);
//! * a peak-load simulation across all channels (delivered / misses /
//!   drained) — deterministic, identical for every `--jobs`;
//! * wall-clock for serial (1 worker) vs parallel (`--jobs`, default all
//!   cores) execution of the same channels — the speedup parallel
//!   channels buy on this host.
//!
//! Writes `results/exp_channels.csv` (deterministic columns only; timing
//! goes to stdout).

use ddcr_bench::report::Csv;
use ddcr_bench::results_dir;
use ddcr_bench::sweep::{self, SweepConfig};
use ddcr_core::{multibus, network, DdcrConfig, StaticAllocation};
use ddcr_sim::{MediumConfig, Ticks};
use ddcr_traffic::{scenario, ScheduleBuilder};

const PARTICIPANTS: u32 = 32;
const HORIZON: Ticks = Ticks(8_000_000);
const BUDGET: Ticks = Ticks(400_000_000_000);

fn main() {
    let medium = MediumConfig::gigabit_ethernet();
    let jobs = SweepConfig::resolve(sweep::jobs_flag_from_args(), 42).workers;
    let set = scenario::videoconference(PARTICIPANTS).expect("scenario");
    let c = network::recommended_class_width(&set, 64, &medium);
    let config = DdcrConfig::for_sources(PARTICIPANTS, c).expect("config");
    let allocation =
        StaticAllocation::round_robin(config.static_tree, PARTICIPANTS).expect("allocation");

    let mut csv = Csv::create(
        &results_dir().join("exp_channels.csv"),
        &[
            "channels",
            "fabric_feasible",
            "max_channel_load",
            "max_p2_slots",
            "scheduled",
            "delivered",
            "misses",
            "drained",
        ],
    )
    .expect("create csv");

    println!(
        "E15 — multichannel scaling, videoconference z={PARTICIPANTS} on gigabit \
         (load {:.3})",
        set.offered_load()
    );
    println!(
        "{:>8} {:>9} {:>9} {:>10} {:>9} {:>9} {:>7} {:>8} {:>9} {:>9} {:>8}",
        "channels",
        "feasible",
        "max_load",
        "p2_slots",
        "scheduled",
        "delivered",
        "misses",
        "drained",
        "serial_s",
        "par_s",
        "speedup"
    );

    let mut single_feasible = true;
    let mut widest_feasible = false;
    for channels in 1..=4usize {
        let assignment = multibus::balance_by_load(&set, channels);
        let budgets = multibus::channel_budgets(&set, &assignment, &config, &allocation, &medium)
            .expect("budgets");
        let feasible = budgets.iter().all(|b| b.feasible);
        let max_load = budgets.iter().map(|b| b.offered_load).fold(0.0, f64::max);
        let max_p2 = budgets.iter().map(|b| b.p2_slots).fold(0.0, f64::max);
        if channels == 1 {
            single_feasible = feasible;
        }
        if channels == 4 {
            widest_feasible = feasible;
        }

        let schedule = ScheduleBuilder::peak_load(&set)
            .build(HORIZON)
            .expect("schedule");
        let n = schedule.len();
        let mut options = multibus::RunOptions::new(BUDGET);
        options.workers = 1;
        let serial = multibus::run_channels(
            &set,
            schedule.clone(),
            &assignment,
            &config,
            &allocation,
            medium,
            &options,
        )
        .expect("serial run");
        options.workers = jobs;
        let parallel = multibus::run_channels(
            &set,
            schedule,
            &assignment,
            &config,
            &allocation,
            medium,
            &options,
        )
        .expect("parallel run");

        // Worker-count invariance, checked on every row.
        assert_eq!(serial.channels.len(), parallel.channels.len());
        for (a, b) in serial.channels.iter().zip(&parallel.channels) {
            assert_eq!(
                a.stats, b.stats,
                "channel results must not depend on --jobs"
            );
        }

        let delivered = parallel.delivered();
        let misses = parallel.deadline_misses();
        let drained = parallel.completed();
        if drained {
            assert_eq!(delivered, n, "a drained fabric delivers everything");
        }
        let speedup = serial.wall.as_secs_f64() / parallel.wall.as_secs_f64().max(1e-9);
        println!(
            "{channels:>8} {feasible:>9} {max_load:>9.3} {max_p2:>10.1} {n:>9} \
             {delivered:>9} {misses:>7} {drained:>8} {:>9.3} {:>9.3} {speedup:>7.2}x",
            serial.wall.as_secs_f64(),
            parallel.wall.as_secs_f64(),
        );
        csv.row(&[
            channels.to_string(),
            feasible.to_string(),
            format!("{max_load:.6}"),
            format!("{max_p2:.3}"),
            n.to_string(),
            delivered.to_string(),
            misses.to_string(),
            drained.to_string(),
        ])
        .expect("row");
    }
    csv.finish().expect("flush");

    assert!(
        !single_feasible,
        "z={PARTICIPANTS} must be infeasible on one channel (else the capacity claim is vacuous)"
    );
    assert!(
        widest_feasible,
        "z={PARTICIPANTS} must be provable on four channels"
    );
    println!();
    println!(
        "capacity: z={PARTICIPANTS} INFEASIBLE at C=1, provably FEASIBLE at C=4 \
         (§3.1 parallel media)"
    );
    println!("wrote results/exp_channels.csv");
}
