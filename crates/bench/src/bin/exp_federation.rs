//! **Experiment E16 — federation scaling over bridged segments.**
//!
//! Fixes the saturated E15 workload (32-participant videoconference on
//! gigabit Ethernet) and sweeps the segment count 1–4 with every fourth
//! class bridged to the next segment, reporting for each fabric width:
//!
//! * the deterministic outcome (scheduled / delivered / misses /
//!   handoffs / rounds / drained) — identical for every `--jobs`,
//!   asserted on each row;
//! * wall-clock for serial (1 worker) vs parallel (`--jobs`, default all
//!   cores) execution of the same federation — the speedup parallel
//!   segments buy on this host;
//! * for N=1, a bitwise cross-check against the single-bus engine (the
//!   epoch-round chunking must be invisible).
//!
//! Writes `results/exp_federation.csv` (deterministic columns only;
//! timing goes to stdout).

use ddcr_bench::report::Csv;
use ddcr_bench::results_dir;
use ddcr_bench::sweep::{self, SweepConfig};
use ddcr_core::{federate, multibus, network, DdcrConfig, StaticAllocation};
use ddcr_sim::federation::FederationOptions;
use ddcr_sim::{MediumConfig, Ticks};
use ddcr_traffic::{scenario, ScheduleBuilder};

const PARTICIPANTS: u32 = 32;
const TRANSIT_EVERY: u32 = 4;
const HORIZON: Ticks = Ticks(8_000_000);
const EPOCH: Ticks = Ticks(1_000_000);
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
        &results_dir().join("exp_federation.csv"),
        &[
            "segments",
            "bridged_classes",
            "scheduled",
            "delivered",
            "misses",
            "handoffs",
            "rounds",
            "drained",
        ],
    )
    .expect("create csv");

    println!(
        "E16 — federation scaling, videoconference z={PARTICIPANTS} on gigabit \
         (load {:.3}, epoch {} ticks, transit every {TRANSIT_EVERY}th class)",
        set.offered_load(),
        EPOCH.as_u64(),
    );
    println!(
        "{:>8} {:>8} {:>9} {:>9} {:>7} {:>8} {:>7} {:>8} {:>9} {:>9} {:>8}",
        "segments",
        "bridged",
        "scheduled",
        "delivered",
        "misses",
        "handoffs",
        "rounds",
        "drained",
        "serial_s",
        "par_s",
        "speedup"
    );

    for segments in 1..=4usize {
        let assignment = multibus::balance_by_load(&set, segments);
        let routes = federate::transit_routes(&set, &assignment, TRANSIT_EVERY);
        let schedule = ScheduleBuilder::peak_load(&set)
            .build(HORIZON)
            .expect("schedule");
        let n = schedule.len();
        let run = |workers: usize| {
            let mut options = FederationOptions::new(EPOCH, BUDGET);
            options.workers = workers;
            federate::run_segments(
                &set,
                schedule.clone(),
                &assignment,
                &routes,
                &config,
                &allocation,
                medium,
                &options,
            )
            .expect("federated run")
        };
        let serial = run(1);
        let parallel = run(jobs);

        // Worker-count invariance, checked on every row.
        assert_eq!(serial.rounds, parallel.rounds);
        assert_eq!(serial.handoffs, parallel.handoffs);
        assert_eq!(serial.segments.len(), parallel.segments.len());
        for (a, b) in serial.segments.iter().zip(&parallel.segments) {
            assert_eq!(
                a.stats, b.stats,
                "segment results must not depend on --jobs"
            );
        }

        if segments == 1 {
            // The epoch-round chunking must be invisible: one segment is
            // the single-bus engine, bit for bit.
            let reference = network::run(
                &set,
                schedule.clone(),
                &config,
                &allocation,
                medium,
                network::RunLimit::Completion(BUDGET),
            )
            .expect("single-bus reference");
            assert_eq!(
                parallel.segments[0].stats, reference,
                "N=1 must match the single-bus engine"
            );
        }

        let delivered = parallel.delivered();
        let misses = parallel.deadline_misses();
        let handoffs = parallel.handoffs;
        let rounds = parallel.rounds;
        let drained = parallel.completed();
        let speedup = serial.wall.as_secs_f64() / parallel.wall.as_secs_f64().max(1e-9);
        println!(
            "{segments:>8} {:>8} {n:>9} {delivered:>9} {misses:>7} {handoffs:>8} \
             {rounds:>7} {drained:>8} {:>9.3} {:>9.3} {speedup:>7.2}x",
            routes.len(),
            serial.wall.as_secs_f64(),
            parallel.wall.as_secs_f64(),
        );
        csv.row(&[
            segments.to_string(),
            routes.len().to_string(),
            n.to_string(),
            delivered.to_string(),
            misses.to_string(),
            handoffs.to_string(),
            rounds.to_string(),
            drained.to_string(),
        ])
        .expect("row");
    }
    csv.finish().expect("flush");

    println!();
    println!(
        "federation: results bitwise invariant under --jobs, N=1 identical to the \
         single-bus engine"
    );
    println!("wrote results/exp_federation.csv");
}
