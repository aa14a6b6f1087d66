//! **Experiment E14 — §3.1 parallel media**: "a broadcast medium (many
//! such media can be used in parallel)".
//!
//! Measures how provable capacity scales with the number of parallel
//! busses: for the videoconference scenario, the largest participant count
//! whose projected per-bus message sets all pass the feasibility
//! conditions, for 1–4 busses, plus a peak-load simulation at each
//! frontier. The provability grid (busses × participant counts) fans out
//! over the deterministic sweep runner and each frontier validation runs
//! its channels on `--jobs` workers of the multichannel runner, so `--jobs N` changes
//! only wall-clock, never the CSV. Writes `results/exp_multibus.csv`.

use ddcr_bench::report::Csv;
use ddcr_bench::results_dir;
use ddcr_bench::sweep::{self, SweepConfig};
use ddcr_core::{multibus, network, DdcrConfig, StaticAllocation};
use ddcr_sim::{MediumConfig, Ticks};
use ddcr_traffic::{scenario, ScheduleBuilder};

const BUS_COUNTS: usize = 4;
const Z_STEPS: &[u32] = &{
    let mut steps = [0u32; 48];
    let mut i = 0;
    while i < 48 {
        steps[i] = 2 + 2 * i as u32;
        i += 1;
    }
    steps
};

fn provable(z: u32, buses: usize, medium: &MediumConfig) -> bool {
    let Ok(set) = scenario::videoconference(z) else {
        return false;
    };
    let c = network::recommended_class_width(&set, 64, medium);
    let Ok(config) = DdcrConfig::for_sources(z, c) else {
        return false;
    };
    let Ok(allocation) = StaticAllocation::round_robin(config.static_tree, z) else {
        return false;
    };
    let assignment = multibus::balance_by_load(&set, buses);
    match multibus::evaluate(&set, &assignment, &config, &allocation, medium) {
        Ok(reports) => reports.iter().all(|r| r.feasible()),
        Err(_) => false,
    }
}

fn main() {
    let medium = MediumConfig::gigabit_ethernet();
    let config = SweepConfig::resolve(sweep::jobs_flag_from_args(), 42);
    let mut csv = Csv::create(
        &results_dir().join("exp_multibus.csv"),
        &[
            "buses",
            "max_provable_participants",
            "validated_misses",
            "validated_delivered",
        ],
    )
    .expect("create csv");

    println!("E14 — provable videoconference capacity vs parallel busses");
    println!(
        "{:>6} {:>26} {:>12} {:>11}",
        "buses", "max provable participants", "sim misses", "delivered"
    );

    // Phase 1: the whole (busses × z) provability grid in parallel. Each
    // cell is a pure function of its coordinates, so the grid is trivially
    // worker-count invariant.
    let grid = sweep::run_indexed(config, BUS_COUNTS * Z_STEPS.len(), |ctx| {
        let buses = ctx.index / Z_STEPS.len() + 1;
        let z = Z_STEPS[ctx.index % Z_STEPS.len()];
        provable(z, buses, &medium)
    });

    let mut frontier = Vec::new();
    for buses in 1..=BUS_COUNTS {
        // Walk z upward until the FCs reject (same contiguous-prefix rule
        // as the original serial walk).
        let mut best = 0u32;
        for (step, z) in Z_STEPS.iter().enumerate() {
            let index = (buses - 1) * Z_STEPS.len() + step;
            if grid.outcomes[index].value {
                best = *z;
            } else if best > 0 {
                break;
            }
        }
        assert!(best > 0, "no provable size on {buses} busses");

        // Phase 2: validate the frontier point in simulation, channels
        // fanned over the sweep workers.
        let set = scenario::videoconference(best).expect("scenario");
        let c = network::recommended_class_width(&set, 64, &medium);
        let ddcr_config = DdcrConfig::for_sources(best, c).expect("config");
        let allocation =
            StaticAllocation::round_robin(ddcr_config.static_tree, best).expect("allocation");
        let assignment = multibus::balance_by_load(&set, buses);
        let schedule = ScheduleBuilder::peak_load(&set)
            .build(Ticks(8_000_000))
            .expect("schedule");
        let n = schedule.len();
        let mut options = multibus::RunOptions::new(Ticks(400_000_000_000));
        options.workers = config.workers;
        let report = multibus::run_channels(
            &set,
            schedule,
            &assignment,
            &ddcr_config,
            &allocation,
            medium,
            &options,
        )
        .expect("run");
        assert!(
            report.completed(),
            "frontier point timed out on {buses} busses"
        );
        let delivered = report.delivered();
        let misses = report.deadline_misses();
        assert_eq!(delivered, n);
        assert_eq!(misses, 0, "frontier point missed on {buses} busses");

        println!("{buses:>6} {best:>26} {misses:>12} {delivered:>11}");
        csv.row(&[
            buses.to_string(),
            best.to_string(),
            misses.to_string(),
            delivered.to_string(),
        ])
        .expect("row");
        frontier.push((buses, best));
    }
    csv.finish().expect("flush");

    println!();
    for pair in frontier.windows(2) {
        assert!(
            pair[1].1 >= pair[0].1,
            "capacity must not shrink with more busses"
        );
    }
    let (_, single) = frontier[0];
    let (_, quad) = frontier[3];
    println!(
        "capacity scaling: 1 bus -> {single} participants, 4 busses -> {quad} \
         ({}x)",
        quad as f64 / single as f64
    );
    assert!(quad > single, "parallel media must add provable capacity");
    println!("{}", grid.perf_line());
    println!("§3.1 parallel-media claim (capacity composes across busses): REPRODUCED");
    println!("wrote results/exp_multibus.csv");
}
