//! Videoconferencing over a shared gigabit broadcast LAN — the
//! "distributed interactive multimedia" application of §2.1.
//!
//! Each participant station carries a video stream (bursty 1500-byte
//! fragments, 2 ms deadline), a low-latency audio stream (125 µs cadence,
//! 500 µs deadline) and floor-control messages. The example dimensions
//! CSMA/DDCR for a growing number of participants, finds where the
//! feasibility conditions stop holding, and cross-checks a feasible and an
//! infeasible point in simulation.
//!
//! ```text
//! cargo run -p ddcr-examples --example videoconference
//! ```

use ddcr_core::{feasibility, network, DdcrConfig, StaticAllocation};
use ddcr_examples::{print_feasibility, print_run};
use ddcr_sim::{MediumConfig, Ticks};
use ddcr_traffic::{scenario, ScheduleBuilder};

fn setup(
    z: u32,
) -> Result<
    (
        ddcr_traffic::MessageSet,
        DdcrConfig,
        StaticAllocation,
        MediumConfig,
    ),
    Box<dyn std::error::Error>,
> {
    let set = scenario::videoconference(z)?;
    let medium = MediumConfig::gigabit_ethernet();
    let c = network::recommended_class_width(&set, 64, &medium);
    let config = DdcrConfig::for_sources(z, c)?;
    let allocation = StaticAllocation::round_robin(config.static_tree, z)?;
    Ok((set, config, allocation, medium))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("How many participants can one gigabit broadcast segment carry?");
    println!(
        "{:>13} {:>8} {:>22} {:>9}",
        "participants", "load", "tightest class slack", "feasible"
    );
    let mut last_feasible = None;
    let mut first_infeasible = None;
    for z in [2u32, 4, 8, 12, 16, 20, 24] {
        let (set, config, allocation, medium) = setup(z)?;
        let report = feasibility::evaluate(&set, &config, &allocation, &medium)?;
        let tightest = report.tightest().expect("classes");
        println!(
            "{:>13} {:>8.3} {:>22.3e} {:>9}",
            z,
            set.offered_load(),
            tightest.slack(),
            report.feasible()
        );
        if report.feasible() {
            last_feasible = Some(z);
        } else if first_infeasible.is_none() {
            first_infeasible = Some(z);
        }
    }

    let ok_z = last_feasible.expect("some size must be feasible");
    println!("\n--- dimensioning accepted: {ok_z} participants ---");
    let (set, config, allocation, medium) = setup(ok_z)?;
    let report = feasibility::evaluate(&set, &config, &allocation, &medium)?;
    print_feasibility(&report);

    // Validate the accepted dimensioning against adversarial peak load.
    let schedule = ScheduleBuilder::peak_load(&set).build(Ticks(20_000_000))?;
    let n = schedule.len();
    let stats = network::run(
        &set,
        schedule,
        &config,
        &allocation,
        medium,
        network::RunLimit::Completion(Ticks(10_000_000_000)),
    )?;
    println!("\npeak-load validation ({n} messages):");
    print_run(&format!("videoconference z={ok_z}"), &stats);
    assert_eq!(
        stats.deadline_misses(),
        0,
        "accepted dimensioning must hold"
    );

    if let Some(bad_z) = first_infeasible {
        println!("\n--- {bad_z} participants rejected by the FCs (worst case may miss) ---");
        let (set, config, allocation, medium) = setup(bad_z)?;
        let report = feasibility::evaluate(&set, &config, &allocation, &medium)?;
        let tightest = report.tightest().expect("classes");
        println!(
            "binding constraint: class {} at {} — bound {:.0} ticks vs deadline {} ticks",
            tightest.class,
            tightest.source,
            tightest.bound,
            tightest.deadline.as_u64()
        );
        println!(
            "note: the FCs are sufficient, not necessary — a rejected size may still run \
             miss-free on many traces, but no guarantee can be given."
        );
    }
    Ok(())
}
