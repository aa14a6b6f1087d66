//! On-line transactions (stock market) — the bursty application of §2.1:
//! order bursts of 10 messages per millisecond per gateway.
//!
//! This example contrasts CSMA/DDCR with the stochastic 802.3 MAC on the
//! *same* workload: the deterministic protocol keeps the 500 µs order
//! deadline through the bursts; binary exponential backoff produces a
//! heavy latency tail and misses. It also shows a friendlier
//! density-respecting random workload, where both protocols look fine on
//! average — exactly the trap the paper warns about: average-case
//! measurements say nothing about the worst case.
//!
//! ```text
//! cargo run -p ddcr-examples --example stock_exchange
//! ```

use ddcr_baseline::{CsmaCdStation, QueueDiscipline};
use ddcr_core::{network, DdcrConfig, StaticAllocation};
use ddcr_examples::print_run;
use ddcr_sim::{Engine, MediumConfig, SourceId, Ticks};
use ddcr_traffic::{scenario, validate, ScheduleBuilder};

fn run_csma_cd(
    set: &ddcr_traffic::MessageSet,
    schedule: &[ddcr_sim::Message],
    medium: MediumConfig,
) -> Result<ddcr_sim::ChannelStats, Box<dyn std::error::Error>> {
    let mut engine = Engine::new(medium)?;
    for i in 0..set.sources() {
        engine.add_station(Box::new(CsmaCdStation::new(
            SourceId(i),
            medium,
            QueueDiscipline::Edf,
            2024,
        )));
    }
    engine.add_arrivals(schedule.to_vec())?;
    // BEB may drop frames; completion is still reached once queues drain.
    engine.run_to_completion(Ticks(100_000_000_000))?;
    Ok(engine.into_stats())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let z = 6u32;
    let set = scenario::stock_exchange(z)?;
    let medium = MediumConfig::gigabit_ethernet();
    let c = network::recommended_class_width(&set, 64, &medium);
    let config = DdcrConfig::for_sources(z, c)?;
    let allocation = StaticAllocation::round_robin(config.static_tree, z)?;
    println!(
        "stock exchange: {z} gateways, load {:.3}, order bursts a=10 per ms, d = 500 us",
        set.offered_load()
    );

    // Scenario A: the adversary — synchronized opening-bell bursts.
    let burst_schedule = ScheduleBuilder::peak_load(&set).build(Ticks(8_000_000))?;
    validate::check_schedule(&set, &burst_schedule)?;
    println!(
        "\nA) opening bell: {} messages in phase-aligned bursts",
        burst_schedule.len()
    );
    let ddcr = network::run(
        &set,
        burst_schedule.clone(),
        &config,
        &allocation,
        medium,
        network::RunLimit::Completion(Ticks(100_000_000_000)),
    )?;
    print_run("ddcr", &ddcr);
    let beb = run_csma_cd(&set, &burst_schedule, medium)?;
    print_run("csma-cd/bep (edf queue)", &beb);
    println!(
        "misses: ddcr {} vs csma-cd {} — determinism pays exactly when it matters",
        ddcr.deadline_misses(),
        beb.deadline_misses() + (burst_schedule.len() - beb.deliveries.len())
    );
    assert_eq!(ddcr.deadline_misses(), 0);

    // Scenario B: a quiet afternoon — random traffic at 40 % of the bounds.
    let calm_schedule = ScheduleBuilder::bounded_random(&set, 0.4, 7)?.build(Ticks(8_000_000))?;
    validate::check_schedule(&set, &calm_schedule)?;
    println!(
        "\nB) quiet tape: {} density-respecting random messages",
        calm_schedule.len()
    );
    let ddcr_calm = network::run(
        &set,
        calm_schedule.clone(),
        &config,
        &allocation,
        medium,
        network::RunLimit::Completion(Ticks(100_000_000_000)),
    )?;
    print_run("ddcr", &ddcr_calm);
    let beb_calm = run_csma_cd(&set, &calm_schedule, medium)?;
    print_run("csma-cd/bep (edf queue)", &beb_calm);
    println!(
        "both near-perfect on calm traffic — which is why average-case benchmarks \
         cannot certify a hard real-time network (the paper's §2.2 point)."
    );
    Ok(())
}
