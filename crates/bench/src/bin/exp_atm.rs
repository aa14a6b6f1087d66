//! **Experiment E10 — §3.2/§5 ATM variant**: CSMA/DDCR over a bus internal
//! to an ATM node — tiny slot time (a few bit times) and **non-destructive
//! collisions** (bit-level arbitration, exclusive-OR logic at the bus
//! level) — versus the Ethernet-like destructive medium.
//!
//! The paper claims the ATM analysis follows from the Ethernet one with
//! cheaper collisions; here both media run the *same* protocol code, so
//! the experiment isolates the medium: search overhead (slots × slot time)
//! collapses and every collision slot doubles as a useful transmission.
//! Writes `results/exp_atm.csv`.

use ddcr_bench::harness::{default_ddcr_config, run_protocol, ProtocolKind};
use ddcr_bench::report::Csv;
use ddcr_bench::results_dir;
use ddcr_sim::{MediumConfig, Ticks};
use ddcr_traffic::{scenario, ScheduleBuilder};

fn main() {
    // ATM cells: 48-byte payloads, 5-byte header (the medium's overhead).
    let z = 8u32;
    let deadline = Ticks(200_000); // 200 µs
    let set = scenario::uniform(z, 48 * 8, deadline, 0.5).expect("scenario");
    let horizon = Ticks(set.classes()[0].density.w.as_u64() * 16);
    let schedule = ScheduleBuilder::peak_load(&set)
        .build(horizon)
        .expect("schedule");

    let media = [
        ("ethernet-destructive", MediumConfig::ethernet()),
        ("atm-arbitrating", MediumConfig::atm_internal_bus()),
        (
            "atm-destructive",
            MediumConfig {
                collision_mode: ddcr_sim::CollisionMode::Destructive,
                ..MediumConfig::atm_internal_bus()
            },
        ),
    ];

    let mut csv = Csv::create(
        &results_dir().join("exp_atm.csv"),
        &[
            "medium",
            "slot_ticks",
            "misses",
            "mean_latency",
            "max_latency",
            "collisions",
            "utilization",
            "makespan",
        ],
    )
    .expect("create csv");

    println!("E10 — CSMA/DDCR on Ethernet vs ATM internal bus ({z} sources, 48-byte cells)");
    println!(
        "{:<22} {:>6} {:>7} {:>12} {:>12} {:>11} {:>7} {:>12}",
        "medium", "slot", "misses", "mean_lat", "max_lat", "collisions", "util", "makespan"
    );

    let mut results = Vec::new();
    for (name, medium) in media {
        let config = default_ddcr_config(&set, &medium);
        let summary = run_protocol(
            &ProtocolKind::Ddcr(config),
            &set,
            &schedule,
            medium,
            Ticks(60_000_000_000),
        )
        .expect("run");
        assert!(summary.completed, "{name} did not drain");
        println!(
            "{:<22} {:>6} {:>7} {:>12.0} {:>12} {:>11} {:>7.3} {:>12}",
            name,
            medium.slot_ticks,
            summary.misses,
            summary.mean_latency,
            summary.max_latency,
            summary.collisions,
            summary.utilization,
            summary.total_ticks
        );
        csv.row(&[
            name.to_owned(),
            medium.slot_ticks.to_string(),
            summary.misses.to_string(),
            format!("{:.1}", summary.mean_latency),
            summary.max_latency.to_string(),
            summary.collisions.to_string(),
            format!("{:.4}", summary.utilization),
            summary.total_ticks.to_string(),
        ])
        .expect("row");
        results.push((name, summary));
    }
    csv.finish().expect("flush");

    let ethernet = &results[0].1;
    let atm_arb = &results[1].1;
    let atm_destr = &results[2].1;
    println!();
    println!(
        "mean latency: ethernet {:.0} -> atm-destructive {:.0} -> atm-arbitrating {:.0} ticks",
        ethernet.mean_latency, atm_destr.mean_latency, atm_arb.mean_latency
    );
    // Expected shape: the small-slot ATM bus slashes search overhead; the
    // arbitrating mode is at least as good as destructive on the same bus.
    assert!(
        atm_destr.mean_latency < ethernet.mean_latency,
        "small slot time should cut mean latency"
    );
    assert!(
        atm_arb.mean_latency <= atm_destr.mean_latency + 1.0,
        "arbitration should not hurt"
    );
    println!("expected shape (slot time dominates search overhead; arbitration helps): REPRODUCED");
    println!("wrote results/exp_atm.csv");
}
