//! **Experiment E9 — §3.2 compressed-time mode**: the `θ(c)` tradeoff.
//!
//! The paper: *"θ(c) determines a tradeoff between reducing potential
//! channel idleness and potentially increasing the number of deadline
//! inversions."* We reproduce both sides with one workload:
//!
//! * four sources each hold a **far-deadline** message (40 ms, far beyond
//!   the 6.4 ms scheduling horizon `c·F`), which sits time tree searches
//!   out until `reft` advances;
//! * source 0 additionally emits a periodic **urgent** stream (200 µs
//!   deadline).
//!
//! With `θ = 0` the far messages thrash in attempt-slot collisions until
//! physical time catches up (long completion, heavy overhead); raising `θ`
//! compresses time so they enter the tree early (fast completion) at the
//! price of deadline inversions against the urgent stream.
//!
//! The five θ points run as a deterministic parallel sweep (`--jobs N`,
//! default all cores; DDCR is deterministic, so results are independent of the
//! worker count). Writes `results/exp_theta.csv` plus
//! `results/exp_theta_sweep_stats.csv`.

use ddcr_bench::report::{write_indexed_stats, Csv};
use ddcr_bench::results_dir;
use ddcr_bench::sweep::{jobs_flag_from_args, run_indexed, SweepConfig};
use ddcr_core::{inversions, network, DdcrConfig, StaticAllocation};
use ddcr_sim::{ClassId, Delivery, MediumConfig, Message, MessageId, SourceId, Ticks};

fn schedule() -> Vec<Message> {
    let mut messages = Vec::new();
    // Far-deadline messages, one per source, same class width apart.
    for s in 0..4u32 {
        messages.push(Message {
            id: MessageId(u64::from(s)),
            source: SourceId(s),
            class: ClassId(0),
            bits: 12_000,
            arrival: Ticks(0),
            deadline: Ticks(40_000_000), // 40 ms >> horizon 6.4 ms
        });
    }
    // Urgent stream from source 0: every 1 ms, 200 µs deadline.
    for k in 0..20u64 {
        messages.push(Message {
            id: MessageId(100 + k),
            source: SourceId(0),
            class: ClassId(1),
            bits: 2_000,
            arrival: Ticks(k * 1_000_000),
            deadline: Ticks(200_000),
        });
    }
    messages
}

struct ThetaPoint {
    theta: u64,
    far_done: Ticks,
    urgent_max: Ticks,
    urgent_misses: usize,
    inversions: u64,
    silence_slots: u64,
    collisions: u64,
}

fn run_theta(theta: u64, medium: MediumConfig) -> ThetaPoint {
    let config = DdcrConfig::for_sources(4, Ticks(100_000))
        .expect("config") // c = 100 µs, horizon = 6.4 ms
        .with_compressed_time(theta);
    let allocation = StaticAllocation::one_per_source(config.static_tree, 4).expect("allocation");
    let set =
        ddcr_traffic::scenario::uniform(4, 12_000, Ticks(40_000_000), 0.01).expect("shell set"); // engine assembly only; arrivals are explicit
    let mut engine = network::build_engine(&set, &config, &allocation, medium).expect("engine");
    engine.add_arrivals(schedule()).expect("arrivals");
    engine
        .run_to_completion(Ticks(10_000_000_000))
        .expect("completion");
    let stats = engine.into_stats();

    let far_done = stats
        .deliveries
        .iter()
        .filter(|d| d.message.class == ClassId(0))
        .map(|d| d.completed_at)
        .max()
        .expect("far messages delivered");
    let urgent: Vec<&Delivery> = stats
        .deliveries
        .iter()
        .filter(|d| d.message.class == ClassId(1))
        .collect();
    let urgent_max = urgent.iter().map(|d| d.latency()).max().expect("urgent");
    let urgent_misses = urgent.iter().filter(|d| !d.deadline_met()).count();
    let inversions = inversions::count(&stats.deliveries).pairs;
    ThetaPoint {
        theta,
        far_done,
        urgent_max,
        urgent_misses,
        inversions,
        silence_slots: stats.silence_slots,
        collisions: stats.collisions,
    }
}

fn main() {
    let medium = MediumConfig::ethernet();
    let mut csv = Csv::create(
        &results_dir().join("exp_theta.csv"),
        &[
            "theta",
            "far_completion_ms",
            "urgent_max_latency_us",
            "urgent_misses",
            "inversions",
            "silence_slots",
            "collisions",
        ],
    )
    .expect("create csv");

    println!("E9 — compressed-time tradeoff (theta multiplier sweep)");
    println!(
        "{:>6} {:>16} {:>18} {:>14} {:>11} {:>14} {:>11}",
        "theta",
        "far done (ms)",
        "urgent max (us)",
        "urgent miss",
        "inversions",
        "silence",
        "collisions"
    );

    let thetas = [0u64, 1, 4, 16, 64];
    let labels: Vec<String> = thetas.iter().map(|t| format!("theta={t}")).collect();
    let report = run_indexed(
        SweepConfig::resolve(jobs_flag_from_args(), 9),
        thetas.len(),
        |ctx| run_theta(thetas[ctx.index], medium),
    );

    let mut far_completions = Vec::new();
    let mut inversion_counts = Vec::new();
    for outcome in &report.outcomes {
        let p = &outcome.value;
        println!(
            "{:>6} {:>16.2} {:>18.1} {:>14} {:>11} {:>14} {:>11}",
            p.theta,
            p.far_done.as_u64() as f64 / 1e6,
            p.urgent_max.as_u64() as f64 / 1e3,
            p.urgent_misses,
            p.inversions,
            p.silence_slots,
            p.collisions
        );
        csv.row(&[
            p.theta.to_string(),
            format!("{:.3}", p.far_done.as_u64() as f64 / 1e6),
            format!("{:.1}", p.urgent_max.as_u64() as f64 / 1e3),
            p.urgent_misses.to_string(),
            p.inversions.to_string(),
            p.silence_slots.to_string(),
            p.collisions.to_string(),
        ])
        .expect("row");
        far_completions.push((p.theta, p.far_done));
        inversion_counts.push((p.theta, p.inversions));
    }
    csv.finish().expect("flush");
    write_indexed_stats(
        &results_dir().join("exp_theta_sweep_stats.csv"),
        &labels,
        &report,
    )
    .expect("sweep stats");
    println!("{}", report.perf_line());

    // The tradeoff's two monotone ends:
    let first = far_completions.first().expect("runs");
    let last = far_completions.last().expect("runs");
    println!();
    println!(
        "far-message completion: theta=0 -> {:.2} ms, theta=64 -> {:.2} ms",
        first.1.as_u64() as f64 / 1e6,
        last.1.as_u64() as f64 / 1e6
    );
    assert!(
        last.1 < first.1,
        "compressed time should accelerate far-deadline messages"
    );
    assert!(
        inversion_counts.last().expect("runs").1 >= inversion_counts.first().expect("runs").1,
        "larger theta should not reduce inversions"
    );
    println!("paper's theta tradeoff (idleness vs inversions): REPRODUCED");
    println!("wrote results/exp_theta.csv");
}
