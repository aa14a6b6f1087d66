//! Shared pretty-printing helpers for the example binaries.

#![warn(missing_docs)]

use ddcr_core::feasibility::FeasibilityReport;
use ddcr_sim::ChannelStats;

/// Prints a feasibility report as a per-class table.
pub fn print_feasibility(report: &FeasibilityReport) {
    println!(
        "{:>6} {:>6} {:>6} {:>6} {:>4} {:>14} {:>14} {:>10} {:>9}",
        "class",
        "source",
        "r(M)",
        "u(M)",
        "v(M)",
        "B_DDCR (ticks)",
        "d(M) (ticks)",
        "slack",
        "feasible"
    );
    for c in &report.per_class {
        println!(
            "{:>6} {:>6} {:>6} {:>6} {:>4} {:>14.0} {:>14} {:>10.2e} {:>9}",
            c.class.to_string(),
            c.source.to_string(),
            c.r,
            c.u,
            c.v,
            c.bound,
            c.deadline.as_u64(),
            c.slack(),
            c.feasible
        );
    }
    println!(
        "=> instance {}",
        if report.feasible() {
            "FEASIBLE: every class meets B_DDCR <= d"
        } else {
            "INFEASIBLE: at least one class can miss its deadline in the worst case"
        }
    );
}

/// Prints a one-line summary of a simulation run.
pub fn print_run(label: &str, stats: &ChannelStats) {
    println!(
        "{label:<28} delivered={:<5} misses={:<3} max_latency={:<9} mean_latency={:<10.0} util={:.3} collisions={}",
        stats.deliveries.len(),
        stats.deadline_misses(),
        stats.max_latency().as_u64(),
        stats.mean_latency(),
        stats.utilization(),
        stats.collisions,
    );
}
