//! Perf-gate comparator: validates `BENCH_engine.json` against the schema
//! and thresholds in [`ddcr_bench::enginebench::check_report`].
//!
//! ```text
//! bench_check [report-path]
//! ```
//!
//! Exit status 0 when the gate passes, 1 with one line per violation when
//! it does not (missing file, malformed JSON, schema mismatch, idle
//! speedup below the 2x floor, loaded speedup below the 5x floor at load
//! 0.5 or 0.8 on >= 32 stations, a contention fast-forward section that
//! diverged or whose tier never engaged, a station-scale section that
//! diverged, failed to complete, scaled below the 5x floor at >= 2048
//! stations, or lacks its crash-faulted point, an assembly section whose
//! per-station build-plus-drop cost at 2048 stations exceeds 3x the cost
//! at 256, an admission section whose per-class request cost at 1024
//! admitted flows exceeds 3x the cost at 128, a fault-plan section that
//! is missing or malformed (it has no floor), divergent fast/reference
//! statistics, incomplete drains, a multichannel section that diverged
//! across worker counts, missed deadlines, lost its pinned capacity win,
//! or — on hosts with >= 4 cores — scaled below the 2x floor, and a
//! federation section that diverged across worker counts, broke the
//! N=1 ≡ single-bus identity, bridged no traffic, or scaled below its
//! own 2x floor on hosts with >= 4 cores).
//! `scripts/bench_check` wraps this binary for CI.

use ddcr_bench::enginebench::{check_report, REPORT_PATH};
use ddcr_bench::json::Json;

fn main() {
    let path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| REPORT_PATH.to_owned());
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("bench_check: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let doc = match Json::parse(&text) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("bench_check: {path} is not valid JSON: {e}");
            std::process::exit(1);
        }
    };
    let violations = check_report(&doc);
    if violations.is_empty() {
        let idle_speedup = doc
            .get("idle_fast_forward")
            .and_then(|i| i.get("speedup"))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        // Headline the gated loaded entries (>= 32 stations at load 0.5
        // and 0.8) and the isolated contention tier.
        let loaded_speedup_at = |lo: f64, hi: f64| {
            doc.get("loaded_fast_forward")
                .and_then(Json::as_array)
                .and_then(|entries| {
                    entries
                        .iter()
                        .find(|e| {
                            e.get("stations").and_then(Json::as_f64).unwrap_or(0.0) >= 32.0
                                && (lo..=hi).contains(
                                    &e.get("load").and_then(Json::as_f64).unwrap_or(0.0),
                                )
                        })
                        .and_then(|e| e.get("speedup"))
                        .and_then(Json::as_f64)
                })
                .unwrap_or(f64::NAN)
        };
        let loaded_speedup = loaded_speedup_at(0.45, 0.55);
        let high_load_speedup = loaded_speedup_at(0.75, 0.85);
        let contention_speedup = doc
            .get("contention_fast_forward")
            .and_then(|c| c.get("speedup"))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        // Headline the largest station-scale grid point.
        let (scale_stations, scale_speedup) = doc
            .get("station_scale")
            .and_then(Json::as_array)
            .and_then(|entries| entries.last())
            .map_or((f64::NAN, f64::NAN), |e| {
                (
                    e.get("stations").and_then(Json::as_f64).unwrap_or(f64::NAN),
                    e.get("speedup").and_then(Json::as_f64).unwrap_or(f64::NAN),
                )
            });
        // Per-station assembly cost, largest over smallest population.
        let assembly_growth = doc
            .get("assembly")
            .and_then(Json::as_array)
            .and_then(|entries| {
                let per_station =
                    |e: &Json| Some(e.get("wall_ns")?.as_f64()? / e.get("stations")?.as_f64()?);
                Some(per_station(entries.last()?)? / per_station(entries.first()?)?)
            })
            .unwrap_or(f64::NAN);
        // Per-class admission cost, largest over smallest admitted set.
        let admission_growth = doc
            .get("admission")
            .and_then(Json::as_array)
            .and_then(|entries| {
                let per_class =
                    |e: &Json| Some(e.get("median_ns")?.as_f64()? / e.get("flows")?.as_f64()?);
                Some(per_class(entries.last()?)? / per_class(entries.first()?)?)
            })
            .unwrap_or(f64::NAN);
        // Crash-plan cost per draw at the largest population, and the
        // scan instance that produced it (informational).
        let (plan_ns_per_draw, plan_kernel) = doc
            .get("fault_plan")
            .and_then(Json::as_array)
            .and_then(|entries| entries.last())
            .map_or((f64::NAN, "?"), |e| {
                (
                    e.get("ns_per_draw")
                        .and_then(Json::as_f64)
                        .unwrap_or(f64::NAN),
                    e.get("kernel").and_then(Json::as_str).unwrap_or("?"),
                )
            });
        let multichannel = doc.get("multichannel");
        let multichannel_speedup = multichannel
            .and_then(|m| m.get("speedup"))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        let host = multichannel
            .and_then(|m| m.get("host_parallelism"))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        let federation = doc.get("federation");
        let federation_speedup = federation
            .and_then(|m| m.get("speedup"))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        let handoffs = federation
            .and_then(|m| m.get("handoffs"))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN);
        println!(
            "bench_check: PASS ({path}; idle fast-forward {idle_speedup:.1}x, \
             loaded fast-forward {loaded_speedup:.1}x @0.5 / {high_load_speedup:.1}x @0.8, \
             contention tier {contention_speedup:.1}x, \
             active set {scale_speedup:.1}x at {scale_stations:.0} stations, \
             assembly growth {assembly_growth:.2}x per station, \
             admission growth {admission_growth:.2}x per class, \
             fault plan {plan_ns_per_draw:.2} ns/draw ({plan_kernel}), \
             multichannel {multichannel_speedup:.1}x on {host:.0} cores, \
             federation {federation_speedup:.1}x with {handoffs:.0} handoffs)"
        );
    } else {
        for violation in &violations {
            eprintln!("bench_check: FAIL: {violation}");
        }
        std::process::exit(1);
    }
}
