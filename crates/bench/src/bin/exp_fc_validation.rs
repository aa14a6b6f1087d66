//! **Experiment E7 — §4.3 feasibility conditions, validated end to end.**
//!
//! The paper's correctness claim is: if
//! `B_DDCR(s_i, M) ≤ d(M)` for every class `M`, then no message ever
//! misses its deadline under CSMA/DDCR — against *any* arrival pattern
//! within the declared density bounds. This experiment:
//!
//! 1. sweeps HRTDM instances (sources × load × deadline);
//! 2. evaluates the feasibility conditions analytically;
//! 3. runs the **adversarial peak-load workload** (the worst pattern the
//!    bounds allow) through the full protocol simulation;
//! 4. checks that measured worst-case latency never exceeds `B_DDCR` and
//!    that FC-positive instances have **zero** deadline misses.
//!
//! Writes `results/exp_fc_validation.csv`.

use ddcr_bench::harness::{default_ddcr_config, run_protocol, ProtocolKind};
use ddcr_bench::report::Csv;
use ddcr_bench::results_dir;
use ddcr_core::{feasibility, StaticAllocation};
use ddcr_sim::{MediumConfig, Ticks};
use ddcr_traffic::{scenario, ScheduleBuilder};

fn main() {
    let medium = MediumConfig::ethernet();
    let mut csv = Csv::create(
        &results_dir().join("exp_fc_validation.csv"),
        &[
            "z",
            "load",
            "deadline_ms",
            "bound_ticks",
            "deadline_ticks",
            "fc_feasible",
            "measured_max_latency",
            "bound_ratio",
            "misses",
            "fc_sound",
        ],
    )
    .expect("create csv");

    println!("E7 — feasibility conditions vs adversarial peak-load simulation");
    println!(
        "{:>2} {:>5} {:>6} {:>12} {:>12} {:>9} {:>12} {:>7} {:>7} {:>6}",
        "z",
        "load",
        "d(ms)",
        "B_DDCR",
        "d(ticks)",
        "feasible",
        "max_lat",
        "ratio",
        "misses",
        "sound"
    );

    let mut all_sound = true;
    let mut any_feasible = false;
    let mut any_infeasible = false;

    for z in [2u32, 4, 8] {
        for load in [0.05f64, 0.15, 0.3, 0.5] {
            for deadline_ms in [1u64, 5, 20] {
                let deadline = Ticks(deadline_ms * 1_000_000);
                let set = scenario::uniform(z, 8_000, deadline, load).expect("scenario");
                let config = default_ddcr_config(&set, &medium);
                let allocation =
                    StaticAllocation::round_robin(config.static_tree, z).expect("allocation");
                let report = feasibility::evaluate(&set, &config, &allocation, &medium)
                    .expect("feasibility");
                let tightest = report.tightest().expect("non-empty").clone();
                let feasible = report.feasible();
                any_feasible |= feasible;
                any_infeasible |= !feasible;

                // Adversarial run: peak-load bursts over several windows.
                let horizon = Ticks(set.classes()[0].density.w.as_u64() * 4);
                let schedule = ScheduleBuilder::peak_load(&set)
                    .build(horizon)
                    .expect("schedule");
                let summary = run_protocol(
                    &ProtocolKind::Ddcr(config),
                    &set,
                    &schedule,
                    medium,
                    Ticks(60_000_000_000),
                )
                .expect("run");
                assert!(summary.completed, "peak-load run must drain");

                let ratio = summary.max_latency as f64 / tightest.bound;
                // Soundness: if FC says feasible, the simulation must show
                // zero misses AND stay under the bound.
                let sound = !feasible
                    || (summary.misses == 0 && (summary.max_latency as f64) <= tightest.bound);
                all_sound &= sound;
                println!(
                    "{:>2} {:>5.2} {:>6} {:>12.0} {:>12} {:>9} {:>12} {:>7.3} {:>7} {:>6}",
                    z,
                    load,
                    deadline_ms,
                    tightest.bound,
                    deadline.as_u64(),
                    feasible,
                    summary.max_latency,
                    ratio,
                    summary.misses,
                    sound
                );
                csv.row(&[
                    z.to_string(),
                    load.to_string(),
                    deadline_ms.to_string(),
                    format!("{:.0}", tightest.bound),
                    deadline.as_u64().to_string(),
                    feasible.to_string(),
                    summary.max_latency.to_string(),
                    format!("{ratio:.4}"),
                    summary.misses.to_string(),
                    sound.to_string(),
                ])
                .expect("row");
            }
        }
    }
    csv.finish().expect("flush");

    println!();
    println!("sweep covered both verdicts: feasible={any_feasible}, infeasible={any_infeasible}");
    println!(
        "FC soundness (feasible => zero misses and latency <= B_DDCR): {}",
        if all_sound { "REPRODUCED" } else { "VIOLATED" }
    );
    assert!(
        all_sound,
        "a feasible instance missed a deadline or broke its bound"
    );
    assert!(
        any_feasible && any_infeasible,
        "sweep should straddle the feasibility frontier"
    );
    println!("wrote results/exp_fc_validation.csv");
}
