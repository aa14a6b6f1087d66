//! **Experiment E15 — bounded exhaustive verification** (the "correctness
//! proofs" of the paper's title, made executable).
//!
//! Enumerates *every* scenario in two finite universes and checks the
//! protocol's claimed properties on each: liveness (drains), exactly-once
//! delivery, causality, replica consistency at every slot, and strict
//! NP-EDF delivery order whenever the scenario qualifies. A clean run is
//! an exhaustive proof over the scope (no sampling). Writes
//! `results/exp_model_check.csv`.

use ddcr_bench::report::Csv;
use ddcr_bench::results_dir;
use ddcr_check::{check_scope, Scope};
use std::time::Instant;

fn main() {
    let mut csv = Csv::create(
        &results_dir().join("exp_model_check.csv"),
        &[
            "scope",
            "stations",
            "messages",
            "scenarios",
            "edf_checked",
            "violations",
            "seconds",
        ],
    )
    .expect("create csv");

    println!("E15 — bounded exhaustive model check of CSMA/DDCR");
    println!(
        "{:<8} {:>8} {:>9} {:>10} {:>12} {:>11} {:>8}",
        "scope", "stations", "messages", "scenarios", "edf checked", "violations", "seconds"
    );
    for (name, scope) in [("small", Scope::small()), ("medium", Scope::medium())] {
        let start = Instant::now();
        let report = check_scope(&scope, 5_000);
        let secs = start.elapsed().as_secs_f64();
        println!(
            "{:<8} {:>8} {:>9} {:>10} {:>12} {:>11} {:>8.2}",
            name,
            scope.stations,
            scope.messages,
            report.scenarios,
            report.edf_checked,
            report.findings.len(),
            secs
        );
        csv.row(&[
            name.to_owned(),
            scope.stations.to_string(),
            scope.messages.to_string(),
            report.scenarios.to_string(),
            report.edf_checked.to_string(),
            report.findings.len().to_string(),
            format!("{secs:.3}"),
        ])
        .expect("row");
        for f in report.findings.iter().take(5) {
            println!(
                "  VIOLATION scenario {}: {:?}",
                f.scenario_index, f.violation
            );
        }
        assert!(report.clean(), "{name} scope found violations");
    }
    csv.finish().expect("flush");
    println!();
    println!("every enumerated scenario satisfies all five properties: VERIFIED");
    println!("wrote results/exp_model_check.csv");
}
