//! **Experiment E6 — §4.1 closing claim**: "optimal m is derived from the
//! general expression of ξ_k^t".
//!
//! For several deployment sizes (minimum leaf counts), scores every
//! candidate branching degree by its worst-case and aggregate search
//! times and reports the winner. Reproduces and generalises the Fig. 2
//! binary-vs-quaternary comparison.
//!
//! The deployment sizes run as a deterministic parallel sweep (`--jobs N`,
//! default all cores). Candidate shapes repeat across sizes (e.g. `m = 8`
//! rounds up to `t = 64` for both 16 and 64 minimum leaves), so the
//! shared [`ddcr_tree::cache`] computes each ξ table once per process —
//! the cache-hit counter in the stats CSV must be non-zero. Writes
//! `results/exp_optimal_m.csv` plus `results/exp_optimal_m_sweep_stats.csv`.

use ddcr_bench::report::{write_indexed_stats, Csv};
use ddcr_bench::results_dir;
use ddcr_bench::sweep::{jobs_flag_from_args, run_indexed, SweepConfig};
use ddcr_tree::optimal;

fn main() {
    let candidates = [2u64, 3, 4, 5, 8, 16];
    let mut csv = Csv::create(
        &results_dir().join("exp_optimal_m.csv"),
        &[
            "min_leaves",
            "m",
            "t",
            "max_xi",
            "sum_xi",
            "xi_two",
            "winner",
        ],
    )
    .expect("create csv");

    println!("E6 — optimal branching degree per deployment size");
    let sizes = [16u64, 64, 256, 1024];
    let labels: Vec<String> = sizes.iter().map(|s| format!("min_leaves={s}")).collect();
    let report = run_indexed(
        SweepConfig::resolve(jobs_flag_from_args(), 6),
        sizes.len(),
        |ctx| {
            let min_leaves = sizes[ctx.index];
            optimal::compare_branching_degrees(min_leaves, &candidates, min_leaves).expect("scores")
        },
    );

    for (outcome, &min_leaves) in report.outcomes.iter().zip(&sizes) {
        let scores = &outcome.value;
        let best = optimal::best_by_worst_case(scores).expect("non-empty");
        println!("\n>= {min_leaves} leaves (k up to {min_leaves}):");
        println!(
            "{:>3} {:>7} {:>9} {:>10} {:>8} {:>7}",
            "m", "t", "max_xi", "sum_xi", "xi_2", "winner"
        );
        for s in scores {
            let winner = s.shape == best.shape;
            println!(
                "{:>3} {:>7} {:>9} {:>10} {:>8} {:>7}",
                s.shape.branching(),
                s.shape.leaves(),
                s.max_xi,
                s.sum_xi,
                s.xi_two,
                if winner { "<-- " } else { "" }
            );
            csv.row(&[
                min_leaves.to_string(),
                s.shape.branching().to_string(),
                s.shape.leaves().to_string(),
                s.max_xi.to_string(),
                s.sum_xi.to_string(),
                s.xi_two.to_string(),
                winner.to_string(),
            ])
            .expect("row");
        }
    }
    csv.finish().expect("flush");
    write_indexed_stats(
        &results_dir().join("exp_optimal_m_sweep_stats.csv"),
        &labels,
        &report,
    )
    .expect("sweep stats");
    println!("\n{}", report.perf_line());

    // Shapes recur across deployment sizes, so the process-wide table
    // cache must have been hit at least once.
    assert!(
        report.cache_totals().hits > 0,
        "expected repeated shapes to hit the shared table cache"
    );

    // Fig. 2's specific instance: 64 leaves, quaternary beats binary.
    let scores = optimal::compare_branching_degrees(64, &[2, 4], 64).expect("scores");
    assert!(
        scores[1].max_xi <= scores[0].max_xi && scores[1].sum_xi <= scores[0].sum_xi,
        "Fig. 2 winner should be quaternary"
    );
    println!("Fig. 2 instance (64 leaves): quaternary dominates binary — REPRODUCED");
    println!("wrote results/exp_optimal_m.csv");
}
