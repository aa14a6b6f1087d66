//! **Experiment E5 — Eq. (16)–(19), problem P2**: the multi-tree bound.
//!
//! Sweeps `(u, v)` instances, computes the exact optimum of Eq. (16) by
//! dynamic programming and the paper's asymptotic solution
//! `v·ξ̃_{u/v}^t = ξ̃_u^{tv} − (v−1)/(m−1)` (Eq. 18), and verifies Eq. (19)
//! (the bound dominates) plus the Eq. (18) identity between the two closed
//! forms. Writes `results/exp_multitree.csv`.

use ddcr_bench::report::{ascii_chart, Csv, Series};
use ddcr_bench::results_dir;
use ddcr_tree::{multi::MultiTreeProblem, TreeShape};

fn main() {
    let shape = TreeShape::new(4, 3).expect("64-leaf quaternary tree (q = 64)");
    let mut csv = Csv::create(
        &results_dir().join("exp_multitree.csv"),
        &[
            "t",
            "m",
            "u",
            "v",
            "exact",
            "bound",
            "overestimate_pct",
            "witness",
        ],
    )
    .expect("create csv");

    println!("E5 — P2: worst-case search over v consecutive 64-leaf quaternary trees");
    println!(
        "{:>5} {:>3} {:>8} {:>10} {:>8} {:>16}",
        "u", "v", "exact", "bound", "over%", "worst split"
    );
    let mut exact_pts = Vec::new();
    let mut bound_pts = Vec::new();
    let mut all_dominated = true;
    let mut identity_ok = true;

    for v in [1u64, 2, 4, 8] {
        for u_mult in [2u64, 4, 8, 16, 32] {
            let u = v * u_mult;
            if u > shape.leaves() * v {
                continue;
            }
            let p = MultiTreeProblem::new(shape, u, v).expect("feasible instance");
            // Cached lookups: the second `exact_optimum_cached` (for the
            // witness) hits the memo instead of re-running the DP.
            let optimum = p.exact_optimum_cached().expect("dp");
            let exact = optimum.total;
            let bound = p.bound();
            let over = 100.0 * (bound - exact as f64) / exact as f64;
            all_dominated &= bound + 1e-9 >= exact as f64;
            identity_ok &= (bound - p.bound_big_tree_form()).abs() <= 1e-9 * bound.abs().max(1.0);
            let witness = p.exact_optimum_cached().expect("dp").parts.clone();
            println!(
                "{:>5} {:>3} {:>8} {:>10.2} {:>8.2} {:>16}",
                u,
                v,
                exact,
                bound,
                over,
                format!("{witness:?}")
            );
            csv.row(&[
                shape.leaves().to_string(),
                shape.branching().to_string(),
                u.to_string(),
                v.to_string(),
                exact.to_string(),
                format!("{bound:.4}"),
                format!("{over:.4}"),
                format!("{witness:?}").replace(',', ";"),
            ])
            .expect("row");
            if v == 4 {
                exact_pts.push((u as f64, exact as f64));
                bound_pts.push((u as f64, bound));
            }
        }
    }
    csv.finish().expect("flush");

    println!();
    println!(
        "{}",
        ascii_chart(
            "v = 4 trees: exact optimum (e) vs P2 bound (b) over u",
            &[
                Series::new("e exact", exact_pts),
                Series::new("b bound", bound_pts),
            ],
            60,
            14,
        )
    );
    println!(
        "Eq. 19 (bound dominates exact optimum): {}",
        if all_dominated {
            "REPRODUCED"
        } else {
            "FAILED"
        }
    );
    println!(
        "Eq. 18 identity v·xi~_{{u/v}}^t = xi~_u^{{tv}} − (v−1)/(m−1): {}",
        if identity_ok { "REPRODUCED" } else { "FAILED" }
    );
    assert!(all_dominated && identity_ok);
    println!("wrote results/exp_multitree.csv");
}
