//! **Experiment E1 — Fig. 1 of the paper**: worst-case search times for a
//! 64-leaf balanced quaternary tree.
//!
//! Regenerates the two curves of the figure — the exact `ξ_k^64` (m = 4)
//! and its concave asymptotic upper bound `ξ̃_k^64` — for `k ∈ [0, 64]`,
//! prints the series, renders an ASCII rendition of the figure and writes
//! `results/fig1.csv`.

use ddcr_bench::report::{ascii_chart, Csv, Series};
use ddcr_bench::results_dir;
use ddcr_tree::{asymptotic, closed_form, exact, TreeShape};

fn main() {
    let shape = TreeShape::new(4, 3).expect("64-leaf quaternary tree");
    let table = exact::SearchTimeTable::compute(shape).expect("table for 64 leaves");

    let mut exact_pts = Vec::new();
    let mut tilde_pts = Vec::new();
    let mut csv = Csv::create(
        &results_dir().join("fig1.csv"),
        &["k", "xi_exact", "xi_tilde"],
    )
    .expect("create fig1.csv");

    println!("Fig. 1 — worst-case search times, 64-leaf balanced quaternary tree (m = 4)");
    println!("{:>4} {:>10} {:>12}", "k", "xi_k^64", "xi~_k^64");
    for k in 0..=64u64 {
        let xi = table.xi(k).expect("k in range");
        let tilde = if k >= 2 {
            asymptotic::xi_tilde(shape, k as f64)
        } else {
            f64::NAN
        };
        exact_pts.push((k as f64, xi as f64));
        if k >= 2 {
            tilde_pts.push((k as f64, tilde));
        }
        let tilde_cell = if tilde.is_nan() {
            "-".to_owned()
        } else {
            format!("{tilde:.2}")
        };
        println!("{k:>4} {xi:>10} {tilde_cell:>12}");
        csv.row(&[k.to_string(), xi.to_string(), tilde_cell])
            .expect("write row");
    }
    csv.finish().expect("flush fig1.csv");

    println!();
    println!(
        "{}",
        ascii_chart(
            "xi (x) vs asymptotic bound (~), k = 0..64",
            &[
                Series::new("x exact", exact_pts.clone()),
                Series::new("~ bound", tilde_pts.clone()),
            ],
            64,
            20,
        )
    );

    // The figure's qualitative content, checked numerically:
    let peak_k = closed_form::peak_k(shape);
    println!(
        "peak of exact curve at k = 2t/m = {peak_k}: xi = {}",
        closed_form::xi_peak(shape)
    );
    println!(
        "xi_2 = {} (Eq. 5), xi_64 = {} (Eq. 7)",
        closed_form::xi_two(shape),
        closed_form::xi_full(shape)
    );
    let max_gap = asymptotic::max_gap(shape).expect("gap measurement");
    println!(
        "max (xi~ - xi) over even k in [2, 2t/m] = {:.2} slots = {:.2}% of t \
         (paper's Eq. 13/14 envelope bound: c(4)·t = {:.2}% of t, universal 9.54%)",
        max_gap.max_gap_even,
        100.0 * max_gap.max_gap_even / shape.leaves() as f64,
        100.0 * asymptotic::tightness_coefficient(4)
    );
    println!(
        "max over all k (odd staircase included): {:.2} slots = {:.2}% of t",
        max_gap.max_gap,
        100.0 * max_gap.relative_to_t
    );
    println!("wrote results/fig1.csv");
}
