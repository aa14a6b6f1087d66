//! **Experiment E2 — Fig. 2 of the paper**: worst-case search times for
//! 64-leaf balanced **binary vs quaternary** trees.
//!
//! Regenerates both exact curves for `k ∈ [2, 64]` and verifies the
//! figure's claim: `ξ_k^64 (m = 4) ≤ ξ_k^64 (m = 2)` for every `k`, i.e.
//! the quaternary tree is uniformly at least as efficient. Writes
//! `results/fig2.csv`.

use ddcr_bench::report::{ascii_chart, Csv, Series};
use ddcr_bench::results_dir;
use ddcr_tree::{exact, TreeShape};

fn main() {
    let binary = TreeShape::new(2, 6).expect("64-leaf binary tree");
    let quaternary = TreeShape::new(4, 3).expect("64-leaf quaternary tree");
    let bin_table = exact::SearchTimeTable::compute(binary).expect("binary table");
    let quad_table = exact::SearchTimeTable::compute(quaternary).expect("quaternary table");

    let mut bin_pts = Vec::new();
    let mut quad_pts = Vec::new();
    let mut csv = Csv::create(
        &results_dir().join("fig2.csv"),
        &["k", "xi_binary", "xi_quaternary"],
    )
    .expect("create fig2.csv");

    println!("Fig. 2 — worst-case search times, 64-leaf balanced binary vs quaternary trees");
    println!("{:>4} {:>12} {:>14}", "k", "binary m=2", "quaternary m=4");
    let mut quaternary_always_leq = true;
    for k in 2..=64u64 {
        let b = bin_table.xi(k).expect("k in range");
        let q = quad_table.xi(k).expect("k in range");
        if q > b {
            quaternary_always_leq = false;
        }
        bin_pts.push((k as f64, b as f64));
        quad_pts.push((k as f64, q as f64));
        println!("{k:>4} {b:>12} {q:>14}");
        csv.row(&[k, b, q]).expect("write row");
    }
    csv.finish().expect("flush fig2.csv");

    println!();
    println!(
        "{}",
        ascii_chart(
            "binary (b) vs quaternary (q), k = 2..64",
            &[
                Series::new("b binary", bin_pts),
                Series::new("q quaternary", quad_pts),
            ],
            64,
            20,
        )
    );
    println!(
        "paper's claim `quaternary <= binary for all k in [2, 64]`: {}",
        if quaternary_always_leq {
            "HOLDS"
        } else {
            "VIOLATED"
        }
    );
    assert!(quaternary_always_leq, "Fig. 2 claim failed to reproduce");
    println!("wrote results/fig2.csv");
}
