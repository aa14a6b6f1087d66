//! **Experiment E12 — achievability of the Eq. (1) worst case**: exhaustive
//! verification that `ξ_k^t` is *tight* — some placement of `k` active
//! leaves actually costs that many slots — on every small tree where full
//! enumeration of `binomial(t, k)` subsets is affordable.
//!
//! This closes the loop between the closed forms (E1–E3) and the live
//! search: the bound is not merely an upper bound, it is attained, and the
//! witness subsets are printed. Writes `results/exp_achievability.csv`.

use ddcr_bench::report::Csv;
use ddcr_bench::results_dir;
use ddcr_tree::{closed_form, search, TreeShape};

fn main() {
    let shapes = [(2u64, 2u32), (2, 3), (2, 4), (3, 2), (3, 3), (4, 2), (5, 2)];
    let mut csv = Csv::create(
        &results_dir().join("exp_achievability.csv"),
        &["m", "t", "k", "xi", "worst_measured", "achieved", "witness"],
    )
    .expect("create csv");

    println!("E12 — exhaustive tightness of xi_k^t on small trees");
    println!(
        "{:>3} {:>5} {:>4} {:>6} {:>9} {:>9}  witness",
        "m", "t", "k", "xi", "measured", "achieved"
    );
    let mut all_achieved = true;
    for &(m, n) in &shapes {
        let shape = TreeShape::new(m, n).expect("shape");
        let t = shape.leaves();
        for k in 0..=t {
            let xi = closed_form::xi_closed(shape, k).expect("xi");
            let (worst, witness) = search::worst_case_exhaustive(shape, k).expect("exhaustive");
            let achieved = worst == xi;
            all_achieved &= achieved;
            if k <= 6 || k == t || !achieved {
                println!("{m:>3} {t:>5} {k:>4} {xi:>6} {worst:>9} {achieved:>9}  {witness:?}");
            }
            csv.row(&[
                m.to_string(),
                t.to_string(),
                k.to_string(),
                xi.to_string(),
                worst.to_string(),
                achieved.to_string(),
                format!("{witness:?}").replace(',', ";"),
            ])
            .expect("row");
        }
    }
    csv.finish().expect("flush");
    println!();
    println!(
        "xi_k^t achieved by an explicit subset for every (m, t, k) tested: {}",
        if all_achieved { "REPRODUCED" } else { "FAILED" }
    );
    assert!(all_achieved);
    println!("wrote results/exp_achievability.csv");
}
