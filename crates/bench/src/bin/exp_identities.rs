//! **Experiment E3 — Eq. (4)–(8) and Eq. (15)**: numerically regenerates
//! every named identity of §4.1 across a sweep of tree shapes and verifies
//! each against the exact DP of Eq. (1). Writes `results/exp_identities.csv`.

use ddcr_bench::report::Csv;
use ddcr_bench::results_dir;
use ddcr_tree::{closed_form, exact, floor_log, TreeShape};

fn main() {
    let shapes: Vec<TreeShape> = [
        (2u64, 4u32),
        (2, 6),
        (2, 8),
        (3, 3),
        (3, 4),
        (4, 2),
        (4, 3),
        (5, 2),
        (8, 2),
        (9, 2),
    ]
    .iter()
    .map(|&(m, n)| TreeShape::new(m, n).expect("valid shape"))
    .collect();

    let mut csv = Csv::create(
        &results_dir().join("exp_identities.csv"),
        &["m", "t", "identity", "lhs", "rhs", "holds"],
    )
    .expect("create csv");
    let mut all_hold = true;
    println!("E3 — identities Eq. (4)-(8), (15) vs exact DP (Eq. 1)");
    println!(
        "{:>3} {:>6} {:<28} {:>10} {:>10} {:>6}",
        "m", "t", "identity", "lhs", "rhs", "holds"
    );

    for &shape in &shapes {
        let m = shape.branching();
        let t = shape.leaves();
        let table = exact::SearchTimeTable::compute(shape).expect("table");
        let mut check = |name: &str, lhs: i64, rhs: i64| {
            let holds = lhs == rhs;
            all_hold &= holds;
            println!("{m:>3} {t:>6} {name:<28} {lhs:>10} {rhs:>10} {holds:>6}");
            csv.row(&[
                m.to_string(),
                t.to_string(),
                name.to_owned(),
                lhs.to_string(),
                rhs.to_string(),
                holds.to_string(),
            ])
            .expect("write row");
        };

        // Eq. 5: ξ_2^t = m·log_m(t) − 1.
        check(
            "eq5_xi2",
            table.xi(2).unwrap() as i64,
            closed_form::xi_two(shape) as i64,
        );
        // Eq. 6: peak value at k = 2t/m.
        check(
            "eq6_peak",
            table.xi(closed_form::peak_k(shape)).unwrap() as i64,
            closed_form::xi_peak(shape) as i64,
        );
        // Eq. 7: full activity.
        check(
            "eq7_full",
            table.xi(t).unwrap() as i64,
            closed_form::xi_full(shape) as i64,
        );
        // Eq. 4 (single level) or Eq. 8 (derivative) — spot checks.
        if shape.height() == 1 {
            let p = m / 2;
            if p >= 1 {
                check(
                    "eq4_single_level",
                    table.xi(2 * p).unwrap() as i64,
                    (1 + m - 2 * p) as i64,
                );
            }
        } else {
            let mut worst = true;
            for p in 1..(t / 2) {
                let lhs = table.xi(2 * p + 2).unwrap() as i64 - table.xi(2 * p).unwrap() as i64;
                let rhs =
                    m as i64 * (i64::from(shape.height()) - i64::from(floor_log(m, m * p))) - 2;
                worst &= lhs == rhs;
            }
            check("eq8_derivative_all_p", i64::from(worst), 1);
        }
        // Eq. 15: linear tail over [2t/m, t].
        let mut tail = true;
        for k in (2 * t / m)..=t {
            tail &= table.xi(k).unwrap() == closed_form::xi_tail(shape, k).unwrap();
        }
        check("eq15_tail_all_k", i64::from(tail), 1);
        // Eq. 3: odd staircase.
        let mut odd = true;
        for p in 1..t.div_ceil(2) {
            odd &= table.xi(2 * p + 1).unwrap() == table.xi(2 * p).unwrap() - 1;
        }
        check("eq3_odd_staircase", i64::from(odd), 1);
    }
    csv.finish().expect("flush");
    println!();
    println!(
        "all identities: {}",
        if all_hold { "REPRODUCED" } else { "FAILED" }
    );
    assert!(all_hold);
    println!("wrote results/exp_identities.csv");
}
