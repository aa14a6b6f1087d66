//! Expected (average-case) search times over uniformly random leaf
//! subsets.
//!
//! The paper motivates tree protocols by their *efficiency*: "tree
//! protocols … achieve channel utilization ratios that are very close to
//! theoretical upper bounds" (§3.1, citing Gallager, Tsybakov,
//! Mathys–Flajolet). The worst case `ξ_k^t` drives the feasibility
//! conditions; the **expected** cost drives utilization. This module
//! computes it exactly: for `k` active leaves placed uniformly at random,
//! the active counts of the `m` subtrees are jointly hypergeometric, so
//!
//! ```text
//! A_t(k) = 1 + m · Σ_j  P_hyp(j; t/m, t, k) · A_{t/m}(j)    k ≥ 2
//! A_t(1) = 0,   A_t(0) = 1
//! ```
//!
//! where `P_hyp(j; s, t, k) = C(s,j)·C(t−s,k−j)/C(t,k)` — computed with a
//! stable ratio recurrence, level by level, in `O(t·k)` per level.

use crate::error::TreeError;
use crate::geometry::TreeShape;

/// Table of expected search slots `A_t(k)` for `k ∈ [0, t]`, where the `k`
/// active leaves are uniformly random.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpectedSearchTable {
    shape: TreeShape,
    expected: Vec<f64>,
}

impl ExpectedSearchTable {
    /// Computes the expected-cost table bottom-up.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::Overflow`] for trees too large to tabulate
    /// (same cap as [`SearchTimeTable`](crate::exact::SearchTimeTable)).
    pub fn compute(shape: TreeShape) -> Result<Self, TreeError> {
        // Reuse the exact table's size guard (via the process-wide cache:
        // the worst-case table for this shape is almost always wanted too).
        let _guard = crate::cache::global().worst_case(shape)?;
        let m = shape.branching();
        // ln(n!) table up to the full leaf count, for stable hypergeometric
        // probabilities.
        let lf = ln_factorials(shape.leaves() as usize);
        let ln_choose =
            |n: u64, r: u64| -> f64 { lf[n as usize] - lf[r as usize] - lf[(n - r) as usize] };
        // Level for a single leaf.
        let mut level: Vec<f64> = vec![1.0, 0.0];
        let mut sub_leaves = 1u64;
        for _ in 0..shape.height() {
            let t = sub_leaves * m;
            let s = sub_leaves;
            let mut next = vec![0.0f64; t as usize + 1];
            next[0] = 1.0;
            next[1] = 0.0;
            for k in 2..=t {
                // E[A_s(J)] with J ~ Hypergeometric(t, s, k):
                // P(j) = C(s, j)·C(t−s, k−j)/C(t, k) on the support
                // max(0, k − (t − s)) ≤ j ≤ min(k, s).
                let ln_denom = ln_choose(t, k);
                let j_min = k.saturating_sub(t - s);
                let j_max = k.min(s);
                let mut acc = 0.0f64;
                for j in j_min..=j_max {
                    let p = (ln_choose(s, j) + ln_choose(t - s, k - j) - ln_denom).exp();
                    acc += p * level[j as usize];
                }
                next[k as usize] = 1.0 + m as f64 * acc;
            }
            level = next;
            sub_leaves = t;
        }
        Ok(ExpectedSearchTable {
            shape,
            expected: level,
        })
    }

    /// The shape this table was computed for.
    pub fn shape(&self) -> TreeShape {
        self.shape
    }

    /// Expected search slots for `k` uniformly random active leaves.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::TooManyActiveLeaves`] if `k > t`.
    pub fn expected(&self, k: u64) -> Result<f64, TreeError> {
        self.expected
            .get(k as usize)
            .copied()
            .ok_or(TreeError::TooManyActiveLeaves {
                k,
                t: self.shape.leaves(),
            })
    }

    /// Saturation channel efficiency for frames of `frame_slots` slot
    /// times: useful time over total time when `k` stations always
    /// contend, `k·frame / (k·frame + A_t(k))`.
    ///
    /// # Errors
    ///
    /// Propagates [`TreeError::TooManyActiveLeaves`].
    pub fn efficiency(&self, k: u64, frame_slots: f64) -> Result<f64, TreeError> {
        if k == 0 {
            return Ok(0.0);
        }
        let useful = k as f64 * frame_slots;
        Ok(useful / (useful + self.expected(k)?))
    }
}

/// `ln(n!)` for `n ∈ [0, max]`, by cumulative summation (exact enough for
/// the tree sizes the table cap admits).
fn ln_factorials(max: usize) -> Vec<f64> {
    let mut lf = vec![0.0f64; max + 1];
    for n in 1..=max {
        lf[n] = lf[n - 1] + (n as f64).ln();
    }
    lf
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::SearchTimeTable;
    use crate::search::search_active_leaves;

    fn table(m: u64, n: u32) -> ExpectedSearchTable {
        ExpectedSearchTable::compute(TreeShape::new(m, n).unwrap()).unwrap()
    }

    #[test]
    fn base_cases() {
        let t = table(2, 3);
        assert_eq!(t.expected(0).unwrap(), 1.0);
        assert_eq!(t.expected(1).unwrap(), 0.0);
        assert!(t.expected(9).is_err());
    }

    #[test]
    fn two_leaves_on_two_leaf_tree() {
        // k = t = 2, m = 2: both children active: cost = 1 exactly.
        let t = table(2, 1);
        assert!((t.expected(2).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expected_never_exceeds_worst_case() {
        for (m, n) in [(2u64, 4u32), (3, 3), (4, 3)] {
            let shape = TreeShape::new(m, n).unwrap();
            let avg = ExpectedSearchTable::compute(shape).unwrap();
            let worst = SearchTimeTable::compute(shape).unwrap();
            for k in 0..=shape.leaves() {
                assert!(
                    avg.expected(k).unwrap() <= worst.xi(k).unwrap() as f64 + 1e-9,
                    "m={m} n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn exact_enumeration_cross_check() {
        // Average over ALL C(t, k) subsets on a small tree must equal the
        // analytic expectation.
        let shape = TreeShape::new(2, 3).unwrap();
        let avg = ExpectedSearchTable::compute(shape).unwrap();
        for k in 0..=8u64 {
            let mut subset: Vec<u64> = (0..k).collect();
            let mut total = 0.0f64;
            let mut count = 0u64;
            loop {
                total += search_active_leaves(shape, &subset).unwrap().search_slots() as f64;
                count += 1;
                if !next_comb(&mut subset, 8) {
                    break;
                }
            }
            let enumerated = total / count as f64;
            let analytic = avg.expected(k).unwrap();
            assert!(
                (enumerated - analytic).abs() < 1e-9,
                "k={k}: enumerated {enumerated} vs analytic {analytic}"
            );
        }
    }

    fn next_comb(subset: &mut [u64], t: u64) -> bool {
        let k = subset.len();
        let mut i = k;
        while i > 0 {
            i -= 1;
            if subset[i] < t - (k as u64 - i as u64) {
                subset[i] += 1;
                for j in i + 1..k {
                    subset[j] = subset[j - 1] + 1;
                }
                return true;
            }
        }
        false
    }

    #[test]
    fn efficiency_increases_with_frame_size() {
        let avg = table(4, 3);
        let small = avg.efficiency(8, 2.0).unwrap();
        let large = avg.efficiency(8, 24.0).unwrap();
        assert!(large > small);
        assert!(large < 1.0);
        assert_eq!(avg.efficiency(0, 10.0).unwrap(), 0.0);
    }

    #[test]
    fn average_is_well_below_worst_at_mid_k() {
        // The whole point of the average-case view: typical searches are
        // much cheaper than adversarial ones.
        let shape = TreeShape::new(4, 3).unwrap();
        let avg = ExpectedSearchTable::compute(shape).unwrap();
        let worst = SearchTimeTable::compute(shape).unwrap();
        let k = 32;
        assert!(avg.expected(k).unwrap() < 0.9 * worst.xi(k).unwrap() as f64);
    }
}
