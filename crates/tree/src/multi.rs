//! Problem P2 — worst-case searches over multiple consecutive trees
//! (Eq. 16–19 of the paper).
//!
//! P2 asks for a computable tight upper bound on
//!
//! ```text
//! max { ξ_{k_1}^t + … + ξ_{k_v}^t }   s.t.  k_1 + … + k_v = u,  k_i ∈ [2, t]
//! ```
//!
//! (Eq. 16), i.e. the worst way `u` messages can spread over `v` consecutive
//! `t`-leaf trees. The paper proves (Eq. 18), using the concavity of `ξ̃`:
//!
//! ```text
//! max Σ ξ̃_{k_i}^t = v·ξ̃_{u/v}^t = ξ̃_u^{tv} − (v−1)/(m−1)
//! ```
//!
//! so `ξ̃_u^{tv} − (v−1)/(m−1)` upper-bounds the exact optimum (Eq. 19).
//! This module provides both the asymptotic solution and an exact
//! dynamic-programming optimum of Eq. (16) so the bound's tightness can be
//! measured (experiment E5).

use crate::asymptotic::xi_tilde;
use crate::error::TreeError;
use crate::geometry::TreeShape;

/// A multi-tree problem instance: `u` active leaves (messages) spread over
/// `v` consecutive `t`-leaf balanced m-ary trees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MultiTreeProblem {
    /// Shape of each of the `v` trees.
    pub shape: TreeShape,
    /// Total number of active leaves across all trees.
    pub u: u64,
    /// Number of consecutive trees.
    pub v: u64,
}

impl MultiTreeProblem {
    /// Creates an instance, validating that a composition of `u` into `v`
    /// parts within `[2, t]` exists.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::InfeasibleComposition`] unless
    /// `2v ≤ u ≤ t·v` and `v ≥ 1`.
    pub fn new(shape: TreeShape, u: u64, v: u64) -> Result<Self, TreeError> {
        let t = shape.leaves();
        if v == 0 || u < 2 * v || u > t * v {
            return Err(TreeError::InfeasibleComposition { u, v, t });
        }
        Ok(MultiTreeProblem { shape, u, v })
    }

    /// The paper's asymptotic solution to P2 (Eq. 18–19):
    /// `v·ξ̃_{u/v}^t`, equivalently `ξ̃_u^{tv} − (v−1)/(m−1)`.
    pub fn bound(&self) -> f64 {
        self.v as f64 * xi_tilde(self.shape, self.u as f64 / self.v as f64)
    }

    /// [`MultiTreeProblem::exact_optimum`] routed through the process-wide
    /// memoized table cache — the `O(v·u·t)` dynamic program runs at most
    /// once per instance per process.
    ///
    /// # Errors
    ///
    /// Propagates table-construction errors from [`crate::exact`].
    pub fn exact_optimum_cached(&self) -> Result<std::sync::Arc<ExactOptimum>, TreeError> {
        crate::cache::global().multi_exact(*self)
    }

    /// The equivalent single-big-tree form of the bound,
    /// `ξ̃_u^{tv} − (v−1)/(m−1)` — mathematically identical to
    /// [`MultiTreeProblem::bound`] (Eq. 18; the identity is property-tested).
    pub fn bound_big_tree_form(&self) -> f64 {
        let m = self.shape.branching() as f64;
        let t = self.shape.leaves() as f64;
        let u = self.u as f64;
        let v = self.v as f64;
        // ξ̃_u^{tv} evaluated directly from Eq. 11 with leaf count t·v
        // (t·v need not be a power of m; Eq. 11 is a real function of t).
        let half = m * u / 2.0;
        let tilde_big = (half - 1.0) / (m - 1.0) + half * (2.0 * t * v / u).ln() / m.ln() - u;
        tilde_big - (v - 1.0) / (m - 1.0)
    }

    /// The exact optimum of Eq. (16) via dynamic programming over
    /// compositions, with one witness composition.
    ///
    /// Runs in `O(v · u · t)`; intended for moderate instances (E5 uses
    /// `t ≤ 256`, `v ≤ 16`).
    ///
    /// # Errors
    ///
    /// Propagates table-construction errors from [`crate::exact`].
    pub fn exact_optimum(&self) -> Result<ExactOptimum, TreeError> {
        let table = crate::cache::global().worst_case(self.shape)?;
        let t = self.shape.leaves();
        let u = self.u as usize;
        let v = self.v as usize;
        const NEG: i64 = i64::MIN / 4;
        // dp[x] = best total for the prefix of parts placed so far summing to x.
        let mut dp = vec![NEG; u + 1];
        let mut choice = vec![vec![0u64; u + 1]; v];
        dp[0] = 0;
        for (j, choice_j) in choice.iter_mut().enumerate() {
            let mut next = vec![NEG; u + 1];
            #[allow(clippy::needless_range_loop)] // dp[x] read and indexed from nx
            for x in 0..=u {
                if dp[x] == NEG {
                    continue;
                }
                let kmax = t.min((u - x) as u64);
                for k in 2..=kmax {
                    let cand = dp[x] + table.xi(k)? as i64;
                    let nx = x + k as usize;
                    if cand > next[nx] {
                        next[nx] = cand;
                        choice_j[nx] = k;
                    }
                }
            }
            dp = next;
            let _ = j;
        }
        if dp[u] == NEG {
            return Err(TreeError::InfeasibleComposition {
                u: self.u,
                v: self.v,
                t,
            });
        }
        // Reconstruct the witness composition.
        let mut parts = Vec::with_capacity(v);
        let mut x = u;
        for j in (0..v).rev() {
            let k = choice[j][x];
            parts.push(k);
            x -= k as usize;
        }
        parts.reverse();
        Ok(ExactOptimum {
            total: dp[u] as u64,
            parts,
        })
    }
}

/// Exact optimum of the multi-tree problem with a witness composition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactOptimum {
    /// `max Σ ξ_{k_i}^t`.
    pub total: u64,
    /// A composition `(k_1, …, k_v)` attaining the maximum.
    pub parts: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::SearchTimeTable;

    fn problem(m: u64, n: u32, u: u64, v: u64) -> MultiTreeProblem {
        MultiTreeProblem::new(TreeShape::new(m, n).unwrap(), u, v).unwrap()
    }

    #[test]
    fn validates_composition_feasibility() {
        let shape = TreeShape::new(2, 3).unwrap();
        assert!(MultiTreeProblem::new(shape, 3, 2).is_err()); // u < 2v
        assert!(MultiTreeProblem::new(shape, 17, 2).is_err()); // u > t·v
        assert!(MultiTreeProblem::new(shape, 4, 0).is_err());
        assert!(MultiTreeProblem::new(shape, 4, 2).is_ok());
    }

    #[test]
    fn eq18_identity_two_forms_agree() {
        for (m, n, u, v) in [
            (2u64, 4u32, 10u64, 3u64),
            (4, 3, 40, 5),
            (3, 3, 13, 4),
            (2, 6, 100, 2),
        ] {
            let p = problem(m, n, u, v);
            let a = p.bound();
            let b = p.bound_big_tree_form();
            assert!((a - b).abs() < 1e-9 * a.abs().max(1.0), "{a} vs {b}");
        }
    }

    #[test]
    fn eq19_bound_dominates_exact_optimum() {
        for (m, n, u, v) in [
            (2u64, 4u32, 10u64, 3u64),
            (2, 4, 20, 4),
            (4, 2, 20, 3),
            (3, 3, 30, 5),
            (4, 3, 64, 2),
        ] {
            let p = problem(m, n, u, v);
            let exact = p.exact_optimum().unwrap();
            assert!(
                p.bound() + 1e-9 >= exact.total as f64,
                "m={m} n={n} u={u} v={v}: bound {} < exact {}",
                p.bound(),
                exact.total
            );
        }
    }

    #[test]
    fn exact_witness_is_valid_and_attains_total() {
        let p = problem(2, 4, 14, 3);
        let table = SearchTimeTable::compute(p.shape).unwrap();
        let opt = p.exact_optimum().unwrap();
        assert_eq!(opt.parts.len() as u64, p.v);
        assert_eq!(opt.parts.iter().sum::<u64>(), p.u);
        for &k in &opt.parts {
            assert!((2..=p.shape.leaves()).contains(&k));
        }
        let total: u64 = opt.parts.iter().map(|&k| table.xi(k).unwrap()).sum();
        assert_eq!(total, opt.total);
    }

    #[test]
    fn cached_lookups_match_direct_computation() {
        let p = problem(2, 4, 10, 3);
        assert_eq!(
            *p.exact_optimum_cached().unwrap(),
            p.exact_optimum().unwrap()
        );
    }

    #[test]
    fn single_tree_reduces_to_xi() {
        let shape = TreeShape::new(4, 3).unwrap();
        let table = SearchTimeTable::compute(shape).unwrap();
        for u in 2..=64u64 {
            let p = MultiTreeProblem::new(shape, u, 1).unwrap();
            assert_eq!(p.exact_optimum().unwrap().total, table.xi(u).unwrap());
        }
    }

    #[test]
    fn balanced_split_is_worst_for_anchor_points() {
        // At u/v = 2·m^i the asymptotic is exact, so the DP optimum should
        // equal v·ξ at the balanced split.
        let shape = TreeShape::new(2, 4).unwrap();
        let table = SearchTimeTable::compute(shape).unwrap();
        for (u, v) in [(8u64, 4u64), (16, 4), (8, 2)] {
            let p = MultiTreeProblem::new(shape, u, v).unwrap();
            let balanced = v * table.xi(u / v).unwrap();
            assert_eq!(p.exact_optimum().unwrap().total, balanced, "u={u} v={v}");
        }
    }
}
