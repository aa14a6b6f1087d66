//! Exact worst-case search times `ξ_k^t` via dynamic programming on Eq. (1).
//!
//! Eq. (1) of the paper defines, for a `t`-leaf balanced m-ary tree,
//!
//! ```text
//! ξ_k^t = 1 + max { ξ_{k_1}^{t/m} + … + ξ_{k_m}^{t/m} }   if k ∈ [2, t]
//!         over k_1 + … + k_m = k, k_i ∈ [0, t/m]
//! ξ_1^t = 0            (successful transmission — free)
//! ξ_0^t = 1            (one empty channel slot)
//! ```
//!
//! The inner maximum is a max-plus convolution of `m` copies of the subtree
//! table, so the whole table for `t` leaves is computed bottom-up in
//! `O(t²)` time — no search over `binomial(t, k)` leaf subsets is needed.
//! This module is the crate's ground truth for moderate `t`; the closed form
//! of [`crate::closed_form`] and the divide-and-conquer recursion of
//! [`crate::divide`] are validated against it.

use crate::error::TreeError;
use crate::geometry::TreeShape;

/// Full table of exact worst-case search times `ξ_k^t` for `k ∈ [0, t]`.
///
/// Built bottom-up from Eq. (1) by max-plus convolution. Indexing is by the
/// number of active leaves `k`.
///
/// # Examples
///
/// ```
/// use ddcr_tree::{SearchTimeTable, TreeShape};
///
/// # fn main() -> Result<(), ddcr_tree::TreeError> {
/// let shape = TreeShape::new(4, 3)?; // 64-leaf quaternary tree
/// let table = SearchTimeTable::compute(shape)?;
/// assert_eq!(table.xi(2)?, 11); // Eq. 5: m·log_m(t) − 1 = 4·3 − 1
/// assert_eq!(table.xi(64)?, 21); // Eq. 7: (t−1)/(m−1)
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchTimeTable {
    shape: TreeShape,
    xi: Vec<u64>,
}

impl SearchTimeTable {
    /// Computes the exact table for the given tree shape.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::Overflow`] if the leaf count is too large to
    /// allocate a table for (more than 2²⁴ leaves).
    pub fn compute(shape: TreeShape) -> Result<Self, TreeError> {
        const MAX_LEAVES: u64 = 1 << 24;
        if shape.leaves() > MAX_LEAVES {
            return Err(TreeError::Overflow {
                m: shape.branching(),
                n: shape.height(),
            });
        }
        let m = shape.branching() as usize;
        // Table for a single leaf: xi_0^1 = 1 (empty slot), xi_1^1 = 0.
        let mut level: Vec<u64> = vec![1, 0];
        for _ in 0..shape.height() {
            level = combine_level(&level, m);
        }
        debug_assert_eq!(level.len() as u64, shape.leaves() + 1);
        Ok(SearchTimeTable { shape, xi: level })
    }

    /// The shape this table was computed for.
    pub fn shape(&self) -> TreeShape {
        self.shape
    }

    /// Exact worst-case search time `ξ_k^t` for isolating `k` active leaves.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::TooManyActiveLeaves`] if `k > t`.
    pub fn xi(&self, k: u64) -> Result<u64, TreeError> {
        self.xi
            .get(k as usize)
            .copied()
            .ok_or(TreeError::TooManyActiveLeaves {
                k,
                t: self.shape.leaves(),
            })
    }

    /// The whole table as a slice, indexed by `k`.
    pub fn as_slice(&self) -> &[u64] {
        &self.xi
    }

    /// The monotone envelope of the table: `out[k] = max_{2 ≤ j ≤ k} ξ_j^t`
    /// (zero for `k < 2`).
    ///
    /// `ξ_k^t` itself is not monotone in `k` — it peaks below `t` and then
    /// decreases linearly (Eq. 15) — which makes the raw table unsafe to
    /// index with an *over-estimate* of `k`, as a live observer that can
    /// only lower-bound the number of active leaves must. The running
    /// maximum is monotone, so any over-estimate yields a sound (merely
    /// looser) bound. Used by the simulator's streaming ξ checks.
    pub fn xi_envelope(&self) -> Vec<u64> {
        let mut running = 0u64;
        self.xi
            .iter()
            .enumerate()
            .map(|(k, &xi)| {
                if k < 2 {
                    0
                } else {
                    running = running.max(xi);
                    running
                }
            })
            .collect()
    }

    /// Iterates over `(k, ξ_k^t)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.xi.iter().enumerate().map(|(k, &v)| (k as u64, v))
    }
}

/// Combines a child table into the parent table one level up:
/// max-plus convolution of `m` copies, then the `k ∈ {0, 1}` base cases and
/// the `+1` collision slot for `k ≥ 2`.
fn combine_level(child: &[u64], m: usize) -> Vec<u64> {
    let mut acc = child.to_vec();
    for _ in 1..m {
        acc = max_plus_convolve(&acc, child);
    }
    for (k, v) in acc.iter_mut().enumerate() {
        match k {
            0 => *v = 1,
            1 => *v = 0,
            _ => *v += 1,
        }
    }
    acc
}

/// Max-plus convolution: `out[k] = max over i+j=k of a[i] + b[j]`.
fn max_plus_convolve(a: &[u64], b: &[u64]) -> Vec<u64> {
    let mut out = vec![0u64; a.len() + b.len() - 1];
    for (i, &ai) in a.iter().enumerate() {
        for (j, &bj) in b.iter().enumerate() {
            let s = ai + bj;
            if s > out[i + j] {
                out[i + j] = s;
            }
        }
    }
    out
}

/// Computes a single `ξ_k^t` value exactly (convenience wrapper that builds
/// the full table; prefer [`SearchTimeTable`] when several values are
/// needed).
///
/// # Errors
///
/// Propagates errors from [`SearchTimeTable::compute`] and
/// [`SearchTimeTable::xi`].
pub fn xi_exact(shape: TreeShape, k: u64) -> Result<u64, TreeError> {
    crate::cache::global().worst_case(shape)?.xi(k)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(m: u64, n: u32) -> SearchTimeTable {
        SearchTimeTable::compute(TreeShape::new(m, n).unwrap()).unwrap()
    }

    #[test]
    fn base_cases() {
        let t = table(2, 1);
        assert_eq!(t.xi(0).unwrap(), 1);
        assert_eq!(t.xi(1).unwrap(), 0);
        assert_eq!(t.xi(2).unwrap(), 1); // Eq. 4: 1 + m − 2p with p=1, m=2
    }

    #[test]
    fn single_level_matches_eq4() {
        // Eq. 4: ξ_0^m = 1; ξ_{2p}^m = 1 + m − 2p; ξ_{2p+1}^m = ξ_{2p}^m − 1.
        for m in 2u64..=9 {
            let t = table(m, 1);
            assert_eq!(t.xi(0).unwrap(), 1, "m={m}");
            for p in 1..=(m / 2) {
                assert_eq!(t.xi(2 * p).unwrap(), 1 + m - 2 * p, "m={m} p={p}");
            }
            for p in 1..m.div_ceil(2) {
                let even = t.xi(2 * p).unwrap();
                if 2 * p < m {
                    assert_eq!(t.xi(2 * p + 1).unwrap(), even - 1, "m={m} p={p}");
                }
            }
        }
    }

    #[test]
    fn eq5_two_active_leaves() {
        // ξ_2^t = m·log_m(t) − 1
        for (m, n) in [(2u64, 6u32), (4, 3), (3, 4), (8, 2)] {
            let tb = table(m, n);
            assert_eq!(tb.xi(2).unwrap(), m * u64::from(n) - 1, "m={m} n={n}");
        }
    }

    #[test]
    fn eq6_two_t_over_m_leaves() {
        // ξ_{2t/m}^t = (t−1)/(m−1) + (t − 2t/m)
        for (m, n) in [(2u64, 6u32), (4, 3), (3, 3)] {
            let tb = table(m, n);
            let t = tb.shape().leaves();
            let expect = (t - 1) / (m - 1) + (t - 2 * t / m);
            assert_eq!(tb.xi(2 * t / m).unwrap(), expect, "m={m} n={n}");
        }
    }

    #[test]
    fn eq7_all_leaves_active() {
        // ξ_t^t = (t−1)/(m−1): every internal node collides exactly once.
        for (m, n) in [(2u64, 5u32), (4, 3), (3, 4), (5, 3)] {
            let tb = table(m, n);
            let t = tb.shape().leaves();
            assert_eq!(tb.xi(t).unwrap(), (t - 1) / (m - 1), "m={m} n={n}");
        }
    }

    #[test]
    fn eq3_odd_is_even_minus_one() {
        for (m, n) in [(2u64, 5u32), (4, 3), (3, 3)] {
            let tb = table(m, n);
            let t = tb.shape().leaves();
            for p in 0..t.div_ceil(2) {
                let even = tb.xi(2 * p).unwrap();
                let odd = tb.xi(2 * p + 1).unwrap();
                let expect = if p == 0 { 0 } else { even - 1 };
                assert_eq!(odd, expect, "m={m} n={n} p={p}");
            }
        }
    }

    #[test]
    fn eq8_derivative() {
        // ξ_{2p+2}^t − ξ_{2p}^t = m(log_m t − ⌊log_m(mp)⌋) − 2, p ∈ [1, t/2 − 1]
        use crate::geometry::floor_log;
        for (m, n) in [(2u64, 6u32), (4, 3), (3, 4)] {
            let tb = table(m, n);
            let t = tb.shape().leaves();
            for p in 1..(t / 2) {
                let lhs = tb.xi(2 * p + 2).unwrap() as i64 - tb.xi(2 * p).unwrap() as i64;
                let rhs = m as i64 * (i64::from(n) - i64::from(floor_log(m, m * p))) - 2;
                assert_eq!(lhs, rhs, "m={m} n={n} p={p}");
            }
        }
    }

    #[test]
    fn eq15_tail_is_linear() {
        // For k ∈ [2t/m, t]: ξ_k^t = (mt−1)/(m−1) − k.
        for (m, n) in [(2u64, 6u32), (4, 3), (3, 4)] {
            let tb = table(m, n);
            let t = tb.shape().leaves();
            for k in (2 * t / m)..=t {
                assert_eq!(
                    tb.xi(k).unwrap(),
                    (m * t - 1) / (m - 1) - k,
                    "m={m} n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn rejects_out_of_range_k() {
        let tb = table(2, 3);
        assert_eq!(tb.xi(9), Err(TreeError::TooManyActiveLeaves { k: 9, t: 8 }));
    }

    #[test]
    fn rejects_huge_tables() {
        let shape = TreeShape::new(2, 25).unwrap();
        assert!(SearchTimeTable::compute(shape).is_err());
    }

    #[test]
    fn envelope_is_monotone_and_dominates_the_table() {
        for (m, n) in [(2u64, 6u32), (4, 3), (3, 4)] {
            let tb = table(m, n);
            let env = tb.xi_envelope();
            assert_eq!(env.len(), tb.as_slice().len());
            assert_eq!(env[0], 0);
            assert_eq!(env[1], 0);
            let mut expect_max = 0;
            for k in 2..env.len() {
                assert!(env[k] >= env[k - 1], "m={m} n={n} k={k}: not monotone");
                assert!(env[k] >= tb.as_slice()[k], "m={m} n={n} k={k}: below ξ");
                expect_max = expect_max.max(tb.as_slice()[k]);
                assert_eq!(env[k], expect_max, "m={m} n={n} k={k}");
            }
        }
    }

    #[test]
    fn iter_covers_all_k() {
        let tb = table(3, 2);
        let pairs: Vec<_> = tb.iter().collect();
        assert_eq!(pairs.len(), 10);
        assert_eq!(pairs[0], (0, 1));
        assert_eq!(pairs[1], (1, 0));
    }

    #[test]
    fn xi_exact_matches_table() {
        let shape = TreeShape::new(4, 2).unwrap();
        let tb = SearchTimeTable::compute(shape).unwrap();
        for k in 0..=16 {
            assert_eq!(xi_exact(shape, k).unwrap(), tb.xi(k).unwrap());
        }
    }
}
