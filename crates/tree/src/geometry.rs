//! Shapes of balanced m-ary trees and exact integer logarithm helpers.
//!
//! The paper studies balanced m-ary trees with `t = m^n` leaves,
//! `m ∈ ℕ*∖{1}`, `n ∈ ℕ*`. [`TreeShape`] captures such a shape and offers the
//! exact integer arithmetic (powers, floor/ceil logarithms of rationals)
//! needed by the closed forms of section 4, where expressions such as
//! `⌊log_m(t / (m⌊k/2⌋))⌋` must be evaluated without floating-point error —
//! including for ratios below 1, whose floor logarithm is negative.

use crate::error::TreeError;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The shape of a balanced m-ary tree: branching degree `m`, height `n`,
/// and leaf count `t = m^n`.
///
/// # Examples
///
/// ```
/// use ddcr_tree::TreeShape;
///
/// # fn main() -> Result<(), ddcr_tree::TreeError> {
/// let shape = TreeShape::new(4, 3)?; // 64-leaf quaternary tree (paper Fig. 1)
/// assert_eq!(shape.leaves(), 64);
/// assert_eq!(shape.branching(), 4);
/// assert_eq!(shape.height(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TreeShape {
    m: u64,
    n: u32,
    t: u64,
}

impl TreeShape {
    /// Creates the shape of a balanced `m`-ary tree of height `n`
    /// (`t = m^n` leaves).
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::BranchingTooSmall`] if `m < 2`, and
    /// [`TreeError::Overflow`] if `m^n` does not fit in `u64` (or `n == 0`,
    /// which the paper excludes since `n ∈ ℕ*`).
    pub fn new(m: u64, n: u32) -> Result<Self, TreeError> {
        if m < 2 {
            return Err(TreeError::BranchingTooSmall { m });
        }
        if n == 0 {
            return Err(TreeError::Overflow { m, n });
        }
        let mut t: u64 = 1;
        for _ in 0..n {
            t = t.checked_mul(m).ok_or(TreeError::Overflow { m, n })?;
        }
        Ok(TreeShape { m, n, t })
    }

    /// Creates a shape from a branching degree and a leaf count.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::BranchingTooSmall`] if `m < 2`, and
    /// [`TreeError::NotAPowerOfM`] if `t` is not a positive power of `m`.
    pub fn from_leaves(m: u64, t: u64) -> Result<Self, TreeError> {
        if m < 2 {
            return Err(TreeError::BranchingTooSmall { m });
        }
        let mut cur = 1u64;
        let mut n = 0u32;
        while cur < t {
            cur = cur.checked_mul(m).ok_or(TreeError::NotAPowerOfM { t, m })?;
            n += 1;
        }
        if cur != t || n == 0 {
            return Err(TreeError::NotAPowerOfM { t, m });
        }
        Ok(TreeShape { m, n, t })
    }

    /// The branching degree `m`.
    pub fn branching(&self) -> u64 {
        self.m
    }

    /// The height `n` (number of levels of internal nodes).
    pub fn height(&self) -> u32 {
        self.n
    }

    /// The number of leaves `t = m^n`.
    pub fn leaves(&self) -> u64 {
        self.t
    }

    /// The shape of each of the `m` immediate subtrees, or `None` when the
    /// tree is a single level (`n == 1`, subtrees are leaves).
    pub fn subtree(&self) -> Option<TreeShape> {
        if self.n <= 1 {
            None
        } else {
            Some(TreeShape {
                m: self.m,
                n: self.n - 1,
                t: self.t / self.m,
            })
        }
    }

    /// Total number of internal nodes, `(t − 1) / (m − 1)`.
    ///
    /// This also equals `ξ_t^t` (Eq. 7): when every leaf is active, every
    /// internal node is visited exactly once and every visit is a collision.
    pub fn internal_nodes(&self) -> u64 {
        (self.t - 1) / (self.m - 1)
    }
}

impl fmt::Display for TreeShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-leaf balanced {}-ary tree", self.t, self.m)
    }
}

/// Returns `m^e`, or `None` on overflow.
pub fn checked_pow(m: u64, e: u32) -> Option<u64> {
    let mut acc: u64 = 1;
    for _ in 0..e {
        acc = acc.checked_mul(m)?;
    }
    Some(acc)
}

/// Exact `⌊log_m(num / den)⌋` for positive integers, allowing ratios below 1
/// (negative result).
///
/// Returns the unique `e` with `m^e ≤ num/den < m^(e+1)`.
///
/// # Panics
///
/// Panics if `m < 2`, `num == 0`, or `den == 0` — these have no logarithm.
pub fn floor_log_ratio(m: u64, num: u64, den: u64) -> i64 {
    assert!(m >= 2, "floor_log_ratio requires m >= 2");
    assert!(num > 0 && den > 0, "floor_log_ratio requires num, den > 0");
    let m = u128::from(m);
    let num = u128::from(num);
    let den = u128::from(den);
    if num >= den {
        // Largest e >= 0 with den * m^e <= num.
        let mut e: i64 = 0;
        let mut scaled = den;
        while scaled.saturating_mul(m) <= num {
            scaled *= m;
            e += 1;
        }
        e
    } else {
        // num/den < 1: smallest j >= 1 with num * m^j >= den gives e = -j,
        // unless num * m^j == den... that still satisfies m^{-j} == num/den,
        // so floor is exactly -j.
        let mut j: i64 = 0;
        let mut scaled = num;
        while scaled < den {
            scaled = scaled.saturating_mul(m);
            j += 1;
        }
        if scaled == den {
            -j
        } else {
            // m^{-j} > num/den > m^{-j-1}
            -j
        }
    }
}

/// Exact `⌈log_m(num / den)⌉` for positive integers, allowing ratios below 1.
///
/// Returns the unique `e` with `m^(e−1) < num/den ≤ m^e`.
///
/// # Panics
///
/// Panics if `m < 2`, `num == 0`, or `den == 0`.
pub fn ceil_log_ratio(m: u64, num: u64, den: u64) -> i64 {
    let fl = floor_log_ratio(m, num, den);
    // Exact power check: num/den == m^fl ?
    if is_exact_power_ratio(m, num, den, fl) {
        fl
    } else {
        fl + 1
    }
}

/// True iff `num / den == m^e` exactly.
fn is_exact_power_ratio(m: u64, num: u64, den: u64, e: i64) -> bool {
    let m = u128::from(m);
    let num = u128::from(num);
    let den = u128::from(den);
    if e >= 0 {
        let mut p: u128 = 1;
        for _ in 0..e {
            p = match p.checked_mul(m) {
                Some(v) => v,
                None => return false,
            };
        }
        num == den.saturating_mul(p)
    } else {
        let mut p: u128 = 1;
        for _ in 0..(-e) {
            p = match p.checked_mul(m) {
                Some(v) => v,
                None => return false,
            };
        }
        num.saturating_mul(p) == den
    }
}

/// Exact `⌊log_m(x)⌋` for a positive integer `x`.
///
/// # Panics
///
/// Panics if `m < 2` or `x == 0`.
pub fn floor_log(m: u64, x: u64) -> u32 {
    floor_log_ratio(m, x, 1) as u32
}

/// Exact `⌈log_m(x)⌉` for a positive integer `x`.
///
/// # Panics
///
/// Panics if `m < 2` or `x == 0`.
pub fn ceil_log(m: u64, x: u64) -> u32 {
    ceil_log_ratio(m, x, 1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_constructors_agree() {
        let a = TreeShape::new(4, 3).unwrap();
        let b = TreeShape::from_leaves(4, 64).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.leaves(), 64);
        assert_eq!(a.internal_nodes(), 21);
    }

    #[test]
    fn shape_rejects_bad_inputs() {
        assert_eq!(
            TreeShape::new(1, 3),
            Err(TreeError::BranchingTooSmall { m: 1 })
        );
        assert_eq!(
            TreeShape::new(2, 0),
            Err(TreeError::Overflow { m: 2, n: 0 })
        );
        assert!(TreeShape::new(2, 64).is_err());
        assert_eq!(
            TreeShape::from_leaves(4, 32),
            Err(TreeError::NotAPowerOfM { t: 32, m: 4 })
        );
        assert_eq!(
            TreeShape::from_leaves(4, 1),
            Err(TreeError::NotAPowerOfM { t: 1, m: 4 })
        );
    }

    #[test]
    fn subtree_walks_down_to_leaves() {
        let mut shape = Some(TreeShape::new(3, 4).unwrap());
        let mut leaves = vec![];
        while let Some(s) = shape {
            leaves.push(s.leaves());
            shape = s.subtree();
        }
        assert_eq!(leaves, vec![81, 27, 9, 3]);
    }

    #[test]
    fn display_mentions_leaves_and_arity() {
        let s = TreeShape::new(2, 6).unwrap();
        assert_eq!(s.to_string(), "64-leaf balanced 2-ary tree");
    }

    #[test]
    fn floor_log_basic() {
        assert_eq!(floor_log(2, 1), 0);
        assert_eq!(floor_log(2, 2), 1);
        assert_eq!(floor_log(2, 3), 1);
        assert_eq!(floor_log(2, 4), 2);
        assert_eq!(floor_log(10, 999), 2);
        assert_eq!(floor_log(10, 1000), 3);
    }

    #[test]
    fn ceil_log_basic() {
        assert_eq!(ceil_log(2, 1), 0);
        assert_eq!(ceil_log(2, 2), 1);
        assert_eq!(ceil_log(2, 3), 2);
        assert_eq!(ceil_log(2, 4), 2);
        assert_eq!(ceil_log(4, 128), 4); // used by Eq. 10 at m=4, t=64, k=64
    }

    #[test]
    fn floor_log_ratio_below_one() {
        // log_4(64/128) = -0.5 -> floor -1
        assert_eq!(floor_log_ratio(4, 64, 128), -1);
        // log_2(1/8) = -3 exactly
        assert_eq!(floor_log_ratio(2, 1, 8), -3);
        assert_eq!(ceil_log_ratio(2, 1, 8), -3);
        // log_3(9/12) ~ -0.26 -> floor -1, ceil 0
        assert_eq!(floor_log_ratio(3, 9, 12), -1);
        assert_eq!(ceil_log_ratio(3, 9, 12), 0);
    }

    #[test]
    fn floor_ceil_log_ratio_consistency() {
        for m in 2u64..=7 {
            for num in 1u64..=200 {
                for den in 1u64..=50 {
                    let fl = floor_log_ratio(m, num, den);
                    let cl = ceil_log_ratio(m, num, den);
                    let lg = (num as f64 / den as f64).ln() / (m as f64).ln();
                    // Compare against floating point with a tolerance guard:
                    // only assert when far from an integer boundary.
                    if (lg - lg.round()).abs() > 1e-9 {
                        assert_eq!(fl, lg.floor() as i64, "m={m} num={num} den={den}");
                        assert_eq!(cl, lg.ceil() as i64, "m={m} num={num} den={den}");
                    } else {
                        assert_eq!(fl, cl, "exact power m={m} num={num} den={den}");
                    }
                }
            }
        }
    }

    #[test]
    fn checked_pow_overflow() {
        assert_eq!(checked_pow(2, 10), Some(1024));
        assert_eq!(checked_pow(2, 64), None);
        assert_eq!(checked_pow(u64::MAX, 2), None);
        assert_eq!(checked_pow(7, 0), Some(1));
    }
}
