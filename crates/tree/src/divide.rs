//! Divide-and-conquer recursion for `ξ_k^t` — Eq. (2)–(4) of the paper.
//!
//! The paper proves (by induction on `t`, its ref 22) that the `ξ_k^t` function
//! Eq. (1) also satisfies:
//!
//! ```text
//! ξ_{2p}^t  = 1 + Σ_{i=0}^{m−1} ξ^{t/m}_{2⌊(min(p, t/m)+i)/m⌋} − 2·max(0, p − t/m)
//!                                             p ∈ [1, ⌊t/2⌋], n ≥ 2   (Eq. 2)
//! ξ_0^t     = 1
//! ξ_{2p+1}^t = ξ_{2p}^t − 1                   p ∈ [0, ⌈t/2⌉ − 1]      (Eq. 3)
//! ```
//!
//! with the single-level base case (Eq. 4):
//!
//! ```text
//! ξ_0^m = 1;  ξ_{2p}^m = 1 + m − 2p, p ∈ [1, ⌊m/2⌋];  ξ_{2p+1}^m = ξ_{2p}^m − 1.
//! ```
//!
//! Unlike the `O(t²)` dynamic program of [`crate::exact`], this recursion
//! evaluates a single `ξ_k^t` in `O(m·log_m t)` recursive calls, so it scales
//! to trees far beyond what a full table can hold. The crate's test suite
//! proves the two agree wherever both are computable.

use crate::error::TreeError;
use crate::geometry::TreeShape;

/// Evaluates `ξ_k^t` through the divide-and-conquer recursion (Eq. 2–4).
///
/// # Errors
///
/// Returns [`TreeError::TooManyActiveLeaves`] if `k > t`.
///
/// # Examples
///
/// ```
/// use ddcr_tree::{divide, TreeShape};
///
/// # fn main() -> Result<(), ddcr_tree::TreeError> {
/// let shape = TreeShape::new(4, 3)?;
/// assert_eq!(divide::xi_divide(shape, 2)?, 11);
/// // Works for trees whose full table would be enormous:
/// let big = TreeShape::new(2, 40)?;
/// assert_eq!(divide::xi_divide(big, 2)?, 79); // m·log_m(t) − 1 = 2·40 − 1
/// # Ok(())
/// # }
/// ```
pub fn xi_divide(shape: TreeShape, k: u64) -> Result<u64, TreeError> {
    let t = shape.leaves();
    if k > t {
        return Err(TreeError::TooManyActiveLeaves { k, t });
    }
    Ok(eval(shape, k))
}

fn eval(shape: TreeShape, k: u64) -> u64 {
    match k {
        0 => 1,
        1 => 0,
        _ => {
            if k.is_multiple_of(2) {
                even(shape, k / 2)
            } else {
                // Eq. 3: ξ_{2p+1} = ξ_{2p} − 1 (with ξ_0 − 1 handled by k=1 above).
                even(shape, k / 2) - 1
            }
        }
    }
}

/// `ξ_{2p}^t` for `p ≥ 1` via Eq. (2), recursing until the Eq. (4) base case.
fn even(shape: TreeShape, p: u64) -> u64 {
    let m = shape.branching();
    debug_assert!(p >= 1 && 2 * p <= shape.leaves());
    match shape.subtree() {
        None => {
            // Single level, t = m: Eq. 4.
            1 + m - 2 * p
        }
        Some(child) => {
            let tm = child.leaves(); // t/m
            let capped = p.min(tm);
            let mut sum: u64 = 1;
            for i in 0..m {
                let child_k = 2 * ((capped + i) / m);
                sum += eval(child, child_k);
            }
            let penalty = 2 * p.saturating_sub(tm);
            sum - penalty
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::SearchTimeTable;

    #[test]
    fn agrees_with_exact_dp() {
        for (m, n) in [
            (2u64, 1u32),
            (2, 3),
            (2, 6),
            (3, 1),
            (3, 3),
            (4, 3),
            (5, 2),
            (8, 2),
        ] {
            let shape = TreeShape::new(m, n).unwrap();
            let table = SearchTimeTable::compute(shape).unwrap();
            for k in 0..=shape.leaves() {
                assert_eq!(
                    xi_divide(shape, k).unwrap(),
                    table.xi(k).unwrap(),
                    "m={m} n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn scales_to_deep_trees() {
        // ξ_2^t = m·log_m(t) − 1 even for trees with 2^40 leaves.
        let shape = TreeShape::new(2, 40).unwrap();
        assert_eq!(xi_divide(shape, 2).unwrap(), 79);
        // ξ_t^t needs k = t which overflows the argument space only at the
        // top; pick full activity on a 3^20 tree.
        let shape = TreeShape::new(3, 20).unwrap();
        let t = shape.leaves();
        assert_eq!(xi_divide(shape, t).unwrap(), (t - 1) / 2);
    }

    #[test]
    fn rejects_k_beyond_t() {
        let shape = TreeShape::new(2, 2).unwrap();
        assert_eq!(
            xi_divide(shape, 5),
            Err(TreeError::TooManyActiveLeaves { k: 5, t: 4 })
        );
    }

    #[test]
    fn base_cases() {
        let shape = TreeShape::new(7, 1).unwrap();
        assert_eq!(xi_divide(shape, 0).unwrap(), 1);
        assert_eq!(xi_divide(shape, 1).unwrap(), 0);
        assert_eq!(xi_divide(shape, 2).unwrap(), 6); // 1 + 7 − 2
        assert_eq!(xi_divide(shape, 3).unwrap(), 5);
    }
}
