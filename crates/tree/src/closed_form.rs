//! Closed-form expressions for `ξ_k^t` — Eq. (5)–(10) and Eq. (15).
//!
//! The paper derives from the divide-and-conquer recursion the closed form
//! (Eq. 10, for `t = m^n`):
//!
//! ```text
//! ξ_k^t = (m^⌈log_m(m⌊k/2⌋)⌉ − 1)/(m − 1)
//!         + m⌊k/2⌋·⌊log_m(t / (m⌊k/2⌋))⌋
//!         − (k − m⌊k/2⌋)                      k ∈ [2, t]
//! ξ_1^t = 0,  ξ_0^t = 1
//! ```
//!
//! evaluated here in **exact integer arithmetic** (the floor logarithm of the
//! rational `t/(m⌊k/2⌋)` is negative whenever `m⌊k/2⌋ > t`, which the naive
//! float evaluation gets wrong near boundaries). The named special values of
//! Eq. (5)–(8) and the linear tail Eq. (15) are exposed as separate
//! functions so that callers — and the paper's identities — can be checked
//! one by one.

use crate::error::TreeError;
use crate::geometry::{ceil_log, checked_pow, floor_log, floor_log_ratio, TreeShape};

/// Exact `ξ_k^t` by the closed form of Eq. (10).
///
/// This is `O(log t)` per evaluation and agrees with the dynamic program of
/// [`crate::exact`] and the recursion of [`crate::divide`] on every input
/// (property-tested).
///
/// # Errors
///
/// Returns [`TreeError::TooManyActiveLeaves`] if `k > t` and
/// [`TreeError::Overflow`] if an intermediate power exceeds `u64`.
///
/// # Examples
///
/// ```
/// use ddcr_tree::{closed_form, TreeShape};
///
/// # fn main() -> Result<(), ddcr_tree::TreeError> {
/// let shape = TreeShape::new(4, 3)?; // Fig. 1's 64-leaf quaternary tree
/// assert_eq!(closed_form::xi_closed(shape, 2)?, 11);
/// assert_eq!(closed_form::xi_closed(shape, 32)?, 21 + 64 - 2 * 64 / 4); // Eq. 6
/// assert_eq!(closed_form::xi_closed(shape, 64)?, 21); // Eq. 7
/// # Ok(())
/// # }
/// ```
pub fn xi_closed(shape: TreeShape, k: u64) -> Result<u64, TreeError> {
    let m = shape.branching();
    let t = shape.leaves();
    if k > t {
        return Err(TreeError::TooManyActiveLeaves { k, t });
    }
    match k {
        0 => return Ok(1),
        1 => return Ok(0),
        _ => {}
    }
    let h = k / 2; // ⌊k/2⌋ ≥ 1
    let mh = m.checked_mul(h).ok_or(TreeError::Overflow {
        m,
        n: shape.height(),
    })?;
    let e = ceil_log(m, mh);
    let pow = checked_pow(m, e).ok_or(TreeError::Overflow {
        m,
        n: shape.height(),
    })?;
    let first = ((pow - 1) / (m - 1)) as i64;
    let second = mh as i64 * floor_log_ratio(m, t, mh);
    let third = k as i64 - mh as i64;
    let xi = first + second - third;
    debug_assert!(xi >= 0, "closed form went negative: m={m} t={t} k={k}");
    Ok(xi as u64)
}

/// Eq. (5): `ξ_2^t = m·log_m(t) − 1`, the worst-case time to isolate two
/// active leaves (the cost driving the time-tree term `S_2` of the
/// feasibility conditions).
pub fn xi_two(shape: TreeShape) -> u64 {
    shape.branching() * u64::from(shape.height()) - 1
}

/// Eq. (6): `ξ_{2t/m}^t = (t−1)/(m−1) + (t − 2t/m)`, the peak of the exact
/// curve (the active-leaf count with the costliest worst case).
pub fn xi_peak(shape: TreeShape) -> u64 {
    let t = shape.leaves();
    let m = shape.branching();
    (t - 1) / (m - 1) + (t - 2 * t / m)
}

/// The abscissa of the peak, `k = 2t/m`.
pub fn peak_k(shape: TreeShape) -> u64 {
    2 * shape.leaves() / shape.branching()
}

/// Eq. (7): `ξ_t^t = (t−1)/(m−1)` — with every leaf active, each internal
/// node collides exactly once and there are `(t−1)/(m−1)` of them.
pub fn xi_full(shape: TreeShape) -> u64 {
    shape.internal_nodes()
}

/// Eq. (8): the "derivative" `ξ_{2p+2}^t − ξ_{2p}^t
/// = m(log_m(t) − ⌊log_m(mp)⌋) − 2` for `p ∈ [1, ⌊t/2⌋ − 1]`.
///
/// # Panics
///
/// Panics if `p` is outside `[1, ⌊t/2⌋ − 1]`.
pub fn xi_derivative(shape: TreeShape, p: u64) -> i64 {
    let t = shape.leaves();
    let m = shape.branching();
    assert!(
        (1..t / 2).contains(&p),
        "Eq. 8 requires p in [1, t/2 - 1], got p={p} for t={t}"
    );
    m as i64 * (i64::from(shape.height()) - i64::from(floor_log(m, m * p))) - 2
}

/// Eq. (15): for `k ∈ [2t/m, t]` the exact function is the straight line
/// `ξ_k^t = (mt − 1)/(m − 1) − k` (so no asymptotic bound is needed there).
///
/// # Errors
///
/// Returns [`TreeError::TooManyActiveLeaves`] if `k` lies outside
/// `[2t/m, t]`.
pub fn xi_tail(shape: TreeShape, k: u64) -> Result<u64, TreeError> {
    let t = shape.leaves();
    let m = shape.branching();
    if !(2 * t / m..=t).contains(&k) {
        return Err(TreeError::TooManyActiveLeaves { k, t });
    }
    Ok((m * t - 1) / (m - 1) - k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::SearchTimeTable;

    #[test]
    fn closed_form_matches_dp_everywhere() {
        for (m, n) in [
            (2u64, 1u32),
            (2, 4),
            (2, 6),
            (3, 1),
            (3, 4),
            (4, 3),
            (5, 2),
            (6, 2),
            (9, 2),
        ] {
            let shape = TreeShape::new(m, n).unwrap();
            let table = SearchTimeTable::compute(shape).unwrap();
            for k in 0..=shape.leaves() {
                assert_eq!(
                    xi_closed(shape, k).unwrap(),
                    table.xi(k).unwrap(),
                    "m={m} n={n} k={k}"
                );
            }
        }
    }

    #[test]
    fn named_special_values_consistent_with_closed_form() {
        for (m, n) in [(2u64, 6u32), (4, 3), (3, 3)] {
            let shape = TreeShape::new(m, n).unwrap();
            assert_eq!(xi_closed(shape, 2).unwrap(), xi_two(shape));
            assert_eq!(xi_closed(shape, peak_k(shape)).unwrap(), xi_peak(shape));
            assert_eq!(xi_closed(shape, shape.leaves()).unwrap(), xi_full(shape));
        }
    }

    #[test]
    fn derivative_matches_differences() {
        let shape = TreeShape::new(4, 3).unwrap();
        let table = SearchTimeTable::compute(shape).unwrap();
        for p in 1..shape.leaves() / 2 {
            let diff = table.xi(2 * p + 2).unwrap() as i64 - table.xi(2 * p).unwrap() as i64;
            assert_eq!(diff, xi_derivative(shape, p), "p={p}");
        }
    }

    #[test]
    fn tail_agrees_and_rejects_outside() {
        let shape = TreeShape::new(4, 3).unwrap();
        for k in 32..=64 {
            assert_eq!(
                xi_tail(shape, k).unwrap(),
                xi_closed(shape, k).unwrap(),
                "k={k}"
            );
        }
        assert!(xi_tail(shape, 31).is_err());
        assert!(xi_tail(shape, 65).is_err());
    }

    #[test]
    fn paper_fig2_claim_quaternary_beats_binary() {
        // Paper: ξ_k^64 (m=4) ≤ ξ_k^64 (m=2) for all k ∈ [2, 64].
        let bin = TreeShape::new(2, 6).unwrap();
        let quad = TreeShape::new(4, 3).unwrap();
        for k in 2..=64 {
            assert!(
                xi_closed(quad, k).unwrap() <= xi_closed(bin, k).unwrap(),
                "k={k}"
            );
        }
    }

    #[test]
    fn rejects_k_beyond_t() {
        let shape = TreeShape::new(2, 3).unwrap();
        assert!(xi_closed(shape, 9).is_err());
    }

    #[test]
    fn base_cases() {
        let shape = TreeShape::new(2, 3).unwrap();
        assert_eq!(xi_closed(shape, 0).unwrap(), 1);
        assert_eq!(xi_closed(shape, 1).unwrap(), 0);
    }

    #[test]
    #[should_panic(expected = "Eq. 8 requires")]
    fn derivative_rejects_p_zero() {
        xi_derivative(TreeShape::new(2, 3).unwrap(), 0);
    }
}
