//! Direct construction of worst-case leaf placements.
//!
//! [`crate::search::worst_case_exhaustive`] proves achievability of
//! `ξ_k^t` by brute force over all `binomial(t, k)` subsets, which caps out
//! around 30 leaves. This module constructs a worst-case witness
//! **directly** by tracing back the Eq. (1) dynamic program: at every
//! internal node, the active-leaf count is split over the `m` children by
//! the composition maximising the children's summed worst cases (a
//! max-plus knapsack over the child table), recursively. The result is an
//! explicit subset whose replayed search costs exactly `ξ_k^t`, for trees
//! far beyond exhaustive reach (tested to `t = 4096`).

use crate::error::TreeError;
use crate::exact::SearchTimeTable;
use crate::geometry::TreeShape;
use std::sync::Arc;

/// Constructs a set of `k` leaves whose deterministic search costs exactly
/// `ξ_k^t`, in `O(k·t)` time after an `O(t²)` table build.
///
/// # Errors
///
/// Returns [`TreeError::TooManyActiveLeaves`] if `k > t` and propagates
/// table-construction failures for oversized trees.
///
/// # Examples
///
/// ```
/// use ddcr_tree::{closed_form, search, witness, TreeShape};
///
/// # fn main() -> Result<(), ddcr_tree::TreeError> {
/// let shape = TreeShape::new(4, 3)?; // 64-leaf quaternary tree
/// let leaves = witness::worst_case_witness(shape, 10)?;
/// let replay = search::search_active_leaves(shape, &leaves)?;
/// assert_eq!(replay.search_slots(), closed_form::xi_closed(shape, 10)?);
/// # Ok(())
/// # }
/// ```
pub fn worst_case_witness(shape: TreeShape, k: u64) -> Result<Vec<u64>, TreeError> {
    let t = shape.leaves();
    if k > t {
        return Err(TreeError::TooManyActiveLeaves { k, t });
    }
    // One exact table per subtree height (they are shared across siblings,
    // and across calls via the process-wide cache).
    let mut tables: Vec<Arc<SearchTimeTable>> = Vec::with_capacity(shape.height() as usize);
    let mut cur = Some(shape);
    while let Some(s) = cur {
        tables.push(crate::cache::global().worst_case(s)?);
        cur = s.subtree();
    }
    // tables[0] is the full tree, tables[last] the single-level subtree.
    let mut out = Vec::with_capacity(k as usize);
    place(&tables, 0, 0, k, &mut out);
    Ok(out)
}

/// Recursively places `k` active leaves under the subtree at `offset`,
/// whose table is `tables[depth]`.
fn place(tables: &[Arc<SearchTimeTable>], depth: usize, offset: u64, k: u64, out: &mut Vec<u64>) {
    let shape = tables[depth].shape();
    let t = shape.leaves();
    debug_assert!(k <= t);
    if k == 0 {
        return;
    }
    if k == 1 {
        out.push(offset);
        return;
    }
    if depth + 1 == tables.len() {
        // Single level: any k distinct leaves realise 1 + m − k… every
        // placement is equivalent, take the leftmost k.
        out.extend(offset..offset + k);
        return;
    }
    let child = &tables[depth + 1];
    let s = child.shape().leaves();
    let m = shape.branching() as usize;
    // Knapsack over children: dp[x] = best Σ ξ over the first j children
    // using x active leaves; traceback recovers the worst composition.
    const NEG: i64 = i64::MIN / 4;
    let k = k as usize;
    let mut dp = vec![NEG; k + 1];
    dp[0] = 0;
    let mut choice = vec![vec![0u64; k + 1]; m];
    for choice_j in choice.iter_mut() {
        let mut next = vec![NEG; k + 1];
        #[allow(clippy::needless_range_loop)] // dp[x] read and indexed from nx
        for x in 0..=k {
            if dp[x] == NEG {
                continue;
            }
            let cap = s.min((k - x) as u64);
            for kj in 0..=cap {
                let cand = dp[x] + child.xi(kj).expect("kj <= s") as i64;
                let nx = x + kj as usize;
                if cand > next[nx] {
                    next[nx] = cand;
                    choice_j[nx] = kj;
                }
            }
        }
        dp = next;
    }
    // Traceback, then recurse left to right.
    let mut parts = vec![0u64; m];
    let mut x = k;
    for j in (0..m).rev() {
        parts[j] = choice[j][x];
        x -= parts[j] as usize;
    }
    debug_assert_eq!(x, 0);
    for (j, &kj) in parts.iter().enumerate() {
        place(tables, depth + 1, offset + j as u64 * s, kj, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closed_form::xi_closed;
    use crate::search::{search_active_leaves, worst_case_exhaustive};

    #[test]
    fn witness_achieves_xi_on_small_trees() {
        for (m, n) in [(2u64, 3u32), (3, 2), (4, 2), (2, 4)] {
            let shape = TreeShape::new(m, n).unwrap();
            for k in 0..=shape.leaves() {
                let witness = worst_case_witness(shape, k).unwrap();
                assert_eq!(witness.len() as u64, k);
                let cost = search_active_leaves(shape, &witness)
                    .unwrap()
                    .search_slots();
                assert_eq!(cost, xi_closed(shape, k).unwrap(), "m={m} n={n} k={k}");
            }
        }
    }

    #[test]
    fn witness_matches_exhaustive_optimum() {
        let shape = TreeShape::new(2, 4).unwrap();
        for k in 0..=16u64 {
            let (best, _) = worst_case_exhaustive(shape, k).unwrap();
            let witness = worst_case_witness(shape, k).unwrap();
            let cost = search_active_leaves(shape, &witness)
                .unwrap()
                .search_slots();
            assert_eq!(cost, best, "k={k}");
        }
    }

    #[test]
    fn witness_achieves_xi_on_large_trees() {
        // Far beyond exhaustive reach: 4096-leaf trees.
        for (m, n) in [(2u64, 12u32), (4, 6), (8, 4)] {
            let shape = TreeShape::new(m, n).unwrap();
            let t = shape.leaves();
            for k in [2u64, 3, 17, t / 5, 2 * t / m, t - 1, t] {
                let witness = worst_case_witness(shape, k).unwrap();
                let cost = search_active_leaves(shape, &witness)
                    .unwrap()
                    .search_slots();
                assert_eq!(cost, xi_closed(shape, k).unwrap(), "m={m} n={n} k={k}");
            }
        }
    }

    #[test]
    fn witness_leaves_are_unique_and_in_range() {
        let shape = TreeShape::new(4, 3).unwrap();
        let witness = worst_case_witness(shape, 23).unwrap();
        let mut sorted = witness.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 23);
        assert!(sorted.iter().all(|&l| l < 64));
    }

    #[test]
    fn rejects_k_beyond_t() {
        let shape = TreeShape::new(2, 2).unwrap();
        assert!(worst_case_witness(shape, 5).is_err());
    }

    #[test]
    fn degenerate_cases() {
        let shape = TreeShape::new(3, 2).unwrap();
        assert!(worst_case_witness(shape, 0).unwrap().is_empty());
        assert_eq!(worst_case_witness(shape, 1).unwrap(), vec![0]);
    }
}
