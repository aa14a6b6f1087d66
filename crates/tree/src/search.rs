//! Ground-truth m-ary tree search over explicit active-leaf sets.
//!
//! [`search_active_leaves`] replays the deterministic depth-first
//! collision-resolution search described in section 3.2 ("Principles of
//! m-ary tree search m-ts") over a concrete set of active leaves, counting
//! collision slots and empty slots exactly as the paper's `ξ` accounting
//! does: *"Search times are expressed in numbers of tree nodes visited
//! (collision slots) or empty channel slots […]. Successful transmissions do
//! not contribute to search times."*
//!
//! [`worst_case_exhaustive`] then maximises that measured cost over **all**
//! `binomial(t, k)` leaf subsets, providing an independent oracle for the
//! recursive definition Eq. (1) — this is how the crate proves that the DP,
//! the divide-and-conquer recursion and the closed form all compute the same
//! quantity the search actually exhibits, and that the bound is *achievable*
//! (tight), not merely an upper bound.

use crate::error::TreeError;
use crate::geometry::TreeShape;

/// What the channel reports for one probe of a subtree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProbeOutcome {
    /// No active leaf in the probed subtree: one empty channel slot.
    Empty,
    /// Exactly one active leaf: a successful transmission (free).
    Success {
        /// The isolated leaf.
        leaf: u64,
    },
    /// Two or more active leaves: a collision slot; the search splits.
    Collision,
}

/// One probe of the deterministic search: the subtree interval examined and
/// the channel outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Probe {
    /// First leaf of the probed subtree.
    pub lo: u64,
    /// Number of leaves of the probed subtree.
    pub width: u64,
    /// Channel outcome of the probe.
    pub outcome: ProbeOutcome,
}

/// Complete outcome of a deterministic tree search over a known leaf set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchOutcome {
    /// Number of collision slots (tree nodes visited with ≥2 active leaves).
    pub collision_slots: u64,
    /// Number of empty channel slots (subtrees with no active leaf).
    pub empty_slots: u64,
    /// Leaves isolated, in transmission order (left to right).
    pub transmissions: Vec<u64>,
    /// The full probe sequence, in channel order.
    pub probes: Vec<Probe>,
}

impl SearchOutcome {
    /// Total search time in slots: `collision_slots + empty_slots`
    /// (successes are free), i.e. the quantity bounded by `ξ_k^t`.
    pub fn search_slots(&self) -> u64 {
        self.collision_slots + self.empty_slots
    }
}

/// Replays the deterministic m-ary search over the given active leaves and
/// returns exact slot accounting plus the probe trace.
///
/// The search starts at the root: with `k ≥ 2` the root itself is a
/// collision slot (in the protocol this is the collision that triggered the
/// resolution), with `k == 1` the lone message goes through free, and with
/// `k == 0` one empty slot is heard — exactly the base cases of Eq. (1).
///
/// # Errors
///
/// Returns [`TreeError::LeafOutOfRange`] if any leaf index is `≥ t`.
/// Duplicate leaf indices are tolerated (a set is formed internally).
///
/// # Examples
///
/// ```
/// use ddcr_tree::{search, TreeShape};
///
/// # fn main() -> Result<(), ddcr_tree::TreeError> {
/// let shape = TreeShape::new(2, 2)?; // 4 leaves
/// let out = search::search_active_leaves(shape, &[0, 1])?;
/// assert_eq!(out.transmissions, vec![0, 1]);
/// // Root collision, left-subtree collision, then two free successes and
/// // one empty probe of the right subtree: ξ_2^4 = 3 slots, achieved.
/// assert_eq!(out.search_slots(), 3);
/// # Ok(())
/// # }
/// ```
pub fn search_active_leaves(shape: TreeShape, active: &[u64]) -> Result<SearchOutcome, TreeError> {
    let t = shape.leaves();
    for &leaf in active {
        if leaf >= t {
            return Err(TreeError::LeafOutOfRange { leaf, t });
        }
    }
    let mut sorted: Vec<u64> = active.to_vec();
    sorted.sort_unstable();
    sorted.dedup();

    let mut out = SearchOutcome {
        collision_slots: 0,
        empty_slots: 0,
        transmissions: Vec::with_capacity(sorted.len()),
        probes: Vec::new(),
    };
    visit(shape.branching(), 0, t, &sorted, &mut out);
    Ok(out)
}

/// Depth-first visit of the subtree holding leaves `[lo, lo+width)`.
fn visit(m: u64, lo: u64, width: u64, sorted: &[u64], out: &mut SearchOutcome) {
    let begin = sorted.partition_point(|&x| x < lo);
    let end = sorted.partition_point(|&x| x < lo + width);
    let count = (end - begin) as u64;
    match count {
        0 => {
            out.empty_slots += 1;
            out.probes.push(Probe {
                lo,
                width,
                outcome: ProbeOutcome::Empty,
            });
        }
        1 => {
            let leaf = sorted[begin];
            out.transmissions.push(leaf);
            out.probes.push(Probe {
                lo,
                width,
                outcome: ProbeOutcome::Success { leaf },
            });
        }
        _ => {
            out.collision_slots += 1;
            out.probes.push(Probe {
                lo,
                width,
                outcome: ProbeOutcome::Collision,
            });
            let child = width / m;
            debug_assert!(
                child >= 1,
                "collision on a single leaf set of distinct leaves"
            );
            for i in 0..m {
                visit(m, lo + i * child, child, sorted, out);
            }
        }
    }
}

/// Exhaustively maximises the measured search time over every `k`-subset of
/// leaves, returning the worst cost and one witness subset.
///
/// This is `O(binomial(t, k))` searches — use small trees (the tests use
/// `t ≤ 27`). The returned cost equals `ξ_k^t` (tightness of Eq. 1).
///
/// # Errors
///
/// Returns [`TreeError::TooManyActiveLeaves`] if `k > t`.
pub fn worst_case_exhaustive(shape: TreeShape, k: u64) -> Result<(u64, Vec<u64>), TreeError> {
    let t = shape.leaves();
    if k > t {
        return Err(TreeError::TooManyActiveLeaves { k, t });
    }
    if k == 0 {
        return Ok((1, vec![]));
    }
    let mut best = 0u64;
    let mut witness = Vec::new();
    let mut subset: Vec<u64> = (0..k).collect();
    loop {
        let outcome = search_active_leaves(shape, &subset)?;
        let cost = outcome.search_slots();
        if cost > best || witness.is_empty() {
            best = cost;
            witness = subset.clone();
        }
        if !next_combination(&mut subset, t) {
            break;
        }
    }
    Ok((best, witness))
}

/// Advances `subset` to the next k-combination of `[0, t)` in lexicographic
/// order; returns `false` when exhausted.
fn next_combination(subset: &mut [u64], t: u64) -> bool {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::closed_form::xi_closed;
    use crate::exact::SearchTimeTable;

    #[test]
    fn empty_set_costs_one_slot() {
        let shape = TreeShape::new(2, 3).unwrap();
        let out = search_active_leaves(shape, &[]).unwrap();
        assert_eq!(out.search_slots(), 1);
        assert_eq!(out.empty_slots, 1);
        assert!(out.transmissions.is_empty());
    }

    #[test]
    fn singleton_transmits_free() {
        let shape = TreeShape::new(2, 3).unwrap();
        for leaf in 0..8 {
            let out = search_active_leaves(shape, &[leaf]).unwrap();
            assert_eq!(out.search_slots(), 0);
            assert_eq!(out.transmissions, vec![leaf]);
        }
    }

    #[test]
    fn transmissions_left_to_right() {
        let shape = TreeShape::new(2, 3).unwrap();
        let out = search_active_leaves(shape, &[6, 1, 4]).unwrap();
        assert_eq!(out.transmissions, vec![1, 4, 6]);
    }

    #[test]
    fn duplicates_are_deduplicated() {
        let shape = TreeShape::new(2, 2).unwrap();
        let a = search_active_leaves(shape, &[1, 1, 3]).unwrap();
        let b = search_active_leaves(shape, &[1, 3]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn out_of_range_leaf_rejected() {
        let shape = TreeShape::new(2, 2).unwrap();
        assert_eq!(
            search_active_leaves(shape, &[4]),
            Err(TreeError::LeafOutOfRange { leaf: 4, t: 4 })
        );
    }

    #[test]
    fn measured_cost_never_exceeds_xi() {
        // Random-ish structured subsets on a 16-leaf binary tree.
        let shape = TreeShape::new(2, 4).unwrap();
        let table = SearchTimeTable::compute(shape).unwrap();
        let subsets: Vec<Vec<u64>> = vec![
            vec![0, 15],
            vec![0, 1, 2, 3],
            vec![0, 4, 8, 12],
            vec![5, 6, 7, 8, 9],
            (0..16).collect(),
        ];
        for s in subsets {
            let out = search_active_leaves(shape, &s).unwrap();
            assert!(out.search_slots() <= table.xi(s.len() as u64).unwrap());
        }
    }

    #[test]
    fn exhaustive_worst_case_equals_xi_binary_8() {
        let shape = TreeShape::new(2, 3).unwrap();
        for k in 0..=8u64 {
            let (worst, witness) = worst_case_exhaustive(shape, k).unwrap();
            assert_eq!(worst, xi_closed(shape, k).unwrap(), "k={k}");
            if k > 0 {
                assert_eq!(witness.len() as u64, k);
            }
        }
    }

    #[test]
    fn exhaustive_worst_case_equals_xi_ternary_9() {
        let shape = TreeShape::new(3, 2).unwrap();
        for k in 0..=9u64 {
            let (worst, _) = worst_case_exhaustive(shape, k).unwrap();
            assert_eq!(worst, xi_closed(shape, k).unwrap(), "k={k}");
        }
    }

    #[test]
    fn exhaustive_worst_case_equals_xi_quaternary_16() {
        let shape = TreeShape::new(4, 2).unwrap();
        for k in 0..=16u64 {
            let (worst, _) = worst_case_exhaustive(shape, k).unwrap();
            assert_eq!(worst, xi_closed(shape, k).unwrap(), "k={k}");
        }
    }

    #[test]
    fn witness_reproduces_worst_cost() {
        let shape = TreeShape::new(2, 4).unwrap();
        let (worst, witness) = worst_case_exhaustive(shape, 5).unwrap();
        let replay = search_active_leaves(shape, &witness).unwrap();
        assert_eq!(replay.search_slots(), worst);
    }

    #[test]
    fn probe_trace_accounts_for_every_slot() {
        let shape = TreeShape::new(2, 3).unwrap();
        let out = search_active_leaves(shape, &[0, 1, 5]).unwrap();
        let collisions = out
            .probes
            .iter()
            .filter(|p| p.outcome == ProbeOutcome::Collision)
            .count() as u64;
        let empties = out
            .probes
            .iter()
            .filter(|p| p.outcome == ProbeOutcome::Empty)
            .count() as u64;
        assert_eq!(collisions, out.collision_slots);
        assert_eq!(empties, out.empty_slots);
    }

    #[test]
    fn combination_iterator_is_exhaustive() {
        let mut subset = vec![0u64, 1, 2];
        let mut count = 1;
        while next_combination(&mut subset, 5) {
            count += 1;
        }
        assert_eq!(count, 10); // C(5,3)
    }
}
