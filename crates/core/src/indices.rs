//! Static index allocation: the partition of the static tree's `q` leaves
//! over the `z` sources (§3.2).
//!
//! The paper allocates a subset `q' ⊆ [0, q−1]` of static leaves,
//! partitioned into exactly `z` subsets; source `s_i` owns `ν_i` indices,
//! locally ranked by increasing value. In one STs execution a source may
//! transmit up to `ν_i` messages, which is why `ν_i` appears directly in
//! the feasibility bound `v(M) = 1 + ⌊r(M)/ν_i⌋`.

use crate::error::DdcrError;
use ddcr_sim::SourceId;
use ddcr_tree::TreeShape;
use serde::{Deserialize, Serialize};

/// An allocation of static-tree leaf indices to sources.
///
/// Invariants (enforced at construction): indices are unique across
/// sources, within `[0, q)`, each source's list is sorted increasing, and
/// every source owns at least one index.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StaticAllocation {
    q: u64,
    per_source: Vec<Vec<u64>>,
}

impl StaticAllocation {
    /// Builds an allocation from explicit per-source index lists.
    ///
    /// # Errors
    ///
    /// Returns [`DdcrError::InvalidAllocation`] if any source has no index,
    /// an index repeats or exceeds `q − 1`.
    pub fn new(static_tree: TreeShape, per_source: Vec<Vec<u64>>) -> Result<Self, DdcrError> {
        let q = static_tree.leaves();
        let mut seen = std::collections::HashSet::new();
        for (source, indices) in per_source.iter().enumerate() {
            if indices.is_empty() {
                return Err(DdcrError::InvalidAllocation(format!(
                    "source {source} has no static index"
                )));
            }
            let mut prev: Option<u64> = None;
            for &idx in indices {
                if idx >= q {
                    return Err(DdcrError::InvalidAllocation(format!(
                        "source {source}: index {idx} outside [0, {q})"
                    )));
                }
                if !seen.insert(idx) {
                    return Err(DdcrError::InvalidAllocation(format!(
                        "index {idx} allocated twice"
                    )));
                }
                if let Some(p) = prev {
                    if idx <= p {
                        return Err(DdcrError::InvalidAllocation(format!(
                            "source {source}: indices must be ranked increasing"
                        )));
                    }
                }
                prev = Some(idx);
            }
        }
        Ok(StaticAllocation { q, per_source })
    }

    /// One index per source: source `i` owns leaf `i`. The minimal
    /// allocation (`ν_i = 1` for all `i`).
    ///
    /// # Errors
    ///
    /// Returns [`DdcrError::InvalidAllocation`] if `z = 0` or `z > q`.
    pub fn one_per_source(static_tree: TreeShape, z: u32) -> Result<Self, DdcrError> {
        if z == 0 || u64::from(z) > static_tree.leaves() {
            return Err(DdcrError::InvalidAllocation(format!(
                "need 1 ≤ z ≤ q, got z={z}, q={}",
                static_tree.leaves()
            )));
        }
        Self::new(static_tree, (0..u64::from(z)).map(|i| vec![i]).collect())
    }

    /// Splits all `q` leaves round-robin over `z` sources: source `i` owns
    /// `{i, i+z, i+2z, …}`, giving every source `ν_i = ⌈(q−i)/z⌉` indices
    /// spread across the whole tree (which spreads a source's
    /// intra-STs transmissions over the search, letting it transmit several
    /// messages per search).
    ///
    /// # Errors
    ///
    /// Returns [`DdcrError::InvalidAllocation`] if `z` is zero or exceeds
    /// `q`.
    pub fn round_robin(static_tree: TreeShape, z: u32) -> Result<Self, DdcrError> {
        let q = static_tree.leaves();
        if z == 0 || u64::from(z) > q {
            return Err(DdcrError::InvalidAllocation(format!(
                "need 1 ≤ z ≤ q, got z={z}, q={q}"
            )));
        }
        let per_source = (0..u64::from(z))
            .map(|i| (i..q).step_by(z as usize).collect())
            .collect();
        Self::new(static_tree, per_source)
    }

    /// Gives each of `z` sources `ν` consecutive leaves: source `i` owns
    /// `[i·ν, (i+1)·ν)`.
    ///
    /// # Errors
    ///
    /// Returns [`DdcrError::InvalidAllocation`] if `z·ν > q` or `ν = 0`.
    pub fn contiguous(static_tree: TreeShape, z: u32, nu: u64) -> Result<Self, DdcrError> {
        let q = static_tree.leaves();
        if z == 0 || nu == 0 || u64::from(z) * nu > q {
            return Err(DdcrError::InvalidAllocation(format!(
                "need z ≥ 1, ν ≥ 1 and z·ν ≤ q, got z={z}, ν={nu}, q={q}"
            )));
        }
        let per_source = (0..u64::from(z))
            .map(|i| (i * nu..(i + 1) * nu).collect())
            .collect();
        Self::new(static_tree, per_source)
    }

    /// Number of static leaves `q`.
    pub fn leaves(&self) -> u64 {
        self.q
    }

    /// Number of sources `z` covered by this allocation.
    pub fn sources(&self) -> u32 {
        self.per_source.len() as u32
    }

    /// The ranked indices of one source.
    ///
    /// # Panics
    ///
    /// Panics if `source` is outside the allocation.
    pub fn indices_of(&self, source: SourceId) -> &[u64] {
        &self.per_source[source.0 as usize]
    }

    /// `ν_i`: how many indices one source owns.
    ///
    /// # Panics
    ///
    /// Panics if `source` is outside the allocation.
    pub fn nu(&self, source: SourceId) -> u64 {
        self.per_source[source.0 as usize].len() as u64
    }

    /// The source owning a given static leaf, if any.
    ///
    /// Consistent under online reclamation: once
    /// [`StaticAllocation::reclaim`] empties a source's list, no leaf
    /// reports that source as owner — a reclaimed leaf is free (or owned by
    /// whoever it was re-granted to) with no stale answers.
    pub fn owner_of(&self, leaf: u64) -> Option<SourceId> {
        self.per_source
            .iter()
            .position(|indices| indices.binary_search(&leaf).is_ok())
            .map(|i| SourceId(i as u32))
    }

    /// An allocation covering `z` sources in which **no** source owns a
    /// leaf yet — the starting point of a dynamic-membership fabric where
    /// every station must [`StaticAllocation::grant`] its way in.
    ///
    /// Such partial allocations deliberately relax the "every source owns
    /// at least one index" invariant of [`StaticAllocation::new`]: a source
    /// with `ν_i = 0` is *detached* and must not transmit in STs (the
    /// feasibility layer refuses its flows with a typed error).
    pub fn detached(static_tree: TreeShape, z: u32) -> Self {
        StaticAllocation {
            q: static_tree.leaves(),
            per_source: vec![Vec::new(); z as usize],
        }
    }

    /// Grants `leaves` to `source`, which must currently own none (a
    /// joining or re-joining station). The allocation grows to cover
    /// `source` if needed.
    ///
    /// # Errors
    ///
    /// Returns [`DdcrError::InvalidAllocation`] if `source` already owns
    /// indices, a leaf is out of range or already owned, the list is empty,
    /// or not ranked strictly increasing.
    pub fn grant(&mut self, source: SourceId, leaves: Vec<u64>) -> Result<(), DdcrError> {
        if leaves.is_empty() {
            return Err(DdcrError::InvalidAllocation(format!(
                "grant to source {} must carry at least one leaf",
                source.0
            )));
        }
        let idx = source.0 as usize;
        if self.per_source.get(idx).is_some_and(|l| !l.is_empty()) {
            return Err(DdcrError::InvalidAllocation(format!(
                "source {} already owns {} indices",
                source.0,
                self.per_source[idx].len()
            )));
        }
        let mut prev: Option<u64> = None;
        for &leaf in &leaves {
            if leaf >= self.q {
                return Err(DdcrError::InvalidAllocation(format!(
                    "leaf {leaf} outside [0, {})",
                    self.q
                )));
            }
            if let Some(owner) = self.owner_of(leaf) {
                return Err(DdcrError::InvalidAllocation(format!(
                    "leaf {leaf} already owned by source {}",
                    owner.0
                )));
            }
            if prev.is_some_and(|p| leaf <= p) {
                return Err(DdcrError::InvalidAllocation(format!(
                    "grant to source {}: leaves must be ranked increasing",
                    source.0
                )));
            }
            prev = Some(leaf);
        }
        if self.per_source.len() <= idx {
            self.per_source.resize(idx + 1, Vec::new());
        }
        self.per_source[idx] = leaves;
        Ok(())
    }

    /// Reclaims every leaf of `source` (a leaving or crashed station),
    /// returning the reclaimed list. After this call `owner_of` reports
    /// none of those leaves as owned and `nu(source)` is zero.
    ///
    /// # Errors
    ///
    /// Returns [`DdcrError::InvalidAllocation`] if `source` is outside the
    /// allocation.
    pub fn reclaim(&mut self, source: SourceId) -> Result<Vec<u64>, DdcrError> {
        let idx = source.0 as usize;
        match self.per_source.get_mut(idx) {
            Some(list) => Ok(std::mem::take(list)),
            None => Err(DdcrError::InvalidAllocation(format!(
                "source {} outside allocation of {} sources",
                source.0,
                self.per_source.len()
            ))),
        }
    }

    /// Every unowned static leaf, ascending — the pool a join draws from.
    pub fn free_leaves(&self) -> Vec<u64> {
        let mut owned = vec![false; self.q as usize];
        for list in &self.per_source {
            for &leaf in list {
                owned[leaf as usize] = true;
            }
        }
        (0..self.q).filter(|&l| !owned[l as usize]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(q: u64) -> TreeShape {
        TreeShape::from_leaves(4, q).unwrap_or_else(|_| TreeShape::from_leaves(2, q).unwrap())
    }

    #[test]
    fn one_per_source_allocates_prefix() {
        let a = StaticAllocation::one_per_source(tree(16), 5).unwrap();
        assert_eq!(a.sources(), 5);
        assert_eq!(a.indices_of(SourceId(3)), &[3]);
        assert_eq!(a.nu(SourceId(0)), 1);
        assert_eq!(a.owner_of(4), Some(SourceId(4)));
        assert_eq!(a.owner_of(5), None);
    }

    #[test]
    fn round_robin_interleaves() {
        let a = StaticAllocation::round_robin(tree(16), 4).unwrap();
        assert_eq!(a.indices_of(SourceId(1)), &[1, 5, 9, 13]);
        assert_eq!(a.nu(SourceId(1)), 4);
        assert_eq!(a.owner_of(9), Some(SourceId(1)));
    }

    #[test]
    fn contiguous_blocks() {
        let a = StaticAllocation::contiguous(tree(16), 3, 4).unwrap();
        assert_eq!(a.indices_of(SourceId(2)), &[8, 9, 10, 11]);
        assert_eq!(a.owner_of(15), None); // leaves beyond 3·4 unallocated
    }

    #[test]
    fn rejects_overlap_and_range() {
        let t = tree(4);
        assert!(StaticAllocation::new(t, vec![vec![0], vec![0]]).is_err());
        assert!(StaticAllocation::new(t, vec![vec![4]]).is_err());
        assert!(StaticAllocation::new(t, vec![vec![]]).is_err());
        assert!(StaticAllocation::new(t, vec![vec![2, 1]]).is_err());
    }

    #[test]
    fn rejects_too_many_sources() {
        assert!(StaticAllocation::one_per_source(tree(4), 5).is_err());
        assert!(StaticAllocation::round_robin(tree(4), 0).is_err());
        assert!(StaticAllocation::contiguous(tree(4), 3, 2).is_err());
    }

    #[test]
    fn rejects_zero_sources() {
        // Regression: z = 0 used to build a degenerate empty allocation
        // silently in one_per_source and contiguous.
        assert!(StaticAllocation::one_per_source(tree(4), 0).is_err());
        assert!(StaticAllocation::contiguous(tree(4), 0, 1).is_err());
        assert!(StaticAllocation::contiguous(tree(4), 2, 0).is_err());
    }

    #[test]
    fn reclaim_leaves_no_stale_owner() {
        let mut a = StaticAllocation::round_robin(tree(16), 4).unwrap();
        assert_eq!(a.owner_of(9), Some(SourceId(1)));
        let reclaimed = a.reclaim(SourceId(1)).unwrap();
        assert_eq!(reclaimed, vec![1, 5, 9, 13]);
        assert_eq!(a.nu(SourceId(1)), 0);
        for leaf in reclaimed {
            assert_eq!(a.owner_of(leaf), None, "stale owner for leaf {leaf}");
        }
        assert!(a.reclaim(SourceId(9)).is_err());
    }

    #[test]
    fn grant_reuses_reclaimed_leaves() {
        let mut a = StaticAllocation::contiguous(tree(16), 3, 4).unwrap();
        let freed = a.reclaim(SourceId(0)).unwrap();
        assert_eq!(a.free_leaves(), vec![0, 1, 2, 3, 12, 13, 14, 15]);
        // Double-grant and overlap rejected.
        assert!(a.grant(SourceId(1), vec![0]).is_err());
        assert!(a.grant(SourceId(0), vec![4]).is_err());
        assert!(a.grant(SourceId(0), vec![]).is_err());
        assert!(a.grant(SourceId(0), vec![3, 3]).is_err());
        assert!(a.grant(SourceId(0), vec![99]).is_err());
        a.grant(SourceId(0), freed).unwrap();
        assert_eq!(a.indices_of(SourceId(0)), &[0, 1, 2, 3]);
        assert_eq!(a.owner_of(0), Some(SourceId(0)));
    }

    #[test]
    fn detached_allocation_grows_by_grant() {
        let mut a = StaticAllocation::detached(tree(16), 2);
        assert_eq!(a.sources(), 2);
        assert_eq!(a.nu(SourceId(0)), 0);
        assert_eq!(a.free_leaves().len(), 16);
        a.grant(SourceId(3), vec![7]).unwrap();
        assert_eq!(a.sources(), 4);
        assert_eq!(a.owner_of(7), Some(SourceId(3)));
    }

    #[test]
    fn not_all_leaves_need_allocation() {
        // q' ⊂ [0, q−1] is allowed (paper: "not all q integers need be
        // allocated").
        let a = StaticAllocation::new(tree(16), vec![vec![2, 7], vec![11]]).unwrap();
        assert_eq!(a.nu(SourceId(0)), 2);
        assert_eq!(a.owner_of(3), None);
    }
}
