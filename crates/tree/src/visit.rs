//! Pre-split visit-sequence synthesis: the search as the *protocol* runs it.
//!
//! [`crate::search::search_active_leaves`] replays the textbook rooted
//! search of Eq. (1), where a root with `k ≥ 2` active leaves costs one
//! collision slot before the split. The CSMA/DDCR automaton never pays that
//! slot: the collision that *triggered* the resolution already happened on
//! the channel, so the replicated search starts with the root's `m`
//! children on its stack and probes them directly. This module synthesizes
//! that **pre-split** visit sequence — the exact per-slot probe order a
//! live tree search produces on the wire — and relates its cost to the
//! rooted quantity `ξ_k^t`:
//!
//! * `k ≥ 2` — pre-split cost = rooted cost − 1 (the root collision is
//!   never probed);
//! * `k = 1` — the rooted search transmits free at the root (cost 0), the
//!   pre-split search pays `m − 1` empty probes around the lone success;
//! * `k = 0` — one rooted empty slot becomes `m` empty child probes.
//!
//! [`presplit_worst_case`] lifts the same relation to the worst case, and
//! [`VisitCache`] memoizes synthesized sequences for the differential
//! harnesses that replay many searches over the same few leaf sets.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use crate::cache::{read, write, CacheStats};
use crate::error::TreeError;
use crate::geometry::TreeShape;
use crate::search::{search_active_leaves, SearchOutcome};

/// Synthesizes the pre-split visit sequence over the given active leaves:
/// the probe-by-probe channel schedule of a live protocol tree search,
/// starting from the root's `m` children (the root itself is never probed).
///
/// The returned [`SearchOutcome`] counts collision and empty slots exactly
/// as the replicated automaton observes them, and lists probes in channel
/// order.
///
/// # Errors
///
/// Returns [`TreeError::LeafOutOfRange`] if any leaf index is `≥ t`.
/// Duplicate leaf indices are tolerated (a set is formed internally).
///
/// # Examples
///
/// ```
/// use ddcr_tree::{search, visit, TreeShape};
///
/// # fn main() -> Result<(), ddcr_tree::TreeError> {
/// let shape = TreeShape::new(2, 2)?; // 4 leaves
/// let rooted = search::search_active_leaves(shape, &[0, 1])?;
/// let live = visit::presplit_active_leaves(shape, &[0, 1])?;
/// // The live search skips the root collision the channel already paid.
/// assert_eq!(live.search_slots(), rooted.search_slots() - 1);
/// assert_eq!(live.transmissions, rooted.transmissions);
/// # Ok(())
/// # }
/// ```
pub fn presplit_active_leaves(
    shape: TreeShape,
    active: &[u64],
) -> Result<SearchOutcome, TreeError> {
    let rooted = search_active_leaves(shape, active)?;
    let mut sorted: Vec<u64> = active.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    if sorted.len() >= 2 {
        // The rooted probe sequence opens with the root collision; the live
        // search runs the identical schedule from the second probe on.
        return Ok(SearchOutcome {
            collision_slots: rooted.collision_slots - 1,
            empty_slots: rooted.empty_slots,
            transmissions: rooted.transmissions,
            probes: rooted.probes[1..].to_vec(),
        });
    }
    // 0 or 1 active leaves: the rooted search never splits, so synthesize
    // the m child probes directly.
    let m = shape.branching();
    let child = shape.leaves() / m;
    let mut out = SearchOutcome {
        collision_slots: 0,
        empty_slots: 0,
        transmissions: Vec::with_capacity(sorted.len()),
        probes: Vec::new(),
    };
    for i in 0..m {
        let sub = search_active_leaves_in(i * child, child, &sorted, &mut out);
        debug_assert!(sub <= 1);
    }
    Ok(out)
}

/// Probes one root-child interval for the degenerate `k ≤ 1` case (at most
/// one active leaf overall, so every child resolves in a single probe),
/// accumulating into `out`; returns the number of active leaves seen.
fn search_active_leaves_in(lo: u64, width: u64, sorted: &[u64], out: &mut SearchOutcome) -> u64 {
    let begin = sorted.partition_point(|&x| x < lo);
    let end = sorted.partition_point(|&x| x < lo + width);
    let slice = &sorted[begin..end];
    match slice.len() {
        0 => {
            out.empty_slots += 1;
            out.probes.push(crate::search::Probe {
                lo,
                width,
                outcome: crate::search::ProbeOutcome::Empty,
            });
        }
        1 => {
            let leaf = slice[0];
            out.transmissions.push(leaf);
            out.probes.push(crate::search::Probe {
                lo,
                width,
                outcome: crate::search::ProbeOutcome::Success { leaf },
            });
        }
        _ => unreachable!("caller guarantees k ≤ 1 overall"),
    }
    slice.len() as u64
}

/// Worst-case pre-split search cost over all `k`-subsets of leaves: the
/// exact per-search slot count a live tree search can exhibit, related to
/// the rooted `ξ_k^t` by the root-probe discount.
///
/// # Errors
///
/// Propagates table-construction errors and
/// [`TreeError::TooManyActiveLeaves`] for `k > t`.
pub fn presplit_worst_case(shape: TreeShape, k: u64) -> Result<u64, TreeError> {
    let m = shape.branching();
    match k {
        0 => Ok(m),
        1 => Ok(m - 1),
        _ => Ok(crate::cache::global().xi(shape, k)? - 1),
    }
}

/// Bounded memo of synthesized pre-split visit sequences.
///
/// Differential harnesses replay many runs over the same few leaf sets
/// (bisection matrices sweep stepper configurations, not workloads), so the
/// sequences are worth caching — but unlike the per-shape tables in
/// [`crate::cache`], the key space `(shape, leaf set)` is unbounded.
/// The cache therefore holds at most `max_entries` sequences; lookups past
/// capacity still compute (and count as misses), they just aren't retained.
#[derive(Debug)]
pub struct VisitCache {
    max_entries: usize,
    map: RwLock<VisitMap>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Memo storage: one synthesized outcome per `(shape, leaf set)` key.
type VisitMap = HashMap<(TreeShape, Vec<u64>), Arc<SearchOutcome>>;

impl VisitCache {
    /// Creates a cache retaining at most `max_entries` sequences.
    #[must_use]
    pub fn new(max_entries: usize) -> Self {
        VisitCache {
            max_entries,
            map: RwLock::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The pre-split visit sequence for `(shape, active)`, memoized.
    ///
    /// The key is the *set* of leaves (sorted, deduplicated), so permuted
    /// or duplicated inputs hit the same entry.
    ///
    /// # Errors
    ///
    /// Propagates [`TreeError::LeafOutOfRange`] from the synthesis on a
    /// computing lookup; errors are not cached.
    pub fn presplit(
        &self,
        shape: TreeShape,
        active: &[u64],
    ) -> Result<Arc<SearchOutcome>, TreeError> {
        let mut leaves: Vec<u64> = active.to_vec();
        leaves.sort_unstable();
        leaves.dedup();
        let key = (shape, leaves);
        if let Some(cached) = read(&self.map).get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(cached));
        }
        let computed = Arc::new(presplit_active_leaves(shape, &key.1)?);
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut map = write(&self.map);
        if map.len() < self.max_entries {
            return Ok(Arc::clone(map.entry(key).or_insert(computed)));
        }
        Ok(computed)
    }

    /// Number of sequences currently retained.
    #[must_use]
    pub fn entries(&self) -> usize {
        read(&self.map).len()
    }

    /// Hit/miss counters for this cache instance.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::{worst_case_exhaustive, ProbeOutcome};

    #[test]
    fn presplit_discounts_exactly_one_root_collision() {
        let shape = TreeShape::new(2, 4).unwrap();
        let subsets: Vec<Vec<u64>> = vec![
            vec![0, 15],
            vec![0, 1, 2, 3],
            vec![0, 4, 8, 12],
            vec![5, 6, 7, 8, 9],
            (0..16).collect(),
        ];
        for s in subsets {
            let rooted = search_active_leaves(shape, &s).unwrap();
            let live = presplit_active_leaves(shape, &s).unwrap();
            assert_eq!(live.search_slots(), rooted.search_slots() - 1);
            assert_eq!(live.collision_slots, rooted.collision_slots - 1);
            assert_eq!(live.empty_slots, rooted.empty_slots);
            assert_eq!(live.transmissions, rooted.transmissions);
            assert_eq!(live.probes.as_slice(), &rooted.probes[1..]);
        }
    }

    #[test]
    fn singleton_pays_m_minus_one_empty_probes() {
        for (m, n) in [(2u64, 3u32), (3, 2), (4, 2)] {
            let shape = TreeShape::new(m, n).unwrap();
            for leaf in 0..shape.leaves() {
                let live = presplit_active_leaves(shape, &[leaf]).unwrap();
                assert_eq!(live.search_slots(), m - 1, "m={m} leaf={leaf}");
                assert_eq!(live.empty_slots, m - 1);
                assert_eq!(live.transmissions, vec![leaf]);
            }
        }
    }

    #[test]
    fn empty_set_pays_m_empty_probes() {
        for (m, n) in [(2u64, 3u32), (3, 2), (4, 2)] {
            let shape = TreeShape::new(m, n).unwrap();
            let live = presplit_active_leaves(shape, &[]).unwrap();
            assert_eq!(live.search_slots(), m);
            assert!(live.probes.iter().all(|p| p.outcome == ProbeOutcome::Empty));
        }
    }

    #[test]
    fn probe_schedule_opens_with_the_root_children_in_order() {
        let shape = TreeShape::new(3, 2).unwrap(); // 9 leaves, children of 3
        let live = presplit_active_leaves(shape, &[0, 4]).unwrap();
        assert_eq!((live.probes[0].lo, live.probes[0].width), (0, 3));
        // Child 0 holds one leaf (free success, still a probe record), so
        // the next probed interval is child 1.
        let second_interval = live
            .probes
            .iter()
            .find(|p| p.lo == 3)
            .expect("child 1 probed");
        assert_eq!(second_interval.width, 3);
    }

    #[test]
    fn worst_case_matches_exhaustive_presplit_maximum() {
        for (m, n) in [(2u64, 3u32), (3, 2)] {
            let shape = TreeShape::new(m, n).unwrap();
            for k in 0..=shape.leaves() {
                let expected = presplit_worst_case(shape, k).unwrap();
                if k >= 2 {
                    let (rooted_worst, witness) = worst_case_exhaustive(shape, k).unwrap();
                    let live = presplit_active_leaves(shape, &witness).unwrap();
                    assert_eq!(live.search_slots(), rooted_worst - 1);
                    assert_eq!(expected, rooted_worst - 1, "m={m} k={k}");
                } else {
                    assert_eq!(expected, if k == 0 { m } else { m - 1 });
                }
            }
        }
    }

    #[test]
    fn cache_hits_on_permuted_and_duplicated_inputs() {
        let cache = VisitCache::new(8);
        let shape = TreeShape::new(2, 3).unwrap();
        let a = cache.presplit(shape, &[5, 1, 3]).unwrap();
        let b = cache.presplit(shape, &[3, 1, 5, 1]).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn cache_stops_retaining_at_capacity_but_keeps_computing() {
        let cache = VisitCache::new(2);
        let shape = TreeShape::new(2, 3).unwrap();
        for leaf in 0..5u64 {
            let out = cache.presplit(shape, &[leaf, leaf + 1]).unwrap();
            assert_eq!(out.transmissions, vec![leaf, leaf + 1]);
        }
        assert_eq!(cache.entries(), 2);
        assert_eq!(cache.stats().misses, 5);
        // Retained entries still hit.
        cache.presplit(shape, &[0, 1]).unwrap();
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn out_of_range_leaf_rejected_and_not_cached() {
        let cache = VisitCache::new(8);
        let shape = TreeShape::new(2, 2).unwrap();
        assert!(cache.presplit(shape, &[9]).is_err());
        assert_eq!(cache.entries(), 0);
    }
}
