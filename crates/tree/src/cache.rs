//! Process-wide memoized search-time tables.
//!
//! Experiment sweeps run many `(protocol, scenario, seed)` jobs that all
//! need the same worst-case tables `ξ_k^t` (Eq. 1) and expected tables
//! `A_t(k)` for a handful of tree shapes. Recomputing the `O(t²)` dynamic
//! program per run is pure waste: the tables are pure functions of
//! [`TreeShape`]. This module caches them once per process behind a
//! `std::sync::RwLock`-guarded map, shared safely across sweep worker
//! threads. The maps only ever gain complete entries, so a lock poisoned
//! by a panicking thread still guards a consistent map and is recovered.
//!
//! Two counter sets make cache behaviour observable:
//!
//! * **global** hit/miss counters (process lifetime, all threads), and
//! * **thread-local** counters, which a sweep worker can snapshot before
//!   and after a job to attribute cache traffic to that job exactly
//!   (each worker runs one job at a time).
//!
//! Lookups return `Arc`s, so a hit is a pointer clone — no table copy.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::average::ExpectedSearchTable;
use crate::error::TreeError;
use crate::exact::SearchTimeTable;
use crate::geometry::TreeShape;
use crate::multi::{ExactOptimum, MultiTreeProblem};

/// Snapshot of cache traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute a table.
    pub misses: u64,
}

impl CacheStats {
    /// Counter difference `self - earlier` (for per-job attribution).
    #[must_use]
    pub fn since(&self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - earlier.hits,
            misses: self.misses - earlier.misses,
        }
    }
}

thread_local! {
    static THREAD_HITS: Cell<u64> = const { Cell::new(0) };
    static THREAD_MISSES: Cell<u64> = const { Cell::new(0) };
}

/// Memoized store of per-shape analysis tables.
///
/// Most callers want the process-wide [`global`] instance; separate
/// instances exist for tests that need isolated counters.
#[derive(Debug, Default)]
pub struct TableCache {
    worst: RwLock<HashMap<TreeShape, Arc<SearchTimeTable>>>,
    expected: RwLock<HashMap<TreeShape, Arc<ExpectedSearchTable>>>,
    multi_exacts: RwLock<HashMap<MultiTreeProblem, Arc<ExactOptimum>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl TableCache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new() -> Self {
        TableCache::default()
    }

    /// The worst-case table `ξ_·^t` for `shape`, computed at most once per
    /// cache instance.
    ///
    /// # Errors
    ///
    /// Propagates [`TreeError`] from [`SearchTimeTable::compute`] on the
    /// first (computing) lookup of a shape.
    pub fn worst_case(&self, shape: TreeShape) -> Result<Arc<SearchTimeTable>, TreeError> {
        if let Some(table) = read(&self.worst).get(&shape) {
            self.count(true);
            return Ok(Arc::clone(table));
        }
        // Compute outside the write lock; a racing thread may compute the
        // same table, in which case the first insert wins and both results
        // are identical (the table is a pure function of the shape).
        let computed = Arc::new(SearchTimeTable::compute(shape)?);
        self.count(false);
        let mut map = write(&self.worst);
        Ok(Arc::clone(map.entry(shape).or_insert(computed)))
    }

    /// The expected-case table `A_t(·)` for `shape`, computed at most once
    /// per cache instance.
    ///
    /// # Errors
    ///
    /// Propagates [`TreeError`] from [`ExpectedSearchTable::compute`] on
    /// the first (computing) lookup of a shape.
    pub fn expected(&self, shape: TreeShape) -> Result<Arc<ExpectedSearchTable>, TreeError> {
        if let Some(table) = read(&self.expected).get(&shape) {
            self.count(true);
            return Ok(Arc::clone(table));
        }
        let computed = Arc::new(ExpectedSearchTable::compute(shape)?);
        self.count(false);
        let mut map = write(&self.expected);
        Ok(Arc::clone(map.entry(shape).or_insert(computed)))
    }

    /// Memoized `ξ_k^t` (equivalent to [`crate::exact::xi_exact`], minus
    /// the recomputation).
    ///
    /// # Errors
    ///
    /// Propagates table-construction errors and
    /// [`TreeError::TooManyActiveLeaves`] for `k > t`.
    pub fn xi(&self, shape: TreeShape, k: u64) -> Result<u64, TreeError> {
        self.worst_case(shape)?.xi(k)
    }

    /// Memoized P2 exact optimum ([`MultiTreeProblem::exact_optimum`]),
    /// computed at most once per cache instance.
    ///
    /// The `O(v·u·t)` dynamic program itself pulls its `ξ_k^t` table
    /// through the process-wide [`global`] cache, so a computing lookup on
    /// a non-global instance still counts one global table lookup.
    ///
    /// # Errors
    ///
    /// Propagates [`TreeError`] from the first (computing) lookup.
    pub fn multi_exact(&self, problem: MultiTreeProblem) -> Result<Arc<ExactOptimum>, TreeError> {
        if let Some(optimum) = read(&self.multi_exacts).get(&problem) {
            self.count(true);
            return Ok(Arc::clone(optimum));
        }
        let computed = Arc::new(problem.exact_optimum()?);
        self.count(false);
        let mut map = write(&self.multi_exacts);
        Ok(Arc::clone(map.entry(problem).or_insert(computed)))
    }

    /// Number of distinct entries currently cached (all kinds).
    #[must_use]
    pub fn entries(&self) -> usize {
        read(&self.worst).len() + read(&self.expected).len() + read(&self.multi_exacts).len()
    }

    /// Global (all-thread) hit/miss counters for this cache instance.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    fn count(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            THREAD_HITS.with(|c| c.set(c.get() + 1));
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            THREAD_MISSES.with(|c| c.set(c.get() + 1));
        }
    }
}

/// Shared access to a cache map, recovering a poisoned lock (see the
/// module docs).
pub(crate) fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

/// Exclusive access to a cache map, recovering a poisoned lock.
pub(crate) fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

/// The process-wide cache used by sweeps and experiment binaries.
pub fn global() -> &'static TableCache {
    static GLOBAL: OnceLock<TableCache> = OnceLock::new();
    GLOBAL.get_or_init(TableCache::new)
}

/// This thread's cumulative hit/miss counters (across *all* cache
/// instances it touched). Snapshot before and after a job and subtract
/// ([`CacheStats::since`]) to attribute traffic to the job.
#[must_use]
pub fn thread_stats() -> CacheStats {
    CacheStats {
        hits: THREAD_HITS.with(Cell::get),
        misses: THREAD_MISSES.with(Cell::get),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn second_lookup_hits() {
        let cache = TableCache::new();
        let shape = TreeShape::new(4, 3).unwrap();
        let first = cache.worst_case(shape).unwrap();
        let second = cache.worst_case(shape).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn cached_xi_matches_fresh_computation() {
        let cache = TableCache::new();
        for (m, n) in [(2u64, 5u32), (3, 3), (4, 3)] {
            let shape = TreeShape::new(m, n).unwrap();
            let fresh = SearchTimeTable::compute(shape).unwrap();
            for k in 0..=shape.leaves() {
                assert_eq!(cache.xi(shape, k).unwrap(), fresh.xi(k).unwrap());
            }
        }
    }

    #[test]
    fn expected_tables_are_shared() {
        let cache = TableCache::new();
        let shape = TreeShape::new(2, 4).unwrap();
        let a = cache.expected(shape).unwrap();
        let b = cache.expected(shape).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn errors_propagate_and_are_not_cached() {
        let cache = TableCache::new();
        let huge = TreeShape::new(2, 25).unwrap();
        assert!(cache.worst_case(huge).is_err());
        assert_eq!(cache.entries(), 0);
    }

    #[test]
    fn thread_stats_attribute_traffic() {
        let cache = TableCache::new();
        let shape = TreeShape::new(3, 2).unwrap();
        let before = thread_stats();
        cache.worst_case(shape).unwrap();
        cache.worst_case(shape).unwrap();
        let delta = thread_stats().since(before);
        assert_eq!(delta, CacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn xi_lookups_are_memoized_and_counted() {
        let cache = TableCache::new();
        let shape = TreeShape::new(2, 4).unwrap();
        let first = cache.xi(shape, 10).unwrap();
        let second = cache.xi(shape, 10).unwrap();
        assert_eq!(first, second, "cached xi must be exact");
        assert_eq!(
            first,
            SearchTimeTable::compute(shape).unwrap().xi(10).unwrap()
        );
        assert_eq!(cache.stats(), CacheStats { hits: 1, misses: 1 });
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn multi_exacts_are_shared_and_match_fresh_computation() {
        let cache = TableCache::new();
        let shape = TreeShape::new(2, 4).unwrap();
        let problem = MultiTreeProblem::new(shape, 14, 3).unwrap();
        let a = cache.multi_exact(problem).unwrap();
        let b = cache.multi_exact(problem).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(*a, problem.exact_optimum().unwrap());
    }

    #[test]
    fn distinct_multi_problems_get_distinct_entries() {
        let cache = TableCache::new();
        let shape = TreeShape::new(2, 4).unwrap();
        let a = MultiTreeProblem::new(shape, 10, 3).unwrap();
        let b = MultiTreeProblem::new(shape, 12, 3).unwrap();
        cache.multi_exact(a).unwrap();
        cache.multi_exact(b).unwrap();
        assert_eq!(cache.entries(), 2);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn distinct_shapes_get_distinct_tables() {
        let cache = TableCache::new();
        let a = cache.worst_case(TreeShape::new(2, 3).unwrap()).unwrap();
        let b = cache.worst_case(TreeShape::new(4, 2).unwrap()).unwrap();
        assert_ne!(a.shape(), b.shape());
        assert_eq!(cache.stats().misses, 2);
    }
}
