//! The one ordered fan-out executor every parallel path shares: the sweep
//! runner's grid, the multichannel runner's channels and the federation's
//! per-round segments all go through [`map_ordered`].
//!
//! Jobs are independent deterministic computations, so the only contract
//! is ordering: results come back in item order whatever the interleaving.
//! Workers self-schedule by pulling the next item from one shared cursor,
//! which keeps a long job from stalling the items queued behind it. When
//! [`workers`] resolves to 1 the jobs run inline on the caller's thread —
//! no spawn, no lock — so a serial run costs exactly its jobs.

use std::sync::{Mutex, PoisonError};

/// Threads a fan-out of `items` jobs actually runs on:
/// `min(requested, items, host parallelism)`, never below 1.
#[must_use]
pub fn workers(requested: usize, items: usize) -> usize {
    let wanted = requested.min(items);
    if wanted <= 1 {
        // Serial callers never pay for the host query (it reads cgroup
        // files on Linux), which a federation would repeat every round.
        return 1;
    }
    wanted.min(std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// Runs `job(index, item)` for every item on up to `workers` threads (see
/// [`workers`]) and returns the results in item order.
///
/// # Panics
///
/// Re-raises the first job panic observed, after every worker has stopped.
pub fn map_ordered<I, T, F>(workers: usize, items: Vec<I>, job: F) -> Vec<T>
where
    I: Send,
    T: Send,
    F: Fn(usize, I) -> T + Sync,
{
    let count = items.len();
    let threads = self::workers(workers, count);
    if threads == 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| job(i, item))
            .collect();
    }
    let queue = Mutex::new(items.into_iter().enumerate());
    let mut slots: Vec<Option<T>> = (0..count).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                        let Some((i, item)) = next else { break done };
                        done.push((i, job(i, item)));
                    }
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(done) => done
                    .into_iter()
                    .for_each(|(i, value)| slots[i] = Some(value)),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every item ran"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        for requested in [1, 2, 4, 8] {
            let parallel = workers(requested, 50) > 1;
            let finished = AtomicUsize::new(0);
            let out = map_ordered(requested, (0..50u64).collect(), |i, item| {
                // With a second thread, item 0 finishes only after every
                // other item has: completion order is never item order.
                while parallel && i == 0 && finished.load(Ordering::SeqCst) < 49 {
                    std::thread::yield_now();
                }
                finished.fetch_add(1, Ordering::SeqCst);
                (i, item * 3)
            });
            let expected: Vec<(usize, u64)> = (0..50).map(|i| (i as usize, i * 3)).collect();
            assert_eq!(out, expected, "{requested} workers");
        }
    }

    #[test]
    fn one_worker_runs_inline_on_the_caller() {
        let caller = std::thread::current().id();
        let threads = map_ordered(1, vec![(); 6], |_, ()| std::thread::current().id());
        assert!(threads.iter().all(|&id| id == caller));
        // A single item never leaves the caller either, whatever was asked.
        let one = map_ordered(16, vec![()], |_, ()| std::thread::current().id());
        assert_eq!(one, vec![caller]);
    }

    #[test]
    fn worker_count_is_clamped_to_items_and_host() {
        let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(workers(64, 3), 3.min(host));
        assert_eq!(workers(0, 10), 1);
        assert_eq!(workers(8, 0), 1);
        assert!(workers(usize::MAX, usize::MAX) <= host);
        assert!(map_ordered(8, Vec::<u8>::new(), |_, x| x).is_empty());
    }

    #[test]
    fn a_job_panic_propagates_to_the_caller() {
        for threads in [1, 4] {
            let caught = std::panic::catch_unwind(|| {
                map_ordered(threads, (0..8).collect(), |_, item: u32| {
                    assert!(item != 5, "job 5 failed");
                    item
                })
            });
            let payload = caught.expect_err("the panic must reach the caller");
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            assert!(
                message.contains("job 5 failed"),
                "{threads} workers: {message:?}"
            );
        }
    }
}
