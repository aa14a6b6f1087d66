//! Deterministic random number generation for reproducible simulations.
//!
//! Every stochastic component (Poisson arrivals, binary-exponential-backoff
//! draws, jitter) takes an explicit seed and derives its stream from it, so
//! a run is a pure function of `(configuration, seed)`. The determinism
//! property is asserted by integration tests.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Creates a deterministic RNG from a 64-bit seed.
///
/// # Examples
///
/// ```
/// use ddcr_sim::rng::seeded_rng;
/// use rand::Rng;
///
/// let mut a = seeded_rng(42);
/// let mut b = seeded_rng(42);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Derives a distinct child seed from a parent seed and an index, so
/// per-station or per-class streams never collide (SplitMix64 finaliser).
pub fn derive_seed(parent: u64, index: u64) -> u64 {
    mix(parent.wrapping_add(GAMMA.wrapping_mul(index.wrapping_add(1))))
}

/// SplitMix64's Weyl increment: draw `i` of a lane mixes
/// `lane + GAMMA·(i + 1)`.
pub(crate) const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64's output finaliser. Always inlined, so the vectorized fault
/// scans (see [`crate::fault`]) compile it under their own target
/// features.
#[inline(always)]
pub(crate) fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives the seed for sweep job number `job_index` from a master seed.
///
/// Domain-separated from [`derive_seed`] (which partitions a *run's* seed
/// into per-station / per-class streams) so a sweep job's seed can itself
/// be split with `derive_seed` without colliding with sibling jobs. The
/// result depends only on `(master_seed, job_index)` — never on worker
/// count, thread identity, or completion order — which is what makes
/// parallel sweeps bitwise reproducible.
pub fn job_seed(master_seed: u64, job_index: u64) -> u64 {
    // Distinct fixed tweak keeps the job-seed space disjoint from the
    // per-station space of `derive_seed(master_seed, ..)`.
    derive_seed(master_seed ^ 0x5EED_10B5_0000_0001, job_index)
}

/// Derives the seed for fault-injection lane `lane` (one lane per fault
/// kind) from a run's master seed.
///
/// Domain-separated from both [`derive_seed`] and [`job_seed`] by its own
/// fixed tweak, so enabling fault injection never perturbs the arrival or
/// backoff streams of the run it is injected into — a faulty run and its
/// clean twin see identical workloads.
pub fn fault_seed(master_seed: u64, lane: u64) -> u64 {
    derive_seed(master_seed ^ 0xFA17_0CA5_0000_0003, lane)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn same_seed_same_stream() {
        let mut a = seeded_rng(7);
        let mut b = seeded_rng(7);
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = seeded_rng(7);
        let mut b = seeded_rng(8);
        let same = (0..16).filter(|_| a.gen::<u64>() == b.gen::<u64>()).count();
        assert!(same < 16);
    }

    #[test]
    fn job_seeds_are_deterministic_and_domain_separated() {
        assert_eq!(job_seed(42, 7), job_seed(42, 7));
        assert_ne!(job_seed(42, 7), job_seed(42, 8));
        assert_ne!(job_seed(42, 7), job_seed(43, 7));
        // Disjoint from the per-station derivation space.
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000 {
            seen.insert(derive_seed(42, i));
        }
        for i in 0..1000 {
            assert!(!seen.contains(&job_seed(42, i)), "domain collision at {i}");
        }
    }

    #[test]
    fn fault_seeds_are_deterministic_and_domain_separated() {
        assert_eq!(fault_seed(42, 1), fault_seed(42, 1));
        assert_ne!(fault_seed(42, 1), fault_seed(42, 2));
        assert_ne!(fault_seed(42, 1), fault_seed(43, 1));
        // Disjoint from both the per-station and the job-seed spaces.
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000 {
            seen.insert(derive_seed(42, i));
            seen.insert(job_seed(42, i));
        }
        for i in 0..1000 {
            assert!(
                !seen.contains(&fault_seed(42, i)),
                "domain collision at {i}"
            );
        }
    }

    #[test]
    fn derived_seeds_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000 {
            assert!(seen.insert(derive_seed(42, i)), "collision at index {i}");
        }
        // And differ across parents.
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }
}
