//! ξ cross-validation: the analytic search-time theory of Eq. (1)–(10),
//! the synthesized pre-split visit sequences ([`ddcr_tree::visit`]), and
//! the stepped simulator must all report the same per-search slot counts.
//!
//! The chain has three links:
//!
//! 1. **Analytic ↔ analytic** — the DP on Eq. (1)
//!    ([`SearchTimeTable`]), the divide-and-conquer recursion Eq. (2)–(4)
//!    ([`ddcr_tree::divide::xi_divide`]) and the closed form Eq. (9)–(10)
//!    ([`ddcr_tree::closed_form::xi_closed`]) agree on every `ξ_k^t`, and
//!    the pre-split worst case is exactly `ξ_k^t − 1` for `k ≥ 2` (the
//!    root collision is paid on the channel, never probed).
//! 2. **Analytic ↔ synthesized** — for randomized leaf sets the replayed
//!    pre-split sequence costs what the rooted search costs minus the
//!    root-probe discount, and never exceeds the worst case.
//! 3. **Synthesized ↔ stepped simulator** — a DDCR network whose messages
//!    freeze onto exactly those time-tree leaves runs a live TTs whose
//!    observed per-epoch overhead (the [`SimMetrics`] ξ-window) equals the
//!    synthesized slot count, under the reference stepper; worst-case
//!    witness sets achieve `ξ_k^F − 1` on the wire.

use ddcr_core::{DdcrConfig, DdcrStation, StaticAllocation};
use ddcr_sim::{ClassId, Engine, MediumConfig, Message, MessageId, SimMetrics, SourceId, Ticks};
use ddcr_tree::closed_form::xi_closed;
use ddcr_tree::divide::xi_divide;
use ddcr_tree::search::search_active_leaves;
use ddcr_tree::visit::{presplit_active_leaves, presplit_worst_case};
use ddcr_tree::witness::worst_case_witness;
use ddcr_tree::{SearchTimeTable, TreeShape};
use proptest::prelude::*;

/// Branching degree of the default 64-leaf quaternary time tree.
const M: u64 = 4;

/// Drives a DDCR network whose `k` stations each carry one message frozen
/// onto a distinct time-tree leaf, and returns the run's metrics.
///
/// With `reft = 0` at protocol start and `α = c`, a message arriving at
/// `t = 0` with relative deadline `α + c·leaf + c/2` lands in deadline
/// class `leaf` exactly (`raw_f = ⌊(c·leaf + c/2)/c⌋ = leaf`), so the
/// first TTs resolves precisely the chosen leaf set.
fn run_leaf_set(leaves: &[u64], reference: bool) -> SimMetrics {
    let z = leaves.len() as u32;
    let config = DdcrConfig::for_sources(z, Ticks(100_000)).unwrap();
    assert_eq!(config.time_tree.leaves(), 64);
    let allocation = StaticAllocation::one_per_source(config.static_tree, z).unwrap();
    let medium = MediumConfig::ethernet();
    let mut engine = Engine::new(medium).unwrap();
    if reference {
        engine.set_fast_forward(false);
        engine.set_contention_fast_forward(false);
    }
    for i in 0..z {
        engine.add_station(Box::new(
            DdcrStation::new(SourceId(i), config, &allocation, medium.overhead_bits).unwrap(),
        ));
    }
    let (time, static_) = ddcr_core::network::xi_bound_tables(&config).unwrap();
    engine.set_xi_bounds(time, static_);
    let c = config.class_width.as_u64();
    let arrivals: Vec<Message> = leaves
        .iter()
        .enumerate()
        .map(|(i, &leaf)| Message {
            id: MessageId(i as u64),
            source: SourceId(i as u32),
            class: ClassId(0),
            bits: 1_000,
            arrival: Ticks::ZERO,
            deadline: Ticks(config.alpha.as_u64() + c * leaf + c / 2),
        })
        .collect();
    engine.add_arrivals(arrivals).unwrap();
    // Far past the search plus several idle cycles, so the contended epoch
    // closes and the post-drain idle behaviour is also observed.
    engine.run_until(Ticks(500_000));
    assert_eq!(engine.stats().delivered, leaves.len() as u64);
    engine.take_metrics().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Link 2: for arbitrary leaf sets the pre-split sequence costs the
    /// rooted cost minus the root discount, bounded by the worst case.
    #[test]
    fn presplit_matches_rooted_minus_discount(
        pick in prop::collection::vec(0u64..64, 0..12),
        shape_pick in 0usize..3,
    ) {
        let shape = [
            TreeShape::new(2, 4).unwrap(),
            TreeShape::new(3, 2).unwrap(),
            TreeShape::new(4, 3).unwrap(),
        ][shape_pick];
        let t = shape.leaves();
        let leaves: Vec<u64> = pick.iter().map(|&x| x % t).collect();
        // Duplicates are legal input to both searches (a set is formed
        // internally), so keep them in `leaves` and compare against the
        // deduplicated `set`.
        let mut set = leaves.clone();
        set.sort_unstable();
        set.dedup();
        let k = set.len() as u64;
        let m = shape.branching();

        let rooted = search_active_leaves(shape, &leaves).unwrap();
        let live = presplit_active_leaves(shape, &leaves).unwrap();
        let expected = match k {
            0 => m,
            1 => m - 1,
            _ => rooted.search_slots() - 1,
        };
        prop_assert_eq!(live.search_slots(), expected);
        prop_assert_eq!(&live.transmissions, &set);
        prop_assert!(live.search_slots() <= presplit_worst_case(shape, k).unwrap());
    }

    /// Link 3: the stepped simulator's observed TTs ξ-window equals the
    /// synthesized pre-split slot count for randomized distinct leaf sets.
    /// (Post-drain idle epochs each cost exactly `m` empty probes, hence
    /// the `max` with `m`.)
    #[test]
    fn stepped_simulator_observes_synthesized_search_cost(
        pick in prop::collection::vec(0u64..64, 1..8),
    ) {
        let mut leaves: Vec<u64> = pick;
        leaves.sort_unstable();
        leaves.dedup();
        let shape = TreeShape::new(4, 3).unwrap();
        let synthesized = presplit_active_leaves(shape, &leaves).unwrap().search_slots();

        let metrics = run_leaf_set(&leaves, true);
        prop_assert_eq!(
            metrics.max_tts_overhead,
            synthesized.max(M),
            "leaves={:?}", &leaves
        );
        // DDCR attributes every stepped slot, and the observed overhead
        // honours the analytic allowance (Eq. 1 via the envelope).
        prop_assert_eq!(metrics.phase_slots.unattributed, 0);
        prop_assert_eq!(metrics.violations_total, 0);
        prop_assert!(metrics.epochs_checked > 0);

        // The fast-forwarding engine may under-count overhead inside
        // provably silent skips, but can never over-count, and must raise
        // no violation either.
        let fast = run_leaf_set(&leaves, false);
        prop_assert!(fast.max_tts_overhead <= synthesized.max(M));
        prop_assert_eq!(fast.violations_total, 0);
    }
}

/// Link 1: every analytic route to `ξ_k^t` agrees, and the pre-split worst
/// case is the rooted worst case minus the root-collision discount.
#[test]
fn analytic_routes_agree_on_xi_and_presplit_discount() {
    for (m, n) in [(2u64, 4u32), (3, 3), (4, 3)] {
        let shape = TreeShape::new(m, n).unwrap();
        let table = SearchTimeTable::compute(shape).unwrap();
        for k in 0..=shape.leaves() {
            let dp = table.xi(k).unwrap();
            assert_eq!(dp, xi_closed(shape, k).unwrap(), "m={m} n={n} k={k}");
            assert_eq!(dp, xi_divide(shape, k).unwrap(), "m={m} n={n} k={k}");
            let presplit = presplit_worst_case(shape, k).unwrap();
            match k {
                0 => assert_eq!(presplit, m),
                1 => assert_eq!(presplit, m - 1),
                _ => assert_eq!(presplit, dp - 1, "m={m} n={n} k={k}"),
            }
        }
    }
}

/// Link 3, worst case: a witness leaf set achieving `ξ_k^F` drives the live
/// network to exactly `ξ_k^F − 1` observed overhead slots — the analytic
/// worst case is achieved on the wire, root discount included.
#[test]
fn worst_case_witness_achieves_xi_on_the_wire() {
    let shape = TreeShape::new(4, 3).unwrap();
    let table = SearchTimeTable::compute(shape).unwrap();
    for k in [2u64, 3, 5, 7] {
        let witness = worst_case_witness(shape, k).unwrap();
        assert_eq!(witness.len() as u64, k);
        let synthesized = presplit_active_leaves(shape, &witness).unwrap();
        let xi = table.xi(k).unwrap();
        assert_eq!(synthesized.search_slots(), xi - 1, "k={k}");

        let metrics = run_leaf_set(&witness, true);
        assert_eq!(
            metrics.max_tts_overhead,
            (xi - 1).max(M),
            "k={k} witness={witness:?}"
        );
        assert_eq!(metrics.violations_total, 0);
    }
}
