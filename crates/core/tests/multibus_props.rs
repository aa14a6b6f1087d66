//! Property-based tests of the parallel-channel planner: partitions are
//! total and disjoint, balancing is sane and deterministic, and
//! feasibility composes monotonically with channel count.

use ddcr_core::{feasibility, multibus, network, DdcrConfig, StaticAllocation};
use ddcr_sim::{ClassId, MediumConfig, SourceId, Ticks};
use ddcr_traffic::{DensityBound, MessageClass, MessageSet};
use proptest::prelude::*;

fn random_set(z: u32, per_source: usize, seed: u64) -> MessageSet {
    let mut s = seed;
    let mut next = move |range: std::ops::RangeInclusive<u64>| {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        range.start() + (s >> 33) % (range.end() - range.start() + 1)
    };
    let mut classes = Vec::new();
    let mut id = 0u32;
    for src in 0..z {
        for _ in 0..per_source {
            classes.push(MessageClass {
                id: ClassId(id),
                name: format!("c{id}"),
                source: SourceId(src),
                bits: next(1_000..=16_000),
                deadline: Ticks(next(500_000..=8_000_000)),
                density: DensityBound::new(next(1..=3), Ticks(next(500_000..=4_000_000))).unwrap(),
            });
            id += 1;
        }
    }
    MessageSet::new(z, classes).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Balancing always produces a total, in-range assignment whose
    /// projections partition the class set exactly.
    #[test]
    fn balance_partitions_exactly(
        z in 2u32..6,
        per_source in 1usize..4,
        channels in 1usize..5,
        seed in any::<u64>(),
    ) {
        let set = random_set(z, per_source, seed);
        let assignment = multibus::balance_by_load(&set, channels);
        prop_assert_eq!(assignment.channels(), channels);
        let mut seen = 0usize;
        let mut total_load = 0.0;
        for channel in 0..channels {
            let projected = assignment.project(&set, channel).unwrap();
            seen += projected.classes().len();
            total_load += projected.offered_load();
            for class in projected.classes() {
                prop_assert_eq!(assignment.channel_of(class.id), channel);
            }
        }
        prop_assert_eq!(seen, set.classes().len());
        prop_assert!((total_load - set.offered_load()).abs() < 1e-9);
    }

    /// Balancing is a pure function of the set: repeated invocations
    /// produce identical assignments, and routing a schedule through the
    /// assignment twice yields identical per-channel splits.
    #[test]
    fn balance_is_deterministic(
        z in 2u32..6,
        per_source in 1usize..4,
        channels in 1usize..5,
        seed in any::<u64>(),
    ) {
        let set = random_set(z, per_source, seed);
        let first = multibus::balance_by_load(&set, channels);
        let second = multibus::balance_by_load(&set, channels);
        prop_assert_eq!(&first, &second);
    }

    /// LPT balancing: no channel carries more than the lightest channel
    /// plus one largest class (the classical LPT guarantee shape).
    #[test]
    fn balance_is_roughly_even(
        z in 2u32..6,
        per_source in 2usize..4,
        channels in 2usize..4,
        seed in any::<u64>(),
    ) {
        let set = random_set(z, per_source, seed);
        let assignment = multibus::balance_by_load(&set, channels);
        let loads: Vec<f64> = (0..channels)
            .map(|c| assignment.project(&set, c).unwrap().offered_load())
            .collect();
        let max_class = set
            .classes()
            .iter()
            .map(|c| c.offered_load())
            .fold(0.0, f64::max);
        let hi = loads.iter().cloned().fold(0.0, f64::max);
        let lo = loads.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assert!(hi <= lo + max_class + 1e-9, "{loads:?}, max class {max_class}");
    }

    /// Splitting over more channels never turns a feasible projection
    /// infeasible: per-channel minimum slack is monotone non-decreasing in
    /// the channel count when classes only ever move apart.
    #[test]
    fn single_channel_feasible_implies_multichannel_feasible(
        z in 2u32..5,
        per_source in 1usize..3,
        channels in 2usize..4,
        seed in any::<u64>(),
    ) {
        let set = random_set(z, per_source, seed);
        let medium = MediumConfig::ethernet();
        let c = network::recommended_class_width(&set, 64, &medium);
        let config = DdcrConfig::for_sources(z, c).unwrap();
        let allocation = StaticAllocation::round_robin(config.static_tree, z).unwrap();
        let single = feasibility::evaluate(&set, &config, &allocation, &medium).unwrap();
        prop_assume!(single.feasible());
        let assignment = multibus::balance_by_load(&set, channels);
        let reports =
            multibus::evaluate(&set, &assignment, &config, &allocation, &medium).unwrap();
        for report in &reports {
            prop_assert!(
                report.feasible(),
                "splitting a feasible set made a channel infeasible"
            );
        }
    }
}
