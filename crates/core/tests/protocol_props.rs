//! Property-based tests of the CSMA/DDCR station automaton, driven
//! manually against an ideal channel (no engine, so the properties are
//! about the protocol logic alone).

use ddcr_core::{DdcrConfig, DdcrStation, StaticAllocation};
use ddcr_sim::{
    Action, ClassId, Frame, MediumConfig, Message, MessageId, Observation, SourceId, Station, Ticks,
};
use proptest::prelude::*;

const SLOT: u64 = 512;

/// Drives `stations` until all queues drain (or the step cap), asserting
/// replica agreement at every slot; returns deliveries in channel order.
fn drive(
    stations: &mut [DdcrStation],
    mut arrivals: Vec<Message>,
    max_steps: u64,
) -> Vec<(MessageId, Ticks)> {
    arrivals.sort_by_key(|m| (m.arrival, m.id));
    let mut deliveries = Vec::new();
    let mut now = Ticks::ZERO;
    let mut next = 0usize;
    let mut step = 0u64;
    while next < arrivals.len() || stations.iter().any(|s| s.backlog() > 0) {
        assert!(step < max_steps, "failed to drain within {max_steps} slots");
        step += 1;
        while next < arrivals.len() && arrivals[next].arrival <= now {
            let m = arrivals[next];
            stations[m.source.0 as usize].deliver(m);
            next += 1;
        }
        let frames: Vec<Frame> = stations
            .iter_mut()
            .filter_map(|s| match s.poll(now) {
                Action::Transmit(f) => Some(f),
                Action::Idle => None,
            })
            .collect();
        let (obs, advance) = match frames.len() {
            0 => (Observation::Silence, Ticks(SLOT)),
            1 => (Observation::Busy(frames[0]), frames[0].duration()),
            _ => (Observation::Collision { survivor: None }, Ticks(SLOT)),
        };
        let next_free = now + advance;
        if let Observation::Busy(f) = obs {
            deliveries.push((f.message.id, next_free));
        }
        for s in stations.iter_mut() {
            s.observe(now, next_free, &obs);
        }
        let digests: Vec<String> = stations.iter().map(|s| s.shared_state_digest()).collect();
        for d in &digests[1..] {
            assert_eq!(&digests[0], d, "replica divergence at t = {now}");
        }
        now = next_free;
    }
    deliveries
}

fn stations(z: u32, c: u64) -> Vec<DdcrStation> {
    let config = DdcrConfig::for_sources(z, Ticks(c)).unwrap();
    let allocation = StaticAllocation::round_robin(config.static_tree, z).unwrap();
    (0..z)
        .map(|i| {
            DdcrStation::new(
                SourceId(i),
                config,
                &allocation,
                MediumConfig::ethernet().overhead_bits,
            )
            .unwrap()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any batch of messages with in-horizon deadlines drains, exactly
    /// once each, with consistent replicas throughout.
    #[test]
    fn random_workloads_drain_exactly_once(
        z in 2u32..=6,
        specs in prop::collection::vec(
            (0u64..2_000_000, 200_000u64..6_000_000, 1_000u64..20_000),
            1..24,
        ),
    ) {
        let mut sts = stations(z, 100_000);
        let arrivals: Vec<Message> = specs
            .iter()
            .enumerate()
            .map(|(i, &(arrival, deadline, bits))| Message {
                id: MessageId(i as u64),
                source: SourceId(i as u32 % z),
                class: ClassId(0),
                bits,
                arrival: Ticks(arrival),
                deadline: Ticks(deadline),
            })
            .collect();
        let n = arrivals.len();
        let deliveries = drive(&mut sts, arrivals, 2_000_000);
        prop_assert_eq!(deliveries.len(), n);
        let mut ids: Vec<u64> = deliveries.iter().map(|(id, _)| id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), n, "duplicate deliveries");
    }

    /// A simultaneous burst whose absolute deadlines are pairwise separated
    /// by at least 2c (and all within the scheduling horizon) is delivered
    /// in exact EDF order — the distributed NP-EDF emulation in its
    /// cleanest observable form.
    #[test]
    fn separated_deadlines_deliver_in_edf_order(
        z in 2u32..=6,
        perm_seed in any::<u64>(),
        count in 2usize..=6,
    ) {
        let c = 100_000u64;
        let mut sts = stations(z, c);
        // Distinct deadline classes: d_i = (3 + 3i)·c, all well inside the
        // 64-class horizon.
        let mut order: Vec<usize> = (0..count).collect();
        // Deterministic shuffle from the seed.
        let mut s = perm_seed;
        for i in (1..order.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            order.swap(i, (s >> 33) as usize % (i + 1));
        }
        let arrivals: Vec<Message> = order
            .iter()
            .enumerate()
            .map(|(idx, &rank)| Message {
                id: MessageId(idx as u64),
                source: SourceId(idx as u32 % z),
                class: ClassId(0),
                bits: 8_000,
                arrival: Ticks(0),
                deadline: Ticks((3 + 3 * rank as u64) * c),
            })
            .collect();
        // Sources must be distinct for a pure cross-source EDF test; skip
        // cases where two messages share a source (local EDF handles those
        // trivially anyway).
        prop_assume!(count <= z as usize);
        let expected: Vec<u64> = {
            let mut sorted: Vec<&Message> = arrivals.iter().collect();
            sorted.sort_by_key(|m| m.absolute_deadline());
            sorted.iter().map(|m| m.id.0).collect()
        };
        let deliveries = drive(&mut sts, arrivals, 500_000);
        let got: Vec<u64> = deliveries.iter().map(|(id, _)| id.0).collect();
        prop_assert_eq!(got, expected, "EDF order violated");
    }

    /// Idle stations never transmit and never collide, whatever the
    /// configuration.
    #[test]
    fn idle_network_stays_silent(
        z in 2u32..=8,
        c in 10_000u64..1_000_000,
        theta in 0u64..8,
    ) {
        let config = DdcrConfig::for_sources(z, Ticks(c))
            .unwrap()
            .with_compressed_time(theta);
        let allocation = StaticAllocation::one_per_source(config.static_tree, z).unwrap();
        let mut sts: Vec<DdcrStation> = (0..z)
            .map(|i| DdcrStation::new(SourceId(i), config, &allocation, 208).unwrap())
            .collect();
        let mut now = Ticks::ZERO;
        for _ in 0..200 {
            for s in sts.iter_mut() {
                prop_assert_eq!(s.poll(now), Action::Idle);
            }
            let next_free = now + Ticks(SLOT);
            for s in sts.iter_mut() {
                s.observe(now, next_free, &Observation::Silence);
            }
            now = next_free;
        }
    }
}
