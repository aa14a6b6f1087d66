//! Cross-protocol and cross-layer checks: the analytic machinery
//! (ddcr-tree), the protocols (ddcr-core / ddcr-baseline) and the
//! simulator agree with one another.

use ddcr_baseline::{DcrStation, NpEdfOracle, QueueDiscipline};
use ddcr_integration::run_ddcr;
use ddcr_sim::{ClassId, Engine, MediumConfig, Message, MessageId, SourceId, Ticks};
use ddcr_traffic::scenario;
use ddcr_tree::{closed_form, TreeShape};

fn burst(z: u32, per_source: u64, bits: u64, deadline: u64) -> Vec<Message> {
    let mut out = Vec::new();
    let mut id = 0u64;
    for s in 0..z {
        for _ in 0..per_source {
            out.push(Message {
                id: MessageId(id),
                source: SourceId(s),
                class: ClassId(0),
                bits,
                arrival: Ticks(0),
                deadline: Ticks(deadline),
            });
            id += 1;
        }
    }
    out
}

/// The DCR epoch's collision count is exactly the tree-analysis value:
/// simultaneous messages from k of 8 stations collide `ξ_k^8` times
/// (the initial collision being the root).
#[test]
fn dcr_epoch_cost_matches_xi() {
    let medium = MediumConfig::ethernet();
    let shape = TreeShape::new(2, 3).unwrap();
    for k in 2u64..=8 {
        // Place the k active stations on a worst-case witness subset,
        // mirrored so the rightmost leaf (7) is active: the epoch then ends
        // exactly at the last delivery, with no trailing probes cut off by
        // run_to_completion and no post-epoch idle silence counted.
        let (expected, witness) = ddcr_tree::search::worst_case_exhaustive(shape, k).unwrap();
        let mirrored: Vec<u64> = witness.iter().map(|&leaf| 7 - leaf).collect();
        assert!(mirrored.contains(&7), "mirror must include the last leaf");

        let mut engine = Engine::new(medium).unwrap();
        for i in 0..8u32 {
            engine.add_station(Box::new(
                DcrStation::new(SourceId(i), 8, medium, QueueDiscipline::Fifo).unwrap(),
            ));
        }
        let arrivals: Vec<Message> = mirrored
            .iter()
            .enumerate()
            .map(|(i, &station)| Message {
                id: MessageId(i as u64),
                source: SourceId(station as u32),
                class: ClassId(0),
                bits: 8_000,
                arrival: Ticks(0),
                deadline: Ticks(100_000_000),
            })
            .collect();
        engine.add_arrivals(arrivals).unwrap();
        engine.run_to_completion(Ticks(1_000_000_000)).unwrap();
        // Total search slots (collision slots + empty probe slots) must be
        // exactly ξ_k^8: the protocol's epoch pays what the analysis says.
        let total_search = engine.stats().collisions + engine.stats().silence_slots;
        assert_eq!(
            total_search, expected,
            "k={k}: measured {total_search} != xi {expected}"
        );
    }
}

/// On a single-burst workload the NP-EDF oracle is a lower bound for DDCR
/// on every percentile, and both serve in global EDF order.
#[test]
fn oracle_lower_bounds_ddcr_everywhere() {
    let medium = MediumConfig::ethernet();
    let set = scenario::uniform(4, 8_000, Ticks(50_000_000), 0.3).unwrap();
    let schedule = burst(4, 3, 8_000, 50_000_000);
    let ddcr = run_ddcr(&set, schedule.clone(), medium);
    let oracle = NpEdfOracle::run_schedule(medium, schedule, Ticks(100_000_000_000)).unwrap();
    assert_eq!(ddcr.deliveries.len(), oracle.deliveries.len());
    let mut ddcr_lat: Vec<u64> = ddcr
        .deliveries
        .iter()
        .map(|d| d.latency().as_u64())
        .collect();
    let mut oracle_lat: Vec<u64> = oracle
        .deliveries
        .iter()
        .map(|d| d.latency().as_u64())
        .collect();
    ddcr_lat.sort_unstable();
    oracle_lat.sort_unstable();
    for (o, d) in oracle_lat.iter().zip(&ddcr_lat) {
        assert!(o <= d, "oracle percentile {o} above ddcr {d}");
    }
}

/// Cross-protocol smoke test over a spread of workloads: the NP-EDF
/// oracle (centralized, zero contention, deadline-optimal among
/// non-preemptive work-conserving schedulers) never reports **more**
/// misses than distributed CSMA/DDCR on the same workload, where misses
/// count deadline overruns among deliveries plus undelivered messages.
#[test]
fn oracle_never_misses_more_than_ddcr() {
    use ddcr_bench::harness::{default_ddcr_config, run_protocol, ProtocolKind};
    use ddcr_traffic::ScheduleBuilder;

    let medium = MediumConfig::ethernet();
    for (z, load, deadline) in [
        (4u32, 0.2f64, 5_000_000u64),
        (4, 0.5, 2_000_000),
        (8, 0.4, 3_000_000),
        (8, 0.8, 1_000_000), // overloaded: both protocols will miss
        (16, 0.6, 2_000_000),
    ] {
        let set = scenario::uniform(z, 8_000, Ticks(deadline), load).unwrap();
        let schedule = ScheduleBuilder::peak_load(&set)
            .build(Ticks(4_000_000))
            .unwrap();
        let budget = Ticks(10_000_000_000);
        let ddcr = run_protocol(
            &ProtocolKind::Ddcr(default_ddcr_config(&set, &medium)),
            &set,
            &schedule,
            medium,
            budget,
        )
        .unwrap();
        let oracle = run_protocol(&ProtocolKind::NpEdf, &set, &schedule, medium, budget).unwrap();
        assert_eq!(oracle.scheduled, ddcr.scheduled);
        assert!(
            oracle.misses <= ddcr.misses,
            "z={z} load={load} deadline={deadline}: oracle missed {} > ddcr {}",
            oracle.misses,
            ddcr.misses
        );
    }
}

/// DDCR serves strictly by deadline class across sources: with distinct
/// deadline classes, delivery order equals EDF order even though the
/// sources are distributed.
#[test]
fn distributed_edf_order_across_sources() {
    let medium = MediumConfig::ethernet();
    let set = scenario::uniform(4, 8_000, Ticks(50_000_000), 0.2).unwrap();
    // Deadlines spaced by far more than one class width each.
    let mut schedule = Vec::new();
    let spacing = 3_000_000u64;
    for (i, source) in [2u32, 0, 3, 1].iter().enumerate() {
        schedule.push(Message {
            id: MessageId(i as u64),
            source: SourceId(*source),
            class: ClassId(0),
            bits: 8_000,
            arrival: Ticks(0),
            deadline: Ticks(30_000_000 - spacing * i as u64),
        });
    }
    let stats = run_ddcr(&set, schedule, medium);
    let order: Vec<u64> = stats.deliveries.iter().map(|d| d.message.id.0).collect();
    assert_eq!(order, vec![3, 2, 1, 0], "not EDF order: {order:?}");
}

/// Burst draining time under DDCR stays within the analytic budget:
/// transmissions + slot-time × (multi-tree search bound + time-tree term).
#[test]
fn burst_makespan_within_analytic_budget() {
    let medium = MediumConfig::ethernet();
    let z = 8u32;
    let per_source = 2u64;
    let set = scenario::uniform(z, 8_000, Ticks(60_000_000), 0.3).unwrap();
    let schedule = burst(z, per_source, 8_000, 60_000_000);
    let n = schedule.len() as u64;
    let stats = run_ddcr(&set, schedule, medium);
    let makespan = stats
        .deliveries
        .iter()
        .map(|d| d.completed_at.as_u64())
        .max()
        .unwrap();
    // Generous analytic budget: wire time + ξ-bound searches on the static
    // tree for all n messages over ⌈n/q⌉… use the single-tree peak as a
    // conservative per-message cost.
    let wire = 8_000 + medium.overhead_bits;
    let static_tree = TreeShape::new(4, 2).unwrap(); // q = 16 ≥ z
    let per_round =
        closed_form::xi_peak(static_tree) + closed_form::xi_two(TreeShape::new(4, 3).unwrap());
    let budget = n * wire + medium.slot_ticks * (n * per_round + 64);
    assert!(
        makespan <= budget,
        "makespan {makespan} exceeded analytic budget {budget}"
    );
}
