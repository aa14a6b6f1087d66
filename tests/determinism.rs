//! Determinism and replica-consistency properties: a simulation is a pure
//! function of (configuration, seed), and every CSMA/DDCR station keeps an
//! identical replica of the shared protocol state.

use ddcr_core::{DdcrConfig, DdcrStation, StaticAllocation};
use ddcr_integration::run_ddcr;
use ddcr_sim::{
    Action, ClassId, Frame, MediumConfig, Message, MessageId, Observation, SourceId, Station, Ticks,
};
use ddcr_traffic::{scenario, ScheduleBuilder};

fn trace_of(seed: u64, intensity: f64) -> Vec<(u64, u64)> {
    let set = scenario::uniform(4, 8_000, Ticks(4_000_000), 0.4).unwrap();
    let schedule = ScheduleBuilder::bounded_random(&set, intensity, seed)
        .unwrap()
        .build(Ticks(8_000_000))
        .unwrap();
    let stats = run_ddcr(&set, schedule, MediumConfig::ethernet());
    stats
        .deliveries
        .iter()
        .map(|d| (d.message.id.0, d.completed_at.as_u64()))
        .collect()
}

#[test]
fn identical_inputs_identical_traces() {
    assert_eq!(trace_of(11, 0.7), trace_of(11, 0.7));
}

#[test]
fn different_seeds_differ() {
    // Different random workloads: almost surely different traces.
    assert_ne!(trace_of(11, 0.7), trace_of(12, 0.7));
}

/// Drives N station replicas by hand through a long mixed workload,
/// asserting the shared-state digests agree after every slot.
#[test]
fn replicas_never_diverge_over_long_runs() {
    let z = 4u32;
    let medium = MediumConfig::ethernet();
    let config = DdcrConfig::for_sources(z, Ticks(100_000)).unwrap();
    let allocation = StaticAllocation::round_robin(config.static_tree, z).unwrap();
    let mut stations: Vec<DdcrStation> = (0..z)
        .map(|i| DdcrStation::new(SourceId(i), config, &allocation, medium.overhead_bits).unwrap())
        .collect();

    // Mixed arrivals: bursts, same class, staggered, late.
    let mut arrivals: Vec<Message> = Vec::new();
    let mut id = 0u64;
    for wave in 0..6u64 {
        for s in 0..z {
            arrivals.push(Message {
                id: MessageId(id),
                source: SourceId(s),
                class: ClassId(0),
                bits: 4_000 + 500 * u64::from(s),
                arrival: Ticks(wave * 700_000 + u64::from(s) * 13),
                deadline: Ticks(500_000 + wave * 111_111),
            });
            id += 1;
        }
    }
    arrivals.sort_by_key(|m| m.arrival);

    let mut now = Ticks::ZERO;
    let mut next_arrival = 0usize;
    let mut step = 0u64;
    while next_arrival < arrivals.len() || stations.iter().any(|s| s.backlog() > 0) || step < 5_000
    {
        assert!(step < 100_000, "workload failed to drain");
        step += 1;
        while next_arrival < arrivals.len() && arrivals[next_arrival].arrival <= now {
            let m = arrivals[next_arrival];
            stations[m.source.0 as usize].deliver(m);
            next_arrival += 1;
        }
        let actions: Vec<Action> = stations.iter_mut().map(|s| s.poll(now)).collect();
        let frames: Vec<Frame> = actions
            .iter()
            .filter_map(|a| match a {
                Action::Transmit(f) => Some(*f),
                Action::Idle => None,
            })
            .collect();
        let (obs, advance) = match frames.len() {
            0 => (Observation::Silence, Ticks(medium.slot_ticks)),
            1 => (Observation::Busy(frames[0]), frames[0].duration()),
            _ => (
                Observation::Collision { survivor: None },
                Ticks(medium.slot_ticks),
            ),
        };
        let next_free = now + advance;
        for s in &mut stations {
            s.observe(now, next_free, &obs);
        }
        let digests: Vec<String> = stations.iter().map(|s| s.shared_state_digest()).collect();
        for d in &digests[1..] {
            assert_eq!(&digests[0], d, "divergence at step {step}, t = {now}");
        }
        now = next_free;
    }
    // Everything injected must eventually have been drained.
    assert_eq!(next_arrival, arrivals.len());
    assert!(
        stations.iter().all(|s| s.backlog() == 0),
        "undrained backlog"
    );
}

/// The parallel sweep runner's core guarantee: the same grid run with 1
/// worker and with 8 workers yields `RunSummary` vectors that are equal
/// field for field (including the float fields, compared exactly). Covers
/// all four protocols — including the stochastic CSMA-CD baseline, whose
/// per-job seed must derive from the job index, not from scheduling.
#[test]
fn sweep_results_identical_across_worker_counts() {
    use ddcr_baseline::QueueDiscipline;
    use ddcr_bench::harness::{default_ddcr_config, ProtocolKind};
    use ddcr_bench::sweep::{SweepConfig, SweepGrid};

    let medium = MediumConfig::ethernet();
    let mut grid = SweepGrid::new();
    for (z, load) in [(4u32, 0.2f64), (4, 0.4), (8, 0.3)] {
        let set = scenario::uniform(z, 8_000, Ticks(5_000_000), load).unwrap();
        let schedule = ScheduleBuilder::peak_load(&set)
            .build(Ticks(2_000_000))
            .unwrap();
        let kinds = [
            ProtocolKind::Ddcr(default_ddcr_config(&set, &medium)),
            ProtocolKind::CsmaCd(QueueDiscipline::Fifo, 0),
            ProtocolKind::CsmaCd(QueueDiscipline::Edf, 0),
            ProtocolKind::Dcr(QueueDiscipline::Fifo),
            ProtocolKind::NpEdf,
        ];
        grid.push_comparison(
            &format!("z={z}/load={load}"),
            &kinds,
            &set,
            &schedule,
            medium,
            Ticks(1_000_000_000),
        );
    }

    let serial = grid
        .run(SweepConfig::new(1, 42))
        .summaries()
        .expect("serial sweep");
    let parallel = grid
        .run(SweepConfig::new(8, 42))
        .summaries()
        .expect("parallel sweep");

    assert_eq!(serial.len(), grid.len());
    // Field-for-field: RunSummary derives PartialEq over every field.
    assert_eq!(serial, parallel);

    // And an explicit spot-check that the float fields really are bitwise
    // equal, not merely approximately so.
    for (a, b) in serial.iter().zip(&parallel) {
        assert_eq!(
            a.miss_ratio.to_bits(),
            b.miss_ratio.to_bits(),
            "{}",
            a.protocol
        );
        assert_eq!(
            a.mean_latency.to_bits(),
            b.mean_latency.to_bits(),
            "{}",
            a.protocol
        );
        assert_eq!(
            a.utilization.to_bits(),
            b.utilization.to_bits(),
            "{}",
            a.protocol
        );
    }
}

/// Re-running the same sweep twice in one process must also be stable
/// (the table cache warms up on the first run; cached tables must not
/// change any result).
#[test]
fn sweep_results_stable_across_repeated_runs() {
    use ddcr_baseline::QueueDiscipline;
    use ddcr_bench::harness::{default_ddcr_config, ProtocolKind};
    use ddcr_bench::sweep::{SweepConfig, SweepGrid};

    let medium = MediumConfig::ethernet();
    let set = scenario::uniform(4, 8_000, Ticks(5_000_000), 0.3).unwrap();
    let schedule = ScheduleBuilder::peak_load(&set)
        .build(Ticks(2_000_000))
        .unwrap();
    let kinds = [
        ProtocolKind::Ddcr(default_ddcr_config(&set, &medium)),
        ProtocolKind::CsmaCd(QueueDiscipline::Fifo, 0),
        ProtocolKind::NpEdf,
    ];
    let mut grid = SweepGrid::new();
    grid.push_comparison(
        "repeat",
        &kinds,
        &set,
        &schedule,
        medium,
        Ticks(1_000_000_000),
    );
    let first = grid.run(SweepConfig::new(2, 7)).summaries().unwrap();
    let second = grid.run(SweepConfig::new(3, 7)).summaries().unwrap();
    assert_eq!(first, second);
}

#[test]
fn csma_cd_trace_is_seed_deterministic() {
    use ddcr_baseline::{CsmaCdStation, QueueDiscipline};
    let run = |seed: u64| {
        let medium = MediumConfig::ethernet();
        let set = scenario::uniform(4, 8_000, Ticks(4_000_000), 0.5).unwrap();
        let schedule = ScheduleBuilder::peak_load(&set)
            .build(Ticks(4_000_000))
            .unwrap();
        let mut engine = ddcr_sim::Engine::new(medium).unwrap();
        for i in 0..4 {
            engine.add_station(Box::new(CsmaCdStation::new(
                SourceId(i),
                medium,
                QueueDiscipline::Fifo,
                seed,
            )));
        }
        engine.add_arrivals(schedule).unwrap();
        engine.run_to_completion(Ticks(100_000_000_000)).unwrap();
        engine
            .into_stats()
            .deliveries
            .iter()
            .map(|d| (d.message.id.0, d.completed_at.as_u64()))
            .collect::<Vec<_>>()
    };
    assert_eq!(run(5), run(5));
}
