//! Fast-forward equivalence: the optimized engine (idle and contention
//! fast-forward plus the active-set scheduler on, the defaults) and the
//! retained reference stepper (every one of [`Engine::set_fast_forward`],
//! [`Engine::set_contention_fast_forward`], and [`Engine::set_active_set`]
//! forced to `false`) must be bitwise indistinguishable — identical channel
//! traces, statistics, delivery schedules, final clocks, and timeout
//! outcomes — across every protocol, random workload, collision mode, and
//! fault plan. The three switches are exercised across the full 2³ power
//! set so a regression in any path (or any interaction between paths)
//! bisects cleanly.

use ddcr_baseline::{CsmaCdStation, DcrStation, NpEdfOracle, QueueDiscipline};
use ddcr_core::{BurstConfig, DdcrConfig, DdcrStation, StaticAllocation};
use ddcr_sim::{
    ClassId, CollisionMode, Engine, FaultEvent, FaultKind, FaultPlan, FaultRates, MediumConfig,
    Message, MessageId, SimError, SourceId, Ticks, Trace, TraceEvent,
};
use proptest::prelude::*;

#[derive(Debug, Clone, Copy)]
enum Proto {
    Ddcr { theta: u64, bursting: bool },
    CsmaCd { seed: u64 },
    Dcr,
    NpEdf,
}

/// (idle fast-forward, contention fast-forward, active-set scheduler)
/// switch settings. The reference stepper is `(false, false, false)`; the
/// production default is `(true, true, true)`; the remaining combinations isolate each
/// optimisation and every interaction between them for bisection.
type Steppers = (bool, bool, bool);

const REFERENCE: Steppers = (false, false, false);
const OPTIMIZED: [Steppers; 7] = [
    (true, true, true),
    (true, true, false),
    (true, false, true),
    (false, true, true),
    (true, false, false),
    (false, true, false),
    (false, false, true),
];

fn build_engine(proto: Proto, z: u32, medium: MediumConfig, steppers: Steppers) -> Engine {
    let mut engine = Engine::new(medium).unwrap();
    engine.set_fast_forward(steppers.0);
    engine.set_contention_fast_forward(steppers.1);
    engine.set_active_set(steppers.2);
    engine.set_trace(Trace::enabled());
    match proto {
        Proto::Ddcr { theta, bursting } => {
            let mut config = DdcrConfig::for_sources(z, Ticks(100_000))
                .unwrap()
                .with_compressed_time(theta);
            if bursting {
                config = config.with_bursting(BurstConfig {
                    max_extra_bits: 16_384,
                });
            }
            let allocation =
                StaticAllocation::one_per_source(config.static_tree, z).unwrap();
            for i in 0..z {
                engine.add_station(Box::new(
                    DdcrStation::new(
                        SourceId(i),
                        config,
                        allocation.clone(),
                        medium.overhead_bits,
                    )
                    .unwrap(),
                ));
            }
        }
        Proto::CsmaCd { seed } => {
            for i in 0..z {
                engine.add_station(Box::new(CsmaCdStation::new(
                    SourceId(i),
                    medium,
                    QueueDiscipline::Fifo,
                    seed,
                )));
            }
        }
        Proto::Dcr => {
            for i in 0..z {
                engine.add_station(Box::new(
                    DcrStation::new(SourceId(i), z, medium, QueueDiscipline::Fifo).unwrap(),
                ));
            }
        }
        Proto::NpEdf => {
            engine.add_station(Box::new(NpEdfOracle::new(medium)));
        }
    }
    engine
}

/// Everything observable about one run, for exact comparison.
#[derive(Debug, PartialEq)]
struct RunDigest {
    outcome: Option<Result<(), SimError>>,
    now: Ticks,
    events: Vec<TraceEvent>,
    stats: ddcr_sim::ChannelStats,
}

fn run_once(
    proto: Proto,
    z: u32,
    medium: MediumConfig,
    arrivals: &[Message],
    to_completion: bool,
    steppers: Steppers,
) -> RunDigest {
    run_with_plan(proto, z, medium, arrivals, to_completion, steppers, None)
}

fn run_with_plan(
    proto: Proto,
    z: u32,
    medium: MediumConfig,
    arrivals: &[Message],
    to_completion: bool,
    steppers: Steppers,
    plan: Option<FaultPlan>,
) -> RunDigest {
    let mut engine = build_engine(proto, z, medium, steppers);
    if let Some(plan) = plan {
        engine.set_fault_plan(plan);
    }
    engine.add_arrivals(arrivals.iter().copied()).unwrap();
    let outcome = if to_completion {
        Some(engine.run_to_completion(Ticks(60_000_000)))
    } else {
        engine.run_until(Ticks(20_000_000));
        None
    };
    RunDigest {
        outcome,
        now: engine.now(),
        events: engine.trace().events().to_vec(),
        stats: engine.into_stats(),
    }
}

fn pick_proto(pick: usize) -> Proto {
    match pick {
        0 => Proto::Ddcr {
            theta: 0,
            bursting: false,
        },
        1 => Proto::Ddcr {
            theta: 2,
            bursting: false,
        },
        2 => Proto::Ddcr {
            theta: 0,
            bursting: true,
        },
        3 => Proto::CsmaCd { seed: 7 },
        4 => Proto::Dcr,
        _ => Proto::NpEdf,
    }
}

fn make_arrivals(raw: &[(u32, u64, u64)], z: u32, bits: u64) -> Vec<Message> {
    let mut at = 0u64;
    raw.iter()
        .enumerate()
        .map(|(i, &(source, gap, deadline))| {
            at += gap;
            Message {
                id: MessageId(i as u64),
                source: SourceId(source % z),
                class: ClassId(0),
                bits,
                arrival: Ticks(at),
                deadline: Ticks(deadline),
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The central equivalence property: same protocol, same workload, same
    /// medium ⇒ every optimized stepper configuration and the reference
    /// stepper agree on every observable (trace event list, statistics
    /// including per-delivery completion times, final clock, timeout
    /// outcome).
    #[test]
    fn optimized_engine_matches_reference(
        z in 2u32..6,
        // (source, inter-arrival gap, deadline) triples; the gaps create
        // the idle stretches the idle fast-forward path exists for.
        raw in prop::collection::vec(
            (0u32..8, 0u64..600_000, 300_000u64..9_000_000),
            0..20,
        ),
        proto_pick in 0usize..6,
        arbitrating in any::<bool>(),
        to_completion in any::<bool>(),
    ) {
        let proto = pick_proto(proto_pick);
        let z = if matches!(proto, Proto::NpEdf) { 1 } else { z };
        let mut medium = MediumConfig::ethernet();
        medium.collision_mode = if arbitrating {
            CollisionMode::Arbitrating
        } else {
            CollisionMode::Destructive
        };
        let arrivals = make_arrivals(&raw, z, 4_000);
        let reference = run_once(proto, z, medium, &arrivals, to_completion, REFERENCE);
        for steppers in OPTIMIZED {
            let fast = run_once(proto, z, medium, &arrivals, to_completion, steppers);
            prop_assert_eq!(&fast, &reference, "steppers={:?}", steppers);
        }
    }

    /// The loaded-regime counterpart: tight inter-arrival gaps (well under
    /// one frame duration) force arrivals to land mid-transmission, so the
    /// fast-forward paths constantly start, cap, and resume runs.
    /// Every stepper configuration must still agree bitwise.
    #[test]
    fn loaded_regime_matches_reference(
        z in 2u32..6,
        // Gaps of 0..3_000 ticks against ~1_200-tick frames: most arrivals
        // land while a transmission or committed hold is in flight.
        raw in prop::collection::vec(
            (0u32..8, 0u64..3_000, 300_000u64..9_000_000),
            1..32,
        ),
        proto_pick in 0usize..6,
        arbitrating in any::<bool>(),
        to_completion in any::<bool>(),
    ) {
        let proto = pick_proto(proto_pick);
        let z = if matches!(proto, Proto::NpEdf) { 1 } else { z };
        let mut medium = MediumConfig::ethernet();
        medium.collision_mode = if arbitrating {
            CollisionMode::Arbitrating
        } else {
            CollisionMode::Destructive
        };
        let arrivals = make_arrivals(&raw, z, 1_000);
        let reference = run_once(proto, z, medium, &arrivals, to_completion, REFERENCE);
        for steppers in OPTIMIZED {
            let fast = run_once(proto, z, medium, &arrivals, to_completion, steppers);
            prop_assert_eq!(&fast, &reference, "steppers={:?}", steppers);
        }
    }

    /// Faults that strike while a drain would be in flight: the engine
    /// must fence every fast-forward run at the next scheduled fault ordinal,
    /// so corrupted slots, erased frames, and crash/restart transitions
    /// land on exactly the same decision slots as under the reference
    /// stepper.
    #[test]
    fn faults_mid_transmission_match_reference(
        z in 2u32..6,
        raw in prop::collection::vec(
            (0u32..8, 0u64..3_000, 300_000u64..9_000_000),
            1..24,
        ),
        // (slot ordinal, kind pick, station pick, down slots) — low slot
        // ordinals so the faults hit inside the loaded prefix of the run.
        raw_faults in prop::collection::vec(
            (0u64..48, 0usize..3, 0u32..8, 1u64..6),
            1..6,
        ),
        proto_pick in 0usize..6,
        arbitrating in any::<bool>(),
    ) {
        let proto = pick_proto(proto_pick);
        let z = if matches!(proto, Proto::NpEdf) { 1 } else { z };
        let mut medium = MediumConfig::ethernet();
        medium.collision_mode = if arbitrating {
            CollisionMode::Arbitrating
        } else {
            CollisionMode::Destructive
        };
        let arrivals = make_arrivals(&raw, z, 1_000);
        let events: Vec<FaultEvent> = raw_faults
            .iter()
            .map(|&(slot, kind, station, down_slots)| FaultEvent {
                slot,
                kind: match kind {
                    0 => FaultKind::CorruptSlot,
                    1 => FaultKind::EraseFrame,
                    _ => FaultKind::Crash {
                        station: station % z,
                        down_slots,
                    },
                },
            })
            .collect();
        let plan = FaultPlan::from_events(events);
        let reference = run_with_plan(
            proto, z, medium, &arrivals, true, REFERENCE, Some(plan.clone()),
        );
        for steppers in OPTIMIZED {
            let fast = run_with_plan(
                proto, z, medium, &arrivals, true, steppers, Some(plan.clone()),
            );
            prop_assert_eq!(&fast, &reference, "steppers={:?}", steppers);
        }
    }

    /// The fault subsystem is a strict superset: an engine carrying a
    /// zero-fault plan — whether the literal empty plan or one generated
    /// from all-zero rates — is bitwise indistinguishable from an engine
    /// with no plan at all, in both the fully optimized and reference
    /// steppers, for every protocol and collision mode.
    #[test]
    fn zero_fault_plan_is_bitwise_invisible(
        z in 2u32..6,
        raw in prop::collection::vec(
            (0u32..8, 0u64..600_000, 300_000u64..9_000_000),
            0..16,
        ),
        proto_pick in 0usize..6,
        arbitrating in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let proto = pick_proto(proto_pick);
        let z = if matches!(proto, Proto::NpEdf) { 1 } else { z };
        let mut medium = MediumConfig::ethernet();
        medium.collision_mode = if arbitrating {
            CollisionMode::Arbitrating
        } else {
            CollisionMode::Destructive
        };
        let arrivals = make_arrivals(&raw, z, 4_000);
        let generated = FaultPlan::generate(seed, z, 50_000, &FaultRates::default());
        prop_assert!(generated.is_empty(), "zero rates must generate no events");

        let plain = run_once(proto, z, medium, &arrivals, true, (true, true, true));
        let empty_fast = run_with_plan(
            proto, z, medium, &arrivals, true, (true, true, true), Some(FaultPlan::none()),
        );
        let empty_reference = run_with_plan(
            proto, z, medium, &arrivals, true, REFERENCE, Some(FaultPlan::none()),
        );
        let generated_fast = run_with_plan(
            proto, z, medium, &arrivals, true, (true, true, true), Some(generated),
        );
        prop_assert_eq!(&plain, &empty_fast);
        prop_assert_eq!(&plain, &empty_reference);
        prop_assert_eq!(&plain, &generated_fast);
    }
}

/// Idle-heavy deterministic spot check at a production-ish scale: 32 DDCR
/// stations, a handful of widely separated arrivals, a long horizon — the
/// exact shape the perf gate benchmarks — must agree event for event.
#[test]
fn idle_heavy_32_station_network_is_bitwise_equivalent() {
    let medium = MediumConfig::ethernet();
    let arrivals: Vec<Message> = (0..6u64)
        .map(|i| Message {
            id: MessageId(i),
            source: SourceId((i * 5 % 32) as u32),
            class: ClassId(0),
            bits: 8_000,
            arrival: Ticks(i * 7_000_000),
            deadline: Ticks(2_000_000),
        })
        .collect();
    for theta in [0u64, 2] {
        let proto = Proto::Ddcr {
            theta,
            bursting: false,
        };
        let fast = run_once(proto, 32, medium, &arrivals, false, (true, true, true));
        let reference = run_once(proto, 32, medium, &arrivals, false, REFERENCE);
        assert_eq!(fast, reference, "theta={theta}");
        // The run really was idle-dominated — the fast path had work to do.
        assert!(fast.stats.silence_slots > 10_000);
    }
}

/// Loaded deterministic spot check at the perf-gate shape: 32 bursting DDCR
/// stations draining clustered small messages. Verifies both that every
/// stepper configuration agrees bitwise *and* that the contention tier
/// genuinely engaged on burst slots (the equivalence would be vacuous
/// otherwise).
#[test]
fn loaded_32_station_burst_network_is_bitwise_equivalent() {
    let medium = MediumConfig::ethernet();
    let arrivals: Vec<Message> = (0..48u64)
        .map(|i| Message {
            id: MessageId(i),
            source: SourceId((i % 8) as u32),
            class: ClassId(0),
            bits: 1_000,
            arrival: Ticks((i / 8) * 40_000),
            deadline: Ticks(8_000_000),
        })
        .collect();
    let proto = Proto::Ddcr {
        theta: 0,
        bursting: true,
    };
    let reference = run_once(proto, 32, medium, &arrivals, true, REFERENCE);
    assert_eq!(reference.stats.deliveries.len(), 48);
    for steppers in OPTIMIZED {
        let fast = run_once(proto, 32, medium, &arrivals, true, steppers);
        assert_eq!(fast, reference, "steppers={steppers:?}");
    }

    // The fast path really fired on a bursting run: rerun the default
    // configuration with metrics on and check the telemetry counters.
    let mut engine = build_engine(proto, 32, medium, (true, true, true));
    engine.enable_metrics();
    engine.add_arrivals(arrivals.iter().copied()).unwrap();
    engine.run_to_completion(Ticks(60_000_000)).unwrap();
    let metrics = engine.metrics().expect("metrics enabled");
    assert!(
        metrics.search_skip_runs > 0,
        "contention fast-forward never engaged on a loaded burst workload"
    );
    assert!(metrics.phase_slots.burst > 0, "the workload never burst");
}

/// Contention-heavy deterministic spot check: a few sources launch
/// same-class clusters into a 32-station network, so whole tree searches
/// (TTs leaf collisions, nested STs) run while 29 stations sit quiet — the
/// exact shape the contention fast-forward tier exists for. Every stepper
/// configuration must agree bitwise, and the search-skip telemetry must
/// show the tier genuinely engaged.
#[test]
fn contention_heavy_32_station_network_is_bitwise_equivalent() {
    let medium = MediumConfig::ethernet();
    // Three sources, clustered same-deadline arrivals: every cluster forces
    // a time-tree leaf collision and a static-tree tie-break.
    let arrivals: Vec<Message> = (0..24u64)
        .map(|i| Message {
            id: MessageId(i),
            source: SourceId((i % 3) as u32),
            class: ClassId(0),
            bits: 4_000,
            arrival: Ticks((i / 3) * 600_000),
            deadline: Ticks(8_000_000),
        })
        .collect();
    for arbitrating in [false, true] {
        let mut medium = medium;
        medium.collision_mode = if arbitrating {
            CollisionMode::Arbitrating
        } else {
            CollisionMode::Destructive
        };
        let proto = Proto::Ddcr {
            theta: 0,
            bursting: false,
        };
        let reference = run_once(proto, 32, medium, &arrivals, true, REFERENCE);
        assert_eq!(reference.stats.deliveries.len(), 24);
        for steppers in OPTIMIZED {
            let fast = run_once(proto, 32, medium, &arrivals, true, steppers);
            assert_eq!(fast, reference, "arbitrating={arbitrating} steppers={steppers:?}");
        }

        // The contention tier really fired, and it did the bulk of the
        // contended slots: rerun the default configuration with metrics on.
        let mut engine = build_engine(proto, 32, medium, (true, true, true));
        engine.enable_metrics();
        engine.add_arrivals(arrivals.iter().copied()).unwrap();
        engine.run_to_completion(Ticks(60_000_000)).unwrap();
        let metrics = engine.metrics().expect("metrics enabled");
        assert!(
            metrics.search_skip_runs > 0,
            "contention fast-forward never engaged (arbitrating={arbitrating})"
        );
        assert!(metrics.search_skipped_slots >= metrics.search_skip_runs);
    }
}

/// Saturated deterministic spot check — the *loaded idle cycle* regime the
/// analytic attempt-cycle path exists for: all 32 stations backlogged with
/// far deadlines, so every one sits the time tree search out and collides
/// at the attempt slot, cycle after cycle, until `reft` catches up with
/// the heads' deadline classes. Every stepper configuration must agree
/// bitwise, the run must actually be collision-dominated, and the
/// search-skip telemetry must show the analytic path resolved the bulk of
/// those slots in one step.
#[test]
fn saturated_32_station_attempt_cycles_are_bitwise_equivalent() {
    let medium = MediumConfig::ethernet();
    // Two far-deadline messages per station, all present from t = 0: the
    // whole network contends at every attempt slot, nobody enters the
    // tree until thousands of collided cycles advance `reft`.
    let arrivals: Vec<Message> = (0..64u64)
        .map(|i| Message {
            id: MessageId(i),
            source: SourceId((i % 32) as u32),
            class: ClassId(0),
            bits: 1_000,
            arrival: Ticks::ZERO,
            deadline: Ticks(30_000_000 + (i / 32) * 4_000_000),
        })
        .collect();
    let proto = Proto::Ddcr {
        theta: 0,
        bursting: false,
    };
    let reference = run_once(proto, 32, medium, &arrivals, true, REFERENCE);
    assert_eq!(reference.stats.deliveries.len(), 64);
    // The regime is real: collided attempt cycles dominate the run.
    assert!(
        reference.stats.collisions > 1_000,
        "expected a collision-dominated run, got {}",
        reference.stats.collisions
    );
    for steppers in OPTIMIZED {
        let fast = run_once(proto, 32, medium, &arrivals, true, steppers);
        assert_eq!(fast, reference, "steppers={steppers:?}");
    }

    // The analytic path really carried the load: rerun the default
    // configuration with metrics on and check that the overwhelming
    // majority of decision slots were resolved through the contention
    // tier's bulk skip rather than stepped.
    let mut engine = build_engine(proto, 32, medium, (true, true, true));
    engine.enable_metrics();
    engine.add_arrivals(arrivals.iter().copied()).unwrap();
    engine.run_to_completion(Ticks(60_000_000)).unwrap();
    let metrics = engine.metrics().expect("metrics enabled");
    let total_slots = reference.stats.silence_slots
        + reference.stats.collisions
        + reference.stats.deliveries.len() as u64;
    assert!(
        metrics.search_skipped_slots > total_slots / 2,
        "analytic attempt-cycle path resolved {} of {} slots",
        metrics.search_skipped_slots,
        total_slots
    );
}

/// Large-n sparse spot check — the regime the active-set scheduler exists
/// for: 1024 DDCR stations of which only 16 ever hold a message, so at any
/// decision slot the overwhelming majority of the population is dormant.
/// The active tier must resolve the run bitwise-equal to the reference
/// stepper while polling fewer than 10% of station-slots (station-slots =
/// decision slots × population; the reference pays all of them).
#[test]
fn sparse_1024_station_network_polls_under_ten_percent() {
    const Z: u32 = 1024;
    let medium = MediumConfig::ethernet();
    let proto = Proto::Ddcr {
        theta: 0,
        bursting: false,
    };
    // 16 contenders spread across the static tree, arrivals staggered so
    // the run mixes idle stretches, tree searches, and busy slots.
    let arrivals: Vec<Message> = (0..16u64)
        .map(|i| Message {
            id: MessageId(i),
            source: SourceId((i * 61 % u64::from(Z)) as u32),
            class: ClassId(0),
            bits: 4_000,
            arrival: Ticks(i * 120_000),
            deadline: Ticks(30_000_000),
        })
        .collect();

    let digest = |mut engine: Engine| {
        engine.add_arrivals(arrivals.iter().copied()).unwrap();
        let outcome = engine.run_to_completion(Ticks(60_000_000));
        let polls = engine.poll_count();
        let replays = engine.replay_count();
        let slots = engine.slot_ordinal();
        let run = RunDigest {
            outcome: Some(outcome),
            now: engine.now(),
            events: engine.trace().events().to_vec(),
            stats: engine.into_stats(),
        };
        (run, polls, replays, slots)
    };

    let (active, active_polls, active_replays, slots) =
        digest(build_engine(proto, Z, medium, (true, true, true)));
    let (reference, reference_polls, _, _) = digest(build_engine(proto, Z, medium, REFERENCE));

    assert_eq!(active, reference);
    assert_eq!(active.stats.deliveries.len(), 16);

    let station_slots = slots * u64::from(Z);
    assert!(
        active_polls < station_slots / 10,
        "active tier polled {active_polls} of {station_slots} station-slots"
    );
    // Wake-time catch-up must ride the epoch-anchored shortcut, not degrade
    // into replaying the whole deferred log for every waking station: the
    // total entries replayed must stay well under one-log-per-station.
    assert!(
        active_replays < station_slots / 10,
        "active tier replayed {active_replays} catch-up entries \
         over {station_slots} station-slots"
    );
    // The comparison is meaningful: the reference really pays O(n) per slot.
    assert!(reference_polls >= station_slots);
}
