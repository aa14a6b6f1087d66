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
    Message, MessageId, ProtocolPhase, SimError, SimMetrics, SourceId, Ticks, Trace, TraceEvent,
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
            let allocation = StaticAllocation::one_per_source(config.static_tree, z).unwrap();
            for i in 0..z {
                engine.add_station(Box::new(
                    DdcrStation::new(SourceId(i), config, &allocation, medium.overhead_bits)
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

/// One run-to-completion with metrics on or off, reduced to what the
/// metrics contract compares: the run, the metrics, and the engine's poll
/// and wake counters.
fn run_metered(
    proto: Proto,
    z: u32,
    medium: MediumConfig,
    arrivals: &[Message],
    steppers: Steppers,
    plan: &FaultPlan,
    metered: bool,
) -> (RunDigest, Option<SimMetrics>, u64, u64) {
    let mut engine = build_engine(proto, z, medium, steppers);
    engine.set_fault_plan(plan.clone());
    if metered {
        engine.enable_metrics();
    }
    engine.add_arrivals(arrivals.iter().copied()).unwrap();
    let outcome = Some(engine.run_to_completion(Ticks(60_000_000)));
    let (polls, wakes) = (engine.poll_count(), engine.replay_count());
    let metrics = engine.take_metrics();
    let run = RunDigest {
        outcome,
        now: engine.now(),
        events: engine.trace().events().to_vec(),
        stats: engine.into_stats(),
    };
    (run, metrics, polls, wakes)
}

/// Fault events from proptest draws: (slot ordinal, kind pick, station
/// pick, down slots).
fn make_faults(raw: &[(u64, usize, u32, u64)], z: u32) -> FaultPlan {
    FaultPlan::from_events(
        raw.iter()
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
            .collect(),
    )
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
        let plan = make_faults(&raw_faults, z);
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

    /// Metrics ride the active set: for every protocol, workload and fault
    /// plan, and under every fast-forward setting, the metrics are equal
    /// with the active-set scheduler on and off, and turning metrics on
    /// changes neither the run nor the engine's poll and wake counts
    /// (the same stations are parked and woken either way).
    #[test]
    fn metrics_ride_the_active_set(
        z in 2u32..6,
        raw in prop::collection::vec(
            (0u32..8, 0u64..200_000, 300_000u64..9_000_000),
            1..24,
        ),
        raw_faults in prop::collection::vec(
            (0u64..400, 0usize..3, 0u32..8, 1u64..40),
            0..5,
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
        let plan = make_faults(&raw_faults, z);
        for (fast, contention) in [(true, true), (true, false), (false, true), (false, false)] {
            let run = |active_set: bool, metered: bool| {
                run_metered(proto, z, medium, &arrivals, (fast, contention, active_set), &plan, metered)
            };
            let (parked, parked_metrics, parked_polls, parked_wakes) = run(true, true);
            let (unparked, unparked_metrics, _, _) = run(false, true);
            let (plain, plain_metrics, plain_polls, plain_wakes) = run(true, false);
            let tag = format!("fast={fast} contention={contention}");
            prop_assert!(plain_metrics.is_none(), "{}", tag);
            let metrics = parked_metrics.as_ref().expect("a metered run keeps its metrics");
            if plan.is_empty() && matches!(proto, Proto::Ddcr { .. }) {
                // Fault-free, every replica stays synced: the witness
                // attributes every slot.
                prop_assert_eq!(metrics.phase_slots.unattributed, 0, "{}", tag);
            }
            prop_assert_eq!(&parked_metrics, &unparked_metrics, "{}", tag);
            prop_assert_eq!(&parked, &unparked, "{}", tag);
            prop_assert_eq!(&parked, &plain, "{}", tag);
            prop_assert_eq!(parked_polls, plain_polls, "{}", tag);
            prop_assert_eq!(parked_wakes, plain_wakes, "{}", tag);
        }
    }
}

/// Same-deadline clusters of three messages, one cluster every 400 µs,
/// cycling over stations `0..senders`: tree searches with nested static
/// searches on a 1 ms deadline, so each search is a few slots.
fn cluster_rounds(rounds: u64, senders: u32) -> Vec<Message> {
    (0..rounds * 3)
        .map(|i| Message {
            id: MessageId(i),
            source: SourceId(((i / 3 + i % 3) % u64::from(senders)) as u32),
            class: ClassId(0),
            bits: 4_000,
            arrival: Ticks((i / 3) * 400_000),
            deadline: Ticks(1_000_000),
        })
        .collect()
}

/// Runs `arrivals` on an 8-station DDCR bus — to completion, or until
/// `deadline` — returning the run and the engine's wake count.
fn run_cluster_bus(
    arrivals: &[Message],
    steppers: Steppers,
    plan: FaultPlan,
    deadline: Option<Ticks>,
) -> (RunDigest, u64) {
    let proto = Proto::Ddcr {
        theta: 0,
        bursting: false,
    };
    let mut engine = build_engine(proto, 8, MediumConfig::ethernet(), steppers);
    engine.set_fault_plan(plan);
    engine.add_arrivals(arrivals.iter().copied()).unwrap();
    let outcome = match deadline {
        None => Some(engine.run_to_completion(Ticks(600_000_000))),
        Some(deadline) => {
            engine.run_until(deadline);
            None
        }
    };
    let wakes = engine.replay_count();
    let run = RunDigest {
        outcome,
        now: engine.now(),
        events: engine.trace().events().to_vec(),
        stats: engine.into_stats(),
    };
    (run, wakes)
}

/// A long dormancy wakes exactly: on an 8-station bus, stations 0–6 keep
/// running tree searches while station 7 never receives a message, so it
/// parks at the first opportunity and stays parked through every search
/// (station 0, the first synced station, is the active witness). It wakes
/// at the end of the run by adopting the witness's shared state, and the
/// run must match the reference bitwise however long it lasts.
#[test]
fn parked_station_does_not_pin_the_catch_up_log() {
    let mut wakes = Vec::new();
    for rounds in [80u64, 320] {
        let arrivals = cluster_rounds(rounds, 7);
        let (active, woken) =
            run_cluster_bus(&arrivals, (true, true, true), FaultPlan::none(), None);
        let (reference, _) = run_cluster_bus(&arrivals, REFERENCE, FaultPlan::none(), None);
        assert_eq!(active, reference, "rounds={rounds}");
        assert_eq!(active.stats.deliveries.len() as u64, rounds * 3);
        wakes.push(woken);
    }
    // The runs really parked a station.
    assert!(
        wakes.iter().all(|&w| w > 0),
        "nothing was ever parked: {wakes:?}"
    );
}

/// Crashes and restarts leave parked stations parked, so a station that
/// sleeps through them must still wake exactly. Station 1 crashes early;
/// station 7 never holds a message and sleeps while traffic lasts. Two
/// restarts strike while it sleeps: one mid-traffic, and one in the idle
/// tail after the last delivery, before the run ends and wakes station 7.
/// Every stepper configuration must match the reference bitwise.
#[test]
fn lifted_stations_sleep_through_crashes_and_restarts() {
    let arrivals = cluster_rounds(160, 7);
    let crash = |slot, station, down_slots| FaultEvent {
        slot,
        kind: FaultKind::Crash {
            station,
            down_slots,
        },
    };
    let plan = FaultPlan::from_events(vec![crash(500, 1, 20_000), crash(40_000, 2, 160_000)]);
    // 160 rounds of 400 µs end near slot 125,000; the second restart
    // lands at slot 200,000 (102.4 ms).
    let deadline = Some(Ticks(110_000_000));
    let (reference, _) = run_cluster_bus(&arrivals, REFERENCE, plan.clone(), deadline);
    assert_eq!(reference.stats.crashes, 2);
    assert_eq!(reference.stats.restarts, 2);
    for steppers in OPTIMIZED {
        let (fast, _) = run_cluster_bus(&arrivals, steppers, plan.clone(), deadline);
        assert_eq!(fast, reference, "steppers={steppers:?}");
    }
}

/// A crash wakes only the crashing stations, so when it takes down the
/// witness — the one synced station kept active to carry the shared-state
/// vetoes — while every other live station is parked, the lowest parked
/// replica must take over. On an 8-station bursting DDCR bus, station 0 is
/// the witness and stations 2–7 sleep through two hand-written crashes
/// with the shared automaton outside the idle cycle:
///
/// * `burst`: station 0 crashes at slot 1,956, in the middle of its own
///   four-frame burst, so every replica holds a burst reservation for a
///   station that has just gone silent;
/// * `sts`: stations 0 and 1 collide into a static tree search (slots
///   1,963–1,970) and both crash at slot 1,965, inside it.
///
/// Later traffic wakes the sleepers, and a restart brings the crashed
/// stations back. Every stepper configuration must match the reference
/// bitwise with metrics on and off, and the metrics must be equal with
/// the active set on and off (without the hand-off, nothing live
/// attributes the slots after the crash).
#[test]
fn crashed_witness_hands_off_to_a_parked_replica() {
    let message = |id: u64, source: u32, arrival: u64, deadline: u64| Message {
        id: MessageId(id),
        source: SourceId(source),
        class: ClassId(0),
        bits: 1_000,
        arrival: Ticks(arrival),
        deadline: Ticks(deadline),
    };
    let crash = |slot, station| FaultEvent {
        slot,
        kind: FaultKind::Crash {
            station,
            down_slots: 500,
        },
    };
    let later = [
        message(10, 2, 1_500_000, 3_000_000),
        message(11, 5, 1_500_000, 3_000_000),
    ];
    let burst: Vec<Message> = (0..4)
        .map(|i| message(i, 0, 1_000_000, 9_000_000))
        .collect();
    let sts: Vec<Message> = (0..2)
        .map(|i| message(i, i as u32, 1_000_000, 1_300_000))
        .collect();
    let cases = [
        ("burst", burst, vec![crash(1_956, 0)], ProtocolPhase::Burst),
        (
            "sts",
            sts,
            vec![crash(1_965, 0), crash(1_965, 1)],
            ProtocolPhase::StaticSearch,
        ),
    ];
    let proto = Proto::Ddcr {
        theta: 0,
        bursting: true,
    };
    let medium = MediumConfig::ethernet();
    for (case, mut arrivals, events, phase) in cases {
        arrivals.extend(later);
        let plan = FaultPlan::from_events(events);
        // The premise: at the crash slot, the sleepers' shared automaton is
        // in `phase`, outside the idle cycle they parked in.
        let crash_slot = plan.events()[0].slot;
        let mut probe = build_engine(proto, 8, medium, REFERENCE);
        probe.add_arrivals(arrivals.iter().copied()).unwrap();
        while probe.slot_ordinal() < crash_slot {
            let next = probe.now() + Ticks(1);
            probe.run_until(next);
        }
        assert_eq!(probe.slot_ordinal(), crash_slot, "{case}");
        let hint = probe.station(2).and_then(|s| s.phase_hint());
        assert_eq!(hint.map(|h| h.phase), Some(phase), "{case}");

        let (reference, _, _, _) =
            run_metered(proto, 8, medium, &arrivals, REFERENCE, &plan, false);
        assert_eq!(reference.outcome, Some(Ok(())), "{case}");
        assert_eq!(
            reference.stats.crashes,
            plan.events().len() as u64,
            "{case}"
        );
        let woken = reference
            .stats
            .deliveries
            .iter()
            .filter(|d| d.message.id.0 >= 10);
        assert_eq!(woken.count(), 2, "{case}: the later traffic");
        for (fast, contention) in [(true, true), (true, false), (false, true), (false, false)] {
            let tag = format!("{case} fast={fast} contention={contention}");
            let run = |active_set: bool, metered: bool| {
                run_metered(
                    proto,
                    8,
                    medium,
                    &arrivals,
                    (fast, contention, active_set),
                    &plan,
                    metered,
                )
            };
            let (parked, parked_metrics, _, _) = run(true, true);
            let (unparked, unparked_metrics, _, _) = run(false, true);
            let (plain, _, _, _) = run(true, false);
            assert_eq!(parked, reference, "{tag}");
            assert_eq!(unparked, reference, "{tag}");
            assert_eq!(plain, reference, "{tag}");
            assert_eq!(parked_metrics, unparked_metrics, "{tag}");
        }
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

/// Asserts that a metered default-configuration run kept its quiet
/// stations out of the poll loop: at most `sources` contenders, the
/// witness and one woken station of slack are polled per stepped decision
/// slot (the slots neither fast-forward tier resolved), where the full
/// loop polls the whole population.
fn assert_quiet_stations_unpolled(engine: &Engine, sources: u64) {
    let metrics = engine.metrics().expect("metrics enabled");
    let stepped =
        engine.slot_ordinal() - metrics.phase_slots.skipped - metrics.search_skipped_slots;
    assert!(stepped > 0, "nothing was stepped");
    let bound = (sources + 2) * stepped;
    assert!(
        engine.poll_count() <= bound,
        "{} polls over {stepped} stepped slots (bound {bound})",
        engine.poll_count()
    );
}

/// Loaded deterministic spot check at the perf-gate shape: 32 bursting DDCR
/// stations draining clustered small messages. Verifies that every
/// stepper configuration agrees bitwise, that the attempt-cycle step
/// genuinely engaged (the equivalence would be vacuous otherwise), and
/// that the 24 stations without traffic were kept out of the poll loop.
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

    // The fast paths really fired on a bursting run: rerun the default
    // configuration with metrics on and check the telemetry counters.
    let mut engine = build_engine(proto, 32, medium, (true, true, true));
    engine.enable_metrics();
    engine.add_arrivals(arrivals.iter().copied()).unwrap();
    engine.run_to_completion(Ticks(60_000_000)).unwrap();
    assert_quiet_stations_unpolled(&engine, 8);
    let metrics = engine.metrics().expect("metrics enabled");
    assert!(
        metrics.search_skip_runs > 0,
        "contention fast-forward never engaged on a loaded burst workload"
    );
    assert!(metrics.phase_slots.burst > 0, "the workload never burst");
}

/// Contention-heavy deterministic spot check: a few sources launch
/// same-class clusters into a 32-station network, so whole tree searches
/// (TTs leaf collisions, nested STs) run while 29 stations sit quiet. Every
/// stepper configuration must agree bitwise, the active set must keep the
/// 29 quiet stations out of the poll loop, and on the destructive medium
/// the search-skip telemetry must show the attempt-cycle step engaged.
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
            assert_eq!(
                fast, reference,
                "arbitrating={arbitrating} steppers={steppers:?}"
            );
        }

        // Rerun the default configuration with metrics on: the quiet
        // stations stayed parked while the searches were stepped.
        let mut engine = build_engine(proto, 32, medium, (true, true, true));
        engine.enable_metrics();
        engine.add_arrivals(arrivals.iter().copied()).unwrap();
        engine.run_to_completion(Ticks(60_000_000)).unwrap();
        assert_quiet_stations_unpolled(&engine, 3);
        // Attempt cycles need destructive collisions: an arbitrating
        // medium delivers a survivor instead.
        if !arbitrating {
            let metrics = engine.metrics().expect("metrics enabled");
            assert!(
                metrics.search_skip_runs > 0,
                "contention fast-forward never engaged"
            );
            assert!(metrics.search_skipped_slots >= metrics.search_skip_runs);
        }
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
        let wakes = engine.replay_count();
        let slots = engine.slot_ordinal();
        let run = RunDigest {
            outcome: Some(outcome),
            now: engine.now(),
            events: engine.trace().events().to_vec(),
            stats: engine.into_stats(),
        };
        (run, polls, wakes, slots)
    };

    let (active, active_polls, active_wakes, slots) =
        digest(build_engine(proto, Z, medium, (true, true, true)));
    let (reference, reference_polls, _, _) = digest(build_engine(proto, Z, medium, REFERENCE));

    assert_eq!(active, reference);
    assert_eq!(active.stats.deliveries.len(), 16);

    let station_slots = slots * u64::from(Z);
    assert!(
        active_polls < station_slots / 10,
        "active tier polled {active_polls} of {station_slots} station-slots"
    );
    // A station wakes only for a delivery or for the end-of-run sync,
    // and each wake is one O(1) adoption of the witness's shared state.
    let deliveries = arrivals.len() as u64;
    assert!(
        active_wakes <= deliveries + u64::from(Z),
        "active tier woke stations {active_wakes} times \
         for {deliveries} deliveries over {Z} stations"
    );
    // The comparison is meaningful: the reference really pays O(n) per slot.
    assert!(reference_polls >= station_slots);
}

/// A crash costs O(1) wakes, not O(stations): one sparse DDCR workload
/// (64 messages from stations 0–194) at 256 and at 1024 stations, with
/// the same single crash and restart of a station that never holds a
/// message. The crash strikes mid-run, while most stations sleep. What it
/// adds to the engine's poll and wake counts over the fault-free run must
/// not grow with the population: 7 polls and 1 wake at both sizes. Waking
/// every parked station on the crash added 261 polls at 256 stations and
/// 1,029 at 1024.
#[test]
fn a_crash_costs_constant_wakes_at_any_population() {
    /// How much the crash's added cost may differ between populations.
    const SLACK: i64 = 32;
    let medium = MediumConfig::ethernet();
    let proto = Proto::Ddcr {
        theta: 0,
        bursting: false,
    };
    let arrivals: Vec<Message> = (0..64u64)
        .map(|i| Message {
            id: MessageId(i),
            source: SourceId((i * 13 % 195) as u32),
            class: ClassId(0),
            bits: 4_000,
            arrival: Ticks(i * 120_000),
            deadline: Ticks(30_000_000),
        })
        .collect();
    let crash = FaultPlan::from_events(vec![FaultEvent {
        slot: 10_000,
        kind: FaultKind::Crash {
            station: 200,
            down_slots: 1_000,
        },
    }]);
    // (added polls, added wakes) of the crash at population `z`. The run
    // stops at drain, before the end-of-run sync wakes every station.
    let added = |z: u32| {
        let counters = |plan: &FaultPlan| {
            let mut engine = build_engine(proto, z, medium, (true, true, true));
            engine.set_fault_plan(plan.clone());
            engine.add_arrivals(arrivals.iter().copied()).unwrap();
            assert!(engine.run_until_drained(Ticks(60_000_000)), "z={z}");
            if !plan.is_empty() {
                assert_eq!((engine.stats().crashes, engine.stats().restarts), (1, 1));
            }
            (engine.poll_count() as i64, engine.replay_count() as i64)
        };
        let (clean, faulted) = (counters(&FaultPlan::none()), counters(&crash));
        (faulted.0 - clean.0, faulted.1 - clean.1)
    };
    let (small, large) = (added(256), added(1024));
    assert!(
        large.0 <= small.0 + SLACK,
        "the crash added {} polls at 1024 stations, {} at 256",
        large.0,
        small.0
    );
    assert!(
        large.1 <= small.1 + SLACK,
        "the crash added {} wakes at 1024 stations, {} at 256",
        large.1,
        small.1
    );
}
