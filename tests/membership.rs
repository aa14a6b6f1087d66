//! Membership equivalence and semantics at the engine level: scheduled
//! joins and leaves must be processed at exactly their decision-slot
//! ordinals under every fast-forward tier — the 2³ switch matrix
//! (idle × contention × active-set) and both collision modes must
//! be bitwise indistinguishable from the reference stepper — and the
//! empty plan must be invisible. A join or leave wakes the stations it
//! names out of the active-set scheduler's parked set (and a replacement
//! when the leaving station was the witness), so the matrix exercises that
//! interaction directly.

use ddcr_core::{DdcrConfig, DdcrStation, StaticAllocation};
use ddcr_sim::{
    ClassId, CollisionMode, Engine, FaultEvent, FaultKind, FaultPlan, MediumConfig,
    MembershipChange, MembershipEvent, MembershipPlan, Message, MessageId, ProtocolPhase, SourceId,
    Ticks, Trace, TraceEvent,
};
use proptest::prelude::*;

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

fn build_engine(z: u32, medium: MediumConfig, steppers: Steppers) -> Engine {
    let mut engine = Engine::new(medium).unwrap();
    engine.set_fast_forward(steppers.0);
    engine.set_contention_fast_forward(steppers.1);
    engine.set_active_set(steppers.2);
    engine.set_trace(Trace::enabled());
    let config = DdcrConfig::for_sources(z, Ticks(100_000)).unwrap();
    let allocation = StaticAllocation::one_per_source(config.static_tree, z).unwrap();
    for i in 0..z {
        engine.add_station(Box::new(
            DdcrStation::new(SourceId(i), config, &allocation, medium.overhead_bits).unwrap(),
        ));
    }
    engine
}

#[derive(Debug, PartialEq)]
struct RunDigest {
    now: Ticks,
    events: Vec<TraceEvent>,
    stats: ddcr_sim::ChannelStats,
}

fn run_with_membership(
    z: u32,
    medium: MediumConfig,
    arrivals: &[Message],
    steppers: Steppers,
    membership: &MembershipPlan,
    faults: Option<&FaultPlan>,
) -> RunDigest {
    let mut engine = build_engine(z, medium, steppers);
    engine.set_membership_plan(membership.clone()).unwrap();
    if let Some(plan) = faults {
        engine.set_fault_plan(plan.clone());
    }
    engine.add_arrivals(arrivals.iter().copied()).unwrap();
    let _ = engine.run_to_completion(Ticks(60_000_000));
    RunDigest {
        now: engine.now(),
        events: engine.trace().events().to_vec(),
        stats: engine.into_stats(),
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

fn make_plan(raw: &[(u64, bool, u32)], z: u32, absent: &[u32]) -> MembershipPlan {
    let events = raw
        .iter()
        .map(|&(slot, join, station)| MembershipEvent {
            slot,
            change: if join {
                MembershipChange::Join {
                    station: station % z,
                }
            } else {
                MembershipChange::Leave {
                    station: station % z,
                }
            },
        })
        .collect();
    let absent = absent.iter().map(|&s| s % z).collect();
    MembershipPlan::from_events(absent, events)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The central property: a membership schedule lands on exactly the
    /// same decision slots under every fast-forward tier, so every
    /// observable — trace (including Joined/Left annotations), statistics,
    /// lost set, final clock — agrees bitwise with the reference stepper.
    #[test]
    fn membership_schedule_matches_reference(
        z in 2u32..6,
        raw in prop::collection::vec(
            (0u32..8, 0u64..600_000, 300_000u64..9_000_000),
            1..16,
        ),
        raw_plan in prop::collection::vec(
            (0u64..64, any::<bool>(), 0u32..8),
            1..6,
        ),
        arbitrating in any::<bool>(),
    ) {
        let mut medium = MediumConfig::ethernet();
        medium.collision_mode = if arbitrating {
            CollisionMode::Arbitrating
        } else {
            CollisionMode::Destructive
        };
        let arrivals = make_arrivals(&raw, z, 4_000);
        let plan = make_plan(&raw_plan, z, &[]);
        let reference =
            run_with_membership(z, medium, &arrivals, REFERENCE, &plan, None);
        for steppers in OPTIMIZED {
            let fast =
                run_with_membership(z, medium, &arrivals, steppers, &plan, None);
            prop_assert_eq!(&fast, &reference, "steppers={:?}", steppers);
        }
    }

    /// Membership interleaved with channel faults and crashes: the two
    /// fencing mechanisms (fault ordinals and membership ordinals) must
    /// compose under every tier without disturbing each other.
    #[test]
    fn membership_composes_with_faults_under_every_tier(
        z in 2u32..5,
        raw in prop::collection::vec(
            (0u32..8, 0u64..3_000, 300_000u64..9_000_000),
            1..16,
        ),
        raw_plan in prop::collection::vec(
            (0u64..48, any::<bool>(), 0u32..8),
            1..4,
        ),
        raw_faults in prop::collection::vec(
            (0u64..48, 0usize..3, 0u32..8, 1u64..6),
            1..4,
        ),
        arbitrating in any::<bool>(),
    ) {
        let mut medium = MediumConfig::ethernet();
        medium.collision_mode = if arbitrating {
            CollisionMode::Arbitrating
        } else {
            CollisionMode::Destructive
        };
        let arrivals = make_arrivals(&raw, z, 1_000);
        let plan = make_plan(&raw_plan, z, &[]);
        let events: Vec<FaultEvent> = raw_faults
            .iter()
            .map(|&(slot, kind, station, down_slots)| FaultEvent {
                slot,
                kind: match kind {
                    0 => FaultKind::CorruptSlot,
                    1 => FaultKind::EraseFrame,
                    _ => FaultKind::Crash { station: station % z, down_slots },
                },
            })
            .collect();
        let faults = FaultPlan::from_events(events);
        let reference = run_with_membership(
            z, medium, &arrivals, REFERENCE, &plan, Some(&faults),
        );
        for steppers in OPTIMIZED {
            let fast = run_with_membership(
                z, medium, &arrivals, steppers, &plan, Some(&faults),
            );
            prop_assert_eq!(&fast, &reference, "steppers={:?}", steppers);
        }
    }

    /// The empty membership plan is bitwise invisible: an engine carrying
    /// `MembershipPlan::none()` is indistinguishable from one that never
    /// heard of membership, under both the reference and optimized tiers.
    #[test]
    fn empty_membership_plan_is_bitwise_invisible(
        z in 2u32..6,
        raw in prop::collection::vec(
            (0u32..8, 0u64..600_000, 300_000u64..9_000_000),
            0..12,
        ),
        arbitrating in any::<bool>(),
    ) {
        let mut medium = MediumConfig::ethernet();
        medium.collision_mode = if arbitrating {
            CollisionMode::Arbitrating
        } else {
            CollisionMode::Destructive
        };
        let arrivals = make_arrivals(&raw, z, 4_000);
        for steppers in [REFERENCE, (true, true, true)] {
            let mut bare = build_engine(z, medium, steppers);
            bare.add_arrivals(arrivals.iter().copied()).unwrap();
            let _ = bare.run_to_completion(Ticks(60_000_000));
            let bare = RunDigest {
                now: bare.now(),
                events: bare.trace().events().to_vec(),
                stats: bare.into_stats(),
            };
            let with_plan = run_with_membership(
                z, medium, &arrivals, steppers, &MembershipPlan::none(), None,
            );
            prop_assert_eq!(&with_plan, &bare, "steppers={:?}", steppers);
        }
    }
}

/// Deterministic semantics spot check: a leave loses the station's queue
/// (recorded lost, counted in stats), a rejoin resynchronizes it, and the
/// trace carries the Joined/Left annotations at the transition instants.
#[test]
fn leave_loses_queue_and_rejoin_resynchronizes() {
    let z = 3u32;
    let medium = MediumConfig::ethernet();
    // Station 1 has a message queued at t=0 and another arriving late —
    // after its leave — plus traffic from the survivors throughout.
    let arrivals = [
        Message {
            id: MessageId(0),
            source: SourceId(1),
            class: ClassId(0),
            bits: 4_000,
            arrival: Ticks(0),
            deadline: Ticks(8_000_000),
        },
        Message {
            id: MessageId(1),
            source: SourceId(0),
            class: ClassId(0),
            bits: 4_000,
            arrival: Ticks(0),
            deadline: Ticks(8_000_000),
        },
        Message {
            id: MessageId(2),
            source: SourceId(1),
            class: ClassId(0),
            bits: 4_000,
            arrival: Ticks(20_000),
            deadline: Ticks(8_000_000),
        },
        Message {
            id: MessageId(3),
            source: SourceId(2),
            class: ClassId(0),
            bits: 4_000,
            arrival: Ticks(400_000),
            deadline: Ticks(8_000_000),
        },
    ];
    // Leave before station 1 can win a slot; rejoin only after its second
    // arrival has landed while absent (slot 50 ≥ 50 × 512 ticks > 20_000),
    // with survivor traffic still to come for the resync anchor.
    let plan = MembershipPlan::leave_then_rejoin(1, 0, 50);
    let mut engine = build_engine(z, medium, (true, true, true));
    engine.set_membership_plan(plan).unwrap();
    engine.add_arrivals(arrivals.iter().copied()).unwrap();
    engine.run_to_completion(Ticks(60_000_000)).unwrap();
    let joined: Vec<&TraceEvent> = engine
        .trace()
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::Joined { .. }))
        .collect();
    let left: Vec<&TraceEvent> = engine
        .trace()
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::Left { .. }))
        .collect();
    assert_eq!(left.len(), 1, "exactly one Left annotation");
    assert_eq!(joined.len(), 1, "exactly one Joined annotation");
    assert!(!engine.is_absent(1), "station 1 rejoined");
    let stats = engine.into_stats();
    assert_eq!(stats.leaves, 1);
    assert_eq!(stats.joins, 1);
    // The t=0 queue of station 1 was lost at the leave; its post-leave
    // arrival (t=20_000, while absent) is lost too.
    let lost: Vec<u64> = stats.lost.iter().map(|m| m.id.0).collect();
    assert!(
        lost.contains(&0),
        "queued message lost at the leave: {lost:?}"
    );
    assert!(lost.contains(&2), "arrival while absent is lost: {lost:?}");
    // Survivors' traffic (and nothing lost) was delivered.
    let delivered: Vec<u64> = stats.deliveries.iter().map(|d| d.message.id.0).collect();
    assert!(delivered.contains(&1));
    assert!(delivered.contains(&3));
    assert!(!delivered.contains(&0), "lost message delivered");
}

/// A leave wakes only the leaving stations, so when the witness (the
/// synced station kept active while the others park) leaves with every
/// other live station parked, the lowest parked replica must take over.
/// On an 8-station bus stations 0 and 1 collide into a static tree search
/// (slots 1,963–1,970) and both leave at slot 1,965, inside it, while
/// stations 2–7 sleep; station 0 rejoins later, and traffic from stations
/// 2 and 5 wakes the sleepers. Every stepper configuration must match the
/// reference bitwise with metrics on and off, and the metrics must be
/// equal with the active set on and off.
#[test]
fn leaving_witness_hands_off_to_a_parked_replica() {
    let medium = MediumConfig::ethernet();
    let message = |id: u64, source: u32, arrival: u64, deadline: u64| Message {
        id: MessageId(id),
        source: SourceId(source),
        class: ClassId(0),
        bits: 1_000,
        arrival: Ticks(arrival),
        deadline: Ticks(deadline),
    };
    let arrivals = [
        message(0, 0, 1_000_000, 1_300_000),
        message(1, 1, 1_000_000, 1_300_000),
        message(2, 2, 1_500_000, 3_000_000),
        message(3, 5, 1_500_000, 3_000_000),
    ];
    let at = |slot, change| MembershipEvent { slot, change };
    let plan = MembershipPlan::from_events(
        Vec::new(),
        vec![
            at(1_965, MembershipChange::Leave { station: 0 }),
            at(1_965, MembershipChange::Leave { station: 1 }),
            at(2_500, MembershipChange::Join { station: 0 }),
        ],
    );
    // The premise: when the leaves strike, the sleepers' shared automaton
    // is inside the static search, outside the idle cycle they parked in.
    let mut probe = build_engine(8, medium, REFERENCE);
    probe.add_arrivals(arrivals.iter().copied()).unwrap();
    while probe.slot_ordinal() < 1_965 {
        let next = probe.now() + Ticks(1);
        probe.run_until(next);
    }
    assert_eq!(probe.slot_ordinal(), 1_965);
    let hint = probe.station(2).and_then(|s| s.phase_hint());
    assert_eq!(hint.map(|h| h.phase), Some(ProtocolPhase::StaticSearch));

    let run = |steppers: Steppers, metered: bool| {
        let mut engine = build_engine(8, medium, steppers);
        engine.set_membership_plan(plan.clone()).unwrap();
        if metered {
            engine.enable_metrics();
        }
        engine.add_arrivals(arrivals.iter().copied()).unwrap();
        engine.run_to_completion(Ticks(60_000_000)).unwrap();
        let metrics = engine.take_metrics();
        let digest = RunDigest {
            now: engine.now(),
            events: engine.trace().events().to_vec(),
            stats: engine.into_stats(),
        };
        (digest, metrics)
    };
    let (reference, _) = run(REFERENCE, false);
    assert_eq!((reference.stats.leaves, reference.stats.joins), (2, 1));
    let delivered: Vec<u64> = reference
        .stats
        .deliveries
        .iter()
        .map(|d| d.message.id.0)
        .collect();
    assert!(
        delivered.contains(&2) && delivered.contains(&3),
        "{delivered:?}"
    );
    for steppers in OPTIMIZED {
        for metered in [false, true] {
            let (digest, metrics) = run(steppers, metered);
            assert_eq!(digest, reference, "steppers={steppers:?} metered={metered}");
            if metered && steppers.2 {
                let (_, unparked) = run((steppers.0, steppers.1, false), true);
                assert_eq!(metrics, unparked, "steppers={steppers:?}");
            }
        }
    }
}

/// A station listed initially absent never transmits until joined; its
/// arrivals before the join are lost.
#[test]
fn initially_absent_station_is_fenced_until_joined() {
    let z = 2u32;
    let medium = MediumConfig::ethernet();
    let arrivals = [
        Message {
            id: MessageId(0),
            source: SourceId(1),
            class: ClassId(0),
            bits: 4_000,
            arrival: Ticks(0),
            deadline: Ticks(8_000_000),
        },
        Message {
            id: MessageId(1),
            source: SourceId(0),
            class: ClassId(0),
            bits: 4_000,
            arrival: Ticks(0),
            deadline: Ticks(8_000_000),
        },
    ];
    let plan = MembershipPlan::from_events(vec![1], Vec::new());
    let mut engine = build_engine(z, medium, (true, true, true));
    engine.set_membership_plan(plan).unwrap();
    assert!(engine.is_absent(1));
    engine.add_arrivals(arrivals.iter().copied()).unwrap();
    engine.run_to_completion(Ticks(60_000_000)).unwrap();
    assert!(engine.is_absent(1), "no join was scheduled");
    let stats = engine.into_stats();
    let lost: Vec<u64> = stats.lost.iter().map(|m| m.id.0).collect();
    assert_eq!(lost, vec![0], "absent station's arrival is lost");
    let delivered: Vec<u64> = stats.deliveries.iter().map(|d| d.message.id.0).collect();
    assert_eq!(delivered, vec![1]);
}

/// A plan naming a station outside the fabric is a typed error, not a
/// panic or a silent clamp.
#[test]
fn out_of_range_plan_is_rejected() {
    let medium = MediumConfig::ethernet();
    let mut engine = build_engine(2, medium, (true, true, true));
    let err = engine
        .set_membership_plan(MembershipPlan::leave_then_rejoin(7, 1, 5))
        .map(|_| ())
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains('7'), "error names the bad station: {msg}");
}
