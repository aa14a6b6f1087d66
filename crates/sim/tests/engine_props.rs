//! Property-based tests of the simulation engine's channel contract.

use ddcr_sim::{
    Action, ClassId, CollisionMode, Engine, Frame, MediumConfig, Message, MessageId, Observation,
    SourceId, Station, Ticks, Trace, TraceEvent,
};
use proptest::prelude::*;

/// A scripted station: transmits at exactly the decision-slot ordinals it
/// was given (a deterministic way to explore weird interleavings).
#[derive(Debug)]
struct Scripted {
    source: SourceId,
    transmit_on: Vec<u64>,
    slot: u64,
    queue: Vec<Message>,
}

impl Scripted {
    fn new(source: SourceId, transmit_on: Vec<u64>, messages: usize) -> Self {
        let queue = (0..messages)
            .map(|i| Message {
                id: MessageId(u64::from(source.0) * 1000 + i as u64),
                source,
                class: ClassId(0),
                bits: 1_000,
                arrival: Ticks::ZERO,
                deadline: Ticks(u64::MAX / 2),
            })
            .collect();
        Scripted {
            source,
            transmit_on,
            slot: 0,
            queue,
        }
    }
}

impl Station for Scripted {
    fn deliver(&mut self, message: Message) {
        self.queue.push(message);
    }

    fn poll(&mut self, _now: Ticks) -> Action {
        let fire = self.transmit_on.contains(&self.slot);
        self.slot += 1;
        match (fire, self.queue.first()) {
            (true, Some(&m)) => Action::Transmit(Frame::new(m, m.bits + 208)),
            _ => Action::Idle,
        }
    }

    fn observe(&mut self, _now: Ticks, _next_free: Ticks, observation: &Observation) {
        let winner = match observation {
            Observation::Busy(f) => Some(f.message.id),
            Observation::Collision { survivor: Some(f) } => Some(f.message.id),
            _ => None,
        };
        if winner.is_some() && self.queue.first().map(|m| m.id) == winner {
            self.queue.remove(0);
        }
    }

    fn backlog(&self) -> usize {
        self.queue.len()
    }

    fn label(&self) -> String {
        format!("scripted:{}", self.source)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Channel conservation: whatever the stations do, the trace is a
    /// sequence of non-overlapping transmissions, time only advances, and
    /// busy-tick accounting equals the sum of delivered frame durations.
    #[test]
    fn channel_invariants_hold_for_arbitrary_scripts(
        scripts in prop::collection::vec(
            prop::collection::vec(0u64..64, 0..12),
            1..5,
        ),
        arbitrating in any::<bool>(),
    ) {
        let medium = MediumConfig {
            slot_ticks: 512,
            overhead_bits: 208,
            collision_mode: if arbitrating {
                CollisionMode::Arbitrating
            } else {
                CollisionMode::Destructive
            },
        };
        let mut engine = Engine::new(medium).unwrap();
        engine.set_trace(Trace::enabled());
        for (i, script) in scripts.iter().enumerate() {
            engine.add_station(Box::new(Scripted::new(
                SourceId(i as u32),
                script.clone(),
                4,
            )));
        }
        engine.run_until(Ticks(512 * 80));
        let stats = engine.stats();

        // Busy accounting.
        let wire_total: u64 = stats.deliveries.iter().map(|d| d.message.bits + 208).sum();
        prop_assert_eq!(stats.busy_ticks, Ticks(wire_total));

        // Non-overlap + monotone time in the trace.
        let mut last = Ticks::ZERO;
        let mut in_flight = false;
        for e in engine.trace().events() {
            let is_tx_end = matches!(e, TraceEvent::TxEnd { .. });
            prop_assert!(e.at() >= last || is_tx_end);
            match e {
                TraceEvent::TxStart { at, .. } => {
                    prop_assert!(!in_flight);
                    in_flight = true;
                    last = *at;
                }
                TraceEvent::TxEnd { at, .. } => {
                    in_flight = false;
                    last = *at;
                }
                TraceEvent::Silence { at }
                | TraceEvent::Collision { at, .. }
                | TraceEvent::Garbled { at, .. } => {
                    prop_assert!(!in_flight);
                    last = *at;
                }
                // Membership annotations occupy no channel time.
                TraceEvent::Joined { .. } | TraceEvent::Left { .. } => {}
            }
        }

        // Deliveries never exceed queued messages.
        prop_assert!(stats.deliveries.len() <= scripts.len() * 4);
    }

    /// In arbitrating mode, every collision's survivor is the lowest
    /// transmitting source (bit-dominance), and destructive mode never has
    /// survivors.
    #[test]
    fn arbitration_picks_lowest_source(
        fire_both in prop::collection::vec(any::<bool>(), 1..20),
    ) {
        for arbitrating in [false, true] {
            let medium = MediumConfig {
                slot_ticks: 512,
                overhead_bits: 208,
                collision_mode: if arbitrating {
                    CollisionMode::Arbitrating
                } else {
                    CollisionMode::Destructive
                },
            };
            let slots: Vec<u64> = fire_both
                .iter()
                .enumerate()
                .filter(|(_, &b)| b)
                .map(|(i, _)| i as u64)
                .collect();
            let mut engine = Engine::new(medium).unwrap();
            engine.set_trace(Trace::enabled());
            engine.add_station(Box::new(Scripted::new(SourceId(0), slots.clone(), 32)));
            engine.add_station(Box::new(Scripted::new(SourceId(1), slots.clone(), 32)));
            engine.run_until(Ticks(512 * 40));
            for e in engine.trace().events() {
                if let TraceEvent::Collision { survivor, .. } = e {
                    if arbitrating {
                        // Survivor ids are source 0's (ids < 1000).
                        prop_assert!(survivor.is_some());
                        prop_assert!(survivor.unwrap().0 < 1000);
                    } else {
                        prop_assert!(survivor.is_none());
                    }
                }
            }
        }
    }
}
