//! Channel spans: the one encoding of a stretch of resolved channel
//! outcomes that a station absorbs at once (see [`Station::catch_up`]).

use crate::channel::Observation;
use crate::station::Station;
use crate::time::Ticks;

/// One resolved decision slot: when it started, when the channel became
/// free again, and the outcome every station observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SteppedSlot {
    /// When the decision slot started.
    pub at: Ticks,
    /// When the channel became free again.
    pub next_free: Ticks,
    /// The channel outcome every station observed.
    pub observation: Observation,
}

/// A contiguous stretch of channel outcomes, in the shape the engine
/// resolved it. Every variant stands for a definite sequence of
/// [`Station::observe`] calls (see [`ChannelSpan::replay`]); the compressed
/// variants let a station absorb that sequence faster than one call per
/// slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChannelSpan {
    /// One reference-stepped decision slot.
    Slot(SteppedSlot),
    /// `slots` silent decision slots from `from`, each `slot` ticks wide.
    Silence {
        /// Start of the first silent slot.
        from: Ticks,
        /// Number of silent slots.
        slots: u64,
        /// Slot width in ticks.
        slot: Ticks,
    },
    /// `cycles` loaded idle cycles from `from`: each `probes` silent probe
    /// slots followed by one destructively collided attempt slot, every
    /// slot `slot` ticks wide (see [`crate::AttemptCycleHint`]).
    Cycles {
        /// Start of the first cycle.
        from: Ticks,
        /// Number of whole cycles.
        cycles: u64,
        /// Silent probe slots per cycle.
        probes: u64,
        /// Slot width in ticks.
        slot: Ticks,
    },
}

impl ChannelSpan {
    /// Channel time the span starts at.
    pub fn start(&self) -> Ticks {
        match *self {
            ChannelSpan::Slot(s) => s.at,
            ChannelSpan::Silence { from, .. } | ChannelSpan::Cycles { from, .. } => from,
        }
    }

    /// Channel time the span ends at (the channel is free again).
    pub fn end(&self) -> Ticks {
        match *self {
            ChannelSpan::Slot(s) => s.next_free,
            ChannelSpan::Silence { from, slots, slot } => from + slot * slots,
            ChannelSpan::Cycles {
                from,
                cycles,
                probes,
                slot,
            } => from + slot * ((probes + 1) * cycles),
        }
    }

    /// The part of the span from channel time `at` on: it replays exactly
    /// the slots of the whole that start at or after `at`.
    ///
    /// `None` unless `at` lies strictly inside a silence run at one of its
    /// slot boundaries. A single slot and an analytic cycle run are never
    /// cut.
    pub fn tail_from(&self, at: Ticks) -> Option<ChannelSpan> {
        if at <= self.start() || at >= self.end() {
            return None;
        }
        match *self {
            ChannelSpan::Silence { from, slots, slot } => {
                let skipped = (at - from).as_u64() / slot.as_u64();
                (from + slot * skipped == at).then_some(ChannelSpan::Silence {
                    from: at,
                    slots: slots - skipped,
                    slot,
                })
            }
            ChannelSpan::Slot(_) | ChannelSpan::Cycles { .. } => None,
        }
    }

    /// Feeds the span to `station` one [`Station::observe`] per slot, in
    /// channel order — the default [`Station::catch_up`], and the
    /// semantics every override must reproduce.
    pub fn replay<S: Station + ?Sized>(&self, station: &mut S) {
        match *self {
            ChannelSpan::Slot(s) => station.observe(s.at, s.next_free, &s.observation),
            ChannelSpan::Silence { from, slots, slot } => {
                for i in 0..slots {
                    let at = from + slot * i;
                    station.observe(at, at + slot, &Observation::Silence);
                }
            }
            ChannelSpan::Cycles {
                from,
                cycles,
                probes,
                slot,
            } => {
                for i in 0..cycles * (probes + 1) {
                    let at = from + slot * i;
                    let observation = if i % (probes + 1) == probes {
                        Observation::Collision { survivor: None }
                    } else {
                        Observation::Silence
                    };
                    station.observe(at, at + slot, &observation);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::Action;
    use crate::message::{ClassId, Frame, Message, MessageId, SourceId};

    /// Records every observation it is fed, through the default
    /// `catch_up`.
    #[derive(Default)]
    struct Recorder(Vec<(Ticks, Ticks, Observation)>);

    impl Station for Recorder {
        fn deliver(&mut self, _message: Message) {}
        fn poll(&mut self, _now: Ticks) -> Action {
            Action::Idle
        }
        fn observe(&mut self, now: Ticks, next_free: Ticks, observation: &Observation) {
            self.0.push((now, next_free, *observation));
        }
        fn backlog(&self) -> usize {
            0
        }
    }

    fn recorded(spans: &[&ChannelSpan]) -> Vec<(Ticks, Ticks, Observation)> {
        let mut station = Recorder::default();
        for span in spans {
            station.catch_up(span);
        }
        station.0
    }

    fn busy(at: u64, ticks: u64) -> SteppedSlot {
        let message = Message {
            id: MessageId(at),
            source: SourceId(0),
            class: ClassId(0),
            bits: ticks,
            arrival: Ticks::ZERO,
            deadline: Ticks(1_000_000),
        };
        SteppedSlot {
            at: Ticks(at),
            next_free: Ticks(at + ticks),
            observation: Observation::Busy(Frame::new(message, ticks)),
        }
    }

    fn stepped(at: u64, observation: Observation) -> SteppedSlot {
        SteppedSlot {
            at: Ticks(at),
            next_free: Ticks(at + 10),
            observation,
        }
    }

    #[test]
    fn every_cut_replays_like_the_whole_span() {
        let slot = Ticks(10);
        // (span, the slot-aligned cuts strictly inside it that must split)
        let table: Vec<(ChannelSpan, Vec<u64>)> = vec![
            (
                ChannelSpan::Slot(stepped(100, Observation::Silence)),
                vec![],
            ),
            (
                ChannelSpan::Silence {
                    from: Ticks(100),
                    slots: 4,
                    slot,
                },
                vec![110, 120, 130],
            ),
            // A 25-tick frame is one slot: never cut inside.
            (ChannelSpan::Slot(busy(100, 25)), vec![]),
            (
                ChannelSpan::Cycles {
                    from: Ticks(100),
                    cycles: 2,
                    probes: 2,
                    slot,
                },
                vec![],
            ),
        ];
        for (span, splittable) in &table {
            let whole = recorded(&[span]);
            assert_eq!(whole.first().map(|o| o.0), Some(span.start()), "{span:?}");
            assert_eq!(whole.last().map(|o| o.1), Some(span.end()), "{span:?}");
            // Every slot-aligned point from the start to the end inclusive.
            let mut at = span.start();
            while at <= span.end() {
                match span.tail_from(at) {
                    Some(tail) => {
                        assert!(splittable.contains(&at.as_u64()), "{span:?} cut at {at}");
                        assert_eq!((tail.start(), tail.end()), (at, span.end()));
                        // The prefix is every whole slot before the cut;
                        // replayed before the tail it gives the whole span.
                        let mut replayed: Vec<_> =
                            whole.iter().copied().take_while(|o| o.0 < at).collect();
                        assert_eq!(replayed.last().map(|o| o.1), Some(at), "{span:?} at {at}");
                        replayed.extend(recorded(&[&tail]));
                        assert_eq!(replayed, whole, "{span:?} cut at {at}");
                    }
                    None => {
                        assert!(!splittable.contains(&at.as_u64()), "{span:?} at {at}");
                    }
                }
                // Half-slot steps: the odd points are never cuts.
                at += Ticks(5);
            }
        }
    }
}
