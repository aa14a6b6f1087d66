//! 1-persistent CSMA-CD with truncated binary exponential backoff — the
//! IEEE 802.3 MAC the paper positions CSMA/DDCR against.
//!
//! Faithful to the standard's shape: on a collision, the attempt counter
//! increments and the station waits a uniformly random number of slot
//! times drawn from `[0, 2^min(attempts, 10) − 1]`; after 16 attempts the
//! frame is discarded. Stochastic backoff is exactly what makes the
//! protocol unable to offer hard deadline guarantees — the baseline
//! experiments (E8) quantify that.

use crate::queue::{LocalQueue, QueueDiscipline};
use ddcr_sim::rng::{derive_seed, seeded_rng};
use ddcr_sim::{
    Action, ChannelSpan, Frame, Message, Observation, SourceId, Station, Ticks, WakeHint,
};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Per-station counters for the CSMA-CD baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CsmaCdCounters {
    /// Transmission attempts made.
    pub attempts: u64,
    /// Collisions this station was part of.
    pub collisions: u64,
    /// Frames discarded after 16 attempts.
    pub drops: u64,
    /// Frames successfully transmitted.
    pub transmitted: u64,
}

/// A station running 1-persistent CSMA-CD with binary exponential backoff.
///
/// # Examples
///
/// ```
/// use ddcr_baseline::{CsmaCdStation, QueueDiscipline};
/// use ddcr_sim::{MediumConfig, SourceId};
///
/// let station = CsmaCdStation::new(
///     SourceId(0),
///     MediumConfig::ethernet(),
///     QueueDiscipline::Fifo,
///     42, // RNG seed
/// );
/// assert_eq!(station.counters().drops, 0);
/// ```
#[derive(Debug)]
pub struct CsmaCdStation {
    source: SourceId,
    overhead_bits: u64,
    /// Slot time `x` of the medium, to convert the slot-denominated
    /// backoff into a tick horizon for idle fast-forward.
    slot_ticks: u64,
    queue: LocalQueue,
    rng: StdRng,
    /// Remaining backoff, in observed slots.
    backoff: u64,
    /// Attempts made for the current head frame.
    attempts: u32,
    /// Whether this station transmitted in the slot being observed.
    transmitting: bool,
    counters: CsmaCdCounters,
}

/// Maximum attempts before a frame is discarded (802.3 `attemptLimit`).
const ATTEMPT_LIMIT: u32 = 16;
/// Backoff exponent cap (802.3 `backoffLimit`).
const BACKOFF_LIMIT: u32 = 10;

impl CsmaCdStation {
    /// Creates a station; `seed` drives its private backoff stream
    /// (combined with the source id so stations never share a stream).
    pub fn new(
        source: SourceId,
        medium: ddcr_sim::MediumConfig,
        discipline: QueueDiscipline,
        seed: u64,
    ) -> Self {
        CsmaCdStation {
            source,
            overhead_bits: medium.overhead_bits,
            slot_ticks: medium.slot_ticks,
            queue: LocalQueue::new(discipline),
            rng: seeded_rng(derive_seed(seed, u64::from(source.0))),
            backoff: 0,
            attempts: 0,
            transmitting: false,
            counters: CsmaCdCounters::default(),
        }
    }

    /// Counters accumulated so far.
    pub fn counters(&self) -> CsmaCdCounters {
        self.counters
    }

    /// The transmitter side of a failed slot (collision, or an erased
    /// frame — indistinguishable to the MAC): bump the attempt counter and
    /// back off, or discard after `attemptLimit`.
    fn on_failed_attempt(&mut self) {
        self.counters.collisions += 1;
        self.attempts += 1;
        if self.attempts >= ATTEMPT_LIMIT {
            // excessiveCollisionError: discard the frame.
            self.queue.pop();
            self.counters.drops += 1;
            self.attempts = 0;
            self.backoff = 0;
        } else {
            let exp = self.attempts.min(BACKOFF_LIMIT);
            let window = (1u64 << exp) - 1;
            self.backoff = self.rng.gen_range(0..=window);
        }
    }
}

impl Station for CsmaCdStation {
    fn deliver(&mut self, message: Message) {
        self.queue.push(message);
    }

    fn poll(&mut self, _now: Ticks) -> Action {
        self.transmitting = false;
        if self.backoff > 0 {
            return Action::Idle;
        }
        match self.queue.head() {
            Some(&head) => {
                self.transmitting = true;
                self.counters.attempts += 1;
                Action::Transmit(Frame::new(head, head.bits + self.overhead_bits))
            }
            None => Action::Idle,
        }
    }

    fn observe(&mut self, _now: Ticks, _next_free: Ticks, observation: &Observation) {
        // Backoff elapses with channel time regardless of what occupied it.
        if self.backoff > 0 {
            self.backoff -= 1;
        }
        match observation {
            Observation::Busy(frame) => {
                if frame.message.source == self.source
                    && self.queue.pop_if(frame.message.id).is_some()
                {
                    self.counters.transmitted += 1;
                    self.attempts = 0;
                }
            }
            Observation::Collision { survivor } => {
                if let Some(frame) = survivor {
                    if frame.message.source == self.source
                        && self.queue.pop_if(frame.message.id).is_some()
                    {
                        self.counters.transmitted += 1;
                        self.attempts = 0;
                    }
                }
                if self.transmitting {
                    self.on_failed_attempt();
                }
            }
            Observation::Garbled => {
                // The frame was erased on the wire; loss detection is
                // symmetric, so the transmitter reacts exactly as it would
                // to a collision and retries through backoff.
                if self.transmitting {
                    self.on_failed_attempt();
                }
            }
            Observation::Silence => {}
        }
        self.transmitting = false;
    }

    fn backlog(&self) -> usize {
        self.queue.len()
    }

    fn next_ready(&self, now: Ticks) -> Option<Ticks> {
        if self.queue.is_empty() {
            // Nothing to send: silence only drains backoff, which
            // `catch_up` accounts for in bulk.
            None
        } else if self.backoff == 0 {
            Some(now)
        } else {
            // Idle until the backoff expires, then 1-persistent again.
            Some(now + Ticks(self.slot_ticks) * self.backoff)
        }
    }

    fn catch_up(&mut self, span: &ChannelSpan) {
        match *span {
            // A silence observation only decrements the backoff counter.
            ChannelSpan::Silence { slots, .. } => self.backoff = self.backoff.saturating_sub(slots),
            _ => span.replay(self),
        }
    }

    fn label(&self) -> String {
        format!("csma-cd:{}", self.source)
    }

    fn wake_hint(&self) -> WakeHint {
        // A parked station observes nothing and publishes no shared state,
        // so it may sleep only while no observation changes it: an empty
        // queue (poll() is Idle and no frame of its own can be on the
        // wire) and no backoff left to count down.
        if self.queue.is_empty() && self.backoff == 0 {
            WakeHint::Dormant
        } else {
            WakeHint::Active
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddcr_sim::{ClassId, Engine, MediumConfig, MessageId};

    fn msg(id: u64, source: u32, arrival: u64, deadline: u64) -> Message {
        Message {
            id: MessageId(id),
            source: SourceId(source),
            class: ClassId(0),
            bits: 8_000,
            arrival: Ticks(arrival),
            deadline: Ticks(deadline),
        }
    }

    fn network(z: u32, seed: u64) -> Engine {
        let medium = MediumConfig::ethernet();
        let mut engine = Engine::new(medium).unwrap();
        for i in 0..z {
            engine.add_station(Box::new(CsmaCdStation::new(
                SourceId(i),
                medium,
                QueueDiscipline::Fifo,
                seed,
            )));
        }
        engine
    }

    #[test]
    fn uncontended_message_transmits_immediately() {
        let mut e = network(4, 1);
        e.add_arrivals([msg(0, 0, 0, 1_000_000)]).unwrap();
        e.run_to_completion(Ticks(10_000_000)).unwrap();
        assert_eq!(e.stats().deliveries.len(), 1);
        assert_eq!(e.stats().collisions, 0);
    }

    #[test]
    fn collisions_eventually_resolve_via_backoff() {
        let mut e = network(4, 7);
        e.add_arrivals((0..8).map(|i| msg(i, (i % 4) as u32, 0, 100_000_000)))
            .unwrap();
        e.run_to_completion(Ticks(1_000_000_000)).unwrap();
        assert_eq!(e.stats().deliveries.len(), 8);
        assert!(e.stats().collisions > 0, "expected at least one collision");
    }

    #[test]
    fn same_seed_same_trace() {
        let run = |seed: u64| {
            let mut e = network(4, seed);
            e.add_arrivals((0..8).map(|i| msg(i, (i % 4) as u32, 0, 100_000_000)))
                .unwrap();
            e.run_to_completion(Ticks(1_000_000_000)).unwrap();
            e.stats()
                .deliveries
                .iter()
                .map(|d| (d.message.id, d.completed_at))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4)); // different seed, different schedule
    }

    #[test]
    fn edf_discipline_changes_local_order() {
        let medium = MediumConfig::ethernet();
        let mut e = Engine::new(medium).unwrap();
        e.add_station(Box::new(CsmaCdStation::new(
            SourceId(0),
            medium,
            QueueDiscipline::Edf,
            0,
        )));
        e.add_arrivals([
            msg(0, 0, 0, 50_000_000), // loose deadline, arrives first
            msg(1, 0, 0, 1_000_000),  // tight deadline
        ])
        .unwrap();
        e.run_to_completion(Ticks(100_000_000)).unwrap();
        assert_eq!(e.stats().deliveries[0].message.id, MessageId(1));
    }
}
