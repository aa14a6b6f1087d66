//! Centralized non-preemptive EDF — the contention-free oracle.
//!
//! Jeffay, Stanat & Martel [20] showed centralized NP-EDF optimal for the
//! centralized variant of HRTDM under periodic/sporadic arrivals; the paper
//! positions CSMA/DDCR as its *distributed emulation*. This oracle models a
//! single scheduler with global queue knowledge and zero contention
//! overhead: whenever the channel is free, the globally
//! earliest-deadline pending message is transmitted. It lower-bounds the
//! latency any distributed MAC can achieve on the same workload, so
//! experiment E8 uses it as the floor of the comparison.

use ddcr_sim::{
    Action, ChannelSpan, Frame, Message, Observation, SourceId, Station, Ticks, WakeHint,
};
use std::collections::VecDeque;

/// The centralized NP-EDF oracle: one [`Station`] that owns every queue.
///
/// Attach it as the only station and route **all** sources' messages to
/// source index 0 — or, more conveniently, use
/// [`NpEdfOracle::run_schedule`], which rewrites the schedule and returns
/// channel statistics directly.
///
/// # Examples
///
/// ```
/// use ddcr_baseline::NpEdfOracle;
/// use ddcr_sim::{ClassId, MediumConfig, Message, MessageId, SourceId, Ticks};
///
/// # fn main() -> Result<(), ddcr_sim::SimError> {
/// let schedule = vec![Message {
///     id: MessageId(0), source: SourceId(3), class: ClassId(0),
///     bits: 8_000, arrival: Ticks(0), deadline: Ticks(1_000_000),
/// }];
/// let stats = NpEdfOracle::run_schedule(
///     MediumConfig::ethernet(), schedule, Ticks(10_000_000))?;
/// assert_eq!(stats.deliveries.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct NpEdfOracle {
    overhead_bits: u64,
    /// Global queue, EDF order (deadline, arrival, id); a deque so the
    /// per-delivery head pop is O(1).
    queue: VecDeque<Message>,
}

impl NpEdfOracle {
    /// Creates the oracle for a given medium.
    pub fn new(medium: ddcr_sim::MediumConfig) -> Self {
        NpEdfOracle {
            overhead_bits: medium.overhead_bits,
            queue: VecDeque::new(),
        }
    }

    /// Runs a whole schedule through the oracle and returns the channel
    /// statistics. Message source ids are preserved in the deliveries even
    /// though a single scheduler drives the channel.
    ///
    /// # Errors
    ///
    /// Returns [`ddcr_sim::SimError`] if the run exceeds `max` ticks.
    pub fn run_schedule(
        medium: ddcr_sim::MediumConfig,
        schedule: Vec<Message>,
        max: Ticks,
    ) -> Result<ddcr_sim::ChannelStats, ddcr_sim::SimError> {
        let mut engine = ddcr_sim::Engine::new(medium)?;
        engine.add_station(Box::new(NpEdfOracle::new(medium)));
        // The oracle is station 0; reroute arrivals to it while keeping the
        // original source visible in the message itself... the engine keys
        // delivery on `message.source`, so rewrite to 0 but keep a copy of
        // the original id in `class`-preserving fields. Since `Message` is
        // plain data, the delivered records keep whatever we set here; we
        // deliberately keep the original source so per-source stats remain
        // meaningful, and instead attach the oracle as the station for
        // index 0..z by rewriting below.
        let rewritten: Vec<Message> = schedule
            .into_iter()
            .map(|mut m| {
                m.source = SourceId(0);
                m
            })
            .collect();
        engine.add_arrivals(rewritten)?;
        engine.run_to_completion(max)?;
        Ok(engine.into_stats())
    }
}

impl Station for NpEdfOracle {
    fn deliver(&mut self, message: Message) {
        let key = |m: &Message| (m.absolute_deadline(), m.arrival, m.id);
        let k = key(&message);
        let pos = self.queue.partition_point(|m| key(m) <= k);
        self.queue.insert(pos, message);
    }

    fn poll(&mut self, _now: Ticks) -> Action {
        match self.queue.front() {
            Some(&head) => Action::Transmit(Frame::new(head, head.bits + self.overhead_bits)),
            None => Action::Idle,
        }
    }

    fn observe(&mut self, _now: Ticks, _next_free: Ticks, observation: &Observation) {
        if let Observation::Busy(frame) = observation {
            if self.queue.front().map(|m| m.id) == Some(frame.message.id) {
                self.queue.pop_front();
            }
        }
    }

    fn backlog(&self) -> usize {
        self.queue.len()
    }

    fn next_ready(&self, now: Ticks) -> Option<Ticks> {
        // The oracle transmits whenever it holds work and sleeps otherwise;
        // silence carries no protocol state for it.
        if self.queue.is_empty() {
            None
        } else {
            Some(now)
        }
    }

    fn catch_up(&mut self, span: &ChannelSpan) {
        // Silence observations are a no-op (see `observe`).
        if !matches!(span, ChannelSpan::Silence { .. }) {
            span.replay(self);
        }
    }

    fn label(&self) -> String {
        "np-edf-oracle".to_owned()
    }

    fn wake_hint(&self) -> WakeHint {
        // With an empty queue the oracle is inert until the next `deliver`:
        // poll() is Idle and `observe` only ever pops this queue's own head
        // (impossible while empty), so the observations a parked oracle
        // misses would not have changed it.
        if self.queue.is_empty() {
            WakeHint::Dormant
        } else {
            WakeHint::Active
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddcr_sim::{ClassId, MediumConfig, MessageId};

    fn msg(id: u64, arrival: u64, deadline: u64) -> Message {
        Message {
            id: MessageId(id),
            source: SourceId((id % 4) as u32),
            class: ClassId(0),
            bits: 8_000,
            arrival: Ticks(arrival),
            deadline: Ticks(deadline),
        }
    }

    #[test]
    fn serves_globally_earliest_deadline() {
        let schedule = vec![
            msg(0, 0, 50_000_000),
            msg(1, 0, 1_000_000),
            msg(2, 0, 9_000_000),
        ];
        let stats =
            NpEdfOracle::run_schedule(MediumConfig::ethernet(), schedule, Ticks(100_000_000))
                .unwrap();
        let order: Vec<u64> = stats.deliveries.iter().map(|d| d.message.id.0).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn zero_contention_overhead() {
        let schedule: Vec<Message> = (0..10).map(|i| msg(i, 0, 100_000_000)).collect();
        let stats =
            NpEdfOracle::run_schedule(MediumConfig::ethernet(), schedule, Ticks(1_000_000_000))
                .unwrap();
        assert_eq!(stats.collisions, 0);
        assert_eq!(stats.deliveries.len(), 10);
        // Back-to-back transmissions: completion time = 10 frames exactly.
        let wire = 8_000 + MediumConfig::ethernet().overhead_bits;
        assert_eq!(
            stats.deliveries.last().unwrap().completed_at,
            Ticks(10 * wire)
        );
    }

    #[test]
    fn tied_deadlines_serve_fifo_then_id_even_across_pops() {
        // Six messages with the same absolute deadline: four queued up
        // front, two landing mid-drain with a later arrival. The rotated
        // deque must keep the (arrival, id) tie-break exact.
        let mut schedule: Vec<Message> = (0..4).map(|i| msg(i, 0, 10_000_000)).collect();
        schedule.extend((4..6).map(|i| Message {
            arrival: Ticks(1_000),
            deadline: Ticks(9_999_000), // same DM = 10_000_000
            ..msg(i, 0, 0)
        }));
        let stats =
            NpEdfOracle::run_schedule(MediumConfig::ethernet(), schedule, Ticks(100_000_000))
                .unwrap();
        let order: Vec<u64> = stats.deliveries.iter().map(|d| d.message.id.0).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn non_preemptive_blocking_is_modelled() {
        // A long low-priority frame started first blocks an urgent one —
        // the unavoidable inversion the paper notes for any non-preemptable
        // channel.
        let long = Message {
            bits: 96_000,
            ..msg(0, 0, 100_000_000)
        };
        let urgent = msg(1, 10, 200_000);
        let stats = NpEdfOracle::run_schedule(
            MediumConfig::ethernet(),
            vec![long, urgent],
            Ticks(1_000_000_000),
        )
        .unwrap();
        assert_eq!(stats.deliveries[0].message.id, MessageId(0));
        assert!(stats.deliveries[1].completed_at > Ticks(96_000));
    }
}
