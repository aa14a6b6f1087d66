//! CSMA/DCR — the 802.3D deterministic collision resolution protocol
//! (Le Lann & Rolin, 1984), the industrial ancestor of CSMA/DDCR's STs.
//!
//! Identical to CSMA-CD in the absence of collisions. On a collision, every
//! station enters a deterministic balanced m-ary tree search over the
//! statically allocated station indices (one leaf per station here);
//! stations that were part of the collision transmit when their leaf is
//! isolated, everyone else defers until the search (an "epoch") completes.
//! Deterministic, so bounded resolution time — but FCFS with respect to
//! deadlines: no deadline-class structure, which is precisely what
//! CSMA/DDCR adds on top.

use crate::queue::{LocalQueue, QueueDiscipline};
use ddcr_core::mts::{MtsEvent, MtsSearch, SlotOutcome};
use ddcr_sim::{Action, ChannelSpan, Frame, Message, Observation, SourceId, Station, Ticks};
use ddcr_tree::TreeShape;
use serde::{Deserialize, Serialize};

/// When may a station join an ongoing collision-resolution epoch? The
/// taxonomy of the tree-protocol literature the paper cites
/// (Mathys & Flajolet: "free or blocked channel access").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum AccessMode {
    /// Only the stations that collided participate; everyone else defers
    /// until the epoch completes (classical CSMA/DCR, better worst case).
    #[default]
    Blocked,
    /// A station with a pending message joins the search as soon as its
    /// leaf is probed, even if it was not part of the opening collision
    /// (better mean delay, worse tail — the classical tradeoff).
    Free,
}

/// Per-station counters for the CSMA/DCR baseline.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DcrCounters {
    /// Tree-search epochs this station participated in.
    pub epochs: u64,
    /// Frames successfully transmitted.
    pub transmitted: u64,
    /// Probe slots observed while resolving.
    pub probe_slots: u64,
}

/// Protocol phase.
#[derive(Debug, Clone)]
enum Phase {
    /// CSMA-CD behaviour while no collision is unresolved.
    Normal,
    /// Deterministic tree search in progress.
    Resolving(MtsSearch),
}

/// A station running CSMA/DCR (802.3D).
///
/// # Examples
///
/// ```
/// use ddcr_baseline::{DcrStation, QueueDiscipline};
/// use ddcr_sim::{MediumConfig, SourceId};
///
/// # fn main() -> Result<(), ddcr_tree::TreeError> {
/// let station = DcrStation::new(
///     SourceId(1),
///     8, // stations on the bus
///     MediumConfig::ethernet(),
///     QueueDiscipline::Fifo,
/// )?;
/// assert_eq!(station.counters().epochs, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct DcrStation {
    source: SourceId,
    tree: TreeShape,
    overhead_bits: u64,
    queue: LocalQueue,
    phase: Phase,
    access: AccessMode,
    /// Whether this station was part of the collision that opened the
    /// current epoch (and still owes a transmission).
    active_in_epoch: bool,
    /// Whether this station transmitted in the slot being observed.
    transmitting: bool,
    counters: DcrCounters,
}

impl DcrStation {
    /// Creates a station on a bus with `stations` total stations; the
    /// resolution tree is the smallest binary tree with at least that many
    /// leaves, and this station's leaf is its source id.
    ///
    /// # Errors
    ///
    /// Returns [`ddcr_tree::TreeError`] if a tree cannot be built.
    pub fn new(
        source: SourceId,
        stations: u32,
        medium: ddcr_sim::MediumConfig,
        discipline: QueueDiscipline,
    ) -> Result<Self, ddcr_tree::TreeError> {
        let mut n = 1u32;
        while 2u64.pow(n) < u64::from(stations) {
            n += 1;
        }
        Ok(DcrStation {
            source,
            tree: TreeShape::new(2, n)?,
            overhead_bits: medium.overhead_bits,
            queue: LocalQueue::new(discipline),
            phase: Phase::Normal,
            access: AccessMode::Blocked,
            active_in_epoch: false,
            transmitting: false,
            counters: DcrCounters::default(),
        })
    }

    /// Switches the channel-access rule (blocked vs free, Mathys–Flajolet).
    pub fn with_access_mode(mut self, access: AccessMode) -> Self {
        self.access = access;
        self
    }

    /// Counters accumulated so far.
    pub fn counters(&self) -> DcrCounters {
        self.counters
    }

    fn frame(&self, msg: Message) -> Frame {
        Frame::new(msg, msg.bits + self.overhead_bits)
    }

    fn note_success(&mut self, frame: &Frame) {
        if frame.message.source == self.source && self.queue.pop_if(frame.message.id).is_some() {
            self.counters.transmitted += 1;
            self.active_in_epoch = false;
        }
    }
}

impl Station for DcrStation {
    fn deliver(&mut self, message: Message) {
        self.queue.push(message);
    }

    fn poll(&mut self, _now: Ticks) -> Action {
        self.transmitting = false;
        match &self.phase {
            Phase::Normal => match self.queue.head() {
                Some(&head) => {
                    self.transmitting = true;
                    Action::Transmit(self.frame(head))
                }
                None => Action::Idle,
            },
            Phase::Resolving(search) => {
                // Free access: late messages join the epoch at their leaf.
                let may_join = match self.access {
                    AccessMode::Blocked => self.active_in_epoch,
                    AccessMode::Free => self.active_in_epoch || !self.queue.is_empty(),
                };
                if !may_join {
                    return Action::Idle;
                }
                let Some(interval) = search.current() else {
                    return Action::Idle;
                };
                let (Some(&head), true) = (
                    self.queue.head(),
                    interval.contains(u64::from(self.source.0)),
                ) else {
                    return Action::Idle;
                };
                self.transmitting = true;
                Action::Transmit(self.frame(head))
            }
        }
    }

    fn observe(&mut self, _now: Ticks, _next_free: Ticks, observation: &Observation) {
        let (outcome, success_frame) = match observation {
            Observation::Silence => (SlotOutcome::Empty, None),
            Observation::Busy(f) => (SlotOutcome::Success, Some(*f)),
            Observation::Collision { survivor } => (SlotOutcome::Collision, *survivor),
            // An erased frame is indistinguishable from a collision:
            // channel held, nothing decoded, transmitter retries.
            Observation::Garbled => (SlotOutcome::Collision, None),
        };
        if let Some(frame) = success_frame {
            self.note_success(&frame);
        }
        match std::mem::replace(&mut self.phase, Phase::Normal) {
            Phase::Normal => {
                if outcome == SlotOutcome::Collision {
                    // Epoch opens: participants are exactly the stations
                    // that transmitted into the collision.
                    self.active_in_epoch = self.transmitting;
                    self.counters.epochs += u64::from(self.transmitting);
                    self.phase = Phase::Resolving(MtsSearch::new(self.tree));
                }
                // else stay Normal
            }
            Phase::Resolving(mut search) => {
                self.counters.probe_slots += 1;
                match search.feed(outcome) {
                    MtsEvent::Continue => self.phase = Phase::Resolving(search),
                    MtsEvent::LeafCollision { .. } => {
                        // A conforming network cannot collide on a
                        // single-owner leaf, but an injected channel fault
                        // (corrupted slot) reads as one. The probe already
                        // consumed the leaf; the owner keeps its message
                        // and retries after the epoch, so resolution stays
                        // live instead of panicking on interference.
                        if search.is_done() {
                            self.active_in_epoch = false;
                            self.phase = Phase::Normal;
                        } else {
                            self.phase = Phase::Resolving(search);
                        }
                    }
                    MtsEvent::Done => {
                        self.active_in_epoch = false;
                        self.phase = Phase::Normal;
                    }
                }
            }
        }
        self.transmitting = false;
    }

    fn backlog(&self) -> usize {
        self.queue.len()
    }

    fn next_ready(&self, now: Ticks) -> Option<Ticks> {
        match self.phase {
            // Idle in Normal phase: silence observations are no-ops, so the
            // station sleeps until its next delivery.
            Phase::Normal if self.queue.is_empty() => None,
            // Holding work, or mid-epoch (silence slots advance the tree
            // search): every slot matters.
            _ => Some(now),
        }
    }

    fn catch_up(&mut self, span: &ChannelSpan) {
        // A silence run only reaches a station that is Normal with an
        // empty queue (see `next_ready`), where it changes nothing.
        if !matches!(span, ChannelSpan::Silence { .. }) {
            span.replay(self);
        }
    }

    fn label(&self) -> String {
        format!("dcr:{}", self.source)
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

    fn network(z: u32) -> Engine {
        let medium = MediumConfig::ethernet();
        let mut engine = Engine::new(medium).unwrap();
        for i in 0..z {
            engine.add_station(Box::new(
                DcrStation::new(SourceId(i), z, medium, QueueDiscipline::Fifo).unwrap(),
            ));
        }
        engine
    }

    #[test]
    fn collision_resolves_in_index_order() {
        let mut e = network(4);
        e.add_arrivals([msg(0, 3, 0, 10_000_000), msg(1, 1, 0, 10_000_000)])
            .unwrap();
        e.run_to_completion(Ticks(100_000_000)).unwrap();
        let d = &e.stats().deliveries;
        assert_eq!(d.len(), 2);
        // Deterministic: station 1 (lower index) before station 3.
        assert_eq!(d[0].message.source, SourceId(1));
        assert_eq!(d[1].message.source, SourceId(3));
    }

    #[test]
    fn deterministic_bounded_resolution() {
        // All 8 stations collide; the epoch must finish within the
        // tree-search bound ξ_8^8 + 1 probes plus 8 transmissions.
        let mut e = network(8);
        e.add_arrivals((0..8).map(|i| msg(i, i as u32, 0, 100_000_000)))
            .unwrap();
        e.run_to_completion(Ticks(1_000_000_000)).unwrap();
        assert_eq!(e.stats().deliveries.len(), 8);
        // ξ_8^8 = 7 collision slots for the fully active 8-leaf binary
        // tree (one per internal node); the initial collision is the root,
        // the remaining 6 occur during the search.
        assert_eq!(e.stats().collisions, 7);
    }

    #[test]
    fn runs_are_reproducible() {
        let run = || {
            let mut e = network(4);
            e.add_arrivals((0..6).map(|i| msg(i, (i % 4) as u32, 0, 100_000_000)))
                .unwrap();
            e.run_to_completion(Ticks(1_000_000_000)).unwrap();
            e.stats()
                .deliveries
                .iter()
                .map(|d| (d.message.id, d.completed_at))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn free_access_lets_late_arrivals_join_the_epoch() {
        let medium = MediumConfig::ethernet();
        let run = |mode: AccessMode| {
            let mut e = Engine::new(medium).unwrap();
            for i in 0..4u32 {
                e.add_station(Box::new(
                    DcrStation::new(SourceId(i), 4, medium, QueueDiscipline::Fifo)
                        .unwrap()
                        .with_access_mode(mode),
                ));
            }
            // Sources 0 and 3 collide at t = 0; source 2's message arrives
            // mid-epoch, before its leaf is probed.
            e.add_arrivals([
                msg(0, 0, 0, 10_000_000),
                msg(1, 3, 0, 10_000_000),
                msg(2, 2, 600, 10_000_000),
            ])
            .unwrap();
            e.run_to_completion(Ticks(100_000_000)).unwrap();
            e.into_stats()
                .deliveries
                .iter()
                .map(|d| d.message.source.0)
                .collect::<Vec<_>>()
        };
        // Blocked: the late message waits for the epoch (0, 3, then 2).
        assert_eq!(run(AccessMode::Blocked), vec![0, 3, 2]);
        // Free: it joins at its leaf, beating source 3 (0, 2, 3).
        assert_eq!(run(AccessMode::Free), vec![0, 2, 3]);
    }

    #[test]
    fn late_arrivals_defer_until_epoch_ends() {
        let mut e = network(4);
        // Two stations collide at t = 0; a third message arrives while the
        // epoch is resolving and must wait.
        e.add_arrivals([
            msg(0, 0, 0, 10_000_000),
            msg(1, 1, 0, 10_000_000),
            msg(2, 2, 600, 10_000_000),
        ])
        .unwrap();
        e.run_to_completion(Ticks(100_000_000)).unwrap();
        let d = &e.stats().deliveries;
        assert_eq!(d.len(), 3);
        assert_eq!(d[2].message.id, MessageId(2));
    }
}
