//! The CSMA/DDCR station state machine (§3.2).
//!
//! Every station runs a **replica** of the same deterministic automaton,
//! advanced only by the shared channel feedback; the only private inputs
//! are the station's own queue contents and its static index allocation.
//! The automaton cycles through:
//!
//! 1. **TTs** — a time tree search over `F` deadline equivalence classes of
//!    width `c`. A station participates with `msg*` (the EDF head) at leaf
//!    `f(reft, msg*) = max{⌊(DM − (α + reft))/c⌋, f* + 1}`, or sits out if
//!    the index exceeds `F − 1`. A collision on a time-tree *leaf* (two
//!    messages in the same deadline class) suspends TTs and runs STs.
//! 2. **STs** — a static tree search over `q` statically allocated source
//!    indices; a source participates with messages in the collided (or an
//!    earlier) deadline class and may transmit up to `ν_i` messages, one
//!    per owned index, in ranking order.
//! 3. **Attempt** — one CSMA-CD attempt slot after a TTs that transmitted
//!    (`out = true`), and — when compressed time is off — also after an
//!    empty TTs ("if a message is waiting in Q at the end of some execution
//!    of TTs, its transmission is attempted, à la CSMA-CD"); a collision
//!    re-synchronises `reft` to physical time and a new TTs begins. With
//!    compressed time on, an empty TTs loops straight into the next TTs
//!    per the pseudocode (see docs/PROTOCOL.md, decision D1).
//!
//! `reft` follows the paper's rules: set to physical time at protocol
//! start, at every successful transmission during a time tree search, at
//! static tree search completion, and after an attempt-slot collision;
//! incremented by `θ(c)` when a time tree search ends without any
//! transmission (compressed-time mode).

use crate::config::DdcrConfig;
use crate::edf::EdfQueue;
use crate::indices::StaticAllocation;
use crate::mts::{Interval, MtsEvent, MtsSearch, SlotOutcome};
use ddcr_sim::{
    Action, AttemptCycleHint, ChannelSpan, EpochStamp, Frame, Message, MessageId, Observation,
    PhaseHint, ProtocolPhase, SourceId, Station, SteppedSlot, Ticks, WakeHint,
};
use serde::{Deserialize, Serialize};

/// Per-station protocol event counters, for experiments and ablations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProtocolCounters {
    /// Time tree searches started.
    pub tts_runs: u64,
    /// Time tree searches that ended without any transmission
    /// (`out = false`).
    pub tts_empty_runs: u64,
    /// Static tree searches run.
    pub sts_runs: u64,
    /// Attempt slots in which this station transmitted.
    pub attempts: u64,
    /// Attempt slots that ended in a collision.
    pub attempt_collisions: u64,
    /// Probe slots observed as collisions (search overhead).
    pub probe_collisions: u64,
    /// Probe slots observed as empty (search overhead).
    pub probe_empties: u64,
    /// Burst continuation frames this station transmitted.
    pub burst_continuations: u64,
    /// Messages this station transmitted successfully.
    pub transmitted: u64,
    /// Collisions that cannot occur in a conforming network (static-leaf
    /// collisions): evidence of interference or a babbling station.
    pub interference_collisions: u64,
    /// Injected omission failures this station suffered.
    pub crashes: u64,
    /// Successful resynchronizations after a restart (epoch boundary
    /// observed, replica state rebuilt).
    pub rejoins: u64,
}

impl ProtocolCounters {
    /// Copies the **shared** (replica-invariant) counters from `other`,
    /// leaving the private ones untouched.
    ///
    /// The shared subset moves in lock-step on every synced replica because
    /// each is incremented purely from channel feedback (`observe`
    /// transitions): searches started/finished, probe outcomes, attempt
    /// collisions and interference. The private subset — `attempts`,
    /// `transmitted`, `burst_continuations`, `crashes`, `rejoins` — counts
    /// this station's own actions and never changes while it stays silent,
    /// so a parked replica adopting a witness's shared state on wake keeps
    /// its own values.
    fn adopt_shared(&mut self, other: &ProtocolCounters) {
        self.tts_runs = other.tts_runs;
        self.tts_empty_runs = other.tts_empty_runs;
        self.sts_runs = other.sts_runs;
        self.attempt_collisions = other.attempt_collisions;
        self.probe_collisions = other.probe_collisions;
        self.probe_empties = other.probe_empties;
        self.interference_collisions = other.interference_collisions;
    }
}

/// The shared replica state a synced station publishes through
/// [`Station::resync_checkpoint`] and a waking parked replica installs
/// through [`Station::resync_adopt`]: the automaton phase, `reft`, the
/// burst reservation, the epoch coordinates and the counter block (of
/// which only the shared subset is adopted). Every synced replica agrees
/// on all of it except the private counters (§4).
#[derive(Debug)]
struct SharedState {
    phase: Phase,
    reft: Ticks,
    burst_reserved_for: Option<SourceId>,
    epoch: EpochStamp,
    counters: ProtocolCounters,
}

/// State of one time tree search in progress.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TtsState {
    search: MtsSearch,
    transmitted_any: bool,
}

/// Protocol phase; shared-deterministic across replicas.
#[derive(Debug, PartialEq, Eq)]
enum Phase {
    /// Running a time tree search.
    Tts(TtsState),
    /// Running a static tree search nested inside a suspended TTs.
    Sts {
        search: MtsSearch,
        collided_leaf: u64,
        saved: TtsState,
    },
    /// The single CSMA-CD attempt slot following a time tree search.
    Attempt,
}

impl Clone for Phase {
    fn clone(&self) -> Self {
        match self {
            Phase::Tts(state) => Phase::Tts(state.clone()),
            Phase::Sts {
                search,
                collided_leaf,
                saved,
            } => Phase::Sts {
                search: search.clone(),
                collided_leaf: *collided_leaf,
                saved: saved.clone(),
            },
            Phase::Attempt => Phase::Attempt,
        }
    }

    /// Reuses the search stacks when both phases are the same variant, so
    /// a waking replica adopting the witness's phase allocates nothing.
    fn clone_from(&mut self, source: &Self) {
        match (self, source) {
            (Phase::Tts(mine), Phase::Tts(theirs)) => {
                mine.search.clone_from(&theirs.search);
                mine.transmitted_any = theirs.transmitted_any;
            }
            (
                Phase::Sts {
                    search,
                    collided_leaf,
                    saved,
                },
                Phase::Sts {
                    search: their_search,
                    collided_leaf: their_leaf,
                    saved: their_saved,
                },
            ) => {
                search.clone_from(their_search);
                *collided_leaf = *their_leaf;
                saved.search.clone_from(&their_saved.search);
                saved.transmitted_any = their_saved.transmitted_any;
            }
            (mine, theirs) => *mine = theirs.clone(),
        }
    }
}

/// What this slot means for this station (computed from the phase without
/// holding a borrow on it).
enum SlotPlan {
    Tts {
        frontier: u64,
        interval: Option<Interval>,
    },
    Sts {
        interval: Option<Interval>,
        collided_leaf: u64,
    },
    Attempt,
}

/// Liveness mode of this replica with respect to the shared automaton.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Mode {
    /// Normal operation: a full replica of the shared automaton.
    Online,
    /// Crashed (fenced by the engine); volatile state is gone.
    Crashed,
    /// Up after a restart, but receive-only: the replica state is stale, so
    /// the station buffers every channel span it hears and waits for a
    /// frame whose [`EpochStamp`] proves a tree-search epoch began after
    /// `since`. It then rebuilds the shared state from the stamp and
    /// replays the buffer (see `observe_resync`).
    Resync {
        since: Ticks,
        buffer: Vec<ChannelSpan>,
    },
}

/// A CSMA/DDCR station: local EDF queue plus the replicated
/// deadline-driven collision-resolution automaton.
///
/// # Examples
///
/// ```
/// use ddcr_core::{DdcrConfig, DdcrStation, StaticAllocation};
/// use ddcr_sim::{MediumConfig, SourceId, Ticks};
///
/// # fn main() -> Result<(), ddcr_core::DdcrError> {
/// let config = DdcrConfig::for_sources(4, Ticks(100_000))?;
/// let allocation = StaticAllocation::one_per_source(config.static_tree, 4)?;
/// let station = DdcrStation::new(
///     SourceId(0),
///     config,
///     &allocation,
///     MediumConfig::ethernet().overhead_bits,
/// )?;
/// assert_eq!(station.counters().transmitted, 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DdcrStation {
    source: SourceId,
    config: DdcrConfig,
    /// This source's ranked static leaves (its `ν_i` list): the only part
    /// of the network-wide allocation a replica ever reads.
    indices: Box<[u64]>,
    overhead_bits: u64,
    queue: EdfQueue,
    phase: Phase,
    reft: Ticks,
    /// Frozen time-tree leaf for the current `msg*`; `None` while no index
    /// is held (empty queue, or the message sits out of this TTs).
    time_index: Option<u64>,
    /// Which message the frozen index belongs to (recompute trigger).
    time_index_for: Option<MessageId>,
    /// How many messages this station has transmitted in the current STs.
    sts_cursor: u64,
    /// Burst reservation: the source whose burst continues next slot.
    burst_reserved_for: Option<SourceId>,
    /// Remaining burst bit budget (meaningful on the bursting station).
    burst_budget: u64,
    /// Crash/resync mode (Online in a fault-free run).
    mode: Mode,
    /// When the current tree-search epoch (the TTs run in progress, or the
    /// one whose attempt slot is pending) began.
    epoch_start: Ticks,
    /// `reft` at the epoch boundary.
    epoch_reft: Ticks,
    /// Burst reservation armed at the epoch boundary (an epoch can begin
    /// with a source still holding channel control).
    epoch_burst: Option<SourceId>,
    counters: ProtocolCounters,
}

impl DdcrStation {
    /// Creates a station replica. The replica keeps only `source`'s own
    /// ranked leaves, so building `z` stations costs `O(z)`.
    ///
    /// # Errors
    ///
    /// Returns [`crate::DdcrError::InvalidConfig`] if the source is outside
    /// the allocation or the configuration fails validation.
    pub fn new(
        source: SourceId,
        config: DdcrConfig,
        allocation: &StaticAllocation,
        overhead_bits: u64,
    ) -> Result<Self, crate::DdcrError> {
        config.validate(allocation.sources())?;
        if source.0 >= allocation.sources() {
            return Err(crate::DdcrError::InvalidConfig(format!(
                "source {source} outside allocation of {} sources",
                allocation.sources()
            )));
        }
        Ok(DdcrStation {
            source,
            config,
            indices: allocation.indices_of(source).into(),
            overhead_bits,
            queue: EdfQueue::new(),
            phase: Phase::Tts(TtsState {
                search: MtsSearch::new(config.time_tree),
                transmitted_any: false,
            }),
            reft: Ticks::ZERO,
            time_index: None,
            time_index_for: None,
            sts_cursor: 0,
            burst_reserved_for: None,
            burst_budget: 0,
            mode: Mode::Online,
            epoch_start: Ticks::ZERO,
            epoch_reft: Ticks::ZERO,
            epoch_burst: None,
            counters: ProtocolCounters {
                tts_runs: 1,
                ..ProtocolCounters::default()
            },
        })
    }

    /// The station's source id.
    pub fn source(&self) -> SourceId {
        self.source
    }

    /// Event counters accumulated so far.
    pub fn counters(&self) -> ProtocolCounters {
        self.counters
    }

    /// The current reference time `reft`.
    pub fn reft(&self) -> Ticks {
        self.reft
    }

    /// A digest of the **shared** (replica-invariant) protocol state:
    /// phase kind, search frontier, current interval, `reft`, and burst
    /// reservation. Every station attached to the same channel must produce
    /// identical digests at every slot boundary; integration tests assert
    /// exactly that.
    pub fn shared_state_digest(&self) -> String {
        match &self.mode {
            Mode::Crashed => return "crashed".to_owned(),
            Mode::Resync { since, .. } => return format!("resync;since={since}"),
            Mode::Online => {}
        }
        let fmt_interval =
            |i: Option<Interval>| i.map_or("-".to_owned(), |i| format!("{}+{}", i.lo, i.width));
        let phase = match &self.phase {
            Phase::Tts(s) => format!(
                "TTs(front={},cur={},out={})",
                s.search.frontier(),
                fmt_interval(s.search.current()),
                s.transmitted_any
            ),
            Phase::Sts {
                search,
                collided_leaf,
                saved,
            } => format!(
                "STs(cur={},leaf={},saved_front={})",
                fmt_interval(search.current()),
                collided_leaf,
                saved.search.frontier()
            ),
            Phase::Attempt => "Attempt".to_owned(),
        };
        format!(
            "{phase};reft={};burst={:?};epoch=({},{},{:?})",
            self.reft, self.burst_reserved_for, self.epoch_start, self.epoch_reft, self.epoch_burst
        )
    }

    /// Whether this replica is a full participant of the shared automaton
    /// (not crashed and not resynchronizing). Only synced replicas are
    /// required to agree on [`DdcrStation::shared_state_digest`].
    pub fn is_synced(&self) -> bool {
        matches!(self.mode, Mode::Online)
    }

    /// Raw deadline-class index `⌊(DM(msg) − (α + reft)) / c⌋`, which may
    /// be negative for "late" messages.
    fn raw_f(&self, msg: &Message) -> i64 {
        let dm = msg.absolute_deadline().as_u64() as i128;
        let origin = (self.config.alpha + self.reft).as_u64() as i128;
        let c = self.config.class_width.as_u64() as i128;
        (dm - origin).div_euclid(c) as i64
    }

    /// Recomputes the frozen time index when `msg*` changed, applying the
    /// `max{…, f* + 1}` clamp and the `> F − 1` sit-out rule.
    fn ensure_time_index(&mut self, frontier: u64) {
        match self.queue.head() {
            None => {
                self.time_index = None;
                self.time_index_for = None;
            }
            Some(head) => {
                if self.time_index_for != Some(head.id) {
                    let id = head.id;
                    let clamped = self.raw_f(head).max(frontier as i64) as u64;
                    self.time_index = if clamped >= self.config.time_tree.leaves() {
                        None // sits this time tree search out
                    } else {
                        Some(clamped)
                    };
                    self.time_index_for = Some(id);
                }
            }
        }
    }

    /// Whether a message may enter the static tree tie-break for a
    /// collision on `collided_leaf`: its (unclamped) deadline class is the
    /// collided class or an earlier one.
    fn eligible_for_sts(&self, msg: &Message, collided_leaf: u64) -> bool {
        self.raw_f(msg) <= collided_leaf as i64
    }

    /// Builds the frame for transmitting `msg` now, computing the burst
    /// continuation flag against the full burst budget.
    fn initial_frame(&self, msg: Message) -> Frame {
        let mut frame = Frame::new(msg, msg.bits + self.overhead_bits);
        frame.epoch = Some(self.epoch_stamp());
        if let Some(burst) = self.config.bursting {
            frame.burst_more = self
                .queue
                .second()
                .is_some_and(|next| next.bits <= burst.max_extra_bits);
        }
        frame
    }

    /// Builds a burst continuation frame for the current head against the
    /// remaining budget.
    fn continuation_frame(&self, msg: Message) -> Frame {
        let mut frame = Frame::new(msg, msg.bits + self.overhead_bits);
        frame.epoch = Some(self.epoch_stamp());
        if self.config.bursting.is_some() {
            let remaining = self.burst_budget.saturating_sub(msg.bits);
            frame.burst_more = self
                .queue
                .second()
                .is_some_and(|next| next.bits <= remaining);
        }
        frame
    }

    /// Bookkeeping common to every observed successful transmission:
    /// dequeues own messages and arms/disarms the burst reservation.
    /// `fresh_acquisition` marks a first frame (not a continuation), which
    /// refills the transmitter's burst budget.
    fn note_delivery(&mut self, frame: &Frame, fresh_acquisition: bool) {
        if frame.message.source == self.source && self.queue.pop_if(frame.message.id).is_some() {
            self.counters.transmitted += 1;
            if fresh_acquisition && frame.burst_more {
                self.burst_budget = self.config.bursting.map(|b| b.max_extra_bits).unwrap_or(0);
            }
        }
        self.burst_reserved_for = if frame.burst_more {
            Some(frame.message.source)
        } else {
            None
        };
    }

    /// The epoch coordinates every transmitted frame carries (the resync
    /// anchor for restarted stations).
    fn epoch_stamp(&self) -> EpochStamp {
        EpochStamp {
            start: self.epoch_start,
            reft: self.epoch_reft,
            burst: self.epoch_burst,
        }
    }

    /// Starts a fresh time tree search (new `reft`-relative indices) at
    /// channel time `at` — a tree-search epoch boundary. Must run *after*
    /// any `reft` update and `note_delivery` of the closing slot, so the
    /// recorded epoch coordinates are the ones the new search runs under.
    fn start_tts(&mut self, at: Ticks) {
        self.counters.tts_runs += 1;
        self.time_index = None;
        self.time_index_for = None;
        self.epoch_start = at;
        self.epoch_reft = self.reft;
        self.epoch_burst = self.burst_reserved_for;
        self.phase = Phase::Tts(TtsState {
            search: MtsSearch::new(self.config.time_tree),
            transmitted_any: false,
        });
    }

    /// Handles the slot observation for a burst-reserved slot; returns
    /// `true` if the slot was consumed by burst handling.
    fn observe_burst_slot(&mut self, observation: &Observation) -> bool {
        if self.burst_reserved_for.is_none() {
            return false;
        }
        match observation {
            Observation::Busy(frame) => {
                if frame.message.source == self.source {
                    self.burst_budget = self.burst_budget.saturating_sub(frame.message.bits);
                    self.counters.burst_continuations += 1;
                }
                self.note_delivery(frame, false);
            }
            Observation::Silence => {
                self.burst_reserved_for = None;
            }
            Observation::Collision { survivor } => {
                // Defensive: a conforming network never collides into a
                // reserved slot; resolve by dropping the reservation.
                if let Some(frame) = survivor {
                    self.note_delivery(frame, false);
                } else {
                    self.burst_reserved_for = None;
                }
            }
            Observation::Garbled => {
                // The continuation was erased on the wire: every replica
                // drops the reservation; the holder's message stays queued
                // and re-enters through the regular search phases.
                self.burst_reserved_for = None;
            }
        }
        true
    }

    /// Receive-only slot handling while resynchronizing: buffer the
    /// observation, and if it carries a frame whose epoch began after the
    /// restart, rebuild the shared state and rejoin.
    ///
    /// Why this is sound: within one epoch the shared state is a pure
    /// function of the epoch coordinates `(start, reft, burst)` and the
    /// observation sequence since `start` — `observe` transitions never
    /// read the local queue (private effects of `note_delivery` touch only
    /// own-source frames, and a resynchronizing station was provably silent
    /// over the buffered span). So replaying the buffer from `stamp.start`
    /// over a freshly initialized epoch reproduces exactly the state every
    /// online replica holds.
    fn observe_resync(&mut self, now: Ticks, next_free: Ticks, observation: &Observation) {
        let anchor = match observation {
            Observation::Busy(frame)
            | Observation::Collision {
                survivor: Some(frame),
            } => frame.epoch,
            _ => None,
        };
        let Mode::Resync { since, buffer } = &mut self.mode else {
            // The only caller dispatches on the mode, so an online/other
            // mode here is an internal inconsistency — but a long-running
            // deployment must not abort on it. Treat the slot as already
            // handled by the online path and keep running.
            debug_assert!(false, "observe_resync requires Resync mode");
            return;
        };
        let since = *since;
        buffer.push(ChannelSpan::Slot(SteppedSlot {
            at: now,
            next_free,
            observation: *observation,
        }));
        if let Some(stamp) = anchor.filter(|stamp| stamp.start >= since) {
            let buffer = std::mem::take(buffer);
            self.mode = Mode::Online;
            self.reinitialize_at_epoch(stamp);
            self.replay_buffer(&buffer, stamp.start);
            self.counters.rejoins += 1;
        }
    }

    /// Rebuilds the shared replica state at an epoch boundary from its
    /// on-wire coordinates.
    fn reinitialize_at_epoch(&mut self, stamp: EpochStamp) {
        self.reft = stamp.reft;
        self.burst_reserved_for = stamp.burst;
        self.burst_budget = 0;
        self.sts_cursor = 0;
        self.time_index = None;
        self.time_index_for = None;
        self.epoch_start = stamp.start;
        self.epoch_reft = stamp.reft;
        self.epoch_burst = stamp.burst;
        self.counters.tts_runs += 1;
        self.phase = Phase::Tts(TtsState {
            search: MtsSearch::new(self.config.time_tree),
            transmitted_any: false,
        });
    }

    /// Replays the buffered spans from the epoch boundary `from` onward
    /// against the freshly initialized automaton: each span's tail from
    /// the boundary on (see [`ChannelSpan::tail_from`]). Epoch boundaries
    /// are slot-aligned, so a silence run straddling `from` splits cleanly
    /// at a slot boundary.
    fn replay_buffer(&mut self, buffer: &[ChannelSpan], from: Ticks) {
        for span in buffer {
            if span.start() >= from {
                self.catch_up(span);
            } else if let Some(tail) = span.tail_from(from) {
                self.catch_up(&tail);
            }
        }
    }
}

impl Station for DdcrStation {
    fn deliver(&mut self, message: Message) {
        self.queue.push(message);
    }

    fn poll(&mut self, _now: Ticks) -> Action {
        // Crashed stations are fenced by the engine; a resynchronizing one
        // is receive-only until it can prove replica consistency.
        if !matches!(self.mode, Mode::Online) {
            return Action::Idle;
        }
        // A burst reservation pre-empts every phase.
        if let Some(holder) = self.burst_reserved_for {
            if holder == self.source {
                if let Some(&head) = self.queue.head() {
                    if head.bits <= self.burst_budget {
                        return Action::Transmit(self.continuation_frame(head));
                    }
                }
            }
            return Action::Idle;
        }
        let plan = match &self.phase {
            Phase::Tts(state) => SlotPlan::Tts {
                frontier: state.search.frontier(),
                interval: state.search.current(),
            },
            Phase::Sts {
                search,
                collided_leaf,
                ..
            } => SlotPlan::Sts {
                interval: search.current(),
                collided_leaf: *collided_leaf,
            },
            Phase::Attempt => SlotPlan::Attempt,
        };
        match plan {
            SlotPlan::Tts { frontier, interval } => {
                self.ensure_time_index(frontier);
                let (Some(interval), Some(idx), Some(&head)) =
                    (interval, self.time_index, self.queue.head())
                else {
                    return Action::Idle;
                };
                if interval.contains(idx) {
                    Action::Transmit(self.initial_frame(head))
                } else {
                    Action::Idle
                }
            }
            SlotPlan::Sts {
                interval,
                collided_leaf,
            } => {
                let (Some(interval), Some(&head)) = (interval, self.queue.head()) else {
                    return Action::Idle;
                };
                let Some(&my_index) = self.indices.get(self.sts_cursor as usize) else {
                    return Action::Idle; // ν_i messages already sent this STs
                };
                if interval.contains(my_index) && self.eligible_for_sts(&head, collided_leaf) {
                    Action::Transmit(self.initial_frame(head))
                } else {
                    Action::Idle
                }
            }
            SlotPlan::Attempt => match self.queue.head() {
                Some(&head) => {
                    self.counters.attempts += 1;
                    Action::Transmit(self.initial_frame(head))
                }
                None => Action::Idle,
            },
        }
    }

    fn observe(&mut self, now: Ticks, next_free: Ticks, observation: &Observation) {
        if matches!(self.mode, Mode::Online) {
            self.observe_online(now, next_free, observation);
        } else if matches!(self.mode, Mode::Resync { .. }) {
            self.observe_resync(now, next_free, observation);
        }
        // Crashed: defensive no-op — the engine fences crashed stations.
    }

    fn backlog(&self) -> usize {
        self.queue.len()
    }

    fn crash(&mut self, _now: Ticks) -> Vec<Message> {
        self.counters.crashes += 1;
        self.mode = Mode::Crashed;
        self.burst_reserved_for = None;
        self.burst_budget = 0;
        self.sts_cursor = 0;
        self.time_index = None;
        self.time_index_for = None;
        self.queue.drain_sorted()
    }

    fn restart(&mut self, now: Ticks) {
        self.mode = Mode::Resync {
            since: now,
            buffer: Vec::new(),
        };
    }

    fn next_ready(&self, now: Ticks) -> Option<Ticks> {
        match self.mode {
            // A fenced or receive-only station never transmits; silence
            // runs may be skipped over it (buffered while resyncing).
            Mode::Crashed | Mode::Resync { .. } => return None,
            Mode::Online => {}
        }
        if self.burst_reserved_for.is_some() || !self.queue.is_empty() {
            return Some(now);
        }
        match self.phase {
            // STs completion re-reads physical time (`reft := next_free`),
            // so those slots must be stepped individually even when this
            // station has nothing to send.
            Phase::Sts { .. } => Some(now),
            // The idle TTs/Attempt cycle is time-free under silence: the
            // replicated automaton keeps turning, but its evolution depends
            // only on slot *count*, which `absorb_silence` replays exactly.
            Phase::Tts(_) | Phase::Attempt => None,
        }
    }

    fn catch_up(&mut self, span: &ChannelSpan) {
        let online = matches!(self.mode, Mode::Online);
        match *span {
            ChannelSpan::Silence { from, slots, slot } if online => {
                self.absorb_silence(from, slots, slot);
            }
            ChannelSpan::Silence { .. } => {
                // Nothing on the wire to anchor a rejoin: buffer the run
                // whole (a crashed replica drops it).
                if let Mode::Resync { buffer, .. } = &mut self.mode {
                    buffer.push(span.clone());
                }
            }
            ChannelSpan::Cycles { cycles, probes, .. } if online => {
                // Only reachable at a cycle start with θ = 0 (see
                // `attempt_cycle_hint`). Each cycle is `probes` empty
                // probes, one empty-TTs completion, one collided attempt
                // (`reft := cycle end`), then a fresh TTs: only the
                // counters, `reft` and the epoch coordinates move, and
                // `start_tts` below rebuilds the final fresh TTs exactly as
                // the last collision's observation would have.
                self.counters.probe_empties += cycles * probes;
                self.counters.tts_empty_runs += cycles;
                self.counters.attempt_collisions += cycles;
                // The last cycle's fresh TTs is counted by `start_tts`.
                self.counters.tts_runs += cycles - 1;
                if !self.queue.is_empty() {
                    // This replica transmitted at every attempt slot of the
                    // run: the engine fences arrivals out, so the queue
                    // cannot have changed since the hint was given.
                    self.counters.attempts += cycles;
                }
                let end = span.end();
                self.reft = end;
                self.start_tts(end);
            }
            // Single slots, and every span reaching a replica that is not
            // online, go through `observe` slot by slot (which buffers or
            // drops as the mode demands).
            _ => span.replay(self),
        }
    }

    fn wake_hint(&self) -> WakeHint {
        // Dormancy is exactly the regime `next_ready` answers `None` for
        // while Online: an empty queue, no burst reservation, and the
        // time-free TTs/Attempt idle cycle, in which this replica is
        // provably silent and its private state moves with no
        // observation, so adopting a synced replica's shared state on
        // wake (`resync_adopt`) stands in for every slot it missed. A
        // resynchronizing replica stays live (its per-slot
        // buffering and hint vetoes must be consulted), and a synced
        // replica outside the idle cycle — mid STs, or under a burst
        // reservation — stays live so the shared-state vetoes of the idle
        // and attempt-cycle tiers are always carried by an active station.
        if matches!(self.mode, Mode::Online)
            && self.queue.is_empty()
            && self.burst_reserved_for.is_none()
            && matches!(self.phase, Phase::Tts(_) | Phase::Attempt)
        {
            WakeHint::Dormant
        } else {
            WakeHint::Active
        }
    }

    fn resync_checkpoint(&self) -> Option<Box<dyn std::any::Any + Send>> {
        // Only a synced replica can vouch for the shared automaton.
        if !matches!(self.mode, Mode::Online) {
            return None;
        }
        Some(Box::new(SharedState {
            phase: self.phase.clone(),
            reft: self.reft,
            burst_reserved_for: self.burst_reserved_for,
            epoch: self.epoch_stamp(),
            counters: self.counters,
        }))
    }

    fn resync_adopt(&mut self, checkpoint: &dyn std::any::Any) {
        // A parked replica is Online, silent and empty-queued over its
        // whole dormant span, so the slots it missed could only have moved
        // its shared state, which every synced replica holds alike (§4),
        // plus the two private caches reset below.
        let Some(shared) = checkpoint.downcast_ref::<SharedState>() else {
            return;
        };
        if !matches!(self.mode, Mode::Online) {
            return;
        }
        if shared.epoch.start != self.epoch_start {
            // An epoch began since this replica parked: its `start_tts`
            // dropped the frozen time index.
            self.time_index = None;
            self.time_index_for = None;
        }
        if matches!(shared.phase, Phase::Sts { .. }) {
            // A replica parks only in TTs or Attempt, so this STs began
            // since, resetting the cursor, and a silent replica sent
            // nothing in it.
            self.sts_cursor = 0;
        }
        self.phase.clone_from(&shared.phase);
        self.reft = shared.reft;
        self.burst_reserved_for = shared.burst_reserved_for;
        self.epoch_start = shared.epoch.start;
        self.epoch_reft = shared.epoch.reft;
        self.epoch_burst = shared.epoch.burst;
        self.counters.adopt_shared(&shared.counters);
    }

    fn attempt_cycle_hint(&self, now: Ticks, slot: Ticks) -> Option<AttemptCycleHint> {
        // Only a synced replica can promise anything about the shared
        // automaton — a resynchronizing one must buffer every slot, so its
        // `None` refuses the whole run.
        if !matches!(self.mode, Mode::Online) {
            return None;
        }
        let m = self.config.time_tree.branching();
        let veto = Some(AttemptCycleHint {
            probes: m,
            cycles: 0,
            contender: None,
        });
        // The loaded idle cycle only exists with compressed time off: with
        // θ > 0 an empty TTs rolls straight into the next one, no attempt
        // slot. A burst reservation pre-empts every phase.
        if self.config.theta_numerator != 0 || self.burst_reserved_for.is_some() {
            return veto;
        }
        // A cycle start is a fresh, unprobed TTs stamped at the current
        // slot; all synced replicas agree on it.
        let at_start = matches!(&self.phase, Phase::Tts(state)
            if !state.transmitted_any && state.search.is_unprobed());
        if !at_start || self.epoch_start != now {
            return veto;
        }
        let Some(head) = self.queue.head() else {
            // An empty queue polls `Idle` in every phase: a pure observer
            // for as long as the run lasts (the engine cuts the run before
            // any arrival could change that).
            return Some(AttemptCycleHint {
                probes: m,
                cycles: u64::MAX,
                contender: None,
            });
        };
        // The head sits a fresh TTs out exactly while `raw_f ≥ F` (the
        // frontier clamp can only raise the index, and the per-head cache
        // is cleared at every `start_tts`), then transmits at the attempt
        // slot. Each attempt collision re-reads physical time
        // (`reft := cycle end`), so cycle `j ≥ 1` of the run sees
        // `reft = now + j·span` and the sit-out margin shrinks by one
        // span per cycle; cycle 0 uses the current `reft`.
        let c = self.config.class_width.as_u64() as i128;
        let need = self.config.time_tree.leaves() as i128 * c;
        let dm = head.absolute_deadline().as_u64() as i128;
        let alpha = self.config.alpha.as_u64() as i128;
        if dm - alpha - self.reft.as_u64() as i128 - need < 0 {
            return veto;
        }
        let span = (m + 1) as i128 * slot.as_u64() as i128;
        let q = dm - alpha - now.as_u64() as i128 - need;
        let extra = if q < 0 { 0 } else { (q / span) as u64 };
        Some(AttemptCycleHint {
            probes: m,
            cycles: 1 + extra,
            contender: Some(self.source.0),
        })
    }

    fn label(&self) -> String {
        format!("ddcr:{}", self.source)
    }

    fn phase_hint(&self) -> Option<PhaseHint> {
        // Only a synced replica can vouch for the shared automaton.
        if !matches!(self.mode, Mode::Online) {
            return None;
        }
        // A burst reservation pre-empts every phase, exactly as in `poll`.
        let phase = if self.burst_reserved_for.is_some() {
            ProtocolPhase::Burst
        } else {
            match &self.phase {
                Phase::Tts(_) => ProtocolPhase::TimeSearch,
                Phase::Sts { .. } => ProtocolPhase::StaticSearch,
                Phase::Attempt => ProtocolPhase::Attempt,
            }
        };
        Some(PhaseHint {
            phase,
            epoch_start: self.epoch_start,
        })
    }
}

impl DdcrStation {
    /// The online replica's slot-outcome handler (the protocol automaton
    /// proper). Also the replay engine for resynchronization: rejoining
    /// stations feed their buffered observations through this very code.
    fn observe_online(&mut self, _now: Ticks, next_free: Ticks, observation: &Observation) {
        if self.observe_burst_slot(observation) {
            return;
        }
        let (outcome, success_frame) = match observation {
            Observation::Silence => (SlotOutcome::Empty, None),
            Observation::Busy(frame) => (SlotOutcome::Success, Some(*frame)),
            Observation::Collision { survivor } => (SlotOutcome::Collision, *survivor),
            // An erased frame is indistinguishable from a collision to the
            // automaton: channel held, nothing decoded, transmitter retries
            // (loss detection is symmetric — see docs/PROTOCOL.md §4).
            Observation::Garbled => (SlotOutcome::Collision, None),
        };
        match std::mem::replace(&mut self.phase, Phase::Attempt) {
            Phase::Tts(mut state) => {
                match outcome {
                    SlotOutcome::Empty => self.counters.probe_empties += 1,
                    SlotOutcome::Collision => self.counters.probe_collisions += 1,
                    SlotOutcome::Success => {}
                }
                if let Some(frame) = success_frame {
                    // Rule: reft := physical time on every successful
                    // transmission during a time tree search.
                    self.reft = next_free;
                    state.transmitted_any = true;
                    self.note_delivery(&frame, true);
                }
                match state.search.feed(outcome) {
                    MtsEvent::Continue => self.phase = Phase::Tts(state),
                    MtsEvent::LeafCollision { leaf } => {
                        self.counters.sts_runs += 1;
                        self.sts_cursor = 0;
                        self.phase = Phase::Sts {
                            search: MtsSearch::new(self.config.static_tree),
                            collided_leaf: leaf,
                            saved: state,
                        };
                    }
                    MtsEvent::Done => {
                        if state.transmitted_any {
                            // out = true: one CSMA-CD attempt slot follows
                            // (pseudocode's `attempt transmit msg*`).
                            self.phase = Phase::Attempt;
                        } else {
                            // out = false: compressed-time bump, then loop
                            // straight into the next TTs (pseudocode).
                            self.counters.tts_empty_runs += 1;
                            self.reft += self.config.theta();
                            if self.config.theta_numerator == 0 {
                                // Compressed time off: without the bump, a
                                // message whose deadline class lies beyond
                                // the horizon would never enter any TTs —
                                // the attempt slot ("if a message is
                                // waiting in Q at the end of some execution
                                // of TTs, its transmission is attempted, à
                                // la CSMA-CD") is what re-synchronises
                                // `reft` and bounds the idleness.
                                self.phase = Phase::Attempt;
                            } else {
                                self.start_tts(next_free);
                            }
                        }
                    }
                }
            }
            Phase::Sts {
                mut search,
                collided_leaf,
                mut saved,
            } => {
                match outcome {
                    SlotOutcome::Empty => self.counters.probe_empties += 1,
                    SlotOutcome::Collision => self.counters.probe_collisions += 1,
                    SlotOutcome::Success => {}
                }
                if let Some(frame) = success_frame {
                    saved.transmitted_any = true;
                    if frame.message.source == self.source {
                        self.sts_cursor += 1;
                    }
                    self.note_delivery(&frame, true);
                }
                let event = search.feed(outcome);
                if let MtsEvent::LeafCollision { .. } = event {
                    // A conforming network cannot collide on a static leaf
                    // (the allocation gives each leaf one owner); this is
                    // interference — a babbling station or wire fault. The
                    // probe already consumed the leaf; the owner keeps its
                    // message and retries in the next search, so resolution
                    // stays live and replicas stay consistent.
                    self.counters.interference_collisions += 1;
                }
                let done = match event {
                    MtsEvent::Done => true,
                    MtsEvent::LeafCollision { .. } => search.is_done(),
                    MtsEvent::Continue => false,
                };
                if done {
                    // Rule: reft := physical time at STs completion.
                    self.reft = next_free;
                    if saved.search.is_done() {
                        // The suspended TTs had nothing left after the
                        // collided leaf.
                        self.phase = Phase::Attempt;
                    } else {
                        self.phase = Phase::Tts(saved);
                    }
                } else {
                    self.phase = Phase::Sts {
                        search,
                        collided_leaf,
                        saved,
                    };
                }
            }
            Phase::Attempt => {
                match observation {
                    Observation::Busy(frame) => {
                        self.note_delivery(frame, true);
                    }
                    Observation::Collision { survivor } => {
                        self.counters.attempt_collisions += 1;
                        if let Some(frame) = survivor {
                            self.note_delivery(frame, true);
                        }
                        // Rule: reft := physical time after an attempt
                        // collision.
                        self.reft = next_free;
                    }
                    Observation::Silence => {}
                    Observation::Garbled => {
                        // Erased attempt: same replica-visible outcome as
                        // an attempt collision.
                        self.counters.attempt_collisions += 1;
                        self.reft = next_free;
                    }
                }
                self.start_tts(next_free);
            }
        }
    }

    fn absorb_silence(&mut self, from: Ticks, slots: u64, slot: Ticks) {
        // Only reachable with an empty queue and no burst reservation (see
        // `next_ready`). Under silence the idle automaton cycles: fresh
        // TTs, `m` empty probes, then — θ = 0 — one silent attempt slot,
        // or — θ > 0 — straight into the next TTs with `reft += θ`. Replay
        // slot by slot until a cycle start, apply whole cycles in O(1)
        // arithmetic, then replay the tail.
        fn at_cycle_start(s: &DdcrStation) -> bool {
            matches!(&s.phase, Phase::Tts(state)
                if !state.transmitted_any && state.search.is_unprobed())
        }
        let mut at = from;
        let mut remaining = slots;
        while remaining > 0 && !at_cycle_start(self) {
            self.observe(at, at + slot, &Observation::Silence);
            at += slot;
            remaining -= 1;
        }
        let m = self.config.time_tree.branching();
        let cycle = if self.config.theta_numerator == 0 {
            m + 1
        } else {
            m
        };
        let cycles = remaining / cycle;
        if cycles > 0 {
            // Per cycle: m empty probes, one empty-TTs completion, one
            // fresh TTs start; the phase itself returns to the identical
            // cycle-start state, so only counters, `reft` and the epoch
            // coordinates move.
            self.counters.probe_empties += cycles * m;
            self.counters.tts_empty_runs += cycles;
            self.counters.tts_runs += cycles;
            self.reft += self.config.theta() * cycles;
            at += slot * (cycles * cycle);
            remaining -= cycles * cycle;
            // The last skipped cycle's fresh TTs began at `at` exactly as
            // `start_tts(next_free)` would have recorded; idle cycles carry
            // no burst reservation.
            self.epoch_start = at;
            self.epoch_reft = self.reft;
            self.epoch_burst = None;
        }
        for _ in 0..remaining {
            self.observe(at, at + slot, &Observation::Silence);
            at += slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddcr_sim::{ClassId, Engine, MediumConfig};

    fn config() -> DdcrConfig {
        DdcrConfig::for_sources(4, Ticks(100_000)).unwrap()
    }

    fn network(z: u32, cfg: DdcrConfig, medium: MediumConfig) -> Engine {
        let allocation = StaticAllocation::one_per_source(cfg.static_tree, z).unwrap();
        let mut engine = Engine::new(medium).unwrap();
        for i in 0..z {
            engine.add_station(Box::new(
                DdcrStation::new(SourceId(i), cfg, &allocation, medium.overhead_bits).unwrap(),
            ));
        }
        engine
    }

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

    #[test]
    fn single_message_goes_through() {
        let mut engine = network(4, config(), MediumConfig::ethernet());
        engine.add_arrivals([msg(0, 1, 0, 1_000_000)]).unwrap();
        engine.run_to_completion(Ticks(10_000_000)).unwrap();
        assert_eq!(engine.stats().deliveries.len(), 1);
        assert_eq!(engine.stats().deadline_misses(), 0);
    }

    #[test]
    fn two_colliding_messages_resolve_deterministically() {
        let mut engine = network(4, config(), MediumConfig::ethernet());
        // Same deadline class → time tree leaf collision → STs tie-break.
        engine
            .add_arrivals([msg(0, 0, 0, 500_000), msg(1, 3, 0, 500_000)])
            .unwrap();
        engine.run_to_completion(Ticks(10_000_000)).unwrap();
        let d = &engine.stats().deliveries;
        assert_eq!(d.len(), 2);
        // Static tie-break: source 0 owns leaf 0 < source 3's leaf 3.
        assert_eq!(d[0].message.source, SourceId(0));
        assert_eq!(d[1].message.source, SourceId(3));
        assert_eq!(engine.stats().deadline_misses(), 0);
    }

    #[test]
    fn earlier_deadline_transmits_first_across_classes() {
        let mut engine = network(4, config(), MediumConfig::ethernet());
        engine
            .add_arrivals([
                msg(0, 0, 0, 3_000_000), // later class
                msg(1, 1, 0, 400_000),   // much earlier class
            ])
            .unwrap();
        engine.run_to_completion(Ticks(20_000_000)).unwrap();
        let d = &engine.stats().deliveries;
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].message.id, MessageId(1), "EDF order violated");
    }

    #[test]
    fn heavy_same_class_burst_all_delivered() {
        let mut engine = network(4, config(), MediumConfig::ethernet());
        let arrivals: Vec<Message> = (0..12)
            .map(|i| msg(i, (i % 4) as u32, 0, 4_000_000))
            .collect();
        engine.add_arrivals(arrivals).unwrap();
        engine.run_to_completion(Ticks(50_000_000)).unwrap();
        assert_eq!(engine.stats().deliveries.len(), 12);
        assert_eq!(engine.stats().deadline_misses(), 0);
    }

    #[test]
    fn idle_protocol_consumes_bounded_overhead() {
        let cfg = config();
        let mut engine = network(2, cfg, MediumConfig::ethernet());
        engine.run_until(Ticks(512 * 100));
        // Idle cycle: m empty probes + 1 silent attempt slot; never a
        // collision, never a delivery.
        assert_eq!(engine.stats().collisions, 0);
        assert!(engine.stats().deliveries.is_empty());
        assert_eq!(engine.stats().silence_slots, 100);
    }

    #[test]
    fn late_message_enters_immediately() {
        // A message whose deadline is already very close (raw index would
        // be negative) must be clamped into the frontier, not dropped.
        let mut engine = network(4, config(), MediumConfig::ethernet());
        engine.add_arrivals([msg(0, 2, 700_000, 150_000)]).unwrap();
        engine.run_to_completion(Ticks(10_000_000)).unwrap();
        assert_eq!(engine.stats().deliveries.len(), 1);
    }

    #[test]
    fn far_deadline_message_sits_out_then_delivers() {
        // Deadline far beyond the scheduling horizon c·F = 6.4 ms.
        let mut engine = network(4, config(), MediumConfig::ethernet());
        engine.add_arrivals([msg(0, 1, 0, 60_000_000)]).unwrap();
        engine.run_to_completion(Ticks(200_000_000)).unwrap();
        let stats = engine.stats();
        assert_eq!(stats.deliveries.len(), 1);
        // Delivered via the attempt slot long before the deadline.
        assert!(stats.deliveries[0].completed_at < Ticks(60_000_000));
    }

    #[test]
    fn arbitrating_medium_still_delivers_everything() {
        let mut engine = network(4, config(), MediumConfig::atm_internal_bus());
        let arrivals: Vec<Message> = (0..8)
            .map(|i| msg(i, (i % 4) as u32, 0, 4_000_000))
            .collect();
        engine.add_arrivals(arrivals).unwrap();
        engine.run_to_completion(Ticks(50_000_000)).unwrap();
        assert_eq!(engine.stats().deliveries.len(), 8);
        assert_eq!(engine.stats().deadline_misses(), 0);
    }

    #[test]
    fn bursting_transmits_back_to_back() {
        let cfg = config().with_bursting(crate::config::BurstConfig::default());
        let mut engine = network(4, cfg, MediumConfig::ethernet());
        // Three small messages at one source: the first transmission should
        // carry the rest as burst continuations (≤ 512 bytes total extra).
        let arrivals: Vec<Message> = (0..3)
            .map(|i| Message {
                bits: 1_000,
                ..msg(i, 1, 0, 2_000_000)
            })
            .collect();
        engine.add_arrivals(arrivals).unwrap();
        engine.run_to_completion(Ticks(20_000_000)).unwrap();
        assert_eq!(engine.stats().deliveries.len(), 3);
        // The three deliveries complete back to back: gaps between
        // consecutive completions equal exactly one frame duration.
        let d = engine.stats().deliveries.clone();
        let wire = 1_000 + MediumConfig::ethernet().overhead_bits;
        assert_eq!(d[1].completed_at - d[0].completed_at, Ticks(wire));
        assert_eq!(d[2].completed_at - d[1].completed_at, Ticks(wire));
    }

    /// Drives one station against a perfect channel and returns it after
    /// the queue drains.
    fn drive_solo(mut station: DdcrStation, arrivals: Vec<Message>) -> DdcrStation {
        for m in arrivals {
            station.deliver(m);
        }
        let mut now = Ticks::ZERO;
        for _ in 0..10_000 {
            if station.backlog() == 0 {
                break;
            }
            let action = station.poll(now);
            let (obs, advance) = match action {
                Action::Transmit(f) => (Observation::Busy(f), f.duration()),
                Action::Idle => (Observation::Silence, Ticks(512)),
            };
            let next_free = now + advance;
            station.observe(now, next_free, &obs);
            now = next_free;
        }
        assert_eq!(station.backlog(), 0, "queue failed to drain");
        station
    }

    #[test]
    fn burst_budget_limits_continuations() {
        let medium = MediumConfig::ethernet();
        let arrivals = |n: u64| -> Vec<Message> {
            (0..n)
                .map(|i| Message {
                    bits: 1_000,
                    ..msg(i, 0, 0, 2_000_000)
                })
                .collect()
        };
        let alloc =
            |cfg: &DdcrConfig| StaticAllocation::one_per_source(cfg.static_tree, 1).unwrap();

        // Budget 1500 bits: one 1000-bit continuation per acquisition.
        let cfg = DdcrConfig::for_sources(1, Ticks(100_000))
            .unwrap()
            .with_bursting(crate::config::BurstConfig {
                max_extra_bits: 1_500,
            });
        let station = drive_solo(
            DdcrStation::new(SourceId(0), cfg, &alloc(&cfg), medium.overhead_bits).unwrap(),
            arrivals(4),
        );
        assert_eq!(station.counters().transmitted, 4);
        assert_eq!(station.counters().burst_continuations, 2); // (0→1), (2→3)

        // Default 4096-bit budget: three continuations after one acquisition.
        let cfg = DdcrConfig::for_sources(1, Ticks(100_000))
            .unwrap()
            .with_bursting(crate::config::BurstConfig::default());
        let station = drive_solo(
            DdcrStation::new(SourceId(0), cfg, &alloc(&cfg), medium.overhead_bits).unwrap(),
            arrivals(4),
        );
        assert_eq!(station.counters().burst_continuations, 3);

        // Bursting disabled: none.
        let cfg = DdcrConfig::for_sources(1, Ticks(100_000)).unwrap();
        let station = drive_solo(
            DdcrStation::new(SourceId(0), cfg, &alloc(&cfg), medium.overhead_bits).unwrap(),
            arrivals(4),
        );
        assert_eq!(station.counters().burst_continuations, 0);
    }

    #[test]
    fn replicas_agree_on_shared_state() {
        let cfg = config();
        let medium = MediumConfig::ethernet();
        let allocation = StaticAllocation::one_per_source(cfg.static_tree, 3).unwrap();
        let mut stations: Vec<DdcrStation> = (0..3)
            .map(|i| DdcrStation::new(SourceId(i), cfg, &allocation, medium.overhead_bits).unwrap())
            .collect();
        stations[0].deliver(msg(0, 0, 0, 500_000));
        stations[1].deliver(msg(1, 1, 0, 500_000));
        stations[2].deliver(msg(2, 2, 0, 900_000));
        // Drive the three replicas by hand against a perfect channel.
        let mut now = Ticks::ZERO;
        for _ in 0..400 {
            let actions: Vec<Action> = stations.iter_mut().map(|s| s.poll(now)).collect();
            let frames: Vec<Frame> = actions
                .iter()
                .filter_map(|a| match a {
                    Action::Transmit(f) => Some(*f),
                    Action::Idle => None,
                })
                .collect();
            let (obs, advance) = match frames.len() {
                0 => (Observation::Silence, Ticks(512)),
                1 => (Observation::Busy(frames[0]), frames[0].duration()),
                _ => (Observation::Collision { survivor: None }, Ticks(512)),
            };
            let next_free = now + advance;
            for s in &mut stations {
                s.observe(now, next_free, &obs);
            }
            let digests: Vec<String> = stations.iter().map(|s| s.shared_state_digest()).collect();
            assert_eq!(digests[0], digests[1], "replica divergence at {now}");
            assert_eq!(digests[1], digests[2], "replica divergence at {now}");
            now = next_free;
        }
        assert!(stations.iter().all(|s| s.backlog() == 0));
    }

    fn full_digest(s: &DdcrStation) -> (String, ProtocolCounters, Ticks) {
        (s.shared_state_digest(), s.counters(), s.reft())
    }

    /// Drives one loaded idle cycle slot by slot: `m` sat-out probes, then
    /// a destructively collided attempt slot.
    fn replay_loaded_cycle(
        station: &mut DdcrStation,
        from: Ticks,
        slot: Ticks,
        engaged: bool,
    ) -> Ticks {
        let mut now = from;
        for _ in 0..station.config.time_tree.branching() {
            assert!(matches!(station.poll(now), Action::Idle));
            station.observe(now, now + slot, &Observation::Silence);
            now += slot;
        }
        let transmitted = matches!(station.poll(now), Action::Transmit(_));
        assert_eq!(transmitted, engaged, "attempt-slot action at {now}");
        station.observe(now, now + slot, &Observation::Collision { survivor: None });
        now + slot
    }

    #[test]
    fn attempt_cycle_hint_counts_sit_out_cycles() {
        let cfg = config();
        let slot = Ticks(512);
        let m = cfg.time_tree.branching();
        let span = (m + 1) * slot.as_u64();
        let leaves = cfg.time_tree.leaves();
        let c = cfg.class_width.as_u64();
        let allocation = StaticAllocation::one_per_source(cfg.static_tree, 4).unwrap();
        let mut station = DdcrStation::new(SourceId(0), cfg, &allocation, 208).unwrap();
        // The head sits a TTs out while `dm − α − reft ≥ F·c`; with
        // 2.5 spans of slack beyond that threshold the formula promises
        // exactly 3 cycles (cycle 0 at `reft = 0`, cycles 1–2 at
        // `reft = span, 2·span`).
        let dm = cfg.alpha.as_u64() + leaves * c + 2 * span + span / 2;
        station.deliver(msg(0, 0, 0, dm));
        let hint = station.attempt_cycle_hint(Ticks::ZERO, slot).unwrap();
        assert_eq!(hint.probes, m);
        assert_eq!(hint.cycles, 3);
        assert_eq!(hint.contender, Some(0));
        // Tight: replaying exactly those cycles consumes the whole promise…
        let mut now = Ticks::ZERO;
        for _ in 0..3 {
            now = replay_loaded_cycle(&mut station, now, slot, true);
        }
        assert_eq!(station.attempt_cycle_hint(now, slot).unwrap().cycles, 0);
        // …because the head has genuinely entered the tree horizon.
        let head = *station.queue.head().unwrap();
        assert!(station.raw_f(&head) >= 0);
        assert!((station.raw_f(&head) as u64) < leaves);
    }

    #[test]
    fn attempt_cycle_hint_vetoes_and_observers() {
        let slot = Ticks(512);
        let allocation = StaticAllocation::one_per_source(config().static_tree, 4).unwrap();
        // Empty queue: an unbounded pure observer.
        let station = DdcrStation::new(SourceId(1), config(), &allocation, 208).unwrap();
        let hint = station.attempt_cycle_hint(Ticks::ZERO, slot).unwrap();
        assert_eq!(hint.cycles, u64::MAX);
        assert_eq!(hint.contender, None);
        // Compressed time on: an empty TTs has no attempt slot, so the
        // loaded idle cycle does not exist.
        let theta_cfg = config().with_compressed_time(2);
        let theta_alloc = StaticAllocation::one_per_source(theta_cfg.static_tree, 4).unwrap();
        let station = DdcrStation::new(SourceId(0), theta_cfg, &theta_alloc, 208).unwrap();
        assert_eq!(
            station
                .attempt_cycle_hint(Ticks::ZERO, slot)
                .unwrap()
                .cycles,
            0
        );
        // Mid-cycle (one probe already observed): not a cycle start.
        let mut station = DdcrStation::new(SourceId(0), config(), &allocation, 208).unwrap();
        station.observe(Ticks::ZERO, slot, &Observation::Silence);
        assert_eq!(station.attempt_cycle_hint(slot, slot).unwrap().cycles, 0);
        // Resynchronizing: no promise at all — refuses the whole run.
        let mut station = DdcrStation::new(SourceId(0), config(), &allocation, 208).unwrap();
        station.restart(Ticks::ZERO);
        assert!(station.attempt_cycle_hint(Ticks::ZERO, slot).is_none());
    }

    #[test]
    fn fast_forward_tiers_match_reference_for_bursting_network() {
        let run = |fast: bool, contention: bool| {
            let cfg = config().with_bursting(crate::config::BurstConfig::default());
            let mut engine = network(4, cfg, MediumConfig::ethernet());
            engine.set_fast_forward(fast);
            engine.set_contention_fast_forward(contention);
            // Clustered small messages so acquisitions chain into bursts.
            let arrivals: Vec<Message> = (0..16)
                .map(|i| Message {
                    bits: 1_000,
                    ..msg(i, (i % 4) as u32, (i / 4) * 50_000, 8_000_000)
                })
                .collect();
            engine.add_arrivals(arrivals).unwrap();
            engine.run_to_completion(Ticks(50_000_000)).unwrap();
            engine.into_stats()
        };
        let reference = run(false, false);
        assert_eq!(reference.deliveries.len(), 16);
        for fast in [false, true] {
            for contention in [false, true] {
                if !fast && !contention {
                    continue;
                }
                assert_eq!(
                    run(fast, contention),
                    reference,
                    "fast={fast} contention={contention}"
                );
            }
        }
    }

    /// A replica caught up on a span through `catch_up` must land
    /// bitwise on the state the reference stepper leaves it in after the
    /// span's slots.
    fn check_catch_up(
        label: &str,
        mut station: DdcrStation,
        span: &ChannelSpan,
        reference: &DdcrStation,
    ) {
        station.catch_up(span);
        assert_eq!(full_digest(&station), full_digest(reference), "{label}");
    }

    /// `catch_up` on a silence span: every (prefix, run) alignment across
    /// several idle cycles, with compressed time off and on — the replica
    /// starts mid-cycle after `prefix` observed slots.
    #[test]
    fn skip_silence_matches_replay_exactly() {
        let slot = Ticks(512);
        for theta in [0u64, 2] {
            let cfg = DdcrConfig::for_sources(4, Ticks(100_000))
                .unwrap()
                .with_compressed_time(theta);
            let allocation = StaticAllocation::one_per_source(cfg.static_tree, 4).unwrap();
            let fresh = || DdcrStation::new(SourceId(0), cfg, &allocation, 208).unwrap();
            for prefix in 0..8u64 {
                let mut start = fresh();
                ChannelSpan::Silence {
                    from: Ticks::ZERO,
                    slots: prefix,
                    slot,
                }
                .replay(&mut start);
                for slots in 0..40u64 {
                    let from = slot * prefix;
                    let span = ChannelSpan::Silence { from, slots, slot };
                    let mut reference = start.clone();
                    span.replay(&mut reference);
                    check_catch_up(
                        &format!("silence theta={theta} prefix={prefix} slots={slots}"),
                        start.clone(),
                        &span,
                        &reference,
                    );
                }
            }
        }
    }

    /// `catch_up` on a cycle span: a run of loaded idle cycles, as the
    /// contender transmitting at every attempt slot and as a silent
    /// observer.
    #[test]
    fn skip_attempt_cycles_matches_replay_exactly() {
        let slot = Ticks(512);
        let cfg = config();
        let m = cfg.time_tree.branching();
        let allocation = StaticAllocation::one_per_source(cfg.static_tree, 4).unwrap();
        // Slack for far more cycles than any run below consumes.
        let dm = cfg.alpha.as_u64()
            + cfg.time_tree.leaves() * cfg.class_width.as_u64()
            + 40 * (m + 1) * slot.as_u64();
        for cycles in 1..=6u64 {
            for engaged in [true, false] {
                let mut start = DdcrStation::new(SourceId(0), cfg, &allocation, 208).unwrap();
                if engaged {
                    start.deliver(msg(0, 0, 0, dm));
                }
                let mut reference = start.clone();
                let mut now = Ticks::ZERO;
                for _ in 0..cycles {
                    now = replay_loaded_cycle(&mut reference, now, slot, engaged);
                }
                assert_eq!(
                    reference.counters().attempts,
                    if engaged { cycles } else { 0 }
                );
                let span = ChannelSpan::Cycles {
                    from: Ticks::ZERO,
                    cycles,
                    probes: m,
                    slot,
                };
                check_catch_up(
                    &format!("cycles={cycles} engaged={engaged}"),
                    start,
                    &span,
                    &reference,
                );
            }
        }
    }

    /// `catch_up` on stepped slots: stations 0 and 1 contend (a same-class
    /// collision forces TTs → STs → resolution, crossing several epoch
    /// boundaries) while station 2 stays quiet.
    #[test]
    fn skip_search_matches_replay_exactly() {
        let cfg = config();
        // Record every slot, the quiet replica's state after it, and the
        // checkpoint a contending replica would hand the engine there.
        let medium = MediumConfig::ethernet();
        let allocation = StaticAllocation::one_per_source(cfg.static_tree, 3).unwrap();
        let mk = |i| DdcrStation::new(SourceId(i), cfg, &allocation, medium.overhead_bits).unwrap();
        let mut engaged = [mk(0), mk(1)];
        engaged[0].deliver(msg(0, 0, 0, 500_000));
        engaged[0].deliver(msg(1, 0, 0, 900_000));
        engaged[1].deliver(msg(2, 1, 0, 500_000));
        let mut quiet = mk(2);
        let mut records = Vec::new();
        let mut snapshots = vec![quiet.clone()];
        let mut checkpoints = Vec::new();
        let mut now = Ticks::ZERO;
        let mut slots_after_drain = 0;
        while slots_after_drain < 4 && records.len() < 200 {
            if engaged.iter().all(|s| s.backlog() == 0) {
                slots_after_drain += 1;
            }
            let (observation, next_free) = drive_slot(&mut engaged, &[false; 2], now);
            quiet.observe(now, next_free, &observation);
            records.push(SteppedSlot {
                at: now,
                next_free,
                observation,
            });
            snapshots.push(quiet.clone());
            checkpoints.push(engaged[0].resync_checkpoint());
            now = next_free;
        }
        assert!(engaged.iter().all(|s| s.backlog() == 0), "drain stalled");
        assert!(records.len() >= 8, "contention resolved suspiciously fast");
        for (i, record) in records.iter().enumerate() {
            check_catch_up(
                &format!("slot {i}"),
                snapshots[i].clone(),
                &ChannelSpan::Slot(*record),
                &snapshots[i + 1],
            );
        }
        // Every (start, end) window from a dormant start is a possible
        // stretch of stepped slots a parked replica sleeps through. It
        // wakes as the engine wakes it: adopting the shared state a
        // contending replica publishes after the window.
        let mut adopted_windows = 0;
        for start in 0..records.len() {
            if snapshots[start].wake_hint() != WakeHint::Dormant {
                continue;
            }
            for (end, checkpoint) in checkpoints.iter().enumerate().skip(start) {
                let checkpoint = checkpoint.as_ref().expect("a synced replica publishes");
                let mut woken = snapshots[start].clone();
                woken.resync_adopt(checkpoint.as_ref());
                assert_eq!(
                    full_digest(&woken),
                    full_digest(&snapshots[end + 1]),
                    "window {start}..={end} adopted"
                );
                adopted_windows += 1;
            }
        }
        assert!(adopted_windows > 0, "the quiet replica was never dormant");
    }

    mod copy_equals_replay {
        use super::*;
        use proptest::prelude::*;

        const SLOTS: u64 = 160;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Copy equals replay, over random channel histories on a
            /// 4-station bus: TTs and STs collisions, bursting, θ > 0,
            /// erased frames (`Garbled`) and corrupted slots. Station 3
            /// stops observing at a dormant point and later adopts the
            /// checkpoint of station 0, which observed every slot. It must
            /// equal station 3 fed every slot: the same shared digest, the
            /// same counters (its private ones did not move while it sat
            /// silent), and the same polls for a freshly delivered message
            /// over the recorded slots that follow.
            #[test]
            fn adopting_the_witness_state_equals_replay(
                theta in 0u64..3,
                bursting in any::<bool>(),
                // (source, slot index, relative deadline): narrow deadlines
                // so same-class collisions run static searches often.
                raw in prop::collection::vec(
                    (0u32..4, 0u64..SLOTS, 200_000u64..400_000),
                    4..40,
                ),
                // (slot index, corrupt the slot rather than erase its frame)
                raw_faults in prop::collection::vec((0u64..SLOTS, any::<bool>()), 0..4),
                fresh_deadline in 50_000u64..600_000,
                picks in prop::collection::vec(0usize..10_000, 4),
            ) {
                let slot = Ticks(512);
                let mut cfg = DdcrConfig::for_sources(4, Ticks(100_000))
                    .unwrap()
                    .with_compressed_time(theta);
                if bursting {
                    cfg = cfg.with_bursting(crate::config::BurstConfig {
                        max_extra_bits: 16_384,
                    });
                }
                let allocation = StaticAllocation::one_per_source(cfg.static_tree, 4).unwrap();
                let mut stations: Vec<DdcrStation> = (0..4)
                    .map(|i| DdcrStation::new(SourceId(i), cfg, &allocation, 208).unwrap())
                    .collect();
                // State after k slots: station 3 and station 0's
                // checkpoint; slot k itself, and whether it delivers to
                // station 3.
                let mut snapshots = vec![stations[3].clone()];
                let mut checkpoints = vec![stations[0].resync_checkpoint().unwrap()];
                let mut records = Vec::new();
                let mut wakes_3 = Vec::new();
                let mut now = Ticks::ZERO;
                for k in 0..SLOTS {
                    let mut woken = false;
                    for (id, &(source, at, deadline)) in raw.iter().enumerate() {
                        if at == k {
                            let message = Message {
                                bits: 1_000,
                                ..msg(id as u64, source, now.as_u64(), deadline)
                            };
                            stations[source as usize].deliver(message);
                            woken |= source == 3;
                        }
                    }
                    wakes_3.push(woken);
                    let frames: Vec<Frame> = stations
                        .iter_mut()
                        .filter_map(|s| match s.poll(now) {
                            Action::Transmit(f) => Some(f),
                            Action::Idle => None,
                        })
                        .collect();
                    let (mut observation, mut advance) = match frames.len() {
                        0 => (Observation::Silence, slot),
                        1 => (Observation::Busy(frames[0]), frames[0].duration()),
                        _ => (Observation::Collision { survivor: None }, slot),
                    };
                    for &(at, corrupt) in &raw_faults {
                        if at != k {
                            continue;
                        }
                        if corrupt {
                            observation = Observation::Collision { survivor: None };
                            advance = slot;
                        } else if let Observation::Busy(frame) = observation {
                            observation = Observation::Garbled;
                            advance = frame.duration();
                        }
                    }
                    let next_free = now + advance;
                    for station in &mut stations {
                        station.observe(now, next_free, &observation);
                    }
                    records.push(SteppedSlot {
                        at: now,
                        next_free,
                        observation,
                    });
                    now = next_free;
                    snapshots.push(stations[3].clone());
                    checkpoints.push(stations[0].resync_checkpoint().unwrap());
                }
                let dormant: Vec<usize> = (0..snapshots.len())
                    .filter(|&k| snapshots[k].wake_hint() == WakeHint::Dormant)
                    .collect();
                prop_assume!(!dormant.is_empty());
                for pick in picks {
                    let start = dormant[pick % dormant.len()];
                    // The window ends where a delivery would wake the
                    // sleeper; the replica fed every slot stays silent
                    // until then.
                    let last = (start..SLOTS as usize)
                        .find(|&k| wakes_3[k])
                        .unwrap_or(SLOTS as usize);
                    for end in start..=last {
                        let tag = format!("theta={theta} bursting={bursting} window {start}..{end}");
                        let mut woken = snapshots[start].clone();
                        woken.resync_adopt(checkpoints[end].as_ref());
                        let mut fed = snapshots[end].clone();
                        prop_assert_eq!(
                            woken.shared_state_digest(),
                            fed.shared_state_digest(),
                            "{}",
                            tag
                        );
                        prop_assert_eq!(woken.counters(), fed.counters(), "{}", tag);
                        let Some(first) = records.get(end) else {
                            continue;
                        };
                        let fresh = msg(10_000, 3, first.at.as_u64(), fresh_deadline);
                        woken.deliver(fresh);
                        fed.deliver(fresh);
                        for record in records.iter().skip(end).take(24) {
                            prop_assert_eq!(woken.poll(record.at), fed.poll(record.at), "{}", tag);
                            woken.observe(record.at, record.next_free, &record.observation);
                            fed.observe(record.at, record.next_free, &record.observation);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn resyncing_station_reports_contend_hint() {
        // A crashed or resynchronizing replica promises nothing: it stays
        // in the per-slot loops, refuses every attempt-cycle run and
        // publishes no checkpoint.
        let mut station = DdcrStation::new(
            SourceId(0),
            config(),
            &StaticAllocation::one_per_source(config().static_tree, 4).unwrap(),
            208,
        )
        .unwrap();
        let slot = Ticks(512);
        station.crash(Ticks::ZERO);
        assert_eq!(station.wake_hint(), WakeHint::Active);
        assert!(station.attempt_cycle_hint(Ticks::ZERO, slot).is_none());
        assert!(station.resync_checkpoint().is_none());
        station.restart(slot);
        assert_eq!(station.wake_hint(), WakeHint::Active);
        assert!(station.attempt_cycle_hint(slot, slot).is_none());
        assert!(station.resync_checkpoint().is_none());
    }

    #[test]
    fn idle_station_reports_no_wakeup() {
        let station = DdcrStation::new(
            SourceId(0),
            config(),
            &StaticAllocation::one_per_source(config().static_tree, 4).unwrap(),
            208,
        )
        .unwrap();
        assert_eq!(station.next_ready(Ticks(0)), None);
    }

    #[test]
    fn loaded_station_reports_ready_now() {
        let mut station = DdcrStation::new(
            SourceId(0),
            config(),
            &StaticAllocation::one_per_source(config().static_tree, 4).unwrap(),
            208,
        )
        .unwrap();
        station.deliver(msg(0, 0, 0, 500_000));
        assert_eq!(station.next_ready(Ticks(0)), Some(Ticks(0)));
    }

    #[test]
    fn idle_network_fast_forward_matches_reference() {
        let run = |fast: bool, theta: u64| {
            let cfg = DdcrConfig::for_sources(4, Ticks(100_000))
                .unwrap()
                .with_compressed_time(theta);
            let mut engine = network(4, cfg, MediumConfig::ethernet());
            engine.set_fast_forward(fast);
            // Long idle stretch, then traffic that depends on the idle-era
            // protocol state (reft under compressed time), then more idle.
            engine
                .add_arrivals([msg(0, 1, 3_000_000, 500_000), msg(1, 2, 3_000_000, 500_000)])
                .unwrap();
            engine.run_until(Ticks(6_000_000));
            engine.into_stats()
        };
        for theta in [0u64, 2] {
            assert_eq!(run(true, theta), run(false, theta), "theta={theta}");
        }
    }

    /// Resolves one hand-driven slot for a set of replicas, skipping the
    /// stations marked down, and returns `(observation, next_free)`.
    fn drive_slot(stations: &mut [DdcrStation], down: &[bool], now: Ticks) -> (Observation, Ticks) {
        let frames: Vec<Frame> = stations
            .iter_mut()
            .enumerate()
            .filter(|(i, _)| !down[*i])
            .filter_map(|(_, s)| match s.poll(now) {
                Action::Transmit(f) => Some(f),
                Action::Idle => None,
            })
            .collect();
        let (obs, advance) = match frames.len() {
            0 => (Observation::Silence, Ticks(512)),
            1 => (Observation::Busy(frames[0]), frames[0].duration()),
            _ => (Observation::Collision { survivor: None }, Ticks(512)),
        };
        let next_free = now + advance;
        for (i, s) in stations.iter_mut().enumerate() {
            if !down[i] {
                s.observe(now, next_free, &obs);
            }
        }
        (obs, next_free)
    }

    #[test]
    fn restarted_station_rejoins_at_epoch_boundary_with_identical_digest() {
        let cfg = config();
        let medium = MediumConfig::ethernet();
        let allocation = StaticAllocation::one_per_source(cfg.static_tree, 3).unwrap();
        let mut stations: Vec<DdcrStation> = (0..3)
            .map(|i| DdcrStation::new(SourceId(i), cfg, &allocation, medium.overhead_bits).unwrap())
            .collect();
        let mut down = [false; 3];
        let mut now = Ticks::ZERO;

        // Warm up with some traffic so the run is not at its initial state.
        stations[0].deliver(msg(0, 0, 0, 500_000));
        stations[1].deliver(msg(1, 1, 0, 700_000));
        for _ in 0..40 {
            now = drive_slot(&mut stations, &down, now).1;
        }
        assert!(stations.iter().all(|s| s.backlog() == 0));

        // Crash replica 2 mid-epoch; its queued message is lost.
        stations[2].deliver(msg(2, 2, 0, 900_000));
        let lost = stations[2].crash(now);
        assert_eq!(lost.len(), 1);
        assert_eq!(stations[2].shared_state_digest(), "crashed");
        down[2] = true;

        // The survivors keep working while replica 2 is down.
        stations[0].deliver(msg(3, 0, 0, 900_000));
        for _ in 0..20 {
            now = drive_slot(&mut stations, &down, now).1;
        }

        // Restart: receive-only until an epoch boundary is observed.
        stations[2].restart(now);
        down[2] = false;
        assert!(!stations[2].is_synced());

        // Idle slots alone carry no epoch stamp — still resyncing. They
        // come as one fast-forwarded silence run, which replica 2 buffers
        // whole; a fresh idle epoch begins strictly inside it.
        let silence = ChannelSpan::Silence {
            from: now,
            slots: 10,
            slot: Ticks(512),
        };
        for station in &mut stations {
            station.catch_up(&silence);
        }
        now = silence.end();
        assert!(!stations[2].is_synced());
        let epoch = stations[0].epoch_start;
        assert!(
            silence.start() < epoch && epoch < silence.end(),
            "epoch {epoch}"
        );

        // Traffic from a survivor: the first frame of a fresh (post-restart)
        // epoch anchors the rejoin. It belongs to the epoch that began
        // inside the silence run, so the rejoin replays only the run's
        // tail from that epoch on.
        stations[0].deliver(msg(4, 0, 0, 900_000));
        let mut synced_after = None;
        for i in 0..60 {
            let (observation, next_free) = drive_slot(&mut stations, &down, now);
            now = next_free;
            if stations[2].is_synced() {
                assert!(
                    matches!(observation, Observation::Busy(frame)
                        if frame.epoch.map(|e| e.start) == Some(epoch)),
                    "rejoin anchored outside the straddled epoch: {observation:?}"
                );
                synced_after = Some(i);
                break;
            }
        }
        let healed = synced_after.expect("replica 2 never resynchronized");
        // The rejoined replica agrees with the survivors at once.
        assert_eq!(
            stations[2].shared_state_digest(),
            stations[0].shared_state_digest()
        );
        assert!(healed < 60, "heal took too long: {healed} slots");
        assert_eq!(stations[2].counters().rejoins, 1);
        assert_eq!(stations[2].counters().crashes, 1);

        // From rejoin onward all three digests agree, slot after slot.
        for _ in 0..100 {
            now = drive_slot(&mut stations, &down, now).1;
            let digests: Vec<String> = stations.iter().map(|s| s.shared_state_digest()).collect();
            assert_eq!(digests[0], digests[1], "divergence at {now}");
            assert_eq!(digests[1], digests[2], "rejoined replica diverged at {now}");
        }

        // And the rejoined replica is a full participant again: its own
        // traffic goes through.
        stations[2].deliver(msg(5, 2, 0, 2_000_000));
        let before = stations[2].counters().transmitted;
        for _ in 0..200 {
            now = drive_slot(&mut stations, &down, now).1;
            if stations[2].counters().transmitted > before {
                break;
            }
        }
        assert_eq!(stations[2].counters().transmitted, before + 1);
        assert_eq!(stations[2].backlog(), 0);
    }

    #[test]
    fn rejects_source_outside_allocation() {
        let cfg = config();
        let allocation = StaticAllocation::one_per_source(cfg.static_tree, 2).unwrap();
        assert!(DdcrStation::new(SourceId(5), cfg, &allocation, 208).is_err());
    }

    #[test]
    fn sts_transmits_only_at_own_leaves_up_to_nu() {
        // z = 64 sources own ν = 3 contiguous leaves each of a q = 256
        // static tree, so source 5 owns leaves 15, 16 and 17. Every source
        // holds four messages of one deadline, so the TTs collides at one
        // time leaf and a single STs resolves the whole network.
        let z = 64;
        let cfg = DdcrConfig::for_sources(z, Ticks(100_000))
            .unwrap()
            .with_static_tree(ddcr_tree::TreeShape::new(4, 4).unwrap());
        let allocation = StaticAllocation::contiguous(cfg.static_tree, z, 3).unwrap();
        let mut stations: Vec<DdcrStation> = (0..z)
            .map(|i| DdcrStation::new(SourceId(i), cfg, &allocation, 208).unwrap())
            .collect();
        for (i, station) in (0..z).zip(stations.iter_mut()) {
            for k in 0..4 {
                station.deliver(msg(u64::from(i * 4 + k), i, 0, 500_000));
            }
        }
        let me = 5;
        let mine = [15, 16, 17];
        assert_eq!(allocation.indices_of(SourceId(me)), mine);
        // The STs leaves at which source 5's frames went through alone.
        let mut delivered_at = Vec::new();
        let mut seen_sts = false;
        let mut now = Ticks::ZERO;
        for _ in 0..10_000 {
            let interval = match &stations[me as usize].phase {
                Phase::Sts { search, .. } => search.current(),
                _ => None,
            };
            if seen_sts && interval.is_none() {
                break; // the STs is over
            }
            seen_sts |= interval.is_some();
            let mut frames = Vec::new();
            let mut me_sent = false;
            for (i, station) in stations.iter_mut().enumerate() {
                if let Action::Transmit(f) = station.poll(now) {
                    me_sent |= i == me as usize;
                    frames.push(f);
                }
            }
            if let (Some(interval), true) = (interval, me_sent) {
                assert!(
                    delivered_at.len() < mine.len(),
                    "transmitted past the ν cap at {interval:?}"
                );
                assert!(
                    interval.contains(mine[delivered_at.len()]),
                    "transmitted at {interval:?} outside its next leaf"
                );
            }
            let (obs, advance) = match frames.len() {
                0 => (Observation::Silence, Ticks(512)),
                1 => (Observation::Busy(frames[0]), frames[0].duration()),
                _ => (Observation::Collision { survivor: None }, Ticks(512)),
            };
            if let (Some(interval), Observation::Busy(f)) = (interval, &obs) {
                if f.message.source == SourceId(me) {
                    assert_eq!(interval.width, 1, "went through above leaf level");
                    delivered_at.push(interval.lo);
                }
            }
            let next_free = now + advance;
            for station in &mut stations {
                station.observe(now, next_free, &obs);
            }
            now = next_free;
        }
        assert!(seen_sts, "the TTs never collided into an STs");
        assert_eq!(delivered_at, mine);
        // The fourth message waits for the next search.
        assert_eq!(stations[me as usize].backlog(), 1);
    }
}
