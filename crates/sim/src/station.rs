//! The station abstraction every MAC protocol implements.

use crate::channel::{Action, Observation};
use crate::message::Message;
use crate::metrics::PhaseHint;
use crate::span::ChannelSpan;
use crate::time::Ticks;

/// A station's promise about a run of *loaded idle cycles* — the
/// contention regime in which every backlogged station sits the whole time
/// tree search out (its deadline class lies beyond the horizon) and then
/// collides at the attempt slot, deterministically, cycle after cycle (see
/// [`Station::attempt_cycle_hint`]).
///
/// Each cycle is `probes` provably silent probe slots followed by one
/// destructively collided attempt slot, so an entire run is a pure
/// function of its start time and the cycle count: the engine resolves it
/// analytically in one step instead of stepping every contender through
/// every slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttemptCycleHint {
    /// Silent probe slots at the start of each cycle (the protocol's
    /// time-tree branching degree for DDCR).
    pub probes: u64,
    /// Consecutive cycles the promise covers from `now`; `0` vetoes a
    /// bulk run without vetoing the slot-by-slot paths.
    pub cycles: u64,
    /// `Some(source id)` when this station transmits — and collides — at
    /// every attempt slot of the run; `None` for a provably silent
    /// observer. A run needs at least two contenders (a lone transmitter
    /// would resolve `Busy`, zero would be pure silence).
    pub contender: Option<u32>,
}

/// Whether a station needs per-slot engagement at all, or can be parked
/// by the engine's active-set scheduler (see [`Station::wake_hint`]).
///
/// The active-set tier keeps per-slot cost proportional to *contenders*
/// rather than *population*: a [`WakeHint::Dormant`] station is removed
/// from the poll loop entirely and observes nothing while parked. On its
/// next wake (a delivery, a fault or membership transition, or the end of
/// a run) it adopts the shared state of the witness, a synced station the
/// engine keeps live, through [`Station::resync_adopt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeHint {
    /// No promise: the station must stay in the per-slot loops (the
    /// conservative default, correct for every implementation).
    Active,
    /// A standing promise, holding until the next [`Station::deliver`],
    /// whatever the channel carries meanwhile:
    ///
    /// * every [`Station::poll`] answers [`Action::Idle`];
    /// * [`Station::backlog`] is `0`;
    /// * [`Station::next_ready`] is `None`, and
    ///   [`Station::attempt_cycle_hint`] is a silent observer compatible
    ///   with whatever cycle shape the contenders agree on — so the engine
    ///   may answer tier-gating queries on the station's behalf;
    /// * the station receives no observations while parked: on wake it
    ///   gets only the witness's shared state (see
    ///   [`Station::resync_checkpoint`]), so everything else in it must be
    ///   unchanged by the slots it missed. A station that publishes no
    ///   shared state may answer `Dormant` only while no observation
    ///   changes it at all;
    /// * the shared state's own vetoes are carried by the witness, which
    ///   the engine never parks: shared-automaton protocols must answer
    ///   `Active` whenever the replicated state is outside the regime the
    ///   promise describes (e.g. mid tree-search or under a burst
    ///   reservation), so the witness refuses what a parked replica would.
    Dormant,
}

/// A station (message source `s_i`) attached to the broadcast medium.
///
/// The engine drives each station through a strict slot-synchronous cycle:
///
/// 1. [`Station::deliver`] hands over messages whose arrival time has been
///    reached (the local queue `Q_i` is the station's own business);
/// 2. [`Station::poll`] asks for this slot's [`Action`];
/// 3. after resolving all actions, [`Station::observe`] reports the channel
///    [`Observation`] — identically to every station, which is what makes
///    replicated deterministic protocols such as CSMA/DDCR possible.
///
/// Implementations must be deterministic functions of their inputs (plus
/// any seeded RNG they own) so that simulations are reproducible.
///
/// `Send` is a supertrait so whole engines can migrate between worker
/// threads across federation rounds (see [`crate::federation`]); station
/// state is plain data for every in-tree protocol, so this costs nothing.
pub trait Station: Send {
    /// Accepts a newly arrived message into the local queue. Implementations
    /// must enqueue the message (never drop it on arrival) so the engine's
    /// backlog accounting stays exact.
    fn deliver(&mut self, message: Message);

    /// Decides the action for the decision slot starting at `now`.
    fn poll(&mut self, now: Ticks) -> Action;

    /// Hears the channel outcome of the slot that started at `now`;
    /// `next_free` is when the channel becomes free again (equal to
    /// `now + x` for silence/destructive collisions, or the end of the
    /// surviving frame otherwise).
    fn observe(&mut self, now: Ticks, next_free: Ticks, observation: &Observation);

    /// Number of messages still queued locally (for run-to-completion
    /// termination checks).
    fn backlog(&self) -> usize;

    /// Idle fast-forward hint: the earliest slot-start time at or after
    /// which this station might transmit (or otherwise needs per-slot
    /// engagement), assuming the channel stays silent until then.
    ///
    /// The engine uses the hint to jump silence runs in one step instead of
    /// polling every station every slot. The contract:
    ///
    /// * `Some(t)` with `t <= now` — no promise; the engine polls this slot
    ///   normally (the conservative default).
    /// * `Some(t)` with `t > now` — the station guarantees it polls
    ///   [`Action::Idle`] at every decision slot starting before `t`,
    ///   provided the channel stays silent over that span.
    /// * `None` — the station stays idle indefinitely (until a new message
    ///   is [`Station::deliver`]ed to it).
    ///
    /// When the engine skips a silence run it does **not** call
    /// [`Station::observe`] for the skipped slots; it hands the station one
    /// [`ChannelSpan::Silence`] through [`Station::catch_up`] instead. The
    /// default is `Some(now)`: fully backward compatible, never skipped.
    fn next_ready(&self, now: Ticks) -> Option<Ticks> {
        Some(now)
    }

    /// Absorbs a stretch of channel outcomes at once: a fast-forwarded
    /// silence run (see [`Station::next_ready`]) or a run of loaded idle
    /// cycles (see [`Station::attempt_cycle_hint`]).
    ///
    /// Must leave the station exactly as [`ChannelSpan::replay`] — one
    /// [`Station::observe`] per slot, in channel order — would. That replay
    /// is the default; O(1) overrides are an optimisation.
    fn catch_up(&mut self, span: &ChannelSpan) {
        span.replay(self);
    }

    /// An injected omission failure: the station loses power at `now`.
    ///
    /// Returns the messages lost from its local queue (the engine records
    /// them in [`crate::ChannelStats::lost`]). While down the engine fences
    /// the station completely — no [`Station::deliver`], [`Station::poll`]
    /// or [`Station::observe`] calls reach it. The default keeps the queue
    /// and freezes: correct for stateless stations; protocol stations
    /// should drop volatile state and report what was lost.
    fn crash(&mut self, _now: Ticks) -> Vec<Message> {
        Vec::new()
    }

    /// The station comes back up at `now` after a [`Station::crash`].
    ///
    /// Default: no-op (resume as frozen). Replicated protocol stations must
    /// instead enter a resynchronization mode and stay off the channel
    /// until their replica state is provably consistent again.
    fn restart(&mut self, _now: Ticks) {}

    /// A short label for traces and error messages.
    fn label(&self) -> String {
        format!("station(backlog={})", self.backlog())
    }

    /// Observability hook: attributes the decision slot about to be
    /// resolved to a protocol phase (see [`PhaseHint`]).
    ///
    /// Queried by the engine after [`Station::poll`] and before
    /// [`Station::observe`], only when metrics are enabled. A replicated
    /// protocol should answer from its shared automaton state while synced
    /// and `None` otherwise; the default `None` (for stations with no
    /// phase structure) leaves the slot unattributed.
    fn phase_hint(&self) -> Option<PhaseHint> {
        None
    }

    /// Analytic contention fast-forward hint: whether the next stretch of
    /// decision slots is a run of deterministic loaded idle cycles this
    /// station can promise its exact behaviour through (see
    /// [`AttemptCycleHint`]).
    ///
    /// Queried by the engine after deliveries, before polling, when
    /// contention fast-forward is enabled and the medium destroys
    /// collisions. A bulk run starts only when **every** live station
    /// answers `Some` with the same cycle shape and at least two are
    /// contenders; the run covers the minimum promised cycle count, cut
    /// at whole-cycle boundaries by the next pending arrival, the fault
    /// fence, and the run limit. Stations are then caught up once through
    /// [`Station::catch_up`] with a [`ChannelSpan::Cycles`] — only ever
    /// stations whose hint (or dormancy promise) covered the run — instead
    /// of `probes + 1` polls and observes per cycle. The default `None`
    /// (for protocols without this cycle structure) refuses bulk runs and
    /// is always correct.
    fn attempt_cycle_hint(&self, _now: Ticks, _slot: Ticks) -> Option<AttemptCycleHint> {
        None
    }

    /// Active-set scheduler hint: whether this station can be parked out
    /// of the per-slot loops entirely (see [`WakeHint`]).
    ///
    /// Queried by the engine at the end of each resolved operation when
    /// the active-set tier is enabled. Stations update the answer on
    /// [`Station::deliver`] and on observations (it is a pure function of
    /// their state); a parked station is neither polled nor observes, and
    /// adopts the witness's shared state on its next wake. The default
    /// `Active` never parks and is correct for every implementation.
    fn wake_hint(&self) -> WakeHint {
        WakeHint::Active
    }

    /// Publishes the shared replica state every synced station agrees on
    /// as an opaque checkpoint. The shared state is a function of the
    /// epoch coordinates and the channel observations alone (the argument
    /// that also backs crash-restart resynchronization), so any synced
    /// replica's checkpoint is every synced replica's. A replicated
    /// protocol should answer only while synced.
    ///
    /// The engine takes one from the witness (the first live active
    /// station answering [`Station::phase_hint`]) at each channel position
    /// where a parked station wakes, and hands it to every station waking
    /// there through [`Station::resync_adopt`]. The default `None` is for
    /// stations with no shared state: a wake hands them nothing.
    fn resync_checkpoint(&self) -> Option<Box<dyn std::any::Any + Send>> {
        None
    }

    /// Installs `checkpoint`, the witness's shared state at the current
    /// channel position, into this parked station, which observed nothing
    /// since it parked. Must leave the station exactly as observing every
    /// slot it missed would have: the shared state is copied, and private
    /// state moves only where those observations would have moved it. The
    /// default no-op fits a station with no shared state.
    fn resync_adopt(&mut self, _checkpoint: &dyn std::any::Any) {}
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use crate::message::Frame;
    use std::collections::VecDeque;

    /// A trivially greedy station: transmits the head of its FIFO queue
    /// whenever it believes the channel is free, never backs off. Useful
    /// for exercising the engine's collision logic in tests.
    #[derive(Debug, Default)]
    pub struct GreedyStation {
        pub queue: VecDeque<Message>,
        pub overhead_bits: u64,
        pub observations: Vec<Observation>,
    }

    impl GreedyStation {
        pub fn new(overhead_bits: u64) -> Self {
            GreedyStation {
                queue: VecDeque::new(),
                overhead_bits,
                observations: Vec::new(),
            }
        }
    }

    impl Station for GreedyStation {
        fn deliver(&mut self, message: Message) {
            self.queue.push_back(message);
        }

        fn poll(&mut self, _now: Ticks) -> Action {
            match self.queue.front() {
                Some(&message) => {
                    Action::Transmit(Frame::new(message, message.bits + self.overhead_bits))
                }
                None => Action::Idle,
            }
        }

        fn observe(&mut self, _now: Ticks, _next_free: Ticks, observation: &Observation) {
            let transmitted = match observation {
                Observation::Busy(frame) => Some(frame.message.id),
                Observation::Collision {
                    survivor: Some(frame),
                } => Some(frame.message.id),
                _ => None,
            };
            if transmitted.is_some() && self.queue.front().map(|m| m.id) == transmitted {
                self.queue.pop_front();
            }
            self.observations.push(*observation);
        }

        fn backlog(&self) -> usize {
            self.queue.len()
        }
    }
}
