//! The station abstraction every MAC protocol implements.

use crate::channel::{Action, Observation};
use crate::message::Message;
use crate::metrics::PhaseHint;
use crate::span::ChannelSpan;
use crate::time::Ticks;

/// How a station relates to an upcoming stretch of **contended** decision
/// slots — a tree-search resolution — (see [`Station::search_hint`]).
///
/// The engine fast-forwards a contention run by stepping only the engaged
/// stations ([`SearchHint::Engage`] and, conservatively,
/// [`SearchHint::Contend`]) slot by slot while every [`SearchHint::Quiet`]
/// station is caught up once at the end of the run through
/// [`Station::catch_up`]. At least one `Engage` and one `Quiet` answer
/// are required for a run to start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchHint {
    /// No promise: the station must be polled and observed every slot (the
    /// conservative default). This does not veto the run — the engine
    /// simply keeps stepping the station.
    Contend,
    /// The station guarantees it polls [`Action::Idle`] at every decision
    /// slot until something new is delivered to it, *whatever* the channel
    /// does meanwhile (successes, collisions, silence). It accepts being
    /// caught up in bulk through [`Station::catch_up`].
    Quiet,
    /// The station is (or may be) actively resolving channel contention —
    /// it must be stepped slot by slot, and its participation is what makes
    /// the run worth fast-forwarding for the quiet majority.
    Engage,
}

/// A station's promise about a run of *loaded idle cycles* — the
/// contention regime in which every backlogged station sits the whole time
/// tree search out (its deadline class lies beyond the horizon) and then
/// collides at the attempt slot, deterministically, cycle after cycle (see
/// [`Station::attempt_cycle_hint`]).
///
/// Each cycle is `probes` provably silent probe slots followed by one
/// destructively collided attempt slot, so an entire run is a pure
/// function of its start time and the cycle count: the engine resolves it
/// analytically in one step instead of chorus-stepping every contender
/// through every slot.
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
/// from the poll loop entirely, its channel observations are deferred into
/// a catch-up log, and it is replayed in one batch on its next wake (a
/// delivery, a fault/membership transition, or an engine event that could
/// invalidate the promise).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WakeHint {
    /// No promise: the station must stay in the per-slot loops (the
    /// conservative default, correct for every implementation).
    Active,
    /// A standing promise, holding until the next [`Station::deliver`] or
    /// until broken by a channel event the station itself would react to:
    ///
    /// * every [`Station::poll`] answers [`Action::Idle`] regardless of
    ///   what the channel carries meanwhile;
    /// * [`Station::backlog`] is `0` and stays `0` under any sequence of
    ///   deferred observations;
    /// * [`Station::next_ready`] is `None`, [`Station::search_hint`] is
    ///   `Quiet`, and
    ///   [`Station::attempt_cycle_hint`] is a silent observer compatible
    ///   with whatever cycle shape the contenders agree on — so the engine
    ///   may answer tier-gating queries on the station's behalf;
    /// * the observation entry points ([`Station::observe`] and
    ///   [`Station::catch_up`]) may be deferred and replayed later, in
    ///   channel order with identical arguments, leaving the station in
    ///   exactly the state immediate calls would have;
    /// * crucially, the promise may only *stop* holding through an
    ///   observation — so any channel event that breaks it is visible to
    ///   the stations the engine kept live, which report `Active` in turn
    ///   (shared-automaton protocols must therefore answer `Active`
    ///   whenever the replicated state is outside the regime the promise
    ///   describes, e.g. mid tree-search or under a burst reservation).
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
    /// silence run (see [`Station::next_ready`]), a contention run the
    /// station sat out quietly (see [`Station::search_hint`]), a run of
    /// loaded idle cycles (see [`Station::attempt_cycle_hint`]), or, on
    /// wake from dormancy, each deferred operation of the catch-up log.
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

    /// Contention fast-forward hint: how this station relates to the next
    /// stretch of contended (tree-search) decision slots.
    ///
    /// Queried by the engine after deliveries, before polling, when
    /// contention fast-forward is enabled. The engine runs a contention
    /// fast-forward only when at least one live station answers
    /// [`SearchHint::Engage`] and at least one answers
    /// [`SearchHint::Quiet`]; engaged (and contending) stations are then
    /// polled and observed slot by slot exactly as the reference stepper
    /// would, while the quiet stations are caught up once at the end via
    /// [`Station::catch_up`]. The run stops before any pending arrival,
    /// at the next scheduled fault ordinal or restart, at the run limit,
    /// and as soon as every engaged station's backlog drains. The default
    /// `Contend` is correct for every implementation.
    fn search_hint(&self, _now: Ticks) -> SearchHint {
        SearchHint::Contend
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
    /// their state); a parked station is never polled and receives its
    /// deferred observations in one batched catch-up on its next wake.
    /// The default `Active` never parks and is correct for every
    /// implementation.
    fn wake_hint(&self) -> WakeHint {
        WakeHint::Active
    }

    /// Publishes an epoch-anchored resynchronization checkpoint:
    /// `(epoch start, opaque checkpoint)`, where the checkpoint describes
    /// the shared replica state every synced station agrees on,
    /// reconstructible from the epoch boundary plus the observation
    /// sequence since it (the same soundness argument that backs
    /// crash-restart resynchronization). A replicated protocol should
    /// answer only while synced.
    ///
    /// The engine uses it to catch a station up across an epoch boundary
    /// in `O(final epoch)` instead of `O(span)` work: the station is
    /// rebased onto the boundary through [`Station::resync_rebase`],
    /// replays only the channel spans from the boundary on through
    /// [`Station::catch_up`], and adopts the shared counters through
    /// [`Station::resync_adopt`]. Two kinds of station take that path: the
    /// quiet stations at the end of a contention fast-forward run, with the
    /// first engaged station's checkpoint; and parked stations on wake,
    /// with a checkpoint the active-set scheduler captures from a fully
    /// caught-up station whenever one parks or wakes. The default `None`
    /// keeps every catch-up on the exact full-replay path.
    fn resync_checkpoint(&self) -> Option<(Ticks, Box<dyn std::any::Any + Send>)> {
        None
    }

    /// Rebases this provably silent station (parked, or quiet through a
    /// contention run) onto the epoch boundary described by `checkpoint`,
    /// discarding its stale shared automaton view. Returns `true` when the
    /// checkpoint was understood and the rebase happened; `false` falls
    /// back to full replay.
    ///
    /// After a successful rebase the engine replays the spans from the
    /// epoch boundary on through [`Station::catch_up`], then calls
    /// [`Station::resync_adopt`] with the same checkpoint at the channel
    /// position it was captured at. The default refuses.
    fn resync_rebase(&mut self, _checkpoint: &dyn std::any::Any) -> bool {
        false
    }

    /// Adopts the shared (replica-invariant) counter block from
    /// `checkpoint`, overwriting whatever the tail replay accumulated —
    /// the checkpoint spans the whole dormant prefix, including operations
    /// before the epoch boundary that the rebase discarded. Private
    /// counters stay untouched: the station was provably silent. Only ever
    /// called after a successful [`Station::resync_rebase`]. The default is
    /// a no-op.
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
                Some(&message) => Action::Transmit(Frame::new(
                    message,
                    message.bits + self.overhead_bits,
                )),
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
