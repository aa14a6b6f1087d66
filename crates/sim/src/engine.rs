//! The slot-synchronous simulation engine.
//!
//! The engine advances a single broadcast channel through decision slots.
//! At each decision point it (1) delivers due message arrivals to their
//! stations, (2) polls every station for an [`Action`], (3) resolves the
//! channel state exactly as the paper's model prescribes — silence, busy,
//! or collision — and (4) reports the identical [`Observation`] to every
//! station. Time advances by one slot time `x` for silence and destructive
//! collisions, and by the frame duration `l'` for successful transmissions
//! (throughput normalised to 1 bit/tick), which keeps the engine's
//! accounting aligned with the `B_DDCR` bound of §4.3 (`Σ l'/ψ + x·S`).

use crate::channel::{Action, CollisionMode, MediumConfig, Observation};
use crate::fault::{fence_cap, FaultPlan, SlotFaults};
use crate::membership::{MembershipChange, MembershipPlan, ABSENT};
use crate::message::{Delivery, Frame, Message};
use crate::metrics::{PhaseHint, ProtocolPhase, SimMetrics, XiBoundTable};
use crate::span::ChannelSpan;
use crate::station::{Station, WakeHint};
use crate::stats::ChannelStats;
use crate::time::Ticks;
use crate::trace::{JsonlSink, Trace, TraceEvent};

/// Error raised when assembling or running a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The medium configuration is physically implausible.
    InvalidMedium(String),
    /// A message routes to a station index that was never added.
    UnknownSource {
        /// The message's source id.
        source: u32,
        /// Number of stations attached.
        stations: usize,
    },
    /// `run_to_completion` exceeded its tick budget with work outstanding.
    Timeout {
        /// Time at which the run gave up.
        at: Ticks,
        /// Messages still queued across all stations.
        backlog: usize,
    },
    /// A federation assembly was internally inconsistent: mismatched
    /// segment/schedule counts, a zero epoch, or a malformed bridge route
    /// (see [`crate::federation`]).
    InvalidFederation(String),
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::InvalidMedium(msg) => write!(f, "invalid medium: {msg}"),
            SimError::UnknownSource { source, stations } => {
                write!(
                    f,
                    "message for source {source} but only {stations} stations attached"
                )
            }
            SimError::Timeout { at, backlog } => {
                write!(f, "simulation timed out at {at} with backlog {backlog}")
            }
            SimError::InvalidFederation(msg) => write!(f, "invalid federation: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Per-station hot state, split out of the boxed `Station` trait objects
/// into parallel structure-of-arrays columns: the fields the engine
/// touches on every decision slot (fencing, park flags) live in dense
/// arrays, so the per-slot scans are cache-linear instead of
/// chasing one heap allocation per station.
#[derive(Debug, Default)]
struct StationHot {
    /// Per-station fencing state: `Some(r)` means off the fabric until the
    /// slot with ordinal `r` (restart processed at the start of that
    /// slot). A crashed station carries its restart ordinal; an absent one
    /// (left, or never joined — see [`MembershipPlan`]) carries the
    /// [`ABSENT`] sentinel, which never falls due on its own. Only ever
    /// populated by a non-empty fault or membership plan.
    down: Vec<Option<u64>>,
    /// The restart fence: the earliest restart ordinal among crashed
    /// stations (the minimum non-[`ABSENT`] entry of `down`), so the
    /// per-operation fault checks need no scan of `down`. Rebuilt by every
    /// fault-transition pass. `Engine::step` runs that pass right after
    /// the membership transitions, the only other writer of `down` past
    /// setup, so a join or leave that clears a pending restart is folded
    /// in within the same slot.
    next_restart: Option<u64>,
    /// Whether the active-set scheduler has parked the station (see
    /// [`WakeHint::Dormant`]). A parked station is never down and never in
    /// the `active` index.
    parked: Vec<bool>,
}

impl StationHot {
    /// Recomputes the restart fence from `down` — the `O(stations)` walk
    /// that [`StationHot::next_restart`] caches.
    fn earliest_restart(&self) -> Option<u64> {
        self.down
            .iter()
            .flatten()
            .copied()
            .filter(|&restart| restart != ABSENT)
            .min()
    }
}

/// The simulation engine: one broadcast medium plus its stations.
///
/// # Examples
///
/// ```
/// use ddcr_sim::{Engine, MediumConfig};
///
/// # fn main() -> Result<(), ddcr_sim::SimError> {
/// let engine = Engine::new(MediumConfig::ethernet())?;
/// assert_eq!(engine.now(), ddcr_sim::Ticks::ZERO);
/// # Ok(())
/// # }
/// ```
pub struct Engine {
    medium: MediumConfig,
    stations: Vec<Box<dyn Station>>,
    /// Future arrivals, sorted descending by (time, id) so `pop` yields the
    /// earliest. Kept unsorted between [`Engine::add_arrivals`] batches and
    /// sorted once on first use (see `pending_dirty`).
    pending: Vec<Message>,
    /// Whether `pending` needs a sort before the next ordered access.
    pending_dirty: bool,
    now: Ticks,
    stats: ChannelStats,
    trace: Trace,
    /// Scratch buffer for this slot's transmitters, reused across slots so
    /// the hot loop allocates nothing.
    transmitters: Vec<Frame>,
    /// The injected-fault schedule (empty by default: zero overhead).
    faults: FaultPlan,
    /// Count of decision slots resolved so far — the coordinate fault
    /// events are keyed by, identical under fast-forward and reference
    /// stepping.
    slot_ordinal: u64,
    /// The per-station hot state (down/absent fencing, park flags),
    /// SoA-split out of the boxed stations — see [`StationHot`].
    hot: StationHot,
    /// The active-set index: station indices not currently parked, in
    /// ascending attachment order (so every active-set loop visits
    /// stations in exactly the order the full loops did). Down stations
    /// stay in the index — the per-loop `down` checks fence them, exactly
    /// as before.
    active: Vec<usize>,
    /// Count of parked stations (`hot.parked` trues).
    parked_count: usize,
    /// Active-set scheduling (on by default): dormant stations are parked
    /// out of the per-slot loops and adopt the witness's shared state on
    /// wake. Independently switchable from the other tiers for bisection.
    active_set: bool,
    /// Count of `Station::poll` calls issued so far — the telemetry the
    /// active-set scale tests assert on (polled station-slots vs. the
    /// `slot_ordinal × station_count` total).
    polls: u64,
    /// Count of parked stations woken so far (see [`Engine::replay_count`]).
    replays: u64,
    /// The witness's shared state (see [`Station::resync_checkpoint`]) at
    /// the slot ordinal it was taken at: every wake at one channel
    /// position adopts the same checkpoint, so it is taken once per
    /// position. `None` until the first wake.
    wake_state: Option<(u64, Option<Box<dyn std::any::Any + Send>>)>,
    /// The scheduled membership changes (empty by default: zero overhead).
    membership: MembershipPlan,
    /// Cached `stations backlog + pending` total; valid when not stale.
    /// Silence slots cannot change any queue, so the cache only goes stale
    /// on delivered arrivals and busy/collision slots.
    backlog_cache: usize,
    backlog_stale: bool,
    /// Idle fast-forward (on by default). Disable to force the reference
    /// slot-by-slot stepper, e.g. for equivalence tests.
    fast_forward: bool,
    /// Contention fast-forward (on by default): runs of loaded idle
    /// cycles are resolved analytically, in one step. Independently
    /// switchable from the other tiers for bisection.
    contention_fast_forward: bool,
    /// Scratch buffer for the contender source ids of one analytic
    /// attempt-cycle run.
    cycle_sources: Vec<u32>,
    /// Streaming observability (None by default: zero overhead).
    metrics: Option<SimMetrics>,
    /// Streaming JSONL trace export (None by default).
    sink: Option<JsonlSink>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("medium", &self.medium)
            .field("stations", &self.stations.len())
            .field("pending", &self.pending.len())
            .field("now", &self.now)
            .finish()
    }
}

impl Engine {
    /// Creates an engine over the given medium.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidMedium`] if the configuration fails
    /// validation.
    pub fn new(medium: MediumConfig) -> Result<Self, SimError> {
        medium.validate().map_err(SimError::InvalidMedium)?;
        Ok(Engine {
            medium,
            stations: Vec::new(),
            pending: Vec::new(),
            pending_dirty: false,
            now: Ticks::ZERO,
            stats: ChannelStats::default(),
            trace: Trace::default(),
            transmitters: Vec::new(),
            faults: FaultPlan::none(),
            slot_ordinal: 0,
            hot: StationHot::default(),
            active: Vec::new(),
            parked_count: 0,
            active_set: true,
            polls: 0,
            replays: 0,
            wake_state: None,
            membership: MembershipPlan::none(),
            backlog_cache: 0,
            backlog_stale: true,
            fast_forward: true,
            contention_fast_forward: true,
            cycle_sources: Vec::new(),
            metrics: None,
            sink: None,
        })
    }

    /// Attaches a station; stations are indexed by attachment order, which
    /// must match the `SourceId`s used in the workload.
    pub fn add_station(&mut self, station: Box<dyn Station>) -> &mut Self {
        self.active.push(self.stations.len());
        self.stations.push(station);
        self.hot.down.push(None);
        self.hot.parked.push(false);
        self.backlog_stale = true;
        self
    }

    /// Installs an injected-fault schedule (see [`FaultPlan`]). The empty
    /// plan — the default — leaves the engine bitwise identical to one
    /// without fault support.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> &mut Self {
        self.faults = plan;
        self
    }

    /// Installs a membership schedule (see [`MembershipPlan`]): stations
    /// listed as initially absent are fenced off the fabric from slot 0,
    /// and scheduled joins/leaves are processed — epoch-fenced against
    /// every fast-forward tier — at their decision-slot ordinals. The
    /// empty plan (the default) leaves the engine bitwise identical to one
    /// without membership support. Call after attaching stations and
    /// before running.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownSource`] if any event or initial
    /// absentee names a station index that was never attached.
    pub fn set_membership_plan(&mut self, plan: MembershipPlan) -> Result<&mut Self, SimError> {
        let stations = self.stations.len();
        let out_of_range = plan
            .initially_absent()
            .iter()
            .copied()
            .chain(plan.events().iter().map(|e| e.change.station()))
            .find(|&s| s as usize >= stations);
        if let Some(source) = out_of_range {
            return Err(SimError::UnknownSource { source, stations });
        }
        for &station in plan.initially_absent() {
            self.hot.down[station as usize] = Some(ABSENT);
        }
        self.membership = plan;
        self.backlog_stale = true;
        Ok(self)
    }

    /// Whether the station at `index` is currently absent from the fabric
    /// (left, or not yet joined) — as opposed to crashed with a scheduled
    /// restart, which [`Engine::is_down`] also reports.
    pub fn is_absent(&self, index: usize) -> bool {
        self.hot.down.get(index).is_some_and(|d| *d == Some(ABSENT))
    }

    /// Enables channel tracing.
    pub fn set_trace(&mut self, trace: Trace) -> &mut Self {
        self.trace = trace;
        self
    }

    /// Attaches a streaming JSONL trace sink: every channel event is
    /// written as one JSON line as it resolves, independent of (and in
    /// addition to) the in-memory [`Trace`]. The byte stream is a pure
    /// function of the channel history, hence bitwise identical across the
    /// fast-forward and reference steppers.
    pub fn set_trace_sink(&mut self, sink: JsonlSink) -> &mut Self {
        self.sink = Some(sink);
        self
    }

    /// Detaches the JSONL sink (call `finish` on it to flush and surface
    /// I/O errors).
    pub fn take_trace_sink(&mut self) -> Option<JsonlSink> {
        self.sink.take()
    }

    /// Enables streaming metrics (phase accounting, per-station counters).
    /// Idempotent; call after attaching stations or before — the per-station
    /// table grows on demand.
    ///
    /// Metrics ride the active set: every slot is attributed from the
    /// first live *active* station that answers [`Station::phase_hint`],
    /// and the scheduler never parks the first such station (the witness,
    /// see [`Engine::set_active_set`]). Synced replicas run the same
    /// automaton, so the witness's answer is the one every synced station
    /// would give, and the run takes exactly the code path it takes with
    /// metrics off.
    pub fn enable_metrics(&mut self) -> &mut Self {
        if self.metrics.is_none() {
            self.metrics = Some(SimMetrics::new(self.stations.len()));
        }
        self
    }

    /// Enables metrics and installs analytic ξ allowances; observed
    /// per-epoch overhead is checked against them live, raising
    /// [`crate::MetricsViolation`]s on breach.
    pub fn set_xi_bounds(&mut self, time: XiBoundTable, static_: XiBoundTable) -> &mut Self {
        self.enable_metrics();
        if let Some(m) = self.metrics.as_mut() {
            m.set_xi_bounds(time, static_);
        }
        self
    }

    /// The metrics accumulated so far, if enabled.
    pub fn metrics(&self) -> Option<&SimMetrics> {
        self.metrics.as_ref()
    }

    /// Detaches the metrics, closing any observation window still open
    /// (cutoff windows are recorded but never bound-checked).
    pub fn take_metrics(&mut self) -> Option<SimMetrics> {
        let mut metrics = self.metrics.take()?;
        metrics.finish();
        Some(metrics)
    }

    /// Sets the retention policy for per-delivery and per-lost-message
    /// records: `Some(cap)` keeps only the first `cap` in memory while the
    /// counters and the latency histogram stay exact; `None` (the default)
    /// retains everything. `Some(0)` gives constant-memory runs.
    pub fn set_retention(&mut self, deliveries: Option<usize>, lost: Option<usize>) -> &mut Self {
        self.stats.delivery_retention = deliveries;
        self.stats.lost_retention = lost;
        self
    }

    /// Enables or disables idle fast-forward (on by default).
    ///
    /// With fast-forward off the engine is the naive reference stepper:
    /// every decision slot is polled and observed individually. The two
    /// modes are bitwise equivalent — identical traces, statistics, and
    /// delivery schedules — which the equivalence test suite asserts; the
    /// switch exists for those tests and for benchmarking the speedup.
    pub fn set_fast_forward(&mut self, enabled: bool) -> &mut Self {
        self.fast_forward = enabled;
        self
    }

    /// Does nothing. The engine no longer has a busy-period tier (bursts
    /// are stepped slot by slot); this no-op remains only so that callers
    /// built against the earlier API — the end-to-end benchmark in
    /// `benchmark/` — compile unchanged, and goes with the next change to
    /// that benchmark.
    #[doc(hidden)]
    pub fn set_busy_fast_forward(&mut self, _enabled: bool) -> &mut Self {
        self
    }

    /// Enables or disables contention fast-forward (on by default),
    /// independently of the other tiers so every mechanism can be bisected
    /// on its own.
    ///
    /// With contention fast-forward on, a run of loaded idle cycles —
    /// every backlogged station sits the time tree search out and collides
    /// at the attempt slot, cycle after cycle (see
    /// [`Station::attempt_cycle_hint`]) — is resolved analytically in one
    /// step, every live station caught up once on a
    /// [`ChannelSpan::Cycles`]. Any other contended slot is stepped; the
    /// active set keeps that O(contenders). Statistics, traces, metrics
    /// attribution and fault fencing are bitwise identical to the
    /// reference stepper.
    pub fn set_contention_fast_forward(&mut self, enabled: bool) -> &mut Self {
        self.contention_fast_forward = enabled;
        self
    }

    /// Enables or disables the active-set scheduler (on by default),
    /// independently of the two fast-forward tiers so every mechanism can
    /// be bisected on its own.
    ///
    /// With the scheduler on, stations whose [`Station::wake_hint`]
    /// promises dormancy are parked out of every per-slot loop — polls,
    /// tier-gating hint scans, and catch-up fan-outs all visit only the
    /// active set — until their next wake (a delivery, a fault or
    /// membership transition, or the end of a run). Statistics,
    /// traces, delivery schedules and metrics are bitwise identical to the
    /// full loops.
    ///
    /// One synced station always stays active as the witness: the first
    /// live active station that answers [`Station::phase_hint`] is never
    /// parked, whether metrics are on or off, so metered and unmetered
    /// runs take the same path and every slot has a live replica to
    /// attribute it. A parked station observes nothing: on wake it adopts
    /// the witness's shared state (see [`Station::resync_adopt`]) in
    /// O(1), however long it slept, so the engine keeps no record of the
    /// channel history it missed.
    pub fn set_active_set(&mut self, enabled: bool) -> &mut Self {
        if !enabled {
            self.wake_all();
        }
        self.active_set = enabled;
        self
    }

    /// Schedules a batch of future arrivals.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownSource`] if a message's source index is
    /// out of range for the attached stations.
    pub fn add_arrivals<I>(&mut self, arrivals: I) -> Result<&mut Self, SimError>
    where
        I: IntoIterator<Item = Message>,
    {
        for msg in arrivals {
            if msg.source.0 as usize >= self.stations.len() {
                return Err(SimError::UnknownSource {
                    source: msg.source.0,
                    stations: self.stations.len(),
                });
            }
            // `pending` is kept descending by (arrival, id); a message that
            // extends the tail keeps it sorted, anything else defers one
            // sort to the next ordered access instead of re-sorting the
            // whole vector on every batch.
            if !self.pending_dirty {
                if let Some(last) = self.pending.last() {
                    if (msg.arrival, msg.id) > (last.arrival, last.id) {
                        self.pending_dirty = true;
                    }
                }
            }
            self.pending.push(msg);
            self.backlog_stale = true;
        }
        Ok(self)
    }

    /// Restores the descending (arrival, id) order of `pending` if batches
    /// were appended out of order. Keys are unique (message ids are), so
    /// the resulting order is identical to eager per-batch sorting.
    fn ensure_pending_sorted(&mut self) {
        if self.pending_dirty {
            self.pending
                .sort_by_key(|m| std::cmp::Reverse((m.arrival, m.id)));
            self.pending_dirty = false;
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> Ticks {
        self.now
    }

    /// Count of decision slots resolved so far (the coordinate
    /// [`FaultPlan`] events are keyed by).
    pub fn slot_ordinal(&self) -> u64 {
        self.slot_ordinal
    }

    /// Whether the station at `index` is currently crashed.
    pub fn is_down(&self, index: usize) -> bool {
        self.hot.down.get(index).is_some_and(|d| d.is_some())
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &ChannelStats {
        &self.stats
    }

    /// The channel trace recorded so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Read access to an attached station (for protocol-state assertions in
    /// tests).
    pub fn station(&self, index: usize) -> Option<&dyn Station> {
        self.stations.get(index).map(|b| b.as_ref())
    }

    /// Number of stations attached to the medium.
    pub fn station_count(&self) -> usize {
        self.stations.len()
    }

    /// Total messages queued across all stations plus not-yet-delivered
    /// arrivals.
    pub fn backlog(&self) -> usize {
        self.stations.iter().map(|s| s.backlog()).sum::<usize>() + self.pending.len()
    }

    /// Cached backlog total, re-summed only when a queue may have changed
    /// (an arrival was delivered, or a busy/collision slot was observed).
    /// Silence slots leave every queue untouched, so long idle stretches
    /// cost no per-slot O(stations) summation.
    fn tracked_backlog(&mut self) -> usize {
        if self.backlog_stale {
            // Parked stations hold no backlog — an empty queue is a
            // precondition for parking, and a parked station observes
            // nothing — so summing the active set equals summing everyone.
            self.backlog_cache = self
                .active
                .iter()
                .map(|&idx| self.stations[idx].backlog())
                .sum::<usize>()
                + self.pending.len();
            self.backlog_stale = false;
        }
        self.backlog_cache
    }

    /// Count of [`Station::poll`] calls issued so far. With the active-set
    /// scheduler on and a sparse workload this stays far below the
    /// `slot_ordinal × station_count` total the full poll loop would
    /// issue — the scale tests assert on exactly that ratio.
    pub fn poll_count(&self) -> u64 {
        self.polls
    }

    /// Count of parked stations woken so far: each wake is one adoption
    /// of the witness's shared state (see [`Station::resync_adopt`]),
    /// O(1) however long the station slept. The name stays because the
    /// end-to-end benchmark in `benchmark/` reads it.
    pub fn replay_count(&self) -> u64 {
        self.replays
    }

    /// The witness: the first live active station that answers
    /// [`Station::phase_hint`], which [`Engine::park_dormant`] never parks.
    fn witness(&self) -> Option<usize> {
        self.active
            .iter()
            .copied()
            .find(|&idx| self.hot.down[idx].is_none() && self.stations[idx].phase_hint().is_some())
    }

    /// Wakes the parked station at `idx`: hands it the witness's shared
    /// state at the current channel position and reinstates it in the
    /// active index.
    ///
    /// Every synced replica holds the same shared state, a function of the
    /// epoch coordinates and the channel observations alone (§4), and a
    /// parked station's private state does not move while it sleeps (see
    /// [`WakeHint::Dormant`]). So adopting the witness's checkpoint leaves
    /// the station exactly where observing every slot would have. Wakes at
    /// one position share one checkpoint: every operation that reaches
    /// the stations advances `slot_ordinal`, so the ordinal names the
    /// position.
    fn wake_station(&mut self, idx: usize) {
        if !self.hot.parked[idx] {
            return;
        }
        if self
            .wake_state
            .as_ref()
            .is_none_or(|&(at, _)| at != self.slot_ordinal)
        {
            let state = self
                .witness()
                .and_then(|witness| self.stations[witness].resync_checkpoint());
            self.wake_state = Some((self.slot_ordinal, state));
        }
        if let Some((_, Some(state))) = &self.wake_state {
            self.stations[idx].resync_adopt(state.as_ref());
        }
        self.replays += 1;
        self.hot.parked[idx] = false;
        self.parked_count -= 1;
        let pos = self.active.partition_point(|&a| a < idx);
        self.active.insert(pos, idx);
    }

    /// Wakes every parked station (scheduler shutdown, a sync for
    /// inspection).
    fn wake_all(&mut self) {
        if self.parked_count == 0 {
            return;
        }
        for idx in 0..self.stations.len() {
            self.wake_station(idx);
        }
    }

    /// Wakes what a fault or membership transition needs awake, before it
    /// is applied: the stations it `named` (crashing, joining or leaving
    /// ones) and — when the transition takes down the witness (see
    /// [`Engine::park_dormant`]) — the lowest parked station. It adopts
    /// the witness's shared state before the transition takes the witness
    /// down, then carries the shared-state vetoes (mid-STs, or under a
    /// burst reservation) in the witness's place. Every other parked
    /// station stays parked, so a transition costs O(1) wakes however many
    /// stations sleep.
    fn wake_for_transition(&mut self, named: &[usize]) {
        if self.parked_count == 0 {
            return;
        }
        let witness = self.witness();
        for &idx in named {
            self.wake_station(idx);
        }
        if witness.is_some_and(|witness| named.contains(&witness)) {
            if let Some(idx) = self.hot.parked.iter().position(|&parked| parked) {
                self.wake_station(idx);
            }
        }
    }

    /// Wakes every parked station so direct inspection (e.g.
    /// [`Engine::station`] in tests) sees fully caught-up protocol state.
    /// Called automatically when [`Engine::run_until`] and
    /// [`Engine::run_to_completion`] return; cheap when nothing is parked.
    pub fn sync_stations(&mut self) {
        self.wake_all();
    }

    /// Parks every active station whose [`Station::wake_hint`] promises
    /// dormancy, except the witness: the first live active station that
    /// answers [`Station::phase_hint`] stays active, so a synced replica
    /// is always live to attribute slots and veto runs (see
    /// [`Engine::set_active_set`]). Down stations never park (their
    /// fencing already keeps them out of every loop, and crash/restart
    /// bookkeeping must see them); an empty local queue is a hard
    /// engine-side precondition on top of the station's own promise.
    fn park_dormant(&mut self) {
        if !self.active_set {
            return;
        }
        let mut witness = false;
        let mut k = 0;
        while k < self.active.len() {
            let idx = self.active[k];
            let live = self.hot.down[idx].is_none();
            if live && !witness && self.stations[idx].phase_hint().is_some() {
                witness = true;
                k += 1;
            } else if live
                && matches!(self.stations[idx].wake_hint(), WakeHint::Dormant)
                && self.stations[idx].backlog() == 0
            {
                self.active.remove(k);
                self.hot.parked[idx] = true;
                self.parked_count += 1;
            } else {
                k += 1;
            }
        }
    }

    /// Runs until `deadline` (inclusive of the slot straddling it).
    pub fn run_until(&mut self, deadline: Ticks) {
        while self.now < deadline {
            self.advance(deadline, false);
        }
        self.sync_stations();
        self.stats.total_ticks = self.now;
    }

    /// Runs until every scheduled arrival has been delivered **and** every
    /// station's queue has drained, or until `max` ticks have elapsed.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Timeout`] if the budget is exhausted first.
    pub fn run_to_completion(&mut self, max: Ticks) -> Result<(), SimError> {
        // One backlog computation per loop iteration; the cached total is
        // only re-summed after slots that can change a queue.
        let mut backlog = self.tracked_backlog();
        while backlog > 0 {
            if self.now >= max {
                self.sync_stations();
                self.stats.total_ticks = self.now;
                return Err(SimError::Timeout {
                    at: self.now,
                    backlog,
                });
            }
            self.advance(max, true);
            backlog = self.tracked_backlog();
        }
        self.sync_stations();
        self.stats.total_ticks = self.now;
        Ok(())
    }

    /// Runs until the backlog drains or `deadline` is reached, whichever
    /// comes first, and reports whether the backlog drained.
    ///
    /// This is the chunked-composition primitive the
    /// [`crate::federation`] layer's epoch-aligned rounds are built on:
    /// calling it repeatedly with an increasing sequence of deadlines
    /// resolves exactly the slots — and emits exactly the trace, metrics
    /// and statistics — that a single [`Engine::run_to_completion`] over
    /// the union would. Every fast-forward jump is cut at `deadline`
    /// precisely where the slot-by-slot loop would stop stepping, and a
    /// drained engine returns immediately without advancing its clock.
    /// Like [`Engine::run_until`], the slot straddling `deadline` may
    /// overshoot it; callers must read [`Engine::now`] back rather than
    /// assume the clock stopped at the deadline.
    pub fn run_until_drained(&mut self, deadline: Ticks) -> bool {
        let mut backlog = self.tracked_backlog();
        while backlog > 0 && self.now < deadline {
            self.advance(deadline, true);
            backlog = self.tracked_backlog();
        }
        self.stats.total_ticks = self.now;
        backlog == 0
    }

    /// Consumes the engine, returning the final statistics.
    pub fn into_stats(mut self) -> ChannelStats {
        self.stats.total_ticks = self.now;
        self.stats
    }

    /// Advances the simulation: a fast-forwarded silence run when every
    /// station permits it, an analytic run of loaded idle cycles when every
    /// station promises one, one reference slot otherwise. `limit` bounds
    /// every jump exactly where the slot-by-slot loop would stop stepping.
    /// `stop_on_drain` is set by [`Engine::run_to_completion`], whose loop
    /// exits as soon as the backlog drains — a jump must not outrun that
    /// check.
    fn advance(&mut self, limit: Ticks, stop_on_drain: bool) {
        self.advance_inner(limit, stop_on_drain);
        // Park whatever just went dormant (a drained queue, a search
        // resolving back to the idle cycle) before the next operation's
        // hint scans — keeping those scans O(active).
        self.park_dormant();
    }

    /// One resolved operation — a fast-forward run or one reference slot
    /// — without the trailing active-set park pass.
    fn advance_inner(&mut self, limit: Ticks, stop_on_drain: bool) {
        // A slot with a fault transition due (a scheduled event, or a
        // restart falling due) must go through the reference stepper: the
        // fast path's early `deliver_due` would otherwise race restart
        // processing, and a corrupted silent slot is not silent (nor is a
        // corrupted busy slot busy).
        if (self.fast_forward || self.contention_fast_forward)
            && !self.fault_transition_due()
            && !self.membership_transition_due()
        {
            self.deliver_due();
            if stop_on_drain && self.backlog_stale && self.tracked_backlog() == 0 {
                // `deliver_due` just recorded the final pending arrivals as
                // lost (their station is down; a live delivery would have
                // left the backlog non-zero). The reference loop runs
                // exactly one more slot before its drain check stops it, so
                // a multi-slot jump here would overshoot the termination
                // point.
                self.step();
                return;
            }
            if self.fast_forward {
                if let Some(slots) = self.skippable_slots(limit) {
                    self.fast_forward_silence(slots);
                    return;
                }
            }
            if self.contention_fast_forward && self.try_attempt_cycle_run(limit) {
                return;
            }
        }
        self.step();
    }

    /// Whether the slot at the current ordinal needs fault processing: a
    /// scheduled fault event strikes it, or a crashed station's down time
    /// ends at (or before) it.
    fn fault_transition_due(&self) -> bool {
        if self.faults.is_empty() {
            // Crashes only originate from the plan; membership absences in
            // `down` carry the never-due ABSENT sentinel, so with no fault
            // plan no restart can fall due.
            return false;
        }
        debug_assert_eq!(self.hot.next_restart, self.hot.earliest_restart());
        self.hot
            .next_restart
            .is_some_and(|restart| restart <= self.slot_ordinal)
            || !self.faults.events_at(self.slot_ordinal).is_empty()
    }

    /// Whether a scheduled membership change strikes the slot at the
    /// current ordinal — such a slot must go through the reference stepper
    /// so joins and leaves land at exactly the same channel state under
    /// every fast-forward tier.
    fn membership_transition_due(&self) -> bool {
        !self.membership.is_empty() && !self.membership.events_at(self.slot_ordinal).is_empty()
    }

    /// How many guaranteed-silent slots can be jumped from `now`, if any.
    ///
    /// Call only after [`Engine::deliver_due`]. Combines every station's
    /// [`Station::next_ready`] hint with the earliest pending arrival: the
    /// first decision slot that could be non-silent (or could deliver an
    /// arrival) is the first slot boundary at or after that horizon, so
    /// every slot before it is provably silent. With no horizon at all the
    /// jump runs straight to `limit`, exactly like the naive stepper would.
    fn skippable_slots(&mut self, limit: Ticks) -> Option<u64> {
        // Earliest time any station may act (None = never). Down stations
        // are fenced off the channel, so their hints do not apply; parked
        // stations promise `next_ready` of `None` for as long as they stay
        // parked (see [`WakeHint::Dormant`]), so scanning the active set
        // is exact.
        let mut horizon: Option<Ticks> = None;
        for &idx in &self.active {
            if self.hot.down[idx].is_some() {
                continue;
            }
            let station = &self.stations[idx];
            match station.next_ready(self.now) {
                Some(t) if t <= self.now => return None,
                Some(t) => horizon = Some(horizon.map_or(t, |h| h.min(t))),
                None => {}
            }
        }
        if let Some(next) = self.pending.last() {
            // deliver_due just ran, so the earliest arrival is in the
            // future; the slot that starts at or after it must be stepped.
            horizon = Some(horizon.map_or(next.arrival, |h| h.min(next.arrival)));
        }
        let target = horizon.map_or(limit, |h| h.min(limit));
        let span = target.saturating_sub(self.now);
        // Never jump over a scheduled fault, membership change, or pending
        // restart: the slot they strike must go through the reference
        // stepper.
        let slots = self.membership.fence(
            self.slot_ordinal,
            fence_cap(
                &self.faults,
                self.hot.next_restart,
                self.slot_ordinal,
                span.div_ceil_slots(Ticks(self.medium.slot_ticks)),
            ),
        );
        (slots > 0).then_some(slots)
    }

    /// Accounts `slots` silent decision slots in one jump: identical stats
    /// and trace as stepping them, with stations catching up on one
    /// [`ChannelSpan::Silence`] instead of per-slot polls and observes.
    fn fast_forward_silence(&mut self, slots: u64) {
        let slot = Ticks(self.medium.slot_ticks);
        self.stats.silence_slots += slots;
        if self.trace.is_enabled() || self.sink.is_some() {
            for i in 0..slots {
                self.emit(TraceEvent::Silence {
                    at: self.now + slot * i,
                });
            }
        }
        if let Some(metrics) = self.metrics.as_mut() {
            metrics.on_skip(slots);
        }
        let span = ChannelSpan::Silence {
            from: self.now,
            slots,
            slot,
        };
        self.catch_up_live(&span);
        self.now += slot * slots;
        self.slot_ordinal += slots;
    }

    /// Catches every live active station up on `span` (parked stations
    /// adopt the witness's shared state on wake instead).
    fn catch_up_live(&mut self, span: &ChannelSpan) {
        for &idx in &self.active {
            if self.hot.down[idx].is_none() {
                self.stations[idx].catch_up(span);
            }
        }
    }

    /// Attempts an analytic attempt-cycle run from `now`: a stretch of
    /// *loaded idle cycles* — every backlogged station sits the whole time
    /// tree search out and collides at the attempt slot, cycle after cycle
    /// — resolved in bulk without stepping any station through the slots.
    /// Returns `true` when at least one whole cycle was resolved.
    ///
    /// Call only after [`Engine::deliver_due`] with no fault transition
    /// due. The run starts only when the medium destroys collisions (an
    /// arbitrating one delivers a survivor, which changes the dynamics),
    /// every live station answers [`Station::attempt_cycle_hint`] with the
    /// same cycle shape, and at least two are contenders. The cycle count
    /// is the minimum promise, cut at whole-cycle boundaries by the next
    /// pending arrival, the fault fence, and `limit`; the remainder falls
    /// through to the reference stepper.
    fn try_attempt_cycle_run(&mut self, limit: Ticks) -> bool {
        if !matches!(self.medium.collision_mode, CollisionMode::Destructive) {
            return false;
        }
        let slot = Ticks(self.medium.slot_ticks);
        let mut sources = std::mem::take(&mut self.cycle_sources);
        sources.clear();
        let mut probes: Option<u64> = None;
        let mut cycles = u64::MAX;
        let mut refused = false;
        // Parked stations promise to be silent observers compatible with
        // whatever cycle shape the contenders agree on, with an unbounded
        // cycle count — exactly the hint their live (synced, empty-queue)
        // state would give — so only the active set is consulted.
        for &idx in &self.active {
            if self.hot.down[idx].is_some() {
                continue;
            }
            let station = &self.stations[idx];
            let Some(hint) = station.attempt_cycle_hint(self.now, slot) else {
                refused = true;
                break;
            };
            if *probes.get_or_insert(hint.probes) != hint.probes {
                refused = true;
                break;
            }
            cycles = cycles.min(hint.cycles);
            if let Some(source) = hint.contender {
                // Attachment order, like the reference poll loop gathers
                // this slot's transmitters.
                sources.push(source);
            }
        }
        let Some(probes) = probes.filter(|_| !refused) else {
            self.cycle_sources = sources;
            return false;
        };
        if sources.len() < 2 {
            self.cycle_sources = sources;
            return false;
        }
        // The reference stepper runs a slot iff it starts before `limit`
        // and before the earliest pending arrival (delivered at that
        // slot's start); a cycle is bulk-resolvable only while its last
        // slot — the attempt — still qualifies.
        let span = slot.as_u64() * (probes + 1);
        let mut horizon = limit;
        if let Some(next) = self.pending.last() {
            horizon = horizon.min(next.arrival);
        }
        let room = horizon.saturating_sub(self.now).as_u64();
        let within_horizon = match room.checked_sub(probes * slot.as_u64() + 1) {
            Some(e) => e / span + 1,
            None => 0,
        };
        cycles = cycles.min(within_horizon);
        // Never run into a scheduled fault, membership change, or pending
        // restart: the slot they strike must go through the reference
        // stepper.
        let fenced_slots = self.membership.fence(
            self.slot_ordinal,
            fence_cap(
                &self.faults,
                self.hot.next_restart,
                self.slot_ordinal,
                u64::MAX,
            ),
        );
        cycles = cycles.min(fenced_slots / (probes + 1));
        if cycles == 0 {
            self.cycle_sources = sources;
            return false;
        }
        self.run_attempt_cycles(probes, cycles, &sources);
        self.cycle_sources = sources;
        true
    }

    /// Resolves `cycles` whole loaded idle cycles in one step: identical
    /// statistics, trace events, and metrics attribution as stepping the
    /// `cycles · (probes + 1)` slots, with every live station caught up
    /// once on a [`ChannelSpan::Cycles`].
    fn run_attempt_cycles(&mut self, probes: u64, cycles: u64, sources: &[u32]) {
        let slot = Ticks(self.medium.slot_ticks);
        let span = slot * (probes + 1);
        let from = self.now;
        self.stats.silence_slots += cycles * probes;
        self.stats.collisions += cycles;
        // Queues are untouched by promise, but keep the cache honest the
        // way `account` does for any collision slot.
        self.backlog_stale = true;
        if self.trace.is_enabled() || self.sink.is_some() {
            for k in 0..cycles {
                let start = from + span * k;
                for p in 0..probes {
                    self.emit(TraceEvent::Silence {
                        at: start + slot * p,
                    });
                }
                self.emit(TraceEvent::Collision {
                    at: start + slot * probes,
                    survivor: None,
                });
            }
        }
        if let Some(metrics) = self.metrics.as_mut() {
            // Mirror the reference stepper's per-slot attribution: each
            // cycle is one epoch (`start_tts` stamps the fresh TTs at the
            // cycle boundary), its probes belong to the time search and
            // its attempt slot to the attempt phase, and the colliding
            // sources are seen in attachment order.
            for k in 0..cycles {
                let epoch_start = from + span * k;
                let probe_hint = Some(PhaseHint {
                    phase: ProtocolPhase::TimeSearch,
                    epoch_start,
                });
                for _ in 0..probes {
                    metrics.on_slot(probe_hint, 1, 0, false);
                }
                let attempt_hint = Some(PhaseHint {
                    phase: ProtocolPhase::Attempt,
                    epoch_start,
                });
                metrics.on_slot(attempt_hint, 1, 2, false);
                for &source in sources {
                    metrics.on_collision_seen(source as usize);
                }
            }
            metrics.on_search_skip(cycles * (probes + 1));
        }
        let run = ChannelSpan::Cycles {
            from,
            cycles,
            probes,
            slot,
        };
        self.catch_up_live(&run);
        self.now = from + span * cycles;
        self.slot_ordinal += cycles * (probes + 1);
    }

    /// Processes the fault transitions due at the current slot ordinal:
    /// restarts first (a station whose down time ends this slot is up for
    /// it), then newly scheduled crashes.
    ///
    /// A crash changes only the crashed replica. Every replica's shared
    /// state is a pure function of the epoch coordinates and the channel
    /// observations (§4), and a crash is not an observation: the other
    /// replicas see the crashed station fall silent on the channel like any
    /// station with an empty queue. So a crash wakes only the crashing
    /// stations, plus a replacement when it takes down the witness (see
    /// [`Engine::wake_for_transition`]); every other parked replica stays
    /// parked and adopts the witness's shared state when it wakes.
    fn process_fault_transitions(&mut self) {
        let ordinal = self.slot_ordinal;
        let crashes: Vec<(u32, u64)> = self.faults.crashes_at(ordinal).collect();
        if self.parked_count > 0 && !crashes.is_empty() {
            let named: Vec<usize> = crashes
                .iter()
                .map(|&(station, _)| station as usize)
                .filter(|&idx| idx < self.stations.len())
                .collect();
            self.wake_for_transition(&named);
        }
        // The walk over `down` also rebuilds the restart fence from the
        // stations that stay down.
        let mut next_restart: Option<u64> = None;
        for idx in 0..self.hot.down.len() {
            if let Some(restart) = self.hot.down[idx] {
                if restart <= ordinal {
                    self.stations[idx].restart(self.now);
                    self.stats.restarts += 1;
                    self.hot.down[idx] = None;
                    self.backlog_stale = true;
                } else if restart != ABSENT {
                    next_restart = Some(next_restart.map_or(restart, |r| r.min(restart)));
                }
            }
        }
        for (station, down_slots) in crashes {
            let idx = station as usize;
            if idx >= self.stations.len() || self.hot.down[idx].is_some() {
                continue;
            }
            let lost = self.stations[idx].crash(self.now);
            for msg in lost {
                self.stats.push_lost(msg);
            }
            self.stats.crashes += 1;
            // Saturating, and below the never-due ABSENT sentinel: a down
            // time that outlasts the ordinal space keeps the station down.
            let restart = ordinal.saturating_add(down_slots.max(1)).min(ABSENT - 1);
            self.hot.down[idx] = Some(restart);
            next_restart = Some(next_restart.map_or(restart, |r| r.min(restart)));
            self.backlog_stale = true;
        }
        self.hot.next_restart = next_restart;
    }

    /// Processes the membership changes due at the current slot ordinal:
    /// joins first (a station admitted this slot is up — receive-only,
    /// resynchronizing — for it), then leaves, mirroring the
    /// restarts-before-crashes order of the fault transitions.
    ///
    /// Like a crash, a join or leave changes only the station it names.
    /// No replica is told of it: a joining station resynchronizes from the
    /// channel the way a restarted one does, and a leaving one falls
    /// silent, so the shared state of every other replica — a function of
    /// the epoch coordinates and the channel observations alone (§4) — is
    /// untouched. The transition wakes only the named stations, plus a
    /// replacement when a leave takes down the witness (see
    /// [`Engine::wake_for_transition`]).
    fn process_membership_transitions(&mut self) {
        let ordinal = self.slot_ordinal;
        let changes: Vec<MembershipChange> = self
            .membership
            .events_at(ordinal)
            .iter()
            .map(|e| e.change)
            .collect();
        if self.parked_count > 0 && !changes.is_empty() {
            let named: Vec<usize> = changes
                .iter()
                .map(|change| change.station() as usize)
                .collect();
            self.wake_for_transition(&named);
        }
        for change in &changes {
            if let MembershipChange::Join { station } = *change {
                let idx = station as usize;
                if self.hot.down[idx].is_none() {
                    // Already on the fabric: a duplicate join is a no-op.
                    continue;
                }
                self.hot.down[idx] = None;
                // The join handshake reuses the crash-restart resync
                // primitive: the station comes up receive-only and stays
                // off the channel until an epoch anchor stamped after this
                // instant proves the shared state — its reserved,
                // provably-silent contention window.
                self.stations[idx].restart(self.now);
                self.stats.joins += 1;
                if let Some(metrics) = self.metrics.as_mut() {
                    metrics.on_membership(true);
                }
                self.emit(TraceEvent::Joined {
                    at: self.now,
                    station,
                });
                self.backlog_stale = true;
            }
        }
        for change in &changes {
            if let MembershipChange::Leave { station } = *change {
                let idx = station as usize;
                if self.hot.down[idx] == Some(ABSENT) {
                    // Already off the fabric: a duplicate leave is a no-op.
                    continue;
                }
                if self.hot.down[idx].is_none() {
                    // A live station's queue dies with its network module;
                    // a crashed one already lost it at the crash.
                    let lost = self.stations[idx].crash(self.now);
                    for msg in lost {
                        self.stats.push_lost(msg);
                    }
                }
                self.hot.down[idx] = Some(ABSENT);
                self.stats.leaves += 1;
                if let Some(metrics) = self.metrics.as_mut() {
                    metrics.on_membership(false);
                }
                self.emit(TraceEvent::Left {
                    at: self.now,
                    station,
                });
                self.backlog_stale = true;
            }
        }
    }

    /// Executes one decision slot (the reference stepper).
    fn step(&mut self) {
        if !self.membership.is_empty() {
            self.process_membership_transitions();
        }
        if !self.faults.is_empty() {
            self.process_fault_transitions();
        }
        self.deliver_due();
        let active = std::mem::take(&mut self.active);
        // Poll every live active station, gathering this slot's frames into
        // the reusable scratch buffer (put back once the slot resolves).
        let mut transmitters = std::mem::take(&mut self.transmitters);
        transmitters.clear();
        for &idx in &active {
            if self.hot.down[idx].is_some() {
                continue;
            }
            self.polls += 1;
            if let Action::Transmit(frame) = self.stations[idx].poll(self.now) {
                transmitters.push(frame);
            }
        }
        let slot = Ticks(self.medium.slot_ticks);
        // Attribute the slot before observations mutate the shared
        // automaton (poll never changes phase state; observe does).
        let hint = if self.metrics.is_some() {
            // `active` was moved out of `self` above: pass the slice.
            self.current_phase_hint(&active)
        } else {
            None
        };
        let (observation, advance) = self.medium.resolve(&transmitters);
        self.transmitters = transmitters;
        let (observation, advance, slot_faults) = if self.faults.is_empty() {
            (observation, advance, SlotFaults::default())
        } else {
            self.faults
                .apply(self.slot_ordinal, slot, observation, advance)
        };
        let next_free = self.now + advance;
        self.account(&observation, next_free, &slot_faults);
        if self.metrics.is_some() {
            self.observe_metrics(hint, &observation, &slot_faults);
        }
        for &idx in &active {
            if self.hot.down[idx].is_some() {
                continue;
            }
            self.stations[idx].observe(self.now, next_free, &observation);
        }
        self.active = active;
        self.now = next_free;
        self.slot_ordinal += 1;
    }

    /// The slot attribution from the first live station in `indices` (the
    /// active set) that offers one. Replicas agree on the shared
    /// automaton, so any synced answer is the network's answer, and the
    /// witness [`Engine::park_dormant`] keeps active guarantees the active
    /// set holds one whenever any live station would.
    fn current_phase_hint(&self, indices: &[usize]) -> Option<PhaseHint> {
        indices
            .iter()
            .filter(|&&idx| self.hot.down[idx].is_none())
            .find_map(|&idx| self.stations[idx].phase_hint())
    }

    /// Feeds one resolved slot into the metrics: phase/ξ accounting plus
    /// the per-station counters derivable from this slot's transmitters.
    fn observe_metrics(
        &mut self,
        hint: Option<PhaseHint>,
        observation: &Observation,
        slot_faults: &SlotFaults,
    ) {
        let Some(metrics) = self.metrics.as_mut() else {
            return;
        };
        // Overhead/resolved per the paper's ξ accounting: silence and
        // collisions are overhead slots; a success resolves one active
        // leaf; a collision proves at least two.
        let (overhead, resolved) = match observation {
            Observation::Silence => (1, 0),
            Observation::Busy(_) => (0, 1),
            Observation::Collision { .. } => (1, 2),
            Observation::Garbled => (1, 1),
        };
        let faulted = slot_faults.corrupted || slot_faults.erased.is_some();
        metrics.on_slot(hint, overhead, resolved, faulted);
        match observation {
            Observation::Silence => {}
            Observation::Busy(frame) => {
                metrics.on_transmit(frame.message.source.0 as usize);
            }
            Observation::Collision { survivor } => {
                for frame in &self.transmitters {
                    metrics.on_collision_seen(frame.message.source.0 as usize);
                }
                if let Some(frame) = survivor {
                    metrics.on_transmit(frame.message.source.0 as usize);
                }
            }
            Observation::Garbled => {
                if let Some(frame) = &slot_faults.erased {
                    metrics.on_garbled(frame.message.source.0 as usize);
                }
            }
        }
    }

    /// Records one channel event in the in-memory trace and the JSONL sink.
    fn emit(&mut self, event: TraceEvent) {
        self.trace.record(event);
        if let Some(sink) = self.sink.as_mut() {
            sink.record(&event);
        }
    }

    /// Updates stats and trace for one resolved slot.
    fn account(&mut self, observation: &Observation, next_free: Ticks, slot_faults: &SlotFaults) {
        if slot_faults.corrupted {
            self.stats.corrupted_slots += 1;
        }
        if !matches!(observation, Observation::Silence) {
            // Busy/collision slots may dequeue (or, for CSMA-CD's attempt
            // cap, drop) frames inside `observe`; re-sum lazily.
            self.backlog_stale = true;
        }
        match observation {
            Observation::Silence => {
                self.stats.silence_slots += 1;
                self.emit(TraceEvent::Silence { at: self.now });
            }
            Observation::Busy(frame) => {
                self.stats.busy_ticks += frame.duration();
                self.emit(TraceEvent::TxStart {
                    at: self.now,
                    message: frame.message.id,
                });
                self.emit(TraceEvent::TxEnd {
                    at: next_free,
                    message: frame.message.id,
                });
                self.stats.push_delivery(Delivery {
                    message: frame.message,
                    completed_at: next_free,
                });
            }
            Observation::Collision { survivor } => {
                self.stats.collisions += 1;
                self.emit(TraceEvent::Collision {
                    at: self.now,
                    survivor: survivor.map(|f| f.message.id),
                });
                if let Some(frame) = survivor {
                    self.stats.busy_ticks += frame.duration();
                    self.emit(TraceEvent::TxEnd {
                        at: next_free,
                        message: frame.message.id,
                    });
                    self.stats.push_delivery(Delivery {
                        message: frame.message,
                        completed_at: next_free,
                    });
                }
            }
            Observation::Garbled => {
                // The channel was held but nothing got through: dead time,
                // neither useful work nor a counted collision.
                self.stats.erased_frames += 1;
                // `FaultPlan::apply` produces `Garbled` exactly when it
                // erases a frame, so `erased` carries the victim here; the
                // destructured form keeps that invariant panic-free (a
                // frameless garble would merely go untraced).
                if let Some(frame) = slot_faults.erased {
                    self.emit(TraceEvent::Garbled {
                        at: self.now,
                        message: frame.message.id,
                    });
                }
            }
        }
    }

    /// Hands every arrival with `T ≤ now` to its station. Arrivals for a
    /// crashed station are recorded lost: its network module is dead.
    fn deliver_due(&mut self) {
        self.ensure_pending_sorted();
        // `Message` is `Copy`, so peeking by value and popping afterwards
        // needs no re-check of the emptiness the peek already proved.
        while let Some(&msg) = self.pending.last() {
            if msg.arrival > self.now {
                break;
            }
            self.pending.pop();
            let idx = msg.source.0 as usize;
            if self.hot.down[idx].is_some() {
                self.stats.push_lost(msg);
            } else {
                if self.hot.parked[idx] {
                    // Hand the station the shared state it slept through,
                    // before the delivery, and reinstate it in the poll
                    // loop.
                    self.wake_station(idx);
                }
                self.stations[idx].deliver(msg);
                if let Some(metrics) = self.metrics.as_mut() {
                    metrics.note_queue_depth(idx, self.stations[idx].backlog());
                }
            }
            self.backlog_stale = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::CollisionMode;
    use crate::message::{ClassId, MessageId, SourceId};
    use crate::station::test_support::GreedyStation;

    fn msg(id: u64, source: u32, arrival: u64) -> Message {
        Message {
            id: MessageId(id),
            source: SourceId(source),
            class: ClassId(0),
            bits: 1000,
            arrival: Ticks(arrival),
            deadline: Ticks(1_000_000),
        }
    }

    fn engine_with_stations(n: usize) -> Engine {
        let mut e = Engine::new(MediumConfig::ethernet()).unwrap();
        for _ in 0..n {
            e.add_station(Box::new(GreedyStation::new(
                MediumConfig::ethernet().overhead_bits,
            )));
        }
        e
    }

    #[test]
    fn silent_channel_advances_by_slots() {
        let mut e = engine_with_stations(2);
        e.run_until(Ticks(5120));
        assert_eq!(e.stats().silence_slots, 10);
        assert_eq!(e.now(), Ticks(5120));
    }

    #[test]
    fn single_transmitter_succeeds() {
        let mut e = engine_with_stations(2);
        e.add_arrivals([msg(0, 0, 0)]).unwrap();
        e.run_to_completion(Ticks(100_000)).unwrap();
        assert_eq!(e.stats().deliveries.len(), 1);
        assert_eq!(e.stats().collisions, 0);
        let d = e.stats().deliveries[0];
        assert_eq!(d.completed_at, Ticks(1208)); // 1000 + 26*8 overhead bits
    }

    #[test]
    fn two_greedy_stations_collide_forever() {
        let mut e = engine_with_stations(2);
        e.add_arrivals([msg(0, 0, 0), msg(1, 1, 0)]).unwrap();
        let err = e.run_to_completion(Ticks(51_200)).unwrap_err();
        assert!(matches!(err, SimError::Timeout { .. }));
        assert!(e.stats().collisions >= 99); // every slot is a collision
        assert!(e.stats().deliveries.is_empty());
    }

    #[test]
    fn arbitrating_medium_lets_lowest_source_win() {
        let mut cfg = MediumConfig::ethernet();
        cfg.collision_mode = CollisionMode::Arbitrating;
        let mut e = Engine::new(cfg).unwrap();
        for _ in 0..2 {
            e.add_station(Box::new(GreedyStation::new(cfg.overhead_bits)));
        }
        e.add_arrivals([msg(0, 0, 0), msg(1, 1, 0)]).unwrap();
        e.run_to_completion(Ticks(100_000)).unwrap();
        assert_eq!(e.stats().deliveries.len(), 2);
        // Source 0 wins the arbitration; both eventually deliver.
        assert_eq!(e.stats().deliveries[0].message.source, SourceId(0));
        assert_eq!(e.stats().deliveries[1].message.source, SourceId(1));
        assert_eq!(e.stats().collisions, 1);
    }

    #[test]
    fn rejects_unknown_source() {
        let mut e = engine_with_stations(1);
        let err = e.add_arrivals([msg(0, 5, 0)]).unwrap_err();
        assert_eq!(
            err,
            SimError::UnknownSource {
                source: 5,
                stations: 1
            }
        );
    }

    #[test]
    fn arrivals_delivered_in_time_order() {
        let mut e = engine_with_stations(1);
        e.add_arrivals([msg(1, 0, 2000), msg(0, 0, 0)]).unwrap();
        e.run_to_completion(Ticks(100_000)).unwrap();
        let ids: Vec<u64> = e
            .stats()
            .deliveries
            .iter()
            .map(|d| d.message.id.0)
            .collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn trace_records_channel_history() {
        let mut e = engine_with_stations(1);
        e.set_trace(Trace::enabled());
        e.add_arrivals([msg(0, 0, 512)]).unwrap();
        e.run_to_completion(Ticks(100_000)).unwrap();
        let events = e.trace().events();
        assert!(matches!(events[0], TraceEvent::Silence { .. }));
        assert!(matches!(events[1], TraceEvent::TxStart { .. }));
        assert!(matches!(events[2], TraceEvent::TxEnd { .. }));
    }

    #[test]
    fn stats_total_time_set_on_completion() {
        let mut e = engine_with_stations(1);
        e.add_arrivals([msg(0, 0, 0)]).unwrap();
        e.run_to_completion(Ticks(100_000)).unwrap();
        assert_eq!(e.stats().total_ticks, e.now());
        let stats = e.into_stats();
        assert!(stats.total_ticks > Ticks::ZERO);
    }

    /// A greedy transmitter that additionally implements the fast-forward
    /// contract: idle (and provably silent) whenever its queue is empty.
    struct SleepyStation {
        inner: GreedyStation,
        skipped_slots: std::sync::Arc<std::sync::atomic::AtomicU64>,
    }

    impl SleepyStation {
        fn new() -> Self {
            SleepyStation {
                inner: GreedyStation::new(MediumConfig::ethernet().overhead_bits),
                skipped_slots: std::sync::Arc::default(),
            }
        }
    }

    impl Station for SleepyStation {
        fn deliver(&mut self, message: Message) {
            self.inner.deliver(message);
        }
        fn poll(&mut self, now: Ticks) -> Action {
            self.inner.poll(now)
        }
        fn observe(&mut self, now: Ticks, next_free: Ticks, observation: &Observation) {
            self.inner.observe(now, next_free, observation);
        }
        fn backlog(&self) -> usize {
            self.inner.backlog()
        }
        fn next_ready(&self, now: Ticks) -> Option<Ticks> {
            if self.inner.queue.is_empty() {
                None
            } else {
                Some(now)
            }
        }
        fn catch_up(&mut self, span: &ChannelSpan) {
            match span {
                ChannelSpan::Silence { slots, .. } => {
                    self.skipped_slots
                        .fetch_add(*slots, std::sync::atomic::Ordering::Relaxed);
                }
                _ => span.replay(self),
            }
        }
    }

    #[test]
    fn fast_forward_jumps_idle_run_with_exact_stats() {
        let mut e = Engine::new(MediumConfig::ethernet()).unwrap();
        e.add_station(Box::new(SleepyStation::new()));
        e.set_trace(Trace::enabled());
        e.run_until(Ticks(512 * 100));
        assert_eq!(e.now(), Ticks(512 * 100));
        assert_eq!(e.stats().silence_slots, 100);
        assert_eq!(e.trace().events().len(), 100);
        for (i, ev) in e.trace().events().iter().enumerate() {
            assert_eq!(
                *ev,
                TraceEvent::Silence {
                    at: Ticks(512 * i as u64)
                }
            );
        }
    }

    #[test]
    fn fast_forward_lands_on_slot_covering_unaligned_deadline() {
        // The naive stepper exits run_until once `now >= deadline`, i.e. on
        // the first slot boundary at or past it; the jump must match.
        let mut e = Engine::new(MediumConfig::ethernet()).unwrap();
        e.add_station(Box::new(SleepyStation::new()));
        e.run_until(Ticks(5000));
        assert_eq!(e.now(), Ticks(5120));
        assert_eq!(e.stats().silence_slots, 10);
    }

    #[test]
    fn fast_forward_wakes_for_future_arrival() {
        let mut e = Engine::new(MediumConfig::ethernet()).unwrap();
        e.add_station(Box::new(SleepyStation::new()));
        // Arrival mid-slot: slots [0, 9728) are silent, delivery happens at
        // the slot starting 9728 (the first boundary past 9700).
        e.add_arrivals([msg(0, 0, 9700)]).unwrap();
        e.run_to_completion(Ticks(1_000_000)).unwrap();
        assert_eq!(e.stats().silence_slots, 19);
        assert_eq!(e.stats().deliveries.len(), 1);
        assert_eq!(e.stats().deliveries[0].completed_at, Ticks(9728 + 1208));
    }

    #[test]
    fn fast_forward_matches_reference_stepper() {
        let build = |fast: bool| {
            let mut e = Engine::new(MediumConfig::ethernet()).unwrap();
            e.set_fast_forward(fast);
            e.set_trace(Trace::enabled());
            for _ in 0..3 {
                e.add_station(Box::new(SleepyStation::new()));
            }
            // Staggered so the greedy (never backing off) stations do not
            // collide forever; collision equivalence is covered by the
            // protocol-level proptest suite.
            e.add_arrivals([msg(0, 0, 300), msg(1, 1, 40_000), msg(2, 2, 80_000)])
                .unwrap();
            e.run_to_completion(Ticks(10_000_000)).unwrap();
            e
        };
        let fast = build(true);
        let reference = build(false);
        assert_eq!(fast.now(), reference.now());
        assert_eq!(fast.stats(), reference.stats());
        assert_eq!(fast.trace().events(), reference.trace().events());
        // The fast engine really did skip: its stations saw bulk silence.
        assert!(fast.stats().silence_slots > 0);
    }

    #[test]
    fn catch_up_called_instead_of_per_slot_observe() {
        let mut e = Engine::new(MediumConfig::ethernet()).unwrap();
        let station = SleepyStation::new();
        let skipped = station.skipped_slots.clone();
        e.add_station(Box::new(station));
        e.run_until(Ticks(512 * 64));
        assert_eq!(skipped.load(std::sync::atomic::Ordering::Relaxed), 64);
    }

    /// Builds a two-station [`LoggingStation`] engine on the default
    /// (destructive) medium with the given tier switches. The tests load
    /// station 0 with a backlog it drains back to back — a busy run —
    /// while station 1 stays quiet.
    fn holding_pair(fast: bool, contention: bool, active_set: bool) -> Engine {
        let mut e = Engine::new(MediumConfig::ethernet()).unwrap();
        e.set_fast_forward(fast);
        e.set_contention_fast_forward(contention);
        e.set_active_set(active_set);
        e.set_trace(Trace::enabled());
        e.add_station(Box::new(LoggingStation::new()));
        e.add_station(Box::new(LoggingStation::new()));
        e
    }

    #[test]
    fn busy_run_matches_reference_stepper_bitwise() {
        // A five-frame drain at station 0 while station 1 stays quiet,
        // then a later lone frame from station 1: every tier combination
        // must produce identical stats, trace, and timing.
        let run = |fast: bool, contention: bool, active_set: bool| {
            let mut e = holding_pair(fast, contention, active_set);
            e.add_arrivals((0..5).map(|i| msg(i, 0, 0))).unwrap();
            e.add_arrivals([msg(9, 1, 40_000)]).unwrap();
            e.run_to_completion(Ticks(1_000_000)).unwrap();
            e
        };
        let reference = run(false, false, false);
        for fast in [false, true] {
            for contention in [false, true] {
                for active_set in [false, true] {
                    if !(fast || contention || active_set) {
                        continue;
                    }
                    let e = run(fast, contention, active_set);
                    let tag =
                        format!("fast={fast} contention={contention} active_set={active_set}");
                    assert_eq!(e.now(), reference.now(), "{tag}");
                    assert_eq!(e.stats(), reference.stats(), "{tag}");
                    assert_eq!(e.trace().events(), reference.trace().events(), "{tag}");
                }
            }
        }
    }

    /// Regression for the slot-path panic sweep: the Garbled accounting arm
    /// used to `expect` the erased frame out of the slot faults; drive an
    /// erasure through a real transmission and pin both sides of the
    /// restructured invariant — the frame is counted *and* traced.
    #[test]
    fn erasure_fault_accounts_and_traces_without_panicking() {
        use crate::fault::{FaultEvent, FaultKind};
        let mut e = Engine::new(MediumConfig::ethernet()).unwrap();
        e.set_trace(Trace::enabled());
        e.add_station(Box::new(GreedyStation::new(208)));
        e.set_fault_plan(FaultPlan::from_events(vec![FaultEvent {
            slot: 0,
            kind: FaultKind::EraseFrame,
        }]));
        e.add_arrivals([msg(0, 0, 0)]).unwrap();
        e.run_to_completion(Ticks(1_000_000)).unwrap();
        assert_eq!(e.stats().erased_frames, 1);
        assert!(
            e.trace()
                .events()
                .iter()
                .any(|ev| matches!(ev, TraceEvent::Garbled { .. })),
            "erased frame must still be traced"
        );
        // The retry after the erasure delivers the message.
        assert_eq!(e.stats().deliveries.len(), 1);
    }

    /// Regression for the slot-path panic sweep: `deliver_due` used to pop
    /// with a checked-non-empty `expect`; hammer it with a same-tick burst
    /// split across a live and a crashed station.
    #[test]
    fn same_tick_arrival_burst_delivers_and_loses_without_panicking() {
        use crate::fault::{FaultEvent, FaultKind};
        let mut e = Engine::new(MediumConfig::ethernet()).unwrap();
        e.add_station(Box::new(GreedyStation::new(208)));
        e.add_station(Box::new(GreedyStation::new(208)));
        // Station 1 is down from slot 0 for a long stretch: all its
        // arrivals inside that window are recorded lost.
        e.set_fault_plan(FaultPlan::from_events(vec![FaultEvent {
            slot: 0,
            kind: FaultKind::Crash {
                station: 1,
                down_slots: 1_000,
            },
        }]));
        let burst: Vec<Message> = (0..16).map(|i| msg(i, (i % 2) as u32, 0)).collect();
        e.add_arrivals(burst).unwrap();
        e.run_until(Ticks(40_000));
        assert_eq!(
            e.stats().lost_total,
            8,
            "crashed station's arrivals are lost"
        );
        assert!(!e.stats().deliveries.is_empty());
    }

    #[test]
    fn busy_run_metrics_are_fully_attributed() {
        // The slots of a drain keep exact per-slot metrics attribution with
        // every tier on.
        let run = |optimized: bool| {
            let mut e = holding_pair(optimized, optimized, optimized);
            e.enable_metrics();
            e.add_arrivals((0..5).map(|i| msg(i, 0, 0))).unwrap();
            e.run_to_completion(Ticks(1_000_000)).unwrap();
            e.take_metrics().unwrap()
        };
        let fast = run(true);
        let reference = run(false);
        assert_eq!(fast.phase_slots, reference.phase_slots);
        assert_eq!(fast.violations_total, reference.violations_total);
    }

    /// A greedy transmitter whose observations are mirrored into a shared
    /// log, so tests can compare what a quiet station heard across
    /// steppers.
    struct LoggingStation {
        inner: GreedyStation,
        log: std::sync::Arc<std::sync::Mutex<Vec<(Ticks, Ticks, Observation)>>>,
    }

    impl LoggingStation {
        fn new() -> Self {
            LoggingStation {
                inner: GreedyStation::new(MediumConfig::ethernet().overhead_bits),
                log: std::sync::Arc::default(),
            }
        }
    }

    impl Station for LoggingStation {
        fn deliver(&mut self, message: Message) {
            self.inner.deliver(message);
        }
        fn poll(&mut self, now: Ticks) -> Action {
            self.inner.poll(now)
        }
        fn observe(&mut self, now: Ticks, next_free: Ticks, observation: &Observation) {
            self.log
                .lock()
                .unwrap()
                .push((now, next_free, *observation));
            self.inner.observe(now, next_free, observation);
        }
        fn backlog(&self) -> usize {
            self.inner.backlog()
        }
        fn next_ready(&self, now: Ticks) -> Option<Ticks> {
            if self.inner.queue.is_empty() {
                None
            } else {
                Some(now)
            }
        }
    }

    /// Builds a three-station [`LoggingStation`] engine on an arbitrating
    /// medium (collisions resolve to the lowest source, so greedy
    /// contenders make progress) with the given fast-forward switches.
    /// Returns the engine plus station 2's observation log — the tests
    /// keep station 2 quiet.
    #[allow(clippy::type_complexity)]
    fn searching_trio(
        fast: bool,
        contention: bool,
    ) -> (
        Engine,
        std::sync::Arc<std::sync::Mutex<Vec<(Ticks, Ticks, Observation)>>>,
    ) {
        let mut cfg = MediumConfig::ethernet();
        cfg.collision_mode = CollisionMode::Arbitrating;
        let mut e = Engine::new(cfg).unwrap();
        e.set_fast_forward(fast);
        e.set_contention_fast_forward(contention);
        e.set_trace(Trace::enabled());
        let quiet = LoggingStation::new();
        let log = quiet.log.clone();
        e.add_station(Box::new(LoggingStation::new()));
        e.add_station(Box::new(LoggingStation::new()));
        e.add_station(Box::new(quiet));
        (e, log)
    }

    #[test]
    fn search_run_matches_reference_stepper_bitwise() {
        // Stations 0 and 1 contend (two arbitrated collisions, then a lone
        // success) while station 2 stays quiet: every switch combination
        // must produce identical stats, trace, timing, and quiet-station
        // observations.
        let run = |fast: bool, contention: bool| {
            let (mut e, log) = searching_trio(fast, contention);
            e.add_arrivals([msg(0, 0, 0), msg(1, 0, 0), msg(10, 1, 0)])
                .unwrap();
            e.run_to_completion(Ticks(1_000_000)).unwrap();
            (e, log)
        };
        let (reference, ref_log) = run(false, false);
        assert_eq!(reference.stats().collisions, 2);
        for fast in [false, true] {
            for contention in [false, true] {
                if !(fast || contention) {
                    continue;
                }
                let (e, log) = run(fast, contention);
                let tag = format!("fast={fast} contention={contention}");
                assert_eq!(e.now(), reference.now(), "{tag}");
                assert_eq!(e.stats(), reference.stats(), "{tag}");
                assert_eq!(e.trace().events(), reference.trace().events(), "{tag}");
                assert_eq!(*log.lock().unwrap(), *ref_log.lock().unwrap(), "{tag}");
            }
        }
    }

    #[test]
    fn search_run_stops_for_an_arrival_landing_mid_drain() {
        // Station 2's arrival lands while frame 2 of station 0's drain is
        // on the wire: it must be delivered at the next decision slot,
        // exactly where the reference stepper delivers it.
        let run = |contention: bool| {
            let (mut e, _) = searching_trio(true, contention);
            e.add_arrivals((0..3).map(|i| msg(i, 0, 0))).unwrap();
            e.add_arrivals([msg(7, 2, 1_500)]).unwrap();
            e.run_to_completion(Ticks(1_000_000)).unwrap();
            e
        };
        let fast = run(true);
        let reference = run(false);
        assert_eq!(fast.stats(), reference.stats());
        assert_eq!(fast.trace().events(), reference.trace().events());
        assert_eq!(fast.stats().deliveries.len(), 4);
    }

    #[test]
    fn search_run_refuses_to_cross_a_scheduled_fault() {
        use crate::fault::{FaultEvent, FaultKind};
        // An erasure strikes slot 2, mid-contention: the slot must go
        // through the reference stepper.
        let run = |contention: bool| {
            let (mut e, _) = searching_trio(true, contention);
            e.set_fault_plan(FaultPlan::from_events(vec![FaultEvent {
                slot: 2,
                kind: FaultKind::EraseFrame,
            }]));
            e.add_arrivals([msg(0, 0, 0), msg(1, 0, 0), msg(10, 1, 0)])
                .unwrap();
            e.run_to_completion(Ticks(1_000_000)).unwrap();
            e
        };
        let fast = run(true);
        let reference = run(false);
        assert_eq!(fast.stats(), reference.stats());
        assert_eq!(fast.trace().events(), reference.trace().events());
        assert_eq!(fast.stats().erased_frames, 1);
        assert_eq!(fast.stats().deliveries.len(), 3);
    }

    #[test]
    fn search_run_metrics_are_fully_attributed() {
        // Contended slots keep exact per-slot metrics attribution with
        // contention fast-forward on.
        let run = |contention: bool| {
            let (mut e, _) = searching_trio(true, contention);
            e.enable_metrics();
            e.add_arrivals([msg(0, 0, 0), msg(1, 0, 0), msg(10, 1, 0)])
                .unwrap();
            e.run_to_completion(Ticks(1_000_000)).unwrap();
            e.take_metrics().unwrap()
        };
        let fast = run(true);
        let reference = run(false);
        assert_eq!(fast.phase_slots, reference.phase_slots);
        assert_eq!(fast.stations(), reference.stations());
        assert_eq!(fast.violations_total, reference.violations_total);
    }

    #[test]
    fn out_of_order_batches_still_deliver_in_time_order() {
        let mut e = engine_with_stations(1);
        e.add_arrivals([msg(2, 0, 4000)]).unwrap();
        e.add_arrivals([msg(1, 0, 2000), msg(0, 0, 0)]).unwrap();
        e.run_to_completion(Ticks(100_000)).unwrap();
        let ids: Vec<u64> = e
            .stats()
            .deliveries
            .iter()
            .map(|d| d.message.id.0)
            .collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn corrupt_slot_turns_success_into_collision() {
        use crate::fault::{FaultEvent, FaultKind};
        let mut e = engine_with_stations(1);
        e.set_trace(Trace::enabled());
        // Slot 0 is corrupted; the lone transmitter retries at slot 1.
        e.set_fault_plan(FaultPlan::from_events(vec![FaultEvent {
            slot: 0,
            kind: FaultKind::CorruptSlot,
        }]));
        e.add_arrivals([msg(0, 0, 0)]).unwrap();
        e.run_to_completion(Ticks(100_000)).unwrap();
        assert_eq!(e.stats().corrupted_slots, 1);
        assert_eq!(e.stats().collisions, 1);
        assert_eq!(e.stats().deliveries.len(), 1);
        // Retry starts at 512 (one slot burned), completes 512 + 1208.
        assert_eq!(e.stats().deliveries[0].completed_at, Ticks(512 + 1208));
        assert_eq!(e.trace().render_timeline(), "X#");
    }

    #[test]
    fn erased_frame_holds_channel_but_delivers_nothing() {
        use crate::fault::{FaultEvent, FaultKind};
        let mut e = engine_with_stations(1);
        e.set_trace(Trace::enabled());
        e.set_fault_plan(FaultPlan::from_events(vec![FaultEvent {
            slot: 0,
            kind: FaultKind::EraseFrame,
        }]));
        e.add_arrivals([msg(0, 0, 0)]).unwrap();
        e.run_to_completion(Ticks(100_000)).unwrap();
        assert_eq!(e.stats().erased_frames, 1);
        assert_eq!(e.stats().deliveries.len(), 1);
        // The erased attempt held the channel for the full frame (1208
        // ticks); the retry completes at 1208 + 1208.
        assert_eq!(e.stats().deliveries[0].completed_at, Ticks(2 * 1208));
        assert_eq!(e.trace().render_timeline(), "?#");
    }

    #[test]
    fn crashed_station_is_fenced_and_its_arrivals_are_lost() {
        use crate::fault::{FaultEvent, FaultKind};
        let mut e = engine_with_stations(2);
        // Station 0 crashes at slot 0 for 5 slots; its queued arrival and
        // the one arriving while it is down are both lost. Station 1 is
        // unaffected.
        e.set_fault_plan(FaultPlan::from_events(vec![FaultEvent {
            slot: 0,
            kind: FaultKind::Crash {
                station: 0,
                down_slots: 5,
            },
        }]));
        // msg 0 and 1 arrive while station 0 is down (lost); msg 3 arrives
        // well after its restart and goes through.
        e.add_arrivals([
            msg(0, 0, 0),
            msg(1, 0, 600),
            msg(2, 1, 0),
            msg(3, 0, 50_000),
        ])
        .unwrap();
        e.run_to_completion(Ticks(1_000_000)).unwrap();
        assert_eq!(e.stats().crashes, 1);
        assert_eq!(e.stats().restarts, 1);
        assert_eq!(e.stats().lost.len(), 2);
        assert_eq!(
            e.stats().lost.iter().map(|m| m.id.0).collect::<Vec<_>>(),
            vec![0, 1]
        );
        assert_eq!(e.stats().deliveries.len(), 2);
        assert_eq!(e.stats().deliveries[0].message.source, SourceId(1));
        assert_eq!(e.stats().deliveries[1].message.id, MessageId(3));
        assert!(!e.is_down(0), "restart processed");
    }

    #[test]
    fn down_time_past_the_clock_keeps_the_station_down() {
        use crate::fault::{FaultEvent, FaultKind};
        // A crash at ordinal 3 for u64::MAX slots: the restart ordinal
        // saturates below the ABSENT sentinel instead of wrapping to 2,
        // so the station neither restarts nor reads as absent.
        let mut e = engine_with_stations(2);
        e.set_fault_plan(FaultPlan::from_events(vec![FaultEvent {
            slot: 3,
            kind: FaultKind::Crash {
                station: 0,
                down_slots: u64::MAX,
            },
        }]));
        e.add_arrivals([msg(0, 1, 0), msg(1, 1, 40 * 512)]).unwrap();
        e.run_to_completion(Ticks(1_000_000)).unwrap();
        assert_eq!(e.stats().crashes, 1);
        assert_eq!(e.stats().restarts, 0);
        assert!(e.is_down(0) && !e.is_absent(0));
        assert_eq!(e.stats().deliveries.len(), 2);
    }

    #[test]
    fn leave_while_crashed_cancels_the_pending_restart() {
        use crate::fault::{FaultEvent, FaultKind};
        use crate::membership::MembershipEvent;
        // Station 0 crashes at slot 0 with its restart due at slot 40, then
        // leaves at slot 10 while still down. The leave must clear the
        // restart fence as well (its debug_assert compares it with a scan
        // of every station), and no restart is ever processed.
        let mut e = engine_with_stations(2);
        e.set_fault_plan(FaultPlan::from_events(vec![FaultEvent {
            slot: 0,
            kind: FaultKind::Crash {
                station: 0,
                down_slots: 40,
            },
        }]));
        e.set_membership_plan(MembershipPlan::from_events(
            Vec::new(),
            vec![MembershipEvent {
                slot: 10,
                change: MembershipChange::Leave { station: 0 },
            }],
        ))
        .unwrap();
        e.add_arrivals([msg(0, 1, 0), msg(1, 1, 60 * 512)]).unwrap();
        e.run_to_completion(Ticks(1_000_000)).unwrap();
        assert_eq!(e.stats().crashes, 1);
        assert_eq!(e.stats().leaves, 1);
        assert_eq!(e.stats().restarts, 0);
        assert!(e.is_absent(0));
        assert_eq!(e.stats().deliveries.len(), 2);
    }

    #[test]
    fn fast_forward_refuses_to_skip_a_scheduled_fault() {
        use crate::fault::{FaultEvent, FaultKind};
        // An idle network with a corrupt fault scheduled mid-run: the slot
        // must be stepped, observed as a collision by the (idle) station,
        // and accounted — fast-forwarded or not.
        let build = |fast: bool| {
            let mut e = Engine::new(MediumConfig::ethernet()).unwrap();
            e.set_fast_forward(fast);
            e.set_trace(Trace::enabled());
            e.add_station(Box::new(SleepyStation::new()));
            e.set_fault_plan(FaultPlan::from_events(vec![FaultEvent {
                slot: 13,
                kind: FaultKind::CorruptSlot,
            }]));
            e.run_until(Ticks(512 * 40));
            e
        };
        let fast = build(true);
        let reference = build(false);
        assert_eq!(fast.stats(), reference.stats());
        assert_eq!(fast.trace().events(), reference.trace().events());
        assert_eq!(fast.stats().corrupted_slots, 1);
        assert_eq!(fast.stats().collisions, 1);
        assert_eq!(fast.stats().silence_slots, 39);
        assert_eq!(fast.trace().events()[13].at(), Ticks(13 * 512));
    }

    #[test]
    fn empty_fault_plan_is_bitwise_invisible() {
        let build = |with_plan: bool| {
            let mut e = engine_with_stations(2);
            e.set_trace(Trace::enabled());
            if with_plan {
                e.set_fault_plan(FaultPlan::none());
            }
            e.add_arrivals([msg(0, 0, 300), msg(1, 1, 40_000)]).unwrap();
            e.run_to_completion(Ticks(10_000_000)).unwrap();
            e
        };
        let with = build(true);
        let without = build(false);
        assert_eq!(with.stats(), without.stats());
        assert_eq!(with.trace().events(), without.trace().events());
        assert_eq!(with.now(), without.now());
    }

    #[test]
    fn invalid_medium_rejected() {
        let cfg = MediumConfig {
            slot_ticks: 0,
            overhead_bits: 0,
            collision_mode: CollisionMode::Destructive,
        };
        assert!(matches!(Engine::new(cfg), Err(SimError::InvalidMedium(_))));
    }
}
