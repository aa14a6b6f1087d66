//! Streaming observability: latency histograms, per-station counters,
//! per-phase slot accounting, and live ξ-bound checks.
//!
//! The paper's analysis (§4) is all about *observable channel overhead*:
//! the number `ξ_k^t` of collision/empty slots a tree search spends before
//! isolating `k` active leaves. This module turns that quantity into a live
//! instrument. Every resolved decision slot is attributed to a protocol
//! phase (time tree search, static tree search, attempt slot, burst,
//! fast-forward skip) using an optional [`PhaseHint`] the stations expose,
//! and the overhead observed inside one tree-search epoch is checked
//! against the analytic bound the moment the epoch closes — a breach is a
//! typed [`MetricsViolation`], surfaced like a checker finding rather than
//! buried in a log.
//!
//! Everything here is O(1) per slot and allocation-free on the hot path, so
//! metrics can stay on for the ROADMAP's "as fast as hardware allows" runs.

use crate::stats::QuantileError;
use crate::time::Ticks;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Number of buckets in [`LatencyHistogram`]: one per power of two of a
/// `u64` tick count, so any latency maps to a bucket with one `leading_zeros`.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A fixed-size log-scale histogram of latencies (or any `u64` quantity).
///
/// Bucket `0` holds exact zeros; bucket `i ≥ 1` holds values in
/// `[2^(i−1), 2^i − 1]` (the last bucket is unbounded above). Recording is
/// one `leading_zeros` plus an increment — constant time, no allocation —
/// so percentile reporting survives runs where retaining every delivery
/// would not. Quantiles are nearest-rank over buckets and return the bucket
/// upper bound, i.e. they over-approximate the exact quantile by less than
/// 2× (one bucket).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LatencyHistogram {
    counts: [u64; HISTOGRAM_BUCKETS],
    total: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: [0; HISTOGRAM_BUCKETS],
            total: 0,
        }
    }
}

impl LatencyHistogram {
    /// The bucket index a value falls into.
    #[inline]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
        }
    }

    /// The largest value bucket `index` covers.
    pub fn bucket_upper_bound(index: usize) -> u64 {
        if index == 0 {
            0
        } else if index >= HISTOGRAM_BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << index) - 1
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&mut self, value: Ticks) {
        self.counts[Self::bucket_index(value.as_u64())] += 1;
        self.total += 1;
    }

    /// Total observations recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Whether anything has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Raw bucket counts, indexed by [`LatencyHistogram::bucket_index`].
    pub fn counts(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.counts
    }

    /// Nearest-rank quantile, rounded up to the containing bucket's upper
    /// bound, with degenerate inputs clamped: `q` outside `[0, 1]` clamps
    /// to the nearest endpoint, NaN is treated as `q = 1.0` (the
    /// conservative upper tail — previously NaN slipped through `clamp`
    /// and the `as u64` cast silently saturated it to rank 1), and an
    /// empty histogram yields 0. Callers fed an untrusted `q` should
    /// prefer [`LatencyHistogram::try_quantile`], which rejects degenerate
    /// inputs with a typed error instead of clamping.
    pub fn quantile(&self, q: f64) -> Ticks {
        let q = if q.is_nan() { 1.0 } else { q.clamp(0.0, 1.0) };
        if self.total == 0 {
            return Ticks::ZERO;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Ticks(Self::bucket_upper_bound(i));
            }
        }
        Ticks(Self::bucket_upper_bound(HISTOGRAM_BUCKETS - 1))
    }

    /// Nearest-rank quantile like [`LatencyHistogram::quantile`], but
    /// rejecting degenerate `q` (NaN or outside `[0, 1]`) with a typed
    /// [`QuantileError`] instead of clamping, for callers fed an
    /// untrusted quantile (CLI flags, sweep configs).
    ///
    /// # Errors
    ///
    /// Returns [`QuantileError`] when `q` is NaN or outside `[0, 1]`.
    pub fn try_quantile(&self, q: f64) -> Result<Ticks, QuantileError> {
        if !(0.0..=1.0).contains(&q) {
            return Err(QuantileError { q });
        }
        Ok(self.quantile(q))
    }

    /// Median, 95th and 99th percentile (bucket upper bounds).
    pub fn percentiles(&self) -> (Ticks, Ticks, Ticks) {
        (
            self.quantile(0.50),
            self.quantile(0.95),
            self.quantile(0.99),
        )
    }
}

/// Which protocol phase a decision slot belongs to, as reported by a
/// station through [`crate::Station::phase_hint`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolPhase {
    /// A time tree search probe slot.
    TimeSearch,
    /// A static tree search probe slot (nested inside a suspended TTs).
    StaticSearch,
    /// The single CSMA-CD attempt slot after an empty time tree search.
    Attempt,
    /// A slot pre-empted by a packet-bursting reservation.
    Burst,
}

/// A station's attribution of the upcoming decision slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseHint {
    /// The phase the shared automaton is in for this slot.
    pub phase: ProtocolPhase,
    /// When the current tree-search epoch began (changes exactly when a new
    /// TTs starts, so it doubles as an epoch identifier).
    pub epoch_start: Ticks,
}

/// Which tree search a ξ observation or violation refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchKind {
    /// The time tree (deadline classes).
    Time,
    /// The static tree (source indices).
    Static,
}

impl fmt::Display for SearchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchKind::Time => write!(f, "time tree"),
            SearchKind::Static => write!(f, "static tree"),
        }
    }
}

/// Per-search allowance for observed overhead slots, derived from the
/// analytic `ξ_k^t` table of `ddcr-tree`.
///
/// `ξ_k^t` is **not** monotone in `k` (it peaks below `t` and decreases
/// toward `ξ_t^t`), while the live check can only over-estimate the number
/// of resolved leaves `k` (a collision proves *at least* two actives).
/// Checking a possibly-overcounted `k` against a non-monotone table would
/// produce false alarms, so the table stores the running maximum
/// `max_{2 ≤ j ≤ k} ξ_j^t`: monotone in `k`, hence safe to index with an
/// over-estimate. On top of the envelope, `allowed` adds `m − 1` slack
/// slots: the simulator's search automaton pre-splits the root (it starts
/// with the root's `m` children on the stack, spending up to `m` probes
/// where Eq. 1 charges one), mirroring the `bound + branching` tolerance of
/// the search-automaton test suite.
///
/// This type is plain data so that `ddcr-sim` stays independent of
/// `ddcr-tree`; `ddcr_core::network::xi_bound_tables` builds it from a
/// [`DdcrConfig`]'s tree shapes.
///
/// [`DdcrConfig`]: https://docs.rs/ddcr-core
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XiBoundTable {
    branching: u64,
    /// `allowed[k]`: overhead slots permitted for `k` resolved leaves.
    allowed: Vec<u64>,
}

impl XiBoundTable {
    /// Builds the table from a tree's branching degree `m` and its ξ
    /// envelope (`envelope[k] = max_{2 ≤ j ≤ k} ξ_j^t`, zero for `k < 2`,
    /// as produced by `SearchTimeTable::xi_envelope`).
    pub fn from_envelope(branching: u64, envelope: &[u64]) -> Self {
        let allowed = envelope
            .iter()
            .enumerate()
            .map(|(k, &env)| {
                if k < 2 {
                    // Zero or one active leaves: at most the m root-children
                    // probes of the pre-split automaton.
                    branching
                } else {
                    env + branching - 1
                }
            })
            .collect();
        XiBoundTable { branching, allowed }
    }

    /// The tree's branching degree `m`.
    pub fn branching(&self) -> u64 {
        self.branching
    }

    /// Overhead slots allowed for `resolved` leaves; `resolved` beyond the
    /// leaf count clamps to the table maximum (the envelope is monotone, so
    /// clamping an over-estimate stays sound).
    pub fn allowed(&self, resolved: u64) -> u64 {
        let idx = (resolved as usize).min(self.allowed.len().saturating_sub(1));
        self.allowed.get(idx).copied().unwrap_or(u64::MAX)
    }
}

/// A live metrics check that failed; the observability counterpart of a
/// checker finding.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MetricsViolation {
    /// A tree-search window spent more overhead slots than the analytic
    /// `ξ_k^t` envelope (plus automaton slack) permits.
    XiExceeded {
        /// Which tree search breached its bound.
        kind: SearchKind,
        /// Epoch identifier: when the enclosing TTs epoch began.
        epoch_start: Ticks,
        /// Overhead slots (collision + empty) observed in the window.
        observed: u64,
        /// The allowance `allowed(resolved)` that was exceeded.
        bound: u64,
        /// The (over-)estimated number of resolved leaves the bound was
        /// looked up with.
        resolved: u64,
    },
}

impl fmt::Display for MetricsViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricsViolation::XiExceeded {
                kind,
                epoch_start,
                observed,
                bound,
                resolved,
            } => write!(
                f,
                "{kind} search in epoch starting {epoch_start}: observed \
                 ξ = {observed} overhead slots exceeds the analytic allowance \
                 {bound} for {resolved} resolved leaves"
            ),
        }
    }
}

/// Slot counts by protocol phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseSlots {
    /// Time tree search probe slots.
    pub tts: u64,
    /// Static tree search probe slots.
    pub sts: u64,
    /// CSMA-CD attempt slots.
    pub attempt: u64,
    /// Slots pre-empted by a packet-bursting reservation.
    pub burst: u64,
    /// Provably silent slots the engine fast-forwarded over.
    pub skipped: u64,
    /// Slots no synced station attributed (non-DDCR stations, or every
    /// replica crashed/resynchronizing).
    pub unattributed: u64,
}

impl PhaseSlots {
    /// Total slots accounted.
    pub fn total(&self) -> u64 {
        self.tts + self.sts + self.attempt + self.burst + self.skipped + self.unattributed
    }
}

/// Per-station counters, updated incrementally in the slot loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StationMetrics {
    /// Frames this station put on the wire successfully.
    pub transmitted: u64,
    /// Collisions this station was a party to.
    pub collisions_seen: u64,
    /// Frames of this station erased on the wire (CRC loss).
    pub garbled: u64,
    /// Largest local queue depth observed at arrival-delivery time.
    pub queue_high_water: usize,
}

/// An open observation window over one tree search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SearchWindow {
    epoch_start: Ticks,
    /// Overhead slots observed: collisions + empty probe slots.
    overhead: u64,
    /// Lower-bound-safe over-estimate of resolved active leaves.
    resolved: u64,
    /// Whether the window was perturbed by an injected fault or an
    /// unattributed stretch; tainted windows are never checked.
    tainted: bool,
}

impl SearchWindow {
    fn open(epoch_start: Ticks, tainted: bool) -> Self {
        SearchWindow {
            epoch_start,
            overhead: 0,
            resolved: 0,
            tainted,
        }
    }
}

/// Cap on retained [`MetricsViolation`] values; the total is still counted
/// exactly.
const MAX_RETAINED_VIOLATIONS: usize = 32;

/// Streaming run metrics: phase accounting, per-station counters, and live
/// ξ-bound checks.
///
/// Owned by the engine when metrics are enabled; one [`SimMetrics::on_slot`]
/// per resolved decision slot, one [`SimMetrics::on_skip`] per fast-forward
/// jump.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SimMetrics {
    /// Slot counts by protocol phase.
    pub phase_slots: PhaseSlots,
    stations: Vec<StationMetrics>,
    time_bounds: Option<XiBoundTable>,
    static_bounds: Option<XiBoundTable>,
    /// Open TTs epoch window (overhead accumulates across nested STs).
    epoch: Option<SearchWindow>,
    /// Open STs window (one per contiguous static-search run).
    sts: Option<SearchWindow>,
    /// TTs epochs whose observed ξ was actually checked against the bound.
    pub epochs_checked: u64,
    /// STs windows whose observed ξ was actually checked against the bound.
    pub sts_checked: u64,
    /// Worst observed per-epoch TTs overhead (tainted windows included).
    pub max_tts_overhead: u64,
    /// Worst observed per-window STs overhead (tainted windows included).
    pub max_sts_overhead: u64,
    violations: Vec<MetricsViolation>,
    /// Exact violation count (the retained list is capped).
    pub violations_total: u64,
    /// Always 0: the engine has no busy-period tier. The field remains
    /// only so that readers built against the earlier API — the
    /// end-to-end benchmark in `benchmark/` — compile unchanged, and goes
    /// with the next change to that benchmark.
    #[doc(hidden)]
    pub busy_skipped_slots: u64,
    /// Decision slots resolved inside analytic attempt-cycle runs (the
    /// contention fast-forward). Unlike [`PhaseSlots::skipped`], every one
    /// of these slots is *fully* attributed through
    /// [`SimMetrics::on_slot`], so this is pure fast-path telemetry, not
    /// an accounting bucket.
    pub search_skipped_slots: u64,
    /// Number of analytic attempt-cycle runs.
    pub search_skip_runs: u64,
    /// Membership accounting: stations that (re-)joined the fabric.
    pub joins: u64,
    /// Membership accounting: stations that left the fabric.
    pub leaves: u64,
}

impl SimMetrics {
    /// Fresh metrics for `stations` attached stations.
    pub fn new(stations: usize) -> Self {
        SimMetrics {
            stations: vec![StationMetrics::default(); stations],
            ..SimMetrics::default()
        }
    }

    /// Installs the analytic ξ allowances to check observed overhead
    /// against. Without them phase accounting still runs, but no violations
    /// can be raised.
    pub fn set_xi_bounds(&mut self, time: XiBoundTable, static_: XiBoundTable) {
        self.time_bounds = Some(time);
        self.static_bounds = Some(static_);
    }

    /// Per-station counters, indexed by attachment order.
    pub fn stations(&self) -> &[StationMetrics] {
        &self.stations
    }

    /// The retained violations (capped at 32; see
    /// [`SimMetrics::violations_total`] for the exact count).
    pub fn violations(&self) -> &[MetricsViolation] {
        &self.violations
    }

    fn station_entry(&mut self, index: usize) -> &mut StationMetrics {
        if index >= self.stations.len() {
            self.stations
                .resize_with(index + 1, StationMetrics::default);
        }
        &mut self.stations[index]
    }

    /// A station transmitted successfully.
    #[inline]
    pub fn on_transmit(&mut self, station: usize) {
        self.station_entry(station).transmitted += 1;
    }

    /// A station was party to a collision.
    #[inline]
    pub fn on_collision_seen(&mut self, station: usize) {
        self.station_entry(station).collisions_seen += 1;
    }

    /// A station's frame was erased on the wire.
    #[inline]
    pub fn on_garbled(&mut self, station: usize) {
        self.station_entry(station).garbled += 1;
    }

    /// Records a station's queue depth (called after each arrival hand-off).
    #[inline]
    pub fn note_queue_depth(&mut self, station: usize, depth: usize) {
        let entry = self.station_entry(station);
        if depth > entry.queue_high_water {
            entry.queue_high_water = depth;
        }
    }

    fn raise(&mut self, violation: MetricsViolation) {
        self.violations_total += 1;
        if self.violations.len() < MAX_RETAINED_VIOLATIONS {
            self.violations.push(violation);
        }
    }

    /// Closes the open STs window, checking it unless tainted.
    fn close_sts(&mut self, check: bool) {
        if let Some(w) = self.sts.take() {
            if w.overhead > self.max_sts_overhead {
                self.max_sts_overhead = w.overhead;
            }
            if !check || w.tainted {
                return;
            }
            if let Some(bounds) = &self.static_bounds {
                let bound = bounds.allowed(w.resolved);
                self.sts_checked += 1;
                if w.overhead > bound {
                    self.raise(MetricsViolation::XiExceeded {
                        kind: SearchKind::Static,
                        epoch_start: w.epoch_start,
                        observed: w.overhead,
                        bound,
                        resolved: w.resolved,
                    });
                }
            }
        }
    }

    /// Closes the open TTs epoch window, checking it unless tainted.
    fn close_epoch(&mut self, check: bool) {
        if let Some(w) = self.epoch.take() {
            if w.overhead > self.max_tts_overhead {
                self.max_tts_overhead = w.overhead;
            }
            if !check || w.tainted {
                return;
            }
            if let Some(bounds) = &self.time_bounds {
                let bound = bounds.allowed(w.resolved);
                self.epochs_checked += 1;
                if w.overhead > bound {
                    self.raise(MetricsViolation::XiExceeded {
                        kind: SearchKind::Time,
                        epoch_start: w.epoch_start,
                        observed: w.overhead,
                        bound,
                        resolved: w.resolved,
                    });
                }
            }
        }
    }

    fn taint_open_windows(&mut self) {
        if let Some(w) = self.epoch.as_mut() {
            w.tainted = true;
        }
        if let Some(w) = self.sts.as_mut() {
            w.tainted = true;
        }
    }

    /// Accounts one resolved decision slot.
    ///
    /// `overhead`/`resolved` describe the channel outcome: an overhead slot
    /// is an empty or collided probe (the quantity `ξ` counts); `resolved`
    /// is a safe over-estimate of active leaves accounted for (1 for a
    /// success, 2 for a collision — at least two actives collided). Slots
    /// carrying an injected fault pass `faulted = true`: their outcome is
    /// adversarial, so they taint the open windows instead of feeding the
    /// bound check.
    pub fn on_slot(
        &mut self,
        hint: Option<PhaseHint>,
        overhead: u64,
        resolved: u64,
        faulted: bool,
    ) {
        let Some(hint) = hint else {
            self.phase_slots.unattributed += 1;
            // No synced replica could attribute this slot; anything still
            // open has lost continuity.
            self.taint_open_windows();
            return;
        };
        if faulted {
            self.taint_open_windows();
        }
        match hint.phase {
            ProtocolPhase::TimeSearch => {
                self.phase_slots.tts += 1;
                // A TTs slot proves any nested STs has completed.
                self.close_sts(true);
                let stale = self
                    .epoch
                    .map(|w| w.epoch_start != hint.epoch_start)
                    .unwrap_or(true);
                if stale {
                    self.close_epoch(true);
                    self.epoch = Some(SearchWindow::open(hint.epoch_start, faulted));
                }
                if let Some(w) = self.epoch.as_mut() {
                    w.overhead += overhead;
                    w.resolved += resolved;
                    if faulted {
                        w.tainted = true;
                    }
                }
            }
            ProtocolPhase::StaticSearch => {
                self.phase_slots.sts += 1;
                if self.sts.is_none() {
                    self.sts = Some(SearchWindow::open(hint.epoch_start, faulted));
                }
                if let Some(w) = self.sts.as_mut() {
                    w.overhead += overhead;
                    w.resolved += resolved;
                    if faulted {
                        w.tainted = true;
                    }
                }
                // STs slots also burden the suspended TTs epoch: the paper's
                // ξ accounting charges the nested search to the enclosing
                // epoch's channel time, but the epoch-level bound only
                // covers TTs probes, so the epoch window merely stays open.
            }
            ProtocolPhase::Attempt => {
                self.phase_slots.attempt += 1;
                // The attempt slot follows an empty TTs: both windows close.
                self.close_sts(true);
                self.close_epoch(true);
            }
            ProtocolPhase::Burst => {
                // Channel control is reserved; no search is probing. Windows
                // stay open and unburdened.
                self.phase_slots.burst += 1;
            }
        }
    }

    /// Accounts a fast-forwarded run of provably silent slots.
    ///
    /// Skips do **not** taint open windows: the skipped slots are provably
    /// silent, so at worst they are uncounted *empty* probe slots of an
    /// in-progress search — the observed overhead under-counts and the
    /// bound check stays conservative (it can miss a breach inside a skip,
    /// never report a spurious one). Epochs fully consumed inside a skip
    /// are simply never opened; the window keying on `epoch_start` keeps
    /// pre- and post-skip epochs from mixing.
    pub fn on_skip(&mut self, slots: u64) {
        self.phase_slots.skipped += slots;
    }

    /// Notes an analytic attempt-cycle run of `slots` resolved decision
    /// slots.
    ///
    /// In contrast to silence skips ([`SimMetrics::on_skip`]), every slot
    /// of the run has already been attributed through
    /// [`SimMetrics::on_slot`] with the [`PhaseHint`]s the reference
    /// stepper's synced replicas would give. Observed-ξ windows are
    /// therefore *exact* across these runs, not merely conservative. This
    /// method only updates the fast-path telemetry counters.
    pub fn on_search_skip(&mut self, slots: u64) {
        self.search_skipped_slots += slots;
        self.search_skip_runs += 1;
    }

    /// Records a membership transition (`join = true` for a join, `false`
    /// for a leave).
    ///
    /// The active-set change perturbs any search in flight exactly the way
    /// an injected fault does — the analytic ξ allowance was computed for
    /// the *old* membership — so open observation windows are tainted and
    /// never checked, the same conservative treatment faulted slots get.
    pub fn on_membership(&mut self, join: bool) {
        if join {
            self.joins += 1;
        } else {
            self.leaves += 1;
        }
        self.taint_open_windows();
    }

    /// Closes any windows still open (a run cutoff mid-search); they are
    /// recorded in the overhead maxima but never checked.
    pub fn finish(&mut self) {
        self.close_sts(false);
        self.close_epoch(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_partition_the_u64_range() {
        assert_eq!(LatencyHistogram::bucket_index(0), 0);
        assert_eq!(LatencyHistogram::bucket_index(1), 1);
        assert_eq!(LatencyHistogram::bucket_index(2), 2);
        assert_eq!(LatencyHistogram::bucket_index(3), 2);
        assert_eq!(LatencyHistogram::bucket_index(4), 3);
        assert_eq!(LatencyHistogram::bucket_index(u64::MAX), 63);
        // Every bucket's upper bound maps back into that bucket.
        for i in 0..HISTOGRAM_BUCKETS {
            assert_eq!(
                LatencyHistogram::bucket_index(LatencyHistogram::bucket_upper_bound(i)),
                i,
                "bucket {i}"
            );
        }
    }

    #[test]
    fn histogram_quantiles_bound_exact_values() {
        let mut h = LatencyHistogram::default();
        let values = [0u64, 1, 5, 90, 140, 150, 1000, 5000];
        for &v in &values {
            h.record(Ticks(v));
        }
        assert_eq!(h.total(), values.len() as u64);
        let mut sorted = values;
        sorted.sort_unstable();
        for q in [0.0, 0.25, 0.5, 0.95, 0.99, 1.0] {
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let approx = h.quantile(q).as_u64();
            assert!(approx >= exact, "q={q}: {approx} < exact {exact}");
            assert_eq!(
                LatencyHistogram::bucket_index(approx),
                LatencyHistogram::bucket_index(exact),
                "q={q}: approx {approx} left exact {exact}'s bucket"
            );
        }
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LatencyHistogram::default();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), Ticks::ZERO);
        assert_eq!(h.percentiles(), (Ticks::ZERO, Ticks::ZERO, Ticks::ZERO));
    }

    /// Pins the documented clamp at every degenerate corner: q ∈
    /// {0.0, 1.0, NaN, out-of-range} × total ∈ {0, 1}. NaN must act as
    /// the conservative upper tail, never silently saturate to rank 1.
    #[test]
    fn quantile_degenerate_inputs_are_clamped_deterministically() {
        let empty = LatencyHistogram::default();
        for q in [0.0, 1.0, f64::NAN, -3.5, 7.0] {
            assert_eq!(empty.quantile(q), Ticks::ZERO, "empty, q={q}");
        }

        let mut one = LatencyHistogram::default();
        one.record(Ticks(100)); // bucket 7, upper bound 127
        let expected = Ticks(LatencyHistogram::bucket_upper_bound(
            LatencyHistogram::bucket_index(100),
        ));
        for q in [0.0, 1.0, f64::NAN, -3.5, 7.0] {
            assert_eq!(one.quantile(q), expected, "total=1, q={q}");
        }

        // With a populated histogram the clamp direction is observable:
        // q ≤ 0 pins the lowest bucket, q ≥ 1 and NaN pin the highest.
        let mut two = LatencyHistogram::default();
        two.record(Ticks(0));
        two.record(Ticks(1_000_000));
        let low = two.quantile(0.0);
        let high = two.quantile(1.0);
        assert!(low < high);
        assert_eq!(two.quantile(-1.0), low);
        assert_eq!(two.quantile(2.0), high);
        assert_eq!(two.quantile(f64::NAN), high, "NaN must clamp to the tail");
    }

    #[test]
    fn try_quantile_rejects_degenerate_q_with_typed_error() {
        let mut h = LatencyHistogram::default();
        h.record(Ticks(5));
        for bad in [f64::NAN, -0.1, 1.5, f64::INFINITY, f64::NEG_INFINITY] {
            let err = h.try_quantile(bad).unwrap_err();
            assert!(
                err.to_string().contains("quantile must be in [0, 1]"),
                "unexpected error text: {err}"
            );
        }
        assert_eq!(h.try_quantile(0.0), Ok(h.quantile(0.0)));
        assert_eq!(h.try_quantile(1.0), Ok(h.quantile(1.0)));
        // The empty histogram still accepts in-range q.
        assert_eq!(
            LatencyHistogram::default().try_quantile(0.5),
            Ok(Ticks::ZERO)
        );
    }

    fn tts(epoch: u64) -> Option<PhaseHint> {
        Some(PhaseHint {
            phase: ProtocolPhase::TimeSearch,
            epoch_start: Ticks(epoch),
        })
    }

    fn sts(epoch: u64) -> Option<PhaseHint> {
        Some(PhaseHint {
            phase: ProtocolPhase::StaticSearch,
            epoch_start: Ticks(epoch),
        })
    }

    /// An envelope allowing 3 overhead slots at k=2 on a binary tree:
    /// `allowed(k<2) = 2`, `allowed(2) = 3 + 2 − 1 = 4`.
    fn tiny_bounds() -> XiBoundTable {
        XiBoundTable::from_envelope(2, &[0, 0, 3, 3, 3])
    }

    #[test]
    fn epoch_within_bound_raises_nothing() {
        let mut m = SimMetrics::new(1);
        m.set_xi_bounds(tiny_bounds(), tiny_bounds());
        // Epoch 0: two collisions, two successes → overhead 2 ≤ allowed(6).
        m.on_slot(tts(0), 1, 2, false);
        m.on_slot(tts(0), 1, 2, false);
        m.on_slot(tts(0), 0, 1, false);
        m.on_slot(tts(0), 0, 1, false);
        // Epoch boundary closes and checks epoch 0.
        m.on_slot(tts(100), 1, 0, false);
        assert_eq!(m.epochs_checked, 1);
        assert_eq!(m.violations_total, 0);
        assert_eq!(m.max_tts_overhead, 2);
        assert_eq!(m.phase_slots.tts, 5);
    }

    #[test]
    fn epoch_over_bound_raises_violation() {
        let mut m = SimMetrics::new(1);
        m.set_xi_bounds(tiny_bounds(), tiny_bounds());
        // 6 overhead slots, resolved estimate 2 → allowed(2) = 4 < 6.
        m.on_slot(tts(0), 1, 2, false);
        for _ in 0..5 {
            m.on_slot(tts(0), 1, 0, false);
        }
        m.on_slot(tts(100), 1, 0, false);
        assert_eq!(m.violations_total, 1);
        match &m.violations()[0] {
            MetricsViolation::XiExceeded {
                kind,
                epoch_start,
                observed,
                bound,
                resolved,
            } => {
                assert_eq!(*kind, SearchKind::Time);
                assert_eq!(*epoch_start, Ticks(0));
                assert_eq!(*observed, 6);
                assert_eq!(*bound, 4);
                assert_eq!(*resolved, 2);
            }
        }
    }

    #[test]
    fn skips_leave_epochs_checkable() {
        let mut m = SimMetrics::new(1);
        m.set_xi_bounds(tiny_bounds(), tiny_bounds());
        // A clean epoch interrupted by a skip (provably silent slots) still
        // closes and checks: skipped slots can only under-count overhead.
        m.on_slot(tts(0), 1, 2, false);
        m.on_skip(10);
        m.on_slot(tts(0), 1, 0, false);
        m.on_slot(tts(100), 1, 0, false);
        assert_eq!(m.epochs_checked, 1);
        assert_eq!(m.violations_total, 0);
        assert_eq!(m.phase_slots.skipped, 10);
        // An over-bound epoch is still caught after a skip elsewhere.
        for _ in 0..6 {
            m.on_slot(tts(100), 1, 0, false);
        }
        m.on_slot(tts(200), 0, 1, false);
        assert_eq!(m.epochs_checked, 2);
        assert_eq!(m.violations_total, 1);
    }

    #[test]
    fn sts_window_closes_on_return_to_tts() {
        let mut m = SimMetrics::new(2);
        m.set_xi_bounds(tiny_bounds(), tiny_bounds());
        m.on_slot(tts(0), 1, 2, false);
        // Nested STs: 2 overhead slots, resolves 2 leaves → within allowed.
        m.on_slot(sts(0), 1, 2, false);
        m.on_slot(sts(0), 0, 1, false);
        m.on_slot(sts(0), 0, 1, false);
        // Back in the TTs: the STs window closes and checks.
        m.on_slot(tts(0), 0, 1, false);
        assert_eq!(m.sts_checked, 1);
        assert_eq!(m.violations_total, 0);
        assert_eq!(m.phase_slots.sts, 3);
        assert_eq!(m.max_sts_overhead, 1);
        // The epoch window survived the nested search.
        m.on_slot(tts(50), 1, 0, false);
        assert_eq!(m.epochs_checked, 1);
    }

    #[test]
    fn unattributed_slots_taint_but_count() {
        let mut m = SimMetrics::new(1);
        m.set_xi_bounds(tiny_bounds(), tiny_bounds());
        for _ in 0..6 {
            m.on_slot(tts(0), 1, 0, false);
        }
        m.on_slot(None, 1, 0, false);
        m.on_slot(tts(100), 1, 0, false);
        m.finish();
        assert_eq!(m.phase_slots.unattributed, 1);
        assert_eq!(m.violations_total, 0, "tainted epoch must not be checked");
    }

    #[test]
    fn faulted_slot_taints_the_window() {
        let mut m = SimMetrics::new(1);
        m.set_xi_bounds(tiny_bounds(), tiny_bounds());
        // An injected corruption mid-epoch would otherwise breach the bound.
        for _ in 0..3 {
            m.on_slot(tts(0), 1, 0, false);
        }
        m.on_slot(tts(0), 1, 0, true);
        for _ in 0..3 {
            m.on_slot(tts(0), 1, 0, false);
        }
        m.on_slot(tts(100), 1, 0, false);
        assert_eq!(m.violations_total, 0);
        assert_eq!(m.epochs_checked, 0);
    }

    #[test]
    fn membership_transitions_taint_the_open_window() {
        let mut m = SimMetrics::new(2);
        m.set_xi_bounds(tiny_bounds(), tiny_bounds());
        // An over-bound epoch perturbed by a leave must NOT be checked: the
        // ξ allowance was computed for the pre-leave membership.
        for _ in 0..6 {
            m.on_slot(tts(0), 1, 0, false);
        }
        m.on_membership(false);
        m.on_slot(tts(100), 1, 0, false);
        assert_eq!(m.leaves, 1);
        assert_eq!(m.violations_total, 0);
        assert_eq!(m.epochs_checked, 0);
        // The join taints the epoch open at transition time too…
        m.on_membership(true);
        m.on_slot(tts(200), 0, 1, false);
        assert_eq!(m.joins, 1);
        assert_eq!(m.epochs_checked, 0);
        // …but the first epoch opened entirely after it checks normally.
        m.on_slot(tts(300), 0, 1, false);
        assert_eq!(m.epochs_checked, 1);
        assert_eq!(m.violations_total, 0);
    }

    #[test]
    fn burst_slots_are_neutral() {
        let mut m = SimMetrics::new(1);
        m.set_xi_bounds(tiny_bounds(), tiny_bounds());
        m.on_slot(tts(0), 1, 2, false);
        m.on_slot(
            Some(PhaseHint {
                phase: ProtocolPhase::Burst,
                epoch_start: Ticks(0),
            }),
            0,
            1,
            false,
        );
        m.on_slot(tts(0), 0, 1, false);
        m.on_slot(tts(100), 1, 0, false);
        assert_eq!(m.phase_slots.burst, 1);
        assert_eq!(m.epochs_checked, 1);
        assert_eq!(m.violations_total, 0);
        assert_eq!(m.max_tts_overhead, 1, "burst slot added no overhead");
    }

    #[test]
    fn attempt_slot_closes_the_epoch() {
        let mut m = SimMetrics::new(1);
        m.set_xi_bounds(tiny_bounds(), tiny_bounds());
        m.on_slot(tts(0), 1, 0, false);
        m.on_slot(
            Some(PhaseHint {
                phase: ProtocolPhase::Attempt,
                epoch_start: Ticks(0),
            }),
            0,
            1,
            false,
        );
        assert_eq!(m.epochs_checked, 1);
        assert_eq!(m.phase_slots.attempt, 1);
    }

    #[test]
    fn violation_retention_is_capped_but_counted() {
        let mut m = SimMetrics::new(1);
        m.set_xi_bounds(tiny_bounds(), tiny_bounds());
        for epoch in 0..100u64 {
            for _ in 0..6 {
                m.on_slot(tts(epoch * 10), 1, 0, false);
            }
            m.on_slot(tts((epoch + 1) * 10), 1, 0, false);
        }
        m.finish();
        // Every one of the 100 epochs closes over-bound (each accumulates
        // its 6 probe slots plus the closing slot charged by the epoch that
        // follows it).
        assert_eq!(m.violations_total, 100);
        assert_eq!(m.violations().len(), MAX_RETAINED_VIOLATIONS);
    }

    #[test]
    fn station_counters_resize_on_demand() {
        let mut m = SimMetrics::new(1);
        m.on_transmit(0);
        m.on_collision_seen(2);
        m.on_garbled(1);
        m.note_queue_depth(0, 5);
        m.note_queue_depth(0, 3);
        assert_eq!(m.stations().len(), 3);
        assert_eq!(m.stations()[0].transmitted, 1);
        assert_eq!(m.stations()[0].queue_high_water, 5);
        assert_eq!(m.stations()[1].garbled, 1);
        assert_eq!(m.stations()[2].collisions_seen, 1);
    }

    #[test]
    fn bound_table_clamps_overestimates() {
        let b = tiny_bounds();
        assert_eq!(b.allowed(0), 2);
        assert_eq!(b.allowed(1), 2);
        assert_eq!(b.allowed(2), 4);
        assert_eq!(b.allowed(4), 4);
        // Beyond the table: clamp to the envelope maximum.
        assert_eq!(b.allowed(1000), 4);
    }
}
