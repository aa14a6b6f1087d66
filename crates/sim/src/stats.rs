//! Channel-level statistics and per-run metrics.

use crate::message::{Delivery, Message, SourceId};
use crate::metrics::LatencyHistogram;
use crate::time::Ticks;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Error returned by [`ChannelStats::latency_quantile`] for a quantile
/// outside `[0, 1]` (including NaN).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuantileError {
    /// The offending quantile.
    pub q: f64,
}

impl fmt::Display for QuantileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "quantile must be in [0, 1], got {}", self.q)
    }
}

impl std::error::Error for QuantileError {}

/// Aggregate statistics of one simulation run.
///
/// Utilization and overhead follow the paper's accounting: successful
/// transmission time is useful work; collision slots and silence slots are
/// overhead (the quantity `ξ` bounds); the channel is otherwise idle.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelStats {
    /// Slots in which no station transmitted.
    pub silence_slots: u64,
    /// Collision events (each costs one slot under destructive collisions).
    pub collisions: u64,
    /// Ticks spent on successful frame transmission (including the
    /// surviving frame of an arbitrated collision).
    pub busy_ticks: Ticks,
    /// Total simulated time.
    pub total_ticks: Ticks,
    /// Retained completed transmissions, in completion order. With the
    /// default retention policy (`delivery_retention: None`) this is every
    /// delivery; under a cap only the first `cap` are kept, while the
    /// counters and the histogram stay exact. Feed this through
    /// [`ChannelStats::push_delivery`], never `push` directly.
    pub deliveries: Vec<Delivery>,
    /// Exact number of completed transmissions (retention-independent).
    pub delivered: u64,
    /// Exact number of deliveries that missed their hard deadline.
    pub missed_deadlines: u64,
    /// Sum of all delivery latencies, for exact mean latency.
    pub latency_ticks_total: u64,
    /// Worst delivery latency observed.
    pub worst_latency: Ticks,
    /// Worst lateness beyond a deadline observed (zero when all met).
    pub worst_lateness: Ticks,
    /// Log-scale histogram of every delivery latency, for constant-memory
    /// percentile reporting (see [`LatencyHistogram`]).
    pub latency_histogram: LatencyHistogram,
    /// `Some(cap)` keeps only the first `cap` deliveries in
    /// [`ChannelStats::deliveries`]; `None` (default) retains all.
    pub delivery_retention: Option<usize>,
    /// Injected-fault accounting: slots forced to read as collisions.
    pub corrupted_slots: u64,
    /// Injected-fault accounting: frames erased on the wire (CRC loss).
    pub erased_frames: u64,
    /// Injected-fault accounting: station crashes processed.
    pub crashes: u64,
    /// Injected-fault accounting: station restarts processed.
    pub restarts: u64,
    /// Membership accounting: stations that (re-)joined the fabric.
    pub joins: u64,
    /// Membership accounting: stations that left the fabric.
    pub leaves: u64,
    /// Retained messages lost to crashes: queue contents dropped at crash
    /// time plus arrivals addressed to a station while it was down. Subject
    /// to [`ChannelStats::lost_retention`]; [`ChannelStats::lost_total`] is
    /// always exact. Feed through [`ChannelStats::push_lost`].
    pub lost: Vec<Message>,
    /// Exact number of messages lost to crashes (retention-independent).
    pub lost_total: u64,
    /// `Some(cap)` keeps only the first `cap` lost messages in
    /// [`ChannelStats::lost`]; `None` (default) retains all.
    pub lost_retention: Option<usize>,
}

impl ChannelStats {
    /// Channel utilization: fraction of time spent on successful
    /// transmissions.
    pub fn utilization(&self) -> f64 {
        if self.total_ticks == Ticks::ZERO {
            0.0
        } else {
            self.busy_ticks.as_u64() as f64 / self.total_ticks.as_u64() as f64
        }
    }

    /// Records a completed transmission: updates the exact counters and the
    /// latency histogram, and retains the delivery itself subject to
    /// [`ChannelStats::delivery_retention`].
    pub fn push_delivery(&mut self, delivery: Delivery) {
        self.delivered += 1;
        let latency = delivery.latency();
        self.latency_ticks_total += latency.as_u64();
        if latency > self.worst_latency {
            self.worst_latency = latency;
        }
        let lateness = delivery.lateness();
        if lateness > self.worst_lateness {
            self.worst_lateness = lateness;
        }
        if !delivery.deadline_met() {
            self.missed_deadlines += 1;
        }
        self.latency_histogram.record(latency);
        match self.delivery_retention {
            Some(cap) if self.deliveries.len() >= cap => {}
            _ => self.deliveries.push(delivery),
        }
    }

    /// Records a message lost to a crash: exact count always, the message
    /// itself subject to [`ChannelStats::lost_retention`].
    pub fn push_lost(&mut self, message: Message) {
        self.lost_total += 1;
        match self.lost_retention {
            Some(cap) if self.lost.len() >= cap => {}
            _ => self.lost.push(message),
        }
    }

    /// Number of deliveries that missed their hard deadline (exact,
    /// retention-independent).
    pub fn deadline_misses(&self) -> usize {
        self.missed_deadlines as usize
    }

    /// Deadline miss ratio over all deliveries (0 when nothing delivered).
    pub fn miss_ratio(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.missed_deadlines as f64 / self.delivered as f64
        }
    }

    /// Worst observed transmission latency (exact, retention-independent).
    pub fn max_latency(&self) -> Ticks {
        self.worst_latency
    }

    /// Worst observed lateness beyond a deadline (zero when all met).
    pub fn max_lateness(&self) -> Ticks {
        self.worst_lateness
    }

    /// Mean transmission latency (0 when nothing delivered; exact,
    /// retention-independent).
    pub fn mean_latency(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.latency_ticks_total as f64 / self.delivered as f64
        }
    }

    /// Deliveries originating from one source.
    pub fn deliveries_from(&self, source: SourceId) -> impl Iterator<Item = &Delivery> {
        self.deliveries
            .iter()
            .filter(move |d| d.message.source == source)
    }

    /// Worst latency among messages of one source (0 when none).
    pub fn max_latency_from(&self, source: SourceId) -> Ticks {
        self.deliveries_from(source)
            .map(Delivery::latency)
            .max()
            .unwrap_or(Ticks::ZERO)
    }

    /// Latency at quantile `q ∈ [0, 1]` (nearest-rank; 0 when nothing
    /// delivered).
    ///
    /// # Errors
    ///
    /// Returns [`QuantileError`] if `q` is outside `[0, 1]` (NaN included)
    /// instead of panicking, so callers fed an untrusted quantile (CLI
    /// flags, sweep configs) can report it.
    pub fn latency_quantile(&self, q: f64) -> Result<Ticks, QuantileError> {
        if !(0.0..=1.0).contains(&q) {
            return Err(QuantileError { q });
        }
        if self.deliveries.is_empty() {
            return Ok(Ticks::ZERO);
        }
        let mut latencies: Vec<Ticks> = self.deliveries.iter().map(Delivery::latency).collect();
        latencies.sort_unstable();
        let rank = ((q * latencies.len() as f64).ceil() as usize).clamp(1, latencies.len());
        Ok(latencies[rank - 1])
    }

    /// Median, 95th and 99th percentile latencies over the retained
    /// deliveries, for tail reporting.
    ///
    /// Equivalent to three [`ChannelStats::latency_quantile`] calls, but
    /// collects and sorts the latency vector once and reads all three ranks
    /// from it (the naive form sorted three times over).
    pub fn latency_percentiles(&self) -> (Ticks, Ticks, Ticks) {
        if self.deliveries.is_empty() {
            return (Ticks::ZERO, Ticks::ZERO, Ticks::ZERO);
        }
        let mut latencies: Vec<Ticks> = self.deliveries.iter().map(Delivery::latency).collect();
        latencies.sort_unstable();
        let len = latencies.len();
        let at = |q: f64| {
            let rank = ((q * len as f64).ceil() as usize).clamp(1, len);
            latencies[rank - 1]
        };
        (at(0.50), at(0.95), at(0.99))
    }

    /// Median, 95th and 99th percentile latencies from the always-on
    /// log-scale histogram: exact over **all** deliveries (not just the
    /// retained ones), at bucket granularity — each value is the upper
    /// bound of the bucket containing the exact nearest-rank quantile.
    pub fn histogram_percentiles(&self) -> (Ticks, Ticks, Ticks) {
        self.latency_histogram.percentiles()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{ClassId, Message, MessageId};

    fn delivery(id: u64, source: u32, arrival: u64, deadline: u64, done: u64) -> Delivery {
        Delivery {
            message: Message {
                id: MessageId(id),
                source: SourceId(source),
                class: ClassId(0),
                bits: 100,
                arrival: Ticks(arrival),
                deadline: Ticks(deadline),
            },
            completed_at: Ticks(done),
        }
    }

    fn stats() -> ChannelStats {
        let mut s = ChannelStats {
            silence_slots: 3,
            collisions: 2,
            busy_ticks: Ticks(500),
            total_ticks: Ticks(1000),
            ..ChannelStats::default()
        };
        s.push_delivery(delivery(0, 0, 0, 100, 90)); // met, latency 90
        s.push_delivery(delivery(1, 1, 10, 100, 150)); // missed by 40, latency 140
        s.push_delivery(delivery(2, 0, 50, 500, 200)); // met, latency 150
        s
    }

    #[test]
    fn utilization_is_busy_over_total() {
        assert!((stats().utilization() - 0.5).abs() < 1e-12);
        assert_eq!(ChannelStats::default().utilization(), 0.0);
    }

    #[test]
    fn miss_accounting() {
        let s = stats();
        assert_eq!(s.deadline_misses(), 1);
        assert!((s.miss_ratio() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.max_lateness(), Ticks(40));
    }

    #[test]
    fn latency_accounting() {
        let s = stats();
        assert_eq!(s.max_latency(), Ticks(150));
        assert!((s.mean_latency() - (90.0 + 140.0 + 150.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    fn per_source_filters() {
        let s = stats();
        assert_eq!(s.deliveries_from(SourceId(0)).count(), 2);
        assert_eq!(s.max_latency_from(SourceId(1)), Ticks(140));
        assert_eq!(s.max_latency_from(SourceId(9)), Ticks::ZERO);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let s = stats();
        // Sorted latencies: 90, 140, 150.
        assert_eq!(s.latency_quantile(0.0), Ok(Ticks(90)));
        assert_eq!(s.latency_quantile(0.34), Ok(Ticks(140)));
        assert_eq!(s.latency_quantile(0.5), Ok(Ticks(140)));
        assert_eq!(s.latency_quantile(1.0), Ok(Ticks(150)));
        let (p50, p95, p99) = s.latency_percentiles();
        assert_eq!((p50, p95, p99), (Ticks(140), Ticks(150), Ticks(150)));
    }

    #[test]
    fn quantile_rejects_out_of_range_instead_of_panicking() {
        let s = stats();
        for bad in [-0.1, 1.5, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let err = s.latency_quantile(bad).unwrap_err();
            assert!(
                err.to_string().contains("quantile must be in [0, 1]"),
                "unexpected error text: {err}"
            );
        }
        // Out-of-range on an empty stats object is still an error, not a
        // silent zero.
        assert!(ChannelStats::default().latency_quantile(2.0).is_err());
    }

    #[test]
    fn quantile_edges_and_empty_deliveries() {
        // Empty deliveries: any in-range quantile is zero.
        let empty = ChannelStats::default();
        assert_eq!(empty.latency_quantile(0.0), Ok(Ticks::ZERO));
        assert_eq!(empty.latency_quantile(0.5), Ok(Ticks::ZERO));
        assert_eq!(empty.latency_quantile(1.0), Ok(Ticks::ZERO));
        // Exact boundary values are in range on populated stats too.
        let s = stats();
        assert_eq!(s.latency_quantile(0.0), Ok(Ticks(90)));
        assert_eq!(s.latency_quantile(1.0), Ok(Ticks(150)));
    }

    /// Pins the q ∈ {0.0, 1.0, NaN} × total ∈ {0, 1} matrix: boundary
    /// quantiles are exact at every population, NaN is always a typed
    /// error (never a silently saturated rank).
    #[test]
    fn quantile_boundary_matrix_total_zero_and_one() {
        let empty = ChannelStats::default();
        assert_eq!(empty.latency_quantile(0.0), Ok(Ticks::ZERO));
        assert_eq!(empty.latency_quantile(1.0), Ok(Ticks::ZERO));
        assert!(empty.latency_quantile(f64::NAN).unwrap_err().q.is_nan());

        let mut one = ChannelStats::default();
        one.push_delivery(delivery(0, 0, 0, 100, 42)); // single delivery, latency 42
        assert_eq!(one.latency_quantile(0.0), Ok(Ticks(42)));
        assert_eq!(one.latency_quantile(0.5), Ok(Ticks(42)));
        assert_eq!(one.latency_quantile(1.0), Ok(Ticks(42)));
        let err = one.latency_quantile(f64::NAN).unwrap_err();
        assert!(err.q.is_nan());
        // The always-on histogram mirror agrees at the same corners.
        assert!(one.latency_histogram.try_quantile(f64::NAN).is_err());
        assert_eq!(
            one.latency_histogram.quantile(0.0),
            one.latency_histogram.quantile(1.0),
            "total=1: every clamped quantile reads the one bucket"
        );
    }

    #[test]
    fn empty_stats_are_sane() {
        let s = ChannelStats::default();
        assert_eq!(s.miss_ratio(), 0.0);
        assert_eq!(s.max_latency(), Ticks::ZERO);
        assert_eq!(s.mean_latency(), 0.0);
    }

    #[test]
    fn percentiles_match_individual_quantiles() {
        // The single-sort fast path must agree with three independent
        // latency_quantile calls, across delivery counts that hit every
        // rank-rounding edge (1 element, even, odd, larger sets).
        for n in [1u64, 2, 3, 7, 100, 101] {
            let mut s = ChannelStats::default();
            for i in 0..n {
                // Deliberately non-monotone latencies.
                let latency = (i * 37) % 91 + 1;
                s.push_delivery(delivery(i, 0, 0, 1_000_000, latency));
            }
            let (p50, p95, p99) = s.latency_percentiles();
            assert_eq!(p50, s.latency_quantile(0.50).unwrap(), "n={n}");
            assert_eq!(p95, s.latency_quantile(0.95).unwrap(), "n={n}");
            assert_eq!(p99, s.latency_quantile(0.99).unwrap(), "n={n}");
        }
    }

    #[test]
    fn delivery_retention_caps_the_vec_but_not_the_counters() {
        let mut s = ChannelStats {
            delivery_retention: Some(2),
            ..ChannelStats::default()
        };
        for i in 0..10u64 {
            let met = i % 2 == 0; // half the deliveries miss
            let done = if met { 50 } else { 200 };
            s.push_delivery(delivery(i, 0, 0, 100, done));
        }
        assert_eq!(s.deliveries.len(), 2);
        assert_eq!(s.delivered, 10);
        assert_eq!(s.deadline_misses(), 5);
        assert!((s.miss_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(s.max_latency(), Ticks(200));
        assert_eq!(s.max_lateness(), Ticks(100));
        assert!((s.mean_latency() - 125.0).abs() < 1e-12);
        // Histogram percentiles keep working with the vec capped.
        assert_eq!(s.latency_histogram.total(), 10);
        let (p50, _, p99) = s.histogram_percentiles();
        assert!(p50 >= Ticks(50) && p99 >= Ticks(200));
    }

    #[test]
    fn lost_retention_caps_the_vec_but_not_the_count() {
        let mut s = ChannelStats {
            lost_retention: Some(3),
            ..ChannelStats::default()
        };
        for i in 0..8u64 {
            s.push_lost(delivery(i, 0, 0, 100, 0).message);
        }
        assert_eq!(s.lost.len(), 3);
        assert_eq!(s.lost_total, 8);
        // The first three are the ones retained.
        assert_eq!(
            s.lost.iter().map(|m| m.id.0).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn zero_retention_retains_nothing_but_counts_everything() {
        let mut s = ChannelStats {
            delivery_retention: Some(0),
            lost_retention: Some(0),
            ..ChannelStats::default()
        };
        s.push_delivery(delivery(0, 0, 0, 100, 90));
        s.push_lost(delivery(1, 0, 0, 100, 0).message);
        assert!(s.deliveries.is_empty());
        assert!(s.lost.is_empty());
        assert_eq!(s.delivered, 1);
        assert_eq!(s.lost_total, 1);
        assert_eq!(s.max_latency(), Ticks(90));
    }
}
