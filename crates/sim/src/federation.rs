//! Federated multi-segment simulation: N per-segment engines advancing in
//! epoch-aligned rounds on a shared virtual clock, with inter-segment
//! traffic handed off at epoch boundaries through deterministic bridge
//! queues.
//!
//! The paper analyses one broadcast segment at a time; real deployments
//! chain segments behind bridges. This module composes N independent
//! [`Engine`]s into one federation:
//!
//! * **Shared virtual clock.** Time is cut into epochs of
//!   [`FederationOptions::epoch`] ticks. In round `r` every segment runs
//!   [`Engine::run_until_drained`] up to the boundary
//!   `min((r + 1) · epoch, budget)`; no segment's clock crosses a boundary
//!   before every other segment has reached it (modulo the slot straddling
//!   the boundary, exactly as in the single-bus engine).
//! * **Bridge queues.** A [`BridgeRoute`] names the segment path a message
//!   class traverses and the bridge station that re-injects it on each
//!   subsequent segment. At each boundary the round barrier scans every
//!   segment's new deliveries in completion order; a delivery of a routed
//!   class with hops remaining becomes a fresh arrival on the next
//!   segment, timestamped at the boundary. The scan order — segments
//!   ascending, deliveries in completion order — fixes the handoff ids, so
//!   the whole exchange is deterministic.
//! * **Deadline budgets split across hops.** A routed class's end-to-end
//!   relative deadline `d` is divided evenly over its `path.len()` hops:
//!   the origin copy and every handoff carry `d / hops` (at least one
//!   tick), so per-segment feasibility analysis composes into the
//!   end-to-end bound.
//! * **Ordered executor.** Within a round the segments are independent
//!   simulations; [`crate::exec::map_ordered`] advances them on up to
//!   [`FederationOptions::workers`] threads, inline when that resolves to
//!   one. Because the barrier work (handoff generation, id assignment) is
//!   serial and every segment is itself deterministic, the report is
//!   **bitwise identical for any worker count**, and a federation of one
//!   segment is bitwise identical to the plain single-bus engine.
//!
//! A route-free federation run for one epoch spanning the whole budget is
//! exactly a set of independent engines run to completion — which is how
//! the multichannel runner executes its channels.
//!
//! ```
//! use ddcr_sim::{federation::{run_federation, FederationOptions}, Ticks};
//!
//! # fn main() -> Result<(), ddcr_sim::SimError> {
//! // One segment, no routes: behaves exactly like the single-bus engine.
//! let engine = ddcr_sim::Engine::new(ddcr_sim::MediumConfig::ethernet())?;
//! let options = FederationOptions::new(Ticks(1_000_000), Ticks(10_000_000));
//! let report = run_federation(vec![engine], vec![Vec::new()], &[], &options)?;
//! assert!(report.completed());
//! assert_eq!(report.rounds, 1);
//! # Ok(())
//! # }
//! ```

use crate::engine::{Engine, SimError};
use crate::exec;
use crate::fault::{FaultPlan, FaultRates};
use crate::message::{ClassId, Message, MessageId, SourceId};
use crate::metrics::SimMetrics;
use crate::rng::job_seed;
use crate::stats::ChannelStats;
use crate::time::Ticks;
use crate::trace::{federation_header, write_merged, JsonlSink};
use std::collections::HashMap;
use std::io::{self, Write};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Locks a trace buffer, proceeding with the data even if a panicking
/// segment poisoned it (the executor rethrows that panic anyway).
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Per-segment fault injection for a federated run. Segment `s` derives
/// its plan from `job_seed(master_seed, s)`, so plans are independent
/// across segments yet fully reproducible from one master seed.
#[derive(Debug, Clone)]
pub struct FederationFaultSpec {
    /// Master seed; per-segment seeds derive via [`crate::rng::job_seed`].
    pub master_seed: u64,
    /// Poisson rates for each fault lane.
    pub rates: FaultRates,
    /// Horizon (in slots) over which events are drawn.
    pub horizon_slots: u64,
}

/// Configuration for [`run_federation`].
#[derive(Debug, Clone)]
pub struct FederationOptions {
    /// Epoch length in ticks: the granularity of the shared virtual clock.
    /// Segments synchronise (and bridge traffic is exchanged) at every
    /// multiple of this value. Must be positive.
    pub epoch: Ticks,
    /// Worker threads for the per-round segment fan-out, clamped by
    /// [`crate::exec::workers`]; one runs the segments inline on the
    /// caller's thread. The results are bitwise identical either way.
    pub workers: usize,
    /// Give-up horizon on the shared clock: the run stops at the first
    /// epoch boundary at or beyond this many ticks.
    pub budget: Ticks,
    /// Enable per-segment metrics collection.
    pub metrics: bool,
    /// Capture each segment's JSONL event stream for
    /// [`FederationReport::write_trace`].
    pub trace: bool,
    /// Retention cap for per-segment delivery/lost records (`None` =
    /// unbounded). When bridge routes are present the *delivery* side is
    /// kept unbounded regardless — the round barrier reads the delivery
    /// log to generate handoffs — and the cap applies to lost records
    /// only.
    pub retention: Option<usize>,
    /// Per-segment fault injection (`None` = fault-free).
    pub faults: Option<FederationFaultSpec>,
}

impl FederationOptions {
    /// Defaults: serial (one worker), no metrics, no trace, no faults,
    /// unbounded retention.
    pub fn new(epoch: Ticks, budget: Ticks) -> Self {
        FederationOptions {
            epoch,
            workers: 1,
            budget,
            metrics: false,
            trace: false,
            retention: None,
            faults: None,
        }
    }
}

/// The segment path of one inter-segment message class, plus the bridge
/// station that re-injects it at each hop.
///
/// `path[0]` is the origin segment (where the class's schedule messages
/// arrive); each subsequent `path[k]` is reached through bridge station
/// `entry[k - 1]` on that segment. A route therefore has `path.len()`
/// hops and `path.len() - 1` handoffs, and `entry.len()` must equal
/// `path.len() - 1`.
#[derive(Debug, Clone)]
pub struct BridgeRoute {
    /// The message class this route applies to.
    pub class: ClassId,
    /// Segment indices visited, origin first; all distinct, length ≥ 2.
    pub path: Vec<usize>,
    /// `entry[k]` is the station on segment `path[k + 1]` that enqueues
    /// the handed-off message there.
    pub entry: Vec<SourceId>,
}

/// One segment's completed simulation within a federation.
#[derive(Debug)]
pub struct SegmentOutcome {
    /// Segment index.
    pub segment: usize,
    /// Schedule messages that originated on this segment.
    pub scheduled: usize,
    /// Bridge handoffs injected into this segment.
    pub injected: usize,
    /// Whether the segment drained inside the budget.
    pub completed: bool,
    /// Fault events injected on this segment.
    pub fault_events: usize,
    /// Segment statistics.
    pub stats: ChannelStats,
    /// Per-segment metrics (present when [`FederationOptions::metrics`]).
    pub metrics: Option<SimMetrics>,
    /// Headerless JSONL event lines (present when
    /// [`FederationOptions::trace`]).
    pub trace: Option<Vec<u8>>,
}

/// A completed federated run, outcomes in segment order.
///
/// Everything except `wall` is a pure function of the inputs — bitwise
/// independent of [`FederationOptions::workers`].
#[derive(Debug)]
pub struct FederationReport {
    /// One outcome per segment, segment order.
    pub segments: Vec<SegmentOutcome>,
    /// Epoch rounds executed.
    pub rounds: u64,
    /// Total bridge handoffs exchanged at epoch boundaries.
    pub handoffs: u64,
    /// Worker threads the rounds ran on (see [`crate::exec::workers`]).
    pub workers: usize,
    /// End-to-end wall clock (non-deterministic; excluded from the
    /// determinism contract).
    pub wall: Duration,
}

impl FederationReport {
    /// Schedule messages across all segments (handoffs not counted).
    pub fn scheduled(&self) -> usize {
        self.segments.iter().map(|s| s.scheduled).sum()
    }

    /// Messages delivered across all segments; each hop of a routed
    /// message counts as one delivery on its segment.
    pub fn delivered(&self) -> u64 {
        self.segments.iter().map(|s| s.stats.delivered).sum()
    }

    /// Deadline misses across all segments (per-hop deadlines for routed
    /// classes).
    pub fn deadline_misses(&self) -> u64 {
        self.segments.iter().map(|s| s.stats.missed_deadlines).sum()
    }

    /// Whether every segment drained inside the budget.
    pub fn completed(&self) -> bool {
        self.segments.iter().all(|s| s.completed)
    }

    /// Observed-ξ violations summed over all segments (0 when metrics
    /// were off).
    pub fn xi_violations(&self) -> u64 {
        self.segments
            .iter()
            .filter_map(|s| s.metrics.as_ref())
            .map(|m| m.violations_total)
            .sum()
    }

    /// Writes the merged JSONL trace document.
    ///
    /// One segment: the plain schema-version-1 stream — byte-identical to
    /// the single-bus engine's export. Several segments: a
    /// [`crate::federation_header`] followed by every segment's events in
    /// segment order, each line tagged with its segment index. Either way
    /// the bytes are a pure function of the resolved segment histories,
    /// hence independent of the worker count.
    ///
    /// Returns the number of event lines written.
    ///
    /// # Errors
    ///
    /// Propagates writer I/O errors.
    pub fn write_trace(&self, writer: &mut dyn Write) -> io::Result<u64> {
        let parts: Vec<Option<&[u8]>> = self.segments.iter().map(|s| s.trace.as_deref()).collect();
        write_merged(writer, &federation_header(parts.len()), "segment", &parts)
    }
}

/// A `Write` implementation over a shared byte buffer, letting the
/// federation recover what a consumed [`JsonlSink`] wrote.
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        lock(&self.0).extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// Validates the route table against the federation shape and returns the
/// per-class route lookup.
fn index_routes(
    routes: &[BridgeRoute],
    engines: &[Engine],
) -> Result<HashMap<ClassId, BridgeRoute>, SimError> {
    let n = engines.len();
    let mut by_class: HashMap<ClassId, BridgeRoute> = HashMap::new();
    for route in routes {
        if route.path.len() < 2 {
            return Err(SimError::InvalidFederation(format!(
                "route for class {} needs at least 2 segments, got {}",
                route.class.0,
                route.path.len()
            )));
        }
        if route.entry.len() != route.path.len() - 1 {
            return Err(SimError::InvalidFederation(format!(
                "route for class {}: {} hops need {} bridge entries, got {}",
                route.class.0,
                route.path.len(),
                route.path.len() - 1,
                route.entry.len()
            )));
        }
        for (k, &segment) in route.path.iter().enumerate() {
            if segment >= n {
                return Err(SimError::InvalidFederation(format!(
                    "route for class {} visits segment {segment} but only {n} exist",
                    route.class.0
                )));
            }
            if route.path[..k].contains(&segment) {
                return Err(SimError::InvalidFederation(format!(
                    "route for class {} visits segment {segment} twice",
                    route.class.0
                )));
            }
            if k > 0 {
                let entry = route.entry[k - 1];
                let stations = engines[segment].station_count();
                if entry.0 as usize >= stations {
                    return Err(SimError::InvalidFederation(format!(
                        "route for class {}: bridge station {} not on segment \
                         {segment} ({stations} stations)",
                        route.class.0, entry.0
                    )));
                }
            }
        }
        if by_class.insert(route.class, route.clone()).is_some() {
            return Err(SimError::InvalidFederation(format!(
                "class {} has two bridge routes",
                route.class.0
            )));
        }
    }
    Ok(by_class)
}

/// The per-hop share of a routed class's end-to-end relative deadline:
/// split evenly across the hops, never below one tick.
fn per_hop_deadline(end_to_end: Ticks, hops: usize) -> Ticks {
    Ticks((end_to_end.0 / hops.max(1) as u64).max(1))
}

/// Runs `engines` as a federation of broadcast segments.
///
/// `schedules[s]` is the arrival schedule for segment `s` (same length as
/// `engines`; engines must be freshly built and not yet run). Messages of
/// a class named by a [`BridgeRoute`] must be scheduled on the route's
/// origin segment; their relative deadline is interpreted end-to-end and
/// split evenly across the route's hops. Metrics, trace capture,
/// retention and fault plans are applied here, per segment, exactly as a
/// single-bus run would apply them (fault seeds derive from
/// [`crate::rng::job_seed`]`(master_seed, segment)`).
///
/// The report is bitwise independent of `options.workers`, and a
/// federation of one segment (necessarily route-free: a route needs two
/// distinct segments) produces statistics, metrics and trace bytes
/// identical to the plain single-bus engine run of the same schedule.
///
/// # Errors
///
/// [`SimError::InvalidFederation`] on a shape mismatch (no segments,
/// `schedules.len() != engines.len()`, zero epoch, malformed route);
/// [`SimError::UnknownSource`] if a schedule or handoff routes to a
/// station that does not exist; trace-sink I/O failures surface as
/// [`SimError::InvalidFederation`].
pub fn run_federation(
    mut engines: Vec<Engine>,
    schedules: Vec<Vec<Message>>,
    routes: &[BridgeRoute],
    options: &FederationOptions,
) -> Result<FederationReport, SimError> {
    let started = Instant::now();
    let n = engines.len();
    if n == 0 {
        return Err(SimError::InvalidFederation(
            "a federation needs at least one segment".to_owned(),
        ));
    }
    if schedules.len() != n {
        return Err(SimError::InvalidFederation(format!(
            "{} segments but {} schedules",
            n,
            schedules.len()
        )));
    }
    if options.epoch == Ticks::ZERO {
        return Err(SimError::InvalidFederation(
            "epoch must be positive".to_owned(),
        ));
    }
    let by_class = index_routes(routes, &engines)?;

    // Fresh handoff ids start above every schedule id so they can never
    // collide with an origin message.
    let mut next_id: u64 = schedules
        .iter()
        .flatten()
        .map(|m| m.id.0 + 1)
        .max()
        .unwrap_or(0);

    let mut trace_bufs: Vec<Option<Arc<Mutex<Vec<u8>>>>> = Vec::with_capacity(n);
    let mut fault_events = vec![0usize; n];
    let mut scheduled = vec![0usize; n];
    let mut injected = vec![0usize; n];
    for (segment, (engine, schedule)) in engines.iter_mut().zip(schedules).enumerate() {
        if options.metrics {
            engine.enable_metrics();
        }
        if let Some(cap) = options.retention {
            // The barrier reads the delivery log to generate handoffs, so
            // with routes present only the lost side may be capped.
            let deliveries = if routes.is_empty() { Some(cap) } else { None };
            engine.set_retention(deliveries, Some(cap));
        }
        if options.trace {
            let buf = Arc::new(Mutex::new(Vec::new()));
            engine.set_trace_sink(JsonlSink::headerless(Box::new(SharedBuf(Arc::clone(&buf)))));
            trace_bufs.push(Some(buf));
        } else {
            trace_bufs.push(None);
        }
        if let Some(spec) = &options.faults {
            let plan = FaultPlan::generate(
                job_seed(spec.master_seed, segment as u64),
                engine.station_count() as u32,
                spec.horizon_slots,
                &spec.rates,
            );
            fault_events[segment] = plan.len();
            engine.set_fault_plan(plan);
        }
        // Origin schedule, consumed so no copy outlives the hand-over;
        // routed classes get their per-hop deadline share.
        scheduled[segment] = schedule.len();
        engine.add_arrivals(schedule.into_iter().map(|mut message| {
            if let Some(route) = by_class.get(&message.class) {
                message.deadline = per_hop_deadline(message.deadline, route.path.len());
            }
            message
        }))?;
    }

    // Completion-order cursor into each segment's delivery log: deliveries
    // before the cursor have already been scanned for handoffs.
    let mut cursors = vec![0usize; n];
    let mut pending: Vec<Vec<Message>> = vec![Vec::new(); n];
    let mut drained = vec![false; n];
    let mut rounds = 0u64;
    let mut handoffs = 0u64;
    loop {
        let boundary = Ticks(
            options
                .epoch
                .0
                .saturating_mul(rounds + 1)
                .min(options.budget.0),
        );
        for (segment, arrivals) in pending.iter_mut().enumerate() {
            if arrivals.is_empty() {
                continue;
            }
            injected[segment] += arrivals.len();
            engines[segment].add_arrivals(arrivals.drain(..))?;
            drained[segment] = false;
        }
        // The segments share no state, so the executor's interleaving
        // cannot affect any engine's history.
        (engines, drained) = exec::map_ordered(options.workers, engines, |_, mut engine| {
            let drained = engine.run_until_drained(boundary);
            (engine, drained)
        })
        .into_iter()
        .unzip();
        rounds += 1;

        // Serial barrier: harvest this round's deliveries into next
        // round's bridge queues. Segment order then completion order
        // fixes the id sequence — no worker interleaving can reorder it.
        // Without routes nothing can be handed off, so the scan is skipped.
        let mut exchanged = false;
        if !by_class.is_empty() {
            for (segment, engine) in engines.iter().enumerate() {
                let deliveries = &engine.stats().deliveries;
                for delivery in &deliveries[cursors[segment]..] {
                    let Some(route) = by_class.get(&delivery.message.class) else {
                        continue;
                    };
                    let Some(hop) = route.path.iter().position(|&s| s == segment) else {
                        continue;
                    };
                    if hop + 1 >= route.path.len() {
                        continue; // final hop: delivered end-to-end
                    }
                    let next_segment = route.path[hop + 1];
                    pending[next_segment].push(Message {
                        id: MessageId(next_id),
                        source: route.entry[hop],
                        class: delivery.message.class,
                        bits: delivery.message.bits,
                        arrival: boundary,
                        deadline: delivery.message.deadline,
                    });
                    next_id += 1;
                    handoffs += 1;
                    exchanged = true;
                }
                cursors[segment] = deliveries.len();
            }
        }

        if drained.iter().all(|&d| d) && !exchanged {
            break;
        }
        if boundary >= options.budget {
            // Budget exhausted: still-queued bridge traffic and undrained
            // segments are reported through `completed = false`.
            break;
        }
    }

    let mut segments = Vec::with_capacity(n);
    for (segment, (mut engine, buf)) in engines.into_iter().zip(trace_bufs).enumerate() {
        let metrics = engine.take_metrics();
        if let Some(sink) = engine.take_trace_sink() {
            sink.finish()
                .map_err(|e| SimError::InvalidFederation(format!("trace sink failed: {e}")))?;
        }
        segments.push(SegmentOutcome {
            segment,
            scheduled: scheduled[segment],
            injected: injected[segment],
            completed: drained[segment] && pending[segment].is_empty(),
            fault_events: fault_events[segment],
            stats: engine.into_stats(),
            metrics,
            trace: buf.map(|buf| std::mem::take(&mut *lock(&buf))),
        });
    }
    Ok(FederationReport {
        segments,
        rounds,
        handoffs,
        workers: exec::workers(options.workers, n),
        wall: started.elapsed(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::MediumConfig;
    use crate::station::test_support::GreedyStation;

    /// Greedy stations never back off, so tests run them on an arbitrating
    /// medium: simultaneous cross-station backlog (e.g. two bridge
    /// handoffs landing on the same boundary tick) would livelock under
    /// destructive collisions.
    fn greedy_engine(stations: usize) -> Engine {
        let mut cfg = MediumConfig::ethernet();
        cfg.collision_mode = crate::channel::CollisionMode::Arbitrating;
        let mut engine = Engine::new(cfg).expect("valid medium");
        for _ in 0..stations {
            engine.add_station(Box::new(GreedyStation::new(208)));
        }
        engine
    }

    fn message(id: u64, source: u32, class: u32, arrival: u64) -> Message {
        Message {
            id: MessageId(id),
            source: SourceId(source),
            class: ClassId(class),
            bits: 1000,
            arrival: Ticks(arrival),
            deadline: Ticks(4_000_000),
        }
    }

    #[test]
    fn validation_rejects_malformed_federations() {
        let options = FederationOptions::new(Ticks(1000), Ticks(10_000));
        let err = run_federation(Vec::new(), Vec::new(), &[], &options);
        assert!(matches!(err, Err(SimError::InvalidFederation(_))));

        let err = run_federation(vec![greedy_engine(1)], Vec::new(), &[], &options);
        assert!(matches!(err, Err(SimError::InvalidFederation(_))));

        let zero_epoch = FederationOptions::new(Ticks::ZERO, Ticks(10_000));
        let err = run_federation(vec![greedy_engine(1)], vec![Vec::new()], &[], &zero_epoch);
        assert!(matches!(err, Err(SimError::InvalidFederation(_))));
    }

    #[test]
    fn validation_rejects_malformed_routes() {
        let options = FederationOptions::new(Ticks(1000), Ticks(10_000));
        let engines = || vec![greedy_engine(2), greedy_engine(2)];
        let schedules = || vec![Vec::new(), Vec::new()];
        let cases: Vec<BridgeRoute> = vec![
            // Too short.
            BridgeRoute {
                class: ClassId(1),
                path: vec![0],
                entry: vec![],
            },
            // Entry count mismatch.
            BridgeRoute {
                class: ClassId(1),
                path: vec![0, 1],
                entry: vec![],
            },
            // Unknown segment.
            BridgeRoute {
                class: ClassId(1),
                path: vec![0, 7],
                entry: vec![SourceId(0)],
            },
            // Revisited segment.
            BridgeRoute {
                class: ClassId(1),
                path: vec![0, 0],
                entry: vec![SourceId(0)],
            },
            // Bridge station off the segment.
            BridgeRoute {
                class: ClassId(1),
                path: vec![0, 1],
                entry: vec![SourceId(9)],
            },
        ];
        for route in cases {
            let err = run_federation(
                engines(),
                schedules(),
                std::slice::from_ref(&route),
                &options,
            );
            assert!(
                matches!(err, Err(SimError::InvalidFederation(_))),
                "route {route:?} should be rejected"
            );
        }
        // Duplicate class across two otherwise-valid routes.
        let dup = BridgeRoute {
            class: ClassId(1),
            path: vec![0, 1],
            entry: vec![SourceId(0)],
        };
        let err = run_federation(engines(), schedules(), &[dup.clone(), dup], &options);
        assert!(matches!(err, Err(SimError::InvalidFederation(_))));
    }

    #[test]
    fn single_segment_matches_single_bus_engine() {
        let schedule: Vec<Message> = (0..40)
            .map(|i| message(i, (i % 3) as u32, 0, i * 2_000))
            .collect();
        let mut reference = greedy_engine(3);
        reference.enable_metrics();
        reference
            .add_arrivals(schedule.iter().copied())
            .expect("schedule");
        reference
            .run_to_completion(Ticks(50_000_000))
            .expect("drains");
        let reference_metrics = reference.take_metrics();
        let reference_stats = reference.into_stats();

        let mut options = FederationOptions::new(Ticks(100_000), Ticks(50_000_000));
        options.metrics = true;
        let report =
            run_federation(vec![greedy_engine(3)], vec![schedule], &[], &options).expect("runs");
        assert!(report.completed());
        assert_eq!(report.handoffs, 0);
        assert_eq!(report.segments[0].stats, reference_stats);
        assert_eq!(
            format!("{:?}", report.segments[0].metrics),
            format!("{reference_metrics:?}")
        );
    }

    #[test]
    fn bridged_class_crosses_segments_with_split_deadline() {
        let route = BridgeRoute {
            class: ClassId(7),
            path: vec![0, 1],
            entry: vec![SourceId(1)],
        };
        // One routed message on segment 0, one local message on segment 1.
        let mut routed = message(0, 0, 7, 0);
        routed.deadline = Ticks(2_000_000);
        let local = message(1, 0, 0, 0);
        let mut options = FederationOptions::new(Ticks(10_000), Ticks(50_000_000));
        options.workers = 2;
        let report = run_federation(
            vec![greedy_engine(2), greedy_engine(2)],
            vec![vec![routed], vec![local]],
            &[route],
            &options,
        )
        .expect("runs");
        assert!(report.completed());
        assert_eq!(report.handoffs, 1);
        assert_eq!(report.segments[0].injected, 0);
        assert_eq!(report.segments[1].injected, 1);
        assert_eq!(report.delivered(), 3, "two hops plus the local message");
        // The handoff re-enters on the bridge station at an epoch boundary
        // with the per-hop deadline share.
        let hop = report.segments[1]
            .stats
            .deliveries
            .iter()
            .find(|d| d.message.class == ClassId(7))
            .expect("routed class delivered on segment 1");
        assert_eq!(hop.message.source, SourceId(1));
        assert_eq!(hop.message.deadline, Ticks(1_000_000));
        assert_eq!(hop.message.arrival.0 % 10_000, 0, "arrival on a boundary");
        assert_eq!(hop.message.id, MessageId(2), "fresh id above the schedule");
    }

    #[test]
    fn reports_are_bitwise_worker_invariant() {
        let route = BridgeRoute {
            class: ClassId(2),
            path: vec![0, 2, 1],
            entry: vec![SourceId(0), SourceId(2)],
        };
        let schedules: Vec<Vec<Message>> = (0..3)
            .map(|segment| {
                (0..30u64)
                    .map(|i| {
                        let class = if segment == 0 && i % 5 == 0 {
                            2
                        } else {
                            segment
                        };
                        message(segment as u64 * 100 + i, (i % 3) as u32, class, i * 3_000)
                    })
                    .collect()
            })
            .collect();
        let run = |workers: usize| {
            let mut options = FederationOptions::new(Ticks(50_000), Ticks(200_000_000));
            options.workers = workers;
            options.metrics = true;
            options.trace = true;
            run_federation(
                vec![greedy_engine(3), greedy_engine(3), greedy_engine(3)],
                schedules.clone(),
                std::slice::from_ref(&route),
                &options,
            )
            .expect("runs")
        };
        let serial = run(1);
        assert!(serial.completed());
        assert!(serial.handoffs >= 12, "routed class crosses two bridges");
        for workers in [2, 4, 8] {
            let parallel = run(workers);
            assert_eq!(parallel.rounds, serial.rounds);
            assert_eq!(parallel.handoffs, serial.handoffs);
            for (a, b) in serial.segments.iter().zip(&parallel.segments) {
                assert_eq!(a.stats, b.stats);
                assert_eq!(a.injected, b.injected);
                assert_eq!(format!("{:?}", a.metrics), format!("{:?}", b.metrics));
                assert_eq!(a.trace, b.trace);
            }
            let mut left = Vec::new();
            let mut right = Vec::new();
            serial.write_trace(&mut left).expect("write");
            parallel.write_trace(&mut right).expect("write");
            assert_eq!(left, right);
        }
    }

    #[test]
    fn budget_exhaustion_reports_incomplete_segments() {
        // An arrival beyond the budget keeps the segment's backlog
        // non-empty at every boundary the run can reach.
        let options = FederationOptions::new(Ticks(1_000), Ticks(20_000));
        let report = run_federation(
            vec![greedy_engine(1)],
            vec![vec![message(0, 0, 0, 100_000)]],
            &[],
            &options,
        )
        .expect("runs");
        assert!(!report.completed());
        assert_eq!(report.delivered(), 0);
        assert_eq!(report.rounds, 20, "every epoch up to the budget ran");
    }

    #[test]
    fn merged_trace_carries_federation_header_and_segment_tags() {
        let mut options = FederationOptions::new(Ticks(10_000), Ticks(50_000_000));
        options.trace = true;
        let report = run_federation(
            vec![greedy_engine(1), greedy_engine(1)],
            vec![vec![message(0, 0, 0, 0)], vec![message(1, 0, 0, 0)]],
            &[],
            &options,
        )
        .expect("runs");
        let mut bytes = Vec::new();
        let events = report.write_trace(&mut bytes).expect("write");
        assert!(events > 0);
        let text = String::from_utf8(bytes).expect("utf8");
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some(federation_header(2).trim_end()));
        assert!(lines.clone().any(|l| l.starts_with("{\"segment\":0,")));
        assert!(lines.any(|l| l.starts_with("{\"segment\":1,")));
    }

    #[test]
    fn fault_plans_derive_per_segment_and_replay_identically() {
        let spec = FederationFaultSpec {
            master_seed: 42,
            rates: FaultRates {
                corrupt: 2e-3,
                erase: 2e-3,
                crash: 5e-5,
                down_slots: 40,
            },
            horizon_slots: 20_000,
        };
        let run = || {
            let mut options = FederationOptions::new(Ticks(50_000), Ticks(400_000_000));
            options.faults = Some(spec.clone());
            let schedules: Vec<Vec<Message>> = (0..2)
                .map(|s| {
                    (0..20u64)
                        .map(|i| message(s * 100 + i, (i % 2) as u32, 0, i * 5_000))
                        .collect()
                })
                .collect();
            run_federation(
                vec![greedy_engine(2), greedy_engine(2)],
                schedules,
                &[],
                &options,
            )
            .expect("runs")
        };
        let first = run();
        let second = run();
        assert!(first.segments.iter().any(|s| s.fault_events > 0));
        assert_ne!(
            first.segments[0].fault_events, first.segments[1].fault_events,
            "segments draw from independent derived seeds"
        );
        for (a, b) in first.segments.iter().zip(&second.segments) {
            assert_eq!(a.fault_events, b.fault_events);
            assert_eq!(a.stats, b.stats);
        }
    }
}
