//! Multichannel parallel DDCR — "a broadcast medium (many such media can
//! be used in parallel)" (§3.1).
//!
//! A station may have interfaces on several independent channels, with
//! each message class pinned to one channel. Because the channels are
//! physically independent, the HRTDM analysis composes: the instance is
//! feasible iff **every channel's projected message set** satisfies the
//! §4.3 feasibility conditions on that channel, and each channel gets its
//! own search budget from the P2 multi-tree bound
//! ([`ddcr_tree::multi::MultiTreeProblem`]).
//!
//! This module provides:
//!
//! * the class→channel partition ([`ChannelAssignment`]) and a
//!   deterministic greedy LPT partitioner ([`balance_by_load`]);
//! * per-channel feasibility ([`evaluate`]) and per-channel ξ budgets
//!   ([`channel_budgets`]);
//! * a **parallel multichannel runner** ([`run_channels`] /
//!   [`run_channels_with`]): one independent [`ddcr_sim::Engine`] per
//!   channel, run as a route-free [`ddcr_sim::federation`] of one round
//!   spanning the whole budget. Each channel is a self-contained
//!   deterministic simulation, so the [`MultichannelReport`] is
//!   byte-identical for any worker count, and a one-channel run is
//!   bitwise equal to the single-bus engine.
//!
//! Metrics, JSONL traces and fault plans all route per channel exactly as
//! they do per segment: every engine gets its own observed-ξ windows, its
//! own headerless trace buffer (merged into one channel-tagged document by
//! [`MultichannelReport::write_trace`]) and its own fault plan seeded via
//! [`ddcr_sim::rng::job_seed`]`(master, channel)`.

use crate::config::DdcrConfig;
use crate::error::DdcrError;
use crate::feasibility::{self, FeasibilityReport};
use crate::indices::StaticAllocation;
use crate::network;
use ddcr_sim::federation::{run_federation, FederationOptions};
use ddcr_sim::{ChannelStats, ClassId, Engine, MediumConfig, Message, SimMetrics, Ticks};
use ddcr_traffic::{MessageClass, MessageSet};
use ddcr_tree::multi::MultiTreeProblem;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::{Duration, Instant};

/// Per-channel fault injection for a multichannel run: channel `c`'s plan
/// is generated with seed [`ddcr_sim::rng::job_seed`]`(master_seed, c)`,
/// so plans are independent across channels yet fully replayable.
pub use ddcr_sim::federation::FederationFaultSpec as FaultSpec;

/// A partition of message classes over parallel broadcast channels.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChannelAssignment {
    channels: usize,
    channel_of_class: BTreeMap<ClassId, usize>,
}

impl ChannelAssignment {
    /// Builds an assignment, validating every class of the set is mapped
    /// to a channel within range.
    ///
    /// # Errors
    ///
    /// Returns [`DdcrError::InvalidConfig`] on unmapped classes or
    /// out-of-range channel indices.
    pub fn new(
        set: &MessageSet,
        channels: usize,
        channel_of_class: BTreeMap<ClassId, usize>,
    ) -> Result<Self, DdcrError> {
        if channels == 0 {
            return Err(DdcrError::InvalidConfig(
                "at least one channel required".into(),
            ));
        }
        for class in set.classes() {
            match channel_of_class.get(&class.id) {
                None => {
                    return Err(DdcrError::InvalidConfig(format!(
                        "class {} not assigned to any channel",
                        class.id
                    )))
                }
                Some(&c) if c >= channels => {
                    return Err(DdcrError::InvalidConfig(format!(
                        "class {} assigned to channel {c} of {channels}",
                        class.id
                    )))
                }
                Some(_) => {}
            }
        }
        Ok(ChannelAssignment {
            channels,
            channel_of_class,
        })
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// The channel a class rides on.
    ///
    /// # Panics
    ///
    /// Panics if the class was not part of the set the assignment was
    /// validated against.
    pub fn channel_of(&self, class: ClassId) -> usize {
        self.channel_of_class[&class]
    }

    /// Projects the message set onto one channel (same sources, the subset
    /// of classes riding that channel).
    ///
    /// # Errors
    ///
    /// Propagates set-construction failures (cannot happen for projections
    /// of a valid set).
    pub fn project(&self, set: &MessageSet, channel: usize) -> Result<MessageSet, DdcrError> {
        let classes: Vec<MessageClass> = set
            .classes()
            .iter()
            .filter(|c| self.channel_of(c.id) == channel)
            .cloned()
            .collect();
        MessageSet::new(set.sources(), classes).map_err(|e| DdcrError::InvalidConfig(e.to_string()))
    }

    /// Routes a schedule to the channels: message order within each
    /// channel is the original schedule order, so the split is a pure
    /// function of the assignment.
    pub fn split_schedule(&self, schedule: Vec<Message>) -> Vec<Vec<Message>> {
        let mut per_channel: Vec<Vec<Message>> = vec![Vec::new(); self.channels];
        for msg in schedule {
            per_channel[self.channel_of(msg.class)].push(msg);
        }
        per_channel
    }
}

/// Greedy feasibility-driven partitioner: classes are placed heaviest
/// first (by offered load), each onto the channel whose projected load is
/// currently smallest — classic LPT balancing, which is what a capacity
/// planner would start from.
///
/// Fully deterministic: the placement order breaks load ties on
/// [`ClassId`], and among equally loaded channels the **lowest channel
/// index** wins (a strict-less fold, not `Iterator::min_by`, whose
/// tie-breaking favours the last minimum and would let accumulated
/// floating-point loads pick different channels across platforms).
pub fn balance_by_load(set: &MessageSet, channels: usize) -> ChannelAssignment {
    let channels = channels.max(1);
    let mut order: Vec<&MessageClass> = set.classes().iter().collect();
    order.sort_by(|a, b| {
        b.offered_load()
            .total_cmp(&a.offered_load())
            .then(a.id.0.cmp(&b.id.0))
    });
    let mut load = vec![0.0f64; channels];
    let mut channel_of_class = BTreeMap::new();
    for class in order {
        let mut lightest = 0usize;
        for (channel, &l) in load.iter().enumerate().skip(1) {
            if l < load[lightest] {
                lightest = channel;
            }
        }
        channel_of_class.insert(class.id, lightest);
        load[lightest] += class.offered_load();
    }
    ChannelAssignment {
        channels,
        channel_of_class,
    }
}

/// Per-channel feasibility: the multichannel instance is provable iff
/// every projected set is.
///
/// # Errors
///
/// Propagates evaluation failures from any channel.
pub fn evaluate(
    set: &MessageSet,
    assignment: &ChannelAssignment,
    config: &DdcrConfig,
    allocation: &StaticAllocation,
    medium: &MediumConfig,
) -> Result<Vec<FeasibilityReport>, DdcrError> {
    let mut reports = Vec::with_capacity(assignment.channels());
    for channel in 0..assignment.channels() {
        let projected = assignment.project(set, channel)?;
        reports.push(feasibility::evaluate(
            &projected, config, allocation, medium,
        )?);
    }
    Ok(reports)
}

/// One channel's search budget: the P2 multi-tree bound for the channel's
/// binding (tightest-slack) class, plus the channel's shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelXiBudget {
    /// Channel index.
    pub channel: usize,
    /// Classes projected onto this channel.
    pub classes: usize,
    /// Offered load of the projection (bits/tick).
    pub offered_load: f64,
    /// Interference bound `u(M)` of the binding class (0 if empty).
    pub u: u64,
    /// Static trees `v(M)` of the binding class (0 if empty).
    pub v: u64,
    /// P2 bound `v·ξ̃_{u/v}^q` in slots for the binding class — the
    /// channel's worst-case static-search allowance.
    pub p2_slots: f64,
    /// Whether every class projected onto this channel is feasible.
    pub feasible: bool,
}

/// Derives each channel's ξ budget from its projected feasibility report:
/// the binding class's `(u, v)` through the memoized P2 multi-tree bound.
///
/// # Errors
///
/// Propagates evaluation and projection failures.
pub fn channel_budgets(
    set: &MessageSet,
    assignment: &ChannelAssignment,
    config: &DdcrConfig,
    allocation: &StaticAllocation,
    medium: &MediumConfig,
) -> Result<Vec<ChannelXiBudget>, DdcrError> {
    let reports = evaluate(set, assignment, config, allocation, medium)?;
    let mut budgets = Vec::with_capacity(reports.len());
    for (channel, report) in reports.iter().enumerate() {
        let projected = assignment.project(set, channel)?;
        let budget = match report.tightest() {
            None => ChannelXiBudget {
                channel,
                classes: 0,
                offered_load: 0.0,
                u: 0,
                v: 0,
                p2_slots: 0.0,
                feasible: true,
            },
            Some(tightest) => {
                let p2_slots = if tightest.u == 0 {
                    0.0
                } else {
                    MultiTreeProblem::new(
                        config.static_tree,
                        tightest.u.max(2 * tightest.v),
                        tightest.v,
                    )
                    .map_err(DdcrError::Tree)?
                    .bound()
                };
                ChannelXiBudget {
                    channel,
                    classes: projected.classes().len(),
                    offered_load: projected.offered_load(),
                    u: tightest.u,
                    v: tightest.v,
                    p2_slots,
                    feasible: report.feasible(),
                }
            }
        };
        budgets.push(budget);
    }
    Ok(budgets)
}

/// Options for a multichannel run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Worker threads advancing channels (clamped by
    /// [`ddcr_sim::exec::workers`]).
    pub workers: usize,
    /// Completion give-up horizon per channel.
    pub budget: Ticks,
    /// Enable per-channel metrics (and, on the DDCR path, live observed-ξ
    /// checks against the analytic bound).
    pub metrics: bool,
    /// Capture each channel's JSONL event stream for
    /// [`MultichannelReport::write_trace`].
    pub trace: bool,
    /// Retention cap for per-channel delivery/lost records
    /// (`None` = unbounded).
    pub retention: Option<usize>,
    /// Per-channel fault injection (`None` = fault-free).
    pub faults: Option<FaultSpec>,
}

impl RunOptions {
    /// Defaults: serial (one worker), no metrics, no trace, no faults,
    /// unbounded retention.
    pub fn new(budget: Ticks) -> Self {
        RunOptions {
            workers: 1,
            budget,
            metrics: false,
            trace: false,
            retention: None,
            faults: None,
        }
    }
}

/// One channel's completed simulation.
#[derive(Debug)]
pub struct ChannelOutcome {
    /// Channel index.
    pub channel: usize,
    /// Classes projected onto this channel.
    pub classes: usize,
    /// Messages routed to this channel.
    pub scheduled: usize,
    /// Whether the channel drained inside the budget.
    pub completed: bool,
    /// Fault events injected on this channel.
    pub fault_events: usize,
    /// Channel statistics.
    pub stats: ChannelStats,
    /// Per-channel metrics (present when [`RunOptions::metrics`]).
    pub metrics: Option<SimMetrics>,
    /// Headerless JSONL event lines (present when [`RunOptions::trace`]).
    pub trace: Option<Vec<u8>>,
}

/// A completed multichannel run, outcomes in channel order.
///
/// Everything except `wall` is a pure function of the inputs — bitwise
/// independent of [`RunOptions::workers`].
#[derive(Debug)]
pub struct MultichannelReport {
    /// One outcome per channel, channel order.
    pub channels: Vec<ChannelOutcome>,
    /// Worker threads the channels ran on.
    pub workers: usize,
    /// End-to-end wall clock (non-deterministic; excluded from the
    /// determinism contract).
    pub wall: Duration,
}

impl MultichannelReport {
    /// Messages routed across all channels.
    pub fn scheduled(&self) -> usize {
        self.channels.iter().map(|c| c.scheduled).sum()
    }

    /// Messages delivered across all channels.
    pub fn delivered(&self) -> usize {
        self.channels.iter().map(|c| c.stats.deliveries.len()).sum()
    }

    /// Deadline misses across all channels.
    pub fn deadline_misses(&self) -> usize {
        self.channels
            .iter()
            .map(|c| c.stats.deadline_misses())
            .sum()
    }

    /// Whether every channel drained inside the budget.
    pub fn completed(&self) -> bool {
        self.channels.iter().all(|c| c.completed)
    }

    /// Observed-ξ violations summed over all channels (0 when metrics were
    /// off).
    pub fn xi_violations(&self) -> u64 {
        self.channels
            .iter()
            .filter_map(|c| c.metrics.as_ref())
            .map(|m| m.violations_total)
            .sum()
    }

    /// Writes the merged JSONL trace document.
    ///
    /// One channel: the plain schema-version-1 stream — byte-identical to
    /// the single-bus engine's export. Several channels: a
    /// [`ddcr_sim::multichannel_header`] followed by every channel's
    /// events in channel order, each line tagged with its channel index.
    /// Either way the bytes are a pure function of the resolved channel
    /// histories, hence independent of the worker count.
    ///
    /// Returns the number of event lines written.
    ///
    /// # Errors
    ///
    /// Propagates writer I/O errors.
    pub fn write_trace(&self, writer: &mut dyn Write) -> io::Result<u64> {
        let parts: Vec<Option<&[u8]>> = self.channels.iter().map(|c| c.trace.as_deref()).collect();
        ddcr_sim::write_merged(
            writer,
            &ddcr_sim::multichannel_header(parts.len()),
            "channel",
            &parts,
        )
    }
}

/// Runs a schedule over parallel channels with a custom per-channel engine
/// builder (`build(channel, projected_set)`); the DDCR path is
/// [`run_channels`]. Channels share no physical state, so the run is a
/// route-free [`ddcr_sim::federation`] whose single epoch spans the whole
/// budget: every channel's engine runs to completion on the federation's
/// ordered executor. The report is bitwise identical for any
/// `options.workers`.
///
/// # Errors
///
/// Propagates assembly failures from any channel (lowest channel index
/// first) and rejected schedules.
///
/// # Panics
///
/// Propagates the first channel panic.
pub fn run_channels_with<F>(
    set: &MessageSet,
    schedule: Vec<Message>,
    assignment: &ChannelAssignment,
    options: &RunOptions,
    build: &F,
) -> Result<MultichannelReport, DdcrError>
where
    F: Fn(usize, &MessageSet) -> Result<Engine, DdcrError>,
{
    let started = Instant::now();
    let mut classes = Vec::with_capacity(assignment.channels());
    let mut engines = Vec::with_capacity(assignment.channels());
    for channel in 0..assignment.channels() {
        let projected = assignment.project(set, channel)?;
        classes.push(projected.classes().len());
        engines.push(build(channel, &projected)?);
    }
    let federation = FederationOptions {
        epoch: Ticks(options.budget.0.max(1)),
        workers: options.workers,
        budget: options.budget,
        metrics: options.metrics,
        trace: options.trace,
        retention: options.retention,
        faults: options.faults.clone(),
    };
    let report = run_federation(
        engines,
        assignment.split_schedule(schedule),
        &[],
        &federation,
    )
    .map_err(|e| DdcrError::InvalidConfig(format!("channel run rejected: {e}")))?;
    let channels = report
        .segments
        .into_iter()
        .zip(classes)
        .map(|(segment, classes)| ChannelOutcome {
            channel: segment.segment,
            classes,
            scheduled: segment.scheduled,
            completed: segment.completed,
            fault_events: segment.fault_events,
            stats: segment.stats,
            metrics: segment.metrics,
            trace: segment.trace,
        })
        .collect();
    Ok(MultichannelReport {
        channels,
        workers: report.workers,
        wall: started.elapsed(),
    })
}

/// Runs a schedule over parallel DDCR channels: each message is routed to
/// its class's channel and every channel gets its own engine (plus, when
/// metrics are on, its own live observed-ξ windows from the analytic
/// bound tables). See [`run_channels_with`] for the execution and
/// determinism contract.
///
/// # Errors
///
/// Propagates assembly failures from any channel.
pub fn run_channels(
    set: &MessageSet,
    schedule: Vec<Message>,
    assignment: &ChannelAssignment,
    config: &DdcrConfig,
    allocation: &StaticAllocation,
    medium: MediumConfig,
    options: &RunOptions,
) -> Result<MultichannelReport, DdcrError> {
    run_channels_with(set, schedule, assignment, options, &|_, projected| {
        let mut engine = network::build_engine(projected, config, allocation, medium)?;
        if options.metrics {
            let (time, static_) = network::xi_bound_tables(config)?;
            engine.set_xi_bounds(time, static_);
        }
        Ok(engine)
    })
}

/// Runs a schedule over parallel channels and returns per-channel
/// statistics — the single-purpose wrapper kept for capacity experiments.
///
/// # Errors
///
/// Returns [`DdcrError::Infeasible`] if any channel fails to drain inside
/// the budget; propagates assembly failures.
pub fn run(
    set: &MessageSet,
    schedule: Vec<Message>,
    assignment: &ChannelAssignment,
    config: &DdcrConfig,
    allocation: &StaticAllocation,
    medium: MediumConfig,
    budget: Ticks,
) -> Result<Vec<ChannelStats>, DdcrError> {
    let report = run_channels(
        set,
        schedule,
        assignment,
        config,
        allocation,
        medium,
        &RunOptions::new(budget),
    )?;
    if !report.completed() {
        return Err(DdcrError::Infeasible(
            "a channel did not drain inside the budget".into(),
        ));
    }
    Ok(report.channels.into_iter().map(|c| c.stats).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddcr_sim::{FaultRates, JsonlSink, SourceId};
    use ddcr_traffic::{scenario, DensityBound, ScheduleBuilder};
    use std::sync::{Arc, Mutex};

    /// A `Write` over a shared buffer, to read back what a sink wrote.
    struct SharedBuf(Arc<Mutex<Vec<u8>>>);

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    fn setup(z: u32) -> (MessageSet, DdcrConfig, StaticAllocation, MediumConfig) {
        let set = scenario::videoconference(z).unwrap();
        let medium = MediumConfig::gigabit_ethernet();
        let c = network::recommended_class_width(&set, 64, &medium);
        let config = DdcrConfig::for_sources(z, c).unwrap();
        let allocation = StaticAllocation::round_robin(config.static_tree, z).unwrap();
        (set, config, allocation, medium)
    }

    #[test]
    fn balance_assigns_every_class() {
        let (set, ..) = setup(6);
        let assignment = balance_by_load(&set, 3);
        assert_eq!(assignment.channels(), 3);
        for class in set.classes() {
            assert!(assignment.channel_of(class.id) < 3);
        }
        // Load roughly balanced: no channel more than twice the lightest.
        let loads: Vec<f64> = (0..3)
            .map(|c| assignment.project(&set, c).unwrap().offered_load())
            .collect();
        let max = loads.iter().cloned().fold(0.0, f64::max);
        let min = loads.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(max <= 2.0 * min + 1e-9, "{loads:?}");
    }

    #[test]
    fn balance_breaks_ties_deterministically() {
        // Four classes of identical load: LPT must place them in id order
        // onto the lowest-index equally loaded channel every time.
        let classes: Vec<MessageClass> = (0..4u32)
            .map(|i| MessageClass {
                id: ClassId(i),
                name: format!("c{i}"),
                source: SourceId(0),
                bits: 8_000,
                deadline: Ticks(1_000_000),
                density: DensityBound::new(1, Ticks(1_000_000)).unwrap(),
            })
            .collect();
        let set = MessageSet::new(1, classes).unwrap();
        let assignment = balance_by_load(&set, 2);
        let expected: BTreeMap<ClassId, usize> = [
            (ClassId(0), 0),
            (ClassId(1), 1),
            (ClassId(2), 0),
            (ClassId(3), 1),
        ]
        .into_iter()
        .collect();
        assert_eq!(
            assignment,
            ChannelAssignment::new(&set, 2, expected).unwrap()
        );
        // Stable across repeated invocations.
        assert_eq!(assignment, balance_by_load(&set, 2));
    }

    #[test]
    fn balance_places_heaviest_class_first() {
        // Loads 1, 2, 3, 4 on ids 0..4: LPT sorts them heaviest first, so
        // 4 → channel 0, 3 → 1, 2 → 1 (3 < 4), 1 → 0 (4 < 5).
        let classes: Vec<MessageClass> = (0..4u32)
            .map(|i| MessageClass {
                id: ClassId(i),
                name: format!("c{i}"),
                source: SourceId(0),
                bits: 1_000 * u64::from(i + 1),
                deadline: Ticks(1_000_000),
                density: DensityBound::new(1, Ticks(1_000_000)).unwrap(),
            })
            .collect();
        let set = MessageSet::new(1, classes).unwrap();
        let expected: BTreeMap<ClassId, usize> = [
            (ClassId(3), 0),
            (ClassId(2), 1),
            (ClassId(1), 1),
            (ClassId(0), 0),
        ]
        .into_iter()
        .collect();
        assert_eq!(
            balance_by_load(&set, 2),
            ChannelAssignment::new(&set, 2, expected).unwrap()
        );
    }

    #[test]
    fn projections_partition_the_set() {
        let (set, ..) = setup(4);
        let assignment = balance_by_load(&set, 2);
        let total: usize = (0..2)
            .map(|c| assignment.project(&set, c).unwrap().classes().len())
            .sum();
        assert_eq!(total, set.classes().len());
    }

    #[test]
    fn more_channels_increase_provable_capacity() {
        // A participant count infeasible on one channel becomes provable
        // on two: the §3.1 "media in parallel" payoff.
        let (set, config, allocation, medium) = setup(20);
        let one = balance_by_load(&set, 1);
        let two = balance_by_load(&set, 2);
        let single = evaluate(&set, &one, &config, &allocation, &medium).unwrap();
        let double = evaluate(&set, &two, &config, &allocation, &medium).unwrap();
        assert!(!single.iter().all(FeasibilityReport::feasible));
        assert!(double.iter().all(FeasibilityReport::feasible));
    }

    #[test]
    fn channel_budgets_follow_feasibility() {
        let (set, config, allocation, medium) = setup(8);
        let assignment = balance_by_load(&set, 2);
        let budgets = channel_budgets(&set, &assignment, &config, &allocation, &medium).unwrap();
        let reports = evaluate(&set, &assignment, &config, &allocation, &medium).unwrap();
        assert_eq!(budgets.len(), 2);
        for (budget, report) in budgets.iter().zip(&reports) {
            assert_eq!(budget.feasible, report.feasible());
            assert!(budget.classes > 0);
            assert!(budget.p2_slots > 0.0, "{budget:?}");
            assert!(budget.v >= 1);
            assert!(budget.u >= 1);
        }
        // The P2 budget is per channel: splitting shrinks each channel's
        // binding interference, so no channel's budget exceeds the
        // single-channel one.
        let whole = channel_budgets(
            &set,
            &balance_by_load(&set, 1),
            &config,
            &allocation,
            &medium,
        )
        .unwrap();
        for budget in &budgets {
            assert!(budget.p2_slots <= whole[0].p2_slots + 1e-9);
        }
    }

    #[test]
    fn multichannel_run_drains_and_meets_deadlines() {
        let (set, config, allocation, medium) = setup(8);
        let assignment = balance_by_load(&set, 2);
        let schedule = ScheduleBuilder::peak_load(&set)
            .build(Ticks(8_000_000))
            .unwrap();
        let n = schedule.len();
        let stats = run(
            &set,
            schedule,
            &assignment,
            &config,
            &allocation,
            medium,
            Ticks(100_000_000_000),
        )
        .unwrap();
        let delivered: usize = stats.iter().map(|s| s.deliveries.len()).sum();
        let misses: usize = stats.iter().map(ChannelStats::deadline_misses).sum();
        assert_eq!(delivered, n);
        assert_eq!(misses, 0);
    }

    #[test]
    fn parallel_run_is_bitwise_identical_to_serial() {
        let (set, config, allocation, medium) = setup(8);
        let assignment = balance_by_load(&set, 3);
        let schedule = ScheduleBuilder::peak_load(&set)
            .build(Ticks(6_000_000))
            .unwrap();
        let mut options = RunOptions::new(Ticks(100_000_000_000));
        options.metrics = true;
        options.trace = true;
        let serial = run_channels(
            &set,
            schedule.clone(),
            &assignment,
            &config,
            &allocation,
            medium,
            &options,
        )
        .unwrap();
        options.workers = 4;
        let parallel = run_channels(
            &set,
            schedule,
            &assignment,
            &config,
            &allocation,
            medium,
            &options,
        )
        .unwrap();
        assert_eq!(serial.channels.len(), parallel.channels.len());
        for (a, b) in serial.channels.iter().zip(&parallel.channels) {
            assert_eq!(a.stats, b.stats);
            assert_eq!(a.trace, b.trace);
            // SimMetrics carries no PartialEq; Debug equality is bitwise
            // enough for the determinism contract.
            assert_eq!(format!("{:?}", a.metrics), format!("{:?}", b.metrics));
        }
        let mut doc_a = Vec::new();
        let mut doc_b = Vec::new();
        serial.write_trace(&mut doc_a).unwrap();
        parallel.write_trace(&mut doc_b).unwrap();
        assert_eq!(doc_a, doc_b);
    }

    #[test]
    fn single_channel_run_matches_single_bus_engine() {
        let (set, config, allocation, medium) = setup(6);
        let assignment = balance_by_load(&set, 1);
        let schedule = ScheduleBuilder::peak_load(&set)
            .build(Ticks(6_000_000))
            .unwrap();
        let mut options = RunOptions::new(Ticks(100_000_000_000));
        options.metrics = true;
        options.trace = true;
        let report = run_channels(
            &set,
            schedule.clone(),
            &assignment,
            &config,
            &allocation,
            medium,
            &options,
        )
        .unwrap();

        // The plain single-bus engine with the same instrumentation.
        let buf = Arc::new(Mutex::new(Vec::new()));
        let mut engine = network::build_engine(&set, &config, &allocation, medium).unwrap();
        let (time, static_) = network::xi_bound_tables(&config).unwrap();
        engine.set_xi_bounds(time, static_);
        engine.set_trace_sink(JsonlSink::new(Box::new(SharedBuf(Arc::clone(&buf)))));
        engine.add_arrivals(schedule).unwrap();
        engine.run_to_completion(Ticks(100_000_000_000)).unwrap();
        let single_metrics = engine.take_metrics();
        engine.take_trace_sink().unwrap().finish().unwrap();
        let single_stats = engine.into_stats();

        assert_eq!(report.channels.len(), 1);
        assert_eq!(report.channels[0].stats, single_stats);
        assert_eq!(
            format!("{:?}", report.channels[0].metrics),
            format!("{single_metrics:?}")
        );
        let mut doc = Vec::new();
        report.write_trace(&mut doc).unwrap();
        assert_eq!(
            doc,
            *buf.lock().unwrap(),
            "C=1 trace must match the single-bus export"
        );
    }

    #[test]
    fn merged_trace_tags_every_line_with_its_channel() {
        let (set, config, allocation, medium) = setup(4);
        let assignment = balance_by_load(&set, 2);
        let schedule = ScheduleBuilder::peak_load(&set)
            .build(Ticks(4_000_000))
            .unwrap();
        let mut options = RunOptions::new(Ticks(100_000_000_000));
        options.trace = true;
        let report = run_channels(
            &set,
            schedule,
            &assignment,
            &config,
            &allocation,
            medium,
            &options,
        )
        .unwrap();
        let mut doc = Vec::new();
        let events = report.write_trace(&mut doc).unwrap();
        let text = String::from_utf8(doc).unwrap();
        let mut lines = text.lines();
        assert_eq!(
            lines.next().unwrap(),
            "{\"schema\":\"ddcr-trace\",\"version\":2,\"channels\":2}"
        );
        let mut tagged = 0u64;
        for line in lines {
            assert!(
                line.starts_with("{\"channel\":0,") || line.starts_with("{\"channel\":1,"),
                "untagged line: {line}"
            );
            tagged += 1;
        }
        assert_eq!(tagged, events);
        assert!(events > 0);
    }

    #[test]
    fn fault_plans_are_per_channel_and_replayable() {
        let (set, config, allocation, medium) = setup(6);
        let assignment = balance_by_load(&set, 2);
        let schedule = ScheduleBuilder::peak_load(&set)
            .build(Ticks(8_000_000))
            .unwrap();
        let mut options = RunOptions::new(Ticks(400_000_000_000));
        options.faults = Some(FaultSpec {
            master_seed: 42,
            rates: FaultRates {
                corrupt: 0.002,
                erase: 0.002,
                crash: 0.0,
                down_slots: 64,
            },
            horizon_slots: 20_000,
        });
        let first = run_channels(
            &set,
            schedule.clone(),
            &assignment,
            &config,
            &allocation,
            medium,
            &options,
        )
        .unwrap();
        let second = run_channels(
            &set,
            schedule,
            &assignment,
            &config,
            &allocation,
            medium,
            &options,
        )
        .unwrap();
        assert!(first.channels.iter().any(|c| c.fault_events > 0));
        for (a, b) in first.channels.iter().zip(&second.channels) {
            assert_eq!(a.fault_events, b.fault_events);
            assert_eq!(a.stats, b.stats, "fault replay must be deterministic");
        }
        // Distinct channels draw distinct plan seeds.
        let seeds: Vec<u64> = (0..2)
            .map(|c| ddcr_sim::rng::job_seed(42, c as u64))
            .collect();
        assert_ne!(seeds[0], seeds[1]);
    }

    #[test]
    fn validation_rejects_bad_assignments() {
        let (set, ..) = setup(2);
        assert!(ChannelAssignment::new(&set, 0, BTreeMap::new()).is_err());
        assert!(ChannelAssignment::new(&set, 2, BTreeMap::new()).is_err());
        let mut map = BTreeMap::new();
        for class in set.classes() {
            map.insert(class.id, 5usize);
        }
        assert!(ChannelAssignment::new(&set, 2, map).is_err());
    }
}
