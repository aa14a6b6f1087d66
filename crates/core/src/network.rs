//! High-level assembly: build a simulated CSMA/DDCR network from a message
//! set and run workloads against it.

use crate::config::DdcrConfig;
use crate::error::DdcrError;
use crate::indices::StaticAllocation;
use crate::protocol::DdcrStation;
use ddcr_sim::{ChannelStats, Engine, MediumConfig, Message, SourceId, Ticks, XiBoundTable};
use ddcr_traffic::MessageSet;

/// How long to run a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunLimit {
    /// Run until every scheduled message has been delivered, giving up at
    /// the budget.
    Completion(Ticks),
    /// Run for a fixed horizon regardless of backlog.
    Horizon(Ticks),
}

/// Picks a deadline-class width `c` for a message set: the smallest value
/// such that the scheduling horizon `c·F` covers the largest relative
/// deadline (so no freshly arrived message ever sits a time tree search
/// out), but never below one slot time.
pub fn recommended_class_width(set: &MessageSet, time_leaves: u64, medium: &MediumConfig) -> Ticks {
    let max_d = set
        .classes()
        .iter()
        .map(|c| c.deadline.as_u64())
        .max()
        .unwrap_or(medium.slot_ticks);
    Ticks(max_d.div_ceil(time_leaves).max(medium.slot_ticks))
}

/// Builds the analytic ξ allowances for a configuration's time and static
/// trees, for the simulator's live per-epoch overhead checks
/// (`Engine::set_xi_bounds`). Tables come from the process-wide memoized
/// `ξ_k^t` cache, so repeated sweep jobs share one `O(t²)` computation.
///
/// # Errors
///
/// Returns [`DdcrError::Tree`] if a table cannot be computed for either
/// tree shape.
pub fn xi_bound_tables(config: &DdcrConfig) -> Result<(XiBoundTable, XiBoundTable), DdcrError> {
    let cache = ddcr_tree::cache::global();
    let time = cache
        .worst_case(config.time_tree)
        .map_err(DdcrError::Tree)?;
    let static_ = cache
        .worst_case(config.static_tree)
        .map_err(DdcrError::Tree)?;
    Ok((
        XiBoundTable::from_envelope(config.time_tree.branching(), &time.xi_envelope()),
        XiBoundTable::from_envelope(config.static_tree.branching(), &static_.xi_envelope()),
    ))
}

/// Builds an engine with one [`DdcrStation`] per source of the set.
///
/// # Errors
///
/// Returns [`DdcrError`] on configuration/allocation mismatch and wraps
/// simulator construction failures.
pub fn build_engine(
    set: &MessageSet,
    config: &DdcrConfig,
    allocation: &StaticAllocation,
    medium: MediumConfig,
) -> Result<Engine, DdcrError> {
    config.validate(set.sources())?;
    let mut engine = Engine::new(medium)
        .map_err(|e| DdcrError::InvalidConfig(format!("simulator rejected medium: {e}")))?;
    for i in 0..set.sources() {
        engine.add_station(Box::new(DdcrStation::new(
            SourceId(i),
            *config,
            allocation,
            medium.overhead_bits,
        )?));
    }
    Ok(engine)
}

/// Runs a schedule through a freshly built CSMA/DDCR network and returns
/// the channel statistics.
///
/// # Errors
///
/// Returns [`DdcrError`] on assembly failure, on unknown sources in the
/// schedule, or when a completion run exhausts its budget with messages
/// still queued.
///
/// # Examples
///
/// ```
/// use ddcr_core::{network, DdcrConfig, StaticAllocation};
/// use ddcr_sim::{MediumConfig, Ticks};
/// use ddcr_traffic::{scenario, ScheduleBuilder};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let set = scenario::uniform(4, 8_000, Ticks(2_000_000), 0.2)?;
/// let medium = MediumConfig::ethernet();
/// let c = network::recommended_class_width(&set, 64, &medium);
/// let config = DdcrConfig::for_sources(4, c)?;
/// let allocation = StaticAllocation::one_per_source(config.static_tree, 4)?;
/// let schedule = ScheduleBuilder::peak_load(&set).build(Ticks(4_000_000))?;
/// let stats = network::run(
///     &set, schedule, &config, &allocation, medium,
///     network::RunLimit::Completion(Ticks(100_000_000)),
/// )?;
/// assert_eq!(stats.deadline_misses(), 0);
/// # Ok(())
/// # }
/// ```
pub fn run(
    set: &MessageSet,
    schedule: Vec<Message>,
    config: &DdcrConfig,
    allocation: &StaticAllocation,
    medium: MediumConfig,
    limit: RunLimit,
) -> Result<ChannelStats, DdcrError> {
    let mut engine = build_engine(set, config, allocation, medium)?;
    engine
        .add_arrivals(schedule)
        .map_err(|e| DdcrError::InvalidConfig(format!("schedule rejected: {e}")))?;
    match limit {
        RunLimit::Completion(max) => engine
            .run_to_completion(max)
            .map_err(|e| DdcrError::Infeasible(format!("run did not complete: {e}")))?,
        RunLimit::Horizon(t) => engine.run_until(t),
    }
    Ok(engine.into_stats())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddcr_traffic::{scenario, ScheduleBuilder};

    #[test]
    fn recommended_width_covers_max_deadline() {
        let set = scenario::videoconference(4).unwrap();
        let medium = MediumConfig::ethernet();
        let c = recommended_class_width(&set, 64, &medium);
        let max_d = set
            .classes()
            .iter()
            .map(|cl| cl.deadline.as_u64())
            .max()
            .unwrap();
        assert!(c.as_u64() * 64 >= max_d);
        assert!(c.as_u64() >= medium.slot_ticks);
    }

    #[test]
    fn peak_load_videoconference_completes() {
        let set = scenario::videoconference(4).unwrap();
        let medium = MediumConfig::ethernet();
        let c = recommended_class_width(&set, 64, &medium);
        let config = DdcrConfig::for_sources(4, c).unwrap();
        let allocation = StaticAllocation::round_robin(config.static_tree, 4).unwrap();
        let schedule = ScheduleBuilder::peak_load(&set)
            .build(Ticks(2_000_000))
            .unwrap();
        let n = schedule.len();
        let stats = run(
            &set,
            schedule,
            &config,
            &allocation,
            medium,
            RunLimit::Completion(Ticks(1_000_000_000)),
        )
        .unwrap();
        assert_eq!(stats.deliveries.len(), n);
    }

    #[test]
    fn horizon_run_stops_at_horizon() {
        let set = scenario::uniform(2, 8_000, Ticks(1_000_000), 0.1).unwrap();
        let config = DdcrConfig::for_sources(2, Ticks(31_250)).unwrap();
        let allocation = StaticAllocation::one_per_source(config.static_tree, 2).unwrap();
        let schedule = ScheduleBuilder::periodic(&set)
            .build(Ticks(10_000_000))
            .unwrap();
        let stats = run(
            &set,
            schedule,
            &config,
            &allocation,
            MediumConfig::ethernet(),
            RunLimit::Horizon(Ticks(1_000_000)),
        )
        .unwrap();
        assert!(stats.total_ticks >= Ticks(1_000_000));
    }

    #[test]
    fn metrics_attribute_slots_and_respect_xi_bounds() {
        let set = scenario::uniform(4, 8_000, Ticks(2_000_000), 0.2).unwrap();
        let medium = MediumConfig::ethernet();
        let c = recommended_class_width(&set, 64, &medium);
        let config = DdcrConfig::for_sources(4, c).unwrap();
        let allocation = StaticAllocation::one_per_source(config.static_tree, 4).unwrap();
        let schedule = ScheduleBuilder::peak_load(&set)
            .build(Ticks(4_000_000))
            .unwrap();
        let mut engine = build_engine(&set, &config, &allocation, medium).unwrap();
        let (time, static_) = xi_bound_tables(&config).unwrap();
        engine.set_xi_bounds(time, static_);
        engine.add_arrivals(schedule).unwrap();
        engine.run_to_completion(Ticks(100_000_000)).unwrap();
        let delivered = engine.stats().delivered;
        let metrics = engine.take_metrics().unwrap();
        assert_eq!(
            metrics.violations_total,
            0,
            "observed ξ breached the analytic bound: {:?}",
            metrics.violations()
        );
        // DDCR stations attribute every non-skipped slot.
        assert_eq!(metrics.phase_slots.unattributed, 0);
        assert!(metrics.phase_slots.tts > 0, "no TTs slots attributed");
        assert!(metrics.epochs_checked > 0, "no epoch was ever checked");
        // Per-station counters are consistent with the channel totals.
        let tx: u64 = metrics.stations().iter().map(|s| s.transmitted).sum();
        assert_eq!(tx, delivered);
        assert!(metrics.stations().iter().any(|s| s.queue_high_water > 0));
    }

    #[test]
    fn undersized_budget_reports_infeasible() {
        let set = scenario::uniform(2, 8_000, Ticks(1_000_000), 0.5).unwrap();
        let config = DdcrConfig::for_sources(2, Ticks(31_250)).unwrap();
        let allocation = StaticAllocation::one_per_source(config.static_tree, 2).unwrap();
        let schedule = ScheduleBuilder::peak_load(&set)
            .build(Ticks(10_000_000))
            .unwrap();
        let err = run(
            &set,
            schedule,
            &config,
            &allocation,
            MediumConfig::ethernet(),
            RunLimit::Completion(Ticks(100_000)),
        )
        .unwrap_err();
        assert!(matches!(err, DdcrError::Infeasible(_)));
    }
}
