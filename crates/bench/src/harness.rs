//! Protocol-comparison harness: run one workload through any of the MAC
//! protocols under identical channel conditions and summarise the outcome.

use ddcr_baseline::{CsmaCdStation, DcrStation, NpEdfOracle, QueueDiscipline};
use ddcr_core::{network, DdcrConfig, StaticAllocation};
use ddcr_sim::{ChannelStats, Engine, MediumConfig, Message, SourceId, Ticks};
use ddcr_traffic::MessageSet;

/// Which MAC protocol to run.
#[derive(Debug, Clone)]
pub enum ProtocolKind {
    /// CSMA/DDCR with an explicit configuration (round-robin static index
    /// allocation over the whole static tree).
    Ddcr(DdcrConfig),
    /// IEEE 802.3 CSMA-CD with binary exponential backoff.
    CsmaCd(QueueDiscipline, u64),
    /// CSMA/DCR (802.3D), deterministic static-tree resolution.
    Dcr(QueueDiscipline),
    /// Centralized NP-EDF oracle (zero-contention lower bound).
    NpEdf,
}

impl ProtocolKind {
    /// Returns this protocol reseeded for one sweep job. Only CSMA-CD is
    /// stochastic; the deterministic protocols come back unchanged. The
    /// sweep runner calls this with a seed derived from
    /// `(master_seed, job_index)` so a grid's results are a pure function
    /// of the grid and the master seed, whatever the worker count.
    #[must_use]
    pub fn with_seed(&self, seed: u64) -> ProtocolKind {
        match self {
            ProtocolKind::CsmaCd(discipline, _) => ProtocolKind::CsmaCd(*discipline, seed),
            other => other.clone(),
        }
    }

    /// Short name for tables and CSV.
    pub fn name(&self) -> String {
        match self {
            ProtocolKind::Ddcr(cfg) if cfg.bursting.is_some() => "ddcr+burst".into(),
            ProtocolKind::Ddcr(cfg) if cfg.theta_numerator > 0 => {
                format!("ddcr(theta={})", cfg.theta_numerator)
            }
            ProtocolKind::Ddcr(_) => "ddcr".into(),
            ProtocolKind::CsmaCd(QueueDiscipline::Fifo, _) => "csma-cd/fifo".into(),
            ProtocolKind::CsmaCd(QueueDiscipline::Edf, _) => "csma-cd/edf".into(),
            ProtocolKind::Dcr(_) => "csma-dcr".into(),
            ProtocolKind::NpEdf => "np-edf".into(),
        }
    }
}

/// Outcome summary of one protocol run.
///
/// `PartialEq` is field-for-field (including the `f64` fields, compared
/// exactly): the determinism regression tests assert that sweeps produce
/// *bitwise* identical summaries for any worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Protocol name.
    pub protocol: String,
    /// Messages scheduled.
    pub scheduled: usize,
    /// Messages delivered.
    pub delivered: usize,
    /// Deadline misses among deliveries **plus** undelivered messages
    /// (dropped by the protocol or still queued at cutoff).
    pub misses: usize,
    /// `misses / scheduled` (0 when nothing scheduled).
    pub miss_ratio: f64,
    /// Mean delivery latency in ticks.
    pub mean_latency: f64,
    /// Worst delivery latency in ticks.
    pub max_latency: u64,
    /// Median delivery latency in ticks (histogram bucket upper bound).
    pub p50_latency: u64,
    /// 95th-percentile delivery latency in ticks (histogram bucket upper
    /// bound).
    pub p95_latency: u64,
    /// 99th-percentile delivery latency in ticks (histogram bucket upper
    /// bound).
    pub p99_latency: u64,
    /// Worst observed per-epoch time-tree search overhead (empty + collision
    /// slots). Zero for protocols without live ξ metrics.
    pub xi_observed: u64,
    /// Channel utilization (busy fraction).
    pub utilization: f64,
    /// Collision events on the channel.
    pub collisions: u64,
    /// Total simulated ticks.
    pub total_ticks: u64,
    /// Whether the workload fully drained within the budget.
    pub completed: bool,
}

impl RunSummary {
    /// Builds a summary from streaming counters and the latency histogram
    /// only — it never touches `stats.deliveries`, so it is exact even for
    /// runs with delivery retention disabled.
    fn from_stats(
        protocol: String,
        scheduled: usize,
        stats: &ChannelStats,
        completed: bool,
        xi_observed: u64,
    ) -> Self {
        let delivered = usize::try_from(stats.delivered).unwrap_or(usize::MAX);
        let undelivered = scheduled.saturating_sub(delivered);
        let misses = stats.deadline_misses() + undelivered;
        let (p50, p95, p99) = stats.histogram_percentiles();
        RunSummary {
            protocol,
            scheduled,
            delivered,
            misses,
            miss_ratio: if scheduled == 0 {
                0.0
            } else {
                misses as f64 / scheduled as f64
            },
            mean_latency: stats.mean_latency(),
            max_latency: stats.max_latency().as_u64(),
            p50_latency: p50.as_u64(),
            p95_latency: p95.as_u64(),
            p99_latency: p99.as_u64(),
            xi_observed,
            utilization: stats.utilization(),
            collisions: stats.collisions,
            total_ticks: stats.total_ticks.as_u64(),
            completed,
        }
    }
}

/// A reasonable CSMA/DDCR configuration for a message set: class width
/// sized so the horizon covers the largest deadline, round-robin static
/// allocation, no compressed time, no bursting.
///
/// # Panics
///
/// Panics if the set has zero sources (nothing to configure).
pub fn default_ddcr_config(set: &MessageSet, medium: &MediumConfig) -> DdcrConfig {
    let c = network::recommended_class_width(set, 64, medium);
    DdcrConfig::for_sources(set.sources(), c).expect("message set must have sources")
}

/// Runs `schedule` through the chosen protocol on `medium`, giving up (and
/// reporting `completed = false`) after `budget` ticks.
///
/// # Errors
///
/// Returns a descriptive string on assembly failures (bad configuration,
/// schedule referencing unknown sources).
pub fn run_protocol(
    kind: &ProtocolKind,
    set: &MessageSet,
    schedule: &[Message],
    medium: MediumConfig,
    budget: Ticks,
) -> Result<RunSummary, String> {
    let scheduled = schedule.len();
    let name = kind.name();
    match kind {
        ProtocolKind::Ddcr(config) => {
            let allocation = StaticAllocation::round_robin(config.static_tree, set.sources())
                .map_err(|e| e.to_string())?;
            let mut engine = network::build_engine(set, config, &allocation, medium)
                .map_err(|e| e.to_string())?;
            let (time, static_) = network::xi_bound_tables(config).map_err(|e| e.to_string())?;
            engine.set_xi_bounds(time, static_);
            run_engine(&mut engine, schedule, budget, name, scheduled)
        }
        ProtocolKind::CsmaCd(discipline, seed) => {
            let mut engine = Engine::new(medium).map_err(|e| e.to_string())?;
            for i in 0..set.sources() {
                engine.add_station(Box::new(CsmaCdStation::new(
                    SourceId(i),
                    medium,
                    *discipline,
                    *seed,
                )));
            }
            run_engine(&mut engine, schedule, budget, name, scheduled)
        }
        ProtocolKind::Dcr(discipline) => {
            let mut engine = Engine::new(medium).map_err(|e| e.to_string())?;
            for i in 0..set.sources() {
                engine.add_station(Box::new(
                    DcrStation::new(SourceId(i), set.sources(), medium, *discipline)
                        .map_err(|e| e.to_string())?,
                ));
            }
            run_engine(&mut engine, schedule, budget, name, scheduled)
        }
        ProtocolKind::NpEdf => {
            let stats = NpEdfOracle::run_schedule(medium, schedule.to_vec(), budget)
                .map_err(|e| e.to_string())?;
            Ok(RunSummary::from_stats(name, scheduled, &stats, true, 0))
        }
    }
}

/// Runs several protocols over the same workload.
///
/// # Errors
///
/// Propagates the first protocol assembly failure.
pub fn compare(
    kinds: &[ProtocolKind],
    set: &MessageSet,
    schedule: &[Message],
    medium: MediumConfig,
    budget: Ticks,
) -> Result<Vec<RunSummary>, String> {
    kinds
        .iter()
        .map(|k| run_protocol(k, set, schedule, medium, budget))
        .collect()
}

fn run_engine(
    engine: &mut Engine,
    schedule: &[Message],
    budget: Ticks,
    name: String,
    scheduled: usize,
) -> Result<RunSummary, String> {
    // Sweep jobs only read streaming counters and the latency histogram,
    // so drop per-delivery records entirely: memory stays constant however
    // long the run is.
    engine.set_retention(Some(0), Some(0));
    engine
        .add_arrivals(schedule.to_vec())
        .map_err(|e| e.to_string())?;
    let completed = engine.run_to_completion(budget).is_ok();
    let xi_observed = engine
        .take_metrics()
        .map(|m| m.max_tts_overhead)
        .unwrap_or(0);
    Ok(RunSummary::from_stats(
        name,
        scheduled,
        engine.stats(),
        completed,
        xi_observed,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddcr_traffic::{scenario, ScheduleBuilder};

    fn workload() -> (MessageSet, Vec<Message>) {
        let set = scenario::uniform(4, 8_000, Ticks(5_000_000), 0.2).unwrap();
        let schedule = ScheduleBuilder::peak_load(&set)
            .build(Ticks(2_000_000))
            .unwrap();
        (set, schedule)
    }

    #[test]
    fn all_protocols_drain_a_light_workload() {
        let (set, schedule) = workload();
        let medium = MediumConfig::ethernet();
        let kinds = [
            ProtocolKind::Ddcr(default_ddcr_config(&set, &medium)),
            ProtocolKind::CsmaCd(QueueDiscipline::Fifo, 1),
            ProtocolKind::Dcr(QueueDiscipline::Fifo),
            ProtocolKind::NpEdf,
        ];
        for summary in compare(&kinds, &set, &schedule, medium, Ticks(1_000_000_000)).unwrap() {
            assert!(summary.completed, "{} did not complete", summary.protocol);
            assert_eq!(summary.delivered, summary.scheduled, "{}", summary.protocol);
        }
    }

    #[test]
    fn oracle_has_no_collisions_and_lowest_latency() {
        let (set, schedule) = workload();
        let medium = MediumConfig::ethernet();
        let oracle = run_protocol(
            &ProtocolKind::NpEdf,
            &set,
            &schedule,
            medium,
            Ticks(1_000_000_000),
        )
        .unwrap();
        let ddcr = run_protocol(
            &ProtocolKind::Ddcr(default_ddcr_config(&set, &medium)),
            &set,
            &schedule,
            medium,
            Ticks(1_000_000_000),
        )
        .unwrap();
        assert_eq!(oracle.collisions, 0);
        assert!(oracle.max_latency <= ddcr.max_latency);
    }

    #[test]
    fn names_are_distinct() {
        let medium = MediumConfig::ethernet();
        let set = scenario::uniform(2, 1_000, Ticks(1_000_000), 0.1).unwrap();
        let cfg = default_ddcr_config(&set, &medium);
        let names: Vec<String> = [
            ProtocolKind::Ddcr(cfg),
            ProtocolKind::Ddcr(cfg.with_compressed_time(2)),
            ProtocolKind::Ddcr(cfg.with_bursting(ddcr_core::BurstConfig::default())),
            ProtocolKind::CsmaCd(QueueDiscipline::Fifo, 0),
            ProtocolKind::CsmaCd(QueueDiscipline::Edf, 0),
            ProtocolKind::Dcr(QueueDiscipline::Fifo),
            ProtocolKind::NpEdf,
        ]
        .iter()
        .map(ProtocolKind::name)
        .collect();
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "{names:?}");
    }
}
