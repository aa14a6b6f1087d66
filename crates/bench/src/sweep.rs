//! Parallel deterministic sweep runner.
//!
//! Experiment binaries drive grids of `(protocol, scenario, seed)` runs.
//! Each run is an independent, deterministic simulation, so a sweep
//! parallelises perfectly — *provided* nothing about the result depends on
//! scheduling. This module guarantees that by construction:
//!
//! * every job's RNG seed is derived from `(master_seed, job_index)` via
//!   [`ddcr_sim::rng::job_seed`] — never from worker identity or clock;
//! * jobs run on the shared ordered executor ([`ddcr_sim::exec`]), which
//!   returns results **in job order** — inline when one worker (or one
//!   core) is all there is;
//! * shared read-only state (the `ξ_k^t` tables of [`ddcr_tree::cache`])
//!   is memoized behind a lock, and a pure function of the tree shape.
//!
//! Consequently a sweep's outcome vector is bitwise identical for any
//! worker count (`--jobs 1` vs `--jobs 8`), which the integration tests
//! assert. Wall-clock and cache hit/miss counters are recorded per job —
//! those *do* vary run to run and are reported separately from the
//! deterministic [`RunSummary`] payload.
//!
//! Two layers:
//!
//! * [`run_indexed`] — generic fan-out of `count` indexed jobs over the
//!   executor; each job closure gets a [`JobContext`] (index + derived seed)
//!   and may return any `Send` value.
//! * [`SweepGrid`] — a grid of protocol-comparison jobs returning
//!   [`RunSummary`]s, the common case for the `exp_*` binaries.

use std::time::{Duration, Instant};

use ddcr_sim::{exec, MediumConfig, Message, Ticks};
use ddcr_traffic::MessageSet;
use ddcr_tree::cache::{self, CacheStats};

use crate::harness::{run_protocol, ProtocolKind, RunSummary};

/// Worker-pool configuration for a sweep.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Number of worker threads (≥ 1).
    pub workers: usize,
    /// Master seed every job seed is derived from.
    pub master_seed: u64,
}

impl SweepConfig {
    /// A config with an explicit worker count (clamped to ≥ 1).
    #[must_use]
    pub fn new(workers: usize, master_seed: u64) -> Self {
        SweepConfig {
            workers: workers.max(1),
            master_seed,
        }
    }

    /// Resolves the worker count like the `exp_*` binaries do: an explicit
    /// `--jobs` value wins, else all available cores.
    #[must_use]
    pub fn resolve(jobs_flag: Option<usize>, master_seed: u64) -> Self {
        let workers = jobs_flag.unwrap_or_else(|| {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        });
        SweepConfig::new(workers, master_seed)
    }
}

/// Parses the `--jobs N` pair out of raw process arguments (the experiment
/// binaries take no other flags, so a full parser is not warranted).
///
/// # Errors
///
/// A `--jobs` with no value, or a value that is not a worker count.
fn parse_jobs_flag(args: &[String]) -> Result<Option<usize>, String> {
    let Some(at) = args.iter().position(|arg| arg == "--jobs") else {
        return Ok(None);
    };
    let value = args.get(at + 1).ok_or("--jobs needs a value")?;
    value
        .parse()
        .map(Some)
        .map_err(|_| format!("--jobs expects a worker count, got {value:?}"))
}

/// The `--jobs N` value of this process's arguments, if given. A malformed
/// value is fatal: it prints the error and exits with status 2.
#[must_use]
pub fn jobs_flag_from_args() -> Option<usize> {
    let args: Vec<String> = std::env::args().collect();
    parse_jobs_flag(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

/// Per-job inputs handed to a job closure.
#[derive(Debug, Clone, Copy)]
pub struct JobContext {
    /// Position of this job in the grid (also its reassembly key).
    pub index: usize,
    /// Seed derived from `(master_seed, index)` — the only randomness a
    /// job may use if the sweep is to stay reproducible.
    pub seed: u64,
}

/// One completed job: its deterministic value plus performance metadata.
#[derive(Debug, Clone)]
pub struct JobOutcome<T> {
    /// Grid position.
    pub index: usize,
    /// The derived job seed (for reproducing this job alone).
    pub seed: u64,
    /// Wall-clock time this job took on its worker.
    pub wall: Duration,
    /// Search-time-table cache traffic attributed to this job.
    pub cache: CacheStats,
    /// The job's return value.
    pub value: T,
}

/// A completed sweep, outcomes in job order.
#[derive(Debug, Clone)]
pub struct IndexedReport<T> {
    /// One entry per job, index order.
    pub outcomes: Vec<JobOutcome<T>>,
    /// End-to-end wall-clock for the whole sweep.
    pub wall_clock: Duration,
    /// Worker threads used.
    pub workers: usize,
}

impl<T> IndexedReport<T> {
    /// Total cache traffic across all jobs.
    #[must_use]
    pub fn cache_totals(&self) -> CacheStats {
        self.outcomes
            .iter()
            .fold(CacheStats::default(), |acc, o| CacheStats {
                hits: acc.hits + o.cache.hits,
                misses: acc.misses + o.cache.misses,
            })
    }

    /// Sum of per-job wall-clock times (the sequential-equivalent cost;
    /// divide by [`Self::wall_clock`] for the observed speedup).
    #[must_use]
    pub fn cpu_time(&self) -> Duration {
        self.outcomes.iter().map(|o| o.wall).sum()
    }

    /// One-line performance summary for experiment stdout.
    #[must_use]
    pub fn perf_line(&self) -> String {
        let cache = self.cache_totals();
        format!(
            "sweep: {} jobs on {} workers, wall {:.2}s, cpu {:.2}s (speedup {:.2}x), table cache {} hits / {} misses",
            self.outcomes.len(),
            self.workers,
            self.wall_clock.as_secs_f64(),
            self.cpu_time().as_secs_f64(),
            self.cpu_time().as_secs_f64() / self.wall_clock.as_secs_f64().max(1e-9),
            cache.hits,
            cache.misses,
        )
    }
}

/// Fans `count` jobs out over the ordered executor ([`exec::map_ordered`]).
///
/// The closure runs once per index with that job's [`JobContext`].
/// Completion order is arbitrary, but the output vector is ordered by
/// index and every seed is a pure function of `(master_seed, index)`,
/// making the value part of the report independent of `config.workers`.
///
/// # Panics
///
/// Propagates the first job panic.
pub fn run_indexed<T, F>(config: SweepConfig, count: usize, job: F) -> IndexedReport<T>
where
    T: Send,
    F: Fn(JobContext) -> T + Sync,
{
    let started = Instant::now();
    let outcomes = exec::map_ordered(config.workers, vec![(); count], |index, ()| {
        let context = JobContext {
            index,
            seed: ddcr_sim::rng::job_seed(config.master_seed, index as u64),
        };
        let cache_before = cache::thread_stats();
        let job_started = Instant::now();
        let value = job(context);
        JobOutcome {
            index,
            seed: context.seed,
            wall: job_started.elapsed(),
            cache: cache::thread_stats().since(cache_before),
            value,
        }
    });
    IndexedReport {
        outcomes,
        wall_clock: started.elapsed(),
        workers: exec::workers(config.workers, count),
    }
}

/// One cell of a protocol-comparison grid.
#[derive(Debug, Clone)]
pub struct SweepJob {
    /// Scenario label carried into reports and CSV.
    pub label: String,
    /// Protocol to run. Stochastic protocols (CSMA-CD) are reseeded with
    /// the derived job seed, so the grid's results depend only on
    /// `(master_seed, job_index)`.
    pub kind: ProtocolKind,
    /// The traffic contract the engine is assembled from.
    pub set: MessageSet,
    /// Concrete arrivals to replay.
    pub schedule: Vec<Message>,
    /// Channel model.
    pub medium: MediumConfig,
    /// Give-up horizon.
    pub budget: Ticks,
}

/// A grid of protocol-comparison jobs.
#[derive(Debug, Clone, Default)]
pub struct SweepGrid {
    jobs: Vec<SweepJob>,
}

impl SweepGrid {
    /// An empty grid.
    #[must_use]
    pub fn new() -> Self {
        SweepGrid::default()
    }

    /// Appends one job.
    pub fn push(&mut self, job: SweepJob) {
        self.jobs.push(job);
    }

    /// Appends one job per protocol kind over a shared workload — the
    /// common "compare protocols on this scenario" cell block.
    pub fn push_comparison(
        &mut self,
        label: &str,
        kinds: &[ProtocolKind],
        set: &MessageSet,
        schedule: &[Message],
        medium: MediumConfig,
        budget: Ticks,
    ) {
        for kind in kinds {
            self.push(SweepJob {
                label: label.to_owned(),
                kind: kind.clone(),
                set: set.clone(),
                schedule: schedule.to_vec(),
                medium,
                budget,
            });
        }
    }

    /// Number of jobs in the grid.
    #[must_use]
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the grid is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Runs the grid on the shared executor. Results come back in job order;
    /// the deterministic part ([`SweepOutcome::summary`]) is bitwise
    /// independent of `config.workers`.
    #[must_use]
    pub fn run(&self, config: SweepConfig) -> SweepReport {
        let report = run_indexed(config, self.jobs.len(), |context| {
            let job = &self.jobs[context.index];
            run_protocol(
                &job.kind.with_seed(context.seed),
                &job.set,
                &job.schedule,
                job.medium,
                job.budget,
            )
        });
        let wall_clock = report.wall_clock;
        let workers = report.workers;
        let outcomes = report
            .outcomes
            .into_iter()
            .map(|outcome| SweepOutcome {
                index: outcome.index,
                label: self.jobs[outcome.index].label.clone(),
                protocol: self.jobs[outcome.index].kind.name(),
                seed: outcome.seed,
                wall: outcome.wall,
                cache: outcome.cache,
                summary: outcome.value,
            })
            .collect();
        SweepReport {
            outcomes,
            wall_clock,
            workers,
        }
    }
}

/// One completed protocol-comparison job.
#[derive(Debug, Clone)]
pub struct SweepOutcome {
    /// Grid position.
    pub index: usize,
    /// Scenario label from the job.
    pub label: String,
    /// Protocol name (as reported in CSV).
    pub protocol: String,
    /// Derived job seed.
    pub seed: u64,
    /// Wall-clock on the worker (non-deterministic; excluded from the
    /// determinism guarantee).
    pub wall: Duration,
    /// Table-cache traffic attributed to this job (depends on job
    /// interleaving; excluded from the determinism guarantee).
    pub cache: CacheStats,
    /// The run's deterministic result.
    pub summary: Result<RunSummary, String>,
}

/// A completed protocol sweep.
#[derive(Debug, Clone)]
pub struct SweepReport {
    /// One entry per job, in job order.
    pub outcomes: Vec<SweepOutcome>,
    /// End-to-end wall-clock.
    pub wall_clock: Duration,
    /// Worker threads used.
    pub workers: usize,
}

impl SweepReport {
    /// The deterministic summaries in job order, or the first job error.
    ///
    /// # Errors
    ///
    /// Returns the first failed job's message (in job order).
    pub fn summaries(&self) -> Result<Vec<RunSummary>, String> {
        self.outcomes.iter().map(|o| o.summary.clone()).collect()
    }

    /// Total cache traffic across all jobs.
    #[must_use]
    pub fn cache_totals(&self) -> CacheStats {
        self.outcomes
            .iter()
            .fold(CacheStats::default(), |acc, o| CacheStats {
                hits: acc.hits + o.cache.hits,
                misses: acc.misses + o.cache.misses,
            })
    }

    /// Sum of per-job wall-clock times (sequential-equivalent cost).
    #[must_use]
    pub fn cpu_time(&self) -> Duration {
        self.outcomes.iter().map(|o| o.wall).sum()
    }

    /// One-line performance summary for experiment stdout.
    #[must_use]
    pub fn perf_line(&self) -> String {
        let cache = self.cache_totals();
        format!(
            "sweep: {} jobs on {} workers, wall {:.2}s, cpu {:.2}s (speedup {:.2}x), table cache {} hits / {} misses",
            self.outcomes.len(),
            self.workers,
            self.wall_clock.as_secs_f64(),
            self.cpu_time().as_secs_f64(),
            self.cpu_time().as_secs_f64() / self.wall_clock.as_secs_f64().max(1e-9),
            cache.hits,
            cache.misses,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddcr_baseline::QueueDiscipline;
    use ddcr_traffic::{scenario, ScheduleBuilder};

    fn tiny_grid() -> SweepGrid {
        let medium = MediumConfig::ethernet();
        let set = scenario::uniform(4, 8_000, Ticks(5_000_000), 0.2).unwrap();
        let schedule = ScheduleBuilder::peak_load(&set)
            .build(Ticks(2_000_000))
            .unwrap();
        let kinds = [
            ProtocolKind::Ddcr(crate::harness::default_ddcr_config(&set, &medium)),
            ProtocolKind::CsmaCd(QueueDiscipline::Fifo, 7),
            ProtocolKind::NpEdf,
        ];
        let mut grid = SweepGrid::new();
        grid.push_comparison(
            "uniform",
            &kinds,
            &set,
            &schedule,
            medium,
            Ticks(1_000_000_000),
        );
        grid
    }

    #[test]
    fn results_are_identical_for_any_worker_count() {
        let grid = tiny_grid();
        let one = grid.run(SweepConfig::new(1, 99)).summaries().unwrap();
        let four = grid.run(SweepConfig::new(4, 99)).summaries().unwrap();
        assert_eq!(one, four);
    }

    #[test]
    fn job_seeds_depend_on_index_not_workers() {
        let config_a = SweepConfig::new(1, 5);
        let config_b = SweepConfig::new(3, 5);
        let a = run_indexed(config_a, 6, |ctx| ctx.seed);
        let b = run_indexed(config_b, 6, |ctx| ctx.seed);
        let seeds_a: Vec<u64> = a.outcomes.iter().map(|o| o.value).collect();
        let seeds_b: Vec<u64> = b.outcomes.iter().map(|o| o.value).collect();
        assert_eq!(seeds_a, seeds_b);
        let mut unique = seeds_a.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds_a.len(), "job seeds must be distinct");
    }

    #[test]
    fn outcomes_come_back_in_job_order() {
        let report = run_indexed(SweepConfig::new(4, 0), 32, |ctx| ctx.index * 10);
        for (i, outcome) in report.outcomes.iter().enumerate() {
            assert_eq!(outcome.index, i);
            assert_eq!(outcome.value, i * 10);
        }
    }

    #[test]
    fn worker_count_is_clamped_to_job_count() {
        // The report names the threads that actually ran: never more than
        // the jobs, and never more than the host's cores.
        let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let report = run_indexed(SweepConfig::new(64, 0), 3, |ctx| ctx.index);
        assert_eq!(report.workers, 3.min(host));
        assert_eq!(report.outcomes.len(), 3);
    }

    #[test]
    fn resolve_uses_flag_else_host_cores() {
        let config = SweepConfig::resolve(Some(5), 1);
        assert_eq!(config.workers, 5);
        let host = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(SweepConfig::resolve(None, 1).workers, host);
        let config = SweepConfig::new(0, 1);
        assert_eq!(config.workers, 1, "zero workers clamps to one");
    }

    #[test]
    fn jobs_flag_rejects_malformed_values() {
        let args = |list: &[&str]| list.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>();
        assert_eq!(parse_jobs_flag(&args(&["exp"])), Ok(None));
        assert_eq!(parse_jobs_flag(&args(&["exp", "--jobs", "8"])), Ok(Some(8)));
        assert!(parse_jobs_flag(&args(&["exp", "--jobs", "abc"])).is_err());
        assert!(parse_jobs_flag(&args(&["exp", "--jobs", "-1"])).is_err());
        assert!(parse_jobs_flag(&args(&["exp", "--jobs"])).is_err());
    }

    #[test]
    fn grid_reseeds_stochastic_protocols_per_job() {
        let grid = tiny_grid();
        let report = grid.run(SweepConfig::new(2, 123));
        // The CSMA-CD job (index 1) must have been reseeded with its
        // derived job seed, not the literal 7 from the grid.
        assert_eq!(report.outcomes[1].seed, ddcr_sim::rng::job_seed(123, 1));
        for outcome in &report.outcomes {
            assert!(outcome.summary.is_ok());
        }
    }
}
