//! Engine hot-path benchmark suite and the `BENCH_engine.json` perf gate.
//!
//! Three families of measurements, mirroring the Criterion bench
//! `benches/engine.rs` but runnable standalone (CLI `bench-engine`, the
//! `bench_engine` binary, CI):
//!
//! 1. **Idle fast-forward** — an idle-heavy scenario (low load, ≥ 32
//!    stations) run through the optimized engine and through the retained
//!    reference stepper (fast-forward and the active-set scheduler both
//!    off, the pre-overhaul poll-everyone slot loop). Reports slot
//!    throughput for both and their ratio; the gate requires the speedup
//!    to be ≥ 2× and the two runs to produce identical [`ChannelStats`].
//! 2. **Loaded fast-forward** — a bursting drain (clustered small-message
//!    arrivals draining through bursting DDCR) run with every tier on —
//!    the idle and contention fast-forward switches plus the active-set
//!    scheduler — versus the full reference stepper (all three disabled),
//!    across a stations × load grid. The gate requires ≥ 5× at load 0.5
//!    **and** at load 0.8 on the ≥ 32-station scenario and identical
//!    statistics everywhere.
//! 3. **Contention fast-forward** — a contention-heavy scenario
//!    (simultaneous arrival waves forcing whole tree searches, no
//!    bursting) run with the contention tier on versus off while the idle
//!    tier stays on in both runs, isolating the contention tier's
//!    contribution. The gate requires identical statistics and proof via
//!    telemetry that the tier actually engaged (`search_skip_runs > 0`).
//! 4. **Protocol drain** — DDCR, CSMA-CD and NP-EDF draining the same
//!    workload at several station counts and loads; reports simulated
//!    ticks per wall-clock second.
//! 5. **Station scale** — a sparse DDCR workload (one backlogged station
//!    at a time) swept across station counts 64→4096, run with the
//!    active-set scheduler on versus off while both fast-forward tiers
//!    stay on in both runs, isolating the active-set tier's
//!    contribution. The gate requires ≥ 5× wall-clock at n ≥ 2048 and
//!    identical statistics at every grid point; the report also carries
//!    the poll-count telemetry (`polls` / `station_slots`) showing the
//!    tier visits only contenders.
//!    One extra point runs 1024 stations under a seeded crash
//!    [`FaultPlan`], gated on completion and equivalence only.
//! 6. **EDF queue ops** — `EdfQueue` push/pop throughput at benchmark
//!    scale (exercises the `O(log n)` binary-heap path).
//! 7. **Engine assembly** — building and dropping a z-station DDCR
//!    engine through `network::build_engine` at z = 256, 1024 and 2048.
//!    The gate requires the per-station cost at the largest point to
//!    stay within [`MAX_ASSEMBLY_GROWTH`]× the smallest: assembly is
//!    linear in z.
//! 8. **Admission** — one `Membership::admit` request (the `ddcr serve`
//!    flow path) against 128 and 1024 admitted flows, median of
//!    [`ADMISSION_SAMPLES`] requests. The gate requires the cost per
//!    admitted class at 1024 to stay within [`MAX_ADMISSION_GROWTH`]× the
//!    cost at 128: a request is linear in the admitted set.
//!
//! All wall-clock numbers are single-machine and profile-dependent; the
//! deterministic fields (`slots`, `delivered`, `equivalent`) are exact.
//! See `docs/PERF.md` for the report schema and gating rules.

use crate::harness::{default_ddcr_config, run_protocol, ProtocolKind};
use crate::json::Json;
use ddcr_baseline::QueueDiscipline;
use ddcr_core::{
    network, AdmissionDecision, BurstConfig, DdcrConfig, EdfQueue, FlowRequest, Membership,
    StaticAllocation,
};
use ddcr_sim::{
    ChannelStats, ClassId, FaultPlan, FaultRates, MediumConfig, Message, MessageId, SourceId, Ticks,
};
use ddcr_traffic::{scenario, MessageSet, ScheduleBuilder};
use std::time::Instant;

/// Current `BENCH_engine.json` schema version.
///
/// Version 3 added the `contention_fast_forward` section and promoted the
/// loaded `(≥ 32, 0.8)` grid point from informational to gated.
/// Version 4 added the `multichannel` section: parallel-channel wall-clock
/// scaling (gated on hosts with ≥ 4 cores), worker-count equivalence, and
/// the pinned §3.1 capacity win (z=32 infeasible at C=1, provable and
/// deadline-miss-free at C=4).
/// Version 5 added the `federation` section: epoch-round bridged-segment
/// scaling on the shared executor — worker-count equivalence and N=1 ≡
/// single-bus enforced everywhere, wall-clock speedup gated on hosts with
/// ≥ [`MIN_GATED_PARALLELISM`] cores.
/// Version 6 added the `station_scale` section: the active-set scheduler
/// swept across station counts on a sparse workload, gated ≥
/// [`MIN_STATION_SCALE_SPEEDUP`]× at n ≥ [`STATION_SCALE_GATED_AT`] with
/// equivalence and completion enforced at every grid point.
/// Version 7 added the `assembly` array (engine build-plus-drop cost,
/// gated on per-station growth ≤ [`MAX_ASSEMBLY_GROWTH`]×) and the
/// `faulted` / `crashes` fields of `station_scale` entries, with one
/// crash-faulted point required.
/// Version 8 added the `admission` array (one `Membership::admit` request
/// at two admitted-set sizes, gated on per-class growth ≤
/// [`MAX_ADMISSION_GROWTH`]×).
/// Version 9 added the `fault_plan` array (seeded crash-plan generation at
/// the `sparse-crash` shape, with the scan instance the host ran):
/// informational, checked for presence and shape only.
pub const SCHEMA_VERSION: u64 = 9;

/// Default report location (relative to the workspace root, like
/// `results/`).
pub const REPORT_PATH: &str = "BENCH_engine.json";

/// Gate threshold: the optimized engine must clear at least this slot
/// throughput multiple over the reference stepper on the idle-heavy
/// scenario.
pub const MIN_IDLE_SPEEDUP: f64 = 2.0;

/// Gate threshold: with every tier on, the engine must clear at least this wall-clock multiple over the full reference
/// stepper on the loaded (≥ 32 stations) bursting scenario, at load 0.5
/// and at load 0.8.
pub const MIN_LOADED_SPEEDUP: f64 = 5.0;

/// Gate threshold: running a saturated 4-channel workload on four workers
/// of the shared executor must clear at least this wall-clock multiple
/// over serial channel execution. Only enforced when the measuring host
/// reports at least [`MIN_GATED_PARALLELISM`] cores — a 4-way speedup
/// cannot exist on a 1-core box, and the report records the host width so
/// the checker can tell the cases apart. Equivalence, completion, and the
/// capacity booleans are enforced on every host.
pub const MIN_MULTICHANNEL_SPEEDUP: f64 = 2.0;

/// Host parallelism below which the multichannel wall-clock gate is
/// informational instead of enforced.
pub const MIN_GATED_PARALLELISM: u64 = 4;

/// Gate threshold: running the bridged-segment federation on four workers
/// of the shared executor must clear at least this wall-clock multiple over
/// serial segment execution. Enforced only when the measuring host
/// reports at least [`MIN_GATED_PARALLELISM`] cores, exactly like the
/// multichannel gate; equivalence, completion, bridge traffic, and the
/// N=1 ≡ single-bus identity are enforced on every host.
pub const MIN_FEDERATION_SPEEDUP: f64 = 2.0;

/// Gate threshold: with the active-set scheduler on, the engine must
/// clear at least this wall-clock multiple over the active-set-off engine
/// (both fast-forward tiers held on in both runs) on the sparse
/// station-scale sweep, at every grid point with at least
/// [`STATION_SCALE_GATED_AT`] stations.
pub const MIN_STATION_SCALE_SPEEDUP: f64 = 5.0;

/// Station count at and above which the station-scale wall-clock gate
/// binds. Below it the speedup is informational: the O(n) cost the tier
/// removes is too small to dominate wall clock at modest populations.
pub const STATION_SCALE_GATED_AT: u64 = 2048;

/// Population of the crash-faulted station-scale point.
pub const FAULTED_STATION_SCALE_AT: u32 = 1024;

/// Station counts of the engine-assembly measurement, smallest first. The
/// gate compares the per-station cost at the last point with the first.
pub const ASSEMBLY_GRID: [u32; 3] = [256, 1024, 2048];

/// Gate threshold: building and dropping an engine of the largest
/// [`ASSEMBLY_GRID`] population may cost at most this multiple of the
/// smallest population's per-station cost. A replica that held
/// network-sized state would grow with z instead.
pub const MAX_ASSEMBLY_GROWTH: f64 = 3.0;

/// Timing repeats per assembly point (minimum taken): one build is
/// sub-millisecond, so scheduler noise needs more draws than the
/// profile's repeats.
const ASSEMBLY_REPEATS: usize = 5;

/// Admitted-flow counts of the admission measurement, smallest first. The
/// gate compares the per-class cost at the last point with the first.
pub const ADMISSION_GRID: [u32; 2] = [128, 1024];

/// Gate threshold: one admission request against the largest
/// [`ADMISSION_GRID`] set may cost at most this multiple of the smallest
/// set's cost per admitted class. Re-evaluating the whole candidate set
/// per request would grow with the set instead.
pub const MAX_ADMISSION_GROWTH: f64 = 3.0;

/// Timed requests per admission point (median taken).
pub const ADMISSION_SAMPLES: usize = 31;

/// Attachment points of the admission measurement (as `serve-churn`).
const ADMISSION_STATIONS: u32 = 64;

/// Station counts of the fault-plan measurement: the `sparse-crash`
/// benchmark workload's population, and four times it.
pub const FAULT_PLAN_GRID: [u32; 2] = [256, 1024];

/// Plan horizon of the fault-plan measurement, in slots: `sparse-crash`'s
/// (the first half of a 40 ms arrival horizon in 512-tick slots).
pub const FAULT_PLAN_SLOTS: u64 = 39_062;

/// Per station-slot crash rate of the fault-plan measurement
/// (`sparse-crash`'s `--crash`).
const FAULT_PLAN_CRASH: f64 = 2e-6;

/// Timing repeats per fault-plan point (minimum taken).
const FAULT_PLAN_REPEATS: usize = 5;

/// The crash-scan instances a `fault_plan` entry may name.
const FAULT_PLAN_KERNELS: [&str; 3] = ["avx512", "avx2", "portable"];

/// How much work the suite does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// CI-sized: seconds of wall clock, small horizons.
    Smoke,
    /// Local-sized: larger horizons and an extra station count.
    Full,
}

impl Profile {
    /// Parses `"smoke"` / `"full"`.
    ///
    /// # Errors
    ///
    /// Returns the unrecognized argument.
    pub fn from_arg(arg: &str) -> Result<Profile, String> {
        match arg {
            "smoke" => Ok(Profile::Smoke),
            "full" => Ok(Profile::Full),
            other => Err(format!("unknown profile '{other}' (expected smoke|full)")),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Profile::Smoke => "smoke",
            Profile::Full => "full",
        }
    }

    /// Timing repeats per measurement (minimum taken, to shed scheduler
    /// noise).
    fn repeats(self) -> usize {
        match self {
            Profile::Smoke => 2,
            Profile::Full => 3,
        }
    }

    fn idle_slots(self) -> u64 {
        match self {
            Profile::Smoke => 400_000,
            Profile::Full => 4_000_000,
        }
    }

    /// `(stations, load)` grid for the loaded fast-forward measurement.
    /// Always includes the gated `(32, 0.5)` and `(32, 0.8)` points.
    fn loaded_grid(self) -> Vec<(u32, f64)> {
        match self {
            Profile::Smoke => vec![(8, 0.5), (32, 0.3), (32, 0.5), (32, 0.8)],
            Profile::Full => vec![
                (8, 0.3),
                (8, 0.5),
                (8, 0.8),
                (32, 0.3),
                (32, 0.5),
                (32, 0.8),
                (64, 0.5),
            ],
        }
    }

    /// Arrival clusters per station in the loaded scenario.
    fn loaded_clusters(self) -> u64 {
        match self {
            Profile::Smoke => 16,
            Profile::Full => 48,
        }
    }

    /// Simultaneous-arrival waves in the contention scenario.
    fn contention_waves(self) -> u64 {
        match self {
            Profile::Smoke => 24,
            Profile::Full => 96,
        }
    }

    fn drain_grid(self) -> Vec<(u32, f64)> {
        match self {
            Profile::Smoke => vec![(8, 0.1), (8, 0.6), (32, 0.1), (32, 0.6)],
            Profile::Full => vec![
                (8, 0.1),
                (8, 0.6),
                (32, 0.1),
                (32, 0.6),
                (64, 0.1),
                (64, 0.6),
            ],
        }
    }

    fn queue_messages(self) -> usize {
        match self {
            Profile::Smoke => 20_000,
            Profile::Full => 200_000,
        }
    }

    /// Station counts for the active-set station-scale sweep. Always
    /// includes the gated [`STATION_SCALE_GATED_AT`] point.
    fn station_scale_grid(self) -> Vec<u32> {
        match self {
            Profile::Smoke => vec![64, 512, 2048],
            Profile::Full => vec![64, 256, 1024, 2048, 4096],
        }
    }

    /// Messages per station in the station-scale sweep (the per-station
    /// load is fixed; the population is what sweeps).
    fn station_scale_rounds(self) -> u64 {
        match self {
            Profile::Smoke => 2,
            Profile::Full => 4,
        }
    }

    /// Arrival horizon for the multichannel scaling workload, in ticks.
    /// Long enough that per-channel simulation dominates thread start-up,
    /// so the serial/parallel ratio measures real scaling.
    fn multichannel_horizon(self) -> Ticks {
        match self {
            Profile::Smoke => Ticks(24_000_000),
            Profile::Full => Ticks(96_000_000),
        }
    }

    /// Arrival horizon for the federation scaling workload, in ticks.
    fn federation_horizon(self) -> Ticks {
        match self {
            Profile::Smoke => Ticks(24_000_000),
            Profile::Full => Ticks(96_000_000),
        }
    }
}

/// Result of the idle fast-forward measurement.
#[derive(Debug, Clone)]
pub struct IdleResult {
    /// Stations on the channel.
    pub stations: u32,
    /// Offered load of the scenario.
    pub load: f64,
    /// Horizon in ticks (`slots * slot_ticks`).
    pub horizon_ticks: u64,
    /// Slots the reference stepper walks.
    pub slots: u64,
    /// Optimized wall time (min over repeats), nanoseconds.
    pub fast_wall_ns: u64,
    /// Reference wall time (min over repeats), nanoseconds.
    pub reference_wall_ns: u64,
    /// Whether fast and reference runs produced identical statistics.
    pub equivalent: bool,
}

impl IdleResult {
    /// Reference-over-fast wall-clock ratio.
    pub fn speedup(&self) -> f64 {
        self.reference_wall_ns as f64 / self.fast_wall_ns.max(1) as f64
    }

    /// Slots per second for a wall time.
    fn slots_per_sec(&self, wall_ns: u64) -> f64 {
        self.slots as f64 * 1e9 / wall_ns.max(1) as f64
    }
}

/// Result of one loaded fast-forward measurement (bursting DDCR draining
/// clustered small-message arrivals, fully optimized engine vs the full
/// reference stepper).
#[derive(Debug, Clone)]
pub struct LoadedResult {
    /// Stations on the channel.
    pub stations: u32,
    /// Offered load of the scenario.
    pub load: f64,
    /// Messages scheduled (all delivered when `completed`).
    pub messages: u64,
    /// Decision slots the reference stepper resolves
    /// (silence + collisions + successful transmissions).
    pub slots: u64,
    /// Optimized wall time (min over repeats), nanoseconds.
    pub fast_wall_ns: u64,
    /// Reference wall time (min over repeats), nanoseconds.
    pub reference_wall_ns: u64,
    /// Whether fast and reference runs produced identical statistics.
    pub equivalent: bool,
    /// Whether both runs drained the workload inside the budget.
    pub completed: bool,
}

impl LoadedResult {
    /// Reference-over-fast wall-clock ratio.
    pub fn speedup(&self) -> f64 {
        self.reference_wall_ns as f64 / self.fast_wall_ns.max(1) as f64
    }

    /// Slots per second for a wall time.
    fn slots_per_sec(&self, wall_ns: u64) -> f64 {
        self.slots as f64 * 1e9 / wall_ns.max(1) as f64
    }
}

/// Result of the contention fast-forward measurement (simultaneous
/// arrival waves forcing whole tree searches, contention tier on vs off
/// with the idle tier held on in both runs).
#[derive(Debug, Clone)]
pub struct ContentionResult {
    /// Stations on the channel.
    pub stations: u32,
    /// Simultaneous-arrival waves in the workload.
    pub waves: u64,
    /// Messages scheduled (all delivered when `completed`).
    pub messages: u64,
    /// Decision slots the contention-off run resolves
    /// (silence + collisions + successful transmissions).
    pub slots: u64,
    /// Contention-tier-on wall time (min over repeats), nanoseconds.
    pub fast_wall_ns: u64,
    /// Contention-tier-off wall time (min over repeats), nanoseconds.
    pub reference_wall_ns: u64,
    /// Whether the two runs produced identical statistics.
    pub equivalent: bool,
    /// Whether both runs drained the workload inside the budget.
    pub completed: bool,
    /// Contention fast-forward runs the tier resolved (telemetry proof
    /// the tier engaged on this workload).
    pub search_skip_runs: u64,
    /// Slots resolved inside those runs.
    pub search_skipped_slots: u64,
}

impl ContentionResult {
    /// Tier-off-over-tier-on wall-clock ratio.
    pub fn speedup(&self) -> f64 {
        self.reference_wall_ns as f64 / self.fast_wall_ns.max(1) as f64
    }

    /// Slots per second for a wall time.
    fn slots_per_sec(&self, wall_ns: u64) -> f64 {
        self.slots as f64 * 1e9 / wall_ns.max(1) as f64
    }
}

/// Result of one protocol drain measurement.
#[derive(Debug, Clone)]
pub struct DrainResult {
    /// Protocol name (harness naming).
    pub protocol: String,
    /// Stations on the channel.
    pub stations: u32,
    /// Offered load.
    pub load: f64,
    /// Wall time (min over repeats), nanoseconds.
    pub wall_ns: u64,
    /// Simulated ticks covered by the run.
    pub sim_ticks: u64,
    /// Messages delivered.
    pub delivered: usize,
    /// Whether the workload drained inside the budget.
    pub completed: bool,
}

/// Result of one station-scale measurement (sparse DDCR workload with one
/// backlogged station at a time, active-set scheduler on vs off with both
/// fast-forward tiers held on in both runs — the speedup isolates the
/// active-set tier's contribution).
#[derive(Debug, Clone)]
pub struct StationScaleResult {
    /// Stations on the channel.
    pub stations: u32,
    /// Messages scheduled (all delivered when `completed`).
    pub messages: u64,
    /// Decision slots the run resolves (identical in both runs).
    pub slots: u64,
    /// Active-set-on wall time (min over repeats), nanoseconds.
    pub active_wall_ns: u64,
    /// Active-set-off wall time (min over repeats), nanoseconds.
    pub baseline_wall_ns: u64,
    /// Whether the two runs produced identical statistics.
    pub equivalent: bool,
    /// Whether both runs drained the workload inside the budget.
    pub completed: bool,
    /// `poll()` calls the active-set run issued (telemetry proof the
    /// tier visits only contenders).
    pub polls: u64,
    /// Decision slots × population — what a naive stepper would poll.
    pub station_slots: u64,
    /// Whether both runs replayed a seeded crash [`FaultPlan`].
    pub faulted: bool,
    /// Station crashes the active-set run processed (0 unless faulted).
    pub crashes: u64,
}

impl StationScaleResult {
    /// Active-set-off-over-on wall-clock ratio.
    pub fn speedup(&self) -> f64 {
        self.baseline_wall_ns as f64 / self.active_wall_ns.max(1) as f64
    }

    /// Fraction of station-slots the active-set run actually polled.
    pub fn poll_fraction(&self) -> f64 {
        self.polls as f64 / self.station_slots.max(1) as f64
    }
}

/// Result of the multichannel scaling measurement: a saturated
/// 4-channel videoconference fabric run serially (1 worker) and on one
/// worker per channel, plus the §3.1 capacity facts the gate pins.
#[derive(Debug, Clone)]
pub struct MultichannelResult {
    /// Parallel channels in the fabric.
    pub channels: usize,
    /// Videoconference participants (message sources).
    pub participants: u32,
    /// Messages scheduled across all channels.
    pub messages: u64,
    /// Workers used for the parallel run.
    pub workers: usize,
    /// `available_parallelism()` of the measuring host — the checker
    /// enforces the speedup gate only when this is ≥
    /// [`MIN_GATED_PARALLELISM`].
    pub host_parallelism: usize,
    /// Serial (1-worker) wall time (min over repeats), nanoseconds.
    pub serial_wall_ns: u64,
    /// Pooled wall time (min over repeats), nanoseconds.
    pub parallel_wall_ns: u64,
    /// Whether serial and pooled runs produced identical per-channel
    /// statistics.
    pub equivalent: bool,
    /// Whether every channel drained inside the budget (both runs).
    pub completed: bool,
    /// Deadline misses across all channels (must be 0: the fabric is
    /// provably feasible).
    pub misses: u64,
    /// Whether the same workload passes the feasibility conditions on a
    /// single channel (must be `false` — the capacity win is vacuous
    /// otherwise).
    pub single_channel_feasible: bool,
    /// Whether every channel of the split fabric passes the feasibility
    /// conditions (must be `true`).
    pub multi_channel_feasible: bool,
}

impl MultichannelResult {
    /// Serial-over-parallel wall-clock ratio.
    pub fn speedup(&self) -> f64 {
        self.serial_wall_ns as f64 / self.parallel_wall_ns.max(1) as f64
    }
}

/// Result of the federation scaling measurement: the multichannel
/// workload re-cast as bridged segments advancing in epoch-aligned
/// rounds, run serially (1 worker) and on one worker per segment, plus
/// the two identities the gate pins — worker-count equivalence and
/// N=1 ≡ single-bus.
#[derive(Debug, Clone)]
pub struct FederationResult {
    /// Bridged segments in the federation.
    pub segments: usize,
    /// Videoconference participants (message sources).
    pub participants: u32,
    /// Messages scheduled across all segments.
    pub messages: u64,
    /// Workers used for the parallel run.
    pub workers: usize,
    /// `available_parallelism()` of the measuring host — the checker
    /// enforces the speedup gate only when this is ≥
    /// [`MIN_GATED_PARALLELISM`].
    pub host_parallelism: usize,
    /// Serial (1-worker) wall time (min over repeats), nanoseconds.
    pub serial_wall_ns: u64,
    /// Pooled wall time (min over repeats), nanoseconds.
    pub parallel_wall_ns: u64,
    /// Whether serial and pooled runs produced identical per-segment
    /// statistics, round counts, and handoff counts.
    pub equivalent: bool,
    /// Whether every segment drained inside the budget (both runs).
    pub completed: bool,
    /// Bridge handoffs exchanged at epoch boundaries (must be > 0: a
    /// federation without transit traffic demonstrates nothing).
    pub handoffs: u64,
    /// Epoch rounds the parallel run executed.
    pub rounds: u64,
    /// Whether a one-segment federation of the same workload reproduced
    /// the single-bus engine's statistics bit for bit.
    pub n1_identical: bool,
    /// Deadline misses across all segments for *local* traffic-only
    /// accounting (bridged hops use split deadlines, so this counts the
    /// report total).
    pub misses: u64,
}

impl FederationResult {
    /// Serial-over-parallel wall-clock ratio.
    pub fn speedup(&self) -> f64 {
        self.serial_wall_ns as f64 / self.parallel_wall_ns.max(1) as f64
    }
}

/// Result of one engine-assembly measurement: `network::build_engine`
/// followed by dropping the engine.
#[derive(Debug, Clone)]
pub struct AssemblyResult {
    /// Stations assembled.
    pub stations: u32,
    /// Build-plus-drop wall time (min over repeats), nanoseconds.
    pub wall_ns: u64,
}

impl AssemblyResult {
    /// Build-plus-drop cost per station, nanoseconds.
    pub fn ns_per_station(&self) -> f64 {
        self.wall_ns as f64 / f64::from(self.stations.max(1))
    }
}

/// Result of one admission measurement: a `Membership::admit` request
/// against `flows` admitted flows.
#[derive(Debug, Clone)]
pub struct AdmissionResult {
    /// Flows admitted before the timed request.
    pub flows: u32,
    /// Median wall time of one request, nanoseconds.
    pub median_ns: u64,
}

impl AdmissionResult {
    /// Median request cost, microseconds.
    pub fn us_per_request(&self) -> f64 {
        self.median_ns as f64 / 1e3
    }

    /// Median request cost per admitted flow, nanoseconds.
    pub fn ns_per_class(&self) -> f64 {
        self.median_ns as f64 / f64::from(self.flows.max(1))
    }
}

/// Result of one fault-plan measurement: `FaultPlan::generate` over
/// [`FAULT_PLAN_SLOTS`] slots for `stations` stations.
#[derive(Debug, Clone)]
pub struct FaultPlanResult {
    /// Stations planned for.
    pub stations: u32,
    /// Plan horizon, in slots.
    pub slots: u64,
    /// Events in the plan.
    pub events: u64,
    /// Generation wall time (min over repeats), nanoseconds.
    pub wall_ns: u64,
    /// The crash-scan instance that ran (`FaultPlan::kernel`).
    pub kernel: &'static str,
}

impl FaultPlanResult {
    /// Crash draws the plan stands for: one per (slot, station).
    pub fn draws(&self) -> u64 {
        self.slots * u64::from(self.stations)
    }

    /// Generation cost per draw, nanoseconds.
    pub fn ns_per_draw(&self) -> f64 {
        self.wall_ns as f64 / self.draws().max(1) as f64
    }
}

/// Result of the EDF queue measurement.
#[derive(Debug, Clone)]
pub struct QueueResult {
    /// push + pop operations performed.
    pub operations: u64,
    /// Wall time (min over repeats), nanoseconds.
    pub wall_ns: u64,
}

/// The full suite outcome.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Which profile ran.
    pub profile: Profile,
    /// Idle fast-forward measurement.
    pub idle: IdleResult,
    /// Loaded (bursting drain) fast-forward grid.
    pub loaded: Vec<LoadedResult>,
    /// Contention (tree-search) fast-forward measurement.
    pub contention: ContentionResult,
    /// Protocol drain grid.
    pub drains: Vec<DrainResult>,
    /// Active-set station-scale sweep.
    pub station_scale: Vec<StationScaleResult>,
    /// Engine assembly cost across populations.
    pub assembly: Vec<AssemblyResult>,
    /// Admission request cost across admitted-set sizes.
    pub admission: Vec<AdmissionResult>,
    /// Seeded crash-plan generation cost across populations.
    pub fault_plan: Vec<FaultPlanResult>,
    /// Multichannel scaling and capacity measurement.
    pub multichannel: MultichannelResult,
    /// Federated-segment scaling measurement.
    pub federation: FederationResult,
    /// EDF queue throughput.
    pub queue: QueueResult,
}

fn time<R>(mut body: impl FnMut() -> R) -> (R, u64) {
    let start = Instant::now();
    let out = body();
    (out, start.elapsed().as_nanos().try_into().unwrap_or(u64::MAX))
}

fn min_wall<R>(repeats: usize, mut body: impl FnMut() -> R) -> (R, u64) {
    let (mut out, mut best) = time(&mut body);
    for _ in 1..repeats {
        let (next, wall) = time(&mut body);
        if wall < best {
            best = wall;
        }
        out = next;
    }
    (out, best)
}

fn idle_workload(stations: u32, load: f64, horizon: Ticks) -> (MessageSet, Vec<Message>) {
    let set = scenario::uniform(stations, 8_000, Ticks(5_000_000), load)
        .expect("idle scenario is valid");
    // Sparse arrivals: the channel sits silent between them, which is the
    // regime the fast-forward path exists for.
    let schedule = ScheduleBuilder::bounded_random(&set, 0.05, 11)
        .expect("intensity in (0, 1]")
        .build(horizon)
        .expect("schedule generation");
    (set, schedule)
}

fn run_idle(
    set: &MessageSet,
    schedule: &[Message],
    medium: MediumConfig,
    horizon: Ticks,
    fast_forward: bool,
) -> ChannelStats {
    let config = default_ddcr_config(set, &medium);
    let allocation = StaticAllocation::round_robin(config.static_tree, set.sources())
        .expect("round robin allocation");
    let mut engine =
        network::build_engine(set, &config, &allocation, medium).expect("engine assembly");
    engine.set_fast_forward(fast_forward);
    engine.set_active_set(fast_forward);
    engine.add_arrivals(schedule.to_vec()).expect("arrivals route");
    engine.run_until(horizon);
    engine.into_stats()
}

/// Measures the idle-heavy scenario with the optimized engine and the
/// reference stepper. This is the perf-gate headline number.
pub fn measure_idle(profile: Profile) -> IdleResult {
    let stations = 32;
    let load = 0.05;
    let medium = MediumConfig::ethernet();
    let horizon = Ticks(medium.slot_ticks * profile.idle_slots());
    let (set, schedule) = idle_workload(stations, load, horizon);
    let (fast_stats, fast_wall_ns) = min_wall(profile.repeats(), || {
        run_idle(&set, &schedule, medium, horizon, true)
    });
    let (reference_stats, reference_wall_ns) = min_wall(profile.repeats(), || {
        run_idle(&set, &schedule, medium, horizon, false)
    });
    IdleResult {
        stations,
        load,
        horizon_ticks: horizon.as_u64(),
        slots: reference_stats.silence_slots + reference_stats.collisions,
        fast_wall_ns,
        reference_wall_ns,
        equivalent: fast_stats == reference_stats,
    }
}

/// Clustered small-message workload for the loaded measurement: each
/// station receives bursts of `CLUSTER_MESSAGES` 1000-bit messages, cluster
/// start times staggered across stations so the channel mostly carries
/// DDCR bursts rather than contention. The cluster period is sized so
/// the total offered load is `load`.
pub fn loaded_workload(
    stations: u32,
    load: f64,
    clusters: u64,
) -> (MessageSet, Vec<Message>, Ticks) {
    const BITS: u64 = 1_000;
    const CLUSTER_MESSAGES: u64 = 32;
    let set = scenario::uniform(stations, BITS, Ticks(5_000_000), load)
        .expect("loaded scenario is valid");
    let period =
        ((f64::from(stations) * CLUSTER_MESSAGES as f64 * BITS as f64) / load).round() as u64;
    let stagger = period / u64::from(stations);
    let mut schedule = Vec::new();
    for c in 0..clusters {
        for s in 0..stations {
            let at = c * period + u64::from(s) * stagger;
            for _ in 0..CLUSTER_MESSAGES {
                schedule.push(Message {
                    id: MessageId(schedule.len() as u64),
                    source: SourceId(s),
                    class: ClassId(0),
                    bits: BITS,
                    arrival: Ticks(at),
                    deadline: Ticks(100_000_000),
                });
            }
        }
    }
    (set, schedule, Ticks(clusters * period))
}

/// One loaded run: bursting DDCR over `schedule`, either fully optimized
/// (every tier on) or on the full reference stepper.
/// Returns the final statistics and whether the drain completed.
pub fn run_loaded(
    set: &MessageSet,
    schedule: &[Message],
    medium: MediumConfig,
    optimized: bool,
) -> (ChannelStats, bool) {
    // Bursting turns a cluster drain into multi-frame channel holds, which
    // the contention tier chorus-steps with the holder engaged and every
    // other station quiet. The budget widened beyond the 512-byte 802.3z
    // default keeps a whole cluster in one burst.
    let config = default_ddcr_config(set, &medium).with_bursting(BurstConfig {
        max_extra_bits: 32_768,
    });
    let allocation = StaticAllocation::round_robin(config.static_tree, set.sources())
        .expect("round robin allocation");
    let mut engine =
        network::build_engine(set, &config, &allocation, medium).expect("engine assembly");
    engine.set_fast_forward(optimized);
    engine.set_contention_fast_forward(optimized);
    engine.set_active_set(optimized);
    engine.set_retention(Some(0), Some(0));
    engine.add_arrivals(schedule.to_vec()).expect("arrivals route");
    let completed = engine.run_to_completion(Ticks(40_000_000_000)).is_ok();
    (engine.into_stats(), completed)
}

/// Measures the loaded (bursting drain) scenario grid with the fully
/// optimized engine and the full reference stepper. The `(≥ 32 stations,
/// load 0.5)` entry is the loaded perf-gate headline number.
pub fn measure_loaded(profile: Profile) -> Vec<LoadedResult> {
    let medium = MediumConfig::ethernet();
    let mut out = Vec::new();
    for (stations, load) in profile.loaded_grid() {
        let (set, schedule, _horizon) =
            loaded_workload(stations, load, profile.loaded_clusters());
        let ((fast_stats, fast_completed), fast_wall_ns) =
            min_wall(profile.repeats(), || {
                run_loaded(&set, &schedule, medium, true)
            });
        let ((reference_stats, reference_completed), reference_wall_ns) =
            min_wall(profile.repeats(), || {
                run_loaded(&set, &schedule, medium, false)
            });
        out.push(LoadedResult {
            stations,
            load,
            messages: schedule.len() as u64,
            slots: reference_stats.silence_slots
                + reference_stats.collisions
                + reference_stats.delivered,
            fast_wall_ns,
            reference_wall_ns,
            equivalent: fast_stats == reference_stats,
            completed: fast_completed && reference_completed,
        });
    }
    out
}

/// Contention-heavy workload for the contention fast-forward measurement:
/// `waves` rounds in which **every** station receives one message at the
/// same instant, so each round opens with a `stations`-way collision the
/// tree search must resolve leaf by leaf. No bursting, so the drain is
/// pure search — the regime the contention fast-forward path exists for.
pub fn contention_workload(stations: u32, waves: u64) -> (MessageSet, Vec<Message>) {
    const BITS: u64 = 2_000;
    // Far enough apart that one wave fully drains (searches included)
    // before the next arrives, keeping every wave a clean tree search.
    const WAVE_PERIOD: u64 = 400_000;
    let set = scenario::uniform(stations, BITS, Ticks(5_000_000), 0.8)
        .expect("contention scenario is valid");
    let mut schedule = Vec::new();
    for w in 0..waves {
        for s in 0..stations {
            schedule.push(Message {
                id: MessageId(schedule.len() as u64),
                source: SourceId(s),
                class: ClassId(0),
                bits: BITS,
                arrival: Ticks(w * WAVE_PERIOD),
                deadline: Ticks(100_000_000),
            });
        }
    }
    (set, schedule)
}

/// One contention run: non-bursting DDCR over `schedule` with the idle
/// tier on in **both** configurations, toggling only the contention tier
/// — the speedup isolates the contention tier's contribution. Returns the
/// final statistics and whether the drain completed.
pub fn run_contention(
    set: &MessageSet,
    schedule: &[Message],
    medium: MediumConfig,
    contention: bool,
) -> (ChannelStats, bool) {
    let config = default_ddcr_config(set, &medium);
    let allocation = StaticAllocation::round_robin(config.static_tree, set.sources())
        .expect("round robin allocation");
    let mut engine =
        network::build_engine(set, &config, &allocation, medium).expect("engine assembly");
    engine.set_fast_forward(true);
    engine.set_contention_fast_forward(contention);
    engine.set_retention(Some(0), Some(0));
    engine.add_arrivals(schedule.to_vec()).expect("arrivals route");
    let completed = engine.run_to_completion(Ticks(40_000_000_000)).is_ok();
    (engine.into_stats(), completed)
}

/// Measures the contention-heavy scenario with the contention tier on and
/// off, plus one metrics-enabled pass proving the tier engaged.
pub fn measure_contention(profile: Profile) -> ContentionResult {
    let stations = 32;
    let waves = profile.contention_waves();
    let medium = MediumConfig::ethernet();
    let (set, schedule) = contention_workload(stations, waves);
    let ((fast_stats, fast_completed), fast_wall_ns) = min_wall(profile.repeats(), || {
        run_contention(&set, &schedule, medium, true)
    });
    let ((reference_stats, reference_completed), reference_wall_ns) =
        min_wall(profile.repeats(), || {
            run_contention(&set, &schedule, medium, false)
        });

    // Telemetry pass (untimed): the tier must actually fire, otherwise the
    // comparison above measures nothing.
    let config = default_ddcr_config(&set, &medium);
    let allocation = StaticAllocation::round_robin(config.static_tree, set.sources())
        .expect("round robin allocation");
    let mut engine =
        network::build_engine(&set, &config, &allocation, medium).expect("engine assembly");
    engine.enable_metrics();
    engine.add_arrivals(schedule.clone()).expect("arrivals route");
    let _ = engine.run_to_completion(Ticks(40_000_000_000));
    let metrics = engine.take_metrics().expect("metrics enabled");

    ContentionResult {
        stations,
        waves,
        messages: schedule.len() as u64,
        slots: reference_stats.silence_slots
            + reference_stats.collisions
            + reference_stats.delivered,
        fast_wall_ns,
        reference_wall_ns,
        equivalent: fast_stats == reference_stats,
        completed: fast_completed && reference_completed,
        search_skip_runs: metrics.search_skip_runs,
        search_skipped_slots: metrics.search_skipped_slots,
    }
}

/// Measures DDCR / CSMA-CD / NP-EDF draining the same workload across the
/// profile's `(stations, load)` grid.
pub fn measure_drains(profile: Profile) -> Vec<DrainResult> {
    let medium = MediumConfig::ethernet();
    let mut out = Vec::new();
    for (stations, load) in profile.drain_grid() {
        let set = scenario::uniform(stations, 8_000, Ticks(5_000_000), load)
            .expect("drain scenario is valid");
        let schedule = ScheduleBuilder::bounded_random(&set, load.min(1.0), 23)
            .expect("intensity in (0, 1]")
            .build(Ticks(4_000_000))
            .expect("schedule generation");
        let kinds = [
            ProtocolKind::Ddcr(default_ddcr_config(&set, &medium)),
            ProtocolKind::CsmaCd(QueueDiscipline::Fifo, 7),
            ProtocolKind::NpEdf,
        ];
        for kind in &kinds {
            let (summary, wall_ns) = min_wall(profile.repeats(), || {
                run_protocol(kind, &set, &schedule, medium, Ticks(40_000_000_000))
                    .expect("protocol run")
            });
            out.push(DrainResult {
                protocol: summary.protocol.clone(),
                stations,
                load,
                wall_ns,
                sim_ticks: summary.total_ticks,
                delivered: summary.delivered,
                completed: summary.completed,
            });
        }
    }
    out
}

/// Sparse workload for the station-scale sweep: `rounds` messages per
/// station, arrivals staggered `GAP` ticks apart so at most one or two
/// stations are ever backlogged — the regime where the active-set
/// scheduler parks nearly the whole population between a station's own
/// arrivals. Every station still wakes for each of its deliveries, so the
/// sweep exercises park/wake churn, not just a static active subset.
pub fn station_scale_workload(stations: u32, rounds: u64) -> (MessageSet, Vec<Message>) {
    const BITS: u64 = 4_000;
    const GAP: u64 = 20_000;
    let set = scenario::uniform(stations, BITS, Ticks(5_000_000), 0.1)
        .expect("station-scale scenario is valid");
    let mut schedule = Vec::new();
    for r in 0..rounds {
        for s in 0..stations {
            schedule.push(Message {
                id: MessageId(schedule.len() as u64),
                source: SourceId(s),
                class: ClassId(0),
                bits: BITS,
                arrival: Ticks((r * u64::from(stations) + u64::from(s)) * GAP),
                deadline: Ticks(100_000_000),
            });
        }
    }
    (set, schedule)
}

/// One station-scale run: non-bursting DDCR over `schedule` under
/// `faults` with both fast-forward tiers on and the active-set scheduler
/// toggled. Returns the final statistics, completion, `poll()` count, and
/// decision slots resolved.
pub fn run_station_scale(
    set: &MessageSet,
    schedule: &[Message],
    medium: MediumConfig,
    faults: &FaultPlan,
    active_set: bool,
) -> (ChannelStats, bool, u64, u64) {
    let config = default_ddcr_config(set, &medium);
    let allocation = StaticAllocation::round_robin(config.static_tree, set.sources())
        .expect("round robin allocation");
    let mut engine =
        network::build_engine(set, &config, &allocation, medium).expect("engine assembly");
    engine.set_fast_forward(true);
    engine.set_contention_fast_forward(true);
    engine.set_active_set(active_set);
    engine.set_fault_plan(faults.clone());
    engine.add_arrivals(schedule.to_vec()).expect("arrivals route");
    let completed = engine.run_to_completion(Ticks(40_000_000_000)).is_ok();
    let polls = engine.poll_count();
    let slots = engine.slot_ordinal();
    (engine.into_stats(), completed, polls, slots)
}

/// The seeded crash plan of the faulted station-scale point: crashes only
/// (as `ddcr run --crash 2e-6 --down 64` draws them), planned over the
/// first half of the arrivals so every restarted station still hears
/// stamped frames from later senders and resynchronizes.
fn station_scale_faults(stations: u32, schedule: &[Message], medium: MediumConfig) -> FaultPlan {
    let last_arrival = schedule
        .iter()
        .map(|m| m.arrival.as_u64())
        .max()
        .unwrap_or(0);
    let rates = FaultRates {
        corrupt: 0.0,
        erase: 0.0,
        crash: 2e-6,
        down_slots: 64,
    };
    FaultPlan::generate(7, stations, last_arrival / 2 / medium.slot_ticks, &rates)
}

/// One station-scale point: the sparse workload at `stations`, under the
/// seeded crash plan when `faulted`, active-set on vs off.
fn measure_station_scale_point(
    profile: Profile,
    stations: u32,
    faulted: bool,
) -> StationScaleResult {
    let medium = MediumConfig::ethernet();
    let (set, schedule) = station_scale_workload(stations, profile.station_scale_rounds());
    let faults = if faulted {
        station_scale_faults(stations, &schedule, medium)
    } else {
        FaultPlan::none()
    };
    let ((active_stats, active_completed, polls, slots), active_wall_ns) =
        min_wall(profile.repeats(), || {
            run_station_scale(&set, &schedule, medium, &faults, true)
        });
    let ((baseline_stats, baseline_completed, _, _), baseline_wall_ns) =
        min_wall(profile.repeats(), || {
            run_station_scale(&set, &schedule, medium, &faults, false)
        });
    StationScaleResult {
        stations,
        messages: schedule.len() as u64,
        slots,
        active_wall_ns,
        baseline_wall_ns,
        equivalent: active_stats == baseline_stats,
        completed: active_completed && baseline_completed,
        polls,
        station_slots: slots * u64::from(stations),
        faulted,
        crashes: active_stats.crashes,
    }
}

/// Measures the active-set station-scale sweep: the sparse workload at
/// each grid population, active-set on vs off, plus the crash-faulted
/// point at [`FAULTED_STATION_SCALE_AT`] stations. Entries come out in
/// population order, a faulted point after the fault-free one.
pub fn measure_station_scale(profile: Profile) -> Vec<StationScaleResult> {
    let mut out: Vec<StationScaleResult> = profile
        .station_scale_grid()
        .into_iter()
        .map(|stations| measure_station_scale_point(profile, stations, false))
        .collect();
    out.push(measure_station_scale_point(
        profile,
        FAULTED_STATION_SCALE_AT,
        true,
    ));
    out.sort_by_key(|r| r.stations);
    out
}

/// Measures engine assembly: `network::build_engine` plus the drop of the
/// engine at each [`ASSEMBLY_GRID`] population, on the station-scale
/// message set. Setting up the configuration and the static allocation is
/// not timed.
pub fn measure_assembly() -> Vec<AssemblyResult> {
    let medium = MediumConfig::ethernet();
    ASSEMBLY_GRID
        .into_iter()
        .map(|stations| {
            let (set, _) = station_scale_workload(stations, 1);
            let config = default_ddcr_config(&set, &medium);
            let allocation = StaticAllocation::round_robin(config.static_tree, stations)
                .expect("round robin allocation");
            let (built, wall_ns) = min_wall(ASSEMBLY_REPEATS, || {
                network::build_engine(&set, &config, &allocation, medium)
                    .expect("engine assembly")
                    .station_count()
            });
            assert_eq!(built, stations as usize, "every station must be attached");
            AssemblyResult { stations, wall_ns }
        })
        .collect()
}

/// The `n`-th flow of the admission measurement: light enough that every
/// request of the grid is admitted, spread round-robin over the stations.
fn admission_flow(n: u32) -> FlowRequest {
    FlowRequest {
        source: SourceId(n % ADMISSION_STATIONS),
        name: format!("flow-{n}"),
        bits: 8_000,
        deadline: Ticks(1_000_000_000 + u64::from(n % 7) * 1_000_000),
        arrivals: 1,
        window: Ticks(1_000_000_000),
    }
}

/// Measures one `Membership::admit` request at each [`ADMISSION_GRID`]
/// size: every station joined, that many flows admitted untimed, then
/// [`ADMISSION_SAMPLES`] fresh requests, each timed against its own copy
/// of the membership so the set stays at the grid size. Reports the
/// median.
pub fn measure_admission() -> Vec<AdmissionResult> {
    let config = DdcrConfig::for_sources(ADMISSION_STATIONS, Ticks(100_000))
        .expect("admission configuration");
    ADMISSION_GRID
        .into_iter()
        .map(|flows| {
            let mut membership =
                Membership::new(config, MediumConfig::ethernet(), ADMISSION_STATIONS, 1)
                    .expect("admission membership");
            for s in 0..ADMISSION_STATIONS {
                membership.join(SourceId(s)).expect("join");
            }
            let admit = |membership: &mut Membership, n: u32| {
                let decision = membership.admit(&admission_flow(n)).expect("admission");
                assert!(
                    matches!(decision, AdmissionDecision::Admitted { .. }),
                    "admission flow {n} must be admitted: {decision:?}"
                );
            };
            for n in 0..flows {
                admit(&mut membership, n);
            }
            let mut samples: Vec<u64> = (0..ADMISSION_SAMPLES as u32)
                .map(|i| {
                    let mut probe = membership.clone();
                    time(|| admit(&mut probe, flows + i)).1
                })
                .collect();
            samples.sort_unstable();
            AdmissionResult {
                flows,
                median_ns: samples[samples.len() / 2],
            }
        })
        .collect()
}

/// Measures `FaultPlan::generate` at the `sparse-crash` plan shape for each
/// [`FAULT_PLAN_GRID`] population (seed 1, crash rate 2e-6, down 64).
/// Informational: the scan instance, and so the cost, depends on the
/// host's vector extensions.
pub fn measure_fault_plan() -> Vec<FaultPlanResult> {
    let rates = FaultRates {
        crash: FAULT_PLAN_CRASH,
        down_slots: 64,
        ..FaultRates::default()
    };
    FAULT_PLAN_GRID
        .into_iter()
        .map(|stations| {
            let (events, wall_ns) = min_wall(FAULT_PLAN_REPEATS, || {
                FaultPlan::generate(1, stations, FAULT_PLAN_SLOTS, &rates).len() as u64
            });
            FaultPlanResult {
                stations,
                slots: FAULT_PLAN_SLOTS,
                events,
                wall_ns,
                kernel: FaultPlan::kernel(),
            }
        })
        .collect()
}

/// Measures multichannel scaling on the saturated 4-channel workload from
/// experiment E15: a 32-participant videoconference on gigabit Ethernet —
/// infeasible on one channel, provably feasible split over four. The same
/// channels run serially (1 worker) and on one worker per channel (the
/// executor clamps that to the host's cores); the report carries both wall
/// times, the worker-count-equivalence verdict, and the capacity booleans
/// the gate pins.
pub fn measure_multichannel(profile: Profile) -> MultichannelResult {
    use ddcr_core::multibus;

    const CHANNELS: usize = 4;
    const PARTICIPANTS: u32 = 32;
    let medium = MediumConfig::gigabit_ethernet();
    let set = scenario::videoconference(PARTICIPANTS).expect("scenario is valid");
    let config = default_ddcr_config(&set, &medium);
    let allocation = StaticAllocation::round_robin(config.static_tree, PARTICIPANTS)
        .expect("allocation covers all sources");

    let single = multibus::balance_by_load(&set, 1);
    let split = multibus::balance_by_load(&set, CHANNELS);
    let feasible = |assignment: &multibus::ChannelAssignment| {
        multibus::evaluate(&set, assignment, &config, &allocation, &medium)
            .expect("feasibility evaluates")
            .iter()
            .all(|r| r.feasible())
    };
    let single_channel_feasible = feasible(&single);
    let multi_channel_feasible = feasible(&split);

    let schedule = ScheduleBuilder::peak_load(&set)
        .build(profile.multichannel_horizon())
        .expect("schedule generation");
    let messages = schedule.len() as u64;
    let budget = Ticks(4_000_000_000_000);
    let run = |workers: usize| {
        let mut options = multibus::RunOptions::new(budget);
        options.workers = workers;
        min_wall(profile.repeats(), || {
            multibus::run_channels(
                &set,
                schedule.clone(),
                &split,
                &config,
                &allocation,
                medium,
                &options,
            )
            .expect("multichannel run assembles")
        })
    };
    let (serial, serial_wall_ns) = run(1);
    let (parallel, parallel_wall_ns) = run(CHANNELS);

    let equivalent = serial.channels.len() == parallel.channels.len()
        && serial
            .channels
            .iter()
            .zip(&parallel.channels)
            .all(|(a, b)| a.stats == b.stats);
    MultichannelResult {
        channels: CHANNELS,
        participants: PARTICIPANTS,
        messages,
        workers: CHANNELS,
        host_parallelism: std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get),
        serial_wall_ns,
        parallel_wall_ns,
        equivalent,
        completed: serial.completed() && parallel.completed(),
        misses: parallel.deadline_misses() as u64,
        single_channel_feasible,
        multi_channel_feasible,
    }
}

/// Measures federation scaling: the E15 workload re-cast as four bridged
/// segments advancing in epoch-aligned rounds on the shared executor,
/// with every fourth class crossing a bridge. The same federation runs
/// serially (1 worker) and on one worker per segment; the report carries
/// both wall times, the worker-count-equivalence verdict, and the N=1 ≡
/// single-bus identity that pins the chunked virtual-clock composition.
pub fn measure_federation(profile: Profile) -> FederationResult {
    use ddcr_core::{federate, multibus};

    const SEGMENTS: usize = 4;
    const PARTICIPANTS: u32 = 32;
    const TRANSIT_EVERY: u32 = 4;
    let medium = MediumConfig::gigabit_ethernet();
    let set = scenario::videoconference(PARTICIPANTS).expect("scenario is valid");
    let config = default_ddcr_config(&set, &medium);
    let allocation = StaticAllocation::round_robin(config.static_tree, PARTICIPANTS)
        .expect("allocation covers all sources");

    let split = multibus::balance_by_load(&set, SEGMENTS);
    let routes = federate::transit_routes(&set, &split, TRANSIT_EVERY);
    let schedule = ScheduleBuilder::peak_load(&set)
        .build(profile.federation_horizon())
        .expect("schedule generation");
    let messages = schedule.len() as u64;
    let budget = Ticks(4_000_000_000_000);
    let epoch = Ticks(1_000_000);
    let run = |workers: usize| {
        let mut options = ddcr_sim::federation::FederationOptions::new(epoch, budget);
        options.workers = workers;
        min_wall(profile.repeats(), || {
            federate::run_segments(
                &set,
                schedule.clone(),
                &split,
                &routes,
                &config,
                &allocation,
                medium,
                &options,
            )
            .expect("federated run assembles")
        })
    };
    let (serial, serial_wall_ns) = run(1);
    let (parallel, parallel_wall_ns) = run(SEGMENTS);

    let equivalent = serial.rounds == parallel.rounds
        && serial.handoffs == parallel.handoffs
        && serial.segments.len() == parallel.segments.len()
        && serial
            .segments
            .iter()
            .zip(&parallel.segments)
            .all(|(a, b)| a.stats == b.stats);

    // N=1 identity (untimed): a one-segment federation of the same
    // schedule must reproduce the single-bus engine's statistics.
    let single = multibus::balance_by_load(&set, 1);
    let reference = network::run(
        &set,
        schedule.clone(),
        &config,
        &allocation,
        medium,
        network::RunLimit::Completion(budget),
    )
    .expect("single-bus reference runs");
    let one_options = ddcr_sim::federation::FederationOptions::new(epoch, budget);
    let one = federate::run_segments(
        &set,
        schedule,
        &single,
        &[],
        &config,
        &allocation,
        medium,
        &one_options,
    )
    .expect("one-segment federation runs");
    let n1_identical =
        one.completed() && one.segments.len() == 1 && one.segments[0].stats == reference;

    FederationResult {
        segments: SEGMENTS,
        participants: PARTICIPANTS,
        messages,
        workers: SEGMENTS,
        host_parallelism: std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get),
        serial_wall_ns,
        parallel_wall_ns,
        equivalent,
        completed: serial.completed() && parallel.completed(),
        handoffs: parallel.handoffs,
        rounds: parallel.rounds,
        n1_identical,
        misses: parallel.deadline_misses(),
    }
}

/// Measures `EdfQueue` push/pop throughput: interleaved inserts (worst-case
/// mid-queue positions) followed by a full drain.
pub fn measure_queue(profile: Profile) -> QueueResult {
    let n = profile.queue_messages();
    let messages: Vec<Message> = (0..n)
        .map(|i| Message {
            id: MessageId(i as u64),
            source: SourceId(0),
            class: ClassId(0),
            bits: 1_000,
            arrival: Ticks(0),
            // A scrambled deadline pattern so inserts land all over the
            // queue rather than always at one end.
            deadline: Ticks(((i as u64).wrapping_mul(2_654_435_761)) % 1_000_000 + 1),
        })
        .collect();
    let (drained, wall_ns) = min_wall(profile.repeats(), || {
        let mut queue = EdfQueue::new();
        for message in &messages {
            queue.push(*message);
        }
        let mut drained = 0u64;
        while queue.pop().is_some() {
            drained += 1;
        }
        drained
    });
    assert_eq!(drained, n as u64, "queue must drain completely");
    QueueResult {
        operations: 2 * n as u64,
        wall_ns,
    }
}

/// Runs the whole suite.
pub fn run_suite(profile: Profile) -> BenchReport {
    BenchReport {
        profile,
        idle: measure_idle(profile),
        loaded: measure_loaded(profile),
        contention: measure_contention(profile),
        drains: measure_drains(profile),
        station_scale: measure_station_scale(profile),
        assembly: measure_assembly(),
        admission: measure_admission(),
        fault_plan: measure_fault_plan(),
        multichannel: measure_multichannel(profile),
        federation: measure_federation(profile),
        queue: measure_queue(profile),
    }
}

impl BenchReport {
    /// Renders the `BENCH_engine.json` document (schema in
    /// `docs/PERF.md`).
    pub fn to_json(&self) -> Json {
        let idle = &self.idle;
        Json::object([
            ("schema_version", Json::from(SCHEMA_VERSION)),
            ("profile", Json::from(self.profile.name())),
            ("generated_by", Json::from("ddcr-bench bench_engine")),
            (
                "idle_fast_forward",
                Json::object([
                    ("stations", Json::from(u64::from(idle.stations))),
                    ("load", Json::from(idle.load)),
                    ("horizon_ticks", Json::from(idle.horizon_ticks)),
                    ("slots", Json::from(idle.slots)),
                    ("fast_wall_ns", Json::from(idle.fast_wall_ns)),
                    ("reference_wall_ns", Json::from(idle.reference_wall_ns)),
                    (
                        "fast_slots_per_sec",
                        Json::from(idle.slots_per_sec(idle.fast_wall_ns)),
                    ),
                    (
                        "reference_slots_per_sec",
                        Json::from(idle.slots_per_sec(idle.reference_wall_ns)),
                    ),
                    ("speedup", Json::from(idle.speedup())),
                    ("equivalent", Json::from(idle.equivalent)),
                ]),
            ),
            (
                "loaded_fast_forward",
                Json::Array(
                    self.loaded
                        .iter()
                        .map(|l| {
                            Json::object([
                                ("stations", Json::from(u64::from(l.stations))),
                                ("load", Json::from(l.load)),
                                ("messages", Json::from(l.messages)),
                                ("slots", Json::from(l.slots)),
                                ("fast_wall_ns", Json::from(l.fast_wall_ns)),
                                ("reference_wall_ns", Json::from(l.reference_wall_ns)),
                                (
                                    "fast_slots_per_sec",
                                    Json::from(l.slots_per_sec(l.fast_wall_ns)),
                                ),
                                (
                                    "reference_slots_per_sec",
                                    Json::from(l.slots_per_sec(l.reference_wall_ns)),
                                ),
                                ("speedup", Json::from(l.speedup())),
                                ("equivalent", Json::from(l.equivalent)),
                                ("completed", Json::from(l.completed)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "contention_fast_forward",
                Json::object([
                    (
                        "stations",
                        Json::from(u64::from(self.contention.stations)),
                    ),
                    ("waves", Json::from(self.contention.waves)),
                    ("messages", Json::from(self.contention.messages)),
                    ("slots", Json::from(self.contention.slots)),
                    ("fast_wall_ns", Json::from(self.contention.fast_wall_ns)),
                    (
                        "reference_wall_ns",
                        Json::from(self.contention.reference_wall_ns),
                    ),
                    (
                        "fast_slots_per_sec",
                        Json::from(
                            self.contention.slots_per_sec(self.contention.fast_wall_ns),
                        ),
                    ),
                    (
                        "reference_slots_per_sec",
                        Json::from(
                            self.contention
                                .slots_per_sec(self.contention.reference_wall_ns),
                        ),
                    ),
                    ("speedup", Json::from(self.contention.speedup())),
                    ("equivalent", Json::from(self.contention.equivalent)),
                    ("completed", Json::from(self.contention.completed)),
                    (
                        "search_skip_runs",
                        Json::from(self.contention.search_skip_runs),
                    ),
                    (
                        "search_skipped_slots",
                        Json::from(self.contention.search_skipped_slots),
                    ),
                ]),
            ),
            (
                "protocol_drain",
                Json::Array(
                    self.drains
                        .iter()
                        .map(|d| {
                            Json::object([
                                ("protocol", Json::from(d.protocol.as_str())),
                                ("stations", Json::from(u64::from(d.stations))),
                                ("load", Json::from(d.load)),
                                ("wall_ns", Json::from(d.wall_ns)),
                                ("sim_ticks", Json::from(d.sim_ticks)),
                                (
                                    "sim_ticks_per_sec",
                                    Json::from(
                                        d.sim_ticks as f64 * 1e9 / d.wall_ns.max(1) as f64,
                                    ),
                                ),
                                ("delivered", Json::from(d.delivered as u64)),
                                ("completed", Json::from(d.completed)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "station_scale",
                Json::Array(
                    self.station_scale
                        .iter()
                        .map(|s| {
                            Json::object([
                                ("stations", Json::from(u64::from(s.stations))),
                                ("messages", Json::from(s.messages)),
                                ("slots", Json::from(s.slots)),
                                ("active_wall_ns", Json::from(s.active_wall_ns)),
                                ("baseline_wall_ns", Json::from(s.baseline_wall_ns)),
                                ("speedup", Json::from(s.speedup())),
                                ("equivalent", Json::from(s.equivalent)),
                                ("completed", Json::from(s.completed)),
                                ("polls", Json::from(s.polls)),
                                ("station_slots", Json::from(s.station_slots)),
                                ("poll_fraction", Json::from(s.poll_fraction())),
                                ("faulted", Json::from(s.faulted)),
                                ("crashes", Json::from(s.crashes)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "assembly",
                Json::Array(
                    self.assembly
                        .iter()
                        .map(|a| {
                            Json::object([
                                ("stations", Json::from(u64::from(a.stations))),
                                ("wall_ns", Json::from(a.wall_ns)),
                                ("ns_per_station", Json::from(a.ns_per_station())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "admission",
                Json::Array(
                    self.admission
                        .iter()
                        .map(|a| {
                            Json::object([
                                ("flows", Json::from(u64::from(a.flows))),
                                ("median_ns", Json::from(a.median_ns)),
                                ("us_per_request", Json::from(a.us_per_request())),
                                ("ns_per_class", Json::from(a.ns_per_class())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "fault_plan",
                Json::Array(
                    self.fault_plan
                        .iter()
                        .map(|f| {
                            Json::object([
                                ("stations", Json::from(u64::from(f.stations))),
                                ("slots", Json::from(f.slots)),
                                ("draws", Json::from(f.draws())),
                                ("events", Json::from(f.events)),
                                ("wall_ns", Json::from(f.wall_ns)),
                                ("ns_per_draw", Json::from(f.ns_per_draw())),
                                ("kernel", Json::from(f.kernel)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "multichannel",
                Json::object([
                    (
                        "channels",
                        Json::from(self.multichannel.channels as u64),
                    ),
                    (
                        "participants",
                        Json::from(u64::from(self.multichannel.participants)),
                    ),
                    ("messages", Json::from(self.multichannel.messages)),
                    ("workers", Json::from(self.multichannel.workers as u64)),
                    (
                        "host_parallelism",
                        Json::from(self.multichannel.host_parallelism as u64),
                    ),
                    (
                        "serial_wall_ns",
                        Json::from(self.multichannel.serial_wall_ns),
                    ),
                    (
                        "parallel_wall_ns",
                        Json::from(self.multichannel.parallel_wall_ns),
                    ),
                    ("speedup", Json::from(self.multichannel.speedup())),
                    ("equivalent", Json::from(self.multichannel.equivalent)),
                    ("completed", Json::from(self.multichannel.completed)),
                    ("misses", Json::from(self.multichannel.misses)),
                    (
                        "single_channel_feasible",
                        Json::from(self.multichannel.single_channel_feasible),
                    ),
                    (
                        "multi_channel_feasible",
                        Json::from(self.multichannel.multi_channel_feasible),
                    ),
                ]),
            ),
            (
                "federation",
                Json::object([
                    ("segments", Json::from(self.federation.segments as u64)),
                    (
                        "participants",
                        Json::from(u64::from(self.federation.participants)),
                    ),
                    ("messages", Json::from(self.federation.messages)),
                    ("workers", Json::from(self.federation.workers as u64)),
                    (
                        "host_parallelism",
                        Json::from(self.federation.host_parallelism as u64),
                    ),
                    (
                        "serial_wall_ns",
                        Json::from(self.federation.serial_wall_ns),
                    ),
                    (
                        "parallel_wall_ns",
                        Json::from(self.federation.parallel_wall_ns),
                    ),
                    ("speedup", Json::from(self.federation.speedup())),
                    ("equivalent", Json::from(self.federation.equivalent)),
                    ("completed", Json::from(self.federation.completed)),
                    ("handoffs", Json::from(self.federation.handoffs)),
                    ("rounds", Json::from(self.federation.rounds)),
                    ("n1_identical", Json::from(self.federation.n1_identical)),
                    ("misses", Json::from(self.federation.misses)),
                ]),
            ),
            (
                "edf_queue",
                Json::object([
                    ("operations", Json::from(self.queue.operations)),
                    ("wall_ns", Json::from(self.queue.wall_ns)),
                    (
                        "ops_per_sec",
                        Json::from(
                            self.queue.operations as f64 * 1e9
                                / self.queue.wall_ns.max(1) as f64,
                        ),
                    ),
                ]),
            ),
        ])
    }
}

/// Validates a parsed `BENCH_engine.json` against the schema and the perf
/// gate thresholds. Returns the list of violations (empty = gate passes).
pub fn check_report(doc: &Json) -> Vec<String> {
    let mut violations = Vec::new();
    let mut fail = |msg: String| violations.push(msg);

    match doc.get("schema_version").and_then(Json::as_f64) {
        Some(v) if v == SCHEMA_VERSION as f64 => {}
        Some(v) => fail(format!("schema_version {v} != {SCHEMA_VERSION}")),
        None => fail("missing schema_version".into()),
    }
    if doc.get("profile").and_then(Json::as_str).is_none() {
        fail("missing profile".into());
    }

    match doc.get("idle_fast_forward") {
        None => fail("missing idle_fast_forward".into()),
        Some(idle) => {
            match idle.get("stations").and_then(Json::as_f64) {
                Some(z) if z >= 32.0 => {}
                other => fail(format!(
                    "idle_fast_forward.stations must be >= 32, got {other:?}"
                )),
            }
            match idle.get("load").and_then(Json::as_f64) {
                Some(l) if l <= 0.25 => {}
                other => fail(format!(
                    "idle_fast_forward.load must be <= 0.25 (idle-heavy), got {other:?}"
                )),
            }
            match idle.get("speedup").and_then(Json::as_f64) {
                Some(s) if s >= MIN_IDLE_SPEEDUP => {}
                Some(s) => fail(format!(
                    "idle_fast_forward.speedup {s:.2} below gate {MIN_IDLE_SPEEDUP}"
                )),
                None => fail("missing idle_fast_forward.speedup".into()),
            }
            if idle.get("equivalent").and_then(Json::as_bool) != Some(true) {
                fail("idle_fast_forward.equivalent must be true".into());
            }
            for key in ["slots", "fast_wall_ns", "reference_wall_ns"] {
                match idle.get(key).and_then(Json::as_f64) {
                    Some(v) if v > 0.0 => {}
                    other => fail(format!("idle_fast_forward.{key} must be > 0, got {other:?}")),
                }
            }
        }
    }

    match doc.get("loaded_fast_forward").and_then(Json::as_array) {
        None => fail("missing loaded_fast_forward".into()),
        Some([]) => fail("loaded_fast_forward is empty".into()),
        Some(entries) => {
            let mut gated_mid = 0usize;
            let mut gated_high = 0usize;
            for (i, entry) in entries.iter().enumerate() {
                if entry.get("equivalent").and_then(Json::as_bool) != Some(true) {
                    fail(format!("loaded_fast_forward[{i}].equivalent must be true"));
                }
                if entry.get("completed").and_then(Json::as_bool) != Some(true) {
                    fail(format!("loaded_fast_forward[{i}] did not complete"));
                }
                for key in ["slots", "fast_wall_ns", "reference_wall_ns"] {
                    match entry.get(key).and_then(Json::as_f64) {
                        Some(v) if v > 0.0 => {}
                        other => fail(format!(
                            "loaded_fast_forward[{i}].{key} must be > 0, got {other:?}"
                        )),
                    }
                }
                let stations = entry.get("stations").and_then(Json::as_f64).unwrap_or(0.0);
                let load = entry.get("load").and_then(Json::as_f64).unwrap_or(0.0);
                let mid = (0.45..=0.55).contains(&load);
                let high = (0.75..=0.85).contains(&load);
                if stations >= 32.0 && (mid || high) {
                    if mid {
                        gated_mid += 1;
                    } else {
                        gated_high += 1;
                    }
                    match entry.get("speedup").and_then(Json::as_f64) {
                        Some(s) if s >= MIN_LOADED_SPEEDUP => {}
                        Some(s) => fail(format!(
                            "loaded_fast_forward[{i}].speedup {s:.2} below gate \
                             {MIN_LOADED_SPEEDUP} (z={stations}, load={load})"
                        )),
                        None => fail(format!("missing loaded_fast_forward[{i}].speedup")),
                    }
                }
            }
            if gated_mid == 0 {
                fail("loaded_fast_forward has no gated entry (>= 32 stations at load 0.5)"
                    .into());
            }
            if gated_high == 0 {
                fail("loaded_fast_forward has no gated entry (>= 32 stations at load 0.8)"
                    .into());
            }
        }
    }

    match doc.get("contention_fast_forward") {
        None => fail("missing contention_fast_forward".into()),
        Some(contention) => {
            match contention.get("stations").and_then(Json::as_f64) {
                Some(z) if z >= 32.0 => {}
                other => fail(format!(
                    "contention_fast_forward.stations must be >= 32, got {other:?}"
                )),
            }
            if contention.get("equivalent").and_then(Json::as_bool) != Some(true) {
                fail("contention_fast_forward.equivalent must be true".into());
            }
            if contention.get("completed").and_then(Json::as_bool) != Some(true) {
                fail("contention_fast_forward did not complete".into());
            }
            for key in ["slots", "fast_wall_ns", "reference_wall_ns", "speedup"] {
                match contention.get(key).and_then(Json::as_f64) {
                    Some(v) if v > 0.0 => {}
                    other => fail(format!(
                        "contention_fast_forward.{key} must be > 0, got {other:?}"
                    )),
                }
            }
            // The comparison is meaningless if the tier never fired.
            match contention.get("search_skip_runs").and_then(Json::as_f64) {
                Some(v) if v >= 1.0 => {}
                other => fail(format!(
                    "contention_fast_forward.search_skip_runs must be >= 1 \
                     (tier never engaged), got {other:?}"
                )),
            }
        }
    }

    match doc.get("protocol_drain").and_then(Json::as_array) {
        None => fail("missing protocol_drain".into()),
        Some([]) => fail("protocol_drain is empty".into()),
        Some(entries) => {
            for (i, entry) in entries.iter().enumerate() {
                if entry.get("protocol").and_then(Json::as_str).is_none() {
                    fail(format!("protocol_drain[{i}] missing protocol"));
                }
                if entry.get("completed").and_then(Json::as_bool) != Some(true) {
                    fail(format!("protocol_drain[{i}] did not complete"));
                }
                match entry.get("sim_ticks_per_sec").and_then(Json::as_f64) {
                    Some(v) if v > 0.0 => {}
                    other => fail(format!(
                        "protocol_drain[{i}].sim_ticks_per_sec must be > 0, got {other:?}"
                    )),
                }
            }
        }
    }

    match doc.get("station_scale").and_then(Json::as_array) {
        None => fail("missing station_scale".into()),
        Some([]) => fail("station_scale is empty".into()),
        Some(entries) => {
            let mut gated = 0usize;
            for (i, entry) in entries.iter().enumerate() {
                if entry.get("equivalent").and_then(Json::as_bool) != Some(true) {
                    fail(format!("station_scale[{i}].equivalent must be true"));
                }
                if entry.get("completed").and_then(Json::as_bool) != Some(true) {
                    fail(format!("station_scale[{i}] did not complete"));
                }
                for key in ["slots", "active_wall_ns", "baseline_wall_ns"] {
                    match entry.get(key).and_then(Json::as_f64) {
                        Some(v) if v > 0.0 => {}
                        other => fail(format!(
                            "station_scale[{i}].{key} must be > 0, got {other:?}"
                        )),
                    }
                }
                let stations = entry.get("stations").and_then(Json::as_f64).unwrap_or(0.0);
                if stations >= STATION_SCALE_GATED_AT as f64 {
                    gated += 1;
                    match entry.get("speedup").and_then(Json::as_f64) {
                        Some(s) if s >= MIN_STATION_SCALE_SPEEDUP => {}
                        Some(s) => fail(format!(
                            "station_scale[{i}].speedup {s:.2} below gate \
                             {MIN_STATION_SCALE_SPEEDUP} (z={stations})"
                        )),
                        None => fail(format!("missing station_scale[{i}].speedup")),
                    }
                }
            }
            if gated == 0 {
                fail(format!(
                    "station_scale has no gated entry (>= {STATION_SCALE_GATED_AT} stations)"
                ));
            }
            // A faulted point whose plan never crashed a station would
            // measure the fault-free path twice.
            if !entries.iter().any(|e| {
                e.get("faulted").and_then(Json::as_bool) == Some(true)
                    && e.get("crashes").and_then(Json::as_f64).unwrap_or(0.0) >= 1.0
            }) {
                fail("station_scale has no faulted entry with crashes >= 1".into());
            }
        }
    }

    match doc.get("assembly").and_then(Json::as_array) {
        None => fail("missing assembly".into()),
        Some(entries) => {
            // Per-station build-plus-drop cost at a grid population.
            let per_station = |stations: u32| {
                entries
                    .iter()
                    .find(|e| e.get("stations").and_then(Json::as_f64) == Some(f64::from(stations)))
                    .and_then(|e| e.get("wall_ns"))
                    .and_then(Json::as_f64)
                    .filter(|&wall| wall > 0.0)
                    .map(|wall| wall / f64::from(stations))
            };
            let smallest = ASSEMBLY_GRID[0];
            let largest = ASSEMBLY_GRID[ASSEMBLY_GRID.len() - 1];
            match (per_station(smallest), per_station(largest)) {
                (Some(small), Some(large)) if large <= MAX_ASSEMBLY_GROWTH * small => {}
                (Some(small), Some(large)) => fail(format!(
                    "assembly per-station cost grows {:.2}x from {smallest} to {largest} \
                     stations, above gate {MAX_ASSEMBLY_GROWTH}",
                    large / small
                )),
                _ => fail(format!(
                    "assembly needs positive wall_ns at {smallest} and {largest} stations"
                )),
            }
        }
    }

    match doc.get("admission").and_then(Json::as_array) {
        None => fail("missing admission".into()),
        Some(entries) => {
            // Median request cost per admitted flow at a grid size.
            let per_class = |flows: u32| {
                entries
                    .iter()
                    .find(|e| e.get("flows").and_then(Json::as_f64) == Some(f64::from(flows)))
                    .and_then(|e| e.get("median_ns"))
                    .and_then(Json::as_f64)
                    .filter(|&ns| ns > 0.0)
                    .map(|ns| ns / f64::from(flows))
            };
            let smallest = ADMISSION_GRID[0];
            let largest = ADMISSION_GRID[ADMISSION_GRID.len() - 1];
            match (per_class(smallest), per_class(largest)) {
                (Some(small), Some(large)) if large <= MAX_ADMISSION_GROWTH * small => {}
                (Some(small), Some(large)) => fail(format!(
                    "admission per-class cost grows {:.2}x from {smallest} to {largest} \
                     flows, above gate {MAX_ADMISSION_GROWTH}",
                    large / small
                )),
                _ => fail(format!(
                    "admission needs positive median_ns at {smallest} and {largest} flows"
                )),
            }
        }
    }

    // Informational: no floor, since the scan instance (and so the cost)
    // follows the host's vector extensions. Only presence and shape.
    match doc.get("fault_plan").and_then(Json::as_array) {
        None => fail("missing fault_plan".into()),
        Some(entries) => {
            for stations in FAULT_PLAN_GRID {
                let Some(entry) = entries.iter().find(|e| {
                    e.get("stations").and_then(Json::as_f64) == Some(f64::from(stations))
                }) else {
                    fail(format!("fault_plan needs an entry at {stations} stations"));
                    continue;
                };
                for key in ["slots", "draws", "wall_ns", "ns_per_draw"] {
                    match entry.get(key).and_then(Json::as_f64) {
                        Some(v) if v > 0.0 => {}
                        other => fail(format!(
                            "fault_plan.{key} at {stations} stations must be > 0, got {other:?}"
                        )),
                    }
                }
                if entry.get("events").and_then(Json::as_f64).is_none() {
                    fail(format!("fault_plan.events missing at {stations} stations"));
                }
                match entry.get("kernel").and_then(Json::as_str) {
                    Some(k) if FAULT_PLAN_KERNELS.contains(&k) => {}
                    other => fail(format!(
                        "fault_plan.kernel at {stations} stations must be one of \
                         {FAULT_PLAN_KERNELS:?}, got {other:?}"
                    )),
                }
            }
        }
    }

    match doc.get("multichannel") {
        None => fail("missing multichannel".into()),
        Some(section) => {
            match section.get("channels").and_then(Json::as_f64) {
                Some(c) if c >= 4.0 => {}
                other => fail(format!(
                    "multichannel.channels must be >= 4, got {other:?}"
                )),
            }
            if section.get("equivalent").and_then(Json::as_bool) != Some(true) {
                fail("multichannel.equivalent must be true (results depend on worker count)"
                    .into());
            }
            if section.get("completed").and_then(Json::as_bool) != Some(true) {
                fail("multichannel did not complete".into());
            }
            match section.get("misses").and_then(Json::as_f64) {
                Some(0.0) => {}
                other => fail(format!(
                    "multichannel.misses must be 0 (the fabric is provably feasible), \
                     got {other:?}"
                )),
            }
            // The capacity win: the workload must be infeasible on one
            // channel and provable on the split fabric, else the section
            // demonstrates nothing.
            if section.get("single_channel_feasible").and_then(Json::as_bool) != Some(false) {
                fail("multichannel.single_channel_feasible must be false \
                      (capacity win is vacuous otherwise)"
                    .into());
            }
            if section.get("multi_channel_feasible").and_then(Json::as_bool) != Some(true) {
                fail("multichannel.multi_channel_feasible must be true".into());
            }
            for key in ["serial_wall_ns", "parallel_wall_ns", "host_parallelism"] {
                match section.get(key).and_then(Json::as_f64) {
                    Some(v) if v > 0.0 => {}
                    other => fail(format!("multichannel.{key} must be > 0, got {other:?}")),
                }
            }
            // Wall-clock scaling is only physically possible on a host
            // with enough cores; below that the speedup is informational.
            let host = section
                .get("host_parallelism")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            if host >= MIN_GATED_PARALLELISM as f64 {
                match section.get("speedup").and_then(Json::as_f64) {
                    Some(s) if s >= MIN_MULTICHANNEL_SPEEDUP => {}
                    Some(s) => fail(format!(
                        "multichannel.speedup {s:.2} below gate {MIN_MULTICHANNEL_SPEEDUP} \
                         on a {host}-core host"
                    )),
                    None => fail("missing multichannel.speedup".into()),
                }
            }
        }
    }

    match doc.get("federation") {
        None => fail("missing federation".into()),
        Some(section) => {
            match section.get("segments").and_then(Json::as_f64) {
                Some(s) if s >= 4.0 => {}
                other => fail(format!("federation.segments must be >= 4, got {other:?}")),
            }
            if section.get("equivalent").and_then(Json::as_bool) != Some(true) {
                fail("federation.equivalent must be true (results depend on worker count)"
                    .into());
            }
            if section.get("completed").and_then(Json::as_bool) != Some(true) {
                fail("federation did not complete".into());
            }
            // The chunked virtual-clock composition is only trusted while
            // N=1 reproduces the single-bus engine bit for bit.
            if section.get("n1_identical").and_then(Json::as_bool) != Some(true) {
                fail("federation.n1_identical must be true \
                      (one segment must match the single-bus engine)"
                    .into());
            }
            // Without bridge traffic the section measures four unrelated
            // engines, not a federation.
            match section.get("handoffs").and_then(Json::as_f64) {
                Some(h) if h >= 1.0 => {}
                other => fail(format!(
                    "federation.handoffs must be >= 1 (no transit traffic bridged), \
                     got {other:?}"
                )),
            }
            for key in ["serial_wall_ns", "parallel_wall_ns", "host_parallelism", "rounds"] {
                match section.get(key).and_then(Json::as_f64) {
                    Some(v) if v > 0.0 => {}
                    other => fail(format!("federation.{key} must be > 0, got {other:?}")),
                }
            }
            // Same waiver as multichannel: the wall-clock gate only binds
            // on hosts that can physically exhibit the speedup.
            let host = section
                .get("host_parallelism")
                .and_then(Json::as_f64)
                .unwrap_or(0.0);
            if host >= MIN_GATED_PARALLELISM as f64 {
                match section.get("speedup").and_then(Json::as_f64) {
                    Some(s) if s >= MIN_FEDERATION_SPEEDUP => {}
                    Some(s) => fail(format!(
                        "federation.speedup {s:.2} below gate {MIN_FEDERATION_SPEEDUP} \
                         on a {host}-core host"
                    )),
                    None => fail("missing federation.speedup".into()),
                }
            }
        }
    }

    match doc.get("edf_queue").and_then(|q| q.get("ops_per_sec")).and_then(Json::as_f64) {
        Some(v) if v > 0.0 => {}
        other => fail(format!("edf_queue.ops_per_sec must be > 0, got {other:?}")),
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny inline profile would still take seconds; instead validate
    /// the gate logic against synthetic reports.
    fn passing_report() -> Json {
        BenchReport {
            profile: Profile::Smoke,
            idle: IdleResult {
                stations: 32,
                load: 0.05,
                horizon_ticks: 512 * 1000,
                slots: 1000,
                fast_wall_ns: 1_000,
                reference_wall_ns: 50_000,
                equivalent: true,
            },
            loaded: vec![
                LoadedResult {
                    stations: 32,
                    load: 0.5,
                    messages: 6_144,
                    slots: 20_000,
                    fast_wall_ns: 2_000,
                    reference_wall_ns: 20_000,
                    equivalent: true,
                    completed: true,
                },
                LoadedResult {
                    stations: 32,
                    load: 0.8,
                    messages: 6_144,
                    slots: 26_000,
                    fast_wall_ns: 3_000,
                    reference_wall_ns: 30_000,
                    equivalent: true,
                    completed: true,
                },
            ],
            contention: ContentionResult {
                stations: 32,
                waves: 24,
                messages: 768,
                slots: 18_000,
                fast_wall_ns: 2_500,
                reference_wall_ns: 10_000,
                equivalent: true,
                completed: true,
                search_skip_runs: 24,
                search_skipped_slots: 1_200,
            },
            drains: vec![DrainResult {
                protocol: "ddcr".into(),
                stations: 8,
                load: 0.1,
                wall_ns: 5_000,
                sim_ticks: 1_000_000,
                delivered: 10,
                completed: true,
            }],
            station_scale: vec![
                StationScaleResult {
                    stations: 64,
                    messages: 128,
                    slots: 2_000,
                    active_wall_ns: 4_000,
                    baseline_wall_ns: 9_000,
                    equivalent: true,
                    completed: true,
                    polls: 5_000,
                    station_slots: 128_000,
                    faulted: false,
                    crashes: 0,
                },
                StationScaleResult {
                    stations: 1_024,
                    messages: 2_048,
                    slots: 40_000,
                    active_wall_ns: 8_000,
                    baseline_wall_ns: 30_000,
                    equivalent: true,
                    completed: true,
                    polls: 90_000,
                    station_slots: 40_960_000,
                    faulted: true,
                    crashes: 40,
                },
                StationScaleResult {
                    stations: 2_048,
                    messages: 4_096,
                    slots: 60_000,
                    active_wall_ns: 10_000,
                    baseline_wall_ns: 120_000,
                    equivalent: true,
                    completed: true,
                    polls: 150_000,
                    station_slots: 122_880_000,
                    faulted: false,
                    crashes: 0,
                },
            ],
            assembly: vec![
                AssemblyResult {
                    stations: 256,
                    wall_ns: 70_000,
                },
                AssemblyResult {
                    stations: 1_024,
                    wall_ns: 260_000,
                },
                AssemblyResult {
                    stations: 2_048,
                    wall_ns: 880_000,
                },
            ],
            admission: vec![
                AdmissionResult {
                    flows: 128,
                    median_ns: 12_800,
                },
                AdmissionResult {
                    flows: 1_024,
                    median_ns: 110_000,
                },
            ],
            fault_plan: FAULT_PLAN_GRID
                .into_iter()
                .map(|stations| FaultPlanResult {
                    stations,
                    slots: FAULT_PLAN_SLOTS,
                    events: 16,
                    wall_ns: 4_800_000,
                    kernel: "avx512",
                })
                .collect(),
            multichannel: MultichannelResult {
                channels: 4,
                participants: 32,
                messages: 2_400,
                workers: 4,
                host_parallelism: 8,
                serial_wall_ns: 40_000,
                parallel_wall_ns: 12_000,
                equivalent: true,
                completed: true,
                misses: 0,
                single_channel_feasible: false,
                multi_channel_feasible: true,
            },
            federation: FederationResult {
                segments: 4,
                participants: 32,
                messages: 2_400,
                workers: 4,
                host_parallelism: 8,
                serial_wall_ns: 40_000,
                parallel_wall_ns: 12_000,
                equivalent: true,
                completed: true,
                handoffs: 12,
                rounds: 96,
                n1_identical: true,
                misses: 0,
            },
            queue: QueueResult {
                operations: 40_000,
                wall_ns: 2_000_000,
            },
        }
        .to_json()
    }

    #[test]
    fn passing_report_round_trips_and_clears_gate() {
        let doc = passing_report();
        let text = doc.to_pretty();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, doc);
        assert_eq!(check_report(&parsed), Vec::<String>::new());
    }

    #[test]
    fn slow_fast_path_fails_gate() {
        let mut doc = passing_report();
        if let Json::Object(map) = &mut doc {
            if let Some(Json::Object(idle)) = map.get_mut("idle_fast_forward") {
                idle.insert("speedup".into(), Json::Number(1.2));
            }
        }
        let violations = check_report(&doc);
        assert!(violations.iter().any(|v| v.contains("below gate")), "{violations:?}");
    }

    #[test]
    fn divergent_stats_fail_gate() {
        let mut doc = passing_report();
        if let Json::Object(map) = &mut doc {
            if let Some(Json::Object(idle)) = map.get_mut("idle_fast_forward") {
                idle.insert("equivalent".into(), Json::Bool(false));
            }
        }
        assert!(check_report(&doc)
            .iter()
            .any(|v| v.contains("equivalent")));
    }

    #[test]
    fn missing_sections_are_reported() {
        let doc = Json::parse(r#"{"schema_version": 9}"#).unwrap();
        let violations = check_report(&doc);
        for needle in [
            "profile",
            "idle_fast_forward",
            "loaded_fast_forward",
            "contention_fast_forward",
            "protocol_drain",
            "station_scale",
            "assembly",
            "admission",
            "fault_plan",
            "multichannel",
            "federation",
            "edf_queue",
        ] {
            assert!(
                violations.iter().any(|v| v.contains(needle)),
                "no violation mentioning {needle}: {violations:?}"
            );
        }
    }

    #[test]
    fn outdated_schema_version_fails_gate() {
        let mut doc = passing_report();
        if let Json::Object(map) = &mut doc {
            map.insert("schema_version".into(), Json::Number(1.0));
        }
        assert!(check_report(&doc)
            .iter()
            .any(|v| v.contains("schema_version")));
    }

    #[test]
    fn slow_loaded_path_fails_gate() {
        let mut doc = passing_report();
        if let Json::Object(map) = &mut doc {
            if let Some(Json::Array(entries)) = map.get_mut("loaded_fast_forward") {
                if let Some(Json::Object(entry)) = entries.first_mut() {
                    entry.insert("speedup".into(), Json::Number(3.0));
                }
            }
        }
        let violations = check_report(&doc);
        assert!(
            violations.iter().any(|v| v.contains("below gate")),
            "{violations:?}"
        );
    }

    #[test]
    fn divergent_loaded_stats_fail_gate() {
        let mut doc = passing_report();
        if let Json::Object(map) = &mut doc {
            if let Some(Json::Array(entries)) = map.get_mut("loaded_fast_forward") {
                if let Some(Json::Object(entry)) = entries.first_mut() {
                    entry.insert("equivalent".into(), Json::Bool(false));
                }
            }
        }
        assert!(check_report(&doc)
            .iter()
            .any(|v| v.contains("loaded_fast_forward[0].equivalent")));
    }

    #[test]
    fn loaded_grid_without_gated_point_fails() {
        let mut doc = passing_report();
        if let Json::Object(map) = &mut doc {
            if let Some(Json::Array(entries)) = map.get_mut("loaded_fast_forward") {
                if let Some(Json::Object(entry)) = entries.first_mut() {
                    entry.insert("stations".into(), Json::Number(8.0));
                }
            }
        }
        assert!(check_report(&doc)
            .iter()
            .any(|v| v.contains("no gated entry (>= 32 stations at load 0.5)")));
    }

    #[test]
    fn loaded_grid_without_high_load_gated_point_fails() {
        let mut doc = passing_report();
        if let Json::Object(map) = &mut doc {
            if let Some(Json::Array(entries)) = map.get_mut("loaded_fast_forward") {
                if let Some(Json::Object(entry)) = entries.last_mut() {
                    entry.insert("load".into(), Json::Number(0.3));
                }
            }
        }
        assert!(check_report(&doc)
            .iter()
            .any(|v| v.contains("no gated entry (>= 32 stations at load 0.8)")));
    }

    #[test]
    fn slow_high_load_point_fails_gate() {
        let mut doc = passing_report();
        if let Json::Object(map) = &mut doc {
            if let Some(Json::Array(entries)) = map.get_mut("loaded_fast_forward") {
                if let Some(Json::Object(entry)) = entries.last_mut() {
                    entry.insert("speedup".into(), Json::Number(4.0));
                }
            }
        }
        let violations = check_report(&doc);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("below gate") && v.contains("load=0.8")),
            "{violations:?}"
        );
    }

    #[test]
    fn slow_station_scale_point_fails_gate() {
        let mut doc = passing_report();
        if let Json::Object(map) = &mut doc {
            if let Some(Json::Array(entries)) = map.get_mut("station_scale") {
                if let Some(Json::Object(entry)) = entries.last_mut() {
                    entry.insert("speedup".into(), Json::Number(3.0));
                }
            }
        }
        let violations = check_report(&doc);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("station_scale") && v.contains("below gate")),
            "{violations:?}"
        );
    }

    #[test]
    fn ungated_station_scale_point_is_informational() {
        // Below the gated population, a modest speedup is recorded but
        // not enforced — the first grid point (64 stations) may sit
        // anywhere.
        let mut doc = passing_report();
        if let Json::Object(map) = &mut doc {
            if let Some(Json::Array(entries)) = map.get_mut("station_scale") {
                if let Some(Json::Object(entry)) = entries.first_mut() {
                    entry.insert("speedup".into(), Json::Number(1.1));
                }
            }
        }
        assert_eq!(check_report(&doc), Vec::<String>::new());
    }

    #[test]
    fn divergent_station_scale_stats_fail_gate() {
        let mut doc = passing_report();
        if let Json::Object(map) = &mut doc {
            if let Some(Json::Array(entries)) = map.get_mut("station_scale") {
                if let Some(Json::Object(entry)) = entries.last_mut() {
                    entry.insert("equivalent".into(), Json::Bool(false));
                }
            }
        }
        assert!(check_report(&doc)
            .iter()
            .any(|v| v.contains("station_scale[2].equivalent")));
    }

    #[test]
    fn station_scale_without_gated_point_fails() {
        let mut doc = passing_report();
        if let Json::Object(map) = &mut doc {
            if let Some(Json::Array(entries)) = map.get_mut("station_scale") {
                if let Some(Json::Object(entry)) = entries.last_mut() {
                    entry.insert("stations".into(), Json::Number(512.0));
                }
            }
        }
        assert!(check_report(&doc)
            .iter()
            .any(|v| v.contains("station_scale has no gated entry")));
    }

    #[test]
    fn station_scale_without_faulted_point_fails() {
        let mut doc = passing_report();
        if let Json::Object(map) = &mut doc {
            if let Some(Json::Array(entries)) = map.get_mut("station_scale") {
                if let Some(Json::Object(entry)) = entries.get_mut(1) {
                    entry.insert("crashes".into(), Json::Number(0.0));
                }
            }
        }
        assert!(check_report(&doc)
            .iter()
            .any(|v| v.contains("station_scale has no faulted entry")));
        if let Json::Object(map) = &mut doc {
            if let Some(Json::Array(entries)) = map.get_mut("station_scale") {
                entries.retain(|e| e.get("faulted").and_then(Json::as_bool) != Some(true));
            }
        }
        assert!(check_report(&doc)
            .iter()
            .any(|v| v.contains("station_scale has no faulted entry")));
    }

    fn edit_assembly_wall(doc: &mut Json, stations: f64, wall_ns: f64) {
        if let Json::Object(map) = doc {
            if let Some(Json::Array(entries)) = map.get_mut("assembly") {
                for entry in entries {
                    if entry.get("stations").and_then(Json::as_f64) == Some(stations) {
                        if let Json::Object(entry) = entry {
                            entry.insert("wall_ns".into(), Json::Number(wall_ns));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn superlinear_assembly_fails_gate() {
        // 2048 stations at 4.1 µs each against 256 at 0.27 µs: the
        // quadratic shape of replicas that each copy the whole network.
        let mut doc = passing_report();
        edit_assembly_wall(&mut doc, 2048.0, 8_400_000.0);
        let violations = check_report(&doc);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("assembly per-station cost grows")),
            "{violations:?}"
        );
    }

    #[test]
    fn assembly_growth_at_the_bound_passes() {
        // Exactly 3x the 256-station per-station cost still clears.
        let mut doc = passing_report();
        edit_assembly_wall(&mut doc, 2048.0, 3.0 * 70_000.0 * 8.0);
        assert_eq!(check_report(&doc), Vec::<String>::new());
    }

    #[test]
    fn assembly_without_the_gated_populations_fails() {
        let mut doc = passing_report();
        edit_assembly_wall(&mut doc, 256.0, 0.0);
        assert!(check_report(&doc)
            .iter()
            .any(|v| v.contains("assembly needs positive wall_ns")));
        if let Json::Object(map) = &mut doc {
            map.remove("assembly");
        }
        assert!(check_report(&doc)
            .iter()
            .any(|v| v.contains("missing assembly")));
    }

    fn edit_admission_median(doc: &mut Json, flows: f64, median_ns: f64) {
        if let Json::Object(map) = doc {
            if let Some(Json::Array(entries)) = map.get_mut("admission") {
                for entry in entries {
                    if entry.get("flows").and_then(Json::as_f64) == Some(flows) {
                        if let Json::Object(entry) = entry {
                            entry.insert("median_ns".into(), Json::Number(median_ns));
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn quadratic_admission_fails_gate() {
        // 1024 flows at 800 ns each against 128 at 100 ns: the shape of a
        // request that re-evaluates every pair of the candidate set.
        let mut doc = passing_report();
        edit_admission_median(&mut doc, 1024.0, 819_200.0);
        let violations = check_report(&doc);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("admission per-class cost grows")),
            "{violations:?}"
        );
    }

    #[test]
    fn admission_growth_at_the_bound_passes() {
        let mut doc = passing_report();
        edit_admission_median(&mut doc, 1024.0, 3.0 * 100.0 * 1024.0);
        assert_eq!(check_report(&doc), Vec::<String>::new());
    }

    #[test]
    fn admission_without_the_gated_sizes_fails() {
        let mut doc = passing_report();
        edit_admission_median(&mut doc, 128.0, 0.0);
        assert!(check_report(&doc)
            .iter()
            .any(|v| v.contains("admission needs positive median_ns")));
        if let Json::Object(map) = &mut doc {
            map.remove("admission");
        }
        assert!(check_report(&doc)
            .iter()
            .any(|v| v.contains("missing admission")));
    }

    fn edit_fault_plan(doc: &mut Json, stations: f64, key: &str, value: Json) {
        if let Json::Object(map) = doc {
            if let Some(Json::Array(entries)) = map.get_mut("fault_plan") {
                for entry in entries {
                    if entry.get("stations").and_then(Json::as_f64) == Some(stations) {
                        if let Json::Object(entry) = entry {
                            entry.insert(key.into(), value.clone());
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fault_plan_has_no_floor() {
        // A host without vector extensions is slow, not failing.
        let mut doc = passing_report();
        edit_fault_plan(&mut doc, 1024.0, "wall_ns", Json::Number(9e12));
        edit_fault_plan(&mut doc, 1024.0, "kernel", Json::from("portable"));
        assert_eq!(check_report(&doc), Vec::<String>::new());
    }

    #[test]
    fn fault_plan_shape_is_checked() {
        let mut doc = passing_report();
        edit_fault_plan(&mut doc, 256.0, "kernel", Json::from("sse9"));
        edit_fault_plan(&mut doc, 1024.0, "ns_per_draw", Json::Number(0.0));
        let violations = check_report(&doc);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("fault_plan.kernel at 256")),
            "{violations:?}"
        );
        assert!(
            violations
                .iter()
                .any(|v| v.contains("fault_plan.ns_per_draw at 1024")),
            "{violations:?}"
        );
        edit_fault_plan(&mut doc, 256.0, "stations", Json::Number(255.0));
        assert!(check_report(&doc)
            .iter()
            .any(|v| v.contains("fault_plan needs an entry at 256 stations")));
        if let Json::Object(map) = &mut doc {
            map.remove("fault_plan");
        }
        assert!(check_report(&doc)
            .iter()
            .any(|v| v.contains("missing fault_plan")));
    }

    #[test]
    fn admission_measurement_covers_the_grid() {
        let results = measure_admission();
        let flows: Vec<u32> = results.iter().map(|r| r.flows).collect();
        assert_eq!(flows, ADMISSION_GRID);
        assert!(results.iter().all(|r| r.median_ns > 0));
    }

    #[test]
    fn divergent_contention_stats_fail_gate() {
        let mut doc = passing_report();
        if let Json::Object(map) = &mut doc {
            if let Some(Json::Object(contention)) = map.get_mut("contention_fast_forward") {
                contention.insert("equivalent".into(), Json::Bool(false));
            }
        }
        assert!(check_report(&doc)
            .iter()
            .any(|v| v.contains("contention_fast_forward.equivalent")));
    }

    #[test]
    fn disengaged_contention_tier_fails_gate() {
        let mut doc = passing_report();
        if let Json::Object(map) = &mut doc {
            if let Some(Json::Object(contention)) = map.get_mut("contention_fast_forward") {
                contention.insert("search_skip_runs".into(), Json::Number(0.0));
            }
        }
        assert!(check_report(&doc)
            .iter()
            .any(|v| v.contains("tier never engaged")));
    }

    #[test]
    fn incomplete_drain_fails_gate() {
        let mut doc = passing_report();
        if let Json::Object(map) = &mut doc {
            if let Some(Json::Array(entries)) = map.get_mut("protocol_drain") {
                if let Some(Json::Object(entry)) = entries.first_mut() {
                    entry.insert("completed".into(), Json::Bool(false));
                }
            }
        }
        assert!(check_report(&doc)
            .iter()
            .any(|v| v.contains("did not complete")));
    }

    fn edit_multichannel(doc: &mut Json, key: &str, value: Json) {
        if let Json::Object(map) = doc {
            if let Some(Json::Object(section)) = map.get_mut("multichannel") {
                section.insert(key.into(), value);
            }
        }
    }

    #[test]
    fn slow_multichannel_scaling_fails_gate_on_wide_hosts() {
        let mut doc = passing_report();
        edit_multichannel(&mut doc, "speedup", Json::Number(1.3));
        let violations = check_report(&doc);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("multichannel.speedup") && v.contains("below gate")),
            "{violations:?}"
        );
    }

    #[test]
    fn narrow_host_skips_speedup_gate_but_not_correctness() {
        // A 1-core box cannot show a 4-way speedup; the wall-clock gate is
        // waived there — but equivalence and the capacity facts never are.
        let mut doc = passing_report();
        edit_multichannel(&mut doc, "host_parallelism", Json::Number(1.0));
        edit_multichannel(&mut doc, "speedup", Json::Number(0.9));
        assert_eq!(check_report(&doc), Vec::<String>::new());
        edit_multichannel(&mut doc, "equivalent", Json::Bool(false));
        assert!(check_report(&doc)
            .iter()
            .any(|v| v.contains("multichannel.equivalent")));
    }

    #[test]
    fn vacuous_capacity_claim_fails_gate() {
        // If the workload were already provable on one channel, the
        // section would prove nothing — the gate pins the frontier.
        let mut doc = passing_report();
        edit_multichannel(&mut doc, "single_channel_feasible", Json::Bool(true));
        assert!(check_report(&doc)
            .iter()
            .any(|v| v.contains("single_channel_feasible")));
        let mut doc = passing_report();
        edit_multichannel(&mut doc, "multi_channel_feasible", Json::Bool(false));
        assert!(check_report(&doc)
            .iter()
            .any(|v| v.contains("multi_channel_feasible")));
    }

    #[test]
    fn multichannel_misses_fail_gate() {
        let mut doc = passing_report();
        edit_multichannel(&mut doc, "misses", Json::Number(3.0));
        assert!(check_report(&doc)
            .iter()
            .any(|v| v.contains("multichannel.misses")));
    }

    fn edit_federation(doc: &mut Json, key: &str, value: Json) {
        if let Json::Object(map) = doc {
            if let Some(Json::Object(section)) = map.get_mut("federation") {
                section.insert(key.into(), value);
            }
        }
    }

    #[test]
    fn slow_federation_scaling_fails_gate_on_wide_hosts() {
        let mut doc = passing_report();
        edit_federation(&mut doc, "speedup", Json::Number(1.3));
        let violations = check_report(&doc);
        assert!(
            violations
                .iter()
                .any(|v| v.contains("federation.speedup") && v.contains("below gate")),
            "{violations:?}"
        );
    }

    #[test]
    fn narrow_host_waives_federation_speedup_but_not_identities() {
        // The speedup waiver never extends to the determinism identities:
        // worker-count equivalence and N=1 ≡ single-bus hold on any host.
        let mut doc = passing_report();
        edit_federation(&mut doc, "host_parallelism", Json::Number(1.0));
        edit_federation(&mut doc, "speedup", Json::Number(0.9));
        assert_eq!(check_report(&doc), Vec::<String>::new());
        edit_federation(&mut doc, "equivalent", Json::Bool(false));
        assert!(check_report(&doc)
            .iter()
            .any(|v| v.contains("federation.equivalent")));
    }

    #[test]
    fn broken_n1_identity_fails_gate() {
        let mut doc = passing_report();
        edit_federation(&mut doc, "n1_identical", Json::Bool(false));
        assert!(check_report(&doc)
            .iter()
            .any(|v| v.contains("federation.n1_identical")));
    }

    #[test]
    fn bridgeless_federation_fails_gate() {
        // Zero handoffs would mean the "federation" is four unrelated
        // engines — no bridge semantics were exercised at all.
        let mut doc = passing_report();
        edit_federation(&mut doc, "handoffs", Json::Number(0.0));
        assert!(check_report(&doc)
            .iter()
            .any(|v| v.contains("federation.handoffs")));
    }

    #[test]
    fn queue_measurement_counts_every_operation() {
        let result = measure_queue(Profile::Smoke);
        assert_eq!(result.operations, 40_000);
    }
}

