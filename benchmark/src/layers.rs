//! The traced run: spans around every public call the benchmark makes,
//! layer re-runs of the same ops, and the per-layer metrics derived from
//! them.
//!
//! Spans are recorded only here, in benchmark code; the program itself is
//! not instrumented. Each single-bus or per-channel re-run rebuilds the op
//! from its parts (`network::build_engine`, ξ tables, fault plan,
//! arrivals, `run_to_completion`) and must reproduce the end-to-end op's
//! digest, so the layer numbers measure the same work.

use crate::e2e::{STATUS, WARMUPS};
use crate::serve::{LogGen, Replica, Request, ServeChild, CLASS_WIDTH};
use crate::stats::{self, Fnv};
use crate::workload::{
    self, digest_stats, Fabric, Kind, Outcome, ServeSpec, SimSpec, Stepper, Topology, BUDGET,
    OP_WORKERS, WARMUP_BASE,
};
use ddcr_core::{feasibility, multibus, network, DdcrConfig, EdfQueue};
use ddcr_sim::rng::job_seed;
use ddcr_sim::{ClassId, Engine, FaultPlan, MediumConfig, Message, XiBoundTable};
use ddcr_traffic::{DensityBound, MessageClass, MessageSet};
use ddcr_tree::cache::{self, CacheStats};
use ddcr_tree::TableCache;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Most ops a traced simulation run covers.
pub const TRACE_OPS: u64 = 20;

/// Every per-layer metric with its unit, in report order. A layer a
/// workload does not exercise is measured on the smoke-size workload that
/// does (see [`fill_from_probes`]).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.run_ms", "ms"),
    ("engine.decision_slots", "count"),
    ("engine.ns_per_slot", "ns"),
    ("engine.polls_per_slot", "ratio"),
    ("engine.replays", "count"),
    ("engine.busy_skipped_slots", "count"),
    ("engine.search_skipped_slots", "count"),
    ("metrics.overhead_ratio", "ratio"),
    ("fault.plan_ms", "ms"),
    ("fault.events", "count"),
    ("fault.overhead_ratio", "ratio"),
    ("edf.ns_per_op", "ns"),
    ("multibus.pooled_ms", "ms"),
    ("multibus.pool_speedup", "ratio"),
    ("multibus.critical_ms", "ms"),
    ("multibus.orchestration_ms", "ms"),
    ("federation.pooled_ms", "ms"),
    ("federation.pool_speedup", "ratio"),
    ("federation.rounds", "count"),
    ("federation.handoffs", "count"),
    ("federation.ms_per_round", "ms"),
    ("tree.setup_cache_hits", "count"),
    ("tree.setup_cache_misses", "count"),
    ("tree.op_cache_hits", "count"),
    ("tree.op_cache_misses", "count"),
    ("tree.xi_tables_cold_ms", "ms"),
    ("tree.xi_tables_warm_ms", "ms"),
    ("core.dimension_ms", "ms"),
    ("feasibility.budgets_ms", "ms"),
    ("feasibility.eval_us_p50", "us"),
    ("membership.admit_us_p50", "us"),
    ("membership.admit_us_p90", "us"),
    ("membership.join_us_p50", "us"),
    ("membership.leave_us_p50", "us"),
    ("membership.admitted_p50", "count"),
    ("membership.reject_frac", "ratio"),
    ("serve.transport_us_p50", "us"),
    ("traffic.messages", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index in the trace.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// The op the span belongs to (`None` for set-up).
    pub op: Option<u64>,
    /// The layer call it wraps.
    pub name: &'static str,
    /// Start, nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, nanoseconds since the trace began.
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder; spans nest by open/close order.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: Option<u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: None,
        }
    }
}

impl Tracer {
    /// Tags the spans opened from now on with op `op`.
    pub fn set_op(&mut self, op: Option<u64>) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            op: self.op,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span still open inside it) and returns its
    /// duration.
    pub fn close(&mut self, id: usize) -> Duration {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
        Duration::from_nanos(self.spans[id].duration_ns())
    }

    /// Runs `f` inside a span and returns its result and duration.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let id = self.open(name);
        let out = f();
        let elapsed = self.close(id);
        (out, elapsed)
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines.
    pub fn jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let opt = |v: Option<u64>| v.map_or("null".to_owned(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                opt(s.parent.map(|p| p as u64)),
                opt(s.op),
                s.name,
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

/// Self time per span name: each span's duration minus the durations of
/// its direct children, summed by name.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p] += s.duration_ns();
        }
    }
    let mut out = BTreeMap::new();
    for s in spans {
        *out.entry(s.name).or_insert(0) += s.duration_ns().saturating_sub(children[s.id]);
    }
    out
}

/// Per-layer metric values by name.
pub type Layers = BTreeMap<&'static str, f64>;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        stats::median(values)
    }
}

fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

fn p(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        stats::percentile(&stats::sorted(values), q)
    }
}

/// ξ tables for `config` from a fresh, empty cache: the cost a cold process
/// pays.
fn cold_xi_tables(config: &DdcrConfig) -> Result<(XiBoundTable, XiBoundTable), String> {
    let fresh = TableCache::new();
    let table = |shape: ddcr_tree::TreeShape| {
        fresh
            .worst_case(shape)
            .map(|t| XiBoundTable::from_envelope(shape.branching(), &t.xi_envelope()))
            .map_err(|e| e.to_string())
    };
    Ok((table(config.time_tree)?, table(config.static_tree)?))
}

/// Times cold and warm ξ-table builds for `config` into `layers`.
fn xi_table_layers(
    tracer: &mut Tracer,
    config: &DdcrConfig,
    layers: &mut Layers,
) -> Result<(), String> {
    let (cold, cold_time) = tracer.time("tree.xi_tables_cold", || cold_xi_tables(config));
    cold?;
    network::xi_bound_tables(config).map_err(|e| e.to_string())?;
    let (warm, warm_time) = tracer.time("tree.xi_tables_warm", || network::xi_bound_tables(config));
    warm.map_err(|e| e.to_string())?;
    layers.insert("tree.xi_tables_cold_ms", ms(cold_time));
    layers.insert("tree.xi_tables_warm_ms", ms(warm_time));
    Ok(())
}

/// Cache counters over set-up, and over ops.
const SETUP_CACHE: (&str, &str) = ("tree.setup_cache_hits", "tree.setup_cache_misses");
const OP_CACHE: (&str, &str) = ("tree.op_cache_hits", "tree.op_cache_misses");

fn cache_layers(
    layers: &mut Layers,
    (hits, misses): (&'static str, &'static str),
    delta: CacheStats,
    per: f64,
) {
    layers.insert(hits, delta.hits as f64 / per);
    layers.insert(misses, delta.misses as f64 / per);
}

/// What one channel's engine did when run on its own.
#[derive(Debug, Default)]
struct EngineRun {
    project: Duration,
    run: Duration,
    plan: Duration,
    total: Duration,
    slots: u64,
    polls: u64,
    replays: u64,
    busy_skipped: u64,
    search_skipped: u64,
    fault_events: usize,
    violations: u64,
    completed: bool,
    stats: ddcr_sim::ChannelStats,
}

/// How a channel re-run is configured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Rerun {
    /// Exactly as `multibus::run_channels` runs the channel.
    AsOp,
    /// Metrics and ξ checks off.
    Unmetered,
    /// The op's fault plan replaced by the empty plan.
    FaultFree,
}

/// Rebuilds channel `channel` of an op from its public parts and runs it,
/// mirroring `multibus::run_channels` step for step.
fn run_channel(
    tracer: &mut Tracer,
    fabric: &Fabric,
    channel: usize,
    messages: &[Message],
    fault_seed: u64,
    mode: Rerun,
) -> Result<EngineRun, String> {
    let started = tracer.open("channel.engine");
    let (projected, project) = tracer.time("multibus.project", || {
        fabric.assignment.project(&fabric.set, channel)
    });
    let projected = projected.map_err(|e| e.to_string())?;
    let (engine, _) = tracer.time("network.build_engine", || {
        network::build_engine(
            &projected,
            &fabric.config,
            &fabric.allocation,
            fabric.medium,
        )
    });
    let mut engine: Engine = engine.map_err(|e| e.to_string())?;
    if mode != Rerun::Unmetered {
        let (tables, _) = tracer.time("network.xi_bound_tables", || {
            network::xi_bound_tables(&fabric.config)
        });
        let (time, static_) = tables.map_err(|e| e.to_string())?;
        tracer.time("engine.set_xi_bounds", || {
            engine.set_xi_bounds(time, static_);
        });
    }
    let mut out = EngineRun {
        project,
        ..EngineRun::default()
    };
    if let (Some(rates), true) = (fabric.fault_rates(), mode != Rerun::FaultFree) {
        let (plan, plan_time) = tracer.time("fault.plan", || {
            FaultPlan::generate(
                job_seed(fault_seed, channel as u64),
                fabric.set.sources(),
                fabric.fault_horizon_slots(),
                &rates,
            )
        });
        out.plan = plan_time;
        out.fault_events = plan.len();
        engine.set_fault_plan(plan);
    }
    let (added, _) = tracer.time("engine.add_arrivals", || {
        engine.add_arrivals(messages.iter().copied()).map(|_| ())
    });
    added.map_err(|e| e.to_string())?;
    let (result, run) = tracer.time("engine.run_to_completion", || {
        engine.run_to_completion(BUDGET)
    });
    out.run = run;
    out.completed = result.is_ok();
    out.slots = engine.slot_ordinal();
    out.polls = engine.poll_count();
    out.replays = engine.replay_count();
    if let Some(m) = engine.take_metrics() {
        out.busy_skipped = m.busy_skipped_slots;
        out.search_skipped = m.search_skipped_slots;
        out.violations = m.violations_total;
    }
    (out.stats, _) = tracer.time("engine.into_stats", || engine.into_stats());
    out.total = tracer.close(started);
    Ok(out)
}

/// All channels of one op, re-run one after another; also returns the
/// digest and the time spent splitting the schedule.
fn run_channels_apart(
    tracer: &mut Tracer,
    fabric: &Fabric,
    schedule: &[Message],
    fault_seed: u64,
    mode: Rerun,
) -> Result<(Vec<EngineRun>, u64, Duration), String> {
    let (per_channel, split) = tracer.time("multibus.split_schedule", || {
        fabric.assignment.split_schedule(schedule.to_vec())
    });
    let mut runs = Vec::new();
    let mut digest = Fnv::default();
    for (channel, messages) in per_channel.iter().enumerate() {
        let run = run_channel(tracer, fabric, channel, messages, fault_seed, mode)?;
        if !run.completed || run.violations > 0 {
            return Err(format!("channel {channel} re-run failed ({mode:?})"));
        }
        digest_stats(&mut digest, &run.stats);
        runs.push(run);
    }
    Ok((runs, digest.finish(), split))
}

/// Pushes each source's share of `schedule` into its own `EdfQueue` and
/// pops it empty; returns (queue operations, elapsed).
fn edf_push_pop(schedule: &[Message], sources: u32) -> (u64, Duration) {
    let mut by_source: Vec<Vec<Message>> = vec![Vec::new(); sources as usize];
    for m in schedule {
        by_source[m.source.0 as usize].push(*m);
    }
    let started = Instant::now();
    let mut ops = 0u64;
    for share in &by_source {
        let mut queue = EdfQueue::new();
        for m in share {
            queue.push(*m);
        }
        while let Some(m) = queue.pop() {
            std::hint::black_box(m);
        }
        ops += 2 * share.len() as u64;
    }
    (ops, started.elapsed())
}

/// Per-op samples of a traced simulation run.
#[derive(Debug, Default)]
struct SimSamples {
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    messages: Vec<f64>,
    run_ms: Vec<f64>,
    slots: Vec<f64>,
    ns_per_slot: Vec<f64>,
    polls: u64,
    all_slots: u64,
    replays: Vec<f64>,
    busy_skipped: Vec<f64>,
    search_skipped: Vec<f64>,
    metrics_ratio: Vec<f64>,
    plan_ms: Vec<f64>,
    events: Vec<f64>,
    fault_ratio: Vec<f64>,
    edf_ops: u64,
    edf_ns: u64,
    pooled_ms: Vec<f64>,
    critical_ms: Vec<f64>,
    orchestration_ms: Vec<f64>,
    rounds: Vec<f64>,
    handoffs: Vec<f64>,
    op_cache: CacheStats,
}

/// The traced run of a simulation workload: up to [`TRACE_OPS`] ops, or
/// fewer if `seconds` runs out.
pub fn sim(
    spec: SimSpec,
    seed: u64,
    seconds: f64,
    tracer: &mut Tracer,
) -> Result<(Layers, u64), String> {
    let mut layers = Layers::new();
    let before_setup = cache::global().stats();
    let setup = tracer.open("setup");
    let (set, _) = tracer.time("traffic.message_set", || {
        workload::message_set(spec.scenario)
    });
    let (set, medium) = set?;
    let (dimensioned, dimension_time) =
        tracer.time("core.dimension", || workload::dimension(&set, &medium));
    let (config, allocation) = dimensioned?;
    layers.insert("core.dimension_ms", ms(dimension_time));
    let (assignment, _) = tracer.time("multibus.balance_by_load", || {
        multibus::balance_by_load(&set, spec.topology.parts())
    });
    let mut routes = Vec::new();
    if let Topology::Segments(_) = spec.topology {
        (routes, _) = tracer.time("federate.transit_routes", || {
            ddcr_core::federate::transit_routes(&set, &assignment, 4)
        });
    } else {
        let (computed, budget_time) = tracer.time("multibus.channel_budgets", || {
            multibus::channel_budgets(&set, &assignment, &config, &allocation, &medium)
        });
        std::hint::black_box(computed.map_err(|e| e.to_string())?);
        layers.insert("feasibility.budgets_ms", ms(budget_time));
    }
    tracer.close(setup);
    cache_layers(
        &mut layers,
        SETUP_CACHE,
        cache::global().stats().since(before_setup),
        1.0,
    );
    let fabric = Fabric {
        spec,
        set,
        medium,
        config,
        allocation,
        assignment,
        routes,
    };

    // Warm B_DDCR evaluations of each channel's projected set.
    let mut evals = Vec::new();
    for channel in 0..spec.topology.parts() {
        let projected = fabric
            .assignment
            .project(&fabric.set, channel)
            .map_err(|e| e.to_string())?;
        for _ in 0..5 {
            let (report, took) = tracer.time("feasibility.evaluate", || {
                feasibility::evaluate(
                    &projected,
                    &fabric.config,
                    &fabric.allocation,
                    &fabric.medium,
                )
            });
            report.map_err(|e| e.to_string())?;
            evals.push(us(took));
        }
    }
    layers.insert("feasibility.eval_us_p50", median(&evals));
    xi_table_layers(tracer, &fabric.config, &mut layers)?;

    for k in 0..WARMUPS {
        crate::e2e::checked_op(&fabric, seed, WARMUP_BASE + k, OP_WORKERS, Stepper::Fast)?;
    }
    let mut s = SimSamples::default();
    let start = Instant::now();
    let mut op = 0u64;
    while op < TRACE_OPS && (op == 0 || start.elapsed().as_secs_f64() < seconds) {
        trace_sim_op(tracer, &fabric, seed, op, &mut s)?;
        op += 1;
    }
    tracer.set_op(None);
    let n = op as f64;

    layers.insert("traffic.messages", mean(&s.messages));
    layers.insert(
        "trace.overhead_frac",
        median(&s.traced_ms) / median(&s.untraced_ms) - 1.0,
    );
    cache_layers(&mut layers, OP_CACHE, s.op_cache, n);
    if !s.run_ms.is_empty() {
        layers.insert("engine.run_ms", median(&s.run_ms));
        layers.insert("engine.decision_slots", mean(&s.slots));
        layers.insert("engine.ns_per_slot", median(&s.ns_per_slot));
        layers.insert(
            "engine.polls_per_slot",
            s.polls as f64 / s.all_slots.max(1) as f64,
        );
        layers.insert("engine.replays", mean(&s.replays));
        layers.insert("engine.busy_skipped_slots", mean(&s.busy_skipped));
        layers.insert("engine.search_skipped_slots", mean(&s.search_skipped));
        layers.insert("metrics.overhead_ratio", median(&s.metrics_ratio));
        layers.insert("multibus.pooled_ms", median(&s.pooled_ms));
        layers.insert(
            "multibus.pool_speedup",
            median(&s.untraced_ms) / median(&s.pooled_ms),
        );
        layers.insert("multibus.critical_ms", median(&s.critical_ms));
        layers.insert("multibus.orchestration_ms", median(&s.orchestration_ms));
    }
    if !s.fault_ratio.is_empty() {
        layers.insert("fault.plan_ms", median(&s.plan_ms));
        layers.insert("fault.events", mean(&s.events));
        layers.insert("fault.overhead_ratio", median(&s.fault_ratio));
    }
    if s.edf_ops > 0 {
        layers.insert("edf.ns_per_op", s.edf_ns as f64 / s.edf_ops as f64);
    }
    if !s.rounds.is_empty() {
        let rounds = mean(&s.rounds);
        layers.insert("federation.pooled_ms", median(&s.pooled_ms));
        layers.insert(
            "federation.pool_speedup",
            median(&s.untraced_ms) / median(&s.pooled_ms),
        );
        layers.insert("federation.rounds", rounds);
        layers.insert("federation.handoffs", mean(&s.handoffs));
        layers.insert(
            "federation.ms_per_round",
            median(&s.untraced_ms) / rounds.max(1.0),
        );
    }
    Ok((layers, op))
}

/// One traced simulation op: the untraced op, the traced op, the op on the
/// host's worker pool, and every layer re-run of it.
fn trace_sim_op(
    tracer: &mut Tracer,
    fabric: &Fabric,
    seed: u64,
    op: u64,
    s: &mut SimSamples,
) -> Result<(), String> {
    let fault_seed = job_seed(seed, op);
    let untraced_run = |s: &mut SimSamples| -> Result<Outcome, String> {
        let schedule = fabric.schedule(seed, op)?;
        let t = Instant::now();
        let outcome = fabric.run(schedule, fault_seed, OP_WORKERS, Stepper::Fast)?;
        s.untraced_ms.push(ms(t.elapsed()));
        outcome.check()?;
        Ok(outcome)
    };
    // The untraced and the traced run swap order from op to op, so the one
    // that meets cold caches does not bias the trace overhead either way.
    let early = if op.is_multiple_of(2) {
        Some(untraced_run(s)?)
    } else {
        None
    };

    tracer.set_op(Some(op));
    let (schedule, _) = tracer.time("traffic.generate", || fabric.schedule(seed, op));
    let schedule = schedule?;
    s.messages.push(schedule.len() as f64);
    let before = cache::global().stats();
    let root = tracer.open("op");
    let entry = match fabric.spec.topology {
        Topology::Segments(_) => "federate.run_segments",
        _ => "multibus.run_channels",
    };
    let (outcome, _) = tracer.time(entry, || {
        fabric.run(schedule.clone(), fault_seed, OP_WORKERS, Stepper::Fast)
    });
    s.traced_ms.push(ms(tracer.close(root)));
    s.op_cache.hits += cache::global().stats().since(before).hits;
    s.op_cache.misses += cache::global().stats().since(before).misses;
    let outcome = outcome?;
    outcome.check()?;
    let untraced = match early {
        Some(untraced) => untraced,
        None => untraced_run(s)?,
    };
    if outcome.digest() != untraced.digest() {
        return Err(format!("op {op}: traced and untraced runs differ"));
    }

    let (edf, _) = tracer.time("edf.push_pop", || {
        edf_push_pop(&schedule, fabric.set.sources())
    });
    s.edf_ops += edf.0;
    s.edf_ns += edf.1.as_nanos() as u64;

    let pooled_span = match fabric.spec.topology {
        Topology::Segments(_) => "federate.run_segments.pooled",
        _ => "multibus.run_channels.pooled",
    };
    let (pooled, pooled_time) = tracer.time(pooled_span, || {
        fabric.run(
            schedule.clone(),
            fault_seed,
            workload::host_workers(),
            Stepper::Fast,
        )
    });
    if pooled?.digest() != outcome.digest() {
        return Err(format!(
            "op {op}: the pooled run differs from the one-worker run"
        ));
    }
    s.pooled_ms.push(ms(pooled_time));

    if let Topology::Segments(_) = fabric.spec.topology {
        s.rounds.push(outcome.rounds as f64);
        s.handoffs.push(outcome.handoffs as f64);
        return Ok(());
    }

    let rerun = tracer.open("layer.rerun");
    let (runs, digest, split) =
        run_channels_apart(tracer, fabric, &schedule, fault_seed, Rerun::AsOp)?;
    tracer.close(rerun);
    if digest != outcome.digest() {
        return Err(format!(
            "op {op}: the layer re-run's digest differs from the op's"
        ));
    }
    let run: Duration = runs.iter().map(|r| r.run).sum();
    let slots: u64 = runs.iter().map(|r| r.slots).sum();
    s.run_ms.push(ms(run));
    s.slots.push(slots as f64);
    s.ns_per_slot
        .push(run.as_nanos() as f64 / slots.max(1) as f64);
    s.polls += runs.iter().map(|r| r.polls).sum::<u64>();
    s.all_slots += slots;
    s.replays
        .push(runs.iter().map(|r| r.replays).sum::<u64>() as f64);
    s.busy_skipped
        .push(runs.iter().map(|r| r.busy_skipped).sum::<u64>() as f64);
    s.search_skipped
        .push(runs.iter().map(|r| r.search_skipped).sum::<u64>() as f64);
    s.critical_ms
        .push(runs.iter().map(|r| ms(r.total)).fold(0.0, f64::max));
    s.orchestration_ms
        .push(ms(split + runs.iter().map(|r| r.project).sum::<Duration>()));

    let unmetered = tracer.open("layer.unmetered");
    let (bare, bare_digest, _) =
        run_channels_apart(tracer, fabric, &schedule, fault_seed, Rerun::Unmetered)?;
    tracer.close(unmetered);
    if bare_digest != digest {
        return Err(format!("op {op}: metrics changed the channel statistics"));
    }
    let bare_run: Duration = bare.iter().map(|r| r.run).sum();
    s.metrics_ratio
        .push(run.as_secs_f64() / bare_run.as_secs_f64());

    if fabric.fault_rates().is_some() {
        let clean = tracer.open("layer.fault_free");
        let (clean_runs, ..) =
            run_channels_apart(tracer, fabric, &schedule, fault_seed, Rerun::FaultFree)?;
        tracer.close(clean);
        let clean_run: Duration = clean_runs.iter().map(|r| r.run).sum();
        s.fault_ratio
            .push(run.as_secs_f64() / clean_run.as_secs_f64());
        s.plan_ms.push(ms(runs.iter().map(|r| r.plan).sum()));
        s.events
            .push(runs.iter().map(|r| r.fault_events).sum::<usize>() as f64);
    }
    Ok(())
}

/// The traced run of the serve workload: a fixed log prefix replayed
/// through two `ddcr serve` sessions (untraced, then one span per request)
/// and through the in-process replica, with `B_DDCR` evaluations of every
/// candidate set timed on their own. `ddcr` is `None` for the in-process
/// smoke run, which skips the child sessions.
pub fn serve(
    spec: ServeSpec,
    seed: u64,
    ddcr: Option<&Path>,
    tracer: &mut Tracer,
) -> Result<(Layers, u64), String> {
    let mut layers = Layers::new();
    let requests: Vec<Request> = {
        let mut log = LogGen::new(seed, spec.sources);
        (0..spec.trace_requests)
            .map(|_| log.next_request())
            .collect()
    };
    let before_setup = cache::global().stats();
    let (replica, setup_time) = tracer.time("core.dimension", || Replica::new(spec.sources));
    let mut replica = replica?;
    layers.insert("core.dimension_ms", ms(setup_time));
    cache_layers(
        &mut layers,
        SETUP_CACHE,
        cache::global().stats().since(before_setup),
        1.0,
    );
    let config = DdcrConfig::for_sources(spec.sources, CLASS_WIDTH).map_err(|e| e.to_string())?;
    xi_table_layers(tracer, &config, &mut layers)?;

    let mut e2e_p50 = None;
    if let Some(ddcr) = ddcr {
        let untraced = serve_session(ddcr, spec, &requests, None)?;
        let traced = serve_session(ddcr, spec, &requests, Some(tracer))?;
        layers.insert(
            "trace.overhead_frac",
            median(&traced) / median(&untraced) - 1.0,
        );
        e2e_p50 = Some(median(&untraced));
    }

    let (mut admit, mut join, mut leave, mut all, mut evals, mut admitted) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    let (mut flows, mut rejected, mut admits) = (0u64, 0u64, 0u32);
    let mut op_cache = CacheStats::default();
    let medium = MediumConfig::ethernet();
    for (i, request) in requests.iter().enumerate() {
        tracer.set_op(Some(i as u64));
        // The candidate set `Membership::admit` evaluates: every admitted
        // flow plus the applicant under the next class id.
        let candidate = match request {
            Request::Flow(flow) => {
                admitted.push(replica.membership.admitted().len() as f64);
                let mut classes = replica.membership.admitted().to_vec();
                classes.push(MessageClass {
                    id: ClassId(admits),
                    name: flow.name.clone(),
                    source: flow.source,
                    bits: flow.bits,
                    deadline: flow.deadline,
                    density: DensityBound::new(flow.arrivals, flow.window)
                        .map_err(|e| e.to_string())?,
                });
                Some(MessageSet::new(spec.sources, classes).map_err(|e| e.to_string())?)
            }
            _ => None,
        };
        let name = match request {
            Request::Join(_) => "membership.join",
            Request::Leave(_) => "membership.leave",
            Request::Flow(_) => "membership.admit",
        };
        let before = cache::global().stats();
        let (expected, took) = tracer.time(name, || replica.apply(request));
        let delta = cache::global().stats().since(before);
        op_cache.hits += delta.hits;
        op_cache.misses += delta.misses;
        let expected = expected?;
        all.push(us(took));
        match request {
            Request::Join(_) => join.push(us(took)),
            Request::Leave(_) => leave.push(us(took)),
            Request::Flow(_) => admit.push(us(took)),
        }
        if let Some(candidate) = candidate {
            flows += 1;
            if expected.rejected {
                rejected += 1;
            } else {
                admits += 1;
            }
            // A flow leaves the leaf partition untouched, so the replica's
            // allocation is the one the admission evaluated against.
            let (report, took) = tracer.time("feasibility.evaluate", || {
                feasibility::evaluate(
                    &candidate,
                    &config,
                    replica.membership.allocation(),
                    &medium,
                )
            });
            report.map_err(|e| e.to_string())?;
            evals.push(us(took));
        }
    }
    tracer.set_op(None);
    cache_layers(&mut layers, OP_CACHE, op_cache, requests.len() as f64);
    layers.insert("feasibility.eval_us_p50", median(&evals));
    layers.insert("membership.admit_us_p50", p(&admit, 0.5));
    layers.insert("membership.admit_us_p90", p(&admit, 0.9));
    layers.insert("membership.join_us_p50", p(&join, 0.5));
    layers.insert("membership.leave_us_p50", p(&leave, 0.5));
    layers.insert("membership.admitted_p50", median(&admitted));
    layers.insert(
        "membership.reject_frac",
        rejected as f64 / flows.max(1) as f64,
    );
    if let Some(e2e) = e2e_p50 {
        layers.insert("serve.transport_us_p50", e2e - median(&all));
    }
    Ok((layers, requests.len() as u64))
}

/// Measures every per-layer metric `layers` still lacks on the smoke-size
/// workloads, in table order, until none is missing: a layer that the
/// traced workload does not exercise is reported from a small run that
/// does, so every traced run reports every layer. Returns the probes that
/// contributed.
pub fn fill_from_probes(
    layers: &mut Layers,
    seed: u64,
    ddcr: Option<&Path>,
) -> Result<Vec<&'static str>, String> {
    let mut used = Vec::new();
    for probe in workload::workloads(true) {
        if PER_LAYER.iter().all(|(name, _)| layers.contains_key(name)) {
            break;
        }
        let mut tracer = Tracer::default();
        let (values, _) = match probe.kind {
            Kind::Sim(spec) => sim(spec, seed, f64::INFINITY, &mut tracer)?,
            Kind::Serve(spec) => serve(spec, seed, ddcr, &mut tracer)?,
        };
        let missing = values.keys().any(|name| !layers.contains_key(name));
        for (name, value) in values {
            layers.entry(name).or_insert(value);
        }
        if missing {
            used.push(probe.name);
        }
    }
    Ok(used)
}

/// One `ddcr serve` session over `requests`; returns per-request µs.
fn serve_session(
    ddcr: &Path,
    spec: ServeSpec,
    requests: &[Request],
    mut tracer: Option<&mut Tracer>,
) -> Result<Vec<f64>, String> {
    let mut child = ServeChild::spawn(ddcr, spec.sources)?;
    child.request(STATUS)?;
    let mut times = Vec::with_capacity(requests.len());
    for (i, request) in requests.iter().enumerate() {
        let line = request.line();
        let took = match tracer.as_deref_mut() {
            Some(tracer) => {
                tracer.set_op(Some(i as u64));
                let (reply, took) =
                    tracer.time("serve.request", || child.request(&line).map(|_| ()));
                reply?;
                took
            }
            None => {
                let t = Instant::now();
                child.request(&line)?;
                t.elapsed()
            }
        };
        times.push(us(took));
    }
    child.finish()?;
    Ok(times)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        id: usize,
        parent: Option<usize>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> Span {
        Span {
            id,
            parent,
            op: Some(0),
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(0, None, "op", 0, 100),
            span(1, Some(0), "run", 10, 70),
            span(2, Some(1), "engine", 20, 50),
            span(3, Some(0), "run", 80, 90),
            span(4, None, "op", 200, 210),
        ];
        let selves = self_times(&spans);
        assert_eq!(selves["op"], (100 - 60 - 10) + 10);
        assert_eq!(selves["run"], (60 - 30) + 10);
        assert_eq!(selves["engine"], 30);
        let total: u64 = selves.values().sum();
        assert_eq!(total, 100 + 10, "self times partition the root spans");
    }

    #[test]
    fn tracer_nests_spans_and_closes_inner_ones() {
        let mut t = Tracer::default();
        t.set_op(Some(3));
        let outer = t.open("outer");
        let inner = t.open("inner");
        t.open("leaked");
        t.close(inner);
        t.close(outer);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(outer));
        assert_eq!(spans[2].parent, Some(inner));
        assert!(spans
            .iter()
            .all(|s| s.end_ns >= s.start_ns && s.op == Some(3)));
        assert_eq!(t.jsonl().lines().count(), 3);
        assert!(t
            .jsonl()
            .starts_with("{\"id\":0,\"parent\":null,\"op\":3,\"name\":\"outer\""));
    }
}
