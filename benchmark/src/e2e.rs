//! The untraced end-to-end run of one workload: a closed loop with one
//! client, op after op until the run's time is up, then the oracle.

use crate::clock;
use crate::oracle;
use crate::serve::{self, LogGen, Replica, ServeChild};
use crate::stats::{self, Fnv};
use crate::workload::{Fabric, ServeSpec, SimSpec, Stepper, OP_WORKERS, WARMUP_BASE};
use crate::{peak_rss_mb, RunResult};
use ddcr_sim::rng::job_seed;
use std::collections::BTreeSet;
use std::path::Path;
use std::time::Instant;

/// Untimed warm-up ops before a simulation workload's timed loop.
pub const WARMUPS: u64 = 2;

/// Fewest timed ops of a run: enough for ten samples beyond the p90. A
/// run on a slow or contended host goes past its `--seconds` to reach it.
pub const MIN_OPS: usize = 100;

/// Simulation ops per golden block.
pub const SIM_BLOCK: usize = 50;

/// Serve replies per golden block.
pub const SERVE_BLOCK: usize = 1_000;

/// The request that tells a fresh `ddcr serve` is ready.
pub const STATUS: &str = "{\"op\":\"status\"}";

/// Failed ops and the first few reasons.
#[derive(Debug, Default)]
pub struct Failures {
    ops: BTreeSet<usize>,
    session: u64,
    reasons: Vec<String>,
}

impl Failures {
    /// Marks op `op` failed.
    pub fn op(&mut self, op: usize, reason: String) {
        self.ops.insert(op);
        self.note(format!("op {op}: {reason}"));
    }

    /// Whether op `op` failed.
    pub fn has(&self, op: usize) -> bool {
        self.ops.contains(&op)
    }

    /// A failure of the whole run, not of one op (e.g. the serve child
    /// exited non-zero).
    pub fn session(&mut self, reason: String) {
        self.session += 1;
        self.note(reason);
    }

    fn note(&mut self, reason: String) {
        if self.reasons.len() < 5 {
            self.reasons.push(reason);
        }
    }

    /// Applies the golden verdict.
    pub fn golden(&mut self, verdict: &oracle::Verdict) {
        for range in &verdict.mismatched {
            let (start, end) = (range.start, range.end);
            self.ops.extend(range.clone());
            self.note(format!(
                "ops {start}..{end}: block digest differs from the golden"
            ));
        }
    }

    /// Failed op count.
    pub fn count(&self) -> u64 {
        self.ops.len() as u64 + self.session
    }

    /// The recorded reasons.
    pub fn reasons(&self) -> &[String] {
        &self.reasons
    }
}

/// Wall and CPU times, in seconds: per op of a timed phase, or per set-up
/// probe.
#[derive(Debug, Default)]
pub struct Times {
    /// Wall times.
    pub wall: Vec<f64>,
    /// CPU times of the process doing the work.
    pub cpu: Vec<f64>,
}

impl Times {
    /// Records one sample.
    pub fn push(&mut self, wall: f64, cpu: f64) {
        self.wall.push(wall);
        self.cpu.push(cpu);
    }
}

/// Builds the common end-to-end result.
fn result(
    times: &Times,
    rss_mb: f64,
    failures: Failures,
    digests: &[u64],
    verdict: oracle::Verdict,
) -> RunResult {
    let n = times.wall.len();
    let (wall, cpu) = (stats::sorted(&times.wall), stats::sorted(&times.cpu));
    let mut run_digest = Fnv::default();
    digests.iter().for_each(|&d| run_digest.u64(d));
    let mut out = RunResult::new(n as u64, failures);
    out.metric("op_cpu_p50_ms", stats::percentile(&cpu, 0.5) * 1e3);
    out.metric("op_cpu_p90_ms", stats::percentile(&cpu, 0.9) * 1e3);
    out.metric("ops_per_cpu_s", n as f64 / cpu.iter().sum::<f64>());
    out.metric("peak_rss_mb", rss_mb);
    out.note(format!(
        "{n} timed ops, {} beyond p90",
        stats::beyond_p90(n)
    ));
    // Wall times follow the host's scheduling (hypervisor steal, preempted
    // wake-ups) as much as the code; they are printed for reference only.
    out.note(format!(
        "wall p50 {:.4} ms, wall p90 {:.4} ms, wall throughput {:.3} ops/s (not gated)",
        stats::percentile(&wall, 0.5) * 1e3,
        stats::percentile(&wall, 0.9) * 1e3,
        n as f64 / wall.iter().sum::<f64>()
    ));
    out.note(if verdict.checked_blocks > 0 {
        format!(
            "run digest {:016x}; {} golden block(s) checked, {} differ",
            run_digest.finish(),
            verdict.checked_blocks,
            verdict.mismatched.len()
        )
    } else {
        format!(
            "run digest {:016x} (unchecked: no golden for this seed)",
            run_digest.finish()
        )
    });
    out
}

/// One untimed op with every check applied.
pub fn checked_op(
    fabric: &Fabric,
    seed: u64,
    op: u64,
    workers: usize,
    stepper: Stepper,
) -> Result<u64, String> {
    let schedule = fabric.schedule(seed, op)?;
    let outcome = fabric.run(schedule, job_seed(seed, op), workers, stepper)?;
    outcome.check()?;
    Ok(outcome.digest())
}

/// Runs a simulation workload for `seconds`.
pub fn sim(
    name: &str,
    spec: SimSpec,
    seed: u64,
    seconds: f64,
    golden: bool,
) -> Result<RunResult, String> {
    let fabric = Fabric::set_up(spec)?;
    for k in 0..WARMUPS {
        checked_op(&fabric, seed, WARMUP_BASE + k, OP_WORKERS, Stepper::Fast)
            .map_err(|e| format!("warm-up op failed: {e}"))?;
    }
    let mut failures = Failures::default();
    let mut times = Times::default();
    let mut digests = Vec::new();
    let start = Instant::now();
    while digests.len() < MIN_OPS || start.elapsed().as_secs_f64() < seconds {
        let op = digests.len();
        let schedule = fabric.schedule(seed, op as u64)?;
        // One worker: the op runs on this thread, whose CPU clock it reads.
        let cpu = clock::thread_seconds()?;
        let t = Instant::now();
        let outcome = fabric.run(
            schedule,
            job_seed(seed, op as u64),
            OP_WORKERS,
            Stepper::Fast,
        );
        times.push(t.elapsed().as_secs_f64(), clock::thread_seconds()? - cpu);
        match outcome.and_then(|o| o.check().map(|()| o.digest())) {
            Ok(digest) => digests.push(digest),
            Err(e) => {
                failures.op(op, e);
                digests.push(0);
            }
        }
    }
    let rss = peak_rss_mb("/proc/self/status")?;

    // The first op must match the all-tiers-off reference stepper bit for
    // bit, whatever the seed. An op that did not drain is not re-run: the
    // reference stepper would step every slot of the whole budget.
    if !failures.has(0) {
        match checked_op(&fabric, seed, 0, 1, Stepper::Reference) {
            Ok(reference) if reference == digests[0] => {}
            Ok(_) => failures.op(0, "differs from the reference stepper".into()),
            Err(e) => failures.op(0, format!("reference stepper failed: {e}")),
        }
    }
    let verdict = if golden {
        oracle::check(name, seed, &digests, SIM_BLOCK)?
    } else {
        oracle::Verdict::default()
    };
    failures.golden(&verdict);
    Ok(result(&times, rss, failures, &digests, verdict))
}

/// Runs the serve workload for `seconds` against a spawned `ddcr serve`.
pub fn serve(
    name: &str,
    spec: ServeSpec,
    seed: u64,
    seconds: f64,
    ddcr: &Path,
    golden: bool,
) -> Result<RunResult, String> {
    let mut child = ServeChild::spawn(ddcr, spec.sources)?;
    child.request(STATUS)?;
    let mut failures = Failures::default();
    let mut log = LogGen::new(seed, spec.sources);
    let mut times = Times::default();
    let mut replies = Vec::new();
    // The child is idle between requests, so one reading closes an op and
    // opens the next.
    let mut cpu = child.cpu_seconds()?;
    let start = Instant::now();
    while replies.len() < MIN_OPS || start.elapsed().as_secs_f64() < seconds {
        let line = log.next_request().line();
        let t = Instant::now();
        match child.request(&line) {
            Ok(reply) => {
                let wall = t.elapsed().as_secs_f64();
                replies.push(reply.to_owned());
                let now = child.cpu_seconds()?;
                times.push(wall, now - cpu);
                cpu = now;
            }
            Err(e) => {
                failures.session(e);
                break;
            }
        }
    }
    if times.wall.is_empty() {
        return Err(format!(
            "ddcr serve answered no request: {:?}",
            failures.reasons()
        ));
    }
    let rss = child.peak_rss_mb()?;
    match child.finish() {
        Ok(summary) if summary.contains("\"safe\":true") => {}
        Ok(summary) => failures.session(format!("unsafe session summary: {summary}")),
        Err(e) => failures.session(e),
    }

    // Every reply must carry the decision the in-process replica reaches
    // on the same log.
    let mut replica = Replica::new(spec.sources)?;
    let mut log = LogGen::new(seed, spec.sources);
    let mut digests = Vec::with_capacity(replies.len());
    for (i, reply) in replies.iter().enumerate() {
        let checked = replica
            .apply(&log.next_request())
            .and_then(|expected| serve::check_reply(reply, &expected));
        if let Err(e) = checked {
            failures.op(i, e);
        }
        let mut h = Fnv::default();
        serve::digest_reply(&mut h, reply);
        digests.push(h.finish());
    }
    let verdict = if golden {
        oracle::check(name, seed, &digests, SERVE_BLOCK)?
    } else {
        oracle::Verdict::default()
    };
    failures.golden(&verdict);
    Ok(result(&times, rss, failures, &digests, verdict))
}

/// Digests whole blocks of ops of a workload for the golden file, until
/// `seconds` have passed, cross-checking the first op against the
/// reference stepper and every serve reply against the replica.
pub fn golden_digests(
    kind: crate::workload::Kind,
    seed: u64,
    seconds: f64,
    block: usize,
    ddcr: &Path,
) -> Result<Vec<u64>, String> {
    use crate::workload::Kind;
    let started = Instant::now();
    let mut digests = Vec::new();
    let more =
        |done: usize| !done.is_multiple_of(block) || started.elapsed().as_secs_f64() < seconds;
    match kind {
        Kind::Sim(spec) => {
            let fabric = Fabric::set_up(spec)?;
            while more(digests.len()) {
                let op = digests.len() as u64;
                digests.push(checked_op(&fabric, seed, op, OP_WORKERS, Stepper::Fast)?);
            }
            if checked_op(&fabric, seed, 0, 1, Stepper::Reference)? != digests[0] {
                return Err("op 0 differs from the reference stepper".into());
            }
        }
        Kind::Serve(spec) => {
            let mut child = ServeChild::spawn(ddcr, spec.sources)?;
            child.request(STATUS)?;
            let mut log = LogGen::new(seed, spec.sources);
            let mut replica = Replica::new(spec.sources)?;
            while more(digests.len()) {
                let request = log.next_request();
                let reply = child.request(&request.line())?;
                serve::check_reply(reply, &replica.apply(&request)?)?;
                let mut h = Fnv::default();
                serve::digest_reply(&mut h, reply);
                digests.push(h.finish());
            }
            child.finish()?;
        }
    }
    Ok(digests)
}
