//! End-to-end benchmark of the `ddcr run` and `ddcr serve` paths.
//!
//! ```text
//! ddcr-benchmark [--workload NAME|all] [--seed S] [--seconds T] [--trace 0|1]
//!                [--repeat K] [--quick] [--ddcr PATH] [--write-golden]
//! ```
//!
//! Each workload runs in a fresh child process of this binary, so the ξ
//! cache, the allocator and the peak RSS belong to that workload alone.
//! Every metric is printed by name with its unit, every op's output is
//! checked, and the last stdout line is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. See `README.md`.

mod clock;
mod e2e;
mod layers;
mod oracle;
mod serve;
mod stats;
mod workload;

use ddcr_bench::json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workload::{Kind, Workload};

/// Default measuring time of one run, in seconds (`BENCHMARK.json`'s
/// `run_seconds`).
const DEFAULT_SECONDS: f64 = 15.0;

/// Fresh set-up processes before, and again after, a timed run; `setup_s`
/// is the median CPU time to ready of both groups, so it samples the host
/// at two moments.
const SETUP_PROBES: usize = 10;

/// The end-to-end metrics with their units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_cpu_p50_ms", "ms"),
    ("op_cpu_p90_ms", "ms"),
    ("ops_per_cpu_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// The result of one run of one workload.
#[derive(Debug)]
pub struct RunResult {
    attempted: u64,
    failures: e2e::Failures,
    metrics: BTreeMap<String, f64>,
    notes: Vec<String>,
}

impl RunResult {
    fn new(attempted: u64, failures: e2e::Failures) -> Self {
        RunResult {
            attempted,
            failures,
            metrics: BTreeMap::new(),
            notes: Vec::new(),
        }
    }

    fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_owned(), value);
    }

    fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    fn summary(&self) -> Summary {
        Summary {
            correct: self.failures.count() == 0,
            attempted: self.attempted,
            failed: self.failures.count(),
            metrics: self.metrics.clone(),
        }
    }
}

/// What a run reports: the four keys of the result line.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// The unit of a metric, from the end-to-end and per-layer tables. A
/// namespaced `workload.metric` name takes the unit of its last part.
fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(layers::PER_LAYER)
        .find(|(n, _)| name == *n || name.ends_with(&format!(".{n}")))
        .map_or("", |(_, u)| u)
}

impl Summary {
    fn json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, &value)| {
                (
                    name.clone(),
                    Json::object([
                        ("value", Json::from(value)),
                        ("unit", Json::from(unit(name))),
                    ]),
                )
            })
            .collect();
        Json::object([
            ("correct", Json::from(self.correct)),
            ("attempted", Json::from(self.attempted)),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::Object(metrics)),
        ])
    }

    /// The result as one JSON line.
    fn line(&self) -> String {
        self.json().to_pretty().lines().map(str::trim).collect()
    }

    fn parse(line: &str) -> Result<Summary, String> {
        let doc = Json::parse(line)?;
        let count = |key: &str| {
            doc.get(key)
                .and_then(Json::as_f64)
                .map(|v| v as u64)
                .ok_or_else(|| format!("result line lacks {key}"))
        };
        let mut metrics = BTreeMap::new();
        if let Some(Json::Object(map)) = doc.get("metrics") {
            for (name, entry) in map {
                let value = entry
                    .get("value")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("metric {name} has no value"))?;
                metrics.insert(name.clone(), value);
            }
        }
        Ok(Summary {
            correct: doc.get("correct").and_then(Json::as_bool) == Some(true),
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

/// What this process was asked to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Orchestrate: set-up probes, one child per workload, reporting.
    Parent,
    /// Run one workload in this process and print its result line.
    Child,
    /// Set one workload up and exit (a `setup_s` probe).
    SetupOnly,
    /// Regenerate the committed golden digests.
    WriteGolden,
}

#[derive(Debug, Clone)]
struct Cli {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    quick: bool,
    ddcr: PathBuf,
    role: Role,
}

/// Where builds land: `$CARGO_TARGET_DIR`, else `target`.
fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

fn parse_args(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workloads: Vec::new(),
        seed: oracle::SEEDS[0],
        seconds: DEFAULT_SECONDS,
        trace: false,
        repeat: 1,
        quick: false,
        ddcr: target_dir().join("release").join("ddcr"),
        role: Role::Parent,
    };
    let mut workload = "all".to_owned();
    let mut args = args.iter().peekable();
    while let Some(flag) = args.next() {
        let flag = flag.as_str();
        let mut value = || {
            args.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--workload" => workload = value()?,
            "--seed" => cli.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(cli.seconds >= 0.0 && cli.seconds.is_finite()) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--repeat" => {
                cli.repeat = value()?.parse().map_err(|_| "--repeat takes a count")?;
                if cli.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            // `--trace 0|1`, or a bare `--trace` meaning 1.
            "--trace" => {
                cli.trace = match args.next_if(|v| *v == "0" || *v == "1") {
                    Some(v) => v == "1",
                    None => true,
                }
            }
            "--ddcr" => cli.ddcr = PathBuf::from(value()?),
            "--quick" => cli.quick = true,
            "--child" => cli.role = Role::Child,
            "--setup-only" => cli.role = Role::SetupOnly,
            "--write-golden" => cli.role = Role::WriteGolden,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    cli.workloads = if workload == "all" {
        workload::workloads(cli.quick)
    } else {
        vec![workload::find(&workload, cli.quick).ok_or_else(|| {
            let names: Vec<&str> = workload::workloads(false).iter().map(|w| w.name).collect();
            format!(
                "unknown workload {workload} (one of: all, {})",
                names.join(", ")
            )
        })?]
    };
    Ok(cli)
}

/// `VmHWM` from a `/proc/<pid>/status` file, in MB.
pub fn peak_rss_mb(status_path: &str) -> Result<f64, String> {
    let status = std::fs::read_to_string(status_path)
        .map_err(|e| format!("cannot read {status_path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("no VmHWM in {status_path}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&args).and_then(|cli| match cli.role {
        Role::Parent => parent(&cli),
        Role::Child => child(&cli),
        Role::SetupOnly => setup_only(&cli).map(|()| true),
        Role::WriteGolden => write_golden(&cli).map(|()| true),
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ddcr-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn needs_ddcr(cli: &Cli) -> Result<(), String> {
    let serves = cli
        .workloads
        .iter()
        .any(|w| matches!(w.kind, Kind::Serve(_)));
    if serves && !cli.ddcr.is_file() {
        return Err(format!(
            "{} is missing: the serve workload drives the real `ddcr serve`; build it with \
             `cargo build --release -p ddcr-cli` (or pass --ddcr PATH)",
            cli.ddcr.display()
        ));
    }
    Ok(())
}

/// The arguments that select the same workload set-up in a child.
fn child_args(cli: &Cli, workload: &Workload) -> Vec<String> {
    let mut args = vec!["--workload".to_owned(), workload.name.to_owned()];
    if cli.quick {
        args.push("--quick".to_owned());
    }
    args.push("--ddcr".to_owned());
    args.push(cli.ddcr.display().to_string());
    args
}

/// Sets [`SETUP_PROBES`] fresh processes up and records, for each, the
/// wall time from spawn to ready and the CPU time it ran until ready.
fn setup_probes(cli: &Cli, workload: &Workload, times: &mut e2e::Times) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    for _ in 0..SETUP_PROBES {
        let started = Instant::now();
        match workload.kind {
            Kind::Sim(_) => {
                let output = Command::new(&exe)
                    .arg("--setup-only")
                    .args(child_args(cli, workload))
                    .stdin(Stdio::null())
                    .stderr(Stdio::inherit())
                    .output()
                    .map_err(|e| format!("cannot start a set-up probe: {e}"))?;
                let wall = started.elapsed().as_secs_f64();
                let cpu = String::from_utf8_lossy(&output.stdout)
                    .trim()
                    .parse::<f64>();
                match cpu {
                    Ok(cpu) if output.status.success() => times.push(wall, cpu),
                    _ => {
                        return Err(format!(
                            "{} set-up probe exited with {}",
                            workload.name, output.status
                        ))
                    }
                }
            }
            Kind::Serve(spec) => {
                let mut child = serve::ServeChild::spawn(&cli.ddcr, spec.sources)?;
                child.request(e2e::STATUS)?;
                times.push(started.elapsed().as_secs_f64(), child.cpu_seconds()?);
                child.finish()?;
            }
        }
    }
    Ok(())
}

/// Runs one workload in a fresh child process and returns its summary.
fn run_child(cli: &Cli, workload: &Workload, seed: u64) -> Result<Summary, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let output = Command::new(exe)
        .arg("--child")
        .args(child_args(cli, workload))
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &cli.seconds.to_string(),
        ])
        .args(["--trace", if cli.trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {} child: {e}", workload.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    match stdout.lines().last() {
        Some(line) if line.starts_with('{') => Summary::parse(line),
        _ => Err(format!(
            "the {} child exited with {} and no result",
            workload.name, output.status
        )),
    }
}

fn print_summary(name: &str, seed: u64, summary: &Summary) {
    println!(
        "{name} (seed {seed}): {} attempted, {} failed, {}",
        summary.attempted,
        summary.failed,
        if summary.correct {
            "correct"
        } else {
            "INCORRECT"
        }
    );
    for (metric, value) in &summary.metrics {
        println!("  {metric:<30} {value:>16.6} {}", unit(metric));
    }
}

fn parent(cli: &Cli) -> Result<bool, String> {
    needs_ddcr(cli)?;
    let mut results: BTreeMap<&str, Vec<Summary>> = BTreeMap::new();
    for pass in 0..cli.repeat {
        let seed = cli.seed + pass as u64;
        for workload in &cli.workloads {
            let mut setup = e2e::Times::default();
            if !cli.trace {
                setup_probes(cli, workload, &mut setup)?;
            }
            let mut summary = run_child(cli, workload, seed)?;
            if !cli.trace {
                setup_probes(cli, workload, &mut setup)?;
                summary
                    .metrics
                    .insert("setup_s".into(), stats::median(&setup.cpu));
                println!(
                    "{}: set-up wall time {:.6} s (median, not gated)",
                    workload.name,
                    stats::median(&setup.wall)
                );
            }
            print_summary(workload.name, seed, &summary);
            results.entry(workload.name).or_default().push(summary);
        }
    }
    let spreads = (cli.repeat > 1).then(|| print_spreads(&results));
    write_results(cli, &results, spreads)?;

    let all: Vec<&Summary> = results.values().flatten().collect();
    let last = if all.len() == 1 {
        all[0].clone()
    } else {
        Summary {
            correct: all.iter().all(|s| s.correct),
            attempted: all.iter().map(|s| s.attempted).sum(),
            failed: all.iter().map(|s| s.failed).sum(),
            metrics: results
                .iter()
                .flat_map(|(name, runs)| {
                    runs[0]
                        .metrics
                        .iter()
                        .map(move |(m, v)| (format!("{name}.{m}"), *v))
                })
                .collect(),
        }
    };
    println!("{}", last.line());
    Ok(last.correct)
}

/// Prints and returns the median, quartiles and range of every metric of
/// every workload over the `--repeat` passes.
fn print_spreads(results: &BTreeMap<&str, Vec<Summary>>) -> Json {
    println!("spread over passes (IQR and range as a share of the median):");
    let mut doc = BTreeMap::new();
    for (name, runs) in results {
        let mut per_metric = BTreeMap::new();
        for metric in runs[0].metrics.keys() {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.metrics.get(metric).copied())
                .collect();
            let (q1, med, q3) = stats::quartiles(&values);
            let sorted = stats::sorted(&values);
            let (min, max) = (sorted[0], sorted[sorted.len() - 1]);
            let share = |d: f64| if med == 0.0 { 0.0 } else { d / med };
            println!(
                "  {name:<13} {metric:<28} median {med:>14.6} {:<5} q1 {q1:>14.6} q3 {q3:>14.6} \
                 iqr {:>6.2}% range {:>6.2}%",
                unit(metric),
                100.0 * share(q3 - q1),
                100.0 * share(max - min)
            );
            per_metric.insert(
                metric.clone(),
                Json::object([
                    ("median", Json::from(med)),
                    ("q1", Json::from(q1)),
                    ("q3", Json::from(q3)),
                    ("min", Json::from(min)),
                    ("max", Json::from(max)),
                    ("iqr_share", Json::from(share(q3 - q1))),
                    ("unit", Json::from(unit(metric))),
                ]),
            );
        }
        doc.insert((*name).to_owned(), Json::Object(per_metric));
    }
    Json::Object(doc)
}

/// Writes every run's summary (and the spreads) to
/// `<target>/benchmark/results.json`.
fn write_results(
    cli: &Cli,
    results: &BTreeMap<&str, Vec<Summary>>,
    spreads: Option<Json>,
) -> Result<(), String> {
    let dir = target_dir().join("benchmark");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let runs = results
        .iter()
        .map(|(name, runs)| {
            (
                (*name).to_owned(),
                Json::Array(runs.iter().map(Summary::json).collect()),
            )
        })
        .collect();
    let mut doc = vec![
        ("seed", Json::from(cli.seed)),
        ("seconds", Json::from(cli.seconds)),
        ("trace", Json::from(cli.trace)),
        ("repeat", Json::from(cli.repeat as u64)),
        (
            "host_parallelism",
            Json::from(workload::host_workers() as u64),
        ),
        ("runs", Json::Object(runs)),
    ];
    if let Some(spreads) = spreads {
        doc.push(("spreads", spreads));
    }
    let path = dir.join("results.json");
    std::fs::write(&path, Json::object(doc).to_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// A set-up probe: sets the workload up and prints the CPU time this
/// process has run since it was forked.
fn setup_only(cli: &Cli) -> Result<(), String> {
    for workload in &cli.workloads {
        if let Kind::Sim(spec) = workload.kind {
            workload::Fabric::set_up(spec)?;
        }
    }
    println!("{}", clock::process_seconds()?);
    Ok(())
}

fn child(cli: &Cli) -> Result<bool, String> {
    let [workload] = cli.workloads.as_slice() else {
        return Err("a child runs exactly one workload".into());
    };
    let golden = !cli.quick;
    let summary = if cli.trace {
        let mut tracer = layers::Tracer::default();
        let (mut layer_values, attempted) = match workload.kind {
            Kind::Sim(spec) => layers::sim(spec, cli.seed, cli.seconds, &mut tracer)?,
            Kind::Serve(spec) => layers::serve(spec, cli.seed, Some(&cli.ddcr), &mut tracer)?,
        };
        write_trace(workload.name, &tracer)?;
        let probes = layers::fill_from_probes(&mut layer_values, cli.seed, Some(&cli.ddcr))?;
        if !probes.is_empty() {
            eprintln!(
                "{}: layers it does not exercise measured on smoke-size {}",
                workload.name,
                probes.join(", ")
            );
        }
        Summary {
            correct: true,
            attempted,
            failed: 0,
            metrics: layers::PER_LAYER
                .iter()
                .map(|(name, _)| ((*name).to_owned(), layer_values[name]))
                .collect(),
        }
    } else {
        let result = match workload.kind {
            Kind::Sim(spec) => e2e::sim(workload.name, spec, cli.seed, cli.seconds, golden)?,
            Kind::Serve(spec) => e2e::serve(
                workload.name,
                spec,
                cli.seed,
                cli.seconds,
                &cli.ddcr,
                golden,
            )?,
        };
        for note in &result.notes {
            eprintln!("{}: {note}", workload.name);
        }
        for reason in result.failures.reasons() {
            eprintln!("{}: FAILED {reason}", workload.name);
        }
        result.summary()
    };
    println!("{}", summary.line());
    Ok(summary.correct)
}

/// Writes the spans to `<target>/benchmark/trace-<workload>.jsonl` and
/// prints self time per span name.
fn write_trace(name: &str, tracer: &layers::Tracer) -> Result<(), String> {
    let dir = target_dir().join("benchmark");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("trace-{name}.jsonl"));
    std::fs::write(&path, tracer.jsonl())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!(
        "{name}: {} spans written to {}; self time by span:",
        tracer.spans().len(),
        path.display()
    );
    let mut selves: Vec<(&str, u64)> = layers::self_times(tracer.spans()).into_iter().collect();
    selves.sort_by_key(|&(_, ns)| std::cmp::Reverse(ns));
    for (span, ns) in selves {
        eprintln!("  {span:<32} {:>12.3} ms", ns as f64 / 1e6);
    }
    Ok(())
}

/// Regenerates `golden/<workload>.txt`: whole blocks of ops for every
/// golden seed, as many as fit in three default run lengths per seed.
fn write_golden(cli: &Cli) -> Result<(), String> {
    needs_ddcr(cli)?;
    for workload in &cli.workloads {
        let block = match workload.kind {
            Kind::Sim(_) => e2e::SIM_BLOCK,
            Kind::Serve(_) => e2e::SERVE_BLOCK,
        };
        let mut blocks = oracle::Blocks::new();
        for seed in oracle::SEEDS {
            let digests =
                e2e::golden_digests(workload.kind, seed, 3.0 * DEFAULT_SECONDS, block, &cli.ddcr)?;
            for (i, d) in oracle::block_digests(&digests, block)
                .into_iter()
                .enumerate()
            {
                blocks.insert((seed, i as u64), d);
            }
            eprintln!(
                "{}: seed {seed}: {} ops in golden blocks",
                workload.name,
                digests.len()
            );
        }
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("golden")
            .join(format!("{}.txt", workload.name));
        std::fs::write(&path, oracle::render(workload.name, block, &blocks))
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_and_is_one_line() {
        let summary = Summary {
            correct: true,
            attempted: 120,
            failed: 0,
            metrics: [
                ("op_cpu_p50_ms".to_owned(), 12.345678),
                ("setup_s".to_owned(), 0.0123),
            ]
            .into_iter()
            .collect(),
        };
        let line = summary.line();
        assert_eq!(line.lines().count(), 1);
        assert!(line.contains("\"unit\": \"ms\""), "{line}");
        assert_eq!(Summary::parse(&line).expect("parses"), summary);
    }

    #[test]
    fn run_arguments_parse() {
        let args: Vec<String> = "--workload saturated-32 --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let cli = parse_args(&args).expect("parses");
        assert_eq!((cli.seed, cli.seconds, cli.trace), (7, 3.0, true));
        assert_eq!(cli.workloads.len(), 1);
        let bare = parse_args(&["--trace".to_owned()]).expect("parses");
        assert!(bare.trace);
        assert_eq!(bare.workloads.len(), 6);
        assert!(parse_args(&["--workload".to_owned(), "nope".to_owned()]).is_err());
        assert!(parse_args(&["--seconds".to_owned(), "-1".to_owned()]).is_err());
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics_and_workloads() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field =
                        |k: &str| m.get(k).and_then(Json::as_str).expect("field").to_owned();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(layers::PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = workload::workloads(false).iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
        let seconds = doc
            .get("run_seconds")
            .and_then(Json::as_f64)
            .expect("run_seconds");
        assert_eq!(seconds, DEFAULT_SECONDS);
    }

    /// Every workload at smoke size, in-process (the serve workload through
    /// the in-process replica): the untraced run with its oracle, then the
    /// traced run with its layer re-runs.
    #[test]
    fn quick_smoke_runs_every_workload() {
        for w in workload::workloads(true) {
            let mut tracer = layers::Tracer::default();
            let (values, traced) = match w.kind {
                Kind::Sim(spec) => {
                    let run = e2e::sim(w.name, spec, 5, 0.0, false).expect("e2e run");
                    let summary = run.summary();
                    assert!(summary.correct, "{}: {:?}", w.name, run.failures.reasons());
                    assert!(summary.attempted >= 1);
                    for (name, _) in &END_TO_END[1..] {
                        assert!(summary.metrics[*name] > 0.0, "{}: {name}", w.name);
                    }
                    layers::sim(spec, 5, 0.0, &mut tracer).expect("traced run")
                }
                Kind::Serve(spec) => layers::serve(spec, 5, None, &mut tracer).expect("traced run"),
            };
            assert!(traced >= 1, "{}", w.name);
            assert!(
                values.keys().all(|k| !unit(k).is_empty()),
                "{}: unlisted metric",
                w.name
            );
            assert!(!tracer.spans().is_empty());
            let exercised = match w.kind {
                Kind::Sim(_) => ["engine.decision_slots", "federation.rounds"].as_slice(),
                Kind::Serve(_) => ["membership.admit_us_p50"].as_slice(),
            };
            assert!(
                exercised
                    .iter()
                    .any(|k| values.get(k).is_some_and(|v| *v > 0.0)),
                "{}: {values:?}",
                w.name
            );
        }
    }
}
