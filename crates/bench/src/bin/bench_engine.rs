//! Runs the engine hot-path benchmark suite and writes the perf-gate
//! report `BENCH_engine.json` at the workspace root.
//!
//! ```text
//! bench_engine [smoke|full] [output-path]
//! ```
//!
//! Defaults: `smoke` profile, `BENCH_engine.json`. Pair with `bench_check`
//! (or `scripts/bench_check`) to enforce the thresholds. Run from the
//! workspace root so the report lands next to `Cargo.toml`, where CI and
//! the documentation expect it.

use ddcr_bench::enginebench::{run_suite, Profile, REPORT_PATH};

fn main() {
    let mut args = std::env::args().skip(1);
    let profile = match args.next() {
        None => Profile::Smoke,
        Some(arg) => Profile::from_arg(&arg).unwrap_or_else(|e| {
            eprintln!("bench_engine: {e}");
            std::process::exit(2);
        }),
    };
    let path = args.next().unwrap_or_else(|| REPORT_PATH.to_owned());

    eprintln!("bench_engine: running {profile:?} profile ...");
    let report = run_suite(profile);
    let idle = &report.idle;
    eprintln!(
        "bench_engine: idle fast-forward {}x ({} slots: fast {:.1} ms, reference {:.1} ms, equivalent={})",
        format_args!("{:.1}", idle.speedup()),
        idle.slots,
        idle.fast_wall_ns as f64 / 1e6,
        idle.reference_wall_ns as f64 / 1e6,
        idle.equivalent,
    );
    for loaded in &report.loaded {
        eprintln!(
            "bench_engine: loaded fast-forward z={} load={:.1}: {}x ({} slots, {} msgs: fast {:.1} ms, reference {:.1} ms, equivalent={}, completed={})",
            loaded.stations,
            loaded.load,
            format_args!("{:.1}", loaded.speedup()),
            loaded.slots,
            loaded.messages,
            loaded.fast_wall_ns as f64 / 1e6,
            loaded.reference_wall_ns as f64 / 1e6,
            loaded.equivalent,
            loaded.completed,
        );
    }
    for drain in &report.drains {
        eprintln!(
            "bench_engine: drain {} z={} load={:.1}: {:.0} Mtick/s, delivered {} (completed={})",
            drain.protocol,
            drain.stations,
            drain.load,
            drain.sim_ticks as f64 * 1e3 / drain.wall_ns.max(1) as f64,
            drain.delivered,
            drain.completed,
        );
    }
    for assembly in &report.assembly {
        eprintln!(
            "bench_engine: assembly z={}: {:.2} ms build+drop ({:.0} ns/station)",
            assembly.stations,
            assembly.wall_ns as f64 / 1e6,
            assembly.ns_per_station(),
        );
    }
    for admission in &report.admission {
        eprintln!(
            "bench_engine: admission at {} flows: {:.1} us/request ({:.0} ns/class)",
            admission.flows,
            admission.us_per_request(),
            admission.ns_per_class(),
        );
    }
    let federation = &report.federation;
    eprintln!(
        "bench_engine: federation {} segments x {} workers: {}x ({} handoffs over {} rounds, equivalent={}, n1_identical={}, completed={})",
        federation.segments,
        federation.workers,
        format_args!("{:.1}", federation.speedup()),
        federation.handoffs,
        federation.rounds,
        federation.equivalent,
        federation.n1_identical,
        federation.completed,
    );
    eprintln!(
        "bench_engine: edf queue {:.1} Mops/s",
        report.queue.operations as f64 * 1e3 / report.queue.wall_ns.max(1) as f64
    );

    let json = report.to_json().to_pretty();
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("bench_engine: cannot write {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("bench_engine: wrote {path}");
}
