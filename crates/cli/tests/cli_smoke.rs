//! End-to-end smoke tests of the compiled `ddcr` binary: exit codes,
//! stdout/stderr routing, and argument diagnostics — what a packager's CI
//! would run.

use std::process::Command;

fn ddcr(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_ddcr"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn no_args_prints_usage_and_succeeds() {
    let out = ddcr(&[]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("USAGE"));
    assert!(out.stderr.is_empty());
}

#[test]
fn xi_value_on_stdout() {
    let out = ddcr(&["xi", "--m", "4", "--n", "3", "--k", "2"]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("xi_2 = 11"));
}

#[test]
fn unknown_command_fails_with_diagnostic_on_stderr() {
    let out = ddcr(&["frobnicate"]);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn bad_flag_fails_with_flag_name() {
    let out = ddcr(&["xi", "--m", "4", "--n", "3", "--bogus", "1"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--bogus"));
}

#[test]
fn missing_value_reports_the_flag() {
    let out = ddcr(&["xi", "--m"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--m"));
}

// The two halves of `ddcr metrics`' live-ξ exit contract, previously only
// exercised by CI shell lines: a conforming run prints PASS and exits zero;
// any `Err` out of the command layer (a ξ violation takes exactly this
// path — see `metrics_verdict_is_err_on_xi_violation` in the command unit
// tests) lands on stderr with a non-zero exit.
#[test]
fn metrics_pass_exits_zero_and_command_errors_exit_nonzero() {
    let out = ddcr(&[
        "metrics",
        "--scenario",
        "uniform",
        "--sources",
        "4",
        "--load",
        "0.2",
        "--horizon-ms",
        "2",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("within the analytic bound: PASS"),
        "{stdout}"
    );
    // `--stepper` belongs to `trace`; `metrics` rejects it inside the
    // command (not the parser), so this drives the same `Err` arm of `main`
    // a ξ violation would.
    let out = ddcr(&[
        "metrics",
        "--scenario",
        "uniform",
        "--sources",
        "4",
        "--stepper",
        "fast",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("stepper"));
}

// The fast-forward bisection flags must reject bad values with a non-zero
// exit naming the flag, and a flag the command does not take — even with
// a well-formed value — must fail the same way.
#[test]
fn trace_skip_flags_parse_strictly_at_the_binary_level() {
    // Bad input is rejected before the sink file is created, so the --out
    // path never materializes.
    let sink = std::env::temp_dir().join("ddcr_smoke_never_written.jsonl");
    let sink = sink.to_str().unwrap();
    for (flag, value) in [("--contention-skip", "maybe"), ("--busy-skip", "on")] {
        let out = ddcr(&[
            "trace",
            "--scenario",
            "uniform",
            "--sources",
            "2",
            "--horizon-ms",
            "1",
            "--out",
            sink,
            flag,
            value,
        ]);
        assert!(!out.status.success(), "{flag} {value}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&flag[2..]), "{flag}: {stderr}");
    }
}

#[test]
fn feasibility_pipeline_works_end_to_end() {
    let out = ddcr(&[
        "feasibility",
        "--scenario",
        "uniform",
        "--sources",
        "2",
        "--load",
        "0.1",
        "--deadline-ms",
        "10",
    ]);
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("FEASIBLE"));
}

// A fault rate must be a probability: NaN, negative, infinite or > 1
// values used to run silently (NaN and -1 as "no crashes", 1.5 as "always
// crash"); now each exits non-zero naming the flag, in every command that
// takes fault flags.
#[test]
fn fault_rates_outside_zero_one_are_rejected() {
    let base = [
        "--scenario",
        "uniform",
        "--sources",
        "4",
        "--horizon-ms",
        "1",
    ];
    for command in [&["faults"][..], &["run"], &["run", "--segments", "2"]] {
        for flag in ["--corrupt", "--erase", "--crash"] {
            for value in ["NaN", "-1", "1.5", "inf"] {
                let mut line: Vec<&str> = command.to_vec();
                line.extend(base);
                line.extend([flag, value]);
                let out = ddcr(&line);
                assert!(!out.status.success(), "{line:?} must fail");
                let stderr = String::from_utf8_lossy(&out.stderr);
                assert!(
                    stderr.contains(flag) && stderr.contains("probability in [0, 1]"),
                    "{line:?}: {stderr}"
                );
            }
        }
    }
}

// `--horizon-ms` times 10⁶ ticks must fit in u64. Release builds used to
// wrap it into a short run ("over 1751 slots"), debug builds panicked.
#[test]
fn horizon_overflow_is_an_error_in_every_command() {
    let over = "18446744073710";
    let lines: [&[&str]; 8] = [
        &["simulate", "--protocol", "ddcr"],
        &["sweep"],
        &["run"],
        &["run", "--segments", "2"],
        &["faults"],
        &["faults", "--crash", "0.001"],
        &["metrics"],
        &["trace", "--out", "/dev/null"],
    ];
    for command in lines {
        let mut line: Vec<&str> = command.to_vec();
        line.extend([
            "--scenario",
            "uniform",
            "--sources",
            "4",
            "--horizon-ms",
            over,
        ]);
        let out = ddcr(&line);
        assert!(!out.status.success(), "{line:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--horizon-ms") && stderr.contains("overflows the tick clock"),
            "{line:?}: {stderr}"
        );
    }
}

// The fault replay line CI runs, pinned byte for byte: the plan behind it
// is the seeded generator's, so any drift in the draws shows up here.
#[test]
fn seeded_fault_run_output_is_pinned() {
    let out = ddcr(&[
        "faults",
        "--scenario",
        "uniform",
        "--sources",
        "8",
        "--seed",
        "7",
        "--crash",
        "0.002",
    ]);
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "seed 7: injected 1027 fault events over 39062 slots\n\
         scheduled 376, delivered 313, lost to crashes 63\n\
         corrupted slots 84, erased frames 0, crashes 226, restarts 223\n\
         misses 0, max latency 78619 ticks, utilization 0.260\n"
    );
}

// A horizon whose ticks (and doubled fault-plan ticks) fit in u64 but whose
// peak-load schedule would not fit in memory is refused up front, from the
// message set's densities, before any schedule is built.
#[test]
fn oversized_schedule_is_refused_in_every_command() {
    let huge = "9000000000000";
    let lines: [&[&str]; 8] = [
        &["simulate", "--protocol", "ddcr"],
        &["sweep"],
        &["run"],
        &["run", "--segments", "2"],
        &["faults"],
        &["faults", "--crash", "0.001"],
        &["metrics"],
        &["trace", "--out", "/dev/null"],
    ];
    for command in lines {
        let mut line: Vec<&str> = command.to_vec();
        line.extend([
            "--scenario",
            "uniform",
            "--sources",
            "4",
            "--horizon-ms",
            huge,
        ]);
        let out = ddcr(&line);
        assert!(!out.status.success(), "{line:?} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("--horizon-ms")
                && stderr.contains("peak-load schedule")
                && stderr.contains("above the limit of 10000000"),
            "{line:?}: {stderr}"
        );
    }
}

// A down time that outlasts the run keeps a crashed station down: the
// restart ordinal saturates instead of wrapping to a slot in the past,
// so no station restarts and none is crashed twice.
#[test]
fn down_time_beyond_the_clock_keeps_stations_down() {
    let out = ddcr(&[
        "faults",
        "--scenario",
        "uniform",
        "--sources",
        "4",
        "--crash",
        "0.01",
        "--down",
        "18446744073709551615",
        "--horizon-ms",
        "1",
    ]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("crashes 4, restarts 0"),
        "every station crashes once and stays down: {stdout}"
    );
}
