//! Offline stand-in for `criterion`: enough API for the workspace's
//! benches to compile and run. `Bencher::iter` executes the body once and
//! reports wall-clock time — a smoke-run, not a statistical benchmark.

use std::fmt::Display;
use std::time::Instant;

/// Prevents the optimizer from eliding a value (std's hint).
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// Identifier for one benchmark case (`function_name/parameter`).
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// Builds an id from a function name and a parameter rendering.
    pub fn new(function: impl Display, parameter: impl Display) -> Self {
        BenchmarkId {
            name: format!("{function}/{parameter}"),
        }
    }
}

impl Display for BenchmarkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.name)
    }
}

/// Timing driver passed to bench bodies.
#[derive(Debug, Default)]
pub struct Bencher {
    elapsed_ns: u128,
}

impl Bencher {
    /// Runs the routine once, recording its wall-clock time.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let start = Instant::now();
        black_box(routine());
        self.elapsed_ns = start.elapsed().as_nanos();
    }
}

/// A named group of benchmark cases.
#[derive(Debug)]
pub struct BenchmarkGroup {
    name: String,
}

impl BenchmarkGroup {
    /// Accepted and ignored (the shim always runs one sample).
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Runs `routine` once with `input`, printing the single-shot time.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut routine: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut bencher = Bencher::default();
        routine(&mut bencher, input);
        println!(
            "bench {}/{id}: {} ns (single shot; criterion shim)",
            self.name, bencher.elapsed_ns
        );
        self
    }

    /// Runs `routine` once, printing the single-shot time.
    pub fn bench_function<F>(&mut self, id: impl Display, mut routine: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher::default();
        routine(&mut bencher);
        println!(
            "bench {}/{id}: {} ns (single shot; criterion shim)",
            self.name, bencher.elapsed_ns
        );
        self
    }

    /// No-op; groups have no deferred state in the shim.
    pub fn finish(self) {}
}

/// Top-level benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion;

impl Criterion {
    /// Opens a named group of cases.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup {
        BenchmarkGroup { name: name.into() }
    }

    /// Runs a single named bench case.
    pub fn bench_function<F>(&mut self, id: impl Display, mut routine: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut bencher = Bencher::default();
        routine(&mut bencher);
        println!(
            "bench {id}: {} ns (single shot; criterion shim)",
            bencher.elapsed_ns
        );
        self
    }
}

/// Declares a bench group runner function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares `main` running the given bench groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}
