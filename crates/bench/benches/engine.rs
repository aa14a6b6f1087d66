//! Criterion benches for the engine hot path: idle fast-forward slot
//! throughput (optimized vs the retained reference stepper), loaded
//! fast-forward throughput on a bursting DDCR drain,
//! protocol drain rates at several station counts and loads, and EDF
//! queue push/pop throughput.
//!
//! These are the same scenarios the perf gate measures; `bench_engine`
//! runs them standalone and writes `BENCH_engine.json` (see
//! `docs/PERF.md`). Under the offline criterion shim each case is a
//! single-shot timing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ddcr_baseline::QueueDiscipline;
use ddcr_bench::enginebench::{loaded_workload, measure_queue, run_loaded, Profile};
use ddcr_bench::harness::{default_ddcr_config, run_protocol, ProtocolKind};
use ddcr_core::{network, StaticAllocation};
use ddcr_sim::{MediumConfig, Ticks};
use ddcr_traffic::{scenario, ScheduleBuilder};

fn bench_idle_fast_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_idle");
    group.sample_size(10);
    let medium = MediumConfig::ethernet();
    let set = scenario::uniform(32, 8_000, Ticks(5_000_000), 0.05).unwrap();
    let horizon = Ticks(medium.slot_ticks * 400_000);
    let schedule = ScheduleBuilder::bounded_random(&set, 0.05, 11)
        .unwrap()
        .build(horizon)
        .unwrap();
    for (name, fast_forward) in [("fast_forward", true), ("reference_stepper", false)] {
        group.bench_with_input(
            BenchmarkId::new("idle_32_stations_400k_slots", name),
            &fast_forward,
            |b, &fast_forward| {
                b.iter(|| {
                    let config = default_ddcr_config(&set, &medium);
                    let allocation =
                        StaticAllocation::round_robin(config.static_tree, set.sources()).unwrap();
                    let mut engine =
                        network::build_engine(&set, &config, &allocation, medium).unwrap();
                    engine.set_fast_forward(fast_forward);
                    engine.add_arrivals(schedule.clone()).unwrap();
                    engine.run_until(horizon);
                    engine.stats().silence_slots
                })
            },
        );
    }
    group.finish();
}

fn bench_loaded_fast_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_loaded");
    group.sample_size(10);
    let medium = MediumConfig::ethernet();
    let (set, schedule, _horizon) = loaded_workload(32, 0.5, 16);
    for (name, optimized) in [("fast_forward", true), ("reference_stepper", false)] {
        group.bench_with_input(
            BenchmarkId::new("loaded_32_stations_load05_burst", name),
            &optimized,
            |b, &optimized| b.iter(|| run_loaded(&set, &schedule, medium, optimized).0.delivered),
        );
    }
    group.finish();
}

fn bench_protocol_drain(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_drain");
    group.sample_size(10);
    let medium = MediumConfig::ethernet();
    for (stations, load) in [(8, 0.1), (32, 0.1), (32, 0.6)] {
        let set = scenario::uniform(stations, 8_000, Ticks(5_000_000), load).unwrap();
        let schedule = ScheduleBuilder::bounded_random(&set, load, 23)
            .unwrap()
            .build(Ticks(4_000_000))
            .unwrap();
        let kinds = [
            ProtocolKind::Ddcr(default_ddcr_config(&set, &medium)),
            ProtocolKind::CsmaCd(QueueDiscipline::Fifo, 7),
            ProtocolKind::NpEdf,
        ];
        for kind in &kinds {
            group.bench_with_input(
                BenchmarkId::new(format!("drain_z{stations}_load{load}"), kind.name()),
                kind,
                |b, kind| {
                    b.iter(|| {
                        run_protocol(kind, &set, &schedule, medium, Ticks(40_000_000_000)).unwrap()
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_edf_queue(c: &mut Criterion) {
    let mut group = c.benchmark_group("edf_queue");
    group.sample_size(10);
    group.bench_function("push_pop_20k_scrambled", |b| {
        b.iter(|| measure_queue(Profile::Smoke).wall_ns)
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_idle_fast_forward,
    bench_loaded_fast_forward,
    bench_protocol_drain,
    bench_edf_queue
);
criterion_main!(benches);
