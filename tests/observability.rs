//! Observability-layer integration tests: the streaming latency histogram
//! agrees with exact nearest-rank percentiles for every protocol and
//! collision mode, JSONL trace exports are bitwise identical across the
//! fast-forward and reference steppers, retention-off runs keep constant
//! memory with exact counters, and seeded DDCR runs never breach the
//! analytic ξ bound.

use ddcr_baseline::{CsmaCdStation, DcrStation, NpEdfOracle, QueueDiscipline};
use ddcr_core::network;
use ddcr_integration::ddcr_setup;
use ddcr_sim::{
    ChannelStats, ClassId, CollisionMode, Engine, JsonlSink, LatencyHistogram, MediumConfig,
    Message, MessageId, SourceId, Ticks,
};
use ddcr_traffic::{scenario, ScheduleBuilder};
use proptest::prelude::*;
use std::io::Write;
use std::sync::{Arc, Mutex};

#[derive(Debug, Clone, Copy)]
enum Proto {
    Ddcr,
    CsmaCd,
    Dcr,
    NpEdf,
}

const PROTOS: [Proto; 4] = [Proto::Ddcr, Proto::CsmaCd, Proto::Dcr, Proto::NpEdf];

fn medium_for(mode: CollisionMode) -> MediumConfig {
    let mut medium = MediumConfig::ethernet();
    medium.collision_mode = mode;
    medium
}

/// Runs a synthetic burst through one protocol, retaining every delivery so
/// exact per-delivery percentiles are available alongside the histogram.
fn run_proto(proto: Proto, mode: CollisionMode, z: u32, schedule: Vec<Message>) -> ChannelStats {
    let medium = medium_for(mode);
    let budget = Ticks(200_000_000_000);
    match proto {
        Proto::NpEdf => NpEdfOracle::run_schedule(medium, schedule, budget).expect("oracle run"),
        _ => {
            let mut engine = Engine::new(medium).expect("engine");
            match proto {
                Proto::Ddcr => {
                    let set = scenario::uniform(z, 8_000, Ticks(50_000_000), 0.2).expect("set");
                    let (config, allocation) = ddcr_setup(&set, &medium);
                    engine = network::build_engine(&set, &config, &allocation, medium)
                        .expect("ddcr engine");
                }
                Proto::CsmaCd => {
                    for i in 0..z {
                        engine.add_station(Box::new(CsmaCdStation::new(
                            SourceId(i),
                            medium,
                            QueueDiscipline::Edf,
                            7,
                        )));
                    }
                }
                Proto::Dcr => {
                    for i in 0..z {
                        engine.add_station(Box::new(
                            DcrStation::new(SourceId(i), z, medium, QueueDiscipline::Edf)
                                .expect("dcr station"),
                        ));
                    }
                }
                Proto::NpEdf => unreachable!(),
            }
            engine.add_arrivals(schedule).expect("arrivals");
            let _ = engine.run_to_completion(budget);
            engine.into_stats()
        }
    }
}

fn burst_schedule(z: u32, per_source: u64, spacing: u64) -> Vec<Message> {
    let mut out = Vec::new();
    let mut id = 0u64;
    for round in 0..per_source {
        for s in 0..z {
            out.push(Message {
                id: MessageId(id),
                source: SourceId(s),
                class: ClassId(0),
                bits: 8_000,
                arrival: Ticks(round * spacing),
                deadline: Ticks(round * spacing + 50_000_000),
            });
            id += 1;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For every protocol and both collision modes, the histogram's
    /// p50/p95/p99 land in exactly the bucket containing the exact
    /// nearest-rank percentile computed from the retained deliveries.
    #[test]
    fn histogram_percentiles_match_exact_nearest_rank(
        per_source in 1u64..6,
        spacing_exp in 0usize..3,
        destructive in any::<bool>(),
    ) {
        let spacing = [40_000u64, 400_000, 4_000_000][spacing_exp];
        let mode = if destructive {
            CollisionMode::Destructive
        } else {
            CollisionMode::Arbitrating
        };
        let z = 4u32;
        for proto in PROTOS {
            let stats = run_proto(proto, mode, z, burst_schedule(z, per_source, spacing));
            prop_assert!(stats.delivered > 0, "{proto:?}: nothing delivered");
            prop_assert_eq!(
                stats.latency_histogram.total(),
                stats.delivered,
                "{:?}: histogram misses deliveries", proto
            );
            let (h50, h95, h99) = stats.histogram_percentiles();
            let (e50, e95, e99) = stats.latency_percentiles();
            for (q, hist, exact) in [(0.50, h50, e50), (0.95, h95, e95), (0.99, h99, e99)] {
                let bucket = LatencyHistogram::bucket_index(exact.as_u64());
                prop_assert_eq!(
                    hist.as_u64(),
                    LatencyHistogram::bucket_upper_bound(bucket),
                    "{:?} {:?} q={}: histogram {} not the bucket bound of exact {}",
                    proto, mode, q, hist.as_u64(), exact.as_u64()
                );
                prop_assert!(
                    hist >= exact,
                    "{proto:?} {mode:?} q={q}: histogram under-reports"
                );
            }
        }
    }
}

/// A `Write` handle into a shared buffer, so a consumed [`JsonlSink`] can
/// still be inspected afterwards.
#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn jsonl_export(fast: bool) -> (Vec<u8>, u64) {
    let set = scenario::uniform(4, 8_000, Ticks(5_000_000), 0.3).expect("set");
    let medium = MediumConfig::ethernet();
    let (config, allocation) = ddcr_setup(&set, &medium);
    let schedule = ScheduleBuilder::peak_load(&set)
        .build(Ticks(4_000_000))
        .expect("schedule");
    let mut engine = network::build_engine(&set, &config, &allocation, medium).expect("engine");
    engine.set_fast_forward(fast);
    let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    engine.set_trace_sink(JsonlSink::new(Box::new(buf.clone())));
    engine.add_arrivals(schedule).expect("arrivals");
    engine
        .run_to_completion(Ticks(200_000_000_000))
        .expect("completion");
    let events = engine
        .take_trace_sink()
        .expect("sink attached")
        .finish()
        .expect("flush");
    let bytes = buf.0.lock().unwrap().clone();
    (bytes, events)
}

#[test]
fn jsonl_export_is_bitwise_identical_across_steppers() {
    let (fast, fast_events) = jsonl_export(true);
    let (reference, reference_events) = jsonl_export(false);
    assert!(fast_events > 0, "no events exported");
    assert_eq!(fast_events, reference_events);
    assert_eq!(fast, reference, "steppers produced different JSONL bytes");
    let text = String::from_utf8(fast).expect("utf8");
    let mut lines = text.lines();
    assert_eq!(
        lines.next().unwrap(),
        "{\"schema\":\"ddcr-trace\",\"version\":1}"
    );
    // Every event line is a one-object JSON record with a slot timestamp.
    for line in lines {
        assert!(line.starts_with("{\"at\":"), "malformed line: {line}");
        assert!(line.ends_with('}'), "malformed line: {line}");
    }
    assert_eq!(text.lines().count() as u64, fast_events + 1);
}

/// With retention off, a long run keeps no per-delivery records at all while
/// the streaming counters and the histogram stay exact.
#[test]
fn retention_off_long_run_keeps_exact_counts_without_records() {
    let set = scenario::uniform(4, 8_000, Ticks(50_000_000), 0.3).expect("set");
    let medium = MediumConfig::ethernet();
    let (config, allocation) = ddcr_setup(&set, &medium);
    let schedule = ScheduleBuilder::periodic(&set)
        .build(Ticks(200_000_000))
        .expect("schedule");
    let scheduled = schedule.len() as u64;
    assert!(scheduled > 100, "workload too small to be interesting");
    let mut engine = network::build_engine(&set, &config, &allocation, medium).expect("engine");
    engine.set_retention(Some(0), Some(0));
    engine.add_arrivals(schedule).expect("arrivals");
    engine
        .run_to_completion(Ticks(200_000_000_000))
        .expect("completion");
    let stats = engine.into_stats();
    assert!(
        stats.deliveries.is_empty(),
        "retention 0 retained deliveries"
    );
    assert!(stats.lost.is_empty(), "retention 0 retained lost records");
    assert_eq!(stats.delivered, scheduled);
    assert_eq!(stats.latency_histogram.total(), scheduled);
    assert_eq!(stats.deadline_misses(), 0);
    let (p50, p95, p99) = stats.histogram_percentiles();
    assert!(p50 > Ticks::ZERO && p50 <= p95 && p95 <= p99);
    assert!(stats.mean_latency() > 0.0);
    assert!(stats.max_latency() > Ticks::ZERO);
}

/// A seeded peak-load DDCR run with live ξ checks: the observed per-epoch
/// search overhead never exceeds the analytic ξ_k^t allowance.
#[test]
fn seeded_ddcr_run_never_breaches_the_xi_bound() {
    let set = scenario::uniform(6, 8_000, Ticks(10_000_000), 0.4).expect("set");
    let medium = MediumConfig::ethernet();
    let (config, allocation) = ddcr_setup(&set, &medium);
    let schedule = ScheduleBuilder::peak_load(&set)
        .build(Ticks(20_000_000))
        .expect("schedule");
    let mut engine = network::build_engine(&set, &config, &allocation, medium).expect("engine");
    let (time, static_) = network::xi_bound_tables(&config).expect("bounds");
    engine.set_xi_bounds(time, static_);
    engine.add_arrivals(schedule).expect("arrivals");
    engine
        .run_to_completion(Ticks(200_000_000_000))
        .expect("completion");
    let metrics = engine.take_metrics().expect("metrics enabled");
    assert_eq!(
        metrics.violations_total,
        0,
        "observed ξ breached the bound: {:?}",
        metrics.violations()
    );
    assert!(metrics.epochs_checked > 0, "no epoch was checked");
    assert_eq!(metrics.phase_slots.unattributed, 0);
    assert!(metrics.max_tts_overhead > 0, "no search overhead observed");
}
