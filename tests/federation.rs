//! Federation integration tests: the epoch-round federation is bitwise
//! independent of its worker count for random segment topologies and
//! fault plans, and a one-segment federation is bitwise identical to the
//! single-bus engine across the full 2³ fast-forward bisection matrix.

use ddcr_core::{federate, multibus, network};
use ddcr_integration::ddcr_setup;
use ddcr_sim::federation::{run_federation, FederationFaultSpec, FederationOptions};
use ddcr_sim::rng::job_seed;
use ddcr_sim::{FaultPlan, FaultRates, JsonlSink, MediumConfig, Ticks};
use ddcr_traffic::{scenario, ScheduleBuilder};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

const BUDGET: Ticks = Ticks(200_000_000_000);
const HORIZON: Ticks = Ticks(3_000_000);

/// A `Write` handle over a shared buffer, to recover what a consumed
/// [`JsonlSink`] wrote on the single-bus reference side.
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl std::io::Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("buffer lock").extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn fault_rates() -> FaultRates {
    FaultRates {
        corrupt: 2e-3,
        erase: 2e-3,
        crash: 5e-5,
        down_slots: 48,
    }
}

fn fault_horizon(medium: &MediumConfig) -> u64 {
    2 * HORIZON.as_u64() / medium.slot_ticks.max(1)
}

/// A one-segment federation must reproduce the single-bus engine bit for
/// bit — statistics, metrics, and the JSONL event stream — whatever
/// combination of the three tier switches is engaged, and with a
/// seeded fault plan active. This pins `run_until_drained`'s chunked
/// composition: every epoch cut must land exactly where the reference
/// slot loop would have stepped.
#[test]
fn single_segment_matches_single_bus_across_stepper_matrix() {
    let medium = MediumConfig::ethernet();
    let set = scenario::videoconference(5).expect("scenario");
    let (config, allocation) = ddcr_setup(&set, &medium);
    let schedule = ScheduleBuilder::peak_load(&set)
        .build(HORIZON)
        .expect("schedule");
    let seed = 2024;
    let plan = || {
        FaultPlan::generate(
            job_seed(seed, 0),
            set.sources(),
            fault_horizon(&medium),
            &fault_rates(),
        )
    };
    for fast in [false, true] {
        for contention in [false, true] {
            for active_set in [false, true] {
                let tag = format!("fast={fast} contention={contention} active_set={active_set}");
                // Single-bus reference: one engine, one straight run.
                let mut reference = network::build_engine(&set, &config, &allocation, medium)
                    .expect("reference engine");
                reference.set_fast_forward(fast);
                reference.set_contention_fast_forward(contention);
                reference.set_active_set(active_set);
                reference.enable_metrics();
                reference.set_fault_plan(plan());
                let buf = Arc::new(Mutex::new(Vec::new()));
                reference
                    .set_trace_sink(JsonlSink::headerless(Box::new(SharedBuf(Arc::clone(&buf)))));
                reference
                    .add_arrivals(schedule.iter().copied())
                    .expect("arrivals");
                reference.run_to_completion(BUDGET).expect("drains");
                let reference_metrics = reference.take_metrics();
                reference
                    .take_trace_sink()
                    .expect("sink attached")
                    .finish()
                    .expect("finish");
                let reference_stats = reference.into_stats();
                let reference_trace = buf.lock().expect("buffer lock").clone();

                // Same engine, same switches, chunked into epoch rounds.
                let mut engine = network::build_engine(&set, &config, &allocation, medium)
                    .expect("federated engine");
                engine.set_fast_forward(fast);
                engine.set_contention_fast_forward(contention);
                engine.set_active_set(active_set);
                let mut options = FederationOptions::new(Ticks(250_000), BUDGET);
                options.metrics = true;
                options.trace = true;
                options.faults = Some(FederationFaultSpec {
                    master_seed: seed,
                    rates: fault_rates(),
                    horizon_slots: fault_horizon(&medium),
                });
                let report =
                    run_federation(vec![engine], vec![schedule.clone()], &[], &options)
                        .expect("federated run");
                assert!(report.completed(), "{tag}");
                let outcome = &report.segments[0];
                assert_eq!(outcome.stats, reference_stats, "{tag}");
                assert_eq!(
                    format!("{:?}", outcome.metrics),
                    format!("{reference_metrics:?}"),
                    "{tag}"
                );
                assert_eq!(
                    outcome.trace.as_deref(),
                    Some(reference_trace.as_slice()),
                    "{tag}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random topology (segment count, fleet size, transit density, epoch
    /// length) × optional random fault plan: a serial run and a maximally
    /// parallel run must agree bit for bit on statistics, metrics, per
    /// segment trace bytes, and the merged trace document.
    #[test]
    fn federation_is_bitwise_jobs_invariant(
        segments in 1usize..=4,
        z in 4u32..=8,
        every in 2u32..=4,
        epoch_us in 200u64..=1500,
        seed in any::<u64>(),
        faulted in any::<bool>(),
    ) {
        let medium = MediumConfig::ethernet();
        let set = scenario::videoconference(z).expect("scenario");
        let (config, allocation) = ddcr_setup(&set, &medium);
        let assignment = multibus::balance_by_load(&set, segments);
        let routes = federate::transit_routes(&set, &assignment, every);
        let schedule = ScheduleBuilder::peak_load(&set)
            .build(HORIZON)
            .expect("schedule");
        let run = |jobs: usize| {
            let mut options =
                FederationOptions::new(Ticks(epoch_us * 1_000), BUDGET);
            options.workers = jobs;
            options.metrics = true;
            options.trace = true;
            if faulted {
                options.faults = Some(FederationFaultSpec {
                    master_seed: seed,
                    rates: fault_rates(),
                    horizon_slots: fault_horizon(&medium),
                });
            }
            federate::run_segments(
                &set,
                schedule.clone(),
                &assignment,
                &routes,
                &config,
                &allocation,
                medium,
                &options,
            )
            .expect("federated run")
        };
        let serial = run(1);
        prop_assert!(serial.completed());
        prop_assert_eq!(serial.scheduled(), schedule.len());
        if segments > 1 {
            prop_assert!(serial.handoffs > 0, "transit classes must bridge");
        } else {
            prop_assert_eq!(serial.handoffs, 0);
        }
        let parallel = run(8);
        prop_assert_eq!(serial.rounds, parallel.rounds);
        prop_assert_eq!(serial.handoffs, parallel.handoffs);
        for (a, b) in serial.segments.iter().zip(&parallel.segments) {
            prop_assert_eq!(&a.stats, &b.stats);
            prop_assert_eq!(a.scheduled, b.scheduled);
            prop_assert_eq!(a.injected, b.injected);
            prop_assert_eq!(a.fault_events, b.fault_events);
            prop_assert_eq!(
                format!("{:?}", a.metrics),
                format!("{:?}", b.metrics)
            );
            prop_assert_eq!(&a.trace, &b.trace);
        }
        let mut left = Vec::new();
        let mut right = Vec::new();
        serial.write_trace(&mut left).expect("write");
        parallel.write_trace(&mut right).expect("write");
        prop_assert_eq!(left, right);
    }
}
