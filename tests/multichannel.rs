//! Multichannel engine integration tests: a C=1 multichannel run is the
//! single-bus engine, bit for bit, for every protocol and collision mode;
//! a C>1 run is C independently run engines, bit for bit, faults and
//! timeouts included; and channel projections partition the message set
//! exactly — classes and scheduled messages alike.

use ddcr_baseline::QueueDiscipline;
use ddcr_core::{multibus, network, DdcrError};
use ddcr_integration::ddcr_setup;
use ddcr_sim::rng::job_seed;
use ddcr_sim::{
    CollisionMode, Engine, FaultPlan, FaultRates, JsonlSink, MediumConfig, SourceId, Ticks,
};
use ddcr_traffic::{scenario, MessageSet, ScheduleBuilder};
use proptest::prelude::*;

const BUDGET: Ticks = Ticks(200_000_000_000);

fn workload(z: u32, medium: &MediumConfig) -> (MessageSet, Vec<ddcr_sim::Message>) {
    let set = scenario::videoconference(z).expect("scenario");
    let schedule = ScheduleBuilder::peak_load(&set)
        .build(Ticks(6_000_000))
        .expect("schedule");
    let _ = medium;
    (set, schedule)
}

/// Engine builders for every protocol the simulator hosts (np-edf is an
/// analytic oracle without an engine, so it has no channel projection).
fn build_protocol(
    protocol: &str,
    set: &MessageSet,
    medium: MediumConfig,
) -> Result<Engine, DdcrError> {
    match protocol {
        "ddcr" => {
            let (config, allocation) = ddcr_setup(set, &medium);
            network::build_engine(set, &config, &allocation, medium)
        }
        "csma-cd" => {
            let mut engine =
                Engine::new(medium).map_err(|e| DdcrError::InvalidConfig(e.to_string()))?;
            for i in 0..set.sources() {
                engine.add_station(Box::new(ddcr_baseline::CsmaCdStation::new(
                    SourceId(i),
                    medium,
                    QueueDiscipline::Edf,
                    7,
                )));
            }
            Ok(engine)
        }
        "dcr" => {
            let mut engine =
                Engine::new(medium).map_err(|e| DdcrError::InvalidConfig(e.to_string()))?;
            for i in 0..set.sources() {
                engine.add_station(Box::new(
                    ddcr_baseline::DcrStation::new(
                        SourceId(i),
                        set.sources(),
                        medium,
                        QueueDiscipline::Edf,
                    )
                    .map_err(|e| DdcrError::InvalidConfig(e.to_string()))?,
                ));
            }
            Ok(engine)
        }
        other => panic!("unknown protocol {other}"),
    }
}

/// The heart of the determinism contract: for every protocol and both
/// collision semantics, running the whole set through the multichannel
/// engine at C=1 produces exactly the stats, metrics, and trace bytes of
/// the plain single-bus engine.
#[test]
fn single_channel_matches_single_bus_for_all_protocols_and_modes() {
    for mode in [CollisionMode::Destructive, CollisionMode::Arbitrating] {
        let mut medium = MediumConfig::gigabit_ethernet();
        medium.collision_mode = mode;
        for protocol in ["ddcr", "csma-cd", "dcr"] {
            let (set, schedule) = workload(6, &medium);
            let assignment = multibus::balance_by_load(&set, 1);
            let mut options = multibus::RunOptions::new(BUDGET);
            options.metrics = true;
            options.trace = true;
            let report = multibus::run_channels_with(
                &set,
                schedule.clone(),
                &assignment,
                &options,
                &|_, projected| build_protocol(protocol, projected, medium),
            )
            .expect("multichannel run");
            assert_eq!(report.channels.len(), 1);

            // The plain single-bus engine with identical instrumentation.
            let mut engine = build_protocol(protocol, &set, medium).expect("engine");
            engine.enable_metrics();
            let buf = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
            engine.set_trace_sink(JsonlSink::new(Box::new(Shared(buf.clone()))));
            engine.add_arrivals(schedule).expect("arrivals");
            let completed = engine.run_to_completion(BUDGET).is_ok();
            let metrics = engine.take_metrics();
            engine
                .take_trace_sink()
                .expect("sink")
                .finish()
                .expect("finish");
            let stats = engine.into_stats();

            let outcome = &report.channels[0];
            assert_eq!(outcome.completed, completed, "{protocol}/{mode:?}");
            assert_eq!(outcome.stats, stats, "{protocol}/{mode:?}: stats diverge");
            assert_eq!(
                format!("{:?}", outcome.metrics),
                format!("{metrics:?}"),
                "{protocol}/{mode:?}: metrics diverge"
            );
            let mut doc = Vec::new();
            report.write_trace(&mut doc).expect("trace doc");
            assert_eq!(
                doc,
                *buf.lock().unwrap(),
                "{protocol}/{mode:?}: trace bytes diverge"
            );
        }
    }
}

/// And the parallel path must agree with the serial path for non-DDCR
/// builders too — the runner is protocol-agnostic.
#[test]
fn worker_pool_is_protocol_agnostic() {
    let medium = MediumConfig::gigabit_ethernet();
    let (set, schedule) = workload(8, &medium);
    let assignment = multibus::balance_by_load(&set, 3);
    for protocol in ["csma-cd", "dcr"] {
        let run = |workers: usize| {
            let mut options = multibus::RunOptions::new(BUDGET);
            options.workers = workers;
            multibus::run_channels_with(
                &set,
                schedule.clone(),
                &assignment,
                &options,
                &|_, projected| build_protocol(protocol, projected, medium),
            )
            .expect("run")
        };
        let serial = run(1);
        let parallel = run(4);
        for (a, b) in serial.channels.iter().zip(&parallel.channels) {
            assert_eq!(
                a.stats, b.stats,
                "{protocol}: worker count leaked into results"
            );
        }
    }
}

/// A `Write` over a shared buffer, to read back what a sink wrote.
struct Shared(std::sync::Arc<std::sync::Mutex<Vec<u8>>>);

impl std::io::Write for Shared {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(data);
        Ok(data.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A multichannel run is nothing but C independent engines: for C ∈
/// {2, 3, 4}, under crash/corrupt/erase plans and with one budget too
/// tight to drain, `run_channels` equals each channel's projection built
/// with `network::build_engine` and run to completion on its own — stats,
/// metrics and trace bytes alike.
#[test]
fn channels_equal_independently_run_engines() {
    let medium = MediumConfig::gigabit_ethernet();
    let (set, schedule) = workload(8, &medium);
    let (config, allocation) = ddcr_setup(&set, &medium);
    let faults = multibus::FaultSpec {
        master_seed: 11,
        rates: FaultRates {
            corrupt: 0.002,
            erase: 0.002,
            crash: 0.0002,
            down_slots: 32,
        },
        horizon_slots: 20_000,
    };
    for (channels, budget) in [(2, BUDGET), (3, BUDGET), (4, BUDGET), (3, Ticks(2_000_000))] {
        let assignment = multibus::balance_by_load(&set, channels);
        let mut options = multibus::RunOptions::new(budget);
        options.workers = channels;
        options.metrics = true;
        options.trace = true;
        options.faults = Some(faults.clone());
        let report = multibus::run_channels(
            &set,
            schedule.clone(),
            &assignment,
            &config,
            &allocation,
            medium,
            &options,
        )
        .expect("multichannel run");
        assert_eq!(report.channels.len(), channels);
        assert!(report.channels.iter().any(|c| c.fault_events > 0));

        let split = assignment.split_schedule(schedule.clone());
        for (channel, (outcome, messages)) in report.channels.iter().zip(split).enumerate() {
            let case = format!("C={channels} budget={budget:?} channel {channel}");
            let projected = assignment.project(&set, channel).expect("projection");
            let mut engine =
                network::build_engine(&projected, &config, &allocation, medium).expect("engine");
            let (time, static_) = network::xi_bound_tables(&config).expect("tables");
            engine.set_xi_bounds(time, static_);
            engine.enable_metrics();
            let buf = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
            engine.set_trace_sink(JsonlSink::headerless(Box::new(Shared(buf.clone()))));
            let plan = FaultPlan::generate(
                job_seed(faults.master_seed, channel as u64),
                set.sources(),
                faults.horizon_slots,
                &faults.rates,
            );
            assert_eq!(outcome.fault_events, plan.len(), "{case}");
            engine.set_fault_plan(plan);
            engine.add_arrivals(messages).expect("arrivals");
            let completed = engine.run_to_completion(budget).is_ok();
            let metrics = engine.take_metrics();
            engine
                .take_trace_sink()
                .expect("sink")
                .finish()
                .expect("finish");
            let stats = engine.into_stats();

            assert_eq!(outcome.completed, completed, "{case}");
            assert_eq!(outcome.stats, stats, "{case}: stats diverge");
            assert_eq!(
                format!("{:?}", outcome.metrics),
                format!("{metrics:?}"),
                "{case}: metrics diverge"
            );
            assert_eq!(
                outcome.trace.as_deref(),
                Some(buf.lock().unwrap().as_slice()),
                "{case}: trace bytes diverge"
            );
        }
        if budget != BUDGET {
            assert!(!report.completed(), "the tight budget must time out");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Channel projections partition the message set exactly: every class
    /// lands on exactly one channel, projected class sets are disjoint,
    /// and splitting a schedule loses or duplicates no message.
    #[test]
    fn projections_partition_messages_exactly(
        z in 2u32..10,
        channels in 1usize..5,
        horizon_ms in 2u64..8,
    ) {
        let set = scenario::videoconference(z).expect("scenario");
        let assignment = multibus::balance_by_load(&set, channels);
        let mut seen = std::collections::BTreeSet::new();
        let mut total = 0usize;
        for channel in 0..channels {
            let projected = assignment.project(&set, channel).unwrap();
            prop_assert_eq!(projected.sources(), set.sources());
            for class in projected.classes() {
                prop_assert!(seen.insert(class.id), "class on two channels");
                prop_assert_eq!(assignment.channel_of(class.id), channel);
            }
            total += projected.classes().len();
        }
        prop_assert_eq!(total, set.classes().len());

        let schedule = ScheduleBuilder::peak_load(&set)
            .build(Ticks(horizon_ms * 1_000_000))
            .expect("schedule");
        let n = schedule.len();
        let ids: std::collections::BTreeSet<_> =
            schedule.iter().map(|m| m.id).collect();
        let split = assignment.split_schedule(schedule);
        prop_assert_eq!(split.len(), channels);
        let routed: usize = split.iter().map(Vec::len).sum();
        prop_assert_eq!(routed, n, "messages lost or duplicated in the split");
        let mut routed_ids = std::collections::BTreeSet::new();
        for (channel, messages) in split.iter().enumerate() {
            for message in messages {
                prop_assert_eq!(assignment.channel_of(message.class), channel);
                routed_ids.insert(message.id);
            }
        }
        prop_assert_eq!(routed_ids, ids);
    }
}
