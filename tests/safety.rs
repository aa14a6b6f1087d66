//! The `<p.HRTDM>` **safety** property: successful transmissions over the
//! broadcast medium are mutually exclusive — checked on the channel trace,
//! for every protocol, under heavy contention.

use ddcr_baseline::{CsmaCdStation, DcrStation, QueueDiscipline};
use ddcr_core::{DdcrConfig, DdcrStation, StaticAllocation};
use ddcr_integration::ddcr_setup;
use ddcr_sim::{Engine, MediumConfig, SourceId, Ticks, Trace, TraceEvent};
use ddcr_traffic::{scenario, ScheduleBuilder};

/// Asserts no two transmissions overlap in a channel trace and that every
/// TxStart has a matching TxEnd.
fn assert_mutual_exclusion(events: &[TraceEvent]) {
    let mut in_flight: Option<(ddcr_sim::MessageId, Ticks)> = None;
    for e in events {
        match *e {
            TraceEvent::TxStart { at, message } => {
                if let Some((other, _)) = in_flight {
                    panic!("transmission {message} started at {at} while {other} in flight");
                }
                in_flight = Some((message, at));
            }
            TraceEvent::TxEnd { at, message } => {
                match in_flight.take() {
                    Some((started, t0)) => {
                        assert_eq!(started, message, "interleaved tx end");
                        assert!(at > t0, "zero-length transmission");
                    }
                    None => {
                        // Arbitrated collisions emit TxEnd without TxStart;
                        // they still occupy the channel exclusively because
                        // the engine serialises slots.
                    }
                }
            }
            TraceEvent::Silence { .. }
            | TraceEvent::Collision { .. }
            | TraceEvent::Garbled { .. } => {
                assert!(
                    in_flight.is_none(),
                    "channel event during an in-flight transmission"
                );
            }
            // Membership annotations occupy no channel time.
            TraceEvent::Joined { .. } | TraceEvent::Left { .. } => {}
        }
    }
    assert!(in_flight.is_none(), "transmission never completed");
}

fn contended_workload() -> (ddcr_traffic::MessageSet, Vec<ddcr_sim::Message>) {
    let set = scenario::stock_exchange(6).unwrap();
    let schedule = ScheduleBuilder::peak_load(&set)
        .build(Ticks(3_000_000))
        .unwrap();
    (set, schedule)
}

#[test]
fn ddcr_transmissions_are_mutually_exclusive() {
    let (set, schedule) = contended_workload();
    let medium = MediumConfig::gigabit_ethernet();
    let (config, allocation) = ddcr_setup(&set, &medium);
    let mut engine = ddcr_core::network::build_engine(&set, &config, &allocation, medium).unwrap();
    engine.set_trace(Trace::enabled());
    engine.add_arrivals(schedule).unwrap();
    engine.run_to_completion(Ticks(200_000_000_000)).unwrap();
    assert_mutual_exclusion(engine.trace().events());
}

#[test]
fn csma_cd_transmissions_are_mutually_exclusive() {
    let (set, schedule) = contended_workload();
    let medium = MediumConfig::gigabit_ethernet();
    let mut engine = Engine::new(medium).unwrap();
    for i in 0..set.sources() {
        engine.add_station(Box::new(CsmaCdStation::new(
            SourceId(i),
            medium,
            QueueDiscipline::Fifo,
            3,
        )));
    }
    engine.set_trace(Trace::enabled());
    engine.add_arrivals(schedule).unwrap();
    engine.run_to_completion(Ticks(200_000_000_000)).unwrap();
    assert_mutual_exclusion(engine.trace().events());
}

#[test]
fn dcr_transmissions_are_mutually_exclusive() {
    let (set, schedule) = contended_workload();
    let medium = MediumConfig::gigabit_ethernet();
    let mut engine = Engine::new(medium).unwrap();
    for i in 0..set.sources() {
        engine.add_station(Box::new(
            DcrStation::new(SourceId(i), set.sources(), medium, QueueDiscipline::Fifo).unwrap(),
        ));
    }
    engine.set_trace(Trace::enabled());
    engine.add_arrivals(schedule).unwrap();
    engine.run_to_completion(Ticks(200_000_000_000)).unwrap();
    assert_mutual_exclusion(engine.trace().events());
}

#[test]
fn no_message_is_delivered_twice_or_invented() {
    let (set, schedule) = contended_workload();
    let scheduled_ids: std::collections::HashSet<u64> = schedule.iter().map(|m| m.id.0).collect();
    let medium = MediumConfig::gigabit_ethernet();
    let stats = ddcr_integration::run_ddcr(&set, schedule, medium);
    let mut seen = std::collections::HashSet::new();
    for d in &stats.deliveries {
        assert!(
            seen.insert(d.message.id.0),
            "duplicate delivery {:?}",
            d.message.id
        );
        assert!(
            scheduled_ids.contains(&d.message.id.0),
            "delivered a message never scheduled"
        );
    }
    assert_eq!(seen.len(), scheduled_ids.len(), "lost messages");
}

#[test]
fn arbitrated_fabric_preserves_exclusion() {
    let set = scenario::uniform(8, 48 * 8, Ticks(50_000), 0.5).unwrap();
    let schedule = ScheduleBuilder::peak_load(&set)
        .build(Ticks(500_000))
        .unwrap();
    let medium = MediumConfig::atm_internal_bus();
    let config = DdcrConfig::for_sources(
        8,
        ddcr_core::network::recommended_class_width(&set, 64, &medium),
    )
    .unwrap();
    let allocation = StaticAllocation::one_per_source(config.static_tree, 8).unwrap();
    let mut engine = ddcr_core::network::build_engine(&set, &config, &allocation, medium).unwrap();
    engine.set_trace(Trace::enabled());
    engine.add_arrivals(schedule).unwrap();
    engine.run_to_completion(Ticks(200_000_000_000)).unwrap();
    assert_mutual_exclusion(engine.trace().events());
    // One DdcrStation sanity hook: stations exist and answer labels.
    let station = engine.station(0).unwrap();
    assert!(station.label().starts_with("ddcr:"));
    let _unused: Option<&DdcrStation> = None;
}
