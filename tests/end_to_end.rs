//! End-to-end integration: traffic generation → protocol simulation →
//! metric collection, across all the crates together.

use ddcr_integration::{ddcr_setup, run_ddcr};
use ddcr_sim::{MediumConfig, Ticks};
use ddcr_traffic::{scenario, validate, ScheduleBuilder};

#[test]
fn every_scenario_preset_drains_under_peak_load() {
    let medium = MediumConfig::gigabit_ethernet();
    let sets = [
        ("videoconference", scenario::videoconference(4).unwrap()),
        (
            "air_traffic_control",
            scenario::air_traffic_control(4).unwrap(),
        ),
        ("stock_exchange", scenario::stock_exchange(4).unwrap()),
        (
            "manufacturing_cell",
            scenario::manufacturing_cell(4).unwrap(),
        ),
    ];
    for (name, set) in sets {
        let horizon = Ticks(4_000_000);
        let schedule = ScheduleBuilder::peak_load(&set).build(horizon).unwrap();
        validate::check_schedule(&set, &schedule).unwrap();
        let n = schedule.len();
        assert!(n > 0, "{name}: empty schedule");
        let stats = run_ddcr(&set, schedule, medium);
        assert_eq!(stats.deliveries.len(), n, "{name}: lost messages");
    }
}

#[test]
fn bounded_random_traffic_is_legal_and_drains() {
    let medium = MediumConfig::ethernet();
    let set = scenario::uniform(6, 8_000, Ticks(4_000_000), 0.4).unwrap();
    for seed in [1u64, 2, 3] {
        let schedule = ScheduleBuilder::bounded_random(&set, 0.8, seed)
            .unwrap()
            .build(Ticks(10_000_000))
            .unwrap();
        validate::check_schedule(&set, &schedule).unwrap();
        let n = schedule.len();
        let stats = run_ddcr(&set, schedule, medium);
        assert_eq!(stats.deliveries.len(), n, "seed {seed}");
    }
}

#[test]
fn per_message_latency_is_consistent() {
    let medium = MediumConfig::ethernet();
    let set = scenario::uniform(4, 8_000, Ticks(5_000_000), 0.3).unwrap();
    let schedule = ScheduleBuilder::peak_load(&set)
        .build(Ticks(5_000_000))
        .unwrap();
    let stats = run_ddcr(&set, schedule, medium);
    for d in &stats.deliveries {
        // Completion after arrival, by at least the wire time.
        let wire = d.message.bits + medium.overhead_bits;
        assert!(d.completed_at >= d.message.arrival + Ticks(wire));
        assert_eq!(d.latency(), d.completed_at - d.message.arrival);
    }
    // Deliveries are reported in completion order.
    assert!(stats
        .deliveries
        .windows(2)
        .all(|p| p[0].completed_at <= p[1].completed_at));
}

#[test]
fn utilization_matches_delivered_bits() {
    let medium = MediumConfig::ethernet();
    let set = scenario::uniform(4, 8_000, Ticks(5_000_000), 0.3).unwrap();
    let schedule = ScheduleBuilder::peak_load(&set)
        .build(Ticks(5_000_000))
        .unwrap();
    let stats = run_ddcr(&set, schedule, medium);
    let wire_total: u64 = stats
        .deliveries
        .iter()
        .map(|d| d.message.bits + medium.overhead_bits)
        .sum();
    assert_eq!(stats.busy_ticks, Ticks(wire_total));
}

#[test]
fn feasibility_report_covers_every_class() {
    let medium = MediumConfig::gigabit_ethernet();
    let set = scenario::videoconference(6).unwrap();
    let (config, allocation) = ddcr_setup(&set, &medium);
    let report = ddcr_core::feasibility::evaluate(&set, &config, &allocation, &medium).unwrap();
    assert_eq!(report.per_class.len(), set.classes().len());
    for (c, class) in report.per_class.iter().zip(set.classes()) {
        assert_eq!(c.class, class.id);
        assert_eq!(c.source, class.source);
        assert!(c.bound > 0.0);
    }
}
