//! Federated DDCR: N broadcast segments advancing in epoch-aligned rounds
//! with bridge handoffs at the boundaries.
//!
//! [`crate::multibus`] shards one site's medium into parallel channels;
//! this module chains *segments* — each a full DDCR network with every
//! station attached — behind store-and-forward bridges, the way the
//! paper's single-segment analysis composes into a campus fabric. The
//! execution semantics (shared virtual clock, deterministic bridge
//! queues, the shared ordered executor, bitwise worker-count independence)
//! live in [`ddcr_sim::federation`]; this layer adds the DDCR assembly:
//! one [`DdcrStation`](crate::DdcrStation) per source on every segment,
//! classes partitioned over segments by load, live observed-ξ checks from
//! the analytic bound tables, and a deterministic derivation of transit
//! routes.

use crate::config::DdcrConfig;
use crate::error::DdcrError;
use crate::indices::StaticAllocation;
use crate::multibus::ChannelAssignment;
use crate::network;
use ddcr_sim::federation::{run_federation, BridgeRoute, FederationOptions, FederationReport};
use ddcr_sim::{MediumConfig, Message, SourceId};
use ddcr_traffic::MessageSet;

/// Derives deterministic two-hop transit routes: every class whose id is
/// divisible by `every` becomes inter-segment traffic, bridged from its
/// home segment to the next one (cyclically), entering through the bridge
/// station `class.id mod sources`. With fewer than two segments (or
/// `every == 0`) no class transits and the result is empty — which keeps
/// a one-segment federation bitwise identical to the single-bus engine.
///
/// The derivation reads only the message set and the assignment, so a
/// given `(set, segments, every)` always yields the same routes.
pub fn transit_routes(
    set: &MessageSet,
    assignment: &ChannelAssignment,
    every: u32,
) -> Vec<BridgeRoute> {
    let segments = assignment.channels();
    if segments < 2 || every == 0 {
        return Vec::new();
    }
    set.classes()
        .iter()
        .filter(|class| class.id.0 % every == 0)
        .map(|class| {
            let origin = assignment.channel_of(class.id);
            let next = (origin + 1) % segments;
            BridgeRoute {
                class: class.id,
                path: vec![origin, next],
                entry: vec![SourceId(class.id.0 % set.sources())],
            }
        })
        .collect()
}

/// Runs a schedule over a federation of DDCR segments.
///
/// Every segment gets a full engine — one station per source of `set`,
/// so bridge stations exist everywhere — while the *schedule* is split by
/// the class→segment `assignment` (origin messages only; handoffs travel
/// via `routes`). When [`FederationOptions::metrics`] is on, each segment
/// additionally runs the live observed-ξ checks against the analytic
/// bound tables of `config`. The report is bitwise independent of
/// [`FederationOptions::workers`], and a one-segment federation is
/// bitwise identical to the single-bus engine run of the same schedule.
///
/// # Errors
///
/// Propagates assembly failures ([`DdcrError::InvalidConfig`],
/// [`DdcrError::Tree`]) and wraps federation shape errors as
/// [`DdcrError::InvalidConfig`].
#[allow(clippy::too_many_arguments)] // mirrors multibus::run_channels plus routes
pub fn run_segments(
    set: &MessageSet,
    schedule: Vec<Message>,
    assignment: &ChannelAssignment,
    routes: &[BridgeRoute],
    config: &DdcrConfig,
    allocation: &StaticAllocation,
    medium: MediumConfig,
    options: &FederationOptions,
) -> Result<FederationReport, DdcrError> {
    let segments = assignment.channels();
    let schedules = assignment.split_schedule(schedule);
    let mut engines = Vec::with_capacity(segments);
    for _ in 0..segments {
        let mut engine = network::build_engine(set, config, allocation, medium)?;
        if options.metrics {
            let (time, static_) = network::xi_bound_tables(config)?;
            engine.set_xi_bounds(time, static_);
        }
        engines.push(engine);
    }
    run_federation(engines, schedules, routes, options)
        .map_err(|e| DdcrError::InvalidConfig(format!("federation rejected: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multibus::balance_by_load;
    use ddcr_sim::Ticks;
    use ddcr_traffic::{scenario, ScheduleBuilder};

    fn fixture() -> (MessageSet, DdcrConfig, StaticAllocation, MediumConfig) {
        let set = scenario::videoconference(6).expect("scenario");
        let medium = MediumConfig::ethernet();
        let c = network::recommended_class_width(&set, 64, &medium);
        let config = DdcrConfig::for_sources(set.sources(), c).expect("config");
        let allocation =
            StaticAllocation::round_robin(config.static_tree, set.sources()).expect("allocation");
        (set, config, allocation, medium)
    }

    #[test]
    fn transit_routes_are_deterministic_and_two_hop() {
        let (set, ..) = fixture();
        let assignment = balance_by_load(&set, 3);
        let routes = transit_routes(&set, &assignment, 2);
        assert!(!routes.is_empty());
        for route in &routes {
            assert_eq!(route.path.len(), 2);
            assert_eq!(route.entry.len(), 1);
            assert_eq!(route.path[0], assignment.channel_of(route.class));
            assert_ne!(route.path[0], route.path[1]);
            assert!((route.entry[0].0) < set.sources());
        }
        let single = balance_by_load(&set, 1);
        assert!(transit_routes(&set, &single, 2).is_empty());
        assert!(transit_routes(&set, &assignment, 0).is_empty());
    }

    #[test]
    fn segment_run_is_worker_invariant_and_bridges_traffic() {
        let (set, config, allocation, medium) = fixture();
        let assignment = balance_by_load(&set, 3);
        let routes = transit_routes(&set, &assignment, 2);
        let schedule = ScheduleBuilder::peak_load(&set)
            .build(Ticks(3_000_000))
            .expect("schedule");
        let run = |workers: usize| {
            let mut options = FederationOptions::new(Ticks(1_000_000), Ticks(1_000_000_000_000));
            options.workers = workers;
            options.metrics = true;
            run_segments(
                &set,
                schedule.clone(),
                &assignment,
                &routes,
                &config,
                &allocation,
                medium,
                &options,
            )
            .expect("runs")
        };
        let serial = run(1);
        assert!(serial.completed());
        assert!(serial.handoffs > 0, "transit classes must cross a bridge");
        assert_eq!(serial.scheduled(), schedule.len());
        let parallel = run(4);
        assert_eq!(serial.rounds, parallel.rounds);
        assert_eq!(serial.handoffs, parallel.handoffs);
        for (a, b) in serial.segments.iter().zip(&parallel.segments) {
            assert_eq!(a.stats, b.stats);
            assert_eq!(format!("{:?}", a.metrics), format!("{:?}", b.metrics));
        }
    }

    #[test]
    fn single_segment_matches_single_bus_network_run() {
        let (set, config, allocation, medium) = fixture();
        let assignment = balance_by_load(&set, 1);
        let schedule = ScheduleBuilder::peak_load(&set)
            .build(Ticks(3_000_000))
            .expect("schedule");
        let reference = network::run(
            &set,
            schedule.clone(),
            &config,
            &allocation,
            medium,
            network::RunLimit::Completion(Ticks(1_000_000_000_000)),
        )
        .expect("reference run");
        let options = FederationOptions::new(Ticks(1_000_000), Ticks(1_000_000_000_000));
        let report = run_segments(
            &set,
            schedule,
            &assignment,
            &[],
            &config,
            &allocation,
            medium,
            &options,
        )
        .expect("federated run");
        assert!(report.completed());
        assert_eq!(report.segments.len(), 1);
        assert_eq!(report.segments[0].stats, reference);
    }
}
