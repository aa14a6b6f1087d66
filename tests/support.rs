//! Shared helpers for the cross-crate integration tests.

use ddcr_core::{network, DdcrConfig, StaticAllocation};
use ddcr_sim::{ChannelStats, MediumConfig, Message, Ticks};
use ddcr_traffic::MessageSet;

/// Builds a (config, allocation) pair sized for the message set.
pub fn ddcr_setup(set: &MessageSet, medium: &MediumConfig) -> (DdcrConfig, StaticAllocation) {
    let c = network::recommended_class_width(set, 64, medium);
    let config = DdcrConfig::for_sources(set.sources(), c).expect("config");
    let allocation =
        StaticAllocation::round_robin(config.static_tree, set.sources()).expect("allocation");
    (config, allocation)
}

/// Runs a schedule through CSMA/DDCR to completion with a generous budget.
pub fn run_ddcr(set: &MessageSet, schedule: Vec<Message>, medium: MediumConfig) -> ChannelStats {
    let (config, allocation) = ddcr_setup(set, &medium);
    network::run(
        set,
        schedule,
        &config,
        &allocation,
        medium,
        network::RunLimit::Completion(Ticks(200_000_000_000)),
    )
    .expect("ddcr run to completion")
}
