//! # ddcr-sim — slot-synchronous broadcast-medium simulator
//!
//! A discrete-event simulator for the broadcast channel model of
//! *"A Protocol and Correctness Proofs for Real-Time High-Performance
//! Broadcast Networks"* (Hermant & Le Lann, ICDCS 1998): a single shared
//! medium with slot time `x`, channel states `{silence, busy, collision}`,
//! and every attached station observing identical channel feedback — the
//! property that makes replicated deterministic MAC protocols such as
//! CSMA/DDCR possible.
//!
//! The paper has no physical testbed; this simulator **is** the substrate
//! all protocol experiments run on. It implements exactly the abstract
//! channel contract the paper analyses, so slot accounting (collision
//! slots, empty slots, transmission times `l'/ψ`) matches the analysis
//! term for term. Two collision semantics are provided:
//! Ethernet-style destructive collisions and the non-destructive
//! arbitrating variant the paper sketches for busses internal to ATM nodes.
//!
//! ## Quickstart
//!
//! ```
//! use ddcr_sim::{Engine, MediumConfig, Ticks};
//!
//! # fn main() -> Result<(), ddcr_sim::SimError> {
//! let mut engine = Engine::new(MediumConfig::ethernet())?;
//! // … add stations implementing `Station`, schedule arrivals …
//! engine.run_until(Ticks(100_000));
//! assert_eq!(engine.stats().deliveries.len(), 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod channel;
mod engine;
pub mod exec;
mod fault;
pub mod federation;
mod membership;
mod message;
mod metrics;
pub mod rng;
mod span;
mod station;
mod stats;
mod time;
mod trace;

pub use channel::{Action, CollisionMode, MediumConfig, Observation};
pub use engine::{Engine, SimError};
pub use fault::{FaultEvent, FaultKind, FaultPlan, FaultRateError, FaultRates, SlotFaults};
pub use membership::{MembershipChange, MembershipEvent, MembershipPlan};
pub use message::{ClassId, Delivery, EpochStamp, Frame, Message, MessageId, SourceId};
pub use metrics::{
    LatencyHistogram, MetricsViolation, PhaseHint, PhaseSlots, ProtocolPhase, SearchKind,
    SimMetrics, StationMetrics, XiBoundTable, HISTOGRAM_BUCKETS,
};
pub use span::{ChannelSpan, SteppedSlot};
pub use station::{AttemptCycleHint, SearchHint, Station, WakeHint};
pub use stats::{ChannelStats, QuantileError};
pub use time::Ticks;
pub use trace::{
    federation_header, multichannel_header, schema_header, write_merged, JsonlSink, Trace,
    TraceEvent, TRACE_FEDERATION_VERSION, TRACE_MULTICHANNEL_VERSION, TRACE_SCHEMA,
    TRACE_SCHEMA_VERSION,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn public_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<MediumConfig>();
        assert_send::<Message>();
        assert_send::<ChannelStats>();
        assert_send::<Ticks>();
    }
}
