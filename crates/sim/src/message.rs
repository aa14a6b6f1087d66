//! Messages, sources and deadline bookkeeping — the `<m.HRTDM>` message
//! model of section 2.2.

use crate::time::Ticks;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a message source `s_i` (a station on the broadcast medium).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SourceId(pub u32);

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Identifier of a message class (an element of the set `MSG`): all
/// instances of a class share bit length, relative deadline and arrival
/// density bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct ClassId(pub u32);

impl fmt::Display for ClassId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Globally unique identifier of one message instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MessageId(pub u64);

impl fmt::Display for MessageId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// One message instance `msg` submitted to a network module.
///
/// Carries the Data-Link PDU length `l(msg)` in bits; the physical framing
/// overhead that turns it into the Ph-PDU length `l'(msg)` is a property of
/// the medium ([`crate::MediumConfig::overhead_bits`]), not of the message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Message {
    /// Unique instance id.
    pub id: MessageId,
    /// The source this instance is mapped onto (the mapping model).
    pub source: SourceId,
    /// The message class this instance belongs to.
    pub class: ClassId,
    /// Data-Link PDU bit length `l(msg)`.
    pub bits: u64,
    /// Arrival time `T(msg)` at the network module.
    pub arrival: Ticks,
    /// Relative deadline `d(msg)`: transmission must complete by
    /// `T(msg) + d(msg)`.
    pub deadline: Ticks,
}

impl Message {
    /// Absolute deadline `DM(msg) = T(msg) + d(msg)`.
    pub fn absolute_deadline(&self) -> Ticks {
        self.arrival + self.deadline
    }
}

impl fmt::Display for Message {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}@{} ({} bits, T={}, DM={})",
            self.id,
            self.source,
            self.bits,
            self.arrival,
            self.absolute_deadline()
        )
    }
}

/// The shared-state coordinates of a tree-search epoch, carried in every
/// DDCR frame header so a restarted station can resynchronize.
///
/// Within one epoch the protocol's shared state is a pure function of the
/// epoch's starting coordinates and the observation sequence since, so a
/// rejoiner that hears any frame stamped with an epoch that began after its
/// restart can rebuild a consistent replica by replaying its buffered
/// observations from `start`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct EpochStamp {
    /// Channel time at which the epoch's TTs run began.
    pub start: Ticks,
    /// The reference time `reft` in force when the epoch began.
    pub reft: Ticks,
    /// Packet-bursting reservation armed at the epoch boundary, if any:
    /// an epoch can begin with a source still holding channel control
    /// (the reservation is noted *before* the next TTs run starts).
    pub burst: Option<SourceId>,
}

/// The on-channel representation of a message being transmitted: what every
/// station can decode from a successful transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Frame {
    /// The message carried.
    pub message: Message,
    /// Ph-PDU bit length `l'(msg) = l(msg) + overhead`.
    pub wire_bits: u64,
    /// Packet-bursting continuation flag (IEEE 802.3z, §5 of the paper):
    /// when set, the transmitter keeps channel control and will send
    /// another frame in the immediately following slot; other stations must
    /// stay off the channel for that slot.
    pub burst_more: bool,
    /// Tree-search epoch coordinates of the transmitter's replica, if the
    /// protocol stamps them (DDCR does; the baselines leave this `None`).
    /// Resynchronization anchor for restarted stations.
    pub epoch: Option<EpochStamp>,
}

impl Frame {
    /// A plain frame with no burst continuation and no epoch stamp.
    pub fn new(message: Message, wire_bits: u64) -> Self {
        Frame {
            message,
            wire_bits,
            burst_more: false,
            epoch: None,
        }
    }

    /// Channel occupation time at `ψ = 1 bit/tick`.
    pub fn duration(&self) -> Ticks {
        Ticks(self.wire_bits)
    }
}

/// Record of one completed transmission, for latency/miss accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Delivery {
    /// The transmitted message.
    pub message: Message,
    /// When the transmission completed (last bit on the wire).
    pub completed_at: Ticks,
}

impl Delivery {
    /// Whether the hard deadline `DM(msg)` was met.
    pub fn deadline_met(&self) -> bool {
        self.completed_at <= self.message.absolute_deadline()
    }

    /// Transmission latency `completed_at − T(msg)`.
    pub fn latency(&self) -> Ticks {
        self.completed_at - self.message.arrival
    }

    /// Lateness beyond the deadline (zero when met).
    pub fn lateness(&self) -> Ticks {
        self.completed_at
            .saturating_sub(self.message.absolute_deadline())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg() -> Message {
        Message {
            id: MessageId(7),
            source: SourceId(2),
            class: ClassId(1),
            bits: 1000,
            arrival: Ticks(500),
            deadline: Ticks(2000),
        }
    }

    #[test]
    fn absolute_deadline_adds_relative() {
        assert_eq!(msg().absolute_deadline(), Ticks(2500));
    }

    #[test]
    fn frame_duration_is_wire_bits() {
        let f = Frame::new(msg(), 1200);
        assert!(!f.burst_more);
        assert_eq!(f.duration(), Ticks(1200));
    }

    #[test]
    fn delivery_accounting() {
        let on_time = Delivery {
            message: msg(),
            completed_at: Ticks(2500),
        };
        assert!(on_time.deadline_met());
        assert_eq!(on_time.latency(), Ticks(2000));
        assert_eq!(on_time.lateness(), Ticks::ZERO);

        let late = Delivery {
            message: msg(),
            completed_at: Ticks(2600),
        };
        assert!(!late.deadline_met());
        assert_eq!(late.lateness(), Ticks(100));
    }

    #[test]
    fn ids_display_compactly() {
        assert_eq!(SourceId(3).to_string(), "s3");
        assert_eq!(ClassId(1).to_string(), "c1");
        assert_eq!(MessageId(9).to_string(), "m9");
        assert!(msg().to_string().contains("m7@s2"));
    }
}
