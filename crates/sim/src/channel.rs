//! The broadcast channel: slot time, collision semantics, observations.
//!
//! The paper's channel model (§3.2): a broadcast medium is characterised by
//! a slot time `x` — an interval large enough that a channel state
//! transition triggered at `t` is seen by every source before `t + x/2` —
//! and a channel state `chstate ∈ {silence, busy, collision}`. This module
//! encodes that contract: per decision slot, every station submits an
//! [`Action`]; the medium resolves them into an [`Observation`] that every
//! station hears.

use crate::message::Frame;
use crate::time::Ticks;
use serde::{Deserialize, Serialize};

/// What a station does at a slot boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Listen only.
    Idle,
    /// Start transmitting the given frame.
    Transmit(Frame),
}

/// The channel state every station observes after a decision slot — the
/// paper's `chstate` variable, enriched with what a receiver can decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observation {
    /// `chstate = silence`: nobody transmitted; one slot time `x` elapsed.
    Silence,
    /// `chstate = busy`: exactly one station transmitted; the channel was
    /// held for the frame's full duration and the frame was decoded by all.
    Busy(Frame),
    /// `chstate = collision`: at least two stations transmitted.
    ///
    /// Under [`CollisionMode::Destructive`] (Ethernet) all frames are lost
    /// and `survivor` is `None`; one slot time elapsed. Under
    /// [`CollisionMode::Arbitrating`] (bus-internal exclusive-OR logic, as
    /// in busses internal to ATM nodes) the frame of the winning station
    /// survives in `survivor` and the channel is then held for its
    /// duration.
    Collision {
        /// The frame that survived arbitration, if the medium is
        /// non-destructive.
        survivor: Option<Frame>,
    },
    /// An injected-fault outcome ([`crate::FaultKind::EraseFrame`]): the
    /// channel was held for a frame's full duration but the CRC failed at
    /// every receiver, so nothing was decoded. Stations treat this like a
    /// collision — the transmitter retries — under the assumption that
    /// loss detection is symmetric (the sender sees the same corrupted
    /// channel it transmitted into).
    Garbled,
}

/// Collision semantics of the medium.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum CollisionMode {
    /// Ethernet-like destructive collisions: colliding frames are lost and
    /// cost one slot time of channel occupation.
    #[default]
    Destructive,
    /// Non-destructive collisions via bit-level arbitration (exclusive-OR
    /// logic at the bus level, §3.2): the transmitting station with the
    /// lowest arbitration rank wins and its frame goes through; the others
    /// observe the collision and back off. This is the ATM-internal-bus
    /// variant the paper sketches.
    Arbitrating,
}

/// Physical parameters of the broadcast medium.
///
/// # Examples
///
/// ```
/// use ddcr_sim::MediumConfig;
///
/// // Half-duplex Gigabit Ethernet: 4096-bit slot (carrier extension),
/// // 26 bytes of preamble/header/CRC/IFG overhead per frame.
/// let medium = MediumConfig::gigabit_ethernet();
/// assert_eq!(medium.slot_ticks, 4096);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MediumConfig {
    /// Slot time `x` in ticks (bit-times).
    pub slot_ticks: u64,
    /// Physical framing/signalling overhead per frame in bits:
    /// `l'(msg) = l(msg) + overhead_bits`.
    pub overhead_bits: u64,
    /// Collision semantics.
    pub collision_mode: CollisionMode,
}

impl MediumConfig {
    /// Classical 10/100 Mb/s Ethernet: 512-bit slot, 26-byte overhead
    /// (preamble 8 + MAC header 14 + CRC 4 ≈ 26 bytes, IFG folded in).
    pub fn ethernet() -> Self {
        MediumConfig {
            slot_ticks: 512,
            overhead_bits: 26 * 8,
            collision_mode: CollisionMode::Destructive,
        }
    }

    /// Half-duplex Gigabit Ethernet (IEEE 802.3z, §5 of the paper):
    /// carrier-extended 4096-bit slot, same framing overhead.
    pub fn gigabit_ethernet() -> Self {
        MediumConfig {
            slot_ticks: 4096,
            overhead_bits: 26 * 8,
            collision_mode: CollisionMode::Destructive,
        }
    }

    /// A bus internal to an ATM node: slot time of a few bit times and
    /// non-destructive arbitration (§3.2).
    pub fn atm_internal_bus() -> Self {
        MediumConfig {
            slot_ticks: 4,
            overhead_bits: 5 * 8, // ATM cell header
            collision_mode: CollisionMode::Arbitrating,
        }
    }

    /// Ph-PDU bit length `l'` for a Data-Link PDU of `bits` bits.
    pub fn wire_bits(&self, bits: u64) -> u64 {
        bits + self.overhead_bits
    }

    /// [`MediumConfig::wire_bits`], or `None` when `l'` leaves `u64` (the
    /// admission predicate takes flow sizes from untrusted requests).
    pub fn checked_wire_bits(&self, bits: u64) -> Option<u64> {
        bits.checked_add(self.overhead_bits)
    }

    /// Resolves the frames submitted in one decision slot into the
    /// observation every station hears and the channel time it consumes.
    ///
    /// This is the single source of truth for collision semantics: the
    /// engine's slot loop and the bounded model checker both call it, so
    /// they cannot drift apart (under [`CollisionMode::Arbitrating`] the
    /// lowest-numbered transmitting source wins).
    pub fn resolve(&self, frames: &[Frame]) -> (Observation, Ticks) {
        match frames {
            [] => (Observation::Silence, Ticks(self.slot_ticks)),
            [frame] => (Observation::Busy(*frame), frame.duration()),
            [first, rest @ ..] => match self.collision_mode {
                CollisionMode::Destructive => (
                    Observation::Collision { survivor: None },
                    Ticks(self.slot_ticks),
                ),
                CollisionMode::Arbitrating => {
                    // The slice pattern supplies a witness frame, so picking
                    // the arbitration winner cannot fail. Strict `<` keeps
                    // the first minimum on source ties, matching
                    // `Iterator::min_by_key`.
                    let winner = *rest.iter().fold(first, |best, f| {
                        if f.message.source < best.message.source {
                            f
                        } else {
                            best
                        }
                    });
                    (
                        Observation::Collision {
                            survivor: Some(winner),
                        },
                        winner.duration(),
                    )
                }
            },
        }
    }

    /// Validates physical plausibility.
    ///
    /// # Errors
    ///
    /// Returns a message if `slot_ticks` is zero (a medium with no
    /// propagation bound cannot detect collisions).
    pub fn validate(&self) -> Result<(), String> {
        if self.slot_ticks == 0 {
            return Err("slot time must be positive".to_owned());
        }
        Ok(())
    }
}

impl Default for MediumConfig {
    fn default() -> Self {
        MediumConfig::ethernet()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_valid() {
        for cfg in [
            MediumConfig::ethernet(),
            MediumConfig::gigabit_ethernet(),
            MediumConfig::atm_internal_bus(),
        ] {
            assert!(cfg.validate().is_ok());
        }
    }

    #[test]
    fn wire_bits_adds_overhead() {
        let cfg = MediumConfig::ethernet();
        assert_eq!(cfg.wire_bits(1000), 1208);
        assert_eq!(cfg.checked_wire_bits(1000), Some(1208));
        assert_eq!(cfg.checked_wire_bits(u64::MAX - 208), Some(u64::MAX));
        assert_eq!(cfg.checked_wire_bits(u64::MAX - 207), None);
    }

    #[test]
    fn zero_slot_rejected() {
        let cfg = MediumConfig {
            slot_ticks: 0,
            overhead_bits: 0,
            collision_mode: CollisionMode::Destructive,
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn default_is_ethernet() {
        assert_eq!(MediumConfig::default(), MediumConfig::ethernet());
        assert_eq!(CollisionMode::default(), CollisionMode::Destructive);
    }

    #[test]
    fn atm_bus_is_arbitrating() {
        assert_eq!(
            MediumConfig::atm_internal_bus().collision_mode,
            CollisionMode::Arbitrating
        );
    }

    /// Regression for the panic-sweep restructure: the arbitration winner
    /// is now picked by a fold over a slice-pattern witness instead of
    /// `min_by_key(..).expect(..)`. Pin the tie-break (first minimum wins,
    /// exactly like `min_by_key`) and larger contender counts.
    #[test]
    fn arbitration_fold_keeps_min_by_key_tie_break() {
        use crate::message::{ClassId, Message, MessageId, SourceId};
        let mk = |id: u64, source: u32, bits: u64| {
            Frame::new(
                Message {
                    id: MessageId(id),
                    source: SourceId(source),
                    class: ClassId(0),
                    bits,
                    arrival: Ticks(0),
                    deadline: Ticks(10_000),
                },
                bits + 208,
            )
        };
        let atm = MediumConfig::atm_internal_bus();
        // Two frames from the same source id: the first submitted wins.
        let frames = [mk(10, 4, 100), mk(11, 4, 900), mk(12, 9, 100)];
        let (obs, held) = atm.resolve(&frames);
        assert_eq!(
            obs,
            Observation::Collision {
                survivor: Some(frames[0])
            }
        );
        assert_eq!(held, frames[0].duration());
        // A wide slate: the unique minimum wins regardless of position.
        let wide: Vec<Frame> = (0..12u32).map(|s| mk(u64::from(s), 11 - s, 64)).collect();
        let (obs, _) = atm.resolve(&wide);
        assert_eq!(
            obs,
            Observation::Collision {
                survivor: Some(wide[11])
            },
            "source 0 sits last in the slate and must still win"
        );
    }

    #[test]
    fn resolve_matches_collision_semantics() {
        use crate::message::{ClassId, Message, MessageId, SourceId};
        let mk = |source: u32, bits: u64| {
            Frame::new(
                Message {
                    id: MessageId(u64::from(source)),
                    source: SourceId(source),
                    class: ClassId(0),
                    bits,
                    arrival: Ticks(0),
                    deadline: Ticks(10_000),
                },
                bits + 208,
            )
        };
        let eth = MediumConfig::ethernet();
        assert_eq!(eth.resolve(&[]), (Observation::Silence, Ticks(512)));
        let lone = mk(3, 1000);
        assert_eq!(eth.resolve(&[lone]), (Observation::Busy(lone), Ticks(1208)));
        assert_eq!(
            eth.resolve(&[mk(1, 100), mk(2, 100)]),
            (Observation::Collision { survivor: None }, Ticks(512))
        );
        let atm = MediumConfig::atm_internal_bus();
        let (obs, held) = atm.resolve(&[mk(5, 100), mk(2, 300), mk(7, 100)]);
        assert_eq!(
            obs,
            Observation::Collision {
                survivor: Some(mk(2, 300))
            },
            "lowest source wins arbitration"
        );
        assert_eq!(held, mk(2, 300).duration());
    }
}
