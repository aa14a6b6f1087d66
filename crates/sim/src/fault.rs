//! Deterministic, seeded fault injection for the broadcast channel.
//!
//! The paper's analysis assumes an ideal medium; real broadcast channels
//! (§3.2 names Ethernet segments and busses internal to ATM nodes) corrupt
//! slots, lose frames to CRC errors, and host stations that crash and come
//! back. A [`FaultPlan`] is an explicit, precomputed schedule of such
//! faults, keyed by **decision-slot ordinal** — the count of decision slots
//! the engine has resolved — so a plan applies bitwise-identically whether
//! the engine steps slot by slot or jumps idle stretches with the
//! fast-forward path (which refuses to skip over a scheduled fault).
//!
//! Plans are either handcrafted ([`FaultPlan::from_events`]) for
//! adversarial checking, or generated from a seed and per-slot rates
//! ([`FaultPlan::generate`]) via the same domain-separated SplitMix64
//! stream every other stochastic component uses — a run under faults is a
//! pure function of `(configuration, workload, seed)`.

use crate::channel::Observation;
use crate::message::Frame;
use crate::rng::fault_seed;
use crate::time::Ticks;
use serde::{Deserialize, Serialize};

/// What kind of fault strikes a decision slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Channel noise: every station perceives the slot as a destructive
    /// collision, whatever actually happened. A transmitter treats it as a
    /// collision and retries; a genuinely busy slot delivers nothing and
    /// costs one slot time (collision detection aborts the transfer).
    CorruptSlot,
    /// CRC loss: if the slot resolves to a decodable frame (a lone
    /// transmission, or the survivor of an arbitrated collision), the
    /// channel is held for the frame's full duration but nothing is
    /// decoded — stations observe [`Observation::Garbled`]. A no-op on
    /// silent and destructively-collided slots.
    EraseFrame,
    /// Station omission failure: the station crashes at the start of the
    /// slot, stays off the channel for `down_slots` decision slots, then
    /// restarts (see [`crate::Station::crash`] / [`crate::Station::restart`]).
    Crash {
        /// Index of the station that fails.
        station: u32,
        /// Decision slots the station stays down before restarting.
        down_slots: u64,
    },
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Decision-slot ordinal (0-based count of resolved slots) the fault
    /// strikes at.
    pub slot: u64,
    /// The fault.
    pub kind: FaultKind,
}

/// Per-slot fault probabilities for seeded plan generation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct FaultRates {
    /// Probability a slot is corrupted.
    pub corrupt: f64,
    /// Probability a decodable frame in a slot is erased.
    pub erase: f64,
    /// Per-station probability of crashing at a slot (while up).
    pub crash: f64,
    /// Down time of every generated crash, in decision slots.
    pub down_slots: u64,
}

/// What the faults scheduled for one slot did to its resolved outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotFaults {
    /// The slot was forced to read as a destructive collision.
    pub corrupted: bool,
    /// The frame that was erased on the wire, if any.
    pub erased: Option<Frame>,
}

/// A replayable fault schedule: events sorted by slot ordinal.
///
/// # Examples
///
/// ```
/// use ddcr_sim::{FaultEvent, FaultKind, FaultPlan};
///
/// let plan = FaultPlan::from_events(vec![
///     FaultEvent { slot: 3, kind: FaultKind::CorruptSlot },
///     FaultEvent { slot: 0, kind: FaultKind::Crash { station: 1, down_slots: 8 } },
/// ]);
/// assert_eq!(plan.len(), 2);
/// assert_eq!(plan.next_event_at_or_after(0), Some(0));
/// assert_eq!(plan.next_event_at_or_after(1), Some(3));
/// assert_eq!(plan.next_event_at_or_after(4), None);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: injects nothing. An engine running under it is
    /// bitwise identical to one with no plan at all (the equivalence test
    /// suite asserts exactly that).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Builds a plan from explicit events (sorted internally by slot;
    /// within a slot, the given order is kept).
    pub fn from_events(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.slot);
        FaultPlan { events }
    }

    /// Generates a plan over `horizon_slots` decision slots from `seed` and
    /// per-slot `rates`, for a network of `stations` stations.
    ///
    /// The draws come from [`fault_seed`]-separated SplitMix64 lanes — one
    /// lane per fault kind — indexed by slot ordinal (and station, for
    /// crashes), so the plan depends only on `(seed, stations,
    /// horizon_slots, rates)`. A station already down is not re-crashed:
    /// generated crash intervals never overlap per station.
    pub fn generate(seed: u64, stations: u32, horizon_slots: u64, rates: &FaultRates) -> Self {
        // Per-lane early-outs: a zero-rate lane can never draw below its
        // threshold, so skip its `unit()` call per slot — and with every
        // lane inert, skip the horizon walk entirely. `ddcr run` and the
        // federation paths call this with all-zero defaults and horizons
        // in the millions of slots; the plan must cost nothing there.
        let draw_corrupt = rates.corrupt > 0.0;
        let draw_erase = rates.erase > 0.0;
        let draw_crash = rates.crash > 0.0 && rates.down_slots > 0;
        if !draw_corrupt && !draw_erase && !draw_crash {
            return FaultPlan::none();
        }
        let corrupt_lane = fault_seed(seed, 0);
        let erase_lane = fault_seed(seed, 1);
        let crash_lane = fault_seed(seed, 2);
        let mut events = Vec::new();
        let mut down_until = vec![0u64; stations as usize];
        for slot in 0..horizon_slots {
            if draw_corrupt && unit(corrupt_lane, slot) < rates.corrupt {
                events.push(FaultEvent {
                    slot,
                    kind: FaultKind::CorruptSlot,
                });
            }
            if draw_erase && unit(erase_lane, slot) < rates.erase {
                events.push(FaultEvent {
                    slot,
                    kind: FaultKind::EraseFrame,
                });
            }
            if draw_crash {
                for station in 0..stations {
                    if down_until[station as usize] > slot {
                        continue;
                    }
                    let draw = unit(crash_lane, slot * u64::from(stations) + u64::from(station));
                    if draw < rates.crash {
                        down_until[station as usize] = slot + rates.down_slots;
                        events.push(FaultEvent {
                            slot,
                            kind: FaultKind::Crash {
                                station,
                                down_slots: rates.down_slots,
                            },
                        });
                    }
                }
            }
        }
        FaultPlan { events }
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// All events, sorted by slot.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The ordinal of the first event at or after `slot`, if any — the
    /// fast-forward path uses this to bound silence jumps so no scheduled
    /// fault is ever skipped over.
    pub fn next_event_at_or_after(&self, slot: u64) -> Option<u64> {
        let i = self.events.partition_point(|e| e.slot < slot);
        self.events.get(i).map(|e| e.slot)
    }

    /// The events scheduled exactly at `slot`.
    pub fn events_at(&self, slot: u64) -> &[FaultEvent] {
        let lo = self.events.partition_point(|e| e.slot < slot);
        let hi = self.events.partition_point(|e| e.slot <= slot);
        &self.events[lo..hi]
    }

    /// The crash events scheduled at `slot`, as `(station, down_slots)`.
    pub fn crashes_at(&self, slot: u64) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.events_at(slot).iter().filter_map(|e| match e.kind {
            FaultKind::Crash {
                station,
                down_slots,
            } => Some((station, down_slots)),
            _ => None,
        })
    }

    /// Applies the channel faults (corruption, erasure — crashes are
    /// handled by the engine loop) scheduled at `slot` to a resolved
    /// observation, returning the faulted observation, the channel time it
    /// consumes, and what happened.
    ///
    /// Corruption wins over erasure when both strike: a corrupted slot
    /// reads as a destructive collision (one slot time), leaving no
    /// decodable frame to erase.
    pub fn apply(
        &self,
        slot: u64,
        slot_ticks: Ticks,
        observation: Observation,
        advance: Ticks,
    ) -> (Observation, Ticks, SlotFaults) {
        let mut faults = SlotFaults::default();
        let events = self.events_at(slot);
        if events.is_empty() {
            return (observation, advance, faults);
        }
        let mut observation = observation;
        let mut advance = advance;
        if events
            .iter()
            .any(|e| matches!(e.kind, FaultKind::CorruptSlot))
        {
            faults.corrupted = true;
            observation = Observation::Collision { survivor: None };
            advance = slot_ticks;
        }
        if events
            .iter()
            .any(|e| matches!(e.kind, FaultKind::EraseFrame))
        {
            let decoded = match observation {
                Observation::Busy(f) => Some(f),
                Observation::Collision { survivor } => survivor,
                Observation::Silence | Observation::Garbled => None,
            };
            if let Some(frame) = decoded {
                faults.erased = Some(frame);
                observation = Observation::Garbled;
                advance = frame.duration();
            }
        }
        (observation, advance, faults)
    }
}

/// Caps a fast-forward run so it never crosses a fault transition.
///
/// Every fast-forward tier (idle silence skips, contention search runs,
/// attempt-cycle runs) shares one fencing rule: a jump of at most `cap`
/// decision slots starting at `slot_ordinal` must stop short of the next
/// scheduled fault event **and** of the earliest pending station restart
/// in `down` (`Some(r)` means the station restarts at ordinal `r`),
/// because the slot a transition strikes must go through the reference
/// stepper. Returns the fenced cap; with an empty plan nothing can be
/// down (crashes only originate from the plan) and `cap` passes through
/// untouched.
pub(crate) fn fence_cap(
    plan: &FaultPlan,
    down: &[Option<u64>],
    slot_ordinal: u64,
    cap: u64,
) -> u64 {
    if plan.is_empty() {
        return cap;
    }
    let mut wake = plan.next_event_at_or_after(slot_ordinal);
    for &restart in down.iter().flatten() {
        wake = Some(wake.map_or(restart, |w| w.min(restart)));
    }
    match wake {
        Some(w) => cap.min(w.saturating_sub(slot_ordinal)),
        None => cap,
    }
}

/// Uniform draw in `[0, 1)` from a SplitMix64 lane at an index.
fn unit(lane: u64, index: u64) -> f64 {
    (crate::rng::derive_seed(lane, index) >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{ClassId, Message, MessageId, SourceId};

    fn frame(bits: u64) -> Frame {
        Frame::new(
            Message {
                id: MessageId(0),
                source: SourceId(0),
                class: ClassId(0),
                bits,
                arrival: Ticks(0),
                deadline: Ticks(1_000),
            },
            bits + 208,
        )
    }

    #[test]
    fn events_sorted_and_queryable() {
        let plan = FaultPlan::from_events(vec![
            FaultEvent { slot: 9, kind: FaultKind::EraseFrame },
            FaultEvent { slot: 2, kind: FaultKind::CorruptSlot },
            FaultEvent { slot: 2, kind: FaultKind::EraseFrame },
        ]);
        assert_eq!(plan.events_at(2).len(), 2);
        assert_eq!(plan.events_at(3).len(), 0);
        assert_eq!(plan.next_event_at_or_after(3), Some(9));
        assert_eq!(plan.next_event_at_or_after(10), None);
    }

    #[test]
    fn empty_plan_is_identity() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        let (obs, adv, f) = plan.apply(0, Ticks(512), Observation::Busy(frame(1000)), Ticks(1208));
        assert_eq!(obs, Observation::Busy(frame(1000)));
        assert_eq!(adv, Ticks(1208));
        assert_eq!(f, SlotFaults::default());
    }

    #[test]
    fn corruption_forces_destructive_collision() {
        let plan = FaultPlan::from_events(vec![FaultEvent {
            slot: 4,
            kind: FaultKind::CorruptSlot,
        }]);
        let (obs, adv, f) =
            plan.apply(4, Ticks(512), Observation::Busy(frame(1000)), Ticks(1208));
        assert_eq!(obs, Observation::Collision { survivor: None });
        assert_eq!(adv, Ticks(512));
        assert!(f.corrupted);
        assert!(f.erased.is_none());
        // Other slots untouched.
        let (obs, ..) = plan.apply(5, Ticks(512), Observation::Silence, Ticks(512));
        assert_eq!(obs, Observation::Silence);
    }

    #[test]
    fn erasure_garbles_busy_and_survivor_slots_only() {
        let plan = FaultPlan::from_events(vec![FaultEvent {
            slot: 0,
            kind: FaultKind::EraseFrame,
        }]);
        let f = frame(1000);
        let (obs, adv, sf) = plan.apply(0, Ticks(512), Observation::Busy(f), f.duration());
        assert_eq!(obs, Observation::Garbled);
        assert_eq!(adv, f.duration(), "channel still held for the frame");
        assert_eq!(sf.erased, Some(f));
        // Arbitrated survivor erased too.
        let (obs, adv, _) = plan.apply(
            0,
            Ticks(512),
            Observation::Collision { survivor: Some(f) },
            f.duration(),
        );
        assert_eq!(obs, Observation::Garbled);
        assert_eq!(adv, f.duration());
        // No-op on silence and destructive collisions.
        let (obs, ..) = plan.apply(0, Ticks(512), Observation::Silence, Ticks(512));
        assert_eq!(obs, Observation::Silence);
        let (obs, ..) = plan.apply(
            0,
            Ticks(512),
            Observation::Collision { survivor: None },
            Ticks(512),
        );
        assert_eq!(obs, Observation::Collision { survivor: None });
    }

    #[test]
    fn corruption_wins_over_erasure() {
        let plan = FaultPlan::from_events(vec![
            FaultEvent { slot: 0, kind: FaultKind::EraseFrame },
            FaultEvent { slot: 0, kind: FaultKind::CorruptSlot },
        ]);
        let (obs, adv, sf) =
            plan.apply(0, Ticks(512), Observation::Busy(frame(1000)), Ticks(1208));
        assert_eq!(obs, Observation::Collision { survivor: None });
        assert_eq!(adv, Ticks(512));
        assert!(sf.corrupted && sf.erased.is_none());
    }

    #[test]
    fn generation_is_deterministic_and_rate_scaled() {
        let rates = FaultRates {
            corrupt: 0.01,
            erase: 0.02,
            crash: 0.001,
            down_slots: 50,
        };
        let a = FaultPlan::generate(42, 4, 10_000, &rates);
        let b = FaultPlan::generate(42, 4, 10_000, &rates);
        assert_eq!(a, b);
        let c = FaultPlan::generate(43, 4, 10_000, &rates);
        assert_ne!(a, c, "different seed, different plan");
        // Counts in the statistical ballpark (wide tolerances; the draws
        // are fixed by the seed, so this cannot flake).
        let corrupt = a
            .events()
            .iter()
            .filter(|e| e.kind == FaultKind::CorruptSlot)
            .count();
        assert!((30..300).contains(&corrupt), "corrupt events: {corrupt}");
    }

    #[test]
    fn zero_rates_generate_nothing() {
        let plan = FaultPlan::generate(7, 8, 100_000, &FaultRates::default());
        assert!(plan.is_empty());
    }

    #[test]
    fn zero_rates_skip_the_horizon_walk_entirely() {
        // Regression: an all-zero plan must cost O(1), not O(horizon).
        // This horizon would take years to walk slot by slot; the test
        // only terminates because `generate` early-outs.
        let plan = FaultPlan::generate(7, 1024, u64::MAX / 2, &FaultRates::default());
        assert!(plan.is_empty());
    }

    #[test]
    fn single_active_lane_matches_full_generation() {
        // The per-lane guards must not perturb the draws of lanes that
        // remain active: a corrupt-only plan generated alongside inert
        // erase/crash lanes is exactly the corrupt subset of a plan where
        // every lane is live (lanes are seed-separated and independent).
        let all = FaultRates {
            corrupt: 0.01,
            erase: 0.02,
            crash: 0.001,
            down_slots: 50,
        };
        let corrupt_only = FaultRates {
            corrupt: 0.01,
            ..FaultRates::default()
        };
        let full = FaultPlan::generate(99, 16, 50_000, &all);
        let partial = FaultPlan::generate(99, 16, 50_000, &corrupt_only);
        assert!(!partial.is_empty());
        let expected: Vec<FaultEvent> = full
            .events()
            .iter()
            .copied()
            .filter(|e| matches!(e.kind, FaultKind::CorruptSlot))
            .collect();
        assert_eq!(partial.events(), expected.as_slice());
    }

    #[test]
    fn fence_cap_passes_through_with_empty_plan() {
        // No plan means no faults and nothing down: the cap is untouched.
        assert_eq!(fence_cap(&FaultPlan::none(), &[], 0, u64::MAX), u64::MAX);
        assert_eq!(fence_cap(&FaultPlan::none(), &[None, None], 7, 42), 42);
    }

    #[test]
    fn fence_cap_stops_short_of_the_next_scheduled_event() {
        let plan = FaultPlan::from_events(vec![
            FaultEvent { slot: 10, kind: FaultKind::CorruptSlot },
            FaultEvent { slot: 30, kind: FaultKind::EraseFrame },
        ]);
        // From ordinal 4 the run may cover slots 4..10 only.
        assert_eq!(fence_cap(&plan, &[None], 4, u64::MAX), 6);
        // A tighter caller cap wins.
        assert_eq!(fence_cap(&plan, &[None], 4, 3), 3);
        // A fault due right now fences the run to zero slots.
        assert_eq!(fence_cap(&plan, &[None], 10, u64::MAX), 0);
        // Past the event, the next one fences.
        assert_eq!(fence_cap(&plan, &[None], 11, u64::MAX), 19);
        // Past every event, the cap passes through.
        assert_eq!(fence_cap(&plan, &[None], 31, 9), 9);
    }

    #[test]
    fn fence_cap_stops_short_of_a_pending_restart() {
        let plan = FaultPlan::from_events(vec![FaultEvent {
            slot: 0,
            kind: FaultKind::Crash { station: 0, down_slots: 20 },
        }]);
        // The scheduled event at slot 0 is behind us; only the restart at
        // ordinal 20 fences.
        assert_eq!(fence_cap(&plan, &[Some(20), None], 5, u64::MAX), 15);
        // The earliest of restart and event wins.
        let plan2 = FaultPlan::from_events(vec![
            FaultEvent { slot: 0, kind: FaultKind::Crash { station: 0, down_slots: 20 } },
            FaultEvent { slot: 12, kind: FaultKind::CorruptSlot },
        ]);
        assert_eq!(fence_cap(&plan2, &[Some(20), None], 5, u64::MAX), 7);
        assert_eq!(fence_cap(&plan2, &[Some(9), None], 5, u64::MAX), 4);
        // A restart due at or before the current ordinal fences to zero.
        assert_eq!(fence_cap(&plan, &[Some(5)], 5, u64::MAX), 0);
    }

    #[test]
    fn generated_crashes_never_overlap_per_station() {
        let rates = FaultRates {
            corrupt: 0.0,
            erase: 0.0,
            crash: 0.05,
            down_slots: 30,
        };
        let plan = FaultPlan::generate(1, 2, 5_000, &rates);
        let mut down_until = [0u64; 2];
        let mut crashes = 0;
        for e in plan.events() {
            if let FaultKind::Crash { station, down_slots } = e.kind {
                assert!(
                    e.slot >= down_until[station as usize],
                    "station {station} re-crashed while down at slot {}",
                    e.slot
                );
                down_until[station as usize] = e.slot + down_slots;
                crashes += 1;
            }
        }
        assert!(crashes > 0, "rate 0.05 over 5000 slots produced no crash");
    }
}
