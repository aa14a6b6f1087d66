//! Deterministic scheduled membership changes: stations joining and
//! leaving the broadcast fabric mid-run.
//!
//! Mirrors the fault subsystem's design (see [`crate::FaultPlan`]): a
//! [`MembershipPlan`] keys every change to a **decision-slot ordinal** —
//! the count of resolved decision slots, a coordinate identical under
//! fast-forward and reference stepping — so a plan is bitwise replayable
//! and the engine's fast-forward tiers can fence their jumps at the
//! next scheduled change exactly as they fence at fault events.
//!
//! Semantics in the engine:
//!
//! * **Leave**: the station powers off the fabric — its queue is recorded
//!   lost, and from that slot on it is fenced completely (no deliver /
//!   poll / observe; arrivals for it are lost). Its static leaves are
//!   reclaimed by the membership layer in `ddcr_core` at the next epoch
//!   boundary; at the medium level an absent station is simply silent.
//! * **Join**: the station powers on receive-only and resynchronizes
//!   through the epoch-stamp handshake of the protocol layer (PR 3): it
//!   stays off the channel until it observes a frame whose epoch began
//!   after its join, then adopts the shared state — the "reserved
//!   contention window" a joining station acquires its indices through is
//!   exactly this provably-silent span.

/// A membership transition for one station.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipChange {
    /// The station (re-)joins the fabric: it powers on receive-only and
    /// resynchronizes before contending.
    Join {
        /// Station index (attachment order).
        station: u32,
    },
    /// The station leaves the fabric: queue lost, silent from here on.
    Leave {
        /// Station index (attachment order).
        station: u32,
    },
}

impl MembershipChange {
    /// The station the change applies to.
    pub fn station(&self) -> u32 {
        match *self {
            MembershipChange::Join { station } | MembershipChange::Leave { station } => station,
        }
    }
}

/// One scheduled membership change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipEvent {
    /// Decision-slot ordinal the change strikes at.
    pub slot: u64,
    /// What happens.
    pub change: MembershipChange,
}

/// A deterministic membership schedule.
///
/// Events are kept sorted by slot ordinal (stable for ties, so two changes
/// scheduled at the same slot apply in the order given). The empty plan
/// with no initially absent stations leaves the engine bitwise identical
/// to one without membership support.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MembershipPlan {
    /// Stations that start outside the fabric (absent from slot 0): they
    /// are fenced until a [`MembershipChange::Join`] admits them.
    initially_absent: Vec<u32>,
    events: Vec<MembershipEvent>,
}

impl MembershipPlan {
    /// The empty plan: everyone present, nothing scheduled.
    pub fn none() -> Self {
        MembershipPlan::default()
    }

    /// Builds a plan from initially absent stations and scheduled events
    /// (sorted by slot, stable).
    pub fn from_events(initially_absent: Vec<u32>, mut events: Vec<MembershipEvent>) -> Self {
        events.sort_by_key(|e| e.slot);
        MembershipPlan {
            initially_absent,
            events,
        }
    }

    /// Whether the plan schedules nothing and nobody starts absent.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.initially_absent.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// All events, sorted by slot.
    pub fn events(&self) -> &[MembershipEvent] {
        &self.events
    }

    /// Stations absent from slot 0.
    pub fn initially_absent(&self) -> &[u32] {
        &self.initially_absent
    }

    /// The ordinal of the first event at or after `slot`, if any.
    pub fn next_event_at_or_after(&self, slot: u64) -> Option<u64> {
        let i = self.events.partition_point(|e| e.slot < slot);
        self.events.get(i).map(|e| e.slot)
    }

    /// The events scheduled exactly at `slot`.
    pub fn events_at(&self, slot: u64) -> &[MembershipEvent] {
        let lo = self.events.partition_point(|e| e.slot < slot);
        let hi = self.events.partition_point(|e| e.slot <= slot);
        &self.events[lo..hi]
    }

    /// Caps a fast-forward run of at most `cap` decision slots starting at
    /// `slot_ordinal` so it never crosses a scheduled membership change —
    /// the slot a change strikes must go through the reference stepper,
    /// the same fencing rule every fault transition obeys.
    pub(crate) fn fence(&self, slot_ordinal: u64, cap: u64) -> u64 {
        if self.events.is_empty() {
            return cap;
        }
        match self.next_event_at_or_after(slot_ordinal) {
            Some(next) => cap.min(next.saturating_sub(slot_ordinal)),
            None => cap,
        }
    }

    /// A convenience script: `station` leaves at `leave_slot` and rejoins
    /// at `rejoin_slot` (which must be strictly later).
    pub fn leave_then_rejoin(station: u32, leave_slot: u64, rejoin_slot: u64) -> Self {
        debug_assert!(leave_slot < rejoin_slot);
        MembershipPlan::from_events(
            Vec::new(),
            vec![
                MembershipEvent {
                    slot: leave_slot,
                    change: MembershipChange::Leave { station },
                },
                MembershipEvent {
                    slot: rejoin_slot,
                    change: MembershipChange::Join { station },
                },
            ],
        )
    }
}

/// Marker value in the engine's `down` table for a station that is absent
/// (left / never joined) rather than crashed: it never restarts on its
/// own — only a scheduled [`MembershipChange::Join`] brings it back.
pub(crate) const ABSENT: u64 = u64::MAX;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_orders_and_indexes_events() {
        let plan = MembershipPlan::from_events(
            vec![2],
            vec![
                MembershipEvent {
                    slot: 9,
                    change: MembershipChange::Join { station: 2 },
                },
                MembershipEvent {
                    slot: 3,
                    change: MembershipChange::Leave { station: 0 },
                },
            ],
        );
        assert!(!plan.is_empty());
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.events()[0].slot, 3);
        assert_eq!(plan.next_event_at_or_after(0), Some(3));
        assert_eq!(plan.next_event_at_or_after(4), Some(9));
        assert_eq!(plan.next_event_at_or_after(10), None);
        assert_eq!(plan.events_at(3).len(), 1);
        assert!(plan.events_at(4).is_empty());
        assert_eq!(plan.initially_absent(), &[2]);
    }

    #[test]
    fn fence_stops_before_the_next_event() {
        let plan = MembershipPlan::leave_then_rejoin(1, 5, 12);
        assert_eq!(plan.fence(0, 100), 5);
        assert_eq!(plan.fence(5, 100), 0);
        assert_eq!(plan.fence(6, 100), 6);
        assert_eq!(plan.fence(13, 100), 100);
        assert_eq!(MembershipPlan::none().fence(0, 7), 7);
    }

    #[test]
    fn empty_plan_with_absentees_is_not_empty() {
        let plan = MembershipPlan::from_events(vec![0], Vec::new());
        assert!(!plan.is_empty());
        assert_eq!(plan.len(), 0);
    }
}
