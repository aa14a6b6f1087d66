//! The bounded model checker: drives CSMA/DDCR replicas through every
//! scenario in a [`Scope`](crate::Scope) and checks the correctness
//! properties the paper claims.
//!
//! Checked invariants, per scenario:
//!
//! * **Liveness** — every message is delivered within the slot budget;
//! * **Exactly-once** — no duplicate or invented deliveries;
//! * **Replica consistency** — all stations' shared-state digests agree
//!   after every slot (the protocol is a replicated deterministic
//!   automaton);
//! * **Causality** — no delivery completes before `arrival + wire time`;
//! * **EDF emulation** — when all messages arrive simultaneously from
//!   distinct sources with absolute deadlines separated by at least two
//!   deadline classes, delivery order is exactly EDF order (checked under
//!   destructive collisions only: arbitration lets a lower-numbered source
//!   win a slot it would destructively have lost, a bounded priority
//!   inversion the strict check does not model).
//!
//! The fault-aware entry points ([`check_scope_with_faults`]) re-run the
//! same replicas under an injected [`FaultPlan`] and check the weakened
//! properties that survive faults: safety always (no duplicate, invented,
//! or causality-violating delivery; lost messages stay lost), replica
//! divergence only for crashed/resyncing stations, and bounded healing —
//! a restarted station that observes a post-restart epoch anchor must
//! resynchronize in that very slot.

use crate::scope::Scope;
use ddcr_core::{DdcrConfig, DdcrStation, StaticAllocation};
use ddcr_sim::rng::{derive_seed, fault_seed};
use ddcr_sim::{
    Action, CollisionMode, FaultEvent, FaultKind, FaultPlan, Frame, MediumConfig, MembershipChange,
    MembershipPlan, Message, MessageId, Observation, Station, Ticks,
};

/// A property violated by a scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Not every message was delivered within the slot budget.
    NotDrained {
        /// Messages still queued.
        backlog: usize,
    },
    /// A message was delivered more than once, or a delivery appeared for
    /// a message never scheduled.
    DuplicateOrInvented {
        /// The offending message.
        id: MessageId,
    },
    /// Two replicas disagreed on shared protocol state. Under faults this
    /// covers only stations claiming to be synchronized — crashed and
    /// resyncing replicas are allowed (expected) to lag.
    ReplicaDivergence {
        /// Slot ordinal of the divergence.
        step: u64,
    },
    /// A delivery completed before it physically could.
    CausalityViolation {
        /// The offending message.
        id: MessageId,
    },
    /// Deliveries were not in EDF order although the scenario qualifies
    /// for strict EDF emulation.
    EdfOrderViolation {
        /// Delivered order (message ids).
        got: Vec<u64>,
        /// EDF order (message ids).
        expected: Vec<u64>,
    },
    /// A restarted station observed a frame stamped with a post-restart
    /// epoch — a valid resynchronization anchor — yet stayed unsynced.
    UnhealedRestart {
        /// The station that failed to heal.
        station: u32,
        /// Slot ordinal of the missed anchor.
        step: u64,
    },
    /// A message recorded as lost in a station crash was delivered anyway.
    LostMessageDelivered {
        /// The offending message.
        id: MessageId,
    },
    /// A delivered message of an admitted flow completed after its
    /// absolute deadline — the property membership churn must not break:
    /// join/leave transitions may delay *lost* traffic (the leaver's own
    /// queue) but never push a surviving flow past its deadline.
    DeadlineMiss {
        /// The offending message.
        id: MessageId,
        /// When the delivery completed.
        completed: Ticks,
        /// The absolute deadline it missed.
        deadline: Ticks,
    },
}

/// One scenario's verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Index into the scope's enumeration (replay with
    /// [`Scope::scenario`]).
    pub scenario_index: usize,
    /// The violated property.
    pub violation: Violation,
}

/// Aggregate result of checking a whole scope.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Scenarios enumerated.
    pub scenarios: usize,
    /// Scenarios that qualified for (and passed) the strict-EDF check.
    pub edf_checked: usize,
    /// All violations found, in enumeration order.
    pub findings: Vec<Finding>,
}

impl CheckReport {
    /// Whether the scope verified cleanly.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Aggregate result of checking a whole scope under injected faults.
#[derive(Debug, Clone, Default)]
pub struct FaultCheckReport {
    /// Scenarios enumerated.
    pub scenarios: usize,
    /// All violations found, in enumeration order.
    pub findings: Vec<Finding>,
    /// Crash events injected across all scenarios.
    pub crashes: u64,
    /// Restarted stations that resynchronized.
    pub rejoins: u64,
    /// Worst observed heal time: decision slots from restart to rejoin.
    pub max_heal_slots: u64,
    /// Scenarios that timed out under faults but verify cleanly without
    /// them — the timeout is attributable to the injected faults (e.g. a
    /// resyncing station whose backlog cannot drain because the channel
    /// stays silent, so no epoch anchor ever arrives), not a protocol bug.
    pub attributable_timeouts: usize,
}

impl FaultCheckReport {
    /// Whether the scope verified cleanly under the fault plans.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Aggregate result of checking a scope under membership churn
/// interleaved with adversarial faults.
#[derive(Debug, Clone, Default)]
pub struct MembershipCheckReport {
    /// Scenarios enumerated.
    pub scenarios: usize,
    /// All violations found, in enumeration order.
    pub findings: Vec<Finding>,
    /// Join transitions that actually applied (station was absent).
    pub joins: u64,
    /// Leave transitions that actually applied (station was present).
    pub leaves: u64,
    /// Crash events injected across all scenarios.
    pub crashes: u64,
    /// Restarted or rejoined stations that resynchronized.
    pub rejoins: u64,
    /// Worst observed heal time: decision slots from restart/join to sync.
    pub max_heal_slots: u64,
    /// Timeouts attributable to the injected faults or churn (the same
    /// scenario verifies cleanly without them), not to a protocol bug.
    pub attributable_timeouts: usize,
    /// Deliveries whose deadline was checked (every delivery of a
    /// scheduled message).
    pub deadline_checked: u64,
}

impl MembershipCheckReport {
    /// Whether the scope verified cleanly under churn and faults.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// The checker's protocol parameters (kept small so searches stay short).
fn config(z: u32, mode: CollisionMode) -> (DdcrConfig, StaticAllocation, MediumConfig) {
    let medium = MediumConfig {
        collision_mode: mode,
        ..MediumConfig::ethernet()
    };
    let config = DdcrConfig::for_sources(z, Ticks(100_000)).expect("checker config");
    let allocation =
        StaticAllocation::one_per_source(config.static_tree, z).expect("checker allocation");
    (config, allocation, medium)
}

/// Earliest instant a delivery of `m` can physically complete: arrival
/// plus the Ph-PDU wire time `l'(m)` — routed through
/// [`MediumConfig::wire_bits`] so the checker can never drift from the
/// engine's framing-overhead accounting.
fn causality_bound(medium: &MediumConfig, m: &Message) -> Ticks {
    m.arrival + Ticks(medium.wire_bits(m.bits))
}

/// Exhaustively checks every scenario in the scope under destructive
/// (Ethernet) collision semantics.
///
/// `slot_budget` bounds each scenario's length (a conforming network
/// drains the small scopes within a few hundred slots; the budget exists
/// to convert a liveness bug into a finding rather than a hang).
pub fn check_scope(scope: &Scope, slot_budget: u64) -> CheckReport {
    check_scope_with_mode(scope, slot_budget, CollisionMode::Destructive)
}

/// Exhaustively checks every scenario in the scope under the given
/// collision semantics.
pub fn check_scope_with_mode(scope: &Scope, slot_budget: u64, mode: CollisionMode) -> CheckReport {
    let mut report = CheckReport::default();
    for (index, scenario) in scope.scenarios().enumerate() {
        report.scenarios += 1;
        check_scenario(
            scope.stations,
            index,
            &scenario,
            slot_budget,
            mode,
            &mut report,
        );
    }
    report
}

/// Checks a single scenario (public so findings can be replayed and
/// minimised by hand).
pub fn check_scenario(
    z: u32,
    index: usize,
    scenario: &[Message],
    slot_budget: u64,
    mode: CollisionMode,
    report: &mut CheckReport,
) {
    let (config, allocation, medium) = config(z, mode);
    let mut stations: Vec<DdcrStation> = (0..z)
        .map(|i| {
            DdcrStation::new(
                ddcr_sim::SourceId(i),
                config,
                &allocation,
                medium.overhead_bits,
            )
            .expect("station")
        })
        .collect();
    let mut arrivals = scenario.to_vec();
    arrivals.sort_by_key(|m| (m.arrival, m.id));

    let mut deliveries: Vec<(MessageId, Ticks)> = Vec::new();
    let mut now = Ticks::ZERO;
    let mut next = 0usize;
    let mut step = 0u64;
    let mut diverged = false;
    while next < arrivals.len() || stations.iter().any(|s| s.backlog() > 0) {
        if step >= slot_budget {
            report.findings.push(Finding {
                scenario_index: index,
                violation: Violation::NotDrained {
                    backlog: stations.iter().map(|s| s.backlog()).sum(),
                },
            });
            return;
        }
        step += 1;
        while next < arrivals.len() && arrivals[next].arrival <= now {
            let m = arrivals[next];
            stations[m.source.0 as usize].deliver(m);
            next += 1;
        }
        let frames: Vec<Frame> = stations
            .iter_mut()
            .filter_map(|s| match s.poll(now) {
                Action::Transmit(f) => Some(f),
                Action::Idle => None,
            })
            .collect();
        // The engine's own resolution — semantics cannot drift apart.
        let (obs, advance) = medium.resolve(&frames);
        let next_free = now + advance;
        match obs {
            Observation::Busy(f)
            | Observation::Collision {
                survivor: Some(f), ..
            } => deliveries.push((f.message.id, next_free)),
            _ => {}
        }
        for s in stations.iter_mut() {
            s.observe(now, next_free, &obs);
        }
        if !diverged {
            let first = stations[0].shared_state_digest();
            if stations[1..]
                .iter()
                .any(|s| s.shared_state_digest() != first)
            {
                report.findings.push(Finding {
                    scenario_index: index,
                    violation: Violation::ReplicaDivergence { step },
                });
                diverged = true; // report once, keep running other checks
            }
        }
        now = next_free;
    }

    // Exactly-once.
    let mut seen = std::collections::HashSet::new();
    for &(id, _) in &deliveries {
        let scheduled = scenario.iter().any(|m| m.id == id);
        if !seen.insert(id) || !scheduled {
            report.findings.push(Finding {
                scenario_index: index,
                violation: Violation::DuplicateOrInvented { id },
            });
        }
    }
    if deliveries.len() != scenario.len() && seen.len() == deliveries.len() {
        report.findings.push(Finding {
            scenario_index: index,
            violation: Violation::NotDrained {
                backlog: scenario.len() - deliveries.len(),
            },
        });
    }

    // Causality.
    for &(id, completed) in &deliveries {
        let Some(msg) = scenario.iter().find(|m| m.id == id) else {
            continue; // invented delivery, already reported above
        };
        if completed < causality_bound(&medium, msg) {
            report.findings.push(Finding {
                scenario_index: index,
                violation: Violation::CausalityViolation { id },
            });
        }
    }

    // Strict EDF emulation, where the scenario qualifies: simultaneous
    // arrivals, pairwise-distinct sources, DM separation ≥ 2 classes.
    // Destructive collisions only — see the module docs.
    let c = config.class_width.as_u64();
    let qualifies = {
        let all_zero = scenario.iter().all(|m| m.arrival == Ticks::ZERO);
        let mut sources: Vec<u32> = scenario.iter().map(|m| m.source.0).collect();
        sources.sort_unstable();
        sources.dedup();
        let distinct_sources = sources.len() == scenario.len();
        let mut dms: Vec<u64> = scenario
            .iter()
            .map(|m| m.absolute_deadline().as_u64())
            .collect();
        dms.sort_unstable();
        let separated = dms.windows(2).all(|p| p[1] - p[0] >= 2 * c);
        all_zero && distinct_sources && separated
    };
    if qualifies && mode == CollisionMode::Destructive {
        report.edf_checked += 1;
        let mut expected: Vec<&Message> = scenario.iter().collect();
        expected.sort_by_key(|m| m.absolute_deadline());
        let expected: Vec<u64> = expected.iter().map(|m| m.id.0).collect();
        let got: Vec<u64> = deliveries.iter().map(|(id, _)| id.0).collect();
        if got != expected {
            report.findings.push(Finding {
                scenario_index: index,
                violation: Violation::EdfOrderViolation { got, expected },
            });
        }
    }
}

/// The seeded adversarial fault plan for one scenario: one corrupted
/// slot, one erasure attempt, and exactly one station crash (station,
/// instant and outage length all seed-derived), placed in the opening
/// slots where the small scopes do their tree searches.
pub fn adversarial_plan(seed: u64, scenario_index: usize, stations: u32) -> FaultPlan {
    let base = fault_seed(seed, scenario_index as u64);
    let pick = |lane: u64, modulus: u64| derive_seed(base, lane) % modulus;
    FaultPlan::from_events(vec![
        FaultEvent {
            slot: pick(0, 8),
            kind: FaultKind::CorruptSlot,
        },
        FaultEvent {
            slot: pick(1, 12),
            kind: FaultKind::EraseFrame,
        },
        FaultEvent {
            slot: 2 + pick(2, 8),
            kind: FaultKind::Crash {
                station: pick(3, u64::from(stations)) as u32,
                down_slots: 4 + pick(4, 8),
            },
        },
    ])
}

/// Checks every scenario in the scope under a seeded adversarial fault
/// plan (a fresh plan per scenario, see [`adversarial_plan`]).
pub fn check_scope_with_faults(
    scope: &Scope,
    slot_budget: u64,
    mode: CollisionMode,
    seed: u64,
) -> FaultCheckReport {
    let mut report = FaultCheckReport::default();
    for (index, scenario) in scope.scenarios().enumerate() {
        report.scenarios += 1;
        let plan = adversarial_plan(seed, index, scope.stations);
        check_scenario_with_faults(
            scope.stations,
            index,
            &scenario,
            slot_budget,
            mode,
            &plan,
            &mut report,
        );
    }
    report
}

/// Checks a single scenario under an explicit fault plan.
///
/// Mirrors the engine's fault handling exactly: restarts are processed
/// before crashes at each slot ordinal, crashed stations are fenced (no
/// deliver/poll/observe; their arrivals are lost), and channel faults are
/// applied to the resolved observation via [`FaultPlan::apply`].
pub fn check_scenario_with_faults(
    z: u32,
    index: usize,
    scenario: &[Message],
    slot_budget: u64,
    mode: CollisionMode,
    plan: &FaultPlan,
    report: &mut FaultCheckReport,
) {
    let (config, allocation, medium) = config(z, mode);
    let mut stations: Vec<DdcrStation> = (0..z)
        .map(|i| {
            DdcrStation::new(
                ddcr_sim::SourceId(i),
                config,
                &allocation,
                medium.overhead_bits,
            )
            .expect("station")
        })
        .collect();
    let mut arrivals = scenario.to_vec();
    arrivals.sort_by_key(|m| (m.arrival, m.id));

    let mut deliveries: Vec<(MessageId, Ticks)> = Vec::new();
    let mut lost: Vec<MessageId> = Vec::new();
    // Restart ordinal per crashed station, and (restart step, restart
    // time) per station currently resynchronizing.
    let mut down: Vec<Option<u64>> = vec![None; z as usize];
    let mut resyncing: Vec<Option<(u64, Ticks)>> = vec![None; z as usize];
    let mut now = Ticks::ZERO;
    let mut next = 0usize;
    let mut step = 0u64;
    let mut diverged = false;
    loop {
        // Fault transitions at this ordinal: restarts first, then crashes
        // (same order as the engine).
        for i in 0..stations.len() {
            if down[i].is_some_and(|at| at <= step) {
                down[i] = None;
                stations[i].restart(now);
                resyncing[i] = Some((step, now));
            }
        }
        for (station, down_slots) in plan.crashes_at(step) {
            let i = station as usize;
            if i < stations.len() && down[i].is_none() {
                report.crashes += 1;
                lost.extend(stations[i].crash(now).into_iter().map(|m| m.id));
                down[i] = Some(step + down_slots.max(1));
                resyncing[i] = None;
            }
        }
        if next >= arrivals.len() && stations.iter().all(|s| s.backlog() == 0) {
            break;
        }
        if step >= slot_budget {
            // Timed out under faults. Attribute: if the same scenario
            // verifies cleanly fault-free, the injected faults caused the
            // timeout (typically a resyncing station starved of epoch
            // anchors by channel silence); otherwise it is a real bug.
            let mut fault_free = CheckReport::default();
            check_scenario(z, index, scenario, slot_budget, mode, &mut fault_free);
            if fault_free.clean() {
                report.attributable_timeouts += 1;
            } else {
                report.findings.push(Finding {
                    scenario_index: index,
                    violation: Violation::NotDrained {
                        backlog: stations.iter().map(|s| s.backlog()).sum(),
                    },
                });
            }
            return;
        }
        while next < arrivals.len() && arrivals[next].arrival <= now {
            let m = arrivals[next];
            let i = m.source.0 as usize;
            if down[i].is_some() {
                lost.push(m.id); // its network module is dead
            } else {
                stations[i].deliver(m);
            }
            next += 1;
        }
        let frames: Vec<Frame> = stations
            .iter_mut()
            .enumerate()
            .filter(|(i, _)| down[*i].is_none())
            .filter_map(|(_, s)| match s.poll(now) {
                Action::Transmit(f) => Some(f),
                Action::Idle => None,
            })
            .collect();
        let (obs, advance) = medium.resolve(&frames);
        let (obs, advance, _slot_faults) = plan.apply(step, Ticks(medium.slot_ticks), obs, advance);
        let next_free = now + advance;
        match obs {
            Observation::Busy(f)
            | Observation::Collision {
                survivor: Some(f), ..
            } => deliveries.push((f.message.id, next_free)),
            _ => {}
        }
        for (i, s) in stations.iter_mut().enumerate() {
            if down[i].is_none() {
                s.observe(now, next_free, &obs);
            }
        }
        // Healing: a resyncing station either rejoined this slot, or must
        // have if the slot carried a post-restart epoch anchor (the exact
        // rule the protocol's resync mode implements).
        let anchor = match obs {
            Observation::Busy(f)
            | Observation::Collision {
                survivor: Some(f), ..
            } => f.epoch,
            _ => None,
        };
        for i in 0..stations.len() {
            let Some((restart_step, restart_at)) = resyncing[i] else {
                continue;
            };
            if stations[i].is_synced() {
                report.rejoins += 1;
                report.max_heal_slots = report.max_heal_slots.max(step - restart_step + 1);
                resyncing[i] = None;
            } else if anchor.is_some_and(|stamp| stamp.start >= restart_at) {
                report.findings.push(Finding {
                    scenario_index: index,
                    violation: Violation::UnhealedRestart {
                        station: i as u32,
                        step,
                    },
                });
                resyncing[i] = None; // report once
            }
        }
        // Divergence among replicas claiming to be synchronized; crashed
        // and resyncing stations are expected to lag.
        if !diverged {
            let digests: Vec<String> = stations
                .iter()
                .enumerate()
                .filter(|(i, s)| down[*i].is_none() && s.is_synced())
                .map(|(_, s)| s.shared_state_digest())
                .collect();
            if digests.windows(2).any(|w| w[0] != w[1]) {
                report.findings.push(Finding {
                    scenario_index: index,
                    violation: Violation::ReplicaDivergence { step },
                });
                diverged = true;
            }
        }
        now = next_free;
        step += 1;
    }

    // Safety under faults: deliveries unique, scheduled, and never of a
    // message recorded lost.
    let lost_set: std::collections::HashSet<MessageId> = lost.iter().copied().collect();
    let mut seen = std::collections::HashSet::new();
    for &(id, _) in &deliveries {
        let scheduled = scenario.iter().any(|m| m.id == id);
        if !seen.insert(id) || !scheduled {
            report.findings.push(Finding {
                scenario_index: index,
                violation: Violation::DuplicateOrInvented { id },
            });
        } else if lost_set.contains(&id) {
            report.findings.push(Finding {
                scenario_index: index,
                violation: Violation::LostMessageDelivered { id },
            });
        }
    }
    // Completeness: the loop only exits drained, so every scheduled
    // message must be accounted for — delivered or lost in a crash.
    for m in scenario {
        if !seen.contains(&m.id) && !lost_set.contains(&m.id) {
            report.findings.push(Finding {
                scenario_index: index,
                violation: Violation::NotDrained { backlog: 1 },
            });
        }
    }
    // Causality holds under faults too.
    for &(id, completed) in &deliveries {
        let Some(msg) = scenario.iter().find(|m| m.id == id) else {
            continue;
        };
        if completed < causality_bound(&medium, msg) {
            report.findings.push(Finding {
                scenario_index: index,
                violation: Violation::CausalityViolation { id },
            });
        }
    }
}

/// The seeded membership plan for one scenario: one station leaves in the
/// opening slots and rejoins a few slots later — the leave reclaims its
/// indices (its queue is lost), the rejoin exercises the reserved-window
/// resynchronization handshake while the survivors' traffic is in flight.
///
/// Seed lanes 5–7 are used (the adversarial fault plan uses 0–4), so the
/// same `(seed, scenario_index)` pair yields an independent-looking but
/// fully reproducible churn schedule alongside the fault schedule.
pub fn membership_plan(seed: u64, scenario_index: usize, stations: u32) -> MembershipPlan {
    let base = fault_seed(seed, scenario_index as u64);
    let pick = |lane: u64, modulus: u64| derive_seed(base, lane) % modulus;
    let station = pick(5, u64::from(stations)) as u32;
    let leave = 1 + pick(6, 6);
    let rejoin = leave + 2 + pick(7, 6);
    MembershipPlan::leave_then_rejoin(station, leave, rejoin)
}

/// Checks every scenario in the scope under a seeded membership plan
/// (one leave/rejoin per scenario, see [`membership_plan`]) interleaved
/// with the seeded adversarial fault plan of [`check_scope_with_faults`].
///
/// On top of the fault-mode safety properties, every delivery of a
/// scheduled message is checked against its absolute deadline
/// ([`Violation::DeadlineMiss`]): membership transitions may lose the
/// leaver's own queue, but must never push a surviving admitted flow past
/// its deadline.
pub fn check_scope_with_membership(
    scope: &Scope,
    slot_budget: u64,
    mode: CollisionMode,
    seed: u64,
) -> MembershipCheckReport {
    let mut report = MembershipCheckReport::default();
    for (index, scenario) in scope.scenarios().enumerate() {
        report.scenarios += 1;
        let faults = adversarial_plan(seed, index, scope.stations);
        let membership = membership_plan(seed, index, scope.stations);
        check_scenario_with_membership(
            scope.stations,
            index,
            &scenario,
            slot_budget,
            mode,
            &faults,
            &membership,
            &mut report,
        );
    }
    report
}

/// Checks a single scenario under explicit fault and membership plans.
///
/// Mirrors the engine's transition ordering exactly: membership events
/// first (joins admit an absent station receive-only via `restart`;
/// leaves fence the station and record its queue lost), then fault
/// restarts, then crashes. An absent station is fenced completely — it
/// neither crashes, restarts, polls, observes, nor receives arrivals
/// (they are lost, exactly as for a crashed station).
#[allow(clippy::too_many_arguments)]
pub fn check_scenario_with_membership(
    z: u32,
    index: usize,
    scenario: &[Message],
    slot_budget: u64,
    mode: CollisionMode,
    plan: &FaultPlan,
    membership: &MembershipPlan,
    report: &mut MembershipCheckReport,
) {
    let (config, allocation, medium) = config(z, mode);
    let mut stations: Vec<DdcrStation> = (0..z)
        .map(|i| {
            DdcrStation::new(
                ddcr_sim::SourceId(i),
                config,
                &allocation,
                medium.overhead_bits,
            )
            .expect("station")
        })
        .collect();
    let mut arrivals = scenario.to_vec();
    arrivals.sort_by_key(|m| (m.arrival, m.id));

    let mut deliveries: Vec<(MessageId, Ticks)> = Vec::new();
    let mut lost: Vec<MessageId> = Vec::new();
    let mut down: Vec<Option<u64>> = vec![None; z as usize];
    let mut absent: Vec<bool> = vec![false; z as usize];
    for &s in membership.initially_absent() {
        if (s as usize) < absent.len() {
            absent[s as usize] = true;
        }
    }
    let mut resyncing: Vec<Option<(u64, Ticks)>> = vec![None; z as usize];
    let mut now = Ticks::ZERO;
    let mut next = 0usize;
    let mut step = 0u64;
    let mut diverged = false;
    loop {
        // Membership transitions first, then fault restarts, then crashes
        // (the engine's ordering).
        for event in membership.events_at(step) {
            let i = event.change.station() as usize;
            if i >= stations.len() {
                continue;
            }
            match event.change {
                MembershipChange::Join { .. } if absent[i] => {
                    absent[i] = false;
                    down[i] = None;
                    stations[i].restart(now);
                    resyncing[i] = Some((step, now));
                    report.joins += 1;
                }
                MembershipChange::Leave { .. } if !absent[i] => {
                    absent[i] = true;
                    lost.extend(stations[i].crash(now).into_iter().map(|m| m.id));
                    down[i] = None;
                    resyncing[i] = None;
                    report.leaves += 1;
                }
                _ => {} // join while present / leave while absent: no-op
            }
        }
        for i in 0..stations.len() {
            if !absent[i] && down[i].is_some_and(|at| at <= step) {
                down[i] = None;
                stations[i].restart(now);
                resyncing[i] = Some((step, now));
            }
        }
        for (station, down_slots) in plan.crashes_at(step) {
            let i = station as usize;
            if i < stations.len() && !absent[i] && down[i].is_none() {
                report.crashes += 1;
                lost.extend(stations[i].crash(now).into_iter().map(|m| m.id));
                down[i] = Some(step + down_slots.max(1));
                resyncing[i] = None;
            }
        }
        if next >= arrivals.len() && stations.iter().all(|s| s.backlog() == 0) {
            break;
        }
        if step >= slot_budget {
            // Attribute the timeout: clean without churn and faults means
            // they caused it; otherwise it is a real bug.
            let mut bare = CheckReport::default();
            check_scenario(z, index, scenario, slot_budget, mode, &mut bare);
            if bare.clean() {
                report.attributable_timeouts += 1;
            } else {
                report.findings.push(Finding {
                    scenario_index: index,
                    violation: Violation::NotDrained {
                        backlog: stations.iter().map(|s| s.backlog()).sum(),
                    },
                });
            }
            return;
        }
        while next < arrivals.len() && arrivals[next].arrival <= now {
            let m = arrivals[next];
            let i = m.source.0 as usize;
            if absent[i] || down[i].is_some() {
                lost.push(m.id); // its network module is dead or detached
            } else {
                stations[i].deliver(m);
            }
            next += 1;
        }
        let frames: Vec<Frame> = stations
            .iter_mut()
            .enumerate()
            .filter(|(i, _)| !absent[*i] && down[*i].is_none())
            .filter_map(|(_, s)| match s.poll(now) {
                Action::Transmit(f) => Some(f),
                Action::Idle => None,
            })
            .collect();
        let (obs, advance) = medium.resolve(&frames);
        let (obs, advance, _slot_faults) = plan.apply(step, Ticks(medium.slot_ticks), obs, advance);
        let next_free = now + advance;
        match obs {
            Observation::Busy(f)
            | Observation::Collision {
                survivor: Some(f), ..
            } => deliveries.push((f.message.id, next_free)),
            _ => {}
        }
        for (i, s) in stations.iter_mut().enumerate() {
            if !absent[i] && down[i].is_none() {
                s.observe(now, next_free, &obs);
            }
        }
        // Healing: a resyncing (restarted or freshly joined) station must
        // sync the slot a post-restart epoch anchor appears.
        let anchor = match obs {
            Observation::Busy(f)
            | Observation::Collision {
                survivor: Some(f), ..
            } => f.epoch,
            _ => None,
        };
        for i in 0..stations.len() {
            let Some((restart_step, restart_at)) = resyncing[i] else {
                continue;
            };
            if stations[i].is_synced() {
                report.rejoins += 1;
                report.max_heal_slots = report.max_heal_slots.max(step - restart_step + 1);
                resyncing[i] = None;
            } else if anchor.is_some_and(|stamp| stamp.start >= restart_at) {
                report.findings.push(Finding {
                    scenario_index: index,
                    violation: Violation::UnhealedRestart {
                        station: i as u32,
                        step,
                    },
                });
                resyncing[i] = None; // report once
            }
        }
        // Divergence among present, synced replicas only.
        if !diverged {
            let digests: Vec<String> = stations
                .iter()
                .enumerate()
                .filter(|(i, s)| !absent[*i] && down[*i].is_none() && s.is_synced())
                .map(|(_, s)| s.shared_state_digest())
                .collect();
            if digests.windows(2).any(|w| w[0] != w[1]) {
                report.findings.push(Finding {
                    scenario_index: index,
                    violation: Violation::ReplicaDivergence { step },
                });
                diverged = true;
            }
        }
        now = next_free;
        step += 1;
    }

    // Safety: deliveries unique, scheduled, never of a lost message.
    let lost_set: std::collections::HashSet<MessageId> = lost.iter().copied().collect();
    let mut seen = std::collections::HashSet::new();
    for &(id, _) in &deliveries {
        let scheduled = scenario.iter().any(|m| m.id == id);
        if !seen.insert(id) || !scheduled {
            report.findings.push(Finding {
                scenario_index: index,
                violation: Violation::DuplicateOrInvented { id },
            });
        } else if lost_set.contains(&id) {
            report.findings.push(Finding {
                scenario_index: index,
                violation: Violation::LostMessageDelivered { id },
            });
        }
    }
    // Completeness: delivered or lost (in a crash or a leave), never
    // silently dropped.
    for m in scenario {
        if !seen.contains(&m.id) && !lost_set.contains(&m.id) {
            report.findings.push(Finding {
                scenario_index: index,
                violation: Violation::NotDrained { backlog: 1 },
            });
        }
    }
    // Causality and deadlines: a delivery of a surviving admitted flow
    // completes no earlier than physics allows and no later than its
    // absolute deadline — churn must not manufacture a miss.
    for &(id, completed) in &deliveries {
        let Some(msg) = scenario.iter().find(|m| m.id == id) else {
            continue;
        };
        if completed < causality_bound(&medium, msg) {
            report.findings.push(Finding {
                scenario_index: index,
                violation: Violation::CausalityViolation { id },
            });
        }
        report.deadline_checked += 1;
        if completed > msg.absolute_deadline() {
            report.findings.push(Finding {
                scenario_index: index,
                violation: Violation::DeadlineMiss {
                    id,
                    completed,
                    deadline: msg.absolute_deadline(),
                },
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scope_verifies_clean() {
        let scope = Scope::small();
        let report = check_scope(&scope, 3_000);
        assert_eq!(report.scenarios, scope.scenario_count());
        assert!(
            report.clean(),
            "violations: {:?}",
            &report.findings[..report.findings.len().min(5)]
        );
        assert!(report.edf_checked > 0, "EDF check never applied");
    }

    #[test]
    fn small_scope_verifies_clean_under_arbitration() {
        let scope = Scope::small();
        let report = check_scope_with_mode(&scope, 3_000, CollisionMode::Arbitrating);
        assert_eq!(report.scenarios, scope.scenario_count());
        assert!(
            report.clean(),
            "violations: {:?}",
            &report.findings[..report.findings.len().min(5)]
        );
        // The strict-EDF check is destructive-only.
        assert_eq!(report.edf_checked, 0);
    }

    #[test]
    fn single_scenario_replay_matches() {
        let scope = Scope::small();
        let mut report = CheckReport::default();
        check_scenario(
            scope.stations,
            7,
            &scope.scenario(7),
            3_000,
            CollisionMode::Destructive,
            &mut report,
        );
        assert!(report.clean());
    }

    #[test]
    fn budget_exhaustion_reports_not_drained() {
        // One slot is never enough to drain anything.
        let scope = Scope::small();
        let mut report = CheckReport::default();
        check_scenario(
            scope.stations,
            0,
            &scope.scenario(0),
            1,
            CollisionMode::Destructive,
            &mut report,
        );
        assert!(matches!(
            report.findings[0].violation,
            Violation::NotDrained { .. }
        ));
    }

    #[test]
    fn causality_bound_is_arrival_plus_wire_bits() {
        // Pin: the bound is routed through MediumConfig::wire_bits — the
        // same l'(m) = l(m) + overhead the engine charges the channel —
        // not an inline re-derivation that could drift.
        let medium = MediumConfig::ethernet();
        let m = Message {
            id: MessageId(0),
            source: ddcr_sim::SourceId(0),
            class: ddcr_sim::ClassId(0),
            bits: 2_000,
            arrival: Ticks(700),
            deadline: Ticks(400_000),
        };
        assert_eq!(
            causality_bound(&medium, &m),
            Ticks(700 + medium.wire_bits(2_000))
        );
        assert_eq!(causality_bound(&medium, &m), Ticks(700 + 2_000 + 26 * 8));
    }

    #[test]
    fn arbitrated_survivors_count_as_deliveries() {
        // Two simultaneous arrivals at distinct sources collide under
        // arbitration; the survivor's frame goes through. If the checker
        // dropped survivor deliveries it would report these scenarios
        // undrained (the winning source dequeues on the survival).
        let scope = Scope {
            stations: 2,
            messages: 2,
            arrival_choices: vec![0],
            deadline_choices: vec![400_000],
            bits_choices: vec![2_000],
        };
        let report = check_scope_with_mode(&scope, 3_000, CollisionMode::Arbitrating);
        assert!(report.clean(), "violations: {:?}", report.findings);
    }

    #[test]
    fn adversarial_plans_are_seeded_and_always_crash_once() {
        let a = adversarial_plan(42, 17, 2);
        let b = adversarial_plan(42, 17, 2);
        assert_eq!(a, b);
        let c = adversarial_plan(43, 17, 2);
        assert_ne!(a, c);
        let crashes: Vec<_> = a
            .events()
            .iter()
            .filter(|e| matches!(e.kind, FaultKind::Crash { .. }))
            .collect();
        assert_eq!(crashes.len(), 1);
    }

    #[test]
    fn small_scope_is_safe_under_adversarial_faults() {
        let scope = Scope::small();
        let report = check_scope_with_faults(&scope, 3_000, CollisionMode::Destructive, 42);
        assert_eq!(report.scenarios, scope.scenario_count());
        assert!(
            report.clean(),
            "violations: {:?}",
            &report.findings[..report.findings.len().min(5)]
        );
        assert!(report.crashes > 0, "the adversarial plans never crashed");
        assert!(report.rejoins > 0, "no station ever resynchronized");
        assert!(
            report.max_heal_slots > 0 && report.max_heal_slots < 3_000,
            "heal time unbounded: {}",
            report.max_heal_slots
        );
    }

    #[test]
    fn membership_plans_are_seeded_and_deterministic() {
        let a = membership_plan(42, 17, 2);
        let b = membership_plan(42, 17, 2);
        assert_eq!(a, b);
        assert_ne!(a, membership_plan(43, 17, 2));
        // Always exactly one leave followed by one rejoin of that station.
        assert_eq!(a.len(), 2);
        let events = a.events();
        assert!(matches!(events[0].change, MembershipChange::Leave { .. }));
        assert!(matches!(events[1].change, MembershipChange::Join { .. }));
        assert_eq!(events[0].change.station(), events[1].change.station());
        assert!(events[0].slot < events[1].slot);
    }

    #[test]
    fn small_scope_is_safe_under_membership_churn_and_faults() {
        let scope = Scope::small();
        let report = check_scope_with_membership(&scope, 3_000, CollisionMode::Destructive, 42);
        assert_eq!(report.scenarios, scope.scenario_count());
        assert!(
            report.clean(),
            "violations: {:?}",
            &report.findings[..report.findings.len().min(5)]
        );
        assert!(report.leaves > 0, "no station ever left");
        assert!(report.joins > 0, "no station ever rejoined the fabric");
        assert!(report.crashes > 0, "the fault plans never crashed");
        assert!(report.rejoins > 0, "no station ever resynchronized");
        assert!(
            report.deadline_checked > 0,
            "the deadline-miss check never applied"
        );
    }

    #[test]
    fn membership_checker_holds_under_arbitration_too() {
        let scope = Scope::small();
        let report = check_scope_with_membership(&scope, 3_000, CollisionMode::Arbitrating, 7);
        assert!(
            report.clean(),
            "violations: {:?}",
            &report.findings[..report.findings.len().min(5)]
        );
    }

    #[test]
    fn empty_membership_plan_reduces_to_the_fault_checker() {
        // With MembershipPlan::none() the membership-aware loop must reach
        // the same verdict as the fault-aware loop on every scenario.
        let scope = Scope::small();
        let mut with_membership = MembershipCheckReport::default();
        let mut faults_only = FaultCheckReport::default();
        for (index, scenario) in scope.scenarios().enumerate() {
            with_membership.scenarios += 1;
            faults_only.scenarios += 1;
            let plan = adversarial_plan(42, index, scope.stations);
            check_scenario_with_membership(
                scope.stations,
                index,
                &scenario,
                3_000,
                CollisionMode::Destructive,
                &plan,
                &MembershipPlan::none(),
                &mut with_membership,
            );
            check_scenario_with_faults(
                scope.stations,
                index,
                &scenario,
                3_000,
                CollisionMode::Destructive,
                &plan,
                &mut faults_only,
            );
        }
        assert_eq!(with_membership.findings, faults_only.findings);
        assert_eq!(with_membership.crashes, faults_only.crashes);
        assert_eq!(with_membership.rejoins, faults_only.rejoins);
        assert_eq!(with_membership.max_heal_slots, faults_only.max_heal_slots);
        assert_eq!(with_membership.joins, 0);
        assert_eq!(with_membership.leaves, 0);
    }

    #[test]
    fn initially_absent_station_loses_its_arrivals() {
        // A scenario whose messages all source from station 1 while
        // station 1 never joins: everything is lost, nothing delivered,
        // and the checker accounts for every message without findings.
        let scenario = vec![
            Message {
                id: MessageId(0),
                source: ddcr_sim::SourceId(1),
                class: ddcr_sim::ClassId(0),
                bits: 2_000,
                arrival: Ticks(0),
                deadline: Ticks(400_000),
            },
            Message {
                id: MessageId(1),
                source: ddcr_sim::SourceId(1),
                class: ddcr_sim::ClassId(0),
                bits: 2_000,
                arrival: Ticks(700),
                deadline: Ticks(400_000),
            },
        ];
        let membership = MembershipPlan::from_events(vec![1], Vec::new());
        let mut report = MembershipCheckReport::default();
        check_scenario_with_membership(
            2,
            0,
            &scenario,
            3_000,
            CollisionMode::Destructive,
            &FaultPlan::none(),
            &membership,
            &mut report,
        );
        assert!(report.clean(), "{:?}", report.findings);
        assert_eq!(report.deadline_checked, 0, "nothing should be delivered");
    }

    #[test]
    fn empty_fault_plan_matches_faultless_checker() {
        // Under FaultPlan::none() the fault-aware loop must reach the
        // same verdict as the plain checker on every scenario.
        let scope = Scope::small();
        let plan = FaultPlan::none();
        let mut fault_report = FaultCheckReport::default();
        for (index, scenario) in scope.scenarios().enumerate() {
            fault_report.scenarios += 1;
            check_scenario_with_faults(
                scope.stations,
                index,
                &scenario,
                3_000,
                CollisionMode::Destructive,
                &plan,
                &mut fault_report,
            );
        }
        assert!(fault_report.clean(), "{:?}", fault_report.findings);
        assert_eq!(fault_report.crashes, 0);
        assert_eq!(fault_report.attributable_timeouts, 0);
    }
}
