//! Dynamic membership and online admission control.
//!
//! The paper dimensions the `ν_i` static-tree indices offline for a fixed
//! station set (§3.2) and proves `B_DDCR` for that set (§4.3). A production
//! broadcast fabric churns: stations join, leave, and crash. This module
//! makes the static allocation a *live* object — [`Membership`] tracks
//! which stations are currently attached, re-dimensions the leaf partition
//! online as they come and go, and turns the feasibility conditions into an
//! admission predicate for new flows.
//!
//! ## Safety argument
//!
//! The governing invariant is: **no membership transition or admission ever
//! invalidates the `B_DDCR` bound of an already-admitted flow.**
//!
//! * **Join** grants a station leaves from the free pool. A join adds no
//!   traffic (the station has no admitted flows yet), and granting unowned
//!   leaves changes no other source's `ν_i`, so every existing class's
//!   `r(M)`, `u(M)`, `v(M)` — hence its bound — is untouched. At the
//!   protocol layer the joiner enters through the PR 3 resync handshake: it
//!   is receive-only until it observes an epoch stamped after its join, so
//!   the "reserved contention window" it acquires its indices through is
//!   provably silent.
//! * **Leave** reclaims the leaver's leaves and drops its flows. Removing
//!   classes from `MSG` only shrinks every survivor's interference `u(M)`,
//!   so surviving bounds only improve. (In the engine the reclamation lands
//!   at the next epoch boundary; analytically the pre-reclaim bound is the
//!   conservative one, so checking either side is sound.)
//! * **Admission** evaluates the *candidate* message set — every admitted
//!   flow plus the applicant — and admits the flow iff every class of it
//!   stays feasible, so an accepted applicant can never push an incumbent
//!   past its deadline.
//!
//! ## Incremental admission
//!
//! A request costs O(classes), not the O(classes²) of a fresh
//! [`feasibility::evaluate`], and produces the same bits:
//!
//! * `r(M)`, `u(M)` and the transmission term of `B_DDCR(s_i, M)` are
//!   integer sums with one term per (target, interferer) pair
//!   (`feasibility::pair_terms`). [`Membership`] keeps each admitted
//!   class's three sums (`feasibility::ClassSums`). An admission adds the applicant's
//!   terms to every incumbent and builds the applicant's own sums in the
//!   same pass; a leave subtracts the dropped classes' terms from every
//!   survivor; a join changes no sum (it grants only free leaves, and the
//!   joiner has no classes yet). Integer addition is exact and
//!   order-free, so the kept sums equal the full ones. Every step is
//!   checked: the terms are non-negative, so a running sum overflows
//!   exactly when the full sum does, and both paths refuse the same
//!   requests with [`DdcrError::InvalidConfig`].
//! * `feasibility::finish_class` then rebuilds each class's verdict from
//!   those integers exactly as the full evaluation does: `v(M)`, `S1` from
//!   the P2 closed form (`MultiTreeProblem::bound`), `S2` in closed form, and the
//!   bound. The report goes to the same decision rule, so a rejection
//!   cites the same binding class and dominant term.
//!
//! [`Membership::admit_multichannel`] keeps the full per-channel
//! evaluation (the channel assignment is rebalanced per request) and only
//! updates the kept sums when it admits. [`Membership::check_invariants`]
//! keeps the full evaluation too, and fails if the kept sums ever drift
//! from it.
//!
//! [`Membership::force_admit`] is the operator override that skips the
//! predicate; it is the one door through which the invariant can break, and
//! every use that actually breaks it is counted in
//! [`Membership::safety_violations`] so a serving process can refuse to
//! exit cleanly (the `ddcr serve` contract).

use crate::config::DdcrConfig;
use crate::error::DdcrError;
use crate::feasibility::{self, ClassFeasibility, ClassSums, FeasibilityReport};
use crate::indices::StaticAllocation;
pub use ddcr_sim::MembershipChange;
use ddcr_sim::{ClassId, MediumConfig, SourceId, Ticks};
use ddcr_traffic::{DensityBound, MessageClass, MessageSet};

/// A flow admission request: one message class a station asks to add.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowRequest {
    /// The requesting station (must be a present member).
    pub source: SourceId,
    /// Human-readable flow label.
    pub name: String,
    /// Data-Link PDU bit length `l`.
    pub bits: u64,
    /// Relative hard deadline `d`.
    pub deadline: Ticks,
    /// Density numerator `a`: arrivals per window.
    pub arrivals: u64,
    /// Density window `w`.
    pub window: Ticks,
}

/// The outcome of evaluating one [`FlowRequest`] against the live bound.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AdmissionDecision {
    /// Every class of the candidate set stays feasible; the flow is in.
    Admitted {
        /// The id assigned to the admitted class.
        class: ClassId,
        /// The applicant's own `B_DDCR` bound, ticks.
        bound: f64,
        /// The smallest slack across the whole candidate set, ticks.
        slack: f64,
    },
    /// Admitting the flow would break a deadline; the flow is refused.
    Rejected {
        /// The binding (most violated) class of the candidate set — either
        /// the applicant itself or an incumbent the applicant would push
        /// past its deadline. Carries the full `B_DDCR` decomposition, so
        /// the refusal can cite the violated term
        /// ([`ClassFeasibility::dominant_term`]).
        binding: ClassFeasibility,
    },
}

/// What a membership transition did to the leaf partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TransitionReceipt {
    /// The station that joined or left.
    pub station: SourceId,
    /// Leaves granted (join) or reclaimed (leave), ascending.
    pub leaves: Vec<u64>,
    /// Admitted flows dropped by a leave (empty on join).
    pub dropped_flows: Vec<ClassId>,
}

/// Live membership state: the attached-station set, the online leaf
/// partition, and the admitted flow set the admission predicate runs over.
#[derive(Debug, Clone)]
pub struct Membership {
    config: DdcrConfig,
    medium: MediumConfig,
    allocation: StaticAllocation,
    present: Vec<bool>,
    admitted: Vec<MessageClass>,
    /// `sums[k]`: the §4.3 sums of `admitted[k]` over the admitted set.
    sums: Vec<ClassSums>,
    /// Leaves granted to each joiner (clamped to what the free pool holds).
    join_nu: u64,
    next_class: u32,
    violations: u64,
}

impl Membership {
    /// An empty fabric of `z` attachment points: nobody present, every
    /// static leaf free, no flows admitted. Each joiner is granted up to
    /// `join_nu` leaves from the free pool (at least one).
    ///
    /// # Errors
    ///
    /// Returns [`DdcrError::InvalidConfig`] for `z = 0`, `join_nu = 0`, or
    /// a configuration whose static tree cannot seat `z` sources.
    pub fn new(
        config: DdcrConfig,
        medium: MediumConfig,
        z: u32,
        join_nu: u64,
    ) -> Result<Self, DdcrError> {
        if z == 0 {
            return Err(DdcrError::InvalidConfig(
                "membership needs at least one attachment point".into(),
            ));
        }
        if join_nu == 0 {
            return Err(DdcrError::InvalidConfig(
                "join_nu must be at least 1: a member without static \
                 indices can never transmit"
                    .into(),
            ));
        }
        if config.static_tree.leaves() < u64::from(z) {
            return Err(DdcrError::InvalidConfig(format!(
                "static tree has {} leaves, fewer than {z} attachment points",
                config.static_tree.leaves()
            )));
        }
        Ok(Membership {
            allocation: StaticAllocation::detached(config.static_tree, z),
            config,
            medium,
            present: vec![false; z as usize],
            admitted: Vec::new(),
            sums: Vec::new(),
            join_nu,
            next_class: 0,
            violations: 0,
        })
    }

    /// The live leaf partition.
    pub fn allocation(&self) -> &StaticAllocation {
        &self.allocation
    }

    /// The currently admitted flows.
    pub fn admitted(&self) -> &[MessageClass] {
        &self.admitted
    }

    /// Whether `station` is currently a member.
    pub fn is_present(&self, station: SourceId) -> bool {
        self.present
            .get(station.0 as usize)
            .copied()
            .unwrap_or(false)
    }

    /// Number of present members.
    pub fn present_count(&self) -> usize {
        self.present.iter().filter(|p| **p).count()
    }

    /// Times [`Membership::force_admit`] actually broke the feasible-set
    /// invariant. Non-zero means the analytic guarantee no longer covers
    /// the admitted set.
    pub fn safety_violations(&self) -> u64 {
        self.violations
    }

    /// Applies one membership transition.
    ///
    /// # Errors
    ///
    /// Returns [`DdcrError::InvalidConfig`] for an unknown station, a join
    /// of a present member, a leave of an absent one, or a join when the
    /// free pool is empty.
    pub fn apply(&mut self, change: MembershipChange) -> Result<TransitionReceipt, DdcrError> {
        match change {
            MembershipChange::Join { station } => self.join(SourceId(station)),
            MembershipChange::Leave { station } => self.leave(SourceId(station)),
        }
    }

    fn member_slot(&self, station: SourceId) -> Result<usize, DdcrError> {
        let idx = station.0 as usize;
        if idx >= self.present.len() {
            return Err(DdcrError::InvalidConfig(format!(
                "station {} outside the fabric's {} attachment points",
                station.0,
                self.present.len()
            )));
        }
        Ok(idx)
    }

    /// Admits `station` to the fabric, granting it the lowest free leaves
    /// (up to `join_nu` of them). Deterministic: the same join sequence
    /// always yields the same partition.
    pub fn join(&mut self, station: SourceId) -> Result<TransitionReceipt, DdcrError> {
        let idx = self.member_slot(station)?;
        if self.present[idx] {
            return Err(DdcrError::InvalidConfig(format!(
                "station {} is already a member",
                station.0
            )));
        }
        let mut free = self.allocation.free_leaves();
        if free.is_empty() {
            return Err(DdcrError::InvalidConfig(format!(
                "no free static leaves to seat station {}",
                station.0
            )));
        }
        free.truncate(self.join_nu as usize);
        self.allocation.grant(station, free.clone())?;
        self.present[idx] = true;
        Ok(TransitionReceipt {
            station,
            leaves: free,
            dropped_flows: Vec::new(),
        })
    }

    /// Removes `station` from the fabric: its leaves return to the free
    /// pool and its admitted flows are dropped (both only *improve* every
    /// survivor's bound; see the module-level safety argument).
    pub fn leave(&mut self, station: SourceId) -> Result<TransitionReceipt, DdcrError> {
        let idx = self.member_slot(station)?;
        if !self.present[idx] {
            return Err(DdcrError::InvalidConfig(format!(
                "station {} is not a member",
                station.0
            )));
        }
        // Every survivor loses the dropped classes' terms: O(classes ×
        // dropped), computed before any state changes.
        let dropped: Vec<&MessageClass> = self
            .admitted
            .iter()
            .filter(|c| c.source == station)
            .collect();
        let mut sums = Vec::with_capacity(self.sums.len() - dropped.len());
        for (class, kept) in self.admitted.iter().zip(&self.sums) {
            if class.source != station {
                let mut kept = *kept;
                for gone in &dropped {
                    kept = kept.remove_pair(class, gone, &self.medium)?;
                }
                sums.push(kept);
            }
        }
        let dropped_flows = dropped.iter().map(|c| c.id).collect();
        let leaves = self.allocation.reclaim(station)?;
        self.admitted.retain(|c| c.source != station);
        self.sums = sums;
        self.present[idx] = false;
        Ok(TransitionReceipt {
            station,
            leaves,
            dropped_flows,
        })
    }

    fn build_class(&mut self, flow: &FlowRequest) -> Result<MessageClass, DdcrError> {
        let idx = self.member_slot(flow.source)?;
        if !self.present[idx] {
            return Err(DdcrError::InvalidConfig(format!(
                "station {} is not a member; join before requesting flows",
                flow.source.0
            )));
        }
        let density = DensityBound::new(flow.arrivals, flow.window)
            .map_err(|e| DdcrError::InvalidConfig(format!("flow '{}': {e}", flow.name)))?;
        if flow.bits == 0 {
            return Err(DdcrError::InvalidConfig(format!(
                "flow '{}': zero-bit messages are not schedulable",
                flow.name
            )));
        }
        if self.next_class == u32::MAX {
            return Err(DdcrError::InvalidConfig("flow id space exhausted".into()));
        }
        Ok(MessageClass {
            id: ClassId(self.next_class),
            name: flow.name.clone(),
            source: flow.source,
            bits: flow.bits,
            deadline: flow.deadline,
            density,
        })
    }

    fn finish(&self, class: &MessageClass, sums: ClassSums) -> Result<ClassFeasibility, DdcrError> {
        feasibility::finish_class(class, sums, &self.config, &self.allocation, &self.medium)
    }

    /// Evaluates the candidate set (admitted flows + applicant, last)
    /// from the kept sums without mutating anything: the report
    /// [`feasibility::evaluate`] gives for that set, and the sums to keep
    /// if the applicant goes in. Errors come in class order, as there.
    fn evaluate_candidate(
        &self,
        candidate: &MessageClass,
    ) -> Result<(FeasibilityReport, Vec<ClassSums>), DdcrError> {
        feasibility::check_shape(self.present.len() as u32, &self.config, &self.allocation)?;
        let n = self.admitted.len() + 1;
        let (mut per_class, mut next) = (Vec::with_capacity(n), Vec::with_capacity(n));
        // The applicant's own sums may only fail once its turn comes.
        let mut own = Ok(ClassSums::default());
        for (class, kept) in self.admitted.iter().zip(&self.sums) {
            let sums = kept.add_pair(class, candidate, &self.medium)?;
            per_class.push(self.finish(class, sums)?);
            next.push(sums);
            own = own.and_then(|own: ClassSums| own.add_pair(candidate, class, &self.medium));
        }
        let own = own?.add_pair(candidate, candidate, &self.medium)?;
        per_class.push(self.finish(candidate, own)?);
        next.push(own);
        Ok((FeasibilityReport { per_class }, next))
    }

    fn push_admitted(&mut self, candidate: MessageClass, sums: Vec<ClassSums>) {
        self.admitted.push(candidate);
        self.sums = sums;
        self.next_class += 1;
    }

    fn decide(candidate: &MessageClass, report: &FeasibilityReport) -> AdmissionDecision {
        // An infeasible report is never empty (the candidate itself is in
        // the set), so the binding class always exists on this branch.
        if !report.feasible() {
            if let Some(binding) = report.tightest() {
                return AdmissionDecision::Rejected {
                    binding: binding.clone(),
                };
            }
        }
        let own = report
            .per_class
            .iter()
            .find(|c| c.class == candidate.id)
            .map(|c| c.bound)
            .unwrap_or(0.0);
        let slack = report
            .tightest()
            .map(ClassFeasibility::slack)
            .unwrap_or(0.0);
        AdmissionDecision::Admitted {
            class: candidate.id,
            bound: own,
            slack,
        }
    }

    /// Evaluates a flow request against the live `B_DDCR` predicate and
    /// admits it iff every class of the candidate set stays feasible.
    ///
    /// # Errors
    ///
    /// Returns [`DdcrError::InvalidConfig`] for malformed requests (absent
    /// station, zero-bit flow, degenerate density) — a *rejection* is not
    /// an error but an [`AdmissionDecision::Rejected`].
    pub fn admit(&mut self, flow: &FlowRequest) -> Result<AdmissionDecision, DdcrError> {
        let candidate = self.build_class(flow)?;
        let (report, sums) = self.evaluate_candidate(&candidate)?;
        let decision = Self::decide(&candidate, &report);
        if matches!(decision, AdmissionDecision::Admitted { .. }) {
            self.push_admitted(candidate, sums);
        }
        Ok(decision)
    }

    /// Admits a flow *regardless* of the predicate — the operator override.
    ///
    /// The returned decision is what [`Membership::admit`] would have said;
    /// when it says `Rejected`, the flow is admitted anyway and the breach
    /// is counted in [`Membership::safety_violations`].
    ///
    /// # Errors
    ///
    /// Malformed requests still fail with [`DdcrError::InvalidConfig`];
    /// the override skips the feasibility predicate, not input validation.
    pub fn force_admit(&mut self, flow: &FlowRequest) -> Result<AdmissionDecision, DdcrError> {
        let candidate = self.build_class(flow)?;
        let (report, sums) = self.evaluate_candidate(&candidate)?;
        let decision = Self::decide(&candidate, &report);
        if matches!(decision, AdmissionDecision::Rejected { .. }) {
            self.violations += 1;
        }
        self.push_admitted(candidate, sums);
        Ok(decision)
    }

    /// Evaluates a flow request against the *multichannel* predicate: the
    /// candidate set is sharded over `channels` parallel media with
    /// [`multibus::balance_by_load`] and admitted iff every channel's
    /// projected set stays feasible (§3.1: "many such media can be used in
    /// parallel"). Less conservative than [`Membership::admit`] — a flow
    /// infeasible on one shared medium may fit once interference is split —
    /// while still sound per channel. Also returns the per-channel ξ
    /// budgets ([`multibus::channel_budgets`]) for operator reporting.
    ///
    /// This path runs the full per-channel evaluation. An admitted flow
    /// also goes into the kept single-medium sums, so a flow whose sums
    /// leave `u64` on the one medium is refused here too.
    ///
    /// # Errors
    ///
    /// Same contract as [`Membership::admit`].
    ///
    /// [`multibus::balance_by_load`]: crate::multibus::balance_by_load
    /// [`multibus::channel_budgets`]: crate::multibus::channel_budgets
    pub fn admit_multichannel(
        &mut self,
        flow: &FlowRequest,
        channels: usize,
    ) -> Result<(AdmissionDecision, Vec<crate::multibus::ChannelXiBudget>), DdcrError> {
        let candidate = self.build_class(flow)?;
        let mut classes = self.admitted.clone();
        classes.push(candidate.clone());
        let set = MessageSet::new(self.present.len() as u32, classes)
            .map_err(|e| DdcrError::InvalidConfig(e.to_string()))?;
        let assignment = crate::multibus::balance_by_load(&set, channels);
        let reports = crate::multibus::evaluate(
            &set,
            &assignment,
            &self.config,
            &self.allocation,
            &self.medium,
        )?;
        let budgets = crate::multibus::channel_budgets(
            &set,
            &assignment,
            &self.config,
            &self.allocation,
            &self.medium,
        )?;
        let binding = reports
            .iter()
            .filter(|r| !r.feasible())
            .filter_map(FeasibilityReport::tightest)
            .min_by(|a, b| a.slack().total_cmp(&b.slack()))
            .cloned();
        let decision = match binding {
            Some(binding) => AdmissionDecision::Rejected { binding },
            None => {
                let own = reports
                    .iter()
                    .flat_map(|r| r.per_class.iter())
                    .find(|c| c.class == candidate.id)
                    .map(|c| c.bound)
                    .unwrap_or(0.0);
                let slack = reports
                    .iter()
                    .filter_map(FeasibilityReport::tightest)
                    .map(ClassFeasibility::slack)
                    .min_by(f64::total_cmp)
                    .unwrap_or(0.0);
                AdmissionDecision::Admitted {
                    class: candidate.id,
                    bound: own,
                    slack,
                }
            }
        };
        if matches!(decision, AdmissionDecision::Admitted { .. }) {
            let (_, sums) = self.evaluate_candidate(&candidate)?;
            self.push_admitted(candidate, sums);
        }
        Ok((decision, budgets))
    }

    /// The admitted flows as a message set (what the engine schedules).
    ///
    /// # Errors
    ///
    /// Returns [`DdcrError::InvalidConfig`] if the admitted set is not a
    /// valid message set (cannot happen through the public API).
    pub fn message_set(&self) -> Result<MessageSet, DdcrError> {
        MessageSet::new(self.present.len() as u32, self.admitted.clone())
            .map_err(|e| DdcrError::InvalidConfig(e.to_string()))
    }

    /// Re-evaluates the whole admitted set against the current partition
    /// with [`feasibility::evaluate`]: O(classes²).
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures ([`DdcrError::InvalidConfig`]).
    pub fn evaluate(&self) -> Result<FeasibilityReport, DdcrError> {
        let set = self.message_set()?;
        feasibility::evaluate(&set, &self.config, &self.allocation, &self.medium)
    }

    /// The admitted set's report rebuilt from the kept sums: O(classes),
    /// and equal to [`Membership::evaluate`].
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures ([`DdcrError::InvalidConfig`]).
    pub fn report(&self) -> Result<FeasibilityReport, DdcrError> {
        feasibility::check_shape(self.present.len() as u32, &self.config, &self.allocation)?;
        let per_class = self
            .admitted
            .iter()
            .zip(&self.sums)
            .map(|(class, sums)| self.finish(class, *sums))
            .collect::<Result<_, _>>()?;
        Ok(FeasibilityReport { per_class })
    }

    /// Checks the membership invariants: every admitted flow's source is a
    /// present member with at least one leaf, the kept sums agree with a
    /// full [`feasibility::evaluate`], and — unless an operator override
    /// already broke it — the admitted set is feasible.
    ///
    /// # Errors
    ///
    /// Returns [`DdcrError::InvalidConfig`] naming the first breach.
    pub fn check_invariants(&self) -> Result<(), DdcrError> {
        for class in &self.admitted {
            let idx = class.source.0 as usize;
            if !self.present.get(idx).copied().unwrap_or(false) {
                return Err(DdcrError::InvalidConfig(format!(
                    "admitted flow {} belongs to absent station {}",
                    class.id.0, class.source.0
                )));
            }
            if self.allocation.nu(class.source) == 0 {
                return Err(DdcrError::InvalidConfig(format!(
                    "member {} has admitted flows but no static leaves",
                    class.source.0
                )));
            }
        }
        if !self.admitted.is_empty() {
            let report = self.evaluate()?;
            if self.report()? != report {
                return Err(DdcrError::InvalidConfig(
                    "kept B_DDCR sums drifted from the full evaluation".into(),
                ));
            }
            if self.violations == 0 && !report.feasible() {
                return Err(DdcrError::InvalidConfig(
                    "admitted set became infeasible without an operator \
                     override — admission invariant broken"
                        .into(),
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric(z: u32) -> Membership {
        let config = DdcrConfig::for_sources(z, Ticks(100_000)).unwrap();
        Membership::new(config, MediumConfig::ethernet(), z, 1).unwrap()
    }

    fn roomy_flow(source: u32, name: &str) -> FlowRequest {
        FlowRequest {
            source: SourceId(source),
            name: name.into(),
            bits: 8_000,
            deadline: Ticks(50_000_000),
            arrivals: 1,
            window: Ticks(10_000_000),
        }
    }

    #[test]
    fn join_then_admit_then_leave_round_trip() {
        let mut m = fabric(4);
        let r = m.join(SourceId(0)).unwrap();
        assert_eq!(r.leaves.len(), 1);
        assert!(m.is_present(SourceId(0)));
        let d = m.admit(&roomy_flow(0, "telemetry")).unwrap();
        assert!(matches!(d, AdmissionDecision::Admitted { .. }), "{d:?}");
        assert_eq!(m.admitted().len(), 1);
        m.check_invariants().unwrap();
        let r = m.leave(SourceId(0)).unwrap();
        assert_eq!(r.dropped_flows.len(), 1);
        assert!(m.admitted().is_empty());
        assert_eq!(m.allocation().nu(SourceId(0)), 0);
        m.check_invariants().unwrap();
    }

    #[test]
    fn join_reuses_reclaimed_leaves_deterministically() {
        let mut m = fabric(3);
        let first = m.join(SourceId(0)).unwrap().leaves;
        m.leave(SourceId(0)).unwrap();
        let second = m.join(SourceId(1)).unwrap().leaves;
        assert_eq!(first, second, "lowest free leaves must be reused");
    }

    #[test]
    fn overload_is_rejected_citing_the_binding_class() {
        let mut m = fabric(2);
        m.join(SourceId(0)).unwrap();
        // An absurdly dense flow that cannot meet its own deadline.
        let hog = FlowRequest {
            source: SourceId(0),
            name: "hog".into(),
            bits: 8_000,
            deadline: Ticks(500_000),
            arrivals: 1_000,
            window: Ticks(100_000),
        };
        match m.admit(&hog).unwrap() {
            AdmissionDecision::Rejected { binding } => {
                assert!(binding.slack() < 0.0);
                assert!(!binding.dominant_term().is_empty());
            }
            other => panic!("expected rejection, got {other:?}"),
        }
        assert!(m.admitted().is_empty(), "rejected flow must not be kept");
        assert_eq!(m.safety_violations(), 0);
    }

    #[test]
    fn rejection_protects_incumbent_flows() {
        let mut m = fabric(2);
        m.join(SourceId(0)).unwrap();
        m.join(SourceId(1)).unwrap();
        assert!(matches!(
            m.admit(&roomy_flow(0, "incumbent")).unwrap(),
            AdmissionDecision::Admitted { .. }
        ));
        let hog = FlowRequest {
            source: SourceId(1),
            name: "hog".into(),
            bits: 1_000_000,
            deadline: Ticks(500_000_000),
            arrivals: 200,
            window: Ticks(300_000),
        };
        // Whatever the verdict, the incumbent must stay feasible afterwards.
        let _ = m.admit(&hog).unwrap();
        m.check_invariants().unwrap();
    }

    #[test]
    fn force_admit_counts_the_breach() {
        let mut m = fabric(2);
        m.join(SourceId(0)).unwrap();
        let hog = FlowRequest {
            source: SourceId(0),
            name: "hog".into(),
            bits: 8_000,
            deadline: Ticks(500_000),
            arrivals: 1_000,
            window: Ticks(100_000),
        };
        let d = m.force_admit(&hog).unwrap();
        assert!(matches!(d, AdmissionDecision::Rejected { .. }));
        assert_eq!(m.admitted().len(), 1, "forced flow is admitted anyway");
        assert_eq!(m.safety_violations(), 1);
    }

    #[test]
    fn multichannel_admission_is_no_stricter_than_single_medium() {
        let mut single = fabric(2);
        let mut multi = fabric(2);
        for m in [&mut single, &mut multi] {
            m.join(SourceId(0)).unwrap();
        }
        // A flow at the edge: dense enough to stress one medium.
        let flow = FlowRequest {
            source: SourceId(0),
            name: "edge".into(),
            bits: 8_000,
            deadline: Ticks(5_000_000),
            arrivals: 4,
            window: Ticks(1_000_000),
        };
        let on_one = single.admit(&flow).unwrap();
        let (on_four, budgets) = multi.admit_multichannel(&flow, 4).unwrap();
        assert_eq!(budgets.len(), 4);
        // Sharding only splits interference: anything a single medium
        // admits, four channels must admit too.
        if matches!(on_one, AdmissionDecision::Admitted { .. }) {
            assert!(matches!(on_four, AdmissionDecision::Admitted { .. }));
        }
        multi.check_invariants().unwrap();
    }

    #[test]
    fn malformed_requests_get_typed_errors() {
        let mut m = fabric(2);
        // Absent station.
        assert!(m.admit(&roomy_flow(0, "early")).is_err());
        m.join(SourceId(0)).unwrap();
        // Unknown station.
        assert!(m.join(SourceId(9)).is_err());
        // Double join / absent leave.
        assert!(m.join(SourceId(0)).is_err());
        assert!(m.leave(SourceId(1)).is_err());
        // Zero-bit flow and zero-window density.
        let mut bad = roomy_flow(0, "empty");
        bad.bits = 0;
        assert!(m.admit(&bad).is_err());
        let mut bad = roomy_flow(0, "degenerate");
        bad.window = Ticks(0);
        assert!(m.admit(&bad).is_err());
        // Nothing was admitted along the way.
        assert!(m.admitted().is_empty());
    }

    #[test]
    fn degenerate_fabric_shapes_are_refused() {
        let config = DdcrConfig::for_sources(4, Ticks(100_000)).unwrap();
        assert!(Membership::new(config, MediumConfig::ethernet(), 0, 1).is_err());
        assert!(Membership::new(config, MediumConfig::ethernet(), 4, 0).is_err());
    }

    #[test]
    fn free_pool_exhaustion_is_an_error_not_a_panic() {
        let config = DdcrConfig::for_sources(2, Ticks(100_000)).unwrap();
        let q = config.static_tree.leaves();
        let mut m = Membership::new(config, MediumConfig::ethernet(), 2, q).unwrap();
        // First joiner takes the whole pool.
        assert_eq!(m.join(SourceId(0)).unwrap().leaves.len(), q as usize);
        let err = m.join(SourceId(1)).unwrap_err();
        assert!(matches!(err, DdcrError::InvalidConfig(_)), "{err}");
    }
}
