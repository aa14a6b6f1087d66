//! Feasibility conditions for HRTDM under CSMA/DDCR (§4.3).
//!
//! For every message class `M` of source `s_i` the paper derives, assuming
//! peak-load conditions (every class arriving at its full density `a/w`):
//!
//! ```text
//! r(M) = Σ_{m ∈ MSG_i} ⌈d(M)/w(m)⌉·a(m) − 1          (local rank bound)
//! u(M) = Σ_{m ∈ MSG}  ⌈(d(M)+d(m)−l'(M)/ψ)/w(m)⌉·a(m) (global interference)
//! v(M) = 1 + ⌊r(M)/ν_i⌋                               (static trees needed)
//!
//! B_DDCR(s_i, M) = Σ_{m ∈ MSG} ⌈…⌉·a(m)·l'(m)/ψ       (transmission time)
//!                + x·( v·ξ̃^q_{u/v}                    (S1: static searches)
//!                    + ⌈v/2⌉·ξ^F_2 )                   (S2: time tree slots)
//! ```
//!
//! and the instance is feasible iff `B_DDCR(s_i, M) ≤ d(M)` for every class.
//! The `S1` term applies the solution to problem P2 (Eq. 18–19); `S2` uses
//! Eq. (5) with the worst-case assignment of two active leaves per time
//! tree. Throughput is normalised to `ψ = 1 bit/tick`.

use crate::config::DdcrConfig;
use crate::error::DdcrError;
use crate::indices::StaticAllocation;
use ddcr_sim::{ClassId, MediumConfig, SourceId, Ticks};
use ddcr_traffic::{MessageClass, MessageSet};
use ddcr_tree::{closed_form, multi::MultiTreeProblem};
use serde::{Deserialize, Serialize};

/// Feasibility verdict and worst-case latency bound for one message class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassFeasibility {
    /// The class `M`.
    pub class: ClassId,
    /// Its source `s_i`.
    pub source: SourceId,
    /// Rank bound `r(M)`.
    pub r: u64,
    /// Interference bound `u(M)`.
    pub u: u64,
    /// Static tree searches needed, `v(M)`.
    pub v: u64,
    /// Total transmission time of the `u(M)` interfering messages, ticks.
    pub transmission_ticks: u64,
    /// Worst-case search slots for the static-tree term `S1` (problem P2).
    pub s1_slots: f64,
    /// Worst-case search slots for the time-tree term `S2` (Eq. 5 based).
    pub s2_slots: f64,
    /// Worst-case search slots `S = S1 + S2`.
    pub search_slots: f64,
    /// The latency bound `B_DDCR(s_i, M)` in ticks.
    pub bound: f64,
    /// The class deadline `d(M)`.
    pub deadline: Ticks,
    /// Whether `B ≤ d(M)`.
    pub feasible: bool,
}

impl ClassFeasibility {
    /// Slack `d(M) − B` in ticks (negative when infeasible).
    pub fn slack(&self) -> f64 {
        self.deadline.as_u64() as f64 - self.bound
    }

    /// Fraction of the bound due to raw transmission time (as opposed to
    /// search overhead `x·S`) — the decomposition a designer tunes against:
    /// transmission-dominated bounds call for more bandwidth or shorter
    /// messages, search-dominated bounds for more static indices or a
    /// different branching degree.
    pub fn transmission_fraction(&self) -> f64 {
        if self.bound == 0.0 {
            0.0
        } else {
            self.transmission_ticks as f64 / self.bound
        }
    }

    /// Which `B_DDCR` term dominates the bound — the citation an admission
    /// rejection carries (§4.3 decomposition): the raw transmission time of
    /// the `u(M)` interferers, the `S1` static-search slots (problem P2), or
    /// the `S2` time-tree slots (Eq. 5).
    ///
    /// The per-term tick weights are recovered from the identity
    /// `bound = transmission + x·(S1 + S2)` without needing `x` itself.
    pub fn dominant_term(&self) -> &'static str {
        let search_ticks = (self.bound - self.transmission_ticks as f64).max(0.0);
        let (s1_ticks, s2_ticks) = if self.search_slots > 0.0 {
            (
                search_ticks * self.s1_slots / self.search_slots,
                search_ticks * self.s2_slots / self.search_slots,
            )
        } else {
            (0.0, 0.0)
        };
        if self.transmission_ticks as f64 >= s1_ticks.max(s2_ticks) {
            "transmission term sum(ceil(..)*a*l'/psi)"
        } else if s1_ticks >= s2_ticks {
            "S1 static-search term x*v*xi~^q_(u/v)"
        } else {
            "S2 time-tree term x*ceil(v/2)*xi^F_2"
        }
    }
}

/// Feasibility report for a whole HRTDM instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FeasibilityReport {
    /// Per-class verdicts, in message-set order.
    pub per_class: Vec<ClassFeasibility>,
}

impl FeasibilityReport {
    /// The instance is feasible iff every class is.
    pub fn feasible(&self) -> bool {
        self.per_class.iter().all(|c| c.feasible)
    }

    /// The class with the smallest slack (the binding constraint), if any.
    ///
    /// Uses [`f64::total_cmp`]: even a degenerate report carrying a
    /// non-finite bound (which [`evaluate`] itself refuses to produce)
    /// yields a deterministic answer instead of a panic — NaN slack orders
    /// above every finite slack, so it is never selected as binding while
    /// any finite class exists.
    pub fn tightest(&self) -> Option<&ClassFeasibility> {
        self.per_class
            .iter()
            .min_by(|a, b| a.slack().total_cmp(&b.slack()))
    }
}

/// Exact `⌈num/den⌉` for possibly-negative numerators, clamped at zero
/// (a non-positive window contributes no arrivals). The quotient of an
/// `i128` numerator always fits a `u128`; the caller narrows it.
///
/// # Errors
///
/// Returns [`DdcrError::InvalidConfig`] for a zero divisor (a degenerate
/// density window) rather than aborting on the integer division.
fn ceil_div_clamped(num: i128, den: u64) -> Result<u128, DdcrError> {
    if den == 0 {
        return Err(DdcrError::InvalidConfig(
            "class density window w must be positive".into(),
        ));
    }
    if num <= 0 {
        Ok(0)
    } else if let Ok(num) = u64::try_from(num) {
        // The common case, without a 128-bit division.
        Ok(u128::from(num.div_ceil(den)))
    } else {
        let den = den as i128;
        Ok(((num + den - 1) / den) as u128)
    }
}

/// Evaluates the feasibility conditions of §4.3 for every class of the set.
///
/// # Errors
///
/// Returns [`DdcrError::InvalidConfig`] on configuration/allocation
/// mismatch (e.g. fewer static leaves than sources) and
/// [`DdcrError::Infeasible`] when a bound cannot be evaluated.
///
/// # Examples
///
/// ```
/// use ddcr_core::{feasibility, DdcrConfig, StaticAllocation};
/// use ddcr_sim::{MediumConfig, Ticks};
/// use ddcr_traffic::scenario;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let set = scenario::air_traffic_control(4)?;
/// let config = DdcrConfig::for_sources(4, Ticks(12_500))?;
/// let allocation = StaticAllocation::one_per_source(config.static_tree, 4)?;
/// let report = feasibility::evaluate(
///     &set, &config, &allocation, &MediumConfig::gigabit_ethernet())?;
/// assert_eq!(report.per_class.len(), set.classes().len());
/// # Ok(())
/// # }
/// ```
pub fn evaluate(
    set: &MessageSet,
    config: &DdcrConfig,
    allocation: &StaticAllocation,
    medium: &MediumConfig,
) -> Result<FeasibilityReport, DdcrError> {
    check_shape(set.sources(), config, allocation)?;
    let mut per_class = Vec::with_capacity(set.classes().len());
    for target in set.classes() {
        let side = TargetSide::new(target, medium)?;
        let mut sums = ClassSums::default();
        for m in set.classes() {
            sums = side.add(sums, m, medium)?;
        }
        per_class.push(finish_class(target, sums, config, allocation, medium)?);
    }
    Ok(FeasibilityReport { per_class })
}

/// The configuration checks [`evaluate`] makes before any class: the
/// static tree seats `sources` and the allocation covers them.
///
/// # Errors
///
/// Returns [`DdcrError::InvalidConfig`] naming the mismatch.
pub(crate) fn check_shape(
    sources: u32,
    config: &DdcrConfig,
    allocation: &StaticAllocation,
) -> Result<(), DdcrError> {
    config.validate(sources)?;
    if allocation.sources() < sources {
        return Err(DdcrError::InvalidConfig(format!(
            "allocation covers {} sources, message set has {}",
            allocation.sources(),
            sources
        )));
    }
    Ok(())
}

/// The error for a `B_DDCR` integer step of `target` that leaves `u64`.
fn overflow(target: &MessageClass) -> DdcrError {
    DdcrError::InvalidConfig(format!(
        "B_DDCR for class {} overflows u64 (r, u, v or the transmission term)",
        target.id.0
    ))
}

/// The three integer sums of §4.3 for one target class `M`, `r(M)` before
/// its `− 1`: one term per interferer `m`, see [`pair_terms`].
///
/// Every term is non-negative, so the sums can be kept incrementally (add
/// a class's terms when it is admitted, subtract them when it leaves), and
/// a checked running sum overflows exactly when the full sum does, in any
/// order.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ClassSums {
    /// `Σ_{m ∈ MSG_i} ⌈d(M)/w(m)⌉·a(m)`.
    pub(crate) r: u64,
    /// `u(M)`.
    pub(crate) u: u64,
    /// The transmission term `Σ_{m ∈ MSG} ⌈…⌉·a(m)·l'(m)/ψ`, ticks.
    pub(crate) transmission_ticks: u64,
}

impl ClassSums {
    fn combine(self, terms: ClassSums, op: fn(u64, u64) -> Option<u64>) -> Option<ClassSums> {
        Some(ClassSums {
            r: op(self.r, terms.r)?,
            u: op(self.u, terms.u)?,
            transmission_ticks: op(self.transmission_ticks, terms.transmission_ticks)?,
        })
    }

    /// Adds the terms `interferer` contributes to `target`.
    ///
    /// # Errors
    ///
    /// Returns [`DdcrError::InvalidConfig`] when a term or a sum leaves
    /// `u64`.
    pub(crate) fn add_pair(
        self,
        target: &MessageClass,
        interferer: &MessageClass,
        medium: &MediumConfig,
    ) -> Result<ClassSums, DdcrError> {
        TargetSide::new(target, medium)?.add(self, interferer, medium)
    }

    /// Removes the terms `interferer` contributes to `target`: the inverse
    /// of [`ClassSums::add_pair`].
    ///
    /// # Errors
    ///
    /// Returns [`DdcrError::InvalidConfig`] when those terms were never
    /// added (a sum would go negative).
    pub(crate) fn remove_pair(
        self,
        target: &MessageClass,
        interferer: &MessageClass,
        medium: &MediumConfig,
    ) -> Result<ClassSums, DdcrError> {
        let terms = pair_terms(target, interferer, medium)?;
        self.combine(terms, u64::checked_sub).ok_or_else(|| {
            DdcrError::InvalidConfig(format!(
                "class {} never counted class {} as an interferer",
                target.id.0, interferer.id.0
            ))
        })
    }
}

/// The terms `interferer` contributes to the §4.3 sums of `target` (the
/// two may be the same class): its `r(M)` term when both share a source,
/// and its `u(M)` and transmission terms. Every step is checked.
///
/// # Errors
///
/// Returns [`DdcrError::InvalidConfig`] for a zero density window or when
/// a term leaves `u64`.
pub(crate) fn pair_terms(
    target: &MessageClass,
    interferer: &MessageClass,
    medium: &MediumConfig,
) -> Result<ClassSums, DdcrError> {
    TargetSide::new(target, medium)?.terms(interferer, medium)
}

/// What the terms of [`pair_terms`] read from the target `M`, read once
/// per target: [`evaluate`] walks every interferer of a target in one
/// inlined loop.
struct TargetSide<'a> {
    class: &'a MessageClass,
    /// `d(M)`.
    d_m: i128,
    /// `l'(M)/ψ` at ψ = 1.
    lp_m: i128,
}

impl<'a> TargetSide<'a> {
    fn new(class: &'a MessageClass, medium: &MediumConfig) -> Result<Self, DdcrError> {
        let lp_m = medium
            .checked_wire_bits(class.bits)
            .ok_or_else(|| overflow(class))?;
        Ok(TargetSide {
            class,
            d_m: i128::from(class.deadline.as_u64()),
            lp_m: i128::from(lp_m),
        })
    }

    #[inline(always)]
    fn terms(
        &self,
        interferer: &MessageClass,
        medium: &MediumConfig,
    ) -> Result<ClassSums, DdcrError> {
        let count = |window: i128| -> Result<u64, DdcrError> {
            let ceil = ceil_div_clamped(window, interferer.density.w.as_u64())?;
            u64::try_from(ceil)
                .ok()
                .and_then(|c| c.checked_mul(interferer.density.a))
                .ok_or_else(|| overflow(self.class))
        };
        // r(M): messages of MSG_i that can be serviced before M.
        let r = if interferer.source == self.class.source {
            count(self.d_m)?
        } else {
            0
        };
        // u(M) and the transmission-time term share the same count.
        let u = count(self.d_m + i128::from(interferer.deadline.as_u64()) - self.lp_m)?;
        let transmission_ticks = medium
            .checked_wire_bits(interferer.bits)
            .and_then(|lp| u.checked_mul(lp))
            .ok_or_else(|| overflow(self.class))?;
        Ok(ClassSums {
            r,
            u,
            transmission_ticks,
        })
    }

    #[inline(always)]
    fn add(
        &self,
        sums: ClassSums,
        interferer: &MessageClass,
        medium: &MediumConfig,
    ) -> Result<ClassSums, DdcrError> {
        sums.combine(self.terms(interferer, medium)?, u64::checked_add)
            .ok_or_else(|| overflow(self.class))
    }
}

/// Turns the sums of `target` into its verdict: `v(M)`, `S1` through the
/// memoized P2 bound, `S2` in closed form, and `B_DDCR(s_i, M)`.
///
/// # Errors
///
/// Returns [`DdcrError::InvalidConfig`] when the source owns no static
/// indices, when `v(M)` or the `q·v` / `2·v` products leave `u64`, or when
/// the bound is not finite.
pub(crate) fn finish_class(
    target: &MessageClass,
    sums: ClassSums,
    config: &DdcrConfig,
    allocation: &StaticAllocation,
    medium: &MediumConfig,
) -> Result<ClassFeasibility, DdcrError> {
    let ClassSums {
        r,
        u,
        transmission_ticks,
    } = sums;
    let r = r.saturating_sub(1);
    let nu = allocation.nu(target.source);
    if nu == 0 {
        // Reachable online: a leaving station's leaves are reclaimed, so a
        // partial allocation can carry sources with ν_i = 0. Admission must
        // refuse such flows with a typed error, not divide by zero below.
        return Err(DdcrError::InvalidConfig(format!(
            "source {} owns no static indices (detached or reclaimed)",
            target.source.0
        )));
    }
    let mut v = (r / nu).checked_add(1).ok_or_else(|| overflow(target))?;
    let q = config.static_tree.leaves();
    // The P2 bound needs u/v ≤ q; if the interference exceeds what v static
    // trees can carry, more searches will actually run — raising v keeps
    // the bound on the safe (conservative) side. A `q·v` past `u64` is
    // above every `u`.
    if q.checked_mul(v).is_some_and(|qv| u > qv) {
        v = u.div_ceil(q);
    }

    // S1: isolating u messages over v consecutive q-leaf static trees
    // (problem P2, Eq. 18–19), via the memoized multi-tree bound. ξ̃ needs
    // k ∈ [2, q]: u ≤ q·v holds after the v-raise above, and fewer than 2
    // per tree is dominated by the k = 2 cost, so lifting u to 2v yields
    // the same v·ξ̃_{clamp(u/v, 2, q)}^q value as the direct closed form.
    let s1 = if u == 0 {
        0.0
    } else {
        // `MultiTreeProblem::new` forms `2·v` and `q·v` itself.
        let two_v = v
            .checked_mul(2)
            .filter(|_| q.checked_mul(v).is_some())
            .ok_or_else(|| overflow(target))?;
        let problem =
            MultiTreeProblem::new(config.static_tree, u.max(two_v), v).map_err(DdcrError::Tree)?;
        problem.bound()
    };

    // S2: isolating v time-tree leaves over ⌈v/2⌉ consecutive time trees,
    // two active leaves per tree being the worst case (ξ^F_2, Eq. 5).
    let s2 = v.div_ceil(2) as f64 * closed_form::xi_two(config.time_tree) as f64;

    let search_slots = s1 + s2;
    let bound = transmission_ticks as f64 + medium.slot_ticks as f64 * search_slots;
    if !bound.is_finite() {
        // A degenerate instance (e.g. an astronomically dense class pushing
        // the P2 bound past f64 range) must surface as a typed error: a
        // non-finite bound would otherwise propagate NaN slack into every
        // downstream comparison.
        return Err(DdcrError::InvalidConfig(format!(
            "B_DDCR for class {} is not finite (transmission {transmission_ticks} ticks, \
             search {search_slots} slots)",
            target.id.0
        )));
    }
    Ok(ClassFeasibility {
        class: target.id,
        source: target.source,
        r,
        u,
        v,
        transmission_ticks,
        s1_slots: s1,
        s2_slots: s2,
        search_slots,
        bound,
        deadline: target.deadline,
        feasible: bound <= target.deadline.as_u64() as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddcr_traffic::{scenario, DensityBound};

    fn setup(z: u32, load: f64, deadline: u64) -> (MessageSet, DdcrConfig, StaticAllocation) {
        let set = scenario::uniform(z, 8_000, Ticks(deadline), load).unwrap();
        let config = DdcrConfig::for_sources(z, Ticks(deadline / 64)).unwrap();
        let allocation = StaticAllocation::one_per_source(config.static_tree, z).unwrap();
        (set, config, allocation)
    }

    #[test]
    fn light_load_long_deadline_is_feasible() {
        let (set, config, allocation) = setup(4, 0.05, 10_000_000);
        let report = evaluate(&set, &config, &allocation, &MediumConfig::ethernet()).unwrap();
        assert!(report.feasible(), "{:#?}", report.tightest());
    }

    #[test]
    fn saturating_load_tight_deadline_is_infeasible() {
        let (set, config, allocation) = setup(8, 0.95, 200_000);
        let report = evaluate(&set, &config, &allocation, &MediumConfig::ethernet()).unwrap();
        assert!(!report.feasible());
        assert!(report.tightest().unwrap().slack() < 0.0);
    }

    #[test]
    fn bound_grows_with_load() {
        let medium = MediumConfig::ethernet();
        let mut prev = 0.0;
        for load in [0.1, 0.3, 0.5, 0.7] {
            let (set, config, allocation) = setup(4, load, 5_000_000);
            let report = evaluate(&set, &config, &allocation, &medium).unwrap();
            let bound = report.per_class[0].bound;
            assert!(bound > prev, "bound not monotone at load {load}");
            prev = bound;
        }
    }

    #[test]
    fn r_and_u_match_hand_computation() {
        // One source, one class: a = 2, w = 1000, d = 3000, l = 100,
        // overhead 0, slot 10.
        let set = MessageSet::new(
            1,
            vec![ddcr_traffic::MessageClass {
                id: ClassId(0),
                name: "only".into(),
                source: SourceId(0),
                bits: 100,
                deadline: Ticks(3000),
                density: DensityBound::new(2, Ticks(1000)).unwrap(),
            }],
        )
        .unwrap();
        let config = DdcrConfig::for_sources(1, Ticks(100)).unwrap();
        let allocation = StaticAllocation::one_per_source(config.static_tree, 1).unwrap();
        let medium = MediumConfig {
            slot_ticks: 10,
            overhead_bits: 0,
            collision_mode: ddcr_sim::CollisionMode::Destructive,
        };
        let report = evaluate(&set, &config, &allocation, &medium).unwrap();
        let c = &report.per_class[0];
        // r = ⌈3000/1000⌉·2 − 1 = 5
        assert_eq!(c.r, 5);
        // u = ⌈(3000 + 3000 − 100)/1000⌉·2 = 12
        assert_eq!(c.u, 12);
        // ν = 1 ⇒ v = 1 + ⌊5/1⌋ = 6
        assert_eq!(c.v, 6);
        assert_eq!(c.transmission_ticks, 1200);
    }

    #[test]
    fn more_static_indices_reduce_v_and_bound() {
        let set = scenario::uniform(4, 8_000, Ticks(2_000_000), 0.5).unwrap();
        let config = DdcrConfig::for_sources(4, Ticks(31_250)).unwrap();
        let medium = MediumConfig::ethernet();
        let one = StaticAllocation::one_per_source(config.static_tree, 4).unwrap();
        let rr = StaticAllocation::round_robin(config.static_tree, 4).unwrap();
        let report_one = evaluate(&set, &config, &one, &medium).unwrap();
        let report_rr = evaluate(&set, &config, &rr, &medium).unwrap();
        assert!(report_rr.per_class[0].v <= report_one.per_class[0].v);
        assert!(report_rr.per_class[0].bound <= report_one.per_class[0].bound);
    }

    #[test]
    fn tightest_picks_minimum_slack() {
        let set = scenario::air_traffic_control(4).unwrap();
        let config = DdcrConfig::for_sources(4, Ticks(6_250)).unwrap();
        let allocation = StaticAllocation::one_per_source(config.static_tree, 4).unwrap();
        let report = evaluate(
            &set,
            &config,
            &allocation,
            &MediumConfig::gigabit_ethernet(),
        )
        .unwrap();
        let tightest = report.tightest().unwrap();
        for c in &report.per_class {
            assert!(tightest.slack() <= c.slack());
        }
    }

    #[test]
    fn mismatched_allocation_rejected() {
        let (set, config, _) = setup(4, 0.1, 1_000_000);
        let small = StaticAllocation::one_per_source(config.static_tree, 2).unwrap();
        assert!(evaluate(&set, &config, &small, &MediumConfig::ethernet()).is_err());
    }

    #[test]
    fn ceil_div_clamped_handles_negatives() {
        assert_eq!(ceil_div_clamped(-5, 10).unwrap(), 0);
        assert_eq!(ceil_div_clamped(0, 10).unwrap(), 0);
        assert_eq!(ceil_div_clamped(1, 10).unwrap(), 1);
        assert_eq!(ceil_div_clamped(10, 10).unwrap(), 1);
        assert_eq!(ceil_div_clamped(11, 10).unwrap(), 2);
    }

    #[test]
    fn ceil_div_clamped_rejects_zero_divisor() {
        // Regression: used to abort on integer division by zero; a
        // long-running admission service must get a typed error instead.
        assert!(matches!(
            ceil_div_clamped(5, 0),
            Err(DdcrError::InvalidConfig(_))
        ));
    }

    #[test]
    fn tightest_tolerates_nan_slack_without_panicking() {
        // Regression: `min_by(partial_cmp().expect("no NaN slack"))` used to
        // panic on a degenerate report. total_cmp keeps it deterministic and
        // never selects the NaN class while a finite one exists.
        let finite = ClassFeasibility {
            class: ClassId(0),
            source: SourceId(0),
            r: 0,
            u: 0,
            v: 1,
            transmission_ticks: 0,
            s1_slots: 0.0,
            s2_slots: 0.0,
            search_slots: 0.0,
            bound: 10.0,
            deadline: Ticks(100),
            feasible: true,
        };
        let degenerate = ClassFeasibility {
            class: ClassId(1),
            bound: f64::NAN,
            ..finite.clone()
        };
        let report = FeasibilityReport {
            per_class: vec![degenerate, finite.clone()],
        };
        assert_eq!(report.tightest().unwrap().class, finite.class);
    }

    fn wrap_class(bits: u64, deadline: u64, window: u64) -> MessageClass {
        MessageClass {
            id: ClassId(0),
            name: "wrap".into(),
            source: SourceId(0),
            bits,
            deadline: Ticks(deadline),
            density: DensityBound::new(1, Ticks(window)).unwrap(),
        }
    }

    #[test]
    fn overflowing_transmission_term_is_a_typed_error() {
        // l' = 2^63 on Ethernet and two arrivals in the window, so the
        // transmission term is 2^64 ticks. Unchecked, it wrapped to 0 in a
        // release build and the class looked feasible at 8704 ticks.
        let medium = MediumConfig::ethernet();
        let class = wrap_class((1 << 63) - medium.overhead_bits, 1 << 63, 1 << 62);
        let set = MessageSet::new(4, vec![class.clone()]).unwrap();
        let config = DdcrConfig::for_sources(4, Ticks(100_000)).unwrap();
        let allocation = StaticAllocation::one_per_source(config.static_tree, 4).unwrap();
        let err = evaluate(&set, &config, &allocation, &medium).unwrap_err();
        assert!(matches!(err, DdcrError::InvalidConfig(_)), "{err}");
        assert!(err.to_string().contains("overflows u64"), "{err}");
        assert_eq!(pair_terms(&class, &class, &medium).unwrap_err(), err);
        // A deadline of 3·2^61 leaves one arrival in the window: 2^63 fits.
        let fits = wrap_class((1 << 63) - medium.overhead_bits, 3 << 61, 1 << 62);
        let terms = pair_terms(&fits, &fits, &medium).unwrap();
        assert_eq!((terms.u, terms.transmission_ticks), (1, 1 << 63));
        // The l' add itself is checked too.
        let err = pair_terms(&wrap_class(u64::MAX, 1, 1), &wrap_class(1, 1, 1), &medium);
        assert!(matches!(err, Err(DdcrError::InvalidConfig(_))));
    }

    #[test]
    fn overflowing_v_products_are_typed_errors() {
        // r(M) = 2^62 with ν = 1 gives v = 2^62 + 1, so q·v leaves u64
        // once u(M) > 0 needs the P2 bound.
        let medium = MediumConfig::ethernet();
        let config = DdcrConfig::for_sources(4, Ticks(100_000)).unwrap();
        let allocation = StaticAllocation::one_per_source(config.static_tree, 4).unwrap();
        let class = wrap_class(8, 1 << 62, 1);
        let sums = ClassSums {
            r: (1 << 62) + 1,
            u: 1,
            transmission_ticks: 216,
        };
        let err = finish_class(&class, sums, &config, &allocation, &medium).unwrap_err();
        assert!(err.to_string().contains("overflows u64"), "{err}");
        // Without interference S1 vanishes and the same v is fine.
        let quiet = ClassSums { u: 0, ..sums };
        let c = finish_class(&class, quiet, &config, &allocation, &medium).unwrap();
        assert_eq!(c.v, (1 << 62) + 1);
    }

    #[test]
    fn sums_add_and_remove_pairwise() {
        let medium = MediumConfig::ethernet();
        let set = scenario::air_traffic_control(4).unwrap();
        let classes = set.classes();
        let target = &classes[0];
        let mut sums = ClassSums::default();
        for m in classes {
            sums = sums.add_pair(target, m, &medium).unwrap();
        }
        for m in classes.iter().rev() {
            sums = sums.remove_pair(target, m, &medium).unwrap();
        }
        assert_eq!(sums, ClassSums::default());
        // Removing terms that were never added is refused.
        assert!(sums.remove_pair(target, &classes[1], &medium).is_err());
    }

    #[test]
    fn reclaimed_source_gets_typed_error_not_division_by_zero() {
        let (set, config, mut allocation) = setup(4, 0.1, 1_000_000);
        allocation.reclaim(SourceId(0)).unwrap();
        let err = evaluate(&set, &config, &allocation, &MediumConfig::ethernet()).unwrap_err();
        assert!(matches!(err, DdcrError::InvalidConfig(_)), "{err}");
    }
}
