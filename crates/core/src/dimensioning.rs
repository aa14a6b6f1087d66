//! Automated dimensioning: searching the CSMA/DDCR parameter space for a
//! provably feasible configuration.
//!
//! The paper (§2.2): *"FCs are an essential tool for an end user or a
//! technology provider who has to assign numerical values to message
//! lengths, to upper bounds of message arrival densities and to message
//! deadlines. By computing the FCs, it is possible to tell whether or not
//! any quantified instantiation of the HRTDM problem is feasible with our
//! solution."* This module is that tool: given an HRTDM instance and a
//! medium, it sweeps the protocol's free parameters — time tree shape
//! (branching `m`, leaf count `F`), deadline class width `c`, static tree
//! shape `q` and index allocation strategy — evaluates the feasibility
//! conditions for every candidate, and returns the best provable
//! configuration (maximum minimum slack), plus capacity-frontier searches
//! (largest provable source count or load).

use crate::config::DdcrConfig;
use crate::error::DdcrError;
use crate::feasibility::{self, FeasibilityReport};
use crate::indices::StaticAllocation;
use ddcr_sim::{MediumConfig, Ticks};
use ddcr_traffic::MessageSet;
use ddcr_tree::TreeShape;

/// Static index allocation strategies the search considers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocationStrategy {
    /// One leaf per source (`ν_i = 1`): the smallest trees, the largest
    /// `v(M)`.
    OnePerSource,
    /// All `q` leaves split round-robin (`ν_i ≈ q/z`): fewer static
    /// searches per backlog at the price of longer ones.
    RoundRobin,
}

impl AllocationStrategy {
    fn build(self, tree: TreeShape, z: u32) -> Result<StaticAllocation, DdcrError> {
        match self {
            AllocationStrategy::OnePerSource => StaticAllocation::one_per_source(tree, z),
            AllocationStrategy::RoundRobin => StaticAllocation::round_robin(tree, z),
        }
    }
}

/// One evaluated candidate configuration.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The protocol configuration.
    pub config: DdcrConfig,
    /// The static index allocation.
    pub allocation: StaticAllocation,
    /// Strategy that produced the allocation.
    pub strategy: AllocationStrategy,
    /// Full feasibility report.
    pub report: FeasibilityReport,
}

impl Candidate {
    /// Minimum slack across classes (negative when infeasible).
    pub fn min_slack(&self) -> f64 {
        self.report
            .tightest()
            .map(|t| t.slack())
            .unwrap_or(f64::INFINITY)
    }

    /// Whether every class is provably schedulable.
    pub fn feasible(&self) -> bool {
        self.report.feasible()
    }
}

/// The search space swept by [`dimension`].
#[derive(Debug, Clone)]
pub struct SearchSpace {
    /// Candidate time tree shapes.
    pub time_trees: Vec<TreeShape>,
    /// Candidate static tree branching degrees (the leaf count is the
    /// smallest power ≥ `z`, and one step larger).
    pub static_branchings: Vec<u64>,
    /// Candidate class widths as divisors of the largest deadline
    /// (`c = d_max / divisor`).
    pub width_divisors: Vec<u64>,
    /// Allocation strategies.
    pub strategies: Vec<AllocationStrategy>,
}

impl Default for SearchSpace {
    fn default() -> Self {
        SearchSpace {
            time_trees: [(2u64, 6u32), (4, 3), (8, 2)]
                .iter()
                .map(|&(m, n)| TreeShape::new(m, n).expect("static shapes"))
                .collect(),
            static_branchings: vec![2, 4],
            width_divisors: vec![16, 64, 256],
            strategies: vec![
                AllocationStrategy::OnePerSource,
                AllocationStrategy::RoundRobin,
            ],
        }
    }
}

/// Sweeps the search space and returns every evaluated candidate, sorted
/// by decreasing minimum slack (best first). The head of the returned
/// vector, if [`Candidate::feasible`], is the recommended dimensioning.
///
/// # Errors
///
/// Returns [`DdcrError`] only on structural failures (an empty message
/// set); individual infeasible candidates are returned, not errors.
///
/// # Examples
///
/// ```
/// use ddcr_core::dimensioning;
/// use ddcr_sim::MediumConfig;
/// use ddcr_traffic::scenario;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let set = scenario::air_traffic_control(4)?;
/// let candidates = dimensioning::dimension(
///     &set, &MediumConfig::gigabit_ethernet(), &Default::default())?;
/// assert!(candidates[0].feasible());
/// # Ok(())
/// # }
/// ```
pub fn dimension(
    set: &MessageSet,
    medium: &MediumConfig,
    space: &SearchSpace,
) -> Result<Vec<Candidate>, DdcrError> {
    let z = set.sources();
    let d_max = set
        .classes()
        .iter()
        .map(|c| c.deadline.as_u64())
        .max()
        .filter(|_| z > 0)
        .ok_or_else(|| DdcrError::InvalidConfig("cannot dimension an empty message set".into()))?;
    let mut candidates = Vec::new();
    for &time_tree in &space.time_trees {
        for &mq in &space.static_branchings {
            for static_tree in static_shapes(mq, z) {
                for &div in &space.width_divisors {
                    let c = Ticks((d_max / div).max(medium.slot_ticks));
                    for &strategy in &space.strategies {
                        let config = DdcrConfig {
                            time_tree,
                            static_tree,
                            class_width: c,
                            alpha: c,
                            theta_numerator: 0,
                            bursting: None,
                        };
                        let Ok(allocation) = strategy.build(static_tree, z) else {
                            continue;
                        };
                        let Ok(report) = feasibility::evaluate(set, &config, &allocation, medium)
                        else {
                            continue;
                        };
                        candidates.push(Candidate {
                            config,
                            allocation,
                            strategy,
                            report,
                        });
                    }
                }
            }
        }
    }
    rank_by_slack(&mut candidates);
    Ok(candidates)
}

/// Sorts `candidates` by decreasing minimum slack, stably, with a NaN
/// slack (of either sign) ranked last instead of aborting the sort. Finite
/// and infinite slacks keep the `partial_cmp` order, so `-0.0` and `0.0`
/// still tie and keep their search order.
fn rank_by_slack(candidates: &mut [Candidate]) {
    candidates.sort_by(|a, b| {
        let (a, b) = (a.min_slack(), b.min_slack());
        a.is_nan()
            .cmp(&b.is_nan())
            .then_with(|| b.partial_cmp(&a).unwrap_or(std::cmp::Ordering::Equal))
    });
}

/// The smallest `m`-ary shape with at least `z` leaves, and the next one up
/// (a larger `q` can pay off when `ν_i > 1` helps more than longer
/// searches hurt).
fn static_shapes(m: u64, z: u32) -> Vec<TreeShape> {
    let mut shapes = Vec::new();
    let mut n = 1u32;
    while let Ok(shape) = TreeShape::new(m, n) {
        if shape.leaves() >= u64::from(z) {
            shapes.push(shape);
            if let Ok(bigger) = TreeShape::new(m, n + 1) {
                shapes.push(bigger);
            }
            break;
        }
        n += 1;
    }
    shapes
}

/// Binary-searches the largest uniform load (fraction of channel capacity)
/// for which some candidate in the space is provably feasible, by scaling
/// the set's arrival rates.
///
/// # Errors
///
/// Propagates structural failures from [`dimension`] and rate scaling.
pub fn max_provable_load(
    set: &MessageSet,
    medium: &MediumConfig,
    space: &SearchSpace,
    tolerance: f64,
) -> Result<f64, DdcrError> {
    let base = set.offered_load();
    let feasible_at = |factor: f64| -> Result<bool, DdcrError> {
        let scaled = set
            .scaled_rate(factor)
            .map_err(|e| DdcrError::InvalidConfig(e.to_string()))?;
        Ok(dimension(&scaled, medium, space)?
            .first()
            .is_some_and(Candidate::feasible))
    };
    if !feasible_at(f64::MIN_POSITIVE.max(0.01))? {
        return Ok(0.0);
    }
    let (mut lo, mut hi) = (0.01f64, 1.0f64 / base);
    if feasible_at(hi)? {
        return Ok(hi * base);
    }
    while (hi - lo) * base > tolerance {
        let mid = 0.5 * (lo + hi);
        if feasible_at(mid)? {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(lo * base)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddcr_traffic::scenario;

    #[test]
    fn finds_a_feasible_configuration_for_atc() {
        let set = scenario::air_traffic_control(4).unwrap();
        let medium = MediumConfig::gigabit_ethernet();
        let candidates = dimension(&set, &medium, &SearchSpace::default()).unwrap();
        assert!(!candidates.is_empty());
        assert!(candidates[0].feasible(), "best candidate must be feasible");
        // Sorted by decreasing slack.
        for pair in candidates.windows(2) {
            assert!(pair[0].min_slack() >= pair[1].min_slack());
        }
    }

    #[test]
    fn infeasible_instances_yield_no_feasible_candidate() {
        // 95 % load with deadlines a hair above the frame time: hopeless.
        let set = scenario::uniform(8, 8_000, Ticks(20_000), 0.95).unwrap();
        let medium = MediumConfig::ethernet();
        let candidates = dimension(&set, &medium, &SearchSpace::default()).unwrap();
        assert!(candidates.iter().all(|c| !c.feasible()));
    }

    #[test]
    fn round_robin_tends_to_win_on_bursty_sources() {
        let set = scenario::stock_exchange(4).unwrap();
        let medium = MediumConfig::gigabit_ethernet();
        let candidates = dimension(&set, &medium, &SearchSpace::default()).unwrap();
        let best = &candidates[0];
        // Bursts of 10 at one source: ν_i > 1 must help, so the best
        // candidate should not be OnePerSource-with-minimal-q.
        assert!(
            best.allocation.nu(ddcr_sim::SourceId(0)) >= 1,
            "sanity: {best:?}"
        );
        let one = candidates
            .iter()
            .find(|c| c.strategy == AllocationStrategy::OnePerSource)
            .unwrap();
        assert!(best.min_slack() >= one.min_slack());
    }

    #[test]
    fn max_provable_load_is_positive_and_below_capacity() {
        let set = scenario::uniform(4, 8_000, Ticks(10_000_000), 0.2).unwrap();
        let medium = MediumConfig::ethernet();
        let max_load = max_provable_load(&set, &medium, &SearchSpace::default(), 0.02).unwrap();
        assert!(
            max_load > 0.2,
            "should prove more than the base 20 %: {max_load}"
        );
        assert!(max_load < 1.0);
    }

    #[test]
    fn rejects_empty_sets() {
        let set = ddcr_traffic::MessageSet::new(0, vec![]).unwrap();
        assert!(dimension(&set, &MediumConfig::ethernet(), &SearchSpace::default()).is_err());
    }

    #[test]
    fn rejects_a_set_without_classes() {
        // Sources but no classes: there is no largest deadline to size
        // the class width from.
        let set = ddcr_traffic::MessageSet::new(4, vec![]).unwrap();
        assert!(matches!(
            dimension(&set, &MediumConfig::ethernet(), &SearchSpace::default()),
            Err(DdcrError::InvalidConfig(_))
        ));
    }

    #[test]
    fn a_nan_slack_candidate_ranks_last() {
        let set = scenario::air_traffic_control(4).unwrap();
        let medium = MediumConfig::gigabit_ethernet();
        let ranked = dimension(&set, &medium, &SearchSpace::default()).unwrap();
        assert!(ranked.len() >= 3);
        let slacks = |cs: &[Candidate]| cs.iter().map(Candidate::min_slack).collect::<Vec<_>>();
        // Poison the best and the second candidates' bounds: a NaN of each
        // sign, both of which must sink below every finite slack.
        let mut poisoned = ranked.clone();
        for (k, nan) in [(0, f64::NAN), (1, -f64::NAN)] {
            for class in &mut poisoned[k].report.per_class {
                class.bound = nan;
            }
            assert!(poisoned[k].min_slack().is_nan());
        }
        poisoned.reverse();
        rank_by_slack(&mut poisoned);
        let n = poisoned.len();
        assert!(poisoned[n - 2..].iter().all(|c| c.min_slack().is_nan()));
        // The finite candidates keep the order they had (the reversal of
        // tied slacks aside, which a stable sort cannot undo).
        assert_eq!(slacks(&poisoned[..n - 2]), slacks(&ranked[2..]));
    }

    #[test]
    fn static_shapes_cover_z() {
        let shapes = static_shapes(4, 5);
        assert_eq!(shapes[0].leaves(), 16);
        assert_eq!(shapes[1].leaves(), 64);
    }
}
