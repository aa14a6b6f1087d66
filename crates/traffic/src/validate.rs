//! Density-bound validation: does a trace actually respect `a/w`?

use crate::class::DensityBound;
use crate::error::TrafficError;
use ddcr_sim::{ClassId, Message, Ticks};
use std::collections::BTreeMap;

/// Checks that a sorted list of arrival instants never places more than
/// `bound.a` arrivals in any sliding window of `bound.w` ticks.
///
/// Windows are half-open `[s, s + w)`: arrivals exactly `w` apart are in
/// different windows, matching the adversary the feasibility conditions
/// assume. Runs in `O(n)` with two pointers.
///
/// # Errors
///
/// Returns [`TrafficError::DensityViolation`] describing the first
/// offending window. The reported `class` is `ClassId(u32::MAX)` since bare
/// instants carry no class; prefer [`check_schedule`] for full schedules.
///
/// # Panics
///
/// Panics if `times` is not sorted non-decreasing.
pub fn check_density(times: &[Ticks], bound: DensityBound) -> Result<(), TrafficError> {
    assert!(
        times.windows(2).all(|p| p[0] <= p[1]),
        "arrival instants must be sorted"
    );
    check_density_inner(times, bound, ClassId(u32::MAX))
}

fn check_density_inner(
    times: &[Ticks],
    bound: DensityBound,
    class: ClassId,
) -> Result<(), TrafficError> {
    let a = bound.a as usize;
    let mut lo = 0usize;
    for hi in 0..times.len() {
        // Shrink the window so it spans < w ticks.
        while times[hi] - times[lo] >= bound.w {
            lo += 1;
        }
        let in_window = hi - lo + 1;
        if in_window > a {
            return Err(TrafficError::DensityViolation {
                class,
                window_start: times[lo],
                observed: in_window as u64,
                allowed: bound.a,
            });
        }
    }
    Ok(())
}

/// Checks a complete schedule against the density bound of every class in
/// the message set.
///
/// # Errors
///
/// Returns the first per-class [`TrafficError::DensityViolation`], or
/// [`TrafficError::InvalidProcess`] if a message references a class absent
/// from the set.
pub fn check_schedule(set: &crate::MessageSet, schedule: &[Message]) -> Result<(), TrafficError> {
    let mut per_class: BTreeMap<ClassId, Vec<Ticks>> = BTreeMap::new();
    for msg in schedule {
        per_class.entry(msg.class).or_default().push(msg.arrival);
    }
    for (class, mut times) in per_class {
        let bound = set
            .class(class)
            .ok_or_else(|| {
                TrafficError::InvalidProcess(format!("message references unknown class {class}"))
            })?
            .density;
        times.sort_unstable();
        check_density_inner(&times, bound, class)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(a: u64, w: u64) -> DensityBound {
        DensityBound::new(a, Ticks(w)).unwrap()
    }

    #[test]
    fn empty_and_singleton_pass() {
        assert!(check_density(&[], bound(1, 100)).is_ok());
        assert!(check_density(&[Ticks(5)], bound(1, 100)).is_ok());
    }

    #[test]
    fn exact_window_spacing_passes() {
        // Arrivals exactly w apart are in different half-open windows.
        let times = [Ticks(0), Ticks(100), Ticks(200)];
        assert!(check_density(&times, bound(1, 100)).is_ok());
    }

    #[test]
    fn burst_at_cap_passes_over_cap_fails() {
        let ok = [Ticks(0), Ticks(0), Ticks(0)];
        assert!(check_density(&ok, bound(3, 100)).is_ok());
        let bad = [Ticks(0), Ticks(0), Ticks(0), Ticks(0)];
        let err = check_density(&bad, bound(3, 100)).unwrap_err();
        assert!(matches!(
            err,
            TrafficError::DensityViolation {
                observed: 4,
                allowed: 3,
                ..
            }
        ));
    }

    #[test]
    fn sliding_window_catches_straddling_burst() {
        // 2 allowed per 100; arrivals at 0, 60, 120: window [60,160) holds 2 — ok.
        assert!(check_density(&[Ticks(0), Ticks(60), Ticks(120)], bound(2, 100)).is_ok());
        // arrivals at 0, 60, 90: window [0,100) holds 3 — violation.
        assert!(check_density(&[Ticks(0), Ticks(60), Ticks(90)], bound(2, 100)).is_err());
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn unsorted_input_panics() {
        let _ = check_density(&[Ticks(5), Ticks(1)], bound(1, 10));
    }
}
