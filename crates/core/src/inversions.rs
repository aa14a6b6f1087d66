//! Deadline-inversion accounting — how far a schedule strays from EDF.
//!
//! The paper's design goal is to emulate centralized NP-EDF; its known
//! deviations are the non-preemptable channel, deadline equivalence
//! classes of width `c`, and the compressed-time mode ("θ(c) determines a
//! tradeoff between reducing potential channel idleness and potentially
//! increasing the number of deadline inversions"). This module measures
//! those deviations on delivery records: the number of delivered pairs in
//! anti-EDF order, counted in `O(n log n)` by merge-sort inversion
//! counting, plus magnitude statistics for judging *how bad* the
//! inversions are (a swap between deadlines 1 µs apart is benign; one
//! across 10 ms is not).

use ddcr_sim::{Delivery, Ticks};

/// Summary of the deadline inversions in a delivery sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InversionReport {
    /// Delivered pairs `(i, j)` with `i` before `j` but
    /// `DM(i) > DM(j)` — zero for a perfect EDF schedule.
    pub pairs: u64,
    /// Total pairs compared, `n·(n−1)/2`.
    pub total_pairs: u64,
    /// The largest deadline gap `DM(i) − DM(j)` over inverted pairs
    /// (how far from EDF the worst swap was).
    pub worst_gap: Ticks,
}

impl InversionReport {
    /// Fraction of pairs inverted (0 when fewer than two deliveries).
    pub fn ratio(&self) -> f64 {
        if self.total_pairs == 0 {
            0.0
        } else {
            self.pairs as f64 / self.total_pairs as f64
        }
    }

    /// Whether the sequence is a perfect EDF order.
    pub fn is_edf(&self) -> bool {
        self.pairs == 0
    }
}

/// Counts deadline inversions in delivery (channel) order.
///
/// # Examples
///
/// ```
/// use ddcr_core::inversions::count;
/// use ddcr_sim::{ClassId, Delivery, Message, MessageId, SourceId, Ticks};
///
/// let mk = |id, deadline, done| Delivery {
///     message: Message {
///         id: MessageId(id), source: SourceId(0), class: ClassId(0),
///         bits: 100, arrival: Ticks(0), deadline: Ticks(deadline),
///     },
///     completed_at: Ticks(done),
/// };
/// // Delivered 500 then 100: one inversion of gap 400.
/// let report = count(&[mk(0, 500, 10), mk(1, 100, 20)]);
/// assert_eq!(report.pairs, 1);
/// assert_eq!(report.worst_gap, Ticks(400));
/// assert!(!report.is_edf());
/// ```
pub fn count(deliveries: &[Delivery]) -> InversionReport {
    let n = deliveries.len() as u64;
    let total_pairs = n * n.saturating_sub(1) / 2;
    let mut dms: Vec<u64> = deliveries
        .iter()
        .map(|d| d.message.absolute_deadline().as_u64())
        .collect();
    // Worst gap needs the max prefix-DM exceeding each element.
    let mut worst_gap = 0u64;
    let mut running_max = 0u64;
    for &dm in &dms {
        if running_max > dm {
            worst_gap = worst_gap.max(running_max - dm);
        }
        running_max = running_max.max(dm);
    }
    let pairs = merge_count(&mut dms);
    InversionReport {
        pairs,
        total_pairs,
        worst_gap: Ticks(worst_gap),
    }
}

/// Classic merge-sort inversion count (`a[i] > a[j]` with `i < j`),
/// `O(n log n)`.
fn merge_count(a: &mut [u64]) -> u64 {
    let n = a.len();
    if n < 2 {
        return 0;
    }
    let mid = n / 2;
    let (left, right) = a.split_at_mut(mid);
    let mut inv = merge_count(left) + merge_count(right);
    let mut merged = Vec::with_capacity(n);
    let (mut i, mut j) = (0usize, 0usize);
    while i < left.len() && j < right.len() {
        if left[i] <= right[j] {
            merged.push(left[i]);
            i += 1;
        } else {
            inv += (left.len() - i) as u64;
            merged.push(right[j]);
            j += 1;
        }
    }
    merged.extend_from_slice(&left[i..]);
    merged.extend_from_slice(&right[j..]);
    a.copy_from_slice(&merged);
    inv
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddcr_sim::{ClassId, Message, MessageId, SourceId};

    fn mk(id: u64, deadline: u64) -> Delivery {
        Delivery {
            message: Message {
                id: MessageId(id),
                source: SourceId(0),
                class: ClassId(0),
                bits: 100,
                arrival: Ticks(0),
                deadline: Ticks(deadline),
            },
            completed_at: Ticks(id * 10 + 10),
        }
    }

    #[test]
    fn edf_order_has_no_inversions() {
        let d: Vec<Delivery> = [100, 200, 300, 400].iter().map(|&x| mk(x, x)).collect();
        let r = count(&d);
        assert!(r.is_edf());
        assert_eq!(r.total_pairs, 6);
        assert_eq!(r.ratio(), 0.0);
        assert_eq!(r.worst_gap, Ticks::ZERO);
    }

    #[test]
    fn reverse_order_inverts_every_pair() {
        let d: Vec<Delivery> = [400, 300, 200, 100].iter().map(|&x| mk(x, x)).collect();
        let r = count(&d);
        assert_eq!(r.pairs, 6);
        assert_eq!(r.ratio(), 1.0);
        assert_eq!(r.worst_gap, Ticks(300));
    }

    #[test]
    fn counts_match_quadratic_reference() {
        // Deterministic pseudo-random orders.
        let mut seed = 42u64;
        for len in [0usize, 1, 2, 7, 33, 100] {
            let mut dms = Vec::with_capacity(len);
            for _ in 0..len {
                seed = seed
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                dms.push((seed >> 33) % 1000 + 1);
            }
            let deliveries: Vec<Delivery> = dms
                .iter()
                .enumerate()
                .map(|(i, &d)| mk(i as u64, d))
                .collect();
            let mut reference = 0u64;
            for i in 0..len {
                for j in i + 1..len {
                    if dms[i] > dms[j] {
                        reference += 1;
                    }
                }
            }
            assert_eq!(count(&deliveries).pairs, reference, "len {len}");
        }
    }

    #[test]
    fn ties_are_not_inversions() {
        let d: Vec<Delivery> = [100, 100, 100].iter().map(|&x| mk(x, x)).collect();
        assert!(count(&d).is_edf());
    }

    #[test]
    fn empty_and_singleton() {
        assert!(count(&[]).is_edf());
        assert_eq!(count(&[]).total_pairs, 0);
        assert!(count(&[mk(0, 5)]).is_edf());
    }
}
