//! The m-ary tree search automaton `m-ts` (§3.2, "Principles of m-ary tree
//! search").
//!
//! `m-ts` is the deterministic depth-first search both TTs and STs run.
//! Every station keeps a **replica** of this automaton and advances it with
//! the channel feedback of each slot — silence, one successful
//! transmission, or a collision. Because every station hears the same
//! feedback, every replica walks the same intervals in lockstep; a
//! station's only private decision is whether its own index lies in the
//! interval currently probed.
//!
//! The search maintains a stack of leaf intervals to examine:
//!
//! * **empty** or **success** ⇒ the probed interval is done, move on;
//! * **collision** on an interval wider than one leaf ⇒ split it into its
//!   `m` children, leftmost first;
//! * **collision on a single leaf** ⇒ more than one message shares the
//!   index; the caller must run a tie-break (a static tree search, for the
//!   time tree) before resuming.

use ddcr_tree::TreeShape;

/// Channel feedback for one probe, as seen by the search automaton.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotOutcome {
    /// Nobody transmitted in the probed interval.
    Empty,
    /// Exactly one station transmitted (or an arbitrated collision's
    /// survivor went through): the interval is resolved.
    Success,
    /// Two or more stations transmitted and no frame survived.
    Collision,
}

/// What the automaton reports after consuming one probe's feedback.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MtsEvent {
    /// The search continues with a new current interval.
    Continue,
    /// A collision happened on a single leaf — the caller must tie-break
    /// (TTs invokes STs here) and then resume.
    LeafCollision {
        /// The collided leaf.
        leaf: u64,
    },
    /// The search is complete: every leaf interval has been resolved.
    Done,
}

/// A half-open interval of leaves `[lo, lo + width)` under probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interval {
    /// First leaf.
    pub lo: u64,
    /// Number of leaves.
    pub width: u64,
}

impl Interval {
    /// Whether a leaf index falls inside this interval.
    pub fn contains(&self, leaf: u64) -> bool {
        (self.lo..self.lo + self.width).contains(&leaf)
    }
}

/// A replica of the deterministic m-ary tree search.
///
/// Created with the root "already searched" (§3.2: the collision that
/// triggered the resolution *is* the root probe), i.e. the stack initially
/// holds the root's `m` children, leftmost on top. For a single-level tree
/// the children are the leaves themselves.
///
/// # Examples
///
/// ```
/// use ddcr_core::mts::{MtsEvent, MtsSearch, SlotOutcome};
/// use ddcr_tree::TreeShape;
///
/// # fn main() -> Result<(), ddcr_tree::TreeError> {
/// let mut search = MtsSearch::new(TreeShape::new(2, 2)?); // 4 leaves
/// assert_eq!(search.current().unwrap().lo, 0);
/// // Left half empty, right half resolves with one success then empty:
/// assert_eq!(search.feed(SlotOutcome::Empty), MtsEvent::Continue);
/// assert_eq!(search.feed(SlotOutcome::Success), MtsEvent::Done);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MtsSearch {
    shape: TreeShape,
    /// Intervals still to probe; the top of the stack (last element) is
    /// current.
    stack: Vec<Interval>,
    /// Highest leaf index known fully searched (−1 encoded as `None`).
    highest_searched: Option<u64>,
    /// Collision slots consumed so far (for ξ cross-checks).
    collision_slots: u64,
    /// Empty slots consumed so far.
    empty_slots: u64,
}

impl MtsSearch {
    /// Starts a search over the given tree, root already searched.
    pub fn new(shape: TreeShape) -> Self {
        let m = shape.branching();
        let child = shape.leaves() / m;
        let mut stack = Vec::with_capacity(m as usize);
        for i in (0..m).rev() {
            stack.push(Interval {
                lo: i * child,
                width: child,
            });
        }
        MtsSearch {
            shape,
            stack,
            highest_searched: None,
            collision_slots: 0,
            empty_slots: 0,
        }
    }

    /// The tree shape being searched.
    pub fn shape(&self) -> TreeShape {
        self.shape
    }

    /// The interval probed in the current slot, or `None` if the search is
    /// done.
    pub fn current(&self) -> Option<Interval> {
        self.stack.last().copied()
    }

    /// Whether every interval has been resolved.
    pub fn is_done(&self) -> bool {
        self.stack.is_empty()
    }

    /// Whether the search is still in its initial state, no probe fed yet.
    /// Every `feed` either marks an interval searched (empty / success /
    /// leaf collision) or counts a collision slot (split), so these two
    /// fields pin the fresh state exactly.
    pub fn is_unprobed(&self) -> bool {
        self.highest_searched.is_none() && self.collision_slots == 0
    }

    /// `f*`: the highest leaf index fully searched so far, or `None` when
    /// no leaf has been passed yet (the paper's `f* = −1`).
    pub fn highest_searched(&self) -> Option<u64> {
        self.highest_searched
    }

    /// The next leaf the search will cover, `f* + 1` (0 before any pop).
    /// Always equals the low edge of the current interval while the search
    /// runs.
    pub fn frontier(&self) -> u64 {
        self.highest_searched.map_or(0, |h| h + 1)
    }

    /// Collision slots consumed so far.
    pub fn collision_slots(&self) -> u64 {
        self.collision_slots
    }

    /// Empty slots consumed so far.
    pub fn empty_slots(&self) -> u64 {
        self.empty_slots
    }

    /// Total search slots so far (the quantity `ξ` bounds).
    pub fn search_slots(&self) -> u64 {
        self.collision_slots + self.empty_slots
    }

    /// Consumes one probe's feedback and advances the replica.
    ///
    /// # Panics
    ///
    /// Panics if called after the search is done — replicas must stop
    /// feeding a finished search (protocol bug, not a runtime condition).
    pub fn feed(&mut self, outcome: SlotOutcome) -> MtsEvent {
        let current = self
            .stack
            .pop()
            .expect("feed called on a finished m-ts search");
        match outcome {
            SlotOutcome::Empty => {
                self.empty_slots += 1;
                self.mark_searched(current);
                self.next_event()
            }
            SlotOutcome::Success => {
                self.mark_searched(current);
                self.next_event()
            }
            SlotOutcome::Collision => {
                self.collision_slots += 1;
                if current.width == 1 {
                    // Leaf collision: the caller tie-breaks; the leaf then
                    // counts as searched.
                    self.mark_searched(current);
                    MtsEvent::LeafCollision { leaf: current.lo }
                } else {
                    let m = self.shape.branching();
                    let child = current.width / m;
                    for i in (0..m).rev() {
                        self.stack.push(Interval {
                            lo: current.lo + i * child,
                            width: child,
                        });
                    }
                    MtsEvent::Continue
                }
            }
        }
    }

    fn mark_searched(&mut self, interval: Interval) {
        let hi = interval.lo + interval.width - 1;
        self.highest_searched = Some(self.highest_searched.map_or(hi, |h| h.max(hi)));
    }

    fn next_event(&self) -> MtsEvent {
        if self.is_done() {
            MtsEvent::Done
        } else {
            MtsEvent::Continue
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddcr_tree::{closed_form, search as ground_truth, TreeShape};

    fn shape(m: u64, n: u32) -> TreeShape {
        TreeShape::new(m, n).unwrap()
    }

    /// Drives the automaton against a known set of active leaves, the way
    /// the channel would, and returns (slots, transmissions in order).
    fn drive(search: &mut MtsSearch, active: &[u64]) -> (u64, Vec<u64>) {
        let mut transmitted = Vec::new();
        let mut remaining: Vec<u64> = active.to_vec();
        while let Some(interval) = search.current() {
            let inside: Vec<u64> = remaining
                .iter()
                .copied()
                .filter(|&l| interval.contains(l))
                .collect();
            let outcome = match inside.len() {
                0 => SlotOutcome::Empty,
                1 => {
                    transmitted.push(inside[0]);
                    remaining.retain(|&l| l != inside[0]);
                    SlotOutcome::Success
                }
                _ => SlotOutcome::Collision,
            };
            match search.feed(outcome) {
                MtsEvent::LeafCollision { .. } => {
                    panic!("distinct leaves cannot collide on a single leaf")
                }
                MtsEvent::Continue | MtsEvent::Done => {}
            }
        }
        (search.search_slots(), transmitted)
    }

    #[test]
    fn starts_with_root_children_left_to_right() {
        let s = MtsSearch::new(shape(4, 3));
        assert_eq!(s.current(), Some(Interval { lo: 0, width: 16 }));
        assert_eq!(s.frontier(), 0);
        assert!(!s.is_done());
    }

    #[test]
    fn matches_ground_truth_search_costs() {
        // Against the analytically validated recursive search of ddcr-tree:
        // slot count must be exactly the same minus the root collision
        // (the automaton starts past the root).
        for (m, n) in [(2u64, 3u32), (3, 2), (4, 2)] {
            let sh = shape(m, n);
            let t = sh.leaves();
            let subsets: Vec<Vec<u64>> = vec![
                vec![],
                vec![0],
                vec![t - 1],
                vec![0, t - 1],
                vec![0, 1],
                (0..t).collect(),
                (0..t).step_by(2).collect(),
            ];
            for active in subsets {
                let mut search = MtsSearch::new(sh);
                let (slots, transmitted) = drive(&mut search, &active);
                let truth = ground_truth::search_active_leaves(sh, &active).unwrap();
                // Ground truth counts the root probe; the automaton starts
                // after it. Root probe cost: collision if ≥2 active (1),
                // success if 1 (0), empty if 0 (1) — but with ≤1 active the
                // ground-truth search never descends, while the automaton
                // always probes the m children.
                if active.len() >= 2 {
                    assert_eq!(slots + 1, truth.search_slots(), "m={m} n={n} {active:?}");
                } else {
                    // Automaton probes m children: for k=0, m empty slots;
                    // for k=1, m−1 empties + 1 free success.
                    let expect = if active.is_empty() { m } else { m - 1 };
                    assert_eq!(slots, expect, "m={m} n={n} {active:?}");
                }
                let mut sorted = active.clone();
                sorted.sort_unstable();
                assert_eq!(transmitted, sorted);
            }
        }
    }

    #[test]
    fn never_exceeds_xi_bound() {
        let sh = shape(2, 4);
        for seed in 0..64u64 {
            let active: Vec<u64> = (0..16).filter(|i| (seed >> (i % 6)) & 1 == 1).collect();
            let mut search = MtsSearch::new(sh);
            let (slots, _) = drive(&mut search, &active);
            let k = active.len() as u64;
            let bound = closed_form::xi_closed(sh, k).unwrap();
            // +1 because ξ includes the root collision the automaton skips;
            // the automaton can also pay m empties on an empty tree.
            assert!(
                slots <= bound + sh.branching(),
                "seed {seed}: {slots} > {bound}"
            );
        }
    }

    #[test]
    fn leaf_collision_reported_and_search_resumable() {
        // Two messages on the same leaf (index 2 of an 4-leaf binary tree).
        let mut s = MtsSearch::new(shape(2, 2));
        // Probe [0,2): suppose both colliders are at leaf 2 → empty.
        assert_eq!(s.feed(SlotOutcome::Empty), MtsEvent::Continue);
        // Probe [2,4): collision.
        assert_eq!(s.feed(SlotOutcome::Collision), MtsEvent::Continue);
        // Probe [2,3): both messages share leaf 2 → leaf collision.
        assert_eq!(
            s.feed(SlotOutcome::Collision),
            MtsEvent::LeafCollision { leaf: 2 }
        );
        assert_eq!(s.frontier(), 3);
        // Tie-break happens outside; the search then resumes at [3,4).
        assert_eq!(s.current(), Some(Interval { lo: 3, width: 1 }));
        assert_eq!(s.feed(SlotOutcome::Empty), MtsEvent::Done);
        assert!(s.is_done());
    }

    #[test]
    fn frontier_equals_current_lo() {
        // Invariant: while running, f* + 1 == current interval's lo.
        let sh = shape(2, 3);
        let active = vec![1u64, 3, 6];
        let mut s = MtsSearch::new(sh);
        let mut remaining = active.clone();
        while let Some(interval) = s.current() {
            assert_eq!(s.frontier(), interval.lo);
            let inside: Vec<u64> = remaining
                .iter()
                .copied()
                .filter(|&l| interval.contains(l))
                .collect();
            let outcome = match inside.len() {
                0 => SlotOutcome::Empty,
                1 => {
                    remaining.retain(|&l| l != inside[0]);
                    SlotOutcome::Success
                }
                _ => SlotOutcome::Collision,
            };
            s.feed(outcome);
        }
        assert_eq!(s.highest_searched(), Some(7));
    }

    #[test]
    #[should_panic(expected = "finished m-ts search")]
    fn feeding_done_search_panics() {
        let mut s = MtsSearch::new(shape(2, 1));
        s.feed(SlotOutcome::Empty);
        s.feed(SlotOutcome::Empty);
        assert!(s.is_done());
        s.feed(SlotOutcome::Empty);
    }

    #[test]
    fn single_level_tree_probes_each_leaf() {
        let mut s = MtsSearch::new(shape(4, 1));
        for i in 0..4 {
            assert_eq!(s.current(), Some(Interval { lo: i, width: 1 }));
            s.feed(SlotOutcome::Empty);
        }
        assert!(s.is_done());
        assert_eq!(s.empty_slots(), 4);
    }
}
