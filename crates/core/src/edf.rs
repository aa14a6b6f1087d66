//! The local algorithm LA: a per-source EDF queue (§3.2).
//!
//! Messages wait in `Q_i` ordered by absolute deadline
//! `DM(msg) = T(msg) + d(msg)`; the head is `msg*`. Ties break by arrival
//! time, then message id, then push order, which keeps every replica of
//! the protocol state machine deterministic.
//!
//! The backing store is a hand-rolled binary min-heap: `push`/`pop` are
//! O(log n) instead of the O(n) memmove a sorted deque pays per insert,
//! which matters once station queues deepen under burst traffic (the
//! `edf_queue` benchmark in `BENCH_engine.json` tracks the throughput).
//! The protocol's two structural needs survive the switch:
//!
//! * **`head` and `second` stay O(1).** The heap root is `msg*`, and the
//!   second-smallest element of a binary heap is always one of the root's
//!   two children — packet bursting reads both before releasing the
//!   channel.
//! * **FIFO tie-breaks stay exact.** A heap alone is unstable, so every
//!   entry carries a monotone sequence number appended to the ordering
//!   key; pushes with identical `(DM, arrival, id)` keys pop in push
//!   order, exactly as the stable binary insert behaved. The counter
//!   resets whenever the queue drains, so it cannot creep toward
//!   overflow over a long run.
//!
//! Replica comparability (queues are `PartialEq` in tests) is preserved
//! by comparing *sorted* content rather than raw heap layout: two queues
//! are equal iff they would pop the same messages in the same order.

use ddcr_sim::{Message, MessageId, Ticks};

/// Ordering key: earliest deadline first, then FIFO, then id.
type Key = (Ticks, Ticks, MessageId);

fn key(m: &Message) -> Key {
    (m.absolute_deadline(), m.arrival, m.id)
}

/// A queued message plus its FIFO tie-break sequence number.
#[derive(Debug, Clone, Copy)]
struct Entry {
    message: Message,
    seq: u64,
}

impl Entry {
    /// The full heap ordering key; `seq` last so equal protocol keys pop
    /// in push order.
    fn order(&self) -> (Ticks, Ticks, MessageId, u64) {
        let (dm, arrival, id) = key(&self.message);
        (dm, arrival, id, self.seq)
    }
}

/// A per-source EDF waiting queue (`Q_i` under LA).
///
/// # Examples
///
/// ```
/// use ddcr_core::EdfQueue;
/// use ddcr_sim::{ClassId, Message, MessageId, SourceId, Ticks};
///
/// let mut q = EdfQueue::new();
/// let mk = |id, deadline| Message {
///     id: MessageId(id), source: SourceId(0), class: ClassId(0),
///     bits: 100, arrival: Ticks(0), deadline: Ticks(deadline),
/// };
/// q.push(mk(0, 900));
/// q.push(mk(1, 100)); // tighter deadline jumps ahead
/// assert_eq!(q.head().unwrap().id, MessageId(1));
/// assert_eq!(q.second().unwrap().id, MessageId(0));
/// ```
#[derive(Debug, Default, Clone)]
pub struct EdfQueue {
    /// Binary min-heap on [`Entry::order`].
    heap: Vec<Entry>,
    /// Next sequence number to stamp on a push; resets when the queue
    /// drains so it never grows without bound.
    seq: u64,
}

impl EdfQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EdfQueue {
            heap: Vec::new(),
            seq: 0,
        }
    }

    /// Inserts a message; the EDF order is maintained automatically in
    /// O(log n). Pushes with identical `(DM, arrival, id)` keys keep FIFO
    /// order via the per-entry sequence number.
    pub fn push(&mut self, message: Message) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { message, seq });
        self.sift_up(self.heap.len() - 1);
    }

    /// The current `msg*` — the earliest-deadline message — or `None` when
    /// the queue is empty.
    pub fn head(&self) -> Option<&Message> {
        self.heap.first().map(|e| &e.message)
    }

    /// The message that would become `msg*` after the head transmits
    /// (used by packet bursting to decide channel retention).
    ///
    /// O(1): in a binary min-heap the second-smallest element is always a
    /// child of the root.
    pub fn second(&self) -> Option<&Message> {
        match (self.heap.get(1), self.heap.get(2)) {
            (Some(a), Some(b)) => {
                if a.order() <= b.order() {
                    Some(&a.message)
                } else {
                    Some(&b.message)
                }
            }
            (Some(a), None) => Some(&a.message),
            _ => None,
        }
    }

    /// Removes and returns `msg*` in O(log n).
    pub fn pop(&mut self) -> Option<Message> {
        if self.heap.is_empty() {
            return None;
        }
        let entry = self.heap.swap_remove(0);
        if self.heap.is_empty() {
            self.seq = 0;
        } else {
            self.sift_down(0);
        }
        Some(entry.message)
    }

    /// Removes the head only if it is the given message (used when a
    /// station observes its own successful transmission).
    pub fn pop_if(&mut self, id: MessageId) -> Option<Message> {
        if self.head().map(|m| m.id) == Some(id) {
            self.pop()
        } else {
            None
        }
    }

    /// Number of waiting messages.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Iterates the queued messages in EDF order.
    ///
    /// O(n log n): sorts an index permutation over the heap. Callers walk
    /// short queue prefixes (packet bursting), so this stays cheap.
    pub fn iter(&self) -> impl Iterator<Item = &Message> {
        let mut order: Vec<usize> = (0..self.heap.len()).collect();
        order.sort_unstable_by_key(|&i| self.heap[i].order());
        order.into_iter().map(move |i| &self.heap[i].message)
    }

    /// Drains the queue in EDF order (mainly for tests and teardown).
    pub fn drain_sorted(&mut self) -> Vec<Message> {
        let mut entries = std::mem::take(&mut self.heap);
        self.seq = 0;
        entries.sort_unstable_by_key(Entry::order);
        entries.into_iter().map(|e| e.message).collect()
    }

    /// Moves `heap[at]` toward the root until the heap property holds.
    fn sift_up(&mut self, mut at: usize) {
        while at > 0 {
            let parent = (at - 1) / 2;
            if self.heap[at].order() >= self.heap[parent].order() {
                break;
            }
            self.heap.swap(at, parent);
            at = parent;
        }
    }

    /// Moves `heap[at]` toward the leaves until the heap property holds.
    fn sift_down(&mut self, mut at: usize) {
        let len = self.heap.len();
        loop {
            let left = 2 * at + 1;
            if left >= len {
                break;
            }
            let right = left + 1;
            let mut smallest = left;
            if right < len && self.heap[right].order() < self.heap[left].order() {
                smallest = right;
            }
            if self.heap[at].order() <= self.heap[smallest].order() {
                break;
            }
            self.heap.swap(at, smallest);
            at = smallest;
        }
    }
}

impl PartialEq for EdfQueue {
    /// Two queues are equal iff they would pop the same messages in the
    /// same order — heap layout and absolute sequence values are
    /// representation detail.
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl Eq for EdfQueue {}

#[cfg(test)]
mod tests {
    use super::*;
    use ddcr_sim::{ClassId, SourceId};

    fn msg(id: u64, arrival: u64, deadline: u64) -> Message {
        Message {
            id: MessageId(id),
            source: SourceId(0),
            class: ClassId(0),
            bits: 100,
            arrival: Ticks(arrival),
            deadline: Ticks(deadline),
        }
    }

    #[test]
    fn orders_by_absolute_deadline() {
        let mut q = EdfQueue::new();
        q.push(msg(0, 0, 500)); // DM 500
        q.push(msg(1, 100, 200)); // DM 300
        q.push(msg(2, 0, 400)); // DM 400
        let order: Vec<u64> = q.drain_sorted().iter().map(|m| m.id.0).collect();
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn ties_break_fifo_then_id() {
        let mut q = EdfQueue::new();
        q.push(msg(5, 10, 90)); // DM 100, arrived 10
        q.push(msg(3, 0, 100)); // DM 100, arrived 0 — first
        q.push(msg(4, 10, 90)); // DM 100, arrived 10, lower id than 5
        let order: Vec<u64> = q.drain_sorted().iter().map(|m| m.id.0).collect();
        assert_eq!(order, vec![3, 4, 5]);
    }

    #[test]
    fn fully_equal_keys_keep_fifo_push_order() {
        // The ordering key is (DM, arrival, id); `bits` is outside it, so
        // two messages can carry equal keys yet be distinguishable. The
        // sequence-number tie-break must keep them in push order.
        let mut q = EdfQueue::new();
        for bits in [100u64, 200, 300] {
            let mut m = msg(7, 10, 90);
            m.bits = bits;
            q.push(m);
        }
        let order: Vec<u64> = q.drain_sorted().iter().map(|m| m.bits).collect();
        assert_eq!(order, vec![100, 200, 300]);
    }

    #[test]
    fn pop_if_only_matches_head() {
        let mut q = EdfQueue::new();
        q.push(msg(0, 0, 100));
        q.push(msg(1, 0, 200));
        assert!(q.pop_if(MessageId(1)).is_none());
        assert_eq!(q.pop_if(MessageId(0)).unwrap().id, MessageId(0));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn head_and_second_are_non_destructive() {
        let mut q = EdfQueue::new();
        q.push(msg(0, 0, 100));
        q.push(msg(1, 0, 200));
        assert_eq!(q.head().unwrap().id, MessageId(0));
        assert_eq!(q.second().unwrap().id, MessageId(1));
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q = EdfQueue::new();
        assert!(q.head().is_none());
        assert!(q.second().is_none());
        assert!(q.pop().is_none());
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn iter_exposes_edf_order() {
        let mut q = EdfQueue::new();
        q.push(msg(2, 0, 300));
        q.push(msg(1, 0, 100));
        let dms: Vec<u64> = q.iter().map(|m| m.absolute_deadline().as_u64()).collect();
        assert_eq!(dms, vec![100, 300]);
    }

    #[test]
    fn popping_interleaved_with_tied_pushes_keeps_fifo_order() {
        // Regression for FIFO stability under interleaved pops: heap
        // rebalancing must not disturb the pop order of key-tied messages.
        let mut q = EdfQueue::new();
        let mut popped = Vec::new();
        for round in 0..4u64 {
            let mut a = msg(10 + round, 10, 90);
            a.bits = round * 2;
            let mut b = msg(10 + round, 10, 90);
            b.bits = round * 2 + 1;
            q.push(a);
            q.push(b);
            popped.push(q.pop().unwrap().bits);
        }
        popped.extend(q.drain_sorted().iter().map(|m| m.bits));
        assert_eq!(popped, vec![0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn second_is_exact_across_random_heap_shapes() {
        // `second` reads the root's children; pin it against a model that
        // fully sorts. Deterministic pseudo-random workload (LCG).
        let mut q = EdfQueue::new();
        let mut model: Vec<Message> = Vec::new();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for i in 0..200u64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let deadline = 50 + (state >> 33) % 40;
            let m = msg(i, i, deadline);
            q.push(m);
            model.push(m);
            model.sort_by_key(|m| (key(m), m.id));
            if state.is_multiple_of(3) {
                let popped = q.pop();
                assert_eq!(popped.as_ref(), model.first());
                if !model.is_empty() {
                    model.remove(0);
                }
            }
            assert_eq!(q.head(), model.first());
            assert_eq!(q.second(), model.get(1));
        }
    }

    #[test]
    fn equality_ignores_heap_layout() {
        // Build the same logical content through different push orders:
        // the internal arrays differ but the queues compare equal.
        let mut a = EdfQueue::new();
        let mut b = EdfQueue::new();
        for id in 0..16u64 {
            a.push(msg(id, 0, 100 + id));
        }
        for id in (0..16u64).rev() {
            b.push(msg(id, 0, 100 + id));
        }
        assert_eq!(a, b);
        b.pop();
        assert_ne!(a, b);
    }

    #[test]
    fn seq_counter_resets_when_drained() {
        let mut q = EdfQueue::new();
        q.push(msg(0, 0, 100));
        q.pop();
        assert_eq!(q.seq, 0);
        q.push(msg(1, 0, 100));
        q.push(msg(2, 0, 100));
        q.drain_sorted();
        assert_eq!(q.seq, 0);
    }
}
