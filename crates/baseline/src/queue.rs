//! Local queue disciplines for the baseline protocols.

use ddcr_sim::{Message, MessageId};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Queue service order at a baseline station.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum QueueDiscipline {
    /// First-come, first-served (classical Ethernet drivers).
    #[default]
    Fifo,
    /// Earliest absolute deadline first (isolates the MAC layer's effect
    /// when comparing against CSMA/DDCR, which always runs local EDF).
    Edf,
}

/// A small local queue with a pluggable service order. Backed by a
/// `VecDeque` so the hot-path `pop` is O(1) instead of shifting the whole
/// buffer the way `Vec::remove(0)` does.
#[derive(Debug, Clone, Default)]
pub struct LocalQueue {
    discipline: QueueDiscipline,
    items: VecDeque<Message>,
}

impl LocalQueue {
    /// An empty queue with the given discipline.
    pub fn new(discipline: QueueDiscipline) -> Self {
        LocalQueue {
            discipline,
            items: VecDeque::new(),
        }
    }

    /// Inserts a message in service order.
    pub fn push(&mut self, message: Message) {
        let pos = match self.discipline {
            QueueDiscipline::Fifo => {
                let k = (message.arrival, message.id);
                self.items.partition_point(|m| (m.arrival, m.id) <= k)
            }
            QueueDiscipline::Edf => {
                let k = (message.absolute_deadline(), message.arrival, message.id);
                self.items
                    .partition_point(|m| (m.absolute_deadline(), m.arrival, m.id) <= k)
            }
        };
        self.items.insert(pos, message);
    }

    /// The message that would be served next.
    pub fn head(&self) -> Option<&Message> {
        self.items.front()
    }

    /// Removes the head if it matches the given id.
    pub fn pop_if(&mut self, id: MessageId) -> Option<Message> {
        if self.head().map(|m| m.id) == Some(id) {
            self.items.pop_front()
        } else {
            None
        }
    }

    /// Removes and returns the head in O(1).
    pub fn pop(&mut self) -> Option<Message> {
        self.items.pop_front()
    }

    /// Number of waiting messages.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ddcr_sim::{ClassId, SourceId, Ticks};

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
    fn fifo_orders_by_arrival() {
        let mut q = LocalQueue::new(QueueDiscipline::Fifo);
        q.push(msg(0, 50, 10)); // urgent but late arrival
        q.push(msg(1, 10, 1_000));
        assert_eq!(q.head().unwrap().id, MessageId(1));
    }

    #[test]
    fn edf_orders_by_deadline() {
        let mut q = LocalQueue::new(QueueDiscipline::Edf);
        q.push(msg(0, 50, 10)); // DM 60
        q.push(msg(1, 10, 1_000)); // DM 1010
        assert_eq!(q.head().unwrap().id, MessageId(0));
    }

    #[test]
    fn tied_keys_keep_push_order_across_pops() {
        // The service keys include the id, but fully tied keys (same id,
        // distinguishable by bits) must stay in push order even while pops
        // rotate the backing deque.
        for discipline in [QueueDiscipline::Fifo, QueueDiscipline::Edf] {
            let mut q = LocalQueue::new(discipline);
            let mut served = Vec::new();
            for round in 0..3u64 {
                for step in 0..2u64 {
                    let mut m = msg(7, 10, 90);
                    m.bits = round * 2 + step;
                    q.push(m);
                }
                served.push(q.pop().unwrap().bits);
            }
            while let Some(m) = q.pop() {
                served.push(m.bits);
            }
            assert_eq!(served, vec![0, 1, 2, 3, 4, 5], "{discipline:?}");
        }
    }

    #[test]
    fn pop_if_checks_identity() {
        let mut q = LocalQueue::new(QueueDiscipline::Fifo);
        q.push(msg(0, 0, 10));
        assert!(q.pop_if(MessageId(9)).is_none());
        assert!(q.pop_if(MessageId(0)).is_some());
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert!(q.pop().is_none());
    }
}
