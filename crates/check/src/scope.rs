//! Scopes: the finite universes of scenarios the checker enumerates.
//!
//! Small-scope checking rests on the *small scope hypothesis*: most
//! protocol bugs are exposed by some small counterexample. A [`Scope`]
//! fixes the number of stations and finite choice sets for every message
//! attribute; [`Scope::scenarios`] then enumerates the **complete**
//! cartesian product of assignments — every placement of every message —
//! so a clean run is an exhaustive proof over that universe.

use ddcr_sim::{ClassId, Message, MessageId, SourceId, Ticks};

/// A finite scenario universe.
#[derive(Debug, Clone)]
pub struct Scope {
    /// Number of stations.
    pub stations: u32,
    /// Number of messages in every scenario.
    pub messages: usize,
    /// Choices for each message's arrival time (ticks).
    pub arrival_choices: Vec<u64>,
    /// Choices for each message's relative deadline (ticks).
    pub deadline_choices: Vec<u64>,
    /// Choices for each message's Data-Link length (bits).
    pub bits_choices: Vec<u64>,
}

impl Scope {
    /// A small default scope: 2 stations × 2 messages with arrivals in
    /// {0, 700, 40 000}, deadlines in {400 µs, 1.6 ms}, one frame size —
    /// 144 scenarios (12 per-message choices squared), exhaustively
    /// enumerable in milliseconds and including strict-EDF-qualifying
    /// cases (simultaneous arrivals at distinct sources).
    pub fn small() -> Self {
        Scope {
            stations: 2,
            messages: 2,
            arrival_choices: vec![0, 700, 40_000],
            deadline_choices: vec![400_000, 1_600_000],
            bits_choices: vec![2_000],
        }
    }

    /// A wider scope: 3 stations × 3 messages, two frame sizes, three
    /// deadlines (≈ 5.8 million slot-steps total; still seconds).
    pub fn medium() -> Self {
        Scope {
            stations: 3,
            messages: 3,
            arrival_choices: vec![0, 700, 40_000],
            deadline_choices: vec![400_000, 900_000, 1_600_000],
            bits_choices: vec![1_000, 8_000],
        }
    }

    /// Number of per-message assignments.
    fn per_message(&self) -> usize {
        self.stations as usize
            * self.arrival_choices.len()
            * self.deadline_choices.len()
            * self.bits_choices.len()
    }

    /// Total number of scenarios in the universe.
    pub fn scenario_count(&self) -> usize {
        self.per_message().pow(self.messages as u32)
    }

    /// Decodes scenario `index ∈ [0, scenario_count)` into its message
    /// list. Enumeration order is stable, so a violation's index is a
    /// replayable witness.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn scenario(&self, index: usize) -> Vec<Message> {
        assert!(index < self.scenario_count(), "scenario index out of range");
        let per = self.per_message();
        let mut rest = index;
        (0..self.messages)
            .map(|i| {
                let mut code = rest % per;
                rest /= per;
                let source = code % self.stations as usize;
                code /= self.stations as usize;
                let arrival = self.arrival_choices[code % self.arrival_choices.len()];
                code /= self.arrival_choices.len();
                let deadline = self.deadline_choices[code % self.deadline_choices.len()];
                code /= self.deadline_choices.len();
                let bits = self.bits_choices[code];
                Message {
                    id: MessageId(i as u64),
                    source: SourceId(source as u32),
                    class: ClassId(0),
                    bits,
                    arrival: Ticks(arrival),
                    deadline: Ticks(deadline),
                }
            })
            .collect()
    }

    /// Iterates over every scenario in the universe.
    pub fn scenarios(&self) -> impl Iterator<Item = Vec<Message>> + '_ {
        (0..self.scenario_count()).map(|i| self.scenario(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scope_counts() {
        let scope = Scope::small();
        // per message: 2 stations × 3 arrivals × 2 deadlines × 1 size = 12
        assert_eq!(scope.scenario_count(), 12usize.pow(2));
    }

    #[test]
    fn scenario_decoding_is_stable_and_total() {
        let scope = Scope::small();
        let a = scope.scenario(123);
        let b = scope.scenario(123);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        // Every index decodes without panicking and ids are positional.
        for (i, scenario) in scope.scenarios().enumerate().step_by(7) {
            assert_eq!(scenario.len(), 2, "index {i}");
            for (j, m) in scenario.iter().enumerate() {
                assert_eq!(m.id.0, j as u64);
            }
        }
    }

    #[test]
    fn enumeration_covers_distinct_scenarios() {
        let scope = Scope {
            stations: 2,
            messages: 2,
            arrival_choices: vec![0, 100],
            deadline_choices: vec![1_000],
            bits_choices: vec![500],
        };
        let mut seen = std::collections::HashSet::new();
        for s in scope.scenarios() {
            let key: Vec<(u32, u64)> = s.iter().map(|m| (m.source.0, m.arrival.as_u64())).collect();
            seen.insert(key);
        }
        // 4 per-message choices, 2 messages → 16 distinct scenarios.
        assert_eq!(seen.len(), 16);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        let scope = Scope::small();
        let _ = scope.scenario(scope.scenario_count());
    }
}
