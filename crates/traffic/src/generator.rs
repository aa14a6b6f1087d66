//! Schedule generation: turning a [`MessageSet`] plus arrival processes
//! into a concrete, id-allocated stream of [`Message`]s for the simulator.

use crate::arrival::{ArrivalProcess, BoundedRandom, PeakLoad, Periodic, Poisson};
use crate::class::MessageSet;
use crate::error::TrafficError;
use ddcr_sim::{ClassId, Message, MessageId, Ticks};
use std::collections::BTreeMap;

/// Builds a full arrival schedule for a message set, with per-class arrival
/// processes and a default for classes not explicitly configured.
///
/// # Examples
///
/// ```
/// use ddcr_sim::Ticks;
/// use ddcr_traffic::{scenario, ScheduleBuilder};
///
/// # fn main() -> Result<(), ddcr_traffic::TrafficError> {
/// let set = scenario::videoconference(4)?;
/// let schedule = ScheduleBuilder::peak_load(&set).build(Ticks(1_000_000))?;
/// assert!(!schedule.is_empty());
/// // Messages come out sorted by (arrival, id).
/// assert!(schedule.windows(2).all(|p| p[0].arrival <= p[1].arrival));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct ScheduleBuilder<'a> {
    set: &'a MessageSet,
    default: Box<dyn ArrivalProcess>,
    overrides: BTreeMap<ClassId, Box<dyn ArrivalProcess>>,
    first_id: u64,
}

impl<'a> ScheduleBuilder<'a> {
    /// Every class driven by the given default process.
    pub fn new(set: &'a MessageSet, default: Box<dyn ArrivalProcess>) -> Self {
        ScheduleBuilder {
            set,
            default,
            overrides: BTreeMap::new(),
            first_id: 0,
        }
    }

    /// Adversarial peak-load traffic for every class (the pattern the
    /// feasibility conditions are proved against).
    pub fn peak_load(set: &'a MessageSet) -> Self {
        Self::new(set, Box::new(PeakLoad))
    }

    /// Zero-jitter periodic traffic, all classes phase-aligned at 0.
    pub fn periodic(set: &'a MessageSet) -> Self {
        Self::new(set, Box::new(Periodic::new(Ticks::ZERO)))
    }

    /// Density-respecting random traffic at the given intensity.
    ///
    /// # Errors
    ///
    /// Returns [`TrafficError::InvalidProcess`] for intensities outside
    /// `(0, 1]`.
    pub fn bounded_random(
        set: &'a MessageSet,
        intensity: f64,
        seed: u64,
    ) -> Result<Self, TrafficError> {
        Ok(Self::new(
            set,
            Box::new(BoundedRandom::new(intensity, seed)?),
        ))
    }

    /// Poisson traffic at `intensity` times each class's density rate
    /// (bound-violating by design; for baseline experiments).
    pub fn poisson(set: &'a MessageSet, intensity: f64, seed: u64) -> Self {
        Self::new(set, Box::new(Poisson { intensity, seed }))
    }

    /// Overrides the process for one class.
    pub fn with_class_process(mut self, class: ClassId, process: Box<dyn ArrivalProcess>) -> Self {
        self.overrides.insert(class, process);
        self
    }

    /// Sets the first [`MessageId`] to allocate (useful when concatenating
    /// schedules).
    pub fn starting_id(mut self, first: u64) -> Self {
        self.first_id = first;
        self
    }

    /// Generates the schedule over `[0, horizon)`, sorted by
    /// `(arrival, id)`, with globally unique ids in arrival order.
    ///
    /// # Errors
    ///
    /// Returns [`TrafficError::InvalidProcess`] if an override references a
    /// class not in the set.
    pub fn build(&self, horizon: Ticks) -> Result<Vec<Message>, TrafficError> {
        for class in self.overrides.keys() {
            if self.set.class(*class).is_none() {
                return Err(TrafficError::InvalidProcess(format!(
                    "override for unknown class {class}"
                )));
            }
        }
        // (arrival, class index) pairs, then sort and allocate ids.
        let mut raw: Vec<(Ticks, usize)> = Vec::new();
        for (idx, class) in self.set.classes().iter().enumerate() {
            let process: &dyn ArrivalProcess = match self.overrides.get(&class.id) {
                Some(p) => p.as_ref(),
                None => self.default.as_ref(),
            };
            for t in process.arrival_times(class, horizon) {
                raw.push((t, idx));
            }
        }
        raw.sort_by_key(|&(t, idx)| (t, idx));
        let mut schedule = Vec::with_capacity(raw.len());
        for (offset, (arrival, idx)) in raw.into_iter().enumerate() {
            let class = &self.set.classes()[idx];
            schedule.push(Message {
                id: MessageId(self.first_id + offset as u64),
                source: class.source,
                class: class.id,
                bits: class.bits,
                arrival,
                deadline: class.deadline,
            });
        }
        Ok(schedule)
    }
}

/// Offered load of a schedule over a horizon: transmitted bits (Data-Link,
/// before overhead) divided by horizon ticks — the fraction of a
/// 1 bit/tick channel the workload demands.
pub fn offered_load(schedule: &[Message], horizon: Ticks) -> f64 {
    if horizon == Ticks::ZERO {
        return 0.0;
    }
    schedule.iter().map(|m| m.bits as f64).sum::<f64>() / horizon.as_u64() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::{DensityBound, MessageClass};
    use crate::validate::check_schedule;
    use ddcr_sim::SourceId;

    fn two_class_set() -> MessageSet {
        MessageSet::new(
            2,
            vec![
                MessageClass {
                    id: ClassId(0),
                    name: "a".into(),
                    source: SourceId(0),
                    bits: 1000,
                    deadline: Ticks(50_000),
                    density: DensityBound::new(2, Ticks(10_000)).unwrap(),
                },
                MessageClass {
                    id: ClassId(1),
                    name: "b".into(),
                    source: SourceId(1),
                    bits: 2000,
                    deadline: Ticks(80_000),
                    density: DensityBound::new(1, Ticks(20_000)).unwrap(),
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn peak_load_schedule_is_sorted_and_valid() {
        let set = two_class_set();
        let schedule = ScheduleBuilder::peak_load(&set)
            .build(Ticks(100_000))
            .unwrap();
        assert!(schedule
            .windows(2)
            .all(|p| (p[0].arrival, p[0].id) <= (p[1].arrival, p[1].id)));
        assert!(check_schedule(&set, &schedule).is_ok());
        // Class 0: 2 per 10k over 100k = 20; class 1: 1 per 20k = 5.
        assert_eq!(schedule.len(), 25);
    }

    #[test]
    fn ids_are_unique_and_dense() {
        let set = two_class_set();
        let schedule = ScheduleBuilder::periodic(&set)
            .build(Ticks(100_000))
            .unwrap();
        for (i, m) in schedule.iter().enumerate() {
            assert_eq!(m.id, MessageId(i as u64));
        }
    }

    #[test]
    fn starting_id_offsets_allocation() {
        let set = two_class_set();
        let schedule = ScheduleBuilder::peak_load(&set)
            .starting_id(100)
            .build(Ticks(20_000))
            .unwrap();
        assert_eq!(schedule[0].id, MessageId(100));
    }

    #[test]
    fn class_override_changes_one_class_only() {
        let set = two_class_set();
        let schedule = ScheduleBuilder::peak_load(&set)
            .with_class_process(
                ClassId(1),
                Box::new(crate::arrival::Periodic::new(Ticks(7))),
            )
            .build(Ticks(40_000))
            .unwrap();
        let class1: Vec<_> = schedule.iter().filter(|m| m.class == ClassId(1)).collect();
        assert_eq!(class1[0].arrival, Ticks(7));
    }

    #[test]
    fn override_for_unknown_class_rejected() {
        let set = two_class_set();
        let err = ScheduleBuilder::peak_load(&set)
            .with_class_process(ClassId(9), Box::new(PeakLoad))
            .build(Ticks(1000))
            .unwrap_err();
        assert!(matches!(err, TrafficError::InvalidProcess(_)));
    }

    #[test]
    fn offered_load_counts_bits() {
        let set = two_class_set();
        let schedule = ScheduleBuilder::peak_load(&set)
            .build(Ticks(100_000))
            .unwrap();
        // 20 × 1000 + 5 × 2000 = 30_000 bits over 100_000 ticks.
        assert!((offered_load(&schedule, Ticks(100_000)) - 0.3).abs() < 1e-12);
        assert_eq!(offered_load(&schedule, Ticks::ZERO), 0.0);
    }

    #[test]
    fn message_fields_copied_from_class() {
        let set = two_class_set();
        let schedule = ScheduleBuilder::peak_load(&set)
            .build(Ticks(10_000))
            .unwrap();
        let m = schedule.iter().find(|m| m.class == ClassId(0)).unwrap();
        assert_eq!(m.bits, 1000);
        assert_eq!(m.deadline, Ticks(50_000));
        assert_eq!(m.source, SourceId(0));
    }
}
