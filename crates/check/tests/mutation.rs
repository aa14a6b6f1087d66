//! Mutation tests: the checker is only trustworthy if it *fails* on broken
//! protocols. Each test wires a deliberately faulty station into an
//! otherwise conforming network and asserts the corresponding property
//! violation is detected — so a future refactor that silently weakens a
//! check will trip here.

use ddcr_core::{DdcrConfig, DdcrStation, StaticAllocation};
use ddcr_sim::{
    Action, ClassId, Frame, MediumConfig, Message, MessageId, Observation, SourceId, Station, Ticks,
};

const SLOT: u64 = 512;

/// How a mutant misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// Drops every k-th channel observation (desynchronising its replica).
    DropObservations(u64),
    /// Never transmits, silently discarding its queue head after a while
    /// (kills liveness for its own messages without touching the channel).
    Mute,
}

/// A conforming station wrapped with an injected fault.
struct Mutant {
    inner: DdcrStation,
    fault: Fault,
    observed: u64,
    swallowed: usize,
}

impl Mutant {
    fn new(inner: DdcrStation, fault: Fault) -> Self {
        Mutant {
            inner,
            fault,
            observed: 0,
            swallowed: 0,
        }
    }
}

impl Station for Mutant {
    fn deliver(&mut self, message: Message) {
        match self.fault {
            Fault::Mute => self.swallowed += 1, // message silently vanishes
            _ => self.inner.deliver(message),
        }
    }

    fn poll(&mut self, now: Ticks) -> Action {
        match self.fault {
            Fault::Mute => Action::Idle,
            _ => self.inner.poll(now),
        }
    }

    fn observe(&mut self, now: Ticks, next_free: Ticks, observation: &Observation) {
        self.observed += 1;
        if let Fault::DropObservations(k) = self.fault {
            if self.observed.is_multiple_of(k) {
                return; // replica misses one slot of feedback
            }
        }
        self.inner.observe(now, next_free, observation);
    }

    fn backlog(&self) -> usize {
        match self.fault {
            Fault::Mute => self.swallowed,
            _ => self.inner.backlog(),
        }
    }
}

/// Drives a network of (possibly mutated) stations and reports whether the
/// replicas of the *conforming* stations plus the mutant's inner replica
/// ever diverge, and whether the workload drains.
fn drive(stations: &mut [Mutant], arrivals: Vec<Message>, budget: u64) -> (bool, bool) {
    let mut arrivals = arrivals;
    arrivals.sort_by_key(|m| (m.arrival, m.id));
    let mut now = Ticks::ZERO;
    let mut next = 0usize;
    let mut diverged = false;
    for _ in 0..budget {
        while next < arrivals.len() && arrivals[next].arrival <= now {
            let m = arrivals[next];
            stations[m.source.0 as usize].deliver(m);
            next += 1;
        }
        let frames: Vec<Frame> = stations
            .iter_mut()
            .filter_map(|s| match s.poll(now) {
                Action::Transmit(f) => Some(f),
                Action::Idle => None,
            })
            .collect();
        let (obs, advance) = match frames.len() {
            0 => (Observation::Silence, Ticks(SLOT)),
            1 => (Observation::Busy(frames[0]), frames[0].duration()),
            _ => (Observation::Collision { survivor: None }, Ticks(SLOT)),
        };
        let next_free = now + advance;
        for s in stations.iter_mut() {
            s.observe(now, next_free, &obs);
        }
        let digests: Vec<String> = stations
            .iter()
            .map(|s| s.inner.shared_state_digest())
            .collect();
        if digests[1..].iter().any(|d| d != &digests[0]) {
            diverged = true;
        }
        now = next_free;
        if next == arrivals.len() && stations.iter().all(|s| s.backlog() == 0) {
            return (diverged, true);
        }
    }
    (diverged, false)
}

fn network(z: u32, faults: &[(usize, Fault)]) -> Vec<Mutant> {
    let medium = MediumConfig::ethernet();
    let config = DdcrConfig::for_sources(z, Ticks(100_000)).unwrap();
    let allocation = StaticAllocation::one_per_source(config.static_tree, z).unwrap();
    (0..z)
        .map(|i| {
            let inner =
                DdcrStation::new(SourceId(i), config, &allocation, medium.overhead_bits).unwrap();
            let fault = faults
                .iter()
                .find(|(idx, _)| *idx == i as usize)
                .map(|(_, f)| *f);
            match fault {
                Some(f) => Mutant::new(inner, f),
                None => Mutant::new(inner, Fault::DropObservations(u64::MAX)),
            }
        })
        .collect()
}

fn burst(z: u32) -> Vec<Message> {
    (0..z)
        .map(|i| Message {
            id: MessageId(u64::from(i)),
            source: SourceId(i),
            class: ClassId(0),
            bits: 8_000,
            arrival: Ticks(0),
            deadline: Ticks(2_000_000),
        })
        .collect()
}

#[test]
fn conforming_network_is_clean() {
    let mut stations = network(3, &[]);
    let (diverged, drained) = drive(&mut stations, burst(3), 5_000);
    assert!(!diverged, "clean network must not diverge");
    assert!(drained, "clean network must drain");
}

#[test]
fn dropped_observations_are_detected_as_divergence() {
    // Station 1 loses every 3rd observation: its replica must fall out of
    // step with the others — and the divergence check must see it.
    let mut stations = network(3, &[(1, Fault::DropObservations(3))]);
    let (diverged, _) = drive(&mut stations, burst(3), 5_000);
    assert!(diverged, "a desynchronised replica must be detected");
}

#[test]
fn mute_station_is_detected_as_liveness_failure() {
    let mut stations = network(3, &[(2, Fault::Mute)]);
    let (_, drained) = drive(&mut stations, burst(3), 5_000);
    assert!(
        !drained,
        "a swallowed message must show up as undrained backlog"
    );
}
