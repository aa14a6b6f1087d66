//! Fault injection: a non-conforming "jammer" station shares the bus with
//! a CSMA/DDCR network. The paper (§3.1) credits broadcast-bus protocols
//! with "interesting fault-tolerant properties"; these tests pin down what
//! the implementation actually guarantees under interference:
//!
//! * **safety survives** — transmissions remain mutually exclusive (the
//!   medium arbitrates, a babbler cannot forge overlap);
//! * **replicas survive** — every conforming station hears the same
//!   channel feedback, jam or not, so protocol state stays consistent;
//! * **liveness survives light jamming** — all legitimate messages are
//!   still delivered (deadlines may be lost; guarantees are only proved
//!   for conforming networks).

use ddcr_core::{network, DdcrConfig, DdcrStation, StaticAllocation};
use ddcr_sim::rng::{derive_seed, seeded_rng};
use ddcr_sim::{
    Action, ClassId, Engine, Frame, Message, MessageId, Observation, SourceId, Station, Ticks,
    Trace, TraceEvent,
};
use ddcr_traffic::{scenario, ScheduleBuilder};
use rand::Rng;

/// A babbling station: transmits a junk frame with probability `p` at
/// every poll, ignoring all protocol rules.
struct Jammer {
    source: SourceId,
    probability: f64,
    rng: rand::rngs::StdRng,
    shots: u64,
}

impl Jammer {
    fn new(source: SourceId, probability: f64, seed: u64) -> Self {
        Jammer {
            source,
            probability,
            rng: seeded_rng(derive_seed(seed, u64::from(source.0))),
            shots: 0,
        }
    }
}

impl Station for Jammer {
    fn deliver(&mut self, _message: Message) {}

    fn poll(&mut self, now: Ticks) -> Action {
        if self.rng.gen_bool(self.probability) {
            self.shots += 1;
            Action::Transmit(Frame::new(
                Message {
                    id: MessageId(u64::MAX - self.shots),
                    source: self.source,
                    class: ClassId(u32::MAX),
                    bits: 512,
                    arrival: now,
                    deadline: Ticks(1),
                },
                512,
            ))
        } else {
            Action::Idle
        }
    }

    fn observe(&mut self, _now: Ticks, _next_free: Ticks, _observation: &Observation) {}

    fn backlog(&self) -> usize {
        0 // never blocks run_to_completion
    }

    fn label(&self) -> String {
        format!("jammer:{}", self.source)
    }
}

fn jammed_engine(z: u32, jam_probability: f64) -> (Engine, Vec<Message>) {
    let set = scenario::uniform(z, 8_000, Ticks(60_000_000), 0.2).unwrap();
    let medium = ddcr_sim::MediumConfig::ethernet();
    let c = network::recommended_class_width(&set, 64, &medium);
    let config = DdcrConfig::for_sources(z, c).unwrap();
    let allocation = StaticAllocation::round_robin(config.static_tree, z).unwrap();
    let mut engine = Engine::new(medium).unwrap();
    for i in 0..z {
        engine.add_station(Box::new(
            DdcrStation::new(SourceId(i), config, &allocation, medium.overhead_bits).unwrap(),
        ));
    }
    // The jammer sits on the bus as an extra station.
    engine.add_station(Box::new(Jammer::new(SourceId(z), jam_probability, 99)));
    let schedule = ScheduleBuilder::peak_load(&set)
        .build(Ticks(4_000_000))
        .unwrap();
    (engine, schedule)
}

#[test]
fn light_jamming_delays_but_does_not_lose_messages() {
    let (mut engine, schedule) = jammed_engine(4, 0.05);
    let n = schedule.len();
    let legitimate: std::collections::HashSet<u64> = schedule.iter().map(|m| m.id.0).collect();
    engine.add_arrivals(schedule).unwrap();
    engine.run_to_completion(Ticks(400_000_000_000)).unwrap();
    let delivered: Vec<u64> = engine
        .stats()
        .deliveries
        .iter()
        .map(|d| d.message.id.0)
        .filter(|id| legitimate.contains(id))
        .collect();
    assert_eq!(delivered.len(), n, "legitimate messages lost under jamming");
}

#[test]
fn safety_holds_under_heavy_jamming() {
    let (mut engine, schedule) = jammed_engine(4, 0.4);
    engine.set_trace(Trace::enabled());
    engine.add_arrivals(schedule).unwrap();
    // Heavy jamming: run a fixed horizon (completion may be impossible).
    engine.run_until(Ticks(50_000_000));
    let mut in_flight = false;
    for e in engine.trace().events() {
        match e {
            TraceEvent::TxStart { .. } => {
                assert!(!in_flight, "overlapping transmissions under jamming");
                in_flight = true;
            }
            TraceEvent::TxEnd { .. } => in_flight = false,
            TraceEvent::Silence { .. }
            | TraceEvent::Collision { .. }
            | TraceEvent::Garbled { .. } => {
                assert!(!in_flight, "channel event inside a transmission");
            }
            // Membership annotations occupy no channel time.
            TraceEvent::Joined { .. } | TraceEvent::Left { .. } => {}
        }
    }
}

#[test]
fn replicas_agree_despite_jamming() {
    // Manual drive with a jammer mixed in: all DDCR replicas must hold
    // identical shared state at every slot, since they hear the same
    // (jammed) channel.
    let z = 3u32;
    let medium = ddcr_sim::MediumConfig::ethernet();
    let config = DdcrConfig::for_sources(z, Ticks(100_000)).unwrap();
    let allocation = StaticAllocation::one_per_source(config.static_tree, z).unwrap();
    let mut stations: Vec<DdcrStation> = (0..z)
        .map(|i| DdcrStation::new(SourceId(i), config, &allocation, medium.overhead_bits).unwrap())
        .collect();
    let mut jammer = Jammer::new(SourceId(z), 0.2, 7);
    for i in 0..z {
        stations[i as usize].deliver(Message {
            id: MessageId(u64::from(i)),
            source: SourceId(i),
            class: ClassId(0),
            bits: 8_000,
            arrival: Ticks(0),
            deadline: Ticks(2_000_000),
        });
    }
    let mut now = Ticks::ZERO;
    for _ in 0..3_000 {
        let mut frames: Vec<Frame> = stations
            .iter_mut()
            .filter_map(|s| match s.poll(now) {
                Action::Transmit(f) => Some(f),
                Action::Idle => None,
            })
            .collect();
        if let Action::Transmit(f) = jammer.poll(now) {
            frames.push(f);
        }
        let (obs, advance) = match frames.len() {
            0 => (Observation::Silence, Ticks(512)),
            1 => (Observation::Busy(frames[0]), frames[0].duration()),
            _ => (Observation::Collision { survivor: None }, Ticks(512)),
        };
        let next_free = now + advance;
        for s in stations.iter_mut() {
            s.observe(now, next_free, &obs);
        }
        let digests: Vec<String> = stations.iter().map(|s| s.shared_state_digest()).collect();
        for d in &digests[1..] {
            assert_eq!(&digests[0], d, "replica divergence under jamming at {now}");
        }
        now = next_free;
        if stations.iter().all(|s| s.backlog() == 0) {
            break;
        }
    }
    assert!(
        stations.iter().all(|s| s.backlog() == 0),
        "messages not delivered despite 3000 slots"
    );
}
