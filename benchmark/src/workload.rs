//! The six workloads and the simulation op: set-up and one `ddcr run`
//! equivalent, assembled exactly as `ddcr run` assembles it, plus the
//! all-tiers-off reference stepper the oracle compares against.

use crate::stats::Fnv;
use ddcr_core::multibus::{self, ChannelAssignment};
use ddcr_core::{federate, network, DdcrConfig, StaticAllocation};
use ddcr_sim::federation::{self, BridgeRoute, FederationFaultSpec, FederationOptions};
use ddcr_sim::rng::job_seed;
use ddcr_sim::{ChannelStats, Engine, FaultRates, MediumConfig, Message, Ticks};
use ddcr_traffic::{scenario, MessageSet, ScheduleBuilder};

/// One millisecond in ticks, the CLI's `--horizon-ms` unit.
pub const MS: u64 = 1_000_000;

/// The completion budget `ddcr run` gives every channel and segment.
pub const BUDGET: Ticks = Ticks(1_000_000_000_000);

/// Op index of the first warm-up op; timed ops count up from 0, so warm-up
/// schedules never coincide with timed ones.
pub const WARMUP_BASE: u64 = 1 << 40;

/// Which message set a simulation workload runs.
#[derive(Debug, Clone, Copy)]
pub enum Scenario {
    /// `scenario::uniform(stations, 8000 b, 5 ms, load)` on 10 Mb Ethernet.
    Uniform { stations: u32, load: f64 },
    /// `scenario::videoconference(participants)` on gigabit Ethernet.
    Video { participants: u32 },
}

/// How the medium is split.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Topology {
    /// One shared bus (`ddcr run --channels 1`).
    Bus,
    /// `ddcr run --channels C`.
    Channels(usize),
    /// `ddcr run --segments N --epoch-ms 1`.
    Segments(usize),
}

impl Topology {
    /// Channels or segments the message set is partitioned over.
    pub fn parts(self) -> usize {
        match self {
            Topology::Bus => 1,
            Topology::Channels(n) | Topology::Segments(n) => n,
        }
    }
}

/// A simulation workload.
#[derive(Debug, Clone, Copy)]
pub struct SimSpec {
    /// Message set.
    pub scenario: Scenario,
    /// Medium split.
    pub topology: Topology,
    /// Arrival horizon of one op's schedule.
    pub horizon: Ticks,
    /// Per station-slot crash probability (`ddcr run --crash`); 0 is
    /// fault-free.
    pub crash: f64,
}

/// The `ddcr serve` workload.
#[derive(Debug, Clone, Copy)]
pub struct ServeSpec {
    /// `ddcr serve --sources`.
    pub sources: u32,
    /// Length of the fixed log prefix the traced run replays.
    pub trace_requests: usize,
}

/// What a workload drives.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Repeated `ddcr run`-equivalent simulations.
    Sim(SimSpec),
    /// One `ddcr serve` session.
    Serve(ServeSpec),
}

/// A named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// What it drives.
    pub kind: Kind,
}

/// The benchmark's workloads. `quick` shrinks every one to a smoke size
/// that runs in well under a second.
pub fn workloads(quick: bool) -> Vec<Workload> {
    let scale = |full: u64, tiny: u64| Ticks(if quick { tiny } else { full } * MS);
    let sim = |name, scenario, topology, horizon, crash| Workload {
        name,
        kind: Kind::Sim(SimSpec {
            scenario,
            topology,
            horizon,
            crash,
        }),
    };
    let (sparse, crashy, busy, video) = if quick {
        (32, 16, 8, 8)
    } else {
        (1024, 256, 32, 32)
    };
    vec![
        sim(
            "sparse-1k",
            Scenario::Uniform {
                stations: sparse,
                load: 0.05,
            },
            Topology::Bus,
            scale(10, 2),
            0.0,
        ),
        sim(
            "sparse-crash",
            Scenario::Uniform {
                stations: crashy,
                load: 0.05,
            },
            Topology::Bus,
            scale(40, 2),
            2e-6,
        ),
        sim(
            "saturated-32",
            Scenario::Uniform {
                stations: busy,
                load: 0.8,
            },
            Topology::Bus,
            scale(60, 2),
            0.0,
        ),
        sim(
            "channels-4",
            Scenario::Video {
                participants: video,
            },
            Topology::Channels(4),
            scale(50, 2),
            0.0,
        ),
        sim(
            "segments-4",
            Scenario::Video {
                participants: video,
            },
            Topology::Segments(4),
            scale(50, 2),
            0.0,
        ),
        Workload {
            name: "serve-churn",
            kind: Kind::Serve(ServeSpec {
                sources: if quick { 8 } else { 64 },
                trace_requests: if quick { 200 } else { 5_000 },
            }),
        },
    ]
}

/// Looks a workload up by name.
pub fn find(name: &str, quick: bool) -> Option<Workload> {
    workloads(quick).into_iter().find(|w| w.name == name)
}

/// Worker threads of a timed op. Pooled wall times on a small shared host
/// follow the host's scheduling of its cores more than the code, so timed
/// ops run on one worker; the traced run reports what the pool adds
/// (`multibus.pool_speedup`, `federation.pool_speedup`).
pub const OP_WORKERS: usize = 1;

/// Worker threads for pooled runs: `ddcr run`'s default is one per channel
/// or segment, capped here at the host's parallelism.
pub fn host_workers() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Engine tiers an op runs with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stepper {
    /// Every fast-forward tier on: what `ddcr run` uses.
    Fast,
    /// Every tier off: the slot-by-slot reference the fast path must match.
    Reference,
}

/// Applies `stepper` to a freshly built engine.
pub fn set_stepper(engine: &mut Engine, stepper: Stepper) {
    if stepper == Stepper::Reference {
        engine
            .set_fast_forward(false)
            .set_busy_fast_forward(false)
            .set_contention_fast_forward(false)
            .set_active_set(false);
    }
}

/// A simulation workload's set-up: everything `ddcr run` derives before its
/// first slot.
#[derive(Debug)]
pub struct Fabric {
    /// The workload.
    pub spec: SimSpec,
    /// The message set.
    pub set: MessageSet,
    /// The medium.
    pub medium: MediumConfig,
    /// DDCR dimensioning.
    pub config: DdcrConfig,
    /// Static-tree leaves per source.
    pub allocation: StaticAllocation,
    /// Class to channel (or segment) partition.
    pub assignment: ChannelAssignment,
    /// Bridged classes (segments only).
    pub routes: Vec<BridgeRoute>,
}

/// The message set and medium of a scenario.
pub fn message_set(scenario: Scenario) -> Result<(MessageSet, MediumConfig), String> {
    match scenario {
        Scenario::Uniform { stations, load } => Ok((
            scenario::uniform(stations, 8_000, Ticks(5 * MS), load).map_err(|e| e.to_string())?,
            MediumConfig::ethernet(),
        )),
        Scenario::Video { participants } => Ok((
            scenario::videoconference(participants).map_err(|e| e.to_string())?,
            MediumConfig::gigabit_ethernet(),
        )),
    }
}

/// Dimensioning exactly as `ddcr run` does it.
pub fn dimension(
    set: &MessageSet,
    medium: &MediumConfig,
) -> Result<(DdcrConfig, StaticAllocation), String> {
    let c = network::recommended_class_width(set, 64, medium);
    let config = DdcrConfig::for_sources(set.sources(), c).map_err(|e| e.to_string())?;
    let allocation = StaticAllocation::round_robin(config.static_tree, set.sources())
        .map_err(|e| e.to_string())?;
    Ok((config, allocation))
}

impl Fabric {
    /// Sets a workload up the way `ddcr run` does before simulating.
    pub fn set_up(spec: SimSpec) -> Result<Fabric, String> {
        let (set, medium) = message_set(spec.scenario)?;
        let (config, allocation) = dimension(&set, &medium)?;
        let assignment = multibus::balance_by_load(&set, spec.topology.parts());
        let mut routes = Vec::new();
        if let Topology::Segments(_) = spec.topology {
            routes = federate::transit_routes(&set, &assignment, 4);
        } else {
            // `ddcr run --channels` prints the per-channel ξ budgets; the
            // segment path computes none.
            let budgets =
                multibus::channel_budgets(&set, &assignment, &config, &allocation, &medium)
                    .map_err(|e| e.to_string())?;
            std::hint::black_box(budgets);
        }
        Ok(Fabric {
            spec,
            set,
            medium,
            config,
            allocation,
            assignment,
            routes,
        })
    }

    /// Op `op`'s schedule: seeded bounded-random arrivals at full density.
    pub fn schedule(&self, seed: u64, op: u64) -> Result<Vec<Message>, String> {
        ScheduleBuilder::bounded_random(&self.set, 1.0, job_seed(seed, op))
            .and_then(|b| b.build(self.spec.horizon))
            .map_err(|e| e.to_string())
    }

    /// The crash rates `ddcr run --crash R --down 64` installs, if any.
    pub fn fault_rates(&self) -> Option<FaultRates> {
        (self.spec.crash > 0.0).then_some(FaultRates {
            corrupt: 0.0,
            erase: 0.0,
            crash: self.spec.crash,
            down_slots: 64,
        })
    }

    /// The fault-plan horizon, in slots: the first half of the arrival
    /// horizon. `ddcr run` plans over twice the arrival horizon, of which
    /// this plan is the prefix. The cut keeps every restart inside the
    /// traffic: a station that restarts after the last frame it could
    /// resynchronize from never drains a message that arrives later, and
    /// such an op fails instead of measuring the fault path.
    pub fn fault_horizon_slots(&self) -> u64 {
        self.spec.horizon.as_u64() / 2 / self.medium.slot_ticks.max(1)
    }

    /// Multichannel run options as `ddcr run` sets them (metrics on).
    pub fn channel_options(&self, fault_seed: u64, workers: usize) -> multibus::RunOptions {
        let mut options = multibus::RunOptions::new(BUDGET);
        options.workers = workers;
        options.metrics = true;
        options.faults = self.fault_rates().map(|rates| multibus::FaultSpec {
            master_seed: fault_seed,
            rates,
            horizon_slots: self.fault_horizon_slots(),
        });
        options
    }

    /// Federation options as `ddcr run --segments` sets them (metrics on).
    pub fn federation_options(&self, fault_seed: u64, workers: usize) -> FederationOptions {
        let mut options = FederationOptions::new(Ticks(MS), BUDGET);
        options.workers = workers;
        options.metrics = true;
        options.faults = self.fault_rates().map(|rates| FederationFaultSpec {
            master_seed: fault_seed,
            rates,
            horizon_slots: self.fault_horizon_slots(),
        });
        options
    }

    /// One op through the public entry point `ddcr run` calls. The fault
    /// plan (if any) is seeded by the op's seed, so every op draws its own.
    pub fn run(
        &self,
        schedule: Vec<Message>,
        fault_seed: u64,
        workers: usize,
        stepper: Stepper,
    ) -> Result<Outcome, String> {
        let (config, allocation, medium) = (&self.config, &self.allocation, self.medium);
        match self.spec.topology {
            Topology::Segments(_) => {
                let options = self.federation_options(fault_seed, workers);
                let report = if stepper == Stepper::Fast {
                    federate::run_segments(
                        &self.set,
                        schedule,
                        &self.assignment,
                        &self.routes,
                        config,
                        allocation,
                        medium,
                        &options,
                    )
                    .map_err(|e| e.to_string())?
                } else {
                    // `federate::run_segments` with every engine's tiers off.
                    let mut engines = Vec::new();
                    for _ in 0..self.assignment.channels() {
                        let mut engine =
                            network::build_engine(&self.set, config, allocation, medium)
                                .map_err(|e| e.to_string())?;
                        set_stepper(&mut engine, stepper);
                        let (time, static_) =
                            network::xi_bound_tables(config).map_err(|e| e.to_string())?;
                        engine.set_xi_bounds(time, static_);
                        engines.push(engine);
                    }
                    let schedules = self.assignment.split_schedule(schedule);
                    federation::run_federation(engines, schedules, &self.routes, &options)
                        .map_err(|e| e.to_string())?
                };
                let mut out = Outcome::default();
                for segment in &report.segments {
                    out.add(
                        &segment.stats,
                        segment.completed,
                        segment.scheduled + segment.injected,
                    );
                    out.xi_violations += segment.metrics.as_ref().map_or(0, |m| m.violations_total);
                }
                out.rounds = report.rounds;
                out.handoffs = report.handoffs;
                out.digest.u64(report.rounds);
                out.digest.u64(report.handoffs);
                Ok(out)
            }
            Topology::Bus | Topology::Channels(_) => {
                let options = self.channel_options(fault_seed, workers);
                let report = if stepper == Stepper::Fast {
                    multibus::run_channels(
                        &self.set,
                        schedule,
                        &self.assignment,
                        config,
                        allocation,
                        medium,
                        &options,
                    )
                } else {
                    // `multibus::run_channels` with every engine's tiers off.
                    multibus::run_channels_with(
                        &self.set,
                        schedule,
                        &self.assignment,
                        &options,
                        &|_, projected| {
                            let mut engine =
                                network::build_engine(projected, config, allocation, medium)?;
                            set_stepper(&mut engine, stepper);
                            let (time, static_) = network::xi_bound_tables(config)?;
                            engine.set_xi_bounds(time, static_);
                            Ok(engine)
                        },
                    )
                }
                .map_err(|e| e.to_string())?;
                let mut out = Outcome::default();
                for channel in &report.channels {
                    out.add(&channel.stats, channel.completed, channel.scheduled);
                    out.xi_violations += channel.metrics.as_ref().map_or(0, |m| m.violations_total);
                }
                Ok(out)
            }
        }
    }
}

/// What one op produced, reduced to what the oracle checks.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    /// FNV-1a over every channel's (or segment's) statistics and
    /// deliveries, in channel order, then federation rounds and handoffs.
    pub digest: Fnv,
    /// Messages offered (schedule plus bridge handoffs).
    pub offered: u64,
    /// Messages delivered.
    pub delivered: u64,
    /// Messages lost to crashes.
    pub lost: u64,
    /// Whether every channel or segment drained inside the budget.
    pub completed: bool,
    /// Observed-ξ breaches of the analytic bound.
    pub xi_violations: u64,
    /// Federation epoch rounds (0 off the segment path).
    pub rounds: u64,
    /// Federation bridge handoffs (0 off the segment path).
    pub handoffs: u64,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            digest: Fnv::default(),
            offered: 0,
            delivered: 0,
            lost: 0,
            completed: true,
            xi_violations: 0,
            rounds: 0,
            handoffs: 0,
        }
    }
}

impl Outcome {
    /// Folds one channel's or segment's result in.
    pub fn add(&mut self, stats: &ChannelStats, completed: bool, offered: usize) {
        digest_stats(&mut self.digest, stats);
        self.offered += offered as u64;
        self.delivered += stats.delivered;
        self.lost += stats.lost_total;
        self.completed &= completed;
    }

    /// The final digest.
    pub fn digest(&self) -> u64 {
        self.digest.finish()
    }

    /// The per-op correctness checks that need no reference: the run
    /// drained, every offered message was delivered or lost to a crash,
    /// and observed ξ stayed within the analytic bound.
    pub fn check(&self) -> Result<(), String> {
        if !self.completed {
            return Err("a channel did not drain inside the budget".into());
        }
        if self.delivered + self.lost != self.offered {
            return Err(format!(
                "{} offered but {} delivered and {} lost",
                self.offered, self.delivered, self.lost
            ));
        }
        if self.xi_violations > 0 {
            return Err(format!("{} observed-ξ violation(s)", self.xi_violations));
        }
        Ok(())
    }
}

/// Folds one channel's statistics and every retained delivery and lost
/// message into `h`.
pub fn digest_stats(h: &mut Fnv, stats: &ChannelStats) {
    for v in [
        stats.silence_slots,
        stats.collisions,
        stats.busy_ticks.as_u64(),
        stats.total_ticks.as_u64(),
        stats.delivered,
        stats.missed_deadlines,
        stats.latency_ticks_total,
        stats.worst_latency.as_u64(),
        stats.worst_lateness.as_u64(),
        stats.corrupted_slots,
        stats.erased_frames,
        stats.crashes,
        stats.restarts,
        stats.joins,
        stats.leaves,
        stats.lost_total,
        stats.deliveries.len() as u64,
        stats.lost.len() as u64,
    ] {
        h.u64(v);
    }
    for d in &stats.deliveries {
        h.u64(d.message.id.0);
        h.u64(u64::from(d.message.source.0));
        h.u64(u64::from(d.message.class.0));
        h.u64(d.completed_at.as_u64());
    }
    for m in &stats.lost {
        h.u64(m.id.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_deterministic_and_input_sensitive() {
        let spec = match find("saturated-32", true).map(|w| w.kind) {
            Some(Kind::Sim(spec)) => spec,
            other => panic!("unexpected workload {other:?}"),
        };
        let fabric = Fabric::set_up(spec).expect("set-up");
        let run = |op: u64| {
            let schedule = fabric.schedule(7, op).expect("schedule");
            fabric
                .run(schedule, job_seed(7, op), 1, Stepper::Fast)
                .expect("run")
                .digest()
        };
        assert_eq!(run(0), run(0));
        assert_ne!(run(0), run(1));
        assert_eq!(
            fabric.schedule(7, 3).expect("schedule"),
            fabric.schedule(7, 3).expect("schedule")
        );
    }
}
