//! Arrival processes: adversarial peak-load, periodic, bounded-random and
//! Poisson generators for message classes.
//!
//! The HRTDM arrival model is *unimodal arbitrary*: the only promise a class
//! makes is its density bound `a/w`. The feasibility conditions of §4.3 are
//! proved against the worst adversary within that bound, which
//! [`PeakLoad`] realises: bursts of `a` simultaneous arrivals every `w`
//! ticks starting at the critical instant 0 (all classes phase-aligned).
//! The other processes generate friendlier traffic — periodic with optional
//! jitter, density-respecting random, and (deliberately bound-violating)
//! Poisson for baseline comparisons.

use crate::class::MessageClass;
use crate::error::TrafficError;
use ddcr_sim::rng::{derive_seed, seeded_rng};
use ddcr_sim::Ticks;
use rand::Rng;

/// An arrival process: generates the arrival instants of one class over
/// `[0, horizon)`.
///
/// Implementations must be deterministic functions of `(self, class,
/// horizon)`; stochastic processes carry an explicit seed.
pub trait ArrivalProcess: std::fmt::Debug {
    /// Arrival instants, sorted non-decreasing, all `< horizon`.
    fn arrival_times(&self, class: &MessageClass, horizon: Ticks) -> Vec<Ticks>;
}

/// The adversarial peak-load process: `a` simultaneous arrivals at
/// `0, w, 2w, …` — the strongest arrival pattern permitted by the class's
/// density bound, and the pattern the feasibility conditions assume
/// ("peak-load conditions", §4.3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeakLoad;

impl ArrivalProcess for PeakLoad {
    fn arrival_times(&self, class: &MessageClass, horizon: Ticks) -> Vec<Ticks> {
        let mut times = Vec::new();
        let w = class.density.w;
        let mut t = Ticks::ZERO;
        while t < horizon {
            for _ in 0..class.density.a {
                times.push(t);
            }
            t += w;
        }
        times
    }
}

/// Periodic arrivals with period `w/a`, a fixed phase offset and optional
/// bounded jitter (each instant independently displaced by up to
/// `jitter` ticks, seeded).
///
/// With zero jitter the process trivially respects the density bound; with
/// jitter it may locally exceed it — which is precisely the "transit times
/// are inevitably variable" phenomenon of §2.2 that motivates the unimodal
/// arbitrary model. Use [`crate::validate::check_density`] to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Periodic {
    /// Phase of the first arrival.
    pub offset: Ticks,
    /// Maximum forward displacement applied to each arrival.
    pub jitter: Ticks,
    /// Seed for the jitter stream (ignored when `jitter` is zero).
    pub seed: u64,
}

impl Periodic {
    /// A zero-jitter periodic process starting at `offset`.
    pub fn new(offset: Ticks) -> Self {
        Periodic {
            offset,
            jitter: Ticks::ZERO,
            seed: 0,
        }
    }

    /// Adds bounded jitter.
    pub fn with_jitter(mut self, jitter: Ticks, seed: u64) -> Self {
        self.jitter = jitter;
        self.seed = seed;
        self
    }
}

impl ArrivalProcess for Periodic {
    fn arrival_times(&self, class: &MessageClass, horizon: Ticks) -> Vec<Ticks> {
        // Ceiling division: a·period ≥ w, so no sliding window of w ticks
        // ever holds more than a zero-jitter arrivals (floor division would
        // squeeze a+1 arrivals into a window whenever a ∤ w).
        let a = class.density.a;
        let period = Ticks(class.density.w.as_u64().div_ceil(a).max(1));
        let mut rng = seeded_rng(derive_seed(self.seed, u64::from(class.id.0)));
        let mut times = Vec::new();
        let mut t = self.offset;
        while t < horizon {
            let displaced = if self.jitter == Ticks::ZERO {
                t
            } else {
                t + Ticks(rng.gen_range(0..=self.jitter.as_u64()))
            };
            if displaced < horizon {
                times.push(displaced);
            }
            t += period;
        }
        times.sort_unstable();
        times
    }
}

/// Random arrivals that provably respect the density bound: exponential
/// candidate gaps (mean chosen so the long-run rate is `intensity · a/w`),
/// each arrival then pushed late enough that no `w`-window ever holds more
/// than `a` arrivals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedRandom {
    /// Fraction of the class's maximum rate to offer (0, 1].
    pub intensity: f64,
    /// RNG seed.
    pub seed: u64,
}

impl BoundedRandom {
    /// Creates the process, validating `0 < intensity ≤ 1`.
    ///
    /// # Errors
    ///
    /// Returns [`TrafficError::InvalidProcess`] when the intensity is
    /// outside `(0, 1]`.
    pub fn new(intensity: f64, seed: u64) -> Result<Self, TrafficError> {
        if !(intensity > 0.0 && intensity <= 1.0) {
            return Err(TrafficError::InvalidProcess(format!(
                "intensity must be in (0, 1], got {intensity}"
            )));
        }
        Ok(BoundedRandom { intensity, seed })
    }
}

impl ArrivalProcess for BoundedRandom {
    fn arrival_times(&self, class: &MessageClass, horizon: Ticks) -> Vec<Ticks> {
        let mut rng = seeded_rng(derive_seed(self.seed, u64::from(class.id.0)));
        let rate = class.density.rate() * self.intensity;
        let a = class.density.a as usize;
        let w = class.density.w;
        let mut times: Vec<Ticks> = Vec::new();
        let mut t = 0.0_f64;
        loop {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() / rate;
            if t >= horizon.as_u64() as f64 {
                break;
            }
            let mut instant = Ticks(t as u64);
            // Enforce the bound: the arrival `a` places back must be at
            // least `w` older, else delay this one just past the window.
            if times.len() >= a {
                let anchor = times[times.len() - a];
                if instant < anchor + w {
                    instant = anchor + w;
                    t = instant.as_u64() as f64;
                }
            }
            if instant >= horizon {
                break;
            }
            times.push(instant);
        }
        times
    }
}

/// Self-similar (long-range-dependent) traffic via Pareto ON/OFF periods —
/// the arrival process real Ethernet measurements exhibit (Leland et al.,
/// the paper's ref 11; Paxson & Floyd's "failure of Poisson modeling",
/// ref 12 — both cited in §2.2 as the reason the paper adopts the unimodal
/// arbitrary model instead of stochastic ones).
///
/// During an ON period the class arrives at its full density rate `a/w`;
/// OFF periods are silent. Both period lengths are Pareto-distributed with
/// shape `alpha ∈ (1, 2)` (infinite variance ⇒ long-range dependence; the
/// classical Ethernet fit is `alpha ≈ 1.2`). The long-run rate is scaled
/// by `intensity`. **Bursts routinely violate the (a, w) density bound**
/// — that is the point: it models the traffic a stochastic design would
/// face, for the E16 realism experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelfSimilar {
    /// Pareto shape for ON/OFF durations; `(1, 2)` gives LRD.
    pub alpha: f64,
    /// Long-run fraction of the class's density rate to offer (0, 1].
    pub intensity: f64,
    /// RNG seed.
    pub seed: u64,
}

impl SelfSimilar {
    /// Creates the process, validating `alpha ∈ (1, 2]` and
    /// `intensity ∈ (0, 1]`.
    ///
    /// # Errors
    ///
    /// Returns [`TrafficError::InvalidProcess`] on out-of-range parameters.
    pub fn new(alpha: f64, intensity: f64, seed: u64) -> Result<Self, TrafficError> {
        if !(alpha > 1.0 && alpha <= 2.0) {
            return Err(TrafficError::InvalidProcess(format!(
                "pareto shape must be in (1, 2], got {alpha}"
            )));
        }
        if !(intensity > 0.0 && intensity <= 1.0) {
            return Err(TrafficError::InvalidProcess(format!(
                "intensity must be in (0, 1], got {intensity}"
            )));
        }
        Ok(SelfSimilar {
            alpha,
            intensity,
            seed,
        })
    }

    /// A bounded Pareto draw with minimum `x_min` (truncated at 1000×
    /// `x_min` so a single period cannot swallow the whole horizon).
    fn pareto(&self, rng: &mut rand::rngs::StdRng, x_min: f64) -> f64 {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        (x_min / u.powf(1.0 / self.alpha)).min(x_min * 1000.0)
    }
}

impl ArrivalProcess for SelfSimilar {
    fn arrival_times(&self, class: &MessageClass, horizon: Ticks) -> Vec<Ticks> {
        let mut rng = seeded_rng(derive_seed(self.seed, u64::from(class.id.0)));
        // During ON, arrivals are spaced at the class's full-rate period;
        // mean ON/OFF lengths chosen so the long-run rate is
        // intensity · a/w: E[pareto(x_min)] = x_min·α/(α−1), so equal
        // x_min for ON and OFF gives duty cycle 1/2 — scale OFF for the
        // requested intensity.
        let on_gap = class.density.w.as_u64() as f64 / class.density.a as f64;
        let mean_on = 8.0 * on_gap;
        let duty = self.intensity.min(1.0);
        let off_scale = mean_on * (1.0 - duty) / duty.max(f64::EPSILON);
        let mut times = Vec::new();
        let mut t = 0.0f64;
        let end = horizon.as_u64() as f64;
        while t < end {
            // ON period: arrivals at the full density rate.
            let on_len = self.pareto(&mut rng, mean_on * (self.alpha - 1.0) / self.alpha);
            let on_end = (t + on_len).min(end);
            while t < on_end {
                times.push(Ticks(t as u64));
                t += on_gap;
            }
            // OFF period.
            let off_len = self.pareto(
                &mut rng,
                (off_scale * (self.alpha - 1.0) / self.alpha).max(1.0),
            );
            t += off_len;
        }
        times.retain(|&x| x < horizon);
        times.sort_unstable();
        times
    }
}

/// Replays a recorded list of arrival instants — for feeding captured or
/// hand-crafted traces (e.g. a specific adversarial pattern found by
/// search) through the same pipeline as the synthetic processes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Replay {
    times: Vec<Ticks>,
}

impl Replay {
    /// Creates a replay process; instants are sorted internally.
    pub fn new(mut times: Vec<Ticks>) -> Self {
        times.sort_unstable();
        Replay { times }
    }

    /// Validates the trace against a density bound before use.
    ///
    /// # Errors
    ///
    /// Returns [`TrafficError::DensityViolation`] if the recorded trace
    /// exceeds the bound.
    pub fn validated(times: Vec<Ticks>, bound: crate::DensityBound) -> Result<Self, TrafficError> {
        let replay = Replay::new(times);
        crate::validate::check_density(&replay.times, bound)?;
        Ok(replay)
    }
}

impl ArrivalProcess for Replay {
    fn arrival_times(&self, _class: &MessageClass, horizon: Ticks) -> Vec<Ticks> {
        self.times
            .iter()
            .copied()
            .take_while(|&t| t < horizon)
            .collect()
    }
}

/// Memoryless Poisson arrivals at rate `intensity · a/w`.
///
/// Poisson traffic does **not** respect the density bound (bursts of any
/// size have positive probability); the paper cites exactly this mismatch
/// as the flaw of stochastic feasibility analyses. Provided for baseline
/// experiments (E8) only.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    /// Rate multiplier relative to the class's density rate.
    pub intensity: f64,
    /// RNG seed.
    pub seed: u64,
}

impl ArrivalProcess for Poisson {
    fn arrival_times(&self, class: &MessageClass, horizon: Ticks) -> Vec<Ticks> {
        let mut rng = seeded_rng(derive_seed(self.seed, u64::from(class.id.0)));
        let rate = class.density.rate() * self.intensity;
        let mut times = Vec::new();
        let mut t = 0.0_f64;
        loop {
            let u: f64 = rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() / rate;
            if t >= horizon.as_u64() as f64 {
                break;
            }
            times.push(Ticks(t as u64));
        }
        times
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::DensityBound;
    use crate::validate::check_density;
    use ddcr_sim::{ClassId, SourceId};

    fn class(a: u64, w: u64) -> MessageClass {
        MessageClass {
            id: ClassId(0),
            name: "test".into(),
            source: SourceId(0),
            bits: 1000,
            deadline: Ticks(100_000),
            density: DensityBound::new(a, Ticks(w)).unwrap(),
        }
    }

    #[test]
    fn peak_load_bursts_at_window_starts() {
        let c = class(3, 1000);
        let times = PeakLoad.arrival_times(&c, Ticks(2500));
        assert_eq!(
            times,
            vec![
                Ticks(0),
                Ticks(0),
                Ticks(0),
                Ticks(1000),
                Ticks(1000),
                Ticks(1000),
                Ticks(2000),
                Ticks(2000),
                Ticks(2000)
            ]
        );
        assert!(check_density(&times, c.density).is_ok());
    }

    #[test]
    fn periodic_is_evenly_spaced() {
        let c = class(2, 1000); // period 500
        let times = Periodic::new(Ticks(100)).arrival_times(&c, Ticks(2100));
        assert_eq!(
            times,
            vec![Ticks(100), Ticks(600), Ticks(1100), Ticks(1600)]
        );
        assert!(check_density(&times, c.density).is_ok());
    }

    #[test]
    fn periodic_jitter_is_bounded_and_deterministic() {
        let c = class(1, 1000);
        let p = Periodic::new(Ticks::ZERO).with_jitter(Ticks(100), 42);
        let a = p.arrival_times(&c, Ticks(10_000));
        let b = p.arrival_times(&c, Ticks(10_000));
        assert_eq!(a, b);
        for (i, t) in a.iter().enumerate() {
            let nominal = 1000 * i as u64;
            assert!(t.as_u64() >= nominal && t.as_u64() <= nominal + 100);
        }
    }

    #[test]
    fn bounded_random_respects_density() {
        let c = class(3, 1000);
        for seed in 0..8 {
            let p = BoundedRandom::new(1.0, seed).unwrap();
            let times = p.arrival_times(&c, Ticks(100_000));
            assert!(!times.is_empty());
            assert!(
                check_density(&times, c.density).is_ok(),
                "seed {seed} violated the bound"
            );
        }
    }

    #[test]
    fn bounded_random_rejects_bad_intensity() {
        assert!(BoundedRandom::new(0.0, 0).is_err());
        assert!(BoundedRandom::new(1.5, 0).is_err());
        assert!(BoundedRandom::new(f64::NAN, 0).is_err());
    }

    #[test]
    fn poisson_rate_roughly_matches() {
        let c = class(1, 1000); // rate 0.001
        let p = Poisson {
            intensity: 1.0,
            seed: 7,
        };
        let times = p.arrival_times(&c, Ticks(1_000_000));
        // Expect ~1000 arrivals; allow wide tolerance.
        assert!((700..1300).contains(&times.len()), "got {}", times.len());
    }

    #[test]
    fn self_similar_is_bursty_and_deterministic() {
        let c = class(1, 1_000);
        let p = SelfSimilar::new(1.2, 0.5, 9).unwrap();
        let a = p.arrival_times(&c, Ticks(2_000_000));
        let b = p.arrival_times(&c, Ticks(2_000_000));
        assert_eq!(a, b, "must be a pure function of the seed");
        assert!(!a.is_empty());
        assert!(a.windows(2).all(|p| p[0] <= p[1]));
        // Burstiness: the ON periods pack arrivals at the full rate, so the
        // trace should violate a density bound tighter than the full rate…
        // here the bound itself (a=1/w=1000) is met *during* ON periods,
        // but long-range dependence shows as high variance of per-window
        // counts; check that both dense and empty 10k-windows exist.
        let window = 10_000u64;
        let horizon = 2_000_000u64;
        let mut counts = vec![0u32; (horizon / window) as usize];
        for t in &a {
            let idx = (t.as_u64() / window) as usize;
            if idx < counts.len() {
                counts[idx] += 1;
            }
        }
        let max = counts.iter().max().copied().unwrap();
        let zeros = counts.iter().filter(|&&c| c == 0).count();
        assert!(max >= 5, "no dense window: max = {max}");
        assert!(zeros > 0, "no silent window");
    }

    #[test]
    fn self_similar_validates_parameters() {
        assert!(SelfSimilar::new(1.0, 0.5, 0).is_err());
        assert!(SelfSimilar::new(2.5, 0.5, 0).is_err());
        assert!(SelfSimilar::new(1.2, 0.0, 0).is_err());
        assert!(SelfSimilar::new(1.2, 1.5, 0).is_err());
    }

    #[test]
    fn replay_reproduces_and_validates() {
        let c = class(2, 1000);
        let replay = Replay::new(vec![Ticks(500), Ticks(10), Ticks(2000)]);
        assert_eq!(
            replay.arrival_times(&c, Ticks(1500)),
            vec![Ticks(10), Ticks(500)]
        );
        assert!(Replay::validated(vec![Ticks(0), Ticks(1)], c.density).is_ok());
        assert!(Replay::validated(vec![Ticks(0), Ticks(1), Ticks(2)], c.density).is_err());
    }

    #[test]
    fn all_processes_sorted_and_within_horizon() {
        let c = class(2, 500);
        let horizon = Ticks(10_000);
        let runs: Vec<Vec<Ticks>> = vec![
            PeakLoad.arrival_times(&c, horizon),
            Periodic::new(Ticks(3)).arrival_times(&c, horizon),
            BoundedRandom::new(0.5, 1)
                .unwrap()
                .arrival_times(&c, horizon),
            Poisson {
                intensity: 0.5,
                seed: 1,
            }
            .arrival_times(&c, horizon),
        ];
        for times in runs {
            assert!(times.windows(2).all(|p| p[0] <= p[1]));
            assert!(times.iter().all(|&t| t < horizon));
        }
    }
}
