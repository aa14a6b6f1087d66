//! Deterministic, seeded fault injection for the broadcast channel.
//!
//! The paper's analysis assumes an ideal medium; real broadcast channels
//! (§3.2 names Ethernet segments and busses internal to ATM nodes) corrupt
//! slots, lose frames to CRC errors, and host stations that crash and come
//! back. A [`FaultPlan`] is an explicit, precomputed schedule of such
//! faults, keyed by **decision-slot ordinal** — the count of decision slots
//! the engine has resolved — so a plan applies bitwise-identically whether
//! the engine steps slot by slot or jumps idle stretches with the
//! fast-forward path (which refuses to skip over a scheduled fault).
//!
//! Plans are either handcrafted ([`FaultPlan::from_events`]) for
//! adversarial checking, or generated from a seed and per-slot rates
//! ([`FaultPlan::generate`]) via the same domain-separated SplitMix64
//! stream every other stochastic component uses — a run under faults is a
//! pure function of `(configuration, workload, seed)`.
//!
//! # Generated plans
//!
//! **Draw order.** Each fault kind has its own lane, `fault_seed(seed, k)`
//! for corrupt (`k = 0`), erase (1) and crash (2). Slot `s` draws
//! `derive_seed(corrupt_lane, s)` and `derive_seed(erase_lane, s)`; station
//! `j` of `z` draws `derive_seed(crash_lane, s·z + j)` (index arithmetic
//! wraps). A draw `h` fires when `unit(h) = (h >> 11) / 2⁵³` is below the
//! lane's rate, and a crash draw only counts while its station is up
//! (`down_until[j] <= s`). Within a slot the events come out as corrupt,
//! then erase, then crashes in ascending station order.
//!
//! **Integer thresholds.** `unit(h) < rate` is decided without floating
//! point: `m = h >> 11` is an integer below 2⁵³, `m / 2⁵³` and
//! `rate · 2⁵³` are both exact in `f64` (scaling by a power of two only
//! moves the exponent, and a subnormal rate scales up to a normal
//! number), and for an integer `m`, `m < x` holds exactly when
//! `m < ⌈x⌉`. So the comparison is `m < threshold(rate)` with
//! `threshold(rate) = ⌈rate · 2⁵³⌉` clamped to `[0, 2⁵³]`: NaN and
//! negative rates give 0 (never fire), rates ≥ 1 give 2⁵³ (always fire).
//!
//! **The crash scan.** Crash draw `s·z + j` mixes
//! `crash_lane + γ·(s·z + j + 1)` (γ the SplitMix64 gamma), which is the
//! per-slot base `crash_lane + γ·z·s` plus the fixed station offset
//! `γ·(j + 1)`; the next slot adds `γ·z` to the base. The scan looks for
//! the first slot where any station's draw is below the threshold, with
//! no branch inside the station loop, so the compiler vectorizes it. Only
//! on such a slot does a scalar pass apply the `down_until` exclusion and
//! emit crashes. Plans are bit-identical to drawing every (slot, station)
//! pair one by one, which is what the tests compare against.
//!
//! **Dispatch.** The scan body is written once and compiled three times:
//! for AVX-512 (`avx512f` + `avx512dq`, which adds the 64-bit vector
//! multiply), for AVX2, and portably. Each plan uses the widest instance
//! `is_x86_feature_detected!` reports; targets other than x86_64 use the
//! portable one. [`FaultPlan::kernel`] names the instance in use.

use crate::channel::Observation;
use crate::message::Frame;
use crate::rng::{derive_seed, fault_seed, mix, GAMMA};
use crate::time::Ticks;
use serde::{Deserialize, Serialize};
use std::fmt;

/// What kind of fault strikes a decision slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Channel noise: every station perceives the slot as a destructive
    /// collision, whatever actually happened. A transmitter treats it as a
    /// collision and retries; a genuinely busy slot delivers nothing and
    /// costs one slot time (collision detection aborts the transfer).
    CorruptSlot,
    /// CRC loss: if the slot resolves to a decodable frame (a lone
    /// transmission, or the survivor of an arbitrated collision), the
    /// channel is held for the frame's full duration but nothing is
    /// decoded — stations observe [`Observation::Garbled`]. A no-op on
    /// silent and destructively-collided slots.
    EraseFrame,
    /// Station omission failure: the station crashes at the start of the
    /// slot, stays off the channel for `down_slots` decision slots, then
    /// restarts (see [`crate::Station::crash`] / [`crate::Station::restart`]).
    Crash {
        /// Index of the station that fails.
        station: u32,
        /// Decision slots the station stays down before restarting.
        down_slots: u64,
    },
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// Decision-slot ordinal (0-based count of resolved slots) the fault
    /// strikes at.
    pub slot: u64,
    /// The fault.
    pub kind: FaultKind,
}

/// Per-slot fault probabilities for seeded plan generation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct FaultRates {
    /// Probability a slot is corrupted.
    pub corrupt: f64,
    /// Probability a decodable frame in a slot is erased.
    pub erase: f64,
    /// Per-station probability of crashing at a slot (while up).
    pub crash: f64,
    /// Down time of every generated crash, in decision slots.
    pub down_slots: u64,
}

impl FaultRates {
    /// Checks that every rate is a probability: finite and in `[0, 1]`.
    ///
    /// [`FaultPlan::generate`] itself accepts any `f64` (a NaN or negative
    /// rate never fires, a rate above 1 always does); front ends call this
    /// so a mistyped rate is an error instead of a silently different
    /// plan.
    ///
    /// # Errors
    ///
    /// Returns [`FaultRateError`] naming the first lane (`corrupt`,
    /// `erase`, `crash`) whose rate is NaN, infinite, negative or above 1.
    ///
    /// # Examples
    ///
    /// ```
    /// use ddcr_sim::FaultRates;
    ///
    /// let ok = FaultRates { crash: 2e-6, down_slots: 64, ..FaultRates::default() };
    /// assert!(ok.validate().is_ok());
    /// let bad = FaultRates { crash: f64::NAN, ..ok };
    /// assert_eq!(bad.validate().unwrap_err().lane, "crash");
    /// ```
    pub fn validate(&self) -> Result<(), FaultRateError> {
        for (lane, rate) in [
            ("corrupt", self.corrupt),
            ("erase", self.erase),
            ("crash", self.crash),
        ] {
            if !(0.0..=1.0).contains(&rate) {
                return Err(FaultRateError { lane, rate });
            }
        }
        Ok(())
    }
}

/// A [`FaultRates`] lane whose rate is not a probability (see
/// [`FaultRates::validate`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRateError {
    /// The lane: `"corrupt"`, `"erase"` or `"crash"`.
    pub lane: &'static str,
    /// The offending rate.
    pub rate: f64,
}

impl fmt::Display for FaultRateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} rate must be a probability in [0, 1], got {}",
            self.lane, self.rate
        )
    }
}

impl std::error::Error for FaultRateError {}

/// What the faults scheduled for one slot did to its resolved outcome.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotFaults {
    /// The slot was forced to read as a destructive collision.
    pub corrupted: bool,
    /// The frame that was erased on the wire, if any.
    pub erased: Option<Frame>,
}

/// A replayable fault schedule: events sorted by slot ordinal.
///
/// # Examples
///
/// ```
/// use ddcr_sim::{FaultEvent, FaultKind, FaultPlan};
///
/// let plan = FaultPlan::from_events(vec![
///     FaultEvent { slot: 3, kind: FaultKind::CorruptSlot },
///     FaultEvent { slot: 0, kind: FaultKind::Crash { station: 1, down_slots: 8 } },
/// ]);
/// assert_eq!(plan.len(), 2);
/// assert_eq!(plan.next_event_at_or_after(0), Some(0));
/// assert_eq!(plan.next_event_at_or_after(1), Some(3));
/// assert_eq!(plan.next_event_at_or_after(4), None);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// The empty plan: injects nothing. An engine running under it is
    /// bitwise identical to one with no plan at all (the equivalence test
    /// suite asserts exactly that).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Builds a plan from explicit events (sorted internally by slot;
    /// within a slot, the given order is kept).
    pub fn from_events(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.slot);
        FaultPlan { events }
    }

    /// Generates a plan over `horizon_slots` decision slots from `seed` and
    /// per-slot `rates`, for a network of `stations` stations.
    ///
    /// The draws come from [`fault_seed`]-separated SplitMix64 lanes — one
    /// lane per fault kind — indexed by slot ordinal (and station, for
    /// crashes), so the plan depends only on `(seed, stations,
    /// horizon_slots, rates)`. A station already down is not re-crashed:
    /// generated crash intervals never overlap per station. The module
    /// docs give the exact draw order.
    pub fn generate(seed: u64, stations: u32, horizon_slots: u64, rates: &FaultRates) -> Self {
        Self::generate_with(Kernel::detect(), seed, stations, horizon_slots, rates)
    }

    /// The crash-scan instance [`FaultPlan::generate`] runs on this host:
    /// `"avx512"`, `"avx2"` or `"portable"`. Every instance yields the same
    /// plans; only their speed differs.
    pub fn kernel() -> &'static str {
        Kernel::detect().name()
    }

    fn generate_with(
        kernel: Kernel,
        seed: u64,
        stations: u32,
        horizon_slots: u64,
        rates: &FaultRates,
    ) -> Self {
        // A zero threshold never fires, so an inert lane draws nothing —
        // and with every lane inert the horizon is never walked. `ddcr run`
        // and the federation paths call this with all-zero defaults and
        // horizons in the millions of slots; the plan must cost nothing
        // there.
        let corrupt = threshold(rates.corrupt);
        let erase = threshold(rates.erase);
        let crash_threshold = threshold(rates.crash);
        let mut crash = (stations > 0 && rates.down_slots > 0 && crash_threshold > 0)
            .then(|| CrashScan::new(fault_seed(seed, 2), stations, crash_threshold));
        if corrupt == 0 && erase == 0 && crash.is_none() {
            return FaultPlan::none();
        }
        let corrupt_lane = fault_seed(seed, 0);
        let erase_lane = fault_seed(seed, 1);
        let mut events = Vec::new();
        let mut from = 0;
        while from < horizon_slots {
            let hit = crash
                .as_ref()
                .and_then(|scan| scan.first_hit(kernel, from, horizon_slots));
            let to = hit.map_or(horizon_slots, |slot| slot + 1);
            if corrupt > 0 || erase > 0 {
                for slot in from..to {
                    if corrupt > 0 && derive_seed(corrupt_lane, slot) >> 11 < corrupt {
                        events.push(FaultEvent {
                            slot,
                            kind: FaultKind::CorruptSlot,
                        });
                    }
                    if erase > 0 && derive_seed(erase_lane, slot) >> 11 < erase {
                        events.push(FaultEvent {
                            slot,
                            kind: FaultKind::EraseFrame,
                        });
                    }
                }
            }
            if let (Some(slot), Some(scan)) = (hit, crash.as_mut()) {
                scan.emit(slot, rates.down_slots, &mut events);
            }
            from = to;
        }
        FaultPlan { events }
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// All events, sorted by slot.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// The ordinal of the first event at or after `slot`, if any — the
    /// fast-forward path uses this to bound silence jumps so no scheduled
    /// fault is ever skipped over.
    pub fn next_event_at_or_after(&self, slot: u64) -> Option<u64> {
        let i = self.events.partition_point(|e| e.slot < slot);
        self.events.get(i).map(|e| e.slot)
    }

    /// The events scheduled exactly at `slot`.
    pub fn events_at(&self, slot: u64) -> &[FaultEvent] {
        let lo = self.events.partition_point(|e| e.slot < slot);
        let hi = self.events.partition_point(|e| e.slot <= slot);
        &self.events[lo..hi]
    }

    /// The crash events scheduled at `slot`, as `(station, down_slots)`.
    pub fn crashes_at(&self, slot: u64) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.events_at(slot).iter().filter_map(|e| match e.kind {
            FaultKind::Crash {
                station,
                down_slots,
            } => Some((station, down_slots)),
            _ => None,
        })
    }

    /// Applies the channel faults (corruption, erasure — crashes are
    /// handled by the engine loop) scheduled at `slot` to a resolved
    /// observation, returning the faulted observation, the channel time it
    /// consumes, and what happened.
    ///
    /// Corruption wins over erasure when both strike: a corrupted slot
    /// reads as a destructive collision (one slot time), leaving no
    /// decodable frame to erase.
    pub fn apply(
        &self,
        slot: u64,
        slot_ticks: Ticks,
        observation: Observation,
        advance: Ticks,
    ) -> (Observation, Ticks, SlotFaults) {
        let mut faults = SlotFaults::default();
        let events = self.events_at(slot);
        if events.is_empty() {
            return (observation, advance, faults);
        }
        let mut observation = observation;
        let mut advance = advance;
        if events
            .iter()
            .any(|e| matches!(e.kind, FaultKind::CorruptSlot))
        {
            faults.corrupted = true;
            observation = Observation::Collision { survivor: None };
            advance = slot_ticks;
        }
        if events
            .iter()
            .any(|e| matches!(e.kind, FaultKind::EraseFrame))
        {
            let decoded = match observation {
                Observation::Busy(f) => Some(f),
                Observation::Collision { survivor } => survivor,
                Observation::Silence | Observation::Garbled => None,
            };
            if let Some(frame) = decoded {
                faults.erased = Some(frame);
                observation = Observation::Garbled;
                advance = frame.duration();
            }
        }
        (observation, advance, faults)
    }
}

/// Caps a fast-forward run so it never crosses a fault transition.
///
/// Every fast-forward tier (idle silence skips, contention search runs,
/// attempt-cycle runs) shares one fencing rule: a jump of at most `cap`
/// decision slots starting at `slot_ordinal` must stop short of the next
/// scheduled fault event **and** of the earliest pending station restart
/// (`next_restart`, the engine's restart fence: `Some(r)` means a crashed
/// station restarts at ordinal `r`), because the slot a transition
/// strikes must go through the reference stepper. Returns the fenced cap;
/// with an empty plan nothing can be down (crashes only originate from
/// the plan) and `cap` passes through untouched.
pub(crate) fn fence_cap(
    plan: &FaultPlan,
    next_restart: Option<u64>,
    slot_ordinal: u64,
    cap: u64,
) -> u64 {
    if plan.is_empty() {
        return cap;
    }
    let wake = [plan.next_event_at_or_after(slot_ordinal), next_restart]
        .into_iter()
        .flatten()
        .min();
    match wake {
        Some(w) => cap.min(w.saturating_sub(slot_ordinal)),
        None => cap,
    }
}

/// The integer form of a per-draw rate: a draw `h` fires exactly when
/// `(h >> 11) < threshold(rate)`, i.e. when `(h >> 11) / 2⁵³ < rate` (the
/// module docs give the exactness argument). NaN and negative rates give
/// 0, rates ≥ 1 give 2⁵³.
fn threshold(rate: f64) -> u64 {
    const ONE: u64 = 1 << 53;
    let scaled = (rate * ONE as f64).ceil();
    if scaled >= ONE as f64 {
        ONE
    } else if scaled > 0.0 {
        scaled as u64
    } else {
        0
    }
}

/// An instance of the crash scan (see the module docs' dispatch rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    Avx512,
    Avx2,
    Portable,
}

impl Kernel {
    /// Widest first.
    const ALL: [Kernel; 3] = [Kernel::Avx512, Kernel::Avx2, Kernel::Portable];

    /// The widest instance this host runs.
    fn detect() -> Kernel {
        Kernel::ALL
            .into_iter()
            .find(|kernel| kernel.supported())
            .unwrap_or(Kernel::Portable)
    }

    /// Whether this host has the instance's target features.
    fn supported(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx512 => {
                is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq")
            }
            #[cfg(target_arch = "x86_64")]
            Kernel::Avx2 => is_x86_feature_detected!("avx2"),
            Kernel::Portable => true,
            #[cfg(not(target_arch = "x86_64"))]
            Kernel::Avx512 | Kernel::Avx2 => false,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kernel::Avx512 => "avx512",
            Kernel::Avx2 => "avx2",
            Kernel::Portable => "portable",
        }
    }
}

/// The crash lane of one plan, laid out for the slot-by-slot scan: draw
/// `s·z + j` mixes `seed + step·s + offsets[j]`.
struct CrashScan {
    /// Per station, the first slot at which it is up (may crash) again.
    down_until: Vec<u64>,
    /// The lane seed: the base of slot 0.
    seed: u64,
    /// `γ·z`, what one slot adds to the base.
    step: u64,
    /// `γ·(j + 1)` for each station `j`.
    offsets: Box<[u64]>,
    /// The crash rate's [`threshold`].
    threshold: u64,
}

impl CrashScan {
    fn new(seed: u64, stations: u32, threshold: u64) -> Self {
        CrashScan {
            down_until: vec![0; stations as usize],
            seed,
            step: GAMMA.wrapping_mul(u64::from(stations)),
            offsets: (1..=u64::from(stations))
                .map(|j| GAMMA.wrapping_mul(j))
                .collect(),
            threshold,
        }
    }

    /// The first slot in `from..to` where some station's crash draw fires,
    /// whether or not that station is up, on the requested instance (the
    /// portable one where the host lacks its features).
    fn first_hit(&self, kernel: Kernel, from: u64, to: u64) -> Option<u64> {
        #[cfg(target_arch = "x86_64")]
        {
            if kernel == Kernel::Avx512 && Kernel::Avx512.supported() {
                // SAFETY: `Kernel::supported` just saw avx512f and avx512dq
                // through `is_x86_feature_detected!`.
                return unsafe { scan_avx512(self, from, to) };
            }
            if kernel == Kernel::Avx2 && Kernel::Avx2.supported() {
                // SAFETY: `Kernel::supported` just saw avx2 through
                // `is_x86_feature_detected!`.
                return unsafe { scan_avx2(self, from, to) };
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = kernel;
        scan(self, from, to)
    }

    /// The scalar pass over a hit slot: every up station whose draw fires
    /// crashes, in ascending station order, and stays down `down_slots`.
    fn emit(&mut self, slot: u64, down_slots: u64, events: &mut Vec<FaultEvent>) {
        let base = self.seed.wrapping_add(self.step.wrapping_mul(slot));
        let stations = self.offsets.iter().zip(self.down_until.iter_mut());
        for (station, (&offset, until)) in stations.enumerate() {
            if *until <= slot && mix(base.wrapping_add(offset)) >> 11 < self.threshold {
                *until = slot.wrapping_add(down_slots);
                events.push(FaultEvent {
                    slot,
                    kind: FaultKind::Crash {
                        station: station as u32,
                        down_slots,
                    },
                });
            }
        }
    }
}

/// The crash scan's one body (see [`CrashScan::first_hit`]). The station
/// loop ORs every comparison without branching, so it vectorizes under
/// whatever target features the caller enables.
#[inline(always)]
fn scan(crash: &CrashScan, from: u64, to: u64) -> Option<u64> {
    let threshold = crash.threshold;
    let mut base = crash.seed.wrapping_add(crash.step.wrapping_mul(from));
    for slot in from..to {
        let mut fired = false;
        for &offset in crash.offsets.iter() {
            fired |= mix(base.wrapping_add(offset)) >> 11 < threshold;
        }
        if fired {
            return Some(slot);
        }
        base = base.wrapping_add(crash.step);
    }
    None
}

/// [`scan`] under AVX-512. Calling it needs `unsafe`: the caller must
/// have detected avx512f and avx512dq on this host.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
fn scan_avx512(crash: &CrashScan, from: u64, to: u64) -> Option<u64> {
    scan(crash, from, to)
}

/// [`scan`] under AVX2. Calling it needs `unsafe`: the caller must have
/// detected avx2 on this host.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn scan_avx2(crash: &CrashScan, from: u64, to: u64) -> Option<u64> {
    scan(crash, from, to)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{ClassId, Message, MessageId, SourceId};

    fn frame(bits: u64) -> Frame {
        Frame::new(
            Message {
                id: MessageId(0),
                source: SourceId(0),
                class: ClassId(0),
                bits,
                arrival: Ticks(0),
                deadline: Ticks(1_000),
            },
            bits + 208,
        )
    }

    #[test]
    fn events_sorted_and_queryable() {
        let plan = FaultPlan::from_events(vec![
            FaultEvent { slot: 9, kind: FaultKind::EraseFrame },
            FaultEvent { slot: 2, kind: FaultKind::CorruptSlot },
            FaultEvent { slot: 2, kind: FaultKind::EraseFrame },
        ]);
        assert_eq!(plan.events_at(2).len(), 2);
        assert_eq!(plan.events_at(3).len(), 0);
        assert_eq!(plan.next_event_at_or_after(3), Some(9));
        assert_eq!(plan.next_event_at_or_after(10), None);
    }

    #[test]
    fn empty_plan_is_identity() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        let (obs, adv, f) = plan.apply(0, Ticks(512), Observation::Busy(frame(1000)), Ticks(1208));
        assert_eq!(obs, Observation::Busy(frame(1000)));
        assert_eq!(adv, Ticks(1208));
        assert_eq!(f, SlotFaults::default());
    }

    #[test]
    fn corruption_forces_destructive_collision() {
        let plan = FaultPlan::from_events(vec![FaultEvent {
            slot: 4,
            kind: FaultKind::CorruptSlot,
        }]);
        let (obs, adv, f) =
            plan.apply(4, Ticks(512), Observation::Busy(frame(1000)), Ticks(1208));
        assert_eq!(obs, Observation::Collision { survivor: None });
        assert_eq!(adv, Ticks(512));
        assert!(f.corrupted);
        assert!(f.erased.is_none());
        // Other slots untouched.
        let (obs, ..) = plan.apply(5, Ticks(512), Observation::Silence, Ticks(512));
        assert_eq!(obs, Observation::Silence);
    }

    #[test]
    fn erasure_garbles_busy_and_survivor_slots_only() {
        let plan = FaultPlan::from_events(vec![FaultEvent {
            slot: 0,
            kind: FaultKind::EraseFrame,
        }]);
        let f = frame(1000);
        let (obs, adv, sf) = plan.apply(0, Ticks(512), Observation::Busy(f), f.duration());
        assert_eq!(obs, Observation::Garbled);
        assert_eq!(adv, f.duration(), "channel still held for the frame");
        assert_eq!(sf.erased, Some(f));
        // Arbitrated survivor erased too.
        let (obs, adv, _) = plan.apply(
            0,
            Ticks(512),
            Observation::Collision { survivor: Some(f) },
            f.duration(),
        );
        assert_eq!(obs, Observation::Garbled);
        assert_eq!(adv, f.duration());
        // No-op on silence and destructive collisions.
        let (obs, ..) = plan.apply(0, Ticks(512), Observation::Silence, Ticks(512));
        assert_eq!(obs, Observation::Silence);
        let (obs, ..) = plan.apply(
            0,
            Ticks(512),
            Observation::Collision { survivor: None },
            Ticks(512),
        );
        assert_eq!(obs, Observation::Collision { survivor: None });
    }

    #[test]
    fn corruption_wins_over_erasure() {
        let plan = FaultPlan::from_events(vec![
            FaultEvent { slot: 0, kind: FaultKind::EraseFrame },
            FaultEvent { slot: 0, kind: FaultKind::CorruptSlot },
        ]);
        let (obs, adv, sf) =
            plan.apply(0, Ticks(512), Observation::Busy(frame(1000)), Ticks(1208));
        assert_eq!(obs, Observation::Collision { survivor: None });
        assert_eq!(adv, Ticks(512));
        assert!(sf.corrupted && sf.erased.is_none());
    }

    #[test]
    fn generation_is_deterministic_and_rate_scaled() {
        let rates = FaultRates {
            corrupt: 0.01,
            erase: 0.02,
            crash: 0.001,
            down_slots: 50,
        };
        let a = FaultPlan::generate(42, 4, 10_000, &rates);
        let b = FaultPlan::generate(42, 4, 10_000, &rates);
        assert_eq!(a, b);
        let c = FaultPlan::generate(43, 4, 10_000, &rates);
        assert_ne!(a, c, "different seed, different plan");
        // Counts in the statistical ballpark (wide tolerances; the draws
        // are fixed by the seed, so this cannot flake).
        let corrupt = a
            .events()
            .iter()
            .filter(|e| e.kind == FaultKind::CorruptSlot)
            .count();
        assert!((30..300).contains(&corrupt), "corrupt events: {corrupt}");
    }

    #[test]
    fn zero_rates_generate_nothing() {
        let plan = FaultPlan::generate(7, 8, 100_000, &FaultRates::default());
        assert!(plan.is_empty());
    }

    #[test]
    fn zero_rates_skip_the_horizon_walk_entirely() {
        // Regression: an all-zero plan must cost O(1), not O(horizon).
        // This horizon would take years to walk slot by slot; the test
        // only terminates because `generate` early-outs.
        let plan = FaultPlan::generate(7, 1024, u64::MAX / 2, &FaultRates::default());
        assert!(plan.is_empty());
    }

    #[test]
    fn single_active_lane_matches_full_generation() {
        // The per-lane guards must not perturb the draws of lanes that
        // remain active: a corrupt-only plan generated alongside inert
        // erase/crash lanes is exactly the corrupt subset of a plan where
        // every lane is live (lanes are seed-separated and independent).
        let all = FaultRates {
            corrupt: 0.01,
            erase: 0.02,
            crash: 0.001,
            down_slots: 50,
        };
        let corrupt_only = FaultRates {
            corrupt: 0.01,
            ..FaultRates::default()
        };
        let full = FaultPlan::generate(99, 16, 50_000, &all);
        let partial = FaultPlan::generate(99, 16, 50_000, &corrupt_only);
        assert!(!partial.is_empty());
        let expected: Vec<FaultEvent> = full
            .events()
            .iter()
            .copied()
            .filter(|e| matches!(e.kind, FaultKind::CorruptSlot))
            .collect();
        assert_eq!(partial.events(), expected.as_slice());
    }

    #[test]
    fn fence_cap_passes_through_with_empty_plan() {
        // No plan means no faults and nothing down: the cap is untouched.
        assert_eq!(fence_cap(&FaultPlan::none(), None, 0, u64::MAX), u64::MAX);
        assert_eq!(fence_cap(&FaultPlan::none(), None, 7, 42), 42);
    }

    #[test]
    fn fence_cap_stops_short_of_the_next_scheduled_event() {
        let plan = FaultPlan::from_events(vec![
            FaultEvent { slot: 10, kind: FaultKind::CorruptSlot },
            FaultEvent { slot: 30, kind: FaultKind::EraseFrame },
        ]);
        // From ordinal 4 the run may cover slots 4..10 only.
        assert_eq!(fence_cap(&plan, None, 4, u64::MAX), 6);
        // A tighter caller cap wins.
        assert_eq!(fence_cap(&plan, None, 4, 3), 3);
        // A fault due right now fences the run to zero slots.
        assert_eq!(fence_cap(&plan, None, 10, u64::MAX), 0);
        // Past the event, the next one fences.
        assert_eq!(fence_cap(&plan, None, 11, u64::MAX), 19);
        // Past every event, the cap passes through.
        assert_eq!(fence_cap(&plan, None, 31, 9), 9);
    }

    #[test]
    fn fence_cap_stops_short_of_a_pending_restart() {
        let plan = FaultPlan::from_events(vec![FaultEvent {
            slot: 0,
            kind: FaultKind::Crash { station: 0, down_slots: 20 },
        }]);
        // The scheduled event at slot 0 is behind us; only the restart at
        // ordinal 20 fences.
        assert_eq!(fence_cap(&plan, Some(20), 5, u64::MAX), 15);
        // The earliest of restart and event wins.
        let plan2 = FaultPlan::from_events(vec![
            FaultEvent { slot: 0, kind: FaultKind::Crash { station: 0, down_slots: 20 } },
            FaultEvent { slot: 12, kind: FaultKind::CorruptSlot },
        ]);
        assert_eq!(fence_cap(&plan2, Some(20), 5, u64::MAX), 7);
        assert_eq!(fence_cap(&plan2, Some(9), 5, u64::MAX), 4);
        // A restart due at or before the current ordinal fences to zero.
        assert_eq!(fence_cap(&plan, Some(5), 5, u64::MAX), 0);
    }

    #[test]
    fn generated_crashes_never_overlap_per_station() {
        let rates = FaultRates {
            corrupt: 0.0,
            erase: 0.0,
            crash: 0.05,
            down_slots: 30,
        };
        let plan = FaultPlan::generate(1, 2, 5_000, &rates);
        let mut down_until = [0u64; 2];
        let mut crashes = 0;
        for e in plan.events() {
            if let FaultKind::Crash { station, down_slots } = e.kind {
                assert!(
                    e.slot >= down_until[station as usize],
                    "station {station} re-crashed while down at slot {}",
                    e.slot
                );
                down_until[station as usize] = e.slot + down_slots;
                crashes += 1;
            }
        }
        assert!(crashes > 0, "rate 0.05 over 5000 slots produced no crash");
    }

    /// The generator as first written: one `f64` draw per (slot, station)
    /// pair, built from the public `rng` functions only. Index and
    /// down-time arithmetic wrap, as release builds always did.
    fn reference_generate(
        seed: u64,
        stations: u32,
        horizon_slots: u64,
        rates: &FaultRates,
    ) -> Vec<FaultEvent> {
        use crate::rng::{derive_seed, fault_seed};
        let unit =
            |lane: u64, index: u64| (derive_seed(lane, index) >> 11) as f64 / (1u64 << 53) as f64;
        let draw_corrupt = rates.corrupt > 0.0;
        let draw_erase = rates.erase > 0.0;
        let draw_crash = rates.crash > 0.0 && rates.down_slots > 0;
        let (corrupt_lane, erase_lane, crash_lane) = (
            fault_seed(seed, 0),
            fault_seed(seed, 1),
            fault_seed(seed, 2),
        );
        let mut events = Vec::new();
        let mut down_until = vec![0u64; stations as usize];
        for slot in 0..horizon_slots {
            if draw_corrupt && unit(corrupt_lane, slot) < rates.corrupt {
                events.push(FaultEvent {
                    slot,
                    kind: FaultKind::CorruptSlot,
                });
            }
            if draw_erase && unit(erase_lane, slot) < rates.erase {
                events.push(FaultEvent {
                    slot,
                    kind: FaultKind::EraseFrame,
                });
            }
            if draw_crash {
                for station in 0..stations {
                    if down_until[station as usize] > slot {
                        continue;
                    }
                    let index = slot
                        .wrapping_mul(u64::from(stations))
                        .wrapping_add(u64::from(station));
                    if unit(crash_lane, index) < rates.crash {
                        down_until[station as usize] = slot.wrapping_add(rates.down_slots);
                        events.push(FaultEvent {
                            slot,
                            kind: FaultKind::Crash {
                                station,
                                down_slots: rates.down_slots,
                            },
                        });
                    }
                }
            }
        }
        events
    }

    fn supported_kernels() -> Vec<Kernel> {
        Kernel::ALL.into_iter().filter(|k| k.supported()).collect()
    }

    /// Asserts every supported kernel reproduces the reference plan.
    fn assert_bit_identical(seed: u64, stations: u32, horizon: u64, rates: &FaultRates) {
        let expected = reference_generate(seed, stations, horizon, rates);
        for kernel in supported_kernels() {
            let plan = FaultPlan::generate_with(kernel, seed, stations, horizon, rates);
            assert_eq!(
                plan.events(),
                expected.as_slice(),
                "{kernel:?}: seed {seed}, {stations} stations, {horizon} slots, {rates:?}"
            );
        }
    }

    /// Every rate the threshold must map exactly, edge cases first.
    fn edge_rates() -> Vec<f64> {
        let ulp = 1.0 / (1u64 << 53) as f64;
        vec![
            0.0,
            -0.0,
            -1.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            ulp,
            ulp * 3.0,
            ulp * 1e9,
            ulp * 1.5e12,
            0.5,
            1.0,
            1.5,
            f64::MIN_POSITIVE / 4.0,
            1.0 - ulp,
        ]
    }

    #[test]
    fn threshold_matches_the_float_comparison() {
        let ulp = 1.0 / (1u64 << 53) as f64;
        assert_eq!(threshold(0.0), 0);
        assert_eq!(threshold(-1.0), 0);
        assert_eq!(threshold(f64::NAN), 0);
        assert_eq!(threshold(f64::NEG_INFINITY), 0);
        assert_eq!(threshold(f64::INFINITY), 1 << 53);
        assert_eq!(threshold(1.0), 1 << 53);
        assert_eq!(threshold(1.5), 1 << 53);
        assert_eq!(threshold(ulp), 1);
        assert_eq!(threshold(ulp * 0.5), 1, "a sub-ulp rate still admits m = 0");
        assert_eq!(threshold(f64::MIN_POSITIVE / 4.0), 1, "subnormal");
        assert_eq!(threshold(ulp * 7.0), 7);
        assert_eq!(threshold(ulp * 7.5), 8);
        assert_eq!(threshold(0.5), 1 << 52);
        assert_eq!(threshold(1.0 - ulp), (1 << 53) - 1);
        // Around each threshold, the integer and the float test agree.
        let unit = |m: u64| m as f64 / (1u64 << 53) as f64;
        for rate in edge_rates()
            .into_iter()
            .chain([2e-6, 0.001, 0.3, 0.999_999])
        {
            let t = threshold(rate);
            for m in [t.saturating_sub(2), t.saturating_sub(1), t, t + 1]
                .into_iter()
                .filter(|&m| m < 1 << 53)
            {
                assert_eq!(m < t, unit(m) < rate, "rate {rate:e}, m {m}, threshold {t}");
            }
        }
    }

    #[test]
    fn generate_is_bit_identical_to_the_per_draw_reference() {
        let edges = edge_rates();
        for case in 0..240u64 {
            let r = |i: u64| derive_seed(0xB17_1DE7, case * 16 + i);
            let seed = r(0);
            // Every count in 1..=16, then spread up to 300, so remainders
            // of every vector width show up.
            let stations = if case < 16 {
                case as u32 + 1
            } else {
                1 + (r(1) % 300) as u32
            };
            let horizon = match case % 5 {
                0 => 0,
                1 => r(2) % 8,
                _ => r(2) % 400,
            };
            let down_slots = match case % 4 {
                0 => 1,
                1 => horizon + 1 + r(3) % 50,
                2 => 0,
                _ => 1 + r(3) % 40,
            };
            // Each lane either takes an edge rate or a moderate one, so
            // plans are neither empty nor saturated most of the time.
            let lane_rate = |i: u64, moderate: f64| {
                let pick = r(4 + i);
                if pick % 3 == 0 {
                    edges[(pick / 3 % edges.len() as u64) as usize]
                } else {
                    moderate * (1.0 + (pick % 1000) as f64 / 100.0)
                }
            };
            let rates = FaultRates {
                corrupt: lane_rate(0, 0.01),
                erase: lane_rate(1, 0.01),
                crash: lane_rate(2, 0.2 / f64::from(stations)),
                down_slots,
            };
            assert_bit_identical(seed, stations, horizon, &rates);
        }
    }

    #[test]
    fn every_edge_rate_is_bit_identical_in_every_lane() {
        for rate in edge_rates() {
            for lane in 0..3 {
                let mut rates = FaultRates {
                    down_slots: 5,
                    ..FaultRates::default()
                };
                match lane {
                    0 => rates.corrupt = rate,
                    1 => rates.erase = rate,
                    _ => rates.crash = rate,
                }
                assert_bit_identical(11, 13, 60, &rates);
            }
        }
    }

    #[test]
    fn sparse_crash_shape_is_pinned() {
        // The benchmark's `sparse-crash` plan shape: 256 stations over the
        // 40 ms horizon's first half (39,062 slots), rate 2e-6, down 64.
        let rates = FaultRates {
            crash: 2e-6,
            down_slots: 64,
            ..FaultRates::default()
        };
        assert_bit_identical(1, 256, 39_062, &rates);
        let crashes: Vec<(u64, u32)> = FaultPlan::generate(1, 256, 39_062, &rates)
            .events()
            .iter()
            .map(|e| match e.kind {
                FaultKind::Crash {
                    station,
                    down_slots: 64,
                } => (e.slot, station),
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(
            crashes,
            [
                (323, 113),
                (4228, 1),
                (4547, 19),
                (4715, 184),
                (4905, 251),
                (5347, 216),
                (6094, 131),
                (7751, 31),
                (8953, 121),
                (14466, 186),
                (14491, 37),
                (19406, 255),
                (21565, 114),
                (29614, 230),
                (29918, 48),
                (33980, 48),
            ]
        );
    }
}
