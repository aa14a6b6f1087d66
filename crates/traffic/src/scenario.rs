//! Scenario presets for the application domains the paper motivates
//! (§2.1): distributed interactive multimedia / videoconferencing, on-line
//! transactions (stock markets), and surveillance (air traffic control).
//!
//! All figures are in ticks at `ψ = 1 Gbit/s`, i.e. **1 tick = 1 ns**: a
//! 1500-byte frame is 12 000 bits = 12 µs of channel time, a millisecond is
//! `1_000_000` ticks.

use crate::class::{DensityBound, MessageClass, MessageSet};
use crate::error::TrafficError;
use ddcr_sim::{ClassId, SourceId, Ticks};

/// Milliseconds to ticks at 1 Gbit/s.
const fn ms(v: u64) -> Ticks {
    Ticks(v * 1_000_000)
}

/// Microseconds to ticks at 1 Gbit/s.
const fn us(v: u64) -> Ticks {
    Ticks(v * 1_000)
}

/// Builds a set where each of `z` sources runs the same class templates.
fn replicate(
    z: u32,
    templates: &[(&str, u64, Ticks, u64, Ticks)],
) -> Result<MessageSet, TrafficError> {
    let mut classes = Vec::with_capacity(z as usize * templates.len());
    let mut next_id = 0u32;
    for source in 0..z {
        for &(name, bits, deadline, a, w) in templates {
            classes.push(MessageClass {
                id: ClassId(next_id),
                name: format!("{name}/s{source}"),
                source: SourceId(source),
                bits,
                deadline,
                density: DensityBound::new(a, w)?,
            });
            next_id += 1;
        }
    }
    MessageSet::new(z, classes)
}

/// Videoconferencing over a gigabit broadcast LAN: per participant a video
/// stream (1500-byte fragments, two per 2 ms window, 8 ms deadline — a
/// quarter frame period at 30 fps), an audio stream (200-byte packets
/// every 500 µs, 4 ms deadline) and occasional floor-control messages.
///
/// Offered load ≈ 1.5 % of the channel per participant; a gigabit segment
/// provably carries on the order of ten participants (see the
/// `videoconference` example, which sweeps the feasibility frontier).
///
/// # Errors
///
/// Propagates [`TrafficError`] from set construction (`z` must be ≥ 1 for a
/// non-empty set; `z = 0` yields an empty valid set).
pub fn videoconference(z: u32) -> Result<MessageSet, TrafficError> {
    replicate(
        z,
        &[
            ("video", 12_000, ms(8), 2, ms(2)),
            ("audio", 1_600, ms(4), 1, us(500)),
            ("control", 800, ms(20), 1, ms(20)),
        ],
    )
}

/// Air-traffic-control surveillance: per sensor/controller station, radar
/// track updates (300 bytes, two per millisecond, 4 ms deadline), rare but
/// urgent conflict alerts (64 bytes, 2 ms deadline — the binding
/// requirement) and weather imagery fragmented into 3 kB cells (four per
/// 10 ms, 10 ms deadline) so no single frame can block an alert for long —
/// the classical blocking-aware fragmentation a hard-real-time design
/// requires.
///
/// # Errors
///
/// Propagates [`TrafficError`] from set construction.
pub fn air_traffic_control(z: u32) -> Result<MessageSet, TrafficError> {
    replicate(
        z,
        &[
            ("track", 2_400, ms(4), 2, ms(1)),
            ("alert", 512, ms(2), 1, ms(10)),
            ("weather", 24_000, ms(10), 4, ms(10)),
        ],
    )
}

/// On-line transactions (stock market): per gateway, bursty order messages
/// (128 bytes, bursts of 10 per millisecond, 500 µs deadline), market-data
/// multicast (1 kB, four per millisecond) and periodic audit records.
///
/// # Errors
///
/// Propagates [`TrafficError`] from set construction.
pub fn stock_exchange(z: u32) -> Result<MessageSet, TrafficError> {
    replicate(
        z,
        &[
            ("order", 1_024, us(500), 10, ms(1)),
            ("mktdata", 8_000, ms(1), 4, ms(1)),
            ("audit", 64_000, ms(20), 1, ms(20)),
        ],
    )
}

/// Discrete-manufacturing cell control — the domain the protocol's
/// ancestor CSMA/DCR was actually deployed in (§5: Dassault Electronique,
/// APTOR, the Ariane launchpad LAN at Kourou). Per controller station:
/// sensor scans (64 bytes, two per 2 ms, 4 ms deadline), actuator commands
/// (32 bytes, one per 4 ms, 2 ms deadline) and supervisory/PLC state
/// uploads (2 kB per 50 ms).
///
/// # Errors
///
/// Propagates [`TrafficError`] from set construction.
pub fn manufacturing_cell(z: u32) -> Result<MessageSet, TrafficError> {
    replicate(
        z,
        &[
            ("scan", 512, ms(4), 2, ms(2)),
            ("actuate", 256, ms(2), 1, ms(4)),
            ("plc", 16_000, ms(50), 1, ms(50)),
        ],
    )
}

/// A tunable synthetic scenario: `z` sources, each with one class of
/// `bits`-bit messages whose density is chosen so the total offered load is
/// `load` (fraction of channel capacity) and whose deadline is `deadline`.
///
/// # Errors
///
/// Returns [`TrafficError::InvalidProcess`] if `load` is not in `(0, 1]`
/// or `z` is zero; propagates construction errors otherwise.
pub fn uniform(z: u32, bits: u64, deadline: Ticks, load: f64) -> Result<MessageSet, TrafficError> {
    if z == 0 || !(load > 0.0 && load <= 1.0) {
        return Err(TrafficError::InvalidProcess(format!(
            "uniform scenario needs z ≥ 1 and load in (0, 1], got z={z}, load={load}"
        )));
    }
    // Per-source rate r such that z · bits · r = load  ⇒  w = z·bits/load.
    let w = (z as f64 * bits as f64 / load).round() as u64;
    replicate(z, &[("uniform", bits, deadline, 1, Ticks(w.max(1)))])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn videoconference_load_is_light_per_participant() {
        let set = videoconference(8).unwrap();
        assert_eq!(set.sources(), 8);
        assert_eq!(set.classes().len(), 24);
        let load = set.offered_load();
        assert!((0.05..0.3).contains(&load), "load = {load}");
    }

    #[test]
    fn atc_has_tight_alert_deadlines() {
        let set = air_traffic_control(4).unwrap();
        let alert = set
            .classes()
            .iter()
            .find(|c| c.name.starts_with("alert"))
            .unwrap();
        assert_eq!(alert.deadline, Ticks(2_000_000));
        assert!(set.offered_load() < 0.3);
    }

    #[test]
    fn stock_exchange_is_bursty() {
        let set = stock_exchange(4).unwrap();
        let order = set
            .classes()
            .iter()
            .find(|c| c.name.starts_with("order"))
            .unwrap();
        assert_eq!(order.density.a, 10);
    }

    #[test]
    fn manufacturing_cell_is_light_and_tight() {
        let set = manufacturing_cell(8).unwrap();
        assert!(set.offered_load() < 0.05, "control traffic is light");
        let actuate = set
            .classes()
            .iter()
            .find(|c| c.name.starts_with("actuate"))
            .unwrap();
        assert_eq!(actuate.deadline, Ticks(2_000_000));
    }

    #[test]
    fn uniform_hits_requested_load() {
        for load in [0.1, 0.5, 0.9] {
            let set = uniform(8, 8_000, Ticks(1_000_000), load).unwrap();
            assert!(
                (set.offered_load() - load).abs() < 0.01,
                "requested {load}, got {}",
                set.offered_load()
            );
        }
    }

    #[test]
    fn uniform_rejects_degenerate_inputs() {
        assert!(uniform(0, 1000, Ticks(1000), 0.5).is_err());
        assert!(uniform(4, 1000, Ticks(1000), 0.0).is_err());
        assert!(uniform(4, 1000, Ticks(1000), 1.5).is_err());
    }

    #[test]
    fn class_ids_are_unique_across_sources() {
        let set = stock_exchange(16).unwrap();
        let mut ids: Vec<u32> = set.classes().iter().map(|c| c.id.0).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), set.classes().len());
    }
}
