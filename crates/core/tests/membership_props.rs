//! Property-based tests of the dynamic membership layer: random
//! join/leave/admit interleavings must preserve the leaf-partition
//! invariants and never let an admission push an incumbent flow past its
//! deadline — the governing invariant of the `ddcr serve` admission
//! contract.

use ddcr_core::feasibility::{self, ClassFeasibility, FeasibilityReport};
use ddcr_core::{AdmissionDecision, DdcrConfig, DdcrError, FlowRequest, Membership};
use ddcr_sim::{ClassId, MediumConfig, SourceId, Ticks};
use ddcr_traffic::{DensityBound, MessageClass, MessageSet};
use proptest::prelude::*;

/// One scripted operation against the fabric.
#[derive(Debug, Clone)]
enum Op {
    Join(u32),
    Leave(u32),
    Admit(u32),
}

fn op_strategy(z: u32) -> impl Strategy<Value = Op> {
    (0u32..3, 0..z).prop_map(|(kind, station)| match kind {
        0 => Op::Join(station),
        1 => Op::Leave(station),
        _ => Op::Admit(station),
    })
}

fn fabric(z: u32, join_nu: u64) -> Membership {
    let config = DdcrConfig::for_sources(z, Ticks(100_000)).unwrap();
    Membership::new(config, MediumConfig::ethernet(), z, join_nu).unwrap()
}

fn modest_flow(station: u32, n: usize) -> FlowRequest {
    FlowRequest {
        source: SourceId(station),
        name: format!("f{n}"),
        bits: 4_000,
        deadline: Ticks(50_000_000),
        arrivals: 1,
        window: Ticks(10_000_000),
    }
}

/// Replays a script; invalid operations (double join, absent leave,
/// admit-before-join, pool exhaustion) must surface as typed errors, never
/// panics, and leave the state untouched.
fn run_script(m: &mut Membership, ops: &[Op]) {
    for (n, op) in ops.iter().enumerate() {
        match *op {
            Op::Join(s) => {
                let _ = m.join(SourceId(s));
            }
            Op::Leave(s) => {
                let _ = m.leave(SourceId(s));
            }
            Op::Admit(s) => {
                let _ = m.admit(&modest_flow(s, n));
            }
        }
    }
}

/// The partition invariants the engine's correctness rests on.
fn assert_partition_invariants(m: &Membership, z: u32) {
    let allocation = m.allocation();
    let total = allocation.leaves();
    // Every leaf is owned by at most one station, and the ownership map is
    // consistent with each station's own index list.
    let mut owned = 0u64;
    for s in 0..z {
        let source = SourceId(s);
        let indices = allocation.indices_of(source);
        assert_eq!(indices.len() as u64, allocation.nu(source));
        owned += indices.len() as u64;
        for &leaf in indices {
            assert_eq!(
                allocation.owner_of(leaf),
                Some(source),
                "leaf {leaf} owner map inconsistent with indices_of({s})"
            );
        }
        // Absent stations hold no leaves (a leave reclaims everything).
        if !m.is_present(source) {
            assert_eq!(allocation.nu(source), 0, "absent station {s} holds leaves");
        }
    }
    // Owned + free partitions the leaf set exactly.
    let free = allocation.free_leaves();
    assert_eq!(
        owned + free.len() as u64,
        total,
        "leaves leaked or invented"
    );
    for &leaf in &free {
        assert_eq!(
            allocation.owner_of(leaf),
            None,
            "free leaf {leaf} has an owner"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Arbitrary join/leave/admit interleavings preserve the partition
    /// invariants and the admission safety invariant (the admitted set
    /// stays feasible — no deadline can be missed analytically).
    #[test]
    fn random_churn_preserves_partition_and_admission_invariants(
        z in 2u32..6,
        join_nu in 1u64..3,
        ops in prop::collection::vec(op_strategy(5), 1..40),
    ) {
        let ops: Vec<Op> = ops
            .into_iter()
            .map(|op| match op {
                Op::Join(s) => Op::Join(s % z),
                Op::Leave(s) => Op::Leave(s % z),
                Op::Admit(s) => Op::Admit(s % z),
            })
            .collect();
        let mut m = fabric(z, join_nu);
        run_script(&mut m, &ops);
        assert_partition_invariants(&m, z);
        // No force_admit in the script, so the invariant checker must pass:
        // admitted sources present and seated, admitted set feasible.
        m.check_invariants().unwrap();
        prop_assert_eq!(m.safety_violations(), 0);
    }

    /// The same script always produces the same fabric: partition, admitted
    /// set, and member set are all deterministic functions of the ops.
    #[test]
    fn membership_is_deterministic(
        z in 2u32..5,
        ops in prop::collection::vec(op_strategy(4), 1..30),
    ) {
        let ops: Vec<Op> = ops
            .into_iter()
            .map(|op| match op {
                Op::Join(s) => Op::Join(s % z),
                Op::Leave(s) => Op::Leave(s % z),
                Op::Admit(s) => Op::Admit(s % z),
            })
            .collect();
        let mut a = fabric(z, 1);
        let mut b = fabric(z, 1);
        run_script(&mut a, &ops);
        run_script(&mut b, &ops);
        for s in 0..z {
            prop_assert_eq!(
                a.allocation().indices_of(SourceId(s)),
                b.allocation().indices_of(SourceId(s))
            );
            prop_assert_eq!(a.is_present(SourceId(s)), b.is_present(SourceId(s)));
        }
        prop_assert_eq!(a.admitted(), b.admitted());
    }

    /// Admission monotonicity: an admitted incumbent stays feasible no
    /// matter what later applicants ask for — rejections really protect it.
    #[test]
    fn incumbents_survive_any_applicant(
        bits in 1_000u64..64_000,
        deadline in 200_000u64..2_000_000,
        arrivals in 1u64..200,
        window in 100_000u64..1_000_000,
    ) {
        let mut m = fabric(3, 1);
        m.join(SourceId(0)).unwrap();
        m.join(SourceId(1)).unwrap();
        let d = m.admit(&modest_flow(0, 0)).unwrap();
        prop_assert!(matches!(d, AdmissionDecision::Admitted { .. }));
        let applicant = FlowRequest {
            source: SourceId(1),
            name: "applicant".into(),
            bits,
            deadline: Ticks(deadline),
            arrivals,
            window: Ticks(window),
        };
        let _ = m.admit(&applicant).unwrap();
        // Whatever the verdict, the whole admitted set is still feasible.
        m.check_invariants().unwrap();
        let report = m.evaluate().unwrap();
        prop_assert!(report.feasible());
    }
}

/// One step of an oracle-checked session.
#[derive(Debug, Clone)]
enum Step {
    Join(u32),
    Leave(u32),
    Flow {
        station: u32,
        fields: [u64; 4],
        forced: bool,
    },
}

/// A request field: mostly realistic magnitudes, sometimes a `u64`
/// extreme or a tiny value (to reach the overflow refusals), sometimes
/// zero (a malformed request).
fn field_strategy(lo: u64, hi: u64) -> impl Strategy<Value = u64> {
    (0u32..32, lo..hi, any::<u64>()).prop_map(|(kind, modest, raw)| match kind {
        0 => u64::MAX,
        1 => 1 << 63,
        2 => (1 << 62) + raw % 4096,
        3 => raw,
        4 => 1 + raw % 16,
        5 => 0,
        _ => modest,
    })
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (
        0u32..10,
        0u32..8,
        // bits, deadline, arrivals, window. Short deadlines next to long
        // frames give non-positive interference windows.
        (
            field_strategy(1, 40_000),
            field_strategy(1, 60_000_000),
            field_strategy(1, 4),
            field_strategy(1, 20_000_000),
        ),
    )
        .prop_map(
            |(kind, station, (bits, deadline, arrivals, window))| match kind {
                0 | 1 => Step::Join(station),
                2 => Step::Leave(station),
                _ => Step::Flow {
                    station,
                    fields: [bits, deadline, arrivals, window],
                    forced: kind == 9,
                },
            },
        )
}

/// Every field of a verdict, f64s by bit pattern.
fn verdict_bits(c: &ClassFeasibility) -> [u64; 12] {
    [
        u64::from(c.class.0),
        u64::from(c.source.0),
        c.r,
        c.u,
        c.v,
        c.transmission_ticks,
        c.s1_slots.to_bits(),
        c.s2_slots.to_bits(),
        c.search_slots.to_bits(),
        c.bound.to_bits(),
        c.deadline.as_u64(),
        u64::from(c.feasible),
    ]
}

fn report_bits(report: Result<FeasibilityReport, DdcrError>) -> Result<Vec<[u64; 12]>, String> {
    report
        .map(|r| r.per_class.iter().map(verdict_bits).collect())
        .map_err(|e| e.to_string())
}

fn decision_bits(decision: &AdmissionDecision) -> Vec<u64> {
    match decision {
        AdmissionDecision::Admitted {
            class,
            bound,
            slack,
        } => {
            vec![0, u64::from(class.0), bound.to_bits(), slack.to_bits()]
        }
        AdmissionDecision::Rejected { binding } => {
            let mut bits = vec![1];
            bits.extend(verdict_bits(binding));
            bits
        }
        other => panic!("unexpected decision {other:?}"),
    }
}

/// The decision `feasibility::evaluate` implies for `flow` as class
/// `next_id`, or the error it fails with.
fn oracle_decision(
    m: &Membership,
    flow: &FlowRequest,
    next_id: u32,
    z: u32,
    config: &DdcrConfig,
    medium: &MediumConfig,
) -> Result<AdmissionDecision, String> {
    let mut classes = m.admitted().to_vec();
    classes.push(MessageClass {
        id: ClassId(next_id),
        name: flow.name.clone(),
        source: flow.source,
        bits: flow.bits,
        deadline: flow.deadline,
        density: DensityBound::new(flow.arrivals, flow.window).map_err(|e| e.to_string())?,
    });
    let set = MessageSet::new(z, classes).map_err(|e| e.to_string())?;
    let report =
        feasibility::evaluate(&set, config, m.allocation(), medium).map_err(|e| e.to_string())?;
    let tightest = report.tightest().expect("the candidate is in the set");
    Ok(if report.feasible() {
        AdmissionDecision::Admitted {
            class: ClassId(next_id),
            bound: report.per_class.last().expect("candidate").bound,
            slack: tightest.slack(),
        }
    } else {
        AdmissionDecision::Rejected {
            binding: tightest.clone(),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// The kept-sums admission path is the full §4.3 evaluation, bit for
    /// bit: after every join, leave, flow and force-flow the incremental
    /// report equals `feasibility::evaluate` over the admitted set, every
    /// decision equals the one the full evaluation of the candidate set
    /// implies, and every refusal carries the same error.
    #[test]
    fn incremental_admission_matches_full_evaluation(
        join_nu in 1u64..3,
        steps in prop::collection::vec(step_strategy(), 1..60),
    ) {
        // Eight attachment points on a 16-leaf static tree.
        let z = 8;
        let config = DdcrConfig::for_sources(z, Ticks(100_000)).unwrap();
        let medium = MediumConfig::ethernet();
        let mut m = Membership::new(config, medium, z, join_nu).unwrap();
        let mut next_id = 0u32;
        for (n, step) in steps.iter().enumerate() {
            match *step {
                Step::Join(s) => {
                    let _ = m.join(SourceId(s));
                }
                Step::Leave(s) => {
                    let _ = m.leave(SourceId(s));
                }
                Step::Flow { station, fields: [bits, deadline, arrivals, window], forced } => {
                    let flow = FlowRequest {
                        source: SourceId(station),
                        name: format!("f{n}"),
                        bits,
                        deadline: Ticks(deadline),
                        arrivals,
                        window: Ticks(window),
                    };
                    // Requests refused before any evaluation: absent
                    // station, empty frame, degenerate density.
                    let valid = m.is_present(SourceId(station))
                        && bits != 0
                        && arrivals != 0
                        && window != 0;
                    let expected =
                        valid.then(|| oracle_decision(&m, &flow, next_id, z, &config, &medium));
                    let got = if forced { m.force_admit(&flow) } else { m.admit(&flow) };
                    let Some(expected) = expected else {
                        prop_assert!(got.is_err(), "{got:?}");
                        continue;
                    };
                    let got = got.map_err(|e| e.to_string());
                    prop_assert_eq!(
                        got.as_ref().map(decision_bits),
                        expected.as_ref().map(decision_bits),
                        "step {n}: {flow:?}"
                    );
                    if got.is_ok_and(|d| forced || matches!(d, AdmissionDecision::Admitted { .. })) {
                        next_id += 1;
                    }
                }
            }
            prop_assert_eq!(
                report_bits(m.report()),
                report_bits(
                    m.message_set()
                        .and_then(|set| feasibility::evaluate(&set, &config, m.allocation(), &medium))
                )
            );
            m.check_invariants().unwrap();
        }
    }
}
