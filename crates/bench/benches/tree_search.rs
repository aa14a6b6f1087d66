//! Criterion benches for the P1/P2 analysis (experiments E1–E5 cost side):
//! how fast each route to `ξ_k^t` is, and the cost of the multi-tree DP.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use ddcr_tree::{
    asymptotic, average, closed_form, divide, multi, search, witness, SearchTimeTable, TreeShape,
};

fn bench_xi_routes(c: &mut Criterion) {
    let mut group = c.benchmark_group("xi_routes");
    for (m, n) in [(2u64, 6u32), (4, 3), (4, 5)] {
        let shape = TreeShape::new(m, n).unwrap();
        let t = shape.leaves();
        group.bench_with_input(
            BenchmarkId::new("dp_full_table", format!("m{m}_t{t}")),
            &shape,
            |b, &shape| b.iter(|| SearchTimeTable::compute(black_box(shape)).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("closed_form_all_k", format!("m{m}_t{t}")),
            &shape,
            |b, &shape| {
                b.iter(|| {
                    let mut acc = 0u64;
                    for k in 0..=shape.leaves() {
                        acc += closed_form::xi_closed(black_box(shape), k).unwrap();
                    }
                    acc
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("divide_all_k", format!("m{m}_t{t}")),
            &shape,
            |b, &shape| {
                b.iter(|| {
                    let mut acc = 0u64;
                    for k in 0..=shape.leaves() {
                        acc += divide::xi_divide(black_box(shape), k).unwrap();
                    }
                    acc
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("asymptotic_all_k", format!("m{m}_t{t}")),
            &shape,
            |b, &shape| {
                b.iter(|| {
                    let mut acc = 0.0f64;
                    for k in 2..=shape.leaves() {
                        acc += asymptotic::xi_tilde(black_box(shape), k as f64);
                    }
                    acc
                })
            },
        );
    }
    group.finish();
}

fn bench_ground_truth_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("ground_truth_search");
    let shape = TreeShape::new(4, 3).unwrap();
    for k in [2u64, 8, 32, 64] {
        let active: Vec<u64> = (0..k).map(|i| i * (64 / k)).collect();
        group.bench_with_input(BenchmarkId::new("replay_64q", k), &active, |b, active| {
            b.iter(|| search::search_active_leaves(black_box(shape), black_box(active)).unwrap())
        });
    }
    group.finish();
}

fn bench_multi_tree(c: &mut Criterion) {
    let mut group = c.benchmark_group("multi_tree_p2");
    let shape = TreeShape::new(4, 3).unwrap();
    for (u, v) in [(16u64, 4u64), (64, 8), (128, 8)] {
        let p = multi::MultiTreeProblem::new(shape, u, v).unwrap();
        group.bench_with_input(
            BenchmarkId::new("exact_dp", format!("u{u}_v{v}")),
            &p,
            |b, p| b.iter(|| p.exact_optimum().unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("asymptotic_bound", format!("u{u}_v{v}")),
            &p,
            |b, p| b.iter(|| black_box(p.bound())),
        );
    }
    group.finish();
}

fn bench_witness_and_average(c: &mut Criterion) {
    let mut group = c.benchmark_group("witness_and_average");
    for (m, n) in [(4u64, 3u32), (4, 5)] {
        let shape = TreeShape::new(m, n).unwrap();
        let t = shape.leaves();
        group.bench_with_input(
            BenchmarkId::new("worst_case_witness", format!("t{t}_k{}", t / 3)),
            &shape,
            |b, &shape| b.iter(|| witness::worst_case_witness(black_box(shape), t / 3).unwrap()),
        );
        group.bench_with_input(
            BenchmarkId::new("expected_table", format!("t{t}")),
            &shape,
            |b, &shape| b.iter(|| average::ExpectedSearchTable::compute(black_box(shape)).unwrap()),
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_xi_routes,
    bench_ground_truth_search,
    bench_multi_tree,
    bench_witness_and_average
);
criterion_main!(benches);
