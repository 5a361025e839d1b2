//! Solver scalability (the §IV-B-4 polynomial-time claim): relaxation-LP
//! wall time as the constraint count grows with APs × nomadic sites, the
//! same relaxation through a reused [`SimplexWorkspace`], and the three
//! center methods on one constraint set.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nomloc_bench::lpcmp;
use nomloc_geometry::HalfPlane;
use nomloc_lp::center::{self, CenterMethod};
use nomloc_lp::relax::relax_constraints;
use nomloc_lp::simplex::SimplexWorkspace;

fn bench_relaxation(c: &mut Criterion) {
    let mut group = c.benchmark_group("relaxation_lp");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for n_sites in [4usize, 6, 8, 12, 16, 24] {
        let (cs, _, _) = lpcmp::constraint_set(n_sites);
        group.bench_with_input(BenchmarkId::new("constraints", cs.len()), &cs, |b, cs| {
            b.iter(|| relax_constraints(std::hint::black_box(cs)).unwrap())
        });
    }
    group.finish();
}

/// The relaxation LPs solved through one reused workspace (the serving
/// path's allocation-free solver).
fn bench_solver_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver_path");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    for n_sites in [6usize, 8, 12] {
        let (cs, _, _) = lpcmp::constraint_set(n_sites);
        let rows = cs.len();
        group.bench_with_input(BenchmarkId::new("workspace", rows), &cs, |b, cs| {
            let mut ws = SimplexWorkspace::new();
            b.iter(|| {
                nomloc_lp::relax::relax_constraints_in(&mut ws, std::hint::black_box(cs)).unwrap()
            })
        });
    }
    group.finish();
}

fn bench_centers(c: &mut Criterion) {
    let mut group = c.benchmark_group("center_methods");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_millis(500));
    let (cs, _, bounds) = lpcmp::constraint_set(8);
    let hps: Vec<HalfPlane> = cs.iter().map(|c| c.halfplane).collect();
    for (name, method) in [
        ("chebyshev", CenterMethod::Chebyshev),
        ("analytic", CenterMethod::Analytic),
        ("centroid", CenterMethod::Centroid),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| center::center(method, std::hint::black_box(&hps), &bounds).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_relaxation, bench_solver_paths, bench_centers);
criterion_main!(benches);
