//! §5's key performance remark: the DTM local matrix is constant, so the
//! Cholesky factor is computed **once** and every boundary update costs only
//! a substitution. This bench quantifies the claim by comparing
//! factor-once + substitute against refactor-every-update, and compares
//! the default `LocalSolverKind::Auto` with the explicit kinds: on a 2-D
//! part below `AUTO_DENSE_LIMIT` (where `Auto` is dense) and on a 24³@8
//! part (where `Auto` is the nested-dissection sparse factor and
//! `SparseRcm` the bandwidth-ordered one it replaced).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dtm_bench::{fig11_topology, paper_split};
use dtm_core::impedance::{per_port, ImpedancePolicy};
use dtm_core::local::{LocalSolverKind, LocalSystem};
use dtm_graph::evs::{split, EvsOptions, Subdomain};
use dtm_graph::partition::{PartitionConfig, Partitioner};
use dtm_graph::{ElectricGraph, PartitionPlan};
use dtm_sparse::generators;
use std::hint::black_box;

fn bench_kinds(
    c: &mut Criterion,
    group_name: &str,
    sd: &Subdomain,
    z: &[f64],
    kinds: &[LocalSolverKind],
) {
    let mut group = c.benchmark_group(group_name);
    for &kind in kinds {
        let label = format!("{kind:?}/n={}", sd.n_local());
        // Factor once, substitute per update (the DTM design).
        group.bench_with_input(
            BenchmarkId::new("substitute_only", &label),
            &kind,
            |bench, &kind| {
                let mut ls = LocalSystem::new(sd, z, kind).expect("factors");
                let mut t = 0.0f64;
                bench.iter(|| {
                    t += 0.01;
                    for p in 0..ls.n_ports() {
                        ls.set_remote(p, t.sin(), t.cos());
                    }
                    black_box(ls.solve()[0])
                });
            },
        );
        // Strawman: refactor on every update.
        group.bench_with_input(
            BenchmarkId::new("refactor_every_update", &label),
            &kind,
            |bench, &kind| {
                let mut t = 0.0f64;
                bench.iter(|| {
                    let mut ls = LocalSystem::new(sd, z, kind).expect("factors");
                    t += 0.01;
                    for p in 0..ls.n_ports() {
                        ls.set_remote(p, t.sin(), t.cos());
                    }
                    black_box(ls.solve()[0])
                });
            },
        );
    }
    group.finish();
}

fn bench_local_solve(c: &mut Criterion) {
    let topo = fig11_topology();
    let ss = paper_split(33, 4, 4, &topo); // n = 1089 on 16 parts
    let z = ImpedancePolicy::default().assign(&ss).expect("impedances");
    let zp = per_port(&ss, &z);
    // An interior part with many ports.
    bench_kinds(
        c,
        "local_solve",
        &ss.subdomains[5],
        &zp[5],
        &[
            LocalSolverKind::Dense,
            LocalSolverKind::SparseRcm,
            LocalSolverKind::Auto,
        ],
    );

    // A part of the 24³ Laplacian in 8 parts: ~2,000 unknowns, where the
    // dense factor is out of the question.
    let a = generators::grid3d_laplacian(24, 24, 24);
    let n = a.n_rows();
    let asg = Partitioner::default_for(n).assign(&a, 8, &PartitionConfig::default());
    let g = ElectricGraph::from_system(a, vec![1.0; n]).expect("symmetric");
    let plan = PartitionPlan::from_assignment(&g, &asg).expect("valid assignment");
    let ss = split(&g, &plan, &EvsOptions::default()).expect("splits");
    let z = ImpedancePolicy::default().assign(&ss).expect("impedances");
    let zp = per_port(&ss, &z);
    bench_kinds(
        c,
        "local_solve_3d",
        &ss.subdomains[0],
        &zp[0],
        &[LocalSolverKind::SparseRcm, LocalSolverKind::Auto],
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_local_solve
}
criterion_main!(benches);
