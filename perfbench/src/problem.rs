//! The fixed problems, the seeded right-hand sides, the timed setup
//! stages, and answer checking.

use dtm_core::builder::{DtmBuilder, DtmProblem};
use dtm_core::runtime::{self, CommonConfig, NodeRuntime, Termination};
use dtm_graph::evs::SplitSystem;
use dtm_graph::partition::{PartitionConfig, Partitioner};
use dtm_sparse::{generators, vector, Csr};
use std::time::Instant;

/// Relative-residual tolerance of every request.
pub const TOL: f64 = 1e-6;
/// Threads of the setup pipeline, and child processes of the traced
/// run's peer-linked probe: the host has two cores.
pub const PARALLELISM: usize = 2;

/// Benchmark-side error: a library call failed or a check could not run.
pub type Res<T> = Result<T, String>;

/// Map a library error into the benchmark's error type.
pub fn lib_err(context: &'static str) -> impl Fn(dtm_sparse::Error) -> String {
    move |e| format!("{context}: {e}")
}

/// The 7-point Laplacian of a `side³` grid.
pub fn laplacian(side: usize) -> Csr {
    generators::grid3d_laplacian(side, side, side)
}

/// Right-hand side number `i` of a run seeded with `seed`: a unit source
/// at every vertex plus a perturbation uniform in [-0.5, 0.5] drawn from
/// `(seed, i)`. The shared unit part fixes the slow-mode content, so the
/// work a request needs is a property of the problem rather than of the
/// draw: the round executor repeats its counters exactly from request to
/// request, and the pool's remaining spread is its own asynchrony. (Pure
/// noise right-hand sides on the 24³@8 problem need 106–160 rounds.)
pub fn rhs(n: usize, seed: u64, i: u64) -> Vec<f64> {
    // splitmix64 finaliser: distinct, well-mixed stream per (seed, i).
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    generators::random_rhs(n, z ^ (z >> 31))
        .into_iter()
        .map(|u| 1.0 + 0.5 * u)
        .collect()
}

/// Algorithm configuration shared by every request: reference-free
/// residual stopping and the pool executor's solve cap.
pub fn common() -> CommonConfig {
    CommonConfig {
        termination: Termination::Residual { tol: TOL },
        max_solves_per_node: 1_000_000,
        ..Default::default()
    }
}

/// Wall time of each setup stage of one problem.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stages {
    /// `Partitioner::assign`.
    pub partition_s: f64,
    /// `DtmBuilder::build`: electric graph, plan and EVS split.
    pub split_s: f64,
    /// Per-part factorization.
    pub factor_s: f64,
}

impl Stages {
    /// Partition + split + factor.
    pub fn total(&self) -> f64 {
        self.partition_s + self.split_s + self.factor_s
    }
}

/// Run `f` and return its value with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Part assignment by the size-default partitioner.
pub fn partition(a: &Csr, parts: usize) -> Vec<usize> {
    Partitioner::default_for(a.n_rows()).assign(a, parts, &PartitionConfig::default())
}

/// Tear `(a, b)` along `assignment` through the public builder.
///
/// # Errors
/// Propagates builder validation failures.
pub fn split(a: &Csr, b: &[f64], assignment: Vec<usize>) -> Res<DtmProblem> {
    DtmBuilder::new(a.clone(), b.to_vec())
        .assignment(assignment)
        .termination(Termination::Residual { tol: TOL })
        .build()
        .map_err(lib_err("split"))
}

/// Factor every part on `pool` (scalar waves).
///
/// # Errors
/// Propagates factorization failures.
pub fn factor(split: &SplitSystem, pool: &rayon::ThreadPool) -> Res<Vec<NodeRuntime>> {
    runtime::build_nodes_parallel(split, &common(), pool).map_err(lib_err("factor"))
}

/// A pool of [`PARALLELISM`] threads for the setup pipeline.
///
/// # Errors
/// Fails when the threads cannot be spawned.
pub fn setup_pool() -> Res<rayon::ThreadPool> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(PARALLELISM)
        .build()
        .map_err(|e| format!("setup pool: {e}"))
}

/// `split` with its sources replaced by those of `b` (the split-time
/// source fractions applied to a new global right-hand side).
pub fn with_rhs(split: &SplitSystem, b: &[f64]) -> SplitSystem {
    let mut s = split.clone();
    for (sd, local) in s.subdomains.iter_mut().zip(split.scatter_rhs(b)) {
        sd.rhs = local;
    }
    s
}

/// `‖b − A·x‖₂ / ‖b‖₂`, recomputed from the returned solution.
pub fn rel_residual(a: &Csr, b: &[f64], x: &[f64]) -> f64 {
    if x.len() != a.n_cols() {
        return f64::INFINITY;
    }
    a.residual_norm(x, b) / vector::norm2_or_one(b)
}

/// How one returned answer fared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Converged, and the recomputed residual meets [`TOL`].
    Verified,
    /// The solver gave up (budget or cap): a failed request.
    NotConverged,
    /// The solver claimed convergence but the answer misses [`TOL`]: a
    /// wrong output.
    Wrong,
}

/// Check an answer against `b`.
pub fn verify(a: &Csr, b: &[f64], x: &[f64], converged: bool) -> Verdict {
    let r = rel_residual(a, b, x);
    if !converged {
        Verdict::NotConverged
    } else if r <= TOL {
        Verdict::Verified
    } else {
        Verdict::Wrong
    }
}

/// Gather per-part local solutions into the global estimate by averaging
/// each vertex's copies (the distributed supervisor's rule, in its order).
pub fn gather(split: &SplitSystem, locals: &[&[f64]]) -> Vec<f64> {
    let mut est = vec![0.0; split.original_n];
    for (sd, vals) in split.subdomains.iter().zip(locals) {
        for (&g, &v) in sd.global_of_local.iter().zip(vals.iter()) {
            est[g] += v;
        }
    }
    for (v, &cc) in est.iter_mut().zip(&split.copy_count) {
        *v /= cc as f64;
    }
    est
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtm_sparse::SparseCholesky;

    #[test]
    fn rhs_is_a_pure_function_of_seed_and_index() {
        assert_eq!(rhs(50, 5, 3), rhs(50, 5, 3));
        assert_ne!(rhs(50, 5, 3), rhs(50, 6, 3));
        assert_ne!(rhs(50, 5, 3), rhs(50, 5, 4));
        assert!(rhs(50, 5, 3).iter().all(|v| (0.5..=1.5).contains(v)));
    }

    #[test]
    fn with_rhs_equals_a_fresh_split_bit_for_bit() {
        let a = laplacian(6);
        let (b0, b1) = (rhs(a.n_rows(), 1, 0), rhs(a.n_rows(), 1, 1));
        let asg = partition(&a, 4);
        let fresh = split(&a, &b1, asg.clone()).expect("split").split;
        let swapped = with_rhs(&split(&a, &b0, asg).expect("split").split, &b1);
        for (x, y) in fresh.subdomains.iter().zip(&swapped.subdomains) {
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&x.rhs), bits(&y.rhs));
        }
    }

    #[test]
    fn verify_flags_wrong_and_unconverged_answers() {
        let a = laplacian(5);
        let b = rhs(a.n_rows(), 2, 0);
        let mut x = SparseCholesky::factor(&a).expect("SPD").solve(&b);
        assert_eq!(verify(&a, &b, &x, true), Verdict::Verified);
        assert_eq!(verify(&a, &b, &x, false), Verdict::NotConverged);
        x[0] += 1e-3;
        assert_eq!(verify(&a, &b, &x, true), Verdict::Wrong);
        assert_eq!(verify(&a, &b, &x[1..], true), Verdict::Wrong);
    }
}
