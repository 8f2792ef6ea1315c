//! Property tests for the cache-blocked substitution kernels: on random
//! SPD systems, a K-column block solve must agree with K independent
//! scalar solves — for the sparse factor (natural, RCM and ND orderings),
//! the dense factor, and the retained column-major reference kernel.

use dtm_sparse::{Coo, Csr, DenseCholesky, SparseCholesky};
use proptest::prelude::*;

/// A random symmetric diagonally-dominant (hence SPD) matrix: `extra`
/// off-diagonal edges laid over a path (so the graph is connected and the
/// bandwidth is nontrivial), diagonal = |row off-diagonal sum| + slack.
fn random_spd(n: usize, edges: &[(usize, usize, f64)]) -> Csr {
    let mut dominance = vec![1.0f64; n];
    let mut coo = Coo::new(n, n);
    let mut seen = std::collections::BTreeSet::new();
    for i in 0..n - 1 {
        seen.insert((i, i + 1));
        coo.push_sym(i, i + 1, -1.0).unwrap();
        dominance[i] += 1.0;
        dominance[i + 1] += 1.0;
    }
    for &(a, b, w) in edges {
        let (r, c) = (a.min(b) % n, a.max(b) % n);
        if r == c || !seen.insert((r, c)) {
            continue;
        }
        coo.push_sym(r, c, w).unwrap();
        dominance[r] += w.abs();
        dominance[c] += w.abs();
    }
    for (i, d) in dominance.iter().enumerate() {
        coo.push(i, i, d + 0.25).unwrap();
    }
    coo.to_csr()
}

/// Deterministic pseudo-random RHS block (column-major, `n * k` values).
fn rhs_block(n: usize, k: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n * k)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        })
        .collect()
}

/// One scalar solve per column, through the same factor.
fn scalar_columns(solve: impl Fn(&mut [f64]), xs: &[f64], n: usize, k: usize) -> Vec<f64> {
    let mut out = xs.to_vec();
    for col in out.chunks_mut(n) {
        solve(col);
    }
    debug_assert_eq!(out.len(), n * k);
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Sparse blocked solve (supernode-panel interleaved kernel) agrees
    /// with K scalar solves to ≤ 1e-12 componentwise, across natural, RCM
    /// and ND orderings and K ∈ {1, 2, 8, 16}.
    #[test]
    fn sparse_blocked_matches_k_scalar_solves(
        n in 4usize..40,
        edges in proptest::collection::vec((0usize..64, 0usize..64, 0.1f64..1.5), 0..80),
        seed in any::<u64>(),
    ) {
        let a = random_spd(n, &edges);
        for factor in [
            SparseCholesky::factor(&a).expect("SPD"),
            SparseCholesky::factor_rcm(&a).expect("SPD"),
            SparseCholesky::factor_nd(&a).expect("SPD"),
        ] {
            for k in [1usize, 2, 8, 16] {
                let xs = rhs_block(n, k, seed);
                let mut blocked = xs.clone();
                factor.solve_block_in_place(&mut blocked, k);
                let scalar = scalar_columns(|col| factor.solve_in_place(col), &xs, n, k);
                for (i, (u, v)) in blocked.iter().zip(&scalar).enumerate() {
                    prop_assert!(
                        (u - v).abs() <= 1e-12,
                        "n={n} k={k} component {i}: blocked {u} vs scalar {v}"
                    );
                }
            }
        }
    }

    /// The blocked kernel and the retained column-major reference kernel
    /// are interchangeable: bit-for-bit equal on the sparse factor.
    #[test]
    fn sparse_blocked_is_bitwise_colmajor(
        n in 4usize..40,
        edges in proptest::collection::vec((0usize..64, 0usize..64, 0.1f64..1.5), 0..80),
        seed in any::<u64>(),
    ) {
        let a = random_spd(n, &edges);
        for factor in [
            SparseCholesky::factor(&a).expect("SPD"),
            SparseCholesky::factor_rcm(&a).expect("SPD"),
            SparseCholesky::factor_nd(&a).expect("SPD"),
        ] {
            for k in [1usize, 2, 8, 16] {
                let xs = rhs_block(n, k, seed);
                let mut blocked = xs.clone();
                factor.solve_block_in_place(&mut blocked, k);
                let mut colmajor = xs;
                factor.solve_block_colmajor(&mut colmajor, k);
                for (i, (u, v)) in blocked.iter().zip(&colmajor).enumerate() {
                    prop_assert!(
                        u.to_bits() == v.to_bits(),
                        "n={n} k={k} component {i}: blocked {u:e} != colmajor {v:e}"
                    );
                }
            }
        }
    }

    /// On systems large enough for nested dissection to split (more than
    /// `ND_LEAF` unknowns), a K-column block solve over the ND factor is
    /// bitwise K scalar solves.
    #[test]
    fn nd_blocked_is_bitwise_k_scalar_solves(
        n in 65usize..200,
        edges in proptest::collection::vec((0usize..200, 0usize..200, 0.1f64..1.5), 0..300),
        seed in any::<u64>(),
    ) {
        let a = random_spd(n, &edges);
        let factor = SparseCholesky::factor_nd(&a).expect("SPD");
        for k in [1usize, 2, 8, 16] {
            let xs = rhs_block(n, k, seed);
            let mut blocked = xs.clone();
            factor.solve_block_in_place(&mut blocked, k);
            let scalar = scalar_columns(|col| factor.solve_in_place(col), &xs, n, k);
            for (i, (u, v)) in blocked.iter().zip(&scalar).enumerate() {
                prop_assert!(
                    u.to_bits() == v.to_bits(),
                    "n={n} k={k} component {i}: blocked {u:e} != scalar {v:e}"
                );
            }
        }
    }

    /// Dense blocked solve agrees with K scalar solves to ≤ 1e-12 and is
    /// bitwise-identical to the column-major reference kernel.
    #[test]
    fn dense_blocked_matches_k_scalar_solves(
        n in 2usize..24,
        edges in proptest::collection::vec((0usize..32, 0usize..32, 0.1f64..1.5), 0..40),
        seed in any::<u64>(),
    ) {
        let a = random_spd(n, &edges);
        let factor = DenseCholesky::factor_csr(&a).expect("SPD");
        for k in [1usize, 2, 8, 16] {
            let xs = rhs_block(n, k, seed);
            let mut blocked = xs.clone();
            factor.solve_block_in_place(&mut blocked, k);
            let scalar = scalar_columns(|col| factor.solve_in_place(col), &xs, n, k);
            for (i, (u, v)) in blocked.iter().zip(&scalar).enumerate() {
                prop_assert!(
                    (u - v).abs() <= 1e-12,
                    "n={n} k={k} component {i}: blocked {u} vs scalar {v}"
                );
            }
            let mut colmajor = xs;
            factor.solve_block_colmajor(&mut colmajor, k);
            for (i, (u, v)) in blocked.iter().zip(&colmajor).enumerate() {
                prop_assert!(
                    u.to_bits() == v.to_bits(),
                    "n={n} k={k} component {i}: blocked {u:e} != colmajor {v:e}"
                );
            }
        }
    }

    /// Blocked solves actually solve the system: `A x ≈ b` column by
    /// column after a sparse RCM block substitution.
    #[test]
    fn sparse_blocked_solves_the_system(
        n in 4usize..40,
        edges in proptest::collection::vec((0usize..64, 0usize..64, 0.1f64..1.5), 0..80),
        seed in any::<u64>(),
    ) {
        let a = random_spd(n, &edges);
        let factor = SparseCholesky::factor_rcm(&a).expect("SPD");
        let k = 8usize;
        let b = rhs_block(n, k, seed);
        let mut x = b.clone();
        factor.solve_block_in_place(&mut x, k);
        for (col, bcol) in x.chunks(n).zip(b.chunks(n)) {
            let ax = a.matvec(col);
            for (i, (u, v)) in ax.iter().zip(bcol).enumerate() {
                prop_assert!(
                    (u - v).abs() <= 1e-9,
                    "n={n} residual component {i}: Ax = {u} vs b = {v}"
                );
            }
        }
    }
}
