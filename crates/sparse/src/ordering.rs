//! Permutations and fill-reducing orderings for the sparse Cholesky used
//! for DTM local systems.
//!
//! [`nested_dissection`] orders separators last, so eliminating one side
//! of a separator creates no fill in the other; it is the default
//! ([`crate::SparseCholesky::factor_nd`]). Reverse Cuthill–McKee
//! ([`reverse_cuthill_mckee`]) narrows the bandwidth instead and is kept
//! as the reference. Both search from pseudo-peripheral vertices found by
//! repeated BFS ([`pseudo_peripheral_in`]).

use crate::csr::Csr;
use crate::error::{Error, Result};

/// A permutation of `0..n`, stored as `new_to_old`: position `i` of the
/// permuted ordering corresponds to original index `new_to_old[i]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Permutation {
    new_to_old: Vec<usize>,
}

impl Permutation {
    /// Identity permutation of size `n`.
    pub fn identity(n: usize) -> Self {
        Self {
            new_to_old: (0..n).collect(),
        }
    }

    /// Build from a `new_to_old` vector, validating it is a permutation.
    ///
    /// # Errors
    /// [`Error::Parse`] if the vector is not a bijection on `0..n`.
    pub fn from_new_to_old(new_to_old: Vec<usize>) -> Result<Self> {
        let n = new_to_old.len();
        let mut seen = vec![false; n];
        for &v in &new_to_old {
            if v >= n || seen[v] {
                return Err(Error::Parse(format!(
                    "not a permutation: value {v} duplicated or out of range"
                )));
            }
            seen[v] = true;
        }
        Ok(Self { new_to_old })
    }

    /// Length of the permutation.
    pub fn len(&self) -> usize {
        self.new_to_old.len()
    }

    /// Is this the empty permutation?
    pub fn is_empty(&self) -> bool {
        self.new_to_old.is_empty()
    }

    /// The `new_to_old` map.
    pub fn new_to_old(&self) -> &[usize] {
        &self.new_to_old
    }

    /// Inverse permutation (`old_to_new` as a `Permutation`).
    pub fn inverse(&self) -> Permutation {
        let mut inv = vec![0usize; self.new_to_old.len()];
        for (new, &old) in self.new_to_old.iter().enumerate() {
            inv[old] = new;
        }
        Permutation { new_to_old: inv }
    }

    /// Apply to a vector: `out[i] = x[new_to_old[i]]` (gather).
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.new_to_old.len(), "permutation apply length");
        self.new_to_old.iter().map(|&o| x[o]).collect()
    }

    /// Inverse application: `out[new_to_old[i]] = x[i]` (scatter).
    pub fn apply_inverse(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.new_to_old.len(), "permutation apply length");
        let mut out = vec![0.0; x.len()];
        for (new, &old) in self.new_to_old.iter().enumerate() {
            out[old] = x[new];
        }
        out
    }
}

/// Reverse Cuthill–McKee ordering of a symmetric sparse matrix.
///
/// Performs a BFS from a pseudo-peripheral vertex of every connected
/// component, visiting neighbours by increasing degree, then reverses the
/// whole order. Isolated vertices are appended last.
pub fn reverse_cuthill_mckee(a: &Csr) -> Permutation {
    let n = a.n_rows();
    let degree: Vec<usize> = (0..n)
        .map(|r| a.row(r).filter(|&(c, _)| c != r).count())
        .collect();

    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut queue: std::collections::VecDeque<usize> = std::collections::VecDeque::new();
    let mut nbrs: Vec<usize> = Vec::new();
    let mut scratch = BfsScratch::new(n);

    // Process components in order of their minimum-degree unvisited vertex.
    while let Some(start) = (0..n)
        .filter(|&v| !visited[v])
        .min_by_key(|&v| (degree[v], v))
    {
        let root = pseudo_peripheral_with(a, start, |_| true, &mut scratch);
        visited[root] = true;
        queue.push_back(root);
        while let Some(v) = queue.pop_front() {
            order.push(v);
            nbrs.clear();
            nbrs.extend(a.row(v).map(|(c, _)| c).filter(|&c| c != v && !visited[c]));
            nbrs.sort_unstable_by_key(|&c| (degree[c], c));
            for &c in nbrs.iter() {
                visited[c] = true;
                queue.push_back(c);
            }
        }
    }

    order.reverse();
    Permutation { new_to_old: order }
}

/// Largest vertex set [`nested_dissection`] leaves undivided; a leaf keeps
/// its index order.
pub const ND_LEAF: usize = 64;

/// Graph nested-dissection ordering of a symmetric sparse matrix: a
/// fill-reducing ordering for [`crate::SparseCholesky::factor_nd`].
///
/// Every dissection step takes a vertex set larger than [`ND_LEAF`]. If the
/// set is disconnected, its components are laid out one after another and
/// each is dissected on its own. Otherwise a BFS from a pseudo-peripheral
/// root ([`pseudo_peripheral_in`]) splits it into level sets, and the
/// smallest level with at least 30% of the set on either side becomes the
/// separator. Its vertices with no neighbour in the far side are moved to
/// the near side. The near side, then the far side, are ordered first and
/// dissected in turn; the separator is ordered last. No edge joins the two
/// sides, so eliminating either side creates no fill in the other.
///
/// The result is a pure function of the matrix's pattern (no hashing, no
/// threads). One BFS scratch and one stamp array are shared by every step,
/// so a step costs time in its own vertex set and edges, not in `n`.
pub fn nested_dissection(a: &Csr) -> Permutation {
    dissect(a, |_, _, _| {})
}

/// [`nested_dissection`], handing every dissection step's near side, far
/// side and separator to `on_split` (the tests check the separators).
fn dissect(a: &Csr, mut on_split: impl FnMut(&[usize], &[usize], &[usize])) -> Permutation {
    let n = a.n_rows();
    let mut new_to_old: Vec<usize> = (0..n).collect();
    let mut scratch = BfsScratch::new(n);
    // Vertex `v` belongs to the set being dissected iff `stamp[v] == tag`;
    // every step draws fresh tags, so no step clears the array.
    let mut stamp = vec![0usize; n];
    let mut next_tag = 0usize;
    let mut components: Vec<usize> = Vec::new();
    let mut tasks = vec![(0usize, n)];
    while let Some((lo, hi)) = tasks.pop() {
        let set = &mut new_to_old[lo..hi];
        if set.len() <= ND_LEAF {
            set.sort_unstable();
            continue;
        }
        next_tag += 1;
        let tag = next_tag;
        for &v in set.iter() {
            stamp[v] = tag;
        }
        let start = set.iter().copied().min().unwrap_or(0);
        pseudo_peripheral_with(a, start, |v| stamp[v] == tag, &mut scratch);

        if scratch.order.len() < set.len() {
            // Disconnected: lay the components out in turn, each a task.
            let mut at = 0usize;
            for &v in set.iter() {
                if stamp[v] != tag {
                    continue;
                }
                scratch.bfs(a, v, |c| stamp[c] == tag);
                for &c in &scratch.order {
                    stamp[c] = 0;
                }
                let len = scratch.order.len();
                tasks.push((lo + at, lo + at + len));
                components.extend_from_slice(&scratch.order);
                at += len;
            }
            set.copy_from_slice(&components);
            components.clear();
            continue;
        }

        // Connected: the BFS levels from the pseudo-peripheral root. The
        // separator is the smallest level that leaves at least 30% of the
        // set on either side (the level at the halfway mark if none does).
        let lp = &scratch.level_ptr;
        let levels = lp.len() - 1;
        if levels < 3 {
            set.sort_unstable();
            continue;
        }
        let size = set.len();
        let mid = (1..levels - 1)
            .find(|&k| 2 * lp[k + 1] >= size)
            .unwrap_or(levels - 2);
        let sep = (1..levels - 1)
            .filter(|&k| 10 * lp[k] >= 3 * size && 10 * (size - lp[k + 1]) >= 3 * size)
            .min_by_key(|&k| (lp[k + 1] - lp[k], k.abs_diff(mid)))
            .unwrap_or(mid);
        let (s0, s1) = (lp[sep], lp[sep + 1]);
        let (near, far) = (tag + 1, tag + 2);
        next_tag += 2;
        for &v in &scratch.order[..s0] {
            stamp[v] = near;
        }
        for &v in &scratch.order[s1..] {
            stamp[v] = far;
        }
        // `tag` now marks the separator. A separator vertex with no
        // neighbour on the far side joins the near side.
        let mut n_near = s0;
        for &v in &scratch.order[s0..s1] {
            if !a.row(v).any(|(c, _)| stamp[c] == far) {
                stamp[v] = near;
                n_near += 1;
            }
        }
        let n_far = size - s1;
        let (mut i_near, mut i_far, mut i_sep) = (0, n_near, n_near + n_far);
        for &v in &scratch.order {
            let slot = if stamp[v] == near {
                &mut i_near
            } else if stamp[v] == far {
                &mut i_far
            } else {
                &mut i_sep
            };
            set[*slot] = v;
            *slot += 1;
        }
        set[n_near + n_far..].sort_unstable();
        let (near_side, rest) = set.split_at(n_near);
        let (far_side, separator) = rest.split_at(n_far);
        on_split(near_side, far_side, separator);
        tasks.push((lo + n_near, lo + n_near + n_far));
        tasks.push((lo, lo + n_near));
    }
    Permutation { new_to_old }
}

/// Caller-owned scratch for repeated breadth-first searches over vertex
/// subsets of one graph ([`pseudo_peripheral_with`]). Each search clears
/// only the vertices it reached, so a search costs time in the subset it
/// explores, not in the size of the whole graph.
#[derive(Debug, Default)]
struct BfsScratch {
    /// Reached by the search in progress; all `false` between searches.
    seen: Vec<bool>,
    /// Vertices reached by the last search, in BFS order.
    order: Vec<usize>,
    /// Level `k` of the last search is `order[level_ptr[k]..level_ptr[k + 1]]`.
    level_ptr: Vec<usize>,
}

impl BfsScratch {
    /// Scratch for graphs of `n` vertices.
    fn new(n: usize) -> Self {
        Self {
            seen: vec![false; n],
            ..Self::default()
        }
    }

    /// BFS from `root` over the subgraph induced by `active` (which `root`
    /// must satisfy), level by level; returns the eccentricity of `root`.
    fn bfs(&mut self, a: &Csr, root: usize, active: impl Fn(usize) -> bool) -> usize {
        self.order.clear();
        self.level_ptr.clear();
        self.level_ptr.push(0);
        self.seen[root] = true;
        self.order.push(root);
        let (row_ptr, col_idx) = (a.row_ptr(), a.col_idx());
        let mut lo = 0;
        loop {
            let hi = self.order.len();
            for i in lo..hi {
                let v = self.order[i];
                for &c in &col_idx[row_ptr[v]..row_ptr[v + 1]] {
                    if c != v && !self.seen[c] && active(c) {
                        self.seen[c] = true;
                        self.order.push(c);
                    }
                }
            }
            self.level_ptr.push(hi);
            if self.order.len() == hi {
                break;
            }
            lo = hi;
        }
        for &v in &self.order {
            self.seen[v] = false;
        }
        self.level_ptr.len() - 2
    }
}

/// Find a pseudo-peripheral vertex of the subgraph induced by `active`,
/// starting from `start` (which must satisfy `active`): repeat BFS from
/// the farthest minimum-degree vertex of the last level until the
/// eccentricity stops growing.
///
/// This is the BFS machinery behind [`reverse_cuthill_mckee`] (which uses
/// it with every vertex active); it is public so graph partitioners can
/// seed bisections of vertex subsets from the same notion of "far corner".
pub fn pseudo_peripheral_in(a: &Csr, start: usize, active: impl Fn(usize) -> bool) -> usize {
    pseudo_peripheral_with(a, start, active, &mut BfsScratch::new(a.n_rows()))
}

/// [`pseudo_peripheral_in`] over caller-owned scratch. On return the
/// scratch holds the BFS levels from the returned root, which cover the
/// connected component of `start`.
fn pseudo_peripheral_with(
    a: &Csr,
    start: usize,
    active: impl Fn(usize) -> bool,
    scratch: &mut BfsScratch,
) -> usize {
    // Degree within the active subgraph, for the last-level tie-break.
    let deg = |v: usize| a.row(v).filter(|&(c, _)| c != v && active(c)).count();
    let mut root = start;
    let mut last_ecc = 0usize;
    loop {
        let ecc = scratch.bfs(a, root, &active);
        if ecc <= last_ecc {
            return root;
        }
        last_ecc = ecc;
        // The last level is never empty; keep the current root if it were.
        let last = &scratch.order[scratch.level_ptr[ecc]..];
        root = last
            .iter()
            .copied()
            .min_by_key(|&v| (deg(v), v))
            .unwrap_or(root);
    }
}

/// Bandwidth of a symmetric matrix: `max |i − j|` over stored entries.
pub fn bandwidth(a: &Csr) -> usize {
    let mut bw = 0usize;
    for r in 0..a.n_rows() {
        for (c, _) in a.row(r) {
            bw = bw.max(r.abs_diff(c));
        }
    }
    bw
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    fn path_graph(n: usize) -> Csr {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0).unwrap();
        }
        for i in 0..n - 1 {
            coo.push_sym(i, i + 1, -1.0).unwrap();
        }
        coo.to_csr()
    }

    #[test]
    fn permutation_roundtrip() {
        let p = Permutation::from_new_to_old(vec![2, 0, 1]).unwrap();
        let x = vec![10.0, 20.0, 30.0];
        let y = p.apply(&x);
        assert_eq!(y, vec![30.0, 10.0, 20.0]);
        assert_eq!(p.apply_inverse(&y), x);
        let id = Permutation::identity(3);
        assert_eq!(id.apply(&x), x);
    }

    #[test]
    fn invalid_permutation_rejected() {
        assert!(Permutation::from_new_to_old(vec![0, 0]).is_err());
        assert!(Permutation::from_new_to_old(vec![0, 5]).is_err());
    }

    #[test]
    fn inverse_composes_to_identity() {
        let p = Permutation::from_new_to_old(vec![3, 1, 0, 2]).unwrap();
        let inv = p.inverse();
        let composed: Vec<usize> = (0..4)
            .map(|i| p.new_to_old()[inv.new_to_old()[i]])
            .collect();
        assert_eq!(composed, vec![0, 1, 2, 3]);
    }

    #[test]
    fn rcm_on_path_keeps_bandwidth_one() {
        let a = path_graph(10);
        let p = reverse_cuthill_mckee(&a);
        let b = a.permute_sym(&p);
        assert_eq!(bandwidth(&b), 1);
    }

    #[test]
    fn rcm_reduces_bandwidth_of_shuffled_path() {
        // A path graph relabelled adversarially has large bandwidth; RCM
        // restores bandwidth 1.
        let n = 50;
        let mut coo = Coo::new(n, n);
        // Relabel vertex i -> (i * 17) % n (17 coprime with 50).
        let relabel = |i: usize| (i * 17) % n;
        for i in 0..n {
            coo.push(relabel(i), relabel(i), 2.0).unwrap();
        }
        for i in 0..n - 1 {
            coo.push_sym(relabel(i), relabel(i + 1), -1.0).unwrap();
        }
        let a = coo.to_csr();
        assert!(bandwidth(&a) > 1);
        let p = reverse_cuthill_mckee(&a);
        let b = a.permute_sym(&p);
        assert_eq!(bandwidth(&b), 1, "RCM must recover the path ordering");
    }

    #[test]
    fn rcm_handles_disconnected_graphs() {
        let mut coo = Coo::new(6, 6);
        for i in 0..6 {
            coo.push(i, i, 1.0).unwrap();
        }
        coo.push_sym(0, 1, -1.0).unwrap();
        coo.push_sym(3, 4, -1.0).unwrap();
        let a = coo.to_csr();
        let p = reverse_cuthill_mckee(&a);
        // Must be a valid permutation covering all 6 vertices.
        let mut sorted = p.new_to_old().to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4, 5]);
    }

    /// A symmetric diagonally dominant matrix over the undirected `edges`
    /// (self-loops and repeats dropped); vertices without edges are
    /// isolated.
    fn graph(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Csr {
        let mut coo = Coo::new(n, n);
        let mut degree = vec![0.0; n];
        let mut seen = std::collections::BTreeSet::new();
        for (u, v) in edges {
            let (u, v) = (u.min(v), u.max(v));
            if u != v && seen.insert((u, v)) {
                coo.push_sym(u, v, -1.0).unwrap();
                degree[u] += 1.0;
                degree[v] += 1.0;
            }
        }
        for (i, d) in degree.iter().enumerate() {
            coo.push(i, i, d + 1.0).unwrap();
        }
        coo.to_csr()
    }

    /// A `w × h` grid graph with each edge dropped when the next draw of a
    /// `seed`-ed xorshift falls below `drop_pct` percent (disconnected
    /// pieces and isolated vertices for large `drop_pct`).
    fn holed_grid(w: usize, h: usize, drop_pct: u64, seed: u64) -> Csr {
        let mut state = seed | 1;
        let mut keep = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % 100 >= drop_pct
        };
        let mut edges = Vec::new();
        for y in 0..h {
            for x in 0..w {
                let v = y * w + x;
                if x + 1 < w && keep() {
                    edges.push((v, v + 1));
                }
                if y + 1 < h && keep() {
                    edges.push((v, v + w));
                }
            }
        }
        graph(w * h, edges)
    }

    /// Check `a`'s ND ordering: a valid permutation, the same on a second
    /// run, and at every dissection step two nonempty sides with no edge
    /// between them and a nonempty separator. Returns the step count.
    fn check_nd(a: &Csr) -> usize {
        let n = a.n_rows();
        let mut side = vec![0u8; n];
        let mut steps = 0;
        let p = dissect(a, |near, far, sep| {
            steps += 1;
            assert!(!near.is_empty() && !far.is_empty() && !sep.is_empty());
            for &v in near {
                side[v] = 1;
            }
            for &v in far {
                side[v] = 2;
            }
            for &v in near {
                assert!(
                    a.row(v).all(|(c, _)| side[c] != 2),
                    "edge joins the two sides at vertex {v}"
                );
            }
            for &v in near.iter().chain(far) {
                side[v] = 0;
            }
        });
        assert!(Permutation::from_new_to_old(p.new_to_old().to_vec()).is_ok());
        assert_eq!(p.len(), n);
        assert_eq!(nested_dissection(a), p, "ND must be deterministic");
        steps
    }

    #[test]
    fn nd_of_empty_and_single_vertex() {
        assert!(nested_dissection(&Coo::new(0, 0).to_csr()).is_empty());
        assert_eq!(nested_dissection(&graph(1, [])).new_to_old(), &[0]);
    }

    #[test]
    fn nd_keeps_leaves_and_isolated_vertices_in_index_order() {
        // One leaf, and a set of isolated vertices larger than a leaf:
        // every component is its own singleton leaf, laid out in turn.
        let small = path_graph(ND_LEAF);
        assert_eq!(nested_dissection(&small), Permutation::identity(ND_LEAF));
        let isolated = graph(3 * ND_LEAF, []);
        assert_eq!(check_nd(&isolated), 0);
        assert_eq!(
            nested_dissection(&isolated),
            Permutation::identity(3 * ND_LEAF)
        );
    }

    #[test]
    fn nd_orders_a_middle_vertex_of_a_path_last() {
        let n = 4 * ND_LEAF;
        let a = path_graph(n);
        assert!(check_nd(&a) >= 3);
        let last = nested_dissection(&a).new_to_old()[n - 1];
        assert!(
            (3 * n / 10..=7 * n / 10).contains(&last),
            "separator vertex {last} of a {n}-path"
        );
    }

    #[test]
    fn nd_dissects_grids_and_their_components() {
        // Two 20×20 grids side by side, no edge between them.
        let g = holed_grid(20, 20, 0, 1);
        let m = g.n_rows();
        let edges = (0..m).flat_map(|r| {
            g.row(r)
                .filter(move |&(c, _)| c > r)
                .flat_map(move |(c, _)| [(r, c), (r + m, c + m)])
                .collect::<Vec<_>>()
        });
        let a = graph(2 * m, edges);
        assert!(check_nd(&a) >= 4);
        // Each grid occupies one contiguous half of the ordering.
        let p = nested_dissection(&a);
        let first: Vec<bool> = p.new_to_old().iter().map(|&v| v < m).collect();
        assert!(first[..m].iter().all(|&f| f) || first[m..].iter().all(|&f| f));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig {
            cases: 48,
            ..proptest::prelude::ProptestConfig::default()
        })]

        /// Grids with random holes: connected, split, or shattered into
        /// isolated vertices.
        #[test]
        fn nd_is_a_valid_deterministic_dissection_of_holed_grids(
            w in 1usize..40,
            h in 1usize..40,
            drop_pct in 0u64..70,
            seed in proptest::prelude::any::<u64>(),
        ) {
            check_nd(&holed_grid(w, h, drop_pct, seed));
        }

        /// Random sparse graphs: small diameter, many components.
        #[test]
        fn nd_is_a_valid_deterministic_dissection_of_random_graphs(
            n in 1usize..400,
            edges in proptest::collection::vec((0usize..400, 0usize..400), 0..800),
        ) {
            check_nd(&graph(n, edges.into_iter().map(|(u, v)| (u % n, v % n))));
        }
    }

    #[test]
    fn rcm_permuted_matrix_is_same_system() {
        let a = path_graph(7);
        let p = reverse_cuthill_mckee(&a);
        let b = a.permute_sym(&p);
        // Solve both against consistent vectors: B y = P b where y = P x.
        let x: Vec<f64> = (0..7).map(|i| i as f64).collect();
        let ax = a.matvec(&x);
        let px = p.apply(&x);
        let bpx = b.matvec(&px);
        let pax = p.apply(&ax);
        for (u, v) in bpx.iter().zip(&pax) {
            assert!((u - v).abs() < 1e-12);
        }
    }
}
