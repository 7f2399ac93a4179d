//! Topology generators for the paper's experiment graphs. Each one lists
//! its edges and builds the CSR [`Graph`] through [`Graph::from_edges`].
//!
//! Includes the lower-bound hard instance
//! ([`complete_bipartite_with_isolated`], Lemma 14: `K_{Δ,Δ}` plus `n − 2Δ`
//! isolated vertices) and the sensor-field style random geometric graphs
//! the beeping model was introduced for.

use crate::error::GraphError;
use crate::graph::{Graph, NodeId};
use rand::{Rng, RngExt};

/// The complete graph `K_n`.
///
/// # Errors
///
/// Never fails for valid `n`; returns the empty graph for `n = 0`.
pub fn complete(n: usize) -> Result<Graph, GraphError> {
    let mut edges = Vec::with_capacity(n * (n.saturating_sub(1)) / 2);
    for u in 0..n {
        for v in u + 1..n {
            edges.push((u, v));
        }
    }
    Graph::from_edges(n, &edges)
}

/// The complete bipartite graph `K_{l,r}`: parts `0..l` and `l..l+r`.
///
/// # Errors
///
/// Never fails; either part may be empty.
pub fn complete_bipartite(l: usize, r: usize) -> Result<Graph, GraphError> {
    let mut edges = Vec::with_capacity(l * r);
    for u in 0..l {
        for v in 0..r {
            edges.push((u, l + v));
        }
    }
    Graph::from_edges(l + r, &edges)
}

/// The Lemma 14 / Theorem 22 hard instance: `K_{Δ,Δ}` (parts `0..delta` and
/// `delta..2delta`) padded with isolated vertices to `n` nodes total. The
/// graph has `n` vertices and maximum degree exactly `Δ`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidTopology`] if `n < 2·delta` or `delta == 0`.
pub fn complete_bipartite_with_isolated(delta: usize, n: usize) -> Result<Graph, GraphError> {
    if delta == 0 {
        return Err(GraphError::InvalidTopology {
            detail: "K_{Δ,Δ} needs Δ ≥ 1".into(),
        });
    }
    if n < 2 * delta {
        return Err(GraphError::InvalidTopology {
            detail: format!("n = {n} cannot host K_{{{delta},{delta}}}"),
        });
    }
    let mut edges = Vec::with_capacity(delta * delta);
    for u in 0..delta {
        for v in 0..delta {
            edges.push((u, delta + v));
        }
    }
    Graph::from_edges(n, &edges)
}

/// The path `P_n`: `0 – 1 – … – n−1`.
///
/// # Errors
///
/// Never fails.
pub fn path(n: usize) -> Result<Graph, GraphError> {
    let edges: Vec<_> = (1..n).map(|v| (v - 1, v)).collect();
    Graph::from_edges(n, &edges)
}

/// The cycle `C_n`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidTopology`] for `n < 3` (a simple cycle
/// needs at least three nodes).
pub fn cycle(n: usize) -> Result<Graph, GraphError> {
    if n < 3 {
        return Err(GraphError::InvalidTopology {
            detail: format!("cycle needs n ≥ 3, got {n}"),
        });
    }
    let mut edges: Vec<_> = (1..n).map(|v| (v - 1, v)).collect();
    edges.push((n - 1, 0));
    Graph::from_edges(n, &edges)
}

/// The star `K_{1,n−1}` centered at node 0.
///
/// # Errors
///
/// Never fails for `n ≥ 1`.
pub fn star(n: usize) -> Result<Graph, GraphError> {
    if n == 0 {
        return Err(GraphError::InvalidTopology {
            detail: "star needs n ≥ 1".into(),
        });
    }
    let edges: Vec<_> = (1..n).map(|v| (0, v)).collect();
    Graph::from_edges(n, &edges)
}

/// A `rows × cols` 4-neighbor grid; node `(r, c)` has id `r·cols + c`.
/// Grids model the planar sensor deployments motivating the beeping model.
///
/// # Errors
///
/// Never fails (degenerate dimensions give paths or an empty graph).
pub fn grid(rows: usize, cols: usize) -> Result<Graph, GraphError> {
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            let id = r * cols + c;
            if c + 1 < cols {
                edges.push((id, id + 1));
            }
            if r + 1 < rows {
                edges.push((id, id + cols));
            }
        }
    }
    Graph::from_edges(rows * cols, &edges)
}

/// A `rows × cols` torus: the 4-neighbor grid with wraparound edges, so
/// every node has degree exactly 4 when both dimensions are ≥ 3 — the
/// boundary-free sensor sheet, and the scenario layer's fixed-degree
/// contrast to [`grid`]. Node `(r, c)` has id `r·cols + c`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidTopology`] if either dimension is below 3
/// (smaller wraparounds collapse to multi-edges).
pub fn torus(rows: usize, cols: usize) -> Result<Graph, GraphError> {
    if rows < 3 || cols < 3 {
        return Err(GraphError::InvalidTopology {
            detail: format!("torus needs both dimensions ≥ 3, got {rows}×{cols}"),
        });
    }
    let mut edges = Vec::with_capacity(2 * rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let id = r * cols + c;
            edges.push((id, r * cols + (c + 1) % cols));
            edges.push((id, ((r + 1) % rows) * cols + c));
        }
    }
    Graph::from_edges(rows * cols, &edges)
}

/// A Barabási–Albert preferential-attachment graph: starts from a star on
/// `m + 1` nodes, then each new node attaches `m` edges to distinct
/// existing nodes chosen with probability proportional to their current
/// degree (the classic repeated-endpoint urn). Produces the heavy-tailed
/// hub-and-spoke degree profiles of scale-free overlays — the scenario
/// layer's high-Δ-variance contrast to [`random_regular`].
///
/// Connected by construction, with `m·(n − m − 1) + m` edges.
///
/// # Errors
///
/// Returns [`GraphError::InvalidTopology`] if `m == 0` or `n < m + 1`.
pub fn preferential_attachment<R: Rng + ?Sized>(
    n: usize,
    m: usize,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if m == 0 {
        return Err(GraphError::InvalidTopology {
            detail: "preferential attachment needs m ≥ 1".into(),
        });
    }
    if n < m + 1 {
        return Err(GraphError::InvalidTopology {
            detail: format!("n = {n} cannot seed preferential attachment with m = {m}"),
        });
    }
    // Seed star on {0, …, m}: gives every seed node nonzero degree so the
    // urn is well-defined from the first attachment step.
    let mut edges: Vec<(NodeId, NodeId)> = (1..=m).map(|v| (0, v)).collect();
    // The urn holds each edge's two endpoints: sampling a uniform entry
    // selects a node with probability ∝ degree.
    let mut urn: Vec<NodeId> = Vec::with_capacity(2 * m * n);
    for &(a, b) in &edges {
        urn.push(a);
        urn.push(b);
    }
    for v in m + 1..n {
        let mut chosen: Vec<NodeId> = Vec::with_capacity(m);
        while chosen.len() < m {
            let target = urn[rng.random_range(0..urn.len())];
            if !chosen.contains(&target) {
                chosen.push(target);
            }
        }
        for &u in &chosen {
            edges.push((v, u));
            urn.push(v);
            urn.push(u);
        }
    }
    Graph::from_edges(n, &edges)
}

/// A complete binary tree on `n` nodes (heap indexing: children of `v` are
/// `2v+1`, `2v+2`).
///
/// # Errors
///
/// Never fails.
pub fn binary_tree(n: usize) -> Result<Graph, GraphError> {
    let mut edges = Vec::new();
    for v in 1..n {
        edges.push(((v - 1) / 2, v));
    }
    Graph::from_edges(n, &edges)
}

/// The `dim`-dimensional hypercube `Q_dim` on `2^dim` nodes.
///
/// # Errors
///
/// Returns [`GraphError::InvalidTopology`] if `dim > 20` (more than a
/// million nodes is beyond simulation scale).
pub fn hypercube(dim: u32) -> Result<Graph, GraphError> {
    if dim > 20 {
        return Err(GraphError::InvalidTopology {
            detail: format!("hypercube dimension {dim} too large"),
        });
    }
    let n = 1usize << dim;
    let mut edges = Vec::new();
    for v in 0..n {
        for b in 0..dim {
            let u = v ^ (1 << b);
            if v < u {
                edges.push((v, u));
            }
        }
    }
    Graph::from_edges(n, &edges)
}

/// An Erdős–Rényi graph `G(n, p)`: each potential edge appears
/// independently with probability `p`.
///
/// # Errors
///
/// Returns [`GraphError::InvalidTopology`] if `p` is not in `[0, 1]`.
pub fn gnp<R: Rng + ?Sized>(n: usize, p: f64, rng: &mut R) -> Result<Graph, GraphError> {
    if !(0.0..=1.0).contains(&p) {
        return Err(GraphError::InvalidTopology {
            detail: format!("edge probability {p} not in [0,1]"),
        });
    }
    let mut edges = Vec::new();
    for u in 0..n {
        for v in u + 1..n {
            if rng.random_bool(p) {
                edges.push((u, v));
            }
        }
    }
    Graph::from_edges(n, &edges)
}

/// A random geometric graph: `n` nodes placed uniformly in the unit square,
/// an edge between every pair within Euclidean distance `radius`. This is
/// the canonical abstraction of a wireless sensor field (the paper's
/// motivating deployment) and drives the sensor-network examples.
///
/// Returns the graph together with the sampled positions (useful for
/// rendering and for radius calibration in examples).
///
/// # Errors
///
/// Returns [`GraphError::InvalidTopology`] if `radius` is negative.
pub fn random_geometric<R: Rng + ?Sized>(
    n: usize,
    radius: f64,
    rng: &mut R,
) -> Result<(Graph, Vec<(f64, f64)>), GraphError> {
    if radius < 0.0 {
        return Err(GraphError::InvalidTopology {
            detail: format!("radius {radius} negative"),
        });
    }
    let positions: Vec<(f64, f64)> = (0..n)
        .map(|_| (rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
        .collect();
    let r2 = radius * radius;
    let mut edges = Vec::new();
    for u in 0..n {
        for v in u + 1..n {
            let dx = positions[u].0 - positions[v].0;
            let dy = positions[u].1 - positions[v].1;
            if dx * dx + dy * dy <= r2 {
                edges.push((u, v));
            }
        }
    }
    Ok((Graph::from_edges(n, &edges)?, positions))
}

/// A randomized `d`-regular simple graph on `n` nodes: a circulant
/// `d`-regular graph randomized by `10·m` double-edge switches (each swap
/// replaces edges `{a,b}, {c,e}` with `{a,e}, {c,b}` when that keeps the
/// graph simple). Degree-preserving switching mixes toward the uniform
/// regular graph; for the experiments' purposes "well-mixed" suffices, and
/// unlike configuration-model rejection it never stalls at moderate `d`.
///
/// Regular graphs isolate the paper's `Δ` parameter exactly: every node
/// has degree `Δ = d`, and (for `d ≥ 3`, `n ≫ d²`) distance-2
/// neighborhoods reach the full `Θ(Δ²)` size the baselines pay for.
///
/// # Errors
///
/// Returns [`GraphError::InvalidTopology`] if `n·d` is odd or `d ≥ n`.
pub fn random_regular<R: Rng + ?Sized>(
    n: usize,
    d: usize,
    rng: &mut R,
) -> Result<Graph, GraphError> {
    if d >= n {
        return Err(GraphError::InvalidTopology {
            detail: format!("degree {d} must be below n = {n}"),
        });
    }
    if !(n * d).is_multiple_of(2) {
        return Err(GraphError::InvalidTopology {
            detail: format!("n·d = {} must be even", n * d),
        });
    }
    if d == 0 {
        return Graph::from_edges(n, &[]);
    }
    // Seed circulant: offsets ±1..±⌊d/2⌋, plus the antipode when d is odd
    // (n is even then, since n·d is even).
    let mut edges: Vec<(NodeId, NodeId)> = Vec::with_capacity(n * d / 2);
    for v in 0..n {
        for off in 1..=d / 2 {
            edges.push((v, (v + off) % n));
        }
    }
    if !d.is_multiple_of(2) {
        for v in 0..n / 2 {
            edges.push((v, v + n / 2));
        }
    }
    // Canonicalize and build the occupancy set.
    let mut present: std::collections::HashSet<(NodeId, NodeId)> =
        edges.iter().map(|&(a, b)| (a.min(b), a.max(b))).collect();
    let mut edges: Vec<(NodeId, NodeId)> = present.iter().copied().collect();
    edges.sort_unstable();
    // Double-edge switches.
    let m = edges.len();
    for _ in 0..10 * m {
        let i = rng.random_range(0..m);
        let j = rng.random_range(0..m);
        if i == j {
            continue;
        }
        let (a, b) = edges[i];
        let (c, e) = edges[j];
        // Candidate rewiring {a,e}, {c,b}.
        if a == e || c == b {
            continue;
        }
        let new1 = (a.min(e), a.max(e));
        let new2 = (c.min(b), c.max(b));
        if new1 == new2 || present.contains(&new1) || present.contains(&new2) {
            continue;
        }
        present.remove(&edges[i]);
        present.remove(&edges[j]);
        present.insert(new1);
        present.insert(new2);
        edges[i] = new1;
        edges[j] = new2;
    }
    Graph::from_edges(n, &edges)
}

/// A uniformly random labeled tree on `n` nodes (via a random Prüfer
/// sequence) — connected, `n−1` edges, good low-degree contrast to `K_n`.
///
/// # Errors
///
/// Never fails.
pub fn random_tree<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Result<Graph, GraphError> {
    if n <= 1 {
        return Graph::from_edges(n, &[]);
    }
    if n == 2 {
        return Graph::from_edges(2, &[(0, 1)]);
    }
    let prufer: Vec<usize> = (0..n - 2).map(|_| rng.random_range(0..n)).collect();
    let mut degree = vec![1usize; n];
    for &v in &prufer {
        degree[v] += 1;
    }
    let mut edges = Vec::with_capacity(n - 1);
    // Min-heap of current leaves.
    let mut leaves: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
        .filter(|&v| degree[v] == 1)
        .map(std::cmp::Reverse)
        .collect();
    for &v in &prufer {
        let std::cmp::Reverse(leaf) = leaves.pop().expect("tree invariant");
        edges.push((leaf, v));
        degree[v] -= 1;
        if degree[v] == 1 {
            leaves.push(std::cmp::Reverse(v));
        }
    }
    let std::cmp::Reverse(a) = leaves.pop().expect("two leaves remain");
    let std::cmp::Reverse(b) = leaves.pop().expect("two leaves remain");
    edges.push((a, b));
    Graph::from_edges(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn complete_graph_shape() {
        let g = complete(6).unwrap();
        assert_eq!(g.edge_count(), 15);
        assert_eq!(g.max_degree(), 5);
        assert_eq!(g.diameter(), Some(1));
    }

    #[test]
    fn complete_bipartite_shape() {
        let g = complete_bipartite(3, 4).unwrap();
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.edge_count(), 12);
        assert_eq!(g.degree(0), 4); // left side sees all of right
        assert_eq!(g.degree(3), 3);
        assert!(!g.has_edge(0, 1)); // no intra-part edges
        assert!(g.has_edge(0, 3));
    }

    #[test]
    fn hard_instance_shape() {
        // Lemma 14's instance: n vertices, max degree exactly Δ.
        let g = complete_bipartite_with_isolated(4, 20).unwrap();
        assert_eq!(g.node_count(), 20);
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.edge_count(), 16);
        for v in 8..20 {
            assert_eq!(g.degree(v), 0, "vertex {v} should be isolated");
        }
    }

    #[test]
    fn hard_instance_validation() {
        assert!(complete_bipartite_with_isolated(0, 10).is_err());
        assert!(complete_bipartite_with_isolated(6, 10).is_err());
    }

    #[test]
    fn path_cycle_star_shapes() {
        assert_eq!(path(5).unwrap().diameter(), Some(4));
        assert_eq!(cycle(6).unwrap().diameter(), Some(3));
        assert!(cycle(2).is_err());
        let s = star(9).unwrap();
        assert_eq!(s.max_degree(), 8);
        assert_eq!(s.diameter(), Some(2));
    }

    #[test]
    fn grid_shape() {
        let g = grid(3, 4).unwrap();
        assert_eq!(g.node_count(), 12);
        assert_eq!(g.edge_count(), 3 * 3 + 2 * 4); // horizontal + vertical
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.diameter(), Some(2 + 3));
        assert_eq!(grid(0, 5).unwrap().node_count(), 0);
    }

    #[test]
    fn torus_is_4_regular() {
        let g = torus(4, 5).unwrap();
        assert_eq!(g.node_count(), 20);
        assert_eq!(g.edge_count(), 2 * 20);
        for v in 0..20 {
            assert_eq!(g.degree(v), 4, "node {v}");
        }
        assert!(g.is_connected());
        assert!(torus(2, 5).is_err());
        assert!(torus(5, 2).is_err());
    }

    #[test]
    fn torus_wraps_both_dimensions() {
        let g = torus(3, 4).unwrap();
        // Row wrap: (0,3) – (0,0); column wrap: (2,1) – (0,1).
        assert!(g.has_edge(3, 0));
        assert!(g.has_edge(2 * 4 + 1, 1));
        // Torus diameter = ⌊rows/2⌋ + ⌊cols/2⌋.
        assert_eq!(g.diameter(), Some(1 + 2));
    }

    #[test]
    fn preferential_attachment_shape() {
        let mut rng = StdRng::seed_from_u64(7);
        for (n, m) in [(5usize, 1usize), (30, 2), (64, 3)] {
            let g = preferential_attachment(n, m, &mut rng).unwrap();
            assert_eq!(g.node_count(), n);
            assert_eq!(g.edge_count(), m + m * (n - m - 1), "n={n} m={m}");
            assert!(g.is_connected(), "n={n} m={m}");
            // Late arrivals have degree ≥ m; hubs should exceed it.
            assert!(g.degree(n - 1) >= m);
        }
    }

    #[test]
    fn preferential_attachment_grows_hubs() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = preferential_attachment(200, 2, &mut rng).unwrap();
        // Scale-free signature: the max degree dwarfs the attachment count.
        assert!(g.max_degree() >= 4 * 2, "max degree {}", g.max_degree());
    }

    #[test]
    fn preferential_attachment_rejects_bad_params() {
        let mut rng = StdRng::seed_from_u64(9);
        assert!(preferential_attachment(5, 0, &mut rng).is_err());
        assert!(preferential_attachment(2, 2, &mut rng).is_err());
    }

    #[test]
    fn binary_tree_shape() {
        let g = binary_tree(7).unwrap();
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.max_degree(), 3);
        assert!(g.is_connected());
    }

    #[test]
    fn hypercube_shape() {
        let g = hypercube(4).unwrap();
        assert_eq!(g.node_count(), 16);
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.diameter(), Some(4));
        assert!(hypercube(21).is_err());
    }

    #[test]
    fn gnp_extremes() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(gnp(10, 0.0, &mut rng).unwrap().edge_count(), 0);
        assert_eq!(gnp(10, 1.0, &mut rng).unwrap().edge_count(), 45);
        assert!(gnp(10, 1.5, &mut rng).is_err());
    }

    #[test]
    fn gnp_density_is_plausible() {
        let mut rng = StdRng::seed_from_u64(2);
        let g = gnp(60, 0.3, &mut rng).unwrap();
        let expected = (60.0 * 59.0 / 2.0) * 0.3;
        let m = g.edge_count() as f64;
        assert!(
            (m - expected).abs() < expected * 0.3,
            "m = {m}, expected ≈ {expected}"
        );
    }

    #[test]
    fn random_geometric_radius_monotone() {
        let mut rng = StdRng::seed_from_u64(3);
        let (sparse, _) = random_geometric(50, 0.1, &mut rng).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let (dense, _) = random_geometric(50, 0.5, &mut rng).unwrap();
        assert!(dense.edge_count() > sparse.edge_count());
        let mut rng = StdRng::seed_from_u64(3);
        let (full, positions) = random_geometric(50, 2.0, &mut rng).unwrap();
        assert_eq!(
            full.edge_count(),
            50 * 49 / 2,
            "radius √2 covers the unit square"
        );
        assert_eq!(positions.len(), 50);
    }

    #[test]
    fn random_regular_is_regular_and_simple() {
        let mut rng = StdRng::seed_from_u64(5);
        for (n, d) in [(10usize, 0usize), (10, 3), (20, 4), (31, 6), (64, 8)] {
            let g = random_regular(n, d, &mut rng).unwrap();
            assert_eq!(g.node_count(), n);
            for v in 0..n {
                assert_eq!(g.degree(v), d, "n={n} d={d} node {v}");
            }
            assert_eq!(g.edge_count(), n * d / 2);
        }
    }

    #[test]
    fn random_regular_rejects_bad_params() {
        let mut rng = StdRng::seed_from_u64(6);
        assert!(random_regular(5, 5, &mut rng).is_err()); // d ≥ n
        assert!(random_regular(5, 3, &mut rng).is_err()); // n·d odd
    }

    #[test]
    fn random_tree_is_a_tree() {
        let mut rng = StdRng::seed_from_u64(4);
        for n in [1usize, 2, 3, 10, 64] {
            let g = random_tree(n, &mut rng).unwrap();
            assert_eq!(g.node_count(), n);
            assert_eq!(g.edge_count(), n.saturating_sub(1));
            assert!(g.is_connected(), "n = {n}");
        }
    }
}
