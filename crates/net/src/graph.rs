//! Undirected simple graphs: materialized CSR and implicit structured
//! topologies.
//!
//! The engine touches every adjacency list every round, so the
//! representation matters at scale. Two families coexist behind one
//! [`Graph`] type:
//!
//! * **CSR** (`offsets` + flat `neighbors`) — the general-purpose form
//!   every generator in [`crate::topology`] produces.
//! * **Implicit** complete / torus / grid — neighborhoods computed on the
//!   fly from the shape parameters, zero adjacency storage. This is what
//!   makes n = 10M–100M fit in RAM: a 100M-node torus stores two `usize`s
//!   where CSR would store 3.2 GB.
//!
//! All read paths below [`Graph::neighbors`] (which is CSR-only and kept
//! for hot slice-based loops) are representation-generic; the engine
//! dispatches on [`Graph::repr`].

use crate::error::GraphError;

/// Index of a node in a [`Graph`] (`0..n`).
pub type NodeId = usize;

/// Which adjacency representation a [`Graph`] uses (see [`Graph::repr`]).
///
/// The representation is a storage/performance property only: two graphs
/// with the same edge set but different representations behave identically
/// in every kernel (proven by the differential oracle in
/// `tests/bitset_oracle.rs`), though `Graph`'s derived `PartialEq` is
/// representational and will not equate them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum AdjacencyRepr {
    /// Materialized compressed sparse row (offsets + neighbor slice).
    Csr,
    /// Implicit complete graph `K_n`; no adjacency storage.
    Complete {
        /// Node count.
        n: usize,
    },
    /// Implicit 2-D torus (wrap-around grid), `rows × cols`, both ≥ 3.
    Torus {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
    },
    /// Implicit 2-D grid (no wrap-around), `rows × cols`.
    Grid {
        /// Number of rows.
        rows: usize,
        /// Number of columns.
        cols: usize,
    },
}

impl AdjacencyRepr {
    /// A short stable label for metrics and logs.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            AdjacencyRepr::Csr => "csr",
            AdjacencyRepr::Complete { .. } => "implicit-complete",
            AdjacencyRepr::Torus { .. } => "implicit-torus",
            AdjacencyRepr::Grid { .. } => "implicit-grid",
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Repr {
    Csr {
        offsets: Vec<usize>,
        neighbors: Vec<NodeId>,
    },
    Complete {
        n: usize,
    },
    Torus {
        rows: usize,
        cols: usize,
    },
    Grid {
        rows: usize,
        cols: usize,
    },
}

/// An undirected simple graph over nodes `0..n`.
///
/// Stored either materialized (CSR) or implicitly (complete/torus/grid
/// shape parameters only) — see [`AdjacencyRepr`] and the module docs.
/// `PartialEq` is representational: it compares storage, not edge sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    repr: Repr,
}

impl Graph {
    /// Builds a CSR graph from an edge list. Duplicate edges collapse;
    /// edge direction is irrelevant.
    ///
    /// # Errors
    ///
    /// * [`GraphError::NodeOutOfRange`] if an endpoint is `>= n`.
    /// * [`GraphError::SelfLoop`] if an edge joins a node to itself.
    pub fn from_edges(n: usize, edges: &[(NodeId, NodeId)]) -> Result<Self, GraphError> {
        let mut adj: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for &(u, v) in edges {
            if u >= n {
                return Err(GraphError::NodeOutOfRange { node: u, n });
            }
            if v >= n {
                return Err(GraphError::NodeOutOfRange { node: v, n });
            }
            if u == v {
                return Err(GraphError::SelfLoop { node: u });
            }
            adj[u].push(v);
            adj[v].push(u);
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::new();
        offsets.push(0);
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
            neighbors.extend_from_slice(list);
            offsets.push(neighbors.len());
        }
        Ok(Graph {
            repr: Repr::Csr { offsets, neighbors },
        })
    }

    /// An implicit complete graph `K_n`: every pair of distinct nodes is
    /// adjacent, with zero adjacency storage.
    #[must_use]
    pub fn implicit_complete(n: usize) -> Self {
        Graph {
            repr: Repr::Complete { n },
        }
    }

    /// An implicit `rows × cols` torus (wrap-around grid, exactly
    /// 4-regular). Node `r·cols + c` is adjacent to its four orthogonal
    /// neighbors with both coordinates taken modulo the dimensions —
    /// the same edge set as [`crate::topology::torus`], with zero
    /// adjacency storage.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::InvalidTopology`] if either dimension is
    /// below 3 (wrap-around would create multi-edges or self-loops).
    pub fn implicit_torus(rows: usize, cols: usize) -> Result<Self, GraphError> {
        if rows < 3 || cols < 3 {
            return Err(GraphError::InvalidTopology {
                detail: format!("implicit torus needs both dimensions >= 3, got {rows}x{cols}"),
            });
        }
        Ok(Graph {
            repr: Repr::Torus { rows, cols },
        })
    }

    /// An implicit `rows × cols` grid (no wrap-around): the same edge set
    /// as [`crate::topology::grid`], with zero adjacency storage.
    #[must_use]
    pub fn implicit_grid(rows: usize, cols: usize) -> Self {
        Graph {
            repr: Repr::Grid { rows, cols },
        }
    }

    /// Materializes this graph as plain CSR (a no-op clone if it already
    /// is). Useful for comparing an implicit graph against the
    /// general-purpose representation.
    #[must_use]
    pub fn materialize(&self) -> Self {
        if matches!(self.repr, Repr::Csr { .. }) {
            return self.clone();
        }
        let n = self.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::new();
        offsets.push(0);
        for v in 0..n {
            self.for_each_neighbor(v, |u| neighbors.push(u));
            offsets.push(neighbors.len());
        }
        Graph {
            repr: Repr::Csr { offsets, neighbors },
        }
    }

    /// Which adjacency representation this graph uses.
    #[must_use]
    pub fn repr(&self) -> AdjacencyRepr {
        match &self.repr {
            Repr::Csr { .. } => AdjacencyRepr::Csr,
            Repr::Complete { n } => AdjacencyRepr::Complete { n: *n },
            Repr::Torus { rows, cols } => AdjacencyRepr::Torus {
                rows: *rows,
                cols: *cols,
            },
            Repr::Grid { rows, cols } => AdjacencyRepr::Grid {
                rows: *rows,
                cols: *cols,
            },
        }
    }

    /// Bytes of adjacency storage (offsets + neighbor data; zero for
    /// implicit shapes).
    #[must_use]
    pub fn adjacency_bytes(&self) -> usize {
        match &self.repr {
            Repr::Csr { offsets, neighbors } => {
                offsets.len() * size_of::<usize>() + neighbors.len() * size_of::<NodeId>()
            }
            Repr::Complete { .. } | Repr::Torus { .. } | Repr::Grid { .. } => 0,
        }
    }

    /// The number of nodes `n`.
    #[must_use]
    pub fn node_count(&self) -> usize {
        match &self.repr {
            Repr::Csr { offsets, .. } => offsets.len() - 1,
            Repr::Complete { n } => *n,
            Repr::Torus { rows, cols } | Repr::Grid { rows, cols } => rows * cols,
        }
    }

    /// The number of undirected edges `m`.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        match &self.repr {
            Repr::Csr { neighbors, .. } => neighbors.len() / 2,
            Repr::Complete { n } => n * n.saturating_sub(1) / 2,
            Repr::Torus { rows, cols } => 2 * rows * cols,
            Repr::Grid { rows, cols } => {
                if *rows == 0 || *cols == 0 {
                    0
                } else {
                    rows * (cols - 1) + cols * (rows - 1)
                }
            }
        }
    }

    /// The neighbors of `v` as a borrowed sorted slice. **CSR only** —
    /// implicit graphs have no slice to borrow; use
    /// [`Graph::for_each_neighbor`] or [`Graph::collect_neighbors`] for
    /// representation-generic access.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`, or if the graph is not materialized CSR.
    #[must_use]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        match &self.repr {
            Repr::Csr { offsets, neighbors } => &neighbors[offsets[v]..offsets[v + 1]],
            other => panic!(
                "Graph::neighbors needs materialized CSR, not {:?} — use for_each_neighbor \
                 or materialize()",
                match other {
                    Repr::Complete { .. } => "implicit-complete",
                    Repr::Torus { .. } => "implicit-torus",
                    Repr::Grid { .. } => "implicit-grid",
                    Repr::Csr { .. } => unreachable!(),
                }
            ),
        }
    }

    /// Calls `f` for every neighbor of `v`, ascending. Works for every
    /// representation.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn for_each_neighbor<F: FnMut(NodeId)>(&self, v: NodeId, mut f: F) {
        match &self.repr {
            Repr::Csr { offsets, neighbors } => {
                for &u in &neighbors[offsets[v]..offsets[v + 1]] {
                    f(u);
                }
            }
            Repr::Complete { n } => {
                assert!(v < *n);
                for u in 0..*n {
                    if u != v {
                        f(u);
                    }
                }
            }
            Repr::Torus { rows, cols } => {
                assert!(v < rows * cols);
                let (r, c) = (v / cols, v % cols);
                let mut nbrs = [
                    ((r + rows - 1) % rows) * cols + c,
                    (r * cols) + (c + cols - 1) % cols,
                    (r * cols) + (c + 1) % cols,
                    ((r + 1) % rows) * cols + c,
                ];
                nbrs.sort_unstable();
                for u in nbrs {
                    f(u);
                }
            }
            Repr::Grid { rows, cols } => {
                assert!(v < rows * cols);
                let (r, c) = (v / cols, v % cols);
                if r > 0 {
                    f(v - cols);
                }
                if c > 0 {
                    f(v - 1);
                }
                if c + 1 < *cols {
                    f(v + 1);
                }
                if r + 1 < *rows {
                    f(v + cols);
                }
            }
        }
    }

    /// Whether any neighbor of `v` satisfies `pred` (short-circuiting).
    /// Works for every representation.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn any_neighbor<F: FnMut(NodeId) -> bool>(&self, v: NodeId, mut pred: F) -> bool {
        match &self.repr {
            Repr::Csr { offsets, neighbors } => neighbors[offsets[v]..offsets[v + 1]]
                .iter()
                .any(|&u| pred(u)),
            Repr::Complete { n } => {
                assert!(v < *n);
                (0..*n).any(|u| u != v && pred(u))
            }
            _ => {
                let mut hit = false;
                self.for_each_neighbor(v, |u| hit = hit || pred(u));
                hit
            }
        }
    }

    /// The neighbors of `v` as an owned sorted vector. Works for every
    /// representation (unlike the borrowed [`Graph::neighbors`]).
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[must_use]
    pub fn collect_neighbors(&self, v: NodeId) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.degree(v));
        self.for_each_neighbor(v, |u| out.push(u));
        out
    }

    /// The degree of `v`. O(1) in every representation.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[must_use]
    pub fn degree(&self, v: NodeId) -> usize {
        match &self.repr {
            Repr::Csr { offsets, .. } => offsets[v + 1] - offsets[v],
            Repr::Complete { n } => {
                assert!(v < *n);
                n - 1
            }
            Repr::Torus { rows, cols } => {
                assert!(v < rows * cols);
                4
            }
            Repr::Grid { rows, cols } => {
                assert!(v < rows * cols);
                let (r, c) = (v / cols, v % cols);
                usize::from(r > 0)
                    + usize::from(c > 0)
                    + usize::from(c + 1 < *cols)
                    + usize::from(r + 1 < *rows)
            }
        }
    }

    /// The maximum degree `Δ` (0 for an empty or edgeless graph). This is
    /// the parameter every bound in the paper is expressed in. O(1) for
    /// implicit graphs.
    #[must_use]
    pub fn max_degree(&self) -> usize {
        match &self.repr {
            Repr::Csr { .. } => (0..self.node_count())
                .map(|v| self.degree(v))
                .max()
                .unwrap_or(0),
            Repr::Complete { n } => n.saturating_sub(1),
            Repr::Torus { .. } => 4,
            Repr::Grid { rows, cols } => {
                if *rows == 0 || *cols == 0 {
                    0
                } else {
                    (if *rows > 2 { 2 } else { rows - 1 }) + (if *cols > 2 { 2 } else { cols - 1 })
                }
            }
        }
    }

    /// Whether `{u, v}` is an edge. O(1) for implicit shapes, a binary
    /// search for CSR.
    ///
    /// # Panics
    ///
    /// Panics if `u >= n`.
    #[must_use]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        match &self.repr {
            Repr::Csr { offsets, neighbors } => neighbors[offsets[u]..offsets[u + 1]]
                .binary_search(&v)
                .is_ok(),
            Repr::Complete { n } => {
                assert!(u < *n);
                v < *n && u != v
            }
            _ => {
                if v >= self.node_count() {
                    assert!(u < self.node_count());
                    return false;
                }
                self.any_neighbor(u, |w| w == v)
            }
        }
    }

    /// All edges as `(min, max)` pairs, each once, lexicographic order.
    /// Materializes the full list — intended for tests and small graphs,
    /// not the 10M+-node implicit shapes.
    #[must_use]
    pub fn edges(&self) -> Vec<(NodeId, NodeId)> {
        let mut out = Vec::with_capacity(self.edge_count());
        for u in 0..self.node_count() {
            self.for_each_neighbor(u, |v| {
                if u < v {
                    out.push((u, v));
                }
            });
        }
        out
    }

    /// BFS distances from `source`; `None` for unreachable nodes.
    ///
    /// # Panics
    ///
    /// Panics if `source >= n`.
    #[must_use]
    pub fn bfs_distances(&self, source: NodeId) -> Vec<Option<usize>> {
        assert!(source < self.node_count());
        let mut dist = vec![None; self.node_count()];
        dist[source] = Some(0);
        let mut queue = std::collections::VecDeque::from([source]);
        while let Some(u) = queue.pop_front() {
            let du = dist[u].expect("queued nodes have distances");
            self.for_each_neighbor(u, |v| {
                if dist[v].is_none() {
                    dist[v] = Some(du + 1);
                    queue.push_back(v);
                }
            });
        }
        dist
    }

    /// Whether the graph is connected (vacuously true for `n <= 1`).
    #[must_use]
    pub fn is_connected(&self) -> bool {
        if self.node_count() <= 1 {
            return true;
        }
        self.bfs_distances(0).iter().all(Option::is_some)
    }

    /// The diameter `D` of the graph, or `None` if disconnected (or empty).
    /// Runs BFS from every node; fine at simulation scales.
    #[must_use]
    pub fn diameter(&self) -> Option<usize> {
        if self.node_count() == 0 {
            return None;
        }
        let mut best = 0;
        for v in 0..self.node_count() {
            for d in self.bfs_distances(v) {
                best = best.max(d?);
            }
        }
        Some(best)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle_plus_tail() -> Graph {
        // 0-1-2 triangle, 2-3 tail.
        Graph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)]).unwrap()
    }

    #[test]
    fn basic_accessors() {
        let g = triangle_plus_tail();
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 4);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.max_degree(), 3);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn duplicate_and_reversed_edges_collapse() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 0), (0, 1)]).unwrap();
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn rejects_bad_edges() {
        assert_eq!(
            Graph::from_edges(3, &[(0, 3)]),
            Err(GraphError::NodeOutOfRange { node: 3, n: 3 })
        );
        assert_eq!(
            Graph::from_edges(3, &[(1, 1)]),
            Err(GraphError::SelfLoop { node: 1 })
        );
    }

    #[test]
    fn empty_and_isolated() {
        let g = Graph::from_edges(0, &[]).unwrap();
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.diameter(), None);
        let g = Graph::from_edges(5, &[]).unwrap();
        assert_eq!(g.edge_count(), 0);
        assert!(!g.is_connected());
    }

    #[test]
    fn edges_listing() {
        let g = triangle_plus_tail();
        assert_eq!(g.edges(), vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn bfs_and_diameter() {
        let g = triangle_plus_tail();
        let d = g.bfs_distances(3);
        assert_eq!(d, vec![Some(2), Some(2), Some(1), Some(0)]);
        assert_eq!(g.diameter(), Some(2));
        assert!(g.is_connected());
    }

    #[test]
    fn disconnected_diameter_is_none() {
        let g = Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert_eq!(g.diameter(), None);
        assert!(!g.is_connected());
    }

    #[test]
    fn implicit_complete_matches_csr() {
        for n in [0usize, 1, 2, 5, 9] {
            let imp = Graph::implicit_complete(n);
            assert_eq!(imp.node_count(), n);
            assert_eq!(imp.edge_count(), n * n.saturating_sub(1) / 2);
            assert_eq!(imp.max_degree(), n.saturating_sub(1));
            let mat = imp.materialize();
            assert_eq!(mat.repr(), AdjacencyRepr::Csr);
            for v in 0..n {
                assert_eq!(imp.collect_neighbors(v), mat.neighbors(v));
                assert_eq!(imp.degree(v), mat.degree(v));
            }
        }
    }

    #[test]
    fn implicit_torus_matches_generator() {
        for (r, c) in [(3, 3), (3, 4), (4, 3), (5, 7)] {
            let imp = Graph::implicit_torus(r, c).unwrap();
            let gen = crate::topology::torus(r, c).unwrap();
            assert_eq!(imp.node_count(), gen.node_count());
            assert_eq!(imp.edge_count(), gen.edge_count());
            assert_eq!(imp.edges(), gen.edges());
            for v in 0..imp.node_count() {
                assert_eq!(imp.collect_neighbors(v), gen.neighbors(v));
                assert_eq!(imp.degree(v), 4);
            }
        }
        assert!(Graph::implicit_torus(2, 5).is_err());
        assert!(Graph::implicit_torus(3, 2).is_err());
    }

    #[test]
    fn implicit_grid_matches_generator() {
        for (r, c) in [(1, 1), (1, 6), (4, 1), (2, 2), (3, 5), (6, 4)] {
            let imp = Graph::implicit_grid(r, c);
            let gen = crate::topology::grid(r, c).unwrap();
            assert_eq!(imp.node_count(), gen.node_count());
            assert_eq!(imp.edge_count(), gen.edge_count());
            assert_eq!(imp.edges(), gen.edges());
            assert_eq!(imp.max_degree(), gen.max_degree());
            for v in 0..imp.node_count() {
                assert_eq!(imp.collect_neighbors(v), gen.neighbors(v));
                assert_eq!(imp.degree(v), gen.degree(v));
            }
        }
    }

    #[test]
    #[should_panic(expected = "materialized CSR")]
    fn neighbors_panics_on_implicit() {
        let g = Graph::implicit_complete(4);
        let _ = g.neighbors(0);
    }
}
