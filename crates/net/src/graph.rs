//! Undirected simple graphs in compressed sparse row (CSR) form.
//!
//! A [`Graph`] stores `offsets` (one per node, plus one) and one flat,
//! per-node sorted `neighbors` array: the neighbors of `v` are
//! `neighbors[offsets[v]..offsets[v + 1]]`. Every generator in
//! [`crate::topology`] builds one through [`Graph::from_edges`], which
//! sorts and deduplicates each list, so the arrays are a function of the
//! edge set alone.

use crate::error::GraphError;

/// Index of a node in a [`Graph`] (`0..n`).
pub type NodeId = usize;

/// An undirected simple graph over nodes `0..n`, stored as CSR.
///
/// Two graphs are equal exactly when they have the same node count and
/// the same edge set: [`Graph::from_edges`] keeps each neighbor list
/// sorted and free of duplicates, whatever order or direction the edges
/// came in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Graph {
    offsets: Vec<usize>,
    neighbors: Vec<NodeId>,
}

impl Graph {
    /// Builds a graph from an edge list. Duplicate edges collapse; edge
    /// direction is irrelevant.
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
        Ok(Graph { offsets, neighbors })
    }

    /// The CSR arrays `(offsets, neighbors)`, for the engine's gather,
    /// which scans many neighborhoods in one loop.
    pub(crate) fn csr(&self) -> (&[usize], &[NodeId]) {
        (&self.offsets, &self.neighbors)
    }

    /// The number of nodes `n`.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The number of undirected edges `m`.
    #[must_use]
    pub fn edge_count(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// The neighbors of `v`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[must_use]
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        &self.neighbors[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Calls `f` for every neighbor of `v`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    pub fn for_each_neighbor<F: FnMut(NodeId)>(&self, v: NodeId, mut f: F) {
        for &u in self.neighbors(v) {
            f(u);
        }
    }

    /// The degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[must_use]
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v + 1] - self.offsets[v]
    }

    /// The maximum degree `Δ` (0 for an empty or edgeless graph). This is
    /// the parameter every bound in the paper is expressed in.
    #[must_use]
    pub fn max_degree(&self) -> usize {
        (0..self.node_count())
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Whether `{u, v}` is an edge: a binary search of `u`'s neighbors.
    ///
    /// # Panics
    ///
    /// Panics if `u >= n`.
    #[must_use]
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// All edges as `(min, max)` pairs, each once, lexicographic order.
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
        assert_eq!(g.neighbors(2), [0, 1, 3]);
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
        assert_eq!(g.neighbors(0), [1]);
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
}
