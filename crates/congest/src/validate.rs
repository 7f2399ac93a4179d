//! Output validators: independent checkers for the properties the
//! algorithms must guarantee. Tests and experiments validate every run with
//! these rather than trusting algorithm-internal state.

use beep_net::{Graph, NodeId};

/// A matching failure found by [`check_matching`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MatchingViolation {
    /// Node `v` output partner `u` but `{u,v}` is not an edge.
    NotAnEdge {
        /// The node whose output is invalid.
        v: NodeId,
        /// The claimed partner.
        partner: NodeId,
    },
    /// Node `v` output `u` but `u` did not output `v` (the paper's
    /// Symmetry condition).
    Asymmetric {
        /// The node whose output is unreciprocated.
        v: NodeId,
        /// The claimed partner.
        partner: NodeId,
    },
    /// Edge `{u,v}` has both endpoints unmatched (the paper's Maximality
    /// condition).
    NotMaximal {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
}

/// Checks the paper's Section 6 conditions for a maximal matching:
/// Symmetry (outputs pair up along edges) and Maximality (no edge has both
/// endpoints unmatched). `output[v]` is `Some(partner)` or `None` for
/// Unmatched.
///
/// Returns all violations (empty = valid).
///
/// # Panics
///
/// Panics if `output.len() != graph.node_count()`.
#[must_use]
pub fn check_matching(graph: &Graph, output: &[Option<NodeId>]) -> Vec<MatchingViolation> {
    assert_eq!(output.len(), graph.node_count(), "one output per node");
    let mut violations = Vec::new();
    for (v, &out) in output.iter().enumerate() {
        if let Some(u) = out {
            if u >= graph.node_count() || !graph.has_edge(v, u) {
                violations.push(MatchingViolation::NotAnEdge { v, partner: u });
            } else if output[u] != Some(v) {
                violations.push(MatchingViolation::Asymmetric { v, partner: u });
            }
        }
    }
    for (u, v) in graph.edges() {
        if output[u].is_none() && output[v].is_none() {
            violations.push(MatchingViolation::NotMaximal { u, v });
        }
    }
    violations
}

/// An MIS failure found by [`check_mis`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MisViolation {
    /// Adjacent nodes `u`, `v` are both in the set.
    NotIndependent {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
    },
    /// Node `v` is outside the set and has no neighbor inside it.
    NotMaximal {
        /// The uncovered node.
        v: NodeId,
    },
}

/// Checks that `in_set` marks a maximal independent set.
///
/// # Panics
///
/// Panics if `in_set.len() != graph.node_count()`.
#[must_use]
pub fn check_mis(graph: &Graph, in_set: &[bool]) -> Vec<MisViolation> {
    assert_eq!(in_set.len(), graph.node_count(), "one flag per node");
    let mut violations = Vec::new();
    for (u, v) in graph.edges() {
        if in_set[u] && in_set[v] {
            violations.push(MisViolation::NotIndependent { u, v });
        }
    }
    for v in 0..graph.node_count() {
        if !in_set[v] && !graph.neighbors(v).iter().any(|&u| in_set[u]) {
            violations.push(MisViolation::NotMaximal { v });
        }
    }
    violations
}

/// A coloring failure found by [`check_coloring`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ColoringViolation {
    /// Adjacent nodes `u`, `v` share a color.
    Monochrome {
        /// One endpoint.
        u: NodeId,
        /// The other endpoint.
        v: NodeId,
        /// The shared color.
        color: u64,
    },
    /// Node `v` was never colored.
    Uncolored {
        /// The uncolored node.
        v: NodeId,
    },
    /// Node `v`'s color exceeds the palette bound `Δ+1` (colors are
    /// `0..=Δ`).
    OutOfPalette {
        /// The offending node.
        v: NodeId,
        /// Its out-of-palette color.
        color: u64,
    },
}

/// Checks a (Δ+1)-coloring: total, proper, and within the palette
/// `{0, …, Δ}`.
///
/// # Panics
///
/// Panics if `colors.len() != graph.node_count()`.
#[must_use]
pub fn check_coloring(graph: &Graph, colors: &[Option<u64>]) -> Vec<ColoringViolation> {
    assert_eq!(colors.len(), graph.node_count(), "one color per node");
    let mut violations = Vec::new();
    let palette = graph.max_degree() as u64;
    for (v, &c) in colors.iter().enumerate() {
        match c {
            None => violations.push(ColoringViolation::Uncolored { v }),
            Some(c) if c > palette => {
                violations.push(ColoringViolation::OutOfPalette { v, color: c })
            }
            Some(_) => {}
        }
    }
    for (u, v) in graph.edges() {
        if let (Some(cu), Some(cv)) = (colors[u], colors[v]) {
            if cu == cv {
                violations.push(ColoringViolation::Monochrome { u, v, color: cu });
            }
        }
    }
    violations
}

/// Checks a distance-2 (G²) coloring: total, and no two nodes within
/// distance ≤ 2 share a color. Returns violating node pairs / uncolored
/// nodes as strings (empty = valid).
///
/// # Panics
///
/// Panics if `colors.len() != graph.node_count()`.
#[must_use]
pub fn check_distance2_coloring(graph: &Graph, colors: &[Option<u64>]) -> Vec<String> {
    assert_eq!(colors.len(), graph.node_count(), "one color per node");
    let mut violations = Vec::new();
    for (v, c) in colors.iter().enumerate() {
        if c.is_none() {
            violations.push(format!("node {v} uncolored"));
        }
    }
    for v in 0..graph.node_count() {
        for &u in graph.neighbors(v).iter() {
            if u > v && colors[u].is_some() && colors[u] == colors[v] {
                violations.push(format!("adjacent {v},{u} share color {:?}", colors[v]));
            }
            for &w in graph.neighbors(u).iter() {
                if w > v && colors[w].is_some() && colors[w] == colors[v] {
                    violations.push(format!("distance-2 {v},{w} share color {:?}", colors[v]));
                }
            }
        }
    }
    violations.sort_unstable();
    violations.dedup();
    violations
}

/// Checks a BFS tree rooted at `root`: every reachable node's distance
/// matches true BFS distance and its parent is a neighbor one step closer.
/// Returns human-readable violation strings (empty = valid).
///
/// # Panics
///
/// Panics on length mismatches.
#[must_use]
pub fn check_bfs_tree(
    graph: &Graph,
    root: NodeId,
    dist: &[Option<usize>],
    parent: &[Option<NodeId>],
) -> Vec<String> {
    assert_eq!(dist.len(), graph.node_count());
    assert_eq!(parent.len(), graph.node_count());
    let truth = graph.bfs_distances(root);
    let mut violations = Vec::new();
    for v in 0..graph.node_count() {
        if dist[v] != truth[v] {
            violations.push(format!(
                "node {v}: claimed distance {:?}, true {:?}",
                dist[v], truth[v]
            ));
        }
        match (dist[v], parent[v]) {
            (Some(0), None) if v == root => {}
            (Some(0), _) if v != root => violations.push(format!("node {v} claims distance 0")),
            (Some(d), Some(p)) => {
                if !graph.has_edge(v, p) {
                    violations.push(format!("node {v}: parent {p} not a neighbor"));
                } else if dist[p] != Some(d - 1) {
                    violations.push(format!("node {v}: parent {p} not one step closer"));
                }
            }
            (Some(d), None) if d > 0 => {
                violations.push(format!("node {v}: distance {d} but no parent"))
            }
            _ => {}
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use beep_net::topology;

    #[test]
    fn valid_matching_passes() {
        let g = topology::path(4).unwrap(); // 0-1-2-3
        let output = vec![Some(1), Some(0), Some(3), Some(2)];
        assert!(check_matching(&g, &output).is_empty());
    }

    #[test]
    fn matching_detects_asymmetry() {
        let g = topology::path(3).unwrap();
        let output = vec![Some(1), None, None];
        let v = check_matching(&g, &output);
        assert!(v.contains(&MatchingViolation::Asymmetric { v: 0, partner: 1 }));
    }

    #[test]
    fn matching_detects_non_edge() {
        let g = topology::path(3).unwrap();
        let output = vec![Some(2), None, Some(0)];
        let v = check_matching(&g, &output);
        assert!(v
            .iter()
            .any(|x| matches!(x, MatchingViolation::NotAnEdge { .. })));
    }

    #[test]
    fn matching_detects_non_maximality() {
        let g = topology::path(4).unwrap();
        let output = vec![None, None, Some(3), Some(2)];
        let v = check_matching(&g, &output);
        assert_eq!(v, vec![MatchingViolation::NotMaximal { u: 0, v: 1 }]);
    }

    #[test]
    fn empty_matching_on_edgeless_graph_is_valid() {
        let g = Graph::from_edges(3, &[]).unwrap();
        assert!(check_matching(&g, &[None, None, None]).is_empty());
    }

    #[test]
    fn valid_mis_passes() {
        let g = topology::path(5).unwrap();
        assert!(check_mis(&g, &[true, false, true, false, true]).is_empty());
    }

    #[test]
    fn mis_detects_dependence_and_non_maximality() {
        let g = topology::path(3).unwrap();
        let v = check_mis(&g, &[true, true, false]);
        assert!(v.contains(&MisViolation::NotIndependent { u: 0, v: 1 }));
        let v = check_mis(&g, &[true, false, false]);
        assert_eq!(v, vec![MisViolation::NotMaximal { v: 2 }]);
    }

    #[test]
    fn valid_coloring_passes() {
        let g = topology::cycle(4).unwrap();
        let colors = vec![Some(0), Some(1), Some(0), Some(1)];
        assert!(check_coloring(&g, &colors).is_empty());
    }

    #[test]
    fn coloring_detects_violations() {
        let g = topology::cycle(4).unwrap(); // Δ = 2, palette {0,1,2}
        let v = check_coloring(&g, &[Some(0), Some(0), Some(1), Some(1)]);
        assert!(v
            .iter()
            .any(|x| matches!(x, ColoringViolation::Monochrome { .. })));
        let v = check_coloring(&g, &[None, Some(1), Some(0), Some(1)]);
        assert_eq!(v, vec![ColoringViolation::Uncolored { v: 0 }]);
        let v = check_coloring(&g, &[Some(9), Some(1), Some(0), Some(1)]);
        assert!(v
            .iter()
            .any(|x| matches!(x, ColoringViolation::OutOfPalette { color: 9, .. })));
    }

    #[test]
    fn valid_bfs_tree_passes() {
        let g = topology::path(4).unwrap();
        let dist = vec![Some(0), Some(1), Some(2), Some(3)];
        let parent = vec![None, Some(0), Some(1), Some(2)];
        assert!(check_bfs_tree(&g, 0, &dist, &parent).is_empty());
    }

    #[test]
    fn bfs_tree_detects_wrong_distance() {
        let g = topology::path(3).unwrap();
        let dist = vec![Some(0), Some(1), Some(1)];
        let parent = vec![None, Some(0), Some(1)];
        assert!(!check_bfs_tree(&g, 0, &dist, &parent).is_empty());
    }
}
