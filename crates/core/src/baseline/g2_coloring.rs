//! Greedy distance-2 (G²) coloring.

use beep_net::Graph;

/// Colors the square of the graph greedily: any two nodes within distance
/// 2 receive different colors. Uses at most `Δ² + 1` colors (each node has
/// at most `Δ + Δ(Δ−1) = Δ²` distance-≤2 neighbors).
///
/// This is the schedule prior simulations sequence transmissions by; we
/// compute it centrally (see module docs — this only makes the baseline
/// look better).
#[must_use]
pub fn distance2_coloring(graph: &Graph) -> Vec<usize> {
    let n = graph.node_count();
    let mut colors = vec![usize::MAX; n];
    let mut taken = Vec::new();
    for v in 0..n {
        taken.clear();
        graph.for_each_neighbor(v, |u| {
            if colors[u] != usize::MAX {
                taken.push(colors[u]);
            }
            graph.for_each_neighbor(u, |w| {
                if w != v && colors[w] != usize::MAX {
                    taken.push(colors[w]);
                }
            });
        });
        taken.sort_unstable();
        taken.dedup();
        // Smallest color not taken (mex).
        let mut color = 0;
        for &t in &taken {
            if t == color {
                color += 1;
            } else if t > color {
                break;
            }
        }
        colors[v] = color;
    }
    colors
}

/// Number of distinct colors used by a coloring.
#[must_use]
pub fn num_colors(coloring: &[usize]) -> usize {
    coloring.iter().copied().max().map_or(0, |c| c + 1)
}

/// Checks that a coloring is a proper distance-2 coloring; returns
/// violating pairs (empty = valid).
#[must_use]
pub fn verify_distance2_coloring(graph: &Graph, coloring: &[usize]) -> Vec<(usize, usize)> {
    let mut violations = Vec::new();
    for v in 0..graph.node_count() {
        graph.for_each_neighbor(v, |u| {
            if u > v && coloring[u] == coloring[v] {
                violations.push((v, u));
            }
            graph.for_each_neighbor(u, |w| {
                if w > v && coloring[w] == coloring[v] {
                    violations.push((v, w));
                }
            });
        });
    }
    violations.sort_unstable();
    violations.dedup();
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use beep_net::topology;

    #[test]
    fn colorings_are_valid_on_assorted_graphs() {
        for (name, g) in [
            ("path", topology::path(20).unwrap()),
            ("cycle", topology::cycle(11).unwrap()),
            ("complete", topology::complete(8).unwrap()),
            ("star", topology::star(9).unwrap()),
            ("grid", topology::grid(5, 6).unwrap()),
            ("bipartite", topology::complete_bipartite(5, 5).unwrap()),
        ] {
            let coloring = distance2_coloring(&g);
            assert!(
                verify_distance2_coloring(&g, &coloring).is_empty(),
                "{name}"
            );
            let delta = g.max_degree();
            assert!(
                num_colors(&coloring) <= delta * delta + 1,
                "{name}: {} colors for Δ = {delta}",
                num_colors(&coloring)
            );
        }
    }

    #[test]
    fn complete_graph_needs_n_colors() {
        // In K_n every pair is at distance 1, so n colors are forced.
        let g = topology::complete(7).unwrap();
        assert_eq!(num_colors(&distance2_coloring(&g)), 7);
    }

    #[test]
    fn star_needs_n_colors() {
        // All leaves are at distance 2 through the hub.
        let g = topology::star(8).unwrap();
        assert_eq!(num_colors(&distance2_coloring(&g)), 8);
    }

    #[test]
    fn path_uses_three_colors() {
        let g = topology::path(10).unwrap();
        assert_eq!(num_colors(&distance2_coloring(&g)), 3);
    }

    #[test]
    fn verifier_catches_violations() {
        let g = topology::path(3).unwrap(); // 0-1-2: all within distance 2
        let bad = vec![0, 1, 0];
        assert_eq!(verify_distance2_coloring(&g, &bad), vec![(0, 2)]);
    }

    #[test]
    fn empty_graph() {
        let g = beep_net::Graph::from_edges(0, &[]).unwrap();
        assert_eq!(num_colors(&distance2_coloring(&g)), 0);
    }
}
