//! Property tests for the implicit adjacency layer: the implicit
//! torus/grid/complete representations must expose the same neighbor sets
//! as the materialized generators on random sizes. These are the
//! structure-level guarantees underneath the kernel oracle in
//! `bitset_oracle.rs`.

use beep_net::{topology, Graph};
use proptest::prelude::*;

/// Canonical edge list for graph equality across representations.
fn edges(g: &Graph) -> Vec<(usize, usize)> {
    let mut e = g.edges();
    e.sort_unstable();
    e
}

/// Sorted neighbor list via the repr-generic accessor.
fn neighbor_set(g: &Graph, v: usize) -> Vec<usize> {
    let mut ns = g.collect_neighbors(v);
    ns.sort_unstable();
    ns
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // --- Implicit shapes: zero-storage neighborhoods equal the
    // materialized generators' on random sizes.

    #[test]
    fn implicit_torus_matches_materialized_on_random_sizes(
        rows in 3usize..16,
        cols in 3usize..16,
    ) {
        let implicit = topology::implicit_torus(rows, cols).unwrap();
        let materialized = topology::torus(rows, cols).unwrap();
        prop_assert_eq!(implicit.adjacency_bytes(), 0);
        prop_assert_eq!(implicit.node_count(), rows * cols);
        prop_assert_eq!(implicit.edge_count(), materialized.edge_count());
        for v in 0..rows * cols {
            prop_assert_eq!(implicit.degree(v), 4, "node {} of {}x{}", v, rows, cols);
            prop_assert_eq!(
                neighbor_set(&implicit, v),
                neighbor_set(&materialized, v),
                "node {} of {}x{}", v, rows, cols
            );
        }
    }

    #[test]
    fn implicit_grid_matches_materialized_on_random_sizes(
        rows in 1usize..16,
        cols in 1usize..16,
    ) {
        let implicit = topology::implicit_grid(rows, cols).unwrap();
        let materialized = topology::grid(rows, cols).unwrap();
        prop_assert_eq!(implicit.adjacency_bytes(), 0);
        prop_assert_eq!(implicit.node_count(), rows * cols);
        prop_assert_eq!(implicit.edge_count(), materialized.edge_count());
        for v in 0..rows * cols {
            prop_assert_eq!(
                neighbor_set(&implicit, v),
                neighbor_set(&materialized, v),
                "node {} of {}x{}", v, rows, cols
            );
        }
    }

    #[test]
    fn implicit_complete_matches_materialized_on_random_sizes(n in 1usize..40) {
        let implicit = topology::implicit_complete(n).unwrap();
        let materialized = topology::complete(n).unwrap();
        prop_assert_eq!(implicit.adjacency_bytes(), 0);
        prop_assert_eq!(edges(&implicit), edges(&materialized));
        for v in 0..n {
            prop_assert_eq!(implicit.degree(v), n - 1);
        }
    }

    // --- has_edge agrees with the neighbor sets on every representation.

    #[test]
    fn has_edge_agrees_with_neighbor_sets(rows in 3usize..10, cols in 3usize..10) {
        let implicit = topology::implicit_torus(rows, cols).unwrap();
        let n = rows * cols;
        for v in 0..n {
            let ns = neighbor_set(&implicit, v);
            for u in 0..n {
                prop_assert_eq!(
                    implicit.has_edge(v, u),
                    ns.binary_search(&u).is_ok(),
                    "edge ({}, {}) of {}x{}", v, u, rows, cols
                );
            }
        }
    }
}
