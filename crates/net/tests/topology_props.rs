//! Property tests for the topology generators the scenario layer sweeps:
//! seeded determinism (the campaign reproducibility contract),
//! structural invariants (node/edge counts, degree bounds, torus
//! 4-regularity, RGG radius respected) and graph equality as edge-set
//! equality.

use beep_net::topology;
use beep_net::Graph;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Canonical edge list for graph equality across constructions.
fn edges(g: &Graph) -> Vec<(usize, usize)> {
    let mut e = g.edges();
    e.sort_unstable();
    e
}

/// The output of generator `which` (`0..15`, one per generator) at about
/// `n ≥ 4` nodes, from `seed`.
fn generated(which: usize, n: usize, seed: u64) -> Graph {
    let rng = &mut StdRng::seed_from_u64(seed);
    match which {
        0 => topology::complete(n),
        1 => topology::complete_bipartite(n / 2, n - n / 2),
        2 => topology::complete_bipartite_with_isolated(n / 4, n),
        3 => topology::path(n),
        4 => topology::cycle(n),
        5 => topology::star(n),
        6 => topology::grid(n / 3, 3),
        7 => topology::torus(n / 3 + 2, 3),
        8 => topology::preferential_attachment(n, 2, rng),
        9 => topology::binary_tree(n),
        10 => topology::hypercube((n % 5) as u32),
        11 => topology::gnp(n, 0.3, rng),
        12 => topology::random_geometric(n, 0.4, rng).map(|(g, _)| g),
        13 => topology::random_regular(2 * n, 3, rng),
        _ => topology::random_tree(n, rng),
    }
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // --- Seeded determinism: same seed ⇒ identical graph; the random
    // families must be pure functions of (params, seed).

    #[test]
    fn gnp_is_seed_deterministic(n in 2usize..40, seed in 0u64..1000) {
        let a = topology::gnp(n, 0.3, &mut StdRng::seed_from_u64(seed)).unwrap();
        let b = topology::gnp(n, 0.3, &mut StdRng::seed_from_u64(seed)).unwrap();
        prop_assert_eq!(edges(&a), edges(&b));
    }

    #[test]
    fn rgg_is_seed_deterministic(n in 1usize..40, seed in 0u64..1000) {
        let (a, pa) = topology::random_geometric(n, 0.3, &mut StdRng::seed_from_u64(seed)).unwrap();
        let (b, pb) = topology::random_geometric(n, 0.3, &mut StdRng::seed_from_u64(seed)).unwrap();
        prop_assert_eq!(edges(&a), edges(&b));
        prop_assert_eq!(pa, pb);
    }

    #[test]
    fn random_regular_is_seed_deterministic(k in 3usize..12, seed in 0u64..1000) {
        let n = 2 * k; // n·d always even
        let a = topology::random_regular(n, 4, &mut StdRng::seed_from_u64(seed)).unwrap();
        let b = topology::random_regular(n, 4, &mut StdRng::seed_from_u64(seed)).unwrap();
        prop_assert_eq!(edges(&a), edges(&b));
    }

    #[test]
    fn preferential_attachment_is_seed_deterministic(n in 4usize..40, seed in 0u64..1000) {
        let a = topology::preferential_attachment(n, 2, &mut StdRng::seed_from_u64(seed)).unwrap();
        let b = topology::preferential_attachment(n, 2, &mut StdRng::seed_from_u64(seed)).unwrap();
        prop_assert_eq!(edges(&a), edges(&b));
    }

    #[test]
    fn random_tree_is_seed_deterministic(n in 1usize..40, seed in 0u64..1000) {
        let a = topology::random_tree(n, &mut StdRng::seed_from_u64(seed)).unwrap();
        let b = topology::random_tree(n, &mut StdRng::seed_from_u64(seed)).unwrap();
        prop_assert_eq!(edges(&a), edges(&b));
    }

    // --- Structural invariants.

    #[test]
    fn torus_is_4_regular_with_exact_counts(rows in 3usize..12, cols in 3usize..12) {
        let g = topology::torus(rows, cols).unwrap();
        let n = rows * cols;
        prop_assert_eq!(g.node_count(), n);
        prop_assert_eq!(g.edge_count(), 2 * n);
        for v in 0..n {
            prop_assert_eq!(g.degree(v), 4, "node {} of {}x{}", v, rows, cols);
        }
        prop_assert!(g.is_connected());
    }

    #[test]
    fn random_regular_degrees_are_exact(k in 2usize..16, d in 2usize..6, seed in 0u64..500) {
        let n = 2 * (k + d); // even product, d < n
        let g = topology::random_regular(n, d, &mut StdRng::seed_from_u64(seed)).unwrap();
        prop_assert_eq!(g.node_count(), n);
        prop_assert_eq!(g.edge_count(), n * d / 2);
        prop_assert_eq!(g.max_degree(), d);
        for v in 0..n {
            prop_assert_eq!(g.degree(v), d);
        }
    }

    #[test]
    fn rgg_respects_the_radius_exactly(n in 2usize..28, seed in 0u64..500, r_ticks in 1usize..18) {
        // The proptest shim has integer strategies only; quantize r.
        let r = r_ticks as f64 * 0.05;
        let (g, pos) = topology::random_geometric(n, r, &mut StdRng::seed_from_u64(seed)).unwrap();
        prop_assert_eq!(pos.len(), n);
        // Positions stay in the unit square.
        for &(x, y) in &pos {
            prop_assert!((0.0..=1.0).contains(&x) && (0.0..=1.0).contains(&y));
        }
        // Edge ⇔ within radius, checked over all pairs.
        for u in 0..n {
            for v in u + 1..n {
                let dx = pos[u].0 - pos[v].0;
                let dy = pos[u].1 - pos[v].1;
                let within = dx * dx + dy * dy <= r * r;
                prop_assert_eq!(g.has_edge(u, v), within, "pair ({}, {})", u, v);
            }
        }
    }

    #[test]
    fn preferential_attachment_counts_and_degree_bounds(
        n in 4usize..48,
        m in 1usize..4, // m ≤ 3 < 4 ≤ n, so n > m always holds
        seed in 0u64..500,
    ) {
        let g = topology::preferential_attachment(n, m, &mut StdRng::seed_from_u64(seed)).unwrap();
        prop_assert_eq!(g.node_count(), n);
        // Seed star has m edges; each of the n−m−1 arrivals adds exactly m.
        prop_assert_eq!(g.edge_count(), m + m * (n - m - 1));
        prop_assert!(g.is_connected());
        // Every arrival keeps degree ≥ m; seed nodes ≥ 1.
        for v in m + 1..n {
            prop_assert!(g.degree(v) >= m, "arrival {} has degree {}", v, g.degree(v));
        }
        for v in 0..=m {
            prop_assert!(g.degree(v) >= 1);
        }
    }

    #[test]
    fn random_tree_is_spanning_and_acyclic(n in 1usize..48, seed in 0u64..500) {
        let g = topology::random_tree(n, &mut StdRng::seed_from_u64(seed)).unwrap();
        prop_assert_eq!(g.node_count(), n);
        prop_assert_eq!(g.edge_count(), n.saturating_sub(1));
        prop_assert!(g.is_connected());
    }

    // --- Equality: two graphs are equal exactly when their edge sets
    // are, however the edges were listed.

    #[test]
    fn graphs_are_equal_exactly_when_their_edge_sets_are(
        which in 0usize..15,
        n in 4usize..40,
        seed in 0u64..500,
    ) {
        let g = generated(which, n, seed);
        let n = g.node_count();
        let listed = g.edges();
        prop_assert_eq!(&Graph::from_edges(n, &listed).unwrap(), &g);
        // The same edges in reverse order, each listed twice and once
        // backwards.
        let messy: Vec<(usize, usize)> =
            listed.iter().rev().flat_map(|&(u, v)| [(v, u), (u, v)]).collect();
        prop_assert_eq!(&Graph::from_edges(n, &messy).unwrap(), &g);
        // One edge fewer is a different graph.
        if let Some((_, rest)) = listed.split_first() {
            prop_assert_ne!(&Graph::from_edges(n, rest).unwrap(), &g);
        }
    }

    #[test]
    fn different_seeds_usually_differ(seed in 0u64..500) {
        // Not a tautology — a generator ignoring its RNG would pass
        // determinism. 40-node G(n, 0.3) collisions across adjacent seeds
        // are astronomically unlikely.
        let a = topology::gnp(40, 0.3, &mut StdRng::seed_from_u64(seed)).unwrap();
        let b = topology::gnp(40, 0.3, &mut StdRng::seed_from_u64(seed + 1)).unwrap();
        prop_assert_ne!(edges(&a), edges(&b));
    }
}
