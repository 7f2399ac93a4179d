//! One graph contract: an implicit graph (neighborhoods computed from its
//! shape, no adjacency storage) gives exactly the results of its
//! materialized CSR twin — through every registry protocol, the native
//! Broadcast CONGEST runners and the output validators.
//!
//! CI runs this file explicitly and fails if it stops executing tests.

use beep_apps::Protocol;
use beep_congest::algorithms::{BfsTree, Distance2Coloring, LubyMis};
use beep_congest::{validate, BroadcastRunner, CongestRunner, RunReport};
use beep_net::{topology, Graph};

/// Each implicit shape at a small size, next to its materialized twin.
fn implicit_and_materialized() -> Vec<(&'static str, Graph, Graph)> {
    [
        ("torus(4,4)", topology::implicit_torus(4, 4).unwrap()),
        ("grid(3,5)", topology::implicit_grid(3, 5).unwrap()),
        ("complete(8)", topology::implicit_complete(8).unwrap()),
    ]
    .into_iter()
    .map(|(name, implicit)| {
        let csr = implicit.materialize();
        (name, implicit, csr)
    })
    .collect()
}

#[test]
fn every_registry_protocol_matches_its_materialized_twin() {
    for (name, implicit, csr) in implicit_and_materialized() {
        for p in Protocol::ALL {
            let eps = if p.supports_noise() { 0.05 } else { 0.0 };
            let on_implicit = p
                .run(&implicit, eps, 17)
                .unwrap_or_else(|e| panic!("{} on implicit {name}: {e}", p.name()));
            let on_csr = p
                .run(&csr, eps, 17)
                .unwrap_or_else(|e| panic!("{} on materialized {name}: {e}", p.name()));
            assert_eq!(on_implicit, on_csr, "{} on {name}", p.name());
        }
    }
}

/// The distances and parents of a BFS tree, with its run report.
type BfsRun = (Vec<Option<usize>>, Vec<Option<usize>>, RunReport);

/// Runs a native BFS from node 0.
fn bfs(graph: &Graph) -> BfsRun {
    let n = graph.node_count();
    let runner = BroadcastRunner::new(graph, BfsTree::required_message_bits(n), 5);
    let mut algos: Vec<Box<BfsTree>> = (0..n).map(|_| Box::new(BfsTree::new(0))).collect();
    let report = runner.run_to_completion(&mut algos, n + 1).unwrap();
    let (dist, parent) = algos.iter().map(|a| a.output()).unzip();
    (dist, parent, report)
}

/// Runs Luby's MIS natively and returns each node's membership flag.
fn mis(graph: &Graph) -> (Vec<bool>, RunReport) {
    let n = graph.node_count();
    let iters = LubyMis::suggested_iterations(n);
    let runner = BroadcastRunner::new(graph, LubyMis::required_message_bits(n), 5);
    let mut algos: Vec<Box<LubyMis>> = (0..n).map(|_| Box::new(LubyMis::new(iters))).collect();
    let report = runner
        .run_to_completion(&mut algos, LubyMis::rounds_for(iters))
        .unwrap();
    (algos.iter().map(|a| a.output().unwrap()).collect(), report)
}

/// Runs the distance-2 coloring natively, each node built from its
/// neighbor list, and returns the colors.
fn distance2_coloring(graph: &Graph) -> Vec<Option<u64>> {
    let n = graph.node_count();
    let delta = graph.max_degree();
    let iters = Distance2Coloring::suggested_iterations(n);
    let runner = CongestRunner::new(graph, Distance2Coloring::required_message_bits(delta), 5);
    let mut algos: Vec<Box<Distance2Coloring>> = (0..n)
        .map(|v| {
            Box::new(Distance2Coloring::new(
                delta,
                graph.neighbors(v).to_vec(),
                iters,
            ))
        })
        .collect();
    runner
        .run_to_completion(&mut algos, Distance2Coloring::rounds_for(iters))
        .unwrap();
    algos.iter().map(|a| a.output()).collect()
}

#[test]
fn native_runners_and_validators_match_on_implicit_graphs() {
    for (name, implicit, csr) in implicit_and_materialized() {
        let tree = bfs(&implicit);
        assert_eq!(tree, bfs(&csr), "bfs on {name}");
        let (dist, parent, _) = tree;
        assert!(
            validate::check_bfs_tree(&implicit, 0, &dist, &parent).is_empty(),
            "bfs tree on {name}"
        );

        let (in_set, report) = mis(&implicit);
        assert_eq!((in_set.clone(), report), mis(&csr), "mis on {name}");
        assert_eq!(validate::check_mis(&implicit, &in_set), vec![], "{name}");
        // A set that is not maximal reports the same violations on both.
        let empty = vec![false; implicit.node_count()];
        assert_eq!(
            validate::check_mis(&implicit, &empty),
            validate::check_mis(&csr, &empty),
            "{name}"
        );

        let colors = distance2_coloring(&implicit);
        assert_eq!(colors, distance2_coloring(&csr), "coloring on {name}");
        assert!(
            validate::check_distance2_coloring(&implicit, &colors).is_empty(),
            "{name}"
        );
        // One shared color breaks every adjacent and distance-2 pair.
        let mono = vec![Some(0); implicit.node_count()];
        let violations = validate::check_distance2_coloring(&implicit, &mono);
        assert!(!violations.is_empty(), "{name}");
        assert_eq!(
            violations,
            validate::check_distance2_coloring(&csr, &mono),
            "{name}"
        );
    }
}
