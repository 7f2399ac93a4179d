//! The reproduction's central integration property (Theorem 11): a
//! Broadcast CONGEST algorithm run natively and run over the beeping
//! simulation must produce identical outputs — because every simulated
//! communication round delivers exactly the same message multisets. The
//! TDMA baseline, run noiselessly, must reproduce them too.

use noisy_beeps::congest::algorithms::{BfsTree, Flood, LeaderElection, LubyMis, MaximalMatching};
use noisy_beeps::congest::BroadcastRunner;
use noisy_beeps::core::baseline::TdmaSimulator;
use noisy_beeps::core::{SimulatedBroadcastRunner, SimulationParams};
use noisy_beeps::net::{topology, Graph, Noise};

fn graphs() -> Vec<(&'static str, Graph)> {
    vec![
        ("path", topology::path(7).unwrap()),
        ("cycle", topology::cycle(8).unwrap()),
        ("star", topology::star(6).unwrap()),
        ("grid", topology::grid(3, 3).unwrap()),
        ("complete", topology::complete(5).unwrap()),
    ]
}

/// Runs the same algorithm constructor natively, under Algorithm 1 and
/// under the TDMA baseline, and compares outputs.
fn assert_equivalent<A, F, O>(
    graph: &Graph,
    bits: usize,
    budget: usize,
    make: F,
    output: impl Fn(&A) -> O,
) where
    A: noisy_beeps::congest::BroadcastAlgorithm,
    F: Fn() -> A,
    O: std::fmt::Debug + PartialEq,
{
    let n = graph.node_count();
    let seed = 31;

    let native_runner = BroadcastRunner::new(graph, bits, seed);
    let mut native: Vec<Box<A>> = (0..n).map(|_| Box::new(make())).collect();
    native_runner
        .run_to_completion(&mut native, budget)
        .expect("native run");

    let params = SimulationParams::calibrated(0.0);
    let sim_runner = SimulatedBroadcastRunner::new(graph, bits, seed, params, Noise::Noiseless);
    let mut simulated: Vec<Box<A>> = (0..n).map(|_| Box::new(make())).collect();
    let report = sim_runner
        .run_to_completion(&mut simulated, budget)
        .expect("simulated run");
    assert!(
        report.stats.all_perfect(),
        "noiseless simulation must be perfect: {:?}",
        report.stats
    );

    let tdma = TdmaSimulator::new(graph, bits, 0.0);
    let mut baseline: Vec<Box<A>> = (0..n).map(|_| Box::new(make())).collect();
    let tdma_report = tdma
        .run_to_completion(graph, Noise::Noiseless, seed, &mut baseline, budget)
        .expect("TDMA run");
    assert!(
        tdma_report.stats.all_perfect(),
        "noiseless TDMA must be perfect: {:?}",
        tdma_report.stats
    );

    for v in 0..n {
        assert_eq!(
            output(&native[v]),
            output(&simulated[v]),
            "node {v} diverged"
        );
        assert_eq!(
            output(&native[v]),
            output(&baseline[v]),
            "node {v} diverged under TDMA"
        );
    }
}

#[test]
fn bfs_native_equals_simulated_everywhere() {
    for (name, g) in graphs() {
        let n = g.node_count();
        let bits = BfsTree::required_message_bits(n);
        assert_equivalent(
            &g,
            bits,
            n + 1,
            || BfsTree::new(0),
            |a: &BfsTree| a.output(),
        );
        let _ = name;
    }
}

#[test]
fn flood_native_equals_simulated_everywhere() {
    for (_name, g) in graphs() {
        let n = g.node_count();
        assert_equivalent(
            &g,
            16,
            n + 1,
            || Flood::new(1, 0x2B, 16),
            |a: &Flood| a.output(),
        );
    }
}

#[test]
fn leader_election_native_equals_simulated() {
    for (_name, g) in graphs() {
        let n = g.node_count();
        let d = g.diameter().unwrap();
        let bits = LeaderElection::required_message_bits(n);
        assert_equivalent(
            &g,
            bits,
            d + 2,
            || LeaderElection::new(d + 1),
            |a: &LeaderElection| a.output(),
        );
    }
}

#[test]
fn mis_native_equals_simulated() {
    // Randomized algorithm: equivalence holds because every runner seeds
    // node randomness through `NodeCtx::for_node` and message delivery is
    // identical.
    for (_name, g) in graphs() {
        let n = g.node_count();
        let bits = LubyMis::required_message_bits(n);
        let iters = LubyMis::suggested_iterations(n);
        assert_equivalent(
            &g,
            bits,
            LubyMis::rounds_for(iters),
            || LubyMis::new(iters),
            |a: &LubyMis| a.output(),
        );
    }
}

#[test]
fn matching_native_equals_simulated() {
    for (_name, g) in graphs() {
        let n = g.node_count();
        let bits = MaximalMatching::required_message_bits(n);
        let iters = MaximalMatching::suggested_iterations(n);
        assert_equivalent(
            &g,
            bits,
            MaximalMatching::rounds_for(iters),
            || MaximalMatching::new(iters),
            |a: &MaximalMatching| a.output(),
        );
    }
}

#[test]
fn simulation_is_deterministic_in_the_seed() {
    let g = topology::grid(3, 3).unwrap();
    let n = g.node_count();
    let bits = MaximalMatching::required_message_bits(n);
    let iters = MaximalMatching::suggested_iterations(n);
    let run = |seed: u64, eps: f64| {
        let params = SimulationParams::calibrated(eps);
        let noise = if eps == 0.0 {
            Noise::Noiseless
        } else {
            Noise::bernoulli(eps)
        };
        let runner = SimulatedBroadcastRunner::new(&g, bits, seed, params, noise);
        let mut algos: Vec<Box<MaximalMatching>> = (0..n)
            .map(|_| Box::new(MaximalMatching::new(iters)))
            .collect();
        let report = runner
            .run_to_completion(&mut algos, MaximalMatching::rounds_for(iters))
            .expect("run");
        (
            algos.iter().map(|a| a.output()).collect::<Vec<_>>(),
            report.beep_rounds,
        )
    };
    assert_eq!(run(5, 0.1), run(5, 0.1), "same seed must reproduce exactly");
    assert_eq!(run(6, 0.0), run(6, 0.0));
}
