//! Failure injection: the library must degrade with errors, never panics,
//! when pushed outside its working envelope.

use noisy_beeps::congest::algorithms::Flood;
use noisy_beeps::congest::CongestError;
use noisy_beeps::core::baseline::TdmaSimulator;
use noisy_beeps::core::{BroadcastSimulator, SimError, SimulatedBroadcastRunner, SimulationParams};
use noisy_beeps::net::{topology, BeepNetwork, Noise};
use noisy_beeps::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

#[test]
fn adversarial_noise_yields_decode_failures_not_panics() {
    // ε = 0.45 with constants calibrated for far less: rounds may decode
    // wrongly — the stats must say so, and nothing may panic.
    let eps = 0.45;
    let g = topology::complete(6).unwrap();
    let mut params = SimulationParams::calibrated(0.3); // deliberately undersized
    params.epsilon = eps;
    let sim = BroadcastSimulator::new(params, 12, g.max_degree()).unwrap();
    let mut net = BeepNetwork::new(g, Noise::bernoulli(eps), 2);
    let mut rng = StdRng::seed_from_u64(3);
    let outgoing: Vec<Option<Message>> = (0..6u64)
        .map(|v| Some(MessageWriter::new().push_uint(v, 12).finish(12)))
        .collect();
    let mut imperfect = 0;
    for _ in 0..5 {
        let outcome = sim
            .simulate_round(&mut net, &outgoing, &mut rng)
            .expect("no panic");
        if !outcome.stats.all_perfect() {
            imperfect += 1;
        }
    }
    assert!(
        imperfect > 0,
        "ε = 0.45 with undersized constants should corrupt something"
    );
}

#[test]
fn degree_larger_than_code_overlap_still_runs() {
    // Build the simulator for Δ = 2 but run it on a star with Δ = 5: the
    // beep code's k is undersized, so decoding quality degrades — but the
    // API contract (no panic, stats reported) must hold.
    let g = topology::star(6).unwrap(); // Δ = 5
    let params = SimulationParams::calibrated(0.0);
    let sim = BroadcastSimulator::new(params, 8, 2).unwrap(); // undersized k
    let mut net = BeepNetwork::new(g, Noise::Noiseless, 4);
    let mut rng = StdRng::seed_from_u64(5);
    let outgoing: Vec<Option<Message>> = (0..6u64)
        .map(|v| Some(MessageWriter::new().push_uint(v, 8).finish(8)))
        .collect();
    let outcome = sim
        .simulate_round(&mut net, &outgoing, &mut rng)
        .expect("no panic");
    assert_eq!(outcome.delivered.len(), 6);
}

#[test]
fn error_paths_are_reported_as_errors() {
    let g = topology::path(3).unwrap();
    let params = SimulationParams::calibrated(0.0);

    // Wrong outgoing count.
    let sim = BroadcastSimulator::new(params, 8, 2).unwrap();
    let mut net = BeepNetwork::new(g.clone(), Noise::Noiseless, 0);
    let mut rng = StdRng::seed_from_u64(0);
    assert!(matches!(
        sim.simulate_round(&mut net, &[None], &mut rng),
        Err(SimError::OutgoingCount { .. })
    ));

    // Noise mismatch between simulator and channel.
    let mut noisy_net = BeepNetwork::new(g.clone(), Noise::bernoulli(0.2), 0);
    assert!(matches!(
        sim.simulate_round(&mut noisy_net, &[None, None, None], &mut rng),
        Err(SimError::NoiseMismatch { .. })
    ));

    // A wrong node count is reported before a code-construction failure
    // (a zero message width), which the right count then surfaces.
    let unbuildable = SimulatedBroadcastRunner::new(&g, 0, 0, params, Noise::Noiseless);
    let mut one = vec![Box::new(algorithms::LeaderElection::new(1))];
    assert!(matches!(
        unbuildable.run_to_completion(&mut one, 5),
        Err(SimError::Congest(CongestError::NodeCount {
            expected: 3,
            actual: 1
        }))
    ));
    let mut three: Vec<_> = (0..3)
        .map(|_| Box::new(algorithms::LeaderElection::new(1)))
        .collect();
    assert!(matches!(
        unbuildable.run_to_completion(&mut three, 5),
        Err(SimError::Code(_))
    ));

    // A TDMA baseline run on a graph other than the one its coloring was
    // built for reports the mismatch.
    let tdma = TdmaSimulator::new(&g, 8, 0.0);
    let mut five: Vec<_> = (0..5)
        .map(|_| Box::new(algorithms::LeaderElection::new(1)))
        .collect();
    assert!(matches!(
        tdma.run_to_completion(
            &topology::path(5).unwrap(),
            Noise::Noiseless,
            0,
            &mut five,
            5
        ),
        Err(SimError::Congest(CongestError::NodeCount {
            expected: 3,
            actual: 5
        }))
    ));

    // Round budget exhaustion surfaces as an error with the budget.
    let runner = SimulatedBroadcastRunner::new(&g, 8, 0, params, Noise::Noiseless);
    let mut stuck: Vec<Box<algorithms::LeaderElection>> = (0..3)
        .map(|_| Box::new(algorithms::LeaderElection::new(100)))
        .collect();
    assert!(matches!(
        runner.run_to_completion(&mut stuck, 1),
        Err(SimError::Congest(CongestError::RoundBudgetExhausted {
            budget: 1
        }))
    ));
}

#[test]
fn theory_profile_works_at_toy_scale() {
    // The paper's proof constants are enormous; verify they actually run
    // (and decode perfectly) at a tiny scale. ε = 0.25 gives the smallest
    // theory constant (≈ 311); B = 2 and Δ = 1 keep the length ≈ 2.4·10⁸…
    // still too big. Use the *structure* instead: theory_expansion feeds
    // codes_for without overflow and the derived shapes are consistent.
    let eps = 0.25;
    let params = SimulationParams::theory(eps);
    assert!(params.expansion >= 100);
    let codes = params.codes_for(2, 1).expect("valid construction");
    let c = params.expansion;
    assert_eq!(codes.beep.params().length(), c * c * c * 2 * 2);
    assert_eq!(
        codes.beep.params().weight(),
        codes.distance.params().length()
    );
}

#[test]
fn zero_and_empty_graphs_are_handled() {
    // Empty outgoing round on a singleton graph.
    let g = noisy_beeps::net::Graph::from_edges(1, &[]).unwrap();
    let params = SimulationParams::calibrated(0.0);
    let sim = BroadcastSimulator::new(params, 8, 0).unwrap();
    let mut net = BeepNetwork::new(g, Noise::Noiseless, 0);
    let mut rng = StdRng::seed_from_u64(0);
    let outcome = sim.simulate_round(&mut net, &[None], &mut rng).unwrap();
    assert!(outcome.delivered[0].is_empty());
    assert!(outcome.stats.all_perfect());
}

#[test]
fn oversized_messages_are_rejected_cleanly() {
    // An algorithm that violates the width contract: the runner must
    // reject its message with an error naming the node.
    struct WrongWidth;
    impl BroadcastAlgorithm for WrongWidth {
        fn init(&mut self, _ctx: &noisy_beeps::congest::NodeCtx) {}
        fn round_message(&mut self, _round: usize) -> Option<Message> {
            Some(Message::zero(16))
        }
        fn on_receive(&mut self, _round: usize, _received: &[Message]) {}
        fn is_done(&self) -> bool {
            false
        }
    }
    let g = topology::path(2).unwrap();
    let params = SimulationParams::calibrated(0.0);
    let runner = SimulatedBroadcastRunner::new(&g, 8, 0, params, Noise::Noiseless);
    let mut algos: Vec<Box<WrongWidth>> = vec![Box::new(WrongWidth), Box::new(WrongWidth)];
    assert!(matches!(
        runner.run_to_completion(&mut algos, 4),
        Err(SimError::Congest(CongestError::MessageWidth {
            expected: 8,
            actual: 16,
            node: 0
        }))
    ));
    let _ = Flood::new(0, 1, 16); // keep the import exercised
}
