//! Theorem 11 end-to-end: run whole Broadcast CONGEST (and, via the
//! Corollary 12 adapter, CONGEST) algorithms over a noisy beeping network.

use crate::congest_wrap::CongestAdapter;
use crate::error::SimError;
use crate::params::SimulationParams;
use crate::round_sim::{BroadcastSimulator, RoundOutcome};
use crate::stats::RoundStats;
use beep_congest::{BroadcastAlgorithm, CongestAlgorithm, CongestError, Message, NodeCtx};
use beep_net::{BeepNetwork, ChannelModel, Graph};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Outcome of a completed simulated run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimReport {
    /// Broadcast CONGEST communication rounds simulated.
    pub congest_rounds: usize,
    /// Total beep rounds spent (= `congest_rounds ×
    /// beep_rounds_per_congest_round`).
    pub beep_rounds: usize,
    /// The fixed per-round overhead `2·c_ε³·(Δ+1)·B` — the paper's
    /// `O(Δ log n)`.
    pub beep_rounds_per_congest_round: usize,
    /// Total beeps emitted (energy).
    pub beeps: u64,
    /// Aggregated decode statistics across all simulated rounds.
    pub stats: RoundStats,
}

/// Runs [`BroadcastAlgorithm`]s over a noisy beeping network using
/// Algorithm 1 for every communication round (Theorem 11).
///
/// Mirrors [`beep_congest::BroadcastRunner`]'s interface so the same
/// algorithm values can be executed natively and under simulation and their
/// outputs compared — the workspace's equivalence tests do exactly that.
#[derive(Debug)]
pub struct SimulatedBroadcastRunner<'g> {
    graph: &'g Graph,
    message_bits: usize,
    seed: u64,
    params: SimulationParams,
    channel: ChannelModel,
}

impl<'g> SimulatedBroadcastRunner<'g> {
    /// Creates a runner. `seed` drives node algorithm randomness, codeword
    /// draws, and channel noise (all separated internally). `channel` is
    /// anything convertible into a [`ChannelModel`] — a plain
    /// [`beep_net::Noise`] as always, or any `beep_net::channel` model —
    /// and `params.epsilon` must match the channel's calibration rate
    /// ([`ChannelModel::calibration_epsilon`]: `noise.epsilon()` for iid).
    #[must_use]
    pub fn new(
        graph: &'g Graph,
        message_bits: usize,
        seed: u64,
        params: SimulationParams,
        channel: impl Into<ChannelModel>,
    ) -> Self {
        SimulatedBroadcastRunner {
            graph,
            message_bits,
            seed,
            params,
            channel: channel.into(),
        }
    }

    /// Initializes and runs until every node is done or the budget (in
    /// *Broadcast CONGEST rounds*) is exhausted. Node `v` receives
    /// [`NodeCtx::for_node`], as under the native runner, so algorithms
    /// behave identically under both.
    ///
    /// # Errors
    ///
    /// Construction, width, and budget errors as [`SimError`].
    pub fn run_to_completion<A: BroadcastAlgorithm + ?Sized>(
        &self,
        algorithms: &mut [Box<A>],
        max_rounds: usize,
    ) -> Result<SimReport, SimError> {
        let simulator =
            BroadcastSimulator::new(self.params, self.message_bits, self.graph.max_degree());
        let net = BeepNetwork::new(self.graph.clone(), self.channel.clone(), self.seed ^ 0xBEE9);
        let mut sim_rng = StdRng::seed_from_u64(self.seed ^ 0xC0DE);
        let simulator = simulator.map(|sim| {
            (
                sim.rounds_per_congest_round(),
                move |net: &mut BeepNetwork, outgoing: &[Option<Message>]| {
                    sim.simulate_round(net, outgoing, &mut sim_rng)
                },
            )
        });
        run_simulated(
            net,
            self.message_bits,
            self.seed,
            algorithms,
            max_rounds,
            simulator,
        )
    }
}

/// The round loop of every simulated run, Algorithm 1's and the TDMA
/// baseline's: checks the node count, initializes node `v` with
/// [`NodeCtx::for_node`]`(graph, v, message_bits, seed)`, then simulates one
/// Broadcast CONGEST round per call of the round closure on `net` until
/// every node is done or `max_rounds` is spent.
///
/// `simulator` is the beep rounds one simulated round costs and the round
/// closure, or the error building them; that error is reported after the
/// node-count check.
pub(crate) fn run_simulated<A, F>(
    mut net: BeepNetwork,
    message_bits: usize,
    seed: u64,
    algorithms: &mut [Box<A>],
    max_rounds: usize,
    simulator: Result<(usize, F), SimError>,
) -> Result<SimReport, SimError>
where
    A: BroadcastAlgorithm + ?Sized,
    F: FnMut(&mut BeepNetwork, &[Option<Message>]) -> Result<RoundOutcome, SimError>,
{
    let n = net.graph().node_count();
    if algorithms.len() != n {
        return Err(CongestError::NodeCount {
            expected: n,
            actual: algorithms.len(),
        }
        .into());
    }
    let (beep_rounds_per_congest_round, mut simulate_round) = simulator?;
    for (v, algo) in algorithms.iter_mut().enumerate() {
        algo.init(&NodeCtx::for_node(net.graph(), v, message_bits, seed));
    }
    let mut stats = RoundStats::default();
    let mut congest_rounds = 0;
    for round in 0..max_rounds {
        if algorithms.iter().all(|a| a.is_done()) {
            break;
        }
        let outgoing: Vec<Option<Message>> = algorithms
            .iter_mut()
            .map(|a| a.round_message(round))
            .collect();
        let outcome = simulate_round(&mut net, &outgoing)?;
        for (v, algo) in algorithms.iter_mut().enumerate() {
            algo.on_receive(round, &outcome.delivered[v]);
        }
        stats.merge(&outcome.stats);
        congest_rounds += 1;
    }
    if !algorithms.iter().all(|a| a.is_done()) {
        return Err(CongestError::RoundBudgetExhausted { budget: max_rounds }.into());
    }
    let net_stats = net.stats();
    Ok(SimReport {
        congest_rounds,
        beep_rounds: net_stats.rounds,
        beep_rounds_per_congest_round,
        beeps: net_stats.beeps,
        stats,
    })
}

/// Runs [`CongestAlgorithm`]s over a noisy beeping network (Corollary 12):
/// lifts each node through [`CongestAdapter`] and simulates the resulting
/// Broadcast CONGEST execution, for `O(Δ² log n)` total overhead.
#[derive(Debug)]
pub struct SimulatedCongestRunner<'g> {
    graph: &'g Graph,
    /// The *inner* CONGEST message width.
    message_bits: usize,
    seed: u64,
    params: SimulationParams,
    channel: ChannelModel,
}

impl<'g> SimulatedCongestRunner<'g> {
    /// Creates a runner; `message_bits` is the **CONGEST** message width
    /// (the wrapper adds the two id fields of Corollary 12 internally).
    /// `channel` accepts anything convertible into a [`ChannelModel`],
    /// like [`SimulatedBroadcastRunner::new`].
    #[must_use]
    pub fn new(
        graph: &'g Graph,
        message_bits: usize,
        seed: u64,
        params: SimulationParams,
        channel: impl Into<ChannelModel>,
    ) -> Self {
        SimulatedCongestRunner {
            graph,
            message_bits,
            seed,
            params,
            channel: channel.into(),
        }
    }

    /// Initializes and runs until every node is done or the budget (in
    /// *CONGEST rounds*) is exhausted.
    ///
    /// # Errors
    ///
    /// Construction, width, and budget errors as [`SimError`].
    pub fn run_to_completion<A: CongestAlgorithm>(
        &self,
        algorithms: Vec<A>,
        max_rounds: usize,
    ) -> Result<(Vec<A>, SimReport), SimError> {
        let n = self.graph.node_count();
        let delta = self.graph.max_degree();
        let wrapper_bits = CongestAdapter::<A>::required_message_bits(n, self.message_bits);
        let mut adapters: Vec<Box<CongestAdapter<A>>> = algorithms
            .into_iter()
            .map(|a| Box::new(CongestAdapter::new(a, delta, self.message_bits)))
            .collect();
        let runner = SimulatedBroadcastRunner::new(
            self.graph,
            wrapper_bits,
            self.seed,
            self.params,
            self.channel.clone(),
        );
        let broadcast_budget = CongestAdapter::<A>::broadcast_rounds_for(max_rounds, delta);
        let report = runner.run_to_completion(&mut adapters, broadcast_budget)?;
        let inner = adapters.into_iter().map(|b| b.into_inner()).collect();
        Ok((inner, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beep_congest::algorithms::{BfsTree, Flood, LeaderElection, LubyMis, MaximalMatching};
    use beep_congest::validate;
    use beep_net::{topology, Noise};

    #[test]
    fn flood_over_noiseless_beeps() {
        let g = topology::path(5).unwrap();
        let params = SimulationParams::calibrated(0.0);
        let runner = SimulatedBroadcastRunner::new(&g, 16, 7, params, Noise::Noiseless);
        let mut algos: Vec<Box<Flood>> =
            (0..5).map(|_| Box::new(Flood::new(0, 0xAB, 16))).collect();
        let report = runner.run_to_completion(&mut algos, 10).unwrap();
        assert!(algos.iter().all(|a| a.output() == Some(0xAB)));
        assert!(report.stats.all_perfect(), "{:?}", report.stats);
        assert_eq!(
            report.beep_rounds,
            report.congest_rounds * report.beep_rounds_per_congest_round
        );
    }

    #[test]
    fn flood_over_noisy_beeps() {
        let g = topology::path(4).unwrap();
        let eps = 0.05;
        let params = SimulationParams::calibrated(eps);
        let runner = SimulatedBroadcastRunner::new(&g, 16, 11, params, Noise::bernoulli(eps));
        let mut algos: Vec<Box<Flood>> =
            (0..4).map(|_| Box::new(Flood::new(0, 0x3C, 16))).collect();
        runner.run_to_completion(&mut algos, 10).unwrap();
        assert!(algos.iter().all(|a| a.output() == Some(0x3C)));
    }

    #[test]
    fn simulated_equals_native_for_bfs() {
        // The acid test: the same algorithm, run natively and over beeps,
        // must produce identical outputs (noiseless ⇒ decoding is exact
        // w.h.p.; these parameters give zero observed failures).
        let g = topology::grid(3, 3).unwrap();
        let n = g.node_count();
        let bits = BfsTree::required_message_bits(n);

        let native_runner = beep_congest::BroadcastRunner::new(&g, bits, 5);
        let mut native: Vec<Box<BfsTree>> = (0..n).map(|_| Box::new(BfsTree::new(0))).collect();
        native_runner.run_to_completion(&mut native, n + 1).unwrap();

        let params = SimulationParams::calibrated(0.0);
        let sim_runner = SimulatedBroadcastRunner::new(&g, bits, 5, params, Noise::Noiseless);
        let mut simulated: Vec<Box<BfsTree>> = (0..n).map(|_| Box::new(BfsTree::new(0))).collect();
        let report = sim_runner.run_to_completion(&mut simulated, n + 1).unwrap();

        for v in 0..n {
            assert_eq!(native[v].output(), simulated[v].output(), "node {v}");
        }
        assert!(report.stats.all_perfect());
    }

    #[test]
    fn mis_over_noisy_beeps_is_valid() {
        let g = topology::cycle(7).unwrap();
        let eps = 0.05;
        let n = g.node_count();
        let bits = LubyMis::required_message_bits(n);
        let iters = LubyMis::suggested_iterations(n);
        let params = SimulationParams::calibrated(eps);
        let runner = SimulatedBroadcastRunner::new(&g, bits, 3, params, Noise::bernoulli(eps));
        let mut algos: Vec<Box<LubyMis>> = (0..n).map(|_| Box::new(LubyMis::new(iters))).collect();
        runner
            .run_to_completion(&mut algos, LubyMis::rounds_for(iters))
            .unwrap();
        let out: Vec<bool> = algos.iter().map(|a| a.output().unwrap()).collect();
        assert!(validate::check_mis(&g, &out).is_empty());
    }

    #[test]
    fn matching_over_noisy_beeps_is_valid() {
        // Theorem 21 end-to-end at small scale.
        let g = topology::cycle(6).unwrap();
        let eps = 0.05;
        let n = g.node_count();
        let bits = MaximalMatching::required_message_bits(n);
        let iters = MaximalMatching::suggested_iterations(n);
        let params = SimulationParams::calibrated(eps);
        let runner = SimulatedBroadcastRunner::new(&g, bits, 13, params, Noise::bernoulli(eps));
        let mut algos: Vec<Box<MaximalMatching>> = (0..n)
            .map(|_| Box::new(MaximalMatching::new(iters)))
            .collect();
        let report = runner
            .run_to_completion(&mut algos, MaximalMatching::rounds_for(iters))
            .unwrap();
        let out: Vec<Option<usize>> = algos.iter().map(|a| a.output().unwrap()).collect();
        let violations = validate::check_matching(&g, &out);
        assert!(
            violations.is_empty(),
            "{violations:?} (stats {:?})",
            report.stats
        );
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let g = topology::path(3).unwrap();
        let params = SimulationParams::calibrated(0.0);
        let runner = SimulatedBroadcastRunner::new(&g, 8, 0, params, Noise::Noiseless);
        // Leader election configured to need more rounds than the budget.
        let mut algos: Vec<Box<LeaderElection>> =
            (0..3).map(|_| Box::new(LeaderElection::new(50))).collect();
        let err = runner.run_to_completion(&mut algos, 2).unwrap_err();
        assert!(matches!(
            err,
            SimError::Congest(CongestError::RoundBudgetExhausted { budget: 2 })
        ));
    }

    #[test]
    fn overhead_matches_formula() {
        let g = topology::complete(5).unwrap(); // Δ = 4
        let params = SimulationParams::calibrated(0.0);
        let bits = 10;
        let runner = SimulatedBroadcastRunner::new(&g, bits, 0, params, Noise::Noiseless);
        let mut algos: Vec<Box<LeaderElection>> =
            (0..5).map(|_| Box::new(LeaderElection::new(2))).collect();
        let report = runner.run_to_completion(&mut algos, 5).unwrap();
        assert_eq!(
            report.beep_rounds_per_congest_round,
            params.rounds_per_broadcast_round(bits, 4)
        );
        assert_eq!(
            report.beep_rounds,
            report.congest_rounds * report.beep_rounds_per_congest_round
        );
    }
}
