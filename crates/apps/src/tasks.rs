//! Classic graph tasks over noisy beeps — the paper's headline use case,
//! with Theorem 21's maximal matching as the flagship.

use crate::error::AppError;
use beep_congest::algorithms::{LubyMis, MaximalMatching, RandomColoring};
use beep_congest::{validate, BroadcastAlgorithm};
use beep_core::{SimReport, SimulatedBroadcastRunner, SimulationParams};
use beep_net::{ChannelModel, Graph, NodeId, Noise};
use std::fmt::Debug;

/// A solved task together with its cost accounting.
#[derive(Debug, Clone)]
pub struct TaskReport<T> {
    /// Per-node outputs.
    pub output: Vec<T>,
    /// Simulation accounting (beep rounds, overheads, decode stats).
    pub report: SimReport,
}

impl<T> TaskReport<T> {
    /// `self` if the validator found no `violations`, else
    /// [`AppError::InvalidOutput`] listing them.
    fn validated<V: Debug>(self, violations: Vec<V>) -> Result<Self, AppError> {
        if violations.is_empty() {
            Ok(self)
        } else {
            Err(AppError::InvalidOutput {
                detail: format!("{violations:?}"),
            })
        }
    }
}

/// The paper's iid channel at rate `epsilon`, built through the fallible
/// constructor: `ε = 0` is the noiseless model, anything else must lie in
/// the paper's open interval `(0, ½)` or the caller gets [`AppError::Net`]
/// instead of a panic deep inside the engine.
pub(crate) fn iid_channel(epsilon: f64) -> Result<ChannelModel, AppError> {
    let noise = if epsilon == 0.0 {
        Noise::Noiseless
    } else {
        Noise::try_bernoulli(epsilon)?
    };
    Ok(noise.into())
}

/// Runs one `make()` per node of `graph` under Algorithm 1 on `channel`,
/// calibrated as [`maximal_matching_with_channel`] describes, and collects
/// each node's `output`.
pub(crate) fn solve<A: BroadcastAlgorithm, T>(
    graph: &Graph,
    channel: &ChannelModel,
    seed: u64,
    message_bits: usize,
    max_rounds: usize,
    make: impl Fn() -> A,
    output: impl Fn(&A) -> T,
) -> Result<TaskReport<T>, AppError> {
    let params = SimulationParams::calibrated(channel.calibration_epsilon());
    let runner = SimulatedBroadcastRunner::new(graph, message_bits, seed, params, channel.clone());
    let mut algos: Vec<Box<A>> = (0..graph.node_count()).map(|_| Box::new(make())).collect();
    let report = runner.run_to_completion(&mut algos, max_rounds)?;
    let output = algos.iter().map(|a| output(a)).collect();
    Ok(TaskReport { output, report })
}

/// Maximal matching in the noisy beeping model (Theorem 21):
/// `O(Δ log² n)` beep rounds, output validated for symmetry and
/// maximality before returning.
///
/// `output[v]` is `Some(partner)` or `None` for unmatched.
///
/// # Errors
///
/// * [`AppError::Net`] if `epsilon` is outside `{0} ∪ (0, ½)`.
/// * [`AppError::Sim`] on simulation failures (budget, widths, …).
/// * [`AppError::InvalidOutput`] if the (with-high-probability) guarantee
///   failed this run — possible under noise, rerun with another seed.
pub fn maximal_matching(
    graph: &Graph,
    epsilon: f64,
    seed: u64,
) -> Result<TaskReport<Option<NodeId>>, AppError> {
    maximal_matching_with_channel(graph, &iid_channel(epsilon)?, seed)
}

/// [`maximal_matching`] under an arbitrary [`ChannelModel`]: the
/// simulation parameters are calibrated to the channel's
/// [`calibration_epsilon`](ChannelModel::calibration_epsilon) (its
/// worst-case iid-equivalent rate), and the run is deterministic in
/// `(graph, channel, seed)`.
///
/// # Errors
///
/// As [`maximal_matching`].
pub fn maximal_matching_with_channel(
    graph: &Graph,
    channel: &ChannelModel,
    seed: u64,
) -> Result<TaskReport<Option<NodeId>>, AppError> {
    let n = graph.node_count();
    let iters = MaximalMatching::suggested_iterations(n);
    let solved = solve(
        graph,
        channel,
        seed,
        MaximalMatching::required_message_bits(n),
        MaximalMatching::rounds_for(iters),
        || MaximalMatching::new(iters),
        |a| a.output().expect("runner completed"),
    )?;
    let violations = validate::check_matching(graph, &solved.output);
    solved.validated(violations)
}

/// Maximal independent set over noisy beeps (Luby's algorithm under the
/// Theorem 11 simulation). `output[v]` is `true` iff `v` is in the set.
///
/// # Errors
///
/// As [`maximal_matching`].
pub fn maximal_independent_set(
    graph: &Graph,
    epsilon: f64,
    seed: u64,
) -> Result<TaskReport<bool>, AppError> {
    maximal_independent_set_with_channel(graph, &iid_channel(epsilon)?, seed)
}

/// [`maximal_independent_set`] under an arbitrary [`ChannelModel`] (see
/// [`maximal_matching_with_channel`] for the calibration convention).
///
/// # Errors
///
/// As [`maximal_matching`].
pub fn maximal_independent_set_with_channel(
    graph: &Graph,
    channel: &ChannelModel,
    seed: u64,
) -> Result<TaskReport<bool>, AppError> {
    let n = graph.node_count();
    let iters = LubyMis::suggested_iterations(n);
    let solved = solve(
        graph,
        channel,
        seed,
        LubyMis::required_message_bits(n),
        LubyMis::rounds_for(iters),
        || LubyMis::new(iters),
        |a| a.output().expect("completed"),
    )?;
    let violations = validate::check_mis(graph, &solved.output);
    solved.validated(violations)
}

/// (Δ+1)-coloring over noisy beeps. `output[v]` is `v`'s color in
/// `{0, …, Δ}`.
///
/// # Errors
///
/// As [`maximal_matching`].
pub fn coloring(graph: &Graph, epsilon: f64, seed: u64) -> Result<TaskReport<u64>, AppError> {
    coloring_with_channel(graph, &iid_channel(epsilon)?, seed)
}

/// [`coloring`] under an arbitrary [`ChannelModel`] (see
/// [`maximal_matching_with_channel`] for the calibration convention).
///
/// # Errors
///
/// As [`maximal_matching`].
pub fn coloring_with_channel(
    graph: &Graph,
    channel: &ChannelModel,
    seed: u64,
) -> Result<TaskReport<u64>, AppError> {
    let n = graph.node_count();
    let iters = RandomColoring::suggested_iterations(n);
    let solved = solve(
        graph,
        channel,
        seed,
        RandomColoring::required_message_bits(n),
        RandomColoring::rounds_for(iters),
        || RandomColoring::new(iters),
        RandomColoring::output,
    )?;
    let violations = validate::check_coloring(graph, &solved.output);
    let solved = solved.validated(violations)?;
    Ok(TaskReport {
        output: solved
            .output
            .into_iter()
            .map(|c| c.expect("validated total"))
            .collect(),
        report: solved.report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use beep_net::topology;

    #[test]
    fn matching_on_noisy_cycle() {
        let g = topology::cycle(6).unwrap();
        let result = maximal_matching(&g, 0.05, 5).unwrap();
        assert_eq!(result.output.len(), 6);
        // Validation already ran inside; spot-check the overhead claim.
        assert_eq!(
            result.report.beep_rounds,
            result.report.congest_rounds * result.report.beep_rounds_per_congest_round
        );
    }

    #[test]
    fn matching_on_noiseless_star() {
        let g = topology::star(5).unwrap();
        let result = maximal_matching(&g, 0.0, 1).unwrap();
        // Star: exactly one leaf matches the hub.
        let matched = result.output.iter().filter(|o| o.is_some()).count();
        assert_eq!(matched, 2);
        assert!(result.report.stats.all_perfect());
    }

    #[test]
    fn mis_on_noisy_path() {
        let g = topology::path(7).unwrap();
        let result = maximal_independent_set(&g, 0.05, 2).unwrap();
        assert!(result.output.iter().any(|&b| b));
    }

    #[test]
    fn coloring_on_noisy_triangle() {
        let g = topology::complete(3).unwrap();
        let result = coloring(&g, 0.05, 3).unwrap();
        let mut colors = result.output.clone();
        colors.sort_unstable();
        colors.dedup();
        assert_eq!(colors.len(), 3, "K₃ needs 3 distinct colors");
    }

    #[test]
    fn invalid_noise_rate_is_an_error_not_a_panic() {
        let g = topology::path(4).unwrap();
        for bad in [0.5, 0.75, -0.1] {
            let err = maximal_matching(&g, bad, 0).unwrap_err();
            assert!(
                matches!(err, AppError::Net(beep_net::NetError::InvalidNoise { .. })),
                "ε = {bad}: {err}"
            );
        }
    }

    #[test]
    fn isolated_vertices_are_handled() {
        let g = beep_net::Graph::from_edges(4, &[(0, 1)]).unwrap();
        let m = maximal_matching(&g, 0.0, 4).unwrap();
        assert_eq!(m.output[2], None);
        assert_eq!(m.output[3], None);
        let s = maximal_independent_set(&g, 0.0, 4).unwrap();
        assert!(s.output[2] && s.output[3]);
    }
}
