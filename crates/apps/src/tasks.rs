//! Classic graph tasks over noisy beeps — the paper's headline use case,
//! with Theorem 21's maximal matching as the flagship.

use crate::error::AppError;
use beep_congest::algorithms::{LubyMis, MaximalMatching, RandomColoring};
use beep_congest::validate;
use beep_core::{SimReport, SimulatedBroadcastRunner, SimulationParams};
use beep_net::{ChannelModel, FaultPlan, Graph, NodeId, Noise};

/// A solved task together with its cost accounting.
#[derive(Debug, Clone)]
pub struct TaskReport<T> {
    /// Per-node outputs.
    pub output: Vec<T>,
    /// Simulation accounting (beep rounds, overheads, decode stats).
    pub report: SimReport,
}

/// Maps a caller-supplied noise rate to a channel through the fallible
/// constructor: `ε = 0` is the noiseless model, anything else must lie in
/// the paper's open interval `(0, ½)` or the task returns
/// [`AppError::Net`] instead of panicking deep inside the engine.
fn noise_for(epsilon: f64) -> Result<Noise, AppError> {
    if epsilon == 0.0 {
        Ok(Noise::Noiseless)
    } else {
        Ok(Noise::try_bernoulli(epsilon)?)
    }
}

/// The `ε`-based task entry points run on the paper's iid channel; this
/// builds it as a [`ChannelModel`] for the `*_with_channel` cores.
fn iid_channel(epsilon: f64) -> Result<ChannelModel, AppError> {
    Ok(ChannelModel::from(noise_for(epsilon)?))
}

/// Maximal matching in the noisy beeping model (Theorem 21):
/// `O(Δ log² n)` beep rounds, output validated for symmetry and
/// maximality before returning.
///
/// `output[v]` is `Some(partner)` or `None` for unmatched.
///
/// # Errors
///
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
    maximal_matching_with_faults(graph, channel, &FaultPlan::none(), seed)
}

/// [`maximal_matching_with_channel`] under a [`FaultPlan`]: the plan is
/// installed on the underlying beep network, so faulty nodes' beeps are
/// overridden exactly as in [`beep_net::BeepNetwork::set_fault_plan`].
///
/// The output validation still covers *all* nodes — this protocol has no
/// fault-tolerance story ([`crate::Protocol::supports_faults`] is false
/// for it), so a non-empty plan typically ends in
/// [`AppError::InvalidOutput`]; the variant exists so the fault plumbing
/// lands in one place and overlay costs can be measured on the same code
/// path.
///
/// # Errors
///
/// As [`maximal_matching`], plus [`AppError::Net`] if the plan names a
/// node `≥ n`.
pub fn maximal_matching_with_faults(
    graph: &Graph,
    channel: &ChannelModel,
    faults: &FaultPlan,
    seed: u64,
) -> Result<TaskReport<Option<NodeId>>, AppError> {
    let n = graph.node_count();
    let bits = MaximalMatching::required_message_bits(n);
    let iters = MaximalMatching::suggested_iterations(n);
    let params = SimulationParams::calibrated(channel.calibration_epsilon());
    let runner = SimulatedBroadcastRunner::new(graph, bits, seed, params, channel.clone())
        .with_fault_plan(faults.clone());
    let mut algos: Vec<Box<MaximalMatching>> = (0..n)
        .map(|_| Box::new(MaximalMatching::new(iters)))
        .collect();
    let report = runner.run_to_completion(&mut algos, MaximalMatching::rounds_for(iters))?;
    let output: Vec<Option<NodeId>> = algos
        .iter()
        .map(|a| a.output().expect("runner completed"))
        .collect();
    let violations = validate::check_matching(graph, &output);
    if !violations.is_empty() {
        return Err(AppError::InvalidOutput {
            detail: format!("{violations:?}"),
        });
    }
    Ok(TaskReport { output, report })
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
    maximal_independent_set_with_faults(graph, channel, &FaultPlan::none(), seed)
}

/// [`maximal_independent_set_with_channel`] under a [`FaultPlan`] (see
/// [`maximal_matching_with_faults`] for the caveats — validation still
/// covers all nodes).
///
/// # Errors
///
/// As [`maximal_matching_with_faults`].
pub fn maximal_independent_set_with_faults(
    graph: &Graph,
    channel: &ChannelModel,
    faults: &FaultPlan,
    seed: u64,
) -> Result<TaskReport<bool>, AppError> {
    let n = graph.node_count();
    let bits = LubyMis::required_message_bits(n);
    let iters = LubyMis::suggested_iterations(n);
    let params = SimulationParams::calibrated(channel.calibration_epsilon());
    let runner = SimulatedBroadcastRunner::new(graph, bits, seed, params, channel.clone())
        .with_fault_plan(faults.clone());
    let mut algos: Vec<Box<LubyMis>> = (0..n).map(|_| Box::new(LubyMis::new(iters))).collect();
    let report = runner.run_to_completion(&mut algos, LubyMis::rounds_for(iters))?;
    let output: Vec<bool> = algos
        .iter()
        .map(|a| a.output().expect("completed"))
        .collect();
    let violations = validate::check_mis(graph, &output);
    if !violations.is_empty() {
        return Err(AppError::InvalidOutput {
            detail: format!("{violations:?}"),
        });
    }
    Ok(TaskReport { output, report })
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
    coloring_with_faults(graph, channel, &FaultPlan::none(), seed)
}

/// [`coloring_with_channel`] under a [`FaultPlan`] (see
/// [`maximal_matching_with_faults`] for the caveats — validation still
/// covers all nodes).
///
/// # Errors
///
/// As [`maximal_matching_with_faults`].
pub fn coloring_with_faults(
    graph: &Graph,
    channel: &ChannelModel,
    faults: &FaultPlan,
    seed: u64,
) -> Result<TaskReport<u64>, AppError> {
    let n = graph.node_count();
    let bits = RandomColoring::required_message_bits(n);
    let iters = RandomColoring::suggested_iterations(n);
    let params = SimulationParams::calibrated(channel.calibration_epsilon());
    let runner = SimulatedBroadcastRunner::new(graph, bits, seed, params, channel.clone())
        .with_fault_plan(faults.clone());
    let mut algos: Vec<Box<RandomColoring>> = (0..n)
        .map(|_| Box::new(RandomColoring::new(iters)))
        .collect();
    let report = runner.run_to_completion(&mut algos, RandomColoring::rounds_for(iters))?;
    let maybe: Vec<Option<u64>> = algos.iter().map(|a| a.output()).collect();
    let violations = validate::check_coloring(graph, &maybe);
    if !violations.is_empty() {
        return Err(AppError::InvalidOutput {
            detail: format!("{violations:?}"),
        });
    }
    let output = maybe
        .into_iter()
        .map(|c| c.expect("validated total"))
        .collect();
    Ok(TaskReport { output, report })
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
    fn fault_variant_with_empty_plan_matches_channel_variant() {
        let g = topology::cycle(6).unwrap();
        let ch: ChannelModel = Noise::try_bernoulli(0.05).unwrap().into();
        let a = maximal_matching_with_channel(&g, &ch, 5).unwrap();
        let b = maximal_matching_with_faults(&g, &ch, &FaultPlan::none(), 5).unwrap();
        assert_eq!(a.output, b.output);
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn muting_every_node_defeats_matching_detectably() {
        // These tasks have no fault-tolerance story: with all nodes muted
        // nothing is ever decoded and the validated guarantee must fail
        // as a reportable error, not silently pass or panic.
        let g = topology::cycle(6).unwrap();
        let ch: ChannelModel = Noise::Noiseless.into();
        let plan = FaultPlan::realize(6, 1.0, beep_net::FaultKind::ByzantineMute, 1).unwrap();
        match maximal_matching_with_faults(&g, &ch, &plan, 5) {
            Err(AppError::InvalidOutput { .. } | AppError::Sim(_)) => {}
            other => panic!("expected a detectable failure, got {other:?}"),
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
