//! Deterministic leader election with beep waves: `O(D·log n)` rounds in
//! the noiseless beeping model, in the style of Förster, Seidel &
//! Wattenhofer (cited by the paper's Section 1.2 survey).
//!
//! Nodes bid with their ids, one bit per window, most-significant first.
//! Each window spans `D_bound + 1` rounds: surviving candidates whose
//! current id bit is 1 start a beep wave; every node relays (once per
//! window), so by the window's end the whole graph knows whether *any*
//! candidate bid 1. Candidates that bid 0 while someone bid 1 withdraw.
//! After all `⌈log₂ n⌉` windows, exactly the maximum-id node survives, and
//! every node has reconstructed the winner's id bit by bit.

use crate::error::AppError;
use beep_bits::BitVec;
use beep_net::{BeepNetwork, Graph, Noise};

/// Outcome of a leader election.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaderReport {
    /// The leader id every node agreed on (validated identical).
    pub leader: usize,
    /// Rounds executed.
    pub rounds: usize,
    /// Total beeps emitted.
    pub beeps: u64,
}

/// Elects the maximum-id node. `diameter_bound` must be ≥ the graph's
/// diameter (nodes are assumed to know such a bound; `n` always works).
///
/// # Errors
///
/// * [`AppError::Net`] on engine errors.
/// * [`AppError::InvalidOutput`] if the graph is empty, or if nodes
///   disagree (cannot happen with a correct diameter bound on a connected
///   graph; surfaces misuse).
pub fn beep_leader_election(
    graph: &Graph,
    diameter_bound: usize,
    seed: u64,
) -> Result<LeaderReport, AppError> {
    let n = graph.node_count();
    if n == 0 {
        return Err(AppError::InvalidOutput {
            detail: "cannot elect a leader of nothing".into(),
        });
    }
    let id_bits = (usize::BITS - (n - 1).leading_zeros()).max(1) as usize;
    let window = diameter_bound + 1;
    let mut net = BeepNetwork::new(graph.clone(), Noise::Noiseless, seed);

    let mut candidate = vec![true; n];
    let mut learned: Vec<usize> = vec![0; n]; // winner id, reconstructed MSB-first
    let mut beepers = BitVec::zeros(n);
    let mut received = BitVec::zeros(n);
    for bit in (0..id_bits).rev() {
        // One wave window.
        let mut heard = vec![false; n];
        let mut relayed = vec![false; n];
        for t in 0..window {
            for v in 0..n {
                let initiates = t == 0 && candidate[v] && (v >> bit) & 1 == 1;
                let relays = t > 0 && heard[v] && !relayed[v];
                let fires = initiates || relays;
                if fires {
                    relayed[v] = true;
                    heard[v] = true; // initiators count as having the wave
                }
                beepers.set(v, fires);
            }
            net.run_round_bitset_into(&beepers, &mut received)?;
            for v in received.iter_ones() {
                heard[v] = true;
            }
        }
        // Window verdict: wave present ⇔ some candidate bid 1.
        for v in 0..n {
            if heard[v] {
                learned[v] |= 1 << bit;
                if candidate[v] && (v >> bit) & 1 == 0 {
                    candidate[v] = false;
                }
            }
        }
    }
    let leader = learned[0];
    if learned.iter().any(|&l| l != leader) {
        return Err(AppError::InvalidOutput {
            detail: format!("nodes disagree on the leader: {learned:?}"),
        });
    }
    let stats = net.stats();
    Ok(LeaderReport {
        leader,
        rounds: stats.rounds,
        beeps: stats.beeps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use beep_net::topology;

    #[test]
    fn elects_max_id_on_assorted_graphs() {
        for (name, g) in [
            ("path", topology::path(10).unwrap()),
            ("cycle", topology::cycle(9).unwrap()),
            ("grid", topology::grid(3, 4).unwrap()),
            ("complete", topology::complete(6).unwrap()),
            ("tree", topology::binary_tree(11).unwrap()),
        ] {
            let d = g.diameter().unwrap();
            let report = beep_leader_election(&g, d, 1).unwrap();
            assert_eq!(report.leader, g.node_count() - 1, "{name}");
        }
    }

    #[test]
    fn round_count_is_d_times_log_n() {
        let g = topology::path(16).unwrap();
        let d = 15;
        let report = beep_leader_election(&g, d, 2).unwrap();
        // ⌈log₂ 16⌉ = 4 windows of D+1 rounds.
        assert_eq!(report.rounds, 4 * (d + 1));
    }

    #[test]
    fn oversized_diameter_bound_still_correct() {
        let g = topology::cycle(7).unwrap();
        let report = beep_leader_election(&g, 7 * 2, 3).unwrap();
        assert_eq!(report.leader, 6);
    }

    #[test]
    fn single_node_graph() {
        let g = beep_net::Graph::from_edges(1, &[]).unwrap();
        let report = beep_leader_election(&g, 0, 4).unwrap();
        assert_eq!(report.leader, 0);
    }

    #[test]
    fn undersized_bound_on_disconnected_graph_disagrees() {
        // Two components: they cannot agree; the validation must trip.
        let g = beep_net::Graph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(matches!(
            beep_leader_election(&g, 4, 5),
            Err(AppError::InvalidOutput { .. })
        ));
    }
}
