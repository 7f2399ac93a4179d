//! Beep-wave single-source broadcast: the `O(D + b)` noiseless primitive
//! of Ghaffari–Haeupler [19], formalized by Czumaj–Davies [9], which the
//! paper cites as the foundational global tool of the beeping model.
//!
//! # Protocol
//!
//! * **Round 0 (sync wave):** the source beeps. Every node relays the
//!   first beep it ever hears one round later; the round a node first
//!   hears a beep fixes its distance `d` from the source.
//! * **Message waves:** the source transmits bit `i` at round `S + 3i`
//!   (`S = 3`), beeping for 1 and staying silent for 0. A node at
//!   distance `d` listens for bit `i` at round `S + 3i + (d−1)` and
//!   relays a heard beep one round later. The spacing of 3 keeps
//!   consecutive waves, relays, and echoes from colliding (each node's
//!   scheduled listen/relay rounds for different bits are distinct).
//!
//! Total rounds: `3 + 3b + D + 1 = O(D + b)`. Noiseless only — under
//! noise a single flipped bit forks a phantom wave; noisy broadcast goes
//! through the paper's simulation instead (e.g.
//! `beep_congest::algorithms::Flood` under `SimulatedBroadcastRunner`).

use crate::error::AppError;
use beep_bits::BitVec;
use beep_net::{Action, BeepNetwork, BeepProtocol, Graph, Noise};

/// Outcome of a beep-wave broadcast.
#[derive(Debug, Clone)]
pub struct BeepWaveReport {
    /// The message each node decoded (`None` if the wave never arrived —
    /// only possible on disconnected graphs).
    pub received: Vec<Option<BitVec>>,
    /// Beeping rounds executed.
    pub rounds: usize,
    /// Total beeps emitted (energy).
    pub beeps: u64,
}

/// Offset of the first message wave (after the sync wave has a 2-round
/// head start; see the interference analysis in the module docs).
const MESSAGE_START: usize = 3;

/// Per-node state of the wave protocol.
struct WaveNode {
    is_source: bool,
    message_bits: usize,
    /// The source's message (ignored elsewhere).
    input: BitVec,
    /// Distance from the source (source: 0), fixed by the sync wave.
    distance: Option<usize>,
    /// Decoded bits.
    bits: Vec<bool>,
    /// Bit index whose heard beep we must relay next round, if any.
    relay_pending: bool,
    done_at: Option<usize>,
}

impl WaveNode {
    fn listen_round(&self, bit: usize) -> Option<usize> {
        let d = self.distance?;
        if self.is_source {
            return None;
        }
        Some(MESSAGE_START + 3 * bit + d - 1)
    }
}

impl BeepProtocol for WaveNode {
    fn act(&mut self, round: usize) -> Action {
        if self.is_source {
            if round == 0 {
                return Action::Beep; // sync wave
            }
            // Bit i at round S + 3i.
            if round >= MESSAGE_START && (round - MESSAGE_START).is_multiple_of(3) {
                let i = (round - MESSAGE_START) / 3;
                if i < self.message_bits && self.input.get(i) {
                    return Action::Beep;
                }
            }
            return Action::Listen;
        }
        // Relay of the sync wave: one round after first hearing it.
        if let Some(d) = self.distance {
            if round == d {
                return Action::Beep;
            }
        }
        // Relay of a message wave.
        if self.relay_pending {
            self.relay_pending = false;
            return Action::Beep;
        }
        Action::Listen
    }

    fn feedback(&mut self, round: usize, received: bool) {
        if self.is_source {
            if round == MESSAGE_START + 3 * (self.message_bits.max(1) - 1) {
                self.done_at = Some(round);
            }
            return;
        }
        // The first beep ever heard fixes the distance: heard at round t ⇒
        // the beeper was at distance t, so we are at t + 1.
        if self.distance.is_none() {
            if received {
                self.distance = Some(round + 1);
            }
            return;
        }
        // Scheduled listen for the current bit?
        let next_bit = self.bits.len();
        if next_bit < self.message_bits && self.listen_round(next_bit) == Some(round) {
            self.bits.push(received);
            if received {
                self.relay_pending = true;
            }
            if self.bits.len() == self.message_bits {
                // One more round may be needed to relay the final bit.
                self.done_at = Some(round + 1);
            }
        }
    }

    fn is_done(&self) -> bool {
        self.done_at.is_some() && !self.relay_pending
    }
}

/// Broadcasts `message` from `source` to every node using beep waves.
///
/// # Errors
///
/// * [`AppError::Net`] if the round budget (derived from `n + 3b + 4`,
///   always sufficient on connected graphs) is exhausted — in practice
///   this means the graph is disconnected.
pub fn beep_wave_broadcast(
    graph: &Graph,
    source: usize,
    message: &BitVec,
    seed: u64,
) -> Result<BeepWaveReport, AppError> {
    let n = graph.node_count();
    let b = message.len();
    let mut net = BeepNetwork::new(graph.clone(), Noise::Noiseless, seed);
    let mut nodes: Vec<WaveNode> = (0..n)
        .map(|v| WaveNode {
            is_source: v == source,
            message_bits: b,
            input: message.clone(),
            distance: (v == source).then_some(0),
            bits: Vec::new(),
            relay_pending: false,
            done_at: None,
        })
        .collect();
    let budget = MESSAGE_START + 3 * b + n + 4;
    let rounds = net.run_protocols(&mut nodes, budget)?;
    let received = nodes
        .iter()
        .map(|node| {
            if node.is_source {
                Some(node.input.clone())
            } else if node.bits.len() == b {
                Some(BitVec::from_bools(&node.bits))
            } else {
                None
            }
        })
        .collect();
    let stats = net.stats();
    Ok(BeepWaveReport {
        received,
        rounds,
        beeps: stats.beeps,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use beep_net::topology;

    fn bv(s: &str) -> BitVec {
        BitVec::from_str_01(s).unwrap()
    }

    #[test]
    fn wave_reaches_whole_path() {
        let g = topology::path(10).unwrap();
        let msg = bv("1011001110");
        let report = beep_wave_broadcast(&g, 0, &msg, 1).unwrap();
        for (v, got) in report.received.iter().enumerate() {
            assert_eq!(got.as_ref(), Some(&msg), "node {v}");
        }
    }

    #[test]
    fn wave_from_middle_source() {
        let g = topology::path(9).unwrap();
        let msg = bv("110101");
        let report = beep_wave_broadcast(&g, 4, &msg, 2).unwrap();
        assert!(report.received.iter().all(|r| r.as_ref() == Some(&msg)));
    }

    #[test]
    fn wave_on_grid_and_tree() {
        let msg = bv("10011");
        for (name, g, src) in [
            ("grid", topology::grid(4, 5).unwrap(), 7),
            ("tree", topology::binary_tree(15).unwrap(), 0),
            ("cycle", topology::cycle(12).unwrap(), 3),
            ("star", topology::star(8).unwrap(), 2),
        ] {
            let report = beep_wave_broadcast(&g, src, &msg, 3).unwrap();
            assert!(
                report.received.iter().all(|r| r.as_ref() == Some(&msg)),
                "{name}: {:?}",
                report.received
            );
        }
    }

    #[test]
    fn round_count_is_linear_in_d_plus_b() {
        // O(D + b): on a path of length D with b message bits, rounds stay
        // within the 3b + D + O(1) schedule.
        for (n, b) in [(20usize, 4usize), (40, 4), (20, 16)] {
            let g = topology::path(n).unwrap();
            let msg = BitVec::from_fn(b, |i| i % 2 == 0);
            let report = beep_wave_broadcast(&g, 0, &msg, 4).unwrap();
            let d = n - 1;
            assert!(
                report.rounds <= 3 * b + d + 8,
                "n={n} b={b}: {} rounds",
                report.rounds
            );
        }
    }

    #[test]
    fn all_zero_message_works() {
        // Silence-only payload still decodes (sync wave fixes timing).
        let g = topology::path(5).unwrap();
        let msg = bv("0000");
        let report = beep_wave_broadcast(&g, 0, &msg, 5).unwrap();
        assert!(report.received.iter().all(|r| r.as_ref() == Some(&msg)));
    }

    #[test]
    fn disconnected_graph_errors() {
        let g = beep_net::Graph::from_edges(4, &[(0, 1)]).unwrap();
        let msg = bv("101");
        assert!(matches!(
            beep_wave_broadcast(&g, 0, &msg, 6),
            Err(AppError::Net(_))
        ));
    }
}
