//! The TDMA / G²-coloring baseline simulator (in the style of Beauquier et
//! al. \[7\] and Ashkenazi–Gelles–Leshem \[4\]).

use crate::error::SimError;
use crate::round_sim::RoundOutcome;
use crate::stats::RoundStats;
use beep_bits::BitVec;
use beep_congest::{BroadcastAlgorithm, CongestError, Message, NodeCtx};
use beep_net::{BeepNetwork, ChannelModel, Graph};

use super::g2_coloring::{distance2_coloring, num_colors};

/// Simulates Broadcast CONGEST rounds by sequencing transmissions through
/// the color classes of a distance-2 coloring.
///
/// Slot structure per simulated round: for each color `c`, a slot of
/// `(B+1)·ρ` beep rounds in which the nodes of color `c` transmit a
/// presence marker and then their `B` message bits, every bit repeated `ρ`
/// times. Listeners majority-vote each bit. Because the coloring is
/// distance-2, each listener has at most one transmitting neighbor per
/// slot, so bits arrive uncorrupted (up to channel noise).
///
/// Per-round cost: `#colors·(B+1)·ρ`. On dense graphs `#colors =
/// Θ(min{n, Δ²})`, which is exactly the overhead gap to the paper's
/// `Θ(Δ)` (experiment E5). Under noise, `ρ = Θ(log n)` keeps the
/// per-bit majority reliable, mirroring how \[4\] pays for robustness.
///
/// The coloring itself is computed centrally and handed to every node —
/// *free setup* that the real distributed protocols pay `Δ⁶` (\[7\]) or
/// `Δ⁴ log n` (\[4\]) rounds for.
#[derive(Debug)]
pub struct TdmaSimulator {
    coloring: Vec<usize>,
    colors: usize,
    message_bits: usize,
    repetition: usize,
    epsilon: f64,
}

impl TdmaSimulator {
    /// Builds the baseline for a graph and message width under noise rate
    /// `epsilon` (0 = noiseless, repetition 1).
    ///
    /// The repetition factor is chosen so one majority vote fails with
    /// probability below `1/(n·B·#colors·100)` — i.e. a simulated round is
    /// w.h.p. perfect, matching the guarantee Algorithm 1 provides.
    #[must_use]
    pub fn new(graph: &Graph, message_bits: usize, epsilon: f64) -> Self {
        Self::with_coloring(graph, distance2_coloring(graph), message_bits, epsilon)
    }

    /// Builds the baseline from an externally supplied distance-2 coloring
    /// — e.g. one computed *distributedly* by
    /// [`beep_congest::algorithms::Distance2Coloring`], closing the loop on
    /// the baselines' setup phase.
    ///
    /// # Panics
    ///
    /// Panics if the coloring has the wrong length or is not a valid
    /// distance-2 coloring of `graph`.
    #[must_use]
    pub fn with_coloring(
        graph: &Graph,
        coloring: Vec<usize>,
        message_bits: usize,
        epsilon: f64,
    ) -> Self {
        assert_eq!(coloring.len(), graph.node_count(), "one color per node");
        let violations = super::g2_coloring::verify_distance2_coloring(graph, &coloring);
        assert!(
            violations.is_empty(),
            "not a distance-2 coloring: {violations:?}"
        );
        let colors = num_colors(&coloring).max(1);
        let repetition = if epsilon == 0.0 {
            1
        } else {
            // Majority of ρ bits flipped w.p. ε fails w.p. ≤ exp(−2ρ(½−ε)²);
            // solve for the per-round target.
            let n = graph.node_count().max(2) as f64;
            let target: f64 = 1.0 / (n * message_bits as f64 * colors as f64 * 100.0);
            let gap = 0.5 - epsilon;
            ((-target.ln()) / (2.0 * gap * gap)).ceil() as usize | 1 // odd for clean majority
        };
        TdmaSimulator {
            coloring,
            colors,
            message_bits,
            repetition,
            epsilon,
        }
    }

    /// The number of color classes (slots per simulated round).
    #[must_use]
    pub fn colors(&self) -> usize {
        self.colors
    }

    /// The per-bit repetition factor `ρ`.
    #[must_use]
    pub fn repetition(&self) -> usize {
        self.repetition
    }

    /// Beep rounds per simulated Broadcast CONGEST round:
    /// `#colors·(B+1)·ρ`.
    #[must_use]
    pub fn rounds_per_congest_round(&self) -> usize {
        self.colors * (self.message_bits + 1) * self.repetition
    }

    /// Simulates one Broadcast CONGEST round. Same contract as
    /// [`crate::BroadcastSimulator::simulate_round`], minus the decoys
    /// (there is no codeword ambiguity to estimate).
    ///
    /// # Errors
    ///
    /// Mirrors the Algorithm 1 simulator's errors.
    pub fn simulate_round(
        &self,
        net: &mut BeepNetwork,
        outgoing: &[Option<Message>],
    ) -> Result<RoundOutcome, SimError> {
        let n = net.graph().node_count();
        if outgoing.len() != n {
            return Err(SimError::OutgoingCount {
                expected: n,
                actual: outgoing.len(),
            });
        }
        let net_eps = net.noise().epsilon();
        if (net_eps - self.epsilon).abs() > 1e-9 {
            return Err(SimError::NoiseMismatch {
                params_epsilon: self.epsilon,
                network_epsilon: net_eps,
            });
        }
        for (v, msg) in outgoing.iter().enumerate() {
            if let Some(m) = msg {
                if m.len() != self.message_bits {
                    return Err(CongestError::MessageWidth {
                        expected: self.message_bits,
                        actual: m.len(),
                        node: v,
                    }
                    .into());
                }
            }
        }
        // Build per-node frames: slot for its color, presence + bits.
        let slot_len = (self.message_bits + 1) * self.repetition;
        let total = self.colors * slot_len;
        let frames: Vec<Option<BitVec>> = outgoing
            .iter()
            .enumerate()
            .map(|(v, msg)| {
                msg.as_ref().map(|m| {
                    let base = self.coloring[v] * slot_len;
                    let bits = m.to_bitvec();
                    BitVec::from_fn(total, |i| {
                        if i < base || i >= base + slot_len {
                            return false;
                        }
                        let within = (i - base) / self.repetition;
                        // Field 0 is the presence marker, then message bits.
                        within == 0 || bits.get(within - 1)
                    })
                })
            })
            .collect();
        // The explicit length keeps an all-silent round occupying its
        // slots.
        let heard = net.run_frame_of_len(&frames, total)?;
        // Decode: per node, per neighbor slot, majority-vote.
        let graph = net.graph();
        let half = self.repetition / 2;
        let mut stats = RoundStats {
            rounds: 1,
            ..RoundStats::default()
        };
        stats.transmitters = outgoing.iter().flatten().count();
        let mut delivered = Vec::with_capacity(n);
        for (v, heard_v) in heard.iter().enumerate() {
            let mut inbox = Vec::new();
            for &u in graph.neighbors(v) {
                let base = self.coloring[u] * slot_len;
                let vote = |field: usize| -> bool {
                    let start = base + field * self.repetition;
                    let ones = (start..start + self.repetition)
                        .filter(|&i| heard_v.get(i))
                        .count();
                    ones > half
                };
                if !vote(0) {
                    if outgoing[u].is_some() {
                        stats.false_negatives += 1;
                    }
                    continue;
                }
                if outgoing[u].is_none() {
                    stats.false_positives += 1;
                }
                let bits: Vec<bool> = (1..=self.message_bits).map(vote).collect();
                let decoded = Message::from_bits(&BitVec::from_bools(&bits));
                if let Some(truth) = &outgoing[u] {
                    if &decoded != truth {
                        stats.message_errors += 1;
                    }
                }
                inbox.push(decoded);
            }
            inbox.sort_unstable();
            let mut ideal: Vec<Message> = graph
                .neighbors(v)
                .iter()
                .filter_map(|&u| outgoing[u].clone())
                .collect();
            ideal.sort_unstable();
            if inbox != ideal && stats.imperfect_rounds == 0 {
                stats.imperfect_rounds = 1;
            }
            delivered.push(inbox);
        }
        Ok(RoundOutcome { delivered, stats })
    }

    /// Runs a full Broadcast CONGEST algorithm under the TDMA baseline —
    /// the counterpart of
    /// [`crate::SimulatedBroadcastRunner::run_to_completion`] for
    /// experiment E7/E10 comparisons.
    ///
    /// # Errors
    ///
    /// Mirrors the Algorithm 1 runner's errors.
    pub fn run_to_completion<A: BroadcastAlgorithm + ?Sized>(
        &self,
        graph: &Graph,
        channel: impl Into<ChannelModel>,
        seed: u64,
        algorithms: &mut [Box<A>],
        max_rounds: usize,
    ) -> Result<crate::SimReport, SimError> {
        let n = graph.node_count();
        if algorithms.len() != n {
            return Err(CongestError::NodeCount {
                expected: n,
                actual: algorithms.len(),
            }
            .into());
        }
        let mut net = BeepNetwork::new(graph.clone(), channel, seed ^ 0x7D7A);
        for (v, algo) in algorithms.iter_mut().enumerate() {
            algo.init(&NodeCtx {
                node: v,
                n,
                degree: graph.degree(v),
                message_bits: self.message_bits,
                seed: seed ^ (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            });
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
            let outcome = self.simulate_round(&mut net, &outgoing)?;
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
        Ok(crate::SimReport {
            congest_rounds,
            beep_rounds: net_stats.rounds,
            beep_rounds_per_congest_round: self.rounds_per_congest_round(),
            beeps: net_stats.beeps,
            stats,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beep_congest::MessageWriter;
    use beep_net::{topology, Noise};

    const B: usize = 10;

    fn msg(v: u64) -> Message {
        MessageWriter::new().push_uint(v, B).finish(B)
    }

    #[test]
    fn noiseless_tdma_delivers_exactly() {
        let g = topology::path(4).unwrap();
        let sim = TdmaSimulator::new(&g, B, 0.0);
        assert_eq!(sim.repetition(), 1);
        let mut net = BeepNetwork::new(g, Noise::Noiseless, 1);
        let outgoing = vec![Some(msg(3)), Some(msg(5)), None, Some(msg(9))];
        let outcome = sim.simulate_round(&mut net, &outgoing).unwrap();
        assert!(outcome.stats.all_perfect(), "{:?}", outcome.stats);
        assert_eq!(outcome.delivered[0], vec![msg(5)]);
        assert_eq!(outcome.delivered[2], {
            let mut v = vec![msg(5), msg(9)];
            v.sort_unstable();
            v
        });
        assert_eq!(net.stats().rounds, sim.rounds_per_congest_round());
    }

    #[test]
    fn noisy_tdma_delivers_whp() {
        let g = topology::cycle(5).unwrap();
        let eps = 0.1;
        let sim = TdmaSimulator::new(&g, B, eps);
        assert!(sim.repetition() > 1);
        let mut perfect = 0;
        for seed in 0..10 {
            let mut net = BeepNetwork::new(g.clone(), Noise::bernoulli(eps), seed);
            let outgoing: Vec<_> = (0..5).map(|v| Some(msg(v as u64 + 1))).collect();
            let outcome = sim.simulate_round(&mut net, &outgoing).unwrap();
            if outcome.stats.all_perfect() {
                perfect += 1;
            }
        }
        assert!(perfect >= 9, "{perfect}/10 perfect");
    }

    #[test]
    fn overhead_scales_with_color_count() {
        // On K_n the coloring needs n colors: overhead Θ(n·B) vs the
        // paper's Θ(Δ·B) = Θ(n·B) here — but on a star the gap shows:
        // star coloring needs n colors while Δ-based cost is Θ(n) too…
        // the crisp case is bounded-degree graphs: a path needs 3 colors.
        let path = topology::path(50).unwrap();
        let sim = TdmaSimulator::new(&path, B, 0.0);
        assert_eq!(sim.colors(), 3);
        assert_eq!(sim.rounds_per_congest_round(), 3 * (B + 1));
        // The complete bipartite K_{6,6}: Δ = 6, but distance-2 coloring
        // needs all 12 colors — the Θ(Δ²) vs Θ(Δ) gap territory.
        let kb = topology::complete_bipartite(6, 6).unwrap();
        let sim = TdmaSimulator::new(&kb, B, 0.0);
        assert_eq!(sim.colors(), 12);
    }

    #[test]
    fn tdma_runs_full_algorithms() {
        use beep_congest::algorithms::Flood;
        let g = topology::path(4).unwrap();
        let sim = TdmaSimulator::new(&g, 16, 0.0);
        let mut algos: Vec<Box<Flood>> =
            (0..4).map(|_| Box::new(Flood::new(0, 0x5A, 16))).collect();
        let report = sim
            .run_to_completion(&g, Noise::Noiseless, 3, &mut algos, 10)
            .unwrap();
        assert!(algos.iter().all(|a| a.output() == Some(0x5A)));
        assert!(report.stats.all_perfect());
        assert_eq!(
            report.beep_rounds,
            report.congest_rounds * report.beep_rounds_per_congest_round
        );
    }

    #[test]
    fn rejects_mismatched_noise() {
        let g = topology::path(2).unwrap();
        let sim = TdmaSimulator::new(&g, B, 0.1);
        let mut net = BeepNetwork::new(g, Noise::Noiseless, 0);
        assert!(matches!(
            sim.simulate_round(&mut net, &[None, None]),
            Err(SimError::NoiseMismatch { .. })
        ));
    }
}
