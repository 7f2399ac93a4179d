//! Algorithm 1: simulating one Broadcast CONGEST round over noisy beeps.

use crate::error::SimError;
use crate::params::{RoundCodes, SimulationParams};
use crate::stats::RoundStats;
use beep_bits::BitVec;
use beep_codes::{MessageDecoder, SetDecoder};
use beep_congest::{CongestError, Message};
use beep_net::BeepNetwork;
use rand::rngs::StdRng;
use std::collections::HashSet;

/// Draws a uniform `a_bits`-bit string not contained in `avoid`.
///
/// The paper draws `r_v` (and models decoys) uniformly and relies on
/// distinctness holding w.h.p. because `a = c·B = Θ(log n)`. At the toy
/// scales the test suites simulate, `{0,1}^a` is small enough for uniform
/// draws to collide with noticeable probability, so distinctness is
/// enforced by resampling — bounded, in case the space is nearly
/// saturated, in which case the last draw is returned as-is.
fn sample_avoiding(a_bits: usize, avoid: &HashSet<BitVec>, rng: &mut StdRng) -> BitVec {
    let mut r = BitVec::random_uniform(a_bits, rng);
    for _ in 0..64 {
        if !avoid.contains(&r) {
            break;
        }
        r = BitVec::random_uniform(a_bits, rng);
    }
    r
}

/// The checks both round simulators make before a round, in this order:
/// one outgoing slot per node, the network's calibration rate equal to the
/// simulator's `epsilon`, and every message exactly `message_bits` wide.
pub(crate) fn check_round_inputs(
    net: &BeepNetwork,
    outgoing: &[Option<Message>],
    epsilon: f64,
    message_bits: usize,
) -> Result<(), SimError> {
    let n = net.graph().node_count();
    if outgoing.len() != n {
        return Err(SimError::OutgoingCount {
            expected: n,
            actual: outgoing.len(),
        });
    }
    let net_eps = net.channel().calibration_epsilon();
    if (net_eps - epsilon).abs() > 1e-9 {
        return Err(SimError::NoiseMismatch {
            params_epsilon: epsilon,
            network_epsilon: net_eps,
        });
    }
    for (v, msg) in outgoing.iter().enumerate() {
        if let Some(m) = msg {
            if m.len() != message_bits {
                return Err(CongestError::MessageWidth {
                    expected: message_bits,
                    actual: m.len(),
                    node: v,
                }
                .into());
            }
        }
    }
    Ok(())
}

/// The Algorithm 1 round simulator: holds the shared public codes and
/// executes one Broadcast CONGEST communication round on a
/// [`BeepNetwork`].
///
/// Stateless across rounds (each round draws fresh `r_v`), so one instance
/// serves an entire simulated execution — the paper's "no setup cost".
#[derive(Debug)]
pub struct BroadcastSimulator {
    params: SimulationParams,
    codes: RoundCodes,
    message_bits: usize,
}

/// What one simulated round delivered.
#[derive(Debug, Clone)]
pub struct RoundOutcome {
    /// Per-node sorted multiset of decoded neighbor messages — the same
    /// shape the native Broadcast CONGEST runner delivers.
    pub delivered: Vec<Vec<Message>>,
    /// Decode-event statistics for the round.
    pub stats: RoundStats,
}

impl BroadcastSimulator {
    /// Builds the simulator for message width `B` (the paper's `γ log n`)
    /// and maximum degree `Δ`.
    ///
    /// # Errors
    ///
    /// Propagates code-construction failures.
    pub fn new(
        params: SimulationParams,
        message_bits: usize,
        max_degree: usize,
    ) -> Result<Self, SimError> {
        let codes = params.codes_for(message_bits, max_degree)?;
        Ok(BroadcastSimulator {
            params,
            codes,
            message_bits,
        })
    }

    /// The shared code bundle.
    #[must_use]
    pub fn codes(&self) -> &RoundCodes {
        &self.codes
    }

    /// The configured parameters.
    #[must_use]
    pub fn params(&self) -> SimulationParams {
        self.params
    }

    /// Beep rounds one simulated round occupies (both phases).
    #[must_use]
    pub fn rounds_per_congest_round(&self) -> usize {
        2 * self.codes.phase_len()
    }

    /// Executes Algorithm 1 once: simulates a single Broadcast CONGEST
    /// communication round in which node `v` broadcasts `outgoing[v]`
    /// (`None` = stays silent both phases).
    ///
    /// `rng` drives the per-node random strings `r_v` and the decoy draws;
    /// channel noise comes from the network's counter-keyed
    /// `(seed, round, shard)` streams (see [`beep_net::noise_stream_seed`]).
    ///
    /// # Errors
    ///
    /// * [`SimError::OutgoingCount`] if `outgoing.len()` ≠ node count.
    /// * [`SimError::Congest`] with [`CongestError::MessageWidth`] if a
    ///   message is not exactly `B` bits.
    /// * [`SimError::NoiseMismatch`] if the network's `ε` differs from the
    ///   simulator's.
    pub fn simulate_round(
        &self,
        net: &mut BeepNetwork,
        outgoing: &[Option<Message>],
        rng: &mut StdRng,
    ) -> Result<RoundOutcome, SimError> {
        check_round_inputs(net, outgoing, self.params.epsilon, self.message_bits)?;
        let n = outgoing.len();

        // --- Transmit side: draw r_v, build both frames. Colliding r_v
        // draws would make two transmitters share a carrier codeword and
        // garble both phase-2 payloads, so draws avoid each other (see
        // `sample_avoiding`).
        let a_bits = self.codes.beep.params().input_bits();
        let mut drawn: HashSet<BitVec> = HashSet::new();
        let mut phase1_frames: Vec<Option<BitVec>> = Vec::with_capacity(n);
        let mut phase2_frames: Vec<Option<BitVec>> = Vec::with_capacity(n);
        for msg in outgoing {
            match msg {
                Some(m) => {
                    let r = sample_avoiding(a_bits, &drawn, rng);
                    let carrier = self.codes.beep.encode(&r);
                    drawn.insert(r);
                    let payload = self.codes.distance.encode(&m.to_bitvec());
                    let combined = beep_codes::CombinedCode::combine(&carrier, &payload)
                        .expect("carrier weight = payload length by construction");
                    phase1_frames.push(Some(carrier));
                    phase2_frames.push(Some(combined));
                }
                None => {
                    phase1_frames.push(None);
                    phase2_frames.push(None);
                }
            }
        }

        // --- Run both phases on the network, bit-round by bit-round,
        // through the reuse-buffer frame API (one allocation per phase
        // output; the engine reuses its per-round scratch internally).
        let mut heard1 = Vec::new();
        let mut heard2 = Vec::new();
        self.run_phase(net, &phase1_frames, &mut heard1)?;
        self.run_phase(net, &phase2_frames, &mut heard2)?;

        // --- Decode at every node.
        self.decode_all(net, outgoing, &phase1_frames, &drawn, &heard1, &heard2, rng)
    }

    /// Transmits one frame per node (None = listen throughout), writing
    /// what every node heard, bit by bit, into `heard`.
    ///
    /// Runs on the engine's reuse-buffer frame driver; the explicit length
    /// keeps an all-silent phase occupying its `phase_len()` rounds in the
    /// paper's accounting.
    fn run_phase(
        &self,
        net: &mut BeepNetwork,
        frames: &[Option<BitVec>],
        heard: &mut Vec<BitVec>,
    ) -> Result<(), SimError> {
        net.run_frame_into(frames, self.codes.phase_len(), heard)?;
        Ok(())
    }

    /// The Section 4 decoder at every node, with candidate + decoy scoring
    /// (ARCHITECTURE.md, *Candidate-and-decoy decoding*).
    ///
    /// Every codeword is computed once per round: the transmitters'
    /// phase-1 carriers are their candidate codewords, and the message
    /// pool is distance-encoded once and shared by every node's
    /// nearest-codeword decodes.
    #[allow(clippy::too_many_arguments)]
    fn decode_all(
        &self,
        net: &BeepNetwork,
        outgoing: &[Option<Message>],
        carriers: &[Option<BitVec>],
        transmitted: &HashSet<BitVec>,
        heard1: &[BitVec],
        heard2: &[BitVec],
        rng: &mut StdRng,
    ) -> Result<RoundOutcome, SimError> {
        let n = outgoing.len();
        let graph = net.graph();
        let set_decoder = SetDecoder::new(&self.codes.beep, self.params.epsilon);
        let msg_decoder = MessageDecoder::new(&self.codes.distance);

        // Global candidate pool: every transmitter's C(r_v), the carrier
        // it sent in phase 1.
        struct Candidate<'a> {
            node: usize,
            codeword: &'a BitVec,
        }
        let candidates: Vec<Candidate> = carriers
            .iter()
            .enumerate()
            .filter_map(|(node, carrier)| {
                carrier
                    .as_ref()
                    .map(|codeword| Candidate { node, codeword })
            })
            .collect();
        // Message candidates for phase-2 nearest-codeword decoding.
        let mut message_pool: Vec<BitVec> =
            outgoing.iter().flatten().map(Message::to_bitvec).collect();
        message_pool.sort_unstable_by_key(|b: &BitVec| b.to_string());
        message_pool.dedup();
        // Shared decoys: fresh random inputs (≡ non-transmitted codewords)
        // and fresh random messages. A decoy colliding with a genuinely
        // transmitted r_v would probe the decoder's true-positive path, not
        // the Lemma 8/9 false-positive event, so decoys avoid the
        // transmitted set (see `sample_avoiding`).
        let a_bits = self.codes.beep.params().input_bits();
        let decoy_codewords: Vec<BitVec> = (0..self.params.decoys)
            .map(|_| {
                let decoy_input = sample_avoiding(a_bits, transmitted, rng);
                self.codes.beep.encode(&decoy_input)
            })
            .collect();
        for _ in 0..self.params.decoys {
            message_pool.push(BitVec::random_uniform(self.message_bits, rng));
        }
        let pool_codewords: Vec<BitVec> = message_pool
            .iter()
            .map(|m| self.codes.distance.encode(m))
            .collect();

        let mut stats = RoundStats {
            rounds: 1,
            ..RoundStats::default()
        };
        stats.transmitters = candidates.len();
        let mut delivered: Vec<Vec<Message>> = Vec::with_capacity(n);

        for v in 0..n {
            let mut inbox: Vec<Message> = Vec::new();
            for cand in &candidates {
                if cand.node == v {
                    // A node need not decode itself (it knows its message).
                    continue;
                }
                let accepted = set_decoder.accepts_codeword(cand.codeword, &heard1[v]);
                let is_neighbor = graph.has_edge(v, cand.node);
                match (is_neighbor, accepted) {
                    (true, false) => {
                        stats.false_negatives += 1;
                        continue;
                    }
                    (false, false) => continue,
                    (false, true) => stats.false_positives += 1,
                    (true, true) => {}
                }
                // Phase 2: project ỹ_v onto the accepted codeword's
                // 1-positions and nearest-codeword decode.
                let projected = beep_codes::CombinedCode::project(&heard2[v], cand.codeword)
                    .expect("heard string has phase length");
                let decoded = msg_decoder
                    .decode_encoded(&projected, message_pool.iter().zip(&pool_codewords))
                    .expect("message pool is non-empty when a candidate transmitted");
                if is_neighbor {
                    let truth = outgoing[cand.node]
                        .as_ref()
                        .expect("candidates are transmitters")
                        .to_bitvec();
                    if decoded.message != truth {
                        stats.message_errors += 1;
                    }
                }
                inbox.push(Message::from_bits(&decoded.message));
            }
            // Decoys: estimate the Lemma 8/9 false-positive rate over the
            // full input space; accepted decoys deliver spurious messages,
            // exactly as an exhaustive decoder would experience.
            for decoy in &decoy_codewords {
                stats.decoys_scored += 1;
                if set_decoder.accepts_codeword(decoy, &heard1[v]) {
                    stats.decoy_acceptances += 1;
                    let projected = beep_codes::CombinedCode::project(&heard2[v], decoy)
                        .expect("heard string has phase length");
                    if let Ok(decoded) = msg_decoder
                        .decode_encoded(&projected, message_pool.iter().zip(&pool_codewords))
                    {
                        inbox.push(Message::from_bits(&decoded.message));
                    }
                }
            }
            inbox.sort_unstable();
            // Ideal Broadcast CONGEST delivery, for the perfection check.
            let mut ideal: Vec<Message> = Vec::new();
            graph.for_each_neighbor(v, |u| ideal.extend(outgoing[u].clone()));
            ideal.sort_unstable();
            if inbox != ideal && stats.imperfect_rounds == 0 {
                stats.imperfect_rounds = 1;
            }
            delivered.push(inbox);
        }
        Ok(RoundOutcome { delivered, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use beep_congest::MessageWriter;
    use beep_net::{topology, Noise};
    use rand::SeedableRng;

    const B: usize = 12;

    fn msg(v: u64) -> Message {
        MessageWriter::new().push_uint(v, B).finish(B)
    }

    /// Canonically sorted expectation (Message orders by LSB-first bits,
    /// not numerically).
    fn sorted(mut msgs: Vec<Message>) -> Vec<Message> {
        msgs.sort_unstable();
        msgs
    }

    fn run_one(
        graph: beep_net::Graph,
        noise: Noise,
        params: SimulationParams,
        outgoing: Vec<Option<Message>>,
        seed: u64,
    ) -> (RoundOutcome, usize) {
        let delta = graph.max_degree();
        let sim = BroadcastSimulator::new(params, B, delta).unwrap();
        let mut net = BeepNetwork::new(graph, noise, seed);
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1));
        let outcome = sim.simulate_round(&mut net, &outgoing, &mut rng).unwrap();
        (outcome, net.stats().rounds)
    }

    #[test]
    fn noiseless_round_delivers_exactly() {
        let graph = topology::path(4).unwrap();
        let outgoing = vec![Some(msg(1)), Some(msg(2)), Some(msg(3)), Some(msg(4))];
        let params = SimulationParams::calibrated(0.0);
        let (outcome, rounds) = run_one(graph, Noise::Noiseless, params, outgoing, 3);
        assert!(outcome.stats.all_perfect(), "{:?}", outcome.stats);
        assert_eq!(outcome.delivered[0], vec![msg(2)]);
        assert_eq!(outcome.delivered[1], sorted(vec![msg(1), msg(3)]));
        assert_eq!(outcome.delivered[2], sorted(vec![msg(2), msg(4)]));
        assert_eq!(outcome.delivered[3], vec![msg(3)]);
        // Exactly 2·phase_len beep rounds were spent.
        let sim = BroadcastSimulator::new(params, B, 2).unwrap();
        assert_eq!(rounds, sim.rounds_per_congest_round());
    }

    #[test]
    fn silent_nodes_send_and_disturb_nothing() {
        let graph = topology::complete(4).unwrap();
        let outgoing = vec![Some(msg(9)), None, None, Some(msg(7))];
        let params = SimulationParams::calibrated(0.0);
        let (outcome, _) = run_one(graph, Noise::Noiseless, params, outgoing, 4);
        assert!(outcome.stats.all_perfect(), "{:?}", outcome.stats);
        assert_eq!(outcome.delivered[0], vec![msg(7)]);
        assert_eq!(outcome.delivered[1], sorted(vec![msg(7), msg(9)]));
        assert_eq!(outcome.delivered[2], sorted(vec![msg(7), msg(9)]));
        assert_eq!(outcome.delivered[3], vec![msg(9)]);
        assert_eq!(outcome.stats.transmitters, 2);
    }

    #[test]
    fn all_silent_round_is_empty() {
        let graph = topology::cycle(5).unwrap();
        let outgoing = vec![None; 5];
        let params = SimulationParams::calibrated(0.0);
        let (outcome, _) = run_one(graph, Noise::Noiseless, params, outgoing, 5);
        assert!(outcome.delivered.iter().all(Vec::is_empty));
        assert!(outcome.stats.all_perfect());
    }

    #[test]
    fn noisy_round_still_delivers_whp() {
        // ε = 0.05 with calibrated constants: a round on a small graph
        // should decode perfectly in the vast majority of trials.
        let params = SimulationParams::calibrated(0.05);
        let mut perfect = 0;
        let trials = 20;
        for seed in 0..trials {
            let graph = topology::cycle(6).unwrap();
            let outgoing = (0..6).map(|v| Some(msg(v as u64 + 1))).collect();
            let (outcome, _) = run_one(graph, Noise::bernoulli(0.05), params, outgoing, seed);
            if outcome.stats.all_perfect() {
                perfect += 1;
            }
        }
        assert!(
            perfect >= trials - 1,
            "only {perfect}/{trials} perfect rounds"
        );
    }

    #[test]
    fn implicit_and_materialized_torus_rounds_are_identical() {
        // The ideal-inbox check walks neighbors through the
        // representation-generic API, so an implicit graph simulates the
        // same round as its materialized twin instead of panicking.
        let params = SimulationParams::calibrated(0.05);
        for seed in 0..4 {
            let outgoing: Vec<Option<Message>> = (0..16)
                .map(|v| (v % 3 != 0).then(|| msg(v + seed)))
                .collect();
            let run = |graph| {
                run_one(
                    graph,
                    Noise::bernoulli(0.05),
                    params,
                    outgoing.clone(),
                    seed,
                )
            };
            let (implicit, implicit_rounds) = run(topology::implicit_torus(4, 4).unwrap());
            let (csr, csr_rounds) = run(topology::torus(4, 4).unwrap());
            assert_eq!(implicit.delivered, csr.delivered, "seed {seed}");
            assert_eq!(implicit.stats, csr.stats, "seed {seed}");
            assert_eq!(implicit_rounds, csr_rounds, "seed {seed}");
        }
    }

    #[test]
    fn duplicate_messages_are_delivered_per_sender() {
        // Two neighbors sending identical messages must both appear.
        let graph = topology::star(3).unwrap(); // center 0, leaves 1, 2
        let outgoing = vec![None, Some(msg(5)), Some(msg(5))];
        let params = SimulationParams::calibrated(0.0);
        let (outcome, _) = run_one(graph, Noise::Noiseless, params, outgoing, 6);
        assert_eq!(outcome.delivered[0], vec![msg(5), msg(5)]);
    }

    #[test]
    fn rejects_wrong_outgoing_count() {
        let graph = topology::path(3).unwrap();
        let params = SimulationParams::calibrated(0.0);
        let sim = BroadcastSimulator::new(params, B, 2).unwrap();
        let mut net = BeepNetwork::new(graph, Noise::Noiseless, 0);
        let mut rng = StdRng::seed_from_u64(0);
        let err = sim
            .simulate_round(&mut net, &[None, None], &mut rng)
            .unwrap_err();
        assert_eq!(
            err,
            SimError::OutgoingCount {
                expected: 3,
                actual: 2
            }
        );
    }

    #[test]
    fn rejects_wrong_message_width() {
        let graph = topology::path(2).unwrap();
        let params = SimulationParams::calibrated(0.0);
        let sim = BroadcastSimulator::new(params, B, 1).unwrap();
        let mut net = BeepNetwork::new(graph, Noise::Noiseless, 0);
        let mut rng = StdRng::seed_from_u64(0);
        let bad = Message::zero(B + 1);
        let err = sim
            .simulate_round(&mut net, &[Some(bad), None], &mut rng)
            .unwrap_err();
        assert!(matches!(
            err,
            SimError::Congest(CongestError::MessageWidth { .. })
        ));
    }

    #[test]
    fn rejects_noise_mismatch() {
        let graph = topology::path(2).unwrap();
        let params = SimulationParams::calibrated(0.1);
        let sim = BroadcastSimulator::new(params, B, 1).unwrap();
        let mut net = BeepNetwork::new(graph, Noise::Noiseless, 0);
        let mut rng = StdRng::seed_from_u64(0);
        let err = sim
            .simulate_round(&mut net, &[None, None], &mut rng)
            .unwrap_err();
        assert!(matches!(err, SimError::NoiseMismatch { .. }));
    }

    #[test]
    fn decoys_are_scored_and_rarely_accepted() {
        let graph = topology::complete(5).unwrap();
        let params = SimulationParams::calibrated(0.0).with_decoys(16);
        let outgoing = (0..5).map(|v| Some(msg(v as u64))).collect();
        let (outcome, _) = run_one(graph, Noise::Noiseless, params, outgoing, 8);
        assert_eq!(outcome.stats.decoys_scored, 16 * 5);
        assert_eq!(outcome.stats.decoy_acceptances, 0, "decoy accepted at ε=0");
    }
}
