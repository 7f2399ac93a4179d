//! Replays that split one simulated round by layer without instrumenting
//! the library.
//!
//! The traced drivers call the public round simulators exactly as the
//! library's runners do, keeping what each round needs to be re-run
//! piecewise: the outgoing messages, the simulator's RNG state before
//! the round, and the network statistics after it. The engine's share is
//! then measured by replaying the round's beeps into
//! `BeepNetwork::run_frames_batched_into` on an identically seeded
//! network (noise is counter-keyed by round, so the replay hears what the
//! original heard), and the `beep-codes` share by re-running Algorithm 1's
//! encoders and decoders on the rebuilt codewords and the replayed heard
//! strings. A replay counts only if it reproduces the original: the
//! network statistics, the frames, and the delivered messages.

use beep_bits::BitVec;
use beep_codes::{CombinedCode, MessageDecoder, SetDecoder};
use beep_congest::Message;
use beep_core::baseline::TdmaSimulator;
use beep_core::{BroadcastSimulator, RoundOutcome, RoundStats, SimError};
use beep_net::{BeepNetwork, Graph, NetStats, Transcript};
use rand::rngs::StdRng;
use std::collections::HashSet;
use std::time::Instant;

/// What a traced driver keeps of one simulated Broadcast CONGEST round.
#[derive(Debug, Clone)]
pub struct RoundRecord {
    /// Each node's broadcast (`None` = silent).
    pub outgoing: Vec<Option<Message>>,
    /// The simulator RNG before the round (Algorithm 1 only).
    pub rng_before: Option<StdRng>,
    /// Network statistics before the round.
    pub stats_before: NetStats,
    /// Network statistics after the round.
    pub stats_after: NetStats,
    /// What the round delivered.
    pub outcome: RoundOutcome,
    /// Host seconds `simulate_round` took.
    pub sim_s: f64,
}

/// Runs one Algorithm 1 round through the public simulator and records it.
///
/// # Errors
///
/// As [`BroadcastSimulator::simulate_round`].
pub fn alg1_round(
    sim: &BroadcastSimulator,
    net: &mut BeepNetwork,
    outgoing: Vec<Option<Message>>,
    rng: &mut StdRng,
) -> Result<RoundRecord, SimError> {
    let rng_before = rng.clone();
    let stats_before = net.stats();
    let start = Instant::now();
    let outcome = sim.simulate_round(net, &outgoing, rng)?;
    let sim_s = start.elapsed().as_secs_f64();
    Ok(RoundRecord {
        outgoing,
        rng_before: Some(rng_before),
        stats_before,
        stats_after: net.stats(),
        outcome,
        sim_s,
    })
}

/// Runs one TDMA baseline round through the public simulator and records
/// it.
///
/// # Errors
///
/// As [`TdmaSimulator::simulate_round`].
pub fn tdma_round(
    sim: &TdmaSimulator,
    net: &mut BeepNetwork,
    outgoing: Vec<Option<Message>>,
) -> Result<RoundRecord, SimError> {
    let stats_before = net.stats();
    let start = Instant::now();
    let outcome = sim.simulate_round(net, &outgoing)?;
    let sim_s = start.elapsed().as_secs_f64();
    Ok(RoundRecord {
        outgoing,
        rng_before: None,
        stats_before,
        stats_after: net.stats(),
        outcome,
        sim_s,
    })
}

/// Per-layer figures of one replayed round. Times are host seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RoundReplay {
    /// Engine time: the round's frames through `run_frames_batched_into`.
    pub frame_s: f64,
    /// Beep-code and distance-code encoding (plus combining).
    pub encode_s: f64,
    /// Phase-1 set-decoder tests.
    pub set_decode_s: f64,
    /// Phase-2 projection and nearest-codeword decoding.
    pub msg_decode_s: f64,
    /// Set-decoder tests (candidates and decoys at every node).
    pub set_tests: u64,
    /// Set-decoder tests whose candidate is a neighbor of the tester.
    pub neighbor_tests: u64,
    /// Nearest-codeword decodes.
    pub msg_decodes: u64,
    /// Distance-code encodes inside those decodes (one per pool entry).
    pub pool_encodes: u64,
    /// The engine replay reproduced the network statistics (and, for
    /// TDMA, the delivered messages decoded from its heard strings).
    pub net_valid: bool,
    /// The codes replay reproduced the frames and the delivered messages.
    pub codes_valid: bool,
}

/// Node-major frames of `len` transcript rounds starting at `start`: node
/// `v` transmits in round `i` iff it beeped in transcript round
/// `start + i`; nodes that never beep listen throughout.
pub fn frames_from_transcript(
    transcript: &Transcript,
    start: usize,
    len: usize,
    n: usize,
) -> Vec<Option<BitVec>> {
    let mut frames: Vec<Option<BitVec>> = vec![None; n];
    for i in 0..len {
        for v in transcript.round(start + i).iter_ones() {
            frames[v]
                .get_or_insert_with(|| BitVec::zeros(len))
                .set(i, true);
        }
    }
    frames
}

/// Runs `frames` on the replay network, returning the seconds it took.
fn replay_frames(
    net: &mut BeepNetwork,
    frames: &[Option<BitVec>],
    len: usize,
    heard: &mut Vec<BitVec>,
) -> Option<f64> {
    let start = Instant::now();
    net.run_frames_batched_into(frames, len, heard).ok()?;
    Some(start.elapsed().as_secs_f64())
}

/// Whether a rebuilt frame equals a transcript frame (`None` there means
/// the node never beeped, which an all-zero frame also means).
fn same_frame(rebuilt: Option<&BitVec>, recorded: Option<&BitVec>) -> bool {
    match (rebuilt, recorded) {
        (Some(a), Some(b)) => a == b,
        (Some(a), None) => a.count_ones() == 0,
        (None, Some(b)) => b.count_ones() == 0,
        (None, None) => true,
    }
}

/// Draws a uniform `a_bits`-bit string outside `avoid`, with the same
/// bounded resampling as Algorithm 1's `r_v` and decoy draws.
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

/// Replays one recorded Algorithm 1 round: its two phases from the
/// transcript into `replay_net` (which must have replayed every earlier
/// round), then its encoders and decoders on the rebuilt codewords and
/// the replayed heard strings.
pub fn replay_alg1_round(
    sim: &BroadcastSimulator,
    graph: &Graph,
    transcript: &Transcript,
    replay_net: &mut BeepNetwork,
    rec: &RoundRecord,
) -> RoundReplay {
    let n = graph.node_count();
    let len = sim.codes().phase_len();
    let start = rec.stats_before.rounds;
    let frames1 = frames_from_transcript(transcript, start, len, n);
    let frames2 = frames_from_transcript(transcript, start + len, len, n);
    let mut heard1 = Vec::new();
    let mut heard2 = Vec::new();
    let mut out = RoundReplay::default();
    let (Some(t1), Some(t2)) = (
        replay_frames(replay_net, &frames1, len, &mut heard1),
        replay_frames(replay_net, &frames2, len, &mut heard2),
    ) else {
        return out;
    };
    out.frame_s = t1 + t2;
    out.net_valid = replay_net.stats() == rec.stats_after;
    let Some(rng) = rec.rng_before.clone() else {
        return out;
    };
    out.codes_valid = replay_codes(
        sim,
        graph,
        rec,
        rng,
        [&frames1, &frames2],
        [&heard1, &heard2],
        &mut out,
    )
    .is_some_and(|(delivered, stats)| {
        delivered == rec.outcome.delivered && stats == rec.outcome.stats
    });
    out
}

/// Algorithm 1's transmit side and Section 4 decoder, re-run with spans
/// around the `beep-codes` calls. Returns the delivered messages and
/// statistics, or `None` if a rebuilt frame differs from the transcript
/// or a code call fails.
fn replay_codes(
    sim: &BroadcastSimulator,
    graph: &Graph,
    rec: &RoundRecord,
    mut rng: StdRng,
    frames: [&[Option<BitVec>]; 2],
    heard: [&[BitVec]; 2],
    out: &mut RoundReplay,
) -> Option<(Vec<Vec<Message>>, RoundStats)> {
    let n = graph.node_count();
    let codes = sim.codes();
    let params = sim.params();
    let a_bits = codes.beep.params().input_bits();
    let message_bits = codes.distance.params().message_bits();
    let outgoing = &rec.outgoing;

    // Transmit side: the r_v draws, then both phases' codewords.
    let mut drawn: HashSet<BitVec> = HashSet::new();
    let mut inputs: Vec<Option<BitVec>> = vec![None; n];
    for (v, msg) in outgoing.iter().enumerate() {
        if msg.is_some() {
            let r = sample_avoiding(a_bits, &drawn, &mut rng);
            drawn.insert(r.clone());
            inputs[v] = Some(r);
        }
    }
    let start = Instant::now();
    let mut rebuilt: Vec<Option<(BitVec, BitVec)>> = Vec::with_capacity(n);
    for (input, msg) in inputs.iter().zip(outgoing) {
        rebuilt.push(match (input, msg) {
            (Some(r), Some(m)) => {
                let carrier = codes.beep.encode(r);
                let payload = codes.distance.encode(&m.to_bitvec());
                let combined = CombinedCode::combine(&carrier, &payload).ok()?;
                Some((carrier, combined))
            }
            _ => None,
        });
    }
    out.encode_s += start.elapsed().as_secs_f64();
    let frames_match = rebuilt.iter().enumerate().all(|(v, pair)| {
        same_frame(pair.as_ref().map(|p| &p.0), frames[0][v].as_ref())
            && same_frame(pair.as_ref().map(|p| &p.1), frames[1][v].as_ref())
    });
    if !frames_match {
        return None;
    }

    // Decoder set-up, in the simulator's RNG order: candidate codewords,
    // the sorted message pool, decoy codewords, then decoy messages.
    let start = Instant::now();
    let candidates: Vec<(usize, BitVec)> = inputs
        .iter()
        .enumerate()
        .filter_map(|(v, r)| r.as_ref().map(|r| (v, codes.beep.encode(r))))
        .collect();
    out.encode_s += start.elapsed().as_secs_f64();
    let mut pool: Vec<BitVec> = outgoing.iter().flatten().map(Message::to_bitvec).collect();
    pool.sort_unstable_by_key(BitVec::to_string);
    pool.dedup();
    let decoy_inputs: Vec<BitVec> = (0..params.decoys)
        .map(|_| sample_avoiding(a_bits, &drawn, &mut rng))
        .collect();
    let start = Instant::now();
    let decoys: Vec<BitVec> = decoy_inputs.iter().map(|r| codes.beep.encode(r)).collect();
    out.encode_s += start.elapsed().as_secs_f64();
    for _ in 0..params.decoys {
        pool.push(BitVec::random_uniform(message_bits, &mut rng));
    }

    // Phase 1 at every node: which candidates and decoys pass the set
    // decoder.
    let set_decoder = SetDecoder::new(&codes.beep, params.epsilon);
    let start = Instant::now();
    let mut accepted: Vec<Vec<bool>> = Vec::with_capacity(n);
    let mut decoy_accepted: Vec<Vec<bool>> = Vec::with_capacity(n);
    for (v, heard1) in heard[0].iter().enumerate() {
        accepted.push(
            candidates
                .iter()
                .map(|(u, cw)| *u != v && set_decoder.accepts_codeword(cw, heard1))
                .collect(),
        );
        decoy_accepted.push(
            decoys
                .iter()
                .map(|cw| set_decoder.accepts_codeword(cw, heard1))
                .collect(),
        );
    }
    out.set_decode_s += start.elapsed().as_secs_f64();

    // Phase 2: nearest-codeword decoding of every accepted codeword.
    let msg_decoder = MessageDecoder::new(&codes.distance);
    let start = Instant::now();
    let mut decoded: Vec<Vec<Option<BitVec>>> = Vec::with_capacity(n);
    let mut decoded_decoys: Vec<Vec<Option<BitVec>>> = Vec::with_capacity(n);
    for v in 0..n {
        let decode = |cw: &BitVec| -> Option<BitVec> {
            let projected = CombinedCode::project(&heard[1][v], cw).ok()?;
            Some(
                msg_decoder
                    .decode_candidates(&projected, pool.iter())
                    .ok()?
                    .message,
            )
        };
        decoded.push(
            candidates
                .iter()
                .zip(&accepted[v])
                .map(|((_, cw), &acc)| acc.then(|| decode(cw)).flatten())
                .collect(),
        );
        decoded_decoys.push(
            decoys
                .iter()
                .zip(&decoy_accepted[v])
                .map(|(cw, &acc)| acc.then(|| decode(cw)).flatten())
                .collect(),
        );
    }
    out.msg_decode_s += start.elapsed().as_secs_f64();

    // Assemble inboxes and statistics exactly as the simulator does.
    let mut stats = RoundStats {
        rounds: 1,
        transmitters: candidates.len(),
        ..RoundStats::default()
    };
    let mut delivered = Vec::with_capacity(n);
    for v in 0..n {
        let mut inbox: Vec<Message> = Vec::new();
        for (i, (u, _)) in candidates.iter().enumerate() {
            if *u == v {
                continue;
            }
            out.set_tests += 1;
            let is_neighbor = graph.has_edge(v, *u);
            out.neighbor_tests += u64::from(is_neighbor);
            match (is_neighbor, accepted[v][i]) {
                (true, false) => {
                    stats.false_negatives += 1;
                    continue;
                }
                (false, false) => continue,
                (false, true) => stats.false_positives += 1,
                (true, true) => {}
            }
            out.msg_decodes += 1;
            let message = decoded[v][i].as_ref()?;
            if is_neighbor && outgoing[*u].as_ref()?.to_bitvec() != *message {
                stats.message_errors += 1;
            }
            inbox.push(Message::from_bits(message));
        }
        for (j, acc) in decoy_accepted[v].iter().enumerate() {
            out.set_tests += 1;
            stats.decoys_scored += 1;
            if *acc {
                out.msg_decodes += 1;
                stats.decoy_acceptances += 1;
                if let Some(message) = &decoded_decoys[v][j] {
                    inbox.push(Message::from_bits(message));
                }
            }
        }
        inbox.sort_unstable();
        let mut ideal: Vec<Message> = graph
            .neighbors(v)
            .iter()
            .filter_map(|&u| outgoing[u].clone())
            .collect();
        ideal.sort_unstable();
        if inbox != ideal {
            stats.imperfect_rounds = 1;
        }
        delivered.push(inbox);
    }
    out.pool_encodes = out.msg_decodes * pool.len() as u64;
    Some((delivered, stats))
}

/// The TDMA baseline's transmit frames for one round: node `v`'s slot
/// (its colour's) carries a presence marker and then its message bits,
/// every field repeated `ρ` times.
pub fn tdma_frames(
    sim: &TdmaSimulator,
    coloring: &[usize],
    outgoing: &[Option<Message>],
) -> Vec<Option<BitVec>> {
    let rep = sim.repetition();
    let total = sim.rounds_per_congest_round();
    let slot_len = total / sim.colors();
    outgoing
        .iter()
        .enumerate()
        .map(|(v, msg)| {
            msg.as_ref().map(|m| {
                let base = coloring[v] * slot_len;
                let bits = m.to_bitvec();
                BitVec::from_fn(total, |i| {
                    if i < base || i >= base + slot_len {
                        return false;
                    }
                    let field = (i - base) / rep;
                    field == 0 || bits.get(field - 1)
                })
            })
        })
        .collect()
}

/// Majority-vote decoding of one node's heard string, as the TDMA
/// baseline does it: one inbox entry per neighbor whose presence marker
/// is heard.
fn tdma_inbox(
    sim: &TdmaSimulator,
    coloring: &[usize],
    graph: &Graph,
    v: usize,
    heard: &BitVec,
) -> Vec<Message> {
    let rep = sim.repetition();
    let slot_len = sim.rounds_per_congest_round() / sim.colors();
    let bits = slot_len / rep - 1;
    let mut inbox: Vec<Message> = Vec::new();
    graph.for_each_neighbor(v, |u| {
        let base = coloring[u] * slot_len;
        let vote = |field: usize| {
            let lo = base + field * rep;
            (lo..lo + rep).filter(|&i| heard.get(i)).count() > rep / 2
        };
        if vote(0) {
            let decoded: Vec<bool> = (1..=bits).map(vote).collect();
            inbox.push(Message::from_bits(&BitVec::from_bools(&decoded)));
        }
    });
    inbox.sort_unstable();
    inbox
}

/// Replays one recorded TDMA round: its rebuilt frames into `replay_net`
/// (which must have replayed every earlier round), checked by the network
/// statistics and by majority-decoding the replayed heard strings back
/// into the delivered messages.
pub fn replay_tdma_round(
    sim: &TdmaSimulator,
    coloring: &[usize],
    graph: &Graph,
    replay_net: &mut BeepNetwork,
    rec: &RoundRecord,
) -> RoundReplay {
    let frames = tdma_frames(sim, coloring, &rec.outgoing);
    let mut heard = Vec::new();
    let mut out = RoundReplay::default();
    let Some(t) = replay_frames(
        replay_net,
        &frames,
        sim.rounds_per_congest_round(),
        &mut heard,
    ) else {
        return out;
    };
    out.frame_s = t;
    out.net_valid = replay_net.stats() == rec.stats_after
        && heard
            .iter()
            .enumerate()
            .all(|(v, h)| tdma_inbox(sim, coloring, graph, v, h) == rec.outcome.delivered[v]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use beep_congest::MessageWriter;
    use beep_core::baseline::distance2_coloring;
    use beep_core::SimulationParams;
    use beep_net::{topology, Noise};
    use rand::SeedableRng;

    const B: usize = 12;
    const EPS: f64 = 0.05;

    fn msg(v: u64) -> Message {
        MessageWriter::new().push_uint(v, B).finish(B)
    }

    fn tiny_graph() -> Graph {
        topology::random_regular(16, 3, &mut StdRng::seed_from_u64(5)).unwrap()
    }

    #[test]
    fn alg1_replays_reproduce_stats_heard_strings_and_delivery() {
        let graph = tiny_graph();
        let n = graph.node_count();
        let sim = BroadcastSimulator::new(SimulationParams::calibrated(EPS), B, graph.max_degree())
            .unwrap();
        let mut net = BeepNetwork::new(graph.clone(), Noise::bernoulli(EPS), 11);
        net.record_transcript();
        let mut rng = StdRng::seed_from_u64(12);
        let mut replay_net = BeepNetwork::new(graph.clone(), Noise::bernoulli(EPS), 11);
        // Two rounds, the second with silent nodes, so the replay network
        // must carry the round counter across rounds.
        for round in 0..2u64 {
            let outgoing: Vec<Option<Message>> = (0..n as u64)
                .map(|v| (round == 0 || v % 3 != 0).then(|| msg(v + 10 * round)))
                .collect();
            let rec = alg1_round(&sim, &mut net, outgoing, &mut rng).unwrap();
            let replay = replay_alg1_round(
                &sim,
                &graph,
                net.transcript().unwrap(),
                &mut replay_net,
                &rec,
            );
            assert!(replay.net_valid, "round {round}: {replay:?}");
            assert!(replay.codes_valid, "round {round}: {replay:?}");
            assert!(replay.set_tests > 0 && replay.msg_decodes > 0);
            assert!(replay.neighbor_tests <= replay.set_tests);
        }
        assert_eq!(replay_net.stats(), net.stats());

        // The heard strings the replay produced from the transcript equal
        // those of the round-by-round driver on the same frames.
        let len = sim.codes().phase_len();
        let t = net.transcript().unwrap();
        let mut batched = BeepNetwork::new(graph.clone(), Noise::bernoulli(EPS), 11);
        let mut stepwise = BeepNetwork::new(graph.clone(), Noise::bernoulli(EPS), 11);
        for phase in 0..4 {
            let frames = frames_from_transcript(t, phase * len, len, n);
            let mut a = Vec::new();
            let mut b = Vec::new();
            batched
                .run_frames_batched_into(&frames, len, &mut a)
                .unwrap();
            stepwise.run_frame_into(&frames, len, &mut b).unwrap();
            assert_eq!(a, b, "phase {phase}");
        }
        assert_eq!(batched.stats(), net.stats());
    }

    #[test]
    fn alg1_codes_replay_rejects_another_rng_state() {
        let graph = tiny_graph();
        let n = graph.node_count();
        let sim = BroadcastSimulator::new(SimulationParams::calibrated(EPS), B, graph.max_degree())
            .unwrap();
        let mut net = BeepNetwork::new(graph.clone(), Noise::bernoulli(EPS), 11);
        net.record_transcript();
        let outgoing: Vec<Option<Message>> = (0..n as u64).map(|v| Some(msg(v))).collect();
        let mut rec = alg1_round(&sim, &mut net, outgoing, &mut StdRng::seed_from_u64(1)).unwrap();
        // Other r_v draws rebuild other codewords than the transcript's.
        rec.rng_before = Some(StdRng::seed_from_u64(2));
        let mut replay_net = BeepNetwork::new(graph.clone(), Noise::bernoulli(EPS), 11);
        let replay = replay_alg1_round(
            &sim,
            &graph,
            net.transcript().unwrap(),
            &mut replay_net,
            &rec,
        );
        assert!(replay.net_valid);
        assert!(!replay.codes_valid);
    }

    #[test]
    fn tdma_replay_reproduces_stats_and_delivery() {
        let graph = topology::torus(6, 6).unwrap();
        let n = graph.node_count();
        let sim = TdmaSimulator::new(&graph, B, EPS);
        let coloring = distance2_coloring(&graph);
        let mut net = BeepNetwork::new(graph.clone(), Noise::bernoulli(EPS), 3);
        let mut replay_net = BeepNetwork::new(graph.clone(), Noise::bernoulli(EPS), 3);
        for round in 0..2u64 {
            let outgoing: Vec<Option<Message>> = (0..n as u64)
                .map(|v| (v % 2 == round).then(|| msg(v)))
                .collect();
            let rec = tdma_round(&sim, &mut net, outgoing).unwrap();
            let replay = replay_tdma_round(&sim, &coloring, &graph, &mut replay_net, &rec);
            assert!(replay.net_valid, "round {round}");
            assert!(replay.frame_s > 0.0);
        }
        // A replay that skipped a round is out of step with the original.
        let outgoing: Vec<Option<Message>> = (0..n as u64).map(|v| Some(msg(v))).collect();
        let rec = tdma_round(&sim, &mut net, outgoing).unwrap();
        let mut behind = BeepNetwork::new(graph.clone(), Noise::bernoulli(EPS), 3);
        let replay = replay_tdma_round(&sim, &coloring, &graph, &mut behind, &rec);
        assert!(!replay.net_valid);
    }
}
