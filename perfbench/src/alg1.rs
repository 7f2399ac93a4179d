//! `alg1_matching`: Theorem 21's maximal matching over Algorithm 1, the
//! paper's headline application. One op is `beep_apps::maximal_matching`
//! on a seeded random 4-regular graph with n = 512 at iid ε = 0.05,
//! whose matching takes [`CONGEST_ROUNDS`] rounds.

use crate::drive::{self, Workload};
use crate::replay::{self, RoundRecord};
use crate::report::Layers;
use crate::{derive, fnv1a};
use beep_bits::BitVec;
use beep_congest::algorithms::MaximalMatching;
use beep_congest::{validate, BroadcastAlgorithm, BroadcastRunner, Message, NodeCtx};
use beep_core::{BroadcastSimulator, RoundStats, SimReport, SimulationParams};
use beep_net::{topology, BeepNetwork, ChannelModel, FaultPlan, Graph, NodeId, Noise};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Nodes.
pub const N: usize = 512;
/// Degree of the random regular graph.
pub const DEGREE: usize = 4;
/// Channel noise rate.
pub const EPSILON: f64 = 0.05;

/// Instances a run cycles through.
pub const INSTANCES: usize = 3;

/// CONGEST rounds of every op. Matching takes 9, 13 or 17 rounds
/// depending on the draw (13 in 195 of 200 draws tried), which would make
/// one op cost up to twice another; the set-up keeps the draws that take the common 13, so every
/// op simulates the same number of rounds.
pub const CONGEST_ROUNDS: usize = 13;

/// Algorithm seeds tried per instance before the set-up gives up.
const MAX_DRAWS: u64 = 64;

const GRAPH_STREAM: u64 = 1;
const ALGO_STREAM: u64 = 2;

/// One op's input: the graph and the seed handed to `maximal_matching`.
pub struct Instance {
    graph: Graph,
    seed: u64,
}

/// Instance `i` of workload seed `seed`: a random graph and the first
/// algorithm seed derived from it whose matching, run by the native
/// (direct-delivery) CONGEST runner, takes [`CONGEST_ROUNDS`] rounds.
///
/// # Errors
///
/// If the generator rejects the fixed size, or no draw takes
/// [`CONGEST_ROUNDS`] rounds.
pub fn instance(seed: u64, i: u64) -> Result<Instance, String> {
    let stream = derive(seed, i);
    let mut rng = StdRng::seed_from_u64(derive(stream, GRAPH_STREAM));
    let graph = topology::random_regular(N, DEGREE, &mut rng).map_err(|e| e.to_string())?;
    for draw in 0..MAX_DRAWS {
        let seed = derive(derive(stream, ALGO_STREAM), draw);
        if native_rounds(&graph, seed)? == CONGEST_ROUNDS {
            return Ok(Instance { graph, seed });
        }
    }
    Err(format!(
        "no matching of instance {i} takes {CONGEST_ROUNDS} rounds in {MAX_DRAWS} draws"
    ))
}

/// CONGEST rounds the maximal matching takes on `graph` with algorithm
/// seed `seed` under direct message delivery: the execution a simulation
/// whose rounds all decode perfectly must reproduce.
fn native_rounds(graph: &Graph, seed: u64) -> Result<usize, String> {
    let n = graph.node_count();
    let iters = MaximalMatching::suggested_iterations(n);
    let runner = BroadcastRunner::new(graph, MaximalMatching::required_message_bits(n), seed);
    let mut algos: Vec<Box<MaximalMatching>> = (0..n)
        .map(|_| Box::new(MaximalMatching::new(iters)))
        .collect();
    runner
        .run_to_completion(&mut algos, MaximalMatching::rounds_for(iters))
        .map(|r| r.rounds)
        .map_err(|e| e.to_string())
}

/// What one op simulated.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    congest_rounds: usize,
    beep_rounds: usize,
    beeps: u64,
    stats: RoundStats,
    matched: usize,
    output_hash: u64,
}

impl Fingerprint {
    fn of(report: &SimReport, output: &[Option<NodeId>]) -> Fingerprint {
        let text: String = output.iter().map(|o| format!("{o:?},")).collect();
        Fingerprint {
            congest_rounds: report.congest_rounds,
            beep_rounds: report.beep_rounds,
            beeps: report.beeps,
            stats: report.stats,
            matched: output.iter().flatten().count(),
            output_hash: fnv1a(text.as_bytes()),
        }
    }
}

impl drive::Fingerprint for Fingerprint {
    fn beep_rounds(&self) -> u64 {
        self.beep_rounds as u64
    }

    fn congest_rounds(&self) -> u64 {
        self.congest_rounds as u64
    }

    fn line(pass: &[Self]) -> String {
        let mut s = RoundStats::default();
        pass.iter().for_each(|f| s.merge(&f.stats));
        let sum = |f: fn(&Self) -> u64| pass.iter().map(f).sum::<u64>();
        let hashes: String = pass
            .iter()
            .map(|f| format!("{:016x}", f.output_hash))
            .collect();
        format!(
            "fingerprint: {{\"ops\": {}, \"congest_rounds\": {}, \"beep_rounds\": {}, \"beeps\": {}, \
             \"round_stats\": {{\"rounds\": {}, \"transmitters\": {}, \"false_negatives\": {}, \
             \"false_positives\": {}, \"decoys_scored\": {}, \"decoy_acceptances\": {}, \
             \"message_errors\": {}, \"imperfect_rounds\": {}}}, \"matched_nodes\": {}, \
             \"outputs_fnv\": \"{:016x}\"}}",
            pass.len(),
            sum(|f| f.congest_rounds as u64),
            sum(|f| f.beep_rounds as u64),
            sum(|f| f.beeps),
            s.rounds,
            s.transmitters,
            s.false_negatives,
            s.false_positives,
            s.decoys_scored,
            s.decoy_acceptances,
            s.message_errors,
            s.imperfect_rounds,
            sum(|f| f.matched as u64),
            fnv1a(hashes.as_bytes())
        )
    }
}

/// The `alg1_matching` workload.
pub struct Alg1Matching;

impl Workload for Alg1Matching {
    type Instance = Instance;
    type Fp = Fingerprint;
    const NAME: &'static str = "alg1_matching";

    fn instances(seed: u64) -> Result<Vec<Instance>, String> {
        (0..INSTANCES as u64).map(|i| instance(seed, i)).collect()
    }

    /// `maximal_matching`, failing on an error, a matching violation or
    /// an imperfectly decoded simulated round.
    fn op(instance: &Instance) -> Result<Fingerprint, String> {
        let task = beep_apps::maximal_matching(&instance.graph, EPSILON, instance.seed)
            .map_err(|e| e.to_string())?;
        check(&instance.graph, &task.output, &task.report)
    }

    fn traced_op(instance: &Instance, layers: &mut Layers) -> Result<Fingerprint, String> {
        traced_op(&instance.graph, instance.seed, layers)
    }

    fn nodes(instance: &Instance) -> usize {
        instance.graph.node_count()
    }
}

/// The op's output check: a valid maximal matching, delivered by rounds
/// that all decoded perfectly, in the rounds the native run took.
fn check(
    graph: &Graph,
    output: &[Option<NodeId>],
    report: &SimReport,
) -> Result<Fingerprint, String> {
    let violations = validate::check_matching(graph, output);
    if !violations.is_empty() {
        return Err(format!("matching violations: {violations:?}"));
    }
    if report.stats.imperfect_rounds > 0 {
        return Err(format!(
            "{} imperfect simulated rounds",
            report.stats.imperfect_rounds
        ));
    }
    if report.congest_rounds != CONGEST_ROUNDS {
        return Err(format!(
            "{} CONGEST rounds where the native run took {CONGEST_ROUNDS}",
            report.congest_rounds
        ));
    }
    Ok(Fingerprint::of(report, output))
}

/// One op driven round by round through `simulate_round` and the
/// `BroadcastAlgorithm` methods, as `maximal_matching` drives it, with
/// spans around each call; then the rounds are replayed layer by layer.
fn traced_op(graph: &Graph, seed: u64, layers: &mut Layers) -> Result<Fingerprint, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    let start = Instant::now();
    let n = graph.node_count();

    // beep-apps: the task's own set-up (sizes, channel, node states).
    let t = Instant::now();
    let bits = MaximalMatching::required_message_bits(n);
    let iters = MaximalMatching::suggested_iterations(n);
    let params = SimulationParams::calibrated(EPSILON);
    let channel = ChannelModel::from(Noise::try_bernoulli(EPSILON).map_err(|e| err(&e))?);
    let mut algos: Vec<Box<MaximalMatching>> = (0..n)
        .map(|_| Box::new(MaximalMatching::new(iters)))
        .collect();
    layers.add("apps.self_s", t.elapsed().as_secs_f64());

    // beep-core: the simulator's codes and the network, seeded as the
    // runner seeds them.
    let t = Instant::now();
    let sim = BroadcastSimulator::new(params, bits, graph.max_degree()).map_err(|e| err(&e))?;
    let mut net = BeepNetwork::new(graph.clone(), channel.clone(), seed ^ 0xBEE9);
    net.set_fault_plan(FaultPlan::none()).map_err(|e| err(&e))?;
    let mut sim_rng = StdRng::seed_from_u64(seed ^ 0xC0DE);
    layers.add("core.setup_s", t.elapsed().as_secs_f64());
    net.record_transcript();

    let t = Instant::now();
    for (v, algo) in algos.iter_mut().enumerate() {
        algo.init(&NodeCtx {
            node: v,
            n,
            degree: graph.degree(v),
            message_bits: bits,
            seed: seed ^ (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        });
    }
    let mut algo_s = t.elapsed().as_secs_f64();
    let mut records: Vec<RoundRecord> = Vec::new();
    let mut stats = RoundStats::default();
    for round in 0..MaximalMatching::rounds_for(iters) {
        let t = Instant::now();
        if algos.iter().all(|a| a.is_done()) {
            algo_s += t.elapsed().as_secs_f64();
            break;
        }
        let outgoing: Vec<Option<Message>> =
            algos.iter_mut().map(|a| a.round_message(round)).collect();
        algo_s += t.elapsed().as_secs_f64();
        let rec =
            replay::alg1_round(&sim, &mut net, outgoing, &mut sim_rng).map_err(|e| err(&e))?;
        let t = Instant::now();
        for (v, algo) in algos.iter_mut().enumerate() {
            algo.on_receive(round, &rec.outcome.delivered[v]);
        }
        algo_s += t.elapsed().as_secs_f64();
        stats.merge(&rec.outcome.stats);
        records.push(rec);
    }
    layers.add("congest.algo_s", algo_s);

    // beep-apps: collecting and validating the output.
    let t = Instant::now();
    if !algos.iter().all(|a| a.is_done()) {
        return Err("round budget exhausted".into());
    }
    let output: Vec<Option<NodeId>> = algos
        .iter()
        .map(|a| a.output().expect("every node is done"))
        .collect();
    let net_stats = net.stats();
    let report = SimReport {
        congest_rounds: records.len(),
        beep_rounds: net_stats.rounds,
        beep_rounds_per_congest_round: sim.rounds_per_congest_round(),
        beeps: net_stats.beeps,
        stats,
    };
    let checked = check(graph, &output, &report);
    layers.add("apps.self_s", t.elapsed().as_secs_f64());
    layers.add("trace.op_s", start.elapsed().as_secs_f64());
    let fingerprint = checked?;
    replay_rounds(&sim, graph, &net, &channel, seed, &records, layers)?;
    layers.add("net.beep_rounds", net_stats.rounds as f64);
    layers.add("net.beeps", net_stats.beeps as f64);
    Ok(fingerprint)
}

/// Replays every recorded round and books each layer's share of
/// `simulate_round`; the Algorithm 1 self time is what the valid replays
/// leave over.
fn replay_rounds(
    sim: &BroadcastSimulator,
    graph: &Graph,
    net: &BeepNetwork,
    channel: &ChannelModel,
    seed: u64,
    records: &[RoundRecord],
    layers: &mut Layers,
) -> Result<(), String> {
    let transcript = net.transcript().ok_or("transcript recording is on")?;
    let mut replay_net = BeepNetwork::new(graph.clone(), channel.clone(), seed ^ 0xBEE9);
    let mut neighbor_tests = 0u64;
    for rec in records {
        let r = replay::replay_alg1_round(sim, graph, transcript, &mut replay_net, rec);
        let mut covered = 0.0;
        if r.net_valid {
            layers.add("net.frame_s", r.frame_s);
            covered += r.frame_s;
        } else {
            layers.add("trace.replays_invalid", 1.0);
        }
        if r.codes_valid {
            layers.add("codes.encode_s", r.encode_s);
            layers.add("codes.set_decode_s", r.set_decode_s);
            layers.add("codes.msg_decode_s", r.msg_decode_s);
            layers.add("codes.set_tests", r.set_tests as f64);
            layers.add("codes.msg_decodes", r.msg_decodes as f64);
            layers.add("codes.pool_encodes", r.pool_encodes as f64);
            neighbor_tests += r.neighbor_tests;
            covered += r.encode_s + r.set_decode_s + r.msg_decode_s;
        } else {
            layers.add("trace.replays_invalid", 1.0);
        }
        layers.add("core.alg1_self_s", rec.sim_s - covered);
    }
    // Held as a count until the run's ratios are formed.
    layers.add("codes.useful_test_frac", neighbor_tests as f64);
    Ok(())
}

/// ROADMAP's "one Algorithm 1 round, total vs engine share" row: one
/// all-transmitting round with 16-bit messages on a random 4-regular
/// graph at ε = 0.05 for each size, split by replay into engine, codes
/// and Algorithm 1's own time.
///
/// # Errors
///
/// If a graph or the simulator cannot be built, or the round fails.
pub fn round_split(sizes: &[usize], seed: u64) -> Result<Vec<String>, String> {
    const BITS: usize = 16;
    let mut lines = vec![format!(
        "{:>6} {:>9} {:>9} {:>7} {:>9} {:>9} {:>9} {:>9}  replays",
        "n", "total_s", "engine_s", "engine", "encode_s", "set_s", "msg_s", "alg1_s"
    )];
    for &n in sizes {
        let mut rng = StdRng::seed_from_u64(derive(seed, n as u64));
        let graph = topology::random_regular(n, DEGREE, &mut rng).map_err(|e| e.to_string())?;
        let sim = BroadcastSimulator::new(
            SimulationParams::calibrated(EPSILON),
            BITS,
            graph.max_degree(),
        )
        .map_err(|e| e.to_string())?;
        let net_seed = derive(seed, 0xBEE9);
        let mut net = BeepNetwork::new(graph.clone(), Noise::bernoulli(EPSILON), net_seed);
        net.record_transcript();
        let outgoing: Vec<Option<Message>> = (0..n)
            .map(|_| Some(Message::from_bits(&BitVec::random_uniform(BITS, &mut rng))))
            .collect();
        let rec =
            replay::alg1_round(&sim, &mut net, outgoing, &mut rng).map_err(|e| e.to_string())?;
        let mut replay_net = BeepNetwork::new(graph.clone(), Noise::bernoulli(EPSILON), net_seed);
        let transcript = net.transcript().ok_or("transcript recording is on")?;
        let r = replay::replay_alg1_round(&sim, &graph, transcript, &mut replay_net, &rec);
        let codes = r.encode_s + r.set_decode_s + r.msg_decode_s;
        lines.push(format!(
            "{n:>6} {:>9.4} {:>9.4} {:>6.1}% {:>9.4} {:>9.4} {:>9.4} {:>9.4}  net {} codes {}",
            rec.sim_s,
            r.frame_s,
            100.0 * r.frame_s / rec.sim_s,
            r.encode_s,
            r.set_decode_s,
            r.msg_decode_s,
            rec.sim_s - r.frame_s - codes,
            if r.net_valid { "valid" } else { "INVALID" },
            if r.codes_valid { "valid" } else { "INVALID" },
        ));
    }
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edges(g: &Graph) -> Vec<Vec<NodeId>> {
        (0..g.node_count())
            .map(|v| g.neighbors(v).to_vec())
            .collect()
    }

    #[test]
    fn instances_are_a_pure_function_of_the_seed() {
        let a = Alg1Matching::instances(7).unwrap();
        let b = Alg1Matching::instances(7).unwrap();
        let c = Alg1Matching::instances(8).unwrap();
        assert_eq!(a.len(), INSTANCES);
        for ((x, y), z) in a.iter().zip(&b).zip(&c) {
            assert_eq!(x.graph.node_count(), N);
            assert_eq!(x.graph.max_degree(), DEGREE);
            assert_eq!(edges(&x.graph), edges(&y.graph));
            assert_eq!(x.seed, y.seed);
            assert_eq!(native_rounds(&x.graph, x.seed).unwrap(), CONGEST_ROUNDS);
            assert_ne!(edges(&x.graph), edges(&z.graph));
            assert_ne!(x.seed, z.seed);
        }
        assert_ne!(edges(&a[0].graph), edges(&a[1].graph));
    }
}
