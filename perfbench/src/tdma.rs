//! `tdma_flood`: the registry's `tdma` protocol — Flood over the TDMA /
//! distance-2-colouring baseline — on a 64×64 torus at iid ε = 0.05. It
//! runs on the same batched frame driver as Algorithm 1 with no
//! `beep-codes` work at all, so engine and frame-I/O changes show here
//! undiluted.

use crate::derive;
use crate::drive::{self, Workload};
use crate::replay::{self, RoundRecord};
use crate::report::Layers;
use beep_apps::{Protocol, ProtocolOutcome};
use beep_congest::algorithms::Flood;
use beep_congest::{BroadcastAlgorithm, Message, NodeCtx};
use beep_core::baseline::{distance2_coloring, TdmaSimulator};
use beep_net::{topology, BeepNetwork, ChannelModel, Graph, Noise};
use std::time::Instant;

/// Torus side.
pub const SIDE: usize = 64;
/// Channel noise rate.
pub const EPSILON: f64 = 0.05;
/// The registry's message width for its flood workloads.
const PAYLOAD_BITS: usize = 16;
const PROTOCOL_STREAM: u64 = 3;

/// One op's input: the torus and the registry seed.
pub struct Instance {
    graph: Graph,
    seed: u64,
}

/// What one op simulated.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    beep_rounds: usize,
    beeps: u64,
    congest_rounds: usize,
    imperfect_rounds: usize,
}

impl Fingerprint {
    fn of(outcome: &ProtocolOutcome) -> Fingerprint {
        let metric = |name: &str| {
            outcome
                .metrics
                .iter()
                .find(|(k, _)| *k == name)
                .map_or(usize::MAX, |(_, v)| *v as usize)
        };
        Fingerprint {
            beep_rounds: outcome.rounds,
            beeps: outcome.beeps,
            congest_rounds: metric("congest_rounds"),
            imperfect_rounds: metric("imperfect_rounds"),
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
        let sum = |f: fn(&Self) -> u64| pass.iter().map(f).sum::<u64>();
        format!(
            "fingerprint: {{\"ops\": {}, \"congest_rounds\": {}, \"beep_rounds\": {}, \"beeps\": {}, \
             \"round_stats\": {{\"imperfect_rounds\": {}}}}}",
            pass.len(),
            sum(|f| f.congest_rounds as u64),
            sum(|f| f.beep_rounds as u64),
            sum(|f| f.beeps),
            sum(|f| f.imperfect_rounds as u64)
        )
    }
}

/// The `tdma_flood` workload.
pub struct TdmaFlood;

impl Workload for TdmaFlood {
    type Instance = Instance;
    type Fp = Fingerprint;
    const NAME: &'static str = "tdma_flood";

    /// One instance: the torus is the same for every seed, the seed
    /// picks the flooded value and every noise stream.
    fn instances(seed: u64) -> Result<Vec<Instance>, String> {
        let graph = topology::torus(SIDE, SIDE).map_err(|e| e.to_string())?;
        Ok(vec![Instance {
            graph,
            seed: derive(seed, PROTOCOL_STREAM),
        }])
    }

    /// The registry's `tdma` protocol, failing on an error or a flood
    /// that did not reach every node.
    fn op(instance: &Instance) -> Result<Fingerprint, String> {
        let outcome = Protocol::Tdma
            .run(&instance.graph, EPSILON, instance.seed)
            .map_err(|e| e.to_string())?;
        if !outcome.success {
            return Err("flood did not reach every node with the source's value".into());
        }
        Ok(Fingerprint::of(&outcome))
    }

    fn traced_op(instance: &Instance, layers: &mut Layers) -> Result<Fingerprint, String> {
        traced_op(&instance.graph, instance.seed, layers)
    }

    fn nodes(instance: &Instance) -> usize {
        instance.graph.node_count()
    }
}

/// One op driven round by round through `TdmaSimulator::simulate_round`
/// and the `BroadcastAlgorithm` methods, as the registry drives it, with
/// spans around each call; then the rounds are replayed into the engine.
fn traced_op(graph: &Graph, seed: u64, layers: &mut Layers) -> Result<Fingerprint, String> {
    let start = Instant::now();
    let n = graph.node_count();

    let t = Instant::now();
    let value = seed & 0xFFFF;
    let channel = ChannelModel::from(Noise::try_bernoulli(EPSILON).map_err(|e| e.to_string())?);
    let mut algos: Vec<Box<Flood>> = (0..n)
        .map(|_| Box::new(Flood::new(0, value, PAYLOAD_BITS)))
        .collect();
    layers.add("apps.self_s", t.elapsed().as_secs_f64());

    let t = Instant::now();
    let sim = TdmaSimulator::new(graph, PAYLOAD_BITS, EPSILON);
    let mut net = BeepNetwork::new(graph.clone(), channel.clone(), seed ^ 0x7D7A);
    layers.add("core.setup_s", t.elapsed().as_secs_f64());

    let t = Instant::now();
    for (v, algo) in algos.iter_mut().enumerate() {
        algo.init(&NodeCtx {
            node: v,
            n,
            degree: graph.degree(v),
            message_bits: PAYLOAD_BITS,
            seed: seed ^ (v as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        });
    }
    let mut algo_s = t.elapsed().as_secs_f64();
    let mut records: Vec<RoundRecord> = Vec::new();
    let mut imperfect = 0;
    for round in 0..=n {
        let t = Instant::now();
        if algos.iter().all(|a| a.is_done()) {
            algo_s += t.elapsed().as_secs_f64();
            break;
        }
        let outgoing: Vec<Option<Message>> =
            algos.iter_mut().map(|a| a.round_message(round)).collect();
        algo_s += t.elapsed().as_secs_f64();
        let rec = replay::tdma_round(&sim, &mut net, outgoing).map_err(|e| e.to_string())?;
        let t = Instant::now();
        for (v, algo) in algos.iter_mut().enumerate() {
            algo.on_receive(round, &rec.outcome.delivered[v]);
        }
        algo_s += t.elapsed().as_secs_f64();
        imperfect += rec.outcome.stats.imperfect_rounds;
        records.push(rec);
    }
    layers.add("congest.algo_s", algo_s);

    let t = Instant::now();
    let success = algos.iter().all(|a| a.output() == Some(value));
    layers.add("apps.self_s", t.elapsed().as_secs_f64());
    layers.add("trace.op_s", start.elapsed().as_secs_f64());
    if !success {
        return Err("flood did not reach every node with the source's value".into());
    }

    let coloring = distance2_coloring(graph);
    let mut replay_net = BeepNetwork::new(graph.clone(), channel, seed ^ 0x7D7A);
    for rec in &records {
        let r = replay::replay_tdma_round(&sim, &coloring, graph, &mut replay_net, rec);
        if r.net_valid {
            layers.add("net.frame_s", r.frame_s);
            layers.add("core.tdma_self_s", rec.sim_s - r.frame_s);
        } else {
            layers.add("trace.replays_invalid", 1.0);
            layers.add("core.tdma_self_s", rec.sim_s);
        }
    }
    let stats = net.stats();
    layers.add("net.beep_rounds", stats.rounds as f64);
    layers.add("net.beeps", stats.beeps as f64);
    Ok(Fingerprint {
        beep_rounds: stats.rounds,
        beeps: stats.beeps,
        congest_rounds: records.len(),
        imperfect_rounds: imperfect,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_graph_is_fixed_and_the_seed_picks_the_run() {
        let a = TdmaFlood::instances(5).unwrap();
        let b = TdmaFlood::instances(5).unwrap();
        let c = TdmaFlood::instances(6).unwrap();
        assert_eq!(a[0].graph.node_count(), SIDE * SIDE);
        assert_eq!(a[0].graph.max_degree(), 4);
        assert_eq!(a[0].seed, b[0].seed);
        assert_ne!(a[0].seed, c[0].seed);
    }
}
