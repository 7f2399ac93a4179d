//! E10: the channel models on the bitset round kernel — per-round cost of
//! every variant of the closed `ChannelModel` enum at n = 100k, against the
//! noiseless baseline.
//!
//! The workload mirrors `e9_parallel`: a random-regular graph with one
//! beeper per 16 nodes, so the kernel runs its realistic sparse-gather
//! shape and the channel pass is the only thing that varies. The iid
//! channel draws geometric-skip flips; Gilbert–Elliott adds one cached
//! per-round state draw; the per-node channel pays one RNG draw per node;
//! the adversary draws nothing and walks the frame greedily. All of them
//! sit under the same counter-keyed determinism contract, so the bench
//! measures pure channel cost, not a semantic trade.
//!
//! Besides the criterion timings, the bench prints one
//! `channel <key>: … ns/round` line per model and writes the
//! machine-readable `BENCH_e10.json` metrics file (see
//! `beep_bench::perfjson`). CI's perf bar asserts the `models` metric —
//! all four noisy families benched — and archives the JSON artifact.

use beep_bits::BitVec;
use beep_net::{
    topology, AdversarialErasure, BeepNetwork, ChannelModel, GilbertElliott, Graph, Noise,
    PerNodeEps,
};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// One beeper per `BEEP_STRIDE` nodes — the e9 workload shape.
const BEEP_STRIDE: usize = 16;
const N: usize = 100_000;

fn instance() -> (Graph, BitVec) {
    let mut rng = StdRng::seed_from_u64(0xE10);
    let graph = topology::random_regular(N, 8, &mut rng).unwrap();
    let beepers = BitVec::from_fn(N, |v| v % BEEP_STRIDE == 0);
    (graph, beepers)
}

/// The swept families: the noiseless baseline plus one representative of
/// each noisy channel, at comparable corruption rates.
fn channels() -> Vec<(&'static str, ChannelModel)> {
    vec![
        ("noiseless", ChannelModel::from(Noise::Noiseless)),
        (
            "iid",
            ChannelModel::from(Noise::try_bernoulli(0.1).expect("valid rate")),
        ),
        (
            "ge",
            ChannelModel::from(
                GilbertElliott::try_new(0.01, 0.2, 0.1, 0.5).expect("valid parameters"),
            ),
        ),
        (
            "pernode",
            ChannelModel::from(
                PerNodeEps::try_new(vec![0.0, 0.05, 0.1, 0.2]).expect("valid pattern"),
            ),
        ),
        (
            "adv",
            ChannelModel::from(AdversarialErasure::try_new(N / 100, 0.1).expect("valid rate")),
        ),
    ]
}

/// Median wall-clock of `samples` runs of `f`.
fn median_nanos(samples: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    let mut times: Vec<u128> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_nanos()
        })
        .collect();
    times.sort_unstable();
    times[times.len() / 2] as f64
}

fn bench_channel_models(c: &mut Criterion) {
    let (graph, beepers) = instance();
    let n = graph.node_count();
    let mut group = c.benchmark_group("channel_models");
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut noiseless_ns = f64::NAN;
    for (key, channel) in channels() {
        let mut net = BeepNetwork::new(graph.clone(), channel.clone(), 1);
        group.bench_function(format!("bitset {key} n={n}"), |b| {
            b.iter(|| black_box(net.run_round_bitset(black_box(&beepers)).unwrap()));
        });

        // Direct per-round cost for the metrics file.
        let mut m_net = BeepNetwork::new(graph.clone(), channel, 2);
        let mut received = BitVec::zeros(n);
        let ns = median_nanos(15, || {
            m_net
                .run_round_bitset_into(&beepers, &mut received)
                .unwrap();
            black_box(&received);
        });
        if key == "noiseless" {
            noiseless_ns = ns;
        }
        let overhead = ns / noiseless_ns;
        println!("channel {key}: {ns:.0} ns/round ({overhead:.2}x noiseless)");
        metrics.push((format!("{key}_ns"), ns));
        metrics.push((format!("overhead_{key}"), overhead));
    }
    // The four noisy families benched above the noiseless baseline — the
    // CI bar checks this count so a silently-dropped model fails loudly.
    metrics.push(("models".into(), 4.0));
    // Headline throughput on the noiseless baseline.
    #[allow(clippy::cast_precision_loss)]
    metrics.push(("node_rounds_per_sec".into(), n as f64 * 1e9 / noiseless_ns));
    group.finish();
    // The JSON file is CI's perf contract — a failed write must fail the
    // bench, or the perf bar would validate stale cached metrics.
    let path = beep_bench::perfjson::write_bench_json("e10", &metrics)
        .expect("BENCH_e10.json must be written (CI's perf bar reads it)");
    println!("metrics written to {}", path.display());
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_channel_models
}
criterion_main!(benches);
