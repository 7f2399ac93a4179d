//! E8: round-engine throughput — the scalar reference `run_round` versus
//! the bit-parallel `run_round_bitset` kernel, on sparse-beeper rounds at
//! n ∈ {1k, 10k, 100k} (the regime every protocol phase lives in: a few
//! transmitters, everyone else listening), plus the extreme-scale
//! n ≈ 10M implicit-torus configuration (zero adjacency storage, the
//! wide-word shift kernel) and the `run_frame` frame driver.
//!
//! Besides the per-kernel timings, the bench measures and prints the
//! scalar/bitset speedup directly and writes the machine-readable
//! `BENCH_e8.json` metrics file (see `beep_bench::perfjson`) that CI's
//! perf bar parses; the acceptance bar for the engine refactor is ≥ 5×
//! at n = 100 000. Every size also reports the headline
//! `node_rounds_per_sec_n{n}` throughput metric the perf-trajectory gate
//! tracks across runs.

use beep_bits::BitVec;
use beep_net::{topology, Action, BeepNetwork, Graph, Noise};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;

/// Metrics accumulated across the criterion target functions; the last
/// target writes `BENCH_e8.json` so one file carries the whole bench.
static METRICS: Mutex<Vec<(String, f64)>> = Mutex::new(Vec::new());

const DEGREE: usize = 8;
const BEEPERS: usize = 16;

fn sparse_instance(n: usize) -> (Graph, Vec<Action>, BitVec) {
    let mut rng = StdRng::seed_from_u64(0xE8);
    let graph = topology::random_regular(n, DEGREE, &mut rng).unwrap();
    // A few spread-out beepers, everyone else listening.
    let beeper_ids: Vec<usize> = (0..BEEPERS).map(|i| i * (n / BEEPERS)).collect();
    let mut actions = vec![Action::Listen; n];
    for &v in &beeper_ids {
        actions[v] = Action::Beep;
    }
    let beepers = BitVec::from_indices(n, beeper_ids);
    (graph, actions, beepers)
}

/// Median wall-clock of `samples` runs of `f` (separate from the criterion
/// reporting: used to print the speedup ratio the acceptance bar names).
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

fn bench_round_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("round_engine");
    let mut metrics: Vec<(String, f64)> = Vec::new();
    for n in [1_000usize, 10_000, 100_000] {
        let (graph, actions, beepers) = sparse_instance(n);

        let mut scalar_net = BeepNetwork::new(graph.clone(), Noise::Noiseless, 1);
        group.bench_function(format!("scalar n={n} beepers={BEEPERS}"), |b| {
            b.iter(|| black_box(scalar_net.run_round(black_box(&actions)).unwrap()));
        });

        let mut bitset_net = BeepNetwork::new(graph.clone(), Noise::Noiseless, 1);
        group.bench_function(format!("bitset n={n} beepers={BEEPERS}"), |b| {
            b.iter(|| black_box(bitset_net.run_round_bitset(black_box(&beepers)).unwrap()));
        });

        let mut noisy_net = BeepNetwork::new(graph.clone(), Noise::bernoulli(0.1), 1);
        group.bench_function(format!("bitset noisy ε=0.1 n={n}"), |b| {
            b.iter(|| black_box(noisy_net.run_round_bitset(black_box(&beepers)).unwrap()));
        });

        // Direct speedup measurement for the acceptance criterion.
        let mut s_net = BeepNetwork::new(graph.clone(), Noise::Noiseless, 2);
        let scalar_ns = median_nanos(30, || {
            black_box(s_net.run_round(black_box(&actions)).unwrap());
        });
        let mut b_net = BeepNetwork::new(graph, Noise::Noiseless, 2);
        let bitset_ns = median_nanos(30, || {
            black_box(b_net.run_round_bitset(black_box(&beepers)).unwrap());
        });
        println!(
            "speedup n={n}: scalar {scalar_ns:.0} ns / bitset {bitset_ns:.0} ns = {:.1}x",
            scalar_ns / bitset_ns
        );
        metrics.push((format!("scalar_ns_n{n}"), scalar_ns));
        metrics.push((format!("bitset_ns_n{n}"), bitset_ns));
        metrics.push((format!("speedup_n{n}"), scalar_ns / bitset_ns));
        #[allow(clippy::cast_precision_loss)]
        metrics.push((
            format!("node_rounds_per_sec_n{n}"),
            n as f64 * 1e9 / bitset_ns,
        ));
    }
    group.finish();
    METRICS.lock().unwrap().extend(metrics);
}

/// The extreme-scale configuration: n ≈ 10M nodes on a zero-storage
/// implicit torus, driven through the wide-word shift kernel. Criterion
/// iteration at this size is too slow for the smoke run, so the metrics
/// come from a short direct median instead (the scheduled `large-n` CI
/// job re-runs this with generous timeouts).
fn bench_implicit_extreme(_c: &mut Criterion) {
    let side = 3_163usize; // 3163² = 10_004_569 ≈ 10M nodes
    let graph = topology::implicit_torus(side, side).unwrap();
    let n = graph.node_count();
    let beepers = BitVec::from_fn(n, |v| v % 1024 == 0);
    let mut net = BeepNetwork::new(graph, Noise::bernoulli(0.1), 2);
    net.set_parallelism(0); // all cores: the 10M row is a machine headline
    let mut received = BitVec::zeros(n);
    let ns = median_nanos(5, || {
        net.run_round_bitset_into(&beepers, &mut received).unwrap();
        black_box(&received);
    });
    #[allow(clippy::cast_precision_loss)]
    let node_rounds_per_sec = n as f64 * 1e9 / ns;
    println!("implicit torus n={n}: {ns:.0} ns/round = {node_rounds_per_sec:.3e} node-rounds/s");
    let mut metrics = METRICS.lock().unwrap();
    metrics.push((format!("implicit_torus_ns_n{n}"), ns));
    metrics.push((format!("node_rounds_per_sec_n{n}"), node_rounds_per_sec));
}

fn bench_frame_kernel(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame_engine");
    let n = 10_000;
    let len = 64;
    let (graph, _, _) = sparse_instance(n);
    // 16 transmitters with dense 64-bit frames, the rest silent.
    let mut rng = StdRng::seed_from_u64(3);
    let frames: Vec<Option<BitVec>> = (0..n)
        .map(|v| (v % (n / BEEPERS) == 0).then(|| BitVec::random_uniform(len, &mut rng)))
        .collect();
    let mut net = BeepNetwork::new(graph.clone(), Noise::Noiseless, 4);
    group.bench_function(format!("run_frame n={n} len={len}"), |b| {
        b.iter(|| black_box(net.run_frame(black_box(&frames)).unwrap()));
    });
    group.finish();

    // Direct median of the reuse-buffer driver for the metrics file.
    let mut f_net = BeepNetwork::new(graph, Noise::Noiseless, 5);
    let mut heard = Vec::new();
    let frame_ns = median_nanos(15, || {
        f_net.run_frame_into(&frames, len, &mut heard).unwrap();
        black_box(&heard);
    });
    println!("run_frame_into n={n} len={len}: {frame_ns:.0} ns");
    let mut metrics = METRICS.lock().unwrap();
    metrics.push(("frame_ns".into(), frame_ns));
    // The JSON file is CI's perf contract — a failed write must fail the
    // bench, or the perf bar would validate stale cached metrics. This is
    // the last criterion target, so the file carries every group above.
    let path = beep_bench::perfjson::write_bench_json("e8", &metrics)
        .expect("BENCH_e8.json must be written (CI's perf bar reads it)");
    println!("metrics written to {}", path.display());
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_round_kernels, bench_implicit_extreme, bench_frame_kernel
}
criterion_main!(benches);
