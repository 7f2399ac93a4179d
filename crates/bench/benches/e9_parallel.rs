//! E9: the sharded multi-threaded round kernel — single-thread bitset
//! versus all-cores bitset at n ∈ {100k, 1M}.
//!
//! The workload is the regime where thread-level parallelism pays: large
//! graphs with a non-trivial beeper fraction (n/16 beepers puts the sparse
//! kernel in its destination-side gather mode) plus batched Bernoulli
//! noise. Results are bit-identical across thread counts by the engine's
//! determinism contract, so this bench measures pure speedup, not a
//! semantic trade.
//!
//! Besides the criterion timings, the bench prints a direct
//! `parallel speedup n=…` line per size and writes the machine-readable
//! `BENCH_e9.json` metrics file (see `beep_bench::perfjson`) that CI's
//! perf bar parses. The acceptance bar — enforced by CI's bench smoke
//! when the runner has ≥ 4 cores — is ≥ 2× at n = 1M. Every size reports
//! the headline `node_rounds_per_sec_n{n}` metric, recorded in the
//! uploaded artifact.

use beep_bits::BitVec;
use beep_net::{topology, BeepNetwork, Graph, Noise};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// One beeper per `BEEP_STRIDE` nodes: dense enough for the gather
/// strategy, sparse enough to look like a protocol round.
const BEEP_STRIDE: usize = 16;
const EPS: f64 = 0.1;

fn instance(n: usize) -> (Graph, BitVec) {
    // A 1M-node random-regular graph is slow to sample; the grid has the
    // same sparse CSR shape and builds in milliseconds.
    let graph = if n >= 1_000_000 {
        let side = (n as f64).sqrt() as usize;
        topology::grid(side, side).unwrap()
    } else {
        let mut rng = StdRng::seed_from_u64(0xE9);
        topology::random_regular(n, 8, &mut rng).unwrap()
    };
    let n = graph.node_count();
    let beepers = BitVec::from_fn(n, |v| v % BEEP_STRIDE == 0);
    (graph, beepers)
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

fn bench_parallel_kernel(c: &mut Criterion) {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut group = c.benchmark_group("parallel_engine");
    #[allow(clippy::cast_precision_loss)]
    let mut metrics: Vec<(String, f64)> = vec![("cores".into(), cores as f64)];
    for n in [100_000usize, 1_000_000] {
        let (graph, beepers) = instance(n);
        let n = graph.node_count();

        let mut single = BeepNetwork::new(graph.clone(), Noise::bernoulli(EPS), 1);
        single.set_parallelism(1);
        group.bench_function(format!("bitset 1-thread n={n} ε={EPS}"), |b| {
            b.iter(|| black_box(single.run_round_bitset(black_box(&beepers)).unwrap()));
        });

        let mut multi = BeepNetwork::new(graph.clone(), Noise::bernoulli(EPS), 1);
        multi.set_parallelism(0); // auto: all cores above the work budget
        group.bench_function(format!("bitset {cores}-thread n={n} ε={EPS}"), |b| {
            b.iter(|| black_box(multi.run_round_bitset(black_box(&beepers)).unwrap()));
        });

        // Direct speedup measurement for the acceptance criterion. Shard
        // count is identical on both sides, so the transcripts are too.
        let mut s_net = BeepNetwork::new(graph.clone(), Noise::bernoulli(EPS), 2);
        s_net.set_parallelism(1);
        let mut received = BitVec::zeros(n);
        let single_ns = median_nanos(15, || {
            s_net
                .run_round_bitset_into(&beepers, &mut received)
                .unwrap();
            black_box(&received);
        });
        let mut m_net = BeepNetwork::new(graph, Noise::bernoulli(EPS), 2);
        m_net.set_parallelism(0);
        let multi_ns = median_nanos(15, || {
            m_net
                .run_round_bitset_into(&beepers, &mut received)
                .unwrap();
            black_box(&received);
        });
        println!(
            "parallel speedup n={n}: 1-thread {single_ns:.0} ns / {cores}-thread {multi_ns:.0} ns \
             = {:.1}x (cores={cores})",
            single_ns / multi_ns
        );
        metrics.push((format!("single_ns_n{n}"), single_ns));
        metrics.push((format!("multi_ns_n{n}"), multi_ns));
        metrics.push((format!("speedup_n{n}"), single_ns / multi_ns));
        #[allow(clippy::cast_precision_loss)]
        metrics.push((
            format!("node_rounds_per_sec_n{n}"),
            n as f64 * 1e9 / multi_ns,
        ));
    }

    group.finish();
    // The JSON file is CI's perf contract — a failed write must fail the
    // bench, or the perf bar would validate stale cached metrics.
    let path = beep_bench::perfjson::write_bench_json("e9", &metrics)
        .expect("BENCH_e9.json must be written (CI's perf bar reads it)");
    println!("metrics written to {}", path.display());
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_parallel_kernel
}
criterion_main!(benches);
