//! E8: round-engine throughput — the scalar reference `run_round` versus
//! the bit-parallel `run_round_bitset` kernel, on sparse-beeper rounds at
//! n ∈ {1k, 10k, 100k} (the regime every protocol phase lives in: a few
//! transmitters, everyone else listening), plus the `run_frame` frame
//! driver.
//!
//! Besides the per-kernel timings, the bench measures and prints the
//! scalar/bitset speedup directly and writes the machine-readable
//! `BENCH_e8.json` metrics file (see `beep_bench::perfjson`) that CI's
//! perf bars parse; CI's bars are ≥ 5× at n = 10 000 and at n = 100 000.
//! Every size also reports the headline `node_rounds_per_sec_n{n}`
//! throughput metric, which the uploaded artifact records for each run.
//! `frame_speedup` is a noisy frame of Algorithm 1's shape through the
//! fault-free frame path against the same frame driven round by round,
//! the median ratio of paired runs; CI's bar for it is ≥ 1.3×.
//! `loudest_frame_speedup` is the same ratio for a slot vote's frame under
//! `TargetLoudest`, whose rounds the frame path fixes in one overlay pass
//! with the ranking kept across the frame, while round-by-round driving
//! selects the targets afresh every round; CI's bar for it is ≥ 2×.

use beep_bits::BitVec;
use beep_net::{topology, Action, AdaptivePolicy, BeepNetwork, FaultPlan, Graph, Noise};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
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

/// Wall-clock nanoseconds of one run of `f`.
fn nanos(f: &mut impl FnMut()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos() as f64
}

/// The median of `xs`.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

/// Median wall-clock of `samples` runs of `f` (separate from the criterion
/// reporting: used to print the speedup ratio the acceptance bar names).
fn median_nanos(samples: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm-up
    median((0..samples).map(|_| nanos(&mut f)).collect())
}

/// `pairs` pairs of wall-clock nanoseconds `(a, b)`, one run of each side
/// per pair after one warm-up run of each. The side that runs first
/// alternates, so neither always runs on the cache state the other left,
/// and a slow moment of the machine moves one pair rather than one side.
fn paired_nanos(pairs: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> Vec<(f64, f64)> {
    a();
    b();
    (0..pairs)
        .map(|i| {
            if i % 2 == 0 {
                let ta = nanos(&mut a);
                (ta, nanos(&mut b))
            } else {
                let tb = nanos(&mut b);
                (nanos(&mut a), tb)
            }
        })
        .collect()
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
    let frame_speedup = alg1_frame_speedup();
    let loudest_frame_speedup = loudest_frame_speedup();
    let mut metrics = METRICS.lock().unwrap();
    metrics.push(("frame_ns".into(), frame_ns));
    metrics.push(("frame_speedup".into(), frame_speedup));
    metrics.push(("loudest_frame_speedup".into(), loudest_frame_speedup));
    // The JSON file is CI's perf contract — a failed write must fail the
    // bench, or the perf bar would validate stale cached metrics. This is
    // the last criterion target, so the file carries every group above.
    let path = beep_bench::perfjson::write_bench_json("e8", &metrics)
        .expect("BENCH_e8.json must be written (CI's perf bar reads it)");
    println!("metrics written to {}", path.display());
}

/// One noisy phase frame of Algorithm 1's shape (`perfbench`'s
/// `alg1_matching`: `random_regular(512, 4)`, ε = 0.05, 120 transmitters,
/// weight-909 frames of 13,635 rounds), through the fault-free frame path
/// against round-by-round driving; see [`paired_frame_speedup`].
fn alg1_frame_speedup() -> f64 {
    let (n, len, weight, transmitters) = (512, 13_635, 909, 120);
    let mut rng = StdRng::seed_from_u64(0xA1);
    let graph = topology::random_regular(n, 4, &mut rng).unwrap();
    // Every fourth node transmits until there are 120, the rest listen.
    let frames: Vec<Option<BitVec>> = (0..n)
        .map(|v| {
            (v % 4 == 0 && v / 4 < transmitters)
                .then(|| BitVec::random_with_weight(len, weight, &mut rng))
        })
        .collect();
    let net = || BeepNetwork::new(graph.clone(), Noise::bernoulli(0.05), 6);
    paired_frame_speedup("alg1-shaped frame n=512", net(), net(), &frames, len, 1)
}

/// One slot vote's frame of `perfbench`'s `ft_campaign` under its
/// adaptive adversary: 64-round all-ones frames from 13% of
/// `torus(32, 32)`, ε = 0.05, under `TargetLoudest { budget: n/8 }`,
/// through the frame path's overlay pass against round-by-round driving,
/// where every round selects its targets afresh; see
/// [`paired_frame_speedup`].
fn loudest_frame_speedup() -> f64 {
    let len = 64;
    let graph = topology::torus(32, 32).unwrap();
    let n = graph.node_count();
    let mut rng = StdRng::seed_from_u64(0x10D);
    let frames: Vec<Option<BitVec>> = (0..n)
        .map(|_| rng.random_bool(0.13).then(|| BitVec::ones(len)))
        .collect();
    let plan = FaultPlan::from_policy(AdaptivePolicy::TargetLoudest { budget: n / 8 });
    let net = || {
        let mut net = BeepNetwork::new(graph.clone(), Noise::bernoulli(0.05), 7);
        net.set_fault_plan(plan.clone()).unwrap();
        net
    };
    // A frame takes tens of microseconds: time 16 back to back per run.
    paired_frame_speedup("loudest frame n=1024", net(), net(), &frames, len, 16)
}

/// Times `reps` runs of `frames` (`len` rounds) through `run_frame_into`
/// on `frame_net` and, round by round, through `run_round_bitset_into` on
/// `round_net`, an identically configured network, in 9 alternating
/// pairs. Asserts that the two hear the same bits and end with the same
/// stats and per-node energy, and returns the median over the pairs of
/// the per-round/frame time ratio — a ratio within one run, so no number
/// is compared across machines.
fn paired_frame_speedup(
    what: &str,
    mut round_net: BeepNetwork,
    mut frame_net: BeepNetwork,
    frames: &[Option<BitVec>],
    len: usize,
    reps: usize,
) -> f64 {
    let n = frames.len();
    let beepers_by_round: Vec<BitVec> = (0..len)
        .map(|i| BitVec::from_fn(n, |v| frames[v].as_ref().is_some_and(|f| f.get(i))))
        .collect();
    let mut received_by_round = vec![BitVec::zeros(n); len];
    let mut heard = Vec::new();
    let pairs = paired_nanos(
        9,
        || {
            for _ in 0..reps {
                for (beepers, received) in beepers_by_round.iter().zip(&mut received_by_round) {
                    round_net.run_round_bitset_into(beepers, received).unwrap();
                }
            }
        },
        || {
            for _ in 0..reps {
                frame_net.run_frame_into(frames, len, &mut heard).unwrap();
                black_box(&heard);
            }
        },
    );
    // Both networks ran the same frames from round 0, so their last frames
    // ran at the same rounds and must hear the same bits.
    for (v, h) in heard.iter().enumerate() {
        for (i, received) in received_by_round.iter().enumerate() {
            assert_eq!(h.get(i), received.get(v), "{what}: node {v} round {i}");
        }
    }
    assert_eq!(round_net.stats(), frame_net.stats(), "{what}: stats");
    assert_eq!(
        round_net.beeps_by_node(),
        frame_net.beeps_by_node(),
        "{what}: energy"
    );
    let speedup = median(pairs.iter().map(|&(round, frame)| round / frame).collect());
    let round_ns = median(pairs.iter().map(|&(round, _)| round).collect());
    let frame_ns = median(pairs.iter().map(|&(_, frame)| frame).collect());
    println!(
        "{what} len={len} x{reps}: round by round {round_ns:.0} ns, run_frame_into \
         {frame_ns:.0} ns (medians); paired ratio {speedup:.2}x"
    );
    speedup
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_round_kernels, bench_frame_kernel
}
criterion_main!(benches);
