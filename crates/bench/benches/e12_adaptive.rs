//! E12: the adaptive-adversary overlay on the bitset round kernel —
//! per-round cost of every `AdaptivePolicy` at n = 100k, against the
//! static-plan and fault-free baselines.
//!
//! The workload is e11's — a random-regular graph on the iid channel,
//! one beeper per 32 nodes — so the numbers compose: e11 prices the
//! static overlay's two `O(n/64)` mask passes, and this bench prices
//! what adaptivity adds on top. An adaptive decision runs once per round,
//! before the neighborhood OR: `TargetLoudest` selects the top-budget
//! cumulative beepers in `O(n)` with no sort (a linear-time selection of
//! the budget-th largest count, then one ascending pass over the nodes),
//! and `RushingSpam` draws its spam set from the reserved adaptive stream
//! (a partial Fisher–Yates, `O(budget)` after the silent-node scan). Both
//! are `O(n)` per round, so the expected overhead at a 1% budget is a
//! modest constant over the fault-free round, not a scaling cliff. A
//! zero-budget policy is behaviourally empty and must price at
//! the fault-free baseline: the engine short-circuits on `is_empty()`.
//!
//! Besides the criterion timings, the bench prints one
//! `adaptive <key>: … ns/round` line per plan and writes the
//! machine-readable `BENCH_e12.json` metrics file (see
//! `beep_bench::perfjson`). CI's perf bar asserts the `policies` metric —
//! both adaptive policies plus a composed static+adaptive plan benched
//! above the fault-free baseline — and archives the JSON artifact.

use beep_bits::BitVec;
use beep_net::{topology, AdaptivePolicy, BeepNetwork, FaultKind, FaultPlan, Graph, Noise};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// One beeper per `BEEP_STRIDE` nodes (e11's stride: every plan stays in
/// the scatter regime, so the overlay is the only thing that varies).
const BEEP_STRIDE: usize = 32;
const N: usize = 100_000;
/// Per-round adaptive budget: 1% of the network, matching e11's static
/// fault fraction.
const BUDGET: usize = N / 100;

fn instance() -> (Graph, BitVec) {
    let mut rng = StdRng::seed_from_u64(0xE12);
    let graph = topology::random_regular(N, 8, &mut rng).unwrap();
    let beepers = BitVec::from_fn(N, |v| v % BEEP_STRIDE == 0);
    (graph, beepers)
}

/// The swept plans: the fault-free baseline, each adaptive policy alone,
/// and a composed static + adaptive plan (1% mute faults under a rushing
/// spammer — the realistic worst case: both overlay passes *and* the
/// adaptive decision run every round).
fn plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("nofault", FaultPlan::none()),
        (
            "loudest",
            FaultPlan::from_policy(AdaptivePolicy::TargetLoudest { budget: BUDGET }),
        ),
        (
            "rushing",
            FaultPlan::from_policy(AdaptivePolicy::RushingSpam {
                budget: BUDGET,
                window: 2,
            }),
        ),
        (
            "mute+rushing",
            FaultPlan::realize(N, 0.01, FaultKind::ByzantineMute, 0xE12)
                .unwrap()
                .with_policy(AdaptivePolicy::RushingSpam {
                    budget: BUDGET,
                    window: 2,
                }),
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

fn bench_adaptive_overlay(c: &mut Criterion) {
    let (graph, beepers) = instance();
    let n = graph.node_count();
    let mut group = c.benchmark_group("adaptive_overlay");
    let mut metrics: Vec<(String, f64)> = Vec::new();
    let mut nofault_ns = f64::NAN;
    for (key, plan) in plans() {
        let mut net = BeepNetwork::new(graph.clone(), Noise::bernoulli(0.1), 1);
        net.set_fault_plan(plan.clone()).unwrap();
        group.bench_function(format!("bitset {key} n={n}"), |b| {
            b.iter(|| black_box(net.run_round_bitset(black_box(&beepers)).unwrap()));
        });

        // Direct per-round cost for the metrics file.
        let mut m_net = BeepNetwork::new(graph.clone(), Noise::bernoulli(0.1), 2);
        m_net.set_fault_plan(plan).unwrap();
        let mut received = BitVec::zeros(n);
        let ns = median_nanos(15, || {
            m_net
                .run_round_bitset_into(&beepers, &mut received)
                .unwrap();
            black_box(&received);
        });
        if key == "nofault" {
            nofault_ns = ns;
        }
        let overhead = ns / nofault_ns;
        println!("adaptive {key}: {ns:.0} ns/round ({overhead:.2}x fault-free)");
        metrics.push((format!("{key}_ns"), ns));
        metrics.push((format!("overhead_{key}"), overhead));
    }
    // Both policies plus the composed plan benched above the fault-free
    // baseline — the CI bar checks this count so a silently-dropped
    // policy fails loudly.
    metrics.push(("policies".into(), 3.0));
    // Headline throughput on the fault-free baseline.
    #[allow(clippy::cast_precision_loss)]
    metrics.push(("node_rounds_per_sec".into(), n as f64 * 1e9 / nofault_ns));
    group.finish();
    // The JSON file is CI's perf contract — a failed write must fail the
    // bench, or the perf bar would validate stale cached metrics.
    let path = beep_bench::perfjson::write_bench_json("e12", &metrics)
        .expect("BENCH_e12.json must be written (CI's perf bar reads it)");
    println!("metrics written to {}", path.display());
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_adaptive_overlay
}
criterion_main!(benches);
