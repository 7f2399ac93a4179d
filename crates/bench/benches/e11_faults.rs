//! E11: the deterministic fault overlay on the bitset round kernel —
//! per-round cost of every `FaultKind` plan at n = 100k, against the
//! fault-free baseline.
//!
//! The workload is e10's — a random-regular graph on the iid channel —
//! but with one beeper per 32 nodes rather than 16: at stride 16,
//! `beep_count × GATHER_DENSITY_FACTOR` equals `n` exactly, so clearing
//! even a handful of beepers (as crash/mute plans do) flips the kernel
//! from the dense gather to the sparse scatter path and the bench would
//! measure kernel selection, not the overlay. At stride 32 every plan
//! stays safely in the scatter regime and the overlay is the only thing
//! that varies. The overlay's work is two passes over the plan: editing the
//! beeper bitmap before the neighborhood OR (clear mutes/crashed, set
//! spammers) and forcing crashed listeners deaf after the channel — both
//! `O(plan.len())`, independent of `n` and of the channel, so the
//! expected overhead at a 1% fault fraction is noise-level for crash and
//! mute. Spam runs a little hotter — its nodes genuinely beep, so the
//! round carries ~1% more traffic through the scatter kernel, which is
//! workload, not overlay. An empty installed plan must be free: the
//! engine short-circuits on `is_empty()`.
//!
//! Besides the criterion timings, the bench prints one
//! `faults <key>: … ns/round` line per plan and writes the
//! machine-readable `BENCH_e11.json` metrics file (see
//! `beep_bench::perfjson`). CI's perf bar asserts the `kinds` metric —
//! all three fault kinds benched above the fault-free baseline — and
//! archives the JSON artifact.

use beep_bits::BitVec;
use beep_net::{topology, BeepNetwork, FaultKind, FaultPlan, Graph, Noise};
use criterion::{criterion_group, criterion_main, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

/// One beeper per `BEEP_STRIDE` nodes (see the module docs for why this
/// is 32, not e10's 16).
const BEEP_STRIDE: usize = 32;
const N: usize = 100_000;
/// Fault fraction for the realized plans: 1% of the network.
const FRACTION: f64 = 0.01;

fn instance() -> (Graph, BitVec) {
    let mut rng = StdRng::seed_from_u64(0xE11);
    let graph = topology::random_regular(N, 8, &mut rng).unwrap();
    let beepers = BitVec::from_fn(N, |v| v % BEEP_STRIDE == 0);
    (graph, beepers)
}

/// The swept plans: the fault-free baseline (an empty installed plan),
/// then one realized plan per fault kind. The crash round is 0 so the
/// deafness pass runs in every benched round.
fn plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("nofault", FaultPlan::none()),
        (
            "crash",
            FaultPlan::realize(N, FRACTION, FaultKind::Crash { round: 0 }, 0xE11).unwrap(),
        ),
        (
            "spam",
            FaultPlan::realize(N, FRACTION, FaultKind::ByzantineSpam, 0xE11).unwrap(),
        ),
        (
            "mute",
            FaultPlan::realize(N, FRACTION, FaultKind::ByzantineMute, 0xE11).unwrap(),
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

fn bench_fault_overlay(c: &mut Criterion) {
    let (graph, beepers) = instance();
    let n = graph.node_count();
    let mut group = c.benchmark_group("fault_overlay");
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
        println!("faults {key}: {ns:.0} ns/round ({overhead:.2}x fault-free)");
        metrics.push((format!("{key}_ns"), ns));
        metrics.push((format!("overhead_{key}"), overhead));
    }
    // The three fault kinds benched above the fault-free baseline — the
    // CI bar checks this count so a silently-dropped kind fails loudly.
    metrics.push(("kinds".into(), 3.0));
    // Headline throughput on the fault-free baseline.
    #[allow(clippy::cast_precision_loss)]
    metrics.push(("node_rounds_per_sec".into(), n as f64 * 1e9 / nofault_ns));
    group.finish();
    // The JSON file is CI's perf contract — a failed write must fail the
    // bench, or the perf bar would validate stale cached metrics.
    let path = beep_bench::perfjson::write_bench_json("e11", &metrics)
        .expect("BENCH_e11.json must be written (CI's perf bar reads it)");
    println!("metrics written to {}", path.display());
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fault_overlay
}
criterion_main!(benches);
