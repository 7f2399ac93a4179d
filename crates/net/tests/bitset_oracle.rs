//! Differential oracle: the bit-parallel kernel (`run_round_bitset`,
//! `run_frame`) against the scalar reference `run_round`, bit-exact under
//! the noiseless channel and every noisy channel model, across **every**
//! `topology::*` generator — plus the statistical contract of the
//! geometric-skip noisy channel.
//!
//! The generators run at one-word sizes (n ≤ 20), where every graph
//! takes dense rows and the channel has one shard at any shard count.
//! Multi-word graphs (n = 200–600) reach the rest: the channel over
//! several shards (shard counts {1, 2, 8}), the scatter kernel on sparse
//! graphs from a few beepers to all of them, and dense rows over several
//! words.
//!
//! CI runs this file explicitly (and fails if it vanishes or stops
//! executing tests): it is the proof that the production kernel and the
//! reference implementation are the same model.

use beep_bits::BitVec;
use beep_net::{
    topology, Action, AdaptivePolicy, AdversarialErasure, BeepNetwork, ChannelModel, FaultKind,
    FaultPlan, GilbertElliott, Graph, Noise, PerNodeEps,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Every topology generator in `beep_net::topology`, instantiated at small
/// but structurally interesting sizes.
fn all_topologies() -> Vec<(String, Graph)> {
    let mut rng = StdRng::seed_from_u64(0xBEE9);
    vec![
        ("complete(9)".into(), topology::complete(9).unwrap()),
        (
            "complete_bipartite(4,7)".into(),
            topology::complete_bipartite(4, 7).unwrap(),
        ),
        (
            "complete_bipartite_with_isolated(3,11)".into(),
            topology::complete_bipartite_with_isolated(3, 11).unwrap(),
        ),
        ("path(13)".into(), topology::path(13).unwrap()),
        ("cycle(10)".into(), topology::cycle(10).unwrap()),
        ("star(12)".into(), topology::star(12).unwrap()),
        ("grid(3,5)".into(), topology::grid(3, 5).unwrap()),
        ("binary_tree(14)".into(), topology::binary_tree(14).unwrap()),
        ("hypercube(4)".into(), topology::hypercube(4).unwrap()),
        (
            "gnp(15,0.3)".into(),
            topology::gnp(15, 0.3, &mut rng).unwrap(),
        ),
        (
            "random_geometric(15,0.4)".into(),
            topology::random_geometric(15, 0.4, &mut rng).unwrap().0,
        ),
        (
            "random_regular(14,4)".into(),
            topology::random_regular(14, 4, &mut rng).unwrap(),
        ),
        (
            "random_tree(16)".into(),
            topology::random_tree(16, &mut rng).unwrap(),
        ),
        ("torus(4,5)".into(), topology::torus(4, 5).unwrap()),
        (
            "preferential_attachment(15,2)".into(),
            topology::preferential_attachment(15, 2, &mut rng).unwrap(),
        ),
        // Multi-word graphs, so the channel runs over more than one
        // shard, and each kernel the engine picks runs on several words:
        // the three sparse graphs scatter at every beeper density, and
        // `complete(200)` takes dense rows.
        (
            "random_regular(600,4)".into(),
            topology::random_regular(600, 4, &mut rng).unwrap(),
        ),
        ("torus(20,30)".into(), topology::torus(20, 30).unwrap()),
        ("grid(24,25)".into(), topology::grid(24, 25).unwrap()),
        ("complete(200)".into(), topology::complete(200).unwrap()),
    ]
}

/// Per-round beep probabilities of the noisy, channel, fault and adaptive
/// oracles. After a silent round come sparse beeper sets — ≈ 18 and ≈ 60
/// expected beepers on the 600-node graphs — then dense and full ones, so
/// the scatter runs from a few adjacency lists to every node's. The tail
/// is a silent round right after the full one, then a sparse round: a
/// rushing adversary's spam lingers into the silent round, and that spam
/// must not count as activity that extends its window into the next one.
const DENSITIES: [f64; 7] = [0.0, 0.03, 0.1, 0.5, 1.0, 0.0, 0.1];

/// [`all_topologies`] plus a graph whose node count is past one 64-node
/// word and not a multiple of 64, so the frame driver's 64-node groups
/// include a partial one.
fn frame_topologies() -> Vec<(String, Graph)> {
    let mut graphs = all_topologies();
    let mut rng = StdRng::seed_from_u64(0xF4A3);
    graphs.push((
        "random_regular(150,4)".into(),
        topology::random_regular(150, 4, &mut rng).unwrap(),
    ));
    graphs
}

/// Frame lengths below, at and past the frame driver's 64-round block, and
/// past two blocks.
const FRAME_LENS: [usize; 4] = [24, 64, 65, 130];

/// Each node beeps independently with probability `density`.
fn random_actions(n: usize, density: f64, rng: &mut StdRng) -> Vec<Action> {
    (0..n)
        .map(|_| Action::from_bit(rng.random_bool(density)))
        .collect()
}

fn beeper_bitmap(actions: &[Action]) -> BitVec {
    BitVec::from_fn(actions.len(), |v| actions[v] == Action::Beep)
}

/// What every node hears when `frames` (one `len`-round schedule per
/// node, `None` = listen) is driven through the scalar `run_round` one
/// slot at a time — the reference the frame drivers are checked against.
fn scalar_frame(scalar: &mut BeepNetwork, frames: &[Option<BitVec>], len: usize) -> Vec<BitVec> {
    let n = frames.len();
    let mut heard: Vec<BitVec> = (0..n).map(|_| BitVec::zeros(len)).collect();
    for i in 0..len {
        let actions: Vec<Action> = frames
            .iter()
            .map(|f| Action::from_bit(f.as_ref().is_some_and(|f| f.get(i))))
            .collect();
        for (v, &bit) in scalar.run_round(&actions).unwrap().iter().enumerate() {
            heard[v].set(i, bit);
        }
    }
    heard
}

#[test]
fn bitset_kernel_is_bit_identical_to_scalar_on_every_topology() {
    let mut rng = StdRng::seed_from_u64(7);
    for (name, graph) in all_topologies() {
        let n = graph.node_count();
        let mut scalar = BeepNetwork::new(graph.clone(), Noise::Noiseless, 1);
        let mut bitset = BeepNetwork::new(graph.clone(), Noise::Noiseless, 1);
        scalar.record_transcript();
        bitset.record_transcript();
        for round in 0..12 {
            let density = [0.0, 0.05, 0.3, 1.0][round % 4];
            let actions = random_actions(n, density, &mut rng);
            let beepers = beeper_bitmap(&actions);
            let via_scalar = scalar.run_round(&actions).unwrap();
            let via_bitset = bitset.run_round_bitset(&beepers).unwrap();
            assert_eq!(
                via_scalar,
                via_bitset.iter_bits().collect::<Vec<bool>>(),
                "{name} round {round}"
            );
        }
        // Bookkeeping must agree too: stats, per-node energy, transcript.
        assert_eq!(scalar.stats(), bitset.stats(), "{name} stats");
        assert_eq!(
            scalar.beeps_by_node(),
            bitset.beeps_by_node(),
            "{name} energy"
        );
        assert_eq!(
            scalar.transcript(),
            bitset.transcript(),
            "{name} transcript"
        );
    }
}

#[test]
fn run_frame_matches_round_by_round_scalar_driving() {
    // Noiseless, and under the paper's iid channel at the ε = 0.05 that
    // Algorithm 1 and the TDMA baseline run at: the frame driver they use
    // must reproduce slot-by-slot scalar driving bit for bit.
    let mut rng = StdRng::seed_from_u64(21);
    for (name, graph) in frame_topologies() {
        let n = graph.node_count();
        for len in FRAME_LENS {
            // Half the nodes transmit a random frame, half listen.
            let frames: Vec<Option<BitVec>> = (0..n)
                .map(|v| (v % 2 == 0).then(|| BitVec::random_uniform(len, &mut rng)))
                .collect();
            for noise in [Noise::Noiseless, Noise::bernoulli(0.05)] {
                let mut scalar = BeepNetwork::new(graph.clone(), noise, 2);
                let mut framed = BeepNetwork::new(graph.clone(), noise, 2);
                let expected = scalar_frame(&mut scalar, &frames, len);
                let mut heard = Vec::new();
                framed.run_frame_into(&frames, len, &mut heard).unwrap();
                assert_eq!(heard, expected, "{name} len={len} {noise:?}");
                assert_eq!(
                    scalar.stats(),
                    framed.stats(),
                    "{name} len={len} {noise:?} stats"
                );
            }
        }
    }
}

#[test]
fn sharded_kernel_is_bit_identical_to_scalar_on_every_topology() {
    // scalar ≡ bitset, noiseless, for every topology generator and shard
    // counts on both sides of the words-per-shard boundary.
    let mut rng = StdRng::seed_from_u64(97);
    for (name, graph) in all_topologies() {
        let n = graph.node_count();
        let mut scalar = BeepNetwork::new(graph.clone(), Noise::Noiseless, 1);
        let mut sharded = SHARD_COUNTS.map(|shards| {
            let mut net = BeepNetwork::new(graph.clone(), Noise::Noiseless, 1);
            net.set_shard_count(shards);
            net
        });
        for round in 0..8 {
            let density = [0.0, 0.05, 0.3, 1.0][round % 4];
            let actions = random_actions(n, density, &mut rng);
            let beepers = beeper_bitmap(&actions);
            let expected = scalar.run_round(&actions).unwrap();
            for net in &mut sharded {
                let received = net.run_round_bitset(&beepers).unwrap();
                assert_eq!(
                    expected,
                    received.iter_bits().collect::<Vec<bool>>(),
                    "{name} round {round} shards={}",
                    net.shard_count()
                );
            }
        }
        for net in &sharded {
            assert_eq!(scalar.stats(), net.stats(), "{name} stats");
            assert_eq!(scalar.beeps_by_node(), net.beeps_by_node(), "{name} energy");
        }
    }
}

#[test]
fn batched_noise_phantom_rate_matches_epsilon() {
    // Statistical oracle for the geometric-skip channel through the full
    // engine: with everyone silent, each node's phantom-beep rate must be
    // ≈ ε (the batched analogue of the scalar noise tests in
    // tests/oracle.rs).
    let eps = 0.2;
    let n = 64;
    let rounds = 3_000;
    let g = topology::cycle(n).unwrap();
    let mut net = BeepNetwork::new(g, Noise::bernoulli(eps), 11);
    let silent = BitVec::zeros(n);
    let mut phantom = vec![0usize; n];
    for _ in 0..rounds {
        for v in net.run_round_bitset(&silent).unwrap().iter_ones() {
            phantom[v] += 1;
        }
    }
    let global = phantom.iter().sum::<usize>() as f64 / (n * rounds) as f64;
    assert!((global - eps).abs() < 0.01, "global phantom rate {global}");
    for (v, &count) in phantom.iter().enumerate() {
        let rate = count as f64 / rounds as f64;
        assert!((rate - eps).abs() < 0.05, "node {v}: rate {rate}");
    }
}

#[test]
fn batched_noise_flips_ones_to_zeros_too() {
    // Everyone beeps: received is all-ones pre-noise, so the observed zero
    // rate is the flip rate.
    let eps = 0.3;
    let n = 50;
    let rounds = 2_000;
    let g = topology::complete(n).unwrap();
    let mut net = BeepNetwork::new(g, Noise::bernoulli(eps), 12);
    let everyone = BitVec::ones(n);
    let mut dropped = 0usize;
    for _ in 0..rounds {
        dropped += net.run_round_bitset(&everyone).unwrap().count_zeros();
    }
    let rate = dropped as f64 / (n * rounds) as f64;
    assert!((rate - eps).abs() < 0.01, "drop rate {rate}");
}

#[test]
fn batched_self_hearing_flag_protects_beepers() {
    // With noise-free self-hearing, a beeping node's own 1 never flips on
    // the bitset path either.
    let eps = 0.4;
    let n = 10;
    let g = topology::complete(n).unwrap();
    let mut net = BeepNetwork::new(g, Noise::bernoulli(eps), 13);
    net.set_self_hearing_noisy(false);
    let everyone = BitVec::ones(n);
    for _ in 0..500 {
        let received = net.run_round_bitset(&everyone).unwrap();
        assert_eq!(received.count_ones(), n, "a beeper's own bit flipped");
    }
}

/// Shard counts the channel oracles sweep: {1, 2, 8}, both sides of the
/// words-per-shard boundary at these sizes.
const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

/// The channels the fault and adaptive oracles run under: the paper's iid
/// channel and the bursty Gilbert–Elliott one (a per-round good/bad state
/// drawn from its own reserved stream on top of per-shard flips).
fn fault_oracle_channels() -> Vec<(&'static str, ChannelModel)> {
    vec![
        ("iid", Noise::bernoulli(0.25).into()),
        (
            "ge",
            GilbertElliott::try_new(0.05, 0.3, 0.25, 0.4)
                .unwrap()
                .into(),
        ),
    ]
}

/// One representative of each noisy channel family, at rates strong
/// enough that a stream break cannot hide inside an all-quiet noise pass.
/// The adversary's budget scales with `n` so every topology in the sweep
/// actually loses bits.
fn noisy_channels(n: usize) -> Vec<(&'static str, ChannelModel)> {
    let mut channels = fault_oracle_channels();
    channels.push((
        "pernode",
        PerNodeEps::try_new(vec![0.0, 0.1, 0.3]).unwrap().into(),
    ));
    channels.push((
        "adv",
        AdversarialErasure::try_new(n / 4 + 1, 0.1).unwrap().into(),
    ));
    channels
}

#[test]
fn every_channel_scalar_bitset_agree_bit_for_bit() {
    // Every channel model is counter-keyed per (seed, round, shard), and
    // the scalar kernel applies it through the same shard pass, so
    // scalar ≡ bitset holds *bit-for-bit* — across every topology
    // generator and shards {1, 2, 8}.
    let mut rng = StdRng::seed_from_u64(0xC4A2);
    for (name, graph) in all_topologies() {
        let n = graph.node_count();
        for (key, channel) in noisy_channels(n) {
            for shards in SHARD_COUNTS {
                let mut scalar = BeepNetwork::new(graph.clone(), channel.clone(), 3);
                scalar.set_shard_count(shards);
                let mut bitset = BeepNetwork::new(graph.clone(), channel.clone(), 3);
                bitset.set_shard_count(shards);
                for (round, &density) in DENSITIES.iter().enumerate() {
                    let actions = random_actions(n, density, &mut rng);
                    let beepers = beeper_bitmap(&actions);
                    let expected = scalar.run_round(&actions).unwrap();
                    let received = bitset.run_round_bitset(&beepers).unwrap();
                    assert_eq!(
                        expected,
                        received.iter_bits().collect::<Vec<bool>>(),
                        "{name} {key} round {round} shards={shards}",
                    );
                }
                assert_eq!(
                    scalar.stats(),
                    bitset.stats(),
                    "{name} {key} shards={shards} stats"
                );
            }
        }
    }
}

/// What every node hears when `frames` is driven through
/// `run_round_bitset_into` one slot at a time — the per-round kernel the
/// frame driver must agree with.
fn bitset_frame(net: &mut BeepNetwork, frames: &[Option<BitVec>], len: usize) -> Vec<BitVec> {
    bitset_rounds(net, &round_beepers(frames, len))
}

/// `frames` (one `len`-round schedule per node, `None` = listen) as one
/// beeper bitmap per round.
fn round_beepers(frames: &[Option<BitVec>], len: usize) -> Vec<BitVec> {
    (0..len)
        .map(|i| {
            BitVec::from_fn(frames.len(), |v| {
                frames[v].as_ref().is_some_and(|f| f.get(i))
            })
        })
        .collect()
}

/// What every node hears, one string per node, when each of `rounds`'
/// beeper bitmaps goes through `run_round_bitset_into` in turn.
fn bitset_rounds(net: &mut BeepNetwork, rounds: &[BitVec]) -> Vec<BitVec> {
    let n = net.graph().node_count();
    let mut heard: Vec<BitVec> = (0..n).map(|_| BitVec::zeros(rounds.len())).collect();
    let mut received = BitVec::zeros(n);
    for (i, beepers) in rounds.iter().enumerate() {
        net.run_round_bitset_into(beepers, &mut received).unwrap();
        for v in received.iter_ones() {
            heard[v].set(i, true);
        }
    }
    heard
}

#[test]
fn run_frame_matches_round_by_round_bitset_under_every_channel_and_knob() {
    // run_frame_into ≡ the same frame driven one run_round_bitset_into at
    // a time on an identically configured twin, under every channel (the
    // adversary reads the received bits, so it needs each round's exact
    // pre-channel frame), shards {1, 2, 8}, noisy and noise-free
    // self-hearing, with and without transcripts (the frame driver builds
    // per-round beepers for either). Heard frames, stats, per-node energy
    // and transcripts must agree. Every frame is silent in its last round,
    // so the last active round is not the frame's last; a rushing
    // adversary installed on both twins afterwards spams only within its
    // window after that round, so its next rounds read the
    // `last_activity` the frame left behind.
    let mut rng = StdRng::seed_from_u64(0xF8A5);
    for (name, graph) in frame_topologies() {
        let n = graph.node_count();
        for len in FRAME_LENS {
            let frames: Vec<Option<BitVec>> = (0..n)
                .map(|v| {
                    (v % 3 != 1).then(|| {
                        let mut f = BitVec::random_uniform(len, &mut rng);
                        f.set(len - 1, false);
                        f
                    })
                })
                .collect();
            let mut channels = noisy_channels(n);
            channels.push(("noiseless", Noise::Noiseless.into()));
            for (key, channel) in channels {
                for shards in SHARD_COUNTS {
                    for (self_noisy, recording) in
                        [(true, true), (true, false), (false, true), (false, false)]
                    {
                        let twin = || {
                            let mut net = BeepNetwork::new(graph.clone(), channel.clone(), 41);
                            net.set_shard_count(shards);
                            net.set_self_hearing_noisy(self_noisy);
                            if recording {
                                net.record_transcript();
                            }
                            net
                        };
                        let what = format!(
                            "{name} len={len} {key} shards={shards} self_noisy={self_noisy} \
                             recording={recording}"
                        );
                        let mut stepped = twin();
                        let mut framed = twin();
                        let expected = bitset_frame(&mut stepped, &frames, len);
                        let mut heard = Vec::new();
                        framed.run_frame_into(&frames, len, &mut heard).unwrap();
                        assert_eq!(heard, expected, "{what}");
                        assert_eq!(stepped.stats(), framed.stats(), "{what} stats");
                        assert_eq!(
                            stepped.beeps_by_node(),
                            framed.beeps_by_node(),
                            "{what} energy"
                        );
                        assert_eq!(
                            stepped.transcript(),
                            framed.transcript(),
                            "{what} transcript"
                        );
                        let plan = FaultPlan::from_policy(AdaptivePolicy::RushingSpam {
                            budget: n / 4 + 1,
                            window: 2,
                        });
                        stepped.set_fault_plan(plan.clone()).unwrap();
                        framed.set_fault_plan(plan).unwrap();
                        let silent = BitVec::zeros(n);
                        for round in 0..3 {
                            assert_eq!(
                                stepped.run_round_bitset(&silent).unwrap(),
                                framed.run_round_bitset(&silent).unwrap(),
                                "{what} round {round} after the frame"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn gilbert_elliott_flip_rates_track_the_round_state() {
    // Statistical oracle for the bursty channel through the full engine:
    // with everyone silent, a round's phantom rate must be ≈ ε_good in
    // good rounds and ≈ ε_bad in bad rounds, with the state sequence
    // replayable from (seed, round) alone.
    let (eps_good, eps_bad) = (0.05, 0.35);
    let ge = GilbertElliott::try_new(eps_good, eps_bad, 0.1, 0.5).unwrap();
    let oracle = ge.clone();
    let n = 256;
    let rounds = 2_000u64;
    let seed = 17;
    let mut net = BeepNetwork::new(topology::cycle(n).unwrap(), ge, seed);
    let silent = BitVec::zeros(n);
    let (mut good, mut bad) = ((0usize, 0usize), (0usize, 0usize));
    for round in 0..rounds {
        let ones = net.run_round_bitset(&silent).unwrap().count_ones();
        let bucket = if oracle.in_bad_state(seed, round) {
            &mut bad
        } else {
            &mut good
        };
        bucket.0 += ones;
        bucket.1 += n;
    }
    // π_bad = p_gb / (p_gb + p_bg) = 1/6: both states must actually occur.
    assert!(good.1 > 0 && bad.1 > 0, "one state never occurred");
    let good_rate = good.0 as f64 / good.1 as f64;
    let bad_rate = bad.0 as f64 / bad.1 as f64;
    assert!(
        (good_rate - eps_good).abs() < 0.01,
        "good-state phantom rate {good_rate}"
    );
    assert!(
        (bad_rate - eps_bad).abs() < 0.02,
        "bad-state phantom rate {bad_rate}"
    );
}

#[test]
fn per_node_eps_phantom_rates_follow_the_pattern() {
    // Node v's phantom rate must be ≈ pattern[v mod len]; in particular
    // an ε = 0 node never hears a phantom beep, at any shard count.
    let pattern = vec![0.0, 0.1, 0.3];
    let n = 96;
    let rounds = 3_000;
    for shards in SHARD_COUNTS {
        let ch = PerNodeEps::try_new(pattern.clone()).unwrap();
        let mut net = BeepNetwork::new(topology::cycle(n).unwrap(), ch, 23);
        net.set_shard_count(shards);
        let silent = BitVec::zeros(n);
        let mut phantom = vec![0usize; n];
        for _ in 0..rounds {
            for v in net.run_round_bitset(&silent).unwrap().iter_ones() {
                phantom[v] += 1;
            }
        }
        for (v, &count) in phantom.iter().enumerate() {
            let expected = pattern[v % pattern.len()];
            let rate = count as f64 / f64::from(rounds);
            if expected == 0.0 {
                assert_eq!(count, 0, "clean node {v} heard {count} phantoms");
            } else {
                assert!(
                    (rate - expected).abs() < 0.04,
                    "node {v}: rate {rate}, expected {expected} (shards={shards})"
                );
            }
        }
    }
}

#[test]
fn adversarial_erasure_respects_budget_and_never_fabricates() {
    let n = 40;
    let budget = 5;
    let ch = AdversarialErasure::try_new(budget, 0.1).unwrap();
    let g = topology::complete(n).unwrap();
    for shards in SHARD_COUNTS {
        // Erasure-only: silence is always delivered faithfully.
        let mut net = BeepNetwork::new(g.clone(), ch.clone(), 29);
        net.set_shard_count(shards);
        let silent = BitVec::zeros(n);
        for _ in 0..20 {
            assert_eq!(
                net.run_round_bitset(&silent).unwrap().count_ones(),
                0,
                "the adversary fabricated a beep (shards={shards})"
            );
        }
        // Everyone beeps: pre-channel received is all-ones, so the zero
        // count is exactly the adversary's spend — never above budget.
        // The budget is split across *shards*, and at n = 40 only shard 0
        // owns any words, so shares handed to empty shards go unspent:
        // exact exhaustion holds at shards = 1, a positive spend within
        // budget everywhere else.
        let everyone = BitVec::ones(n);
        for _ in 0..20 {
            let zeros = net.run_round_bitset(&everyone).unwrap().count_zeros();
            assert!(zeros <= budget, "spent {zeros} > budget {budget}");
            assert!(zeros >= 1, "the adversary never spent (shards={shards})");
            if shards == 1 {
                assert_eq!(zeros, budget, "a full frame should exhaust the budget");
            }
        }
        // Noise-free self-hearing protects every beeper, leaving the
        // adversary no legal target at all.
        let mut protected = BeepNetwork::new(g.clone(), ch.clone(), 29);
        protected.set_shard_count(shards);
        protected.set_self_hearing_noisy(false);
        for _ in 0..20 {
            assert_eq!(
                protected.run_round_bitset(&everyone).unwrap().count_ones(),
                n,
                "a protected beeper lost its bit (shards={shards})"
            );
        }
    }
}

/// One realized plan per fault kind, plus a mixed hand-built plan, all
/// touching ≈ a quarter of the nodes. The crash round sits mid-run so
/// each transcript covers both the live and the dead regime.
fn fault_plans(n: usize) -> Vec<(&'static str, FaultPlan)> {
    vec![
        (
            "crash",
            FaultPlan::realize(n, 0.25, FaultKind::Crash { round: 3 }, 0xFA).unwrap(),
        ),
        (
            "spam",
            FaultPlan::realize(n, 0.25, FaultKind::ByzantineSpam, 0xFB).unwrap(),
        ),
        (
            "mute",
            FaultPlan::realize(n, 0.25, FaultKind::ByzantineMute, 0xFC).unwrap(),
        ),
        (
            "mixed",
            FaultPlan::try_from_assignments(vec![
                (0, FaultKind::Crash { round: 0 }),
                (n / 2, FaultKind::ByzantineSpam),
                (n - 1, FaultKind::ByzantineMute),
            ])
            .unwrap(),
        ),
    ]
}

/// Every adaptive policy the oracles sweep: each pure-policy variant at a
/// budget that bites at these sizes, plus static + adaptive compositions
/// that pin the overlay order (static overrides first, then the adaptive
/// decision) in every kernel.
fn adaptive_plans(n: usize) -> Vec<(String, FaultPlan)> {
    let mut plans: Vec<(String, FaultPlan)> = [
        AdaptivePolicy::TargetLoudest { budget: n / 4 + 1 },
        AdaptivePolicy::RushingSpam {
            budget: n / 8 + 1,
            window: 2,
        },
    ]
    .into_iter()
    .map(|p| (p.label(), FaultPlan::from_policy(p)))
    .collect();
    plans.push((
        "crash+loudest".into(),
        FaultPlan::realize(n, 0.25, FaultKind::Crash { round: 3 }, 0xAE)
            .unwrap()
            .with_policy(AdaptivePolicy::TargetLoudest { budget: 3 }),
    ));
    plans.push((
        "mute+rushing".into(),
        FaultPlan::realize(n, 0.25, FaultKind::ByzantineMute, 0xAF)
            .unwrap()
            .with_policy(AdaptivePolicy::RushingSpam {
                budget: 2,
                window: 1,
            }),
    ));
    plans
}

#[test]
fn adaptive_scalar_bitset_agree_bit_for_bit() {
    // The adaptive decision is computed once per round from observables
    // every kernel shares (post-static submitted beepers, cumulative
    // per-node energy, last activity round) and applied through the same
    // two override passes as static faults — so scalar ≡ bitset must stay
    // bit-for-bit under every AdaptivePolicy, across every topology
    // generator and shards {1, 2, 8}, under the iid and the bursty
    // channel.
    let mut rng = StdRng::seed_from_u64(0xADA7);
    for (name, graph) in all_topologies() {
        let n = graph.node_count();
        for (ch, channel) in fault_oracle_channels() {
            for (key, plan) in adaptive_plans(n) {
                for shards in SHARD_COUNTS {
                    let mut scalar = BeepNetwork::new(graph.clone(), channel.clone(), 23);
                    scalar.set_shard_count(shards);
                    scalar.set_fault_plan(plan.clone()).unwrap();
                    let mut bitset = BeepNetwork::new(graph.clone(), channel.clone(), 23);
                    bitset.set_shard_count(shards);
                    bitset.set_fault_plan(plan.clone()).unwrap();
                    for (round, &density) in DENSITIES.iter().enumerate() {
                        let actions = random_actions(n, density, &mut rng);
                        let beepers = beeper_bitmap(&actions);
                        let expected = scalar.run_round(&actions).unwrap();
                        let received = bitset.run_round_bitset(&beepers).unwrap();
                        assert_eq!(
                            expected,
                            received.iter_bits().collect::<Vec<bool>>(),
                            "{name} {ch} {key} round {round} shards={shards}",
                        );
                    }
                    assert_eq!(
                        scalar.stats(),
                        bitset.stats(),
                        "{name} {ch} {key} shards={shards} stats"
                    );
                    assert_eq!(
                        scalar.beeps_by_node(),
                        bitset.beeps_by_node(),
                        "{name} {ch} {key} shards={shards} energy"
                    );
                }
            }
        }
    }
}

#[test]
fn adaptive_frames_match_round_by_round_driving() {
    // run_frame under an adaptive plan ≡ driving the same frame one
    // run_round at a time: the frame driver must recompute the per-round
    // decision every slot (the adversary watches slots, not frames).
    let mut rng = StdRng::seed_from_u64(0xADA8);
    for (name, graph) in frame_topologies() {
        let n = graph.node_count();
        let plan = FaultPlan::realize(n, 0.2, FaultKind::Crash { round: 4 }, 0xB0)
            .unwrap()
            .with_policy(AdaptivePolicy::RushingSpam {
                budget: n / 8 + 1,
                window: 2,
            });
        for len in FRAME_LENS {
            let frames: Vec<Option<BitVec>> = (0..n)
                .map(|v| (v % 2 == 0).then(|| BitVec::random_uniform(len, &mut rng)))
                .collect();
            for (ch, channel) in fault_oracle_channels() {
                let mut scalar = BeepNetwork::new(graph.clone(), channel.clone(), 37);
                scalar.set_fault_plan(plan.clone()).unwrap();
                let mut framed = BeepNetwork::new(graph.clone(), channel, 37);
                framed.set_fault_plan(plan.clone()).unwrap();
                let expected = scalar_frame(&mut scalar, &frames, len);
                let heard = framed.run_frame(&frames).unwrap();
                assert_eq!(heard, expected, "{name} len={len} {ch}");
                assert_eq!(
                    scalar.stats(),
                    framed.stats(),
                    "{name} len={len} {ch} stats"
                );
            }
        }
    }
}

#[test]
fn faulted_scalar_bitset_agree_bit_for_bit() {
    // The fault overlay edits the beeper set before the channel and
    // silences crashed listeners after it — both shard-independent, so
    // scalar ≡ bitset must stay bit-for-bit under every FaultKind, across
    // every topology generator and shards {1, 2, 8}, under the iid and
    // the bursty channel.
    let mut rng = StdRng::seed_from_u64(0xFA17);
    for (name, graph) in all_topologies() {
        let n = graph.node_count();
        for (ch, channel) in fault_oracle_channels() {
            for (key, plan) in fault_plans(n) {
                for shards in SHARD_COUNTS {
                    let mut scalar = BeepNetwork::new(graph.clone(), channel.clone(), 19);
                    scalar.set_shard_count(shards);
                    scalar.set_fault_plan(plan.clone()).unwrap();
                    let mut bitset = BeepNetwork::new(graph.clone(), channel.clone(), 19);
                    bitset.set_shard_count(shards);
                    bitset.set_fault_plan(plan.clone()).unwrap();
                    for (round, &density) in DENSITIES.iter().enumerate() {
                        let actions = random_actions(n, density, &mut rng);
                        let beepers = beeper_bitmap(&actions);
                        let expected = scalar.run_round(&actions).unwrap();
                        let received = bitset.run_round_bitset(&beepers).unwrap();
                        assert_eq!(
                            expected,
                            received.iter_bits().collect::<Vec<bool>>(),
                            "{name} {ch} {key} round {round} shards={shards}",
                        );
                    }
                    assert_eq!(
                        scalar.stats(),
                        bitset.stats(),
                        "{name} {ch} {key} shards={shards} stats"
                    );
                    assert_eq!(
                        scalar.beeps_by_node(),
                        bitset.beeps_by_node(),
                        "{name} {ch} {key} shards={shards} energy"
                    );
                }
            }
        }
    }
}

#[test]
fn faulted_frames_match_round_by_round_driving() {
    // run_frame under a fault plan ≡ driving the same frame one
    // run_round at a time: the frame driver must apply the overlay every
    // slot (a crash round can split a frame).
    let mut rng = StdRng::seed_from_u64(0xFA18);
    for (name, graph) in all_topologies() {
        let n = graph.node_count();
        let len = 8;
        let plan = FaultPlan::realize(n, 0.3, FaultKind::Crash { round: 4 }, 0xFD).unwrap();
        let frames: Vec<Option<BitVec>> = (0..n)
            .map(|v| (v % 2 == 0).then(|| BitVec::random_uniform(len, &mut rng)))
            .collect();
        for (ch, channel) in fault_oracle_channels() {
            let mut scalar = BeepNetwork::new(graph.clone(), channel.clone(), 31);
            scalar.set_fault_plan(plan.clone()).unwrap();
            let mut framed = BeepNetwork::new(graph.clone(), channel, 31);
            framed.set_fault_plan(plan.clone()).unwrap();
            let expected = scalar_frame(&mut scalar, &frames, len);
            let heard = framed.run_frame(&frames).unwrap();
            assert_eq!(heard, expected, "{name} {ch}");
            assert_eq!(scalar.stats(), framed.stats(), "{name} {ch} stats");
        }
    }
}

#[test]
fn noisy_bitset_runs_are_deterministic_in_the_seed() {
    let run = |seed: u64| {
        let g = topology::random_regular(30, 4, &mut StdRng::seed_from_u64(1)).unwrap();
        let mut net = BeepNetwork::new(g, Noise::bernoulli(0.25), seed);
        let beepers = BitVec::from_indices(30, [0, 7, 19]);
        (0..40)
            .map(|_| net.run_round_bitset(&beepers).unwrap())
            .collect::<Vec<_>>()
    };
    assert_eq!(run(5), run(5));
    assert_ne!(run(5), run(6), "different seeds should differ somewhere");
}

/// How many plans [`static_frame_plans`] lists.
const STATIC_PLANS: usize = 6;

/// The static plans the frame oracle sweeps over three back-to-back
/// frames of `len` rounds: crashes at round 0 (before every frame), inside
/// the second frame (so the first frame runs before the crash and the
/// third after it) and after the third frame (in the silent rounds that
/// follow), then spam, mute, and a mixed plan with a crash at round 0, a
/// crash at the third frame's first round, a spammer and a mute node.
fn static_frame_plans(n: usize, len: usize) -> [(String, FaultPlan); STATIC_PLANS] {
    let len = len as u64;
    let crash = |round: u64, seed: u64| {
        (
            format!("crash@{round}"),
            FaultPlan::realize(n, 0.25, FaultKind::Crash { round }, seed).unwrap(),
        )
    };
    [
        crash(0, 0xE0),
        crash(len + len / 2, 0xE1),
        crash(3 * len + 1, 0xE2),
        (
            "spam".into(),
            FaultPlan::realize(n, 0.125, FaultKind::ByzantineSpam, 0xE3).unwrap(),
        ),
        (
            "mute".into(),
            FaultPlan::realize(n, 0.25, FaultKind::ByzantineMute, 0xE4).unwrap(),
        ),
        (
            "mixed".into(),
            FaultPlan::try_from_assignments(vec![
                (0, FaultKind::Crash { round: 2 * len }),
                (n / 3, FaultKind::ByzantineMute),
                (n / 2, FaultKind::ByzantineSpam),
                (n - 1, FaultKind::Crash { round: 0 }),
            ])
            .unwrap(),
        ),
    ]
}

/// How many plans [`adaptive_frame_plans`] lists.
const ADAPTIVE_PLANS: usize = 7;

/// The adaptive plans the frame oracle sweeps, whose frames go through the
/// overlay pass: `TargetLoudest` at a budget of 1, below, near and above a
/// quarter of the nodes and past the node count (where every node that
/// has beeped is a target), `RushingSpam`, a crash inside the second frame
/// under `TargetLoudest`, and mute nodes under `RushingSpam`.
fn adaptive_frame_plans(n: usize, len: usize) -> [(String, FaultPlan); ADAPTIVE_PLANS] {
    let crash = FaultKind::Crash {
        round: (len + len / 2) as u64,
    };
    let loudest = |budget| {
        let policy = AdaptivePolicy::TargetLoudest { budget };
        (policy.label(), FaultPlan::from_policy(policy))
    };
    let rushing = AdaptivePolicy::RushingSpam {
        budget: n / 8 + 1,
        window: 2,
    };
    [
        loudest(1),
        loudest(n / 8),
        loudest(n / 4 + 1),
        loudest(n + 2),
        (rushing.label(), FaultPlan::from_policy(rushing)),
        (
            "crash+loudest".into(),
            FaultPlan::realize(n, 0.25, crash, 0xE5)
                .unwrap()
                .with_policy(AdaptivePolicy::TargetLoudest { budget: n / 8 + 1 }),
        ),
        (
            "mute+rushing".into(),
            FaultPlan::realize(n, 0.25, FaultKind::ByzantineMute, 0xE6)
                .unwrap()
                .with_policy(AdaptivePolicy::RushingSpam {
                    budget: 2,
                    window: 1,
                }),
        ),
    ]
}

#[test]
fn static_plan_frames_match_round_by_round_driving() {
    // Under a static plan run_frame_into takes the whole-frame path unless
    // a crash round falls strictly inside the frame: spammers' frames are
    // forced to all ones, silent nodes' frames dropped, and deaf nodes'
    // heard frames cleared after the channel. Each plan of
    // `static_frame_plans` runs its sweep on its own thread.
    std::thread::scope(|scope| {
        for k in 0..STATIC_PLANS {
            scope.spawn(move || {
                frame_plan_sweep(0x57A7 + k as u64, |n, len| {
                    static_frame_plans(n, len)[k].clone()
                });
            });
        }
    });
}

#[test]
fn adaptive_plan_frames_match_round_by_round_driving() {
    // Under an adaptive plan, or across a crash round, run_frame_into
    // fixes every round's effective beepers and deaf set in one overlay
    // pass (`TargetLoudest` from a ranking kept across the frame), then
    // ORs the frame once and runs the channel per round. Each plan of
    // `adaptive_frame_plans` runs its sweep on its own thread.
    std::thread::scope(|scope| {
        for k in 0..ADAPTIVE_PLANS {
            scope.spawn(move || {
                frame_plan_sweep(0xADA9 + k as u64, |n, len| {
                    adaptive_frame_plans(n, len)[k].clone()
                });
            });
        }
    });
}

/// The sweep of the plan `plan(n, len)` names for each frame topology and
/// frame length, on frames drawn from `seed`: three frames back to back
/// must match the same frames driven one run_round_bitset_into at a time
/// on a twin, under every channel, shards {1, 2, 8}, noisy and noise-free
/// self-hearing, with and without transcripts — heard frames, stats,
/// per-node energy and transcripts. A transcript does not change what is
/// heard, so one recording twin per self-hearing setting serves both
/// transcript settings. Every frame is silent in its last round; a
/// rushing adversary installed on both networks afterwards reads the
/// `last_activity` the frames left behind, and a late crash lands in
/// those rounds.
fn frame_plan_sweep(seed: u64, plan: impl Fn(usize, usize) -> (String, FaultPlan)) {
    let mut rng = StdRng::seed_from_u64(seed);
    for (name, graph) in frame_topologies() {
        let n = graph.node_count();
        for len in FRAME_LENS {
            let (plan_name, plan) = plan(n, len);
            let rushing = plan.clone().with_policy(AdaptivePolicy::RushingSpam {
                budget: n / 4 + 1,
                window: 2,
            });
            let batch: Vec<Vec<Option<BitVec>>> = (0..3)
                .map(|_| {
                    (0..n)
                        .map(|v| {
                            (v % 3 != 1).then(|| {
                                let mut f = BitVec::random_uniform(len, &mut rng);
                                f.set(len - 1, false);
                                f
                            })
                        })
                        .collect()
                })
                .collect();
            let rounds: Vec<Vec<BitVec>> = batch.iter().map(|f| round_beepers(f, len)).collect();
            let silent = BitVec::zeros(n);
            let mut channels = noisy_channels(n);
            channels.push(("noiseless", Noise::Noiseless.into()));
            for (key, channel) in channels {
                for shards in SHARD_COUNTS {
                    for self_noisy in [true, false] {
                        let twin = |recording: bool| {
                            let mut net = BeepNetwork::new(graph.clone(), channel.clone(), 43);
                            net.set_shard_count(shards);
                            net.set_self_hearing_noisy(self_noisy);
                            if recording {
                                net.record_transcript();
                            }
                            net.set_fault_plan(plan.clone()).unwrap();
                            net
                        };
                        let mut stepped = twin(true);
                        let expected: Vec<Vec<BitVec>> = rounds
                            .iter()
                            .map(|r| bitset_rounds(&mut stepped, r))
                            .collect();
                        let stats = stepped.stats();
                        let energy = stepped.beeps_by_node().to_vec();
                        let transcript = stepped.transcript().cloned();
                        stepped.set_fault_plan(rushing.clone()).unwrap();
                        let after: Vec<BitVec> = (0..3)
                            .map(|_| stepped.run_round_bitset(&silent).unwrap())
                            .collect();
                        for recording in [true, false] {
                            let what = format!(
                                "{name} len={len} {key} {plan_name} shards={shards} \
                                 self_noisy={self_noisy} recording={recording}"
                            );
                            let mut framed = twin(recording);
                            let mut heard = Vec::new();
                            for (i, frames) in batch.iter().enumerate() {
                                framed.run_frame_into(frames, len, &mut heard).unwrap();
                                assert_eq!(heard, expected[i], "{what} frame {i}");
                            }
                            assert_eq!(framed.stats(), stats, "{what} stats");
                            assert_eq!(framed.beeps_by_node(), energy, "{what} energy");
                            if recording {
                                assert_eq!(
                                    framed.transcript(),
                                    transcript.as_ref(),
                                    "{what} transcript"
                                );
                            }
                            framed.set_fault_plan(rushing.clone()).unwrap();
                            for (round, expected) in after.iter().enumerate() {
                                assert_eq!(
                                    &framed.run_round_bitset(&silent).unwrap(),
                                    expected,
                                    "{what} round {round} after the frames"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
