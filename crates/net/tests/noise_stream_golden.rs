//! Golden pins for the noisy RNG stream of the sharded bitset kernel.
//!
//! A noisy bitset transcript is a pure function of
//! `(graph, noise, seed, actions, shard_count)` — that tuple is the
//! reproducibility key every recorded experiment in the workspace relies
//! on. These tests pin actual transcript bits per `(seed, ε, shard_count)`
//! cell, so an accidental change to `noise_stream_seed`, to the geometric
//! gap sampler, or to the shard layout fails loudly here instead of
//! silently shifting every noisy result in the repository.
//!
//! If you change the stream *deliberately*, regenerate the constants below
//! (run with `--nocapture`; each test prints its computed values) and
//! document the break in CHANGES.md.
//!
//! Platform caveat: the geometric gap sampler computes `f64::ln`, which is
//! not guaranteed bit-identical across libm implementations. The pinned
//! transcripts are exact on the CI toolchain (glibc Linux); if a test
//! fails on another platform with a *one-flip* divergence while
//! `noise_stream_seed_is_pinned` still passes, suspect a last-ULP `ln`
//! difference crossing an integer boundary, not a stream break.

use beep_bits::BitVec;
use beep_net::{
    noise_stream_seed, protocol_coin, topology, AdaptivePolicy, AdversarialErasure, BeepNetwork,
    ChannelModel, FaultKind, FaultPlan, GilbertElliott, Graph, Noise, PerNodeEps,
    PROTOCOL_COIN_STREAM,
};

/// FNV-1a over the words of a sequence of received frames — a stable,
/// dependency-free transcript fingerprint.
fn transcript_fingerprint(frames: &[BitVec]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for frame in frames {
        for &word in frame.as_words() {
            for byte in word.to_le_bytes() {
                hash ^= u64::from(byte);
                hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    hash
}

/// Runs `rounds` noisy bitset rounds on a cycle of `n` nodes with a fixed
/// sparse beeper set and the given stream key.
fn noisy_transcript(n: usize, seed: u64, eps: f64, shards: usize, rounds: usize) -> Vec<BitVec> {
    let mut net = BeepNetwork::new(topology::cycle(n).unwrap(), Noise::bernoulli(eps), seed);
    net.set_shard_count(shards);
    let beepers = BitVec::from_fn(n, |v| v % 37 == 0);
    (0..rounds)
        .map(|_| net.run_round_bitset(&beepers).unwrap())
        .collect()
}

#[test]
fn noise_stream_seed_is_pinned() {
    let computed: Vec<u64> = [
        (0u64, 0u64, 0u64),
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (7, 3, 1),
        (7, 1, 3),
        (0xDEAD_BEEF, 41, 6),
    ]
    .iter()
    .map(|&(seed, round, shard)| noise_stream_seed(seed, round, shard))
    .collect();
    println!("noise_stream_seed pins: {computed:#018X?}");
    assert_eq!(
        computed,
        vec![
            0x0000_0000_0000_0000,
            0x0000_0000_0000_0001,
            0x9E37_79B9_7F4A_7C15,
            0x9FB2_1C65_1E98_DF25,
            0x4514_7149_6347_AB1D,
            0x4121_2C96_2480_E17D,
            0xE8CE_D4EB_0BD5_5B6C,
        ]
    );
}

#[test]
fn golden_noisy_transcripts_per_seed_eps_shards() {
    let mut computed = Vec::new();
    for &(seed, eps, shards) in &[
        (1u64, 0.1f64, 1usize),
        (1, 0.1, 2),
        (1, 0.1, 8),
        (1, 0.3, 8),
        (9, 0.1, 8),
        (9, 0.3, 2),
    ] {
        let frames = noisy_transcript(512, seed, eps, shards, 8);
        computed.push(transcript_fingerprint(&frames));
    }
    println!("golden fingerprints: {computed:#018X?}");
    assert_eq!(
        computed,
        vec![
            0x921A_3CE2_256B_220F,
            0x82B3_1D36_3CB4_E383,
            0xF20B_61B1_63CB_81F1,
            0x9680_2B6D_B193_2DD8,
            0xDE08_FFD2_7515_D85D,
            0x1535_F8E0_530E_2E9C,
        ]
    );
}

#[test]
fn golden_small_transcript_is_bit_pinned() {
    // One cell pinned bit-for-bit (not just fingerprinted), so a stream
    // break shows the actual divergence in the failure message.
    let frames = noisy_transcript(64, 3, 0.2, 1, 3);
    let rendered: Vec<String> = frames.iter().map(BitVec::to_string).collect();
    for f in &rendered {
        println!("\"{f}\",");
    }
    assert_eq!(
        rendered,
        vec![
            "0100010000000001000000001000011100000110110001101001100011000001",
            "1100000000000000001000100000000000110101110011000110000001100001",
            "1000000101000000101001001001000000011111000010000000001100110101",
        ]
    );
}

/// Like [`noisy_transcript`], but for an arbitrary channel model.
fn channel_transcript(
    channel: ChannelModel,
    seed: u64,
    shards: usize,
    rounds: usize,
) -> Vec<BitVec> {
    let n = 512;
    let mut net = BeepNetwork::new(topology::cycle(n).unwrap(), channel, seed);
    net.set_shard_count(shards);
    let beepers = BitVec::from_fn(n, |v| v % 37 == 0);
    (0..rounds)
        .map(|_| net.run_round_bitset(&beepers).unwrap())
        .collect()
}

/// The golden channel suite: one parameterization per non-iid family,
/// shared by the fingerprint and thread-invariance pins below.
fn golden_channels() -> Vec<(&'static str, ChannelModel)> {
    vec![
        (
            "ge",
            GilbertElliott::try_new(0.05, 0.3, 0.3, 0.5).unwrap().into(),
        ),
        (
            "pernode",
            PerNodeEps::try_new(vec![0.0, 0.1, 0.3]).unwrap().into(),
        ),
        ("adv", AdversarialErasure::try_new(7, 0.1).unwrap().into()),
    ]
}

#[test]
fn golden_channel_transcripts_per_model_seed_shards() {
    // Each non-iid channel family draws from the same counter-keyed
    // streams as the iid channel (plus, for Gilbert–Elliott, the reserved
    // ROUND_STATE_STREAM shard), so each gets its own transcript pin: a
    // change to any model's sampling order or shard split fails here.
    let mut computed = Vec::new();
    for (key, channel) in golden_channels() {
        for &(seed, shards) in &[(1u64, 1usize), (1, 8)] {
            let frames = channel_transcript(channel.clone(), seed, shards, 8);
            let fp = transcript_fingerprint(&frames);
            println!("{key} seed={seed} shards={shards}: {fp:#018X}");
            computed.push(fp);
        }
    }
    assert_eq!(
        computed,
        vec![
            0xE03B_C123_9E1C_B0C7,
            0xE83D_B18B_2912_0A2C,
            0x8578_A5BC_660B_4821,
            0x0507_455B_0DD4_102F,
            0x80DA_AA7C_9E51_E6C5,
            0xC5DD_03C3_D240_0515,
        ]
    );
}

#[test]
fn golden_gilbert_elliott_state_sequence_is_pinned() {
    // The per-round Markov draw comes from the reserved ROUND_STATE_STREAM
    // shard of the same counter-keyed generator. Pinning the state bits
    // directly separates "the chain moved" from "the flips moved" when a
    // Gilbert–Elliott transcript pin breaks.
    let ge = GilbertElliott::try_new(0.05, 0.3, 0.3, 0.5).unwrap();
    let states: String = (0..32)
        .map(|round| if ge.in_bad_state(1, round) { 'B' } else { 'g' })
        .collect();
    println!("ge state sequence (seed 1): {states}");
    assert_eq!(states, "gggBBgBBgBBgggggggBggBBBBBBBggBB");
}

#[test]
fn golden_channel_transcripts_survive_any_thread_count() {
    // Every model's pinned stream is thread-count-invariant: the parallel
    // path must reproduce the single-thread fingerprint exactly.
    for (key, channel) in golden_channels() {
        let reference = transcript_fingerprint(&channel_transcript(channel.clone(), 1, 8, 8));
        for threads in [2, 4, 8] {
            let mut net = BeepNetwork::new(topology::cycle(512).unwrap(), channel.clone(), 1);
            net.set_shard_count(8);
            net.set_parallelism(threads);
            let beepers = BitVec::from_fn(512, |v| v % 37 == 0);
            let frames: Vec<BitVec> = (0..8)
                .map(|_| net.run_round_bitset(&beepers).unwrap())
                .collect();
            assert_eq!(
                transcript_fingerprint(&frames),
                reference,
                "{key} threads={threads}"
            );
        }
    }
}

#[test]
fn golden_fault_plan_realization_is_pinned() {
    // Plan realization draws from the reserved FAULT_PLAN_STREAM shard of
    // the same counter-keyed generator the channels use, so the sampled
    // node set is part of the reproducibility contract: pin it per
    // (n, fraction, kind, seed). A change to the sampler (or to the
    // reserved stream id) moves every faulted cell in every campaign.
    let mut computed = Vec::new();
    for &(n, fraction, kind, seed) in &[
        (16usize, 0.25f64, FaultKind::Crash { round: 5 }, 1u64),
        (16, 0.25, FaultKind::Crash { round: 5 }, 9),
        (16, 0.5, FaultKind::ByzantineSpam, 1),
        (512, 0.02, FaultKind::ByzantineMute, 7),
    ] {
        let plan = FaultPlan::realize(n, fraction, kind, seed).unwrap();
        let nodes: Vec<usize> = plan.assignments().iter().map(|&(v, _)| v).collect();
        println!("realize({n}, {fraction}, {kind:?}, {seed}) -> {nodes:?}");
        computed.push(nodes);
    }
    assert_eq!(
        computed,
        vec![
            vec![1usize, 4, 10, 15],
            vec![2, 5, 7, 12],
            vec![1, 2, 4, 5, 7, 10, 11, 15],
            vec![3, 20, 97, 180, 205, 246, 315, 367, 428, 492],
        ]
    );
}

/// Like [`noisy_transcript`], but under a fault plan realized from the
/// run seed (kind per call; fraction fixed at 1/8 of the nodes).
fn faulted_transcript(
    kind: FaultKind,
    seed: u64,
    shards: usize,
    rounds: usize,
    threads: usize,
) -> Vec<BitVec> {
    let n = 512;
    let plan = FaultPlan::realize(n, 0.125, kind, seed).unwrap();
    let mut net = BeepNetwork::new(topology::cycle(n).unwrap(), Noise::bernoulli(0.1), seed);
    net.set_shard_count(shards);
    net.set_parallelism(threads);
    net.set_fault_plan(plan).unwrap();
    let beepers = BitVec::from_fn(n, |v| v % 37 == 0);
    (0..rounds)
        .map(|_| net.run_round_bitset(&beepers).unwrap())
        .collect()
}

/// The golden fault suite: one entry per fault kind (the crash round sits
/// mid-transcript so the pin covers both regimes).
const GOLDEN_FAULTS: [(&str, FaultKind); 3] = [
    ("crash", FaultKind::Crash { round: 4 }),
    ("spam", FaultKind::ByzantineSpam),
    ("mute", FaultKind::ByzantineMute),
];

#[test]
fn golden_faulted_transcripts_per_kind_seed_shards() {
    // The fault overlay composes with the pinned noise stream without
    // disturbing it: each (kind, seed, shards) cell gets its own
    // fingerprint. A change to the overlay order (overlay before channel,
    // deafness after) or to plan realization fails here.
    let mut computed = Vec::new();
    for (key, kind) in GOLDEN_FAULTS {
        for &(seed, shards) in &[(1u64, 1usize), (1, 8), (9, 8)] {
            let fp = transcript_fingerprint(&faulted_transcript(kind, seed, shards, 8, 1));
            println!("{key} seed={seed} shards={shards}: {fp:#018X}");
            computed.push(fp);
        }
    }
    assert_eq!(
        computed,
        vec![
            0xCF55_2C3C_07E1_FB3A,
            0x8416_1AB7_9380_08BD,
            0x515D_5352_2EA9_F00F,
            0x7CA9_E1FB_E073_EAE3,
            0xED5C_E8D3_A2BE_C59D,
            0x8917_89B8_A392_014D,
            0xB2E4_DADD_15CC_9C23,
            0x8A8D_67C1_414E_81BD,
            0xF31A_4373_6281_2981,
        ]
    );
}

#[test]
fn golden_faulted_transcripts_survive_any_thread_count() {
    // Faulted pins are thread-count-invariant too: the parallel path must
    // reproduce the single-thread fingerprint for every fault kind.
    for (key, kind) in GOLDEN_FAULTS {
        let reference = transcript_fingerprint(&faulted_transcript(kind, 1, 8, 8, 1));
        for threads in [2, 4, 8] {
            assert_eq!(
                transcript_fingerprint(&faulted_transcript(kind, 1, 8, 8, threads)),
                reference,
                "{key} threads={threads}"
            );
        }
    }
}

/// Like [`faulted_transcript`], but under an arbitrary (possibly adaptive)
/// plan built by the caller.
fn adaptive_transcript(plan: FaultPlan, seed: u64, shards: usize, threads: usize) -> Vec<BitVec> {
    let n = 512;
    let mut net = BeepNetwork::new(topology::cycle(n).unwrap(), Noise::bernoulli(0.1), seed);
    net.set_shard_count(shards);
    net.set_parallelism(threads);
    net.set_fault_plan(plan).unwrap();
    let beepers = BitVec::from_fn(n, |v| v % 37 == 0);
    (0..8)
        .map(|_| net.run_round_bitset(&beepers).unwrap())
        .collect()
}

/// The golden adaptive suite: one actionable parameterization per policy,
/// plus a static + adaptive composition pinning the overlay order.
fn golden_policies() -> Vec<(&'static str, FaultPlan)> {
    vec![
        (
            "loudest",
            FaultPlan::from_policy(AdaptivePolicy::TargetLoudest { budget: 16 }),
        ),
        (
            "rushing",
            FaultPlan::from_policy(AdaptivePolicy::RushingSpam {
                budget: 16,
                window: 2,
            }),
        ),
        (
            "mute+rushing",
            FaultPlan::realize(512, 0.125, FaultKind::ByzantineMute, 1)
                .unwrap()
                .with_policy(AdaptivePolicy::RushingSpam {
                    budget: 8,
                    window: 1,
                }),
        ),
    ]
}

#[test]
fn golden_adaptive_transcripts_per_policy_seed_shards() {
    // The adaptive decision composes with the pinned noise stream without
    // disturbing it: each (policy, seed, shards) cell gets its own
    // fingerprint. A change to the decision inputs (post-static beepers,
    // cumulative energy, last activity), to the RushingSpam draw, or to
    // the reserved ADAPTIVE_POLICY_STREAM id fails here.
    let mut computed = Vec::new();
    for (key, plan) in golden_policies() {
        for &(seed, shards) in &[(1u64, 1usize), (1, 8), (9, 8)] {
            let fp = transcript_fingerprint(&adaptive_transcript(plan.clone(), seed, shards, 1));
            println!("{key} seed={seed} shards={shards}: {fp:#018X}");
            computed.push(fp);
        }
    }
    assert_eq!(
        computed,
        vec![
            0x0289_2B4C_3A86_C3B5,
            0xE659_0AE6_E582_CB27,
            0x4A68_4CEB_30AE_698A,
            0x178B_8F12_DAF8_F319,
            0x183C_D741_910D_3517,
            0x2902_07C4_1E8C_6956,
            0x37A7_0688_A2DC_8B10,
            0xF1DD_2931_51A4_D35A,
            0x499F_4A5D_C554_000C,
        ]
    );
}

#[test]
fn golden_adaptive_transcripts_survive_any_thread_count() {
    // Adaptive pins are thread-count-invariant too: the decision is made
    // once per round before the shard fan-out, so the parallel path must
    // reproduce the single-thread fingerprint for every policy.
    for (key, plan) in golden_policies() {
        let reference = transcript_fingerprint(&adaptive_transcript(plan.clone(), 1, 8, 1));
        for threads in [2, 4, 8] {
            assert_eq!(
                transcript_fingerprint(&adaptive_transcript(plan.clone(), 1, 8, threads)),
                reference,
                "{key} threads={threads}"
            );
        }
    }
}

#[test]
fn zero_budget_policies_leave_the_golden_stream_untouched() {
    // A zero-budget policy is a provable no-op: the plan stays empty, the
    // engine takes the fault-free fast path, and the fault-free golden
    // fingerprint must come out byte-identical.
    for policy in [
        AdaptivePolicy::TargetLoudest { budget: 0 },
        AdaptivePolicy::RushingSpam {
            budget: 0,
            window: 3,
        },
    ] {
        let frames = adaptive_transcript(FaultPlan::from_policy(policy), 1, 8, 1);
        assert_eq!(
            transcript_fingerprint(&frames),
            0xF20B_61B1_63CB_81F1,
            "{policy:?}"
        );
    }
}

#[test]
fn golden_protocol_coin_stream_values() {
    // Protocol coins draw from the reserved PROTOCOL_COIN_STREAM shard of
    // the same counter-keyed generator: pin the keyed seeds and the coin
    // bits themselves so a change to the stream id, the per-node mixing
    // constant, or the draw moves loudly. Recorded `beep_ben_or` runs
    // depend on exactly these bits.
    let keys: Vec<u64> = (0..3)
        .map(|phase| noise_stream_seed(1, phase, PROTOCOL_COIN_STREAM))
        .collect();
    println!("coin stream keys (seed 1): {keys:#018X?}");
    assert_eq!(
        computed_coin_grid(1),
        "1010100000001000_0001000000000111_1110111101000001",
        "coin grid (seed 1)"
    );
    assert_eq!(
        keys,
        vec![
            0x8137_8E6B_859C_836D,
            0x1F00_F7D2_FAD6_FF78,
            0xBD59_7D19_7B08_7B47,
        ]
    );
    // Coins are seed-sensitive and not constant per phase.
    assert_ne!(computed_coin_grid(1), computed_coin_grid(2));
}

/// Phases 0..3 × nodes 0..16 of the coin stream, one `_`-separated bit row
/// per phase (printed so a deliberate break can regenerate the pin).
fn computed_coin_grid(seed: u64) -> String {
    let grid: Vec<String> = (0..3)
        .map(|phase| {
            (0..16)
                .map(|v| {
                    if protocol_coin(seed, v, phase) {
                        '1'
                    } else {
                        '0'
                    }
                })
                .collect()
        })
        .collect();
    let joined = grid.join("_");
    println!("coin grid (seed {seed}): {joined}");
    joined
}

#[test]
fn empty_fault_plan_leaves_the_golden_stream_untouched() {
    // Installing an empty plan is a byte-level no-op: the fault-free
    // golden fingerprint must come out unchanged.
    let mut net = BeepNetwork::new(topology::cycle(512).unwrap(), Noise::bernoulli(0.1), 1);
    net.set_shard_count(8);
    net.set_fault_plan(FaultPlan::none()).unwrap();
    let beepers = BitVec::from_fn(512, |v| v % 37 == 0);
    let frames: Vec<BitVec> = (0..8)
        .map(|_| net.run_round_bitset(&beepers).unwrap())
        .collect();
    assert_eq!(transcript_fingerprint(&frames), 0xF20B_61B1_63CB_81F1);
}

/// Like [`noisy_transcript`], but on a torus built by the given
/// constructor (512 = 8 × 64 nodes), so the implicit shift kernel and the
/// materialized CSR kernel can be pinned against the same stream.
fn torus_transcript(
    graph: Graph,
    seed: u64,
    eps: f64,
    shards: usize,
    rounds: usize,
) -> Vec<BitVec> {
    let n = graph.node_count();
    let mut net = BeepNetwork::new(graph, Noise::bernoulli(eps), seed);
    net.set_shard_count(shards);
    let beepers = BitVec::from_fn(n, |v| v % 37 == 0);
    (0..rounds)
        .map(|_| net.run_round_bitset(&beepers).unwrap())
        .collect()
}

#[test]
fn golden_implicit_torus_transcripts_per_seed_eps_shards() {
    // The adjacency representation is NOT part of the stream key: the
    // implicit shift kernel on `implicit_torus` must reproduce the exact
    // pinned fingerprints of the materialized CSR torus, per
    // (seed, ε, shard_count) cell. A change to the wide-word OR lanes, the
    // wrap masks, or the tail masking fails here.
    let mut computed = Vec::new();
    for &(seed, eps, shards) in &[(1u64, 0.1f64, 1usize), (1, 0.1, 8), (9, 0.3, 2)] {
        let implicit = torus_transcript(
            topology::implicit_torus(8, 64).unwrap(),
            seed,
            eps,
            shards,
            8,
        );
        let materialized = torus_transcript(topology::torus(8, 64).unwrap(), seed, eps, shards, 8);
        assert_eq!(
            implicit, materialized,
            "implicit vs csr seed={seed} eps={eps} shards={shards}"
        );
        let fp = transcript_fingerprint(&implicit);
        println!("implicit torus seed={seed} eps={eps} shards={shards}: {fp:#018X}");
        computed.push(fp);
    }
    assert_eq!(
        computed,
        vec![
            0x6299_4147_3091_564F,
            0xC001_B994_3269_9EF9,
            0x50E9_8667_924A_E85C,
        ]
    );
}

/// Transposes per-node heard frames (the `run_frame*` output shape) into
/// the per-round bitmaps the golden fingerprints are computed over.
fn per_round_bitmaps(heard: &[BitVec], rounds: usize) -> Vec<BitVec> {
    (0..rounds)
        .map(|r| BitVec::from_fn(heard.len(), |v| heard[v].get(r)))
        .collect()
}

#[test]
fn frames_reproduce_the_golden_per_round_stream() {
    // Driving the same 8-round schedule through `run_frame_into` — the
    // frame driver Algorithm 1 and the TDMA baseline run on — must
    // reproduce the original fault-free golden fingerprint byte-for-byte.
    let mut net = BeepNetwork::new(topology::cycle(512).unwrap(), Noise::bernoulli(0.1), 1);
    net.set_shard_count(8);
    let frames: Vec<Option<BitVec>> = (0..512)
        .map(|v| Some(BitVec::from_fn(8, |_| v % 37 == 0)))
        .collect();
    let mut heard = Vec::new();
    net.run_frame_into(&frames, 8, &mut heard).unwrap();
    assert_eq!(
        transcript_fingerprint(&per_round_bitmaps(&heard, 8)),
        0xF20B_61B1_63CB_81F1
    );
}

#[test]
fn golden_implicit_frame_transcript_matches_per_round_driving() {
    // A 40-round schedule through `run_frame_into` on the implicit torus.
    // The per-round loop on the materialized torus must produce the same
    // bytes, and the fingerprint is pinned so a change to the frame
    // driver's beeper assembly or heard-string scatter fails loudly.
    let rounds = 40;
    let frames: Vec<Option<BitVec>> = (0..512)
        .map(|v| Some(BitVec::from_fn(rounds, |r| (v + r) % 37 == 0)))
        .collect();
    let mut framed = BeepNetwork::new(
        topology::implicit_torus(8, 64).unwrap(),
        Noise::bernoulli(0.1),
        1,
    );
    framed.set_shard_count(8);
    let mut heard = Vec::new();
    framed.run_frame_into(&frames, rounds, &mut heard).unwrap();

    let mut reference = BeepNetwork::new(topology::torus(8, 64).unwrap(), Noise::bernoulli(0.1), 1);
    reference.set_shard_count(8);
    let expected: Vec<BitVec> = (0..rounds)
        .map(|r| {
            let beepers = BitVec::from_fn(512, |v| (v + r) % 37 == 0);
            reference.run_round_bitset(&beepers).unwrap()
        })
        .collect();
    assert_eq!(per_round_bitmaps(&heard, rounds), expected);
    let fp = transcript_fingerprint(&expected);
    println!("implicit torus frame, 40 rounds: {fp:#018X}");
    assert_eq!(fp, 0x8ABB_5AE8_D342_DCB2);
}

#[test]
fn golden_transcripts_survive_any_thread_count() {
    // The pinned stream is thread-count-invariant: the same fingerprints
    // must come out of the parallel path.
    for threads in [2, 4, 8] {
        let mut net = BeepNetwork::new(topology::cycle(512).unwrap(), Noise::bernoulli(0.1), 1);
        net.set_shard_count(8);
        net.set_parallelism(threads);
        let beepers = BitVec::from_fn(512, |v| v % 37 == 0);
        let frames: Vec<BitVec> = (0..8)
            .map(|_| net.run_round_bitset(&beepers).unwrap())
            .collect();
        assert_eq!(
            transcript_fingerprint(&frames),
            0xF20B_61B1_63CB_81F1,
            "threads={threads}"
        );
    }
}
