//! Golden pin of what Algorithm 1 delivers: an FNV-1a fingerprint over
//! `RoundOutcome.delivered` and `RoundStats` of consecutive
//! `BroadcastSimulator::simulate_round` calls, per cell of
//! {random 4-regular, cycle, complete} × n ∈ {16, 70, 130} ×
//! ε ∈ {0, 0.05, 0.25} × 3 seeds at the calibrated profile, the same
//! topologies and sizes at a low expansion whose decoders make mistakes,
//! and one TDMA baseline cell.
//!
//! `tests/equivalence.rs` checks that simulated and native runs compute
//! the same outputs; this file pins the statistics too, so a change to the
//! decoder or the frame driver that claims to leave Algorithm 1's output
//! untouched must reproduce every value here. CI runs this file
//! explicitly and fails if it stops executing tests.
//!
//! A perfect round delivers exactly the ideal inboxes, so where the
//! calibrated profile decodes perfectly a cell's fingerprint does not
//! depend on ε; the low-expansion cells are the ones whose decoders err.

use beep_congest::{Message, MessageWriter};
use beep_core::baseline::TdmaSimulator;
use beep_core::{BroadcastSimulator, RoundOutcome, RoundStats, SimulationParams};
use beep_net::{topology, BeepNetwork, Graph, Noise};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Message width `B` of every cell: small, so the complete graphs' phases
/// stay short in debug builds.
const B: usize = 6;

/// Seeds every grid cell runs (network noise, `r_v` draws and traffic are
/// all derived from it).
const SEEDS: [u64; 3] = [3, 101, 9001];

/// Transmit density of each consecutive simulated round in a cell.
const DENSITIES: [f64; 2] = [0.75, 0.4];

/// FNV-1a, 64-bit.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for byte in v.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn outcome(&mut self, outcome: &RoundOutcome) {
        self.u64(outcome.delivered.len() as u64);
        for inbox in &outcome.delivered {
            self.u64(inbox.len() as u64);
            for m in inbox {
                let bits = m.to_bitvec();
                self.u64(bits.len() as u64);
                for &w in bits.as_words() {
                    self.u64(w);
                }
            }
        }
        let s = &outcome.stats;
        for field in [
            s.rounds,
            s.transmitters,
            s.false_negatives,
            s.false_positives,
            s.decoys_scored,
            s.decoy_acceptances,
            s.message_errors,
            s.imperfect_rounds,
        ] {
            self.u64(field as u64);
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Topo {
    RandomRegular,
    Cycle,
    Complete,
}

fn graph(topo: Topo, n: usize, seed: u64) -> Graph {
    match topo {
        Topo::RandomRegular => {
            topology::random_regular(n, 4, &mut StdRng::seed_from_u64(seed ^ 0x6EA9)).unwrap()
        }
        Topo::Cycle => topology::cycle(n).unwrap(),
        Topo::Complete => topology::complete(n).unwrap(),
    }
}

fn noise(epsilon: f64) -> Noise {
    if epsilon == 0.0 {
        Noise::Noiseless
    } else {
        Noise::bernoulli(epsilon)
    }
}

/// One round's broadcasts: each node transmits a random `B`-bit message
/// with probability `density`, else stays silent.
fn traffic(n: usize, density: f64, rng: &mut StdRng) -> Vec<Option<Message>> {
    (0..n)
        .map(|_| {
            if rng.random_bool(density) {
                let value = rng.random_range(0..1u64 << B);
                Some(MessageWriter::new().push_uint(value, B).finish(B))
            } else {
                None
            }
        })
        .collect()
}

/// Runs `DENSITIES.len()` consecutive Algorithm 1 rounds on one network
/// and returns their fingerprint and summed statistics.
fn alg1_cell(graph: Graph, params: SimulationParams, seed: u64) -> (u64, RoundStats) {
    let n = graph.node_count();
    let sim = BroadcastSimulator::new(params, B, graph.max_degree()).unwrap();
    let mut net = BeepNetwork::new(graph, noise(params.epsilon), seed);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x51B0);
    let mut outgoing_rng = StdRng::seed_from_u64(seed ^ 0x7AFF);
    let mut fnv = Fnv::new();
    let mut total = RoundStats::default();
    for density in DENSITIES {
        let outgoing = traffic(n, density, &mut outgoing_rng);
        let outcome = sim.simulate_round(&mut net, &outgoing, &mut rng).unwrap();
        fnv.outcome(&outcome);
        total.merge(&outcome.stats);
    }
    (fnv.0, total)
}

/// Runs every seed of every `(n, ε)` row of one topology under
/// `params(ε)` and checks it against its pinned fingerprints, reporting
/// all mismatches at once. Returns the statistics summed over every cell.
fn check_cells(topo: Topo, rows: &Rows, params: impl Fn(f64) -> SimulationParams) -> RoundStats {
    let mut total = RoundStats::default();
    let mut mismatches = Vec::new();
    for &(n, epsilon, expected) in rows {
        let actual = SEEDS.map(|seed| {
            let (fingerprint, stats) = alg1_cell(graph(topo, n, seed), params(epsilon), seed);
            total.merge(&stats);
            fingerprint
        });
        if actual != expected {
            mismatches.push(format!(
                "({n}, {epsilon:?}, [{:#018X}, {:#018X}, {:#018X}]),",
                actual[0], actual[1], actual[2]
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{topo:?}: Algorithm 1 output moved; actual rows:\n{}",
        mismatches.join("\n")
    );
    total
}

/// One topology's pinned rows: `(n, ε, fingerprint per seed in SEEDS)`.
type Rows = [(usize, f64, [u64; 3])];

#[rustfmt::skip]
const RANDOM_REGULAR: &Rows = &[
    (16, 0.0, [0xA23B1ADD2D0B3CCD, 0xE2FAD70486CE6443, 0x8FB804CE2C0B642D]),
    (16, 0.05, [0xA23B1ADD2D0B3CCD, 0xE2FAD70486CE6443, 0x8FB804CE2C0B642D]),
    (16, 0.25, [0xA23B1ADD2D0B3CCD, 0xFDCE0D80C1015B2E, 0x8FB804CE2C0B642D]),
    (70, 0.0, [0xCA0CAFAD1AACA585, 0xAF79138E239A9EEF, 0x985BC785E102A5BF]),
    (70, 0.05, [0xCA0CAFAD1AACA585, 0xAF79138E239A9EEF, 0x985BC785E102A5BF]),
    (70, 0.25, [0x5D71D6D4E9F823AC, 0x0551E86347DEB1E4, 0xC25097FE2A6C9D28]),
    (130, 0.0, [0xC15A34F2E28648B2, 0xF7C2F3C29ACE7385, 0x1514C72E71A235F3]),
    (130, 0.05, [0xC15A34F2E28648B2, 0xF7C2F3C29ACE7385, 0x1514C72E71A235F3]),
    (130, 0.25, [0x87DBCD9DC1602DC4, 0x3F68346E8179B7D0, 0x3135B0E645AE4130]),
];

#[rustfmt::skip]
const CYCLE: &Rows = &[
    (16, 0.0, [0xFEDD2703264D8149, 0x87FCD2863DCF5881, 0xBE32541A83E8070D]),
    (16, 0.05, [0xFEDD2703264D8149, 0x87FCD2863DCF5881, 0xBE32541A83E8070D]),
    (16, 0.25, [0xFEDD2703264D8149, 0x87FCD2863DCF5881, 0xBE32541A83E8070D]),
    (70, 0.0, [0x81F62364C4E1A349, 0xCD7489E40110EA31, 0x8E0758086B41D6B7]),
    (70, 0.05, [0x81F62364C4E1A349, 0xCD7489E40110EA31, 0x8E0758086B41D6B7]),
    (70, 0.25, [0x2D51750192C758FB, 0x1ECFE5BCABC43C7F, 0x41B655C2D2EC5245]),
    (130, 0.0, [0x1CA993AA1C091ABC, 0x73FE75D8591AF357, 0x1F5E201AE015CADD]),
    (130, 0.05, [0x1CA993AA1C091ABC, 0x73FE75D8591AF357, 0x1F5E201AE015CADD]),
    (130, 0.25, [0x001ECBD883E7444D, 0xFA3F8E088B4984BE, 0xC0D7E0350230CC38]),
];

#[rustfmt::skip]
const COMPLETE: &Rows = &[
    (16, 0.0, [0x5EDD4EE6D1B4782A, 0x7703DA15EF462A03, 0x257E365D0BC8FAE5]),
    (16, 0.05, [0x5EDD4EE6D1B4782A, 0x7703DA15EF462A03, 0x257E365D0BC8FAE5]),
    (16, 0.25, [0x340F69F7C79852FE, 0x2C5FC2B90B99DD11, 0x3238A0861CD57200]),
    (70, 0.0, [0xB81C0FAFC10B2F23, 0x9AA9F45388162798, 0x86E125CEB02F2391]),
    (70, 0.05, [0xB81C0FAFC10B2F23, 0x9AA9F45388162798, 0x86E125CEB02F2391]),
    (70, 0.25, [0xE41F8319ED1D180E, 0x880F9F49046E0C83, 0xFA6F70B91EF11E15]),
    (130, 0.0, [0xFDB1D12EDA792D5D, 0xE97E3B49B169274E, 0x0A8E8A35F49E8763]),
    (130, 0.05, [0xFDB1D12EDA792D5D, 0xDEF709A8D5602384, 0x0A8E8A35F49E8763]),
    (130, 0.25, [0xC106A14C6F3A4CD1, 0xADA0E002DA00DA24, 0xE68A104FE850E524]),
];

/// The low-expansion cells (`c_ε = 2`), one table per topology.
#[rustfmt::skip]
const LOW_EXPANSION: [(Topo, &Rows); 3] = [
    (Topo::RandomRegular, &[
        (16, 0.25, [0x20FE94F12BE3588A, 0x15873FA9C269FF12, 0x750594487FD16673]),
        (70, 0.25, [0x8F175337060273E9, 0x2B6D0D130E461650, 0x3F1799AAA931BA47]),
        (130, 0.25, [0x1FF481F9EF3F88DC, 0xC3B15F826B6C4448, 0x0C01ACC69E8404CE]),
    ]),
    (Topo::Cycle, &[
        (16, 0.25, [0xF4C2A44DDE731B85, 0xB504F5CE4FB84C63, 0xC014D042F0236E22]),
        (70, 0.25, [0x2D357D28A6AD4836, 0xD431B1BC06C79A04, 0xD6C00C6E8D92FFB1]),
        (130, 0.25, [0x94803000078E9495, 0x0F022F5BFB6012A6, 0xBF796C5D331A71C9]),
    ]),
    (Topo::Complete, &[
        (16, 0.25, [0x63A572276853B842, 0x7E4058FE8F6D0C0F, 0x56FEEB27F4B53D4D]),
        (70, 0.25, [0xD99A5234104FA984, 0x1CAB06EFC285C3BB, 0x1C17E94BEC879081]),
        (130, 0.25, [0x30A8363F68CE38CC, 0xAC20791BBD4765CB, 0xA363276A02D418F6]),
    ]),
];

#[test]
fn calibrated_rounds_on_random_regular_graphs_match_the_golden() {
    check_cells(
        Topo::RandomRegular,
        RANDOM_REGULAR,
        SimulationParams::calibrated,
    );
}

#[test]
fn calibrated_rounds_on_cycles_match_the_golden() {
    check_cells(Topo::Cycle, CYCLE, SimulationParams::calibrated);
}

#[test]
fn calibrated_rounds_on_complete_graphs_match_the_golden() {
    check_cells(Topo::Complete, COMPLETE, SimulationParams::calibrated);
}

#[test]
fn low_expansion_rounds_pin_the_decoder_error_paths() {
    // `c_ε = 2` at ε = 0.25 is far below the calibrated profile: set tests
    // land on both sides of the Lemma 9 threshold and phase-2 decodes
    // fail, so these cells pin the false-negative, false-positive,
    // decoy-acceptance and message-error paths that the calibrated grid
    // almost never takes.
    let mut total = RoundStats::default();
    for (topo, rows) in LOW_EXPANSION {
        total.merge(&check_cells(topo, rows, |epsilon| SimulationParams {
            expansion: 2,
            ..SimulationParams::calibrated(epsilon)
        }));
    }
    assert!(total.false_negatives > 0, "{total:?}");
    assert!(total.false_positives > 0, "{total:?}");
    assert!(total.decoy_acceptances > 0, "{total:?}");
    assert!(total.message_errors > 0, "{total:?}");
}

#[test]
fn tdma_rounds_match_the_golden_fingerprint() {
    // n = 100 is past one 64-node word and the round's frame is thousands
    // of beep rounds long, so the frame driver crosses both block edges.
    let seed = 77;
    let graph = graph(Topo::RandomRegular, 100, seed);
    let n = graph.node_count();
    let sim = TdmaSimulator::new(&graph, B, 0.05);
    assert!(sim.rounds_per_congest_round() > 64);
    let mut net = BeepNetwork::new(graph, noise(0.05), seed);
    let mut outgoing_rng = StdRng::seed_from_u64(seed ^ 0x7AFF);
    let mut fnv = Fnv::new();
    for density in DENSITIES {
        let outgoing = traffic(n, density, &mut outgoing_rng);
        fnv.outcome(&sim.simulate_round(&mut net, &outgoing).unwrap());
    }
    assert_eq!(
        fnv.0, 0xA9D46BCAA4BC6E6D,
        "TDMA cell moved; actual {:#018X}",
        fnv.0
    );
}
