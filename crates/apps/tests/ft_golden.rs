//! Golden pin of the fault-tolerant protocol family: an FNV-1a
//! fingerprint over every field of the report of `beep_consensus`,
//! `beep_ben_or`, `beep_reliable_broadcast` and `beep_leader_reelect`,
//! per cell of {`torus(8, 8)`, `complete(16)`} × ε ∈ {0, 0.05} × seven
//! fault plans: none, a quarter of the nodes crashing at round 0, a
//! quarter crashing at a round inside the second slot vote, an eighth
//! spamming, a quarter mute, `TargetLoudest` jamming an eighth of the
//! nodes, and `RushingSpam`.
//!
//! Every one of these protocols votes over frames of beep slots under a
//! fault overlay, so a change to the slot vote, the frame driver or the
//! fault overlay that claims to leave their output untouched must
//! reproduce every value here. CI runs this file explicitly and fails if
//! it stops executing tests. On a mismatch the test prints the actual
//! rows.

use beep_apps::{beep_ben_or, beep_consensus, beep_leader_reelect, beep_reliable_broadcast};
use beep_net::{topology, AdaptivePolicy, ChannelModel, FaultKind, FaultPlan, Graph, Noise};

/// The seed of every cell (network noise, adaptive draws, coins).
const SEED: u64 = 0x5EED;

/// Epochs of every `beep_leader_reelect` run.
const EPOCHS: usize = 3;

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

    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn opt(&mut self, v: Option<usize>) {
        self.u64(v.map_or(u64::MAX, |v| v as u64));
    }

    fn bools(&mut self, bits: &[bool]) {
        self.usize(bits.len());
        for &b in bits {
            self.u64(u64::from(b));
        }
    }

    fn opts(&mut self, values: &[Option<usize>]) {
        self.usize(values.len());
        for &v in values {
            self.opt(v);
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Topo {
    Torus8x8,
    Complete16,
}

impl Topo {
    fn graph(self) -> Graph {
        match self {
            Topo::Torus8x8 => topology::torus(8, 8).unwrap(),
            Topo::Complete16 => topology::complete(16).unwrap(),
        }
    }
}

fn channel(epsilon: f64) -> ChannelModel {
    if epsilon == 0.0 {
        Noise::Noiseless.into()
    } else {
        Noise::bernoulli(epsilon).into()
    }
}

/// The seven plans of a cell, in table order. `slots` is the protocol's
/// slots per vote on this cell, so the second vote covers rounds
/// `slots..2·slots` and the mid-vote crash lands at `slots + slots/2`.
fn plans(n: usize, slots: usize) -> [FaultPlan; 7] {
    let mid_vote = (slots + slots / 2) as u64;
    [
        FaultPlan::none(),
        FaultPlan::realize(n, 0.25, FaultKind::Crash { round: 0 }, 0xC0).unwrap(),
        FaultPlan::realize(n, 0.25, FaultKind::Crash { round: mid_vote }, 0xC1).unwrap(),
        FaultPlan::realize(n, 0.125, FaultKind::ByzantineSpam, 0xC2).unwrap(),
        FaultPlan::realize(n, 0.25, FaultKind::ByzantineMute, 0xC3).unwrap(),
        FaultPlan::from_policy(AdaptivePolicy::TargetLoudest { budget: n / 8 }),
        FaultPlan::from_policy(AdaptivePolicy::RushingSpam {
            budget: n / 8,
            window: 2,
        }),
    ]
}

/// One protocol run: its report's fingerprint and its slots per vote.
type Run = fn(&Graph, &ChannelModel, &FaultPlan) -> (u64, usize);

fn consensus(graph: &Graph, channel: &ChannelModel, plan: &FaultPlan) -> (u64, usize) {
    let inputs: Vec<bool> = (0..graph.node_count()).map(|v| v % 11 == 3).collect();
    let r = beep_consensus(graph, channel, plan, SEED, &inputs).unwrap();
    let mut h = Fnv::new();
    h.bools(&r.decisions);
    h.usize(r.rounds);
    h.u64(r.beeps);
    h.usize(r.phases);
    h.usize(r.slots_per_phase);
    (h.0, r.slots_per_phase)
}

fn ben_or(graph: &Graph, channel: &ChannelModel, plan: &FaultPlan) -> (u64, usize) {
    let inputs: Vec<bool> = (0..graph.node_count()).map(|v| v % 3 == 0).collect();
    let r = beep_ben_or(graph, channel, plan, SEED, &inputs).unwrap();
    let mut h = Fnv::new();
    h.bools(&r.decisions);
    h.usize(r.rounds);
    h.u64(r.beeps);
    h.usize(r.phases);
    h.usize(r.slots_per_phase);
    h.opt(r.agreement_phase);
    (h.0, r.slots_per_phase)
}

/// Broadcasts from the lowest correct node, so every plan's run has a
/// message to spread.
fn reliable_broadcast(graph: &Graph, channel: &ChannelModel, plan: &FaultPlan) -> (u64, usize) {
    let source = (0..graph.node_count())
        .find(|&v| plan.fault_of(v).is_none())
        .unwrap();
    let r = beep_reliable_broadcast(graph, channel, plan, SEED, source).unwrap();
    let mut h = Fnv::new();
    h.bools(&r.delivered);
    h.opts(&r.delivery_phase);
    h.usize(r.rounds);
    h.u64(r.beeps);
    h.usize(r.phases);
    h.usize(r.slots_per_phase);
    (h.0, r.slots_per_phase)
}

fn leader_reelect(graph: &Graph, channel: &ChannelModel, plan: &FaultPlan) -> (u64, usize) {
    let r = beep_leader_reelect(graph, channel, plan, SEED, EPOCHS).unwrap();
    let mut h = Fnv::new();
    h.opts(&r.leaders);
    h.usize(r.alarmed_epochs.len());
    for &e in &r.alarmed_epochs {
        h.usize(e);
    }
    h.usize(r.rounds);
    h.u64(r.beeps);
    h.usize(r.epochs);
    h.usize(r.slots_per_phase);
    (h.0, r.slots_per_phase)
}

/// One protocol's pinned rows: `(topology, ε, fingerprint per plan)`.
type Rows = [(Topo, f64, [u64; 7])];

/// Runs every cell of one protocol and checks it against its pinned
/// fingerprints, reporting every mismatching row at once.
fn check(name: &str, run: Run, rows: &Rows) {
    let mut mismatches = Vec::new();
    for &(topo, epsilon, expected) in rows {
        let graph = topo.graph();
        let channel = channel(epsilon);
        let (_, slots) = run(&graph, &channel, &FaultPlan::none());
        let actual = plans(graph.node_count(), slots).map(|plan| run(&graph, &channel, &plan).0);
        if actual != expected {
            let hashes: Vec<String> = actual.iter().map(|h| format!("{h:#018X}")).collect();
            mismatches.push(format!(
                "    (Topo::{topo:?}, {epsilon:?}, [{}]),",
                hashes.join(", ")
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{name}: fault-tolerant output moved; actual rows:\n{}",
        mismatches.join("\n")
    );
}

#[rustfmt::skip]
const CONSENSUS: &Rows = &[
    (Topo::Torus8x8, 0.0, [0x62D32D7FA40656CD, 0xEEAA26A749DF1B2A, 0x7EAD8F087D92C53E, 0x0FF66E48342B1282, 0x691859E2800BDD27, 0xD2008A3D0C03C77A, 0x28E162A567545ADF]),
    (Topo::Torus8x8, 0.05, [0x103ED24512619BE5, 0xFC4FD36DF62A1566, 0xFBCC47DCDDC7CF2E, 0xE9D2B23C227E734E, 0x597D1D0A586D56CD, 0x58638FA477E97352, 0xCFA2424C692BC1C0]),
    (Topo::Complete16, 0.0, [0xB0984B9918AB15D6, 0x33D735AE8A0EF44C, 0xA665DA43801E76AE, 0x2750A2015182E010, 0x7E5DE1585BBC388D, 0x0BC735548A76CD2A, 0x2750A2015182E010]),
    (Topo::Complete16, 0.05, [0x598BCB1382CD4120, 0x0F91E983A5086C26, 0x05B72D34CDD810A0, 0x3B520D814BA11C1E, 0x46543889DD4BA5CB, 0x348E7DFECE03BBBE, 0x3B520D814BA11C1E]),
];

#[rustfmt::skip]
const BEN_OR: &Rows = &[
    (Topo::Torus8x8, 0.0, [0xBDC388116C87AD10, 0xE52FC0647125FC5A, 0xEF979A8E2B831378, 0xE8B3AED11278B36E, 0xBD93586F6BE37F29, 0x43A533A6DF471310, 0x5A696E6C8E1A39C1]),
    (Topo::Torus8x8, 0.05, [0x3E8A102F20754B69, 0xB54A8901FFA79A9B, 0x287B89D191DD7CDB, 0x30065AFECC67E830, 0x42796A296A4D8280, 0xE1760F0C63A6AA1D, 0x384379E14E08321D]),
    (Topo::Complete16, 0.0, [0x0CA584F82E126530, 0x65BBEC9CFA1F3B37, 0xDBB69EAE37E51C15, 0x637AC12BB418CDCD, 0x305BCC2DE59CF557, 0x069E8D67F4DB4D13, 0x6E9F8D41DEA3B2D3]),
    (Topo::Complete16, 0.05, [0x0918F403DBE5ABB7, 0x134C75EBEDB2E808, 0xA767B37AFD8A4534, 0xA2051C17C53F4B81, 0xF0DE35788145AF12, 0x6A55A710AF1A8E34, 0x41B19F7624EE8538]),
];

#[rustfmt::skip]
const RELIABLE_BROADCAST: &Rows = &[
    (Topo::Torus8x8, 0.0, [0x14BD9C61DB8349FC, 0x43FEFD108CEF605E, 0x4F39EC5CDC216C2E, 0x3995F2E3E0375FDC, 0x5E8E9825983E37A4, 0x95E276695818FC53, 0xA83B6350A435092B]),
    (Topo::Torus8x8, 0.05, [0xABBD28597746D34F, 0x7DB452BEFCC187CA, 0xB45429367F708DB1, 0x8F74EDC7ED1C9CB5, 0x0BC90F2C2082406C, 0x83D440A54B7ADF9D, 0x82BB78D1294882FA]),
    (Topo::Complete16, 0.0, [0x4235697BA2B5FA86, 0x385C24E7790598A2, 0x95F8B596B95ABAC2, 0x2270D6D24477A4A6, 0x3C199AD39D826562, 0x3AA0A7017B359791, 0x2270D6D24477A4A6]),
    (Topo::Complete16, 0.05, [0x117198EC89DE1977, 0x76D52EC1622EE043, 0xD230AC3EB1F3CB23, 0x4D803A9A6D369FB8, 0x7A64937D56963C03, 0x87D85600C5C662CB, 0x1D21042042EE0846]),
];

#[rustfmt::skip]
const LEADER_REELECT: &Rows = &[
    (Topo::Torus8x8, 0.0, [0x1496D24050051CB8, 0x7994557D36EB2916, 0x546A5B2110913E9D, 0xDB6A5DD18EA41921, 0x2C93A2EF00C3187D, 0x2DEDC41CBA4F0F36, 0x4929D97189ACB031]),
    (Topo::Torus8x8, 0.05, [0xAF6E8328C36A211D, 0x1D86E4DCCCCBAF4C, 0xB7C7C2607D0176CE, 0x7C36FC271CB4F7BE, 0x3385D580102C6DB1, 0x829B0CD22D56B7E4, 0xE5D9B240C35503D8]),
    (Topo::Complete16, 0.0, [0xF70C7DCBD6EB92F9, 0xB0AB1316BDED75EF, 0x136684539E7790F3, 0xF8099922965B178B, 0x5313F91E2FC0DABB, 0xAEAF1F5DAE3F239C, 0xF52AA7A1E7C14169]),
    (Topo::Complete16, 0.05, [0x2F21E58D1235C3AC, 0x9E2BCFB0C55F921A, 0xECB08B7F9EBF1AF2, 0xB6BC15515F4D17A1, 0x96B73DC89ABB4031, 0x87AFA310F65098A4, 0x3A3DA0280490E998]),
];

#[test]
fn consensus_reports_match_the_golden() {
    check("beep_consensus", consensus, CONSENSUS);
}

#[test]
fn ben_or_reports_match_the_golden() {
    check("beep_ben_or", ben_or, BEN_OR);
}

#[test]
fn reliable_broadcast_reports_match_the_golden() {
    check(
        "beep_reliable_broadcast",
        reliable_broadcast,
        RELIABLE_BROADCAST,
    );
}

#[test]
fn leader_reelect_reports_match_the_golden() {
    check("beep_leader_reelect", leader_reelect, LEADER_REELECT);
}
