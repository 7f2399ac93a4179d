//! Named protocol registry: every runnable workload in the workspace,
//! addressable by a stable string name.
//!
//! This is the scenario layer's front door. A campaign cell names a
//! protocol (`"matching"`, `"round_sim"`, …); the registry maps the name
//! to a [`Protocol`] and runs it on an arbitrary graph under an arbitrary
//! noise rate with one uniform outcome shape ([`ProtocolOutcome`]): beep
//! rounds, beeps emitted, a success verdict, and protocol-specific
//! metrics. Everything is deterministic given `(graph, epsilon, seed)`.
//!
//! Protocols come in two classes:
//!
//! * **noisy-capable** — the paper's simulation pipeline and its
//!   baselines (`matching`, `mis`, `coloring`, `round_sim`, `tdma`,
//!   `local_broadcast`) plus the fault-tolerant family (`beep_consensus`,
//!   `beep_ben_or`, `beep_reliable_broadcast`, `beep_leader_reelect`):
//!   any `ε ∈ [0, ½)`;
//! * **noiseless primitives** — the wave-based tools (`wave`, `leader`,
//!   `multicast`): requesting `ε > 0` returns
//!   [`AppError::NoiseUnsupported`] so sweeps can mark those cells as
//!   skipped rather than failed.
//!
//! Orthogonally, a protocol either **tolerates faults**
//! ([`Protocol::supports_faults`] — the fault-tolerant family above,
//! built for the fault layer) or it doesn't: running the latter under a
//! non-empty [`FaultPlan`] returns [`AppError::FaultsUnsupported`], which
//! campaigns likewise record as skipped cells. Each fault-tolerant
//! protocol's verdict scores its classic properties among correct nodes
//! (agreement/validity for the consensus pair, totality/validity for
//! reliable broadcast, leader agreement for re-election) while accounting
//! for each protocol's *documented* defeat — a Byzantine spammer forcing
//! consensus to 1, fabricating a delivery, or installing a phantom
//! leader is the expected outcome there, not a failure.
//!
//! [`Protocol::run_with_faults`] is the one dispatcher; [`Protocol::run`]
//! calls it on the iid channel at `ε` with the empty plan.

use crate::consensus::beep_consensus;
use crate::error::AppError;
use crate::tasks::{iid_channel, solve};
use crate::{
    beep_ben_or, beep_leader_election, beep_leader_reelect, beep_reliable_broadcast,
    beep_wave_broadcast, coloring_with_channel, maximal_independent_set_with_channel,
    maximal_matching_with_channel, multi_source_broadcast,
};
use beep_bits::BitVec;
use beep_congest::algorithms::Flood;
use beep_core::baseline::TdmaSimulator;
use beep_core::lower_bound::CongestLocalBroadcast;
use beep_core::{SimReport, SimulatedCongestRunner, SimulationParams};
use beep_net::{ChannelModel, FaultKind, FaultPlan, Graph, Noise};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Message width used by the registry's fixed-size workloads.
const PAYLOAD_BITS: usize = 16;
/// Message width for the wave/multicast primitives (kept small so the
/// superimposed-code construction stays cheap at every campaign scale).
const PRIMITIVE_BITS: usize = 6;
/// XOR'd into the cell seed to derive `beep_consensus` inputs, so the
/// input assignment is independent of the engine's noise streams.
const CONSENSUS_INPUT_STREAM: u64 = 0xB1A5_ED1D;

/// Uniform outcome of one registry-driven protocol run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtocolOutcome {
    /// Beep rounds executed on the network.
    pub rounds: usize,
    /// Total beeps emitted (energy).
    pub beeps: u64,
    /// Whether the protocol's own correctness check passed this run.
    pub success: bool,
    /// Protocol-specific metrics (`congest_rounds`, …), name → value.
    pub metrics: Vec<(&'static str, f64)>,
}

/// A runnable workload, addressable by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Protocol {
    /// Single-source beep-wave broadcast (noiseless primitive).
    Wave,
    /// Wave-based leader election (noiseless primitive).
    Leader,
    /// Multi-source broadcast with superimposed codes (noiseless
    /// primitive).
    Multicast,
    /// Maximal matching over the Theorem 11 simulation (Theorem 21).
    Matching,
    /// Maximal independent set over the Theorem 11 simulation.
    Mis,
    /// (Δ+1)-coloring over the Theorem 11 simulation.
    Coloring,
    /// Flood through Algorithm 1's round simulation — one protocol phase
    /// per Broadcast CONGEST round.
    RoundSim,
    /// Flood through the TDMA / G²-coloring baseline simulator.
    Tdma,
    /// B-bit Local Broadcast (Definition 13) via the Corollary 12
    /// CONGEST wrapper.
    LocalBroadcast,
    /// 1-biased binary consensus on noisy beeps — the fault-tolerant
    /// proof workload (see [`crate::beep_consensus`]).
    BeepConsensus,
    /// Ben-Or-style randomized binary consensus with counter-keyed coins
    /// (see [`crate::beep_ben_or`]).
    BeepBenOr,
    /// Bracha-style reliable broadcast as beep-slot voting (see
    /// [`crate::beep_reliable_broadcast`]).
    BeepReliableBroadcast,
    /// Heartbeat-monitored leader election that re-elects on leader
    /// silence (see [`crate::beep_leader_reelect`]).
    BeepLeaderReelect,
}

impl Protocol {
    /// Every registered protocol, in display order.
    pub const ALL: [Protocol; 13] = [
        Protocol::Wave,
        Protocol::Leader,
        Protocol::Multicast,
        Protocol::Matching,
        Protocol::Mis,
        Protocol::Coloring,
        Protocol::RoundSim,
        Protocol::Tdma,
        Protocol::LocalBroadcast,
        Protocol::BeepConsensus,
        Protocol::BeepBenOr,
        Protocol::BeepReliableBroadcast,
        Protocol::BeepLeaderReelect,
    ];

    /// The canonical registry name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Protocol::Wave => "wave",
            Protocol::Leader => "leader",
            Protocol::Multicast => "multicast",
            Protocol::Matching => "matching",
            Protocol::Mis => "mis",
            Protocol::Coloring => "coloring",
            Protocol::RoundSim => "round_sim",
            Protocol::Tdma => "tdma",
            Protocol::LocalBroadcast => "local_broadcast",
            Protocol::BeepConsensus => "beep_consensus",
            Protocol::BeepBenOr => "beep_ben_or",
            Protocol::BeepReliableBroadcast => "beep_reliable_broadcast",
            Protocol::BeepLeaderReelect => "beep_leader_reelect",
        }
    }

    /// Looks a protocol up by name (canonical names plus a few aliases).
    #[must_use]
    pub fn from_name(name: &str) -> Option<Protocol> {
        Some(match name {
            "wave" | "broadcast_wave" => Protocol::Wave,
            "leader" | "leader_election" => Protocol::Leader,
            "multicast" | "multi_source" => Protocol::Multicast,
            "matching" | "maximal_matching" => Protocol::Matching,
            "mis" | "maximal_independent_set" => Protocol::Mis,
            "coloring" => Protocol::Coloring,
            "round_sim" | "flood" => Protocol::RoundSim,
            "tdma" => Protocol::Tdma,
            "local_broadcast" => Protocol::LocalBroadcast,
            "beep_consensus" | "consensus" => Protocol::BeepConsensus,
            "beep_ben_or" | "ben_or" => Protocol::BeepBenOr,
            "beep_reliable_broadcast" | "reliable_broadcast" => Protocol::BeepReliableBroadcast,
            "beep_leader_reelect" | "leader_reelect" => Protocol::BeepLeaderReelect,
            _ => return None,
        })
    }

    /// Whether the protocol accepts `ε > 0` (the noiseless wave
    /// primitives do not — a single flipped bit forks a phantom wave).
    #[must_use]
    pub fn supports_noise(&self) -> bool {
        !matches!(
            self,
            Protocol::Wave | Protocol::Leader | Protocol::Multicast
        )
    }

    /// Whether the protocol tolerates a non-empty [`FaultPlan`]. The
    /// fault-tolerant family (`beep_consensus`, `beep_ben_or`,
    /// `beep_reliable_broadcast`, `beep_leader_reelect`) is designed for
    /// faulty nodes; every other protocol's w.h.p. guarantee assumes all
    /// nodes are correct, so sweeps mark their faulted cells as skipped
    /// (see [`AppError::FaultsUnsupported`]).
    #[must_use]
    pub fn supports_faults(&self) -> bool {
        matches!(
            self,
            Protocol::BeepConsensus
                | Protocol::BeepBenOr
                | Protocol::BeepReliableBroadcast
                | Protocol::BeepLeaderReelect
        )
    }

    /// Runs the protocol on `graph` at noise rate `epsilon` with the
    /// given seed, returning the uniform outcome.
    ///
    /// # Errors
    ///
    /// * [`AppError::NoiseUnsupported`] if `epsilon > 0` on a noiseless
    ///   primitive (see [`Protocol::supports_noise`]).
    /// * [`AppError::Net`] / [`AppError::Sim`] on engine or simulation
    ///   failures (invalid ε, exhausted round budgets on disconnected
    ///   graphs, …).
    /// * [`AppError::InvalidOutput`] if the w.h.p. guarantee failed this
    ///   run.
    pub fn run(&self, graph: &Graph, epsilon: f64, seed: u64) -> Result<ProtocolOutcome, AppError> {
        self.run_with_faults(graph, &iid_channel(epsilon)?, &FaultPlan::none(), seed)
    }

    /// The dispatcher: runs the protocol on `graph` under an arbitrary
    /// [`ChannelModel`] and [`FaultPlan`] — the entry point the campaign
    /// layer drives.
    ///
    /// Semantics:
    ///
    /// * a noiseless channel (any model whose
    ///   [`is_noiseless`](ChannelModel::is_noiseless) holds) is normalized
    ///   to the exact channel, so every noiseless instance of every model
    ///   reproduces the `ε = 0` run bit-for-bit;
    /// * an iid channel reproduces the [`run`](Self::run) ε sweep
    ///   bit-for-bit; the other models are threaded through the
    ///   simulation pipeline with parameters calibrated to the model's
    ///   [`calibration_epsilon`](ChannelModel::calibration_epsilon);
    /// * a noisy channel on a noiseless-only primitive returns
    ///   [`AppError::NoiseUnsupported`] naming the channel, and a
    ///   non-empty plan on a protocol without
    ///   [`supports_faults`](Self::supports_faults) returns
    ///   [`AppError::FaultsUnsupported`] — campaigns record both as
    ///   *skipped* (not failed) cells.
    ///
    /// # Errors
    ///
    /// * [`AppError::NoiseUnsupported`] / [`AppError::FaultsUnsupported`]
    ///   on a protocol/channel or protocol/fault mismatch.
    /// * [`AppError::Net`] / [`AppError::Sim`] on engine or simulation
    ///   failures (invalid ε, out-of-range fault plans, exhausted round
    ///   budgets on disconnected graphs, …).
    /// * [`AppError::InvalidOutput`] if the w.h.p. guarantee failed this
    ///   run.
    pub fn run_with_faults(
        &self,
        graph: &Graph,
        channel: &ChannelModel,
        faults: &FaultPlan,
        seed: u64,
    ) -> Result<ProtocolOutcome, AppError> {
        let clean: ChannelModel;
        let channel = if channel.is_noiseless() && !matches!(channel, ChannelModel::Iid(_)) {
            clean = Noise::Noiseless.into();
            &clean
        } else {
            channel
        };
        if !channel.is_noiseless() && !self.supports_noise() {
            return Err(AppError::NoiseUnsupported {
                protocol: self.name(),
                channel: channel.label(),
            });
        }
        if !faults.is_empty() && !self.supports_faults() {
            return Err(AppError::FaultsUnsupported {
                protocol: self.name(),
            });
        }
        match self {
            Protocol::Wave => run_wave(graph, seed),
            Protocol::Leader => run_leader(graph, seed),
            Protocol::Multicast => run_multicast(graph, seed),
            Protocol::Matching => {
                let r = maximal_matching_with_channel(graph, channel, seed)?;
                Ok(outcome_from_sim(&r.report))
            }
            Protocol::Mis => {
                let r = maximal_independent_set_with_channel(graph, channel, seed)?;
                Ok(outcome_from_sim(&r.report))
            }
            Protocol::Coloring => {
                let r = coloring_with_channel(graph, channel, seed)?;
                Ok(outcome_from_sim(&r.report))
            }
            Protocol::RoundSim => run_flood_simulated_channel(graph, channel, seed),
            Protocol::Tdma => run_flood_tdma_channel(graph, channel, seed),
            Protocol::LocalBroadcast => run_local_broadcast_channel(graph, channel, seed),
            Protocol::BeepConsensus => run_beep_consensus(graph, channel, faults, seed),
            Protocol::BeepBenOr => run_beep_ben_or(graph, channel, faults, seed),
            Protocol::BeepReliableBroadcast => {
                run_beep_reliable_broadcast(graph, channel, faults, seed)
            }
            Protocol::BeepLeaderReelect => run_beep_leader_reelect(graph, channel, faults, seed),
        }
    }
}

/// A deterministic `bits`-wide payload derived from the seed.
fn seeded_message(bits: usize, seed: u64) -> BitVec {
    BitVec::from_fn(bits, |i| (seed >> (i % 64)) & 1 == 1)
}

fn outcome_from_sim(report: &SimReport) -> ProtocolOutcome {
    ProtocolOutcome {
        rounds: report.beep_rounds,
        beeps: report.beeps,
        success: true,
        metrics: vec![
            ("congest_rounds", report.congest_rounds as f64),
            (
                "beep_rounds_per_congest_round",
                report.beep_rounds_per_congest_round as f64,
            ),
            ("imperfect_rounds", report.stats.imperfect_rounds as f64),
        ],
    }
}

fn run_wave(graph: &Graph, seed: u64) -> Result<ProtocolOutcome, AppError> {
    let message = seeded_message(PRIMITIVE_BITS, seed | 1); // never all-zero
    let report = beep_wave_broadcast(graph, 0, &message, seed)?;
    let success = report.received.iter().all(|r| r.as_ref() == Some(&message));
    Ok(ProtocolOutcome {
        rounds: report.rounds,
        beeps: report.beeps,
        success,
        metrics: vec![("message_bits", PRIMITIVE_BITS as f64)],
    })
}

fn run_leader(graph: &Graph, seed: u64) -> Result<ProtocolOutcome, AppError> {
    let n = graph.node_count();
    let bound = graph.diameter().unwrap_or(n.saturating_sub(1)).max(1);
    let report = beep_leader_election(graph, bound, seed)?;
    Ok(ProtocolOutcome {
        rounds: report.rounds,
        beeps: report.beeps,
        success: report.leader == n - 1,
        metrics: vec![("diameter_bound", bound as f64)],
    })
}

fn run_multicast(graph: &Graph, seed: u64) -> Result<ProtocolOutcome, AppError> {
    let n = graph.node_count();
    if n < 2 {
        return Err(AppError::InvalidOutput {
            detail: "multicast needs at least two nodes".into(),
        });
    }
    let bound = graph.diameter().unwrap_or(n - 1).max(1);
    let m1 = seeded_message(PRIMITIVE_BITS, seed | 1);
    let m2 = !&m1; // distinct from m1 by construction
    let sources = vec![(0, m1.clone()), (n - 1, m2.clone())];
    // Candidate universe: all 2^6 messages, as the multicast tests use.
    let candidates: Vec<BitVec> = (0..1u64 << PRIMITIVE_BITS).map(seeded_value_bits).collect();
    let report =
        multi_source_broadcast(graph, &sources, 2, PRIMITIVE_BITS, bound, &candidates, seed)?;
    let mut expected = vec![m1, m2];
    expected.sort_unstable_by_key(BitVec::to_string);
    let mut decoded = report.decoded.clone();
    decoded.sort_unstable_by_key(BitVec::to_string);
    Ok(ProtocolOutcome {
        rounds: report.rounds,
        beeps: report.beeps,
        success: decoded == expected,
        metrics: vec![("sources", 2.0)],
    })
}

/// The `v`-th message of the `PRIMITIVE_BITS`-bit universe.
fn seeded_value_bits(v: u64) -> BitVec {
    BitVec::from_fn(PRIMITIVE_BITS, |i| (v >> i) & 1 == 1)
}

fn run_flood_simulated_channel(
    graph: &Graph,
    channel: &ChannelModel,
    seed: u64,
) -> Result<ProtocolOutcome, AppError> {
    let value = seed & 0xFFFF;
    let solved = solve(
        graph,
        channel,
        seed,
        PAYLOAD_BITS,
        graph.node_count() + 1,
        || Flood::new(0, value, PAYLOAD_BITS),
        Flood::output,
    )?;
    let mut outcome = outcome_from_sim(&solved.report);
    outcome.success = solved.output.iter().all(|&o| o == Some(value));
    Ok(outcome)
}

fn run_flood_tdma_channel(
    graph: &Graph,
    channel: &ChannelModel,
    seed: u64,
) -> Result<ProtocolOutcome, AppError> {
    let n = graph.node_count();
    let value = seed & 0xFFFF;
    let sim = TdmaSimulator::new(graph, PAYLOAD_BITS, channel.calibration_epsilon());
    let mut algos: Vec<Box<Flood>> = (0..n)
        .map(|_| Box::new(Flood::new(0, value, PAYLOAD_BITS)))
        .collect();
    let report = sim.run_to_completion(graph, channel.clone(), seed, &mut algos, n + 1)?;
    let success = algos.iter().all(|a| a.output() == Some(value));
    let mut outcome = outcome_from_sim(&report);
    outcome.success = success;
    Ok(outcome)
}

fn run_local_broadcast_channel(
    graph: &Graph,
    channel: &ChannelModel,
    seed: u64,
) -> Result<ProtocolOutcome, AppError> {
    let n = graph.node_count();
    let bits = 8;
    // Per-directed-edge random inputs, drawn from a dedicated stream so
    // the instance is a pure function of (graph, seed).
    let mut rng = StdRng::seed_from_u64(seed ^ 0x10CA_1B0A);
    let inputs: Vec<Vec<(usize, BitVec)>> = (0..n)
        .map(|v| {
            graph
                .neighbors(v)
                .iter()
                .map(|&u| (u, BitVec::from_fn(bits, |_| rng.random_bool(0.5))))
                .collect()
        })
        .collect();
    let algos: Vec<CongestLocalBroadcast> = inputs
        .iter()
        .map(|out| CongestLocalBroadcast::new(bits, out.clone()))
        .collect();
    let params = SimulationParams::calibrated(channel.calibration_epsilon());
    let runner = SimulatedCongestRunner::new(graph, bits, seed, params, channel.clone());
    let budget = CongestLocalBroadcast::rounds_needed(bits, bits) + 3;
    let (solved, report) = runner.run_to_completion(algos, budget)?;
    let success = (0..n).all(|v| {
        solved[v].output().iter().all(|(sender, msg)| {
            inputs[*sender]
                .iter()
                .any(|(dest, truth)| dest == &v && truth == msg)
        })
    }) && (0..n).all(|v| solved[v].output().len() == graph.degree(v));
    let mut outcome = outcome_from_sim(&report);
    outcome.success = success;
    // Consumers (e.g. experiment E6's lower-bound ratio) read the payload
    // width from the run instead of duplicating the constant.
    outcome.metrics.push(("message_bits", bits as f64));
    Ok(outcome)
}

/// Runs [`beep_consensus`] on seeded coin-flip inputs and scores the run
/// against its guarantees *among correct nodes*: agreement, plus validity
/// bounds — the decision must be 1 when a correct node held a 1 (or a
/// spammer forces one), and may only be 1 when *some* node held a 1 or a
/// spammer exists (a faulty holder may or may not have spoken before
/// halting, so either decision is legitimate there).
fn run_beep_consensus(
    graph: &Graph,
    channel: &ChannelModel,
    faults: &FaultPlan,
    seed: u64,
) -> Result<ProtocolOutcome, AppError> {
    let n = graph.node_count();
    let mut rng = StdRng::seed_from_u64(seed ^ CONSENSUS_INPUT_STREAM);
    let inputs: Vec<bool> = (0..n).map(|_| rng.random_bool(0.5)).collect();
    let report = beep_consensus(graph, channel, faults, seed, &inputs)?;
    let correct: Vec<usize> = (0..n).filter(|&v| faults.fault_of(v).is_none()).collect();
    let spam = faults
        .assignments()
        .iter()
        .any(|&(_, kind)| kind == FaultKind::ByzantineSpam);
    let agreement = correct
        .windows(2)
        .all(|w| report.decisions[w[0]] == report.decisions[w[1]]);
    let must_be_one = spam || correct.iter().any(|&v| inputs[v]);
    let may_be_one = spam || inputs.iter().any(|&b| b);
    let success = match correct.first() {
        // Every node is faulty: there is nothing to guarantee.
        None => true,
        Some(&v) => {
            let d = report.decisions[v];
            agreement && (!must_be_one || d) && (!d || may_be_one)
        }
    };
    Ok(ProtocolOutcome {
        rounds: report.rounds,
        beeps: report.beeps,
        success,
        metrics: vec![
            ("phases", report.phases as f64),
            ("slots_per_phase", report.slots_per_phase as f64),
            ("faulty_nodes", faults.len() as f64),
        ],
    })
}

/// Runs [`beep_ben_or`] on seeded coin-flip inputs (same input stream as
/// `beep_consensus`, so the two consensus protocols face identical
/// instances cell-for-cell) and scores agreement among correct nodes plus
/// the protocol's validity envelope: uniform fault-free inputs must decide
/// that value, and a spammer must force 1 (the documented defeat).
fn run_beep_ben_or(
    graph: &Graph,
    channel: &ChannelModel,
    faults: &FaultPlan,
    seed: u64,
) -> Result<ProtocolOutcome, AppError> {
    let n = graph.node_count();
    let mut rng = StdRng::seed_from_u64(seed ^ CONSENSUS_INPUT_STREAM);
    let inputs: Vec<bool> = (0..n).map(|_| rng.random_bool(0.5)).collect();
    let report = beep_ben_or(graph, channel, faults, seed, &inputs)?;
    let correct: Vec<usize> = (0..n).filter(|&v| faults.fault_of(v).is_none()).collect();
    let spam = faults
        .assignments()
        .iter()
        .any(|&(_, kind)| kind == FaultKind::ByzantineSpam);
    let agreement = correct
        .windows(2)
        .all(|w| report.decisions[w[0]] == report.decisions[w[1]]);
    let uniform = inputs.windows(2).all(|w| w[0] == w[1]);
    let success = match correct.first() {
        // Every node is faulty: there is nothing to guarantee.
        None => true,
        Some(&v) => {
            let d = report.decisions[v];
            agreement && (!spam || d) && (!(uniform && faults.is_empty()) || d == inputs[0])
        }
    };
    Ok(ProtocolOutcome {
        rounds: report.rounds,
        beeps: report.beeps,
        success,
        metrics: vec![
            ("phases", report.phases as f64),
            ("slots_per_phase", report.slots_per_phase as f64),
            ("faulty_nodes", faults.len() as f64),
            (
                "agreement_phase",
                report.agreement_phase.map_or(-1.0, |p| p as f64),
            ),
        ],
    })
}

/// Runs [`beep_reliable_broadcast`] from node 0 and scores totality among
/// correct nodes plus the validity envelope: a fully correct source must
/// reach every correct node, and a delivery with a provably silent source
/// (mute, or crashed before sending) is only legitimate when a spammer
/// exists to fabricate it (the documented defeat).
fn run_beep_reliable_broadcast(
    graph: &Graph,
    channel: &ChannelModel,
    faults: &FaultPlan,
    seed: u64,
) -> Result<ProtocolOutcome, AppError> {
    let n = graph.node_count();
    let report = beep_reliable_broadcast(graph, channel, faults, seed, 0)?;
    let correct: Vec<usize> = (0..n).filter(|&v| faults.fault_of(v).is_none()).collect();
    let spam = faults
        .assignments()
        .iter()
        .any(|&(_, kind)| kind == FaultKind::ByzantineSpam);
    let source_silent = matches!(
        faults.fault_of(0),
        Some(FaultKind::ByzantineMute) | Some(FaultKind::Crash { round: 0 })
    );
    let totality = correct
        .windows(2)
        .all(|w| report.delivered[w[0]] == report.delivered[w[1]]);
    let success = match correct.first() {
        None => true,
        Some(&v) => {
            let delivered = report.delivered[v];
            totality
                && (faults.fault_of(0).is_some() || delivered)
                && (!source_silent || spam || !delivered)
        }
    };
    let delivered_count = correct.iter().filter(|&&v| report.delivered[v]).count();
    Ok(ProtocolOutcome {
        rounds: report.rounds,
        beeps: report.beeps,
        success,
        metrics: vec![
            ("phases", report.phases as f64),
            ("slots_per_phase", report.slots_per_phase as f64),
            ("faulty_nodes", faults.len() as f64),
            ("delivered_correct", delivered_count as f64),
        ],
    })
}

/// Runs [`beep_leader_reelect`] for three epochs and scores leader
/// agreement among correct nodes: all correct nodes must finish following
/// the *same* concrete leader. The stronger liveness claims (highest live
/// id wins, a crashed leader is replaced, a spammer installs a phantom)
/// are pinned by the protocol's own statistical tests, not the generic
/// verdict — noisy adaptive cells only owe agreement.
fn run_beep_leader_reelect(
    graph: &Graph,
    channel: &ChannelModel,
    faults: &FaultPlan,
    seed: u64,
) -> Result<ProtocolOutcome, AppError> {
    let n = graph.node_count();
    let epochs = 3;
    let report = beep_leader_reelect(graph, channel, faults, seed, epochs)?;
    let correct: Vec<usize> = (0..n).filter(|&v| faults.fault_of(v).is_none()).collect();
    let success = match correct.first() {
        None => true,
        Some(&v) => {
            report.leaders[v].is_some()
                && correct
                    .windows(2)
                    .all(|w| report.leaders[w[0]] == report.leaders[w[1]])
        }
    };
    Ok(ProtocolOutcome {
        rounds: report.rounds,
        beeps: report.beeps,
        success,
        metrics: vec![
            ("epochs", report.epochs as f64),
            ("slots_per_phase", report.slots_per_phase as f64),
            ("faulty_nodes", faults.len() as f64),
            ("alarmed_epochs", report.alarmed_epochs.len() as f64),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use beep_net::topology;

    #[test]
    fn names_round_trip() {
        for p in Protocol::ALL {
            assert_eq!(Protocol::from_name(p.name()), Some(p), "{}", p.name());
        }
        assert_eq!(Protocol::from_name("flood"), Some(Protocol::RoundSim));
        assert_eq!(Protocol::from_name("nope"), None);
    }

    #[test]
    fn every_protocol_runs_noiseless_on_a_cycle() {
        let g = topology::cycle(6).unwrap();
        for p in Protocol::ALL {
            let out = p
                .run(&g, 0.0, 5)
                .unwrap_or_else(|e| panic!("{}: {e}", p.name()));
            assert!(out.success, "{} did not succeed", p.name());
            assert!(out.rounds > 0, "{} reported zero rounds", p.name());
        }
    }

    #[test]
    fn noisy_capable_protocols_run_at_eps() {
        let g = topology::cycle(6).unwrap();
        for p in Protocol::ALL.iter().filter(|p| p.supports_noise()) {
            let out = p
                .run(&g, 0.05, 7)
                .unwrap_or_else(|e| panic!("{}: {e}", p.name()));
            assert!(out.rounds > 0, "{}", p.name());
        }
    }

    #[test]
    fn every_protocol_returns_on_an_empty_graph() {
        // A campaign at size 0 builds an empty graph: every entry must
        // return, Ok or Err, and never panic or wrap `n - 1`.
        let g = Graph::from_edges(0, &[]).unwrap();
        for p in Protocol::ALL {
            for eps in [0.0, 0.1] {
                let _ = p.run(&g, eps, 3);
            }
        }
        for p in [Protocol::Leader, Protocol::BeepLeaderReelect] {
            let out = p.run(&g, 0.0, 3);
            assert!(
                matches!(out, Err(AppError::InvalidOutput { .. })),
                "{}: {out:?}",
                p.name()
            );
        }
    }

    #[test]
    fn noiseless_primitives_reject_noise_explicitly() {
        let g = topology::path(4).unwrap();
        for p in [Protocol::Wave, Protocol::Leader, Protocol::Multicast] {
            assert!(matches!(
                p.run(&g, 0.05, 1),
                Err(AppError::NoiseUnsupported { .. })
            ));
        }
    }

    #[test]
    fn outcomes_are_deterministic() {
        let g = topology::grid(3, 3).unwrap();
        for p in [Protocol::Matching, Protocol::RoundSim, Protocol::Wave] {
            let a = p.run(&g, 0.0, 11).unwrap();
            let b = p.run(&g, 0.0, 11).unwrap();
            assert_eq!(a, b, "{}", p.name());
        }
    }

    #[test]
    fn invalid_epsilon_is_an_error() {
        let g = topology::path(4).unwrap();
        let err = Protocol::Matching.run(&g, 0.7, 1).unwrap_err();
        assert!(matches!(err, AppError::Net(_)), "{err}");
    }

    #[test]
    fn run_with_faults_matches_run_for_iid_and_noiseless_channels() {
        let g = topology::cycle(6).unwrap();
        let iid: ChannelModel = Noise::bernoulli(0.05).into();
        for p in [Protocol::Matching, Protocol::RoundSim, Protocol::Tdma] {
            assert_eq!(
                p.run_with_faults(&g, &iid, &FaultPlan::none(), 7).unwrap(),
                p.run(&g, 0.05, 7).unwrap(),
                "{}",
                p.name()
            );
        }
        let clean: ChannelModel = Noise::Noiseless.into();
        assert_eq!(
            Protocol::Wave
                .run_with_faults(&g, &clean, &FaultPlan::none(), 5)
                .unwrap(),
            Protocol::Wave.run(&g, 0.0, 5).unwrap()
        );
    }

    #[test]
    fn every_noisy_protocol_runs_under_stochastic_channel_families() {
        use beep_net::{GilbertElliott, PerNodeEps};
        let g = topology::cycle(6).unwrap();
        let channels: Vec<ChannelModel> = vec![
            GilbertElliott::try_new(0.01, 0.1, 0.2, 0.5).unwrap().into(),
            PerNodeEps::try_new(vec![0.0, 0.05]).unwrap().into(),
        ];
        for ch in &channels {
            for p in Protocol::ALL.iter().filter(|p| p.supports_noise()) {
                let out = p
                    .run_with_faults(&g, ch, &FaultPlan::none(), 7)
                    .unwrap_or_else(|e| panic!("{} under {}: {e}", p.name(), ch.label()));
                assert!(out.rounds > 0, "{} under {}", p.name(), ch.label());
            }
        }
    }

    #[test]
    fn adversarial_channel_runs_or_defeats_protocols_cleanly() {
        // The w.h.p. guarantees only hold against *stochastic* noise; a
        // budgeted adversary is allowed to defeat a protocol. What must
        // hold: every run either completes or fails with a reportable
        // error (campaigns record those as failed cells) — never a panic
        // or a protocol/channel mismatch.
        let ch: ChannelModel = beep_net::AdversarialErasure::try_new(1, 0.05)
            .unwrap()
            .into();
        let g = topology::cycle(6).unwrap();
        for p in Protocol::ALL.iter().filter(|p| p.supports_noise()) {
            match p.run_with_faults(&g, &ch, &FaultPlan::none(), 7) {
                Ok(out) => assert!(out.rounds > 0, "{}", p.name()),
                Err(AppError::InvalidOutput { .. } | AppError::Sim(_)) => {}
                Err(e) => panic!("{} under {}: unexpected {e}", p.name(), ch.label()),
            }
        }
    }

    #[test]
    fn noiseless_primitives_reject_noisy_channels_as_unsupported() {
        let g = topology::path(4).unwrap();
        let ge: ChannelModel = beep_net::GilbertElliott::try_new(0.0, 0.2, 0.5, 0.5)
            .unwrap()
            .into();
        for p in [Protocol::Wave, Protocol::Leader, Protocol::Multicast] {
            let err = p
                .run_with_faults(&g, &ge, &FaultPlan::none(), 1)
                .unwrap_err();
            assert!(matches!(err, AppError::NoiseUnsupported { .. }), "{err}");
            assert!(err.to_string().contains("ge-"), "{err}");
        }
        // A noiseless instance of a fancy model is not a mismatch.
        let clean: ChannelModel = beep_net::AdversarialErasure::try_new(0, 0.1)
            .unwrap()
            .into();
        assert!(Protocol::Wave
            .run_with_faults(&g, &clean, &FaultPlan::none(), 1)
            .is_ok());
    }

    #[test]
    fn exactly_the_fault_tolerant_family_supports_faults() {
        let family = [
            Protocol::BeepConsensus,
            Protocol::BeepBenOr,
            Protocol::BeepReliableBroadcast,
            Protocol::BeepLeaderReelect,
        ];
        for p in Protocol::ALL {
            assert_eq!(p.supports_faults(), family.contains(&p), "{}", p.name());
            // Every fault-tolerant protocol is also noisy-capable: a
            // faulted sweep always has a legal noisy axis to pair with.
            if p.supports_faults() {
                assert!(p.supports_noise(), "{}", p.name());
            }
        }
    }

    #[test]
    fn fault_tolerant_family_survives_realized_plans_on_complete_graphs() {
        use beep_net::{FaultKind, FaultPlan};
        let g = topology::complete(10).unwrap();
        let ch: ChannelModel = Noise::bernoulli(0.1).into();
        for p in [
            Protocol::BeepBenOr,
            Protocol::BeepReliableBroadcast,
            Protocol::BeepLeaderReelect,
        ] {
            for kind in [
                FaultKind::Crash { round: 4 },
                FaultKind::ByzantineSpam,
                FaultKind::ByzantineMute,
            ] {
                let plan = FaultPlan::realize(10, 0.2, kind, 11).unwrap();
                let out = p
                    .run_with_faults(&g, &ch, &plan, 11)
                    .unwrap_or_else(|e| panic!("{} under {kind:?}: {e}", p.name()));
                assert!(out.success, "{} under {kind:?}", p.name());
            }
        }
    }

    #[test]
    fn non_tolerant_protocols_reject_fault_plans_as_unsupported() {
        use beep_net::{FaultKind, FaultPlan};
        let g = topology::cycle(6).unwrap();
        let plan = FaultPlan::realize(6, 0.34, FaultKind::ByzantineMute, 3).unwrap();
        let clean: ChannelModel = Noise::Noiseless.into();
        for p in Protocol::ALL.iter().filter(|p| !p.supports_faults()) {
            let err = p.run_with_faults(&g, &clean, &plan, 1).unwrap_err();
            assert!(
                matches!(err, AppError::FaultsUnsupported { .. }),
                "{}: {err}",
                p.name()
            );
        }
    }

    #[test]
    fn consensus_survives_realized_fault_plans_on_complete_graphs() {
        use beep_net::{FaultKind, FaultPlan};
        let g = topology::complete(10).unwrap();
        let ch: ChannelModel = Noise::bernoulli(0.1).into();
        for kind in [
            FaultKind::Crash { round: 4 },
            FaultKind::ByzantineSpam,
            FaultKind::ByzantineMute,
        ] {
            let plan = FaultPlan::realize(10, 0.3, kind, 11).unwrap();
            assert_eq!(plan.len(), 3);
            let out = Protocol::BeepConsensus
                .run_with_faults(&g, &ch, &plan, 11)
                .unwrap();
            assert!(out.success, "{}: verdict failed", kind.keyword());
            assert!(out.rounds > 0);
            let faulty = out
                .metrics
                .iter()
                .find(|(k, _)| *k == "faulty_nodes")
                .unwrap()
                .1;
            assert_eq!(faulty, 3.0);
        }
    }

    #[test]
    fn out_of_range_fault_plan_is_a_net_error() {
        use beep_net::{FaultKind, FaultPlan};
        let g = topology::path(4).unwrap();
        let plan = FaultPlan::try_from_assignments(vec![(9, FaultKind::ByzantineSpam)]).unwrap();
        let clean: ChannelModel = Noise::Noiseless.into();
        let err = Protocol::BeepConsensus
            .run_with_faults(&g, &clean, &plan, 0)
            .unwrap_err();
        assert!(matches!(err, AppError::Net(_)), "{err}");
    }
}
