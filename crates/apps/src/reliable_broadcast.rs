//! Reliable broadcast on noisy beeps: Bracha's echo/ready pattern
//! collapsed onto a carrier-sense channel.
//!
//! On a beeping channel a message has no payload — what a node can
//! reliably learn is *that the source initiated a broadcast*. This module
//! ports the echo/ready skeleton of Bracha-style reliable broadcast to
//! that single-bit setting: the counted `2f+1` / `f+1` thresholds become
//! majority-of-slots beep voting (the carrier-sense OR replaces quorum
//! counting), and the echo and ready waves each flood one hop per phase.
//!
//! # Protocol
//!
//! Time is divided into `P` phases of three slot groups, each `R` slots:
//!
//! * **init group** — the source beeps every slot while it still holds
//!   the message (phase 0 is the send; later phases keep it hot for
//!   late joiners);
//! * **echo group** — a node that has accepted the message (heard init or
//!   echo in an earlier phase, majority of slots) beeps;
//! * **ready group** — a node that has heard echo (earlier phase) beeps;
//!   a node **delivers** when it hears the ready group.
//!
//! Acceptance, readiness and delivery are all monotone, so with
//! `P = 2·(diameter + 2)` the echo wave and then the ready wave each have
//! time to cross the correct subgraph, giving the classic properties among
//! correct nodes w.h.p.: **validity** (a correct source's broadcast is
//! delivered by every correct node connected to it through correct paths)
//! and **totality** (if any correct node delivers, every correct node in
//! its correct component delivers — in particular under Byzantine-mute
//! fractions below the disconnection threshold, which on a complete graph
//! is every fraction `< 1`).
//!
//! # Fault tolerance (and its honest limits)
//!
//! * **Crash / mute** nodes drop out of every group; the waves route
//!   around them while the correct subgraph stays connected. A source
//!   that is mute (or crashes before sending) broadcasts nothing, and no
//!   correct node delivers.
//! * **Byzantine spam** is this protocol's documented *defeat*: a spammer
//!   beeps in every slot of every group, so its neighbors read a phantom
//!   init/echo/ready cascade and deliver a broadcast the source never
//!   sent — validity is broken (the defeat test asserts the phantom
//!   delivery; totality still holds, everyone delivers the phantom).

use crate::consensus::{consensus_slots_per_phase, SlotVotes};
use crate::error::AppError;
use beep_bits::BitVec;
use beep_net::{BeepNetwork, ChannelModel, FaultPlan, Graph};

/// Outcome of one [`beep_reliable_broadcast`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReliableBroadcastReport {
    /// Per-node delivery flags (faulty nodes included; their entries carry
    /// no guarantee).
    pub delivered: Vec<bool>,
    /// Per-node 0-based phase of first delivery (`None` = never).
    pub delivery_phase: Vec<Option<usize>>,
    /// Beep rounds executed (`phases × 3 × slots_per_phase`).
    pub rounds: usize,
    /// Total beeps emitted (energy), faults included.
    pub beeps: u64,
    /// Phases run (`2 · (diameter + 2)`).
    pub phases: usize,
    /// Beep slots per slot group.
    pub slots_per_phase: usize,
}

/// Runs one reliable broadcast from `source` over noisy beeps under a
/// [`FaultPlan`].
///
/// The run is a pure function of `(graph, channel, faults, seed, source)`.
/// See the module docs for the protocol, its guarantees, and its
/// documented defeat under spam.
///
/// # Errors
///
/// * [`AppError::InvalidOutput`] if `source ≥ n`.
/// * [`AppError::Net`] if the fault plan names a node `≥ n` or the engine
///   rejects a round.
pub fn beep_reliable_broadcast(
    graph: &Graph,
    channel: &ChannelModel,
    faults: &FaultPlan,
    seed: u64,
    source: usize,
) -> Result<ReliableBroadcastReport, AppError> {
    let n = graph.node_count();
    if source >= n {
        return Err(AppError::InvalidOutput {
            detail: format!("reliable broadcast source {source} out of range for {n} nodes"),
        });
    }
    let mut net = BeepNetwork::new(graph.clone(), channel.clone(), seed);
    net.set_fault_plan(faults.clone())?;
    let phases = 2 * (graph.diameter().unwrap_or(n.saturating_sub(1)).max(1) + 2);
    let slots = consensus_slots_per_phase(n, 3 * phases, channel.calibration_epsilon());
    let mut accepted = BitVec::zeros(n); // heard init or echo
    let mut ready = BitVec::zeros(n); // heard echo
    let mut delivered = BitVec::zeros(n); // heard ready
    let mut delivery_phase = vec![None; n];
    let mut votes = SlotVotes::default();
    let init = BitVec::from_indices(n, [source]);
    for phase in 0..phases {
        let heard_init = votes.vote(&mut net, &init, slots)?;
        let heard_echo = votes.vote(&mut net, &accepted, slots)?;
        let heard_ready = votes.vote(&mut net, &ready, slots)?;
        // Monotone state advances from this phase's observations; each
        // wave starts beeping in the *next* phase (one hop per phase).
        for (v, slot) in delivery_phase.iter_mut().enumerate() {
            if heard_init.get(v) || heard_echo.get(v) {
                accepted.set(v, true);
            }
            if heard_echo.get(v) {
                ready.set(v, true);
            }
            if heard_ready.get(v) && !delivered.get(v) {
                delivered.set(v, true);
                *slot = Some(phase);
            }
        }
    }
    let stats = net.stats();
    Ok(ReliableBroadcastReport {
        delivered: (0..n).map(|v| delivered.get(v)).collect(),
        delivery_phase,
        rounds: stats.rounds,
        beeps: stats.beeps,
        phases,
        slots_per_phase: slots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use beep_net::{topology, FaultKind, Noise};

    fn clean() -> ChannelModel {
        Noise::Noiseless.into()
    }

    #[test]
    fn correct_source_reaches_everyone_noiselessly() {
        // Path graph: the waves genuinely have to travel hop by hop.
        let g = topology::path(6).unwrap();
        let r = beep_reliable_broadcast(&g, &clean(), &FaultPlan::none(), 1, 0).unwrap();
        assert!(r.delivered.iter().all(|&d| d), "{:?}", r.delivered);
        // Farther nodes deliver no earlier than nearer ones.
        for v in 1..6 {
            assert!(r.delivery_phase[v] >= r.delivery_phase[v - 1]);
        }
        assert_eq!(r.rounds, r.phases * 3 * r.slots_per_phase);
    }

    #[test]
    fn noisy_validity_and_totality_whp() {
        let g = topology::complete(8).unwrap();
        let ch: ChannelModel = Noise::bernoulli(0.1).into();
        for seed in 0..10 {
            let r = beep_reliable_broadcast(&g, &ch, &FaultPlan::none(), seed, 2).unwrap();
            assert!(r.delivered.iter().all(|&d| d), "seed {seed}");
        }
    }

    #[test]
    fn totality_holds_under_mute_fractions_below_threshold() {
        // A quarter of the nodes are mute: the correct subgraph of a
        // complete graph stays connected, so either every correct node
        // delivers or none does — and with a correct source, every one.
        let g = topology::complete(12).unwrap();
        let ch: ChannelModel = Noise::bernoulli(0.05).into();
        for seed in 0..5 {
            let plan = FaultPlan::realize(12, 0.25, FaultKind::ByzantineMute, seed).unwrap();
            let muted: Vec<usize> = plan.assignments().iter().map(|&(v, _)| v).collect();
            let source = (0..12).find(|v| !muted.contains(v)).unwrap();
            let r = beep_reliable_broadcast(&g, &ch, &plan, seed, source).unwrap();
            let correct: Vec<usize> = (0..12).filter(|v| !muted.contains(v)).collect();
            assert!(
                correct.iter().all(|&v| r.delivered[v]),
                "seed {seed}: {:?}",
                r.delivered
            );
        }
    }

    #[test]
    fn silent_source_delivers_nothing() {
        let g = topology::complete(6).unwrap();
        for kind in [FaultKind::ByzantineMute, FaultKind::Crash { round: 0 }] {
            let plan = FaultPlan::try_from_assignments(vec![(0, kind)]).unwrap();
            let r = beep_reliable_broadcast(&g, &clean(), &plan, 3, 0).unwrap();
            assert!(
                (1..6).all(|v| !r.delivered[v]),
                "{kind:?}: {:?}",
                r.delivered
            );
        }
    }

    #[test]
    fn spam_defeat_fabricates_a_delivery() {
        // The documented defeat condition, asserted rather than skipped: a
        // spammer next to a *silent* source still drives every correct
        // node to deliver a phantom broadcast.
        let g = topology::complete(6).unwrap();
        let plan = FaultPlan::try_from_assignments(vec![
            (0, FaultKind::ByzantineMute), // the source never speaks
            (3, FaultKind::ByzantineSpam),
        ])
        .unwrap();
        let r = beep_reliable_broadcast(&g, &clean(), &plan, 7, 0).unwrap();
        assert!(
            (0..6).filter(|&v| v != 3).all(|v| r.delivered[v]),
            "spam failed to fabricate delivery: {:?}",
            r.delivered
        );
    }

    #[test]
    fn deterministic_in_the_seed() {
        let g = topology::grid(3, 3).unwrap();
        let ch: ChannelModel = Noise::bernoulli(0.05).into();
        let plan = FaultPlan::realize(9, 0.2, FaultKind::ByzantineMute, 11).unwrap();
        let a = beep_reliable_broadcast(&g, &ch, &plan, 7, 4).unwrap();
        let b = beep_reliable_broadcast(&g, &ch, &plan, 7, 4).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn out_of_range_source_is_an_error() {
        let g = topology::path(4).unwrap();
        let err = beep_reliable_broadcast(&g, &clean(), &FaultPlan::none(), 0, 9).unwrap_err();
        assert!(matches!(err, AppError::InvalidOutput { .. }), "{err}");
    }
}
