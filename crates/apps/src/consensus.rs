//! Binary consensus on noisy beeps — the fault layer's proof workload.
//!
//! The registry's other protocols assume every node is correct; this
//! module brings up the first protocol *designed* for the fault layer: a
//! 1-biased ("OR") binary consensus built directly on the paper's noisy
//! beep primitive, in the style of the phase-vote consensus shapes of
//! Ben-Or-family protocols, collapsed onto a carrier-sense channel.
//!
//! # Protocol
//!
//! Every node starts with a binary input. Time is divided into `P` phases
//! of `R` beep rounds ("slots") each:
//!
//! * a node whose current value is 1 beeps in every slot of the phase;
//!   a node whose value is 0 listens;
//! * at the end of a phase, a node adopts value 1 iff it heard a beep in
//!   at least half of the phase's slots (`2·heard ≥ R`);
//! * values are **monotone**: a node that reaches 1 never returns to 0.
//!   After `P` phases each node decides its current value.
//!
//! With `P = diameter + 2` and `R` chosen by a Hoeffding bound
//! ([`consensus_slots_per_phase`]), a 1 held by any correct node floods
//! the correct subgraph w.h.p. (one hop per phase, noise out-voted within
//! each phase), and a network holding only 0s stays silent w.h.p. —
//! giving **agreement** and **validity** among correct nodes.
//!
//! # Fault tolerance (and its honest limits)
//!
//! * **Crash** faults: a crashed node stops beeping and hears nothing;
//!   monotonicity keeps the survivors consistent. Both agreement and
//!   validity hold as long as the *correct* nodes remain connected
//!   through correct paths and the phase budget covers the correct
//!   subgraph's diameter — on the complete graphs the checked-in
//!   `scenarios/faults.toml` campaign sweeps, that is every fraction
//!   `< 1`. On sparse topologies a crash set that disconnects the
//!   correct nodes can legitimately split the decision.
//! * **Byzantine mute** is a degenerate crash (never beeps, still
//!   listens): same guarantees.
//! * **Byzantine spam** is indistinguishable from an honest node whose
//!   input is 1 on a carrier-sense channel, so it cannot break
//!   agreement — it forces the decision to 1 (the registry's success
//!   verdict accounts for exactly that).

use crate::error::AppError;
use beep_bits::BitVec;
use beep_net::{BeepNetwork, ChannelModel, FaultPlan, Graph};

/// Outcome of one [`beep_consensus`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsensusReport {
    /// Per-node decided values (faulty nodes included; their entries are
    /// whatever their halted/overridden protocol state held and carry no
    /// guarantee).
    pub decisions: Vec<bool>,
    /// Beep rounds executed (`phases × slots_per_phase`).
    pub rounds: usize,
    /// Total beeps emitted (energy), faults included.
    pub beeps: u64,
    /// Phases run (`diameter + 2`).
    pub phases: usize,
    /// Beep slots per phase (see [`consensus_slots_per_phase`]).
    pub slots_per_phase: usize,
}

/// Slots each consensus phase needs so that per-slot noise is out-voted
/// w.h.p.: `1` when the channel is exact, otherwise the Hoeffding bound
/// `⌈ln(100·n·P) / (2·(½ − ε)²)⌉`, which drives the probability that any
/// of the `n` nodes mis-reads any of the `P` phases below `1/100`.
#[must_use]
pub fn consensus_slots_per_phase(n: usize, phases: usize, epsilon: f64) -> usize {
    if epsilon == 0.0 {
        return 1;
    }
    let margin = 0.5 - epsilon;
    #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
    let slots = ((100.0 * n as f64 * phases as f64).ln() / (2.0 * margin * margin)).ceil() as usize;
    slots.max(1)
}

/// One slot vote: `beepers` beep in each of `slots` rounds, and the
/// verdict holds the nodes that heard a majority of them
/// (`2·heard ≥ slots`). `received` is the round scratch buffer.
pub(crate) fn slot_vote(
    net: &mut BeepNetwork,
    beepers: &BitVec,
    slots: usize,
    received: &mut BitVec,
) -> Result<BitVec, AppError> {
    let n = beepers.len();
    let mut heard = vec![0usize; n];
    for _ in 0..slots {
        net.run_round_bitset_into(beepers, received)?;
        for v in received.iter_ones() {
            heard[v] += 1;
        }
    }
    Ok(BitVec::from_fn(n, |v| 2 * heard[v] >= slots))
}

/// Runs 1-biased binary consensus over noisy beeps under a [`FaultPlan`].
///
/// `inputs[v]` is node `v`'s initial value; the run is a pure function of
/// `(graph, channel, faults, seed, inputs)`. See the module docs for the
/// protocol and its guarantees.
///
/// # Errors
///
/// * [`AppError::InvalidOutput`] if `inputs.len() != n`.
/// * [`AppError::Net`] if the fault plan names a node `≥ n` or the engine
///   rejects a round.
pub fn beep_consensus(
    graph: &Graph,
    channel: &ChannelModel,
    faults: &FaultPlan,
    seed: u64,
    inputs: &[bool],
) -> Result<ConsensusReport, AppError> {
    let n = graph.node_count();
    if inputs.len() != n {
        return Err(AppError::InvalidOutput {
            detail: format!("consensus got {} inputs for {n} nodes", inputs.len()),
        });
    }
    let mut net = BeepNetwork::new(graph.clone(), channel.clone(), seed);
    net.set_fault_plan(faults.clone())?;
    let phases = graph.diameter().unwrap_or(n.saturating_sub(1)).max(1) + 2;
    let slots = consensus_slots_per_phase(n, phases, channel.calibration_epsilon());
    let mut value = BitVec::from_fn(n, |v| inputs[v]);
    let mut received = BitVec::zeros(n);
    for _ in 0..phases {
        let verdict = slot_vote(&mut net, &value, slots, &mut received)?;
        value.or_assign(&verdict);
    }
    let stats = net.stats();
    Ok(ConsensusReport {
        decisions: (0..n).map(|v| value.get(v)).collect(),
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
    fn noiseless_all_zero_stays_zero_and_one_floods() {
        let g = topology::path(6).unwrap();
        let none = FaultPlan::none();
        let r = beep_consensus(&g, &clean(), &none, 1, &[false; 6]).unwrap();
        assert!(r.decisions.iter().all(|&d| !d));
        assert_eq!(r.beeps, 0);
        assert_eq!(r.rounds, r.phases * r.slots_per_phase);
        assert_eq!(r.slots_per_phase, 1);

        let mut inputs = [false; 6];
        inputs[0] = true; // one endpoint holds a 1: must flood the path
        let r = beep_consensus(&g, &clean(), &none, 1, &inputs).unwrap();
        assert!(r.decisions.iter().all(|&d| d), "{:?}", r.decisions);
    }

    #[test]
    fn noisy_run_reaches_agreement_and_validity() {
        let g = topology::complete(8).unwrap();
        let ch: ChannelModel = Noise::bernoulli(0.1).into();
        let none = FaultPlan::none();
        for seed in 0..5 {
            let r = beep_consensus(&g, &ch, &none, seed, &[false; 8]).unwrap();
            assert!(r.decisions.iter().all(|&d| !d), "seed {seed} invented a 1");
            let mut inputs = [false; 8];
            inputs[3] = true;
            let r = beep_consensus(&g, &ch, &none, seed, &inputs).unwrap();
            assert!(r.decisions.iter().all(|&d| d), "seed {seed} lost the 1");
            assert!(r.slots_per_phase > 1);
        }
    }

    #[test]
    fn crashed_holders_cannot_force_a_one_but_correct_holders_do() {
        let g = topology::complete(8).unwrap();
        // Nodes 0 and 1 hold the only 1s and crash before round 0.
        let plan = FaultPlan::try_from_assignments(vec![
            (0, FaultKind::Crash { round: 0 }),
            (1, FaultKind::Crash { round: 0 }),
        ])
        .unwrap();
        let mut inputs = [false; 8];
        inputs[0] = true;
        inputs[1] = true;
        let r = beep_consensus(&g, &clean(), &plan, 3, &inputs).unwrap();
        assert!((2..8).all(|v| !r.decisions[v]), "{:?}", r.decisions);

        // A correct holder floods the survivors regardless of the crashes.
        inputs[5] = true;
        let r = beep_consensus(&g, &clean(), &plan, 3, &inputs).unwrap();
        assert!((2..8).all(|v| r.decisions[v]), "{:?}", r.decisions);
    }

    #[test]
    fn spam_forces_one_and_mute_holders_stay_silent() {
        let g = topology::complete(6).unwrap();
        let spam = FaultPlan::try_from_assignments(vec![(2, FaultKind::ByzantineSpam)]).unwrap();
        let r = beep_consensus(&g, &clean(), &spam, 9, &[false; 6]).unwrap();
        assert!(
            (0..6).filter(|&v| v != 2).all(|v| r.decisions[v]),
            "{:?}",
            r.decisions
        );

        let mute = FaultPlan::try_from_assignments(vec![(2, FaultKind::ByzantineMute)]).unwrap();
        let mut inputs = [false; 6];
        inputs[2] = true; // the only 1 belongs to the mute node
        let r = beep_consensus(&g, &clean(), &mute, 9, &inputs).unwrap();
        assert!(
            (0..6).filter(|&v| v != 2).all(|v| !r.decisions[v]),
            "{:?}",
            r.decisions
        );
    }

    #[test]
    fn deterministic_in_the_seed() {
        let g = topology::grid(3, 3).unwrap();
        let ch: ChannelModel = Noise::bernoulli(0.05).into();
        let plan = FaultPlan::realize(9, 0.2, FaultKind::ByzantineMute, 42).unwrap();
        let mut inputs = [false; 9];
        inputs[4] = true;
        let a = beep_consensus(&g, &ch, &plan, 7, &inputs).unwrap();
        let b = beep_consensus(&g, &ch, &plan, 7, &inputs).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn input_length_mismatch_is_an_error() {
        let g = topology::path(4).unwrap();
        let err = beep_consensus(&g, &clean(), &FaultPlan::none(), 0, &[true; 3]).unwrap_err();
        assert!(matches!(err, AppError::InvalidOutput { .. }), "{err}");
    }
}
