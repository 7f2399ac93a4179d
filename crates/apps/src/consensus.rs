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

/// Longest frame a slot vote runs at once: one word of rounds, the
/// engine's frame block, so the frame and heard buffers hold one word per
/// node however many slots the channel's noise calls for.
const VOTE_FRAME_ROUNDS: usize = u64::BITS as usize;

/// The frame and heard buffers of one protocol run's slot votes, reused
/// from vote to vote.
#[derive(Debug, Default)]
pub(crate) struct SlotVotes {
    frames: Vec<Option<BitVec>>,
    heard: Vec<BitVec>,
    counts: Vec<usize>,
}

impl SlotVotes {
    /// One slot vote: `beepers` beep in each of `slots` rounds, run as
    /// frames of at most [`VOTE_FRAME_ROUNDS`] rounds in which every
    /// beeper transmits all ones, and the verdict holds the nodes that
    /// heard a majority of them (`2·heard ≥ slots`).
    pub(crate) fn vote(
        &mut self,
        net: &mut BeepNetwork,
        beepers: &BitVec,
        slots: usize,
    ) -> Result<BitVec, AppError> {
        let n = beepers.len();
        self.frames.resize(n, None);
        self.counts.clear();
        self.counts.resize(n, 0);
        let mut left = slots;
        while left > 0 {
            let rounds = left.min(VOTE_FRAME_ROUNDS);
            for (v, frame) in self.frames.iter_mut().enumerate() {
                if !beepers.get(v) {
                    *frame = None;
                } else if frame.as_ref().is_none_or(|f| f.len() != rounds) {
                    *frame = Some(BitVec::ones(rounds));
                }
            }
            net.run_frame_into(&self.frames, rounds, &mut self.heard)?;
            for (count, heard) in self.counts.iter_mut().zip(&self.heard) {
                *count += heard.count_ones();
            }
            left -= rounds;
        }
        Ok(BitVec::from_fn(n, |v| 2 * self.counts[v] >= slots))
    }
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
    let mut votes = SlotVotes::default();
    for _ in 0..phases {
        let verdict = votes.vote(&mut net, &value, slots)?;
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

    #[test]
    fn slot_votes_match_counting_round_by_round() {
        // A vote runs as frames of at most one word of rounds; its verdict
        // and every engine counter must equal those of the same slots
        // driven one round at a time, whether the vote fits one frame or
        // spans several, under static and adaptive plans.
        use beep_net::AdaptivePolicy;
        let g = topology::torus(9, 10).unwrap();
        let n = g.node_count();
        let ch: ChannelModel = Noise::bernoulli(0.2).into();
        let plans = [
            FaultPlan::none(),
            FaultPlan::try_from_assignments(vec![
                (3, FaultKind::ByzantineSpam),
                (40, FaultKind::ByzantineMute),
                (77, FaultKind::Crash { round: 100 }),
            ])
            .unwrap(),
            FaultPlan::from_policy(AdaptivePolicy::TargetLoudest { budget: 6 }),
        ];
        let beepers = BitVec::from_fn(n, |v| v % 4 == 1);
        for plan in plans {
            for slots in [1, 37, 64, 65, 130, 200] {
                let mut framed = BeepNetwork::new(g.clone(), ch.clone(), 5);
                framed.set_fault_plan(plan.clone()).unwrap();
                let mut stepped = BeepNetwork::new(g.clone(), ch.clone(), 5);
                stepped.set_fault_plan(plan.clone()).unwrap();
                let mut votes = SlotVotes::default();
                let mut received = BitVec::zeros(n);
                for vote in 0..3 {
                    let verdict = votes.vote(&mut framed, &beepers, slots).unwrap();
                    let mut heard = vec![0; n];
                    for _ in 0..slots {
                        stepped
                            .run_round_bitset_into(&beepers, &mut received)
                            .unwrap();
                        for v in received.iter_ones() {
                            heard[v] += 1;
                        }
                    }
                    let expected = BitVec::from_fn(n, |v| 2 * heard[v] >= slots);
                    assert_eq!(verdict, expected, "slots {slots} vote {vote} {plan:?}");
                }
                assert_eq!(framed.stats(), stepped.stats(), "slots {slots} {plan:?}");
                assert_eq!(framed.beeps_by_node(), stepped.beeps_by_node());
            }
        }
    }
}
