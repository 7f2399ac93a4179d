//! Crash-fault leader election on noisy beeps that *re-elects* when the
//! leader goes silent.
//!
//! The wave-based [`beep_leader_election`](crate::beep_leader_election)
//! elects once on a noiseless channel and assumes every node stays up.
//! This module runs on the noisy channel under a [`FaultPlan`] and treats
//! leadership as a *lease*: nodes monitor the leader's heartbeat and run a
//! fresh election when it stops.
//!
//! # Protocol
//!
//! Time is divided into `E` epochs. All communication uses one primitive:
//! a **flood** of `diameter + 2` subphases, each `R` beep slots — a node
//! "in" the flood beeps every slot of a subphase, and a node that hears a
//! majority of a subphase's slots joins the flood from the next subphase
//! on. After a flood, every correct node connected to an initiator has
//! w.h.p. heard it. Each epoch runs, in order:
//!
//! 1. **alarm flood** — initiated by every node that missed the last
//!    epoch's heartbeat (epoch 0: everyone — there is no leader yet). The
//!    flood turns local suspicion into a shared re-election signal.
//! 2. **election**, `⌈log₂ n⌉` bit-floods, highest bit first — skipped
//!    (nodes neither bid nor update) by nodes that did not hear the
//!    alarm. A candidate initiates bit-flood `i` iff bit `i` of its id is
//!    1; candidates whose bit is 0 drop out when the flood comes back
//!    positive. Every alarmed node decodes the winner's id from the flood
//!    outcomes (the classic bit-bidding election, flood-relayed so it
//!    works beyond one hop).
//! 3. **heartbeat flood** — initiated by the node whose id equals its own
//!    believed leader. Nodes that do not hear it will raise the alarm
//!    next epoch.
//!
//! A crashed leader cannot beep its heartbeat, so every correct node
//! alarms and the next epoch elects the highest-id *live* candidate; a
//! decode perturbed by noise can name a nonexistent id, in which case no
//! heartbeat follows and the same re-election path self-corrects.
//!
//! # Fault tolerance (and its honest limits)
//!
//! * **Crash**: the design case — detection plus re-election within one
//!   epoch, w.h.p., while the correct nodes stay connected.
//! * **Byzantine mute**: a mute candidate can never broadcast its bits, so
//!   correct nodes elect around it (it is faulty, so its own belief
//!   carries no guarantee).
//! * **Byzantine spam** is this protocol's documented *defeat*: a spammer
//!   drives every flood positive — the perpetual phantom alarm forces a
//!   re-election every epoch, every election decodes the all-ones phantom
//!   id `2^⌈log₂ n⌉ − 1`, and the fabricated heartbeat makes the phantom
//!   look alive — so correct nodes stay stuck following a leader that
//!   (when that id `≥ n`) does not exist (the defeat test asserts exactly
//!   this stuck state).

use crate::consensus::{consensus_slots_per_phase, SlotVotes};
use crate::error::AppError;
use beep_bits::BitVec;
use beep_net::{BeepNetwork, ChannelModel, FaultPlan, Graph};

/// Outcome of one [`beep_leader_reelect`] run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeaderReelectReport {
    /// Per-node believed leader id at the end of the run (`None` = the
    /// node never completed an election). Faulty nodes' entries carry no
    /// guarantee. A value `≥ n` is a phantom id (see the module docs).
    pub leaders: Vec<Option<usize>>,
    /// Epochs in which at least one node heard the alarm (and so ran the
    /// election) — epoch 0 is always present.
    pub alarmed_epochs: Vec<usize>,
    /// Beep rounds executed.
    pub rounds: usize,
    /// Total beeps emitted (energy), faults included.
    pub beeps: u64,
    /// Epochs run.
    pub epochs: usize,
    /// Beep slots per flood subphase.
    pub slots_per_phase: usize,
}

/// Runs `epochs` epochs of heartbeat-monitored leader election over noisy
/// beeps under a [`FaultPlan`].
///
/// The run is a pure function of `(graph, channel, faults, seed, epochs)`.
/// See the module docs for the protocol, its guarantees, and its
/// documented defeat under spam.
///
/// # Errors
///
/// * [`AppError::InvalidOutput`] if the graph is empty or `epochs == 0`.
/// * [`AppError::Net`] if the fault plan names a node `≥ n` or the engine
///   rejects a round.
pub fn beep_leader_reelect(
    graph: &Graph,
    channel: &ChannelModel,
    faults: &FaultPlan,
    seed: u64,
    epochs: usize,
) -> Result<LeaderReelectReport, AppError> {
    let n = graph.node_count();
    if n == 0 {
        return Err(AppError::InvalidOutput {
            detail: "cannot re-elect a leader of nothing".into(),
        });
    }
    if epochs == 0 {
        return Err(AppError::InvalidOutput {
            detail: "leader re-election needs at least one epoch".into(),
        });
    }
    let mut net = BeepNetwork::new(graph.clone(), channel.clone(), seed);
    net.set_fault_plan(faults.clone())?;
    let subphases = graph.diameter().unwrap_or(n.saturating_sub(1)).max(1) + 2;
    let bits = usize::BITS as usize - (n - 1).max(1).leading_zeros() as usize;
    let floods_per_epoch = 1 + bits + 1;
    let slots = consensus_slots_per_phase(
        n,
        epochs * floods_per_epoch * subphases,
        channel.calibration_epsilon(),
    );
    let mut leaders: Vec<Option<usize>> = vec![None; n];
    // Every node starts leaderless, so every node raises the first alarm.
    let mut alarm = BitVec::ones(n);
    let mut alarmed_epochs = Vec::new();
    let mut votes = SlotVotes::default();
    for epoch in 0..epochs {
        let heard_alarm = flood(&mut net, &mut votes, &alarm, subphases, slots)?;
        if heard_alarm.count_ones() > 0 {
            alarmed_epochs.push(epoch);
        }
        // Election: bit-bidding over bit-floods, highest bit first. Nodes
        // that did not hear the alarm relay the floods (flooding is pure
        // communication) but neither bid nor decode.
        let mut in_race = heard_alarm.clone();
        let mut decoded = vec![0usize; n];
        for bit in (0..bits).rev() {
            let bidders = BitVec::from_fn(n, |v| in_race.get(v) && (v >> bit) & 1 == 1);
            let heard_bit = flood(&mut net, &mut votes, &bidders, subphases, slots)?;
            for (v, d) in decoded.iter_mut().enumerate() {
                if !heard_alarm.get(v) {
                    continue;
                }
                if heard_bit.get(v) {
                    *d |= 1 << bit;
                    if (v >> bit) & 1 == 0 {
                        in_race.set(v, false);
                    }
                }
            }
        }
        for v in heard_alarm.iter_ones() {
            leaders[v] = Some(decoded[v]);
        }
        // Heartbeat: the believed leader (if it exists and believes in
        // itself) floods; everyone else listens for the lease renewal.
        let beaters = BitVec::from_fn(n, |v| leaders[v] == Some(v));
        let heard_beat = flood(&mut net, &mut votes, &beaters, subphases, slots)?;
        alarm = !&heard_beat;
    }
    let stats = net.stats();
    Ok(LeaderReelectReport {
        leaders,
        alarmed_epochs,
        rounds: stats.rounds,
        beeps: stats.beeps,
        epochs,
        slots_per_phase: slots,
    })
}

/// One OR-flood: `initiators` start beeping; any node that hears a
/// majority of a subphase's `slots` slots joins from the next subphase.
/// Returns the per-node "was reached" set (initiators included).
fn flood(
    net: &mut BeepNetwork,
    votes: &mut SlotVotes,
    initiators: &BitVec,
    subphases: usize,
    slots: usize,
) -> Result<BitVec, AppError> {
    let mut active = initiators.clone();
    for _ in 0..subphases {
        let verdict = votes.vote(net, &active, slots)?;
        active.or_assign(&verdict);
    }
    Ok(active)
}

#[cfg(test)]
mod tests {
    use super::*;
    use beep_net::{topology, FaultKind, Noise};

    fn clean() -> ChannelModel {
        Noise::Noiseless.into()
    }

    #[test]
    fn fault_free_run_elects_the_highest_id_once() {
        for g in [topology::complete(8).unwrap(), topology::path(5).unwrap()] {
            let n = g.node_count();
            let r = beep_leader_reelect(&g, &clean(), &FaultPlan::none(), 1, 3).unwrap();
            assert!(
                r.leaders.iter().all(|&l| l == Some(n - 1)),
                "{:?}",
                r.leaders
            );
            // The heartbeat holds, so only epoch 0 runs an election.
            assert_eq!(r.alarmed_epochs, vec![0]);
        }
    }

    #[test]
    fn crashed_leader_triggers_reelection_of_the_next_id() {
        let g = topology::complete(8).unwrap();
        // Node 7 wins epoch 0, then crashes mid-run: its heartbeat stops,
        // the alarm floods, and epoch 2 elects node 6.
        let r_probe = beep_leader_reelect(&g, &clean(), &FaultPlan::none(), 1, 1).unwrap();
        let epoch_rounds = r_probe.rounds;
        let crash_round = epoch_rounds + epoch_rounds / 2;
        let plan = FaultPlan::try_from_assignments(vec![(
            7,
            FaultKind::Crash {
                round: crash_round as u64,
            },
        )])
        .unwrap();
        let r = beep_leader_reelect(&g, &clean(), &plan, 1, 3).unwrap();
        assert!(
            (0..7).all(|v| r.leaders[v] == Some(6)),
            "{:?} (alarmed {:?})",
            r.leaders,
            r.alarmed_epochs
        );
        assert!(r.alarmed_epochs.len() >= 2, "{:?}", r.alarmed_epochs);
    }

    #[test]
    fn noisy_runs_agree_on_the_leader_whp() {
        let g = topology::complete(8).unwrap();
        let ch: ChannelModel = Noise::bernoulli(0.1).into();
        let mut agreed = 0;
        for seed in 0..10 {
            let r = beep_leader_reelect(&g, &ch, &FaultPlan::none(), seed, 2).unwrap();
            if r.leaders.iter().all(|&l| l == Some(7)) {
                agreed += 1;
            }
        }
        assert!(agreed >= 9, "only {agreed}/10 noisy runs agreed on node 7");
    }

    #[test]
    fn mute_candidates_are_elected_around() {
        let g = topology::complete(8).unwrap();
        let plan = FaultPlan::try_from_assignments(vec![(7, FaultKind::ByzantineMute)]).unwrap();
        let r = beep_leader_reelect(&g, &clean(), &plan, 3, 2).unwrap();
        assert!((0..7).all(|v| r.leaders[v] == Some(6)), "{:?}", r.leaders);
    }

    #[test]
    fn spam_defeat_installs_a_phantom_leader_forever() {
        // The documented defeat condition, asserted rather than skipped: a
        // spammer forces every flood positive — perpetual phantom alarm,
        // every election decoding the all-ones id 7 (nonexistent at
        // n = 6), and a fabricated heartbeat keeping the phantom "alive".
        let g = topology::complete(6).unwrap();
        let plan = FaultPlan::try_from_assignments(vec![(2, FaultKind::ByzantineSpam)]).unwrap();
        let r = beep_leader_reelect(&g, &clean(), &plan, 5, 3).unwrap();
        let phantom = 7; // 3 bit-floods, all forced to 1; no such node
        assert!(
            (0..6)
                .filter(|&v| v != 2)
                .all(|v| r.leaders[v] == Some(phantom)),
            "{:?}",
            r.leaders
        );
        // The spammer's phantom alarm re-runs the (phantom) election in
        // every epoch — correct nodes never escape.
        assert_eq!(r.alarmed_epochs, vec![0, 1, 2]);
    }

    #[test]
    fn deterministic_in_the_seed() {
        let g = topology::grid(3, 3).unwrap();
        let ch: ChannelModel = Noise::bernoulli(0.05).into();
        let plan = FaultPlan::realize(9, 0.2, FaultKind::ByzantineMute, 13).unwrap();
        let a = beep_leader_reelect(&g, &ch, &plan, 7, 2).unwrap();
        let b = beep_leader_reelect(&g, &ch, &plan, 7, 2).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn zero_epochs_is_an_error() {
        let g = topology::path(4).unwrap();
        let err = beep_leader_reelect(&g, &clean(), &FaultPlan::none(), 0, 0).unwrap_err();
        assert!(matches!(err, AppError::InvalidOutput { .. }), "{err}");
    }
}
