//! Deterministic node-fault plans: the overlay between submitted actions
//! and the channel.
//!
//! The paper assumes every node runs its protocol faithfully. A
//! [`FaultPlan`] drops that assumption while keeping the engine's
//! determinism contract intact: it assigns a [`FaultKind`] to a subset of
//! nodes, and the engine applies the plan to the *submitted* actions of
//! every round before the neighborhood OR and the channel run. With a plan
//! installed, a transcript is a pure function of
//! `(graph, channel, faults, seed, actions, shard_count)`, because the
//! overlay edits the beeper bitmap before the neighborhood OR and never
//! touches the per-shard channel streams.
//!
//! Plans are either written down explicitly
//! ([`FaultPlan::try_from_assignments`]) or *realized* from a seed
//! ([`FaultPlan::realize`]): a fraction of the nodes is sampled without
//! replacement from the reserved [`FAULT_PLAN_STREAM`] shard of the same
//! counter-keyed generator the channel models use, so the faulty set is
//! reproducible from the seed alone and independent of every channel
//! stream.
//!
//! # Adaptive adversaries
//!
//! A static plan fixes its targets before round 0. An [`AdaptivePolicy`]
//! (installed with [`FaultPlan::with_policy`]) instead chooses fresh
//! per-round faults from what the adversary has *observed*: the round's
//! submitted beeper set (a rushing adversary sees submissions before
//! delivery), each node's cumulative beep count, and when the network was
//! last active. The choice is a pure function of that observed transcript
//! prefix plus the reserved [`ADAPTIVE_POLICY_STREAM`] — so adaptive runs
//! stay bit-identical at every shard count, and a policy draws from a
//! stream disjoint from both the channel streams and the static plan
//! realization stream.

use crate::error::NetError;
use crate::node::Action;
use crate::noise::noise_stream_seed;
use beep_bits::BitVec;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The reserved shard index of the fault-plan realization stream.
///
/// [`FaultPlan::realize`] draws its node sample from
/// `StdRng::seed_from_u64(noise_stream_seed(seed, 0, FAULT_PLAN_STREAM))`.
/// Like [`ROUND_STATE_STREAM`](crate::ROUND_STATE_STREAM) (`u64::MAX`),
/// this index is far outside any real shard range (shard counts are small
/// constants), so the plan's randomness never collides with a channel
/// noise stream or the Gilbert–Elliott state stream.
pub const FAULT_PLAN_STREAM: u64 = u64::MAX - 1;

/// The reserved shard index of the adaptive-adversary decision stream.
///
/// An [`AdaptivePolicy`] that needs randomness (e.g.
/// [`AdaptivePolicy::RushingSpam`]'s target selection) draws round `r`'s
/// choices from
/// `StdRng::seed_from_u64(noise_stream_seed(seed, r, ADAPTIVE_POLICY_STREAM))`.
/// This must be its *own* reserved index: keying adaptive draws by
/// [`FAULT_PLAN_STREAM`] would collide with static plan realization at
/// round 0, and reusing [`ROUND_STATE_STREAM`](crate::ROUND_STATE_STREAM)
/// would collide with the channel's per-round state draws in **every**
/// round. The [`crate::RESERVED_STREAMS`] registry (and its collision
/// test) pins all reserved indices pairwise distinct.
pub const ADAPTIVE_POLICY_STREAM: u64 = u64::MAX - 2;

/// How a faulty node misbehaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The node runs correctly until engine round `round`, then halts: from
    /// that round on it never beeps *and hears nothing* — its received bit
    /// is forced to 0 after the channel, so protocol feedback sees silence.
    Crash {
        /// First engine round (0-based, the network's cumulative round
        /// counter) in which the node is down.
        round: u64,
    },
    /// Byzantine jammer: the node beeps in every round regardless of its
    /// protocol. On a carrier-sense channel this is indistinguishable from
    /// an honest node that legitimately beeps every round.
    ByzantineSpam,
    /// Byzantine mute: the node never beeps (it still hears normally). The
    /// OR-channel dual of [`FaultKind::ByzantineSpam`].
    ByzantineMute,
}

impl FaultKind {
    /// The stable spec/report keyword of this kind (`crash`, `spam`,
    /// `mute`).
    #[must_use]
    pub fn keyword(&self) -> &'static str {
        match self {
            FaultKind::Crash { .. } => "crash",
            FaultKind::ByzantineSpam => "spam",
            FaultKind::ByzantineMute => "mute",
        }
    }
}

/// What an adaptive adversary observes when choosing one round's faults.
///
/// Everything here is a pure function of the execution prefix (plus the
/// static fault overlay), identical in every kernel at every shard count —
/// which is exactly why adaptive decisions preserve the engine's
/// determinism contract.
#[derive(Debug, Clone, Copy)]
pub struct AdversaryView<'a> {
    /// The network seed (adaptive draws key their reserved stream off it).
    pub seed: u64,
    /// The engine round about to execute (0-based cumulative counter).
    pub round: u64,
    /// The round's submitted beeper set *after* static fault overrides —
    /// a rushing adversary reacts to submissions before they are
    /// delivered.
    pub beepers: &'a BitVec,
    /// Cumulative effective beeps per node over all earlier rounds.
    pub beeps_per_node: &'a [u64],
    /// The most recent earlier round in which any node effectively beeped
    /// (before adaptive additions), `None` if the network has been silent.
    pub last_activity: Option<u64>,
}

impl AdversaryView<'_> {
    /// Number of nodes in the network.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.beepers.len()
    }
}

/// One round's adaptive fault choices: node sets the adversary forces to
/// beep, forces silent, or deafens. Applied by every kernel through the
/// same two override passes as a static plan: `spam`/`mute` edit the
/// beeper bitmap before the shard fan-out (mute wins where both name a
/// node), `deafen` clears received bits after the channel.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RoundFaults {
    spam: Vec<usize>,
    mute: Vec<usize>,
    deafen: Vec<usize>,
}

impl RoundFaults {
    /// The empty decision: the adversary sits this round out.
    #[must_use]
    pub fn none() -> Self {
        RoundFaults::default()
    }

    /// Builds a decision from sorted-or-not node lists (each is sorted
    /// internally; duplicates are harmless — set/clear is idempotent).
    #[must_use]
    pub fn new(mut spam: Vec<usize>, mut mute: Vec<usize>, mut deafen: Vec<usize>) -> Self {
        spam.sort_unstable();
        mute.sort_unstable();
        deafen.sort_unstable();
        RoundFaults { spam, mute, deafen }
    }

    /// `true` iff the decision changes nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spam.is_empty() && self.mute.is_empty() && self.deafen.is_empty()
    }

    /// Nodes forced to beep this round, ascending.
    #[must_use]
    pub fn spam(&self) -> &[usize] {
        &self.spam
    }

    /// Nodes forced silent this round, ascending.
    #[must_use]
    pub fn mute(&self) -> &[usize] {
        &self.mute
    }

    /// Nodes whose received bit is cleared after the channel, ascending.
    #[must_use]
    pub fn deafen(&self) -> &[usize] {
        &self.deafen
    }

    /// Pass 1: edits the round's beeper bitmap in place — spam bits are
    /// set first, then mute bits cleared, so mute wins on overlap.
    pub fn apply_to_beepers(&self, beepers: &mut BitVec) {
        for &v in &self.spam {
            beepers.set(v, true);
        }
        for &v in &self.mute {
            beepers.set(v, false);
        }
    }

    /// Pass 2: clears deafened nodes' received bits after the channel.
    pub fn apply_to_received(&self, received: &mut BitVec) {
        for &v in &self.deafen {
            received.set(v, false);
        }
    }
}

/// The closed set of adaptive adversaries the engine ships: each chooses
/// faults from the observed execution rather than a static plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdaptivePolicy {
    /// Targets the `budget` nodes with the highest cumulative beep count
    /// (ties to the lower id; nodes that never beeped are not worth a
    /// slot of the budget) and jams them for the round: they are both
    /// muted and deafened — a per-round targeted outage of whoever
    /// carries the most information.
    ///
    /// Each round costs `O(n)` and sorts nothing over `n`: a linear-time
    /// selection finds the budget-th largest count, and one ascending
    /// pass over the nodes lists the targets.
    TargetLoudest {
        /// Maximum nodes jammed per round (0 = provable no-op).
        budget: usize,
    },
    /// A rushing spammer: whenever any node submits a beep this round —
    /// the adversary sees submissions before delivery — or the network
    /// was active within the last `window` rounds, it forces `budget`
    /// silent nodes (drawn without replacement from the reserved
    /// [`ADAPTIVE_POLICY_STREAM`]) to beep too, flooding the carrier
    /// right when the protocol is trying to say something.
    RushingSpam {
        /// Maximum nodes forced to beep per active round (0 = no-op).
        budget: usize,
        /// How many rounds after observed activity the spam keeps going.
        window: u64,
    },
}

impl AdaptivePolicy {
    /// Stable id string, used in reports and campaign cell ids.
    #[must_use]
    pub fn label(&self) -> String {
        match *self {
            AdaptivePolicy::TargetLoudest { budget } => format!("loudest-b{budget}"),
            AdaptivePolicy::RushingSpam { budget, window } => {
                format!("rushing-b{budget}-w{window}")
            }
        }
    }

    /// `true` iff [`decide`](Self::decide) provably returns the empty
    /// decision in every round — such a policy must be a byte-identical
    /// no-op on the transcript (pinned by the golden suite).
    #[must_use]
    pub fn is_noop(&self) -> bool {
        match *self {
            AdaptivePolicy::TargetLoudest { budget }
            | AdaptivePolicy::RushingSpam { budget, .. } => budget == 0,
        }
    }

    /// Chooses this round's faults from the observed prefix: a pure
    /// function of `view` (randomness only via the reserved
    /// [`ADAPTIVE_POLICY_STREAM`] keyed by `(view.seed, view.round)`).
    #[must_use]
    pub fn decide(&self, view: &AdversaryView<'_>) -> RoundFaults {
        match *self {
            AdaptivePolicy::TargetLoudest { budget } => {
                if budget == 0 {
                    return RoundFaults::none();
                }
                // `t` is the budget-th largest count (0 when fewer nodes
                // have beeped): every node above it is a target, and the
                // lowest ids at exactly `t` fill the rest of the budget.
                // One ascending pass lists them already sorted.
                let counts = &view.beeps_per_node[..view.node_count()];
                let mut positive: Vec<u64> = counts.iter().copied().filter(|&c| c > 0).collect();
                let (t, mut ties) = match positive.len().checked_sub(budget) {
                    Some(k) => {
                        let (_, &mut t, above) = positive.select_nth_unstable(k);
                        (t, budget - above.iter().filter(|&&c| c > t).count())
                    }
                    None => (0, 0),
                };
                let mut loud = Vec::with_capacity(budget.min(positive.len()));
                for (v, &c) in counts.iter().enumerate() {
                    if c > t {
                        loud.push(v);
                    } else if c == t && ties > 0 {
                        loud.push(v);
                        ties -= 1;
                    }
                }
                RoundFaults {
                    spam: Vec::new(),
                    mute: loud.clone(),
                    deafen: loud,
                }
            }
            AdaptivePolicy::RushingSpam { budget, window } => {
                if budget == 0 {
                    return RoundFaults::none();
                }
                let rushing = view.beepers.count_ones() > 0;
                let lingering = view.last_activity.is_some_and(|a| view.round - a <= window);
                if !rushing && !lingering {
                    return RoundFaults::none();
                }
                let mut silent: Vec<usize> = (0..view.node_count())
                    .filter(|&v| !view.beepers.get(v))
                    .collect();
                let count = budget.min(silent.len());
                let mut rng = StdRng::seed_from_u64(noise_stream_seed(
                    view.seed,
                    view.round,
                    ADAPTIVE_POLICY_STREAM,
                ));
                for i in 0..count {
                    let j = rng.random_range(i..silent.len());
                    silent.swap(i, j);
                }
                silent.truncate(count);
                RoundFaults::new(silent, Vec::new(), Vec::new())
            }
        }
    }
}

/// A deterministic assignment of [`FaultKind`]s to nodes.
///
/// The plan sits between submitted actions and the channel: in every round
/// the engine overrides the actions of faulty nodes
/// ([`effective_action`](Self::effective_action)) *before* the
/// neighborhood OR, and forces crashed nodes' received bits to 0
/// ([`is_crashed`](Self::is_crashed)) *after* the channel. The bitset
/// kernels apply the static assignments as silent, spam and deaf word
/// masks, rebuilt only when a crash round is reached. An empty plan (the
/// default on every [`crate::BeepNetwork`]) leaves each round — including
/// its RNG streams — byte-identical to a plan-free run.
///
/// ```
/// use beep_bits::BitVec;
/// use beep_net::{topology, BeepNetwork, FaultKind, FaultPlan, Noise};
///
/// let plan = FaultPlan::try_from_assignments(vec![
///     (1, FaultKind::ByzantineSpam),
///     (3, FaultKind::Crash { round: 1 }),
/// ])
/// .unwrap();
/// let mut net = BeepNetwork::new(topology::path(5).unwrap(), Noise::Noiseless, 0);
/// net.set_fault_plan(plan).unwrap();
/// // Round 0: nobody submits a beep, but the spammer at node 1 beeps
/// // anyway — nodes 0..=2 hear it.
/// let heard = net.run_round_bitset(&BitVec::zeros(5)).unwrap();
/// assert_eq!(heard.to_string(), "11100");
/// // Round 1: node 3 submits a beep but has crashed — silence, and the
/// // spammer's beep cannot reach the deaf node 3 either.
/// let heard = net.run_round_bitset(&BitVec::from_indices(5, [3])).unwrap();
/// assert_eq!(heard.to_string(), "11100");
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Assignments sorted by node id, one per node.
    assignments: Vec<(usize, FaultKind)>,
    /// Optional adaptive adversary choosing additional per-round faults
    /// from the observed transcript (applied after the static overrides).
    policy: Option<AdaptivePolicy>,
}

impl FaultPlan {
    /// The empty plan: every node behaves. Identical to `Default`.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Builds a plan from explicit `(node, kind)` assignments.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidFaultPlan`] if a node is assigned twice.
    pub fn try_from_assignments(
        mut assignments: Vec<(usize, FaultKind)>,
    ) -> Result<Self, NetError> {
        assignments.sort_by_key(|&(node, _)| node);
        if let Some(w) = assignments.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(NetError::InvalidFaultPlan {
                detail: format!("node {} assigned two faults", w[0].0),
            });
        }
        Ok(FaultPlan {
            assignments,
            policy: None,
        })
    }

    /// Realizes a plan over `n` nodes: `⌊fraction · n⌋` distinct nodes are
    /// sampled uniformly without replacement (partial Fisher–Yates) from
    /// the seed's reserved [`FAULT_PLAN_STREAM`], and each gets `kind`.
    ///
    /// The sample is a pure function of `(n, fraction, seed)` — two plans
    /// realized from the same tuple pick the same nodes — and the stream is
    /// disjoint from every channel stream, so adding faults to a recorded
    /// experiment never perturbs its noise.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidFaultPlan`] if `fraction` is outside `[0, 1]`
    /// (including NaN).
    pub fn realize(n: usize, fraction: f64, kind: FaultKind, seed: u64) -> Result<Self, NetError> {
        if !(0.0..=1.0).contains(&fraction) {
            return Err(NetError::InvalidFaultPlan {
                detail: format!("fault fraction {fraction} outside [0, 1]"),
            });
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_sign_loss)]
        let count = ((fraction * n as f64).floor() as usize).min(n);
        let mut rng = StdRng::seed_from_u64(noise_stream_seed(seed, 0, FAULT_PLAN_STREAM));
        let mut pool: Vec<usize> = (0..n).collect();
        for i in 0..count {
            let j = rng.random_range(i..n);
            pool.swap(i, j);
        }
        let mut nodes: Vec<usize> = pool[..count].to_vec();
        nodes.sort_unstable();
        Ok(FaultPlan {
            assignments: nodes.into_iter().map(|v| (v, kind)).collect(),
            policy: None,
        })
    }

    /// Attaches an [`AdaptivePolicy`] to the plan: from then on the
    /// engine asks the policy for extra per-round faults (computed once
    /// per round, before the shard fan-out) on top of the static
    /// assignments.
    #[must_use]
    pub fn with_policy(mut self, policy: AdaptivePolicy) -> Self {
        self.policy = Some(policy);
        self
    }

    /// A plan with no static assignments, only an adaptive policy.
    #[must_use]
    pub fn from_policy(policy: AdaptivePolicy) -> Self {
        FaultPlan::none().with_policy(policy)
    }

    /// The attached adaptive policy, if any.
    #[must_use]
    pub fn policy(&self) -> Option<AdaptivePolicy> {
        self.policy
    }

    /// `true` iff the attached policy can actually act (present and not a
    /// provable no-op).
    #[must_use]
    pub fn is_adaptive(&self) -> bool {
        self.policy.is_some_and(|p| !p.is_noop())
    }

    /// Asks the attached policy (if it can act) for this round's extra
    /// faults; static-only and no-op-policy plans return the empty
    /// decision without consuming any stream.
    #[must_use]
    pub fn decide(&self, view: &AdversaryView<'_>) -> RoundFaults {
        match self.policy {
            Some(p) if !p.is_noop() => p.decide(view),
            _ => RoundFaults::none(),
        }
    }

    /// `true` iff no node is faulty and no adaptive policy can act — the
    /// plan is a guaranteed (byte-identical) no-op.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.assignments.is_empty() && !self.is_adaptive()
    }

    /// Number of faulty nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.assignments.len()
    }

    /// The `(node, kind)` assignments, sorted by node id.
    #[must_use]
    pub fn assignments(&self) -> &[(usize, FaultKind)] {
        &self.assignments
    }

    /// The largest faulty node id, if any (plans are validated against the
    /// node count when installed on a network).
    #[must_use]
    pub fn max_node(&self) -> Option<usize> {
        self.assignments.last().map(|&(node, _)| node)
    }

    /// The fault assigned to `node`, if any.
    #[must_use]
    pub fn fault_of(&self, node: usize) -> Option<FaultKind> {
        self.assignments
            .binary_search_by_key(&node, |&(v, _)| v)
            .ok()
            .map(|i| self.assignments[i].1)
    }

    /// `true` iff `node` has crashed by engine round `round`.
    #[must_use]
    pub fn is_crashed(&self, node: usize, round: u64) -> bool {
        matches!(self.fault_of(node), Some(FaultKind::Crash { round: r }) if round >= r)
    }

    /// The action `node` actually performs in `round`, given what its
    /// protocol submitted: crashed and mute nodes listen, spammers beep,
    /// everyone else does as submitted.
    #[must_use]
    pub fn effective_action(&self, node: usize, round: u64, submitted: Action) -> Action {
        match self.fault_of(node) {
            Some(FaultKind::Crash { round: r }) if round >= r => Action::Listen,
            Some(FaultKind::ByzantineSpam) => Action::Beep,
            Some(FaultKind::ByzantineMute) => Action::Listen,
            _ => submitted,
        }
    }

    /// The static assignments in force at `round` over `n` nodes, as word
    /// masks — the bitset-kernel form of
    /// [`effective_action`](Self::effective_action) and
    /// [`is_crashed`](Self::is_crashed).
    pub(crate) fn static_masks(&self, n: usize, round: u64) -> StaticMasks {
        let mut masks = StaticMasks {
            silent: BitVec::zeros(n),
            spam: BitVec::zeros(n),
            deaf: BitVec::zeros(n),
            next_change: None,
        };
        for &(node, kind) in &self.assignments {
            match kind {
                FaultKind::Crash { round: r } if round >= r => {
                    masks.silent.set(node, true);
                    masks.deaf.set(node, true);
                }
                FaultKind::Crash { round: r } => {
                    masks.next_change = Some(masks.next_change.map_or(r, |c| c.min(r)));
                }
                FaultKind::ByzantineSpam => masks.spam.set(node, true),
                FaultKind::ByzantineMute => masks.silent.set(node, true),
            }
        }
        masks
    }

    /// The nodes crashed by `round`, in ascending order.
    pub fn crashed(&self, round: u64) -> impl Iterator<Item = usize> + '_ {
        self.assignments.iter().filter_map(move |&(node, kind)| {
            matches!(kind, FaultKind::Crash { round: r } if round >= r).then_some(node)
        })
    }
}

/// A plan's static assignments compiled for a span of rounds: which nodes
/// are silenced (mute, or crashed), forced to beep (spam) or deafened
/// (crashed). The masks hold from the round they were built for up to,
/// not including, [`next_change`](Self::next_change).
#[derive(Debug)]
pub(crate) struct StaticMasks {
    pub(crate) silent: BitVec,
    pub(crate) spam: BitVec,
    pub(crate) deaf: BitVec,
    /// The first later crash round, at which the masks must be rebuilt;
    /// `None` once every crash has happened.
    pub(crate) next_change: Option<u64>,
}

impl StaticMasks {
    /// Edits a beeper bitmap in place: silent nodes cleared, spammers set.
    pub(crate) fn apply_to_beepers(&self, beepers: &mut BitVec) {
        let words = beepers.as_words_mut().iter_mut();
        for ((b, &s), &p) in words.zip(self.silent.as_words()).zip(self.spam.as_words()) {
            *b = *b & !s | p;
        }
    }

    /// Clears deaf nodes' received bits.
    pub(crate) fn apply_to_received(&self, received: &mut BitVec) {
        for (r, &d) in received.as_words_mut().iter_mut().zip(self.deaf.as_words()) {
            *r &= !d;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_default_and_a_no_op() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        assert_eq!(plan, FaultPlan::default());
        assert_eq!(plan.len(), 0);
        assert_eq!(plan.max_node(), None);
        let masks = plan.static_masks(8, 3);
        let mut beepers = BitVec::from_indices(8, [1, 5]);
        let before = beepers.clone();
        masks.apply_to_beepers(&mut beepers);
        masks.apply_to_received(&mut beepers);
        assert_eq!(beepers, before);
        assert_eq!(masks.next_change, None);
    }

    #[test]
    fn duplicate_node_rejected() {
        let err = FaultPlan::try_from_assignments(vec![
            (2, FaultKind::ByzantineSpam),
            (2, FaultKind::ByzantineMute),
        ])
        .unwrap_err();
        assert!(matches!(err, NetError::InvalidFaultPlan { .. }), "{err}");
        assert!(err.to_string().contains("node 2"));
    }

    #[test]
    fn assignments_are_sorted_and_queryable() {
        let plan = FaultPlan::try_from_assignments(vec![
            (7, FaultKind::ByzantineMute),
            (2, FaultKind::Crash { round: 4 }),
        ])
        .unwrap();
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.max_node(), Some(7));
        assert_eq!(plan.assignments()[0].0, 2);
        assert_eq!(plan.fault_of(7), Some(FaultKind::ByzantineMute));
        assert_eq!(plan.fault_of(3), None);
    }

    #[test]
    fn crash_activates_at_its_round() {
        let plan =
            FaultPlan::try_from_assignments(vec![(1, FaultKind::Crash { round: 3 })]).unwrap();
        for round in 0..3 {
            assert!(!plan.is_crashed(1, round));
            assert_eq!(
                plan.effective_action(1, round, Action::Beep),
                Action::Beep,
                "still healthy in round {round}"
            );
        }
        for round in 3..6 {
            assert!(plan.is_crashed(1, round));
            assert_eq!(
                plan.effective_action(1, round, Action::Beep),
                Action::Listen
            );
            assert_eq!(plan.crashed(round).collect::<Vec<_>>(), vec![1]);
        }
        assert!(plan.crashed(0).next().is_none());
    }

    #[test]
    fn spam_and_mute_override_in_both_forms() {
        let plan = FaultPlan::try_from_assignments(vec![
            (0, FaultKind::ByzantineSpam),
            (2, FaultKind::ByzantineMute),
        ])
        .unwrap();
        assert_eq!(plan.effective_action(0, 9, Action::Listen), Action::Beep);
        assert_eq!(plan.effective_action(2, 9, Action::Beep), Action::Listen);
        assert_eq!(plan.effective_action(1, 9, Action::Beep), Action::Beep);
        let masks = plan.static_masks(4, 9);
        let mut beepers = BitVec::from_indices(4, [2, 3]);
        masks.apply_to_beepers(&mut beepers);
        assert_eq!(beepers.to_string(), "1001");
        // Neither kind is deaf.
        let mut received = BitVec::ones(4);
        masks.apply_to_received(&mut received);
        assert_eq!(received.count_ones(), 4);
    }

    #[test]
    fn static_masks_follow_the_plan_and_change_at_crash_rounds() {
        let plan = FaultPlan::try_from_assignments(vec![
            (0, FaultKind::ByzantineSpam),
            (2, FaultKind::Crash { round: 5 }),
            (3, FaultKind::Crash { round: 2 }),
            (5, FaultKind::ByzantineMute),
        ])
        .unwrap();
        let n = 70;
        for round in 0..8 {
            let masks = plan.static_masks(n, round);
            for v in 0..n {
                let beeps = plan.effective_action(v, round, Action::Beep) == Action::Beep;
                let listens = plan.effective_action(v, round, Action::Listen) == Action::Listen;
                assert_eq!(masks.silent.get(v), !beeps, "round {round} node {v}");
                assert_eq!(masks.spam.get(v), !listens, "round {round} node {v}");
                assert_eq!(masks.deaf.get(v), plan.is_crashed(v, round));
            }
            let next = [2, 5].into_iter().find(|&r| r > round);
            assert_eq!(masks.next_change, next, "round {round}");
        }
        // One word operation per 64 nodes, tail word included.
        let masks = plan.static_masks(n, 5);
        let mut beepers = BitVec::from_indices(n, [2, 3, 5, 6, 69]);
        masks.apply_to_beepers(&mut beepers);
        assert_eq!(beepers.one_positions(), vec![0, 6, 69]);
        let mut received = BitVec::ones(n);
        masks.apply_to_received(&mut received);
        assert_eq!(received.count_ones(), n - 2);
        assert!(!received.get(2) && !received.get(3));
    }

    #[test]
    fn realize_is_deterministic_and_counts_floor() {
        let a = FaultPlan::realize(40, 0.25, FaultKind::ByzantineSpam, 7).unwrap();
        let b = FaultPlan::realize(40, 0.25, FaultKind::ByzantineSpam, 7).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 10);
        // Distinct nodes, all in range, sorted.
        let nodes: Vec<usize> = a.assignments().iter().map(|&(v, _)| v).collect();
        assert!(nodes.windows(2).all(|w| w[0] < w[1]));
        assert!(nodes.iter().all(|&v| v < 40));
        // Another seed picks another set (overwhelmingly likely).
        let c = FaultPlan::realize(40, 0.25, FaultKind::ByzantineSpam, 8).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn realize_edge_fractions() {
        assert!(FaultPlan::realize(10, 0.0, FaultKind::ByzantineMute, 1)
            .unwrap()
            .is_empty());
        let all = FaultPlan::realize(10, 1.0, FaultKind::ByzantineMute, 1).unwrap();
        assert_eq!(all.len(), 10);
        // Sub-1/n fractions floor to zero faulty nodes.
        assert!(FaultPlan::realize(10, 0.09, FaultKind::ByzantineMute, 1)
            .unwrap()
            .is_empty());
        for bad in [-0.1, 1.1, f64::NAN] {
            let err = FaultPlan::realize(10, bad, FaultKind::ByzantineMute, 1).unwrap_err();
            assert!(matches!(err, NetError::InvalidFaultPlan { .. }));
        }
    }

    #[test]
    fn realize_draws_from_the_reserved_stream() {
        // The sample must be reproducible from the documented stream alone:
        // re-derive it here with a hand-rolled Fisher–Yates.
        let n = 16;
        let plan = FaultPlan::realize(n, 0.5, FaultKind::ByzantineSpam, 99).unwrap();
        let mut rng = StdRng::seed_from_u64(noise_stream_seed(99, 0, FAULT_PLAN_STREAM));
        let mut pool: Vec<usize> = (0..n).collect();
        for i in 0..8 {
            let j = rng.random_range(i..n);
            pool.swap(i, j);
        }
        let mut expected = pool[..8].to_vec();
        expected.sort_unstable();
        let got: Vec<usize> = plan.assignments().iter().map(|&(v, _)| v).collect();
        assert_eq!(got, expected);
    }

    #[test]
    fn keywords_are_stable() {
        assert_eq!(FaultKind::Crash { round: 0 }.keyword(), "crash");
        assert_eq!(FaultKind::ByzantineSpam.keyword(), "spam");
        assert_eq!(FaultKind::ByzantineMute.keyword(), "mute");
    }

    fn view<'a>(
        seed: u64,
        round: u64,
        beepers: &'a BitVec,
        beeps: &'a [u64],
        last_activity: Option<u64>,
    ) -> AdversaryView<'a> {
        AdversaryView {
            seed,
            round,
            beepers,
            beeps_per_node: beeps,
            last_activity,
        }
    }

    #[test]
    fn policy_labels_are_stable() {
        assert_eq!(
            AdaptivePolicy::TargetLoudest { budget: 2 }.label(),
            "loudest-b2"
        );
        assert_eq!(
            AdaptivePolicy::RushingSpam {
                budget: 3,
                window: 4
            }
            .label(),
            "rushing-b3-w4"
        );
    }

    #[test]
    fn zero_budget_policies_are_noops_and_keep_plans_empty() {
        for p in [
            AdaptivePolicy::TargetLoudest { budget: 0 },
            AdaptivePolicy::RushingSpam {
                budget: 0,
                window: 9,
            },
        ] {
            assert!(p.is_noop());
            let beepers = BitVec::ones(6);
            let beeps = vec![5; 6];
            assert!(p.decide(&view(1, 3, &beepers, &beeps, Some(2))).is_empty());
            let plan = FaultPlan::from_policy(p);
            assert!(plan.is_empty(), "no-op policy must keep the plan empty");
            assert!(!plan.is_adaptive());
        }
        let active = FaultPlan::from_policy(AdaptivePolicy::TargetLoudest { budget: 1 });
        assert!(!active.is_empty());
        assert!(active.is_adaptive());
        assert_eq!(active.len(), 0, "no static assignments");
    }

    #[test]
    fn target_loudest_jams_top_beepers_ties_to_lower_id() {
        let p = AdaptivePolicy::TargetLoudest { budget: 2 };
        let beepers = BitVec::zeros(6);
        // Counts: node 4 loudest, nodes 1 and 3 tied — the tie goes to 1.
        let beeps = vec![0, 3, 0, 3, 7, 1];
        let d = FaultPlan::from_policy(p).decide(&view(9, 5, &beepers, &beeps, Some(4)));
        assert_eq!(d.mute(), &[1, 4]);
        assert_eq!(d.deafen(), &[1, 4]);
        assert!(d.spam().is_empty());
        // An all-silent history gives the adversary nothing to target.
        let silent = vec![0; 6];
        assert!(FaultPlan::from_policy(p)
            .decide(&view(9, 5, &beepers, &silent, None))
            .is_empty());
    }

    #[test]
    fn rushing_spam_reacts_to_submissions_and_lingers_in_its_window() {
        let p = AdaptivePolicy::RushingSpam {
            budget: 2,
            window: 3,
        };
        let plan = FaultPlan::from_policy(p);
        let beeps = vec![0; 8];
        // Nothing observed, nothing submitted: no spam.
        let quiet = BitVec::zeros(8);
        assert!(plan.decide(&view(7, 0, &quiet, &beeps, None)).is_empty());
        // A submission this round triggers spam of silent nodes only.
        let loud = BitVec::from_indices(8, [2]);
        let d = plan.decide(&view(7, 1, &loud, &beeps, None));
        assert_eq!(d.spam().len(), 2);
        assert!(d.spam().iter().all(|&v| v != 2 && v < 8));
        assert!(d.mute().is_empty() && d.deafen().is_empty());
        // Within the window after observed activity the spam keeps going…
        assert!(!plan.decide(&view(7, 4, &quiet, &beeps, Some(1))).is_empty());
        // …and stops once the window has passed.
        assert!(plan.decide(&view(7, 5, &quiet, &beeps, Some(1))).is_empty());
    }

    #[test]
    fn rushing_spam_draws_from_the_reserved_adaptive_stream() {
        // Re-derive the target selection from the documented stream alone.
        let p = AdaptivePolicy::RushingSpam {
            budget: 3,
            window: 0,
        };
        let n = 12;
        let loud = BitVec::from_indices(n, [5]);
        let beeps = vec![0; n];
        let d = FaultPlan::from_policy(p).decide(&view(42, 6, &loud, &beeps, None));
        let mut rng = StdRng::seed_from_u64(noise_stream_seed(42, 6, ADAPTIVE_POLICY_STREAM));
        let mut silent: Vec<usize> = (0..n).filter(|&v| v != 5).collect();
        for i in 0..3 {
            let j = rng.random_range(i..silent.len());
            silent.swap(i, j);
        }
        let mut expected = silent[..3].to_vec();
        expected.sort_unstable();
        assert_eq!(d.spam(), expected.as_slice());
        // Same view, same decision: the draw is counter-keyed, not stateful.
        let again = FaultPlan::from_policy(p).decide(&view(42, 6, &loud, &beeps, None));
        assert_eq!(d, again);
    }

    #[test]
    fn round_faults_apply_spam_then_mute_then_deafen() {
        let d = RoundFaults::new(vec![3, 1], vec![3], vec![0]);
        assert_eq!(
            (d.spam(), d.mute(), d.deafen()),
            (&[1, 3][..], &[3][..], &[0][..])
        );
        let mut beepers = BitVec::from_indices(5, [4]);
        d.apply_to_beepers(&mut beepers);
        // 1 spammed, 3 spammed-then-muted (mute wins), 4 untouched.
        assert_eq!(beepers.to_string(), "01001");
        let mut received = BitVec::ones(5);
        d.apply_to_received(&mut received);
        assert_eq!(received.to_string(), "01111");
        assert!(RoundFaults::none().is_empty());
        assert!(!d.is_empty());
    }

    #[test]
    fn reserved_stream_ids_never_collide() {
        // Satellite fix: adaptive-policy draws must not collide with the
        // channel's ROUND_STATE_STREAM (or any other reserved stream).
        // Enumerate ALL reserved shard ids: pairwise distinct, far outside
        // any real shard range, and keying distinct streams.
        let streams = crate::RESERVED_STREAMS;
        assert_eq!(streams.len(), 4, "register new reserved streams here");
        for (i, &(name_a, id_a)) in streams.iter().enumerate() {
            assert!(
                id_a > u64::MAX - 64,
                "{name_a} must sit far above real shard indices"
            );
            for &(name_b, id_b) in &streams[i + 1..] {
                assert_ne!(id_a, id_b, "{name_a} collides with {name_b}");
                // And the keyed streams differ at every (seed, round) the
                // reserved draws actually use (round 0 = realization).
                for round in [0u64, 1, 7] {
                    assert_ne!(
                        noise_stream_seed(11, round, id_a),
                        noise_stream_seed(11, round, id_b),
                        "{name_a} and {name_b} key the same stream at round {round}"
                    );
                }
            }
        }
        let ids: Vec<u64> = streams.iter().map(|&(_, id)| id).collect();
        assert!(ids.contains(&crate::ROUND_STATE_STREAM));
        assert!(ids.contains(&FAULT_PLAN_STREAM));
        assert!(ids.contains(&ADAPTIVE_POLICY_STREAM));
        assert!(ids.contains(&crate::PROTOCOL_COIN_STREAM));
    }
}
