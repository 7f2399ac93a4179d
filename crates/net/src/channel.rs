//! Pluggable channel models beyond uniform iid Bernoulli noise.
//!
//! The paper's channel flips every received bit independently with one
//! global rate `ε` ([`Noise`]). Real deployments are messier: links fade
//! in bursts, nodes differ in radio quality, and a worst-case analysis
//! wants an adversary, not a coin. This module generalizes the engine's
//! channel into the [`NoiseModel`] trait with four implementations:
//!
//! * [`Noise`] — the iid Bernoulli channel (the default, and the
//!   back-compat type every existing API keeps accepting);
//! * [`GilbertElliott`] — a two-state bursty channel (good/bad) whose
//!   Markov state evolves per round;
//! * [`PerNodeEps`] — a heterogeneous per-node `ε` vector;
//! * [`AdversarialErasure`] — a budgeted adversary erasing the
//!   highest-impact beep bits under a deterministic greedy rule.
//!
//! # Determinism contract
//!
//! Every model is **counter-keyed**: all randomness for the bits of shard
//! `s` in round `r` comes from
//! `StdRng::seed_from_u64(`[`noise_stream_seed`]`(seed, r, s))`, and any
//! per-round global state (the Gilbert–Elliott good/bad switch) comes
//! from the reserved stream index [`ROUND_STATE_STREAM`]. No model draws
//! from a sequential RNG, so a transcript is a pure function of
//! `(graph, channel, seed, actions, shard_count)` — bit-identical at
//! every thread count, exactly like the iid channel since PR 2. The
//! [`AdversarialErasure`] model draws zero random bytes at all.
//!
//! | model | per-shard stream `(seed, r, s)` | round-state stream `(seed, r, ROUND_STATE_STREAM)` |
//! |---|---|---|
//! | [`Noise`] (iid) | geometric-skip flips | — |
//! | [`GilbertElliott`] | flips at the active state's rate | one `f64`: the Markov transition |
//! | [`PerNodeEps`] | one `f64` per owned node | — |
//! | [`AdversarialErasure`] | — (deterministic greedy) | — |

use crate::error::NetError;
use crate::graph::Graph;
use crate::noise::{noise_stream_seed, FlipSampler, Noise};
use beep_bits::BitVec;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Mutex;

/// The reserved shard index of the per-round *state* stream: channel
/// models that carry global per-round state (today only
/// [`GilbertElliott`]'s good/bad switch) draw it from
/// [`noise_stream_seed`]`(seed, round, ROUND_STATE_STREAM)`.
///
/// Real shards are numbered `0..shard_count` and `shard_count` is a small
/// `usize`, so `u64::MAX` can never collide with a data shard's stream.
pub const ROUND_STATE_STREAM: u64 = u64::MAX;

/// The read-only context a channel model receives when asked to corrupt
/// one shard of a round's received frame.
///
/// Everything a counter-keyed model may depend on is here — and nothing
/// else: no thread ids, no sequential RNG, no mutable engine state.
#[derive(Debug, Clone, Copy)]
pub struct ChannelCtx<'a> {
    /// The network graph (e.g. for degree-aware adversaries).
    pub graph: &'a Graph,
    /// The network's base seed.
    pub seed: u64,
    /// The round counter (the engine's cumulative round count).
    pub round: u64,
    /// This shard's index in `0..shard_count`.
    pub shard: u64,
    /// Total shard count `S` of this round's layout.
    pub shard_count: usize,
    /// The model's own per-round state, as returned by
    /// [`NoiseModel::round_state`] for `(seed, round)` — computed once
    /// per round and passed to every shard, so shards never recompute
    /// (or lock) shared state.
    pub round_state: u64,
    /// Bits that must not be corrupted (the beeper set when self-hearing
    /// is configured noise-free), indexed by global bit position.
    pub protect: Option<&'a BitVec>,
    /// The model's [`FlipSampler`]s, one per rate it flips bits at:
    /// `[ε]` for the iid channel, `[ε_good, ε_bad]` for Gilbert–Elliott.
    /// The engine builds them once per network; empty means the model
    /// builds a sampler per call, with the same flips.
    pub samplers: &'a [FlipSampler],
}

impl ChannelCtx<'_> {
    /// Whether global bit position `v` is protected from corruption.
    #[must_use]
    pub fn is_protected(&self, v: usize) -> bool {
        self.protect.is_some_and(|p| p.get(v))
    }
}

/// A channel model: how the bits nodes receive get corrupted.
///
/// Implementations MUST be counter-keyed (see the [module
/// docs](self)): all randomness for shard `s` of round `r` comes from
/// `StdRng::seed_from_u64(`[`noise_stream_seed`]`(ctx.seed, ctx.round,
/// ctx.shard))`, and per-round global state from
/// [`round_state`](Self::round_state) via the reserved
/// [`ROUND_STATE_STREAM`]. A model that draws from anywhere else breaks
/// the engine's thread-count invariance.
///
/// ```
/// use beep_bits::BitVec;
/// use beep_net::{topology, BeepNetwork, GilbertElliott, NoiseModel};
///
/// let ge = GilbertElliott::try_new(0.01, 0.4, 0.1, 0.5).unwrap();
/// assert!(!ge.is_noiseless());
/// // Any NoiseModel drops into BeepNetwork where a Noise used to go.
/// let mut net = BeepNetwork::new(topology::cycle(64).unwrap(), ge, 7);
/// let received = net.run_round_bitset(&BitVec::zeros(64)).unwrap();
/// assert_eq!(received.len(), 64);
/// ```
pub trait NoiseModel: std::fmt::Debug + Send + Sync {
    /// A short, stable, human-readable label (used in reports and ids).
    fn label(&self) -> String;

    /// The iid rate the surrounding machinery should calibrate against:
    /// the `ε` fed to `SimulationParams::calibrated` and checked by the
    /// simulators' noise-mismatch guards. For the iid channel this is
    /// `ε` itself; heterogeneous models report their worst-case rate.
    fn calibration_epsilon(&self) -> f64;

    /// Whether the model never corrupts any bit — lets the engine skip
    /// the per-shard channel pass entirely.
    fn is_noiseless(&self) -> bool;

    /// The model's global state for `round`, derived deterministically
    /// from `(seed, round)` only — typically via the reserved
    /// [`ROUND_STATE_STREAM`]. The engine calls this once per round and
    /// hands the value to every shard in [`ChannelCtx::round_state`].
    /// Stateless models keep the default `0`.
    fn round_state(&self, _seed: u64, _round: u64) -> u64 {
        0
    }

    /// Corrupts the received bits at global positions `lo..hi` (with
    /// `lo` word-aligned) inside `words`, whose first word holds bits
    /// `lo..lo + 64`. Must touch only `[lo, hi)`, must respect
    /// `ctx.protect`, and must draw randomness only as the trait docs
    /// prescribe.
    fn apply_to_shard(&self, words: &mut [u64], lo: usize, hi: usize, ctx: &ChannelCtx<'_>);
}

/// The iid Bernoulli channel is the back-compat [`NoiseModel`]: the
/// per-shard geometric-skip pass the engine has always run, byte-for-byte
/// (the golden transcript pins prove it), through the sampler in
/// `ctx.samplers[0]`.
impl NoiseModel for Noise {
    fn label(&self) -> String {
        format!("eps{}", self.epsilon())
    }

    fn calibration_epsilon(&self) -> f64 {
        self.epsilon()
    }

    fn is_noiseless(&self) -> bool {
        matches!(self, Noise::Noiseless)
    }

    fn apply_to_shard(&self, words: &mut [u64], lo: usize, hi: usize, ctx: &ChannelCtx<'_>) {
        let mut rng = StdRng::seed_from_u64(noise_stream_seed(ctx.seed, ctx.round, ctx.shard));
        match ctx.samplers.first() {
            Some(sampler) => sampler.apply(words, lo, hi, ctx.protect, &mut rng),
            None => self.apply_to_words(words, lo, hi, ctx.protect, &mut rng),
        }
    }
}

/// A two-state bursty channel (Gilbert–Elliott): each round the whole
/// network is either in the *good* state (flip rate `eps_good`) or the
/// *bad* state (flip rate `eps_bad`), and the state evolves as a Markov
/// chain over rounds — good→bad with probability `p_good_to_bad`,
/// bad→good with probability `p_bad_to_good`. Round 0 starts good.
///
/// The state sequence is a pure function of `(seed, round)`: the
/// transition draw for round `r` comes from the reserved
/// [`ROUND_STATE_STREAM`], so random access to any round replays the
/// chain deterministically (an internal cache makes sequential access
/// O(1) per round).
///
/// ```
/// use beep_net::GilbertElliott;
///
/// let ge = GilbertElliott::try_new(0.01, 0.4, 0.1, 0.5).unwrap();
/// // Round 0 always starts in the good state.
/// assert!(!ge.in_bad_state(7, 0));
/// // The state sequence is deterministic in (seed, round): random
/// // access and a fresh instance agree with sequential replay.
/// let fresh = GilbertElliott::try_new(0.01, 0.4, 0.1, 0.5).unwrap();
/// for r in 0..50 {
///     assert_eq!(ge.in_bad_state(7, r), fresh.in_bad_state(7, r));
/// }
/// assert_eq!(ge.in_bad_state(7, 20), fresh.in_bad_state(7, 20));
/// ```
pub struct GilbertElliott {
    eps_good: f64,
    eps_bad: f64,
    p_good_to_bad: f64,
    p_bad_to_good: f64,
    /// Sequential-access cache: `(seed, round, in_bad_state)` of the most
    /// recently computed round. Purely an optimization — a miss replays
    /// the chain from round 0, landing on the same deterministic state.
    cache: Mutex<Option<(u64, u64, bool)>>,
}

impl GilbertElliott {
    /// Builds a Gilbert–Elliott channel after validating the parameters:
    /// both flip rates in `[0, ½)` and both transition probabilities in
    /// `[0, 1]`.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidChannel`] on any out-of-range (or NaN)
    /// parameter.
    pub fn try_new(
        eps_good: f64,
        eps_bad: f64,
        p_good_to_bad: f64,
        p_bad_to_good: f64,
    ) -> Result<Self, NetError> {
        for (name, eps) in [("eps_good", eps_good), ("eps_bad", eps_bad)] {
            if !(0.0..0.5).contains(&eps) {
                return Err(NetError::InvalidChannel {
                    detail: format!("{name} = {eps} outside [0, 1/2)"),
                });
            }
        }
        for (name, p) in [
            ("p_good_to_bad", p_good_to_bad),
            ("p_bad_to_good", p_bad_to_good),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(NetError::InvalidChannel {
                    detail: format!("{name} = {p} outside [0, 1]"),
                });
            }
        }
        Ok(GilbertElliott {
            eps_good,
            eps_bad,
            p_good_to_bad,
            p_bad_to_good,
            cache: Mutex::new(None),
        })
    }

    /// The good-state flip rate.
    #[must_use]
    pub fn eps_good(&self) -> f64 {
        self.eps_good
    }

    /// The bad-state flip rate.
    #[must_use]
    pub fn eps_bad(&self) -> f64 {
        self.eps_bad
    }

    /// Whether the chain is in the bad state in `round` under `seed`.
    ///
    /// Round 0 is always good; the transition into round `r ≥ 1` draws
    /// one `f64` from the `(seed, r, `[`ROUND_STATE_STREAM`]`)` stream.
    #[must_use]
    pub fn in_bad_state(&self, seed: u64, round: u64) -> bool {
        let mut cache = self.cache.lock().expect("state cache");
        let (mut r, mut bad) = match *cache {
            Some((s, r, b)) if s == seed && r <= round => (r, b),
            _ => (0, false),
        };
        while r < round {
            r += 1;
            let u: f64 =
                StdRng::seed_from_u64(noise_stream_seed(seed, r, ROUND_STATE_STREAM)).random();
            bad = if bad {
                u >= self.p_bad_to_good
            } else {
                u < self.p_good_to_bad
            };
        }
        *cache = Some((seed, round, bad));
        bad
    }
}

impl std::fmt::Debug for GilbertElliott {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GilbertElliott")
            .field("eps_good", &self.eps_good)
            .field("eps_bad", &self.eps_bad)
            .field("p_good_to_bad", &self.p_good_to_bad)
            .field("p_bad_to_good", &self.p_bad_to_good)
            .finish()
    }
}

impl Clone for GilbertElliott {
    fn clone(&self) -> Self {
        GilbertElliott {
            eps_good: self.eps_good,
            eps_bad: self.eps_bad,
            p_good_to_bad: self.p_good_to_bad,
            p_bad_to_good: self.p_bad_to_good,
            // The cache is a replayable optimization, not state: a clone
            // starting cold computes identical state sequences.
            cache: Mutex::new(None),
        }
    }
}

impl PartialEq for GilbertElliott {
    fn eq(&self, other: &Self) -> bool {
        (
            self.eps_good,
            self.eps_bad,
            self.p_good_to_bad,
            self.p_bad_to_good,
        ) == (
            other.eps_good,
            other.eps_bad,
            other.p_good_to_bad,
            other.p_bad_to_good,
        )
    }
}

impl NoiseModel for GilbertElliott {
    fn label(&self) -> String {
        format!(
            "ge-g{}-b{}-pgb{}-pbg{}",
            self.eps_good, self.eps_bad, self.p_good_to_bad, self.p_bad_to_good
        )
    }

    fn calibration_epsilon(&self) -> f64 {
        self.eps_good.max(self.eps_bad)
    }

    fn is_noiseless(&self) -> bool {
        self.eps_good == 0.0 && self.eps_bad == 0.0
    }

    fn round_state(&self, seed: u64, round: u64) -> u64 {
        u64::from(self.in_bad_state(seed, round))
    }

    fn apply_to_shard(&self, words: &mut [u64], lo: usize, hi: usize, ctx: &ChannelCtx<'_>) {
        let bad = ctx.round_state == 1;
        let eps = if bad { self.eps_bad } else { self.eps_good };
        if eps == 0.0 {
            return;
        }
        // The per-shard flips reuse the iid geometric-skip pass at the
        // active state's rate (sampler 0 good, 1 bad), on the normal
        // (seed, round, shard) stream.
        let mut rng = StdRng::seed_from_u64(noise_stream_seed(ctx.seed, ctx.round, ctx.shard));
        match ctx.samplers.get(usize::from(bad)) {
            Some(sampler) => sampler.apply(words, lo, hi, ctx.protect, &mut rng),
            None => Noise::Bernoulli(eps).apply_to_words(words, lo, hi, ctx.protect, &mut rng),
        }
    }
}

/// A heterogeneous channel: node `v`'s received bit flips with its own
/// rate `eps[v mod len]` (the vector is applied cyclically, so one
/// pattern serves every network size — e.g. "every fourth node has a
/// bad radio").
///
/// The model is word-sliced: a shard draws exactly one `f64` per node it
/// owns — for every node, flipped or not, protected or not — so each
/// shard's stream is self-contained and the transcript never depends on
/// which thread ran which shard.
///
/// ```
/// use beep_bits::BitVec;
/// use beep_net::{topology, BeepNetwork, NoiseModel, PerNodeEps};
///
/// // Nodes 0, 3, 6, … are clean; the rest flip at 20%.
/// let ch = PerNodeEps::try_new(vec![0.0, 0.2, 0.2]).unwrap();
/// assert_eq!(ch.epsilon_of(0), 0.0);
/// assert_eq!(ch.epsilon_of(4), 0.2);
/// assert_eq!(ch.calibration_epsilon(), 0.2);
/// let mut net = BeepNetwork::new(topology::cycle(30).unwrap(), ch, 3);
/// for _ in 0..50 {
///     let heard = net.run_round_bitset(&BitVec::zeros(30)).unwrap();
///     assert!(!heard.get(0), "an eps = 0 node heard a phantom beep");
/// }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PerNodeEps {
    eps: Vec<f64>,
}

impl PerNodeEps {
    /// Builds a per-node channel from a non-empty pattern of flip rates,
    /// each in `[0, ½)`.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidChannel`] if the pattern is empty or any rate
    /// is outside `[0, ½)` (including NaN).
    pub fn try_new(eps: Vec<f64>) -> Result<Self, NetError> {
        if eps.is_empty() {
            return Err(NetError::InvalidChannel {
                detail: "per-node epsilon pattern is empty".into(),
            });
        }
        for (i, &e) in eps.iter().enumerate() {
            if !(0.0..0.5).contains(&e) {
                return Err(NetError::InvalidChannel {
                    detail: format!("eps[{i}] = {e} outside [0, 1/2)"),
                });
            }
        }
        Ok(PerNodeEps { eps })
    }

    /// The flip-rate pattern.
    #[must_use]
    pub fn pattern(&self) -> &[f64] {
        &self.eps
    }

    /// Node `v`'s flip rate (`eps[v mod len]`).
    #[must_use]
    pub fn epsilon_of(&self, v: usize) -> f64 {
        self.eps[v % self.eps.len()]
    }
}

impl NoiseModel for PerNodeEps {
    fn label(&self) -> String {
        let rates: Vec<String> = self.eps.iter().map(ToString::to_string).collect();
        format!("pernode-{}", rates.join("-"))
    }

    fn calibration_epsilon(&self) -> f64 {
        self.eps.iter().copied().fold(0.0, f64::max)
    }

    fn is_noiseless(&self) -> bool {
        self.eps.iter().all(|&e| e == 0.0)
    }

    fn apply_to_shard(&self, words: &mut [u64], lo: usize, hi: usize, ctx: &ChannelCtx<'_>) {
        let mut rng = StdRng::seed_from_u64(noise_stream_seed(ctx.seed, ctx.round, ctx.shard));
        for v in lo..hi {
            // One draw per owned node unconditionally: the stream must
            // not depend on the protect set or the rates.
            let u: f64 = rng.random();
            if u < self.epsilon_of(v) && !ctx.is_protected(v) {
                words[(v - lo) / 64] ^= 1u64 << (v % 64);
            }
        }
    }
}

/// A budgeted adversary: each round it may erase (1 → 0) up to `budget`
/// received beep bits, and greedily picks the highest-impact targets —
/// the set bits of the highest-degree nodes (ties broken toward lower
/// node ids). Erasure-only, so silence is always delivered faithfully;
/// protected bits are never touched.
///
/// The rule is fully deterministic — the model draws **zero** random
/// bytes — which makes it the worst-case counterpart of the stochastic
/// models: same inputs, same corruption, at any thread count. The budget
/// is split across shards (`budget/S` each, the first `budget mod S`
/// shards taking one extra), so the shard layout stays part of the
/// determinism tuple exactly as for the stochastic models.
///
/// `design_epsilon` is the iid rate the surrounding machinery calibrates
/// against ([`NoiseModel::calibration_epsilon`]): the adversary is *not*
/// an iid channel, so the caller states explicitly which ε-calibrated
/// protocol parameters the adversary should be attacking.
#[derive(Debug, Clone, PartialEq)]
pub struct AdversarialErasure {
    budget: usize,
    design_epsilon: f64,
}

impl AdversarialErasure {
    /// Builds an adversary erasing at most `budget` bits per round,
    /// attacking protocols calibrated for `design_epsilon ∈ [0, ½)`.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidChannel`] if `design_epsilon` is outside
    /// `[0, ½)` (including NaN).
    pub fn try_new(budget: usize, design_epsilon: f64) -> Result<Self, NetError> {
        if !(0.0..0.5).contains(&design_epsilon) {
            return Err(NetError::InvalidChannel {
                detail: format!("design_epsilon = {design_epsilon} outside [0, 1/2)"),
            });
        }
        Ok(AdversarialErasure {
            budget,
            design_epsilon,
        })
    }

    /// The per-round erasure budget.
    #[must_use]
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// The iid rate this adversary is declared to attack.
    #[must_use]
    pub fn design_epsilon(&self) -> f64 {
        self.design_epsilon
    }
}

impl NoiseModel for AdversarialErasure {
    fn label(&self) -> String {
        format!("adv-b{}-e{}", self.budget, self.design_epsilon)
    }

    fn calibration_epsilon(&self) -> f64 {
        self.design_epsilon
    }

    fn is_noiseless(&self) -> bool {
        self.budget == 0
    }

    fn apply_to_shard(&self, words: &mut [u64], lo: usize, hi: usize, ctx: &ChannelCtx<'_>) {
        let shards = ctx.shard_count.max(1);
        let shard = usize::try_from(ctx.shard).expect("shard index fits usize");
        let share = self.budget / shards + usize::from(shard < self.budget % shards);
        if share == 0 {
            return;
        }
        // Candidates: every unprotected received 1 this shard owns.
        let mut candidates: Vec<usize> = Vec::new();
        for (w, &word) in words.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let v = lo + w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if v >= hi {
                    break;
                }
                if !ctx.is_protected(v) {
                    candidates.push(v);
                }
            }
        }
        // Greedy: highest degree first (a hub losing its bit hurts the
        // most listeners downstream), node id as the deterministic
        // tie-break.
        candidates.sort_by_key(|&v| (std::cmp::Reverse(ctx.graph.degree(v)), v));
        for &v in candidates.iter().take(share) {
            words[(v - lo) / 64] &= !(1u64 << (v % 64));
        }
    }
}

/// The closed set of channel models the engine ships, as one value type —
/// what [`crate::BeepNetwork`] stores. Every concrete model (and
/// [`Noise`] itself) converts in via `From`, so existing
/// `BeepNetwork::new(graph, Noise::…, seed)` call sites compile
/// unchanged.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ChannelModel {
    /// The iid Bernoulli channel (the paper's model; the default).
    Iid(Noise),
    /// The two-state bursty channel.
    GilbertElliott(GilbertElliott),
    /// The heterogeneous per-node channel.
    PerNodeEps(PerNodeEps),
    /// The budgeted greedy erasure adversary.
    AdversarialErasure(AdversarialErasure),
}

impl NoiseModel for ChannelModel {
    fn label(&self) -> String {
        match self {
            ChannelModel::Iid(m) => m.label(),
            ChannelModel::GilbertElliott(m) => m.label(),
            ChannelModel::PerNodeEps(m) => m.label(),
            ChannelModel::AdversarialErasure(m) => m.label(),
        }
    }

    fn calibration_epsilon(&self) -> f64 {
        match self {
            ChannelModel::Iid(m) => m.calibration_epsilon(),
            ChannelModel::GilbertElliott(m) => m.calibration_epsilon(),
            ChannelModel::PerNodeEps(m) => m.calibration_epsilon(),
            ChannelModel::AdversarialErasure(m) => m.calibration_epsilon(),
        }
    }

    fn is_noiseless(&self) -> bool {
        match self {
            ChannelModel::Iid(m) => m.is_noiseless(),
            ChannelModel::GilbertElliott(m) => m.is_noiseless(),
            ChannelModel::PerNodeEps(m) => m.is_noiseless(),
            ChannelModel::AdversarialErasure(m) => m.is_noiseless(),
        }
    }

    fn round_state(&self, seed: u64, round: u64) -> u64 {
        match self {
            ChannelModel::Iid(m) => m.round_state(seed, round),
            ChannelModel::GilbertElliott(m) => m.round_state(seed, round),
            ChannelModel::PerNodeEps(m) => m.round_state(seed, round),
            ChannelModel::AdversarialErasure(m) => m.round_state(seed, round),
        }
    }

    fn apply_to_shard(&self, words: &mut [u64], lo: usize, hi: usize, ctx: &ChannelCtx<'_>) {
        match self {
            ChannelModel::Iid(m) => m.apply_to_shard(words, lo, hi, ctx),
            ChannelModel::GilbertElliott(m) => m.apply_to_shard(words, lo, hi, ctx),
            ChannelModel::PerNodeEps(m) => m.apply_to_shard(words, lo, hi, ctx),
            ChannelModel::AdversarialErasure(m) => m.apply_to_shard(words, lo, hi, ctx),
        }
    }
}

impl ChannelModel {
    /// One [`FlipSampler`] per rate the model draws geometric skips at,
    /// for shards of up to `width` bits, in the order
    /// [`ChannelCtx::samplers`] documents; none for the other models.
    pub(crate) fn flip_samplers(&self, width: usize) -> Vec<FlipSampler> {
        match self {
            ChannelModel::Iid(Noise::Bernoulli(eps)) => vec![FlipSampler::new(*eps, width)],
            ChannelModel::GilbertElliott(m) => vec![
                FlipSampler::new(m.eps_good, width),
                FlipSampler::new(m.eps_bad, width),
            ],
            _ => Vec::new(),
        }
    }
}

impl From<Noise> for ChannelModel {
    fn from(noise: Noise) -> Self {
        ChannelModel::Iid(noise)
    }
}

impl From<GilbertElliott> for ChannelModel {
    fn from(model: GilbertElliott) -> Self {
        ChannelModel::GilbertElliott(model)
    }
}

impl From<PerNodeEps> for ChannelModel {
    fn from(model: PerNodeEps) -> Self {
        ChannelModel::PerNodeEps(model)
    }
}

impl From<AdversarialErasure> for ChannelModel {
    fn from(model: AdversarialErasure) -> Self {
        ChannelModel::AdversarialErasure(model)
    }
}

/// Applies `channel` to a whole received frame using the *exact* shard
/// layout of the bitset kernel (`per = ⌈words/S⌉` words per shard, with
/// `S = round.shard_count`), so callers outside the kernel — the scalar
/// oracle path — produce bit-identical corruption for every
/// counter-keyed model. `round` carries everything but the shard index,
/// which each shard's context sets to its own.
pub(crate) fn apply_channel_sharded(
    channel: &ChannelModel,
    round: &ChannelCtx<'_>,
    frame: &mut BitVec,
) {
    if channel.is_noiseless() {
        return;
    }
    let n = frame.len();
    let words = frame.as_words_mut();
    let per = words.len().div_ceil(round.shard_count).max(1);
    for (s, chunk) in words.chunks_mut(per).enumerate() {
        let lo = s * per * 64;
        let hi = (lo + chunk.len() * 64).min(n);
        let ctx = ChannelCtx {
            shard: s as u64,
            ..*round
        };
        channel.apply_to_shard(chunk, lo, hi, &ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;

    fn ctx<'a>(graph: &'a Graph, shard: u64, protect: Option<&'a BitVec>) -> ChannelCtx<'a> {
        ChannelCtx {
            graph,
            seed: 7,
            round: 3,
            shard,
            shard_count: 2,
            round_state: 0,
            protect,
            samplers: &[],
        }
    }

    #[test]
    fn constructors_validate_parameters() {
        assert!(GilbertElliott::try_new(0.0, 0.4, 0.1, 0.5).is_ok());
        for bad in [
            GilbertElliott::try_new(0.5, 0.1, 0.1, 0.5),
            GilbertElliott::try_new(0.1, -0.1, 0.1, 0.5),
            GilbertElliott::try_new(0.1, 0.1, 1.5, 0.5),
            GilbertElliott::try_new(0.1, 0.1, 0.5, f64::NAN),
        ] {
            assert!(matches!(bad, Err(NetError::InvalidChannel { .. })));
        }
        assert!(PerNodeEps::try_new(vec![0.0, 0.3]).is_ok());
        assert!(matches!(
            PerNodeEps::try_new(vec![]),
            Err(NetError::InvalidChannel { .. })
        ));
        assert!(matches!(
            PerNodeEps::try_new(vec![0.1, 0.5]),
            Err(NetError::InvalidChannel { .. })
        ));
        assert!(AdversarialErasure::try_new(3, 0.1).is_ok());
        assert!(matches!(
            AdversarialErasure::try_new(3, 0.6),
            Err(NetError::InvalidChannel { .. })
        ));
    }

    #[test]
    fn iid_model_mirrors_noise() {
        let m = Noise::bernoulli(0.25);
        assert_eq!(m.calibration_epsilon(), 0.25);
        assert!(!m.is_noiseless());
        assert!(Noise::Noiseless.is_noiseless());
        assert_eq!(m.round_state(1, 2), 0);
        let channel: ChannelModel = m.into();
        assert_eq!(channel, ChannelModel::Iid(Noise::Bernoulli(0.25)));
        assert_eq!(channel.label(), "eps0.25");
    }

    #[test]
    fn ge_round_zero_is_good_and_sequence_is_deterministic() {
        let ge = GilbertElliott::try_new(0.01, 0.4, 0.3, 0.5).unwrap();
        assert!(!ge.in_bad_state(11, 0));
        let sequential: Vec<bool> = (0..200).map(|r| ge.in_bad_state(11, r)).collect();
        // Random access (cold cache) replays to the same states.
        let fresh = ge.clone();
        for &r in &[199, 0, 57, 123, 57] {
            assert_eq!(fresh.in_bad_state(11, r), sequential[r as usize], "{r}");
        }
        // A different seed keys a different state sequence.
        let other: Vec<bool> = (0..200).map(|r| ge.in_bad_state(12, r)).collect();
        assert_ne!(sequential, other);
        // The chain actually visits both states at these rates.
        assert!(sequential.iter().any(|&b| b));
        assert!(sequential.iter().any(|&b| !b));
    }

    #[test]
    fn ge_with_certain_transitions_alternates() {
        // p_good_to_bad = p_bad_to_good = 1: u ∈ [0, 1) always transitions,
        // so the state alternates G, B, G, B, … from round 0.
        let ge = GilbertElliott::try_new(0.0, 0.4, 1.0, 1.0).unwrap();
        for r in 0..20 {
            assert_eq!(ge.in_bad_state(5, r), r % 2 == 1, "round {r}");
        }
    }

    #[test]
    fn ge_good_state_with_zero_rate_is_clean() {
        // Never leaves the good state; eps_good = 0 ⇒ no flips ever.
        let ge = GilbertElliott::try_new(0.0, 0.4, 0.0, 1.0).unwrap();
        let g = topology::cycle(128).unwrap();
        let mut words = [0u64; 2];
        for round in 0..20 {
            let c = ChannelCtx {
                round,
                round_state: ge.round_state(7, round),
                ..ctx(&g, 0, None)
            };
            ge.apply_to_shard(&mut words, 0, 128, &c);
        }
        assert_eq!(words, [0, 0]);
        assert!(!ge.is_noiseless(), "eps_bad > 0 is reachable in principle");
    }

    #[test]
    fn per_node_zero_rate_nodes_never_flip_and_pattern_cycles() {
        let ch = PerNodeEps::try_new(vec![0.0, 0.45]).unwrap();
        assert_eq!(ch.epsilon_of(0), 0.0);
        assert_eq!(ch.epsilon_of(7), 0.45);
        assert_eq!(ch.calibration_epsilon(), 0.45);
        let g = topology::cycle(128).unwrap();
        let mut flipped = [0usize; 128];
        for round in 0..300 {
            let mut words = [0u64; 2];
            let c = ChannelCtx {
                round,
                ..ctx(&g, 0, None)
            };
            ch.apply_to_shard(&mut words, 0, 128, &c);
            for v in 0..128 {
                if words[v / 64] >> (v % 64) & 1 == 1 {
                    flipped[v] += 1;
                }
            }
        }
        for (v, &count) in flipped.iter().enumerate() {
            if v % 2 == 0 {
                assert_eq!(count, 0, "eps = 0 node {v} flipped");
            }
        }
        let noisy_total: usize = flipped.iter().skip(1).step_by(2).sum();
        let rate = noisy_total as f64 / (64.0 * 300.0);
        assert!((rate - 0.45).abs() < 0.05, "noisy-node rate {rate}");
    }

    #[test]
    fn per_node_respects_protect_but_keeps_the_stream() {
        // Same stream with and without protection: unprotected positions
        // flip identically, protected ones never do.
        let ch = PerNodeEps::try_new(vec![0.4]).unwrap();
        let g = topology::cycle(64).unwrap();
        let protect = BitVec::from_fn(64, |v| v % 3 == 0);
        let mut bare = [0u64; 1];
        let mut guarded = [0u64; 1];
        ch.apply_to_shard(&mut bare, 0, 64, &ctx(&g, 0, None));
        ch.apply_to_shard(&mut guarded, 0, 64, &ctx(&g, 0, Some(&protect)));
        assert_eq!(guarded[0] & protect.as_words()[0], 0);
        assert_eq!(guarded[0], bare[0] & !protect.as_words()[0]);
    }

    #[test]
    fn adversary_erases_highest_degree_first_within_budget() {
        // Star: the hub (node 0) has degree n−1, leaves degree 1.
        let g = topology::star(10).unwrap();
        let ch = AdversarialErasure::try_new(2, 0.1).unwrap();
        let mut words = [0b111u64]; // hub and leaves 1, 2 received a 1
        let c = ChannelCtx {
            shard_count: 1,
            ..ctx(&g, 0, None)
        };
        ch.apply_to_shard(&mut words, 0, 10, &c);
        // Budget 2: hub first (degree 9), then leaf 1 (lowest id among
        // the degree-1 ties). Leaf 2 survives.
        assert_eq!(words[0], 0b100);
    }

    #[test]
    fn adversary_splits_budget_across_shards_and_never_sets_bits() {
        let g = topology::cycle(128).unwrap();
        let ch = AdversarialErasure::try_new(3, 0.1).unwrap();
        // Shard 0 gets ⌈3/2⌉ = 2, shard 1 gets 1.
        let mut words = [u64::MAX, u64::MAX];
        for shard in 0..2u64 {
            let lo = 64 * shard as usize;
            let c = ctx(&g, shard, None);
            ch.apply_to_shard(&mut words[shard as usize..=shard as usize], lo, lo + 64, &c);
        }
        let cleared = 128 - (words[0].count_ones() + words[1].count_ones());
        assert_eq!(cleared, 3);
        assert_eq!(words[0].count_ones(), 62);
        assert_eq!(words[1].count_ones(), 63);
        // Erasure-only: an all-zero frame stays all-zero.
        let mut silent = [0u64; 2];
        ch.apply_to_shard(&mut silent, 0, 128, &ctx(&g, 0, None));
        assert_eq!(silent, [0, 0]);
    }

    #[test]
    fn adversary_respects_protection() {
        let g = topology::star(4).unwrap();
        let ch = AdversarialErasure::try_new(4, 0.1).unwrap();
        let protect = BitVec::from_indices(4, [0]);
        let mut words = [0b1111u64];
        let c = ChannelCtx {
            shard_count: 1,
            ..ctx(&g, 0, Some(&protect))
        };
        ch.apply_to_shard(&mut words, 0, 4, &c);
        assert_eq!(words[0], 0b0001, "protected hub bit must survive");
    }

    #[test]
    fn channel_model_delegates_and_zero_budget_is_noiseless() {
        let m: ChannelModel = AdversarialErasure::try_new(0, 0.1).unwrap().into();
        assert!(m.is_noiseless());
        assert_eq!(m.calibration_epsilon(), 0.1);
        let ge: ChannelModel = GilbertElliott::try_new(0.1, 0.3, 0.2, 0.2).unwrap().into();
        assert_eq!(ge.calibration_epsilon(), 0.3);
        assert!(ge.label().starts_with("ge-"));
        let pn: ChannelModel = PerNodeEps::try_new(vec![0.0, 0.0]).unwrap().into();
        assert!(pn.is_noiseless());
    }

    #[test]
    fn sharded_helper_matches_manual_shard_loop() {
        let g = topology::cycle(200).unwrap();
        let channel: ChannelModel = PerNodeEps::try_new(vec![0.1, 0.3, 0.0]).unwrap().into();
        let mut via_helper = BitVec::zeros(200);
        let round = ChannelCtx {
            seed: 9,
            round: 4,
            ..ctx(&g, 0, None)
        };
        apply_channel_sharded(&channel, &round, &mut via_helper);
        // Manual replication of the kernel's layout: 4 words, 2 per shard.
        let mut manual = BitVec::zeros(200);
        let words = manual.as_words_mut();
        for s in 0..2usize {
            let lo = s * 2 * 64;
            let hi = (lo + 128).min(200);
            let c = ChannelCtx {
                graph: &g,
                seed: 9,
                round: 4,
                shard: s as u64,
                shard_count: 2,
                round_state: 0,
                protect: None,
                samplers: &[],
            };
            channel.apply_to_shard(&mut words[s * 2..(s * 2 + 2).min(4)], lo, hi, &c);
        }
        assert_eq!(via_helper, manual);
    }
}
