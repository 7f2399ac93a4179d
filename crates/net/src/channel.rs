//! The channel: the closed [`ChannelModel`] enum of the models the engine
//! runs.
//!
//! The paper's channel flips every received bit independently with one
//! global rate `ε` ([`Noise`]). Real deployments are messier: links fade
//! in bursts, nodes differ in radio quality, and a worst-case analysis
//! wants an adversary, not a coin. [`ChannelModel`] holds one of four
//! models:
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
//! The shards are word-aligned: with `S` shards over `w` words, shard `s`
//! owns words `[s·⌈w/S⌉, (s+1)·⌈w/S⌉)`. One function in this module
//! computes that layout, and every kernel walks it.
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
pub(crate) struct ChannelCtx<'a> {
    /// The network graph (e.g. for degree-aware adversaries).
    pub(crate) graph: &'a Graph,
    /// The network's base seed.
    pub(crate) seed: u64,
    /// The round counter (the engine's cumulative round count).
    pub(crate) round: u64,
    /// This shard's index in `0..shard_count`.
    pub(crate) shard: u64,
    /// Total shard count `S` of this round's layout.
    pub(crate) shard_count: usize,
    /// The model's own per-round state, as returned by
    /// [`ChannelModel::round_state`] for `(seed, round)` — computed once
    /// per round and passed to every shard, so shards never recompute
    /// (or lock) shared state.
    pub(crate) round_state: u64,
    /// Bits that must not be corrupted (the beeper set when self-hearing
    /// is configured noise-free), indexed by global bit position.
    pub(crate) protect: Option<&'a BitVec>,
    /// The model's [`FlipSampler`]s, one per rate it flips bits at, as
    /// [`ChannelModel::flip_samplers`] builds them: `[ε]` for the iid
    /// channel, `[ε_good, ε_bad]` for Gilbert–Elliott.
    pub(crate) samplers: &'a [FlipSampler],
}

impl ChannelCtx<'_> {
    /// Whether global bit position `v` is protected from corruption.
    fn is_protected(&self, v: usize) -> bool {
        self.protect.is_some_and(|p| p.get(v))
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
/// use beep_net::{topology, BeepNetwork, ChannelModel, PerNodeEps};
///
/// // Nodes 0, 3, 6, … are clean; the rest flip at 20%.
/// let ch = PerNodeEps::try_new(vec![0.0, 0.2, 0.2]).unwrap();
/// assert_eq!(ch.epsilon_of(0), 0.0);
/// assert_eq!(ch.epsilon_of(4), 0.2);
/// let ch = ChannelModel::from(ch);
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
/// against ([`ChannelModel::calibration_epsilon`]): the adversary is *not*
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

/// The closed set of channel models the engine ships, as one value type —
/// what [`crate::BeepNetwork`] stores. Every concrete model (and
/// [`Noise`] itself) converts in via `From`, so existing
/// `BeepNetwork::new(graph, Noise::…, seed)` call sites compile
/// unchanged.
///
/// Every model is counter-keyed (see the [module docs](self)): all
/// randomness for shard `s` of round `r` comes from that cell's
/// [`noise_stream_seed`] stream, and per-round global state from the
/// reserved [`ROUND_STATE_STREAM`], so a transcript never depends on the
/// thread count.
///
/// ```
/// use beep_bits::BitVec;
/// use beep_net::{topology, BeepNetwork, ChannelModel, GilbertElliott};
///
/// let ge = GilbertElliott::try_new(0.01, 0.4, 0.1, 0.5).unwrap();
/// let channel = ChannelModel::from(ge);
/// assert!(!channel.is_noiseless());
/// // Any ChannelModel drops into BeepNetwork where a Noise used to go.
/// let mut net = BeepNetwork::new(topology::cycle(64).unwrap(), channel, 7);
/// let received = net.run_round_bitset(&BitVec::zeros(64)).unwrap();
/// assert_eq!(received.len(), 64);
/// ```
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

impl ChannelModel {
    /// A short, stable, human-readable label (used in reports and ids).
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            ChannelModel::Iid(m) => format!("eps{}", m.epsilon()),
            ChannelModel::GilbertElliott(m) => format!(
                "ge-g{}-b{}-pgb{}-pbg{}",
                m.eps_good, m.eps_bad, m.p_good_to_bad, m.p_bad_to_good
            ),
            ChannelModel::PerNodeEps(m) => {
                let rates: Vec<String> = m.eps.iter().map(ToString::to_string).collect();
                format!("pernode-{}", rates.join("-"))
            }
            ChannelModel::AdversarialErasure(m) => {
                format!("adv-b{}-e{}", m.budget, m.design_epsilon)
            }
        }
    }

    /// The iid rate the surrounding machinery should calibrate against:
    /// the `ε` fed to `SimulationParams::calibrated` and checked by the
    /// simulators' noise-mismatch guards. For the iid channel this is
    /// `ε` itself; heterogeneous models report their worst-case rate, and
    /// the adversary its declared design rate.
    #[must_use]
    pub fn calibration_epsilon(&self) -> f64 {
        match self {
            ChannelModel::Iid(m) => m.epsilon(),
            ChannelModel::GilbertElliott(m) => m.eps_good.max(m.eps_bad),
            ChannelModel::PerNodeEps(m) => m.eps.iter().copied().fold(0.0, f64::max),
            ChannelModel::AdversarialErasure(m) => m.design_epsilon,
        }
    }

    /// Whether the model never corrupts any bit — lets the engine skip
    /// the per-shard channel pass entirely.
    #[must_use]
    pub fn is_noiseless(&self) -> bool {
        match self {
            ChannelModel::Iid(m) => matches!(m, Noise::Noiseless),
            ChannelModel::GilbertElliott(m) => m.eps_good == 0.0 && m.eps_bad == 0.0,
            ChannelModel::PerNodeEps(m) => m.eps.iter().all(|&e| e == 0.0),
            ChannelModel::AdversarialErasure(m) => m.budget == 0,
        }
    }

    /// The model's global state for `round`, derived deterministically
    /// from `(seed, round)` only, via the reserved
    /// [`ROUND_STATE_STREAM`]: whether Gilbert–Elliott is in its bad
    /// state, and `0` for the stateless models. The engine calls this
    /// once per round and hands the value to every shard in
    /// [`ChannelCtx::round_state`].
    pub(crate) fn round_state(&self, seed: u64, round: u64) -> u64 {
        match self {
            ChannelModel::GilbertElliott(m) => u64::from(m.in_bad_state(seed, round)),
            _ => 0,
        }
    }

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

    /// Corrupts the received bits at global positions `lo..hi` (with
    /// `lo` word-aligned) inside `words`, whose first word holds bits
    /// `lo..lo + 64`. Touches only `[lo, hi)`, never a bit set in
    /// `ctx.protect`, and draws randomness only as the [module
    /// docs](self) prescribe. Callers skip it when the model
    /// [`is_noiseless`](Self::is_noiseless).
    pub(crate) fn apply_to_shard(
        &self,
        words: &mut [u64],
        lo: usize,
        hi: usize,
        ctx: &ChannelCtx<'_>,
    ) {
        match self {
            // The iid channel: one geometric-skip pass through the rate's
            // sampler, byte-for-byte the stream the golden pins hold.
            ChannelModel::Iid(_) => {
                let mut rng =
                    StdRng::seed_from_u64(noise_stream_seed(ctx.seed, ctx.round, ctx.shard));
                ctx.samplers[0].apply(words, lo, hi, ctx.protect, &mut rng);
            }
            ChannelModel::GilbertElliott(m) => {
                let bad = ctx.round_state == 1;
                let eps = if bad { m.eps_bad } else { m.eps_good };
                if eps == 0.0 {
                    return;
                }
                // The per-shard flips reuse the iid geometric-skip pass at
                // the active state's rate (sampler 0 good, 1 bad), on the
                // normal (seed, round, shard) stream.
                let mut rng =
                    StdRng::seed_from_u64(noise_stream_seed(ctx.seed, ctx.round, ctx.shard));
                ctx.samplers[usize::from(bad)].apply(words, lo, hi, ctx.protect, &mut rng);
            }
            ChannelModel::PerNodeEps(m) => {
                let mut rng =
                    StdRng::seed_from_u64(noise_stream_seed(ctx.seed, ctx.round, ctx.shard));
                for v in lo..hi {
                    // One draw per owned node unconditionally: the stream
                    // must not depend on the protect set or the rates.
                    let u: f64 = rng.random();
                    if u < m.epsilon_of(v) && !ctx.is_protected(v) {
                        words[(v - lo) / 64] ^= 1u64 << (v % 64);
                    }
                }
            }
            ChannelModel::AdversarialErasure(m) => {
                let shards = ctx.shard_count.max(1);
                let shard = usize::try_from(ctx.shard).expect("shard index fits usize");
                let share = m.budget / shards + usize::from(shard < m.budget % shards);
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
                // Greedy: highest degree first (a hub losing its bit hurts
                // the most listeners downstream), node id as the
                // deterministic tie-break.
                candidates.sort_by_key(|&v| (std::cmp::Reverse(ctx.graph.degree(v)), v));
                for &v in candidates.iter().take(share) {
                    words[(v - lo) / 64] &= !(1u64 << (v % 64));
                }
            }
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

/// Words per shard of the word-aligned shard layout over `words` words:
/// `⌈words/S⌉`, at least 1. Shard `s` owns words `[s·per, (s+1)·per)`.
/// The layout is a pure function of `(words, S)`, never of the thread
/// count, and every channel keys its streams by it.
pub(crate) fn shard_words(words: usize, shard_count: usize) -> usize {
    words.div_ceil(shard_count).max(1)
}

/// The shards of an `n`-bit frame held in `words`, in order, as
/// `(shard, lo, hi, words)`: the shard index, its first and
/// one-past-last bit, and its words (the first holds bits `lo..lo + 64`).
pub(crate) fn shards(
    words: &mut [u64],
    n: usize,
    shard_count: usize,
) -> impl ExactSizeIterator<Item = (usize, usize, usize, &mut [u64])> {
    let per = shard_words(words.len(), shard_count);
    words.chunks_mut(per).enumerate().map(move |(s, chunk)| {
        let lo = s * per * 64;
        (s, lo, (lo + chunk.len() * 64).min(n), chunk)
    })
}

/// Applies `channel` to a whole received frame, shard by shard over the
/// [`shards`] layout with `S = round.shard_count`. `round` carries
/// everything but the shard index, which each shard's context sets to
/// its own.
pub(crate) fn apply_channel_sharded(
    channel: &ChannelModel,
    round: &ChannelCtx<'_>,
    frame: &mut BitVec,
) {
    if channel.is_noiseless() {
        return;
    }
    let n = frame.len();
    for (s, lo, hi, words) in shards(frame.as_words_mut(), n, round.shard_count) {
        let ctx = ChannelCtx {
            shard: s as u64,
            ..*round
        };
        channel.apply_to_shard(words, lo, hi, &ctx);
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
        let channel = ChannelModel::from(Noise::bernoulli(0.25));
        assert_eq!(channel, ChannelModel::Iid(Noise::Bernoulli(0.25)));
        assert_eq!(channel.calibration_epsilon(), 0.25);
        assert!(!channel.is_noiseless());
        assert!(ChannelModel::from(Noise::Noiseless).is_noiseless());
        assert_eq!(channel.round_state(1, 2), 0);
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
        let ge = ChannelModel::from(GilbertElliott::try_new(0.0, 0.4, 0.0, 1.0).unwrap());
        let g = topology::cycle(128).unwrap();
        let samplers = ge.flip_samplers(128);
        let mut words = [0u64; 2];
        for round in 0..20 {
            let c = ChannelCtx {
                round,
                round_state: ge.round_state(7, round),
                samplers: &samplers,
                ..ctx(&g, 0, None)
            };
            ge.apply_to_shard(&mut words, 0, 128, &c);
        }
        assert_eq!(words, [0, 0]);
        assert!(!ge.is_noiseless(), "eps_bad > 0 is reachable in principle");
    }

    #[test]
    fn per_node_zero_rate_nodes_never_flip_and_pattern_cycles() {
        let pattern = PerNodeEps::try_new(vec![0.0, 0.45]).unwrap();
        assert_eq!(pattern.epsilon_of(0), 0.0);
        assert_eq!(pattern.epsilon_of(7), 0.45);
        let ch = ChannelModel::from(pattern);
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
        let ch = ChannelModel::from(PerNodeEps::try_new(vec![0.4]).unwrap());
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
        let ch = ChannelModel::from(AdversarialErasure::try_new(2, 0.1).unwrap());
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
        let ch = ChannelModel::from(AdversarialErasure::try_new(3, 0.1).unwrap());
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
        let ch = ChannelModel::from(AdversarialErasure::try_new(4, 0.1).unwrap());
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
