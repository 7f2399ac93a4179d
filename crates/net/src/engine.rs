//! The synchronous round engine.

use crate::channel::{apply_channel_sharded, shard_words, ChannelCtx, ChannelModel};
use crate::error::NetError;
use crate::faults::{
    AdaptivePolicy, AdversaryView, FaultPlan, LoudestIndex, RoundFaults, StaticMasks,
};
use crate::graph::Graph;
use crate::node::{Action, BeepProtocol};
use crate::noise::FlipSampler;
use crate::trace::{NetStats, Transcript};
use beep_bits::{transpose64, BitVec};

/// Word budget for the precomputed dense adjacency bitmasks: `n` rows of
/// `⌈n/64⌉` words each are only built when they fit in this many
/// `u64`s (16 MiB). Beyond it the sparse CSR kernel is used.
const DENSE_WORD_BUDGET: usize = 1 << 21;

/// Default shard count `S` of the channel's stream layout. Part of the
/// determinism tuple `(graph, noise, seed, actions, shard_count)`, so it is
/// a fixed constant — never derived from the machine. Override with
/// [`BeepNetwork::set_shard_count`].
const DEFAULT_SHARD_COUNT: usize = 8;

/// Beeper-density threshold of the sparse kernel: at `16·#beepers ≥ n`
/// the destination-side gather (early-exit neighbor scan per listener)
/// beats the source-side scatter (each beeper's adjacency list).
/// Cost-only — both strategies write the same bits.
const GATHER_DENSITY_FACTOR: usize = 16;

/// How [`BeepNetwork::run_round_bitset`] computes the neighborhood OR.
#[derive(Debug)]
enum AdjKernel {
    /// Iterate the set bits of the beeper bitmap and scatter each beeper's
    /// adjacency list into the received bitmap: `O(Σ deg(beeper))`.
    Sparse,
    /// Dense rows selected but not yet built: a network that only
    /// ever runs the scalar path (or is constructed per bench iteration)
    /// must not pay the `O(n²/64)` build in `new`. The first bitset round
    /// promotes this to [`AdjKernel::Dense`].
    DensePending,
    /// Per-node neighbor bitmasks, OR'd a whole row (word-parallel) per
    /// beeper: `O(#beepers · n/64)` words. Wins on small or dense graphs.
    Dense(Vec<BitVec>),
}

impl AdjKernel {
    /// Auto-selects the kernel. A graph gets dense rows when they fit the
    /// [`DENSE_WORD_BUDGET`] *and* the graph is dense enough that a row OR
    /// (`⌈n/64⌉` words) beats scattering an average adjacency list (`2m/n`
    /// bit-writes), i.e. roughly when `128·m ≥ n²`. The rows themselves
    /// are built lazily on first use.
    fn auto(graph: &Graph) -> Self {
        let n = graph.node_count();
        let words_per_row = n.div_ceil(64);
        let fits = n.saturating_mul(words_per_row) <= DENSE_WORD_BUDGET;
        let dense_enough = 128usize.saturating_mul(graph.edge_count()) >= n.saturating_mul(n);
        if n > 0 && fits && dense_enough {
            AdjKernel::DensePending
        } else {
            AdjKernel::Sparse
        }
    }

    fn dense(graph: &Graph) -> Self {
        let n = graph.node_count();
        AdjKernel::Dense(
            (0..n)
                .map(|v| {
                    let mut row = BitVec::zeros(n);
                    graph.for_each_neighbor(v, |u| row.set(u, true));
                    row
                })
                .collect(),
        )
    }

    /// Writes one round's pre-channel received bits into `out`: the
    /// beepers themselves (self-hearing, Section 1.5) ORed with every
    /// beeper's neighborhood, by this kernel. `beep_count` is the number
    /// of set bits of `beepers`. The first call on pending dense rows
    /// builds them.
    fn or_into(&mut self, graph: &Graph, beepers: &BitVec, beep_count: usize, out: &mut BitVec) {
        if matches!(self, AdjKernel::DensePending) {
            *self = AdjKernel::dense(graph);
        }
        let n = graph.node_count();
        let out = out.as_words_mut();
        out.copy_from_slice(beepers.as_words());
        if let AdjKernel::Dense(rows) = self {
            // OR each beeper's adjacency-bitmask row, in u64×8 unrolled
            // lanes.
            for u in beepers.iter_ones() {
                or_words_wide(out, rows[u].as_words());
            }
        } else if GATHER_DENSITY_FACTOR * beep_count >= n {
            // Dense beeper set: only listeners scan their CSR
            // neighborhood, with early exit — at ≥ n/16 beepers a hit
            // comes fast. The listeners are the zero bits of the
            // self-hearing copy; bits at `n` and above in the last word
            // are not nodes.
            let (offsets, neighbors) = graph.csr();
            let src = beepers.as_words();
            for (i, word) in out.iter_mut().enumerate() {
                let base = 64 * i;
                let mut listeners = !*word;
                if n - base < 64 {
                    listeners &= (1u64 << (n - base)) - 1;
                }
                while listeners != 0 {
                    let v = base + listeners.trailing_zeros() as usize;
                    listeners &= listeners - 1;
                    if neighbors[offsets[v]..offsets[v + 1]]
                        .iter()
                        .any(|&u| src[u / 64] >> (u % 64) & 1 != 0)
                    {
                        *word |= 1 << (v % 64);
                    }
                }
            }
        } else {
            // Sparse beeper set: scatter each beeper's CSR adjacency list.
            // Consecutive neighbors usually share an output word (lists
            // are sorted), so bits accumulate in a register and flush once
            // per word instead of read-modify-writing memory per neighbor.
            for u in beepers.iter_ones() {
                let mut cur = usize::MAX;
                let mut acc = 0u64;
                for &w in graph.neighbors(u) {
                    if w / 64 != cur {
                        if acc != 0 {
                            out[cur] |= acc;
                        }
                        cur = w / 64;
                        acc = 0;
                    }
                    acc |= 1u64 << (w % 64);
                }
                if acc != 0 {
                    out[cur] |= acc;
                }
            }
        }
    }
}

/// `dst |= src` over whole words, manually unrolled into u64×8 lanes so
/// the dense row OR issues wide independent OR chains instead of relying
/// on the autovectorizer's judgement in a generic zip loop.
#[inline]
fn or_words_wide(dst: &mut [u64], src: &[u64]) {
    let mut d = dst.chunks_exact_mut(8);
    let mut s = src.chunks_exact(8);
    for (dc, sc) in (&mut d).zip(&mut s) {
        dc[0] |= sc[0];
        dc[1] |= sc[1];
        dc[2] |= sc[2];
        dc[3] |= sc[3];
        dc[4] |= sc[4];
        dc[5] |= sc[5];
        dc[6] |= sc[6];
        dc[7] |= sc[7];
    }
    for (d1, s1) in d.into_remainder().iter_mut().zip(s.remainder()) {
        *d1 |= *s1;
    }
}

// Frames move in blocks of 64 rounds × 64 nodes: one 64-word block per
// 64-node group `g`, whose word `i` is the group's word in the block's
// round `i`. Transposing a block converts it to or from the group's 64
// node-major frame (heard) words.

/// A frame batch as the neighborhood OR and the channel see it: each
/// node's effective frame, and which heard bits the overlay clears after
/// the channel.
enum EffectiveFrames<'a> {
    /// The submitted frames under the static masks, if given, that hold
    /// for every round of the frame: spammers' frames forced to all ones,
    /// silent nodes' frames dropped and deaf nodes' heard frames cleared.
    Masked {
        frames: &'a [Option<BitVec>],
        masks: Option<&'a StaticMasks>,
        /// The all-ones frame every spammer transmits (empty without
        /// masks).
        ones: BitVec,
    },
    /// The frames the overlay pass fixed round by round, node-major: node
    /// `v`'s `blocks` words start at word `v · blocks` of `beeps` (its
    /// effective frame) and of `deaf` (the rounds it is deaf in).
    Overlaid {
        beeps: Vec<u64>,
        deaf: Vec<u64>,
        blocks: usize,
    },
}

impl<'a> EffectiveFrames<'a> {
    fn masked(frames: &'a [Option<BitVec>], masks: Option<&'a StaticMasks>, rounds: usize) -> Self {
        let ones = BitVec::ones(if masks.is_some() { rounds } else { 0 });
        EffectiveFrames::Masked {
            frames,
            masks,
            ones,
        }
    }

    /// Node `v`'s effective frame words: `None` for a listener, a silenced
    /// node or a node past the last group's end.
    fn words(&self, v: usize) -> Option<&[u64]> {
        match self {
            EffectiveFrames::Masked {
                frames,
                masks,
                ones,
            } => {
                let submitted = frames.get(v)?;
                match masks {
                    Some(m) if m.spam.get(v) => Some(ones.as_words()),
                    Some(m) if m.silent.get(v) => None,
                    _ => submitted.as_ref().map(BitVec::as_words),
                }
            }
            EffectiveFrames::Overlaid { beeps, blocks, .. } => {
                beeps.get(v * blocks..(v + 1) * blocks)
            }
        }
    }

    /// Word `b` of node `v`'s effective frame.
    fn word(&self, v: usize, b: usize) -> u64 {
        self.words(v).map_or(0, |f| f[b])
    }

    /// Clears deaf nodes' heard bits, after the channel.
    fn clear_deaf(&self, heard: &mut [BitVec]) {
        match self {
            EffectiveFrames::Masked { masks, .. } => {
                for v in masks.iter().flat_map(|m| m.deaf.iter_ones()) {
                    heard[v].clear();
                }
            }
            EffectiveFrames::Overlaid { deaf, blocks, .. } => {
                for (v, h) in heard.iter_mut().enumerate() {
                    let deaf = &deaf[v * blocks..(v + 1) * blocks];
                    for (w, &d) in h.as_words_mut().iter_mut().zip(deaf) {
                        *w &= !d;
                    }
                }
            }
        }
    }
}

/// Fills each group's block with `word(v)` for its 64 nodes `v` and
/// transposes it to round-major.
fn to_round_major(blocks: &mut [[u64; 64]], word: impl Fn(usize) -> u64) {
    for (g, block) in blocks.iter_mut().enumerate() {
        for (j, w) in block.iter_mut().enumerate() {
            *w = word(64 * g + j);
        }
        transpose64(block);
    }
}

/// Transposes each group's block back to node-major and hands each of its
/// 64 nodes `v` its word to `store(v, word)`.
fn to_node_major(blocks: &mut [[u64; 64]], mut store: impl FnMut(usize, u64)) {
    for (g, block) in blocks.iter_mut().enumerate() {
        transpose64(block);
        for (j, &w) in block.iter().enumerate() {
            store(64 * g + j, w);
        }
    }
}

/// Round `i` of the blocks as one node-indexed bitmap.
fn load_round(blocks: &[[u64; 64]], i: usize, bits: &mut BitVec) {
    for (w, block) in bits.as_words_mut().iter_mut().zip(blocks) {
        *w = block[i];
    }
}

/// Writes a node-indexed bitmap back as round `i` of the blocks.
fn store_round(blocks: &mut [[u64; 64]], i: usize, bits: &BitVec) {
    for (&w, block) in bits.as_words().iter().zip(blocks) {
        block[i] = w;
    }
}

/// A beeping network: a graph, a channel model, and a seed.
///
/// The engine implements the models of Section 1.1 exactly:
///
/// 1. every node submits an [`Action`] for the round;
/// 2. a node receives `1` iff it beeped itself or at least one neighbor
///    beeped (Section 1.5's "receives" convention);
/// 3. under [`Noise::Bernoulli`](crate::Noise::Bernoulli), each node's
///    received bit is then flipped independently with probability `ε`.
///
/// Per the paper's footnote 2, a beeping node's own `1` is flipped too by
/// default, so the engine matches the analysis verbatim; call
/// [`set_self_hearing_noisy(false)`](Self::set_self_hearing_noisy) for the
/// (easier) realistic semantics where a node knows it beeped.
///
/// # Round kernels
///
/// Three implementations of the same model, each running a round on
/// the calling thread:
///
/// * [`run_round`](Self::run_round) — the scalar reference: one pass over
///   the nodes with one neighborhood scan each, then the channel through
///   the same counter-keyed shard pass as the bitset kernel. Kept as the
///   differential-testing oracle.
/// * [`run_round_bitset`](Self::run_round_bitset) — the bit-parallel
///   production kernel: beepers come in as a [`BitVec`], the received OR is
///   computed in one pass by the kernel the graph selects (precomputed
///   adjacency bitmask rows on small dense graphs, the beepers' adjacency
///   lists otherwise), and the channel then runs over the
///   [`shard_count`](Self::shard_count) word-aligned shards of its stream
///   layout, iid noise with batched geometric-skip sampling, each gap read
///   from the rate's exact step-point table ([`FlipSampler`]).
/// * The **whole-frame path** of [`run_frame`](Self::run_frame): each
///   node's pre-channel heard frame is the word-parallel OR of its own and
///   its transmitting neighbours' effective frames, taken once per frame,
///   and only the channel runs round by round, through the same shard pass
///   as the other kernels. Under an adaptive policy, or when a crash round
///   falls strictly inside the frame, one overlay pass over the frame's
///   rounds first fixes each round's effective beepers and deaf set.
///
/// # Determinism contract
///
/// Every kernel draws each round's channel corruption from per-shard
/// counter-keyed streams ([`noise_stream_seed`](crate::noise_stream_seed)`(seed,
/// round, shard)`). A noisy transcript is therefore a pure function of
/// `(graph, channel, faults, seed, actions, shard_count)`. The scalar and
/// bitset kernels are bit-identical under every channel, noiseless or
/// noisy (asserted by the `bitset_oracle` test suite).
///
/// # Fault overlay
///
/// An installed [`FaultPlan`] (see [`set_fault_plan`](Self::set_fault_plan))
/// slots between submitted actions and the channel in **every** kernel:
/// faulty nodes' actions are overridden before the neighborhood OR (so the
/// overlay is applied identically regardless of shard layout), and crashed
/// nodes' received bits are forced to 0 after the channel. The bitset
/// kernel and the whole-frame path apply the plan's static assignments as
/// silent, spam and deaf word masks, built when the plan is installed and
/// rebuilt only when the round counter reaches the next crash round; the
/// whole-frame path applies masks that hold for the whole frame to whole
/// frames. A plan may also carry an
/// [`AdaptivePolicy`](crate::AdaptivePolicy): its per-round choices are
/// computed once before the OR, from observables (submitted beepers,
/// cumulative per-node beep counts, last network activity) that are
/// identical in every kernel and never depend on what the channel
/// delivered, and applied through the same two passes. So a frame under
/// an adaptive policy, or with a crash round inside it, fixes all its
/// rounds' overlays in one pass before its OR. The channel's RNG streams
/// are untouched either way, so a run with the empty plan is
/// byte-identical to a fault-free run.
///
/// # Example
///
/// ```
/// use beep_bits::BitVec;
/// use beep_net::{topology, BeepNetwork, Noise};
///
/// let mut net = BeepNetwork::new(topology::star(5).unwrap(), Noise::Noiseless, 7);
/// // Leaf 3 beeps: the hub (node 0) hears it, the other leaves don't.
/// let received = net.run_round_bitset(&BitVec::from_indices(5, [3])).unwrap();
/// assert_eq!(received.to_string(), "10010");
/// assert_eq!(net.stats().rounds, 1);
/// ```
#[derive(Debug)]
pub struct BeepNetwork {
    graph: Graph,
    channel: ChannelModel,
    /// Node-fault overlay applied between submitted actions and the
    /// channel; empty (a guaranteed no-op) unless installed via
    /// [`set_fault_plan`](Self::set_fault_plan).
    faults: FaultPlan,
    /// The plan's static assignments at the current round as word masks;
    /// `None` when it has none.
    masks: Option<StaticMasks>,
    seed: u64,
    stats: NetStats,
    beeps_per_node: Vec<u64>,
    /// The most recent round in which any node effectively beeped (before
    /// adaptive additions) — part of what an [`AdversaryView`] observes.
    last_activity: Option<u64>,
    self_hearing_noisy: bool,
    transcript: Option<Transcript>,
    kernel: AdjKernel,
    /// The channel's flip samplers for the current shard layout. Built on
    /// the first noisy round, as dense rows are: a network that never runs
    /// one never pays for the tables.
    samplers: Option<Vec<FlipSampler>>,
    shard_count: usize,
}

impl BeepNetwork {
    /// Creates a network over `graph` with the given channel and seed.
    /// Runs are fully deterministic in `(graph, channel, seed, actions)`
    /// plus, for noisy rounds, the [`shard_count`](Self::shard_count).
    ///
    /// The channel is anything convertible into a [`ChannelModel`]: a
    /// plain [`Noise`](crate::Noise) (the paper's iid channel — every
    /// pre-existing call site), or one of the [`crate::channel`] models
    /// such as [`crate::GilbertElliott`].
    #[must_use]
    pub fn new(graph: Graph, channel: impl Into<ChannelModel>, seed: u64) -> Self {
        let channel = channel.into();
        let beeps_per_node = vec![0; graph.node_count()];
        let kernel = AdjKernel::auto(&graph);
        BeepNetwork {
            graph,
            channel,
            faults: FaultPlan::none(),
            masks: None,
            seed,
            stats: NetStats::default(),
            beeps_per_node,
            last_activity: None,
            self_hearing_noisy: true,
            transcript: None,
            kernel,
            samplers: None,
            shard_count: DEFAULT_SHARD_COUNT,
        }
    }

    /// The underlying graph.
    #[must_use]
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The channel model.
    #[must_use]
    pub fn channel(&self) -> &ChannelModel {
        &self.channel
    }

    /// Installs a [`FaultPlan`]: from the next round on, faulty nodes'
    /// actions are overridden between submission and the channel (crashed
    /// nodes additionally go deaf — their received bit is forced to 0).
    /// The overlay applies identically in every kernel — scalar, bitset,
    /// frame, and protocol-driven rounds — and replaces any previous plan;
    /// install [`FaultPlan::none`] to clear it.
    ///
    /// Stats, per-node energy, and recorded transcripts count the
    /// *effective* (overridden) actions: a spammer's forced beeps cost it
    /// energy, a crashed node's submitted beeps cost nothing.
    ///
    /// # Errors
    ///
    /// [`NetError::InvalidFaultPlan`] if the plan names a node outside the
    /// graph.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) -> Result<(), NetError> {
        if let Some(node) = plan.max_node() {
            let n = self.graph.node_count();
            if node >= n {
                return Err(NetError::InvalidFaultPlan {
                    detail: format!("node {node} out of range for {n} nodes"),
                });
            }
        }
        let round = self.stats.rounds as u64;
        self.masks = (!plan.assignments().is_empty())
            .then(|| plan.static_masks(self.graph.node_count(), round));
        self.faults = plan;
        Ok(())
    }

    /// Rebuilds the static fault masks once `round` reaches the next crash
    /// round.
    fn refresh_masks(&mut self, round: u64) {
        let next_change = self.masks.as_ref().and_then(|m| m.next_change);
        if next_change.is_some_and(|r| round >= r) {
            self.masks = Some(self.faults.static_masks(self.graph.node_count(), round));
        }
    }

    /// The installed [`FaultPlan`] (empty by default).
    #[must_use]
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    /// Cumulative round/energy statistics.
    #[must_use]
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Per-node energy: how many beeps each node has emitted so far. The
    /// natural fairness/battery metric for the weak devices the beeping
    /// model targets.
    #[must_use]
    pub fn beeps_by_node(&self) -> &[u64] {
        &self.beeps_per_node
    }

    /// Chooses whether a beeping node's own received `1` passes through the
    /// noisy channel (default `true`, matching the paper's footnote 2).
    pub fn set_self_hearing_noisy(&mut self, noisy: bool) {
        self.self_hearing_noisy = noisy;
    }

    /// Sets the shard count `S` of the channel's stream layout.
    ///
    /// `S` is part of the determinism tuple: under a noisy channel each
    /// shard draws its flips from its own `(seed, round, shard)`-keyed
    /// stream, so changing `S` changes the noisy transcript (noiseless
    /// results never change). Keep the default when reproducing recorded
    /// experiments.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn set_shard_count(&mut self, shards: usize) {
        assert!(shards > 0, "shard count must be at least 1");
        self.shard_count = shards;
        // The samplers are sized for the widest shard of the old layout.
        self.samplers = None;
    }

    /// The shard count `S` of the channel's stream layout.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Builds the channel's flip samplers on the first noisy round, for
    /// shards of the layout's widest width. A noiseless channel never
    /// reaches a sampler and gets none.
    fn prepare_samplers(&mut self) {
        if self.samplers.is_none() && !self.channel.is_noiseless() {
            let widest = shard_words(self.graph.node_count().div_ceil(64), self.shard_count) * 64;
            self.samplers = Some(self.channel.flip_samplers(widest));
        }
    }

    /// The channel context of `round`, at shard 0 (each shard sets its
    /// own index). `beepers` is protected from the channel when
    /// self-hearing is noise-free.
    fn channel_ctx<'a>(&'a self, round: u64, beepers: &'a BitVec) -> ChannelCtx<'a> {
        ChannelCtx {
            graph: &self.graph,
            seed: self.seed,
            round,
            shard: 0,
            shard_count: self.shard_count,
            round_state: self.channel.round_state(self.seed, round),
            protect: (!self.self_hearing_noisy).then_some(beepers),
            samplers: self.samplers.as_deref().unwrap_or_default(),
        }
    }

    /// Starts recording a [`Transcript`] of beep bitmaps from the next
    /// round on.
    pub fn record_transcript(&mut self) {
        if self.transcript.is_none() {
            self.transcript = Some(Transcript::new());
        }
    }

    /// The transcript recorded so far, if recording was enabled.
    #[must_use]
    pub fn transcript(&self) -> Option<&Transcript> {
        self.transcript.as_ref()
    }

    /// Executes one synchronous round and returns the bit each node
    /// receives.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::ActionCount`] if `actions.len()` differs from
    /// the node count.
    pub fn run_round(&mut self, actions: &[Action]) -> Result<Vec<bool>, NetError> {
        let n = self.graph.node_count();
        if actions.len() != n {
            return Err(NetError::ActionCount {
                expected: n,
                actual: actions.len(),
            });
        }
        self.prepare_samplers();
        let round = self.stats.rounds as u64;
        // Fault overlay, step 1: override faulty nodes' actions *before*
        // the neighborhood OR and the channel — the same pre-channel point
        // at which the bitset kernel edits its beeper bitmap. An adaptive
        // policy then observes the static-effective submissions (the same
        // AdversaryView the bitset kernel builds before its OR) and adds
        // its per-round choices on top.
        let overridden: Vec<Action>;
        let decision: RoundFaults;
        let pre_adaptive_active: bool;
        let actions: &[Action] = if self.faults.is_empty() {
            decision = RoundFaults::none();
            pre_adaptive_active = actions.contains(&Action::Beep);
            actions
        } else {
            let mut eff: Vec<Action> = (0..n)
                .map(|v| self.faults.effective_action(v, round, actions[v]))
                .collect();
            let submitted = BitVec::from_fn(n, |v| eff[v] == Action::Beep);
            pre_adaptive_active = submitted.count_ones() > 0;
            decision = self.faults.decide(&AdversaryView {
                seed: self.seed,
                round,
                beepers: &submitted,
                beeps_per_node: &self.beeps_per_node,
                last_activity: self.last_activity,
            });
            for &v in decision.spam() {
                eff[v] = Action::Beep;
            }
            for &v in decision.mute() {
                eff[v] = Action::Listen;
            }
            overridden = eff;
            &overridden
        };
        let graph = &self.graph;
        let clean_bit = |v: usize| match actions[v] {
            Action::Beep => true,
            Action::Listen => graph
                .neighbors(v)
                .iter()
                .any(|&u| actions[u] == Action::Beep),
        };
        // Every channel is counter-keyed per (round, shard): apply it with
        // the bitset kernel's exact shard layout, so the scalar oracle
        // reproduces the bitset transcript bit-for-bit. The pre-channel OR
        // is still computed independently per node here, which keeps the
        // differential tests meaningful.
        let mut frame = BitVec::from_fn(n, clean_bit);
        let beepers = BitVec::from_fn(n, |v| actions[v] == Action::Beep);
        apply_channel_sharded(
            &self.channel,
            &self.channel_ctx(round, &beepers),
            &mut frame,
        );
        let mut received: Vec<bool> = frame.iter_bits().collect();
        // Fault overlay, step 2: crashed nodes are deaf — their received
        // bit is forced to 0 *after* the channel, so feedback sees silence.
        // Adaptive deafening clears at the same point.
        for v in self.faults.crashed(round) {
            received[v] = false;
        }
        for &v in decision.deafen() {
            received[v] = false;
        }
        if pre_adaptive_active {
            self.last_activity = Some(round);
        }
        self.stats.rounds += 1;
        for (v, a) in actions.iter().enumerate() {
            match a {
                Action::Beep => {
                    self.stats.beeps += 1;
                    self.beeps_per_node[v] += 1;
                }
                Action::Listen => self.stats.listens += 1,
            }
        }
        if let Some(t) = &mut self.transcript {
            t.push(beepers);
        }
        Ok(received)
    }

    /// Executes one synchronous round from a beeper bitmap — the
    /// bit-parallel kernel. `beepers` has bit `v` set iff node `v` beeps;
    /// the returned bitmap has bit `v` set iff node `v` receives a `1`.
    ///
    /// Semantics (beeper set, received OR, noise, stats, transcript) are
    /// exactly [`run_round`](Self::run_round)'s; only the cost model
    /// differs. The round runs on the calling thread: one pass computes
    /// the received OR, then the channel runs shard by shard over the
    /// [`shard_count`](Self::shard_count) word-aligned shards of its
    /// stream layout. The graph alone picks the OR kernel: on a small
    /// dense graph each beeper ORs its precomputed adjacency bitmask row;
    /// on any other graph each beeper scatters its adjacency list,
    /// switching to an early-exit neighborhood gather when beepers are
    /// dense — so a sparse-beeper round is `O(Σ deg(beeper) + n/64)`
    /// instead of the scalar path's `O(n + m)`. Under
    /// [`Noise::Bernoulli`](crate::Noise::Bernoulli) the channel is
    /// applied with geometric-skip batch sampling (`O(ε·n)` expected RNG
    /// draws, each answered by a [`FlipSampler`] table built on the first
    /// noisy round) from per-shard counter-keyed streams; see the
    /// type-level determinism contract.
    ///
    /// ```
    /// use beep_bits::BitVec;
    /// use beep_net::{topology, BeepNetwork, Noise};
    ///
    /// let mut net = BeepNetwork::new(topology::path(5).unwrap(), Noise::Noiseless, 0);
    /// // Node 2 beeps: itself and both neighbors receive a 1.
    /// let received = net.run_round_bitset(&BitVec::from_indices(5, [2])).unwrap();
    /// assert_eq!(received.to_string(), "01110");
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`NetError::ActionCount`] if `beepers.len()` differs from
    /// the node count.
    pub fn run_round_bitset(&mut self, beepers: &BitVec) -> Result<BitVec, NetError> {
        let mut received = BitVec::zeros(self.graph.node_count());
        self.run_round_bitset_into(beepers, &mut received)?;
        Ok(received)
    }

    /// [`run_round_bitset`](Self::run_round_bitset) writing into a caller
    /// buffer: `received` is entirely overwritten (and reallocated only if
    /// its length is wrong), so a round loop reuses one allocation.
    /// [`run_protocols`](Self::run_protocols) drives its per-round loop
    /// through this.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::ActionCount`] if `beepers.len()` differs from
    /// the node count.
    pub fn run_round_bitset_into(
        &mut self,
        beepers: &BitVec,
        received: &mut BitVec,
    ) -> Result<(), NetError> {
        let n = self.graph.node_count();
        if beepers.len() != n {
            return Err(NetError::ActionCount {
                expected: n,
                actual: beepers.len(),
            });
        }
        self.prepare_samplers();
        if received.len() != n {
            *received = BitVec::zeros(n);
        }
        let round = self.stats.rounds as u64;
        self.refresh_masks(round);
        // Fault overlay, step 1: compute the round's *effective* beeper
        // set before the OR, the static masks a word at a time. Editing
        // the bitmap here leaves the channel's counter-keyed streams
        // untouched; an empty plan takes this branch never and the round
        // is byte-identical to a fault-free run. An adaptive policy makes
        // its per-round choice here too — once, from observables that are
        // identical at every shard count — and its spam/mute edits land on
        // the same bitmap.
        let faulty: BitVec;
        let decision: RoundFaults;
        let mut pre_adaptive_count: Option<usize> = None;
        let beepers: &BitVec = if self.faults.is_empty() {
            decision = RoundFaults::none();
            beepers
        } else {
            let mut effective = beepers.clone();
            if let Some(masks) = &self.masks {
                masks.apply_to_beepers(&mut effective);
            }
            pre_adaptive_count = Some(effective.count_ones());
            decision = self.faults.decide(&AdversaryView {
                seed: self.seed,
                round,
                beepers: &effective,
                beeps_per_node: &self.beeps_per_node,
                last_activity: self.last_activity,
            });
            decision.apply_to_beepers(&mut effective);
            faulty = effective;
            &faulty
        };
        let beep_count = beepers.count_ones();
        let pre_adaptive_active = pre_adaptive_count.map_or(beep_count > 0, |c| c > 0);
        self.kernel
            .or_into(&self.graph, beepers, beep_count, received);
        // The channel, which the determinism contract keys per
        // (round, shard), runs shard by shard, as the scalar oracle does.
        apply_channel_sharded(&self.channel, &self.channel_ctx(round, beepers), received);
        // Fault overlay, step 2: crashed nodes are deaf — their received
        // bit is cleared *after* the channel, so feedback (and run_frame
        // outputs) see silence. Adaptive deafening clears at the same
        // point.
        if let Some(masks) = &self.masks {
            masks.apply_to_received(received);
        }
        decision.apply_to_received(received);
        if pre_adaptive_active {
            self.last_activity = Some(round);
        }
        self.stats.rounds += 1;
        self.stats.beeps += beep_count as u64;
        self.stats.listens += (n - beep_count) as u64;
        for u in beepers.iter_ones() {
            self.beeps_per_node[u] += 1;
        }
        if let Some(t) = &mut self.transcript {
            t.push(beepers.clone());
        }
        Ok(())
    }

    /// Runs a whole batch of rounds from per-node transmit frames:
    /// `frames[v]` is node `v`'s schedule (bit `i` set ⇒ beep in round
    /// `i`), `None` means listen throughout. Returns what each node heard,
    /// as one [`BitVec`] per node covering all rounds.
    ///
    /// The round count is inferred from the first transmitted frame (0 if
    /// every node listens); every transmitted frame must have that length.
    /// Use [`run_frame_into`](Self::run_frame_into) when silent batches
    /// must still consume rounds.
    ///
    /// This is the frame-level API the phase simulators and the
    /// fault-tolerant protocols' slot votes run on. With no fault plan
    /// installed, or a static one, a round's pre-channel bits depend only
    /// on that round's frame bits, so each node's clean heard frame is the
    /// word-parallel OR of its own and its transmitting neighbours'
    /// effective frames — a spammer's forced to all ones, a mute or
    /// crashed node's dropped — taken once for the whole frame, and only
    /// the channel runs round by round; crashed nodes' heard frames are
    /// then cleared. Frames move in word blocks of 64 rounds × 64 nodes:
    /// one 64×64 bit transpose ([`beep_bits::transpose64`]) turns a node
    /// group's heard words into 64 rounds of received words for the
    /// channel and another turns them back. Under an adaptive policy,
    /// whose decisions are per round, or when a crash round falls
    /// strictly inside the frame, one overlay pass over the rounds first
    /// fixes each round's effective beepers and deaf set — the static
    /// masks at that round, then the policy's decision, which reads
    /// nothing the channel delivers — and the frame then takes the same
    /// OR and channel. Either way the heard frames, stats, transcript,
    /// noise and fault overlay are exactly those of round-by-round
    /// driving.
    ///
    /// ```
    /// use beep_bits::BitVec;
    /// use beep_net::{topology, BeepNetwork, Noise};
    ///
    /// let mut net = BeepNetwork::new(topology::path(3).unwrap(), Noise::Noiseless, 0);
    /// // Node 0 transmits 101 over three rounds; 1 and 2 listen.
    /// let frames = vec![Some(BitVec::from_str_01("101").unwrap()), None, None];
    /// let heard = net.run_frame(&frames).unwrap();
    /// assert_eq!(heard[1].to_string(), "101"); // neighbor hears the frame
    /// assert_eq!(heard[2].to_string(), "000"); // out of range
    /// ```
    ///
    /// # Errors
    ///
    /// * [`NetError::ActionCount`] if `frames.len()` differs from the node
    ///   count.
    /// * [`NetError::FrameLength`] if two transmitted frames disagree on
    ///   length.
    pub fn run_frame(&mut self, frames: &[Option<BitVec>]) -> Result<Vec<BitVec>, NetError> {
        let rounds = frames.iter().flatten().map(BitVec::len).next().unwrap_or(0);
        let mut heard = Vec::new();
        self.run_frame_into(frames, rounds, &mut heard)?;
        Ok(heard)
    }

    /// [`run_frame`](Self::run_frame) with an explicit round count,
    /// writing into a caller buffer: runs exactly `rounds` rounds even
    /// when every node listens (an all-silent phase still occupies its
    /// slot in the paper's round accounting). `heard` is resized to one
    /// `rounds`-bit string per node and entirely overwritten, reusing its
    /// allocations when the shapes already match. A phase loop that runs
    /// many frames back to back (e.g. the Algorithm 1 simulator) allocates
    /// its output once instead of `O(n)` strings per phase; the per-round
    /// `received` scratch is reused internally either way. The path is
    /// [`run_frame`](Self::run_frame)'s: the OR once for the whole frame,
    /// after an overlay pass over its rounds when an adaptive policy is
    /// installed or a crash round of the static plan falls strictly inside
    /// the frame.
    ///
    /// # Errors
    ///
    /// * [`NetError::ActionCount`] if `frames.len()` differs from the node
    ///   count.
    /// * [`NetError::FrameLength`] if a transmitted frame's length is not
    ///   `rounds`.
    pub fn run_frame_into(
        &mut self,
        frames: &[Option<BitVec>],
        rounds: usize,
        heard: &mut Vec<BitVec>,
    ) -> Result<(), NetError> {
        let n = self.graph.node_count();
        if frames.len() != n {
            return Err(NetError::ActionCount {
                expected: n,
                actual: frames.len(),
            });
        }
        for (v, frame) in frames.iter().enumerate() {
            if let Some(f) = frame {
                if f.len() != rounds {
                    return Err(NetError::FrameLength {
                        node: v,
                        expected: rounds,
                        actual: f.len(),
                    });
                }
            }
        }
        // Every word of every heard string is written below, so strings
        // of the right length are reused as they are.
        heard.truncate(n);
        for h in heard.iter_mut() {
            if h.len() != rounds {
                *h = BitVec::zeros(rounds);
            }
        }
        heard.resize_with(n, || BitVec::zeros(rounds));
        let first_round = self.stats.rounds as u64;
        self.refresh_masks(first_round);
        let end = first_round + rounds as u64;
        let crash_inside = self
            .masks
            .as_ref()
            .and_then(|m| m.next_change)
            .is_some_and(|r| r < end);
        if self.faults.is_adaptive() || crash_inside {
            let frames = self.overlay_frame(frames, rounds);
            self.hear_frame(&frames, first_round, rounds, heard);
        } else {
            // The static masks hold for every round of the frame; the
            // effective frames borrow them while it runs.
            let masks = self.masks.take();
            let frames = EffectiveFrames::masked(frames, masks.as_ref(), rounds);
            self.count_frame(&frames, rounds);
            self.hear_frame(&frames, first_round, rounds, heard);
            drop(frames);
            self.masks = masks;
        }
        Ok(())
    }

    /// Stats, per-node energy and the last active round of a frame whose
    /// effective frames hold for all of its `rounds` rounds, from their
    /// popcounts and highest set bits.
    fn count_frame(&mut self, frames: &EffectiveFrames<'_>, rounds: usize) {
        let n = self.graph.node_count();
        let first_round = self.stats.rounds as u64;
        let mut beeps = 0;
        let mut last_beep = None;
        for u in 0..n {
            let Some(words) = frames.words(u) else {
                continue;
            };
            let Some(top) = words.iter().rposition(|&w| w != 0) else {
                continue;
            };
            let ones: usize = words.iter().map(|w| w.count_ones() as usize).sum();
            beeps += ones;
            self.beeps_per_node[u] += ones as u64;
            last_beep = last_beep.max(Some(64 * top + 63 - words[top].leading_zeros() as usize));
        }
        self.stats.rounds += rounds;
        self.stats.beeps += beeps as u64;
        self.stats.listens += (n * rounds - beeps) as u64;
        if let Some(bit) = last_beep {
            self.last_activity = Some(first_round + bit as u64);
        }
    }

    /// The overlay pass of a frame under an adaptive policy or with a crash
    /// round inside it. One pass over the rounds fixes each round's
    /// effective beepers and deaf set, as
    /// [`run_round_bitset_into`](Self::run_round_bitset_into) would: first
    /// the static masks at that round, rebuilt at a crash round, then the
    /// policy's decision. Stats, per-node energy and the last active round
    /// (whose beepers are counted before adaptive edits) move round by
    /// round too, since the adversary reads them. It reads nothing the
    /// channel delivers, so the whole frame is fixed before its OR.
    /// `TargetLoudest` keeps its ranking across the frame in a
    /// [`LoudestIndex`] instead of selecting it every round.
    fn overlay_frame(
        &mut self,
        frames: &[Option<BitVec>],
        rounds: usize,
    ) -> EffectiveFrames<'static> {
        let n = self.graph.node_count();
        let first_round = self.stats.rounds as u64;
        let blocks = rounds.div_ceil(64);
        let submitted = EffectiveFrames::masked(frames, None, rounds);
        let mut loudest = match self.faults.policy() {
            Some(AdaptivePolicy::TargetLoudest { budget }) if budget > 0 => {
                Some(LoudestIndex::new(budget, &self.beeps_per_node))
            }
            _ => None,
        };
        let mut beeps = vec![0; n * blocks];
        let mut deaf = vec![0; n * blocks];
        let groups = n.div_ceil(64);
        let mut beep_blocks = vec![[0u64; 64]; groups];
        let mut deaf_blocks = vec![[0u64; 64]; groups];
        let mut beepers = BitVec::zeros(n);
        let mut deaf_round = BitVec::zeros(n);
        let mut targets = BitVec::zeros(n);
        for (b, start) in (0..rounds).step_by(64).enumerate() {
            to_round_major(&mut beep_blocks, |v| submitted.word(v, b));
            for block in &mut deaf_blocks {
                block.fill(0);
            }
            for i in 0..(rounds - start).min(64) {
                let round = first_round + (start + i) as u64;
                self.refresh_masks(round);
                load_round(&beep_blocks, i, &mut beepers);
                deaf_round.clear();
                if let Some(masks) = &self.masks {
                    masks.apply_to_beepers(&mut beepers);
                    deaf_round.or_assign(&masks.deaf);
                }
                let active = beepers.as_words().iter().any(|&w| w != 0);
                if let Some(index) = &loudest {
                    // Targets are muted and deafened.
                    index.targets_into(&mut targets);
                    let words = beepers.as_words_mut().iter_mut();
                    let deaf_words = deaf_round.as_words_mut().iter_mut();
                    for ((b, d), &t) in words.zip(deaf_words).zip(targets.as_words()) {
                        *b &= !t;
                        *d |= t;
                    }
                } else {
                    let decision = self.faults.decide(&AdversaryView {
                        seed: self.seed,
                        round,
                        beepers: &beepers,
                        beeps_per_node: &self.beeps_per_node,
                        last_activity: self.last_activity,
                    });
                    decision.apply_to_beepers(&mut beepers);
                    for &v in decision.deafen() {
                        deaf_round.set(v, true);
                    }
                }
                if active {
                    self.last_activity = Some(round);
                }
                let beep_count = beepers.count_ones();
                self.stats.rounds += 1;
                self.stats.beeps += beep_count as u64;
                self.stats.listens += (n - beep_count) as u64;
                for u in beepers.iter_ones() {
                    let old = self.beeps_per_node[u];
                    self.beeps_per_node[u] = old + 1;
                    if let Some(index) = &mut loudest {
                        index.bump(u, old);
                    }
                }
                if let Some(index) = &mut loudest {
                    index.settle(&self.beeps_per_node);
                }
                store_round(&mut beep_blocks, i, &beepers);
                store_round(&mut deaf_blocks, i, &deaf_round);
            }
            // Rounds past the frame's end hold the submitted frames' zero
            // tail and the zeroed deaf rounds.
            to_node_major(&mut beep_blocks, |v, w| {
                if v < n {
                    beeps[v * blocks + b] = w;
                }
            });
            to_node_major(&mut deaf_blocks, |v, w| {
                if v < n {
                    deaf[v * blocks + b] = w;
                }
            });
        }
        EffectiveFrames::Overlaid {
            beeps,
            deaf,
            blocks,
        }
    }

    /// What every node hears over a frame's effective frames, which begin
    /// at round `first_round` — the tail both frame routes share. The OR
    /// runs once per frame, 64 rounds per word operation. The channel,
    /// whose flips the determinism contract keys by `(round, shard)`, runs
    /// round by round in the context
    /// [`run_round_bitset_into`](Self::run_round_bitset_into) builds, on
    /// exactly the bits it sees there (adversarial erasure reads them),
    /// with the effective beepers protected under noise-free self-hearing.
    /// Deaf nodes' heard bits are cleared after it. Per-round beeper words
    /// are built only for a recorded transcript, which records the
    /// effective beepers, or noise-free self-hearing. Stats and energy are
    /// the caller's.
    fn hear_frame(
        &mut self,
        frames: &EffectiveFrames<'_>,
        first_round: u64,
        rounds: usize,
        heard: &mut [BitVec],
    ) {
        let n = self.graph.node_count();
        self.prepare_samplers();
        for h in heard.iter_mut() {
            h.clear();
        }
        for u in 0..n {
            let Some(words) = frames.words(u) else {
                continue;
            };
            if words.iter().all(|&w| w == 0) {
                continue;
            }
            or_words_wide(heard[u].as_words_mut(), words);
            for &w in self.graph.neighbors(u) {
                or_words_wide(heard[w].as_words_mut(), words);
            }
        }

        let noisy = !self.channel.is_noiseless();
        let recording = self.transcript.is_some();
        let need_beepers = recording || (noisy && !self.self_hearing_noisy);
        if noisy || recording {
            let groups = n.div_ceil(64);
            let mut send = vec![[0u64; 64]; if need_beepers { groups } else { 0 }];
            let mut recv = vec![[0u64; 64]; if noisy { groups } else { 0 }];
            let mut beepers = BitVec::zeros(n);
            let mut received = BitVec::zeros(n);
            for (b, start) in (0..rounds).step_by(64).enumerate() {
                to_round_major(&mut send, |v| frames.word(v, b));
                to_round_major(&mut recv, |v| heard.get(v).map_or(0, |h| h.as_words()[b]));
                for i in 0..(rounds - start).min(64) {
                    load_round(&send, i, &mut beepers);
                    if noisy {
                        load_round(&recv, i, &mut received);
                        let round = first_round + (start + i) as u64;
                        apply_channel_sharded(
                            &self.channel,
                            &self.channel_ctx(round, &beepers),
                            &mut received,
                        );
                        store_round(&mut recv, i, &received);
                    }
                    if let Some(t) = &mut self.transcript {
                        t.push(beepers.clone());
                    }
                }
                // Rounds past the frame's end hold the heard strings' zero
                // tail, which no channel pass touched.
                to_node_major(&mut recv, |v, w| {
                    if let Some(h) = heard.get_mut(v) {
                        h.as_words_mut()[b] = w;
                    }
                });
            }
        }
        frames.clear_deaf(heard);
    }

    /// [`run_frame_into`](Self::run_frame_into) under the name the
    /// benchmark harness (`perfbench/src/replay.rs`) calls. It exists only
    /// for that harness and goes when the harness is next revised.
    ///
    /// # Errors
    ///
    /// As [`run_frame_into`](Self::run_frame_into).
    #[doc(hidden)]
    pub fn run_frames_batched_into(
        &mut self,
        frames: &[Option<BitVec>],
        rounds: usize,
        heard: &mut Vec<BitVec>,
    ) -> Result<(), NetError> {
        self.run_frame_into(frames, rounds, heard)
    }

    /// Drives one [`BeepProtocol`] instance per node until all report done
    /// or the round budget runs out. Returns the number of rounds executed.
    ///
    /// # Contract
    ///
    /// Done-ness is sampled only at round boundaries, and only the
    /// conjunction over *all* nodes stops the run: a protocol whose
    /// [`is_done`](BeepProtocol::is_done) already returns `true` keeps
    /// receiving [`act`](BeepProtocol::act) and
    /// [`feedback`](BeepProtocol::feedback) every remaining round (real
    /// beeping devices cannot leave the network either — a "done" node
    /// still occupies the channel, and several protocols in this workspace
    /// rely on done nodes continuing to relay). Pinned by a regression
    /// test.
    ///
    /// # Errors
    ///
    /// * [`NetError::ActionCount`] if `protocols.len()` differs from the
    ///   node count.
    /// * [`NetError::RoundBudgetExhausted`] if some protocol never
    ///   finishes.
    pub fn run_protocols<P: BeepProtocol>(
        &mut self,
        protocols: &mut [P],
        max_rounds: usize,
    ) -> Result<usize, NetError> {
        let n = self.graph.node_count();
        if protocols.len() != n {
            return Err(NetError::ActionCount {
                expected: n,
                actual: protocols.len(),
            });
        }
        let mut beepers = BitVec::zeros(n);
        let mut received = BitVec::zeros(n);
        for round in 0..max_rounds {
            if protocols.iter().all(|p| p.is_done()) {
                return Ok(round);
            }
            for (v, p) in protocols.iter_mut().enumerate() {
                beepers.set(v, p.act(round) == Action::Beep);
            }
            self.run_round_bitset_into(&beepers, &mut received)?;
            for (v, p) in protocols.iter_mut().enumerate() {
                p.feedback(round, received.get(v));
            }
        }
        if protocols.iter().all(|p| p.is_done()) {
            Ok(max_rounds)
        } else {
            Err(NetError::RoundBudgetExhausted { budget: max_rounds })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{topology, Noise};

    fn all_listen(n: usize) -> Vec<Action> {
        vec![Action::Listen; n]
    }

    #[test]
    fn silence_is_heard_as_silence() {
        let mut net = BeepNetwork::new(topology::path(5).unwrap(), Noise::Noiseless, 0);
        let heard = net.run_round(&all_listen(5)).unwrap();
        assert!(heard.iter().all(|&h| !h));
    }

    #[test]
    fn single_beep_reaches_exactly_neighbors() {
        let mut net = BeepNetwork::new(topology::path(5).unwrap(), Noise::Noiseless, 0);
        let mut actions = all_listen(5);
        actions[2] = Action::Beep;
        let heard = net.run_round(&actions).unwrap();
        // Node 2 "receives" its own beep; 1 and 3 hear it; 0 and 4 don't.
        assert_eq!(heard, vec![false, true, true, true, false]);
    }

    #[test]
    fn simultaneous_beeps_are_indistinguishable_from_one() {
        // Carrier sensing only: the listener cannot count beepers.
        let g = topology::star(4).unwrap();
        let mut net = BeepNetwork::new(g, Noise::Noiseless, 0);
        let mut one = all_listen(4);
        one[1] = Action::Beep;
        let heard_one = net.run_round(&one).unwrap()[0];
        let mut many = all_listen(4);
        many[1] = Action::Beep;
        many[2] = Action::Beep;
        many[3] = Action::Beep;
        let heard_many = net.run_round(&many).unwrap()[0];
        assert_eq!(heard_one, heard_many);
        assert!(heard_one);
    }

    #[test]
    fn beeping_node_does_not_hear_distant_beeps() {
        // A beeping node's received bit is its own 1, regardless of others.
        let mut net = BeepNetwork::new(topology::path(3).unwrap(), Noise::Noiseless, 0);
        let heard = net
            .run_round(&[Action::Beep, Action::Listen, Action::Beep])
            .unwrap();
        assert_eq!(heard, vec![true, true, true]);
    }

    #[test]
    fn action_count_mismatch_rejected() {
        let mut net = BeepNetwork::new(topology::path(3).unwrap(), Noise::Noiseless, 0);
        assert_eq!(
            net.run_round(&all_listen(2)),
            Err(NetError::ActionCount {
                expected: 3,
                actual: 2
            })
        );
    }

    #[test]
    fn stats_accumulate() {
        let mut net = BeepNetwork::new(topology::cycle(4).unwrap(), Noise::Noiseless, 0);
        let mut actions = all_listen(4);
        actions[0] = Action::Beep;
        net.run_round(&actions).unwrap();
        net.run_round(&all_listen(4)).unwrap();
        let s = net.stats();
        assert_eq!(s.rounds, 2);
        assert_eq!(s.beeps, 1);
        assert_eq!(s.listens, 7);
        assert!((s.beeps_per_round() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn per_node_energy_accounting() {
        let mut net = BeepNetwork::new(topology::path(3).unwrap(), Noise::Noiseless, 0);
        net.run_round(&[Action::Beep, Action::Listen, Action::Beep])
            .unwrap();
        net.run_round(&[Action::Beep, Action::Listen, Action::Listen])
            .unwrap();
        assert_eq!(net.beeps_by_node(), &[2, 0, 1]);
        assert_eq!(net.stats().beeps, 3);
    }

    #[test]
    fn rates_below_the_draw_resolution_are_silent_on_every_kernel() {
        // ε = 1e-17 passes validation, but 1 − ε rounds to 1: such a rate
        // must flip nothing (it used to flip every received bit).
        let g = topology::cycle(64).unwrap();
        let silent = BitVec::zeros(64);
        let mut iid = BeepNetwork::new(g.clone(), Noise::try_bernoulli(1e-17).unwrap(), 3);
        assert_eq!(iid.run_round_bitset(&silent).unwrap().count_ones(), 0);
        assert!(iid.run_round(&all_listen(64)).unwrap().iter().all(|&b| !b));
        let ge = crate::GilbertElliott::try_new(1e-17, 1e-17, 0.5, 0.5).unwrap();
        let mut bursty = BeepNetwork::new(g, ge, 3);
        for _ in 0..8 {
            assert_eq!(bursty.run_round_bitset(&silent).unwrap().count_ones(), 0);
        }
    }

    #[test]
    fn determinism_same_seed_same_noise() {
        let run = |seed| {
            let mut net =
                BeepNetwork::new(topology::complete(6).unwrap(), Noise::bernoulli(0.3), seed);
            let mut actions = all_listen(6);
            actions[0] = Action::Beep;
            (0..20)
                .map(|_| net.run_round(&actions).unwrap())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11), run(12), "different seeds should differ somewhere");
    }

    #[test]
    fn noise_flips_listeners_at_rate_epsilon() {
        // Nobody beeps; over many rounds each listener should hear a phantom
        // beep at rate ≈ ε.
        let n = 10;
        let rounds = 2000;
        let mut net = BeepNetwork::new(topology::complete(n).unwrap(), Noise::bernoulli(0.25), 5);
        let mut phantom = 0usize;
        for _ in 0..rounds {
            phantom += net
                .run_round(&all_listen(n))
                .unwrap()
                .iter()
                .filter(|&&h| h)
                .count();
        }
        let rate = phantom as f64 / (n * rounds) as f64;
        assert!((rate - 0.25).abs() < 0.02, "phantom rate {rate}");
    }

    #[test]
    fn self_hearing_noise_flag() {
        // With noisy self-hearing (default), a solo beeper's own bit flips
        // at rate ε; with the flag off it never does.
        let rounds = 2000;
        let beep_only = [Action::Beep];
        let g = || topology::complete(1).unwrap();

        let mut noisy = BeepNetwork::new(g(), Noise::bernoulli(0.3), 6);
        let flips = (0..rounds)
            .filter(|_| !noisy.run_round(&beep_only).unwrap()[0])
            .count();
        let rate = flips as f64 / rounds as f64;
        assert!((rate - 0.3).abs() < 0.04, "self-flip rate {rate}");

        let mut clean = BeepNetwork::new(g(), Noise::bernoulli(0.3), 6);
        clean.set_self_hearing_noisy(false);
        for _ in 0..rounds {
            assert!(clean.run_round(&beep_only).unwrap()[0]);
        }
    }

    #[test]
    fn transcript_records_beepers() {
        let mut net = BeepNetwork::new(topology::path(3).unwrap(), Noise::Noiseless, 0);
        net.record_transcript();
        net.run_round(&[Action::Beep, Action::Listen, Action::Listen])
            .unwrap();
        net.run_round(&[Action::Listen, Action::Listen, Action::Beep])
            .unwrap();
        let t = net.transcript().unwrap();
        assert_eq!(t.rounds(), 2);
        assert_eq!(t.round(0).to_string(), "100");
        assert_eq!(t.round(1).to_string(), "001");
    }

    // A trivial protocol for run_protocols: node `id` beeps in round `id`
    // then finishes; everyone records what they heard.
    struct OneShot {
        id: usize,
        heard: Vec<bool>,
        done_after: usize,
    }
    impl BeepProtocol for OneShot {
        fn act(&mut self, round: usize) -> Action {
            if round == self.id {
                Action::Beep
            } else {
                Action::Listen
            }
        }
        fn feedback(&mut self, _round: usize, received: bool) {
            self.heard.push(received);
        }
        fn is_done(&self) -> bool {
            self.heard.len() >= self.done_after
        }
    }

    #[test]
    fn run_protocols_drives_until_done() {
        let g = topology::path(3).unwrap();
        let mut net = BeepNetwork::new(g, Noise::Noiseless, 0);
        let mut protos: Vec<OneShot> = (0..3)
            .map(|id| OneShot {
                id,
                heard: Vec::new(),
                done_after: 3,
            })
            .collect();
        let rounds = net.run_protocols(&mut protos, 100).unwrap();
        assert_eq!(rounds, 3);
        assert_eq!(net.stats().rounds, 3);
    }

    #[test]
    fn run_round_bitset_matches_scalar_semantics() {
        // Spot-check on a path; the exhaustive cross-topology oracle lives
        // in tests/bitset_oracle.rs.
        let g = topology::path(5).unwrap();
        let mut scalar = BeepNetwork::new(g.clone(), Noise::Noiseless, 0);
        let mut bitset = BeepNetwork::new(g, Noise::Noiseless, 0);
        let mut actions = all_listen(5);
        actions[2] = Action::Beep;
        let beepers = BitVec::from_indices(5, [2]);
        let via_scalar = scalar.run_round(&actions).unwrap();
        let via_bitset = bitset.run_round_bitset(&beepers).unwrap();
        assert_eq!(via_scalar, via_bitset.iter_bits().collect::<Vec<_>>());
        assert_eq!(scalar.stats(), bitset.stats());
        assert_eq!(scalar.beeps_by_node(), bitset.beeps_by_node());
    }

    #[test]
    fn run_round_bitset_rejects_wrong_length() {
        let mut net = BeepNetwork::new(topology::path(3).unwrap(), Noise::Noiseless, 0);
        assert_eq!(
            net.run_round_bitset(&BitVec::zeros(2)),
            Err(NetError::ActionCount {
                expected: 3,
                actual: 2
            })
        );
    }

    #[test]
    fn run_frame_transmits_frames_bit_by_bit() {
        // Node 0 sends 101, node 2 sends 011 on a path 0-1-2; check what
        // node 1 (hearing both) and the endpoints reconstruct.
        let mut net = BeepNetwork::new(topology::path(3).unwrap(), Noise::Noiseless, 0);
        let frames = vec![
            Some(BitVec::from_indices(3, [0, 2])),
            None,
            Some(BitVec::from_indices(3, [1, 2])),
        ];
        let heard = net.run_frame(&frames).unwrap();
        assert_eq!(heard[0].to_string(), "101"); // own beeps
        assert_eq!(heard[1].to_string(), "111"); // OR of both neighbors
        assert_eq!(heard[2].to_string(), "011"); // own beeps
        assert_eq!(net.stats().rounds, 3);
        assert_eq!(net.stats().beeps, 4);
    }

    #[test]
    fn run_frame_infers_zero_rounds_when_all_silent() {
        let mut net = BeepNetwork::new(topology::path(3).unwrap(), Noise::Noiseless, 0);
        let heard = net.run_frame(&[None, None, None]).unwrap();
        assert!(heard.iter().all(BitVec::is_empty));
        assert_eq!(net.stats().rounds, 0);
        // An explicit round count still burns the rounds.
        let mut heard = Vec::new();
        net.run_frame_into(&[None, None, None], 4, &mut heard)
            .unwrap();
        assert!(heard.iter().all(|h| h.len() == 4 && h.count_ones() == 0));
        assert_eq!(net.stats().rounds, 4);
    }

    #[test]
    fn run_frame_rejects_mismatched_frames() {
        let mut net = BeepNetwork::new(topology::path(3).unwrap(), Noise::Noiseless, 0);
        let frames = vec![
            Some(BitVec::zeros(3)),
            None,
            Some(BitVec::zeros(2)), // wrong length
        ];
        assert_eq!(
            net.run_frame(&frames),
            Err(NetError::FrameLength {
                node: 2,
                expected: 3,
                actual: 2
            })
        );
        assert_eq!(
            net.run_frame(&[None, None]),
            Err(NetError::ActionCount {
                expected: 3,
                actual: 2
            })
        );
    }

    #[test]
    fn shard_count_does_not_change_noiseless_results() {
        // Noiseless output is a pure function of (graph, beepers): the
        // shard layout must be invisible.
        let g = topology::grid(9, 9).unwrap(); // 81 nodes: 2 words
        let beepers = BitVec::from_indices(81, [0, 13, 64, 80]);
        let mut reference = BeepNetwork::new(g.clone(), Noise::Noiseless, 0);
        let expected = reference.run_round_bitset(&beepers).unwrap();
        for shards in [1, 2, 3, 8, 64] {
            let mut net = BeepNetwork::new(g.clone(), Noise::Noiseless, 0);
            net.set_shard_count(shards);
            assert_eq!(
                net.run_round_bitset(&beepers).unwrap(),
                expected,
                "shards={shards}"
            );
        }
    }

    #[test]
    fn run_round_bitset_into_reuses_and_resizes() {
        let mut net = BeepNetwork::new(topology::path(5).unwrap(), Noise::Noiseless, 0);
        let beepers = BitVec::from_indices(5, [2]);
        // Wrong-length buffer is replaced; stale contents are overwritten.
        let mut received = BitVec::ones(3);
        net.run_round_bitset_into(&beepers, &mut received).unwrap();
        assert_eq!(received.to_string(), "01110");
        received = BitVec::ones(5);
        net.run_round_bitset_into(&beepers, &mut received).unwrap();
        assert_eq!(received.to_string(), "01110");
    }

    #[test]
    fn run_frame_into_matches_run_frame_and_reuses_buffers() {
        let g = topology::path(3).unwrap();
        let frames = vec![
            Some(BitVec::from_indices(3, [0, 2])),
            None,
            Some(BitVec::from_indices(3, [1, 2])),
        ];
        let mut fresh = BeepNetwork::new(g.clone(), Noise::Noiseless, 0);
        let expected = fresh.run_frame(&frames).unwrap();
        let mut reused = BeepNetwork::new(g, Noise::Noiseless, 0);
        // Pre-populate with wrong shapes and stale bits.
        let mut heard = vec![BitVec::ones(3), BitVec::ones(7)];
        reused.run_frame_into(&frames, 3, &mut heard).unwrap();
        assert_eq!(heard, expected);
        // Second run with now-matching shapes must also fully overwrite.
        reused.run_frame_into(&frames, 3, &mut heard).unwrap();
        assert_eq!(heard, expected);
    }

    #[test]
    fn shard_count_knob_round_trips() {
        let mut net = BeepNetwork::new(topology::path(3).unwrap(), Noise::Noiseless, 0);
        let default_shards = net.shard_count();
        assert!(default_shards >= 1);
        net.set_shard_count(3);
        assert_eq!(net.shard_count(), 3);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_shard_count_rejected() {
        let mut net = BeepNetwork::new(topology::path(3).unwrap(), Noise::Noiseless, 0);
        net.set_shard_count(0);
    }

    #[test]
    fn empty_graph_round_is_a_no_op() {
        let g = Graph::from_edges(0, &[]).unwrap();
        let mut net = BeepNetwork::new(g, Noise::bernoulli(0.3), 1);
        let received = net.run_round_bitset(&BitVec::zeros(0)).unwrap();
        assert!(received.is_empty());
        assert_eq!(net.stats().rounds, 1);
    }

    // Regression: run_protocols keeps driving act()/feedback() on nodes
    // whose is_done() already returns true, until *all* nodes are done
    // (the documented contract). Counters are shared out through Rc so
    // they can be inspected after the run.
    struct DoneButCounting {
        rounds_to_run: usize,
        feedbacks: std::rc::Rc<std::cell::Cell<usize>>,
        acts_while_done: std::rc::Rc<std::cell::Cell<usize>>,
    }
    impl BeepProtocol for DoneButCounting {
        fn act(&mut self, _round: usize) -> Action {
            if self.is_done() {
                self.acts_while_done.set(self.acts_while_done.get() + 1);
            }
            Action::Listen
        }
        fn feedback(&mut self, _round: usize, _received: bool) {
            self.feedbacks.set(self.feedbacks.get() + 1);
        }
        fn is_done(&self) -> bool {
            self.feedbacks.get() >= self.rounds_to_run
        }
    }

    #[test]
    fn run_protocols_keeps_driving_done_nodes() {
        use std::cell::Cell;
        use std::rc::Rc;
        // Node 0 is done after 1 round, node 1 after 5: node 0 must still
        // be asked to act (and given feedback) in rounds 1..4.
        type Counters = (Rc<Cell<usize>>, Rc<Cell<usize>>);
        let counters: Vec<Counters> = (0..2).map(|_| Default::default()).collect();
        let mut protos: Vec<DoneButCounting> = counters
            .iter()
            .zip([1usize, 5])
            .map(
                |((feedbacks, acts_while_done), rounds_to_run)| DoneButCounting {
                    rounds_to_run,
                    feedbacks: Rc::clone(feedbacks),
                    acts_while_done: Rc::clone(acts_while_done),
                },
            )
            .collect();
        let g = topology::path(2).unwrap();
        let mut net = BeepNetwork::new(g, Noise::Noiseless, 0);
        let rounds = net.run_protocols(&mut protos, 100).unwrap();
        assert_eq!(rounds, 5);
        let (node0_feedbacks, node0_acts_while_done) = &counters[0];
        assert_eq!(
            node0_feedbacks.get(),
            5,
            "done node stopped receiving feedback"
        );
        assert_eq!(
            node0_acts_while_done.get(),
            4,
            "done node stopped being asked to act"
        );
        assert_eq!(counters[1].0.get(), 5);
    }

    #[test]
    fn fault_plan_overrides_actions_in_both_kernels() {
        use crate::faults::{FaultKind, FaultPlan};
        // Path 0-1-2-3-4: node 1 spams, node 3 is mute, node 4 crashes in
        // round 1. Submissions: node 3 and node 4 beep every round.
        let plan = FaultPlan::try_from_assignments(vec![
            (1, FaultKind::ByzantineSpam),
            (3, FaultKind::ByzantineMute),
            (4, FaultKind::Crash { round: 1 }),
        ])
        .unwrap();
        let g = topology::path(5).unwrap();
        let actions = [
            Action::Listen,
            Action::Listen,
            Action::Listen,
            Action::Beep,
            Action::Beep,
        ];
        let beepers = BitVec::from_indices(5, [3, 4]);
        let mut scalar = BeepNetwork::new(g.clone(), Noise::Noiseless, 0);
        scalar.set_fault_plan(plan.clone()).unwrap();
        let mut bitset = BeepNetwork::new(g, Noise::Noiseless, 0);
        bitset.set_fault_plan(plan).unwrap();
        // Round 0: effective beepers {1 (spam), 4 (still healthy)}.
        // Received OR: 0,1,2 hear the spammer; 3,4 hear node 4.
        let r0 = scalar.run_round(&actions).unwrap();
        assert_eq!(r0, vec![true, true, true, true, true]);
        assert_eq!(
            bitset.run_round_bitset(&beepers).unwrap(),
            BitVec::from_bools(&r0)
        );
        // Round 1: node 4 has crashed — effective beepers {1}; node 4 is
        // also deaf, so despite neighbor 3 hearing the silence too, node 4
        // must read 0 no matter what.
        let r1 = scalar.run_round(&actions).unwrap();
        assert_eq!(r1, vec![true, true, true, false, false]);
        assert_eq!(
            bitset.run_round_bitset(&beepers).unwrap(),
            BitVec::from_bools(&r1)
        );
        assert_eq!(scalar.stats(), bitset.stats());
        assert_eq!(scalar.beeps_by_node(), bitset.beeps_by_node());
        // Energy counts effective actions: the spammer paid 2 beeps, the
        // mute node 0, the crasher only its healthy round.
        assert_eq!(scalar.beeps_by_node(), &[0, 2, 0, 0, 1]);
    }

    #[test]
    fn crashed_node_feedback_sees_silence_in_run_protocols() {
        use crate::faults::{FaultKind, FaultPlan};
        use std::cell::RefCell;
        use std::rc::Rc;
        // Complete graph, node 0 beeps every round; node 2 crashes at
        // round 2 and must stop hearing it from then on.
        struct Recorder {
            id: usize,
            heard: Rc<RefCell<Vec<bool>>>,
        }
        impl BeepProtocol for Recorder {
            fn act(&mut self, _round: usize) -> Action {
                if self.id == 0 {
                    Action::Beep
                } else {
                    Action::Listen
                }
            }
            fn feedback(&mut self, _round: usize, received: bool) {
                self.heard.borrow_mut().push(received);
            }
            fn is_done(&self) -> bool {
                self.heard.borrow().len() >= 5
            }
        }
        let heard: Vec<Rc<RefCell<Vec<bool>>>> = (0..3).map(|_| Rc::default()).collect();
        let mut protos: Vec<Recorder> = heard
            .iter()
            .enumerate()
            .map(|(id, h)| Recorder {
                id,
                heard: Rc::clone(h),
            })
            .collect();
        let mut net = BeepNetwork::new(topology::complete(3).unwrap(), Noise::Noiseless, 0);
        net.set_fault_plan(
            FaultPlan::try_from_assignments(vec![(2, FaultKind::Crash { round: 2 })]).unwrap(),
        )
        .unwrap();
        net.run_protocols(&mut protos, 10).unwrap();
        assert_eq!(*heard[1].borrow(), vec![true; 5], "healthy listener");
        assert_eq!(
            *heard[2].borrow(),
            vec![true, true, false, false, false],
            "crashed node goes deaf at its round"
        );
    }

    #[test]
    fn fault_plan_out_of_range_rejected_and_empty_plan_is_identity() {
        use crate::faults::{FaultKind, FaultPlan};
        let mut net = BeepNetwork::new(topology::path(3).unwrap(), Noise::Noiseless, 0);
        let err = net
            .set_fault_plan(
                FaultPlan::try_from_assignments(vec![(3, FaultKind::ByzantineSpam)]).unwrap(),
            )
            .unwrap_err();
        assert!(matches!(err, NetError::InvalidFaultPlan { .. }), "{err}");
        assert!(net.fault_plan().is_empty(), "rejected plan not installed");
        // Installing and clearing a plan round-trips.
        net.set_fault_plan(
            FaultPlan::try_from_assignments(vec![(1, FaultKind::ByzantineMute)]).unwrap(),
        )
        .unwrap();
        assert_eq!(net.fault_plan().len(), 1);
        net.set_fault_plan(FaultPlan::none()).unwrap();
        assert!(net.fault_plan().is_empty());
    }

    #[test]
    fn empty_fault_plan_leaves_noisy_transcripts_byte_identical() {
        use crate::faults::FaultPlan;
        let g = topology::cycle(200).unwrap();
        let beepers = BitVec::from_indices(200, [0, 63, 130]);
        let mut plain = BeepNetwork::new(g.clone(), Noise::bernoulli(0.2), 9);
        let mut with_empty = BeepNetwork::new(g, Noise::bernoulli(0.2), 9);
        with_empty.set_fault_plan(FaultPlan::none()).unwrap();
        for _ in 0..8 {
            assert_eq!(
                plain.run_round_bitset(&beepers).unwrap(),
                with_empty.run_round_bitset(&beepers).unwrap()
            );
        }
    }

    #[test]
    fn run_protocols_budget_error() {
        let g = topology::path(2).unwrap();
        let mut net = BeepNetwork::new(g, Noise::Noiseless, 0);
        let mut protos: Vec<OneShot> = (0..2)
            .map(|id| OneShot {
                id,
                heard: Vec::new(),
                done_after: usize::MAX,
            })
            .collect();
        assert_eq!(
            net.run_protocols(&mut protos, 5),
            Err(NetError::RoundBudgetExhausted { budget: 5 })
        );
    }
}
