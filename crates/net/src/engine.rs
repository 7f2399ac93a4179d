//! The synchronous round engine.

use crate::channel::{apply_channel_sharded, ChannelCtx, ChannelModel, NoiseModel};
use crate::error::NetError;
use crate::faults::{AdversaryView, FaultPlan, RoundFaults};
use crate::graph::{AdjacencyRepr, Graph};
use crate::node::{Action, BeepProtocol};
use crate::noise::Noise;
use crate::trace::{NetStats, Transcript};
use beep_bits::BitVec;

/// Word budget for the precomputed dense adjacency bitmasks: `n` rows of
/// `⌈n/64⌉` words each are only materialized when they fit in this many
/// `u64`s (16 MiB). Beyond it the sparse CSR kernel is used.
const DENSE_WORD_BUDGET: usize = 1 << 21;

/// Default shard count `S` of the sharded round kernel. Part of the
/// determinism tuple `(graph, noise, seed, actions, shard_count)`, so it is
/// a fixed constant — never derived from the machine. Override with
/// [`BeepNetwork::set_shard_count`].
const DEFAULT_SHARD_COUNT: usize = 8;

/// Auto-parallelism budget: with `n + 2m` below this, a round is too small
/// for thread spawn/join to pay off and the auto heuristic stays on one
/// thread. Roughly the work of a 64k-node sparse round (~a few tens of
/// microseconds); scope spawn/join costs single-digit microseconds.
const PARALLEL_WORK_BUDGET: usize = 1 << 16;

/// Beeper-density threshold of the sparse kernel's per-shard strategy: at
/// `16·#beepers ≥ n` the destination-side gather (early-exit neighbor scan
/// per node) beats source-side scatter (binary-searched adjacency slices
/// per beeper). Cost-only — both strategies write the same bits.
const GATHER_DENSITY_FACTOR: usize = 16;

/// The implicit topologies the zero-storage OR kernel computes on the fly
/// (mirrors the implicit variants of [`AdjacencyRepr`]).
#[derive(Debug, Clone, Copy)]
enum ImplicitShape {
    /// Complete graph: anyone beeping means everyone receives a 1.
    Complete,
    /// Wrap-around `rows × cols` torus.
    Torus { rows: usize, cols: usize },
    /// Boundary `rows × cols` grid.
    Grid { rows: usize, cols: usize },
}

/// How [`BeepNetwork::run_round_bitset`] computes the neighborhood OR.
#[derive(Debug)]
enum AdjKernel {
    /// Iterate the set bits of the beeper bitmap and scatter each beeper's
    /// adjacency list into the received bitmap: `O(Σ deg(beeper))`.
    Sparse,
    /// Dense rows selected but not yet materialized: a network that only
    /// ever runs the scalar path (or is constructed per bench iteration)
    /// must not pay the `O(n²/64)` build in `new`. The first bitset round
    /// promotes this to [`AdjKernel::Dense`].
    DensePending,
    /// Per-node neighbor bitmasks, OR'd a whole row (word-parallel) per
    /// beeper: `O(#beepers · n/64)` words. Wins on small or dense graphs.
    Dense(Vec<BitVec>),
    /// Zero-storage kernel for implicit topologies: the neighborhood OR of
    /// a whole output word is a handful of masked shifts of the beeper
    /// words (`O(n/64)` per round regardless of beeper density), so the
    /// adjacency is never touched because it never exists.
    Implicit(ImplicitShape),
}

impl AdjKernel {
    /// Auto-selects the kernel. Implicit graphs get the zero-storage
    /// shift kernel. Materialized CSR graphs get dense
    /// rows when they fit the [`DENSE_WORD_BUDGET`] *and* the graph is
    /// dense enough that a row OR (`⌈n/64⌉` words) beats scattering an
    /// average adjacency list (`2m/n` bit-writes), i.e. roughly when
    /// `128·m ≥ n²`. The rows themselves are built lazily on first use.
    fn auto(graph: &Graph) -> Self {
        match graph.repr() {
            AdjacencyRepr::Complete { .. } => return AdjKernel::Implicit(ImplicitShape::Complete),
            AdjacencyRepr::Torus { rows, cols } => {
                return AdjKernel::Implicit(ImplicitShape::Torus { rows, cols })
            }
            AdjacencyRepr::Grid { rows, cols } => {
                return AdjKernel::Implicit(ImplicitShape::Grid { rows, cols })
            }
            AdjacencyRepr::Csr => {}
        }
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

/// Bits `bit .. bit+64` of `src` as one word, with everything outside
/// `[0, 64·src.len())` reading as zero. The implicit kernels express "the
/// beeper bit of my neighbor `v ± k`" as `window(beepers, 64·w ± k)`.
#[inline]
fn window(src: &[u64], bit: i64) -> u64 {
    let word = bit.div_euclid(64);
    let sh = bit.rem_euclid(64) as u32;
    let get = |w: i64| -> u64 {
        if w < 0 || w >= src.len() as i64 {
            0
        } else {
            src[w as usize]
        }
    };
    if sh == 0 {
        get(word)
    } else {
        (get(word) >> sh) | (get(word + 1) << (64 - sh))
    }
}

/// Bits `b` of word `w` whose node `64·w + b` has `node % cols == residue`
/// — the column-boundary masks of the grid/torus kernels. At most
/// `⌈64/cols⌉` bits are set, so the stride loop is short.
#[inline]
fn stride_mask(w: usize, cols: usize, residue: usize) -> u64 {
    let offset = (w * 64) % cols;
    let mut b = (residue + cols - offset) % cols;
    let mut mask = 0u64;
    while b < 64 {
        mask |= 1u64 << b;
        b += cols;
    }
    mask
}

/// Bits `b` of word `w` whose node `64·w + b` lies in `[lo, hi)` — the
/// first-row/last-row masks of the torus wrap terms.
#[inline]
fn range_mask(w: usize, lo: usize, hi: usize) -> u64 {
    let wlo = w * 64;
    let from = lo.saturating_sub(wlo).min(64);
    let to = hi.saturating_sub(wlo).min(64);
    if from >= to {
        return 0;
    }
    let high = if to == 64 { !0 } else { (1u64 << to) - 1 };
    let low = if from == 0 { 0 } else { (1u64 << from) - 1 };
    high & !low
}

/// [`std::thread::available_parallelism`], queried once per process: the
/// auto heuristic consults it every round, and on Linux the std call
/// re-reads cgroup quota files — far too slow for a microsecond-scale
/// round loop.
fn available_cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// The read-only inputs one round of the sharded kernel shares across
/// worker threads. Everything here is borrowed immutably, so shards can be
/// computed in any order, on any thread, with identical results.
struct ShardCtx<'a> {
    graph: &'a Graph,
    /// Dense adjacency rows when the dense kernel is active.
    rows: Option<&'a [BitVec]>,
    /// The implicit topology when the zero-storage shift kernel is active.
    shape: Option<ImplicitShape>,
    /// `beepers.count_ones()`, computed once per round (the complete-graph
    /// kernel and the gather/scatter strategy choice both need it).
    beep_count: usize,
    beepers: &'a BitVec,
    /// The set bits of `beepers`, materialized once per round: the dense
    /// and scatter kernels walk the beeper set once *per shard*, and
    /// re-scanning the whole bitmap S times would dominate sparse rounds.
    /// Left empty in gather mode, which never iterates beepers.
    beeper_list: &'a [usize],
    /// Bits that must not be flipped by noise (the beeper set when
    /// self-hearing is configured noise-free).
    protect: Option<&'a BitVec>,
    channel: &'a ChannelModel,
    seed: u64,
    round: u64,
    /// The round's shard layout size `S` — part of the channel streams.
    shard_count: usize,
    /// The channel's per-round state ([`NoiseModel::round_state`]),
    /// computed once before the shards fan out.
    round_state: u64,
    /// Sparse-kernel strategy for this round: destination-side gather
    /// (dense beeper sets, or a graph with no CSR slices to scatter) vs
    /// source-side scatter (sparse beeper sets on CSR).
    gather: bool,
}

impl ShardCtx<'_> {
    /// Computes one shard of the received frame: bits `lo..hi` of the
    /// round's output, written into `out` (whose first word is global word
    /// `lo / 64`). Pure in `(self, shard, lo, hi)` — thread-safe by
    /// construction because every shard owns a disjoint word range.
    fn compute(&self, shard: usize, lo: usize, hi: usize, out: &mut [u64]) {
        self.or_into(lo, hi, out);
        self.noise_into(shard, lo, hi, out);
    }

    /// The pre-noise received bits of `lo..hi`: self-hearing copy plus the
    /// neighborhood OR. A pure function of `(graph, beepers)` — shard
    /// boundaries only restrict *where* it writes, so the serial path can
    /// call it once over the whole frame.
    fn or_into(&self, lo: usize, hi: usize, out: &mut [u64]) {
        let w_lo = lo / 64;
        // Self-hearing (Section 1.5): start from the beeper bits.
        out.copy_from_slice(&self.beepers.as_words()[w_lo..w_lo + out.len()]);
        if let Some(rows) = self.rows {
            // Dense kernel: OR each beeper's adjacency-bitmask row,
            // restricted to this shard's words, in u64×8 unrolled lanes.
            for &u in self.beeper_list {
                or_words_wide(out, &rows[u].as_words()[w_lo..w_lo + out.len()]);
            }
        } else if let Some(shape) = self.shape {
            // Implicit kernel: the neighborhood OR of a whole word is a
            // handful of masked shifts — no adjacency exists to touch.
            self.implicit_or(shape, w_lo, out);
        } else if self.gather {
            // Dense beeper set: scan each shard node's neighborhood with
            // early exit — at ≥ n/16 beepers a hit comes fast. Also the
            // only sparse strategy for a non-CSR graph (an implicit graph
            // with the shift kernel turned off), which has no adjacency
            // slices to scatter.
            for v in lo..hi {
                let mask = 1u64 << (v % 64);
                if out[(v - lo) / 64] & mask != 0 {
                    continue; // beeped itself: already receives a 1
                }
                if self.graph.any_neighbor(v, |u| self.beepers.get(u)) {
                    out[(v - lo) / 64] |= mask;
                }
            }
        } else {
            // Sparse beeper set: scatter each beeper's CSR adjacency list,
            // binary-searched down to this shard's node range. Consecutive
            // neighbors usually share an output word (lists are sorted),
            // so bits accumulate in a register and flush once per word
            // instead of read-modify-writing memory per neighbor.
            for &u in self.beeper_list {
                let adj = self.graph.neighbors(u);
                let start = adj.partition_point(|&w| w < lo);
                let mut cur = usize::MAX;
                let mut acc = 0u64;
                for &w in &adj[start..] {
                    if w >= hi {
                        break;
                    }
                    let wi = (w - lo) / 64;
                    if wi != cur {
                        if acc != 0 {
                            out[cur] |= acc;
                        }
                        cur = wi;
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

    /// The implicit-topology neighborhood OR for the words starting at
    /// global word `w_lo`: each output word is assembled from masked
    /// shifted windows of the beeper words. `out` already holds the
    /// self-hearing beeper copy; this ORs the neighbor contributions on
    /// top and re-zeros the padding bits of the final word.
    fn implicit_or(&self, shape: ImplicitShape, w_lo: usize, out: &mut [u64]) {
        let n = self.beepers.len();
        let src = self.beepers.as_words();
        match shape {
            ImplicitShape::Complete => {
                // Carrier sensing on K_n: any beeper at all is heard by
                // every node (beeper or not).
                if self.beep_count > 0 {
                    out.fill(!0);
                }
            }
            ImplicitShape::Torus { rows, cols } | ImplicitShape::Grid { rows, cols } => {
                let wrap = matches!(shape, ImplicitShape::Torus { .. });
                debug_assert_eq!(rows * cols, n);
                let c = cols as i64;
                for (idx, o) in out.iter_mut().enumerate() {
                    let w = w_lo + idx;
                    let base = (w * 64) as i64;
                    // Vertical neighbors are a plain ±cols shift; nodes in
                    // the first/last row read past the bitmap and get 0.
                    let mut acc = window(src, base - c) | window(src, base + c);
                    // Horizontal neighbors are a ±1 shift masked at the
                    // column boundaries so rows don't bleed into each
                    // other.
                    let start_mask = stride_mask(w, cols, 0);
                    let end_mask = stride_mask(w, cols, cols - 1);
                    acc |= window(src, base - 1) & !start_mask;
                    acc |= window(src, base + 1) & !end_mask;
                    if wrap {
                        // Torus wrap terms: column 0 ↔ column cols−1 and
                        // first row ↔ last row.
                        acc |= window(src, base + c - 1) & start_mask;
                        acc |= window(src, base - (c - 1)) & end_mask;
                        let nc = (n - cols) as i64;
                        acc |= window(src, base + nc) & range_mask(w, 0, cols);
                        acc |= window(src, base - nc) & range_mask(w, n - cols, n);
                    }
                    *o |= acc;
                }
            }
        }
        // The shifts above can set padding bits past `n` in the bitmap's
        // final word; BitVec's word invariant (and the post-pass scatter)
        // require them zero.
        if !n.is_multiple_of(64) {
            let last = n / 64;
            if (w_lo..w_lo + out.len()).contains(&last) {
                out[last - w_lo] &= (1u64 << (n % 64)) - 1;
            }
        }
    }

    /// Channel noise for bits `lo..hi`, from the `(round, shard)` cell's
    /// own counter-keyed stream — identical no matter which thread runs
    /// the shard. Unlike [`or_into`](Self::or_into), this MUST be called
    /// with the exact shard boundaries: the flips are what the
    /// determinism contract keys per shard.
    fn noise_into(&self, shard: usize, lo: usize, hi: usize, out: &mut [u64]) {
        if self.channel.is_noiseless() {
            return;
        }
        let ctx = ChannelCtx {
            graph: self.graph,
            seed: self.seed,
            round: self.round,
            shard: shard as u64,
            shard_count: self.shard_count,
            round_state: self.round_state,
            protect: self.protect,
        };
        self.channel.apply_to_shard(out, lo, hi, &ctx);
    }
}

/// A beeping network: a graph, a channel model, and a seed.
///
/// The engine implements the models of Section 1.1 exactly:
///
/// 1. every node submits an [`Action`] for the round;
/// 2. a node receives `1` iff it beeped itself or at least one neighbor
///    beeped (Section 1.5's "receives" convention);
/// 3. under [`Noise::Bernoulli`], each node's received bit is then flipped
///    independently with probability `ε`.
///
/// Per the paper's footnote 2, a beeping node's own `1` is flipped too by
/// default, so the engine matches the analysis verbatim; call
/// [`set_self_hearing_noisy(false)`](Self::set_self_hearing_noisy) for the
/// (easier) realistic semantics where a node knows it beeped.
///
/// # Round kernels
///
/// Three implementations of the same model:
///
/// * [`run_round`](Self::run_round) — the scalar reference: one pass over
///   the nodes with one neighborhood scan each, then the channel through
///   the same counter-keyed shard pass as the bitset kernel. Kept as the
///   differential-testing oracle.
/// * [`run_round_bitset`](Self::run_round_bitset) — the bit-parallel
///   production kernel: beepers come in as a [`BitVec`], the received OR is
///   computed from the set bits (or via precomputed adjacency bitmask rows
///   on small/dense graphs), and channel noise is applied with batched
///   geometric-skip sampling.
/// * The **sharded multi-threaded path** inside the bitset kernel: the
///   received frame is split into [`shard_count`](Self::shard_count)
///   word-aligned shards, each computed independently (and, above a work
///   budget or with [`set_parallelism`](Self::set_parallelism), on worker
///   threads writing disjoint word ranges).
///
/// # Determinism contract
///
/// Every kernel draws each round's channel corruption from per-shard
/// counter-keyed streams ([`noise_stream_seed`](crate::noise_stream_seed)`(seed,
/// round, shard)`). A noisy transcript is therefore a pure function of
/// `(graph, channel, faults, seed, actions, shard_count)` — the thread
/// count and thread scheduling are **not** part of the stream, so any
/// parallelism setting (including 1) reproduces it bit-identically. The
/// scalar and bitset kernels are bit-identical under every channel,
/// noiseless or noisy (asserted by the `bitset_oracle` test suite).
///
/// # Fault overlay
///
/// An installed [`FaultPlan`] (see [`set_fault_plan`](Self::set_fault_plan))
/// slots between submitted actions and the channel in **every** kernel:
/// faulty nodes' actions are overridden before the neighborhood OR (so the
/// overlay is applied identically regardless of shard layout or thread
/// count), and crashed nodes' received bits are forced to 0 after the
/// channel. A plan may also carry an
/// [`AdaptivePolicy`](crate::AdaptivePolicy): its per-round choices are
/// computed once before the shard fan-out, from observables (submitted
/// beepers, cumulative per-node beep counts, last network activity) that
/// are identical in every kernel, and applied through the same two
/// passes. The channel's RNG streams are untouched either way, so a run
/// with the empty plan is byte-identical to a fault-free run.
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
    seed: u64,
    stats: NetStats,
    beeps_per_node: Vec<u64>,
    /// The most recent round in which any node effectively beeped (before
    /// adaptive additions) — part of what an [`AdversaryView`] observes.
    last_activity: Option<u64>,
    self_hearing_noisy: bool,
    transcript: Option<Transcript>,
    kernel: AdjKernel,
    shard_count: usize,
    /// Worker threads for the sharded kernel; 0 = auto heuristic.
    threads: usize,
}

impl BeepNetwork {
    /// Creates a network over `graph` with the given channel and seed.
    /// Runs are fully deterministic in `(graph, channel, seed, actions)`
    /// plus, for noisy rounds, the [`shard_count`](Self::shard_count).
    ///
    /// The channel is anything convertible into a [`ChannelModel`]: a
    /// plain [`Noise`] (the paper's iid channel — every pre-existing call
    /// site), or one of the [`crate::channel`] models such as
    /// [`crate::GilbertElliott`].
    #[must_use]
    pub fn new(graph: Graph, channel: impl Into<ChannelModel>, seed: u64) -> Self {
        let channel = channel.into();
        let beeps_per_node = vec![0; graph.node_count()];
        let kernel = AdjKernel::auto(&graph);
        BeepNetwork {
            graph,
            channel,
            faults: FaultPlan::none(),
            seed,
            stats: NetStats::default(),
            beeps_per_node,
            last_activity: None,
            self_hearing_noisy: true,
            transcript: None,
            kernel,
            shard_count: DEFAULT_SHARD_COUNT,
            threads: 0,
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

    /// The channel as an iid [`Noise`] summary: the exact stored value
    /// for an iid channel, and the [`NoiseModel::calibration_epsilon`]
    /// rate for every other model (so ε-calibration checks in the
    /// simulators keep working unchanged).
    ///
    /// # Panics
    ///
    /// Panics if a channel model reports a `calibration_epsilon` outside
    /// `[0, ½)` — impossible for models built through their validating
    /// `try_new` constructors, which make the rate an invariant.
    #[must_use]
    pub fn noise(&self) -> Noise {
        match &self.channel {
            ChannelModel::Iid(noise) => *noise,
            other => {
                let eps = other.calibration_epsilon();
                if eps == 0.0 {
                    Noise::Noiseless
                } else {
                    Noise::try_bernoulli(eps).expect(
                        "calibration_epsilon is a validated invariant of every channel model",
                    )
                }
            }
        }
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
        self.faults = plan;
        Ok(())
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

    /// Overrides the auto-selected bitset kernel: `true` materializes the
    /// `n × n` adjacency bitmask rows (word-parallel row ORs per beeper),
    /// `false` uses the sparse scatter. A tuning knob — results are
    /// identical either way; only [`run_round_bitset`](Self::run_round_bitset)
    /// throughput changes. On an implicit graph this *turns the implicit
    /// shift kernel off* (its neighborhoods are enumerated through the
    /// generic accessors instead), which is how the differential oracle
    /// gets a second kernel to compare the shift kernel against; build a
    /// fresh network to get the auto selection back.
    pub fn set_dense_adjacency(&mut self, dense: bool) {
        self.kernel = if dense {
            AdjKernel::DensePending
        } else {
            AdjKernel::Sparse
        };
    }

    /// A short stable label of the bitset kernel the next round will use:
    /// `"sparse"`, `"dense"`, or `"implicit"`. Exposed for tests, logs,
    /// and bench metadata; the kernel never affects results, only speed.
    #[must_use]
    pub fn kernel_label(&self) -> &'static str {
        match &self.kernel {
            AdjKernel::Sparse => "sparse",
            AdjKernel::DensePending | AdjKernel::Dense(_) => "dense",
            AdjKernel::Implicit(_) => "implicit",
        }
    }

    /// Sets how many worker threads the sharded bitset kernel may use.
    /// `0` (the default) means *auto*: one thread for small rounds, all
    /// available cores once the per-round work (`n + 2m`) crosses a budget
    /// where spawn/join overhead is amortized.
    ///
    /// Purely a performance knob: results are bit-identical for every
    /// setting, because channel noise is keyed by `(seed, round, shard)`
    /// — see [`noise_stream_seed`](crate::noise_stream_seed) — never by
    /// which thread computed a shard.
    ///
    /// ```
    /// use beep_bits::BitVec;
    /// use beep_net::{topology, BeepNetwork, Noise};
    ///
    /// let g = topology::cycle(200).unwrap();
    /// let beepers = BitVec::from_indices(200, [0, 63, 130]);
    /// let mut serial = BeepNetwork::new(g.clone(), Noise::bernoulli(0.2), 9);
    /// serial.set_parallelism(1);
    /// let mut threaded = BeepNetwork::new(g, Noise::bernoulli(0.2), 9);
    /// threaded.set_parallelism(4);
    /// for _ in 0..8 {
    ///     assert_eq!(
    ///         serial.run_round_bitset(&beepers).unwrap(),
    ///         threaded.run_round_bitset(&beepers).unwrap(),
    ///     );
    /// }
    /// ```
    pub fn set_parallelism(&mut self, threads: usize) {
        self.threads = threads;
    }

    /// The configured worker-thread setting (`0` = auto heuristic).
    #[must_use]
    pub fn parallelism(&self) -> usize {
        self.threads
    }

    /// Sets the shard count `S` of the sharded bitset kernel.
    ///
    /// Unlike the thread count, `S` **is** part of the determinism tuple:
    /// under [`Noise::Bernoulli`] each shard draws its flips from its own
    /// `(seed, round, shard)`-keyed stream, so changing `S` changes the
    /// noisy transcript (noiseless results never change). Keep the default
    /// when reproducing recorded experiments.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn set_shard_count(&mut self, shards: usize) {
        assert!(shards > 0, "shard count must be at least 1");
        self.shard_count = shards;
    }

    /// The shard count `S` of the sharded bitset kernel.
    #[must_use]
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Worker threads the next bitset round will actually use, resolving
    /// the auto heuristic: parallel only when `n + 2m` crosses
    /// the spawn/join amortization budget, and never more threads than
    /// shards (a thread with no shard would be pure overhead).
    fn effective_threads(&self) -> usize {
        let configured = if self.threads == 0 {
            let work = self.graph.node_count() + 2 * self.graph.edge_count();
            if work >= PARALLEL_WORK_BUDGET {
                available_cores()
            } else {
                1
            }
        } else {
            self.threads
        };
        configured.clamp(1, self.shard_count)
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
        let round = self.stats.rounds as u64;
        // Fault overlay, step 1: override faulty nodes' actions *before*
        // the neighborhood OR and the channel — the same pre-channel point
        // at which the bitset kernel edits its beeper bitmap. An adaptive
        // policy then observes the static-effective submissions (the same
        // AdversaryView the bitset kernel builds pre-fan-out) and adds its
        // per-round choices on top.
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
            Action::Listen => graph.any_neighbor(v, |u| actions[u] == Action::Beep),
        };
        // Every channel is counter-keyed per (round, shard): apply it with
        // the bitset kernel's exact shard layout, so the scalar oracle
        // reproduces the bitset transcript bit-for-bit. The pre-channel OR
        // is still computed independently per node here, which keeps the
        // differential tests meaningful.
        let mut frame = BitVec::from_fn(n, clean_bit);
        let beepers = BitVec::from_fn(n, |v| actions[v] == Action::Beep);
        let protect = (!self.self_hearing_noisy).then_some(&beepers);
        apply_channel_sharded(
            &self.channel,
            graph,
            self.seed,
            round,
            self.shard_count,
            protect,
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
    /// differs. The round is computed in [`shard_count`](Self::shard_count)
    /// word-aligned shards, each owning a disjoint word range of the
    /// output and computed independently — serially, or on worker threads
    /// (see [`set_parallelism`](Self::set_parallelism)). Per shard the
    /// received OR is built from the beeper set's *set bits only* — each
    /// beeper scatters its CSR adjacency list (or ORs its precomputed
    /// adjacency bitmask row, see [`set_dense_adjacency`](Self::set_dense_adjacency)),
    /// switching to an early-exit neighborhood gather when beepers are
    /// dense — so a sparse-beeper round is `O(Σ deg(beeper) + n/64)`
    /// instead of the scalar path's `O(n + m)`. Under [`Noise::Bernoulli`]
    /// the channel is applied with geometric-skip batch sampling (`O(ε·n)`
    /// expected RNG draws) from per-shard counter-keyed streams; see the
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
    /// [`run_frame`](Self::run_frame) and
    /// [`run_protocols`](Self::run_protocols) drive their per-round loops
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
        if matches!(self.kernel, AdjKernel::DensePending) {
            self.kernel = AdjKernel::dense(&self.graph);
        }
        if received.len() != n {
            *received = BitVec::zeros(n);
        }
        let round = self.stats.rounds as u64;
        // Fault overlay, step 1: compute the round's *effective* beeper
        // set before anything fans out into shards. Editing the bitmap
        // here keeps thread/shard invariance trivial (every shard reads
        // the same beepers) and leaves the channel's counter-keyed streams
        // untouched; an empty plan takes this branch never and the round
        // is byte-identical to a fault-free run. An adaptive policy makes
        // its per-round choice here too — once, from observables that are
        // identical at every thread and shard count — and its spam/mute
        // edits land on the same bitmap.
        let faulty: BitVec;
        let decision: RoundFaults;
        let mut pre_adaptive_count: Option<usize> = None;
        let beepers: &BitVec = if self.faults.is_empty() {
            decision = RoundFaults::none();
            beepers
        } else {
            let mut effective = beepers.clone();
            self.faults.apply_to_beepers(round, &mut effective);
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
        let rows = match &self.kernel {
            AdjKernel::Dense(rows) => Some(rows.as_slice()),
            _ => None,
        };
        let shape = match &self.kernel {
            AdjKernel::Implicit(shape) => Some(*shape),
            _ => None,
        };
        let gather = rows.is_none()
            && shape.is_none()
            && (GATHER_DENSITY_FACTOR * beep_count >= n
                || !matches!(self.graph.repr(), AdjacencyRepr::Csr));
        // The implicit kernel reads the beeper words directly; only the
        // dense-row and scatter kernels walk the materialized beeper list.
        let beeper_list: Vec<usize> = if gather || shape.is_some() {
            Vec::new()
        } else {
            beepers.iter_ones().collect()
        };
        let ctx = ShardCtx {
            graph: &self.graph,
            rows,
            shape,
            beep_count,
            beepers,
            beeper_list: &beeper_list,
            protect: (!self.self_hearing_noisy).then_some(beepers),
            channel: &self.channel,
            seed: self.seed,
            round,
            shard_count: self.shard_count,
            round_state: self.channel.round_state(self.seed, round),
            gather,
        };
        // Word-aligned shard layout: shard `s` owns global words
        // `[s·per, (s+1)·per)`, i.e. bits `[s·per·64, …)`. The layout is a
        // pure function of `(n, shard_count)`, never of the thread count.
        let words = received.as_words_mut();
        let per = words.len().div_ceil(self.shard_count).max(1);
        // A thread per populated shard at most: spare threads would only
        // spawn, find an empty queue, and join.
        let threads = self
            .effective_threads()
            .min(words.len().div_ceil(per).max(1));
        if threads <= 1 {
            // Serial fast path: the OR is shard-agnostic (a pure function
            // of graph and beepers), so run it in one unsharded pass —
            // no per-shard adjacency re-walks — and only the noise, which
            // the determinism contract keys per (round, shard), is applied
            // shard by shard. Noiseless rounds skip that loop's body
            // entirely.
            ctx.or_into(0, n, words);
            for (s, chunk) in words.chunks_mut(per).enumerate() {
                let lo = s * per * 64;
                ctx.noise_into(s, lo, (lo + chunk.len() * 64).min(n), chunk);
            }
        } else {
            // Deal shards round-robin onto `threads` workers; the last
            // queue runs on the calling thread so a scope spawns T−1.
            let mut queues: Vec<Vec<(usize, &mut [u64])>> =
                (0..threads).map(|_| Vec::new()).collect();
            for (s, chunk) in words.chunks_mut(per).enumerate() {
                queues[s % threads].push((s, chunk));
            }
            let own = queues.pop().expect("threads >= 2 queues");
            let run_queue = |queue: Vec<(usize, &mut [u64])>| {
                for (s, chunk) in queue {
                    let lo = s * per * 64;
                    ctx.compute(s, lo, (lo + chunk.len() * 64).min(n), chunk);
                }
            };
            std::thread::scope(|scope| {
                for queue in queues {
                    scope.spawn(|| run_queue(queue));
                }
                run_queue(own);
            });
        }
        // Fault overlay, step 2: crashed nodes are deaf — their received
        // bit is cleared *after* the channel, so feedback (and run_frame
        // outputs) see silence. Adaptive deafening clears at the same
        // point.
        self.faults.silence_crashed(round, received);
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
    /// Use [`run_frame_of_len`](Self::run_frame_of_len) when silent batches
    /// must still consume rounds.
    ///
    /// This is the frame-level API the phase simulators run on: each round
    /// touches only the transmitting nodes to assemble the beeper bitmap,
    /// then goes through the sharded bitset kernel.
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
        self.run_frame_of_len(frames, rounds)
    }

    /// [`run_frame`](Self::run_frame) with an explicit round count: runs
    /// exactly `rounds` rounds even when every node listens (an all-silent
    /// phase still occupies its slot in the paper's round accounting).
    ///
    /// # Errors
    ///
    /// * [`NetError::ActionCount`] if `frames.len()` differs from the node
    ///   count.
    /// * [`NetError::FrameLength`] if a transmitted frame's length is not
    ///   `rounds`.
    pub fn run_frame_of_len(
        &mut self,
        frames: &[Option<BitVec>],
        rounds: usize,
    ) -> Result<Vec<BitVec>, NetError> {
        let mut heard = Vec::new();
        self.run_frame_into(frames, rounds, &mut heard)?;
        Ok(heard)
    }

    /// [`run_frame_of_len`](Self::run_frame_of_len) writing into a caller
    /// buffer: `heard` is resized to one `rounds`-bit string per node and
    /// entirely overwritten, reusing its allocations when the shapes
    /// already match. A phase loop that runs many frames back to back
    /// (e.g. the Algorithm 1 simulator) allocates its output once instead
    /// of `O(n)` strings per phase; the per-round `received` scratch is
    /// reused internally either way.
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
        let mut transmitters: Vec<(usize, &BitVec)> = Vec::new();
        for (v, frame) in frames.iter().enumerate() {
            if let Some(f) = frame {
                if f.len() != rounds {
                    return Err(NetError::FrameLength {
                        node: v,
                        expected: rounds,
                        actual: f.len(),
                    });
                }
                transmitters.push((v, f));
            }
        }
        heard.truncate(n);
        for h in heard.iter_mut() {
            if h.len() == rounds {
                h.clear();
            } else {
                *h = BitVec::zeros(rounds);
            }
        }
        heard.resize_with(n, || BitVec::zeros(rounds));
        let mut beepers = BitVec::zeros(n);
        let mut received = BitVec::zeros(n);
        for i in 0..rounds {
            beepers.clear();
            for &(v, f) in &transmitters {
                if f.get(i) {
                    beepers.set(v, true);
                }
            }
            self.run_round_bitset_into(&beepers, &mut received)?;
            for v in received.iter_ones() {
                heard[v].set(i, true);
            }
        }
        Ok(())
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
    pub fn run_protocols(
        &mut self,
        protocols: &mut [Box<dyn BeepProtocol>],
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
    use crate::topology;

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
        let mut protos: Vec<Box<dyn BeepProtocol>> = (0..3)
            .map(|id| {
                Box::new(OneShot {
                    id,
                    heard: Vec::new(),
                    done_after: 3,
                }) as Box<dyn BeepProtocol>
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
        // The explicit-length variant still burns the rounds.
        let heard = net.run_frame_of_len(&[None, None, None], 4).unwrap();
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
    fn shard_and_thread_counts_do_not_change_noiseless_results() {
        // Noiseless output is a pure function of (graph, beepers): shard
        // layout and threading must be invisible.
        let g = topology::grid(9, 9).unwrap(); // 81 nodes: 2 words
        let beepers = BitVec::from_indices(81, [0, 13, 64, 80]);
        let mut reference = BeepNetwork::new(g.clone(), Noise::Noiseless, 0);
        let expected = reference.run_round_bitset(&beepers).unwrap();
        for shards in [1, 2, 3, 8, 64] {
            for threads in [1, 2, 4, 8] {
                let mut net = BeepNetwork::new(g.clone(), Noise::Noiseless, 0);
                net.set_shard_count(shards);
                net.set_parallelism(threads);
                assert_eq!(
                    net.run_round_bitset(&beepers).unwrap(),
                    expected,
                    "shards={shards} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn thread_count_does_not_change_noisy_results() {
        // The determinism contract: with the shard count fixed, the noisy
        // transcript is identical for every parallelism setting.
        let g = topology::cycle(300).unwrap();
        let beepers = BitVec::from_indices(300, [5, 77, 200]);
        let run = |threads: usize| {
            let mut net = BeepNetwork::new(g.clone(), Noise::bernoulli(0.3), 42);
            net.set_parallelism(threads);
            (0..12)
                .map(|_| net.run_round_bitset(&beepers).unwrap())
                .collect::<Vec<_>>()
        };
        let reference = run(1);
        for threads in [2, 4, 8] {
            assert_eq!(run(threads), reference, "threads={threads}");
        }
    }

    #[test]
    fn gather_and_scatter_strategies_agree() {
        // Force both sides of the per-round density heuristic on the same
        // beeper set by driving the density across the threshold.
        let g = topology::grid(8, 8).unwrap();
        let n = 64;
        for ones in [1, 3, n / 4, n] {
            let beepers = BitVec::from_fn(n, |v| v % (n / ones).max(1) == 0);
            let mut sparse = BeepNetwork::new(g.clone(), Noise::Noiseless, 0);
            sparse.set_dense_adjacency(false);
            let mut dense = BeepNetwork::new(g.clone(), Noise::Noiseless, 0);
            dense.set_dense_adjacency(true);
            let mut scalar = BeepNetwork::new(g.clone(), Noise::Noiseless, 0);
            let actions: Vec<Action> = (0..n).map(|v| Action::from_bit(beepers.get(v))).collect();
            let expected: BitVec = BitVec::from_bools(&scalar.run_round(&actions).unwrap());
            assert_eq!(sparse.run_round_bitset(&beepers).unwrap(), expected);
            assert_eq!(dense.run_round_bitset(&beepers).unwrap(), expected);
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
    fn parallelism_and_shard_count_knobs_round_trip() {
        let mut net = BeepNetwork::new(topology::path(3).unwrap(), Noise::Noiseless, 0);
        assert_eq!(net.parallelism(), 0, "auto by default");
        net.set_parallelism(4);
        assert_eq!(net.parallelism(), 4);
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
        net.set_parallelism(4);
        let received = net.run_round_bitset(&BitVec::zeros(0)).unwrap();
        assert!(received.is_empty());
        assert_eq!(net.stats().rounds, 1);
    }

    #[test]
    fn dense_and_sparse_kernels_agree() {
        let g = topology::grid(4, 4).unwrap();
        let beepers = BitVec::from_indices(16, [0, 5, 10, 15]);
        let mut dense = BeepNetwork::new(g.clone(), Noise::Noiseless, 0);
        dense.set_dense_adjacency(true);
        let mut sparse = BeepNetwork::new(g, Noise::Noiseless, 0);
        sparse.set_dense_adjacency(false);
        assert_eq!(
            dense.run_round_bitset(&beepers).unwrap(),
            sparse.run_round_bitset(&beepers).unwrap()
        );
    }

    // Regression: run_protocols keeps driving act()/feedback() on nodes
    // whose is_done() already returns true, until *all* nodes are done
    // (the documented contract). Counters are shared out through Rc so the
    // boxed trait objects can be inspected after the run.
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
        let mut protos: Vec<Box<dyn BeepProtocol>> = counters
            .iter()
            .zip([1usize, 5])
            .map(|((feedbacks, acts_while_done), rounds_to_run)| {
                Box::new(DoneButCounting {
                    rounds_to_run,
                    feedbacks: Rc::clone(feedbacks),
                    acts_while_done: Rc::clone(acts_while_done),
                }) as Box<dyn BeepProtocol>
            })
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
        let mut protos: Vec<Box<dyn BeepProtocol>> = heard
            .iter()
            .enumerate()
            .map(|(id, h)| {
                Box::new(Recorder {
                    id,
                    heard: Rc::clone(h),
                }) as Box<dyn BeepProtocol>
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
        let mut protos: Vec<Box<dyn BeepProtocol>> = (0..2)
            .map(|id| {
                Box::new(OneShot {
                    id,
                    heard: Vec::new(),
                    done_after: usize::MAX,
                }) as Box<dyn BeepProtocol>
            })
            .collect();
        assert_eq!(
            net.run_protocols(&mut protos, 5),
            Err(NetError::RoundBudgetExhausted { budget: 5 })
        );
    }
}
