//! The noisy beeping channel (Ashkenazi, Gelles & Leshem).

use crate::error::NetError;
use beep_bits::BitVec;
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

/// Derives the seed of the noise RNG stream for one `(seed, round, shard)`
/// cell — the determinism contract of the round engine.
///
/// Every noisy round, in every round kernel, draws its channel flips from
/// `StdRng::seed_from_u64(noise_stream_seed(seed, round, shard))`, one
/// independent stream per shard per round. Because the stream is keyed by
/// *position* rather than threaded through one sequential RNG, the noisy
/// transcript depends only on `(graph, noise, seed, actions, shard_count)`
/// — in every kernel, whichever order its shards run in.
///
/// The two multipliers are distinct odd 64-bit mixing constants
/// (SplitMix64's golden-ratio increment and the rrmxmx mixer multiplier),
/// so `(round, shard)` and `(shard, round)` key different streams; a plain
/// `seed ^ round ^ shard` would collide on every swapped pair. This
/// function is pinned by the golden-transcript tests: changing it silently
/// shifts every recorded noisy experiment, so it fails loudly instead.
#[must_use]
pub fn noise_stream_seed(seed: u64, round: u64, shard: u64) -> u64 {
    seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ shard.wrapping_mul(0x9FB2_1C65_1E98_DF25)
}

/// The reserved shard index of the per-(node, phase) protocol coin stream.
///
/// Randomized protocols built on the engine (currently `beep_ben_or` in
/// `beep-apps`) derive node `v`'s phase-`p` coin via [`protocol_coin`] —
/// counter-keyed like everything else, so transcripts stay pure functions
/// of `(graph, channel, faults, seed, actions, shard_count)` and coins
/// never perturb (or collide with) the channel, fault-realization, or
/// adaptive-policy streams. Listed in
/// [`RESERVED_STREAMS`](crate::RESERVED_STREAMS); coin golden values are
/// pinned by `noise_stream_golden.rs`.
pub const PROTOCOL_COIN_STREAM: u64 = u64::MAX - 3;

/// Node `node`'s fair coin for phase `phase` of a randomized protocol
/// seeded with `seed`.
///
/// The draw is `StdRng::seed_from_u64(noise_stream_seed(seed, phase,
/// PROTOCOL_COIN_STREAM) ^ (node + 1)·M)` with `M` an odd 64-bit mixing
/// constant (the rrmxmx finalizer multiplier), so distinct nodes key
/// distinct streams and node 0 is not the unmixed phase key. Pinned by the
/// coin-stream golden test; change it only with a documented break.
#[must_use]
pub fn protocol_coin(seed: u64, node: usize, phase: u64) -> bool {
    let key = noise_stream_seed(seed, phase, PROTOCOL_COIN_STREAM)
        ^ (node as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03);
    StdRng::seed_from_u64(key).random_bool(0.5)
}

/// The channel model applied to every bit a node receives.
///
/// ```
/// use beep_net::{FlipSampler, Noise};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(1);
/// // ε ∈ (0, ½) flips each bit independently with probability ε.
/// let noisy = Noise::bernoulli(0.25);
/// assert_eq!(noisy.epsilon(), 0.25);
/// let mut words = vec![0u64; 160];
/// FlipSampler::new(noisy.epsilon(), 10_240).apply(&mut words, 0, 10_240, None, &mut rng);
/// let flips: u32 = words.iter().map(|w| w.count_ones()).sum();
/// assert!((2_000..3_000).contains(&flips));
/// // The noiseless channel's rate flips nothing.
/// let clean = FlipSampler::new(Noise::Noiseless.epsilon(), 10_240);
/// clean.apply(&mut words, 0, 10_240, None, &mut rng);
/// assert_eq!(words.iter().map(|w| w.count_ones()).sum::<u32>(), flips);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Noise {
    /// The noiseless beeping model of Cornejo & Kuhn: received bits are
    /// exact.
    Noiseless,
    /// The noisy beeping model: each received bit is flipped independently
    /// uniformly at random with the given probability `ε ∈ (0, ½)`.
    Bernoulli(f64),
}

impl Noise {
    /// Constructs a Bernoulli channel after validating `ε ∈ (0, ½)` — the
    /// open interval the paper requires (at `ε = ½` the channel carries no
    /// information; at `ε = 0` use [`Noise::Noiseless`]).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::InvalidNoise`] if `epsilon` is outside
    /// `(0, 0.5)` (including NaN).
    pub fn try_bernoulli(epsilon: f64) -> Result<Self, NetError> {
        if epsilon > 0.0 && epsilon < 0.5 {
            Ok(Noise::Bernoulli(epsilon))
        } else {
            Err(NetError::InvalidNoise { epsilon })
        }
    }

    /// [`Noise::try_bernoulli`] for contexts where `ε` is a literal or
    /// otherwise known-valid — the panicking convenience every example and
    /// test uses.
    ///
    /// # Panics
    ///
    /// Panics if `epsilon` is outside `(0, 0.5)`. Use
    /// [`Noise::try_bernoulli`] when `ε` comes from user input or
    /// configuration.
    #[must_use]
    pub fn bernoulli(epsilon: f64) -> Self {
        match Self::try_bernoulli(epsilon) {
            Ok(noise) => noise,
            Err(e) => panic!("{e}"),
        }
    }

    /// The flip probability (0 for the noiseless channel).
    #[must_use]
    pub fn epsilon(&self) -> f64 {
        match *self {
            Noise::Noiseless => 0.0,
            Noise::Bernoulli(e) => e,
        }
    }
}

/// `2⁻⁵³`: the weight of one unit of a 53-bit draw.
const DRAW_UNIT: f64 = 1.0 / (1u64 << 53) as f64;

/// The largest 53-bit draw.
const DRAW_MAX: u64 = (1 << 53) - 1;

/// The most step points one table holds, whatever the shard width.
const MAX_STEPS: usize = 4096;

/// Heap bytes one table (step points plus bucket index) may use.
const TABLE_BYTES: usize = 64 << 10;

/// The geometric-skip flip sampler for one rate `ε`: an exact step-point
/// table for the channel's gap function.
///
/// # The stream
///
/// Each draw takes the top 53 bits `x` of one `next_u64()`, so
/// `u = x·2⁻⁵³` and `v = 1 − u` are exact `f64`s, and its gap — the
/// number of unflipped bits before the next flip — is
///
/// ```text
/// g(x) = ⌊ln(1 − x·2⁻⁵³) / ln(1 − ε)⌋, evaluated in f64.
/// ```
///
/// A pass over bits `lo..hi` starts at `i = lo` and, while `i < hi`,
/// draws `x`: it stops if `g(x) ≥ hi − i`, and otherwise flips bit
/// `i + g(x)` (unless protected) and moves `i` one past it. `g(x)` is
/// Geometric(ε), so every bit flips independently with probability `ε`.
/// This gap function is the stream: it fixes every flip and every draw.
/// A rate whose `1 − ε` rounds to 1 (`ε ≤ 2⁻⁵⁴`, below what a 53-bit draw
/// resolves) flips nothing; its every gap is unbounded.
///
/// # The table
///
/// `g` is a step function of `x`, so the sampler stores its step points
/// `t_k = min{x : g(x) ≥ k}` for `k = 1..=K`, each found by bisection
/// against the `ln` expression itself, with `K` the shard width it was
/// built for (at most 4096) or the largest gap any draw can produce,
/// whichever is smaller. A draw is placed among them in O(1): an index of
/// buckets, keyed on the high bits of `v`'s `f64` representation (log
/// scale, like the step points), records how many step points precede
/// each bucket, and the lookup walks on from there past the few step
/// points inside the bucket. A lookup is then a few integer compares
/// instead of an `ln` and a division.
///
/// Two kinds of draws evaluate the `ln` expression instead: a draw within
/// [`GUARD_BAND`](Self::GUARD_BAND) of a step point, where a platform
/// `ln` that is not monotone to the last bit could disagree with a
/// monotone table, and a draw past the table's last step point when the
/// bits left exceed `K`. So the table changes the cost of a pass, never
/// its flips or its draws, and `K` and the bucket width are not part of
/// the stream. Step points and bucket index together stay within 64 KiB.
///
/// ```
/// use beep_net::FlipSampler;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let sampler = FlipSampler::new(0.05, 512);
/// // Draws below the first step point skip no bits at all.
/// let first = sampler.step_points()[0];
/// assert_eq!(sampler.gap(0, 512), 0);
/// assert_eq!(sampler.gap(first + FlipSampler::GUARD_BAND, 512), 1);
/// // A pass over one 512-bit shard flips about ε·512 bits.
/// let mut words = [0u64; 8];
/// sampler.apply(&mut words, 0, 512, None, &mut StdRng::seed_from_u64(1));
/// let flips: u32 = words.iter().map(|w| w.count_ones()).sum();
/// assert!((5..60).contains(&flips));
/// ```
pub struct FlipSampler {
    /// `ln(1 − ε)`, negative for every rate that flips anything.
    log_keep: f64,
    /// `steps[k] = t_k` for `k = 1..=K`, framed by `steps[0] = 0` and a
    /// final `u64::MAX`, so a lookup never runs off either end.
    steps: Vec<u64>,
    /// `buckets[b]` counts the step points `t ≤ x + GUARD_BAND` for the
    /// least draw `x` in bucket `b`, so a lookup starts there.
    buckets: Vec<u16>,
    /// Right shift from `v`'s bits to its bucket key.
    shift: u32,
    /// The bucket key of `v = 1` (draw 0), bucket 0's key.
    top: u64,
}

impl FlipSampler {
    /// Draws at most this far (in units of `x`) from a step point evaluate
    /// the `ln` expression rather than trust the table.
    pub const GUARD_BAND: u64 = 64;

    /// Builds the sampler for flip rate `epsilon` on shards of up to
    /// `width` bits. Any width gives the same flips; it sets only how many
    /// step points the table holds, and so which draws it answers.
    #[must_use]
    pub fn new(epsilon: f64, width: usize) -> Self {
        let log_keep = (1.0 - epsilon).ln();
        let mut sampler = FlipSampler {
            log_keep,
            steps: vec![0, u64::MAX],
            buckets: vec![0],
            shift: 63,
            top: 0,
        };
        // A rate that flips nothing (`ln(1 − ε)` not negative) has no step
        // points to find and no ln(1 − ε) to divide by: it keeps the
        // single bucket above, which sends every draw to `exact_gap`, and
        // that ends the pass.
        if log_keep < 0.0 {
            let k_max = width.min(MAX_STEPS).min(sampler.draw_gap(DRAW_MAX));
            let mut steps = Vec::with_capacity(k_max + 2);
            steps.push(0);
            for k in 1..=k_max {
                steps.push(sampler.step_point(k, steps[k - 1]));
            }
            steps.push(u64::MAX);
            sampler.steps = steps;
            sampler.index_buckets();
        }
        sampler
    }

    /// The gap of draw `x` (its top-53-bit value, `x < 2⁵³`), capped at
    /// `room`: `min(g(x), room)`, where `room` is the number of bits left
    /// in the pass, so a result of `room` means the pass ends.
    #[inline]
    #[must_use]
    pub fn gap(&self, x: u64, room: usize) -> usize {
        let v = 1.0 - x as f64 * DRAW_UNIT;
        let bucket =
            ((self.top - (v.to_bits() >> self.shift)) as usize).min(self.buckets.len() - 1);
        // k = #{t_j ≤ x + GUARD_BAND}: the bucket's count, plus the step
        // points between the bucket's least draw and x. Buckets rarely
        // hold more than one, so the first is a branch-free compare.
        let reach = x + Self::GUARD_BAND;
        let mut k = usize::from(self.buckets[bucket]);
        k += usize::from(self.steps[k + 1] <= reach);
        while self.steps[k + 1] <= reach {
            k += 1;
        }
        // Within the band of step point k, or past the table's end with
        // more bits left than it answers for: ask the definition.
        let end = self.steps.len() - 2;
        if x < self.steps[k] + Self::GUARD_BAND || (k == end && k < room) {
            return self.exact_gap(v).min(room);
        }
        k.min(room)
    }

    /// Passes the received bits at *global* positions `lo..hi` (with `lo`
    /// word-aligned) through the channel: each bit inside `words`, whose
    /// first word holds bits `lo..lo + 64`, flips independently with
    /// probability `ε`, drawn from `rng`, except at positions set in
    /// `protect` (indexed by global position; the engine passes the
    /// beeper set there when self-hearing is configured noise-free).
    ///
    /// Flip positions come from geometric gaps, so `n` bits cost
    /// `O(ε·n + 1)` draws. The round engine runs this pass once per
    /// shard, each with its own counter-keyed stream (see
    /// [`noise_stream_seed`]), so channel noise is identical in every
    /// kernel.
    ///
    /// # Panics
    ///
    /// Panics if `lo` is not a multiple of 64, or if `hi - lo` exceeds the
    /// bit capacity of `words`.
    pub fn apply<R: Rng + ?Sized>(
        &self,
        words: &mut [u64],
        lo: usize,
        hi: usize,
        protect: Option<&BitVec>,
        rng: &mut R,
    ) {
        assert!(lo.is_multiple_of(64), "shard start {lo} not word-aligned");
        assert!(
            hi.saturating_sub(lo) <= words.len() * 64,
            "range {lo}..{hi} exceeds {} words",
            words.len()
        );
        let mut i = lo;
        while i < hi {
            let room = hi - i;
            let gap = self.gap(rng.next_u64() >> 11, room);
            if gap == room {
                break;
            }
            i += gap;
            if !protect.is_some_and(|p| p.get(i)) {
                words[(i - lo) / 64] ^= 1u64 << (i % 64);
            }
            i += 1;
        }
    }

    /// The step points `t_1, t_2, …` the table holds, ascending.
    #[must_use]
    pub fn step_points(&self) -> &[u64] {
        &self.steps[1..self.steps.len() - 1]
    }

    /// Heap bytes held by the step points and the bucket index.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        self.steps.capacity() * std::mem::size_of::<u64>()
            + self.buckets.capacity() * std::mem::size_of::<u16>()
    }

    /// The stream's gap for the draw whose `1 − u` is `v`: the definition,
    /// and the fallback for every draw the table does not answer.
    fn exact_gap(&self, v: f64) -> usize {
        if self.log_keep < 0.0 {
            (v.ln() / self.log_keep) as usize
        } else {
            usize::MAX
        }
    }

    /// [`exact_gap`](Self::exact_gap) of draw `x`.
    fn draw_gap(&self, x: u64) -> usize {
        self.exact_gap(1.0 - x as f64 * DRAW_UNIT)
    }

    /// `t_k`, the least draw `x ≥ from` whose gap is at least `k`, where
    /// `from = t_(k−1)` and `k ≤ g(DRAW_MAX)`: bisection against the `ln`
    /// expression, first narrowed around the closed form
    /// `2⁵³·(1 − (1 − ε)^k)`.
    fn step_point(&self, k: usize, from: u64) -> u64 {
        let reaches = |x: u64| self.draw_gap(x) >= k;
        if reaches(from) {
            return from;
        }
        // Invariant: lo falls short of k, hi reaches it.
        let (mut lo, mut hi) = (from, DRAW_MAX);
        let guess = (-(k as f64 * self.log_keep).exp_m1() / DRAW_UNIT) as u64;
        for probe in [guess.saturating_sub(256), guess.saturating_add(256)] {
            if lo < probe && probe < hi {
                if reaches(probe) {
                    hi = probe;
                } else {
                    lo = probe;
                }
            }
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if reaches(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }

    /// The bucket of draw `x` under a key shift of `shift`.
    fn bucket_at(shift: u32, x: u64) -> usize {
        let key = |x: u64| (1.0 - x as f64 * DRAW_UNIT).to_bits() >> shift;
        (key(0) - key(x)) as usize
    }

    /// Sizes and fills the bucket index. Buckets are `2⁻ᵇ` of an octave of
    /// `v` with `b = ⌈log₂(2/|ln(1 − ε)|)⌉`, so one holds about half a step
    /// point or less, coarsened until the table fits [`TABLE_BYTES`]. The
    /// index covers draws up to the last step point's guard band; later
    /// draws use the last bucket.
    fn index_buckets(&mut self) {
        let fine_bits = (2.0 / -self.log_keep).log2().ceil().clamp(0.0, 52.0) as u32;
        let points = self.step_points();
        let end = points
            .last()
            .map_or(0, |&t| (t + Self::GUARD_BAND).min(DRAW_MAX));
        let step_bytes = self.steps.len() * std::mem::size_of::<u64>();
        let mut shift = 52 - fine_bits;
        while shift < 52
            && step_bytes + (Self::bucket_at(shift, end) + 1) * std::mem::size_of::<u16>()
                > TABLE_BYTES
        {
            shift += 1;
        }
        // Step point j counts in every bucket whose least draw is at least
        // t_j − GUARD_BAND: every bucket after the one holding the draw
        // just below that.
        let mut buckets = vec![0u16; Self::bucket_at(shift, end) + 1];
        let mut j = 0;
        for (b, count) in buckets.iter_mut().enumerate() {
            while let Some(&t) = points.get(j) {
                let counted =
                    t <= Self::GUARD_BAND || Self::bucket_at(shift, t - Self::GUARD_BAND - 1) < b;
                if !counted {
                    break;
                }
                j += 1;
            }
            *count = j as u16;
        }
        self.shift = shift;
        self.top = 1.0f64.to_bits() >> shift;
        self.buckets = buckets;
    }
}

impl std::fmt::Debug for FlipSampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlipSampler")
            .field("log_keep", &self.log_keep)
            .field("step_points", &self.step_points().len())
            .field("buckets", &self.buckets.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Passes a whole bit string through the channel at `noise`'s rate.
    fn apply_all(noise: Noise, bits: &mut BitVec, protect: Option<&BitVec>, rng: &mut StdRng) {
        let hi = bits.len();
        FlipSampler::new(noise.epsilon(), hi).apply(bits.as_words_mut(), 0, hi, protect, rng);
    }

    #[test]
    fn noiseless_is_identity() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut bits = BitVec::from_fn(100, |i| i % 7 == 0);
        let before = bits.clone();
        apply_all(Noise::Noiseless, &mut bits, None, &mut rng);
        assert_eq!(bits, before);
        assert_eq!(Noise::Noiseless.epsilon(), 0.0);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1/2)")]
    fn epsilon_zero_rejected() {
        let _ = Noise::bernoulli(0.0);
    }

    #[test]
    #[should_panic(expected = "outside (0, 1/2)")]
    fn epsilon_half_rejected() {
        let _ = Noise::bernoulli(0.5);
    }

    #[test]
    fn try_bernoulli_validates_without_panicking() {
        assert_eq!(Noise::try_bernoulli(0.25), Ok(Noise::Bernoulli(0.25)));
        for bad in [0.0, 0.5, 1.0, -0.1, f64::NAN] {
            let err = Noise::try_bernoulli(bad).unwrap_err();
            assert!(matches!(err, NetError::InvalidNoise { .. }), "ε = {bad}");
        }
    }

    #[test]
    fn rates_below_the_draw_resolution_flip_nothing() {
        // For ε ≤ 2⁻⁵⁴, 1 − ε rounds to 1 and ln(1 − ε) = 0: the gap used
        // to come out −∞ (or NaN), cast to 0, and flip every bit.
        for eps in [1e-17, 2f64.powi(-54), f64::MIN_POSITIVE] {
            let noise = Noise::try_bernoulli(eps).unwrap();
            let mut bits = BitVec::zeros(10_240);
            apply_all(noise, &mut bits, None, &mut StdRng::seed_from_u64(1));
            assert_eq!(bits.count_ones(), 0, "eps = {eps}");
            let sampler = FlipSampler::new(eps, 4096);
            assert!(sampler.step_points().is_empty());
            assert_eq!(sampler.gap(0, 64), 64);
            assert_eq!(sampler.gap(DRAW_MAX, 64), 64);
        }
        // The first rate above the cutoff resolves: its gaps are finite.
        let sampler = FlipSampler::new(2f64.powi(-53), 64);
        assert_eq!(sampler.step_points().len(), 64);
        assert_eq!(sampler.gap(0, 64), 0);
    }

    #[test]
    fn batched_flip_rate_matches_epsilon() {
        // Statistical contract of the geometric-skip sampler: the per-bit
        // flip marginal is ε, within binomial tolerance.
        let mut rng = StdRng::seed_from_u64(4);
        for eps in [0.05, 0.2, 0.45] {
            let noise = Noise::bernoulli(eps);
            assert_eq!(noise.epsilon(), eps);
            let n = 40_000;
            let mut bits = BitVec::zeros(n);
            apply_all(noise, &mut bits, None, &mut rng);
            let rate = bits.count_ones() as f64 / n as f64;
            let sigma = (eps * (1.0 - eps) / n as f64).sqrt();
            assert!(
                (rate - eps).abs() < 5.0 * sigma,
                "ε = {eps}: measured {rate}"
            );
        }
    }

    #[test]
    fn batched_flips_are_symmetric_across_bit_values() {
        // A received 1 is lost at the same rate a 0 turns into a phantom.
        let mut rng = StdRng::seed_from_u64(3);
        let noise = Noise::bernoulli(0.3);
        let n = 20_000;
        let mut zeros = BitVec::zeros(n);
        let mut ones = BitVec::ones(n);
        apply_all(noise, &mut zeros, None, &mut rng);
        apply_all(noise, &mut ones, None, &mut rng);
        let zeros_flipped = zeros.count_ones() as i64;
        let ones_flipped = ones.count_zeros() as i64;
        let diff = (zeros_flipped - ones_flipped).abs();
        assert!(diff < 600, "asymmetry {zeros_flipped} vs {ones_flipped}");
    }

    #[test]
    fn batched_flips_are_position_uniform() {
        // Every position must be flippable — guards against off-by-one in
        // the gap arithmetic (first and last bit included).
        let mut rng = StdRng::seed_from_u64(5);
        let noise = Noise::bernoulli(0.3);
        let n = 64;
        let mut seen = vec![0usize; n];
        for _ in 0..2_000 {
            let mut bits = BitVec::zeros(n);
            apply_all(noise, &mut bits, None, &mut rng);
            for i in bits.iter_ones() {
                seen[i] += 1;
            }
        }
        assert!(
            seen.iter().all(|&c| c > 0),
            "positions never flipped: {:?}",
            seen.iter().enumerate().filter(|(_, &c)| c == 0).count()
        );
        // First and last position flip at rate ≈ ε like any other.
        for &edge in &[0, n - 1] {
            let rate = seen[edge] as f64 / 2_000.0;
            assert!((rate - 0.3).abs() < 0.06, "position {edge}: rate {rate}");
        }
    }

    #[test]
    fn protected_positions_never_flip() {
        let mut rng = StdRng::seed_from_u64(6);
        let noise = Noise::bernoulli(0.45);
        let n = 500;
        let protect = BitVec::from_fn(n, |i| i % 3 == 0);
        let mut bits = BitVec::zeros(n);
        for _ in 0..50 {
            apply_all(noise, &mut bits, Some(&protect), &mut rng);
            assert!(!bits.intersects(&protect), "a protected bit flipped");
            bits.clear();
        }
    }

    #[test]
    fn stream_seed_separates_round_and_shard() {
        // The swapped-pair collision a plain XOR would have: (round, shard)
        // and (shard, round) must key different streams.
        assert_ne!(noise_stream_seed(7, 1, 3), noise_stream_seed(7, 3, 1));
        assert_ne!(noise_stream_seed(7, 0, 1), noise_stream_seed(7, 1, 0));
        // And the key is a pure function of its inputs.
        assert_eq!(noise_stream_seed(7, 2, 5), noise_stream_seed(7, 2, 5));
    }

    #[test]
    fn flip_pass_stays_inside_its_range() {
        // Flips land only in [lo, hi) even though the slice has headroom.
        let sampler = FlipSampler::new(0.45, 76);
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..200 {
            let mut bits = BitVec::zeros(256);
            let (lo, hi) = (64, 140);
            let words = &mut bits.as_words_mut()[lo / 64..];
            sampler.apply(words, lo, hi, None, &mut rng);
            for i in bits.iter_ones() {
                assert!((lo..hi).contains(&i), "flip at {i} escaped {lo}..{hi}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "not word-aligned")]
    fn flip_pass_rejects_unaligned_start() {
        let mut words = [0u64; 2];
        let mut rng = StdRng::seed_from_u64(10);
        FlipSampler::new(0.1, 61).apply(&mut words, 3, 64, None, &mut rng);
    }
}
