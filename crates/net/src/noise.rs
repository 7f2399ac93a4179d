//! The noisy beeping channel (Ashkenazi, Gelles & Leshem).

use crate::error::NetError;
use beep_bits::BitVec;
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

/// Derives the seed of the noise RNG stream for one `(seed, round, shard)`
/// cell — the determinism contract of the sharded round engine.
///
/// Every noisy round, in every round kernel, draws its channel flips from
/// `StdRng::seed_from_u64(noise_stream_seed(seed, round, shard))`, one
/// independent stream per shard per round. Because the stream is keyed by
/// *position* rather than threaded through one sequential RNG, the noisy
/// transcript depends only on `(graph, noise, seed, actions, shard_count)`
/// — never on how many threads computed it, nor on their scheduling.
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
/// use beep_net::Noise;
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let mut rng = StdRng::seed_from_u64(1);
/// // ε ∈ (0, ½) flips each bit independently with probability ε.
/// let noisy = Noise::bernoulli(0.25);
/// assert_eq!(noisy.epsilon(), 0.25);
/// let mut words = vec![0u64; 160];
/// noisy.apply_to_words(&mut words, 0, 10_240, None, &mut rng);
/// let flips: u32 = words.iter().map(|w| w.count_ones()).sum();
/// assert!((2_000..3_000).contains(&flips));
/// // The noiseless channel is the identity.
/// Noise::Noiseless.apply_to_words(&mut words, 0, 10_240, None, &mut rng);
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

    /// Passes the received bits at *global* positions `lo..hi` (with `lo`
    /// word-aligned) through the channel: each bit inside `words`, whose
    /// first word holds bits `lo..lo + 64`, is flipped independently with
    /// probability `ε`, except at positions set in `protect` (indexed by
    /// global position; the engine passes the beeper set there when
    /// self-hearing is configured noise-free).
    ///
    /// Instead of one Bernoulli draw per bit, flip positions are generated
    /// by geometric gap sampling (inversion of the geometric CDF), so `n`
    /// bits cost `O(ε·n + 1)` RNG draws — the batching that makes the
    /// noisy channel as cheap as the noiseless one at simulation scale.
    /// The per-bit marginal is exactly `Bernoulli(ε)` and flips stay
    /// i.i.d.
    ///
    /// This is the form the sharded round engine uses: each shard owns a
    /// disjoint word range of the received frame and passes it here with
    /// its own counter-keyed RNG stream (see [`noise_stream_seed`]), so
    /// channel noise is identical no matter how many threads ran the round.
    ///
    /// # Panics
    ///
    /// Panics if `lo` is not a multiple of 64, or if `hi - lo` exceeds the
    /// bit capacity of `words`.
    pub fn apply_to_words<R: Rng + ?Sized>(
        &self,
        words: &mut [u64],
        lo: usize,
        hi: usize,
        protect: Option<&BitVec>,
        rng: &mut R,
    ) {
        let Noise::Bernoulli(e) = *self else {
            return;
        };
        assert!(lo.is_multiple_of(64), "shard start {lo} not word-aligned");
        assert!(
            hi.saturating_sub(lo) <= words.len() * 64,
            "range {lo}..{hi} exceeds {} words",
            words.len()
        );
        // gap = ⌊ln(1−U)/ln(1−ε)⌋ is Geometric(ε) on {0, 1, 2, …}: the
        // number of unflipped bits before the next flip.
        let denom = (1.0 - e).ln();
        let mut i = lo;
        while i < hi {
            let u: f64 = rng.random();
            let gap = (1.0 - u).ln() / denom;
            if gap >= (hi - i) as f64 {
                break;
            }
            i += gap as usize;
            if !protect.is_some_and(|p| p.get(i)) {
                words[(i - lo) / 64] ^= 1u64 << (i % 64);
            }
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Passes a whole bit string through the channel.
    fn apply_all(noise: Noise, bits: &mut BitVec, protect: Option<&BitVec>, rng: &mut StdRng) {
        let hi = bits.len();
        noise.apply_to_words(bits.as_words_mut(), 0, hi, protect, rng);
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
    fn apply_to_words_stays_inside_its_range() {
        // Flips land only in [lo, hi) even though the slice has headroom.
        let noise = Noise::bernoulli(0.45);
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..200 {
            let mut bits = BitVec::zeros(256);
            let (lo, hi) = (64, 140);
            let words = &mut bits.as_words_mut()[lo / 64..];
            noise.apply_to_words(words, lo, hi, None, &mut rng);
            for i in bits.iter_ones() {
                assert!((lo..hi).contains(&i), "flip at {i} escaped {lo}..{hi}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "not word-aligned")]
    fn apply_to_words_rejects_unaligned_start() {
        let mut words = [0u64; 2];
        let mut rng = StdRng::seed_from_u64(10);
        Noise::bernoulli(0.1).apply_to_words(&mut words, 3, 64, None, &mut rng);
    }
}
