//! Exactness of the noise channel's step-point table.
//!
//! [`FlipSampler`] answers most draws from a table of the gap function's
//! step points instead of evaluating `⌊ln(1 − x·2⁻⁵³) / ln(1 − ε)⌋`. These
//! tests hold it to the definition: around every step point, where a
//! platform `ln` could disagree with a monotone table, every draw must get
//! the expression's gap; random shards must come out with the same words
//! and the same RNG state as the sampling loop the table replaced, kept
//! here verbatim; and the table must stay within its memory bound.

use beep_bits::BitVec;
use beep_net::FlipSampler;
use rand::rngs::StdRng;
use rand::{Rng, RngExt, SeedableRng};

/// The rates every test runs at, from far below a 4096-bit table's reach
/// to just under ½.
const RATES: [f64; 10] = [1e-9, 1e-5, 0.001, 0.01, 0.05, 0.1, 0.25, 0.4, 0.45, 0.4999];

/// The largest 53-bit draw.
const DRAW_MAX: u64 = (1 << 53) - 1;

/// The stream's gap function, written out: the gap of the draw whose top
/// 53 bits are `x`.
fn reference_gap(eps: f64, x: u64) -> usize {
    let u = x as f64 * (1.0 / (1u64 << 53) as f64);
    ((1.0 - u).ln() / (1.0 - eps).ln()) as usize
}

/// The geometric-skip loop as it stood before the step-point table,
/// verbatim: one `ln` and one division per draw.
fn reference_apply<R: Rng + ?Sized>(
    e: f64,
    words: &mut [u64],
    lo: usize,
    hi: usize,
    protect: Option<&BitVec>,
    rng: &mut R,
) {
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

/// An RNG that counts the words drawn from it.
struct Counted<'a> {
    rng: &'a mut StdRng,
    draws: usize,
}

impl Rng for Counted<'_> {
    fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        self.rng.next_u64()
    }
}

#[test]
fn table_matches_the_gap_function_around_every_step_point() {
    let band = 2 * FlipSampler::GUARD_BAND;
    for eps in RATES {
        let sampler = FlipSampler::new(eps, 4096);
        let steps = sampler.step_points();
        assert!(!steps.is_empty(), "eps={eps}: no step points");
        for (j, &t) in steps.iter().enumerate() {
            // t is the least draw whose gap reaches j + 1.
            let k = j + 1;
            assert!(reference_gap(eps, t) >= k, "eps={eps}: t_{k} = {t}");
            assert!(t == 0 || reference_gap(eps, t - 1) < k, "eps={eps}: t_{k}");
            for x in t.saturating_sub(band)..=(t + band).min(DRAW_MAX) {
                let want = reference_gap(eps, x);
                assert_eq!(sampler.gap(x, usize::MAX), want, "eps={eps} x={x}");
                assert_eq!(sampler.gap(x, 4096), want.min(4096), "eps={eps} x={x}");
            }
        }
    }
}

#[test]
fn sampler_reproduces_the_pre_table_loop_draw_for_draw() {
    const WIDTHS: [usize; 7] = [1, 63, 64, 65, 512, 4096, 70_000];
    // Tables built for narrower shards than they serve answer fewer draws
    // and must still give the same flips.
    const TABLE_WIDTHS: [usize; 3] = [64, 512, 4096];
    let mut setup = StdRng::seed_from_u64(0x6A9);
    let span: usize = 3 * 64 + 70_000;
    let initial: Vec<u64> = (0..span.div_ceil(64)).map(|_| setup.next_u64()).collect();
    let protect = BitVec::from_fn(span, |_| setup.random_bool(0.3));
    let mut want = initial.clone();
    let mut got = initial.clone();
    for eps in RATES {
        let samplers: Vec<FlipSampler> = TABLE_WIDTHS
            .iter()
            .map(|&w| FlipSampler::new(eps, w))
            .collect();
        let mut draws = 0;
        let mut shard = 0usize;
        while draws < 1_000_000 {
            let width = WIDTHS[shard % WIDTHS.len()];
            let lo = 64 * (shard % 4);
            let words = width.div_ceil(64);
            let guard = (shard / 2 % 2 == 1).then_some(&protect);
            let sampler = &samplers[shard % samplers.len()];
            want[..words].copy_from_slice(&initial[..words]);
            got[..words].copy_from_slice(&initial[..words]);
            let mut rng_want = StdRng::seed_from_u64(shard as u64 ^ eps.to_bits());
            let mut rng_got = rng_want.clone();
            let mut counted = Counted {
                rng: &mut rng_want,
                draws: 0,
            };
            reference_apply(eps, &mut want[..words], lo, lo + width, guard, &mut counted);
            draws += counted.draws;
            sampler.apply(&mut got[..words], lo, lo + width, guard, &mut rng_got);
            assert!(
                got[..words] == want[..words] && rng_got == rng_want,
                "eps={eps} shard={shard} width={width} lo={lo} protect={}",
                guard.is_some()
            );
            shard += 1;
        }
    }
}

#[test]
fn table_stays_within_its_memory_bound() {
    // The listed rates plus a log-spaced sweep down to the smallest rate a
    // 53-bit draw resolves.
    let sweep = (1..=48).map(|i| 0.5 * 0.46f64.powi(i));
    for eps in RATES.into_iter().chain(sweep) {
        for width in [1, 64, 512, 4096, 70_000] {
            let sampler = FlipSampler::new(eps, width);
            assert!(
                sampler.heap_bytes() <= 64 << 10,
                "eps={eps} width={width}: {} bytes",
                sampler.heap_bytes()
            );
            assert!(sampler.step_points().len() <= width.min(4096));
        }
    }
}
