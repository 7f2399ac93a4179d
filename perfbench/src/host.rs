//! The host's speed, measured by a fixed reference loop.
//!
//! The benchmark runs on a few virtual cores of a shared host, whose
//! speed for the same work drifts by a fifth or more within minutes,
//! while almost no steal time is booked: the cores themselves run slower
//! while other guests load them. No statistic of a run's own timings
//! removes a drift that lasts the whole run. The reference loop, timed
//! right after every timed repetition on as many threads as the
//! repetition kept busy, slows with the host; every gated time is
//! rescaled by [`NOMINAL_S`] over the loop's time, i.e. to a host that
//! runs the loop in [`NOMINAL_S`].
//!
//! The loop never calls the workspace's code, so a change to the program
//! moves the workload's times and not the reference.

use std::hint::black_box;
use std::time::Instant;

/// Words of the loop's table (256 KiB): it stays in a core's own cache,
/// as the loop measures the core, not the shared cache or memory.
const WORDS: usize = 1 << 15;

/// Iterations of one reference measurement, about 50 ms on the 2-core
/// development host.
const ITERS: u64 = 4_000_000;

/// Seconds the loop takes on the nominal host (a round figure near the
/// development host's quiet-time reading).
pub const NOMINAL_S: f64 = 0.05;

/// The loop: pseudo-random reads and writes of the table on a dependency
/// chain, popcounts and branches no predictor learns — the integer, bit
/// and branch mix of the simulator and the decoders.
fn reference_loop(seed: u64) -> u64 {
    let mut table: Vec<u64> = (0..WORDS as u64).map(|i| crate::derive(seed, i)).collect();
    let mut x = seed | 1;
    let mut acc = 0u64;
    for _ in 0..ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = ((x ^ acc) as usize) & (WORDS - 1);
        let v = table[j];
        if (v ^ x) & 1 == 0 {
            table[j] = v.rotate_left(9) ^ acc;
        } else {
            acc = acc.wrapping_add(u64::from((v & x).count_ones()));
        }
    }
    acc ^ table[0]
}

/// Wall seconds of the loop, run on `threads` threads at once and
/// averaged over them.
fn loop_seconds(threads: usize) -> f64 {
    std::thread::scope(|s| {
        let runs: Vec<_> = (1..=threads as u64)
            .map(|k| {
                s.spawn(move || {
                    let t = Instant::now();
                    black_box(reference_loop(black_box(k)));
                    t.elapsed().as_secs_f64()
                })
            })
            .collect();
        let total: f64 = runs
            .into_iter()
            .map(|r| r.join().expect("the reference loop does not panic"))
            .sum();
        total / threads as f64
    })
}

/// Reference measurements on a fixed number of threads.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    threads: usize,
    /// Wall seconds of every measurement so far.
    pub seconds: Vec<f64>,
}

impl Reference {
    /// Measures on `threads` threads (at least one).
    pub fn new(threads: usize) -> Self {
        Reference {
            threads: threads.max(1),
            seconds: Vec::new(),
        }
    }

    /// Times the loop now and returns the factor that rescales a time
    /// just taken to the nominal host.
    pub fn scale(&mut self) -> f64 {
        let seconds = loop_seconds(self.threads);
        self.seconds.push(seconds);
        NOMINAL_S / seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_loop_is_deterministic_and_its_scale_positive() {
        assert_eq!(reference_loop(3), reference_loop(3));
        assert_ne!(reference_loop(3), reference_loop(4));
        let mut host = Reference::new(2);
        let scale = host.scale();
        assert!(scale.is_finite() && scale > 0.0, "scale {scale}");
        assert_eq!(host.seconds.len(), 1);
    }
}
