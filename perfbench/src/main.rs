//! End-to-end benchmark of the noisy-beeps workspace.
//!
//! ```text
//! perfbench --workload <alg1_matching|tdma_flood|ft_campaign> --seed <n>
//!           --seconds <s> --trace <0|1>
//! perfbench --round-split <n,n,...> [--seed <n>]
//! ```
//!
//! A run builds its inputs from the seed, repeats the workload's op for
//! the given seconds, checks every output, and prints the run metadata,
//! a simulation fingerprint, the metrics by name and unit, and — as the
//! last line — one JSON object `{correct, attempted, failed, metrics}`.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs the
//! traced driver and reports the per-layer metrics instead.
//! `--round-split` times single all-transmitting Algorithm 1 rounds and
//! splits them into engine and decoder time. See README.md next to this
//! crate.

mod alg1;
mod campaign;
mod drive;
mod host;
mod meta;
mod replay;
mod report;
mod stats;
mod tdma;

use report::Metric;
use std::process::ExitCode;
use std::time::Instant;

/// What a workload run hands back to be printed.
pub struct Output {
    /// Every output check passed.
    pub correct: bool,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// The metrics of the result line.
    pub metrics: Vec<Metric>,
    /// Lines printed before the result line.
    pub lines: Vec<String>,
}

/// The benchmark's workloads, by name.
const WORKLOADS: [&str; 3] = ["alg1_matching", "tdma_flood", "ft_campaign"];

/// Timed repetitions made even when one takes longer than the run.
pub const MIN_REPS: usize = 1;

/// Set-up draws one burst of a [`SetupClock`] cycles through.
pub const SETUP_DRAWS: u64 = 4;

/// Least seconds of one burst of a [`SetupClock`]: a set-up of
/// microseconds is repeated until caches and clocks are warm.
pub const SETUP_BURST_SECONDS: f64 = 0.02;

/// Stream tag of the set-up draws.
const SETUP_STREAM: u64 = 0x5E7_0000;

/// Derives an independent 64-bit stream seed from the workload seed
/// (SplitMix64 finalizer over `seed ⊕ tag`).
pub fn derive(seed: u64, tag: u64) -> u64 {
    let mut z =
        (seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Times a workload's set-up, in bursts spread over the run.
///
/// The host's speed drifts within seconds, so a set-up of milliseconds
/// timed only at the start of a run carries whatever state the host was
/// in then. A burst of set-ups after every timed repetition samples the
/// host over the whole run, as the op timings do.
///
/// The run's own inputs are built once, untimed. Every burst builds the
/// same [`SETUP_DRAWS`] draws — inputs of seeds derived from the run's
/// seed — in whole cycles, so bursts differ only in how fast the host
/// ran them. How long one set-up takes depends on its draw (a random
/// regular graph is regenerated until it is simple), so a burst's mean
/// over several draws is the workload's set-up time, not one seed's luck.
pub struct SetupClock<F> {
    seed: u64,
    setup: F,
    /// Seconds per set-up, the mean of each burst, rescaled.
    pub times: Vec<f64>,
}

impl<T, F: FnMut(u64) -> T> SetupClock<F> {
    /// A clock for `setup(seed)`, which builds one draw's inputs.
    pub fn new(seed: u64, setup: F) -> Self {
        SetupClock {
            seed,
            setup,
            times: Vec::new(),
        }
    }

    /// Builds the run's own inputs.
    pub fn inputs(&mut self) -> T {
        (self.setup)(self.seed)
    }

    /// Times one burst: whole cycles of the draws until at least
    /// [`SETUP_BURST_SECONDS`] have passed, as one sample multiplied by
    /// `scale` (see [`host::Reference::scale`]). Each result is
    /// dropped only after the next one is built: freeing the inputs right
    /// before rebuilding them lets the allocator hand memory back and
    /// fault it in again on some repetitions and not others.
    pub fn burst(&mut self, scale: f64) {
        let started = Instant::now();
        let mut last = None;
        for rep in 1.. {
            let draw = rep % SETUP_DRAWS;
            let seed = derive(self.seed, SETUP_STREAM.wrapping_add(draw));
            drop(last.replace(std::hint::black_box((self.setup)(seed))));
            let seconds = started.elapsed().as_secs_f64();
            if draw == 0 && seconds >= SETUP_BURST_SECONDS {
                self.times.push(seconds / rep as f64 * scale);
                break;
            }
        }
    }
}

/// Whether a run that started at `started` and made `reps` repetitions
/// has measured long enough.
pub fn done(started: Instant, reps: usize, seconds: f64) -> bool {
    reps >= MIN_REPS && started.elapsed().as_secs_f64() >= seconds
}

/// Whether an untraced run that started at `started` and timed the
/// repetitions `reps` (wall seconds) should stop: once less than half a
/// repetition of its seconds remains, so that a run overruns by half a
/// repetition on average instead of a whole one.
pub fn enough(started: Instant, reps: &[f64], seconds: f64) -> bool {
    let mean = reps.iter().sum::<f64>() / reps.len().max(1) as f64;
    reps.len() >= MIN_REPS && started.elapsed().as_secs_f64() + mean / 2.0 >= seconds
}

/// FNV-1a, for fingerprints.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    round_split: Option<Vec<usize>>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        round_split: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = number(&value)?,
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s > 0.0)
                    .ok_or_else(|| format!("--seconds {value}: not a positive number"))?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                }
            }
            "--round-split" => {
                let sizes: Result<Vec<usize>, _> = value.split(',').map(str::parse).collect();
                args.round_split = Some(sizes.map_err(|e| format!("--round-split {value}: {e}"))?);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.round_split.is_none() && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, got {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(sizes) = &args.round_split {
        return match alg1::round_split(sizes, args.seed) {
            Ok(lines) => {
                lines.iter().for_each(|l| println!("{l}"));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    println!(
        "{}",
        meta::line(&args.workload, args.seed, args.seconds, args.trace)
    );
    let result = match (args.workload.as_str(), args.trace) {
        ("alg1_matching", false) => drive::run::<alg1::Alg1Matching>(args.seed, args.seconds),
        ("tdma_flood", false) => drive::run::<tdma::TdmaFlood>(args.seed, args.seconds),
        (_, false) => campaign::run(args.seed, args.seconds),
        ("alg1_matching", true) => drive::trace::<alg1::Alg1Matching>(args.seed, args.seconds),
        ("tdma_flood", true) => drive::trace::<tdma::TdmaFlood>(args.seed, args.seconds),
        (_, true) => campaign::trace(args.seed, args.seconds),
    };
    let out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    out.lines.iter().for_each(|l| println!("{l}"));
    println!(
        "{}",
        report::result_line(out.correct, out.attempted, out.failed, &out.metrics)
    );
    if out.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!("perfbench: an output check failed");
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_clock_bursts_repeat_the_same_draws_in_whole_cycles() {
        let seeds = std::cell::RefCell::new(Vec::new());
        let mut clock = SetupClock::new(7, |s| {
            seeds.borrow_mut().push(s);
            s
        });
        assert_eq!(clock.inputs(), 7);
        clock.burst(1.0);
        let first = seeds.borrow().len();
        clock.burst(1.0);
        assert_eq!(clock.times.len(), 2);
        assert!(clock.times.iter().all(|&t| t > 0.0));
        let seeds = seeds.into_inner();
        let draws = SETUP_DRAWS as usize;
        assert_eq!((first - 1) % draws, 0);
        assert_eq!((seeds.len() - 1) % draws, 0);
        let mut distinct = seeds[1..].to_vec();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), draws);
        assert!(!distinct.contains(&7));
        assert_eq!(seeds[1..=draws], seeds[first..first + draws]);
    }

    #[test]
    fn derived_streams_differ_by_seed_and_tag() {
        assert_eq!(derive(1, 2), derive(1, 2));
        assert_ne!(derive(1, 2), derive(2, 2));
        assert_ne!(derive(1, 2), derive(1, 3));
    }
}
