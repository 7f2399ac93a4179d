#![warn(missing_docs)]

//! Experiment harness for the `noisy-beeps` reproduction.
//!
//! One function per experiment table, each returning a printable
//! [`Table`] whose rows regenerate the corresponding quantitative claim of
//! the paper. The `tables` binary prints them; its output is the reference
//! output of every table:
//!
//! ```sh
//! cargo run --release -p beep-bench --bin tables -- all
//! cargo run --release -p beep-bench --bin tables -- e5
//! ```
//!
//! Wall-clock performance lives in two places. The end-to-end benchmark
//! (`perfbench/`, its own package) times Algorithm 1, the TDMA baseline
//! and a fault-tolerant campaign; every performance claim rests on it. The
//! one bench target, `e8_engine` (`cargo bench`, a plain program timed
//! with `Instant`), times the round engine beneath: the scalar against
//! the bitset round and the frame path against round-by-round driving. It
//! writes the machine-readable `BENCH_e8.json` metrics file (see
//! [`perfjson`]), which CI's perf bars parse and CI uploads as an
//! artifact.
//!
//! Scenario sweeps are driven by the `campaign` binary (a thin CLI over
//! `beep-scenarios`):
//!
//! ```sh
//! cargo run --release -p beep-bench --bin campaign -- --spec scenarios/smoke.toml
//! ```

pub mod experiments;
pub mod perfjson;
mod table;

pub use table::Table;

use std::io::{ErrorKind, Write};

/// Writes `text` to standard output: the one print path of the `tables`
/// and `campaign` binaries. A closed stdout (the reader of `… | head` has
/// gone) ends nothing: the text is dropped and the program carries on, so
/// it still writes its files and exits with the status it would have had.
/// Any other write error exits with status 2.
pub fn print_stdout(text: &str) {
    let mut out = std::io::stdout().lock();
    match out.write_all(text.as_bytes()).and_then(|()| out.flush()) {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => {
            eprintln!("cannot write to stdout: {e}");
            std::process::exit(2);
        }
        _ => {}
    }
}
