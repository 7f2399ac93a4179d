#![warn(missing_docs)]

//! Experiment harness for the `noisy-beeps` reproduction.
//!
//! One function per experiment in DESIGN.md §5 / EXPERIMENTS.md, each
//! returning a printable [`Table`] whose rows regenerate the corresponding
//! quantitative claim of the paper. The `tables` binary prints them:
//!
//! ```sh
//! cargo run --release -p beep-bench --bin tables -- all
//! cargo run --release -p beep-bench --bin tables -- e5
//! ```
//!
//! Wall-clock performance (encode/decode/simulation throughput) lives in
//! the Criterion benches (`cargo bench`); the engine benches additionally
//! emit machine-readable `BENCH_*.json` metric files (see [`perfjson`])
//! that CI's perf bars parse and archives as the perf trajectory.
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
pub mod trajectory;

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
