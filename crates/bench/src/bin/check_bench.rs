//! Enforces one CI perf bar: a named metric of a `BENCH_*.json` metrics
//! file (see `beep_bench::perfjson`) must reach a floor.
//!
//! ```sh
//! check_bench target/bench-json/BENCH_e8.json --key speedup_n100000 --min 5
//! check_bench target/bench-json/BENCH_e9.json --key speedup_n1000000 --min 2 --min-cores 4
//! ```
//!
//! `--min-cores N` scopes the bar to measurements taken with ≥ N cores
//! (thread speedups don't exist where threads don't): the core count is
//! read from the file's own `cores` metric when the bench recorded one (so
//! the waiver travels with the measurement), falling back to this
//! process's core count. Below the threshold the metric must still
//! *exist* — the bench ran — but its value is not enforced.
//!
//! Exit codes: 0 pass, 1 bar missed, 2 usage or schema error (a missing
//! key included).

use beep_bench::perfjson::read_bench_json;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<String> = None;
    let mut key: Option<String> = None;
    let mut min: Option<f64> = None;
    let mut min_cores = 0usize;

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut take = |what: &str| -> String {
            iter.next()
                .cloned()
                .unwrap_or_else(|| die(&format!("{what} needs a value")))
        };
        match arg.as_str() {
            "--key" => key = Some(take("--key")),
            "--min" => {
                min = Some(
                    take("--min")
                        .parse()
                        .unwrap_or_else(|_| die("--min needs a number")),
                );
            }
            "--min-cores" => {
                min_cores = take("--min-cores")
                    .parse()
                    .unwrap_or_else(|_| die("--min-cores needs an integer"));
            }
            other if !other.starts_with('-') && path.is_none() => path = Some(other.to_string()),
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    let (Some(path), Some(key), Some(min)) = (path, key, min) else {
        die("usage: check_bench <json> --key K --min X [--min-cores N]")
    };

    let metrics = read_bench_json(std::path::Path::new(&path)).unwrap_or_else(|e| die(&e));
    let metric = |name: &str| metrics.iter().find(|(k, _)| k == name).map(|(_, v)| *v);
    let value = metric(&key).unwrap_or_else(|| {
        die(&format!(
            "{path}: no metric {key} (have: {})",
            metrics
                .iter()
                .map(|(k, _)| k.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        ))
    });
    // The machine that *measured* decides the waiver: prefer the "cores"
    // metric recorded in the file (the e9 bench writes it) so a file
    // produced on a small box doesn't spuriously fail the bar when checked
    // on a bigger one.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let cores = metric("cores").map_or_else(
        || std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        |v| v as usize,
    );
    if cores < min_cores {
        println!(
            "{path}: {key} = {value} (bar ≥ {min} waived: {cores} cores < {min_cores} required)"
        );
    } else if value >= min {
        println!("{path}: {key} = {value} ≥ {min}: ok");
    } else {
        eprintln!("{path}: {key} = {value} below the required {min}");
        std::process::exit(1);
    }
}

fn die(msg: &str) -> ! {
    eprintln!("check_bench: {msg}");
    std::process::exit(2);
}
