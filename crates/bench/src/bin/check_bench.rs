//! Enforces one CI perf bar: a named metric of a `BENCH_*.json` metrics
//! file (see `beep_bench::perfjson`) must reach a floor.
//!
//! ```sh
//! check_bench target/bench-json/BENCH_e8.json --key speedup_n100000 --min 5
//! ```
//!
//! Exit codes: 0 pass, 1 bar missed, 2 usage or schema error (a missing
//! key included).

use beep_bench::perfjson::read_bench_json;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut path: Option<String> = None;
    let mut key: Option<String> = None;
    let mut min: Option<f64> = None;

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
            other if !other.starts_with('-') && path.is_none() => path = Some(other.to_string()),
            other => die(&format!("unknown argument {other:?}")),
        }
    }
    let (Some(path), Some(key), Some(min)) = (path, key, min) else {
        die("usage: check_bench <json> --key K --min X")
    };

    let metrics = read_bench_json(std::path::Path::new(&path)).unwrap_or_else(|e| die(&e));
    let value = metrics
        .iter()
        .find(|(k, _)| *k == key)
        .map(|(_, v)| *v)
        .unwrap_or_else(|| {
            die(&format!(
                "{path}: no metric {key} (have: {})",
                metrics
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
        });
    if value >= min {
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
