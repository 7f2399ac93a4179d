//! Prints the experiment tables; its output is their reference output.
//!
//! ```sh
//! cargo run --release -p beep-bench --bin tables -- all
//! cargo run --release -p beep-bench --bin tables -- e5 e7
//! cargo run --release -p beep-bench --bin tables -- e3 --seed 7
//! ```

use beep_bench::{experiments, print_stdout};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut seed = 2023; // the paper's year, for reproducible defaults
    let mut names: Vec<String> = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == "--seed" {
            seed = iter
                .next()
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| die("--seed needs an integer"));
        } else {
            names.push(arg.clone());
        }
    }
    if names.is_empty() {
        names.push("all".into());
    }
    for name in &names {
        match experiments::by_name(name, seed) {
            Some(tables) => {
                for table in tables {
                    print_stdout(&format!("{table}\n"));
                }
            }
            None => die(&format!(
                "unknown experiment {name:?}; expected e1..e11 or all"
            )),
        }
    }
}

fn die(msg: &str) -> ! {
    eprintln!("tables: {msg}");
    std::process::exit(2);
}
