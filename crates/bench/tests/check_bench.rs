//! The `check_bench` binary behind CI's structural perf bars. Each test
//! runs it on a temporary `BENCH_*.json` file of its own and checks the
//! exit code: 0 pass, 1 bar missed, 2 usage or schema error.

use beep_bench::perfjson::metrics_json;
use std::path::{Path, PathBuf};
use std::process::Command;

/// Writes `text` to a temporary file named after `name`.
fn temp_file(name: &str, text: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!(
        "beep-check-bench-{}-{name}.json",
        std::process::id()
    ));
    std::fs::write(&path, text).expect("the temp dir is writable");
    path
}

/// Writes a `beep-bench-metrics` file carrying `metrics`.
fn bench_file(name: &str, metrics: &[(&str, f64)]) -> PathBuf {
    let metrics: Vec<(String, f64)> = metrics.iter().map(|&(k, v)| (k.to_string(), v)).collect();
    temp_file(name, &metrics_json("e8", &metrics).to_pretty())
}

/// Runs `check_bench FILE ARGS…` and returns its exit code.
fn exit_code(file: &Path, args: &[&str]) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_check_bench"))
        .arg(file)
        .args(args)
        .output()
        .expect("check_bench starts")
        .status
        .code()
}

#[test]
fn a_met_floor_exits_0_and_a_missed_floor_exits_1() {
    let file = bench_file("floor", &[("speedup_n100000", 6.0)]);
    for (min, code) in [("5", 0), ("6", 0), ("7", 1)] {
        let args = ["--key", "speedup_n100000", "--min", min];
        assert_eq!(exit_code(&file, &args), Some(code), "--min {min}");
    }
    std::fs::remove_file(file).expect("the file is removable");
}

#[test]
fn min_cores_waives_a_miss_measured_on_fewer_cores() {
    let file = bench_file("cores", &[("speedup_n1000000", 1.0), ("cores", 1.0)]);
    let bar = ["--key", "speedup_n1000000", "--min", "2"];
    let waived = [&bar[..], &["--min-cores", "4"]].concat();
    assert_eq!(exit_code(&file, &waived), Some(0));
    assert_eq!(exit_code(&file, &bar), Some(1));
    std::fs::remove_file(file).expect("the file is removable");
}

#[test]
fn usage_and_schema_errors_exit_2() {
    let file = bench_file("errors", &[("models", 4.0)]);
    let bar = ["--key", "models", "--min", "4"];
    assert_eq!(exit_code(&file, &bar), Some(0));
    assert_eq!(exit_code(&file, &["--key", "kinds", "--min", "3"]), Some(2));
    assert_eq!(exit_code(&file, &["--key", "models"]), Some(2));
    // Flags of the retired cross-run comparison are unknown arguments.
    for removed in [["--tolerance", "0.4"], ["--commit", "abc1234"]] {
        let args = [&bar[..], &removed[..]].concat();
        assert_eq!(exit_code(&file, &args), Some(2), "{removed:?}");
    }
    std::fs::remove_file(file).expect("the file is removable");

    let wrong = temp_file(
        "wrong-schema",
        r#"{"schema": "other", "version": 1, "bench": "e8", "metrics": {"models": 4.0}}"#,
    );
    assert_eq!(exit_code(&wrong, &bar), Some(2));
    std::fs::remove_file(wrong).expect("the file is removable");
}
