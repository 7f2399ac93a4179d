//! Machine-readable bench metrics (`beep-bench-metrics`, version 1).
//!
//! The `e8_engine` bench prints human-oriented lines *and* writes a small
//! JSON metrics file, `BENCH_e8.json`, that CI's perf bars parse (the
//! `check_bench` binary) instead of grepping the text, and that CI
//! uploads as a workflow artifact, the record of each run's throughput.
//!
//! Schema:
//!
//! ```json
//! {
//!   "schema": "beep-bench-metrics",
//!   "version": 1,
//!   "bench": "e8_engine",
//!   "metrics": { "speedup_n100000": 210.5, … }
//! }
//! ```
//!
//! Files land in `$BENCH_JSON_DIR` (default `target/bench-json`).

use beep_scenarios::json::Json;
use std::path::PathBuf;

/// Schema identifier of a bench metrics file.
pub const SCHEMA_NAME: &str = "beep-bench-metrics";
/// Current schema version.
pub const SCHEMA_VERSION: i64 = 1;

/// The output directory: `$BENCH_JSON_DIR`, defaulting to the
/// workspace-root `target/bench-json` (cargo runs benches with the
/// *package* directory as CWD, so a relative default would scatter the
/// files).
#[must_use]
pub fn output_dir() -> PathBuf {
    std::env::var_os("BENCH_JSON_DIR").map_or_else(
        || {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("..")
                .join("..")
                .join("target")
                .join("bench-json")
        },
        PathBuf::from,
    )
}

/// Serializes a metrics map to the schema above.
#[must_use]
pub fn metrics_json(bench: &str, metrics: &[(String, f64)]) -> Json {
    Json::obj(vec![
        ("schema", Json::Str(SCHEMA_NAME.into())),
        ("version", Json::Int(SCHEMA_VERSION)),
        ("bench", Json::Str(bench.into())),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Float(*v)))
                    .collect(),
            ),
        ),
    ])
}

/// Writes `BENCH_{bench}.json` into [`output_dir`], returning the path.
///
/// # Errors
///
/// Propagates filesystem errors (missing permissions, full disk, …).
pub fn write_bench_json(bench: &str, metrics: &[(String, f64)]) -> std::io::Result<PathBuf> {
    let dir = output_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("BENCH_{bench}.json"));
    std::fs::write(&path, metrics_json(bench, metrics).to_pretty())?;
    Ok(path)
}

/// Reads a metrics file back, validating schema and version.
///
/// # Errors
///
/// Returns a human-readable message on IO, parse, or schema failures.
pub fn read_bench_json(path: &std::path::Path) -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    match json.get("schema").and_then(Json::as_str) {
        Some(s) if s == SCHEMA_NAME => {}
        other => {
            return Err(format!(
                "{}: schema is {other:?}, expected {SCHEMA_NAME:?}",
                path.display()
            ))
        }
    }
    match json.get("version").and_then(Json::as_i64) {
        Some(v) if v == SCHEMA_VERSION => {}
        other => {
            return Err(format!(
                "{}: version is {other:?}, expected {SCHEMA_VERSION}",
                path.display()
            ))
        }
    }
    json.get("bench")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{}: missing bench id", path.display()))?;
    let metrics = json
        .get("metrics")
        .ok_or_else(|| format!("{}: missing metrics object", path.display()))?;
    match metrics {
        Json::Obj(pairs) => pairs
            .iter()
            .map(|(k, v)| {
                v.as_f64()
                    .map(|x| (k.clone(), x))
                    .ok_or_else(|| format!("{}: metric {k:?} is not a number", path.display()))
            })
            .collect(),
        _ => Err(format!("{}: metrics is not an object", path.display())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_round_trip_through_the_schema() {
        let metrics = vec![("speedup_n100000".to_string(), 42.5), ("cores".into(), 8.0)];
        let json = metrics_json("e8_engine", &metrics);
        assert_eq!(json.get("schema").unwrap().as_str(), Some(SCHEMA_NAME));
        let dir = std::env::temp_dir().join("beep-bench-perfjson-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        std::fs::write(&path, json.to_pretty()).unwrap();
        let back = read_bench_json(&path).unwrap();
        assert_eq!(back, metrics);
    }

    #[test]
    fn wrong_schema_is_rejected() {
        let dir = std::env::temp_dir().join("beep-bench-perfjson-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_bad.json");
        std::fs::write(&path, "{\"schema\": \"other\", \"version\": 1}").unwrap();
        assert!(read_bench_json(&path).unwrap_err().contains("schema"));
    }
}
