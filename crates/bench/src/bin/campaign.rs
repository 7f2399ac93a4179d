//! Runs (or validates) a scenario campaign: the CLI over `beep-scenarios`.
//! A campaign is always a spec file (the format is documented in
//! `beep_scenarios::CampaignSpec::parse`); `scenarios/` holds the
//! checked-in ones.
//!
//! ```sh
//! cargo run --release -p beep-bench --bin campaign -- \
//!     --spec scenarios/smoke.toml --out campaign_smoke.json
//!
//! # Checkpointed / resumable (re-run the same command to finish an
//! # interrupted campaign; the journal replays completed cells):
//! cargo run --release -p beep-bench --bin campaign -- \
//!     --spec scenarios/smoke.toml --checkpoint smoke.ck.jsonl \
//!     --out campaign_smoke.json
//!
//! # Validate an existing report against the schema (CI smoke); add
//! # --schema-version to print the version it was checked against:
//! cargo run --release -p beep-bench --bin campaign -- --check report.json --schema-version
//! ```
//!
//! The human table always prints to stdout (suppress with `--quiet`);
//! `--out` additionally writes the schema-versioned JSON report.
//! `--no-timing` strips the wall-clock fields, making the JSON a pure
//! function of the spec (the golden-fixture form). `--max-cells N`
//! (requires `--checkpoint`) stops after N cells — the deterministic
//! "interruption" the CI resume smoke uses. A closed stdout (`… | head`)
//! stops the printing only: the report is still written and the exit
//! status is unchanged (1 when cells failed, 0 otherwise).
//!
//! Conflicting flags are usage errors (exit 2), not silent drops:
//! `--check` takes no flags other than `--schema-version` (which in turn
//! requires `--check`), and a run needs `--spec`.

use beep_bench::print_stdout;
use beep_scenarios::json::Json;
use beep_scenarios::{
    run_campaign, run_campaign_resumable, validate_report, CampaignSpec, RunOptions,
};
use std::path::Path;

/// What the CLI was asked to do.
#[derive(Debug)]
enum Mode {
    /// `--check PATH`: schema-validate an existing report. With
    /// `--schema-version`, also print the version it was checked against.
    Check { path: String, schema_version: bool },
    /// `--spec PATH`: run a campaign.
    Run(RunConfig),
}

/// A validated run invocation.
#[derive(Debug)]
struct RunConfig {
    spec: String,
    out: Option<String>,
    threads: usize,
    include_timing: bool,
    quiet: bool,
    checkpoint: Option<String>,
    max_cells: Option<usize>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = parse_args(&args).unwrap_or_else(|e| die(&e));
    match mode {
        Mode::Check {
            path,
            schema_version,
        } => check(&path, schema_version),
        Mode::Run(config) => run(&config),
    }
}

/// Parses and cross-validates the argument list. Pure (no I/O, no
/// exits) so the conflict rules are unit-testable; `main` turns the
/// `Err` into a usage error (exit 2).
fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut spec: Option<String> = None;
    let mut check: Option<String> = None;
    let mut out: Option<String> = None;
    let mut threads = 0usize;
    let mut threads_set = false;
    let mut include_timing = true;
    let mut quiet = false;
    let mut checkpoint: Option<String> = None;
    let mut max_cells: Option<usize> = None;
    let mut schema_version = false;

    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut take = |what: &str| -> Result<String, String> {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{what} needs a value"))
        };
        match arg.as_str() {
            "--spec" => spec = Some(take("--spec")?),
            "--check" => check = Some(take("--check")?),
            "--schema-version" => schema_version = true,
            "--out" => out = Some(take("--out")?),
            "--threads" => {
                threads = parse_value(&take("--threads")?, "--threads")?;
                threads_set = true;
            }
            "--no-timing" => include_timing = false,
            "--quiet" => quiet = true,
            "--checkpoint" => checkpoint = Some(take("--checkpoint")?),
            "--max-cells" => max_cells = Some(parse_value(&take("--max-cells")?, "--max-cells")?),
            other => return Err(format!("unknown flag {other:?} (see the module docs)")),
        }
    }

    if let Some(path) = check {
        // `--check` validates an existing report; combining it with run
        // flags used to silently drop them — now it's a usage error.
        // `--schema-version` is the one compatible flag.
        let run_flags = spec.is_some()
            || out.is_some()
            || threads_set
            || !include_timing
            || quiet
            || checkpoint.is_some()
            || max_cells.is_some();
        if run_flags {
            return Err("--check validates an existing report and takes no flags \
                 other than --schema-version"
                .into());
        }
        return Ok(Mode::Check {
            path,
            schema_version,
        });
    }
    if schema_version {
        return Err("--schema-version asserts a report's schema and requires --check".into());
    }
    if max_cells.is_some() && checkpoint.is_none() {
        return Err("--max-cells stops a run early and requires --checkpoint \
                    (otherwise the partial progress is lost)"
            .into());
    }
    let spec = spec.ok_or("a run needs --spec FILE (or --check REPORT to validate one)")?;
    Ok(Mode::Run(RunConfig {
        spec,
        out,
        threads,
        include_timing,
        quiet,
        checkpoint,
        max_cells,
    }))
}

fn run(config: &RunConfig) {
    let path = &config.spec;
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    let spec = CampaignSpec::parse(&text).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    let options = RunOptions {
        threads: config.threads,
        max_cells: config.max_cells,
    };

    let report = if let Some(path) = &config.checkpoint {
        let outcome = run_campaign_resumable(&spec, &options, Path::new(path))
            .unwrap_or_else(|e| die(&format!("campaign failed: {e}")));
        if !config.quiet {
            print_stdout(&format!(
                "checkpoint {path}: {} cell(s) replayed, {} executed, {} total\n",
                outcome.replayed, outcome.executed, outcome.total
            ));
        }
        match outcome.report {
            Some(report) => report,
            None => {
                // A --max-cells cut: the journal holds the progress.
                // Intentional partial runs exit 0 so the CI resume
                // smoke can chain them.
                print_stdout(&format!(
                    "campaign partial: {}/{} cells done; re-run with --checkpoint {path} to finish\n",
                    outcome.replayed + outcome.executed,
                    outcome.total
                ));
                return;
            }
        }
    } else {
        run_campaign(&spec, &options).unwrap_or_else(|e| die(&format!("campaign failed: {e}")))
    };

    if !config.quiet {
        print_stdout(&report.render_table());
    }
    if let Some(path) = &config.out {
        let json = report.to_json(config.include_timing).to_pretty();
        std::fs::write(path, json).unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
        if !config.quiet {
            print_stdout(&format!("report written to {path}\n"));
        }
    }
    // A campaign where cells *failed* (as opposed to being skipped as
    // structurally inapplicable) exits nonzero so CI notices.
    let summary = report.summary();
    if summary.failed > 0 {
        eprintln!("campaign: {} cell(s) failed", summary.failed);
        std::process::exit(1);
    }
}

/// `--check`: parse an existing report against the schema, print its
/// summary line, and exit 0 (valid) or 2 (invalid/empty). With
/// `schema_version`, also print the version it was checked against, the
/// one in `beep-scenarios` — CI's replacement for grepping the report for
/// a hardcoded version number.
fn check(path: &str, schema_version: bool) {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    let json = Json::parse(&text).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    let report = validate_report(&json).unwrap_or_else(|e| die(&format!("{path}: {e}")));
    print_stdout(&format!(
        "{path}: valid {:?} report, {} cells\n",
        report.campaign,
        report.cells.len()
    ));
    if schema_version {
        print_stdout(&format!(
            "{path}: schema version {}\n",
            beep_scenarios::SCHEMA_VERSION
        ));
    }
}

fn parse_value<T: std::str::FromStr>(text: &str, what: &str) -> Result<T, String> {
    text.parse()
        .map_err(|_| format!("{what}: cannot parse {text:?}"))
}

fn die(msg: &str) -> ! {
    eprintln!("campaign: {msg}");
    std::process::exit(2);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn check_alone_parses() {
        let mode = parse_args(&args(&["--check", "report.json"])).unwrap();
        assert!(matches!(
            mode,
            Mode::Check {
                path,
                schema_version: false,
            } if path == "report.json"
        ));
    }

    #[test]
    fn check_combines_with_schema_version() {
        let mode = parse_args(&args(&["--check", "report.json", "--schema-version"])).unwrap();
        assert!(matches!(
            mode,
            Mode::Check {
                path,
                schema_version: true,
            } if path == "report.json"
        ));
    }

    #[test]
    fn schema_version_requires_check() {
        let err = parse_args(&args(&["--schema-version"])).unwrap_err();
        assert!(err.contains("--check"), "{err}");
        let err = parse_args(&args(&["--spec", "s.toml", "--schema-version"])).unwrap_err();
        assert!(err.contains("--check"), "{err}");
    }

    #[test]
    fn check_rejects_every_run_flag() {
        for extra in [
            ["--out", "x.json"],
            ["--spec", "s.toml"],
            ["--threads", "2"],
            ["--checkpoint", "ck.jsonl"],
        ] {
            let mut a = args(&["--check", "report.json"]);
            a.extend(args(&extra));
            let err = parse_args(&a).unwrap_err();
            assert!(err.contains("--check"), "{extra:?}: {err}");
        }
        // Valueless flags conflict too.
        for extra in ["--quiet", "--no-timing"] {
            let err = parse_args(&args(&["--check", "r.json", extra])).unwrap_err();
            assert!(err.contains("--check"), "{extra}: {err}");
        }
    }

    #[test]
    fn spec_still_combines_with_run_flags() {
        let mode = parse_args(&args(&[
            "--spec",
            "s.toml",
            "--out",
            "r.json",
            "--threads",
            "2",
            "--no-timing",
            "--quiet",
            "--checkpoint",
            "ck.jsonl",
            "--max-cells",
            "3",
        ]))
        .unwrap();
        let Mode::Run(config) = mode else {
            panic!("expected a run");
        };
        assert_eq!(config.spec, "s.toml");
        assert_eq!(config.out.as_deref(), Some("r.json"));
        assert_eq!(config.threads, 2);
        assert!(!config.include_timing);
        assert!(config.quiet);
        assert_eq!(config.checkpoint.as_deref(), Some("ck.jsonl"));
        assert_eq!(config.max_cells, Some(3));
    }

    #[test]
    fn max_cells_requires_checkpoint() {
        let err = parse_args(&args(&["--spec", "s.toml", "--max-cells", "3"])).unwrap_err();
        assert!(err.contains("--checkpoint"), "{err}");
    }

    #[test]
    fn unknown_flags_and_missing_values_are_errors() {
        assert!(parse_args(&args(&["--bogus"])).is_err());
        assert!(parse_args(&args(&["--spec"])).is_err());
        assert!(parse_args(&args(&["--threads", "many"])).is_err());
        // The axes come only from a spec file.
        assert!(parse_args(&args(&["--topologies", "cycle"])).is_err());
        let err = parse_args(&args(&["--out", "r.json"])).unwrap_err();
        assert!(err.contains("--spec"), "{err}");
    }
}
