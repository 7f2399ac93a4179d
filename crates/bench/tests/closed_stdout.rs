//! A reader that closes stdout early (`campaign … | head -1`) must not
//! kill either binary: printing stops, `--out` is still written, and the
//! exit status is the one the run would have had with stdout open.
//!
//! Each test pipes the binary's stdout and drops the read end as soon as
//! the process is spawned; both binaries compute before their first
//! write, so that write meets a closed pipe.

use beep_scenarios::json::Json;
use beep_scenarios::validate_report;
use std::process::{Command, Output, Stdio};

/// Runs `command` with its stdout closed from the start.
fn run_with_closed_stdout(command: &mut Command) -> Output {
    let mut child = command
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the binary starts");
    drop(child.stdout.take());
    child.wait_with_output().expect("the binary runs")
}

fn assert_exit_0(output: &Output) {
    assert!(
        output.status.success(),
        "exit {:?}, stderr: {}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn campaign_writes_its_report_when_stdout_is_closed() {
    let out = std::env::temp_dir().join(format!(
        "beep-closed-stdout-campaign-{}.json",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&out);
    let output = run_with_closed_stdout(
        Command::new(env!("CARGO_BIN_EXE_campaign"))
            .arg("--spec")
            .arg(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../scenarios/smoke.toml"
            ))
            .arg("--out")
            .arg(&out),
    );
    assert_exit_0(&output);
    let text = std::fs::read_to_string(&out).expect("--out is written");
    std::fs::remove_file(&out).expect("the report is removable");
    let report = validate_report(&Json::parse(&text).expect("the report is JSON"))
        .expect("the report passes the schema");
    assert_eq!(report.campaign, "smoke");
}

#[test]
fn tables_exits_cleanly_when_stdout_is_closed() {
    let output = run_with_closed_stdout(Command::new(env!("CARGO_BIN_EXE_tables")).arg("e2"));
    assert_exit_0(&output);
}
