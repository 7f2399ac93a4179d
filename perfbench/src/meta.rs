//! Run metadata printed with every result: the machine, the toolchain and
//! the inputs, so two results can be compared only like for like.

use std::process::Command;

/// The seed kept out of all tuning: results on it are the check that a
/// claimed gain is not fitted to the seeds it was developed on.
pub const HELD_OUT_SEED: u64 = 9001;

/// One `meta:` line of JSON.
pub fn line(workload: &str, seed: u64, seconds: f64, trace: bool) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "meta: {{\"workload\": {}, \"seed\": {seed}, \"held_out_seed\": {HELD_OUT_SEED}, \
         \"seconds\": {seconds}, \"trace\": {trace}, \"nproc\": {nproc}, \"cpu\": {}, \
         \"rustc\": {}, \"commit\": {}, \"profile\": \"{profile}\"}}",
        quote(workload),
        quote(&cpu_model()),
        quote(&command_line("rustc", &["-V"])),
        quote(&git_commit()),
    )
}

/// The commit checked out in the working directory, read from `.git`
/// directly (no `git` process, nothing read outside the directory), or
/// `unknown` for an export that is not a repository.
fn git_commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let resolved = read(".git/HEAD").and_then(|head| match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_string()),
        Some(name) => read(&format!(".git/{name}"))
            .map(|c| c.trim().to_string())
            .or_else(|| {
                read(".git/packed-refs")?.lines().find_map(|l| {
                    let (commit, r) = l.split_once(' ')?;
                    (r == name).then(|| commit.to_string())
                })
            }),
    });
    resolved.unwrap_or_else(|| "unknown".into())
}

/// The first `model name` in `/proc/cpuinfo`, or `unknown`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The first line a command prints, or `unknown` when it cannot run or
/// fails. `output` waits for the child to exit.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| {
            String::from_utf8_lossy(&out.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quote_escapes_json_specials() {
        assert_eq!(quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
