//! The two readers of outside input never panic: `CampaignSpec::parse` on
//! spec text, and `load_checkpoint` on a damaged journal. Each returns
//! `Ok` or an error, whatever the bytes.

use beep_scenarios::{load_checkpoint, run_campaign_resumable, CampaignSpec, RunOptions};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// A spec with every table kind and every model, kind and policy; the
/// spec property edits it (or an empty text) a few times at random.
const BASE: &str = r#"name = "props"
seeds = [1, 2]
epsilons = [0.0, 0.1]
protocols = ["wave", "matching"]
[[topology]]
family = "rgg"
sizes = [8]
radius = 0.4
[[topology]]
family = "random_regular"
sizes = [8]
degree = 3
[[topology]]
family = "gnp"
sizes = [8]
expected_degree = 3.0
[[topology]]
family = "pa"
sizes = [8, 12]
m = 2
[[channel]]
model = "ge"
eps_good = 0.01
eps_bad = 0.2
p_good_to_bad = 0.1
p_bad_to_good = 0.5
[[channel]]
model = "per_node"
pattern = [0.0, 0.05]
[[channel]]
model = "adv"
budget_frac = 0.1
design_epsilon = 0.05
[[channel]]
model = "iid"
epsilon = 0.2
[[faults]]
kind = "crash"
fraction = 0.25
round = 3
[[faults]]
kind = "mute"
fraction = 0.125
policy = "rushing_spam"
budget_frac = 0.125
window = 2
[[faults]]
policy = "target_loudest"
budget_frac = 0.25
"#;

/// The three headers and a bogus one.
const HEADERS: &[&str] = &["[[topology]]", "[[channel]]", "[[faults]]", "[bogus]"];

/// Every key the reader accepts, plus a misspelling.
const KEYS: &[&str] = &[
    "name",
    "seeds",
    "epsilons",
    "protocols",
    "family",
    "sizes",
    "radius",
    "degree",
    "expected_degree",
    "m",
    "model",
    "epsilon",
    "eps_good",
    "eps_bad",
    "p_good_to_bad",
    "p_bad_to_good",
    "pattern",
    "budget_frac",
    "design_epsilon",
    "kind",
    "fraction",
    "round",
    "policy",
    "window",
    "sizez",
];

const VALUES: &[&str] = &[
    "\"cycle\"",
    "\"torus\"",
    "\"ge\"",
    "\"crash\"",
    "\"spam\"",
    "\"rushing_spam\"",
    "[\"wave\", \"mis\"]",
    "[4, 9]",
    "[0.0, 0.1]",
    "[]",
    "[\"a\"]",
    "0",
    "-3",
    "0.25",
    "1.5",
    "1e300",
    "99999999999999999999",
    "true",
    "\"é\"",
];

/// Loose pieces for lines that are not well formed.
const PIECES: &[&str] = &[
    "=", "\"", "[", "]", ",", "#", " ", "\n", "-", "7", "0.5", "true", "é", "x", "sizes",
];

/// One edit of a spec's lines: what to do, where, and with which key,
/// value, header or pieces.
type Edit = (u8, usize, (usize, usize, usize), Vec<usize>);

fn edit() -> impl Strategy<Value = Edit> {
    (
        0..10u8,
        0..64usize,
        (0..KEYS.len(), 0..VALUES.len(), 0..HEADERS.len()),
        prop::collection::vec(0..PIECES.len(), 0..8),
    )
}

/// Applies `edit` to `lines`: delete or duplicate a line, give a line
/// another value (the likeliest edit) or another key, or insert an
/// assignment, a header or a line of loose pieces.
fn apply(lines: &mut Vec<String>, (op, at, (key, value, header), pieces): Edit) {
    let at = at % (lines.len() + 1);
    let existing = at < lines.len();
    match op {
        0 if existing => {
            lines.remove(at);
        }
        1 if existing => {
            let copy = lines[at].clone();
            lines.insert(at, copy);
        }
        2..=5 if existing => {
            if let Some((k, v)) = lines[at].clone().split_once(" = ") {
                lines[at] = if op == 5 {
                    format!("{} = {v}", KEYS[key])
                } else {
                    format!("{k} = {}", VALUES[value])
                };
            }
        }
        6 => lines.insert(at, HEADERS[header].to_string()),
        7 => lines.insert(at, pieces.iter().map(|&i| PIECES[i]).collect()),
        _ => lines.insert(at, format!("{} = {}", KEYS[key], VALUES[value])),
    }
}

/// `BASE` (three times in four) or an empty text, edited a few times.
fn spec_text() -> impl Strategy<Value = String> {
    (0..4u8, prop::collection::vec(edit(), 0..4)).prop_map(|(base, edits)| {
        let mut lines: Vec<String> = if base > 0 {
            BASE.lines().map(ToString::to_string).collect()
        } else {
            Vec::new()
        };
        for edit in edits {
            apply(&mut lines, edit);
        }
        lines.join("\n")
    })
}

/// The spec whose journal the checkpoint property damages.
fn tiny_spec() -> CampaignSpec {
    CampaignSpec::parse(
        "seeds = [1, 2]\nprotocols = [\"wave\"]\n[[topology]]\nfamily = \"cycle\"\nsizes = [6]\n",
    )
    .expect("the tiny spec parses")
}

/// A unique temp path per call.
fn temp_path(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "beep-input-props-{tag}-{}-{}.jsonl",
        std::process::id(),
        NEXT.fetch_add(1, Ordering::Relaxed)
    ))
}

/// The complete journal of `tiny_spec`, written once.
fn journal() -> &'static [u8] {
    static JOURNAL: OnceLock<Vec<u8>> = OnceLock::new();
    JOURNAL.get_or_init(|| {
        let path = temp_path("journal");
        let options = RunOptions {
            threads: 1,
            max_cells: None,
        };
        run_campaign_resumable(&tiny_spec(), &options, &path).expect("the tiny campaign runs");
        let bytes = std::fs::read(&path).expect("the journal is written");
        std::fs::remove_file(&path).expect("the journal is removable");
        bytes
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]
    #[test]
    fn spec_parse_never_panics(text in spec_text()) {
        if let Ok(spec) = CampaignSpec::parse(&text) {
            let _ = spec.expand();
        }
    }
}

proptest! {
    #[test]
    fn damaged_journal_loads_or_errs(
        (truncate, at, byte) in (prop::bool::ANY, any::<u64>(), any::<u8>()),
    ) {
        let mut bytes = journal().to_vec();
        #[allow(clippy::cast_possible_truncation)]
        let at = (at % (bytes.len() as u64 + 1)) as usize;
        if truncate {
            bytes.truncate(at);
        } else {
            let at = at.min(bytes.len() - 1);
            bytes[at] = byte;
        }
        let path = temp_path("damaged");
        std::fs::write(&path, &bytes).expect("the damaged journal is written");
        let spec = tiny_spec();
        let cells = spec.expand().expect("the tiny spec expands");
        let _ = load_checkpoint(&path, &spec, &cells);
        std::fs::remove_file(&path).expect("the damaged journal is removable");
    }
}
