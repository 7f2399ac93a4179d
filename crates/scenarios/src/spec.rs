//! Campaign specs: what to sweep, and the expansion into a cell matrix.
//!
//! A campaign is the cartesian product
//! `topology instances × channels × protocols × seeds`. The channel axis
//! is the `epsilons` list (each an iid-Bernoulli shorthand) plus any
//! `[[channel]]` tables ([`ChannelSpec`]) naming richer models — bursty
//! Gilbert–Elliott, heterogeneous per-node rates, budgeted adversarial
//! erasure. Specs are built programmatically ([`CampaignSpec`] is plain
//! data) or parsed from a checked-in file ([`CampaignSpec::parse`]) in a
//! small TOML subset:
//!
//! ```toml
//! name = "smoke"
//! seeds = [1, 2]
//! epsilons = [0.0, 0.05]
//! protocols = ["matching", "round_sim"]
//!
//! [[topology]]
//! family = "cycle"
//! sizes = [8, 16]
//!
//! [[topology]]
//! family = "random_regular"
//! sizes = [12]
//! degree = 4
//!
//! [[channel]]
//! model = "ge"              # Gilbert–Elliott bursty channel
//! eps_good = 0.01
//! eps_bad = 0.2
//! p_good_to_bad = 0.1
//! p_bad_to_good = 0.5
//! ```
//!
//! A `[[faults]]` table adds a fault-axis entry ([`FaultSpec`]): a node
//! misbehavior kind applied to a swept fraction of each cell's nodes,
//! realized per cell from the engine's reserved fault stream, and/or an
//! *adaptive* policy ([`PolicySpec`]) whose per-round choices react to
//! the observed transcript (budget swept as a fraction of `n`):
//!
//! ```toml
//! [[faults]]
//! kind = "crash"             # or "spam" / "mute"
//! fraction = 0.25
//! round = 8                  # crash-only: first dead round
//!
//! [[faults]]
//! policy = "target_loudest"  # or "rushing_spam"
//! budget_frac = 0.25         # per-round budget = ⌊budget_frac · n⌋
//!
//! [[faults]]
//! kind = "mute"              # static faults compose with a policy
//! fraction = 0.125
//! policy = "rushing_spam"
//! budget_frac = 0.125
//! window = 2                 # rushing-only: rounds of post-activity spam
//! ```
//!
//! The fault axis always starts with the implicit fault-free entry, so
//! adding `[[faults]]` tables never perturbs existing cell ids or seeds.
//!
//! Supported syntax: `key = value` pairs (strings, numbers, booleans,
//! flat arrays), `[[topology]]`/`[[channel]]`/`[[faults]]` table arrays,
//! and `#` comments. Nothing else of TOML is needed or accepted.

use crate::error::ScenarioError;
use crate::json::Json;
use beep_apps::Protocol;
use beep_net::{topology, AdaptivePolicy, ChannelModel, FaultKind, FaultPlan, Graph, Noise};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A topology family with its (resolved) generation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum TopologyFamily {
    /// `C_n`.
    Cycle,
    /// `P_n`.
    Path,
    /// `K_n`.
    Complete,
    /// `K_{1,n−1}`.
    Star,
    /// Near-square 4-neighbor grid on ≥ n nodes.
    Grid,
    /// Near-square wraparound grid (4-regular) on ≈ n nodes.
    Torus,
    /// Complete binary tree.
    BinaryTree,
    /// Uniform random labeled tree.
    RandomTree,
    /// Random geometric graph; `None` radius = the connectivity-threshold
    /// radius `√(2·ln n / (π·n))`, resolved per size.
    RandomGeometric {
        /// Connection radius in the unit square, or `None` for auto.
        radius: Option<f64>,
    },
    /// Random `d`-regular graph.
    RandomRegular {
        /// The degree `d` (= the paper's Δ, exactly).
        degree: usize,
    },
    /// Erdős–Rényi `G(n, p)` with `p = expected_degree / (n−1)`.
    Gnp {
        /// Target expected degree.
        expected_degree: f64,
    },
    /// Barabási–Albert preferential attachment.
    PreferentialAttachment {
        /// Edges per arriving node.
        m: usize,
    },
    /// `K_{⌊n/2⌋,⌈n/2⌉}` — the Lemma 14 hard-instance shape.
    CompleteBipartite,
}

impl TopologyFamily {
    /// The canonical label, including parameters — used in cell ids, so
    /// two parameterizations of one family never collide.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            TopologyFamily::Cycle => "cycle".into(),
            TopologyFamily::Path => "path".into(),
            TopologyFamily::Complete => "complete".into(),
            TopologyFamily::Star => "star".into(),
            TopologyFamily::Grid => "grid".into(),
            TopologyFamily::Torus => "torus".into(),
            TopologyFamily::BinaryTree => "binary_tree".into(),
            TopologyFamily::RandomTree => "random_tree".into(),
            TopologyFamily::RandomGeometric { radius: None } => "rgg(r=auto)".into(),
            TopologyFamily::RandomGeometric { radius: Some(r) } => format!("rgg(r={r})"),
            TopologyFamily::RandomRegular { degree } => format!("random_regular(d={degree})"),
            TopologyFamily::Gnp { expected_degree } => format!("gnp(deg={expected_degree})"),
            TopologyFamily::PreferentialAttachment { m } => format!("pa(m={m})"),
            TopologyFamily::CompleteBipartite => "complete_bipartite".into(),
        }
    }

    /// Builds the family's instance closest to `n` nodes, deterministic in
    /// `seed`. Returns the graph and the resolved generation parameters
    /// (e.g. the auto radius) for the report.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Spec`] when the family cannot realize `n` (torus
    /// below 9 nodes, odd `n·d`, …) — campaigns mark such cells skipped.
    #[allow(clippy::cast_precision_loss)]
    pub fn build(&self, n: usize, seed: u64) -> Result<(Graph, Vec<(String, f64)>), ScenarioError> {
        let bad = |detail: String| ScenarioError::Spec { line: 0, detail };
        let graph_err = |e: beep_net::GraphError| bad(format!("{}: {e}", self.label()));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut params: Vec<(String, f64)> = Vec::new();
        let graph = match self {
            TopologyFamily::Cycle => topology::cycle(n).map_err(graph_err)?,
            TopologyFamily::Path => topology::path(n).map_err(graph_err)?,
            TopologyFamily::Complete => topology::complete(n).map_err(graph_err)?,
            TopologyFamily::Star => topology::star(n).map_err(graph_err)?,
            TopologyFamily::Grid => {
                let rows = n.isqrt().max(1);
                let cols = n.div_ceil(rows);
                topology::grid(rows, cols).map_err(graph_err)?
            }
            TopologyFamily::Torus => {
                if n < 9 {
                    return Err(bad(format!("torus needs n ≥ 9, got {n}")));
                }
                let rows = n.isqrt().max(3);
                let cols = (n / rows).max(3);
                topology::torus(rows, cols).map_err(graph_err)?
            }
            TopologyFamily::BinaryTree => topology::binary_tree(n).map_err(graph_err)?,
            TopologyFamily::RandomTree => topology::random_tree(n, &mut rng).map_err(graph_err)?,
            TopologyFamily::RandomGeometric { radius } => {
                let r = radius.unwrap_or_else(|| {
                    let nf = n.max(2) as f64;
                    (2.0 * nf.ln() / (std::f64::consts::PI * nf)).sqrt()
                });
                params.push(("radius".into(), r));
                let (g, _) = topology::random_geometric(n, r, &mut rng).map_err(graph_err)?;
                g
            }
            TopologyFamily::RandomRegular { degree } => {
                params.push(("degree".into(), *degree as f64));
                topology::random_regular(n, *degree, &mut rng).map_err(graph_err)?
            }
            TopologyFamily::Gnp { expected_degree } => {
                if n < 2 {
                    return Err(bad(format!("gnp needs n ≥ 2, got {n}")));
                }
                let p = (expected_degree / (n as f64 - 1.0)).clamp(0.0, 1.0);
                params.push(("p".into(), p));
                topology::gnp(n, p, &mut rng).map_err(graph_err)?
            }
            TopologyFamily::PreferentialAttachment { m } => {
                params.push(("m".into(), *m as f64));
                topology::preferential_attachment(n, *m, &mut rng).map_err(graph_err)?
            }
            TopologyFamily::CompleteBipartite => {
                topology::complete_bipartite(n / 2, n - n / 2).map_err(graph_err)?
            }
        };
        Ok((graph, params))
    }

    /// Parses a family from its bare spec name with default parameters
    /// (degree 4 regular, expected degree 4 G(n,p), m = 2 attachment,
    /// auto RGG radius) — the CLI entry point; spec files can override
    /// the parameters per `[[topology]]` table.
    #[must_use]
    pub fn from_name(name: &str) -> Option<TopologyFamily> {
        TopologyFamily::from_spec(name, &Json::Obj(vec![]), 0).ok()
    }

    /// Parses a family from its spec name plus the table's parameters.
    fn from_spec(name: &str, table: &Json, line: usize) -> Result<TopologyFamily, ScenarioError> {
        let f64_param = |key: &str| table.get(key).and_then(Json::as_f64);
        let usize_param = |key: &str| -> Result<Option<usize>, ScenarioError> {
            match table.get(key) {
                None => Ok(None),
                Some(v) => v
                    .as_i64()
                    .filter(|&x| x >= 0)
                    .map(|x| Some(usize::try_from(x).expect("non-negative")))
                    .ok_or(ScenarioError::Spec {
                        line,
                        detail: format!("{key} must be a non-negative integer"),
                    }),
            }
        };
        Ok(match name {
            "cycle" => TopologyFamily::Cycle,
            "path" => TopologyFamily::Path,
            "complete" => TopologyFamily::Complete,
            "star" => TopologyFamily::Star,
            "grid" => TopologyFamily::Grid,
            "torus" => TopologyFamily::Torus,
            "binary_tree" => TopologyFamily::BinaryTree,
            "random_tree" | "tree" => TopologyFamily::RandomTree,
            "random_geometric" | "rgg" => TopologyFamily::RandomGeometric {
                radius: f64_param("radius"),
            },
            "random_regular" | "regular" => TopologyFamily::RandomRegular {
                degree: usize_param("degree")?.unwrap_or(4),
            },
            "gnp" => TopologyFamily::Gnp {
                expected_degree: f64_param("expected_degree").unwrap_or(4.0),
            },
            "preferential_attachment" | "pa" => TopologyFamily::PreferentialAttachment {
                m: usize_param("m")?.unwrap_or(2),
            },
            "complete_bipartite" | "bipartite" => TopologyFamily::CompleteBipartite,
            other => {
                return Err(ScenarioError::Spec {
                    line,
                    detail: format!("unknown topology family {other:?}"),
                })
            }
        })
    }
}

/// One axis entry: a family swept over sizes.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologySpec {
    /// The family (with parameters).
    pub family: TopologyFamily,
    /// Target node counts to sweep.
    pub sizes: Vec<usize>,
}

/// One channel-axis entry: a noise-model family with resolved parameters.
///
/// The campaign channel axis is the `epsilons` list (each one an
/// [`ChannelSpec::Iid`] shorthand, kept so version-1 specs and their cell
/// ids are byte-identical) followed by the spec's `[[channel]]` tables in
/// order. Parameters are range-checked at parse time; [`build`] turns an
/// entry into a concrete [`ChannelModel`] for a realized graph.
///
/// [`build`]: ChannelSpec::build
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ChannelSpec {
    /// The paper's iid `Bernoulli(ε)` channel (`ε = 0` = noiseless).
    Iid {
        /// Flip rate `ε ∈ [0, ½)`.
        epsilon: f64,
    },
    /// Two-state bursty Gilbert–Elliott channel: a Good/Bad Markov chain
    /// evolved once per round, flipping at the active state's rate.
    GilbertElliott {
        /// Flip rate while in the Good state.
        eps_good: f64,
        /// Flip rate while in the Bad state.
        eps_bad: f64,
        /// Per-round transition probability Good → Bad.
        p_good_to_bad: f64,
        /// Per-round transition probability Bad → Good.
        p_bad_to_good: f64,
    },
    /// Heterogeneous per-node rates: node `v` receives at rate
    /// `pattern[v mod pattern.len()]`.
    PerNode {
        /// Non-empty rate pattern, each entry in `[0, ½)`.
        pattern: Vec<f64>,
    },
    /// Budgeted adversarial erasure: each round an adversary silences up
    /// to `⌈budget_frac · n⌉` heard beeps, highest-degree listeners first.
    Adversarial {
        /// Per-round erasure budget as a fraction of the realized node
        /// count, in `[0, 1]`.
        budget_frac: f64,
        /// The iid-equivalent rate the simulation calibrates against.
        design_epsilon: f64,
    },
}

impl ChannelSpec {
    /// The canonical label, used in cell ids. Iid entries label as
    /// `eps{ε}` — exactly the version-1 id segment — so adding the
    /// channel axis never perturbed existing cell ids or their derived
    /// seeds.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            ChannelSpec::Iid { epsilon } => format!("eps{epsilon}"),
            ChannelSpec::GilbertElliott {
                eps_good,
                eps_bad,
                p_good_to_bad,
                p_bad_to_good,
            } => format!("ge-g{eps_good}-b{eps_bad}-pgb{p_good_to_bad}-pbg{p_bad_to_good}"),
            ChannelSpec::PerNode { pattern } => {
                let rates: Vec<String> = pattern.iter().map(ToString::to_string).collect();
                format!("pernode-{}", rates.join("-"))
            }
            ChannelSpec::Adversarial {
                budget_frac,
                design_epsilon,
            } => format!("adv-f{budget_frac}-e{design_epsilon}"),
        }
    }

    /// The worst-case iid-equivalent rate — what the simulation layer
    /// calibrates its expansion parameters against, and the `epsilon`
    /// recorded in the cell's report row.
    #[must_use]
    pub fn calibration_epsilon(&self) -> f64 {
        match self {
            ChannelSpec::Iid { epsilon } => *epsilon,
            ChannelSpec::GilbertElliott {
                eps_good, eps_bad, ..
            } => eps_good.max(*eps_bad),
            ChannelSpec::PerNode { pattern } => pattern.iter().copied().fold(0.0, f64::max),
            ChannelSpec::Adversarial { design_epsilon, .. } => *design_epsilon,
        }
    }

    /// Instantiates the concrete [`ChannelModel`] for a realized graph of
    /// `n` nodes (the adversary's budget scales with `n`; the other
    /// models ignore it).
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Spec`] if the parameters are rejected by the
    /// network layer — unreachable for specs that came through
    /// [`CampaignSpec::parse`], which range-checks them up front.
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    pub fn build(&self, n: usize) -> Result<ChannelModel, ScenarioError> {
        let bad = |e: beep_net::NetError| ScenarioError::Spec {
            line: 0,
            detail: format!("{}: {e}", self.label()),
        };
        match self {
            ChannelSpec::Iid { epsilon } => {
                if *epsilon == 0.0 {
                    Ok(ChannelModel::from(Noise::Noiseless))
                } else {
                    Noise::try_bernoulli(*epsilon)
                        .map(ChannelModel::from)
                        .map_err(bad)
                }
            }
            ChannelSpec::GilbertElliott {
                eps_good,
                eps_bad,
                p_good_to_bad,
                p_bad_to_good,
            } => beep_net::GilbertElliott::try_new(
                *eps_good,
                *eps_bad,
                *p_good_to_bad,
                *p_bad_to_good,
            )
            .map(ChannelModel::from)
            .map_err(bad),
            ChannelSpec::PerNode { pattern } => beep_net::PerNodeEps::try_new(pattern.clone())
                .map(ChannelModel::from)
                .map_err(bad),
            ChannelSpec::Adversarial {
                budget_frac,
                design_epsilon,
            } => {
                let budget = (budget_frac * n as f64).ceil() as usize;
                beep_net::AdversarialErasure::try_new(budget, *design_epsilon)
                    .map(ChannelModel::from)
                    .map_err(bad)
            }
        }
    }

    /// Parses a `[[channel]]` table: a `model` discriminator plus the
    /// model's parameter keys, all required, range-checked here so a bad
    /// spec fails at parse time rather than as a sea of failed cells.
    fn from_spec(table: &Json, line: usize) -> Result<ChannelSpec, ScenarioError> {
        let spec_err = |detail: String| ScenarioError::Spec { line, detail };
        let model = table
            .get("model")
            .and_then(Json::as_str)
            .ok_or_else(|| spec_err("[[channel]] needs model = \"…\"".into()))?;
        let allowed: &[&str] = match model {
            "iid" => &["epsilon"],
            "ge" | "gilbert_elliott" => &["eps_good", "eps_bad", "p_good_to_bad", "p_bad_to_good"],
            "per_node" | "pernode" => &["pattern"],
            "adversarial" | "adv" => &["budget_frac", "design_epsilon"],
            other => return Err(spec_err(format!("unknown channel model {other:?}"))),
        };
        // Same rationale as the root/topology key checks: an unknown
        // parameter must fail loudly, not silently sweep the default.
        if let Json::Obj(pairs) = table {
            for (key, _) in pairs {
                if key != "model" && !allowed.contains(&key.as_str()) {
                    return Err(spec_err(format!(
                        "unknown key {key:?} for channel model {model:?} \
                         (accepted: model, {})",
                        allowed.join(", ")
                    )));
                }
            }
        }
        let number = |key: &str| {
            table
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| spec_err(format!("channel model {model:?} needs {key} = <number>")))
        };
        let rate = |key: &str| {
            let v = number(key)?;
            if !(0.0..0.5).contains(&v) {
                return Err(spec_err(format!("{key} {v} outside [0, ½)")));
            }
            Ok(v)
        };
        let prob = |key: &str| {
            let v = number(key)?;
            if !(0.0..=1.0).contains(&v) {
                return Err(spec_err(format!("{key} {v} outside [0, 1]")));
            }
            Ok(v)
        };
        Ok(match model {
            "iid" => ChannelSpec::Iid {
                epsilon: rate("epsilon")?,
            },
            "ge" | "gilbert_elliott" => ChannelSpec::GilbertElliott {
                eps_good: rate("eps_good")?,
                eps_bad: rate("eps_bad")?,
                p_good_to_bad: prob("p_good_to_bad")?,
                p_bad_to_good: prob("p_bad_to_good")?,
            },
            "per_node" | "pernode" => {
                let pattern = f64_array(
                    table
                        .get("pattern")
                        .ok_or_else(|| spec_err("per_node channel needs pattern = […]".into()))?,
                    "pattern",
                )?;
                if pattern.is_empty() {
                    return Err(spec_err("pattern must be non-empty".into()));
                }
                for &e in &pattern {
                    if !(0.0..0.5).contains(&e) {
                        return Err(spec_err(format!("pattern rate {e} outside [0, ½)")));
                    }
                }
                ChannelSpec::PerNode { pattern }
            }
            _ => ChannelSpec::Adversarial {
                budget_frac: prob("budget_frac")?,
                design_epsilon: rate("design_epsilon")?,
            },
        })
    }
}

/// One adaptive-policy spec: an [`AdaptivePolicy`] with its per-round
/// budget expressed as a fraction of the cell's realized node count, so
/// one `[[faults]]` entry scales across a size sweep the way `fraction`
/// does for static faults.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum PolicySpec {
    /// Jam the `⌊budget_frac · n⌋` loudest nodes each round
    /// ([`AdaptivePolicy::TargetLoudest`]).
    TargetLoudest {
        /// Per-round jam budget as a fraction of `n`, in `[0, 1]`.
        budget_frac: f64,
    },
    /// Spam `⌊budget_frac · n⌋` silent nodes while the protocol is active
    /// ([`AdaptivePolicy::RushingSpam`]).
    RushingSpam {
        /// Per-round spam budget as a fraction of `n`, in `[0, 1]`.
        budget_frac: f64,
        /// Rounds of spam to sustain after the last observed activity.
        window: u64,
    },
}

impl PolicySpec {
    /// The canonical label fragment, used in cell ids:
    /// `loudest-f{budget_frac}` or `rushing-f{budget_frac}-w{window}`.
    #[must_use]
    pub fn label(&self) -> String {
        match self {
            PolicySpec::TargetLoudest { budget_frac } => format!("loudest-f{budget_frac}"),
            PolicySpec::RushingSpam {
                budget_frac,
                window,
            } => format!("rushing-f{budget_frac}-w{window}"),
        }
    }

    /// Resolves the concrete [`AdaptivePolicy`] for a realized graph of
    /// `n` nodes: `budget = ⌊budget_frac · n⌋`.
    #[must_use]
    #[allow(
        clippy::cast_precision_loss,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss
    )]
    pub fn realize(&self, n: usize) -> AdaptivePolicy {
        match self {
            PolicySpec::TargetLoudest { budget_frac } => AdaptivePolicy::TargetLoudest {
                budget: (budget_frac * n as f64).floor() as usize,
            },
            PolicySpec::RushingSpam {
                budget_frac,
                window,
            } => AdaptivePolicy::RushingSpam {
                budget: (budget_frac * n as f64).floor() as usize,
                window: *window,
            },
        }
    }
}

/// One fault-axis entry: a static [`FaultKind`] applied to a swept
/// fraction of each cell's nodes, an adaptive [`PolicySpec`], or both
/// composed (static faults realize first; the policy reacts on top).
///
/// The fraction is swept like ε: the *count* `⌊fraction · n⌋` scales
/// with each cell's realized size, and the faulty node set is realized
/// per cell from the engine's reserved fault stream
/// ([`FaultPlan::realize`] keyed by the cell seed), so a cell's faults
/// are a pure function of its id — adaptive decisions likewise draw only
/// from the reserved adaptive stream keyed by that seed. The campaign
/// fault axis is the implicit fault-free entry followed by the spec's
/// `[[faults]]` tables in order; fault-free cell ids carry no fault
/// segment, so pre-fault specs keep their ids — and therefore their
/// seeds — byte-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// How the sampled nodes misbehave (the crash round rides inside);
    /// `None` for a purely adaptive entry.
    pub kind: Option<FaultKind>,
    /// Fraction of nodes to sample for `kind`, in `[0, 1]` (0 when
    /// `kind` is `None`).
    pub fraction: f64,
    /// The adaptive policy layered on top, if any.
    pub policy: Option<PolicySpec>,
}

impl FaultSpec {
    /// The canonical label, used as the cell-id fault segment and the
    /// report's `faults` field: `crash-f{fraction}-r{round}`,
    /// `spam-f{fraction}`, or `mute-f{fraction}` for static entries, the
    /// bare [`PolicySpec::label`] for purely adaptive ones, and
    /// `{static}+{policy}` for composed entries.
    #[must_use]
    pub fn label(&self) -> String {
        let static_label = self.kind.map(|kind| match kind {
            FaultKind::Crash { round } => format!("crash-f{}-r{round}", self.fraction),
            FaultKind::ByzantineSpam => format!("spam-f{}", self.fraction),
            FaultKind::ByzantineMute => format!("mute-f{}", self.fraction),
        });
        match (static_label, self.policy) {
            (Some(s), Some(p)) => format!("{s}+{}", p.label()),
            (Some(s), None) => s,
            (None, Some(p)) => p.label(),
            (None, None) => "none".into(),
        }
    }

    /// Realizes the concrete [`FaultPlan`] for a cell: `⌊fraction · n⌋`
    /// nodes sampled from `seed`'s reserved fault stream, with the
    /// policy's budget resolved against `n` and attached on top.
    ///
    /// # Errors
    ///
    /// [`beep_net::NetError::InvalidFaultPlan`] if the fraction is out of
    /// range — unreachable for parsed specs, which range-check it.
    pub fn realize(&self, n: usize, seed: u64) -> Result<FaultPlan, beep_net::NetError> {
        let plan = match self.kind {
            Some(kind) => FaultPlan::realize(n, self.fraction, kind, seed)?,
            None => FaultPlan::none(),
        };
        Ok(match self.policy {
            Some(policy) => plan.with_policy(policy.realize(n)),
            None => plan,
        })
    }

    /// Parses a `[[faults]]` table: `kind = "crash"|"spam"|"mute"` with
    /// `fraction ∈ [0, 1]` (plus, crash only, the first dead `round`),
    /// and/or `policy = "target_loudest"|"rushing_spam"` with
    /// `budget_frac ∈ [0, 1]` (plus, rushing only, the post-activity
    /// `window`). At least one of `kind`/`policy` is required.
    fn from_spec(table: &Json, line: usize) -> Result<FaultSpec, ScenarioError> {
        let spec_err = |detail: String| ScenarioError::Spec { line, detail };
        let kind_name = table.get("kind").and_then(Json::as_str);
        let policy_name = table.get("policy").and_then(Json::as_str);
        if kind_name.is_none() && policy_name.is_none() {
            return Err(spec_err(
                "[[faults]] needs kind = \"crash\"|\"spam\"|\"mute\" \
                 and/or policy = \"target_loudest\"|\"rushing_spam\""
                    .into(),
            ));
        }
        // Same rationale as the other table arrays: a key the entry does
        // not accept must fail loudly, not silently sweep a default.
        let mut allowed: Vec<&str> = vec!["kind", "policy"];
        match kind_name {
            None => {}
            Some("crash") => allowed.extend(["fraction", "round"]),
            Some("spam" | "mute") => allowed.push("fraction"),
            Some(other) => return Err(spec_err(format!("unknown fault kind {other:?}"))),
        }
        match policy_name {
            None => {}
            Some("target_loudest") => allowed.push("budget_frac"),
            Some("rushing_spam") => allowed.extend(["budget_frac", "window"]),
            Some(other) => return Err(spec_err(format!("unknown fault policy {other:?}"))),
        }
        if let Json::Obj(pairs) = table {
            for (key, _) in pairs {
                if !allowed.contains(&key.as_str()) {
                    return Err(spec_err(format!(
                        "unknown key {key:?} for fault entry (accepted: {})",
                        allowed.join(", ")
                    )));
                }
            }
        }
        let frac_in_range = |key: &str| -> Result<f64, ScenarioError> {
            let v = table
                .get(key)
                .and_then(Json::as_f64)
                .ok_or_else(|| spec_err(format!("[[faults]] needs {key} = <number>")))?;
            if !(0.0..=1.0).contains(&v) {
                return Err(spec_err(format!("{key} {v} outside [0, 1]")));
            }
            Ok(v)
        };
        let (kind, fraction) = match kind_name {
            None => (None, 0.0),
            Some(name) => {
                let fraction = frac_in_range("fraction")?;
                let kind = match name {
                    "crash" => {
                        let round = table
                            .get("round")
                            .and_then(Json::as_i64)
                            .filter(|&r| r >= 0)
                            .ok_or_else(|| {
                                spec_err("crash faults need round = <non-negative integer>".into())
                            })?;
                        FaultKind::Crash {
                            round: u64::try_from(round).expect("non-negative"),
                        }
                    }
                    "spam" => FaultKind::ByzantineSpam,
                    _ => FaultKind::ByzantineMute,
                };
                (Some(kind), fraction)
            }
        };
        let policy = match policy_name {
            None => None,
            Some(name) => {
                let budget_frac = frac_in_range("budget_frac")?;
                Some(match name {
                    "target_loudest" => PolicySpec::TargetLoudest { budget_frac },
                    _ => {
                        let window = table
                            .get("window")
                            .and_then(Json::as_i64)
                            .filter(|&w| w >= 0)
                            .ok_or_else(|| {
                                spec_err(
                                    "rushing_spam needs window = <non-negative integer>".into(),
                                )
                            })?;
                        PolicySpec::RushingSpam {
                            budget_frac,
                            window: u64::try_from(window).expect("non-negative"),
                        }
                    }
                })
            }
        };
        Ok(FaultSpec {
            kind,
            fraction,
            policy,
        })
    }
}

/// A declarative campaign: the full sweep description.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (report header).
    pub name: String,
    /// Topology axis.
    pub topologies: Vec<TopologySpec>,
    /// Iid channel-axis shorthand (`ε` values; 0 = noiseless).
    pub epsilons: Vec<f64>,
    /// Channel-axis entries beyond `epsilons` (`[[channel]]` tables),
    /// appended to the axis in spec order.
    pub channels: Vec<ChannelSpec>,
    /// Fault-axis entries (`[[faults]]` tables); the implicit fault-free
    /// entry always precedes them.
    pub faults: Vec<FaultSpec>,
    /// Protocol axis.
    pub protocols: Vec<Protocol>,
    /// Seed axis (each seed reruns the whole grid).
    pub seeds: Vec<u64>,
}

/// One expanded cell: a single `(graph instance, channel, protocol,
/// seed)` run.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Stable id: `family/n{size}/{channel}/protocol/s{seed}` for
    /// fault-free cells (byte-identical to pre-fault campaigns), with a
    /// [`FaultSpec::label`] segment spliced in before the protocol —
    /// `family/n{size}/{channel}/{fault}/protocol/s{seed}` — for faulted
    /// cells. The channel segment is [`ChannelSpec::label`] (`eps{ε}`
    /// for iid).
    pub id: String,
    /// The topology family to instantiate.
    pub family: TopologyFamily,
    /// Requested node count (the realized count may differ for
    /// grid/torus shapes; the report records both).
    pub requested_n: usize,
    /// The channel's calibration rate
    /// ([`ChannelSpec::calibration_epsilon`]).
    pub epsilon: f64,
    /// The channel-axis entry to instantiate.
    pub channel: ChannelSpec,
    /// The fault-axis entry to realize (`None` = fault-free).
    pub fault: Option<FaultSpec>,
    /// The protocol to run.
    pub protocol: Protocol,
    /// The sweep seed this cell belongs to.
    pub sweep_seed: u64,
    /// The derived per-cell seed (stable under spec edits: a pure
    /// function of the cell id, not of the cell's position).
    pub cell_seed: u64,
}

/// FNV-1a over a string — the cell-seed derivation. Part of the report
/// reproducibility contract: a cell's randomness depends only on its id.
#[must_use]
pub fn cell_seed(id: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in id.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

impl CampaignSpec {
    /// The full channel axis: every `epsilons` entry as an iid channel,
    /// then the `channels` entries, in spec order.
    #[must_use]
    pub fn channel_axis(&self) -> Vec<ChannelSpec> {
        let mut axis: Vec<ChannelSpec> = self
            .epsilons
            .iter()
            .map(|&epsilon| ChannelSpec::Iid { epsilon })
            .collect();
        axis.extend(self.channels.iter().cloned());
        axis
    }

    /// The full fault axis: the implicit fault-free entry (`None`), then
    /// the `[[faults]]` entries in spec order.
    #[must_use]
    pub fn fault_axis(&self) -> Vec<Option<FaultSpec>> {
        let mut axis: Vec<Option<FaultSpec>> = vec![None];
        axis.extend(self.faults.iter().copied().map(Some));
        axis
    }

    /// Expands the sweep into its cell matrix, in deterministic order
    /// (topologies → sizes → channels → faults → protocols → seeds).
    ///
    /// Fault-free cells keep the historical five-segment id, so adding
    /// `[[faults]]` tables to a spec never changes their ids or derived
    /// seeds; faulted cells splice the fault label in before the
    /// protocol segment.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::EmptyMatrix`] if any axis is empty.
    pub fn expand(&self) -> Result<Vec<CellSpec>, ScenarioError> {
        let axis = self.channel_axis();
        let fault_axis = self.fault_axis();
        let mut cells = Vec::new();
        for topo in &self.topologies {
            for &n in &topo.sizes {
                for channel in &axis {
                    for fault in &fault_axis {
                        for &protocol in &self.protocols {
                            for &seed in &self.seeds {
                                let fault_segment = fault
                                    .as_ref()
                                    .map_or(String::new(), |f| format!("{}/", f.label()));
                                let id = format!(
                                    "{}/n{}/{}/{}{}/s{}",
                                    topo.family.label(),
                                    n,
                                    channel.label(),
                                    fault_segment,
                                    protocol.name(),
                                    seed
                                );
                                let derived = cell_seed(&id);
                                cells.push(CellSpec {
                                    id,
                                    family: topo.family,
                                    requested_n: n,
                                    epsilon: channel.calibration_epsilon(),
                                    channel: channel.clone(),
                                    fault: *fault,
                                    protocol,
                                    sweep_seed: seed,
                                    cell_seed: derived,
                                });
                            }
                        }
                    }
                }
            }
        }
        if cells.is_empty() {
            return Err(ScenarioError::EmptyMatrix);
        }
        Ok(cells)
    }

    /// Parses a spec file (see the module docs for the accepted TOML
    /// subset).
    ///
    /// # Errors
    ///
    /// [`ScenarioError::Spec`] with a line number on malformed input.
    pub fn parse(text: &str) -> Result<CampaignSpec, ScenarioError> {
        // Accumulate key/value tables: one root table plus one per
        // [[topology]]/[[channel]]/[[faults]] header, then assemble the
        // typed spec.
        #[derive(PartialEq)]
        enum Kind {
            Topology,
            Channel,
            Fault,
        }
        type Table = Vec<(String, Json)>;
        let mut root: Table = Vec::new();
        let mut tables: Vec<(usize, Kind, Table)> = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if line == "[[topology]]" {
                tables.push((line_no, Kind::Topology, Vec::new()));
                continue;
            }
            if line == "[[channel]]" {
                tables.push((line_no, Kind::Channel, Vec::new()));
                continue;
            }
            if line == "[[faults]]" {
                tables.push((line_no, Kind::Fault, Vec::new()));
                continue;
            }
            if line.starts_with('[') {
                return Err(ScenarioError::Spec {
                    line: line_no,
                    detail: format!(
                        "unsupported table header {line:?} \
                         (only [[topology]], [[channel]], and [[faults]])"
                    ),
                });
            }
            let (key, value) = parse_assignment(line, line_no)?;
            // Assignments belong to the most recent table header, or to
            // the root before the first header.
            let table = tables.last_mut().map_or(&mut root, |(_, _, t)| t);
            if table.iter().any(|(k, _)| k == &key) {
                return Err(ScenarioError::Spec {
                    line: line_no,
                    detail: format!("duplicate key {key:?}"),
                });
            }
            table.push((key, value));
        }
        let mut topo_tables: Vec<(usize, Table)> = Vec::new();
        let mut channel_tables: Vec<(usize, Table)> = Vec::new();
        let mut fault_tables: Vec<(usize, Table)> = Vec::new();
        for (line, kind, table) in tables {
            match kind {
                Kind::Topology => topo_tables.push((line, table)),
                Kind::Channel => channel_tables.push((line, table)),
                Kind::Fault => fault_tables.push((line, table)),
            }
        }

        // Unknown keys are errors, not silently-dropped defaults: a
        // typo'd axis ("epsilon" for "epsilons") must not produce a
        // green sweep that quietly lost half its cells.
        for (key, _) in &root {
            if !["name", "seeds", "epsilons", "protocols"].contains(&key.as_str()) {
                return Err(ScenarioError::Spec {
                    line: 0,
                    detail: format!("unknown key {key:?} (expected name/seeds/epsilons/protocols)"),
                });
            }
        }

        let root = Json::Obj(root);
        let name = root
            .get("name")
            .map(|v| {
                v.as_str()
                    .map(ToString::to_string)
                    .ok_or(ScenarioError::Spec {
                        line: 0,
                        detail: "name must be a string".into(),
                    })
            })
            .transpose()?
            .unwrap_or_else(|| "campaign".into());

        let epsilons = match root.get("epsilons") {
            None => vec![0.0],
            Some(v) => f64_array(v, "epsilons")?,
        };
        for &eps in &epsilons {
            if !(0.0..0.5).contains(&eps) {
                return Err(ScenarioError::Spec {
                    line: 0,
                    detail: format!("epsilon {eps} outside [0, ½)"),
                });
            }
        }

        let seeds = match root.get("seeds") {
            None => vec![1],
            Some(v) => {
                let raw = i64_array(v, "seeds")?;
                raw.into_iter()
                    .map(|s| {
                        u64::try_from(s).map_err(|_| ScenarioError::Spec {
                            line: 0,
                            detail: format!("seed {s} must be non-negative"),
                        })
                    })
                    .collect::<Result<Vec<u64>, _>>()?
            }
        };

        let protocols = match root.get("protocols") {
            None => {
                return Err(ScenarioError::Spec {
                    line: 0,
                    detail: "missing protocols = [\"…\"]".into(),
                })
            }
            Some(v) => str_array(v, "protocols")?
                .into_iter()
                .map(|name| {
                    Protocol::from_name(&name).ok_or(ScenarioError::Spec {
                        line: 0,
                        detail: format!("unknown protocol {name:?}"),
                    })
                })
                .collect::<Result<Vec<Protocol>, _>>()?,
        };

        let mut topologies = Vec::new();
        for (line, table) in topo_tables {
            let table = Json::Obj(table);
            let family_name =
                table
                    .get("family")
                    .and_then(Json::as_str)
                    .ok_or(ScenarioError::Spec {
                        line,
                        detail: "[[topology]] needs family = \"…\"".into(),
                    })?;
            // Reject keys the named family does not accept (same
            // rationale as the root-key check: "deg" on a
            // random_regular table must not silently run degree 4).
            let allowed: &[&str] = match family_name {
                "random_geometric" | "rgg" => &["radius"],
                "random_regular" | "regular" => &["degree"],
                "gnp" => &["expected_degree"],
                "preferential_attachment" | "pa" => &["m"],
                _ => &[],
            };
            if let Json::Obj(pairs) = &table {
                for (key, _) in pairs {
                    if key != "family" && key != "sizes" && !allowed.contains(&key.as_str()) {
                        return Err(ScenarioError::Spec {
                            line,
                            detail: format!(
                                "unknown key {key:?} for family {family_name:?} \
                                 (accepted: family, sizes{}{})",
                                if allowed.is_empty() { "" } else { ", " },
                                allowed.join(", ")
                            ),
                        });
                    }
                }
            }
            let family = TopologyFamily::from_spec(family_name, &table, line)?;
            let sizes = match table.get("sizes") {
                None => {
                    return Err(ScenarioError::Spec {
                        line,
                        detail: "[[topology]] needs sizes = […]".into(),
                    })
                }
                Some(v) => i64_array(v, "sizes")?
                    .into_iter()
                    .map(|s| {
                        usize::try_from(s).map_err(|_| ScenarioError::Spec {
                            line,
                            detail: format!("size {s} must be non-negative"),
                        })
                    })
                    .collect::<Result<Vec<usize>, _>>()?,
            };
            topologies.push(TopologySpec { family, sizes });
        }
        if topologies.is_empty() {
            return Err(ScenarioError::Spec {
                line: 0,
                detail: "spec has no [[topology]] tables".into(),
            });
        }

        let mut channels = Vec::new();
        let mut labels: Vec<String> = epsilons
            .iter()
            .map(|&epsilon| ChannelSpec::Iid { epsilon }.label())
            .collect();
        for (line, table) in channel_tables {
            let channel = ChannelSpec::from_spec(&Json::Obj(table), line)?;
            let label = channel.label();
            // Two identical channel entries (or an iid one shadowing an
            // epsilons value) would collide on cell ids — and therefore
            // on cell seeds.
            if labels.contains(&label) {
                return Err(ScenarioError::Spec {
                    line,
                    detail: format!("duplicate channel {label:?} in the channel axis"),
                });
            }
            labels.push(label);
            channels.push(channel);
        }

        let mut faults = Vec::new();
        let mut fault_labels: Vec<String> = Vec::new();
        for (line, table) in fault_tables {
            let fault = FaultSpec::from_spec(&Json::Obj(table), line)?;
            let label = fault.label();
            // Same rationale as channel labels: two identical fault
            // entries would collide on cell ids, and therefore on seeds.
            if fault_labels.contains(&label) {
                return Err(ScenarioError::Spec {
                    line,
                    detail: format!("duplicate fault {label:?} in the fault axis"),
                });
            }
            fault_labels.push(label);
            faults.push(fault);
        }

        Ok(CampaignSpec {
            name,
            topologies,
            epsilons,
            channels,
            faults,
            protocols,
            seeds,
        })
    }
}

/// Strips a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses one `key = value` line into a [`Json`] value.
fn parse_assignment(line: &str, line_no: usize) -> Result<(String, Json), ScenarioError> {
    let spec_err = |detail: String| ScenarioError::Spec {
        line: line_no,
        detail,
    };
    let (key, value) = line
        .split_once('=')
        .ok_or_else(|| spec_err(format!("expected key = value, got {line:?}")))?;
    let key = key.trim();
    if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return Err(spec_err(format!("invalid key {key:?}")));
    }
    let value = parse_value(value.trim(), line_no)?;
    Ok((key.to_string(), value))
}

fn parse_value(text: &str, line_no: usize) -> Result<Json, ScenarioError> {
    let spec_err = |detail: String| ScenarioError::Spec {
        line: line_no,
        detail,
    };
    if text.starts_with('[') {
        if !text.ends_with(']') {
            return Err(spec_err("arrays must close on the same line".into()));
        }
        let inner = &text[1..text.len() - 1];
        let mut items = Vec::new();
        for part in split_top_level(inner) {
            let part = part.trim();
            if part.starts_with('[') {
                return Err(spec_err("nested arrays are not supported".into()));
            }
            if !part.is_empty() {
                items.push(parse_value(part, line_no)?);
            }
        }
        return Ok(Json::Arr(items));
    }
    if text.starts_with('"') {
        if text.len() < 2 || !text.ends_with('"') || text[1..text.len() - 1].contains('"') {
            return Err(spec_err(format!("malformed string {text:?}")));
        }
        return Ok(Json::Str(text[1..text.len() - 1].to_string()));
    }
    match text {
        "true" => return Ok(Json::Bool(true)),
        "false" => return Ok(Json::Bool(false)),
        _ => {}
    }
    if let Ok(i) = text.parse::<i64>() {
        return Ok(Json::Int(i));
    }
    if let Ok(f) = text.parse::<f64>() {
        if f.is_finite() {
            return Ok(Json::Float(f));
        }
    }
    Err(spec_err(format!("cannot parse value {text:?}")))
}

/// Splits on top-level commas (strings may contain commas).
fn split_top_level(text: &str) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut in_string = false;
    for (i, c) in text.char_indices() {
        match c {
            '"' => in_string = !in_string,
            ',' if !in_string => {
                parts.push(&text[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    parts.push(&text[start..]);
    parts
}

fn f64_array(v: &Json, key: &str) -> Result<Vec<f64>, ScenarioError> {
    v.as_array()
        .map(|items| items.iter().map(Json::as_f64).collect::<Option<Vec<f64>>>())
        .and_then(|x| x)
        .ok_or(ScenarioError::Spec {
            line: 0,
            detail: format!("{key} must be an array of numbers"),
        })
}

fn i64_array(v: &Json, key: &str) -> Result<Vec<i64>, ScenarioError> {
    v.as_array()
        .map(|items| items.iter().map(Json::as_i64).collect::<Option<Vec<i64>>>())
        .and_then(|x| x)
        .ok_or(ScenarioError::Spec {
            line: 0,
            detail: format!("{key} must be an array of integers"),
        })
}

fn str_array(v: &Json, key: &str) -> Result<Vec<String>, ScenarioError> {
    v.as_array()
        .map(|items| {
            items
                .iter()
                .map(|i| i.as_str().map(ToString::to_string))
                .collect::<Option<Vec<String>>>()
        })
        .and_then(|x| x)
        .ok_or(ScenarioError::Spec {
            line: 0,
            detail: format!("{key} must be an array of strings"),
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"
        # a demo campaign
        name = "demo"
        seeds = [1, 2]
        epsilons = [0.0, 0.05]   # noiseless + light noise
        protocols = ["matching", "round_sim"]

        [[topology]]
        family = "cycle"
        sizes = [8, 16]

        [[topology]]
        family = "random_regular"
        sizes = [12]
        degree = 4

        [[channel]]
        model = "ge"              # bursty channel alongside the ε sweep
        eps_good = 0.01
        eps_bad = 0.2
        p_good_to_bad = 0.1
        p_bad_to_good = 0.5
    "#;

    #[test]
    fn parses_the_demo_spec() {
        let spec = CampaignSpec::parse(SPEC).unwrap();
        assert_eq!(spec.name, "demo");
        assert_eq!(spec.seeds, vec![1, 2]);
        assert_eq!(spec.epsilons, vec![0.0, 0.05]);
        assert_eq!(spec.protocols, vec![Protocol::Matching, Protocol::RoundSim]);
        assert_eq!(spec.topologies.len(), 2);
        assert_eq!(
            spec.topologies[1].family,
            TopologyFamily::RandomRegular { degree: 4 }
        );
        assert_eq!(
            spec.channels,
            vec![ChannelSpec::GilbertElliott {
                eps_good: 0.01,
                eps_bad: 0.2,
                p_good_to_bad: 0.1,
                p_bad_to_good: 0.5,
            }]
        );
        assert!(spec.faults.is_empty(), "no [[faults]] tables in the demo");
        assert_eq!(spec.fault_axis(), vec![None]);
    }

    #[test]
    fn fault_specs_parse_and_label() {
        let spec = CampaignSpec::parse(concat!(
            "protocols = [\"beep_consensus\"]\n",
            "[[topology]]\nfamily = \"complete\"\nsizes = [8]\n",
            "[[faults]]\nkind = \"crash\"\nfraction = 0.25\nround = 8\n",
            "[[faults]]\nkind = \"spam\"\nfraction = 0.125\n",
            "[[faults]]\nkind = \"mute\"\nfraction = 0.5\n",
        ))
        .unwrap();
        assert_eq!(
            spec.faults,
            vec![
                FaultSpec {
                    kind: Some(FaultKind::Crash { round: 8 }),
                    fraction: 0.25,
                    policy: None,
                },
                FaultSpec {
                    kind: Some(FaultKind::ByzantineSpam),
                    fraction: 0.125,
                    policy: None,
                },
                FaultSpec {
                    kind: Some(FaultKind::ByzantineMute),
                    fraction: 0.5,
                    policy: None,
                },
            ]
        );
        let labels: Vec<String> = spec.faults.iter().map(FaultSpec::label).collect();
        assert_eq!(labels, vec!["crash-f0.25-r8", "spam-f0.125", "mute-f0.5"]);
        // The axis leads with the implicit fault-free entry.
        assert_eq!(spec.fault_axis().len(), 4);
        assert_eq!(spec.fault_axis()[0], None);
    }

    #[test]
    fn adaptive_policy_specs_parse_and_label() {
        let spec = CampaignSpec::parse(concat!(
            "protocols = [\"beep_ben_or\"]\n",
            "[[topology]]\nfamily = \"complete\"\nsizes = [8]\n",
            "[[faults]]\npolicy = \"target_loudest\"\nbudget_frac = 0.25\n",
            "[[faults]]\npolicy = \"rushing_spam\"\nbudget_frac = 0.125\nwindow = 2\n",
            "[[faults]]\nkind = \"mute\"\nfraction = 0.125\n",
            "policy = \"rushing_spam\"\nbudget_frac = 0.25\nwindow = 1\n",
        ))
        .unwrap();
        assert_eq!(
            spec.faults,
            vec![
                FaultSpec {
                    kind: None,
                    fraction: 0.0,
                    policy: Some(PolicySpec::TargetLoudest { budget_frac: 0.25 }),
                },
                FaultSpec {
                    kind: None,
                    fraction: 0.0,
                    policy: Some(PolicySpec::RushingSpam {
                        budget_frac: 0.125,
                        window: 2,
                    }),
                },
                FaultSpec {
                    kind: Some(FaultKind::ByzantineMute),
                    fraction: 0.125,
                    policy: Some(PolicySpec::RushingSpam {
                        budget_frac: 0.25,
                        window: 1,
                    }),
                },
            ]
        );
        let labels: Vec<String> = spec.faults.iter().map(FaultSpec::label).collect();
        assert_eq!(
            labels,
            vec![
                "loudest-f0.25",
                "rushing-f0.125-w2",
                "mute-f0.125+rushing-f0.25-w1",
            ]
        );
    }

    #[test]
    fn adaptive_fault_specs_realize_scaled_budgets() {
        let spec = FaultSpec {
            kind: None,
            fraction: 0.0,
            policy: Some(PolicySpec::TargetLoudest { budget_frac: 0.25 }),
        };
        let plan = spec.realize(16, 5).unwrap();
        assert_eq!(plan.len(), 0, "purely adaptive: no static assignments");
        assert_eq!(
            plan.policy(),
            Some(AdaptivePolicy::TargetLoudest { budget: 4 })
        );
        assert!(plan.is_adaptive());
        // Composed: static realization plus the resolved policy.
        let both = FaultSpec {
            kind: Some(FaultKind::ByzantineMute),
            fraction: 0.25,
            policy: Some(PolicySpec::RushingSpam {
                budget_frac: 0.125,
                window: 2,
            }),
        };
        let plan = both.realize(16, 5).unwrap();
        assert_eq!(plan.len(), 4);
        assert_eq!(
            plan.policy(),
            Some(AdaptivePolicy::RushingSpam {
                budget: 2,
                window: 2
            })
        );
        // A zero-budget fraction resolves to the no-op policy, which
        // keeps the plan behaviourally empty.
        let noop = FaultSpec {
            kind: None,
            fraction: 0.0,
            policy: Some(PolicySpec::TargetLoudest { budget_frac: 0.01 }),
        };
        assert!(noop.realize(8, 1).unwrap().is_empty());
    }

    #[test]
    fn fault_axis_extends_ids_without_touching_fault_free_cells() {
        let base = concat!(
            "protocols = [\"beep_consensus\"]\nseeds = [1]\n",
            "[[topology]]\nfamily = \"complete\"\nsizes = [8]\n",
        );
        let faulted = format!("{base}[[faults]]\nkind = \"mute\"\nfraction = 0.25\n");
        let plain_cells = CampaignSpec::parse(base).unwrap().expand().unwrap();
        let cells = CampaignSpec::parse(&faulted).unwrap().expand().unwrap();
        assert_eq!(cells.len(), 2 * plain_cells.len());
        // Fault-free cells are byte-identical to the pre-fault spec's —
        // same five-segment ids, same derived seeds.
        assert_eq!(cells[0].id, "complete/n8/eps0/beep_consensus/s1");
        assert_eq!(cells[0].id, plain_cells[0].id);
        assert_eq!(cells[0].cell_seed, plain_cells[0].cell_seed);
        assert_eq!(cells[0].fault, None);
        // Faulted cells splice the label in before the protocol.
        assert_eq!(cells[1].id, "complete/n8/eps0/mute-f0.25/beep_consensus/s1");
        assert_eq!(
            cells[1].fault,
            Some(FaultSpec {
                kind: Some(FaultKind::ByzantineMute),
                fraction: 0.25,
                policy: None,
            })
        );
        assert_eq!(cells[1].cell_seed, cell_seed(&cells[1].id));
    }

    #[test]
    fn fault_spec_realizes_a_plan_from_the_cell_seed() {
        let spec = FaultSpec {
            kind: Some(FaultKind::Crash { round: 3 }),
            fraction: 0.5,
            policy: None,
        };
        let plan = spec.realize(8, 77).unwrap();
        assert_eq!(plan.len(), 4, "⌊0.5 · 8⌋ nodes");
        assert_eq!(
            plan.assignments(),
            spec.realize(8, 77).unwrap().assignments()
        );
        assert!(plan
            .assignments()
            .iter()
            .all(|&(_, k)| k == FaultKind::Crash { round: 3 }));
    }

    #[test]
    fn expansion_is_the_full_product_in_stable_order() {
        let spec = CampaignSpec::parse(SPEC).unwrap();
        let cells = spec.expand().unwrap();
        // (2 + 1 sizes) × (2 ε + 1 channel) × 2 protocols × 2 seeds.
        assert_eq!(cells.len(), 3 * 3 * 2 * 2);
        assert_eq!(cells[0].id, "cycle/n8/eps0/matching/s1");
        assert_eq!(cells[1].id, "cycle/n8/eps0/matching/s2");
        // The [[channel]] entries extend the ε axis after the epsilons.
        assert_eq!(
            cells[8].id,
            "cycle/n8/ge-g0.01-b0.2-pgb0.1-pbg0.5/matching/s1"
        );
        assert!(
            (cells[8].epsilon - 0.2).abs() < 1e-12,
            "calibration = max rate"
        );
        // Cell seeds depend only on the id.
        assert_eq!(cells[0].cell_seed, cell_seed("cycle/n8/eps0/matching/s1"));
        let ids: std::collections::HashSet<&str> = cells.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(ids.len(), cells.len(), "ids are unique");
    }

    #[test]
    fn defaults_fill_in() {
        let spec = CampaignSpec::parse(
            "protocols = [\"mis\"]\n[[topology]]\nfamily = \"path\"\nsizes = [4]\n",
        )
        .unwrap();
        assert_eq!(spec.name, "campaign");
        assert_eq!(spec.seeds, vec![1]);
        assert_eq!(spec.epsilons, vec![0.0]);
        assert_eq!(spec.channels, vec![]);
    }

    #[test]
    fn channel_specs_parse_for_every_model() {
        let spec = CampaignSpec::parse(concat!(
            "protocols = [\"round_sim\"]\n",
            "epsilons = [0.0]\n",
            "[[topology]]\nfamily = \"cycle\"\nsizes = [8]\n",
            "[[channel]]\nmodel = \"iid\"\nepsilon = 0.1\n",
            "[[channel]]\nmodel = \"gilbert_elliott\"\neps_good = 0.0\neps_bad = 0.25\n",
            "p_good_to_bad = 0.05\np_bad_to_good = 0.4\n",
            "[[channel]]\nmodel = \"per_node\"\npattern = [0.0, 0.05]\n",
            "[[channel]]\nmodel = \"adversarial\"\nbudget_frac = 0.1\ndesign_epsilon = 0.05\n",
        ))
        .unwrap();
        let labels: Vec<String> = spec.channels.iter().map(ChannelSpec::label).collect();
        assert_eq!(
            labels,
            vec![
                "eps0.1",
                "ge-g0-b0.25-pgb0.05-pbg0.4",
                "pernode-0-0.05",
                "adv-f0.1-e0.05",
            ]
        );
        // The axis is the ε sweep followed by the [[channel]] entries.
        assert_eq!(spec.channel_axis().len(), 5);
        assert_eq!(spec.channel_axis()[0], ChannelSpec::Iid { epsilon: 0.0 });
    }

    #[test]
    fn channel_build_scales_the_adversary_budget_with_n() {
        let spec = ChannelSpec::Adversarial {
            budget_frac: 0.25,
            design_epsilon: 0.05,
        };
        for (n, expected) in [(10, 3), (64, 16), (0, 0)] {
            match spec.build(n).unwrap() {
                ChannelModel::AdversarialErasure(adv) => assert_eq!(adv.budget(), expected),
                other => panic!("expected adversary, got {other:?}"),
            }
        }
        // The other models ignore n entirely.
        let ge = ChannelSpec::GilbertElliott {
            eps_good: 0.01,
            eps_bad: 0.2,
            p_good_to_bad: 0.1,
            p_bad_to_good: 0.5,
        };
        assert_eq!(ge.build(4).unwrap(), ge.build(4096).unwrap());
    }

    #[test]
    fn deeply_nested_array_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(100_000) + &"]".repeat(100_000);
        let text =
            format!("protocols = [\"mis\"]\n[[topology]]\nfamily = \"path\"\nsizes = {deep}");
        let err = CampaignSpec::parse(&text).unwrap_err().to_string();
        assert!(err.contains("nested arrays"), "{err}");
    }

    #[test]
    fn rejects_malformed_specs() {
        for (bad, needle) in [
            ("protocols = [\"nope\"]\n[[topology]]\nfamily = \"path\"\nsizes = [4]", "unknown protocol"),
            ("protocols = [\"mis\"]", "no [[topology]]"),
            ("protocols = [\"mis\"]\n[[topology]]\nsizes = [4]", "needs family"),
            ("protocols = [\"mis\"]\n[[topology]]\nfamily = \"zzz\"\nsizes = [4]", "unknown topology family"),
            ("epsilons = [0.6]\nprotocols = [\"mis\"]\n[[topology]]\nfamily = \"path\"\nsizes = [4]", "outside"),
            ("protocols = [\"mis\"]\n[table]\n", "unsupported table"),
            ("protocols = [\"mis\"]\nprotocols = [\"mis\"]", "duplicate key"),
            ("x y z", "key = value"),
            // Typo'd axis name: must be rejected, not defaulted away.
            (
                "epsilon = [0.1]\nprotocols = [\"mis\"]\n[[topology]]\nfamily = \"path\"\nsizes = [4]",
                "unknown key \"epsilon\"",
            ),
            // Parameter the named family does not accept.
            (
                "protocols = [\"mis\"]\n[[topology]]\nfamily = \"random_regular\"\nsizes = [4]\ndeg = 6",
                "unknown key \"deg\"",
            ),
            (
                "protocols = [\"mis\"]\n[[topology]]\nfamily = \"cycle\"\nsizes = [4]\nradius = 0.5",
                "unknown key \"radius\"",
            ),
            // Channel tables: same strictness as topology tables.
            (
                "protocols = [\"mis\"]\n[[topology]]\nfamily = \"path\"\nsizes = [4]\n[[channel]]\nepsilon = 0.1",
                "needs model",
            ),
            (
                "protocols = [\"mis\"]\n[[topology]]\nfamily = \"path\"\nsizes = [4]\n[[channel]]\nmodel = \"zzz\"",
                "unknown channel model",
            ),
            (
                "protocols = [\"mis\"]\n[[topology]]\nfamily = \"path\"\nsizes = [4]\n[[channel]]\nmodel = \"iid\"\nepsilon = 0.6",
                "outside [0, ½)",
            ),
            (
                "protocols = [\"mis\"]\n[[topology]]\nfamily = \"path\"\nsizes = [4]\n[[channel]]\nmodel = \"iid\"\neps_bad = 0.1",
                "unknown key \"eps_bad\"",
            ),
            (
                "protocols = [\"mis\"]\n[[topology]]\nfamily = \"path\"\nsizes = [4]\n[[channel]]\nmodel = \"ge\"\neps_good = 0.0\neps_bad = 0.2\np_good_to_bad = 0.1",
                "needs p_bad_to_good",
            ),
            (
                "protocols = [\"mis\"]\n[[topology]]\nfamily = \"path\"\nsizes = [4]\n[[channel]]\nmodel = \"adv\"\nbudget_frac = 1.5\ndesign_epsilon = 0.1",
                "outside [0, 1]",
            ),
            (
                "protocols = [\"mis\"]\n[[topology]]\nfamily = \"path\"\nsizes = [4]\n[[channel]]\nmodel = \"per_node\"\npattern = []",
                "non-empty",
            ),
            // An iid channel shadowing an epsilons entry collides on ids.
            (
                "epsilons = [0.05]\nprotocols = [\"mis\"]\n[[topology]]\nfamily = \"path\"\nsizes = [4]\n[[channel]]\nmodel = \"iid\"\nepsilon = 0.05",
                "duplicate channel",
            ),
            // Fault tables: same strictness as the other table arrays.
            (
                "protocols = [\"mis\"]\n[[topology]]\nfamily = \"path\"\nsizes = [4]\n[[faults]]\nfraction = 0.1",
                "needs kind",
            ),
            (
                "protocols = [\"mis\"]\n[[topology]]\nfamily = \"path\"\nsizes = [4]\n[[faults]]\nkind = \"gray\"\nfraction = 0.1",
                "unknown fault kind",
            ),
            (
                "protocols = [\"mis\"]\n[[topology]]\nfamily = \"path\"\nsizes = [4]\n[[faults]]\nkind = \"spam\"",
                "needs fraction",
            ),
            (
                "protocols = [\"mis\"]\n[[topology]]\nfamily = \"path\"\nsizes = [4]\n[[faults]]\nkind = \"spam\"\nfraction = 1.5",
                "outside [0, 1]",
            ),
            (
                "protocols = [\"mis\"]\n[[topology]]\nfamily = \"path\"\nsizes = [4]\n[[faults]]\nkind = \"crash\"\nfraction = 0.1",
                "crash faults need round",
            ),
            (
                "protocols = [\"mis\"]\n[[topology]]\nfamily = \"path\"\nsizes = [4]\n[[faults]]\nkind = \"crash\"\nfraction = 0.1\nround = -2",
                "crash faults need round",
            ),
            // `round` only means something for crashes.
            (
                "protocols = [\"mis\"]\n[[topology]]\nfamily = \"path\"\nsizes = [4]\n[[faults]]\nkind = \"mute\"\nfraction = 0.1\nround = 3",
                "unknown key \"round\"",
            ),
            // Two identical fault entries collide on ids.
            (
                "protocols = [\"mis\"]\n[[topology]]\nfamily = \"path\"\nsizes = [4]\n[[faults]]\nkind = \"spam\"\nfraction = 0.1\n[[faults]]\nkind = \"spam\"\nfraction = 0.1",
                "duplicate fault",
            ),
            // Adaptive policies: same strictness as static kinds.
            (
                "protocols = [\"mis\"]\n[[topology]]\nfamily = \"path\"\nsizes = [4]\n[[faults]]\npolicy = \"zzz\"\nbudget_frac = 0.1",
                "unknown fault policy",
            ),
            (
                "protocols = [\"mis\"]\n[[topology]]\nfamily = \"path\"\nsizes = [4]\n[[faults]]\npolicy = \"target_loudest\"",
                "needs budget_frac",
            ),
            (
                "protocols = [\"mis\"]\n[[topology]]\nfamily = \"path\"\nsizes = [4]\n[[faults]]\npolicy = \"target_loudest\"\nbudget_frac = 1.5",
                "outside [0, 1]",
            ),
            (
                "protocols = [\"mis\"]\n[[topology]]\nfamily = \"path\"\nsizes = [4]\n[[faults]]\npolicy = \"rushing_spam\"\nbudget_frac = 0.1",
                "rushing_spam needs window",
            ),
            // `window` only means something for rushing_spam.
            (
                "protocols = [\"mis\"]\n[[topology]]\nfamily = \"path\"\nsizes = [4]\n[[faults]]\npolicy = \"target_loudest\"\nbudget_frac = 0.1\nwindow = 2",
                "unknown key \"window\"",
            ),
            // A purely adaptive entry has no static fraction to sweep.
            (
                "protocols = [\"mis\"]\n[[topology]]\nfamily = \"path\"\nsizes = [4]\n[[faults]]\nfraction = 0.1\npolicy = \"target_loudest\"\nbudget_frac = 0.1",
                "unknown key \"fraction\"",
            ),
        ] {
            let err = CampaignSpec::parse(bad).unwrap_err().to_string();
            assert!(err.contains(needle), "{bad:?} → {err}");
        }
    }

    #[test]
    fn empty_axis_is_an_empty_matrix() {
        let spec =
            CampaignSpec::parse("protocols = []\n[[topology]]\nfamily = \"path\"\nsizes = [4]\n")
                .unwrap();
        assert_eq!(spec.expand().unwrap_err(), ScenarioError::EmptyMatrix);
    }

    #[test]
    fn families_build_deterministically() {
        for family in [
            TopologyFamily::Cycle,
            TopologyFamily::Torus,
            TopologyFamily::RandomGeometric { radius: None },
            TopologyFamily::RandomRegular { degree: 4 },
            TopologyFamily::PreferentialAttachment { m: 2 },
            TopologyFamily::Gnp {
                expected_degree: 4.0,
            },
            TopologyFamily::RandomTree,
        ] {
            let (a, pa) = family.build(16, 9).unwrap();
            let (b, pb) = family.build(16, 9).unwrap();
            assert_eq!(a.edges(), b.edges(), "{}", family.label());
            assert_eq!(pa, pb);
        }
    }

    #[test]
    fn torus_and_grid_realize_near_the_request() {
        let (g, _) = TopologyFamily::Torus.build(16, 0).unwrap();
        assert_eq!(g.node_count(), 16);
        let (g, _) = TopologyFamily::Grid.build(10, 0).unwrap();
        assert!(g.node_count() >= 10);
        assert!(TopologyFamily::Torus.build(4, 0).is_err());
    }

    #[test]
    fn auto_rgg_radius_is_recorded_and_mostly_connects() {
        let (g, params) = TopologyFamily::RandomGeometric { radius: None }
            .build(64, 3)
            .unwrap();
        assert_eq!(params.len(), 1);
        assert!(params[0].1 > 0.0);
        // Above the connectivity threshold the giant component should
        // dominate; allow stragglers but not dust.
        assert!(g.edge_count() > 64);
    }
}
