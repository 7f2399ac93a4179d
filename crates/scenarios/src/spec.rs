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
//!
//! One reader checks every table, the root included. A key the table does
//! not accept, a missing required key, and a present value of the wrong
//! type or outside its range are errors that name the table's line (line
//! 0 for the root). A spec never falls back to a default for a value it
//! states: `radius = "0.3"` is an error, not the auto radius.

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

    /// Reads a family from a `[[topology]]` table: its `family` name and
    /// that family's parameters. Each arm names the keys its table may
    /// hold; a parameter left out takes the family's default (degree 4,
    /// expected degree 4, m = 2, the auto radius).
    fn from_spec(t: &Table) -> Result<TopologyFamily, ScenarioError> {
        let plain = |family| t.accept(&["family", "sizes"]).map(|()| family);
        Ok(match t.need::<String>("family")?.as_str() {
            "cycle" => plain(TopologyFamily::Cycle)?,
            "path" => plain(TopologyFamily::Path)?,
            "complete" => plain(TopologyFamily::Complete)?,
            "star" => plain(TopologyFamily::Star)?,
            "grid" => plain(TopologyFamily::Grid)?,
            "torus" => plain(TopologyFamily::Torus)?,
            "binary_tree" => plain(TopologyFamily::BinaryTree)?,
            "random_tree" | "tree" => plain(TopologyFamily::RandomTree)?,
            "complete_bipartite" | "bipartite" => plain(TopologyFamily::CompleteBipartite)?,
            "random_geometric" | "rgg" => {
                t.accept(&["family", "sizes", "radius"])?;
                TopologyFamily::RandomGeometric {
                    radius: t.get("radius")?,
                }
            }
            "random_regular" | "regular" => {
                t.accept(&["family", "sizes", "degree"])?;
                TopologyFamily::RandomRegular {
                    degree: t.get("degree")?.unwrap_or(4),
                }
            }
            "gnp" => {
                t.accept(&["family", "sizes", "expected_degree"])?;
                TopologyFamily::Gnp {
                    expected_degree: t.get("expected_degree")?.unwrap_or(4.0),
                }
            }
            "preferential_attachment" | "pa" => {
                t.accept(&["family", "sizes", "m"])?;
                TopologyFamily::PreferentialAttachment {
                    m: t.get("m")?.unwrap_or(2),
                }
            }
            other => return Err(t.err(format!("unknown topology family {other:?}"))),
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

    /// Reads a `[[channel]]` table: a `model` discriminator plus the
    /// model's parameter keys, all required, range-checked here so a bad
    /// spec fails at parse time rather than as a sea of failed cells.
    fn from_spec(t: &Table) -> Result<ChannelSpec, ScenarioError> {
        Ok(match t.need::<String>("model")?.as_str() {
            "iid" => {
                t.accept(&["model", "epsilon"])?;
                ChannelSpec::Iid {
                    epsilon: t.rate("epsilon")?,
                }
            }
            "ge" | "gilbert_elliott" => {
                t.accept(&[
                    "model",
                    "eps_good",
                    "eps_bad",
                    "p_good_to_bad",
                    "p_bad_to_good",
                ])?;
                ChannelSpec::GilbertElliott {
                    eps_good: t.rate("eps_good")?,
                    eps_bad: t.rate("eps_bad")?,
                    p_good_to_bad: t.unit("p_good_to_bad")?,
                    p_bad_to_good: t.unit("p_bad_to_good")?,
                }
            }
            "per_node" | "pernode" => {
                t.accept(&["model", "pattern"])?;
                let pattern: Vec<f64> = t.need("pattern")?;
                if pattern.is_empty() {
                    return Err(t.err("pattern must be non-empty".into()));
                }
                for &rate in &pattern {
                    t.check_rate("pattern", rate)?;
                }
                ChannelSpec::PerNode { pattern }
            }
            "adversarial" | "adv" => {
                t.accept(&["model", "budget_frac", "design_epsilon"])?;
                ChannelSpec::Adversarial {
                    budget_frac: t.unit("budget_frac")?,
                    design_epsilon: t.rate("design_epsilon")?,
                }
            }
            other => return Err(t.err(format!("unknown channel model {other:?}"))),
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

    /// Reads a `[[faults]]` table: `kind = "crash"|"spam"|"mute"` with
    /// `fraction ∈ [0, 1]` (plus, crash only, the first dead `round`),
    /// and/or `policy = "target_loudest"|"rushing_spam"` with
    /// `budget_frac ∈ [0, 1]` (plus, rushing only, the post-activity
    /// `window`). At least one of `kind`/`policy` is required. Each arm
    /// adds the keys it reads to the ones the table may hold.
    fn from_spec(t: &Table) -> Result<FaultSpec, ScenarioError> {
        let kind_name: Option<String> = t.get("kind")?;
        let policy_name: Option<String> = t.get("policy")?;
        if kind_name.is_none() && policy_name.is_none() {
            return Err(t.err(
                "[[faults]] needs kind = \"crash\"|\"spam\"|\"mute\" \
                 and/or policy = \"target_loudest\"|\"rushing_spam\""
                    .into(),
            ));
        }
        let mut keys = vec!["kind", "policy"];
        let kind = match kind_name.as_deref() {
            None => None,
            Some("crash") => {
                keys.extend(["fraction", "round"]);
                let round = t.need("round").map_err(|_| {
                    t.err("crash faults need round = <non-negative integer>".into())
                })?;
                Some(FaultKind::Crash { round })
            }
            Some("spam") => {
                keys.push("fraction");
                Some(FaultKind::ByzantineSpam)
            }
            Some("mute") => {
                keys.push("fraction");
                Some(FaultKind::ByzantineMute)
            }
            Some(other) => return Err(t.err(format!("unknown fault kind {other:?}"))),
        };
        let fraction = match kind {
            Some(_) => t.unit("fraction")?,
            None => 0.0,
        };
        let policy = match policy_name.as_deref() {
            None => None,
            Some("target_loudest") => {
                keys.push("budget_frac");
                Some(PolicySpec::TargetLoudest {
                    budget_frac: t.unit("budget_frac")?,
                })
            }
            Some("rushing_spam") => {
                keys.extend(["budget_frac", "window"]);
                Some(PolicySpec::RushingSpam {
                    budget_frac: t.unit("budget_frac")?,
                    window: t.need("window").map_err(|_| {
                        t.err("rushing_spam needs window = <non-negative integer>".into())
                    })?,
                })
            }
            Some(other) => return Err(t.err(format!("unknown fault policy {other:?}"))),
        };
        t.accept(&keys)?;
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
        // One root table, then one table per [[topology]]/[[channel]]/
        // [[faults]] header in file order; the typed spec is read from
        // them.
        let mut root = Table::new("the root table", 0);
        let mut tables: Vec<Table> = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if line.starts_with('[') {
                if !["[[topology]]", "[[channel]]", "[[faults]]"].contains(&line) {
                    return Err(ScenarioError::Spec {
                        line: line_no,
                        detail: format!(
                            "unsupported table header {line:?} \
                             (only [[topology]], [[channel]], and [[faults]])"
                        ),
                    });
                }
                tables.push(Table::new(line, line_no));
                continue;
            }
            let (key, value) = parse_assignment(line, line_no)?;
            // Assignments belong to the most recent table header, or to
            // the root before the first header.
            let table = tables.last_mut().unwrap_or(&mut root);
            if table.pairs.iter().any(|(k, _)| *k == key) {
                return Err(ScenarioError::Spec {
                    line: line_no,
                    detail: format!("duplicate key {key:?}"),
                });
            }
            table.pairs.push((key, value));
        }

        root.accept(&["name", "seeds", "epsilons", "protocols"])?;
        let epsilons: Vec<f64> = root.get("epsilons")?.unwrap_or_else(|| vec![0.0]);
        for &epsilon in &epsilons {
            root.check_rate("epsilons", epsilon)?;
        }
        let protocols = root
            .need::<Vec<String>>("protocols")?
            .iter()
            .map(|name| {
                Protocol::from_name(name)
                    .ok_or_else(|| root.err(format!("unknown protocol {name:?}")))
            })
            .collect::<Result<Vec<Protocol>, _>>()?;
        let mut spec = CampaignSpec {
            name: root.get("name")?.unwrap_or_else(|| "campaign".into()),
            topologies: Vec::new(),
            epsilons,
            channels: Vec::new(),
            faults: Vec::new(),
            protocols,
            seeds: root.get("seeds")?.unwrap_or_else(|| vec![1]),
        };
        let mut channel_labels: Vec<String> =
            spec.channel_axis().iter().map(ChannelSpec::label).collect();
        let mut fault_labels: Vec<String> = Vec::new();
        for t in &tables {
            match t.header {
                "[[topology]]" => spec.topologies.push(TopologySpec {
                    family: TopologyFamily::from_spec(t)?,
                    sizes: t.need("sizes")?,
                }),
                "[[channel]]" => {
                    let channel = ChannelSpec::from_spec(t)?;
                    t.claim(&mut channel_labels, channel.label(), "channel")?;
                    spec.channels.push(channel);
                }
                _ => {
                    let fault = FaultSpec::from_spec(t)?;
                    t.claim(&mut fault_labels, fault.label(), "fault")?;
                    spec.faults.push(fault);
                }
            }
        }
        if spec.topologies.is_empty() {
            return Err(root.err("spec has no [[topology]] tables".into()));
        }
        Ok(spec)
    }
}

/// One table of a spec file: the root, or one `[[…]]` entry, with the
/// line its errors name (0 for the root, which has no header line).
/// Every key is read through it, so a key, type or range error reads the
/// same in every table. A key the table does not accept, a required key
/// that is missing and a present value of the wrong type are all errors:
/// a spec must fail loudly, not silently sweep a default.
struct Table<'a> {
    /// `[[topology]]`, `[[channel]]`, `[[faults]]` or `the root table`.
    header: &'a str,
    line: usize,
    pairs: Vec<(String, Json)>,
}

impl<'a> Table<'a> {
    fn new(header: &'a str, line: usize) -> Table<'a> {
        Table {
            header,
            line,
            pairs: Vec::new(),
        }
    }

    fn err(&self, detail: String) -> ScenarioError {
        ScenarioError::Spec {
            line: self.line,
            detail,
        }
    }

    /// Rejects the first key outside `accepted`.
    fn accept(&self, accepted: &[&str]) -> Result<(), ScenarioError> {
        match self
            .pairs
            .iter()
            .find(|(k, _)| !accepted.contains(&k.as_str()))
        {
            Some((key, _)) => Err(self.err(format!(
                "unknown key {key:?} in {} (accepted: {})",
                self.header,
                accepted.join(", ")
            ))),
            None => Ok(()),
        }
    }

    /// The value of `key`, `None` when the key is absent.
    fn get<T: SpecValue>(&self, key: &str) -> Result<Option<T>, ScenarioError> {
        let Some((_, value)) = self.pairs.iter().find(|(k, _)| k == key) else {
            return Ok(None);
        };
        T::read(value)
            .map(Some)
            .ok_or_else(|| self.err(format!("{key} must be a {}", T::noun())))
    }

    /// The value of the required `key`.
    fn need<T: SpecValue>(&self, key: &str) -> Result<T, ScenarioError> {
        self.get(key)?
            .ok_or_else(|| self.err(format!("{} needs {key} = <{}>", self.header, T::noun())))
    }

    /// The required flip rate `key`.
    fn rate(&self, key: &str) -> Result<f64, ScenarioError> {
        self.check_rate(key, self.need(key)?)
    }

    /// Checks a flip rate read from `key` against `[0, ½)`, the rates the
    /// paper's channel allows.
    fn check_rate(&self, key: &str, rate: f64) -> Result<f64, ScenarioError> {
        if (0.0..0.5).contains(&rate) {
            Ok(rate)
        } else {
            Err(self.err(format!("{key} {rate} outside [0, ½)")))
        }
    }

    /// The required probability or fraction of the nodes `key`, in
    /// `[0, 1]`.
    fn unit(&self, key: &str) -> Result<f64, ScenarioError> {
        let value: f64 = self.need(key)?;
        if (0.0..=1.0).contains(&value) {
            Ok(value)
        } else {
            Err(self.err(format!("{key} {value} outside [0, 1]")))
        }
    }

    /// Adds an axis entry's label to `labels`. Two equal entries (or an
    /// iid channel repeating an `epsilons` value) would collide on cell
    /// ids, and therefore on cell seeds.
    fn claim(
        &self,
        labels: &mut Vec<String>,
        label: String,
        axis: &str,
    ) -> Result<(), ScenarioError> {
        if labels.contains(&label) {
            return Err(self.err(format!("duplicate {axis} {label:?} in the {axis} axis")));
        }
        labels.push(label);
        Ok(())
    }
}

/// A type a spec value is read as.
trait SpecValue: Sized {
    /// What errors call the type ("number", "string array", …).
    fn noun() -> String;

    /// The value as this type, or `None` if it has another type.
    fn read(value: &Json) -> Option<Self>;
}

impl SpecValue for String {
    fn noun() -> String {
        "string".into()
    }

    fn read(value: &Json) -> Option<String> {
        value.as_str().map(ToString::to_string)
    }
}

impl SpecValue for f64 {
    fn noun() -> String {
        "number".into()
    }

    fn read(value: &Json) -> Option<f64> {
        value.as_f64()
    }
}

impl SpecValue for u64 {
    fn noun() -> String {
        "non-negative integer".into()
    }

    fn read(value: &Json) -> Option<u64> {
        value.as_i64().and_then(|v| u64::try_from(v).ok())
    }
}

impl SpecValue for usize {
    fn noun() -> String {
        u64::noun()
    }

    fn read(value: &Json) -> Option<usize> {
        value.as_i64().and_then(|v| usize::try_from(v).ok())
    }
}

impl<T: SpecValue> SpecValue for Vec<T> {
    fn noun() -> String {
        format!("{} array", T::noun())
    }

    fn read(value: &Json) -> Option<Vec<T>> {
        value.as_array()?.iter().map(T::read).collect()
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
            // A present value of the wrong type is an error, not the
            // default: the auto radius, degree 4, a policy-only entry.
            (
                "protocols = [\"mis\"]\n[[topology]]\nfamily = \"rgg\"\nsizes = [4]\nradius = \"0.3\"",
                "line 2: radius must be a number",
            ),
            (
                "protocols = [\"mis\"]\n[[topology]]\nfamily = \"gnp\"\nsizes = [4]\nexpected_degree = \"6\"",
                "line 2: expected_degree must be a number",
            ),
            (
                "protocols = [\"mis\"]\n[[topology]]\nfamily = \"path\"\nsizes = [4]\n[[faults]]\nkind = 5\npolicy = \"target_loudest\"\nbudget_frac = 0.1",
                "line 5: kind must be a string",
            ),
            // An integer beyond i64 is an error, not a saturated seed.
            (
                "seeds = [99999999999999999999]\nprotocols = [\"mis\"]\n[[topology]]\nfamily = \"path\"\nsizes = [4]",
                "seeds must be a non-negative integer array",
            ),
            // An array error names its table's line.
            (
                "protocols = [\"mis\"]\n[[topology]]\nfamily = \"path\"\nsizes = [4]\n[[channel]]\nmodel = \"per_node\"\npattern = [\"a\"]",
                "line 5: pattern must be a number array",
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
