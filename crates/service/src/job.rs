//! Job vocabulary: what a tenant submits, and how one attempt runs.
//!
//! A [`JobSpec`] is entirely *data* — workload, graph recipe, seed,
//! fault recipe, space budget, deadline, retry policy. Everything an
//! attempt does is derived from the spec deterministically, so the
//! service can replay, retry, and fingerprint jobs without hidden state.
//!
//! A [`GraphSpec`] names one seeded [`StreamFamily`], whose validity
//! rules, sizes and graph it uses; only its journal encoding is its own.

use crate::backoff::BackoffPolicy;
use csmpc_algorithms::amplify::StableOneShotIs;
use csmpc_algorithms::mpc_edge::BallGreedyColoringMpc;
use csmpc_algorithms::MpcVertexAlgorithm;
use csmpc_graph::fnv::Fnv1a;
use csmpc_graph::rng::Seed;
use csmpc_graph::{Graph, StreamFamily};
use csmpc_mpc::{Cluster, DistributedGraph, FaultPlan, MpcError};

/// Service-assigned job identity: the index of the submission, dense
/// from zero, so reports line up positionally with the submit order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

/// Scheduling priority. Ordering is semantic: `Low < Normal < High`.
/// Low-priority jobs are the first rung of the shedding ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Sheddable before anything else degrades.
    Low,
    /// Default.
    Normal,
    /// Dispatched ahead of everything at the fairness boundary.
    High,
}

impl Priority {
    /// Stable one-byte tag for the journal codec
    /// ([`crate::journal::JournalRecord`]). Tags are wire format: they
    /// must never be renumbered, only extended.
    pub(crate) fn tag(self) -> u8 {
        match self {
            Priority::Low => 0,
            Priority::Normal => 1,
            Priority::High => 2,
        }
    }

    /// Inverse of [`Priority::tag`]; `None` for an unknown byte (a
    /// corrupt or future-format journal).
    pub(crate) fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(Priority::Low),
            1 => Some(Priority::Normal),
            2 => Some(Priority::High),
            _ => None,
        }
    }
}

/// A deterministic graph recipe naming one seeded [`StreamFamily`].
/// Specs are *content*, not graph handles: two jobs with equal specs
/// share one built graph through the [`crate::GraphStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphSpec {
    /// [`StreamFamily::Cycle`].
    Cycle {
        /// Node count.
        n: usize,
    },
    /// [`StreamFamily::Path`].
    Path {
        /// Node count.
        n: usize,
    },
    /// [`StreamFamily::TwoCycles`] — two components, the stability
    /// workhorse.
    TwoCycles {
        /// Total nodes, split into two cycles (even, ≥ 6).
        n: usize,
    },
    /// [`StreamFamily::RandomTree`].
    RandomTree {
        /// Node count.
        n: usize,
        /// Generator seed (part of the content key).
        seed: u64,
    },
}

impl GraphSpec {
    /// The seeded family this recipe names.
    #[must_use]
    pub fn family(&self) -> StreamFamily {
        match *self {
            GraphSpec::Cycle { n } => StreamFamily::Cycle { n },
            GraphSpec::Path { n } => StreamFamily::Path { n },
            GraphSpec::TwoCycles { n } => StreamFamily::TwoCycles { n },
            GraphSpec::RandomTree { n, seed } => StreamFamily::RandomTree {
                n,
                seed: Seed(seed),
            },
        }
    }

    /// Materializes the recipe. Pure: equal specs build equal graphs.
    ///
    /// # Panics
    ///
    /// If [`GraphSpec::validate`] refuses the recipe.
    #[must_use]
    pub fn build(&self) -> Graph {
        self.family().materialize()
    }

    /// Checks the recipe with [`StreamFamily::validate`], without
    /// building it.
    ///
    /// # Errors
    ///
    /// Why [`GraphSpec::build`] would panic: a cycle on fewer than 3
    /// nodes, two cycles on an odd or fewer-than-6 node count, or more
    /// directed edges (`2m`) than the CSR's `u32` offsets can index.
    pub fn validate(&self) -> Result<(), String> {
        self.family()
            .validate()
            .map_err(|e| format!("invalid graph: {e}"))
    }

    /// Node count without building the graph.
    #[must_use]
    pub fn nodes(&self) -> usize {
        self.family().n()
    }

    /// Undirected edge count without building the graph.
    #[must_use]
    pub fn edges(&self) -> usize {
        self.family().m()
    }

    /// `graph_words` of the built graph (`2n + 2m`) without building it,
    /// or `None` if that overflows `usize`.
    #[must_use]
    pub fn words(&self) -> Option<usize> {
        self.nodes().checked_add(self.edges())?.checked_mul(2)
    }
}

/// What the job computes. Labels are normalized to `u64` so outcomes of
/// different workloads digest and compare uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// One-shot component-stable Luby MIS step (randomized, seeded).
    LubyMis,
    /// Connected-component labels via the accounted primitive.
    CcLabels,
    /// `(Δ+1)`-coloring by greedy simulation inside collected balls.
    BallColoring {
        /// Ball radius to collect.
        radius: usize,
    },
}

impl Workload {
    /// Short reporting name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            Workload::LubyMis => "luby-mis",
            Workload::CcLabels => "cc-labels",
            Workload::BallColoring { .. } => "ball-coloring",
        }
    }
}

/// A seeded fault recipe, instantiated per attempt against the job's
/// actual machine count. Equal specs always instantiate equal plans.
///
/// Only the crash and straggler events act on a service job. Every
/// service workload moves its words through the accounted primitives,
/// and only the exact engine's merge step reads the corruption rate, so
/// [`FaultSpec::corrupt_per_mille`] changes no job's output, `Stats` or
/// errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultSpec {
    /// Crash events to scatter.
    pub crashes: usize,
    /// Straggler events to scatter.
    pub stragglers: usize,
    /// Round horizon the events are scattered over.
    pub horizon: usize,
    /// Per-mille checksum corruption on delivered envelopes. Carried into
    /// the plan and the journal, but inert for every service workload
    /// (see [`FaultSpec`]).
    pub corrupt_per_mille: u16,
    /// Plan seed (independent of the job's algorithm seed).
    pub seed: u64,
}

impl FaultSpec {
    /// Builds the concrete plan for a cluster of `machines` machines.
    pub fn plan_for(&self, machines: usize) -> FaultPlan {
        FaultPlan::random(
            Seed(self.seed),
            machines,
            self.horizon,
            self.crashes,
            self.stragglers,
        )
        .with_corruption(self.corrupt_per_mille)
    }
}

/// Everything the service needs to run (and re-run) one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Owning tenant, the fairness unit.
    pub tenant: String,
    /// Scheduling priority.
    pub priority: Priority,
    /// What to compute.
    pub workload: Workload,
    /// On which graph.
    pub graph: GraphSpec,
    /// Shared algorithm seed: same seed ⇒ bit-identical output.
    pub seed: Seed,
    /// Optional fault recipe; `None` runs fault-free.
    pub faults: Option<FaultSpec>,
    /// Space exponent `φ` for this job's cluster (`S = n^φ`).
    pub phi: f64,
    /// Machine-space floor (ball workloads need head-room on test-scale
    /// inputs; see [`csmpc_mpc::MpcConfig::min_space`]).
    pub min_space: usize,
    /// Ledger-round deadline armed via
    /// [`Cluster::arm_job_deadline`]; `None` = unlimited.
    pub deadline_rounds: Option<usize>,
    /// Total attempt budget (first run + retries) before quarantine.
    pub max_attempts: u32,
    /// Job-level retry backoff schedule.
    pub backoff: BackoffPolicy,
    /// In-run recovery retry budget granted to attempt 1; later attempts
    /// escalate it by one per retry, so a plan that exhausts the first
    /// budget can still complete under a bounded number of job retries.
    pub recovery_retries: usize,
}

impl JobSpec {
    /// Checks everything the service would otherwise trip over when it
    /// builds the job's graph or cluster: the graph recipe, a space
    /// exponent `φ` that must be finite and lie in `(0, 1)`, and a
    /// nonzero space floor on an empty graph (where `n^φ` gives machines
    /// of 0 words).
    ///
    /// # Errors
    ///
    /// The first problem found, as the reason the service journals with
    /// the job's rejection.
    pub fn validate(&self) -> Result<(), String> {
        self.graph.validate()?;
        if !(self.phi > 0.0 && self.phi < 1.0) {
            return Err(format!(
                "invalid phi {}: the space exponent must be finite and lie in (0, 1)",
                self.phi
            ));
        }
        if self.graph.nodes() == 0 && self.min_space == 0 {
            return Err(
                "invalid min_space 0: an empty graph needs a space floor of at least 1 word".into(),
            );
        }
        Ok(())
    }

    /// A fault-free, undeadlined spec with service defaults — the base
    /// tests and the soak generator specialize from here.
    #[must_use]
    pub fn basic(tenant: &str, workload: Workload, graph: GraphSpec, seed: Seed) -> Self {
        JobSpec {
            tenant: tenant.to_owned(),
            priority: Priority::Normal,
            workload,
            graph,
            seed,
            faults: None,
            phi: 0.5,
            min_space: 64,
            deadline_rounds: None,
            max_attempts: 3,
            backoff: BackoffPolicy::default(),
            recovery_retries: 1,
        }
    }
}

/// Runs `workload` on `g`, charging `cluster`, with every label
/// normalized to `u64`. This is the service-layer charged entry point:
/// all wire activity below it flows through the accounted primitives.
///
/// # Errors
///
/// Any [`MpcError`] raised by the primitives — space violations, crash
/// budgets, armed job deadlines.
pub fn run_job(
    workload: &Workload,
    g: &Graph,
    cluster: &mut Cluster,
) -> Result<Vec<u64>, MpcError> {
    match *workload {
        Workload::LubyMis => Ok(StableOneShotIs
            .run(g, cluster)?
            .into_iter()
            .map(u64::from)
            .collect()),
        Workload::CcLabels => {
            let dg = DistributedGraph::distribute(g, cluster)?;
            let (labels, _rounds) = dg.cc_labels(cluster)?;
            Ok(labels)
        }
        Workload::BallColoring { radius } => Ok(BallGreedyColoringMpc { radius }
            .run(g, cluster)?
            .into_iter()
            .map(|c| c as u64)
            .collect()),
    }
}

/// FNV-1a over a full label vector (present-or-salvaged encoding), the
/// per-job output fingerprint: bit-identical outputs ⇒ equal digests.
#[must_use]
pub fn labels_digest(labels: &[Option<u64>]) -> u64 {
    let mut h = Fnv1a::new();
    for l in labels {
        match l {
            Some(v) => h.word(1).word(*v),
            None => h.word(0),
        };
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use csmpc_mpc::MpcConfig;

    fn cluster_for(g: &Graph, seed: Seed) -> Cluster {
        let cfg = MpcConfig {
            min_space: 64,
            ..MpcConfig::with_phi(0.5)
        };
        Cluster::new(cfg, g.n(), csmpc_mpc::graph_words(g), seed)
    }

    #[test]
    fn graph_specs_build_expected_shapes() {
        assert_eq!(GraphSpec::Cycle { n: 8 }.build().n(), 8);
        assert_eq!(GraphSpec::TwoCycles { n: 12 }.build().n(), 12);
        assert_eq!(GraphSpec::TwoCycles { n: 12 }.nodes(), 12);
        let t1 = GraphSpec::RandomTree { n: 20, seed: 5 }.build();
        let t2 = GraphSpec::RandomTree { n: 20, seed: 5 }.build();
        assert_eq!(t1.n(), t2.n());
        assert_eq!(t1.m(), 19);
    }

    #[test]
    fn run_job_normalizes_every_workload_to_u64() {
        let g = GraphSpec::TwoCycles { n: 8 }.build();
        for w in [
            Workload::LubyMis,
            Workload::CcLabels,
            Workload::BallColoring { radius: 2 },
        ] {
            let mut cl = cluster_for(&g, Seed(9));
            let out = run_job(&w, &g, &mut cl).unwrap();
            assert_eq!(out.len(), g.n(), "{w:?}");
            assert!(cl.stats().rounds > 0, "{w:?} charged nothing");
        }
    }

    #[test]
    fn digest_separates_presence_from_value() {
        let a = labels_digest(&[Some(0), None]);
        let b = labels_digest(&[None, Some(0)]);
        let c = labels_digest(&[Some(0), Some(0)]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, labels_digest(&[Some(0), None]));
    }

    #[test]
    fn priority_tags_roundtrip_and_reject_unknown_bytes() {
        for p in [Priority::Low, Priority::Normal, Priority::High] {
            assert_eq!(Priority::from_tag(p.tag()), Some(p));
        }
        assert_eq!(Priority::from_tag(9), None);
    }

    #[test]
    fn fault_spec_instantiates_identically() {
        let f = FaultSpec {
            crashes: 2,
            stragglers: 1,
            horizon: 6,
            corrupt_per_mille: 30,
            seed: 77,
        };
        assert_eq!(f.plan_for(8), f.plan_for(8));
        assert_eq!(f.plan_for(8).corrupt_per_mille(), 30);
    }
}
