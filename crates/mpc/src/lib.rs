//! # csmpc-mpc
//!
//! A simulator for the **low-space Massively Parallel Computation (MPC)**
//! model of the PODC 2021 paper *"Component Stability in Low-Space Massively
//! Parallel Computation"* (Sections 1, 2.4.2): `M = poly(n)` machines, each
//! with `S = Θ(n^φ)` words (`φ < 1`), synchronous rounds, per-round
//! send/receive volume capped at `S`.
//!
//! * [`config`] — the `φ`, `S`, machine-count arithmetic;
//! * [`cluster`] — the resource ledger, the model-event log, the exact
//!   word-moving engine with bandwidth/space enforcement, and the
//!   accounting API used by higher-level primitives;
//! * [`route`] — the counting-sort message fabric: per-round grouping of
//!   in-flight messages by destination machine, stable per destination
//!   and allocation-free at steady state;
//! * [`distributed`] — a graph distributed over machines with the textbook
//!   low-space primitives (aggregation trees, neighbor reductions, graph
//!   exponentiation, pointer-jumping connectivity), each charging its
//!   documented round cost and asserting space feasibility;
//! * [`scale`] — the million-vertex path: streaming CSR ingestion and
//!   workspace-backed per-vertex sweeps (pointer-jumping connectivity,
//!   Luby MIS, Jones–Plassmann coloring) with zero steady-state
//!   allocations at fixed topology;
//! * [`faults`] — deterministic fault injection (crashes, stragglers,
//!   message drop/duplication/corruption/reordering, round-scoped
//!   partitions) and checkpoint/recovery, with every recovery charged to
//!   the ledger;
//! * [`supervise`] — straggler speculation, quarantine, exponential
//!   backoff, and component-scoped graceful degradation backed by the
//!   paper's component-stability property (Definition 13).
//!
//! ```
//! use csmpc_graph::{generators, rng::Seed};
//! use csmpc_mpc::{Cluster, MpcConfig, DistributedGraph, graph_words};
//!
//! let g = generators::cycle(64);
//! let mut cluster = Cluster::new(MpcConfig::with_phi(0.5), g.n(), graph_words(&g), Seed(1));
//! let dg = DistributedGraph::distribute(&g, &mut cluster)?;
//! let n = dg.count_nodes(&mut cluster)?;
//! assert_eq!(n, 64);
//! println!("rounds so far: {}", cluster.stats().rounds);
//! # Ok::<(), csmpc_mpc::MpcError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod ball_cache;
pub mod cluster;
pub mod config;
pub mod distributed;
pub mod faults;
pub mod lru;
pub mod phase;
pub mod primitives;
pub mod provenance;
pub mod route;
pub mod scale;
pub mod supervise;

pub use ball_cache::BallCache;
pub use cluster::{Cluster, Envelope, MachineProgram, Message, MpcError, Stats};
pub use config::MpcConfig;
pub use csmpc_parallel::ParallelismMode;
pub use distributed::{graph_words, DistributedGraph};
pub use faults::{
    Checkpoint, FaultEvent, FaultKind, FaultPlan, Partition, RecoveryEvent, RecoveryPolicy,
};
pub use phase::{PhaseTimer, PhaseTimes};
pub use primitives::{
    exact_aggregate_sum, exact_aggregate_sum_with_faults, prefix_sums, sort_keys,
};
pub use provenance::{ComponentId, CrossComponentFlow, ProvenanceLog};
pub use route::RouteArena;
pub use scale::ScaleWorkspace;
pub use supervise::{
    run_supervised, salvage_graph, ClusterEvent, ComponentVerdict, PartialOutput,
    SupervisedOutcome, SupervisedRun, SupervisorConfig,
};
