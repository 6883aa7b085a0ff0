//! # csmpc-graph
//!
//! Graph substrate for the reproduction of *"Component Stability in
//! Low-Space Massively Parallel Computation"* (Czumaj, Davies, Parter;
//! PODC 2021).
//!
//! This crate implements the paper's graph-theoretic groundwork:
//!
//! * **Legal graphs** (Definition 6): nodes carry both a component-unique
//!   [`NodeId`] and a globally unique [`NodeName`]; see [`Graph::is_legal`].
//! * **Normal families** (Definition 7): hereditary, union-closed families
//!   in [`family`], with an empirical normality falsifier.
//! * **Centered graphs and `D`-radius-identical pairs** (Definition 23) in
//!   [`ball`].
//! * **Generators** for every instance family the paper argues on (cycles
//!   for the connectivity conjecture, forests, regular graphs, triangle-free
//!   graphs, the Section 2.1 consecutive-ID paths) in [`generators`].
//! * **Operations** the constructions need (induced subgraphs, disjoint
//!   unions, line graphs, re-naming) in [`ops`].
//! * **Exhaustive enumeration** of small graph families for the Lemma 54
//!   non-uniform derandomization in [`enumerate`].
//! * **Deterministic randomness** ([`rng`]): every random bit flows from an
//!   explicit [`rng::Seed`], modeling the shared random string `S`.
//! * **Fingerprints** ([`fnv`]): the one FNV-1a hash behind every
//!   checksum and digest in the workspace.
//!
//! # Quick example
//!
//! ```
//! use csmpc_graph::{generators, ops, ball};
//!
//! // Two D-radius-identical centered paths that differ beyond radius 3:
//! let (g, c, gp, cp) = ball::identical_ball_path_pair(3, 5);
//! assert!(ball::radius_identical(&g, c, &gp, cp, 3));
//! assert!(!ball::radius_identical(&g, c, &gp, cp, 4));
//!
//! // Disjoint unions stay legal only after re-naming copies:
//! let cycle = generators::cycle(5);
//! let copy = ops::with_fresh_names(&cycle, 1_000);
//! assert!(ops::disjoint_union(&[&cycle, &copy]).is_legal());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod ball;
pub mod csr;
pub mod enumerate;
pub mod family;
pub mod fnv;
pub mod generators;
mod graph;
pub mod ops;
pub mod rng;
pub mod stream;

pub use csr::CsrAdjacency;
pub use graph::{Graph, GraphBuilder, GraphError, NodeId, NodeName};
pub use stream::{InvalidFamily, StreamFamily};
