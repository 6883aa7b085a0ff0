//! Property tests: a `GraphSpec` is one seeded stream family.
//!
//! Over all four variants, at every node count up to 10⁴ and at counts
//! near the `u32` and `usize` limits:
//! - `validate` accepts exactly when `family().validate()` does: the
//!   specs whose shape is well formed and whose edge count fits the CSR's
//!   `u32` offsets. Its rejection texts are the ones the journal records
//!   (`Rejected { reason }`), written out here byte for byte;
//! - `nodes` and `words` are the closed-form sizes, and for accepted specs
//!   of at most 4,000 nodes `words` is `graph_words` of the built graph;
//! - `family` names the matching stream family, and `build` equals the
//!   builder-loop oracle shared with csmpc-graph's `stream_csr` suite on
//!   IDs, names, CSR offsets and targets.

use csmpc_graph::rng::Seed;
use csmpc_graph::StreamFamily;
use csmpc_mpc::graph_words;
use csmpc_service::GraphSpec;
use proptest::prelude::*;

#[path = "../../graph/tests/oracle/mod.rs"]
mod oracle;

/// The `variant`-th spec kind at `n` nodes.
fn spec(variant: u8, n: usize, seed: u64) -> GraphSpec {
    match variant % 4 {
        0 => GraphSpec::Cycle { n },
        1 => GraphSpec::Path { n },
        2 => GraphSpec::TwoCycles { n },
        _ => GraphSpec::RandomTree { n, seed },
    }
}

/// Undirected edge count of the spec's graph.
fn edges(spec: GraphSpec) -> usize {
    match spec {
        GraphSpec::Cycle { n } | GraphSpec::TwoCycles { n } => n,
        GraphSpec::Path { n } | GraphSpec::RandomTree { n, .. } => n.saturating_sub(1),
    }
}

/// The rejection the journal records for `spec`, or `None` if it is valid.
fn rejection(spec: GraphSpec) -> Option<String> {
    match spec {
        GraphSpec::Cycle { n } if n < 3 => Some(format!(
            "invalid graph: a cycle needs at least 3 nodes, got {n}"
        )),
        GraphSpec::TwoCycles { n } if n < 6 || n % 2 == 1 => Some(format!(
            "invalid graph: two cycles need an even node count of at least 6, got {n}"
        )),
        _ if edges(spec) > 2_147_483_647 => Some(format!(
            "invalid graph: {} edges need more than the 4294967295 directed edge slots a CSR \
             can index",
            edges(spec)
        )),
        _ => None,
    }
}

/// Checks everything that needs no build: the verdict, its text and the
/// closed-form sizes.
fn check_sizes(spec: GraphSpec) {
    assert_eq!(spec.validate().err(), rejection(spec), "{spec:?}");
    assert_eq!(
        spec.validate().is_ok(),
        spec.family().validate().is_ok(),
        "{spec:?}"
    );
    let n = match spec {
        GraphSpec::Cycle { n }
        | GraphSpec::Path { n }
        | GraphSpec::TwoCycles { n }
        | GraphSpec::RandomTree { n, .. } => n,
    };
    assert_eq!(spec.nodes(), n, "{spec:?}");
    let words = n.checked_add(edges(spec)).and_then(|s| s.checked_mul(2));
    assert_eq!(spec.words(), words, "{spec:?}");
}

/// Builds an accepted spec and compares it with the oracle.
fn check_build(spec: GraphSpec) {
    let g = spec.build();
    let family = match spec {
        GraphSpec::Cycle { n } => StreamFamily::Cycle { n },
        GraphSpec::Path { n } => StreamFamily::Path { n },
        GraphSpec::TwoCycles { n } => StreamFamily::TwoCycles { n },
        GraphSpec::RandomTree { n, seed } => StreamFamily::RandomTree {
            n,
            seed: Seed(seed),
        },
    };
    assert_eq!(spec.family(), family, "{spec:?}");
    assert_eq!(g, oracle::build(family), "{spec:?}");
    assert_eq!(spec.words(), Some(graph_words(&g)), "{spec:?}");
}

#[test]
fn every_spec_up_to_ten_thousand_nodes_sizes_in_closed_form() {
    for n in 0..=10_000 {
        for variant in 0..4 {
            check_sizes(spec(variant, n, n as u64));
        }
    }
}

#[test]
fn specs_near_the_u32_and_usize_limits_sizes_in_closed_form() {
    let half = u32::MAX as usize / 2;
    let max = u32::MAX as usize;
    for n in [
        half - 2,
        half - 1,
        half,
        half + 1,
        half + 2,
        max - 1,
        max,
        max + 1,
        max + 2,
        usize::MAX / 2,
        usize::MAX - 2,
        usize::MAX - 1,
        usize::MAX,
    ] {
        for variant in 0..4 {
            check_sizes(spec(variant, n, 7));
        }
    }
    // The largest accepted specs: 2m = u32::MAX − 1 directed edges.
    assert_eq!(GraphSpec::Path { n: half + 1 }.validate(), Ok(()));
    assert_eq!(GraphSpec::Cycle { n: half }.validate(), Ok(()));
    assert!(GraphSpec::Cycle { n: half + 1 }.validate().is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn accepted_specs_build_the_oracle_graph(
        variant in 0u8..4,
        n in 0usize..=4_000,
        seed in 0u64..1_000_000_000_000,
    ) {
        let spec = spec(variant, n, seed);
        check_sizes(spec);
        if spec.validate().is_ok() {
            check_build(spec);
        }
    }
}

#[test]
fn smallest_valid_specs_build_the_oracle_graph() {
    for n in 0..=12 {
        for variant in 0..4 {
            let spec = spec(variant, n, 3);
            if spec.validate().is_ok() {
                check_build(spec);
            }
        }
    }
}
