//! Workspace-level model-conformance gate.
//!
//! The whole static analyzer (`csmpc-conformance`) runs over the workspace
//! from this integration test: the token lints, the interprocedural passes
//! and `csmpc-allow` suppression hygiene. `cargo test` fails the moment
//! anyone introduces a nondeterminism source, an unaccounted primitive, an
//! uncharged recovery path or charge flow, a stability-discipline breach,
//! a racy parallel closure, or a stale suppression. The same scan is
//! available as a binary (`cargo run -p csmpc-conformance --bin
//! conformance`).

use std::path::{Path, PathBuf};

use csmpc_conformance::{analyze_sources, analyze_workspace, check_source, Lint};

#[test]
fn workspace_has_zero_conformance_violations() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = analyze_workspace(root).expect("workspace scan");
    assert!(
        report.files_scanned >= 40,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
    assert!(
        report.is_clean(),
        "conformance violations:\n{}",
        report.to_json()
    );
}

#[test]
fn the_gate_actually_bites() {
    // Guard against the scanner rotting into a yes-machine: a seeded
    // violation of each lint must still be caught.
    let nondet = "use std::time::Instant;\n";
    assert_eq!(
        check_source(Path::new("x.rs"), nondet, &[Lint::Nondeterminism]).len(),
        1
    );

    let unaccounted = "pub fn probe(cluster: &mut Cluster) -> usize {\n    0\n}\n";
    assert_eq!(
        check_source(
            Path::new("x.rs"),
            unaccounted,
            &[Lint::UnaccountedPrimitive]
        )
        .len(),
        1
    );

    let unstable = "\
impl MpcVertexAlgorithm for Liar {
    fn component_stable(&self) -> bool { true }
    fn run(&self) { dg.aggregate(cluster, &v, f); }
}
";
    assert_eq!(
        check_source(Path::new("x.rs"), unstable, &[Lint::StabilityDiscipline]).len(),
        1
    );

    let free_recovery = "\
pub fn restore_inboxes(cluster: &mut Cluster, cp: &Checkpoint) {
    cluster.inboxes = cp.inboxes.clone();
}
";
    assert_eq!(
        check_source(
            Path::new("x.rs"),
            free_recovery,
            &[Lint::RecoveryAccounting]
        )
        .len(),
        1
    );

    let unordered = "\
fn racy(items: &[u64], total: &AtomicU64) {
    items.par_iter().for_each(|&x| {
        total.fetch_add(x, Ordering::Relaxed);
    });
}
";
    assert_eq!(
        check_source(Path::new("x.rs"), unordered, &[Lint::Determinism]).len(),
        1
    );

    // The interprocedural layer: the entry point charges, but the helper
    // it delegates the wire work to does not.
    let delegated = "\
pub fn shuffle(cluster: &mut Cluster) {
    cluster.charge_rounds(1);
    raw_shuffle(cluster);
}
fn raw_shuffle(cluster: &mut Cluster) {
    cluster.inboxes.swap(0, 1);
}
";
    let report = analyze_sources(&[(PathBuf::from("crates/mpc/src/x.rs"), delegated.to_string())]);
    let flow: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.lint == Lint::ChargeFlow)
        .collect();
    assert_eq!(flow.len(), 1, "{}", report.to_json());
    assert_eq!(flow[0].line, 5);
    assert_eq!(flow[0].witness, vec!["shuffle", "raw_shuffle"]);
}

#[test]
fn fixture_violations_are_reported_with_file_and_line() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let fixture = root.join("crates/conformance/fixtures/nondeterminism_violation.rs");
    let source = std::fs::read_to_string(&fixture).expect("fixture readable");
    let diags = check_source(
        Path::new("crates/conformance/fixtures/nondeterminism_violation.rs"),
        &source,
        &[Lint::Nondeterminism],
    );
    assert!(!diags.is_empty());
    let rendered = diags[0].to_string();
    assert!(
        rendered.starts_with("crates/conformance/fixtures/nondeterminism_violation.rs:4:"),
        "{rendered}"
    );

    let fixture = root.join("crates/conformance/fixtures/determinism_violation.rs");
    let source = std::fs::read_to_string(&fixture).expect("fixture readable");
    let diags = check_source(
        Path::new("crates/conformance/fixtures/determinism_violation.rs"),
        &source,
        &[Lint::Determinism],
    );
    assert_eq!(diags.len(), 2, "{diags:?}");
    assert!(diags[0].to_string().contains("for_each"), "{}", diags[0]);
    assert!(diags[1].to_string().contains("collect"), "{}", diags[1]);
}
