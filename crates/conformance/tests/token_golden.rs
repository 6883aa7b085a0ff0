//! Golden findings for the five token lints: every fixture is scanned with
//! all of them, ungated by path, and the exact `(file, line, lint)` list is
//! pinned together with the function or token names each message quotes.
//! A change to how the lints read source must leave this list untouched.

use std::path::Path;

use csmpc_conformance::{check_source, Lint};

const TOKEN_LINTS: &[Lint] = &[
    Lint::Nondeterminism,
    Lint::UnaccountedPrimitive,
    Lint::RecoveryAccounting,
    Lint::StabilityDiscipline,
    Lint::Determinism,
];

/// `file:line lint quote...`, sorted by `(file, line, lint)`; every quote
/// must appear in the finding's message.
const GOLDEN: &[&str] = &[
    "charge_flow_clean.rs:7 unaccounted-primitive `shuffle_round`",
    "charge_flow_clean.rs:20 unaccounted-primitive `resend_round`",
    "charge_flow_clean.rs:35 unaccounted-primitive `set_plan`",
    "determinism_violation.rs:11 determinism `.for_each`",
    "determinism_violation.rs:18 determinism `.collect()`",
    "engine_state_violation.rs:25 recovery-accounting `recover`",
    "hot_path_allocation.rs:12 determinism `BTreeMap` `ball_extent`",
    "hot_path_allocation.rs:13 determinism `BTreeSet` `ball_extent`",
    "journal_replay_violation.rs:8 recovery-accounting `recover`",
    "journal_replay_violation.rs:23 recovery-accounting `replay_journal`",
    "nondeterminism_violation.rs:4 nondeterminism `HashMap`",
    "nondeterminism_violation.rs:5 nondeterminism `Instant`",
    "nondeterminism_violation.rs:8 nondeterminism `Instant`",
    "nondeterminism_violation.rs:9 nondeterminism `HashMap`",
    "par_race_violation.rs:29 nondeterminism `HashMap`",
    "recovery_accounting.rs:15 recovery-accounting `recover_silently`",
    "recovery_accounting.rs:27 recovery-accounting `retry_lost_messages`",
    "recovery_accounting.rs:27 unaccounted-primitive `retry_lost_messages`",
    "recovery_accounting.rs:41 unaccounted-primitive `retry_suppressed`",
    "recovery_accounting.rs:56 recovery-accounting `quarantine_machine`",
    "recovery_accounting.rs:64 recovery-accounting `backoff_before_retry`",
    "recovery_accounting.rs:64 unaccounted-primitive `backoff_before_retry`",
    "route_scatter_clean.rs:8 unaccounted-primitive `route_round`",
    "route_scatter_violation.rs:26 determinism `BTreeMap` `group_by_destination`",
    "route_scatter_violation.rs:30 determinism `BTreeMap` `group_by_destination`",
    "stability_discipline.rs:24 stability-discipline `aggregate`",
    "stability_discipline.rs:25 stability-discipline *name*",
    "stability_discipline.rs:26 stability-discipline `broadcast`",
    "unaccounted_primitive.rs:17 unaccounted-primitive `leak_degree_sum`",
    "unaccounted_primitive.rs:23 unaccounted-primitive `leak_labels`",
];

#[test]
fn token_lints_report_the_pinned_findings_on_every_fixture() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .expect("fixtures dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|n| n.ends_with(".rs"))
        .collect();
    names.sort();
    assert_eq!(names.len(), 22, "fixture set changed: {names:?}");

    let mut found = Vec::new();
    for name in &names {
        let source = std::fs::read_to_string(dir.join(name)).expect("fixture readable");
        for d in check_source(Path::new(name), &source, TOKEN_LINTS) {
            found.push((name.clone(), d.line, d.lint.name(), d.message));
        }
    }
    found.sort();
    let found: Vec<(String, String)> = found
        .into_iter()
        .map(|(name, line, lint, message)| (format!("{name}:{line} {lint}"), message))
        .collect();

    let keys: Vec<&str> = found.iter().map(|(key, _)| key.as_str()).collect();
    let expected: Vec<String> = GOLDEN
        .iter()
        .map(|row| row.split(' ').take(2).collect::<Vec<_>>().join(" "))
        .collect();
    assert_eq!(keys, expected, "{found:#?}");

    for ((key, message), row) in found.iter().zip(GOLDEN) {
        for quote in row.split(' ').skip(2) {
            assert!(
                message.contains(quote),
                "{key} should quote {quote}: {message}"
            );
        }
    }
}
