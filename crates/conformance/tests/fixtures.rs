//! The acceptance tests for the static analyzer: every seeded violation in
//! `fixtures/` is caught at its exact `file:line`, suppressions hold, and
//! clean constructs stay clean.

use std::path::{Path, PathBuf};

use csmpc_conformance::{analyze_sources, check_source, Diagnostic, Lint, Severity};

fn read_fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name} unreadable: {e}"))
}

fn scan_fixture(name: &str, lints: &[Lint]) -> Vec<Diagnostic> {
    let source = read_fixture(name);
    check_source(Path::new(name), &source, lints)
}

/// Runs the full engine (token lints + interprocedural passes +
/// suppressions) over one fixture, as `analyze_workspace` would.
fn analyze_fixture(name: &str) -> Vec<Diagnostic> {
    let sources = vec![(PathBuf::from(name), read_fixture(name))];
    analyze_sources(&sources).diagnostics
}

fn lines_of(diags: &[Diagnostic]) -> Vec<usize> {
    diags.iter().map(|d| d.line).collect()
}

#[test]
fn nondeterminism_fixture_caught_at_exact_lines() {
    let diags = scan_fixture("nondeterminism_violation.rs", &[Lint::Nondeterminism]);
    assert_eq!(lines_of(&diags), vec![4, 5, 8, 9], "{diags:#?}");
    assert!(diags.iter().all(|d| d.lint == Lint::Nondeterminism));
    assert!(diags[0].message.contains("HashMap"));
    assert!(diags[1].message.contains("Instant"));
    // The diagnostic carries the file and severity for file:line reporting.
    assert_eq!(
        diags[0].to_string(),
        format!(
            "nondeterminism_violation.rs:4: error [nondeterminism] {}",
            diags[0].message
        )
    );
}

#[test]
fn unaccounted_fixture_caught_at_exact_lines() {
    let diags = scan_fixture("unaccounted_primitive.rs", &[Lint::UnaccountedPrimitive]);
    assert_eq!(lines_of(&diags), vec![17, 23], "{diags:#?}");
    assert!(diags[0].message.contains("leak_degree_sum"));
    assert!(diags[1].message.contains("leak_labels"));
}

#[test]
fn recovery_accounting_fixture_caught_at_exact_lines() {
    let diags = scan_fixture("recovery_accounting.rs", &[Lint::RecoveryAccounting]);
    assert_eq!(lines_of(&diags), vec![15, 27, 56, 64], "{diags:#?}");
    assert!(diags[0].message.contains("recover_silently"));
    assert!(diags[1].message.contains("retry_lost_messages"));
    // The supervision-era recovery paths are covered too: an uncharged
    // quarantine and an uncharged backoff are flagged, while the
    // `charge_recovery`-accounted speculation stays clean.
    assert!(diags[2].message.contains("quarantine_machine"));
    assert!(diags[3].message.contains("backoff_before_retry"));
    assert!(!diags
        .iter()
        .any(|d| d.message.contains("speculate_straggler")));
}

#[test]
fn stability_fixture_caught_at_exact_lines() {
    let diags = scan_fixture("stability_discipline.rs", &[Lint::StabilityDiscipline]);
    assert_eq!(lines_of(&diags), vec![24, 25, 26], "{diags:#?}");
    assert!(diags[0].message.contains("aggregate"));
    assert!(diags[1].message.contains("name"));
    assert!(diags[2].message.contains("broadcast"));
}

#[test]
fn determinism_fixture_caught_at_exact_lines() {
    let diags = scan_fixture("determinism_violation.rs", &[Lint::Determinism]);
    assert_eq!(lines_of(&diags), vec![11, 18], "{diags:#?}");
    assert!(diags[0].message.contains("for_each"));
    assert!(diags[1].message.contains("collect"));
}

#[test]
fn hot_path_allocation_fixture_caught_at_exact_lines() {
    let diags = scan_fixture("hot_path_allocation.rs", &[Lint::Determinism]);
    assert_eq!(lines_of(&diags), vec![12, 13], "{diags:#?}");
    assert!(diags[0].message.contains("ball_extent"));
    assert!(diags[0].message.contains("BTreeMap"));
    assert!(diags[1].message.contains("BTreeSet"));
    // The flat-buffer hot function, the unmarked map builder, and the
    // suppressed audited construction all stay clean.
    assert!(!diags.iter().any(|d| d.message.contains("flat_extent")));
    assert!(!diags.iter().any(|d| d.message.contains("grouped")));
    assert!(!diags.iter().any(|d| d.line > 30), "suppression holds");
}

#[test]
fn route_scatter_fixture_caught_on_both_arms() {
    // The scatter-path pair: an uncharged scatter helper one private call
    // below a charged entry point (charge-flow arm) and a hot-marked
    // grouping pass allocating an ordered map per round (determinism arm).
    let diags = analyze_fixture("route_scatter_violation.rs");
    let charge: Vec<_> = diags
        .iter()
        .filter(|d| d.lint == Lint::ChargeFlow)
        .collect();
    assert_eq!(charge.len(), 1, "{diags:#?}");
    assert_eq!(charge[0].witness, vec!["route_round", "scatter_staged"]);
    assert!(charge[0].message.contains("inboxes"));
    assert!(diags.iter().all(|d| d.severity == Severity::Error));
    // The determinism arm is path-scoped in the full engine, so scan it
    // directly: the hot-marked grouping pass is flagged per ordered-map
    // mention.
    let hot = scan_fixture("route_scatter_violation.rs", &[Lint::Determinism]);
    assert!(!hot.is_empty(), "{hot:#?}");
    assert!(hot.iter().all(|d| d.message.contains("BTreeMap")));
    assert!(hot[0].message.contains("group_by_destination"));
}

#[test]
fn route_scatter_clean_fixture_stays_clean() {
    // The shipped shape: scatter helper charges for the words it moves,
    // hot grouping pass sticks to flat histogram/cursor spines.
    assert!(
        analyze_fixture("route_scatter_clean.rs").is_empty(),
        "{:#?}",
        analyze_fixture("route_scatter_clean.rs")
    );
    let hot = scan_fixture("route_scatter_clean.rs", &[Lint::Determinism]);
    assert!(hot.is_empty(), "{hot:#?}");
}

#[test]
fn charge_flow_fixture_caught_with_witness_chains() {
    let diags = analyze_fixture("charge_flow_violation.rs");
    assert!(
        diags.iter().all(|d| d.lint == Lint::ChargeFlow),
        "{diags:#?}"
    );
    assert_eq!(lines_of(&diags), vec![16, 30, 35], "{diags:#?}");
    // The acceptance case: the wire touch is one private call removed from
    // the charged entry point, with the delegation chain as witness.
    assert_eq!(diags[0].witness, vec!["shuffle_round", "raw_shuffle"]);
    assert!(diags[0].message.contains("inboxes"));
    // Two levels of delegation still produce a full entry-to-wire chain.
    assert_eq!(
        diags[1].witness,
        vec!["resend_round", "stage_resend", "drain_retransmit"]
    );
    assert!(diags.iter().all(|d| d.severity == Severity::Error));
}

#[test]
fn service_charge_flow_fixture_caught_through_private_scheduler_entries() {
    // `run_job` / `execute_attempt` are private: only the service-layer
    // entry-name extension makes the flow pass root a search at them.
    let diags = analyze_fixture("service_charge_flow_violation.rs");
    assert!(
        diags.iter().all(|d| d.lint == Lint::ChargeFlow),
        "{diags:#?}"
    );
    assert_eq!(lines_of(&diags), vec![8, 14, 22, 28, 33], "{diags:#?}");
    // The attempt runner's wire touch is witnessed down to the helper.
    assert_eq!(
        diags[0].witness,
        vec!["execute_attempt", "drain_stale_inboxes"]
    );
    // The dispatcher's uncharged retransmission is two calls removed.
    assert_eq!(
        diags[2].witness,
        vec!["run_job", "requeue_lost", "push_retransmit"]
    );
    assert!(diags.iter().all(|d| d.severity == Severity::Error));
}

#[test]
fn service_charge_flow_clean_fixture_stays_clean() {
    // Charges live inside the wire-touching helpers, so every delegation
    // chain accounts; communication-free bookkeeping owes nothing.
    assert!(
        analyze_fixture("service_charge_flow_clean.rs").is_empty(),
        "{:#?}",
        analyze_fixture("service_charge_flow_clean.rs")
    );
}

#[test]
fn journal_replay_fixture_caught_through_recovery_roots() {
    // `recover` / `replay_journal` are private crash-recovery roots:
    // only the recovery entry-name extension makes the flow pass root a
    // search at them.
    let flow = analyze_fixture("journal_replay_violation.rs");
    assert!(flow.iter().all(|d| d.lint == Lint::ChargeFlow), "{flow:#?}");
    assert_eq!(lines_of(&flow), vec![8, 15, 23, 29, 34], "{flow:#?}");
    // The recovery root's wire touch is witnessed down to the helper.
    assert_eq!(flow[0].witness, vec!["recover", "rebuild_inflight"]);
    // The replay root's uncharged restage is two calls removed.
    assert_eq!(
        flow[2].witness,
        vec!["replay_journal", "requeue_torn_tail", "restage_frame"]
    );
    assert!(flow.iter().all(|d| d.severity == Severity::Error));
    // The `replay` keyword also puts the roots on the token lint's
    // radar, one diagnostic per uncharged replay-named mutator.
    let token = scan_fixture("journal_replay_violation.rs", &[Lint::RecoveryAccounting]);
    assert_eq!(lines_of(&token), vec![8, 23], "{token:#?}");
    assert!(token[0].message.contains("recover"));
    assert!(token[1].message.contains("replay_journal"));
}

#[test]
fn journal_replay_clean_fixture_stays_clean() {
    // `charge_replay` is a recognized charge sink, so replay paths that
    // charge the frames they re-read satisfy both lints.
    assert!(
        analyze_fixture("journal_replay_clean.rs").is_empty(),
        "{:#?}",
        analyze_fixture("journal_replay_clean.rs")
    );
}

#[test]
fn charge_flow_clean_fixture_stays_clean() {
    // Charges delegated one and two helpers down, plus a communication-free
    // setter: the flow pass follows the calls the token lints cannot.
    assert!(
        analyze_fixture("charge_flow_clean.rs").is_empty(),
        "{:#?}",
        analyze_fixture("charge_flow_clean.rs")
    );
}

#[test]
fn par_race_fixture_caught_at_exact_lines() {
    let diags = analyze_fixture("par_race_violation.rs");
    assert!(
        diags.iter().all(|d| d.lint == Lint::ParClosureRace),
        "{diags:#?}"
    );
    assert_eq!(lines_of(&diags), vec![7, 18, 19, 29], "{diags:#?}");
    assert!(diags[0].message.contains("borrow_mut"), "{diags:#?}");
    assert!(diags[1].message.contains("seen.push"), "{diags:#?}");
    assert!(diags[2].message.contains("total"), "{diags:#?}");
    assert!(diags[3].message.contains("HashMap"), "{diags:#?}");
    // Every finding names the parallel entry point it came through.
    assert!(diags
        .iter()
        .all(|d| d.witness.iter().any(|w| w.contains("par_map"))));
}

#[test]
fn par_race_clean_fixture_stays_clean_including_allow() {
    // Pure maps, own-item mutation in `par_map_mut`, and an annotated
    // thread-local-workspace call: no findings, and the `csmpc-allow` is
    // consumed (no unused-suppression either).
    assert!(
        analyze_fixture("par_race_clean.rs").is_empty(),
        "{:#?}",
        analyze_fixture("par_race_clean.rs")
    );
}

#[test]
fn par_block_race_fixture_caught_at_exact_lines() {
    // The buffer-reusing helpers hand their closures to worker threads
    // just like `par_map`, so the same findings apply to them.
    let diags = analyze_fixture("par_block_race_violation.rs");
    assert!(
        diags.iter().all(|d| d.lint == Lint::ParClosureRace),
        "{diags:#?}"
    );
    assert_eq!(lines_of(&diags), vec![7, 17, 27, 36], "{diags:#?}");
    assert!(diags[0].message.contains("borrow_mut"), "{diags:#?}");
    assert!(diags[1].message.contains("total"), "{diags:#?}");
    assert!(diags[2].message.contains("seen.push"), "{diags:#?}");
    assert!(diags[3].message.contains("fetch_add"), "{diags:#?}");
    let entries: Vec<&str> = diags.iter().map(|d| d.witness[0].as_str()).collect();
    assert_eq!(
        entries,
        [
            "closure passed to par_update_any",
            "closure passed to par_fill_blocks",
            "closure passed to par_map_range_into",
            "closure passed to par_map_mut_into",
        ],
        "{diags:#?}"
    );
}

#[test]
fn par_block_race_clean_fixture_stays_clean() {
    // Writes through the `&mut` item or block parameter are the closure's
    // own, including a block's row walk and zipped slot iterator.
    assert!(
        analyze_fixture("par_block_race_clean.rs").is_empty(),
        "{:#?}",
        analyze_fixture("par_block_race_clean.rs")
    );
}

#[test]
fn stability_flow_fixture_caught_at_impl_lines() {
    let diags = analyze_fixture("stability_flow_violation.rs");
    assert!(
        diags.iter().all(|d| d.lint == Lint::StabilityFlow),
        "{diags:#?}"
    );
    assert_eq!(lines_of(&diags), vec![19, 29], "{diags:#?}");
    // Implicit stability claim: provenance reached, default inherited.
    assert_eq!(diags[0].severity, Severity::Warning);
    assert!(diags[0].message.contains("SilentDefault"));
    assert_eq!(diags[0].witness, vec!["run", "distribute"]);
    // Broken explicit claim: stable-declared impl reaches a global mix.
    assert_eq!(diags[1].severity, Severity::Error);
    assert!(diags[1].message.contains("ClaimsStableButMixes"));
    assert_eq!(
        diags[1].witness,
        vec!["run", "global_tally", "aggregate_all"]
    );
}

#[test]
fn stability_flow_clean_fixture_stays_clean() {
    // Explicit declarations everywhere provenance is reached, and the
    // claimed-stable impl stays component-local.
    assert!(
        analyze_fixture("stability_flow_clean.rs").is_empty(),
        "{:#?}",
        analyze_fixture("stability_flow_clean.rs")
    );
}

#[test]
fn fixtures_stay_silent_for_other_lints() {
    // Each fixture seeds exactly one lint; cross-checking guards against
    // over-eager matching.
    assert!(scan_fixture("nondeterminism_violation.rs", &[Lint::StabilityDiscipline]).is_empty());
    assert!(scan_fixture("unaccounted_primitive.rs", &[Lint::Nondeterminism]).is_empty());
    assert!(scan_fixture("stability_discipline.rs", &[Lint::Nondeterminism]).is_empty());
    assert!(scan_fixture("stability_discipline.rs", &[Lint::UnaccountedPrimitive]).is_empty());
    assert!(scan_fixture("recovery_accounting.rs", &[Lint::Nondeterminism]).is_empty());
    assert!(scan_fixture("recovery_accounting.rs", &[Lint::StabilityDiscipline]).is_empty());
    assert!(scan_fixture("unaccounted_primitive.rs", &[Lint::RecoveryAccounting]).is_empty());
    assert!(scan_fixture("determinism_violation.rs", &[Lint::Nondeterminism]).is_empty());
    assert!(scan_fixture("hot_path_allocation.rs", &[Lint::Nondeterminism]).is_empty());
    assert!(scan_fixture("hot_path_allocation.rs", &[Lint::StabilityDiscipline]).is_empty());
}

#[test]
fn engine_state_restore_without_charge_is_caught_by_both_passes() {
    // The exact engine's phases are `impl Cluster` methods taking
    // `&mut EngineState`, so both recovery passes still see the restore.
    let recovery = scan_fixture("engine_state_violation.rs", &[Lint::RecoveryAccounting]);
    assert_eq!(lines_of(&recovery), vec![25], "{recovery:#?}");
    assert!(recovery[0].message.contains("`recover`"));
    let flow = analyze_fixture("engine_state_violation.rs");
    assert!(flow.iter().all(|d| d.lint == Lint::ChargeFlow), "{flow:#?}");
    assert_eq!(lines_of(&flow), vec![17, 25], "{flow:#?}");
    assert!(flow.iter().all(|d| d.message.contains("inboxes")));
    // The fault phase is witnessed from the engine entry down to the
    // uncharged restore; `recover` is itself a recovery root.
    assert_eq!(
        flow[0].witness,
        vec!["run_program_with_faults", "strike_faults", "recover"]
    );
    assert_eq!(flow[1].witness, vec!["recover"]);
}

#[test]
fn engine_state_restore_with_charge_stays_clean() {
    let recovery = scan_fixture("engine_state_clean.rs", &[Lint::RecoveryAccounting]);
    assert!(recovery.is_empty(), "{recovery:#?}");
    assert!(
        analyze_fixture("engine_state_clean.rs").is_empty(),
        "{:#?}",
        analyze_fixture("engine_state_clean.rs")
    );
}
