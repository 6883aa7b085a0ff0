//! Interprocedural charge-flow pass (`charge-flow` lint).
//!
//! The token-level `unaccounted-primitive` and `recovery-accounting` lints
//! only see one function body: a charge delegated to a helper is a false
//! positive, and an uncharged *helper* driving the wire is a false
//! negative (helpers are private, so the `pub fn` token lint never looks
//! at them). This pass upgrades both to a transitive property over the
//! workspace call graph:
//!
//! > Every function that (a) mutates cluster state (`&mut Cluster` in its
//! > signature, or `&mut self` in an inherent `impl Cluster` block),
//! > (b) is reachable from an engine entry point (`run_program*`,
//! > `run_supervised`, `advance_rounds`, the public `&mut Cluster`
//! > primitive layer), and (c) touches communication/round machinery
//! > (directly or through a callee) must reach a `Stats` charge —
//! > directly or through a callee.
//!
//! "Touches communication machinery" means the body mentions a wire-level
//! identifier (inbox staging, envelope sealing, checkpoint shipping,
//! retransmission buffers) or calls a function that does. "Reaches a
//! charge" closes over `charge_rounds` / `charge_words` / `charge_storage`
//! / `charge_recovery` / `require_fits` the same way — so the fixture the
//! token lints provably miss (primitive call one function removed from an
//! uncharged entry point) is caught here with a call-chain witness.

use crate::callgraph::CallGraph;
use crate::syntax::FileModel;
use crate::{Diagnostic, Lint, Severity};

/// Direct `Stats`-charging calls.
const CHARGE_SINKS: &[&str] = &[
    "charge_rounds",
    "charge_words",
    "charge_storage",
    "charge_recovery",
    "charge_replay",
    "require_fits",
];

/// Wire-level identifiers: a body mentioning one of these moves messages,
/// rounds, or checkpoint state between machines.
const COMM_TOKENS: &[&str] = &[
    "inboxes",
    "seal",
    "transport_checksum",
    "transport_checksum_stream",
    "pending_retransmit",
    "partition_held",
    "retransmit",
];

/// Entry-point function names (beyond the public primitive layer).
/// `run_job` and `execute_attempt` are the `csmpc-service` scheduler
/// roots: every per-attempt execution path enters through them, so an
/// uncharged service-layer helper that reaches wire machinery is caught
/// even when it is private. `recover` and `replay_journal` are the
/// crash-recovery roots: journal replay re-executes in-flight attempts,
/// so any wire-touching helper it reaches must still land on a charge
/// (`charge_replay` closes the replay bookkeeping itself).
const ENTRY_NAMES: &[&str] = &[
    "run_program",
    "run_program_with_faults",
    "run_supervised",
    "advance_rounds",
    "run_job",
    "execute_attempt",
    "recover",
    "replay_journal",
];

/// `true` when the function's signature mutates cluster state.
pub(crate) fn mutates_cluster(fm: &FileModel, f: &crate::syntax::FnItem) -> bool {
    let flat = FileModel::flat_sig(f);
    flat.contains("&mutCluster") || (flat.contains("&mutself") && fm.in_inherent_cluster_impl(f))
}

/// Runs the pass over the parsed workspace.
#[must_use]
pub fn run(files: &[FileModel], graph: &CallGraph) -> Vec<Diagnostic> {
    let n = graph.nodes.len();
    let fn_of = |node: usize| {
        let id = graph.nodes[node];
        (&files[id.file], &files[id.file].fns[id.item])
    };

    let mut direct_charge = vec![false; n];
    let mut direct_comm = vec![false; n];
    let mut comm_why: Vec<Option<String>> = vec![None; n];
    let mut mutates = vec![false; n];
    let mut entry = Vec::new();
    for node in 0..n {
        let (fm, f) = fn_of(node);
        direct_charge[node] = f
            .calls
            .iter()
            .any(|c| CHARGE_SINKS.contains(&c.callee.as_str()));
        if let Some(tok) = fm
            .body_idents(f)
            .find(|t| COMM_TOKENS.contains(&t.text.as_str()))
        {
            direct_comm[node] = true;
            comm_why[node] = Some(tok.text.clone());
        }
        mutates[node] = mutates_cluster(fm, f);
        if !f.in_test && (ENTRY_NAMES.contains(&f.name.as_str()) || (f.is_pub && mutates[node])) {
            entry.push(node);
        }
    }
    let accounts = graph.transitive_down(&direct_charge);
    let comm = graph.transitive_down(&direct_comm);
    let reachable = graph.reachable_from(&entry);

    let mut out = Vec::new();
    for node in 0..n {
        let (fm, f) = fn_of(node);
        if f.in_test
            || f.body.is_none()
            || !reachable[node]
            || !mutates[node]
            || !comm[node]
            || accounts[node]
        {
            continue;
        }
        // Witness: entry chain down to this function, then the chain from
        // here to the wire-touching body.
        let name_of = |m: usize| fn_of(m).1.name.clone();
        let mut witness: Vec<String> = graph
            .chain_from_seeds(&entry, node)
            .unwrap_or_else(|| vec![node])
            .iter()
            .map(|&m| name_of(m))
            .collect();
        let comm_site = graph
            .witness_chain(node, &direct_comm)
            .unwrap_or_else(|| vec![node]);
        for &m in comm_site.iter().skip(1) {
            witness.push(name_of(m));
        }
        let via = comm_site
            .last()
            .and_then(|&m| comm_why[m].clone())
            .unwrap_or_else(|| "communication machinery".to_string());
        out.push(Diagnostic {
            lint: Lint::ChargeFlow,
            severity: Severity::Error,
            file: fm.path.clone(),
            line: f.line,
            message: format!(
                "`{}` mutates cluster state and touches communication machinery (via `{via}`) \
                 but no path from it reaches a Stats charge \
                 (charge_rounds/charge_words/charge_storage/charge_recovery/charge_replay/\
                 require_fits); \
                 unaccounted wire traffic breaks the S = n^phi cost model",
                f.name
            ),
            witness,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::syntax::parse_file;
    use std::path::Path;

    fn run_src(src: &str) -> Vec<Diagnostic> {
        let files = vec![parse_file(Path::new("x.rs").to_path_buf(), src)];
        let graph = CallGraph::build(&files);
        run(&files, &graph)
    }

    #[test]
    fn charge_via_helper_is_clean() {
        // The token lint would flag `counted` (no charge token in its own
        // body); the flow pass follows the call.
        let src = "\
pub fn counted(cluster: &mut Cluster) {
    stage(cluster);
    account(cluster);
}
fn stage(cluster: &mut Cluster) {
    cluster.inboxes.sort();
    account(cluster);
}
fn account(cluster: &mut Cluster) {
    cluster.charge_rounds(1);
}
";
        assert!(run_src(src).is_empty(), "{:?}", run_src(src));
    }

    #[test]
    fn uncharged_helper_one_call_deep_is_caught() {
        // `outer` charges for itself, but the private helper moves words
        // on the wire with no charge on any path — the case the token
        // lint provably misses (it only sees `pub fn` bodies).
        let src = "\
pub fn outer(cluster: &mut Cluster) {
    cluster.charge_rounds(1);
    raw_shuffle(cluster);
}
fn raw_shuffle(cluster: &mut Cluster) {
    cluster.inboxes.swap(0, 1);
}
";
        let d = run_src(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].lint, Lint::ChargeFlow);
        assert!(d[0].message.contains("raw_shuffle"));
        assert_eq!(d[0].witness, vec!["outer", "raw_shuffle"]);
    }

    #[test]
    fn unreachable_and_comm_free_helpers_are_ignored() {
        let src = "\
fn dead_code(cluster: &mut Cluster) {
    cluster.inboxes.clear();
}
pub fn setter(cluster: &mut Cluster) {
    cluster.plan = None;
}
";
        // `dead_code` is not reachable from any entry; `setter` never
        // touches comm machinery.
        assert!(run_src(src).is_empty(), "{:?}", run_src(src));
    }

    #[test]
    fn inherent_cluster_methods_are_covered() {
        let src = "\
impl Cluster {
    pub fn resend(&mut self) {
        self.flush_stale();
    }
    fn flush_stale(&mut self) {
        self.pending_retransmit.clear();
    }
}
";
        let d = run_src(src);
        assert_eq!(d.len(), 2, "resend and flush_stale both uncharged: {d:?}");
        assert!(d.iter().any(|x| x.message.contains("flush_stale")));
    }
}
