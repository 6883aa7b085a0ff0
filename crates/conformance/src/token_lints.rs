//! The five token lints ([`Lint::Nondeterminism`],
//! [`Lint::UnaccountedPrimitive`], [`Lint::RecoveryAccounting`],
//! [`Lint::StabilityDiscipline`], [`Lint::Determinism`]) over one parsed
//! [`FileModel`]: its tokens, per-token `#[cfg(test)]` mask, `fn` and `impl`
//! items, and per-line comment table.
//!
//! The lints are local — each looks at one item or one statement — and
//! they keep line granularity where their verdict spans source lines. A
//! function "body" is every token from the line of its opening brace to the
//! line of its closing brace (so a charge named on the signature's last line
//! counts), and a parallel chain ends at the first *line* holding `;` or
//! `}`.

use std::collections::BTreeSet;
use std::ops::Range;

use crate::charge_flow::mutates_cluster;
use crate::lex::{Tok, TokKind};
use crate::syntax::{FileModel, FnItem};
use crate::{Diagnostic, Lint, Severity};

/// Runs the token lints among `lints` over `fm`; the others are skipped.
pub(crate) fn run(fm: &FileModel, lints: &[Lint]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for &lint in lints {
        match lint {
            Lint::Nondeterminism => nondeterminism(fm, &mut out),
            Lint::UnaccountedPrimitive => unaccounted_primitive(fm, &mut out),
            Lint::RecoveryAccounting => recovery_accounting(fm, &mut out),
            Lint::StabilityDiscipline => stability_discipline(fm, &mut out),
            Lint::Determinism => {
                hot_allocations(fm, &mut out);
                par_chains(fm, &mut out);
            }
            // Interprocedural lints need the whole workspace; they run in
            // `analyze_sources`, not per file.
            Lint::ChargeFlow
            | Lint::ParClosureRace
            | Lint::StabilityFlow
            | Lint::UnusedSuppression => {}
        }
    }
    out
}

fn finding(fm: &FileModel, lint: Lint, line: usize, message: String) -> Diagnostic {
    Diagnostic {
        lint,
        severity: Severity::Error,
        file: fm.path.clone(),
        line,
        message,
        witness: Vec::new(),
    }
}

/// Token indices of source lines `first..=last` (1-indexed).
fn lines(fm: &FileModel, first: usize, last: usize) -> Range<usize> {
    fm.toks.partition_point(|t| t.line < first)..fm.toks.partition_point(|t| t.line <= last)
}

/// Indices of the production-code (not `#[cfg(test)]`) tokens on `line`.
fn live(fm: &FileModel, line: usize) -> impl Iterator<Item = usize> + '_ {
    lines(fm, line, line).filter(|&k| !fm.test_mask[k])
}

/// `true` when `t` is one of the identifiers `names`.
fn ident_in(t: &Tok, names: &[&str]) -> bool {
    t.kind == TokKind::Ident && names.contains(&t.text.as_str())
}

/// `true` when token `k` is a call `name(`, behind a `.` when `method`.
fn is_call(toks: &[Tok], k: usize, name: &str, method: bool) -> bool {
    toks[k].is_ident(name)
        && toks.get(k + 1).is_some_and(|t| t.is_punct("("))
        && (!method || (k > 0 && toks[k - 1].is_punct(".")))
}

/// Source lines `first..=last` spanned by `f`'s body braces.
fn body_lines(fm: &FileModel, f: &FnItem) -> Option<(usize, usize)> {
    f.body
        .map(|(open, close)| (fm.toks[open].line, fm.toks[close].line))
}

// ---------------------------------------------------------------------------
// Lint 1: nondeterminism
// ---------------------------------------------------------------------------

const NONDET_TOKENS: &[(&str, &str)] = &[
    (
        "SystemTime",
        "wall-clock read; simulator runs must be replayable from csmpc_graph::rng::Seed (Definition 9)",
    ),
    (
        "Instant",
        "monotonic-clock read; simulator runs must be replayable from csmpc_graph::rng::Seed (Definition 9)",
    ),
    (
        "thread_rng",
        "OS-seeded RNG breaks replicability (Definition 9); derive randomness from csmpc_graph::rng::Seed",
    ),
    (
        "OsRng",
        "OS entropy breaks replicability (Definition 9); derive randomness from csmpc_graph::rng::Seed",
    ),
    (
        "from_entropy",
        "OS entropy breaks replicability (Definition 9); derive randomness from csmpc_graph::rng::Seed",
    ),
    (
        "getrandom",
        "OS entropy breaks replicability (Definition 9); derive randomness from csmpc_graph::rng::Seed",
    ),
    (
        "RandomState",
        "randomized hasher state makes iteration order nondeterministic; use BTreeMap/BTreeSet",
    ),
    (
        "HashMap",
        "iteration order is nondeterministic across runs; use BTreeMap so executions are replayable",
    ),
    (
        "HashSet",
        "iteration order is nondeterministic across runs; use BTreeSet so executions are replayable",
    ),
];

/// One finding per (line, forbidden name), in line then table order.
fn nondeterminism(fm: &FileModel, out: &mut Vec<Diagnostic>) {
    let hits: BTreeSet<(usize, usize)> = fm
        .toks
        .iter()
        .zip(&fm.test_mask)
        .filter(|&(t, &masked)| !masked && t.kind == TokKind::Ident)
        .filter_map(|(t, _)| {
            let k = NONDET_TOKENS.iter().position(|&(name, _)| t.text == name)?;
            Some((t.line, k))
        })
        .collect();
    for (line, k) in hits {
        let (token, why) = NONDET_TOKENS[k];
        out.push(finding(
            fm,
            Lint::Nondeterminism,
            line,
            format!("use of `{token}`: {why}"),
        ));
    }
}

// ---------------------------------------------------------------------------
// Lints 2 and 3: unaccounted-primitive, recovery-accounting
// ---------------------------------------------------------------------------

const CHARGE_TOKENS: &[&str] = &[
    "charge_rounds",
    "charge_words",
    "charge_storage",
    "charge_recovery",
    "charge_replay",
    "require_fits",
    "run_program",
    "advance_rounds",
];

/// Name fragments that mark a function as a recovery path. Beyond the
/// checkpoint-restore family, the supervision layer's speculation,
/// quarantine, and backoff paths all consume real rounds/words and must
/// charge the ledger too.
const RECOVERY_KEYWORDS: &[&str] = &[
    "restore",
    "recover",
    "retry",
    "speculate",
    "quarantine",
    "backoff",
    "replay",
];

/// Checks every production `fn` that `selects` against the charge rule:
/// a selected function with a body must name a [`CHARGE_TOKENS`] entry on
/// its body lines, or `report` describes it. Functions nested in a checked
/// body are not checked again.
fn uncharged_fns(
    fm: &FileModel,
    lint: Lint,
    selects: impl Fn(&FnItem) -> bool,
    report: impl Fn(&str) -> String,
    out: &mut Vec<Diagnostic>,
) {
    let mut resume = 0;
    for f in &fm.fns {
        if f.in_test || f.line < resume || !selects(f) {
            continue;
        }
        let Some((first, last)) = body_lines(fm, f) else {
            continue;
        };
        resume = last + 1;
        let charged = fm.toks[lines(fm, first, last)]
            .iter()
            .any(|t| ident_in(t, CHARGE_TOKENS));
        if !charged {
            out.push(finding(fm, lint, f.line, report(&f.name)));
        }
    }
}

fn unaccounted_primitive(fm: &FileModel, out: &mut Vec<Diagnostic>) {
    let pub_fn_line = |line| {
        let toks = &fm.toks[lines(fm, line, line)];
        toks.windows(2)
            .any(|w| w[0].is_ident("pub") && w[1].is_ident("fn"))
    };
    uncharged_fns(
        fm,
        Lint::UnaccountedPrimitive,
        |f| pub_fn_line(f.line) && FileModel::flat_sig(f).contains("&mutCluster"),
        |name| {
            format!(
                "public primitive `{name}` drives `&mut Cluster` but never charges the \
                 Stats ledger (expected one of charge_rounds/charge_words/charge_storage/\
                 charge_recovery/require_fits/run_program/advance_rounds); unaccounted \
                 primitives break the S = n^phi cost model"
            )
        },
        out,
    );
}

fn recovery_accounting(fm: &FileModel, out: &mut Vec<Diagnostic>) {
    uncharged_fns(
        fm,
        Lint::RecoveryAccounting,
        |f| RECOVERY_KEYWORDS.iter().any(|kw| f.name.contains(kw)) && mutates_cluster(fm, f),
        |name| {
            format!(
                "recovery path `{name}` mutates cluster state but never charges the \
                 Stats ledger; recovery is never free — replayed rounds and reshipped \
                 checkpoint words are real costs the model must see"
            )
        },
        out,
    );
}

// ---------------------------------------------------------------------------
// Lint 4: stability-discipline
// ---------------------------------------------------------------------------

/// Global-mixing calls a component-stable algorithm must not make (a
/// leading `.` means a method call). The approved API is:
/// `count_nodes`/`max_degree` (Definition 13 allows `n` and `Δ`) and
/// component-local primitives (`neighbor_reduce`, `collect_balls`,
/// `cc_labels`).
const GLOBAL_MIX_CALLS: &[(&str, &str)] = &[
    (
        ".aggregate",
        "global aggregation mixes all components; Definition 13 allows a stable output to depend only on (CC(v), v, n, Delta, S)",
    ),
    (
        ".broadcast",
        "broadcast hands every component a value of unrestricted origin; use count_nodes/max_degree for the global reads Definition 13 allows",
    ),
    (
        ".select_best_global",
        "global winner selection is the canonical component-unstable step (Theorem 5)",
    ),
    (
        "amplify",
        "success amplification selects a global winner and is component-unstable (Theorem 5)",
    ),
];

/// `true` when the impl's `component_stable()` body mentions `true`.
fn declares_stable(fm: &FileModel, body: (usize, usize)) -> bool {
    let inside = |(open, _): (usize, usize)| body.0 < open && open < body.1;
    fm.fns
        .iter()
        .find(|f| f.name == "component_stable" && f.body.is_some_and(inside))
        .and_then(|f| body_lines(fm, f))
        .is_some_and(|(first, last)| {
            fm.toks[lines(fm, first, last)]
                .iter()
                .any(|t| t.is_ident("true"))
        })
}

fn stability_discipline(fm: &FileModel, out: &mut Vec<Diagnostic>) {
    for im in &fm.impls {
        if im.trait_name.as_deref() != Some("MpcVertexAlgorithm")
            || fm.test_mask[im.body.0]
            || !declares_stable(fm, im.body)
        {
            continue;
        }
        for line in im.line..=fm.toks[im.body.1].line {
            for &(call, why) in GLOBAL_MIX_CALLS {
                let (name, method) = call
                    .strip_prefix('.')
                    .map_or((call, false), |name| (name, true));
                if live(fm, line).any(|k| is_call(&fm.toks, k, name, method)) {
                    out.push(finding(
                        fm,
                        Lint::StabilityDiscipline,
                        line,
                        format!("component-stable-declared algorithm calls `{name}`: {why}"),
                    ));
                }
            }
            // `.name(` on any receiver but `self`: stable outputs may depend
            // on IDs, never names.
            let name_read = live(fm, line).any(|k| {
                is_call(&fm.toks, k, "name", true) && !(k > 1 && fm.toks[k - 2].is_ident("self"))
            });
            if name_read {
                out.push(finding(
                    fm,
                    Lint::StabilityDiscipline,
                    line,
                    "component-stable-declared algorithm reads a node *name*; Definition 13 \
                     allows outputs to depend on IDs, never names"
                        .to_string(),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Lint 5: determinism
// ---------------------------------------------------------------------------

/// Tokens that start a raw parallel-iterator chain. The
/// `csmpc_parallel::par_map*` helpers deliberately contain none of these
/// names, so code going through the approved entry points passes untouched.
const PAR_TOKENS: &[&str] = &["par_iter", "par_iter_mut", "into_par_iter", "par_bridge"];

/// How far a parallel chain may stretch before the scanner gives up looking
/// for its order-fixing merge.
const PAR_CHAIN_MAX_LINES: usize = 40;

/// Comment marker naming a function as engine hot-path code; it must be
/// the whole comment on its line (prose that merely *mentions* the marker
/// does not mark anything). Marked functions run once per vertex per
/// round (or tighter); the reusable flat workspaces exist so they never
/// allocate an ordered map per call, and constructing one there silently
/// reintroduces the churn the workspaces removed.
const HOT_MARKER: &str = "// #[csmpc_hot]";

/// Ordered-map identifiers forbidden inside hot-marked function bodies.
const HOT_ALLOC_TOKENS: &[&str] = &["BTreeMap", "BTreeSet"];

/// The hot-path arm of [`Lint::Determinism`]: the first function declared
/// at or below a [`HOT_MARKER`] comment must not mention an ordered map on
/// its body lines (one finding per line).
fn hot_allocations(fm: &FileModel, out: &mut Vec<Diagnostic>) {
    for (idx, comment) in fm.comments.iter().enumerate() {
        if comment.trim() != HOT_MARKER {
            continue;
        }
        let Some(f) = fm.fns.iter().find(|f| f.line > idx) else {
            continue;
        };
        let Some((first, last)) = body_lines(fm, f) else {
            continue;
        };
        for line in first..=last {
            let Some(token) = HOT_ALLOC_TOKENS
                .iter()
                .find(|&&token| live(fm, line).any(|k| fm.toks[k].is_ident(token)))
            else {
                continue;
            };
            out.push(finding(
                fm,
                Lint::Determinism,
                line,
                format!(
                    "`{token}` inside `#[csmpc_hot]`-marked `{}`: hot-path code must reuse \
                     the flat workspace buffers (csmpc_graph::ball::BallWorkspace) instead of \
                     paying a per-call ordered-map allocation",
                    f.name
                ),
            ));
        }
    }
}

/// Raw parallel-iterator chains must be consumed by an order-preserving
/// `.collect()`, never by `.for_each(..)`/`.reduce(..)`.
fn par_chains(fm: &FileModel, out: &mut Vec<Diagnostic>) {
    let toks = &fm.toks;
    let ends_statement = |line| {
        toks[lines(fm, line, line)]
            .iter()
            .any(|t| t.is_punct(";") || t.is_punct("}"))
    };
    let mut resume = 0;
    for (k, t) in toks.iter().enumerate() {
        if !ident_in(t, PAR_TOKENS) || fm.test_mask[k] || t.line < resume {
            continue;
        }
        // The chain: from the parallel-iterator call to the end of the
        // statement (a `;`, or a `}` closing the surrounding tail
        // expression), capped for unbalanced input.
        let last_line = t.line + PAR_CHAIN_MAX_LINES - 1;
        let end = (t.line..=last_line)
            .find(|&line| ends_statement(line))
            .unwrap_or(last_line);
        resume = end + 1;
        let chain = lines(fm, t.line, end);
        let unordered = chain
            .clone()
            .any(|j| is_call(toks, j, "for_each", true) || is_call(toks, j, "reduce", true));
        let collected = chain.clone().any(|j| {
            toks[j].is_punct(".")
                && toks
                    .get(j + 1)
                    .is_some_and(|n| n.kind == TokKind::Ident && n.text.starts_with("collect"))
        });
        let message = if unordered {
            "parallel iterator chain is consumed by `.for_each`/`.reduce`, whose \
             side-effect/merge order is unspecified; materialize results with an \
             order-preserving `.collect()` (or use csmpc_parallel::par_map*) so \
             sequential and parallel runs stay bit-identical"
        } else if !collected {
            "parallel iterator chain never materializes through an order-preserving \
             `.collect()`; results must be merged in item-index order (or use \
             csmpc_parallel::par_map*) so sequential and parallel runs stay \
             bit-identical"
        } else {
            continue;
        };
        out.push(finding(fm, Lint::Determinism, t.line, message.to_string()));
    }
}
