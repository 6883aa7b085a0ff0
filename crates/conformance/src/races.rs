//! Parallel-closure race / nondeterminism detection (`par-closure-race`
//! lint).
//!
//! The seq-vs-par bit-identity contract (DESIGN §5d) requires every
//! closure handed to a `csmpc_parallel` sweep helper (`par_map`,
//! `par_map_mut`, `par_map_range`, their `_into` forms, `par_update_any`
//! and `par_fill_blocks`) to be a pure per-item map: it may mutate *its
//! own item or block* (the `&mut` closure parameter) and its own
//! `let`-bound locals, and nothing else. This pass analyzes each such closure for the ways that
//! contract is broken in practice:
//!
//! * **captured mutation** — assignment (`x = ...`, `x += ...`) or a
//!   mutating method call (`x.push(...)`, `x.insert(...)`, ...) whose
//!   receiver root is not a closure parameter or a local binding;
//! * **interior mutability** — `RefCell` / `Cell` / `Mutex` / `RwLock` /
//!   `UnsafeCell` / atomics named in the closure, `borrow_mut` / `lock` /
//!   `fetch_*` / `store` calls, or a call into a workspace function whose
//!   own body uses interior mutability (one level deep — the
//!   `with_thread_workspace` pattern);
//! * **unordered iteration** — `HashMap` / `HashSet` mentioned inside the
//!   closure (iteration order varies per process, so even a pure map over
//!   one is nondeterministic).
//!
//! Closures inside `#[csmpc_hot]`-marked functions get no special
//! treatment — the hot path is exactly where a silent race would do the
//! most damage.

use crate::callgraph::CallGraph;
use crate::lex::{Tok, TokKind};
use crate::syntax::FileModel;
use crate::{Diagnostic, Lint, Severity};

/// The approved deterministic-parallelism entry points: every
/// `csmpc_parallel` helper that hands a closure to worker threads.
const PAR_ENTRY_POINTS: &[&str] = &[
    "par_map",
    "par_map_mut",
    "par_map_range",
    "par_map_range_into",
    "par_map_mut_into",
    "par_update_any",
    "par_fill_blocks",
];

/// Mutating method names (receiver must be closure-local).
const MUT_METHODS: &[&str] = &[
    "push",
    "push_str",
    "insert",
    "remove",
    "extend",
    "clear",
    "truncate",
    "drain",
    "retain",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "swap",
    "swap_remove",
    "fill",
    "resize",
    "get_mut",
    "iter_mut",
    "split_at_mut",
];

/// Interior-mutability type names.
const INTERIOR_TYPES: &[&str] = &[
    "RefCell",
    "Cell",
    "Mutex",
    "RwLock",
    "UnsafeCell",
    "OnceCell",
    "AtomicBool",
    "AtomicUsize",
    "AtomicIsize",
    "AtomicU32",
    "AtomicU64",
    "AtomicI32",
    "AtomicI64",
];

/// Interior-mutability access calls.
const INTERIOR_CALLS: &[&str] = &[
    "borrow_mut",
    "lock",
    "write",
    "store",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "compare_exchange",
];

/// Unordered collections (nondeterministic iteration order).
const UNORDERED: &[&str] = &["HashMap", "HashSet"];

/// One parallel-closure call site: the closure's parameter names and body
/// token span.
struct ParClosure {
    entry: String,
    params: Vec<String>,
    body: (usize, usize),
}

/// Finds `par_map*(...)` call sites in `toks[span]` and extracts the
/// closure argument of each.
fn find_par_closures(toks: &[Tok], span: (usize, usize)) -> Vec<ParClosure> {
    let mut out = Vec::new();
    let (a, b) = span;
    let mut k = a;
    while k <= b && k < toks.len() {
        let t = &toks[k];
        if t.kind != TokKind::Ident || !PAR_ENTRY_POINTS.contains(&t.text.as_str()) {
            k += 1;
            continue;
        }
        let Some(open) = toks.get(k + 1).filter(|n| n.is_punct("(")) else {
            k += 1;
            continue;
        };
        let _ = open;
        // Matching close paren of the call.
        let mut depth = 0i64;
        let mut close = k + 1;
        let mut m = k + 1;
        while m <= b && m < toks.len() {
            if toks[m].is_punct("(") {
                depth += 1;
            } else if toks[m].is_punct(")") {
                depth -= 1;
                if depth == 0 {
                    close = m;
                    break;
                }
            }
            m += 1;
        }
        // First `|` (or `||`) at call-argument depth opens the closure.
        let mut params = Vec::new();
        let mut body_start = None;
        let mut m = k + 2;
        while m < close {
            if toks[m].is_punct("||") {
                body_start = Some(m + 1);
                break;
            }
            if toks[m].is_punct("|") {
                // Parameter list to the matching `|`.
                let mut p = m + 1;
                let mut ptoks = Vec::new();
                while p < close && !toks[p].is_punct("|") {
                    ptoks.push(toks[p].clone());
                    p += 1;
                }
                params = ptoks
                    .iter()
                    .filter(|t| t.kind == TokKind::Ident && t.text != "mut" && t.text != "ref")
                    .map(|t| t.text.clone())
                    .collect();
                body_start = Some(p + 1);
                break;
            }
            m += 1;
        }
        if let Some(start) = body_start {
            if start < close {
                out.push(ParClosure {
                    entry: t.text.clone(),
                    params,
                    body: (start, close - 1),
                });
            }
        }
        k += 1;
    }
    out
}

/// Collects closure-local names: parameters, `let` bindings, `for`-loop
/// bindings, and nested-closure parameters inside the body span.
fn local_names(toks: &[Tok], closure: &ParClosure) -> Vec<String> {
    let mut locals = closure.params.clone();
    let (a, b) = closure.body;
    let mut k = a;
    while k <= b && k < toks.len() {
        let t = &toks[k];
        if t.is_ident("let") {
            // Idents between `let` and `=` (stop early at `;`), skipping
            // everything after a type-annotation `:`.
            let mut m = k + 1;
            let mut after_colon = false;
            while m <= b && !toks[m].is_punct("=") && !toks[m].is_punct(";") {
                if toks[m].is_punct(":") {
                    after_colon = true;
                }
                if !after_colon && toks[m].kind == TokKind::Ident {
                    locals.push(toks[m].text.clone());
                }
                m += 1;
            }
            k = m;
            continue;
        }
        if t.is_ident("for") {
            let mut m = k + 1;
            while m <= b && !toks[m].is_ident("in") {
                if toks[m].kind == TokKind::Ident {
                    locals.push(toks[m].text.clone());
                }
                m += 1;
            }
            k = m;
            continue;
        }
        if t.is_punct("|") {
            // Nested closure parameter list.
            let mut m = k + 1;
            while m <= b && !toks[m].is_punct("|") {
                if toks[m].kind == TokKind::Ident && toks[m].text != "mut" && toks[m].text != "ref"
                {
                    locals.push(toks[m].text.clone());
                }
                m += 1;
            }
            k = m + 1;
            continue;
        }
        k += 1;
    }
    locals
}

/// Walks left from `idx` (exclusive) over a `root.path[i].field` chain and
/// returns the chain's root identifier, if the left context is a plain
/// place expression.
fn chain_root(toks: &[Tok], mut idx: usize) -> Option<String> {
    let mut root = None;
    loop {
        if idx == 0 {
            break;
        }
        idx -= 1;
        let t = &toks[idx];
        if t.kind == TokKind::Ident {
            root = Some(t.text.clone());
            // Keep walking only if a `.` or `::` continues the chain left.
            if idx == 0 {
                break;
            }
            let prev = &toks[idx - 1];
            if prev.is_punct(".") || prev.is_punct("::") {
                idx -= 1; // skip the separator, continue to next segment
                continue;
            }
            break;
        }
        if t.is_punct("]") {
            // Skip the index expression to its opening bracket.
            let mut depth = 0i64;
            loop {
                let u = &toks[idx];
                if u.is_punct("]") {
                    depth += 1;
                } else if u.is_punct("[") {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if idx == 0 {
                    return None;
                }
                idx -= 1;
            }
            continue;
        }
        // `*x = ...` deref-assignments: keep walking through `*`.
        if t.is_punct("*") {
            continue;
        }
        break;
    }
    root
}

/// Analyzes one closure; pushes findings.
#[allow(clippy::too_many_lines)]
fn analyze_closure(
    fm: &FileModel,
    closure: &ParClosure,
    interior_fns: &[String],
    out: &mut Vec<Diagnostic>,
) {
    let toks = &fm.toks;
    let locals = local_names(toks, closure);
    let is_local = |name: &str| name == "_" || locals.iter().any(|l| l == name);
    let (a, b) = closure.body;
    let mut reported_lines = std::collections::BTreeSet::new();
    let mut push = |line: usize, message: String, out: &mut Vec<Diagnostic>| {
        if reported_lines.insert((line, message.clone())) {
            out.push(Diagnostic {
                lint: Lint::ParClosureRace,
                severity: Severity::Error,
                file: fm.path.clone(),
                line,
                message,
                witness: vec![format!("closure passed to {}", closure.entry)],
            });
        }
    };
    let mut k = a;
    while k <= b && k < toks.len() {
        let t = &toks[k];
        if t.kind == TokKind::Ident {
            if INTERIOR_TYPES.contains(&t.text.as_str()) {
                push(
                    t.line,
                    format!(
                        "`{}` inside a {} closure: interior mutability makes the sweep's \
                         side effects depend on thread schedule, breaking seq-vs-par \
                         bit-identity",
                        t.text, closure.entry
                    ),
                    out,
                );
            } else if UNORDERED.contains(&t.text.as_str()) {
                push(
                    t.line,
                    format!(
                        "`{}` inside a {} closure: unordered iteration makes the per-item \
                         computation nondeterministic across runs",
                        t.text, closure.entry
                    ),
                    out,
                );
            } else if toks.get(k + 1).is_some_and(|n| n.is_punct("(")) {
                let callee = t.text.as_str();
                let is_method = k > 0 && toks[k - 1].is_punct(".");
                if INTERIOR_CALLS.contains(&callee) && is_method {
                    let root = chain_root(toks, k - 1);
                    if root.as_deref().is_none_or(|r| !is_local(r)) {
                        push(
                            t.line,
                            format!(
                                "`.{callee}(...)` on captured state inside a {} closure: \
                                 interior-mutability access from parallel workers is a data \
                                 race on the bit-identity contract",
                                closure.entry
                            ),
                            out,
                        );
                    }
                } else if MUT_METHODS.contains(&callee) && is_method {
                    let root = chain_root(toks, k - 1);
                    if let Some(r) = root {
                        if !is_local(&r) {
                            push(
                                t.line,
                                format!(
                                    "`{r}.{callee}(...)` mutates captured state inside a {} \
                                     closure; parallel workers would race on `{r}` (mutate \
                                     only the closure's own item or locals)",
                                    closure.entry
                                ),
                                out,
                            );
                        }
                    }
                } else if interior_fns.iter().any(|f| f == callee) {
                    push(
                        t.line,
                        format!(
                            "call to `{callee}` inside a {} closure: its body uses interior \
                             mutability (RefCell/Mutex/atomics); if the shared state is \
                             per-thread by construction, annotate the call site with \
                             `csmpc-allow(par-closure-race): <reason>`",
                            closure.entry
                        ),
                        out,
                    );
                }
            }
        } else if t.is_punct("=")
            || ["+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>="]
                .contains(&t.text.as_str())
        {
            if let Some(root) = chain_root(toks, k) {
                if !is_local(&root) && root != "let" {
                    push(
                        t.line,
                        format!(
                            "assignment to captured `{root}` inside a {} closure; parallel \
                             workers would race on it (bind locals with `let`, or return the \
                             value and merge sequentially)",
                            closure.entry
                        ),
                        out,
                    );
                }
            }
        }
        k += 1;
    }
}

/// Runs the pass: every `par_map*` closure in non-test code is analyzed.
#[must_use]
pub fn run(files: &[FileModel], graph: &CallGraph) -> Vec<Diagnostic> {
    // Workspace functions whose bodies use interior mutability directly
    // (one-level-deep interprocedural check for the thread-local-workspace
    // pattern).
    let mut interior_fns = Vec::new();
    for node in 0..graph.nodes.len() {
        let id = graph.nodes[node];
        let fm = &files[id.file];
        let f = &fm.fns[id.item];
        // Ubiquitous names are skipped for the same reason the call graph
        // builds no edges for them: every type has a `new`, so a bare
        // `new(...)` call site says nothing about which body runs, and one
        // constructor initializing a `Mutex` somewhere in the workspace
        // must not taint every `SplitMix64::new` in a parallel closure.
        if crate::callgraph::is_ubiquitous(&f.name) {
            continue;
        }
        let uses_interior = fm
            .body_idents(f)
            .any(|t| INTERIOR_TYPES.contains(&t.text.as_str()) || t.text == "borrow_mut");
        if uses_interior && !interior_fns.contains(&f.name) {
            interior_fns.push(f.name.clone());
        }
    }
    let mut out = Vec::new();
    for fm in files {
        for f in &fm.fns {
            if f.in_test {
                continue;
            }
            let Some(body) = f.body else { continue };
            for closure in find_par_closures(&fm.toks, body) {
                analyze_closure(fm, &closure, &interior_fns, &mut out);
            }
        }
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
    fn pure_closures_are_clean() {
        let src = "\
fn sweep(mode: ParallelismMode, items: &[u64]) -> Vec<u64> {
    par_map(mode, items, |i, x| {
        let mut acc = *x;
        acc += i as u64;
        acc
    })
}
fn sweep_mut(mode: ParallelismMode, items: &mut [u64]) -> Vec<u64> {
    par_map_mut(mode, items, |i, item| {
        *item += i as u64;
        *item
    })
}
";
        assert!(run_src(src).is_empty(), "{:?}", run_src(src));
    }

    #[test]
    fn refcell_capture_is_flagged() {
        let src = "\
fn racy(mode: ParallelismMode, n: usize, log: &RefCell<Vec<usize>>) -> Vec<usize> {
    par_map_range(mode, n, |v| {
        log.borrow_mut().push(v);
        v
    })
}
";
        let d = run_src(src);
        assert!(!d.is_empty());
        assert!(d.iter().any(|x| x.message.contains("borrow_mut")), "{d:?}");
    }

    #[test]
    fn captured_push_and_assignment_are_flagged() {
        let src = "\
fn racy(mode: ParallelismMode, n: usize) -> Vec<usize> {
    let mut seen = Vec::new();
    let mut total = 0usize;
    par_map_range(mode, n, |v| {
        seen.push(v);
        total += v;
        v
    })
}
";
        let d = run_src(src);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d[0].message.contains("seen.push"));
        assert!(d[1].message.contains("total"));
    }

    #[test]
    fn unordered_map_in_closure_is_flagged() {
        let src = "\
fn racy(mode: ParallelismMode, n: usize) -> Vec<usize> {
    par_map_range(mode, n, |v| {
        let m: HashMap<usize, usize> = make_map(v);
        m.values().sum()
    })
}
";
        let d = run_src(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("HashMap"));
    }

    #[test]
    fn one_level_interior_mutability_is_flagged() {
        let src = "\
fn with_scratch<R>(f: impl FnOnce(&mut Scratch) -> R) -> R {
    SCRATCH.with(|s| f(&mut s.borrow_mut()))
}
fn sweep(mode: ParallelismMode, n: usize) -> Vec<usize> {
    par_map_range(mode, n, |v| with_scratch(|s| s.eval(v)))
}
";
        let d = run_src(src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("with_scratch"), "{d:?}");
    }

    #[test]
    fn ubiquitous_constructor_names_do_not_taint_closures() {
        // A workspace type whose `new` builds a Mutex must not flag every
        // unrelated `Foo::new(...)` inside a parallel closure — `new` is
        // on the resolution deny list, so the one-level interior lookup
        // skips it (same trade-off as the call graph itself).
        let src = "\
impl JobService {
    pub fn new(cfg: ServiceConfig) -> Self {
        Self { state: Mutex::new(SchedState::fresh(&cfg)), cfg }
    }
}
fn sweep(mode: ParallelismMode, n: usize, seed: Seed) -> Vec<u64> {
    par_map_range(mode, n, |v| {
        let mut rng = SplitMix64::new(seed.derive(v as u64));
        rng.range(0, 10)
    })
}
";
        assert!(run_src(src).is_empty(), "{:?}", run_src(src));
    }

    #[test]
    fn mutating_own_param_chain_is_clean() {
        let src = "\
fn sweep(mode: ParallelismMode, shards: &mut [Shard]) -> Vec<usize> {
    par_map_mut(mode, shards, |id, shard| {
        shard.outbox.clear();
        shard.queue.push(id);
        shard.queue.len()
    })
}
";
        assert!(run_src(src).is_empty(), "{:?}", run_src(src));
    }

    #[test]
    fn block_and_in_place_helpers_are_analyzed() {
        let src = "\
fn racy(mode: ParallelismMode, items: &mut [u64], log: &RefCell<Vec<usize>>) -> bool {
    par_update_any(mode, items, |i, x| {
        log.borrow_mut().push(i);
        *x += 1;
        true
    })
}
fn racy_fill(mode: ParallelismMode, n: usize, out: &mut Vec<u32>) {
    let mut total = 0usize;
    par_fill_blocks(mode, n, out, |lo, block| {
        total += block.len();
        block.fill(lo as u32);
    });
}
";
        let d = run_src(src);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d[0].message.contains("borrow_mut"), "{d:?}");
        assert!(d[0].witness[0].contains("par_update_any"), "{d:?}");
        assert!(d[1].message.contains("total"), "{d:?}");
        assert!(d[1].witness[0].contains("par_fill_blocks"), "{d:?}");
    }

    #[test]
    fn own_block_and_item_writes_are_clean() {
        let src = "\
fn fill(mode: ParallelismMode, n: usize, out: &mut Vec<u32>, into: &mut Vec<u64>) {
    par_fill_blocks(mode, n, out, |lo, block| {
        for (i, slot) in block.iter_mut().enumerate() {
            *slot = (lo + i) as u32;
        }
    });
    par_map_range_into(mode, n, into, |v| v as u64);
}
fn bump(mode: ParallelismMode, items: &mut [u64], out: &mut Vec<u64>) -> bool {
    par_map_mut_into(mode, items, out, |i, x| {
        *x += i as u64;
        *x
    });
    par_update_any(mode, items, |_, x| {
        *x += 1;
        false
    })
}
";
        assert!(run_src(src).is_empty(), "{:?}", run_src(src));
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "\
#[cfg(test)]
mod tests {
    fn scaffolding(mode: ParallelismMode, n: usize, log: &RefCell<Vec<usize>>) {
        par_map_range(mode, n, |v| log.borrow_mut().push(v));
    }
}
";
        assert!(run_src(src).is_empty());
    }
}
