//! Item-level parsing on top of [`crate::lex`]: functions, impl blocks,
//! call expressions, and closure arguments.
//!
//! This is not a full Rust parser — it recovers exactly the structure the
//! token lints and the interprocedural passes need:
//!
//! * every `fn` item with its name, flattened signature, parameter names,
//!   body token span, and enclosing `impl` context;
//! * every `impl` block with its self-type and (optional) trait name;
//! * per-function call lists (identifier-followed-by-`(` occurrences,
//!   macros and control-flow keywords excluded);
//! * `#[cfg(test)]` regions (token-granular), so test scaffolding is
//!   exempt from the production-code passes.
//!
//! Known approximations (documented in DESIGN §6 as false-negative
//! classes): nested `fn` items contribute their calls to the enclosing
//! function's span; calls through function pointers, trait objects, and
//! ubiquitous method names carry no call-graph edges.

use crate::lex::{lex, Lexed, Tok, TokKind};
use std::path::PathBuf;

/// An `impl` block.
#[derive(Debug, Clone)]
pub struct ImplItem {
    /// The self type's last path segment (`Cluster`,
    /// `DistributedGraph`, ...).
    pub type_name: String,
    /// The implemented trait's last path segment, when this is a trait
    /// impl (`impl Trait for Type`).
    pub trait_name: Option<String>,
    /// 1-indexed line of the `impl` keyword.
    pub line: usize,
    /// Token span `[open, close]` of the impl body's braces.
    pub body: (usize, usize),
}

/// One recorded call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Callee name (last path segment / method name).
    pub callee: String,
    /// 1-indexed line of the call.
    pub line: usize,
    /// `true` when the receiver is literally `self` (`self.f(...)`).
    pub self_receiver: bool,
}

/// A `fn` item.
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// 1-indexed line of the `fn` keyword.
    pub line: usize,
    /// `true` when a `pub` modifier precedes the declaration.
    pub is_pub: bool,
    /// Flattened signature text (whitespace-separated tokens from `fn` to
    /// the body brace / semicolon), e.g.
    /// `fn f ( & mut self , cluster : & mut Cluster ) -> usize`.
    pub sig: String,
    /// Parameter identifiers (pattern idents; `self` included verbatim).
    pub params: Vec<String>,
    /// Token span `[open, close]` of the body braces; `None` for bodyless
    /// trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// Index into [`FileModel::impls`] of the innermost enclosing impl.
    pub impl_idx: Option<usize>,
    /// `true` when the item sits inside a `#[cfg(test)]` region.
    pub in_test: bool,
    /// All call sites in the body span.
    pub calls: Vec<CallSite>,
}

/// A parsed source file.
#[derive(Debug, Clone)]
pub struct FileModel {
    /// Workspace-relative path (used in diagnostics).
    pub path: PathBuf,
    /// Token stream.
    pub toks: Vec<Tok>,
    /// Per-line comment text (index 0 = line 1).
    pub comments: Vec<String>,
    /// Per-token `#[cfg(test)]` membership.
    pub test_mask: Vec<bool>,
    /// All impl blocks.
    pub impls: Vec<ImplItem>,
    /// All fn items.
    pub fns: Vec<FnItem>,
}

/// Control-flow / binding keywords that look like calls when followed by
/// `(` but are not.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "match", "while", "for", "loop", "return", "fn", "move", "unsafe", "let", "else", "in",
    "as", "where", "impl", "pub", "use", "mod", "const", "static", "ref", "mut", "box", "Some",
    "Ok", "Err", "None",
];

/// Builds the matching-brace map: `brace_match[i] = Some(j)` when token `i`
/// is `{` closing at token `j` (and vice versa). Also works for `(` / `)`
/// and `[` / `]` via the `open`/`close` arguments.
fn delim_match(toks: &[Tok], open: &str, close: &str) -> Vec<Option<usize>> {
    let mut map = vec![None; toks.len()];
    let mut stack = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.is_punct(open) {
            stack.push(i);
        } else if t.is_punct(close) {
            if let Some(j) = stack.pop() {
                map[j] = Some(i);
                map[i] = Some(j);
            }
        }
    }
    map
}

/// Marks tokens covered by `#[cfg(test)]` items.
fn test_mask(toks: &[Tok], braces: &[Option<usize>]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        // Match the exact attribute token sequence `# [ cfg ( test ) ]`.
        let is_cfg_test = toks[i].is_punct("#")
            && toks.get(i + 1).is_some_and(|t| t.is_punct("["))
            && toks.get(i + 2).is_some_and(|t| t.is_ident("cfg"))
            && toks.get(i + 3).is_some_and(|t| t.is_punct("("))
            && toks.get(i + 4).is_some_and(|t| t.is_ident("test"))
            && toks.get(i + 5).is_some_and(|t| t.is_punct(")"))
            && toks.get(i + 6).is_some_and(|t| t.is_punct("]"));
        if !is_cfg_test {
            i += 1;
            continue;
        }
        // The attribute governs the next item: everything up to the end of
        // that item's block (or its terminating `;` for block-free items).
        let mut j = i + 7;
        let mut end = toks.len().saturating_sub(1);
        while j < toks.len() {
            if toks[j].is_punct("{") {
                end = braces[j].unwrap_or(end);
                break;
            }
            if toks[j].is_punct(";") {
                end = j;
                break;
            }
            j += 1;
        }
        for flag in mask.iter_mut().take(end + 1).skip(i) {
            *flag = true;
        }
        i = end + 1;
    }
    mask
}

/// Extracts impl headers. `braces` is the `{`/`}` match map.
fn parse_impls(toks: &[Tok], braces: &[Option<usize>]) -> Vec<ImplItem> {
    let mut impls = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_ident("impl") {
            i += 1;
            continue;
        }
        // Header: tokens until the body `{` (or a `;`, malformed).
        let mut open = None;
        let mut j = i + 1;
        while j < toks.len() {
            if toks[j].is_punct("{") {
                open = Some(j);
                break;
            }
            if toks[j].is_punct(";") {
                break;
            }
            j += 1;
        }
        let Some(open) = open else {
            i = j + 1;
            continue;
        };
        let header = &toks[i + 1..open];
        // Split at a top-level `for` (angle-depth 0): `impl Trait for Type`.
        let mut angle = 0i64;
        let mut for_pos = None;
        for (k, t) in header.iter().enumerate() {
            match t.text.as_str() {
                "<" => angle += 1,
                ">" => angle -= 1,
                "<<" => angle += 2,
                ">>" => angle -= 2,
                "for" if t.kind == TokKind::Ident && angle == 0 => {
                    for_pos = Some(k);
                    break;
                }
                _ => {}
            }
        }
        let last_top_ident = |slice: &[Tok]| -> String {
            let mut angle = 0i64;
            let mut name = String::new();
            for t in slice {
                match t.text.as_str() {
                    "<" => angle += 1,
                    ">" => angle -= 1,
                    "<<" => angle += 2,
                    ">>" => angle -= 2,
                    "where" if t.kind == TokKind::Ident && angle == 0 => break,
                    _ if t.kind == TokKind::Ident && angle == 0 => name = t.text.clone(),
                    _ => {}
                }
            }
            name
        };
        let (trait_name, type_name) = match for_pos {
            Some(k) => (
                Some(last_top_ident(&header[..k])),
                last_top_ident(&header[k + 1..]),
            ),
            None => (None, last_top_ident(header)),
        };
        let close = braces[open].unwrap_or(toks.len() - 1);
        impls.push(ImplItem {
            type_name,
            trait_name,
            line: toks[i].line,
            body: (open, close),
        });
        // Continue scanning *inside* the impl (nested impls are rare but
        // fns inside this one are found by the fn scan).
        i += 1;
    }
    impls
}

/// Collects pattern identifiers from a parameter list token slice (between
/// the parens, one parameter = tokens up to a top-level `,`). Identifiers
/// in the pattern part (before the `:`) are bound names; `self` is kept.
fn param_idents(params: &[Tok]) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i64;
    let mut seen_colon = false;
    for t in params {
        match t.text.as_str() {
            "(" | "[" | "{" | "<" => depth += 1,
            ")" | "]" | "}" | ">" => depth -= 1,
            "," if depth == 0 => seen_colon = false,
            ":" if depth == 0 => seen_colon = true,
            _ if !seen_colon && t.kind == TokKind::Ident && t.text != "mut" && t.text != "ref" => {
                out.push(t.text.clone());
            }
            _ => {}
        }
    }
    out
}

/// Records every call site in `toks[span]`.
fn collect_calls(toks: &[Tok], span: (usize, usize), angles_ok: bool) -> Vec<CallSite> {
    let (a, b) = span;
    let mut out = Vec::new();
    let mut k = a;
    while k <= b && k < toks.len() {
        let t = &toks[k];
        if t.kind != TokKind::Ident || NON_CALL_KEYWORDS.contains(&t.text.as_str()) {
            k += 1;
            continue;
        }
        // Macro invocation `name!(...)`: not a fn call.
        if toks.get(k + 1).is_some_and(|n| n.is_punct("!")) {
            k += 2;
            continue;
        }
        // Optional turbofish between the name and the call parens.
        let mut j = k + 1;
        if angles_ok
            && toks.get(j).is_some_and(|n| n.is_punct("::"))
            && toks.get(j + 1).is_some_and(|n| n.is_punct("<"))
        {
            let mut depth = 0i64;
            let mut m = j + 1;
            while m <= b && m < toks.len() {
                match toks[m].text.as_str() {
                    "<" => depth += 1,
                    ">" => depth -= 1,
                    ">>" => depth -= 2,
                    _ => {}
                }
                m += 1;
                if depth <= 0 {
                    break;
                }
            }
            j = m;
        }
        if toks.get(j).is_some_and(|n| n.is_punct("(")) {
            let self_receiver = k >= 2 && toks[k - 1].is_punct(".") && toks[k - 2].is_ident("self");
            out.push(CallSite {
                callee: t.text.clone(),
                line: t.line,
                self_receiver,
            });
        }
        k += 1;
    }
    out
}

/// Parses one source file into its item model.
#[must_use]
pub fn parse_file(path: PathBuf, source: &str) -> FileModel {
    let Lexed { toks, comments } = lex(source);
    let braces = delim_match(&toks, "{", "}");
    let mask = test_mask(&toks, &braces);
    let impls = parse_impls(&toks, &braces);
    let mut fns = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_ident("fn") {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            i += 1;
            continue;
        };
        let name = name_tok.text.clone();
        // `pub` lookback: scan to the previous item boundary.
        let mut is_pub = false;
        {
            let mut k = i;
            while k > 0 {
                k -= 1;
                let t = &toks[k];
                if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
                    break;
                }
                if t.is_ident("pub") {
                    is_pub = true;
                    break;
                }
            }
        }
        // Signature: tokens from `fn` to the body `{` or a `;`. Generic
        // parameter lists and where-clauses contain no braces, so the first
        // `{` is the body.
        let mut open = None;
        let mut sig_end = toks.len();
        let mut j = i;
        while j < toks.len() {
            if toks[j].is_punct("{") {
                open = Some(j);
                sig_end = j;
                break;
            }
            if toks[j].is_punct(";") {
                sig_end = j;
                break;
            }
            j += 1;
        }
        let sig: String = toks[i..sig_end]
            .iter()
            .map(|t| t.text.as_str())
            .collect::<Vec<_>>()
            .join(" ");
        // Parameters: the first paren group after the name.
        let mut params = Vec::new();
        {
            let mut k = i + 2;
            while k < sig_end {
                if toks[k].is_punct("(") {
                    // Find matching close within the signature.
                    let mut depth = 0i64;
                    let mut m = k;
                    while m < sig_end {
                        if toks[m].is_punct("(") {
                            depth += 1;
                        } else if toks[m].is_punct(")") {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        m += 1;
                    }
                    params = param_idents(&toks[k + 1..m.min(sig_end)]);
                    break;
                }
                k += 1;
            }
        }
        let body = open.map(|o| (o, braces[o].unwrap_or(toks.len() - 1)));
        let impl_idx = impls
            .iter()
            .enumerate()
            .filter(|(_, im)| im.body.0 < i && i < im.body.1)
            .min_by_key(|(_, im)| im.body.1 - im.body.0)
            .map(|(idx, _)| idx);
        let calls = body.map_or_else(Vec::new, |(o, c)| collect_calls(&toks, (o, c), true));
        fns.push(FnItem {
            name,
            line: toks[i].line,
            is_pub,
            sig,
            params,
            body,
            impl_idx,
            in_test: mask.get(i).copied().unwrap_or(false),
            calls,
        });
        i += 2;
    }
    FileModel {
        path,
        toks,
        comments,
        test_mask: mask,
        impls,
        fns,
    }
}

impl FileModel {
    /// The flattened signature with all whitespace removed — convenient for
    /// `&mut Cluster` / `&mut self` matching.
    #[must_use]
    pub fn flat_sig(f: &FnItem) -> String {
        f.sig.split_whitespace().collect()
    }

    /// `true` when `f` is a method of an inherent `impl Cluster` block.
    #[must_use]
    pub fn in_inherent_cluster_impl(&self, f: &FnItem) -> bool {
        f.impl_idx.is_some_and(|idx| {
            let im = &self.impls[idx];
            im.type_name == "Cluster" && im.trait_name.is_none()
        })
    }

    /// All identifier texts in `f`'s body span (empty for bodyless fns).
    pub fn body_idents<'a>(&'a self, f: &FnItem) -> impl Iterator<Item = &'a Tok> {
        let (a, b) = f.body.unwrap_or((1, 0));
        self.toks[a.min(self.toks.len())..(b + 1).min(self.toks.len())]
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn model(src: &str) -> FileModel {
        parse_file(Path::new("x.rs").to_path_buf(), src)
    }

    #[test]
    fn fn_items_with_bodies_and_calls() {
        let m = model("pub fn outer(cluster: &mut Cluster) -> usize {\n    helper(cluster);\n    cluster.charge_rounds(1);\n    0\n}\nfn helper(c: &mut Cluster) {}\n");
        assert_eq!(m.fns.len(), 2);
        let outer = &m.fns[0];
        assert!(outer.is_pub);
        assert_eq!(outer.name, "outer");
        assert_eq!(outer.params, vec!["cluster"]);
        assert!(FileModel::flat_sig(outer).contains("&mutCluster"));
        let callees: Vec<&str> = outer.calls.iter().map(|c| c.callee.as_str()).collect();
        assert_eq!(callees, vec!["helper", "charge_rounds"]);
        assert!(!m.fns[1].is_pub);
    }

    #[test]
    fn impl_headers_trait_and_inherent() {
        let m = model(
            "impl Cluster {\n    pub fn f(&mut self) {}\n}\nimpl<'a> MpcVertexAlgorithm for Foo<'a> {\n    fn run(&self) {}\n}\n",
        );
        assert_eq!(m.impls.len(), 2);
        assert_eq!(m.impls[0].type_name, "Cluster");
        assert!(m.impls[0].trait_name.is_none());
        assert_eq!(m.impls[1].type_name, "Foo");
        assert_eq!(m.impls[1].trait_name.as_deref(), Some("MpcVertexAlgorithm"));
        assert!(m.in_inherent_cluster_impl(&m.fns[0]));
        assert!(!m.in_inherent_cluster_impl(&m.fns[1]));
    }

    #[test]
    fn cfg_test_regions_are_masked() {
        let m = model("fn prod() {}\n#[cfg(test)]\nmod tests {\n    fn scaffolding() {}\n}\n");
        assert!(!m.fns[0].in_test);
        assert!(m.fns[1].in_test);
    }

    #[test]
    fn macros_and_keywords_are_not_calls() {
        let m = model("fn f() {\n    assert!(true);\n    if x() { vec![1] } else { g() }\n}\n");
        let callees: Vec<&str> = m.fns[0].calls.iter().map(|c| c.callee.as_str()).collect();
        assert_eq!(callees, vec!["x", "g"]);
    }

    #[test]
    fn self_receiver_is_tracked() {
        let m = model("fn f(&mut self) {\n    self.charge_rounds(1);\n    other.thing();\n}\n");
        assert!(m.fns[0].calls[0].self_receiver);
        assert!(!m.fns[0].calls[1].self_receiver);
    }

    #[test]
    fn turbofish_calls_are_detected() {
        let m = model("fn f() { parse::<u32>(s); }\n");
        assert_eq!(m.fns[0].calls[0].callee, "parse");
    }

    #[test]
    fn bodyless_trait_methods() {
        let m = model("trait T {\n    fn required(&self) -> usize;\n    fn provided(&self) -> usize { 1 }\n}\n");
        assert_eq!(m.fns[0].name, "required");
        assert!(m.fns[0].body.is_none());
        assert!(m.fns[1].body.is_some());
    }
}
