//! `conformance` — run the full static analysis engine (token lints +
//! interprocedural passes) over the workspace.
//!
//! ```text
//! conformance [--format text|json|sarif] [--sarif-out FILE] [ROOT]
//! ```
//!
//! * `ROOT` — workspace root (defaults to the nearest ancestor of the
//!   current directory containing a `crates/` subdirectory).
//! * `--format` — primary-output format on stdout (`text` default);
//!   `--json` is shorthand for `--format json`.
//! * `--sarif-out FILE` — additionally write a SARIF 2.1.0 log (for CI
//!   artifact upload), independent of `--format`.
//!
//! Every finding fails the run; a reviewed exception is a
//! `csmpc-allow(<lint>): <reason>` annotation at the finding. Exit status
//! separates findings from breakage: `0` clean, `1` any finding, `2`
//! usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use csmpc_conformance::{analyze_workspace, Report};

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Text,
    Json,
    Sarif,
}

struct Options {
    format: Format,
    sarif_out: Option<PathBuf>,
    root: Option<PathBuf>,
}

fn usage() {
    println!(
        "usage: conformance [--format text|json|sarif] [--sarif-out FILE] [ROOT]\n\
         \n\
         Static model-conformance analysis over one parse of each file:\n\
         token lints (nondeterminism, unaccounted-primitive,\n\
         recovery-accounting, stability-discipline, determinism) plus\n\
         interprocedural passes (charge-flow, par-closure-race,\n\
         stability-flow) and suppression hygiene (unused-suppression).\n\
         \n\
         Suppress a finding of any lint with\n\
         `// csmpc-allow(<lint>): <reason>` on the same or the preceding\n\
         line; it is the only suppression syntax.\n\
         \n\
         Exit codes: 0 clean, 1 any finding, 2 usage or I/O error."
    );
}

fn parse_args() -> Result<Option<Options>, String> {
    let mut opts = Options {
        format: Format::Text,
        sarif_out: None,
        root: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--help" | "-h" => return Ok(None),
            "--json" => opts.format = Format::Json,
            "--format" => {
                let v = args.next().ok_or("--format needs a value")?;
                opts.format = match v.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    "sarif" => Format::Sarif,
                    other => return Err(format!("unknown format `{other}`")),
                };
            }
            "--sarif-out" => {
                let v = args.next().ok_or("--sarif-out needs a file path")?;
                opts.sarif_out = Some(PathBuf::from(v));
            }
            _ if arg.starts_with('-') => return Err(format!("unknown flag: {arg}")),
            _ => opts.root = Some(PathBuf::from(arg)),
        }
    }
    Ok(Some(opts))
}

fn find_root(start: PathBuf) -> Option<PathBuf> {
    let mut dir = start;
    loop {
        if dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

fn emit(report: &Report, format: Format) {
    match format {
        Format::Json => println!("{}", report.to_json()),
        Format::Sarif => println!("{}", report.to_sarif()),
        Format::Text => {
            for d in &report.diagnostics {
                println!("{d}");
            }
            println!(
                "conformance: {} finding(s) across {} file(s) scanned",
                report.diagnostics.len(),
                report.files_scanned
            );
        }
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(Some(o)) => o,
        Ok(None) => {
            usage();
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("conformance: {msg}");
            return ExitCode::from(2);
        }
    };
    let root = match opts.root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
            match find_root(cwd) {
                Some(r) => r,
                None => {
                    eprintln!("conformance: no `crates/` directory found above the current dir");
                    return ExitCode::from(2);
                }
            }
        }
    };
    let report = match analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("conformance: failed to scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &opts.sarif_out {
        if let Err(e) = std::fs::write(path, report.to_sarif()) {
            eprintln!("conformance: cannot write SARIF {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    emit(&report, opts.format);
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
