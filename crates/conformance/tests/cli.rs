//! Exit codes of the `conformance` binary: 0 on a clean tree, 1 on any
//! finding, 2 on a usage error. Each case scans its own fixture root.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Output;

/// A fresh workspace root holding `crates/mpc/src/x.rs` with `source`.
fn fixture_root(name: &str, source: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&root);
    let src = root.join("crates/mpc/src");
    fs::create_dir_all(&src).unwrap();
    fs::write(src.join("x.rs"), source).unwrap();
    root
}

fn conformance(args: &[&str], root: &Path) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_conformance"))
        .args(args)
        .arg(root)
        .output()
        .expect("run conformance")
}

#[test]
fn a_clean_tree_exits_zero() {
    let root = fixture_root("cli-clean", "pub fn f() -> u32 {\n    1\n}\n");
    let out = conformance(&[], &root);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("0 finding(s) across 1 file(s)"), "{stdout}");
}

#[test]
fn any_finding_exits_one_and_is_printed() {
    let root = fixture_root("cli-finding", "use std::time::Instant;\n");
    let out = conformance(&[], &root);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("crates/mpc/src/x.rs:1") && stdout.contains("nondeterminism"),
        "{stdout}"
    );
}

#[test]
fn usage_errors_exit_two() {
    let root = fixture_root("cli-usage", "use std::time::Instant;\n");
    for args in [
        &["--baseline", "f"][..],
        &["--write-baseline", "f"],
        &["--format", "xml"],
    ] {
        let out = conformance(args, &root);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
    }
}
