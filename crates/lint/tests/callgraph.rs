//! End-to-end fixtures for the crate-wide layer: R8 reachability and
//! R9 determinism driven through [`mx_lint::lint_sources`], including
//! `lint:allow` suppression — the merge-then-allow plumbing the unit
//! tests in `graph.rs`/`rules.rs` cannot see.

use mx_lint::{lint_sources, LintConfig, Rule};

fn sources(files: &[(&str, &str)]) -> Vec<(String, String)> {
    files
        .iter()
        .map(|(rel, src)| (rel.to_string(), src.to_string()))
        .collect()
}

fn rules_of(report: &mx_lint::Report) -> Vec<Rule> {
    report.diagnostics.iter().map(|d| d.rule).collect()
}

/// Taint crosses two hops and two files: `ingest` (entry point) calls
/// `mid` in another file, `mid` calls `deep`, and `deep` unwraps. The
/// diagnostic lands on the sink line in `deep.rs` and names both the
/// entry and the hop count.
#[test]
fn two_hop_cross_file_taint_lands_on_the_sink() {
    let srcs = sources(&[
        (
            "crates/a/src/input.rs",
            "pub fn ingest(b: &[u8]) -> usize { mid(b) }\n",
        ),
        (
            "crates/a/src/mid.rs",
            "pub(crate) fn mid(b: &[u8]) -> usize { deep(b) }\n",
        ),
        (
            "crates/a/src/deep.rs",
            "pub(crate) fn deep(b: &[u8]) -> usize {\n    b.first().copied().map(usize::from).unwrap()\n}\n",
        ),
    ]);
    let mut cfg = LintConfig::default();
    cfg.entry_points = vec!["crates/a/src/input.rs::ingest".into()];
    let report = lint_sources(&srcs, &cfg);
    assert_eq!(rules_of(&report), [Rule::R8], "{:?}", report.diagnostics);
    let d = &report.diagnostics[0];
    assert_eq!(d.file, "crates/a/src/deep.rs");
    assert_eq!(d.line, 2);
    assert!(
        d.message.contains("`deep` is reachable from untrusted input")
            && d.message.contains("via entry `crates/a/src/input.rs::ingest`")
            && d.message.contains("1 more hop(s)"),
        "{}",
        d.message
    );
}

/// Unrestricted-`pub` fns of `untrusted`-classed files seed taint with
/// no explicit entry point; the sink in the sibling file is flagged
/// while the untrusted file itself stays R1's business.
#[test]
fn untrusted_pub_fns_seed_taint() {
    let srcs = sources(&[
        (
            "crates/a/src/wire.rs",
            "pub fn ingest(b: &[u8]) -> usize { helper(b.len(), 4) }\n",
        ),
        (
            "crates/a/src/util.rs",
            "pub(crate) fn helper(len: usize, padding: usize) -> usize { len + padding }\n",
        ),
    ]);
    let mut cfg = LintConfig::default();
    cfg.untrusted = vec!["crates/a/src/wire.rs".into()];
    let report = lint_sources(&srcs, &cfg);
    let r8: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.rule == Rule::R8)
        .collect();
    assert_eq!(r8.len(), 1, "{:?}", report.diagnostics);
    assert_eq!(r8[0].file, "crates/a/src/util.rs");
    assert!(r8[0].message.contains("may overflow"), "{}", r8[0].message);
}

/// A sink nobody reaches from an entry point stays quiet.
#[test]
fn unreachable_sink_is_quiet() {
    let srcs = sources(&[
        (
            "crates/a/src/input.rs",
            "pub fn ingest(b: &[u8]) -> usize { b.len() }\n",
        ),
        (
            "crates/a/src/orphan.rs",
            "pub(crate) fn orphan(v: Option<u8>) -> u8 { v.unwrap() }\n",
        ),
    ]);
    let mut cfg = LintConfig::default();
    cfg.entry_points = vec!["crates/a/src/input.rs::ingest".into()];
    let report = lint_sources(&srcs, &cfg);
    assert!(report.is_clean(), "{:?}", report.diagnostics);
}

/// A trailing `lint:allow(R8)` on the sink line suppresses the merged
/// crate-wide finding *and* counts as used — no residual R0.
#[test]
fn lint_allow_r8_suppresses_the_merged_finding() {
    let srcs = sources(&[
        (
            "crates/a/src/input.rs",
            "pub fn ingest(v: Option<u8>) -> u8 { deep(v) }\n",
        ),
        (
            "crates/a/src/deep.rs",
            "pub(crate) fn deep(v: Option<u8>) -> u8 {\n    v.unwrap() // lint:allow(R8): fixture exercises suppression\n}\n",
        ),
    ]);
    let mut cfg = LintConfig::default();
    cfg.entry_points = vec!["crates/a/src/input.rs::ingest".into()];
    let report = lint_sources(&srcs, &cfg);
    assert!(report.is_clean(), "{:?}", report.diagnostics);
    assert_eq!(report.allows_total, 1);
}

/// Hash iteration in a `deterministic`-scoped file fires R9; the same
/// code outside the scope does not.
#[test]
fn r9_fires_only_in_deterministic_scope() {
    let src = "\
use std::collections::HashMap;
pub fn emit(m: &HashMap<String, u32>) -> u32 {
    let mut total = 0;
    for (_, v) in m.iter() {
        total += v;
    }
    total
}
";
    let srcs = sources(&[("crates/a/src/out.rs", src)]);
    let mut cfg = LintConfig::default();
    cfg.deterministic = vec!["crates/a/src/out.rs".into()];
    let report = lint_sources(&srcs, &cfg);
    assert_eq!(rules_of(&report), [Rule::R9], "{:?}", report.diagnostics);
    assert_eq!(report.diagnostics[0].line, 4);

    let unscoped = lint_sources(&srcs, &LintConfig::default());
    assert!(unscoped.is_clean(), "{:?}", unscoped.diagnostics);
}

/// A `*_volatile!` probe on the iteration line marks the value Per-Run:
/// exempt by declaration.
#[test]
fn r9_volatile_line_is_exempt() {
    let src = "\
use std::collections::HashMap;
pub fn probe(m: &HashMap<String, u32>) {
    counter_volatile!(\"peek\", m.values().sum::<u32>() as u64);
}
";
    let srcs = sources(&[("crates/a/src/out.rs", src)]);
    let mut cfg = LintConfig::default();
    cfg.deterministic = vec!["crates/a/src/out.rs".into()];
    let report = lint_sources(&srcs, &cfg);
    assert!(report.is_clean(), "{:?}", report.diagnostics);
}

/// `lint:allow(R9)` suppresses a clock read in scope.
#[test]
fn lint_allow_r9_suppresses_clock_read() {
    let src = "\
pub fn stamp() -> std::time::Instant {
    // lint:allow(R9): fixture exercises suppression
    std::time::Instant::now()
}
";
    let srcs = sources(&[("crates/a/src/out.rs", src)]);
    let mut cfg = LintConfig::default();
    cfg.deterministic = vec!["crates/a/src/out.rs".into()];
    let report = lint_sources(&srcs, &cfg);
    assert!(report.is_clean(), "{:?}", report.diagnostics);
    assert_eq!(report.allows_total, 1);
}

/// The same sources linted twice produce byte-identical diagnostic
/// streams — the ordering contract the reporters build on.
#[test]
fn diagnostics_are_deterministically_ordered() {
    let srcs = sources(&[
        (
            "crates/a/src/input.rs",
            "pub fn ingest(v: Option<u8>) -> u8 { deep(v) }\n",
        ),
        (
            "crates/a/src/deep.rs",
            "pub(crate) fn deep(v: Option<u8>) -> u8 {\n    v.unwrap()\n}\n",
        ),
    ]);
    let mut cfg = LintConfig::default();
    cfg.entry_points = vec!["crates/a/src/input.rs::ingest".into()];
    let a = lint_sources(&srcs, &cfg);
    let b = lint_sources(&srcs, &cfg);
    let render = |r: &mx_lint::Report| {
        r.diagnostics
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert!(!a.is_clean());
    assert_eq!(render(&a), render(&b));
}
