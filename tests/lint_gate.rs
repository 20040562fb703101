//! Workspace lint gate: `cargo test` fails if any `mx-lint` rule fires
//! anywhere in the workspace's `src/` trees, or if the `lint:allow`
//! escape-hatch budget is exceeded.
//!
//! The same pass is available interactively as `cargo lint` (an alias
//! for `cargo run -p mx-lint -- --root .`); see `crates/lint/README.md`
//! for the rule catalogue.

use std::path::Path;

/// Escape hatches are a budget, not a convenience: each one must carry a
/// written reason, and the total across the workspace stays in single
/// digits so exceptions remain individually reviewable.
const MAX_LINT_ALLOWS: usize = 10;

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn workspace_is_lint_clean() {
    let report = mx_lint::lint_workspace(workspace_root()).expect("walk workspace sources");
    assert!(
        report.files_checked > 50,
        "suspiciously few files checked ({}); did the walker break?",
        report.files_checked
    );
    let rendered: Vec<String> = report.diagnostics.iter().map(|d| d.to_string()).collect();
    assert!(
        report.is_clean(),
        "mx-lint found {} violation(s):\n{}",
        rendered.len(),
        rendered.join("\n")
    );
}

#[test]
fn lint_allow_budget_respected() {
    let report = mx_lint::lint_workspace(workspace_root()).expect("walk workspace sources");
    assert!(
        report.allows_total < MAX_LINT_ALLOWS,
        "{} lint:allow escapes in use (budget {}); fix code instead of allowing it",
        report.allows_total,
        MAX_LINT_ALLOWS
    );
}

/// The machine-readable reporters must be byte-deterministic: two
/// independent passes over the same tree render identical JSON and
/// SARIF, so CI can diff them and downstream tools can cache on bytes.
#[test]
fn machine_readable_reports_are_byte_deterministic() {
    let a = mx_lint::lint_workspace(workspace_root()).expect("walk workspace sources");
    let b = mx_lint::lint_workspace(workspace_root()).expect("walk workspace sources");
    assert_eq!(
        mx_lint::report::render_json(&a, 0),
        mx_lint::report::render_json(&b, 0),
        "JSON report differs between two runs over the same tree"
    );
    assert_eq!(
        mx_lint::report::render_sarif(&a),
        mx_lint::report::render_sarif(&b),
        "SARIF report differs between two runs over the same tree"
    );
}

/// HEAD carries no baseline debt: a baseline generated from the current
/// tree is empty, and an empty baseline suppresses nothing.
#[test]
fn baseline_is_empty_at_head() {
    let report = mx_lint::lint_workspace(workspace_root()).expect("walk workspace sources");
    let generated = mx_lint::report::Baseline::render(&report.diagnostics);
    assert!(
        generated.is_empty(),
        "HEAD should need no baseline, got:\n{generated}"
    );
    let empty = mx_lint::report::Baseline::parse("");
    let (failing, suppressed, stale) = empty.apply(report.diagnostics.clone());
    assert_eq!(failing.len(), report.diagnostics.len());
    assert_eq!(suppressed, 0);
    assert!(stale.is_empty(), "empty baseline cannot have stale entries");
}

/// `classify` matches scope entries by path suffix, so an entry naming
/// a deleted or renamed file silently matches nothing. Every path in
/// every `lint.toml` scope list must name a file under the workspace
/// root.
#[test]
fn every_lint_toml_scope_entry_names_an_existing_file() {
    let root = workspace_root();
    let config = mx_lint::LintConfig::load(root).expect("lint.toml loads");
    let entry_files = config
        .entry_points
        .iter()
        .map(|e| e.split("::").next().unwrap_or(e).to_string());
    let scoped = config
        .untrusted
        .iter()
        .chain(&config.wire_codecs)
        .chain(&config.bounded_loops)
        .chain(&config.deterministic)
        .cloned()
        .chain(entry_files);
    let stale: Vec<String> = scoped.filter(|p| !root.join(p).is_file()).collect();
    assert!(stale.is_empty(), "lint.toml scopes missing files: {stale:?}");
}
