//! The seeded-violation fixture must keep firing: if a refactor of the
//! lexer or rules ever stops catching one of these constructs, this test
//! fails before the workspace gate silently goes blind.

use std::path::Path;

use mx_lint::{lint_file, FileClass, Rule};

/// The fixture linted the way `mx-lint --file` lints it: as an
/// untrusted wire codec in every scope. Returns the diagnostics and
/// the number of `lint:allow` directives.
fn fixture_lint() -> (Vec<mx_lint::Diagnostic>, usize) {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let path = root.join("fixtures/violations.rs");
    let class = FileClass {
        untrusted: true,
        wire_codec: true,
        crate_root: false,
        bounded_loops: true,
        deterministic: true,
    };
    lint_file(root, &path, class).expect("fixture readable")
}

#[test]
fn every_rule_fires_on_the_fixture() {
    let (diags, _) = fixture_lint();
    for rule in [Rule::R0, Rule::R1, Rule::R2, Rule::R3, Rule::R5, Rule::R6, Rule::R9] {
        assert!(
            diags.iter().any(|d| d.rule == rule),
            "{rule} did not fire on the fixture; diagnostics: {diags:#?}"
        );
    }
}

#[test]
fn fixture_counts_are_exact() {
    let (diags, _) = fixture_lint();
    let count = |r: Rule| diags.iter().filter(|d| d.rule == r).count();
    // 4 panicking constructs + 1 indexing site.
    assert_eq!(count(Rule::R1), 5, "{diags:#?}");
    assert_eq!(count(Rule::R2), 1, "{diags:#?}");
    // Unbounded with_capacity + unbounded recursion.
    assert_eq!(count(Rule::R3), 2, "{diags:#?}");
    // The unbounded busy-wait.
    assert_eq!(count(Rule::R5), 1, "{diags:#?}");
    // The deliberately unused allow.
    assert_eq!(count(Rule::R0), 1, "{diags:#?}");
    // The stringly-typed error signature.
    assert_eq!(count(Rule::R6), 1, "{diags:#?}");
    // Hash-order iteration + host clock + env read.
    assert_eq!(count(Rule::R9), 3, "{diags:#?}");
}

/// Single-file linting reports in the same `(line, rule, message)`
/// order the workspace report uses, whatever order the rules fire in.
#[test]
fn file_diagnostics_are_sorted() {
    let (diags, _) = fixture_lint();
    let keys: Vec<(u32, &str, &str)> = diags
        .iter()
        .map(|d| (d.line, d.rule.id(), d.message.as_str()))
        .collect();
    let mut sorted = keys.clone();
    sorted.sort();
    assert_eq!(keys, sorted);
}

#[test]
fn cli_exits_nonzero_on_fixture_and_zero_on_workspace() {
    let lint_bin = env!("CARGO_BIN_EXE_mx-lint");
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));

    let fixture = manifest.join("fixtures/violations.rs");
    let out = std::process::Command::new(lint_bin)
        .args(["--file", &fixture.to_string_lossy()])
        .output()
        .expect("run mx-lint on fixture");
    assert_eq!(out.status.code(), Some(1), "fixture must fail the lint");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("R1"), "diagnostics on stdout: {stdout}");

    let workspace_root = manifest.parent().and_then(Path::parent).expect("repo root");
    let out = std::process::Command::new(lint_bin)
        .args(["--root", &workspace_root.to_string_lossy()])
        .output()
        .expect("run mx-lint on workspace");
    assert_eq!(
        out.status.code(),
        Some(0),
        "workspace must be lint-clean; output:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

/// Strict `--file` mode honours `--format`: the JSON it prints is the
/// `render_json` of exactly the diagnostics `lint_file` finds.
#[test]
fn cli_file_mode_honours_format_json() {
    let lint_bin = env!("CARGO_BIN_EXE_mx-lint");
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out = std::process::Command::new(lint_bin)
        .current_dir(manifest)
        .args(["--file", "fixtures/violations.rs", "--format", "json"])
        .output()
        .expect("run mx-lint on fixture");
    assert_eq!(out.status.code(), Some(1), "fixture must fail the lint");

    let (diagnostics, allows_total) = fixture_lint();
    let report = mx_lint::Report {
        diagnostics,
        files_checked: 1,
        allows_total,
    };
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        mx_lint::report::render_json(&report, 0)
    );
}
