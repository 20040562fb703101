//! # mx-lint — workspace static analysis for the protocol substrates
//!
//! The measurement pipeline parses *untrusted* wire input: DNS messages,
//! SMTP banners and replies, certificate chains, SPF records. A scanner
//! that panics on malformed input silently loses coverage and biases
//! every provider-share number downstream, so this crate enforces
//! panic-freedom and related RFC invariants statically, with no external
//! dependencies (the build environment is offline — the tokenizer in
//! [`lexer`] is hand-rolled rather than `syn`-based).
//!
//! Three entry points:
//! - the `mx-lint` binary (`cargo run -p mx-lint` or the `cargo lint`
//!   alias) walks the workspace and prints `file:line: RULE: message`
//!   diagnostics, exiting non-zero when anything fires;
//! - [`lint_workspace`] is the library API the integration test in the
//!   repo-root `tests/` directory uses to gate `cargo test`;
//! - [`lint_source`] lints one in-memory file, for tools and tests.
//!
//! Escape hatch: `// lint:allow(R1): <written reason>` on (or directly
//! above) the offending line, or `// lint:allow-next-fn(R1): <reason>`
//! above a `fn`/`macro_rules!` item to cover the whole item — the span
//! form replaces piles of identical per-line escapes in macro-heavy
//! code. Directives without a reason, with an unknown rule ID, or that
//! no diagnostic actually needed are themselves reported (`R0`), so the
//! escape hatch cannot rot silently.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod graph;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod syntax;

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

pub use config::ConfigError;
pub use rules::{Diagnostic, FileClass, Rule};

/// Shared lex cache: one lex per file, reused across rule sets and
/// repeated passes (CLI then gate test, or strict-mode re-lints of the
/// same path). Keyed by display path, invalidated by content hash.
struct LexCache {
    map: Mutex<HashMap<String, (u64, Arc<lexer::Lexed>)>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

fn lex_cache() -> &'static LexCache {
    static CACHE: OnceLock<LexCache> = OnceLock::new();
    CACHE.get_or_init(|| LexCache {
        map: Mutex::new(HashMap::new()),
        hits: AtomicUsize::new(0),
        misses: AtomicUsize::new(0),
    })
}

/// FNV-1a over the source text, for cache invalidation.
fn src_hash(src: &str) -> u64 {
    let mut h = mx_obs::FNV1A_OFFSET;
    mx_obs::fnv1a_step(&mut h, src.as_bytes());
    h
}

/// Lex `src` through the shared per-path cache. A hit requires both the
/// path and the content hash to match, so edits between passes are
/// never served stale tokens.
pub fn lex_cached(rel: &str, src: &str) -> Arc<lexer::Lexed> {
    let cache = lex_cache();
    let hash = src_hash(src);
    {
        let map = cache.map.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((h, lexed)) = map.get(rel) {
            if *h == hash {
                cache.hits.fetch_add(1, Ordering::Relaxed);
                // Cache traffic depends on which passes ran first, so the
                // mirror counters are per-run (volatile) by design.
                mx_obs::counter_volatile!(mx_obs::names::LINT_LEX_CACHE_HITS).incr();
                return Arc::clone(lexed);
            }
        }
    }
    cache.misses.fetch_add(1, Ordering::Relaxed);
    mx_obs::counter_volatile!(mx_obs::names::LINT_LEX_CACHE_MISSES).incr();
    let lexed = Arc::new(lexer::lex(src));
    let mut map = cache.map.lock().unwrap_or_else(|e| e.into_inner());
    map.insert(rel.to_string(), (hash, Arc::clone(&lexed)));
    lexed
}

/// `(hits, misses)` counters of the shared lex cache, for tests and the
/// CLI's `-v` accounting.
pub fn lex_cache_stats() -> (usize, usize) {
    let c = lex_cache();
    (c.hits.load(Ordering::Relaxed), c.misses.load(Ordering::Relaxed))
}

/// Which files the domain rules apply to, as repo-relative path
/// suffixes with forward slashes. The scope lists live in the
/// repository's `lint.toml` ([`LintConfig::load`]); the default is
/// empty, so nothing is scoped unless that file says so.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    /// R1/R3 scope: modules that parse untrusted input.
    pub untrusted: Vec<String>,
    /// R2 scope: binary/line-protocol codecs (a subset of `untrusted`).
    pub wire_codecs: Vec<String>,
    /// R5 scope: modules whose loops must visibly bound their exits —
    /// the untrusted parsers plus the retrying acquisition layers.
    pub bounded_loops: Vec<String>,
    /// R9 scope: modules that produce Stable-classed output and must
    /// therefore not read nondeterminism sources (hash-order iteration,
    /// host clocks, environment, thread ids, addresses).
    pub deterministic: Vec<String>,
    /// Extra R8 taint seeds beyond the pub fns of `untrusted` files, as
    /// `path/suffix.rs::fn_name` entries.
    pub entry_points: Vec<String>,
    /// Directory names never descended into.
    pub skip_dirs: Vec<String>,
}

impl LintConfig {
    /// Classify one repo-relative path.
    pub fn classify(&self, rel: &str) -> FileClass {
        let rel = rel.replace('\\', "/");
        FileClass {
            untrusted: self.untrusted.iter().any(|s| rel.ends_with(s.as_str())),
            wire_codec: self.wire_codecs.iter().any(|s| rel.ends_with(s.as_str())),
            crate_root: rel == "src/lib.rs" || (rel.starts_with("crates/") && rel.ends_with("/src/lib.rs")),
            bounded_loops: self.bounded_loops.iter().any(|s| rel.ends_with(s.as_str())),
            deterministic: self.deterministic.iter().any(|s| rel.ends_with(s.as_str())),
        }
    }
}

/// Result of a workspace pass.
#[derive(Debug, Default)]
pub struct Report {
    /// Everything that fired, in path order.
    pub diagnostics: Vec<Diagnostic>,
    /// Number of `.rs` files checked.
    pub files_checked: usize,
    /// Total `lint:allow` directives encountered.
    pub allows_total: usize,
}

impl Report {
    /// True when no rule fired.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Lint a single source text. `rel` is the repo-relative display path;
/// `class` controls which rules apply. Returns diagnostics plus the
/// number of `lint:allow` directives seen.
///
/// This is the per-file view: the crate-wide R8 rule needs every file
/// at once, so it only runs under [`lint_sources`] / the workspace
/// entry points.
pub fn lint_source(rel: &str, src: &str, class: FileClass) -> (Vec<Diagnostic>, usize) {
    let lexed = lex_cached(rel, src);
    let allows = rules::parse_allows(&lexed);
    let mut raw = Vec::new();
    rules::check(rel, &lexed, class, &mut raw);
    let out = apply_allows(rel, raw, &allows);
    (out, allows.len())
}

/// Apply the escape hatch to raw diagnostics: a directive suppresses
/// matching diagnostics on its covered lines; hygiene problems (unknown
/// rule, missing reason, nothing suppressed) become R0 diagnostics.
///
/// Runs *after* crate-wide rules are merged into `raw`, so a reviewed
/// `lint:allow(R8)` on a sink line both suppresses the finding and
/// counts as used.
fn apply_allows(rel: &str, raw: Vec<Diagnostic>, allows: &[rules::Allow]) -> Vec<Diagnostic> {
    let mut used = vec![false; allows.len()];
    let mut out = Vec::new();
    for d in raw {
        let mut suppressed = false;
        for (i, a) in allows.iter().enumerate() {
            if a.rule == Some(d.rule) && a.covers(d.line) && !a.reason.is_empty() {
                used[i] = true;
                suppressed = true;
                break;
            }
        }
        if !suppressed {
            out.push(d);
        }
    }
    for (i, a) in allows.iter().enumerate() {
        if a.rule.is_none() {
            out.push(Diagnostic {
                file: rel.into(),
                line: a.at_line,
                rule: Rule::R0,
                message: format!("lint:allow names unknown rule `{}`", a.rule_text),
            });
        } else if a.reason.is_empty() {
            out.push(Diagnostic {
                file: rel.into(),
                line: a.at_line,
                rule: Rule::R0,
                message: "lint:allow requires a written reason: `// lint:allow(Rn): why`".into(),
            });
        } else if !used[i] {
            let span = if a.covers_end > a.covers_line {
                format!("lines {}-{}", a.covers_line, a.covers_end)
            } else {
                format!("line {}", a.covers_line)
            };
            out.push(Diagnostic {
                file: rel.into(),
                line: a.at_line,
                rule: Rule::R0,
                message: format!(
                    "unused lint:allow({}) — nothing to suppress on {span}",
                    a.rule_text
                ),
            });
        }
    }
    sort_diagnostics(&mut out);
    out
}

/// Put diagnostics in the byte-stable order every reporter relies on:
/// `(file, line, rule, message)`.
fn sort_diagnostics(diagnostics: &mut [Diagnostic]) {
    diagnostics.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.id(), a.message.as_str())
            .cmp(&(b.file.as_str(), b.line, b.rule.id(), b.message.as_str()))
    });
}

/// Lint a set of in-memory sources as one workspace: the per-file rules
/// run on each file, then the crate-wide R8 reachability rule runs over
/// the call graph of all of them, and only then are `lint:allow`
/// directives applied — so R8 findings are suppressible (and their
/// allows counted as used) exactly like per-file findings.
///
/// `sources` is `(repo-relative path, source text)`. Diagnostics come
/// back sorted by `(file, line, rule, message)` — the byte-stable order
/// the machine-readable reporters rely on.
pub fn lint_sources(sources: &[(String, String)], config: &LintConfig) -> Report {
    let mut report = Report::default();
    let mut per_file: Vec<(String, Vec<Diagnostic>, Vec<rules::Allow>)> = Vec::new();
    let mut syntaxes: Vec<syntax::FileSyntax> = Vec::new();
    let mut classes: Vec<FileClass> = Vec::new();
    for (rel, src) in sources {
        let class = config.classify(rel);
        let lexed = lex_cached(rel, src);
        let allows = rules::parse_allows(&lexed);
        let mut raw = Vec::new();
        rules::check(rel, &lexed, class, &mut raw);
        syntaxes.push(syntax::extract(rel, &lexed));
        classes.push(class);
        report.files_checked += 1;
        report.allows_total += allows.len();
        per_file.push((rel.clone(), raw, allows));
    }

    let mut r8 = Vec::new();
    graph::check_r8(&syntaxes, &classes, &config.entry_points, &mut r8);
    for d in r8 {
        if let Some(entry) = per_file.iter_mut().find(|(rel, _, _)| *rel == d.file) {
            entry.1.push(d);
        }
    }

    for (rel, raw, allows) in per_file {
        report.diagnostics.extend(apply_allows(&rel, raw, &allows));
    }
    sort_diagnostics(&mut report.diagnostics);
    report
}

/// Lint one file on disk with explicit classification.
pub fn lint_file(root: &Path, path: &Path, class: FileClass) -> io::Result<(Vec<Diagnostic>, usize)> {
    let src = fs::read_to_string(path)?;
    let rel = path
        .strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/");
    Ok(lint_source(&rel, &src, class))
}

/// Walk the workspace at `root` and run every applicable rule.
///
/// Only `src/` trees are linted: `crates/*/src/**/*.rs` plus the root
/// package's `src/`. Test, bench, example and fixture trees are exempt
/// by design — panicking there is idiomatic.
///
/// Scopes come from `<root>/lint.toml`; a missing or malformed file
/// is an error.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let config = LintConfig::load(root)?;
    lint_workspace_with(root, &config)
}

/// [`lint_workspace`] with a custom configuration.
pub fn lint_workspace_with(root: &Path, config: &LintConfig) -> io::Result<Report> {
    let mut files: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let src = entry?.path().join("src");
            if src.is_dir() {
                collect_rs(&src, config, &mut files)?;
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, config, &mut files)?;
    }
    files.sort();

    let mut sources = Vec::with_capacity(files.len());
    for path in files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, fs::read_to_string(&path)?));
    }
    Ok(lint_sources(&sources, config))
}

fn collect_rs(dir: &Path, config: &LintConfig, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            if !config.skip_dirs.contains(&name) {
                collect_rs(&path, config, out)?;
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_paths() {
        let repo_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let c = LintConfig::load(&repo_root).expect("the repository's lint.toml loads");
        let wire = c.classify("crates/dns/src/wire.rs");
        assert!(wire.untrusted && wire.wire_codec && !wire.crate_root);
        assert!(wire.bounded_loops, "parsers are in the R5 scope");
        let root = c.classify("crates/dns/src/lib.rs");
        assert!(!root.untrusted && root.crate_root);
        // The acquisition layers carry R5 without inheriting R1/R3.
        let resolver = c.classify("crates/dns/src/resolver.rs");
        assert!(resolver.bounded_loops && !resolver.untrusted);
        let scanner = c.classify("crates/net/src/scanner.rs");
        assert!(scanner.bounded_loops && !scanner.untrusted);
        assert!(c.classify("src/lib.rs").crate_root);
        let free = c.classify("crates/corpus/src/worldgen.rs");
        assert!(!free.untrusted && !free.wire_codec && !free.crate_root);
        // The pool substrate is linted under R1/R3 and, as a crate
        // root, R4.
        let par = c.classify("crates/par/src/lib.rs");
        assert!(par.untrusted && !par.wire_codec && par.crate_root);
        // The observability crate is held to the same bar as the
        // parsers it instruments.
        let obs_root = c.classify("crates/obs/src/lib.rs");
        assert!(obs_root.untrusted && obs_root.crate_root);
        let obs_json = c.classify("crates/obs/src/json.rs");
        assert!(obs_json.untrusted && !obs_json.wire_codec);
        // Certificate validation is in the R2/R7 arithmetic scope.
        let cert = c.classify("crates/cert/src/validate.rs");
        assert!(cert.untrusted && cert.wire_codec);
        // The store codec: reader fully scoped, writer arithmetic-only.
        let srd = c.classify("crates/store/src/reader.rs");
        assert!(srd.untrusted && srd.wire_codec && srd.bounded_loops);
        let swr = c.classify("crates/store/src/writer.rs");
        assert!(!swr.untrusted && swr.wire_codec && !swr.bounded_loops);
    }

    #[test]
    fn allow_next_fn_suppresses_whole_function() {
        let class = FileClass {
            untrusted: true,
            ..Default::default()
        };
        let (d, n) = lint_source(
            "t.rs",
            "// lint:allow-next-fn(R1): literal macro panics by contract\n\
             fn f(x: Option<u8>, y: Option<u8>) -> u8 {\n\
                 x.unwrap() + y.unwrap()\n\
             }",
            class,
        );
        assert!(d.is_empty(), "{d:?}");
        assert_eq!(n, 1);
        // The span stops at the item's closing brace.
        let (d, _) = lint_source(
            "t.rs",
            "// lint:allow-next-fn(R1): covers f only\n\
             fn f(x: Option<u8>) -> u8 {\n\
                 x.unwrap()\n\
             }\n\
             fn g(y: Option<u8>) -> u8 {\n\
                 y.unwrap()\n\
             }",
            class,
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, Rule::R1);
        assert_eq!(d[0].line, 6);
        // A span with nothing to suppress is flagged unused.
        let (d, _) = lint_source(
            "t.rs",
            "// lint:allow-next-fn(R1): stale\nfn f() -> u8 { 1 }",
            class,
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::R0);
        assert!(d[0].message.contains("unused"), "{d:?}");
    }

    #[test]
    fn lex_cache_hits_on_same_content_and_invalidates_on_change() {
        // Unique path so counters aren't shared with other tests.
        let rel = "cache-test/unique.rs";
        let a = lex_cached(rel, "fn a() {}");
        let b = lex_cached(rel, "fn a() {}");
        assert_eq!(a.tokens.len(), b.tokens.len());
        let (hits1, _) = lex_cache_stats();
        assert!(hits1 >= 1, "second identical lex must hit the cache");
        // Changed content under the same path must re-lex.
        let c = lex_cached(rel, "fn a() { let x = 1; }");
        assert!(c.tokens.len() > b.tokens.len());
    }

    #[test]
    fn allow_suppresses_exactly_one_line_and_requires_reason() {
        let class = FileClass {
            untrusted: true,
            ..Default::default()
        };
        let (d, n) = lint_source(
            "t.rs",
            "fn f(x: Option<u8>) -> u8 {\n    x.unwrap() // lint:allow(R1): bounded by caller\n}",
            class,
        );
        assert!(d.is_empty(), "{d:?}");
        assert_eq!(n, 1);

        let (d, _) = lint_source(
            "t.rs",
            "fn f(x: Option<u8>) -> u8 {\n    x.unwrap() // lint:allow(R1)\n}",
            class,
        );
        assert!(d.iter().any(|d| d.rule == Rule::R0), "{d:?}");
        assert!(d.iter().any(|d| d.rule == Rule::R1), "unreasoned allow must not suppress");
    }

    #[test]
    fn unused_allow_is_flagged() {
        let class = FileClass {
            untrusted: true,
            ..Default::default()
        };
        let (d, _) = lint_source(
            "t.rs",
            "// lint:allow(R1): no longer needed\nfn f() -> u8 { 1 }",
            class,
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, Rule::R0);
        assert!(d[0].message.contains("unused"));
    }

    #[test]
    fn standalone_allow_covers_next_line() {
        let class = FileClass {
            untrusted: true,
            ..Default::default()
        };
        let (d, _) = lint_source(
            "t.rs",
            "fn f(x: Option<u8>) -> u8 {\n    // lint:allow(R1): checked by caller\n    x.unwrap()\n}",
            class,
        );
        assert!(d.is_empty(), "{d:?}");
    }
}
