//! `mx-lint` CLI: lint the workspace (or one file) and exit non-zero on
//! any diagnostic. See `crates/lint/README.md` for the rule catalogue.

#![deny(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use mx_lint::report::{render_json, render_sarif, render_text, Baseline};
use mx_lint::{lex_cache_stats, lint_file, lint_workspace, FileClass, Report};

const USAGE: &str = "\
mx-lint — workspace static analysis (panic-freedom, reachability & determinism)

USAGE:
    mx-lint [--root <dir>] [OPTIONS]    lint the whole workspace
    mx-lint --file <path> [...]         lint specific files in strict mode
                                        (treated as untrusted wire codecs)
    mx-lint --help

OPTIONS:
    --format text|json|sarif   report format on stdout (default: text;
                               json/sarif output is byte-deterministic)
    --baseline <path>          tolerate the findings listed in <path>
                               (`file: RULE: message` lines); stale
                               entries fail the run like unused allows
    --write-baseline <path>    write the baseline that would make the
                               current findings pass, then exit 0
    --stats <path>             run the workspace pass twice (cold+warm),
                               write wall times and the lex-cache hit
                               rate as JSON to <path>

Diagnostics print as `file:line: RULE: message`. Exit status is 0 when
clean, 1 when any rule fires or a baseline entry is stale, 2 on usage
or I/O errors.";

enum Format {
    Text,
    Json,
    Sarif,
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut root = PathBuf::from(".");
    let mut strict_files: Vec<PathBuf> = Vec::new();
    let mut format = Format::Text;
    let mut baseline_path: Option<PathBuf> = None;
    let mut write_baseline: Option<PathBuf> = None;
    let mut stats_path: Option<PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--root" => {
                i += 1;
                let Some(dir) = args.get(i) else {
                    eprintln!("error: --root needs a directory\n{USAGE}");
                    return ExitCode::from(2);
                };
                root = PathBuf::from(dir);
            }
            "--file" => {
                i += 1;
                let Some(f) = args.get(i) else {
                    eprintln!("error: --file needs a path\n{USAGE}");
                    return ExitCode::from(2);
                };
                strict_files.push(PathBuf::from(f));
            }
            "--format" => {
                i += 1;
                format = match args.get(i).map(String::as_str) {
                    Some("text") => Format::Text,
                    Some("json") => Format::Json,
                    Some("sarif") => Format::Sarif,
                    other => {
                        eprintln!(
                            "error: --format needs text|json|sarif, got `{}`\n{USAGE}",
                            other.unwrap_or("")
                        );
                        return ExitCode::from(2);
                    }
                };
            }
            "--baseline" => {
                i += 1;
                let Some(p) = args.get(i) else {
                    eprintln!("error: --baseline needs a path\n{USAGE}");
                    return ExitCode::from(2);
                };
                baseline_path = Some(PathBuf::from(p));
            }
            "--write-baseline" => {
                i += 1;
                let Some(p) = args.get(i) else {
                    eprintln!("error: --write-baseline needs a path\n{USAGE}");
                    return ExitCode::from(2);
                };
                write_baseline = Some(PathBuf::from(p));
            }
            "--stats" => {
                i += 1;
                let Some(p) = args.get(i) else {
                    eprintln!("error: --stats needs a path\n{USAGE}");
                    return ExitCode::from(2);
                };
                stats_path = Some(PathBuf::from(p));
            }
            other => {
                eprintln!("error: unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
        i += 1;
    }

    if !strict_files.is_empty() {
        // Strict mode: every named file is linted as an untrusted wire
        // codec in the deterministic scope. Used by the fixture test
        // and for ad-hoc audits. Per-file only: the crate-wide R8 rule
        // needs the whole workspace, so it does not run here.
        let class = FileClass {
            untrusted: true,
            wire_codec: true,
            crate_root: false,
            bounded_loops: true,
            deterministic: true,
        };
        let mut report = Report::default();
        for f in &strict_files {
            match lint_file(&root, f, class) {
                Ok((diags, allows)) => {
                    report.diagnostics.extend(diags);
                    report.files_checked += 1;
                    report.allows_total += allows;
                }
                Err(e) => {
                    eprintln!("error: {}: {e}", f.display());
                    return ExitCode::from(2);
                }
            }
        }
        print!("{}", render(&format, &report, 0));
        return finish(
            report.diagnostics.len(),
            0,
            report.files_checked,
            report.allows_total,
        );
    }

    if let Some(path) = &stats_path {
        return match run_stats(&root, path) {
            Ok(code) => code,
            Err(e) => {
                eprintln!("error: {}: {e}", path.display());
                ExitCode::from(2)
            }
        };
    }

    let report = match lint_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    if report.files_checked == 0 {
        // A workspace with zero .rs files is a wrong --root, not a
        // clean tree; exiting 0 here would be a silent false green.
        eprintln!("error: no Rust sources found under {}", root.display());
        return ExitCode::from(2);
    }

    if let Some(path) = &write_baseline {
        let text = Baseline::render(&report.diagnostics);
        if let Err(e) = std::fs::write(path, &text) {
            eprintln!("error: {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!(
            "mx-lint: wrote baseline with {} entr(y/ies) to {}",
            report.diagnostics.len(),
            path.display()
        );
        return ExitCode::SUCCESS;
    }

    let mut report = report;
    let mut suppressed = 0usize;
    let mut stale: Vec<String> = Vec::new();
    if let Some(path) = &baseline_path {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        let bl = Baseline::parse(&text);
        let diags = std::mem::take(&mut report.diagnostics);
        (report.diagnostics, suppressed, stale) = bl.apply(diags);
    }

    print!("{}", render(&format, &report, suppressed));
    for s in &stale {
        eprintln!("mx-lint: stale baseline entry (fixed finding — remove the line): {s}");
    }
    finish(
        report.diagnostics.len() + stale.len(),
        suppressed,
        report.files_checked,
        report.allows_total,
    )
}

/// The report in the `--format` the user asked for.
fn render(format: &Format, report: &Report, suppressed: usize) -> String {
    match format {
        Format::Text => render_text(report),
        Format::Json => render_json(report, suppressed),
        Format::Sarif => render_sarif(report),
    }
}

/// `--stats`: run the workspace pass twice and record wall times plus
/// the lex-cache hit rate of the warm pass. The output is intentionally
/// host-dependent (it measures this machine) and lives outside the
/// byte-deterministic report formats.
fn run_stats(root: &std::path::Path, out_path: &std::path::Path) -> std::io::Result<ExitCode> {
    let t0 = Instant::now();
    let _cold: Report = lint_workspace(root)?;
    let cold_ms = t0.elapsed().as_secs_f64() * 1e3;
    let (h0, m0) = lex_cache_stats();
    let t1 = Instant::now();
    let warm: Report = lint_workspace(root)?;
    let warm_ms = t1.elapsed().as_secs_f64() * 1e3;
    let (h1, m1) = lex_cache_stats();
    let (hits, misses) = (h1 - h0, m1 - m0);
    let hit_rate = if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64
    } else {
        0.0
    };
    let json = format!(
        "{{\n  \"schema\": \"mx-lint/stats/1\",\n  \"files_checked\": {},\n  \
         \"diagnostics\": {},\n  \"cold_ms\": {:.3},\n  \"warm_ms\": {:.3},\n  \
         \"warm_lex_cache_hits\": {hits},\n  \"warm_lex_cache_misses\": {misses},\n  \
         \"warm_lex_cache_hit_rate\": {hit_rate:.4}\n}}\n",
        warm.files_checked, warm.diagnostics.len(), cold_ms, warm_ms,
    );
    std::fs::write(out_path, json)?;
    eprintln!(
        "mx-lint: stats written to {} (cold {:.1} ms, warm {:.1} ms, warm hit rate {:.1}%)",
        out_path.display(),
        cold_ms,
        warm_ms,
        hit_rate * 100.0
    );
    Ok(if warm.diagnostics.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn finish(diags: usize, suppressed: usize, files: usize, allows: usize) -> ExitCode {
    if diags == 0 {
        let sup = if suppressed > 0 {
            format!(", {suppressed} baseline-suppressed")
        } else {
            String::new()
        };
        eprintln!(
            "mx-lint: clean — {files} files checked, {allows} lint:allow escapes in use{sup}"
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("mx-lint: {diags} diagnostic(s) across {files} files");
        ExitCode::FAILURE
    }
}
