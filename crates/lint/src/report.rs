//! Machine-readable reporters and the suppression baseline.
//!
//! Both renderers are dependency-free and **byte-deterministic**: keys
//! are emitted in a fixed order, diagnostics arrive pre-sorted from
//! [`crate::lint_sources`], and nothing host-dependent (timestamps,
//! absolute paths, hash order) ever reaches the output. CI runs each
//! format twice and `cmp`s the bytes.
//!
//! The baseline file enables incremental adoption of new rules: one
//! line per tolerated finding, `file: RULE: message`, deliberately
//! *without* line numbers so unrelated edits above a tolerated site do
//! not invalidate the entry. Matching is multiset-style — two identical
//! baseline lines tolerate two identical findings, a third one fires.

use std::collections::BTreeMap;

use mx_obs::json::push_json_str;

use crate::rules::{Diagnostic, Rule};
use crate::Report;

/// `s` as a quoted JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_json_str(&mut out, s);
    out
}

/// The `file:line: RULE: message` lines the human-facing CLI prints.
pub fn render_text(report: &Report) -> String {
    let mut out = String::new();
    for d in &report.diagnostics {
        out.push_str(&format!(
            "{}:{}: {}: {}\n",
            d.file,
            d.line,
            d.rule.id(),
            d.message
        ));
    }
    out
}

/// The `mx-lint/2` JSON report: run counters plus every diagnostic, in
/// the sorted order the library produced them.
pub fn render_json(report: &Report, baseline_suppressed: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"mx-lint/2\",\n");
    out.push_str(&format!("  \"files_checked\": {},\n", report.files_checked));
    out.push_str(&format!("  \"allows_total\": {},\n", report.allows_total));
    out.push_str(&format!(
        "  \"baseline_suppressed\": {baseline_suppressed},\n"
    ));
    out.push_str("  \"diagnostics\": [");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": {}, \"line\": {}, \"rule\": \"{}\", \"message\": {}}}",
            json_str(&d.file),
            d.line,
            d.rule.id(),
            json_str(&d.message)
        ));
    }
    if !report.diagnostics.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// A minimal SARIF 2.1.0 log: one run, the full rule catalogue in the
/// driver, one `result` per diagnostic.
pub fn render_sarif(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"mx-lint\",\n");
    out.push_str("          \"rules\": [");
    for (i, r) in Rule::ALL.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n            {{\"id\": \"{}\", \"shortDescription\": {{\"text\": {}}}}}",
            r.id(),
            json_str(r.summary())
        ));
    }
    out.push_str("\n          ]\n        }\n      },\n");
    out.push_str("      \"results\": [");
    for (i, d) in report.diagnostics.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n        {{\"ruleId\": \"{}\", \"level\": \"error\", \"message\": {{\"text\": {}}}, \
             \"locations\": [{{\"physicalLocation\": {{\"artifactLocation\": {{\"uri\": {}}}, \
             \"region\": {{\"startLine\": {}}}}}}}]}}",
            d.rule.id(),
            json_str(&d.message),
            json_str(&d.file),
            d.line.max(1)
        ));
    }
    if !report.diagnostics.is_empty() {
        out.push_str("\n      ");
    }
    out.push_str("]\n    }\n  ]\n}\n");
    out
}

/// A parsed baseline: tolerated findings as a multiset of
/// `file: RULE: message` keys.
#[derive(Debug, Default)]
pub struct Baseline {
    entries: BTreeMap<String, usize>,
}

/// The baseline key of one diagnostic (line-number-free by design).
pub fn baseline_key(d: &Diagnostic) -> String {
    format!("{}: {}: {}", d.file, d.rule.id(), d.message)
}

impl Baseline {
    /// Parse baseline text: one key per line, `#` comments and blank
    /// lines ignored. Repeated lines tolerate repeated findings.
    pub fn parse(text: &str) -> Baseline {
        let mut entries = BTreeMap::new();
        for line in text.lines() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            *entries.entry(line.to_string()).or_insert(0) += 1;
        }
        Baseline { entries }
    }

    /// Number of tolerated findings (with multiplicity).
    pub fn len(&self) -> usize {
        self.entries.values().sum()
    }

    /// True when the baseline tolerates nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Split `diags` into (still-failing, suppressed-count, stale
    /// entries), consuming one baseline entry per matched diagnostic.
    /// Stale entries — baseline lines that matched nothing — are the
    /// drift CI refuses, exactly like unused `lint:allow` directives:
    /// a fixed finding must leave the baseline the same day.
    pub fn apply(&self, diags: Vec<Diagnostic>) -> (Vec<Diagnostic>, usize, Vec<String>) {
        let mut remaining = self.entries.clone();
        let mut out = Vec::new();
        let mut suppressed = 0usize;
        for d in diags {
            match remaining.get_mut(&baseline_key(&d)) {
                Some(n) if *n > 0 => {
                    *n -= 1;
                    suppressed += 1;
                }
                _ => out.push(d),
            }
        }
        let mut stale = Vec::new();
        for (k, n) in &remaining {
            for _ in 0..*n {
                stale.push(k.clone());
            }
        }
        (out, suppressed, stale)
    }

    /// Render the baseline that would make `diags` pass, sorted.
    pub fn render(diags: &[Diagnostic]) -> String {
        let mut keys: Vec<String> = diags.iter().map(baseline_key).collect();
        keys.sort();
        let mut out = String::new();
        for k in keys {
            out.push_str(&k);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(file: &str, line: u32, rule: Rule, msg: &str) -> Diagnostic {
        Diagnostic {
            file: file.into(),
            line,
            rule,
            message: msg.into(),
        }
    }

    fn sample_report() -> Report {
        Report {
            diagnostics: vec![
                diag("a.rs", 3, Rule::R1, ".unwrap() can \"panic\""),
                diag("b.rs", 7, Rule::R9, "HashMap iteration order"),
            ],
            files_checked: 2,
            allows_total: 1,
        }
    }

    #[test]
    fn json_is_stable_and_escapes() {
        let r = sample_report();
        let a = render_json(&r, 0);
        let b = render_json(&r, 0);
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": \"mx-lint/2\""));
        assert!(a.contains("\\\"panic\\\""), "quotes escaped: {a}");
        assert!(a.ends_with("}\n"));
    }

    /// Exact bytes for a diagnostic whose file and message need every
    /// kind of escape: quote, backslash, newline, tab, control byte.
    #[test]
    fn escaped_diagnostic_bytes_are_pinned() {
        let r = Report {
            diagnostics: vec![diag("q\"b\\n\nt\t\u{1}.rs", 4, Rule::R1, "m\"b\\n\nt\t\u{1}")],
            files_checked: 1,
            allows_total: 0,
        };
        assert_eq!(
            render_json(&r, 0),
            "{\n  \"schema\": \"mx-lint/2\",\n  \"files_checked\": 1,\n  \"allows_total\": 0,\n  \
             \"baseline_suppressed\": 0,\n  \"diagnostics\": [\n    \
             {\"file\": \"q\\\"b\\\\n\\nt\\t\\u0001.rs\", \"line\": 4, \"rule\": \"R1\", \
             \"message\": \"m\\\"b\\\\n\\nt\\t\\u0001\"}\n  ]\n}\n"
        );
        let sarif = render_sarif(&r);
        let results = sarif.find("\"results\": [").map(|i| &sarif[i..]);
        assert_eq!(
            results,
            Some(
                "\"results\": [\n        {\"ruleId\": \"R1\", \"level\": \"error\", \
                 \"message\": {\"text\": \"m\\\"b\\\\n\\nt\\t\\u0001\"}, \"locations\": \
                 [{\"physicalLocation\": {\"artifactLocation\": \
                 {\"uri\": \"q\\\"b\\\\n\\nt\\t\\u0001.rs\"}, \"region\": {\"startLine\": 4}}}]}\n      \
                 ]\n    }\n  ]\n}\n"
            )
        );
    }

    #[test]
    fn empty_report_renders_valid_json() {
        let r = Report {
            files_checked: 5,
            ..Default::default()
        };
        let j = render_json(&r, 0);
        assert!(j.contains("\"diagnostics\": []"), "{j}");
        let s = render_sarif(&r);
        assert!(s.contains("\"results\": []"), "{s}");
    }

    #[test]
    fn sarif_lists_full_rule_catalogue() {
        let s = render_sarif(&sample_report());
        for r in Rule::ALL {
            assert!(s.contains(&format!("\"id\": \"{}\"", r.id())), "{}", r.id());
        }
        assert!(s.contains("\"ruleId\": \"R9\""));
        assert!(s.contains("\"startLine\": 7"));
    }

    #[test]
    fn baseline_roundtrip_and_multiset_matching() {
        let d1 = diag("a.rs", 3, Rule::R8, "reachable sink");
        let d2 = diag("a.rs", 9, Rule::R8, "reachable sink"); // same key, other line
        let d3 = diag("b.rs", 1, Rule::R9, "hash walk");
        let text = Baseline::render(&[d1.clone(), d3.clone()]);
        let bl = Baseline::parse(&text);
        assert_eq!(bl.len(), 2);
        // d1 and d3 are tolerated; d2 shares d1's key but the single
        // entry is already consumed, so it still fails.
        let (fail, ok, stale) = bl.apply(vec![d1, d2, d3.clone()]);
        assert_eq!(ok, 2);
        assert_eq!(fail.len(), 1);
        assert_eq!(fail[0].line, 9);
        assert!(stale.is_empty());
        // A baseline entry that matches nothing is reported as stale.
        let (fail, ok, stale) = bl.apply(vec![d3]);
        assert_eq!((fail.len(), ok), (0, 1));
        assert_eq!(stale.len(), 1);
        assert!(stale[0].contains("a.rs"));
    }

    #[test]
    fn baseline_ignores_comments_and_blanks() {
        let bl = Baseline::parse("# header\n\na.rs: R1: msg\n");
        assert_eq!(bl.len(), 1);
        assert!(!bl.is_empty());
    }

    #[test]
    fn text_format_matches_cli_shape() {
        let t = render_text(&sample_report());
        assert_eq!(
            t.lines().next().unwrap(),
            "a.rs:3: R1: .unwrap() can \"panic\""
        );
    }
}
