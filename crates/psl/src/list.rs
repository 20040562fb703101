//! The Public Suffix List container and lookup algorithm.

use std::collections::HashMap;
use std::fmt;

use crate::rule::{Rule, RuleKind};

/// Errors produced while building a [`PublicSuffixList`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PslError {
    /// A line looked like a rule but failed to parse.
    BadRule {
        /// 1-based line number.
        line_no: usize,
        /// The offending line.
        line: String,
    },
}

impl fmt::Display for PslError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PslError::BadRule { line_no, line } => {
                write!(f, "malformed PSL rule at line {line_no}: {line:?}")
            }
        }
    }
}

impl std::error::Error for PslError {}

/// Trie node keyed by reversed labels.
#[derive(Debug, Default)]
struct Node {
    children: HashMap<String, Node>,
    /// A `*` child (wildcard rule passes through here).
    wildcard: Option<Box<Node>>,
    /// Rule terminating at this node, if any.
    kind: Option<RuleKind>,
}

/// A parsed Public Suffix List supporting public-suffix and
/// registered-domain queries.
///
/// Lookups are O(labels) via a reversed-label trie.
#[derive(Debug)]
pub struct PublicSuffixList {
    root: Node,
    rules: usize,
}

/// Result of matching a name against the list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Match {
    /// Number of trailing labels forming the public suffix.
    suffix_labels: usize,
    /// Label count of the prevailing rule (exceptions count full length).
    rule_len: usize,
    exception: bool,
}

impl PublicSuffixList {
    /// An empty list: every name falls back to the implicit `*` rule.
    pub fn empty() -> Self {
        PublicSuffixList {
            root: Node::default(),
            rules: 0,
        }
    }

    /// The built-in snapshot (see [`crate::BUILTIN_RULES`]).
    pub fn builtin() -> Self {
        Self::parse(crate::BUILTIN_RULES).expect("builtin PSL snapshot must parse")
    }

    /// Parse the standard PSL file format: one rule per line, `//` comments,
    /// blank lines ignored. Section markers (`===BEGIN ...===`) inside
    /// comments are ignored like any other comment.
    pub fn parse(text: &str) -> Result<Self, PslError> {
        let mut list = Self::empty();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with("//") {
                continue;
            }
            // The spec says anything after whitespace is ignored.
            let line = line.split_whitespace().next().unwrap_or("");
            if line.is_empty() {
                continue;
            }
            let rule = Rule::parse(line).ok_or_else(|| PslError::BadRule {
                line_no: i + 1,
                line: raw.to_string(),
            })?;
            list.add_rule(&rule);
        }
        Ok(list)
    }

    /// Insert one rule.
    pub fn add_rule(&mut self, rule: &Rule) {
        let mut node = &mut self.root;
        for label in rule.labels().iter().rev() {
            if label == "*" {
                node = node.wildcard.get_or_insert_with(Default::default);
            } else {
                node = node.children.entry(label.clone()).or_default();
            }
        }
        // Exception rules dominate other kinds at the same node.
        match (node.kind, rule.kind()) {
            (Some(RuleKind::Exception), _) => {}
            _ => node.kind = Some(rule.kind()),
        }
        self.rules += 1;
    }

    /// Number of rules inserted.
    pub fn len(&self) -> usize {
        self.rules
    }

    /// True if no explicit rules are present.
    pub fn is_empty(&self) -> bool {
        self.rules == 0
    }

    fn find_match(&self, labels: &[&str]) -> Match {
        // Walk right-to-left collecting every terminating rule; keep the
        // prevailing one (exception beats all, else longest).
        let mut best: Option<Match> = None;
        let mut frontier: Vec<&Node> = vec![&self.root];
        for (depth, label) in labels.iter().rev().enumerate() {
            let mut next: Vec<&Node> = Vec::new();
            for node in &frontier {
                if let Some(child) = node.children.get(*label) {
                    next.push(child);
                }
                if let Some(w) = &node.wildcard {
                    next.push(w);
                }
            }
            for node in &next {
                if let Some(kind) = node.kind {
                    let m = Match {
                        suffix_labels: if kind == RuleKind::Exception {
                            depth // rule length minus the leftmost label
                        } else {
                            depth + 1
                        },
                        rule_len: depth + 1,
                        exception: kind == RuleKind::Exception,
                    };
                    best = Some(match best {
                        None => m,
                        Some(b) if m.exception && !b.exception => m,
                        Some(b) if !m.exception && b.exception => b,
                        Some(b) if m.rule_len > b.rule_len => m,
                        Some(b) => b,
                    });
                }
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }
        best.unwrap_or(Match {
            // Implicit `*` rule: the TLD is the public suffix.
            suffix_labels: 1,
            rule_len: 1,
            exception: false,
        })
    }

    /// The public suffix of `name`, normalised to lower case.
    ///
    /// Returns `None` when `name` does not normalise to a valid dotted name.
    pub fn public_suffix(&self, name: &str) -> Option<String> {
        let norm = crate::normalize(name)?;
        let labels: Vec<&str> = norm.split('.').collect();
        let m = self.find_match(&labels);
        let n = m.suffix_labels.min(labels.len());
        Some(labels[labels.len() - n..].join("."))
    }

    /// True if `name` itself is a public suffix.
    pub fn is_public_suffix(&self, name: &str) -> bool {
        match (crate::normalize(name), self.public_suffix(name)) {
            (Some(n), Some(s)) => n == s,
            _ => false,
        }
    }

    /// The registered domain (public suffix plus one label) of `name`,
    /// lower-cased. `None` if the name *is* a public suffix (or shorter), or
    /// fails to normalise.
    pub fn registered_domain(&self, name: &str) -> Option<String> {
        let norm = crate::normalize(name)?;
        let labels: Vec<&str> = norm.split('.').collect();
        let m = self.find_match(&labels);
        if labels.len() <= m.suffix_labels {
            return None;
        }
        let n = m.suffix_labels + 1;
        let start = labels.len().checked_sub(n)?;
        Some(labels.get(start..)?.join("."))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list() -> PublicSuffixList {
        PublicSuffixList::parse(
            "// test list\n\
             com\n\
             uk\n\
             co.uk\n\
             jp\n\
             ac.jp\n\
             *.ck\n\
             !www.ck\n\
             *.kawasaki.jp\n\
             !city.kawasaki.jp\n",
        )
        .unwrap()
    }

    #[test]
    fn parse_counts_rules() {
        assert_eq!(list().len(), 9);
    }

    #[test]
    fn normal_rules() {
        let l = list();
        assert_eq!(l.public_suffix("foo.com").unwrap(), "com");
        assert_eq!(l.registered_domain("foo.com").unwrap(), "foo.com");
        assert_eq!(l.registered_domain("a.b.foo.com").unwrap(), "foo.com");
        assert_eq!(l.registered_domain("com"), None);
    }

    #[test]
    fn longest_rule_prevails() {
        let l = list();
        assert_eq!(l.public_suffix("x.example.co.uk").unwrap(), "co.uk");
        assert_eq!(
            l.registered_domain("x.example.co.uk").unwrap(),
            "example.co.uk"
        );
        // `uk` alone still works for direct children of .uk
        assert_eq!(l.registered_domain("example.uk").unwrap(), "example.uk");
    }

    #[test]
    fn wildcard_rules() {
        let l = list();
        assert_eq!(l.public_suffix("foo.ck").unwrap(), "foo.ck");
        assert_eq!(l.registered_domain("foo.ck"), None);
        assert_eq!(l.registered_domain("bar.foo.ck").unwrap(), "bar.foo.ck");
    }

    #[test]
    fn exception_rules() {
        let l = list();
        // `!www.ck` defeats `*.ck`: public suffix is `ck`.
        assert_eq!(l.public_suffix("www.ck").unwrap(), "ck");
        assert_eq!(l.registered_domain("www.ck").unwrap(), "www.ck");
        assert_eq!(l.registered_domain("a.www.ck").unwrap(), "www.ck");
        // Deeper exception.
        assert_eq!(
            l.registered_domain("city.kawasaki.jp").unwrap(),
            "city.kawasaki.jp"
        );
        assert_eq!(
            l.registered_domain("x.other.kawasaki.jp").unwrap(),
            "x.other.kawasaki.jp"
        );
    }

    #[test]
    fn unlisted_tld_uses_implicit_star() {
        let l = list();
        assert_eq!(l.public_suffix("example.zzunlisted").unwrap(), "zzunlisted");
        assert_eq!(
            l.registered_domain("www.example.zzunlisted").unwrap(),
            "example.zzunlisted"
        );
    }

    #[test]
    fn is_public_suffix() {
        let l = list();
        assert!(l.is_public_suffix("com"));
        assert!(l.is_public_suffix("co.uk"));
        assert!(l.is_public_suffix("anything.ck"));
        assert!(!l.is_public_suffix("www.ck"));
        assert!(!l.is_public_suffix("example.com"));
    }

    #[test]
    fn mixed_case_and_trailing_dot() {
        let l = list();
        assert_eq!(
            l.registered_domain("A.B.Example.CO.UK.").unwrap(),
            "example.co.uk"
        );
    }

    #[test]
    fn empty_list_implicit_rule() {
        let l = PublicSuffixList::empty();
        assert!(l.is_empty());
        assert_eq!(l.registered_domain("a.b.c").unwrap(), "b.c");
        assert_eq!(l.registered_domain("c"), None);
    }

    #[test]
    fn bad_rule_errors() {
        let e = PublicSuffixList::parse("com\na..b\n").unwrap_err();
        match e {
            PslError::BadRule { line_no, .. } => assert_eq!(line_no, 2),
        }
    }
}
