//! `lint.toml` loading: the checked-in scope lists.
//!
//! The rule scopes ([`LintConfig`]) live only in the repository's
//! `lint.toml`, so adding a parser to the untrusted scope is a config
//! review, not a lint-crate release, and a tree without the file is
//! an error rather than a silently unscoped run. The file is a small,
//! dependency-free TOML subset — flat
//! `key = ["…", …]` string arrays, `#` comments, arrays free to span
//! lines:
//!
//! ```toml
//! # modules that parse untrusted input (R1/R3)
//! untrusted = [
//!     "crates/dns/src/wire.rs",
//! ]
//! ```
//!
//! Keys mirror the [`LintConfig`] fields (`untrusted`, `wire_codecs`,
//! `bounded_loops`, `deterministic`, `entry_points`, `skip_dirs`); a
//! key left out is an empty list. Unknown or duplicate keys, malformed
//! syntax and a missing file are typed [`ConfigError`]s — a misspelled
//! scope list must fail the run, not silently lint nothing.

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use crate::LintConfig;

/// Everything that can be wrong with a `lint.toml`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A key that is not one of the [`LintConfig`] fields.
    UnknownKey {
        /// 1-based line of the key.
        line: usize,
        /// The offending key text.
        key: String,
    },
    /// The same key assigned twice.
    DuplicateKey {
        /// 1-based line of the second assignment.
        line: usize,
        /// The repeated key.
        key: String,
    },
    /// Malformed syntax (missing `=`, unterminated string/array, a
    /// non-string array element, …).
    Syntax {
        /// 1-based line of the problem.
        line: usize,
        /// What the parser expected.
        msg: &'static str,
    },
    /// The workspace root has no `lint.toml`.
    Missing {
        /// The path that was looked up.
        path: PathBuf,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::UnknownKey { line, key } => {
                write!(f, "lint.toml:{line}: unknown key `{key}`")
            }
            ConfigError::DuplicateKey { line, key } => {
                write!(f, "lint.toml:{line}: duplicate key `{key}`")
            }
            ConfigError::Syntax { line, msg } => write!(f, "lint.toml:{line}: {msg}"),
            ConfigError::Missing { path } => write!(
                f,
                "{} not found: mx-lint reads its rule scopes from lint.toml",
                path.display()
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// One token of the TOML subset.
#[derive(Debug, PartialEq)]
enum Tok {
    Key(String),
    Str(String),
    Eq,
    Open,
    Close,
    Comma,
}

/// Tokenize the subset: bare keys, quoted strings, `= [ ] ,` and `#`
/// comments. Tracks the 1-based line of every token for errors.
fn tokenize(src: &str) -> Result<Vec<(usize, Tok)>, ConfigError> {
    let mut out = Vec::new();
    let mut line = 1usize;
    let mut chars = src.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            '\n' => {
                line += 1;
                chars.next();
            }
            c if c.is_whitespace() => {
                chars.next();
            }
            '#' => {
                // Comment to end of line; the newline is handled above.
                while chars.peek().is_some_and(|&c| c != '\n') {
                    chars.next();
                }
            }
            '=' => {
                out.push((line, Tok::Eq));
                chars.next();
            }
            '[' => {
                out.push((line, Tok::Open));
                chars.next();
            }
            ']' => {
                out.push((line, Tok::Close));
                chars.next();
            }
            ',' => {
                out.push((line, Tok::Comma));
                chars.next();
            }
            '"' => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        None | Some('\n') => {
                            return Err(ConfigError::Syntax {
                                line,
                                msg: "unterminated string",
                            })
                        }
                        Some('"') => break,
                        Some(c) => s.push(c),
                    }
                }
                out.push((line, Tok::Str(s)));
            }
            c if c.is_ascii_alphanumeric() || c == '_' || c == '-' => {
                let mut k = String::new();
                while chars
                    .peek()
                    .is_some_and(|&c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
                {
                    if let Some(c) = chars.next() {
                        k.push(c);
                    }
                }
                out.push((line, Tok::Key(k)));
            }
            _ => {
                return Err(ConfigError::Syntax {
                    line,
                    msg: "unexpected character",
                })
            }
        }
    }
    Ok(out)
}

impl LintConfig {
    /// Parse a `lint.toml` source text. Keys absent stay empty.
    pub fn from_toml_str(src: &str) -> Result<LintConfig, ConfigError> {
        let toks = tokenize(src)?;
        let mut config = LintConfig::default();
        let mut seen: Vec<String> = Vec::new();
        let mut i = 0usize;
        while let Some(tok) = toks.get(i) {
            let (kline, key) = match tok {
                (l, Tok::Key(k)) => (*l, k.clone()),
                (l, _) => {
                    return Err(ConfigError::Syntax {
                        line: *l,
                        msg: "expected a key",
                    })
                }
            };
            i += 1;
            match toks.get(i) {
                Some((_, Tok::Eq)) => i += 1,
                _ => {
                    return Err(ConfigError::Syntax {
                        line: kline,
                        msg: "expected `=` after key",
                    })
                }
            }
            match toks.get(i) {
                Some((_, Tok::Open)) => i += 1,
                _ => {
                    return Err(ConfigError::Syntax {
                        line: kline,
                        msg: "expected `[` — values are string arrays",
                    })
                }
            }
            let mut values: Vec<String> = Vec::new();
            // Array body: strings separated by commas, trailing comma
            // allowed, closed by `]`.
            while let Some(tok) = toks.get(i) {
                match tok {
                    (_, Tok::Close) => break,
                    (_, Tok::Str(s)) => {
                        values.push(s.clone());
                        i += 1;
                        match toks.get(i) {
                            Some((_, Tok::Comma)) => i += 1,
                            Some((_, Tok::Close)) => {}
                            Some((l, _)) => {
                                return Err(ConfigError::Syntax {
                                    line: *l,
                                    msg: "expected `,` or `]` after array element",
                                })
                            }
                            None => {}
                        }
                    }
                    (l, _) => {
                        return Err(ConfigError::Syntax {
                            line: *l,
                            msg: "array elements must be strings",
                        })
                    }
                }
            }
            match toks.get(i) {
                Some((_, Tok::Close)) => i += 1,
                _ => {
                    return Err(ConfigError::Syntax {
                        line: kline,
                        msg: "unterminated array",
                    })
                }
            }
            if seen.contains(&key) {
                return Err(ConfigError::DuplicateKey { line: kline, key });
            }
            seen.push(key.clone());
            match key.as_str() {
                "untrusted" => config.untrusted = values,
                "wire_codecs" => config.wire_codecs = values,
                "bounded_loops" => config.bounded_loops = values,
                "deterministic" => config.deterministic = values,
                "entry_points" => config.entry_points = values,
                "skip_dirs" => config.skip_dirs = values,
                _ => return Err(ConfigError::UnknownKey { line: kline, key }),
            }
        }
        Ok(config)
    }

    /// Load the configuration for a workspace root from
    /// `<root>/lint.toml`. A missing file is a `NotFound` error
    /// carrying [`ConfigError::Missing`], a malformed one an
    /// `InvalidData` error carrying its [`ConfigError`]: mx-lint must
    /// never silently lint with the wrong scopes.
    pub fn load(root: &Path) -> io::Result<LintConfig> {
        let path = root.join("lint.toml");
        let src = std::fs::read_to_string(&path).map_err(|e| match e.kind() {
            io::ErrorKind::NotFound => {
                io::Error::new(io::ErrorKind::NotFound, ConfigError::Missing { path })
            }
            _ => e,
        })?;
        LintConfig::from_toml_str(&src).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_arrays_comments_and_partial_overrides() {
        let src = "\
# only override two scopes
untrusted = [
    \"crates/a/src/p.rs\", # trailing comment
    \"crates/b/src/q.rs\",
]
skip_dirs = []
";
        let c = LintConfig::from_toml_str(src).unwrap();
        assert_eq!(c.untrusted, ["crates/a/src/p.rs", "crates/b/src/q.rs"]);
        assert!(c.skip_dirs.is_empty());
        // Keys left out stay empty.
        assert!(c.wire_codecs.is_empty());
        assert!(c.bounded_loops.is_empty());
    }

    #[test]
    fn empty_source_scopes_nothing() {
        let c = LintConfig::from_toml_str("# nothing here\n").unwrap();
        assert!(c.untrusted.is_empty());
        assert!(c.wire_codecs.is_empty());
        assert!(c.bounded_loops.is_empty());
        assert!(c.deterministic.is_empty());
        assert!(c.entry_points.is_empty());
        assert!(c.skip_dirs.is_empty());
    }

    #[test]
    fn load_without_lint_toml_is_an_error() {
        // The lint crate's own directory has no lint.toml.
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
        let err = LintConfig::load(dir).expect_err("no lint.toml, no config");
        assert_eq!(err.kind(), io::ErrorKind::NotFound);
        let inner = err.get_ref().and_then(|e| e.downcast_ref::<ConfigError>());
        assert_eq!(
            inner,
            Some(&ConfigError::Missing {
                path: dir.join("lint.toml")
            })
        );
        assert!(err.to_string().contains("lint.toml"), "{err}");
    }

    #[test]
    fn deterministic_and_entry_points_keys_parse_and_override() {
        let src = "\
deterministic = [\"crates/a/src/out.rs\"]
entry_points = [\"crates/a/src/in.rs::decode\"]
";
        let c = LintConfig::from_toml_str(src).unwrap();
        assert_eq!(c.deterministic, ["crates/a/src/out.rs"]);
        assert_eq!(c.entry_points, ["crates/a/src/in.rs::decode"]);
        assert!(c.untrusted.is_empty());
        // The new keys get the same typed-error treatment.
        assert!(matches!(
            LintConfig::from_toml_str("deterministic = []\ndeterministic = []"),
            Err(ConfigError::DuplicateKey { line: 2, ref key }) if key == "deterministic"
        ));
        assert!(matches!(
            LintConfig::from_toml_str("entry_points = [42]"),
            Err(ConfigError::Syntax { .. })
        ));
    }

    #[test]
    fn typed_errors_for_bad_input() {
        assert!(matches!(
            LintConfig::from_toml_str("nope = [\"x\"]"),
            Err(ConfigError::UnknownKey { line: 1, ref key }) if key == "nope"
        ));
        assert!(matches!(
            LintConfig::from_toml_str("untrusted = []\nuntrusted = []"),
            Err(ConfigError::DuplicateKey { line: 2, ref key }) if key == "untrusted"
        ));
        assert!(matches!(
            LintConfig::from_toml_str("untrusted = [\"unterminated\n]"),
            Err(ConfigError::Syntax { line: 1, .. })
        ));
        assert!(matches!(
            LintConfig::from_toml_str("untrusted = [1]"),
            Err(ConfigError::Syntax { .. })
        ));
        assert!(matches!(
            LintConfig::from_toml_str("untrusted [\"x\"]"),
            Err(ConfigError::Syntax { .. })
        ));
        assert!(matches!(
            LintConfig::from_toml_str("untrusted = \"x\""),
            Err(ConfigError::Syntax { .. })
        ));
        assert!(matches!(
            LintConfig::from_toml_str("untrusted = [\"a\""),
            Err(ConfigError::Syntax { .. })
        ));
    }
}
