//! The prefix2as table: loader, lookup and AS metadata.

use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;


use crate::prefix::{Ipv4Prefix, PrefixError};
use crate::trie::PrefixTrie;
use crate::Asn;

/// The origin of a prefix: one AS, or a multi-origin set (CAIDA encodes
/// MOAS as `a_b` and AS sets as `a,b`; we preserve both as a set).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Origin {
    /// One origin AS.
    Single(Asn),
    /// Multi-origin announcement (MOAS) or AS set.
    Multi(Vec<Asn>),
}

impl Origin {
    /// The representative ASN: the single origin, or the first of a set
    /// (CAIDA lists the more specific/stable origin first).
    pub fn primary(&self) -> Asn {
        match self {
            Origin::Single(a) => *a,
            Origin::Multi(v) => v[0],
        }
    }

    /// Does this origin include `asn`?
    pub fn contains(&self, asn: Asn) -> bool {
        match self {
            Origin::Single(a) => *a == asn,
            Origin::Multi(v) => v.contains(&asn),
        }
    }
}

impl fmt::Display for Origin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Origin::Single(a) => write!(f, "{a}"),
            Origin::Multi(v) => {
                let parts: Vec<String> = v.iter().map(|a| a.to_string()).collect();
                write!(f, "{}", parts.join("_"))
            }
        }
    }
}

/// Metadata about an AS (the paper's Table 5 lists AS numbers with their
/// operating organisations).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsInfo {
    /// The autonomous system number.
    pub asn: Asn,
    /// Short name, e.g. `GOOGLE`.
    pub name: String,
    /// Operating organisation, e.g. `Google LLC`.
    pub org: String,
    /// ISO 3166-1 alpha-2 country of registration.
    pub country: String,
}

/// Errors loading a prefix2as table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TableError {
    /// A row did not have three whitespace-separated fields.
    BadLine {
        /// 1-based line number.
        line_no: usize,
        /// The offending line.
        line: String,
    },
    /// The address/length did not form a valid prefix.
    BadPrefix {
        /// 1-based line number.
        line_no: usize,
        /// The underlying prefix error.
        err: PrefixError,
    },
    /// The origin field was not an ASN, MOAS or AS set.
    BadAsn {
        /// 1-based line number.
        line_no: usize,
        /// The offending token.
        token: String,
    },
}

impl fmt::Display for TableError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TableError::BadLine { line_no, line } => {
                write!(f, "malformed prefix2as line {line_no}: {line:?}")
            }
            TableError::BadPrefix { line_no, err } => {
                write!(f, "bad prefix at line {line_no}: {err}")
            }
            TableError::BadAsn { line_no, token } => {
                write!(f, "bad ASN at line {line_no}: {token:?}")
            }
        }
    }
}

impl std::error::Error for TableError {}

/// An IPv4 prefix-to-AS table with longest-prefix-match lookup and AS
/// organisation metadata.
#[derive(Debug, Default)]
pub struct AsTable {
    trie: PrefixTrie<Origin>,
    info: HashMap<Asn, AsInfo>,
}

impl AsTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Load from CAIDA Routeviews prefix2as text: one
    /// `<addr>\t<len>\t<asn>` row per line (whitespace-separated accepted),
    /// where `<asn>` may be `123`, `12_34` (MOAS) or `12,34` (AS set).
    pub fn load(text: &str) -> Result<Self, TableError> {
        let mut t = Self::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let (addr, len, asn) = match (parts.next(), parts.next(), parts.next()) {
                (Some(a), Some(l), Some(s)) => (a, l, s),
                _ => {
                    return Err(TableError::BadLine {
                        line_no: i + 1,
                        line: raw.to_string(),
                    })
                }
            };
            let addr: Ipv4Addr = addr.parse().map_err(|_| TableError::BadLine {
                line_no: i + 1,
                line: raw.to_string(),
            })?;
            let len: u8 = len.parse().map_err(|_| TableError::BadLine {
                line_no: i + 1,
                line: raw.to_string(),
            })?;
            let prefix = Ipv4Prefix::new_truncating(addr, len)
                .map_err(|err| TableError::BadPrefix { line_no: i + 1, err })?;
            let origin = parse_origin(asn).ok_or_else(|| TableError::BadAsn {
                line_no: i + 1,
                token: asn.to_string(),
            })?;
            t.announce(prefix, origin);
        }
        Ok(t)
    }

    /// Announce a prefix from an origin (replaces an identical prefix).
    pub fn announce(&mut self, prefix: Ipv4Prefix, origin: Origin) {
        self.trie.insert(prefix, origin);
    }

    /// Register AS metadata.
    pub fn register_as(&mut self, info: AsInfo) {
        self.info.insert(info.asn, info);
    }

    /// Number of announced prefixes.
    pub fn prefix_count(&self) -> usize {
        self.trie.len()
    }

    /// Longest-prefix-match: the origin announcing `addr`, if any.
    pub fn origin_of(&self, addr: Ipv4Addr) -> Option<&Origin> {
        self.trie.lookup(addr).map(|(_, o)| o)
    }

    /// Convenience: the primary ASN announcing `addr`.
    pub fn asn_of(&self, addr: Ipv4Addr) -> Option<Asn> {
        self.origin_of(addr).map(Origin::primary)
    }

    /// AS metadata, if registered.
    pub fn info(&self, asn: Asn) -> Option<&AsInfo> {
        self.info.get(&asn)
    }

    /// Human-readable AS description: `15169 (Google LLC)` or `15169`.
    pub fn describe(&self, asn: Asn) -> String {
        match self.info(asn) {
            Some(i) => format!("{} ({})", asn, i.org),
            None => asn.to_string(),
        }
    }
}

fn parse_origin(token: &str) -> Option<Origin> {
    if let Ok(a) = token.parse::<Asn>() {
        return Some(Origin::Single(a));
    }
    let sep = if token.contains('_') { '_' } else { ',' };
    let asns: Option<Vec<Asn>> = token.split(sep).map(|p| p.parse::<Asn>().ok()).collect();
    match asns {
        Some(v) if v.len() >= 2 => Some(Origin::Multi(v)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# CAIDA-style sample
8.8.8.0\t24\t15169
13.107.0.0\t16\t8075
66.102.0.0 20 15169
198.51.100.0\t24\t64501_64502
203.0.113.0\t24\t64510,64511,64512
";

    #[test]
    fn load_and_lookup() {
        let t = AsTable::load(SAMPLE).unwrap();
        assert_eq!(t.prefix_count(), 5);
        assert_eq!(t.asn_of("8.8.8.8".parse().unwrap()), Some(15169));
        assert_eq!(t.asn_of("13.107.42.1".parse().unwrap()), Some(8075));
        assert_eq!(t.asn_of("192.0.2.1".parse().unwrap()), None);
    }

    #[test]
    fn moas_and_sets() {
        let t = AsTable::load(SAMPLE).unwrap();
        let o = t.origin_of("198.51.100.9".parse().unwrap()).unwrap();
        assert_eq!(o, &Origin::Multi(vec![64501, 64502]));
        assert_eq!(o.primary(), 64501);
        assert!(o.contains(64502));
        assert!(!o.contains(64503));
        let o2 = t.origin_of("203.0.113.200".parse().unwrap()).unwrap();
        assert_eq!(o2, &Origin::Multi(vec![64510, 64511, 64512]));
        assert_eq!(o2.to_string(), "64510_64511_64512");
    }

    #[test]
    fn lpm_over_table() {
        let mut t = AsTable::load(SAMPLE).unwrap();
        t.announce("13.107.128.0/17".parse().unwrap(), Origin::Single(200517));
        assert_eq!(t.asn_of("13.107.130.1".parse().unwrap()), Some(200517));
        assert_eq!(t.asn_of("13.107.1.1".parse().unwrap()), Some(8075));
    }

    #[test]
    fn metadata() {
        let mut t = AsTable::new();
        t.register_as(AsInfo {
            asn: 15169,
            name: "GOOGLE".into(),
            org: "Google LLC".into(),
            country: "US".into(),
        });
        assert_eq!(t.describe(15169), "15169 (Google LLC)");
        assert_eq!(t.describe(64500), "64500");
        assert_eq!(t.info(15169).unwrap().country, "US");
    }

    #[test]
    fn errors_reported_with_line() {
        assert!(matches!(
            AsTable::load("8.8.8.0\t24").unwrap_err(),
            TableError::BadLine { line_no: 1, .. }
        ));
        assert!(matches!(
            AsTable::load("8.8.8.0\t40\t15169").unwrap_err(),
            TableError::BadPrefix { line_no: 1, .. }
        ));
        assert!(matches!(
            AsTable::load("8.8.8.0\t24\tabc").unwrap_err(),
            TableError::BadAsn { line_no: 1, .. }
        ));
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let t = AsTable::load("# comment\n\n8.8.8.0\t24\t15169\n").unwrap();
        assert_eq!(t.prefix_count(), 1);
    }

    #[test]
    fn unmasked_rows_truncated() {
        let t = AsTable::load("10.1.2.3\t8\t64500\n").unwrap();
        assert_eq!(t.asn_of("10.200.1.1".parse().unwrap()), Some(64500));
    }
}
