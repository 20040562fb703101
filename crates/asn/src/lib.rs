//! # mx-asn — IPv4 prefix-to-AS mapping
//!
//! The paper augments every IP address an MX record resolves to with the
//! autonomous system announcing it (CAIDA's Routeviews prefix2as dataset),
//! and uses the ASN both as an inference feature (§3.1.2) and to verify
//! misidentification candidates (§3.2.4 — "a server falsely claiming to be
//! google.com does not reside in Google's AS").
//!
//! This crate provides:
//!
//! * [`Ipv4Prefix`] — a validated CIDR prefix with containment tests;
//! * [`PrefixTrie`] — a binary (one bit per level) longest-prefix-match
//!   trie;
//! * [`AsTable`] — the prefix2as table: text-format loader (the CAIDA
//!   `addr\tlen\tasn` format, including multi-origin `a_b` and `a,b`
//!   AS sets), LPM lookup and AS metadata ([`AsInfo`]).
//!
//! The table is IPv4 only, as the paper's pipeline is: MX names are
//! resolved to A records, and no simulated world publishes an AAAA
//! record.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod prefix;
pub mod table;
pub mod trie;

pub use prefix::{Ipv4Prefix, PrefixError};
pub use table::{AsInfo, AsTable, Origin, TableError};
pub use trie::PrefixTrie;

/// An autonomous system number.
pub type Asn = u32;
