//! # mx-dns — DNS substrate
//!
//! A from-scratch DNS implementation sufficient to reproduce the
//! measurement pipeline of *Who's Got Your Mail?* (IMC '21): the study's
//! OpenINTEL-style data collection resolves each target domain's MX records
//! and then the A records of the names inside them. This crate provides:
//!
//! * [`Name`] — domain names with RFC 1035 length limits, case-insensitive
//!   comparison and ordering;
//! * [`Record`], [`RData`], [`RecordType`] — resource records (A, AAAA, NS,
//!   CNAME, SOA, PTR, MX, TXT) plus an opaque escape hatch;
//! * [`Message`] — full wire-format encoding and decoding, including name
//!   compression pointers on both paths;
//! * [`Zone`] and [`Authority`] — authoritative data with correct
//!   NXDOMAIN/NODATA distinction, CNAME handling, wildcards and referrals;
//! * [`StubResolver`] — a caching stub resolver (positive + negative cache,
//!   TTL expiry against a [`SimClock`], CNAME chasing) and the
//!   [`resolver::MxResolution`] convenience used by the measurement layer.
//!   It is the crate's only resolver: like OpenINTEL, the study reads
//!   every MX and A record through one recursive server, so nothing
//!   chases referrals from root hints;
//! * [`SimClock`] / [`Timestamp`] — the deterministic time source shared by
//!   the whole simulation (TTLs, certificate validity, snapshot dates).
//!
//! Everything is synchronous and deterministic; the network is abstracted
//! behind the [`resolver::Transport`] trait which `mx-net` implements over
//! the simulated Internet.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod master;
pub mod message;
pub mod name;
pub mod resolver;
pub mod rr;
pub mod server;
pub mod wire;
pub mod zone;

pub use clock::{SimClock, Timestamp};
pub use master::{parse_zone, to_master, MasterError};
pub use message::{Header, Message, Opcode, Question, Rcode};
pub use name::{Name, NameError};
pub use resolver::{ResolveError, StubResolver, Transport};
pub use rr::{RData, Record, RecordClass, RecordType};
pub use server::Authority;
pub use wire::{WireError, WireReader, WireWriter};
pub use zone::{Zone, ZoneLookup};
