//! # mx-net — the simulated Internet
//!
//! The paper's pipeline joins two third-party data sources: **OpenINTEL**
//! (daily active DNS measurements: MX records of target domains and the A
//! records of the names inside them) and **Censys** (Internet-wide port-25
//! scans capturing banner, EHLO and STARTTLS certificates). Neither
//! longitudinal corpus is publicly re-obtainable, so this crate provides
//! the substrate both were built on: an Internet.
//!
//! * [`SimNet`] — the simulated network: an authoritative DNS tree
//!   ([`mx_dns::Authority`]), SMTP hosts keyed by IPv4 address, a global
//!   routing table ([`mx_asn::AsTable`]), a shared [`mx_dns::SimClock`],
//!   and a [`FaultPlan`];
//! * [`FaultPlan`] — deterministic fault injection reproducing the
//!   coverage gaps of Table 4: IPs whose owners opted out of scanning,
//!   unreachable hosts, and per-epoch intermittent scan failures;
//! * [`Scanner`] — the Censys analogue: drives a real
//!   [`mx_smtp::SmtpClient`] session against every target IP and records
//!   [`mx_smtp::SmtpScanData`] (or the failure mode) into a [`ScanSnapshot`],
//!   whose [`ScanSnapshot::acquisition`] says what each address cost;
//! * [`openintel`] — the OpenINTEL analogue: resolves MX + A records for a
//!   target-domain list through a caching [`mx_dns::StubResolver`] over the
//!   simulated network, producing [`openintel::DnsSnapshot`] rows of
//!   [`mx_dns::resolver::MxObservation`], the row shape the inference reads.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod fault;
pub mod openintel;
pub mod scanner;
pub mod simnet;

pub use fault::{
    ConnFault, ConnFaultPlan, ConnFaults, DnsFault, DnsFaults, FaultPlan, FlakinessProfile,
    ScanFault, SmtpFaults,
};
pub use openintel::{DnsDegradation, DnsSnapshot};
pub use scanner::{Missed, PortState, ScanObservation, ScanSnapshot, Scanner};
pub use simnet::{ConnectError, SimNet, SimNetBuilder};
