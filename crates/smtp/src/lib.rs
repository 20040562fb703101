//! # mx-smtp — SMTP substrate
//!
//! The paper's measurement consumes three artefacts of a port-25 SMTP
//! conversation (§2.1, §3.1): the **banner** (server greeting), the **EHLO
//! response** hostname, and the **TLS certificate chain** presented after
//! `STARTTLS`. This crate implements the protocol machinery that produces
//! and captures them, from scratch:
//!
//! * [`Command`] / [`Reply`] — the RFC 5321 command grammar and reply
//!   syntax (multiline replies, enhanced status codes passthrough);
//! * [`Extension`] — EHLO keyword negotiation (`STARTTLS`, `SIZE`,
//!   `PIPELINING`, `8BITMIME`, `AUTH`);
//! * [`SmtpServer`] — a complete receiving-MTA session state machine
//!   (greeting → EHLO → MAIL/RCPT/DATA, RSET, STARTTLS state reset per RFC
//!   3207 §4.2) driven line-by-line, configurable with arbitrary banner and
//!   EHLO identities and an optional certificate chain — including the
//!   misconfigured and adversarial shapes of §3.1 (non-FQDN banners like
//!   `IP-1-2-3-4`, `localhost`, and servers falsely claiming
//!   `mx.google.com`);
//! * [`SmtpClient`] + [`Connection`] — a client that drives the server
//!   over an in-memory byte pipe with real CRLF framing and line-length
//!   limits, used by the Censys-like scanner;
//! * [`scan`] — the port-25 scan observation types ([`SmtpScanData`]) and
//!   banner/EHLO hostname extraction ([`SmtpScanData::banner_host`],
//!   [`scan::valid_fqdn`]).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod command;
pub mod extensions;
pub mod reply;
pub mod scan;
pub mod server;
pub mod transport;

pub use client::{ClientError, SmtpClient};
pub use command::{Command, MailPath};
pub use extensions::Extension;
pub use reply::{Reply, ReplyCode, ReplyParseError};
pub use scan::{valid_fqdn, PortState, SmtpScanData, StartTlsFailure, StartTlsOutcome};
pub use server::{ServerQuirks, SmtpServer, SmtpServerConfig};
pub use transport::{Connection, LineError, MAX_LINE_LEN};
