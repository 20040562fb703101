//! # mx-cert — simplified X.509 certificate model
//!
//! The highest-priority signal in the paper's methodology (§3.2) is the TLS
//! certificate a mail server presents during STARTTLS: "we consider a
//! certificate valid if it is trusted by a major browser", and valid
//! certificates' CN/SAN names drive certificate grouping and provider IDs.
//!
//! This crate models exactly the parts of X.509/PKI that the measurement
//! depends on, from scratch:
//!
//! * [`Certificate`] — subject CN, subject alternative names, issuer,
//!   validity window, CA flag, and a simulated signature (a keyed hash by
//!   the issuer's private key — cryptographically meaningless, structurally
//!   faithful: only the holder of the issuer key id can produce it);
//! * [`CertificateAuthority`] — root/intermediate CAs that issue leaf and
//!   intermediate certificates, plus self-signed certificate construction;
//! * [`TrustStore`] — the "major browser" root store; [`validate_chain`]
//!   checks hostname match (RFC 6125 wildcard rules), validity windows,
//!   CA flags and the signature chain up to a trusted root;
//! * [`fingerprint`] — FNV-1a content fingerprints used to deduplicate and
//!   group certificates.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod ca;
pub mod cert;
pub mod fingerprint;
pub mod name_match;
pub mod validate;

pub use ca::{CertificateAuthority, TrustStore};
pub use cert::{Certificate, CertificateBuilder, KeyId, Signature};
pub use fingerprint::{fnv1a, fnv1a_chunks, h64, Fingerprint};
pub use name_match::host_matches;
pub use validate::{chain_trusted, validate_chain, ValidationError};
