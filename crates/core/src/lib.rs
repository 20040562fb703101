//! # mx-infer — priority-based mail-provider inference
//!
//! The primary contribution of *Who's Got Your Mail?* (IMC '21, §3): given
//! a domain's MX records, the IPs they resolve to, and port-25 scan data
//! for those IPs (banner, EHLO, STARTTLS certificates), infer the
//! **provider ID** — a registered domain identifying the entity that
//! actually operates the domain's inbound mail service.
//!
//! The five steps of §3.2, implemented faithfully:
//!
//! 1. **Certificate preprocessing** ([`certgroup`]): count registered-domain
//!    occurrences across all valid certificates, group certificates that
//!    share at least one FQDN, pick each group's most common registered
//!    domain as its representative name.
//! 2. **IDs of an IP** ([`ipid`]): the representative name of the valid
//!    certificate presented at the IP ("ID from cert"), and the registered
//!    domain that appears in *both* banner and EHLO ("ID from
//!    Banner/EHLO").
//! 3. **Provider ID of an MX** ([`mxid`]): all IPs agree on a cert ID →
//!    that ID; else all agree on a banner ID → that; else the registered
//!    domain of the MX name itself.
//! 4. **Misidentification checking** ([`misid`]): confidence scores
//!    (`max(numIP, numCert)` domains pointing at the IP/certificate), VPS
//!    hostname patterns and AS-mismatch heuristics that catch VPS-on-web-
//!    host certificates and servers falsely claiming to be big providers.
//! 5. **Provider ID of a domain** ([`domainid`]): the ID of the most
//!    preferred MX record(s), credit split across distinct IDs at equal
//!    preference.
//!
//! The three baselines the paper compares against (§3.3) are the same
//! pipeline with features disabled: **MX-only**, **cert-based** and
//! **banner-based** — see [`Strategy`].
//!
//! The crate is measurement-only: it consumes an [`ObservationSet`]
//! (the join of the DNS measurement, the port-25 scan, and prefix2as data)
//! and never sees generator ground truth.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod certgroup;
pub mod company;
pub mod domainid;
pub mod input;
pub mod ipid;
pub mod misid;
pub mod mxid;
pub mod pattern;
pub mod pipeline;
pub mod spf;
pub mod store_io;

pub use certgroup::{CertGroups, GroupId};
pub use company::{CompanyMap, ProviderIdRow};
pub use domainid::{DomainAssignment, Share};
pub use input::{
    AcqFault, AcquisitionReport, DnsAcquisition, DomainObservation, IpAcquisition, IpObservation,
    MxObservation, MxTargetObs, ObservationSet, ScanStatus,
};
pub use ipid::{IpIds, ProviderId};
pub use misid::{Correction, CorrectionReason, ProviderKnowledge, ProviderProfile};
pub use mxid::{IdSource, MxAssignment};
pub use pattern::Pattern;
pub use pipeline::{InferenceResult, Pipeline, Strategy};
pub use spf::{eventual_providers, Mechanism, Qualifier, SpfRecord};
pub use store_io::{assignment_from_row, result_rows};
