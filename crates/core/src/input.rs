//! The observation set: the joined measurement data the inference consumes.
//!
//! This mirrors the paper's §4.3 data gathering: for each target domain the
//! MX records and resolved addresses (OpenINTEL), and for each address the
//! port-25 application data (Censys) plus routing information (CAIDA
//! prefix2as). Assembly from the simulation lives in `mx-analysis`; this
//! crate only defines the shape and accessors.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use mx_asn::Asn;
use mx_cert::Certificate;
use mx_dns::Name;
use mx_smtp::SmtpScanData;

/// One MX target as measured: preference, exchange and resolved addresses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MxTargetObs {
    /// MX preference (lowest wins).
    pub preference: u16,
    /// The exchange hostname.
    pub exchange: Name,
    /// IPv4 addresses the exchange resolved to.
    pub addrs: Vec<Ipv4Addr>,
}

/// The domain's measured MX configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MxObservation {
    /// No MX records published (or the domain is gone).
    NoMx,
    /// RFC 7505 null MX only.
    NullMx,
    /// MX records, sorted by (preference, exchange).
    Targets(Vec<MxTargetObs>),
}

impl MxObservation {
    /// The targets, if any.
    pub fn targets(&self) -> &[MxTargetObs] {
        match self {
            MxObservation::Targets(t) => t,
            _ => &[],
        }
    }

    /// The most preferred target(s).
    pub fn primary_targets(&self) -> &[MxTargetObs] {
        let targets = self.targets();
        let Some(best) = targets.first().map(|t| t.preference) else {
            return &[];
        };
        let end = targets
            .iter()
            .position(|t| t.preference != best)
            .unwrap_or(targets.len());
        &targets[..end]
    }
}

/// One domain's measurement row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainObservation {
    /// The measured domain.
    pub domain: Name,
    /// Its measured MX configuration.
    pub mx: MxObservation,
}

/// Port-25 scan status for an IP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScanStatus {
    /// The IP was not covered by the scan at all ("No Censys").
    NotCovered,
    /// Covered; port closed or no SMTP service ("No Port 25 Data").
    NoSmtp,
    /// SMTP data captured.
    Smtp(SmtpScanData),
}

impl ScanStatus {
    /// The application data, when SMTP was spoken.
    pub fn data(&self) -> Option<&SmtpScanData> {
        match self {
            ScanStatus::Smtp(d) => Some(d),
            _ => None,
        }
    }
}

/// Everything known about one IP address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IpObservation {
    /// The observed address.
    pub ip: Ipv4Addr,
    /// Primary ASN announcing the address, if routed.
    pub asn: Option<Asn>,
    /// Port-25 scan status.
    pub scan: ScanStatus,
    /// The leaf certificate presented via STARTTLS, if any.
    pub leaf_cert: Option<Certificate>,
    /// Did the presented chain validate against the browser trust store at
    /// measurement time? (Computed during assembly; self-signed, expired
    /// and untrusted chains are all `false`.)
    pub cert_valid: bool,
}

impl IpObservation {
    /// An observation with no scan coverage.
    pub fn uncovered(ip: Ipv4Addr, asn: Option<Asn>) -> Self {
        IpObservation {
            ip,
            asn,
            scan: ScanStatus::NotCovered,
            leaf_cert: None,
            cert_valid: false,
        }
    }

    /// The valid leaf certificate, if any.
    pub fn valid_cert(&self) -> Option<&Certificate> {
        if self.cert_valid {
            self.leaf_cert.as_ref()
        } else {
            None
        }
    }

    /// Did the IP speak SMTP at scan time?
    pub fn has_smtp(&self) -> bool {
        matches!(self.scan, ScanStatus::Smtp(_))
    }
}

// The acquisition-accounting vocabulary lives in `mx-acq` (one shared
// definition for the measurement layer, this crate, and the snapshot
// store); re-exported here so inference consumers keep their paths.
pub use mx_acq::{AcqFault, AcquisitionReport, DnsAcquisition, IpAcquisition};

/// The complete joined input of one snapshot.
#[derive(Debug, Clone, Default)]
pub struct ObservationSet {
    /// Per-domain DNS measurements.
    pub domains: Vec<DomainObservation>,
    /// Per-IP scan/routing observations.
    pub ips: HashMap<Ipv4Addr, IpObservation>,
    /// Acquisition accounting behind `ips`/`domains` (empty when the
    /// producer records none).
    pub acquisition: AcquisitionReport,
}

impl ObservationSet {
    /// An empty observation set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Look up an IP observation.
    pub fn ip(&self, ip: Ipv4Addr) -> Option<&IpObservation> {
        self.ips.get(&ip)
    }

    /// Does the domain have any primary MX target with a live SMTP server?
    pub fn domain_has_smtp(&self, d: &DomainObservation) -> bool {
        d.mx.primary_targets().iter().any(|t| {
            t.addrs
                .iter()
                .any(|a| self.ips.get(a).is_some_and(IpObservation::has_smtp))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mx_dns::dns_name;

    fn target(pref: u16, ex: &str, addrs: &[&str]) -> MxTargetObs {
        MxTargetObs {
            preference: pref,
            exchange: dns_name!(ex),
            addrs: addrs.iter().map(|a| a.parse().unwrap()).collect(),
        }
    }

    #[test]
    fn primary_targets_selection() {
        let mx = MxObservation::Targets(vec![
            target(5, "a.example", &[]),
            target(5, "b.example", &[]),
            target(10, "c.example", &[]),
        ]);
        assert_eq!(mx.primary_targets().len(), 2);
        assert_eq!(MxObservation::NoMx.primary_targets().len(), 0);
        assert_eq!(MxObservation::NullMx.targets().len(), 0);
    }

    #[test]
    fn domain_has_smtp_requires_live_ip() {
        let ip: Ipv4Addr = "10.0.0.1".parse().unwrap();
        let mut set = ObservationSet::new();
        set.ips.insert(
            ip,
            IpObservation {
                ip,
                asn: None,
                scan: ScanStatus::Smtp(SmtpScanData {
                    banner: "mx ESMTP".into(),
                    ehlo: None,
                    ehlo_keywords: vec![],
                    starttls: mx_smtp::StartTlsOutcome::NotOffered,
                }),
                leaf_cert: None,
                cert_valid: false,
            },
        );
        let with = DomainObservation {
            domain: dns_name!("with.test"),
            mx: MxObservation::Targets(vec![target(1, "mx.with.test", &["10.0.0.1"])]),
        };
        let without = DomainObservation {
            domain: dns_name!("without.test"),
            mx: MxObservation::Targets(vec![target(1, "mx.without.test", &["10.0.0.2"])]),
        };
        set.domains = vec![with.clone(), without.clone()];
        assert!(set.domain_has_smtp(&with));
        assert!(!set.domain_has_smtp(&without));
    }

    #[test]
    fn uncovered_ip_has_no_cert() {
        let o = IpObservation::uncovered("10.0.0.9".parse().unwrap(), Some(64500));
        assert_eq!(o.valid_cert(), None);
        assert!(!o.has_smtp());
        assert_eq!(o.scan, ScanStatus::NotCovered);
    }
}
