//! The observation set: the joined measurement data the inference consumes.
//!
//! This mirrors the paper's §4.3 data gathering: for each target domain the
//! MX records and resolved addresses (OpenINTEL), and for each address the
//! port-25 application data (Censys) plus routing information (CAIDA
//! prefix2as). The join has one home per rule: the MX row shape is
//! `mx_dns`'s [`MxObservation`] of [`MxTarget`]s (re-exported here), a
//! scanned address becomes an [`IpObservation`] through
//! [`IpObservation::from_scan`], and [`ObservationSet::from_rows`]
//! restricts the address views to what the rows reference. Every
//! producer — the study's measurement, the delta reconciler, the
//! experiments and the tests — calls these.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use mx_asn::Asn;
use mx_cert::{Certificate, TrustStore};
use mx_dns::{Name, Timestamp};
use mx_smtp::{PortState, SmtpScanData};

pub use mx_dns::resolver::{MxObservation, MxTarget};

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
    /// The join of one scanned address: its routing, its port-25 state
    /// (`None` when the scan did not cover it) and the verdict on its
    /// presented chain. The one place that picks the leaf certificate
    /// and judges the chain against `trust` at `now`; an untrusted
    /// chain keeps its leaf with `cert_valid` false.
    pub fn from_scan(
        ip: Ipv4Addr,
        asn: Option<Asn>,
        port: Option<&PortState>,
        trust: &TrustStore,
        now: Timestamp,
    ) -> Self {
        match port {
            None => IpObservation::uncovered(ip, asn),
            Some(PortState::Closed | PortState::NoBanner) => IpObservation {
                ip,
                asn,
                scan: ScanStatus::NoSmtp,
                leaf_cert: None,
                cert_valid: false,
            },
            Some(PortState::Open(data)) => IpObservation {
                ip,
                asn,
                leaf_cert: data.leaf_certificate().cloned(),
                cert_valid: data
                    .starttls
                    .chain()
                    .is_some_and(|chain| mx_cert::chain_trusted(chain, trust, now).is_ok()),
                scan: ScanStatus::Smtp(data.clone()),
            },
        }
    }

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

    /// Join measured rows with a per-address table of observations and
    /// acquisition accounting, restricting both address views to the
    /// addresses the rows reference. Addresses missing from the table
    /// stay out of both views; per-domain DNS accounting is left empty.
    pub fn from_rows(
        domains: Vec<DomainObservation>,
        table: &HashMap<Ipv4Addr, (IpObservation, IpAcquisition)>,
    ) -> Self {
        let mut ips = HashMap::new();
        let mut acquisition = AcquisitionReport::default();
        for d in &domains {
            for t in d.mx.targets() {
                for a in &t.addrs {
                    if let Some((o, acq)) = table.get(a) {
                        ips.entry(*a).or_insert_with(|| o.clone());
                        acquisition.ips.entry(*a).or_insert(*acq);
                    }
                }
            }
        }
        ObservationSet {
            domains,
            ips,
            acquisition,
        }
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

    fn target(pref: u16, ex: &str, addrs: &[&str]) -> MxTarget {
        MxTarget {
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

    /// An open port that presented `chain` over STARTTLS.
    fn open_port(chain: Vec<Certificate>) -> PortState {
        PortState::Open(SmtpScanData {
            banner: "mx.example ESMTP".into(),
            ehlo: Some("mx.example".into()),
            ehlo_keywords: vec!["STARTTLS".into()],
            starttls: mx_smtp::StartTlsOutcome::Completed { chain },
        })
    }

    #[test]
    fn from_scan_joins_each_port_state() {
        use mx_cert::{CertificateAuthority, CertificateBuilder, KeyId};
        let now = Timestamp::from_ymd(2021, 6, 8);
        let mut ca = CertificateAuthority::new_root(
            "Root",
            KeyId(1),
            (
                Timestamp::from_ymd(2010, 1, 1),
                Timestamp::from_ymd(2040, 1, 1),
            ),
        );
        let mut trust = TrustStore::new();
        trust.add_root(&ca);
        let valid = (
            Timestamp::from_ymd(2020, 1, 1),
            Timestamp::from_ymd(2023, 1, 1),
        );
        let trusted = ca.issue_server(KeyId(2), Some("mx.example"), &["mx.example"], valid);
        let untrusted = CertificateBuilder::new(9, KeyId(9))
            .common_name("mx.example")
            .self_signed();
        let ip: Ipv4Addr = "10.0.0.1".parse().unwrap();
        let join =
            |port: Option<&PortState>| IpObservation::from_scan(ip, Some(64500), port, &trust, now);

        // Not covered by the scan.
        assert_eq!(join(None), IpObservation::uncovered(ip, Some(64500)));
        // Covered, but no SMTP spoken.
        for port in [PortState::Closed, PortState::NoBanner] {
            let o = join(Some(&port));
            assert_eq!(o.scan, ScanStatus::NoSmtp);
            assert_eq!((o.ip, o.asn), (ip, Some(64500)));
            assert_eq!(o.leaf_cert, None);
            assert!(!o.cert_valid);
        }
        // Open with a chain the store trusts.
        let port = open_port(vec![trusted.clone()]);
        let o = join(Some(&port));
        assert_eq!(o.scan, ScanStatus::Smtp(port.data().unwrap().clone()));
        assert_eq!(o.leaf_cert.as_ref(), Some(&trusted));
        assert!(o.cert_valid);
        assert_eq!(o.valid_cert(), Some(&trusted));
        // Open with an untrusted chain: the leaf is kept, not valid.
        let o = join(Some(&open_port(vec![untrusted.clone()])));
        assert!(o.has_smtp());
        assert_eq!(o.leaf_cert.as_ref(), Some(&untrusted));
        assert!(!o.cert_valid);
        assert_eq!(o.valid_cert(), None);
    }

    #[test]
    fn from_rows_restricts_views_to_referenced_addresses() {
        let a: Ipv4Addr = "10.0.0.1".parse().unwrap();
        let b: Ipv4Addr = "10.0.0.2".parse().unwrap();
        let table: HashMap<Ipv4Addr, (IpObservation, IpAcquisition)> = [a, b]
            .into_iter()
            .map(|ip| {
                (
                    ip,
                    (IpObservation::uncovered(ip, None), IpAcquisition::clean()),
                )
            })
            .collect();
        let rows = vec![
            DomainObservation {
                domain: dns_name!("one.test"),
                mx: MxObservation::Targets(vec![target(
                    1,
                    "mx.one.test",
                    &["10.0.0.1", "10.0.0.3"],
                )]),
            },
            DomainObservation {
                domain: dns_name!("two.test"),
                mx: MxObservation::Targets(vec![target(1, "mx.two.test", &["10.0.0.1"])]),
            },
        ];
        let set = ObservationSet::from_rows(rows.clone(), &table);
        assert_eq!(set.domains, rows);
        // `b` is in the table but unreferenced; 10.0.0.3 is referenced
        // but missing from the table.
        assert_eq!(set.ips.keys().copied().collect::<Vec<_>>(), vec![a]);
        assert_eq!(
            set.acquisition.ips.keys().copied().collect::<Vec<_>>(),
            vec![a]
        );
        assert!(set.acquisition.domains.is_empty());
    }
}
