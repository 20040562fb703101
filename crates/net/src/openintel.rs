//! The OpenINTEL-like active DNS measurement.
//!
//! OpenINTEL structurally queries large domain lists daily for sets of
//! resource records; the paper extracts "the MX records associated with the
//! target domains, as well as the IP addresses to which the names in those
//! MX records resolved" (§4.3). This module performs exactly that
//! measurement against the simulated network.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use mx_dns::resolver::{MxTarget, ResolveError};
use mx_dns::{Name, Timestamp};

use crate::simnet::SimNet;

/// MX measurement outcome for one domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MxMeasurement {
    /// MX records found (each with the A-resolution of its exchange;
    /// an exchange that did not resolve has an empty address list).
    Records {
        /// The measured targets, sorted by (preference, exchange).
        targets: Vec<SerializableMxTarget>,
        /// An RFC 7505 null MX was published.
        null_mx: bool,
    },
    /// The domain has no MX records (NODATA) or does not exist.
    NoMx,
    /// The measurement failed (resolver/transport error).
    Error(String),
}

/// Serde-friendly mirror of [`MxTarget`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SerializableMxTarget {
    /// MX preference (lowest wins).
    pub preference: u16,
    /// The exchange hostname.
    pub exchange: Name,
    /// IPv4 addresses the exchange resolved to.
    pub addrs: Vec<Ipv4Addr>,
}

impl From<MxTarget> for SerializableMxTarget {
    fn from(t: MxTarget) -> Self {
        SerializableMxTarget {
            preference: t.preference,
            exchange: t.exchange,
            addrs: t.addrs,
        }
    }
}

impl MxMeasurement {
    /// The targets, when records were found.
    pub fn targets(&self) -> &[SerializableMxTarget] {
        match self {
            MxMeasurement::Records { targets, .. } => targets,
            _ => &[],
        }
    }

    /// The most-preferred targets (the paper attributes a domain's provider
    /// to the MX record(s) with the highest priority = lowest preference).
    pub fn primary_targets(&self) -> &[SerializableMxTarget] {
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

    /// Did the domain publish at least one usable MX record?
    pub fn has_mx(&self) -> bool {
        !self.targets().is_empty()
    }
}

/// How a domain's DNS measurement degraded: retry cost and, when the
/// lookup ultimately failed, the terminal error.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DnsDegradation {
    /// Extra transport attempts (retries) across the domain's lookups.
    pub retries: u32,
    /// Some lookup ultimately failed despite the retry budget.
    pub exhausted: bool,
    /// The terminal error of the first failing lookup, when any.
    pub error: Option<ResolveError>,
}

/// One day's DNS measurement over a target list.
#[derive(Debug, Clone)]
pub struct DnsSnapshot {
    /// The simulated measurement date.
    pub date: Timestamp,
    /// Per-domain results, in domain order.
    pub rows: BTreeMap<Name, MxMeasurement>,
    /// Domains whose measurement needed retries or lost data to faults.
    pub degraded: BTreeMap<Name, DnsDegradation>,
}

impl DnsSnapshot {
    /// All distinct IPs seen across MX targets (the scanner's target list).
    pub fn all_mx_ips(&self) -> Vec<Ipv4Addr> {
        let mut ips: Vec<Ipv4Addr> = self
            .rows
            .values()
            .flat_map(|m| m.targets().iter().flat_map(|t| t.addrs.iter().copied()))
            .collect();
        ips.sort();
        ips.dedup();
        ips
    }

    /// Number of domains with at least one MX target.
    pub fn domains_with_mx(&self) -> usize {
        self.rows.values().filter(|m| m.has_mx()).count()
    }
}

/// Measure the MX configuration of every domain in `domains`.
///
/// A shared caching resolver is used across the run (the measurement
/// platform batches queries); per-domain failures are recorded, never
/// propagated.
pub fn measure(net: &SimNet, domains: &[Name]) -> DnsSnapshot {
    let resolver = net.resolver();
    let mut rows = BTreeMap::new();
    let mut degraded = BTreeMap::new();
    for domain in domains {
        let row = match resolver.resolve_mx(domain) {
            Ok(mx) => {
                if !mx.degraded.is_empty() {
                    let retries = mx.degraded.iter().map(|d| d.retries).sum();
                    let error = mx.degraded.iter().find_map(|d| d.error.clone());
                    degraded.insert(
                        domain.clone(),
                        DnsDegradation {
                            retries,
                            exhausted: error.is_some(),
                            error,
                        },
                    );
                }
                if mx.targets.is_empty() && !mx.null_mx {
                    MxMeasurement::NoMx
                } else {
                    MxMeasurement::Records {
                        targets: mx.targets.into_iter().map(Into::into).collect(),
                        null_mx: mx.null_mx,
                    }
                }
            }
            Err(e) => {
                let retries = resolver.last_lookup_retries();
                let row = match &e {
                    ResolveError::NxDomain(_) => MxMeasurement::NoMx,
                    other => MxMeasurement::Error(other.to_string()),
                };
                if retries > 0 || !matches!(e, ResolveError::NxDomain(_)) {
                    degraded.insert(
                        domain.clone(),
                        DnsDegradation {
                            retries,
                            exhausted: !matches!(e, ResolveError::NxDomain(_)),
                            error: Some(e),
                        },
                    );
                }
                row
            }
        };
        rows.insert(domain.clone(), row);
    }
    DnsSnapshot {
        date: net.clock().now(),
        rows,
        degraded,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mx_dns::{dns_name, RData, SimClock, Zone};
    use mx_smtp::SmtpServerConfig;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn net() -> SimNet {
        let clock = SimClock::starting_at(Timestamp::from_ymd(2021, 6, 8));
        let mut b = SimNet::builder(clock);
        let mut z = Zone::new(dns_name!("example.com"));
        z.add_rr(
            dns_name!("example.com"),
            3600,
            RData::Mx {
                preference: 10,
                exchange: dns_name!("mx1.example.com"),
            },
        );
        z.add_rr(
            dns_name!("example.com"),
            3600,
            RData::Mx {
                preference: 10,
                exchange: dns_name!("mx2.example.com"),
            },
        );
        z.add_rr(dns_name!("mx1.example.com"), 300, RData::A(ip("192.0.2.1")));
        z.add_rr(dns_name!("mx2.example.com"), 300, RData::A(ip("192.0.2.2")));
        b.zone(z);
        let mut w = Zone::new(dns_name!("web-only.com"));
        w.add_rr(dns_name!("web-only.com"), 300, RData::A(ip("192.0.2.80")));
        b.zone(w);
        let mut n = Zone::new(dns_name!("nullmx.com"));
        n.add_rr(
            dns_name!("nullmx.com"),
            300,
            RData::Mx {
                preference: 0,
                exchange: Name::root(),
            },
        );
        b.zone(n);
        let mut d = Zone::new(dns_name!("dangling.com"));
        d.add_rr(
            dns_name!("dangling.com"),
            300,
            RData::Mx {
                preference: 5,
                exchange: dns_name!("gone.dangling.com"),
            },
        );
        b.zone(d);
        b.smtp_host(ip("192.0.2.1"), SmtpServerConfig::plain("mx1.example.com"));
        b.smtp_host(ip("192.0.2.2"), SmtpServerConfig::plain("mx2.example.com"));
        b.build()
    }

    #[test]
    fn measures_mx_and_addresses() {
        let net = net();
        let snap = measure(
            &net,
            &[
                dns_name!("example.com"),
                dns_name!("web-only.com"),
                dns_name!("nonexistent.com"),
                dns_name!("nullmx.com"),
                dns_name!("dangling.com"),
            ],
        );
        assert_eq!(snap.date, Timestamp::from_ymd(2021, 6, 8));
        let ex = &snap.rows[&dns_name!("example.com")];
        assert_eq!(ex.targets().len(), 2);
        assert_eq!(ex.primary_targets().len(), 2, "equal preference");
        assert!(ex.has_mx());
        assert_eq!(snap.rows[&dns_name!("web-only.com")], MxMeasurement::NoMx);
        assert_eq!(snap.rows[&dns_name!("nonexistent.com")], MxMeasurement::NoMx);
        match &snap.rows[&dns_name!("nullmx.com")] {
            MxMeasurement::Records { targets, null_mx } => {
                assert!(targets.is_empty());
                assert!(null_mx);
            }
            other => panic!("{other:?}"),
        }
        // Dangling MX: target recorded, no addresses ("No MX IP" bucket).
        let d = &snap.rows[&dns_name!("dangling.com")];
        assert_eq!(d.targets().len(), 1);
        assert!(d.targets()[0].addrs.is_empty());
    }

    #[test]
    fn degradation_recorded_under_dns_faults() {
        let _coins = crate::fault::dns_coin_guard();
        let clock = SimClock::starting_at(Timestamp::from_ymd(2021, 6, 8));
        let mut b = SimNet::builder(clock);
        let mut z = Zone::new(dns_name!("example.com"));
        for i in 0..30u32 {
            let host = dns_name!(&format!("mx{i}.example.com"));
            z.add_rr(
                dns_name!(&format!("d{i}.example.com")),
                3600,
                RData::Mx {
                    preference: 10,
                    exchange: host.clone(),
                },
            );
            z.add_rr(host, 300, RData::A(ip("192.0.2.1")));
        }
        b.zone(z);
        let mut faults = crate::fault::FaultPlan::none();
        faults.dns.timeout_rate = 0.3;
        faults.seed = 19;
        b.faults(faults);
        let net = b.build();
        let domains: Vec<Name> = (0..30)
            .map(|i| dns_name!(&format!("d{i}.example.com")))
            .collect();
        let snap = measure(&net, &domains);
        assert_eq!(snap.rows.len(), 30);
        assert!(!snap.degraded.is_empty(), "timeouts must leave traces");
        let recovered = snap
            .degraded
            .values()
            .filter(|d| d.retries > 0 && !d.exhausted)
            .count();
        assert!(recovered > 0, "some lookups must recover on retry");
        // Every degraded-but-recovered domain still has its records.
        for (name, d) in &snap.degraded {
            if !d.exhausted {
                assert!(snap.rows[name].has_mx(), "{name} lost data despite recovery");
            }
        }
    }

    #[test]
    fn all_mx_ips_deduplicated() {
        let net = net();
        let snap = measure(&net, &[dns_name!("example.com"), dns_name!("dangling.com")]);
        assert_eq!(snap.all_mx_ips(), vec![ip("192.0.2.1"), ip("192.0.2.2")]);
        assert_eq!(snap.domains_with_mx(), 2);
    }
}
