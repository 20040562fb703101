//! Acquisition accounting, shared across the stack.
//!
//! Three layers care about how hard the measurement worked and what it
//! lost: the simulated network (which injects the faults), the
//! inference input (which carries the accounting alongside the joined
//! observations), and the snapshot store (which persists it as a
//! sidecar). Before this crate each kept its own mirrored copy of the
//! same shapes; now there is exactly one definition.
//!
//! The vocabulary follows the paper's Table 4 split: *blocked* (owner
//! opt-out, never attempted), *exhausted* (every attempt failed),
//! *recovered* (an early attempt failed but a retry captured the data),
//! plus the concrete fault behind a degraded acquisition.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::net::Ipv4Addr;

use mx_dns::Name;

/// The kind of fault behind a degraded acquisition.
///
/// The measurement layer re-exports this as `ScanFault` (every variant
/// except [`AcqFault::Dns`] can be injected into an SMTP scan attempt);
/// the DNS path reports [`AcqFault::Dns`] for resolution-side
/// degradation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AcqFault {
    /// Connect-level transient failure (SYN lost, host briefly down).
    Transient,
    /// The server sent its banner and then dropped the connection.
    DropAfterBanner,
    /// The server tarpitted after EHLO: the client gave up with banner
    /// data only.
    EhloTarpit,
    /// STARTTLS was offered but the TLS handshake failed; captured
    /// banner/EHLO data is kept as a fallback.
    TlsHandshake,
    /// The banner line arrived garbled (non-conforming bytes); no
    /// usable hostname could be extracted from it.
    GarbledBanner,
    /// A DNS lookup on the resolution path failed or needed retries.
    Dns,
}

/// Acquisition accounting for one scanned IP: what the observation cost
/// and whether (and how) it degraded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IpAcquisition {
    /// Connection attempts consumed across the scan.
    pub attempts: u32,
    /// An earlier attempt failed but a later one captured the data.
    pub recovered: bool,
    /// Every attempt failed; the IP is uncovered despite trying.
    pub exhausted: bool,
    /// Owner opt-out; the IP was never attempted.
    pub blocked: bool,
    /// The fault reflected in (or healed from) the observation.
    pub fault: Option<AcqFault>,
}

impl IpAcquisition {
    /// A clean single-attempt acquisition.
    pub fn clean() -> Self {
        IpAcquisition {
            attempts: 1,
            recovered: false,
            exhausted: false,
            blocked: false,
            fault: None,
        }
    }
}

/// Acquisition accounting for one domain's DNS measurement.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DnsAcquisition {
    /// Extra transport attempts (retries) across the domain's lookups.
    pub retries: u32,
    /// Some lookup ultimately failed despite the retry budget.
    pub exhausted: bool,
}

/// Per-snapshot acquisition side-table: how hard the measurement layer
/// had to work, and what it lost — the raw material for the Table-4
/// "never covered" vs "recovered on retry" vs "exhausted budget" split.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AcquisitionReport {
    /// Per-IP scan accounting (every targeted IP has an entry).
    pub ips: HashMap<Ipv4Addr, IpAcquisition>,
    /// Per-domain DNS accounting (only degraded domains have entries).
    pub domains: HashMap<Name, DnsAcquisition>,
}

impl AcquisitionReport {
    /// No accounting recorded.
    pub fn is_empty(&self) -> bool {
        self.ips.is_empty() && self.domains.is_empty()
    }

    /// IPs whose data was captured after at least one failed attempt.
    pub fn recovered_ips(&self) -> usize {
        self.ips.values().filter(|a| a.recovered).count()
    }

    /// IPs that exhausted their retry budget without capturing anything.
    pub fn exhausted_ips(&self) -> usize {
        self.ips.values().filter(|a| a.exhausted).count()
    }

    /// IPs never attempted (owner opt-out).
    pub fn blocked_ips(&self) -> usize {
        self.ips.values().filter(|a| a.blocked).count()
    }

    /// Total scan attempts across all IPs.
    pub fn total_attempts(&self) -> u64 {
        self.ips.values().map(|a| a.attempts as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mx_dns::dns_name;

    #[test]
    fn clean_acquisition_is_unremarkable() {
        let a = IpAcquisition::clean();
        assert_eq!(a.attempts, 1);
        assert!(!a.recovered && !a.exhausted && !a.blocked);
        assert_eq!(a.fault, None);
    }

    #[test]
    fn report_counts() {
        let mut r = AcquisitionReport::default();
        assert!(r.is_empty());
        r.ips.insert(
            "10.0.0.1".parse().unwrap(),
            IpAcquisition {
                attempts: 3,
                recovered: true,
                exhausted: false,
                blocked: false,
                fault: Some(AcqFault::Transient),
            },
        );
        r.ips.insert(
            "10.0.0.2".parse().unwrap(),
            IpAcquisition {
                attempts: 0,
                recovered: false,
                exhausted: false,
                blocked: true,
                fault: None,
            },
        );
        r.domains.insert(
            dns_name!("slow.test"),
            DnsAcquisition {
                retries: 2,
                exhausted: false,
            },
        );
        assert!(!r.is_empty());
        assert_eq!(r.recovered_ips(), 1);
        assert_eq!(r.exhausted_ips(), 0);
        assert_eq!(r.blocked_ips(), 1);
        assert_eq!(r.total_attempts(), 3);
    }
}
