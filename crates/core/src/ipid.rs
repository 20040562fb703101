//! Step 2 — IDs of an IP address (paper §3.2.2).

use std::collections::HashMap;
use std::net::Ipv4Addr;

use mx_psl::PublicSuffixList;
use mx_smtp::valid_fqdn;

use crate::certgroup::CertGroups;
use crate::input::{IpObservation, ObservationSet};

/// A provider identifier: a registered domain naming the entity that
/// operates a piece of mail infrastructure.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProviderId(pub String);

impl ProviderId {
    /// A provider ID, lower-cased.
    pub fn new(s: impl Into<String>) -> ProviderId {
        ProviderId(s.into().to_ascii_lowercase())
    }

    /// The registered-domain text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for ProviderId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

/// The per-IP identifiers derived from scan data.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IpIds {
    /// ID from a valid TLS certificate (step 2.1): the representative name
    /// of the certificate's group.
    pub from_cert: Option<ProviderId>,
    /// ID from Banner/EHLO (step 2.2): the shared registered domain when
    /// the same one appears in both the banner and the EHLO hostname.
    pub from_banner: Option<ProviderId>,
}

impl IpIds {
    /// The highest-priority available ID (certificate first).
    pub fn best(&self) -> Option<&ProviderId> {
        self.from_cert.as_ref().or(self.from_banner.as_ref())
    }
}

/// Compute both IDs for every scanned IP in the observation set.
///
/// Each IP is independent, so the work fans out over the shared pool
/// (`mx_par`); the per-IP results are keyed by address, making the output
/// identical to a serial pass at any thread count.
pub fn compute_ip_ids(
    obs: &ObservationSet,
    groups: &CertGroups,
    psl: &PublicSuffixList,
) -> HashMap<Ipv4Addr, IpIds> {
    let mut entries: Vec<(Ipv4Addr, &IpObservation)> =
        obs.ips.iter().map(|(ip, o)| (*ip, o)).collect();
    entries.sort_by_key(|&(ip, _)| ip);
    mx_par::par_map(&entries, |&(ip, ipobs)| {
        let rep = ipobs.valid_cert().and_then(|c| groups.representative_of(c));
        (ip, ip_ids(ipobs, rep, psl))
    })
    .into_iter()
    .collect()
}

/// Both IDs of one address, given the representative name of the group
/// of the valid certificate it presents (if any).
pub(crate) fn ip_ids(
    ipobs: &IpObservation,
    cert_rep: Option<&str>,
    psl: &PublicSuffixList,
) -> IpIds {
    // 2.1 ID from certificate.
    let mut ids = IpIds {
        from_cert: cert_rep.map(ProviderId::new),
        from_banner: None,
    };

    // 2.2 ID from Banner/EHLO: both must carry a valid FQDN whose
    // registered domain agrees.
    if let Some(data) = ipobs.scan.data() {
        let banner_rd = data
            .banner_host()
            .filter(|h| valid_fqdn(h))
            .and_then(|h| psl.registered_domain(h));
        let ehlo_rd = data
            .ehlo_host()
            .filter(|h| valid_fqdn(h))
            .and_then(|h| psl.registered_domain(h));
        if let (Some(b), Some(e)) = (banner_rd, ehlo_rd) {
            if b == e {
                ids.from_banner = Some(ProviderId::new(b));
            }
        }
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certgroup::preprocess;
    use crate::input::{IpObservation, ScanStatus};
    use mx_cert::{Certificate, CertificateBuilder, KeyId};
    use mx_smtp::{SmtpScanData, StartTlsOutcome};

    fn scan(banner: &str, ehlo: Option<&str>, cert: Option<Certificate>) -> ScanStatus {
        ScanStatus::Smtp(SmtpScanData {
            banner: banner.to_string(),
            ehlo: ehlo.map(str::to_string),
            ehlo_keywords: vec![],
            starttls: match &cert {
                Some(c) => StartTlsOutcome::Completed {
                    chain: vec![c.clone()],
                },
                None => StartTlsOutcome::NotOffered,
            },
        })
    }

    fn obs_one(ip: &str, banner: &str, ehlo: Option<&str>, cert: Option<Certificate>, valid: bool)
        -> ObservationSet {
        let mut obs = ObservationSet::new();
        let addr: Ipv4Addr = ip.parse().unwrap();
        obs.ips.insert(
            addr,
            IpObservation {
                ip: addr,
                asn: None,
                scan: scan(banner, ehlo, cert.clone()),
                leaf_cert: cert,
                cert_valid: valid,
            },
        );
        obs
    }

    fn ids_for(obs: &ObservationSet, ip: &str) -> IpIds {
        let psl = PublicSuffixList::builtin();
        let groups = preprocess(obs, &psl);
        compute_ip_ids(obs, &groups, &psl)[&ip.parse::<Ipv4Addr>().unwrap()].clone()
    }

    #[test]
    fn cert_id_from_group_representative() {
        let cert = CertificateBuilder::new(1, KeyId(1))
            .common_name("mx.google.com")
            .self_signed();
        let obs = obs_one(
            "1.1.1.1",
            "mx.google.com ESMTP",
            Some("mx.google.com at your service"),
            Some(cert),
            true,
        );
        let ids = ids_for(&obs, "1.1.1.1");
        assert_eq!(ids.from_cert, Some(ProviderId::new("google.com")));
        assert_eq!(ids.from_banner, Some(ProviderId::new("google.com")));
        assert_eq!(ids.best().unwrap().as_str(), "google.com");
    }

    #[test]
    fn banner_requires_agreement() {
        // Banner and EHLO disagree: no banner ID.
        let obs = obs_one(
            "1.1.1.1",
            "mx.alpha.com ESMTP",
            Some("mx.beta.com hello"),
            None,
            false,
        );
        assert_eq!(ids_for(&obs, "1.1.1.1").from_banner, None);
        // Same registered domain with different hosts: ID assigned.
        let obs = obs_one(
            "1.1.1.1",
            "mx1.provider.com ESMTP",
            Some("mx2.provider.com hello"),
            None,
            false,
        );
        assert_eq!(
            ids_for(&obs, "1.1.1.1").from_banner,
            Some(ProviderId::new("provider.com"))
        );
    }

    #[test]
    fn invalid_fqdn_banner_rejected() {
        for banner in ["IP-1-2-3-4 ESMTP", "localhost ESMTP", "[10.0.0.1] ready"] {
            let obs = obs_one("1.1.1.1", banner, Some(banner), None, false);
            assert_eq!(ids_for(&obs, "1.1.1.1").from_banner, None, "{banner}");
        }
    }

    #[test]
    fn missing_ehlo_means_no_banner_id() {
        let obs = obs_one("1.1.1.1", "mx.provider.com ESMTP", None, None, false);
        assert_eq!(ids_for(&obs, "1.1.1.1").from_banner, None);
    }

    #[test]
    fn invalid_cert_gives_no_cert_id() {
        let cert = CertificateBuilder::new(1, KeyId(1))
            .common_name("mx.fake.com")
            .self_signed();
        let obs = obs_one("1.1.1.1", "x ESMTP", None, Some(cert), false);
        let ids = ids_for(&obs, "1.1.1.1");
        assert_eq!(ids.from_cert, None);
        assert_eq!(ids.best(), None);
    }

    #[test]
    fn cert_preferred_over_banner() {
        let cert = CertificateBuilder::new(1, KeyId(1))
            .common_name("mx.certco.com")
            .self_signed();
        let obs = obs_one(
            "1.1.1.1",
            "mx.bannerco.com ESMTP",
            Some("mx.bannerco.com hi"),
            Some(cert),
            true,
        );
        let ids = ids_for(&obs, "1.1.1.1");
        assert_eq!(ids.best().unwrap().as_str(), "certco.com");
    }
}
