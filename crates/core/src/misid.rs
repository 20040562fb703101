//! Step 4 — checking for misidentifications (paper §3.2.4).
//!
//! Two corner cases defeat the SMTP-level signals:
//!
//! * **VPS servers on web-hosting infrastructure**: the hosting company
//!   lets renters mint certificates/hostnames under its own domain
//!   (`vps123.secureserver.net`), so cert/banner IDs point at the hosting
//!   company although an individual operates the mail server;
//! * **forged banner identities**: anyone can claim `mx.google.com` in
//!   free-text Banner/EHLO messages.
//!
//! The paper's key observation: these corner cases involve *unpopular*
//! servers. Each IP/certificate used by a real big provider serves many
//! domains, so a **confidence score** `max(numIP, numCert)` (domains
//! pointing at the IP / at the certificate) separates real provider
//! infrastructure from pretenders, and only low-confidence assignments to
//! a predetermined set of large providers need examination. Published
//! heuristics (AS membership, VPS hostname patterns) then resolve the
//! candidates automatically.

use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

use mx_asn::Asn;
use mx_cert::Fingerprint;
use mx_dns::Name;
use mx_psl::PublicSuffixList;

use crate::input::ObservationSet;
use crate::ipid::ProviderId;
use crate::mxid::{mx_fallback_id, IdSource, MxAssignment};
use crate::pattern::Pattern;

/// What a heuristic decided about a candidate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorrectionReason {
    /// The server claims a large provider but sits outside its ASes:
    /// forged identity; revert to the MX-record fallback ID.
    AsMismatch {
        /// The provider the server claimed to be.
        claimed: ProviderId,
        /// The AS the server actually answered from.
        asn: Option<Asn>,
    },
    /// The certificate/banner hostname matches the hosting company's VPS
    /// naming pattern: a customer-operated server; revert to the MX-record
    /// fallback ID.
    VpsPattern {
        /// The hostname that matched.
        host: String,
        /// The pattern it matched.
        pattern: String,
    },
}

/// A correction applied to one MX assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Correction {
    /// The MX name whose assignment was rewritten.
    pub exchange: Name,
    /// The provider before correction.
    pub old: ProviderId,
    /// The provider after correction.
    pub new: ProviderId,
    /// Which heuristic fired.
    pub reason: CorrectionReason,
}

/// Knowledge about one large provider used by the heuristics.
#[derive(Debug, Clone, Default)]
pub struct ProviderProfile {
    /// ASes the provider's own mail infrastructure announces from.
    pub asns: HashSet<Asn>,
    /// Hostname patterns of customer-operated (VPS) machines under the
    /// provider's domain.
    pub vps_patterns: Vec<Pattern>,
    /// Hostname patterns of provider-operated (dedicated/shared) machines;
    /// these are *not* corrected even at low confidence.
    pub dedicated_patterns: Vec<Pattern>,
}

/// The predetermined set of large providers to check (paper: "we only
/// check for misidentifications for large providers").
#[derive(Debug, Clone, Default)]
pub struct ProviderKnowledge {
    /// Per-provider profiles keyed by provider ID.
    pub profiles: HashMap<ProviderId, ProviderProfile>,
    /// Assignments with confidence at or above this many domains are
    /// trusted without examination.
    pub confidence_threshold: usize,
}

impl ProviderKnowledge {
    /// Knowledge with no profiles and the given confidence threshold.
    pub fn new(confidence_threshold: usize) -> Self {
        ProviderKnowledge {
            profiles: HashMap::new(),
            confidence_threshold,
        }
    }

    /// Register a large provider's profile under `id`.
    pub fn add(&mut self, id: impl Into<String>, profile: ProviderProfile) -> &mut Self {
        self.profiles.insert(ProviderId::new(id), profile);
        self
    }
}

/// Outcome of the misidentification pass.
#[derive(Debug, Clone, Default)]
pub struct MisidReport {
    /// MX names flagged for examination (the paper examines these
    /// manually; our heuristics then decide each one).
    pub examined: Vec<Name>,
    /// Corrections actually applied.
    pub corrections: Vec<Correction>,
}

/// Confidence bookkeeping: how many domains point at each IP and at each
/// certificate (via primary MX records).
#[derive(Debug, Clone, Default)]
pub struct Confidence {
    /// Domains pointing at each IP through a primary MX.
    pub num_ip: HashMap<Ipv4Addr, usize>,
    /// Domains pointing at each certificate through a primary MX.
    pub num_cert: HashMap<Fingerprint, usize>,
}

/// Fixed chunk size for the parallel confidence count. Boundaries depend
/// only on this constant (never the thread count), so the additive merge
/// below is deterministic.
const CONFIDENCE_CHUNK: usize = 512;

impl Confidence {
    /// Compute the counters over the observation set: per-chunk partial
    /// counters built in parallel, merged additively in chunk order.
    pub fn compute(obs: &ObservationSet) -> Confidence {
        let parts = mx_par::par_chunks(&obs.domains, CONFIDENCE_CHUNK, |chunk| {
            let mut c = Confidence::default();
            for d in chunk {
                let mut seen_ips: HashSet<Ipv4Addr> = HashSet::new();
                let mut seen_certs: HashSet<Fingerprint> = HashSet::new();
                for t in d.mx.primary_targets() {
                    for a in &t.addrs {
                        if seen_ips.insert(*a) {
                            *c.num_ip.entry(*a).or_insert(0) += 1;
                        }
                        if let Some(cert) = obs.ips.get(a).and_then(|o| o.leaf_cert.as_ref()) {
                            let fp = cert.fingerprint();
                            if seen_certs.insert(fp) {
                                *c.num_cert.entry(fp).or_insert(0) += 1;
                            }
                        }
                    }
                }
            }
            c
        });
        let mut c = Confidence::default();
        for part in parts {
            // Fold each partial map in key order: the counts are
            // integers (order-insensitive), but sorted folds keep the
            // merge auditable and the rule happy without an exemption.
            let mut ips: Vec<(Ipv4Addr, usize)> = part.num_ip.into_iter().collect();
            ips.sort_unstable_by_key(|&(ip, _)| ip);
            for (ip, n) in ips {
                *c.num_ip.entry(ip).or_insert(0) += n;
            }
            let mut certs: Vec<(Fingerprint, usize)> = part.num_cert.into_iter().collect();
            certs.sort_unstable_by_key(|&(fp, _)| fp);
            for (fp, n) in certs {
                *c.num_cert.entry(fp).or_insert(0) += n;
            }
        }
        c
    }

    /// The confidence score of an IP: `max(numIP, numCert)`, where
    /// `numCert` is taken for the certificate presented at the IP (ignored
    /// when absent).
    pub fn score(&self, obs: &ObservationSet, ip: Ipv4Addr) -> usize {
        let n_ip = self.num_ip.get(&ip).copied().unwrap_or(0);
        let n_cert = obs
            .ips
            .get(&ip)
            .and_then(|o| o.leaf_cert.as_ref())
            .and_then(|c| self.num_cert.get(&c.fingerprint()))
            .copied()
            .unwrap_or(0);
        n_ip.max(n_cert)
    }
}

/// What the parallel decision phase concluded about one assignment.
enum Decision {
    /// Not a candidate (MX fallback, unknown provider, high confidence).
    Skip,
    /// Examined, heuristics found nothing to correct.
    Examined,
    /// Examined and a heuristic fired.
    Correct(Correction),
}

/// Run the misidentification check over MX assignments, mutating them in
/// place and returning the report: every assignment is examined with the
/// counters computed over `obs`, then every correction found is applied.
pub fn check(
    assignments: &mut HashMap<Name, MxAssignment>,
    obs: &ObservationSet,
    knowledge: &ProviderKnowledge,
    psl: &PublicSuffixList,
) -> MisidReport {
    let confidence = Confidence::compute(obs);
    let report = examine(assignments, obs, knowledge, psl, |ip| {
        confidence.score(obs, ip)
    });
    for c in &report.corrections {
        if let Some(a) = assignments.get_mut(&c.exchange) {
            correct(a, c);
        }
    }
    report
}

/// Decide the misidentification check for every assignment without
/// changing any, reading each address's confidence score from `score`:
/// the report lists the examined exchanges and the corrections
/// [`correct`] would apply, in sorted-name order.
///
/// The per-exchange examination (confidence score, claimed hostnames,
/// pattern matching, AS membership) only *reads* shared state, so it fans
/// out over the pool; each exchange's decision is independent of every
/// other's, which is also why a run over a subset of the assignments
/// decides that subset exactly as a run over all of them would.
pub(crate) fn examine(
    assignments: &HashMap<Name, MxAssignment>,
    obs: &ObservationSet,
    knowledge: &ProviderKnowledge,
    psl: &PublicSuffixList,
    score: impl Fn(Ipv4Addr) -> usize + Sync,
) -> MisidReport {
    let mut report = MisidReport::default();

    let mut entries: Vec<(&Name, &MxAssignment)> = assignments.iter().collect();
    entries.sort_unstable_by_key(|&(name, _)| name);

    // Decision phase: read-only, parallel per exchange.
    let decisions: Vec<Decision> = mx_par::par_map(&entries, |&(_, a)| {
        // Only SMTP-derived assignments to known large providers are
        // candidates; the MX fallback needs no check.
        if a.source == IdSource::MxRecord {
            return Decision::Skip;
        }
        let Some(profile) = knowledge.profiles.get(&a.provider) else {
            return Decision::Skip;
        };
        // High-confidence assignments are trusted.
        let score = a.addrs.iter().map(|&ip| score(ip)).max().unwrap_or(0);
        if score >= knowledge.confidence_threshold {
            return Decision::Skip;
        }

        let mut correction: Option<CorrectionReason> = None;

        // Heuristic 1: VPS hostname pattern on the cert/banner host.
        'outer: for host in claimed_hosts(obs, a) {
            for pat in &profile.dedicated_patterns {
                if pat.matches(&host) {
                    // Provider-operated shape: trusted, stop examining.
                    break 'outer;
                }
            }
            for pat in &profile.vps_patterns {
                if pat.matches(&host) {
                    correction = Some(CorrectionReason::VpsPattern {
                        host: host.clone(),
                        pattern: pat.source().to_string(),
                    });
                    break 'outer;
                }
            }
        }

        // Heuristic 2: AS mismatch for the claimed provider.
        if correction.is_none() && !profile.asns.is_empty() {
            let in_as = a.addrs.iter().any(|ip| {
                obs.ips
                    .get(ip)
                    .and_then(|o| o.asn)
                    .is_some_and(|asn| profile.asns.contains(&asn))
            });
            if !in_as {
                let asn = a
                    .addrs
                    .first()
                    .and_then(|ip| obs.ips.get(ip))
                    .and_then(|o| o.asn);
                correction =
                    Some(CorrectionReason::AsMismatch { claimed: a.provider.clone(), asn });
            }
        }

        match correction {
            Some(reason) => Decision::Correct(Correction {
                exchange: a.exchange.clone(),
                old: a.provider.clone(),
                new: mx_fallback_id(&a.exchange, psl),
                reason,
            }),
            None => Decision::Examined,
        }
    });

    // Report phase: serial, in sorted-name order.
    for ((name, _), decision) in entries.into_iter().zip(decisions) {
        if let Decision::Skip = decision {
            continue;
        }
        report.examined.push(name.clone());
        if let Decision::Correct(c) = decision {
            report.corrections.push(c);
        }
    }
    report
}

/// Apply one correction from [`examine`]: the assignment falls back to
/// the MX-record ID and is flagged as corrected.
pub(crate) fn correct(a: &mut MxAssignment, c: &Correction) {
    a.provider = c.new.clone();
    a.source = IdSource::MxRecord;
    a.corrected = true;
}

/// The hostnames through which the assignment claimed its provider:
/// certificate names and banner/EHLO hosts of the MX's IPs.
fn claimed_hosts(obs: &ObservationSet, a: &MxAssignment) -> Vec<String> {
    let mut hosts = Vec::new();
    for ip in &a.addrs {
        let Some(o) = obs.ips.get(ip) else { continue };
        if let Some(cert) = o.leaf_cert.as_ref() {
            hosts.extend(cert.dns_names());
        }
        if let Some(d) = o.scan.data() {
            if let Some(b) = d.banner_host() {
                hosts.push(b.to_string());
            }
            if let Some(e) = d.ehlo_host() {
                hosts.push(e.to_string());
            }
        }
    }
    hosts.sort();
    hosts.dedup();
    hosts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{DomainObservation, IpObservation, MxObservation, MxTargetObs, ScanStatus};
    use mx_cert::{CertificateBuilder, KeyId};
    use mx_dns::dns_name;
    use mx_smtp::{SmtpScanData, StartTlsOutcome};

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    /// Build an observation set with `n_domains` domains pointing at one
    /// IP that claims `host` in banner/EHLO and cert.
    fn world(n_domains: usize, addr: &str, host: &str, asn: Option<Asn>) -> ObservationSet {
        let mut obs = ObservationSet::new();
        let cert = CertificateBuilder::new(1, KeyId(1)).common_name(host).self_signed();
        obs.ips.insert(
            ip(addr),
            IpObservation {
                ip: ip(addr),
                asn,
                scan: ScanStatus::Smtp(SmtpScanData {
                    banner: format!("{host} ESMTP"),
                    ehlo: Some(format!("{host} hello")),
                    ehlo_keywords: vec![],
                    starttls: StartTlsOutcome::Completed {
                        chain: vec![cert.clone()],
                    },
                }),
                leaf_cert: Some(cert),
                cert_valid: true,
            },
        );
        for i in 0..n_domains {
            obs.domains.push(DomainObservation {
                domain: dns_name!(&format!("cust{i}.test")),
                mx: MxObservation::Targets(vec![MxTargetObs {
                    preference: 10,
                    exchange: dns_name!(&format!("mx.cust{i}.test")),
                    addrs: vec![ip(addr)],
                }]),
            });
        }
        obs
    }

    fn assignment(exchange: &str, provider: &str, addr: &str) -> MxAssignment {
        MxAssignment {
            exchange: dns_name!(exchange),
            provider: ProviderId::new(provider),
            source: IdSource::Certificate,
            addrs: vec![ip(addr)],
            corrected: false,
        }
    }

    fn google_knowledge() -> ProviderKnowledge {
        let mut k = ProviderKnowledge::new(10);
        k.add(
            "google.com",
            ProviderProfile {
                asns: [15169].into_iter().collect(),
                vps_patterns: vec![],
                dedicated_patterns: vec![],
            },
        );
        k
    }

    #[test]
    fn forged_google_banner_corrected() {
        // One unpopular server claiming google.com from the wrong AS.
        let obs = world(2, "5.5.5.5", "mx.google.com", Some(64500));
        let mut assignments = HashMap::new();
        assignments.insert(
            dns_name!("mx.cust0.test"),
            assignment("mx.cust0.test", "google.com", "5.5.5.5"),
        );
        let report = check(
            &mut assignments,
            &obs,
            &google_knowledge(),
            &PublicSuffixList::builtin(),
        );
        assert_eq!(report.examined.len(), 1);
        assert_eq!(report.corrections.len(), 1);
        let a = &assignments[&dns_name!("mx.cust0.test")];
        assert_eq!(a.provider, ProviderId::new("cust0.test"));
        assert!(a.corrected);
        assert!(matches!(
            report.corrections[0].reason,
            CorrectionReason::AsMismatch { .. }
        ));
    }

    #[test]
    fn high_confidence_not_examined() {
        // Many domains point at the IP: trusted even outside the AS list.
        let obs = world(50, "5.5.5.5", "mx.google.com", Some(64500));
        let mut assignments = HashMap::new();
        assignments.insert(
            dns_name!("mx.cust0.test"),
            assignment("mx.cust0.test", "google.com", "5.5.5.5"),
        );
        let report = check(
            &mut assignments,
            &obs,
            &google_knowledge(),
            &PublicSuffixList::builtin(),
        );
        assert!(report.examined.is_empty());
        assert!(report.corrections.is_empty());
    }

    #[test]
    fn right_as_not_corrected() {
        let obs = world(2, "5.5.5.5", "mx.google.com", Some(15169));
        let mut assignments = HashMap::new();
        assignments.insert(
            dns_name!("mx.cust0.test"),
            assignment("mx.cust0.test", "google.com", "5.5.5.5"),
        );
        let report = check(
            &mut assignments,
            &obs,
            &google_knowledge(),
            &PublicSuffixList::builtin(),
        );
        assert_eq!(report.examined.len(), 1, "still examined (low confidence)");
        assert!(report.corrections.is_empty(), "but not corrected");
    }

    #[test]
    fn vps_pattern_corrected_dedicated_kept() {
        let mut k = ProviderKnowledge::new(10);
        k.add(
            "secureserver.net",
            ProviderProfile {
                asns: [26496].into_iter().collect(),
                vps_patterns: vec![Pattern::new("s#-#-#.secureserver.net"), Pattern::new("vps*.secureserver.net")],
                dedicated_patterns: vec![Pattern::new("mailstore#.secureserver.net")],
            },
        );
        // VPS case: corrected to the MX registered domain.
        let obs = world(1, "6.6.6.6", "s1-2-3.secureserver.net", Some(26496));
        let mut assignments = HashMap::new();
        assignments.insert(
            dns_name!("mx.cust0.test"),
            assignment("mx.cust0.test", "secureserver.net", "6.6.6.6"),
        );
        let report = check(&mut assignments, &obs, &k, &PublicSuffixList::builtin());
        assert_eq!(report.corrections.len(), 1);
        assert!(matches!(
            report.corrections[0].reason,
            CorrectionReason::VpsPattern { .. }
        ));
        assert_eq!(
            assignments[&dns_name!("mx.cust0.test")].provider,
            ProviderId::new("cust0.test")
        );

        // Dedicated case: kept.
        let obs = world(1, "6.6.6.7", "mailstore1.secureserver.net", Some(26496));
        let mut assignments = HashMap::new();
        assignments.insert(
            dns_name!("mx.cust0.test"),
            assignment("mx.cust0.test", "secureserver.net", "6.6.6.7"),
        );
        let report = check(&mut assignments, &obs, &k, &PublicSuffixList::builtin());
        assert!(report.corrections.is_empty());
        assert_eq!(
            assignments[&dns_name!("mx.cust0.test")].provider,
            ProviderId::new("secureserver.net")
        );
    }

    #[test]
    fn unknown_providers_skipped() {
        let obs = world(1, "7.7.7.7", "mx.smallco.com", Some(64501));
        let mut assignments = HashMap::new();
        assignments.insert(
            dns_name!("mx.cust0.test"),
            assignment("mx.cust0.test", "smallco.com", "7.7.7.7"),
        );
        let report = check(
            &mut assignments,
            &obs,
            &google_knowledge(),
            &PublicSuffixList::builtin(),
        );
        assert!(report.examined.is_empty());
    }

    #[test]
    fn mx_fallback_assignments_skipped() {
        let obs = world(1, "8.8.8.8", "mx.google.com", Some(64500));
        let mut assignments = HashMap::new();
        let mut a = assignment("aspmx.l.google.com", "google.com", "8.8.8.8");
        a.source = IdSource::MxRecord;
        assignments.insert(dns_name!("aspmx.l.google.com"), a);
        let report = check(
            &mut assignments,
            &obs,
            &google_knowledge(),
            &PublicSuffixList::builtin(),
        );
        assert!(report.examined.is_empty());
    }

    #[test]
    fn confidence_counts_per_domain_once() {
        let obs = world(3, "9.9.9.9", "mx.shared.com", None);
        let c = Confidence::compute(&obs);
        assert_eq!(c.num_ip[&ip("9.9.9.9")], 3);
        assert_eq!(c.score(&obs, ip("9.9.9.9")), 3);
    }
}
