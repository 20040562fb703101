//! The end-to-end inference pipeline and the four strategies of §3.3.

use std::collections::HashMap;

use mx_dns::Name;
use mx_psl::PublicSuffixList;

use crate::certgroup::{self, CertGroups};
use crate::domainid::{self, DomainAssignment};
use crate::input::ObservationSet;
use crate::ipid::{self, ProviderId};
use crate::misid::{self, MisidReport, ProviderKnowledge};
use crate::mxid::{self, MxAssignment};

/// The four inference strategies the paper evaluates (Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// MX record content only (Trost's approach).
    MxOnly,
    /// TLS certificates, falling back to MX records.
    CertBased,
    /// Banner/EHLO messages, falling back to MX records.
    BannerBased,
    /// Certificates, then Banner/EHLO, then MX records, plus the
    /// misidentification check — the paper's contribution.
    PriorityBased,
}

impl Strategy {
    /// All four, in the paper's presentation order.
    pub const ALL: [Strategy; 4] = [
        Strategy::MxOnly,
        Strategy::CertBased,
        Strategy::BannerBased,
        Strategy::PriorityBased,
    ];

    /// Display label matching the paper's figure legend.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::MxOnly => "MX-only",
            Strategy::CertBased => "cert-based",
            Strategy::BannerBased => "banner-based",
            Strategy::PriorityBased => "priority-based",
        }
    }

    fn use_certs(self) -> bool {
        matches!(self, Strategy::CertBased | Strategy::PriorityBased)
    }

    fn use_banner(self) -> bool {
        matches!(self, Strategy::BannerBased | Strategy::PriorityBased)
    }

    fn check_misid(self) -> bool {
        self == Strategy::PriorityBased
    }
}

/// The complete output of one inference run.
#[derive(Debug, Clone)]
pub struct InferenceResult {
    /// The strategy that produced this result.
    pub strategy: Strategy,
    /// Per-domain attributions, keyed by domain.
    pub domains: HashMap<Name, DomainAssignment>,
    /// Per-MX attributions, keyed by exchange name.
    pub mx_assignments: HashMap<Name, MxAssignment>,
    /// Certificate preprocessing output (empty for strategies that skip
    /// certificates).
    pub cert_groups: CertGroups,
    /// Step-4 report (empty unless the strategy checks misidentifications).
    pub misid: MisidReport,
}

impl InferenceResult {
    /// The attribution of one domain.
    pub fn domain(&self, name: &Name) -> Option<&DomainAssignment> {
        self.domains.get(name)
    }

    /// Total credited weight per provider across all domains.
    pub fn provider_weights(&self) -> HashMap<ProviderId, f64> {
        // Accumulate in dotted-name order, matching the market-share
        // path: f64 addition is order-sensitive, and hash order would
        // make the per-provider sums vary bit-for-bit run to run.
        let mut entries: Vec<(&Name, &DomainAssignment)> = self.domains.iter().collect();
        entries.sort_by_cached_key(|(name, _)| name.to_dotted());
        let mut w: HashMap<ProviderId, f64> = HashMap::new();
        for (_, a) in entries {
            for s in &a.shares {
                *w.entry(s.provider.clone()).or_insert(0.0) += s.weight;
            }
        }
        w
    }
}

/// The configurable pipeline.
#[derive(Debug, Clone)]
pub struct Pipeline {
    strategy: Strategy,
    knowledge: ProviderKnowledge,
    psl: std::sync::Arc<PublicSuffixList>,
}

impl Pipeline {
    /// A pipeline for `strategy` with no misidentification knowledge (the
    /// step-4 check then has nothing to examine).
    pub fn new(strategy: Strategy) -> Pipeline {
        Pipeline {
            strategy,
            knowledge: ProviderKnowledge::new(usize::MAX),
            psl: std::sync::Arc::new(PublicSuffixList::builtin()),
        }
    }

    /// The paper's configuration: priority-based with the published
    /// provider knowledge.
    pub fn priority_based(knowledge: ProviderKnowledge) -> Pipeline {
        Pipeline {
            strategy: Strategy::PriorityBased,
            knowledge,
            psl: std::sync::Arc::new(PublicSuffixList::builtin()),
        }
    }

    /// The strategy in effect.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// Run the pipeline over an observation set.
    pub fn run(&self, obs: &ObservationSet) -> InferenceResult {
        let _obs_run = mx_obs::stage!(mx_obs::names::STAGE_INFER).enter();

        // Step 1: certificate preprocessing (skipped unless certs used).
        let cert_groups = if self.strategy.use_certs() {
            let _s = mx_obs::stage!(
                mx_obs::names::STAGE_INFER_CERTGROUP,
                mx_obs::names::STAGE_INFER
            )
            .enter();
            certgroup::preprocess(obs, &self.psl)
        } else {
            CertGroups::default()
        };

        // Step 2: per-IP IDs, masked by strategy.
        let _s_ipid =
            mx_obs::stage!(mx_obs::names::STAGE_INFER_IPID, mx_obs::names::STAGE_INFER).enter();
        let mut ip_ids = ipid::compute_ip_ids(obs, &cert_groups, &self.psl);
        drop(_s_ipid);
        if !self.strategy.use_certs() {
            for ids in ip_ids.values_mut() {
                ids.from_cert = None;
            }
        }
        if !self.strategy.use_banner() {
            for ids in ip_ids.values_mut() {
                ids.from_banner = None;
            }
        }

        // Step 3: per-MX provider IDs. Dedup to distinct exchanges first
        // (keeping the first-seen addrs, as the serial entry API did),
        // then assign each exchange independently in parallel.
        let _s_mxid =
            mx_obs::stage!(mx_obs::names::STAGE_INFER_MXID, mx_obs::names::STAGE_INFER).enter();
        let mut distinct: Vec<&crate::input::MxTargetObs> = Vec::new();
        let mut seen: std::collections::HashSet<&Name> = std::collections::HashSet::new();
        // lint:allow(R9): obs.domains is a Vec (deterministic observation order); the name collides with InferenceResult's hash-typed field above
        for d in &obs.domains {
            for t in d.mx.targets() {
                if seen.insert(&t.exchange) {
                    distinct.push(t);
                }
            }
        }
        let mut mx_assignments: HashMap<Name, MxAssignment> =
            mx_par::par_map(&distinct, |t| {
                let (provider, source) =
                    mxid::assign_mx_id(&t.exchange, &t.addrs, &ip_ids, &self.psl);
                (
                    t.exchange.clone(),
                    MxAssignment {
                        exchange: t.exchange.clone(),
                        provider,
                        source,
                        addrs: t.addrs.clone(),
                        corrected: false,
                    },
                )
            })
            .into_iter()
            .collect();
        drop(_s_mxid);

        // Step 4: misidentification check.
        let misid = if self.strategy.check_misid() {
            let _s = mx_obs::stage!(
                mx_obs::names::STAGE_INFER_MISID,
                mx_obs::names::STAGE_INFER
            )
            .enter();
            misid::check(&mut mx_assignments, obs, &self.knowledge, &self.psl)
        } else {
            MisidReport::default()
        };

        // Step 5: domain attribution, one independent task per domain.
        let _s_domainid = mx_obs::stage!(
            mx_obs::names::STAGE_INFER_DOMAINID,
            mx_obs::names::STAGE_INFER
        )
        .enter();
        let domains = mx_par::par_map(&obs.domains, |d| {
            (
                d.domain.clone(),
                domainid::assign_domain(d, &mx_assignments, obs),
            )
        })
        .into_iter()
        .collect();

        InferenceResult {
            strategy: self.strategy,
            domains,
            mx_assignments,
            cert_groups,
            misid,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{DomainObservation, IpObservation, MxObservation, MxTargetObs, ScanStatus};
    use mx_cert::{Certificate, CertificateBuilder, KeyId};
    use mx_dns::dns_name;
    use mx_smtp::{SmtpScanData, StartTlsOutcome};
    use std::net::Ipv4Addr;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn cert(serial: u64, cn: &str) -> Certificate {
        CertificateBuilder::new(serial, KeyId(serial))
            .common_name(cn)
            .self_signed()
    }

    /// The paper's Table 1/2 micro-world:
    /// - netflix.com -> aspmx.l.google.com -> Google IP w/ mx.google.com
    /// - gsipartners.com -> mailhost.gsipartners.com -> same Google infra
    /// - beats24-7.com -> mx10.mailspamprotection.com -> security provider
    ///   hosted in Google Cloud IP space
    /// - jeniustoto.net -> ghs.google.com -> Google web IP, NO SMTP.
    fn table12_world() -> ObservationSet {
        let mut obs = ObservationSet::new();
        let gcert = cert(1, "mx.google.com");
        for a in ["172.217.222.26", "173.194.201.27"] {
            obs.ips.insert(
                ip(a),
                IpObservation {
                    ip: ip(a),
                    asn: Some(15169),
                    scan: ScanStatus::Smtp(SmtpScanData {
                        banner: "mx.google.com ESMTP gsmtp".into(),
                        ehlo: Some("mx.google.com at your service".into()),
                        ehlo_keywords: vec!["STARTTLS".into()],
                        starttls: StartTlsOutcome::Completed {
                            chain: vec![gcert.clone()],
                        },
                    }),
                    leaf_cert: Some(gcert.clone()),
                    cert_valid: true,
                },
            );
        }
        let scert = cert(2, "*.mailspamprotection.com");
        obs.ips.insert(
            ip("35.192.135.139"),
            IpObservation {
                ip: ip("35.192.135.139"),
                asn: Some(15169), // Google Cloud
                scan: ScanStatus::Smtp(SmtpScanData {
                    banner: "se26.mailspamprotection.com ESMTP".into(),
                    ehlo: Some("se26.mailspamprotection.com hello".into()),
                    ehlo_keywords: vec![],
                    starttls: StartTlsOutcome::Completed {
                        chain: vec![scert.clone()],
                    },
                }),
                leaf_cert: Some(scert),
                cert_valid: true,
            },
        );
        obs.ips.insert(
            ip("172.217.168.243"),
            IpObservation::uncovered(ip("172.217.168.243"), Some(15169)),
        );
        let mk = |domain: &str, mx: &str, addr: &str| DomainObservation {
            domain: dns_name!(domain),
            mx: MxObservation::Targets(vec![MxTargetObs {
                preference: 10,
                exchange: dns_name!(mx),
                addrs: vec![ip(addr)],
            }]),
        };
        obs.domains = vec![
            mk("netflix.com", "aspmx.l.google.com", "172.217.222.26"),
            mk("gsipartners.com", "mailhost.gsipartners.com", "173.194.201.27"),
            mk("beats24-7.com", "mx10.mailspamprotection.com", "35.192.135.139"),
            mk("jeniustoto.net", "ghs.google.com", "172.217.168.243"),
        ];
        obs
    }

    fn provider_of(result: &InferenceResult, domain: &str) -> String {
        result.domains[&dns_name!(domain)]
            .sole_provider()
            .unwrap()
            .as_str()
            .to_string()
    }

    #[test]
    fn priority_based_resolves_paper_examples() {
        let result = Pipeline::new(Strategy::PriorityBased).run(&table12_world());
        assert_eq!(provider_of(&result, "netflix.com"), "google.com");
        // The custom-MX-on-Google-infrastructure case: cert wins.
        assert_eq!(provider_of(&result, "gsipartners.com"), "google.com");
        // Security provider in Google Cloud IP space: cert wins over ASN.
        assert_eq!(
            provider_of(&result, "beats24-7.com"),
            "mailspamprotection.com"
        );
        // Google web IP without SMTP: falls back to MX record, and the
        // domain is marked as having no live SMTP.
        assert_eq!(provider_of(&result, "jeniustoto.net"), "google.com");
        assert!(!result.domains[&dns_name!("jeniustoto.net")].has_smtp);
        assert!(result.domains[&dns_name!("netflix.com")].has_smtp);
    }

    #[test]
    fn mx_only_misses_custom_mx() {
        let result = Pipeline::new(Strategy::MxOnly).run(&table12_world());
        assert_eq!(provider_of(&result, "netflix.com"), "google.com");
        // MX-only wrongly calls gsipartners.com self-hosted.
        assert_eq!(provider_of(&result, "gsipartners.com"), "gsipartners.com");
        assert_eq!(
            provider_of(&result, "beats24-7.com"),
            "mailspamprotection.com"
        );
    }

    #[test]
    fn banner_based_matches_priority_here() {
        let result = Pipeline::new(Strategy::BannerBased).run(&table12_world());
        assert_eq!(provider_of(&result, "gsipartners.com"), "google.com");
        // No certificate processing happened.
        assert_eq!(result.cert_groups.cert_count(), 0);
    }

    #[test]
    fn cert_based_uses_certs_not_banners() {
        let mut obs = table12_world();
        // Strip the cert from gsipartners' IP: cert-based then falls back
        // to the MX record even though the banner says Google.
        let o = obs.ips.get_mut(&ip("173.194.201.27")).unwrap();
        o.cert_valid = false;
        o.leaf_cert = None;
        let result = Pipeline::new(Strategy::CertBased).run(&obs);
        assert_eq!(provider_of(&result, "gsipartners.com"), "gsipartners.com");
        let prio = Pipeline::new(Strategy::PriorityBased).run(&obs);
        assert_eq!(provider_of(&prio, "gsipartners.com"), "google.com");
    }

    #[test]
    fn mx_ids_shared_across_domains() {
        let mut obs = table12_world();
        obs.domains.push(DomainObservation {
            domain: dns_name!("another.com"),
            mx: MxObservation::Targets(vec![MxTargetObs {
                preference: 1,
                exchange: dns_name!("aspmx.l.google.com"),
                addrs: vec![ip("172.217.222.26")],
            }]),
        });
        let result = Pipeline::new(Strategy::PriorityBased).run(&obs);
        assert_eq!(result.mx_assignments.len(), 4, "one per distinct exchange");
        assert_eq!(provider_of(&result, "another.com"), "google.com");
    }

    #[test]
    fn provider_weights_sum() {
        let result = Pipeline::new(Strategy::PriorityBased).run(&table12_world());
        let w = result.provider_weights();
        let total: f64 = w.values().sum();
        assert!((total - 4.0).abs() < 1e-9, "4 domains fully attributed");
        assert!((w[&ProviderId::new("google.com")] - 3.0).abs() < 1e-9);
    }
}
