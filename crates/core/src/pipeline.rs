//! The end-to-end inference pipeline, the four strategies of §3.3, and
//! the staged [`Engine`] both the one-shot run and incremental callers
//! go through.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::Hash;
use std::net::Ipv4Addr;
use std::sync::Arc;

use mx_dns::Name;
use mx_psl::PublicSuffixList;

use crate::certgroup::{self, CertGroups};
use crate::domainid::{self, DomainAssignment};
use crate::input::ObservationSet;
use crate::ipid::{self, IpIds, ProviderId};
use crate::misid::{self, Confidence, MisidReport, ProviderKnowledge};
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
    knowledge: Arc<ProviderKnowledge>,
    psl: Arc<PublicSuffixList>,
}

impl Pipeline {
    /// A pipeline for `strategy` with no misidentification knowledge (the
    /// step-4 check then has nothing to examine).
    pub fn new(strategy: Strategy) -> Pipeline {
        Pipeline {
            strategy,
            knowledge: Arc::new(ProviderKnowledge::new(usize::MAX)),
            psl: Arc::new(PublicSuffixList::builtin()),
        }
    }

    /// The paper's configuration: priority-based with the published
    /// provider knowledge.
    pub fn priority_based(knowledge: ProviderKnowledge) -> Pipeline {
        Pipeline {
            strategy: Strategy::PriorityBased,
            knowledge: Arc::new(knowledge),
            psl: Arc::new(PublicSuffixList::builtin()),
        }
    }

    /// The strategy in effect.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// A staged engine with this pipeline's strategy, knowledge and PSL
    /// and nothing memoised yet.
    pub fn engine(&self) -> Engine {
        Engine {
            pipeline: self.clone(),
            last_ip_ids: HashMap::new(),
            last_confidence: Confidence::default(),
            mx_post: HashMap::new(),
            mx_pre: HashMap::new(),
        }
    }

    /// Run the pipeline over an observation set: a fresh [`Engine`]
    /// applied once with every row changed.
    pub fn run(&self, obs: &ObservationSet) -> InferenceResult {
        let mut engine = self.engine();
        let every_row: Vec<usize> = (0..obs.domains.len()).collect();
        let applied = engine.apply(obs, &every_row, &BTreeSet::new());
        InferenceResult {
            strategy: self.strategy,
            domains: applied
                .assignments
                .into_iter()
                .map(|a| (a.domain.clone(), a))
                .collect(),
            mx_assignments: engine.mx_post,
            cert_groups: applied.cert_groups,
            misid: applied.misid,
        }
    }
}

/// What one [`Engine::apply`] recomputed.
#[derive(Debug)]
pub struct Applied {
    /// Attributions of the re-attributed rows, in view order.
    pub assignments: Vec<DomainAssignment>,
    /// Certificate grouping over the whole view (empty for strategies
    /// that skip certificates).
    pub cert_groups: CertGroups,
    /// Step-4 report over the exchanges this call re-decided (every
    /// exchange on a fresh engine; empty unless the strategy checks
    /// misidentifications).
    pub misid: MisidReport,
    /// Exchanges whose `mxid` assignment was recomputed.
    pub mx_reassigned: usize,
}

/// Staged inference over an observation view that changes between
/// calls.
///
/// The population-coupled stages (certificate grouping, per-IP IDs,
/// confidence counters) run over the whole view on every call; their
/// outputs are diffed against the previous call's to bound which pure
/// per-exchange (`mxid`, step-4 decision) and per-domain (`domainid`)
/// results can have changed. Only those are recomputed; the rest come
/// from the memo:
///
/// - an exchange re-runs `mxid` iff a changed row names it or one of
///   its addresses' per-IP IDs changed;
/// - its step-4 decision re-runs iff its pre-check assignment changed
///   or one of its addresses was touched (re-scanned, or entered or left
///   the view) or changed confidence score;
/// - a domain re-runs `domainid` iff its row changed or one of its
///   primary exchanges' post-check assignment changed.
///
/// Each trigger set is a conservative superset of the stage's true
/// input changes: an exchange's ID reads only its addresses and their
/// per-IP IDs, a decision reads only its own pre-check assignment and
/// the scores and observations of its addresses, and a domain reads
/// only its row, its primary exchanges and their addresses' scans. A
/// fresh engine has no memo, so its first call assigns, decides and
/// attributes everything it is given — which is what [`Pipeline::run`]
/// is.
#[derive(Debug)]
pub struct Engine {
    pipeline: Pipeline,
    /// Last call's (strategy-masked) per-IP IDs: the `mxid` diff base.
    last_ip_ids: HashMap<Ipv4Addr, IpIds>,
    /// Last call's confidence counters: the step-4 diff base.
    last_confidence: Confidence,
    /// Post-check assignment of every exchange assigned so far — what
    /// `domainid` reads. May keep exchanges no row names any more; rows
    /// never read those, and a row that names one again arrives
    /// changed, which re-assigns it.
    mx_post: HashMap<Name, MxAssignment>,
    /// Pre-check assignments that differ from `mx_post`: exactly the
    /// exchanges step 4 corrected. Every other exchange's pre-check
    /// assignment is its post-check one, so the memo holds one full map.
    mx_pre: HashMap<Name, MxAssignment>,
}

impl Engine {
    /// The memoised post-check assignment of `exchange`: lets a test
    /// compare a long-lived engine's memo with a fresh run.
    pub fn mx_assignment(&self, exchange: &Name) -> Option<&MxAssignment> {
        self.mx_post.get(exchange)
    }

    /// The memoised pre-check assignment of `exchange`.
    fn pre_check(&self, exchange: &Name) -> Option<&MxAssignment> {
        self.mx_pre
            .get(exchange)
            .or_else(|| self.mx_post.get(exchange))
    }

    /// Re-infer `view` after a change and return what was recomputed.
    ///
    /// `changed_rows` are the indices (ascending, distinct) of the rows
    /// that are new or different since the last call, or that name an
    /// address whose observation changed; `touched_ips` are the
    /// addresses whose observation changed or that entered or left the
    /// view, so every row that names a touched address is a changed
    /// row. On a fresh engine every exchange is new, so `touched_ips`
    /// has nothing to add there, and `changed_rows` must name every row.
    ///
    /// Every row that names an exchange must list the same addresses
    /// for it, as rows resolved from one world do: the engine takes them
    /// from the first changed row that names the exchange.
    pub fn apply(
        &mut self,
        view: &ObservationSet,
        changed_rows: &[usize],
        touched_ips: &BTreeSet<Ipv4Addr>,
    ) -> Applied {
        use mx_obs::names;
        debug_assert!(changed_rows.windows(2).all(|w| w[0] < w[1]));
        let _infer = mx_obs::stage!(names::STAGE_INFER).enter();
        let strategy = self.pipeline.strategy;
        let psl = &*self.pipeline.psl;

        // Step 1: certificate preprocessing (skipped unless certs used).
        let cert_groups = if strategy.use_certs() {
            let _s = mx_obs::stage!(names::STAGE_INFER_CERTGROUP, names::STAGE_INFER).enter();
            certgroup::preprocess(view, psl)
        } else {
            CertGroups::default()
        };

        // Step 2: per-IP IDs, masked by strategy.
        let s_ipid = mx_obs::stage!(names::STAGE_INFER_IPID, names::STAGE_INFER).enter();
        let mut ip_ids = ipid::compute_ip_ids(view, &cert_groups, psl);
        drop(s_ipid);
        if !strategy.use_certs() {
            for ids in ip_ids.values_mut() {
                ids.from_cert = None;
            }
        }
        if !strategy.use_banner() {
            for ids in ip_ids.values_mut() {
                ids.from_banner = None;
            }
        }

        // Step 3: per-MX provider IDs for the exchanges changed rows
        // name (first-seen addresses) and the memoised ones whose
        // addresses' IDs changed.
        let s_mxid = mx_obs::stage!(names::STAGE_INFER_MXID, names::STAGE_INFER).enter();
        let mut seen: HashSet<&Name> = HashSet::new();
        let mut reassign: Vec<(&Name, &[Ipv4Addr])> = Vec::new();
        for &i in changed_rows {
            let row = &view.domains[i];
            for t in row.mx.targets() {
                if seen.insert(&t.exchange) {
                    reassign.push((&t.exchange, &t.addrs));
                }
            }
        }
        if !self.mx_post.is_empty() {
            let moved = changed_keys(&self.last_ip_ids, &ip_ids);
            let stale: BTreeSet<&Name> = self
                .mx_post
                .iter()
                .filter(|(e, a)| !seen.contains(e) && a.addrs.iter().any(|ip| moved.contains(ip)))
                .map(|(e, _)| e)
                .collect();
            reassign.extend(stale.into_iter().map(|e| (e, &self.mx_post[e].addrs[..])));
        }
        let assigned = mx_par::par_map(&reassign, |&(e, addrs)| {
            let (provider, source) = mxid::assign_mx_id(e, addrs, &ip_ids, psl);
            MxAssignment {
                exchange: e.clone(),
                provider,
                source,
                addrs: addrs.to_vec(),
                corrected: false,
            }
        });
        let mx_reassigned = assigned.len();
        // `sub` holds the pre-check assignments whose decision re-runs.
        let mut sub: HashMap<Name, MxAssignment> = HashMap::with_capacity(assigned.len());
        for a in assigned {
            if self.pre_check(&a.exchange) != Some(&a) {
                sub.insert(a.exchange.clone(), a);
            }
        }
        drop(s_mxid);

        // Step 4: misidentification check, re-decided for `sub` plus the
        // memoised exchanges with a touched or re-scored address.
        let mut misid = MisidReport::default();
        if strategy.check_misid() {
            let _s = mx_obs::stage!(names::STAGE_INFER_MISID, names::STAGE_INFER).enter();
            let confidence = Confidence::compute(view);
            if !self.mx_post.is_empty() {
                let mut rescored = changed_keys(&self.last_confidence.num_ip, &confidence.num_ip);
                let certs = changed_keys(&self.last_confidence.num_cert, &confidence.num_cert);
                if !certs.is_empty() {
                    for (ip, o) in &view.ips {
                        if o.leaf_cert
                            .as_ref()
                            .is_some_and(|c| certs.contains(&c.fingerprint()))
                        {
                            rescored.insert(*ip);
                        }
                    }
                }
                let redecide: BTreeSet<&Name> = self
                    .mx_post
                    .iter()
                    .filter(|(e, a)| {
                        !sub.contains_key(*e)
                            && a.addrs
                                .iter()
                                .any(|ip| rescored.contains(ip) || touched_ips.contains(ip))
                    })
                    .map(|(e, _)| e)
                    .collect();
                for e in redecide {
                    if let Some(pre) = self.pre_check(e) {
                        sub.insert(e.clone(), pre.clone());
                    }
                }
            }
            misid = misid::examine(&sub, view, &self.pipeline.knowledge, psl, &confidence);
            self.mx_pre.retain(|e, _| !sub.contains_key(e));
            for c in &misid.corrections {
                if let Some(a) = sub.get_mut(&c.exchange) {
                    self.mx_pre.insert(c.exchange.clone(), a.clone());
                    misid::correct(a, c);
                }
            }
            self.last_confidence = confidence;
        }
        self.last_ip_ids = ip_ids;

        // Step 5: domain attribution for the changed rows plus, when a
        // memoised exchange's post-check assignment moved at the same,
        // untouched addresses, every row with that exchange as a primary
        // (one walk over the view). A new, re-addressed or touched
        // exchange needs no walk: only changed rows can name it.
        let s_domainid = mx_obs::stage!(names::STAGE_INFER_DOMAINID, names::STAGE_INFER).enter();
        let mut rows = changed_rows.to_vec();
        if rows.len() < view.domains.len() {
            let moved: BTreeSet<&Name> = sub
                .iter()
                .filter(|(e, a)| {
                    self.mx_post
                        .get(*e)
                        .is_some_and(|o| o.addrs == a.addrs && o != *a)
                        && !a.addrs.iter().any(|ip| touched_ips.contains(ip))
                })
                .map(|(e, _)| e)
                .collect();
            if !moved.is_empty() {
                rows = (0..view.domains.len())
                    .filter(|i| {
                        changed_rows.binary_search(i).is_ok()
                            || view.domains[*i]
                                .mx
                                .primary_targets()
                                .iter()
                                .any(|t| moved.contains(&t.exchange))
                    })
                    .collect();
            }
        }
        if self.mx_post.is_empty() {
            self.mx_post = sub;
        } else {
            self.mx_post.extend(sub);
        }
        let assignments = mx_par::par_map(&rows, |&i| {
            domainid::assign_domain(&view.domains[i], &self.mx_post, view)
        });
        drop(s_domainid);

        Applied {
            assignments,
            cert_groups,
            misid,
            mx_reassigned,
        }
    }
}

/// Keys whose entry differs between `old` and `new`, including keys
/// present in only one of them.
fn changed_keys<K: Copy + Ord + Hash, V: PartialEq>(
    old: &HashMap<K, V>,
    new: &HashMap<K, V>,
) -> BTreeSet<K> {
    let mut changed: BTreeSet<K> = new
        .iter()
        .filter(|(k, v)| old.get(k) != Some(v))
        .map(|(k, _)| *k)
        .collect();
    let gone: BTreeSet<K> = old
        .keys()
        .filter(|k| !new.contains_key(k))
        .copied()
        .collect();
    changed.extend(gone);
    changed
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
