//! World materialisation: turn (population, timeline, snapshot) into a
//! live simulated Internet plus ground truth.
//!
//! Everything the measurement pipeline will observe is constructed here:
//! provider server farms with certificates and banners in the right ASes,
//! per-customer DNS zones in every MX idiom of §3.1/§3.2, the long tail of
//! small providers, self-hosted servers of varying hygiene, VPS servers
//! carrying hosting-company certificates, forged-banner servers, silent
//! web IPs, dangling MX names, and the fault plan that reproduces the
//! Censys coverage gaps of Table 4.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use mx_cert::{h64, CertificateAuthority, KeyId, TrustStore};
use mx_dns::{Name, RData, SimClock, Timestamp, Zone};
use mx_infer::ProviderId;
use mx_net::{FaultPlan, FlakinessProfile, SimNet, SimNetBuilder};
use mx_smtp::SmtpServerConfig;

use crate::catalog::{ServiceKind, CATALOG};
use crate::domains::{Dataset, Population};
use crate::evolution::{self, Assignment, CertQuality, MxStyle, ProviderChoice, Timeline};
use crate::scenario::{ScenarioConfig, GOV_START_SNAPSHOT, SNAPSHOT_DATES};

/// Ground-truth category of a domain at a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TruthCategory {
    /// Hosted by a catalog company.
    Company,
    /// Hosted by a long-tail small provider.
    SmallProvider,
    /// Runs its own mail server.
    SelfHosted,
    /// Runs its own server on a rented VPS with hosting-company names.
    VpsSelfHosted,
    /// Runs its own server forging a big provider's banner.
    FakeClaim,
    /// MX points at infrastructure without SMTP.
    NoMail,
    /// MX name does not resolve.
    Dangling,
}

/// What is actually true about one domain (what the paper had to label by
/// hand for Figure 4).
#[derive(Debug, Clone, PartialEq)]
pub struct TruthRecord {
    /// The domain this record describes.
    pub domain: Name,
    /// The catalog company providing mail, when one does.
    pub company: Option<String>,
    /// The provider ID a perfect inference would output; `None` when the
    /// domain has no real mail service.
    pub expected_provider_id: Option<ProviderId>,
    /// Does the domain operate its own mail server?
    pub self_hosted: bool,
    /// Does a live SMTP server actually answer for this domain?
    pub has_smtp: bool,
    /// The generation category behind the assignment.
    pub category: TruthCategory,
    /// For domains fronted by a filtering service: the company running the
    /// *eventual* mail platform behind the filter (the paper's §3.4 future
    /// work; discoverable through SPF records). Equals `company` for
    /// directly-hosted domains, `None` when self-hosted behind the filter.
    pub eventual_company: Option<String>,
}

/// Ground truth for all domains of a snapshot.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    /// Per-domain truth records.
    pub records: HashMap<Name, TruthRecord>,
}

impl GroundTruth {
    /// The record of one domain, if present.
    pub fn of(&self, domain: &Name) -> Option<&TruthRecord> {
        self.records.get(domain)
    }

    /// Number of domains covered.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records exist.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// A materialised snapshot: the network, trust store, truth, and the
/// domain lists per dataset.
pub struct World {
    /// The live simulated Internet.
    pub net: SimNet,
    /// The browser trust store certificates validate against.
    pub trust: TrustStore,
    /// What is actually true (never shown to the inference code).
    pub truth: GroundTruth,
    /// The snapshot date.
    pub date: Timestamp,
    /// The snapshot index (0 = June 2017).
    pub snapshot: usize,
    /// Datasets present in this snapshot with their domain names.
    pub targets: Vec<(Dataset, Vec<Name>)>,
}

/// A full simulated study: populations + timelines, materialisable at any
/// snapshot.
pub struct Study {
    /// The configuration the study was generated from.
    pub config: ScenarioConfig,
    /// Populations: `[alexa, com, gov]`.
    pub populations: Vec<Population>,
    /// Timelines, parallel to `populations`.
    pub timelines: Vec<Timeline>,
}

impl Study {
    /// Generate populations and timelines for a configuration.
    ///
    /// The three dataset populations are independent of each other, as are
    /// their timelines, so both stages fan out over the shared `mx_par`
    /// pool. Each job is keyed by dataset index and seeded separately, so
    /// the study is bit-identical to a serial build at any thread count.
    pub fn generate(config: ScenarioConfig) -> Study {
        let pop_jobs = [0usize, 1, 2];
        let populations = mx_par::par_map(&pop_jobs, |&i| match i {
            0 => crate::domains::alexa(config.alexa_size, config.seed),
            1 => crate::domains::com(config.com_size, config.seed),
            _ => crate::domains::gov(config.gov_size, config.seed),
        });
        let full_ts: Vec<f64> = (0..SNAPSHOT_DATES.len())
            .map(ScenarioConfig::study_t)
            .collect();
        let gov_ts: Vec<f64> = (GOV_START_SNAPSHOT..SNAPSHOT_DATES.len())
            .map(ScenarioConfig::study_t)
            .collect();
        let tl_jobs: Vec<(usize, &[f64], u64)> = vec![
            (0, &full_ts, config.seed ^ 0x1),
            (1, &full_ts, config.seed ^ 0x2),
            (2, &gov_ts, config.seed ^ 0x3),
        ];
        let timelines = mx_par::par_map(&tl_jobs, |&(i, ts, seed)| {
            evolution::build_timeline(&populations[i].domains, ts, seed)
        });
        Study {
            config,
            populations,
            timelines,
        }
    }

    /// Datasets active at snapshot `k` with their timeline snapshot index.
    pub fn active(&self, k: usize) -> Vec<(usize, usize)> {
        let mut v = vec![(0, k), (1, k)];
        if k >= GOV_START_SNAPSHOT {
            v.push((2, k - GOV_START_SNAPSHOT));
        }
        v
    }

    /// Materialise snapshot `k`.
    pub fn world_at(&self, k: usize) -> World {
        let (y, m, d) = SNAPSHOT_DATES[k];
        let date = Timestamp::from_ymd(y, m, d);
        let mut gen = WorldGen::new(self.config.seed, date, k);
        for (pop_idx, tl_idx) in self.active(k) {
            gen.add_population(&self.populations[pop_idx], &self.timelines[pop_idx], tl_idx);
        }
        gen.finish()
    }

    /// Materialise several snapshots, fanning the (expensive, independent)
    /// per-snapshot world builds out over the shared `mx_par` pool. The
    /// returned worlds are in the same order as `snapshots` and each is
    /// identical to a direct [`Study::world_at`] call.
    pub fn worlds_at(&self, snapshots: &[usize]) -> Vec<World> {
        mx_par::par_map(snapshots, |&k| self.world_at(k))
    }
}

/// Internal world builder.
struct WorldGen {
    seed: u64,
    date: Timestamp,
    snapshot: usize,
    builder: SimNetBuilder,
    ca: CertificateAuthority,
    trust: TrustStore,
    truth: GroundTruth,
    targets: Vec<(Dataset, Vec<Name>)>,
    /// Per-company branded server IPs, one pool per provider ID:
    /// `company_servers[company][pid_idx]`.
    company_servers: Vec<Vec<Vec<Ipv4Addr>>>,
    /// Per-company shared-pool server IPs (web hosts only).
    shared_servers: Vec<Vec<Ipv4Addr>>,
    /// Silent (no SMTP) web IPs: (generic pool, google pool).
    silent_generic: Vec<Ipv4Addr>,
    silent_google: Vec<Ipv4Addr>,
    /// Small provider infra: (domain, server ips).
    small_infra: Vec<(String, Vec<Ipv4Addr>)>,
    /// Key id counter.
    next_key: u64,
    /// Used self-space addresses.
    self_used: std::collections::HashSet<u32>,
    blocked: Vec<Ipv4Addr>,
}

const SELF_SPACE: u32 = 0x6440_0000; // 100.64.0.0/10
const GENERIC_WEB_ASN: u32 = 399_999;

impl WorldGen {
    fn new(seed: u64, date: Timestamp, snapshot: usize) -> WorldGen {
        let clock = SimClock::starting_at(date);
        let builder = SimNet::builder(clock);
        let ca = CertificateAuthority::new_root(
            "Sim Root CA",
            KeyId(0xCA),
            (Timestamp::from_ymd(2010, 1, 1), Timestamp::from_ymd(2040, 1, 1)),
        );
        let mut trust = TrustStore::new();
        trust.add_root(&ca);
        let mut gen = WorldGen {
            seed,
            date,
            snapshot,
            builder,
            ca,
            trust,
            truth: GroundTruth::default(),
            targets: Vec::new(),
            company_servers: Vec::new(),
            shared_servers: Vec::new(),
            silent_generic: Vec::new(),
            silent_google: Vec::new(),
            small_infra: Vec::new(),
            next_key: 1,
            self_used: Default::default(),
            blocked: Vec::new(),
        };
        gen.build_companies();
        gen.build_silent_pools();
        gen
    }

    fn key(&mut self) -> KeyId {
        self.next_key += 1;
        KeyId(self.next_key)
    }

    fn validity(&self) -> (Timestamp, Timestamp) {
        // Certificates rotate yearly; always valid at the snapshot date.
        let (y, _, _) = self.date.to_ymd();
        (Timestamp::from_ymd(y - 1, 1, 1), Timestamp::from_ymd(y + 2, 1, 1))
    }

    /// Build every catalog company's infrastructure.
    fn build_companies(&mut self) {
        let validity = self.validity();
        for (i, c) in CATALOG.iter().enumerate() {
            let base = (10u32 << 24) | (((i + 1) as u32) << 16);
            let prefix: mx_asn::Ipv4Prefix =
                format!("{}/16", Ipv4Addr::from(base)).parse().expect("valid");
            self.builder.announce(prefix, c.asn);
            self.builder.register_as(mx_asn::AsInfo {
                asn: c.asn,
                name: c.name.to_uppercase(),
                org: c.name.to_string(),
                country: c.country.to_string(),
            });

            // Branded pools: one per provider ID (Table 5 — a company's
            // services run distinct infrastructure with distinct
            // certificates, e.g. Microsoft's outlook.com vs office365.us).
            let infra = c.infra_domain();
            let n_pids = c.provider_ids.len();
            let per_pid = ((c.servers as usize) / n_pids).max(2);
            let mut pools: Vec<Vec<Ipv4Addr>> = Vec::with_capacity(n_pids);
            for (pi, pid) in c.provider_ids.iter().enumerate() {
                let cn = format!("mx.{pid}");
                let sans = [cn.clone(), format!("*.{pid}")];
                let san_refs: Vec<&str> = sans.iter().map(String::as_str).collect();
                let key = self.key();
                let leaf = self.ca.issue_server(key, Some(&cn), &san_refs, validity);
                let chain = vec![leaf];
                let mut pool = Vec::with_capacity(per_pid);
                for s in 0..per_pid {
                    let ip = Ipv4Addr::from(base | ((pi as u32) << 8) | (s as u32 + 1));
                    let mut cfg = if c.tls {
                        SmtpServerConfig::with_tls(cn.clone(), chain.clone())
                    } else {
                        SmtpServerConfig::plain(cn.clone())
                    };
                    cfg.banner_tag = format!("ESMTP {}", infra);
                    self.builder.smtp_host(ip, cfg);
                    pool.push(ip);
                }
                pools.push(pool);
            }
            self.company_servers.push(pools);

            // Shared pool (web hosts): default-MX targets; weaker TLS.
            let mut shared = Vec::new();
            if c.kind == ServiceKind::WebHosting {
                for s in 0..c.servers {
                    let ip = Ipv4Addr::from(base | (8 << 8) | (s as u32 + 1));
                    let host = format!("shared{}.{}", s + 1, infra);
                    let cfg = if s % 5 < 2 {
                        // 40% of shared servers present a valid certificate.
                        let key = self.key();
                        let leaf =
                            self.ca
                                .issue_server(key, Some(&host), &[&host], validity);
                        SmtpServerConfig::with_tls(host.clone(), vec![leaf])
                    } else {
                        SmtpServerConfig::plain(host.clone())
                    };
                    self.builder.smtp_host(ip, cfg);
                    shared.push(ip);
                }
            }
            self.shared_servers.push(shared);

            // Provider DNS zones: A records for branded hosts + wildcard,
            // each provider-ID zone backed by its own pool.
            for (pidx, pid) in c.provider_ids.iter().enumerate() {
                let pool = &self.company_servers[i][pidx];
                let origin = Name::parse(pid).expect("catalog domains are valid");
                let mut zone = Zone::new(origin.clone());
                for (pi, prefix_label) in c.mx_host_prefixes.iter().enumerate() {
                    let host = Name::parse(&format!("{prefix_label}.{pid}")).expect("valid");
                    for (si, ip) in pool.iter().enumerate() {
                        if si % c.mx_host_prefixes.len() == pi % c.mx_host_prefixes.len() {
                            zone.add_rr(host.clone(), 300, RData::A(*ip));
                        }
                    }
                    // Per-customer MX names resolve through a wildcard.
                    let wild = Name::parse(&format!("*.{prefix_label}.{pid}")).expect("valid");
                    zone.add_rr(wild, 300, RData::A(pool[pi % pool.len()]));
                }
                zone.add_rr(origin.child("mx").expect("valid"), 300, RData::A(pool[0]));
                self.builder.zone(zone);
            }

            // EIG is the provider Censys cannot scan reliably (§5.2.1):
            // block its IPs on odd snapshots.
            if c.name == "EIG" && self.snapshot % 2 == 1 {
                self.blocked
                    .extend(self.company_servers[i].iter().flatten());
                self.blocked.extend(self.shared_servers[i].iter());
            }
        }
    }

    /// Silent (no-SMTP) web-hosting IPs, generic and Google-owned.
    fn build_silent_pools(&mut self) {
        let base = (10u32 << 24) | (250u32 << 16);
        let prefix: mx_asn::Ipv4Prefix =
            format!("{}/24", Ipv4Addr::from(base)).parse().expect("valid");
        self.builder.announce(prefix, GENERIC_WEB_ASN);
        self.builder.register_as(mx_asn::AsInfo {
            asn: GENERIC_WEB_ASN,
            name: "GENERIC-WEB".into(),
            org: "Generic Web Hosting".into(),
            country: "US".into(),
        });
        for s in 0..16u32 {
            let ip = Ipv4Addr::from(base | (s + 1));
            self.builder.silent_host(ip);
            self.silent_generic.push(ip);
        }
        // Google web-hosting IPs (the ghs.google.com case): inside the
        // Google /16, beyond the SMTP servers.
        let google_idx = CATALOG
            .iter()
            .position(|c| c.name == "Google")
            .expect("catalog has Google");
        let gbase = (10u32 << 24) | (((google_idx + 1) as u32) << 16) | (10 << 8);
        let mut ghs_zone_ips = Vec::new();
        for s in 0..4u32 {
            let ip = Ipv4Addr::from(gbase | (s + 1));
            self.builder.silent_host(ip);
            self.silent_google.push(ip);
            ghs_zone_ips.push(ip);
        }
        // ghs.google.com lives in the google.com zone built earlier.
        let origin = Name::parse("google.com").expect("valid");
        if let Some(zone) = self.builder.zone_mut(&origin) {
            for ip in ghs_zone_ips {
                zone.add_rr(origin.child("ghs").expect("valid"), 300, RData::A(ip));
            }
        }
    }

    /// Ensure small provider `j` exists; return its index.
    fn small_provider(&mut self, j: u16) -> usize {
        let validity = self.validity();
        while self.small_infra.len() <= j as usize {
            let idx = self.small_infra.len();
            let label = small_label(self.seed, idx);
            let domain = format!("{label}.net");
            let base = (10u32 << 24) | ((100 + (idx as u32 / 200)) << 16) | ((idx as u32 % 200) << 8);
            let prefix: mx_asn::Ipv4Prefix =
                format!("{}/24", Ipv4Addr::from(base)).parse().expect("valid");
            let asn = 50_000 + idx as u32;
            self.builder.announce(prefix, asn);
            let quality = match h64(self.seed, &["smallcert", &domain]) % 100 {
                0..=54 => CertQuality::ValidCa,
                55..=79 => CertQuality::SelfSigned,
                _ => CertQuality::None,
            };
            let banner_junk = h64(self.seed, &["smallbanner", &domain]) % 100 < 8;
            let mut ips = Vec::new();
            let host = format!("mx1.{domain}");
            for s in 0..2u32 {
                let ip = Ipv4Addr::from(base | (s + 1));
                let banner_host = if banner_junk {
                    format!("IP-{}", Ipv4Addr::from(base | (s + 1)).to_string().replace('.', "-"))
                } else {
                    host.clone()
                };
                let mut cfg = match quality {
                    CertQuality::ValidCa => {
                        let key = self.key();
                        let leaf = self.ca.issue_server(
                            key,
                            Some(&host),
                            &[&host, &format!("mx2.{domain}")],
                            validity,
                        );
                        SmtpServerConfig::with_tls(banner_host.clone(), vec![leaf])
                    }
                    CertQuality::SelfSigned => {
                        let key = self.key();
                        let leaf = mx_cert::CertificateBuilder::new(h64(self.seed, &[&domain]), key)
                            .common_name(&host)
                            .validity(validity.0, validity.1)
                            .self_signed();
                        SmtpServerConfig::with_tls(banner_host.clone(), vec![leaf])
                    }
                    CertQuality::None => SmtpServerConfig::plain(banner_host.clone()),
                };
                cfg.ehlo_host = banner_host;
                self.builder.smtp_host(ip, cfg);
                ips.push(ip);
            }
            let origin = Name::parse(&domain).expect("valid");
            let mut zone = Zone::new(origin.clone());
            for (s, ip) in ips.iter().enumerate() {
                zone.add_rr(
                    origin.child(&format!("mx{}", s + 1)).expect("valid"),
                    300,
                    RData::A(*ip),
                );
            }
            self.builder.zone(zone);
            self.small_infra.push((domain, ips));
        }
        j as usize
    }

    /// Allocate a unique self-space IP for a domain.
    fn self_ip(&mut self, domain: &str, salt: &str) -> Ipv4Addr {
        let mut h = (h64(self.seed, &["selfip", domain, salt]) % (1 << 22)) as u32;
        while !self.self_used.insert(SELF_SPACE | h) {
            h = (h + 1) % (1 << 22);
        }
        Ipv4Addr::from(SELF_SPACE | h)
    }

    /// Attach a population at one timeline snapshot.
    fn add_population(&mut self, pop: &Population, tl: &Timeline, tl_idx: usize) {
        let names: Vec<Name> = pop.domains.iter().map(|d| d.name.clone()).collect();
        for (i, rec) in pop.domains.iter().enumerate() {
            let a = *tl.at(tl_idx, i);
            self.add_domain(&rec.name, a);
        }
        self.targets.push((pop.dataset, names));
    }

    /// Build one domain's zone, any dedicated server, and its truth record.
    fn add_domain(&mut self, domain: &Name, a: Assignment) {
        let name = domain.to_dotted();
        let origin = domain.clone();
        let mut zone = Zone::new(origin.clone());
        let validity = self.validity();
        let truth = match a.choice {
            ProviderChoice::Company(i) => {
                let c = &CATALOG[i];
                let pid_idx = (h64(self.seed, &["pid", &name, c.name]) as usize) % c.provider_ids.len();
                let pid = c.provider_ids[pid_idx];
                let servers = &self.company_servers[i][pid_idx];
                match a.style {
                    MxStyle::Named => {
                        let per_customer = matches!(
                            c.kind,
                            ServiceKind::EmailSecurity
                        ) || c.name == "Microsoft";
                        let n_prefix = c.mx_host_prefixes.len();
                        let p0 = (h64(self.seed, &["mxp", &name]) as usize) % n_prefix;
                        for (rank, pi) in [(10u16, p0), (20, (p0 + 1) % n_prefix)]
                            .into_iter()
                            .take(if n_prefix > 1 { 2 } else { 1 })
                        {
                            let prefix_label = c.mx_host_prefixes[pi];
                            let host = if per_customer {
                                let label = name.replace('.', "-");
                                format!("{label}.{prefix_label}.{pid}")
                            } else {
                                format!("{prefix_label}.{pid}")
                            };
                            zone.add_rr(
                                origin.clone(),
                                3600,
                                RData::Mx {
                                    preference: rank,
                                    exchange: Name::parse(&host).expect("valid"),
                                },
                            );
                        }
                    }
                    MxStyle::CustomHost => {
                        // mailhost.customer.tld -> provider IPs.
                        let host = origin.child("mailhost").expect("valid");
                        zone.add_rr(
                            origin.clone(),
                            3600,
                            RData::Mx {
                                preference: 10,
                                exchange: host.clone(),
                            },
                        );
                        let s0 = (h64(self.seed, &["customip", &name]) as usize) % servers.len();
                        zone.add_rr(host.clone(), 300, RData::A(servers[s0]));
                        zone.add_rr(host, 300, RData::A(servers[(s0 + 1) % servers.len()]));
                    }
                    MxStyle::WebDefault => {
                        let pool = if self.shared_servers[i].is_empty() {
                            &self.company_servers[i][pid_idx]
                        } else {
                            &self.shared_servers[i]
                        };
                        let host = origin.child("mx").expect("valid");
                        zone.add_rr(
                            origin.clone(),
                            3600,
                            RData::Mx {
                                preference: 0,
                                exchange: host.clone(),
                            },
                        );
                        let s0 = (h64(self.seed, &["sharedip", &name]) as usize) % pool.len();
                        zone.add_rr(host, 300, RData::A(pool[s0]));
                    }
                }
                // SPF policy (RFC 7208): the authorised senders reveal the
                // eventual mail platform (§3.4 future work). Customers of
                // filtering services authorise their real backend.
                let (spf, eventual) = if c.kind == ServiceKind::EmailSecurity {
                    let h = h64(self.seed, &["backend", &name]);
                    let backend = match h % 100 {
                        0..=54 => Some("outlook.com"),
                        55..=84 => Some("_spf.google.com"),
                        _ => None, // own servers behind the filter
                    };
                    match backend {
                        Some(b) => {
                            let backend_company = if b.contains("google") {
                                "Google"
                            } else {
                                "Microsoft"
                            };
                            (
                                format!("v=spf1 include:spf.{pid} include:{b} -all"),
                                Some(backend_company.to_string()),
                            )
                        }
                        None => (format!("v=spf1 include:spf.{pid} mx -all"), None),
                    }
                } else {
                    (
                        format!("v=spf1 include:_spf.{pid} ~all"),
                        Some(c.name.to_string()),
                    )
                };
                zone.add_rr(origin.clone(), 3600, RData::Txt(vec![spf]));
                TruthRecord {
                    domain: origin.clone(),
                    company: Some(c.name.to_string()),
                    expected_provider_id: Some(ProviderId::new(pid)),
                    self_hosted: false,
                    has_smtp: true,
                    category: TruthCategory::Company,
                    eventual_company: eventual,
                }
            }
            ProviderChoice::Small(j) => {
                let idx = self.small_provider(j);
                let (pdomain, ips) = self.small_infra[idx].clone();
                match a.style {
                    MxStyle::CustomHost => {
                        let host = origin.child("mailhost").expect("valid");
                        zone.add_rr(
                            origin.clone(),
                            3600,
                            RData::Mx {
                                preference: 10,
                                exchange: host.clone(),
                            },
                        );
                        for ip in &ips {
                            zone.add_rr(host.clone(), 300, RData::A(*ip));
                        }
                    }
                    _ => {
                        for (s, _) in ips.iter().enumerate() {
                            zone.add_rr(
                                origin.clone(),
                                3600,
                                RData::Mx {
                                    preference: 10 * (s as u16 + 1),
                                    exchange: Name::parse(&format!("mx{}.{}", s + 1, pdomain))
                                        .expect("valid"),
                                },
                            );
                        }
                    }
                }
                zone.add_rr(
                    origin.clone(),
                    3600,
                    RData::Txt(vec![format!("v=spf1 include:_spf.{pdomain} -all")]),
                );
                TruthRecord {
                    domain: origin.clone(),
                    company: None,
                    expected_provider_id: Some(ProviderId::new(pdomain)),
                    self_hosted: false,
                    has_smtp: true,
                    category: TruthCategory::SmallProvider,
                    eventual_company: None,
                }
            }
            ProviderChoice::SelfHosted => {
                let ip = self.self_ip(&name, "self");
                let asn = 64_512 + (h64(self.seed, &["selfasn", &name]) % 50_000) as u32;
                self.builder
                    .announce(format!("{ip}/32").parse().expect("valid"), asn);
                let host = format!("mx.{name}");
                let banner_host = if a.banner_junk {
                    if h64(self.seed, &["junkkind", &name]).is_multiple_of(2) {
                        "localhost".to_string()
                    } else {
                        format!("IP-{}", ip.to_string().replace('.', "-"))
                    }
                } else {
                    host.clone()
                };
                let mut cfg = match a.cert {
                    CertQuality::ValidCa => {
                        let key = self.key();
                        let leaf = self.ca.issue_server(key, Some(&host), &[&host], validity);
                        SmtpServerConfig::with_tls(banner_host.clone(), vec![leaf])
                    }
                    CertQuality::SelfSigned => {
                        let key = self.key();
                        let leaf = mx_cert::CertificateBuilder::new(h64(self.seed, &[&name]), key)
                            .common_name(&host)
                            .validity(validity.0, validity.1)
                            .self_signed();
                        SmtpServerConfig::with_tls(banner_host.clone(), vec![leaf])
                    }
                    CertQuality::None => SmtpServerConfig::plain(banner_host.clone()),
                };
                cfg.ehlo_host = banner_host;
                self.builder.smtp_host(ip, cfg);
                let mx_host = origin.child("mx").expect("valid");
                zone.add_rr(
                    origin.clone(),
                    3600,
                    RData::Mx {
                        preference: 10,
                        exchange: mx_host.clone(),
                    },
                );
                zone.add_rr(mx_host, 300, RData::A(ip));
                zone.add_rr(
                    origin.clone(),
                    3600,
                    RData::Txt(vec!["v=spf1 mx -all".to_string()]),
                );
                TruthRecord {
                    domain: origin.clone(),
                    company: None,
                    expected_provider_id: self_expected_id(&origin),
                    self_hosted: true,
                    has_smtp: true,
                    category: TruthCategory::SelfHosted,
                    eventual_company: None,
                }
            }
            ProviderChoice::VpsSelfHosted(host_idx) => {
                let c = &CATALOG[host_idx];
                let infra = c.infra_domain();
                // VPS IP inside the hosting company's /16 (x.x.2.x block).
                let base = (10u32 << 24) | (((host_idx + 1) as u32) << 16) | (9 << 8);
                let off = (h64(self.seed, &["vpsip", &name]) % 250) as u32 + 1;
                let ip = Ipv4Addr::from(base | off);
                let h = h64(self.seed, &["vpshost", &name]);
                let vps_host = format!(
                    "s{}-{}-{}.{}",
                    h % 100,
                    (h >> 8) % 100,
                    (h >> 16) % 100,
                    infra
                );
                let key = self.key();
                let leaf = self
                    .ca
                    .issue_server(key, Some(&vps_host), &[&vps_host], validity);
                let mut cfg = SmtpServerConfig::with_tls(vps_host.clone(), vec![leaf]);
                cfg.ehlo_host = vps_host;
                self.builder.smtp_host(ip, cfg);
                let mx_host = origin.child("mx").expect("valid");
                zone.add_rr(
                    origin.clone(),
                    3600,
                    RData::Mx {
                        preference: 10,
                        exchange: mx_host.clone(),
                    },
                );
                zone.add_rr(mx_host, 300, RData::A(ip));
                TruthRecord {
                    domain: origin.clone(),
                    company: None,
                    expected_provider_id: self_expected_id(&origin),
                    self_hosted: true,
                    has_smtp: true,
                    category: TruthCategory::VpsSelfHosted,
                    eventual_company: None,
                }
            }
            ProviderChoice::FakeClaim(claimed_idx) => {
                let claimed = &CATALOG[claimed_idx];
                let ip = self.self_ip(&name, "fake");
                let asn = 64_512 + (h64(self.seed, &["fakeasn", &name]) % 50_000) as u32;
                self.builder
                    .announce(format!("{ip}/32").parse().expect("valid"), asn);
                let fake_host = claimed.cert_cn(); // "mx.google.com"
                let mut cfg = SmtpServerConfig::plain(fake_host.clone());
                cfg.ehlo_host = fake_host;
                self.builder.smtp_host(ip, cfg);
                let mx_host = origin.child("mx").expect("valid");
                zone.add_rr(
                    origin.clone(),
                    3600,
                    RData::Mx {
                        preference: 10,
                        exchange: mx_host.clone(),
                    },
                );
                zone.add_rr(mx_host, 300, RData::A(ip));
                TruthRecord {
                    domain: origin.clone(),
                    company: None,
                    expected_provider_id: self_expected_id(&origin),
                    self_hosted: true,
                    has_smtp: true,
                    category: TruthCategory::FakeClaim,
                    eventual_company: None,
                }
            }
            ProviderChoice::NoMail => {
                let use_google = h64(self.seed, &["nomail", &name]) % 100 < 30;
                if use_google {
                    zone.add_rr(
                        origin.clone(),
                        3600,
                        RData::Mx {
                            preference: 10,
                            exchange: Name::parse("ghs.google.com").expect("valid"),
                        },
                    );
                } else {
                    let pool = &self.silent_generic;
                    let ip = pool[(h64(self.seed, &["nomailip", &name]) as usize) % pool.len()];
                    let host = origin.child("mx").expect("valid");
                    zone.add_rr(
                        origin.clone(),
                        3600,
                        RData::Mx {
                            preference: 10,
                            exchange: host.clone(),
                        },
                    );
                    zone.add_rr(host, 300, RData::A(ip));
                }
                TruthRecord {
                    domain: origin.clone(),
                    company: None,
                    expected_provider_id: None,
                    self_hosted: false,
                    has_smtp: false,
                    category: TruthCategory::NoMail,
                    eventual_company: None,
                }
            }
            ProviderChoice::Dangling => {
                zone.add_rr(
                    origin.clone(),
                    3600,
                    RData::Mx {
                        preference: 10,
                        exchange: origin.child("gone").expect("valid"),
                    },
                );
                TruthRecord {
                    domain: origin.clone(),
                    company: None,
                    expected_provider_id: None,
                    self_hosted: false,
                    has_smtp: false,
                    category: TruthCategory::Dangling,
                    eventual_company: None,
                }
            }
        };
        self.builder.zone(zone);
        self.truth.records.insert(domain.clone(), truth);
    }

    fn finish(mut self) -> World {
        // Fault plan, calibrated to Table 4's coverage buckets. Censys
        // reliably covers the big providers' server farms, so blocking
        // (owner opt-out / persistent blind spots) and unreachability
        // (hosts down at scan time) concentrate on the long tail:
        //
        // * small providers opt out / go dark as a whole pool;
        // * single-IP self-hosted, VPS and forged servers individually;
        // * web-host shared pools lightly;
        // * EIG wholesale on odd snapshots (already collected);
        // * plus a 1% transient per-(ip, round) failure everywhere.
        let mut faults = FaultPlan {
            scan_failure_rate: 0.01,
            seed: self.seed,
            ..FaultPlan::none()
        };
        faults.blocked_ips.extend(self.blocked.iter().copied());
        for (domain, ips) in &self.small_infra {
            match h64(self.seed, &["smallfault", domain]) % 100 {
                0..=4 => faults.blocked_ips.extend(ips.iter().copied()),
                5..=8 => faults.unreachable_ips.extend(ips.iter().copied()),
                _ => {}
            }
        }
        for pool in &self.shared_servers {
            for ip in pool {
                if h64(self.seed, &["sharedfault", &ip.to_string()]) % 100 < 2 {
                    faults.blocked_ips.insert(*ip);
                }
            }
        }
        for ip in self.builder.smtp_ips() {
            // Tail hosts live in 100.64.0.0/10 (self, forged) or the
            // per-company VPS blocks (x.x.9.x).
            let raw = u32::from(ip);
            let is_self_space = raw & 0xFFC0_0000 == SELF_SPACE;
            let is_vps = raw >> 24 == 10 && (raw >> 8) & 0xFF == 9;
            if !(is_self_space || is_vps) {
                continue;
            }
            match h64(self.seed, &["tailfault", &ip.to_string()]) % 100 {
                0..=11 => {
                    faults.blocked_ips.insert(ip);
                }
                12..=18 => {
                    faults.unreachable_ips.insert(ip);
                }
                // A slice of the tail is up but flaky enough that even the
                // retry budget regularly runs out — the "attempted and
                // exhausted" degradation bucket.
                19..=22 => {
                    faults
                        .ip_profiles
                        .insert(ip, FlakinessProfile::AlwaysFlaky { rate: 0.85 });
                }
                // And a thinner slice decays over the study: fine early,
                // increasingly lossy in later snapshots.
                23..=24 => {
                    faults.ip_profiles.insert(
                        ip,
                        FlakinessProfile::Degrading {
                            base: 0.05,
                            per_epoch: 0.08,
                        },
                    );
                }
                _ => {}
            }
        }
        self.builder.faults(faults);
        let net = self.builder.build();
        World {
            net,
            trust: self.trust,
            truth: self.truth,
            date: self.date,
            snapshot: self.snapshot,
            targets: self.targets,
        }
    }
}

/// The provider ID a perfect labeller assigns to a self-hosted domain: its
/// own registered domain.
fn self_expected_id(domain: &Name) -> Option<ProviderId> {
    let psl = mx_psl::PublicSuffixList::builtin();
    psl.registered_domain(&domain.to_dotted()).map(ProviderId::new)
}

/// Deterministic pronounceable label for small provider `idx`.
fn small_label(seed: u64, idx: usize) -> String {
    const CONSONANTS: &[u8] = b"bcdfghjklmnprstvz";
    const VOWELS: &[u8] = b"aeiou";
    let mut h = h64(seed, &["smallname", &idx.to_string()]);
    let mut s = String::from("mail");
    for _ in 0..2 {
        s.push(CONSONANTS[(h % CONSONANTS.len() as u64) as usize] as char);
        h /= CONSONANTS.len() as u64;
        s.push(VOWELS[(h % VOWELS.len() as u64) as usize] as char);
        h /= VOWELS.len() as u64;
    }
    s.push_str("host");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_study_builds() {
        let study = Study::generate(ScenarioConfig::small(42));
        let world = study.world_at(0);
        assert_eq!(world.date.to_string(), "2017-06-08");
        assert_eq!(world.targets.len(), 2, "no .gov before 2018-06");
        let world8 = study.world_at(8);
        assert_eq!(world8.targets.len(), 3);
        assert_eq!(world.truth.len(), 800 + 1200);
        assert!(world.net.smtp_host_count() > 100);
    }

    #[test]
    fn truth_categories_all_present() {
        let study = Study::generate(ScenarioConfig::small(1));
        let world = study.world_at(8);
        use std::collections::HashSet;
        let cats: HashSet<_> = world.truth.records.values().map(|r| r.category).collect();
        assert!(cats.contains(&TruthCategory::Company));
        assert!(cats.contains(&TruthCategory::SelfHosted));
        assert!(cats.contains(&TruthCategory::NoMail));
        assert!(cats.contains(&TruthCategory::Dangling));
        assert!(cats.contains(&TruthCategory::SmallProvider));
    }

    #[test]
    fn deterministic_world() {
        let study = Study::generate(ScenarioConfig::small(7));
        let w1 = study.world_at(4);
        let w2 = study.world_at(4);
        assert_eq!(w1.truth.records.len(), w2.truth.records.len());
        for (k, v) in &w1.truth.records {
            assert_eq!(w2.truth.records.get(k), Some(v));
        }
        assert_eq!(w1.net.host_count(), w2.net.host_count());
    }
}
