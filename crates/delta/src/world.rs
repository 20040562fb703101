//! The delta world: a self-contained simulated mail ecosystem whose
//! every observable byte is a pure function of `(seed, state)`.
//!
//! The full study worldgen (`mx-corpus`) allocates names, IPs and
//! certificate serials with population-order-dependent counters; that
//! is fine for fixed snapshots but breaks the contract incremental
//! measurement needs: *a domain that did not change must materialise
//! to exactly the same zone, server and certificate bytes no matter
//! which other domains changed around it*. This module therefore
//! content-addresses everything — IPs come from stable slots, serial
//! numbers and key ids are hashes of `(seed, owner, generation)`, and
//! fault buckets are hashes of the IP itself — so a world restricted
//! to any subset of domains agrees byte-for-byte with the full world
//! on every query that subset can generate.

use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;

use mx_cert::{h64, Certificate, CertificateAuthority, CertificateBuilder, KeyId, TrustStore};
use mx_dns::{Name, RData, SimClock, Timestamp, Zone};
use mx_net::{FaultPlan, FlakinessProfile, SimNet};
use mx_smtp::SmtpServerConfig;

use crate::event::{AddSpec, CertTarget, DeltaError, Event};

/// Dirty seeds produced by applying one event: the reconciler closes
/// these over its reverse index to get the full dirty domain set.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ApplyEffect {
    /// Domains whose zone content changed (including adds/deletes).
    pub dirty: Vec<String>,
    /// Addresses whose cached observation is no longer valid (host
    /// renumbered, certificate rotated, server gone).
    pub invalidated_ips: Vec<Ipv4Addr>,
    /// Domains removed from the population.
    pub removed: Vec<String>,
}

/// One catalog provider in the delta ecosystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProviderSpec {
    /// The provider's service domain (doubles as its inferred id).
    pub pid: &'static str,
    /// The operating company.
    pub company: &'static str,
    /// The AS announcing the provider's server farm.
    pub asn: u32,
}

/// The static provider catalog. Indexes into this slice are the
/// `provider` fields carried by events and hosting states.
pub const PROVIDERS: &[ProviderSpec] = &[
    ProviderSpec { pid: "auroramail.com", company: "Aurora Mail", asn: 65101 },
    ProviderSpec { pid: "borealpost.com", company: "Boreal Post", asn: 65102 },
    ProviderSpec { pid: "cirrusmx.net", company: "Cirrus MX", asn: 65103 },
    ProviderSpec { pid: "driftmail.org", company: "Driftmail", asn: 65104 },
    ProviderSpec { pid: "embermail.com", company: "Embermail", asn: 65105 },
    ProviderSpec { pid: "fernpost.net", company: "Fernpost", asn: 65106 },
    ProviderSpec { pid: "glaciermx.com", company: "Glacier MX", asn: 65107 },
    ProviderSpec { pid: "harbormail.net", company: "Harbormail", asn: 65108 },
];

/// Servers per provider farm (two primary/backup pairs).
pub const SERVERS_PER_PROVIDER: u32 = 4;

/// Silent web IPs available to no-mail domains.
const SILENT_POOL: u32 = 4;
/// AS announcing the silent pool.
const SILENT_ASN: u32 = 399_001;
/// Base of the self-hosted address space (100.64.0.0).
const SELF_BASE: u32 = 0x6440_0000;

/// The measurement date every delta world is pinned to. Scan-fault
/// coins additionally use epoch 0, so an unchanged server re-scans
/// identically across batches — the property that makes per-IP
/// observation caching sound.
pub fn pinned_date() -> Timestamp {
    Timestamp::from_ymd(2021, 6, 1)
}

/// How one domain hosts mail right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hosting {
    /// Outsourced to `PROVIDERS[provider]`. `variant % 2` selects the
    /// host pair (mx1/mx2 vs mx3/mx4); `swapped` flips the primary and
    /// backup preferences.
    Provider {
        /// Index into [`PROVIDERS`].
        provider: u32,
        /// Host-pair selector; [`Event::MxSwap`] increments it.
        variant: u32,
        /// Preference order flip; [`Event::MxPriorityChange`] toggles it.
        swapped: bool,
    },
    /// Runs its own server on a stable address slot.
    SelfHosted {
        /// Slot in the self-hosted address space; never reused.
        ip_slot: u32,
        /// Certificate generation; [`Event::CertRotation`] increments it.
        cert_gen: u32,
    },
    /// Publishes MX records pointing at a silent web host.
    NoMail {
        /// Slot in the silent pool.
        pool_slot: u32,
    },
}

/// The evolving ground-truth state the event stream acts on.
#[derive(Debug, Clone)]
pub struct WorldState {
    /// Seed for every content-addressed derivation.
    pub seed: u64,
    /// The measured population and its hosting arrangements.
    pub domains: BTreeMap<String, Hosting>,
    /// Per-provider certificate generation counters.
    pub provider_cert_gen: Vec<u32>,
    /// Next self-hosted address slot (monotonic; slots are never
    /// reused so a renumbered host can never collide with a cached
    /// observation of its old address).
    pub next_ip_slot: u32,
}

/// Address of the `k`-th server of provider `i`.
pub fn provider_server_ip(provider: usize, k: u32) -> Ipv4Addr {
    Ipv4Addr::from((10u32 << 24) | ((60 + provider as u32) << 16) | (k + 1))
}

/// All pool addresses of one provider.
pub fn provider_pool_ips(provider: usize) -> Vec<Ipv4Addr> {
    (0..SERVERS_PER_PROVIDER)
        .map(|k| provider_server_ip(provider, k))
        .collect()
}

fn self_ip(slot: u32) -> Ipv4Addr {
    Ipv4Addr::from(SELF_BASE | (slot & 0x003F_FFFF))
}

fn silent_ip(slot: u32) -> Ipv4Addr {
    Ipv4Addr::from((10u32 << 24) | (250u32 << 16) | ((slot % SILENT_POOL) + 1))
}

fn pronounce(h: u64, syllables: usize) -> String {
    const CONS: &[u8] = b"bcdfghklmnprstvz";
    const VOWELS: &[u8] = b"aeiou";
    let mut s = String::new();
    let mut x = h;
    for _ in 0..syllables {
        s.push(CONS[(x % CONS.len() as u64) as usize] as char);
        x /= CONS.len() as u64;
        s.push(VOWELS[(x % VOWELS.len() as u64) as usize] as char);
        x /= VOWELS.len() as u64;
    }
    s
}

/// The `i`-th domain of the seeded initial population.
pub fn initial_domain_name(seed: u64, i: usize) -> String {
    let h = h64(seed, &["dom", &i.to_string()]);
    format!("{}{}.test", pronounce(h, 3), i)
}

/// Name for a domain added by the generator in batch `batch`. The
/// `a` separator keeps the namespace disjoint from the initial
/// population (letters, digits, `a`, digits).
pub fn added_domain_name(seed: u64, batch: usize, i: usize) -> String {
    let h = h64(seed, &["add", &batch.to_string(), &i.to_string()]);
    format!("{}{}a{}.test", pronounce(h, 3), batch, i)
}

impl WorldState {
    /// Seed an initial population of `n` domains with a hosting mix
    /// matching the study (roughly two thirds outsourced, a fifth
    /// self-hosted, the rest mail-less web domains).
    pub fn seeded(seed: u64, n: usize) -> WorldState {
        let mut st = WorldState {
            seed,
            domains: BTreeMap::new(),
            provider_cert_gen: vec![0; PROVIDERS.len()],
            next_ip_slot: 0,
        };
        for i in 0..n {
            let name = initial_domain_name(seed, i);
            let h = h64(seed, &["host", &name]);
            let hosting = match h % 100 {
                0..=64 => Hosting::Provider {
                    provider: ((h >> 8) % PROVIDERS.len() as u64) as u32,
                    variant: ((h >> 16) % 2) as u32,
                    swapped: false,
                },
                65..=84 => Hosting::SelfHosted {
                    ip_slot: st.alloc_ip_slot(),
                    cert_gen: 0,
                },
                _ => Hosting::NoMail {
                    pool_slot: ((h >> 8) % u64::from(SILENT_POOL)) as u32,
                },
            };
            st.domains.insert(name, hosting);
        }
        st
    }

    fn alloc_ip_slot(&mut self) -> u32 {
        let slot = self.next_ip_slot;
        self.next_ip_slot += 1;
        slot
    }

    /// The addresses a domain's MX records currently resolve to.
    pub fn footprint(&self, domain: &str) -> Vec<Ipv4Addr> {
        match self.domains.get(domain) {
            None => Vec::new(),
            Some(Hosting::Provider { provider, variant, .. }) => {
                let pair = variant % 2;
                vec![
                    provider_server_ip(*provider as usize, 2 * pair),
                    provider_server_ip(*provider as usize, 2 * pair + 1),
                ]
            }
            Some(Hosting::SelfHosted { ip_slot, .. }) => vec![self_ip(*ip_slot)],
            Some(Hosting::NoMail { pool_slot }) => vec![silent_ip(*pool_slot)],
        }
    }

    /// Apply one event, returning the dirty seeds it produced.
    pub fn apply(&mut self, ev: &Event) -> Result<ApplyEffect, DeltaError> {
        let mut fx = ApplyEffect::default();
        match ev {
            Event::MxSwap { domain } => {
                match self.hosting_mut(domain)? {
                    Hosting::Provider { variant, .. } => *variant += 1,
                    _ => return Err(DeltaError::WrongHosting(domain.clone())),
                }
                fx.dirty.push(domain.clone());
            }
            Event::MxPriorityChange { domain } => {
                match self.hosting_mut(domain)? {
                    Hosting::Provider { swapped, .. } => *swapped = !*swapped,
                    _ => return Err(DeltaError::WrongHosting(domain.clone())),
                }
                fx.dirty.push(domain.clone());
            }
            Event::HostReIp { domain } => {
                let old = self.footprint(domain);
                let new_slot = self.next_ip_slot;
                match self.hosting_mut(domain)? {
                    Hosting::SelfHosted { ip_slot, .. } => *ip_slot = new_slot,
                    _ => return Err(DeltaError::WrongHosting(domain.clone())),
                }
                self.next_ip_slot += 1;
                fx.invalidated_ips.extend(old);
                fx.invalidated_ips.push(self_ip(new_slot));
                fx.dirty.push(domain.clone());
            }
            Event::CertRotation { target } => match target {
                CertTarget::Domain(domain) => {
                    let ips = self.footprint(domain);
                    match self.hosting_mut(domain)? {
                        Hosting::SelfHosted { cert_gen, .. } => *cert_gen += 1,
                        _ => return Err(DeltaError::WrongHosting(domain.clone())),
                    }
                    fx.invalidated_ips.extend(ips);
                    fx.dirty.push(domain.clone());
                }
                CertTarget::Provider(p) => {
                    let ix = *p as usize;
                    match self.provider_cert_gen.get_mut(ix) {
                        Some(gen) => *gen += 1,
                        None => return Err(DeltaError::BadProvider(u64::from(*p))),
                    }
                    fx.invalidated_ips.extend(provider_pool_ips(ix));
                }
            },
            Event::ProviderMigration { domain, provider } => {
                if (*provider as usize) >= PROVIDERS.len() {
                    return Err(DeltaError::BadProvider(u64::from(*provider)));
                }
                let old = self.footprint(domain);
                let variant = (h64(self.seed, &["var", domain, &provider.to_string()]) % 2) as u32;
                let slot = match self.domains.get(domain) {
                    None => return Err(DeltaError::NoSuchDomain(domain.clone())),
                    Some(h) => *h,
                };
                if let Hosting::SelfHosted { .. } = slot {
                    fx.invalidated_ips.extend(old);
                }
                self.domains.insert(
                    domain.clone(),
                    Hosting::Provider { provider: *provider, variant, swapped: false },
                );
                fx.dirty.push(domain.clone());
            }
            Event::ZoneDelete { domain } => {
                let old = self.footprint(domain);
                match self.domains.remove(domain) {
                    None => return Err(DeltaError::NoSuchDomain(domain.clone())),
                    Some(Hosting::SelfHosted { .. }) => fx.invalidated_ips.extend(old),
                    Some(_) => {}
                }
                fx.removed.push(domain.clone());
                fx.dirty.push(domain.clone());
            }
            Event::DomainAdd { domain, spec } => {
                if self.domains.contains_key(domain) {
                    return Err(DeltaError::DuplicateDomain(domain.clone()));
                }
                let hosting = match spec {
                    AddSpec::Provider(p) => {
                        if (*p as usize) >= PROVIDERS.len() {
                            return Err(DeltaError::BadProvider(u64::from(*p)));
                        }
                        Hosting::Provider {
                            provider: *p,
                            variant: (h64(self.seed, &["newvar", domain]) % 2) as u32,
                            swapped: false,
                        }
                    }
                    AddSpec::SelfHosted => Hosting::SelfHosted {
                        ip_slot: self.alloc_ip_slot(),
                        cert_gen: 0,
                    },
                    AddSpec::NoMail => Hosting::NoMail {
                        pool_slot: (h64(self.seed, &["pool", domain]) % u64::from(SILENT_POOL))
                            as u32,
                    },
                };
                self.domains.insert(domain.clone(), hosting);
                fx.dirty.push(domain.clone());
            }
        }
        Ok(fx)
    }

    fn hosting_mut(&mut self, domain: &str) -> Result<&mut Hosting, DeltaError> {
        self.domains
            .get_mut(domain)
            .ok_or_else(|| DeltaError::NoSuchDomain(domain.to_string()))
    }
}

/// A materialised delta world: the simulated network plus the trust
/// store measurements validate against.
pub struct DeltaWorld {
    /// The simulated Internet.
    pub net: SimNet,
    /// Browser trust anchors.
    pub trust: TrustStore,
}

fn validity() -> (Timestamp, Timestamp) {
    (Timestamp::from_ymd(2020, 1, 1), Timestamp::from_ymd(2031, 1, 1))
}

fn provider_chain(seed: u64, ca: &CertificateAuthority, ix: usize, gen: u32) -> Vec<Certificate> {
    let p = &PROVIDERS[ix];
    let (v0, v1) = validity();
    let g = gen.to_string();
    let leaf = CertificateBuilder::new(
        h64(seed, &["pserial", p.pid, &g]),
        KeyId(h64(seed, &["pkey", p.pid, &g])),
    )
    .common_name(format!("mx.{}", p.pid))
    .sans([format!("mx.{}", p.pid), format!("*.{}", p.pid)])
    .validity(v0, v1)
    .signed_by(ca.name(), ca.key());
    vec![leaf]
}

/// Materialise a world from state. With `only = Some(set)`, customer
/// zones and self-hosted servers are built solely for the named
/// domains — provider farms and the silent pool are always present —
/// which keeps incremental re-measurement O(dirty) while answering
/// every query about those domains exactly as the full world would
/// (content-addressing guarantees agreement).
pub fn materialize(state: &WorldState, only: Option<&BTreeSet<String>>) -> DeltaWorld {
    let clock = SimClock::starting_at(pinned_date());
    let mut b = SimNet::builder(clock);
    let (v0, v1) = validity();

    let ca = CertificateAuthority::new_root(
        "Delta Root CA",
        KeyId(h64(state.seed, &["rootkey"])),
        (v0, v1),
    );
    let mut trust = TrustStore::new();
    trust.add_root(&ca);

    let mut plan = FaultPlan {
        scan_failure_rate: 0.02,
        seed: state.seed,
        ..FaultPlan::none()
    };

    // Provider farms: one /16, one AS, four servers behind a shared
    // rotating certificate.
    for (i, p) in PROVIDERS.iter().enumerate() {
        let base = Ipv4Addr::from((10u32 << 24) | ((60 + i as u32) << 16));
        let prefix: mx_asn::Ipv4Prefix = format!("{base}/16").parse().expect("valid prefix");
        b.announce(prefix, p.asn);
        b.register_as(mx_asn::AsInfo {
            asn: p.asn,
            name: p.pid.to_uppercase(),
            org: p.company.to_string(),
            country: "US".into(),
        });
        let gen = state.provider_cert_gen.get(i).copied().unwrap_or(0);
        let chain = provider_chain(state.seed, &ca, i, gen);
        let origin = Name::parse(p.pid).expect("valid provider domain");
        let mut zone = Zone::new(origin.clone());
        for k in 0..SERVERS_PER_PROVIDER {
            let host = origin
                .child(&format!("mx{}", k + 1))
                .expect("valid host label");
            let ip = provider_server_ip(i, k);
            zone.add_rr(host.clone(), 3600, RData::A(ip));
            b.smtp_host(
                ip,
                SmtpServerConfig::with_tls(host.to_string(), chain.clone()),
            );
        }
        b.zone(zone);
    }

    // The silent web pool no-mail domains point at.
    {
        let base = Ipv4Addr::from((10u32 << 24) | (250u32 << 16));
        let prefix: mx_asn::Ipv4Prefix = format!("{base}/24").parse().expect("valid prefix");
        b.announce(prefix, SILENT_ASN);
        b.register_as(mx_asn::AsInfo {
            asn: SILENT_ASN,
            name: "SILENT-WEB".into(),
            org: "Silent Web Hosting".into(),
            country: "US".into(),
        });
        for s in 0..SILENT_POOL {
            b.silent_host(silent_ip(s));
        }
    }

    // Customer zones (restricted to `only` when given). A restricted
    // build walks the (small, sorted) restriction set rather than the
    // whole population — per-batch materialisation stays O(dirty).
    let selected: Box<dyn Iterator<Item = (&String, &Hosting)>> = match only {
        Some(set) => Box::new(set.iter().filter_map(|n| state.domains.get_key_value(n))),
        None => Box::new(state.domains.iter()),
    };
    for (name, hosting) in selected {
        let origin = Name::parse(name).expect("valid domain");
        let mut zone = Zone::new(origin.clone());
        match hosting {
            Hosting::Provider { provider, variant, swapped } => {
                let p = &PROVIDERS[*provider as usize];
                let pid = Name::parse(p.pid).expect("valid provider domain");
                let pair = variant % 2;
                let lo = pid
                    .child(&format!("mx{}", 2 * pair + 1))
                    .expect("valid host label");
                let hi = pid
                    .child(&format!("mx{}", 2 * pair + 2))
                    .expect("valid host label");
                let (primary, backup) = if *swapped { (hi, lo) } else { (lo, hi) };
                zone.add_rr(origin.clone(), 3600, RData::Mx { preference: 10, exchange: primary });
                zone.add_rr(origin.clone(), 3600, RData::Mx { preference: 20, exchange: backup });
                zone.add_rr(
                    origin.clone(),
                    3600,
                    RData::Txt(vec![format!("v=spf1 include:_spf.{} ~all", p.pid)]),
                );
            }
            Hosting::SelfHosted { ip_slot, cert_gen } => {
                let ip = self_ip(*ip_slot);
                let host = origin.child("mx").expect("valid host label");
                zone.add_rr(origin.clone(), 3600, RData::Mx { preference: 10, exchange: host.clone() });
                zone.add_rr(host.clone(), 3600, RData::A(ip));
                zone.add_rr(origin.clone(), 3600, RData::Txt(vec!["v=spf1 mx -all".into()]));

                let prefix = mx_asn::Ipv4Prefix::new(ip, 32).expect("valid /32");
                let asn = 64_512 + (h64(state.seed, &["selfasn", &ip_slot.to_string()]) % 2000) as u32;
                b.announce(prefix, asn);

                let g = cert_gen.to_string();
                let serial = h64(state.seed, &["serial", name, &g]);
                let key = KeyId(h64(state.seed, &["key", name, &g]));
                let cfg = match h64(state.seed, &["cq", name]) % 100 {
                    0..=59 => {
                        let leaf = CertificateBuilder::new(serial, key)
                            .common_name(host.to_string())
                            .san(host.to_string())
                            .validity(v0, v1)
                            .signed_by(ca.name(), ca.key());
                        SmtpServerConfig::with_tls(host.to_string(), vec![leaf])
                    }
                    60..=79 => {
                        let leaf = CertificateBuilder::new(serial, key)
                            .common_name(host.to_string())
                            .san(host.to_string())
                            .validity(v0, v1)
                            .self_signed();
                        SmtpServerConfig::with_tls(host.to_string(), vec![leaf])
                    }
                    _ => SmtpServerConfig::plain(host.to_string()),
                };
                b.smtp_host(ip, cfg);

                // Content-addressed fault bucket for this address.
                match h64(state.seed, &["fault", &ip.to_string()]) % 100 {
                    0..=4 => {
                        plan.blocked_ips.insert(ip);
                    }
                    5..=9 => {
                        plan.unreachable_ips.insert(ip);
                    }
                    10..=14 => {
                        plan.ip_profiles.insert(ip, FlakinessProfile::AlwaysFlaky { rate: 0.85 });
                    }
                    15..=16 => {
                        plan.ip_profiles
                            .insert(ip, FlakinessProfile::Degrading { base: 0.05, per_epoch: 0.08 });
                    }
                    _ => {}
                }
            }
            Hosting::NoMail { pool_slot } => {
                let host = origin.child("mx").expect("valid host label");
                zone.add_rr(origin.clone(), 3600, RData::Mx { preference: 10, exchange: host.clone() });
                zone.add_rr(host, 3600, RData::A(silent_ip(*pool_slot)));
            }
        }
        b.zone(zone);
    }

    b.faults(plan);
    DeltaWorld { net: b.build(), trust }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_population_is_deterministic() {
        let a = WorldState::seeded(7, 50);
        let b = WorldState::seeded(7, 50);
        assert_eq!(a.domains, b.domains);
        assert_eq!(a.next_ip_slot, b.next_ip_slot);
        assert_eq!(a.domains.len(), 50);
    }

    #[test]
    fn footprints_cover_every_hosting_kind() {
        let st = WorldState::seeded(1, 80);
        let mut provider = 0;
        let mut selfhosted = 0;
        let mut nomail = 0;
        for (name, h) in &st.domains {
            let ips = st.footprint(name);
            match h {
                Hosting::Provider { .. } => {
                    provider += 1;
                    assert_eq!(ips.len(), 2);
                }
                Hosting::SelfHosted { .. } => {
                    selfhosted += 1;
                    assert_eq!(ips.len(), 1);
                }
                Hosting::NoMail { .. } => {
                    nomail += 1;
                    assert_eq!(ips.len(), 1);
                }
            }
        }
        assert!(provider > 0 && selfhosted > 0 && nomail > 0);
    }

    #[test]
    fn reip_never_reuses_an_address() {
        let mut st = WorldState::seeded(3, 40);
        let name = st
            .domains
            .iter()
            .find(|(_, h)| matches!(h, Hosting::SelfHosted { .. }))
            .map(|(n, _)| n.clone())
            .expect("a self-hosted domain");
        let before = st.footprint(&name);
        let fx = st
            .apply(&Event::HostReIp { domain: name.clone() })
            .expect("applies");
        let after = st.footprint(&name);
        assert_ne!(before, after);
        assert!(fx.invalidated_ips.contains(&before[0]));
        assert!(fx.invalidated_ips.contains(&after[0]));
    }

    #[test]
    fn wrong_hosting_is_a_typed_error() {
        let mut st = WorldState::seeded(3, 40);
        let provider_domain = st
            .domains
            .iter()
            .find(|(_, h)| matches!(h, Hosting::Provider { .. }))
            .map(|(n, _)| n.clone())
            .expect("a provider-hosted domain");
        let got = st.apply(&Event::HostReIp { domain: provider_domain.clone() });
        assert_eq!(got, Err(DeltaError::WrongHosting(provider_domain)));
        let got = st.apply(&Event::MxSwap { domain: "missing.test".into() });
        assert_eq!(got, Err(DeltaError::NoSuchDomain("missing.test".into())));
    }

    #[test]
    fn restricted_world_answers_like_the_full_world() {
        let st = WorldState::seeded(11, 30);
        let full = materialize(&st, None);
        let one = st.domains.keys().next().cloned().expect("non-empty");
        let only: BTreeSet<String> = [one.clone()].into_iter().collect();
        let small = materialize(&st, Some(&only));
        let names = vec![Name::parse(&one).expect("valid")];
        let a = mx_net::openintel::measure(&full.net, &names);
        let b = mx_net::openintel::measure(&small.net, &names);
        assert_eq!(a.rows, b.rows);
    }
}
