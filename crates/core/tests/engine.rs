//! The staged [`Engine`] against an independent reference.
//!
//! `Pipeline::run` is itself a fresh engine applied once, so agreeing
//! with it proves nothing about the memo. The reference here is a plain
//! serial composition of the public stages — certificate grouping,
//! per-IP IDs, one `mxid` per distinct exchange, the step-4 check and
//! per-domain attribution — with no memo.
//!
//! A seeded generator grows small observation sets out of shared
//! certificates, banners and a few large-provider profiles, then applies
//! random row adds, removals and re-points, exchange re-addressing and
//! IP re-scans. The confidence threshold is low, so step-4 decisions
//! flip as counts cross it. One long-lived engine sees every step.
//!
//! The engine maintains its coupled state — confidence counters, per-IP
//! IDs and certificate groups — instead of recomputing it, so after
//! every step that state is also held against `Confidence::compute`,
//! `ipid::compute_ip_ids` and `certgroup::preprocess` over the same
//! view, read through `Engine::coupled_state`.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::net::Ipv4Addr;

use mx_cert::{Certificate, CertificateBuilder, KeyId};
use mx_dns::Name;
use mx_infer::misid::Confidence;
use mx_infer::{
    certgroup, domainid, ipid, misid, mxid, DomainAssignment, DomainObservation, Engine,
    IpObservation, MxAssignment, MxObservation, MxTargetObs, ObservationSet, Pattern, Pipeline,
    ProviderKnowledge, ProviderProfile, ScanStatus,
};
use mx_psl::PublicSuffixList;
use mx_rng::SmallRng;
use mx_smtp::{SmtpScanData, StartTlsOutcome};

const SEEDS: u64 = 24;
const STEPS: usize = 40;
const IPS: u32 = 14;
const EXCHANGES: usize = 12;

fn knowledge() -> ProviderKnowledge {
    let mut k = ProviderKnowledge::new(3);
    k.add(
        "bigmail.com",
        ProviderProfile {
            asns: [100].into_iter().collect(),
            ..ProviderProfile::default()
        },
    );
    k.add(
        "hostco.net",
        ProviderProfile {
            asns: [200].into_iter().collect(),
            vps_patterns: vec![Pattern::new("vps#.hostco.net")],
            dedicated_patterns: vec![Pattern::new("mx#.hostco.net")],
        },
    );
    k
}

fn cert(serial: u64, cn: &str, sans: &[&str]) -> Certificate {
    CertificateBuilder::new(serial, KeyId(serial))
        .common_name(cn)
        .sans(sans.iter().copied())
        .self_signed()
}

fn smtp(ip: Ipv4Addr, asn: u32, host: &str, leaf: Option<Certificate>) -> IpObservation {
    IpObservation {
        ip,
        asn: Some(asn),
        scan: ScanStatus::Smtp(SmtpScanData {
            banner: format!("{host} ESMTP"),
            ehlo: Some(format!("{host} hello")),
            ehlo_keywords: vec![],
            starttls: match &leaf {
                Some(c) => StartTlsOutcome::Completed {
                    chain: vec![c.clone()],
                },
                None => StartTlsOutcome::NotOffered,
            },
        }),
        cert_valid: leaf.is_some(),
        leaf_cert: leaf,
    }
}

/// One scan of `ip`, drawn from a few shapes that share certificates
/// and banners: genuine and forged large-provider servers, VPS and
/// dedicated hosting-company machines, self-hosted and dead servers,
/// and two certificates that share a name, so the group representative
/// of the first changes with the presence of the second.
fn gen_ip(rng: &mut SmallRng, ip: Ipv4Addr) -> IpObservation {
    match rng.gen_range(0..9u32) {
        0 => smtp(
            ip,
            100,
            "mx.bigmail.com",
            Some(cert(1, "mx.bigmail.com", &[])),
        ),
        1 => smtp(ip, 300, "mx.bigmail.com", None),
        2 => smtp(
            ip,
            300,
            "mx.bigmail.com",
            Some(cert(1, "mx.bigmail.com", &[])),
        ),
        3 => smtp(
            ip,
            200,
            "vps7.hostco.net",
            Some(cert(2, "vps7.hostco.net", &[])),
        ),
        4 => smtp(
            ip,
            200,
            "mx2.hostco.net",
            Some(cert(3, "mx2.hostco.net", &[])),
        ),
        5 => smtp(ip, 400, "mail.selfhost.test", None),
        6 => smtp(
            ip,
            500,
            "mx.alpha.test",
            Some(cert(4, "mx.alpha.test", &["mx.omega.test"])),
        ),
        7 => smtp(
            ip,
            500,
            "mx.omega.test",
            Some(cert(5, "mx.omega.test", &["in.omega.test"])),
        ),
        _ => IpObservation {
            ip,
            asn: Some(400),
            scan: ScanStatus::NoSmtp,
            leaf_cert: None,
            cert_valid: false,
        },
    }
}

fn gen_addrs(rng: &mut SmallRng) -> Vec<Ipv4Addr> {
    let mut addrs: Vec<Ipv4Addr> = (0..rng.gen_range(0..3usize))
        .map(|_| Ipv4Addr::new(10, 0, 0, rng.gen_range(1..=IPS) as u8))
        .collect();
    addrs.sort_unstable();
    addrs.dedup();
    addrs
}

fn gen_targets(rng: &mut SmallRng) -> Vec<(u16, usize)> {
    (0..rng.gen_range(0..4usize))
        .map(|_| {
            (
                *rng.choose(&[10u16, 20]).unwrap(),
                rng.gen_range(0..EXCHANGES),
            )
        })
        .collect()
}

fn exchange_name(j: usize) -> Name {
    Name::parse(&format!("mx{j}.ex{}.test", j % 4)).unwrap()
}

/// The measured world the views are built from.
struct World {
    ips: BTreeMap<Ipv4Addr, IpObservation>,
    exchanges: Vec<Vec<Ipv4Addr>>,
    domains: BTreeMap<String, Vec<(u16, usize)>>,
    next_domain: usize,
}

impl World {
    fn new(rng: &mut SmallRng) -> World {
        let ips = (1..=IPS)
            .map(|i| {
                let ip = Ipv4Addr::new(10, 0, 0, i as u8);
                (ip, gen_ip(rng, ip))
            })
            .collect();
        let exchanges = (0..EXCHANGES).map(|_| gen_addrs(rng)).collect();
        let mut w = World {
            ips,
            exchanges,
            domains: BTreeMap::new(),
            next_domain: 0,
        };
        for _ in 0..rng.gen_range(4..16usize) {
            w.add(rng);
        }
        w
    }

    fn add(&mut self, rng: &mut SmallRng) {
        let name = format!("d{}.test", self.next_domain);
        self.next_domain += 1;
        self.domains.insert(name, gen_targets(rng));
    }

    fn pick_domain(&self, rng: &mut SmallRng) -> Option<String> {
        let names: Vec<&String> = self.domains.keys().collect();
        rng.choose(&names).map(|n| (*n).clone())
    }

    fn mutate(&mut self, rng: &mut SmallRng) {
        match rng.gen_range(0..5u32) {
            0 => self.add(rng),
            1 => {
                if let Some(d) = self.pick_domain(rng) {
                    self.domains.remove(&d);
                }
            }
            2 => {
                if let Some(d) = self.pick_domain(rng) {
                    self.domains.insert(d, gen_targets(rng));
                }
            }
            3 => {
                let ip = Ipv4Addr::new(10, 0, 0, rng.gen_range(1..=IPS) as u8);
                let o = gen_ip(rng, ip);
                self.ips.insert(ip, o);
            }
            _ => {
                let j = rng.gen_range(0..EXCHANGES);
                self.exchanges[j] = gen_addrs(rng);
            }
        }
    }

    /// The joined view: rows sorted by name, the IP map restricted to
    /// referenced addresses.
    fn view(&self) -> ObservationSet {
        let mut obs = ObservationSet::new();
        for (name, targets) in &self.domains {
            let mx = if targets.is_empty() {
                MxObservation::NoMx
            } else {
                MxObservation::Targets(
                    targets
                        .iter()
                        .map(|&(preference, j)| MxTargetObs {
                            preference,
                            exchange: exchange_name(j),
                            addrs: self.exchanges[j].clone(),
                        })
                        .collect(),
                )
            };
            obs.domains.push(DomainObservation {
                domain: Name::parse(name).unwrap(),
                mx,
            });
        }
        for d in &obs.domains {
            for t in d.mx.targets() {
                for a in &t.addrs {
                    obs.ips.insert(*a, self.ips[a].clone());
                }
            }
        }
        obs
    }
}

/// The serial reference: each public stage once, no memo.
fn reference(
    obs: &ObservationSet,
    knowledge: &ProviderKnowledge,
    psl: &PublicSuffixList,
) -> (HashMap<Name, DomainAssignment>, HashMap<Name, MxAssignment>) {
    let groups = certgroup::preprocess(obs, psl);
    let ip_ids = ipid::compute_ip_ids(obs, &groups, psl);
    let mut seen: HashSet<&Name> = HashSet::new();
    let mut mx: HashMap<Name, MxAssignment> = HashMap::new();
    for d in &obs.domains {
        for t in d.mx.targets() {
            if seen.insert(&t.exchange) {
                let (provider, source) = mxid::assign_mx_id(&t.exchange, &t.addrs, &ip_ids, psl);
                mx.insert(
                    t.exchange.clone(),
                    MxAssignment {
                        exchange: t.exchange.clone(),
                        provider,
                        source,
                        addrs: t.addrs.clone(),
                        corrected: false,
                    },
                );
            }
        }
    }
    misid::check(&mut mx, obs, knowledge, psl);
    let domains = obs
        .domains
        .iter()
        .map(|d| (d.domain.clone(), domainid::assign_domain(d, &mx, obs)))
        .collect();
    (domains, mx)
}

/// The engine's maintained coupled state equals the public stages over
/// `view`: confidence counters, per-IP IDs, and every valid
/// certificate's group representative, group and certificate counts.
fn assert_coupled_state(engine: &Engine, view: &ObservationSet, psl: &PublicSuffixList, ctx: &str) {
    let (confidence, ip_ids, groups) = engine.coupled_state();
    let want = Confidence::compute(view);
    assert_eq!(confidence.num_ip, want.num_ip, "{ctx}: numIP counters");
    assert_eq!(
        confidence.num_cert, want.num_cert,
        "{ctx}: numCert counters"
    );
    let want_groups = certgroup::preprocess(view, psl);
    assert_eq!(
        ip_ids,
        &ipid::compute_ip_ids(view, &want_groups, psl),
        "{ctx}: per-IP IDs"
    );
    let mut ips: Vec<&IpObservation> = view.ips.values().collect();
    ips.sort_by_key(|o| o.ip);
    for cert in ips.into_iter().filter_map(|o| o.valid_cert()) {
        assert_eq!(
            groups.representative_of(cert),
            want_groups.representative_of(cert),
            "{ctx}: representative of {:?}",
            cert.subject_cn
        );
    }
    assert_eq!(
        groups.cert_count(),
        want_groups.cert_count(),
        "{ctx}: certs"
    );
    assert_eq!(
        groups.group_count(),
        want_groups.group_count(),
        "{ctx}: groups"
    );
    assert_eq!(
        groups.registered_domain_counts, want_groups.registered_domain_counts,
        "{ctx}: registered-domain counts"
    );
}

/// The change set between two views, as the reconciler hands it over:
/// the changed rows of `view`, the touched addresses and the names of
/// the domains that left.
fn change_set(
    prev: &ObservationSet,
    view: &ObservationSet,
) -> (Vec<usize>, BTreeSet<Ipv4Addr>, Vec<Name>) {
    let touched: BTreeSet<Ipv4Addr> = prev
        .ips
        .keys()
        .chain(view.ips.keys())
        .filter(|ip| prev.ips.get(ip) != view.ips.get(ip))
        .copied()
        .collect();
    // A row changed if it is new or different, or if it names a
    // re-scanned address.
    let old_rows: HashMap<&Name, &DomainObservation> =
        prev.domains.iter().map(|d| (&d.domain, d)).collect();
    let changed_rows: Vec<usize> = (0..view.domains.len())
        .filter(|&i| {
            let row = &view.domains[i];
            old_rows.get(&row.domain) != Some(&row)
                || row
                    .mx
                    .targets()
                    .iter()
                    .any(|t| t.addrs.iter().any(|a| touched.contains(a)))
        })
        .collect();
    let live: HashSet<&Name> = view.domains.iter().map(|d| &d.domain).collect();
    let removed: Vec<Name> = prev
        .domains
        .iter()
        .filter(|d| !live.contains(&d.domain))
        .map(|d| d.domain.clone())
        .collect();
    (changed_rows, touched, removed)
}

#[test]
fn long_lived_engine_matches_reference_and_run() {
    let psl = PublicSuffixList::builtin();
    let knowledge = knowledge();
    let pipeline = Pipeline::priority_based(knowledge.clone());
    let (mut flips, mut walked) = (0usize, 0usize);

    for seed in 0..SEEDS {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut world = World::new(&mut rng);
        let mut engine = pipeline.engine();
        let mut prev = ObservationSet::new();
        let mut attributed: BTreeMap<Name, DomainAssignment> = BTreeMap::new();
        let mut corrected: BTreeMap<Name, bool> = BTreeMap::new();

        for step in 0..STEPS {
            if step > 0 {
                for _ in 0..rng.gen_range(1..4usize) {
                    world.mutate(&mut rng);
                }
            }
            let view = world.view();
            let (changed_rows, touched, removed) = change_set(&prev, &view);
            let applied = engine.apply(&view, &changed_rows, &touched, &removed);
            if applied.assignments.len() > changed_rows.len() {
                walked += 1;
            }
            for a in applied.assignments {
                attributed.insert(a.domain.clone(), a);
            }
            attributed.retain(|d, _| view.domains.iter().any(|r| &r.domain == d));

            let ctx = format!("seed {seed} step {step}");
            assert_coupled_state(&engine, &view, &psl, &ctx);
            let (ref_domains, ref_mx) = reference(&view, &knowledge, &psl);
            let run = pipeline.run(&view);
            let want: BTreeMap<Name, DomainAssignment> = ref_domains.into_iter().collect();
            let ran: BTreeMap<Name, DomainAssignment> = run.domains.into_iter().collect();
            assert_eq!(attributed, want, "{ctx}: engine vs reference attributions");
            assert_eq!(ran, want, "{ctx}: run vs reference attributions");
            let mut names: Vec<&Name> = ref_mx.keys().collect();
            names.sort();
            for e in names {
                assert_eq!(
                    engine.mx_assignment(e),
                    Some(&ref_mx[e]),
                    "{ctx}: engine {e}"
                );
                assert_eq!(
                    run.mx_assignments.get(e),
                    Some(&ref_mx[e]),
                    "{ctx}: run {e}"
                );
                let now = ref_mx[e].corrected;
                if corrected
                    .insert(e.clone(), now)
                    .is_some_and(|was| was != now)
                {
                    flips += 1;
                }
            }
            prev = view;
        }
    }
    // The run must exercise what the memo can get wrong: step-4
    // decisions that flip, and attributions re-run for rows that did
    // not change themselves.
    assert!(flips > 0, "no step-4 decision flipped");
    assert!(walked > 0, "no unchanged row was ever re-attributed");
}

/// Certificate groups split and join under a long-lived engine: a
/// bridge certificate shares one FQDN with each of two groups, so its
/// arrival joins them and the loss of the last address presenting it
/// splits them again, moving representatives, per-IP IDs and
/// attributions on both sides.
#[test]
fn groups_split_and_join_under_a_long_lived_engine() {
    let psl = PublicSuffixList::builtin();
    let knowledge = knowledge();
    let pipeline = Pipeline::priority_based(knowledge.clone());
    let ip = |i: u8| Ipv4Addr::new(10, 0, 1, i);
    // Left group: two certificates under omega.test (four names);
    // right group: one under beta.test (three names); the bridge at .4
    // and .5 names one FQDN of each side.
    let bridge = cert(14, "in.omega.test", &["in.beta.test"]);
    let shapes = [
        smtp(
            ip(1),
            500,
            "mx.omega.test",
            Some(cert(11, "mx.omega.test", &["mx2.omega.test"])),
        ),
        smtp(
            ip(2),
            500,
            "in.omega.test",
            Some(cert(12, "in.omega.test", &["mx.omega.test"])),
        ),
        smtp(
            ip(3),
            600,
            "mx.beta.test",
            Some(cert(13, "mx.beta.test", &["in.beta.test", "mx2.beta.test"])),
        ),
        smtp(ip(4), 700, "bridge.test", Some(bridge.clone())),
        smtp(ip(5), 700, "bridge.test", Some(bridge)),
    ];
    let row = |d: &str, mx: usize, addrs: &[u8]| DomainObservation {
        domain: Name::parse(d).unwrap(),
        mx: MxObservation::Targets(vec![MxTargetObs {
            preference: 10,
            exchange: exchange_name(mx),
            addrs: addrs.iter().map(|&i| ip(i)).collect(),
        }]),
    };
    // The view over `rows`, with the addresses in `dead` answering
    // without SMTP.
    let view_of = |rows: &[DomainObservation], dead: &[u8]| {
        let mut obs = ObservationSet::new();
        obs.domains = rows.to_vec();
        for d in &obs.domains {
            for t in d.mx.targets() {
                for a in &t.addrs {
                    let i = a.octets()[3];
                    let mut o = shapes[usize::from(i) - 1].clone();
                    if dead.contains(&i) {
                        o.scan = ScanStatus::NoSmtp;
                        o.leaf_cert = None;
                        o.cert_valid = false;
                    }
                    obs.ips.insert(*a, o);
                }
            }
        }
        obs
    };
    let apart = [
        row("a.test", 0, &[1]),
        row("b.test", 1, &[2]),
        row("c.test", 2, &[3]),
    ];
    let mut bridged = apart.to_vec();
    bridged.push(row("d.test", 3, &[4, 5]));
    let steps = [
        ("apart", view_of(&apart, &[])),
        ("bridge joins", view_of(&bridged, &[])),
        ("one presenter lost", view_of(&bridged, &[4])),
        ("last presenter lost", view_of(&bridged, &[4, 5])),
        ("bridge back", view_of(&bridged, &[])),
        ("bridge domain removed", view_of(&apart, &[])),
    ];

    let mut engine = pipeline.engine();
    let mut prev = ObservationSet::new();
    let mut attributed: BTreeMap<Name, DomainAssignment> = BTreeMap::new();
    let mut reps: Vec<Option<String>> = Vec::new();
    for (label, view) in steps {
        let (changed_rows, touched, removed) = change_set(&prev, &view);
        for a in engine
            .apply(&view, &changed_rows, &touched, &removed)
            .assignments
        {
            attributed.insert(a.domain.clone(), a);
        }
        attributed.retain(|d, _| view.domains.iter().any(|r| &r.domain == d));
        assert_coupled_state(&engine, &view, &psl, label);
        let want: BTreeMap<Name, DomainAssignment> =
            reference(&view, &knowledge, &psl).0.into_iter().collect();
        assert_eq!(
            attributed, want,
            "{label}: engine vs reference attributions"
        );
        let (_, _, groups) = engine.coupled_state();
        reps.push(
            view.ips[&ip(3)]
                .valid_cert()
                .and_then(|c| groups.representative_of(c))
                .map(str::to_string),
        );
        prev = view;
    }
    // The right group takes the left group's name while the bridge
    // joins them, and its own back when the bridge is gone.
    let own = Some("beta.test".to_string());
    let joined = Some("omega.test".to_string());
    assert_eq!(
        reps,
        [&own, &joined, &joined, &own, &joined, &own].map(Clone::clone),
    );
}
