//! Integration tests for the §3.1 corner cases, built directly on the
//! simulated network (no corpus generator): every byte travels through the
//! real DNS wire codec and real SMTP sessions before inference sees it.

use std::net::Ipv4Addr;

use mxmap::cert::{CertificateAuthority, KeyId, TrustStore};
use mxmap::dns::{dns_name, Name, RData, SimClock, Timestamp, Zone};
use mxmap::infer::{
    DomainObservation, IdSource, IpObservation, MxObservation, MxTarget, ObservationSet, Pattern,
    Pipeline, ProviderId, ProviderKnowledge, ProviderProfile, Strategy,
};
use mxmap::net::{Scanner, SimNet};
use mxmap::smtp::SmtpServerConfig;

struct TestWorld {
    net: SimNet,
    trust: TrustStore,
}

/// Build a world with one provider, one VPS renter, one banner forger.
fn build_world() -> TestWorld {
    let clock = SimClock::starting_at(Timestamp::from_ymd(2021, 6, 8));
    let mut b = SimNet::builder(clock);
    let mut ca = CertificateAuthority::new_root(
        "Root",
        KeyId(1),
        (Timestamp::from_ymd(2010, 1, 1), Timestamp::from_ymd(2040, 1, 1)),
    );
    let mut trust = TrustStore::new();
    trust.add_root(&ca);
    let valid = (Timestamp::from_ymd(2020, 1, 1), Timestamp::from_ymd(2023, 1, 1));

    // hostco.net: a web host with real mail servers and rented VPSes.
    let host_cert = ca.issue_server(
        KeyId(2),
        Some("mx.hostco.net"),
        &["mx.hostco.net", "*.hostco.net"],
        valid,
    );
    b.smtp_host(
        ip("10.1.0.1"),
        SmtpServerConfig::with_tls("mx.hostco.net", vec![host_cert]),
    );
    // The VPS: customer-operated, but its certificate lives under
    // hostco.net (CA-signed!) like GoDaddy's secureserver.net VPSes.
    let vps_cert = ca.issue_server(KeyId(3), Some("s9-8-7.hostco.net"), &["s9-8-7.hostco.net"], valid);
    let mut vps_cfg = SmtpServerConfig::with_tls("s9-8-7.hostco.net", vec![vps_cert]);
    vps_cfg.ehlo_host = "s9-8-7.hostco.net".into();
    b.smtp_host(ip("10.1.0.99"), vps_cfg);
    b.announce("10.1.0.0/16".parse().unwrap(), 64500); // hostco AS

    // The forger: claims mx.hostco.net in banners from a foreign AS.
    let mut forger = SmtpServerConfig::plain("mx.hostco.net");
    forger.ehlo_host = "mx.hostco.net".into();
    b.smtp_host(ip("10.9.0.1"), forger);
    b.announce("10.9.0.0/16".parse().unwrap(), 64999);

    // Zones.
    let mut hz = Zone::new(dns_name!("hostco.net"));
    hz.add_rr(dns_name!("mx.hostco.net"), 300, RData::A(ip("10.1.0.1")));
    b.zone(hz);
    for (domain, target_ip) in [
        ("customer.com", "10.1.0.1"),  // real hosting customer
        ("vpsuser.com", "10.1.0.99"),  // self-hosted on a VPS
        ("forged.com", "10.9.0.1"),    // behind the forger
    ] {
        let origin = Name::parse(domain).unwrap();
        let mut z = Zone::new(origin.clone());
        let mx_host = origin.child("mx").unwrap();
        z.add_rr(
            origin,
            3600,
            RData::Mx {
                preference: 10,
                exchange: mx_host.clone(),
            },
        );
        z.add_rr(mx_host, 300, RData::A(target_ip.parse().unwrap()));
        b.zone(z);
    }
    TestWorld {
        net: b.build(),
        trust,
    }
}

fn ip(s: &str) -> Ipv4Addr {
    s.parse().unwrap()
}

/// Measure the world into an observation set, through real wire traffic.
fn measure(world: &TestWorld, domains: &[Name]) -> ObservationSet {
    let dns = mxmap::net::openintel::measure(&world.net, domains);
    let ips = dns.all_mx_ips();
    let scan = Scanner::new().scan(&world.net, &ips, 0);
    let now = world.net.clock().now();
    let table = ips
        .iter()
        .map(|&a| {
            let asn = world.net.asn_of(a);
            let o = IpObservation::from_scan(a, asn, scan.get(a), &world.trust, now);
            (a, (o, scan.acquisition(a)))
        })
        .collect();
    let rows = dns
        .rows
        .into_iter()
        .map(|(domain, mx)| DomainObservation { domain, mx })
        .collect();
    ObservationSet::from_rows(rows, &table)
}

fn knowledge() -> ProviderKnowledge {
    let mut k = ProviderKnowledge::new(10);
    k.add(
        "hostco.net",
        ProviderProfile {
            asns: [64500].into_iter().collect(),
            vps_patterns: vec![Pattern::new("s#-#-#.hostco.net")],
            dedicated_patterns: vec![Pattern::new("mx.hostco.net")],
        },
    );
    k
}

#[test]
fn vps_certificate_is_corrected_to_self_hosted() {
    let world = build_world();
    let domains = [dns_name!("vpsuser.com")];
    let obs = measure(&world, &domains);
    // Without the misid check, the CA-signed hostco.net certificate wins.
    let naive = Pipeline::new(Strategy::PriorityBased).run(&obs);
    assert_eq!(
        naive.domains[&domains[0]].sole_provider().unwrap(),
        &ProviderId::new("hostco.net"),
        "the VPS cert fools the naive pipeline"
    );
    // With it, the VPS hostname pattern reveals the truth.
    let full = Pipeline::priority_based(knowledge()).run(&obs);
    assert_eq!(
        full.domains[&domains[0]].sole_provider().unwrap(),
        &ProviderId::new("vpsuser.com")
    );
    assert_eq!(full.misid.corrections.len(), 1);
}

#[test]
fn forged_banner_is_corrected_by_as_mismatch() {
    let world = build_world();
    let domains = [dns_name!("forged.com")];
    let obs = measure(&world, &domains);
    let naive = Pipeline::new(Strategy::BannerBased).run(&obs);
    assert_eq!(
        naive.domains[&domains[0]].sole_provider().unwrap(),
        &ProviderId::new("hostco.net"),
        "the forged banner fools the banner baseline"
    );
    let full = Pipeline::priority_based(knowledge()).run(&obs);
    let a = &full.domains[&domains[0]];
    assert_eq!(a.sole_provider().unwrap(), &ProviderId::new("forged.com"));
    assert_eq!(a.shares[0].source, IdSource::MxRecord);
}

#[test]
fn real_customer_stays_with_provider() {
    let world = build_world();
    // Many customers -> high confidence -> never corrected. Simulate by
    // adding extra observation rows pointing at the provider IP.
    let domains = [dns_name!("customer.com")];
    let mut obs = measure(&world, &domains);
    for i in 0..20 {
        obs.domains.push(DomainObservation {
            domain: dns_name!(&format!("bulk{i}.example")),
            mx: MxObservation::Targets(vec![MxTarget {
                preference: 10,
                exchange: dns_name!("mx.hostco.net"),
                addrs: vec![ip("10.1.0.1")],
            }]),
        });
    }
    let full = Pipeline::priority_based(knowledge()).run(&obs);
    assert_eq!(
        full.domains[&domains[0]].sole_provider().unwrap(),
        &ProviderId::new("hostco.net")
    );
    assert_eq!(
        full.domains[&domains[0]].shares[0].source,
        IdSource::Certificate
    );
    assert!(full
        .misid
        .corrections
        .iter()
        .all(|c| c.exchange != dns_name!("mx.customer.com")));
}

#[test]
fn scan_gaps_degrade_gracefully() {
    // Lose the provider IP's scan data: inference falls back to the MX
    // record and still terminates.
    let world = build_world();
    let domains = [dns_name!("customer.com")];
    let mut obs = measure(&world, &domains);
    // Simulate a Censys gap by marking the IP uncovered.
    let o = obs.ips.get_mut(&ip("10.1.0.1")).unwrap();
    *o = IpObservation::uncovered(ip("10.1.0.1"), Some(64500));
    let full = Pipeline::priority_based(knowledge()).run(&obs);
    let a = &full.domains[&domains[0]];
    assert_eq!(a.shares[0].source, IdSource::MxRecord);
    assert_eq!(a.sole_provider().unwrap(), &ProviderId::new("customer.com"));
}
