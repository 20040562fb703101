//! Integration: a zone authored as an RFC 1035 master file, served over
//! the simulated network, measured, and fed through the inference — the
//! full adoption path for a user bringing their own DNS data.

use mxmap::cert::TrustStore;
use mxmap::dns::{master, RecordType, SimClock, Timestamp};
use mxmap::infer::{
    DomainObservation, IpObservation, ObservationSet, Pipeline, SpfRecord, Strategy,
};
use mxmap::net::SimNet;
use mxmap::smtp::SmtpServerConfig;

const CUSTOMER_ZONE: &str = r#"
$ORIGIN acme-corp.com.
$TTL 3600
@     IN SOA ns1 hostmaster 2021060800 7200 900 1209600 300
@     IN MX 10 mx0a.acme-corp-com.pphosted.net.
@     IN MX 20 mx0b.acme-corp-com.pphosted.net.
@     IN TXT "v=spf1 include:spf.pphosted.net include:spf.protection.outlook.com -all"
www   IN A 192.0.2.80
"#;

const PROVIDER_ZONE: &str = r#"
$ORIGIN pphosted.net.
$TTL 300
@                       IN SOA ns1 hostmaster 2021060800 7200 900 1209600 300
mx0a.acme-corp-com      IN A 198.51.100.10
mx0b.acme-corp-com      IN A 198.51.100.11
"#;

#[test]
fn master_file_zone_through_full_pipeline() {
    // Build the network from parsed zone files.
    let clock = SimClock::starting_at(Timestamp::from_ymd(2021, 6, 8));
    let mut b = SimNet::builder(clock);
    b.zone(master::parse_zone(CUSTOMER_ZONE).expect("customer zone parses"));
    b.zone(master::parse_zone(PROVIDER_ZONE).expect("provider zone parses"));
    for (ip, host) in [
        ("198.51.100.10", "filter-a.pphosted.net"),
        ("198.51.100.11", "filter-b.pphosted.net"),
    ] {
        let mut cfg = SmtpServerConfig::plain(host);
        cfg.ehlo_host = host.to_string();
        b.smtp_host(ip.parse().unwrap(), cfg);
    }
    b.announce("198.51.100.0/24".parse().unwrap(), 22843);
    let net = b.build();

    // Measure over the wire.
    let domain = mxmap::dns::Name::parse("acme-corp.com").unwrap();
    let dns = mxmap::net::openintel::measure(&net, std::slice::from_ref(&domain));
    let row = &dns.rows[&domain];
    assert_eq!(row.targets().len(), 2);
    assert_eq!(row.primary_targets().len(), 1, "pref 10 beats pref 20");

    let ips = dns.all_mx_ips();
    let scan = mxmap::net::Scanner::new().scan(&net, &ips, 0);
    assert!(ips.iter().all(|&ip| scan.data(ip).is_some()), "scanned");
    let now = net.clock().now();
    let table = ips
        .iter()
        .map(|&ip| {
            let o =
                IpObservation::from_scan(ip, net.asn_of(ip), scan.get(ip), &TrustStore::new(), now);
            (ip, (o, scan.acquisition(ip)))
        })
        .collect();
    let rows = dns
        .rows
        .into_iter()
        .map(|(domain, mx)| DomainObservation { domain, mx })
        .collect();
    let obs = ObservationSet::from_rows(rows, &table);

    // Inference attributes the domain to the filtering provider.
    let result = Pipeline::new(Strategy::PriorityBased).run(&obs);
    let a = &result.domains[&domain];
    assert_eq!(a.sole_provider().unwrap().as_str(), "pphosted.net");
    assert!(a.has_smtp);

    // And the SPF policy (resolved over the same network) reveals the
    // eventual backend behind the filter.
    let resolver = net.resolver();
    let txt = resolver.resolve(&domain, RecordType::Txt).unwrap();
    let spf = txt
        .iter()
        .find_map(|r| match &r.rdata {
            mxmap::dns::RData::Txt(ss) => SpfRecord::parse(&ss.join("")),
            _ => None,
        })
        .expect("SPF present");
    let psl = mxmap::psl::PublicSuffixList::builtin();
    let eventual = mxmap::infer::eventual_providers(&spf, "acme-corp.com", &psl);
    let names: Vec<&str> = eventual.iter().map(|p| p.as_str()).collect();
    assert!(names.contains(&"outlook.com"), "{names:?}");
    assert!(names.contains(&"pphosted.net"));
}
