//! Property tests for the inference crate: total parsers, invariant
//! weights, deterministic pipelines.
//!
//! Deterministic seeded generators over [`mx_rng`] replace `proptest`
//! (offline build); each failure message carries the case number.

use std::net::Ipv4Addr;

use mx_dns::Name;
use mx_infer::Strategy as InferStrategy;
use mx_infer::{
    DomainObservation, IpObservation, MxObservation, MxTarget, ObservationSet, Pattern,
    Pipeline, ScanStatus, SpfRecord,
};
use mx_rng::SmallRng;
use mx_smtp::{SmtpScanData, StartTlsOutcome};

const CASES: u64 = 128;

fn gen_lower(rng: &mut SmallRng, min: usize, max: usize) -> String {
    let n = rng.gen_range(min..=max);
    (0..n)
        .map(|_| char::from(rng.gen_range(b'a'..=b'z')))
        .collect()
}

/// `[a-z]{1,8}(\.[a-z]{1,8}){1,2}`.
fn gen_name(rng: &mut SmallRng) -> Name {
    let extra = rng.gen_range(1..=2usize);
    let mut s = gen_lower(rng, 1, 8);
    for _ in 0..extra {
        s.push('.');
        s.push_str(&gen_lower(rng, 1, 8));
    }
    Name::parse(&s).unwrap()
}

fn gen_printable(rng: &mut SmallRng, max: usize) -> String {
    let n = rng.gen_range(0..=max);
    (0..n)
        .map(|_| char::from(rng.gen_range(0x20u8..=0x7E)))
        .collect()
}

fn gen_scan(rng: &mut SmallRng) -> ScanStatus {
    match rng.gen_range(0..3u32) {
        0 => ScanStatus::NotCovered,
        1 => ScanStatus::NoSmtp,
        _ => ScanStatus::Smtp(SmtpScanData {
            banner: gen_printable(rng, 40),
            ehlo: if rng.gen_bool(0.5) {
                Some(gen_printable(rng, 40))
            } else {
                None
            },
            ehlo_keywords: vec![],
            starttls: StartTlsOutcome::NotOffered,
        }),
    }
}

fn gen_observation_set(rng: &mut SmallRng) -> ObservationSet {
    let mut set = ObservationSet::new();
    let mut seen = std::collections::HashSet::new();
    for _ in 0..rng.gen_range(0..12usize) {
        let domain = gen_name(rng);
        if !seen.insert(domain.clone()) {
            continue;
        }
        let targets: Vec<MxTarget> = (0..rng.gen_range(0..4usize))
            .map(|_| MxTarget {
                preference: rng.gen_range(0u16..50),
                exchange: gen_name(rng),
                addrs: (0..rng.gen_range(0..3usize))
                    .map(|_| Ipv4Addr::from(rng.next_u32()))
                    .collect(),
            })
            .collect();
        let mx = if targets.is_empty() {
            MxObservation::NoMx
        } else {
            MxObservation::Targets(targets)
        };
        set.domains.push(DomainObservation { domain, mx });
    }
    for _ in 0..rng.gen_range(0..12usize) {
        let ip = Ipv4Addr::from(rng.next_u32());
        let scan = gen_scan(rng);
        set.ips.insert(
            ip,
            IpObservation {
                ip,
                asn: None,
                scan,
                leaf_cert: None,
                cert_valid: false,
            },
        );
    }
    set
}

/// The SPF parser is total over arbitrary text.
#[test]
fn spf_parser_total() {
    for case in 0..4 * CASES {
        let mut rng = SmallRng::seed_from_u64(0xC03E_0001 ^ case);
        let txt = gen_printable(&mut rng, 120);
        let _ = SpfRecord::parse(&txt);
        let spf = format!("v=spf1 {txt}");
        if let Some(r) = SpfRecord::parse(&spf) {
            // Referenced domains are all lower-case tokens from the input.
            for d in r.referenced_domains() {
                let lower = d.to_ascii_lowercase();
                assert_eq!(d, lower.as_str(), "case {case}");
            }
        }
    }
}

/// The glob matcher is total and literal patterns match themselves.
#[test]
fn pattern_total_and_literal() {
    const PAT: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789.#*-";
    const TEXT: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789.-";
    for case in 0..4 * CASES {
        let mut rng = SmallRng::seed_from_u64(0xC03E_0002 ^ case);
        let pat: String = (0..rng.gen_range(0..=30usize))
            .map(|_| *rng.choose(PAT).unwrap() as char)
            .collect();
        let text: String = (0..rng.gen_range(0..=30usize))
            .map(|_| *rng.choose(TEXT).unwrap() as char)
            .collect();
        let p = Pattern::new(pat.clone());
        let _ = p.matches(&text);
        if !pat.contains('*') && !pat.contains('#') {
            assert!(p.matches(&pat), "case {case}: literal {pat:?}");
        }
    }
}

/// Every strategy, on arbitrary observation sets: runs to completion,
/// attributes every domain, and share weights per domain sum to 1 (or
/// are empty for MX-less domains).
#[test]
fn pipeline_total_and_weights_sum() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xC03E_0003 ^ case);
        let obs = gen_observation_set(&mut rng);
        for strategy in InferStrategy::ALL {
            let result = Pipeline::new(strategy).run(&obs);
            assert_eq!(result.domains.len(), obs.domains.len(), "case {case}");
            for d in &obs.domains {
                let a = result.domain(&d.domain).unwrap();
                match d.mx {
                    MxObservation::Targets(_) => {
                        let sum: f64 = a.shares.iter().map(|s| s.weight).sum();
                        assert!(
                            a.shares.is_empty() || (sum - 1.0).abs() < 1e-9,
                            "case {case}: weights sum {sum}"
                        );
                    }
                    _ => assert!(a.shares.is_empty(), "case {case}"),
                }
            }
        }
    }
}

/// The pipeline is a pure function of its input.
#[test]
fn pipeline_deterministic() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xC03E_0004 ^ case);
        let obs = gen_observation_set(&mut rng);
        let a = Pipeline::new(InferStrategy::PriorityBased).run(&obs);
        let b = Pipeline::new(InferStrategy::PriorityBased).run(&obs);
        let norm = |r: &mx_infer::InferenceResult| {
            let mut v: Vec<(String, String)> = r
                .domains
                .iter()
                .map(|(d, a)| {
                    (
                        d.to_string(),
                        a.shares
                            .iter()
                            .map(|s| format!("{}:{}", s.provider, s.weight))
                            .collect::<Vec<_>>()
                            .join("|"),
                    )
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(norm(&a), norm(&b), "case {case}");
    }
}

/// MX-only inference never depends on scan data: erasing all scans
/// leaves its result unchanged.
#[test]
fn mx_only_ignores_scans() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xC03E_0005 ^ case);
        let obs = gen_observation_set(&mut rng);
        let with = Pipeline::new(InferStrategy::MxOnly).run(&obs);
        let mut stripped = obs.clone();
        for o in stripped.ips.values_mut() {
            o.scan = ScanStatus::NotCovered;
            o.leaf_cert = None;
            o.cert_valid = false;
        }
        let without = Pipeline::new(InferStrategy::MxOnly).run(&stripped);
        for d in &obs.domains {
            let a = with.domain(&d.domain).unwrap();
            let b = without.domain(&d.domain).unwrap();
            assert_eq!(
                a.shares.iter().map(|s| &s.provider).collect::<Vec<_>>(),
                b.shares.iter().map(|s| &s.provider).collect::<Vec<_>>(),
                "case {case}"
            );
        }
    }
}
