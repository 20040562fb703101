//! Property-based tests: arbitrary messages survive an encode/decode round
//! trip, names compress losslessly, the decoder is total on arbitrary
//! bytes, and decoding is *stable*: re-encoding a decoded message and
//! decoding again yields the same message.
//!
//! The generators are hand-rolled over [`mx_rng`] (the build is offline,
//! so no `proptest`); every case derives from an explicit seed, so a
//! failure report's case number reproduces exactly.

use std::net::Ipv4Addr;

use mx_dns::{
    dns_name, Message, Name, RData, Record, RecordType, WireReader, WireWriter, Zone, ZoneLookup,
};
use mx_rng::SmallRng;

const CASES: u64 = 256;

/// `[a-z]([a-z0-9_-]{0,10}[a-z0-9])?` — a valid DNS label.
fn gen_label(rng: &mut SmallRng) -> String {
    const FIRST: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    const MID: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_-";
    const LAST: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
    let mut s = String::new();
    s.push(*rng.choose(FIRST).unwrap() as char);
    if rng.gen_bool(0.8) {
        for _ in 0..rng.gen_range(0..10usize) {
            s.push(*rng.choose(MID).unwrap() as char);
        }
        s.push(*rng.choose(LAST).unwrap() as char);
    }
    s
}

fn gen_name(rng: &mut SmallRng) -> Name {
    let n = rng.gen_range(0..5usize);
    let labels: Vec<String> = (0..n).map(|_| gen_label(rng)).collect();
    Name::parse(&labels.join(".")).expect("generated labels are valid")
}

fn gen_ipv4(rng: &mut SmallRng) -> Ipv4Addr {
    Ipv4Addr::from(rng.next_u32())
}

fn gen_printable(rng: &mut SmallRng, max: usize) -> String {
    let n = rng.gen_range(0..=max);
    (0..n)
        .map(|_| char::from(rng.gen_range(0x20u8..=0x7E)))
        .collect()
}

fn gen_rdata(rng: &mut SmallRng) -> RData {
    match rng.gen_range(0..8u32) {
        0 => RData::A(gen_ipv4(rng)),
        1 => {
            let hi = (rng.next_u64() as u128) << 64;
            RData::Aaaa((hi | rng.next_u64() as u128).into())
        }
        2 => RData::Ns(gen_name(rng)),
        3 => RData::Cname(gen_name(rng)),
        4 => RData::Ptr(gen_name(rng)),
        5 => RData::Mx {
            preference: rng.gen_range(0..=u16::MAX),
            exchange: gen_name(rng),
        },
        6 => {
            let n = rng.gen_range(1..3usize);
            RData::Txt((0..n).map(|_| gen_printable(rng, 40)).collect())
        }
        // Range chosen to avoid codes the decoder parses structurally.
        _ => RData::Opaque {
            rtype: rng.gen_range(100u16..200),
            data: (0..rng.gen_range(0..32usize))
                .map(|_| (rng.next_u32() & 0xFF) as u8)
                .collect(),
        },
    }
}

fn gen_record(rng: &mut SmallRng) -> Record {
    Record::new(gen_name(rng), rng.gen_range(0u32..1_000_000), gen_rdata(rng))
}

fn gen_message(rng: &mut SmallRng) -> Message {
    let mut m = Message::query(rng.gen_range(0..=u16::MAX), gen_name(rng), RecordType::Mx);
    m.header.qr = rng.gen_bool(0.5);
    m.header.aa = rng.gen_bool(0.5);
    m.answers = (0..rng.gen_range(0..6usize)).map(|_| gen_record(rng)).collect();
    m.authorities = (0..rng.gen_range(0..3usize)).map(|_| gen_record(rng)).collect();
    m.additionals = (0..rng.gen_range(0..3usize)).map(|_| gen_record(rng)).collect();
    m
}

/// Encode → decode is the identity on messages.
#[test]
fn message_roundtrip() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xD25_0001 ^ case);
        let m = gen_message(&mut rng);
        let bytes = m.encode().unwrap();
        let m2 = Message::decode(&bytes).unwrap();
        assert_eq!(m, m2, "case {case}");
    }
}

/// A sequence of names, encoded with compression into one buffer,
/// decodes back to the same sequence.
#[test]
fn name_sequence_roundtrip() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xD25_0002 ^ case);
        let names: Vec<Name> = (0..rng.gen_range(1..12usize))
            .map(|_| gen_name(&mut rng))
            .collect();
        let mut w = WireWriter::new();
        for n in &names {
            w.put_name(n).unwrap();
        }
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        for n in &names {
            assert_eq!(&r.get_name().unwrap(), n, "case {case}");
        }
        assert_eq!(r.remaining(), 0, "case {case}");
    }
}

/// Compression never grows the encoding beyond the uncompressed form.
#[test]
fn compression_never_expands() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xD25_0003 ^ case);
        let names: Vec<Name> = (0..rng.gen_range(1..10usize))
            .map(|_| gen_name(&mut rng))
            .collect();
        let mut wc = WireWriter::new();
        let mut wu = WireWriter::new();
        for n in &names {
            wc.put_name(n).unwrap();
            wu.put_name_uncompressed(n).unwrap();
        }
        assert!(wc.len() <= wu.len(), "case {case}");
    }
}

/// The message decoder is total: arbitrary bytes never panic.
#[test]
fn decoder_is_total() {
    for case in 0..4 * CASES {
        let mut rng = SmallRng::seed_from_u64(0xD25_0004 ^ case);
        let len = rng.gen_range(0..200usize);
        let bytes: Vec<u8> = (0..len).map(|_| (rng.next_u32() & 0xFF) as u8).collect();
        let _ = Message::decode(&bytes);
    }
}

/// The name decoder is total on arbitrary bytes, including bytes that
/// start with valid-looking label lengths and compression pointers.
#[test]
fn name_decoder_is_total() {
    for case in 0..4 * CASES {
        let mut rng = SmallRng::seed_from_u64(0xD25_0005 ^ case);
        let len = rng.gen_range(0..80usize);
        let mut bytes: Vec<u8> = (0..len).map(|_| (rng.next_u32() & 0xFF) as u8).collect();
        // Half the cases: bias the first byte towards plausible labels
        // or pointer tags so the parser gets deeper before failing.
        if rng.gen_bool(0.5) && !bytes.is_empty() {
            bytes[0] = if rng.gen_bool(0.5) {
                rng.gen_range(1u8..=63)
            } else {
                0xC0 | rng.gen_range(0u8..=0x3F)
            };
        }
        let mut r = WireReader::new(&bytes);
        let _ = r.get_name();
    }
}

/// Decode is *stable*: when arbitrary bytes do decode, re-encoding the
/// result and decoding again is a fixed point (`decode ∘ encode ∘ decode
/// = decode`). This is the canonicalization property the measurement
/// pipeline relies on when it stores and replays observed messages.
#[test]
fn decode_encode_decode_is_stable() {
    let mut decoded_ok = 0u32;
    for case in 0..16 * CASES {
        let mut rng = SmallRng::seed_from_u64(0xD25_0006 ^ case);
        // Mix pure-random bytes with mutated valid encodings so a useful
        // fraction decodes successfully.
        let bytes: Vec<u8> = if rng.gen_bool(0.5) {
            let m = gen_message(&mut rng);
            let mut b = m.encode().unwrap();
            // Flip up to 3 bytes.
            for _ in 0..rng.gen_range(0..4u32) {
                if b.is_empty() {
                    break;
                }
                let i = rng.gen_range(0..b.len());
                b[i] = (rng.next_u32() & 0xFF) as u8;
            }
            b
        } else {
            (0..rng.gen_range(0..120usize))
                .map(|_| (rng.next_u32() & 0xFF) as u8)
                .collect()
        };
        if let Ok(m1) = Message::decode(&bytes) {
            decoded_ok += 1;
            let re = m1.encode().unwrap();
            let m2 = Message::decode(&re).unwrap();
            assert_eq!(m1, m2, "case {case}: decode∘encode∘decode not stable");
        }
    }
    assert!(decoded_ok > 100, "only {decoded_ok} cases decoded; generator too weak");
}

/// Zone lookups: any added (name, A) pair is found, and unknown
/// siblings under the same zone yield NXDOMAIN or NODATA, never a panic.
#[test]
fn zone_lookup_total() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xD25_0007 ^ case);
        let labels: Vec<String> = (0..rng.gen_range(1..20usize))
            .map(|_| gen_label(&mut rng))
            .collect();
        let probe = gen_label(&mut rng);
        let origin = dns_name!("zone.test");
        let mut z = Zone::new(origin.clone());
        for l in &labels {
            let name = origin.child(l).unwrap();
            z.add_rr(name, 300, RData::A(Ipv4Addr::new(192, 0, 2, 1)));
        }
        for l in &labels {
            let name = origin.child(l).unwrap();
            match z.lookup(&name, RecordType::A) {
                ZoneLookup::Answer(rs) => assert!(!rs.is_empty(), "case {case}"),
                other => panic!("case {case}: {other:?}"),
            }
        }
        let r = z.lookup(&origin.child(&probe).unwrap(), RecordType::A);
        assert!(
            matches!(r, ZoneLookup::Answer(_) | ZoneLookup::NxDomain | ZoneLookup::NoData),
            "case {case}: {r:?}"
        );
    }
}

/// Any generated zone survives a master-file round trip.
#[test]
fn master_file_roundtrip() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xD25_0008 ^ case);
        let origin = dns_name!("prop.example");
        let mut zone = Zone::new(origin.clone());
        for _ in 0..rng.gen_range(0..15usize) {
            let label = gen_label(&mut rng);
            let ttl = rng.gen_range(60u32..86_400);
            let rdata = match rng.gen_range(0..4u32) {
                0 => RData::A(gen_ipv4(&mut rng)),
                1 => RData::Mx {
                    preference: rng.gen_range(0u16..100),
                    exchange: Name::parse(&format!("{}.prop.example", gen_label(&mut rng)))
                        .unwrap(),
                },
                2 => {
                    // Printable ASCII without '"' (master-file quoting).
                    let s: String = gen_printable(&mut rng, 30).replace('"', "x");
                    RData::Txt(vec![s])
                }
                _ => RData::Cname(
                    Name::parse(&format!("{}.prop.example", gen_label(&mut rng))).unwrap(),
                ),
            };
            zone.add_rr(origin.child(&label).unwrap(), ttl, rdata);
        }
        let text = mx_dns::to_master(&zone);
        let reparsed = mx_dns::parse_zone(&text).unwrap();
        assert_eq!(reparsed.origin(), zone.origin(), "case {case}");
        let norm = |z: &Zone| {
            let mut v: Vec<String> = z.iter().map(|r| r.to_string()).collect();
            v.sort();
            v
        };
        assert_eq!(norm(&reparsed), norm(&zone), "case {case}");
    }
}

/// A small label pool so generated names often share suffixes, and
/// sometimes share bytes without sharing a label boundary (`ab` / `b`).
const POOL: &[&str] = &["a", "b", "ab", "ba", "a-b", "_x", "com", "example", "*"];

/// A name through `Name::parse`, in random case, with its reference
/// labels.
fn gen_parsed(rng: &mut SmallRng) -> (Name, Vec<String>) {
    let n = rng.gen_range(0..5usize);
    let labels: Vec<String> = (0..n)
        .map(|_| {
            if rng.gen_bool(0.7) {
                rng.choose(POOL).unwrap().to_string()
            } else {
                gen_label(rng)
            }
        })
        .collect();
    let dotted: String = labels
        .join(".")
        .chars()
        .map(|c| {
            if rng.gen_bool(0.5) {
                c.to_ascii_uppercase()
            } else {
                c
            }
        })
        .collect();
    let name = Name::parse(&dotted).expect("generated labels are valid");
    (name, labels)
}

/// A name through the wire decoder, whose labels may hold `.`, upper
/// case and invalid UTF-8, with its reference labels (lossy text,
/// ASCII-lower-cased). `None` when the name is over the length limit.
fn gen_decoded(rng: &mut SmallRng) -> Option<(Name, Vec<String>)> {
    let n = rng.gen_range(0..5usize);
    let mut wire = Vec::new();
    let mut labels = Vec::new();
    for _ in 0..n {
        let raw: Vec<u8> = match rng.gen_range(0..4u32) {
            0 => rng.choose(POOL).unwrap().as_bytes().to_vec(),
            1 => b"X.y".to_vec(),
            2 => (0..rng.gen_range(1..40usize))
                .map(|_| rng.gen_range(0x80u8..=0xFF))
                .collect(),
            _ => (0..rng.gen_range(1..8usize))
                .map(|_| rng.gen_range(0x21u8..=0x7E))
                .collect(),
        };
        wire.push(raw.len() as u8);
        wire.extend_from_slice(&raw);
        labels.push(String::from_utf8_lossy(&raw).to_ascii_lowercase());
    }
    wire.push(0);
    let decoded = WireReader::new(&wire).get_name();
    let wire_len = 1 + labels.iter().map(|l| l.len() + 1).sum::<usize>();
    if wire_len > 255 {
        assert!(decoded.is_err(), "over-long decoded name accepted");
        return None;
    }
    Some((decoded.expect("in-limit name decodes"), labels))
}

fn gen_any(rng: &mut SmallRng) -> (Name, Vec<String>) {
    loop {
        if rng.gen_bool(0.5) {
            return gen_parsed(rng);
        }
        if let Some(d) = gen_decoded(rng) {
            return d;
        }
    }
}

fn hash_of(n: &Name) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    n.hash(&mut h);
    h.finish()
}

/// The reference labels of a constructed name, `None` when it failed.
fn labels_of(n: Result<Name, mx_dns::NameError>) -> Option<Vec<String>> {
    n.ok().map(|n| n.labels().map(str::to_string).collect())
}

/// The reference labels if they fit in 255 wire bytes.
fn if_fits(labels: Vec<String>) -> Option<Vec<String>> {
    (1 + labels.iter().map(|l| l.len() + 1).sum::<usize>() <= 255).then_some(labels)
}

/// `Name` against a `Vec<String>` reference model: order, equality,
/// hashing, hierarchy and construction all agree, for parsed names in
/// any case and for wire-decoded names with odd label bytes.
#[test]
fn name_matches_label_vector_oracle() {
    for case in 0..4 * CASES {
        let mut rng = SmallRng::seed_from_u64(0x0A_C1E0 ^ case);
        let (a, ra) = gen_any(&mut rng);
        let (b, rb) = gen_any(&mut rng);
        let ctx = format!("case {case}: {ra:?} vs {rb:?}");

        assert_eq!(a.labels().collect::<Vec<_>>(), ra, "{ctx}: labels");
        assert_eq!(a.label_count(), ra.len(), "{ctx}: label count");
        let dotted = if ra.is_empty() {
            ".".to_string()
        } else {
            ra.join(".")
        };
        assert_eq!(a.to_string(), dotted, "{ctx}: display");
        let chunks: Vec<u8> = a.dotted_chunks().flatten().copied().collect();
        assert_eq!(chunks, dotted.as_bytes(), "{ctx}: dotted chunks");

        // Canonical order: labels right to left, shorter suffix first.
        let want = ra.iter().rev().cmp(rb.iter().rev());
        assert_eq!(a.cmp(&b), want, "{ctx}: order");
        assert_eq!(a == b, want.is_eq(), "{ctx}: eq agrees with cmp");
        if a == b {
            assert_eq!(hash_of(&a), hash_of(&b), "{ctx}: hash");
        }

        // Hierarchy respects label boundaries, not byte suffixes.
        let sub = rb.len() <= ra.len() && ra[ra.len() - rb.len()..] == rb[..];
        assert_eq!(a.is_subdomain_of(&b), sub, "{ctx}: is_subdomain_of");
        assert_eq!(
            a.is_strict_subdomain_of(&b),
            sub && ra.len() > rb.len(),
            "{ctx}: is_strict_subdomain_of"
        );

        // parent / child / join match the reference.
        match a.parent() {
            None => assert!(ra.is_empty(), "{ctx}: parent"),
            Some(p) => assert_eq!(p.labels().collect::<Vec<_>>(), ra[1..], "{ctx}: parent"),
        }
        let mut rc = vec!["mx1".to_string()];
        rc.extend(ra.iter().cloned());
        assert_eq!(labels_of(a.child("MX1")), if_fits(rc), "{ctx}: child");
        let mut rj = ra.clone();
        rj.extend(rb.iter().cloned());
        assert_eq!(labels_of(a.join(&b)), if_fits(rj), "{ctx}: join");
        assert_eq!(
            a.first_label(),
            ra.first().map(String::as_str),
            "{ctx}: first label"
        );
        assert_eq!(
            a.is_wildcard(),
            ra.first().is_some_and(|l| l == "*"),
            "{ctx}: is_wildcard"
        );

        // The dotted form parses back whenever every label is parseable.
        let parseable = ra.iter().all(|l| {
            l.bytes()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'-' | b'_' | b'*'))
        });
        if parseable {
            assert_eq!(Name::parse(&a.to_string()).as_ref(), Ok(&a), "{ctx}: parse");
        }

        // Encoding round-trips; a label stretched past 63 bytes by lossy
        // decoding still fails to encode.
        let mut w = WireWriter::new();
        match w.put_name(&a) {
            Ok(()) => {
                assert!(
                    ra.iter().all(|l| l.len() <= 63),
                    "{ctx}: long label encoded"
                );
                let bytes = w.into_bytes();
                assert_eq!(WireReader::new(&bytes).get_name().as_ref(), Ok(&a), "{ctx}");
            }
            Err(_) => assert!(ra.iter().any(|l| l.len() > 63), "{ctx}: encode failed"),
        }
    }
}
