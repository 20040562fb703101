//! Malformed-input regression tests for the untrusted-input parsers.
//!
//! Every case here is a shape an Internet-facing scanner actually sees:
//! truncated UDP payloads, compression-pointer loops, oversized labels,
//! nonsense SMTP codes. The contract under test is the one `mx-lint`
//! enforces statically: parsers return `Err`/`None`, they never panic.

use mx_dns::{dns_name, Message, Name, NameError, RecordType, WireError, WireReader};
use mx_smtp::{Reply, ReplyCode};

fn sample_response_bytes() -> Vec<u8> {
    let mut q = Message::query(0x4d58, dns_name!("example.com"), RecordType::Mx);
    q.header.qr = true;
    q.answers.push(mx_dns::Record::new(
        dns_name!("example.com"),
        3600,
        mx_dns::RData::Mx {
            preference: 10,
            exchange: dns_name!("aspmx.l.google.com"),
        },
    ));
    q.encode().expect("valid message encodes")
}

/// Every proper prefix of a valid message decodes to `Err`, never a
/// panic and never a bogus `Ok`.
#[test]
fn truncated_messages_error_cleanly() {
    let bytes = sample_response_bytes();
    for cut in 0..bytes.len() {
        let r = Message::decode(&bytes[..cut]);
        assert!(r.is_err(), "prefix of {cut} bytes decoded to {r:?}");
    }
    assert!(Message::decode(&bytes).is_ok());
}

/// A message whose header claims more records than the body carries.
#[test]
fn overclaimed_section_counts_error() {
    let mut bytes = sample_response_bytes();
    // ANCOUNT lives at bytes 6..8; claim 0xFFFF answers.
    bytes[6] = 0xFF;
    bytes[7] = 0xFF;
    assert!(matches!(Message::decode(&bytes), Err(WireError::Truncated)));
}

/// Compression pointers that point at themselves, forward, or at each
/// other must be rejected as `BadPointer` (RFC 1035 pointers may only
/// reference *prior* data).
#[test]
fn compression_pointer_loops_are_rejected() {
    // Self-loop: a pointer at offset 0 pointing to offset 0.
    let self_loop = [0xC0, 0x00];
    let mut r = WireReader::new(&self_loop);
    assert!(matches!(r.get_name(), Err(WireError::BadPointer)));

    // Forward pointer.
    let forward = [0xC0, 0x04, 0x00, 0x00, 0x01, b'a', 0x00];
    let mut r = WireReader::new(&forward);
    assert!(matches!(r.get_name(), Err(WireError::BadPointer)));

    // Mutual loop: label "a" then pointer to 4, which points back to 0.
    let mutual = [0x01, b'a', 0xC0, 0x04, 0xC0, 0x00];
    let mut r = WireReader::new(&mutual[..]);
    let start4 = &mutual[4..];
    let mut r4 = WireReader::new(start4);
    assert!(r.get_name().is_err());
    assert!(r4.get_name().is_err());
}

/// A pointer with no second byte is truncation, not a crash.
#[test]
fn dangling_pointer_byte_is_truncated() {
    let mut r = WireReader::new(&[0xC0]);
    assert!(matches!(r.get_name(), Err(WireError::Truncated)));
}

/// Label length octets above 63 use the reserved 0x40/0x80 tag space and
/// must be rejected, matching the textual parser's 63-byte label cap.
#[test]
fn oversized_labels_rejected_on_wire_and_in_text() {
    // 64 is the smallest invalid plain-label length.
    let mut bytes = vec![64u8];
    bytes.extend(std::iter::repeat(b'x').take(64));
    bytes.push(0);
    let mut r = WireReader::new(&bytes);
    assert!(matches!(r.get_name(), Err(WireError::BadLabelLength(_))));

    let long_label = "x".repeat(64);
    assert!(matches!(
        Name::parse(&format!("{long_label}.com")),
        Err(NameError::LabelTooLong(_))
    ));
    // 63 is still fine.
    assert!(Name::parse(&format!("{}.com", "x".repeat(63))).is_ok());
}

/// A name assembled from max-length labels that exceeds 255 wire bytes
/// total is rejected even though each label is individually valid.
#[test]
fn overlong_names_rejected() {
    let long = vec!["abcdefgh"; 32].join(".");
    assert!(matches!(Name::parse(&long), Err(NameError::NameTooLong)));
}

/// SMTP reply codes outside 1xx–5xx (and non-numeric garbage) must parse
/// to `None`/`Err`, never panic.
#[test]
fn out_of_range_smtp_reply_codes_rejected() {
    for line in [
        "600 not a real class",
        "999 nope",
        "000 zero",
        "042 too low",
        "abc letters",
        "25",
        "",
        "250x bad separator",
    ] {
        assert_eq!(Reply::parse_line(line), None, "line {line:?}");
    }
    assert!(Reply::parse(&["600 no such class"]).is_err());
    assert!(Reply::parse(&[]).is_err());
    // Sanity: the happy path still parses.
    assert_eq!(
        Reply::parse_line("250 OK"),
        Some((ReplyCode(250), true, "OK"))
    );
    assert_eq!(
        Reply::parse_line("250-continues"),
        Some((ReplyCode(250), false, "continues"))
    );
}

/// Mixed codes and marker mismatches inside one reply are inconsistent.
#[test]
fn inconsistent_multiline_replies_rejected() {
    assert!(Reply::parse(&["250-first", "550 second"]).is_err());
    assert!(Reply::parse(&["250-first", "250-second"]).is_err());
    assert!(Reply::parse(&["250 done", "250 extra"]).is_err());
}

/// Multibyte UTF-8 in a reply line must not slice mid-character.
#[test]
fn multibyte_reply_lines_do_not_panic() {
    assert_eq!(Reply::parse_line("é50 nope"), None);
    let _ = Reply::parse_line("250 caf\u{e9} au lait");
    let _ = Reply::parse_line("25\u{30a2} bad");
}

// ---------------------------------------------------------------------
// mx-store: the snapshot store decoder is held to the same contract as
// the wire parsers — corrupted files yield typed `StoreError`s, never a
// panic and never a silently-wrong `Ok`. The cases below hand-assemble
// store bytes field by field so each corruption targets one invariant:
// the header, the interned tables and epoch layers, and the index
// footer (dictionary, summary, rollup, postings, digest), which is
// decoded from the same untrusted bytes.

mod store_bytes {
    use mx_store::format::{write_str, MAGIC, SCHEMA};
    use mx_store::varint::write_u64;

    /// Knobs for one hand-assembled single-epoch store file. The
    /// default is valid; every corruption case differs from it in one
    /// field. Footer sections hold their content only: the length frame
    /// always reflects the actual bytes, so corruption targets the
    /// decoder, not the framing.
    pub struct Spec {
        pub magic: [u8; 4],
        pub version: u16,
        pub schema: &'static str,
        /// Restart-interval header byte.
        pub interval: u8,
        /// Company link of the single provider (0 = none; 2 points past
        /// the empty company table).
        pub provider_company: u64,
        /// Interned provider index inside each share (only 0 is valid:
        /// the table has one entry).
        pub share_provider: u64,
        pub share_source: u8,
        /// Row entries: (prefix_len, suffix, tag).
        pub entries: Vec<(u64, &'static str, u8)>,
        /// Raw override for the entry-count varint.
        pub entry_count_bytes: Option<Vec<u8>>,
        /// Sidecar body (defaults to zero IPs, zero domains).
        pub sidecar: Vec<u8>,
        pub dict: Vec<u8>,
        pub summary: Vec<u8>,
        pub rollup: Vec<u8>,
        pub postings: Vec<u8>,
        pub digest: Vec<u8>,
        /// Junk appended after the footer.
        pub trailing: Vec<u8>,
    }

    impl Default for Spec {
        fn default() -> Self {
            Spec {
                magic: *MAGIC,
                version: mx_store::VERSION,
                schema: SCHEMA,
                interval: 16,
                provider_company: 0,
                share_provider: 0,
                share_source: 0,
                entries: vec![(0, "a.test", 1), (0, "b.test", 1)],
                entry_count_bytes: None,
                sidecar: {
                    let mut s = Vec::new();
                    write_u64(&mut s, 0); // IP records
                    write_u64(&mut s, 0); // DNS records
                    s
                },
                dict: dict_section(),
                summary: summary_section(2, 2.0),
                rollup: rollup_section(),
                postings: postings_section(),
                digest: digest_section(),
                trailing: Vec::new(),
            }
        }
    }

    fn bits(w: f64) -> [u8; 8] {
        w.to_bits().to_le_bytes()
    }

    /// Valid dictionary: the two row names in byte order.
    pub fn dict_section() -> Vec<u8> {
        let mut s = Vec::new();
        write_u64(&mut s, 2);
        for name in ["a.test", "b.test"] {
            write_u64(&mut s, 0); // no shared prefix
            write_u64(&mut s, name.len() as u64);
            s.extend_from_slice(name.as_bytes());
        }
        s
    }

    /// Valid summary: 2 rows total, provider 0 on both with weight 2.0.
    pub fn summary_section(rows: u64, weight: f64) -> Vec<u8> {
        let mut s = Vec::new();
        write_u64(&mut s, 2); // total rows in the resolved view
        write_u64(&mut s, 1); // one provider entry
        write_u64(&mut s, 0); // pid
        write_u64(&mut s, rows);
        s.extend_from_slice(&bits(weight));
        s
    }

    /// Valid rollup: one long-tail provider credit worth 2.0.
    pub fn rollup_section() -> Vec<u8> {
        let mut s = Vec::new();
        write_u64(&mut s, 1);
        s.push(1); // kind: provider credit
        write_u64(&mut s, 0); // provider 0
        s.extend_from_slice(&bits(2.0));
        s
    }

    /// Valid postings: provider 0 → docs {0, 1} (gap-encoded).
    pub fn postings_section() -> Vec<u8> {
        let mut s = Vec::new();
        write_u64(&mut s, 1); // one provider
        write_u64(&mut s, 0); // pid
        write_u64(&mut s, 2); // doc count
        write_u64(&mut s, 0); // first doc
        write_u64(&mut s, 1); // gap to doc 1
        s
    }

    /// Valid digest: both rows SMTP-positive, credited to provider 0.
    pub fn digest_section() -> Vec<u8> {
        let mut s = Vec::new();
        for (gap, flags, credit) in [(0u64, 13u8, 0u64), (1, 13, 0)] {
            write_u64(&mut s, gap);
            s.push(flags); // SMTP | HAS_CREDIT | CREDIT_PROVIDER
            write_u64(&mut s, credit);
        }
        s
    }

    /// Assemble the bytes: header, one provider (`p.test`), no
    /// companies, one base epoch of `spec.entries` rows (one weight-1.0
    /// share each), the given sidecar, the dictionary and the epoch's
    /// four index sections, then any trailing junk.
    pub fn build(spec: Spec) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&spec.magic);
        out.extend_from_slice(&spec.version.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes());
        write_str(&mut out, spec.schema);
        out.push(spec.interval);

        write_u64(&mut out, 1); // provider table
        write_str(&mut out, "p.test");
        write_u64(&mut out, 0); // company table
        write_u64(&mut out, spec.provider_company);

        write_u64(&mut out, 1); // epoch count
        write_str(&mut out, "2021-06");
        out.push(0); // kind: base

        let mut rows = Vec::new();
        match &spec.entry_count_bytes {
            Some(raw) => rows.extend_from_slice(raw),
            None => write_u64(&mut rows, spec.entries.len() as u64),
        }
        for (prefix, suffix, tag) in &spec.entries {
            write_u64(&mut rows, *prefix);
            write_u64(&mut rows, suffix.len() as u64);
            rows.extend_from_slice(suffix.as_bytes());
            rows.push(*tag);
            if *tag != 2 {
                write_u64(&mut rows, 1); // one share
                write_u64(&mut rows, spec.share_provider);
                rows.extend_from_slice(&bits(1.0));
                rows.push(spec.share_source);
            }
        }
        for section in [
            &rows,
            &spec.sidecar,
            &spec.dict,
            &spec.summary,
            &spec.rollup,
            &spec.postings,
            &spec.digest,
        ] {
            write_u64(&mut out, section.len() as u64);
            out.extend_from_slice(section);
        }
        out.extend_from_slice(&spec.trailing);
        out
    }
}

use mx_store::{StoreError, StoreReader};
use store_bytes::{build, Spec};

/// The hand-assembled baseline is valid — every corruption case below
/// differs from it in exactly one field — and its epoch layers answer
/// point lookups.
#[test]
fn hand_assembled_store_opens() {
    let bytes = build(Spec::default());
    let reader = StoreReader::open(&bytes).expect("baseline opens");
    assert_eq!(reader.epoch_count(), 1);
    assert_eq!(reader.providers(), ["p.test"]);
    let row = reader.lookup("a.test", 0).unwrap().expect("row present");
    assert_eq!(row.shares().next().unwrap().provider, "p.test");
}

/// The baseline's index footer agrees with its epoch layers under full
/// recomputation and answers the reverse query.
#[test]
fn hand_assembled_v2_store_opens_and_verifies() {
    let bytes = build(Spec::default());
    let reader = StoreReader::open(&bytes).expect("baseline opens");
    reader.verify_indexes().expect("footer matches layers");
    assert_eq!(
        reader.domains_of_provider("p.test", 0).unwrap(),
        ["a.test", "b.test"]
    );
}

/// Bad magic, unknown versions (including the retired version 1) and a
/// wrong schema string each produce their own typed error, not a
/// generic failure.
#[test]
fn store_header_corruption_is_typed() {
    let bad_magic = build(Spec {
        magic: *b"NOPE",
        ..Spec::default()
    });
    assert_eq!(StoreReader::open(&bad_magic).unwrap_err(), StoreError::BadMagic);

    for version in [1u16, 9] {
        let bad_version = build(Spec {
            version,
            ..Spec::default()
        });
        assert_eq!(
            StoreReader::open(&bad_version).unwrap_err(),
            StoreError::UnsupportedVersion(version)
        );
    }

    let bad_schema = build(Spec {
        schema: "mx-store/999",
        ..Spec::default()
    });
    assert_eq!(StoreReader::open(&bad_schema).unwrap_err(), StoreError::BadSchema);
}

/// Interned indices pointing past their tables are caught at open, on
/// both the provider→company map and share→provider references.
#[test]
fn store_out_of_range_interning_rejected() {
    let bad_company = build(Spec {
        provider_company: 7, // company table is empty
        ..Spec::default()
    });
    assert_eq!(
        StoreReader::open(&bad_company).unwrap_err(),
        StoreError::BadIndex { what: "company" }
    );

    let bad_provider = build(Spec {
        share_provider: 5, // provider table has one entry
        ..Spec::default()
    });
    assert_eq!(
        StoreReader::open(&bad_provider).unwrap_err(),
        StoreError::BadIndex { what: "provider" }
    );
}

/// Varint overruns: an 11-byte continuation chain for the entry count
/// must error, not spin or wrap.
#[test]
fn store_varint_overrun_rejected() {
    let overrun = build(Spec {
        entry_count_bytes: Some(vec![0x80; 11]),
        ..Spec::default()
    });
    assert_eq!(
        StoreReader::open(&overrun).unwrap_err(),
        StoreError::VarintOverflow
    );
    // A count that decodes but promises more entries than the section
    // holds is truncation-class, still typed.
    let overclaim = build(Spec {
        entry_count_bytes: Some(vec![0xFF, 0xFF, 0x03]), // 65535
        ..Spec::default()
    });
    assert!(StoreReader::open(&overclaim).is_err());
}

/// Structural invariants: removals are delta-only, entries must be
/// strictly ascending, unknown tags and source codes are rejected, and
/// junk after the last epoch is caught.
#[test]
fn store_structural_corruption_rejected() {
    let remove_in_base = build(Spec {
        entries: vec![(0, "a.test", 2)],
        ..Spec::default()
    });
    assert_eq!(
        StoreReader::open(&remove_in_base).unwrap_err(),
        StoreError::RemoveInBase
    );

    let unsorted = build(Spec {
        entries: vec![(0, "b.test", 1), (0, "a.test", 1)],
        ..Spec::default()
    });
    assert_eq!(StoreReader::open(&unsorted).unwrap_err(), StoreError::Unsorted);

    let duplicate = build(Spec {
        entries: vec![(0, "a.test", 1), (6, "", 1)], // prefix re-uses all of "a.test"
        ..Spec::default()
    });
    assert_eq!(StoreReader::open(&duplicate).unwrap_err(), StoreError::Unsorted);

    let bad_tag = build(Spec {
        entries: vec![(0, "a.test", 9)],
        ..Spec::default()
    });
    assert_eq!(StoreReader::open(&bad_tag).unwrap_err(), StoreError::BadTag(9));

    let bad_source = build(Spec {
        share_source: 9,
        ..Spec::default()
    });
    assert_eq!(
        StoreReader::open(&bad_source).unwrap_err(),
        StoreError::BadSource(9)
    );

    let trailing = build(Spec {
        trailing: vec![0xAB, 0xCD],
        ..Spec::default()
    });
    assert_eq!(
        StoreReader::open(&trailing).unwrap_err(),
        StoreError::TrailingBytes
    );

    // A prefix longer than the previous name cannot reference bytes
    // that don't exist.
    let bad_prefix = build(Spec {
        entries: vec![(0, "a.test", 1), (20, "x", 1)],
        ..Spec::default()
    });
    assert_eq!(StoreReader::open(&bad_prefix).unwrap_err(), StoreError::BadPrefix);
}

/// Sidecar corruption: undefined flag bits and unknown fault codes are
/// rejected at open, before any iterator is handed out.
#[test]
fn store_sidecar_corruption_rejected() {
    let mut side = Vec::new();
    mx_store::varint::write_u64(&mut side, 1); // one IP record
    side.extend_from_slice(&[10, 0, 0, 1]); // 10.0.0.1
    mx_store::varint::write_u64(&mut side, 3); // attempts
    side.push(0xF0); // flags: undefined high bits
    side.push(0); // fault: none
    mx_store::varint::write_u64(&mut side, 0); // no DNS records
    let bad_flags = build(Spec {
        sidecar: side.clone(),
        ..Spec::default()
    });
    assert_eq!(
        StoreReader::open(&bad_flags).unwrap_err(),
        StoreError::BadFlags(0xF0)
    );

    let flags_at = side.len() - 3; // [.., flags, fault, dns-count]
    side[flags_at] = 0x01; // valid flags…
    side[flags_at + 1] = 42; // …but a fault code from the future
    let bad_fault = build(Spec {
        sidecar: side,
        ..Spec::default()
    });
    assert_eq!(
        StoreReader::open(&bad_fault).unwrap_err(),
        StoreError::BadFault(42)
    );
}

/// Every proper prefix of a hand-assembled store whose sidecar holds
/// one IP and one DNS record errors cleanly, so cuts land inside every
/// sidecar field too — the same contract
/// `truncated_messages_error_cleanly` pins for DNS.
#[test]
fn truncated_stores_error_cleanly() {
    let mut sidecar = Vec::new();
    mx_store::varint::write_u64(&mut sidecar, 1); // one IP record
    sidecar.extend_from_slice(&[10, 0, 0, 1]); // 10.0.0.1
    mx_store::varint::write_u64(&mut sidecar, 2); // attempts
    sidecar.push(1); // flags: recovered
    sidecar.push(0); // fault: none
    mx_store::varint::write_u64(&mut sidecar, 1); // one DNS record
    mx_store::format::write_str(&mut sidecar, "a.test");
    mx_store::varint::write_u64(&mut sidecar, 1); // retries
    sidecar.push(0); // not exhausted
    let bytes = build(Spec {
        sidecar,
        ..Spec::default()
    });
    for cut in 0..bytes.len() {
        let r = StoreReader::open(&bytes[..cut]);
        assert!(r.is_err(), "prefix of {cut} bytes opened: {r:?}");
    }
    let reader = StoreReader::open(&bytes).expect("populated sidecar opens");
    let acq = reader.acquisition_report(0).expect("sidecar decodes");
    assert_eq!((acq.ips.len(), acq.domains.len()), (1, 1));
}

/// A zeroed restart-interval byte is rejected before any section is
/// decoded (it would make every dictionary access divide by zero).
#[test]
fn v2_zero_restart_interval_rejected() {
    let bytes = build(Spec {
        interval: 0,
        ..Spec::default()
    });
    assert_eq!(
        StoreReader::open(&bytes).unwrap_err(),
        StoreError::IndexCorrupt {
            what: "restart interval"
        }
    );
}

/// A postings block whose content ends mid-entry is truncation, even
/// though the section frame itself is honest about the byte count.
#[test]
fn v2_truncated_postings_block_rejected() {
    let mut postings = store_bytes::postings_section();
    postings.pop(); // lose the final gap varint
    let bytes = build(Spec {
        postings,
        ..Spec::default()
    });
    assert_eq!(StoreReader::open(&bytes).unwrap_err(), StoreError::Truncated);
}

/// An over-long continuation chain in a doc-gap varint must error, not
/// spin or wrap.
#[test]
fn v2_doc_gap_varint_overrun_rejected() {
    let mut postings = Vec::new();
    mx_store::varint::write_u64(&mut postings, 1); // one provider
    mx_store::varint::write_u64(&mut postings, 0); // pid
    mx_store::varint::write_u64(&mut postings, 1); // doc count
    postings.extend_from_slice(&[0x80; 11]); // unterminated varint
    let bytes = build(Spec {
        postings,
        ..Spec::default()
    });
    assert_eq!(
        StoreReader::open(&bytes).unwrap_err(),
        StoreError::VarintOverflow
    );
}

/// Postings referencing domains or providers past their tables are
/// caught at open.
#[test]
fn v2_out_of_range_postings_ids_rejected() {
    let mut postings = Vec::new();
    mx_store::varint::write_u64(&mut postings, 1);
    mx_store::varint::write_u64(&mut postings, 0); // pid
    mx_store::varint::write_u64(&mut postings, 1); // doc count
    mx_store::varint::write_u64(&mut postings, 9); // doc 9: dict has 2
    let bytes = build(Spec {
        postings: postings.clone(),
        ..Spec::default()
    });
    assert_eq!(
        StoreReader::open(&bytes).unwrap_err(),
        StoreError::BadIndex { what: "domain" }
    );

    let mut postings = Vec::new();
    mx_store::varint::write_u64(&mut postings, 1);
    mx_store::varint::write_u64(&mut postings, 7); // pid 7: table has 1
    mx_store::varint::write_u64(&mut postings, 2);
    mx_store::varint::write_u64(&mut postings, 0);
    mx_store::varint::write_u64(&mut postings, 1);
    let bytes = build(Spec {
        postings,
        ..Spec::default()
    });
    assert_eq!(
        StoreReader::open(&bytes).unwrap_err(),
        StoreError::BadIndex { what: "provider" }
    );
}

/// A summary whose weight sum disagrees with the epoch layers passes
/// open-time structural checks but is caught by full verification; a
/// row count disagreeing with the postings list never gets that far.
#[test]
fn v2_summary_disagreements_detected() {
    // Weight lies (3.0, layers sum to 2.0): structurally fine, so open
    // succeeds — verify_indexes recomputes and catches it.
    let bytes = build(Spec {
        summary: store_bytes::summary_section(2, 3.0),
        ..Spec::default()
    });
    let reader = StoreReader::open(&bytes).expect("structurally valid");
    assert_eq!(
        reader.verify_indexes().unwrap_err(),
        StoreError::IndexMismatch {
            what: "summary entry"
        }
    );

    // Row count lies (1, postings say 2): the open-time cross-check
    // between summary and postings refuses the file outright.
    let bytes = build(Spec {
        summary: store_bytes::summary_section(1, 2.0),
        ..Spec::default()
    });
    assert_eq!(
        StoreReader::open(&bytes).unwrap_err(),
        StoreError::IndexCorrupt {
            what: "summary/postings rows"
        }
    );
}

/// Rollup tables must be strictly ascending by (kind, id) — a
/// duplicated credit key is an ordering violation, not a merge.
#[test]
fn v2_unsorted_rollup_rejected() {
    let mut rollup = Vec::new();
    mx_store::varint::write_u64(&mut rollup, 2);
    for _ in 0..2 {
        rollup.push(1); // kind: provider credit
        mx_store::varint::write_u64(&mut rollup, 0); // provider 0, twice
        rollup.extend_from_slice(&1.0f64.to_bits().to_le_bytes());
    }
    let bytes = build(Spec {
        rollup,
        ..Spec::default()
    });
    assert_eq!(
        StoreReader::open(&bytes).unwrap_err(),
        StoreError::IndexCorrupt {
            what: "rollup order"
        }
    );
}

/// Every proper prefix of the default store — header, layers,
/// dictionary and all four index sections — errors cleanly, never
/// opens.
#[test]
fn v2_truncated_stores_error_cleanly() {
    let bytes = build(Spec::default());
    for cut in 0..bytes.len() {
        let r = StoreReader::open(&bytes[..cut]);
        assert!(r.is_err(), "prefix of {cut} bytes opened: {r:?}");
    }
    assert!(StoreReader::open(&bytes).is_ok());
}

// ---------------------------------------------------------------------------
// mx-delta: the event-log codec decodes replayed zone-update streams
// from disk, so it is untrusted input like the wire parsers above.
// Every corruption is one byte off a valid `mx-delta/1` log; the
// contract is the usual one — a typed `DeltaError`, never a panic,
// never a silently-wrong `Ok`.
// ---------------------------------------------------------------------------

use mx_delta::{encode_log, AddSpec, CertTarget, DeltaError, Event};

/// A minimal one-event log plus the offsets its fixed-layout header
/// pins: magic[0..4], version[4..6], flags[6..8], schema len at 8 and
/// "mx-delta/1" at 9..19, name count at 19, name ("a.test") length at
/// 20 and bytes at 21..27, then batch count, event count, tag, name id.
fn tiny_event_log() -> Vec<u8> {
    let bytes = encode_log(&[vec![Event::MxSwap {
        domain: "a.test".into(),
    }]]);
    assert_eq!(&bytes[0..4], b"MXDL");
    assert_eq!(bytes[8], 10); // schema length
    assert_eq!(&bytes[9..19], b"mx-delta/1");
    assert_eq!(&bytes[21..27], b"a.test");
    bytes
}

fn decode(bytes: &[u8]) -> Result<Vec<Vec<Event>>, DeltaError> {
    mx_delta::decode_log(bytes)
}

/// Header corruption: magic, version, reserved flags and the schema
/// string each map to their own typed error.
#[test]
fn event_log_header_corruption_is_typed() {
    let mut bad_magic = tiny_event_log();
    bad_magic[0] = b'N';
    assert_eq!(decode(&bad_magic), Err(DeltaError::BadMagic));

    let mut bad_version = tiny_event_log();
    bad_version[4] = 9;
    assert_eq!(decode(&bad_version), Err(DeltaError::UnsupportedVersion(9)));

    let mut bad_flags = tiny_event_log();
    bad_flags[6] = 1;
    assert_eq!(decode(&bad_flags), Err(DeltaError::BadFlags(1)));

    let mut bad_schema = tiny_event_log();
    bad_schema[18] = b'9'; // "mx-delta/1" -> "mx-delta/9"
    assert_eq!(
        decode(&bad_schema),
        Err(DeltaError::BadSchema("mx-delta/9".into()))
    );
}

/// Unknown discriminants: event tags, cert-rotation target kinds and
/// domain-add hosting kinds from the future are rejected by value.
#[test]
fn event_log_unknown_discriminants_rejected() {
    let mut bad_tag = tiny_event_log();
    let at = bad_tag.len() - 2; // [.., tag, name id]
    bad_tag[at] = 7; // tags stop at 6
    assert_eq!(decode(&bad_tag), Err(DeltaError::UnknownTag(7)));

    let mut bad_target = encode_log(&[vec![Event::CertRotation {
        target: CertTarget::Domain("a.test".into()),
    }]]);
    let at = bad_target.len() - 2; // [.., tag, target kind, name id]
    bad_target[at] = 9;
    assert_eq!(decode(&bad_target), Err(DeltaError::UnknownTargetKind(9)));

    let mut bad_add = encode_log(&[vec![Event::DomainAdd {
        domain: "a.test".into(),
        spec: AddSpec::SelfHosted,
    }]]);
    let at = bad_add.len() - 1; // [.., tag, name id, hosting kind]
    bad_add[at] = 9;
    assert_eq!(decode(&bad_add), Err(DeltaError::UnknownAddKind(9)));
}

/// Interning attacks: a name id past the table, a table entry that is
/// not a DNS name, and a table entry that is not UTF-8.
#[test]
fn event_log_bad_interning_rejected() {
    let mut bad_id = tiny_event_log();
    let at = bad_id.len() - 1;
    bad_id[at] = 5; // table has one name
    assert_eq!(decode(&bad_id), Err(DeltaError::BadNameId(5)));

    let mut bad_name = tiny_event_log();
    bad_name[21..27].copy_from_slice(b"a..tst"); // empty label
    assert_eq!(
        decode(&bad_name),
        Err(DeltaError::BadName("a..tst".into()))
    );

    let mut bad_utf8 = tiny_event_log();
    bad_utf8[21] = 0xFF;
    assert_eq!(decode(&bad_utf8), Err(DeltaError::BadUtf8));
}

/// Varint overruns must error, not spin or wrap; counts that promise
/// more items than the input holds are truncation-class.
#[test]
fn event_log_varint_and_count_abuse_rejected() {
    let mut overrun = tiny_event_log();
    overrun.pop(); // drop the name-id varint…
    overrun.extend_from_slice(&[0x80; 11]); // …replace with an unterminated chain
    assert_eq!(decode(&overrun), Err(DeltaError::VarintOverflow));

    let mut overclaim = tiny_event_log();
    overclaim[27] = 0x7f; // 127 batches promised, 3 bytes remain
    assert_eq!(decode(&overclaim), Err(DeltaError::Truncated));
}

/// Every proper prefix of a log exercising all seven event kinds is a
/// typed error — the same sweep the DNS, store and HTTP parsers pin.
#[test]
fn event_log_truncation_sweep() {
    let bytes = encode_log(&[
        vec![
            Event::MxSwap { domain: "a.test".into() },
            Event::MxPriorityChange { domain: "a.test".into() },
            Event::HostReIp { domain: "b.test".into() },
            Event::CertRotation { target: CertTarget::Provider(0) },
        ],
        vec![
            Event::CertRotation { target: CertTarget::Domain("b.test".into()) },
            Event::ProviderMigration { domain: "a.test".into(), provider: 1 },
            Event::ZoneDelete { domain: "b.test".into() },
            Event::DomainAdd { domain: "c.test".into(), spec: AddSpec::Provider(2) },
            Event::DomainAdd { domain: "d.test".into(), spec: AddSpec::NoMail },
        ],
    ]);
    for cut in 0..bytes.len() {
        let r = decode(&bytes[..cut]);
        assert!(r.is_err(), "prefix of {cut} bytes decoded: {r:?}");
    }
    assert!(decode(&bytes).is_ok());

    let mut trailing = bytes;
    trailing.push(0);
    assert_eq!(decode(&trailing), Err(DeltaError::TrailingBytes));
}

// ---------------------------------------------------------------------------
// Hostile HTTP: the mx-serve request parser.
//
// Same contract as the DNS/SMTP/store cases above, now for the serving
// front door: every hostile byte stream maps to a typed `HttpError`
// with a 4xx/5xx status — never a panic, never a bogus `Ok`.
// ---------------------------------------------------------------------------

use mx_serve::{HttpError, Parsed, RequestParser};

/// Feed a complete byte stream and return the first parse outcome.
fn parse_one(bytes: &[u8]) -> Result<Parsed, HttpError> {
    let mut p = RequestParser::new();
    p.push(bytes)?;
    p.try_next()
}

/// The error a hostile stream maps to, panicking the test (not the
/// parser) if the stream was accepted or left incomplete.
fn reject_status(bytes: &[u8]) -> u16 {
    match parse_one(bytes) {
        Err(e) => e.status(),
        Ok(Parsed::NeedMore) => panic!("hostile stream left pending: {bytes:?}"),
        Ok(Parsed::Request(r)) => panic!("hostile stream accepted: {r:?}"),
    }
}

/// Truncated request lines stay pending (more bytes could complete
/// them) but never panic and never produce a request; cutting the
/// stream mid-line is the read-deadline's problem, not the parser's.
#[test]
fn http_truncated_request_lines_stay_pending() {
    let full = b"GET /lookup?domain=a.test HTTP/1.1\r\n\r\n";
    for cut in 0..full.len() {
        match parse_one(&full[..cut]) {
            Ok(Parsed::NeedMore) => {}
            other => panic!("prefix of {cut} bytes gave {other:?}"),
        }
    }
    assert!(matches!(parse_one(full), Ok(Parsed::Request(_))));
}

/// Request lines that can never become valid are rejected with the
/// right status: bad verbs 501, bad versions 505, junk 400.
#[test]
fn http_bad_request_lines_are_typed() {
    assert_eq!(reject_status(b"BREW /pot HTTP/1.1\r\n\r\n"), 501);
    assert_eq!(reject_status(b"get / HTTP/1.1\r\n\r\n"), 501);
    assert_eq!(reject_status(b"GET / HTTP/2.0\r\n\r\n"), 505);
    assert_eq!(reject_status(b"GET / SPDY/3\r\n\r\n"), 400); // not HTTP at all
    assert_eq!(reject_status(b"\x80\xFF\xFE garbage\r\n\r\n"), 400);
    assert_eq!(reject_status(b"GET\r\n\r\n"), 400);
}

/// Header sections that overflow the count or byte limits draw 431.
#[test]
fn http_header_overflow_draws_431() {
    let mut many = b"GET / HTTP/1.1\r\n".to_vec();
    for i in 0..mx_serve::http::MAX_HEADER_COUNT + 1 {
        many.extend_from_slice(format!("X-H{i}: v\r\n").as_bytes());
    }
    many.extend_from_slice(b"\r\n");
    assert_eq!(reject_status(&many), 431);

    let mut fat = b"GET / HTTP/1.1\r\n".to_vec();
    fat.extend_from_slice(b"X-Fat: ");
    fat.resize(mx_serve::http::MAX_HEAD_BYTES + 16, b'a');
    fat.extend_from_slice(b"\r\n\r\n");
    assert_eq!(reject_status(&fat), 431);
}

/// An absurdly long URI draws 414 before the head limit is reached.
#[test]
fn http_oversized_uri_draws_414() {
    let mut req = b"GET /".to_vec();
    req.resize(5 + mx_serve::http::MAX_URI, b'a');
    req.extend_from_slice(b" HTTP/1.1\r\n\r\n");
    assert_eq!(reject_status(&req), 414);
}

/// NUL bytes and bare CR/LF anywhere in the head are rejected — the
/// classic response-splitting and log-injection vectors.
#[test]
fn http_nul_and_bare_crlf_injection_rejected() {
    assert_eq!(reject_status(b"GET /\x00 HTTP/1.1\r\n\r\n"), 400);
    assert_eq!(reject_status(b"GET / HTTP/1.1\r\nX: a\x00b\r\n\r\n"), 400);
    assert_eq!(reject_status(b"GET / HTTP/1.1\nHost: x\r\n\r\n"), 400);
    assert_eq!(reject_status(b"GET / HTTP/1.1\r\nX: a\rb\r\n\r\n"), 400);
}

/// Percent-escapes must be two hex digits decoding to graphic ASCII;
/// everything else — including encoded CR/LF/NUL — is a 400.
#[test]
fn http_bad_percent_escapes_rejected() {
    for target in [
        "/lookup?domain=%zz",
        "/lookup?domain=%4",
        "/lookup?domain=%",
        "/lookup?domain=%0d%0a",
        "/lookup?domain=%00",
        "/%ff",
    ] {
        let req = format!("GET {target} HTTP/1.1\r\n\r\n");
        assert_eq!(reject_status(req.as_bytes()), 400, "target {target}");
    }
}

/// Chunked framing: oversized chunks, hex overflow and missing
/// terminators are typed errors; a body over the cap is 413.
#[test]
fn http_hostile_chunked_framing_rejected() {
    let head = b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
    let mut oversized = head.to_vec();
    oversized.extend_from_slice(b"FFFFFFFFF\r\n"); // 9 hex digits
    assert_eq!(reject_status(&oversized), 400);

    let mut big_chunk = head.to_vec();
    big_chunk.extend_from_slice(b"2000\r\n"); // 8 KiB > MAX_CHUNK_SIZE
    assert_eq!(reject_status(&big_chunk), 413);

    let mut bad_terminator = head.to_vec();
    bad_terminator.extend_from_slice(b"3\r\nabcXX");
    assert_eq!(reject_status(&bad_terminator), 400);

    let mut over_body = head.to_vec();
    // Many max-size chunks: total crosses MAX_BODY.
    for _ in 0..(mx_serve::http::MAX_BODY / 0x400 + 1) {
        over_body.extend_from_slice(b"400\r\n");
        over_body.extend_from_slice(&[b'x'; 0x400]);
        over_body.extend_from_slice(b"\r\n");
    }
    over_body.extend_from_slice(b"0\r\n\r\n");
    assert_eq!(reject_status(&over_body), 413);

    let mut huge_declared = b"GET / HTTP/1.1\r\nContent-Length: 999999\r\n\r\n".to_vec();
    huge_declared.extend_from_slice(&[b'x'; 64]);
    assert_eq!(reject_status(&huge_declared), 413);
}

/// Pipelined garbage after a valid request: the first request parses,
/// the tail is rejected, and nothing panics.
#[test]
fn http_pipelined_garbage_after_valid_request() {
    let mut p = RequestParser::new();
    p.push(b"GET /healthz HTTP/1.1\r\n\r\n\x90\x91\x92 junk\r\n\r\n")
        .expect("under buffer cap");
    match p.try_next() {
        Ok(Parsed::Request(r)) => assert_eq!(r.path, "/healthz"),
        other => panic!("valid head of pipeline gave {other:?}"),
    }
    match p.try_next() {
        Err(e) => assert_eq!(e.status(), 400),
        other => panic!("garbage tail gave {other:?}"),
    }
}

/// A connection that streams bytes forever without completing a
/// request hits the buffer cap with 431, not unbounded growth.
#[test]
fn http_conn_buffer_cap_enforced() {
    let mut p = RequestParser::new();
    // A chunked body that keeps the parser pending: valid chunks that
    // never terminate, below the per-request limits, repeated. Pushing
    // past MAX_CONN_BUFFER must fail with a typed error.
    let mut err = None;
    for _ in 0..mx_serve::http::MAX_CONN_BUFFER / 8 + 2 {
        if let Err(e) = p.push(b"GET /aaa") {
            err = Some(e);
            break;
        }
        // Drain attempts keep the parser state honest.
        let _ = p.try_next();
    }
    match err {
        Some(e) => assert_eq!(e.status(), 431),
        None => panic!("conn buffer grew without bound"),
    }
}

/// Every prefix of a hostile stream is also handled without panics —
/// the byte-at-a-time dribble a slowloris produces.
#[test]
fn http_hostile_streams_dribble_cleanly() {
    let streams: &[&[u8]] = &[
        b"BREW /pot HTTP/1.1\r\n\r\n",
        b"GET /\x00 HTTP/1.1\r\n\r\n",
        b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nFFFFFFFFF\r\n",
        b"GET /lookup?domain=%0d%0a HTTP/1.1\r\n\r\n",
    ];
    for stream in streams {
        let mut p = RequestParser::new();
        let mut rejected = false;
        for b in stream.iter() {
            if p.push(&[*b]).is_err() {
                rejected = true;
                break;
            }
            match p.try_next() {
                Err(_) => {
                    rejected = true;
                    break;
                }
                Ok(Parsed::NeedMore) => {}
                Ok(Parsed::Request(r)) => panic!("hostile stream accepted: {r:?}"),
            }
        }
        assert!(rejected, "stream {stream:?} never rejected");
    }
}
