//! The hot writer against fresh builds.
//!
//! One `StoreWriter` kept open across a whole series carries cached
//! state from epoch to epoch: the resolved view, the per-provider
//! credit keys, the sorted dictionary and every earlier epoch's encoded
//! sections, which a name first seen later patches in place. Random
//! multi-epoch series generated with `mx-rng` drive two hot writers,
//! one fed full tables (`add_epoch`) and one fed only the changes
//! (`add_epoch_changes`). After every epoch both must equal a fresh
//! writer fed the same prefix, `reopen` of the snapshot must reproduce
//! it, and reopening the previous snapshot then adding the epoch must
//! equal the hot add. The series add and remove rows, remove a name
//! and re-add it later, change rows only in weight or only in
//! `has_smtp`, bring in providers mid-series, and intern a company
//! named like a company-less provider that earlier epochs credited on
//! its own.

use std::collections::{BTreeMap, BTreeSet};

use mx_acq::AcquisitionReport;
use mx_rng::SmallRng;
use mx_store::{RowIn, ShareIn, ShareSource, StoreReader, StoreWriter};

const SEEDS: &[u64] = &[1, 2, 3, 4, 5];
const EPOCHS: usize = 9;
const NAMES: usize = 360;
/// A company-less provider from the first epoch on…
const LONE: &str = "lone.example";
/// …until this epoch brings a provider whose company is named like it.
const LONE_COMPANY_EPOCH: usize = 5;

/// How one epoch changed one name, for the coverage count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Change {
    Add,
    Remove,
    ReAdd,
    Weight,
    Smtp,
    Reshape,
    Unchanged,
}

/// Names of varied shape and spread, so new names land all over the
/// dictionary and rank gaps of many lengths get patched.
fn name(i: usize) -> String {
    match i % 4 {
        0 => format!("d{i:04}.test"),
        1 => format!("mail.d{:03}.example", NAMES - i),
        2 => format!("x{i}{}.org", "y".repeat(i % 7)),
        _ => format!("{}{i}.net", char::from(b'a' + (i % 26) as u8)),
    }
}

/// Provider `k` with its company; providers above a per-epoch bound
/// are not used yet, so some are first seen mid-series.
fn provider(k: usize) -> (String, Option<String>) {
    if k == 0 {
        return (LONE.to_string(), None);
    }
    let company = (!k.is_multiple_of(3)).then(|| format!("co{}", k % 4));
    (format!("p{k}.net"), company)
}

fn share(rng: &mut SmallRng, epoch: usize, n: usize) -> ShareIn {
    let known = 6 + 2 * epoch;
    let (provider, company) = if epoch >= LONE_COMPANY_EPOCH && rng.gen_bool(0.1) {
        ("mx.lone.net".to_string(), Some(LONE.to_string()))
    } else {
        provider(rng.gen_range(0..known))
    };
    ShareIn {
        provider,
        company,
        weight: 1.0 / n as f64,
        source: match rng.gen_range(0..3usize) {
            0 => ShareSource::Certificate,
            1 => ShareSource::Banner,
            _ => ShareSource::MxRecord,
        },
    }
}

fn fresh_row(rng: &mut SmallRng, epoch: usize, name: &str) -> RowIn {
    let n = rng.gen_range(0..=3usize);
    let mut shares: Vec<ShareIn> = (0..n).map(|_| share(rng, epoch, n)).collect();
    shares.sort_by(|a, b| a.provider.cmp(&b.provider));
    shares.dedup_by(|a, b| a.provider == b.provider);
    RowIn {
        name: name.to_string(),
        has_smtp: rng.gen_bool(0.7),
        self_hosted: rng.gen_bool(0.1),
        shares,
    }
}

/// One epoch's input in both forms: the full table, and the upserts
/// and removals a changes-only caller hands over (with unchanged rows
/// and never-present names mixed in, which must not become ops).
struct Epoch {
    rows: Vec<RowIn>,
    upserts: Vec<RowIn>,
    removals: Vec<String>,
}

fn generate(seed: u64, seen: &mut BTreeMap<Change, usize>) -> Vec<Epoch> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ever: BTreeSet<String> = BTreeSet::new();
    let mut state: BTreeMap<String, RowIn> = BTreeMap::new();
    let mut out = Vec::new();
    for epoch in 0..EPOCHS {
        let mut upserts = Vec::new();
        let mut removals = Vec::new();
        for i in 0..NAMES {
            let name = name(i);
            let change = match state.get_mut(&name) {
                None if rng.gen_bool(if epoch == 0 { 0.5 } else { 0.08 }) => {
                    let row = fresh_row(&mut rng, epoch, &name);
                    upserts.push(row.clone());
                    state.insert(name.clone(), row);
                    if ever.insert(name) {
                        Change::Add
                    } else {
                        Change::ReAdd
                    }
                }
                None => {
                    if rng.gen_bool(0.02) {
                        removals.push(name);
                    }
                    continue;
                }
                Some(row) => {
                    let change = match rng.gen_range(0..12usize) {
                        0 => Change::Remove,
                        1 if !row.shares.is_empty() => {
                            for s in &mut row.shares {
                                s.weight *= 0.5;
                            }
                            Change::Weight
                        }
                        2 => {
                            row.has_smtp = !row.has_smtp;
                            Change::Smtp
                        }
                        3 => {
                            *row = fresh_row(&mut rng, epoch, &name);
                            Change::Reshape
                        }
                        _ => Change::Unchanged,
                    };
                    if change == Change::Remove {
                        state.remove(&name);
                        removals.push(name);
                    } else if change != Change::Unchanged || rng.gen_bool(0.1) {
                        upserts.push(row.clone());
                    }
                    change
                }
            };
            *seen.entry(change).or_default() += 1;
        }
        // Callers hand changes over in any order.
        upserts.reverse();
        out.push(Epoch {
            rows: state.values().cloned().collect(),
            upserts,
            removals,
        });
    }
    out
}

fn label(epoch: usize) -> String {
    format!("e{epoch}")
}

fn fresh_build(series: &[Epoch]) -> Vec<u8> {
    let mut w = StoreWriter::new();
    for (epoch, e) in series.iter().enumerate() {
        w.add_epoch(&label(epoch), e.rows.clone(), &AcquisitionReport::default())
            .expect("fresh epoch encodes");
    }
    w.finish()
}

fn reopen(bytes: &[u8]) -> StoreWriter {
    let reader = StoreReader::open(bytes).expect("snapshot opens");
    reader.verify_indexes().expect("snapshot indexes verify");
    StoreWriter::reopen(&reader).expect("snapshot reopens")
}

#[test]
fn hot_writer_matches_fresh_builds_after_every_epoch() {
    let acq = AcquisitionReport::default();
    let mut seen = BTreeMap::new();
    for &seed in SEEDS {
        let series = generate(seed, &mut seen);
        let mut full = StoreWriter::new();
        let mut changes = StoreWriter::new();
        let mut prev: Option<Vec<u8>> = None;
        for (epoch, e) in series.iter().enumerate() {
            full.add_epoch(&label(epoch), e.rows.clone(), &acq)
                .expect("full epoch encodes");
            changes
                .add_epoch_changes(&label(epoch), e.upserts.clone(), e.removals.clone(), &acq)
                .expect("changes epoch encodes");
            let hot = full.snapshot();
            let ctx = format!("seed {seed} epoch {epoch}");
            assert_eq!(
                changes.snapshot(),
                hot,
                "{ctx}: changes-fed writer diverged"
            );
            assert_eq!(
                fresh_build(&series[..=epoch]),
                hot,
                "{ctx}: hot writer diverged from a fresh build"
            );
            assert_eq!(
                reopen(&hot).snapshot(),
                hot,
                "{ctx}: reopen did not reproduce"
            );
            if let Some(prev) = &prev {
                let mut w = reopen(prev);
                w.add_epoch(&label(epoch), e.rows.clone(), &acq)
                    .expect("reopened epoch encodes");
                assert_eq!(w.snapshot(), hot, "{ctx}: reopen-then-add_epoch diverged");
                let mut w = reopen(prev);
                w.add_epoch_changes(&label(epoch), e.upserts.clone(), e.removals.clone(), &acq)
                    .expect("reopened changes encode");
                assert_eq!(
                    w.snapshot(),
                    hot,
                    "{ctx}: reopen-then-add_epoch_changes diverged"
                );
            }
            prev = Some(hot);
        }

        // The lone provider's credit never splits: once a company of
        // its name is interned, its shares credit to that company, so
        // the rollup names it once in every epoch.
        let bytes = prev.expect("series has epochs");
        let r = StoreReader::open(&bytes).expect("store opens");
        assert!(
            r.companies().contains(&LONE),
            "seed {seed}: {LONE} never interned"
        );
        for epoch in 0..EPOCHS {
            let mut named = 0;
            r.for_each_rollup(epoch, |credit, _w| {
                named += usize::from(credit == LONE);
                Ok(())
            })
            .expect("rollup reads");
            assert_eq!(
                named, 1,
                "seed {seed} epoch {epoch}: {LONE} credited {named} times"
            );
        }
    }
    for change in [
        Change::Add,
        Change::Remove,
        Change::ReAdd,
        Change::Weight,
        Change::Smtp,
        Change::Reshape,
        Change::Unchanged,
    ] {
        assert!(
            seen.get(&change).copied().unwrap_or(0) > 0,
            "no {change:?} generated"
        );
    }
}

#[test]
fn conflicting_changes_are_rejected() {
    let acq = AcquisitionReport::default();
    let mut w = StoreWriter::new();
    let row = |name: &str| RowIn {
        name: name.to_string(),
        has_smtp: true,
        self_hosted: false,
        shares: Vec::new(),
    };
    w.add_epoch("e0", vec![row("a.test")], &acq)
        .expect("base encodes");
    let before = w.snapshot();
    assert_eq!(
        w.add_epoch_changes("e1", vec![row("a.test")], vec!["a.test".to_string()], &acq),
        Err(mx_store::StoreError::DuplicateRow("a.test".to_string()))
    );
    assert_eq!(
        w.add_epoch_changes("e1", vec![row("b.test"), row("b.test")], Vec::new(), &acq),
        Err(mx_store::StoreError::DuplicateRow("b.test".to_string()))
    );
    assert_eq!(w.snapshot(), before, "a rejected epoch changed the writer");
}
