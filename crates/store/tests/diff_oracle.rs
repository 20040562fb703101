//! `StoreReader::diff` against a reference built from the public
//! `for_each_row` + `lookup` API.
//!
//! Multi-epoch stores are generated with `mx-rng` and written through
//! `StoreWriter`: rows are added, removed and re-added after a
//! removal, change only in weight, only in `has_smtp` or only in the
//! order of their shares, or stay unchanged. For every `(from, to)`
//! pair the merged walk must report exactly the reference's
//! `(name, old, new)` set, in strictly ascending name order.

use std::collections::BTreeMap;

use mx_acq::AcquisitionReport;
use mx_rng::SmallRng;
use mx_store::{Row, RowIn, ShareIn, ShareSource, StoreError, StoreReader, StoreWriter};

const SEEDS: &[u64] = &[1, 2, 3, 4, 5, 6];
const EPOCHS: usize = 7;
const NAMES: usize = 90;

/// An owned, comparable copy of a resolved row.
type RowView = (bool, Vec<(String, Option<String>, u64, u8)>);

/// One reported difference.
type Flow = (String, Option<RowView>, Option<RowView>);

/// One generated store: the per-epoch resolved views and the bytes.
type Generated = (Vec<BTreeMap<String, RowIn>>, Vec<u8>);

fn view(row: &Row<'_>) -> RowView {
    let shares = row
        .shares()
        .map(|s| {
            (
                s.provider.to_string(),
                s.company.map(str::to_string),
                s.weight.to_bits(),
                s.source.code(),
            )
        })
        .collect();
    (row.has_smtp(), shares)
}

fn model_view(row: &RowIn) -> RowView {
    let shares = row
        .shares
        .iter()
        .map(|s| {
            (
                s.provider.clone(),
                s.company.clone(),
                s.weight.to_bits(),
                s.source.code(),
            )
        })
        .collect();
    (row.has_smtp, shares)
}

/// How one epoch changed one name, for the coverage count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Change {
    Add,
    Remove,
    ReAdd,
    Weight,
    Smtp,
    Order,
    Unchanged,
}

/// Names of varied shape, so prefix compression and restart blocks
/// see shared prefixes of many lengths.
fn name(i: usize) -> String {
    match i % 3 {
        0 => format!("d{i:03}.test"),
        1 => format!("mail.d{i:03}.example"),
        _ => format!("x{i}{}.org", "y".repeat(i % 7)),
    }
}

fn fresh_row(rng: &mut SmallRng, name: &str) -> RowIn {
    let n = rng.gen_range(0..=3usize);
    let shares = (0..n)
        .map(|k| {
            let p = rng.gen_range(0..12usize);
            ShareIn {
                provider: format!("p{p}.{k}"),
                company: (p % 3 != 0).then(|| format!("co{}", p % 5)),
                weight: 1.0 / n as f64,
                source: match rng.gen_range(0..3usize) {
                    0 => ShareSource::Certificate,
                    1 => ShareSource::Banner,
                    _ => ShareSource::MxRecord,
                },
            }
        })
        .collect();
    RowIn {
        name: name.to_string(),
        has_smtp: rng.gen_bool(0.7),
        self_hosted: false,
        shares,
    }
}

/// Generate one store, counting every applied change into `seen`.
fn generate(seed: u64, seen: &mut BTreeMap<Change, usize>) -> Generated {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut ever: BTreeMap<String, ()> = BTreeMap::new();
    let mut state: BTreeMap<String, RowIn> = BTreeMap::new();
    let mut views = Vec::new();
    let mut writer = StoreWriter::new();
    for epoch in 0..EPOCHS {
        for i in 0..NAMES {
            let name = name(i);
            let change = match state.get_mut(&name) {
                None if epoch == 0 || rng.gen_bool(0.3) => {
                    let row = fresh_row(&mut rng, &name);
                    state.insert(name.clone(), row);
                    if ever.insert(name, ()).is_some() {
                        Change::ReAdd
                    } else {
                        Change::Add
                    }
                }
                None => continue,
                Some(row) => match rng.gen_range(0..10usize) {
                    0 => {
                        state.remove(&name);
                        Change::Remove
                    }
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
                    3 if row.shares.len() >= 2 => {
                        row.shares.reverse();
                        Change::Order
                    }
                    _ => Change::Unchanged,
                },
            };
            *seen.entry(change).or_default() += 1;
        }
        let rows: Vec<RowIn> = state.values().cloned().collect();
        writer
            .add_epoch(&format!("e{epoch}"), rows, &AcquisitionReport::default())
            .expect("epoch encodes");
        views.push(state.clone());
    }
    (views, writer.finish())
}

/// The two-walk algorithm `diff` replaced, written against the public
/// API: every row of `from` looked up in `to`, then every row of `to`
/// looked up in `from`.
fn reference(r: &StoreReader<'_>, from: usize, to: usize) -> Vec<Flow> {
    let mut flows = Vec::new();
    r.for_each_row(from, |name, old| {
        match r.lookup(name, to)? {
            None => flows.push((name.to_string(), Some(view(old)), None)),
            Some(new) if new != *old => {
                flows.push((name.to_string(), Some(view(old)), Some(view(&new))))
            }
            Some(_) => {}
        }
        Ok(())
    })
    .expect("reference walk");
    r.for_each_row(to, |name, new| {
        if r.lookup(name, from)?.is_none() {
            flows.push((name.to_string(), None, Some(view(new))));
        }
        Ok(())
    })
    .expect("reference walk");
    flows.sort_by(|a, b| a.0.cmp(&b.0));
    flows
}

fn merged(r: &StoreReader<'_>, from: usize, to: usize) -> Vec<Flow> {
    let mut flows = Vec::new();
    r.diff(from, to, |name, old, new| {
        flows.push((name.to_string(), old.map(view), new.map(view)));
        Ok(())
    })
    .expect("diff walk");
    flows
}

#[test]
fn diff_matches_reference_on_every_epoch_pair() {
    let mut seen = BTreeMap::new();
    // Added, removed, changed, and touched-in-between-but-restored.
    let mut kinds = [0usize; 4];
    for &seed in SEEDS {
        let (views, bytes) = generate(seed, &mut seen);
        let r = StoreReader::open(&bytes).expect("store opens");
        assert_eq!(r.epoch_count(), EPOCHS);
        // The resolved views the diff is taken between are the model's.
        for (epoch, model) in views.iter().enumerate() {
            let mut rows = Vec::new();
            r.for_each_row(epoch, |name, row| {
                rows.push((name.to_string(), view(row)));
                Ok(())
            })
            .expect("epoch walk");
            let want: Vec<(String, RowView)> = model
                .iter()
                .map(|(n, row)| (n.clone(), model_view(row)))
                .collect();
            assert_eq!(rows, want, "seed {seed}: epoch {epoch} resolved view");
        }
        for from in 0..EPOCHS {
            for to in 0..EPOCHS {
                let got = merged(&r, from, to);
                assert_eq!(
                    got,
                    reference(&r, from, to),
                    "seed {seed}: diff({from}, {to})"
                );
                assert!(
                    got.windows(2).all(|w| w[0].0 < w[1].0),
                    "seed {seed}: diff({from}, {to}) names not strictly ascending"
                );
                if from == to {
                    assert!(
                        got.is_empty(),
                        "seed {seed}: diff({from}, {from}) reported rows"
                    );
                }
                for (_, old, new) in &got {
                    let k = match (old, new) {
                        (None, Some(_)) => 0,
                        (Some(_), None) => 1,
                        (Some(_), Some(_)) => 2,
                        (None, None) => panic!("seed {seed}: diff reported an absent row"),
                    };
                    kinds[k] += 1;
                }
                // Rows that moved between the epochs and came back
                // equal, which the walk must skip.
                let (lo, hi) = (from.min(to), from.max(to));
                for (n, row) in &views[lo] {
                    let back = views[hi].get(n).map(model_view) == Some(model_view(row));
                    let moved = (lo..hi).any(|e| views[e].get(n) != views[e + 1].get(n));
                    if back && moved {
                        kinds[3] += 1;
                    }
                }
            }
        }
    }
    for change in [
        Change::Add,
        Change::Remove,
        Change::ReAdd,
        Change::Weight,
        Change::Smtp,
        Change::Order,
        Change::Unchanged,
    ] {
        assert!(
            seen.get(&change).copied().unwrap_or(0) > 0,
            "no {change:?} generated"
        );
    }
    assert!(
        kinds.iter().all(|&k| k > 0),
        "added/removed/changed/restored coverage {kinds:?}"
    );
}

#[test]
fn callback_error_aborts_the_walk_unchanged() {
    let (_, bytes) = generate(9, &mut BTreeMap::new());
    let r = StoreReader::open(&bytes).expect("store opens");
    assert!(merged(&r, 0, EPOCHS - 1).len() > 3);
    let stop = StoreError::DuplicateRow("stop".into());
    let mut calls = 0;
    let got = r.diff(0, EPOCHS - 1, |_, _, _| {
        calls += 1;
        if calls == 3 {
            Err(stop.clone())
        } else {
            Ok(())
        }
    });
    assert_eq!(got, Err(stop));
    assert_eq!(calls, 3, "the walk went on after the callback failed");
}

#[test]
fn out_of_range_epochs_are_typed_errors() {
    let (_, bytes) = generate(11, &mut BTreeMap::new());
    let r = StoreReader::open(&bytes).expect("store opens");
    let out = StoreError::EpochOutOfRange {
        epoch: EPOCHS,
        epochs: EPOCHS,
    };
    let mut calls = 0;
    for (from, to) in [(EPOCHS, 0), (0, EPOCHS), (EPOCHS, EPOCHS)] {
        let got = r.diff(from, to, |_, _, _| {
            calls += 1;
            Ok(())
        });
        assert_eq!(got, Err(out.clone()), "diff({from}, {to})");
    }
    assert_eq!(calls, 0);
}
