//! The store writer: epochs in, one canonical byte buffer out.
//!
//! Determinism contract: the produced bytes are a pure function of the
//! epoch inputs. Rows are sorted by dotted-name bytes before encoding,
//! provider/company tables are interned in first-appearance order of
//! that sorted walk, sidecar entries are sorted by IP / name, and
//! weights are stored as exact `f64` bit patterns — so two writers fed
//! the same study produce byte-identical files at any thread count.
//!
//! The first epoch added is the **base** (every row encoded); each
//! later epoch is a **delta** holding only upserts for added/changed
//! domains and removals for departed ones, computed against the
//! resolved previous epoch the writer tracks internally.
//!
//! Every epoch goes through one changes core. [`StoreWriter::add_epoch`]
//! diffs a full table against the resolved view and feeds the core the
//! difference; [`StoreWriter::add_epoch_changes`] feeds it upserts and
//! removals directly, so an epoch whose caller knows what changed costs
//! O(changes) in interning and row encoding plus one walk of the view
//! for the index block. Each epoch's sections are encoded once, when it
//! is added, and [`StoreWriter::snapshot`] only copies them. A domain
//! name first seen in a later epoch shifts the dictionary ranks after
//! it; earlier epochs' rank-gap sections (postings, digest) are patched
//! at the one gap per list that spans the new rank, not re-encoded.

use std::collections::HashMap;

use mx_acq::AcquisitionReport;

use crate::format::{
    fault_code, write_str, Cur, CREDIT_COMPANY, CREDIT_PROVIDER, DIGEST_CREDIT_PROVIDER,
    DIGEST_HAS_CREDIT, DIGEST_SELF_HOSTED, DIGEST_SMTP, KIND_BASE, KIND_DELTA, MAGIC,
    RESTART_INTERVAL, SCHEMA, SIDE_BLOCKED, SIDE_EXHAUSTED, SIDE_RECOVERED, TAG_REMOVE, TAG_ROW,
    TAG_ROW_SMTP, VERSION,
};
use crate::varint::write_u64;
use crate::{ShareSource, StoreError};

/// One provider share of a row, as handed to the writer.
#[derive(Debug, Clone, PartialEq)]
pub struct ShareIn {
    /// Provider identifier (interned into the provider table).
    pub provider: String,
    /// Company behind the provider, when the company map knows one
    /// (interned; must be consistent across rows for one provider).
    pub company: Option<String>,
    /// Responsibility weight (`1/n` across a domain's providers).
    pub weight: f64,
    /// Where the identification came from.
    pub source: ShareSource,
}

/// One domain row of one epoch, as handed to the writer.
#[derive(Debug, Clone, PartialEq)]
pub struct RowIn {
    /// Dotted domain name (e.g. `example.org`).
    pub name: String,
    /// Does the domain have a live primary SMTP server?
    pub has_smtp: bool,
    /// Is the domain self-hosted (some provider equals the domain's
    /// registered domain)? PSL-backed, so computed by the caller — the
    /// store carries the bit in the digest but owns no suffix list.
    pub self_hosted: bool,
    /// Provider shares, in the order the pipeline assigned them
    /// (sorted by provider id); preserved verbatim.
    pub shares: Vec<ShareIn>,
}

/// A gap list records the rank and byte offset of every this-many-th
/// entry, bounding the forward scan a dictionary insertion makes to
/// find the one gap it patches.
const MARK_EVERY: u64 = 64;

/// A canonicalized share: interned provider, exact weight bits.
#[derive(Clone, PartialEq, Eq)]
struct CanonShare {
    provider: u32,
    weight_bits: u64,
    source: u8,
}

/// A canonicalized row, comparable across epochs for delta detection.
/// `self_hosted` is a pure function of name + shares, so including it
/// in equality neither adds nor suppresses delta ops.
#[derive(Clone, PartialEq, Eq)]
struct CanonRow {
    has_smtp: bool,
    self_hosted: bool,
    shares: Vec<CanonShare>,
}

/// One row of the resolved view: the domain's doc id and its row.
struct ViewRow {
    doc: u32,
    row: CanonRow,
}

/// One change an epoch makes to the resolved view: `Some` upserts the
/// row of `doc`, `None` removes it.
struct Change {
    doc: u32,
    row: Option<CanonRow>,
}

/// A postings or digest section in its stored form, plus a directory
/// of its rank lists. Each list is strictly ascending dictionary ranks
/// stored as LEB128 gaps (the first one absolute), each followed in a
/// digest by the entry's flag byte and optional credit id. A name
/// inserted into the dictionary moves every later rank up by one,
/// which changes one gap per list: the directory finds it without
/// decoding the rest of the section, and it is rewritten in place.
struct GapSection {
    digest: bool,
    /// The section exactly as stored.
    bytes: Vec<u8>,
    lists: Vec<GapList>,
    /// Entries pushed onto the last list while building.
    pushed: u64,
}

/// One list of a [`GapSection`].
#[derive(Debug, PartialEq)]
struct GapList {
    /// Byte offset of the list's first gap.
    at: usize,
    /// Ranks of the first and the last entry.
    first: u64,
    last: u64,
    /// `(rank, byte offset)` of entries `MARK_EVERY, 2·MARK_EVERY…`.
    marks: Vec<(u64, usize)>,
}

impl GapSection {
    fn new(digest: bool) -> GapSection {
        GapSection {
            digest,
            bytes: Vec::new(),
            lists: Vec::new(),
            pushed: 0,
        }
    }

    /// Start a list at the end of the section.
    fn begin_list(&mut self) {
        self.lists.push(GapList {
            at: self.bytes.len(),
            first: 0,
            last: 0,
            marks: Vec::new(),
        });
        self.pushed = 0;
    }

    /// Append an entry at `rank` (above every rank in the last list)
    /// and return the bytes, for a digest entry's tail to follow.
    fn push(&mut self, rank: u64) -> &mut Vec<u8> {
        if let Some(list) = self.lists.last_mut() {
            let prev = if self.pushed == 0 {
                list.first = rank;
                0
            } else {
                if self.pushed.is_multiple_of(MARK_EVERY) {
                    list.marks.push((rank, self.bytes.len()));
                }
                list.last
            };
            list.last = rank;
            write_u64(&mut self.bytes, rank.saturating_sub(prev));
        }
        self.pushed = self.pushed.saturating_add(1);
        &mut self.bytes
    }

    /// Append a stored list of `count` entries as a new list.
    fn push_stored(&mut self, stored: &[u8], count: u64) -> Result<(), StoreError> {
        let base = self.bytes.len();
        let mut list = GapList {
            at: base,
            first: 0,
            last: 0,
            marks: Vec::new(),
        };
        let mut cur = Cur::new(stored);
        for i in 0..count {
            let at = base.saturating_add(cur.pos());
            list.last = list.last.saturating_add(cur.varint()?);
            if i == 0 {
                list.first = list.last;
            } else if i % MARK_EVERY == 0 {
                list.marks.push((list.last, at));
            }
            skip_tail(self.digest, &mut cur)?;
        }
        self.lists.push(list);
        self.bytes.extend_from_slice(stored);
        Ok(())
    }

    /// Shift every list for names inserted into the dictionary.
    /// `points` are the insertion points in the old numbering (how many
    /// old names sort before each new one), ascending. An entry at or
    /// above `k` points moves up `k` ranks, so only the gap of the
    /// first entry at or above each point grows.
    fn insert_ranks(&mut self, points: &[u64]) -> Result<(), StoreError> {
        let Some(&lowest) = points.first() else {
            return Ok(());
        };
        let GapSection {
            digest,
            bytes,
            lists,
            ..
        } = self;
        let mut patches: Vec<(usize, u64, usize)> = Vec::new();
        let mut enc = Vec::with_capacity(crate::varint::MAX_VARINT_LEN);
        let mut moved = 0usize;
        for list in lists.iter_mut() {
            if moved > 0 {
                list.at = list.at.saturating_add(moved);
                for (_, off) in &mut list.marks {
                    *off = off.saturating_add(moved);
                }
            }
            if lowest > list.last {
                continue;
            }
            patches.clear();
            for &point in points.iter().take_while(|&&point| point <= list.last) {
                let at = if point <= list.first {
                    list.at
                } else {
                    list.find(bytes, *digest, point)?
                };
                match patches.last_mut() {
                    Some((off, add, _)) if *off == at => *add = add.saturating_add(1),
                    _ => patches.push((at, 1, 0)),
                }
            }
            // Back to front, so a gap whose varint grows does not move
            // the offsets still to patch.
            for (at, add, grew) in patches.iter_mut().rev() {
                let mut cur = Cur::new(bytes.get(*at..).unwrap_or(&[]));
                let gap = cur.varint()?;
                enc.clear();
                write_u64(&mut enc, gap.saturating_add(*add));
                let end = at.saturating_add(cur.pos());
                *grew = enc.len().saturating_sub(cur.pos());
                match bytes.get_mut(*at..end) {
                    Some(slot) if *grew == 0 => slot.copy_from_slice(&enc),
                    _ => {
                        bytes.splice(*at..end, enc.iter().copied());
                    }
                }
                moved = moved.saturating_add(*grew);
            }
            // A mark moves up one rank per point at or below it, and by
            // the growth of every patch before it.
            let mut below = points.iter().peekable();
            let mut before = patches.iter().peekable();
            let (mut ranks, mut grown) = (0u64, 0usize);
            for (rank, off) in &mut list.marks {
                while below.next_if(|&&point| point <= *rank).is_some() {
                    ranks = ranks.saturating_add(1);
                }
                while let Some(&(_, _, grew)) = before.next_if(|patch| patch.0 < *off) {
                    grown = grown.saturating_add(grew);
                }
                *rank = rank.saturating_add(ranks);
                *off = off.saturating_add(grown);
            }
            let shift = |rank: u64| points.iter().filter(|&&point| point <= rank).count() as u64;
            list.first = list.first.saturating_add(shift(list.first));
            list.last = list.last.saturating_add(shift(list.last));
        }
        Ok(())
    }
}

impl GapList {
    /// Byte offset of the first entry whose rank is at least `point`
    /// (above `first`, at most `last`).
    fn find(&self, bytes: &[u8], digest: bool, point: u64) -> Result<usize, StoreError> {
        let m = self.marks.partition_point(|&(rank, _)| rank < point);
        let (mut rank, start) = m
            .checked_sub(1)
            .and_then(|i| self.marks.get(i))
            .copied()
            .unwrap_or((self.first, self.at));
        let mut cur = Cur::new(bytes.get(start..).unwrap_or(&[]));
        cur.varint()?;
        skip_tail(digest, &mut cur)?;
        for _entry in 0..MARK_EVERY {
            let at = cur.pos();
            rank = rank.saturating_add(cur.varint()?);
            if rank >= point {
                return Ok(start.saturating_add(at));
            }
            skip_tail(digest, &mut cur)?;
        }
        Err(StoreError::IndexMismatch { what: "gap list" })
    }
}

/// Step `cur` over a digest entry's flag byte and credit id.
fn skip_tail(digest: bool, cur: &mut Cur<'_>) -> Result<(), StoreError> {
    if digest && cur.u8()? & DIGEST_HAS_CREDIT != 0 {
        cur.varint()?;
    }
    Ok(())
}

/// One epoch, its sections encoded when it was added.
struct EpochEnc {
    label: String,
    kind: u8,
    /// Rows section: entry count, then the prefix-compressed entries.
    rows: Vec<u8>,
    sidecar: Vec<u8>,
    summary: Vec<u8>,
    rollup: Vec<u8>,
    postings: GapSection,
    digest: GapSection,
}

/// Builds a store file epoch by epoch. See the module docs for the
/// determinism contract.
pub struct StoreWriter {
    providers: Vec<String>,
    provider_ix: HashMap<String, u32>,
    /// Per provider: 0 = no company, else company index + 1.
    provider_company: Vec<u32>,
    /// Per provider: its credit key (see [`StoreWriter::resolve_credit`]).
    credit: Vec<(u8, u32)>,
    companies: Vec<String>,
    company_ix: HashMap<String, u32>,
    epochs: Vec<EpochEnc>,
    /// Resolved view of the last epoch added, ascending by name.
    view: Vec<ViewRow>,
    /// Every domain name seen in any epoch, by doc id (ids are handed
    /// out in first-appearance order and never change).
    doc_names: Vec<String>,
    /// The dictionary: doc ids in name order.
    sorted: Vec<u32>,
    /// Doc id → dictionary rank (position in `sorted`).
    rank: Vec<u32>,
    /// Docs first seen by the epoch being added, ascending by name;
    /// merged into `sorted` when the epoch commits.
    fresh: Vec<u32>,
    /// The encoded dictionary section.
    dict: Vec<u8>,
}

impl Default for StoreWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl StoreWriter {
    /// An empty writer.
    pub fn new() -> Self {
        let mut w = StoreWriter {
            providers: Vec::new(),
            provider_ix: HashMap::new(),
            provider_company: Vec::new(),
            credit: Vec::new(),
            companies: Vec::new(),
            company_ix: HashMap::new(),
            epochs: Vec::new(),
            view: Vec::new(),
            doc_names: Vec::new(),
            sorted: Vec::new(),
            rank: Vec::new(),
            fresh: Vec::new(),
            dict: Vec::new(),
        };
        w.dict = w.encode_dict();
        w
    }

    /// Number of epochs added so far.
    pub fn epoch_count(&self) -> usize {
        self.epochs.len()
    }

    fn intern_provider(&mut self, provider: &str, company: Option<&str>) -> u32 {
        if let Some(&ix) = self.provider_ix.get(provider) {
            return ix;
        }
        let ix = u32::try_from(self.providers.len()).unwrap_or(u32::MAX);
        self.providers.push(provider.to_string());
        self.provider_ix.insert(provider.to_string(), ix);
        let comp = match company {
            None => 0,
            Some(c) => self.intern_company(c).saturating_add(1),
        };
        self.provider_company.push(comp);
        self.credit.push(self.resolve_credit(ix));
        ix
    }

    fn intern_company(&mut self, company: &str) -> u32 {
        if let Some(&cix) = self.company_ix.get(company) {
            return cix;
        }
        let cix = u32::try_from(self.companies.len()).unwrap_or(u32::MAX);
        self.companies.push(company.to_string());
        self.company_ix.insert(company.to_string(), cix);
        // A company-less provider of the same name now credits to it.
        if let Some(&pix) = self.provider_ix.get(company) {
            if self.provider_company.get(pix as usize) == Some(&0) {
                let key = self.resolve_credit(pix);
                if let Some(slot) = self.credit.get_mut(pix as usize) {
                    *slot = key;
                }
            }
        }
        cix
    }

    /// Resolve a provider's credit key — the id-space twin of the
    /// analysis layer's `company.unwrap_or(provider)` string key. A
    /// company-less provider whose *name* is interned as a company
    /// resolves to that company id, so one credit string never splits
    /// into two rollup entries. Cached in `credit` when the provider is
    /// interned and refreshed when such a company name is interned, so
    /// every index walk reads the key the tables resolve to at the end
    /// of its epoch's interning.
    fn resolve_credit(&self, pix: u32) -> (u8, u32) {
        let comp = self
            .provider_company
            .get(pix as usize)
            .copied()
            .unwrap_or(0);
        if comp > 0 {
            return (CREDIT_COMPANY, comp.saturating_sub(1));
        }
        let name = self
            .providers
            .get(pix as usize)
            .map(String::as_str)
            .unwrap_or("");
        if let Some(&cix) = self.company_ix.get(name) {
            return (CREDIT_COMPANY, cix);
        }
        (CREDIT_PROVIDER, pix)
    }

    fn canon(&mut self, row: &RowIn) -> CanonRow {
        CanonRow {
            has_smtp: row.has_smtp,
            self_hosted: row.self_hosted,
            shares: row
                .shares
                .iter()
                .map(|s| CanonShare {
                    provider: self.intern_provider(&s.provider, s.company.as_deref()),
                    weight_bits: s.weight.to_bits(),
                    source: s.source.code(),
                })
                .collect(),
        }
    }

    fn doc_name(&self, doc: u32) -> &str {
        self.doc_names
            .get(doc as usize)
            .map(String::as_str)
            .unwrap_or("")
    }

    fn rank_of(&self, doc: u32) -> u32 {
        self.rank.get(doc as usize).copied().unwrap_or(0)
    }

    /// The doc id of `name`, interning it (as a fresh doc of the epoch
    /// being added) when the dictionary does not hold it yet.
    fn intern_doc(&mut self, name: String) -> u32 {
        let found = self
            .sorted
            .binary_search_by(|&d| self.doc_name(d).as_bytes().cmp(name.as_bytes()));
        if let Some(&d) = found.ok().and_then(|pos| self.sorted.get(pos)) {
            return d;
        }
        let d = u32::try_from(self.doc_names.len()).unwrap_or(u32::MAX);
        self.doc_names.push(name);
        self.fresh.push(d);
        d
    }

    /// Position of `name` in the resolved view, searching from `from`
    /// (every earlier row sorts before `name`) with galloping steps, so
    /// a name-ordered sequence of seeks probes near its last hit.
    fn view_seek(&self, from: usize, name: &str) -> Result<usize, usize> {
        let key = name.as_bytes();
        let tail = self.view.get(from..).unwrap_or(&[]);
        let below = |i: usize| {
            tail.get(i)
                .is_some_and(|v| self.doc_name(v.doc).as_bytes() < key)
        };
        let mut step = 1usize;
        while step <= tail.len() && below(step.saturating_sub(1)) {
            step = step.saturating_mul(2);
        }
        let lo = step / 2;
        let hi = step.min(tail.len());
        let window = tail.get(lo..hi).unwrap_or(&[]);
        let at = |i: usize| from.saturating_add(lo).saturating_add(i);
        window
            .binary_search_by(|v| self.doc_name(v.doc).as_bytes().cmp(key))
            .map(at)
            .map_err(at)
    }

    /// Rebuild a writer from an already-written `mx-store/2` file so
    /// more epochs can be appended (the incremental-measurement path).
    ///
    /// The reconstruction is byte-exact: interned tables are reloaded
    /// in stored order, every epoch's sections are carried over as raw
    /// bytes (postings and digest lists with their skip marks rebuilt),
    /// and the resolved view of the last epoch is replayed so the next
    /// [`StoreWriter::add_epoch`] diffs against the true end state.
    /// `finish` on the result therefore reproduces the input bytes
    /// exactly when no epoch is added, and appending the same rows a
    /// fresh full build would have written produces the same file that
    /// full build produces.
    pub fn reopen(reader: &crate::reader::StoreReader<'_>) -> Result<StoreWriter, StoreError> {
        use crate::reader::EpochKind;

        let mut w = StoreWriter::new();

        let (providers, companies, provider_company) = reader.raw_tables();
        for (pix, p) in providers.iter().enumerate() {
            w.providers.push((*p).to_string());
            w.provider_ix
                .insert((*p).to_string(), u32::try_from(pix).unwrap_or(u32::MAX));
        }
        w.provider_company.extend_from_slice(provider_company);
        for (cix, c) in companies.iter().enumerate() {
            w.companies.push((*c).to_string());
            w.company_ix
                .insert((*c).to_string(), u32::try_from(cix).unwrap_or(u32::MAX));
        }
        w.credit = (0..providers.len())
            .map(|pix| w.resolve_credit(u32::try_from(pix).unwrap_or(u32::MAX)))
            .collect();

        // The stored dictionary is sorted: doc ids equal ranks.
        let mut buf = Vec::new();
        for doc in 0..reader.dict_count() {
            reader.doc_name_into(doc, &mut buf)?;
            let name = std::str::from_utf8(&buf).map_err(|_bad| StoreError::BadUtf8)?;
            w.doc_names.push(name.to_string());
            let d = u32::try_from(doc).unwrap_or(u32::MAX);
            w.sorted.push(d);
            w.rank.push(d);
        }
        w.dict = w.encode_dict();

        for e in 0..reader.epoch_count() {
            let (label, kind, rows, sidecar) =
                reader.raw_epoch(e).ok_or(StoreError::EpochOutOfRange {
                    epoch: e,
                    epochs: reader.epoch_count(),
                })?;
            let ix = reader.index_of(e)?;
            let mut summary = Vec::with_capacity(ix.summary.len().saturating_add(8));
            write_u64(&mut summary, ix.total_rows);
            write_u64(&mut summary, ix.summary_count as u64);
            summary.extend_from_slice(ix.summary);
            let mut rollup = Vec::with_capacity(ix.rollup.len().saturating_add(4));
            write_u64(&mut rollup, ix.rollup_count as u64);
            rollup.extend_from_slice(ix.rollup);
            let mut postings = GapSection::new(false);
            write_u64(&mut postings.bytes, ix.postings.len() as u64);
            for p in &ix.postings {
                write_u64(&mut postings.bytes, u64::from(p.provider));
                write_u64(&mut postings.bytes, p.count);
                postings.push_stored(p.bytes, p.count)?;
            }
            let mut digest = GapSection::new(true);
            if ix.total_rows > 0 {
                digest.push_stored(ix.digest, ix.total_rows)?;
            }
            w.epochs.push(EpochEnc {
                label: label.to_string(),
                kind: match kind {
                    EpochKind::Base => KIND_BASE,
                    EpochKind::Delta => KIND_DELTA,
                },
                rows: rows.to_vec(),
                sidecar: sidecar.to_vec(),
                summary,
                rollup,
                postings,
                digest,
            });
        }

        // Replay the resolved view of the last epoch as the diff base.
        // The merge walk and the digest iterate the same rows in the
        // same ascending-name order; the digest supplies the doc id and
        // the self-hosted bit the row encoding does not carry.
        if let Some(last) = reader.epoch_count().checked_sub(1) {
            let ix = reader.index_of(last)?;
            let mut digest = crate::index::RawDigestIter::new(ix.digest, ix.total_rows);
            let mut view = Vec::new();
            let provider_ix = &w.provider_ix;
            reader.for_each_row(last, |_name, row| {
                let (doc, flags, _credit) = digest.next().ok_or(StoreError::IndexMismatch {
                    what: "digest rows",
                })?;
                let mut shares = Vec::with_capacity(row.share_count());
                for s in row.shares() {
                    let pix = provider_ix
                        .get(s.provider)
                        .copied()
                        .ok_or(StoreError::BadIndex { what: "provider" })?;
                    shares.push(CanonShare {
                        provider: pix,
                        weight_bits: s.weight.to_bits(),
                        source: s.source.code(),
                    });
                }
                view.push(ViewRow {
                    doc: u32::try_from(doc)
                        .map_err(|_big| StoreError::BadIndex { what: "domain" })?,
                    row: CanonRow {
                        has_smtp: row.has_smtp(),
                        self_hosted: flags & DIGEST_SELF_HOSTED != 0,
                        shares,
                    },
                });
                Ok(())
            })?;
            w.view = view;
        }
        Ok(w)
    }

    /// Open an existing `mx-store/2` file, append `epochs` (label,
    /// full resolved rows, acquisition sidecar — exactly the
    /// [`StoreWriter::add_epoch`] inputs) as delta epochs, and return
    /// the rewritten file with its index footer extended.
    ///
    /// The result is byte-identical to the file a single writer fed
    /// every epoch from scratch would produce.
    pub fn append_epochs(
        bytes: &[u8],
        epochs: Vec<(String, Vec<RowIn>, AcquisitionReport)>,
    ) -> Result<Vec<u8>, StoreError> {
        let reader = crate::reader::StoreReader::open(bytes)?;
        let mut w = StoreWriter::reopen(&reader)?;
        for (label, rows, acq) in epochs {
            w.add_epoch(&label, rows, &acq)?;
        }
        Ok(w.finish())
    }

    /// Add one epoch. `label` is the epoch's display name (e.g.
    /// `2021-06`); `rows` is the full resolved table for the epoch (the
    /// writer sorts it and computes the delta itself); `acq` is the
    /// epoch's acquisition sidecar.
    ///
    /// Fails with [`StoreError::DuplicateRow`] if two rows share a name.
    pub fn add_epoch(
        &mut self,
        label: &str,
        mut rows: Vec<RowIn>,
        acq: &AcquisitionReport,
    ) -> Result<(), StoreError> {
        sort_unique(&mut rows)?;
        // Every row of the last epoch the table no longer holds left.
        let mut removals = Vec::new();
        let mut next = rows.iter().peekable();
        for v in &self.view {
            let name = self.doc_name(v.doc);
            while next
                .next_if(|r| r.name.as_bytes() < name.as_bytes())
                .is_some()
            {}
            if next.peek().is_none_or(|r| r.name != name) {
                removals.push(name.to_string());
            }
        }
        self.add_epoch_changes(label, rows, removals, acq)
    }

    /// Add one epoch from its changes against the last one: `upserts`
    /// are the full rows of every domain that was added or may have
    /// changed (a row equal to the current one is not a change), and
    /// `removals` names the domains that left (a name not in the last
    /// epoch is ignored). The bytes are exactly those
    /// [`StoreWriter::add_epoch`] writes for the full resolved table,
    /// at a cost that scales with the changes instead of the table.
    ///
    /// Fails with [`StoreError::DuplicateRow`] if two upserts share a
    /// name or a name is both upserted and removed.
    pub fn add_epoch_changes(
        &mut self,
        label: &str,
        mut upserts: Vec<RowIn>,
        mut removals: Vec<String>,
        acq: &AcquisitionReport,
    ) -> Result<(), StoreError> {
        sort_unique(&mut upserts)?;
        removals.sort_unstable_by(|a, b| a.as_bytes().cmp(b.as_bytes()));
        removals.dedup();
        let mut gone = removals.iter().peekable();
        for row in &upserts {
            while gone
                .next_if(|n| n.as_bytes() < row.name.as_bytes())
                .is_some()
            {}
            if gone.peek().is_some_and(|n| **n == row.name) {
                return Err(StoreError::DuplicateRow(row.name.clone()));
            }
        }

        let mut changes = Vec::with_capacity(upserts.len().saturating_add(removals.len()));
        let mut gone = removals.into_iter().peekable();
        let mut from = 0usize;
        for row in upserts {
            while let Some(name) = gone.next_if(|n| n.as_bytes() < row.name.as_bytes()) {
                from = self.push_removal(&mut changes, from, &name);
            }
            let canon = self.canon(&row);
            match self.view_seek(from, &row.name) {
                Ok(pos) => {
                    from = pos.saturating_add(1);
                    if let Some(v) = self.view.get(pos).filter(|v| v.row != canon) {
                        changes.push(Change {
                            doc: v.doc,
                            row: Some(canon),
                        });
                    }
                }
                Err(pos) => {
                    from = pos;
                    let doc = self.intern_doc(row.name);
                    changes.push(Change {
                        doc,
                        row: Some(canon),
                    });
                }
            }
        }
        for name in gone {
            from = self.push_removal(&mut changes, from, &name);
        }
        self.commit(label, changes, acq)
    }

    /// Record the removal of `name` if the view holds it; returns where
    /// the next name-ordered seek starts.
    fn push_removal(&self, changes: &mut Vec<Change>, from: usize, name: &str) -> usize {
        match self.view_seek(from, name) {
            Ok(pos) => {
                if let Some(v) = self.view.get(pos) {
                    changes.push(Change {
                        doc: v.doc,
                        row: None,
                    });
                }
                pos.saturating_add(1)
            }
            Err(pos) => pos,
        }
    }

    /// The changes core: merge the epoch's fresh names into the
    /// dictionary, encode its rows section from the name-sorted
    /// `changes`, apply them to the resolved view, and encode the
    /// epoch's index block from one walk of that view.
    fn commit(
        &mut self,
        label: &str,
        changes: Vec<Change>,
        acq: &AcquisitionReport,
    ) -> Result<(), StoreError> {
        self.merge_fresh_docs()?;
        let base = self.epochs.is_empty();

        // Entries with prefix compression, restart every
        // RESTART_INTERVAL entries.
        let entry_count = changes.len() as u64;
        let mut rows = Vec::new();
        write_u64(&mut rows, entry_count);
        let mut prev_name = "";
        let mut upserts = 0u64;
        for (i, c) in changes.iter().enumerate() {
            let name = self.doc_name(c.doc);
            let prefix = if i % RESTART_INTERVAL == 0 {
                0
            } else {
                common_prefix(prev_name.as_bytes(), name.as_bytes())
            };
            write_u64(&mut rows, prefix as u64);
            let suffix = name.as_bytes().get(prefix..).unwrap_or(&[]);
            write_u64(&mut rows, suffix.len() as u64);
            rows.extend_from_slice(suffix);
            match &c.row {
                None => rows.push(TAG_REMOVE),
                Some(row) => {
                    upserts = upserts.saturating_add(1);
                    rows.push(if row.has_smtp { TAG_ROW_SMTP } else { TAG_ROW });
                    write_u64(&mut rows, row.shares.len() as u64);
                    for s in &row.shares {
                        write_u64(&mut rows, s.provider as u64);
                        rows.extend_from_slice(&s.weight_bits.to_le_bytes());
                        rows.push(s.source);
                    }
                }
            }
            prev_name = name;
        }
        mx_obs::counter!(mx_obs::names::STORE_WRITE_ROWS).add(upserts);
        if !base {
            mx_obs::counter!(mx_obs::names::STORE_WRITE_DELTA_OPS).add(entry_count);
        }

        // Apply the changes: both sides are ascending by rank.
        let old = std::mem::take(&mut self.view);
        let mut view = Vec::with_capacity(old.len().saturating_add(changes.len()));
        let mut old = old.into_iter().peekable();
        for c in changes {
            let r = self.rank_of(c.doc);
            while let Some(v) = old.next_if(|v| self.rank_of(v.doc) < r) {
                view.push(v);
            }
            old.next_if(|v| v.doc == c.doc);
            if let Some(row) = c.row {
                view.push(ViewRow { doc: c.doc, row });
            }
        }
        view.extend(old);
        self.view = view;

        let (summary, rollup, postings, digest) = self.encode_index();
        self.epochs.push(EpochEnc {
            label: label.to_string(),
            kind: if base { KIND_BASE } else { KIND_DELTA },
            rows,
            sidecar: encode_sidecar(acq),
            summary,
            rollup,
            postings,
            digest,
        });
        Ok(())
    }

    /// Merge the docs the epoch interned into the dictionary: splice
    /// them into `sorted`, shift every earlier epoch's gap lists by the
    /// inserted ranks, and re-encode the dictionary section.
    fn merge_fresh_docs(&mut self) -> Result<(), StoreError> {
        if self.fresh.is_empty() {
            return Ok(());
        }
        let fresh = std::mem::take(&mut self.fresh);
        // How many known names sort before each fresh one; `fresh` is
        // ascending by name, so the points are too.
        let points: Vec<usize> = fresh
            .iter()
            .map(|&d| {
                let name = self.doc_name(d).as_bytes();
                self.sorted
                    .partition_point(|&s| self.doc_name(s).as_bytes() < name)
            })
            .collect();
        if !self.epochs.is_empty() {
            let wide: Vec<u64> = points.iter().map(|&p| p as u64).collect();
            for ep in &mut self.epochs {
                ep.postings.insert_ranks(&wide)?;
                ep.digest.insert_ranks(&wide)?;
            }
        }
        let mut sorted = Vec::with_capacity(self.sorted.len().saturating_add(fresh.len()));
        let mut from = 0usize;
        for (&d, &at) in fresh.iter().zip(&points) {
            sorted.extend_from_slice(self.sorted.get(from..at).unwrap_or(&[]));
            sorted.push(d);
            from = at;
        }
        sorted.extend_from_slice(self.sorted.get(from..).unwrap_or(&[]));
        self.sorted = sorted;
        // Ranks below the first insertion point did not move.
        self.rank.resize(self.doc_names.len(), 0);
        let unmoved = points.first().copied().unwrap_or(0);
        for (r, &d) in self.sorted.iter().enumerate().skip(unmoved) {
            if let Some(slot) = self.rank.get_mut(d as usize) {
                *slot = u32::try_from(r).unwrap_or(u32::MAX);
            }
        }
        self.dict = self.encode_dict();
        Ok(())
    }

    /// The dictionary section: prefix-compressed like epoch rows,
    /// restart (full name) every RESTART_INTERVAL entries.
    fn encode_dict(&self) -> Vec<u8> {
        let mut dict = Vec::new();
        write_u64(&mut dict, self.sorted.len() as u64);
        let mut prev_name = "";
        for (i, &d) in self.sorted.iter().enumerate() {
            let name = self.doc_name(d);
            let prefix = if i % RESTART_INTERVAL == 0 {
                0
            } else {
                common_prefix(prev_name.as_bytes(), name.as_bytes())
            };
            write_u64(&mut dict, prefix as u64);
            let suffix = name.as_bytes().get(prefix..).unwrap_or(&[]);
            write_u64(&mut dict, suffix.len() as u64);
            dict.extend_from_slice(suffix);
            prev_name = name;
        }
        dict
    }

    /// Encode the index block of the resolved view: summary, rollup,
    /// postings and digest. The walk (rows by name, shares in stored
    /// order) is the exact addition order the reader's merge path
    /// replays, so every stored f64 sum matches it bit for bit; the
    /// accumulators are dense, indexed by provider or credit id.
    fn encode_index(&self) -> (Vec<u8>, Vec<u8>, GapSection, GapSection) {
        let np = self.providers.len();
        let mut rows_of = vec![0u64; np];
        let mut weight_of = vec![0.0f64; np];
        // (provider, rank) of every posting, in walk order.
        let mut posted: Vec<(u32, u64)> = Vec::new();
        let mut credit_sums: [Vec<Option<f64>>; 2] =
            [vec![None; self.companies.len()], vec![None; np]];
        let mut digest = GapSection::new(true);
        if !self.view.is_empty() {
            digest.begin_list();
        }
        let mut row_pids: Vec<u32> = Vec::new();
        for v in &self.view {
            let rank = u64::from(self.rank_of(v.doc));
            row_pids.clear();
            for s in &v.row.shares {
                let w = f64::from_bits(s.weight_bits);
                let p = s.provider as usize;
                if let Some(sum) = weight_of.get_mut(p) {
                    *sum += w;
                }
                if !row_pids.contains(&s.provider) {
                    row_pids.push(s.provider);
                    if let Some(n) = rows_of.get_mut(p) {
                        *n = n.saturating_add(1);
                    }
                    posted.push((s.provider, rank));
                }
                let (kind, id) = self.credit_of(s.provider);
                if let Some(sum) = credit_sums
                    .get_mut(usize::from(kind))
                    .and_then(|sums| sums.get_mut(id as usize))
                {
                    *sum.get_or_insert(0.0) += w;
                }
            }
            // Dominant share: max weight, later stored share wins ties
            // (`max_by` keeps the last maximum — same tie-break as the
            // analysis layer's in-memory walk).
            let credit = v
                .row
                .shares
                .iter()
                .max_by(|a, b| {
                    f64::from_bits(a.weight_bits).total_cmp(&f64::from_bits(b.weight_bits))
                })
                .map(|s| self.credit_of(s.provider));
            let mut flags = 0u8;
            if v.row.has_smtp {
                flags |= DIGEST_SMTP;
            }
            if v.row.self_hosted {
                flags |= DIGEST_SELF_HOSTED;
            }
            if let Some((kind, _id)) = credit {
                flags |= DIGEST_HAS_CREDIT;
                if kind == CREDIT_PROVIDER {
                    flags |= DIGEST_CREDIT_PROVIDER;
                }
            }
            let tail = digest.push(rank);
            tail.push(flags);
            if let Some((_kind, id)) = credit {
                write_u64(tail, id as u64);
            }
        }

        let mut summary = Vec::new();
        write_u64(&mut summary, self.view.len() as u64);
        let summary_count = rows_of.iter().filter(|&&n| n > 0).count() as u64;
        write_u64(&mut summary, summary_count);
        for (pid, (&n, &w)) in rows_of.iter().zip(&weight_of).enumerate() {
            if n > 0 {
                write_u64(&mut summary, pid as u64);
                write_u64(&mut summary, n);
                summary.extend_from_slice(&w.to_bits().to_le_bytes());
            }
        }

        // Company credits sort before provider credits (kind byte 0 < 1).
        let mut rollup = Vec::new();
        let used = credit_sums.iter().flatten().filter(|s| s.is_some()).count();
        write_u64(&mut rollup, used as u64);
        for (kind, sums) in [CREDIT_COMPANY, CREDIT_PROVIDER]
            .into_iter()
            .zip(&credit_sums)
        {
            for (id, sum) in sums.iter().enumerate() {
                if let Some(w) = sum {
                    rollup.push(kind);
                    write_u64(&mut rollup, id as u64);
                    rollup.extend_from_slice(&w.to_bits().to_le_bytes());
                }
            }
        }

        // Postings: one list per provider, ascending by provider id,
        // each in rank (walk) order.
        posted.sort_unstable();
        let mut postings = GapSection::new(false);
        write_u64(&mut postings.bytes, summary_count);
        let mut prev = None;
        for (pid, rank) in posted {
            if prev != Some(pid) {
                prev = Some(pid);
                write_u64(&mut postings.bytes, u64::from(pid));
                write_u64(
                    &mut postings.bytes,
                    rows_of.get(pid as usize).copied().unwrap_or(0),
                );
                postings.begin_list();
            }
            postings.push(rank);
        }

        (summary, rollup, postings, digest)
    }

    fn credit_of(&self, pix: u32) -> (u8, u32) {
        self.credit
            .get(pix as usize)
            .copied()
            .unwrap_or((CREDIT_PROVIDER, pix))
    }

    /// Assemble the final store bytes in the current (`mx-store/2`)
    /// format: header, tables, epochs, then the index footer.
    pub fn finish(self) -> Vec<u8> {
        self.snapshot()
    }

    /// Encode the current contents as a complete `mx-store/2` file
    /// *without* consuming the writer. The incremental-measurement
    /// path keeps one writer hot across a whole delta series and
    /// snapshots after every appended epoch; `snapshot` then
    /// `add_epoch` then `snapshot` again yields exactly the two files
    /// two separate full builds would produce. Every section is
    /// already encoded, so this copies bytes and frames them.
    pub fn snapshot(&self) -> Vec<u8> {
        let _span = mx_obs::stage!(mx_obs::names::STAGE_STORE_WRITE).enter();
        let est: usize = self
            .epochs
            .iter()
            .map(|e| {
                e.rows.len()
                    + e.sidecar.len()
                    + e.summary.len()
                    + e.rollup.len()
                    + e.postings.bytes.len()
                    + e.digest.bytes.len()
                    + 96
            })
            .sum::<usize>()
            + self.dict.len()
            + 256;
        let mut out = Vec::with_capacity(est);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes()); // flags, reserved
        write_str(&mut out, SCHEMA);
        out.push(u8::try_from(RESTART_INTERVAL).unwrap_or(u8::MAX));

        write_u64(&mut out, self.providers.len() as u64);
        for p in &self.providers {
            write_str(&mut out, p);
        }
        write_u64(&mut out, self.companies.len() as u64);
        for c in &self.companies {
            write_str(&mut out, c);
        }
        for &comp in &self.provider_company {
            write_u64(&mut out, comp as u64);
        }
        write_u64(&mut out, self.epochs.len() as u64);
        for ep in &self.epochs {
            write_str(&mut out, &ep.label);
            out.push(ep.kind);
            // Rows section: length-framed so a reader can skip epochs.
            write_section(&mut out, &ep.rows);
            write_section(&mut out, &ep.sidecar);
        }

        // The index footer: the dictionary, then per epoch the summary,
        // rollup, postings and digest sections, each length-framed.
        write_section(&mut out, &self.dict);
        for ep in &self.epochs {
            write_section(&mut out, &ep.summary);
            write_section(&mut out, &ep.rollup);
            write_section(&mut out, &ep.postings.bytes);
            write_section(&mut out, &ep.digest.bytes);
        }
        mx_obs::counter!(mx_obs::names::STORE_WRITE_EPOCHS).add(self.epochs.len() as u64);
        mx_obs::counter!(mx_obs::names::STORE_WRITE_BYTES).add(out.len() as u64);
        out
    }
}

/// Sort rows by dotted-name bytes, failing on a repeated name.
fn sort_unique(rows: &mut [RowIn]) -> Result<(), StoreError> {
    rows.sort_by(|a, b| a.name.as_bytes().cmp(b.name.as_bytes()));
    for pair in rows.windows(2) {
        if let [a, b] = pair {
            if a.name == b.name {
                return Err(StoreError::DuplicateRow(a.name.clone()));
            }
        }
    }
    Ok(())
}

/// Append `bytes` framed by its varint length.
fn write_section(out: &mut Vec<u8>, bytes: &[u8]) {
    write_u64(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Length of the shared leading byte run of `a` and `b`.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// Encode the acquisition sidecar: IPs sorted numerically, then DNS
/// degradation entries sorted by dotted name.
fn encode_sidecar(acq: &AcquisitionReport) -> Vec<u8> {
    let mut out = Vec::new();
    let mut ips: Vec<_> = acq.ips.iter().collect();
    ips.sort_by_key(|(ip, _)| u32::from(**ip));
    write_u64(&mut out, ips.len() as u64);
    for (ip, a) in ips {
        out.extend_from_slice(&ip.octets());
        write_u64(&mut out, a.attempts as u64);
        let mut flags = 0u8;
        if a.recovered {
            flags |= SIDE_RECOVERED;
        }
        if a.exhausted {
            flags |= SIDE_EXHAUSTED;
        }
        if a.blocked {
            flags |= SIDE_BLOCKED;
        }
        out.push(flags);
        out.push(fault_code(a.fault));
    }
    let mut doms: Vec<(String, &mx_acq::DnsAcquisition)> = acq
        .domains
        .iter()
        .map(|(n, d)| (n.to_dotted(), d))
        .collect();
    doms.sort_by(|a, b| a.0.as_bytes().cmp(b.0.as_bytes()));
    write_u64(&mut out, doms.len() as u64);
    for (name, d) in doms {
        write_str(&mut out, &name);
        write_u64(&mut out, d.retries as u64);
        out.push(u8::from(d.exhausted));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::StoreReader;
    use mx_acq::{AcqFault, DnsAcquisition, IpAcquisition};

    fn share(provider: &str, company: Option<&str>, weight: f64) -> ShareIn {
        ShareIn {
            provider: provider.to_string(),
            company: company.map(str::to_string),
            weight,
            source: ShareSource::MxRecord,
        }
    }

    fn epoch_rows(k: usize) -> Vec<RowIn> {
        let mut rows = vec![
            RowIn {
                name: "alpha.test".into(),
                has_smtp: true,
                self_hosted: false,
                shares: vec![share("mail.example", Some("Example"), 1.0)],
            },
            RowIn {
                name: "beta.test".into(),
                has_smtp: k < 2,
                self_hosted: true,
                shares: vec![share("beta.test", None, 1.0)],
            },
        ];
        if k >= 1 {
            rows.push(RowIn {
                name: "gamma.test".into(),
                has_smtp: true,
                self_hosted: false,
                shares: vec![
                    share("mail.example", Some("Example"), 0.5),
                    share("other.example", None, 0.5),
                ],
            });
        }
        rows
    }

    fn epoch_acq(k: usize) -> AcquisitionReport {
        let mut acq = AcquisitionReport::default();
        acq.ips.insert(
            format!("10.0.0.{}", k + 1).parse().expect("valid ip"),
            IpAcquisition {
                attempts: 2,
                recovered: true,
                exhausted: false,
                blocked: false,
                fault: Some(AcqFault::Transient),
            },
        );
        acq.domains.insert(
            mx_dns::dns_name!("beta.test"),
            DnsAcquisition {
                retries: k as u32,
                exhausted: false,
            },
        );
        acq
    }

    fn build_full(epochs: usize) -> Vec<u8> {
        let mut w = StoreWriter::new();
        for k in 0..epochs {
            w.add_epoch(&format!("e{k}"), epoch_rows(k), &epoch_acq(k))
                .expect("add epoch");
        }
        w.finish()
    }

    #[test]
    fn reopen_without_appending_reproduces_the_file() {
        let bytes = build_full(3);
        let reader = StoreReader::open(&bytes).expect("open");
        let again = StoreWriter::reopen(&reader).expect("reopen").finish();
        assert_eq!(bytes, again, "reopen+finish must be the identity");
    }

    #[test]
    fn append_matches_full_build() {
        let full = build_full(3);
        let base = build_full(2);
        let appended = StoreWriter::append_epochs(
            &base,
            vec![("e2".to_string(), epoch_rows(2), epoch_acq(2))],
        )
        .expect("append");
        assert_eq!(full, appended, "append diverges from the full build");
    }

    /// A section of rank lists, postings-style (provider id and count
    /// before each list) or a digest (one list, each entry's tail
    /// derived from its index so a shifted rebuild carries the same
    /// tails). `headers: false` leaves the ids and counts out.
    fn section(lists: &[Vec<u64>], digest: bool, headers: bool) -> GapSection {
        let mut sec = GapSection::new(digest);
        for (pid, ranks) in lists.iter().enumerate() {
            if headers && !digest {
                write_u64(&mut sec.bytes, pid as u64);
                write_u64(&mut sec.bytes, ranks.len() as u64);
            }
            sec.begin_list();
            for (i, &r) in ranks.iter().enumerate() {
                let tail = sec.push(r);
                if digest {
                    if i % 3 == 0 {
                        tail.push(DIGEST_SMTP);
                    } else {
                        tail.push(DIGEST_HAS_CREDIT | DIGEST_CREDIT_PROVIDER);
                        write_u64(tail, (i * 37) as u64);
                    }
                }
            }
        }
        sec
    }

    /// The same section assembled from each list's stored bytes.
    fn restored(lists: &[Vec<u64>], digest: bool) -> GapSection {
        let mut sec = GapSection::new(digest);
        for (pid, ranks) in lists.iter().enumerate() {
            if !digest {
                write_u64(&mut sec.bytes, pid as u64);
                write_u64(&mut sec.bytes, ranks.len() as u64);
            }
            let stored = section(std::slice::from_ref(ranks), digest, false).bytes;
            sec.push_stored(&stored, ranks.len() as u64)
                .expect("stored list decodes");
        }
        sec
    }

    #[test]
    fn inserted_ranks_patch_sections_like_a_rebuild() {
        let mut rng = mx_rng::SmallRng::seed_from_u64(17);
        // Gaps straddling every varint length boundary a patch can grow.
        let gaps = [1u64, 2, 126, 127, 128, 16_382, 16_383, 16_384];
        for case in 0..400 {
            let digest = case % 2 == 1;
            let list_count = if digest { 1 } else { rng.gen_range(1..6usize) };
            let mut top = 0;
            let lists: Vec<Vec<u64>> = (0..list_count)
                .map(|_| {
                    let len = rng.gen_range(1..300usize);
                    let mut r = rng.gen_range(0..130u64);
                    let ranks: Vec<u64> = (0..len)
                        .map(|_| {
                            let at = r;
                            r += if rng.gen_bool(0.5) {
                                1
                            } else {
                                gaps[rng.gen_range(0..gaps.len())]
                            };
                            at
                        })
                        .collect();
                    top = top.max(r + 2);
                    ranks
                })
                .collect();
            let all: Vec<u64> = lists.iter().flatten().copied().collect();
            let mut points: Vec<u64> = (0..rng.gen_range(1..6usize))
                .map(|_| {
                    // Land some points right on an entry or just past it.
                    match all.get(rng.gen_range(0..all.len())) {
                        Some(&at) if rng.gen_bool(0.6) => at + rng.gen_range(0..2u64),
                        _ => rng.gen_range(0..top),
                    }
                })
                .collect();
            points.sort_unstable();
            let shifted: Vec<Vec<u64>> = lists
                .iter()
                .map(|ranks| {
                    ranks
                        .iter()
                        .map(|&r| r + points.iter().filter(|&&p| p <= r).count() as u64)
                        .collect()
                })
                .collect();
            let mut sec = section(&lists, digest, true);
            sec.insert_ranks(&points).expect("patch applies");
            let want = section(&shifted, digest, true);
            assert_eq!(sec.bytes, want.bytes, "case {case}: bytes");
            assert_eq!(sec.lists, want.lists, "case {case}: directory");
            let again = restored(&shifted, digest);
            assert_eq!(again.bytes, want.bytes, "case {case}: stored bytes");
            assert_eq!(again.lists, want.lists, "case {case}: stored directory");
        }
    }
}
