//! The zero-copy store reader.
//!
//! [`StoreReader::open`] validates the whole file in one pass —
//! header, tables, every row entry of every epoch (structure, UTF-8,
//! strict name ordering, interning bounds), every sidecar record — and
//! builds a per-epoch block index of restart points whose names are
//! borrowed straight from the input buffer. After a successful open:
//!
//! - **point lookups** binary-search the restart index and then walk at
//!   most one block, comparing prefix-compressed entries against the
//!   target *incrementally* (no name is ever materialized);
//! - **full-epoch iteration** resolves base + delta layers with a
//!   k-way merge, reusing one name buffer per layer (no per-row
//!   allocation);
//! - **epoch diffs** walk the same merge once over both epochs'
//!   layers and report the added/removed/changed rows between two
//!   resolved epochs in ascending name order;
//! - **index queries** answer market share, rollups, "domains of
//!   provider X" and digest walks straight from the index footer,
//!   without touching the epoch layers.
//!
//! Only the current [`VERSION`](crate::VERSION) opens; any other
//! header version is [`StoreError::UnsupportedVersion`].
//!
//! Every decode path returns a typed [`StoreError`]; malformed input
//! can never panic this module (it sits in mx-lint's untrusted +
//! wire-codec scope).

use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};

use mx_acq::{AcquisitionReport, DnsAcquisition, IpAcquisition};
use mx_dns::Name;

use crate::format::{
    fault_from_code, Cur, CREDIT_COMPANY, CREDIT_PROVIDER, DIGEST_SELF_HOSTED, DIGEST_SMTP,
    FAULT_CODE_MAX, KIND_BASE, KIND_DELTA, MAGIC, SCHEMA, SIDE_BLOCKED, SIDE_EXHAUSTED,
    SIDE_FLAGS_MASK, SIDE_RECOVERED, SOURCE_CODE_MAX, TAG_REMOVE, TAG_ROW, TAG_ROW_SMTP, VERSION,
};
use crate::index;
use crate::{ShareSource, StoreError};

/// Whether an epoch is a full base snapshot or a delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochKind {
    /// Full snapshot (always and only the first epoch).
    Base,
    /// Changed/added/removed rows against the previous resolved epoch.
    Delta,
}

/// A restart point: a full (uncompressed) name and its entry offset.
#[derive(Clone, Copy)]
struct Restart<'a> {
    name: &'a str,
    offset: usize,
}

/// One epoch's index: borrowed label, entry bytes, restart points and
/// sidecar slices.
struct EpochIx<'a> {
    label: &'a str,
    kind: EpochKind,
    /// The whole rows section (entry-count varint, then the entries),
    /// which writer reopen carries over verbatim.
    rows: &'a [u8],
    /// The whole sidecar section, likewise.
    side: &'a [u8],
    /// Entry bytes (after the entry-count varint).
    entries: &'a [u8],
    entry_count: u64,
    restarts: Vec<Restart<'a>>,
    /// Last restart block a point lookup landed in (relaxed atomic, a
    /// pure cache): consecutive lookups of nearby names skip the
    /// binary search when the hinted block still covers the target.
    hint: AtomicUsize,
    side_ips: &'a [u8],
    ip_count: usize,
    side_dns: &'a [u8],
    dns_count: usize,
}

/// A validated, zero-copy view over store bytes.
///
/// The `Debug` form is a summary (table and epoch sizes), not a dump.
pub struct StoreReader<'a> {
    providers: Vec<&'a str>,
    companies: Vec<&'a str>,
    /// Per provider: 0 = no company, else company index + 1.
    provider_company: Vec<u32>,
    epochs: Vec<EpochIx<'a>>,
    /// The global domain dictionary.
    dict: index::DictIx<'a>,
    /// Per-epoch index blocks, one per epoch.
    eix: Vec<index::EpochIndexIx<'a>>,
}

impl<'a> std::fmt::Debug for StoreReader<'a> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StoreReader")
            .field("providers", &self.providers.len())
            .field("companies", &self.companies.len())
            .field("epochs", &self.epochs.len())
            .finish()
    }
}

/// One resolved row: SMTP liveness plus lazily-decoded shares.
#[derive(Clone, Copy)]
pub struct Row<'r> {
    reader: &'r StoreReader<'r>,
    has_smtp: bool,
    share_count: usize,
    /// Encoded share bytes (validated at open).
    bytes: &'r [u8],
}

impl<'r> PartialEq for Row<'r> {
    fn eq(&self, other: &Self) -> bool {
        // Same interning tables (same store) make byte equality exact;
        // across stores this is still correct only when the tables
        // agree, which diff() (single store) guarantees.
        self.has_smtp == other.has_smtp
            && self.share_count == other.share_count
            && self.bytes == other.bytes
    }
}

impl<'r> Row<'r> {
    /// Does the domain have a live primary SMTP server?
    pub fn has_smtp(&self) -> bool {
        self.has_smtp
    }

    /// Number of provider shares.
    pub fn share_count(&self) -> usize {
        self.share_count
    }

    /// Iterate the shares. Total for rows obtained from a successfully
    /// opened reader (the open pass validated every share).
    pub fn shares(&self) -> ShareIter<'r> {
        ShareIter {
            reader: self.reader,
            cur: Cur::new(self.bytes),
            left: self.share_count,
        }
    }

    /// The dominant share: maximum weight, later (in stored order)
    /// share winning ties — the same resolution `analysis::churn` uses.
    pub fn dominant(&self) -> Option<Share<'r>> {
        self.shares().max_by(|a, b| a.weight.total_cmp(&b.weight))
    }
}

/// One decoded share.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Share<'r> {
    /// Provider identifier (interned table slice).
    pub provider: &'r str,
    /// Company behind the provider, when mapped.
    pub company: Option<&'r str>,
    /// Responsibility weight.
    pub weight: f64,
    /// Where the identification came from.
    pub source: ShareSource,
}

/// Iterator over a row's shares (see [`Row::shares`]).
pub struct ShareIter<'r> {
    reader: &'r StoreReader<'r>,
    cur: Cur<'r>,
    left: usize,
}

impl<'r> Iterator for ShareIter<'r> {
    type Item = Share<'r>;

    fn next(&mut self) -> Option<Share<'r>> {
        if self.left == 0 {
            return None;
        }
        self.left = self.left.saturating_sub(1);
        // Validated at open; any failure here just ends the iteration.
        let pix = self.cur.count().ok()?;
        let bits = self.cur.bytes(8).ok()?;
        let arr: [u8; 8] = bits.try_into().ok()?;
        let source = ShareSource::from_code(self.cur.u8().ok()?).ok()?;
        let provider = self.reader.providers.get(pix).copied()?;
        Some(Share {
            provider,
            company: self.reader.company_of_index(pix),
            weight: f64::from_bits(u64::from_le_bytes(arr)),
            source,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.left))
    }
}

/// Outcome of probing one layer for a name.
enum LayerHit<'r> {
    Row(Row<'r>),
    Removed,
    Absent,
}

impl<'a> StoreReader<'a> {
    /// Validate `buf` as a complete `mx-store/2` file and index it.
    pub fn open(buf: &'a [u8]) -> Result<StoreReader<'a>, StoreError> {
        let _span = mx_obs::stage!(mx_obs::names::STAGE_STORE_READ).enter();
        mx_obs::counter_volatile!(mx_obs::names::STORE_READ_OPENS).incr();
        let mut cur = Cur::new(buf);
        if cur.bytes(4)? != MAGIC {
            return Err(StoreError::BadMagic);
        }
        let vraw = cur.bytes(2)?;
        let varr: [u8; 2] = vraw.try_into().map_err(|_bad| StoreError::Truncated)?;
        let version = u16::from_le_bytes(varr);
        if version != VERSION {
            return Err(StoreError::UnsupportedVersion(version));
        }
        let _flags = cur.bytes(2)?;
        if cur.str()? != SCHEMA {
            return Err(StoreError::BadSchema);
        }
        // The header declares the dictionary restart cadence.
        let interval = match cur.u8()? {
            0 => {
                return Err(StoreError::IndexCorrupt {
                    what: "restart interval",
                })
            }
            b => b as usize,
        };

        let providers = read_table(&mut cur)?;
        let companies = read_table(&mut cur)?;
        let mut provider_company = Vec::new();
        for _pix in 0..providers.len() {
            let v = cur.varint()?;
            if v > companies.len() as u64 {
                return Err(StoreError::BadIndex { what: "company" });
            }
            provider_company.push(u32::try_from(v).map_err(|_big| StoreError::VarintOverflow)?);
        }

        let epoch_count = cur.count()?;
        let mut epochs: Vec<EpochIx<'a>> = Vec::new();
        for eix in 0..epoch_count {
            let label = cur.str()?;
            let kind_byte = cur.u8()?;
            let kind = match kind_byte {
                KIND_BASE => EpochKind::Base,
                KIND_DELTA => EpochKind::Delta,
                other => return Err(StoreError::BadKind(other)),
            };
            // Exactly the first epoch must be the base.
            if (eix == 0) != (kind == EpochKind::Base) {
                return Err(StoreError::BadKind(kind_byte));
            }
            let rows_len = cur.count()?;
            let rows = cur.bytes(rows_len)?;
            let (entry_count, entries, restarts) =
                index_entries(rows, kind, providers.len())?;
            let side_len = cur.count()?;
            let side = cur.bytes(side_len)?;
            let sidecar = index_sidecar(side)?;
            epochs.push(EpochIx {
                label,
                kind,
                rows,
                side,
                entries,
                entry_count,
                restarts,
                hint: AtomicUsize::new(0),
                side_ips: sidecar.0,
                ip_count: sidecar.1,
                side_dns: sidecar.2,
                dns_count: sidecar.3,
            });
        }

        // Index footer: the global dictionary, then one summary /
        // rollup / postings / digest quartet per epoch.
        let dict_len = cur.count()?;
        let dict = index::DictIx::parse(cur.bytes(dict_len)?, interval)?;
        let mut eix: Vec<index::EpochIndexIx<'a>> = Vec::new();
        for _eidx in 0..epoch_count {
            let len = cur.count()?;
            let (total_rows, summary_count, summary) =
                index::parse_summary(cur.bytes(len)?, providers.len())?;
            let len = cur.count()?;
            let (rollup_count, rollup) =
                index::parse_rollup(cur.bytes(len)?, providers.len(), companies.len())?;
            let len = cur.count()?;
            let postings = index::parse_postings(cur.bytes(len)?, providers.len(), dict.count())?;
            let len = cur.count()?;
            let digest = index::parse_digest(
                cur.bytes(len)?,
                total_rows,
                providers.len(),
                companies.len(),
                dict.count(),
            )?;
            index::cross_check_summary_postings(summary, summary_count, &postings)?;
            eix.push(index::EpochIndexIx {
                total_rows,
                summary,
                summary_count,
                rollup,
                rollup_count,
                postings,
                digest,
            });
        }

        if cur.remaining() != 0 {
            return Err(StoreError::TrailingBytes);
        }
        Ok(StoreReader {
            providers,
            companies,
            provider_company,
            epochs,
            dict,
            eix,
        })
    }

    /// Number of epochs stored.
    pub fn epoch_count(&self) -> usize {
        self.epochs.len()
    }

    /// The label of one epoch.
    pub fn label(&self, epoch: usize) -> Option<&'a str> {
        self.epochs.get(epoch).map(|e| e.label)
    }

    /// All epoch labels, in order.
    pub fn labels(&self) -> impl Iterator<Item = &'a str> + '_ {
        self.epochs.iter().map(|e| e.label)
    }

    /// The epoch index of a label, if present.
    pub fn find_epoch(&self, label: &str) -> Option<usize> {
        self.epochs.iter().position(|e| e.label == label)
    }

    /// The kind (base/delta) of one epoch.
    pub fn epoch_kind(&self, epoch: usize) -> Option<EpochKind> {
        self.epochs.get(epoch).map(|e| e.kind)
    }

    /// Number of entries (upserts + removals) encoded for one epoch.
    pub fn entry_count(&self, epoch: usize) -> Option<u64> {
        self.epochs.get(epoch).map(|e| e.entry_count)
    }

    /// The interned provider table.
    pub fn providers(&self) -> &[&'a str] {
        &self.providers
    }

    /// The interned company table.
    pub fn companies(&self) -> &[&'a str] {
        &self.companies
    }

    fn company_of_index(&self, pix: usize) -> Option<&'a str> {
        let comp = *self.provider_company.get(pix)?;
        let cix = (comp as usize).checked_sub(1)?;
        self.companies.get(cix).copied()
    }

    fn epoch(&self, epoch: usize) -> Result<&EpochIx<'a>, StoreError> {
        self.epochs.get(epoch).ok_or(StoreError::EpochOutOfRange {
            epoch,
            epochs: self.epochs.len(),
        })
    }

    /// Point lookup: the row of `name` (dotted form) as of `epoch`,
    /// resolving delta layers newest-first. `Ok(None)` means the domain
    /// is not in the epoch's resolved view.
    pub fn lookup(&self, name: &str, epoch: usize) -> Result<Option<Row<'_>>, StoreError> {
        mx_obs::counter_volatile!(mx_obs::names::STORE_READ_LOOKUPS).incr();
        self.epoch(epoch)?;
        let mut layer_idx = epoch.saturating_add(1);
        while layer_idx > 0 {
            layer_idx = layer_idx.saturating_sub(1);
            let ep = self.epoch(layer_idx)?;
            match self.lookup_layer(ep, name)? {
                LayerHit::Row(row) => return Ok(Some(row)),
                LayerHit::Removed => return Ok(None),
                LayerHit::Absent => {}
            }
        }
        Ok(None)
    }

    /// The dominant provider of `name` as of `epoch` (maximum-weight
    /// share, stored-order-last winning ties), if the domain is present
    /// and has any provider shares.
    pub fn provider_of(&self, name: &str, epoch: usize) -> Result<Option<&str>, StoreError> {
        Ok(self
            .lookup(name, epoch)?
            .and_then(|row| row.dominant())
            .map(|s| s.provider))
    }

    /// Probe one epoch layer for `name` without resolving deltas.
    fn lookup_layer(&self, ep: &EpochIx<'a>, name: &str) -> Result<LayerHit<'_>, StoreError> {
        let target = name.as_bytes();
        // Restart-block cache: if the last block this layer served
        // still covers the target, skip the binary search entirely
        // (sorted query batches hit the same block run after run).
        let hinted = ep.hint.load(AtomicOrdering::Relaxed);
        let pp = if hint_covers(ep, hinted, target) {
            hinted.saturating_add(1)
        } else {
            let pp = ep
                .restarts
                .partition_point(|r| r.name.as_bytes() <= target);
            ep.hint
                .store(pp.saturating_sub(1), AtomicOrdering::Relaxed);
            pp
        };
        if pp == 0 {
            return Ok(LayerHit::Absent);
        }
        let Some(block) = ep.restarts.get(pp.saturating_sub(1)) else {
            return Ok(LayerHit::Absent);
        };
        let block_end = ep
            .restarts
            .get(pp)
            .map(|r| r.offset)
            .unwrap_or(ep.entries.len());
        let bytes = ep
            .entries
            .get(block.offset..block_end)
            .ok_or(StoreError::Truncated)?;
        let mut cur = Cur::new(bytes);

        // Incremental comparison state: `common` = length of the shared
        // prefix between the previous entry's name and the target;
        // `prev_ord` = how that name compared. With entries ascending,
        // an entry whose prefix re-uses more bytes than `common` cannot
        // change the comparison outcome.
        let mut common: usize = 0;
        let mut prev_ord = Ordering::Less;
        let mut first = true;
        while cur.remaining() > 0 {
            let prefix = cur.count()?;
            let suffix_len = cur.count()?;
            let suffix = cur.bytes(suffix_len)?;
            let (ord, next_common) = if first || prefix <= common {
                // entry[..prefix] == target[..prefix]; compare suffix
                // against the rest of the target.
                let rest = target.get(prefix..).unwrap_or(&[]);
                let shared = common_run(suffix, rest);
                let ord = match (suffix.get(shared), rest.get(shared)) {
                    (None, None) => Ordering::Equal,
                    (None, Some(_)) => Ordering::Less,
                    (Some(_), None) => Ordering::Greater,
                    (Some(a), Some(b)) => a.cmp(b),
                };
                (ord, prefix.saturating_add(shared))
            } else {
                // The first divergence from the target sits inside the
                // re-used prefix: outcome unchanged.
                (prev_ord, common)
            };
            let tag = cur.u8()?;
            if ord == Ordering::Equal {
                if tag == TAG_REMOVE {
                    return Ok(LayerHit::Removed);
                }
                let share_count = cur.count()?;
                let body_start = cur.pos();
                skip_shares(&mut cur, share_count)?;
                let body = bytes
                    .get(body_start..cur.pos())
                    .ok_or(StoreError::Truncated)?;
                return Ok(LayerHit::Row(Row {
                    reader: self,
                    has_smtp: tag == TAG_ROW_SMTP,
                    share_count,
                    bytes: body,
                }));
            }
            if ord == Ordering::Greater {
                return Ok(LayerHit::Absent);
            }
            if tag != TAG_REMOVE {
                let share_count = cur.count()?;
                skip_shares(&mut cur, share_count)?;
            }
            prev_ord = ord;
            common = next_common;
            first = false;
        }
        Ok(LayerHit::Absent)
    }

    /// Iterate every row of the resolved view of `epoch` in ascending
    /// name order, resolving base + delta layers. The callback may
    /// abort the walk by returning an error.
    pub fn for_each_row<F>(&self, epoch: usize, mut f: F) -> Result<(), StoreError>
    where
        F: FnMut(&str, &Row<'_>) -> Result<(), StoreError>,
    {
        self.epoch(epoch)?;
        let mut rows_seen: u64 = 0;
        self.merge_layers(epoch, |name, hits| {
            let Some(row) = self.row_as_of(hits, epoch) else {
                return Ok(());
            };
            let name = std::str::from_utf8(name).map_err(|_utf8| StoreError::BadUtf8)?;
            rows_seen = rows_seen.saturating_add(1);
            f(name, &row)
        })?;
        mx_obs::counter_volatile!(mx_obs::names::STORE_READ_ROWS).add(rows_seen);
        Ok(())
    }

    /// Walk the differences between the resolved views of two epochs
    /// in one merged pass over layers `0..=max(from, to)`, in ascending
    /// name order (any `from`/`to` order; `from == to` reports
    /// nothing). For each name whose rows differ the callback sees
    /// `(name, old, new)`: `old = None` for additions, `new = None` for
    /// removals; names present in both views with equal rows are
    /// skipped. The callback may abort the walk by returning an error.
    pub fn diff<F>(&self, from: usize, to: usize, mut f: F) -> Result<(), StoreError>
    where
        F: FnMut(&str, Option<&Row<'_>>, Option<&Row<'_>>) -> Result<(), StoreError>,
    {
        self.epoch(from)?;
        self.epoch(to)?;
        let (lo, hi) = (from.min(to), from.max(to));
        self.merge_layers(hi, |name, hits| {
            // A name no layer in `lo+1..=hi` touches resolves to the
            // same entry on both sides.
            let touched = hits
                .get(lo.saturating_add(1)..)
                .is_some_and(|above| above.iter().any(Option::is_some));
            if !touched {
                return Ok(());
            }
            let old = self.row_as_of(hits, from);
            let new = self.row_as_of(hits, to);
            if old == new {
                return Ok(());
            }
            let name = std::str::from_utf8(name).map_err(|_utf8| StoreError::BadUtf8)?;
            f(name, old.as_ref(), new.as_ref())
        })
    }

    /// The one layer-merge loop behind [`Self::for_each_row`] and
    /// [`Self::diff`]: a k-way merge over the layers `0..=top` that
    /// calls `f(name, hits)` once per distinct name, in ascending
    /// order. `hits[l]` is layer `l`'s entry for the name, `None` where
    /// the layer does not hold it.
    fn merge_layers<F>(&self, top: usize, mut f: F) -> Result<(), StoreError>
    where
        F: FnMut(&[u8], &[Option<LayerEntry<'a>>]) -> Result<(), StoreError>,
    {
        let mut layers: Vec<LayerCursor<'a>> = Vec::new();
        for lix in 0..=top {
            layers.push(LayerCursor::new(self.epoch(lix)?));
        }
        for layer in layers.iter_mut() {
            layer.advance()?;
        }
        let mut hits: Vec<Option<LayerEntry<'a>>> = vec![None; layers.len()];
        // Scratch holds the name of the round; reused.
        let mut scratch: Vec<u8> = Vec::new();
        loop {
            let mut min: Option<&[u8]> = None;
            for layer in layers.iter().filter(|l| !l.done) {
                if min.map_or(true, |m| layer.name.as_slice() < m) {
                    min = Some(&layer.name);
                }
            }
            let Some(min) = min else { break };
            scratch.clear();
            scratch.extend_from_slice(min);
            // Take the name's entry from every layer that holds it.
            for (layer, hit) in layers.iter_mut().zip(hits.iter_mut()) {
                *hit = None;
                if !layer.done && layer.name == scratch {
                    *hit = Some(layer.entry);
                    layer.advance()?;
                }
            }
            f(&scratch, &hits)?;
        }
        Ok(())
    }

    /// The row a merge round resolves to as of `epoch`: the topmost
    /// layer at or below `epoch` that holds the name wins; `None` when
    /// none does or that entry is a removal.
    fn row_as_of(&self, hits: &[Option<LayerEntry<'a>>], epoch: usize) -> Option<Row<'_>> {
        let entry = hits.get(..=epoch)?.iter().rev().find_map(|h| *h)?;
        (entry.tag != TAG_REMOVE).then_some(Row {
            reader: self,
            has_smtp: entry.tag == TAG_ROW_SMTP,
            share_count: entry.share_count,
            bytes: entry.body,
        })
    }

    /// Iterate the per-IP acquisition sidecar of one epoch.
    pub fn ip_acquisitions(
        &self,
        epoch: usize,
    ) -> Result<impl Iterator<Item = (Ipv4Addr, IpAcquisition)> + '_, StoreError> {
        let ep = self.epoch(epoch)?;
        let mut cur = Cur::new(ep.side_ips);
        let total = ep.ip_count;
        Ok((0..total).filter_map(move |_i| decode_side_ip(&mut cur).ok()))
    }

    /// Iterate the per-domain DNS degradation sidecar of one epoch as
    /// `(dotted_name, record)` pairs.
    pub fn dns_acquisitions(
        &self,
        epoch: usize,
    ) -> Result<impl Iterator<Item = (&'a str, DnsAcquisition)> + '_, StoreError> {
        let ep = self.epoch(epoch)?;
        let mut cur = Cur::new(ep.side_dns);
        let total = ep.dns_count;
        Ok((0..total).filter_map(move |_i| decode_side_dns(&mut cur).ok()))
    }

    /// Materialize one epoch's acquisition sidecar into the shared
    /// report type (allocates; analyses that only need the raw rows
    /// should prefer the iterators).
    pub fn acquisition_report(&self, epoch: usize) -> Result<AcquisitionReport, StoreError> {
        let mut report = AcquisitionReport::default();
        for (ip, acq) in self.ip_acquisitions(epoch)? {
            report.ips.insert(ip, acq);
        }
        for (dotted, acq) in self.dns_acquisitions(epoch)? {
            let name =
                Name::parse(dotted).map_err(|_bad| StoreError::BadName(dotted.to_string()))?;
            report.domains.insert(name, acq);
        }
        Ok(report)
    }

    /// One epoch's decoded index block.
    pub(crate) fn index_of(&self, epoch: usize) -> Result<&index::EpochIndexIx<'a>, StoreError> {
        self.eix.get(epoch).ok_or(StoreError::EpochOutOfRange {
            epoch,
            epochs: self.epochs.len(),
        })
    }

    /// The raw provider/company tables and the per-provider company
    /// mapping (0 = none, else company index + 1), in stored order.
    /// Writer-reopen support: interning the tables back in this exact
    /// order is what keeps appended files byte-identical.
    pub(crate) fn raw_tables(&self) -> (&[&'a str], &[&'a str], &[u32]) {
        (&self.providers, &self.companies, &self.provider_company)
    }

    /// The raw pieces of one epoch for writer reopen: label, kind, and
    /// the rows and sidecar sections exactly as stored.
    pub(crate) fn raw_epoch(&self, epoch: usize) -> Option<(&'a str, EpochKind, &'a [u8], &'a [u8])> {
        let e = self.epochs.get(epoch)?;
        Some((e.label, e.kind, e.rows, e.side))
    }

    /// Number of dictionary entries.
    pub(crate) fn dict_count(&self) -> usize {
        self.dict.count()
    }

    fn credit_str(&self, kind: u8, id: u32) -> Option<&'a str> {
        if kind == CREDIT_COMPANY {
            self.companies.get(id as usize).copied()
        } else {
            self.providers.get(id as usize).copied()
        }
    }

    /// The provider table index of `provider`, if interned.
    pub fn provider_index(&self, provider: &str) -> Option<u32> {
        self.providers
            .iter()
            .position(|p| *p == provider)
            .and_then(|i| u32::try_from(i).ok())
    }

    /// Rows in the resolved view of `epoch`, from the summary section
    /// (no layer merge).
    pub fn summary_total_rows(&self, epoch: usize) -> Result<u64, StoreError> {
        Ok(self.index_of(epoch)?.total_rows)
    }

    /// Iterate `epoch`'s market-share summary as
    /// `(provider, distinct-row count, exact weight sum)`, ascending by
    /// provider id.
    pub fn for_each_summary<F>(&self, epoch: usize, mut f: F) -> Result<(), StoreError>
    where
        F: FnMut(&'a str, u64, f64) -> Result<(), StoreError>,
    {
        let ix = self.index_of(epoch)?;
        mx_obs::counter_volatile!(mx_obs::names::STORE_READ_INDEX_QUERIES).incr();
        for (pid, rows, bits) in index::SummaryIter::new(ix.summary, ix.summary_count) {
            let provider = self
                .providers
                .get(pid as usize)
                .copied()
                .ok_or(StoreError::BadIndex { what: "provider" })?;
            f(provider, rows, f64::from_bits(bits))?;
        }
        Ok(())
    }

    /// Iterate `epoch`'s credit rollup as `(credit, exact weight sum)`
    /// where `credit` is the provider's company, or the provider itself
    /// when no company is mapped — the analysis layer's
    /// `company.unwrap_or(provider)` key, precomputed.
    pub fn for_each_rollup<F>(&self, epoch: usize, mut f: F) -> Result<(), StoreError>
    where
        F: FnMut(&'a str, f64) -> Result<(), StoreError>,
    {
        let ix = self.index_of(epoch)?;
        mx_obs::counter_volatile!(mx_obs::names::STORE_READ_INDEX_QUERIES).incr();
        for (kind, id, bits) in index::RollupIter::new(ix.rollup, ix.rollup_count) {
            let what = if kind == CREDIT_COMPANY {
                "company"
            } else {
                "provider"
            };
            let credit = self
                .credit_str(kind, id)
                .ok_or(StoreError::BadIndex { what })?;
            f(credit, f64::from_bits(bits))?;
        }
        Ok(())
    }

    /// The domains whose rows carry a share of `provider` in `epoch`,
    /// in ascending name order, straight off the postings list.
    /// Unknown providers yield nothing.
    pub fn domains_of_provider(
        &self,
        provider: &str,
        epoch: usize,
    ) -> Result<Vec<String>, StoreError> {
        let ix = self.index_of(epoch)?;
        mx_obs::counter_volatile!(mx_obs::names::STORE_READ_POSTINGS_SCANS).incr();
        let mut out = Vec::new();
        let Some(pix) = self.provider_index(provider) else {
            return Ok(out);
        };
        let Some(posting) = posting_of(ix, pix) else {
            return Ok(out);
        };
        let mut buf: Vec<u8> = Vec::new();
        for doc in index::PostingDocs::new(posting) {
            self.dict.name_into(doc, &mut buf)?;
            let name = std::str::from_utf8(&buf).map_err(|_utf8| StoreError::BadUtf8)?;
            out.push(name.to_string());
        }
        Ok(out)
    }

    /// Walk the churn of one provider's domain set between two epochs
    /// as a postings set-diff: the callback sees `(name, gained)` —
    /// `gained == true` for domains holding a share of `provider` in
    /// `to` but not `from`, `false` for the reverse. Domains in both
    /// sets are skipped without materializing their names.
    pub fn diff_domains_of_provider<F>(
        &self,
        provider: &str,
        from: usize,
        to: usize,
        mut f: F,
    ) -> Result<(), StoreError>
    where
        F: FnMut(&str, bool) -> Result<(), StoreError>,
    {
        let from_ix = self.index_of(from)?;
        let to_ix = self.index_of(to)?;
        mx_obs::counter_volatile!(mx_obs::names::STORE_READ_POSTINGS_SCANS).incr();
        let Some(pix) = self.provider_index(provider) else {
            return Ok(());
        };
        let mut ai = posting_of(from_ix, pix).map(index::PostingDocs::new);
        let mut bi = posting_of(to_ix, pix).map(index::PostingDocs::new);
        let mut a = ai.as_mut().and_then(Iterator::next);
        let mut b = bi.as_mut().and_then(Iterator::next);
        let mut buf: Vec<u8> = Vec::new();
        let emit =
            |doc: usize, gained: bool, f: &mut F, buf: &mut Vec<u8>| -> Result<(), StoreError> {
                self.dict.name_into(doc, buf)?;
                let name = std::str::from_utf8(buf).map_err(|_utf8| StoreError::BadUtf8)?;
                f(name, gained)
            };
        loop {
            match (a, b) {
                (None, None) => break,
                (Some(x), None) => {
                    emit(x, false, &mut f, &mut buf)?;
                    a = ai.as_mut().and_then(Iterator::next);
                }
                (None, Some(y)) => {
                    emit(y, true, &mut f, &mut buf)?;
                    b = bi.as_mut().and_then(Iterator::next);
                }
                (Some(x), Some(y)) => match x.cmp(&y) {
                    Ordering::Equal => {
                        a = ai.as_mut().and_then(Iterator::next);
                        b = bi.as_mut().and_then(Iterator::next);
                    }
                    Ordering::Less => {
                        emit(x, false, &mut f, &mut buf)?;
                        a = ai.as_mut().and_then(Iterator::next);
                    }
                    Ordering::Greater => {
                        emit(y, true, &mut f, &mut buf)?;
                        b = bi.as_mut().and_then(Iterator::next);
                    }
                },
            }
        }
        Ok(())
    }

    /// Iterate `epoch`'s digest: one compact record per resolved row
    /// (doc id, SMTP/self-hosted bits, dominant credit), in ascending
    /// name order — the churn fast path.
    pub fn digest_rows(&self, epoch: usize) -> Result<DigestIter<'_>, StoreError> {
        let ix = self.index_of(epoch)?;
        mx_obs::counter_volatile!(mx_obs::names::STORE_READ_INDEX_QUERIES).incr();
        Ok(DigestIter {
            reader: self,
            raw: index::RawDigestIter::new(ix.digest, ix.total_rows),
        })
    }

    /// Materialize the dictionary name of `doc` into `buf` (cleared
    /// first).
    pub fn doc_name_into(&self, doc: usize, buf: &mut Vec<u8>) -> Result<(), StoreError> {
        self.dict.name_into(doc, buf)
    }

    /// Recompute every index section from the epoch layers (the merge
    /// path) and compare against the stored footer: any disagreement is
    /// a typed [`StoreError::IndexMismatch`]. The digest's self-hosted bit is
    /// writer-supplied (PSL-backed) and not recomputable from the
    /// layers, so it is excluded from the comparison.
    pub fn verify_indexes(&self) -> Result<(), StoreError> {
        let dict = &self.dict;
        let mut pix_of: HashMap<&str, u32> = HashMap::new();
        for (i, p) in self.providers.iter().enumerate() {
            pix_of.insert(p, u32::try_from(i).unwrap_or(u32::MAX));
        }
        let mut cix_of: HashMap<&str, u32> = HashMap::new();
        for (i, c) in self.companies.iter().enumerate() {
            cix_of.insert(c, u32::try_from(i).unwrap_or(u32::MAX));
        }
        // Canonical credit key for a credit *string*: company id when
        // the string is interned as a company, else the provider id.
        // Both the recomputation and the stored entries are reduced
        // through this, so representation drift (a provider name that
        // became a company in a later epoch) cannot cause a false
        // mismatch — only genuinely different strings or sums can.
        let canon_company = |company: Option<&str>, provider: &str, pix: u32| -> (u8, u32) {
            let name = company.unwrap_or(provider);
            match cix_of.get(name).copied() {
                Some(cix) => (CREDIT_COMPANY, cix),
                None => (CREDIT_PROVIDER, pix),
            }
        };
        let mut doc_used = vec![false; dict.count()];
        for epoch in 0..self.epochs.len() {
            let ix = self.eix.get(epoch).ok_or(StoreError::IndexMismatch {
                what: "missing epoch index",
            })?;
            let mut total: u64 = 0;
            let mut summary: BTreeMap<u32, (u64, f64)> = BTreeMap::new();
            let mut rollup: BTreeMap<(u8, u32), f64> = BTreeMap::new();
            let mut postings: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
            let mut digest: Vec<(usize, bool, Option<(u8, u32)>)> = Vec::new();
            let mut dcur = dict.cursor();
            let mut row_pids: Vec<u32> = Vec::new();
            self.for_each_row(epoch, |name, row| {
                total = total.saturating_add(1);
                let doc = dcur
                    .seek(name.as_bytes())?
                    .ok_or(StoreError::IndexMismatch {
                        what: "dict missing row name",
                    })?;
                if let Some(slot) = doc_used.get_mut(doc) {
                    *slot = true;
                }
                row_pids.clear();
                for s in row.shares() {
                    let pix = pix_of
                        .get(s.provider)
                        .copied()
                        .ok_or(StoreError::IndexMismatch {
                            what: "provider table",
                        })?;
                    let slot = summary.entry(pix).or_insert((0u64, 0.0f64));
                    slot.1 += s.weight;
                    if !row_pids.contains(&pix) {
                        row_pids.push(pix);
                        slot.0 = slot.0.saturating_add(1);
                        postings.entry(pix).or_default().push(doc);
                    }
                    *rollup
                        .entry(canon_company(s.company, s.provider, pix))
                        .or_insert(0.0) += s.weight;
                }
                let credit = match row.dominant() {
                    None => None,
                    Some(s) => {
                        let pix = pix_of.get(s.provider).copied().ok_or(
                            StoreError::IndexMismatch {
                                what: "provider table",
                            },
                        )?;
                        Some(canon_company(s.company, s.provider, pix))
                    }
                };
                digest.push((doc, row.has_smtp(), credit));
                Ok(())
            })?;

            if total != ix.total_rows {
                return Err(StoreError::IndexMismatch {
                    what: "summary total rows",
                });
            }
            if summary.len() != ix.summary_count {
                return Err(StoreError::IndexMismatch {
                    what: "summary providers",
                });
            }
            let mut stored = index::SummaryIter::new(ix.summary, ix.summary_count);
            for (&pid, &(rows, weight)) in &summary {
                let Some((spid, srows, sbits)) = stored.next() else {
                    return Err(StoreError::IndexMismatch {
                        what: "summary providers",
                    });
                };
                if spid != pid || srows != rows || sbits != weight.to_bits() {
                    return Err(StoreError::IndexMismatch {
                        what: "summary entry",
                    });
                }
            }

            // Rollup entries are compared at the credit-*string* level:
            // the stored (kind, id) representation may differ from a
            // recomputation against the final tables (a company-less
            // provider whose name was interned as a company only in a
            // later epoch), but both must resolve to the same strings
            // and bit sums.
            if ix.rollup_count != rollup.len() {
                return Err(StoreError::IndexMismatch {
                    what: "rollup credits",
                });
            }
            for (kind, id, bits) in index::RollupIter::new(ix.rollup, ix.rollup_count) {
                let credit = self.credit_str(kind, id).ok_or(StoreError::IndexMismatch {
                    what: "rollup credit id",
                })?;
                let key = if kind == CREDIT_COMPANY {
                    (CREDIT_COMPANY, id)
                } else {
                    canon_company(None, credit, id)
                };
                match rollup.remove(&key) {
                    Some(weight) if weight.to_bits() == bits => {}
                    _other => {
                        return Err(StoreError::IndexMismatch {
                            what: "rollup entry",
                        })
                    }
                }
            }
            if !rollup.is_empty() {
                return Err(StoreError::IndexMismatch {
                    what: "rollup credits",
                });
            }

            if ix.postings.len() != postings.len() {
                return Err(StoreError::IndexMismatch {
                    what: "postings providers",
                });
            }
            for (stored, (&pid, docs)) in ix.postings.iter().zip(&postings) {
                if stored.provider != pid || stored.count != docs.len() as u64 {
                    return Err(StoreError::IndexMismatch {
                        what: "postings providers",
                    });
                }
                let mut want = docs.iter();
                for doc in index::PostingDocs::new(stored) {
                    if want.next() != Some(&doc) {
                        return Err(StoreError::IndexMismatch {
                            what: "postings docs",
                        });
                    }
                }
                if want.next().is_some() {
                    return Err(StoreError::IndexMismatch {
                        what: "postings docs",
                    });
                }
            }

            let mut want = digest.iter();
            for (doc, flags, credit) in index::RawDigestIter::new(ix.digest, ix.total_rows) {
                let Some(&(wdoc, wsmtp, wcredit)) = want.next() else {
                    return Err(StoreError::IndexMismatch {
                        what: "digest rows",
                    });
                };
                let scredit = match credit {
                    None => None,
                    Some((kind, id)) => {
                        let name = self.credit_str(kind, id).ok_or(
                            StoreError::IndexMismatch {
                                what: "digest credit id",
                            },
                        )?;
                        Some(if kind == CREDIT_COMPANY {
                            (CREDIT_COMPANY, id)
                        } else {
                            canon_company(None, name, id)
                        })
                    }
                };
                if doc != wdoc || (flags & DIGEST_SMTP != 0) != wsmtp || scredit != wcredit {
                    return Err(StoreError::IndexMismatch {
                        what: "digest entry",
                    });
                }
            }
            if want.next().is_some() {
                return Err(StoreError::IndexMismatch {
                    what: "digest rows",
                });
            }
        }
        if doc_used.iter().any(|used| !*used) {
            return Err(StoreError::IndexMismatch {
                what: "dict unreferenced name",
            });
        }
        Ok(())
    }
}

/// Binary-search an epoch's postings directory for one provider.
fn posting_of<'r, 'a>(
    ix: &'r index::EpochIndexIx<'a>,
    pix: u32,
) -> Option<&'r index::PostingRef<'a>> {
    let pp = ix.postings.partition_point(|p| p.provider < pix);
    ix.postings.get(pp).filter(|p| p.provider == pix)
}

/// One resolved digest record (see [`StoreReader::digest_rows`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestRow<'r> {
    /// Position of the domain in the global sorted dictionary (resolve
    /// with [`StoreReader::doc_name_into`] when the name is needed).
    pub doc: usize,
    /// Does the domain have a live primary SMTP server?
    pub has_smtp: bool,
    /// Is the domain self-hosted (PSL check done at write time)?
    pub self_hosted: bool,
    /// Dominant credit: the top share's company, or the provider
    /// itself when no company is mapped. `None` for share-less rows.
    pub credit: Option<&'r str>,
}

/// Iterator over one epoch's digest (see [`StoreReader::digest_rows`]).
pub struct DigestIter<'r> {
    reader: &'r StoreReader<'r>,
    raw: index::RawDigestIter<'r>,
}

impl<'r> Iterator for DigestIter<'r> {
    type Item = DigestRow<'r>;

    fn next(&mut self) -> Option<DigestRow<'r>> {
        let (doc, flags, credit) = self.raw.next()?;
        let credit = match credit {
            None => None,
            // Validated at open; a stale id just ends the iteration.
            Some((kind, id)) => Some(self.reader.credit_str(kind, id)?),
        };
        Some(DigestRow {
            doc,
            has_smtp: flags & DIGEST_SMTP != 0,
            self_hosted: flags & DIGEST_SELF_HOSTED != 0,
            credit,
        })
    }
}

/// One decoded layer entry: a row or a removal.
#[derive(Clone, Copy)]
struct LayerEntry<'a> {
    tag: u8,
    share_count: usize,
    /// Encoded share bytes; empty for a removal.
    body: &'a [u8],
}

/// Sequential cursor over one epoch layer's entries, materializing the
/// current name into a reused buffer.
struct LayerCursor<'a> {
    cur: Cur<'a>,
    left: u64,
    name: Vec<u8>,
    entry: LayerEntry<'a>,
    entries: &'a [u8],
    done: bool,
}

impl<'a> LayerCursor<'a> {
    fn new(ep: &EpochIx<'a>) -> Self {
        LayerCursor {
            cur: Cur::new(ep.entries),
            left: ep.entry_count,
            name: Vec::new(),
            entry: LayerEntry {
                tag: TAG_REMOVE,
                share_count: 0,
                body: &[],
            },
            entries: ep.entries,
            done: false,
        }
    }

    /// Decode the next entry into `self`; sets `done` at the end.
    fn advance(&mut self) -> Result<(), StoreError> {
        if self.left == 0 {
            self.done = true;
            return Ok(());
        }
        self.left = self.left.saturating_sub(1);
        let prefix = self.cur.count()?;
        if prefix > self.name.len() {
            return Err(StoreError::BadPrefix);
        }
        let suffix_len = self.cur.count()?;
        let suffix = self.cur.bytes(suffix_len)?;
        self.name.truncate(prefix);
        self.name.extend_from_slice(suffix);
        let tag = self.cur.u8()?;
        self.entry = if tag == TAG_REMOVE {
            LayerEntry {
                tag,
                share_count: 0,
                body: &[],
            }
        } else {
            let share_count = self.cur.count()?;
            let body_start = self.cur.pos();
            skip_shares(&mut self.cur, share_count)?;
            LayerEntry {
                tag,
                share_count,
                body: self
                    .entries
                    .get(body_start..self.cur.pos())
                    .ok_or(StoreError::Truncated)?,
            }
        };
        Ok(())
    }
}

/// Read an interned string table (count + strings).
fn read_table<'a>(cur: &mut Cur<'a>) -> Result<Vec<&'a str>, StoreError> {
    let count = cur.count()?;
    // Each entry costs at least one byte; a count beyond the remaining
    // bytes is corrupt and would otherwise pre-size a huge Vec.
    if count > cur.remaining() {
        return Err(StoreError::Truncated);
    }
    let mut table = Vec::new();
    for _idx in 0..count {
        table.push(cur.str()?);
    }
    Ok(table)
}

/// Validate and skip `count` encoded shares.
fn skip_shares(cur: &mut Cur<'_>, count: usize) -> Result<(), StoreError> {
    for _idx in 0..count {
        let _provider = cur.varint()?;
        let _bits = cur.bytes(8)?;
        let source = cur.u8()?;
        if source > SOURCE_CODE_MAX {
            return Err(StoreError::BadSource(source));
        }
    }
    Ok(())
}

/// Validation + indexing pass over one epoch's rows section. Returns
/// the entry count, the entry bytes and the restart index.
fn index_entries<'a>(
    rows: &'a [u8],
    kind: EpochKind,
    provider_count: usize,
) -> Result<(u64, &'a [u8], Vec<Restart<'a>>), StoreError> {
    let mut cur = Cur::new(rows);
    let declared = cur.varint()?;
    let entries = rows.get(cur.pos()..).ok_or(StoreError::Truncated)?;
    let mut ecur = Cur::new(entries);
    let mut restarts: Vec<Restart<'a>> = Vec::new();
    let mut prev_name: Vec<u8> = Vec::new();
    let mut have_prev = false;
    let mut idx: u64 = 0;
    while idx < declared {
        let entry_offset = ecur.pos();
        let prefix = ecur.count()?;
        if prefix > prev_name.len() || (!have_prev && prefix != 0) {
            return Err(StoreError::BadPrefix);
        }
        let suffix_len = ecur.count()?;
        let suffix = ecur.bytes(suffix_len)?;
        // Strict ascending check against the previous name, done
        // before the buffer is spliced: the first `prefix` bytes are
        // shared, so ordering is decided by suffix vs the old tail.
        if have_prev {
            let old_tail = prev_name.get(prefix..).unwrap_or(&[]);
            if suffix <= old_tail {
                return Err(StoreError::Unsorted);
            }
        }
        prev_name.truncate(prefix);
        prev_name.extend_from_slice(suffix);
        if std::str::from_utf8(&prev_name).is_err() {
            return Err(StoreError::BadUtf8);
        }
        if prefix == 0 {
            // Full name: index it zero-copy.
            let name = std::str::from_utf8(suffix).map_err(|_utf8| StoreError::BadUtf8)?;
            restarts.push(Restart {
                name,
                offset: entry_offset,
            });
        }
        let tag = ecur.u8()?;
        match tag {
            TAG_ROW | TAG_ROW_SMTP => {
                let share_count = ecur.count()?;
                for _sidx in 0..share_count {
                    let pix = ecur.varint()?;
                    if pix >= provider_count as u64 {
                        return Err(StoreError::BadIndex { what: "provider" });
                    }
                    let _bits = ecur.bytes(8)?;
                    let source = ecur.u8()?;
                    if source > SOURCE_CODE_MAX {
                        return Err(StoreError::BadSource(source));
                    }
                }
            }
            TAG_REMOVE => {
                if kind == EpochKind::Base {
                    return Err(StoreError::RemoveInBase);
                }
            }
            other => return Err(StoreError::BadTag(other)),
        }
        have_prev = true;
        idx = idx.saturating_add(1);
    }
    if ecur.remaining() != 0 {
        return Err(StoreError::SectionOverrun);
    }
    Ok((declared, entries, restarts))
}

/// Validation pass over one epoch's sidecar. Returns the IP slice and
/// count, then the DNS slice and count.
fn index_sidecar(side: &[u8]) -> Result<(&[u8], usize, &[u8], usize), StoreError> {
    let mut cur = Cur::new(side);
    let ip_count = cur.count()?;
    let ips_start = cur.pos();
    for _idx in 0..ip_count {
        let _ip = cur.bytes(4)?;
        let attempts = cur.varint()?;
        if attempts > u32::MAX as u64 {
            return Err(StoreError::VarintOverflow);
        }
        let flags = cur.u8()?;
        if flags & !SIDE_FLAGS_MASK != 0 {
            return Err(StoreError::BadFlags(flags));
        }
        let fault = cur.u8()?;
        if fault > FAULT_CODE_MAX {
            return Err(StoreError::BadFault(fault));
        }
    }
    let ips = side
        .get(ips_start..cur.pos())
        .ok_or(StoreError::Truncated)?;
    let dns_count = cur.count()?;
    let dns_start = cur.pos();
    for _idx in 0..dns_count {
        let _name = cur.str()?;
        let retries = cur.varint()?;
        if retries > u32::MAX as u64 {
            return Err(StoreError::VarintOverflow);
        }
        let exhausted = cur.u8()?;
        if exhausted > 1 {
            return Err(StoreError::BadFlags(exhausted));
        }
    }
    let dns = side
        .get(dns_start..cur.pos())
        .ok_or(StoreError::Truncated)?;
    if cur.remaining() != 0 {
        return Err(StoreError::SectionOverrun);
    }
    Ok((ips, ip_count, dns, dns_count))
}

/// Decode one sidecar IP record (validated at open).
fn decode_side_ip(cur: &mut Cur<'_>) -> Result<(Ipv4Addr, IpAcquisition), StoreError> {
    let raw = cur.bytes(4)?;
    let octets: [u8; 4] = raw.try_into().map_err(|_bad| StoreError::Truncated)?;
    let attempts =
        u32::try_from(cur.varint()?).map_err(|_big| StoreError::VarintOverflow)?;
    let flags = cur.u8()?;
    let fault = fault_from_code(cur.u8()?)?;
    Ok((
        Ipv4Addr::from(octets),
        IpAcquisition {
            attempts,
            recovered: flags & SIDE_RECOVERED != 0,
            exhausted: flags & SIDE_EXHAUSTED != 0,
            blocked: flags & SIDE_BLOCKED != 0,
            fault,
        },
    ))
}

/// Decode one sidecar DNS record (validated at open).
fn decode_side_dns<'a>(cur: &mut Cur<'a>) -> Result<(&'a str, DnsAcquisition), StoreError> {
    let name = cur.str()?;
    let retries =
        u32::try_from(cur.varint()?).map_err(|_big| StoreError::VarintOverflow)?;
    let exhausted = cur.u8()? != 0;
    Ok((name, DnsAcquisition { retries, exhausted }))
}

/// Length of the shared leading run of two byte slices.
fn common_run(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// Does restart block `h` of this layer cover `target` — i.e. would
/// the binary search land exactly there?
fn hint_covers(ep: &EpochIx<'_>, h: usize, target: &[u8]) -> bool {
    let Some(block) = ep.restarts.get(h) else {
        return false;
    };
    if block.name.as_bytes() > target {
        return false;
    }
    match ep.restarts.get(h.saturating_add(1)) {
        Some(next) => next.name.as_bytes() > target,
        None => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::{RowIn, ShareIn, StoreWriter};

    fn share(p: &str, w: f64) -> ShareIn {
        ShareIn {
            provider: p.into(),
            company: Some(format!("{p}-co")),
            weight: w,
            source: ShareSource::MxRecord,
        }
    }

    fn row(n: &str, shares: Vec<ShareIn>) -> RowIn {
        RowIn {
            name: n.into(),
            has_smtp: !shares.is_empty(),
            self_hosted: false,
            shares,
        }
    }

    fn sample_store() -> Vec<u8> {
        let mut w = StoreWriter::new();
        let acq = AcquisitionReport::default();
        w.add_epoch(
            "2017-06",
            vec![
                row("alpha.test", vec![share("mx.google.com", 1.0)]),
                row("beta.test", vec![share("ms.com", 0.5), share("mx.google.com", 0.5)]),
                row("gamma.test", vec![]),
            ],
            &acq,
        )
        .unwrap();
        w.add_epoch(
            "2017-12",
            vec![
                row("alpha.test", vec![share("yandex.ru", 1.0)]),
                row("beta.test", vec![share("ms.com", 0.5), share("mx.google.com", 0.5)]),
                row("delta.test", vec![share("mx.google.com", 1.0)]),
            ],
            &acq,
        )
        .unwrap();
        w.finish()
    }

    #[test]
    fn open_and_labels() {
        let bytes = sample_store();
        let r = StoreReader::open(&bytes).unwrap();
        assert_eq!(r.epoch_count(), 2);
        assert_eq!(r.labels().collect::<Vec<_>>(), vec!["2017-06", "2017-12"]);
        assert_eq!(r.epoch_kind(0), Some(EpochKind::Base));
        assert_eq!(r.epoch_kind(1), Some(EpochKind::Delta));
        assert_eq!(r.find_epoch("2017-12"), Some(1));
        // Delta carries only alpha (changed), gamma (removed), delta (added).
        assert_eq!(r.entry_count(1), Some(3));
    }

    #[test]
    fn point_lookup_resolves_layers() {
        let bytes = sample_store();
        let r = StoreReader::open(&bytes).unwrap();
        assert_eq!(r.provider_of("alpha.test", 0).unwrap(), Some("mx.google.com"));
        assert_eq!(r.provider_of("alpha.test", 1).unwrap(), Some("yandex.ru"));
        // beta unchanged in the delta: served from the base layer. Its
        // two shares tie at 0.5, so the later stored one dominates.
        assert_eq!(r.provider_of("beta.test", 1).unwrap(), Some("mx.google.com"));
        // gamma removed in epoch 1, present (no shares) in epoch 0.
        assert!(r.lookup("gamma.test", 0).unwrap().is_some());
        assert!(r.lookup("gamma.test", 1).unwrap().is_none());
        // delta.test added in epoch 1 only.
        assert!(r.lookup("delta.test", 0).unwrap().is_none());
        assert_eq!(r.provider_of("delta.test", 1).unwrap(), Some("mx.google.com"));
        // absent names on either side of the key range.
        assert!(r.lookup("aaaa.test", 0).unwrap().is_none());
        assert!(r.lookup("zzzz.test", 0).unwrap().is_none());
    }

    #[test]
    fn dominant_share_breaks_ties_like_churn() {
        let bytes = sample_store();
        let r = StoreReader::open(&bytes).unwrap();
        let row = r.lookup("beta.test", 0).unwrap().unwrap();
        assert_eq!(row.share_count(), 2);
        // Equal weights: the later stored share wins, as in
        // `Iterator::max_by` over the in-memory assignment.
        assert_eq!(row.dominant().unwrap().provider, "mx.google.com");
        let shares: Vec<_> = row.shares().collect();
        assert_eq!(shares[0].provider, "ms.com");
        assert_eq!(shares[0].company, Some("ms.com-co"));
        assert_eq!(shares[0].weight, 0.5);
    }

    #[test]
    fn full_iteration_resolves_overlay() {
        let bytes = sample_store();
        let r = StoreReader::open(&bytes).unwrap();
        let mut names0 = Vec::new();
        r.for_each_row(0, |n, _row| {
            names0.push(n.to_string());
            Ok(())
        })
        .unwrap();
        assert_eq!(names0, vec!["alpha.test", "beta.test", "gamma.test"]);
        let mut rows1 = Vec::new();
        r.for_each_row(1, |n, row| {
            rows1.push((n.to_string(), row.dominant().map(|s| s.provider.to_string())));
            Ok(())
        })
        .unwrap();
        assert_eq!(
            rows1,
            vec![
                ("alpha.test".into(), Some("yandex.ru".into())),
                ("beta.test".into(), Some("mx.google.com".into())),
                ("delta.test".into(), Some("mx.google.com".into())),
            ]
        );
    }

    #[test]
    fn diff_reports_changed_added_removed() {
        let bytes = sample_store();
        let r = StoreReader::open(&bytes).unwrap();
        let mut flows = Vec::new();
        r.diff(0, 1, |name, old, new| {
            flows.push((name.to_string(), old.is_some(), new.is_some()));
            Ok(())
        })
        .unwrap();
        flows.sort();
        assert_eq!(
            flows,
            vec![
                ("alpha.test".to_string(), true, true),
                ("delta.test".to_string(), false, true),
                ("gamma.test".to_string(), true, false),
            ]
        );
    }

    #[test]
    fn sidecar_round_trips() {
        let mut acq = AcquisitionReport::default();
        acq.ips.insert(
            "10.2.3.4".parse().unwrap(),
            IpAcquisition {
                attempts: 3,
                recovered: true,
                exhausted: false,
                blocked: false,
                fault: Some(mx_acq::AcqFault::EhloTarpit),
            },
        );
        acq.domains.insert(
            Name::parse("slow.test").unwrap(),
            DnsAcquisition {
                retries: 2,
                exhausted: true,
            },
        );
        let mut w = StoreWriter::new();
        w.add_epoch("e", vec![], &acq).unwrap();
        let bytes = w.finish();
        let r = StoreReader::open(&bytes).unwrap();
        let back = r.acquisition_report(0).unwrap();
        assert_eq!(back, acq);
    }

    #[test]
    fn writes_are_byte_deterministic() {
        assert_eq!(sample_store(), sample_store());
    }

    #[test]
    fn duplicate_rows_rejected() {
        let mut w = StoreWriter::new();
        let acq = AcquisitionReport::default();
        let err = w
            .add_epoch("e", vec![row("dup.test", vec![]), row("dup.test", vec![])], &acq)
            .unwrap_err();
        assert_eq!(err, StoreError::DuplicateRow("dup.test".into()));
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = sample_store();
        for cut in 0..bytes.len() {
            let err = StoreReader::open(&bytes[..cut]).unwrap_err();
            // Any prefix must fail loudly, never panic or succeed.
            assert!(
                matches!(
                    err,
                    StoreError::BadMagic
                        | StoreError::Truncated
                        | StoreError::BadSchema
                        | StoreError::SectionOverrun
                        | StoreError::TrailingBytes
                        | StoreError::VarintOverflow
                ),
                "cut at {cut}: unexpected {err:?}"
            );
        }
    }

    #[test]
    fn corrupted_headers_rejected() {
        let bytes = sample_store();
        let mut bad_magic = bytes.clone();
        bad_magic[0] = b'Z';
        assert_eq!(StoreReader::open(&bad_magic).unwrap_err(), StoreError::BadMagic);
        let mut bad_version = bytes.clone();
        bad_version[4] = 9;
        assert_eq!(
            StoreReader::open(&bad_version).unwrap_err(),
            StoreError::UnsupportedVersion(9)
        );
        // The retired `mx-store/1` version is rejected like any other.
        bad_version[4] = 1;
        assert_eq!(
            StoreReader::open(&bad_version).unwrap_err(),
            StoreError::UnsupportedVersion(1)
        );
    }

    #[test]
    fn indexes_verify_against_layers() {
        let bytes = sample_store();
        let r = StoreReader::open(&bytes).unwrap();
        r.verify_indexes().unwrap();
    }

    #[test]
    fn postings_answer_domains_of_provider() {
        let bytes = sample_store();
        let r = StoreReader::open(&bytes).unwrap();
        assert_eq!(
            r.domains_of_provider("mx.google.com", 0).unwrap(),
            vec!["alpha.test", "beta.test"]
        );
        // Epoch 1: alpha moved to yandex, delta.test arrived.
        assert_eq!(
            r.domains_of_provider("mx.google.com", 1).unwrap(),
            vec!["beta.test", "delta.test"]
        );
        assert_eq!(r.domains_of_provider("yandex.ru", 1).unwrap(), vec!["alpha.test"]);
        // Interned but absent from epoch 0; never interned at all.
        assert!(r.domains_of_provider("yandex.ru", 0).unwrap().is_empty());
        assert!(r.domains_of_provider("nobody.example", 0).unwrap().is_empty());
    }

    #[test]
    fn postings_diff_tracks_provider_churn() {
        let bytes = sample_store();
        let r = StoreReader::open(&bytes).unwrap();
        let mut flows = Vec::new();
        r.diff_domains_of_provider("mx.google.com", 0, 1, |name, gained| {
            flows.push((name.to_string(), gained));
            Ok(())
        })
        .unwrap();
        assert_eq!(
            flows,
            vec![("alpha.test".to_string(), false), ("delta.test".to_string(), true)]
        );
    }

    #[test]
    fn summary_and_rollup_match_merge_math() {
        let bytes = sample_store();
        let r = StoreReader::open(&bytes).unwrap();
        assert_eq!(r.summary_total_rows(0).unwrap(), 3);
        let mut sum = Vec::new();
        r.for_each_summary(0, |p, rows, w| {
            sum.push((p.to_string(), rows, w));
            Ok(())
        })
        .unwrap();
        assert_eq!(
            sum,
            vec![
                ("mx.google.com".to_string(), 2, 1.5),
                ("ms.com".to_string(), 1, 0.5),
            ]
        );
        let mut roll = Vec::new();
        r.for_each_rollup(0, |credit, w| {
            roll.push((credit.to_string(), w));
            Ok(())
        })
        .unwrap();
        // Every sample provider maps to a "<name>-co" company.
        assert_eq!(
            roll,
            vec![
                ("mx.google.com-co".to_string(), 1.5),
                ("ms.com-co".to_string(), 0.5),
            ]
        );
    }

    #[test]
    fn digest_mirrors_resolved_rows() {
        let bytes = sample_store();
        let r = StoreReader::open(&bytes).unwrap();
        let rows: Vec<_> = r.digest_rows(1).unwrap().collect();
        assert_eq!(rows.len(), 3);
        let mut buf = Vec::new();
        let mut seen = Vec::new();
        for d in &rows {
            r.doc_name_into(d.doc, &mut buf).unwrap();
            seen.push((
                String::from_utf8(buf.clone()).unwrap(),
                d.has_smtp,
                d.credit.map(str::to_string),
            ));
        }
        assert_eq!(
            seen,
            vec![
                ("alpha.test".to_string(), true, Some("yandex.ru-co".to_string())),
                ("beta.test".to_string(), true, Some("mx.google.com-co".to_string())),
                ("delta.test".to_string(), true, Some("mx.google.com-co".to_string())),
            ]
        );
    }

    #[test]
    fn repeated_lookups_reuse_the_hinted_block() {
        // Enough rows to span several restart blocks, looked up in
        // sorted order (the hint's best case) and reverse order (the
        // hint must never produce wrong answers).
        let mut rows = Vec::new();
        for i in 0..100 {
            rows.push(row(&format!("d{i:03}.test"), vec![share("p.test", 1.0)]));
        }
        let mut w = StoreWriter::new();
        w.add_epoch("e", rows, &AcquisitionReport::default()).unwrap();
        let bytes = w.finish();
        let r = StoreReader::open(&bytes).unwrap();
        for i in 0..100 {
            assert!(r.lookup(&format!("d{i:03}.test"), 0).unwrap().is_some());
        }
        for i in (0..100).rev() {
            assert!(r.lookup(&format!("d{i:03}.test"), 0).unwrap().is_some());
            assert!(r.lookup(&format!("d{i:03}.testx"), 0).unwrap().is_none());
        }
    }
}
