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

use std::collections::{BTreeMap, HashMap};

use mx_acq::AcquisitionReport;

use crate::format::{
    fault_code, write_str, CREDIT_COMPANY, CREDIT_PROVIDER, DIGEST_CREDIT_PROVIDER,
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

/// One encoded epoch awaiting assembly.
struct EpochEnc {
    label: String,
    kind: u8,
    entry_count: u64,
    entries: Vec<u8>,
    sidecar: Vec<u8>,
}

/// One digest entry accumulated for the index footer: doc ids are
/// provisional (first-interned order) until `finish` remaps them to
/// sorted-dictionary ranks.
struct DigestEnc {
    doc: u32,
    has_smtp: bool,
    self_hosted: bool,
    credit: Option<(u8, u32)>,
}

/// Per-epoch index accumulation, filled during `add_epoch`'s sorted
/// walk over the resolved view so every sum replays the exact f64
/// addition order the merge path uses.
#[derive(Default)]
struct EpochIndexEnc {
    /// Rows in the resolved view (== digest entry count).
    total_rows: u64,
    /// provider → (distinct-row count, weight sum).
    summary: BTreeMap<u32, (u64, f64)>,
    /// (credit kind, id) → weight sum.
    rollup: BTreeMap<(u8, u32), f64>,
    /// provider → provisional doc ids, in resolved-walk order.
    postings: BTreeMap<u32, Vec<u32>>,
    /// One entry per resolved row, in resolved-walk order.
    digest: Vec<DigestEnc>,
}

/// Builds a store file epoch by epoch. See the module docs for the
/// determinism contract.
#[derive(Default)]
pub struct StoreWriter {
    providers: Vec<String>,
    provider_ix: HashMap<String, u32>,
    /// Per provider: 0 = no company, else company index + 1.
    provider_company: Vec<u32>,
    companies: Vec<String>,
    company_ix: HashMap<String, u32>,
    epochs: Vec<EpochEnc>,
    /// Resolved view of the last epoch added, keyed by dotted name
    /// (BTreeMap: iteration is byte-sorted, matching entry order).
    prev: BTreeMap<String, CanonRow>,
    /// Every domain name seen in any epoch, in first-appearance
    /// (provisional) order; sorted into the global dictionary at finish.
    doc_names: Vec<String>,
    doc_ix: HashMap<String, u32>,
    /// One accumulated index block per epoch.
    epoch_indexes: Vec<EpochIndexEnc>,
}

impl StoreWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
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
            Some(c) => {
                let cix = match self.company_ix.get(c) {
                    Some(&cix) => cix,
                    None => {
                        let cix = u32::try_from(self.companies.len()).unwrap_or(u32::MAX);
                        self.companies.push(c.to_string());
                        self.company_ix.insert(c.to_string(), cix);
                        cix
                    }
                };
                cix.saturating_add(1)
            }
        };
        self.provider_company.push(comp);
        ix
    }

    fn intern_doc(&mut self, name: &str) -> u32 {
        if let Some(&d) = self.doc_ix.get(name) {
            return d;
        }
        let d = u32::try_from(self.doc_names.len()).unwrap_or(u32::MAX);
        self.doc_names.push(name.to_string());
        self.doc_ix.insert(name.to_string(), d);
        d
    }

    /// Resolve a provider's credit key — the id-space twin of the
    /// analysis layer's `company.unwrap_or(provider)` string key. A
    /// company-less provider whose *name* is interned as a company
    /// resolves to that company id, so one credit string never splits
    /// into two rollup entries. Called after the epoch's canon build,
    /// when every company appearing in the epoch is interned.
    fn credit_key(&self, pix: u32) -> (u8, u32) {
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

    /// Rebuild a writer from an already-written `mx-store/2` file so
    /// more epochs can be appended (the incremental-measurement path).
    ///
    /// The reconstruction is byte-exact: interned tables are reloaded
    /// in stored order, existing epoch sections are carried over as
    /// raw bytes, the per-epoch index blocks are decoded back into the
    /// writer's accumulation form (weights as exact bit patterns), and
    /// the resolved view of the last epoch is replayed so the next
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

        // Seed the dictionary in sorted (stored) order: provisional ids
        // equal old ranks, and `finish` re-sorts the final name set, so
        // the remap stays correct when appended epochs add names.
        let mut buf = Vec::new();
        for doc in 0..reader.dict_count() {
            reader.doc_name_into(doc, &mut buf)?;
            let name = std::str::from_utf8(&buf).map_err(|_bad| StoreError::BadUtf8)?;
            w.intern_doc(name);
        }

        for e in 0..reader.epoch_count() {
            let (label, kind, entry_count, entries, ip_count, side_ips, dns_count, side_dns) =
                reader.raw_epoch(e).ok_or(StoreError::EpochOutOfRange {
                    epoch: e,
                    epochs: reader.epoch_count(),
                })?;
            let mut sidecar = Vec::new();
            write_u64(&mut sidecar, ip_count as u64);
            sidecar.extend_from_slice(side_ips);
            write_u64(&mut sidecar, dns_count as u64);
            sidecar.extend_from_slice(side_dns);
            w.epochs.push(EpochEnc {
                label: label.to_string(),
                kind: match kind {
                    EpochKind::Base => KIND_BASE,
                    EpochKind::Delta => KIND_DELTA,
                },
                entry_count,
                entries: entries.to_vec(),
                sidecar,
            });

            let ix = reader.index_of(e)?;
            let mut enc = EpochIndexEnc {
                total_rows: ix.total_rows,
                ..EpochIndexEnc::default()
            };
            for (pid, rows, bits) in crate::index::SummaryIter::new(ix.summary, ix.summary_count)
            {
                enc.summary.insert(pid, (rows, f64::from_bits(bits)));
            }
            for (kind, id, bits) in crate::index::RollupIter::new(ix.rollup, ix.rollup_count) {
                enc.rollup.insert((kind, id), f64::from_bits(bits));
            }
            for posting in &ix.postings {
                let docs: Vec<u32> = crate::index::PostingDocs::new(posting)
                    .map(|d| u32::try_from(d).unwrap_or(u32::MAX))
                    .collect();
                enc.postings.insert(posting.provider, docs);
            }
            for (doc, flags, credit) in crate::index::RawDigestIter::new(ix.digest, ix.total_rows)
            {
                enc.digest.push(DigestEnc {
                    doc: u32::try_from(doc).unwrap_or(u32::MAX),
                    has_smtp: flags & DIGEST_SMTP != 0,
                    self_hosted: flags & DIGEST_SELF_HOSTED != 0,
                    credit,
                });
            }
            w.epoch_indexes.push(enc);
        }

        // Replay the resolved view of the last epoch as the diff base.
        // The merge walk and the digest iterate the same rows in the
        // same ascending-name order; the digest supplies the
        // self-hosted bit the row encoding does not carry.
        if reader.epoch_count() > 0 {
            let last = reader.epoch_count() - 1;
            let ix = reader.index_of(last)?;
            let mut digest = crate::index::RawDigestIter::new(ix.digest, ix.total_rows);
            let mut prev: BTreeMap<String, CanonRow> = BTreeMap::new();
            let provider_ix = &w.provider_ix;
            reader.for_each_row(last, |name, row| {
                let (_doc, flags, _credit) =
                    digest.next().ok_or(StoreError::IndexMismatch { what: "digest rows" })?;
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
                prev.insert(
                    name.to_string(),
                    CanonRow {
                        has_smtp: row.has_smtp(),
                        self_hosted: flags & DIGEST_SELF_HOSTED != 0,
                        shares,
                    },
                );
                Ok(())
            })?;
            w.prev = prev;
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
        rows.sort_by(|a, b| a.name.as_bytes().cmp(b.name.as_bytes()));
        for pair in rows.windows(2) {
            if let [a, b] = pair {
                if a.name == b.name {
                    return Err(StoreError::DuplicateRow(a.name.clone()));
                }
            }
        }

        // Canonicalize in sorted order so table interning order is a
        // function of the data alone. The rows are already name-sorted,
        // so collecting bulk-builds the map instead of inserting one
        // key at a time.
        let canon: BTreeMap<String, CanonRow> = rows
            .into_iter()
            .map(|row| {
                let shares = row
                    .shares
                    .iter()
                    .map(|s| CanonShare {
                        provider: self.intern_provider(&s.provider, s.company.as_deref()),
                        weight_bits: s.weight.to_bits(),
                        source: s.source.code(),
                    })
                    .collect();
                (
                    row.name,
                    CanonRow {
                        has_smtp: row.has_smtp,
                        self_hosted: row.self_hosted,
                        shares,
                    },
                )
            })
            .collect();

        // Accumulate the epoch's index block over the resolved view.
        // This walk (rows sorted by name, shares in stored order) is
        // the exact addition order the reader's merge path replays, so
        // the stored f64 bit sums match it bit for bit.
        let mut enc = EpochIndexEnc {
            total_rows: canon.len() as u64,
            ..EpochIndexEnc::default()
        };
        let mut row_pids: Vec<u32> = Vec::new();
        for (name, row) in &canon {
            let doc = self.intern_doc(name);
            row_pids.clear();
            for s in &row.shares {
                let w = f64::from_bits(s.weight_bits);
                let key = self.credit_key(s.provider);
                let first = !row_pids.contains(&s.provider);
                let slot = enc.summary.entry(s.provider).or_insert((0u64, 0.0f64));
                slot.1 += w;
                if first {
                    row_pids.push(s.provider);
                    slot.0 = slot.0.saturating_add(1);
                    enc.postings.entry(s.provider).or_default().push(doc);
                }
                *enc.rollup.entry(key).or_insert(0.0) += w;
            }
            // Dominant share: max weight, later stored share wins ties
            // (`max_by` keeps the last maximum — same tie-break as the
            // analysis layer's in-memory walk).
            let credit = row
                .shares
                .iter()
                .max_by(|a, b| {
                    f64::from_bits(a.weight_bits).total_cmp(&f64::from_bits(b.weight_bits))
                })
                .map(|s| self.credit_key(s.provider));
            enc.digest.push(DigestEnc {
                doc,
                has_smtp: row.has_smtp,
                self_hosted: row.self_hosted,
                credit,
            });
        }
        self.epoch_indexes.push(enc);

        // Ops: full table for the base epoch, merge-diff for deltas.
        // Both walks are over BTreeMaps, so ops come out name-sorted.
        let base = self.epochs.is_empty();
        let mut ops: Vec<(&str, Option<&CanonRow>)> = Vec::new();
        if base {
            ops.extend(canon.iter().map(|(n, r)| (n.as_str(), Some(r))));
        } else {
            let mut old_iter = self.prev.iter().peekable();
            let mut new_iter = canon.iter().peekable();
            // Classic sorted merge; each arm advances at least one side.
            while old_iter.peek().is_some() || new_iter.peek().is_some() {
                let ord = match (old_iter.peek(), new_iter.peek()) {
                    (Some((on, _)), Some((nn, _))) => on.as_bytes().cmp(nn.as_bytes()),
                    (Some(_), None) => std::cmp::Ordering::Less,
                    (None, _) => std::cmp::Ordering::Greater,
                };
                match ord {
                    std::cmp::Ordering::Less => {
                        if let Some((on, _)) = old_iter.next() {
                            ops.push((on.as_str(), None));
                        }
                    }
                    std::cmp::Ordering::Greater => {
                        if let Some((nn, nr)) = new_iter.next() {
                            ops.push((nn.as_str(), Some(nr)));
                        }
                    }
                    std::cmp::Ordering::Equal => {
                        let old = old_iter.next();
                        if let (Some((_, or)), Some((nn, nr))) = (old, new_iter.next()) {
                            if or != nr {
                                ops.push((nn.as_str(), Some(nr)));
                            }
                        }
                    }
                }
            }
        }

        // Encode entries with prefix compression, restart every
        // RESTART_INTERVAL entries.
        let mut entries = Vec::new();
        let entry_count = ops.len() as u64;
        let mut prev_name = "";
        for (i, (name, op)) in ops.iter().enumerate() {
            let prefix = if i % RESTART_INTERVAL == 0 {
                0
            } else {
                common_prefix(prev_name.as_bytes(), name.as_bytes())
            };
            write_u64(&mut entries, prefix as u64);
            let suffix = name.as_bytes().get(prefix..).unwrap_or(&[]);
            write_u64(&mut entries, suffix.len() as u64);
            entries.extend_from_slice(suffix);
            match op {
                None => entries.push(TAG_REMOVE),
                Some(row) => {
                    entries.push(if row.has_smtp { TAG_ROW_SMTP } else { TAG_ROW });
                    write_u64(&mut entries, row.shares.len() as u64);
                    for s in &row.shares {
                        write_u64(&mut entries, s.provider as u64);
                        entries.extend_from_slice(&s.weight_bits.to_le_bytes());
                        entries.push(s.source);
                    }
                }
            }
            prev_name = name;
        }

        mx_obs::counter!(mx_obs::names::STORE_WRITE_ROWS)
            .add(ops.iter().filter(|(_, op)| op.is_some()).count() as u64);
        if !base {
            mx_obs::counter!(mx_obs::names::STORE_WRITE_DELTA_OPS).add(entry_count);
        }

        self.epochs.push(EpochEnc {
            label: label.to_string(),
            kind: if base { KIND_BASE } else { KIND_DELTA },
            entry_count,
            entries,
            sidecar: encode_sidecar(acq),
        });
        self.prev = canon;
        Ok(())
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
    /// two separate full builds would produce.
    pub fn snapshot(&self) -> Vec<u8> {
        let _span = mx_obs::stage!(mx_obs::names::STAGE_STORE_WRITE).enter();
        // Size estimate up front: epoch sections dominate, the index
        // footer adds dictionary + postings on top. Overshooting a bit
        // beats a dozen doubling reallocs of a multi-megabyte buffer.
        let est: usize = 256
            + self
                .epochs
                .iter()
                .map(|e| e.entries.len() + e.sidecar.len() + 64)
                .sum::<usize>()
            + self.doc_names.iter().map(|n| n.len() + 8).sum::<usize>()
            + self.epoch_indexes.len() * 1024;
        let mut out = Vec::with_capacity(est);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes()); // flags, reserved
        write_str(&mut out, SCHEMA);
        out.push(u8::try_from(RESTART_INTERVAL).unwrap_or(u8::MAX));
        self.write_tables_and_epochs(&mut out);
        self.write_index_footer(&mut out);
        mx_obs::counter!(mx_obs::names::STORE_WRITE_EPOCHS).add(self.epochs.len() as u64);
        mx_obs::counter!(mx_obs::names::STORE_WRITE_BYTES).add(out.len() as u64);
        out
    }

    /// Interned tables and the epoch sections.
    fn write_tables_and_epochs(&self, out: &mut Vec<u8>) {
        write_u64(out, self.providers.len() as u64);
        for p in &self.providers {
            write_str(out, p);
        }
        write_u64(out, self.companies.len() as u64);
        for c in &self.companies {
            write_str(out, c);
        }
        for &comp in &self.provider_company {
            write_u64(out, comp as u64);
        }

        write_u64(out, self.epochs.len() as u64);
        for ep in &self.epochs {
            write_str(out, &ep.label);
            out.push(ep.kind);
            // Rows section: length-framed so a reader can skip epochs.
            let mut rows = Vec::new();
            write_u64(&mut rows, ep.entry_count);
            rows.extend_from_slice(&ep.entries);
            write_u64(out, rows.len() as u64);
            out.extend_from_slice(&rows);
            write_u64(out, ep.sidecar.len() as u64);
            out.extend_from_slice(&ep.sidecar);
        }
    }

    /// The index footer: global dictionary, then per epoch the
    /// summary, rollup, postings and digest sections (each length-
    /// framed). Provisional doc ids are remapped to sorted-dictionary
    /// ranks here; because every accumulation walk was name-sorted,
    /// remapped doc sequences stay strictly ascending without a sort.
    fn write_index_footer(&self, out: &mut Vec<u8>) {
        let mut sorted: Vec<&str> = self.doc_names.iter().map(String::as_str).collect();
        sorted.sort_unstable_by(|a, b| a.as_bytes().cmp(b.as_bytes()));
        let mut rank_of: HashMap<&str, u32> = HashMap::with_capacity(sorted.len());
        for (rank, name) in sorted.iter().enumerate() {
            rank_of.insert(name, u32::try_from(rank).unwrap_or(u32::MAX));
        }
        let mut prov_rank: Vec<u32> = Vec::with_capacity(self.doc_names.len());
        for name in &self.doc_names {
            prov_rank.push(rank_of.get(name.as_str()).copied().unwrap_or(0));
        }
        let rank = |prov: u32| -> u64 {
            prov_rank.get(prov as usize).copied().unwrap_or(0) as u64
        };

        // Dictionary: prefix-compressed like epoch rows, restart (full
        // name) every RESTART_INTERVAL entries.
        let mut dict = Vec::new();
        write_u64(&mut dict, sorted.len() as u64);
        let mut prev_name = "";
        for (i, name) in sorted.iter().enumerate() {
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
        write_u64(out, dict.len() as u64);
        out.extend_from_slice(&dict);

        for enc in &self.epoch_indexes {
            let mut sect = Vec::new();
            write_u64(&mut sect, enc.total_rows);
            write_u64(&mut sect, enc.summary.len() as u64);
            for (&pid, &(rows, weight)) in &enc.summary {
                write_u64(&mut sect, pid as u64);
                write_u64(&mut sect, rows);
                sect.extend_from_slice(&weight.to_bits().to_le_bytes());
            }
            write_u64(out, sect.len() as u64);
            out.extend_from_slice(&sect);

            let mut sect = Vec::new();
            write_u64(&mut sect, enc.rollup.len() as u64);
            for (&(kind, id), &weight) in &enc.rollup {
                sect.push(kind);
                write_u64(&mut sect, id as u64);
                sect.extend_from_slice(&weight.to_bits().to_le_bytes());
            }
            write_u64(out, sect.len() as u64);
            out.extend_from_slice(&sect);

            let mut sect = Vec::new();
            write_u64(&mut sect, enc.postings.len() as u64);
            for (&pid, docs) in &enc.postings {
                write_u64(&mut sect, pid as u64);
                write_u64(&mut sect, docs.len() as u64);
                let mut prev_rank: u64 = 0;
                for (j, &prov) in docs.iter().enumerate() {
                    let r = rank(prov);
                    let gap = if j == 0 { r } else { r.saturating_sub(prev_rank) };
                    write_u64(&mut sect, gap);
                    prev_rank = r;
                }
            }
            write_u64(out, sect.len() as u64);
            out.extend_from_slice(&sect);

            let mut sect = Vec::new();
            let mut prev_rank: u64 = 0;
            for (j, d) in enc.digest.iter().enumerate() {
                let r = rank(d.doc);
                let gap = if j == 0 { r } else { r.saturating_sub(prev_rank) };
                write_u64(&mut sect, gap);
                prev_rank = r;
                let mut flags = 0u8;
                if d.has_smtp {
                    flags |= DIGEST_SMTP;
                }
                if d.self_hosted {
                    flags |= DIGEST_SELF_HOSTED;
                }
                if let Some((kind, _id)) = d.credit {
                    flags |= DIGEST_HAS_CREDIT;
                    if kind == CREDIT_PROVIDER {
                        flags |= DIGEST_CREDIT_PROVIDER;
                    }
                }
                sect.push(flags);
                if let Some((_kind, id)) = d.credit {
                    write_u64(&mut sect, id as u64);
                }
            }
            write_u64(out, sect.len() as u64);
            out.extend_from_slice(&sect);
        }
    }
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
}
