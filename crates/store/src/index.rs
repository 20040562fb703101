//! Index-footer decode: dictionary, summaries, rollups, postings
//! and digests.
//!
//! Everything here consumes untrusted file bytes through the
//! bounds-checked [`Cur`] cursor and returns typed [`StoreError`]s —
//! the same contract as the epoch decoder in `reader.rs`. Each section
//! is length-framed by the caller and must fill its frame exactly
//! ([`StoreError::SectionOverrun`] otherwise); structural invariants
//! (strict ordering, id ranges, gap positivity, flag masks, cadence)
//! are enforced at open, while *semantic* agreement with the epoch
//! layers is the job of `StoreReader::verify_indexes`.

use crate::format::{
    to_usize, Cur, CREDIT_COMPANY, CREDIT_PROVIDER, DIGEST_CREDIT_PROVIDER, DIGEST_FLAGS_MASK,
    DIGEST_HAS_CREDIT,
};
use crate::StoreError;

/// The global domain dictionary: the byte-sorted union of every name
/// upserted in any epoch, prefix-compressed with a full name (restart)
/// every `interval` entries. A name's position in this order is its
/// **doc id** — the unit postings lists and digests are encoded in.
#[derive(Debug)]
pub struct DictIx<'a> {
    /// Entry bytes (after the count varint).
    bytes: &'a [u8],
    count: usize,
    interval: usize,
    /// Byte offsets of the restart entries, in order.
    restarts: Vec<usize>,
}

impl<'a> DictIx<'a> {
    /// Validate one dictionary section (`count` varint + entries) and
    /// index its restart points.
    pub fn parse(section: &'a [u8], interval: usize) -> Result<DictIx<'a>, StoreError> {
        if interval == 0 {
            return Err(StoreError::IndexCorrupt {
                what: "restart interval",
            });
        }
        let mut cur = Cur::new(section);
        let count = cur.count()?;
        // Each entry costs at least two bytes; reject counts the frame
        // cannot possibly hold before walking.
        if count > cur.remaining() {
            return Err(StoreError::Truncated);
        }
        let entries_start = cur.pos();
        let bytes = section.get(entries_start..).ok_or(StoreError::Truncated)?;
        let mut ecur = Cur::new(bytes);
        let mut restarts: Vec<usize> = Vec::new();
        let mut prev_name: Vec<u8> = Vec::new();
        for idx in 0..count {
            let offset = ecur.pos();
            let prefix = ecur.count()?;
            let at_restart = idx % interval == 0;
            if at_restart && prefix != 0 {
                return Err(StoreError::IndexCorrupt {
                    what: "dict restart cadence",
                });
            }
            if prefix > prev_name.len() {
                return Err(StoreError::BadPrefix);
            }
            let suffix_len = ecur.count()?;
            let suffix = ecur.bytes(suffix_len)?;
            if idx > 0 {
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
            if at_restart {
                restarts.push(offset);
            }
        }
        if ecur.remaining() != 0 {
            return Err(StoreError::SectionOverrun);
        }
        Ok(DictIx {
            bytes,
            count,
            interval,
            restarts,
        })
    }

    /// Number of dictionary entries (== the doc-id space).
    pub fn count(&self) -> usize {
        self.count
    }

    /// Materialize the name of `doc` into `buf` (cleared first): jump
    /// to the covering restart, then splice at most `interval - 1`
    /// prefix-compressed entries.
    pub fn name_into(&self, doc: usize, buf: &mut Vec<u8>) -> Result<(), StoreError> {
        if doc >= self.count {
            return Err(StoreError::BadIndex { what: "domain" });
        }
        let restart = doc / self.interval;
        let offset = *self
            .restarts
            .get(restart)
            .ok_or(StoreError::BadIndex { what: "domain" })?;
        let tail = self.bytes.get(offset..).ok_or(StoreError::Truncated)?;
        let mut cur = Cur::new(tail);
        buf.clear();
        let steps = doc % self.interval;
        for _step in 0..=steps {
            let prefix = cur.count()?;
            if prefix > buf.len() {
                return Err(StoreError::BadPrefix);
            }
            let suffix_len = cur.count()?;
            let suffix = cur.bytes(suffix_len)?;
            buf.truncate(prefix);
            buf.extend_from_slice(suffix);
        }
        Ok(())
    }

    /// A sequential cursor over all names, for lockstep walks.
    pub fn cursor(&self) -> DictCursor<'a> {
        DictCursor {
            cur: Cur::new(self.bytes),
            left: self.count,
            name: Vec::new(),
            consumed: 0,
        }
    }
}

/// Sequential dictionary walker (names come out in sorted byte order).
pub struct DictCursor<'a> {
    cur: Cur<'a>,
    left: usize,
    name: Vec<u8>,
    consumed: usize,
}

impl<'a> DictCursor<'a> {
    /// Advance to the next name; `false` when the dictionary is done.
    pub fn advance(&mut self) -> Result<bool, StoreError> {
        if self.left == 0 {
            return Ok(false);
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
        self.consumed = self.consumed.saturating_add(1);
        Ok(true)
    }

    /// Advance until the current name is `>= target`; returns the doc
    /// id when the name equals `target`, `None` otherwise. Callers must
    /// seek with ascending targets (the cursor never rewinds).
    pub fn seek(&mut self, target: &[u8]) -> Result<Option<usize>, StoreError> {
        // Each iteration consumes one of the `left` remaining entries,
        // so the walk is bounded by the dictionary size.
        let budget = self.left;
        for _ in 0..budget {
            if self.consumed > 0 && self.name.as_slice() >= target {
                break;
            }
            self.advance()?;
        }
        if self.consumed > 0 && self.name.as_slice() == target {
            Ok(Some(self.consumed.saturating_sub(1)))
        } else {
            Ok(None)
        }
    }
}

/// One epoch's decoded index block: slices into the four validated
/// sections plus the postings directory.
#[derive(Debug)]
pub struct EpochIndexIx<'a> {
    /// Resolved row count of the epoch's view (the digest entry count).
    pub total_rows: u64,
    /// Summary entry bytes (after the two count varints).
    pub summary: &'a [u8],
    /// Number of summary entries.
    pub summary_count: usize,
    /// Rollup entry bytes (after the count varint).
    pub rollup: &'a [u8],
    /// Number of rollup entries.
    pub rollup_count: usize,
    /// Per-provider postings, ascending by provider id.
    pub postings: Vec<PostingRef<'a>>,
    /// Digest entry bytes (`total_rows` entries).
    pub digest: &'a [u8],
}

/// One provider's postings list: `count` doc-gap varints in `bytes`.
#[derive(Debug)]
pub struct PostingRef<'a> {
    /// Provider table index.
    pub provider: u32,
    /// Number of documents in the list (always ≥ 1).
    pub count: u64,
    /// The gap-encoded doc ids (first absolute, then deltas ≥ 1).
    pub bytes: &'a [u8],
}

/// Validate a summary section: `total_rows`, entry count, then
/// `(provider, rows, weight-bits)` entries strictly ascending by
/// provider id, each provider's row count within `1..=total_rows`.
pub fn parse_summary(
    section: &[u8],
    provider_count: usize,
) -> Result<(u64, usize, &[u8]), StoreError> {
    let mut cur = Cur::new(section);
    let total_rows = cur.varint()?;
    let count = cur.count()?;
    if count > cur.remaining() {
        return Err(StoreError::Truncated);
    }
    let entries = section.get(cur.pos()..).ok_or(StoreError::Truncated)?;
    let mut prev_pid: Option<u64> = None;
    for _idx in 0..count {
        let pid = cur.varint()?;
        if pid >= provider_count as u64 {
            return Err(StoreError::BadIndex { what: "provider" });
        }
        if prev_pid.is_some_and(|p| pid <= p) {
            return Err(StoreError::IndexCorrupt {
                what: "summary order",
            });
        }
        prev_pid = Some(pid);
        let rows = cur.varint()?;
        if rows == 0 || rows > total_rows {
            return Err(StoreError::IndexCorrupt {
                what: "summary rows",
            });
        }
        let _bits = cur.bytes(8)?;
    }
    if cur.remaining() != 0 {
        return Err(StoreError::SectionOverrun);
    }
    Ok((total_rows, count, entries))
}

/// Validate a rollup section: `(kind, id, weight-bits)` entries
/// strictly ascending by `(kind, id)`, ids in range for their table.
pub fn parse_rollup(
    section: &[u8],
    provider_count: usize,
    company_count: usize,
) -> Result<(usize, &[u8]), StoreError> {
    let mut cur = Cur::new(section);
    let count = cur.count()?;
    if count > cur.remaining() {
        return Err(StoreError::Truncated);
    }
    let entries = section.get(cur.pos()..).ok_or(StoreError::Truncated)?;
    let mut prev: Option<(u8, u64)> = None;
    for _idx in 0..count {
        let kind = cur.u8()?;
        if kind != CREDIT_COMPANY && kind != CREDIT_PROVIDER {
            return Err(StoreError::IndexCorrupt {
                what: "rollup kind",
            });
        }
        let id = cur.varint()?;
        let (limit, what) = if kind == CREDIT_COMPANY {
            (company_count as u64, "company")
        } else {
            (provider_count as u64, "provider")
        };
        if id >= limit {
            return Err(StoreError::BadIndex { what });
        }
        if prev.is_some_and(|p| (kind, id) <= p) {
            return Err(StoreError::IndexCorrupt {
                what: "rollup order",
            });
        }
        prev = Some((kind, id));
        let _bits = cur.bytes(8)?;
    }
    if cur.remaining() != 0 {
        return Err(StoreError::SectionOverrun);
    }
    Ok((count, entries))
}

/// Validate a postings section and index each provider's list. Doc ids
/// are gap-encoded (first absolute, later deltas ≥ 1), strictly
/// ascending and bounded by the dictionary size.
pub fn parse_postings<'a>(
    section: &'a [u8],
    provider_count: usize,
    dict_count: usize,
) -> Result<Vec<PostingRef<'a>>, StoreError> {
    let mut cur = Cur::new(section);
    let pcount = cur.count()?;
    if pcount > cur.remaining() {
        return Err(StoreError::Truncated);
    }
    let mut out: Vec<PostingRef<'a>> = Vec::new();
    let mut prev_pid: Option<u64> = None;
    for _idx in 0..pcount {
        let pid = cur.varint()?;
        if pid >= provider_count as u64 {
            return Err(StoreError::BadIndex { what: "provider" });
        }
        if prev_pid.is_some_and(|p| pid <= p) {
            return Err(StoreError::IndexCorrupt {
                what: "postings order",
            });
        }
        prev_pid = Some(pid);
        let count = cur.varint()?;
        if count == 0 {
            return Err(StoreError::IndexCorrupt {
                what: "postings empty",
            });
        }
        if count > dict_count as u64 {
            return Err(StoreError::BadIndex { what: "domain" });
        }
        let start = cur.pos();
        let mut doc = cur.varint()?;
        if doc >= dict_count as u64 {
            return Err(StoreError::BadIndex { what: "domain" });
        }
        for _gap in 1..count {
            let gap = cur.varint()?;
            if gap == 0 {
                return Err(StoreError::IndexCorrupt {
                    what: "postings gap",
                });
            }
            doc = doc
                .checked_add(gap)
                .ok_or(StoreError::VarintOverflow)?;
            if doc >= dict_count as u64 {
                return Err(StoreError::BadIndex { what: "domain" });
            }
        }
        let bytes = section
            .get(start..cur.pos())
            .ok_or(StoreError::Truncated)?;
        out.push(PostingRef {
            provider: u32::try_from(pid).map_err(|_big| StoreError::VarintOverflow)?,
            count,
            bytes,
        });
    }
    if cur.remaining() != 0 {
        return Err(StoreError::SectionOverrun);
    }
    Ok(out)
}

/// Validate a digest section: exactly `total_rows` entries of
/// `(doc-gap, flags, [credit id])`, docs strictly ascending and in
/// dictionary range, flags restricted to the defined mask, credit ids
/// in range for their kind.
pub fn parse_digest<'a>(
    section: &'a [u8],
    total_rows: u64,
    provider_count: usize,
    company_count: usize,
    dict_count: usize,
) -> Result<&'a [u8], StoreError> {
    let mut cur = Cur::new(section);
    let mut doc: u64 = 0;
    for idx in 0..total_rows {
        let gap = cur.varint()?;
        if idx == 0 {
            doc = gap;
        } else {
            if gap == 0 {
                return Err(StoreError::IndexCorrupt { what: "digest gap" });
            }
            doc = doc.checked_add(gap).ok_or(StoreError::VarintOverflow)?;
        }
        if doc >= dict_count as u64 {
            return Err(StoreError::BadIndex { what: "domain" });
        }
        let flags = cur.u8()?;
        if flags & !DIGEST_FLAGS_MASK != 0 {
            return Err(StoreError::BadFlags(flags));
        }
        if flags & DIGEST_HAS_CREDIT != 0 {
            let id = cur.varint()?;
            let (limit, what) = if flags & DIGEST_CREDIT_PROVIDER != 0 {
                (provider_count as u64, "provider")
            } else {
                (company_count as u64, "company")
            };
            if id >= limit {
                return Err(StoreError::BadIndex { what });
            }
        } else if flags & DIGEST_CREDIT_PROVIDER != 0 {
            return Err(StoreError::IndexCorrupt {
                what: "digest flags",
            });
        }
    }
    if cur.remaining() != 0 {
        return Err(StoreError::SectionOverrun);
    }
    section.get(..).ok_or(StoreError::Truncated)
}

/// The summary and postings sections describe the same per-provider
/// row sets, so their provider lists and counts must agree entry for
/// entry — a cheap open-time cross-check between two independently
/// encoded sections.
pub fn cross_check_summary_postings(
    summary: &[u8],
    summary_count: usize,
    postings: &[PostingRef<'_>],
) -> Result<(), StoreError> {
    if summary_count != postings.len() {
        return Err(StoreError::IndexCorrupt {
            what: "summary/postings providers",
        });
    }
    let mut iter = SummaryIter::new(summary, summary_count);
    for p in postings {
        let Some((pid, rows, _bits)) = iter.next() else {
            return Err(StoreError::IndexCorrupt {
                what: "summary/postings providers",
            });
        };
        if pid != p.provider || rows != p.count {
            return Err(StoreError::IndexCorrupt {
                what: "summary/postings rows",
            });
        }
    }
    Ok(())
}

/// Iterator over validated summary entries: `(provider, rows, bits)`.
pub struct SummaryIter<'a> {
    cur: Cur<'a>,
    left: usize,
}

impl<'a> SummaryIter<'a> {
    /// Iterate `count` entries of a validated summary slice.
    pub fn new(entries: &'a [u8], count: usize) -> Self {
        SummaryIter {
            cur: Cur::new(entries),
            left: count,
        }
    }
}

impl<'a> Iterator for SummaryIter<'a> {
    type Item = (u32, u64, u64);

    fn next(&mut self) -> Option<(u32, u64, u64)> {
        if self.left == 0 {
            return None;
        }
        self.left = self.left.saturating_sub(1);
        // Validated at open; any failure just ends the iteration.
        let pid = u32::try_from(self.cur.varint().ok()?).ok()?;
        let rows = self.cur.varint().ok()?;
        let raw = self.cur.bytes(8).ok()?;
        let arr: [u8; 8] = raw.try_into().ok()?;
        Some((pid, rows, u64::from_le_bytes(arr)))
    }
}

/// Iterator over validated rollup entries: `(kind, id, bits)`.
pub struct RollupIter<'a> {
    cur: Cur<'a>,
    left: usize,
}

impl<'a> RollupIter<'a> {
    /// Iterate `count` entries of a validated rollup slice.
    pub fn new(entries: &'a [u8], count: usize) -> Self {
        RollupIter {
            cur: Cur::new(entries),
            left: count,
        }
    }
}

impl<'a> Iterator for RollupIter<'a> {
    type Item = (u8, u32, u64);

    fn next(&mut self) -> Option<(u8, u32, u64)> {
        if self.left == 0 {
            return None;
        }
        self.left = self.left.saturating_sub(1);
        let kind = self.cur.u8().ok()?;
        let id = u32::try_from(self.cur.varint().ok()?).ok()?;
        let raw = self.cur.bytes(8).ok()?;
        let arr: [u8; 8] = raw.try_into().ok()?;
        Some((kind, id, u64::from_le_bytes(arr)))
    }
}

/// Iterator over one postings list's doc ids (gap decode).
pub struct PostingDocs<'a> {
    cur: Cur<'a>,
    left: u64,
    doc: u64,
    first: bool,
}

impl<'a> PostingDocs<'a> {
    /// Decode the doc ids of one validated postings list.
    pub fn new(posting: &PostingRef<'a>) -> Self {
        PostingDocs {
            cur: Cur::new(posting.bytes),
            left: posting.count,
            doc: 0,
            first: true,
        }
    }
}

impl<'a> Iterator for PostingDocs<'a> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.left == 0 {
            return None;
        }
        self.left = self.left.saturating_sub(1);
        let v = self.cur.varint().ok()?;
        self.doc = if self.first {
            self.first = false;
            v
        } else {
            self.doc.checked_add(v)?
        };
        to_usize(self.doc).ok()
    }
}

/// One raw digest entry: doc id, flag byte, optional `(kind, id)`
/// dominant credit.
pub struct RawDigestIter<'a> {
    cur: Cur<'a>,
    left: u64,
    doc: u64,
    first: bool,
}

impl<'a> RawDigestIter<'a> {
    /// Iterate `total_rows` entries of a validated digest slice.
    pub fn new(entries: &'a [u8], total_rows: u64) -> Self {
        RawDigestIter {
            cur: Cur::new(entries),
            left: total_rows,
            doc: 0,
            first: true,
        }
    }
}

impl<'a> Iterator for RawDigestIter<'a> {
    type Item = (usize, u8, Option<(u8, u32)>);

    fn next(&mut self) -> Option<(usize, u8, Option<(u8, u32)>)> {
        if self.left == 0 {
            return None;
        }
        self.left = self.left.saturating_sub(1);
        let gap = self.cur.varint().ok()?;
        self.doc = if self.first {
            self.first = false;
            gap
        } else {
            self.doc.checked_add(gap)?
        };
        let flags = self.cur.u8().ok()?;
        let credit = if flags & DIGEST_HAS_CREDIT != 0 {
            let kind = if flags & DIGEST_CREDIT_PROVIDER != 0 {
                CREDIT_PROVIDER
            } else {
                CREDIT_COMPANY
            };
            Some((kind, u32::try_from(self.cur.varint().ok()?).ok()?))
        } else {
            None
        };
        Some((to_usize(self.doc).ok()?, flags, credit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::varint::write_u64;

    fn dict_bytes(names: &[&str], interval: usize) -> Vec<u8> {
        let mut out = Vec::new();
        write_u64(&mut out, names.len() as u64);
        let mut prev = "";
        for (i, name) in names.iter().enumerate() {
            let prefix = if i % interval == 0 {
                0
            } else {
                prev.as_bytes()
                    .iter()
                    .zip(name.as_bytes())
                    .take_while(|(a, b)| a == b)
                    .count()
            };
            write_u64(&mut out, prefix as u64);
            let suffix = &name.as_bytes()[prefix..];
            write_u64(&mut out, suffix.len() as u64);
            out.extend_from_slice(suffix);
            prev = name;
        }
        out
    }

    #[test]
    fn dict_random_access_and_seek() {
        let names = ["alpha.test", "alpine.test", "beta.test", "delta.test", "eta.test"];
        let bytes = dict_bytes(&names, 2);
        let dict = DictIx::parse(&bytes, 2).unwrap();
        assert_eq!(dict.count(), 5);
        let mut buf = Vec::new();
        for (doc, name) in names.iter().enumerate() {
            dict.name_into(doc, &mut buf).unwrap();
            assert_eq!(&buf, name.as_bytes(), "doc {doc}");
        }
        assert!(dict.name_into(5, &mut buf).is_err());

        let mut cur = dict.cursor();
        assert_eq!(cur.seek(b"alpine.test").unwrap(), Some(1));
        assert_eq!(cur.seek(b"charlie.test").unwrap(), None);
        // The cursor does not rewind: delta is still reachable.
        assert_eq!(cur.seek(b"delta.test").unwrap(), Some(3));
    }

    #[test]
    fn dict_rejects_unsorted_and_bad_cadence() {
        let unsorted = dict_bytes(&["b.test", "a.test"], 16);
        assert_eq!(DictIx::parse(&unsorted, 16).unwrap_err(), StoreError::Unsorted);
        // Restart cadence: entry 2 (interval 2) must have prefix 0.
        let mut bad = Vec::new();
        write_u64(&mut bad, 3);
        for (prefix, suffix) in [(0u64, "a.test"), (0, "b.test"), (1, ".x")] {
            write_u64(&mut bad, prefix);
            write_u64(&mut bad, suffix.len() as u64);
            bad.extend_from_slice(suffix.as_bytes());
        }
        assert_eq!(
            DictIx::parse(&bad, 2).unwrap_err(),
            StoreError::IndexCorrupt {
                what: "dict restart cadence"
            }
        );
    }

    #[test]
    fn postings_gap_decode_round_trip() {
        let mut body = Vec::new();
        write_u64(&mut body, 1); // one provider
        write_u64(&mut body, 0); // pid
        write_u64(&mut body, 3); // three docs
        write_u64(&mut body, 2); // doc 2
        write_u64(&mut body, 1); // doc 3
        write_u64(&mut body, 4); // doc 7
        let refs = parse_postings(&body, 1, 8).unwrap();
        assert_eq!(refs.len(), 1);
        let docs: Vec<usize> = PostingDocs::new(&refs[0]).collect();
        assert_eq!(docs, vec![2, 3, 7]);
        // Out-of-range doc: same bytes, smaller dictionary.
        assert_eq!(
            parse_postings(&body, 1, 7).unwrap_err(),
            StoreError::BadIndex { what: "domain" }
        );
    }
}
