//! mx-store: a delta-encoded longitudinal snapshot store.
//!
//! The paper's core artifact is a mapping `domain → mail provider`
//! tracked across nine semi-annual snapshots. This crate persists that
//! artifact so lookups and analyses don't re-run the measurement
//! pipeline: one store file holds every epoch of one dataset as an
//! interned provider/company table, a **base** snapshot of sorted
//! domain→provider postings, and **delta** epochs carrying only the
//! changed/added/removed domains (varint + prefix-compressed names),
//! plus a per-epoch acquisition sidecar (the shared `mx-acq` types).
//!
//! The format is schema-versioned (`mx-store/2`, see
//! [`format::SCHEMA`]) and fully validated on open: [`StoreReader`]
//! decodes from `&[u8]` — names, labels and provider strings are
//! zero-copy slices of the input buffer, point lookups compare
//! prefix-compressed entries incrementally without materializing
//! names, and full-epoch iteration reuses one name buffer per layer.
//! Malformed or truncated bytes yield a typed [`StoreError`], never a
//! panic; the decoder sits in mx-lint's untrusted/wire-codec scope
//! (R1/R2/R3/R5/R7).
//!
//! After the epochs comes an index footer written by the same
//! byte-deterministic sorted walk: a global prefix-compressed domain
//! dictionary, then per epoch a market-share summary (provider → row
//! count + exact weight-bit sum), a credit rollup table (company or
//! long-tail provider → weight-bit sum), provider→domain postings
//! lists (LEB128 doc gaps over the sorted dictionary order) and a
//! per-row digest (doc id, SMTP/self-hosted bits, dominant credit) —
//! so market share, churn and "who uses provider X" are index hits
//! instead of full-epoch merges. The reader accepts exactly
//! [`VERSION`]; any other header version fails with
//! [`StoreError::UnsupportedVersion`].
//!
//! Writing is deterministic: rows are sorted by dotted name, tables
//! are interned in first-appearance order of that sort, and weights
//! are stored as exact `f64` bits — the same study serializes to
//! byte-identical files at any thread count (`tests/store_gate.rs`
//! enforces this).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod format;
pub mod index;
pub mod reader;
pub mod varint;
pub mod writer;

pub use format::{SCHEMA, VERSION};
pub use reader::{DigestIter, DigestRow, EpochKind, Row, Share, ShareIter, StoreReader};
pub use writer::{RowIn, ShareIn, StoreWriter};

/// Everything that can go wrong decoding (or assembling) a store.
///
/// Decode errors are total: any byte sequence fed to
/// [`StoreReader::open`] produces either a valid reader or one of
/// these — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The file does not start with the `MXST` magic.
    BadMagic,
    /// The header version is not one this build can read.
    UnsupportedVersion(u16),
    /// The schema string after the header is not [`SCHEMA`].
    BadSchema,
    /// The buffer ended before a declared structure did.
    Truncated,
    /// A varint was over-long or overflowed 64 bits.
    VarintOverflow,
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// An interned-table index pointed past the table.
    BadIndex {
        /// Which table the index was for (`"provider"`/`"company"`).
        what: &'static str,
    },
    /// An unknown row-entry tag byte.
    BadTag(u8),
    /// An unknown epoch kind byte, or a kind in the wrong position
    /// (the first epoch must be base, later ones delta).
    BadKind(u8),
    /// An unknown share source code.
    BadSource(u8),
    /// An unknown sidecar fault code.
    BadFault(u8),
    /// Invalid sidecar flag bits.
    BadFlags(u8),
    /// A name's prefix length exceeded the previous entry's name.
    BadPrefix,
    /// Row entries were not strictly ascending by name.
    Unsorted,
    /// A removal entry appeared in a base epoch.
    RemoveInBase,
    /// A section's content did not fill its declared byte length.
    SectionOverrun,
    /// Bytes remained after the last declared epoch.
    TrailingBytes,
    /// An index section violated a structural invariant (ordering,
    /// cadence, empty postings, flag combinations) that open-time
    /// validation enforces.
    IndexCorrupt {
        /// Which invariant broke.
        what: &'static str,
    },
    /// An index section is structurally valid but disagrees with the
    /// epoch layers it summarizes (found by
    /// [`StoreReader::verify_indexes`], which recomputes every section
    /// from the merge path).
    IndexMismatch {
        /// Which section disagreed.
        what: &'static str,
    },
    /// An epoch index past the stored epoch count was queried.
    EpochOutOfRange {
        /// The requested epoch.
        epoch: usize,
        /// How many epochs the store holds.
        epochs: usize,
    },
    /// The writer was handed two rows for the same domain.
    DuplicateRow(String),
    /// A stored sidecar domain failed to parse back into a DNS name.
    BadName(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::BadMagic => write!(f, "not a store file (bad magic)"),
            StoreError::UnsupportedVersion(v) => write!(f, "unsupported store version {v}"),
            StoreError::BadSchema => write!(f, "schema string is not {}", SCHEMA),
            StoreError::Truncated => write!(f, "store truncated mid-structure"),
            StoreError::VarintOverflow => write!(f, "varint over-long or overflowing 64 bits"),
            StoreError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            StoreError::BadIndex { what } => write!(f, "{what} index out of range"),
            StoreError::BadTag(t) => write!(f, "unknown row tag {t}"),
            StoreError::BadKind(k) => write!(f, "bad epoch kind {k}"),
            StoreError::BadSource(s) => write!(f, "unknown share source code {s}"),
            StoreError::BadFault(c) => write!(f, "unknown sidecar fault code {c}"),
            StoreError::BadFlags(b) => write!(f, "invalid sidecar flag bits {b:#04x}"),
            StoreError::BadPrefix => write!(f, "name prefix exceeds previous name"),
            StoreError::Unsorted => write!(f, "row entries not strictly ascending"),
            StoreError::RemoveInBase => write!(f, "removal entry in a base epoch"),
            StoreError::SectionOverrun => write!(f, "section content overran its length"),
            StoreError::TrailingBytes => write!(f, "trailing bytes after last epoch"),
            StoreError::IndexCorrupt { what } => write!(f, "index section corrupt: {what}"),
            StoreError::IndexMismatch { what } => {
                write!(f, "index disagrees with epoch layers: {what}")
            }
            StoreError::EpochOutOfRange { epoch, epochs } => {
                write!(f, "epoch {epoch} out of range (store has {epochs})")
            }
            StoreError::DuplicateRow(name) => write!(f, "duplicate row for domain {name}"),
            StoreError::BadName(name) => write!(f, "sidecar domain {name:?} is not a DNS name"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Where a share's provider identification came from. Mirrors the
/// inference layer's `IdSource` without depending on it (the store is
/// consumable by serving layers that never link the pipeline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShareSource {
    /// Identified via the TLS certificate chain.
    Certificate,
    /// Identified via the SMTP banner/EHLO hostname.
    Banner,
    /// Identified via the MX record name itself.
    MxRecord,
}

impl ShareSource {
    /// The wire code (`0`/`1`/`2`).
    pub fn code(self) -> u8 {
        match self {
            ShareSource::Certificate => 0,
            ShareSource::Banner => 1,
            ShareSource::MxRecord => 2,
        }
    }

    /// Decode a wire code.
    pub fn from_code(c: u8) -> Result<Self, StoreError> {
        match c {
            0 => Ok(ShareSource::Certificate),
            1 => Ok(ShareSource::Banner),
            2 => Ok(ShareSource::MxRecord),
            other => Err(StoreError::BadSource(other)),
        }
    }
}
