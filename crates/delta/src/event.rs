//! The typed zone-update event model and its binary log codec.
//!
//! Between two full snapshots the registries publish a stream of zone
//! changes; this module gives that stream a schema. Seven event kinds
//! cover the churn the MX-record literature documents (priority
//! reshuffles, backup swaps, host re-IPs, certificate rotations,
//! provider migrations, zone births and deaths), and the `mx-delta/1`
//! wire format persists a whole stream — batches of events — as one
//! self-contained binary log with LEB128 varints and an interned name
//! table so domain names are stored once no matter how often they
//! churn.
//!
//! The codec follows the house wire-codec discipline: decoding is
//! total (every input yields `Ok` or a typed [`DeltaError`], never a
//! panic), counts are bounded by the remaining input before any
//! allocation, and trailing bytes are rejected.

use std::collections::HashMap;
use std::fmt;

use mx_dns::Name;
use mx_store::format::{self, write_str};
use mx_store::varint::write_u64;
use mx_store::StoreError;

use crate::world::PROVIDERS;

/// Magic bytes opening every event log.
pub const MAGIC: &[u8; 4] = b"MXDL";
/// Current wire format version.
pub const VERSION: u16 = 1;
/// Schema identifier embedded in the log.
pub const SCHEMA: &str = "mx-delta/1";

const TAG_MX_SWAP: u8 = 0;
const TAG_MX_PRIORITY: u8 = 1;
const TAG_HOST_REIP: u8 = 2;
const TAG_CERT_ROTATION: u8 = 3;
const TAG_MIGRATION: u8 = 4;
const TAG_ZONE_DELETE: u8 = 5;
const TAG_DOMAIN_ADD: u8 = 6;

const TARGET_DOMAIN: u8 = 0;
const TARGET_PROVIDER: u8 = 1;

const ADD_PROVIDER: u8 = 0;
const ADD_SELF_HOSTED: u8 = 1;
const ADD_NO_MAIL: u8 = 2;

/// What a certificate rotation applies to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertTarget {
    /// One self-hosted domain rotates its own server certificate.
    Domain(String),
    /// A provider rotates the certificate on its whole server farm,
    /// touching every customer at once (the reverse-index stress case).
    Provider(u32),
}

/// Hosting arrangement requested for a newly added domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddSpec {
    /// Outsourced to the catalog provider at this index.
    Provider(u32),
    /// Runs its own mail server.
    SelfHosted,
    /// Publishes MX records pointing at a silent web host.
    NoMail,
}

/// One zone-update event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A provider-hosted domain moves to the provider's other host
    /// pair (mx1/mx2 <-> mx3/mx4) without changing provider.
    MxSwap {
        /// The affected domain.
        domain: String,
    },
    /// Primary and backup MX preferences swap.
    MxPriorityChange {
        /// The affected domain.
        domain: String,
    },
    /// A self-hosted domain renumbers its mail server.
    HostReIp {
        /// The affected domain.
        domain: String,
    },
    /// A server certificate is rotated.
    CertRotation {
        /// Whose certificate.
        target: CertTarget,
    },
    /// The domain changes mail provider.
    ProviderMigration {
        /// The affected domain.
        domain: String,
        /// Destination provider index into [`PROVIDERS`].
        provider: u32,
    },
    /// The domain's zone is deleted entirely.
    ZoneDelete {
        /// The removed domain.
        domain: String,
    },
    /// A new domain appears in the measured population.
    DomainAdd {
        /// The new domain.
        domain: String,
        /// How it hosts mail.
        spec: AddSpec,
    },
}

impl Event {
    /// The domain name the event references, when it references one.
    pub fn domain(&self) -> Option<&str> {
        match self {
            Event::MxSwap { domain }
            | Event::MxPriorityChange { domain }
            | Event::HostReIp { domain }
            | Event::ProviderMigration { domain, .. }
            | Event::ZoneDelete { domain }
            | Event::DomainAdd { domain, .. } => Some(domain),
            Event::CertRotation { target } => match target {
                CertTarget::Domain(d) => Some(d),
                CertTarget::Provider(_) => None,
            },
        }
    }
}

/// Everything that can go wrong encoding, decoding or applying an
/// event log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// The input does not start with the `MXDL` magic.
    BadMagic,
    /// The version is not one this reader understands.
    UnsupportedVersion(u16),
    /// Reserved flag bits were set.
    BadFlags(u16),
    /// The embedded schema string is not `mx-delta/1`.
    BadSchema(String),
    /// The input ended inside a field.
    Truncated,
    /// A varint ran past ten bytes or overflowed 64 bits.
    VarintOverflow,
    /// An interned string was not valid UTF-8.
    BadUtf8,
    /// An unknown event tag byte.
    UnknownTag(u8),
    /// An unknown certificate-rotation target kind.
    UnknownTargetKind(u8),
    /// An unknown hosting kind on a domain-add event.
    UnknownAddKind(u8),
    /// A name id pointed past the interned table.
    BadNameId(u64),
    /// A provider index pointed past the catalog.
    BadProvider(u64),
    /// An interned name does not parse as a DNS name.
    BadName(String),
    /// Bytes remained after the last batch.
    TrailingBytes,
    /// An event referenced a domain the state does not contain.
    NoSuchDomain(String),
    /// A domain-add collided with an existing domain.
    DuplicateDomain(String),
    /// An event's semantics do not fit the domain's hosting kind
    /// (e.g. `HostReIp` on a provider-hosted domain).
    WrongHosting(String),
    /// The snapshot store rejected an append.
    Store(mx_store::StoreError),
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::BadMagic => write!(f, "bad magic (expected MXDL)"),
            DeltaError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            DeltaError::BadFlags(x) => write!(f, "reserved flag bits set ({x:#06x})"),
            DeltaError::BadSchema(s) => write!(f, "bad schema string {s:?}"),
            DeltaError::Truncated => write!(f, "truncated input"),
            DeltaError::VarintOverflow => write!(f, "varint overflow"),
            DeltaError::BadUtf8 => write!(f, "invalid UTF-8 in interned name"),
            DeltaError::UnknownTag(t) => write!(f, "unknown event tag {t}"),
            DeltaError::UnknownTargetKind(k) => write!(f, "unknown cert target kind {k}"),
            DeltaError::UnknownAddKind(k) => write!(f, "unknown domain-add hosting kind {k}"),
            DeltaError::BadNameId(id) => write!(f, "name id {id} out of range"),
            DeltaError::BadProvider(p) => write!(f, "provider index {p} out of range"),
            DeltaError::BadName(s) => write!(f, "interned name {s:?} is not a DNS name"),
            DeltaError::TrailingBytes => write!(f, "trailing bytes after event log"),
            DeltaError::NoSuchDomain(d) => write!(f, "no such domain {d}"),
            DeltaError::DuplicateDomain(d) => write!(f, "duplicate domain {d}"),
            DeltaError::WrongHosting(d) => write!(f, "event does not fit hosting of {d}"),
            DeltaError::Store(e) => write!(f, "store: {e}"),
        }
    }
}

impl std::error::Error for DeltaError {}

impl From<mx_store::StoreError> for DeltaError {
    fn from(e: mx_store::StoreError) -> Self {
        DeltaError::Store(e)
    }
}

// ---------------------------------------------------------------- encode

/// Encode a stream of event batches as an `mx-delta/1` log.
pub fn encode_log(log: &[Vec<Event>]) -> Vec<u8> {
    // Interned name table, first-appearance order.
    let mut names: Vec<&str> = Vec::new();
    let mut name_ix: HashMap<&str, u64> = HashMap::new();
    for batch in log {
        for ev in batch {
            if let Some(d) = ev.domain() {
                if !name_ix.contains_key(d) {
                    name_ix.insert(d, names.len() as u64);
                    names.push(d);
                }
            }
        }
    }

    let mut out = Vec::new();
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    write_str(&mut out, SCHEMA);
    write_u64(&mut out, names.len() as u64);
    for n in &names {
        write_str(&mut out, n);
    }
    write_u64(&mut out, log.len() as u64);
    for batch in log {
        write_u64(&mut out, batch.len() as u64);
        for ev in batch {
            let id = |d: &str| name_ix.get(d).copied().unwrap_or(0);
            match ev {
                Event::MxSwap { domain } => {
                    out.push(TAG_MX_SWAP);
                    write_u64(&mut out, id(domain));
                }
                Event::MxPriorityChange { domain } => {
                    out.push(TAG_MX_PRIORITY);
                    write_u64(&mut out, id(domain));
                }
                Event::HostReIp { domain } => {
                    out.push(TAG_HOST_REIP);
                    write_u64(&mut out, id(domain));
                }
                Event::CertRotation { target } => {
                    out.push(TAG_CERT_ROTATION);
                    match target {
                        CertTarget::Domain(d) => {
                            out.push(TARGET_DOMAIN);
                            write_u64(&mut out, id(d));
                        }
                        CertTarget::Provider(p) => {
                            out.push(TARGET_PROVIDER);
                            write_u64(&mut out, u64::from(*p));
                        }
                    }
                }
                Event::ProviderMigration { domain, provider } => {
                    out.push(TAG_MIGRATION);
                    write_u64(&mut out, id(domain));
                    write_u64(&mut out, u64::from(*provider));
                }
                Event::ZoneDelete { domain } => {
                    out.push(TAG_ZONE_DELETE);
                    write_u64(&mut out, id(domain));
                }
                Event::DomainAdd { domain, spec } => {
                    out.push(TAG_DOMAIN_ADD);
                    write_u64(&mut out, id(domain));
                    match spec {
                        AddSpec::Provider(p) => {
                            out.push(ADD_PROVIDER);
                            write_u64(&mut out, u64::from(*p));
                        }
                        AddSpec::SelfHosted => out.push(ADD_SELF_HOSTED),
                        AddSpec::NoMail => out.push(ADD_NO_MAIL),
                    }
                }
            }
        }
    }
    out
}

// ---------------------------------------------------------------- decode

/// Bounds-checked cursor over untrusted log bytes: the store's cursor,
/// with its errors mapped onto [`DeltaError`].
struct Cur<'a>(format::Cur<'a>);

/// Map a store cursor error onto the log's error vocabulary.
fn wire(e: StoreError) -> DeltaError {
    match e {
        StoreError::Truncated => DeltaError::Truncated,
        StoreError::VarintOverflow => DeltaError::VarintOverflow,
        StoreError::BadUtf8 => DeltaError::BadUtf8,
        other => DeltaError::Store(other),
    }
}

impl<'a> Cur<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Cur(format::Cur::new(buf))
    }

    fn remaining(&self) -> usize {
        self.0.remaining()
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], DeltaError> {
        self.0.bytes(n).map_err(wire)
    }

    fn u8(&mut self) -> Result<u8, DeltaError> {
        self.0.u8().map_err(wire)
    }

    fn u16_le(&mut self) -> Result<u16, DeltaError> {
        let b = self.bytes(2)?;
        match b {
            [lo, hi] => Ok(u16::from_le_bytes([*lo, *hi])),
            _ => Err(DeltaError::Truncated),
        }
    }

    fn varint(&mut self) -> Result<u64, DeltaError> {
        self.0.varint().map_err(wire)
    }

    /// A count that bounds upcoming items: each item needs at least one
    /// byte, so a count beyond the remaining input is truncation, not
    /// an allocation request.
    fn count(&mut self) -> Result<usize, DeltaError> {
        let n = self.0.count().map_err(wire)?;
        if n > self.remaining() {
            return Err(DeltaError::Truncated);
        }
        Ok(n)
    }

    fn str(&mut self) -> Result<&'a str, DeltaError> {
        self.0.str().map_err(wire)
    }
}

/// Decode an `mx-delta/1` log back into a stream of event batches.
///
/// Every name in the interned table must parse as a DNS name and every
/// provider index must point into [`PROVIDERS`]; a decoded log is
/// therefore safe to apply without further validation.
pub fn decode_log(bytes: &[u8]) -> Result<Vec<Vec<Event>>, DeltaError> {
    let mut cur = Cur::new(bytes);
    if cur.bytes(4)? != MAGIC {
        return Err(DeltaError::BadMagic);
    }
    let version = cur.u16_le()?;
    if version != VERSION {
        return Err(DeltaError::UnsupportedVersion(version));
    }
    let flags = cur.u16_le()?;
    if flags != 0 {
        return Err(DeltaError::BadFlags(flags));
    }
    let schema = cur.str()?;
    if schema != SCHEMA {
        return Err(DeltaError::BadSchema(schema.to_string()));
    }

    // Counts come off the wire: never pre-size an allocation by them
    // (count() bounds them by the remaining input, but the discipline
    // is to let Vec grow as bytes are actually consumed).
    let name_count = cur.count()?;
    let mut names: Vec<String> = Vec::new();
    for _ in 0..name_count {
        let s = cur.str()?;
        if Name::parse(s).is_err() {
            return Err(DeltaError::BadName(s.to_string()));
        }
        names.push(s.to_string());
    }
    let name = |cur: &mut Cur<'_>, names: &[String]| -> Result<String, DeltaError> {
        let id = cur.varint()?;
        let ix = usize::try_from(id).map_err(|_| DeltaError::BadNameId(id))?;
        names
            .get(ix)
            .cloned()
            .ok_or(DeltaError::BadNameId(id))
    };
    let provider = |cur: &mut Cur<'_>| -> Result<u32, DeltaError> {
        let p = cur.varint()?;
        match u32::try_from(p) {
            Ok(ix) if (ix as usize) < PROVIDERS.len() => Ok(ix),
            _ => Err(DeltaError::BadProvider(p)),
        }
    };

    let batch_count = cur.count()?;
    let mut log: Vec<Vec<Event>> = Vec::new();
    for _ in 0..batch_count {
        let event_count = cur.count()?;
        let mut batch = Vec::new();
        for _ in 0..event_count {
            let tag = cur.u8()?;
            let ev = match tag {
                TAG_MX_SWAP => Event::MxSwap {
                    domain: name(&mut cur, &names)?,
                },
                TAG_MX_PRIORITY => Event::MxPriorityChange {
                    domain: name(&mut cur, &names)?,
                },
                TAG_HOST_REIP => Event::HostReIp {
                    domain: name(&mut cur, &names)?,
                },
                TAG_CERT_ROTATION => {
                    let kind = cur.u8()?;
                    let target = match kind {
                        TARGET_DOMAIN => CertTarget::Domain(name(&mut cur, &names)?),
                        TARGET_PROVIDER => CertTarget::Provider(provider(&mut cur)?),
                        other => return Err(DeltaError::UnknownTargetKind(other)),
                    };
                    Event::CertRotation { target }
                }
                TAG_MIGRATION => Event::ProviderMigration {
                    domain: name(&mut cur, &names)?,
                    provider: provider(&mut cur)?,
                },
                TAG_ZONE_DELETE => Event::ZoneDelete {
                    domain: name(&mut cur, &names)?,
                },
                TAG_DOMAIN_ADD => {
                    let domain = name(&mut cur, &names)?;
                    let kind = cur.u8()?;
                    let spec = match kind {
                        ADD_PROVIDER => AddSpec::Provider(provider(&mut cur)?),
                        ADD_SELF_HOSTED => AddSpec::SelfHosted,
                        ADD_NO_MAIL => AddSpec::NoMail,
                        other => return Err(DeltaError::UnknownAddKind(other)),
                    };
                    Event::DomainAdd { domain, spec }
                }
                other => return Err(DeltaError::UnknownTag(other)),
            };
            batch.push(ev);
        }
        log.push(batch);
    }
    if cur.remaining() != 0 {
        return Err(DeltaError::TrailingBytes);
    }
    Ok(log)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_log() -> Vec<Vec<Event>> {
        vec![
            vec![
                Event::MxSwap {
                    domain: "alpha.test".into(),
                },
                Event::CertRotation {
                    target: CertTarget::Provider(2),
                },
                Event::DomainAdd {
                    domain: "newcomer.test".into(),
                    spec: AddSpec::Provider(1),
                },
            ],
            vec![],
            vec![
                Event::HostReIp {
                    domain: "alpha.test".into(),
                },
                Event::ProviderMigration {
                    domain: "newcomer.test".into(),
                    provider: 0,
                },
                Event::ZoneDelete {
                    domain: "alpha.test".into(),
                },
                Event::MxPriorityChange {
                    domain: "newcomer.test".into(),
                },
                Event::CertRotation {
                    target: CertTarget::Domain("newcomer.test".into()),
                },
                Event::DomainAdd {
                    domain: "loner.test".into(),
                    spec: AddSpec::SelfHosted,
                },
                Event::DomainAdd {
                    domain: "web.test".into(),
                    spec: AddSpec::NoMail,
                },
            ],
        ]
    }

    #[test]
    fn roundtrip() {
        let log = sample_log();
        let bytes = encode_log(&log);
        assert_eq!(decode_log(&bytes).expect("decodes"), log);
    }

    #[test]
    fn names_are_interned_once() {
        let bytes = encode_log(&sample_log());
        let hay = String::from_utf8_lossy(&bytes);
        assert_eq!(hay.matches("alpha.test").count(), 1);
        assert_eq!(hay.matches("newcomer.test").count(), 1);
    }

    #[test]
    fn empty_log_roundtrips() {
        let bytes = encode_log(&[]);
        assert_eq!(decode_log(&bytes).expect("decodes"), Vec::<Vec<Event>>::new());
    }

    #[test]
    fn every_truncation_prefix_is_a_typed_error() {
        let bytes = encode_log(&sample_log());
        for n in 0..bytes.len() {
            let got = decode_log(&bytes[..n]);
            assert!(got.is_err(), "prefix of {n} bytes decoded");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = encode_log(&sample_log());
        bytes.push(0);
        assert_eq!(decode_log(&bytes), Err(DeltaError::TrailingBytes));
    }

    #[test]
    fn overflowing_varint_rejected() {
        // An empty log ends with its name and batch counts, one byte
        // each; swap them for a varint that runs past 64 bits.
        let mut bytes = encode_log(&[]);
        bytes.truncate(bytes.len() - 2);
        bytes.extend_from_slice(&[0xff; 9]);
        bytes.push(0x7f);
        assert_eq!(decode_log(&bytes), Err(DeltaError::VarintOverflow));
    }

    #[test]
    fn bad_provider_index_rejected() {
        let log = vec![vec![Event::CertRotation {
            target: CertTarget::Provider(9999),
        }]];
        let bytes = encode_log(&log);
        assert_eq!(decode_log(&bytes), Err(DeltaError::BadProvider(9999)));
    }
}
