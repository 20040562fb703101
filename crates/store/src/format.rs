//! Framing constants and the bounds-checked read cursor.
//!
//! Everything the reader pulls out of a store file goes through
//! [`Cur`]: every access is bounds-checked and returns a typed
//! [`StoreError`](crate::StoreError) — the decoder never panics on
//! malformed bytes, however they were corrupted.

use crate::varint::MAX_VARINT_LEN;
use crate::StoreError;

/// File magic, the first four bytes of every store file.
pub const MAGIC: &[u8; 4] = b"MXST";

/// Format version encoded in the fixed header (little-endian u16).
pub const VERSION: u16 = 2;

/// Schema identifier string, written right after the fixed header and
/// checked on open. Version bumps rename this string.
pub const SCHEMA: &str = "mx-store/2";

/// Row-entry prefix compression restarts (a full name is written) every
/// this many entries; restart rows anchor the reader's block index.
/// Sized by measurement (see DESIGN §12): 16 keeps point-lookup block
/// walks ≤ 8 entries on average while costing < 4% file size over 32.
pub const RESTART_INTERVAL: usize = 16;

/// Credit kind byte in rollup/digest entries: the id indexes the
/// company table.
pub const CREDIT_COMPANY: u8 = 0;
/// Credit kind byte in rollup/digest entries: the id indexes the
/// provider table (long-tail provider with no mapped company).
pub const CREDIT_PROVIDER: u8 = 1;

/// Digest flag bit: the domain has a live primary SMTP server.
pub const DIGEST_SMTP: u8 = 1;
/// Digest flag bit: the row is self-hosted (provider equals the
/// domain's registered domain; computed by the writer, PSL-backed).
pub const DIGEST_SELF_HOSTED: u8 = 1 << 1;
/// Digest flag bit: the row has at least one share, so a dominant
/// credit (kind bit + trailing id varint) follows.
pub const DIGEST_HAS_CREDIT: u8 = 1 << 2;
/// Digest flag bit: the dominant credit kind (set = provider,
/// clear = company). Only valid with [`DIGEST_HAS_CREDIT`].
pub const DIGEST_CREDIT_PROVIDER: u8 = 1 << 3;
/// All valid digest flag bits.
pub const DIGEST_FLAGS_MASK: u8 =
    DIGEST_SMTP | DIGEST_SELF_HOSTED | DIGEST_HAS_CREDIT | DIGEST_CREDIT_PROVIDER;

/// Entry tag: a row whose domain has no live primary SMTP server.
pub const TAG_ROW: u8 = 0;
/// Entry tag: a row whose domain has a live primary SMTP server.
pub const TAG_ROW_SMTP: u8 = 1;
/// Entry tag: a delta-epoch removal (the domain left the dataset).
pub const TAG_REMOVE: u8 = 2;

/// Epoch kind byte: a base (full) snapshot.
pub const KIND_BASE: u8 = 0;
/// Epoch kind byte: a delta against the resolved previous epoch.
pub const KIND_DELTA: u8 = 1;

/// Sidecar IP flag bit: data captured after a failed attempt.
pub const SIDE_RECOVERED: u8 = 1;
/// Sidecar IP flag bit: every attempt failed.
pub const SIDE_EXHAUSTED: u8 = 1 << 1;
/// Sidecar IP flag bit: owner opt-out, never attempted.
pub const SIDE_BLOCKED: u8 = 1 << 2;
/// All valid sidecar IP flag bits.
pub const SIDE_FLAGS_MASK: u8 = SIDE_RECOVERED | SIDE_EXHAUSTED | SIDE_BLOCKED;

/// Highest valid sidecar fault code (`0` = none, `1..=6` = fault kinds).
pub const FAULT_CODE_MAX: u8 = 6;

/// Highest valid share source code (`0` = cert, `1` = banner, `2` = MX).
pub const SOURCE_CODE_MAX: u8 = 2;

/// Convert a wire-decoded `u64` count/length to `usize`, failing (on a
/// 32-bit host) instead of wrapping.
pub fn to_usize(v: u64) -> Result<usize, StoreError> {
    usize::try_from(v).map_err(|_overflow| StoreError::VarintOverflow)
}

/// A bounds-checked cursor over untrusted store bytes.
#[derive(Clone)]
pub struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Cur { buf, pos: 0 }
    }

    /// Current byte offset from the start of the buffer.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, StoreError> {
        let b = *self.buf.get(self.pos).ok_or(StoreError::Truncated)?;
        self.pos = self.pos.checked_add(1).ok_or(StoreError::Truncated)?;
        Ok(b)
    }

    /// Read exactly `n` bytes as a slice of the underlying buffer.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self.pos.checked_add(n).ok_or(StoreError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(StoreError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    /// Read an LEB128 varint. Rejects encodings that overflow 64 bits
    /// (including over-long 10-byte forms with high bits set).
    pub fn varint(&mut self) -> Result<u64, StoreError> {
        let mut acc: u64 = 0;
        let mut shift: u32 = 0;
        for _idx in 0..MAX_VARINT_LEN {
            let b = self.u8()?;
            let low = (b & 0x7f) as u64;
            if shift == 63 && low > 1 {
                return Err(StoreError::VarintOverflow);
            }
            acc |= low << shift;
            if b & 0x80 == 0 {
                return Ok(acc);
            }
            shift = shift.saturating_add(7);
        }
        Err(StoreError::VarintOverflow)
    }

    /// Read a varint-length-prefixed UTF-8 string slice.
    pub fn str(&mut self) -> Result<&'a str, StoreError> {
        let n = to_usize(self.varint()?)?;
        let raw = self.bytes(n)?;
        std::str::from_utf8(raw).map_err(|_utf8| StoreError::BadUtf8)
    }

    /// Read a varint-decoded `usize` (count or length).
    pub fn count(&mut self) -> Result<usize, StoreError> {
        to_usize(self.varint()?)
    }
}

/// Append a varint-length-prefixed string.
pub fn write_str(out: &mut Vec<u8>, s: &str) {
    crate::varint::write_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Encode an optional acquisition fault as a sidecar code.
pub fn fault_code(f: Option<mx_acq::AcqFault>) -> u8 {
    use mx_acq::AcqFault::*;
    match f {
        None => 0,
        Some(Transient) => 1,
        Some(DropAfterBanner) => 2,
        Some(EhloTarpit) => 3,
        Some(TlsHandshake) => 4,
        Some(GarbledBanner) => 5,
        Some(Dns) => 6,
    }
}

/// Decode a sidecar fault code.
pub fn fault_from_code(c: u8) -> Result<Option<mx_acq::AcqFault>, StoreError> {
    use mx_acq::AcqFault::*;
    match c {
        0 => Ok(None),
        1 => Ok(Some(Transient)),
        2 => Ok(Some(DropAfterBanner)),
        3 => Ok(Some(EhloTarpit)),
        4 => Ok(Some(TlsHandshake)),
        5 => Ok(Some(GarbledBanner)),
        6 => Ok(Some(Dns)),
        other => Err(StoreError::BadFault(other)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cursor_bounds() {
        let mut c = Cur::new(&[1, 2, 3]);
        assert_eq!(c.u8().unwrap(), 1);
        assert_eq!(c.bytes(2).unwrap(), &[2, 3]);
        assert_eq!(c.u8(), Err(StoreError::Truncated));
        assert_eq!(c.bytes(1), Err(StoreError::Truncated));
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn overlong_varint_rejected() {
        // Eleven continuation bytes: too long for any u64.
        let buf = [0x80u8; 11];
        assert_eq!(Cur::new(&buf).varint(), Err(StoreError::VarintOverflow));
        // Ten bytes whose top digit overflows 64 bits.
        let mut over = [0x80u8; 10];
        over[9] = 0x02;
        assert_eq!(Cur::new(&over).varint(), Err(StoreError::VarintOverflow));
    }

    #[test]
    fn string_utf8_checked() {
        let mut buf = Vec::new();
        write_str(&mut buf, "héllo.test");
        let mut c = Cur::new(&buf);
        assert_eq!(c.str().unwrap(), "héllo.test");
        let bad = [2u8, 0xff, 0xfe];
        assert_eq!(Cur::new(&bad).str(), Err(StoreError::BadUtf8));
    }
}
