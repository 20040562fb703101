//! DNS wire-format primitives: a cursor-based reader and writer with RFC
//! 1035 §4.1.4 name compression on both paths.

use std::fmt;
use std::net::{Ipv4Addr, Ipv6Addr};

use crate::name::{Name, NameBuilder, NameError, MAX_LABEL_LEN};

/// Hard cap on a DNS message we will produce or accept. Generous enough for
/// any simulated response while still bounding memory.
pub const MAX_MESSAGE_LEN: usize = 16 * 1024;

/// Errors while encoding or decoding wire data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Read past the end of the buffer.
    Truncated,
    /// A compression pointer pointed forward or formed a loop.
    BadPointer,
    /// A label length octet used the reserved 0b10/0b01 prefixes.
    BadLabelLength(u8),
    /// Name-level validation failed (too long, bad bytes).
    BadName(NameError),
    /// RDLENGTH disagreed with the actual RDATA encoding.
    BadRdLength {
        /// The RDLENGTH value from the wire.
        declared: u16,
        /// Bytes the RDATA decode actually consumed.
        actual: usize,
    },
    /// A TXT character-string exceeded 255 bytes.
    StringTooLong(usize),
    /// Message exceeded [`MAX_MESSAGE_LEN`] while encoding.
    MessageTooLong,
    /// Trailing bytes after a complete message (strict decode).
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated message"),
            WireError::BadPointer => write!(f, "bad compression pointer"),
            WireError::BadLabelLength(b) => write!(f, "reserved label length {b:#04x}"),
            WireError::BadName(e) => write!(f, "invalid name: {e}"),
            WireError::BadRdLength { declared, actual } => {
                write!(f, "RDLENGTH {declared} != actual {actual}")
            }
            WireError::StringTooLong(n) => write!(f, "character-string of {n} bytes"),
            WireError::MessageTooLong => write!(f, "message exceeds {MAX_MESSAGE_LEN} bytes"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<NameError> for WireError {
    fn from(e: NameError) -> Self {
        WireError::BadName(e)
    }
}

/// Wire writer with name compression.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
    /// Right-to-left buffers (see [`Name`]) of the names whose suffixes
    /// were registered for compression, back to back.
    seen: Vec<u8>,
    /// Registered suffixes, each a prefix `seen[start..end]` of a name's
    /// right-to-left buffer, first encoded at message offset `at`.
    suffixes: Vec<CompressTarget>,
}

/// One name suffix a later name may point to.
#[derive(Debug, Clone, Copy)]
struct CompressTarget {
    start: usize,
    end: usize,
    at: u16,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        // Sized for a classic 512-byte UDP message and the handful of
        // names a simulated response carries, so encoding rarely grows.
        WireWriter {
            buf: Vec::with_capacity(512),
            seen: Vec::with_capacity(128),
            suffixes: Vec::with_capacity(16),
        }
    }

    /// Current length of the encoded buffer.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consume the writer, returning the bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    fn check_len(&self) -> Result<(), WireError> {
        if self.buf.len() > MAX_MESSAGE_LEN {
            Err(WireError::MessageTooLong)
        } else {
            Ok(())
        }
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) -> Result<(), WireError> {
        self.buf.push(v);
        self.check_len()
    }

    /// Append a big-endian u16.
    pub fn put_u16(&mut self, v: u16) -> Result<(), WireError> {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self.check_len()
    }

    /// Append a big-endian u32.
    pub fn put_u32(&mut self, v: u32) -> Result<(), WireError> {
        self.buf.extend_from_slice(&v.to_be_bytes());
        self.check_len()
    }

    /// Append raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) -> Result<(), WireError> {
        self.buf.extend_from_slice(v);
        self.check_len()
    }

    /// Append an IPv4 address (4 bytes).
    pub fn put_ipv4(&mut self, a: Ipv4Addr) -> Result<(), WireError> {
        self.put_bytes(&a.octets())
    }

    /// Append an IPv6 address (16 bytes).
    pub fn put_ipv6(&mut self, a: Ipv6Addr) -> Result<(), WireError> {
        self.put_bytes(&a.octets())
    }

    /// A `<character-string>`: one length octet then up to 255 bytes.
    pub fn put_char_string(&mut self, s: &str) -> Result<(), WireError> {
        let b = s.as_bytes();
        let len = u8::try_from(b.len()).map_err(|_| WireError::StringTooLong(b.len()))?;
        self.put_u8(len)?;
        self.put_bytes(b)
    }

    /// One length-prefixed label. Decoded names may carry a label that
    /// lossy UTF-8 conversion stretched past 63 bytes, so the limit is
    /// checked here rather than assumed.
    fn put_label(&mut self, label: &[u8]) -> Result<(), WireError> {
        let len = u8::try_from(label.len())
            .ok()
            .filter(|&l| usize::from(l) <= MAX_LABEL_LEN)
            .ok_or_else(|| {
                WireError::BadName(NameError::LabelTooLong(
                    String::from_utf8_lossy(label).into_owned(),
                ))
            })?;
        self.put_u8(len)?;
        self.put_bytes(label)
    }

    /// The message offset of an already-encoded name suffix equal to
    /// `suffix` (a right-to-left buffer).
    fn find_suffix(&self, suffix: &[u8]) -> Option<u16> {
        self.suffixes
            .iter()
            .find(|t| self.seen.get(t.start..t.end) == Some(suffix))
            .map(|t| t.at)
    }

    /// Encode a name, emitting a compression pointer to the longest
    /// already-encoded suffix when possible and registering new suffixes.
    pub fn put_name(&mut self, name: &Name) -> Result<(), WireError> {
        let rev = name.rev_wire();
        let base = self.seen.len();
        let mut registered = false;
        // Suffixes of the name are prefixes of its right-to-left buffer:
        // walk them from the whole name towards the root, emitting the
        // label that separates each from the next.
        let mut ancestors = name.ancestors().map(|a| a.0);
        let mut suffix = ancestors.next().unwrap_or_default();
        for parent in ancestors {
            if let Some(off) = self.find_suffix(suffix) {
                // Pointers must fit in 14 bits; only offsets < 0x4000 are
                // ever registered below.
                return self.put_u16(0xC000 | off);
            }
            if let Some(here) = u16::try_from(self.buf.len()).ok().filter(|&h| h < 0x4000) {
                if !registered {
                    self.seen.extend_from_slice(rev);
                    registered = true;
                }
                let end = base
                    .checked_add(suffix.len())
                    .ok_or(WireError::MessageTooLong)?;
                self.suffixes.push(CompressTarget {
                    start: base,
                    end,
                    at: here,
                });
            }
            let label = suffix
                .get(parent.len()..)
                .and_then(|l| l.get(1..))
                .ok_or(WireError::Truncated)?;
            self.put_label(label)?;
            suffix = parent;
        }
        self.put_u8(0) // root label
    }

    /// Encode a name with no compression (used inside RDATA where some
    /// implementations choke on pointers; our SOA/MX use compression, which
    /// RFC 1035 permits for well-known types, but TXT-like blobs must not).
    pub fn put_name_uncompressed(&mut self, name: &Name) -> Result<(), WireError> {
        for label in name.labels() {
            self.put_label(label.as_bytes())?;
        }
        self.put_u8(0)
    }

    /// Reserve a u16 slot (e.g. RDLENGTH), returning its offset for
    /// [`WireWriter::patch_u16`].
    pub fn reserve_u16(&mut self) -> Result<usize, WireError> {
        let off = self.buf.len();
        self.put_u16(0)?;
        Ok(off)
    }

    /// Back-patch a previously reserved u16. Fails if the slot was never
    /// reserved (offset out of range).
    pub fn patch_u16(&mut self, offset: usize, v: u16) -> Result<(), WireError> {
        let slot = self
            .buf
            .get_mut(offset..offset + 2)
            .ok_or(WireError::Truncated)?;
        slot.copy_from_slice(&v.to_be_bytes());
        Ok(())
    }
}

/// Wire reader over a full message (needed for pointer resolution).
#[derive(Debug)]
pub struct WireReader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over a full message buffer.
    pub fn new(data: &'a [u8]) -> Self {
        WireReader { data, pos: 0 }
    }

    /// Current cursor position.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes remaining after the cursor.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        let v = *self.data.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(v)
    }

    /// Read a big-endian u16.
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        let b: [u8; 2] = self
            .get_bytes(2)?
            .try_into()
            .map_err(|_| WireError::Truncated)?;
        Ok(u16::from_be_bytes(b))
    }

    /// Read a big-endian u32.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        let b: [u8; 4] = self
            .get_bytes(4)?
            .try_into()
            .map_err(|_| WireError::Truncated)?;
        Ok(u32::from_be_bytes(b))
    }

    /// Read `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let b = self.data.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(b)
    }

    /// Read an IPv4 address (4 bytes).
    pub fn get_ipv4(&mut self) -> Result<Ipv4Addr, WireError> {
        let b: [u8; 4] = self
            .get_bytes(4)?
            .try_into()
            .map_err(|_| WireError::Truncated)?;
        Ok(Ipv4Addr::from(b))
    }

    /// Read an IPv6 address (16 bytes).
    pub fn get_ipv6(&mut self) -> Result<Ipv6Addr, WireError> {
        let b = self.get_bytes(16)?;
        let mut o = [0u8; 16];
        o.copy_from_slice(b);
        Ok(Ipv6Addr::from(o))
    }

    /// Read a `<character-string>` (length octet + bytes).
    pub fn get_char_string(&mut self) -> Result<String, WireError> {
        let len = self.get_u8()? as usize;
        let b = self.get_bytes(len)?;
        // DNS character-strings are bytes; we keep them lossily as UTF-8.
        Ok(String::from_utf8_lossy(b).into_owned())
    }

    /// Decode a possibly-compressed name starting at the cursor. Pointers
    /// must point strictly backwards, which also bounds the loop.
    ///
    /// Label bytes are read as lossy UTF-8 and ASCII-lower-cased. A name
    /// over the 255-byte limit is reported only once the walk ends, so
    /// truncation and pointer errors keep precedence.
    pub fn get_name(&mut self) -> Result<Name, WireError> {
        let mut name = NameBuilder::new();
        let mut labels = 0usize;
        let mut pos = self.pos;
        let mut jumped = false;
        let mut end_pos = self.pos; // cursor after the in-line part
        let mut min_ptr = self.data.len(); // each pointer must decrease
        loop {
            let len = *self.data.get(pos).ok_or(WireError::Truncated)?;
            match len & 0xC0 {
                0x00 => {
                    pos += 1;
                    if len == 0 {
                        if !jumped {
                            end_pos = pos;
                        }
                        break;
                    }
                    let end = pos
                        .checked_add(usize::from(len))
                        .ok_or(WireError::Truncated)?;
                    let b = self.data.get(pos..end).ok_or(WireError::Truncated)?;
                    pos = end;
                    if !jumped {
                        end_pos = pos;
                    }
                    name.append_label(String::from_utf8_lossy(b).as_bytes());
                    labels += 1;
                    if labels > 128 {
                        return Err(WireError::BadName(NameError::NameTooLong));
                    }
                }
                0xC0 => {
                    let b2 = *self.data.get(pos + 1).ok_or(WireError::Truncated)?;
                    if !jumped {
                        end_pos = pos + 2;
                    }
                    let target = (usize::from(len & 0x3F) << 8) | usize::from(b2);
                    if target >= min_ptr || target >= pos {
                        return Err(WireError::BadPointer);
                    }
                    min_ptr = target;
                    pos = target;
                    jumped = true;
                }
                other => return Err(WireError::BadLabelLength(other)),
            }
        }
        self.pos = end_pos;
        name.to_name().map_err(WireError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dns_name;

    #[test]
    fn scalar_roundtrip() {
        let mut w = WireWriter::new();
        w.put_u8(7).unwrap();
        w.put_u16(0xBEEF).unwrap();
        w.put_u32(0xDEADBEEF).unwrap();
        w.put_ipv4("10.1.2.3".parse().unwrap()).unwrap();
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u16().unwrap(), 0xBEEF);
        assert_eq!(r.get_u32().unwrap(), 0xDEADBEEF);
        assert_eq!(r.get_ipv4().unwrap(), "10.1.2.3".parse::<Ipv4Addr>().unwrap());
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn name_roundtrip_uncompressed() {
        let mut w = WireWriter::new();
        w.put_name(&dns_name!("mx1.provider.com")).unwrap();
        let bytes = w.into_bytes();
        assert_eq!(bytes[0], 3); // "mx1"
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_name().unwrap(), dns_name!("mx1.provider.com"));
    }

    #[test]
    fn compression_emits_pointer_and_decodes() {
        let mut w = WireWriter::new();
        w.put_name(&dns_name!("mx1.provider.com")).unwrap();
        let first_len = w.len();
        w.put_name(&dns_name!("mx2.provider.com")).unwrap();
        let bytes = w.into_bytes();
        // Second name: 1 len + 3 bytes "mx2" + 2-byte pointer = 6 bytes.
        assert_eq!(bytes.len() - first_len, 6);
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_name().unwrap(), dns_name!("mx1.provider.com"));
        assert_eq!(r.get_name().unwrap(), dns_name!("mx2.provider.com"));
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn identical_name_is_a_pure_pointer() {
        let mut w = WireWriter::new();
        w.put_name(&dns_name!("a.example.com")).unwrap();
        let first = w.len();
        w.put_name(&dns_name!("a.example.com")).unwrap();
        let bytes = w.into_bytes();
        assert_eq!(bytes.len() - first, 2);
        let mut r = WireReader::new(&bytes);
        r.get_name().unwrap();
        assert_eq!(r.get_name().unwrap(), dns_name!("a.example.com"));
    }

    #[test]
    fn root_name() {
        let mut w = WireWriter::new();
        w.put_name(&Name::root()).unwrap();
        let bytes = w.into_bytes();
        assert_eq!(bytes, vec![0]);
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_name().unwrap(), Name::root());
    }

    #[test]
    fn forward_pointer_rejected() {
        // Pointer to offset 2 from offset 0: forward -> invalid.
        let bytes = [0xC0, 0x02, 0x00];
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_name().unwrap_err(), WireError::BadPointer);
    }

    #[test]
    fn pointer_loop_rejected() {
        // name at 0: label "a" then pointer to itself at 0 -> loop.
        let bytes = [0x01, b'a', 0xC0, 0x00];
        let mut r = WireReader::new(&bytes);
        assert!(matches!(
            r.get_name().unwrap_err(),
            WireError::BadPointer | WireError::BadName(_)
        ));
    }

    #[test]
    fn reserved_label_bits_rejected() {
        let bytes = [0x80, 0x01];
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_name().unwrap_err(), WireError::BadLabelLength(0x80));
    }

    #[test]
    fn truncated_name_rejected() {
        let bytes = [0x05, b'a', b'b'];
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.get_name().unwrap_err(), WireError::Truncated);
    }

    #[test]
    fn char_string_roundtrip() {
        let mut w = WireWriter::new();
        w.put_char_string("v=spf1 include:_spf.google.com ~all").unwrap();
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(
            r.get_char_string().unwrap(),
            "v=spf1 include:_spf.google.com ~all"
        );
    }

    #[test]
    fn char_string_too_long() {
        let mut w = WireWriter::new();
        let s = "x".repeat(256);
        assert_eq!(
            w.put_char_string(&s).unwrap_err(),
            WireError::StringTooLong(256)
        );
    }

    #[test]
    fn patch_u16() {
        let mut w = WireWriter::new();
        let slot = w.reserve_u16().unwrap();
        w.put_u32(1).unwrap();
        assert_eq!(w.patch_u16(slot, 0x1234), Ok(()));
        let bytes = w.into_bytes();
        assert_eq!(&bytes[0..2], &[0x12, 0x34]);
    }

    #[test]
    fn names_after_pointer_keep_cursor() {
        // Encode two names, decode them, then a trailing u16 must still be
        // readable at the right position.
        let mut w = WireWriter::new();
        w.put_name(&dns_name!("example.com")).unwrap();
        w.put_name(&dns_name!("mail.example.com")).unwrap();
        w.put_u16(0xAAAA).unwrap();
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        r.get_name().unwrap();
        r.get_name().unwrap();
        assert_eq!(r.get_u16().unwrap(), 0xAAAA);
    }
}
