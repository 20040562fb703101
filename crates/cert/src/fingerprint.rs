//! Content fingerprints (FNV-1a, 64-bit).
//!
//! A real pipeline would use SHA-256 certificate fingerprints; the role the
//! fingerprint plays in the methodology is only *identity* (deduplicating
//! certificates and keying certificate groups), for which a well-mixed
//! 64-bit hash over the canonical byte encoding is sufficient in a
//! simulation of this size.

use std::fmt;


const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over a byte slice.
pub fn fnv1a(data: &[u8]) -> u64 {
    fnv1a_chunks([data])
}

/// FNV-1a over the concatenation of `chunks`, without building it.
pub fn fnv1a_chunks<'a>(chunks: impl IntoIterator<Item = &'a [u8]>) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in chunks.into_iter().flatten() {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Keyed FNV-1a: the big-endian `seed`, then each of `parts` followed
/// by a NUL byte. The simulation's deterministic content-addressing
/// primitive (world generation and incremental measurement key every
/// coin and identity off it).
pub fn h64(seed: u64, parts: &[&str]) -> u64 {
    let seed = seed.to_be_bytes();
    let parts = parts.iter().flat_map(|p| [p.as_bytes(), b"\0".as_slice()]);
    fnv1a_chunks(std::iter::once(seed.as_slice()).chain(parts))
}

/// A 64-bit content fingerprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u64);

impl Fingerprint {
    /// Fingerprint a byte slice.
    pub fn of(data: &[u8]) -> Fingerprint {
        Fingerprint(fnv1a(data))
    }

    /// Combine with more data (chained hashing).
    pub fn chain(self, data: &[u8]) -> Fingerprint {
        let mut h = self.0;
        for &b in data {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        Fingerprint(h)
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn h64_hashes_the_nul_terminated_key() {
        let mut key = 7u64.to_be_bytes().to_vec();
        key.extend_from_slice(b"dom\x0042\x00");
        assert_eq!(h64(7, &["dom", "42"]), fnv1a(&key));
        assert_eq!(h64(7, &[]), fnv1a(&7u64.to_be_bytes()));
    }

    #[test]
    fn chain_equals_concat() {
        let direct = Fingerprint::of(b"hello world");
        let chained = Fingerprint::of(b"hello ").chain(b"world");
        assert_eq!(direct, chained);
    }

    #[test]
    fn distinct_inputs_distinct_outputs() {
        assert_ne!(Fingerprint::of(b"mx.google.com"), Fingerprint::of(b"mx.googie.com"));
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(Fingerprint(0xdeadbeef).to_string(), "00000000deadbeef");
    }
}
