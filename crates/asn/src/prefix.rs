//! IPv4 CIDR prefixes.

use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;


/// Errors constructing an [`Ipv4Prefix`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PrefixError {
    /// The prefix length exceeded 32.
    BadLength(u8),
    /// The address had host bits set below the prefix length.
    HostBitsSet(Ipv4Addr, u8),
    /// Could not parse the textual form.
    Parse(String),
}

impl fmt::Display for PrefixError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PrefixError::BadLength(l) => write!(f, "prefix length {l} > 32"),
            PrefixError::HostBitsSet(a, l) => write!(f, "host bits set in {a}/{l}"),
            PrefixError::Parse(s) => write!(f, "cannot parse prefix {s:?}"),
        }
    }
}

impl std::error::Error for PrefixError {}

/// A validated IPv4 CIDR prefix (network address + length).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ipv4Prefix {
    bits: u32,
    len: u8,
}

impl Ipv4Prefix {
    /// Construct, rejecting host bits below the mask.
    pub fn new(addr: Ipv4Addr, len: u8) -> Result<Self, PrefixError> {
        if len > 32 {
            return Err(PrefixError::BadLength(len));
        }
        let bits = u32::from(addr);
        let masked = mask(bits, len);
        if masked != bits {
            return Err(PrefixError::HostBitsSet(addr, len));
        }
        Ok(Ipv4Prefix { bits, len })
    }

    /// Construct, silently clearing host bits (the CAIDA data occasionally
    /// contains unmasked rows).
    pub fn new_truncating(addr: Ipv4Addr, len: u8) -> Result<Self, PrefixError> {
        if len > 32 {
            return Err(PrefixError::BadLength(len));
        }
        Ok(Ipv4Prefix {
            bits: mask(u32::from(addr), len),
            len,
        })
    }

    /// The default route `0.0.0.0/0`.
    pub fn default_route() -> Self {
        Ipv4Prefix { bits: 0, len: 0 }
    }

    /// Network address.
    pub fn network(&self) -> Ipv4Addr {
        Ipv4Addr::from(self.bits)
    }

    /// Prefix length.
    pub fn len(&self) -> u8 {
        self.len
    }

    /// Always false: a prefix denotes at least one address.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Number of addresses covered.
    pub fn size(&self) -> u64 {
        1u64 << (32 - self.len)
    }

    /// Does this prefix contain `addr`?
    pub fn contains(&self, addr: Ipv4Addr) -> bool {
        mask(u32::from(addr), self.len) == self.bits
    }

    /// Does this prefix fully contain `other`?
    pub fn covers(&self, other: &Ipv4Prefix) -> bool {
        self.len <= other.len && mask(other.bits, self.len) == self.bits
    }

    /// The `i`-th address within the prefix (for deterministic allocation).
    /// Panics if out of range.
    pub fn nth(&self, i: u64) -> Ipv4Addr {
        assert!(i < self.size(), "address index {i} out of {self}");
        Ipv4Addr::from(self.bits + i as u32)
    }

    /// Bit `i` (0 = most significant) of the network address.
    pub fn bit(&self, i: u8) -> bool {
        debug_assert!(i < 32);
        self.bits & (1 << (31 - i)) != 0
    }
}

fn mask(bits: u32, len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        bits & (u32::MAX << (32 - len))
    }
}

impl fmt::Display for Ipv4Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network(), self.len)
    }
}

impl FromStr for Ipv4Prefix {
    type Err = PrefixError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s
            .split_once('/')
            .ok_or_else(|| PrefixError::Parse(s.to_string()))?;
        let addr: Ipv4Addr = addr
            .parse()
            .map_err(|_| PrefixError::Parse(s.to_string()))?;
        let len: u8 = len.parse().map_err(|_| PrefixError::Parse(s.to_string()))?;
        Ipv4Prefix::new(addr, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_display_roundtrip() {
        let p: Ipv4Prefix = "192.0.2.0/24".parse().unwrap();
        assert_eq!(p.to_string(), "192.0.2.0/24");
        assert_eq!(p.len(), 24);
        assert_eq!(p.size(), 256);
    }

    #[test]
    fn rejects_host_bits() {
        assert!(matches!(
            "192.0.2.1/24".parse::<Ipv4Prefix>(),
            Err(PrefixError::HostBitsSet(_, 24))
        ));
        let p = Ipv4Prefix::new_truncating("192.0.2.99".parse().unwrap(), 24).unwrap();
        assert_eq!(p.to_string(), "192.0.2.0/24");
    }

    #[test]
    fn rejects_bad_length() {
        assert!(matches!(
            Ipv4Prefix::new(Ipv4Addr::UNSPECIFIED, 33),
            Err(PrefixError::BadLength(33))
        ));
    }

    #[test]
    fn contains() {
        let p: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
        assert!(p.contains("10.255.1.2".parse().unwrap()));
        assert!(!p.contains("11.0.0.0".parse().unwrap()));
        let host: Ipv4Prefix = "10.1.2.3/32".parse().unwrap();
        assert!(host.contains("10.1.2.3".parse().unwrap()));
        assert!(!host.contains("10.1.2.4".parse().unwrap()));
    }

    #[test]
    fn default_route_contains_all() {
        let d = Ipv4Prefix::default_route();
        assert!(d.contains("0.0.0.0".parse().unwrap()));
        assert!(d.contains("255.255.255.255".parse().unwrap()));
        assert_eq!(d.size(), 1 << 32);
    }

    #[test]
    fn covers() {
        let a: Ipv4Prefix = "10.0.0.0/8".parse().unwrap();
        let b: Ipv4Prefix = "10.2.0.0/16".parse().unwrap();
        assert!(a.covers(&b));
        assert!(!b.covers(&a));
        assert!(a.covers(&a));
    }

    #[test]
    fn nth_allocation() {
        let p: Ipv4Prefix = "198.51.100.0/24".parse().unwrap();
        assert_eq!(p.nth(0), "198.51.100.0".parse::<Ipv4Addr>().unwrap());
        assert_eq!(p.nth(255), "198.51.100.255".parse::<Ipv4Addr>().unwrap());
    }

    #[test]
    #[should_panic(expected = "out of")]
    fn nth_out_of_range_panics() {
        let p: Ipv4Prefix = "198.51.100.0/24".parse().unwrap();
        p.nth(256);
    }

    #[test]
    fn bit_indexing() {
        let p: Ipv4Prefix = "128.0.0.0/1".parse().unwrap();
        assert!(p.bit(0));
        let q: Ipv4Prefix = "64.0.0.0/2".parse().unwrap();
        assert!(!q.bit(0));
        assert!(q.bit(1));
    }
}
