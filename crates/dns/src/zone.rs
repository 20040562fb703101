//! Authoritative zone data and lookup semantics.
//!
//! Implements the parts of RFC 1034 §4.3.2 the measurement needs done
//! *right*: the NXDOMAIN vs NODATA distinction (Table 4 of the paper
//! separates "no MX IP" cases, which requires faithful negative answers),
//! CNAME processing at a node, wildcard synthesis, and delegation
//! (referral) when a query falls below a delegated child.

use std::collections::BTreeMap;
use std::ops::Bound;

use crate::name::{is_ancestor_rev, Name, NameKey, NameRef, MAX_NAME_LEN};
use crate::rr::{RData, Record, RecordType, Soa};

/// Outcome of looking a (name, type) up in a single zone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ZoneLookup {
    /// Records of the requested type exist at the name (possibly
    /// synthesised from a wildcard).
    Answer(Vec<Record>),
    /// The name exists (or matched a wildcard) and owns a CNAME; the chain
    /// element is returned and the caller restarts at the target.
    Cname(Record),
    /// The name exists but has no records of the requested type.
    NoData,
    /// The name does not exist in the zone.
    NxDomain,
    /// The name lies below a delegation; NS records of the child zone cut.
    Referral(Vec<Record>),
    /// The name is not within this zone at all.
    OutOfZone,
}

/// An authoritative zone: an origin, a SOA and a set of records.
#[derive(Debug, Clone)]
pub struct Zone {
    origin: Name,
    soa: Soa,
    soa_ttl: u32,
    /// All records, keyed by owner name (absolute).
    records: BTreeMap<Name, Vec<Record>>,
}

impl Zone {
    /// Create an empty zone with a generated SOA.
    pub fn new(origin: Name) -> Zone {
        let mname = origin.child("ns1").unwrap_or_else(|_| origin.clone());
        let rname = origin
            .child("hostmaster")
            .unwrap_or_else(|_| origin.clone());
        Zone {
            origin,
            soa: Soa {
                mname,
                rname,
                serial: 1,
                refresh: 7200,
                retry: 900,
                expire: 1_209_600,
                minimum: 300,
            },
            soa_ttl: 3600,
            records: BTreeMap::new(),
        }
    }

    /// The zone origin.
    pub fn origin(&self) -> &Name {
        &self.origin
    }

    /// The zone's SOA data.
    pub fn soa(&self) -> &Soa {
        &self.soa
    }

    /// The SOA as a record (used in negative-answer authority sections).
    pub fn soa_record(&self) -> Record {
        Record::new(self.origin.clone(), self.soa_ttl, RData::Soa(self.soa.clone()))
    }

    /// Negative-caching TTL (RFC 2308: min(SOA TTL, SOA.minimum)).
    pub fn negative_ttl(&self) -> u32 {
        self.soa_ttl.min(self.soa.minimum)
    }

    /// Replace the SOA data (used by the master-file parser).
    pub fn set_soa(&mut self, soa: Soa) {
        self.soa = soa;
    }

    /// Add a record. Panics if the owner is outside the zone — generator
    /// bugs should fail loudly.
    pub fn add(&mut self, record: Record) {
        assert!(
            record.name.is_subdomain_of(&self.origin),
            "record {} outside zone {}",
            record.name,
            self.origin
        );
        self.records.entry(record.name.clone()).or_default().push(record);
    }

    /// Convenience: add an A/MX/CNAME/etc. by parts.
    pub fn add_rr(&mut self, name: Name, ttl: u32, rdata: RData) {
        self.add(Record::new(name, ttl, rdata));
    }

    /// Remove all records at `name` of type `rtype`; returns removed count.
    pub fn remove(&mut self, name: &Name, rtype: RecordType) -> usize {
        match self.records.get_mut(name) {
            None => 0,
            Some(v) => {
                let before = v.len();
                v.retain(|r| r.rtype() != rtype);
                let removed = before - v.len();
                if v.is_empty() {
                    self.records.remove(name);
                }
                removed
            }
        }
    }

    /// Total record count (excluding the implicit SOA).
    pub fn record_count(&self) -> usize {
        self.records.values().map(Vec::len).sum()
    }

    /// Iterate all records.
    pub fn iter(&self) -> impl Iterator<Item = &Record> {
        self.records.values().flatten()
    }

    /// Raw records of one type at one owner, ignoring delegation cuts —
    /// used for glue fetching (glue A records live *below* the cut that
    /// would otherwise turn the lookup into a referral).
    pub fn records_at(&self, name: &Name, rtype: RecordType) -> impl Iterator<Item = &Record> {
        self.records
            .get(name)
            .into_iter()
            .flatten()
            .filter(move |r| r.rtype() == rtype)
    }

    /// Does any name exist at or below `name`? (Controls NXDOMAIN vs the
    /// empty-non-terminal case.)
    fn exists(&self, name: NameRef<'_>) -> bool {
        // Canonical order puts a name's descendants right after it, so
        // the first stored name at or after `name` decides.
        self.records
            .range::<dyn NameKey, _>((Bound::Included(name.key()), Bound::Unbounded))
            .next()
            .is_some_and(|(n, _)| is_ancestor_rev(name.0, n.rev_wire()))
    }

    /// Find the closest delegation point strictly between origin and name.
    fn delegation_for(&self, name: &Name) -> Option<Vec<Record>> {
        // Ancestors of `name` strictly below the origin, checked top-down
        // from just below the origin to `name` itself (NS at the queried
        // name is a referral too; the origin is excluded by the caller).
        let origin_len = self.origin.rev_wire().len();
        name.ancestors()
            .rev()
            .filter(|s| s.0.len() > origin_len)
            .find_map(|s| {
                let ns: Vec<Record> = self
                    .records
                    .get(s.key())?
                    .iter()
                    .filter(|r| r.rtype() == RecordType::Ns)
                    .cloned()
                    .collect();
                (!ns.is_empty()).then_some(ns)
            })
    }

    /// Look up (name, rtype) per RFC 1034 §4.3.2.
    pub fn lookup(&self, name: &Name, rtype: RecordType) -> ZoneLookup {
        if !name.is_subdomain_of(&self.origin) {
            return ZoneLookup::OutOfZone;
        }
        // Delegations first: anything at/below a zone cut is referred,
        // except queries at the origin itself.
        if name != &self.origin {
            if let Some(ns) = self.delegation_for(name) {
                return ZoneLookup::Referral(ns);
            }
        }
        if let Some(rs) = self.records.get(name) {
            // CNAME handling: if the node owns a CNAME and the query is not
            // for CNAME/ANY, return the chain element.
            let cname = rs.iter().find(|r| r.rtype() == RecordType::Cname);
            if let Some(c) = cname {
                if rtype != RecordType::Cname && rtype != RecordType::Any {
                    return ZoneLookup::Cname(c.clone());
                }
            }
            let matched: Vec<Record> = rs
                .iter()
                .filter(|r| rtype == RecordType::Any || r.rtype() == rtype)
                .cloned()
                .collect();
            if !matched.is_empty() {
                return ZoneLookup::Answer(matched);
            }
            return ZoneLookup::NoData;
        }
        if self.exists(NameRef(name.rev_wire())) {
            // Empty non-terminal.
            return ZoneLookup::NoData;
        }
        // Wildcard synthesis: the closest encloser's `*` child, per RFC
        // 1034/4592, applies only if the query name does not exist.
        if let Some(rs) = self.closest_wildcard(name) {
            let cname = rs.iter().find(|r| r.rtype() == RecordType::Cname);
            if let Some(c) = cname {
                if rtype != RecordType::Cname && rtype != RecordType::Any {
                    let mut synth = c.clone();
                    synth.name = name.clone();
                    return ZoneLookup::Cname(synth);
                }
            }
            let matched: Vec<Record> = rs
                .iter()
                .filter(|r| rtype == RecordType::Any || r.rtype() == rtype)
                .map(|r| {
                    let mut synth = r.clone();
                    synth.name = name.clone();
                    synth
                })
                .collect();
            if !matched.is_empty() {
                return ZoneLookup::Answer(matched);
            }
            return ZoneLookup::NoData;
        }
        ZoneLookup::NxDomain
    }

    /// The records of the wildcard owner that would synthesise answers
    /// for `name`: `*.<closest-encloser>` where the closest encloser is
    /// the longest existing ancestor of `name`.
    fn closest_wildcard(&self, name: &Name) -> Option<&Vec<Record>> {
        let mut buf = [0u8; MAX_NAME_LEN];
        for ancestor in name.ancestors().skip(1) {
            let is_origin = ancestor.0 == self.origin.rev_wire();
            let exists = self.exists(ancestor);
            let wild = wildcard_child(ancestor, &mut buf)?;
            if let Some(rs) = self.records.get(wild.key()) {
                if exists || is_origin {
                    return Some(rs);
                }
            }
            // Wildcard applies from the closest encloser only: if the
            // ancestor exists without a wildcard child, stop.
            if exists || is_origin {
                return None;
            }
        }
        None
    }
}

/// `*.<ancestor>` assembled in `buf`; `None` when it would exceed the
/// name length limit.
fn wildcard_child<'b>(
    ancestor: NameRef<'_>,
    buf: &'b mut [u8; MAX_NAME_LEN],
) -> Option<NameRef<'b>> {
    let len = ancestor
        .0
        .len()
        .checked_add(2)
        .filter(|&l| l < MAX_NAME_LEN)?;
    let out = buf.get_mut(..len)?;
    let (anc, star) = out.split_at_mut(ancestor.0.len());
    anc.copy_from_slice(ancestor.0);
    star.copy_from_slice(&[1, b'*']);
    Some(NameRef(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dns_name;
    use std::net::Ipv4Addr;

    fn zone() -> Zone {
        let mut z = Zone::new(dns_name!("example.com"));
        z.add_rr(
            dns_name!("example.com"),
            3600,
            RData::Mx {
                preference: 10,
                exchange: dns_name!("mx1.example.com"),
            },
        );
        z.add_rr(
            dns_name!("mx1.example.com"),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 10)),
        );
        z.add_rr(
            dns_name!("www.example.com"),
            300,
            RData::Cname(dns_name!("web.example.com")),
        );
        z.add_rr(
            dns_name!("web.example.com"),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 80)),
        );
        z.add_rr(
            dns_name!("*.pages.example.com"),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 99)),
        );
        z.add_rr(
            dns_name!("child.example.com"),
            3600,
            RData::Ns(dns_name!("ns1.child.example.com")),
        );
        // Empty non-terminal: only a deep name under "ent".
        z.add_rr(
            dns_name!("deep.ent.example.com"),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 50)),
        );
        z
    }

    #[test]
    fn answer_and_nodata() {
        let z = zone();
        match z.lookup(&dns_name!("example.com"), RecordType::Mx) {
            ZoneLookup::Answer(rs) => assert_eq!(rs.len(), 1),
            other => panic!("{other:?}"),
        }
        assert_eq!(
            z.lookup(&dns_name!("mx1.example.com"), RecordType::Mx),
            ZoneLookup::NoData
        );
    }

    #[test]
    fn nxdomain() {
        let z = zone();
        assert_eq!(
            z.lookup(&dns_name!("nope.example.com"), RecordType::A),
            ZoneLookup::NxDomain
        );
    }

    #[test]
    fn out_of_zone() {
        let z = zone();
        assert_eq!(
            z.lookup(&dns_name!("example.org"), RecordType::A),
            ZoneLookup::OutOfZone
        );
    }

    #[test]
    fn cname_chain_element() {
        let z = zone();
        match z.lookup(&dns_name!("www.example.com"), RecordType::A) {
            ZoneLookup::Cname(r) => {
                assert_eq!(r.rdata, RData::Cname(dns_name!("web.example.com")));
            }
            other => panic!("{other:?}"),
        }
        // Query for CNAME itself answers directly.
        match z.lookup(&dns_name!("www.example.com"), RecordType::Cname) {
            ZoneLookup::Answer(rs) => assert_eq!(rs.len(), 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn wildcard_synthesis() {
        let z = zone();
        match z.lookup(&dns_name!("anything.pages.example.com"), RecordType::A) {
            ZoneLookup::Answer(rs) => {
                assert_eq!(rs[0].name, dns_name!("anything.pages.example.com"));
                assert_eq!(rs[0].rdata, RData::A(Ipv4Addr::new(192, 0, 2, 99)));
            }
            other => panic!("{other:?}"),
        }
        // Wildcard does not apply to the wildcard owner's parent itself...
        assert_eq!(
            z.lookup(&dns_name!("pages.example.com"), RecordType::A),
            ZoneLookup::NoData,
            "existing encloser is NODATA, not synthesised"
        );
        // ...and does not descend past an existing name.
        match z.lookup(&dns_name!("a.b.pages.example.com"), RecordType::A) {
            ZoneLookup::Answer(rs) => assert_eq!(rs[0].name, dns_name!("a.b.pages.example.com")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn wildcard_nodata_for_other_types() {
        let z = zone();
        assert_eq!(
            z.lookup(&dns_name!("x.pages.example.com"), RecordType::Mx),
            ZoneLookup::NoData
        );
    }

    #[test]
    fn empty_non_terminal_is_nodata() {
        let z = zone();
        assert_eq!(
            z.lookup(&dns_name!("ent.example.com"), RecordType::A),
            ZoneLookup::NoData
        );
    }

    #[test]
    fn referral_below_cut() {
        let z = zone();
        match z.lookup(&dns_name!("host.child.example.com"), RecordType::A) {
            ZoneLookup::Referral(ns) => {
                assert_eq!(ns[0].rdata, RData::Ns(dns_name!("ns1.child.example.com")));
            }
            other => panic!("{other:?}"),
        }
        // At the cut itself, also a referral.
        assert!(matches!(
            z.lookup(&dns_name!("child.example.com"), RecordType::A),
            ZoneLookup::Referral(_)
        ));
    }

    #[test]
    fn remove_records() {
        let mut z = zone();
        assert_eq!(z.remove(&dns_name!("example.com"), RecordType::Mx), 1);
        assert_eq!(
            z.lookup(&dns_name!("example.com"), RecordType::Mx),
            ZoneLookup::NoData
        );
    }

    #[test]
    #[should_panic(expected = "outside zone")]
    fn add_outside_zone_panics() {
        let mut z = zone();
        z.add_rr(dns_name!("other.org"), 60, RData::A(Ipv4Addr::LOCALHOST));
    }

    #[test]
    fn negative_ttl_uses_min() {
        let z = zone();
        assert_eq!(z.negative_ttl(), 300);
    }
}
