//! Authoritative name server logic over a set of zones.

use std::collections::HashMap;

use crate::message::{Message, Rcode};
use crate::name::Name;
use crate::rr::{Record, RecordType};
use crate::zone::{Zone, ZoneLookup};

/// An authoritative server holding one or more zones, answering queries
/// with correct AA/rcode/authority-section semantics.
#[derive(Debug, Default)]
pub struct Authority {
    /// Zones keyed by origin. Hashed rather than ordered: `find_zone`
    /// probes ancestors of every queried name, and an ordered map pays a
    /// key comparison (a cache miss) per tree level per probe.
    zones: HashMap<Name, Zone>,
}

impl Authority {
    /// An authority holding no zones.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add (or replace) a zone.
    pub fn add_zone(&mut self, zone: Zone) {
        self.zones.insert(zone.origin().clone(), zone);
    }

    /// Mutable access to a zone by origin.
    pub fn zone_mut(&mut self, origin: &Name) -> Option<&mut Zone> {
        self.zones.get_mut(origin)
    }

    /// Shared access to a zone by origin.
    pub fn zone(&self, origin: &Name) -> Option<&Zone> {
        self.zones.get(origin)
    }

    /// Number of zones held.
    pub fn zone_count(&self) -> usize {
        self.zones.len()
    }

    /// Iterate zones in canonical order of their origins.
    pub fn zones(&self) -> impl Iterator<Item = &Zone> {
        let mut sorted: Vec<&Zone> = self.zones.values().collect();
        sorted.sort_by(|a, b| a.origin().cmp(b.origin()));
        sorted.into_iter()
    }

    /// The closest enclosing zone for `name`, if any.
    pub fn find_zone(&self, name: &Name) -> Option<&Zone> {
        // Walk from the name towards the root, first hit wins (most
        // specific zone).
        name.ancestors().find_map(|a| self.zones.get(a.key()))
    }

    /// Answer a query message. Follows CNAME chains *within* the same zone,
    /// appending each chain element, as real authoritative servers do.
    pub fn answer(&self, query: &Message) -> Message {
        let mut resp = query.response();
        let q = match query.question() {
            Some(q) => q,
            None => {
                resp.header.rcode = Rcode::FormErr;
                return resp;
            }
        };
        let zone = match self.find_zone(&q.name) {
            Some(z) => z,
            None => {
                resp.header.rcode = Rcode::Refused;
                return resp;
            }
        };
        resp.header.aa = true;
        // The name being looked up: the question, then each in-zone
        // CNAME target.
        let mut chased: Option<Name> = None;
        // Bounded CNAME chase inside the zone.
        for _ in 0..16 {
            let name = chased.as_ref().unwrap_or(&q.name);
            match zone.lookup(name, q.qtype) {
                ZoneLookup::Answer(rs) => {
                    resp.answers.extend(rs);
                    self.add_glue(zone, &mut resp);
                    return resp;
                }
                ZoneLookup::Cname(c) => {
                    let target = match &c.rdata {
                        crate::rr::RData::Cname(t) => t.clone(),
                        _ => unreachable!("Cname lookup returns CNAME rdata"),
                    };
                    resp.answers.push(c);
                    if target.is_subdomain_of(zone.origin()) {
                        chased = Some(target);
                        continue;
                    }
                    // Out-of-zone target: the resolver restarts elsewhere.
                    return resp;
                }
                ZoneLookup::NoData => {
                    resp.authorities.push(zone.soa_record());
                    return resp;
                }
                ZoneLookup::NxDomain => {
                    // If we already followed a CNAME, the original name
                    // exists; keep NOERROR per RFC 2308 §2.1.
                    if resp.answers.is_empty() {
                        resp.header.rcode = Rcode::NxDomain;
                    }
                    resp.authorities.push(zone.soa_record());
                    return resp;
                }
                ZoneLookup::Referral(ns) => {
                    resp.header.aa = false;
                    resp.authorities.extend(ns);
                    self.add_glue(zone, &mut resp);
                    return resp;
                }
                ZoneLookup::OutOfZone => {
                    resp.header.rcode = Rcode::ServFail;
                    return resp;
                }
            }
        }
        resp.header.rcode = Rcode::ServFail; // CNAME loop inside zone
        resp
    }

    /// Add A/AAAA glue for MX exchanges and NS targets we are authoritative
    /// for, mirroring the additional-section processing of RFC 1035 §6.3 —
    /// the measurement pipeline uses these to avoid re-querying.
    fn add_glue(&self, zone: &Zone, resp: &mut Message) {
        use crate::rr::RData;
        let mut glue: Vec<Record> = Vec::new();
        for r in resp.answers.iter().chain(&resp.authorities) {
            let t = match &r.rdata {
                RData::Mx { exchange, .. } if !exchange.is_root() => exchange,
                RData::Ns(t) => t,
                _ => continue,
            };
            let z = if t.is_subdomain_of(zone.origin()) {
                Some(zone)
            } else {
                self.find_zone(t)
            };
            if let Some(z) = z {
                // Raw access: glue sits below the delegation cut, where a
                // normal lookup would return a referral instead.
                for g in z.records_at(t, RecordType::A) {
                    if !resp.additionals.contains(g) && !glue.contains(g) {
                        glue.push(g.clone());
                    }
                }
            }
        }
        resp.additionals.extend(glue);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dns_name;
    use crate::message::Message;
    use crate::rr::RData;
    use std::net::Ipv4Addr;

    fn authority() -> Authority {
        let mut a = Authority::new();
        let mut z = Zone::new(dns_name!("example.com"));
        z.add_rr(
            dns_name!("example.com"),
            3600,
            RData::Mx {
                preference: 10,
                exchange: dns_name!("mx.example.com"),
            },
        );
        z.add_rr(
            dns_name!("mx.example.com"),
            300,
            RData::A(Ipv4Addr::new(192, 0, 2, 25)),
        );
        z.add_rr(
            dns_name!("alias.example.com"),
            300,
            RData::Cname(dns_name!("mx.example.com")),
        );
        z.add_rr(
            dns_name!("extalias.example.com"),
            300,
            RData::Cname(dns_name!("target.other.org")),
        );
        a.add_zone(z);
        let mut p = Zone::new(dns_name!("provider.net"));
        p.add_rr(
            dns_name!("mx1.provider.net"),
            300,
            RData::A(Ipv4Addr::new(198, 51, 100, 25)),
        );
        a.add_zone(p);
        a
    }

    #[test]
    fn answers_mx_with_glue() {
        let a = authority();
        let q = Message::query(1, dns_name!("example.com"), RecordType::Mx);
        let r = a.answer(&q);
        assert_eq!(r.header.rcode, Rcode::NoError);
        assert!(r.header.aa);
        assert_eq!(r.answers.len(), 1);
        assert_eq!(
            r.additionals[0].rdata,
            RData::A(Ipv4Addr::new(192, 0, 2, 25))
        );
    }

    #[test]
    fn follows_in_zone_cname() {
        let a = authority();
        let q = Message::query(2, dns_name!("alias.example.com"), RecordType::A);
        let r = a.answer(&q);
        assert_eq!(r.answers.len(), 2);
        assert!(matches!(r.answers[0].rdata, RData::Cname(_)));
        assert!(matches!(r.answers[1].rdata, RData::A(_)));
    }

    #[test]
    fn out_of_zone_cname_returned_alone() {
        let a = authority();
        let q = Message::query(3, dns_name!("extalias.example.com"), RecordType::A);
        let r = a.answer(&q);
        assert_eq!(r.answers.len(), 1);
        assert_eq!(r.header.rcode, Rcode::NoError);
    }

    #[test]
    fn nxdomain_carries_soa() {
        let a = authority();
        let q = Message::query(4, dns_name!("missing.example.com"), RecordType::A);
        let r = a.answer(&q);
        assert_eq!(r.header.rcode, Rcode::NxDomain);
        assert!(matches!(r.authorities[0].rdata, RData::Soa(_)));
    }

    #[test]
    fn nodata_carries_soa_with_noerror() {
        let a = authority();
        let q = Message::query(5, dns_name!("mx.example.com"), RecordType::Mx);
        let r = a.answer(&q);
        assert_eq!(r.header.rcode, Rcode::NoError);
        assert!(r.answers.is_empty());
        assert!(matches!(r.authorities[0].rdata, RData::Soa(_)));
    }

    #[test]
    fn refused_outside_all_zones() {
        let a = authority();
        let q = Message::query(6, dns_name!("unknown.test"), RecordType::A);
        let r = a.answer(&q);
        assert_eq!(r.header.rcode, Rcode::Refused);
    }

    #[test]
    fn zones_iterate_in_canonical_order() {
        let mut a = authority();
        a.add_zone(Zone::new(dns_name!("sub.example.com")));
        a.add_zone(Zone::new(Name::root()));
        let origins: Vec<String> = a.zones().map(|z| z.origin().to_string()).collect();
        assert_eq!(
            origins,
            [".", "example.com", "sub.example.com", "provider.net"]
        );
        assert_eq!(a.zone_count(), 4);
    }

    #[test]
    fn most_specific_zone_wins() {
        let mut a = authority();
        let mut sub = Zone::new(dns_name!("sub.example.com"));
        sub.add_rr(
            dns_name!("host.sub.example.com"),
            60,
            RData::A(Ipv4Addr::new(203, 0, 113, 1)),
        );
        a.add_zone(sub);
        let q = Message::query(7, dns_name!("host.sub.example.com"), RecordType::A);
        let r = a.answer(&q);
        assert_eq!(r.answers.len(), 1);
    }

    #[test]
    fn cname_loop_is_servfail() {
        let mut a = Authority::new();
        let mut z = Zone::new(dns_name!("loop.test"));
        z.add_rr(
            dns_name!("a.loop.test"),
            60,
            RData::Cname(dns_name!("b.loop.test")),
        );
        z.add_rr(
            dns_name!("b.loop.test"),
            60,
            RData::Cname(dns_name!("a.loop.test")),
        );
        a.add_zone(z);
        let q = Message::query(8, dns_name!("a.loop.test"), RecordType::A);
        let r = a.answer(&q);
        assert_eq!(r.header.rcode, Rcode::ServFail);
    }
}
