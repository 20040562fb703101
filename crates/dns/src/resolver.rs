//! A caching stub resolver and the MX-resolution convenience used by the
//! OpenINTEL-style measurement layer.

use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::net::Ipv4Addr;

use crate::clock::SimClock;
use crate::message::{Message, Rcode};
use crate::name::Name;
use crate::rr::{RData, Record, RecordType};

/// How a resolution attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResolveError {
    /// The name does not exist (NXDOMAIN), possibly cached.
    NxDomain(Name),
    /// Transport-level failure (server unreachable, malformed reply).
    Network(String),
    /// The server answered with an error rcode other than NXDOMAIN.
    ServerFailure(Rcode),
    /// A CNAME chain exceeded the hop budget.
    CnameChainTooLong(Name),
}

impl fmt::Display for ResolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResolveError::NxDomain(n) => write!(f, "NXDOMAIN for {n}"),
            ResolveError::Network(e) => write!(f, "network error: {e}"),
            ResolveError::ServerFailure(rc) => write!(f, "server failure: {rc}"),
            ResolveError::CnameChainTooLong(n) => write!(f, "CNAME chain too long at {n}"),
        }
    }
}

impl std::error::Error for ResolveError {}

/// Abstract query transport: `mx-net` implements this over the simulated
/// Internet; tests implement it with an in-process [`crate::Authority`].
pub trait Transport {
    /// Send `query` to `server` and return its response.
    fn query(&self, server: Ipv4Addr, query: &Message) -> Result<Message, ResolveError>;

    /// Send retry number `attempt` (0-based) of `query` to `server`.
    /// Fault-injecting transports override this so each attempt draws an
    /// independent failure coin; the default ignores `attempt`.
    fn query_attempt(
        &self,
        server: Ipv4Addr,
        query: &Message,
        attempt: u32,
    ) -> Result<Message, ResolveError> {
        let _ = attempt;
        self.query(server, query)
    }
}

impl<T: Transport + ?Sized> Transport for &T {
    fn query(&self, server: Ipv4Addr, query: &Message) -> Result<Message, ResolveError> {
        (**self).query(server, query)
    }

    fn query_attempt(
        &self,
        server: Ipv4Addr,
        query: &Message,
        attempt: u32,
    ) -> Result<Message, ResolveError> {
        (**self).query_attempt(server, query, attempt)
    }
}

/// Maximum transport attempts per query (1 initial + 2 retries).
pub const MAX_DNS_ATTEMPTS: u32 = 3;

/// Base backoff charged to the simulated clock before retry `n` (doubles
/// per retry: 2s, 4s, ...).
pub const DNS_BACKOFF_SECS: u64 = 2;

/// 48-bit trace tag for a DNS name — pure in the name, so the tagged
/// event set is identical at any thread count. Allocation-free (zero)
/// while tracing is off, keeping the hot path cheap.
fn name_trace_tag(name: &Name) -> u64 {
    if !mx_obs::trace_enabled() {
        return 0;
    }
    mx_obs::trace::tag64(name.to_string().as_bytes())
}

#[derive(Debug, Clone)]
enum CacheEntry {
    Positive { records: Vec<Record>, expires: u64 },
    Negative { rcode: Rcode, expires: u64 },
}

/// One MX target after full resolution: preference, exchange name and the
/// IPv4 addresses the exchange resolves to (empty when resolution failed —
/// the paper's "No MX IP" bucket in Table 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MxTarget {
    /// MX preference (lowest wins).
    pub preference: u16,
    /// The exchange hostname from the MX record.
    pub exchange: Name,
    /// IPv4 addresses the exchange resolved to.
    pub addrs: Vec<Ipv4Addr>,
}

/// How one lookup inside an MX resolution degraded: which name was
/// affected, whether it ultimately failed, and how hard the resolver
/// tried. An entry with `error: None` recovered on retry; an entry with
/// `error: Some(..)` exhausted its budget (or hit a terminal error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MxDegradation {
    /// The name whose lookup degraded (the domain for the MX query
    /// itself, or an exchange hostname for its A resolution).
    pub name: Name,
    /// The terminal error, when the lookup ultimately failed.
    pub error: Option<ResolveError>,
    /// Extra transport attempts (retries) consumed by this lookup.
    pub retries: u32,
}

/// A domain's measured MX configuration — the §4.3 row the inference
/// consumes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MxObservation {
    /// No MX records published, the domain is gone, or the lookup
    /// failed (the failure itself is recorded beside the row).
    NoMx,
    /// RFC 7505 null MX only.
    NullMx,
    /// MX records, sorted by (preference, exchange).
    Targets(Vec<MxTarget>),
}

impl MxObservation {
    /// The targets, if any.
    pub fn targets(&self) -> &[MxTarget] {
        match self {
            MxObservation::Targets(t) => t,
            _ => &[],
        }
    }

    /// Targets sharing the lowest (most preferred) preference value — the
    /// paper's "primary MX record(s)" used for provider attribution.
    pub fn primary_targets(&self) -> &[MxTarget] {
        let targets = self.targets();
        let Some(best) = targets.first().map(|t| t.preference) else {
            return &[];
        };
        let end = targets
            .iter()
            .position(|t| t.preference != best)
            .unwrap_or(targets.len());
        &targets[..end]
    }
}

/// Result of resolving a domain's mail setup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MxResolution {
    /// The domain whose mail setup was resolved.
    pub domain: Name,
    /// The measured MX row. A null MX published beside real targets
    /// reads as those targets.
    pub mx: MxObservation,
    /// Lookups that needed retries or failed outright (the paper's
    /// "No MX IP" bucket records *why* an exchange has no addresses).
    pub degraded: Vec<MxDegradation>,
}

/// A caching stub resolver.
///
/// * positive answers cached per (name, type) until the smallest record TTL
///   expires;
/// * NXDOMAIN / NODATA cached per RFC 2308 using the SOA negative TTL when
///   the server provided one;
/// * CNAME chains chased across queries with a hop budget;
/// * deterministic transaction ids (a simple counter) so simulations are
///   reproducible.
pub struct StubResolver<T: Transport> {
    transport: T,
    server: Ipv4Addr,
    clock: SimClock,
    cache: RefCell<HashMap<(Name, RecordType), CacheEntry>>,
    next_id: RefCell<u16>,
    stats: RefCell<ResolverStats>,
    /// Retries consumed since the last [`StubResolver::begin_lookup`];
    /// lets `resolve_mx` attribute retry cost to individual lookups.
    lookup_retries: std::cell::Cell<u32>,
}

/// Counters exposed for tests and reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolverStats {
    /// Queries that went to the transport (including retries).
    pub queries_sent: u64,
    /// Answers served from the positive cache.
    pub cache_hits: u64,
    /// Answers served from the negative cache.
    pub negative_hits: u64,
    /// Transport retries after a retryable failure (timeout, SERVFAIL,
    /// truncation).
    pub retries: u64,
    /// Times the whole cache was dropped via `flush_cache`.
    pub flushes: u64,
}

impl<T: Transport> StubResolver<T> {
    /// Create a resolver speaking to `server` via `transport`.
    pub fn new(transport: T, server: Ipv4Addr, clock: SimClock) -> Self {
        StubResolver {
            transport,
            server,
            clock,
            cache: RefCell::new(HashMap::new()),
            next_id: RefCell::new(1),
            stats: RefCell::new(ResolverStats::default()),
            lookup_retries: std::cell::Cell::new(0),
        }
    }

    /// Current statistics snapshot.
    pub fn stats(&self) -> ResolverStats {
        *self.stats.borrow()
    }

    /// Drop all cached entries.
    pub fn flush_cache(&self) {
        self.cache.borrow_mut().clear();
        self.stats.borrow_mut().flushes += 1;
    }

    /// Reset the per-lookup retry counter (see
    /// [`StubResolver::last_lookup_retries`]).
    pub fn begin_lookup(&self) {
        self.lookup_retries.set(0);
    }

    /// Retries consumed since the last `begin_lookup` — callers that
    /// want per-lookup degradation accounting bracket each logical
    /// lookup with `begin_lookup` and read this afterwards.
    pub fn last_lookup_retries(&self) -> u32 {
        self.lookup_retries.get()
    }

    fn fresh_id(&self) -> u16 {
        let mut id = self.next_id.borrow_mut();
        let v = *id;
        *id = id.wrapping_add(1).max(1);
        v
    }

    /// Resolve (name, rtype) to the matching records, following CNAMEs.
    pub fn resolve(&self, name: &Name, rtype: RecordType) -> Result<Vec<Record>, ResolveError> {
        let mut current = name.clone();
        let mut out: Vec<Record> = Vec::new();
        for _hop in 0..12 {
            let records = self.resolve_one(&current, rtype)?;
            // Partition into target-type records and CNAMEs for `current`.
            let mut next: Option<Name> = None;
            for r in records {
                match &r.rdata {
                    RData::Cname(t) if r.rtype() != rtype
                        && r.name == current => {
                            next = Some(t.clone());
                        }
                    _ if rtype == RecordType::Any
                        || (r.rtype() == rtype && r.name == current) => {
                            out.push(r);
                        }
                    _ => {}
                }
            }
            if !out.is_empty() {
                return Ok(out);
            }
            match next {
                Some(t) => current = t,
                None => return Ok(out), // NODATA
            }
        }
        Err(ResolveError::CnameChainTooLong(name.clone()))
    }

    /// One cache-aware query without cross-query CNAME chasing. Returns all
    /// answer-section records (which may include in-zone CNAME chains).
    fn resolve_one(
        &self,
        name: &Name,
        rtype: RecordType,
    ) -> Result<Vec<Record>, ResolveError> {
        let key = (name.clone(), rtype);
        let now = self.clock.now().secs();
        if let Some(entry) = self.cache.borrow().get(&key) {
            match entry {
                CacheEntry::Positive { records, expires } if *expires > now => {
                    self.stats.borrow_mut().cache_hits += 1;
                    mx_obs::counter!(mx_obs::names::DNS_CACHE_HITS).incr();
                    return Ok(records.clone());
                }
                CacheEntry::Negative { rcode, expires } if *expires > now => {
                    self.stats.borrow_mut().negative_hits += 1;
                    mx_obs::counter!(mx_obs::names::DNS_CACHE_NEGATIVE_HITS).incr();
                    return match rcode {
                        Rcode::NxDomain => Err(ResolveError::NxDomain(name.clone())),
                        _ => Ok(Vec::new()), // cached NODATA
                    };
                }
                _ => {}
            }
        }
        let query = Message::query(self.fresh_id(), name.clone(), rtype);
        let mut attempt = 0u32;
        let resp = loop {
            if attempt > 0 {
                // Deterministic exponential backoff, charged as simulated
                // cost (never advances `now`, so TTLs stay stable within
                // a round).
                let backoff = DNS_BACKOFF_SECS << (attempt - 1);
                self.clock.charge(backoff);
                self.stats.borrow_mut().retries += 1;
                self.lookup_retries.set(self.lookup_retries.get() + 1);
                mx_obs::counter!(mx_obs::names::DNS_RETRIES).incr();
                mx_obs::counter!(mx_obs::names::DNS_BACKOFF_SIM_SECS).add(backoff);
                // Tagged so the timeline shows *which* lookup backed
                // off; the tag is pure in the name, so the event set
                // stays thread-invariant.
                mx_obs::stage!(
                    mx_obs::names::STAGE_DNS_LOOKUP,
                    mx_obs::names::STAGE_OBSERVE_RESOLVE
                )
                .charge_sim_tagged(backoff, self.clock.now().secs(), name_trace_tag(name));
            }
            self.stats.borrow_mut().queries_sent += 1;
            mx_obs::counter!(mx_obs::names::DNS_QUERIES).incr();
            let outcome = self.transport.query_attempt(self.server, &query, attempt);
            // Timeouts, SERVFAILs and truncated replies are retryable;
            // NXDOMAIN and decode-level errors are definitive.
            let retryable = match &outcome {
                Err(ResolveError::Network(_)) => true,
                Ok(resp) => {
                    resp.header.tc || matches!(resp.header.rcode, Rcode::ServFail)
                }
                Err(_) => false,
            };
            attempt += 1;
            if !retryable || attempt >= MAX_DNS_ATTEMPTS {
                break outcome?;
            }
        };
        if resp.header.id != query.header.id {
            return Err(ResolveError::Network("transaction id mismatch".into()));
        }
        if resp.header.tc {
            // Still truncated after exhausting the budget: the answer
            // section cannot be trusted to be complete.
            return Err(ResolveError::Network("response truncated".into()));
        }
        match resp.header.rcode {
            Rcode::NoError => {}
            Rcode::NxDomain => {
                let ttl = negative_ttl(&resp).unwrap_or(300);
                self.cache.borrow_mut().insert(
                    key,
                    CacheEntry::Negative {
                        rcode: Rcode::NxDomain,
                        expires: now + ttl as u64,
                    },
                );
                return Err(ResolveError::NxDomain(name.clone()));
            }
            rc => return Err(ResolveError::ServerFailure(rc)),
        }
        let records = resp.answers.clone();
        if records.is_empty() {
            let ttl = negative_ttl(&resp).unwrap_or(300);
            self.cache.borrow_mut().insert(
                key,
                CacheEntry::Negative {
                    rcode: Rcode::NoError,
                    expires: now + ttl as u64,
                },
            );
            return Ok(Vec::new());
        }
        let min_ttl = records.iter().map(|r| r.ttl).min().unwrap_or(0).max(1);
        self.cache.borrow_mut().insert(
            key,
            CacheEntry::Positive {
                records: records.clone(),
                expires: now + min_ttl as u64,
            },
        );
        Ok(records)
    }

    /// Resolve A records for `name`, following CNAMEs.
    pub fn resolve_a(&self, name: &Name) -> Result<Vec<Ipv4Addr>, ResolveError> {
        let rs = self.resolve(name, RecordType::A)?;
        Ok(rs
            .iter()
            .filter_map(|r| match r.rdata {
                RData::A(a) => Some(a),
                _ => None,
            })
            .collect())
    }

    /// The full MX resolution for a domain: fetch MX records, then resolve
    /// each exchange's A records. Per-exchange failures yield empty `addrs`
    /// rather than failing the whole resolution (matching how OpenINTEL
    /// records partial data).
    pub fn resolve_mx(&self, domain: &Name) -> Result<MxResolution, ResolveError> {
        let _obs = mx_obs::stage!(
            mx_obs::names::STAGE_DNS_LOOKUP,
            mx_obs::names::STAGE_OBSERVE_RESOLVE
        )
        .enter_tagged(self.clock.now().secs(), name_trace_tag(domain));
        self.begin_lookup();
        let records = self.resolve(domain, RecordType::Mx)?;
        let mut degraded: Vec<MxDegradation> = Vec::new();
        if self.last_lookup_retries() > 0 {
            degraded.push(MxDegradation {
                name: domain.clone(),
                error: None,
                retries: self.last_lookup_retries(),
            });
        }
        let mut targets: Vec<MxTarget> = Vec::new();
        let mut null_mx = false;
        for r in &records {
            if let RData::Mx {
                preference,
                exchange,
            } = &r.rdata
            {
                if exchange.is_root() {
                    null_mx = true;
                    continue;
                }
                self.begin_lookup();
                let addrs = match self.resolve_a(exchange) {
                    Ok(addrs) => {
                        if self.last_lookup_retries() > 0 {
                            degraded.push(MxDegradation {
                                name: exchange.clone(),
                                error: None,
                                retries: self.last_lookup_retries(),
                            });
                        }
                        addrs
                    }
                    Err(e) => {
                        degraded.push(MxDegradation {
                            name: exchange.clone(),
                            error: Some(e),
                            retries: self.last_lookup_retries(),
                        });
                        Vec::new()
                    }
                };
                targets.push(MxTarget {
                    preference: *preference,
                    exchange: exchange.clone(),
                    addrs,
                });
            }
        }
        targets.sort_by(|a, b| {
            a.preference
                .cmp(&b.preference)
                .then_with(|| a.exchange.cmp(&b.exchange))
        });
        let mx = if !targets.is_empty() {
            MxObservation::Targets(targets)
        } else if null_mx {
            MxObservation::NullMx
        } else {
            MxObservation::NoMx
        };
        Ok(MxResolution {
            domain: domain.clone(),
            mx,
            degraded,
        })
    }
}

/// Extract the RFC 2308 negative TTL from a response's SOA, if present.
fn negative_ttl(resp: &Message) -> Option<u32> {
    resp.authorities.iter().find_map(|r| match &r.rdata {
        RData::Soa(soa) => Some(r.ttl.min(soa.minimum)),
        _ => None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dns_name;
    use crate::server::Authority;
    use crate::zone::Zone;
    use std::cell::Cell;

    /// In-process transport over an Authority, with a query counter.
    struct Direct<'a> {
        auth: &'a Authority,
        calls: Cell<u64>,
    }

    impl Transport for Direct<'_> {
        fn query(&self, _server: Ipv4Addr, q: &Message) -> Result<Message, ResolveError> {
            self.calls.set(self.calls.get() + 1);
            Ok(self.auth.answer(q))
        }
    }

    fn world() -> Authority {
        let mut a = Authority::new();
        let mut z = Zone::new(dns_name!("example.com"));
        z.add_rr(
            dns_name!("example.com"),
            3600,
            RData::Mx {
                preference: 10,
                exchange: dns_name!("mx1.provider.net"),
            },
        );
        z.add_rr(
            dns_name!("example.com"),
            3600,
            RData::Mx {
                preference: 20,
                exchange: dns_name!("backup.example.com"),
            },
        );
        z.add_rr(
            dns_name!("backup.example.com"),
            300,
            RData::A("192.0.2.2".parse().unwrap()),
        );
        z.add_rr(
            dns_name!("www.example.com"),
            300,
            RData::Cname(dns_name!("cdn.provider.net")),
        );
        a.add_zone(z);
        let mut p = Zone::new(dns_name!("provider.net"));
        p.add_rr(
            dns_name!("mx1.provider.net"),
            300,
            RData::A("198.51.100.25".parse().unwrap()),
        );
        p.add_rr(
            dns_name!("cdn.provider.net"),
            300,
            RData::A("198.51.100.80".parse().unwrap()),
        );
        a.add_zone(p);
        let mut n = Zone::new(dns_name!("nullmx.test"));
        n.add_rr(
            dns_name!("nullmx.test"),
            300,
            RData::Mx {
                preference: 0,
                exchange: Name::root(),
            },
        );
        a.add_zone(n);
        a
    }

    fn resolver<'a>(auth: &'a Authority, clock: SimClock) -> StubResolver<Direct<'a>> {
        StubResolver::new(
            Direct {
                auth,
                calls: Cell::new(0),
            },
            Ipv4Addr::new(10, 0, 0, 53),
            clock,
        )
    }

    #[test]
    fn resolve_mx_full() {
        let auth = world();
        let r = resolver(&auth, SimClock::new());
        let mx = r.resolve_mx(&dns_name!("example.com")).unwrap().mx;
        assert_eq!(mx.targets().len(), 2);
        assert_eq!(mx.targets()[0].exchange, dns_name!("mx1.provider.net"));
        assert_eq!(
            mx.targets()[0].addrs,
            vec!["198.51.100.25".parse::<Ipv4Addr>().unwrap()]
        );
        assert_eq!(mx.primary_targets().len(), 1);
        assert!(matches!(mx, MxObservation::Targets(_)));
    }

    #[test]
    fn cross_zone_cname_chase() {
        let auth = world();
        let r = resolver(&auth, SimClock::new());
        let addrs = r.resolve_a(&dns_name!("www.example.com")).unwrap();
        assert_eq!(addrs, vec!["198.51.100.80".parse::<Ipv4Addr>().unwrap()]);
    }

    #[test]
    fn positive_cache_hits() {
        let auth = world();
        let clock = SimClock::new();
        let r = resolver(&auth, clock.clone());
        r.resolve_a(&dns_name!("mx1.provider.net")).unwrap();
        r.resolve_a(&dns_name!("mx1.provider.net")).unwrap();
        let s = r.stats();
        assert_eq!(s.queries_sent, 1);
        assert_eq!(s.cache_hits, 1);
    }

    #[test]
    fn cache_expires_with_clock() {
        let auth = world();
        let clock = SimClock::new();
        let r = resolver(&auth, clock.clone());
        r.resolve_a(&dns_name!("mx1.provider.net")).unwrap();
        clock.advance_secs(301); // ttl is 300
        r.resolve_a(&dns_name!("mx1.provider.net")).unwrap();
        assert_eq!(r.stats().queries_sent, 2);
    }

    #[test]
    fn negative_cache() {
        let auth = world();
        let r = resolver(&auth, SimClock::new());
        let e = r.resolve_a(&dns_name!("missing.example.com")).unwrap_err();
        assert!(matches!(e, ResolveError::NxDomain(_)));
        let e = r.resolve_a(&dns_name!("missing.example.com")).unwrap_err();
        assert!(matches!(e, ResolveError::NxDomain(_)));
        let s = r.stats();
        assert_eq!(s.queries_sent, 1);
        assert_eq!(s.negative_hits, 1);
    }

    #[test]
    fn nodata_is_empty_not_error() {
        let auth = world();
        let r = resolver(&auth, SimClock::new());
        let rs = r.resolve(&dns_name!("backup.example.com"), RecordType::Mx).unwrap();
        assert!(rs.is_empty());
    }

    #[test]
    fn null_mx_detected() {
        let auth = world();
        let r = resolver(&auth, SimClock::new());
        let mx = r.resolve_mx(&dns_name!("nullmx.test")).unwrap().mx;
        assert_eq!(mx, MxObservation::NullMx);
        assert!(mx.targets().is_empty());
        assert!(mx.primary_targets().is_empty());
    }

    #[test]
    fn primary_targets_split_same_preference() {
        let mut auth = Authority::new();
        let mut z = Zone::new(dns_name!("multi.test"));
        for ex in ["mx-a.multi.test", "mx-b.multi.test", "mx-c.multi.test"] {
            z.add_rr(
                dns_name!("multi.test"),
                300,
                RData::Mx {
                    preference: 10,
                    exchange: dns_name!(ex),
                },
            );
            z.add_rr(dns_name!(ex), 300, RData::A("192.0.2.9".parse().unwrap()));
        }
        z.add_rr(
            dns_name!("multi.test"),
            300,
            RData::Mx {
                preference: 20,
                exchange: dns_name!("mx-backup.multi.test"),
            },
        );
        z.add_rr(
            dns_name!("mx-backup.multi.test"),
            300,
            RData::A("192.0.2.10".parse().unwrap()),
        );
        auth.add_zone(z);
        let r = resolver(&auth, SimClock::new());
        let mx = r.resolve_mx(&dns_name!("multi.test")).unwrap().mx;
        assert_eq!(mx.targets().len(), 4);
        assert_eq!(mx.primary_targets().len(), 3);
    }

    /// Transport whose first `fail_first` attempts of every query time
    /// out; later attempts answer from the authority.
    struct Flaky<'a> {
        auth: &'a Authority,
        fail_first: u32,
        calls: Cell<u64>,
    }

    impl Transport for Flaky<'_> {
        fn query(&self, server: Ipv4Addr, q: &Message) -> Result<Message, ResolveError> {
            self.query_attempt(server, q, 0)
        }

        fn query_attempt(
            &self,
            _server: Ipv4Addr,
            q: &Message,
            attempt: u32,
        ) -> Result<Message, ResolveError> {
            self.calls.set(self.calls.get() + 1);
            if attempt < self.fail_first {
                return Err(ResolveError::Network("injected timeout".into()));
            }
            Ok(self.auth.answer(q))
        }
    }

    /// Transport that always answers SERVFAIL (optionally truncated).
    struct Broken {
        rcode: Rcode,
        tc: bool,
    }

    impl Transport for Broken {
        fn query(&self, _server: Ipv4Addr, q: &Message) -> Result<Message, ResolveError> {
            let mut m = q.response();
            m.header.rcode = self.rcode;
            m.header.tc = self.tc;
            Ok(m)
        }
    }

    #[test]
    fn retries_recover_from_transient_timeouts() {
        let auth = world();
        let clock = SimClock::new();
        let r = StubResolver::new(
            Flaky {
                auth: &auth,
                fail_first: 2,
                calls: Cell::new(0),
            },
            Ipv4Addr::new(10, 0, 0, 53),
            clock.clone(),
        );
        let addrs = r.resolve_a(&dns_name!("mx1.provider.net")).unwrap();
        assert_eq!(addrs, vec!["198.51.100.25".parse::<Ipv4Addr>().unwrap()]);
        let s = r.stats();
        assert_eq!(s.queries_sent, 3, "1 initial + 2 retries");
        assert_eq!(s.retries, 2);
        // Backoff cost charged without moving `now`: 2s + 4s.
        assert_eq!(clock.charged(), 6);
        assert_eq!(clock.now().secs(), 0);
    }

    #[test]
    fn retry_budget_exhausts() {
        let auth = world();
        let r = StubResolver::new(
            Flaky {
                auth: &auth,
                fail_first: 10,
                calls: Cell::new(0),
            },
            Ipv4Addr::new(10, 0, 0, 53),
            SimClock::new(),
        );
        let e = r.resolve_a(&dns_name!("mx1.provider.net")).unwrap_err();
        assert!(matches!(e, ResolveError::Network(_)));
        let s = r.stats();
        assert_eq!(s.queries_sent, MAX_DNS_ATTEMPTS as u64);
        assert_eq!(s.retries, (MAX_DNS_ATTEMPTS - 1) as u64);
    }

    #[test]
    fn servfail_and_truncation_are_retried_then_reported() {
        let r = StubResolver::new(
            Broken {
                rcode: Rcode::ServFail,
                tc: false,
            },
            Ipv4Addr::new(10, 0, 0, 53),
            SimClock::new(),
        );
        let e = r.resolve_a(&dns_name!("mx1.provider.net")).unwrap_err();
        assert!(matches!(e, ResolveError::ServerFailure(Rcode::ServFail)));
        assert_eq!(r.stats().queries_sent, MAX_DNS_ATTEMPTS as u64);

        let r = StubResolver::new(
            Broken {
                rcode: Rcode::NoError,
                tc: true,
            },
            Ipv4Addr::new(10, 0, 0, 53),
            SimClock::new(),
        );
        let e = r.resolve_a(&dns_name!("mx1.provider.net")).unwrap_err();
        assert!(
            matches!(&e, ResolveError::Network(m) if m.contains("truncated")),
            "{e:?}"
        );
        assert_eq!(r.stats().queries_sent, MAX_DNS_ATTEMPTS as u64);
    }

    #[test]
    fn flushes_counted_in_stats() {
        let auth = world();
        let r = resolver(&auth, SimClock::new());
        r.resolve_a(&dns_name!("mx1.provider.net")).unwrap();
        r.flush_cache();
        r.resolve_a(&dns_name!("mx1.provider.net")).unwrap();
        r.flush_cache();
        let s = r.stats();
        assert_eq!(s.flushes, 2);
        assert_eq!(s.queries_sent, 2, "flush forces a re-query");
        assert_eq!(s.cache_hits, 0);
        assert_eq!(s.retries, 0);
    }

    #[test]
    fn resolve_mx_records_recovered_lookups() {
        let auth = world();
        let r = StubResolver::new(
            Flaky {
                auth: &auth,
                fail_first: 1,
                calls: Cell::new(0),
            },
            Ipv4Addr::new(10, 0, 0, 53),
            SimClock::new(),
        );
        let mx = r.resolve_mx(&dns_name!("example.com")).unwrap();
        assert_eq!(mx.mx.targets().len(), 2);
        // Every query (MX + two exchange A lookups) needed one retry.
        assert_eq!(mx.degraded.len(), 3, "{:?}", mx.degraded);
        assert!(mx.degraded.iter().all(|d| d.error.is_none() && d.retries == 1));
    }

    #[test]
    fn missing_exchange_yields_empty_addrs() {
        let mut auth = Authority::new();
        let mut z = Zone::new(dns_name!("dangling.test"));
        z.add_rr(
            dns_name!("dangling.test"),
            300,
            RData::Mx {
                preference: 10,
                exchange: dns_name!("gone.dangling.test"),
            },
        );
        auth.add_zone(z);
        let r = resolver(&auth, SimClock::new());
        let mx = r.resolve_mx(&dns_name!("dangling.test")).unwrap();
        assert_eq!(mx.mx.targets().len(), 1);
        assert!(mx.mx.targets()[0].addrs.is_empty(), "dangling MX: no addresses");
        // The degradation record names the failing exchange and carries
        // the terminal error.
        assert_eq!(mx.degraded.len(), 1);
        assert_eq!(mx.degraded[0].name, dns_name!("gone.dangling.test"));
        assert!(matches!(
            mx.degraded[0].error,
            Some(ResolveError::NxDomain(_))
        ));
    }
}
