//! The simulated network: DNS authority + SMTP hosts + routing + faults.

use std::collections::BTreeMap;
use std::fmt;
use std::net::Ipv4Addr;

use mx_asn::{AsTable, Asn};
use mx_dns::resolver::{ResolveError, Transport};
use mx_dns::{Authority, Message, Name, SimClock, StubResolver, Zone};
use mx_smtp::{Connection, SmtpServer, SmtpServerConfig};

use crate::fault::{DnsFault, FaultPlan};

/// Why an SMTP connection attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnectError {
    /// No host lives at this address.
    NoRoute(Ipv4Addr),
    /// Host exists but is unreachable (fault plan).
    Unreachable(Ipv4Addr),
    /// Host exists but nothing listens on port 25.
    PortClosed(Ipv4Addr),
}

impl fmt::Display for ConnectError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConnectError::NoRoute(ip) => write!(f, "no route to {ip}"),
            ConnectError::Unreachable(ip) => write!(f, "{ip} unreachable"),
            ConnectError::PortClosed(ip) => write!(f, "connection refused by {ip}:25"),
        }
    }
}

impl std::error::Error for ConnectError {}

/// A host attached to the network.
#[derive(Debug, Clone)]
struct HostEntry {
    /// SMTP service on port 25, if any.
    smtp: Option<SmtpServerConfig>,
}

/// The simulated Internet.
///
/// Immutable once built (interior state lives in per-connection
/// [`SmtpServer`] clones and per-caller resolvers), hence freely shared
/// across scanner threads.
pub struct SimNet {
    authority: Authority,
    hosts: BTreeMap<Ipv4Addr, HostEntry>,
    as_table: AsTable,
    clock: SimClock,
    faults: FaultPlan,
    resolver_ip: Ipv4Addr,
}

impl SimNet {
    /// Start building a network. An empty root zone is pre-installed so
    /// that names outside all configured zones resolve to NXDOMAIN (as
    /// they would through the real root/TLD hierarchy) rather than REFUSED.
    pub fn builder(clock: SimClock) -> SimNetBuilder {
        let mut authority = Authority::new();
        authority.add_zone(Zone::new(Name::root()));
        SimNetBuilder {
            authority,
            hosts: BTreeMap::new(),
            as_table: AsTable::new(),
            clock,
            faults: FaultPlan::none(),
            resolver_ip: Ipv4Addr::new(10, 53, 53, 53),
        }
    }

    /// The shared simulation clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The fault plan in effect.
    pub fn faults(&self) -> &FaultPlan {
        &self.faults
    }

    /// Replace the fault plan (chaos experiments re-run one built world
    /// under several plans).
    pub fn set_faults(&mut self, faults: FaultPlan) {
        self.faults = faults;
    }

    /// The address of the recursive resolver serving this network.
    pub fn resolver_ip(&self) -> Ipv4Addr {
        self.resolver_ip
    }

    /// The DNS authority (diagnostics).
    pub fn authority(&self) -> &Authority {
        &self.authority
    }

    /// The routing table.
    pub fn as_table(&self) -> &AsTable {
        &self.as_table
    }

    /// Primary ASN announcing `ip`, if routed.
    pub fn asn_of(&self, ip: Ipv4Addr) -> Option<Asn> {
        self.as_table.asn_of(ip)
    }

    /// Number of attached hosts.
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Hosts that run an SMTP service.
    pub fn smtp_host_count(&self) -> usize {
        self.hosts.values().filter(|h| h.smtp.is_some()).count()
    }

    /// All attached host addresses, in address order.
    pub fn host_ips(&self) -> impl Iterator<Item = Ipv4Addr> + '_ {
        self.hosts.keys().copied()
    }

    /// Open a TCP connection to `ip:25`, yielding a live SMTP session.
    /// Each connection gets a fresh clone of the host's server state.
    pub fn connect_smtp(&self, ip: Ipv4Addr) -> Result<Connection, ConnectError> {
        if self.faults.is_unreachable(ip) {
            return Err(ConnectError::Unreachable(ip));
        }
        let host = self.hosts.get(&ip).ok_or(ConnectError::NoRoute(ip))?;
        let config = host.smtp.as_ref().ok_or(ConnectError::PortClosed(ip))?;
        Ok(Connection::open(SmtpServer::new(config.clone())))
    }

    /// A fresh caching stub resolver over this network.
    pub fn resolver(&self) -> StubResolver<&SimNet> {
        StubResolver::new(self, self.resolver_ip, self.clock.clone())
    }
}

impl Transport for SimNet {
    fn query(&self, server: Ipv4Addr, query: &Message) -> Result<Message, ResolveError> {
        self.query_attempt(server, query, 0)
    }

    fn query_attempt(
        &self,
        server: Ipv4Addr,
        query: &Message,
        attempt: u32,
    ) -> Result<Message, ResolveError> {
        if server != self.resolver_ip {
            return Err(ResolveError::Network(format!(
                "no DNS service at {server}"
            )));
        }
        // Keyed chaos on the authority path: the fault is a pure
        // function of (qname, day, attempt, seed), so runs are
        // reproducible and retries draw independent coins.
        if let Some(q) = query.question() {
            let day = self.clock.now().secs() / 86_400;
            match self.faults.dns_fault(&q.name, day, attempt) {
                Some(DnsFault::Timeout) => {
                    return Err(ResolveError::Network(format!(
                        "query for {} timed out",
                        q.name
                    )));
                }
                Some(DnsFault::ServFail) => {
                    let mut resp = query.response();
                    resp.header.rcode = mx_dns::Rcode::ServFail;
                    return Ok(resp);
                }
                Some(DnsFault::Truncation) => {
                    let mut resp = query.response();
                    resp.header.tc = true;
                    return Ok(resp);
                }
                None => {}
            }
        }
        // Exercise the real wire codec both ways, as a network would.
        let bytes = query
            .encode()
            .map_err(|e| ResolveError::Network(e.to_string()))?;
        let decoded =
            Message::decode(&bytes).map_err(|e| ResolveError::Network(e.to_string()))?;
        let resp = self.authority.answer(&decoded);
        let bytes = resp
            .encode()
            .map_err(|e| ResolveError::Network(e.to_string()))?;
        Message::decode(&bytes).map_err(|e| ResolveError::Network(e.to_string()))
    }
}

/// Builder for [`SimNet`].
pub struct SimNetBuilder {
    authority: Authority,
    hosts: BTreeMap<Ipv4Addr, HostEntry>,
    as_table: AsTable,
    clock: SimClock,
    faults: FaultPlan,
    resolver_ip: Ipv4Addr,
}

impl SimNetBuilder {
    /// Add an authoritative zone.
    pub fn zone(&mut self, zone: Zone) -> &mut Self {
        self.authority.add_zone(zone);
        self
    }

    /// Mutable access to an already-added zone.
    pub fn zone_mut(&mut self, origin: &Name) -> Option<&mut Zone> {
        self.authority.zone_mut(origin)
    }

    /// Attach a host with an SMTP service on port 25.
    pub fn smtp_host(&mut self, ip: Ipv4Addr, config: SmtpServerConfig) -> &mut Self {
        self.hosts.insert(ip, HostEntry { smtp: Some(config) });
        self
    }

    /// Attach a host with no SMTP service (e.g. a web server an MX record
    /// mistakenly points at — the paper's `jeniustoto.net` case).
    pub fn silent_host(&mut self, ip: Ipv4Addr) -> &mut Self {
        self.hosts.insert(ip, HostEntry { smtp: None });
        self
    }

    /// Announce an IP prefix from an AS.
    pub fn announce(&mut self, prefix: mx_asn::Ipv4Prefix, asn: Asn) -> &mut Self {
        self.as_table.announce(prefix, mx_asn::Origin::Single(asn));
        self
    }

    /// Register AS metadata.
    pub fn register_as(&mut self, info: mx_asn::AsInfo) -> &mut Self {
        self.as_table.register_as(info);
        self
    }

    /// Set the fault plan.
    pub fn faults(&mut self, faults: FaultPlan) -> &mut Self {
        self.faults = faults;
        self
    }

    /// IPs of hosts added so far that run an SMTP service (used by world
    /// generators to sample fault-plan targets before building).
    pub fn smtp_ips(&self) -> Vec<Ipv4Addr> {
        let mut ips: Vec<Ipv4Addr> = self
            .hosts
            .iter()
            .filter(|(_, h)| h.smtp.is_some())
            .map(|(ip, _)| *ip)
            .collect();
        ips.sort();
        ips
    }

    /// Finish building.
    pub fn build(self) -> SimNet {
        SimNet {
            authority: self.authority,
            hosts: self.hosts,
            as_table: self.as_table,
            clock: self.clock,
            faults: self.faults,
            resolver_ip: self.resolver_ip,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mx_dns::{dns_name, RData, RecordType};

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn small_net() -> SimNet {
        let clock = SimClock::new();
        let mut b = SimNet::builder(clock);
        let mut z = Zone::new(dns_name!("example.com"));
        z.add_rr(
            dns_name!("example.com"),
            3600,
            RData::Mx {
                preference: 10,
                exchange: dns_name!("mx.example.com"),
            },
        );
        z.add_rr(dns_name!("mx.example.com"), 300, RData::A(ip("192.0.2.25")));
        b.zone(z);
        b.smtp_host(ip("192.0.2.25"), SmtpServerConfig::plain("mx.example.com"));
        b.silent_host(ip("192.0.2.80"));
        b.announce("192.0.2.0/24".parse().unwrap(), 64500);
        b.build()
    }

    #[test]
    fn dns_resolution_over_network() {
        let net = small_net();
        let r = net.resolver();
        let mx = r.resolve_mx(&dns_name!("example.com")).unwrap();
        assert_eq!(mx.mx.targets()[0].addrs, vec![ip("192.0.2.25")]);
    }

    #[test]
    fn wrong_dns_server_refused() {
        let net = small_net();
        let r = StubResolver::new(&net, ip("9.9.9.9"), net.clock().clone());
        assert!(matches!(
            r.resolve(&dns_name!("example.com"), RecordType::Mx),
            Err(ResolveError::Network(_))
        ));
    }

    #[test]
    fn smtp_connect_and_banner() {
        let net = small_net();
        let mut conn = net.connect_smtp(ip("192.0.2.25")).unwrap();
        let banner = conn.read_reply().unwrap();
        assert!(banner.first_line().starts_with("mx.example.com"));
    }

    #[test]
    fn connect_errors() {
        let net = small_net();
        assert_eq!(
            net.connect_smtp(ip("203.0.113.1")).unwrap_err(),
            ConnectError::NoRoute(ip("203.0.113.1"))
        );
        assert_eq!(
            net.connect_smtp(ip("192.0.2.80")).unwrap_err(),
            ConnectError::PortClosed(ip("192.0.2.80"))
        );
    }

    #[test]
    fn unreachable_fault() {
        let clock = SimClock::new();
        let mut b = SimNet::builder(clock);
        b.smtp_host(ip("192.0.2.25"), SmtpServerConfig::plain("mx.example.com"));
        let mut faults = FaultPlan::none();
        faults.unreachable_ips.insert(ip("192.0.2.25"));
        b.faults(faults);
        let net = b.build();
        assert_eq!(
            net.connect_smtp(ip("192.0.2.25")).unwrap_err(),
            ConnectError::Unreachable(ip("192.0.2.25"))
        );
    }

    #[test]
    fn connect_error_display() {
        assert_eq!(
            ConnectError::NoRoute(ip("203.0.113.1")).to_string(),
            "no route to 203.0.113.1"
        );
        assert_eq!(
            ConnectError::Unreachable(ip("203.0.113.2")).to_string(),
            "203.0.113.2 unreachable"
        );
        assert_eq!(
            ConnectError::PortClosed(ip("203.0.113.3")).to_string(),
            "connection refused by 203.0.113.3:25"
        );
    }

    #[test]
    fn dns_faults_are_retried_transparently() {
        let _coins = crate::fault::dns_coin_guard();
        // Rates low enough that MAX_DNS_ATTEMPTS nearly always recovers:
        // the resolution still succeeds, stats show the retries.
        let clock = SimClock::new();
        let mut b = SimNet::builder(clock);
        let mut z = Zone::new(dns_name!("example.com"));
        for i in 0..40u32 {
            let host = dns_name!(&format!("mx{i}.example.com"));
            z.add_rr(
                dns_name!("example.com"),
                3600,
                RData::Mx {
                    preference: 10,
                    exchange: host.clone(),
                },
            );
            z.add_rr(host, 300, RData::A(Ipv4Addr::from(0xc000_0200 + i)));
        }
        b.zone(z);
        let mut faults = FaultPlan::none();
        faults.dns.servfail_rate = 0.15;
        faults.dns.timeout_rate = 0.15;
        faults.dns.truncation_rate = 0.1;
        faults.seed = 13;
        b.faults(faults);
        let net = b.build();
        let r = net.resolver();
        let mx = r.resolve_mx(&dns_name!("example.com")).unwrap();
        assert_eq!(mx.mx.targets().len(), 40);
        let resolved = mx.mx.targets().iter().filter(|t| !t.addrs.is_empty()).count();
        assert!(resolved > 35, "resolved {resolved}/40");
        let s = r.stats();
        assert!(s.retries > 0, "fault rates must trigger retries");
        // Retry cost was charged to the simulated clock.
        assert!(net.clock().charged() > 0);
    }

    #[test]
    fn dns_fault_injection_is_deterministic() {
        let _coins = crate::fault::dns_coin_guard();
        let mk = || {
            let clock = SimClock::new();
            let mut b = SimNet::builder(clock);
            let mut z = Zone::new(dns_name!("example.com"));
            z.add_rr(
                dns_name!("example.com"),
                3600,
                RData::Mx {
                    preference: 10,
                    exchange: dns_name!("mx.example.com"),
                },
            );
            z.add_rr(dns_name!("mx.example.com"), 300, RData::A(ip("192.0.2.25")));
            b.zone(z);
            let mut faults = FaultPlan::none();
            faults.dns.timeout_rate = 0.5;
            faults.seed = 77;
            b.faults(faults);
            b.build()
        };
        let a = mk().resolver().resolve_mx(&dns_name!("example.com"));
        let b = mk().resolver().resolve_mx(&dns_name!("example.com"));
        assert_eq!(a, b, "same seed, same world, same outcome");
    }

    #[test]
    fn asn_lookup() {
        let net = small_net();
        assert_eq!(net.asn_of(ip("192.0.2.25")), Some(64500));
        assert_eq!(net.asn_of(ip("8.8.8.8")), None);
    }

    #[test]
    fn connections_are_isolated() {
        let net = small_net();
        let mut a = net.connect_smtp(ip("192.0.2.25")).unwrap();
        let mut b = net.connect_smtp(ip("192.0.2.25")).unwrap();
        a.read_reply().unwrap();
        b.read_reply().unwrap();
        a.write_line("EHLO one.test").unwrap();
        assert_eq!(a.read_reply().unwrap().code.0, 250);
        // Session B is unaffected by A's progress.
        b.write_line("MAIL FROM:<x@y.z>").unwrap();
        assert_eq!(b.read_reply().unwrap().code.0, 503);
    }
}
