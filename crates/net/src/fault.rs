//! Deterministic fault injection.
//!
//! Table 4 of the paper partitions each snapshot's domains by data
//! availability: *No Censys* (the IP never appears in scan data — owner
//! opt-out or persistent scanner blind spot), *No Port 25 Data* (scanned,
//! but the port was closed or the scan failed that day), and further
//! degradations (no valid certificate, no valid banner/EHLO). The fault
//! plan reproduces these modes deterministically from a seed so each
//! simulated snapshot has realistic, reproducible holes.
//!
//! v2 layers a composable chaos engine on top of the original coarse
//! modes: keyed DNS faults on the authority path (SERVFAIL, timeout,
//! truncation), SMTP session faults (mid-session drop after the banner,
//! EHLO tarpit, TLS handshake failure, garbled banner), and per-IP
//! flakiness profiles that modulate the transient failure rate. Every
//! decision is a pure function of `(key, epoch, attempt, seed)` — no
//! global state, no RNG streams — so a run is bit-identical under
//! `mx_par` at any thread count, and retries (higher `attempt`) re-draw
//! the coin instead of replaying the same failure forever.

use std::collections::{HashMap, HashSet};
use std::net::Ipv4Addr;

use mx_cert::{fnv1a, fnv1a_chunks};
use mx_dns::Name;

/// A fault injected on the DNS authority path as seen by the stub
/// resolver's transport.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DnsFault {
    /// The server answers with rcode SERVFAIL.
    ServFail,
    /// The query is dropped; the transport reports a timeout.
    Timeout,
    /// The response comes back with the TC bit set and an empty answer
    /// section (UDP truncation without a TCP fallback path).
    Truncation,
}

/// A fault injected into an SMTP session or scan attempt. `Transient`
/// is the pre-session connect-level coin; the rest corrupt an
/// established session in a specific, paper-relevant way.
///
/// This is the shared acquisition-fault vocabulary from `mx-acq` under
/// its measurement-side name; the plan never injects the DNS variant
/// here (DNS faults are [`DnsFault`] on the resolution path).
pub use mx_acq::AcqFault as ScanFault;

/// Keyed DNS fault rates, each in `[0, 1]`; their sum must be `<= 1`.
#[derive(Debug, Clone, Copy, Default)]
pub struct DnsFaults {
    /// Probability a query draws a SERVFAIL answer.
    pub servfail_rate: f64,
    /// Probability a query is dropped (timeout).
    pub timeout_rate: f64,
    /// Probability a response comes back truncated.
    pub truncation_rate: f64,
}

impl DnsFaults {
    /// No DNS faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// Total probability mass of any DNS fault.
    pub fn total(&self) -> f64 {
        self.servfail_rate + self.timeout_rate + self.truncation_rate
    }
}

/// Keyed SMTP session fault rates, each in `[0, 1]`; their sum must be
/// `<= 1`. Drawn once per established session (a single coin is
/// partitioned across the variants so at most one fires per attempt).
#[derive(Debug, Clone, Copy, Default)]
pub struct SmtpFaults {
    /// Probability the server drops the connection right after its banner.
    pub drop_after_banner_rate: f64,
    /// Probability the server tarpits the EHLO exchange.
    pub ehlo_tarpit_rate: f64,
    /// Probability the TLS handshake fails after STARTTLS is accepted.
    pub tls_handshake_rate: f64,
    /// Probability the banner arrives garbled.
    pub garbled_banner_rate: f64,
}

impl SmtpFaults {
    /// No SMTP session faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// Total probability mass of any session fault.
    pub fn total(&self) -> f64 {
        self.drop_after_banner_rate
            + self.ehlo_tarpit_rate
            + self.tls_handshake_rate
            + self.garbled_banner_rate
    }
}

/// Per-IP transient-failure behaviour overriding the plan-wide
/// `scan_failure_rate`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FlakinessProfile {
    /// The IP fails transiently at this fixed rate in every epoch.
    AlwaysFlaky {
        /// Per-attempt transient-failure probability.
        rate: f64,
    },
    /// The IP degrades over time: effective rate is
    /// `min(1, base + per_epoch * epoch)`. Models hosts that rot out of
    /// the population across the study window.
    Degrading {
        /// Failure rate at epoch 0.
        base: f64,
        /// Additional failure rate per epoch.
        per_epoch: f64,
    },
}

impl FlakinessProfile {
    /// Effective transient-failure rate at `epoch`.
    pub fn rate_at(&self, epoch: u64) -> f64 {
        match *self {
            FlakinessProfile::AlwaysFlaky { rate } => rate.clamp(0.0, 1.0),
            FlakinessProfile::Degrading { base, per_epoch } => {
                (base + per_epoch * epoch as f64).clamp(0.0, 1.0)
            }
        }
    }
}

/// Deterministic fault configuration (v2: layered chaos engine).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// IPs whose owner requested exclusion from scanning: they never appear
    /// in scan snapshots at all ("No Censys").
    pub blocked_ips: HashSet<Ipv4Addr>,
    /// IPs that never answer on the network (blackholed/unrouted).
    pub unreachable_ips: HashSet<Ipv4Addr>,
    /// Probability in `[0, 1]` that a given (ip, epoch) scan attempt fails
    /// transiently even though the host is up.
    pub scan_failure_rate: f64,
    /// Keyed faults on the DNS authority path.
    pub dns: DnsFaults,
    /// Keyed SMTP session faults.
    pub smtp: SmtpFaults,
    /// Per-IP flakiness overrides for the transient-failure coin.
    pub ip_profiles: HashMap<Ipv4Addr, FlakinessProfile>,
    /// Seed mixed into every deterministic coin flip.
    pub seed: u64,
}

/// Mixer folding a retry attempt into a coin's salt so each attempt
/// re-draws independently (odd multiplier: bijective over u64).
fn attempt_salt(salt: u64, attempt: u32) -> u64 {
    salt ^ (attempt as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when the plan can never inject anything.
    pub fn is_quiet(&self) -> bool {
        self.blocked_ips.is_empty()
            && self.unreachable_ips.is_empty()
            && self.scan_failure_rate == 0.0
            && self.dns.total() == 0.0
            && self.smtp.total() == 0.0
            && self.ip_profiles.is_empty()
    }

    /// Deterministic uniform draw in [0,1) for an IP-keyed event.
    fn coin(&self, ip: Ipv4Addr, epoch: u64, salt: u64) -> f64 {
        // seed and salt occupy disjoint ranges: 28-byte key
        // (ip 0..4, epoch 4..12, seed 12..20, salt 20..28).
        let mut key = [0u8; 28];
        key[..4].copy_from_slice(&ip.octets());
        key[4..12].copy_from_slice(&epoch.to_be_bytes());
        key[12..20].copy_from_slice(&self.seed.to_be_bytes());
        key[20..28].copy_from_slice(&salt.to_be_bytes());
        (fnv1a(&key) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Deterministic uniform draw in [0,1) for a name-keyed event (DNS
    /// names on the authority path): FNV-1a streamed over the name's
    /// dotted bytes, then epoch, seed and salt.
    fn coin_name(&self, name: &Name, epoch: u64, salt: u64) -> f64 {
        let tail = [
            epoch.to_be_bytes(),
            self.seed.to_be_bytes(),
            salt.to_be_bytes(),
        ];
        let h = fnv1a_chunks(name.dotted_chunks().chain(tail.iter().map(|b| &b[..])));
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Is this IP excluded from scanning entirely?
    pub fn is_blocked(&self, ip: Ipv4Addr) -> bool {
        self.blocked_ips.contains(&ip)
    }

    /// Is this IP unreachable on the network?
    pub fn is_unreachable(&self, ip: Ipv4Addr) -> bool {
        self.unreachable_ips.contains(&ip)
    }

    /// Effective transient-failure rate for `ip` at `epoch`: the
    /// flakiness profile when one is registered, otherwise the
    /// plan-wide `scan_failure_rate`.
    pub fn transient_rate(&self, ip: Ipv4Addr, epoch: u64) -> f64 {
        match self.ip_profiles.get(&ip) {
            Some(p) => p.rate_at(epoch),
            None => self.scan_failure_rate,
        }
    }

    /// Does the scan of `ip` in scan round `epoch` fail transiently?
    /// (First attempt; retries should use [`FaultPlan::scan_fails_attempt`].)
    pub fn scan_fails(&self, ip: Ipv4Addr, epoch: u64) -> bool {
        self.scan_fails_attempt(ip, epoch, 0)
    }

    /// Does scan attempt number `attempt` (0-based) of `ip` in round
    /// `epoch` fail transiently? Each attempt is an independent draw at
    /// the same effective rate, so bounded retries can recover.
    pub fn scan_fails_attempt(&self, ip: Ipv4Addr, epoch: u64, attempt: u32) -> bool {
        let rate = self.transient_rate(ip, epoch);
        if rate <= 0.0 {
            return false;
        }
        mx_obs::counter!(mx_obs::names::FAULT_SCAN_COINS).incr();
        let fired = self.coin(ip, epoch, attempt_salt(0xC0FFEE, attempt)) < rate;
        if fired {
            mx_obs::counter!(mx_obs::names::FAULT_SCAN_FIRED).incr();
        }
        fired
    }

    /// Which DNS fault, if any, hits the query for `qname` in round
    /// `epoch` on transport attempt `attempt`? One coin partitioned
    /// across the variants: at most one fault per attempt.
    pub fn dns_fault(&self, qname: &Name, epoch: u64, attempt: u32) -> Option<DnsFault> {
        if self.dns.total() <= 0.0 {
            return None;
        }
        mx_obs::counter!(mx_obs::names::FAULT_DNS_COINS).incr();
        let draw = self.coin_name(qname, epoch, attempt_salt(0xD0D0_D115, attempt));
        if draw < self.dns.total() {
            mx_obs::counter!(mx_obs::names::FAULT_DNS_FIRED).incr();
        }
        if draw < self.dns.servfail_rate {
            Some(DnsFault::ServFail)
        } else if draw < self.dns.servfail_rate + self.dns.timeout_rate {
            Some(DnsFault::Timeout)
        } else if draw < self.dns.total() {
            Some(DnsFault::Truncation)
        } else {
            None
        }
    }

    /// Which SMTP session fault, if any, hits the session with `ip` in
    /// round `epoch` on attempt `attempt`? One coin partitioned across
    /// the variants: at most one fault per attempt.
    pub fn smtp_fault(&self, ip: Ipv4Addr, epoch: u64, attempt: u32) -> Option<ScanFault> {
        if self.smtp.total() <= 0.0 {
            return None;
        }
        mx_obs::counter!(mx_obs::names::FAULT_SMTP_COINS).incr();
        let draw = self.coin(ip, epoch, attempt_salt(0x5E55_10F4, attempt));
        if draw < self.smtp.total() {
            mx_obs::counter!(mx_obs::names::FAULT_SMTP_FIRED).incr();
        }
        let s = &self.smtp;
        if draw < s.drop_after_banner_rate {
            Some(ScanFault::DropAfterBanner)
        } else if draw < s.drop_after_banner_rate + s.ehlo_tarpit_rate {
            Some(ScanFault::EhloTarpit)
        } else if draw < s.drop_after_banner_rate + s.ehlo_tarpit_rate + s.tls_handshake_rate {
            Some(ScanFault::TlsHandshake)
        } else if draw < s.total() {
            Some(ScanFault::GarbledBanner)
        } else {
            None
        }
    }
}

/// A fault injected into one serving-side transport connection.
///
/// This extends the plan's pure-coin style from the *measurement*
/// transports (DNS/SMTP) to the *serving* transport (`mx-serve`): the
/// same mail-measurement system that tolerates dead primaries and
/// tarpitting banners must also survive slow, broken and hostile HTTP
/// clients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConnFault {
    /// The client's bytes arrive one at a time (segment boundaries are
    /// shredded but timing is unchanged) — a benign fault: a correct
    /// incremental parser must produce byte-identical responses.
    Dribble,
    /// The client disconnects mid-request after a coin-chosen fraction
    /// of its bytes.
    Disconnect,
    /// The client leads with a burst of garbage bytes before (what
    /// would have been) its request.
    Garbage,
    /// The client sends a request prefix and then stalls forever
    /// (slowloris); the server's read deadline must evict it.
    Stall,
}

/// Keyed connection fault rates, each in `[0, 1]`; their sum must be
/// `<= 1`. One coin per connection, partitioned across the variants.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConnFaults {
    /// Probability a connection's bytes are dribbled one at a time.
    pub dribble_rate: f64,
    /// Probability the client disconnects mid-request.
    pub disconnect_rate: f64,
    /// Probability the client leads with garbage bytes.
    pub garbage_rate: f64,
    /// Probability the client stalls mid-request without closing.
    pub stall_rate: f64,
}

impl ConnFaults {
    /// No connection faults.
    pub fn none() -> Self {
        Self::default()
    }

    /// Total probability mass of any connection fault.
    pub fn total(&self) -> f64 {
        self.dribble_rate + self.disconnect_rate + self.garbage_rate + self.stall_rate
    }
}

/// Deterministic chaos plan for serving-side connections. Every
/// decision is a pure function of `(conn_id, seed)` — same coin
/// discipline as [`FaultPlan`], so a replayed request trace draws the
/// identical fault set at any thread count.
#[derive(Debug, Clone, Copy, Default)]
pub struct ConnFaultPlan {
    /// Keyed connection fault rates.
    pub conn: ConnFaults,
    /// Seed mixed into every coin flip.
    pub seed: u64,
}

impl ConnFaultPlan {
    /// A plan that never injects anything.
    pub fn none() -> Self {
        Self::default()
    }

    /// Uniform rates: total mass `rate`, split evenly across the four
    /// variants — the shape the chaos sweep in `scripts/ci.sh` uses.
    pub fn uniform(rate: f64, seed: u64) -> Self {
        let quarter = rate.clamp(0.0, 1.0) / 4.0;
        ConnFaultPlan {
            conn: ConnFaults {
                dribble_rate: quarter,
                disconnect_rate: quarter,
                garbage_rate: quarter,
                stall_rate: quarter,
            },
            seed,
        }
    }

    /// True when the plan can never inject anything.
    pub fn is_quiet(&self) -> bool {
        self.conn.total() == 0.0
    }

    /// Deterministic uniform draw in [0,1) for a connection-keyed event.
    fn coin(&self, conn_id: u64, salt: u64) -> f64 {
        let mut key = [0u8; 24];
        key[..8].copy_from_slice(&conn_id.to_be_bytes());
        key[8..16].copy_from_slice(&self.seed.to_be_bytes());
        key[16..24].copy_from_slice(&salt.to_be_bytes());
        (fnv1a(&key) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Which fault, if any, hits connection `conn_id`? One coin
    /// partitioned across the variants: at most one fault per
    /// connection.
    pub fn conn_fault(&self, conn_id: u64) -> Option<ConnFault> {
        if self.conn.total() <= 0.0 {
            return None;
        }
        mx_obs::counter!(mx_obs::names::FAULT_CONN_COINS).incr();
        let draw = self.coin(conn_id, 0xC0_11EC7);
        if draw < self.conn.total() {
            mx_obs::counter!(mx_obs::names::FAULT_CONN_FIRED).incr();
        }
        let c = &self.conn;
        if draw < c.dribble_rate {
            Some(ConnFault::Dribble)
        } else if draw < c.dribble_rate + c.disconnect_rate {
            Some(ConnFault::Disconnect)
        } else if draw < c.dribble_rate + c.disconnect_rate + c.garbage_rate {
            Some(ConnFault::Garbage)
        } else if draw < c.total() {
            Some(ConnFault::Stall)
        } else {
            None
        }
    }

    /// Deterministic cut fraction in [0.1, 0.9] for `Disconnect` and
    /// `Stall`: how much of the client's byte stream survives.
    pub fn cut_fraction(&self, conn_id: u64) -> f64 {
        0.1 + 0.8 * self.coin(conn_id, 0xD15C_0111)
    }

    /// Deterministic garbage prefix for `Garbage` connections: between
    /// 1 and 32 bytes derived from the coin stream, never containing
    /// CR/LF (so the garbage corrupts the request line instead of
    /// terminating it).
    pub fn garbage_bytes(&self, conn_id: u64) -> Vec<u8> {
        let len = 1 + (self.coin(conn_id, 0x6A8_BA6E) * 31.0).floor() as usize;
        let mut out = Vec::with_capacity(32);
        for i in 0..len {
            let draw = self.coin(conn_id, 0x6A8_0000 ^ i as u64);
            let b = 0x80u8.wrapping_add(((draw * 120.0).floor() as u64 & 0x7F) as u8);
            out.push(b);
        }
        out
    }
}

/// Serialises this crate's tests that draw DNS coins at non-zero rates,
/// so one that turns obs on can count `FAULT_DNS_COINS` undisturbed.
#[cfg(test)]
pub(crate) fn dns_coin_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    #[test]
    fn block_and_unreachable_sets() {
        let mut p = FaultPlan::none();
        p.blocked_ips.insert(ip("192.0.2.1"));
        p.unreachable_ips.insert(ip("192.0.2.2"));
        assert!(p.is_blocked(ip("192.0.2.1")));
        assert!(!p.is_blocked(ip("192.0.2.2")));
        assert!(p.is_unreachable(ip("192.0.2.2")));
        assert!(!p.is_quiet());
        assert!(FaultPlan::none().is_quiet());
    }

    #[test]
    fn scan_failure_deterministic() {
        let p = FaultPlan {
            scan_failure_rate: 0.5,
            seed: 7,
            ..FaultPlan::none()
        };
        let a = p.scan_fails(ip("10.0.0.1"), 3);
        for _ in 0..10 {
            assert_eq!(p.scan_fails(ip("10.0.0.1"), 3), a);
        }
    }

    #[test]
    fn scan_failure_rate_approximate() {
        let p = FaultPlan {
            scan_failure_rate: 0.2,
            seed: 42,
            ..FaultPlan::none()
        };
        let mut fails = 0;
        let n = 10_000;
        for i in 0..n {
            let addr = Ipv4Addr::from(0x0a00_0000u32 + i);
            if p.scan_fails(addr, 0) {
                fails += 1;
            }
        }
        let rate = fails as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.02, "observed {rate}");
    }

    #[test]
    fn zero_rate_never_fails() {
        let p = FaultPlan::none();
        assert!(!p.scan_fails(ip("10.0.0.1"), 0));
    }

    #[test]
    fn different_epochs_differ() {
        let p = FaultPlan {
            scan_failure_rate: 0.5,
            seed: 1,
            ..FaultPlan::none()
        };
        // Across many IPs, epoch 0 and epoch 1 decisions must not be
        // identical wholesale.
        let mut diff = 0;
        for i in 0..1000u32 {
            let addr = Ipv4Addr::from(0x0b00_0000 + i);
            if p.scan_fails(addr, 0) != p.scan_fails(addr, 1) {
                diff += 1;
            }
        }
        assert!(diff > 100, "only {diff} decisions changed across epochs");
    }

    /// Regression for the v1 key-overlap bug: seed bytes 12..20 and
    /// salt bytes 16..24 overlapped, so the salt clobbered the low half
    /// of the seed. Two seeds sharing a high half but differing in the
    /// low half must produce different draw sets.
    #[test]
    fn seeds_differing_only_in_low_half_produce_different_draws() {
        let mk = |seed: u64| FaultPlan {
            scan_failure_rate: 0.5,
            seed,
            ..FaultPlan::none()
        };
        // Same high 32 bits, different low 32 bits: under the buggy
        // 24-byte key these were indistinguishable for every salted coin.
        let a = mk(0x1234_5678_0000_0001);
        let b = mk(0x1234_5678_0000_0002);
        let mut diff = 0;
        for i in 0..1000u32 {
            let addr = Ipv4Addr::from(0x0c00_0000 + i);
            if a.scan_fails(addr, 0) != b.scan_fails(addr, 0) {
                diff += 1;
            }
        }
        assert!(diff > 100, "only {diff} decisions changed between seeds");
    }

    #[test]
    fn attempts_redraw_independently() {
        let p = FaultPlan {
            scan_failure_rate: 0.5,
            seed: 3,
            ..FaultPlan::none()
        };
        // With three attempts at rate 0.5, nearly all IPs should see at
        // least one success and at least one failure somewhere.
        let mut recovered = 0;
        let mut failed_once = 0;
        for i in 0..1000u32 {
            let addr = Ipv4Addr::from(0x0d00_0000 + i);
            let fails: Vec<bool> = (0..3).map(|a| p.scan_fails_attempt(addr, 0, a)).collect();
            if fails[0] {
                failed_once += 1;
                if !fails.iter().all(|&f| f) {
                    recovered += 1;
                }
            }
        }
        assert!(failed_once > 300, "first-attempt failures: {failed_once}");
        // P(recover | first failed) = 1 - 0.25 = 0.75.
        assert!(
            recovered as f64 / failed_once as f64 > 0.6,
            "{recovered}/{failed_once} recovered"
        );
    }

    #[test]
    fn dns_fault_partition_and_determinism() {
        let _coins = dns_coin_guard();
        let p = FaultPlan {
            dns: DnsFaults {
                servfail_rate: 0.2,
                timeout_rate: 0.2,
                truncation_rate: 0.2,
            },
            seed: 9,
            ..FaultPlan::none()
        };
        let mut counts = HashMap::new();
        for i in 0..3000 {
            let name = mx_dns::dns_name!(&format!("mx{i}.example.com"));
            let f = p.dns_fault(&name, 0, 0);
            assert_eq!(f, p.dns_fault(&name, 0, 0), "non-deterministic draw");
            *counts.entry(f).or_insert(0usize) += 1;
        }
        // Each bucket should land near rate 0.2 of 3000 = 600.
        for fault in [DnsFault::ServFail, DnsFault::Timeout, DnsFault::Truncation] {
            let n = counts.get(&Some(fault)).copied().unwrap_or(0);
            assert!((400..800).contains(&n), "{fault:?}: {n}");
        }
        let clean = counts.get(&None).copied().unwrap_or(0);
        assert!((1000..1400).contains(&clean), "clean: {clean}");
        // Quiet plan never faults.
        assert_eq!(
            FaultPlan::none().dns_fault(&mx_dns::dns_name!("a.example"), 0, 0),
            None
        );
    }

    #[test]
    fn smtp_fault_partition() {
        let p = FaultPlan {
            smtp: SmtpFaults {
                drop_after_banner_rate: 0.1,
                ehlo_tarpit_rate: 0.1,
                tls_handshake_rate: 0.1,
                garbled_banner_rate: 0.1,
            },
            seed: 11,
            ..FaultPlan::none()
        };
        let mut counts = HashMap::new();
        for i in 0..4000u32 {
            let addr = Ipv4Addr::from(0x0e00_0000 + i);
            *counts.entry(p.smtp_fault(addr, 2, 0)).or_insert(0usize) += 1;
        }
        for fault in [
            ScanFault::DropAfterBanner,
            ScanFault::EhloTarpit,
            ScanFault::TlsHandshake,
            ScanFault::GarbledBanner,
        ] {
            let n = counts.get(&Some(fault)).copied().unwrap_or(0);
            assert!((250..550).contains(&n), "{fault:?}: {n}");
        }
        assert_eq!(FaultPlan::none().smtp_fault(ip("10.1.1.1"), 0, 0), None);
    }

    #[test]
    fn conn_fault_partition_and_determinism() {
        let p = ConnFaultPlan::uniform(0.4, 13);
        let mut counts = HashMap::new();
        for id in 0..4000u64 {
            let f = p.conn_fault(id);
            assert_eq!(f, p.conn_fault(id), "non-deterministic draw");
            *counts.entry(f).or_insert(0usize) += 1;
        }
        for fault in [
            ConnFault::Dribble,
            ConnFault::Disconnect,
            ConnFault::Garbage,
            ConnFault::Stall,
        ] {
            let n = counts.get(&Some(fault)).copied().unwrap_or(0);
            assert!((250..550).contains(&n), "{fault:?}: {n}");
        }
        assert_eq!(ConnFaultPlan::none().conn_fault(7), None);
        assert!(ConnFaultPlan::none().is_quiet());
        assert!(!p.is_quiet());
    }

    #[test]
    fn conn_fault_helpers_bounded_and_deterministic() {
        let p = ConnFaultPlan::uniform(1.0, 99);
        for id in 0..500u64 {
            let f = p.cut_fraction(id);
            assert!((0.1..=0.9).contains(&f), "cut fraction {f}");
            assert_eq!(p.cut_fraction(id), f);
            let g = p.garbage_bytes(id);
            assert!((1..=32).contains(&g.len()), "garbage len {}", g.len());
            assert!(g.iter().all(|&b| b != b'\r' && b != b'\n'));
            assert_eq!(p.garbage_bytes(id), g);
        }
    }

    #[test]
    fn flakiness_profiles_override_plan_rate() {
        let mut p = FaultPlan {
            scan_failure_rate: 0.0,
            seed: 5,
            ..FaultPlan::none()
        };
        p.ip_profiles
            .insert(ip("10.9.9.9"), FlakinessProfile::AlwaysFlaky { rate: 1.0 });
        p.ip_profiles.insert(
            ip("10.9.9.10"),
            FlakinessProfile::Degrading {
                base: 0.0,
                per_epoch: 0.5,
            },
        );
        // AlwaysFlaky at rate 1.0 fails every attempt in every epoch.
        for attempt in 0..4 {
            assert!(p.scan_fails_attempt(ip("10.9.9.9"), 0, attempt));
            assert!(p.scan_fails_attempt(ip("10.9.9.9"), 7, attempt));
        }
        // Degrading: rate 0 at epoch 0, rate 1 from epoch 2 on.
        assert!(!p.scan_fails(ip("10.9.9.10"), 0));
        assert!(p.scan_fails(ip("10.9.9.10"), 2));
        assert_eq!(p.transient_rate(ip("10.9.9.10"), 1), 0.5);
        // Unprofiled IPs keep the plan-wide rate (zero here).
        assert!(!p.scan_fails(ip("10.0.0.1"), 0));
    }

    /// Outcome codes of `dns_fault` over a fixed (seed, name, epoch,
    /// attempt) grid: 0 none, 1 SERVFAIL, 2 timeout, 3 truncation. The
    /// pinned digest fixes the coin's key bytes (dotted name, epoch,
    /// seed, salt), so chaos runs replay identically across commits.
    fn dns_fault_grid() -> Vec<u8> {
        let mut codes = Vec::new();
        for seed in [1, 9, 0xDEAD_BEEF] {
            let p = FaultPlan {
                dns: DnsFaults {
                    servfail_rate: 0.1,
                    timeout_rate: 0.1,
                    truncation_rate: 0.1,
                },
                seed,
                ..FaultPlan::none()
            };
            for i in 0..64 {
                let name = mx_dns::Name::parse(&format!("MX{i}.Example{}.com", i % 7)).unwrap();
                for epoch in [0, 17_000] {
                    for attempt in 0..3 {
                        codes.push(match p.dns_fault(&name, epoch, attempt) {
                            None => 0,
                            Some(DnsFault::ServFail) => 1,
                            Some(DnsFault::Timeout) => 2,
                            Some(DnsFault::Truncation) => 3,
                        });
                    }
                }
            }
        }
        codes
    }

    #[test]
    fn dns_fault_draws_are_pinned() {
        let _coins = dns_coin_guard();
        let codes = dns_fault_grid();
        let mut counts = [0usize; 4];
        for &c in &codes {
            counts[usize::from(c)] += 1;
        }
        assert_eq!(codes.len(), 3 * 64 * 2 * 3);
        assert_eq!(
            (counts, fnv1a(&codes)),
            ([808, 105, 102, 137], 0x5a99_ada5_7983_6dc9)
        );
    }

    #[test]
    fn zero_dns_rates_draw_no_coins() {
        let _coins = dns_coin_guard();
        let quiet = FaultPlan {
            scan_failure_rate: 0.5,
            seed: 3,
            ..FaultPlan::none()
        };
        let name = mx_dns::dns_name!("mx.example.com");
        let coins = || mx_obs::counter!(mx_obs::names::FAULT_DNS_COINS).value();
        mx_obs::set_enabled(true);
        let before = coins();
        for attempt in 0..64 {
            assert_eq!(quiet.dns_fault(&name, 7, attempt), None);
        }
        let after = coins();
        // Positive control: the counter moves once rates are non-zero.
        let mut loud = quiet.clone();
        loud.dns.timeout_rate = 0.5;
        let _ = loud.dns_fault(&name, 7, 0);
        let control = coins();
        mx_obs::set_enabled(false);
        assert_eq!(after, before, "a zero-rate plan drew DNS coins");
        assert_eq!(control, after + 1, "the coin counter did not record a draw");
    }
}
