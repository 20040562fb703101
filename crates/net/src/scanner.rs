//! The Censys-like Internet scanner.
//!
//! For every target IP the scanner opens a real SMTP session over the
//! simulated network, records the banner, sends EHLO, records the response,
//! attempts STARTTLS when advertised, records the presented certificate
//! chain, and politely QUITs. Coverage gaps (owner opt-outs, transient
//! failures, closed ports) mirror the modes the paper attributes to Censys
//! in §4.2.2 and Table 4.
//!
//! The acquisition layer is resilient: transient connect failures and
//! data-losing session faults are retried inside a bounded budget
//! (`MAX_SCAN_ATTEMPTS`), with deterministic exponential backoff charged
//! to the simulated clock, and every observation records how many
//! attempts it cost and which fault (if any) degraded it.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use mx_acq::{AcqFault, IpAcquisition};
pub use mx_smtp::PortState;
use mx_smtp::{ClientError, Extension, SmtpClient, SmtpScanData, StartTlsFailure, StartTlsOutcome};

use crate::fault::ScanFault;
use crate::simnet::{ConnectError, SimNet};

/// Maximum connection attempts per (ip, round): 1 initial + 2 retries.
pub const MAX_SCAN_ATTEMPTS: u32 = 3;

/// Base backoff charged to the simulated clock before retry `n`
/// (doubles per retry: 2s, 4s, ...).
pub const SCAN_BACKOFF_SECS: u64 = 2;

/// Simulated cost of giving up on a tarpitted EHLO exchange.
pub const TARPIT_COST_SECS: u64 = 300;

/// One IP's observation plus its acquisition accounting: how many
/// attempts it took, which injected fault (if any) is reflected in the
/// data, and whether an earlier failed attempt was recovered by a retry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanObservation {
    /// The observed port state.
    pub state: PortState,
    /// Connection attempts consumed (1 = clean first try).
    pub attempts: u32,
    /// The fault that degraded this observation, or — when `recovered`
    /// — the fault the retries healed.
    pub fault: Option<ScanFault>,
    /// True when an earlier attempt failed but a later one captured the
    /// returned data.
    pub recovered: bool,
}

impl ScanObservation {
    /// A clean single-attempt observation (used by tests and merges).
    pub fn clean(state: PortState) -> Self {
        ScanObservation {
            state,
            attempts: 1,
            fault: None,
            recovered: false,
        }
    }
}

/// Why an IP is absent from a snapshot's results, and how hard the
/// scanner tried — Table 4's "No Censys" bucket, split into "never
/// attempted" vs "attempted and exhausted the retry budget".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Missed {
    /// Owner opt-out: the scanner never attempts the IP.
    Blocked,
    /// Every attempt in the budget failed transiently.
    Exhausted {
        /// Attempts consumed before giving up.
        attempts: u32,
    },
}

/// One scan round's results. IPs absent from `results` were not covered at
/// all (blocked by owner request, or the scanner exhausted its retry
/// budget that round) — the "No Censys" bucket; `missed` records which
/// of the two it was.
#[derive(Debug, Clone, Default)]
pub struct ScanSnapshot {
    /// Scan round number (one per simulated snapshot date).
    pub epoch: u64,
    /// Per-IP observations; absent IPs were not covered at all.
    pub results: BTreeMap<Ipv4Addr, ScanObservation>,
    /// Why each uncovered-but-targeted IP is missing.
    pub missed: BTreeMap<Ipv4Addr, Missed>,
}

impl ScanSnapshot {
    /// Was the IP covered by this scan at all?
    pub fn covered(&self, ip: Ipv4Addr) -> bool {
        self.results.contains_key(&ip)
    }

    /// The port state, if covered.
    pub fn get(&self, ip: Ipv4Addr) -> Option<&PortState> {
        self.results.get(&ip).map(|o| &o.state)
    }

    /// The full observation (state + acquisition accounting), if covered.
    pub fn observation(&self, ip: Ipv4Addr) -> Option<&ScanObservation> {
        self.results.get(&ip)
    }

    /// Application data for an IP, if the port was open and spoke SMTP.
    pub fn data(&self, ip: Ipv4Addr) -> Option<&SmtpScanData> {
        self.get(ip).and_then(PortState::data)
    }

    /// The acquisition accounting behind `ip`'s row: the attempts and
    /// fault of a covered address, or why an uncovered one is missing.
    /// An address the scan never reached reads as blocked: no attempt
    /// on it ever completed.
    pub fn acquisition(&self, ip: Ipv4Addr) -> IpAcquisition {
        if let Some(o) = self.results.get(&ip) {
            return IpAcquisition {
                attempts: o.attempts,
                recovered: o.recovered,
                exhausted: false,
                blocked: false,
                fault: o.fault,
            };
        }
        match self.missed.get(&ip) {
            Some(Missed::Exhausted { attempts }) => IpAcquisition {
                attempts: *attempts,
                recovered: false,
                exhausted: true,
                blocked: false,
                fault: Some(AcqFault::Transient),
            },
            Some(Missed::Blocked) | None => IpAcquisition {
                attempts: 0,
                recovered: false,
                exhausted: false,
                blocked: true,
                fault: None,
            },
        }
    }

    /// Count of IPs with open, speaking SMTP servers.
    pub fn open_count(&self) -> usize {
        self.results
            .values()
            .filter(|o| matches!(o.state, PortState::Open(_)))
            .count()
    }
}

/// The scanner. Stateless besides configuration.
#[derive(Debug, Clone)]
pub struct Scanner {
    /// The client identity used in EHLO (Censys scans identify themselves).
    pub ehlo_name: String,
    /// Number of worker threads for large scans; `0` (the default)
    /// inherits the shared pool's configuration (`MX_THREADS` or an
    /// enclosing `mx_par::install`).
    pub parallelism: usize,
}

impl Default for Scanner {
    fn default() -> Self {
        Scanner {
            ehlo_name: "scanner.sim.internal".into(),
            parallelism: 0,
        }
    }
}

/// Trace tag for a scanned IP: the address itself (fits in 32 bits, so
/// the JSON f64 round-trips exactly), pure and thread-invariant.
fn ip_trace_tag(ip: Ipv4Addr) -> u64 {
    u64::from(u32::from(ip))
}

impl Scanner {
    /// A scanner with default identity and parallelism.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scan one IP, honouring the fault plan, retrying transient and
    /// data-losing session faults inside the attempt budget.
    ///
    /// `Err` means the IP is not covered this round ("No Censys"), and
    /// says whether that was an opt-out or an exhausted budget.
    pub fn scan_ip(
        &self,
        net: &SimNet,
        ip: Ipv4Addr,
        epoch: u64,
    ) -> Result<ScanObservation, Missed> {
        let _obs = mx_obs::stage!(
            mx_obs::names::STAGE_NET_SCAN_IP,
            mx_obs::names::STAGE_NET_SCAN
        )
        .enter_tagged(net.clock().now().secs(), ip_trace_tag(ip));
        let outcome = self.scan_ip_inner(net, ip, epoch);
        record_scan_outcome(&outcome);
        outcome
    }

    /// [`Self::scan_ip`] without the observability wrapper.
    fn scan_ip_inner(
        &self,
        net: &SimNet,
        ip: Ipv4Addr,
        epoch: u64,
    ) -> Result<ScanObservation, Missed> {
        let faults = net.faults();
        if faults.is_blocked(ip) {
            return Err(Missed::Blocked);
        }
        let clock = net.clock();
        // The fault the retries are currently working around; reported
        // as `fault` on the final observation.
        let mut pending: Option<ScanFault> = None;
        // Best degraded capture so far, returned if the budget runs out
        // before a clean session.
        let mut degraded: Option<(PortState, ScanFault)> = None;
        let mut attempt = 0u32;
        while attempt < MAX_SCAN_ATTEMPTS {
            if attempt > 0 {
                let backoff = SCAN_BACKOFF_SECS << (attempt - 1);
                clock.charge(backoff);
                mx_obs::counter!(mx_obs::names::NET_SCAN_BACKOFF_SIM_SECS).add(backoff);
                mx_obs::stage!(
                    mx_obs::names::STAGE_NET_SCAN_IP,
                    mx_obs::names::STAGE_NET_SCAN
                )
                .charge_sim_tagged(backoff, clock.now().secs(), ip_trace_tag(ip));
            }
            let attempts = attempt + 1;
            let recovered = attempt > 0;
            if faults.scan_fails_attempt(ip, epoch, attempt) {
                pending = Some(ScanFault::Transient);
                attempt += 1;
                continue;
            }
            let conn = match net.connect_smtp(ip) {
                Ok(c) => c,
                // Host-level outcomes are stable across retries in the
                // simulation: treat them as definitive.
                Err(ConnectError::NoRoute(_))
                | Err(ConnectError::Unreachable(_))
                | Err(ConnectError::PortClosed(_)) => {
                    return Ok(ScanObservation {
                        state: PortState::Closed,
                        attempts,
                        fault: pending,
                        recovered,
                    });
                }
            };
            let session_fault = faults.smtp_fault(ip, epoch, attempt);
            let (mut client, _greeted_ok) = match SmtpClient::connect_raw(conn) {
                Ok(pair) => pair,
                Err(_) => {
                    return Ok(ScanObservation {
                        state: PortState::NoBanner,
                        attempts,
                        fault: pending,
                        recovered,
                    });
                }
            };
            let banner = strip_code(client.banner());
            match session_fault {
                Some(f @ ScanFault::GarbledBanner) => {
                    // The greeting arrives mangled: no usable hostname,
                    // no trustworthy session to continue.
                    let data = SmtpScanData {
                        banner: garbled_banner(ip, epoch),
                        ehlo: None,
                        ehlo_keywords: Vec::new(),
                        starttls: StartTlsOutcome::NotOffered,
                    };
                    degraded = Some((PortState::Open(data), f));
                    pending = Some(f);
                    attempt += 1;
                    continue;
                }
                Some(f @ (ScanFault::DropAfterBanner | ScanFault::EhloTarpit)) => {
                    if f == ScanFault::EhloTarpit {
                        clock.charge(TARPIT_COST_SECS);
                        mx_obs::counter!(mx_obs::names::NET_SCAN_TARPIT_SIM_SECS)
                            .add(TARPIT_COST_SECS);
                        mx_obs::stage!(
                            mx_obs::names::STAGE_NET_SCAN_IP,
                            mx_obs::names::STAGE_NET_SCAN
                        )
                        .charge_sim_tagged(TARPIT_COST_SECS, clock.now().secs(), ip_trace_tag(ip));
                    }
                    let data = SmtpScanData {
                        banner,
                        ehlo: None,
                        ehlo_keywords: Vec::new(),
                        starttls: StartTlsOutcome::NotOffered,
                    };
                    degraded = Some((PortState::Open(data), f));
                    pending = Some(f);
                    attempt += 1;
                    continue;
                }
                _ => {}
            }
            let mut data = SmtpScanData {
                banner,
                ehlo: None,
                ehlo_keywords: Vec::new(),
                starttls: StartTlsOutcome::NotOffered,
            };
            match client.ehlo(&self.ehlo_name) {
                Ok((reply, extensions)) => {
                    data.ehlo = Some(reply.lines[0].clone());
                    data.ehlo_keywords = reply.lines[1..].to_vec();
                    if extensions.contains(&Extension::StartTls) {
                        if session_fault == Some(ScanFault::TlsHandshake) {
                            // Injected handshake failure. Not retried:
                            // the captured banner/EHLO data is the
                            // paper's fallback path, and the retry
                            // budget is reserved for data-losing faults.
                            data.starttls = StartTlsOutcome::Failed {
                                reason: StartTlsFailure::Handshake,
                            };
                            let _ = client.quit();
                            return Ok(ScanObservation {
                                state: PortState::Open(data),
                                attempts,
                                fault: Some(ScanFault::TlsHandshake),
                                recovered,
                            });
                        }
                        data.starttls = match client.starttls() {
                            Ok(chain) => StartTlsOutcome::Completed { chain },
                            Err(ClientError::TlsFailed(Some(_))) => StartTlsOutcome::Failed {
                                reason: StartTlsFailure::Refused,
                            },
                            Err(ClientError::TlsFailed(None)) => StartTlsOutcome::Failed {
                                reason: StartTlsFailure::Handshake,
                            },
                            Err(_) => StartTlsOutcome::Failed {
                                reason: StartTlsFailure::Transport,
                            },
                        };
                    }
                }
                Err(_) => {
                    // Banner captured; EHLO failed organically (server
                    // quirk). Deterministic server behaviour — retrying
                    // cannot improve it.
                }
            }
            let _ = client.quit();
            return Ok(ScanObservation {
                state: PortState::Open(data),
                attempts,
                fault: pending,
                recovered,
            });
        }
        // Budget exhausted. A degraded capture beats nothing.
        match degraded {
            Some((state, f)) => Ok(ScanObservation {
                state,
                attempts: MAX_SCAN_ATTEMPTS,
                fault: Some(f),
                recovered: false,
            }),
            None => Err(Missed::Exhausted {
                attempts: MAX_SCAN_ATTEMPTS,
            }),
        }
    }

    /// Scan a set of IPs, fanning out over the shared `mx_par` pool when
    /// large. Each IP's result depends only on `(ip, epoch)` and the
    /// immutable network, so the snapshot is identical to a serial scan
    /// at any thread count.
    pub fn scan(&self, net: &SimNet, ips: &[Ipv4Addr], epoch: u64) -> ScanSnapshot {
        let _obs = mx_obs::stage!(
            mx_obs::names::STAGE_NET_SCAN,
            mx_obs::names::STAGE_OBSERVE_SCAN
        )
        .enter();
        let mut snapshot = ScanSnapshot {
            epoch,
            results: BTreeMap::new(),
            missed: BTreeMap::new(),
        };
        let threads = if self.parallelism == 0 {
            mx_par::threads()
        } else {
            self.parallelism
        };
        if ips.len() < 256 || threads <= 1 {
            for &ip in ips {
                match self.scan_ip(net, ip, epoch) {
                    Ok(obs) => {
                        snapshot.results.insert(ip, obs);
                    }
                    Err(miss) => {
                        snapshot.missed.insert(ip, miss);
                    }
                }
            }
            return snapshot;
        }
        let results = mx_par::install(threads, || {
            mx_par::par_map(ips, |&ip| (ip, self.scan_ip(net, ip, epoch)))
        });
        for (ip, outcome) in results {
            match outcome {
                Ok(obs) => {
                    snapshot.results.insert(ip, obs);
                }
                Err(miss) => {
                    snapshot.missed.insert(ip, miss);
                }
            }
        }
        snapshot
    }

    /// Scan every SMTP-capable host attached to the network (plus any
    /// explicitly provided silent hosts are naturally covered through
    /// `host_ips`). This is the "Internet-wide" sweep.
    pub fn sweep(&self, net: &SimNet, epoch: u64) -> ScanSnapshot {
        let mut ips: Vec<Ipv4Addr> = net.host_ips().collect();
        ips.sort();
        self.scan(net, &ips, epoch)
    }
}

/// The banner/EHLO text without the reply code prefix.
fn strip_code(reply: &mx_smtp::Reply) -> String {
    reply.first_line().to_string()
}

/// Record one `scan_ip` outcome into the observability layer. Attempt
/// totals mirror the acquisition accounting exactly (the obs_gate test
/// reconciles the two).
fn record_scan_outcome(outcome: &Result<ScanObservation, Missed>) {
    let attempts = mx_obs::counter!(mx_obs::names::NET_SCAN_ATTEMPTS);
    let per_ip = mx_obs::histogram!(
        mx_obs::names::NET_SCAN_ATTEMPTS_PER_IP,
        mx_obs::names::NET_SCAN_ATTEMPTS_BOUNDS
    );
    match outcome {
        Ok(obs) => {
            attempts.add(obs.attempts as u64);
            per_ip.observe(obs.attempts as u64);
            if obs.recovered {
                mx_obs::counter!(mx_obs::names::NET_SCAN_RECOVERED).incr();
            }
            let tls_failed = obs.state.data().is_some_and(|d| {
                matches!(
                    d.starttls,
                    StartTlsOutcome::Failed {
                        reason: StartTlsFailure::Handshake,
                    }
                )
            });
            if tls_failed {
                mx_obs::counter!(mx_obs::names::NET_SCAN_TLS_FAILED).incr();
            }
        }
        Err(Missed::Blocked) => {
            mx_obs::counter!(mx_obs::names::NET_SCAN_BLOCKED).incr();
        }
        Err(Missed::Exhausted { attempts: n }) => {
            attempts.add(*n as u64);
            per_ip.observe(*n as u64);
            mx_obs::counter!(mx_obs::names::NET_SCAN_EXHAUSTED).incr();
        }
    }
}

/// Deterministic mangled greeting for an injected garbled-banner fault:
/// contains control bytes and no valid hostname token.
fn garbled_banner(ip: Ipv4Addr, epoch: u64) -> String {
    format!("\u{1}\u{2}\u{7f}x{ip}#{epoch}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FlakinessProfile, SmtpFaults};
    use mx_cert::{CertificateBuilder, KeyId};
    use mx_dns::SimClock;
    use mx_smtp::{ServerQuirks, SmtpServerConfig};

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn net_with_hosts() -> SimNet {
        let mut b = SimNet::builder(SimClock::new());
        // TLS-enabled provider server.
        let chain = vec![CertificateBuilder::new(1, KeyId(5))
            .common_name("mx.provider.com")
            .self_signed()];
        b.smtp_host(
            ip("10.0.0.1"),
            SmtpServerConfig::with_tls("mx.provider.com", chain),
        );
        // Plain server with a junk banner.
        let mut junk = SmtpServerConfig::plain("IP-10-0-0-2");
        junk.ehlo_host = "IP-10-0-0-2".into();
        b.smtp_host(ip("10.0.0.2"), junk);
        // Web server, no SMTP.
        b.silent_host(ip("10.0.0.3"));
        // Tarpit.
        let mut tarpit = SmtpServerConfig::plain("busy.example");
        tarpit.quirks = ServerQuirks {
            close_on_connect: true,
            starttls_rejects: false,
        };
        b.smtp_host(ip("10.0.0.4"), tarpit);
        b.build()
    }

    #[test]
    fn sweep_captures_everything() {
        let net = net_with_hosts();
        let snap = Scanner::new().sweep(&net, 0);
        assert_eq!(snap.results.len(), 4);
        assert!(snap.missed.is_empty());
        // Provider: full data with cert chain, clean first attempt.
        let d = snap.data(ip("10.0.0.1")).unwrap();
        assert_eq!(d.banner_host(), Some("mx.provider.com"));
        assert_eq!(d.ehlo_host(), Some("mx.provider.com"));
        let chain = d.starttls.chain().unwrap();
        assert_eq!(chain[0].subject_cn.as_deref(), Some("mx.provider.com"));
        let obs = snap.observation(ip("10.0.0.1")).unwrap();
        assert_eq!(obs.attempts, 1);
        assert_eq!(obs.fault, None);
        assert!(!obs.recovered);
        // Junk banner captured verbatim.
        let d2 = snap.data(ip("10.0.0.2")).unwrap();
        assert_eq!(d2.banner_host(), Some("IP-10-0-0-2"));
        assert_eq!(d2.starttls, StartTlsOutcome::NotOffered);
        // No SMTP -> Closed.
        assert_eq!(snap.get(ip("10.0.0.3")), Some(&PortState::Closed));
        // Tarpit: 421 banner captured, no EHLO data.
        let d4 = snap.data(ip("10.0.0.4")).unwrap();
        assert!(d4.banner.contains("busy.example"));
        assert_eq!(d4.ehlo, None);
    }

    #[test]
    fn blocked_ips_missing_from_snapshot() {
        let mut b = SimNet::builder(SimClock::new());
        b.smtp_host(ip("10.0.0.1"), SmtpServerConfig::plain("a.example"));
        b.smtp_host(ip("10.0.0.2"), SmtpServerConfig::plain("b.example"));
        let mut faults = FaultPlan::none();
        faults.blocked_ips.insert(ip("10.0.0.2"));
        b.faults(faults);
        let net = b.build();
        let snap = Scanner::new().sweep(&net, 0);
        assert!(snap.covered(ip("10.0.0.1")));
        assert!(!snap.covered(ip("10.0.0.2")), "opt-out honoured");
        assert_eq!(snap.missed.get(&ip("10.0.0.2")), Some(&Missed::Blocked));
    }

    #[test]
    fn acquisition_classifies_every_outcome() {
        let mut snap = ScanSnapshot::default();
        snap.results
            .insert(ip("10.0.0.1"), ScanObservation::clean(PortState::Closed));
        let recovered = ScanObservation {
            state: PortState::NoBanner,
            attempts: 2,
            fault: Some(ScanFault::Transient),
            recovered: true,
        };
        snap.results.insert(ip("10.0.0.2"), recovered);
        snap.missed.insert(ip("10.0.0.3"), Missed::Blocked);
        snap.missed.insert(
            ip("10.0.0.4"),
            Missed::Exhausted {
                attempts: MAX_SCAN_ATTEMPTS,
            },
        );
        assert_eq!(snap.acquisition(ip("10.0.0.1")), IpAcquisition::clean());
        assert_eq!(
            snap.acquisition(ip("10.0.0.2")),
            IpAcquisition {
                attempts: 2,
                recovered: true,
                exhausted: false,
                blocked: false,
                fault: Some(AcqFault::Transient),
            }
        );
        let blocked = IpAcquisition {
            attempts: 0,
            recovered: false,
            exhausted: false,
            blocked: true,
            fault: None,
        };
        assert_eq!(snap.acquisition(ip("10.0.0.3")), blocked);
        assert_eq!(
            snap.acquisition(ip("10.0.0.4")),
            IpAcquisition {
                attempts: MAX_SCAN_ATTEMPTS,
                recovered: false,
                exhausted: true,
                blocked: false,
                fault: Some(AcqFault::Transient),
            }
        );
        // Never reached by the scan: reads as blocked.
        assert_eq!(snap.acquisition(ip("10.0.0.5")), blocked);
    }

    #[test]
    fn retries_heal_most_transient_failures() {
        let mut b = SimNet::builder(SimClock::new());
        for i in 0..400u32 {
            let addr = Ipv4Addr::from(0x0a01_0000 + i);
            b.smtp_host(addr, SmtpServerConfig::plain(format!("h{i}.example")));
        }
        let mut faults = FaultPlan::none();
        faults.scan_failure_rate = 0.3;
        faults.seed = 11;
        b.faults(faults);
        let net = b.build();
        let snap = Scanner::new().sweep(&net, 0);
        // Per-round miss probability with 3 attempts at rate 0.3 is
        // 0.027: nearly every host is covered, and those that needed a
        // retry say so.
        assert!(snap.results.len() > 360, "covered {}", snap.results.len());
        let recovered = snap.results.values().filter(|o| o.recovered).count();
        assert!(recovered > 50, "recovered {recovered}");
        assert!(snap
            .results
            .values()
            .filter(|o| o.recovered)
            .all(|o| o.attempts > 1 && o.fault == Some(ScanFault::Transient)));
        for miss in snap.missed.values() {
            assert_eq!(
                *miss,
                Missed::Exhausted {
                    attempts: MAX_SCAN_ATTEMPTS
                }
            );
        }
        // Backoff cost was charged for the retries.
        assert!(net.clock().charged() > 0);
    }

    #[test]
    fn transient_failures_vary_by_epoch() {
        let mut b = SimNet::builder(SimClock::new());
        for i in 0..200u32 {
            let addr = Ipv4Addr::from(0x0a01_0000 + i);
            // Always-flaky profile at rate 0.75: per-round miss
            // probability stays 0.42 even with 3 attempts, so both
            // rounds have substantial, differing holes.
            b.smtp_host(addr, SmtpServerConfig::plain(format!("h{i}.example")));
        }
        let mut faults = FaultPlan::none();
        for i in 0..200u32 {
            faults.ip_profiles.insert(
                Ipv4Addr::from(0x0a01_0000 + i),
                FlakinessProfile::AlwaysFlaky { rate: 0.75 },
            );
        }
        faults.seed = 11;
        b.faults(faults);
        let net = b.build();
        let s0 = Scanner::new().sweep(&net, 0);
        let s1 = Scanner::new().sweep(&net, 1);
        assert!(s0.results.len() < 180 && s0.results.len() > 60, "{}", s0.results.len());
        assert_ne!(
            s0.results.keys().collect::<std::collections::BTreeSet<_>>(),
            s1.results.keys().collect::<std::collections::BTreeSet<_>>()
        );
    }

    #[test]
    fn session_faults_degrade_and_recover() {
        let mut b = SimNet::builder(SimClock::new());
        let n = 400u32;
        for i in 0..n {
            let addr = Ipv4Addr::from(0x0a03_0000 + i);
            let chain = vec![CertificateBuilder::new(i as u64 + 1, KeyId(9))
                .common_name(format!("h{i}.sess.example"))
                .self_signed()];
            b.smtp_host(
                addr,
                SmtpServerConfig::with_tls(format!("h{i}.sess.example"), chain),
            );
        }
        let mut faults = FaultPlan::none();
        faults.smtp = SmtpFaults {
            drop_after_banner_rate: 0.1,
            ehlo_tarpit_rate: 0.1,
            tls_handshake_rate: 0.1,
            garbled_banner_rate: 0.1,
        };
        faults.seed = 21;
        b.faults(faults);
        let net = b.build();
        let snap = Scanner::new().sweep(&net, 0);
        assert_eq!(snap.results.len(), n as usize, "session faults never lose the IP");
        let mut tls_failed = 0;
        let mut healed = 0;
        let mut exhausted_degraded = 0;
        for obs in snap.results.values() {
            match obs.fault {
                Some(ScanFault::TlsHandshake) => {
                    // Captured-banner fallback: EHLO present, no chain.
                    let d = obs.state.data().unwrap();
                    assert!(d.ehlo.is_some());
                    assert_eq!(
                        d.starttls,
                        StartTlsOutcome::Failed {
                            reason: StartTlsFailure::Handshake
                        }
                    );
                    tls_failed += 1;
                }
                Some(_) if obs.recovered => healed += 1,
                Some(f) => {
                    // Budget ran out on a data-losing fault: the best
                    // degraded capture survives (banner-only data).
                    assert_eq!(obs.attempts, MAX_SCAN_ATTEMPTS);
                    let d = obs.state.data().unwrap();
                    assert!(d.ehlo.is_none(), "{f:?} kept EHLO data");
                    exhausted_degraded += 1;
                }
                None => {}
            }
        }
        assert!(tls_failed > 10, "tls_failed {tls_failed}");
        assert!(healed > 50, "healed {healed}");
        // P(3 consecutive data-losing faults) = 0.3^3; with 400 hosts a
        // handful exhaust.
        assert!(exhausted_degraded >= 1, "exhausted {exhausted_degraded}");
    }

    #[test]
    fn garbled_banner_has_no_usable_hostname() {
        let mut b = SimNet::builder(SimClock::new());
        b.smtp_host(ip("10.0.0.7"), SmtpServerConfig::plain("real.example"));
        let mut faults = FaultPlan::none();
        faults.smtp.garbled_banner_rate = 1.0;
        b.faults(faults);
        let net = b.build();
        let snap = Scanner::new().sweep(&net, 0);
        let obs = snap.observation(ip("10.0.0.7")).unwrap();
        assert_eq!(obs.fault, Some(ScanFault::GarbledBanner));
        assert_eq!(obs.attempts, MAX_SCAN_ATTEMPTS);
        let d = obs.state.data().unwrap();
        assert!(!d.banner.contains("real.example"));
        assert!(d
            .banner_host()
            .map(|h| !mx_smtp::valid_fqdn(h))
            .unwrap_or(true));
    }

    #[test]
    fn parallel_scan_equals_serial() {
        let mut b = SimNet::builder(SimClock::new());
        let mut ips = Vec::new();
        for i in 0..600u32 {
            let addr = Ipv4Addr::from(0x0a02_0000 + i);
            b.smtp_host(addr, SmtpServerConfig::plain(format!("h{i}.par.example")));
            ips.push(addr);
        }
        // Give the parallel path faults to account for, so accounting
        // equality is exercised too.
        let mut faults = FaultPlan::none();
        faults.scan_failure_rate = 0.2;
        faults.smtp.drop_after_banner_rate = 0.1;
        faults.seed = 4;
        b.faults(faults);
        let net = b.build();
        let mut serial = Scanner::new();
        serial.parallelism = 1;
        // Force a multi-threaded scan regardless of the host's core count
        // or MX_THREADS, so the parallel path is always exercised.
        let mut par = Scanner::new();
        par.parallelism = 8;
        let a = serial.scan(&net, &ips, 0);
        let c = par.scan(&net, &ips, 0);
        assert_eq!(a.results.len(), c.results.len());
        assert_eq!(a.missed.len(), c.missed.len());
        for (ip, obs) in &a.results {
            assert_eq!(c.results.get(ip), Some(obs));
        }
        for (ip, miss) in &a.missed {
            assert_eq!(c.missed.get(ip), Some(miss));
        }
    }
}
