//! Observability gate: the deterministic obs snapshot must be
//! byte-identical at any thread count and across identical runs, must
//! validate against the `mx-obs/1` schema, and its counters must
//! reconcile exactly with the acquisition accounting the observation
//! sets carry — making the obs layer the single cross-check source for
//! the resilience numbers instead of a second, driftable bookkeeping
//! path. One traced delta batch must enter each of its phase stages
//! once and grow the store exactly as an untraced one.
//!
//! One `#[test]` on purpose: the obs registry is process-global, so the
//! whole scenario runs under a single reset/capture bracket.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use mx_analysis::coverage::{self, ResilienceCounts};
use mx_analysis::observe::{observe_world, SnapshotData};
use mx_corpus::{ScenarioConfig, Study};
use mx_delta::{generate_events, EventStreamConfig, Reconciler, WorldState};
use mx_infer::{IpAcquisition, Pipeline};
use mx_net::{DnsFaults, FaultPlan, SmtpFaults};
use mx_obs::names;

/// The chaos rates of `tests/chaos_gate.rs` layered on top of `base`
/// (the world's own plan), keeping its opt-out and unreachable lists so
/// blocked IPs still occur alongside retries, recoveries and
/// exhaustion.
fn chaos_plan(base: &FaultPlan, rate: f64, seed: u64) -> FaultPlan {
    let mut plan = base.clone();
    plan.seed = seed;
    plan.scan_failure_rate = rate / 2.0;
    plan.dns = DnsFaults {
        servfail_rate: rate / 6.0,
        timeout_rate: rate / 6.0,
        truncation_rate: rate / 12.0,
    };
    plan.smtp = SmtpFaults {
        drop_after_banner_rate: rate / 8.0,
        ehlo_tarpit_rate: rate / 8.0,
        tls_handshake_rate: rate / 8.0,
        garbled_banner_rate: rate / 8.0,
    };
    plan
}

/// Run the full measured pipeline: observe, infer every dataset, and
/// report coverage, so every instrumented stage fires at least once.
fn run_stack(study: &Study, rate: f64, seed: u64) -> SnapshotData {
    let mut world = study.world_at(mx_corpus::SNAPSHOT_DATES.len() - 1);
    let plan = chaos_plan(world.net.faults(), rate, seed);
    world.net.set_faults(plan);
    let data = observe_world(&world);
    let pipeline = Pipeline::priority_based(mx_corpus::provider_knowledge(10));
    for (_, obs) in &data.per_dataset {
        let result = pipeline.run(obs);
        assert!(!result.domains.is_empty());
        let breakdown = coverage::breakdown(obs);
        assert_eq!(breakdown.total, obs.domains.len());
    }
    data
}

fn counter(name: &str) -> u64 {
    mx_obs::metrics::counter_value(name)
}

fn stage_totals(name: &str) -> mx_obs::span::StageSnapshot {
    mx_obs::span::stage_totals(name)
        .unwrap_or_else(|| panic!("stage {name} must be registered"))
}

#[test]
fn obs_snapshots_are_deterministic_and_reconcile() {
    mx_obs::set_enabled(true);
    let study = Study::generate(ScenarioConfig::small(42));

    // --- Determinism: bit-identical snapshots at 1, 2 and 8 threads.
    let mut snapshots: Vec<String> = Vec::new();
    let mut last_data = None;
    for &threads in &[1usize, 2, 8] {
        mx_obs::reset();
        let data = mx_par::install(threads, || run_stack(&study, 0.3, 42));
        let json = mx_obs::export::Snapshot::capture().deterministic_json();
        mx_obs::export::validate_snapshot(&json)
            .unwrap_or_else(|e| panic!("snapshot at {threads} threads: {e}"));
        snapshots.push(json);
        last_data = Some(data);
    }
    assert_eq!(snapshots[0], snapshots[1], "1 vs 2 threads");
    assert_eq!(snapshots[0], snapshots[2], "1 vs 8 threads");

    // Volatile (per-run) material must never reach the deterministic
    // form: no pool probes, no host-clock nanos.
    assert!(!snapshots[0].contains("par.map"), "pool probes leaked");
    assert!(!snapshots[0].contains("host_nanos"), "host time leaked");

    // --- Repeatability: a second identical run is byte-identical.
    mx_obs::reset();
    let _ = mx_par::install(2, || run_stack(&study, 0.3, 42));
    let again = mx_obs::export::Snapshot::capture().deterministic_json();
    assert_eq!(snapshots[0], again, "repeated run drifted");

    // --- Reconciliation with the acquisition reports (PR 3).
    // The scan counters are recorded once per scanned IP; the datasets
    // mirror per-IP entries for the addresses they reference. The union
    // of those mirrors must therefore match the counters exactly, and a
    // shared IP must carry identical acquisition data in every dataset
    // (any mismatch is mirror drift between crates/net and mx-infer).
    let data = last_data.expect("at least one run kept");
    let mut union: HashMap<Ipv4Addr, IpAcquisition> = HashMap::new();
    for (ds, obs) in &data.per_dataset {
        for (ip, acq) in &obs.acquisition.ips {
            match union.get(ip) {
                Some(seen) => assert_eq!(
                    seen, acq,
                    "acquisition mirror drift for {ip} in {ds:?}"
                ),
                None => {
                    union.insert(*ip, *acq);
                }
            }
        }
    }
    let attempts: u64 = union.values().map(|a| u64::from(a.attempts)).sum();
    assert_eq!(counter(names::NET_SCAN_ATTEMPTS), attempts, "scan attempts");
    let flag_count = |f: fn(&IpAcquisition) -> bool| union.values().filter(|a| f(a)).count() as u64;
    assert_eq!(
        counter(names::NET_SCAN_RECOVERED),
        flag_count(|a| a.recovered),
        "recovered IPs"
    );
    assert_eq!(
        counter(names::NET_SCAN_EXHAUSTED),
        flag_count(|a| a.exhausted),
        "exhausted IPs"
    );
    assert_eq!(
        counter(names::NET_SCAN_BLOCKED),
        flag_count(|a| a.blocked),
        "blocked IPs (also proves the 'routing hole' arm in observe.rs stays dead)"
    );
    assert!(counter(names::NET_SCAN_RECOVERED) > 0, "chaos healed nothing");
    assert!(counter(names::NET_SCAN_EXHAUSTED) > 0, "no budget exhaustion");
    assert!(counter(names::NET_SCAN_BLOCKED) > 0, "no opt-outs");

    // DNS: every transport retry the resolver performs is mirrored in
    // some domain's degradation record (NXDOMAIN rows without retries
    // are skipped on both sides), so the per-dataset sums must equal
    // the counter.
    let dns_retries: u64 = data
        .per_dataset
        .iter()
        .map(|(_, obs)| {
            obs.acquisition
                .domains
                .values()
                .map(|d| u64::from(d.retries))
                .sum::<u64>()
        })
        .sum();
    assert_eq!(counter(names::DNS_RETRIES), dns_retries, "dns retries");
    assert!(dns_retries > 0, "chaos produced no DNS retries");

    // ResilienceCounts must stay a pure projection of the acquisition
    // report — recompute it from the raw maps for every dataset.
    for (ds, obs) in &data.per_dataset {
        let r = ResilienceCounts::from_observations(obs);
        let acq = &obs.acquisition;
        assert_eq!(
            r.recovered_ips,
            acq.ips.values().filter(|a| a.recovered).count(),
            "{ds:?} recovered"
        );
        assert_eq!(
            r.exhausted_ips,
            acq.ips.values().filter(|a| a.exhausted).count(),
            "{ds:?} exhausted"
        );
        assert_eq!(
            r.never_attempted_ips,
            acq.ips.values().filter(|a| a.blocked).count(),
            "{ds:?} blocked"
        );
        assert_eq!(
            r.scan_attempts,
            acq.ips.values().map(|a| u64::from(a.attempts)).sum::<u64>(),
            "{ds:?} attempts"
        );
    }

    // --- Span totals reconcile with the work actually done.
    let scan_ip = stage_totals(names::STAGE_NET_SCAN_IP);
    assert_eq!(
        scan_ip.enters,
        union.len() as u64,
        "one scan_ip span per scanned address"
    );
    // Simulated time charged to the scan stage is exactly the backoff
    // plus tarpit cost the sim clock was charged.
    assert_eq!(
        scan_ip.sim_secs,
        counter(names::NET_SCAN_BACKOFF_SIM_SECS) + counter(names::NET_SCAN_TARPIT_SIM_SECS),
        "scan sim-time"
    );
    let dns_lookup = stage_totals(names::STAGE_DNS_LOOKUP);
    let domains_measured: u64 = data
        .per_dataset
        .iter()
        .map(|(_, obs)| obs.domains.len() as u64)
        .sum();
    assert_eq!(
        dns_lookup.enters, domains_measured,
        "one dns.lookup span per measured domain"
    );
    assert_eq!(
        dns_lookup.sim_secs,
        counter(names::DNS_BACKOFF_SIM_SECS),
        "dns sim-time"
    );
    let datasets = data.per_dataset.len() as u64;
    assert_eq!(stage_totals(names::STAGE_OBSERVE).enters, 1);
    assert_eq!(stage_totals(names::STAGE_INFER).enters, datasets);
    assert_eq!(stage_totals(names::STAGE_REPORT_COVERAGE).enters, datasets);
    assert_eq!(
        stage_totals(names::STAGE_SMTP_SESSION).enters,
        counter(names::SMTP_SESSIONS),
        "smtp span/counter pair"
    );

    // --- Fault-coin accounting is internally consistent.
    assert!(counter(names::FAULT_SCAN_COINS) >= counter(names::FAULT_SCAN_FIRED));
    assert!(counter(names::FAULT_DNS_COINS) >= counter(names::FAULT_DNS_FIRED));
    assert!(counter(names::FAULT_SMTP_COINS) >= counter(names::FAULT_SMTP_FIRED));
    assert!(counter(names::FAULT_SCAN_FIRED) > 0, "chaos drew no scan faults");
    assert!(counter(names::FAULT_DNS_FIRED) > 0, "chaos drew no dns faults");

    // --- One traced delta batch enters `delta.batch` and each of its
    // phases exactly once, and tracing changes no store byte.
    let initial = WorldState::seeded(3, 120);
    let log = generate_events(
        &initial,
        &EventStreamConfig {
            seed: 3,
            batches: 1,
            churn: 0.1,
            adds_per_batch: 2,
        },
    );
    mx_obs::set_enabled(false);
    let mut untraced = Reconciler::new(initial.clone());
    untraced.base_store().expect("base builds");
    let (want, _) = untraced.apply_batch(&log[0]).expect("batch applies");
    let mut traced = Reconciler::new(initial);
    traced.base_store().expect("base builds");
    mx_obs::reset();
    mx_obs::set_enabled(true);
    let (got, _) = traced.apply_batch(&log[0]).expect("batch applies");
    mx_obs::set_enabled(false);
    assert_eq!(got, want, "tracing changed a delta epoch");
    for phase in [
        names::STAGE_DELTA_BATCH,
        names::STAGE_DELTA_EVENTS,
        names::STAGE_DELTA_CLOSURE,
        names::STAGE_DELTA_RESOLVE,
        names::STAGE_DELTA_PATCH,
        names::STAGE_DELTA_RESCAN,
        names::STAGE_DELTA_APPEND,
    ] {
        assert_eq!(stage_totals(phase).enters, 1, "{phase} enters per batch");
    }
}
