//! `study`: the paper's measurement end to end.
//!
//! One op is one full pass over the last snapshot of the study
//! scenario: `observe_world`, then `Pipeline::run` for each dataset,
//! then `StoreWriter::add_epoch` + `finish` for each dataset. Set-up is
//! `Study::generate` plus `world_at`. Most of the op's time goes to the
//! DNS, scan/SMTP, certificate and inference layers; it never touches
//! the delta reconciler or the query service.

use std::collections::{BTreeSet, HashMap, HashSet};
use std::net::Ipv4Addr;
use std::time::Instant;

use mx_analysis::{observe_world, SnapshotData};
use mx_corpus::{company_map, provider_knowledge, Study, World, SNAPSHOT_DATES};
use mx_dns::resolver::ResolverStats;
use mx_dns::{Message, Name, RecordType};
use mx_infer::{
    certgroup, domainid, ipid, misid, mxid, result_rows, CompanyMap, InferenceResult, MxAssignment,
    ObservationSet, Pipeline,
};
use mx_net::{Missed, PortState, Scanner};
use mx_obs::names;
use mx_psl::PublicSuffixList;
use mx_store::StoreWriter;

use crate::measure::{median, ms, percentile, Ops};
use crate::report::Outcome;
use crate::{end_to_end, unexplained, Failure, Scale};

/// Alternating untraced/traced passes in the traced run.
const TRACE_PAIRS: usize = 2;

/// Generate the study and build the world of its last snapshot.
fn setup(seed: u64, scale: &Scale) -> World {
    Study::generate((scale.study)(seed)).world_at(SNAPSHOT_DATES.len() - 1)
}

/// What one pass produced, per dataset in observation order.
pub struct Pass {
    /// Inference results.
    pub results: Vec<InferenceResult>,
    /// One single-epoch store file per dataset.
    pub stores: Vec<Vec<u8>>,
    /// Domains observed over all datasets (the op's items).
    pub domains: u64,
    /// Store rows written over all datasets.
    pub rows: u64,
}

/// Wall time of a pass's three phases, in milliseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassTimes {
    /// `observe_world`.
    pub observe: f64,
    /// `Pipeline::run` over every dataset.
    pub infer: f64,
    /// `add_epoch` + `finish` over every dataset.
    pub encode: f64,
    /// The whole pass.
    pub total: f64,
}

/// One pass: observe, infer each dataset, write each dataset's store.
pub fn pass(
    world: &World,
    pipeline: &Pipeline,
    companies: &CompanyMap,
) -> Result<(Pass, PassTimes), Failure> {
    let start = Instant::now();
    let data = observe_world(world);
    let mut times = PassTimes {
        observe: ms(start.elapsed()),
        ..PassTimes::default()
    };
    let mut out = Pass {
        results: Vec::new(),
        stores: Vec::new(),
        domains: 0,
        rows: 0,
    };
    let label = world.date.ym_label();
    for (_, obs) in &data.per_dataset {
        let t = Instant::now();
        let result = pipeline.run(obs);
        times.infer += ms(t.elapsed());
        let t = Instant::now();
        let rows = result_rows(&result, companies);
        out.rows += rows.len() as u64;
        let mut writer = StoreWriter::new();
        writer.add_epoch(&label, rows, &obs.acquisition)?;
        out.stores.push(writer.finish());
        times.encode += ms(t.elapsed());
        out.domains += obs.domains.len() as u64;
        out.results.push(result);
    }
    times.total = ms(start.elapsed());
    Ok((out, times))
}

/// Why `got` differs from the reference pass, if it does.
pub fn differs(reference: &Pass, got: &Pass) -> Option<String> {
    if got.stores != reference.stores {
        return Some("store bytes differ from the first pass".into());
    }
    if got.results.len() != reference.results.len() {
        return Some("dataset count differs from the first pass".into());
    }
    for (a, b) in reference.results.iter().zip(&got.results) {
        if a.domains != b.domains
            || a.mx_assignments != b.mx_assignments
            || a.misid.examined != b.misid.examined
            || a.misid.corrections != b.misid.corrections
            || a.cert_groups.group_count() != b.cert_groups.group_count()
        {
            return Some("inference result differs from the first pass".into());
        }
    }
    None
}

/// Untimed reference pass, then timed passes each checked against it.
pub fn run(seed: u64, seconds: f64, scale: &Scale) -> Result<Outcome, Failure> {
    let mut setup_s = Vec::new();
    let mut world = None;
    for _ in 0..scale.setup_reps.max(1) {
        drop(world.take());
        let t = Instant::now();
        world = Some(setup(seed, scale));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let world = world.ok_or_else(|| Failure::Input("no set-up ran".into()))?;
    let pipeline = Pipeline::priority_based(provider_knowledge(10));
    let companies = company_map();

    // The first pass is the discarded warm-up op and the reference
    // every timed pass must reproduce.
    let (reference, _) = pass(&world, &pipeline, &companies)?;
    let mut out = Outcome::default();
    let mut ops = Ops::default();
    ops.begin()?;
    while !ops.done(seconds, scale.min_ops) {
        let t = Instant::now();
        let (got, _) = pass(&world, &pipeline, &companies)?;
        ops.record(t.elapsed(), got.domains);
        out.check(differs(&reference, &got));
    }
    ops.end()?;
    let bytes: usize = reference.stores.iter().map(Vec::len).sum();
    end_to_end(
        &mut out,
        &setup_s,
        &ops,
        bytes as f64 / reference.rows.max(1) as f64,
    )?;
    Ok(out)
}

/// Per-call microseconds of `f` over `items`, plus their sum in ms.
fn time_each<T>(items: &[T], mut f: impl FnMut(&T)) -> (Vec<f64>, f64) {
    let mut us = Vec::with_capacity(items.len());
    for item in items {
        let t = Instant::now();
        f(item);
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let sum_ms = us.iter().sum::<f64>() / 1e3;
    (us, sum_ms)
}

/// The traced run's `corpus`, `dns`, `net`, `smtp`, `cert`, `analysis`,
/// `core` and `store.encode` rows, and the study's overhead and
/// unexplained share.
pub fn layers(seed: u64, scale: &Scale) -> Result<Outcome, Failure> {
    let mut out = Outcome::default();
    let t = Instant::now();
    let study = Study::generate((scale.study)(seed));
    out.metric("corpus.generate_s", t.elapsed().as_secs_f64(), "s");
    let t = Instant::now();
    let world = study.world_at(SNAPSHOT_DATES.len() - 1);
    out.metric("corpus.world_at_s", t.elapsed().as_secs_f64(), "s");
    drop(study);
    let pipeline = Pipeline::priority_based(provider_knowledge(10));
    let companies = company_map();

    // Warm-up and reference, then untraced and traced passes in turn.
    let (reference, _) = pass(&world, &pipeline, &companies)?;
    let mut off: Vec<PassTimes> = Vec::new();
    let mut on: Vec<f64> = Vec::new();
    // The first traced pass's DNS query and SMTP session counts.
    let (mut op_queries, mut op_sessions) = (0, 0);
    for i in 0..TRACE_PAIRS {
        let (got, times) = pass(&world, &pipeline, &companies)?;
        out.check(differs(&reference, &got));
        off.push(times);
        mx_obs::reset();
        mx_obs::set_enabled(true);
        let traced = pass(&world, &pipeline, &companies);
        mx_obs::set_enabled(false);
        let (got, times) = traced?;
        out.check(differs(&reference, &got));
        on.push(times.total);
        if i == 0 {
            op_queries = mx_obs::metrics::counter_value(names::DNS_QUERIES);
            op_sessions = mx_obs::metrics::counter_value(names::SMTP_SESSIONS);
        }
    }
    let op_ms = median(&off.iter().map(|t| t.total).collect::<Vec<_>>());
    let observe_ms = median(&off.iter().map(|t| t.observe).collect::<Vec<_>>());
    let encode_ms = median(&off.iter().map(|t| t.encode).collect::<Vec<_>>());
    out.metric("study.trace_overhead_ratio", median(&on) / op_ms, "ratio");
    out.metric("analysis.observe_ms", observe_ms, "ms");
    out.metric(
        "core.run_ms",
        median(&off.iter().map(|t| t.infer).collect::<Vec<_>>()),
        "ms",
    );
    out.metric("store.encode_ms", encode_ms, "ms");

    let data = observe_world(&world);
    let dns_ms = dns_layer(&world, &mut out, op_queries);
    let (net_ms, cert_ms) = net_layer(&world, &data, &mut out, op_sessions);
    out.metric(
        "analysis.observe_unexplained_share",
        unexplained(dns_ms + net_ms + cert_ms, observe_ms),
        "ratio",
    );
    let core_ms = core_layer(&data, &reference, &mut out);
    out.metric(
        "study.unexplained_share",
        unexplained(dns_ms + net_ms + cert_ms + core_ms + encode_ms, op_ms),
        "ratio",
    );
    Ok(out)
}

/// `resolve_mx` over every target with one resolver per dataset, as the
/// OpenINTEL measurement does, plus the wire codec, authority answer
/// and zone lookup per domain. Returns the summed `resolve_mx` time.
fn dns_layer(world: &World, out: &mut Outcome, op_queries: u64) -> f64 {
    let mut us = Vec::new();
    let mut sum_ms = 0.0;
    let mut stats = ResolverStats::default();
    let mut domains: Vec<&Name> = Vec::new();
    for (_, targets) in &world.targets {
        let resolver = world.net.resolver();
        let (each, total) = time_each(targets, |d| {
            let _ = std::hint::black_box(resolver.resolve_mx(d));
        });
        us.extend(each);
        sum_ms += total;
        let s = resolver.stats();
        stats.queries_sent += s.queries_sent;
        stats.cache_hits += s.cache_hits;
        stats.negative_hits += s.negative_hits;
        stats.retries += s.retries;
        domains.extend(targets.iter());
    }
    let n = domains.len().max(1) as f64;
    out.metric("dns.resolve_mx_us_p50", percentile(&us, 50.0), "us");
    out.metric("dns.resolve_mx_us_p99", percentile(&us, 99.0), "us");
    out.metric("dns.resolve_mx_ms_sum", sum_ms, "ms");
    out.metric(
        "dns.queries_per_domain",
        stats.queries_sent as f64 / n,
        "count",
    );
    let hits = stats.cache_hits + stats.negative_hits;
    let lookups = hits + stats.queries_sent - stats.retries;
    out.metric(
        "dns.cache_hit_ratio",
        hits as f64 / lookups.max(1) as f64,
        "ratio",
    );
    out.metric("dns.retries_per_domain", stats.retries as f64 / n, "count");
    // The op's own DNS query counter must equal the layer loop's.
    out.check((op_queries != stats.queries_sent).then(|| {
        format!(
            "dns.queries counted {op_queries} in the op, {} in the layer loop",
            stats.queries_sent
        )
    }));

    let authority = world.net.authority();
    let queries: Vec<Message> = domains
        .iter()
        .enumerate()
        .map(|(i, d)| Message::query((i % 60_000) as u16 + 1, (*d).clone(), RecordType::Mx))
        .collect();
    let t = Instant::now();
    for d in &domains {
        std::hint::black_box(authority.find_zone(d));
    }
    out.metric("dns.find_zone_ns", t.elapsed().as_nanos() as f64 / n, "ns");
    let t = Instant::now();
    let answers: Vec<Message> = queries.iter().map(|q| authority.answer(q)).collect();
    out.metric(
        "dns.authority_answer_ns",
        t.elapsed().as_nanos() as f64 / n,
        "ns",
    );
    let t = Instant::now();
    let mut codec_ok = true;
    for m in queries.iter().chain(&answers) {
        let decoded = m.encode().ok().and_then(|b| Message::decode(&b).ok());
        codec_ok &= decoded.as_ref() == Some(m);
    }
    out.metric(
        "dns.wire_roundtrip_ns",
        t.elapsed().as_nanos() as f64 / n,
        "ns",
    );
    out.check((!codec_ok).then(|| "DNS wire round trip changed a message".to_string()));
    sum_ms
}

/// `scan_ip` over every MX address and `chain_trusted` over every
/// presented chain. Returns the summed scan and validation times.
fn net_layer(
    world: &World,
    data: &SnapshotData,
    out: &mut Outcome,
    op_sessions: u64,
) -> (f64, f64) {
    let ips: Vec<Ipv4Addr> = data
        .per_dataset
        .iter()
        .flat_map(|(_, obs)| obs.ips.keys().copied())
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let scanner = Scanner::new();
    let epoch = world.snapshot as u64;
    let mut attempts = 0u64;
    let mut open = Vec::new();
    let (us, scan_ms) = time_each(&ips, |&ip| match scanner.scan_ip(&world.net, ip, epoch) {
        Ok(o) => {
            attempts += u64::from(o.attempts);
            if let PortState::Open(d) = o.state {
                open.push(d);
            }
        }
        Err(Missed::Exhausted { attempts: a }) => attempts += u64::from(a),
        Err(Missed::Blocked) => {}
    });
    let n = ips.len().max(1) as f64;
    out.metric("net.scan_ip_us_p50", percentile(&us, 50.0), "us");
    out.metric("net.scan_ip_us_p99", percentile(&us, 99.0), "us");
    out.metric("net.scan_ms_sum", scan_ms, "ms");
    out.metric("net.scan_attempts_per_ip", attempts as f64 / n, "count");
    out.metric("smtp.sessions_per_ip", op_sessions as f64 / n, "count");

    let now = world.net.clock().now();
    let chains: Vec<_> = open.iter().filter_map(|d| d.starttls.chain()).collect();
    let (us, cert_ms) = time_each(&chains, |chain| {
        let _ = std::hint::black_box(mx_cert::chain_trusted(chain, &world.trust, now));
    });
    out.metric("cert.chain_trusted_us_p50", percentile(&us, 50.0), "us");
    out.metric("cert.chain_trusted_ms_sum", cert_ms, "ms");
    (scan_ms, cert_ms)
}

/// The five inference stages, called one by one on each dataset's
/// observations exactly as `Pipeline::run` composes them; the composed
/// attribution must equal the reference pass. Returns the stages' sum.
fn core_layer(data: &SnapshotData, reference: &Pass, out: &mut Outcome) -> f64 {
    let psl = PublicSuffixList::builtin();
    let knowledge = provider_knowledge(10);
    let mut stage_ms = [0.0f64; 5];
    for ((_, obs), expected) in data.per_dataset.iter().zip(&reference.results) {
        let same = stages(obs, &psl, &knowledge, &mut stage_ms) == expected.domains;
        out.check(
            (!same).then(|| "stage-by-stage inference differs from Pipeline::run".to_string()),
        );
    }
    for (name, v) in ["certgroup", "ipid", "mxid", "misid", "domainid"]
        .iter()
        .zip(stage_ms)
    {
        out.metric(&format!("core.{name}_ms"), v, "ms");
    }
    stage_ms.iter().sum()
}

/// Run the inference stages on `obs`, adding each one's time to `ms_acc`.
fn stages(
    obs: &ObservationSet,
    psl: &PublicSuffixList,
    knowledge: &mx_infer::ProviderKnowledge,
    ms_acc: &mut [f64; 5],
) -> HashMap<Name, mx_infer::DomainAssignment> {
    let t = Instant::now();
    let groups = certgroup::preprocess(obs, psl);
    ms_acc[0] += ms(t.elapsed());
    let t = Instant::now();
    let ip_ids = ipid::compute_ip_ids(obs, &groups, psl);
    ms_acc[1] += ms(t.elapsed());
    let t = Instant::now();
    let mut seen: HashSet<&Name> = HashSet::new();
    let mut assignments: HashMap<Name, MxAssignment> = HashMap::new();
    for d in &obs.domains {
        for target in d.mx.targets() {
            if seen.insert(&target.exchange) {
                let (provider, source) =
                    mxid::assign_mx_id(&target.exchange, &target.addrs, &ip_ids, psl);
                assignments.insert(
                    target.exchange.clone(),
                    MxAssignment {
                        exchange: target.exchange.clone(),
                        provider,
                        source,
                        addrs: target.addrs.clone(),
                        corrected: false,
                    },
                );
            }
        }
    }
    ms_acc[2] += ms(t.elapsed());
    let t = Instant::now();
    misid::check(&mut assignments, obs, knowledge, psl);
    ms_acc[3] += ms(t.elapsed());
    let t = Instant::now();
    let domains = obs
        .domains
        .iter()
        .map(|d| {
            (
                d.domain.clone(),
                domainid::assign_domain(d, &assignments, obs),
            )
        })
        .collect();
    ms_acc[4] += ms(t.elapsed());
    domains
}
