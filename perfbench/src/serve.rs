//! `serve`: the query service, replaying a seeded HTTP trace.
//!
//! Set-up writes the Alexa series of the small scenario (9 epochs,
//! about 7,200 domain-epoch rows, more than the 512-row and 128-body
//! caches hold) with `write_store`. One op replays a fixed trace on a
//! fresh `Server` at width 1. The trace is one closed-loop caller: its
//! keep-alive connections open one after another and each request
//! arrives after the previous one is answered, so nothing queues or
//! sheds and wall time measures the program. `/lookup` popularity is
//! skewed, so the head of the keys fits the caches and the tail misses
//! them. The op reads the store only: no DNS, scan or inference.

use std::collections::BTreeMap;
use std::time::Instant;

use mx_analysis::{churn_from_store, market_share_at, StudyStoreExt};
use mx_corpus::{company_map, provider_knowledge, Dataset, ScenarioConfig, Study};
use mx_infer::Pipeline;
use mx_obs::names;
use mx_rng::SmallRng;
use mx_serve::cache::{Lru, MAX_JSON_CACHE, MAX_ROW_CACHE};
use mx_serve::render::CONTENT_TYPE_JSON;
use mx_serve::router::{cacheable, json_cache_key, lookup_response, row_cache_probe, Endpoint};
use mx_serve::{
    ClientConn, Parsed, Request, RequestParser, Response, RunReport, ServeState, Server,
    ServerConfig, Trace,
};
use mx_store::StoreReader;

use crate::measure::{median, ms, Ops};
use crate::report::Outcome;
use crate::{end_to_end, store_rows, unexplained, Failure, Scale};

/// Requests per keep-alive connection.
const REQS_PER_CONN: usize = 64;
/// Simulated milliseconds between a connection's requests; twice the
/// service time, so each request is answered before the next arrives.
const GAP_MS: u64 = 2;
/// Alternating untraced/traced replays in the traced run.
const TRACE_PAIRS: usize = 10;

/// One worker slot, one millisecond per request: the closed loop.
pub fn config() -> ServerConfig {
    ServerConfig {
        workers: 1,
        service_ms: 1,
        ..ServerConfig::default()
    }
}

/// Write the store the service answers from.
fn setup(seed: u64) -> Result<Vec<u8>, Failure> {
    let study = Study::generate(ScenarioConfig::small(seed));
    let pipeline = Pipeline::priority_based(provider_knowledge(10));
    Ok(study.write_store(Dataset::Alexa, &pipeline, &company_map())?)
}

/// Names usable in a request path or query without escaping.
fn plain(s: &str) -> bool {
    !s.is_empty()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'-' || b == b'_')
}

/// The seeded request targets. The endpoint mix is a fixed schedule —
/// of every 50 requests, one each to the five aggregate endpoints and
/// 45 to `/lookup` — and the aggregate requests cycle through fixed
/// epochs, epoch pairs, companies and providers, so every seed's trace
/// asks for the same kinds of work; the seed picks the lookups (and
/// the store's contents). `/lookup` popularity is skewed: the cubed uniform rank
/// puts about 40% of lookups on the ~60 most popular names of an epoch.
/// Every target names an existing domain, epoch, company or provider.
pub fn targets(reader: &StoreReader<'_>, seed: u64, count: usize) -> Result<Vec<String>, Failure> {
    let epochs = reader.epoch_count();
    let mut names: Vec<Vec<String>> = Vec::with_capacity(epochs);
    for epoch in 0..epochs {
        let mut v = Vec::new();
        reader.for_each_row(epoch, |name, _| {
            v.push(name.to_string());
            Ok(())
        })?;
        names.push(v);
    }
    let companies: Vec<&str> = reader
        .companies()
        .iter()
        .copied()
        .filter(|c| plain(c))
        .collect();
    let providers: Vec<&str> = reader
        .providers()
        .iter()
        .copied()
        .filter(|p| plain(p))
        .collect();
    if epochs < 2 || names.iter().any(Vec::is_empty) || companies.len() < 2 || providers.is_empty()
    {
        return Err(Failure::Input("store too small for the serve trace".into()));
    }
    let pairs: Vec<(usize, usize)> = (0..epochs)
        .flat_map(|a| (a + 1..epochs).map(move |b| (a, b)))
        .collect();
    let companies = &companies[..companies.len().min(8)];
    let providers = &providers[..providers.len().min(16)];
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x5e72_e000);
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let k = i / 50;
        let (from, to) = pairs[k % pairs.len()];
        let target = match i % 50 {
            0 => format!("/market?epoch={}", k % epochs),
            10 => format!(
                "/series?credit={}&credit={}",
                companies[k % companies.len()],
                companies[(k + 1) % companies.len()]
            ),
            20 => format!("/churn?from={from}&to={to}"),
            30 => format!("/epochs/{from}..{to}/diff"),
            40 => format!(
                "/providers/{}/domains?epoch={}",
                providers[k % providers.len()],
                k % epochs
            ),
            _ => {
                let epoch = rng.gen_range(0..epochs);
                let list = &names[epoch];
                let rank = (rng.gen_f64().powi(3) * list.len() as f64) as usize;
                format!(
                    "/lookup?domain={}&epoch={epoch}",
                    list[rank.min(list.len() - 1)]
                )
            }
        };
        out.push(target);
    }
    Ok(out)
}

/// The trace: keep-alive connections of [`REQS_PER_CONN`] requests,
/// opened one after another.
pub fn trace(targets: &[String]) -> Trace {
    let mut trace = Trace::new();
    let span = REQS_PER_CONN as u64 * GAP_MS + 10;
    for (c, chunk) in targets.chunks(REQS_PER_CONN).enumerate() {
        let reqs: Vec<String> = chunk
            .iter()
            .enumerate()
            .map(|(i, target)| {
                let close = if i + 1 == chunk.len() {
                    "Connection: close\r\n"
                } else {
                    ""
                };
                format!("GET {target} HTTP/1.1\r\nHost: mx\r\n{close}\r\n")
            })
            .collect();
        let bytes: Vec<&[u8]> = reqs.iter().map(|r| r.as_bytes()).collect();
        trace = trace.with(ClientConn::scripted(
            c as u64,
            c as u64 * span,
            GAP_MS,
            &bytes,
        ));
    }
    trace
}

/// Requests of `rep` that were not answered 2xx, and why, if any were.
fn failed_requests(rep: &RunReport, requests: u64) -> (u64, Option<String>) {
    let ok = rep
        .transcripts
        .iter()
        .flat_map(|t| &t.statuses)
        .filter(|s| (200..300).contains(*s))
        .count() as u64;
    let failed = requests.saturating_sub(ok);
    let clean = rep.reconciles()
        && rep.shed == 0
        && rep.evicted == 0
        && rep.errored == 0
        && rep.dropped_without_response == 0;
    if failed > 0 || !clean {
        let why = format!(
            "{failed} of {requests} requests not 2xx (served {}, errored {}, shed {}, evicted {}, dropped {}, reconciles {})",
            rep.served, rep.errored, rep.shed, rep.evicted, rep.dropped_without_response, rep.reconciles()
        );
        (failed.max(1), Some(why))
    } else {
        (0, None)
    }
}

/// Check a replay against the reference replay: same bytes on every
/// connection (so the same `all_bytes()`), every request 2xx, and
/// nothing shed, evicted, errored or dropped.
pub fn verify(reference: &RunReport, rep: &RunReport, requests: u64) -> (u64, Option<String>) {
    let same = rep.transcripts.len() == reference.transcripts.len()
        && rep
            .transcripts
            .iter()
            .zip(&reference.transcripts)
            .all(|(a, b)| a.bytes == b.bytes);
    if !same {
        return (
            requests,
            Some("response bytes differ from the first replay".into()),
        );
    }
    failed_requests(rep, requests)
}

/// Set up, replay once as the warm-up and reference, then time replays.
pub fn run(seed: u64, seconds: f64, scale: &Scale) -> Result<Outcome, Failure> {
    let mut setup_s = Vec::new();
    let mut store = Vec::new();
    for _ in 0..scale.setup_reps.max(1) {
        let t = Instant::now();
        store = setup(seed)?;
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let reader = StoreReader::open(&store)?;
    let targets = targets(&reader, seed, scale.serve_requests)?;
    let trace = trace(&targets);
    let requests = targets.len() as u64;

    let mut out = Outcome::default();
    let reference = Server::new(&reader, config()).run(&trace);
    let (failed, why) = failed_requests(&reference, requests);
    out.tally(requests, failed, why);
    let mut ops = Ops::default();
    ops.begin()?;
    while !ops.done(seconds, scale.min_ops) {
        let t = Instant::now();
        let rep = Server::new(&reader, config()).run(&trace);
        ops.record(t.elapsed(), requests);
        let (failed, why) = verify(&reference, &rep, requests);
        out.tally(requests, failed, why);
    }
    ops.end()?;
    let per_row = store.len() as f64 / store_rows(&store)?.max(1) as f64;
    end_to_end(&mut out, &setup_s, &ops, per_row)?;
    Ok(out)
}

/// Mean microseconds per call of `f` over `rounds` passes of `items`.
fn mean_us<T>(items: &[T], rounds: usize, mut f: impl FnMut(&T)) -> f64 {
    let t = Instant::now();
    for _ in 0..rounds {
        for item in items {
            f(item);
        }
    }
    t.elapsed().as_secs_f64() * 1e6 / (items.len() * rounds).max(1) as f64
}

/// The traced run's `store.open`/`lookup`, `analysis.*_from_store` and
/// `serve.*` rows. The request path is rebuilt from public calls —
/// parse, the two cache tiers, `ServeState::handle`, encode — in the
/// server's order, and its summed time is set against a replay's.
pub fn layers(seed: u64, scale: &Scale) -> Result<Outcome, Failure> {
    let mut out = Outcome::default();
    let store = setup(seed)?;
    let opens = [(); 64];
    out.metric(
        "store.open_us",
        mean_us(&opens, 1, |_| {
            let _ = std::hint::black_box(StoreReader::open(&store));
        }),
        "us",
    );
    let reader = StoreReader::open(&store)?;
    let last = reader.epoch_count() - 1;
    let mut names = Vec::new();
    reader.for_each_row(last, |name, _| {
        names.push(name.to_string());
        Ok(())
    })?;
    out.metric(
        "store.lookup_ns",
        1e3 * mean_us(&names, 4, |n| {
            let _ = std::hint::black_box(reader.lookup(n, last));
        }),
        "ns",
    );
    let epochs: Vec<usize> = (0..=last).collect();
    out.metric(
        "analysis.market_share_at_us",
        mean_us(&epochs, 4, |&e| {
            let _ = std::hint::black_box(market_share_at(&reader, e));
        }),
        "us",
    );
    out.metric(
        "analysis.churn_from_store_us",
        mean_us(&epochs[1..], 4, |&e| {
            let _ = std::hint::black_box(churn_from_store(&reader, e - 1, e));
        }),
        "us",
    );

    let targets = targets(&reader, seed, scale.serve_requests)?;
    let trace = trace(&targets);
    let requests = targets.len() as u64;
    let reference = Server::new(&reader, config()).run(&trace);
    let (failed, why) = failed_requests(&reference, requests);
    out.tally(requests, failed, why);
    let (mut off, mut on) = (Vec::new(), Vec::new());
    let mut hits = [0u64; 4];
    for i in 0..TRACE_PAIRS {
        let t = Instant::now();
        let rep = Server::new(&reader, config()).run(&trace);
        off.push(ms(t.elapsed()));
        let (failed, why) = verify(&reference, &rep, requests);
        out.tally(requests, failed, why);
        mx_obs::reset();
        mx_obs::set_enabled(true);
        let t = Instant::now();
        let rep = Server::new(&reader, config()).run(&trace);
        on.push(ms(t.elapsed()));
        mx_obs::set_enabled(false);
        let (failed, why) = verify(&reference, &rep, requests);
        out.tally(requests, failed, why);
        if i == 0 {
            for (slot, name) in hits.iter_mut().zip([
                names::SERVE_CACHE_ROW_HITS,
                names::SERVE_CACHE_ROW_MISSES,
                names::SERVE_CACHE_JSON_HITS,
                names::SERVE_CACHE_JSON_MISSES,
            ]) {
                *slot = mx_obs::metrics::counter_value(name);
            }
        }
    }
    let op_ms = median(&off);
    out.metric("serve.trace_overhead_ratio", median(&on) / op_ms, "ratio");
    out.metric(
        "serve.row_cache_hit_ratio",
        hits[0] as f64 / (hits[0] + hits[1]).max(1) as f64,
        "ratio",
    );
    out.metric(
        "serve.json_cache_hit_ratio",
        hits[2] as f64 / (hits[2] + hits[3]).max(1) as f64,
        "ratio",
    );

    let explained = request_path(&reader, &trace, &reference, requests, &mut out)?;
    out.metric(
        "serve.unexplained_share",
        unexplained(explained, op_ms),
        "ratio",
    );
    Ok(out)
}

/// Parse every request, answer it through the server's two cache tiers
/// or `ServeState::handle`, and encode the response, timing each part.
/// Returns the summed milliseconds.
fn request_path(
    reader: &StoreReader<'_>,
    trace: &Trace,
    reference: &RunReport,
    requests: u64,
    out: &mut Outcome,
) -> Result<f64, Failure> {
    let t = Instant::now();
    let mut parsed: Vec<Request> = Vec::new();
    for conn in &trace.conns {
        let mut parser = RequestParser::new();
        for seg in &conn.segments {
            let next = parser.push(&seg.bytes).and_then(|()| parser.try_next());
            match next {
                Ok(Parsed::Request(req)) => parsed.push(req),
                other => {
                    return Err(Failure::Input(format!(
                        "trace request did not parse: {other:?}"
                    )))
                }
            }
        }
    }
    let parse_ms = ms(t.elapsed());
    out.metric(
        "serve.parse_ns_per_req",
        parse_ms * 1e6 / requests.max(1) as f64,
        "ns",
    );

    let state = ServeState::new(reader);
    let mut rows: Lru<String> = Lru::new(MAX_ROW_CACHE);
    let mut bodies: Lru<Vec<u8>> = Lru::new(MAX_JSON_CACHE);
    let mut handle_us: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let (mut cache_ms, mut handle_ms, mut encode_ms) = (0.0, 0.0, 0.0);
    let mut wire: Vec<u8> = Vec::new();
    for req in &parsed {
        let t = Instant::now();
        let json_key = json_cache_key(req);
        let mut resp: Option<Response> =
            json_key
                .as_ref()
                .and_then(|k| bodies.get(k))
                .map(|body| Response {
                    status: 200,
                    body,
                    retry_after: None,
                    content_type: CONTENT_TYPE_JSON,
                    etag: Some(state.etag),
                });
        let probe = if resp.is_none() {
            row_cache_probe(&state, req)
        } else {
            None
        };
        if let Some((key, domain, epoch)) = &probe {
            resp = rows.get(key).map(|fragment| {
                let mut r = lookup_response(domain, *epoch, &fragment);
                if r.status == 200 {
                    r.etag = Some(state.etag);
                }
                r
            });
        }
        cache_ms += ms(t.elapsed());
        let resp = match resp {
            Some(r) => r,
            None => {
                let t = Instant::now();
                let handled = state.handle(req);
                let took = ms(t.elapsed());
                handle_ms += took;
                handle_us
                    .entry(endpoint_name(&req.path))
                    .or_default()
                    .push(took * 1e3);
                if let Some((key, fragment)) = handled.row_fragment {
                    rows.insert(key, fragment);
                }
                if cacheable(&handled.response) {
                    if let Some(key) = json_key {
                        bodies.insert(key, handled.response.body.clone());
                    }
                }
                handled.response
            }
        };
        let t = Instant::now();
        let encoded = resp.encode(false, req.keep_alive);
        encode_ms += ms(t.elapsed());
        wire.extend_from_slice(&encoded);
    }
    for endpoint in ["lookup", "market", "series", "churn", "diff", "providers"] {
        let us = handle_us
            .get(endpoint)
            .map_or(0.0, |v| v.iter().sum::<f64>() / v.len() as f64);
        out.metric(&format!("serve.handle_us.{endpoint}"), us, "us");
    }
    out.metric(
        "serve.encode_ns_per_resp",
        encode_ms * 1e6 / requests.max(1) as f64,
        "ns",
    );
    out.metric(
        "serve.resp_bytes_per_req",
        wire.len() as f64 / requests.max(1) as f64,
        "B",
    );
    // The rebuilt path must write exactly the bytes the server wrote.
    out.check(
        (wire != reference.all_bytes())
            .then(|| "rebuilt request path wrote other bytes than the server".to_string()),
    );
    Ok(parse_ms + cache_ms + handle_ms + encode_ms)
}

/// The `serve.handle_us.*` suffix of a request path.
fn endpoint_name(path: &str) -> &'static str {
    match Endpoint::of(path) {
        Endpoint::Lookup => "lookup",
        Endpoint::Market => "market",
        Endpoint::Series => "series",
        Endpoint::Churn => "churn",
        Endpoint::Diff => "diff",
        Endpoint::Providers => "providers",
        _ => "other",
    }
}
