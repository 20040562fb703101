//! The static metric/stage name table.
//!
//! Every instrumented call site in the workspace registers against one
//! of these constants, so the full vocabulary of the observability
//! layer is reviewable in one place and tests can reference names
//! without typo drift. Dots namespace by crate/subsystem
//! (`dns.`, `net.scan.`, `smtp.`, `fault.`, `par.`, `lint.`), and
//! stage names double as tree positions via their registered parents.

// --- dns: stub resolver (crates/dns/src/resolver.rs) ---

/// Positive cache hits in the stub resolver.
pub const DNS_CACHE_HITS: &str = "dns.cache.hits";
/// Negative (NXDOMAIN/NoData) cache hits in the stub resolver.
pub const DNS_CACHE_NEGATIVE_HITS: &str = "dns.cache.negative_hits";
/// Transport query attempts sent (first tries and retries alike).
pub const DNS_QUERIES: &str = "dns.queries";
/// Retry attempts only (attempt index > 0).
pub const DNS_RETRIES: &str = "dns.retries";
/// Simulated seconds charged to DNS retry backoff.
pub const DNS_BACKOFF_SIM_SECS: &str = "dns.backoff.sim_secs";

// --- net: port-25 scanner (crates/net/src/scanner.rs) ---

/// Connection attempts consumed across all scanned IPs.
pub const NET_SCAN_ATTEMPTS: &str = "net.scan.attempts";
/// IPs skipped because the owner opted out (per scan pass).
pub const NET_SCAN_BLOCKED: &str = "net.scan.blocked";
/// Scan passes over an IP that captured data after a failed attempt.
pub const NET_SCAN_RECOVERED: &str = "net.scan.recovered";
/// Scan passes over an IP that exhausted the attempt budget.
pub const NET_SCAN_EXHAUSTED: &str = "net.scan.exhausted";
/// Scan passes that accepted STARTTLS but failed the TLS handshake.
pub const NET_SCAN_TLS_FAILED: &str = "net.scan.tls_failed";
/// Simulated seconds charged to scan retry backoff.
pub const NET_SCAN_BACKOFF_SIM_SECS: &str = "net.scan.backoff.sim_secs";
/// Simulated seconds charged to tarpitted EHLO exchanges.
pub const NET_SCAN_TARPIT_SIM_SECS: &str = "net.scan.tarpit.sim_secs";
/// Distribution of attempts consumed per scan pass over one IP.
pub const NET_SCAN_ATTEMPTS_PER_IP: &str = "net.scan.attempts_per_ip";
/// Bucket bounds for [`NET_SCAN_ATTEMPTS_PER_IP`] (attempts).
pub const NET_SCAN_ATTEMPTS_BOUNDS: &[u64] = &[1, 2, 3, 4, 6, 8];

// --- fault coins (crates/net/src/fault.rs) ---

/// Scan-fault coins drawn (fault plan active on the scan path).
pub const FAULT_SCAN_COINS: &str = "fault.scan.coins";
/// Scan-fault coins that fired.
pub const FAULT_SCAN_FIRED: &str = "fault.scan.fired";
/// DNS-fault coins drawn.
pub const FAULT_DNS_COINS: &str = "fault.dns.coins";
/// DNS-fault coins that fired.
pub const FAULT_DNS_FIRED: &str = "fault.dns.fired";
/// SMTP-fault coins drawn.
pub const FAULT_SMTP_COINS: &str = "fault.smtp.coins";
/// SMTP-fault coins that fired.
pub const FAULT_SMTP_FIRED: &str = "fault.smtp.fired";

// --- fault coins: connection chaos (crates/net/src/fault.rs) ---

/// Connection-fault coins drawn (ConnFaultPlan active on a transport).
pub const FAULT_CONN_COINS: &str = "fault.conn.coins";
/// Connection-fault coins that fired.
pub const FAULT_CONN_FIRED: &str = "fault.conn.fired";

// --- smtp: session client (crates/smtp/src/client.rs) ---

/// SMTP sessions opened (banner read attempted).
pub const SMTP_SESSIONS: &str = "smtp.sessions";
/// Sessions whose banner carried the 220 READY code.
pub const SMTP_BANNER_OK: &str = "smtp.banner.ok";
/// EHLO commands sent.
pub const SMTP_EHLO: &str = "smtp.ehlo";
/// EHLO exchanges answered 250 OK.
pub const SMTP_EHLO_OK: &str = "smtp.ehlo.ok";
/// STARTTLS commands sent.
pub const SMTP_STARTTLS: &str = "smtp.starttls";
/// STARTTLS accepted and the TLS handshake completed.
pub const SMTP_STARTTLS_OK: &str = "smtp.starttls.ok";
/// STARTTLS refused by the server.
pub const SMTP_STARTTLS_REFUSED: &str = "smtp.starttls.refused";
/// STARTTLS accepted but the TLS handshake failed.
pub const SMTP_STARTTLS_FAILED: &str = "smtp.starttls.failed";

// --- par: thread-pool probes (crates/par/src/lib.rs) — per-run ---

/// `par_map` calls that took the parallel path.
pub const PAR_MAP_PARALLEL: &str = "par.par_map.parallel";
/// `par_map` calls that took the serial path (width 1 or nested).
pub const PAR_MAP_SERIAL: &str = "par.par_map.serial";
/// Items submitted through `par_map`.
pub const PAR_TASKS: &str = "par.tasks";
/// High-water mark of worker threads spawned for one call.
pub const PAR_WORKERS_MAX: &str = "par.workers.max";
/// High-water mark of items still unclaimed when a worker grabbed a
/// chunk (a queue-depth probe).
pub const PAR_QUEUE_DEPTH_MAX: &str = "par.queue_depth.max";

// --- lint: shared lex cache (crates/lint/src/lib.rs) — per-run ---

/// Lex-cache hits.
pub const LINT_LEX_CACHE_HITS: &str = "lint.lex_cache.hits";
/// Lex-cache misses.
pub const LINT_LEX_CACHE_MISSES: &str = "lint.lex_cache.misses";

// --- store: snapshot store (crates/store) ---

/// Epochs encoded into store files.
pub const STORE_WRITE_EPOCHS: &str = "store.write.epochs";
/// Row upserts encoded (base rows and delta upserts alike).
pub const STORE_WRITE_ROWS: &str = "store.write.rows";
/// Delta operations encoded (upserts + removals in delta epochs).
pub const STORE_WRITE_DELTA_OPS: &str = "store.write.delta_ops";
/// Bytes of finished store files produced.
pub const STORE_WRITE_BYTES: &str = "store.write.bytes";
/// Store files opened (header + index decode) — per-run.
pub const STORE_READ_OPENS: &str = "store.read.opens";
/// Point lookups served by open readers — per-run.
pub const STORE_READ_LOOKUPS: &str = "store.read.lookups";
/// Rows yielded by full-epoch iteration/diff — per-run.
pub const STORE_READ_ROWS: &str = "store.read.rows";
/// Summary/rollup/digest index queries served (v2 footer) — per-run.
pub const STORE_READ_INDEX_QUERIES: &str = "store.read.index_queries";
/// Postings-list scans (domains-of-provider, set diffs) — per-run.
pub const STORE_READ_POSTINGS_SCANS: &str = "store.read.postings_scans";

// --- delta: incremental measurement (crates/delta) ---

/// Zone-update events applied to the delta world state.
pub const DELTA_EVENTS_APPLIED: &str = "delta.events.applied";
/// Distinct domains marked dirty by event batches (after the
/// reverse-index closure over shared hosts and IPs).
pub const DELTA_DOMAINS_DIRTY: &str = "delta.domains.dirty";
/// Domains actually re-resolved (equals the dirty domains that still
/// exist after deletions).
pub const DELTA_RERESOLVES: &str = "delta.reresolve.domains";
/// IPs re-scanned because no cached observation covered them.
pub const DELTA_RESCANS: &str = "delta.rescan.ips";
/// Domains assembled from the measurement cache instead of the wire.
pub const DELTA_REUSE_HITS: &str = "delta.reuse.hits";
/// Delta epochs appended to store files.
pub const DELTA_EPOCHS_APPENDED: &str = "delta.epochs.appended";

// --- serve: HTTP query service (crates/serve) ---

/// Connections the server accepted (transport handshake completed).
pub const SERVE_CONNS_ACCEPTED: &str = "serve.conns.accepted";
/// Connections refused at the door (max-connections cap or shutdown).
pub const SERVE_CONNS_REFUSED: &str = "serve.conns.refused";
/// Requests the server committed to answering: complete parses,
/// terminal parse failures and deadline evictions alike. Exactly
/// `served + errored + shed + evicted` at all times.
pub const SERVE_REQS_ACCEPTED: &str = "serve.reqs.accepted";
/// Requests answered 2xx from a handler.
pub const SERVE_REQS_SERVED: &str = "serve.reqs.served";
/// Requests answered with a mapped 4xx/5xx (parse or route failure),
/// excluding load-shed 503s.
pub const SERVE_REQS_ERRORED: &str = "serve.reqs.errored";
/// Requests answered 503 + `Retry-After` because the in-flight queue
/// was full (load shedding — degrade, don't die).
pub const SERVE_REQS_SHED: &str = "serve.reqs.shed";
/// Requests evicted at a read deadline (slowloris / stalled client):
/// answered 408 and the connection closed.
pub const SERVE_REQS_EVICTED: &str = "serve.reqs.evicted";
/// Hot-row cache hits (tier 1, over the store reader) — per-run.
pub const SERVE_CACHE_ROW_HITS: &str = "serve.cache.row.hits";
/// Hot-row cache misses (tier 1) — per-run.
pub const SERVE_CACHE_ROW_MISSES: &str = "serve.cache.row.misses";
/// Rendered-JSON cache hits (tier 2) — per-run.
pub const SERVE_CACHE_JSON_HITS: &str = "serve.cache.json.hits";
/// Rendered-JSON cache misses (tier 2) — per-run.
pub const SERVE_CACHE_JSON_MISSES: &str = "serve.cache.json.misses";
/// Per-endpoint simulated-latency distributions (milliseconds from a
/// request's final byte to its response completing service).
pub const SERVE_LATENCY_LOOKUP: &str = "serve.latency.lookup";
/// `/market` latency distribution (sim ms).
pub const SERVE_LATENCY_MARKET: &str = "serve.latency.market";
/// `/series` latency distribution (sim ms).
pub const SERVE_LATENCY_SERIES: &str = "serve.latency.series";
/// `/churn` latency distribution (sim ms).
pub const SERVE_LATENCY_CHURN: &str = "serve.latency.churn";
/// `/providers/{name}/domains` latency distribution (sim ms).
pub const SERVE_LATENCY_PROVIDERS: &str = "serve.latency.providers";
/// `/epochs/{a}..{b}/diff` latency distribution (sim ms).
pub const SERVE_LATENCY_DIFF: &str = "serve.latency.diff";
/// `/healthz` latency distribution (sim ms).
pub const SERVE_LATENCY_HEALTHZ: &str = "serve.latency.healthz";
/// `/metrics` + `/debug/*` introspection-endpoint latency (sim ms).
pub const SERVE_LATENCY_DEBUG: &str = "serve.latency.debug";
/// Bucket bounds for the `serve.latency.*` histograms (sim ms).
pub const SERVE_LATENCY_BOUNDS: &[u64] = &[1, 2, 5, 10, 20, 50, 100, 200];

// --- obs: the trace layer's own accounting (crates/obs/src/trace.rs) ---

/// Stable trace events offered to the ring buffers. Stable events are
/// deterministic in count, so this counter is itself stable.
pub const OBS_TRACE_RECORDED: &str = "obs.trace.recorded";
/// Trace events dropped by ring overflow — per-run (which shard
/// overflows first depends on thread scheduling).
pub const OBS_TRACE_DROPPED: &str = "obs.trace.dropped";

// --- stages: the pipeline tree ---

/// Root of the measurement (observation) side.
pub const STAGE_OBSERVE: &str = "observe";
/// Per-dataset MX/A resolution joins.
pub const STAGE_OBSERVE_RESOLVE: &str = "observe.resolve";
/// The port-25 scan over the union of resolved IPs.
pub const STAGE_OBSERVE_SCAN: &str = "observe.scan";
/// Per-IP scan/routing/cert join.
pub const STAGE_OBSERVE_JOIN: &str = "observe.join";
/// Per-dataset observation-set assembly.
pub const STAGE_OBSERVE_ASSEMBLE: &str = "observe.assemble";
/// One `resolve_mx` bracket in the stub resolver.
pub const STAGE_DNS_LOOKUP: &str = "dns.lookup";
/// One scanner pass over a set of IPs.
pub const STAGE_NET_SCAN: &str = "net.scan";
/// One scanner pass over a single IP.
pub const STAGE_NET_SCAN_IP: &str = "net.scan.ip";
/// One SMTP session (banner through optional STARTTLS).
pub const STAGE_SMTP_SESSION: &str = "smtp.session";
/// Root of the inference side (the priority cascade).
pub const STAGE_INFER: &str = "infer";
/// Certificate-group extraction.
pub const STAGE_INFER_CERTGROUP: &str = "infer.certgroup";
/// Per-IP identification.
pub const STAGE_INFER_IPID: &str = "infer.ipid";
/// Per-exchange (MX) identification.
pub const STAGE_INFER_MXID: &str = "infer.mxid";
/// Misidentification correction pass.
pub const STAGE_INFER_MISID: &str = "infer.misid";
/// Per-domain identification.
pub const STAGE_INFER_DOMAINID: &str = "infer.domainid";
/// Coverage/resilience report assembly.
pub const STAGE_REPORT_COVERAGE: &str = "report.coverage";
/// One incremental-measurement batch: apply events, re-measure the
/// dirty set, append a delta epoch.
pub const STAGE_DELTA_BATCH: &str = "delta.batch";
/// Batch phase: applying the events to the world state.
pub const STAGE_DELTA_EVENTS: &str = "delta.batch.events";
/// Batch phase: closing the dirty set over the reverse index, rolling
/// the index forward and invalidating the scan cache.
pub const STAGE_DELTA_CLOSURE: &str = "delta.batch.closure";
/// Batch phase: materialising the restricted world and re-resolving
/// the dirty domains.
pub const STAGE_DELTA_RESOLVE: &str = "delta.batch.resolve";
/// Batch phase: patching the fresh rows into the joined view.
pub const STAGE_DELTA_PATCH: &str = "delta.batch.patch";
/// Batch phase: scanning uncached addresses and patching the view's
/// address maps.
pub const STAGE_DELTA_RESCAN: &str = "delta.batch.rescan";
/// Batch phase: appending the epoch and emitting the store bytes.
pub const STAGE_DELTA_APPEND: &str = "delta.batch.append";
/// Encoding one study into a store file (all epochs).
pub const STAGE_STORE_WRITE: &str = "store.write";
/// Opening a store file: header, tables and block-index decode.
pub const STAGE_STORE_READ: &str = "store.read";
/// One simulated-transport trace driven through the HTTP server.
pub const STAGE_SERVE_TRACE: &str = "serve.trace";
/// One request's life inside the serve kernel (sim-timed).
pub const STAGE_SERVE_REQ: &str = "serve.req";
/// Request-line + header parse completing in the serial loop.
pub const STAGE_SERVE_REQ_PARSE: &str = "serve.req.parse";
/// Tier-1/tier-2 cache probe at admission (arg carries hit/miss).
pub const STAGE_SERVE_REQ_CACHE: &str = "serve.req.cache";
/// Handler render: request final byte to response completing service.
pub const STAGE_SERVE_REQ_RENDER: &str = "serve.req.render";
/// Response bytes flushed onto a connection transcript.
pub const STAGE_SERVE_REQ_WRITE: &str = "serve.req.write";
/// Request shed with 503 at the queue-full admission check.
pub const STAGE_SERVE_REQ_SHED: &str = "serve.req.shed";
/// Request evicted with 408 at the read deadline.
pub const STAGE_SERVE_REQ_EVICT: &str = "serve.req.evict";

/// Stages whose work is fanned out by `mx-par`'s `par_map`: their
/// exclusive time scales with threads, so serial-fraction accounting
/// (see `attrib`) excludes them from the Amdahl-serial pool.
pub const PARALLEL_STAGES: &[&str] = &[
    STAGE_DNS_LOOKUP,
    STAGE_NET_SCAN,
    STAGE_NET_SCAN_IP,
    STAGE_SMTP_SESSION,
    STAGE_OBSERVE_RESOLVE,
    STAGE_OBSERVE_SCAN,
    STAGE_OBSERVE_JOIN,
    STAGE_OBSERVE_ASSEMBLE,
    STAGE_INFER_CERTGROUP,
    STAGE_INFER_IPID,
    STAGE_INFER_MXID,
    STAGE_INFER_MISID,
    STAGE_INFER_DOMAINID,
];

/// Register the complete vocabulary — every metric with its exact
/// kind/class and every stage with its static parent — so snapshot
/// renders (notably the live `/metrics` endpoint) do not depend on
/// which call sites happened to run first in this process. Safe to
/// call repeatedly: registration is first-wins and the classes/parents
/// here are the same ones the call-site macros use.
pub fn preregister() {
    use crate::metrics::{Class, Counter, Gauge, Histogram};
    use crate::span::Stage;

    const STABLE_COUNTERS: &[&str] = &[
        DNS_CACHE_HITS,
        DNS_CACHE_NEGATIVE_HITS,
        DNS_QUERIES,
        DNS_RETRIES,
        DNS_BACKOFF_SIM_SECS,
        NET_SCAN_ATTEMPTS,
        NET_SCAN_BLOCKED,
        NET_SCAN_RECOVERED,
        NET_SCAN_EXHAUSTED,
        NET_SCAN_TLS_FAILED,
        NET_SCAN_BACKOFF_SIM_SECS,
        NET_SCAN_TARPIT_SIM_SECS,
        FAULT_SCAN_COINS,
        FAULT_SCAN_FIRED,
        FAULT_DNS_COINS,
        FAULT_DNS_FIRED,
        FAULT_SMTP_COINS,
        FAULT_SMTP_FIRED,
        FAULT_CONN_COINS,
        FAULT_CONN_FIRED,
        SMTP_SESSIONS,
        SMTP_BANNER_OK,
        SMTP_EHLO,
        SMTP_EHLO_OK,
        SMTP_STARTTLS,
        SMTP_STARTTLS_OK,
        SMTP_STARTTLS_REFUSED,
        SMTP_STARTTLS_FAILED,
        STORE_WRITE_EPOCHS,
        STORE_WRITE_ROWS,
        STORE_WRITE_DELTA_OPS,
        STORE_WRITE_BYTES,
        DELTA_EVENTS_APPLIED,
        DELTA_DOMAINS_DIRTY,
        DELTA_RERESOLVES,
        DELTA_RESCANS,
        DELTA_REUSE_HITS,
        DELTA_EPOCHS_APPENDED,
        SERVE_CONNS_ACCEPTED,
        SERVE_CONNS_REFUSED,
        SERVE_REQS_ACCEPTED,
        SERVE_REQS_SERVED,
        SERVE_REQS_ERRORED,
        SERVE_REQS_SHED,
        SERVE_REQS_EVICTED,
        OBS_TRACE_RECORDED,
    ];
    const PER_RUN_COUNTERS: &[&str] = &[
        PAR_MAP_PARALLEL,
        PAR_MAP_SERIAL,
        PAR_TASKS,
        LINT_LEX_CACHE_HITS,
        LINT_LEX_CACHE_MISSES,
        STORE_READ_OPENS,
        STORE_READ_LOOKUPS,
        STORE_READ_ROWS,
        STORE_READ_INDEX_QUERIES,
        STORE_READ_POSTINGS_SCANS,
        SERVE_CACHE_ROW_HITS,
        SERVE_CACHE_ROW_MISSES,
        SERVE_CACHE_JSON_HITS,
        SERVE_CACHE_JSON_MISSES,
        OBS_TRACE_DROPPED,
    ];
    const LATENCIES: &[&str] = &[
        SERVE_LATENCY_LOOKUP,
        SERVE_LATENCY_MARKET,
        SERVE_LATENCY_SERIES,
        SERVE_LATENCY_CHURN,
        SERVE_LATENCY_PROVIDERS,
        SERVE_LATENCY_DIFF,
        SERVE_LATENCY_HEALTHZ,
        SERVE_LATENCY_DEBUG,
    ];
    /// (stage, static parent) — must mirror the `stage!` call sites.
    const STAGES: &[(&str, Option<&str>)] = &[
        (STAGE_OBSERVE, None),
        (STAGE_OBSERVE_RESOLVE, Some(STAGE_OBSERVE)),
        (STAGE_OBSERVE_SCAN, Some(STAGE_OBSERVE)),
        (STAGE_OBSERVE_JOIN, Some(STAGE_OBSERVE)),
        (STAGE_OBSERVE_ASSEMBLE, Some(STAGE_OBSERVE)),
        (STAGE_DNS_LOOKUP, Some(STAGE_OBSERVE_RESOLVE)),
        (STAGE_NET_SCAN, Some(STAGE_OBSERVE_SCAN)),
        (STAGE_NET_SCAN_IP, Some(STAGE_NET_SCAN)),
        (STAGE_SMTP_SESSION, Some(STAGE_NET_SCAN_IP)),
        (STAGE_INFER, None),
        (STAGE_INFER_CERTGROUP, Some(STAGE_INFER)),
        (STAGE_INFER_IPID, Some(STAGE_INFER)),
        (STAGE_INFER_MXID, Some(STAGE_INFER)),
        (STAGE_INFER_MISID, Some(STAGE_INFER)),
        (STAGE_INFER_DOMAINID, Some(STAGE_INFER)),
        (STAGE_REPORT_COVERAGE, None),
        (STAGE_DELTA_BATCH, None),
        (STAGE_DELTA_EVENTS, Some(STAGE_DELTA_BATCH)),
        (STAGE_DELTA_CLOSURE, Some(STAGE_DELTA_BATCH)),
        (STAGE_DELTA_RESOLVE, Some(STAGE_DELTA_BATCH)),
        (STAGE_DELTA_PATCH, Some(STAGE_DELTA_BATCH)),
        (STAGE_DELTA_RESCAN, Some(STAGE_DELTA_BATCH)),
        (STAGE_DELTA_APPEND, Some(STAGE_DELTA_BATCH)),
        (STAGE_STORE_WRITE, None),
        (STAGE_STORE_READ, None),
        (STAGE_SERVE_TRACE, None),
        (STAGE_SERVE_REQ, Some(STAGE_SERVE_TRACE)),
        (STAGE_SERVE_REQ_PARSE, Some(STAGE_SERVE_REQ)),
        (STAGE_SERVE_REQ_CACHE, Some(STAGE_SERVE_REQ)),
        (STAGE_SERVE_REQ_RENDER, Some(STAGE_SERVE_REQ)),
        (STAGE_SERVE_REQ_WRITE, Some(STAGE_SERVE_REQ)),
        (STAGE_SERVE_REQ_SHED, Some(STAGE_SERVE_REQ)),
        (STAGE_SERVE_REQ_EVICT, Some(STAGE_SERVE_REQ)),
    ];

    for name in STABLE_COUNTERS {
        let _ = Counter::register(name, Class::Stable);
    }
    for name in PER_RUN_COUNTERS {
        let _ = Counter::register(name, Class::PerRun);
    }
    let _ = Gauge::register(PAR_WORKERS_MAX, Class::PerRun);
    let _ = Gauge::register(PAR_QUEUE_DEPTH_MAX, Class::PerRun);
    let _ = Histogram::register(
        NET_SCAN_ATTEMPTS_PER_IP,
        Class::Stable,
        NET_SCAN_ATTEMPTS_BOUNDS,
    );
    for name in LATENCIES {
        let _ = Histogram::register(name, Class::Stable, SERVE_LATENCY_BOUNDS);
    }
    for (name, parent) in STAGES {
        let _ = Stage::register(name, *parent);
    }
}
