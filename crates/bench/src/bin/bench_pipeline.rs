//! Pipeline thread-scaling benchmark.
//!
//! Builds one world + measurement at the last snapshot, then times the
//! full inference (`Pipeline::run` over every active dataset) under
//! `mx_par::install(n)` for n in {1, 2, 4, 8}. Every parallel result is
//! checked field-by-field against the serial baseline before a number
//! is reported, so the export doubles as a determinism proof.
//!
//! Modes:
//! - default: `MX_SCALE`/`MX_SEED` scale (study by default); writes
//!   `results/BENCH_pipeline.json` next to the other exporters.
//! - `--smoke`: small scale, threads {1, 2}, no JSON — the cheap CI
//!   gate. Exits non-zero if any parallel run diverges from serial.
//! - `--obs [--obs-out PATH]`: small scale; times the measured stack
//!   (observe + infer) in three configurations — obs off, obs on with
//!   tracing off, obs on with tracing on — reporting min AND median of
//!   the reps to bound the instrumentation overhead, writes
//!   `results/BENCH_obs.json`, and exports a schema-validated
//!   deterministic obs snapshot to PATH (default
//!   `results/OBS_pipeline.json`). Two runs of this mode must produce
//!   byte-identical snapshots — CI `cmp`s them.
//! - `--attribution [--attrib-out PATH]`: `MX_SCALE`/`MX_SEED` scale;
//!   runs the measured stack once with obs on, captures the per-stage
//!   inclusive/exclusive attribution (serial fraction, Amdahl ceiling,
//!   critical path), prints the human table and writes the full JSON to
//!   PATH (default `results/ATTRIB_pipeline.json`).
//! - `--metrics [--metrics-out PATH]`: small scale; scripts a client
//!   trace whose last connection walks `/metrics` (text + JSON),
//!   `/debug/trace?last=64` and `/debug/attribution`, runs it at
//!   threads {1, 2, 8} with tracing on, asserts the introspection
//!   bodies are byte-identical across widths, and (with PATH) writes
//!   the introspection connection's bytes — CI runs the mode twice and
//!   `cmp`s the two files.
//! - `--store [--store-out PATH]`: small scale; builds the full-study
//!   `mx-store` snapshot store for the Alexa dataset (timed), measures
//!   point-lookup and full-scan query throughput against it, verifies
//!   the store-backed analyses equal the in-memory ones, and writes
//!   `results/BENCH_store.json`. With `--store-out` the store bytes are
//!   also written to PATH — two runs must produce byte-identical files
//!   (CI `cmp`s them).
//! - `--serve`: small scale; scripts a mixed-endpoint client trace
//!   against the `mx-serve` query service, times a full serving run at
//!   threads {1, 2, 4, 8} (min-of-REPS), asserts every run's response
//!   bytes equal the serial baseline, measures a chaos run and a
//!   saturating burst, and writes `results/BENCH_serve.json`.
//! - `--delta`: 32k-domain delta world; at churn rates 1%/5%/20% it
//!   times appending epochs via the `mx-delta` reconciler (dirty-set
//!   re-measurement only) against a full pipeline recompute of the
//!   same end state, asserts the two stores are byte-identical at
//!   every rate, and writes `results/BENCH_delta.json`.

use std::time::Instant;

use mx_analysis::observe::observe_world;
use mx_bench::json::Value;
use mx_bench::obj;
use mx_bench::runner::scale_from_env;
use mx_corpus::{provider_knowledge, ScenarioConfig, Study};
use mx_infer::{InferenceResult, ObservationSet, Pipeline};

/// Timing repetitions per thread count; the minimum is reported.
const REPS: usize = 3;

/// Run the pipeline over every dataset of the snapshot, returning the
/// results in dataset order.
fn run_all(pipeline: &Pipeline, sets: &[ObservationSet]) -> Vec<InferenceResult> {
    sets.iter().map(|obs| pipeline.run(obs)).collect()
}

/// Field-by-field equality of two inference results (CertGroups carries
/// no PartialEq; the grouped outputs it feeds are all covered).
fn same(a: &InferenceResult, b: &InferenceResult) -> bool {
    a.domains == b.domains
        && a.mx_assignments == b.mx_assignments
        && a.misid.examined == b.misid.examined
        && a.misid.corrections == b.misid.corrections
}

/// One full measured run: observe the world, infer every dataset. This
/// is the exact path the obs layer instruments (dns, scan, smtp, infer
/// stages), so timing it with obs off vs on bounds the overhead of the
/// instrumentation itself.
fn run_measured_stack(world: &mx_corpus::World, pipeline: &Pipeline) -> usize {
    let data = observe_world(world);
    let mut domains = 0;
    for (_, obs) in &data.per_dataset {
        let result = pipeline.run(obs);
        domains += result.domains.len();
    }
    domains
}

/// Timing repetitions for the `--obs` overhead columns; odd so the
/// median is a real sample.
const OBS_REPS: usize = 5;

/// `--obs` mode: overhead bound (three configurations, min + median)
/// plus the deterministic snapshot export.
fn obs_mode(obs_out: &str) -> i32 {
    let config = ScenarioConfig::small(42);
    let study = mx_par::install(1, || Study::generate(config));
    let k = mx_corpus::SNAPSHOT_DATES.len() - 1;
    let world = study.world_at(k);
    let pipeline = Pipeline::priority_based(provider_knowledge(10));

    let time_stack = |label: &str| -> (f64, f64) {
        let mut times = Vec::with_capacity(OBS_REPS);
        let mut domains = 0;
        for _ in 0..OBS_REPS {
            let t = Instant::now();
            domains = mx_par::install(2, || run_measured_stack(&world, &pipeline));
            times.push(t.elapsed().as_secs_f64() * 1e3);
        }
        times.sort_by(f64::total_cmp);
        let min = times.first().copied().unwrap_or(f64::INFINITY);
        let median = times.get(times.len() / 2).copied().unwrap_or(min);
        eprintln!("  {label}: min {min:.1} ms / median {median:.1} ms ({domains} domains)");
        (min, median)
    };

    // Warm-up pass so the obs-off block (which runs first) is not
    // charged for cold caches and lazy allocator state.
    mx_obs::set_enabled(false);
    mx_obs::set_trace_enabled(false);
    mx_par::install(2, || run_measured_stack(&world, &pipeline));
    let (off_min, off_median) = time_stack("obs off          ");
    mx_obs::set_enabled(true);
    mx_obs::reset();
    let (on_min, on_median) = time_stack("obs on, trace off");
    mx_obs::set_trace_enabled(true);
    mx_obs::reset();
    let (trace_min, trace_median) = time_stack("obs on, trace on ");
    mx_obs::set_trace_enabled(false);
    let on_pct = (on_min - off_min) / off_min * 100.0;
    let trace_pct = (trace_min - off_min) / off_min * 100.0;
    eprintln!(
        "bench_pipeline: obs overhead {on_pct:+.1}%, with tracing {trace_pct:+.1}% \
         (min-of-{OBS_REPS} each)"
    );

    // The snapshot itself comes from one clean bracketed run, not the
    // timing loop, so its counters describe exactly one execution.
    mx_obs::reset();
    mx_par::install(2, || run_measured_stack(&world, &pipeline));
    let snapshot = mx_obs::export::Snapshot::capture();
    let json = snapshot.deterministic_json();
    if let Err(e) = mx_obs::export::validate_snapshot(&json) {
        eprintln!("bench_pipeline: FAIL — snapshot does not validate: {e}");
        return 1;
    }
    mx_obs::set_enabled(false);

    std::fs::create_dir_all("results").ok();
    if let Some(dir) = std::path::Path::new(obs_out).parent() {
        std::fs::create_dir_all(dir).ok();
    }
    std::fs::write(obs_out, &json).expect("write obs snapshot");
    eprintln!("bench_pipeline: wrote {obs_out}");

    let out = obj! {
        "benchmark" => "obs_overhead",
        "scale" => "small(42)",
        "threads" => 2u64,
        "reps_per_point" => OBS_REPS as u64,
        "obs_off_min_ms" => off_min,
        "obs_off_median_ms" => off_median,
        "obs_on_min_ms" => on_min,
        "obs_on_median_ms" => on_median,
        "trace_on_min_ms" => trace_min,
        "trace_on_median_ms" => trace_median,
        "overhead_pct" => on_pct,
        "trace_overhead_pct" => trace_pct,
        "snapshot" => obs_out,
        "note" => "measured stack = observe_world + Pipeline::run per dataset; \
                   three configurations (obs off / obs on, trace off / obs+trace on), \
                   min and median of the reps; negative overhead is host noise; \
                   the off column costs one relaxed atomic load + branch per site",
    };
    std::fs::write("results/BENCH_obs.json", out.to_string_pretty())
        .expect("write results/BENCH_obs.json");
    eprintln!("bench_pipeline: wrote results/BENCH_obs.json");
    0
}

/// `--attribution` mode: run the measured stack once with obs on and
/// export where the time went — per-stage inclusive/exclusive, serial
/// fraction, Amdahl ceiling and the critical path.
fn attribution_mode(attrib_out: &str) -> i32 {
    let config = scale_from_env();
    eprintln!(
        "bench_pipeline: attribution over {}x{}x{} seed {}",
        config.alexa_size, config.com_size, config.gov_size, config.seed
    );
    let study = mx_par::install(1, || Study::generate(config));
    let k = mx_corpus::SNAPSHOT_DATES.len() - 1;
    let world = study.world_at(k);
    let pipeline = Pipeline::priority_based(provider_knowledge(10));

    mx_obs::set_enabled(true);
    mx_obs::reset();
    let t = Instant::now();
    let domains = mx_par::install(2, || run_measured_stack(&world, &pipeline));
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    let attrib = mx_obs::attrib::Attribution::capture();
    mx_obs::set_enabled(false);

    eprintln!("{}", attrib.human_table());
    eprintln!("  ({domains} domains inferred in {wall_ms:.1} ms wall)");

    if attrib.rows.is_empty() {
        eprintln!("bench_pipeline: FAIL — attribution captured no stages");
        return 1;
    }
    std::fs::create_dir_all("results").ok();
    if let Some(dir) = std::path::Path::new(attrib_out).parent() {
        std::fs::create_dir_all(dir).ok();
    }
    std::fs::write(attrib_out, attrib.full_json()).expect("write attribution");
    eprintln!("bench_pipeline: wrote {attrib_out}");
    0
}

/// `--metrics` mode: drive the live introspection endpoints through the
/// serve kernel and prove their bodies are width-invariant.
fn metrics_mode(metrics_out: Option<&str>) -> i32 {
    use mx_analysis::StudyStoreExt;
    use mx_corpus::{company_map, Dataset};
    use mx_serve::{ClientConn, Server, ServerConfig, Trace};

    /// The introspection connection's scripted id.
    const INTRO_CONN: u64 = 900;
    const WIDTHS: &[usize] = &[1, 2, 8];

    let config = ScenarioConfig::small(42);
    let study = mx_par::install(1, || Study::generate(config));
    let pipeline = Pipeline::priority_based(provider_knowledge(10));
    let bytes = study
        .write_store(Dataset::Alexa, &pipeline, &company_map())
        .expect("write store");
    let reader = mx_store::StoreReader::open(&bytes).expect("open store");
    let last = reader.epoch_count() - 1;

    let mut names: Vec<String> = Vec::new();
    reader
        .for_each_row(last, |name, _| {
            names.push(name.to_string());
            Ok(())
        })
        .expect("scan last epoch");

    // Warm-up workload (populates serve.* counters and the request
    // timeline), then one late connection walks the introspection
    // surface.
    let mut trace = Trace::new();
    for c in 0..4u64 {
        let mut reqs: Vec<String> = Vec::new();
        for r in 0..4usize {
            let name = &names[(c as usize * 4 + r) % names.len()];
            let close = if r == 3 { "Connection: close\r\n" } else { "" };
            reqs.push(format!(
                "GET /lookup?domain={name}&epoch={last} HTTP/1.1\r\n{close}\r\n"
            ));
        }
        let req_bytes: Vec<&[u8]> = reqs.iter().map(|r| r.as_bytes()).collect();
        trace = trace.with(ClientConn::scripted(c, c * 2, 2, &req_bytes));
    }
    let intro_reqs: &[&[u8]] = &[
        b"GET /metrics HTTP/1.1\r\n\r\n",
        b"GET /metrics?format=json HTTP/1.1\r\n\r\n",
        b"GET /debug/trace?last=64 HTTP/1.1\r\n\r\n",
        b"GET /debug/attribution HTTP/1.1\r\nConnection: close\r\n\r\n",
    ];
    trace = trace.with(ClientConn::scripted(INTRO_CONN, 50, 1, intro_reqs));

    let cfg = ServerConfig {
        workers: 2,
        queue_capacity: 64,
        max_conns: 64,
        read_deadline_ms: 100,
        idle_deadline_ms: 250,
        service_ms: 1,
        retry_after_secs: 1,
    };

    mx_obs::set_enabled(true);
    mx_obs::set_trace_enabled(true);
    let mut reference: Option<Vec<u8>> = None;
    for &width in WIDTHS {
        mx_obs::reset();
        let report = mx_par::install(width, || Server::new(&reader, cfg).run(&trace));
        if !report.reconciles() || report.dropped_without_response != 0 {
            eprintln!("bench_pipeline: FAIL — metrics run at width {width} does not reconcile");
            return 1;
        }
        let Some(intro) = report.transcripts.iter().find(|t| t.id == INTRO_CONN) else {
            eprintln!("bench_pipeline: FAIL — introspection connection missing");
            return 1;
        };
        if intro.statuses != [200, 200, 200, 200] {
            eprintln!(
                "bench_pipeline: FAIL — introspection statuses {:?} at width {width}",
                intro.statuses
            );
            return 1;
        }
        match &reference {
            None => reference = Some(intro.bytes.clone()),
            Some(base) if *base != intro.bytes => {
                eprintln!(
                    "bench_pipeline: FAIL — introspection bytes diverge at width {width}"
                );
                return 1;
            }
            Some(_) => {}
        }
        eprintln!(
            "  threads={width}: {} introspection bytes, identical=true",
            intro.bytes.len()
        );
    }
    mx_obs::set_trace_enabled(false);
    mx_obs::set_enabled(false);

    let reference = reference.unwrap_or_default();
    eprintln!(
        "bench_pipeline: metrics OK — /metrics, /metrics?format=json, \
         /debug/trace?last=64, /debug/attribution byte-identical at widths {WIDTHS:?}"
    );
    if let Some(path) = metrics_out {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir).ok();
        }
        std::fs::write(path, &reference).expect("write metrics bodies");
        eprintln!("bench_pipeline: wrote {path}");
    }
    0
}

/// `--store` mode: store build/query benchmark + round-trip proof.
fn store_mode(store_out: Option<&str>) -> i32 {
    use mx_analysis::{
        churn_from_store, churn_from_store_merged, domains_of_provider_merged, market_share_at,
        market_share_merged, StudyStoreExt,
    };
    use mx_corpus::{company_map, Dataset};

    let config = ScenarioConfig::small(42);
    let study = mx_par::install(1, || Study::generate(config));
    let pipeline = Pipeline::priority_based(provider_knowledge(10));
    let companies = company_map();

    // Build: run the pipeline over all nine snapshots and serialize.
    // Timed min-of-REPS; every rep must serialize to identical bytes.
    let mut bytes: Vec<u8> = Vec::new();
    let mut build_ms = f64::INFINITY;
    for rep in 0..REPS {
        let t = Instant::now();
        let b = mx_par::install(2, || {
            study.write_store(Dataset::Alexa, &pipeline, &companies)
        })
        .expect("write store");
        build_ms = build_ms.min(t.elapsed().as_secs_f64() * 1e3);
        if rep > 0 && b != bytes {
            eprintln!("bench_pipeline: FAIL — store bytes differ between builds");
            return 1;
        }
        bytes = b;
    }

    let reader = mx_store::StoreReader::open(&bytes).expect("open store");
    let last = reader.epoch_count() - 1;

    // Collect the last epoch's names once (also counts rows/shares for
    // the scan number below).
    let mut names: Vec<String> = Vec::new();
    reader
        .for_each_row(last, |name, _row| {
            names.push(name.to_string());
            Ok(())
        })
        .expect("scan last epoch");

    // Point lookups: every domain of the last epoch, resolved through
    // all delta layers.
    const LOOKUP_ROUNDS: usize = 20;
    let mut lookup_ms = f64::INFINITY;
    for _ in 0..REPS {
        let t = Instant::now();
        let mut hits = 0usize;
        for _ in 0..LOOKUP_ROUNDS {
            for n in &names {
                if reader.lookup(n, last).expect("lookup").is_some() {
                    hits += 1;
                }
            }
        }
        assert_eq!(hits, names.len() * LOOKUP_ROUNDS);
        lookup_ms = lookup_ms.min(t.elapsed().as_secs_f64() * 1e3);
    }
    let lookups = (names.len() * LOOKUP_ROUNDS) as f64;
    let lookups_per_sec = lookups / (lookup_ms / 1e3);

    // Full-epoch scans: k-way merge over base + all deltas.
    const SCAN_ROUNDS: usize = 20;
    let mut scan_ms = f64::INFINITY;
    let mut shares_seen = 0usize;
    for _ in 0..REPS {
        let t = Instant::now();
        for _ in 0..SCAN_ROUNDS {
            let mut rows = 0usize;
            shares_seen = 0;
            reader
                .for_each_row(last, |_n, row| {
                    rows += 1;
                    shares_seen += row.shares().count();
                    Ok(())
                })
                .expect("scan");
            assert_eq!(rows, names.len());
        }
        scan_ms = scan_ms.min(t.elapsed().as_secs_f64() * 1e3);
    }
    let rows_per_sec = (names.len() * SCAN_ROUNDS) as f64 / (scan_ms / 1e3);

    // --- Index-backed query classes vs the merge path. ---
    // The `*_merged` calls answer without the index footer (full
    // delta-layer merges, per-name point lookups) and serve as the
    // reference oracles; the entry points answer from the footer. Both
    // must agree bit for bit before any timing is trusted.
    reader.verify_indexes().expect("index footer matches layers");
    let idx_market = market_share_at(&reader, last).expect("indexed market share");
    let mrg_market = market_share_merged(&reader, last).expect("merged market share");
    if idx_market.rows != mrg_market.rows || idx_market.total_domains != mrg_market.total_domains
    {
        eprintln!("bench_pipeline: FAIL — indexed market share diverges from merge path");
        return 1;
    }
    let idx_churn = churn_from_store(&reader, 0, last).expect("digest churn");
    let mrg_churn = churn_from_store_merged(&reader, 0, last).expect("merged churn");
    if idx_churn.total != mrg_churn.total || idx_churn.flows != mrg_churn.flows {
        eprintln!("bench_pipeline: FAIL — digest churn diverges from merge path");
        return 1;
    }
    let providers: Vec<&str> = reader.providers().to_vec();
    for p in &providers {
        let indexed = reader.domains_of_provider(p, last).expect("postings");
        let scanned =
            domains_of_provider_merged(&reader, p, last).expect("postings fallback scan");
        if indexed != scanned {
            eprintln!("bench_pipeline: FAIL — postings for {p} diverge from full scan");
            return 1;
        }
    }

    // Summary/rollup-backed market share vs the full merge.
    const MARKET_ROUNDS: usize = 50;
    let mut market_merged_ms = f64::INFINITY;
    let mut market_indexed_ms = f64::INFINITY;
    for _ in 0..REPS {
        let t = Instant::now();
        for _ in 0..MARKET_ROUNDS {
            let m = market_share_merged(&reader, last).expect("merged market share");
            assert_eq!(m.total_domains, idx_market.total_domains);
        }
        market_merged_ms = market_merged_ms.min(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        for _ in 0..MARKET_ROUNDS {
            let m = market_share_at(&reader, last).expect("indexed market share");
            assert_eq!(m.total_domains, idx_market.total_domains);
        }
        market_indexed_ms = market_indexed_ms.min(t.elapsed().as_secs_f64() * 1e3);
    }
    let market_speedup = market_merged_ms / market_indexed_ms.max(1e-9);

    // Churn diff via the per-row digest vs merge + per-name lookups.
    const CHURN_ROUNDS: usize = 5;
    let mut churn_merged_ms = f64::INFINITY;
    let mut churn_indexed_ms = f64::INFINITY;
    for _ in 0..REPS {
        let t = Instant::now();
        for _ in 0..CHURN_ROUNDS {
            let c = churn_from_store_merged(&reader, 0, last).expect("merged churn");
            assert_eq!(c.total, idx_churn.total);
        }
        churn_merged_ms = churn_merged_ms.min(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        for _ in 0..CHURN_ROUNDS {
            let c = churn_from_store(&reader, 0, last).expect("digest churn");
            assert_eq!(c.total, idx_churn.total);
        }
        churn_indexed_ms = churn_indexed_ms.min(t.elapsed().as_secs_f64() * 1e3);
    }
    let churn_speedup = churn_merged_ms / churn_indexed_ms.max(1e-9);

    // Provider postings scans: every interned provider's domain list at
    // the last epoch, off the postings lists (no name materialization
    // beyond the dictionary splices).
    const POSTINGS_ROUNDS: usize = 20;
    let mut postings_ms = f64::INFINITY;
    let mut postings_domains = 0usize;
    for _ in 0..REPS {
        let t = Instant::now();
        for _ in 0..POSTINGS_ROUNDS {
            postings_domains = 0;
            for p in &providers {
                reader
                    .for_each_domain_of_provider(p, last, |_name| {
                        postings_domains += 1;
                        Ok(())
                    })
                    .expect("postings scan");
            }
        }
        postings_ms = postings_ms.min(t.elapsed().as_secs_f64() * 1e3);
    }
    let postings_domains_per_sec =
        (postings_domains * POSTINGS_ROUNDS) as f64 / (postings_ms / 1e3);

    // Round-trip proof: the store-backed market table must equal the
    // in-memory one — including every f64 bit — at first and last epoch.
    let verify_epoch = |k: usize| {
        let world = study.world_at(k);
        let data = observe_world(&world);
        let obs = data.dataset(Dataset::Alexa).expect("alexa active");
        let result = pipeline.run(obs);
        let mem = mx_analysis::market::market_share(&result, &companies, None);
        let stored = market_share_at(&reader, k).expect("stored shares");
        stored.total_domains == mem.total_domains && stored.rows == mem.rows
    };
    if !verify_epoch(0) || !verify_epoch(last) {
        eprintln!("bench_pipeline: FAIL — store-backed market share diverges from in-memory");
        return 1;
    }
    eprintln!(
        "  store: {} bytes, {} epochs, {} rows at last epoch",
        bytes.len(),
        reader.epoch_count(),
        names.len()
    );
    eprintln!("  build: {build_ms:.1} ms (full study, min-of-{REPS})");
    eprintln!("  point lookups: {lookups_per_sec:.0}/s   full scan: {rows_per_sec:.0} rows/s");
    eprintln!(
        "  market share: merged {market_merged_ms:.2} ms vs indexed {market_indexed_ms:.2} ms \
         ({market_speedup:.1}x over {MARKET_ROUNDS} rounds)"
    );
    eprintln!(
        "  churn diff: merged {churn_merged_ms:.2} ms vs indexed {churn_indexed_ms:.2} ms \
         ({churn_speedup:.1}x over {CHURN_ROUNDS} rounds)"
    );
    eprintln!(
        "  postings: {} providers -> {postings_domains} domains, \
         {postings_domains_per_sec:.0} domains/s",
        providers.len()
    );

    if let Some(path) = store_out {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir).ok();
        }
        std::fs::write(path, &bytes).expect("write store file");
        eprintln!("bench_pipeline: wrote {path}");
    }

    let out = obj! {
        "benchmark" => "store_build_query",
        "schema" => mx_store::SCHEMA,
        "scale" => "small(42)",
        "dataset" => "alexa",
        "reps_per_point" => REPS as u64,
        "file_bytes" => bytes.len() as u64,
        "epochs" => reader.epoch_count() as u64,
        "rows_last_epoch" => names.len() as u64,
        "shares_last_epoch" => shares_seen as u64,
        "build_ms" => build_ms,
        "lookup_rounds" => LOOKUP_ROUNDS as u64,
        "lookups_per_sec" => lookups_per_sec,
        "scan_rounds" => SCAN_ROUNDS as u64,
        "scan_rows_per_sec" => rows_per_sec,
        "market_rounds" => MARKET_ROUNDS as u64,
        "market_merged_ms" => market_merged_ms,
        "market_indexed_ms" => market_indexed_ms,
        "market_index_speedup" => market_speedup,
        "churn_rounds" => CHURN_ROUNDS as u64,
        "churn_merged_ms" => churn_merged_ms,
        "churn_indexed_ms" => churn_indexed_ms,
        "churn_index_speedup" => churn_speedup,
        "postings_rounds" => POSTINGS_ROUNDS as u64,
        "postings_providers" => providers.len() as u64,
        "postings_domains" => postings_domains as u64,
        "postings_domains_per_sec" => postings_domains_per_sec,
        "round_trip_verified" => true,
        "index_verified" => true,
        "note" => "build = pipeline over 9 snapshots + delta encode + index footer; \
                   merged timings walk the full-epoch merge paths on the same \
                   reader, indexed timings answer from the index footer (rollup/summary \
                   for market share, per-row digest for churn, postings lists for \
                   reverse queries); all pairs asserted bit-equal before timing",
    };
    std::fs::create_dir_all("results").ok();
    std::fs::write("results/BENCH_store.json", out.to_string_pretty())
        .expect("write results/BENCH_store.json");
    eprintln!("bench_pipeline: wrote results/BENCH_store.json");
    0
}

/// `--delta` mode: incremental event-sourced measurement vs full
/// recompute at several churn rates, byte-identity asserted.
fn delta_mode() -> i32 {
    use mx_delta::{full_recompute, generate_events, EventStreamConfig, Reconciler, WorldState};

    const DOMAINS: usize = 32 * 1024;
    const BATCHES: usize = 2;
    const CHURN: &[f64] = &[0.01, 0.05, 0.20];

    let seed = 42u64;
    eprintln!("bench_pipeline: delta world {DOMAINS} domains seed {seed}, {BATCHES} batches/rate");
    let initial = WorldState::seeded(seed, DOMAINS);

    // Warm-up: one untimed full measurement so allocator effects don't
    // inflate whichever churn rate happens to run first.
    let _ = full_recompute(&initial, &[]).expect("warm-up");

    let mut rows: Vec<Value> = Vec::new();
    for &churn in CHURN {
        let cfg = EventStreamConfig {
            seed,
            batches: BATCHES,
            churn,
            adds_per_batch: 8,
        };
        let log = generate_events(&initial, &cfg);
        let events: usize = log.iter().map(Vec::len).sum();

        // Full path: what re-running the pipeline per epoch costs —
        // every epoch is a complete measurement of the population.
        // Min-of-REPS on both paths: the first pass on a cold
        // allocator arena pays first-touch page faults.
        let mut full = Vec::new();
        let mut full_ms = f64::INFINITY;
        for _ in 0..REPS.min(2) {
            let t = Instant::now();
            full = full_recompute(&initial, &log).expect("full recompute");
            full_ms = full_ms.min(t.elapsed().as_secs_f64() * 1e3);
        }

        // Incremental path: one full base epoch seeds the caches, then
        // each batch re-measures only its dirty set.
        let mut store = Vec::new();
        let mut base_ms = f64::INFINITY;
        let mut append_ms = f64::INFINITY;
        let mut dirty_total = 0u64;
        let mut reresolved_total = 0u64;
        for _ in 0..REPS.min(2) {
            let mut rec = Reconciler::new(initial.clone());
            let t = Instant::now();
            store = rec.base_store().expect("base store");
            base_ms = base_ms.min(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            dirty_total = 0;
            reresolved_total = 0;
            for batch in &log {
                let (next, stats) = rec.apply_batch(batch).expect("apply batch");
                store = next;
                dirty_total += stats.dirty_domains;
                reresolved_total += stats.reresolved;
            }
            append_ms = append_ms.min(t.elapsed().as_secs_f64() * 1e3);
        }

        if store != full {
            eprintln!("bench_pipeline: FAIL — incremental store diverged at churn {churn}");
            return 1;
        }

        // Steady-state comparison: the cost of adding ONE more epoch to
        // a live series. Full amortizes evenly (every epoch re-measures
        // everything); incremental pays only the appended batches.
        let full_epoch_ms = full_ms / (BATCHES as f64 + 1.0);
        let incr_epoch_ms = append_ms / BATCHES as f64;
        let speedup = full_epoch_ms / incr_epoch_ms;
        eprintln!(
            "  churn {:>4.0}%: {events} events, {dirty_total} dirty — full {full_epoch_ms:.0} \
             ms/epoch vs incremental {incr_epoch_ms:.0} ms/epoch (x{speedup:.1}), \
             base {base_ms:.0} ms",
            churn * 100.0
        );
        // The advertised floor: at realistic (≤5%) churn the staged
        // reconciler must beat a full re-measurement by 5× per epoch.
        if churn <= 0.05 && speedup < 5.0 {
            eprintln!(
                "bench_pipeline: FAIL — speedup x{speedup:.1} below the 5x floor at churn {churn}"
            );
            return 1;
        }
        rows.push(obj! {
            "churn" => churn,
            "events" => events as u64,
            "dirty_domains" => dirty_total,
            "reresolved" => reresolved_total,
            "epochs_appended" => BATCHES as u64,
            "full_ms_total" => full_ms,
            "full_ms_per_epoch" => full_epoch_ms,
            "base_ms" => base_ms,
            "incremental_ms_per_epoch" => incr_epoch_ms,
            "speedup_per_epoch" => speedup,
            "byte_identical" => true,
        });
    }

    let out = obj! {
        "benchmark" => "delta_incremental_vs_full",
        "schema" => mx_delta::SCHEMA,
        "domains" => DOMAINS as u64,
        "seed" => seed,
        "batches_per_rate" => BATCHES as u64,
        "rates" => Value::Arr(rows),
        "note" => "per-epoch numbers are the steady-state cost of one more epoch in a \
                   live series: full = complete re-measurement of the population, \
                   incremental = reconciler dirty-set re-measurement + staged \
                   inference (coupled stages full, pure attribution stages memoised) \
                   + store append; the grown store is asserted byte-identical to the \
                   full recompute at every churn rate before any number is reported",
    };
    std::fs::create_dir_all("results").ok();
    std::fs::write("results/BENCH_delta.json", out.to_string_pretty())
        .expect("write results/BENCH_delta.json");
    eprintln!("bench_pipeline: wrote results/BENCH_delta.json");
    0
}

/// `--serve` mode: HTTP query-service load benchmark + replay proof.
fn serve_mode() -> i32 {
    use mx_analysis::StudyStoreExt;
    use mx_corpus::{company_map, Dataset};
    use mx_net::ConnFaultPlan;
    use mx_serve::{apply_chaos, ClientConn, Server, ServerConfig, Trace};

    const CONNS: usize = 64;
    const REQS_PER_CONN: usize = 8;
    const THREADS: &[usize] = &[1, 2, 4, 8];

    let config = ScenarioConfig::small(42);
    let study = mx_par::install(1, || Study::generate(config));
    let pipeline = Pipeline::priority_based(provider_knowledge(10));
    let bytes = study
        .write_store(Dataset::Alexa, &pipeline, &company_map())
        .expect("write store");
    let reader = mx_store::StoreReader::open(&bytes).expect("open store");
    let last = reader.epoch_count() - 1;

    let mut names: Vec<String> = Vec::new();
    reader
        .for_each_row(last, |name, _| {
            names.push(name.to_string());
            Ok(())
        })
        .expect("scan last epoch");
    let provider = reader
        .providers()
        .first()
        .map(|p| p.replace(' ', "%20"))
        .unwrap_or_else(|| "Google".to_string());

    // A mixed workload: every endpoint, heavy on lookups (the hot-row
    // cache path), pipelined over keep-alive connections.
    let mut trace = Trace::new();
    for c in 0..CONNS {
        let mut reqs: Vec<String> = Vec::new();
        for r in 0..REQS_PER_CONN {
            let i = c * REQS_PER_CONN + r;
            let target = match i % 8 {
                0 | 1 | 2 => {
                    let name = &names[i % names.len()];
                    format!("/lookup?domain={name}&epoch={last}")
                }
                3 => format!("/market?epoch={}", i % reader.epoch_count()),
                4 => format!("/churn?from=0&to={last}"),
                5 => format!("/providers/{provider}/domains?epoch={last}"),
                6 => "/series?credit=Google&credit=Microsoft".to_string(),
                _ => "/healthz".to_string(),
            };
            let close = if r + 1 == REQS_PER_CONN {
                "Connection: close\r\n"
            } else {
                ""
            };
            reqs.push(format!("GET {target} HTTP/1.1\r\n{close}\r\n"));
        }
        let req_bytes: Vec<&[u8]> = reqs.iter().map(|r| r.as_bytes()).collect();
        trace = trace.with(ClientConn::scripted(c as u64, (c as u64) * 2, 5, &req_bytes));
    }
    let cfg = ServerConfig {
        workers: 4,
        queue_capacity: 1024,
        max_conns: 1024,
        read_deadline_ms: 100,
        idle_deadline_ms: 250,
        service_ms: 1,
        retry_after_secs: 1,
    };
    let total_reqs = (CONNS * REQS_PER_CONN) as u64;

    let baseline = mx_par::install(1, || Server::new(&reader, cfg.clone()).run(&trace));
    if !baseline.reconciles() || baseline.dropped_without_response != 0 {
        eprintln!("bench_pipeline: FAIL — serve baseline does not reconcile");
        return 1;
    }
    if baseline.served != total_reqs {
        eprintln!(
            "bench_pipeline: FAIL — served {} of {total_reqs} requests",
            baseline.served
        );
        return 1;
    }
    let base_bytes = baseline.all_bytes();

    eprintln!(
        "bench_pipeline: serve load — {CONNS} conns x {REQS_PER_CONN} reqs, \
         {} response bytes",
        base_bytes.len()
    );
    let mut rows: Vec<Value> = Vec::new();
    let mut serial_ms = f64::INFINITY;
    let mut all_identical = true;
    for &n in THREADS {
        let mut best_ms = f64::INFINITY;
        let mut identical = true;
        for _ in 0..REPS {
            let t = Instant::now();
            let rep = mx_par::install(n, || Server::new(&reader, cfg.clone()).run(&trace));
            best_ms = best_ms.min(t.elapsed().as_secs_f64() * 1e3);
            identical &= rep.all_bytes() == base_bytes && rep.reconciles();
        }
        if n == 1 {
            serial_ms = best_ms;
        }
        all_identical &= identical;
        let reqs_per_sec = total_reqs as f64 / (best_ms / 1e3);
        eprintln!(
            "  threads={n}: {best_ms:.1} ms  ({reqs_per_sec:.0} req/s, \
             identical={identical})"
        );
        rows.push(obj! {
            "threads" => n as u64,
            "ms" => best_ms,
            "reqs_per_sec" => reqs_per_sec,
            "speedup_vs_1" => serial_ms / best_ms,
            "identical_to_serial" => identical,
        });
    }
    if !all_identical {
        eprintln!("bench_pipeline: FAIL — a serving run diverged from serial");
        return 1;
    }

    // Chaos run: same trace under a 30% per-connection fault plan.
    let plan = ConnFaultPlan::uniform(0.3, 42);
    let chaotic = apply_chaos(&trace, &plan);
    let faulted = trace
        .conns
        .iter()
        .filter(|c| plan.conn_fault(c.id).is_some())
        .count();
    let mut chaos_ms = f64::INFINITY;
    let mut chaos_ok = true;
    let mut chaos_served = 0u64;
    for _ in 0..REPS {
        let t = Instant::now();
        let rep = mx_par::install(4, || Server::new(&reader, cfg.clone()).run(&chaotic));
        chaos_ms = chaos_ms.min(t.elapsed().as_secs_f64() * 1e3);
        chaos_ok &= rep.reconciles() && rep.dropped_without_response == 0;
        chaos_served = rep.served;
    }
    if !chaos_ok {
        eprintln!("bench_pipeline: FAIL — chaos run does not reconcile");
        return 1;
    }
    eprintln!(
        "  chaos(rate=0.3): {chaos_ms:.1} ms, {faulted}/{CONNS} conns faulted, \
         {chaos_served}/{total_reqs} served"
    );

    // Saturating burst: everything at t=0 against one worker and a
    // one-seat queue; sheds must be answered, not dropped.
    let mut burst = Trace::new();
    for c in 0..CONNS {
        burst = burst.with(ClientConn::scripted(
            c as u64,
            0,
            0,
            &[b"GET /market?epoch=0 HTTP/1.1\r\nConnection: close\r\n\r\n"],
        ));
    }
    let tight = ServerConfig {
        workers: 1,
        queue_capacity: 1,
        max_conns: 1024,
        read_deadline_ms: 100,
        idle_deadline_ms: 250,
        service_ms: 1,
        retry_after_secs: 1,
    };
    // A probe arriving mid-burst: /healthz bypasses the worker queue,
    // so it must answer 200 even while everything else sheds.
    burst = burst.with(ClientConn::scripted(
        500,
        1,
        0,
        &[b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"],
    ));
    let shed_rep = mx_par::install(4, || Server::new(&reader, tight).run(&burst));
    if !shed_rep.reconciles() || shed_rep.dropped_without_response != 0 {
        eprintln!("bench_pipeline: FAIL — saturating burst does not reconcile");
        return 1;
    }
    let health_ok = shed_rep
        .transcripts
        .iter()
        .find(|t| t.id == 500)
        .is_some_and(|t| t.statuses == [200]);
    if !health_ok {
        eprintln!("bench_pipeline: FAIL — /healthz unanswered while saturated");
        return 1;
    }
    eprintln!(
        "  saturation: {} served, {} shed of {CONNS} burst requests; \
         /healthz answered",
        shed_rep.served, shed_rep.shed
    );

    let out = obj! {
        "benchmark" => "serve_load_replay",
        "scale" => "small(42)",
        "dataset" => "alexa",
        "reps_per_point" => REPS as u64,
        "conns" => CONNS as u64,
        "reqs_per_conn" => REQS_PER_CONN as u64,
        "total_requests" => total_reqs,
        "response_bytes" => base_bytes.len() as u64,
        "runs" => Value::Arr(rows),
        "chaos_rate" => 0.3,
        "chaos_ms" => chaos_ms,
        "chaos_conns_faulted" => faulted as u64,
        "chaos_served" => chaos_served,
        "burst_served" => shed_rep.served,
        "burst_shed" => shed_rep.shed,
        "replay_verified" => true,
        "note" => "simulated transport: timings cover parse + route + cache + \
                   render + the discrete-event loop, not sockets; response bytes \
                   asserted identical to the serial baseline at every width and \
                   the accounting identity served+errored+shed+evicted == accepted \
                   asserted on every run including chaos and saturation",
    };
    std::fs::create_dir_all("results").ok();
    std::fs::write("results/BENCH_serve.json", out.to_string_pretty())
        .expect("write results/BENCH_serve.json");
    eprintln!("bench_pipeline: wrote results/BENCH_serve.json");
    0
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--serve") {
        std::process::exit(serve_mode());
    }
    if args.iter().any(|a| a == "--delta") {
        std::process::exit(delta_mode());
    }
    if args.iter().any(|a| a == "--store") {
        let store_out = args
            .iter()
            .position(|a| a == "--store-out")
            .and_then(|i| args.get(i + 1))
            .map(String::to_string);
        std::process::exit(store_mode(store_out.as_deref()));
    }
    if args.iter().any(|a| a == "--attribution") {
        let attrib_out = args
            .iter()
            .position(|a| a == "--attrib-out")
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .unwrap_or("results/ATTRIB_pipeline.json")
            .to_string();
        std::process::exit(attribution_mode(&attrib_out));
    }
    if args.iter().any(|a| a == "--metrics") {
        let metrics_out = args
            .iter()
            .position(|a| a == "--metrics-out")
            .and_then(|i| args.get(i + 1))
            .map(String::to_string);
        std::process::exit(metrics_mode(metrics_out.as_deref()));
    }
    if args.iter().any(|a| a == "--obs") {
        let obs_out = args
            .iter()
            .position(|a| a == "--obs-out")
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .unwrap_or("results/OBS_pipeline.json")
            .to_string();
        std::process::exit(obs_mode(&obs_out));
    }
    let smoke = args.iter().any(|a| a == "--smoke");
    let config = if smoke {
        ScenarioConfig::small(42)
    } else {
        scale_from_env()
    };
    let thread_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4, 8] };

    eprintln!(
        "bench_pipeline: scale {}x{}x{} seed {} (host parallelism {})",
        config.alexa_size,
        config.com_size,
        config.gov_size,
        config.seed,
        mx_par::available_parallelism()
    );

    // One world + measurement, shared by every timed run. Built under a
    // deterministic single-thread install so the input itself is
    // identical no matter what MX_THREADS says (it would be anyway —
    // that is the tentpole's whole contract — but the benchmark should
    // only time what it claims to time).
    let study = mx_par::install(1, || Study::generate(config.clone()));
    let k = mx_corpus::SNAPSHOT_DATES.len() - 1;
    let world = study.world_at(k);
    let data = mx_par::install(1, || observe_world(&world));
    let sets: Vec<ObservationSet> = data.per_dataset.iter().map(|(_, o)| o.clone()).collect();
    let pipeline = Pipeline::priority_based(provider_knowledge(10));

    // Serial baseline: correctness reference and the speedup denominator.
    let t0 = Instant::now();
    let baseline = mx_par::install(1, || run_all(&pipeline, &sets));
    let mut serial_ms = t0.elapsed().as_secs_f64() * 1e3;

    let mut rows: Vec<Value> = Vec::new();
    let mut all_identical = true;
    for &n in thread_counts {
        let mut best_ms = f64::INFINITY;
        let mut identical = true;
        for _ in 0..REPS {
            let t = Instant::now();
            let results = mx_par::install(n, || run_all(&pipeline, &sets));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            best_ms = best_ms.min(ms);
            if n == 1 {
                serial_ms = serial_ms.min(ms);
            }
            identical &= results.len() == baseline.len()
                && results.iter().zip(&baseline).all(|(r, b)| same(r, b));
        }
        all_identical &= identical;
        let speedup = serial_ms / best_ms;
        eprintln!(
            "  threads={n}: {best_ms:.1} ms  (x{speedup:.2} vs serial, identical={identical})"
        );
        rows.push(obj! {
            "threads" => n as u64,
            "ms" => best_ms,
            "speedup_vs_1" => speedup,
            "identical_to_serial" => identical,
        });
    }

    if !all_identical {
        eprintln!("bench_pipeline: FAIL — a parallel run diverged from serial");
        std::process::exit(1);
    }
    if smoke {
        // Store-backed query path: serialize the first dataset's result
        // and re-read it; row count must match the in-memory pipeline.
        let companies = mx_corpus::company_map();
        let store_bytes = pipeline
            .write_store(&companies, [("smoke", &sets[0])])
            .expect("write store");
        let reader = mx_infer::open_store(&store_bytes).expect("open store");
        let mut rows = 0usize;
        reader
            .for_each_row(0, |_name, _row| {
                rows += 1;
                Ok(())
            })
            .expect("scan store");
        if rows != baseline[0].domains.len() {
            eprintln!("bench_pipeline: FAIL — store rows diverge from pipeline result");
            std::process::exit(1);
        }
        eprintln!(
            "bench_pipeline: smoke OK — parallel runs identical to serial; \
             store round-trip over {rows} rows"
        );
        return;
    }

    let out = obj! {
        "benchmark" => "pipeline_thread_scaling",
        "scale" => obj! {
            "alexa" => config.alexa_size as u64,
            "com" => config.com_size as u64,
            "gov" => config.gov_size as u64,
            "seed" => config.seed,
            "snapshot" => k as u64,
            "datasets" => sets.len() as u64,
        },
        "host_available_parallelism" => mx_par::available_parallelism() as u64,
        "reps_per_point" => REPS as u64,
        "serial_ms" => serial_ms,
        "runs" => Value::Arr(rows),
        "note" => "speedups above 1 thread require a multi-core host; \
                   identical_to_serial is asserted on every run regardless",
    };
    std::fs::create_dir_all("results").ok();
    std::fs::write("results/BENCH_pipeline.json", out.to_string_pretty())
        .expect("write results/BENCH_pipeline.json");
    eprintln!("bench_pipeline: wrote results/BENCH_pipeline.json");
}
