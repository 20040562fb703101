//! Trace gate: the deterministic trace timeline, the Prometheus text
//! rendering and the stage attribution must be byte-identical at any
//! thread count, across reruns and across seeds; ring overflow must
//! drop oldest with exact `obs.trace.dropped` accounting; and the
//! serve kernel's per-request events must reconcile with the
//! `RunReport` it returns (write marks == flushed statuses, shed marks
//! == shed requests, evict marks == evictions).
//!
//! One `#[test]` on purpose: the obs registry and trace rings are
//! process-global, so the whole scenario runs under a single
//! reset/capture bracket.

use mx_analysis::observe::observe_world;
use mx_analysis::store::StudyStoreExt;
use mx_corpus::{company_map, provider_knowledge, Dataset, ScenarioConfig, Study};
use mx_infer::Pipeline;
use mx_obs::attrib::Attribution;
use mx_obs::names;
use mx_obs::trace::{self, TraceSnapshot};
use mx_serve::{ClientConn, Server, ServerConfig, Trace};

/// Run the measured stack (observe + infer every dataset) so every
/// instrumented pipeline stage fires.
fn run_stack(study: &Study) {
    let world = study.world_at(mx_corpus::SNAPSHOT_DATES.len() - 1);
    let data = observe_world(&world);
    let pipeline = Pipeline::priority_based(provider_knowledge(10));
    for (_, obs) in &data.per_dataset {
        let result = pipeline.run(obs);
        assert!(!result.domains.is_empty());
    }
}

/// One deterministic view of the process-global obs state: stable
/// trace JSON, Prometheus text, attribution JSON.
fn deterministic_views() -> (String, String, String) {
    let snap = TraceSnapshot::capture();
    assert_eq!(
        snap.dropped + snap.events.len() as u64,
        snap.recorded,
        "ring accounting must reconcile"
    );
    assert_eq!(snap.dropped, 0, "gates size the rings to avoid drops");
    let det = snap.deterministic_json();
    trace::validate_trace(&det).expect("trace export validates");
    let prom = mx_obs::export::Snapshot::capture().prometheus_text();
    let attrib = Attribution::capture();
    // Attribution rows must reconcile with the span layer's totals:
    // same enters, sim charges leaf-attributed exactly once.
    let stages = mx_obs::span::snapshot();
    assert!(!attrib.rows.is_empty(), "attribution captured no stages");
    for s in &stages {
        let row = attrib
            .rows
            .iter()
            .find(|r| r.stage == s.name)
            .expect("every stage has an attribution row");
        assert_eq!(row.enters, s.enters, "enters of {}", s.name);
        assert_eq!(row.sim_exclusive, s.sim_secs, "sim_exclusive of {}", s.name);
    }
    let total_sim: u64 = stages.iter().map(|s| s.sim_secs).sum();
    assert_eq!(attrib.total_sim, total_sim, "attribution total == span total");
    (det, prom, attrib.deterministic_json())
}

#[test]
fn trace_timeline_is_deterministic_and_reconciles() {
    mx_obs::set_enabled(true);
    mx_obs::set_trace_enabled(true);

    // --- pipeline timeline: widths {1, 2, 8} + a rerun, three seeds --
    for seed in [42u64, 7, 99] {
        let study = mx_par::install(1, || Study::generate(ScenarioConfig::small(seed)));
        let mut baseline: Option<(String, String, String)> = None;
        // The second `2` is a rerun at the same width: same bytes again.
        for &n in &[1usize, 2, 8, 2] {
            mx_obs::reset();
            mx_par::install(n, || run_stack(&study));
            let views = deterministic_views();
            match &baseline {
                None => baseline = Some(views),
                Some((det, prom, attrib)) => {
                    assert_eq!(&views.0, det, "trace JSON at width {n}, seed {seed}");
                    assert_eq!(&views.1, prom, "prometheus text at width {n}, seed {seed}");
                    assert_eq!(&views.2, attrib, "attribution at width {n}, seed {seed}");
                }
            }
        }
    }

    // --- ring overflow: drop-oldest, counted exactly ----------------
    mx_obs::reset();
    let keep = trace::capacity();
    trace::set_capacity(16);
    let st = mx_obs::stage!("trace.gate.overflow");
    for i in 0..100u64 {
        st.instant(i, 0);
    }
    let snap = TraceSnapshot::capture();
    assert_eq!(snap.events.len(), 16);
    assert_eq!(snap.dropped, 84);
    assert_eq!(snap.dropped + snap.events.len() as u64, snap.recorded);
    assert_eq!(
        mx_obs::metrics::counter_value(names::OBS_TRACE_DROPPED),
        snap.dropped,
        "obs.trace.dropped reconciles with the snapshot"
    );
    // Oldest went first: the survivors are the newest 16 stamps.
    assert_eq!(snap.events.first().map(|e| e.t), Some(84));
    assert_eq!(snap.events.last().map(|e| e.t), Some(99));
    trace::set_capacity(keep);

    // --- serve kernel: request events reconcile with the report -----
    let study = mx_par::install(1, || Study::generate(ScenarioConfig::small(42)));
    let pipeline = Pipeline::priority_based(provider_knowledge(10));
    let bytes = study
        .write_store(Dataset::Alexa, &pipeline, &company_map())
        .expect("write store");
    let reader = mx_store::StoreReader::open(&bytes).expect("open store");
    let last = reader.epoch_count() - 1;
    let mut names_in_store: Vec<String> = Vec::new();
    reader
        .for_each_row(last, |name, _| {
            names_in_store.push(name.to_string());
            Ok(())
        })
        .expect("scan last epoch");

    // A workload that exercises every outcome: saturation (shed),
    // the connection cap (refused), a stalled partial (evicted), and
    // a late introspection walk over the live endpoints.
    let mut workload = Trace::new();
    for c in 0..6u64 {
        let a = &names_in_store[c as usize % names_in_store.len()];
        let b = &names_in_store[(c as usize + 1) % names_in_store.len()];
        // Keep-alives on purpose: the six conns must still be open when
        // c6/c7 arrive at t=1, so the connection cap actually refuses.
        let r1 = format!("GET /lookup?domain={a}&epoch={last} HTTP/1.1\r\n\r\n");
        let r2 = format!("GET /lookup?domain={b}&epoch=0 HTTP/1.1\r\n\r\n");
        workload = workload.with(ClientConn::scripted(
            c,
            0,
            0,
            &[r1.as_bytes(), r2.as_bytes()],
        ));
    }
    for c in 6..8u64 {
        workload = workload.with(ClientConn::scripted(
            c,
            1,
            0,
            &[b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n"],
        ));
    }
    // A partial request that never completes: evicted at the deadline.
    // Opens at t=0 with the others (the cap admits exactly these 7).
    workload = workload.with(ClientConn::scripted(
        8,
        0,
        0,
        &[b"GET /lookup?domain=stalled HTTP/1.1\r\n"],
    ));
    const INTRO_CONN: u64 = 900;
    workload = workload.with(ClientConn::scripted(
        INTRO_CONN,
        150,
        1,
        &[
            b"GET /metrics HTTP/1.1\r\n\r\n",
            b"GET /metrics?format=json HTTP/1.1\r\n\r\n",
            b"GET /debug/trace?last=32 HTTP/1.1\r\n\r\n",
            b"GET /debug/attribution HTTP/1.1\r\nConnection: close\r\n\r\n",
        ],
    ));
    let cfg = ServerConfig {
        workers: 1,
        queue_capacity: 2,
        max_conns: 7,
        read_deadline_ms: 100,
        idle_deadline_ms: 250,
        service_ms: 5,
        retry_after_secs: 1,
    };

    let mut serve_base: Option<(Vec<u8>, String)> = None;
    for &n in &[1usize, 2, 8] {
        mx_obs::reset();
        let report = mx_par::install(n, || Server::new(&reader, cfg).run(&workload));
        assert!(report.reconciles(), "accounting identity at width {n}");
        assert_eq!(report.dropped_without_response, 0);
        // The scenario must actually exercise every branch it claims.
        assert!(report.shed > 0, "workload must shed");
        assert_eq!(report.evicted, 1, "the stalled conn must evict");
        assert!(report.conns_refused > 0, "the conn cap must refuse");

        // Trace identities against the report: every flushed status got
        // exactly one write mark (refused conns included), every shed
        // and eviction exactly one mark.
        let flushed: u64 = report
            .transcripts
            .iter()
            .map(|t| t.statuses.len() as u64)
            .sum();
        let enters = |name: &str| {
            mx_obs::span::stage_totals(name)
                .map(|s| s.enters)
                .unwrap_or(0)
        };
        assert_eq!(enters(names::STAGE_SERVE_REQ_WRITE), flushed);
        assert_eq!(enters(names::STAGE_SERVE_REQ_SHED), report.shed);
        assert_eq!(enters(names::STAGE_SERVE_REQ_EVICT), report.evicted);

        // Render sim time in the timeline equals the stage's sim total
        // (only true while nothing was dropped, asserted in capture).
        let snap = TraceSnapshot::capture();
        assert_eq!(snap.dropped, 0);
        let render_sim: u64 = snap
            .events
            .iter()
            .filter(|e| e.stage == names::STAGE_SERVE_REQ_RENDER)
            .map(|e| e.dur)
            .sum();
        let render_stage =
            mx_obs::span::stage_totals(names::STAGE_SERVE_REQ_RENDER).expect("render stage");
        assert_eq!(render_sim, render_stage.sim_secs);

        // The introspection walk answered 200 everywhere, and the whole
        // byte stream (live `/metrics` + `/debug/*` bodies included) is
        // width-invariant.
        let intro = report
            .transcripts
            .iter()
            .find(|t| t.id == INTRO_CONN)
            .expect("introspection conn");
        assert_eq!(intro.statuses, [200, 200, 200, 200]);
        let view = (report.all_bytes(), snap.deterministic_json());
        match &serve_base {
            None => serve_base = Some(view),
            Some((all, det)) => {
                assert_eq!(&view.0, all, "response bytes at width {n}");
                assert_eq!(&view.1, det, "serve trace JSON at width {n}");
            }
        }
    }

    mx_obs::set_trace_enabled(false);
    mx_obs::set_enabled(false);
}
