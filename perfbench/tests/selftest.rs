//! The benchmark's own test at a tiny scale: every metric named in
//! `BENCHMARK.json` is emitted with its unit by every workload, and a
//! corrupted output fails the output checks.

use mx_analysis::StudyStoreExt;
use mx_corpus::{company_map, provider_knowledge, Dataset, ScenarioConfig, Study, SNAPSHOT_DATES};
use mx_infer::Pipeline;
use mx_perfbench::report::Outcome;
use mx_perfbench::{run, serve, study, Scale, Workload};
use mx_serve::Server;
use mx_store::StoreReader;

/// The obs counters and their on/off switch are process-global, and
/// every test here records into them, so the tests take turns.
fn exclusive() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("{\"name\": \"")
        .skip(1)
        .map(|entry| {
            let name = entry[..entry.find('"').expect("name closes")].to_string();
            let unit = entry.split("\"unit\": \"").nth(1).expect("unit present");
            (
                name,
                unit[..unit.find('"').expect("unit closes")].to_string(),
            )
        })
        .collect()
}

fn assert_emits(out: &Outcome, section: &str, what: &str) {
    let wanted = declared(section);
    assert!(!wanted.is_empty(), "no {section} metrics declared");
    for (name, unit) in &wanted {
        let m = out
            .metrics
            .iter()
            .find(|m| &m.name == name)
            .unwrap_or_else(|| panic!("{what}: metric {name} not emitted"));
        assert_eq!(m.unit, unit, "{what}: unit of {name}");
        assert!(m.value.is_finite(), "{what}: {name} = {}", m.value);
    }
    assert_eq!(
        out.metrics.len(),
        wanted.len(),
        "{what}: undeclared metrics emitted"
    );
    assert!(out.correct(), "{what}: checks failed: {:?}", out.failures);
    let line = out.to_json();
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    let _turn = exclusive();
    for w in Workload::ALL {
        let out = run(w, 3, 0.05, false, &Scale::tiny()).expect("workload runs");
        assert_emits(&out, "end_to_end", w.name());
        assert!(out.value("setup_s").expect("setup_s") > 0.0);
        assert_eq!(out.value("ok_ratio"), Some(1.0));
    }
}

#[test]
fn traced_run_emits_every_per_layer_metric() {
    let _turn = exclusive();
    let out = run(Workload::Serve, 3, 0.05, true, &Scale::tiny()).expect("traced run");
    assert_emits(&out, "per_layer", "traced run");
}

#[test]
fn exact_counts_repeat_across_traced_runs() {
    let _turn = exclusive();
    let a = run(Workload::Study, 5, 0.05, true, &Scale::tiny()).expect("traced run");
    let b = run(Workload::Study, 5, 0.05, true, &Scale::tiny()).expect("traced run");
    for name in [
        "dns.queries_per_domain",
        "dns.cache_hit_ratio",
        "net.scan_attempts_per_ip",
        "smtp.sessions_per_ip",
        "delta.reresolved_per_epoch",
        "delta.dns_queries_per_epoch",
        "delta.store_growth_bytes_per_epoch",
        "serve.row_cache_hit_ratio",
        "serve.json_cache_hit_ratio",
        "serve.resp_bytes_per_req",
    ] {
        assert_eq!(a.value(name), b.value(name), "{name} differs between runs");
    }
}

#[test]
fn changed_store_byte_fails_the_study_check() {
    let _turn = exclusive();
    let world = Study::generate(ScenarioConfig::small(2)).world_at(SNAPSHOT_DATES.len() - 1);
    let pipeline = Pipeline::priority_based(provider_knowledge(10));
    let (reference, _) = study::pass(&world, &pipeline, &company_map()).expect("pass");
    let (mut got, _) = study::pass(&world, &pipeline, &company_map()).expect("pass");
    assert_eq!(study::differs(&reference, &got), None);
    let store = got.stores.last_mut().expect("a store per dataset");
    let mid = store.len() / 2;
    store[mid] ^= 0x01;
    assert!(study::differs(&reference, &got).is_some());
}

#[test]
fn flipped_response_byte_fails_the_serve_check() {
    let _turn = exclusive();
    let pipeline = Pipeline::priority_based(provider_knowledge(10));
    let store = Study::generate(ScenarioConfig::small(2))
        .write_store(Dataset::Alexa, &pipeline, &company_map())
        .expect("store");
    let reader = StoreReader::open(&store).expect("open");
    let targets = serve::targets(&reader, 2, 128).expect("targets");
    let trace = serve::trace(&targets);
    let reference = Server::new(&reader, serve::config()).run(&trace);
    let mut replay = Server::new(&reader, serve::config()).run(&trace);
    assert_eq!(serve::verify(&reference, &replay, 128), (0, None));
    let bytes = &mut replay.transcripts[1].bytes;
    let last = bytes.len() - 2;
    bytes[last] ^= 0x20;
    let (failed, why) = serve::verify(&reference, &replay, 128);
    assert!(failed > 0 && why.is_some());
}
