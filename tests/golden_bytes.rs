//! Cross-commit byte pins.
//!
//! The determinism gates (`store_gate`, `delta_gate`, `par_determinism`)
//! compare threads and reruns within one build. This test pins FNV-1a
//! digests of the bytes the measurement produces, so a refactor that
//! promises "same bytes" can prove it against the digests recorded
//! before the refactor:
//!
//! - the single-epoch store of each dataset from one `observe_world` +
//!   `Pipeline::run` + `StoreWriter` pass over the last snapshot of
//!   `ScenarioConfig::small(seed)`, for three seeds;
//! - a store grown by the delta reconciler for three batches over
//!   `WorldState::seeded(seed, 400)`;
//! - the encoded `Authority::answer` bytes for MX queries over the
//!   first 200 targets of a study world;
//! - the encoded `mx-serve` responses (`ServeState::handle` +
//!   `Response::encode`) of every data-plane endpoint family over the
//!   Alexa store of `ScenarioConfig::small(seed)`, for three seeds.
//!
//! A digest that moves means the bytes moved. Re-pin only for a change
//! that is meant to alter output, and say so where the change is
//! described.

use mx_analysis::observe::observe_world;
use mx_analysis::store::StudyStoreExt;
use mx_cert::fnv1a;
use mx_corpus::{
    company_map, provider_knowledge, Dataset, ScenarioConfig, Study, World, SNAPSHOT_DATES,
};
use mx_delta::{generate_events, run_incremental, EventStreamConfig, WorldState};
use mx_dns::{Message, RecordType};
use mx_infer::{result_rows, Pipeline};
use mx_serve::{Parsed, RequestParser, ServeState};
use mx_store::{StoreReader, StoreWriter};

/// `(seed, [(store length, FNV-1a digest)] per dataset in observation order)`.
const STUDY_STORES: &[(u64, &[(usize, u64)])] = &[
    (
        1,
        &[
            (37_826, 0x3d44_64e0_7301_e8e4),
            (58_213, 0x6bb9_5317_8964_6adf),
            (16_380, 0x457b_2387_e412_a62d),
        ],
    ),
    (
        7,
        &[
            (38_189, 0xd99e_4701_46be_5017),
            (58_352, 0x0e0c_b409_8b69_8b30),
            (16_896, 0x6c96_2c2b_7429_e89b),
        ],
    ),
    (
        33,
        &[
            (38_589, 0x6d3d_0145_9edf_a9bf),
            (59_220, 0xbfbe_01d4_2d17_b5c4),
            (17_044, 0x22d8_f8a2_e4d6_1f0f),
        ],
    ),
];

/// `(seed, grown store length, FNV-1a digest)`.
const DELTA_STORE: (u64, usize, u64) = (1, 42_766, 0xeb47_46ee_5cfa_bb3e);

/// `(seed, answers, concatenated length, FNV-1a digest)`.
const AUTHORITY_ANSWERS: (u64, usize, usize, u64) = (1, 200, 23_165, 0x6fa6_da24_47be_75b8);

/// `(seed, [(family, requests, 200 answers, concatenated length,
/// FNV-1a digest)])` of the encoded serve responses, one entry per
/// endpoint family.
const SERVE_BODIES: &[(u64, &[(&str, usize, usize, usize, u64)])] = &[
    (
        1,
        &[
            ("diff", 81, 81, 58_751, 0x5042_f9d0_6779_b6aa),
            ("market", 18, 18, 85_970, 0x2796_6423_316d_f1aa),
            ("series", 23, 23, 29_491, 0x57d0_c533_5ff5_1d85),
            ("churn", 8, 8, 2_944, 0xef34_ff05_20e5_877b),
            ("providers", 16, 16, 8_918, 0xac67_e858_be53_988b),
            ("lookup", 201, 200, 56_953, 0x13df_f645_f044_78ac),
        ],
    ),
    (
        7,
        &[
            ("diff", 81, 81, 58_459, 0x9112_f2fb_9f05_c101),
            ("market", 18, 18, 93_802, 0xfabd_78c9_bef7_f4e3),
            ("series", 23, 23, 29_428, 0xc3d9_a55c_5efe_2ed1),
            ("churn", 8, 8, 2_944, 0x2a8b_1296_ef28_236b),
            ("providers", 16, 16, 9_257, 0xc610_954b_9b78_5948),
            ("lookup", 201, 200, 57_006, 0x77e5_31e9_6431_79b4),
        ],
    ),
    (
        33,
        &[
            ("diff", 81, 81, 57_857, 0xb32e_47e4_8097_7f0f),
            ("market", 18, 18, 97_257, 0xe5b9_bf50_32b0_129c),
            ("series", 23, 23, 29_484, 0x5c43_bce1_a87e_4d58),
            ("churn", 8, 8, 2_952, 0x642c_cce2_0c46_82a6),
            ("providers", 16, 16, 8_874, 0x7532_eb89_216d_9705),
            ("lookup", 201, 200, 57_208, 0xdceb_5d2c_8e91_a392),
        ],
    ),
];

fn world(seed: u64) -> World {
    Study::generate(ScenarioConfig::small(seed)).world_at(SNAPSHOT_DATES.len() - 1)
}

fn study_stores(seed: u64) -> Vec<(usize, u64)> {
    let world = world(seed);
    let data = observe_world(&world);
    let pipeline = Pipeline::priority_based(provider_knowledge(10));
    let companies = company_map();
    let label = world.date.ym_label();
    data.per_dataset
        .iter()
        .map(|(_, obs)| {
            let result = pipeline.run(obs);
            let mut writer = StoreWriter::new();
            writer
                .add_epoch(&label, result_rows(&result, &companies), &obs.acquisition)
                .expect("epoch encodes");
            let bytes = writer.finish();
            (bytes.len(), fnv1a(&bytes))
        })
        .collect()
}

#[test]
fn study_stores_match_pinned_digests() {
    for &(seed, want) in STUDY_STORES {
        let got = mx_par::install(1, || study_stores(seed));
        assert_eq!(got, want, "seed {seed}: single-epoch store bytes moved");
    }
}

#[test]
fn delta_store_matches_pinned_digest() {
    let (seed, len, digest) = DELTA_STORE;
    let initial = WorldState::seeded(seed, 400);
    let log = generate_events(
        &initial,
        &EventStreamConfig {
            seed,
            batches: 3,
            ..EventStreamConfig::default()
        },
    );
    let (bytes, _) = mx_par::install(1, || run_incremental(&initial, &log)).expect("delta runs");
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (len, digest),
        "grown store bytes moved"
    );
}

#[test]
fn authority_answers_match_pinned_digest() {
    let (seed, count, len, digest) = AUTHORITY_ANSWERS;
    let world = world(seed);
    let authority = world.net.authority();
    let mut bytes = Vec::new();
    let targets = world.targets.iter().flat_map(|(_, t)| t).take(count);
    for (id, name) in (1u16..).zip(targets) {
        let answer = authority.answer(&Message::query(id, name.clone(), RecordType::Mx));
        bytes.extend(answer.encode().expect("answer encodes"));
    }
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (len, digest),
        "answer bytes moved"
    );
}

/// Percent-encode everything but unreserved bytes, so any credit or
/// provider string can ride in a request target.
fn escape(s: &str) -> String {
    let mut out = String::new();
    for b in s.bytes() {
        if b.is_ascii_alphanumeric() || b == b'.' || b == b'-' || b == b'_' {
            out.push(char::from(b));
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// The request targets of each endpoint family over one store.
fn serve_targets(reader: &StoreReader<'_>) -> Vec<(&'static str, Vec<String>)> {
    let epochs = reader.epoch_count();
    let last = epochs - 1;
    let diff = (0..epochs)
        .flat_map(|a| (0..epochs).map(move |b| format!("/epochs/{a}..{b}/diff")))
        .collect();
    let market = (0..epochs)
        .flat_map(|e| {
            [
                format!("/market?epoch={e}"),
                format!("/market?epoch={e}&top=5"),
            ]
        })
        .collect();
    let companies = reader.companies();
    let mut series: Vec<String> = companies
        .windows(2)
        .map(|w| format!("/series?credit={}&credit={}", escape(w[0]), escape(w[1])))
        .collect();
    series.push(format!(
        "/series?credit=no-such-credit&credit={}",
        escape(companies[0])
    ));
    let churn = (1..epochs)
        .map(|e| format!("/churn?from={}&to={e}", e - 1))
        .collect();
    let providers = reader
        .providers()
        .iter()
        .filter(|p| {
            !p.is_empty()
                && p.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'.' || b == b'-' || b == b'_')
        })
        .take(16)
        .map(|p| format!("/providers/{p}/domains"))
        .collect();
    let mut lookup = Vec::new();
    reader
        .for_each_row(last, |name, _| {
            if lookup.len() < 200 {
                lookup.push(format!("/lookup?domain={}", escape(name)));
            }
            Ok(())
        })
        .expect("last epoch iterates");
    lookup.push("/lookup?domain=no-such-domain.example".to_string());
    vec![
        ("diff", diff),
        ("market", market),
        ("series", series),
        ("churn", churn),
        ("providers", providers),
        ("lookup", lookup),
    ]
}

fn serve_bodies(seed: u64) -> Vec<(&'static str, usize, usize, usize, u64)> {
    let study = Study::generate(ScenarioConfig::small(seed));
    let pipeline = Pipeline::priority_based(provider_knowledge(10));
    let store = study
        .write_store(Dataset::Alexa, &pipeline, &company_map())
        .expect("store writes");
    let reader = StoreReader::open(&store).expect("store opens");
    let state = ServeState::new(&reader);
    serve_targets(&reader)
        .into_iter()
        .map(|(family, targets)| {
            let mut bytes = Vec::new();
            let mut ok = 0;
            for target in &targets {
                let mut parser = RequestParser::new();
                parser
                    .push(format!("GET {target} HTTP/1.1\r\nHost: mx\r\n\r\n").as_bytes())
                    .expect("request buffers");
                let Ok(Parsed::Request(req)) = parser.try_next() else {
                    panic!("{target} does not parse");
                };
                let response = state.handle(&req).response;
                ok += usize::from(response.status == 200);
                bytes.extend(response.encode(false, true));
            }
            (family, targets.len(), ok, bytes.len(), fnv1a(&bytes))
        })
        .collect()
}

#[test]
fn serve_bodies_match_pinned_digests() {
    for &(seed, want) in SERVE_BODIES {
        let got = mx_par::install(1, || serve_bodies(seed));
        assert_eq!(got, want, "seed {seed}: serve response bytes moved");
    }
}
