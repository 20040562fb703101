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
//!   first 200 targets of a study world.
//!
//! A digest that moves means the bytes moved. Re-pin only for a change
//! that is meant to alter output, and say so where the change is
//! described.

use mx_analysis::observe::observe_world;
use mx_cert::fnv1a;
use mx_corpus::{company_map, provider_knowledge, ScenarioConfig, Study, World, SNAPSHOT_DATES};
use mx_delta::{generate_events, run_incremental, EventStreamConfig, WorldState};
use mx_dns::{Message, RecordType};
use mx_infer::{result_rows, Pipeline};
use mx_store::StoreWriter;

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
