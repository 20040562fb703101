//! Incremental-measurement gate for `mx-delta`.
//!
//! The contract: every store the reconciler emits — the base build,
//! then one epoch per event batch appended on its hot `StoreWriter`
//! (only the re-attributed rows and departed domains are handed over)
//! and encoded with `StoreWriter::snapshot` — is **byte-identical** to
//! a full-pipeline recompute of the same log prefix, for every seed,
//! event rate and `mx_par` thread width. Checking every prefix, not
//! only the last, means writer state that goes stale mid-series
//! fails here even when a later epoch happens to mask it. On top of
//! the bytes, the `delta.*` obs counters must reconcile exactly
//! against the reconciler's own accounting, and the accounting must
//! close: every domain is either re-resolved or a reuse hit, never
//! both, never neither.
//!
//! Everything runs inside one `#[test]` so the global counter
//! comparison is not raced by a sibling test.

use mx_delta::{
    decode_log, encode_log, full_recompute, generate_events, run_incremental, EventStreamConfig,
    Reconciler, WorldState,
};
use mx_store::{EpochKind, StoreReader};

const SEEDS: &[u64] = &[1, 7, 42];
const THREADS: &[usize] = &[1, 2, 8];
const RATES: &[f64] = &[0.02, 0.20];
const POPULATION: usize = 220;
const BATCHES: usize = 3;

fn counter_values() -> [u64; 6] {
    use mx_obs::names as n;
    [
        mx_obs::counter!(n::DELTA_EVENTS_APPLIED).value(),
        mx_obs::counter!(n::DELTA_DOMAINS_DIRTY).value(),
        mx_obs::counter!(n::DELTA_RERESOLVES).value(),
        mx_obs::counter!(n::DELTA_RESCANS).value(),
        mx_obs::counter!(n::DELTA_REUSE_HITS).value(),
        mx_obs::counter!(n::DELTA_EPOCHS_APPENDED).value(),
    ]
}

#[test]
fn incremental_append_is_byte_identical_to_full_recompute() {
    mx_obs::set_enabled(true);
    let before = counter_values();
    let mut expected = [0u64; 6];

    for &seed in SEEDS {
        for &rate in RATES {
            let initial = WorldState::seeded(seed, POPULATION);
            let log = generate_events(
                &initial,
                &EventStreamConfig {
                    seed,
                    batches: BATCHES,
                    churn: rate,
                    adds_per_batch: 2,
                },
            );
            assert!(
                log.iter().map(Vec::len).sum::<usize>() > 0,
                "seed {seed} rate {rate}: empty event stream"
            );

            // The event log round-trips through its wire format before
            // application, like a log replayed from disk would.
            let replayed = decode_log(&encode_log(&log)).expect("log round-trips");
            assert_eq!(replayed, log);

            // Oracle: a full recompute of every prefix of the log.
            let oracle: Vec<Vec<u8>> = mx_par::install(8, || {
                (0..=replayed.len())
                    .map(|k| full_recompute(&initial, &replayed[..k]).expect("oracle runs"))
                    .collect()
            });

            for &threads in THREADS {
                let (bytes, stats) = mx_par::install(threads, || {
                    let mut rec = Reconciler::new(initial.clone());
                    let mut bytes = rec.base_store().expect("base builds");
                    assert_eq!(
                        bytes, oracle[0],
                        "seed {seed} rate {rate} threads {threads}: base store diverged"
                    );
                    let mut stats = Vec::with_capacity(replayed.len());
                    for (k, batch) in replayed.iter().enumerate() {
                        let (next, s) = rec.apply_batch(batch).expect("batch applies");
                        assert_eq!(
                            next,
                            oracle[k + 1],
                            "seed {seed} rate {rate} threads {threads}: store after batch {k} diverged"
                        );
                        bytes = next;
                        stats.push(s);
                    }
                    (bytes, stats)
                });

                // The accounting closes batch by batch: every domain is
                // re-resolved or reused, and every re-scan shows up in
                // the appended epoch's acquisition sidecar.
                let reader = StoreReader::open(&bytes).expect("grown store opens");
                assert_eq!(reader.epoch_count(), BATCHES + 1);
                assert_eq!(reader.epoch_kind(0), Some(EpochKind::Base));
                for (k, s) in stats.iter().enumerate() {
                    assert_eq!(
                        s.reresolved + s.reuse_hits,
                        s.population,
                        "seed {seed} rate {rate} threads {threads} batch {k}: accounting leak"
                    );
                    assert!(s.dirty_domains >= s.reresolved || s.population == 0);
                    let epoch = k + 1;
                    assert_eq!(reader.label(epoch), Some(mx_delta::epoch_label(epoch).as_str()));
                    assert_eq!(reader.epoch_kind(epoch), Some(EpochKind::Delta));
                    let acq = reader
                        .acquisition_report(epoch)
                        .expect("sidecar acquisition reads");
                    assert!(
                        s.rescanned_ips <= acq.ips.len() as u64,
                        "batch {k}: rescanned {} ips but sidecar only accounts {}",
                        s.rescanned_ips,
                        acq.ips.len()
                    );
                    assert!(acq.domains.is_empty(), "delta DNS must be fault-free");
                }

                for s in &stats {
                    expected[0] += s.events_applied;
                    expected[1] += s.dirty_domains;
                    expected[2] += s.reresolved;
                    expected[3] += s.rescanned_ips;
                    expected[4] += s.reuse_hits;
                    expected[5] += 1;
                }
            }

            // Churn sanity: at low rates most measurement is reused.
            if rate <= 0.05 {
                let (bytes, stats) =
                    mx_par::install(1, || run_incremental(&initial, &replayed).expect("runs"));
                assert_eq!(
                    Some(&bytes),
                    oracle.last(),
                    "seed {seed} rate {rate}: run_incremental diverged"
                );
                for s in &stats {
                    expected[0] += s.events_applied;
                    expected[1] += s.dirty_domains;
                    expected[2] += s.reresolved;
                    expected[3] += s.rescanned_ips;
                    expected[4] += s.reuse_hits;
                    expected[5] += 1;
                    assert!(
                        s.reuse_hits * 2 > s.population,
                        "low churn should reuse most domains: {s:?}"
                    );
                }
            }
        }
    }

    // The delta.* counters reconcile exactly against the stats the
    // reconciler reported.
    let after = counter_values();
    let names = [
        "events applied",
        "dirty domains",
        "re-resolves",
        "re-scans",
        "reuse hits",
        "epochs appended",
    ];
    for i in 0..6 {
        assert_eq!(
            after[i] - before[i],
            expected[i],
            "counter {} out of step",
            names[i]
        );
    }
    mx_obs::set_enabled(false);
}
