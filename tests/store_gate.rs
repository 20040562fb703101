//! Determinism + round-trip gate for the `mx-store` snapshot store.
//!
//! Three contracts, mirroring `tests/par_determinism.rs`:
//!
//! 1. **Byte determinism** — serializing the same study produces
//!    byte-identical store files at any `mx_par::install` width and on
//!    repeated runs. A store file is an artifact meant to be diffed,
//!    cached and `cmp`'d by CI; a single nondeterministic byte breaks
//!    all of that.
//! 2. **Round trip** — every analysis table computed from the store
//!    (market share, longitudinal series, churn flows, per-domain
//!    assignments) equals the in-memory path, including every `f64`
//!    bit, across seeds.
//! 3. **Corruption totality** — deterministic truncations and bit
//!    flips of a real store file produce typed errors or valid
//!    readers, never a panic (the dynamic twin of mx-lint's static
//!    R1/R2/R3/R7 scope on the codec).

use mx_analysis::observe::observe_world;
use mx_analysis::store::{
    churn_from_store, churn_from_store_merged, credit_shares_at, domains_of_provider,
    domains_of_provider_merged, market_share_at, market_share_merged, self_hosted_at,
    self_hosted_merged, series_from_store, StudyStoreExt,
};
use mx_corpus::{company_map, provider_knowledge, Dataset, ScenarioConfig, Study};
use mx_infer::{assignment_from_row, CompanyMap, Pipeline};
use mx_psl::PublicSuffixList;
use mx_store::StoreReader;

const SEEDS: &[u64] = &[1, 7, 42];
const THREADS: &[usize] = &[1, 2, 8];

fn pipeline() -> Pipeline {
    Pipeline::priority_based(provider_knowledge(10))
}

fn build_store(seed: u64, dataset: Dataset) -> Vec<u8> {
    let study = Study::generate(ScenarioConfig::small(seed));
    study
        .write_store(dataset, &pipeline(), &company_map())
        .expect("serialize study")
}

#[test]
fn store_bytes_identical_across_thread_counts_and_runs() {
    let base = mx_par::install(1, || build_store(1, Dataset::Alexa));
    assert!(!base.is_empty());
    for &n in THREADS {
        let other = mx_par::install(n, || build_store(1, Dataset::Alexa));
        assert!(
            base == other,
            "store bytes diverge at {n} threads ({} vs {} bytes)",
            base.len(),
            other.len()
        );
    }
    // Repeated run at the widest width: no hidden global state.
    let again = mx_par::install(8, || build_store(1, Dataset::Alexa));
    assert!(base == again, "store bytes diverge between repeated runs");
}

/// The full write→read→analyze round trip for one seed: every table
/// the store can answer must equal the in-memory computation.
fn assert_round_trip(seed: u64) {
    let study = Study::generate(ScenarioConfig::small(seed));
    let pipeline = pipeline();
    let companies: CompanyMap = company_map();
    let bytes = study
        .write_store(Dataset::Alexa, &pipeline, &companies)
        .expect("serialize study");
    let reader = StoreReader::open(&bytes).expect("reopen store");
    assert_eq!(reader.epoch_count(), mx_corpus::SNAPSHOT_DATES.len());

    // In-memory references at the first and last snapshot.
    let run_at = |k: usize| {
        let world = study.world_at(k);
        let data = observe_world(&world);
        let obs = data.dataset(Dataset::Alexa).expect("alexa active").clone();
        let result = pipeline.run(&obs);
        (result, obs)
    };
    let last = reader.epoch_count() - 1;
    let (r0, o0) = run_at(0);
    let (r8, o8) = run_at(last);

    // Per-domain assignments: every stored row reconstructs the exact
    // in-memory assignment (shares, order, weights, has_smtp), and the
    // counts match so nothing was dropped or invented.
    let mut rows = 0usize;
    reader
        .for_each_row(last, |name, row| {
            rows += 1;
            let got = assignment_from_row(name, row).expect("stored name parses");
            let expect = r8
                .domains
                .get(&got.domain)
                .unwrap_or_else(|| panic!("seed {seed}: stray stored domain {name}"));
            assert_eq!(&got, expect, "seed {seed}: domain {name}");
            Ok(())
        })
        .expect("scan last epoch");
    assert_eq!(rows, r8.domains.len(), "seed {seed}: row count");

    // Market share: bit-equal rows at both ends of the study.
    for (k, r) in [(0usize, &r0), (last, &r8)] {
        let mem = mx_analysis::market::market_share(r, &companies, None);
        let stored = market_share_at(&reader, k).expect("stored market share");
        assert_eq!(stored.total_domains, mem.total_domains, "seed {seed} epoch {k}");
        assert_eq!(stored.rows, mem.rows, "seed {seed} epoch {k}: market rows");
    }

    // Longitudinal series: same dates, weights and shares, bit for bit.
    let tracked = ["Google", "Microsoft"];
    let mem_series = mx_analysis::longitudinal::run_series(
        &study,
        Dataset::Alexa,
        &tracked,
        &provider_knowledge(10),
        &companies,
    );
    let stored_series =
        series_from_store(&reader, Dataset::Alexa, &tracked).expect("stored series");
    assert_eq!(stored_series.dates, mem_series.dates, "seed {seed}: dates");
    for (sc, mc) in stored_series.companies.iter().zip(&mem_series.companies) {
        assert_eq!(sc.0, mc.0);
        for (sp, mp) in sc.1.iter().zip(&mc.1) {
            assert_eq!(sp.date, mp.date, "seed {seed}: {} date", sc.0);
            assert_eq!(
                sp.weight.to_bits(),
                mp.weight.to_bits(),
                "seed {seed}: {} weight at {}",
                sc.0,
                sp.date
            );
            assert_eq!(sp.share.to_bits(), mp.share.to_bits(), "seed {seed}");
        }
    }
    for (sp, mp) in stored_series.self_hosted.iter().zip(&mem_series.self_hosted) {
        assert_eq!(sp.weight.to_bits(), mp.weight.to_bits(), "seed {seed}: self-hosted");
    }
    for (sp, mp) in stored_series.top5_total.iter().zip(&mem_series.top5_total) {
        assert_eq!(sp.share.to_bits(), mp.share.to_bits(), "seed {seed}: top5");
    }

    // Churn flows between the study's endpoints.
    let mem_churn = mx_analysis::churn::churn_matrix((&r0, &o0), (&r8, &o8), &companies);
    let stored_churn = churn_from_store(&reader, 0, last).expect("stored churn");
    assert_eq!(stored_churn.total, mem_churn.total, "seed {seed}: churn total");
    for from in mx_analysis::ChurnCategory::ALL {
        for to in mx_analysis::ChurnCategory::ALL {
            assert_eq!(
                stored_churn.flow(from, to),
                mem_churn.flow(from, to),
                "seed {seed}: churn flow {from:?} -> {to:?}"
            );
        }
    }

    // Acquisition sidecar: the stored report equals the observed one.
    let stored_acq = reader.acquisition_report(last).expect("stored sidecar");
    assert_eq!(stored_acq.ips, o8.acquisition.ips, "seed {seed}: ip sidecar");
    assert_eq!(
        stored_acq.domains, o8.acquisition.domains,
        "seed {seed}: dns sidecar"
    );

    // Index gate: the footer survives full recomputation against the
    // epoch layers, and every index-backed query equals the merge-path
    // reference bit for bit. (`market_share_at` and `churn_from_store`
    // above already went through the index; here the two
    // implementations face each other directly.)
    reader.verify_indexes().expect("index footer matches layers");
    let psl = PublicSuffixList::builtin();
    for k in [0usize, last / 2, last] {
        let merged = market_share_merged(&reader, k).expect("merged market share");
        let indexed = market_share_at(&reader, k).expect("indexed market share");
        assert_eq!(indexed.total_domains, merged.total_domains, "seed {seed} epoch {k}");
        assert_eq!(indexed.rows, merged.rows, "seed {seed} epoch {k}: index vs merge");
        assert_eq!(
            self_hosted_at(&reader, k).expect("indexed self-hosted"),
            self_hosted_merged(&reader, k, &psl).expect("merged self-hosted"),
            "seed {seed} epoch {k}: self-hosted count"
        );
    }
    let merged_churn = churn_from_store_merged(&reader, 0, last).expect("merged churn");
    assert_eq!(stored_churn.total, merged_churn.total, "seed {seed}: churn totals");
    assert_eq!(
        stored_churn.flows, merged_churn.flows,
        "seed {seed}: digest churn vs merge churn"
    );

    // Reverse queries: postings lists answer "who uses provider X"
    // identically to a full-epoch scan, domain for domain and in the
    // same order, for every interned provider.
    let mut postings_hits = 0usize;
    for provider in reader.providers() {
        let indexed = domains_of_provider(&reader, provider, last).expect("postings");
        let scanned = domains_of_provider_merged(&reader, provider, last).expect("scan");
        assert_eq!(indexed, scanned, "seed {seed}: domains of {provider}");
        postings_hits += usize::from(!indexed.is_empty());
    }
    assert!(postings_hits > 0, "seed {seed}: no provider had postings");
}

#[test]
fn round_trip_equals_in_memory_across_seeds() {
    for &seed in SEEDS {
        assert_round_trip(seed);
    }
}

/// Deterministic corruption sweep over a real store file: truncations
/// at a fixed stride plus single-byte XORs with fixed masks. Every
/// mutant must either fail `open` with a typed error or open and then
/// survive full iteration, sidecar decoding, the index surfaces, the
/// rollup-backed `/series` read and `diff` over every epoch pair — no
/// panics, ever.
#[test]
fn corrupted_stores_never_panic() {
    let bytes = build_store(7, Dataset::Gov);
    assert!(bytes.len() > 512, "gov store suspiciously small");

    // Every truncation point near the header, then a stride across the
    // body (prefix cuts of the epochs and sidecars).
    let mut cuts: Vec<usize> = (0..64.min(bytes.len())).collect();
    cuts.extend((64..bytes.len()).step_by(37));
    for cut in cuts {
        let r = StoreReader::open(&bytes[..cut]);
        assert!(r.is_err(), "prefix of {cut} bytes opened: {r:?}");
    }

    // Single-byte corruption: XOR masks chosen to hit tag bytes, varint
    // continuation bits and string content alike. A mutant may still
    // open (flipping one weight bit is valid data); then every decode
    // surface must stay total.
    for pos in (0..bytes.len()).step_by(13) {
        for mask in [0x01u8, 0x80, 0xFF] {
            let mut mutant = bytes.clone();
            mutant[pos] ^= mask;
            let Ok(reader) = StoreReader::open(&mutant) else {
                continue; // typed error: exactly what the contract asks
            };
            // A full `/series` request: known credits plus an unknown one.
            let mut credits: Vec<&str> = reader.companies().iter().copied().take(7).collect();
            credits.push("no-such-credit");
            for epoch in 0..reader.epoch_count() {
                let _ = reader.for_each_row(epoch, |_name, row| {
                    for s in row.shares() {
                        let _ = (s.provider, s.company, s.weight, s.source);
                    }
                    Ok(())
                });
                let _ = reader.acquisition_report(epoch);
                let _ = reader.lookup("example.gov", epoch);
                // The index surfaces are held to the same totality bar.
                let _ = reader.summary_total_rows(epoch);
                let _ = reader.for_each_rollup(epoch, |_c, _w| Ok(()));
                if let Ok(digest) = reader.digest_rows(epoch) {
                    for _row in digest {}
                }
                let _ = reader.domains_of_provider("example.gov", epoch);
                // The rollup-backed `/series` path.
                let _ = credit_shares_at(&reader, epoch, &credits);
                // `diff` over every epoch pair; swapping the two sides
                // decodes the same entries, so each pair runs once.
                for to in epoch..reader.epoch_count() {
                    let _ = reader.diff(epoch, to, |_name, old, new| {
                        for row in [old, new].into_iter().flatten() {
                            for s in row.shares() {
                                let _ = (s.provider, s.company, s.weight, s.source);
                            }
                        }
                        Ok(())
                    });
                }
            }
            let _ = reader.verify_indexes();
        }
    }
}
