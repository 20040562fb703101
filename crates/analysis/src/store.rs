//! Store-backed analyses: persist a study once, answer the paper's
//! questions from the bytes.
//!
//! [`write_study_store`] runs the pipeline over every active snapshot
//! of one dataset and serializes the per-epoch results into an
//! `mx-store` buffer; the query half ([`market_share_at`],
//! [`series_from_store`], [`churn_from_store`], …) recomputes the
//! market/longitudinal/churn tables from a [`StoreReader`] without the
//! original observations.
//!
//! The public entry points answer from the store's index footer
//! (rollup + summary for market share, the per-row digest for
//! self-hosted counts and churn, postings lists for
//! [`domains_of_provider`]) without merging the epoch's delta layers.
//! The `*_merged` variants walk those layers row by row instead: they
//! are the reference oracles the index answers are checked against
//! (`tests/store_gate.rs` across seeds and thread counts). Both paths
//! accumulate weights in the same dotted-name byte order as the
//! in-memory analyses, so all three agree — bit-for-bit on every
//! `f64`.

use std::collections::{HashMap, HashSet};

use mx_corpus::{Dataset, Study};
use mx_infer::{result_rows, CompanyMap, Pipeline};
use mx_psl::PublicSuffixList;
use mx_store::{DigestRow, Row, StoreError, StoreReader, StoreWriter};

use crate::churn::{ChurnCategory, ChurnMatrix};
use crate::longitudinal::{LongitudinalSeries, SeriesPoint};
use crate::market::{MarketShare, MarketShareRow};
use crate::observe;

/// Run `pipeline` over every snapshot of `study` where `dataset` is
/// active and serialize the results into one store buffer. Epochs are
/// labelled with the snapshot's `YYYY-MM` date; the first active
/// snapshot becomes the base epoch, later ones deltas.
pub fn write_study_store(
    study: &Study,
    dataset: Dataset,
    pipeline: &Pipeline,
    companies: &CompanyMap,
) -> Result<Vec<u8>, StoreError> {
    let mut writer = StoreWriter::new();
    for k in 0..mx_corpus::SNAPSHOT_DATES.len() {
        let world = study.world_at(k);
        let data = observe::observe_world(&world);
        let Some(obs) = data.dataset(dataset) else {
            continue; // .gov before June 2018
        };
        let result = pipeline.run(obs);
        writer.add_epoch(
            &world.date.ym_label(),
            result_rows(&result, companies),
            &obs.acquisition,
        )?;
    }
    Ok(writer.finish())
}

/// Store persistence as a method on [`Study`].
pub trait StudyStoreExt {
    /// Serialize this study's `dataset` snapshots under `pipeline`;
    /// see [`write_study_store`].
    fn write_store(
        &self,
        dataset: Dataset,
        pipeline: &Pipeline,
        companies: &CompanyMap,
    ) -> Result<Vec<u8>, StoreError>;
}

impl StudyStoreExt for Study {
    fn write_store(
        &self,
        dataset: Dataset,
        pipeline: &Pipeline,
        companies: &CompanyMap,
    ) -> Result<Vec<u8>, StoreError> {
        write_study_store(self, dataset, pipeline, companies)
    }
}

/// A row's company credit label: the mapped company, or the provider id
/// itself for the long tail (the store bakes the company map into its
/// interned tables, so no [`CompanyMap`] is needed at query time).
fn company_or_provider<'r>(share: &mx_store::Share<'r>) -> &'r str {
    share.company.unwrap_or(share.provider)
}

/// Company market shares over one stored epoch. Equal — including
/// every `f64` bit — to `market::market_share(result, companies,
/// None)` over the in-memory result the epoch was written from.
///
/// Answered off the rollup table: the per-credit weight sums were
/// accumulated at write time in the same sorted-row walk
/// [`market_share_merged`] replays, so the `f64`s match bit for bit;
/// only the final sort happens here.
pub fn market_share_at(
    reader: &StoreReader<'_>,
    epoch: usize,
) -> Result<MarketShare, StoreError> {
    let total = usize::try_from(reader.summary_total_rows(epoch)?).unwrap_or(usize::MAX);
    let mut rows: Vec<MarketShareRow> = Vec::new();
    reader.for_each_rollup(epoch, |credit, weight| {
        rows.push(MarketShareRow {
            company: credit.to_string(),
            weight,
            share: weight / total.max(1) as f64,
        });
        Ok(())
    })?;
    rows.sort_by(|a, b| b.weight.total_cmp(&a.weight).then(a.company.cmp(&b.company)));
    Ok(MarketShare {
        rows,
        total_domains: total,
    })
}

/// [`market_share_at`] via the merge path: walk every resolved row of
/// the epoch and accumulate credited weights. The reference oracle the
/// index path is checked against.
pub fn market_share_merged(
    reader: &StoreReader<'_>,
    epoch: usize,
) -> Result<MarketShare, StoreError> {
    let mut weights: HashMap<String, f64> = HashMap::new();
    let mut total = 0usize;
    reader.for_each_row(epoch, |_name, row| {
        total += 1;
        for s in row.shares() {
            *weights
                .entry(company_or_provider(&s).to_string())
                .or_insert(0.0) += s.weight;
        }
        Ok(())
    })?;
    let mut rows: Vec<MarketShareRow> = weights
        .into_iter()
        .map(|(company, weight)| MarketShareRow {
            company,
            weight,
            share: weight / total.max(1) as f64,
        })
        .collect();
    rows.sort_by(|a, b| b.weight.total_cmp(&a.weight).then(a.company.cmp(&b.company)));
    Ok(MarketShare {
        rows,
        total_domains: total,
    })
}

/// `(weight, share)` of each of `credits` at one stored epoch: the
/// credit's [`market_share_at`] row, or `(0.0, 0.0)` when the epoch
/// credits it nothing. This is one scan of the rollup table, with no
/// per-credit allocation and no sort. That is exact because rollup
/// credits are unique strings: the writer folds a provider named like
/// a company into the company credit.
pub fn credit_shares_at(
    reader: &StoreReader<'_>,
    epoch: usize,
    credits: &[&str],
) -> Result<Vec<(f64, f64)>, StoreError> {
    let mut out = vec![(0.0, 0.0); credits.len()];
    let total = usize::try_from(reader.summary_total_rows(epoch)?).unwrap_or(usize::MAX);
    reader.for_each_rollup(epoch, |credit, weight| {
        for (c, slot) in credits.iter().zip(out.iter_mut()) {
            if *c == credit {
                *slot = (weight, weight / total.max(1) as f64);
            }
        }
        Ok(())
    })?;
    Ok(out)
}

/// Count of self-hosted domains at one stored epoch (provider ID equals
/// the domain's registered domain and the domain answers SMTP). Equal
/// to `market::self_hosted_count` over the source result.
///
/// This counts the digest's precomputed SMTP+self-hosted bits (the
/// writer ran the PSL check at encode time with the builtin list, the
/// same one every analysis path uses).
pub fn self_hosted_at(reader: &StoreReader<'_>, epoch: usize) -> Result<usize, StoreError> {
    let mut count = 0usize;
    for d in reader.digest_rows(epoch)? {
        if d.has_smtp && d.self_hosted {
            count += 1;
        }
    }
    Ok(count)
}

/// [`self_hosted_at`] via the merge path: materialize each row's name
/// and re-run the PSL registered-domain check. The reference oracle
/// the digest path is checked against.
pub fn self_hosted_merged(
    reader: &StoreReader<'_>,
    epoch: usize,
    psl: &PublicSuffixList,
) -> Result<usize, StoreError> {
    let mut count = 0usize;
    reader.for_each_row(epoch, |name, row| {
        if row.has_smtp() && row_is_self_hosted(name, row, psl) {
            count += 1;
        }
        Ok(())
    })?;
    Ok(count)
}

/// Mirror of `mx_infer::domainid::is_self_hosted` over a stored row.
fn row_is_self_hosted(name: &str, row: &Row<'_>, psl: &PublicSuffixList) -> bool {
    let Some(rd) = psl.registered_domain(name) else {
        return false;
    };
    row.shares().any(|s| s.provider == rd)
}

/// Rebuild the Figure 6 longitudinal series for `tracked` companies
/// from a store, one point per stored epoch. Equal to
/// `longitudinal::run_series` over the study the store was written
/// from (same dates, same weights, same shares).
pub fn series_from_store(
    reader: &StoreReader<'_>,
    dataset: Dataset,
    tracked: &[&str],
) -> Result<LongitudinalSeries, StoreError> {
    let mut series: Vec<(String, Vec<SeriesPoint>)> = tracked
        .iter()
        .map(|c| (c.to_string(), Vec::new()))
        .collect();
    let mut self_hosted = Vec::new();
    let mut top5_total = Vec::new();
    let mut dates = Vec::new();

    for epoch in 0..reader.epoch_count() {
        let shares = market_share_at(reader, epoch)?;
        let date = reader
            .label(epoch)
            .ok_or(StoreError::EpochOutOfRange {
                epoch,
                epochs: reader.epoch_count(),
            })?
            .to_string();
        dates.push(date.clone());
        for (name, points) in &mut series {
            let row = shares.rows.iter().find(|r| &r.company == name);
            points.push(SeriesPoint {
                date: date.clone(),
                weight: row.map(|r| r.weight).unwrap_or(0.0),
                share: row.map(|r| r.share).unwrap_or(0.0),
            });
        }
        let sh = self_hosted_at(reader, epoch)?;
        self_hosted.push(SeriesPoint {
            date: date.clone(),
            weight: sh as f64,
            share: sh as f64 / shares.total_domains.max(1) as f64,
        });
        top5_total.push(SeriesPoint {
            date,
            weight: shares.top(5).iter().map(|r| r.weight).sum(),
            share: shares.top_share(5),
        });
    }

    Ok(LongitudinalSeries {
        dataset,
        companies: series,
        self_hosted,
        top5_total,
        dates,
    })
}

/// The top-100 company set (by credited weight, excluding the big
/// three) at one stored epoch. Equal to `churn::top100_set` over the
/// source result.
pub fn top100_at(
    reader: &StoreReader<'_>,
    epoch: usize,
) -> Result<HashSet<String>, StoreError> {
    let mut rows: Vec<(String, f64)> = Vec::new();
    reader.for_each_rollup(epoch, |credit, weight| {
        rows.push((credit.to_string(), weight));
        Ok(())
    })?;
    rows.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    Ok(rows
        .iter()
        .filter(|(c, _)| !matches!(c.as_str(), "Google" | "Microsoft" | "Yandex"))
        .take(100)
        .map(|(c, _)| c.clone())
        .collect())
}

/// Classify one stored row into its Figure 7 category; `None` means
/// the domain is absent at the epoch (left the dataset).
pub fn classify_row(
    name: &str,
    row: Option<&Row<'_>>,
    top100: &HashSet<String>,
    psl: &PublicSuffixList,
) -> ChurnCategory {
    let Some(row) = row else {
        return ChurnCategory::NoSmtp;
    };
    if row.share_count() == 0 || !row.has_smtp() {
        return ChurnCategory::NoSmtp;
    }
    if row_is_self_hosted(name, row, psl) {
        return ChurnCategory::SelfHosted;
    }
    let Some(top) = row.dominant() else {
        return ChurnCategory::NoSmtp;
    };
    match company_or_provider(&top) {
        "Google" => ChurnCategory::Google,
        "Microsoft" => ChurnCategory::Microsoft,
        "Yandex" => ChurnCategory::Yandex,
        other if top100.contains(other) => ChurnCategory::Top100,
        _ => ChurnCategory::Others,
    }
}

/// Classify one digest record into its Figure 7 category; `None`
/// means the domain is absent at the epoch. Mirrors [`classify_row`]
/// decision for decision: the digest's credit is `None` exactly for
/// share-less rows, its self-hosted bit is the write-time PSL check,
/// and its credit string is the dominant share's
/// `company.unwrap_or(provider)`.
fn classify_digest(row: Option<&DigestRow<'_>>, top100: &HashSet<String>) -> ChurnCategory {
    let Some(row) = row else {
        return ChurnCategory::NoSmtp;
    };
    let Some(credit) = row.credit else {
        return ChurnCategory::NoSmtp; // no shares
    };
    if !row.has_smtp {
        return ChurnCategory::NoSmtp;
    }
    if row.self_hosted {
        return ChurnCategory::SelfHosted;
    }
    match credit {
        "Google" => ChurnCategory::Google,
        "Microsoft" => ChurnCategory::Microsoft,
        "Yandex" => ChurnCategory::Yandex,
        other if top100.contains(other) => ChurnCategory::Top100,
        _ => ChurnCategory::Others,
    }
}

/// The Figure 7 flow matrix between two stored epochs: every domain
/// present at `from` is classified at both ends (absence at `to` is
/// "No SMTP", as in the in-memory path, where a departed domain has no
/// assignment). Equal to `churn::churn_matrix` over the source
/// results.
///
/// This is a lockstep walk over the two epochs' digest sections — no
/// layer merge, no per-name point lookups, no name materialization
/// (digests share the global dictionary's doc ids, so equal doc means
/// equal domain).
pub fn churn_from_store(
    reader: &StoreReader<'_>,
    from: usize,
    to: usize,
) -> Result<ChurnMatrix, StoreError> {
    let top100 = top100_at(reader, from)?;
    let mut m = ChurnMatrix::default();
    let mut bi = reader.digest_rows(to)?;
    let mut b = bi.next();
    for a in reader.digest_rows(from)? {
        while b.as_ref().is_some_and(|d| d.doc < a.doc) {
            b = bi.next();
        }
        let to_row = b.as_ref().filter(|d| d.doc == a.doc);
        let from_cat = classify_digest(Some(&a), &top100);
        let to_cat = classify_digest(to_row, &top100);
        *m.flows.entry((from_cat, to_cat)).or_insert(0) += 1;
        m.total += 1;
    }
    Ok(m)
}

/// [`churn_from_store`] via the merge path: walk `from`'s resolved
/// rows and point-look-up each name at `to`. The reference oracle the
/// digest path is checked against.
pub fn churn_from_store_merged(
    reader: &StoreReader<'_>,
    from: usize,
    to: usize,
) -> Result<ChurnMatrix, StoreError> {
    let psl = PublicSuffixList::builtin();
    let top100 = top100_at(reader, from)?;
    let mut m = ChurnMatrix::default();
    reader.for_each_row(from, |name, row| {
        let from_cat = classify_row(name, Some(row), &top100, &psl);
        let to_row = reader.lookup(name, to)?;
        let to_cat = classify_row(name, to_row.as_ref(), &top100, &psl);
        *m.flows.entry((from_cat, to_cat)).or_insert(0) += 1;
        m.total += 1;
        Ok(())
    })?;
    Ok(m)
}

/// All domains holding a share of `provider` at one stored epoch, in
/// ascending name order, decoded straight off the provider's postings
/// list.
pub fn domains_of_provider(
    reader: &StoreReader<'_>,
    provider: &str,
    epoch: usize,
) -> Result<Vec<String>, StoreError> {
    reader.domains_of_provider(provider, epoch)
}

/// [`domains_of_provider`] via the merge path: scan every resolved row
/// of the epoch and keep the names whose share list mentions
/// `provider`. The reference oracle the postings path is checked
/// against; both walk names in the same byte order, so the vectors are
/// equal.
pub fn domains_of_provider_merged(
    reader: &StoreReader<'_>,
    provider: &str,
    epoch: usize,
) -> Result<Vec<String>, StoreError> {
    let mut out = Vec::new();
    reader.for_each_row(epoch, |name, row| {
        if row.shares().any(|s| s.provider == provider) {
            out.push(name.to_string());
        }
        Ok(())
    })?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mx_corpus::{company_map, provider_knowledge, ScenarioConfig};

    fn setup() -> (Study, Pipeline, CompanyMap) {
        let study = Study::generate(ScenarioConfig::small(21));
        let pipeline = Pipeline::priority_based(provider_knowledge(10));
        (study, pipeline, company_map())
    }

    #[test]
    fn market_share_matches_in_memory_bitwise() {
        let (study, pipeline, companies) = setup();
        let bytes = study
            .write_store(Dataset::Alexa, &pipeline, &companies)
            .unwrap();
        let reader = StoreReader::open(&bytes).unwrap();
        assert_eq!(reader.epoch_count(), 9);

        let world = study.world_at(8);
        let data = observe::observe_world(&world);
        let obs = data.dataset(Dataset::Alexa).unwrap();
        let result = pipeline.run(obs);
        let mem = crate::market::market_share(&result, &companies, None);

        let stored = market_share_at(&reader, 8).unwrap();
        assert_eq!(stored.total_domains, mem.total_domains);
        assert_eq!(stored.rows, mem.rows, "rows equal incl. f64 bits");
    }

    #[test]
    fn self_hosted_matches_in_memory() {
        let (study, pipeline, companies) = setup();
        let bytes = study
            .write_store(Dataset::Alexa, &pipeline, &companies)
            .unwrap();
        let reader = StoreReader::open(&bytes).unwrap();
        let psl = PublicSuffixList::builtin();

        let world = study.world_at(0);
        let data = observe::observe_world(&world);
        let obs = data.dataset(Dataset::Alexa).unwrap();
        let result = pipeline.run(obs);
        assert_eq!(
            self_hosted_at(&reader, 0).unwrap(),
            crate::market::self_hosted_count(&result, &psl)
        );
    }

    #[test]
    fn churn_matches_in_memory() {
        let (study, pipeline, companies) = setup();
        let bytes = study
            .write_store(Dataset::Alexa, &pipeline, &companies)
            .unwrap();
        let reader = StoreReader::open(&bytes).unwrap();

        let run_at = |k: usize| {
            let world = study.world_at(k);
            let data = observe::observe_world(&world);
            let obs = data.dataset(Dataset::Alexa).unwrap().clone();
            let result = pipeline.run(&obs);
            (result, obs)
        };
        let (r0, o0) = run_at(0);
        let (r8, o8) = run_at(8);
        let mem = crate::churn::churn_matrix((&r0, &o0), (&r8, &o8), &companies);
        let stored = churn_from_store(&reader, 0, 8).unwrap();
        assert_eq!(stored.total, mem.total);
        for from in ChurnCategory::ALL {
            for to in ChurnCategory::ALL {
                assert_eq!(
                    stored.flow(from, to),
                    mem.flow(from, to),
                    "flow {from:?} -> {to:?}"
                );
            }
        }
    }

    #[test]
    fn index_paths_match_merged_oracles() {
        let (study, pipeline, companies) = setup();
        let bytes = study
            .write_store(Dataset::Alexa, &pipeline, &companies)
            .unwrap();
        let reader = StoreReader::open(&bytes).unwrap();
        reader.verify_indexes().unwrap();

        // Every index-backed answer equals its merge-path oracle bit
        // for bit.
        let psl = PublicSuffixList::builtin();
        for epoch in [0usize, 4, 8] {
            let mi = market_share_at(&reader, epoch).unwrap();
            let mm = market_share_merged(&reader, epoch).unwrap();
            assert_eq!(mi.rows, mm.rows);
            assert_eq!(mi.total_domains, mm.total_domains);
            assert_eq!(
                self_hosted_at(&reader, epoch).unwrap(),
                self_hosted_merged(&reader, epoch, &psl).unwrap()
            );
        }
        let ci = churn_from_store(&reader, 0, 8).unwrap();
        let cm = churn_from_store_merged(&reader, 0, 8).unwrap();
        assert_eq!(ci.total, cm.total);
        assert_eq!(ci.flows, cm.flows);

        let provider = reader
            .providers()
            .iter()
            .find(|p| !reader.domains_of_provider(p, 8).unwrap().is_empty())
            .copied()
            .expect("some provider has postings at epoch 8");
        let di = domains_of_provider(&reader, provider, 8).unwrap();
        let dm = domains_of_provider_merged(&reader, provider, 8).unwrap();
        assert!(!di.is_empty(), "postings list non-empty for {provider}");
        assert_eq!(di, dm);
    }

    #[test]
    fn credit_shares_match_market_rows_bitwise() {
        let (study, pipeline, companies) = setup();
        let bytes = study
            .write_store(Dataset::Alexa, &pipeline, &companies)
            .unwrap();
        let reader = StoreReader::open(&bytes).unwrap();
        for epoch in 0..reader.epoch_count() {
            let market = market_share_merged(&reader, epoch).unwrap();
            let mut credits: Vec<&str> = market.rows.iter().map(|r| r.company.as_str()).collect();
            credits.push("no-such-credit");
            let got = credit_shares_at(&reader, epoch, &credits).unwrap();
            assert_eq!(got.len(), credits.len());
            for (credit, (weight, share)) in credits.iter().zip(got) {
                let want = market
                    .rows
                    .iter()
                    .find(|r| r.company == *credit)
                    .map_or((0.0, 0.0), |r| (r.weight, r.share));
                assert_eq!(
                    (weight.to_bits(), share.to_bits()),
                    (want.0.to_bits(), want.1.to_bits()),
                    "epoch {epoch} credit {credit}"
                );
            }
        }
    }

    #[test]
    fn gov_store_starts_mid_study() {
        let (study, pipeline, companies) = setup();
        let bytes = study
            .write_store(Dataset::Gov, &pipeline, &companies)
            .unwrap();
        let reader = StoreReader::open(&bytes).unwrap();
        assert_eq!(reader.epoch_count(), 7);
        assert_eq!(reader.label(0), Some("2018-06"));
        let s = series_from_store(&reader, Dataset::Gov, &["Microsoft"]).unwrap();
        assert_eq!(s.dates.len(), 7);
    }
}
