//! Persisting inference results into the `mx-store` snapshot store.
//!
//! The store is the inference stack's serialization boundary: rows go
//! in as `(dotted name, has_smtp, shares)` with the company map baked
//! into the interned tables, and come back out as zero-copy
//! [`mx_store::Row`]s that reconstruct into [`DomainAssignment`]s
//! bit-for-bit (weights round-trip as exact `f64` bit patterns).

use mx_dns::Name;
use mx_store::{RowIn, ShareIn, ShareSource, StoreError};

use crate::company::CompanyMap;
use crate::domainid::{DomainAssignment, Share};
use crate::ipid::ProviderId;
use crate::mxid::IdSource;
use crate::pipeline::InferenceResult;

/// Map an inference [`IdSource`] onto its store wire twin.
pub fn source_to_store(source: IdSource) -> ShareSource {
    match source {
        IdSource::Certificate => ShareSource::Certificate,
        IdSource::Banner => ShareSource::Banner,
        IdSource::MxRecord => ShareSource::MxRecord,
    }
}

/// Map a store [`ShareSource`] back onto the inference [`IdSource`].
pub fn source_from_store(source: ShareSource) -> IdSource {
    match source {
        ShareSource::Certificate => IdSource::Certificate,
        ShareSource::Banner => IdSource::Banner,
        ShareSource::MxRecord => IdSource::MxRecord,
    }
}

/// Convert an inference result into writer rows: one [`RowIn`] per
/// attributed domain, shares in assignment order (sorted by provider
/// id), companies resolved through `companies`.
pub fn result_rows(result: &InferenceResult, companies: &CompanyMap) -> Vec<RowIn> {
    assignment_rows(result.domains.values(), companies)
}

/// Render domain attributions as writer rows, exactly as
/// [`result_rows`] renders a whole result.
pub fn assignment_rows<'a>(
    assignments: impl IntoIterator<Item = &'a DomainAssignment>,
    companies: &CompanyMap,
) -> Vec<RowIn> {
    let psl = mx_psl::PublicSuffixList::builtin();
    assignments
        .into_iter()
        .map(|a| RowIn {
            name: a.domain.to_dotted(),
            has_smtp: a.has_smtp,
            self_hosted: crate::domainid::is_self_hosted(a, &psl),
            shares: a
                .shares
                .iter()
                .map(|s| ShareIn {
                    provider: s.provider.as_str().to_string(),
                    company: companies.company_of(&s.provider).map(str::to_string),
                    weight: s.weight,
                    source: source_to_store(s.source),
                })
                .collect(),
        })
        .collect()
}

/// Reconstruct a [`DomainAssignment`] from a stored row. The inverse of
/// [`result_rows`] for one domain: shares come back in stored order
/// (the assignment order `result_rows` preserved) with exact weights.
pub fn assignment_from_row(
    name: &str,
    row: &mx_store::Row<'_>,
) -> Result<DomainAssignment, StoreError> {
    let domain = Name::parse(name).map_err(|_e| StoreError::BadName(name.to_string()))?;
    let shares: Vec<Share> = row
        .shares()
        .map(|s| Share {
            provider: ProviderId::new(s.provider),
            weight: s.weight,
            source: source_from_store(s.source),
        })
        .collect();
    Ok(DomainAssignment {
        domain,
        shares,
        has_smtp: row.has_smtp(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{DomainObservation, MxObservation, MxTarget, ObservationSet};
    use crate::pipeline::{Pipeline, Strategy};
    use mx_dns::dns_name;
    use mx_store::{StoreReader, StoreWriter};

    fn tiny_obs(domain: &str, mx: &str) -> ObservationSet {
        let mut obs = ObservationSet::new();
        obs.domains = vec![DomainObservation {
            domain: dns_name!(domain),
            mx: MxObservation::Targets(vec![MxTarget {
                preference: 10,
                exchange: dns_name!(mx),
                addrs: vec![],
            }]),
        }];
        obs
    }

    #[test]
    fn stored_rows_round_trip_assignments() {
        let pipeline = Pipeline::new(Strategy::MxOnly);
        let obs0 = tiny_obs("alpha.test", "mx.alpha.test");
        let obs1 = tiny_obs("alpha.test", "aspmx.l.google.com");
        let mut companies = CompanyMap::new();
        companies.insert("google.com", "Google");

        let mut writer = StoreWriter::new();
        for (label, obs) in [("e0", &obs0), ("e1", &obs1)] {
            let rows = result_rows(&pipeline.run(obs), &companies);
            writer.add_epoch(label, rows, &obs.acquisition).unwrap();
        }
        let bytes = writer.finish();
        let reader = StoreReader::open(&bytes).unwrap();
        assert_eq!(reader.epoch_count(), 2);

        let expect0 = pipeline.run(&obs0);
        let row = reader.lookup("alpha.test", 0).unwrap().unwrap();
        let got = assignment_from_row("alpha.test", &row).unwrap();
        assert_eq!(&got, &expect0.domains[&dns_name!("alpha.test")]);

        let row1 = reader.lookup("alpha.test", 1).unwrap().unwrap();
        let share = row1.shares().next().unwrap();
        assert_eq!(share.provider, "google.com");
        assert_eq!(share.company, Some("Google"));
    }
}
