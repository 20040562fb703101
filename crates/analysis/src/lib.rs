//! # mx-analysis — the study's analyses
//!
//! Everything §4–§5 of the paper computes, over the simulated Internet:
//!
//! * [`observe`] — data gathering (§4.3): run the OpenINTEL-style DNS
//!   measurement and the Censys-style port-25 scan over a materialised
//!   [`mx_corpus::World`], join them with prefix2as data and certificate
//!   validation into per-dataset [`mx_infer::ObservationSet`]s;
//! * [`accuracy`] — §3.3 / Figure 4: sample labelled domains, run all four
//!   inference strategies, score them against ground truth;
//! * [`coverage`] — Table 4: the data-availability breakdown;
//! * [`market`] — Figure 5 / Tables 5–6: company market shares, Alexa rank
//!   strata, federal vs non-federal `.gov`, provider-ID listings;
//! * [`longitudinal`] — Figure 6: per-snapshot market-share series for top
//!   companies, e-mail security companies, web-hosting companies and
//!   self-hosted domains;
//! * [`churn`] — Figure 7: category flows between the first and last
//!   snapshot;
//! * [`country`] — Figure 8: provider preference by ccTLD;
//! * [`report`] — plain-text table/series rendering shared by the
//!   experiment binaries;
//! * [`store`] — persist per-snapshot results into the `mx-store`
//!   snapshot store and recompute the market/longitudinal/churn tables
//!   from the bytes alone.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod churn;
pub mod country;
pub mod coverage;
pub mod longitudinal;
pub mod market;
pub mod observe;
pub mod report;
pub mod store;

pub use accuracy::{AccuracyCell, AccuracyReport, SampleKind};
pub use churn::{ChurnCategory, ChurnMatrix};
pub use country::CountryMatrix;
pub use coverage::{CoverageBreakdown, CoverageCategory, ResilienceCounts};
pub use longitudinal::{LongitudinalSeries, SeriesPoint};
pub use market::{MarketShare, MarketShareRow};
pub use observe::{observe_world, SnapshotData};
pub use report::{pct, Table};
pub use store::{
    churn_from_store, churn_from_store_merged, credit_shares_at, domains_of_provider,
    domains_of_provider_merged, market_share_at, market_share_merged, self_hosted_at,
    self_hosted_merged, series_from_store, write_study_store, StudyStoreExt,
};
