//! Shared experiment plumbing: scale selection and cached per-snapshot
//! measurement/inference.

use std::collections::HashMap;

use mx_analysis::observe::{observe_world, SnapshotData};
use mx_corpus::{company_map, provider_knowledge, Dataset, ScenarioConfig, Study, World};
use mx_infer::{CompanyMap, InferenceResult, ObservationSet, Pipeline, ProviderKnowledge};

/// Read the scenario scale from `MX_SCALE` / `MX_SEED`.
pub fn scale_from_env() -> ScenarioConfig {
    let seed = std::env::var("MX_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(42);
    match std::env::var("MX_SCALE").as_deref() {
        Ok("small") => ScenarioConfig::small(seed),
        _ => ScenarioConfig::study(seed),
    }
}

/// A study plus memoised per-snapshot measurement and inference results,
/// so experiment binaries that share snapshots do not recompute them.
pub struct ExperimentCtx {
    /// The generated study: its scenario, domain corpus and evolution.
    pub study: Study,
    /// Misidentification knowledge every inference run uses.
    pub knowledge: ProviderKnowledge,
    /// The provider-ID → company map for store rows and rollups.
    pub companies: CompanyMap,
    snapshots: HashMap<usize, (World, SnapshotData)>,
    results: HashMap<(usize, Dataset), InferenceResult>,
}

impl ExperimentCtx {
    /// Generate the study for a configuration.
    pub fn new(config: ScenarioConfig) -> ExperimentCtx {
        ExperimentCtx {
            study: Study::generate(config),
            knowledge: provider_knowledge(10),
            companies: company_map(),
            snapshots: HashMap::new(),
            results: HashMap::new(),
        }
    }

    /// From the environment (`MX_SCALE`, `MX_SEED`).
    pub fn from_env() -> ExperimentCtx {
        Self::new(scale_from_env())
    }

    /// The materialised world and measurement of snapshot `k` (cached).
    pub fn snapshot(&mut self, k: usize) -> &(World, SnapshotData) {
        if !self.snapshots.contains_key(&k) {
            let world = self.study.world_at(k);
            let data = observe_world(&world);
            self.snapshots.insert(k, (world, data));
        }
        &self.snapshots[&k]
    }

    /// The priority-based inference result of (snapshot, dataset), cached.
    pub fn result(&mut self, k: usize, ds: Dataset) -> &InferenceResult {
        if !self.results.contains_key(&(k, ds)) {
            let knowledge = self.knowledge.clone();
            let obs = self
                .observation(k, ds)
                .expect("dataset active at snapshot")
                .clone();
            let result = Pipeline::priority_based(knowledge).run(&obs);
            self.results.insert((k, ds), result);
        }
        &self.results[&(k, ds)]
    }

    /// The observation set of (snapshot, dataset), if the dataset is
    /// active then.
    pub fn observation(&mut self, k: usize, ds: Dataset) -> Option<&ObservationSet> {
        self.snapshot(k);
        self.snapshots[&k].1.dataset(ds)
    }

    /// The last snapshot index (June 2021).
    pub fn last_snapshot() -> usize {
        mx_corpus::SNAPSHOT_DATES.len() - 1
    }
}
