//! The reconciler: apply an event batch, compute the dirty domain
//! set through the reverse index, re-measure only what changed, and
//! append a true delta epoch to an existing snapshot store.
//!
//! The contract — enforced by `tests/delta_gate.rs` — is that a store
//! grown by [`Reconciler::apply_batch`] is **byte-identical** to a
//! full-pipeline recompute ([`full_recompute`]) of the same end
//! state. Three properties make the caching sound:
//!
//! 1. every observable in the delta world is content-addressed
//!    (`world.rs`), so an unchanged domain materialises identically
//!    no matter what changed around it;
//! 2. the simulated clock and the scan epoch are pinned, so an
//!    unchanged server re-scans to the same bytes in every batch;
//! 3. inference is *staged*: the population-coupled stages
//!    (certificate grouping, per-IP IDs, misidentification
//!    confidence counts) recompute over the full joined view every
//!    batch, and their outputs are diffed against the previous batch
//!    to find exactly which pure per-exchange (`mxid`) and
//!    per-domain (`domainid`) attributions could have changed — only
//!    those are recomputed, everything else is served from memo.
//!
//! The staging in (3) is sound because the pure stages are
//! deterministic functions of inputs the diff covers completely: an
//! exchange's provider ID reads its address set and the per-IP IDs;
//! a misidentification decision reads the pre-check assignment, the
//! confidence scores of its addresses, and the observations at those
//! addresses; a domain's attribution reads its own row, its primary
//! exchanges' post-check assignments, and its addresses' scan
//! status. Each trigger set below is a (conservative) superset of
//! the corresponding input-change set, and the gate re-proves the
//! equivalence end to end on every run.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::Ipv4Addr;

use mx_cert::Fingerprint;
use mx_dns::Name;
use mx_infer::misid::Confidence;
use mx_infer::mxid::MxAssignment;
use mx_infer::store_io::source_to_store;
use mx_infer::{
    certgroup, domainid, ipid, misid, mxid, result_rows, AcqFault, AcquisitionReport, CompanyMap,
    DomainObservation, IpAcquisition, IpObservation, MxObservation, MxTargetObs, ObservationSet,
    Pipeline, ProviderKnowledge, ProviderProfile, ScanStatus,
};
use mx_infer::ipid::IpIds;
use mx_net::{openintel, Missed, PortState, Scanner};
use mx_psl::PublicSuffixList;
use mx_store::{RowIn, ShareIn, StoreWriter};

use crate::event::{DeltaError, Event};
use crate::world::{materialize, DeltaWorld, WorldState, PROVIDERS};

/// The provider-ID → company map of the delta catalog.
pub fn company_map() -> CompanyMap {
    let mut map = CompanyMap::new();
    for p in PROVIDERS {
        map.insert(p.pid, p.company);
    }
    map
}

/// Misidentification knowledge for the delta catalog.
pub fn provider_knowledge(confidence_threshold: usize) -> ProviderKnowledge {
    let mut k = ProviderKnowledge::new(confidence_threshold);
    for p in PROVIDERS {
        k.add(
            p.pid,
            ProviderProfile {
                asns: [p.asn].into_iter().collect(),
                vps_patterns: Vec::new(),
                dedicated_patterns: Vec::new(),
            },
        );
    }
    k
}

/// The inference pipeline every delta measurement runs.
pub fn delta_pipeline() -> Pipeline {
    Pipeline::priority_based(provider_knowledge(10))
}

/// Label of the `k`-th epoch of a delta series.
pub fn epoch_label(k: usize) -> String {
    format!("d{k:04}")
}

// ------------------------------------------------------------ measurement

/// Scan `ips` in the pinned epoch and join each with routing and
/// certificate validation, mirroring the full pipeline's data
/// gathering exactly (same acquisition classification, same
/// trust-store judgement at the world's pinned clock).
fn scan_ips(
    world: &DeltaWorld,
    ips: &[Ipv4Addr],
) -> HashMap<Ipv4Addr, (IpObservation, IpAcquisition)> {
    let scanner = Scanner::new();
    let scan = scanner.scan(&world.net, ips, 0);
    let now = world.net.clock().now();
    let ips_vec: Vec<Ipv4Addr> = ips.to_vec();
    mx_par::par_map(&ips_vec, |&ip| {
        let acq = if let Some(o) = scan.observation(ip) {
            IpAcquisition {
                attempts: o.attempts,
                recovered: o.recovered,
                exhausted: false,
                blocked: false,
                fault: o.fault,
            }
        } else {
            match scan.missed.get(&ip) {
                Some(Missed::Blocked) => IpAcquisition {
                    attempts: 0,
                    recovered: false,
                    exhausted: false,
                    blocked: true,
                    fault: None,
                },
                Some(Missed::Exhausted { attempts }) => IpAcquisition {
                    attempts: *attempts,
                    recovered: false,
                    exhausted: true,
                    blocked: false,
                    fault: Some(AcqFault::Transient),
                },
                None => IpAcquisition {
                    attempts: 0,
                    recovered: false,
                    exhausted: false,
                    blocked: true,
                    fault: None,
                },
            }
        };
        let asn = world.net.asn_of(ip);
        let obs = match scan.get(ip) {
            None => IpObservation::uncovered(ip, asn),
            Some(PortState::Closed) | Some(PortState::NoBanner) => IpObservation {
                ip,
                asn,
                scan: ScanStatus::NoSmtp,
                leaf_cert: None,
                cert_valid: false,
            },
            Some(PortState::Open(data)) => {
                let leaf = data.leaf_certificate().cloned();
                let cert_valid = data
                    .starttls
                    .chain()
                    .is_some_and(|chain| mx_cert::chain_trusted(chain, &world.trust, now).is_ok());
                IpObservation {
                    ip,
                    asn,
                    scan: ScanStatus::Smtp(data.clone()),
                    leaf_cert: leaf,
                    cert_valid,
                }
            }
        };
        (ip, (obs, acq))
    })
    .into_iter()
    .collect()
}

/// Resolve `names` against the world and convert to per-domain rows.
/// Delta worlds run with fault-free DNS (the shared caching resolver
/// makes fault attribution query-set-dependent, which would break
/// byte-identity between restricted and full measurements).
fn dns_rows(world: &DeltaWorld, names: &[Name]) -> Vec<DomainObservation> {
    let snap = openintel::measure(&world.net, names);
    debug_assert!(snap.degraded.is_empty(), "delta worlds must resolve fault-free");
    let mut rows: Vec<DomainObservation> = snap
        .rows
        .iter()
        .map(|(name, m)| {
            let mx = match m {
                openintel::MxMeasurement::NoMx | openintel::MxMeasurement::Error(_) => {
                    MxObservation::NoMx
                }
                openintel::MxMeasurement::Records { targets, null_mx } => {
                    if targets.is_empty() && *null_mx {
                        MxObservation::NullMx
                    } else {
                        MxObservation::Targets(
                            targets
                                .iter()
                                .map(|t| MxTargetObs {
                                    preference: t.preference,
                                    exchange: t.exchange.clone(),
                                    addrs: t.addrs.clone(),
                                })
                                .collect(),
                        )
                    }
                }
            };
            DomainObservation { domain: name.clone(), mx }
        })
        .collect();
    // Both the incremental and the full path order domains by dotted
    // name so the joined observation sets are identical structures.
    rows.sort_by_cached_key(|r| r.domain.to_dotted());
    rows
}

/// Join sorted domain rows with the IP table, restricting the IP and
/// acquisition views to referenced addresses (first-wins, like the
/// full pipeline's assembly).
fn assemble(
    domains: Vec<DomainObservation>,
    table: &HashMap<Ipv4Addr, (IpObservation, IpAcquisition)>,
) -> ObservationSet {
    let mut ips = HashMap::new();
    let mut acquisition = AcquisitionReport::default();
    for d in &domains {
        for t in d.mx.targets() {
            for a in &t.addrs {
                if let Some((o, acq)) = table.get(a) {
                    ips.entry(*a).or_insert_with(|| o.clone());
                    acquisition.ips.entry(*a).or_insert(*acq);
                }
            }
        }
    }
    ObservationSet { domains, ips, acquisition }
}

/// Fully measure a state: materialise everything, resolve every
/// domain, scan every referenced address.
fn observe_state(state: &WorldState) -> (ObservationSet, HashMap<Ipv4Addr, (IpObservation, IpAcquisition)>) {
    let world = materialize(state, None);
    let names: Vec<Name> = state
        .domains
        .keys()
        .map(|d| Name::parse(d).expect("state domain is a valid name"))
        .collect();
    let domains = dns_rows(&world, &names);
    let mut all_ips: Vec<Ipv4Addr> = domains
        .iter()
        .flat_map(|d| d.mx.targets().iter().flat_map(|t| t.addrs.iter().copied()))
        .collect();
    all_ips.sort_unstable();
    all_ips.dedup();
    let table = scan_ips(&world, &all_ips);
    (assemble(domains, &table), table)
}

/// Recompute the whole delta series from scratch: for every prefix of
/// the event log, fully measure the resulting state and add it as an
/// epoch to a fresh store. This is the oracle the incremental path is
/// gated against.
pub fn full_recompute(initial: &WorldState, log: &[Vec<Event>]) -> Result<Vec<u8>, DeltaError> {
    let pipeline = delta_pipeline();
    let companies = company_map();
    let mut st = initial.clone();
    let mut w = StoreWriter::new();
    let (obs, _) = observe_state(&st);
    let result = pipeline.run(&obs);
    w.add_epoch(&epoch_label(0), result_rows(&result, &companies), &obs.acquisition)?;
    for (k, batch) in log.iter().enumerate() {
        for ev in batch {
            st.apply(ev)?;
        }
        let (obs, _) = observe_state(&st);
        let result = pipeline.run(&obs);
        w.add_epoch(&epoch_label(k + 1), result_rows(&result, &companies), &obs.acquisition)?;
    }
    Ok(w.finish())
}

// ------------------------------------------------------------- reconciler

/// Per-batch accounting, mirrored into the `delta.*` obs counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Events applied in this batch.
    pub events_applied: u64,
    /// Size of the dirty domain set after reverse-index closure
    /// (including deleted domains).
    pub dirty_domains: u64,
    /// Domains actually re-resolved (dirty ∩ current population).
    pub reresolved: u64,
    /// Addresses re-scanned (uncached or invalidated).
    pub rescanned_ips: u64,
    /// Domains whose cached measurement was reused unchanged.
    pub reuse_hits: u64,
    /// Population size after the batch.
    pub population: u64,
    /// Exchanges whose `mxid` assignment was recomputed (the rest
    /// came from the staged-inference memo).
    pub mx_reassigned: u64,
    /// Domains whose attribution was recomputed (the rest came from
    /// the staged-inference memo).
    pub domains_reattributed: u64,
}

/// Increment the per-address reference counts for every address `row`
/// names, recording addresses that just became referenced.
fn ref_inc(
    counts: &mut BTreeMap<Ipv4Addr, u32>,
    row: &DomainObservation,
    became: &mut BTreeSet<Ipv4Addr>,
) {
    for t in row.mx.targets() {
        for a in &t.addrs {
            let c = counts.entry(*a).or_insert(0);
            if *c == 0 {
                became.insert(*a);
            }
            *c += 1;
        }
    }
}

/// Decrement the per-address reference counts for every address `row`
/// names, recording addresses that just became unreferenced.
fn ref_dec(
    counts: &mut BTreeMap<Ipv4Addr, u32>,
    row: &DomainObservation,
    gone: &mut BTreeSet<Ipv4Addr>,
) {
    for t in row.mx.targets() {
        for a in &t.addrs {
            if let Some(c) = counts.get_mut(a) {
                *c = c.saturating_sub(1);
                if *c == 0 {
                    counts.remove(a);
                    gone.insert(*a);
                }
            }
        }
    }
}

/// Record `key` as a user of every primary exchange of `row` (the
/// domain-attribution reverse index).
fn users_inc(users: &mut HashMap<Name, BTreeSet<String>>, row: &DomainObservation, key: &str) {
    for t in row.mx.primary_targets() {
        users.entry(t.exchange.clone()).or_default().insert(key.to_string());
    }
}

/// Remove `key` from the user sets of `row`'s primary exchanges.
fn users_dec(users: &mut HashMap<Name, BTreeSet<String>>, row: &DomainObservation, key: &str) {
    for t in row.mx.primary_targets() {
        if let Some(set) = users.get_mut(&t.exchange) {
            set.remove(key);
            if set.is_empty() {
                users.remove(&t.exchange);
            }
        }
    }
}

/// Render one domain attribution into its final store row, exactly as
/// [`result_rows`] does for the full pipeline.
fn row_from_assignment(
    key: &str,
    a: &domainid::DomainAssignment,
    companies: &CompanyMap,
    psl: &PublicSuffixList,
) -> RowIn {
    RowIn {
        name: key.to_string(),
        has_smtp: a.has_smtp,
        self_hosted: domainid::is_self_hosted(a, psl),
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
    }
}

/// Incremental measurement engine: owns the evolving world state, the
/// per-domain and per-IP observation caches, the maintained reverse
/// index and joined view, and the hot store writer.
///
/// Measurement, memo lookups and the store append are maintained
/// incrementally and cost O(dirty + appended bytes); the coupled
/// inference stages (certificate grouping, per-IP IDs, confidence
/// counts, each with its diff against the previous batch) and the
/// writer's index walk still visit the whole population every batch:
///
/// - `footprints`/`ref_index`: each domain's state-derived address set
///   and its inversion, updated only for domains whose zone changed
///   (the dirty-set closure reads the index instead of sweeping every
///   domain's footprint twice per batch);
/// - `view`: the full joined [`ObservationSet`] the coupled inference
///   stages run over, patched in place (dirty rows replaced,
///   adds/deletes merged in one sorted pass, the referenced-IP maps
///   adjusted by refcount);
/// - `mx_pre`/`mx_post` (plus the `ip_ids`/`confidence` diff bases and
///   the `mx_users` reverse index): the staged inference memos —
///   per-exchange and per-domain attributions recompute only when the
///   coupled-stage diff says their inputs changed;
/// - `writer`: the [`StoreWriter`] stays open across the whole series.
///   Its resolved view of the last epoch is the per-domain attribution
///   memo: each batch hands it only the re-attributed rows and the
///   departed domains ([`StoreWriter::add_epoch_changes`]), and it
///   emits a complete file per epoch via [`StoreWriter::snapshot`],
///   which copies cached sections — the same accumulation a full build
///   performs, so byte-identity is structural rather than re-proved by
///   a decode/re-encode round trip. (The reopen path,
///   [`StoreWriter::append_epochs`], remains the API for growing a
///   store loaded from disk; `mx-store` gates it byte-equal to full
///   builds independently.)
pub struct Reconciler {
    state: WorldState,
    epoch: usize,
    dns_cache: HashMap<String, DomainObservation>,
    ip_cache: HashMap<Ipv4Addr, (IpObservation, IpAcquisition)>,
    /// Current state-derived address footprint of every live domain.
    footprints: HashMap<String, Vec<Ipv4Addr>>,
    /// Inverse of `footprints`: address → domains whose footprint
    /// contains it (the dirty-set closure index).
    ref_index: BTreeMap<Ipv4Addr, BTreeSet<String>>,
    /// Reference counts of *measured* MX addresses across `view`
    /// rows; its key set is exactly `view.ips`'s key set.
    measured: BTreeMap<Ipv4Addr, u32>,
    /// The joined observation view inference runs over, kept current.
    view: ObservationSet,
    /// Dotted names of `view.domains`, in the same sorted order —
    /// lookups and merges compare these instead of re-rendering every
    /// [`Name`] they probe.
    view_keys: Vec<String>,
    /// PSL every staged inference stage shares (the same builtin list
    /// the full pipeline uses).
    psl: PublicSuffixList,
    /// Misidentification knowledge of the delta catalog.
    knowledge: ProviderKnowledge,
    /// Last batch's per-IP IDs; diffed to find exchanges whose
    /// provider ID could have changed.
    ip_ids: HashMap<Ipv4Addr, IpIds>,
    /// Last batch's confidence counters; diffed to find addresses
    /// whose score could have changed.
    confidence: Confidence,
    /// Pre-misidentification per-exchange assignments (the `mxid`
    /// memo). May retain entries for exchanges no longer referenced;
    /// rows never read those, and a re-adopting domain always arrives
    /// as a fresh row, which re-assigns its exchanges.
    mx_pre: HashMap<Name, MxAssignment>,
    /// Post-misidentification per-exchange assignments — what domain
    /// attribution actually reads.
    mx_post: HashMap<Name, MxAssignment>,
    /// Primary exchange → dotted names of the view rows using it (the
    /// attribution reverse index: a changed post-check assignment
    /// re-attributes exactly these domains).
    mx_users: HashMap<Name, BTreeSet<String>>,
    companies: CompanyMap,
    writer: StoreWriter,
}

impl Reconciler {
    /// A reconciler over `state` with empty caches.
    pub fn new(state: WorldState) -> Reconciler {
        Reconciler {
            state,
            epoch: 0,
            dns_cache: HashMap::new(),
            ip_cache: HashMap::new(),
            footprints: HashMap::new(),
            ref_index: BTreeMap::new(),
            measured: BTreeMap::new(),
            view: ObservationSet::new(),
            view_keys: Vec::new(),
            psl: PublicSuffixList::builtin(),
            knowledge: provider_knowledge(10),
            ip_ids: HashMap::new(),
            confidence: Confidence::default(),
            mx_pre: HashMap::new(),
            mx_post: HashMap::new(),
            mx_users: HashMap::new(),
            companies: company_map(),
            writer: StoreWriter::new(),
        }
    }

    /// The current world state.
    pub fn state(&self) -> &WorldState {
        &self.state
    }

    /// Fully measure the current state, seed the caches, the reverse
    /// index and the joined view, and build the base store (epoch
    /// `d0000`).
    pub fn base_store(&mut self) -> Result<Vec<u8>, DeltaError> {
        let (obs, table) = observe_state(&self.state);
        for d in &obs.domains {
            self.dns_cache.insert(d.domain.to_dotted(), d.clone());
        }
        self.ip_cache = table;
        for d in self.state.domains.keys() {
            let fp = self.state.footprint(d);
            for ip in &fp {
                self.ref_index.entry(*ip).or_default().insert(d.clone());
            }
            self.footprints.insert(d.clone(), fp);
        }
        let mut became = BTreeSet::new();
        for row in &obs.domains {
            ref_inc(&mut self.measured, row, &mut became);
        }
        self.view_keys = obs.domains.iter().map(|d| d.domain.to_dotted()).collect();

        // Staged inference, run in full once to seed the memos. Each
        // stage is the same public entry point the pipeline composes,
        // with the same inputs, so the seeded state and the base
        // epoch's rows match a `Pipeline::run` bit for bit.
        let cert_groups = certgroup::preprocess(&obs, &self.psl);
        self.ip_ids = ipid::compute_ip_ids(&obs, &cert_groups, &self.psl);
        let mut distinct: Vec<&MxTargetObs> = Vec::new();
        let mut seen_ex: std::collections::HashSet<&Name> = std::collections::HashSet::new();
        for d in &obs.domains {
            for t in d.mx.targets() {
                if seen_ex.insert(&t.exchange) {
                    distinct.push(t);
                }
            }
        }
        self.mx_pre = mx_par::par_map(&distinct, |t| {
            let (provider, source) = mxid::assign_mx_id(&t.exchange, &t.addrs, &self.ip_ids, &self.psl);
            (
                t.exchange.clone(),
                MxAssignment {
                    exchange: t.exchange.clone(),
                    provider,
                    source,
                    addrs: t.addrs.clone(),
                    corrected: false,
                },
            )
        })
        .into_iter()
        .collect();
        self.confidence = Confidence::compute(&obs);
        self.mx_post = self.mx_pre.clone();
        misid::check_with_confidence(&mut self.mx_post, &obs, &self.knowledge, &self.psl, &self.confidence);
        let entries: Vec<(&str, &DomainObservation)> = self
            .view_keys
            .iter()
            .map(String::as_str)
            .zip(obs.domains.iter())
            .collect();
        let rows = mx_par::par_map(&entries, |&(key, d)| {
            let a = domainid::assign_domain(d, &self.mx_post, &obs);
            row_from_assignment(key, &a, &self.companies, &self.psl)
        });
        for (key, d) in &entries {
            users_inc(&mut self.mx_users, d, key);
        }
        self.writer.add_epoch(&epoch_label(0), rows, &obs.acquisition)?;
        self.view = obs;
        self.epoch = 1;
        Ok(self.writer.snapshot())
    }

    /// Drop `domain`'s footprint entries from the reverse index.
    fn unindex(&mut self, domain: &str) {
        if let Some(old) = self.footprints.remove(domain) {
            for ip in old {
                if let Some(set) = self.ref_index.get_mut(&ip) {
                    set.remove(domain);
                    if set.is_empty() {
                        self.ref_index.remove(&ip);
                    }
                }
            }
        }
    }

    /// Apply one event batch: update the state, compute the dirty set
    /// through the reverse index, re-measure only dirty domains and
    /// invalidated addresses, patch the joined view, run staged
    /// inference (coupled stages in full, memoised attribution stages
    /// only where the stage diff demands), and append the resulting
    /// delta epoch on the hot writer. Returns the grown store bytes
    /// and the batch accounting.
    pub fn apply_batch(&mut self, batch: &[Event]) -> Result<(Vec<u8>, BatchStats), DeltaError> {
        let _g = mx_obs::stage!(mx_obs::names::STAGE_DELTA_BATCH).enter();

        // 1. Apply events, accumulating dirty seeds.
        let mut dirty: BTreeSet<String> = BTreeSet::new();
        let mut invalidated: BTreeSet<Ipv4Addr> = BTreeSet::new();
        let mut removed: BTreeSet<String> = BTreeSet::new();
        for ev in batch {
            let fx = self.state.apply(ev)?;
            dirty.extend(fx.dirty);
            invalidated.extend(fx.invalidated_ips);
            removed.extend(fx.removed);
        }

        // 2. Close the dirty set over the reverse index: any domain
        // whose footprint (before or after the batch) touches an
        // invalidated address must re-measure. The index reflects the
        // pre-batch state here — that is the backwards half.
        for ip in &invalidated {
            if let Some(ds) = self.ref_index.get(ip) {
                dirty.extend(ds.iter().cloned());
            }
        }

        // 3. Roll the index forward. Only domains whose own zone
        // changed can have a changed footprint, and all of those are
        // already dirty seeds, so the update is O(dirty).
        for d in &removed {
            if !self.state.domains.contains_key(d) {
                self.unindex(d);
            }
        }
        let live_dirty: Vec<String> = dirty
            .iter()
            .filter(|d| self.state.domains.contains_key(*d))
            .cloned()
            .collect();
        for d in &live_dirty {
            let fp = self.state.footprint(d);
            if self.footprints.get(d) == Some(&fp) {
                continue;
            }
            self.unindex(d);
            for ip in &fp {
                self.ref_index.entry(*ip).or_default().insert(d.clone());
            }
            self.footprints.insert(d.clone(), fp);
        }

        // ... and the forwards half of the closure. Domains picked up
        // here reference an invalidated address without their own zone
        // having changed, so their footprints are already current.
        for ip in &invalidated {
            if let Some(ds) = self.ref_index.get(ip) {
                dirty.extend(ds.iter().cloned());
            }
        }

        // 4. Invalidate caches.
        for d in &dirty {
            self.dns_cache.remove(d);
        }
        for ip in &invalidated {
            self.ip_cache.remove(ip);
        }

        // 5. Re-resolve dirty domains against a world restricted to
        // them (providers and the silent pool are always materialised;
        // content-addressing makes the restricted answers exact).
        let to_resolve: Vec<String> = dirty
            .iter()
            .filter(|d| self.state.domains.contains_key(*d))
            .cloned()
            .collect();
        let only: BTreeSet<String> = to_resolve.iter().cloned().collect();
        let world = materialize(&self.state, Some(&only));
        let names: Vec<Name> = to_resolve
            .iter()
            .map(|d| Name::parse(d).expect("state domain is a valid name"))
            .collect();
        let fresh = dns_rows(&world, &names);

        // 6. Patch the joined view: fresh rows replace their old
        // selves in place; adds and deletes go through one sorted
        // merge pass; the measured-address refcounts track every row
        // that enters or leaves.
        let mut became: BTreeSet<Ipv4Addr> = BTreeSet::new();
        let mut gone: BTreeSet<Ipv4Addr> = BTreeSet::new();
        let mut inserts: Vec<(String, DomainObservation)> = Vec::new();
        // Exchanges named by fresh rows, with their (world-derived,
        // hence row-independent) address sets: these re-run `mxid`
        // this batch no matter what, covering adopted and re-pointed
        // exchanges.
        let mut fresh_targets: BTreeMap<Name, Vec<Ipv4Addr>> = BTreeMap::new();
        for row in fresh {
            let key = row.domain.to_dotted();
            for t in row.mx.targets() {
                fresh_targets.entry(t.exchange.clone()).or_insert_with(|| t.addrs.clone());
            }
            ref_inc(&mut self.measured, &row, &mut became);
            match self.view_keys.binary_search(&key) {
                Ok(i) => {
                    ref_dec(&mut self.measured, &self.view.domains[i], &mut gone);
                    users_dec(&mut self.mx_users, &self.view.domains[i], &key);
                    users_inc(&mut self.mx_users, &row, &key);
                    self.view.domains[i] = row.clone();
                }
                Err(_) => inserts.push((key.clone(), row.clone())),
            }
            self.dns_cache.insert(key, row);
        }
        if !inserts.is_empty() || !removed.is_empty() {
            for (key, row) in &inserts {
                users_inc(&mut self.mx_users, row, key);
            }
            let old = std::mem::take(&mut self.view.domains);
            let old_keys = std::mem::take(&mut self.view_keys);
            let mut merged: Vec<DomainObservation> = Vec::with_capacity(old.len() + inserts.len());
            let mut keys: Vec<String> = Vec::with_capacity(old.len() + inserts.len());
            let mut pending = inserts.into_iter().peekable();
            for (row, key) in old.into_iter().zip(old_keys) {
                if removed.contains(&key) && !self.state.domains.contains_key(&key) {
                    ref_dec(&mut self.measured, &row, &mut gone);
                    users_dec(&mut self.mx_users, &row, &key);
                    continue;
                }
                while let Some((nk, _)) = pending.peek() {
                    if *nk < key {
                        let (nk, n) = pending.next().expect("peeked insert exists");
                        keys.push(nk);
                        merged.push(n);
                    } else {
                        break;
                    }
                }
                keys.push(key);
                merged.push(row);
            }
            for (nk, n) in pending {
                keys.push(nk);
                merged.push(n);
            }
            self.view.domains = merged;
            self.view_keys = keys;
        }

        // 7. Scan whatever referenced addresses the cache is missing
        // (`measured`'s keys are exactly the addresses the view's rows
        // name, in sorted order).
        let to_scan: Vec<Ipv4Addr> = self
            .measured
            .keys()
            .filter(|ip| !self.ip_cache.contains_key(ip))
            .copied()
            .collect();
        self.ip_cache.extend(scan_ips(&world, &to_scan));

        // 8. Patch the view's referenced-IP maps: addresses that
        // stopped being referenced drop out, newly referenced or
        // re-scanned ones take their cached observation.
        let mut touched: BTreeSet<Ipv4Addr> = became;
        touched.extend(gone);
        touched.extend(invalidated.iter().copied());
        for ip in &touched {
            if self.measured.contains_key(ip) {
                let (o, acq) = self
                    .ip_cache
                    .get(ip)
                    .expect("every referenced address was just scanned or cached");
                self.view.ips.insert(*ip, o.clone());
                self.view.acquisition.ips.insert(*ip, *acq);
            } else {
                self.view.ips.remove(ip);
                self.view.acquisition.ips.remove(ip);
            }
        }

        // 9. Staged inference. The population-coupled stages recompute
        // over the full view; diffing their outputs against the
        // previous batch bounds exactly which pure attributions can
        // have changed.
        let cert_groups = certgroup::preprocess(&self.view, &self.psl);
        let new_ip_ids = ipid::compute_ip_ids(&self.view, &cert_groups, &self.psl);
        let new_conf = Confidence::compute(&self.view);

        // 9a. Addresses whose per-IP IDs changed (including entries
        // that appeared or vanished with view membership).
        let mut changed_ids: BTreeSet<Ipv4Addr> = BTreeSet::new();
        for (ip, ids) in &new_ip_ids {
            if self.ip_ids.get(ip) != Some(ids) {
                changed_ids.insert(*ip);
            }
        }
        for ip in self.ip_ids.keys() {
            if !new_ip_ids.contains_key(ip) {
                changed_ids.insert(*ip);
            }
        }

        // 9b. Addresses whose confidence score may have changed: a
        // changed per-IP count, or presenting a certificate whose
        // per-cert count changed.
        let mut rescored: BTreeSet<Ipv4Addr> = BTreeSet::new();
        for (ip, n) in &new_conf.num_ip {
            if self.confidence.num_ip.get(ip) != Some(n) {
                rescored.insert(*ip);
            }
        }
        for ip in self.confidence.num_ip.keys() {
            if !new_conf.num_ip.contains_key(ip) {
                rescored.insert(*ip);
            }
        }
        let mut changed_fps: BTreeSet<Fingerprint> = BTreeSet::new();
        for (fp, n) in &new_conf.num_cert {
            if self.confidence.num_cert.get(fp) != Some(n) {
                changed_fps.insert(*fp);
            }
        }
        for fp in self.confidence.num_cert.keys() {
            if !new_conf.num_cert.contains_key(fp) {
                changed_fps.insert(*fp);
            }
        }
        if !changed_fps.is_empty() {
            for (ip, o) in &self.view.ips {
                if let Some(c) = &o.leaf_cert {
                    if changed_fps.contains(&c.fingerprint()) {
                        rescored.insert(*ip);
                    }
                }
            }
        }

        // 9c. Re-run `mxid` for exchanges named by fresh rows or
        // touching an address with changed IDs; everything else keeps
        // its memoised pre-check assignment.
        let mut reassign: BTreeMap<Name, Vec<Ipv4Addr>> = fresh_targets;
        // lint:allow(R9): membership scan that only inserts into the ordered `reassign` map — the visit order cannot reach the output
        for (e, a) in &self.mx_pre {
            if !reassign.contains_key(e) && a.addrs.iter().any(|ip| changed_ids.contains(ip)) {
                reassign.insert(e.clone(), a.addrs.clone());
            }
        }
        let reassign: Vec<(Name, Vec<Ipv4Addr>)> = reassign.into_iter().collect();
        let mx_reassigned = reassign.len() as u64;
        let assigned = mx_par::par_map(&reassign, |(e, addrs)| {
            let (provider, source) = mxid::assign_mx_id(e, addrs, &new_ip_ids, &self.psl);
            MxAssignment {
                exchange: e.clone(),
                provider,
                source,
                addrs: addrs.clone(),
                corrected: false,
            }
        });
        let mut pre_changed: BTreeSet<Name> = BTreeSet::new();
        for a in assigned {
            if self.mx_pre.get(&a.exchange) != Some(&a) {
                pre_changed.insert(a.exchange.clone());
            }
            self.mx_pre.insert(a.exchange.clone(), a);
        }

        // 9d. Re-decide the misidentification check for exchanges
        // whose pre-check assignment, address scores, or address
        // observations (re-scanned, or entering/leaving the view)
        // changed. Decisions are per-exchange and read-only, so a
        // restricted run equals the full run on the restricted set.
        let mut redecide = pre_changed;
        // lint:allow(R9): membership scan that only inserts into the ordered `redecide` set — the visit order cannot reach the output
        for (e, a) in &self.mx_pre {
            if redecide.contains(e) {
                continue;
            }
            if a.addrs.iter().any(|ip| rescored.contains(ip) || touched.contains(ip)) {
                redecide.insert(e.clone());
            }
        }
        let mut sub: HashMap<Name, MxAssignment> = redecide
            .iter()
            .filter_map(|e| self.mx_pre.get(e).map(|a| (e.clone(), a.clone())))
            .collect();
        misid::check_with_confidence(&mut sub, &self.view, &self.knowledge, &self.psl, &new_conf);
        let mut post_changed: BTreeSet<Name> = BTreeSet::new();
        for (e, a) in sub {
            if self.mx_post.get(&e) != Some(&a) {
                post_changed.insert(e.clone());
            }
            self.mx_post.insert(e, a);
        }

        // 9e. Re-attribute domains that re-resolved or whose primary
        // exchanges' post-check assignments changed.
        let mut reattribute: BTreeSet<String> = to_resolve.iter().cloned().collect();
        for e in &post_changed {
            if let Some(ds) = self.mx_users.get(e) {
                reattribute.extend(ds.iter().cloned());
            }
        }
        let reattribute: Vec<String> = reattribute
            .into_iter()
            .filter(|d| self.state.domains.contains_key(d))
            .collect();
        let domains_reattributed = reattribute.len() as u64;
        let new_rows = mx_par::par_map(&reattribute, |d| {
            let row = self.dns_cache.get(d).expect("live domain has a cached row");
            let a = domainid::assign_domain(row, &self.mx_post, &self.view);
            row_from_assignment(d, &a, &self.companies, &self.psl)
        });

        // 9f. Append the epoch on the hot writer: its resolved view
        // holds every other domain's row from earlier batches.
        let departed: Vec<String> = removed
            .into_iter()
            .filter(|d| !self.state.domains.contains_key(d))
            .collect();
        self.ip_ids = new_ip_ids;
        self.confidence = new_conf;
        let label = epoch_label(self.epoch);
        self.writer
            .add_epoch_changes(&label, new_rows, departed, &self.view.acquisition)?;
        self.epoch += 1;
        let out = self.writer.snapshot();

        let stats = BatchStats {
            events_applied: batch.len() as u64,
            dirty_domains: dirty.len() as u64,
            reresolved: to_resolve.len() as u64,
            rescanned_ips: to_scan.len() as u64,
            reuse_hits: self.state.domains.len() as u64 - to_resolve.len() as u64,
            population: self.state.domains.len() as u64,
            mx_reassigned,
            domains_reattributed,
        };
        use mx_obs::names;
        mx_obs::counter!(names::DELTA_EVENTS_APPLIED).add(stats.events_applied);
        mx_obs::counter!(names::DELTA_DOMAINS_DIRTY).add(stats.dirty_domains);
        mx_obs::counter!(names::DELTA_RERESOLVES).add(stats.reresolved);
        mx_obs::counter!(names::DELTA_RESCANS).add(stats.rescanned_ips);
        mx_obs::counter!(names::DELTA_REUSE_HITS).add(stats.reuse_hits);
        mx_obs::counter!(names::DELTA_EPOCHS_APPENDED).incr();
        Ok((out, stats))
    }
}

/// Convenience driver: seed a population, build the base store, apply
/// every batch, and return the final store bytes plus per-batch stats.
pub fn run_incremental(
    initial: &WorldState,
    log: &[Vec<Event>],
) -> Result<(Vec<u8>, Vec<BatchStats>), DeltaError> {
    let mut rec = Reconciler::new(initial.clone());
    let mut store = rec.base_store()?;
    let mut stats = Vec::with_capacity(log.len());
    for batch in log {
        let (next, s) = rec.apply_batch(batch)?;
        store = next;
        stats.push(s);
    }
    Ok((store, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate_events, EventStreamConfig};

    #[test]
    fn incremental_matches_full_recompute_smoke() {
        let st = WorldState::seeded(5, 60);
        let log = generate_events(
            &st,
            &EventStreamConfig { seed: 5, batches: 2, churn: 0.08, adds_per_batch: 1 },
        );
        let (incremental, stats) = run_incremental(&st, &log).expect("incremental runs");
        let full = full_recompute(&st, &log).expect("full recompute runs");
        assert_eq!(incremental, full, "append path diverged from oracle");
        for s in &stats {
            assert_eq!(s.reresolved + s.reuse_hits, s.population);
        }
    }

    #[test]
    fn provider_cert_rotation_dirties_every_customer() {
        let st = WorldState::seeded(9, 80);
        let customers = st
            .domains
            .iter()
            .filter(|(_, h)| matches!(h, crate::world::Hosting::Provider { provider: 0, .. }))
            .count() as u64;
        assert!(customers > 0, "seeded world has provider-0 customers");
        let mut rec = Reconciler::new(st);
        let _store = rec.base_store().expect("base builds");
        let batch = vec![Event::CertRotation {
            target: crate::event::CertTarget::Provider(0),
        }];
        let (_, stats) = rec.apply_batch(&batch).expect("batch applies");
        assert!(
            stats.dirty_domains >= customers,
            "rotation dirtied {} < {customers} customers",
            stats.dirty_domains
        );
        assert_eq!(stats.events_applied, 1);
    }
}
