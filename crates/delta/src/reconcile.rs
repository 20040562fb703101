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
//! 3. inference runs through [`mx_infer::Engine`], the same staged
//!    engine `Pipeline::run` applies once. The reconciler hands it the
//!    patched view, the rows that re-resolved (every domain naming a
//!    re-scanned address is among them, by the dirty-set closure) and
//!    the touched addresses; the engine recomputes only the
//!    attributions those can reach.
//!
//! The reconciler itself only measures: event apply, dirty-set
//! closure, re-resolution, re-scan, view patching and the store
//! append.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::net::Ipv4Addr;

use mx_dns::Name;
use mx_infer::{
    assignment_rows, result_rows, CompanyMap, DomainObservation, Engine, IpAcquisition,
    IpObservation, ObservationSet, Pipeline, ProviderKnowledge, ProviderProfile,
};
use mx_net::{openintel, Scanner};
use mx_store::StoreWriter;

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
/// certificate validation through the same join as the full
/// pipeline's data gathering, at the world's pinned clock.
fn scan_ips(
    world: &DeltaWorld,
    ips: &[Ipv4Addr],
) -> HashMap<Ipv4Addr, (IpObservation, IpAcquisition)> {
    let scan = Scanner::new().scan(&world.net, ips, 0);
    let now = world.net.clock().now();
    mx_par::par_map(ips, |&ip| {
        let asn = world.net.asn_of(ip);
        let obs = IpObservation::from_scan(ip, asn, scan.get(ip), &world.trust, now);
        (ip, (obs, scan.acquisition(ip)))
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
        .into_iter()
        .map(|(domain, mx)| DomainObservation { domain, mx })
        .collect();
    // Both the incremental and the full path order domains by dotted
    // name so the joined observation sets are identical structures.
    rows.sort_by_cached_key(|r| r.domain.to_dotted());
    rows
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
    (ObservationSet::from_rows(domains, &table), table)
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
    /// Exchanges whose provider ID the engine recomputed (the rest
    /// came from its memo).
    pub mx_reassigned: u64,
    /// Domains whose attribution the engine recomputed (the rest came
    /// from its memo).
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

/// Incremental measurement: owns the evolving world state, the per-IP
/// observation cache, the maintained reverse index and joined view,
/// the staged inference [`Engine`] and the hot store writer.
///
/// Measurement and the store append are maintained incrementally and
/// cost O(dirty + appended bytes); the engine's coupled stages and the
/// writer's index walk still visit the whole population every batch:
///
/// - `footprints`/`ref_index`: each domain's state-derived address set
///   and its inversion, updated only for domains whose zone changed
///   (the dirty-set closure reads the index instead of sweeping every
///   domain's footprint twice per batch);
/// - `view`: the full joined [`ObservationSet`] inference runs over,
///   patched in place (dirty rows replaced, adds/deletes merged in one
///   sorted pass, the referenced-IP maps adjusted by refcount);
/// - `engine`: staged inference over `view` — each batch hands it the
///   re-resolved rows and the touched addresses, and it returns the
///   re-attributed domains;
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
    /// Its rows are every live domain's, sorted by dotted name.
    view: ObservationSet,
    /// Dotted names of `view.domains`, in the same sorted order —
    /// lookups and merges compare these instead of re-rendering every
    /// [`Name`] they probe.
    view_keys: Vec<String>,
    engine: Engine,
    companies: CompanyMap,
    writer: StoreWriter,
}

impl Reconciler {
    /// A reconciler over `state` with empty caches.
    pub fn new(state: WorldState) -> Reconciler {
        Reconciler {
            state,
            epoch: 0,
            ip_cache: HashMap::new(),
            footprints: HashMap::new(),
            ref_index: BTreeMap::new(),
            measured: BTreeMap::new(),
            view: ObservationSet::new(),
            view_keys: Vec::new(),
            engine: delta_pipeline().engine(),
            companies: company_map(),
            writer: StoreWriter::new(),
        }
    }

    /// The current world state.
    pub fn state(&self) -> &WorldState {
        &self.state
    }

    /// Fully measure the current state, seed the caches, the reverse
    /// index, the joined view and the engine, and build the base store
    /// (epoch `d0000`).
    pub fn base_store(&mut self) -> Result<Vec<u8>, DeltaError> {
        let (obs, table) = observe_state(&self.state);
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
        let every_row: Vec<usize> = (0..obs.domains.len()).collect();
        let applied = self.engine.apply(&obs, &every_row, &BTreeSet::new(), &[]);
        let rows = assignment_rows(&applied.assignments, &self.companies);
        self.writer
            .add_epoch(&epoch_label(0), rows, &obs.acquisition)?;
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
    /// invalidated addresses, patch the joined view, hand the engine
    /// the re-resolved rows and touched addresses, and append the
    /// re-attributed rows as a delta epoch on the hot writer. Returns
    /// the grown store bytes and the batch accounting.
    pub fn apply_batch(&mut self, batch: &[Event]) -> Result<(Vec<u8>, BatchStats), DeltaError> {
        use mx_obs::names;
        let _g = mx_obs::stage!(names::STAGE_DELTA_BATCH).enter();

        // 1. Apply events, accumulating dirty seeds.
        let phase = mx_obs::stage!(names::STAGE_DELTA_EVENTS, names::STAGE_DELTA_BATCH).enter();
        let mut dirty: BTreeSet<String> = BTreeSet::new();
        let mut invalidated: BTreeSet<Ipv4Addr> = BTreeSet::new();
        let mut removed: BTreeSet<String> = BTreeSet::new();
        for ev in batch {
            let fx = self.state.apply(ev)?;
            dirty.extend(fx.dirty);
            invalidated.extend(fx.invalidated_ips);
            removed.extend(fx.removed);
        }
        drop(phase);

        // 2. Close the dirty set over the reverse index: any domain
        // whose footprint (before or after the batch) touches an
        // invalidated address must re-measure. The index reflects the
        // pre-batch state here — that is the backwards half.
        let phase = mx_obs::stage!(names::STAGE_DELTA_CLOSURE, names::STAGE_DELTA_BATCH).enter();
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

        // 4. Invalidate the scan cache (dirty rows are replaced in the
        // view below).
        for ip in &invalidated {
            self.ip_cache.remove(ip);
        }
        drop(phase);

        // 5. Re-resolve dirty domains against a world restricted to
        // them (providers and the silent pool are always materialised;
        // content-addressing makes the restricted answers exact).
        let phase = mx_obs::stage!(names::STAGE_DELTA_RESOLVE, names::STAGE_DELTA_BATCH).enter();
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
        drop(phase);

        // 6. Patch the joined view: fresh rows replace their old
        // selves in place; adds and deletes go through one sorted
        // merge pass; the measured-address refcounts track every row
        // that enters or leaves.
        let phase = mx_obs::stage!(names::STAGE_DELTA_PATCH, names::STAGE_DELTA_BATCH).enter();
        let mut became: BTreeSet<Ipv4Addr> = BTreeSet::new();
        let mut gone: BTreeSet<Ipv4Addr> = BTreeSet::new();
        let mut inserts: Vec<(String, DomainObservation)> = Vec::new();
        for row in fresh {
            let key = row.domain.to_dotted();
            ref_inc(&mut self.measured, &row, &mut became);
            match self.view_keys.binary_search(&key) {
                Ok(i) => {
                    ref_dec(&mut self.measured, &self.view.domains[i], &mut gone);
                    self.view.domains[i] = row;
                }
                Err(_) => inserts.push((key, row)),
            }
        }
        if !inserts.is_empty() || !removed.is_empty() {
            let old = std::mem::take(&mut self.view.domains);
            let old_keys = std::mem::take(&mut self.view_keys);
            let mut merged: Vec<DomainObservation> = Vec::with_capacity(old.len() + inserts.len());
            let mut keys: Vec<String> = Vec::with_capacity(old.len() + inserts.len());
            let mut pending = inserts.into_iter().peekable();
            for (row, key) in old.into_iter().zip(old_keys) {
                if removed.contains(&key) && !self.state.domains.contains_key(&key) {
                    ref_dec(&mut self.measured, &row, &mut gone);
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
        drop(phase);

        // 7. Scan whatever referenced addresses the cache is missing
        // (`measured`'s keys are exactly the addresses the view's rows
        // name, in sorted order), then patch the view's referenced-IP
        // maps: addresses that stopped being referenced drop out, newly
        // referenced or re-scanned ones take their cached observation.
        let phase = mx_obs::stage!(names::STAGE_DELTA_RESCAN, names::STAGE_DELTA_BATCH).enter();
        let to_scan: Vec<Ipv4Addr> = self
            .measured
            .keys()
            .filter(|ip| !self.ip_cache.contains_key(ip))
            .copied()
            .collect();
        self.ip_cache.extend(scan_ips(&world, &to_scan));
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
        drop(phase);

        // 8. Staged inference over the patched view: the re-resolved
        // rows changed, and so did every touched address; the departed
        // domains' rows left it.
        let changed_rows: Vec<usize> = to_resolve
            .iter()
            .map(|d| {
                self.view_keys
                    .binary_search(d)
                    .expect("every re-resolved domain has a view row")
            })
            .collect();
        let departed: Vec<String> = removed
            .into_iter()
            .filter(|d| !self.state.domains.contains_key(d))
            .collect();
        let departed_names: Vec<Name> = departed
            .iter()
            .map(|d| Name::parse(d).expect("state domain is a valid name"))
            .collect();
        let applied = self
            .engine
            .apply(&self.view, &changed_rows, &touched, &departed_names);
        let new_rows = assignment_rows(&applied.assignments, &self.companies);

        // 9. Append the epoch on the hot writer: its resolved view
        // holds every other domain's row from earlier batches.
        let phase = mx_obs::stage!(names::STAGE_DELTA_APPEND, names::STAGE_DELTA_BATCH).enter();
        let label = epoch_label(self.epoch);
        self.writer
            .add_epoch_changes(&label, new_rows, departed, &self.view.acquisition)?;
        self.epoch += 1;
        let out = self.writer.snapshot();
        drop(phase);

        let stats = BatchStats {
            events_applied: batch.len() as u64,
            dirty_domains: dirty.len() as u64,
            reresolved: to_resolve.len() as u64,
            rescanned_ips: to_scan.len() as u64,
            reuse_hits: self.state.domains.len() as u64 - to_resolve.len() as u64,
            population: self.state.domains.len() as u64,
            mx_reassigned: applied.mx_reassigned as u64,
            domains_reattributed: applied.assignments.len() as u64,
        };
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
