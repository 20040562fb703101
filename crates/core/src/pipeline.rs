//! The end-to-end inference pipeline, the four strategies of §3.3, and
//! the staged [`Engine`] both the one-shot run and incremental callers
//! go through.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::hash::Hash;
use std::net::Ipv4Addr;
use std::sync::Arc;

use mx_cert::Fingerprint;
use mx_dns::Name;
use mx_psl::PublicSuffixList;

use crate::certgroup::{unlist, CertGroups, Grouping};
use crate::domainid::{self, DomainAssignment};
use crate::input::{DomainObservation, ObservationSet};
use crate::ipid::{self, IpIds, ProviderId};
use crate::misid::{self, Confidence, MisidReport, ProviderKnowledge};
use crate::mxid::{self, MxAssignment};

/// The four inference strategies the paper evaluates (Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// MX record content only (Trost's approach).
    MxOnly,
    /// TLS certificates, falling back to MX records.
    CertBased,
    /// Banner/EHLO messages, falling back to MX records.
    BannerBased,
    /// Certificates, then Banner/EHLO, then MX records, plus the
    /// misidentification check — the paper's contribution.
    PriorityBased,
}

impl Strategy {
    /// All four, in the paper's presentation order.
    pub const ALL: [Strategy; 4] = [
        Strategy::MxOnly,
        Strategy::CertBased,
        Strategy::BannerBased,
        Strategy::PriorityBased,
    ];

    /// Display label matching the paper's figure legend.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::MxOnly => "MX-only",
            Strategy::CertBased => "cert-based",
            Strategy::BannerBased => "banner-based",
            Strategy::PriorityBased => "priority-based",
        }
    }

    fn use_certs(self) -> bool {
        matches!(self, Strategy::CertBased | Strategy::PriorityBased)
    }

    fn use_banner(self) -> bool {
        matches!(self, Strategy::BannerBased | Strategy::PriorityBased)
    }

    fn check_misid(self) -> bool {
        self == Strategy::PriorityBased
    }
}

/// The complete output of one inference run.
#[derive(Debug, Clone)]
pub struct InferenceResult {
    /// The strategy that produced this result.
    pub strategy: Strategy,
    /// Per-domain attributions, keyed by domain.
    pub domains: HashMap<Name, DomainAssignment>,
    /// Per-MX attributions, keyed by exchange name.
    pub mx_assignments: HashMap<Name, MxAssignment>,
    /// Certificate preprocessing output (empty for strategies that skip
    /// certificates).
    pub cert_groups: CertGroups,
    /// Step-4 report (empty unless the strategy checks misidentifications).
    pub misid: MisidReport,
}

impl InferenceResult {
    /// The attribution of one domain.
    pub fn domain(&self, name: &Name) -> Option<&DomainAssignment> {
        self.domains.get(name)
    }

    /// Total credited weight per provider across all domains.
    pub fn provider_weights(&self) -> HashMap<ProviderId, f64> {
        // Accumulate in dotted-name order, matching the market-share
        // path: f64 addition is order-sensitive, and hash order would
        // make the per-provider sums vary bit-for-bit run to run.
        let mut entries: Vec<(&Name, &DomainAssignment)> = self.domains.iter().collect();
        entries.sort_by_cached_key(|(name, _)| name.to_dotted());
        let mut w: HashMap<ProviderId, f64> = HashMap::new();
        for (_, a) in entries {
            for s in &a.shares {
                *w.entry(s.provider.clone()).or_insert(0.0) += s.weight;
            }
        }
        w
    }
}

/// The configurable pipeline.
#[derive(Debug, Clone)]
pub struct Pipeline {
    strategy: Strategy,
    knowledge: Arc<ProviderKnowledge>,
    psl: Arc<PublicSuffixList>,
}

impl Pipeline {
    /// A pipeline for `strategy` with no misidentification knowledge (the
    /// step-4 check then has nothing to examine).
    pub fn new(strategy: Strategy) -> Pipeline {
        Pipeline {
            strategy,
            knowledge: Arc::new(ProviderKnowledge::new(usize::MAX)),
            psl: Arc::new(PublicSuffixList::builtin()),
        }
    }

    /// The paper's configuration: priority-based with the published
    /// provider knowledge.
    pub fn priority_based(knowledge: ProviderKnowledge) -> Pipeline {
        Pipeline {
            strategy: Strategy::PriorityBased,
            knowledge: Arc::new(knowledge),
            psl: Arc::new(PublicSuffixList::builtin()),
        }
    }

    /// The strategy in effect.
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// A staged engine with this pipeline's strategy, knowledge and PSL
    /// and nothing memoised yet.
    pub fn engine(&self) -> Engine {
        Engine {
            pipeline: self.clone(),
            leaves: HashMap::new(),
            presenters: HashMap::new(),
            grouping: Grouping::default(),
            ip_ids: HashMap::new(),
            footprints: HashMap::new(),
            confidence: Confidence::default(),
            mx_post: HashMap::new(),
            mx_pre: HashMap::new(),
            users: HashMap::new(),
        }
    }

    /// Run the pipeline over an observation set: a fresh [`Engine`]
    /// applied once with every row changed.
    pub fn run(&self, obs: &ObservationSet) -> InferenceResult {
        let mut engine = self.engine();
        let every_row: Vec<usize> = (0..obs.domains.len()).collect();
        let applied = engine.apply(obs, &every_row, &BTreeSet::new(), &[]);
        InferenceResult {
            strategy: self.strategy,
            domains: applied
                .assignments
                .into_iter()
                .map(|a| (a.domain.clone(), a))
                .collect(),
            cert_groups: engine.grouping.snapshot(),
            mx_assignments: engine.mx_post,
            misid: applied.misid,
        }
    }
}

/// What one [`Engine::apply`] recomputed.
#[derive(Debug)]
pub struct Applied {
    /// Attributions of the re-attributed rows, in view order.
    pub assignments: Vec<DomainAssignment>,
    /// Step-4 report over the exchanges this call re-decided (every
    /// exchange on a fresh engine; empty unless the strategy checks
    /// misidentifications).
    pub misid: MisidReport,
    /// Exchanges whose `mxid` assignment was recomputed.
    pub mx_reassigned: usize,
}

/// Counter values before a call first moved them: the step-4 rescore
/// base.
#[derive(Debug, Default)]
struct Before {
    ips: BTreeMap<Ipv4Addr, usize>,
    certs: BTreeMap<Fingerprint, usize>,
}

/// Staged inference over an observation view that changes between
/// calls.
///
/// The population-coupled stages are state the engine keeps and moves
/// by each call's change set, so a call costs what changed, not what
/// the view holds:
///
/// - the leaf certificate of every view address and its inverse, the
///   addresses presenting each certificate;
/// - step 1 as a maintained certificate grouping: only components
///   that gained or lost a valid certificate are regrouped, and only
///   groups holding a registered domain whose count moved re-pick
///   their representative;
/// - step 2's per-IP IDs (strategy-masked), recomputed for touched
///   addresses and for the addresses presenting a certificate whose
///   representative changed;
/// - step 4's confidence counters, moved by ± the footprint of every
///   changed row and removed domain (its distinct primary addresses and
///   the distinct leaf certificates presented there); the last
///   footprint of each domain is kept as the diff base, and its
///   certificates are read through the leaf map it was counted with.
///
/// What moved then bounds which pure per-exchange (`mxid`, step-4
/// decision) and per-domain (`domainid`) results can have changed, and
/// an address → memoised-exchanges index finds them. Only those are
/// recomputed; the rest come from the memo:
///
/// - an exchange re-runs `mxid` iff a changed row names it or one of
///   its addresses' per-IP IDs changed;
/// - its step-4 decision re-runs iff its pre-check assignment changed
///   or one of its addresses was touched (re-scanned, or entered or left
///   the view) or changed confidence score as step 4 reads it (capped at
///   the confidence threshold);
/// - a domain re-runs `domainid` iff its row changed or one of its
///   primary exchanges' post-check assignment changed.
///
/// Each trigger set is a conservative superset of the stage's true
/// input changes: an exchange's ID reads only its addresses and their
/// per-IP IDs, a decision reads only its own pre-check assignment and
/// the scores and observations of its addresses, and a domain reads
/// only its row, its primary exchanges and their addresses' scans. A
/// fresh engine holds nothing, so its first call builds every piece of
/// state and assigns, decides and attributes everything it is given —
/// which is what [`Pipeline::run`] is.
#[derive(Debug)]
pub struct Engine {
    pipeline: Pipeline,
    /// Leaf-certificate fingerprint and validity of every view address
    /// presenting one (kept only when the strategy uses certificates).
    leaves: HashMap<Ipv4Addr, (Fingerprint, bool)>,
    /// Inverse of `leaves`: the addresses presenting each certificate.
    presenters: HashMap<Fingerprint, Vec<Ipv4Addr>>,
    /// Step 1 over the valid certificates in `leaves`.
    grouping: Grouping,
    /// Strategy-masked per-IP IDs of every view address.
    ip_ids: HashMap<Ipv4Addr, IpIds>,
    /// Distinct primary addresses of every domain that has one (kept
    /// only when the strategy checks misidentifications): with `leaves`,
    /// each domain's footprint and the diff base of `confidence`.
    footprints: HashMap<Name, Box<[Ipv4Addr]>>,
    /// Step-4 confidence counters over the view.
    confidence: Confidence,
    /// Post-check assignment of every exchange assigned so far — what
    /// `domainid` reads. May keep exchanges no row names any more; rows
    /// never read those, and a row that names one again arrives
    /// changed, which re-assigns it.
    mx_post: HashMap<Name, MxAssignment>,
    /// Pre-check assignments that differ from `mx_post`: exactly the
    /// exchanges step 4 corrected. Every other exchange's pre-check
    /// assignment is its post-check one, so the memo holds one full map.
    mx_pre: HashMap<Name, MxAssignment>,
    /// Inverse of `mx_post`'s addresses: the memoised exchanges listing
    /// each address (see step 3 for the one place it runs ahead).
    users: HashMap<Ipv4Addr, Vec<Name>>,
}

impl Engine {
    /// The memoised post-check assignment of `exchange`: lets a test
    /// compare a long-lived engine's memo with a fresh run.
    pub fn mx_assignment(&self, exchange: &Name) -> Option<&MxAssignment> {
        self.mx_post.get(exchange)
    }

    /// The maintained coupled state, for tests that hold it against the
    /// public stages over the last view: the confidence counters (as
    /// [`Confidence::compute`]; empty unless the strategy checks
    /// misidentifications), the strategy-masked per-IP IDs (as
    /// [`ipid::compute_ip_ids`]) and the certificate grouping (as
    /// [`certgroup::preprocess`] up to group numbering; empty unless the
    /// strategy uses certificates).
    pub fn coupled_state(&self) -> (&Confidence, &HashMap<Ipv4Addr, IpIds>, CertGroups) {
        (&self.confidence, &self.ip_ids, self.grouping.snapshot())
    }

    /// The memoised pre-check assignment of `exchange`.
    fn pre_check(&self, exchange: &Name) -> Option<&MxAssignment> {
        self.mx_pre
            .get(exchange)
            .or_else(|| self.mx_post.get(exchange))
    }

    /// Re-infer `view` after a change and return what was recomputed.
    ///
    /// `changed_rows` are the indices (ascending, distinct) of the rows
    /// that are new or different since the last call, or that name an
    /// address whose observation changed; `touched_ips` are the
    /// addresses whose observation changed or that entered or left the
    /// view, so every row that names a touched address is a changed
    /// row; `removed` names the domains whose rows left the view. On a
    /// fresh engine every exchange is new, so `touched_ips` has nothing
    /// to add there, and `changed_rows` must name every row.
    ///
    /// Rows are keyed by domain name, one row per domain. Every row that
    /// names an exchange must list the same addresses for it, as rows
    /// resolved from one world do: the engine takes them from the first
    /// changed row that names the exchange.
    pub fn apply(
        &mut self,
        view: &ObservationSet,
        changed_rows: &[usize],
        touched_ips: &BTreeSet<Ipv4Addr>,
        removed: &[Name],
    ) -> Applied {
        use mx_obs::names;
        debug_assert!(changed_rows.windows(2).all(|w| w[0] < w[1]));
        let _infer = mx_obs::stage!(names::STAGE_INFER).enter();
        let strategy = self.pipeline.strategy;
        let psl = &*self.pipeline.psl;

        // The addresses whose observation may differ from what the
        // engine holds: the touched ones, plus every view address when
        // the engine holds none (a fresh engine, or one whose last view
        // had no address, so that every address now is touched).
        let fresh = self.ip_ids.is_empty();
        let mut scope: BTreeSet<Ipv4Addr> = touched_ips.clone();
        if fresh {
            scope.extend(view.ips.keys().copied());
        }

        // Leaf certificates this call replaced, by address: over the
        // updated map, the map the stored footprints were counted with
        // (kept only once there are footprints).
        let mut displaced: HashMap<Ipv4Addr, Option<Fingerprint>> = HashMap::new();

        // Step 1: certificate preprocessing (skipped unless certs used).
        // Each scoped address's leaf certificate moves in `leaves` and
        // `presenters`, its valid one in the grouping.
        let regrouped = if strategy.use_certs() {
            let _s = mx_obs::stage!(names::STAGE_INFER_CERTGROUP, names::STAGE_INFER).enter();
            let scoped: Vec<Ipv4Addr> = scope.iter().copied().collect();
            let found = mx_par::par_map(&scoped, |ip| {
                let o = view.ips.get(ip)?;
                Some((o.leaf_cert.as_ref()?.fingerprint(), o.cert_valid))
            });
            for (ip, leaf) in scoped.into_iter().zip(found) {
                let old = match leaf {
                    Some(l) => self.leaves.insert(ip, l),
                    None => self.leaves.remove(&ip),
                };
                if old == leaf {
                    continue;
                }
                if !self.footprints.is_empty() {
                    displaced.insert(ip, old.map(|(fp, _)| fp));
                }
                if let Some((fp, valid)) = old {
                    if let Some(ips) = self.presenters.get_mut(&fp) {
                        unlist(ips, &ip);
                        if ips.is_empty() {
                            self.presenters.remove(&fp);
                        }
                    }
                    if valid {
                        self.grouping.withdraw(fp);
                    }
                }
                if let Some((fp, _)) = leaf {
                    self.presenters.entry(fp).or_default().push(ip);
                    if let Some(cert) = view.ips.get(&ip).and_then(|o| o.valid_cert()) {
                        self.grouping.present(fp, cert);
                    }
                }
            }
            self.grouping.settle(psl)
        } else {
            Vec::new()
        };

        // Step 2: per-IP IDs, masked by strategy, for the scoped
        // addresses and those presenting a regrouped certificate (all
        // scoped already when every address is); the ones whose IDs
        // changed (or that entered or left) have moved.
        let s_ipid = mx_obs::stage!(names::STAGE_INFER_IPID, names::STAGE_INFER).enter();
        let mut stale_ids = scope;
        if !fresh {
            for fp in &regrouped {
                stale_ids.extend(self.presenters.get(fp).into_iter().flatten().copied());
            }
        }
        let stale_ids: Vec<Ipv4Addr> = stale_ids.into_iter().collect();
        let recomputed = mx_par::par_map(&stale_ids, |ip| {
            let o = view.ips.get(ip)?;
            let rep = self
                .leaves
                .get(ip)
                .filter(|&&(_, valid)| valid)
                .and_then(|&(fp, _)| self.grouping.representative(fp));
            let mut ids = ipid::ip_ids(o, rep, psl);
            if !strategy.use_banner() {
                ids.from_banner = None;
            }
            Some(ids)
        });
        let mut moved: Vec<Ipv4Addr> = Vec::new();
        for (ip, ids) in stale_ids.into_iter().zip(recomputed) {
            let changed = match ids {
                Some(ids) => match self.ip_ids.get_mut(&ip) {
                    Some(slot) if *slot == ids => false,
                    Some(slot) => {
                        *slot = ids;
                        true
                    }
                    None => {
                        self.ip_ids.insert(ip, ids);
                        true
                    }
                },
                None => self.ip_ids.remove(&ip).is_some(),
            };
            if changed {
                moved.push(ip);
            }
        }
        drop(s_ipid);

        // Step 3: per-MX provider IDs for the exchanges changed rows
        // name (first-seen addresses) and the memoised ones with a moved
        // address.
        let s_mxid = mx_obs::stage!(names::STAGE_INFER_MXID, names::STAGE_INFER).enter();
        let mut seen: HashSet<&Name> = HashSet::new();
        let mut reassign: Vec<(&Name, &[Ipv4Addr])> = Vec::new();
        for &i in changed_rows {
            let row = &view.domains[i];
            for t in row.mx.targets() {
                if seen.insert(&t.exchange) {
                    reassign.push((&t.exchange, &t.addrs));
                }
            }
        }
        let stale: BTreeSet<&Name> = moved
            .iter()
            .flat_map(|ip| self.users.get(ip).into_iter().flatten())
            .filter(|e| !seen.contains(e))
            .collect();
        reassign.extend(stale.into_iter().map(|e| (e, &self.mx_post[e].addrs[..])));
        let assigned = mx_par::par_map(&reassign, |&(e, addrs)| {
            let (provider, source) = mxid::assign_mx_id(e, addrs, &self.ip_ids, psl);
            MxAssignment {
                exchange: e.clone(),
                provider,
                source,
                addrs: addrs.to_vec(),
                corrected: false,
            }
        });
        let mx_reassigned = assigned.len();
        // `sub` holds the pre-check assignments whose decision re-runs.
        // `users` lists them at their new addresses from here on; the
        // lookups below skip exchanges in `sub`, so they read the memo's
        // addresses for every other one.
        let mut sub: HashMap<Name, MxAssignment> = HashMap::with_capacity(assigned.len());
        for a in assigned {
            if self.pre_check(&a.exchange) == Some(&a) {
                continue;
            }
            let old = self.mx_post.get(&a.exchange).map(|o| &o.addrs[..]);
            if old != Some(&a.addrs[..]) {
                for ip in old.unwrap_or_default() {
                    if let Some(list) = self.users.get_mut(ip) {
                        unlist(list, &a.exchange);
                        if list.is_empty() {
                            self.users.remove(ip);
                        }
                    }
                }
                for ip in &a.addrs {
                    self.users.entry(*ip).or_default().push(a.exchange.clone());
                }
            }
            sub.insert(a.exchange.clone(), a);
        }
        drop(s_mxid);

        // Step 4: misidentification check, re-decided for `sub` plus the
        // memoised exchanges with a touched or re-scored address.
        let mut misid = MisidReport::default();
        if strategy.check_misid() {
            let _s = mx_obs::stage!(names::STAGE_INFER_MISID, names::STAGE_INFER).enter();
            let rescored = self.recount(view, changed_rows, removed, &displaced);
            let redecide: BTreeSet<&Name> = rescored
                .iter()
                .chain(touched_ips)
                .flat_map(|ip| self.users.get(ip).into_iter().flatten())
                .filter(|e| !sub.contains_key(*e))
                .collect();
            for e in redecide {
                if let Some(pre) = self.pre_check(e) {
                    sub.insert(e.clone(), pre.clone());
                }
            }
            let (knowledge, psl) = (&self.pipeline.knowledge, &self.pipeline.psl);
            misid = misid::examine(&sub, view, knowledge, psl, |ip| self.score(ip));
            self.mx_pre.retain(|e, _| !sub.contains_key(e));
            for c in &misid.corrections {
                if let Some(a) = sub.get_mut(&c.exchange) {
                    self.mx_pre.insert(c.exchange.clone(), a.clone());
                    misid::correct(a, c);
                }
            }
        }

        // Step 5: domain attribution for the changed rows plus, when a
        // memoised exchange's post-check assignment moved at the same,
        // untouched addresses, every row with that exchange as a primary
        // (one walk over the view). A new, re-addressed or touched
        // exchange needs no walk: only changed rows can name it.
        let s_domainid = mx_obs::stage!(names::STAGE_INFER_DOMAINID, names::STAGE_INFER).enter();
        let mut rows = changed_rows.to_vec();
        if rows.len() < view.domains.len() {
            let moved: BTreeSet<&Name> = sub
                .iter()
                .filter(|(e, a)| {
                    self.mx_post
                        .get(*e)
                        .is_some_and(|o| o.addrs == a.addrs && o != *a)
                        && !a.addrs.iter().any(|ip| touched_ips.contains(ip))
                })
                .map(|(e, _)| e)
                .collect();
            if !moved.is_empty() {
                rows = (0..view.domains.len())
                    .filter(|i| {
                        changed_rows.binary_search(i).is_ok()
                            || view.domains[*i]
                                .mx
                                .primary_targets()
                                .iter()
                                .any(|t| moved.contains(&t.exchange))
                    })
                    .collect();
            }
        }
        if self.mx_post.is_empty() {
            self.mx_post = sub;
        } else {
            self.mx_post.extend(sub);
        }
        let assignments = mx_par::par_map(&rows, |&i| {
            domainid::assign_domain(&view.domains[i], &self.mx_post, view)
        });
        drop(s_domainid);

        Applied {
            assignments,
            misid,
            mx_reassigned,
        }
    }

    /// Move the confidence counters by the footprints of the `removed`
    /// domains and the changed rows, keeping each changed row's new
    /// primary addresses as its diff base; old footprints read their
    /// certificates through `displaced` over the current leaf map.
    /// Returns the addresses whose score, as step 4 reads it, moved
    /// (none while the memo is empty: there is nothing to re-decide).
    fn recount(
        &mut self,
        view: &ObservationSet,
        changed_rows: &[usize],
        removed: &[Name],
        displaced: &HashMap<Ipv4Addr, Option<Fingerprint>>,
    ) -> BTreeSet<Ipv4Addr> {
        let mut before = (!self.mx_post.is_empty()).then(Before::default);
        let leaves = &self.leaves;
        let now = |ip: &Ipv4Addr| leaves.get(ip).map(|&(fp, _)| fp);
        let then = |ip: &Ipv4Addr| displaced.get(ip).copied().unwrap_or_else(|| now(ip));
        let counted = mx_par::par_map(changed_rows, |&i| {
            let ips = primary_addrs(&view.domains[i]);
            let certs = leaf_certs(&ips, now);
            (ips, certs)
        });
        for name in removed {
            if let Some(old) = self.footprints.remove(name) {
                let certs = leaf_certs(&old, then);
                tally(&mut self.confidence, &old, &certs, false, before.as_mut());
            }
        }
        if self.footprints.is_empty() {
            self.footprints.reserve(changed_rows.len());
        }
        for (&i, (ips, certs)) in changed_rows.iter().zip(counted) {
            tally(&mut self.confidence, &ips, &certs, true, before.as_mut());
            let name = &view.domains[i].domain;
            let old = match self.footprints.get_mut(name) {
                Some(slot) if !ips.is_empty() => Some(std::mem::replace(slot, ips)),
                Some(_) => self.footprints.remove(name),
                None => {
                    if !ips.is_empty() {
                        self.footprints.insert(name.clone(), ips);
                    }
                    None
                }
            };
            if let Some(old) = old {
                let certs = leaf_certs(&old, then);
                tally(&mut self.confidence, &old, &certs, false, before.as_mut());
            }
        }
        let Some(before) = before else {
            return BTreeSet::new();
        };
        // Step 4 reads a score only as `score >= threshold`, so a move
        // above the threshold re-scores nothing: the counters of a big
        // provider's addresses move with every customer.
        let threshold = self.pipeline.knowledge.confidence_threshold;
        let mut candidates: BTreeSet<Ipv4Addr> = before.ips.keys().copied().collect();
        for fp in before.certs.keys() {
            candidates.extend(self.presenters.get(fp).into_iter().flatten().copied());
        }
        candidates
            .into_iter()
            .filter(|ip| {
                let fp = now(ip);
                let was = before
                    .ips
                    .get(ip)
                    .copied()
                    .unwrap_or_else(|| self.ip_count(ip))
                    .max(fp.map_or(0, |fp| {
                        before
                            .certs
                            .get(&fp)
                            .copied()
                            .unwrap_or_else(|| self.cert_count(fp))
                    }));
                was.min(threshold) != self.score(*ip).min(threshold)
            })
            .collect()
    }

    /// How many domains reach `ip` through a primary exchange.
    fn ip_count(&self, ip: &Ipv4Addr) -> usize {
        self.confidence.num_ip.get(ip).copied().unwrap_or(0)
    }

    /// How many domains reach the certificate `fp` through a primary
    /// exchange.
    fn cert_count(&self, fp: Fingerprint) -> usize {
        self.confidence.num_cert.get(&fp).copied().unwrap_or(0)
    }

    /// The confidence score of `ip`, as [`Confidence::score`] over the
    /// view, without fingerprinting its certificate again.
    fn score(&self, ip: Ipv4Addr) -> usize {
        let cert = self
            .leaves
            .get(&ip)
            .map_or(0, |&(fp, _)| self.cert_count(fp));
        self.ip_count(&ip).max(cert)
    }
}

/// The distinct addresses `row`'s primary exchanges resolve to.
fn primary_addrs(row: &DomainObservation) -> Box<[Ipv4Addr]> {
    let mut ips: Vec<Ipv4Addr> = row
        .mx
        .primary_targets()
        .iter()
        .flat_map(|t| t.addrs.iter().copied())
        .collect();
    ips.sort_unstable();
    ips.dedup();
    ips.into_boxed_slice()
}

/// The distinct certificates `leaf` finds at `ips`.
fn leaf_certs(
    ips: &[Ipv4Addr],
    leaf: impl Fn(&Ipv4Addr) -> Option<Fingerprint>,
) -> Vec<Fingerprint> {
    let mut fps: Vec<Fingerprint> = ips.iter().filter_map(leaf).collect();
    fps.sort_unstable();
    fps.dedup();
    fps
}

/// Move the counters by one footprint — the distinct addresses `ips`
/// and the distinct certificates `certs` presented there — up or down,
/// first recording each touched counter's value in `before`.
fn tally(
    c: &mut Confidence,
    ips: &[Ipv4Addr],
    certs: &[Fingerprint],
    up: bool,
    mut before: Option<&mut Before>,
) {
    for ip in ips {
        bump(&mut c.num_ip, *ip, up, before.as_mut().map(|b| &mut b.ips));
    }
    for fp in certs {
        bump(
            &mut c.num_cert,
            *fp,
            up,
            before.as_mut().map(|b| &mut b.certs),
        );
    }
}

/// Move one counter by one, dropping it at zero as a fresh count would
/// never hold it.
fn bump<K: Copy + Ord + Hash>(
    counts: &mut HashMap<K, usize>,
    key: K,
    up: bool,
    before: Option<&mut BTreeMap<K, usize>>,
) {
    let entry = counts.entry(key);
    if let Some(b) = before {
        b.entry(key).or_insert(match &entry {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(_) => 0,
        });
    }
    match (entry, up) {
        (Entry::Occupied(mut e), true) => *e.get_mut() += 1,
        (Entry::Vacant(e), true) => {
            e.insert(1);
        }
        (Entry::Occupied(e), false) if *e.get() <= 1 => {
            e.remove();
        }
        (Entry::Occupied(mut e), false) => *e.get_mut() -= 1,
        (Entry::Vacant(_), false) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{DomainObservation, IpObservation, MxObservation, MxTarget, ScanStatus};
    use mx_cert::{Certificate, CertificateBuilder, KeyId};
    use mx_dns::dns_name;
    use mx_smtp::{SmtpScanData, StartTlsOutcome};
    use std::net::Ipv4Addr;

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn cert(serial: u64, cn: &str) -> Certificate {
        CertificateBuilder::new(serial, KeyId(serial))
            .common_name(cn)
            .self_signed()
    }

    /// The paper's Table 1/2 micro-world:
    /// - netflix.com -> aspmx.l.google.com -> Google IP w/ mx.google.com
    /// - gsipartners.com -> mailhost.gsipartners.com -> same Google infra
    /// - beats24-7.com -> mx10.mailspamprotection.com -> security provider
    ///   hosted in Google Cloud IP space
    /// - jeniustoto.net -> ghs.google.com -> Google web IP, NO SMTP.
    fn table12_world() -> ObservationSet {
        let mut obs = ObservationSet::new();
        let gcert = cert(1, "mx.google.com");
        for a in ["172.217.222.26", "173.194.201.27"] {
            obs.ips.insert(
                ip(a),
                IpObservation {
                    ip: ip(a),
                    asn: Some(15169),
                    scan: ScanStatus::Smtp(SmtpScanData {
                        banner: "mx.google.com ESMTP gsmtp".into(),
                        ehlo: Some("mx.google.com at your service".into()),
                        ehlo_keywords: vec!["STARTTLS".into()],
                        starttls: StartTlsOutcome::Completed {
                            chain: vec![gcert.clone()],
                        },
                    }),
                    leaf_cert: Some(gcert.clone()),
                    cert_valid: true,
                },
            );
        }
        let scert = cert(2, "*.mailspamprotection.com");
        obs.ips.insert(
            ip("35.192.135.139"),
            IpObservation {
                ip: ip("35.192.135.139"),
                asn: Some(15169), // Google Cloud
                scan: ScanStatus::Smtp(SmtpScanData {
                    banner: "se26.mailspamprotection.com ESMTP".into(),
                    ehlo: Some("se26.mailspamprotection.com hello".into()),
                    ehlo_keywords: vec![],
                    starttls: StartTlsOutcome::Completed {
                        chain: vec![scert.clone()],
                    },
                }),
                leaf_cert: Some(scert),
                cert_valid: true,
            },
        );
        obs.ips.insert(
            ip("172.217.168.243"),
            IpObservation::uncovered(ip("172.217.168.243"), Some(15169)),
        );
        let mk = |domain: &str, mx: &str, addr: &str| DomainObservation {
            domain: dns_name!(domain),
            mx: MxObservation::Targets(vec![MxTarget {
                preference: 10,
                exchange: dns_name!(mx),
                addrs: vec![ip(addr)],
            }]),
        };
        obs.domains = vec![
            mk("netflix.com", "aspmx.l.google.com", "172.217.222.26"),
            mk("gsipartners.com", "mailhost.gsipartners.com", "173.194.201.27"),
            mk("beats24-7.com", "mx10.mailspamprotection.com", "35.192.135.139"),
            mk("jeniustoto.net", "ghs.google.com", "172.217.168.243"),
        ];
        obs
    }

    fn provider_of(result: &InferenceResult, domain: &str) -> String {
        result.domains[&dns_name!(domain)]
            .sole_provider()
            .unwrap()
            .as_str()
            .to_string()
    }

    #[test]
    fn priority_based_resolves_paper_examples() {
        let result = Pipeline::new(Strategy::PriorityBased).run(&table12_world());
        assert_eq!(provider_of(&result, "netflix.com"), "google.com");
        // The custom-MX-on-Google-infrastructure case: cert wins.
        assert_eq!(provider_of(&result, "gsipartners.com"), "google.com");
        // Security provider in Google Cloud IP space: cert wins over ASN.
        assert_eq!(
            provider_of(&result, "beats24-7.com"),
            "mailspamprotection.com"
        );
        // Google web IP without SMTP: falls back to MX record, and the
        // domain is marked as having no live SMTP.
        assert_eq!(provider_of(&result, "jeniustoto.net"), "google.com");
        assert!(!result.domains[&dns_name!("jeniustoto.net")].has_smtp);
        assert!(result.domains[&dns_name!("netflix.com")].has_smtp);
    }

    #[test]
    fn mx_only_misses_custom_mx() {
        let result = Pipeline::new(Strategy::MxOnly).run(&table12_world());
        assert_eq!(provider_of(&result, "netflix.com"), "google.com");
        // MX-only wrongly calls gsipartners.com self-hosted.
        assert_eq!(provider_of(&result, "gsipartners.com"), "gsipartners.com");
        assert_eq!(
            provider_of(&result, "beats24-7.com"),
            "mailspamprotection.com"
        );
    }

    #[test]
    fn banner_based_matches_priority_here() {
        let result = Pipeline::new(Strategy::BannerBased).run(&table12_world());
        assert_eq!(provider_of(&result, "gsipartners.com"), "google.com");
        // No certificate processing happened.
        assert_eq!(result.cert_groups.cert_count(), 0);
    }

    #[test]
    fn cert_based_uses_certs_not_banners() {
        let mut obs = table12_world();
        // Strip the cert from gsipartners' IP: cert-based then falls back
        // to the MX record even though the banner says Google.
        let o = obs.ips.get_mut(&ip("173.194.201.27")).unwrap();
        o.cert_valid = false;
        o.leaf_cert = None;
        let result = Pipeline::new(Strategy::CertBased).run(&obs);
        assert_eq!(provider_of(&result, "gsipartners.com"), "gsipartners.com");
        let prio = Pipeline::new(Strategy::PriorityBased).run(&obs);
        assert_eq!(provider_of(&prio, "gsipartners.com"), "google.com");
    }

    #[test]
    fn mx_ids_shared_across_domains() {
        let mut obs = table12_world();
        obs.domains.push(DomainObservation {
            domain: dns_name!("another.com"),
            mx: MxObservation::Targets(vec![MxTarget {
                preference: 1,
                exchange: dns_name!("aspmx.l.google.com"),
                addrs: vec![ip("172.217.222.26")],
            }]),
        });
        let result = Pipeline::new(Strategy::PriorityBased).run(&obs);
        assert_eq!(result.mx_assignments.len(), 4, "one per distinct exchange");
        assert_eq!(provider_of(&result, "another.com"), "google.com");
    }

    #[test]
    fn provider_weights_sum() {
        let result = Pipeline::new(Strategy::PriorityBased).run(&table12_world());
        let w = result.provider_weights();
        let total: f64 = w.values().sum();
        assert!((total - 4.0).abs() < 1e-9, "4 domains fully attributed");
        assert!((w[&ProviderId::new("google.com")] - 3.0).abs() < 1e-9);
    }
}
