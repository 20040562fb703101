//! Step 1 — certificate preprocessing: occurrence counting, grouping by
//! shared FQDN, representative-name selection (paper §3.2.1).

use std::collections::{BTreeMap, HashMap, HashSet};

use mx_cert::{Certificate, Fingerprint};
use mx_psl::PublicSuffixList;

use crate::input::ObservationSet;

/// Identifier of a certificate group (index into [`CertGroups`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GroupId(pub usize);

/// The output of certificate preprocessing.
#[derive(Debug, Clone, Default)]
pub struct CertGroups {
    /// Certificate fingerprint -> group.
    membership: HashMap<Fingerprint, GroupId>,
    /// Group -> representative name (a registered domain).
    representatives: Vec<String>,
    /// Global occurrence count of each registered domain across all valid
    /// certificates (step 1.1).
    pub registered_domain_counts: HashMap<String, usize>,
}

impl CertGroups {
    /// The group a certificate belongs to, if it was seen during
    /// preprocessing.
    pub fn group_of(&self, cert: &Certificate) -> Option<GroupId> {
        self.membership.get(&cert.fingerprint()).copied()
    }

    /// The representative (registered-domain) name of a group.
    pub fn representative(&self, group: GroupId) -> &str {
        &self.representatives[group.0]
    }

    /// The representative name for a certificate directly.
    pub fn representative_of(&self, cert: &Certificate) -> Option<&str> {
        self.group_of(cert).map(|g| self.representative(g))
    }

    /// Number of groups formed.
    pub fn group_count(&self) -> usize {
        self.representatives.len()
    }

    /// Number of distinct certificates processed.
    pub fn cert_count(&self) -> usize {
        self.membership.len()
    }
}

/// Union-find over certificate indices.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Dsu {
        Dsu {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        // Path-halving with checked indexing: an out-of-range index
        // (impossible by construction) resolves to itself rather than
        // panicking.
        while let Some(&p) = self.parent.get(x) {
            if p == x {
                break;
            }
            let gp = self.parent.get(p).copied().unwrap_or(p);
            if let Some(slot) = self.parent.get_mut(x) {
                *slot = gp;
            }
            x = gp;
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            if let Some(slot) = self.parent.get_mut(ra) {
                *slot = rb;
            }
        }
    }
}

/// Step 1.3 over one group: the registered domain with the highest global
/// count, ties broken toward the lexicographically least.
fn best_registered_domain<'a>(
    rds: impl Iterator<Item = &'a String>,
    count: impl Fn(&str) -> usize,
) -> Option<&'a str> {
    let mut best: Option<(&str, usize)> = None;
    for rd in rds {
        let c = count(rd);
        best = Some(match best {
            Some((b, bc)) if bc > c || (bc == c && b <= rd.as_str()) => (b, bc),
            _ => (rd, c),
        });
    }
    best.map(|(rd, _)| rd)
}

/// The name of a group none of whose certificates yields a registered
/// domain: the least subject CN among its members, else a token of the
/// least fingerprint. Both ignore the order members were found in, so a
/// maintained [`Grouping`] names such a group exactly as [`preprocess`]
/// does. Such certificates never drive provider inference in practice.
fn fallback_name<'a>(members: impl Iterator<Item = (Fingerprint, Option<&'a str>)>) -> String {
    let (fps, cns): (Vec<Fingerprint>, Vec<Option<&str>>) = members.unzip();
    match cns.into_iter().flatten().min() {
        Some(cn) => cn.to_string(),
        None => format!("cert-group-{:016x}", fps.iter().min().map_or(0, |fp| fp.0)),
    }
}

/// Run certificate preprocessing over every *valid* certificate in the
/// observation set.
///
/// 1.1 For each (certificate, FQDN) pair over Subject CN and SANs, count
///     the FQDN's registered domain.
/// 1.2 Group certificates sharing at least one FQDN (transitively).
/// 1.3 Each group's representative is its most frequent registered domain
///     by the global counts (ties broken lexicographically so runs are
///     deterministic).
///
/// [`Grouping`] maintains the same output under certificates gained and
/// lost; the two agree on every representative.
pub fn preprocess(obs: &ObservationSet, psl: &PublicSuffixList) -> CertGroups {
    // Distinct valid certificates, in deterministic order.
    let mut certs: Vec<&Certificate> = Vec::new();
    let mut seen: HashMap<Fingerprint, usize> = HashMap::new();
    let mut ips_sorted: Vec<_> = obs.ips.values().collect();
    ips_sorted.sort_by_key(|o| o.ip);
    for ipobs in ips_sorted {
        if let Some(cert) = ipobs.valid_cert() {
            seen.entry(cert.fingerprint()).or_insert_with(|| {
                certs.push(cert);
                certs.len() - 1
            });
        }
    }

    // Extract each certificate's FQDNs and their registered domains in
    // parallel (the PSL lookups dominate); `rds_of[i]` stays aligned with
    // `names_of[i]`, so the serial passes below are order-independent of
    // the thread count.
    let extracted: Vec<(Vec<String>, Vec<Option<String>>)> = mx_par::par_map(&certs, |c| {
        let names = c.dns_names();
        let rds = names
            .iter()
            .map(|fqdn| {
                // Strip a wildcard label before extracting the registered
                // part.
                let base = fqdn.strip_prefix("*.").unwrap_or(fqdn);
                psl.registered_domain(base)
            })
            .collect();
        (names, rds)
    });
    let (names_of, rds_of): (Vec<Vec<String>>, Vec<Vec<Option<String>>>) =
        extracted.into_iter().unzip();

    // 1.1 Count registered domains across all (cert, fqdn) pairs,
    // merged serially in certificate order (additive, so deterministic).
    let mut counts: HashMap<String, usize> = HashMap::new();
    for rds in &rds_of {
        for rd in rds.iter().flatten() {
            *counts.entry(rd.clone()).or_insert(0) += 1;
        }
    }

    // 1.2 Union certificates sharing any FQDN.
    let mut dsu = Dsu::new(certs.len());
    let mut by_fqdn: HashMap<&str, usize> = HashMap::new();
    for (i, names) in names_of.iter().enumerate() {
        for fqdn in names {
            match by_fqdn.get(fqdn.as_str()) {
                Some(&j) => dsu.union(i, j),
                None => {
                    by_fqdn.insert(fqdn, i);
                }
            }
        }
    }

    // 1.3 Representative per group root.
    let mut group_ids: HashMap<usize, GroupId> = HashMap::new();
    let mut group_members: Vec<Vec<usize>> = Vec::new();
    for i in 0..certs.len() {
        let root = dsu.find(i);
        let gid = *group_ids.entry(root).or_insert_with(|| {
            group_members.push(Vec::new());
            GroupId(group_members.len() - 1)
        });
        group_members[gid.0].push(i);
    }
    let representatives = group_members
        .iter()
        .map(|members| {
            let rds = members.iter().flat_map(|&i| rds_of[i].iter().flatten());
            match best_registered_domain(rds, |rd| counts.get(rd).copied().unwrap_or(0)) {
                Some(rd) => rd.to_string(),
                None => fallback_name(
                    members
                        .iter()
                        .map(|&i| (certs[i].fingerprint(), certs[i].subject_cn.as_deref())),
                ),
            }
        })
        .collect();

    // Walk the dedup map in sorted fingerprint order so the pass stays
    // visibly order-independent.
    let mut seen_sorted: Vec<(Fingerprint, usize)> = seen.into_iter().collect();
    seen_sorted.sort_unstable_by_key(|&(fp, _)| fp);
    let membership = seen_sorted
        .into_iter()
        .map(|(fp, idx)| (fp, group_ids[&dsu.find(idx)]))
        .collect();

    CertGroups {
        membership,
        representatives,
        registered_domain_counts: counts,
    }
}

/// One certificate valid at some address of the view, with its step-1.1
/// names.
#[derive(Debug)]
struct Member {
    /// Addresses presenting the certificate as a valid leaf.
    refs: usize,
    /// Its DNS names (CN and SANs, as [`Certificate::dns_names`]).
    names: Vec<String>,
    /// The registered domain of each name, aligned with `names`.
    rds: Vec<Option<String>>,
    /// Its subject CN, for [`fallback_name`].
    cn: Option<String>,
    /// The group it belongs to; [`NO_GROUP`] until it is first grouped.
    group: u64,
}

/// A group id no group carries.
const NO_GROUP: u64 = u64::MAX;

/// One group of certificates sharing FQDNs, transitively.
#[derive(Debug)]
struct Group {
    members: Vec<Fingerprint>,
    representative: String,
}

/// Step 1 maintained under change: the output of [`preprocess`] kept
/// current as addresses start and stop presenting valid certificates,
/// at a cost that follows the certificates gained and lost, not the
/// population.
///
/// It holds refcounted certificate presence, the FQDN → certificates
/// edges of step 1.2, and per registered domain its step-1.1 count and
/// the certificates naming it. [`Grouping::settle`] regroups only the
/// components that gained or lost a certificate and re-picks the
/// representative only of those and of the groups holding a registered
/// domain whose count moved; no other representative can change.
#[derive(Debug, Default)]
pub(crate) struct Grouping {
    held: HashMap<Fingerprint, Member>,
    by_fqdn: HashMap<String, Vec<Fingerprint>>,
    by_rd: HashMap<String, RdEntry>,
    groups: HashMap<u64, Group>,
    next_group: u64,
    /// Certificates presented or withdrawn since the last settle, with
    /// their presenter count before the first such change.
    pending: HashMap<Fingerprint, usize>,
}

/// A registered domain's step-1.1 count and the (distinct) certificates
/// naming it.
#[derive(Debug, Default)]
struct RdEntry {
    count: usize,
    certs: Vec<Fingerprint>,
}

/// Remove one occurrence of `x` from `list`.
pub(crate) fn unlist<T: PartialEq>(list: &mut Vec<T>, x: &T) {
    if let Some(pos) = list.iter().position(|y| y == x) {
        list.swap_remove(pos);
    }
}

impl Grouping {
    /// One more address presents `cert` (fingerprint `fp`) as a valid
    /// leaf.
    pub fn present(&mut self, fp: Fingerprint, cert: &Certificate) {
        let m = self.held.entry(fp).or_insert_with(|| Member {
            refs: 0,
            names: cert.dns_names(),
            rds: Vec::new(),
            cn: cert.subject_cn.clone(),
            group: NO_GROUP,
        });
        self.pending.entry(fp).or_insert(m.refs);
        m.refs += 1;
    }

    /// One address stopped presenting the certificate `fp` as a valid
    /// leaf.
    pub fn withdraw(&mut self, fp: Fingerprint) {
        if let Some(m) = self.held.get_mut(&fp) {
            self.pending.entry(fp).or_insert(m.refs);
            m.refs = m.refs.saturating_sub(1);
        }
    }

    /// The representative name of the group holding `fp`.
    pub fn representative(&self, fp: Fingerprint) -> Option<&str> {
        let m = self.held.get(&fp)?;
        self.groups.get(&m.group).map(|g| g.representative.as_str())
    }

    /// Fold the presentations and withdrawals since the last call into
    /// the grouping. Returns, sorted, the certificates still valid
    /// somewhere whose representative changed (every newly valid one
    /// among them).
    pub fn settle(&mut self, psl: &PublicSuffixList) -> Vec<Fingerprint> {
        let mut changes: Vec<(Fingerprint, usize)> = self.pending.drain().collect();
        changes.sort_unstable_by_key(|&(fp, _)| fp);
        let (mut gained, mut lost) = (Vec::new(), Vec::new());
        for (fp, before) in changes {
            let now = self.held.get(&fp).map_or(0, |m| m.refs);
            match (before > 0, now > 0) {
                (false, true) => gained.push(fp),
                (true, false) => lost.push(fp),
                (false, false) => {
                    self.held.remove(&fp);
                }
                (true, true) => {}
            }
        }
        if gained.is_empty() && lost.is_empty() {
            return Vec::new();
        }

        // Registered domains of the gained certificates, in parallel (the
        // PSL lookups dominate, as in `preprocess`).
        let rds: Vec<Vec<Option<String>>> = mx_par::par_map(&gained, |fp| {
            self.held[fp]
                .names
                .iter()
                .map(|n| psl.registered_domain(n.strip_prefix("*.").unwrap_or(n)))
                .collect()
        });

        // Old representatives of the groups about to dissolve or be
        // re-picked, keyed by group id.
        let mut old: HashMap<u64, String> = HashMap::new();
        let mut seeds: Vec<Fingerprint> = gained.clone();
        // Counts before this call of the registered domains it moves,
        // kept only when there are groups it may leave standing.
        let mut moved_rds: Option<BTreeMap<String, usize>> =
            (!self.groups.is_empty()).then(BTreeMap::new);
        let mut note = |rd: &str, count: usize| {
            if let Some(moved) = moved_rds.as_mut().filter(|m| !m.contains_key(rd)) {
                moved.insert(rd.to_string(), count);
            }
        };

        for fp in &lost {
            let Some(m) = self.held.remove(fp) else {
                continue;
            };
            if let Some(g) = self.groups.remove(&m.group) {
                old.insert(m.group, g.representative);
                seeds.extend(g.members.into_iter().filter(|x| x != fp));
            }
            for n in &m.names {
                if let Some(list) = self.by_fqdn.get_mut(n) {
                    unlist(list, fp);
                    if list.is_empty() {
                        self.by_fqdn.remove(n);
                    }
                }
            }
            for (j, rd) in m.rds.iter().enumerate() {
                let Some(rd) = rd else { continue };
                let Some(e) = self.by_rd.get_mut(rd) else {
                    continue;
                };
                note(rd, e.count);
                e.count -= 1;
                if !m.rds[..j].iter().any(|x| x.as_ref() == Some(rd)) {
                    unlist(&mut e.certs, fp);
                }
                if e.count == 0 {
                    self.by_rd.remove(rd);
                }
            }
        }
        for (fp, rds) in gained.iter().zip(rds) {
            let m = self.held.get_mut(fp).expect("gained certificate is held");
            for n in &m.names {
                match self.by_fqdn.get_mut(n) {
                    Some(list) => list.push(*fp),
                    None => {
                        self.by_fqdn.insert(n.clone(), vec![*fp]);
                    }
                }
            }
            for (j, rd) in rds.iter().enumerate() {
                let Some(rd) = rd else { continue };
                if !self.by_rd.contains_key(rd) {
                    self.by_rd.insert(rd.clone(), RdEntry::default());
                }
                let e = self.by_rd.get_mut(rd).expect("entry inserted above");
                note(rd, e.count);
                e.count += 1;
                if !rds[..j].iter().any(|x| x.as_ref() == Some(rd)) {
                    e.certs.push(*fp);
                }
            }
            m.rds = rds;
        }

        // Regroup every component holding a seed: a walk over the FQDN
        // edges reaches the whole new component, so every old group it
        // touches dissolves in full.
        let first_new = self.next_group;
        let mut changed: Vec<Fingerprint> = Vec::new();
        let mut visited: HashSet<Fingerprint> = HashSet::new();
        for seed in seeds {
            if !self.held.contains_key(&seed) || !visited.insert(seed) {
                continue;
            }
            let mut members = vec![seed];
            let mut next = 0;
            while let Some(&fp) = members.get(next) {
                next += 1;
                let m = &self.held[&fp];
                if let Some(g) = self.groups.remove(&m.group) {
                    old.insert(m.group, g.representative);
                }
                for n in &m.names {
                    let sharing = self.by_fqdn.get(n).map_or(&[][..], Vec::as_slice);
                    for &other in sharing {
                        if visited.insert(other) {
                            members.push(other);
                        }
                    }
                }
            }
            let gid = self.next_group;
            self.next_group += 1;
            let representative = self.pick(&members);
            for fp in &members {
                let m = self.held.get_mut(fp).expect("walked certificate is held");
                if old.get(&m.group) != Some(&representative) {
                    changed.push(*fp);
                }
                m.group = gid;
            }
            self.groups.insert(
                gid,
                Group {
                    members,
                    representative,
                },
            );
        }

        // Re-pick the untouched groups holding a registered domain whose
        // count moved.
        let mut repick: Vec<u64> = moved_rds
            .iter()
            .flatten()
            .filter(|(rd, before)| self.by_rd.get(*rd).map_or(0, |e| e.count) != **before)
            .filter_map(|(rd, _)| self.by_rd.get(rd))
            .flat_map(|e| e.certs.iter().map(|fp| self.held[fp].group))
            .filter(|&gid| gid < first_new)
            .collect();
        repick.sort_unstable();
        repick.dedup();
        for gid in repick {
            let Some(g) = self.groups.get(&gid) else {
                continue;
            };
            let representative = self.pick(&g.members);
            if representative != g.representative {
                changed.extend(g.members.iter().copied());
                if let Some(g) = self.groups.get_mut(&gid) {
                    g.representative = representative;
                }
            }
        }
        changed.sort_unstable();
        changed.dedup();
        changed
    }

    /// Step 1.3 over one group's members.
    fn pick(&self, members: &[Fingerprint]) -> String {
        let rds = members
            .iter()
            .flat_map(|fp| self.held[fp].rds.iter().flatten());
        match best_registered_domain(rds, |rd| self.by_rd.get(rd).map_or(0, |e| e.count)) {
            Some(rd) => rd.to_string(),
            None => fallback_name(members.iter().map(|fp| (*fp, self.held[fp].cn.as_deref()))),
        }
    }

    /// The grouping as [`preprocess`] reports it. Group ids follow each
    /// group's least fingerprint, so they may differ from `preprocess`'s;
    /// memberships, representatives and counts agree.
    pub fn snapshot(&self) -> CertGroups {
        let mut ordered: Vec<(Fingerprint, &Group)> = self
            .groups
            .values()
            .filter_map(|g| g.members.iter().min().map(|fp| (*fp, g)))
            .collect();
        ordered.sort_unstable_by_key(|&(fp, _)| fp);
        let mut membership = HashMap::with_capacity(self.held.len());
        let mut representatives = Vec::with_capacity(ordered.len());
        for (i, (_, g)) in ordered.into_iter().enumerate() {
            membership.extend(g.members.iter().map(|fp| (*fp, GroupId(i))));
            representatives.push(g.representative.clone());
        }
        CertGroups {
            membership,
            representatives,
            registered_domain_counts: self
                .by_rd
                .iter()
                .map(|(rd, e)| (rd.clone(), e.count))
                .collect::<BTreeMap<_, _>>()
                .into_iter()
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{IpObservation, ScanStatus};
    use mx_cert::{CertificateBuilder, KeyId};
    use mx_smtp::{SmtpScanData, StartTlsOutcome};
    use std::net::Ipv4Addr;

    fn obs_with(certs: Vec<(&str, Certificate)>) -> ObservationSet {
        let mut obs = ObservationSet::new();
        for (ip, cert) in certs {
            let ip: Ipv4Addr = ip.parse().unwrap();
            obs.ips.insert(
                ip,
                IpObservation {
                    ip,
                    asn: None,
                    scan: ScanStatus::Smtp(SmtpScanData {
                        banner: "x ESMTP".into(),
                        ehlo: None,
                        ehlo_keywords: vec![],
                        starttls: StartTlsOutcome::Completed {
                            chain: vec![cert.clone()],
                        },
                    }),
                    leaf_cert: Some(cert),
                    cert_valid: true,
                },
            );
        }
        obs
    }

    fn cert(serial: u64, cn: &str, sans: &[&str]) -> Certificate {
        let mut b = CertificateBuilder::new(serial, KeyId(serial)).common_name(cn);
        for s in sans {
            b = b.san(*s);
        }
        b.self_signed()
    }

    #[test]
    fn paper_table3_example() {
        // Two provider certs sharing FQDNs, one VPS cert alone.
        let c1 = cert(1, "mx1.provider.com", &["mx1.provider.com", "mx2.provider.com"]);
        let c2 = cert(2, "mx2.provider.com", &["mx2.provider.com", "mx1.provider.com"]);
        let c3 = cert(3, "myvps.provider.com", &[]);
        let obs = obs_with(vec![
            ("1.2.3.4", c1.clone()),
            ("2.3.4.5", c2.clone()),
            ("3.4.5.6", c3.clone()),
        ]);
        let groups = preprocess(&obs, &PublicSuffixList::builtin());
        assert_eq!(groups.cert_count(), 3);
        assert_eq!(groups.group_count(), 2);
        // Counts: c1 contributes 2, c2 contributes 2, c3 contributes 1.
        assert_eq!(groups.registered_domain_counts["provider.com"], 5);
        // Shared-FQDN certs merged; representative is provider.com.
        assert_eq!(groups.group_of(&c1), groups.group_of(&c2));
        assert_ne!(groups.group_of(&c1), groups.group_of(&c3));
        assert_eq!(groups.representative_of(&c1), Some("provider.com"));
        assert_eq!(groups.representative_of(&c3), Some("provider.com"));
    }

    #[test]
    fn transitive_grouping() {
        let a = cert(1, "a.x.com", &["b.x.com"]);
        let b = cert(2, "b.x.com", &["c.x.com"]);
        let c = cert(3, "c.x.com", &[]);
        let obs = obs_with(vec![("1.1.1.1", a.clone()), ("2.2.2.2", b), ("3.3.3.3", c.clone())]);
        let groups = preprocess(&obs, &PublicSuffixList::builtin());
        assert_eq!(groups.group_count(), 1);
        assert_eq!(groups.group_of(&a), groups.group_of(&c));
    }

    #[test]
    fn representative_is_most_common_registered_domain() {
        // A cert naming both google.com (common, via other certs) and
        // obscure.net: the group representative must be google.com.
        let g1 = cert(1, "mx1.google.com", &["mx2.google.com"]);
        let g2 = cert(2, "mx3.google.com", &["mx4.google.com"]);
        let mixed = cert(3, "mx1.google.com", &["mail.obscure.net"]);
        let obs = obs_with(vec![
            ("1.1.1.1", g1),
            ("2.2.2.2", g2),
            ("3.3.3.3", mixed.clone()),
        ]);
        let groups = preprocess(&obs, &PublicSuffixList::builtin());
        assert_eq!(groups.representative_of(&mixed), Some("google.com"));
    }

    #[test]
    fn wildcard_cn_counts_base_domain() {
        let w = cert(1, "*.mailspamprotection.com", &[]);
        let obs = obs_with(vec![("1.1.1.1", w.clone())]);
        let groups = preprocess(&obs, &PublicSuffixList::builtin());
        assert_eq!(
            groups.representative_of(&w),
            Some("mailspamprotection.com")
        );
    }

    #[test]
    fn invalid_certs_excluded() {
        let c = cert(1, "mx.provider.com", &[]);
        let mut obs = obs_with(vec![("1.1.1.1", c.clone())]);
        obs.ips.get_mut(&"1.1.1.1".parse().unwrap()).unwrap().cert_valid = false;
        let groups = preprocess(&obs, &PublicSuffixList::builtin());
        assert_eq!(groups.cert_count(), 0);
        assert_eq!(groups.representative_of(&c), None);
    }

    #[test]
    fn same_cert_on_many_ips_counted_once() {
        let c = cert(1, "mx.provider.com", &["mx2.provider.com"]);
        let obs = obs_with(vec![
            ("1.1.1.1", c.clone()),
            ("2.2.2.2", c.clone()),
            ("3.3.3.3", c.clone()),
        ]);
        let groups = preprocess(&obs, &PublicSuffixList::builtin());
        assert_eq!(groups.cert_count(), 1);
        assert_eq!(groups.registered_domain_counts["provider.com"], 2);
    }

    #[test]
    fn fallback_name_ignores_member_order() {
        // Neither certificate has a CN or a name with a registered
        // domain; they share "localhost", so they form one group.
        let psl = PublicSuffixList::builtin();
        let a = CertificateBuilder::new(1, KeyId(1))
            .san("localhost")
            .san("relay")
            .self_signed();
        let b = CertificateBuilder::new(2, KeyId(2))
            .san("localhost")
            .self_signed();
        assert_eq!((a.subject_cn.as_ref(), b.subject_cn.as_ref()), (None, None));
        let name_at = |first: &Certificate, second: &Certificate| {
            let obs = obs_with(vec![
                ("1.1.1.1", first.clone()),
                ("2.2.2.2", second.clone()),
            ]);
            let groups = preprocess(&obs, &psl);
            assert_eq!(groups.group_count(), 1);
            let mut maintained = Grouping::default();
            maintained.present(first.fingerprint(), first);
            maintained.present(second.fingerprint(), second);
            maintained.settle(&psl);
            let name = groups.representative_of(first).map(str::to_string);
            assert_eq!(
                maintained.representative(first.fingerprint()),
                name.as_deref()
            );
            name
        };
        let least = a.fingerprint().min(b.fingerprint());
        let want = Some(format!("cert-group-{:016x}", least.0));
        assert_eq!(name_at(&a, &b), want);
        assert_eq!(name_at(&b, &a), want);
        // With CNs (still no registered domain), the least CN names it.
        let c = cert(3, "relay", &["localhost"]);
        let d = cert(4, "mailhost", &["localhost"]);
        assert_eq!(name_at(&c, &d), Some("mailhost".to_string()));
        assert_eq!(name_at(&d, &c), Some("mailhost".to_string()));
    }

    #[test]
    fn deterministic_across_runs() {
        let c1 = cert(1, "a.tie.com", &[]);
        let c2 = cert(2, "b.other.com", &["a.tie.com"]);
        let obs = obs_with(vec![("1.1.1.1", c1), ("2.2.2.2", c2)]);
        let g1 = preprocess(&obs, &PublicSuffixList::builtin());
        let g2 = preprocess(&obs, &PublicSuffixList::builtin());
        assert_eq!(g1.representatives, g2.representatives);
    }
}
