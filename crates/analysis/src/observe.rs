//! Data gathering (§4.3): the OpenINTEL + Censys + CAIDA join.

use std::collections::HashMap;
use std::net::Ipv4Addr;

use mx_corpus::{Dataset, World};
use mx_infer::{DnsAcquisition, DomainObservation, IpAcquisition, IpObservation, ObservationSet};
use mx_net::{openintel, Scanner};

/// The fully-joined measurement data of one snapshot.
pub struct SnapshotData {
    /// The measurement date.
    pub date: mx_dns::Timestamp,
    /// The snapshot index (0 = June 2017).
    pub snapshot: usize,
    /// One observation set per dataset active at this snapshot.
    pub per_dataset: Vec<(Dataset, ObservationSet)>,
}

impl SnapshotData {
    /// The observation set of one dataset, if present.
    pub fn dataset(&self, ds: Dataset) -> Option<&ObservationSet> {
        self.per_dataset
            .iter()
            .find(|(d, _)| *d == ds)
            .map(|(_, o)| o)
    }
}

/// Run the measurement over a world: per-dataset DNS measurement, a single
/// shared port-25 scan sweep over every discovered MX IP, certificate
/// validation against the world's trust store, and prefix2as annotation.
///
/// Every stage fans out over the shared `mx_par` pool — datasets for the
/// DNS measurement, IPs for the scan (inside [`Scanner::scan`]) and for
/// the cert-validation/prefix2as join. The network is immutable and each
/// task's output is keyed by dataset or address, so the snapshot is
/// bit-identical to a serial run.
pub fn observe_world(world: &World) -> SnapshotData {
    let _obs_run = mx_obs::stage!(mx_obs::names::STAGE_OBSERVE).enter();

    // 1. DNS measurement per dataset (OpenINTEL), rows moved out of
    // each snapshot.
    let _s_resolve = mx_obs::stage!(
        mx_obs::names::STAGE_OBSERVE_RESOLVE,
        mx_obs::names::STAGE_OBSERVE
    )
    .enter();
    let measured = mx_par::par_map(&world.targets, |(ds, names)| {
        let snap = openintel::measure(&world.net, names);
        let ips = snap.all_mx_ips();
        let rows: Vec<DomainObservation> = snap
            .rows
            .into_iter()
            .map(|(domain, mx)| DomainObservation { domain, mx })
            .collect();
        (*ds, ips, rows, snap.degraded)
    });
    let mut all_ips: Vec<Ipv4Addr> = measured
        .iter()
        .flat_map(|(_, ips, _, _)| ips.iter().copied())
        .collect();
    all_ips.sort();
    all_ips.dedup();
    drop(_s_resolve);

    // 2. Port-25 scan of every MX IP (Censys).
    let _s_scan = mx_obs::stage!(
        mx_obs::names::STAGE_OBSERVE_SCAN,
        mx_obs::names::STAGE_OBSERVE
    )
    .enter();
    let scan = Scanner::new().scan(&world.net, &all_ips, world.snapshot as u64);
    drop(_s_scan);

    // 3. Join: per-IP observation with ASN + cert validation, and the
    // acquisition accounting behind it.
    let _s_join = mx_obs::stage!(
        mx_obs::names::STAGE_OBSERVE_JOIN,
        mx_obs::names::STAGE_OBSERVE
    )
    .enter();
    let now = world.net.clock().now();
    let table: HashMap<Ipv4Addr, (IpObservation, IpAcquisition)> =
        mx_par::par_map(&all_ips, |&ip| {
            let asn = world.net.asn_of(ip);
            let obs = IpObservation::from_scan(ip, asn, scan.get(ip), &world.trust, now);
            (ip, (obs, scan.acquisition(ip)))
        })
        .into_iter()
        .collect();
    drop(_s_join);

    // 4. Assemble per-dataset observation sets, each restricted to the
    // addresses it references (the per-dataset tables of the paper).
    let _s_assemble = mx_obs::stage!(
        mx_obs::names::STAGE_OBSERVE_ASSEMBLE,
        mx_obs::names::STAGE_OBSERVE
    )
    .enter();
    let per_dataset = measured
        .into_iter()
        .map(|(ds, _, rows, degraded)| {
            let mut set = ObservationSet::from_rows(rows, &table);
            for (name, deg) in degraded {
                set.acquisition.domains.insert(
                    name,
                    DnsAcquisition {
                        retries: deg.retries,
                        exhausted: deg.exhausted,
                    },
                );
            }
            (ds, set)
        })
        .collect();

    SnapshotData {
        date: now,
        snapshot: world.snapshot,
        per_dataset,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mx_corpus::{ScenarioConfig, Study};
    use mx_infer::ScanStatus;

    #[test]
    fn observe_small_world() {
        let study = Study::generate(ScenarioConfig::small(3));
        let world = study.world_at(8);
        let data = observe_world(&world);
        assert_eq!(data.per_dataset.len(), 3);
        let alexa = data.dataset(Dataset::Alexa).unwrap();
        assert_eq!(alexa.domains.len(), 800);
        // Most domains resolve to at least one scanned IP.
        let with_ips = alexa
            .domains
            .iter()
            .filter(|d| d.mx.targets().iter().any(|t| !t.addrs.is_empty()))
            .count();
        assert!(with_ips > 700, "{with_ips} domains with MX IPs");
        // Some certificates validated.
        let valid_certs = alexa.ips.values().filter(|o| o.cert_valid).count();
        assert!(valid_certs > 10, "{valid_certs} valid certs");
        // Some IPs deliberately uncovered (Censys gaps).
        let uncovered = alexa
            .ips
            .values()
            .filter(|o| o.scan == ScanStatus::NotCovered)
            .count();
        assert!(uncovered > 0, "fault plan produced no gaps");
        // Acquisition accounting rides along: every referenced IP has an
        // entry, retries healed some losses, opt-outs and exhausted
        // budgets are distinguished.
        let acq = &alexa.acquisition;
        assert!(acq.ips.len() >= alexa.ips.len(), "acquisition covers the IP view");
        assert!(acq.recovered_ips() > 0, "no recovered IPs recorded");
        assert!(acq.blocked_ips() > 0, "no opt-outs recorded");
        assert!(acq.exhausted_ips() > 0, "no exhausted budgets recorded");
        assert!(
            acq.total_attempts() >= acq.ips.len() as u64,
            "attempts must be at least one per attempted IP"
        );
    }

    #[test]
    fn gov_absent_before_2018() {
        let study = Study::generate(ScenarioConfig::small(3));
        let world = study.world_at(0);
        let data = observe_world(&world);
        assert!(data.dataset(Dataset::Gov).is_none());
        assert!(data.dataset(Dataset::Alexa).is_some());
    }
}
