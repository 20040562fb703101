//! Step 5 — provider ID of a domain (paper §3.2.5).

use std::collections::HashMap;

use mx_dns::Name;

use crate::input::{DomainObservation, ObservationSet};
use crate::ipid::ProviderId;
use crate::mxid::{IdSource, MxAssignment};

/// One provider's share of a domain's mail service.
#[derive(Debug, Clone, PartialEq)]
pub struct Share {
    /// The provider receiving credit.
    pub provider: ProviderId,
    /// Credit weight in (0, 1]; weights over a domain sum to 1 when any
    /// provider was assigned.
    pub weight: f64,
    /// Which data source produced the ID.
    pub source: IdSource,
}

/// The final attribution of a domain.
#[derive(Debug, Clone, PartialEq)]
pub struct DomainAssignment {
    /// The attributed domain.
    pub domain: Name,
    /// Distinct providers of the primary MX records, with split credit.
    /// Empty when the domain has no usable MX target.
    pub shares: Vec<Share>,
    /// Does any primary MX target run a live SMTP server?
    pub has_smtp: bool,
}

impl DomainAssignment {
    /// The single provider, when the domain is not split.
    pub fn sole_provider(&self) -> Option<&ProviderId> {
        match self.shares.as_slice() {
            [s] => Some(&s.provider),
            _ => None,
        }
    }

    /// Credit attributed to `provider` (0 when absent).
    pub fn weight_of(&self, provider: &ProviderId) -> f64 {
        self.shares
            .iter()
            .filter(|s| &s.provider == provider)
            .map(|s| s.weight)
            .sum()
    }
}

/// Assign a domain's provider(s) from its primary MX records.
///
/// Distinct provider IDs among the most-preferred MX records each receive
/// `1/n` credit ("split the credit if multiple such MX records exist").
/// Several primary MX records mapping to the *same* provider do not split.
pub fn assign_domain(
    d: &DomainObservation,
    mx_assignments: &HashMap<Name, MxAssignment>,
    obs: &ObservationSet,
) -> DomainAssignment {
    let primaries = d.mx.primary_targets();
    // Distinct providers in deterministic (name) order.
    let mut providers: Vec<(&ProviderId, IdSource)> = Vec::new();
    for t in primaries {
        if let Some(a) = mx_assignments.get(&t.exchange) {
            if !providers.iter().any(|(p, _)| *p == &a.provider) {
                providers.push((&a.provider, a.source));
            }
        }
    }
    providers.sort_by_key(|(p, _)| p.0.clone());
    let n = providers.len();
    let shares = providers
        .into_iter()
        .map(|(p, source)| Share {
            provider: p.clone(),
            weight: 1.0 / n as f64,
            source,
        })
        .collect();
    DomainAssignment {
        domain: d.domain.clone(),
        shares,
        has_smtp: obs.domain_has_smtp(d),
    }
}

/// Is the domain self-hosted under this assignment? (Paper §5.2.1: "we
/// estimate the number of domains that are self-hosted by looking for
/// domains whose provider ID is the same as its registered domain name".)
pub fn is_self_hosted(
    assignment: &DomainAssignment,
    psl: &mx_psl::PublicSuffixList,
) -> bool {
    let Some(domain_rd) = psl.registered_domain(&assignment.domain.to_dotted()) else {
        return false;
    };
    assignment
        .shares
        .iter()
        .any(|s| s.provider.as_str() == domain_rd)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::input::{MxObservation, MxTarget};
    use mx_dns::dns_name;
    use mx_psl::PublicSuffixList;

    fn target(pref: u16, ex: &str) -> MxTarget {
        MxTarget {
            preference: pref,
            exchange: dns_name!(ex),
            addrs: vec![],
        }
    }

    fn mx_assignment(ex: &str, provider: &str) -> (Name, MxAssignment) {
        (
            dns_name!(ex),
            MxAssignment {
                exchange: dns_name!(ex),
                provider: ProviderId::new(provider),
                source: IdSource::Certificate,
                addrs: vec![],
                corrected: false,
            },
        )
    }

    #[test]
    fn single_provider_full_credit() {
        let d = DomainObservation {
            domain: dns_name!("example.com"),
            mx: MxObservation::Targets(vec![
                target(1, "mx1.g.com"),
                target(1, "mx2.g.com"),
                target(5, "backup.other.com"),
            ]),
        };
        let assignments: HashMap<_, _> = [
            mx_assignment("mx1.g.com", "google.com"),
            mx_assignment("mx2.g.com", "google.com"),
            mx_assignment("backup.other.com", "other.com"),
        ]
        .into_iter()
        .collect();
        let a = assign_domain(&d, &assignments, &ObservationSet::new());
        assert_eq!(a.shares.len(), 1);
        assert_eq!(a.sole_provider().unwrap().as_str(), "google.com");
        assert!((a.weight_of(&ProviderId::new("google.com")) - 1.0).abs() < 1e-9);
        assert_eq!(a.weight_of(&ProviderId::new("other.com")), 0.0, "backup ignored");
    }

    #[test]
    fn split_credit_across_distinct_primaries() {
        let d = DomainObservation {
            domain: dns_name!("example.com"),
            mx: MxObservation::Targets(vec![target(1, "mx.a.com"), target(1, "mx.b.com")]),
        };
        let assignments: HashMap<_, _> = [
            mx_assignment("mx.a.com", "a.com"),
            mx_assignment("mx.b.com", "b.com"),
        ]
        .into_iter()
        .collect();
        let a = assign_domain(&d, &assignments, &ObservationSet::new());
        assert_eq!(a.shares.len(), 2);
        assert!((a.weight_of(&ProviderId::new("a.com")) - 0.5).abs() < 1e-9);
        assert!((a.weight_of(&ProviderId::new("b.com")) - 0.5).abs() < 1e-9);
        assert_eq!(a.sole_provider(), None);
    }

    #[test]
    fn no_mx_no_shares() {
        let d = DomainObservation {
            domain: dns_name!("nomail.com"),
            mx: MxObservation::NoMx,
        };
        let a = assign_domain(&d, &HashMap::new(), &ObservationSet::new());
        assert!(a.shares.is_empty());
        assert!(!a.has_smtp);
    }

    #[test]
    fn self_hosting_detection() {
        let psl = PublicSuffixList::builtin();
        let make = |domain: &str, provider: &str| DomainAssignment {
            domain: dns_name!(domain),
            shares: vec![Share {
                provider: ProviderId::new(provider),
                weight: 1.0,
                source: IdSource::MxRecord,
            }],
            has_smtp: true,
        };
        assert!(is_self_hosted(&make("selfhosted.com", "selfhosted.com"), &psl));
        assert!(is_self_hosted(&make("www.selfhosted.com", "selfhosted.com"), &psl));
        assert!(!is_self_hosted(&make("outsourced.com", "google.com"), &psl));
        assert!(!is_self_hosted(
            &DomainAssignment {
                domain: dns_name!("empty.com"),
                shares: vec![],
                has_smtp: false
            },
            &psl
        ));
    }

    #[test]
    fn deterministic_share_order() {
        let d = DomainObservation {
            domain: dns_name!("example.com"),
            mx: MxObservation::Targets(vec![target(1, "mx.z.com"), target(1, "mx.a.com")]),
        };
        let assignments: HashMap<_, _> = [
            mx_assignment("mx.z.com", "z.com"),
            mx_assignment("mx.a.com", "a.com"),
        ]
        .into_iter()
        .collect();
        let a = assign_domain(&d, &assignments, &ObservationSet::new());
        assert_eq!(a.shares[0].provider.as_str(), "a.com");
        assert_eq!(a.shares[1].provider.as_str(), "z.com");
    }
}
