//! Certificate authorities and the browser trust store.

use std::collections::HashSet;

use mx_dns::Timestamp;

use crate::cert::{Certificate, CertificateBuilder, KeyId};
use crate::fingerprint::Fingerprint;

/// A certificate authority: a named key pair plus its own certificate
/// (self-signed for roots, CA-signed for intermediates).
#[derive(Debug, Clone)]
pub struct CertificateAuthority {
    name: String,
    key: KeyId,
    cert: Certificate,
    next_serial: u64,
}

impl CertificateAuthority {
    /// Create a root CA with a self-signed CA certificate.
    pub fn new_root(name: impl Into<String>, key: KeyId, valid: (Timestamp, Timestamp)) -> Self {
        let name = name.into();
        let cert = CertificateBuilder::new(1, key)
            .common_name(&name)
            .validity(valid.0, valid.1)
            .ca(true)
            .self_signed();
        CertificateAuthority {
            name,
            key,
            cert,
            next_serial: 2,
        }
    }

    /// Create an intermediate CA signed by `parent`.
    pub fn new_intermediate(
        parent: &mut CertificateAuthority,
        name: impl Into<String>,
        key: KeyId,
        valid: (Timestamp, Timestamp),
    ) -> Self {
        let name = name.into();
        let serial = parent.take_serial();
        let cert = CertificateBuilder::new(serial, key)
            .common_name(&name)
            .validity(valid.0, valid.1)
            .ca(true)
            .signed_by(parent.name.clone(), parent.key);
        CertificateAuthority {
            name,
            key,
            cert,
            next_serial: 1,
        }
    }

    fn take_serial(&mut self) -> u64 {
        let s = self.next_serial;
        self.next_serial += 1;
        s
    }

    /// The CA's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The CA's own certificate (for inclusion in presented chains).
    pub fn certificate(&self) -> &Certificate {
        &self.cert
    }

    /// The CA key id (needed to mark roots trusted).
    pub fn key(&self) -> KeyId {
        self.key
    }

    /// Issue a leaf (server) certificate.
    pub fn issue_server(
        &mut self,
        subject_key: KeyId,
        cn: Option<&str>,
        sans: &[&str],
        valid: (Timestamp, Timestamp),
    ) -> Certificate {
        let serial = self.take_serial();
        let mut b = CertificateBuilder::new(serial, subject_key).validity(valid.0, valid.1);
        if let Some(cn) = cn {
            b = b.common_name(cn);
        }
        b = b.sans(sans.iter().copied());
        b.signed_by(self.name.clone(), self.key)
    }
}

/// The set of root certificates "a major browser" trusts. Trust anchors
/// are identified by certificate fingerprint (with the key recorded so the
/// validator can also anchor chains that end at a cert *signed by* a
/// trusted root key without including the root itself).
#[derive(Debug, Clone, Default)]
pub struct TrustStore {
    root_fingerprints: HashSet<Fingerprint>,
    root_keys: HashSet<KeyId>,
}

impl TrustStore {
    /// An empty trust store (nothing validates).
    pub fn new() -> Self {
        Self::default()
    }

    /// Trust a root CA.
    pub fn add_root(&mut self, ca: &CertificateAuthority) {
        self.root_fingerprints.insert(ca.certificate().fingerprint());
        self.root_keys.insert(ca.key());
    }

    /// Is this exact certificate a trust anchor?
    pub fn is_trusted_root(&self, cert: &Certificate) -> bool {
        self.root_fingerprints.contains(&cert.fingerprint())
    }

    /// Is this key a trust-anchor key?
    pub fn is_trusted_key(&self, key: KeyId) -> bool {
        self.root_keys.contains(&key)
    }

    /// Number of anchors.
    pub fn len(&self) -> usize {
        self.root_fingerprints.len()
    }

    /// True when no anchors are installed.
    pub fn is_empty(&self) -> bool {
        self.root_fingerprints.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(y: i64) -> Timestamp {
        Timestamp::from_ymd(y, 1, 1)
    }

    #[test]
    fn root_is_self_signed_ca() {
        let ca = CertificateAuthority::new_root("Sim Root", KeyId(1), (ts(2015), ts(2035)));
        assert!(ca.certificate().is_self_signed());
        assert!(ca.certificate().is_ca);
    }

    #[test]
    fn intermediate_signed_by_root() {
        let mut root = CertificateAuthority::new_root("Sim Root", KeyId(1), (ts(2015), ts(2035)));
        let inter = CertificateAuthority::new_intermediate(
            &mut root,
            "Sim Intermediate",
            KeyId(2),
            (ts(2016), ts(2030)),
        );
        assert!(!inter.certificate().is_self_signed());
        assert_eq!(inter.certificate().signature.signer, KeyId(1));
        assert!(inter
            .certificate()
            .signature
            .verify(inter.certificate().tbs_fingerprint()));
    }

    #[test]
    fn serials_unique() {
        let mut ca = CertificateAuthority::new_root("Sim Root", KeyId(1), (ts(2015), ts(2035)));
        let a = ca.issue_server(KeyId(10), Some("a.example"), &[], (ts(2020), ts(2021)));
        let b = ca.issue_server(KeyId(11), Some("b.example"), &[], (ts(2020), ts(2021)));
        assert_ne!(a.serial, b.serial);
    }

    #[test]
    fn trust_store_membership() {
        let ca = CertificateAuthority::new_root("Sim Root", KeyId(1), (ts(2015), ts(2035)));
        let other = CertificateAuthority::new_root("Other Root", KeyId(2), (ts(2015), ts(2035)));
        let mut store = TrustStore::new();
        store.add_root(&ca);
        assert!(store.is_trusted_root(ca.certificate()));
        assert!(!store.is_trusted_root(other.certificate()));
        assert!(store.is_trusted_key(KeyId(1)));
        assert!(!store.is_trusted_key(KeyId(2)));
        assert_eq!(store.len(), 1);
    }
}
