//! Port-25 scan observations — the shape of the Censys data the paper's
//! pipeline consumes — and hostname extraction from banner/EHLO text.

use mx_cert::Certificate;

/// Why a STARTTLS upgrade failed after being offered. Distinguishing
/// these matters for degradation accounting: a refusal is server policy
/// (stable across retries), a handshake failure may be transient.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StartTlsFailure {
    /// The server answered STARTTLS with a refusal reply (454 or similar).
    Refused,
    /// STARTTLS was accepted but the TLS handshake itself failed.
    Handshake,
    /// The connection died during the upgrade exchange.
    Transport,
}

/// Outcome of the STARTTLS attempt during a scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StartTlsOutcome {
    /// Not advertised in EHLO.
    NotOffered,
    /// Advertised but the upgrade did not complete; the captured
    /// banner/EHLO data is retained as a fallback.
    Failed {
        /// How the upgrade failed.
        reason: StartTlsFailure,
    },
    /// Completed; the presented chain, leaf first.
    Completed {
        /// The certificate chain the server presented.
        chain: Vec<Certificate>,
    },
}

impl StartTlsOutcome {
    /// The presented chain, if the handshake completed.
    pub fn chain(&self) -> Option<&[Certificate]> {
        match self {
            StartTlsOutcome::Completed { chain } => Some(chain),
            _ => None,
        }
    }
}

/// Application-layer data captured from one port-25 scan of one IP, the
/// analogue of a Censys SMTP record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmtpScanData {
    /// Full text of the 220/4xx greeting line (code stripped).
    pub banner: String,
    /// First line of the EHLO response (code stripped), when EHLO got a 250.
    pub ehlo: Option<String>,
    /// Extension keyword lines from the EHLO response.
    pub ehlo_keywords: Vec<String>,
    /// What happened when STARTTLS was attempted.
    pub starttls: StartTlsOutcome,
}

impl SmtpScanData {
    /// Hostname claimed in the banner, if the first token is one.
    pub fn banner_host(&self) -> Option<&str> {
        first_token(&self.banner)
    }

    /// Hostname claimed in the EHLO response, if any.
    pub fn ehlo_host(&self) -> Option<&str> {
        self.ehlo.as_deref().and_then(first_token)
    }

    /// The leaf certificate, if STARTTLS completed.
    pub fn leaf_certificate(&self) -> Option<&Certificate> {
        self.starttls.chain().and_then(<[Certificate]>::first)
    }
}

/// Port-25 state observed for one IP: the scan result the §4.3 join
/// turns into an observation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PortState {
    /// TCP connect failed (host down / refused).
    Closed,
    /// Connected, but the application-layer conversation failed before a
    /// banner was captured.
    NoBanner,
    /// Full or partial application data captured.
    Open(SmtpScanData),
}

impl PortState {
    /// Application data, if any.
    pub fn data(&self) -> Option<&SmtpScanData> {
        match self {
            PortState::Open(d) => Some(d),
            _ => None,
        }
    }
}

fn first_token(s: &str) -> Option<&str> {
    s.split_ascii_whitespace().next()
}

/// Is `s` a plausible fully-qualified domain name for provider
/// identification purposes? (Paper §3.1.3: banners "may not contain valid
/// domain names — certain providers put a string (e.g. IP-1-2-3-4)".)
///
/// Rejected: empty strings, single labels (`localhost`, `mail`), address
/// literals (`[192.0.2.1]`, bare IPs), names with an all-numeric top-level
/// label, and anything that fails DNS name syntax.
pub fn valid_fqdn(s: &str) -> bool {
    let s = s.trim().trim_end_matches('.');
    if s.is_empty() || s.starts_with('[') {
        return false;
    }
    if s.parse::<std::net::Ipv4Addr>().is_ok() || s.parse::<std::net::Ipv6Addr>().is_ok() {
        return false;
    }
    let Ok(name) = mx_dns::Name::parse(s) else {
        return false;
    };
    if name.label_count() < 2 {
        return false;
    }
    if name.is_wildcard() {
        return false;
    }
    // All-numeric TLD => not a real name (e.g. "1.2.3.4.5").
    let Some(tld) = name.labels().last() else {
        return false;
    };
    if tld.chars().all(|c| c.is_ascii_digit()) {
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data(banner: &str, ehlo: Option<&str>) -> SmtpScanData {
        SmtpScanData {
            banner: banner.to_string(),
            ehlo: ehlo.map(str::to_string),
            ehlo_keywords: vec![],
            starttls: StartTlsOutcome::NotOffered,
        }
    }

    #[test]
    fn banner_host_extraction() {
        let d = data("mx.google.com ESMTP x23-2002 - gsmtp", Some("mx.google.com at your service"));
        assert_eq!(d.banner_host(), Some("mx.google.com"));
        assert_eq!(d.ehlo_host(), Some("mx.google.com"));
        assert_eq!(data("", None).banner_host(), None);
    }

    #[test]
    fn fqdn_validity() {
        assert!(valid_fqdn("mx.google.com"));
        assert!(valid_fqdn("se26.mailspamprotection.com."));
        assert!(valid_fqdn("mx1.smtp.goog"));
        assert!(!valid_fqdn("localhost"));
        assert!(!valid_fqdn("IP-1-2-3-4"));
        assert!(!valid_fqdn("[192.0.2.1]"));
        assert!(!valid_fqdn("192.0.2.1"));
        assert!(!valid_fqdn(""));
        assert!(!valid_fqdn("mail"));
        assert!(!valid_fqdn("host.123"));
        assert!(!valid_fqdn("*.wild.example"));
        assert!(!valid_fqdn("bad name.example.com"));
    }

    #[test]
    fn ip_dash_banner_is_not_fqdn() {
        let d = data("IP-203-0-113-9 ESMTP", None);
        assert_eq!(d.banner_host(), Some("IP-203-0-113-9"));
        assert!(!valid_fqdn(d.banner_host().unwrap()));
    }
}
