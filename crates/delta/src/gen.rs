//! Seeded zone-update stream generator.
//!
//! Produces a deterministic stream of event batches whose default
//! churn is calibrated to the study's epoch-over-epoch provider
//! churn (~1.5% of domains change hosting between adjacent
//! snapshots, matching the redraw rate `mx-corpus` uses for its
//! semi-annual timeline). Each batch plays the role of one
//! fine-grained measurement interval — a day or a week — so the same
//! total churn arrives as many small deltas instead of one big diff.

use mx_cert::h64;

use crate::event::{AddSpec, CertTarget, Event};
use crate::world::{added_domain_name, Hosting, WorldState, PROVIDERS};

/// Knobs for the event stream.
#[derive(Debug, Clone, Copy)]
pub struct EventStreamConfig {
    /// Seed for every coin the generator flips.
    pub seed: u64,
    /// Number of batches (delta epochs) to produce.
    pub batches: usize,
    /// Per-batch probability that a given domain emits an event.
    pub churn: f64,
    /// New domains added per batch.
    pub adds_per_batch: usize,
}

impl Default for EventStreamConfig {
    fn default() -> Self {
        EventStreamConfig {
            seed: 0,
            batches: 3,
            churn: 0.015,
            adds_per_batch: 2,
        }
    }
}

/// Generate a stream of event batches valid against `initial`.
///
/// The generator replays its own events against a scratch copy of the
/// state, so every emitted event is applicable (no swaps on deleted
/// domains, no re-IPs of provider customers) and the stream decodes
/// and re-applies cleanly after a codec round-trip.
pub fn generate_events(initial: &WorldState, cfg: &EventStreamConfig) -> Vec<Vec<Event>> {
    let nprov = PROVIDERS.len() as u64;
    let mut st = initial.clone();
    let mut log: Vec<Vec<Event>> = Vec::with_capacity(cfg.batches);
    for b in 0..cfg.batches {
        let bs = b.to_string();
        let mut batch: Vec<Event> = Vec::new();
        let population: Vec<(String, Hosting)> =
            st.domains.iter().map(|(n, h)| (n.clone(), *h)).collect();
        for (name, hosting) in &population {
            let coin = h64(cfg.seed, &["evt", &bs, name]);
            if (coin % 1_000_000) as f64 >= cfg.churn * 1e6 {
                continue;
            }
            let pick = h64(cfg.seed, &["kind", &bs, name]);
            let provider = ((pick >> 8) % nprov) as u32;
            let ev = match hosting {
                Hosting::Provider { .. } => match pick % 100 {
                    0..=29 => Event::MxSwap { domain: name.clone() },
                    30..=54 => Event::MxPriorityChange { domain: name.clone() },
                    55..=84 => Event::ProviderMigration { domain: name.clone(), provider },
                    _ => Event::ZoneDelete { domain: name.clone() },
                },
                Hosting::SelfHosted { .. } => match pick % 100 {
                    0..=39 => Event::HostReIp { domain: name.clone() },
                    40..=69 => Event::CertRotation {
                        target: CertTarget::Domain(name.clone()),
                    },
                    70..=89 => Event::ProviderMigration { domain: name.clone(), provider },
                    _ => Event::ZoneDelete { domain: name.clone() },
                },
                Hosting::NoMail { .. } => match pick % 100 {
                    0..=59 => Event::ProviderMigration { domain: name.clone(), provider },
                    _ => Event::ZoneDelete { domain: name.clone() },
                },
            };
            batch.push(ev);
        }
        // Occasionally a provider rotates the certificate on its whole
        // farm — the event whose dirty set is every customer at once.
        let rot = h64(cfg.seed, &["provrot", &bs]);
        if rot % 4 == 0 {
            batch.push(Event::CertRotation {
                target: CertTarget::Provider(((rot >> 8) % nprov) as u32),
            });
        }
        // Fresh registrations.
        for i in 0..cfg.adds_per_batch {
            let domain = added_domain_name(cfg.seed, b, i);
            let h = h64(cfg.seed, &["addspec", &domain]);
            let spec = match h % 10 {
                0..=5 => AddSpec::Provider(((h >> 8) % nprov) as u32),
                6..=8 => AddSpec::SelfHosted,
                _ => AddSpec::NoMail,
            };
            batch.push(Event::DomainAdd { domain, spec });
        }
        for ev in &batch {
            st.apply(ev).expect("generated event applies to its own state");
        }
        log.push(batch);
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{decode_log, encode_log};

    #[test]
    fn stream_is_deterministic_and_applicable() {
        let st = WorldState::seeded(42, 300);
        let cfg = EventStreamConfig { seed: 42, batches: 4, churn: 0.05, adds_per_batch: 2 };
        let a = generate_events(&st, &cfg);
        let b = generate_events(&st, &cfg);
        assert_eq!(a, b);
        assert!(a.iter().map(Vec::len).sum::<usize>() > 8, "stream too quiet");
        // Round-trips through the codec and still applies.
        let decoded = decode_log(&encode_log(&a)).expect("decodes");
        assert_eq!(decoded, a);
        let mut replay = st.clone();
        for batch in &decoded {
            for ev in batch {
                replay.apply(ev).expect("replays");
            }
        }
    }

    #[test]
    fn churn_scales_event_volume() {
        let st = WorldState::seeded(7, 400);
        let quiet = generate_events(
            &st,
            &EventStreamConfig { seed: 7, batches: 3, churn: 0.01, adds_per_batch: 0 },
        );
        let loud = generate_events(
            &st,
            &EventStreamConfig { seed: 7, batches: 3, churn: 0.20, adds_per_batch: 0 },
        );
        let count = |log: &[Vec<Event>]| log.iter().map(Vec::len).sum::<usize>();
        assert!(count(&loud) > count(&quiet) * 4, "{} vs {}", count(&loud), count(&quiet));
    }
}
