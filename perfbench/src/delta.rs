//! `delta`: incremental measurement, one epoch per op.
//!
//! Set-up seeds a `WorldState`, builds the base store with
//! `Reconciler::base_store` and generates a seeded event log at 5%
//! churn. One op is one `Reconciler::apply_batch`, which re-measures
//! the dirty domains, re-runs staged inference and appends one epoch to
//! the store. A run repeats set-up plus the whole log, so every run
//! times the same sequence of epochs whatever the host's speed, then
//! sets up alone until it has set up `setup_reps` times.

use std::time::Instant;

use mx_delta::{
    decode_log, encode_log, full_recompute, generate_events, BatchStats, Event, EventStreamConfig,
    Reconciler, WorldState,
};
use mx_obs::names;
use mx_store::{StoreReader, StoreWriter};

use crate::measure::{median, ms, Ops};
use crate::report::Outcome;
use crate::{end_to_end, store_rows, unexplained, Failure, Scale};

/// Per-batch probability that a domain emits an event.
const CHURN: f64 = 0.05;
/// Batches of the log `full_recompute` re-derives as the oracle.
const DELTA_PREFIX: usize = 2;

/// A reconciler with its base store built, and the log to apply.
struct Setup {
    initial: WorldState,
    reconciler: Reconciler,
    base: Vec<u8>,
    log: Vec<Vec<Event>>,
}

fn setup(seed: u64, scale: &Scale) -> Result<Setup, Failure> {
    let initial = WorldState::seeded(seed, scale.delta_domains);
    let mut reconciler = Reconciler::new(initial.clone());
    let base = reconciler.base_store()?;
    let log = generate_events(
        &initial,
        &EventStreamConfig {
            seed,
            batches: scale.delta_batches,
            churn: CHURN,
            ..EventStreamConfig::default()
        },
    );
    Ok(Setup {
        initial,
        reconciler,
        base,
        log,
    })
}

/// The first cycle's inputs and the stores it grew, which later cycles
/// must reproduce.
struct FirstCycle {
    initial: WorldState,
    log: Vec<Vec<Event>>,
    /// Store after [`DELTA_PREFIX`] batches.
    prefix: Vec<u8>,
    /// Store after the whole log.
    grown: Vec<u8>,
}

/// Set up, then apply every batch of the log as one timed op each;
/// repeat until the run has measured long enough, then time set-ups
/// alone until there are `setup_reps` of them. The first op of the run
/// is the warm-up.
pub fn run(seed: u64, seconds: f64, scale: &Scale) -> Result<Outcome, Failure> {
    let mut out = Outcome::default();
    let mut setup_s = Vec::new();
    let mut ops = Ops::default();
    let mut first: Option<FirstCycle> = None;
    while !ops.done(seconds, scale.min_ops) {
        let t = Instant::now();
        let mut s = setup(seed, scale)?;
        setup_s.push(t.elapsed().as_secs_f64());
        let mut prefix = s.base.clone();
        let mut grown = s.base;
        // The run's first batch is the warm-up: untimed, and outside
        // the CPU region.
        let warm_up = usize::from(first.is_none());
        for (i, batch) in s.log.iter().enumerate() {
            if i == warm_up {
                ops.begin()?;
            }
            let t = Instant::now();
            let applied = s.reconciler.apply_batch(batch);
            let wall = t.elapsed();
            let (bytes, stats) = applied?;
            if i >= warm_up {
                ops.record(wall, stats.events_applied);
            }
            out.check(
                (stats.events_applied != batch.len() as u64)
                    .then(|| format!("applied {} of {} events", stats.events_applied, batch.len())),
            );
            if i + 1 == DELTA_PREFIX {
                prefix.clone_from(&bytes);
            }
            grown = bytes;
        }
        ops.end()?;
        match &first {
            None => {
                first = Some(FirstCycle {
                    initial: s.initial,
                    log: s.log,
                    prefix,
                    grown,
                })
            }
            Some(f) => out.check(
                (f.prefix != prefix || f.grown != grown)
                    .then(|| "a repeated cycle grew different store bytes".to_string()),
            ),
        }
    }
    while setup_s.len() < scale.setup_reps {
        let t = Instant::now();
        drop(setup(seed, scale)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let FirstCycle {
        initial,
        log,
        prefix,
        grown,
    } = first.ok_or_else(|| Failure::Input("no cycle ran".into()))?;

    // Oracle, outside the timed region and set-up: the incremental
    // store after a short prefix equals a from-scratch recompute.
    let oracle = full_recompute(&initial, &log[..DELTA_PREFIX.min(log.len())])?;
    out.check((oracle != prefix).then(|| "grown store differs from full_recompute".to_string()));
    let per_row = grown.len() as f64 / store_rows(&grown)?.max(1) as f64;
    end_to_end(&mut out, &setup_s, &ops, per_row)?;
    Ok(out)
}

/// The traced run's `delta.*` rows: two reconcilers apply the same log,
/// one with obs counters off and one with them on; the event apply and
/// the store re-encode of each epoch are timed on the same inputs.
pub fn layers(seed: u64, scale: &Scale) -> Result<Outcome, Failure> {
    let mut out = Outcome::default();
    let initial = WorldState::seeded(seed, scale.delta_domains);
    let mut off = Reconciler::new(initial.clone());
    let t = Instant::now();
    let base = off.base_store()?;
    out.metric("delta.base_store_ms", ms(t.elapsed()), "ms");
    let mut on = Reconciler::new(initial.clone());
    on.base_store()?;
    let log = generate_events(
        &initial,
        &EventStreamConfig {
            seed,
            batches: scale.delta_batches,
            churn: CHURN,
            ..EventStreamConfig::default()
        },
    );

    let mut shadow = initial.clone();
    let mut total = BatchStats::default();
    let (mut op_ms, mut ratios, mut apply_ms, mut encode_ms) = (0.0, Vec::new(), 0.0, 0.0);
    let mut dns_queries = 0u64;
    let mut size = base.len();
    for batch in &log {
        let t = Instant::now();
        let (bytes, stats) = off.apply_batch(batch)?;
        let wall = ms(t.elapsed());
        mx_obs::reset();
        mx_obs::set_enabled(true);
        let t = Instant::now();
        let traced = on.apply_batch(batch);
        let traced_ms = ms(t.elapsed());
        mx_obs::set_enabled(false);
        let (traced_bytes, traced_stats) = traced?;
        dns_queries += mx_obs::metrics::counter_value(names::DNS_QUERIES);
        out.check(
            (traced_bytes != bytes || traced_stats != stats)
                .then(|| "obs changed a delta epoch".to_string()),
        );
        op_ms += wall;
        ratios.push(traced_ms / wall.max(1e-9));

        let t = Instant::now();
        for ev in batch {
            shadow.apply(ev)?;
        }
        apply_ms += ms(t.elapsed());
        let reader = StoreReader::open(&bytes)?;
        let writer = StoreWriter::reopen(&reader)?;
        let t = Instant::now();
        let again = writer.snapshot();
        encode_ms += ms(t.elapsed());
        out.check(
            (again != bytes).then(|| "re-encoded epoch differs from apply_batch's".to_string()),
        );

        total.events_applied += stats.events_applied;
        total.dirty_domains += stats.dirty_domains;
        total.reresolved += stats.reresolved;
        total.rescanned_ips += stats.rescanned_ips;
        total.reuse_hits += stats.reuse_hits;
        total.population += stats.population;
        total.mx_reassigned += stats.mx_reassigned;
        total.domains_reattributed += stats.domains_reattributed;
        size = bytes.len();
    }
    let epochs = log.len().max(1) as f64;
    let events = total.events_applied.max(1) as f64;
    out.metric("delta.trace_overhead_ratio", median(&ratios), "ratio");
    out.metric(
        "delta.unexplained_share",
        unexplained(apply_ms + encode_ms, op_ms),
        "ratio",
    );
    out.metric("delta.event_apply_us", apply_ms * 1e3 / events, "us");
    out.metric("delta.store_encode_ms_per_epoch", encode_ms / epochs, "ms");
    out.metric(
        "delta.dirty_per_event",
        total.dirty_domains as f64 / events,
        "count",
    );
    out.metric(
        "delta.reresolved_per_epoch",
        total.reresolved as f64 / epochs,
        "count",
    );
    out.metric(
        "delta.rescanned_ips_per_epoch",
        total.rescanned_ips as f64 / epochs,
        "count",
    );
    out.metric(
        "delta.reuse_ratio",
        total.reuse_hits as f64 / total.population.max(1) as f64,
        "ratio",
    );
    out.metric(
        "delta.mx_reassigned_per_epoch",
        total.mx_reassigned as f64 / epochs,
        "count",
    );
    out.metric(
        "delta.reattributed_per_epoch",
        total.domains_reattributed as f64 / epochs,
        "count",
    );
    out.metric(
        "delta.dns_queries_per_epoch",
        dns_queries as f64 / epochs,
        "count",
    );
    out.metric(
        "delta.store_growth_bytes_per_epoch",
        (size - base.len().min(size)) as f64 / epochs,
        "B",
    );

    let t = Instant::now();
    let decoded = decode_log(&encode_log(&log))?;
    out.metric(
        "delta.log_codec_ns_per_event",
        t.elapsed().as_nanos() as f64 / events,
        "ns",
    );
    out.check((decoded != log).then(|| "event log codec round trip changed the log".to_string()));
    Ok(out)
}
