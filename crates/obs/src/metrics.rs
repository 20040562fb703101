//! Sharded counters, max-gauges and fixed-bucket histograms.
//!
//! Every metric is an [`Entry`] in a process-global registry, keyed by
//! its `&'static str` name (the table in [`crate::names`]). An entry
//! owns `SHARD_COUNT × slots` atomic cells laid out shard-major; a
//! recording thread writes only its own shard's cells, and every
//! aggregate is commutative — counters sum, gauges max, histograms sum
//! per-bucket counts — so the merged snapshot is independent of which
//! thread recorded what, and therefore of the thread count.
//!
//! Registration is *first wins*: re-registering a name returns the
//! existing entry. A name re-registered with a different kind yields a
//! detached entry (recorded into, never exported) rather than a panic —
//! instrumentation must never take down a scan.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::{enabled, shard_index, SHARD_COUNT};

/// What a metric measures and how its shards merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Monotone event count; shards merge by sum.
    Counter,
    /// High-water mark; shards merge by max.
    Gauge,
    /// Fixed-bucket distribution; bucket counts, sum and count all
    /// merge by sum.
    Histogram,
}

impl Kind {
    /// The lowercase label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

/// Determinism class of a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Value is a pure function of (input, seed): identical at any
    /// thread count. Included in the deterministic snapshot.
    Stable,
    /// Value legitimately varies run-to-run (pool probes, host-time
    /// derived, cache ratios). Excluded from the deterministic
    /// snapshot and the Prometheus text.
    PerRun,
}

impl Class {
    /// The lowercase label (the Chrome-trace event category).
    pub fn label(self) -> &'static str {
        match self {
            Class::Stable => "stable",
            Class::PerRun => "per_run",
        }
    }
}

/// One registered metric: identity plus its shard-major cells.
#[derive(Debug)]
pub struct Entry {
    name: &'static str,
    kind: Kind,
    class: Class,
    /// Inclusive upper bucket bounds (empty for counter/gauge).
    bounds: &'static [u64],
    /// `SHARD_COUNT × slots` atomics, shard-major. Counter/gauge have
    /// one slot; a histogram has `bounds.len() + 1` bucket slots (the
    /// last is the overflow bucket) plus a sum slot and a count slot.
    cells: Vec<AtomicU64>,
}

impl Entry {
    fn new(name: &'static str, kind: Kind, class: Class, bounds: &'static [u64]) -> Entry {
        let slots = match kind {
            Kind::Histogram => bounds.len() + 3,
            _ => 1,
        };
        Entry {
            name,
            kind,
            class,
            bounds,
            cells: std::iter::repeat_with(|| AtomicU64::new(0))
                .take(slots.saturating_mul(SHARD_COUNT))
                .collect(),
        }
    }

    fn slots(&self) -> usize {
        match self.kind {
            Kind::Histogram => self.bounds.len() + 3,
            _ => 1,
        }
    }

    /// The calling thread's cell for `slot`.
    fn own_cell(&self, slot: usize) -> Option<&AtomicU64> {
        self.cells.get(shard_index() * self.slots() + slot)
    }

    /// Sum of `slot` across all shards.
    fn sum_slot(&self, slot: usize) -> u64 {
        let slots = self.slots();
        let mut total = 0u64;
        for shard in 0..SHARD_COUNT {
            if let Some(c) = self.cells.get(shard * slots + slot) {
                total = total.wrapping_add(c.load(Ordering::Relaxed));
            }
        }
        total
    }

    /// Max of `slot` across all shards.
    fn max_slot(&self, slot: usize) -> u64 {
        let slots = self.slots();
        let mut m = 0u64;
        for shard in 0..SHARD_COUNT {
            if let Some(c) = self.cells.get(shard * slots + slot) {
                m = m.max(c.load(Ordering::Relaxed));
            }
        }
        m
    }

    fn snapshot_one(&self) -> MetricSnapshot {
        let data = match self.kind {
            Kind::Counter => MetricData::Counter(self.sum_slot(0)),
            Kind::Gauge => MetricData::Gauge(self.max_slot(0)),
            Kind::Histogram => {
                let nb = self.bounds.len();
                MetricData::Histogram {
                    bounds: self.bounds.to_vec(),
                    buckets: (0..nb + 1).map(|b| self.sum_slot(b)).collect(),
                    sum: self.sum_slot(nb + 1),
                    count: self.sum_slot(nb + 2),
                }
            }
        };
        MetricSnapshot {
            name: self.name,
            kind: self.kind,
            class: self.class,
            data,
        }
    }
}

fn registry() -> &'static Mutex<Vec<Arc<Entry>>> {
    static REG: OnceLock<Mutex<Vec<Arc<Entry>>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Vec::new()))
}

fn register_entry(
    name: &'static str,
    kind: Kind,
    class: Class,
    bounds: &'static [u64],
) -> Arc<Entry> {
    let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    for e in reg.iter() {
        if e.name == name {
            if e.kind == kind {
                return Arc::clone(e);
            }
            // Kind clash: hand back a detached entry — it records into
            // thin air and never appears in a snapshot, but the caller
            // keeps running.
            return Arc::new(Entry::new(name, kind, class, bounds));
        }
    }
    let e = Arc::new(Entry::new(name, kind, class, bounds));
    reg.push(Arc::clone(&e));
    e
}

/// A registered counter handle (merge: sum).
#[derive(Debug, Clone)]
pub struct Counter(Arc<Entry>);

impl Counter {
    /// Register (or re-attach to) the counter named `name`.
    pub fn register(name: &'static str, class: Class) -> Counter {
        Counter(register_entry(name, Kind::Counter, class, &[]))
    }

    /// Add `v` to the calling thread's shard. No-op while disabled.
    pub fn add(&self, v: u64) {
        if !enabled() {
            return;
        }
        if let Some(c) = self.0.own_cell(0) {
            c.fetch_add(v, Ordering::Relaxed);
        }
    }

    /// Add one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// The merged (summed) value.
    pub fn value(&self) -> u64 {
        self.0.sum_slot(0)
    }
}

/// A registered max-gauge handle (merge: max).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<Entry>);

impl Gauge {
    /// Register (or re-attach to) the gauge named `name`.
    pub fn register(name: &'static str, class: Class) -> Gauge {
        Gauge(register_entry(name, Kind::Gauge, class, &[]))
    }

    /// Raise the calling thread's shard to at least `v`. No-op while
    /// disabled.
    pub fn record_max(&self, v: u64) {
        if !enabled() {
            return;
        }
        if let Some(c) = self.0.own_cell(0) {
            c.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// The merged (maxed) value.
    pub fn value(&self) -> u64 {
        self.0.max_slot(0)
    }
}

/// A registered fixed-bucket histogram handle.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<Entry>);

impl Histogram {
    /// Register (or re-attach to) the histogram named `name` with
    /// inclusive upper `bounds`; values above the last bound land in
    /// the overflow bucket.
    pub fn register(name: &'static str, class: Class, bounds: &'static [u64]) -> Histogram {
        Histogram(register_entry(name, Kind::Histogram, class, bounds))
    }

    /// Record one observation of `v`. No-op while disabled.
    pub fn observe(&self, v: u64) {
        if !enabled() {
            return;
        }
        let bounds = self.0.bounds;
        let bucket = bounds
            .iter()
            .position(|b| v <= *b)
            .unwrap_or(bounds.len());
        if let Some(c) = self.0.own_cell(bucket) {
            c.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(c) = self.0.own_cell(bounds.len() + 1) {
            c.fetch_add(v, Ordering::Relaxed);
        }
        if let Some(c) = self.0.own_cell(bounds.len() + 2) {
            c.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// The merged value of one metric at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricData {
    /// Summed counter value.
    Counter(u64),
    /// Maxed gauge value.
    Gauge(u64),
    /// Merged histogram: per-bucket counts (last bucket is overflow),
    /// plus value sum and observation count.
    Histogram {
        /// Inclusive upper bucket bounds.
        bounds: Vec<u64>,
        /// Per-bucket counts, `bounds.len() + 1` long.
        buckets: Vec<u64>,
        /// Sum of observed values.
        sum: u64,
        /// Number of observations.
        count: u64,
    },
}

/// One metric's identity and merged value.
#[derive(Debug, Clone)]
pub struct MetricSnapshot {
    /// Registered name.
    pub name: &'static str,
    /// Metric kind.
    pub kind: Kind,
    /// Determinism class.
    pub class: Class,
    /// Merged value.
    pub data: MetricData,
}

/// Merge every registered metric, sorted by name (registration order
/// is lazy and therefore run-dependent; the sort restores determinism).
pub fn snapshot() -> Vec<MetricSnapshot> {
    let entries: Vec<Arc<Entry>> = {
        let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        reg.iter().map(Arc::clone).collect()
    };
    let mut out: Vec<MetricSnapshot> = entries.iter().map(|e| e.snapshot_one()).collect();
    out.sort_by(|a, b| a.name.cmp(b.name));
    out
}

/// The merged value of the counter named `name` (0 when absent). For
/// tests and reconciliation checks.
pub fn counter_value(name: &str) -> u64 {
    let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    for e in reg.iter() {
        if e.name == name && e.kind == Kind::Counter {
            return e.sum_slot(0);
        }
    }
    0
}

/// Zero every cell of every registered metric, in place.
pub fn reset_all() {
    let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
    for e in reg.iter() {
        for c in &e.cells {
            c.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_and_gauge_maxes() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        crate::reset();
        let c = Counter::register("test.metrics.counter", Class::Stable);
        c.add(2);
        c.incr();
        assert_eq!(c.value(), 3);
        let g = Gauge::register("test.metrics.gauge", Class::PerRun);
        g.record_max(5);
        g.record_max(2);
        assert_eq!(g.value(), 5);
        crate::set_enabled(false);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        crate::reset();
        static BOUNDS: &[u64] = &[1, 4];
        let h = Histogram::register("test.metrics.hist", Class::Stable, BOUNDS);
        h.observe(0);
        h.observe(1);
        h.observe(3);
        h.observe(9);
        let snap = snapshot();
        let found = snap.iter().find(|m| m.name == "test.metrics.hist");
        let Some(MetricSnapshot {
            data: MetricData::Histogram { buckets, sum, count, .. },
            ..
        }) = found
        else {
            panic!("histogram missing from snapshot: {snap:?}");
        };
        assert_eq!(buckets, &vec![2, 1, 1], "<=1, <=4, overflow");
        assert_eq!(*sum, 13);
        assert_eq!(*count, 4);
        crate::set_enabled(false);
    }

    #[test]
    fn first_registration_wins_and_kind_clash_detaches() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        crate::reset();
        let a = Counter::register("test.metrics.dup", Class::Stable);
        let b = Counter::register("test.metrics.dup", Class::PerRun);
        a.add(1);
        b.add(1);
        assert_eq!(a.value(), 2, "same entry behind both handles");
        // Re-register under a clashing kind: detached, absent from
        // snapshots, but recording still works.
        let g = Gauge::register("test.metrics.dup", Class::Stable);
        g.record_max(9);
        assert_eq!(counter_value("test.metrics.dup"), 2);
        let names: Vec<_> = snapshot()
            .iter()
            .filter(|m| m.name == "test.metrics.dup")
            .map(|m| m.kind)
            .collect();
        assert_eq!(names, vec![Kind::Counter], "detached entry not exported");
        crate::set_enabled(false);
    }

    #[test]
    fn snapshot_is_name_sorted() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        crate::reset();
        Counter::register("test.metrics.zz", Class::Stable).incr();
        Counter::register("test.metrics.aa", Class::Stable).incr();
        let snap = snapshot();
        let mut sorted = snap.iter().map(|m| m.name).collect::<Vec<_>>();
        sorted.sort();
        assert_eq!(snap.iter().map(|m| m.name).collect::<Vec<_>>(), sorted);
        crate::set_enabled(false);
    }
}
