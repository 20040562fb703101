//! Stage spans: scoped timers over the pipeline's fixed stage tree.
//!
//! A [`Stage`] is registered once with a *static* parent name — the
//! resolve → scan → tls → infer → report cascade is known at compile
//! time, so the tree is part of the name table rather than something
//! reconstructed from runtime nesting (which would depend on thread
//! interleaving). Each stage accumulates three sharded totals:
//!
//! - **enters** — how many times the stage ran (deterministic);
//! - **sim_secs** — simulated seconds charged by the caller alongside
//!   its `SimClock::charge` calls (deterministic: the cost model is a
//!   pure function of the input);
//! - **host_nanos** — monotonic wall time measured by the
//!   [`SpanGuard`] (inherently per-run; excluded from the
//!   deterministic export).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::metrics::Class;
use crate::trace::{self, EventKind, TraceEvent};
use crate::{enabled, shard_index, SHARD_COUNT};

/// The process span epoch: host timestamps in trace events are
/// nanoseconds since the first one was taken, so Chrome traces start
/// near zero. All host-clock access in the crate lives in this module
/// (deliberately outside the lint's determinism scope); the trace
/// module only ever sees plain numbers.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Monotonic host nanoseconds since the process span epoch.
fn host_clock_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Slots per shard: enters, sim_secs, host_nanos.
const SLOTS: usize = 3;

const SLOT_ENTERS: usize = 0;
const SLOT_SIM: usize = 1;
const SLOT_HOST: usize = 2;

/// One registered stage: identity plus shard-major cells.
#[derive(Debug)]
pub struct StageEntry {
    name: &'static str,
    parent: Option<&'static str>,
    cells: Vec<AtomicU64>,
}

impl StageEntry {
    fn new(name: &'static str, parent: Option<&'static str>) -> StageEntry {
        StageEntry {
            name,
            parent,
            cells: std::iter::repeat_with(|| AtomicU64::new(0))
                .take(SLOTS.saturating_mul(SHARD_COUNT))
                .collect(),
        }
    }

    fn add(&self, slot: usize, v: u64) {
        if let Some(c) = self.cells.get(shard_index() * SLOTS + slot) {
            c.fetch_add(v, Ordering::Relaxed);
        }
    }

    fn sum_slot(&self, slot: usize) -> u64 {
        let mut total = 0u64;
        for shard in 0..SHARD_COUNT {
            if let Some(c) = self.cells.get(shard * SLOTS + slot) {
                total = total.wrapping_add(c.load(Ordering::Relaxed));
            }
        }
        total
    }
}

fn registry() -> &'static Mutex<Vec<Arc<StageEntry>>> {
    static REG: OnceLock<Mutex<Vec<Arc<StageEntry>>>> = OnceLock::new();
    REG.get_or_init(|| Mutex::new(Vec::new()))
}

/// A handle on a registered stage.
#[derive(Debug, Clone)]
pub struct Stage(Arc<StageEntry>);

impl Stage {
    /// Register (or re-attach to) the stage named `name`. First
    /// registration fixes the parent; later parents are ignored.
    pub fn register(name: &'static str, parent: Option<&'static str>) -> Stage {
        let mut reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        for e in reg.iter() {
            if e.name == name {
                return Stage(Arc::clone(e));
            }
        }
        let e = Arc::new(StageEntry::new(name, parent));
        reg.push(Arc::clone(&e));
        Stage(e)
    }

    /// Enter the stage: bumps the enter count and returns a guard that
    /// charges elapsed *host* time on drop. No-op while disabled.
    pub fn enter(&self) -> SpanGuard {
        self.enter_tagged(0, 0)
    }

    /// [`Self::enter`] with a deterministic sim stamp `t` and tag
    /// `arg` carried into the trace event the guard emits on drop
    /// (when tracing is on). The guard's event is host-timed and
    /// therefore per-run.
    pub fn enter_tagged(&self, t: u64, arg: u64) -> SpanGuard {
        if !enabled() {
            return SpanGuard(None);
        }
        self.0.add(SLOT_ENTERS, 1);
        // `0` means "tracing was off at entry"; the first reading after
        // the epoch initializes can legitimately be 0ns, so floor at 1.
        let start_ns = if trace::active() {
            host_clock_ns().max(1)
        } else {
            0
        };
        SpanGuard(Some(GuardInner {
            entry: Arc::clone(&self.0),
            started: Instant::now(),
            start_ns,
            t,
            arg,
        }))
    }

    /// Charge `secs` of *simulated* time to the stage — call alongside
    /// the corresponding `SimClock::charge`. No-op while disabled.
    pub fn charge_sim(&self, secs: u64) {
        if !enabled() {
            return;
        }
        self.0.add(SLOT_SIM, secs);
    }

    /// [`Self::charge_sim`] that also emits a *stable* charge event at
    /// sim stamp `t` with tag `arg` (when tracing is on).
    pub fn charge_sim_tagged(&self, secs: u64, t: u64, arg: u64) {
        if !enabled() {
            return;
        }
        self.0.add(SLOT_SIM, secs);
        if trace::active() {
            trace::record(TraceEvent {
                stage: self.0.name,
                kind: EventKind::Charge,
                class: Class::Stable,
                t,
                dur: secs,
                arg,
                shard: shard_index() as u64,
                host_start_ns: 0,
                host_dur_ns: 0,
            });
        }
    }

    /// Record one sim-timed scope: bumps the enter count, charges
    /// `dur` sim units, and emits a *stable* `sim_span` event at sim
    /// stamp `t` (when tracing is on). The serve kernel uses this for
    /// per-request phases whose start and duration come from the
    /// simulated clock.
    pub fn span_sim(&self, t: u64, dur: u64, arg: u64) {
        if !enabled() {
            return;
        }
        self.0.add(SLOT_ENTERS, 1);
        self.0.add(SLOT_SIM, dur);
        if trace::active() {
            trace::record(TraceEvent {
                stage: self.0.name,
                kind: EventKind::SimSpan,
                class: Class::Stable,
                t,
                dur,
                arg,
                shard: shard_index() as u64,
                host_start_ns: 0,
                host_dur_ns: 0,
            });
        }
    }

    /// Emit a *stable* point event at sim stamp `t` with tag `arg`
    /// and bump the enter count (when tracing is on; the enter is
    /// counted whenever recording is enabled).
    pub fn instant(&self, t: u64, arg: u64) {
        if !enabled() {
            return;
        }
        self.0.add(SLOT_ENTERS, 1);
        if trace::active() {
            trace::record(TraceEvent {
                stage: self.0.name,
                kind: EventKind::Instant,
                class: Class::Stable,
                t,
                dur: 0,
                arg,
                shard: shard_index() as u64,
                host_start_ns: 0,
                host_dur_ns: 0,
            });
        }
    }
}

#[derive(Debug)]
struct GuardInner {
    entry: Arc<StageEntry>,
    started: Instant,
    /// Host ns since the span epoch when the guard was taken; 0 when
    /// tracing was off at entry (no event will be emitted).
    start_ns: u64,
    t: u64,
    arg: u64,
}

/// Scope guard returned by [`Stage::enter`]; its drop charges the
/// elapsed monotonic host time to the stage and, when tracing is on,
/// emits a per-run host-timed span event.
#[derive(Debug)]
pub struct SpanGuard(Option<GuardInner>);

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(g) = self.0.take() {
            let nanos = u64::try_from(g.started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            g.entry.add(SLOT_HOST, nanos);
            if g.start_ns > 0 && trace::active() {
                trace::record(TraceEvent {
                    stage: g.entry.name,
                    kind: EventKind::Span,
                    class: Class::PerRun,
                    t: g.t,
                    dur: 0,
                    arg: g.arg,
                    shard: shard_index() as u64,
                    host_start_ns: g.start_ns,
                    host_dur_ns: nanos,
                });
            }
        }
    }
}

/// One stage's identity and merged totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageSnapshot {
    /// Registered name.
    pub name: &'static str,
    /// Static parent name, if any (resolved at dump time; an
    /// unregistered parent renders the stage as a root).
    pub parent: Option<&'static str>,
    /// Times entered.
    pub enters: u64,
    /// Simulated seconds charged.
    pub sim_secs: u64,
    /// Monotonic host nanoseconds accumulated by guards (per-run).
    pub host_nanos: u64,
}

/// Merge every registered stage, sorted by name.
pub fn snapshot() -> Vec<StageSnapshot> {
    let entries: Vec<Arc<StageEntry>> = {
        let reg = registry().lock().unwrap_or_else(|e| e.into_inner());
        reg.iter().map(Arc::clone).collect()
    };
    let mut out: Vec<StageSnapshot> = entries
        .iter()
        .map(|e| StageSnapshot {
            name: e.name,
            parent: e.parent,
            enters: e.sum_slot(SLOT_ENTERS),
            sim_secs: e.sum_slot(SLOT_SIM),
            host_nanos: e.sum_slot(SLOT_HOST),
        })
        .collect();
    out.sort_by(|a, b| a.name.cmp(b.name));
    out
}

/// The merged totals of the stage named `name`, if registered. For
/// tests and reconciliation checks.
pub fn stage_totals(name: &str) -> Option<StageSnapshot> {
    snapshot().into_iter().find(|s| s.name == name)
}

/// Zero every cell of every registered stage, in place.
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
    fn enters_and_sim_accumulate_host_time_moves() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        crate::reset();
        let s = Stage::register("test.span.stage", Some("test.span.parent"));
        {
            let _guard = s.enter();
            s.charge_sim(4);
        }
        {
            let _guard = s.enter();
            s.charge_sim(2);
        }
        let Some(t) = stage_totals("test.span.stage") else {
            panic!("stage missing");
        };
        assert_eq!(t.enters, 2);
        assert_eq!(t.sim_secs, 6);
        assert_eq!(t.parent, Some("test.span.parent"));
        crate::set_enabled(false);
    }

    #[test]
    fn disabled_enter_is_a_noop() {
        let _g = crate::test_guard();
        crate::set_enabled(false);
        crate::reset();
        let s = Stage::register("test.span.disabled", None);
        {
            let _guard = s.enter();
            s.charge_sim(10);
        }
        let Some(t) = stage_totals("test.span.disabled") else {
            panic!("stage missing");
        };
        assert_eq!((t.enters, t.sim_secs, t.host_nanos), (0, 0, 0));
    }

    #[test]
    fn first_parent_wins() {
        let _g = crate::test_guard();
        let a = Stage::register("test.span.dupparent", Some("p1"));
        let b = Stage::register("test.span.dupparent", Some("p2"));
        assert_eq!(a.0.parent, Some("p1"));
        assert_eq!(b.0.parent, Some("p1"));
    }
}
