//! # mx-obs — deterministic observability for the measurement pipeline
//!
//! The paper's methodology is a multi-stage cascade (DNS resolution →
//! SMTP/STARTTLS scan → certificate/banner/MX inference), and after the
//! mx-par and chaos PRs it runs parallel and under fault injection. This
//! crate is the instrumentation substrate those stages record into:
//!
//! - **metrics** ([`metrics`]): counters, max-gauges and fixed-bucket
//!   histograms registered against the static name table in [`names`].
//!   Recording lands in per-worker *shards* and every aggregate is
//!   commutative (sum, max, bucket sums), so a merged snapshot is
//!   bit-identical at any thread count — the same discipline
//!   `tests/chaos_gate.rs` enforces for the measurement data itself.
//! - **spans** ([`span`]): scoped stage timers charged with *simulated*
//!   seconds (the `SimClock` cost model, deterministic) plus optional
//!   monotonic host time (inherently per-run), forming a static
//!   parent-child tree with per-stage totals.
//! - **trace events** ([`trace`]): a bounded per-shard ring of
//!   begin/end/instant events stamped with sim-time ticks (stable)
//!   plus optional host nanoseconds (per-run), merged by canonical
//!   sort into a timeline that is bit-identical across thread counts.
//!   Exporters: `mx-obs-trace/1` JSON, Chrome Trace Event Format, and
//!   folded stacks via [`attrib`].
//! - **attribution** ([`attrib`]): inclusive/exclusive time per stage,
//!   the serial fraction and Amdahl ceiling, and the critical path
//!   through the static span tree (`mx-obs-attrib/1`).
//! - **exporters** ([`export`]): a schema-versioned JSON snapshot
//!   (`mx-obs/1`) whose deterministic form excludes per-run data, a
//!   Prometheus text render, and a human-readable tree/table dump.
//!   [`json`] is the crate's own small JSON value/writer/parser so
//!   snapshots can be validated offline.
//!
//! Like `mx-par` and `mx-rng`, the crate has **zero dependencies** — it
//! sits below every other crate in the workspace (the DNS resolver and
//! the scanner record into it), so it cannot depend on any of them.
//!
//! ## Enabling
//!
//! Instrumentation is off by default; every record is then a single
//! relaxed atomic load and a branch. Turn it on with the `MX_OBS`
//! environment variable (any non-empty value other than `0`) or
//! programmatically with [`set_enabled`] — an explicit call wins over
//! the environment for the rest of the process.
//!
//! ## Call-site macros
//!
//! Handles are registered once and cached in a call-site static:
//!
//! ```
//! mx_obs::counter!("demo.example.events").add(1);
//! mx_obs::stage!("demo.example").charge_sim(3);
//! let _guard = mx_obs::stage!("demo.example").enter();
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod attrib;
pub mod export;
pub mod json;
pub mod metrics;
pub mod names;
pub mod span;
pub mod trace;

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Once;

/// Number of independent recording shards. A thread is assigned a shard
/// on first record and keeps it; shards only ever combine through
/// commutative folds (sum/max), so the merged view does not depend on
/// which thread recorded what.
pub const SHARD_COUNT: usize = 32;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ENV_READ: Once = Once::new();

/// Is instrumentation on? First call consults the `MX_OBS` environment
/// variable; afterwards this is one relaxed load (the disabled-path
/// cost every instrumented call site pays).
pub fn enabled() -> bool {
    ENV_READ.call_once(|| {
        let on = std::env::var("MX_OBS")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false);
        ENABLED.store(on, Ordering::Relaxed);
    });
    ENABLED.load(Ordering::Relaxed)
}

/// Programmatically enable/disable recording (e.g. the `--obs` CLI
/// flag). Wins over `MX_OBS`: the environment is only ever read once,
/// and this marks it as read.
pub fn set_enabled(on: bool) {
    ENV_READ.call_once(|| {});
    ENABLED.store(on, Ordering::Relaxed);
}

static TRACE_ENABLED: AtomicBool = AtomicBool::new(false);
static TRACE_ENV_READ: Once = Once::new();

/// Is trace-event recording on? Rides on top of [`enabled`]: events
/// are only recorded when both gates are up. First call consults the
/// `MX_OBS_TRACE` environment variable; afterwards this is one relaxed
/// load. The env read lives here (next to `MX_OBS`) so the trace
/// module itself contains no environment or clock access.
pub fn trace_enabled() -> bool {
    TRACE_ENV_READ.call_once(|| {
        let on = std::env::var("MX_OBS_TRACE")
            .map(|v| !v.is_empty() && v != "0")
            .unwrap_or(false);
        TRACE_ENABLED.store(on, Ordering::Relaxed);
    });
    TRACE_ENABLED.load(Ordering::Relaxed)
}

/// Programmatically enable/disable trace-event recording (e.g. the
/// `--trace` CLI flag). Wins over `MX_OBS_TRACE`, same contract as
/// [`set_enabled`].
pub fn set_trace_enabled(on: bool) {
    TRACE_ENV_READ.call_once(|| {});
    TRACE_ENABLED.store(on, Ordering::Relaxed);
}

/// The FNV-1a offset basis: the state a fresh hash starts from.
pub const FNV1A_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// One FNV-1a step: fold `bytes` into the running hash `h`. Trace
/// tags, serve's ETags and the lint's lex-cache keys all hash through
/// it, so each value is the same FNV-1a `mx_cert::fnv1a` computes.
/// Inlined across crates like the private copies it replaced: serve
/// folds each digest field through it.
#[inline]
pub fn fnv1a_step(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

static NEXT_SHARD: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static SHARD: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's shard slot, assigned round-robin on first use.
pub(crate) fn shard_index() -> usize {
    SHARD.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            return v;
        }
        let v = NEXT_SHARD.fetch_add(1, Ordering::Relaxed) % SHARD_COUNT;
        s.set(v);
        v
    })
}

/// Zero every registered metric and stage **in place**. The registry is
/// never cleared, so handles cached in call-site statics stay valid
/// across runs — `tests/obs_gate.rs` resets between thread-count runs
/// and requires the snapshots to match bit-for-bit.
pub fn reset() {
    metrics::reset_all();
    span::reset_all();
    trace::reset_all();
}

/// Serialize tests that touch the process-global registry/enable gate.
#[cfg(test)]
pub(crate) fn test_guard() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::OnceLock<std::sync::Mutex<()>> = std::sync::OnceLock::new();
    LOCK.get_or_init(|| std::sync::Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// A cached counter handle recorded in the deterministic (stable) class.
///
/// Expands to a call-site `static` holding the registered handle, so
/// the registry lock is taken once per call site, not per record.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::metrics::Counter> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| {
            $crate::metrics::Counter::register($name, $crate::metrics::Class::Stable)
        })
    }};
}

/// A cached counter handle in the per-run (volatile) class: excluded
/// from the deterministic snapshot because its value legitimately
/// varies with thread count or host scheduling (pool probes, cache
/// hit ratios).
#[macro_export]
macro_rules! counter_volatile {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::metrics::Counter> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| {
            $crate::metrics::Counter::register($name, $crate::metrics::Class::PerRun)
        })
    }};
}

/// A cached max-gauge handle (stable class).
#[macro_export]
macro_rules! gauge_max {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::metrics::Gauge> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| {
            $crate::metrics::Gauge::register($name, $crate::metrics::Class::Stable)
        })
    }};
}

/// A cached max-gauge handle in the per-run (volatile) class.
#[macro_export]
macro_rules! gauge_max_volatile {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::metrics::Gauge> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| {
            $crate::metrics::Gauge::register($name, $crate::metrics::Class::PerRun)
        })
    }};
}

/// A cached fixed-bucket histogram handle (stable class). `$bounds`
/// must be a `&'static [u64]` of inclusive upper bucket bounds.
#[macro_export]
macro_rules! histogram {
    ($name:expr, $bounds:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::metrics::Histogram> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| {
            $crate::metrics::Histogram::register($name, $crate::metrics::Class::Stable, $bounds)
        })
    }};
}

/// A cached stage handle for span recording. The optional second
/// argument names the static parent stage in the dump tree.
#[macro_export]
macro_rules! stage {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::span::Stage> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::span::Stage::register($name, ::std::option::Option::None))
    }};
    ($name:expr, $parent:expr) => {{
        static HANDLE: ::std::sync::OnceLock<$crate::span::Stage> = ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| {
            $crate::span::Stage::register($name, ::std::option::Option::Some($parent))
        })
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_are_dropped() {
        let _g = test_guard();
        set_enabled(false);
        reset();
        counter!("test.lib.disabled").add(7);
        assert_eq!(metrics::counter_value("test.lib.disabled"), 0);
        set_enabled(true);
        counter!("test.lib.disabled").add(7);
        assert_eq!(metrics::counter_value("test.lib.disabled"), 7);
        set_enabled(false);
    }

    #[test]
    fn reset_keeps_cached_handles_valid() {
        let _g = test_guard();
        set_enabled(true);
        reset();
        let c = counter!("test.lib.reset");
        c.add(3);
        assert_eq!(c.value(), 3);
        reset();
        assert_eq!(c.value(), 0, "reset zeroes in place");
        c.add(1);
        assert_eq!(c.value(), 1, "handle still live after reset");
        set_enabled(false);
    }

    #[test]
    fn shards_merge_across_threads() {
        let _g = test_guard();
        set_enabled(true);
        reset();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..100 {
                        counter!("test.lib.threads").add(1);
                    }
                })
            })
            .collect();
        for t in threads {
            let _ = t.join();
        }
        assert_eq!(metrics::counter_value("test.lib.threads"), 400);
        set_enabled(false);
    }
}
