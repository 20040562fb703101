//! End-to-end and per-layer benchmark of the mxmap workspace.
//!
//! Three workloads drive the system only through the public functions
//! of its crates, each from a seed: `study` (observe, infer and
//! store-write at the last snapshot of the 32k-domain study), `delta`
//! (one incremental epoch per op) and `serve` (a seeded HTTP replay over
//! a snapshot store). An untraced run reports the end-to-end metrics; a
//! traced run builds the per-layer table by timing calls into each
//! layer's public functions and reading the obs counters. `README.md`
//! gives each workload's reason and which layer metric moves which
//! end-to-end metric.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod delta;
pub mod measure;
pub mod report;
pub mod serve;
pub mod study;

use std::fmt;

use mx_corpus::ScenarioConfig;
use mx_store::StoreReader;

use measure::{median, percentile, Ops};
use report::Outcome;

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Observe, infer and store-write the whole study snapshot.
    Study,
    /// One incremental reconciler epoch per op.
    Delta,
    /// One seeded HTTP trace replay per op.
    Serve,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 3] = [Workload::Study, Workload::Delta, Workload::Serve];

    /// The workload named `s`.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The workload's name on the command line and in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Study => "study",
            Workload::Delta => "delta",
            Workload::Serve => "serve",
        }
    }
}

/// Input sizes of a run. [`Scale::full`] is the benchmark;
/// [`Scale::tiny`] keeps the benchmark's own tests fast.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Scenario of the `study` workload.
    pub study: fn(u64) -> ScenarioConfig,
    /// Initial population of the `delta` workload.
    pub delta_domains: usize,
    /// Event batches (ops) per `delta` set-up.
    pub delta_batches: usize,
    /// Requests per `serve` trace.
    pub serve_requests: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    /// Fewest timed ops in a run.
    pub min_ops: usize,
}

impl Scale {
    /// The benchmark's inputs.
    pub fn full() -> Scale {
        Scale {
            study: ScenarioConfig::study,
            delta_domains: 32_768,
            delta_batches: 24,
            serve_requests: 3_600,
            setup_reps: 5,
            min_ops: 5,
        }
    }

    /// Small inputs for the benchmark's own tests.
    pub fn tiny() -> Scale {
        Scale {
            study: ScenarioConfig::small,
            delta_domains: 400,
            delta_batches: 3,
            serve_requests: 200,
            setup_reps: 2,
            min_ops: 2,
        }
    }
}

/// Why a run could not produce a result.
#[derive(Debug)]
pub enum Failure {
    /// A host reading (`/proc`) failed.
    Host(String),
    /// The store codec refused an input the workload built.
    Store(mx_store::StoreError),
    /// The delta reconciler or event codec failed.
    Delta(mx_delta::DeltaError),
    /// The workload's inputs are not what it needs.
    Input(String),
}

impl fmt::Display for Failure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Failure::Host(m) => write!(f, "host reading: {m}"),
            Failure::Store(e) => write!(f, "store: {e:?}"),
            Failure::Delta(e) => write!(f, "delta: {e:?}"),
            Failure::Input(m) => write!(f, "input: {m}"),
        }
    }
}

impl From<mx_store::StoreError> for Failure {
    fn from(e: mx_store::StoreError) -> Self {
        Failure::Store(e)
    }
}

impl From<mx_delta::DeltaError> for Failure {
    fn from(e: mx_delta::DeltaError) -> Self {
        Failure::Delta(e)
    }
}

/// Run one workload at width 1 with obs off (`trace == false`), or the
/// traced run, which builds the whole per-layer table whichever
/// workload it is given.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: &Scale,
) -> Result<Outcome, Failure> {
    mx_obs::set_enabled(false);
    mx_obs::set_trace_enabled(false);
    let probe_before = measure::host_probe_ms();
    let mut out = mx_par::install(1, || {
        if trace {
            let mut out = study::layers(seed, scale)?;
            out.absorb(delta::layers(seed, scale)?);
            out.absorb(serve::layers(seed, scale)?);
            Ok::<Outcome, Failure>(out)
        } else {
            match workload {
                Workload::Study => study::run(seed, seconds, scale),
                Workload::Delta => delta::run(seed, seconds, scale),
                Workload::Serve => serve::run(seed, seconds, scale),
            }
        }
    })?;
    let probe_after = measure::host_probe_ms();
    if trace {
        out.metric("host.probe_ms", median(&[probe_before, probe_after]), "ms");
    }
    out.info("host_probe_ms_before", probe_before);
    out.info("host_probe_ms_after", probe_after);
    out.info(
        "available_parallelism",
        std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64),
    );
    out.info("seed", seed as f64);
    Ok(out)
}

/// Add the end-to-end metrics every workload reports, and the run
/// facts that go with them.
///
/// A shared host alternates, in phases of seconds, between an
/// uncontended speed and one about 1.5× slower, and the share of a run spent in
/// each phase differs from run to run. A statistic that mixes the two
/// (mean throughput, the median op, CPU per item) moves with that share;
/// the 90th-percentile op sits in the slow phase, which every run
/// meets. So `op_p90_ms` is the bounded time metric, and the mixing
/// statistics are printed as run facts only.
fn end_to_end(
    out: &mut Outcome,
    setup_s: &[f64],
    ops: &Ops,
    store_bytes_per_row: f64,
) -> Result<(), Failure> {
    out.metric("setup_s", median(setup_s), "s");
    out.metric("op_p90_ms", percentile(&ops.op_ms, 90.0), "ms");
    out.metric("peak_rss_mb", measure::peak_rss_mb()?, "MiB");
    out.metric("store_bytes_per_row", store_bytes_per_row, "B");
    out.metric(
        "ok_ratio",
        (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64,
        "ratio",
    );
    out.info("items_per_s", ops.items as f64 / ops.timed_s().max(1e-9));
    out.info("op_p50_ms", median(&ops.op_ms));
    out.info(
        "cpu_us_per_item",
        ops.cpu_ns as f64 / 1e3 / ops.items.max(1) as f64,
    );
    out.info("ops", ops.op_ms.len() as f64);
    out.info("op_p10_ms", percentile(&ops.op_ms, 10.0));
    out.info("op_max_ms", percentile(&ops.op_ms, 100.0));
    out.info("items", ops.items as f64);
    out.info("timed_s", ops.timed_s());
    out.info("setups", setup_s.len() as f64);
    Ok(())
}

/// Rows over every epoch of a store file.
fn store_rows(bytes: &[u8]) -> Result<u64, Failure> {
    let reader = StoreReader::open(bytes)?;
    let mut rows = 0u64;
    for epoch in 0..reader.epoch_count() {
        reader.for_each_row(epoch, |_, _| {
            rows += 1;
            Ok(())
        })?;
    }
    Ok(rows)
}

/// `1 - explained / total`: the share of an op's wall time that the
/// timed layer calls do not account for.
fn unexplained(explained_ms: f64, total_ms: f64) -> f64 {
    1.0 - explained_ms / total_ms.max(1e-9)
}
