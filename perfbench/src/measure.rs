//! Clocks and summaries: per-op wall time, thread CPU over a timed
//! region, peak RSS, the host-speed probe, and order statistics.

use std::time::{Duration, Instant};

use crate::Failure;

/// CPU time the calling thread has run, in nanoseconds, from
/// `/proc/thread-self/schedstat`. The kernel advances this counter at
/// scheduler ticks (4 ms steps on a 250 Hz kernel), so it is read only
/// at the edges of a whole timed region, never around a single op.
pub fn thread_cpu_ns() -> Result<u64, Failure> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat")
        .map_err(|e| Failure::Host(format!("read schedstat: {e}")))?;
    text.split_whitespace()
        .next()
        .and_then(|f| f.parse().ok())
        .ok_or_else(|| Failure::Host(format!("unparsable schedstat {text:?}")))
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, Failure> {
    let text = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| Failure::Host(format!("read status: {e}")))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| Failure::Host("no VmHWM in /proc/self/status".into()))
}

/// Fixed-work host-speed probe: a serial integer hash chain of a fixed
/// length, in milliseconds. Recorded beside each run's results so host
/// drift can be told apart from a code change; no metric is scaled by it.
pub fn host_probe_ms() -> f64 {
    const STEPS: u64 = 20_000_000;
    let t = Instant::now();
    let mut h = std::hint::black_box(0xcbf2_9ce4_8422_2325u64);
    for i in 0..STEPS {
        h = (h ^ i).wrapping_mul(0x0100_0000_01b3).rotate_left(5);
    }
    std::hint::black_box(h);
    ms(t.elapsed())
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile `p` (0..=100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// The median of `values` (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Accumulates the timed ops of a run.
///
/// Each op's wall time is taken around the public call alone; the
/// thread CPU is read at the start and end of each contiguous timed
/// region (the per-op output checks inside a region are cheap next to
/// the ops and are included).
#[derive(Debug, Default)]
pub struct Ops {
    /// Wall time of each timed op, in milliseconds.
    pub op_ms: Vec<f64>,
    /// Items over all timed ops.
    pub items: u64,
    /// Thread CPU over all timed regions, in nanoseconds.
    pub cpu_ns: u64,
    region_start: Option<u64>,
}

impl Ops {
    /// Open a timed region.
    pub fn begin(&mut self) -> Result<(), Failure> {
        self.region_start = Some(thread_cpu_ns()?);
        Ok(())
    }

    /// Close the open timed region, if any, adding its CPU time.
    pub fn end(&mut self) -> Result<(), Failure> {
        if let Some(start) = self.region_start.take() {
            self.cpu_ns += thread_cpu_ns()?.saturating_sub(start);
        }
        Ok(())
    }

    /// Record one op that produced `items` in `wall`.
    pub fn record(&mut self, wall: Duration, items: u64) {
        self.op_ms.push(ms(wall));
        self.items += items;
    }

    /// Summed wall time of the recorded ops, in seconds.
    pub fn timed_s(&self) -> f64 {
        self.op_ms.iter().sum::<f64>() / 1e3
    }

    /// Has the run measured `seconds` of ops and at least `min_ops`?
    pub fn done(&self, seconds: f64, min_ops: usize) -> bool {
        self.op_ms.len() >= min_ops && self.timed_s() >= seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(percentile(&v, 90.0), 5.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&[], 90.0), 0.0);
    }

    #[test]
    fn host_readings_are_available() {
        assert!(thread_cpu_ns().is_ok());
        assert!(peak_rss_mb().expect("VmHWM") > 0.0);
        assert!(host_probe_ms() > 0.0);
    }
}
