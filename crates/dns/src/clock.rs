//! Deterministic simulated time.
//!
//! The study spans nine semi-annual snapshots (June 2017 – June 2021); the
//! simulation advances a shared clock to each snapshot date, which drives
//! DNS TTL expiry and certificate validity windows. No wall-clock time is
//! ever consulted, keeping every run reproducible.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;


/// Seconds since the Unix epoch, as used throughout the simulation.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default,
)]
pub struct Timestamp(pub u64);

impl Timestamp {
    /// Construct from a civil date (UTC midnight). Uses Howard Hinnant's
    /// `days_from_civil` algorithm; valid for all dates of interest.
    pub fn from_ymd(year: i64, month: u32, day: u32) -> Timestamp {
        let y = if month <= 2 { year - 1 } else { year };
        let era = if y >= 0 { y } else { y - 399 } / 400;
        let yoe = (y - era * 400) as u64; // [0, 399]
        let m = month as u64;
        let d = day as u64;
        let doy = (153 * (if m > 2 { m - 3 } else { m + 9 }) + 2) / 5 + d - 1; // [0, 365]
        let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy; // [0, 146096]
        let days = era * 146097 + doe as i64 - 719468;
        Timestamp((days as u64) * 86_400)
    }

    /// Decompose into (year, month, day) UTC.
    pub fn to_ymd(self) -> (i64, u32, u32) {
        let z = (self.0 / 86_400) as i64 + 719_468;
        let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
        let doe = (z - era * 146_097) as u64; // [0, 146096]
        let yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365; // [0, 399]
        let y = yoe as i64 + era * 400;
        let doy = doe - (365 * yoe + yoe / 4 - yoe / 100); // [0, 365]
        let mp = (5 * doy + 2) / 153; // [0, 11]
        let d = (doy - (153 * mp + 2) / 5 + 1) as u32; // [1, 31]
        let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32; // [1, 12]
        (if m <= 2 { y + 1 } else { y }, m, d)
    }

    /// Seconds since epoch.
    pub fn secs(self) -> u64 {
        self.0
    }

    /// Add a number of days.
    pub fn plus_days(self, days: u64) -> Timestamp {
        Timestamp(self.0 + days * 86_400)
    }

    /// ISO `YYYY-MM` label, the granularity the paper's x-axes use.
    pub fn ym_label(self) -> String {
        let (y, m, _) = self.to_ymd();
        format!("{y:04}-{m:02}")
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (y, m, d) = self.to_ymd();
        write!(f, "{y:04}-{m:02}-{d:02}")
    }
}

/// A shared, monotonically advancing simulated clock.
///
/// Cloning shares the underlying instant (it is an `Arc`).
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now: Arc<AtomicU64>,
    charged: Arc<AtomicU64>,
}

impl SimClock {
    /// A clock starting at the Unix epoch.
    pub fn new() -> Self {
        Self::default()
    }

    /// A clock starting at `t`.
    pub fn starting_at(t: Timestamp) -> Self {
        let c = Self::new();
        c.set(t);
        c
    }

    /// Current simulated time.
    pub fn now(&self) -> Timestamp {
        Timestamp(self.now.load(Ordering::Relaxed))
    }

    /// Jump to an absolute time. Panics if this would move time backwards —
    /// TTL caches and certificate validity assume monotonic time.
    pub fn set(&self, t: Timestamp) {
        let prev = self.now.swap(t.0, Ordering::Relaxed);
        assert!(prev <= t.0, "SimClock moved backwards: {prev} -> {}", t.0);
    }

    /// Advance by `secs` seconds.
    pub fn advance_secs(&self, secs: u64) {
        self.now.fetch_add(secs, Ordering::Relaxed);
    }

    /// Advance by whole days.
    pub fn advance_days(&self, days: u64) {
        self.advance_secs(days * 86_400);
    }

    /// Charge simulated cost (retry backoff, tarpit waits) WITHOUT
    /// advancing `now`. Advancing shared time from concurrently running
    /// workers would make TTL expiry and certificate validity depend on
    /// scheduling order; atomic adds to a side counter commute, so the
    /// total stays thread-count invariant while `now` stays stable
    /// within a round.
    pub fn charge(&self, secs: u64) {
        self.charged.fetch_add(secs, Ordering::Relaxed);
    }

    /// Total simulated seconds charged via [`SimClock::charge`] since
    /// construction (shared across clones).
    pub fn charged(&self) -> u64 {
        self.charged.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epoch_roundtrip() {
        assert_eq!(Timestamp::from_ymd(1970, 1, 1).secs(), 0);
        assert_eq!(Timestamp(0).to_ymd(), (1970, 1, 1));
    }

    #[test]
    fn known_dates() {
        // The paper's snapshot anchors.
        let t = Timestamp::from_ymd(2017, 6, 8);
        assert_eq!(t.to_string(), "2017-06-08");
        let t = Timestamp::from_ymd(2021, 6, 8);
        assert_eq!(t.to_string(), "2021-06-08");
        assert_eq!(t.ym_label(), "2021-06");
    }

    #[test]
    fn ymd_roundtrip_sweep() {
        // Every 17 days across the study period round-trips exactly.
        let mut t = Timestamp::from_ymd(2016, 1, 1);
        let end = Timestamp::from_ymd(2023, 1, 1);
        while t < end {
            let (y, m, d) = t.to_ymd();
            assert_eq!(Timestamp::from_ymd(y, m, d), t);
            t = t.plus_days(17);
        }
    }

    #[test]
    fn leap_years() {
        assert_eq!(
            Timestamp::from_ymd(2020, 2, 29).plus_days(1).to_ymd(),
            (2020, 3, 1)
        );
        assert_eq!(
            Timestamp::from_ymd(2019, 2, 28).plus_days(1).to_ymd(),
            (2019, 3, 1)
        );
    }

    #[test]
    fn clock_advances_and_shares() {
        let c = SimClock::starting_at(Timestamp::from_ymd(2017, 6, 8));
        let c2 = c.clone();
        c.advance_days(183);
        assert_eq!(c2.now(), Timestamp::from_ymd(2017, 12, 8));
    }

    #[test]
    fn charge_accumulates_without_advancing_now() {
        let c = SimClock::starting_at(Timestamp::from_ymd(2020, 1, 1));
        let c2 = c.clone();
        c.charge(30);
        c2.charge(12);
        assert_eq!(c.charged(), 42);
        assert_eq!(c2.charged(), 42);
        assert_eq!(c.now(), Timestamp::from_ymd(2020, 1, 1));
    }

    #[test]
    #[should_panic(expected = "moved backwards")]
    fn clock_is_monotonic() {
        let c = SimClock::starting_at(Timestamp::from_ymd(2020, 1, 1));
        c.set(Timestamp::from_ymd(2019, 1, 1));
    }
}
