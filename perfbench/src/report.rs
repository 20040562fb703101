//! The result line: one JSON object with `correct`, `attempted`,
//! `failed` and the named metrics, each with its unit.

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value, with all its digits.
    pub value: f64,
    /// Unit label (`ms`, `s`, `1/s`, `count`, `ratio`, ...).
    pub unit: &'static str,
}

/// What a run measured and whether every output checked out.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Ops whose outputs were checked.
    pub attempted: u64,
    /// Ops whose outputs failed a check.
    pub failed: u64,
    /// Why each failed op failed (printed to stderr, not in the result).
    pub failures: Vec<String>,
    /// The metrics, in emission order.
    pub metrics: Vec<Metric>,
    /// Run facts that are not metrics: host probe, op counts.
    pub info: Vec<(String, f64)>,
}

impl Outcome {
    /// Add a metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Add a run fact.
    pub fn info(&mut self, name: &str, value: f64) {
        self.info.push((name.to_string(), value));
    }

    /// Count one checked op; `failure` is `Some(reason)` if it failed.
    pub fn check(&mut self, failure: Option<String>) {
        let failed = u64::from(failure.is_some());
        self.tally(1, failed, failure);
    }

    /// Count `attempted` checked items of which `failed` failed, for
    /// `reason`.
    pub fn tally(&mut self, attempted: u64, failed: u64, reason: Option<String>) {
        self.attempted += attempted;
        self.failed += failed.min(attempted);
        if let Some(reason) = reason {
            if self.failures.len() < 16 {
                self.failures.push(reason);
            }
        }
    }

    /// Append another outcome's checks, metrics and facts.
    pub fn absorb(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.metrics.extend(other.metrics);
        self.info.extend(other.info);
    }

    /// Correct when at least one op ran, none failed, and every value
    /// is a finite number.
    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The value of metric `name`, if emitted.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The run facts as one JSON object.
    pub fn info_json(&self) -> String {
        let fields: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", number(*v)))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// A JSON number with every digit Rust's shortest round-trip form
/// gives; non-finite values (which make the run incorrect) print as 0.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_shape() {
        let mut o = Outcome::default();
        o.check(None);
        o.metric("setup_s", 0.8127, "s");
        assert_eq!(
            o.to_json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        o.check(Some("bad".into()));
        assert!(!o.correct());
        assert!(o.to_json().contains("\"failed\": 1"));
    }
}
