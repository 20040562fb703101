//! Snapshot capture and the two exporters.
//!
//! [`Snapshot::capture`] merges every registered metric and stage.
//! [`Snapshot::deterministic_json`] renders the schema-versioned form
//! the CI gate diffs: per-run metrics and host-time totals are
//! excluded, so the bytes are identical at any thread count on the
//! same seed. [`Snapshot::prometheus_text`] renders the same data as
//! a Prometheus text exposition. [`validate_snapshot`] re-parses an
//! exported document and checks it against the `mx-obs/1` schema.

use crate::json::{self, JsonError, Value};
use crate::metrics::{self, Class, MetricData, MetricSnapshot};
use crate::span::{self, StageSnapshot};

/// The exporter schema identifier carried in every snapshot.
pub const SCHEMA: &str = "mx-obs/1";

/// A merged view of every registered metric and stage, name-sorted.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// All metrics (stable and per-run).
    pub metrics: Vec<MetricSnapshot>,
    /// All stages.
    pub stages: Vec<StageSnapshot>,
}

impl Snapshot {
    /// Merge the current state of the registries.
    pub fn capture() -> Snapshot {
        Snapshot {
            metrics: metrics::snapshot(),
            stages: span::snapshot(),
        }
    }

    /// The deterministic export: stable metrics only, stages without
    /// host time. Byte-identical across thread counts and repeat runs
    /// on the same input.
    pub fn deterministic_json(&self) -> String {
        let mut root = Value::obj();
        root.insert("schema", SCHEMA.into());
        root.insert("deterministic", true.into());
        let mut marr = Value::arr();
        for m in &self.metrics {
            if m.class == Class::PerRun {
                continue;
            }
            let mut o = Value::obj();
            o.insert("name", m.name.into());
            o.insert("kind", m.kind.label().into());
            match &m.data {
                MetricData::Counter(v) | MetricData::Gauge(v) => {
                    o.insert("value", (*v).into());
                }
                MetricData::Histogram {
                    bounds,
                    buckets,
                    sum,
                    count,
                } => {
                    let mut ba = Value::arr();
                    for b in bounds {
                        ba.push((*b).into());
                    }
                    let mut ka = Value::arr();
                    for k in buckets {
                        ka.push((*k).into());
                    }
                    o.insert("bounds", ba);
                    o.insert("buckets", ka);
                    o.insert("sum", (*sum).into());
                    o.insert("count", (*count).into());
                }
            }
            marr.push(o);
        }
        root.insert("metrics", marr);
        let mut sarr = Value::arr();
        for s in &self.stages {
            let mut o = Value::obj();
            o.insert("name", s.name.into());
            if let Some(p) = s.parent {
                o.insert("parent", p.into());
            }
            o.insert("enters", s.enters.into());
            o.insert("sim_secs", s.sim_secs.into());
            sarr.push(o);
        }
        root.insert("stages", sarr);
        root.to_string_pretty()
    }

    /// Prometheus text exposition of the *stable* metrics plus the
    /// deterministic stage totals. Names have dots mapped to
    /// underscores and an `mx_` prefix; histograms render cumulative
    /// `_bucket{le=...}` series. Only deterministic data appears, so
    /// the bytes are identical at any thread count — this is the body
    /// the serve `/metrics` endpoint returns.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            if m.class == Class::PerRun {
                continue;
            }
            let name = prom_name(m.name);
            match &m.data {
                MetricData::Counter(v) => {
                    out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
                }
                MetricData::Gauge(v) => {
                    out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
                }
                MetricData::Histogram {
                    bounds,
                    buckets,
                    sum,
                    count,
                } => {
                    out.push_str(&format!("# TYPE {name} histogram\n"));
                    let mut cum = 0u64;
                    for (i, c) in buckets.iter().enumerate() {
                        cum = cum.saturating_add(*c);
                        match bounds.get(i) {
                            Some(b) => out.push_str(&format!(
                                "{name}_bucket{{le=\"{b}\"}} {cum}\n"
                            )),
                            None => out.push_str(&format!(
                                "{name}_bucket{{le=\"+Inf\"}} {cum}\n"
                            )),
                        }
                    }
                    out.push_str(&format!("{name}_sum {sum}\n{name}_count {count}\n"));
                }
            }
        }
        out.push_str("# TYPE mx_stage_enters counter\n");
        for s in &self.stages {
            out.push_str(&format!(
                "mx_stage_enters{{stage=\"{}\"}} {}\n",
                s.name, s.enters
            ));
        }
        out.push_str("# TYPE mx_stage_sim_seconds counter\n");
        for s in &self.stages {
            out.push_str(&format!(
                "mx_stage_sim_seconds{{stage=\"{}\"}} {}\n",
                s.name, s.sim_secs
            ));
        }
        out
    }
}

/// Map a dotted metric name to Prometheus form: `mx_` prefix, dots to
/// underscores, anything outside `[a-zA-Z0-9_]` to `_`.
fn prom_name(name: &str) -> String {
    let mut out = String::from("mx_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Why an exported document failed schema validation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchemaError {
    /// The document is not valid JSON.
    Parse(JsonError),
    /// The top level is not an object.
    NotAnObject,
    /// The `schema` field is missing or not `mx-obs/1`.
    WrongSchema,
    /// A required top-level field is missing or mistyped.
    MissingField(&'static str),
    /// The metric at this index is malformed.
    BadMetric(usize),
    /// Metric names are not strictly increasing at this index.
    MetricsUnsorted(usize),
    /// The stage at this index is malformed.
    BadStage(usize),
    /// Stage names are not strictly increasing at this index.
    StagesUnsorted(usize),
}

impl std::fmt::Display for SchemaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemaError::Parse(e) => write!(f, "not valid JSON: {e}"),
            SchemaError::NotAnObject => write!(f, "top level is not an object"),
            SchemaError::WrongSchema => write!(f, "schema field missing or not {SCHEMA:?}"),
            SchemaError::MissingField(k) => write!(f, "missing or mistyped field {k:?}"),
            SchemaError::BadMetric(i) => write!(f, "metric #{i} is malformed"),
            SchemaError::MetricsUnsorted(i) => write!(f, "metric names unsorted at #{i}"),
            SchemaError::BadStage(i) => write!(f, "stage #{i} is malformed"),
            SchemaError::StagesUnsorted(i) => write!(f, "stage names unsorted at #{i}"),
        }
    }
}

impl std::error::Error for SchemaError {}

/// Check an exported document against the `mx-obs/1` schema. Extra
/// fields are allowed; required ones are not optional.
pub fn validate_snapshot(text: &str) -> Result<(), SchemaError> {
    let doc = json::parse(text).map_err(SchemaError::Parse)?;
    if !matches!(doc, Value::Obj(_)) {
        return Err(SchemaError::NotAnObject);
    }
    if doc.get("schema").and_then(Value::as_str) != Some(SCHEMA) {
        return Err(SchemaError::WrongSchema);
    }
    let metrics = doc
        .get("metrics")
        .and_then(Value::as_arr)
        .ok_or(SchemaError::MissingField("metrics"))?;
    let mut prev_name: Option<&str> = None;
    for (i, m) in metrics.iter().enumerate() {
        let name = m
            .get("name")
            .and_then(Value::as_str)
            .ok_or(SchemaError::BadMetric(i))?;
        if prev_name.is_some_and(|p| p >= name) {
            return Err(SchemaError::MetricsUnsorted(i));
        }
        prev_name = Some(name);
        let kind = m
            .get("kind")
            .and_then(Value::as_str)
            .ok_or(SchemaError::BadMetric(i))?;
        match kind {
            "counter" | "gauge" => {
                m.get("value")
                    .and_then(Value::as_num)
                    .ok_or(SchemaError::BadMetric(i))?;
            }
            "histogram" => {
                let bounds = m
                    .get("bounds")
                    .and_then(Value::as_arr)
                    .ok_or(SchemaError::BadMetric(i))?;
                let buckets = m
                    .get("buckets")
                    .and_then(Value::as_arr)
                    .ok_or(SchemaError::BadMetric(i))?;
                let numeric = |vals: &[Value]| vals.iter().all(|v| v.as_num().is_some());
                if buckets.len() != bounds.len() + 1 || !numeric(bounds) || !numeric(buckets) {
                    return Err(SchemaError::BadMetric(i));
                }
                m.get("sum")
                    .and_then(Value::as_num)
                    .ok_or(SchemaError::BadMetric(i))?;
                m.get("count")
                    .and_then(Value::as_num)
                    .ok_or(SchemaError::BadMetric(i))?;
            }
            _ => return Err(SchemaError::BadMetric(i)),
        }
    }
    let stages = doc
        .get("stages")
        .and_then(Value::as_arr)
        .ok_or(SchemaError::MissingField("stages"))?;
    let mut prev_stage: Option<&str> = None;
    for (i, s) in stages.iter().enumerate() {
        let name = s
            .get("name")
            .and_then(Value::as_str)
            .ok_or(SchemaError::BadStage(i))?;
        if prev_stage.is_some_and(|p| p >= name) {
            return Err(SchemaError::StagesUnsorted(i));
        }
        prev_stage = Some(name);
        if let Some(p) = s.get("parent") {
            if p.as_str().is_none() {
                return Err(SchemaError::BadStage(i));
            }
        }
        for field in ["enters", "sim_secs"] {
            s.get(field)
                .and_then(Value::as_num)
                .ok_or(SchemaError::BadStage(i))?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{Counter, Histogram};
    use crate::span::Stage;

    #[test]
    fn exports_validate_and_deterministic_excludes_per_run() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        crate::reset();
        Counter::register("test.export.stable", Class::Stable).add(3);
        Counter::register("test.export.volatile", Class::PerRun).add(9);
        static BOUNDS: &[u64] = &[2, 8];
        Histogram::register("test.export.hist", Class::Stable, BOUNDS).observe(5);
        let st = Stage::register("test.export.stage", None);
        {
            let _e = st.enter();
            st.charge_sim(7);
        }
        let snap = Snapshot::capture();
        let det = snap.deterministic_json();
        validate_snapshot(&det).expect("deterministic form validates");
        assert!(det.contains("test.export.stable"));
        assert!(!det.contains("test.export.volatile"), "per-run excluded");
        assert!(!det.contains("host_nanos"), "host time excluded");
        crate::set_enabled(false);
    }

    #[test]
    fn prometheus_text_renders_stable_only() {
        let _g = crate::test_guard();
        crate::set_enabled(true);
        crate::reset();
        Counter::register("test.prom.stable", Class::Stable).add(4);
        Counter::register("test.prom.volatile", Class::PerRun).add(9);
        static BOUNDS: &[u64] = &[2, 8];
        let h = Histogram::register("test.prom.hist", Class::Stable, BOUNDS);
        h.observe(1);
        h.observe(5);
        h.observe(100);
        let st = Stage::register("test.prom.stage", None);
        st.charge_sim(6);
        let text = Snapshot::capture().prometheus_text();
        assert!(text.contains("# TYPE mx_test_prom_stable counter"));
        assert!(text.contains("mx_test_prom_stable 4"));
        assert!(!text.contains("test_prom_volatile"), "per-run excluded");
        assert!(text.contains("mx_test_prom_hist_bucket{le=\"2\"} 1"));
        assert!(text.contains("mx_test_prom_hist_bucket{le=\"8\"} 2"), "cumulative");
        assert!(text.contains("mx_test_prom_hist_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("mx_test_prom_hist_sum 106"));
        assert!(text.contains("mx_test_prom_hist_count 3"));
        assert!(text.contains("mx_stage_sim_seconds{stage=\"test.prom.stage\"} 6"));
        crate::set_enabled(false);
    }

    #[test]
    fn validator_rejects_drift() {
        let wrong_schema = "{\"schema\": \"mx-obs/0\", \"metrics\": [], \"stages\": []}";
        assert_eq!(validate_snapshot(wrong_schema), Err(SchemaError::WrongSchema));
        let no_stages = "{\"schema\": \"mx-obs/1\", \"metrics\": []}";
        assert_eq!(
            validate_snapshot(no_stages),
            Err(SchemaError::MissingField("stages"))
        );
        let bad_metric =
            "{\"schema\": \"mx-obs/1\", \"metrics\": [{\"name\": \"a\"}], \"stages\": []}";
        assert_eq!(validate_snapshot(bad_metric), Err(SchemaError::BadMetric(0)));
        let unsorted = "{\"schema\": \"mx-obs/1\", \"metrics\": [\
             {\"name\": \"b\", \"kind\": \"counter\", \"value\": 1},\
             {\"name\": \"a\", \"kind\": \"counter\", \"value\": 1}], \"stages\": []}";
        assert_eq!(
            validate_snapshot(unsorted),
            Err(SchemaError::MetricsUnsorted(1))
        );
        assert!(matches!(
            validate_snapshot("not json"),
            Err(SchemaError::Parse(_))
        ));
    }
}
