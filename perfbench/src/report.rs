//! Recorded metrics and the JSON the benchmark prints.

use serde::{Map, Value};

/// A benchmark error: the run cannot produce a trustworthy result.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchError(pub String);

impl std::fmt::Display for BenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for BenchError {}

/// Result alias for benchmark code.
pub type Result<T> = std::result::Result<T, BenchError>;

/// Builds a [`BenchError`] from anything printable.
pub fn err(msg: impl std::fmt::Display) -> BenchError {
    BenchError(msg.to_string())
}

/// One recorded metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, e.g. `s`, `ms`, `count`.
    pub unit: &'static str,
    /// Samples the value was aggregated from.
    pub samples: usize,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<Metric>,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed verification.
    pub failed: u64,
    /// Why each failed op failed (first few only).
    pub failures: Vec<String>,
    /// Free-form attribution detail (per-design QoR and the like).
    pub detail: Map,
}

impl Report {
    /// Records a metric, rejecting non-finite values and duplicate names.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        value: f64,
        samples: usize,
    ) -> Result<()> {
        let name = name.into();
        if !value.is_finite() {
            return Err(err(format!("metric {name} is not finite ({value})")));
        }
        if self.metrics.iter().any(|m| m.name == name) {
            return Err(err(format!("metric {name} recorded twice")));
        }
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
        Ok(())
    }

    /// Records `value` when present; a missing statistic is an error
    /// naming the metric.
    pub fn record_some(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        value: Option<f64>,
        samples: usize,
    ) -> Result<()> {
        let name = name.into();
        match value {
            Some(v) => self.record(name, unit, v, samples),
            None => Err(err(format!(
                "metric {name} has no value ({samples} samples)"
            ))),
        }
    }

    /// Counts one attempted op and, when `failure` is set, its failure.
    pub fn op(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(why) = failure {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(why);
            }
        }
    }

    /// The recorded metrics in recording order.
    pub fn metrics(&self) -> &[Metric] {
        &self.metrics
    }

    /// Looks a recorded metric up by name.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The unit a metric was recorded in, if recorded.
    pub fn unit_of(&self, name: &str) -> Option<&'static str> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.unit)
    }

    /// Whether every attempted op verified.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The self-describing report: every metric with unit and sample
    /// count, plus failures and attribution detail.
    pub fn full_json(&self, header: Value) -> Value {
        let mut metrics = Vec::new();
        for m in &self.metrics {
            let mut o = Map::new();
            o.insert("name", Value::Str(m.name.clone()));
            o.insert("value", Value::Float(m.value));
            o.insert("unit", Value::Str(m.unit.into()));
            o.insert("samples", Value::UInt(m.samples as u64));
            metrics.push(Value::Object(o));
        }
        let mut o = Map::new();
        o.insert("header", header);
        o.insert("correct", Value::Bool(self.correct()));
        o.insert("attempted", Value::UInt(self.attempted));
        o.insert("failed", Value::UInt(self.failed));
        o.insert(
            "failures",
            Value::Array(self.failures.iter().cloned().map(Value::Str).collect()),
        );
        o.insert("metrics", Value::Array(metrics));
        o.insert("detail", Value::Object(self.detail.clone()));
        Value::Object(o)
    }

    /// The one-line result: `correct`, `attempted`, `failed` and the
    /// metrics named in `names` as `{value, unit}`.
    pub fn result_json(&self, names: &[&str]) -> Value {
        let mut metrics = Map::new();
        for m in self
            .metrics
            .iter()
            .filter(|m| names.contains(&m.name.as_str()))
        {
            let mut o = Map::new();
            o.insert("value", Value::Float(m.value));
            o.insert("unit", Value::Str(m.unit.into()));
            metrics.insert(m.name.clone(), Value::Object(o));
        }
        let mut o = Map::new();
        o.insert("correct", Value::Bool(self.correct()));
        o.insert("attempted", Value::UInt(self.attempted));
        o.insert("failed", Value::UInt(self.failed));
        o.insert("metrics", Value::Object(metrics));
        Value::Object(o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_finite_values_are_rejected_when_recorded() {
        let mut r = Report::default();
        assert!(r.record("iters_per_sec", "1/s", f64::INFINITY, 1).is_err());
        assert!(r.record("x", "s", f64::NAN, 1).is_err());
        assert!(r.record_some("y", "s", None, 0).is_err());
        assert!(r.metrics().is_empty());
        r.record("round_s", "s", 1.5, 3).unwrap();
        assert!(r.record("round_s", "s", 1.5, 3).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.record("round_s", "s", 1.25, 3).unwrap();
        r.record("legalize.solve_s", "s", 1.0, 3).unwrap();
        r.op(None);
        let line = serde_json::to_string(&r.result_json(&["round_s"])).unwrap();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"round_s":{"value":1.25,"unit":"s"}}}"#
        );
        r.op(Some("cell 3 failed".into()));
        assert!(!r.correct());
        assert_eq!(r.failed, 1);
    }
}
