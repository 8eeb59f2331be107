//! Order statistics and the printed metric list.

use ets_obs::JsonWriter;

/// Linear-interpolated quantile `q ∈ [0, 1]` of `xs`; NaN when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Metrics in the order they were measured, each with its unit.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }

    /// Names of metrics that did not come out as finite numbers.
    pub fn non_finite(&self) -> Vec<&str> {
        self.0
            .iter()
            .filter(|(_, v, _)| !v.is_finite())
            .map(|(n, _, _)| n.as_str())
            .collect()
    }

    /// One `name value unit` line per metric, for people reading the log.
    pub fn table(&self) -> String {
        let width = self.0.iter().map(|(n, _, _)| n.len()).max().unwrap_or(0);
        self.0
            .iter()
            .map(|(n, v, u)| format!("{n:<width$}  {v:>14.4} {u}\n"))
            .collect()
    }

    /// The result object the benchmark ends its output with.
    pub fn result_json(&self, correct: bool, attempted: u64, failed: u64) -> String {
        let mut w = JsonWriter::new();
        w.begin_object()
            .field_bool("correct", correct)
            .field_u64("attempted", attempted)
            .field_u64("failed", failed)
            .key("metrics")
            .begin_object();
        for (name, value, unit) in &self.0 {
            w.key(name)
                .begin_object()
                .field_f64("value", *value)
                .field_str("unit", unit)
                .end_object();
        }
        w.end_object().end_object();
        w.finish()
    }
}
