//! The result line the benchmark prints last, and the result file it
//! writes next to it.

use crate::catalog;
use std::collections::BTreeMap;

/// Outcome of one run of one workload.
#[derive(Default)]
pub struct Outcome {
    /// Nothing failed and no output disagreed with the reference
    /// simulator.
    pub correct: bool,
    /// Testbenches or requests attempted in the timed phase.
    pub attempted: u64,
    /// Of those: errored, rejected, missed their schedule, or mismatched.
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    pub fn add(&mut self, name: impl Into<String>, value: f64) {
        *self.metrics.entry(name.into()).or_insert(0.0) += value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.metrics.get(name).copied().unwrap_or(0.0)
    }

    /// The printed metric list: every end-to-end metric for an untraced
    /// run, every per-layer metric for a traced one.
    pub fn selected(&self, trace: bool) -> Vec<(String, &'static str, f64)> {
        if trace {
            catalog::per_layer()
                .into_iter()
                .map(|(name, unit)| {
                    let v = self.get(&name);
                    (name, unit, v)
                })
                .collect()
        } else {
            catalog::END_TO_END
                .iter()
                .map(|&(name, unit)| {
                    let v = *self
                        .metrics
                        .get(name)
                        .unwrap_or_else(|| panic!("workload did not measure `{name}`"));
                    (name.to_string(), unit, v)
                })
                .collect()
        }
    }

    /// The single-line JSON result.
    pub fn to_json_line(&self, trace: bool) -> String {
        let metrics: Vec<String> = self
            .selected(trace)
            .into_iter()
            .map(|(name, unit, v)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    number(v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn number(v: f64) -> String {
    assert!(v.is_finite(), "a metric measured {v}");
    format!("{v}")
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
