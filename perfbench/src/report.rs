//! Named metrics and the one-line JSON result.

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// A measured metric.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self { name, unit, value }
    }
}

/// Everything one benchmark run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every returned answer that claimed convergence met the tolerance,
    /// and every consistency check held.
    pub correct: bool,
    /// Requests issued.
    pub attempted: u64,
    /// Requests that did not return a verified answer in their budget.
    pub failed: u64,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Multi-process runs checked bit for bit against their in-process
    /// twin.
    pub twin_checks: u64,
    /// Human-readable lines describing failed checks.
    pub problems: Vec<String>,
}

impl Outcome {
    /// Look a metric up by name.
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    ///
    /// # Errors
    /// Refuses a non-finite value: JSON has no spelling for it.
    pub fn to_json(&self) -> Result<String, String> {
        let mut parts = Vec::with_capacity(self.metrics.len());
        for m in &self.metrics {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite: {}", m.name, m.value));
            }
            parts.push(format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            parts.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_the_contract_keys() {
        let o = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            metrics: vec![
                Metric::new("setup_s", "s", 0.25),
                Metric::new("core.busy_frac", "frac", 0.5),
            ],
            ..Default::default()
        };
        assert_eq!(
            o.to_json().expect("finite"),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \
             \"core.busy_frac\": {\"value\": 0.5, \"unit\": \"frac\"}}}"
        );
        let bad = Outcome {
            metrics: vec![Metric::new("x", "s", f64::NAN)],
            ..Default::default()
        };
        assert!(bad.to_json().is_err());
    }
}
