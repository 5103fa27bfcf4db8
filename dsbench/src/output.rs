//! The benchmark's output: one `metric` line per measurement, then the
//! result as a single JSON line (hand-written; the workspace has no serde).

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: String,
}

impl Metric {
    /// A metric.
    pub fn new(name: &str, value: f64, unit: &str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        }
    }
}

/// The human-readable line for a metric: `metric <name> <value> <unit>`.
/// Rust's float formatting is the shortest string that reads back to the
/// same value, so the line loses no digits.
pub fn metric_line(m: &Metric) -> String {
    format!("metric {} {} {}", m.name, m.value, m.unit)
}

/// Reads a line written by [`metric_line`].
pub fn parse_metric_line(line: &str) -> Option<Metric> {
    let mut parts = line.split_whitespace();
    if parts.next()? != "metric" {
        return None;
    }
    let name = parts.next()?.to_string();
    let value = parts.next()?.parse().ok()?;
    let unit = parts.next()?.to_string();
    if parts.next().is_some() {
        return None;
    }
    Some(Metric { name, value, unit })
}

/// The result line: `correct`, `attempted`, `failed`, and every metric as
/// `{"value": …, "unit": …}`. Fails on a value JSON cannot carry.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> Result<String, String> {
    let mut body = Vec::with_capacity(metrics.len());
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        // `{:?}` keeps a trailing `.0` on whole numbers, so every value
        // reads back as a float.
        body.push(format!(
            "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_lines_round_trip() {
        for m in [
            Metric::new("latency_p50_s", 1.234_567_890_123_4, "s"),
            Metric::new("queries_per_s", 71_234.5, "1/s"),
            Metric::new("slo_violation_ratio", 1.1e-3, "ratio"),
            Metric::new("control.ticks", 300.0, "count"),
        ] {
            assert_eq!(parse_metric_line(&metric_line(&m)), Some(m));
        }
        assert_eq!(parse_metric_line("# fact nproc 2"), None);
        assert_eq!(parse_metric_line("metric a 1 s extra"), None);
        assert_eq!(parse_metric_line("metric a x s"), None);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line = result_json(true, 10, 0, &[Metric::new("setup_s", 0.5, "s")]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(result_json(true, 1, 0, &[Metric::new("x", f64::NAN, "s")]).is_err());
    }
}
