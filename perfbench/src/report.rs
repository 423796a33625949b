//! Result records and the output format: one human line per metric,
//! then the result as one JSON object on the last line of stdout.

use xlda_serve::json::{obj, Json};

/// One measured metric.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value.
    pub n: usize,
    /// How the value was formed (percentile, tail, meaning).
    pub note: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str, n: usize) -> Self {
        Metric {
            name: name.into(),
            value,
            unit,
            n,
            note: String::new(),
        }
    }

    pub fn note(mut self, note: impl Into<String>) -> Self {
        self.note = note.into();
        self
    }
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Failed checks, each naming its phase.
    pub problems: Vec<String>,
    /// Informational lines printed before the metrics.
    pub info: Vec<String>,
}

impl Outcome {
    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    /// Records a failed check in `phase`, counted in `failed`.
    pub fn fail(&mut self, phase: &str, what: impl Into<String>) {
        self.failed += 1;
        self.problems
            .push(format!("phase={phase}: {}", what.into()));
    }
}

/// The end-to-end metrics every timed run reports, in order.
/// `BENCHMARK.json` lists the same names (a test keeps them in step).
pub const END_TO_END: [&str; 6] = [
    "setup_s",
    "throughput_per_cpu_s",
    "cpu_p50_ms",
    "cpu_p95_ms",
    "fresh_cpu_p50_ms",
    "peak_rss_mb",
];

/// The final JSON line, with exactly the keys the benchmark contract
/// names.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let m = metrics
        .iter()
        .map(|m| {
            (
                m.name.as_str(),
                obj(vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.to_string())),
                ]),
            )
        })
        .collect();
    obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", obj(m)),
    ])
    .to_string()
}

/// Peak resident set (VmHWM) of a process in MB, from `/proc`.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let s = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = s
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(true, 10, 0, &[Metric::new("setup_s", 0.25, "s", 5)]);
        let v = Json::parse(&line).expect("valid JSON");
        assert_eq!(v.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(Json::as_usize), Some(10));
        assert_eq!(v.get("failed").and_then(Json::as_usize), Some(0));
        let m = v
            .get("metrics")
            .and_then(|m| m.get("setup_s"))
            .expect("metric");
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(0.25));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(peak_rss_mb("self").is_some_and(|mb| mb > 0.0));
    }
}
