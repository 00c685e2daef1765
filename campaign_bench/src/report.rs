//! The benchmark's output: a human-readable table, one `info` JSON line
//! (host facts, seeds, sample counts) and the final result line.

use std::fmt::Write as _;

/// A value recorded in the `info` line.
#[derive(Debug, Clone, PartialEq)]
pub enum Info {
    /// A string.
    Text(String),
    /// A number.
    Number(f64),
}

/// Everything one run reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    info: Vec<(String, Info)>,
    /// Operations attempted (mutant verdicts, reruns, walks).
    pub attempted: u64,
    /// Attempted operations whose output was wrong.
    pub failed: u64,
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out
}

fn number(value: f64) -> String {
    assert!(value.is_finite(), "a reported value must be finite");
    // `Display` for f64 prints every significant digit, never an exponent.
    format!("{value}")
}

impl Report {
    /// Records a metric. Names must be unique within a run.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(
            self.metrics.iter().all(|(n, _, _)| n != name),
            "metric {name} reported twice"
        );
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// Records a string fact for the `info` line.
    pub fn text(&mut self, key: &str, value: impl Into<String>) {
        self.info.push((key.to_owned(), Info::Text(value.into())));
    }

    /// Records a numeric fact for the `info` line.
    pub fn number(&mut self, key: &str, value: f64) {
        self.info.push((key.to_owned(), Info::Number(value)));
    }

    /// `failed / attempted`.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// One `name value unit` line per metric.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for (name, value, unit) in &self.metrics {
            let _ = writeln!(out, "{name:<22} {value:>16.6} {unit}");
        }
        let _ = writeln!(
            out,
            "{:<22} {:>16.6} ratio ({} of {} failed)",
            "failed_frac",
            self.failed_frac(),
            self.failed,
            self.attempted
        );
        out
    }

    /// The `{"info": {...}}` line.
    pub fn render_info(&self) -> String {
        let fields: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| {
                let v = match v {
                    Info::Text(s) => format!("\"{}\"", escape(s)),
                    Info::Number(n) => number(*n),
                };
                format!("\"{}\": {v}", escape(k))
            })
            .collect();
        format!("{{\"info\": {{{}}}}}", fields.join(", "))
    }

    /// The final result line: `correct`, `attempted`, `failed`, `metrics`.
    pub fn render_result(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    escape(name),
                    number(*value),
                    escape(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
