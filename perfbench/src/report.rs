//! What a run reports: the metrics of its JSON result line, a readable
//! line per metric with unit and sample count, the correctness checks,
//! and the record appended to the run history.

use crate::stats::{self, label, summarize, P99};
use serde::Value;
use std::io::Write;
use std::path::Path;

#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Vec<(String, bool)>,
    /// Metrics of the result line: name, value, unit.
    pub metrics: Vec<(String, f64, String)>,
    pub lines: Vec<String>,
    pub samples: Vec<(String, Vec<f64>)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics
            .push((name.to_string(), value, unit.to_string()));
    }

    pub fn check(&mut self, what: &str, ok: bool) {
        self.checks.push((what.to_string(), ok));
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.checks.iter().all(|(_, ok)| *ok)
    }

    pub fn setup(&mut self, times: &[f64]) {
        let s = stats::median(times);
        self.metric("setup_s", s, "s");
        self.lines
            .push(format!("setup_s {s:.4} s (median of n={})", times.len()));
        self.sample("setup_s", times.to_vec());
    }

    pub fn fail_setup(mut self, why: &str) -> Outcome {
        self.attempted = self.attempted.max(1);
        self.failed += 1;
        self.check(&format!("set-up: {why}"), false);
        self
    }

    fn describe(name: &str, unit: &str, samples: &[f64]) -> String {
        let s = summarize(samples);
        let tail = match s.tail {
            Some((q, v)) => format!(", {} {v:.4} {unit}", label(q)),
            None => ", no percentile above the median has 10 samples beyond it".to_string(),
        };
        format!("{name} p50 {:.4} {unit}{tail} (n={})", s.p50, s.n)
    }

    /// A time-ordered timing sample described as `desc`: its p50 and
    /// p99, each the median over windows of at least `min_window`
    /// samples (p99 windows hold at least 1000). With `report`, the
    /// windowed p50 is the result line's `<what>_p50_ms`; otherwise the
    /// figures are only printed (see the README for why).
    pub fn timing(
        &mut self,
        what: &str,
        desc: &str,
        samples_ms: &[f64],
        min_window: usize,
        report: bool,
    ) {
        let p50 = stats::windowed(samples_ms, stats::P50, min_window);
        let p99 = stats::windowed(samples_ms, P99, 1000);
        let tag = if report {
            self.metric(&format!("{what}_p50_ms"), p50, "ms");
            format!(" [reported as {what}_p50_ms]")
        } else {
            String::new()
        };
        self.lines.push(format!(
            "{}; windowed p50 {p50:.4} ms{tag}, windowed p99 {p99:.4} ms",
            Self::describe(desc, "ms", samples_ms)
        ));
    }

    /// A figure printed for the reader but not part of the result line.
    pub fn info(&mut self, name: &str, value: f64, unit: &str, n: usize) {
        self.lines.push(format!("{name} {value:.4} {unit} (n={n})"));
    }

    pub fn lag(&mut self, lateness_ms: &[f64]) {
        let mut sorted = lateness_ms.to_vec();
        sorted.sort_by(f64::total_cmp);
        let p99 = stats::nearest_rank(&sorted, P99).unwrap_or(0.0);
        self.lines.push(format!(
            "loadgen.lag_p99_ms {p99:.4} ms (n={}; how late the open loop sent)",
            sorted.len()
        ));
    }

    pub fn sample(&mut self, name: &str, values: Vec<f64>) {
        self.samples.push((name.to_string(), values));
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                (
                    name.clone(),
                    Value::Map(vec![
                        ("value".to_string(), Value::Float(*value)),
                        ("unit".to_string(), Value::Str(unit.clone())),
                    ]),
                )
            })
            .collect();
        let v = Value::Map(vec![
            ("correct".to_string(), Value::Bool(self.correct())),
            ("attempted".to_string(), Value::UInt(self.attempted)),
            ("failed".to_string(), Value::UInt(self.failed)),
            ("metrics".to_string(), Value::Map(metrics)),
        ]);
        serde_json::to_string(&v).expect("finite metrics serialize")
    }
}

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path)
        .map(|s| s.trim().to_string())
        .unwrap_or_default()
}

fn cpuinfo_field(field: &str) -> String {
    read_trimmed("/proc/cpuinfo")
        .lines()
        .find(|l| l.starts_with(field))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
        .unwrap_or_default()
}

/// The commit when the checkout is a git work tree, else empty.
fn commit() -> String {
    let head = read_trimmed(".git/HEAD");
    match head.strip_prefix("ref: ") {
        Some(r) => read_trimmed(&format!(".git/{r}")),
        None => head,
    }
}

/// Digest of the program's sources (`src/`, `crates/`, `vendor/`), so
/// records of a checkout without git history still name the code.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, files);
            } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
                files.push(p);
            }
        }
    }
    let mut files = Vec::new();
    for root in ["src", "crates", "vendor", "Cargo.toml"] {
        let p = Path::new(root);
        if p.is_file() {
            files.push(p.to_path_buf());
        } else {
            walk(p, &mut files);
        }
    }
    files.sort();
    let mut acc = 0u64;
    for f in files {
        let bytes = std::fs::read(&f).unwrap_or_default();
        acc = sommelier_tensor::mix64(&[
            acc,
            sommelier_tensor::stable_hash64(f.to_string_lossy().as_bytes()),
            sommelier_tensor::stable_hash64(&bytes),
        ]);
    }
    format!("{acc:016x}")
}

pub fn machine() -> Value {
    let s = |v: String| Value::Str(v);
    Value::Map(vec![
        (
            "nproc".to_string(),
            Value::UInt(crate::workloads::nproc() as u64),
        ),
        ("cpu_model".to_string(), s(cpuinfo_field("model name"))),
        ("cpu_flags".to_string(), s(cpuinfo_field("flags"))),
        (
            "kernel".to_string(),
            s(read_trimmed("/proc/sys/kernel/osrelease")),
        ),
        ("commit".to_string(), s(commit())),
        ("source_digest".to_string(), s(source_digest())),
    ])
}

/// Peak resident set of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    read_trimmed("/proc/self/status")
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Append one record of this run to `.bench_records/runs.jsonl`.
pub fn append_record(
    workload: &str,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: &Outcome,
) -> std::io::Result<()> {
    let dir = Path::new(".bench_records");
    std::fs::create_dir_all(dir)?;
    let unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    let finite = |v: f64| {
        if v.is_finite() {
            Value::Float(v)
        } else {
            Value::Null
        }
    };
    let rec = Value::Map(vec![
        ("unix_time".to_string(), Value::UInt(unix)),
        ("workload".to_string(), Value::Str(workload.to_string())),
        ("seed".to_string(), Value::UInt(seed)),
        ("seconds".to_string(), Value::UInt(seconds)),
        ("trace".to_string(), Value::Bool(trace)),
        ("machine".to_string(), machine()),
        ("correct".to_string(), Value::Bool(out.correct())),
        ("attempted".to_string(), Value::UInt(out.attempted)),
        ("failed".to_string(), Value::UInt(out.failed)),
        (
            "checks".to_string(),
            Value::Map(
                out.checks
                    .iter()
                    .map(|(what, ok)| (what.clone(), Value::Bool(*ok)))
                    .collect(),
            ),
        ),
        (
            "metrics".to_string(),
            Value::Map(
                out.metrics
                    .iter()
                    .map(|(n, v, _)| (n.clone(), finite(*v)))
                    .collect(),
            ),
        ),
        (
            "samples".to_string(),
            Value::Map(
                out.samples
                    .iter()
                    .map(|(n, vs)| {
                        (
                            n.clone(),
                            Value::Seq(vs.iter().map(|v| finite(*v)).collect()),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    let line = serde_json::to_string(&rec).expect("record serializes");
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("runs.jsonl"))?;
    writeln!(f, "{line}")
}
