//! Percentiles, the printed report, the final JSON line, and the process
//! figures read from `/proc`.

use std::path::{Path, PathBuf};

/// One reported figure.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the figure, when it is a statistic of samples.
    pub samples: Option<usize>,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples: None,
    }
}

pub fn sampled(name: impl Into<String>, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
        samples: Some(samples),
    }
}

/// Nearest-rank percentile of nanosecond samples, in microseconds.
pub fn percentile_us(samples: &mut [u64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "percentile of no samples");
    samples.sort_unstable();
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1] as f64 / 1_000.0
}

/// Mean of nanosecond samples, in microseconds (0 for none).
pub fn mean_us(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<u64>() as f64 / samples.len() as f64 / 1_000.0
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A p99 is only reported over at least this many samples.
pub const MIN_P99_SAMPLES: usize = 1000;

/// p50 and p99 of `samples` (nanoseconds) as `<prefix>_p50_us` /
/// `<prefix>_p99_us`, or nothing when there are no samples.
pub fn latency(names: [&'static str; 2], samples: &mut [u64]) -> Result<Vec<Metric>, String> {
    if samples.is_empty() {
        return Ok(Vec::new());
    }
    if samples.len() < MIN_P99_SAMPLES {
        return Err(format!(
            "{}: {} samples, a p99 needs {MIN_P99_SAMPLES}",
            names[1],
            samples.len()
        ));
    }
    let n = samples.len();
    Ok(vec![
        sampled(names[0], percentile_us(samples, 0.50), "us", n),
        sampled(names[1], percentile_us(samples, 0.99), "us", n),
    ])
}

/// Prints each figure on its own line.
pub fn print_lines(section: &str, metrics: &[Metric]) {
    for m in metrics {
        match m.samples {
            Some(n) => println!("{section} {} = {} {} (n={n})", m.name, m.value, m.unit),
            None => println!("{section} {} = {} {}", m.name, m.value, m.unit),
        }
    }
}

/// A JSON string literal. Every string this benchmark prints is plain
/// ASCII, for which Rust's debug quoting is valid JSON.
pub fn json_string(s: &str) -> String {
    format!("{s:?}")
}

/// A JSON object of already-rendered values, in the given order.
pub fn json_object(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("{k:?}: {v}")).collect();
    format!("{{{}}}", body.join(", "))
}

/// The result line: every metric with its unit. It is only printed when
/// every correctness check passed.
pub fn result_line(attempted: u64, failed: u64, metrics: &[Metric]) -> Result<String, String> {
    let mut fields = Vec::new();
    for m in metrics {
        if !m.value.is_finite() {
            return Err(format!("{} is not a finite number ({})", m.name, m.value));
        }
        let value = json_object(&[
            ("value", m.value.to_string()),
            ("unit", json_string(m.unit)),
        ]);
        fields.push((m.name.as_str(), value));
    }
    Ok(json_object(&[
        ("correct", "true".to_string()),
        ("attempted", attempted.to_string()),
        ("failed", failed.to_string()),
        ("metrics", json_object(&fields)),
    ]))
}

/// CPU time of the calling thread.
pub fn thread_cpu_s() -> Result<f64, String> {
    schedstat_s(Path::new("/proc/thread-self/schedstat"))
}

/// The calling thread's `schedstat` path as other threads can read it.
pub fn thread_schedstat() -> Result<PathBuf, String> {
    let link =
        std::fs::read_link("/proc/thread-self").map_err(|e| format!("/proc/thread-self: {e}"))?;
    let tid = link.file_name().ok_or("malformed /proc/thread-self")?;
    Ok(Path::new("/proc/self/task").join(tid).join("schedstat"))
}

/// A thread's CPU time from its `schedstat` (the scheduler's nanosecond
/// count).
pub fn schedstat_s(path: &Path) -> Result<f64, String> {
    let stat = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let ns: u64 = stat
        .split_whitespace()
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("malformed {}", path.display()))?;
    Ok(ns as f64 / 1e9)
}

/// User plus system CPU time of the whole process, exited threads
/// included (Linux reports it in 1/100 s).
pub fn process_cpu_s() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .unwrap_or("")
        .split_whitespace()
        .collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or("malformed /proc/self/stat")
    };
    Ok((ticks(11)? + ticks(12)?) as f64 / 100.0)
}

/// `VmHWM` (peak resident set) of this process.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}
