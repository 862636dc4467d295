//! Order statistics and the run's result record.

use std::time::Duration;

/// Nearest-rank quantile of unsorted samples; 0 when there are none.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Quantile `q` of a histogram given as ascending `(upper bound, count)`
/// buckets, interpolated linearly inside the bucket that holds it, from
/// the previous bucket's bound to its own, as Prometheus'
/// `histogram_quantile` does. 0 when empty.
pub fn bucket_quantile(buckets: &[(f64, f64)], q: f64) -> f64 {
    let rank = q * buckets.iter().map(|b| b.1).sum::<f64>();
    let (mut lower, mut below) = (0.0, 0.0);
    for &(upper, count) in buckets {
        if count > 0.0 && below + count >= rank {
            return lower + (upper - lower) * (rank - below) / count;
        }
        (lower, below) = (upper, below + count);
    }
    lower
}

/// [`bucket_quantile`] of `(upper bound, count)` pairs in nanoseconds,
/// returned in µs.
pub fn ns_quantile_us(buckets: &[(u64, u64)], q: f64) -> f64 {
    let buckets: Vec<(f64, f64)> = buckets.iter().map(|&(u, n)| (u as f64, n as f64)).collect();
    bucket_quantile(&buckets, q) / 1e3
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Arithmetic mean; 0 when there are none.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len().max(1) as f64
}

pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(0.0, f64::max)
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Everything one run reports: operation counts, failed correctness
/// gates, and named metrics in the order they are added.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    /// One line per failed operation or correctness gate; any makes the
    /// run incorrect.
    pub failures: Vec<String>,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn success_ratio(&self) -> f64 {
        1.0 - self.failures.len() as f64 / self.attempted.max(1) as f64
    }

    /// The result line.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!(r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#)
            })
            .collect();
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct(),
            self.attempted.max(1),
            self.failures.len(),
            metrics.join(", ")
        )
    }
}
