//! Result bookkeeping: operation tallies, nearest-rank percentiles, metric
//! names, peak memory, and the one-line JSON result.

use std::fmt::Write as _;
use std::time::Duration;

use dspcc::arch::SplitMix64;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// Latency samples kept per run. Beyond this many operations the samples
/// are a uniform random subset (reservoir sampling), so memory use — and
/// `peak_rss_mb` — does not grow with the speed of the program.
pub const RESERVOIR: usize = 200_000;

/// Operations attempted and failed, with a uniform sample of their
/// latencies.
#[derive(Debug)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the human-readable report.
    pub failures: Vec<String>,
    pub latencies_ms: Vec<f64>,
    reservoir_rng: SplitMix64,
}

impl Default for Tally {
    fn default() -> Self {
        Tally {
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            latencies_ms: Vec::new(),
            reservoir_rng: SplitMix64::new(0x7A11),
        }
    }
}

impl Tally {
    /// Records one attempted operation and its latency.
    pub fn attempt(&mut self, latency: Duration) {
        self.attempted += 1;
        let ms = latency.as_secs_f64() * 1e3;
        if self.latencies_ms.len() < RESERVOIR {
            self.latencies_ms.push(ms);
        } else {
            let slot = self.reservoir_rng.next_u64() % self.attempted;
            if let Some(kept) = self.latencies_ms.get_mut(slot as usize) {
                *kept = ms;
            }
        }
    }

    /// Marks the last attempted operation as failed.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(why);
        }
    }

    /// Failed operations / attempted operations.
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of ascending `sorted`: the
/// value at rank ⌈p/100 · n⌉.
///
/// Refuses a percentile that has fewer than ten samples beyond it, because
/// such a tail is one or two outliers rather than a measured percentile.
/// The maximum (`p == 100`) is exempt.
pub fn percentile(sorted: &[f64], p: f64) -> Result<f64, String> {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
    let n = sorted.len();
    if n == 0 {
        return Err(format!("p{p} of an empty sample"));
    }
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    let rank = rank.clamp(1, n);
    let beyond = n - rank;
    if p < 100.0 && beyond < 10 {
        return Err(format!(
            "p{p} of {n} samples has only {beyond} samples beyond it (need 10)"
        ));
    }
    Ok(sorted[rank - 1])
}

/// Sorts `values` ascending (NaN-free input).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    v
}

/// Median of a small sample (setup repetitions); the lower middle value
/// for an even count, so it is always a measured value.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    v[(v.len() - 1) / 2]
}

/// A metric name starts with a letter or digit and is made of at most 64
/// letters, digits, `_`, `.` and `-`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn json_line(correct: bool, tally: &Tally, metrics: &[Metric]) -> Result<String, String> {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted, tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if !valid_metric_name(m.name) {
            return Err(format!("invalid metric name `{}`", m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric `{}` is not finite: {}", m.name, m.value));
        }
        if metrics[..i].iter().any(|o| o.name == m.name) {
            return Err(format!("metric `{}` reported twice", m.name));
        }
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push_str("}}");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0).unwrap(), 500.0);
        assert_eq!(percentile(&v, 99.0).unwrap(), 990.0);
        assert_eq!(percentile(&v, 100.0).unwrap(), 1000.0);
        // Rank is rounded up, never interpolated.
        let w: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(percentile(&w, 50.0).unwrap(), 1000.0);
        assert_eq!(percentile(&[7.0], 100.0).unwrap(), 7.0);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, exactly 10 beyond.
        let ok: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert!(percentile(&ok, 99.0).is_ok());
        // 999 samples: rank 990, only 9 beyond.
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        let err = percentile(&short, 99.0).unwrap_err();
        assert!(err.contains("only 9"), "{err}");
        assert!(percentile(&[], 50.0).is_err());
        // The median of 19 samples has 9 beyond it: refused too.
        let small: Vec<f64> = (1..=19).map(f64::from).collect();
        assert!(percentile(&small, 50.0).is_err());
    }

    #[test]
    fn latency_samples_stop_growing_at_the_reservoir() {
        let mut t = Tally::default();
        for i in 0..(RESERVOIR as u64 + 5_000) {
            t.attempt(Duration::from_nanos(i));
        }
        assert_eq!(t.attempted, RESERVOIR as u64 + 5_000);
        assert_eq!(t.latencies_ms.len(), RESERVOIR);
        // Some late samples replaced early ones.
        assert!(t
            .latencies_ms
            .iter()
            .any(|&ms| ms * 1e6 >= RESERVOIR as f64));
    }

    #[test]
    fn median_of_setup_repetitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn metric_names() {
        for ok in ["latency_ms_p50", "sched.schedule_us", "a-b.c_d", "9lives"] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "sp ace",
            "slash/x",
            "q\"",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"x".repeat(64)));
    }

    #[test]
    fn json_line_shape_and_refusals() {
        let mut t = Tally::default();
        t.attempt(Duration::from_millis(2));
        let line = json_line(true, &t, &[Metric::new("setup_s", 0.5, "s")]).unwrap();
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert!(json_line(true, &t, &[Metric::new("bad name", 1.0, "s")]).is_err());
        assert!(json_line(true, &t, &[Metric::new("x", f64::NAN, "s")]).is_err());
        let twice = [Metric::new("x", 1.0, "s"), Metric::new("x", 2.0, "s")];
        assert!(json_line(true, &t, &twice).is_err());
    }
}
