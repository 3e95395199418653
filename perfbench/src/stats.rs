//! Sample statistics, the seeded generator, resource readings and the
//! trace-span reader shared by every workload.

use autopipe_trace::{EventKind, TraceEvent, Value};
use std::time::Instant;

/// Milliseconds elapsed since `t0`.
pub fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// A set of timing samples (any unit; the caller keeps track).
#[derive(Debug, Clone, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Median (mean of the two middle samples for an even count); 0
    /// for no samples.
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        match v.len() {
            0 => 0.0,
            n if n % 2 == 1 => v[n / 2],
            n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
        }
    }

    pub fn max(&self) -> f64 {
        self.0.iter().copied().fold(0.0, f64::max)
    }

    /// Nearest-rank percentile `p` (1..=100).
    fn percentile(&self, p: usize) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return 0.0;
        }
        v[(p * v.len()).div_ceil(100).max(1) - 1]
    }

    /// The highest of p99, p90 and p50 that leaves at least ten samples
    /// above it, with its label; the maximum when there are too few
    /// samples for any of them. The coarse steps keep the label the same
    /// from run to run as the sample count varies with machine speed.
    pub fn tail(&self) -> (String, f64) {
        let n = self.len();
        for p in [99, 90, 50] {
            if n - (p * n).div_ceil(100) >= 10 {
                return (format!("p{p}"), self.percentile(p));
            }
        }
        ("max".to_string(), self.max())
    }
}

/// SplitMix64: a small, fully specified generator, so a seed names the
/// same inputs on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
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

/// Read-side view of a recorded trace: the spans and counters the
/// program already emits, summed by name.
pub struct Spans(pub Vec<TraceEvent>);

impl Spans {
    fn spans<'a>(&'a self, cat: &'a str) -> impl Iterator<Item = &'a TraceEvent> + 'a {
        self.0
            .iter()
            .filter(move |e| e.kind == EventKind::Span && e.cat == cat)
    }

    /// Total duration in ms of the `cat` spans named `name`.
    pub fn ms(&self, cat: &str, name: &str) -> f64 {
        self.spans(cat)
            .filter(|e| e.name == name)
            .map(|e| e.dur_us as f64 / 1e3)
            .sum()
    }

    /// Total duration in ms of the `cat` spans whose name starts with
    /// `prefix`.
    pub fn ms_prefix(&self, cat: &str, prefix: &str) -> f64 {
        self.spans(cat)
            .filter(|e| e.name.starts_with(prefix))
            .map(|e| e.dur_us as f64 / 1e3)
            .sum()
    }

    /// Durations in ms of every span of category `cat`.
    pub fn durations(&self, cat: &str) -> Samples {
        Samples(self.spans(cat).map(|e| e.dur_us as f64 / 1e3).collect())
    }

    /// Self time in ms of the `parent_cat`/`parent` span: its duration
    /// minus the part of its interval that `child_cat` spans cover.
    pub fn self_ms(&self, parent_cat: &str, parent: &str, child_cat: &str) -> f64 {
        let mut total = 0.0;
        for p in self.spans(parent_cat).filter(|e| e.name == parent) {
            let (start, end) = (p.ts_us, p.ts_us + p.dur_us);
            let mut kids: Vec<(u64, u64)> = self
                .spans(child_cat)
                .map(|c| (c.ts_us.max(start), (c.ts_us + c.dur_us).min(end)))
                .filter(|(s, e)| s < e)
                .collect();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, start);
            for (s, e) in kids {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            total += (p.dur_us - covered) as f64 / 1e3;
        }
        total
    }

    /// Sum of the numeric argument `key` over the `cat` counter events,
    /// or over those named `name` only.
    pub fn counter_sum(&self, cat: &str, name: Option<&str>, key: &str) -> f64 {
        self.0
            .iter()
            .filter(|e| e.kind == EventKind::Counter && e.cat == cat)
            .filter(|e| name.is_none_or(|n| e.name == n))
            .flat_map(|e| e.args.iter())
            .filter(|(k, _)| k == key)
            .map(|(_, v)| match v {
                Value::U64(x) => *x as f64,
                Value::I64(x) => *x as f64,
                Value::F64(x) => *x,
                _ => 0.0,
            })
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_tail() {
        let s = Samples((1..=100).map(f64::from).collect());
        assert_eq!(s.median(), 50.5);
        assert_eq!(s.tail(), ("p90".to_string(), 90.0));
        let few = Samples(vec![3.0, 1.0, 2.0]);
        assert_eq!(few.median(), 2.0);
        assert_eq!(few.tail(), ("max".to_string(), 3.0));
    }

    #[test]
    fn rng_is_seeded() {
        let (mut a, mut b) = (Rng::new(7), Rng::new(7));
        assert_eq!(a.next_u64(), b.next_u64());
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
    }
}
