//! Latency samples, quantiles, and the result every workload returns.

use std::collections::BTreeMap;

/// Values below this are recorded exactly; above it each power of two
/// is split into `HALF` buckets, so a quantile is within 1/256 of the
/// recorded value. A window's histogram is 14 KiB, so the benchmark's own
/// bookkeeping stays small beside the server in `peak_rss_mb`.
const SUB: u64 = 256;
const HALF: u64 = SUB / 2;
const SUB_BITS: u32 = 8;
/// Largest recordable value, 2^33 ns (8.6 s); larger values saturate.
const MAX_EXP: u32 = 33;
const BUCKETS: usize = (HALF as usize) * (MAX_EXP - SUB_BITS + 2) as usize;
/// Width of the windows a relative figure is taken over.
const WINDOW_NS: u64 = 2_000_000_000;
/// A window enters a relative figure only when both series hold this
/// many samples in it.
const MIN_WINDOW: u64 = 10;

fn bucket_of(ns: u64) -> usize {
    let v = ns.min((1 << MAX_EXP) - 1);
    if v < SUB {
        return v as usize;
    }
    let e = u64::from(63 - v.leading_zeros() - SUB_BITS + 1);
    (e * HALF + (v >> e)) as usize
}

/// The midpoint of a bucket, in ns.
fn value_of(bucket: usize) -> f64 {
    let b = bucket as u64;
    if b < SUB {
        return b as f64;
    }
    let e = b / HALF - 1;
    let m = b - e * HALF;
    ((m << e) + (1 << e) / 2) as f64
}

/// A fixed-size histogram of one window of latency samples.
#[derive(Clone)]
struct Hist {
    counts: Vec<u32>,
    n: u64,
}

impl Hist {
    fn new() -> Self {
        Self {
            counts: vec![0; BUCKETS],
            n: 0,
        }
    }

    /// Nearest-rank quantile in ns.
    fn quantile(&self, q: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((self.n as f64 * q).ceil() as u64).clamp(1, self.n);
        let mut seen = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return value_of(b);
            }
        }
        value_of(BUCKETS - 1)
    }
}

/// Latency samples, kept as histograms per two-second window of the run
/// (memory stays fixed however many requests a run makes).
#[derive(Clone, Default)]
pub struct Samples {
    windows: Vec<Hist>,
    n: u64,
}

impl Samples {
    /// Records `ns`, observed `at_ns` after the run started.
    pub fn push(&mut self, at_ns: u64, ns: u64) {
        let w = (at_ns / WINDOW_NS) as usize;
        while self.windows.len() <= w {
            self.windows.push(Hist::new());
        }
        self.windows[w].counts[bucket_of(ns)] += 1;
        self.windows[w].n += 1;
        self.n += 1;
    }

    pub fn len(&self) -> usize {
        self.n as usize
    }

    pub fn merge(&mut self, other: &Samples) {
        while self.windows.len() < other.windows.len() {
            self.windows.push(Hist::new());
        }
        for (mine, theirs) in self.windows.iter_mut().zip(&other.windows) {
            for (a, b) in mine.counts.iter_mut().zip(&theirs.counts) {
                *a += b;
            }
            mine.n += theirs.n;
        }
        self.n += other.n;
    }

    fn all(&self) -> Hist {
        let mut h = Hist::new();
        for w in &self.windows {
            for (a, b) in h.counts.iter_mut().zip(&w.counts) {
                *a += b;
            }
            h.n += w.n;
        }
        h
    }

    /// Quantile over the whole run, in µs (0 for no samples).
    pub fn quantile_us(&self, q: f64) -> f64 {
        self.all().quantile(q) / 1e3
    }

    /// Mean over the whole run, in µs (0 for no samples).
    pub fn mean_us(&self) -> f64 {
        let sum: f64 = self
            .windows
            .iter()
            .flat_map(|w| w.counts.iter().enumerate())
            .map(|(b, &c)| value_of(b) * f64::from(c))
            .sum();
        sum / self.n.max(1) as f64 / 1e3
    }

    pub fn p50_us(&self) -> f64 {
        self.quantile_us(0.5)
    }

    /// Quantile `q` of these samples over the same quantile of
    /// `reference`, taken window by window (two-second windows of the same run, both
    /// series timed from the same start) and reported as the median of
    /// the windows' ratios, so a drift in host speed that slows both
    /// series cancels; over the whole run when fewer than three windows
    /// hold enough samples of both.
    pub fn rel(&self, q: f64, reference: &Samples) -> f64 {
        let mut ratios: Vec<f64> = self
            .windows
            .iter()
            .zip(&reference.windows)
            .filter(|(w, r)| w.n >= MIN_WINDOW && r.n >= MIN_WINDOW)
            .map(|(w, r)| w.quantile(q) / r.quantile(q))
            .collect();
        if ratios.len() < 3 {
            return self.quantile_us(q) / reference.quantile_us(q);
        }
        ratios.sort_by(f64::total_cmp);
        let mid = ratios.len() / 2;
        if ratios.len() % 2 == 1 {
            ratios[mid]
        } else {
            (ratios[mid - 1] + ratios[mid]) / 2.0
        }
    }
}

/// One printed metric: value, unit, and the samples behind it.
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// What a workload run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks, by description (empty when all passed).
    pub check_failures: Vec<String>,
    /// Metrics of the JSON result line, by name.
    pub metrics: BTreeMap<&'static str, Metric>,
    /// Metrics printed for the reader only, under the names the workload
    /// documents (they restate the JSON metrics per workload).
    pub named: Vec<(String, Metric)>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.insert(
            name,
            Metric {
                value,
                unit,
                samples,
            },
        );
    }

    pub fn name(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.named.push((
            name.to_string(),
            Metric {
                value,
                unit,
                samples,
            },
        ));
    }

    pub fn fail_check(&mut self, what: String) {
        self.failed += 1;
        if self.check_failures.len() < 8 {
            self.check_failures.push(what);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_contiguous_and_tight() {
        let mut last = 0;
        for v in (0..1_000_000u64).chain([1 << 20, 123_456_789, (1 << MAX_EXP) - 1]) {
            let b = bucket_of(v);
            assert!(b >= last && b < BUCKETS, "{v} -> {b}");
            last = b;
            let mid = value_of(b);
            assert!(
                (mid - v as f64).abs() <= v as f64 / 256.0 + 0.5,
                "{v} -> {mid}"
            );
        }
    }

    #[test]
    fn a_slowdown_shared_with_the_reference_cancels() {
        let (mut work, mut reference) = (Samples::default(), Samples::default());
        for w in 0..6u64 {
            // Every other window runs on a host half as fast.
            let speed = if w % 2 == 0 { 1 } else { 2 };
            for i in 0..50 {
                let at = w * WINDOW_NS + i * 1000;
                work.push(at, 3000 * speed);
                reference.push(at, 1000 * speed);
            }
        }
        assert!((work.rel(0.5, &reference) - 3.0).abs() < 0.05);
    }
}
