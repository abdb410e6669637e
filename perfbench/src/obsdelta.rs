//! Per-layer readings taken as deltas of the process-global `seed_obs` registry — the metrics
//! the server already exports — between two snapshots.

use seed_obs::{HistogramSnapshot, RegistrySnapshot};

pub fn snapshot() -> RegistrySnapshot {
    seed_obs::global().snapshot()
}

/// The observations one histogram received between two snapshots.
#[derive(Clone, Default)]
pub struct HistDelta {
    pub count: u64,
    pub sum: u64,
    /// `(upper_bound, cumulative_count)` of the delta.
    buckets: Vec<(u64, u64)>,
}

impl HistDelta {
    /// The `q`-quantile, interpolated linearly inside its power-of-two bucket (0 when empty).
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut prev = (0u64, 0u64);
        for &(bound, cum) in &self.buckets {
            if cum >= rank {
                let lower = if prev.0 == 0 && prev.1 == 0 { 0 } else { prev.0 };
                let in_bucket = (cum - prev.1).max(1) as f64;
                let frac = (rank - prev.1) as f64 / in_bucket;
                return lower as f64 + frac * (bound - lower) as f64;
            }
            prev = (bound, cum);
        }
        prev.0 as f64
    }

    /// Upper bound of the highest non-empty bucket (0 when empty).
    pub fn max_bound(&self) -> f64 {
        let mut prev = 0;
        let mut max = 0;
        for &(bound, cum) in &self.buckets {
            if cum > prev {
                max = bound;
            }
            prev = cum;
        }
        max as f64
    }
}

/// Difference between two registry snapshots.
pub struct Delta {
    before: RegistrySnapshot,
    after: RegistrySnapshot,
}

impl Delta {
    pub fn new(before: RegistrySnapshot, after: RegistrySnapshot) -> Self {
        Delta { before, after }
    }

    pub fn counter(&self, name: &str) -> u64 {
        let a = self.after.counter(name).unwrap_or(0);
        a.saturating_sub(self.before.counter(name).unwrap_or(0))
    }

    pub fn hist(&self, name: &str) -> HistDelta {
        let empty = HistogramSnapshot { name: name.into(), count: 0, sum: 0, buckets: vec![] };
        let a = self.after.histogram(name).unwrap_or(&empty);
        let b = self.before.histogram(name).unwrap_or(&empty);
        let buckets = a
            .buckets
            .iter()
            .enumerate()
            .map(|(i, &(bound, cum))| {
                (bound, cum.saturating_sub(b.buckets.get(i).map(|x| x.1).unwrap_or(0)))
            })
            .collect();
        HistDelta {
            count: a.count.saturating_sub(b.count),
            sum: a.sum.saturating_sub(b.sum),
            buckets,
        }
    }

    /// Sum of the deltas of every histogram whose name starts with `prefix`.
    pub fn hist_prefix_totals(&self, prefix: &str) -> (u64, u64) {
        let mut count = 0;
        let mut sum = 0;
        for h in self.after.histograms.iter().filter(|h| h.name.starts_with(prefix)) {
            let d = self.hist(&h.name);
            count += d.count;
            sum += d.sum;
        }
        (count, sum)
    }
}
