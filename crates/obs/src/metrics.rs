//! The lock-free metric primitives: counters, gauges, and fixed-bucket histograms.
//!
//! Every handle is a clonable wrapper over an `Arc` of plain atomics.  Recording an event is a
//! handful of relaxed atomic operations — no lock, no allocation, no syscall — so the handles
//! are safe to hit from the hottest paths in the system (the WAL append loop, the network
//! shards' read pumps, the snapshot publisher).  Registration and snapshotting are the cold
//! path and go through the [`Registry`](crate::Registry)'s mutex.

use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Whether recording is compiled in at all.  With the `off` feature the branch below is a
/// compile-time constant and every recording body folds away.
#[inline(always)]
fn compiled_in() -> bool {
    cfg!(not(feature = "off"))
}

/// A monotonically increasing event count.
#[derive(Clone)]
pub struct Counter {
    pub(crate) value: Arc<AtomicU64>,
    pub(crate) on: Arc<AtomicBool>,
}

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if compiled_in() && self.on.load(Ordering::Relaxed) {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current total.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A value that goes up and down (queue depths, open connections, lag).
#[derive(Clone)]
pub struct Gauge {
    pub(crate) value: Arc<AtomicI64>,
    pub(crate) on: Arc<AtomicBool>,
}

impl Gauge {
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn dec(&self) {
        self.add(-1);
    }

    #[inline]
    pub fn add(&self, n: i64) {
        if compiled_in() && self.on.load(Ordering::Relaxed) {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Overwrites the gauge with an absolute reading.
    #[inline]
    pub fn set(&self, v: i64) {
        if compiled_in() && self.on.load(Ordering::Relaxed) {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of power-of-two buckets: bounds 1, 2, 4, …, 2³⁰ plus a +Inf overflow bucket.
/// 2³⁰ µs ≈ 18 minutes and 2³⁰ bytes = 1 GiB, so the fixed ladder covers every latency,
/// size and count this system records without per-histogram configuration.
pub(crate) const BUCKETS: usize = 32;

/// The inclusive upper bound of bucket `i` (the last bucket is +Inf).
#[inline]
pub(crate) fn bucket_bound(i: usize) -> u64 {
    1u64 << i
}

/// Index of the bucket a value falls into: the smallest `i` with `value <= 2^i`.
#[inline]
fn bucket_index(value: u64) -> usize {
    if value <= 1 {
        return 0;
    }
    let i = 64 - (value - 1).leading_zeros() as usize;
    i.min(BUCKETS - 1)
}

/// A fixed-bucket distribution: power-of-two bounds, per-bucket atomic counts, plus a running
/// sum and count.  Percentiles are extracted from snapshots ([`HistogramSnapshot`]).
#[derive(Clone)]
pub struct Histogram {
    pub(crate) inner: Arc<HistogramInner>,
    pub(crate) on: Arc<AtomicBool>,
}

pub(crate) struct HistogramInner {
    pub(crate) buckets: [AtomicU64; BUCKETS],
    pub(crate) sum: AtomicU64,
    pub(crate) count: AtomicU64,
}

impl HistogramInner {
    pub(crate) fn new() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation (microseconds, bytes, items — the unit is the metric's name
    /// suffix, see `docs/OBSERVABILITY.md`).
    #[inline]
    pub fn observe(&self, value: u64) {
        if compiled_in() && self.on.load(Ordering::Relaxed) {
            let inner = &*self.inner;
            inner.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
            inner.sum.fetch_add(value, Ordering::Relaxed);
            inner.count.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records a duration in whole microseconds.
    #[inline]
    pub fn observe_duration(&self, d: Duration) {
        self.observe(d.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Total number of observations so far.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    pub(crate) fn snapshot(&self, name: &str) -> HistogramSnapshot {
        // Count first, then buckets: a racing `observe` bumps buckets before `count` is read
        // only if it bumped them after we read `count`… ordering is relaxed either way, so the
        // snapshot is merely *a* consistent-enough view; exact-count tests quiesce writers.
        let count = self.inner.count.load(Ordering::Relaxed);
        let sum = self.inner.sum.load(Ordering::Relaxed);
        let mut cumulative = 0u64;
        let mut buckets = Vec::with_capacity(BUCKETS);
        for (i, b) in self.inner.buckets.iter().enumerate() {
            cumulative += b.load(Ordering::Relaxed);
            buckets.push((bucket_bound(i), cumulative));
        }
        HistogramSnapshot { name: name.to_string(), count, sum, buckets }
    }
}

/// A point-in-time copy of one histogram: cumulative counts per upper bound, ready for
/// percentile extraction or Prometheus exposition.  The last bucket's bound stands in for
/// +Inf (every observation is clamped into the fixed ladder).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub name: String,
    pub count: u64,
    pub sum: u64,
    /// `(upper_bound, cumulative_count)` pairs in ascending bound order.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// The upper bound of the bucket containing the `q`-quantile observation (`0.0 ..= 1.0`).
    /// Returns 0 for an empty histogram.  Quantiles of a bucketed distribution are upper
    /// bounds, not exact values: p50 ≤ p90 ≤ p99 always holds.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        for &(bound, cumulative) in &self.buckets {
            if cumulative >= rank {
                return bound;
            }
        }
        self.buckets.last().map(|&(bound, _)| bound).unwrap_or(0)
    }

    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// Mean observation (integer division; 0 when empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_the_smallest_covering_power_of_two() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1 << 30), 30);
        assert_eq!(bucket_index((1 << 30) + 1), BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }
}
