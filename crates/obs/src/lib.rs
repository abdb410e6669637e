//! # seed-obs
//!
//! The observability core of the SEED reproduction: a dependency-free, lock-free metrics
//! registry plus a structured-event tracer.  It sits **below** every other crate (storage
//! included) so any layer can record into it.
//!
//! * [`metrics`] — [`Counter`], [`Gauge`] and fixed-bucket [`Histogram`] handles.  A handle is
//!   a clonable wrapper over `Arc`ed atomics: recording is a few relaxed atomic ops — no lock,
//!   no allocation, no syscall — so the handles live on the hottest paths (the WAL append
//!   loop, the network shards' read pumps, the snapshot publisher).
//! * [`events`] — [`EventRing`], a bounded ring of recent structured events plus a leveled,
//!   rate-limited stderr logger, for the *rare and diagnostic* (connection failures, slow
//!   operations, replication resets).
//! * [`Registry`] — the cold-path directory: handles are registered **by name** (get or
//!   create, behind one mutex), snapshots ([`RegistrySnapshot`]) capture every metric at once,
//!   and [`RegistrySnapshot::to_prometheus_text`] renders the Prometheus text exposition
//!   format.  [`global()`] is the process-wide registry every subsystem records into.
//!
//! The metric name catalog, the exposition format and the slow-operation log fields are
//! documented in `docs/OBSERVABILITY.md`.
//!
//! ## Compile-time off switch
//!
//! With the `off` cargo feature every recording body folds to a no-op at compile time; the
//! registry, snapshot and exposition surfaces stay available (they just stay empty), so
//! dependent code needs no `cfg` of its own.  At runtime, [`Registry::set_enabled`] is the
//! cheap dynamic switch (one relaxed atomic load per record).
//!
//! ```
//! let registry = seed_obs::Registry::new();
//! let requests = registry.counter("net_requests_total");
//! let latency = registry.histogram("net_request_us_retrieve");
//! requests.inc();
//! latency.observe(120);
//! let snap = registry.snapshot();
//! if seed_obs::recording_compiled_in() {
//!     assert_eq!(snap.counter("net_requests_total"), Some(1));
//!     assert!(snap.to_prometheus_text().contains("net_request_us_retrieve_count 1"));
//! }
//! ```

pub mod events;
pub mod metrics;

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

pub use events::{Event, EventRing, Level, RING_CAP, STDERR_BUDGET_PER_SEC};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot};

/// Default slow-operation threshold: a request that takes longer lands in the event ring (and,
/// level permitting, on stderr) with its kind, client and query text.
pub const DEFAULT_SLOW_OP: Duration = Duration::from_millis(250);

/// Whether recording was compiled in (i.e. the `off` feature is **not** active).  Lets callers
/// and tests distinguish "no events happened" from "events are compiled out".
pub fn recording_compiled_in() -> bool {
    cfg!(not(feature = "off"))
}

/// One registered metric (the registry's directory entry).
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// The metric directory: names → handles, plus the event ring and the slow-op threshold.
///
/// Registration and snapshotting are the cold path and serialize on one mutex; the handles
/// returned are plain atomics and never touch the registry again.  Re-registering a name
/// returns a clone of the existing handle, so every subsystem that says
/// `registry.counter("x")` shares one underlying value.
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
    /// Shared on/off flag cloned into every handle (the runtime switch).
    enabled: Arc<AtomicBool>,
    events: EventRing,
    /// Slow-operation threshold in microseconds.
    slow_op_micros: AtomicU64,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// Creates an empty registry with recording enabled.
    pub fn new() -> Self {
        Self {
            metrics: Mutex::new(BTreeMap::new()),
            enabled: Arc::new(AtomicBool::new(true)),
            events: EventRing::new(),
            slow_op_micros: AtomicU64::new(DEFAULT_SLOW_OP.as_micros() as u64),
        }
    }

    /// Gets or creates the counter registered under `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind (a programming error: names
    /// are the identity).
    pub fn counter(&self, name: &str) -> Counter {
        let mut metrics = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        let entry = metrics.entry(name.to_string()).or_insert_with(|| {
            Metric::Counter(Counter {
                value: Arc::new(AtomicU64::new(0)),
                on: self.enabled.clone(),
            })
        });
        match entry {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name:?} is registered as a different kind"),
        }
    }

    /// Gets or creates the gauge registered under `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut metrics = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        let entry = metrics.entry(name.to_string()).or_insert_with(|| {
            Metric::Gauge(Gauge { value: Arc::new(AtomicI64::new(0)), on: self.enabled.clone() })
        });
        match entry {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name:?} is registered as a different kind"),
        }
    }

    /// Gets or creates the histogram registered under `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut metrics = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        let entry = metrics.entry(name.to_string()).or_insert_with(|| {
            Metric::Histogram(Histogram {
                inner: Arc::new(metrics::HistogramInner::new()),
                on: self.enabled.clone(),
            })
        });
        match entry {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name:?} is registered as a different kind"),
        }
    }

    /// The runtime recording switch (all handles of this registry share it).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is currently enabled.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The structured-event ring and stderr logger of this registry.
    pub fn events(&self) -> &EventRing {
        &self.events
    }

    /// The slow-operation threshold ([`DEFAULT_SLOW_OP`] unless overridden).
    pub fn slow_op_threshold(&self) -> Duration {
        Duration::from_micros(self.slow_op_micros.load(Ordering::Relaxed))
    }

    /// Overrides the slow-operation threshold.
    pub fn set_slow_op_threshold(&self, threshold: Duration) {
        self.slow_op_micros
            .store(threshold.as_micros().min(u64::MAX as u128) as u64, Ordering::Relaxed);
    }

    /// Records an operation that took `elapsed` **if** it crossed the slow-op threshold:
    /// bumps `slow_ops_total` and emits a `slowop` warning with the kind, the client (when
    /// known) and the caller's detail fields (query text, plan, peer).  Returns whether the
    /// operation was slow.
    pub fn observe_op(
        &self,
        kind: &'static str,
        client: Option<u64>,
        elapsed: Duration,
        detail: &[(&str, String)],
    ) -> bool {
        if elapsed < self.slow_op_threshold() {
            return false;
        }
        self.counter("slow_ops_total").inc();
        let mut fields: Vec<(&str, String)> = Vec::with_capacity(detail.len() + 3);
        fields.push(("kind", kind.to_string()));
        if let Some(client) = client {
            fields.push(("client", client.to_string()));
        }
        fields.push(("elapsed_ms", format!("{:.1}", elapsed.as_secs_f64() * 1e3)));
        fields.extend(detail.iter().map(|(k, v)| (*k, v.clone())));
        self.events.emit(Level::Warn, "slowop", "slow operation", &fields);
        true
    }

    /// A point-in-time copy of every registered metric, sorted by name.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let metrics = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        let mut snap = RegistrySnapshot::default();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => snap.counters.push((name.clone(), c.get())),
                Metric::Gauge(g) => snap.gauges.push((name.clone(), g.get())),
                Metric::Histogram(h) => snap.histograms.push(h.snapshot(name)),
            }
        }
        snap
    }
}

/// The process-global registry every SEED subsystem records into (net, storage, MVCC, locks,
/// replication).  Created enabled on first use.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// A point-in-time copy of a whole [`Registry`]: every counter, gauge and histogram, sorted by
/// name.  This is what `Request::Stats` returns over the wire and what the Prometheus
/// exposition renders.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RegistrySnapshot {
    /// `(name, total)` pairs in name order.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` pairs in name order.
    pub gauges: Vec<(String, i64)>,
    /// Histogram snapshots in name order.
    pub histograms: Vec<HistogramSnapshot>,
}

impl RegistrySnapshot {
    /// Looks a counter up by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks a gauge up by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Looks a histogram up by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Whether the snapshot holds no metrics at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Renders the snapshot in the Prometheus text exposition format (version 0.0.4):
    /// counters and gauges as single samples, histograms as cumulative `_bucket{le="..."}`
    /// series plus `_sum` and `_count`.
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {value}\n"));
        }
        for (name, value) in &self.gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {value}\n"));
        }
        for h in &self.histograms {
            let name = &h.name;
            out.push_str(&format!("# TYPE {name} histogram\n"));
            for (i, (bound, cumulative)) in h.buckets.iter().enumerate() {
                if i + 1 == h.buckets.len() {
                    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
                } else {
                    out.push_str(&format!("{name}_bucket{{le=\"{bound}\"}} {cumulative}\n"));
                }
            }
            out.push_str(&format!("{name}_sum {}\n{name}_count {}\n", h.sum, h.count));
        }
        out
    }
}

// The recording-assertion tests require recording to be compiled in; under `off` the
// surfaces stay available but empty, which `off_keeps_surfaces_available` pins instead.
#[cfg(all(test, not(feature = "off")))]
mod tests {
    use super::*;

    #[test]
    fn registration_is_get_or_create_and_handles_share_state() {
        let registry = Registry::new();
        let a = registry.counter("hits_total");
        let b = registry.counter("hits_total");
        a.inc();
        b.add(2);
        assert_eq!(registry.snapshot().counter("hits_total"), Some(3));
        let g = registry.gauge("depth");
        g.set(7);
        g.dec();
        assert_eq!(registry.snapshot().gauge("depth"), Some(6));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let registry = Registry::new();
        registry.counter("x");
        registry.gauge("x");
    }

    #[test]
    fn runtime_disable_stops_recording_but_keeps_values() {
        let registry = Registry::new();
        let c = registry.counter("c_total");
        c.inc();
        registry.set_enabled(false);
        c.inc();
        assert_eq!(registry.snapshot().counter("c_total"), Some(1));
        registry.set_enabled(true);
        c.inc();
        assert_eq!(registry.snapshot().counter("c_total"), Some(2));
    }

    #[test]
    fn snapshot_is_sorted_and_queryable() {
        let registry = Registry::new();
        registry.counter("z_total").inc();
        registry.counter("a_total").add(4);
        registry.histogram("lat_us").observe(100);
        let snap = registry.snapshot();
        assert_eq!(snap.counters[0].0, "a_total");
        assert_eq!(snap.counters[1].0, "z_total");
        let h = snap.histogram("lat_us").expect("histogram present");
        assert_eq!(h.count, 1);
        assert!(h.p50() >= 100);
        assert!(snap.histogram("missing").is_none());
    }

    #[test]
    fn prometheus_exposition_renders_all_three_kinds() {
        let registry = Registry::new();
        registry.counter("reqs_total").add(5);
        registry.gauge("conns").set(2);
        let h = registry.histogram("lat_us");
        h.observe(3);
        h.observe(300);
        let text = registry.snapshot().to_prometheus_text();
        assert!(text.contains("# TYPE reqs_total counter\nreqs_total 5\n"));
        assert!(text.contains("# TYPE conns gauge\nconns 2\n"));
        assert!(text.contains("# TYPE lat_us histogram\n"));
        assert!(text.contains("lat_us_bucket{le=\"4\"} 1\n"));
        assert!(text.contains("lat_us_bucket{le=\"+Inf\"} 2\n"));
        assert!(text.contains("lat_us_sum 303\n"));
        assert!(text.contains("lat_us_count 2\n"));
    }

    #[test]
    fn slow_ops_cross_the_threshold_into_the_ring() {
        let registry = Registry::new();
        registry.events().set_stderr_level(None);
        registry.set_slow_op_threshold(Duration::from_millis(10));
        assert!(!registry.observe_op("query", Some(1), Duration::from_millis(5), &[]));
        assert!(registry.observe_op(
            "query",
            Some(1),
            Duration::from_millis(50),
            &[("text", "count Data".to_string())],
        ));
        assert_eq!(registry.snapshot().counter("slow_ops_total"), Some(1));
        let events = registry.events().recent();
        assert_eq!(events.len(), 1);
        let line = events[0].render();
        assert!(line.contains("slowop"), "{line}");
        assert!(line.contains("kind=query"), "{line}");
        assert!(line.contains("client=1"), "{line}");
        assert!(line.contains("text=count Data"), "{line}");
    }

    #[test]
    fn prometheus_text_is_empty_only_when_nothing_is_registered() {
        let registry = Registry::new();
        assert!(registry.snapshot().is_empty());
        assert_eq!(registry.snapshot().to_prometheus_text(), "");
    }

    #[test]
    fn histogram_survives_an_eight_thread_hammer_with_exact_totals() {
        // The satellite concurrency bar: 8 threads × 50k observations each, exact total count
        // and sum, monotone percentiles.
        let registry = Registry::new();
        let h = registry.histogram("hammer_us");
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 50_000;
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let h = h.clone();
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        h.observe((t as u64 * 31 + i) % 4096);
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("hammer thread");
        }
        let snap = registry.snapshot();
        let h = snap.histogram("hammer_us").expect("present");
        assert_eq!(h.count, THREADS as u64 * PER_THREAD);
        assert_eq!(h.buckets.last().map(|&(_, c)| c), Some(THREADS as u64 * PER_THREAD));
        let (p50, p90, p99) = (h.p50(), h.percentile(0.90), h.p99());
        assert!(p50 <= p90 && p90 <= p99, "percentiles must be monotone: {p50} {p90} {p99}");
        assert!(p99 <= 4096, "no observation exceeded the input range");
    }
}

#[cfg(all(test, feature = "off"))]
mod off_tests {
    use super::*;

    #[test]
    fn off_keeps_surfaces_available() {
        let registry = Registry::new();
        let c = registry.counter("c_total");
        c.inc();
        assert_eq!(c.get(), 0, "recording is compiled out");
        registry.histogram("h_us").observe(9);
        registry.events().emit(Level::Error, "test", "dropped", &[]);
        assert!(registry.events().recent().is_empty());
        let snap = registry.snapshot();
        assert_eq!(snap.counter("c_total"), Some(0));
        assert_eq!(snap.histogram("h_us").map(|h| h.count), Some(0));
        assert!(!snap.to_prometheus_text().is_empty(), "exposition still renders names");
    }
}
