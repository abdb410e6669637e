//! The metric catalog and the result of one run.

use std::collections::BTreeMap;

use serde_json::Value as Json;

/// Every end-to-end metric the benchmark prints, with its unit.  A workload that lacks the
/// operation a metric times reports it as `n/a`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("setup_wall_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_us", "us"),
    ("op_p99_us", "us"),
    ("read_p50_us", "us"),
    ("read_p99_us", "us"),
    ("checkin_p50_us", "us"),
    ("checkin_p99_us", "us"),
    ("repl_lag_p50_us", "us"),
    ("repl_lag_p99_us", "us"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MiB"),
    ("error_rate", "ratio"),
];

/// The end-to-end metrics on the result line and in `BENCHMARK.json`: measured by every
/// workload, never 0, and steady on a shared 2-core host — CPU time per op, and the CPU time
/// of a set-up (`setup_s`; `setup_wall_s` is its wall time).  Wall-clock metrics are left
/// out: in some periods the host stalls this process's threads for milliseconds at a time,
/// and every closed-loop round trip and fsync waits those stalls out, so ten runs of
/// `ops_per_s` spread up to 0.64 (IQR/median) where the CPU time per op of the same runs
/// spread at most 0.16.  `peak_rss_mb` is bimodal on `spades_edit` (the allocator's arena
/// count), and the check-in, replication-lag and error-rate metrics are not measured by every
/// workload.  All of them are printed above the result line and judged by `compare`.
pub const GATED: &[&str] = &["setup_s", "cpu_us_per_op"];

/// Every per-layer metric of the traced run, with its unit.  A layer a workload does not reach
/// reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.self_us_p50", "us"),
    ("net.queue_us_p50", "us"),
    ("net.bytes_per_op", "bytes"),
    ("net.coalesce_bytes_p50", "bytes"),
    ("net.backpressure_pauses", "count"),
    ("net.io_errors", "count"),
    ("server.checkout_us_p50", "us"),
    ("server.checkin_self_us_p50", "us"),
    ("server.lock_wait_us_p99", "us"),
    ("server.rejections", "count"),
    ("query.parse_us_p50", "us"),
    ("query.plan_us_p50", "us"),
    ("query.execute_us_p50.point", "us"),
    ("query.execute_us_p50.prefix", "us"),
    ("query.execute_us_p50.value", "us"),
    ("query.execute_us_p50.navigate", "us"),
    ("query.rows_examined_per_result", "ratio"),
    ("core.apply_us_p50", "us"),
    ("core.commit_self_us_p50", "us"),
    ("core.publish_us_p50", "us"),
    ("core.publish_us_p99", "us"),
    ("core.patch_items_p50", "count"),
    ("core.straggler_copies_per_1k_checkins", "count"),
    ("core.reclassify_us_p50", "us"),
    ("core.create_version_us_p50", "us"),
    ("core.consistency_rejections", "count"),
    ("storage.wal_append_us_p50", "us"),
    ("storage.fsync_us_p50", "us"),
    ("storage.fsync_us_p99", "us"),
    ("storage.fsyncs_per_checkin", "ratio"),
    ("storage.batch_records_p50", "count"),
    ("storage.checkpoints", "count"),
    ("storage.checkpoint_us_max", "us"),
    ("storage.wal_bytes_per_user_byte", "ratio"),
    ("storage.disk_bytes_per_live_byte", "ratio"),
    ("replication.commits_per_batch", "ratio"),
    ("replication.apply_items_per_commit", "ratio"),
    ("replication.ack_lag_records_max", "count"),
    ("replication.resets", "count"),
    ("spades.requests_per_op", "ratio"),
    ("spades.op_us_p50.add_element", "us"),
    ("spades.op_us_p50.refine_element", "us"),
    ("spades.op_us_p50.add_flow", "us"),
    ("spades.op_us_p50.add_keyword", "us"),
    ("spades.op_us_p50.checkpoint", "us"),
    ("obs.slow_ops", "count"),
    ("bench.trace_overhead_x", "x"),
    ("bench.trace_coverage", "ratio"),
];

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Timed operations attempted.
    pub attempted: u64,
    /// Failed operations plus wrong answers (timed or found by the after-run checks).
    pub failed: u64,
    /// Metric values by name; `None` = the workload has no such operation.
    pub metrics: BTreeMap<&'static str, Option<f64>>,
    /// Sample counts behind the percentiles, by sample set (`op`, `read`, ...).
    pub samples: BTreeMap<&'static str, usize>,
    /// Free-form facts about the run (sizes, sessions, lag resolution, ...).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, Some(value));
    }

    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>) {
        self.metrics.insert(name, value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name).map(|(_, u)| *u).unwrap_or("")
}

/// A JSON number that keeps every digit the measurement has.
pub fn num(v: f64) -> Json {
    Json::Number(if v.is_finite() { v } else { 0.0 })
}

pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
    Json::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}
