//! # seed-bench
//!
//! Benchmark harness of the SEED reproduction.
//!
//! The 1986 paper has no quantitative tables; its evaluation is the experience of running SPADES
//! on SEED ("considerably slower, but much more flexible") plus the design decisions the text
//! motivates (consistency checking on every update, delta-based version storage, pattern
//! propagation, re-classification, retrieval by name).  The [`report`] module regenerates one row
//! of `EXPERIMENTS.md` per experiment (`cargo run -p seed-bench --release`), and its release-only
//! tests assert the ratio bars.
//!
//! The helpers in [`scenarios`] build the databases and workloads of controlled size that the
//! report rows measure.

pub mod report;
pub mod scenarios;

pub use report::{run_report, run_report_mode, ExperimentMetrics};
pub use scenarios::*;
