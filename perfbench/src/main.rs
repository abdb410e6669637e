//! `perfbench` — the repository benchmark of the SEED reproduction.
//!
//! ```text
//! perfbench --workload <checkin_cycle|read_mix|spades_edit> [--seed N] [--seconds S]
//!           [--trace 0|1]
//! perfbench compare <A> <B> [--bounds BENCHMARK.json]
//! ```
//!
//! A run builds its inputs from `--seed`, measures for `--seconds`, checks every answer, prints
//! each metric by name with its unit, then a run record (JSON, with the run metadata) and, as
//! the last line, the result object `{"attempted", "correct", "failed", "metrics"}`.  With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the run replays the
//! workload layer by layer and reports the per-layer ones.  `compare` reads two sets of run
//! records (files or directories of saved output) and prints, per workload, each side's
//! median and quartiles of every end-to-end metric with a verdict against its bound.

mod checkin;
mod compare;
mod fixture;
mod obsdelta;
mod readmix;
mod report;
mod spades_edit;
mod trace;
mod util;

use std::process::ExitCode;

use report::{num, obj, Outcome, END_TO_END, GATED, PER_LAYER};
use serde_json::Value as Json;

/// The seed every claim is first measured on, and the second seed claims are re-checked on.
pub const DEFAULT_SEED: u64 = 1986;
pub const RECHECK_SEED: u64 = 4242;

pub const WORKLOADS: &[&str] = &["checkin_cycle", "read_mix", "spades_edit"];

/// Set-ups per untraced run of the `F20k` workloads; `setup_s` is their median.  The first
/// one is the set-up the window runs on, the others follow the run.
pub const SETUPS: usize = 3;

pub struct Config {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> [--seed N (default {DEFAULT_SEED}; re-check seed {RECHECK_SEED})] [--seconds S] [--trace 0|1]\n       perfbench compare <A> <B> [--bounds BENCHMARK.json]",
        WORKLOADS.join("|")
    )
}

fn parse(args: &[String]) -> Result<Config, String> {
    let mut cfg = Config { workload: "", seed: DEFAULT_SEED, seconds: 10, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => {
                cfg.workload = WORKLOADS
                    .iter()
                    .find(|w| **w == value)
                    .ok_or_else(|| format!("unknown workload {value}"))?
            }
            "--seed" => cfg.seed = number()?,
            "--seconds" => cfg.seconds = number()?.max(1),
            "--trace" => cfg.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if cfg.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(cfg)
}

fn metadata() -> Json {
    let registry = seed_obs::global();
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    std::fs::create_dir_all(util::work_root()).ok();
    obj(vec![
        ("nproc", num(nproc as f64)),
        ("commit", Json::String(util::commit_hash())),
        ("date", Json::String(util::utc_now())),
        ("tmp_fs", Json::String(util::filesystem_of(&util::work_root()))),
        ("obs_recording", Json::Bool(seed_obs::recording_compiled_in() && registry.enabled())),
    ])
}

fn print_run(cfg: &Config, outcome: &Outcome, meta: Json) {
    let catalog: &[(&str, &str)] = if cfg.trace { PER_LAYER } else { END_TO_END };
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    let mut all = Vec::new();
    for (name, unit) in catalog {
        let measured = outcome.metrics.get(name).copied().flatten();
        let value = if *name == "error_rate" {
            Some(outcome.failed as f64 / outcome.attempted.max(1) as f64)
        } else if cfg.trace {
            // A layer the workload does not reach did no work there.
            Some(measured.unwrap_or(0.0))
        } else {
            measured
        };
        let shown = value.map(|v| format!("{v:.3}")).unwrap_or_else(|| "n/a".into());
        let samples = sample_set(name)
            .and_then(|set| outcome.samples.get(set))
            .map(|n| format!("  (n={n})"))
            .unwrap_or_default();
        println!("  {name:<40} {shown:>14} {unit}{samples}");
        all.push((name.to_string(), value));
    }
    for note in &outcome.notes {
        println!("  # {note}");
    }
    let record = obj(vec![
        ("perfbench_run", num(1.0)),
        ("workload", Json::String(cfg.workload.into())),
        ("seed", num(cfg.seed as f64)),
        ("seconds", num(cfg.seconds as f64)),
        ("trace", Json::Bool(cfg.trace)),
        ("meta", meta),
        ("attempted", num(outcome.attempted as f64)),
        ("failed", num(outcome.failed as f64)),
        (
            "metrics",
            Json::Object(
                all.iter().map(|(n, v)| (n.clone(), v.map(num).unwrap_or(Json::Null))).collect(),
            ),
        ),
        (
            "samples",
            Json::Object(
                outcome.samples.iter().map(|(k, v)| (k.to_string(), num(*v as f64))).collect(),
            ),
        ),
    ]);
    println!("{record}");
    let names: Vec<&str> =
        if cfg.trace { PER_LAYER.iter().map(|(n, _)| *n).collect() } else { GATED.to_vec() };
    let metrics = names
        .iter()
        .map(|n| {
            let v = all.iter().find(|(m, _)| m == n).and_then(|(_, v)| *v).unwrap_or(0.0);
            (
                n.to_string(),
                obj(vec![("value", num(v)), ("unit", Json::String(report::unit_of(n).into()))]),
            )
        })
        .collect();
    let result = obj(vec![
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", num(outcome.attempted.max(1) as f64)),
        ("failed", num(outcome.failed as f64)),
        ("metrics", Json::Object(metrics)),
    ]);
    println!("{result}");
}

/// The sample set a percentile metric is taken over.
fn sample_set(name: &str) -> Option<&'static str> {
    match name {
        "op_p50_us" | "op_p99_us" => Some("op"),
        "read_p50_us" | "read_p99_us" => Some("read"),
        "checkin_p50_us" | "checkin_p99_us" => Some("checkin"),
        "repl_lag_p50_us" | "repl_lag_p99_us" => Some("repl_lag"),
        _ => None,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match compare::run(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench compare: {e}\n{}", usage());
                ExitCode::from(2)
            }
        };
    }
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let meta = metadata();
    let outcome = match cfg.workload {
        "checkin_cycle" => checkin::run(&cfg),
        "read_mix" => readmix::run(&cfg),
        _ => spades_edit::run(&cfg),
    };
    print_run(&cfg, &outcome, meta);
    ExitCode::SUCCESS
}
