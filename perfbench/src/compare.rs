//! `perfbench compare A B`: per workload, each side's median and quartiles of every end-to-end
//! metric, and a verdict against the metric's bound in `BENCHMARK.json`.
//!
//! A and B are files or directories of saved `perfbench` output; every run record (the JSON
//! line with a `perfbench_run` key) of an untraced run counts.  Quartiles follow Python's
//! `statistics.quantiles(values, n=4)`.  Verdicts, with "worse" meaning the metric moved in
//! its bad direction:
//!
//! * `worse` — B's median is worse than A's by more than the bound;
//! * `better` — B's median is better than A's by more than A's own quartile spread, and B's
//!   quartiles do not overlap A's;
//! * `unresolved` — neither, while either side's spread is wider than the bound;
//! * `within` — neither, and both spreads fit inside the bound.

use std::collections::BTreeMap;
use std::path::Path;

use serde_json::Value as Json;

use crate::report::END_TO_END;
use crate::util::median;

/// Bound used for metrics `BENCHMARK.json` does not list.
const DEFAULT_BOUND: f64 = 0.25;

type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn collect(path: &Path, runs: &mut Runs) -> Result<(), String> {
    if path.is_dir() {
        let mut entries: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("{}: {e}", path.display()))?
            .flatten()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for entry in entries {
            collect(&entry, runs)?;
        }
        return Ok(());
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    for line in text.lines().filter(|l| l.starts_with('{')) {
        let Ok(record) = serde_json::from_str(line) else { continue };
        if record.get("perfbench_run").is_none() || record.get("trace") != Some(&Json::Bool(false))
        {
            continue;
        }
        let Some(workload) = record.get("workload").and_then(Json::as_str) else { continue };
        let Some(Json::Object(metrics)) = record.get("metrics") else { continue };
        let per = runs.entry(workload.to_string()).or_default();
        for (name, value) in metrics {
            if let Some(v) = value.as_f64() {
                per.entry(name.clone()).or_default().push(v);
            }
        }
    }
    Ok(())
}

/// Python's `statistics.quantiles(values, n=4)` (exclusive method); needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let q = |k: usize| {
        let p = (m + 1) as f64 * k as f64 / 4.0;
        let j = (p.floor() as usize).clamp(1, m - 1);
        let delta = p - j as f64;
        v[j - 1] + delta * (v[j] - v[j - 1])
    };
    Some((q(1), q(2), q(3)))
}

/// `(bound, better)` per metric from `BENCHMARK.json`.
fn bounds(path: &Path) -> Result<BTreeMap<String, (f64, String)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = BTreeMap::new();
    if let Some(Json::Array(list)) = doc.get("end_to_end") {
        for m in list {
            if let (Some(name), Some(bound), Some(better)) = (
                m.get("name").and_then(Json::as_str),
                m.get("bound").and_then(Json::as_f64),
                m.get("better").and_then(Json::as_str),
            ) {
                out.insert(name.to_string(), (bound, better.to_string()));
            }
        }
    }
    Ok(out)
}

fn verdict(a: &[f64], b: &[f64], bound: f64, lower_better: bool) -> &'static str {
    let (Some((a1, am, a3)), Some((b1, bm, b3))) = (quartiles(a), quartiles(b)) else {
        return "unresolved";
    };
    if am == 0.0 {
        return if bm == 0.0 {
            "within"
        } else if lower_better {
            "worse"
        } else {
            "better"
        };
    }
    // Positive = B moved in the bad direction, as a share of A's median.
    let worse_by = if lower_better { (bm - am) / am } else { (am - bm) / am };
    let spread = |q1: f64, q3: f64, m: f64| if m != 0.0 { (q3 - q1) / m.abs() } else { 0.0 };
    let (sa, sb) = (spread(a1, a3, am), spread(b1, b3, bm));
    let apart = if lower_better { b3 < a1 } else { b1 > a3 };
    if worse_by > bound {
        "worse"
    } else if -worse_by > sa && apart {
        "better"
    } else if sa > bound || sb > bound {
        "unresolved"
    } else {
        "within"
    }
}

pub fn run(args: &[String]) -> Result<(), String> {
    let mut paths = Vec::new();
    let mut bounds_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--bounds" {
            bounds_path = it.next().ok_or("--bounds needs a path")?.clone();
        } else {
            paths.push(arg.clone());
        }
    }
    let [a_path, b_path] = paths.as_slice() else {
        return Err("compare needs exactly two result sets".into());
    };
    let (mut a, mut b) = (Runs::new(), Runs::new());
    collect(Path::new(a_path), &mut a)?;
    collect(Path::new(b_path), &mut b)?;
    let bounds = bounds(Path::new(&bounds_path)).unwrap_or_default();

    let fmt = |v: &[f64]| match quartiles(v) {
        Some((q1, m, q3)) => format!("{m:.3} [{q1:.3}, {q3:.3}]"),
        None if v.len() == 1 => format!("{:.3} (1 run)", median(v)),
        None => "n/a".to_string(),
    };
    println!("A = {a_path}\nB = {b_path}\nmedian [q1, q3] per side; verdict against the bound");
    let workloads: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    for workload in workloads {
        let empty = BTreeMap::new();
        let (ra, rb) = (a.get(workload).unwrap_or(&empty), b.get(workload).unwrap_or(&empty));
        let runs = |r: &BTreeMap<String, Vec<f64>>| r.get("ops_per_s").map(Vec::len).unwrap_or(0);
        println!("\n{workload}  (A: {} runs, B: {} runs)", runs(ra), runs(rb));
        for (name, unit) in END_TO_END {
            let (va, vb) = (
                ra.get(*name).cloned().unwrap_or_default(),
                rb.get(*name).cloned().unwrap_or_default(),
            );
            if va.is_empty() && vb.is_empty() {
                println!("  {name:<18} n/a");
                continue;
            }
            let (bound, note) = match bounds.get(*name) {
                Some((bound, _)) => (*bound, String::new()),
                None => (DEFAULT_BOUND, " (bound not in BENCHMARK.json)".to_string()),
            };
            // Outside BENCHMARK.json, every metric but the throughput is better when lower.
            let lower =
                bounds.get(*name).map(|(_, b)| b == "lower").unwrap_or(*name != "ops_per_s");
            let v = verdict(&va, &vb, bound, lower);
            println!(
                "  {name:<18} {unit:<6} A {:<34} B {:<34} {v} (bound {bound}){note}",
                fmt(&va),
                fmt(&vb)
            );
        }
    }
    Ok(())
}
