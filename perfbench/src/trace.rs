//! Spans recorded by the benchmark around its calls into each layer's public entry points.
//!
//! A traced run replays one seeded op stream at successive layer entry points; spans of the
//! same op share its index, so a layer's self time is its span minus the next-lower layer's
//! span for the same op.  Spans stay in memory and are written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::util::{median, Samples};

/// Ops per block when untraced and traced replays of a stream are interleaved.
pub const BLOCK: usize = 32;

pub struct Span {
    pub layer: &'static str,
    pub kind: &'static str,
    pub op: usize,
    pub parent: &'static str,
    pub start_us: f64,
    pub dur_us: f64,
}

pub struct Tracer {
    workload: &'static str,
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Self {
        Tracer { workload, origin: Instant::now(), spans: Vec::new() }
    }

    /// Runs `f` inside a span of `layer` for op `op`; `parent` names the enclosing layer
    /// (`"-"` at the top).
    pub fn span<R>(
        &mut self,
        layer: &'static str,
        kind: &'static str,
        op: usize,
        parent: &'static str,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let r = f();
        self.push(layer, kind, op, parent, start, Instant::now());
        r
    }

    /// Records a span timed by the caller (for spans that enclose other spans).
    pub fn push(
        &mut self,
        layer: &'static str,
        kind: &'static str,
        op: usize,
        parent: &'static str,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            layer,
            kind,
            op,
            parent,
            start_us: (start - self.origin).as_secs_f64() * 1e6,
            dur_us: (end - start).as_secs_f64() * 1e6,
        });
    }

    /// Total span time per op index of the given layers.
    pub fn per_op(&self, layers: &[&str]) -> BTreeMap<usize, f64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| layers.contains(&s.layer)) {
            *out.entry(s.op).or_insert(0.0) += s.dur_us;
        }
        out
    }

    /// Durations of the spans of one layer and kind (any kind when `kind` is `None`).
    pub fn durations(&self, layer: &str, kind: Option<&str>) -> Samples {
        Samples(
            self.spans
                .iter()
                .filter(|s| s.layer == layer && kind.is_none_or(|k| s.kind == k))
                .map(|s| s.dur_us)
                .collect(),
        )
    }

    /// Writes every span as CSV (`workload,layer,kind,op,parent,start_us,dur_us`).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "workload,layer,kind,op,parent,start_us,dur_us")?;
        for s in &self.spans {
            writeln!(
                out,
                "{},{},{},{},{},{:.3},{:.3}",
                self.workload, s.layer, s.kind, s.op, s.parent, s.start_us, s.dur_us
            )?;
        }
        out.flush()
    }
}

/// Self times of a chain of layers, top first: for each op index present in the top layer,
/// `top − next`, `next − lower`, ..., and the bottom layer's whole span, clamped at 0 (the
/// layers are separate replays, so a difference can come out negative by noise).
///
/// Also returns the coverage Σ layer self time / op time, from per-group medians (`group`
/// names an op's kind) of each layer's per-op self time and of the top span.  The median of
/// differences does not telescope, so a coverage near 1 says the separately replayed layers
/// agree op by op; outliers on single ops do not move it.
pub fn self_times(
    chain: &[&BTreeMap<usize, f64>],
    group: impl Fn(usize) -> &'static str,
) -> (Vec<Samples>, f64) {
    let mut selfs = vec![Samples::default(); chain.len()];
    // Per group: the top spans, and each layer's self times.
    let mut groups: BTreeMap<&str, (Vec<f64>, Vec<Vec<f64>>)> = BTreeMap::new();
    for (&op, &top) in chain[0] {
        let times: Vec<f64> =
            chain.iter().map(|layer| layer.get(&op).copied().unwrap_or(0.0)).collect();
        let entry =
            groups.entry(group(op)).or_insert_with(|| (Vec::new(), vec![Vec::new(); chain.len()]));
        entry.0.push(top);
        for (i, own) in times.iter().enumerate() {
            let below = times.get(i + 1).copied().unwrap_or(0.0);
            let own_self = (own - below).max(0.0);
            selfs[i].0.push(own_self);
            entry.1[i].push(own_self);
        }
    }
    let (mut covered, mut total) = (0.0, 0.0);
    for (tops, layer_selfs) in groups.values() {
        let n = tops.len() as f64;
        total += n * median(tops);
        covered += n * layer_selfs.iter().map(|s| median(s)).sum::<f64>();
    }
    (selfs, if total > 0.0 { covered / total } else { 0.0 })
}
