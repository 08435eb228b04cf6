//! Spans for the traced run, and the layer ledger built from them.
//!
//! The benchmark's own code wraps each call into a layer in a span: name,
//! start, end, parent and request id. Spans are kept in memory per thread
//! and written out when the run ends. Time comes from df-obs's
//! `RealClock`, the same seam the server's own telemetry uses.
//!
//! A span's self time is its duration minus the time its child spans
//! cover. The self time of a request's root span is the part of the
//! request no layer span explains; the ledger reports it as an explicit
//! `unattributed` row.

use differential_fairness::obs::{Clock, RealClock};
use std::collections::{BTreeMap, HashSet};
use std::io::Write;
use std::sync::Arc;

/// One closed span.
pub struct SpanRec {
    pub request: u64,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

/// Spans kept for the written trace; the ledger counts every span.
const KEEP_SPANS: usize = 100_000;

/// A per-thread span recorder. Nesting follows an explicit stack: a span
/// entered while another is open becomes its child. When a root span
/// closes, its tree is folded into the ledger; the spans themselves are
/// kept only up to `KEEP_SPANS`, so memory stays bounded.
pub struct Trace {
    clock: Arc<RealClock>,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
    request: u64,
    root_start: usize,
    recorded: u64,
    ledger: Ledger,
    /// When false, `enter`/`exit` record nothing (warm-up).
    pub recording: bool,
}

impl Trace {
    pub fn new(clock: Arc<RealClock>) -> Self {
        Self {
            clock,
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
            root_start: 0,
            recorded: 0,
            ledger: Ledger::default(),
            recording: true,
        }
    }

    pub fn now(&self) -> u64 {
        self.clock.monotonic_nanos()
    }

    /// Starts a new request: the next root span carries this id.
    pub fn request(&mut self, id: u64) {
        self.request = id;
    }

    pub fn enter(&mut self, name: &'static str) {
        if !self.recording {
            return;
        }
        if self.open.is_empty() {
            self.root_start = self.spans.len();
        }
        let start = self.now();
        self.spans.push(SpanRec {
            request: self.request,
            parent: self.open.last().copied(),
            name,
            start,
            end: start,
        });
        self.open.push(self.spans.len() - 1);
    }

    pub fn exit(&mut self) {
        if !self.recording {
            return;
        }
        let end = self.now();
        if let Some(i) = self.open.pop() {
            self.spans[i].end = end;
        }
        if self.open.is_empty() {
            let tree = &self.spans[self.root_start..];
            self.ledger.add(tree, self.root_start);
            self.recorded += tree.len() as u64;
            if self.spans.len() > KEEP_SPANS {
                self.spans.truncate(self.root_start);
            }
        }
    }

    /// Names the open root span once the request has been routed.
    pub fn rename_root(&mut self, name: &'static str) {
        if let (true, Some(&i)) = (self.recording, self.open.first()) {
            self.spans[i].name = name;
        }
    }

    /// Runs `f` inside a leaf span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Takes in another thread's ledger and kept spans, re-basing their
    /// parent indices.
    pub fn absorb(&mut self, other: Trace) {
        self.ledger.merge(other.ledger);
        self.recorded += other.recorded;
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
        self.spans.truncate(KEEP_SPANS);
    }

    /// Writes the kept spans, one CSV line each:
    /// `request,span,parent,name,start_ns,end_ns`.
    pub fn write_csv(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "# the first {} of {} spans recorded",
            self.spans.len(),
            self.recorded
        )?;
        writeln!(out, "request,span,parent,name,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(String::new(), |p| p.to_string());
            writeln!(
                out,
                "{},{i},{parent},{},{},{}",
                s.request, s.name, s.start, s.end
            )?;
        }
        out.flush()
    }

    pub fn ledger(&self) -> &Ledger {
        &self.ledger
    }
}

/// Per-layer totals within one path (one kind of root span).
#[derive(Default)]
pub struct LayerAgg {
    pub calls: u64,
    pub self_ns: u64,
    /// Roots in which the layer ran at least once.
    pub requests: u64,
}

#[derive(Default)]
pub struct PathAgg {
    pub requests: u64,
    pub total_ns: u64,
    /// Self time of the root span: time no layer span covers.
    pub unattributed_ns: u64,
    pub layers: BTreeMap<&'static str, LayerAgg>,
}

impl PathAgg {
    pub fn mean_us(&self) -> f64 {
        self.total_ns as f64 / self.requests.max(1) as f64 / 1e3
    }
}

/// Layer self times grouped by root span name.
#[derive(Default)]
pub struct Ledger {
    pub paths: BTreeMap<&'static str, PathAgg>,
}

impl Ledger {
    /// Folds in closed span trees whose parent indices count from `base`.
    fn add(&mut self, spans: &[SpanRec], base: usize) {
        let mut child_ns = vec![0u64; spans.len()];
        let mut root = vec![0usize; spans.len()];
        for (i, s) in spans.iter().enumerate() {
            // Parents precede children, so the root is already resolved.
            root[i] = match s.parent {
                Some(p) => {
                    child_ns[p - base] += s.end - s.start;
                    root[p - base]
                }
                None => i,
            };
        }
        let mut seen: HashSet<(&'static str, usize)> = HashSet::new();
        for (i, s) in spans.iter().enumerate() {
            let self_ns = (s.end - s.start).saturating_sub(child_ns[i]);
            let r = root[i];
            let path = self.paths.entry(spans[r].name).or_default();
            if s.parent.is_none() {
                path.requests += 1;
                path.total_ns += s.end - s.start;
                path.unattributed_ns += self_ns;
                continue;
            }
            let layer = path.layers.entry(s.name).or_default();
            layer.calls += 1;
            layer.self_ns += self_ns;
            if seen.insert((s.name, r)) {
                layer.requests += 1;
            }
        }
    }

    fn merge(&mut self, other: Ledger) {
        for (name, theirs) in other.paths {
            let mine = self.paths.entry(name).or_default();
            mine.requests += theirs.requests;
            mine.total_ns += theirs.total_ns;
            mine.unattributed_ns += theirs.unattributed_ns;
            for (layer, agg) in theirs.layers {
                let m = mine.layers.entry(layer).or_default();
                m.calls += agg.calls;
                m.self_ns += agg.self_ns;
                m.requests += agg.requests;
            }
        }
    }

    /// Self time of `layer` per request that ran it, in µs, over every
    /// path (0 when the layer never ran).
    pub fn per_request_us(&self, layer: &str) -> f64 {
        let (ns, req) = self.sum(layer, |l| (l.self_ns, l.requests));
        if req == 0 {
            0.0
        } else {
            ns as f64 / req as f64 / 1e3
        }
    }

    pub fn calls(&self, layer: &str) -> u64 {
        self.sum(layer, |l| (l.calls, 0)).0
    }

    pub fn self_ns(&self, layer: &str) -> u64 {
        self.sum(layer, |l| (l.self_ns, 0)).0
    }

    fn sum(&self, layer: &str, f: impl Fn(&LayerAgg) -> (u64, u64)) -> (u64, u64) {
        self.paths
            .values()
            .filter_map(|p| p.layers.get(layer))
            .map(f)
            .fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
    }

    /// Prints each path's layer self times per request beside the
    /// untraced end-to-end median, with `unattributed` as its own row.
    pub fn print(&self, e2e_p50_us: &BTreeMap<&'static str, f64>) {
        for (name, path) in &self.paths {
            let n = path.requests.max(1) as f64;
            let mut line = format!(
                "ledger {name}: {} requests, traced mean {:.1} us",
                path.requests,
                path.mean_us()
            );
            if let Some(p50) = e2e_p50_us.get(name) {
                line.push_str(&format!(", untraced end-to-end p50 {p50:.1} us"));
            }
            println!("{line}");
            println!(
                "  {:<32} {:>10} {:>14} {:>7}",
                "layer", "calls/req", "self us/req", "share"
            );
            let total = path.total_ns.max(1) as f64;
            for (layer, agg) in &path.layers {
                println!(
                    "  {:<32} {:>10.2} {:>14.2} {:>6.1}%",
                    layer,
                    agg.calls as f64 / n,
                    agg.self_ns as f64 / n / 1e3,
                    100.0 * agg.self_ns as f64 / total
                );
            }
            println!(
                "  {:<32} {:>10} {:>14.2} {:>6.1}%",
                "unattributed",
                "-",
                path.unattributed_ns as f64 / n / 1e3,
                100.0 * path.unattributed_ns as f64 / total
            );
        }
    }
}
