//! The per-layer metrics of the traced run, by module, each with the
//! end-to-end metric it should move (see `BENCHMARK.json`):
//!
//! - `server::http` — read and write times: `p50_rel` on `warm_read`
//!   (warm audit) and on `ingest_audit` (ingest).
//! - `server::handlers` — ingest body parse (`p50_rel` on `ingest_audit`)
//!   and the request time no other layer explains.
//! - `server::state` — validate-and-enqueue, the merged-snapshot lookup
//!   (`side_p50_rel`, the cold audit, on `ingest_audit`) and the cache hit
//!   ratios (about 1 on `warm_read`, about 0 on `ingest_audit`).
//! - `core::fleet` — the consistent cut, `merge_many`, and the shard queue
//!   depth and its growth (`side_tail_rel` on `ingest_audit`).
//! - `core::monitor` — push busy time per chunk and bucket evictions.
//! - `core::edf`, `core::epsilon`, `core::metric` — the subset lattice
//!   and the ε kernel, summed per audit, with call counts
//!   (`side_p50_rel` on `ingest_audit`; zero calls on `warm_read`).
//! - `core::builder` — `Audit::run`, render, and `Audit::run` minus its
//!   isolated stages.
//! - `data::replay`, `prob::partial` — decode and tally per million rows,
//!   measured on `ingest_audit`: the decode on the traced run's rows
//!   replayed from a DFRL log, the tally as the shard tally of one ingest
//!   chunk (`tail_rel` there).
//! - the load generator — how late it sent, and the traced request
//!   loop's p50 with recording on over its p50 with recording off.
//! - `host.reference_us` — the median of the reference the end-to-end
//!   figures are relative to (the echo round trip on `warm_read`, the CPU
//!   probe on `ingest_audit`), so a reader can turn them back into µs.
//! - `scrape.*` — the server's own counters, read over HTTP after the
//!   untraced run.

use crate::scrape::Scrape;
use crate::trace::Trace;
use crate::Args;
use std::collections::BTreeMap;

/// Every per-layer metric with its unit, in print order. Each traced run
/// prints all of them; a layer a workload never calls reads 0.
pub const CATALOGUE: &[(&str, &str)] = &[
    ("http.read_request_us", "us"),
    ("http.write_response_us", "us"),
    ("handlers.ingest_body_parse_us", "us"),
    ("handlers.route_unattributed_us", "us"),
    ("state.ingest_rows_us", "us"),
    ("state.merged_cached_us", "us"),
    ("state.cached_response_us", "us"),
    ("state.response_cache_hit_ratio", "ratio"),
    ("state.snapshot_cache_hit_ratio", "ratio"),
    ("fleet.cut_us", "us"),
    ("fleet.merge_many_us", "us"),
    ("fleet.queue_depth_max", "count"),
    ("fleet.backlog_growth", "count"),
    ("monitor.push_us", "us"),
    ("monitor.evictions", "count"),
    ("edf.from_table_us", "us"),
    ("edf.marginal_to_us", "us"),
    ("edf.marginal_to_calls", "count"),
    ("epsilon.group_outcomes_us", "us"),
    ("epsilon.group_outcomes_calls", "count"),
    ("epsilon.smoothed_us", "us"),
    ("epsilon.smoothed_calls", "count"),
    ("epsilon.kernel_us", "us"),
    ("epsilon.kernel_calls", "count"),
    ("metric.evaluate_us", "us"),
    ("metric.evaluate_calls", "count"),
    ("builder.audit_run_us", "us"),
    ("builder.render_us", "us"),
    ("builder.unattributed_us", "us"),
    ("replay.decode_us_per_mrow", "us"),
    ("replay.bytes_per_row", "B"),
    ("partial.tally_us_per_mrow", "us"),
    ("partial.tally_calls", "count"),
    ("loadgen.late_p99_us", "us"),
    ("host.reference_us", "us"),
    ("trace.overhead_ratio", "ratio"),
    ("scrape.response_cache_hits", "count"),
    ("scrape.response_cache_lookups", "count"),
    ("scrape.snapshot_cache_hits", "count"),
    ("scrape.snapshot_cache_lookups", "count"),
    ("scrape.snapshot_cuts", "count"),
    ("scrape.snapshot_cut_us", "us"),
    ("scrape.monitor_pushes", "count"),
    ("scrape.monitor_push_us", "us"),
    ("scrape.monitor_evictions", "count"),
];

/// Spans timed per call and reported per request that made them.
const TIMED: &[&str] = &[
    "http.read_request",
    "http.write_response",
    "handlers.ingest_body_parse",
    "state.ingest_rows",
    "state.merged_cached",
    "state.cached_response",
    "fleet.cut",
    "fleet.merge_many",
    "monitor.push",
    "edf.from_table",
    "edf.marginal_to",
    "epsilon.group_outcomes",
    "epsilon.smoothed",
    "epsilon.kernel",
    "metric.evaluate",
    "builder.audit_run",
    "builder.render",
];

/// The isolated stages whose sum `Audit::run` is compared against.
const RUN_STAGES: &[&str] = &[
    "edf.marginal_to",
    "epsilon.group_outcomes",
    "metric.evaluate",
];

/// Root spans of requests served over HTTP.
const HTTP_PATHS: &[&str] = &[
    "warm_audit",
    "cold_audit",
    "warm_monitor",
    "cold_monitor",
    "ingest_chunk",
];

#[derive(Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
}

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            CATALOGUE.iter().any(|(n, _)| *n == name),
            "{name} is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// Every catalogue metric with its value (0 when never set).
    pub fn values(&self) -> impl Iterator<Item = (&'static str, f64, &'static str)> + '_ {
        CATALOGUE
            .iter()
            .map(|&(name, unit)| (name, self.values.get(name).copied().unwrap_or(0.0), unit))
    }

    pub fn scrape(&mut self, s: &Scrape) {
        self.set(
            "state.response_cache_hit_ratio",
            Scrape::ratio(s.response_cache_hits, s.response_cache_lookups),
        );
        self.set(
            "state.snapshot_cache_hit_ratio",
            Scrape::ratio(s.snapshot_cache_hits, s.snapshot_cache_lookups),
        );
        self.set("scrape.response_cache_hits", s.response_cache_hits);
        self.set("scrape.response_cache_lookups", s.response_cache_lookups);
        self.set("scrape.snapshot_cache_hits", s.snapshot_cache_hits);
        self.set("scrape.snapshot_cache_lookups", s.snapshot_cache_lookups);
        self.set("scrape.snapshot_cuts", s.cut_count);
        self.set("scrape.snapshot_cut_us", s.cut_mean_s * 1e6);
        self.set("scrape.monitor_pushes", s.push_count);
        self.set("scrape.monitor_push_us", s.push_mean_s * 1e6);
        self.set("scrape.monitor_evictions", s.evictions);
    }

    /// Reads the span-derived metrics off a traced run, prints the layer
    /// ledger beside the untraced end-to-end medians, and writes the
    /// spans to `.bench_out/`.
    pub fn trace(&mut self, trace: &Trace, args: &Args, e2e_p50_us: &[(&'static str, f64)]) {
        let ledger = trace.ledger();
        for name in TIMED {
            let metric: &'static str = CATALOGUE
                .iter()
                .map(|(n, _)| *n)
                .find(|n| n.strip_suffix("_us") == Some(name))
                .expect("timed layer in catalogue");
            self.set(metric, ledger.per_request_us(name));
        }
        for name in [
            "edf.marginal_to",
            "epsilon.group_outcomes",
            "epsilon.smoothed",
            "epsilon.kernel",
            "metric.evaluate",
            "partial.tally",
        ] {
            let metric = CATALOGUE
                .iter()
                .map(|(n, _)| *n)
                .find(|n| n.strip_suffix("_calls") == Some(name))
                .expect("counted layer in catalogue");
            self.set(metric, ledger.calls(name) as f64);
        }
        let (http_ns, http_requests) = HTTP_PATHS
            .iter()
            .filter_map(|p| ledger.paths.get(p))
            .fold((0u64, 0u64), |a, p| {
                (a.0 + p.unattributed_ns, a.1 + p.requests)
            });
        if http_requests > 0 {
            self.set(
                "handlers.route_unattributed_us",
                http_ns as f64 / http_requests as f64 / 1e3,
            );
        }
        if let Some(stages) = ledger.paths.get("audit_stages") {
            let per_audit: f64 = RUN_STAGES
                .iter()
                .filter_map(|s| stages.layers.get(s))
                .map(|l| l.self_ns as f64)
                .sum::<f64>()
                / stages.requests.max(1) as f64
                / 1e3;
            self.set(
                "builder.unattributed_us",
                ledger.per_request_us("builder.audit_run") - per_audit,
            );
        }
        println!("layer ledger (traced run; self time per request of each path):");
        ledger.print(&e2e_p50_us.iter().copied().collect());
        let path = std::path::Path::new(".bench_out")
            .join(format!("spans-{}-seed{}.csv", args.workload, args.seed));
        match trace.write_csv(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => println!("spans not written to {}: {e}", path.display()),
        }
    }

    /// Per-million-row cost of a span over `rows` rows.
    pub fn per_mrow(&mut self, metric: &'static str, trace: &Trace, span: &str, rows: f64) {
        let ns = trace.ledger().self_ns(span) as f64;
        if rows > 0.0 {
            self.set(metric, ns / 1e3 / rows * 1e6);
        }
    }
}
