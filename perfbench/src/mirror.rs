//! The traced request loop.
//!
//! In the traced run the benchmark serves the generated traffic itself:
//! it reads each request with `df_server::http::read_request`, calls the
//! public functions of each layer in the order the server's router calls
//! them (`ServerState`, `merge_many`, `Audit`, the renderers), and writes
//! the reply with `http::write_response`, wrapping every call in a span.
//! Work the server does off the request path (the shard monitor push and
//! tally) and the stages inside `Audit::run` are re-run in isolation on
//! the same inputs after the reply is written, under their own root
//! spans, so they never delay a client. With recording off the loop does
//! no re-runs, apart from the monitor push that keeps the isolated
//! monitor's window current; the two settings on the same traffic give
//! the tracing overhead.
//!
//! The server's body parsers are private, so `parse_json_rows` and
//! `parse_csv_rows` below are copies of them, kept to the server's
//! behaviour by the byte-for-byte output checks.

use crate::gen::OUTCOME;
use crate::trace::Trace;
use differential_fairness::core::builder::{
    Audit, AuditReport, Empirical, EpsilonEstimator, PosteriorSup, Smoothed, SubsetPolicy,
};
use differential_fairness::core::fleet::merge_many;
use differential_fairness::core::metric::{EpsilonDf, Metric};
use differential_fairness::core::monitor::{FairnessMonitor, MonitorSnapshot};
use differential_fairness::core::report::ResponseFormat;
use differential_fairness::core::JointCounts;
use differential_fairness::data::chunks::{CsvChunks, LabelChunk};
use differential_fairness::data::csv::CsvOptions;
use differential_fairness::obs::RealClock;
use differential_fairness::prob::contingency::Axis;
use differential_fairness::prob::partial::{PartialCounts, Tally};
use differential_fairness::server::http::{
    parse_query, query_param, read_request, write_response, NextRequest, Request, Response,
    POLL_INTERVAL,
};
use differential_fairness::server::ServerState;
use serde_json::Value;
use std::io::Cursor;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

const SNAPSHOT_TIMEOUT: Duration = Duration::from_secs(5);
const MAX_BODY: usize = 1 << 20;

/// Work left for after the reply: the isolated re-runs.
enum Deferred {
    None,
    Audit {
        counts: JointCounts,
        estimators: Vec<Box<dyn EpsilonEstimator>>,
        policy: SubsetPolicy,
    },
    Ingest {
        chunk: LabelChunk,
        at: f64,
    },
}

/// Shared by the traced connection threads.
pub struct Mirror<'a> {
    state: &'a ServerState,
    /// Replica snapshots merged into every cut (the traced server holds
    /// none itself, so the cut and `merge_many` are timed apart).
    replicas: Vec<MonitorSnapshot>,
    merged: Mutex<Option<(u64, MonitorSnapshot)>>,
    /// A monitor configured like one shard, for the isolated push.
    monitor: Mutex<FairnessMonitor>,
    axes: Vec<Axis>,
    /// Whether requests starting now are recorded (false in warm-up and
    /// in the untraced part of the traced run).
    pub record: AtomicBool,
}

impl<'a> Mirror<'a> {
    pub fn new(
        state: &'a ServerState,
        replicas: Vec<MonitorSnapshot>,
        monitor: FairnessMonitor,
        axes: Vec<Axis>,
    ) -> Self {
        Self {
            state,
            replicas,
            merged: Mutex::new(None),
            monitor: Mutex::new(monitor),
            axes,
            record: AtomicBool::new(false),
        }
    }

    /// Buckets the shard monitor evicted so far.
    pub fn monitor_evictions(&self) -> u64 {
        self.monitor
            .lock()
            .expect("mirror monitor lock")
            .telemetry()
            .evicted_buckets
            .get()
    }

    /// Feeds the isolated monitor untimed (set-up prefill).
    pub fn prefill_monitor(&self, chunk: &LabelChunk, at: f64) {
        self.monitor
            .lock()
            .expect("mirror monitor lock")
            .push_at(chunk, at)
            .expect("prefill push");
    }

    /// Serves one keep-alive connection until the peer closes or `stop`
    /// is set. Request ids are `id_base + n`.
    pub fn serve(&self, mut stream: TcpStream, trace: &mut Trace, stop: &AtomicBool, id_base: u64) {
        stream
            .set_read_timeout(Some(POLL_INTERVAL))
            .expect("read timeout");
        stream.set_nodelay(true).expect("nodelay");
        let mut n = 0u64;
        loop {
            // Block until the next request's first byte, so the spans
            // measure work, not the client's think time.
            let mut probe = [0u8; 1];
            match stream.peek(&mut probe) {
                Ok(0) => return,
                Ok(_) => {}
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    continue;
                }
                Err(_) => return,
            }
            n += 1;
            trace.recording = self.record.load(Ordering::SeqCst);
            trace.request(id_base + n);
            trace.enter("request");
            let next = trace.time("http.read_request", || {
                read_request(&mut stream, MAX_BODY, stop, Duration::from_secs(5))
            });
            let req = match next {
                Ok(NextRequest::Ready(req)) => req,
                _ => {
                    trace.exit();
                    return;
                }
            };
            let (path, resp, deferred) = self.route(&req, trace);
            trace.rename_root(path);
            let written = trace.time("http.write_response", || {
                write_response(&mut stream, &resp, req.keep_alive)
            });
            trace.exit();
            self.run_deferred(deferred, trace);
            if written.is_err() || !req.keep_alive {
                return;
            }
        }
    }

    fn route(&self, req: &Request, trace: &mut Trace) -> (&'static str, Response, Deferred) {
        let params = parse_query(&req.query);
        let result = match (req.method.as_str(), req.path.as_str()) {
            ("GET", "/v1/audit") => self.audit(req, &params, trace),
            ("GET", "/v1/monitor") => self.monitor(req, &params, trace),
            ("POST", "/v1/ingest/records") => self.ingest(req, &params, trace),
            _ => Err(format!(
                "the traced loop does not route {} {}",
                req.method, req.path
            )),
        };
        result.unwrap_or_else(|e| {
            let body = format!("{{\"error\":{:?}}}", e).into_bytes();
            (
                "error",
                Response::new(500, "application/json", body),
                Deferred::None,
            )
        })
    }

    /// `ServerState::merged_cached`, with any replica snapshots folded in
    /// by `merge_many` (behind the same version-keyed cache).
    fn merged(&self, trace: &mut Trace) -> Result<(u64, MonitorSnapshot), String> {
        trace.enter("state.merged_cached");
        let out = if self.replicas.is_empty() {
            self.state
                .merged_cached(SNAPSHOT_TIMEOUT)
                .map_err(|e| e.to_string())
        } else {
            let cut = trace.time("fleet.cut", || self.state.merged_cached(SNAPSHOT_TIMEOUT));
            cut.map_err(|e| e.to_string()).and_then(|(version, local)| {
                let mut cache = self.merged.lock().expect("merge cache lock");
                if let Some((v, snap)) = &*cache {
                    if *v == version {
                        return Ok((version, snap.clone()));
                    }
                }
                let mut all = Vec::with_capacity(1 + self.replicas.len());
                all.push(local);
                all.extend(self.replicas.iter().cloned());
                let merged = trace
                    .time("fleet.merge_many", || {
                        merge_many(&all, &Smoothed { alpha: 1.0 })
                    })
                    .map_err(|e| e.to_string())?;
                *cache = Some((version, merged.clone()));
                Ok((version, merged))
            })
        };
        trace.exit();
        out
    }

    fn audit(
        &self,
        req: &Request,
        params: &[(String, String)],
        trace: &mut Trace,
    ) -> Result<(&'static str, Response, Deferred), String> {
        let format = format_of(params)?;
        let (version, snap) = self.merged(trace)?;
        let key = format!("{}?{}#{}", req.path, req.query, format.name());
        if let Some(resp) = trace.time("state.cached_response", || {
            self.state.cached_response(version, &key)
        }) {
            return Ok(("warm_audit", resp, Deferred::None));
        }
        let counts = trace
            .time("edf.from_table", || {
                snap.window
                    .to_table()
                    .and_then(|t| JointCounts::from_table(t, OUTCOME))
            })
            .map_err(|e| e.to_string())?;
        let estimators = estimators_of(params)?;
        let policy = policy_of(params)?;
        let report = trace
            .time("builder.audit_run", || {
                run_audit(&counts, &estimators, policy)
            })
            .map_err(|e| e.to_string())?;
        let body = trace
            .time("builder.render", || report.render(format))
            .map_err(|e| e.to_string())?;
        let resp = Response::new(200, format.mime(), body.into_bytes());
        trace.time("state.store_response", || {
            self.state.store_response(version, &key, &resp)
        });
        Ok((
            "cold_audit",
            resp,
            Deferred::Audit {
                counts,
                estimators,
                policy,
            },
        ))
    }

    fn monitor(
        &self,
        req: &Request,
        params: &[(String, String)],
        trace: &mut Trace,
    ) -> Result<(&'static str, Response, Deferred), String> {
        let format = format_of(params)?;
        let (version, snap) = self.merged(trace)?;
        let key = format!("{}?{}#{}", req.path, req.query, format.name());
        if let Some(resp) = trace.time("state.cached_response", || {
            self.state.cached_response(version, &key)
        }) {
            return Ok(("warm_monitor", resp, Deferred::None));
        }
        let body = trace
            .time("builder.render", || snap.render(format))
            .map_err(|e| e.to_string())?;
        let resp = Response::new(200, format.mime(), body.into_bytes());
        trace.time("state.store_response", || {
            self.state.store_response(version, &key, &resp)
        });
        Ok(("cold_monitor", resp, Deferred::None))
    }

    fn ingest(
        &self,
        req: &Request,
        params: &[(String, String)],
        trace: &mut Trace,
    ) -> Result<(&'static str, Response, Deferred), String> {
        let csv = req
            .header("content-type")
            .is_some_and(|c| c.starts_with("text/csv"));
        let (rows, body_at) = trace.time("handlers.ingest_body_parse", || {
            if csv {
                parse_csv_rows(&req.body).map(|rows| (rows, None))
            } else {
                parse_json_rows(&req.body)
            }
        })?;
        let at = match query_param(params, "at") {
            Some(raw) => raw.parse::<f64>().map_err(|e| e.to_string())?,
            None => body_at.ok_or("ingest body carries no timestamp")?,
        };
        let chunk = LabelChunk::new(rows.clone());
        let (accepted, shard) = trace
            .time("state.ingest_rows", || {
                self.state.ingest_rows(rows, at, None)
            })
            .map_err(|e| e.to_string())?;
        let body = serde_json::to_string(&Value::Obj(vec![
            ("accepted".to_string(), Value::Int(accepted as i64)),
            ("shard".to_string(), Value::Int(shard as i64)),
            ("at".to_string(), Value::Float(at)),
            (
                "version".to_string(),
                Value::Int(self.state.version() as i64),
            ),
        ]))
        .map_err(|e| e.to_string())?;
        Ok((
            "ingest_chunk",
            Response::new(200, "application/json", body.into_bytes()),
            Deferred::Ingest { chunk, at },
        ))
    }

    fn run_deferred(&self, deferred: Deferred, trace: &mut Trace) {
        match deferred {
            Deferred::None => {}
            Deferred::Audit { .. } if !trace.recording => {}
            Deferred::Audit {
                counts,
                estimators,
                policy,
            } => {
                trace.enter("audit_stages");
                audit_stages(&counts, &estimators, policy, trace);
                trace.exit();
            }
            Deferred::Ingest { chunk, at } => {
                trace.enter("shard_work");
                let mut monitor = self.monitor.lock().expect("mirror monitor lock");
                let pushed = trace.time("monitor.push", || monitor.push_at(&chunk, at));
                drop(monitor);
                pushed.expect("isolated monitor push");
                if !trace.recording {
                    return;
                }
                trace.time("partial.tally", || {
                    let mut counts = PartialCounts::zeros(self.axes.clone()).expect("axes");
                    chunk.tally_into(&mut counts).expect("tally");
                    counts
                });
                trace.exit();
            }
        }
    }
}

/// `?format=` as the server negotiates it (JSON when absent).
pub fn format_of(params: &[(String, String)]) -> Result<ResponseFormat, String> {
    match query_param(params, "format") {
        None => Ok(ResponseFormat::Json),
        Some(name) => ResponseFormat::from_name(name).ok_or(format!("unknown format `{name}`")),
    }
}

/// The `estimator=` list, in query order (the builder's defaults when
/// absent).
pub fn estimators_of(
    params: &[(String, String)],
) -> Result<Vec<Box<dyn EpsilonEstimator>>, String> {
    let mut out: Vec<Box<dyn EpsilonEstimator>> = Vec::new();
    for (_, value) in params.iter().filter(|(k, _)| k == "estimator") {
        out.push(match value.as_str() {
            "empirical" => Box::new(Empirical),
            "smoothed" => Box::new(Smoothed { alpha: 1.0 }),
            "posterior" => Box::new(PosteriorSup {
                alpha: 1.0,
                samples: 200,
                seed: 0,
            }),
            other => return Err(format!("unknown estimator `{other}`")),
        });
    }
    if out.is_empty() {
        out.push(Box::new(Empirical));
        out.push(Box::new(Smoothed { alpha: 1.0 }));
    }
    Ok(out)
}

pub fn policy_of(params: &[(String, String)]) -> Result<SubsetPolicy, String> {
    match query_param(params, "subsets") {
        None | Some("all") => Ok(SubsetPolicy::All),
        Some("none") => Ok(SubsetPolicy::None),
        Some(other) => other
            .strip_prefix("upto:")
            .and_then(|k| k.parse().ok())
            .map(|size| SubsetPolicy::UpTo { size })
            .ok_or(format!("unknown subset policy `{other}`")),
    }
}

/// The batch audit a `GET /v1/audit` with these parameters runs.
pub fn run_audit(
    counts: &JointCounts,
    estimators: &[Box<dyn EpsilonEstimator>],
    policy: SubsetPolicy,
) -> differential_fairness::core::Result<AuditReport> {
    let mut audit = Audit::of_counts(counts.clone())?;
    for est in estimators {
        audit = audit.boxed_estimator(est.clone_box());
    }
    audit.subsets(policy).run()
}

/// The stages inside `Audit::run`, each timed alone on the audit's own
/// counts: the subset lattice marginals, the group-outcome tables, and
/// the metric per estimator and subset; plus the estimator's smoothing
/// and the ε kernel per subset table.
pub fn audit_stages(
    counts: &JointCounts,
    estimators: &[Box<dyn EpsilonEstimator>],
    policy: SubsetPolicy,
    trace: &mut Trace,
) {
    let names: Vec<String> = counts
        .attribute_names()
        .iter()
        .map(|s| s.to_string())
        .collect();
    let p = names.len();
    let limit = match policy {
        SubsetPolicy::All => p,
        SubsetPolicy::UpTo { size } => size.min(p),
        SubsetPolicy::None => 0,
    };
    let mut raws = Vec::new();
    for mask in 1u32..(1 << p) {
        let ones = mask.count_ones() as usize;
        if ones > limit && ones != p {
            continue;
        }
        let raw = if ones == p {
            trace.time("epsilon.group_outcomes", || counts.group_outcomes(0.0))
        } else {
            let subset: Vec<&str> = (0..p)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| names[i].as_str())
                .collect();
            let marginal = trace
                .time("edf.marginal_to", || counts.marginal_to(&subset))
                .expect("marginal");
            trace.time("epsilon.group_outcomes", || marginal.group_outcomes(0.0))
        };
        raws.push(raw.expect("group outcomes"));
    }
    for est in estimators {
        for raw in &raws {
            trace
                .time("metric.evaluate", || EpsilonDf.evaluate(raw, &**est))
                .expect("metric");
        }
    }
    for raw in &raws {
        let smoothed = trace
            .time("epsilon.smoothed", || raw.smoothed(1.0))
            .expect("smoothed");
        trace.time("epsilon.kernel", || smoothed.epsilon());
    }
}

/// The server's JSON ingest body: an array of label rows, or an object
/// with `rows` and an optional numeric `at`.
fn parse_json_rows(body: &[u8]) -> Result<(Vec<Vec<String>>, Option<f64>), String> {
    let text = std::str::from_utf8(body).map_err(|e| e.to_string())?;
    let value = serde_json::parse(text).map_err(|e| e.to_string())?;
    let at = match value.field("at") {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        _ => None,
    };
    let outer = match &value {
        Value::Arr(rows) => rows.as_slice(),
        _ => value
            .field("rows")
            .as_arr("rows")
            .map_err(|e| e.to_string())?,
    };
    let mut rows = Vec::with_capacity(outer.len());
    for row in outer {
        let cells = row.as_arr("row").map_err(|e| e.to_string())?;
        let mut labels = Vec::with_capacity(cells.len());
        for cell in cells {
            match cell {
                Value::Str(s) => labels.push(s.clone()),
                other => return Err(format!("a {} where a label was expected", other.kind())),
            }
        }
        rows.push(labels);
    }
    Ok((rows, at))
}

fn parse_csv_rows(body: &[u8]) -> Result<Vec<Vec<String>>, String> {
    let chunks = CsvChunks::new(Cursor::new(body), CsvOptions::default(), 1 << 20)
        .map_err(|e| e.to_string())?;
    let mut rows = Vec::new();
    for chunk in chunks {
        rows.extend(chunk.map_err(|e| e.to_string())?.rows().iter().cloned());
    }
    Ok(rows)
}

/// Serves every connection made to a fresh local listener through
/// `mirror`, one thread per connection, while `clients` runs against its
/// address; returns the clients' result and every recorded span.
pub fn serve_traced<R>(
    mirror: &Mirror<'_>,
    clock: &Arc<RealClock>,
    clients: impl FnOnce(SocketAddr) -> R,
) -> (R, Trace) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind traced listener");
    let addr = listener.local_addr().expect("traced address");
    listener.set_nonblocking(true).expect("nonblocking accept");
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let acceptor = s.spawn(|| {
            let mut conns = Vec::new();
            while !stop.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        stream.set_nonblocking(false).expect("blocking stream");
                        let id_base = (conns.len() as u64 + 1) << 32;
                        let stop = &stop;
                        conns.push(s.spawn(move || {
                            let mut trace = Trace::new(Arc::clone(clock));
                            mirror.serve(stream, &mut trace, stop, id_base);
                            trace
                        }));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => panic!("traced accept failed: {e}"),
                }
            }
            let mut all = Trace::new(Arc::clone(clock));
            for conn in conns {
                all.absorb(conn.join().expect("traced connection thread"));
            }
            all
        });
        let out = clients(addr);
        stop.store(true, Ordering::SeqCst);
        (out, acceptor.join().expect("traced acceptor thread"))
    })
}
