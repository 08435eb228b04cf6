//! `warm_read`: a closed loop of one keep-alive client over a fixed set
//! of audit and monitor URLs on a server filled once in set-up. After the
//! first pass every request hits the version-keyed caches, so this
//! isolates head parse, routing, the cache and the write; the lattice,
//! the ε kernel and the tally should not run at all.
//!
//! One client, not two: on a two-processor machine two clients and the
//! server's workers land on the processors in different ways from run to
//! run, and the latency follows the placement. The client runs on one
//! processor and the server on another (`load::Placement`), and the
//! latencies are reported relative to a bare loopback round trip between
//! the same two processors, timed by the client thread every 50 ms
//! (`load::Echo`).

use crate::gen::{json_body, RowGen, Schema, OUTCOME};
use crate::layers::Layers;
use crate::load::{
    closed_loop, peak_rss_mb, pin_thread, timed_setup, Done, Echo, Placement, Req, Stretch,
};
use crate::mirror::{estimators_of, format_of, policy_of, run_audit, serve_traced, Mirror};
use crate::scrape::Scrape;
use crate::stats::{Outcome, Samples};
use crate::trace::Trace;
use crate::Args;
use differential_fairness::core::builder::{Audit, Smoothed};
use differential_fairness::core::JointCounts;
use differential_fairness::data::chunks::LabelChunk;
use differential_fairness::obs::{Clock, RealClock};
use differential_fairness::server::client::Http1Client;
use differential_fairness::server::http::parse_query;
use differential_fairness::server::Server;
use std::net::SocketAddr;
use std::sync::atomic::Ordering;
use std::sync::Arc;

pub const ARITIES: [usize; 3] = [4, 3, 2];
const ROWS: usize = 4096;
const CHUNK_ROWS: usize = 64;
const AT: f64 = 1000.0;
const SETUP_REPS: usize = 81;

/// The fixed URL set: each estimator × two subset policies × two
/// formats, plus the monitor.
fn urls() -> Vec<String> {
    let mut out = Vec::new();
    for est in ["empirical", "smoothed", "posterior"] {
        for subsets in ["all", "upto:1"] {
            for format in ["json", "csv"] {
                out.push(format!(
                    "/v1/audit?estimator={est}&subsets={subsets}&format={format}"
                ));
            }
        }
    }
    out.push("/v1/monitor?format=json".to_string());
    out
}

struct Setup {
    schema: Schema,
    server: Server,
    chunks: Vec<Vec<u32>>,
    reqs: Vec<Req>,
    expected: Vec<Vec<u8>>,
}

impl Setup {
    /// Heap bytes of the prebuilt inputs and references the generator
    /// holds for the run.
    fn input_bytes(&self) -> usize {
        let vecs = |v: &[Vec<u8>]| v.iter().map(Vec::capacity).sum::<usize>();
        self.chunks
            .iter()
            .map(|c| c.capacity() * std::mem::size_of::<u32>())
            .sum::<usize>()
            + vecs(&self.expected)
            + Req::heap_bytes(&self.reqs)
    }
}

fn server(schema: &Schema, workers: usize) -> Server {
    Server::builder(OUTCOME, schema.axes.clone())
        .shards(2)
        .workers(workers)
        .bind("127.0.0.1:0")
        .expect("bind warm server")
}

fn setup(seed: u64) -> Setup {
    let schema = Schema::new(&ARITIES);
    let mut gen = RowGen::new(&schema, seed);
    let chunks: Vec<Vec<u32>> = (0..ROWS / CHUNK_ROWS)
        .map(|_| gen.rows(CHUNK_ROWS))
        .collect();
    // One worker for the client's connection, one for the telemetry scrape.
    let server = server(&schema, 2);
    let mut client = Http1Client::connect(server.local_addr()).expect("connect");
    for chunk in &chunks {
        let resp = client
            .request(
                "POST",
                "/v1/ingest/records",
                &[],
                &json_body(&schema, chunk, AT),
            )
            .expect("fill");
        assert_eq!(resp.status, 200, "fill: {}", resp.text());
    }
    let expected = expected_bodies(&schema, &chunks);
    let reqs = urls().into_iter().map(Req::get).collect();
    Setup {
        schema,
        server,
        chunks,
        reqs,
        expected,
    }
}

/// The batch reference for every URL: `Audit::of_counts` of the set-up
/// rows for the audits, one monitor fed the same chunks for `/v1/monitor`.
fn expected_bodies(schema: &Schema, chunks: &[Vec<u32>]) -> Vec<Vec<u8>> {
    let counts = JointCounts::from_table(schema.tally(chunks.iter().map(Vec::as_slice)), OUTCOME)
        .expect("reference counts");
    urls()
        .iter()
        .map(|url| {
            let (path, query) = url.split_once('?').expect("query");
            let params = parse_query(query);
            let format = format_of(&params).expect("format");
            if path == "/v1/monitor" {
                let mut monitor = Audit::monitor(OUTCOME, schema.axes.clone())
                    .estimator(Smoothed { alpha: 1.0 })
                    .window_seconds(3600.0)
                    .bucket_seconds(60.0)
                    .build()
                    .expect("reference monitor");
                for chunk in chunks {
                    let labels = chunk
                        .chunks_exact(schema.stride())
                        .map(|r| schema.labels(r))
                        .collect();
                    monitor
                        .push_at(&LabelChunk::new(labels), AT)
                        .expect("reference push");
                }
                monitor
                    .snapshot()
                    .and_then(|s| s.render(format))
                    .expect("reference monitor body")
                    .into_bytes()
            } else {
                let estimators = estimators_of(&params).expect("estimators");
                let policy = policy_of(&params).expect("policy");
                run_audit(&counts, &estimators, policy)
                    .and_then(|r| r.render(format))
                    .expect("reference audit body")
                    .into_bytes()
            }
        })
        .collect()
}

/// Per-URL latencies split into audits and the monitor, plus checks.
#[derive(Default)]
struct Replies {
    audit: Samples,
    monitor: Samples,
    /// The interleaved loopback echo round trips.
    echo: Samples,
    attempted: u64,
    failures: Vec<String>,
}

impl Replies {
    /// Checks one reply and files its latency; `start` is when the
    /// measured loop began.
    fn record(&mut self, done: Done, reqs: &[Req], expected: &[Vec<u8>], start: u64) {
        self.attempted += 1;
        let (at, ns) = (done.due.saturating_sub(start), done.done - done.due);
        match &done.response {
            Ok(r) if r.status == 200 && r.body == expected[done.index] => {}
            Ok(r) => self.failures.push(format!(
                "{} answered {} with a body that differs from the batch reference",
                reqs[done.index].target, r.status
            )),
            Err(e) => self
                .failures
                .push(format!("{}: {e}", reqs[done.index].target)),
        }
        if reqs[done.index].target.starts_with("/v1/monitor") {
            self.monitor.push(at, ns);
        } else {
            self.audit.push(at, ns);
        }
    }
}

/// One pass over every URL (the one-time misses that fill the caches,
/// checked but not timed), then `seconds` of closed-loop traffic from
/// one client; `on_measure` runs between the two.
fn drive(
    addr: SocketAddr,
    clock: &Arc<RealClock>,
    s: &Setup,
    seconds: f64,
    placement: Option<&Placement>,
    on_measure: impl FnOnce(),
) -> (Replies, f64) {
    let mut warm = Replies::default();
    let mut client = Http1Client::connect(addr).expect("connect");
    for (index, req) in s.reqs.iter().enumerate() {
        let response = req.send(&mut client);
        warm.record(
            Done {
                index,
                due: 0,
                sent: 0,
                done: 0,
                response,
            },
            &s.reqs,
            &s.expected,
            0,
        );
    }
    drop(client);
    let mut total = Replies {
        attempted: warm.attempted,
        failures: warm.failures,
        ..Replies::default()
    };
    on_measure();
    // Started here, the echo thread runs where the server does.
    let mut echo = Echo::start();
    let start = clock.monotonic_nanos();
    let during = Stretch {
        start,
        end: start + (seconds * 1e9) as u64,
    };
    std::thread::scope(|scope| {
        scope.spawn(|| {
            if let Some(p) = placement {
                pin_thread(p.client);
            }
            closed_loop(addr, clock, &s.reqs, during, &mut echo, |d| {
                total.record(d, &s.reqs, &s.expected, start)
            });
        });
    });
    total.echo = std::mem::take(&mut echo.times);
    let elapsed = (clock.monotonic_nanos() - start) as f64 / 1e9;
    (total, elapsed)
}

pub fn run(args: &Args, out: &mut Outcome, layers: &mut Layers) {
    // The server's threads, and the echo threads, start from this one.
    let placement = Placement::of_process();
    if let Some(p) = &placement {
        pin_thread(p.server);
    }
    let placement = placement.as_ref();
    let clock = Arc::new(RealClock::new());
    let (s, setup_s) = timed_setup(&clock, SETUP_REPS, || setup(args.seed));
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (mut tally, elapsed) = drive(s.server.local_addr(), &clock, &s, seconds, placement, || {});
    let scrape = Scrape::fetch(s.server.local_addr());

    let audit_rps = tally.audit.len() as f64 / elapsed;
    out.attempted = tally.attempted;
    for f in tally.failures.drain(..) {
        out.fail_check(f);
    }
    out.set("setup_s", setup_s, "s", SETUP_REPS);
    out.set("peak_rss_mb", peak_rss_mb(s.input_bytes()), "MB", 1);
    let (audits, monitors, echo) = (&tally.audit, &tally.monitor, &tally.echo);
    out.set("p50_rel", audits.rel(0.5, echo), "ratio", audits.len());
    out.set("tail_rel", audits.rel(0.9, echo), "ratio", audits.len());
    out.set(
        "side_p50_rel",
        monitors.rel(0.5, echo),
        "ratio",
        monitors.len(),
    );
    out.set(
        "side_tail_rel",
        monitors.rel(0.9, echo),
        "ratio",
        monitors.len(),
    );
    out.name("warm_audit_rps", audit_rps, "1/s", audits.len());
    for (q, name) in [
        (0.5, "warm_audit_p50_us"),
        (0.9, "warm_audit_p90_us"),
        (0.99, "warm_audit_p99_us"),
    ] {
        out.name(name, audits.quantile_us(q), "us", audits.len());
    }
    for (q, name) in [(0.5, "warm_monitor_p50_us"), (0.9, "warm_monitor_p90_us")] {
        out.name(name, monitors.quantile_us(q), "us", monitors.len());
    }
    out.name("echo_round_trip_p50_us", echo.p50_us(), "us", echo.len());
    println!(
        "warm_read: closed loop, 1 keep-alive client, {} URLs, schema {}, {} rows, seed {}",
        s.reqs.len(),
        s.schema.describe(),
        ROWS,
        args.seed
    );
    if !args.trace {
        return;
    }

    // Traced run: the same client against the traced request loop over
    // a fresh server state filled with the same rows, first with
    // recording off and then with it on, so the overhead ratio compares
    // the same loop on the same traffic.
    layers.scrape(&scrape);
    layers.set("host.reference_us", tally.echo.p50_us());
    let traced_server = server(&s.schema, 1);
    let state = traced_server.state();
    for chunk in &s.chunks {
        let rows = chunk
            .chunks_exact(s.schema.stride())
            .map(|r| s.schema.labels(r))
            .collect();
        state.ingest_rows(rows, AT, None).expect("traced fill");
    }
    let monitor = Audit::monitor(OUTCOME, s.schema.axes.clone())
        .estimator(Smoothed { alpha: 1.0 })
        .build()
        .expect("isolated monitor");
    let mirror = Mirror::new(state, Vec::new(), monitor, s.schema.axes.clone());
    let ((untraced, traced), trace): ((Replies, Replies), Trace) =
        serve_traced(&mirror, &clock, |addr| {
            let (untraced, _) = drive(addr, &clock, &s, seconds / 2.0, placement, || {});
            let (traced, _) = drive(addr, &clock, &s, seconds / 2.0, placement, || {
                mirror.record.store(true, Ordering::SeqCst)
            });
            (untraced, traced)
        });
    for f in untraced.failures.into_iter().chain(traced.failures) {
        out.fail_check(format!("traced: {f}"));
    }
    out.attempted += untraced.attempted + traced.attempted;
    layers.trace(
        &trace,
        args,
        &[
            ("warm_audit", tally.audit.p50_us()),
            ("warm_monitor", tally.monitor.p50_us()),
        ],
    );
    layers.set(
        "trace.overhead_ratio",
        traced.audit.p50_us() / untraced.audit.p50_us(),
    );
    drop(mirror);
    traced_server.shutdown();
    s.server.shutdown();
}
