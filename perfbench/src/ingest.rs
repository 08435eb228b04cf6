//! `ingest_audit`: writes beside reads, in an open loop. One generator
//! thread posts 64-row record chunks (JSON, every tenth as `text/csv`) on
//! a fixed schedule; the other issues `GET /v1/audit` at a much lower
//! rate, so almost every audit is cold. Two remote replica DFLT snapshots
//! are posted in set-up, so every cold audit runs `merge_many`. Chunk
//! timestamps advance in virtual seconds with the schedule, so the 60 s
//! window with 1 s buckets evicts throughout; set-up fills the window
//! first.
//!
//! Every latency is timed from the request's due time. An audit's cut
//! includes every chunk acknowledged before it was sent, so the audit
//! latency bounds the freshness latency: the time from an ingest
//! acknowledgement to an ε that includes those rows. The latencies are
//! reported relative to a fixed CPU kernel that the ingest thread runs
//! in its idle time between ingests (`load::probe`).

use crate::gen::{csv_body, json_body, RowGen, Schema, OUTCOME};
use crate::layers::Layers;
use crate::load::{open_loop, peak_rss_mb, sleep_until, timed_setup, Req, Stretch};
use crate::mirror::{estimators_of, run_audit, serve_traced, Mirror};
use crate::replay;
use crate::scrape::{queue_depths, Scrape};
use crate::stats::{Outcome, Samples};
use crate::Args;
use differential_fairness::core::builder::{Audit, Smoothed, SubsetPolicy};
use differential_fairness::core::fleet::encode_snapshot;
use differential_fairness::core::monitor::{CountsSnapshot, FairnessMonitor, MonitorSnapshot};
use differential_fairness::core::report::ResponseFormat;
use differential_fairness::core::JointCounts;
use differential_fairness::data::chunks::LabelChunk;
use differential_fairness::obs::{Clock, RealClock};
use differential_fairness::server::client::Http1Client;
use differential_fairness::server::Server;
use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

pub const ARITIES: [usize; 5] = [5, 4, 3, 2, 2];
/// Offered ingest rate, chunks per second (about half of saturation on a
/// two-core machine).
pub const INGEST_RATE: f64 = 600.0;
/// Offered audit rate, audits per second.
pub const AUDIT_RATE: f64 = 10.0;
const CHUNK_ROWS: usize = 64;
const CSV_EVERY: usize = 10;
/// Chunks per virtual second of data time.
const CHUNKS_PER_VSEC: f64 = 16.0;
const WINDOW_S: f64 = 60.0;
const BUCKET_S: f64 = 1.0;
const PREFILL_CHUNKS: usize = 960;
const REPLICAS: usize = 2;
const REPLICA_CHUNKS: usize = 480;
const T0: f64 = 10_000.0;
const SETUP_REPS: usize = 5;
/// Backlog growth, in chunks, over which a run counts as failed: a
/// quarter second of offered ingest.
const BACKLOG_LIMIT: f64 = INGEST_RATE / 4.0;

struct Chunk {
    codes: Vec<u32>,
    at: f64,
}

struct Setup {
    schema: Schema,
    server: Server,
    prefill: Vec<Chunk>,
    chunks: Vec<Chunk>,
    ingest: Vec<Req>,
    audits: Vec<Req>,
    replicas: Vec<MonitorSnapshot>,
}

impl Setup {
    /// Heap bytes of the prebuilt inputs the generator holds for the run.
    fn input_bytes(&self) -> usize {
        let chunks = |v: &[Chunk]| -> usize {
            v.iter()
                .map(|c| c.codes.capacity() * std::mem::size_of::<u32>())
                .sum::<usize>()
                + std::mem::size_of_val(v)
        };
        chunks(&self.prefill)
            + chunks(&self.chunks)
            + Req::heap_bytes(&self.ingest)
            + Req::heap_bytes(&self.audits)
    }
}

fn at_of(k: usize) -> f64 {
    T0 + k as f64 / CHUNKS_PER_VSEC
}

fn monitor(schema: &Schema) -> FairnessMonitor {
    Audit::monitor(OUTCOME, schema.axes.clone())
        .estimator(Smoothed { alpha: 1.0 })
        .window_seconds(WINDOW_S)
        .bucket_seconds(BUCKET_S)
        .build()
        .expect("monitor")
}

fn server(schema: &Schema, workers: usize) -> Server {
    Server::builder(OUTCOME, schema.axes.clone())
        .window_seconds(WINDOW_S)
        .bucket_seconds(BUCKET_S)
        .shards(2)
        .workers(workers)
        .bind("127.0.0.1:0")
        .expect("bind ingest server")
}

fn labels(schema: &Schema, codes: &[u32]) -> Vec<Vec<String>> {
    codes
        .chunks_exact(schema.stride())
        .map(|r| schema.labels(r))
        .collect()
}

fn ingest_req(schema: &Schema, k: usize, chunk: &Chunk) -> Req {
    if k % CSV_EVERY == CSV_EVERY - 1 {
        Req {
            method: "POST",
            target: format!("/v1/ingest/records?at={:?}", chunk.at),
            content_type: Some("text/csv"),
            body: csv_body(schema, &chunk.codes),
        }
    } else {
        Req {
            method: "POST",
            target: "/v1/ingest/records".to_string(),
            content_type: Some("application/json"),
            body: json_body(schema, &chunk.codes, chunk.at),
        }
    }
}

fn setup(seed: u64, seconds: f64) -> Setup {
    let schema = Schema::new(&ARITIES);
    let mut gen = RowGen::new(&schema, seed);
    let prefill: Vec<Chunk> = (0..PREFILL_CHUNKS)
        .map(|k| Chunk {
            codes: gen.rows(CHUNK_ROWS),
            at: at_of(k),
        })
        .collect();
    let n_run = (INGEST_RATE * seconds).ceil() as usize + 2;
    let chunks: Vec<Chunk> = (0..n_run)
        .map(|k| Chunk {
            codes: gen.rows(CHUNK_ROWS),
            at: at_of(PREFILL_CHUNKS + k),
        })
        .collect();
    let ingest = chunks
        .iter()
        .enumerate()
        .map(|(k, c)| ingest_req(&schema, k, c))
        .collect();
    let audits = (0..(AUDIT_RATE * seconds).ceil() as usize + 2)
        .map(|_| Req::get("/v1/audit"))
        .collect();
    let replicas: Vec<MonitorSnapshot> = (0..REPLICAS)
        .map(|r| {
            let mut rgen = RowGen::new(&schema, seed.wrapping_mul(31).wrapping_add(r as u64 + 1));
            let mut m = monitor(&schema);
            for k in 0..REPLICA_CHUNKS {
                let chunk = LabelChunk::new(labels(&schema, &rgen.rows(CHUNK_ROWS)));
                m.push_at(&chunk, at_of(k)).expect("replica push");
            }
            m.snapshot().expect("replica snapshot")
        })
        .collect();

    // Two generator connections plus one for the healthz polls.
    let server = server(&schema, 3);
    let mut client = Http1Client::connect(server.local_addr()).expect("connect");
    for (r, snap) in replicas.iter().enumerate() {
        let frame = encode_snapshot(snap).expect("DFLT frame");
        let resp = client
            .request(
                "POST",
                &format!("/v1/ingest/snapshot?replica=r{r}"),
                &[],
                &frame,
            )
            .expect("post replica");
        assert_eq!(resp.status, 200, "replica: {}", resp.text());
    }
    for (k, chunk) in prefill.iter().enumerate() {
        let resp = ingest_req(&schema, k, chunk)
            .send(&mut client)
            .expect("prefill");
        assert_eq!(resp.status, 200, "prefill: {}", resp.text());
    }
    Setup {
        schema,
        server,
        prefill,
        chunks,
        ingest,
        audits,
        replicas,
    }
}

/// What one phase of traffic measured.
#[derive(Default)]
struct Run {
    ingest: Samples,
    /// Ingests due after the traced loop switched recording on.
    ingest_traced: Samples,
    /// Times of the CPU probe run between ingests.
    probe: Samples,
    late: Samples,
    audit: Samples,
    acked: Vec<bool>,
    acked_rows: u64,
    attempted: u64,
    failures: Vec<String>,
    /// Per-shard queue depths, one poll per second.
    depths: Vec<Vec<u64>>,
    elapsed: f64,
}

/// Drives both generator threads for `seconds`, polling healthz at
/// `health` once a second when given, then checks the final audit. With
/// `switch = (after_ns, flag)`, sets `flag` once `after_ns` of the run
/// have passed and files the ingests due from then on apart.
fn drive(
    addr: SocketAddr,
    clock: &Arc<RealClock>,
    s: &Setup,
    seconds: f64,
    health: Option<SocketAddr>,
    switch: Option<(u64, &AtomicBool)>,
) -> Run {
    let mut run = Run {
        acked: vec![false; s.chunks.len()],
        ..Run::default()
    };
    let mut audit = Run::default();
    let mut depths = Vec::new();
    let start = clock.monotonic_nanos() + 5_000_000;
    let end = start + (seconds * 1e9) as u64;
    let switch_at = switch.map_or(u64::MAX, |(after, _)| start + after);
    std::thread::scope(|scope| {
        let run = &mut run;
        scope.spawn(move || {
            let mut probe = Samples::default();
            let period = 1e9 / INGEST_RATE;
            let during = Stretch { start, end };
            open_loop(
                addr,
                clock,
                &s.ingest,
                during,
                period,
                Some(&mut probe),
                |d| {
                    run.attempted += 1;
                    if d.due < switch_at {
                        run.ingest.push(d.due - start, d.done - d.due);
                    } else {
                        run.ingest_traced.push(d.due - start, d.done - d.due);
                    }
                    run.late.push(d.due - start, d.sent - d.due);
                    match d.response {
                        Ok(r) if r.status == 200 => {
                            run.acked[d.index] = true;
                            run.acked_rows += CHUNK_ROWS as u64;
                        }
                        Ok(r) => {
                            run.failures
                                .push(format!("ingest answered {}: {}", r.status, r.text()))
                        }
                        Err(e) => run.failures.push(format!("ingest: {e}")),
                    }
                },
            );
            run.probe = probe;
        });
        let audit = &mut audit;
        scope.spawn(move || {
            // Audits fall midway between two ingests.
            let offset = (0.5e9 / INGEST_RATE) as u64;
            let during = Stretch {
                start: start + offset,
                end,
            };
            open_loop(
                addr,
                clock,
                &s.audits,
                during,
                1e9 / AUDIT_RATE,
                None,
                |d| {
                    audit.attempted += 1;
                    audit.audit.push(d.due - start, d.done - d.due);
                    audit.late.push(d.due - start, d.sent - d.due);
                    match d.response {
                        Ok(r) if r.status == 200 => {}
                        Ok(r) => audit.failures.push(format!("audit answered {}", r.status)),
                        Err(e) => audit.failures.push(format!("audit: {e}")),
                    }
                },
            );
        });
        if let Some(h) = health {
            let mut next = start;
            while next < end {
                sleep_until(clock, next);
                depths.push(queue_depths(h));
                next += 1_000_000_000;
            }
        }
        if let Some((_, flag)) = switch {
            sleep_until(clock, switch_at);
            flag.store(true, Ordering::SeqCst);
        }
    });
    run.depths = depths;
    run.elapsed = (clock.monotonic_nanos() - start) as f64 / 1e9;
    run.attempted += audit.attempted;
    run.audit = audit.audit;
    run.late.merge(&audit.late);
    run.failures.extend(audit.failures);

    // The final audit must equal a batch audit of the rows in the final
    // window plus the replica counts.
    let mut client = Http1Client::connect(addr).expect("connect for the final audit");
    let got = client.get("/v1/audit").expect("final audit");
    run.attempted += 1;
    let want = expected_final(s, &run.acked);
    if got.status != 200 || got.body != want.as_bytes() {
        run.failures.push(format!(
            "final audit ({}) differs from the batch audit of the final window plus replicas",
            got.status
        ));
    }
    run
}

/// `Audit::of_counts` over the rows whose bucket is still inside the
/// window at the newest acknowledged timestamp, plus every replica's
/// window counts.
fn expected_final(s: &Setup, acked: &[bool]) -> String {
    let live: Vec<&Chunk> = s
        .prefill
        .iter()
        .chain(
            s.chunks
                .iter()
                .zip(acked)
                .filter(|(_, a)| **a)
                .map(|(c, _)| c),
        )
        .collect();
    let now = live.iter().map(|c| c.at).fold(f64::MIN, f64::max);
    let horizon = (now / BUCKET_S).floor() - (WINDOW_S / BUCKET_S).ceil();
    let table = s.schema.tally(
        live.iter()
            .filter(|c| (c.at / BUCKET_S).floor() > horizon)
            .map(|c| c.codes.as_slice()),
    );
    let mut window = CountsSnapshot::from_table(&table);
    for r in &s.replicas {
        window.merge_from(&r.window).expect("replica window");
    }
    let counts = JointCounts::from_table(window.to_table().expect("window table"), OUTCOME)
        .expect("window counts");
    run_audit(
        &counts,
        &estimators_of(&[]).expect("defaults"),
        SubsetPolicy::All,
    )
    .and_then(|r| r.render(ResponseFormat::Json))
    .expect("reference audit")
}

pub fn run(args: &Args, out: &mut Outcome, layers: &mut Layers) {
    let clock = Arc::new(RealClock::new());
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (s, setup_s) = timed_setup(&clock, SETUP_REPS, || setup(args.seed, seconds));
    let addr = s.server.local_addr();
    let r = drive(addr, &clock, &s, seconds, Some(addr), None);
    let scrape = Scrape::fetch(addr);

    let totals: Vec<f64> = r
        .depths
        .iter()
        .map(|d| d.iter().sum::<u64>() as f64)
        .collect();
    let growth = match (totals.first(), totals.last()) {
        (Some(a), Some(b)) => b - a,
        _ => 0.0,
    };
    let depth_max = r.depths.iter().flatten().copied().max().unwrap_or(0);
    out.attempted = r.attempted;
    for f in &r.failures {
        out.fail_check(f.clone());
    }
    if growth > BACKLOG_LIMIT {
        out.fail_check(format!(
            "shard backlog grew by {growth} chunks over the run (limit {BACKLOG_LIMIT})"
        ));
    }
    let rows_per_s = r.acked_rows as f64 / r.elapsed;
    let (ingests, audits, probe) = (&r.ingest, &r.audit, &r.probe);
    out.set("setup_s", setup_s, "s", SETUP_REPS);
    out.set("peak_rss_mb", peak_rss_mb(s.input_bytes()), "MB", 1);
    out.set("p50_rel", ingests.rel(0.5, probe), "ratio", ingests.len());
    out.set("tail_rel", ingests.rel(0.9, probe), "ratio", ingests.len());
    out.set(
        "side_p50_rel",
        audits.rel(0.5, probe),
        "ratio",
        audits.len(),
    );
    out.set(
        "side_tail_rel",
        audits.rel(0.9, probe),
        "ratio",
        audits.len(),
    );
    out.name("ingest_rows_per_s", rows_per_s, "1/s", ingests.len());
    for (q, name) in [
        (0.5, "ingest_p50_us"),
        (0.9, "ingest_p90_us"),
        (0.99, "ingest_p99_us"),
    ] {
        out.name(name, ingests.quantile_us(q), "us", ingests.len());
    }
    for (q, name) in [(0.5, "cold_audit_p50_us"), (0.9, "cold_audit_p90_us")] {
        out.name(name, audits.quantile_us(q), "us", audits.len());
    }
    out.name("cold_audit_mean_us", audits.mean_us(), "us", audits.len());
    out.name("probe_p50_us", probe.p50_us(), "us", probe.len());
    println!(
        "ingest_audit: open loop, {INGEST_RATE} chunks/s of {CHUNK_ROWS} rows (every {CSV_EVERY}th CSV) \
         + {AUDIT_RATE} audits/s, schema {}, {REPLICAS} replicas, window {WINDOW_S} s / {BUCKET_S} s, seed {}",
        s.schema.describe(),
        args.seed
    );
    if !args.trace {
        return;
    }

    layers.scrape(&scrape);
    layers.set("fleet.queue_depth_max", depth_max as f64);
    layers.set("fleet.backlog_growth", growth);
    layers.set("loadgen.late_p99_us", r.late.quantile_us(0.99));
    layers.set("host.reference_us", r.probe.p50_us());

    // Traced run: a fresh server state, filled the same way; the replica
    // snapshots are merged by the traced loop itself. The loop serves the
    // first part of the traffic with recording off and the rest with it
    // on, so the overhead ratio compares the same loop on the same
    // traffic.
    let traced_server = server(&s.schema, 1);
    let state = traced_server.state();
    let isolated = monitor(&s.schema);
    let mirror = Mirror::new(state, s.replicas.clone(), isolated, s.schema.axes.clone());
    for chunk in &s.prefill {
        let rows = labels(&s.schema, &chunk.codes);
        mirror.prefill_monitor(&LabelChunk::new(rows.clone()), chunk.at);
        state
            .ingest_rows(rows, chunk.at, None)
            .expect("traced prefill");
    }
    let evicted_before = mirror.monitor_evictions();
    let untraced_ns = (seconds / 2.0 * 1e9) as u64;
    let (mirrored, trace) = serve_traced(&mirror, &clock, |a| {
        drive(
            a,
            &clock,
            &s,
            seconds,
            None,
            Some((untraced_ns, &mirror.record)),
        )
    });
    mirror.record.store(false, Ordering::SeqCst);
    out.attempted += mirrored.attempted;
    for f in mirrored.failures {
        out.fail_check(format!("traced: {f}"));
    }
    layers.set(
        "monitor.evictions",
        (mirror.monitor_evictions() - evicted_before) as f64,
    );
    layers.trace(
        &trace,
        args,
        &[
            ("ingest_chunk", r.ingest.p50_us()),
            ("cold_audit", r.audit.p50_us()),
        ],
    );
    let ledger = trace.ledger();
    let tallied = ledger.calls("partial.tally") as f64 * CHUNK_ROWS as f64;
    layers.per_mrow(
        "partial.tally_us_per_mrow",
        &trace,
        "partial.tally",
        tallied,
    );
    layers.set(
        "trace.overhead_ratio",
        mirrored.ingest_traced.p50_us() / mirrored.ingest.p50_us(),
    );
    drop(mirror);
    traced_server.shutdown();
    s.server.shutdown();

    // The archive path: the traced run's acknowledged rows, written as a
    // DFRL log and audited offline, each report checked against
    // `Audit::of_frame` of the same rows. This is where the replay decode
    // layer is measured.
    let stride = s.schema.stride();
    let mut columns = vec![Vec::new(); stride];
    let acked = s
        .chunks
        .iter()
        .zip(&mirrored.acked)
        .filter(|(_, a)| **a)
        .map(|(c, _)| c);
    for chunk in s.prefill.iter().chain(acked) {
        for row in chunk.codes.chunks_exact(stride) {
            for (col, &c) in columns.iter_mut().zip(row) {
                col.push(c);
            }
        }
    }
    let (frame, log) = replay::frame_and_log(&s.schema, columns);
    let expected = replay::frame_job(&s.schema, &frame);
    let (archive, rows) = replay::traced_replays(&s.schema, &log, &expected, &clock, 0.5, out);
    replay::replay_layers(layers, &archive, rows, log.len());
    println!(
        "archive replay of the traced run's rows ({} rows, {} log bytes):",
        frame.n_rows(),
        log.len()
    );
    archive.ledger().print(&BTreeMap::new());
}
