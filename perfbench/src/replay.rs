//! The archive path: DFRL replay logs audited offline, with no HTTP and
//! no fleet. `ingest_audit`'s traced run writes its own acknowledged rows
//! as a DFRL log and runs traced replay jobs over it: each job opens the
//! log with `ReplayChunks`, decodes and tallies it chunk by chunk, then
//! runs `Audit::run` and renders the report as JSON, which must equal the
//! in-memory `Audit::of_frame` report of the same rows byte for byte.

use crate::gen::{Schema, OUTCOME};
use crate::layers::Layers;
use crate::mirror::{audit_stages, estimators_of, run_audit};
use crate::stats::Outcome;
use crate::trace::Trace;
use differential_fairness::core::builder::{Audit, SubsetPolicy};
use differential_fairness::core::report::ResponseFormat;
use differential_fairness::core::JointCounts;
use differential_fairness::data::frame::{Column, DataFrame};
use differential_fairness::data::replay::{write_frame_log, ReplayChunks};
use differential_fairness::obs::{Clock, RealClock};
use differential_fairness::prob::partial::{PartialCounts, Tally};
use differential_fairness::FrameAudits;
use std::io::Cursor;
use std::sync::Arc;

/// Rows per DFRL chunk, as in the repository's replay bench and example.
const LOG_CHUNK_ROWS: usize = 4_096;

/// A frame over coded columns (outcome first) with the schema's
/// vocabularies, and the same rows as a DFRL log.
pub fn frame_and_log(schema: &Schema, columns: Vec<Vec<u32>>) -> (DataFrame, Vec<u8>) {
    let frame = DataFrame::new(
        columns
            .into_iter()
            .zip(&schema.axes)
            .map(|(codes, axis)| {
                Column::categorical_from_codes(axis.name(), codes, axis.labels().to_vec())
                    .expect("column")
            })
            .collect(),
    )
    .expect("frame");
    let mut log = Vec::new();
    write_frame_log(&frame, LOG_CHUNK_ROWS, &mut log).expect("DFRL log");
    (frame, log)
}

pub fn frame_job(schema: &Schema, frame: &DataFrame) -> String {
    let attrs = schema.attr_names();
    let attrs: Vec<&str> = attrs.iter().map(String::as_str).collect();
    Audit::of_frame(frame, OUTCOME, &attrs)
        .and_then(|a| a.run())
        .and_then(|r| r.render(ResponseFormat::Json))
        .expect("frame audit")
}

/// One replay job with every layer call in a span: open, then per DFRL
/// chunk decode and tally, then the counts, `Audit::run` and render.
/// The audit's stages are re-run alone afterwards under their own root.
/// Returns the report and the rows decoded.
fn traced_job(schema: &Schema, log: &[u8], trace: &mut Trace) -> (String, u64) {
    let names = schema.attr_names();
    let mut columns = vec![OUTCOME];
    columns.extend(names.iter().map(String::as_str));
    trace.enter("replay_audit");
    let (mut chunks, axes) = trace.time("replay.open", || {
        let chunks = ReplayChunks::new(Cursor::new(log))
            .and_then(|c| c.with_columns(&columns))
            .expect("open log");
        let axes = chunks.axes().expect("log axes");
        (chunks, axes)
    });
    let mut shard = PartialCounts::zeros(axes).expect("shard");
    let mut rows = 0u64;
    while let Some(chunk) = trace.time("replay.decode", || chunks.next()) {
        let chunk = chunk.expect("decode");
        rows += chunk.n_rows() as u64;
        trace
            .time("partial.tally", || chunk.tally_into(&mut shard))
            .expect("tally");
    }
    let counts = trace
        .time("edf.from_table", || {
            JointCounts::from_table(shard.into_table(), OUTCOME)
        })
        .expect("counts");
    let estimators = estimators_of(&[]).expect("defaults");
    let report = trace
        .time("builder.audit_run", || {
            run_audit(&counts, &estimators, SubsetPolicy::All)
        })
        .expect("audit");
    let body = trace
        .time("builder.render", || report.render(ResponseFormat::Json))
        .expect("render");
    trace.exit();
    trace.enter("audit_stages");
    audit_stages(&counts, &estimators, SubsetPolicy::All, trace);
    trace.exit();
    (body, rows)
}

/// Traced replay jobs over `log` for `seconds` (at least one job), each
/// report checked against `expected`. Returns the spans and the rows
/// decoded.
pub fn traced_replays(
    schema: &Schema,
    log: &[u8],
    expected: &str,
    clock: &Arc<RealClock>,
    seconds: f64,
    out: &mut Outcome,
) -> (Trace, u64) {
    let mut trace = Trace::new(Arc::clone(clock));
    let end = clock.monotonic_nanos() + (seconds * 1e9) as u64;
    let (mut rows, mut job) = (0u64, 0u64);
    loop {
        job += 1;
        trace.request(job);
        let (body, n) = traced_job(schema, log, &mut trace);
        rows += n;
        out.attempted += 1;
        if body != expected {
            out.fail_check("traced replay report differs from the Audit::of_frame report".into());
        }
        if clock.monotonic_nanos() >= end {
            return (trace, rows);
        }
    }
}

/// The DFRL layer metrics of traced replay jobs.
pub fn replay_layers(layers: &mut Layers, trace: &Trace, rows: u64, log_bytes: usize) {
    layers.per_mrow(
        "replay.decode_us_per_mrow",
        trace,
        "replay.decode",
        rows as f64,
    );
    let jobs = trace
        .ledger()
        .paths
        .get("replay_audit")
        .map_or(1, |p| p.requests.max(1));
    layers.set(
        "replay.bytes_per_row",
        log_bytes as f64 / (rows as f64 / jobs as f64),
    );
}
