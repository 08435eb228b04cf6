//! DFRL replay-log equivalence and robustness:
//!
//! 1. **CSV ≡ DFRL.** For arbitrary frames, auditing a DFRL log produces
//!    a byte-identical serialized `AuditReport` to the CSV streaming path
//!    and the batch frame path, for every chunk size and thread count.
//! 2. **`csv_to_log` ≡ direct CSV.** Converting CSV bytes to a log and
//!    replaying the log matches parsing the CSV directly.
//! 3. **Monitor replay.** A `FairnessMonitor` fed the log's `CodeChunk`s
//!    snapshots identically to one fed the frame's chunks.
//! 4. **Hostile bytes.** Truncating the log at every prefix and flipping
//!    bits anywhere yields typed errors (or a still-valid log), never a
//!    panic.
//!
//! Case budget: `PROPTEST_CASES` (default 32) — see CI.

use df_data::workloads::{frame_to_csv, synthetic_audit_frame};
use differential_fairness::prelude::*;
use proptest::prelude::*;

/// A random categorical frame: outcome column plus 1–2 protected
/// attributes, codes drawn arbitrarily (mirrors `stream_equivalence`).
#[derive(Debug, Clone)]
struct ArbitraryFrame {
    outcome_arity: usize,
    attr_arities: Vec<usize>,
    raw: Vec<u64>,
}

impl ArbitraryFrame {
    fn build(&self) -> DataFrame {
        let col = |name: &str, arity: usize, salt: u64| {
            let codes: Vec<u32> = self
                .raw
                .iter()
                .map(|&r| ((r.rotate_left(salt as u32 * 13) ^ salt) % arity as u64) as u32)
                .collect();
            Column::categorical_from_codes(
                name,
                codes,
                (0..arity).map(|i| format!("c{i}")).collect(),
            )
            .unwrap()
        };
        let mut columns = vec![col("outcome", self.outcome_arity, 1)];
        for (k, &a) in self.attr_arities.iter().enumerate() {
            columns.push(col(&format!("attr{k}"), a, k as u64 + 2));
        }
        DataFrame::new(columns).unwrap()
    }

    fn attr_names(&self) -> Vec<String> {
        (0..self.attr_arities.len())
            .map(|k| format!("attr{k}"))
            .collect()
    }
}

fn report_json(audit: Audit<'static>) -> String {
    let report = audit
        .estimator(Empirical)
        .estimator(Smoothed { alpha: 1.0 })
        .run()
        .unwrap();
    serde_json::to_string(&report).unwrap()
}

fn csv_audit_json(csv: &str, columns: &[&str], axes: Vec<Axis>, threads: usize) -> String {
    let chunks = CsvChunks::new(csv.as_bytes(), df_data::csv::CsvOptions::default(), 1_024)
        .unwrap()
        .map(|r| r.map_err(|e| differential_fairness::core::DfError::Invalid(e.to_string())));
    report_json(Audit::of_stream(columns.first().unwrap(), axes, chunks, threads).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(32),
    })]

    /// Frame → DFRL → audit is byte-identical (serialized report) to the
    /// batch audit and the CSV streaming audit of the same rows, across
    /// chunk sizes and thread counts.
    #[test]
    fn replay_log_audit_is_byte_identical_to_csv_and_batch(
        outcome_arity in 2usize..4,
        attr_arity in 2usize..5,
        n_attrs in 1usize..3,
        raw in proptest::collection::vec(any::<u64>(), 1..120),
        chunk_rows in 1usize..40,
        threads in 1usize..5,
    ) {
        let spec = ArbitraryFrame { outcome_arity, attr_arities: vec![attr_arity; n_attrs], raw };
        let frame = spec.build();
        let attr_names = spec.attr_names();
        let mut columns = vec!["outcome"];
        columns.extend(attr_names.iter().map(String::as_str));

        let batch = report_json(Audit::of_frame(&frame, "outcome", &columns[1..]).unwrap());

        let mut log = Vec::new();
        write_frame_log(&frame, chunk_rows, &mut log).unwrap();
        let replayed = report_json(
            Audit::of_replay_log(log.as_slice(), "outcome", &columns[1..], threads).unwrap(),
        );
        prop_assert_eq!(&replayed, &batch);

        let axes: Vec<Axis> = columns
            .iter()
            .map(|n| {
                let (_, vocab) = frame.column(n).unwrap().as_categorical().unwrap();
                Axis::new(n.to_string(), vocab.to_vec()).unwrap()
            })
            .collect();
        let csv = frame_to_csv(&frame, &columns).unwrap();
        let via_csv = csv_audit_json(&csv, &columns, axes, threads);
        prop_assert_eq!(&via_csv, &batch);

        // The scan-free tally agrees with the batch contingency.
        let table = tally_from_log(log.as_slice(), &columns).unwrap();
        prop_assert_eq!(table, frame.contingency(&columns).unwrap());
    }

    /// CSV → DFRL conversion preserves the audit: replaying the converted
    /// log matches parsing the CSV directly (both intern labels in CSV
    /// first-occurrence order), byte for byte.
    #[test]
    fn csv_to_log_preserves_the_audit(
        raw in proptest::collection::vec(any::<u64>(), 1..100),
        chunk_rows in 1usize..32,
    ) {
        let spec = ArbitraryFrame { outcome_arity: 2, attr_arities: vec![2, 3], raw };
        let frame = spec.build();
        let columns = ["outcome", "attr0", "attr1"];
        let csv = frame_to_csv(&frame, &columns).unwrap();
        let opts = df_data::csv::CsvOptions::default();

        let mut log = Vec::new();
        csv_to_log(csv.as_bytes(), &opts, &columns, chunk_rows, &mut log).unwrap();

        // The reference: the CSV parsed straight into a frame, interning
        // each column in first-occurrence order — exactly what the
        // converter does.
        let records = df_data::csv::read_str(&csv, &opts).unwrap();
        let csv_frame = DataFrame::new(
            columns
                .iter()
                .enumerate()
                .map(|(i, name)| {
                    let values: Vec<&str> =
                        records.iter().map(|r| r[i].as_str()).collect();
                    Column::categorical(*name, &values)
                })
                .collect(),
        )
        .unwrap();

        // Occurrence interning shrinks arity when a label never shows up;
        // skip those degenerate draws (both paths reject an arity-1
        // outcome identically, but there is no report to compare).
        let arity = |name: &str| {
            csv_frame
                .column(name)
                .unwrap()
                .as_categorical()
                .unwrap()
                .1
                .len()
        };
        if arity("outcome") != 2 || arity("attr0") != 2 || arity("attr1") != 3 {
            return Ok(()); // vendored proptest has no prop_assume
        }

        let batch = report_json(Audit::of_frame(&csv_frame, "outcome", &columns[1..]).unwrap());
        let replayed = report_json(
            Audit::of_replay_log(log.as_slice(), "outcome", &columns[1..], 1).unwrap(),
        );
        prop_assert_eq!(replayed, batch);
    }
}

/// The monitor ingests log chunks exactly as it ingests frame chunks:
/// identical snapshots (serialized), step by step.
#[test]
fn monitor_replay_from_log_matches_frame_chunks() {
    let mut rng = Pcg32::new(7);
    let frame = synthetic_audit_frame(&mut rng, 2_000, 2, &[2, 3]).unwrap();
    let columns = ["outcome", "attr0", "attr1"];
    let axes: Vec<Axis> = columns
        .iter()
        .map(|n| {
            let (_, vocab) = frame.column(n).unwrap().as_categorical().unwrap();
            Axis::new(n.to_string(), vocab.to_vec()).unwrap()
        })
        .collect();

    let mut log = Vec::new();
    write_frame_log(&frame, 256, &mut log).unwrap();

    let mut from_frame = Audit::monitor("outcome", axes.clone()).build().unwrap();
    let mut from_log = Audit::monitor("outcome", axes).build().unwrap();

    let frame_chunks = FrameChunks::new(&frame, &columns, 256).unwrap();
    let log_chunks = ReplayChunks::new(log.as_slice())
        .unwrap()
        .with_columns(&columns)
        .unwrap();

    for (fc, lc) in frame_chunks.zip(log_chunks) {
        from_frame.push(&fc).unwrap();
        from_log.push(&lc.unwrap()).unwrap();
        let a = serde_json::to_string(&from_frame.snapshot().unwrap()).unwrap();
        let b = serde_json::to_string(&from_log.snapshot().unwrap()).unwrap();
        assert_eq!(a, b);
    }
}

/// Every strict prefix of a valid log is rejected with a typed error —
/// the audit entry point never panics and never fabricates a report.
#[test]
fn truncated_logs_are_typed_errors_never_panics() {
    let mut rng = Pcg32::new(11);
    let frame = synthetic_audit_frame(&mut rng, 200, 2, &[2, 2]).unwrap();
    let mut log = Vec::new();
    write_frame_log(&frame, 32, &mut log).unwrap();

    for cut in 0..log.len() {
        let prefix = &log[..cut];
        match Audit::of_replay_log(prefix, "outcome", &["attr0", "attr1"], 1) {
            Ok(audit) => {
                // Header parsed but the stream is cut: running the audit
                // must surface the decode error, not a partial report.
                assert!(
                    audit.estimator(Empirical).run().is_err(),
                    "prefix of {cut} bytes produced a report"
                );
            }
            Err(differential_fairness::core::DfError::Invalid(_)) => {}
            Err(other) => panic!("unexpected error at cut {cut}: {other:?}"),
        }
    }
}

/// Randomly corrupted logs never panic: every flip either fails with a
/// typed error or still decodes to in-range codes.
#[test]
fn bit_flipped_logs_never_panic() {
    let mut rng = Pcg32::new(13);
    let frame = synthetic_audit_frame(&mut rng, 300, 2, &[2, 4]).unwrap();
    let mut log = Vec::new();
    write_frame_log(&frame, 64, &mut log).unwrap();

    for _ in 0..400 {
        let mut corrupt = log.clone();
        let pos = rng.next_below(corrupt.len() as u32) as usize;
        corrupt[pos] ^= 1u8 << rng.next_below(8);
        match Audit::of_replay_log(corrupt.as_slice(), "outcome", &["attr0", "attr1"], 1) {
            Ok(audit) => {
                // A still-parsable log must still produce a well-formed
                // report or a typed error — exercise it.
                let _ = audit.estimator(Empirical).run().map(|r| r.epsilon);
            }
            Err(differential_fairness::core::DfError::Invalid(_)) => {}
            Err(other) => panic!("unexpected error: {other:?}"),
        }
    }
}

/// Golden DFRL bytes: a categorical and a numeric column over two chunks.
/// Round-trip tests would still pass after a wire-format change; this
/// pins the encoded bytes themselves.
#[test]
fn dfrl_log_matches_golden_bytes() {
    let frame = DataFrame::new(vec![
        Column::categorical("y", &["no", "yes", "yes"]),
        Column::numeric("score", vec![0.5, -2.25, 1e300]),
    ])
    .unwrap();
    let mut log = Vec::new();
    let stats = write_frame_log(&frame, 2, &mut log).unwrap();
    assert_eq!(stats.chunks, 2);
    let hex: String = log.iter().map(|b| format!("{b:02x}")).collect();
    assert_eq!(hex, GOLDEN_DFRL);
    let back = read_frame_log(log.as_slice()).unwrap();
    assert_eq!(back.column("y").unwrap().value_str(2), "yes");
}

const GOLDEN_DFRL: &str = concat!(
    "4446524c01130201790002026e6f037965730573636f72650113020001000000",
    "000000e03f00000000000002c00a01019c7500883ce4377e00",
);
