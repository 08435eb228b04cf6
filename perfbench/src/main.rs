//! The repository benchmark: one command, two workloads, run against
//! the public API of `df-server`, `df-core` and `df-data`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <warm_read|ingest_audit> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run is untraced and reports the end-to-end
//! metrics; with `--trace 1` the server serves the traffic for half the
//! time, the benchmark's own request loop (`mirror`) for the other half,
//! first with span recording off and then on, and the run reports the
//! per-layer metrics.
//! Every output is checked against a batch reference. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`.
//!
//! The end-to-end metrics share names across workloads. Each latency
//! figure is relative: a quantile of the workload's latencies over the
//! same quantile of a reference timed in the same run, window by window
//! (`stats::Samples::rel`). The references run no code of the program
//! under test, so a drift in the speed of a shared host moves both and
//! cancels, while a change in the program moves only the numerator.
//!
//! | metric          | warm_read                | ingest_audit                  |
//! |-----------------|--------------------------|-------------------------------|
//! | reference       | loopback echo round trip | CPU probe between ingests     |
//! | `p50_rel`       | warm audit p50           | ingest p50, from due time     |
//! | `tail_rel`      | warm audit p90           | ingest p90                    |
//! | `side_p50_rel`  | warm monitor p50         | cold audit p50 (freshness)    |
//! | `side_tail_rel` | warm monitor p90         | cold audit p90                |
//!
//! The echo (`load::Echo`) is a bare TCP round trip between the client's
//! processor and the server's, of a request head and a warm body's size;
//! the probe (`load::probe`) is a fixed formatting and parsing kernel.
//! `setup_s` is the median of several set-ups and `peak_rss_mb` the
//! process's peak resident set less the heap of the prebuilt inputs (see
//! `load::peak_rss_mb`); both are absolute.
//!
//! Each workload's own absolute figures (`warm_audit_rps`,
//! `warm_audit_p50_us`, `ingest_p50_us`, `cold_audit_p50_us`, …, and the
//! reference's own time) are printed beside them, with `error_rate`:
//! failed requests and failed output checks over operations attempted. It
//! is 0 on a healthy run, so it travels as the result's `failed` and
//! `attempted` rather than as a metric.

mod gen;
mod ingest;
mod layers;
mod load;
mod mirror;
mod replay;
mod scrape;
mod stats;
mod trace;
mod warm;

use layers::Layers;
use stats::Outcome;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut out = Outcome::default();
    let mut layers = Layers::default();
    match args.workload.as_str() {
        "warm_read" => warm::run(&args, &mut out, &mut layers),
        "ingest_audit" => ingest::run(&args, &mut out, &mut layers),
        other => {
            eprintln!("perfbench: unknown workload `{other}` (warm_read, ingest_audit)");
            std::process::exit(2);
        }
    }

    let error_rate = out.failed as f64 / out.attempted.max(1) as f64;
    println!(
        "end-to-end ({}):",
        if args.trace {
            "untraced half of a traced run"
        } else {
            "untraced run"
        }
    );
    for (name, m) in &out.metrics {
        println!(
            "  {name:<28} {:>14.3} {:<6} n={}",
            m.value, m.unit, m.samples
        );
    }
    println!("  as the workload names them:");
    for (name, m) in &out.named {
        println!(
            "  {name:<28} {:>14.3} {:<6} n={}",
            m.value, m.unit, m.samples
        );
    }
    println!(
        "  {:<28} {:>14.6} {:<6} n={}",
        "error_rate", error_rate, "ratio", out.attempted
    );
    for f in &out.check_failures {
        println!("  FAILED CHECK: {f}");
    }
    let metrics: Vec<String> = if args.trace {
        println!("per-layer:");
        layers
            .values()
            .map(|(name, value, unit)| {
                println!("  {name:<34} {value:>14.3} {unit}");
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                    json_num(value)
                )
            })
            .collect()
    } else {
        out.metrics
            .iter()
            .map(|(name, m)| {
                format!(
                    "\"{name}\":{{\"value\":{},\"unit\":\"{}\"}}",
                    json_num(m.value),
                    m.unit
                )
            })
            .collect()
    };
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(",")
    );
}
