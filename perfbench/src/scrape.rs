//! Reads the server's own telemetry from outside, over HTTP:
//! `/v1/metrics?format=json` and `/v1/healthz`.

use differential_fairness::server::client::Http1Client;
use serde_json::Value;
use std::net::SocketAddr;

/// Per-shard queue depths from `/v1/healthz`.
pub fn queue_depths(addr: SocketAddr) -> Vec<u64> {
    let mut client = Http1Client::connect(addr).expect("connect for healthz");
    let resp = client.get("/v1/healthz").expect("healthz");
    assert_eq!(resp.status, 200, "healthz answered {}", resp.status);
    let value = serde_json::parse(&resp.text()).expect("healthz JSON");
    value
        .field("queue_depths")
        .as_arr("queue_depths")
        .expect("queue depths")
        .iter()
        .map(|v| match v {
            Value::Int(i) => *i as u64,
            _ => 0,
        })
        .collect()
}

/// The counters and histograms the ledger reports, from one scrape.
#[derive(Default, Debug)]
pub struct Scrape {
    pub response_cache_hits: f64,
    pub response_cache_lookups: f64,
    pub snapshot_cache_hits: f64,
    pub snapshot_cache_lookups: f64,
    pub cut_count: f64,
    pub cut_mean_s: f64,
    pub push_count: f64,
    pub push_mean_s: f64,
    pub evictions: f64,
}

impl Scrape {
    pub fn fetch(addr: SocketAddr) -> Self {
        let mut client = Http1Client::connect(addr).expect("connect for metrics");
        let resp = client.get("/v1/metrics?format=json").expect("metrics");
        assert_eq!(resp.status, 200, "metrics answered {}", resp.status);
        let value = serde_json::parse(&resp.text()).expect("metrics JSON");
        let mut out = Scrape::default();
        for metric in value.field("metrics").as_arr("metrics").expect("metrics") {
            let name = match metric.field("name") {
                Value::Str(s) => s.as_str(),
                _ => continue,
            };
            for series in metric.field("series").as_arr("series").expect("series") {
                let label = |k: &str| match series.field("labels").field(k) {
                    Value::Str(s) => s.clone(),
                    _ => String::new(),
                };
                let num = |k: &str| match series.field(k) {
                    Value::Int(i) => *i as f64,
                    Value::Float(f) => *f,
                    _ => 0.0,
                };
                match name {
                    "df_cache_requests_total" => {
                        let (hits, lookups) = if label("cache") == "render" {
                            (
                                &mut out.response_cache_hits,
                                &mut out.response_cache_lookups,
                            )
                        } else {
                            (
                                &mut out.snapshot_cache_hits,
                                &mut out.snapshot_cache_lookups,
                            )
                        };
                        *lookups += num("value");
                        if label("result") == "hit" {
                            *hits += num("value");
                        }
                    }
                    "df_snapshot_cut_seconds" => {
                        out.cut_count = num("count");
                        out.cut_mean_s = num("mean");
                    }
                    "df_monitor_push_seconds" => {
                        out.push_count = num("count");
                        out.push_mean_s = num("mean");
                    }
                    "df_monitor_evictions_total" => out.evictions += num("value"),
                    _ => {}
                }
            }
        }
        out
    }

    pub fn ratio(hits: f64, lookups: f64) -> f64 {
        if lookups > 0.0 {
            hits / lookups
        } else {
            0.0
        }
    }
}
