//! Ingest bodies at the default 1 MiB cap cost time linear in their size.
//!
//! JSON string scanning used to re-validate the rest of the input for
//! every character, so one long label in a body under the cap cost tens
//! of seconds of worker CPU. These tests post bodies just under the cap
//! and bound the wall time generously.

use df_prob::contingency::Axis;
use df_server::{client::Http1Client, Server};
use std::time::{Duration, Instant};

const BODY_CAP: usize = 1 << 20;

fn server() -> Server {
    Server::builder(
        "outcome",
        vec![
            Axis::from_strs("outcome", &["deny", "approve"]).unwrap(),
            Axis::from_strs("gender", &["F", "M"]).unwrap(),
        ],
    )
    .window_seconds(3600.0)
    .max_body_bytes(BODY_CAP)
    .bind("127.0.0.1:0")
    .unwrap()
}

fn post_rows(server: &Server, body: &[u8]) -> (u16, String, Duration) {
    let mut client = Http1Client::connect(server.local_addr()).unwrap();
    let start = Instant::now();
    let resp = client
        .request(
            "POST",
            "/v1/ingest/records?at=10",
            &[("Content-Type", "application/json")],
            body,
        )
        .unwrap();
    (resp.status, resp.text(), start.elapsed())
}

#[test]
fn one_long_label_is_rejected_in_linear_time() {
    let server = server();
    let prefix = "[[\"";
    let suffix = "\",\"F\"]]";
    let label = "x".repeat(BODY_CAP - prefix.len() - suffix.len());
    let body = format!("{prefix}{label}{suffix}");
    assert_eq!(body.len(), BODY_CAP);

    let (status, text, elapsed) = post_rows(&server, body.as_bytes());
    assert_eq!(status, 400, "{}", &text[..text.len().min(200)]);
    assert!(text.contains("\"invalid\""));
    assert!(text.contains("is not a label of axis `outcome`"));
    assert!(
        elapsed < Duration::from_secs(2),
        "a 1 MiB body took {elapsed:?}"
    );
    server.shutdown();
}

#[test]
fn many_short_rows_up_to_the_cap_are_accepted() {
    let server = server();
    let rows = ["[\"approve\",\"F\"]", "[\"deny\",\"M\"]"];
    let mut body = String::from("[");
    let mut n = 0usize;
    while body.len() + rows[n % 2].len() + 2 <= BODY_CAP {
        if n > 0 {
            body.push(',');
        }
        body.push_str(rows[n % 2]);
        n += 1;
    }
    body.push(']');
    assert!(body.len() <= BODY_CAP && body.len() > BODY_CAP - 32);

    let (status, text, _) = post_rows(&server, body.as_bytes());
    assert_eq!(status, 200, "{text}");
    assert!(text.contains(&format!("\"accepted\":{n}")), "{text}");
    server.shutdown();
}
