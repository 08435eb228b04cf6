//! The load generator: keep-alive clients driving a server address in a
//! closed loop (next request after the reply) or an open loop (each
//! request on a fixed schedule, timed from when it was due).
//!
//! Each loop also times a reference that does not touch the program
//! under test, interleaved with its requests, so that a workload can
//! report its latencies relative to the host's speed at the same moment
//! (`Samples::rel`): the closed loop a bare loopback TCP round trip
//! (`Echo`), the open loop a fixed CPU kernel (`probe`) in the idle time
//! between requests.

use crate::stats::Samples;
use differential_fairness::obs::{Clock, RealClock};
use differential_fairness::server::client::{ClientResponse, Http1Client};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How often the closed loop times its reference, and how many echo
/// round trips it times each time.
const ECHO_EVERY_NS: u64 = 50_000_000;
const ECHO_TRIPS: usize = 20;
/// Sizes of an echo request and reply: about a request head and a
/// warm audit body.
const ECHO_REQUEST: usize = 120;
const ECHO_REPLY: usize = 1500;
/// The open loop runs the probe only when at least this long remains
/// before the next request is due.
const PROBE_SLACK_NS: u64 = 800_000;

/// One request to send.
pub struct Req {
    pub method: &'static str,
    pub target: String,
    pub content_type: Option<&'static str>,
    pub body: Vec<u8>,
}

impl Req {
    pub fn get(target: impl Into<String>) -> Self {
        Self {
            method: "GET",
            target: target.into(),
            content_type: None,
            body: Vec::new(),
        }
    }

    /// Heap bytes held by `reqs`: targets, bodies, and the list itself.
    pub fn heap_bytes(reqs: &[Req]) -> usize {
        reqs.iter()
            .map(|r| r.target.capacity() + r.body.capacity())
            .sum::<usize>()
            + std::mem::size_of_val(reqs)
    }

    pub fn send(&self, client: &mut Http1Client) -> std::io::Result<ClientResponse> {
        let headers: Vec<(&str, &str)> = self
            .content_type
            .map(|c| vec![("Content-Type", c)])
            .unwrap_or_default();
        client.request(self.method, &self.target, &headers, &self.body)
    }
}

/// A completed request: when it was due, sent, and answered (clock ns).
pub struct Done {
    pub index: usize,
    pub due: u64,
    pub sent: u64,
    pub done: u64,
    pub response: std::io::Result<ClientResponse>,
}

/// Sleeps until the clock reads `at` (returns at once when already late).
pub fn sleep_until(clock: &RealClock, at: u64) {
    let now = clock.monotonic_nanos();
    if at > now {
        std::thread::sleep(Duration::from_nanos(at - now));
    }
}

/// Waits until the clock reads `at` by yielding in a loop. The generator
/// thread never parks, so the processors stay awake between requests: on
/// a virtual machine, waking an idle processor costs more than the request
/// being timed, and how much more depends on the host. Yielding hands the
/// processor to any runnable server thread at once.
pub fn wait_until(clock: &RealClock, at: u64) {
    while clock.monotonic_nanos() < at {
        std::thread::yield_now();
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A CPU set as the kernel takes it: 1024 bits.
type CpuMask = [u64; 16];

/// Where a closed loop's threads run when the process may use two or
/// more processors: the client on one, the server and the echo on
/// another, so that every request and every echo round trip crosses
/// between the same two processors, whichever placement the scheduler
/// would have picked in a given run.
pub struct Placement {
    pub client: usize,
    pub server: usize,
}

impl Placement {
    /// The first two processors this process may use, or `None` when it
    /// may use only one.
    pub fn of_process() -> Option<Self> {
        let mut mask: CpuMask = [0; 16];
        // SAFETY: `mask` is a writable buffer of exactly the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return None;
        }
        let mut cpus = (0..mask.len() * 64).filter(|&c| mask[c / 64] >> (c % 64) & 1 == 1);
        Some(Self {
            client: cpus.next()?,
            server: cpus.next()?,
        })
    }
}

/// Pins the calling thread, and every thread it starts from then on, to
/// processor `cpu`.
pub fn pin_thread(cpu: usize) {
    let mut mask: CpuMask = [0; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    assert_eq!(rc, 0, "could not pin a thread to processor {cpu}");
}

/// A bare loopback TCP echo owned by the benchmark: a thread that answers
/// each fixed-size request with a fixed-size reply. Its round trip costs
/// what a warm request costs in the kernel and the scheduler, with no
/// server code in it. The echo thread runs where the thread that starts
/// it may run.
pub struct Echo {
    stream: TcpStream,
    server: Option<JoinHandle<()>>,
    reply: Vec<u8>,
    /// Round-trip times, filed by `closed_loop`.
    pub times: Samples,
}

impl Echo {
    pub fn start() -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind echo");
        let addr = listener.local_addr().expect("echo address");
        let server = std::thread::spawn(move || {
            let Ok((mut conn, _)) = listener.accept() else {
                return;
            };
            let _ = conn.set_nodelay(true);
            let mut request = [0u8; ECHO_REQUEST];
            let reply = [7u8; ECHO_REPLY];
            while conn.read_exact(&mut request).is_ok() {
                if conn.write_all(&reply).is_err() {
                    return;
                }
            }
        });
        let stream = TcpStream::connect(addr).expect("connect echo");
        stream.set_nodelay(true).expect("echo nodelay");
        Self {
            stream,
            server: Some(server),
            reply: vec![0; ECHO_REPLY],
            times: Samples::default(),
        }
    }

    pub fn round_trip(&mut self) {
        self.stream
            .write_all(&[1u8; ECHO_REQUEST])
            .and_then(|()| self.stream.read_exact(&mut self.reply))
            .expect("echo round trip");
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        // The echo thread's next read fails, and it returns.
        let _ = self.stream.shutdown(Shutdown::Both);
        if let Some(server) = self.server.take() {
            let _ = server.join();
        }
    }
}

/// A fixed CPU kernel owned by the benchmark, about 80 µs on one core of
/// a virtualised Intel Xeon: it formats 64 JSON-like rows four times, splits them and
/// parses the numbers back, hashing every token.
pub fn probe() -> u64 {
    use std::fmt::Write as _;
    let mut text = String::with_capacity(4096);
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for rep in 0..4u64 {
        text.clear();
        for r in 0..64u64 {
            let _ = write!(
                text,
                "{{\"a{r}\":\"v{}\",\"x\":{}.{rep}}},",
                (r * 7 + rep) % 5,
                r * 31
            );
        }
        for token in text.split([',', ':', '"']) {
            let token = token.trim_matches(['{', '}']);
            match token.parse::<f64>() {
                Ok(v) => hash = (hash ^ v.to_bits()).wrapping_mul(0x100_0000_01b3),
                Err(_) => {
                    for b in token.bytes() {
                        hash = (hash ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
                    }
                }
            }
        }
    }
    std::hint::black_box(hash)
}

/// The stretch of clock time a loop runs over, in ns: it sends nothing at
/// or after `end`, and files reference times by their time since `start`.
#[derive(Clone, Copy)]
pub struct Stretch {
    pub start: u64,
    pub end: u64,
}

/// Sends `reqs[i]` at `during.start + i × period`, for as long as the
/// schedule stays before `during.end`; `on_done` sees every reply as it
/// arrives. With `probe_times`, runs `probe` whenever the next request is
/// at least `PROBE_SLACK_NS` away and files its time there.
pub fn open_loop(
    addr: SocketAddr,
    clock: &Arc<RealClock>,
    reqs: &[Req],
    during: Stretch,
    period_ns: f64,
    mut probe_times: Option<&mut Samples>,
    mut on_done: impl FnMut(Done),
) {
    let mut client = Http1Client::connect(addr).expect("connect");
    for (index, req) in reqs.iter().enumerate() {
        let due = during.start + (index as f64 * period_ns) as u64;
        if due >= during.end {
            return;
        }
        if let Some(times) = probe_times.as_deref_mut() {
            let t0 = clock.monotonic_nanos();
            if t0 + PROBE_SLACK_NS <= due {
                probe();
                let at = t0.saturating_sub(during.start);
                times.push(at, clock.monotonic_nanos() - t0);
            }
        }
        wait_until(clock, due);
        let sent = clock.monotonic_nanos();
        let response = req.send(&mut client);
        let done = clock.monotonic_nanos();
        on_done(Done {
            index,
            due,
            sent,
            done,
            response,
        });
    }
}

/// Cycles through `reqs`, each request sent as soon as the previous reply
/// arrived, until the clock passes `during.end`.
/// Every `ECHO_EVERY_NS` it times `ECHO_TRIPS` round trips of `echo`,
/// filed in `echo.times`.
pub fn closed_loop(
    addr: SocketAddr,
    clock: &Arc<RealClock>,
    reqs: &[Req],
    during: Stretch,
    echo: &mut Echo,
    mut on_done: impl FnMut(Done),
) {
    let mut client = Http1Client::connect(addr).expect("connect");
    let mut next_echo = 0;
    let mut i = 0;
    loop {
        let sent = clock.monotonic_nanos();
        if sent >= during.end {
            return;
        }
        if sent >= next_echo {
            for _ in 0..ECHO_TRIPS {
                let t0 = clock.monotonic_nanos();
                echo.round_trip();
                let at = t0.saturating_sub(during.start);
                echo.times.push(at, clock.monotonic_nanos() - t0);
            }
            next_echo = clock.monotonic_nanos() + ECHO_EVERY_NS;
            continue;
        }
        let index = i % reqs.len();
        let response = reqs[index].send(&mut client);
        let done = clock.monotonic_nanos();
        on_done(Done {
            index,
            due: sent,
            sent,
            done,
            response,
        });
        i += 1;
    }
}

/// Peak resident set of this process (`VmHWM`) less `input_bytes`, the
/// heap the benchmark's prebuilt inputs hold, in MiB: the memory the
/// server and the generator's bookkeeping held at the peak, with the
/// process's own code and libraries.
pub fn peak_rss_mb(input_bytes: usize) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| {
            (kb * 1024.0 - input_bytes as f64) / (1024.0 * 1024.0)
        })
}

/// Runs `setup` `reps` times and returns the last result with the
/// median set-up time in seconds.
pub fn timed_setup<T>(clock: &RealClock, reps: usize, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t0 = clock.monotonic_nanos();
        last = Some(setup());
        times.push((clock.monotonic_nanos() - t0) as f64 / 1e9);
    }
    times.sort_by(f64::total_cmp);
    let median = times[times.len() / 2];
    println!(
        "set-up: median {median:.4} s of {reps} (min {:.4} s, max {:.4} s)",
        times[0],
        times[times.len() - 1]
    );
    (last.expect("at least one set-up"), median)
}
