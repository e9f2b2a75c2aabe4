//! The TCP load generator: one process, at most two threads and two
//! connections against a live `rpctl serve`.
//!
//! * `--mode hot`: rounds of a one-second open-loop phase — `count` lines
//!   drawn Zipf-skewed from `hot.txt`, sent at `--rate` lines/s alternating
//!   over two connections from one thread, each timed from when it was
//!   due — and a one-second closed-loop phase: two threads, one per
//!   connection, each sending its next line when the last is answered.
//! * `--mode batch`: the same two closed-loop threads sending `batch.txt`
//!   lines.
//!
//! Every answer must be byte-equal to an in-process `QueryService` over
//! `--publication`. A refusal, an error line, a wrong answer, a timeout or
//! a dropped connection is a failure and counts as a latency above every
//! limit.
//!
//! Samples fall into 250 ms windows. Reported percentiles and throughput
//! are medians over windows, so a window disturbed by a neighbour on a
//! shared host moves them less; the all-sample figures are printed beside
//! them.

use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::path::Path;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rp_engine::{Publication, QueryService, ServiceConfig, SessionStats};

use crate::gen::read_lines;
use crate::{median, percentile, sub_seed, Args, Json};

/// Latency recorded for a failed request: above every limit.
const FAILED: u64 = u64::MAX;

/// How long a response may take before the request counts as timed out.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(5);

/// Latency and throughput sample window.
const WINDOW_NS: u64 = 250_000_000;

/// `hot`: seconds of each open-loop and each closed-loop phase.
const HOT_PHASE_S: f64 = 1.0;

/// One client connection with its own line-splitting receive buffer.
struct Conn {
    stream: TcpStream,
    rx: Vec<u8>,
    start: usize,
    alive: bool,
}

impl Conn {
    /// Connects and reads the `HELLO` banner.
    fn connect(addr: &str) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        stream
            .set_read_timeout(Some(RESPONSE_TIMEOUT))
            .map_err(|e| format!("read timeout: {e}"))?;
        let mut conn = Self {
            stream,
            rx: Vec::with_capacity(1 << 16),
            start: 0,
            alive: true,
        };
        let banner = conn
            .read_line()
            .map_err(|e| format!("no banner from {addr}: {e}"))?;
        if !banner.starts_with("HELLO ") {
            return Err(format!("{addr} refused: {banner}"));
        }
        Ok(conn)
    }

    fn send(&mut self, line: &str) -> io::Result<()> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.stream.write_all(&buf)
    }

    /// One `read` call; `Ok(0)` is end of stream.
    fn fill(&mut self) -> io::Result<usize> {
        if self.start == self.rx.len() {
            self.rx.clear();
            self.start = 0;
        }
        let mut chunk = [0u8; 1 << 16];
        let n = self.stream.read(&mut chunk)?;
        self.rx.extend_from_slice(&chunk[..n]);
        Ok(n)
    }

    /// A complete buffered line, if any (without its newline).
    fn next_line(&mut self) -> Option<String> {
        let pending = &self.rx[self.start..];
        let pos = pending.iter().position(|&b| b == b'\n')?;
        let line = String::from_utf8_lossy(&pending[..pos]).into_owned();
        self.start += pos + 1;
        Some(line)
    }

    /// Blocks (up to the read deadline) for one line.
    fn read_line(&mut self) -> io::Result<String> {
        loop {
            if let Some(line) = self.next_line() {
                return Ok(line);
            }
            if self.fill()? == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed",
                ));
            }
        }
    }
}

/// Request accounting: latencies per sample window, failures by kind.
struct Tally {
    windows: Vec<Vec<u64>>,
    wrong: u64,
    errors: u64,
    lost: u64,
}

impl Tally {
    fn new() -> Self {
        Self {
            windows: Vec::new(),
            wrong: 0,
            errors: 0,
            lost: 0,
        }
    }

    /// Files a latency under the window holding `at_ns`.
    fn push(&mut self, at_ns: u64, latency: u64) {
        let w = (at_ns / WINDOW_NS) as usize;
        if self.windows.len() <= w {
            self.windows.resize_with(w + 1, Vec::new);
        }
        self.windows[w].push(latency);
    }

    fn record(&mut self, at_ns: u64, response: &str, expected: &str, latency: u64) {
        if response == expected {
            self.push(at_ns, latency);
            return;
        }
        if response.starts_with("error ") {
            self.errors += 1;
        } else {
            self.wrong += 1;
        }
        if self.errors + self.wrong <= 3 {
            eprintln!("perfbench: unexpected response `{response}`");
        }
        self.push(at_ns, FAILED);
    }

    fn lose(&mut self, at_ns: u64, n: u64) {
        self.lost += n;
        for _ in 0..n {
            self.push(at_ns, FAILED);
        }
    }

    fn add_failures(&mut self, other: &Tally) {
        self.wrong += other.wrong;
        self.errors += other.errors;
        self.lost += other.lost;
    }

    /// Merges a tally of the same time span (a concurrent client).
    fn combine(&mut self, other: Tally) {
        self.add_failures(&other);
        if self.windows.len() < other.windows.len() {
            self.windows.resize_with(other.windows.len(), Vec::new);
        }
        for (mine, theirs) in self.windows.iter_mut().zip(other.windows) {
            mine.extend(theirs);
        }
    }

    /// Appends a tally of a later time span (the next round).
    fn append(&mut self, other: Tally) {
        self.add_failures(&other);
        self.windows.extend(other.windows);
    }

    fn attempted(&self) -> u64 {
        self.windows.iter().map(|w| w.len() as u64).sum()
    }

    fn failed(&self) -> u64 {
        self.wrong + self.errors + self.lost
    }

    /// Window-median and all-sample p50/p99, plus the window-median
    /// completion rate; failures sort above every success.
    fn summary(&mut self, window_s: f64) -> Json {
        let ns = |v: u64| if v == FAILED { f64::INFINITY } else { v as f64 };
        let mut all: Vec<u64> = Vec::new();
        let (mut p50s, mut p90s, mut p99s, mut rates) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for w in &mut self.windows {
            if w.is_empty() {
                continue;
            }
            w.sort_unstable();
            p50s.push(ns(percentile(w, 50.0)));
            p90s.push(ns(percentile(w, 90.0)));
            p99s.push(ns(percentile(w, 99.0)));
            rates.push(w.iter().filter(|&&v| v != FAILED).count() as f64 / window_s);
            all.extend_from_slice(w);
        }
        all.sort_unstable();
        let mut json = Json::default();
        json.int("samples", all.len() as u64)
            .int("failed", self.failed())
            .int("windows", p50s.len() as u64)
            .num("p50_ns", median(&mut p50s))
            .num("p90_ns", median(&mut p90s))
            .num("p99_ns", median(&mut p99s))
            .num("ops_per_s", median(&mut rates))
            .num("all_p50_ns", ns(percentile(&all, 50.0)))
            .num("all_p99_ns", ns(percentile(&all, 99.0)));
        json
    }
}

/// Zipf(1) over ranks `0..n`: rank `r` has weight `1/(r+1)`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|r| {
                acc += 1.0 / (r as f64 + 1.0);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

// Readiness waiting with nanosecond timeouts. Socket read deadlines and
// `poll` round to the scheduler tick (milliseconds), far coarser than the
// ~20 µs spacing of an open-loop schedule, so the generator waits in
// `ppoll`, whose timeout is a high-resolution timer.
#[repr(C)]
struct PollFd {
    fd: i32,
    events: i16,
    revents: i16,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: u64,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

const POLLIN: i16 = 0x1;
const PR_SET_TIMERSLACK: i32 = 29;

/// Shrinks this thread's timer slack (default 50 µs) to 1 ns so `ppoll`
/// timeouts fire when requests fall due, not up to 50 µs later.
fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches
    // only the calling thread's scheduling state; unused arguments are 0.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0);
    }
}

/// Waits until one of `conns` is readable or `timeout_ns` passes; returns
/// the readiness flag per connection (dead ones never ready).
fn wait_readable(conns: &[Conn], timeout_ns: u64) -> Vec<bool> {
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|c| PollFd {
            fd: if c.alive { c.stream.as_raw_fd() } else { -1 },
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let ts = Timespec {
        tv_sec: (timeout_ns / 1_000_000_000) as i64,
        tv_nsec: (timeout_ns % 1_000_000_000) as i64,
    };
    // SAFETY: `fds` is a live, correctly laid-out `struct pollfd` array of
    // `fds.len()` entries and `ts` a valid `struct timespec`, both outliving
    // the call; a null signal mask leaves the mask unchanged. Negative fds
    // are ignored by the kernel.
    let n = unsafe { ppoll(fds.as_mut_ptr(), fds.len() as u64, &ts, std::ptr::null()) };
    if n <= 0 {
        return vec![false; conns.len()];
    }
    fds.iter().map(|f| f.revents != 0).collect()
}

/// The open-loop result: request tally plus how late the sender ran.
struct OpenResult {
    tally: Tally,
    lateness: Vec<u64>,
}

/// Sends `seconds · rate` requests at `rate` per second round-robin over
/// `conns` from one thread, timing each from its due time.
fn open_loop<'a>(
    conns: &mut [Conn],
    rate: f64,
    seconds: f64,
    mut next_request: impl FnMut() -> (&'a str, &'a str),
) -> OpenResult {
    tighten_timer_slack();
    let period = 1e9 / rate;
    let total = (seconds * rate).round() as u64;
    let drain = RESPONSE_TIMEOUT.as_nanos() as u64;
    let mut pending: Vec<VecDeque<(u64, &'a str)>> =
        conns.iter().map(|_| VecDeque::new()).collect();
    let mut tally = Tally::new();
    let mut lateness = Vec::with_capacity(total as usize);
    let due = |k: u64| (k as f64 * period) as u64;
    let origin = Instant::now();
    let now = || origin.elapsed().as_nanos() as u64;
    let mut next = 0u64;
    loop {
        let mut t = now();
        while next < total && due(next) <= t {
            let c = (next as usize) % conns.len();
            let (line, expect) = next_request();
            if conns[c].alive && conns[c].send(line).is_ok() {
                pending[c].push_back((due(next), expect));
            } else {
                conns[c].alive = false;
                tally.lose(due(next), 1);
            }
            lateness.push(t - due(next));
            next += 1;
            t = now();
        }
        let outstanding: usize = pending.iter().map(VecDeque::len).sum();
        if next == total && outstanding == 0 {
            break;
        }
        let deadline = due(total) + drain;
        if t >= deadline {
            break;
        }
        let wait = if next < total { due(next) } else { deadline } - t;
        let ready = wait_readable(conns, wait);
        for (c, conn) in conns.iter_mut().enumerate() {
            if !ready[c] {
                continue;
            }
            match conn.fill() {
                Ok(n) if n > 0 => {
                    let t = now();
                    while let Some(line) = conn.next_line() {
                        match pending[c].pop_front() {
                            Some((d, expected)) => tally.record(d, &line, expected, t - d),
                            None => tally.wrong += 1,
                        }
                    }
                }
                _ => {
                    conn.alive = false;
                    for (d, _) in pending[c].drain(..) {
                        tally.lose(d, 1);
                    }
                }
            }
        }
    }
    // Whatever is still outstanding timed out; unsent requests are lost.
    for queue in &pending {
        for &(d, _) in queue {
            tally.lose(d, 1);
        }
    }
    for k in next..total {
        tally.lose(due(k), 1);
    }
    OpenResult { tally, lateness }
}

/// One closed-loop client: sends a request, waits for its answer, and
/// sends the next, until `seconds` pass. Latencies are filed by send time.
fn closed_loop<'a>(
    conn: &mut Conn,
    seconds: f64,
    mut next_request: impl FnMut() -> (&'a str, &'a str),
) -> Tally {
    let origin = Instant::now();
    let now = || origin.elapsed().as_nanos() as u64;
    let limit = (seconds * 1e9) as u64;
    let mut tally = Tally::new();
    while conn.alive {
        let start = now();
        if start >= limit {
            break;
        }
        let (line, expected) = next_request();
        match conn.send(line).and_then(|()| conn.read_line()) {
            Ok(response) => tally.record(start, &response, expected, now() - start),
            Err(_) => {
                conn.alive = false;
                tally.lose(start, 1);
            }
        }
    }
    tally
}

/// Runs one closed-loop client per connection concurrently.
fn closed_loops<'a, F>(conns: &mut [Conn], seconds: f64, make: F) -> Tally
where
    F: Fn(usize) -> Box<dyn FnMut() -> (&'a str, &'a str) + Send + 'a> + Sync,
{
    std::thread::scope(|s| {
        let workers: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| {
                let next_request = make(i);
                s.spawn(move || closed_loop(conn, seconds, next_request))
            })
            .collect();
        let mut total = Tally::new();
        for w in workers {
            total.combine(w.join().expect("closed-loop client panicked"));
        }
        total
    })
}

/// Expected response bytes for every line, from an in-process service.
fn expected(publication: &Path, lines: &[String], tamper: bool) -> Result<Vec<String>, String> {
    let publication = Publication::load_from_path(publication)
        .map_err(|e| format!("{}: {e}", publication.display()))?;
    let service = QueryService::from_publication(&publication, ServiceConfig::default());
    let mut session = SessionStats::default();
    let mut out: Vec<String> = lines
        .iter()
        .map(|line| {
            service
                .handle_line(line, &mut session)
                .map(|r| r.encode())
                .unwrap_or_default()
        })
        .collect();
    if tamper {
        // A deliberately wrong expectation: the run must report it.
        out[0].push('0');
    }
    Ok(out)
}

fn lateness_json(json: &mut Json, lateness: &mut [u64]) {
    lateness.sort_unstable();
    json.num("late_p50_ns", percentile(lateness, 50.0) as f64)
        .num("late_p99_ns", percentile(lateness, 99.0) as f64)
        .num("late_max_ns", lateness.last().copied().unwrap_or(0) as f64);
}

/// `load`: runs one workload's traffic and prints its tallies.
pub fn run(args: &Args) -> Result<Json, String> {
    let mode = args.str("mode")?;
    let addr = args.str("addr")?;
    let dir = Path::new(args.str("dir")?);
    let seed: u64 = args.num("seed")?;
    let seconds: f64 = args.num("seconds")?;
    let tamper = args.num_or::<u8>("tamper", 0)? == 1;
    let window_s = WINDOW_NS as f64 / 1e9;
    let mut json = Json::default();
    json.str("mode", mode).num("window_s", window_s);
    let mut failures = Tally::new();
    let attempted;
    match mode {
        "hot" => {
            // Rounds of (open phase, closed phase), so both sample the
            // whole run's share of host noise.
            let rate: f64 = args.num("rate")?;
            let rounds = ((seconds / (2.0 * HOT_PHASE_S)).round() as usize).max(1);
            let lines = read_lines(&dir.join("hot.txt"))?;
            let expect = expected(Path::new(args.str("publication")?), &lines, tamper)?;
            let zipf = Zipf::new(lines.len());
            let mut conns = vec![Conn::connect(addr)?, Conn::connect(addr)?];
            let mut rng = StdRng::seed_from_u64(sub_seed(seed, 10));
            let mut open = Tally::new();
            let mut closed = Tally::new();
            let mut lateness = Vec::new();
            for round in 0..rounds {
                let r = open_loop(&mut conns, rate, HOT_PHASE_S, || {
                    let r = zipf.sample(&mut rng);
                    (lines[r].as_str(), expect[r].as_str())
                });
                open.append(r.tally);
                lateness.extend(r.lateness);
                let (lines, expect, zipf) = (&lines, &expect, &zipf);
                let closed_phase = closed_loops(&mut conns, HOT_PHASE_S, |i| {
                    let mut rng =
                        StdRng::seed_from_u64(sub_seed(seed, 100 + (2 * round + i) as u64));
                    Box::new(move || {
                        let r = zipf.sample(&mut rng);
                        (lines[r].as_str(), expect[r].as_str())
                    })
                });
                closed.append(closed_phase);
            }
            let mut open_json = open.summary(window_s);
            open_json
                .num("rate", rate)
                .int("rounds", rounds as u64)
                .num("phase_s", HOT_PHASE_S);
            lateness_json(&mut open_json, &mut lateness);
            json.obj("open", &open_json)
                .obj("closed", &closed.summary(window_s));
            attempted = open.attempted() + closed.attempted();
            failures.add_failures(&open);
            failures.add_failures(&closed);
            for conn in &mut conns {
                let _ = conn.send("quit");
            }
        }
        "batch" => {
            let lines = read_lines(&dir.join("batch.txt"))?;
            let expect = expected(Path::new(args.str("publication")?), &lines, tamper)?;
            let mut conns = vec![Conn::connect(addr)?, Conn::connect(addr)?];
            let (lines, expect) = (&lines, &expect);
            let mut closed = closed_loops(&mut conns, seconds, |i| {
                let mut k = i * lines.len() / 2;
                Box::new(move || {
                    k = (k + 1) % lines.len();
                    (lines[k].as_str(), expect[k].as_str())
                })
            });
            json.obj("closed", &closed.summary(window_s));
            attempted = closed.attempted();
            failures.add_failures(&closed);
            for conn in &mut conns {
                let _ = conn.send("quit");
            }
        }
        other => return Err(format!("unknown mode `{other}`")),
    }
    json.int("attempted", attempted)
        .int("failed", failures.failed())
        .int("wrong", failures.wrong)
        .int("errors", failures.errors)
        .int("lost", failures.lost);
    Ok(json)
}
