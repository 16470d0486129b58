//! A load generator for a running `psl-service`.
//!
//! Replays synthetic webcorpus hostnames against a live server as `BATCH`
//! frames over many concurrent connections. A few driver threads each
//! multiplex their share of nonblocking connections through one epoll set,
//! keeping up to `window` answers in flight per connection; a window equal
//! to the batch runs lock-step (send a frame, read its answers, repeat).
//! Every answer is framed and matched to the host it answers, and when
//! expected answers are given (computed directly from `psl-core`) it is
//! compared with them, turning the load test into an end-to-end
//! correctness sweep. The report gives throughput, per-frame and per-host
//! latency percentiles, connection setup time kept apart from the load,
//! and the server's own `STATS` after the run.

use crate::metrics::StatsReport;
use crate::protocol::Limits;
use crate::reactor::conn::{Framed, LineFramer, OutBuf};
use crate::reactor::epoll::{self, Epoll, EpollEvent};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::ops::Range;
use std::os::unix::io::AsRawFd;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// A driver whose connections make no progress for this long stops; their
/// unfinished requests count as disconnects, not a hang.
const STALL_TIMEOUT: Duration = Duration::from_secs(60);

/// Load-generation parameters.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address.
    pub addr: String,
    /// Concurrent connections, all held open for the whole run.
    pub connections: usize,
    /// Total lookups to issue (split across connections).
    pub requests: u64,
    /// Hosts per `BATCH` frame.
    pub batch: usize,
    /// Most answers outstanding per connection: the pipelining depth. A
    /// window below the batch is raised to it, which runs lock-step.
    pub window: usize,
    /// Driver threads (each multiplexes its share of the connections).
    pub drivers: usize,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:7378".to_string(),
            connections: 4,
            requests: 100_000,
            batch: 512,
            window: 256,
            drivers: 2,
        }
    }
}

/// Latency percentiles in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyPercentiles {
    /// Mean.
    pub mean_us: f64,
    /// Median.
    pub p50_us: f64,
    /// 90th percentile.
    pub p90_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// Maximum.
    pub max_us: f64,
}

/// The JSON summary the load generator emits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoadgenReport {
    /// Connections requested.
    pub connections: usize,
    /// Connections established.
    pub established: usize,
    /// Lookups the run intended to issue.
    pub requests: u64,
    /// Answers received.
    pub completed: u64,
    /// `ERR` and oversized answers among them.
    pub errors: u64,
    /// `OK` answers that disagreed with the expected answer (when given).
    pub mismatches: u64,
    /// Connections the server closed (or that failed) before finishing
    /// their quota.
    pub disconnects: u64,
    /// Wall-clock time to dial every connection.
    pub connect_seconds: f64,
    /// Wall-clock time from the last dial to the last answer.
    pub elapsed_seconds: f64,
    /// `completed / elapsed_seconds`.
    pub throughput_rps: f64,
    /// Per-host latency: each frame's round trip over its host count.
    pub latency_us: LatencyPercentiles,
    /// Frame round trip: from queueing a `BATCH` to its last answer.
    pub batch_rtt_us: LatencyPercentiles,
    /// Server-side lookup-cache hit ratio after the run.
    pub cache_hit_ratio: f64,
    /// The server's full `STATS` report after the run.
    pub server: Option<StatsReport>,
}

fn percentiles(samples: &mut [f64]) -> LatencyPercentiles {
    if samples.is_empty() {
        return LatencyPercentiles {
            mean_us: 0.0,
            p50_us: 0.0,
            p90_us: 0.0,
            p99_us: 0.0,
            max_us: 0.0,
        };
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    LatencyPercentiles {
        mean_us: mean,
        p50_us: psl_stats::percentile_sorted(samples, 0.50),
        p90_us: psl_stats::percentile_sorted(samples, 0.90),
        p99_us: psl_stats::percentile_sorted(samples, 0.99),
        max_us: *samples.last().expect("non-empty"),
    }
}

/// Issue one command and return the response line (without `OK `/newline).
pub fn query_once(addr: &str, command: &str) -> Result<String, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_read_timeout(Some(Duration::from_secs(30))).map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
    let mut writer = BufWriter::new(stream);
    writer.write_all(command.as_bytes()).map_err(|e| format!("send: {e}"))?;
    writer.write_all(b"\n").map_err(|e| format!("send: {e}"))?;
    writer.flush().map_err(|e| format!("send: {e}"))?;
    let mut line = String::new();
    reader.read_line(&mut line).map_err(|e| format!("recv: {e}"))?;
    let line = line.trim_end();
    line.strip_prefix("OK ").map(str::to_string).ok_or_else(|| format!("server answered: {line}"))
}

/// Fetch and parse the server's `STATS` report.
pub fn fetch_stats(addr: &str) -> Result<StatsReport, String> {
    let json = query_once(addr, "STATS")?;
    serde_json::from_str(&json).map_err(|e| format!("parsing STATS: {e}"))
}

/// What every connection of a run sends and expects.
struct Plan<'a> {
    hosts: &'a [String],
    /// `expected[i]` is the site answer required for `hosts[i]`.
    expected: Option<&'a [String]>,
    batch: usize,
    window: usize,
}

/// What one driver counts over its connections.
#[derive(Default)]
struct Tally {
    established: usize,
    completed: u64,
    errors: u64,
    mismatches: u64,
    disconnects: u64,
    /// Each answered frame's round trip and host count.
    rtts: Vec<(Duration, usize)>,
}

/// One multiplexed connection.
struct Conn {
    stream: TcpStream,
    out: OutBuf,
    answers: LineFramer,
    /// Hosts not yet queued into a frame.
    to_send: u64,
    /// Corpus index of the next host to queue.
    send_at: usize,
    /// Corpus index of the host the next answer is for.
    answer_at: usize,
    /// Frames in flight, oldest first: when each was queued, its host
    /// count and its answers still due.
    in_flight: VecDeque<(Instant, usize, usize)>,
}

impl Conn {
    /// A connection that sends `quota` hosts starting at corpus index
    /// `offset`.
    fn new(stream: TcpStream, offset: usize, quota: u64) -> Conn {
        Conn {
            stream,
            out: OutBuf::default(),
            answers: LineFramer::new(Limits::default().max_line_bytes),
            to_send: quota,
            send_at: offset,
            answer_at: offset,
            in_flight: VecDeque::new(),
        }
    }

    fn outstanding(&self) -> usize {
        self.in_flight.iter().map(|&(_, _, due)| due).sum()
    }

    /// Queue `BATCH` frames, stamped `now`, until the window is full.
    fn top_up(&mut self, plan: &Plan, now: Instant) {
        while self.to_send > 0 && self.outstanding() + plan.batch <= plan.window {
            let n = plan.batch.min(self.to_send as usize);
            self.out.push(format!("BATCH {n}\n").as_bytes());
            for _ in 0..n {
                self.out.push(plan.hosts[self.send_at].as_bytes());
                self.out.push(b"\n");
                self.send_at = (self.send_at + 1) % plan.hosts.len();
            }
            self.to_send -= n as u64;
            self.in_flight.push_back((now, n, n));
        }
    }

    /// Frame answer lines read at `now` and check each against its host.
    /// A frame's round trip is recorded when its last answer arrives.
    fn absorb(&mut self, bytes: &[u8], now: Instant, plan: &Plan, tally: &mut Tally) {
        self.answers.extend(bytes);
        while let Some(framed) = self.answers.next_frame() {
            let Some((sent, hosts, due)) = self.in_flight.front_mut() else {
                // An answer to nothing asked.
                tally.errors += 1;
                continue;
            };
            tally.completed += 1;
            let answer = match framed {
                Framed::Line => self.answers.line().strip_prefix(b"OK "),
                Framed::Oversized => None,
            };
            match (answer, plan.expected) {
                (None, _) => tally.errors += 1,
                (Some(answer), Some(expected)) if answer != expected[self.answer_at].as_bytes() => {
                    tally.mismatches += 1
                }
                _ => {}
            }
            self.answer_at = (self.answer_at + 1) % plan.hosts.len();
            *due -= 1;
            if *due == 0 {
                tally.rtts.push((now - *sent, *hosts));
                self.in_flight.pop_front();
            }
        }
    }

    fn done(&self) -> bool {
        self.to_send == 0 && self.in_flight.is_empty()
    }

    /// One readiness step: drain reads, top the window back up, flush
    /// writes. `Err` means the connection is dead; `Ok(true)` means bytes
    /// moved.
    fn step(&mut self, plan: &Plan, tally: &mut Tally, read_buf: &mut [u8]) -> Result<bool, ()> {
        let mut progressed = false;
        loop {
            match self.stream.read(read_buf) {
                Ok(0) => return Err(()),
                Ok(n) => {
                    progressed = true;
                    self.absorb(&read_buf[..n], Instant::now(), plan, tally);
                    if n < read_buf.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Err(()),
            }
        }
        self.top_up(plan, Instant::now());
        while self.out.pending() > 0 {
            match self.stream.write(self.out.unwritten()) {
                Ok(0) => return Err(()),
                Ok(n) => {
                    progressed = true;
                    self.out.consume(n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Err(()),
            }
        }
        Ok(progressed)
    }
}

/// Run the load. `hosts` is the replay corpus; `expected[i]` (when given)
/// is the site answer required for `hosts[i]`, and every answer is checked
/// against it. The clock starts once every driver has dialled its
/// connections.
pub fn run(
    config: &LoadgenConfig,
    hosts: &[String],
    expected: Option<&[String]>,
) -> Result<LoadgenReport, String> {
    if hosts.is_empty() {
        return Err("loadgen needs a non-empty host corpus".into());
    }
    if expected.is_some_and(|e| e.len() != hosts.len()) {
        return Err("expected answers must align with hosts".into());
    }
    let connections = config.connections.max(1);
    let drivers = config.drivers.clamp(1, connections);
    let batch = config.batch.clamp(1, Limits::default().max_batch);
    let plan = Plan { hosts, expected, batch, window: config.window.max(batch) };
    // One fd per connection plus epoll fds and slack.
    let _ = epoll::raise_nofile_limit(connections as u64 + 512);

    // The drivers and this thread meet once every connection is dialled.
    let barrier = Barrier::new(drivers + 1);
    let started = Instant::now();
    let (load_started, finished, outcomes) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..drivers)
            .map(|d| {
                let share = d * connections / drivers..(d + 1) * connections / drivers;
                let (plan, barrier) = (&plan, &barrier);
                scope.spawn(move || drive(config, plan, connections, share, barrier))
            })
            .collect();
        barrier.wait();
        let load_started = Instant::now();
        let outcomes: Vec<_> = handles.into_iter().map(|h| h.join()).collect();
        (load_started, Instant::now(), outcomes)
    });

    let mut total = Tally::default();
    for outcome in outcomes {
        let tally = outcome.map_err(|_| "a loadgen driver panicked".to_string())??;
        total.established += tally.established;
        total.completed += tally.completed;
        total.errors += tally.errors;
        total.mismatches += tally.mismatches;
        total.disconnects += tally.disconnects;
        total.rtts.extend(tally.rtts);
    }
    let elapsed = (finished - load_started).as_secs_f64().max(1e-9);
    let mut rtts: Vec<f64> = total.rtts.iter().map(|(rtt, _)| rtt.as_secs_f64() * 1e6).collect();
    let mut per_host: Vec<f64> =
        total.rtts.iter().map(|&(rtt, n)| rtt.as_secs_f64() * 1e6 / n as f64).collect();
    let server = fetch_stats(&config.addr).ok();
    Ok(LoadgenReport {
        connections,
        established: total.established,
        requests: config.requests,
        completed: total.completed,
        errors: total.errors,
        mismatches: total.mismatches,
        disconnects: total.disconnects,
        connect_seconds: (load_started - started).as_secs_f64(),
        elapsed_seconds: elapsed,
        throughput_rps: total.completed as f64 / elapsed,
        latency_us: percentiles(&mut per_host),
        batch_rtt_us: percentiles(&mut rtts),
        cache_hit_ratio: server.as_ref().map_or(0.0, |s| s.cache.hit_ratio),
        server,
    })
}

/// Connect with bounded retries — at thousands of simultaneous dials the
/// listener backlog overflows transiently and the kernel drops SYNs.
fn connect_retrying(addr: &str) -> Result<TcpStream, String> {
    let mut last = String::new();
    for attempt in 0..20 {
        match TcpStream::connect(addr) {
            Ok(s) => return Ok(s),
            Err(e) => {
                last = e.to_string();
                std::thread::sleep(Duration::from_millis(10 << attempt.min(5)));
            }
        }
    }
    Err(format!("connect {addr}: {last}"))
}

/// Dial connections `share` (global indices out of `connections`) into one
/// epoll set; each starts at a corpus offset of its own.
fn dial(
    config: &LoadgenConfig,
    plan: &Plan,
    connections: usize,
    share: Range<usize>,
) -> Result<(Epoll, Vec<Option<Conn>>), String> {
    let epoll = Epoll::new().map_err(|e| format!("epoll_create1: {e}"))?;
    let per_conn = config.requests / connections as u64;
    let remainder = config.requests % connections as u64;
    let mut conns = Vec::with_capacity(share.len());
    for c in share {
        let stream = connect_retrying(&config.addr)?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_nonblocking(true).map_err(|e| e.to_string())?;
        let offset = c * plan.hosts.len() / connections;
        let conn = Conn::new(stream, offset, per_conn + u64::from((c as u64) < remainder));
        epoll
            .add(conn.stream.as_raw_fd(), epoll::EPOLLIN | epoll::EPOLLOUT, conns.len() as u64)
            .map_err(|e| format!("epoll add: {e}"))?;
        conns.push(Some(conn));
    }
    Ok((epoll, conns))
}

/// One driver: dial its share, wait at `barrier` for the others, then run
/// its connections to completion.
fn drive(
    config: &LoadgenConfig,
    plan: &Plan,
    connections: usize,
    share: Range<usize>,
    barrier: &Barrier,
) -> Result<Tally, String> {
    let dialed = dial(config, plan, connections, share);
    barrier.wait();
    let (epoll, mut conns) = dialed?;
    let mut tally = Tally { established: conns.len(), ..Tally::default() };
    let mut open = conns.len();
    let mut events = vec![EpollEvent::zeroed(); 1024];
    let mut read_buf = vec![0u8; 64 * 1024];
    let mut last_progress = Instant::now();

    while open > 0 {
        if last_progress.elapsed() >= STALL_TIMEOUT {
            tally.disconnects += open as u64;
            break;
        }
        let n = epoll.wait(&mut events, 1000).map_err(|e| format!("epoll_wait: {e}"))?;
        for event in &events[..n] {
            let idx = event.token() as usize;
            let Some(conn) = conns[idx].as_mut() else { continue };
            let stepped = conn.step(plan, &mut tally, &mut read_buf);
            if stepped != Ok(false) {
                last_progress = Instant::now();
            }
            if stepped.is_err() || conn.done() {
                tally.disconnects += u64::from(stepped.is_err());
                let _ = epoll.delete(conn.stream.as_raw_fd());
                conns[idx] = None;
                open -= 1;
            } else {
                // Keep EPOLLOUT interest only while there is something to
                // write, so idle waits don't spin.
                let out = if conn.out.pending() > 0 { epoll::EPOLLOUT } else { 0 };
                let _ = epoll.modify(conn.stream.as_raw_fd(), epoll::EPOLLIN | out, idx as u64);
            }
        }
    }
    Ok(tally)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_known_samples() {
        let mut xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let p = percentiles(&mut xs);
        assert_eq!(p.max_us, 100.0);
        assert!((p.mean_us - 50.5).abs() < 1e-9);
        assert!(p.p50_us >= 50.0 && p.p50_us <= 51.0, "p50 {}", p.p50_us);
        assert!(p.p99_us >= 99.0, "p99 {}", p.p99_us);
    }

    #[test]
    fn empty_samples_are_all_zero() {
        let p = percentiles(&mut []);
        assert_eq!(p.p99_us, 0.0);
        assert_eq!(p.max_us, 0.0);
    }

    #[test]
    fn config_validation() {
        let config = LoadgenConfig::default();
        assert!(run(&config, &[], None).is_err(), "empty corpus");
        let hosts = vec!["a.com".to_string()];
        let short = vec![];
        assert!(run(&config, &hosts, Some(&short)).is_err(), "misaligned expectations");
    }

    /// A connection over a throwaway loopback pair; the tests below only
    /// need a `TcpStream` to exist, not to be read.
    fn conn(offset: usize, quota: u64) -> Conn {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let _accepted = listener.accept().unwrap();
        Conn::new(stream, offset, quota)
    }

    fn corpus() -> (Vec<String>, Vec<String>) {
        let hosts = (0..8).map(|i| format!("www.h{i}.example.com")).collect();
        let sites = (0..8).map(|i| format!("h{i}.example.com")).collect();
        (hosts, sites)
    }

    #[test]
    fn pipelined_window_bounds_outstanding_frames() {
        let (hosts, _) = corpus();
        let plan = Plan { hosts: &hosts, expected: None, batch: 10, window: 35 };
        let mut c = conn(0, 1000);
        let mut tally = Tally::default();
        let now = Instant::now();
        c.top_up(&plan, now);
        // Window 35 fits three 10-host frames; a fourth would overflow.
        assert_eq!(c.outstanding(), 30);
        assert_eq!(c.to_send, 970);
        let queued = String::from_utf8(c.out.unwritten().to_vec()).unwrap();
        assert_eq!(queued.matches("BATCH 10\n").count(), 3);
        assert!(queued.starts_with("BATCH 10\nwww.h0.example.com\nwww.h1.example.com\n"));

        // Answering frees window for more frames.
        c.absorb(b"OK a.com\nERR host nope\nOK b.com\n", now, &plan, &mut tally);
        assert_eq!((tally.completed, tally.errors, tally.mismatches), (3, 1, 0));
        assert_eq!(c.outstanding(), 27);
        let plan = Plan { window: 40, ..plan };
        c.top_up(&plan, now);
        assert_eq!(c.outstanding(), 37);
        assert!(!c.done());
    }

    /// The n-th answer on a connection is checked against the host n past
    /// its offset, wrapping round the corpus; `ERR` and oversized lines
    /// count as errors, not mismatches.
    #[test]
    fn answers_are_checked_against_their_hosts() {
        let (hosts, sites) = corpus();
        let plan = Plan { hosts: &hosts, expected: Some(&sites), batch: 4, window: 8 };
        let mut c = conn(6, 8);
        let mut tally = Tally::default();
        let now = Instant::now();
        c.top_up(&plan, now);
        assert_eq!(c.in_flight.len(), 2);
        let mut answers: Vec<String> =
            [6, 7, 0, 1, 2].iter().map(|&i| format!("OK {}\n", sites[i])).collect();
        answers.push(format!("OK {}\n", sites[2]));
        answers.push("ERR host bad\n".into());
        answers.push(format!("OK {}\n", "x".repeat(Limits::default().max_line_bytes)));
        c.absorb(answers.concat().as_bytes(), now, &plan, &mut tally);
        assert_eq!((tally.completed, tally.errors, tally.mismatches), (8, 2, 1));
        assert_eq!(c.answer_at, 6);
        assert!(c.done());
        assert_eq!(tally.rtts.len(), 2);

        c.absorb(b"OK stray\n", now, &plan, &mut tally);
        assert_eq!((tally.completed, tally.errors), (8, 3), "an answer to nothing is an error");
    }

    /// A frame's round trip runs from its queueing to its last answer,
    /// also when its answers arrive in two reads.
    #[test]
    fn a_frame_round_trip_ends_at_its_last_answer() {
        let (hosts, sites) = corpus();
        let plan = Plan { hosts: &hosts, expected: Some(&sites), batch: 3, window: 3 };
        let mut c = conn(0, 3);
        let mut tally = Tally::default();
        let sent = Instant::now();
        c.top_up(&plan, sent);
        let read = |ms| sent + Duration::from_millis(ms);
        let first = format!("OK {}\nOK {}\nOK h2.exa", sites[0], sites[1]);
        c.absorb(first.as_bytes(), read(2), &plan, &mut tally);
        assert!(tally.rtts.is_empty(), "the frame is still in flight");
        c.absorb(b"mple.com\n", read(7), &plan, &mut tally);
        assert_eq!(tally.rtts, [(Duration::from_millis(7), 3)]);
        assert_eq!((tally.completed, tally.errors, tally.mismatches), (3, 0, 0));
        assert!(c.done());
    }

    #[test]
    fn report_roundtrips_through_json() {
        let latency =
            LatencyPercentiles { mean_us: 1.0, p50_us: 1.0, p90_us: 2.0, p99_us: 3.0, max_us: 4.0 };
        let report = LoadgenReport {
            connections: 2,
            established: 2,
            requests: 10,
            completed: 10,
            errors: 0,
            mismatches: 0,
            disconnects: 0,
            connect_seconds: 0.01,
            elapsed_seconds: 0.5,
            throughput_rps: 20.0,
            latency_us: latency,
            batch_rtt_us: LatencyPercentiles { mean_us: 10.0, ..latency },
            cache_hit_ratio: 0.75,
            server: None,
        };
        let json = serde_json::to_string_pretty(&report).unwrap();
        let back: LoadgenReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
