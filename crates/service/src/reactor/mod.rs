//! The nonblocking event-driven reactor core.
//!
//! N worker threads each run an independent epoll loop (`worker_loop`).
//! Both listeners (line protocol + optional HTTP admin plane) are
//! registered in *every* worker's epoll set with `EPOLLEXCLUSIVE`, so the
//! kernel hands each ready accept to exactly one sleeping worker — accept
//! distribution without a dispatcher thread or cross-worker handoff. A
//! connection then lives its whole life on the worker that accepted it:
//! its socket, framing buffer, and output queue are plain fields in that
//! worker's slab, and its lookups share the worker's snapshot reader and
//! LRU cache.
//!
//! Per-connection state machine:
//!
//! ```text
//!             read()            framer            engine
//!   EPOLLIN ───────► [read buffer] ──► lines ──► responses ──► [OutBuf]
//!      ▲                                                          │ write()
//!      │ re-armed when OutBuf drains below the low watermark      ▼
//!      └────────── suspended while OutBuf ≥ high watermark ◄── EPOLLOUT
//! ```
//!
//! Pipelining falls out of the structure: every complete line buffered on
//! a connection is answered in arrival order into its output queue, so a
//! client may write hundreds of `BATCH` frames before reading anything.
//! Backpressure is the inverse: once a connection's unsent output crosses
//! the high watermark the worker stops *processing* (and, with hysteresis,
//! stops *reading*) that connection until the client drains it — and a
//! client that never drains is disconnected after
//! [`ReactorOptions::write_stall_timeout`] of zero write progress, so a
//! slow consumer costs one slab slot, never a worker. Admission control
//! caps live connections: past [`ReactorOptions::max_conns`] an accepted
//! socket gets one `ERR busy` line (or HTTP 503) and is closed.

pub mod conn;
pub mod epoll;

use crate::engine::{ConnState, Control, Engine, WorkerState};
use crate::http;
use conn::{Framed, LineFramer, OutBuf};
use epoll::{Epoll, EpollEvent, EventFd};
use std::io::{ErrorKind, Read, Write};
use std::net::TcpListener;
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Reactor tuning knobs, separate from [`crate::ServerConfig`] so existing
/// callers of `Server::bind` keep compiling (and keep the defaults).
#[derive(Debug, Clone)]
pub struct ReactorOptions {
    /// Bind address for the HTTP admin plane (`None` disables it).
    pub http_addr: Option<String>,
    /// Live-connection cap; connections beyond it are shed with one
    /// `ERR busy` / HTTP 503 answer.
    pub max_conns: usize,
    /// Stop processing a connection's requests while its unsent output is
    /// at or above this many bytes.
    pub high_watermark: usize,
    /// Resume socket reads once unsent output falls to this many bytes
    /// (hysteresis, so EPOLLIN interest doesn't flap).
    pub low_watermark: usize,
    /// Disconnect a connection whose pending output makes no write
    /// progress for this long (the slow-client guillotine).
    pub write_stall_timeout: Duration,
    /// Reactor worker (event loop) count; `None` uses the engine's
    /// configured worker count.
    pub workers: Option<usize>,
}

impl Default for ReactorOptions {
    fn default() -> Self {
        ReactorOptions {
            http_addr: None,
            max_conns: 16_384,
            // The high watermark must exceed the largest single-command
            // response burst (a full BATCH 65536 answer is ~1.3 MiB across
            // many lines, but it is generated host-line by host-line, so
            // per-line bursts are tiny; 1 MiB of headroom means suspension
            // only ever reflects a genuinely unread backlog).
            high_watermark: 1 << 20,
            low_watermark: 64 << 10,
            write_stall_timeout: Duration::from_secs(5),
            workers: None,
        }
    }
}

/// Shared stop machinery: the flag, one eventfd doorbell per reactor
/// worker (epoll loops), and a condvar (non-epoll sleepers such as the
/// file watcher). [`StopState::trigger`] makes shutdown latency a syscall,
/// not a poll interval.
#[derive(Debug)]
pub struct StopState {
    flag: AtomicBool,
    wakers: Mutex<Vec<Arc<EventFd>>>,
    sleep_lock: Mutex<()>,
    sleep_cv: Condvar,
}

impl StopState {
    /// A fresh, un-triggered stop state.
    pub fn new() -> Arc<StopState> {
        Arc::new(StopState {
            flag: AtomicBool::new(false),
            wakers: Mutex::new(Vec::new()),
            sleep_lock: Mutex::new(()),
            sleep_cv: Condvar::new(),
        })
    }

    /// Has a stop been requested?
    pub fn stopped(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Request a stop and wake every sleeper immediately.
    pub fn trigger(&self) {
        self.flag.store(true, Ordering::SeqCst);
        for waker in self.wakers.lock().expect("stop wakers poisoned").iter() {
            waker.ring();
        }
        let _guard = self.sleep_lock.lock().expect("stop sleep lock poisoned");
        self.sleep_cv.notify_all();
    }

    fn register_waker(&self, waker: Arc<EventFd>) {
        // A trigger may race registration; re-ring afterwards so the new
        // worker cannot sleep through it.
        self.wakers.lock().expect("stop wakers poisoned").push(Arc::clone(&waker));
        if self.stopped() {
            waker.ring();
        }
    }

    /// Sleep for `dur` or until a stop is triggered, whichever is first.
    /// Returns `true` when stopped.
    pub fn sleep(&self, dur: Duration) -> bool {
        let deadline = Instant::now() + dur;
        let mut guard = self.sleep_lock.lock().expect("stop sleep lock poisoned");
        loop {
            if self.stopped() {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (g, _timeout) = self
                .sleep_cv
                .wait_timeout(guard, deadline - now)
                .expect("stop sleep lock poisoned");
            guard = g;
        }
    }
}

// ---- worker internals ------------------------------------------------------

/// Reserved epoll tokens (connection tokens never collide: their slab
/// index occupies the low 32 bits and slots are far scarcer than 2^32).
const TOK_WAKE: u64 = u64::MAX;
const TOK_LINE_LISTENER: u64 = u64::MAX - 1;
const TOK_HTTP_LISTENER: u64 = u64::MAX - 2;

/// Base interest for a readable connection.
const READ_INTEREST: u32 = epoll::EPOLLIN | epoll::EPOLLRDHUP;

/// Accepts handled per listener wakeup before yielding back to connection
/// events (keeps an accept storm from starving established connections).
const ACCEPT_BURST: usize = 128;

/// epoll wait granularity; also bounds how late a write-stall sweep can
/// run. Shutdown does NOT wait on this — the eventfd wakes immediately.
const TICK_MS: i32 = 250;

/// Protocol spoken on a connection, with its protocol-specific buffers.
enum Proto {
    /// The PSL line protocol.
    Line { framer: LineFramer, state: ConnState },
    /// The HTTP/1.1 admin plane.
    Http { buf: Vec<u8> },
}

/// One connection owned by a reactor worker.
struct Conn {
    stream: std::net::TcpStream,
    proto: Proto,
    out: OutBuf,
    /// Interest bits currently registered with epoll.
    interest: u32,
    /// Reads de-registered because output crossed the high watermark.
    read_suspended: bool,
    /// Close once the output queue drains (QUIT, HTTP `Connection:
    /// close`, protocol violations, EOF).
    closing: bool,
    /// Peer sent EOF; no more reads, flush remaining responses.
    peer_eof: bool,
    /// Last instant a write made progress (or the queue was empty).
    last_drain: Instant,
    gen: u32,
}

struct Slot {
    gen: u32,
    conn: Option<Conn>,
}

/// What to do with a connection after an I/O step.
#[derive(PartialEq, Eq, Clone, Copy)]
enum Verdict {
    Keep,
    Close,
}

/// One reactor worker: owns an epoll instance, a slab of connections, and
/// a [`WorkerState`]. Returns when the shared stop state triggers.
pub(crate) fn worker_loop(
    id: usize,
    engine: &Arc<Engine>,
    line_listener: &TcpListener,
    http_listener: Option<&TcpListener>,
    options: &ReactorOptions,
    stop: &StopState,
) {
    let epoll = match Epoll::new() {
        Ok(e) => e,
        Err(e) => {
            eprintln!("psl-service: worker {id}: epoll_create1: {e}");
            stop.trigger();
            return;
        }
    };
    let wake = match EventFd::new() {
        Ok(w) => Arc::new(w),
        Err(e) => {
            eprintln!("psl-service: worker {id}: eventfd: {e}");
            stop.trigger();
            return;
        }
    };
    let setup = (|| -> std::io::Result<()> {
        epoll.add(wake.raw(), epoll::EPOLLIN, TOK_WAKE)?;
        epoll.add(
            line_listener.as_raw_fd(),
            epoll::EPOLLIN | epoll::EPOLLEXCLUSIVE,
            TOK_LINE_LISTENER,
        )?;
        if let Some(h) = http_listener {
            epoll.add(h.as_raw_fd(), epoll::EPOLLIN | epoll::EPOLLEXCLUSIVE, TOK_HTTP_LISTENER)?;
        }
        Ok(())
    })();
    if let Err(e) = setup {
        eprintln!("psl-service: worker {id}: epoll setup: {e}");
        stop.trigger();
        return;
    }
    stop.register_waker(Arc::clone(&wake));

    let mut ws = engine.worker_state(id);
    let mut slots: Vec<Slot> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut events = vec![EpollEvent::zeroed(); 512];
    let mut read_buf = vec![0u8; 16 * 1024];
    let mut scratch = String::with_capacity(256);

    while !stop.stopped() {
        let n = match epoll.wait(&mut events, TICK_MS) {
            Ok(n) => n,
            Err(e) => {
                eprintln!("psl-service: worker {id}: epoll_wait: {e}");
                break;
            }
        };
        for event in events.iter().take(n) {
            let (token, ready) = (event.token(), event.ready());
            match token {
                TOK_WAKE => wake.drain(),
                TOK_LINE_LISTENER => accept_burst(
                    engine,
                    &epoll,
                    line_listener,
                    false,
                    options,
                    &mut slots,
                    &mut free,
                ),
                TOK_HTTP_LISTENER => {
                    if let Some(h) = http_listener {
                        accept_burst(engine, &epoll, h, true, options, &mut slots, &mut free);
                    }
                }
                token => {
                    let idx = (token & u32::MAX as u64) as usize;
                    let gen = (token >> 32) as u32;
                    let stale = slots.get(idx).is_none_or(|s| s.gen != gen || s.conn.is_none());
                    if stale {
                        continue; // closed earlier in this same event batch
                    }
                    let conn = slots[idx].conn.as_mut().expect("checked above");
                    let verdict = service_conn(
                        engine,
                        &mut ws,
                        conn,
                        ready,
                        options,
                        stop,
                        &mut scratch,
                        &mut read_buf,
                    );
                    finish_conn_step(engine, &epoll, &mut slots, &mut free, idx, verdict, options);
                }
            }
        }
        sweep_write_stalls(engine, &epoll, &mut slots, &mut free, options);
    }

    // Teardown: close every connection this worker owns so gauges stay
    // truthful across restarts in tests.
    for idx in 0..slots.len() {
        if slots[idx].conn.is_some() {
            close_conn(engine, &epoll, &mut slots, &mut free, idx);
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn accept_burst(
    engine: &Arc<Engine>,
    epoll: &Epoll,
    listener: &TcpListener,
    is_http: bool,
    options: &ReactorOptions,
    slots: &mut Vec<Slot>,
    free: &mut Vec<usize>,
) {
    for _ in 0..ACCEPT_BURST {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if engine.metrics().active_connections() >= options.max_conns as u64 {
                    shed(engine, stream, is_http);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                    continue;
                }
                engine.note_connection();
                engine.metrics().connection_opened();
                let idx = match free.pop() {
                    Some(idx) => idx,
                    None => {
                        slots.push(Slot { gen: 0, conn: None });
                        slots.len() - 1
                    }
                };
                let gen = slots[idx].gen;
                let token = ((gen as u64) << 32) | idx as u64;
                if let Err(e) = epoll.add(stream.as_raw_fd(), READ_INTEREST, token) {
                    eprintln!("psl-service: epoll add conn: {e}");
                    engine.metrics().connection_closed();
                    free.push(idx);
                    continue;
                }
                let proto = if is_http {
                    Proto::Http { buf: Vec::new() }
                } else {
                    Proto::Line {
                        framer: LineFramer::new(engine.config().limits.max_line_bytes),
                        state: ConnState::default(),
                    }
                };
                slots[idx].conn = Some(Conn {
                    stream,
                    proto,
                    out: OutBuf::default(),
                    interest: READ_INTEREST,
                    read_suspended: false,
                    closing: false,
                    peer_eof: false,
                    last_drain: Instant::now(),
                    gen,
                });
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(e) => {
                eprintln!("psl-service: accept error: {e}");
                break;
            }
        }
    }
}

/// The admission-control refusal: one best-effort answer, then drop. The
/// socket is fresh, so its send buffer is empty and the small write
/// virtually always lands without blocking.
fn shed(engine: &Arc<Engine>, mut stream: std::net::TcpStream, is_http: bool) {
    engine.metrics().record_shed();
    if is_http {
        let mut out = Vec::with_capacity(160);
        http::write_response(
            &mut out,
            503,
            "Service Unavailable",
            b"{\"error\":\"server is at its connection capacity\"}",
            false,
        );
        let _ = stream.write_all(&out);
    } else {
        let line = format!("{}\n", crate::protocol::ProtoError::busy().to_line());
        let _ = stream.write_all(line.as_bytes());
    }
}

/// Handle one readiness report for a connection: drain writes first (may
/// lift a read suspension), then reads, then run the protocol engine over
/// whatever is buffered, alternating with flushes until quiescent.
#[allow(clippy::too_many_arguments)]
fn service_conn(
    engine: &Arc<Engine>,
    ws: &mut WorkerState,
    conn: &mut Conn,
    ready: u32,
    options: &ReactorOptions,
    stop: &StopState,
    scratch: &mut String,
    read_buf: &mut [u8],
) -> Verdict {
    if ready & epoll::EPOLLERR != 0 {
        return Verdict::Close;
    }
    if flush_conn(conn) == Verdict::Close {
        return Verdict::Close;
    }
    let readable = ready & (epoll::EPOLLIN | epoll::EPOLLRDHUP | epoll::EPOLLHUP) != 0;
    if readable
        && !conn.read_suspended
        && !conn.peer_eof
        && !conn.closing
        && read_into_conn(conn, read_buf) == Verdict::Close
    {
        return Verdict::Close;
    }
    // Process buffered requests and flush alternately: each advance is
    // bounded by the high watermark, each flush may re-open it.
    loop {
        let progressed = advance_conn(engine, ws, conn, options, stop, scratch);
        if flush_conn(conn) == Verdict::Close {
            return Verdict::Close;
        }
        if !progressed {
            break;
        }
    }
    if conn.closing && conn.out.pending() == 0 {
        return Verdict::Close;
    }
    Verdict::Keep
}

/// Pull bytes off the socket into the protocol buffer until `WouldBlock`
/// (or EOF, which flags `peer_eof`).
fn read_into_conn(conn: &mut Conn, read_buf: &mut [u8]) -> Verdict {
    loop {
        match conn.stream.read(read_buf) {
            Ok(0) => {
                conn.peer_eof = true;
                return Verdict::Keep;
            }
            Ok(n) => {
                match &mut conn.proto {
                    Proto::Line { framer, .. } => framer.extend(&read_buf[..n]),
                    Proto::Http { buf } => buf.extend_from_slice(&read_buf[..n]),
                }
                if n < read_buf.len() {
                    // Short read: the socket is drained; don't pay another
                    // syscall just to see WouldBlock.
                    return Verdict::Keep;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Verdict::Keep,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Verdict::Close,
        }
    }
}

/// Run the protocol engine over buffered input, stopping at the high
/// watermark. Returns whether any request was processed (callers loop
/// while progress interleaves with successful flushes).
fn advance_conn(
    engine: &Arc<Engine>,
    ws: &mut WorkerState,
    conn: &mut Conn,
    options: &ReactorOptions,
    stop: &StopState,
    scratch: &mut String,
) -> bool {
    let mut progressed = false;
    let out = &mut conn.out;
    let closing = &mut conn.closing;
    match &mut conn.proto {
        Proto::Line { framer, state } => {
            while !*closing && out.pending() < options.high_watermark {
                match framer.next_frame() {
                    None => break,
                    Some(Framed::Oversized) => {
                        progressed = true;
                        engine.metrics().record_error();
                        out.push(b"ERR limit line too long\n");
                    }
                    Some(Framed::Line) => {
                        progressed = true;
                        scratch.clear();
                        let control = {
                            let line = String::from_utf8_lossy(framer.line());
                            engine.handle_conn_line(ws, state, line.as_ref(), scratch)
                        };
                        out.push(scratch.as_bytes());
                        match control {
                            Control::Continue => {}
                            Control::Quit => *closing = true,
                            Control::Shutdown => {
                                *closing = true;
                                stop.trigger();
                            }
                        }
                    }
                }
            }
            // EOF semantics match the blocking server: a final
            // unterminated line is still answered, then the connection
            // closes.
            if conn.peer_eof && !*closing && out.pending() < options.high_watermark {
                if framer.take_eof_line() {
                    progressed = true;
                    scratch.clear();
                    let control = {
                        let line = String::from_utf8_lossy(framer.line());
                        engine.handle_conn_line(ws, state, line.as_ref(), scratch)
                    };
                    out.push(scratch.as_bytes());
                    if control == Control::Shutdown {
                        stop.trigger();
                    }
                }
                if framer.buffered() == 0 {
                    *closing = true;
                }
            }
        }
        Proto::Http { buf } => {
            while !*closing && out.pending() < options.high_watermark {
                match http::parse_request(buf) {
                    http::Parsed::NeedMore => break,
                    http::Parsed::Bad(reason) => {
                        progressed = true;
                        let body = serde_json::to_string(&serde_json::json!({ "error": reason }))
                            .unwrap_or_else(|_| "{\"error\":\"bad request\"}".to_string());
                        let mut resp = Vec::with_capacity(128 + body.len());
                        http::write_response(&mut resp, 400, "Bad Request", body.as_bytes(), false);
                        out.push(&resp);
                        *closing = true;
                    }
                    http::Parsed::Complete { request, consumed } => {
                        progressed = true;
                        buf.drain(..consumed);
                        let response = http::handle_request(engine, &request);
                        let mut resp = Vec::with_capacity(128 + response.body.len());
                        http::write_response(
                            &mut resp,
                            response.status,
                            response.reason,
                            response.body.as_bytes(),
                            request.keep_alive,
                        );
                        out.push(&resp);
                        if !request.keep_alive {
                            *closing = true;
                        }
                    }
                }
            }
            if conn.peer_eof && !*closing && buf.is_empty() {
                *closing = true;
            } else if conn.peer_eof && !*closing {
                // A dangling request prefix at EOF can never complete.
                *closing = true;
            }
        }
    }
    progressed
}

/// Write queued output until `WouldBlock` or empty.
fn flush_conn(conn: &mut Conn) -> Verdict {
    while conn.out.pending() > 0 {
        match conn.stream.write(conn.out.unwritten()) {
            Ok(0) => return Verdict::Close,
            Ok(n) => {
                conn.out.consume(n);
                conn.last_drain = Instant::now();
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return Verdict::Close,
        }
    }
    if conn.out.pending() == 0 {
        conn.last_drain = Instant::now();
    }
    Verdict::Keep
}

/// Apply a verdict and (for keepers) reconcile backpressure state with the
/// epoll interest set.
fn finish_conn_step(
    engine: &Arc<Engine>,
    epoll: &Epoll,
    slots: &mut [Slot],
    free: &mut Vec<usize>,
    idx: usize,
    verdict: Verdict,
    options: &ReactorOptions,
) {
    if verdict == Verdict::Close {
        close_conn(engine, epoll, slots, free, idx);
        return;
    }
    let conn = slots[idx].conn.as_mut().expect("conn still present");
    let pending = conn.out.pending();
    if conn.read_suspended {
        if pending <= options.low_watermark {
            conn.read_suspended = false;
        }
    } else if pending >= options.high_watermark {
        conn.read_suspended = true;
    }
    let mut want = 0u32;
    if !conn.read_suspended && !conn.peer_eof && !conn.closing {
        want |= READ_INTEREST;
    }
    if pending > 0 {
        want |= epoll::EPOLLOUT;
    }
    if want != conn.interest {
        let token = ((conn.gen as u64) << 32) | idx as u64;
        if epoll.modify(conn.stream.as_raw_fd(), want, token).is_err() {
            close_conn(engine, epoll, slots, free, idx);
            return;
        }
        conn.interest = want;
    }
}

/// Disconnect connections whose pending output made no progress for the
/// stall timeout — the enforcement half of backpressure: a client that
/// neither reads nor closes cannot pin buffer memory forever.
fn sweep_write_stalls(
    engine: &Arc<Engine>,
    epoll: &Epoll,
    slots: &mut [Slot],
    free: &mut Vec<usize>,
    options: &ReactorOptions,
) {
    let now = Instant::now();
    for idx in 0..slots.len() {
        let stalled = match &slots[idx].conn {
            Some(c) => {
                c.out.pending() > 0
                    && now.duration_since(c.last_drain) >= options.write_stall_timeout
            }
            None => false,
        };
        if stalled {
            engine.metrics().record_slow_client_disconnect();
            close_conn(engine, epoll, slots, free, idx);
        }
    }
}

fn close_conn(
    engine: &Arc<Engine>,
    epoll: &Epoll,
    slots: &mut [Slot],
    free: &mut Vec<usize>,
    idx: usize,
) {
    if let Some(conn) = slots[idx].conn.take() {
        // Best-effort: the kernel drops the registration with the fd
        // anyway; an error here (already-closed race) is not actionable.
        let _ = epoll.delete(conn.stream.as_raw_fd());
        engine.metrics().connection_closed();
        slots[idx].gen = slots[idx].gen.wrapping_add(1);
        free.push(idx);
        drop(conn);
    }
}
