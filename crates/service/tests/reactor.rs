//! End-to-end tests for the epoll reactor's headline behaviours: deep
//! request pipelining with in-order answers, slow/abusive clients that
//! must not wedge a worker, backpressure-driven disconnects, admission
//! control, and bounded shutdown latency.

use psl_core::{DomainName, MatchOpts};
use psl_history::GeneratorConfig;
use psl_service::{Engine, EngineConfig, ReactorOptions, Server, ServerConfig, StopHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

struct TestServer {
    addr: SocketAddr,
    stop: StopHandle,
    join: Option<JoinHandle<()>>,
    engine: Arc<Engine>,
}

impl TestServer {
    fn spawn(seed: u64, workers: usize, options: ReactorOptions) -> TestServer {
        let history = Arc::new(psl_history::generate(&GeneratorConfig::small(seed)));
        let latest = history.latest_version();
        let store = psl_service::owned_store(
            format!("history:{latest}"),
            Some(latest),
            history.latest_snapshot(),
        );
        let engine = Engine::new(
            store,
            Some(history),
            EngineConfig { workers, ..Default::default() },
            psl_service::monotonic_clock(),
        );
        let server = Server::bind_with(
            Arc::clone(&engine),
            ServerConfig { addr: "127.0.0.1:0".to_string(), ..Default::default() },
            options,
        )
        .expect("bind ephemeral port");
        let addr = server.local_addr().expect("local addr");
        let stop = server.stop_handle();
        let join = std::thread::spawn(move || server.run().expect("server run"));
        TestServer { addr, stop, join: Some(join), engine }
    }

    fn connect(&self) -> TcpStream {
        let stream = TcpStream::connect(self.addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        stream.set_nodelay(true).unwrap();
        stream
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.stop.stop();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

fn roundtrip(stream: &mut TcpStream, command: &str) -> String {
    stream.write_all(command.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    line.trim_end().to_string()
}

/// The reactor's pipelining contract: a client may write many BATCH frames
/// before reading a single reply, and every answer comes back in request
/// order.
#[test]
fn hundred_pipelined_batches_answer_in_order() {
    let server = TestServer::spawn(11, 2, ReactorOptions::default());
    let snapshot = server.engine.store().load();
    let opts = MatchOpts::default();

    // 100 BATCH frames x 7 hosts, all written before any read.
    let mut hosts = Vec::new();
    let mut request = String::new();
    for frame in 0..100 {
        request.push_str("BATCH 7\n");
        for k in 0..7 {
            let host = format!("h{k}.tenant-{frame}.example.com");
            request.push_str(&host);
            request.push('\n');
            hosts.push(host);
        }
    }
    let mut stream = TcpStream::connect(server.addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.write_all(request.as_bytes()).unwrap();

    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    for host in &hosts {
        line.clear();
        reader.read_line(&mut line).unwrap();
        let expected =
            format!("OK {}", snapshot.list.site(&DomainName::parse(host).unwrap(), opts));
        assert_eq!(line.trim_end(), expected, "answer for {host} out of order or wrong");
    }
}

/// A slowloris client (one byte at a time, long pauses) must not wedge its
/// worker: with a single reactor worker, a concurrent well-behaved client
/// keeps getting answers while the slow one dribbles.
#[test]
fn slowloris_does_not_wedge_a_single_worker() {
    let server = TestServer::spawn(12, 1, ReactorOptions::default());
    let mut slow = server.connect();
    let mut fast = server.connect();

    let command = b"SUFFIX www.example.com\n";
    for (i, byte) in command.iter().enumerate() {
        slow.write_all(std::slice::from_ref(byte)).unwrap();
        // While the slow client dribbles its single command, the fast one
        // completes a full round trip per byte — on the same worker.
        let answer = roundtrip(&mut fast, "PING");
        assert_eq!(answer, "OK pong", "fast client starved after {i} slow bytes");
    }
    let mut reader = BufReader::new(slow);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("OK ") || line.starts_with("ERR "), "slow client answered: {line}");
}

/// A client that triggers far more response bytes than the kernel socket
/// buffers absorb — and never reads any of them — is disconnected by the
/// write-stall sweep instead of pinning buffer memory, and must not block
/// other clients while it lingers.
#[test]
fn never_reading_client_is_disconnected() {
    let options = ReactorOptions {
        write_stall_timeout: Duration::from_millis(300),
        ..ReactorOptions::default()
    };
    let server = TestServer::spawn(13, 1, options);
    let greedy = server.connect();

    // One max-size BATCH frame, replayed many times: the total response
    // (~24 x 65536 short site lines) dwarfs any auto-tuned loopback
    // buffering, so the server's output queue must eventually stop making
    // progress. The writer runs in its own thread because the server
    // (correctly) suspends reading a backpressured connection, which
    // blocks this write_all midway; the write errors out once the stall
    // sweep severs the socket.
    let mut frame = String::from("BATCH 65536\n");
    for i in 0..65536 {
        frame.push_str(&format!("host-{i}.long-subdomain.example.com\n"));
    }
    let mut writer = greedy.try_clone().unwrap();
    let write_thread = std::thread::spawn(move || {
        for _ in 0..24 {
            if writer.write_all(frame.as_bytes()).is_err() {
                return; // server hung up on us, as the test expects
            }
        }
    });

    // The same worker keeps serving others while the greedy client stalls.
    let mut other = server.connect();
    assert_eq!(roundtrip(&mut other, "PING"), "OK pong");

    // The server must record the stall-driven disconnect without us ever
    // reading a byte on the greedy connection.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if server.engine.stats_report().net.slow_client_disconnects >= 1 {
            break;
        }
        assert!(Instant::now() < deadline, "server never dropped the non-reading client");
        std::thread::sleep(Duration::from_millis(50));
    }
    // And the worker is still healthy afterwards.
    assert_eq!(roundtrip(&mut other, "PING"), "OK pong");
    drop(greedy);
    write_thread.join().unwrap();
}

/// Admission control: beyond `max_conns` the server answers one
/// `ERR busy` line and closes, without disturbing admitted connections.
#[test]
fn connections_beyond_the_cap_are_shed() {
    let options = ReactorOptions { max_conns: 2, ..ReactorOptions::default() };
    let server = TestServer::spawn(14, 1, options);

    let mut a = server.connect();
    let mut b = server.connect();
    // Round trips guarantee both are admitted (accepted + registered)
    // before the third connection arrives.
    assert_eq!(roundtrip(&mut a, "PING"), "OK pong");
    assert_eq!(roundtrip(&mut b, "PING"), "OK pong");

    let shed = server.connect();
    let mut reader = BufReader::new(shed);
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ERR busy "), "expected load-shed answer, got: {line}");
    // ...and then EOF: the shed connection is closed, not serviced.
    line.clear();
    assert_eq!(reader.read_line(&mut line).unwrap(), 0, "shed connection must close");

    // Admitted connections are unaffected, and the shed is counted.
    assert_eq!(roundtrip(&mut a, "PING"), "OK pong");
    assert!(server.engine.stats_report().net.shed_connections >= 1);

    // Closing an admitted connection frees capacity for a newcomer.
    drop(b);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut again = server.connect();
        again.write_all(b"PING\n").unwrap();
        let mut reader = BufReader::new(again);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        if line.trim_end() == "OK pong" {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "capacity never freed after closing a connection: {line}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Shutdown is eventfd-driven, not poll-driven: stopping a server with
/// idle connections joins quickly.
#[test]
fn shutdown_latency_is_bounded() {
    let mut server = TestServer::spawn(15, 2, ReactorOptions::default());
    // Idle connections parked in epoll must not delay shutdown.
    let _idle_a = server.connect();
    let _idle_b = server.connect();
    let mut active = server.connect();
    assert_eq!(roundtrip(&mut active, "PING"), "OK pong");

    let started = Instant::now();
    server.stop.stop();
    server.join.take().unwrap().join().expect("server thread");
    let elapsed = started.elapsed();
    // The doorbell makes this near-instant; 2s leaves slack for a loaded
    // CI machine while still catching any return to interval polling.
    assert!(elapsed < Duration::from_secs(2), "shutdown took {elapsed:?}");
}

/// The `SHUTDOWN` command stops the whole server through the same path.
#[test]
fn shutdown_command_stops_the_reactor_promptly() {
    let mut server = TestServer::spawn(16, 2, ReactorOptions::default());
    let mut stream = server.connect();
    assert_eq!(roundtrip(&mut stream, "SHUTDOWN"), "OK shutting-down");
    let started = Instant::now();
    server.join.take().unwrap().join().expect("server thread");
    assert!(started.elapsed() < Duration::from_secs(2));
}
