//! End-to-end tests for the HTTP/1.1 admin plane: every endpoint answers
//! valid JSON over a real socket, keep-alive connections are reused,
//! unknown routes 404, wrong methods 405, and `POST /reload` actually
//! republishes the served snapshot.

use psl_history::GeneratorConfig;
use psl_service::{Engine, EngineConfig, ReactorOptions, Server, ServerConfig, StopHandle};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

struct TestServer {
    http_addr: SocketAddr,
    stop: StopHandle,
    join: Option<JoinHandle<()>>,
    engine: Arc<Engine>,
}

impl TestServer {
    fn spawn(seed: u64, with_history: bool) -> TestServer {
        let history = Arc::new(psl_history::generate(&GeneratorConfig::small(seed)));
        let latest = history.latest_version();
        let store = psl_service::owned_store(
            format!("history:{latest}"),
            Some(latest),
            history.latest_snapshot(),
        );
        let engine = Engine::new(
            store,
            with_history.then(|| Arc::clone(&history)),
            EngineConfig { workers: 2, ..Default::default() },
            psl_service::monotonic_clock(),
        );
        let server = Server::bind_with(
            Arc::clone(&engine),
            ServerConfig { addr: "127.0.0.1:0".to_string(), ..Default::default() },
            ReactorOptions {
                http_addr: Some("127.0.0.1:0".to_string()),
                ..ReactorOptions::default()
            },
        )
        .expect("bind ephemeral ports");
        let http_addr = server.http_local_addr().expect("http listener configured").expect("addr");
        let stop = server.stop_handle();
        let join = std::thread::spawn(move || server.run().expect("server run"));
        TestServer { http_addr, stop, join: Some(join), engine }
    }

    fn connect(&self) -> TcpStream {
        let stream = TcpStream::connect(self.http_addr).expect("connect http");
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
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

struct HttpAnswer {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl HttpAnswer {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers.iter().find(|(k, _)| k.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    fn json(&self) -> serde_json::Value {
        serde_json::value_from_str(&self.body)
            .unwrap_or_else(|e| panic!("body is not valid JSON ({e}): {}", self.body))
    }
}

/// Send one request on an open connection and read exactly one response
/// (status line + headers + Content-Length body).
fn request(stream: &mut TcpStream, method: &str, path: &str, body: Option<&str>) -> HttpAnswer {
    let mut req = format!("{method} {path} HTTP/1.1\r\nHost: test\r\n");
    if let Some(b) = body {
        req.push_str(&format!("Content-Length: {}\r\n", b.len()));
    }
    req.push_str("\r\n");
    if let Some(b) = body {
        req.push_str(b);
    }
    stream.write_all(req.as_bytes()).unwrap();

    // Read until the header terminator, then exactly Content-Length bytes.
    let mut raw = Vec::new();
    let mut byte = [0u8; 1];
    while !raw.ends_with(b"\r\n\r\n") {
        assert_ne!(stream.read(&mut byte).unwrap(), 0, "EOF inside response head");
        raw.push(byte[0]);
        assert!(raw.len() < 64 * 1024, "response head too large");
    }
    let head = String::from_utf8(raw).unwrap();
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap();
    assert!(status_line.starts_with("HTTP/1.1 "), "status line: {status_line}");
    let status: u16 = status_line.split(' ').nth(1).unwrap().parse().unwrap();
    let headers: Vec<(String, String)> = lines
        .filter(|l| !l.is_empty())
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_string(), v.trim().to_string()))
        .collect();
    let len: usize = headers
        .iter()
        .find(|(k, _)| k.eq_ignore_ascii_case("content-length"))
        .map(|(_, v)| v.parse().unwrap())
        .expect("Content-Length header");
    let mut body_bytes = vec![0u8; len];
    stream.read_exact(&mut body_bytes).unwrap();
    HttpAnswer { status, headers, body: String::from_utf8(body_bytes).unwrap() }
}

/// Every admin endpoint answers 200 with valid JSON — on one keep-alive
/// connection, proving response framing and connection reuse.
#[test]
fn all_endpoints_answer_valid_json_over_keep_alive() {
    let server = TestServer::spawn(31, true);
    let mut stream = server.connect();

    let health = request(&mut stream, "GET", "/health", None);
    assert_eq!(health.status, 200);
    assert_eq!(health.header("content-type"), Some("application/json"));
    let health = health.json();
    assert_eq!(health["status"], "ok");
    assert!(health["epoch"].as_u64().is_some());
    assert!(health["rules"].as_u64().unwrap() > 0);
    assert!(health["uptime_seconds"].as_f64().is_some());

    let stats = request(&mut stream, "GET", "/stats", None);
    assert_eq!(stats.status, 200);
    let stats = stats.json();
    assert!(stats["uptime_seconds"].as_f64().is_some());
    assert!(stats["net"]["active_connections"].as_u64().is_some());

    let versions = request(&mut stream, "GET", "/versions", None);
    assert_eq!(versions.status, 200);
    let versions = versions.json();
    assert_eq!(versions["current"]["epoch"], 1);
    assert!(!versions["events"].as_array().unwrap().is_empty());

    let cache = request(&mut stream, "GET", "/cache", None);
    assert_eq!(cache.status, 200);
    let cache = cache.json();
    assert!(cache["capacity_per_worker"].as_u64().is_some());
    assert!(!cache["workers"].as_array().unwrap().is_empty());

    let reload = request(&mut stream, "POST", "/reload", Some("latest"));
    assert_eq!(reload.status, 200);
    let reload = reload.json();
    assert_eq!(reload["epoch"], 2, "reload must publish a new epoch");

    // All five round trips happened on ONE connection; a fresh /health
    // still works afterwards, proving nothing desynchronised the framing.
    let again = request(&mut stream, "GET", "/health", None);
    assert_eq!(again.status, 200);
    assert_eq!(again.json()["epoch"], 2, "health must reflect the reload");
}

/// `POST /reload` without a body defaults to `latest`; the served snapshot
/// epoch visibly bumps, which the line protocol also observes.
#[test]
fn reload_bumps_the_served_epoch() {
    let server = TestServer::spawn(32, true);
    let before = server.engine.store().epoch();
    let mut stream = server.connect();
    let reload = request(&mut stream, "POST", "/reload", None);
    assert_eq!(reload.status, 200);
    assert_eq!(server.engine.store().epoch(), before + 1);

    // A dated target resolves through history like the RELOAD command.
    let first = {
        let history = psl_history::generate(&GeneratorConfig::small(32));
        history.versions().first().cloned().unwrap()
    };
    let dated = request(&mut stream, "POST", "/reload", Some(&first.to_string()));
    assert_eq!(dated.status, 200);
    assert_eq!(dated.json()["version"], format!("history:{first}"));
}

/// Without a history, `POST /reload` is a 409 with a JSON error body, not
/// a crash or a 500.
#[test]
fn reload_without_history_is_a_409() {
    let server = TestServer::spawn(33, false);
    let mut stream = server.connect();
    let reload = request(&mut stream, "POST", "/reload", Some("latest"));
    assert_eq!(reload.status, 409);
    assert!(reload.json()["error"].as_str().is_some());
}

/// Unknown paths 404, known paths with the wrong method 405, and both
/// keep the connection usable.
#[test]
fn not_found_and_wrong_method_answer_json_errors() {
    let server = TestServer::spawn(34, true);
    let mut stream = server.connect();

    let missing = request(&mut stream, "GET", "/nope", None);
    assert_eq!(missing.status, 404);
    assert!(missing.json()["error"].as_str().is_some());

    let wrong_method = request(&mut stream, "POST", "/health", None);
    assert_eq!(wrong_method.status, 405);

    let wrong_method = request(&mut stream, "GET", "/reload", None);
    assert_eq!(wrong_method.status, 405);

    // Query strings are stripped before routing.
    let with_query = request(&mut stream, "GET", "/health?verbose=1", None);
    assert_eq!(with_query.status, 200);

    let ok = request(&mut stream, "GET", "/health", None);
    assert_eq!(ok.status, 200, "connection must survive error responses");
}

/// `Connection: close` is honoured: the server answers, then closes.
#[test]
fn connection_close_is_honoured() {
    let server = TestServer::spawn(35, true);
    let mut stream = server.connect();
    stream.write_all(b"GET /health HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").unwrap();
    let mut all = Vec::new();
    stream.read_to_end(&mut all).expect("read until server-side close");
    let text = String::from_utf8_lossy(&all);
    assert!(text.starts_with("HTTP/1.1 200 "), "{text}");
    assert!(text.to_ascii_lowercase().contains("connection: close"), "{text}");
}

/// A malformed request gets a 400 JSON answer and a closed connection.
#[test]
fn malformed_requests_answer_400() {
    let server = TestServer::spawn(36, true);
    let mut stream = server.connect();
    stream.write_all(b"NOT-HTTP\r\n\r\n").unwrap();
    let mut all = Vec::new();
    stream.read_to_end(&mut all).expect("read until close");
    let text = String::from_utf8_lossy(&all);
    assert!(text.starts_with("HTTP/1.1 400 "), "{text}");
}

/// HTTP requests are counted in the shared metrics the line protocol's
/// STATS also reports.
#[test]
fn http_requests_are_metered() {
    let server = TestServer::spawn(37, true);
    let mut stream = server.connect();
    for _ in 0..3 {
        let r = request(&mut stream, "GET", "/health", None);
        assert_eq!(r.status, 200);
    }
    assert!(server.engine.stats_report().net.http_requests >= 3);
}
