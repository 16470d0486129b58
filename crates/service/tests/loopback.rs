//! End-to-end loopback tests: a real server on an ephemeral port, real TCP
//! clients, answers checked against direct `psl-core` / `psl-history`
//! computation.

use psl_core::{DomainName, MatchOpts};
use psl_history::{GeneratorConfig, History};
use psl_service::{Engine, EngineConfig, Server, ServerConfig, StopHandle};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

struct TestServer {
    addr: SocketAddr,
    stop: StopHandle,
    join: Option<JoinHandle<()>>,
    history: Arc<History>,
    engine: Arc<Engine>,
}

impl TestServer {
    fn spawn(seed: u64, workers: usize) -> TestServer {
        let history = Arc::new(psl_history::generate(&GeneratorConfig::small(seed)));
        let latest = history.latest_version();
        let store = psl_service::owned_store(
            format!("history:{latest}"),
            Some(latest),
            history.latest_snapshot(),
        );
        let engine = Engine::new(
            store,
            Some(Arc::clone(&history)),
            EngineConfig { workers, ..Default::default() },
            psl_service::monotonic_clock(),
        );
        let server = Server::bind(
            Arc::clone(&engine),
            ServerConfig { addr: "127.0.0.1:0".to_string(), ..Default::default() },
        )
        .expect("bind ephemeral port");
        let addr = server.local_addr().expect("local addr");
        let stop = server.stop_handle();
        let join = std::thread::spawn(move || server.run().expect("server run"));
        TestServer { addr, stop, join: Some(join), history, engine }
    }

    fn connect(&self) -> (BufReader<TcpStream>, BufWriter<TcpStream>) {
        let stream = TcpStream::connect(self.addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        (BufReader::new(stream.try_clone().unwrap()), BufWriter::new(stream))
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

fn roundtrip(
    reader: &mut BufReader<TcpStream>,
    writer: &mut BufWriter<TcpStream>,
    command: &str,
) -> String {
    writer.write_all(command.as_bytes()).unwrap();
    writer.write_all(b"\n").unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    line.trim_end().to_string()
}

/// ≥10k hostnames: every corpus host plus synthetic subdomain variants.
fn big_host_set(history: &History, seed: u64) -> Vec<String> {
    let corpus = psl_webcorpus::generate_corpus(history, &psl_webcorpus::CorpusConfig::small(seed));
    let mut hosts: Vec<String> = Vec::new();
    for host in corpus.hosts() {
        hosts.push(host.as_str().to_string());
        for i in 0..4 {
            hosts.push(format!("w{i}.{}", host.as_str()));
        }
    }
    assert!(hosts.len() >= 10_000, "need >=10k hosts, got {}", hosts.len());
    hosts
}

#[test]
fn batched_site_lookups_agree_with_direct_calls_on_10k_hosts() {
    let server = TestServer::spawn(2024, 4);
    let hosts = big_host_set(&server.history, 77);
    let latest = server.history.latest_snapshot();
    let opts = MatchOpts::default();
    let expected: Vec<String> = hosts
        .iter()
        .map(|h| latest.site(&DomainName::parse(h).unwrap(), opts).as_str().to_string())
        .collect();

    let (mut reader, mut writer) = server.connect();
    let mut checked = 0usize;
    for (chunk_hosts, chunk_expected) in hosts.chunks(512).zip(expected.chunks(512)) {
        let mut frame = format!("BATCH {}\n", chunk_hosts.len());
        for h in chunk_hosts {
            frame.push_str(h);
            frame.push('\n');
        }
        writer.write_all(frame.as_bytes()).unwrap();
        writer.flush().unwrap();
        for (h, want) in chunk_hosts.iter().zip(chunk_expected) {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert_eq!(line.trim_end(), format!("OK {want}"), "host {h}");
            checked += 1;
        }
    }
    assert!(checked >= 10_000, "checked {checked}");
}

#[test]
fn suffix_and_asof_agree_with_direct_calls() {
    let server = TestServer::spawn(555, 2);
    let hosts = big_host_set(&server.history, 88);
    let latest = server.history.latest_snapshot();
    let opts = MatchOpts::default();
    let (mut reader, mut writer) = server.connect();

    // SUFFIX on a 1-in-17 sample.
    for h in hosts.iter().step_by(17) {
        let dom = DomainName::parse(h).unwrap();
        let want = latest.public_suffix(&dom, opts).unwrap_or("-");
        assert_eq!(
            roundtrip(&mut reader, &mut writer, &format!("SUFFIX {h}")),
            format!("OK {want}"),
            "host {h}"
        );
    }

    // ASOF at every version on a 1-in-97 sample, an uppercase spelling, a
    // Unicode name, labels no version holds and a host under a rule the
    // history added and later removed.
    let mut asof_hosts: Vec<String> = hosts.iter().step_by(97).cloned().collect();
    asof_hosts.extend(["Shop.MyShopify.COM", "bücher.example.de", "x.y.zzq"].map(String::from));
    let removed = server.history.spans().iter().find(|s| s.removed.is_some()).unwrap();
    asof_hosts.push(format!("x.{}", removed.rule.labels().join(".")));
    for &v in server.history.versions() {
        let list = server.history.snapshot_at(v);
        for h in &asof_hosts {
            let dom = DomainName::parse(h).unwrap();
            let want = list.site(&dom, opts);
            assert_eq!(
                roundtrip(&mut reader, &mut writer, &format!("ASOF {v} {h}")),
                format!("OK {} version={v}", want.as_str()),
                "host {h} at {v}"
            );
        }
    }
}

#[test]
fn protocol_errors_and_stats_over_the_wire() {
    let server = TestServer::spawn(31337, 2);
    let (mut reader, mut writer) = server.connect();

    assert_eq!(roundtrip(&mut reader, &mut writer, "PING"), "OK pong");
    assert!(roundtrip(&mut reader, &mut writer, "FROBNICATE").starts_with("ERR verb "));
    assert!(roundtrip(&mut reader, &mut writer, "SUFFIX").starts_with("ERR args "));
    assert!(roundtrip(&mut reader, &mut writer, "SUFFIX bad..host").starts_with("ERR host "));

    // An oversized line is rejected without poisoning the connection.
    let oversized = format!("SUFFIX {}\n", "a".repeat(8192));
    writer.write_all(oversized.as_bytes()).unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.starts_with("ERR limit "), "{line}");
    assert_eq!(roundtrip(&mut reader, &mut writer, "PING"), "OK pong");

    // STATS parses and reflects the traffic this test produced.
    let stats_line = roundtrip(&mut reader, &mut writer, "STATS");
    let json = stats_line.strip_prefix("OK ").expect("stats is OK <json>");
    let report: psl_service::StatsReport = serde_json::from_str(json).unwrap();
    assert_eq!(report.snapshot.epoch, 1);
    assert!(report.commands.ping >= 2);
    assert!(report.commands.errors >= 4);
    assert!(report.commands.connections >= 1);

    // QUIT closes only this connection; the server stays up.
    assert_eq!(roundtrip(&mut reader, &mut writer, "QUIT"), "OK bye");
    let mut end = String::new();
    assert_eq!(reader.read_line(&mut end).unwrap(), 0, "connection closed after QUIT");
    let (mut r2, mut w2) = server.connect();
    assert_eq!(roundtrip(&mut r2, &mut w2, "PING"), "OK pong");
}

#[test]
fn shutdown_command_stops_the_server() {
    let server = TestServer::spawn(909, 2);
    let (mut reader, mut writer) = server.connect();
    assert_eq!(roundtrip(&mut reader, &mut writer, "SHUTDOWN"), "OK shutting-down");
    // The run() thread exits; Drop joins it (bounded by read timeouts).
    // Poll the stop flag to make sure SHUTDOWN propagated.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !server.stop.stopped() {
        assert!(std::time::Instant::now() < deadline, "stop flag not set");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The load generator checks every answer, lock-step (a window below
/// the batch) and pipelined over many connections and two drivers.
#[test]
fn loadgen_runs_clean_against_a_live_server() {
    let server = TestServer::spawn(4242, 4);
    let corpus =
        psl_webcorpus::generate_corpus(&server.history, &psl_webcorpus::CorpusConfig::small(99));
    let latest = server.history.latest_snapshot();
    let opts = MatchOpts::default();
    let hosts: Vec<String> = corpus.hosts().iter().map(|h| h.as_str().to_string()).collect();
    let expected: Vec<String> =
        corpus.hosts().iter().map(|h| latest.site(h, opts).as_str().to_string()).collect();
    let shapes = [(3, 256, 1, 1), (64, 16, 64, 2)];
    for (connections, batch, window, drivers) in shapes {
        let config = psl_service::LoadgenConfig {
            addr: server.addr.to_string(),
            connections,
            requests: 20_000,
            batch,
            window,
            drivers,
        };
        let report =
            psl_service::loadgen::run(&config, &hosts, Some(&expected)).expect("loadgen run");
        let shape = format!("{config:?}");
        assert_eq!((report.connections, report.established), (connections, connections), "{shape}");
        assert_eq!((report.requests, report.completed), (20_000, 20_000), "{shape}");
        assert_eq!((report.errors, report.mismatches, report.disconnects), (0, 0, 0), "{shape}");
        assert!(report.connect_seconds > 0.0 && report.throughput_rps > 0.0, "{shape}");
        assert!(report.batch_rtt_us.p50_us >= report.latency_us.p50_us, "{shape}");
        let server_stats = report.server.expect("server stats fetched");
        assert!(server_stats.lookups >= 20_000, "{shape}");
        // Hosts repeat across the corpus cycle, so the cache must be
        // earning its keep by the end of the run.
        assert!(report.cache_hit_ratio > 0.5, "{shape}: hit ratio {}", report.cache_hit_ratio);
    }
    let _ = server.engine.stats_report();
}
