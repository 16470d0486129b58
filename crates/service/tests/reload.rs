//! Concurrent hot-reload: in-flight queries must never observe a torn
//! snapshot — every answer must be exactly correct for *some* published
//! version, and no reload may produce a protocol error.

use psl_core::{DomainName, MatchOpts};
use psl_history::GeneratorConfig;
use psl_service::{Engine, EngineConfig, Server, ServerConfig};
use std::collections::HashSet;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn queries_never_observe_a_torn_snapshot_across_reloads() {
    let history = Arc::new(psl_history::generate(&GeneratorConfig::small(1234)));
    let first = history.first_version();
    let latest = history.latest_version();
    let first_list = history.snapshot_at(first);
    let latest_list = history.latest_snapshot();
    let opts = MatchOpts::default();

    // A probe host whose site differs between the two endpoints of the
    // history — if a reader ever mixed old and new state, or matched
    // against a half-built trie, the answer would leave this 2-element set.
    let corpus = psl_webcorpus::generate_corpus(&history, &psl_webcorpus::CorpusConfig::small(5));
    let probe = corpus
        .hosts()
        .iter()
        .find(|h| first_list.site(h, opts) != latest_list.site(h, opts))
        .expect("corpus contains a host whose site shifts across the history")
        .as_str()
        .to_string();
    let probe_dom = DomainName::parse(&probe).unwrap();
    let valid: HashSet<String> = [
        first_list.site(&probe_dom, opts).as_str().to_string(),
        latest_list.site(&probe_dom, opts).as_str().to_string(),
    ]
    .into_iter()
    .collect();
    assert_eq!(valid.len(), 2, "probe host must distinguish the versions");

    let store = psl_service::owned_store(
        format!("history:{latest}"),
        Some(latest),
        history.latest_snapshot(),
    );
    let engine = Engine::new(
        store,
        Some(Arc::clone(&history)),
        EngineConfig { workers: 4, ..Default::default() },
        psl_service::monotonic_clock(),
    );
    let server = Server::bind(
        Arc::clone(&engine),
        ServerConfig { addr: "127.0.0.1:0".to_string(), ..Default::default() },
    )
    .unwrap();
    let addr = server.local_addr().unwrap();
    let stop = server.stop_handle();
    let server_thread = std::thread::spawn(move || server.run().unwrap());

    const RELOADS: u64 = 30;
    let done = Arc::new(AtomicBool::new(false));
    let mut clients = Vec::new();
    for _ in 0..3 {
        let done = Arc::clone(&done);
        let probe = probe.clone();
        let valid = valid.clone();
        clients.push(std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).unwrap();
            stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = BufWriter::new(stream);
            let mut answers = 0u64;
            while !done.load(Ordering::Relaxed) {
                writer.write_all(format!("SITE {probe}\n").as_bytes()).unwrap();
                writer.flush().unwrap();
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                let resp = line.trim_end();
                let site = resp
                    .strip_prefix("OK ")
                    .unwrap_or_else(|| panic!("reload produced a query error: {resp}"));
                assert!(valid.contains(site), "torn/stale answer {site:?}");
                answers += 1;
            }
            answers
        }));
    }

    // Alternate reloads between the two versions while the clients hammer.
    let admin = TcpStream::connect(addr).unwrap();
    admin.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut areader = BufReader::new(admin.try_clone().unwrap());
    let mut awriter = BufWriter::new(admin);
    for i in 0..RELOADS {
        let target = if i % 2 == 0 { first } else { latest };
        awriter.write_all(format!("RELOAD {target}\n").as_bytes()).unwrap();
        awriter.flush().unwrap();
        let mut line = String::new();
        areader.read_line(&mut line).unwrap();
        assert!(line.starts_with(&format!("OK epoch={} ", i + 2)), "reload {i} answered {line:?}");
        std::thread::sleep(Duration::from_millis(2));
    }
    done.store(true, Ordering::Relaxed);
    let mut total_answers = 0;
    for c in clients {
        total_answers += c.join().expect("client thread clean");
    }
    assert!(total_answers > 0, "clients actually exercised the reload window");

    // The epoch advanced once per reload and the server kept full counts.
    let report = engine.stats_report();
    assert_eq!(report.snapshot.epoch, RELOADS + 1);
    assert_eq!(report.commands.reload, RELOADS);
    assert_eq!(report.commands.errors, 0);
    assert_eq!(report.commands.site, total_answers);

    stop.stop();
    server_thread.join().unwrap();
}
