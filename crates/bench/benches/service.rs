//! psl-service benches: replay synthetic webcorpus hostnames through the
//! query engine (in-process) and through a real loopback TCP server, so
//! the protocol/cache overhead is visible next to the raw trie walk.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use psl_bench::world;
use psl_service::{owned_store, Engine, EngineConfig, Server, ServerConfig};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn bench_engine(seed_cache: usize) -> Arc<Engine> {
    let w = world();
    let latest = w.history.latest_version();
    let store = owned_store(format!("history:{latest}"), Some(latest), w.history.latest_snapshot());
    Engine::new(
        store,
        None,
        EngineConfig { workers: 1, cache_capacity: seed_cache, ..Default::default() },
        psl_service::frozen_clock(),
    )
}

/// In-process replay: SITE per corpus host through `Engine::handle_line`,
/// with and without the per-worker LRU cache.
fn bench_engine_replay(c: &mut Criterion) {
    let w = world();
    let hosts = w.corpus.hosts();
    let requests: Vec<String> = w
        .corpus
        .requests()
        .iter()
        .take(2000)
        .map(|r| format!("SITE {}", hosts[r.request as usize].as_str()))
        .collect();
    let mut g = c.benchmark_group("service_engine_replay");
    for (label, cache) in [("cache_8k", 8192), ("cache_off", 0)] {
        let engine = bench_engine(cache);
        let mut ws = engine.worker_state(0);
        let mut out = String::with_capacity(256);
        g.bench_function(BenchmarkId::new("site_2000_requests", label), |b| {
            b.iter(|| {
                let mut bytes = 0usize;
                for req in &requests {
                    out.clear();
                    engine.handle_line(&mut ws, req, &mut out);
                    bytes += out.len();
                }
                std::hint::black_box(bytes)
            })
        });
    }
    g.finish();
}

/// End-to-end loopback: one connection pipelining BATCH frames of corpus
/// hosts against a live server.
fn bench_tcp_batch(c: &mut Criterion) {
    let w = world();
    let hosts: Vec<&str> = w.corpus.hosts().iter().take(512).map(|h| h.as_str()).collect();
    let mut frame = format!("BATCH {}\n", hosts.len());
    for h in &hosts {
        frame.push_str(h);
        frame.push('\n');
    }

    let engine = bench_engine(8192);
    let server = Server::bind(
        Arc::clone(&engine),
        ServerConfig { addr: "127.0.0.1:0".to_string(), ..Default::default() },
    )
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let stop = server.stop_handle();
    let join = std::thread::spawn(move || server.run().expect("run"));

    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = BufWriter::new(stream);
    let mut line = String::new();

    c.bench_function("service_tcp_batch_512", |b| {
        b.iter(|| {
            writer.write_all(frame.as_bytes()).unwrap();
            writer.flush().unwrap();
            let mut bytes = 0usize;
            for _ in 0..hosts.len() {
                line.clear();
                reader.read_line(&mut line).unwrap();
                bytes += line.len();
            }
            std::hint::black_box(bytes)
        })
    });

    stop.stop();
    join.join().expect("server thread");
}

criterion_group!(benches, bench_engine_replay, bench_tcp_batch);
criterion_main!(benches);
