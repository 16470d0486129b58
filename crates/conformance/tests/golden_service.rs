//! Golden snapshots of the service's answers and its `STATS` report.
//!
//! A frozen-clock [`psl_service::Engine`] is driven directly (no sockets)
//! with a fixed request mix over the deterministic small-scale history, so
//! every answer, and every counter, cache statistic, and latency bucket in
//! the resulting [`psl_service::StatsReport`], is reproducible
//! bit-for-bit. The transcript fixture holds each driven line, prefixed
//! with `> `, followed by the answer lines it produced. Re-bless with:
//!
//! ```text
//! PSL_BLESS=1 cargo test -p psl-conformance --test golden_service
//! ```

use psl_conformance::{assert_golden, assert_golden_text};
use psl_history::GeneratorConfig;
use psl_service::{Engine, EngineConfig};
use std::path::PathBuf;
use std::sync::Arc;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

#[test]
fn golden_service_stats() {
    let history = Arc::new(psl_history::generate(&GeneratorConfig::small(2023)));
    let first = history.first_version();
    let latest = history.latest_version();
    let store = psl_service::owned_store(
        format!("history:{latest}"),
        Some(latest),
        history.latest_snapshot(),
    );
    let engine = Engine::new(
        store,
        Some(Arc::clone(&history)),
        EngineConfig { workers: 2, cache_capacity: 64, ..Default::default() },
        psl_service::frozen_clock(),
    );

    // A fixed request mix: every command kind, repeated hosts (cache hits),
    // a reload (cache invalidation + epoch bump), and a few errors.
    let corpus =
        psl_webcorpus::generate_corpus(&history, &psl_webcorpus::CorpusConfig::small(2024));
    let hosts: Vec<&str> = corpus.hosts().iter().take(50).map(|h| h.as_str()).collect();
    let mut ws = engine.worker_state(0);
    let mut transcript = String::new();
    let mut drive = |ws: &mut psl_service::WorkerState, line: &str| {
        transcript.push_str(&format!("> {line}\n"));
        engine.handle_line(ws, line, &mut transcript);
    };

    for pass in 0..3 {
        for h in &hosts {
            drive(&mut ws, &format!("SITE {h}"));
            if pass == 0 {
                drive(&mut ws, &format!("SUFFIX {h}"));
            }
        }
    }
    for h in hosts.iter().take(10) {
        drive(&mut ws, &format!("ASOF {first} {h}"));
    }
    drive(&mut ws, &format!("BATCH {}", hosts.len().min(8)));
    for h in hosts.iter().take(8) {
        drive(&mut ws, h);
    }
    drive(&mut ws, "PING");
    drive(&mut ws, &format!("RELOAD {first}"));
    for h in hosts.iter().take(5) {
        drive(&mut ws, &format!("SITE {h}"));
    }
    drive(&mut ws, "NOSUCHVERB");
    drive(&mut ws, "SUFFIX bad..host");
    drive(&mut ws, "ASOF 1999-13-99 example.com");

    // A second worker contributes to another latency shard.
    let mut ws1 = engine.worker_state(1);
    for h in hosts.iter().take(20) {
        drive(&mut ws1, &format!("SITE {h}"));
    }
    drive(&mut ws1, "STATS");

    assert_golden_text(&fixture("service_transcript.txt"), &transcript);
    assert_golden(&fixture("service_stats.json"), &engine.stats_report());
}
