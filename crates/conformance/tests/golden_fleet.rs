//! Golden snapshots of the browser-fleet harm-divergence table.
//!
//! A small fleet (a few hundred sessions, a handful of sampled versions)
//! over the deterministic small-scale substrates pins the *executed*
//! harm counts exactly: any change to session script derivation, the
//! paired session engine, the list views, or the accumulator merges
//! shows up as a readable fixture diff. Two more fixtures pin the rows,
//! the replayed-pair count and the replay count of the paper-scale worlds
//! the benchmark's `fleet` workload runs at seeds 7 and 23. Re-bless
//! intentional changes with:
//!
//! ```text
//! PSL_BLESS=1 cargo test -p psl-conformance --test golden_fleet
//! ```

use psl_analysis::{run_fleet, FleetConfig, FleetRow, PipelineConfig};
use psl_conformance::assert_golden;
use psl_history::{generate, GeneratorConfig};
use psl_webcorpus::{build_stream, CorpusConfig};
use serde::Serialize;
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.json"))
}

#[test]
fn golden_fleet_harm_table() {
    let history = generate(&GeneratorConfig::small(2023));
    let stream = build_stream(&history, &CorpusConfig::small(2024));
    let out = run_fleet(
        &history,
        &stream,
        &FleetConfig { sessions: 300, max_versions: 6, ..Default::default() },
    );
    assert_golden(&fixture("fleet"), &out.rows);
}

#[test]
fn golden_fleet_table_is_thread_and_shard_invariant() {
    let history = generate(&GeneratorConfig::small(2023));
    let stream = build_stream(&history, &CorpusConfig::small(2024));
    let base = FleetConfig { sessions: 300, max_versions: 6, ..Default::default() };
    // The golden above ran with auto threads/shards; the same table must
    // come out of deliberately different execution shapes.
    for (threads, shards) in [(1usize, 1usize), (2, 5), (4, 13)] {
        let out = run_fleet(&history, &stream, &FleetConfig { threads, shards, ..base });
        assert_golden(&fixture("fleet"), &out.rows);
    }
}

/// What a paper-scale fixture pins: every row, how many
/// `(session, version)` pairs needed a `(V, R)` replay, and how many
/// replays answered them.
#[derive(Serialize)]
struct FleetPin {
    replayed_pairs: u64,
    replays: u64,
    rows: Vec<FleetRow>,
}

/// The benchmark's `fleet` world at `seed` (the paper configuration with
/// history seed `seed` and corpus seed `seed + 1`), 100,000 sessions over
/// the default 12 sampled versions.
fn paper_scale_pin(seed: u64) -> FleetPin {
    let mut config = PipelineConfig::default();
    config.history.seed = seed;
    config.corpus.seed = seed + 1;
    let history = generate(&config.history);
    let stream = build_stream(&history, &config.corpus);
    let out =
        run_fleet(&history, &stream, &FleetConfig { sessions: 100_000, ..Default::default() });
    assert_eq!(out.rows.len(), 12);
    FleetPin { replayed_pairs: out.replayed_pairs, replays: out.replays, rows: out.rows }
}

#[test]
fn golden_fleet_paper_scale_seed7() {
    assert_golden(&fixture("fleet_paper_scale_seed7"), &paper_scale_pin(7));
}

#[test]
fn golden_fleet_paper_scale_seed23() {
    assert_golden(&fixture("fleet_paper_scale_seed23"), &paper_scale_pin(23));
}
