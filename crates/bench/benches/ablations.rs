//! Ablations for the design choices DESIGN.md calls out:
//!
//! - trie vs. linear rule matching (why the reversed-label trie exists);
//! - exact-fingerprint vs. subset-scan dating (why the index keeps both);
//! - sweep parallelism (the request pass drains shards on scoped threads);
//! - corpus scale (how the per-version cost grows with hostnames).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use psl_analysis::{sweep_rebuild, sweep_stream, StreamSweepConfig};
use psl_bench::{scaled_corpus, world};
use psl_core::trie::disposition_linear;
use psl_core::MatchOpts;
use psl_history::DatingIndex;

fn ablation_trie_vs_linear(c: &mut Criterion) {
    let w = world();
    let list = w.history.latest_snapshot();
    let opts = MatchOpts::default();
    let hosts: Vec<Vec<&str>> =
        w.corpus.hosts().iter().take(200).map(|h| h.labels_reversed()).collect();
    let mut g = c.benchmark_group("ablation_matching");
    g.bench_function("trie_200_hosts", |b| {
        b.iter(|| {
            let mut acc = 0;
            for h in &hosts {
                acc += list.disposition_reversed(h, opts).map_or(0, |d| d.suffix_len);
            }
            std::hint::black_box(acc)
        })
    });
    g.sample_size(10);
    g.bench_function("linear_200_hosts", |b| {
        b.iter(|| {
            let mut acc = 0;
            for h in &hosts {
                acc += disposition_linear(list.rules(), h, opts).map_or(0, |d| d.suffix_len);
            }
            std::hint::black_box(acc)
        })
    });
    g.finish();
}

fn ablation_dating_strategies(c: &mut Criterion) {
    let w = world();
    let index = DatingIndex::build(&w.history);
    let mid = w.history.versions()[w.history.version_count() / 2];
    let exact = w.history.rules_at(mid);
    let mut dirty = exact.clone();
    dirty.pop();

    let mut g = c.benchmark_group("ablation_dating");
    // Exact copies hit the O(1) fingerprint path.
    g.bench_function("fingerprint_hit", |b| {
        b.iter(|| std::hint::black_box(index.date_rules(&exact)))
    });
    // One missing rule forces the full incremental subset scan.
    g.bench_function("subset_scan", |b| b.iter(|| std::hint::black_box(index.date_rules(&dirty))));
    g.finish();
}

fn ablation_sweep_threads(c: &mut Criterion) {
    let w = world();
    let mut g = c.benchmark_group("ablation_sweep_threads");
    g.sample_size(10);
    for threads in [1usize, 2, 4] {
        g.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, &t| {
            let config = StreamSweepConfig { threads: t, ..Default::default() };
            b.iter(|| {
                std::hint::black_box(sweep_stream(&w.history, &w.stream, &config).stats.len())
            })
        });
    }
    g.finish();
}

fn ablation_corpus_scale(c: &mut Criterion) {
    let w = world();
    let latest = w.history.latest_snapshot();
    let first = w.history.snapshot_at(w.history.first_version());
    let mut g = c.benchmark_group("ablation_corpus_scale");
    g.sample_size(10);
    for (scale, pages) in [(0.01, 300), (0.03, 900), (0.06, 1800)] {
        let corpus = scaled_corpus(scale, pages);
        let label = format!("{}hosts", corpus.host_count());
        g.bench_function(BenchmarkId::from_parameter(label), |b| {
            b.iter(|| {
                let s = psl_analysis::stats_for_single_list(
                    &corpus,
                    &first,
                    &latest,
                    MatchOpts::default(),
                );
                std::hint::black_box(s.sites)
            })
        });
    }
    g.finish();
}

fn ablation_sweep_impl(c: &mut Criterion) {
    let w = world();
    let mut g = c.benchmark_group("ablation_sweep_impl");
    g.sample_size(10);
    g.bench_function("rebuild_oracle", |b| {
        let opts = MatchOpts::default();
        b.iter(|| std::hint::black_box(sweep_rebuild(&w.history, &w.corpus, opts).len()))
    });
    g.bench_function("walk_engine", |b| {
        let config = StreamSweepConfig { threads: 1, ..Default::default() };
        b.iter(|| std::hint::black_box(sweep_stream(&w.history, &w.stream, &config).stats.len()))
    });
    g.finish();
}

criterion_group!(
    ablations,
    ablation_trie_vs_linear,
    ablation_dating_strategies,
    ablation_sweep_threads,
    ablation_sweep_impl,
    ablation_corpus_scale,
);
criterion_main!(ablations);
