//! One bench per paper table, plus the repository scan they share.

use criterion::{criterion_group, criterion_main, Criterion};
use psl_analysis::walker::{census, walk};
use psl_analysis::{sweep_stream, StreamSweepConfig};
use psl_bench::world;
use psl_core::MatchOpts;
use psl_repocorpus::RepoScan;

fn bench_repo_scan(c: &mut Criterion) {
    let w = world();
    let mut g = c.benchmark_group("repo_scan");
    g.sample_size(10);
    g.bench_function("detect_date_classify_273_repos", |b| {
        b.iter(|| std::hint::black_box(RepoScan::build(&w.repos, &w.history).detections.len()))
    });
    g.finish();
}

fn bench_table1_taxonomy(c: &mut Criterion) {
    let w = world();
    let scan = RepoScan::build(&w.repos, &w.history);
    let mut g = c.benchmark_group("table1_taxonomy");
    g.sample_size(10);
    g.bench_function("classify_273_repos", |b| {
        b.iter(|| {
            let report = psl_analysis::table1::run(&scan);
            std::hint::black_box(report.classified)
        })
    });
    g.finish();
}

fn bench_table2_missing_etlds(c: &mut Criterion) {
    let w = world();
    let scan = RepoScan::build(&w.repos, &w.history);
    let hosts = w.stream.hosts();
    let census = census(&walk(&w.history, hosts, MatchOpts::default()), hosts);
    let mut g = c.benchmark_group("table2_missing_etlds");
    g.sample_size(10);
    g.bench_function("impact_ranking", |b| {
        b.iter(|| {
            let report = psl_analysis::table2::run(&w.history, &census, &scan);
            std::hint::black_box(report.total_hostnames)
        })
    });
    g.finish();
}

fn bench_table3_projects(c: &mut Criterion) {
    let w = world();
    let scan = RepoScan::build(&w.repos, &w.history);
    let stats = sweep_stream(&w.history, &w.stream, &StreamSweepConfig::default()).stats;
    let mut g = c.benchmark_group("table3_projects");
    g.sample_size(10);
    g.bench_function("per_project_harm", |b| {
        b.iter(|| {
            let report = psl_analysis::table3::run(&scan, &stats);
            std::hint::black_box(report.rows.len())
        })
    });
    g.finish();
}

criterion_group!(
    tables,
    bench_repo_scan,
    bench_table1_taxonomy,
    bench_table2_missing_etlds,
    bench_table3_projects,
);
criterion_main!(tables);
