//! One bench per paper figure: the code that regenerates each figure's
//! data series, timed.

use criterion::{criterion_group, criterion_main, Criterion};
use psl_analysis::{figs567, stats_for_single_list, sweep_stream, StreamSweepConfig};
use psl_bench::world;
use psl_core::MatchOpts;
use psl_history::{DatingIndex, GrowthSeries};
use psl_iana::RootZoneDb;
use psl_repocorpus::DetectorConfig;

fn bench_fig2_growth(c: &mut Criterion) {
    let w = world();
    let db = RootZoneDb::embedded();
    c.bench_function("fig2_growth_series", |b| {
        b.iter(|| {
            let report = psl_analysis::fig2::run(&w.history, &db);
            std::hint::black_box(report.series.len())
        })
    });
    c.bench_function("fig2_growth_series_core", |b| {
        b.iter(|| std::hint::black_box(GrowthSeries::compute(&w.history).points.len()))
    });
}

fn bench_fig3_list_age(c: &mut Criterion) {
    let w = world();
    let reference = w.history.latest_snapshot();
    let index = DatingIndex::build(&w.history);
    let detector = DetectorConfig::default();
    let mut g = c.benchmark_group("fig3_list_age");
    g.sample_size(10);
    g.bench_function("ecdf_over_corpus", |b| {
        b.iter(|| {
            let report = psl_analysis::fig3::run(&w.repos, &reference, &index, &detector);
            std::hint::black_box(report.groups.len())
        })
    });
    g.finish();
}

fn bench_fig4_popularity(c: &mut Criterion) {
    let w = world();
    let reference = w.history.latest_snapshot();
    let index = DatingIndex::build(&w.history);
    let detector = DetectorConfig::default();
    let mut g = c.benchmark_group("fig4_popularity");
    g.sample_size(10);
    g.bench_function("scatter_over_corpus", |b| {
        b.iter(|| {
            let report = psl_analysis::fig4::run(&w.repos, &reference, &index, &detector);
            std::hint::black_box(report.points.len())
        })
    });
    g.finish();
}

fn bench_fig5_sites(c: &mut Criterion) {
    let w = world();
    let latest = w.history.latest_snapshot();
    let first = w.history.snapshot_at(w.history.first_version());
    c.bench_function("fig5_sites_one_version", |b| {
        b.iter(|| {
            let s = stats_for_single_list(&w.corpus, &first, &latest, MatchOpts::default());
            std::hint::black_box(s.sites)
        })
    });
}

fn bench_fig6_third_party(c: &mut Criterion) {
    let w = world();
    let latest = w.history.latest_snapshot();
    let mid = w.history.version_at_or_before(psl_core::Date::parse("2015-01-01").unwrap()).unwrap();
    let mid_list = w.history.snapshot_at(mid);
    c.bench_function("fig6_third_party_one_version", |b| {
        b.iter(|| {
            let s = stats_for_single_list(&w.corpus, &mid_list, &latest, MatchOpts::default());
            std::hint::black_box(s.third_party_requests)
        })
    });
}

fn bench_fig7_misclassification(c: &mut Criterion) {
    let w = world();
    let latest = w.history.latest_snapshot();
    let first = w.history.snapshot_at(w.history.first_version());
    c.bench_function("fig7_misclassification_one_version", |b| {
        b.iter(|| {
            let s = stats_for_single_list(&w.corpus, &first, &latest, MatchOpts::default());
            std::hint::black_box(s.hosts_in_different_site_vs_latest)
        })
    });
}

fn bench_figs567_full_sweep(c: &mut Criterion) {
    let w = world();
    let mut g = c.benchmark_group("figs567_full_sweep");
    g.sample_size(10);
    g.bench_function("all_versions", |b| {
        b.iter(|| {
            let out = sweep_stream(&w.history, &w.stream, &StreamSweepConfig::default());
            let report =
                figs567::package(&out.stats, w.stream.host_count(), out.total_requests as usize);
            std::hint::black_box(report.rows.len())
        })
    });
    g.finish();
}

criterion_group!(
    figures,
    bench_fig2_growth,
    bench_fig3_list_age,
    bench_fig4_popularity,
    bench_fig5_sites,
    bench_fig6_third_party,
    bench_fig7_misclassification,
    bench_figs567_full_sweep,
);
criterion_main!(figures);
