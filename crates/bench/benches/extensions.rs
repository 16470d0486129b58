//! Benches for the extension experiments: supercookie harm, DBOUND site
//! derivation, and DMARC discovery.

use criterion::{criterion_group, criterion_main, Criterion};
use psl_analysis::{sweep_stream, StreamSweepConfig};
use psl_bench::world;
use psl_core::{DomainName, MatchOpts};
use psl_dns::{discover, publish_list, site_of, ZoneStore};

fn bench_cookie_harm(c: &mut Criterion) {
    let w = world();
    let mut g = c.benchmark_group("ext_cookie_harm");
    g.sample_size(10);
    g.bench_function("all_versions", |b| {
        b.iter(|| {
            let report =
                psl_analysis::cookie_harm::run(&w.history, &w.corpus, MatchOpts::default());
            std::hint::black_box(report.rows.len())
        })
    });
    g.finish();
}

fn bench_dbound(c: &mut Criterion) {
    let w = world();
    let latest = w.history.latest_snapshot();
    let mut zones = ZoneStore::new();
    publish_list(&mut zones, &latest);
    let host = DomainName::parse("deep.customer.myshopify.com").unwrap();

    c.bench_function("ext_dbound_site_of", |b| {
        b.iter(|| std::hint::black_box(site_of(&zones, &host)))
    });

    let mut g = c.benchmark_group("ext_dbound_experiment");
    g.sample_size(10);
    g.bench_function("publish_full_list", |b| {
        b.iter(|| {
            let mut z = ZoneStore::new();
            std::hint::black_box(publish_list(&mut z, &latest))
        })
    });
    g.bench_function("full_comparison", |b| {
        let stats = sweep_stream(&w.history, &w.stream, &StreamSweepConfig::default()).stats;
        b.iter(|| {
            let report =
                psl_analysis::dbound_exp::run(&w.history, &w.corpus, &stats, MatchOpts::default());
            std::hint::black_box(report.dbound_misgrouped)
        })
    });
    g.finish();
}

fn bench_dmarc(c: &mut Criterion) {
    let w = world();
    let latest = w.history.latest_snapshot();
    let mut zones = ZoneStore::new();
    let org = DomainName::parse("_dmarc.customer.myshopify.com").unwrap();
    zones.insert_txt(&org, 300, "v=DMARC1; p=reject");
    let from = DomainName::parse("mail.customer.myshopify.com").unwrap();
    c.bench_function("ext_dmarc_discover", |b| {
        b.iter(|| std::hint::black_box(discover(&zones, &latest, &from, MatchOpts::default())))
    });
}

fn bench_cert_harm(c: &mut Criterion) {
    let w = world();
    let mut g = c.benchmark_group("ext_cert_harm");
    g.sample_size(10);
    g.bench_function("all_versions", |b| {
        b.iter(|| {
            let report = psl_analysis::cert_harm::run(&w.history, &w.corpus, MatchOpts::default());
            std::hint::black_box(report.rows.len())
        })
    });
    g.finish();
}

fn bench_update_failure(c: &mut Criterion) {
    let w = world();
    let index = psl_history::DatingIndex::build(&w.history);
    let detector = psl_repocorpus::DetectorConfig::default();
    let mut g = c.benchmark_group("ext_update_failure");
    g.sample_size(10);
    g.bench_function("expected_harm", |b| {
        b.iter(|| {
            let report = psl_analysis::update_failure::run(
                &w.history,
                &w.corpus,
                &w.repos,
                &index,
                &detector,
                &psl_analysis::update_failure::FallbackModel::default(),
                MatchOpts::default(),
            );
            std::hint::black_box(report.rows.len())
        })
    });
    g.finish();
}

fn bench_browser_replay(c: &mut Criterion) {
    let w = world();
    let mut g = c.benchmark_group("ext_browser_replay");
    g.sample_size(10);
    g.bench_function("replay_12_versions", |b| {
        b.iter(|| {
            let report = psl_analysis::browser_replay::run(
                &w.history,
                &w.corpus,
                12,
                80,
                MatchOpts::default(),
            );
            std::hint::black_box(report.rows.len())
        })
    });
    g.finish();
}

criterion_group!(
    extensions,
    bench_cookie_harm,
    bench_dbound,
    bench_dmarc,
    bench_cert_harm,
    bench_update_failure,
    bench_browser_replay,
);
criterion_main!(extensions);
