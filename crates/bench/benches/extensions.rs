//! Benches for the extension experiments: the supercookie and wildcard
//! certificate harms, DBOUND site derivation, and DMARC discovery.

use criterion::{criterion_group, criterion_main, Criterion};
use psl_analysis::walker::{census, walk};
use psl_analysis::{sweep_stream, StreamSweepConfig};
use psl_bench::world;
use psl_core::{DomainName, MatchOpts};
use psl_dns::{discover, publish_list, site_of, ZoneStore};

fn bench_cookie_and_cert_harm(c: &mut Criterion) {
    let w = world();
    let hosts = w.stream.hosts();
    let opts = MatchOpts::default();
    let census = census(&walk(&w.history, hosts, opts), hosts);
    let mut g = c.benchmark_group("ext_cookie_and_cert_harm");
    g.sample_size(10);
    g.bench_function("cookies_and_certs_all_versions", |b| {
        b.iter(|| {
            let (cookies, certs) = psl_analysis::cookie_harm::run(&w.history, &census, opts);
            std::hint::black_box(cookies.rows.len() + certs.rows.len())
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
        let hosts = w.stream.hosts();
        let walked = walk(&w.history, hosts, MatchOpts::default());
        b.iter(|| {
            let report = psl_analysis::dbound_exp::run(&w.history, hosts, &walked, &stats);
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

fn bench_update_failure(c: &mut Criterion) {
    let w = world();
    let scan = psl_repocorpus::RepoScan::build(&w.repos, &w.history);
    let stats = sweep_stream(&w.history, &w.stream, &StreamSweepConfig::default()).stats;
    let mut g = c.benchmark_group("ext_update_failure");
    g.sample_size(10);
    g.bench_function("expected_harm", |b| {
        b.iter(|| {
            let report = psl_analysis::update_failure::run(
                &scan,
                &stats,
                &psl_analysis::update_failure::FallbackModel::default(),
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
                &w.stream,
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
    bench_cookie_and_cert_harm,
    bench_dbound,
    bench_dmarc,
    bench_update_failure,
    bench_browser_replay,
);
criterion_main!(extensions);
