//! Engine micro-benches: the PSL primitives everything else is built on.

use criterion::{criterion_group, criterion_main, Criterion};
use psl_bench::world;
use psl_core::{parse_dat, punycode, DomainName, FrozenList, LabelInterner, List, MatchOpts};
use psl_history::DatingIndex;

fn bench_parse_dat(c: &mut Criterion) {
    let w = world();
    let text = w.history.latest_snapshot().to_dat();
    c.bench_function("parse_dat_full_list", |b| {
        b.iter(|| std::hint::black_box(parse_dat(&text).len()))
    });
}

fn bench_lookup(c: &mut Criterion) {
    let w = world();
    let list = w.history.latest_snapshot();
    let opts = MatchOpts::default();
    let hosts: Vec<Vec<&str>> =
        w.corpus.hosts().iter().take(1000).map(|h| h.labels_reversed()).collect();

    // The compiled path as callers with string labels see it (one interner
    // probe per label, then the arena walk).
    c.bench_function("disposition_1000_hosts", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for h in &hosts {
                if let Some(d) = list.disposition_reversed(h, opts) {
                    acc += d.suffix_len;
                }
            }
            std::hint::black_box(acc)
        })
    });

    // The zero-allocation inner loop: hosts pre-interned to id slices once
    // (as the sweep and the service cache do), arena walk only.
    let host_ids: Vec<Vec<u32>> = hosts
        .iter()
        .map(|h| {
            let mut ids = Vec::new();
            list.reversed_ids(h, &mut ids);
            ids
        })
        .collect();
    c.bench_function("frozen_ids_disposition_1000_hosts", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for ids in &host_ids {
                if let Some(d) = list.disposition_ids(ids, opts) {
                    acc += d.suffix_len;
                }
            }
            std::hint::black_box(acc)
        })
    });

    let miss = DomainName::parse("deep.sub.never-a-suffix.unknowntld").unwrap();
    let miss_rev = miss.labels_reversed();
    c.bench_function("disposition_miss", |b| {
        b.iter(|| std::hint::black_box(list.disposition_reversed(&miss_rev, opts)))
    });
}

fn bench_frozen_compile(c: &mut Criterion) {
    let w = world();
    let rules = w.history.rules_at(w.history.latest_version());
    c.bench_function("frozen_compile_full_list", |b| {
        b.iter(|| {
            let mut interner = LabelInterner::new();
            std::hint::black_box(FrozenList::compile(&rules, &mut interner).len())
        })
    });
}

/// Cold start from a compiled snapshot of the same list, at the two loader
/// tiers (compare `parse_dat_full_list` + `frozen_compile_full_list` for
/// starting from `.dat` text).
fn bench_snapshot_load(c: &mut Criterion) {
    let w = world();
    let bytes = w.history.latest_snapshot().write_snapshot();
    c.bench_function("frozen_load_full_list", |b| {
        b.iter(|| std::hint::black_box(FrozenList::load(&bytes).expect("own snapshot").1.len()))
    });
    c.bench_function("list_load_snapshot_full_list", |b| {
        b.iter(|| std::hint::black_box(List::load_snapshot(&bytes).expect("own snapshot").len()))
    });
}

fn bench_registrable_domain(c: &mut Criterion) {
    let list = List::parse("com\nuk\nco.uk\n*.ck\n!www.ck\ngithub.io\n");
    let opts = MatchOpts::default();
    let d = DomainName::parse("a.b.example.co.uk").unwrap();
    c.bench_function("registrable_domain", |b| {
        b.iter(|| std::hint::black_box(list.registrable_domain(&d, opts)))
    });
}

fn bench_punycode(c: &mut Criterion) {
    c.bench_function("punycode_encode", |b| {
        b.iter(|| std::hint::black_box(punycode::encode("bücher-straße").unwrap()))
    });
    c.bench_function("punycode_decode", |b| {
        b.iter(|| std::hint::black_box(punycode::decode("bcher-strae-fcb1e").ok()))
    });
}

fn bench_domain_parse(c: &mut Criterion) {
    c.bench_function("domain_parse_ascii", |b| {
        b.iter(|| std::hint::black_box(DomainName::parse("WWW.Shop.Example.CO.UK").unwrap()))
    });
    c.bench_function("domain_parse_idn", |b| {
        b.iter(|| std::hint::black_box(DomainName::parse("bücher.example.de").unwrap()))
    });
}

fn bench_dating(c: &mut Criterion) {
    let w = world();
    let mut g = c.benchmark_group("dating");
    g.sample_size(10);
    g.bench_function("index_build", |b| {
        b.iter(|| {
            let index = DatingIndex::build(&w.history);
            std::hint::black_box(&index);
        })
    });
    let index = DatingIndex::build(&w.history);
    let mid = w.history.versions()[w.history.version_count() / 2];
    let exact = w.history.rules_at(mid);
    g.bench_function("date_exact_copy", |b| {
        b.iter(|| std::hint::black_box(index.date_rules(&exact)))
    });
    let mut truncated = exact.clone();
    truncated.truncate(truncated.len() - truncated.len() / 20);
    g.bench_function("date_truncated_copy", |b| {
        b.iter(|| std::hint::black_box(index.date_rules(&truncated)))
    });
    g.finish();
}

criterion_group!(
    engine,
    bench_parse_dat,
    bench_frozen_compile,
    bench_snapshot_load,
    bench_lookup,
    bench_registrable_domain,
    bench_punycode,
    bench_domain_parse,
    bench_dating,
);
criterion_main!(engine);
