//! Determinism and invariant matrix: key invariants must hold for *every*
//! seed, and every generator must be a pure function of its config.

use psl_analysis::{build_substrates, PipelineConfig};
use psl_core::MatchOpts;
use psl_history::{generate, GeneratorConfig};
use psl_repocorpus::{evaluate, RepoGenConfig, RepoScan};
use psl_webcorpus::{generate_corpus, CorpusConfig};

const SEEDS: [u64; 5] = [1, 7, 99, 1234, 0xDEAD_BEEF];

#[test]
fn history_invariants_hold_across_seeds() {
    for seed in SEEDS {
        let h = generate(&GeneratorConfig::small(seed));
        // Versions sorted and unique.
        for w in h.versions().windows(2) {
            assert!(w[0] < w[1], "seed {seed}");
        }
        // Spans are well-formed.
        for span in h.spans() {
            assert!(span.added >= h.first_version(), "seed {seed}");
            if let Some(r) = span.removed {
                assert!(r > span.added, "seed {seed}");
            }
        }
        // Growth endpoints are calibrated.
        let first = h.rule_count_at(h.first_version());
        let last = h.rule_count_at(h.latest_version());
        assert!((first as f64 - 260.0).abs() < 30.0, "seed {seed}: first {first}");
        assert!((last as f64 - 950.0).abs() < 70.0, "seed {seed}: last {last}");
        // No duplicate rule texts among concurrently-live spans at the
        // latest version.
        let rules = h.rules_at(h.latest_version());
        let mut texts: Vec<String> = rules.iter().map(|r| r.as_text()).collect();
        let n = texts.len();
        texts.sort_unstable();
        texts.dedup();
        assert_eq!(texts.len(), n, "seed {seed}: duplicate live rules");
    }
}

#[test]
fn corpus_invariants_hold_across_seeds() {
    let h = generate(&GeneratorConfig::small(42));
    let latest = h.latest_snapshot();
    let opts = MatchOpts::default();
    for seed in SEEDS {
        let c = generate_corpus(&h, &CorpusConfig::small(seed));
        // All hosts valid and unique (CorpusBuilder guarantees; verify).
        let mut seen = std::collections::HashSet::new();
        for host in c.hosts() {
            assert!(seen.insert(host.as_str()), "seed {seed}: dup {host}");
        }
        // Every request references interned hosts and every host has a
        // resolvable site.
        for r in c.requests() {
            assert!((r.page as usize) < c.host_count());
            assert!((r.request as usize) < c.host_count());
        }
        for host in c.hosts().iter().step_by(17) {
            let _ = latest.site(host, opts);
        }
    }
}

#[test]
fn detector_is_perfect_for_every_seed() {
    let h = generate(&GeneratorConfig::small(77));
    for seed in SEEDS {
        let repos =
            psl_repocorpus::generate_repos(&h, &RepoGenConfig { seed, ..Default::default() });
        let eval = evaluate(&RepoScan::build(&repos, &h));
        assert_eq!(eval.accuracy, 1.0, "seed {seed}: {:?}", eval.confusion);
        assert_eq!(eval.missed, 0, "seed {seed}");
    }
}

#[test]
fn substrates_are_pure_functions_of_config() {
    for seed in [3u64, 1001] {
        let config = PipelineConfig::small(seed);
        let a = build_substrates(&config);
        let b = build_substrates(&config);
        assert_eq!(psl_history::to_json(&a.history), psl_history::to_json(&b.history));
        assert_eq!(a.stream.materialize().to_json(), b.stream.materialize().to_json());
        assert_eq!(a.repos.len(), b.repos.len());
        for (x, y) in a.repos.repos.iter().zip(&b.repos.repos) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.files.len(), y.files.len());
            for (fx, fy) in x.files.iter().zip(&y.files) {
                assert_eq!(fx.path, fy.path);
                assert_eq!(fx.content, fy.content);
            }
        }
    }
}

#[test]
fn fleet_harm_table_is_identical_across_threads_and_shards() {
    // The ISSUE's acceptance matrix: for a fixed seed the executed fleet
    // harm table must be byte-identical across --threads 1/4/8 and
    // --shards 1/4/13 (accumulator merges are order-independent and the
    // scripts derive from per-session seeds).
    let h = generate(&GeneratorConfig::small(42));
    let stream = psl_webcorpus::build_stream(&h, &CorpusConfig::small(43));
    let base = psl_analysis::FleetConfig { sessions: 500, max_versions: 4, ..Default::default() };
    let reference = psl_analysis::run_fleet(
        &h,
        &stream,
        &psl_analysis::FleetConfig { threads: 1, shards: 1, ..base },
    );
    let ref_json = serde_json::to_string(&reference.rows).unwrap();
    for threads in [1usize, 4, 8] {
        for shards in [1usize, 4, 13] {
            let out = psl_analysis::run_fleet(
                &h,
                &stream,
                &psl_analysis::FleetConfig { threads, shards, ..base },
            );
            assert_eq!(
                serde_json::to_string(&out.rows).unwrap(),
                ref_json,
                "threads={threads} shards={shards}"
            );
            assert_eq!(
                out.replayed_pairs, reference.replayed_pairs,
                "threads={threads} shards={shards}"
            );
        }
    }
}
