//! Generator configurations at the library edge. Each count field of
//! `GeneratorConfig` at 0 and at 1, and `RepoGenConfig`'s age medians,
//! spread and fractions at their extremes, must still generate a history,
//! stream 200 pages and 2,000 sessions over it, and generate and scan a
//! repository corpus, without a panic. The CLI exposes none of these
//! fields, but the configs are public.

use psl_history::{generate, GeneratorConfig, History};
use psl_repocorpus::{generate_repos, RepoGenConfig, RepoScan};
use psl_webcorpus::{build_stream, CorpusConfig};

/// Run every consumer over `history`, with repositories from `repos`.
fn exercise(case: &str, history: &History, repos: &RepoGenConfig) {
    let stream = build_stream(history, &CorpusConfig::small(21));
    let mut requests = Vec::new();
    for page in 0..200 {
        stream.page_requests(page, &mut requests);
    }
    let (sessions, mut events) = (stream.sessions(2_000), Vec::new());
    for index in 0..2_000 {
        sessions.session_events(index, &mut events);
    }
    let corpus = generate_repos(history, repos);
    let scan = RepoScan::build(&corpus, history);
    assert_eq!(scan.detections.len(), corpus.repos.len(), "{case}");
}

#[test]
fn generator_count_fields_at_zero_and_one_generate() {
    type Set = fn(&mut GeneratorConfig, usize);
    let fields: [(&str, Set); 7] = [
        ("versions", |c, n| c.versions = n),
        ("initial_rules", |c, n| c.initial_rules = n),
        ("rules_2017", |c, n| c.rules_2017 = n),
        ("final_rules", |c, n| c.final_rules = n),
        ("jp_spike", |c, n| c.jp_spike = n),
        ("exception_zones", |c, n| c.exception_zones = n),
        ("exceptions_per_zone", |c, n| c.exceptions_per_zone = n),
    ];
    for (field, set) in fields {
        for n in [0, 1] {
            let mut config = GeneratorConfig::small(61);
            set(&mut config, n);
            let history = generate(&config);
            assert!(history.version_count() >= 1, "{field} = {n}");
            exercise(&format!("{field} = {n}"), &history, &RepoGenConfig::default());
        }
    }
}

#[test]
fn repo_generator_extremes_generate() {
    type Set = fn(&mut RepoGenConfig);
    let cases: [(&str, Set); 7] = [
        ("fixed_age_median = 0", |c| c.fixed_age_median = 0.0),
        ("updated_age_median = 0", |c| c.updated_age_median = 0.0),
        ("dependency_age_median = 0", |c| c.dependency_age_median = 0.0),
        ("age_sigma = 0", |c| c.age_sigma = 0.0),
        ("renamed_fraction = 0", |c| c.renamed_fraction = 0.0),
        ("renamed_fraction = 1", |c| c.renamed_fraction = 1.0),
        ("include_named = false", |c| c.include_named = false),
    ];
    let history = generate(&GeneratorConfig::small(61));
    for (case, set) in cases {
        let mut config = RepoGenConfig::default();
        set(&mut config);
        exercise(case, &history, &config);
    }
}
