//! Cross-crate invariants: the same question answered through different
//! crates' code paths must agree.

use psl_core::{DomainName, MatchOpts};
use psl_history::{generate, GeneratorConfig};
use psl_webcorpus::{generate_corpus, CorpusConfig};

#[test]
fn trie_and_linear_matcher_agree_on_generated_lists() {
    // The production walk over the compiled arena trie vs. the reference
    // linear matcher, over a real generated rule set and real corpus
    // hostnames.
    let history = generate(&GeneratorConfig::small(303));
    let corpus = generate_corpus(&history, &CorpusConfig::small(17));
    let list = history.latest_snapshot();
    let opts = MatchOpts::default();
    for host in corpus.hosts().iter().step_by(7) {
        let reversed = host.labels_reversed();
        let trie = list.disposition_reversed(&reversed, opts);
        let linear = psl_core::trie::disposition_linear(list.rules(), &reversed, opts);
        assert_eq!(trie, linear, "host {host}");
    }
}

#[test]
fn owned_walk_agrees_with_linear_on_the_embedded_list() {
    // The walk over the owned list, by labels and by the list's ids (the
    // service's path), against the linear reference scan, over hostnames
    // derived from every rule in the shipped mini PSL.
    let list = psl_core::embedded_list();
    let mut ids = Vec::new();
    let mut hosts: Vec<String> = Vec::new();
    for rule in list.rules() {
        let suffix = rule.labels().join(".");
        hosts.push(suffix.clone());
        hosts.push(format!("alpha.{suffix}"));
        hosts.push(format!("beta.alpha.{suffix}"));
    }
    hosts.extend(
        ["unlisted-zone", "deep.under.unlisted-zone", "com", "localhost"]
            .iter()
            .map(|s| s.to_string()),
    );
    let opts_matrix = [
        MatchOpts::default(),
        MatchOpts { include_private: false, ..MatchOpts::default() },
        MatchOpts { implicit_wildcard: false, ..MatchOpts::default() },
    ];
    for host in &hosts {
        let Ok(domain) = DomainName::parse(host) else { continue };
        let reversed = domain.labels_reversed();
        list.reversed_ids(&reversed, &mut ids);
        for opts in opts_matrix {
            let linear = psl_core::trie::disposition_linear(list.rules(), &reversed, opts);
            let owned = list.disposition_reversed(&reversed, opts);
            assert_eq!(owned, linear, "owned vs linear on {host} ({opts:?})");
            let by_ids = list.disposition_ids(&ids, opts);
            assert_eq!(by_ids, linear, "owned ids vs linear on {host} ({opts:?})");
        }
    }
}

#[test]
fn corpus_hostnames_respect_core_validation() {
    let history = generate(&GeneratorConfig::small(305));
    let corpus = generate_corpus(&history, &CorpusConfig::small(19));
    for host in corpus.hosts() {
        let reparsed = DomainName::parse(host.as_str()).unwrap();
        assert_eq!(&reparsed, host);
    }
}

#[test]
fn iana_categories_cover_every_generated_rule() {
    let history = generate(&GeneratorConfig::small(309));
    let db = psl_iana::RootZoneDb::embedded();
    let latest = history.latest_snapshot();
    let counts = psl_iana::classify_rules(&db, latest.rules());
    let total: usize = counts.values().sum();
    assert_eq!(total, latest.len());
    // The generated list has both private rules and ccTLD-ish entries.
    assert!(counts.iter().any(|(c, _)| matches!(c, psl_iana::SuffixClass::PrivateDomain)));
    assert!(counts.iter().any(|(c, _)| matches!(c, psl_iana::SuffixClass::Tld(_))));
}

#[test]
fn urls_round_trip_through_corpus_hosts() {
    // Build URLs from corpus hostnames, strip them back to domains (the
    // paper's step 1), and verify identity.
    let history = generate(&GeneratorConfig::small(311));
    let corpus = generate_corpus(&history, &CorpusConfig::small(23));
    for host in corpus.hosts().iter().take(200) {
        let url = format!("https://{}/index.html?utm=1", host.as_str());
        let domain = psl_core::Url::domain_of(&url).unwrap();
        assert_eq!(&domain, host);
    }
}

#[test]
fn site_grouping_is_stable_under_serialization() {
    let history = generate(&GeneratorConfig::small(313));
    let corpus = generate_corpus(&history, &CorpusConfig::small(29));
    let json = corpus.to_json();
    let back = psl_webcorpus::WebCorpus::from_json(&json).unwrap();
    let list = history.latest_snapshot();
    let opts = MatchOpts::default();
    for (a, b) in corpus.hosts().iter().zip(back.hosts()).step_by(11) {
        assert_eq!(list.site(a, opts), list.site(b, opts));
    }
}
