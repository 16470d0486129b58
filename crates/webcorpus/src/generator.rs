//! HTTP-Archive-like corpus generator.
//!
//! Builds a synthetic snapshot of web requests whose *suffix structure*
//! reacts to PSL age the way the paper's real snapshot does:
//!
//! - organisations own registrable domains under stable (2007-era)
//!   suffixes, with several subdomains each — the bulk of traffic;
//! - shared-hosting platforms (the Table 2 eTLDs, plus every other
//!   late-added private suffix) carry many single-customer hostnames:
//!   using a list from before the suffix's addition collapses all
//!   customers into one site (Figure 5's growth, Figure 6's late rise,
//!   Figure 7's misclassifications, Table 2's impact counts);
//! - exception-zone cities (`!city.zone.jp` under `*.zone.jp`) host
//!   sibling hostnames whose cross-requests are third-party until the
//!   exception lands — the early-era drop in Figure 6;
//! - a pool of third-party trackers is requested from everywhere.
//!
//! Hostname counts for the Table 2 eTLDs follow the paper's reported
//! counts, scaled by `CorpusConfig::scale`.

use crate::model::{CorpusBuilder, HostId, WebCorpus};
use crate::stream::{Pools, StreamCorpus};
use psl_core::{Date, DomainName, Rule, RuleKind, Section};
use psl_history::{seeds, History};
use psl_stats::derive_seed;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Stream tag separating the per-page request RNG streams from the
/// population draws (which consume the raw seed sequentially).
const PAGE_STREAM_TAG: u64 = 0x7061_6765_7371; // "pagesq"

/// Configuration for [`generate_corpus`].
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// RNG seed.
    pub seed: u64,
    /// Multiplier on the paper's Table 2 hostname counts (1.0 reproduces
    /// them exactly; the default keeps laptop runs fast).
    pub scale: f64,
    /// Number of organisations with their own registrable domains.
    pub org_sites: usize,
    /// Customers per non-Table-2 late platform suffix (mean of a
    /// geometric-ish draw).
    pub platform_customers_other: usize,
    /// Hostnames placed under each excepted city.
    pub exception_city_hosts: usize,
    /// JP-spike rules that receive hostnames, and hosts per rule.
    pub spike_rules_populated: usize,
    /// Hosts per populated spike rule.
    pub spike_hosts_per_rule: usize,
    /// Number of pages issuing requests.
    pub pages: usize,
    /// Mean requests per page.
    pub requests_per_page: usize,
    /// Number of distinct third-party tracker hosts.
    pub trackers: usize,
    /// Snapshot date (paper: July 2022).
    pub snapshot_date: Date,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            seed: 0x0c0f_fee5,
            scale: 0.10,
            org_sites: 3000,
            platform_customers_other: 12,
            exception_city_hosts: 4,
            spike_rules_populated: 220,
            spike_hosts_per_rule: 3,
            pages: 15_000,
            requests_per_page: 12,
            trackers: 40,
            snapshot_date: Date::from_days_since_epoch(19174), // 2022-07-01
        }
    }
}

impl CorpusConfig {
    /// Reduced-scale configuration for tests.
    pub fn small(seed: u64) -> Self {
        CorpusConfig {
            seed,
            scale: 0.02,
            org_sites: 250,
            platform_customers_other: 5,
            exception_city_hosts: 3,
            spike_rules_populated: 40,
            spike_hosts_per_rule: 2,
            pages: 1200,
            requests_per_page: 8,
            trackers: 12,
            ..Default::default()
        }
    }

    /// Resize `pages` so the stream's *expected* request count hits
    /// `target` (each page emits `requests_per_page + ½` requests on
    /// average). The host population is untouched: request volume and
    /// memory footprint are decoupled by design.
    pub fn with_target_requests(mut self, target: u64) -> Self {
        let per_page = self.requests_per_page.max(1) as f64 + 0.5;
        self.pages = ((target as f64 / per_page).round() as usize).max(1);
        self
    }
}

/// Generate a corpus against a history (hostnames are placed under the
/// latest list's suffixes; old versions then misgroup them).
///
/// Defined as the fully materialized stream of [`build_stream`]: the
/// legacy in-memory path and the streaming path agree by construction.
pub fn generate_corpus(history: &History, config: &CorpusConfig) -> WebCorpus {
    build_stream(history, config).materialize()
}

/// Build the host population and sampling pools for `config`, returning
/// a [`StreamCorpus`] that generates the request stream on demand.
///
/// The population is drawn from one sequential RNG seeded with
/// `config.seed`; per-page request streams are derived seeds, so neither
/// side perturbs the other and request volume never changes the hosts.
///
/// # Panics
///
/// Refuses, naming the field, a config whose pages and sessions could not
/// be generated: no `trackers` (every page may request one), no
/// `org_sites` (most pages and sessions are an organisation's), or no
/// `exception_city_hosts` when the list has excepted cities (a city page
/// is one of its city's hosts). A list without excepted cities may have
/// no city hosts: a city page then emits nothing.
pub fn build_stream(history: &History, config: &CorpusConfig) -> StreamCorpus {
    assert!(config.trackers > 0, "CorpusConfig::trackers is 0: pages request trackers");
    assert!(config.org_sites > 0, "CorpusConfig::org_sites is 0: pages visit organisations");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut b = CorpusBuilder::new();
    let latest_rules = history
        .rules_at(history.latest_version().min(config.snapshot_date).max(history.first_version()));
    // Use the latest version's rules when the snapshot postdates it.
    let rules = if latest_rules.is_empty() {
        history.rules_at(history.latest_version())
    } else {
        latest_rules
    };

    let words = WordGen::new();
    let first_version = history.first_version();

    // ---- Partition latest rules into population pools. -------------------
    let mut stable_suffixes: Vec<String> = Vec::new(); // org homes
    let mut platform_suffixes: Vec<String> = Vec::new(); // late additions
    let mut exception_rules: Vec<&Rule> = Vec::new();
    let mut spike_rules: Vec<String> = Vec::new();
    let spike_lo = Date::parse("2012-06-01").expect("const date");
    let spike_hi = Date::parse("2013-01-01").expect("const date");
    let added_by_text: HashMap<String, Date> =
        history.spans().iter().map(|s| (s.rule.as_text(), s.added)).collect();
    let table2: std::collections::HashSet<&str> = seeds::TABLE2_ETLDS.iter().copied().collect();

    for rule in &rules {
        let text = rule.as_text();
        let added = added_by_text.get(&text).copied().unwrap_or(first_version);
        match rule.kind() {
            RuleKind::Exception => {
                if rule.labels().len() == 3 {
                    exception_rules.push(rule);
                }
            }
            RuleKind::Wildcard => {}
            RuleKind::Normal => {
                let is_late_private = rule.section() == Section::Private && added > first_version;
                let is_table2 = table2.contains(text.as_str());
                if is_table2 || is_late_private {
                    platform_suffixes.push(text.clone());
                } else if added == first_version && rule.labels().len() <= 2 {
                    stable_suffixes.push(text.clone());
                } else if (spike_lo..spike_hi).contains(&added)
                    && rule.labels().len() == 3
                    && text.ends_with(".jp")
                {
                    spike_rules.push(text.clone());
                }
            }
        }
    }
    stable_suffixes.sort_unstable();
    platform_suffixes.sort_unstable();
    spike_rules.sort_unstable();
    // Table 2 suffixes must come first (they get paper-calibrated
    // populations).
    platform_suffixes
        .sort_by_key(|s| seeds::TABLE2_ETLDS.iter().position(|&t| t == s).unwrap_or(usize::MAX));
    assert!(
        !stable_suffixes.is_empty(),
        "history has no stable suffixes to place organisations under"
    );
    assert!(
        config.exception_city_hosts > 0 || exception_rules.is_empty(),
        "CorpusConfig::exception_city_hosts is 0, but the list has {} excepted cities: a city \
         page is one of its city's hosts",
        exception_rules.len()
    );

    // ---- Organisations. ---------------------------------------------------
    const SUBHOSTS: &[&str] = &["www", "cdn", "shop", "api", "blog", "static", "mail"];
    let mut orgs: Vec<Vec<HostId>> = Vec::with_capacity(config.org_sites);
    for i in 0..config.org_sites {
        let suffix = &stable_suffixes[rng.gen_range(0..stable_suffixes.len())];
        let brand = format!("{}{}", words.word(&mut rng), i);
        let n_hosts = 1 + rng.gen_range(0..SUBHOSTS.len());
        let mut hosts = Vec::with_capacity(n_hosts);
        for sub in SUBHOSTS.iter().take(n_hosts) {
            let name = DomainName::parse(&format!("{sub}.{brand}.{suffix}"))
                .expect("generated hostname is valid");
            hosts.push(b.host(&name));
        }
        orgs.push(hosts);
    }

    // ---- Platform customers. ----------------------------------------------
    let mut platforms: Vec<(String, Vec<HostId>)> = Vec::new();
    for (pi, suffix) in platform_suffixes.iter().enumerate() {
        let customers = if let Some(t2) = seeds::TABLE2_ETLDS.iter().position(|&t| t == suffix) {
            ((seeds::TABLE2_HOSTNAMES[t2] as f64 * config.scale).round() as usize).max(2)
        } else {
            1 + rng.gen_range(0..config.platform_customers_other.max(1) * 2)
        };
        let mut hosts = Vec::with_capacity(customers);
        for ci in 0..customers {
            let name =
                DomainName::parse(&format!("{}{}x{}.{suffix}", words.word(&mut rng), pi, ci))
                    .expect("generated hostname is valid");
            hosts.push(b.host(&name));
        }
        platforms.push((suffix.clone(), hosts));
    }

    // ---- Exception-zone cities. --------------------------------------------
    let mut cities: Vec<Vec<HostId>> = Vec::new();
    for rule in &exception_rules {
        let city = rule.labels().join(".");
        let mut hosts = Vec::with_capacity(config.exception_city_hosts);
        for hi in 0..config.exception_city_hosts {
            let name = DomainName::parse(&format!("{}{hi}.{city}", words.word(&mut rng)))
                .expect("generated hostname is valid");
            hosts.push(b.host(&name));
        }
        cities.push(hosts);
    }

    // ---- JP spike hostnames (population only; traffic via org pages). -----
    let mut spike_hosts: Vec<HostId> = Vec::new();
    for rule_text in spike_rules.iter().take(config.spike_rules_populated) {
        for hi in 0..config.spike_hosts_per_rule {
            let name = DomainName::parse(&format!("{}{hi}.{rule_text}", words.word(&mut rng)))
                .expect("generated hostname is valid");
            spike_hosts.push(b.host(&name));
        }
    }

    // ---- Trackers. ----------------------------------------------------------
    let mut trackers = Vec::with_capacity(config.trackers);
    for ti in 0..config.trackers {
        let name = DomainName::parse(&format!("track{ti}.{}{ti}.com", words.word(&mut rng)))
            .expect("generated hostname is valid");
        trackers.push(b.host(&name));
    }

    let pools = Pools {
        orgs,
        platforms: platforms.into_iter().map(|(_, customers)| customers).collect(),
        cities,
        trackers,
        spike_hosts,
    };
    StreamCorpus::new(
        config.snapshot_date,
        b.finish_hosts(),
        pools,
        config.pages,
        config.requests_per_page,
        derive_seed(config.seed, PAGE_STREAM_TAG),
    )
}

/// Tiny pronounceable-word generator (stateless).
struct WordGen {
    consonants: &'static [u8],
    vowels: &'static [u8],
}

impl WordGen {
    fn new() -> Self {
        WordGen { consonants: b"bcdfghjklmnpqrstvwz", vowels: b"aeiou" }
    }

    fn word(&self, rng: &mut StdRng) -> String {
        let syllables = 2 + rng.gen_range(0..2usize);
        let mut s = String::with_capacity(syllables * 2);
        for _ in 0..syllables {
            s.push(self.consonants[rng.gen_range(0..self.consonants.len())] as char);
            s.push(self.vowels[rng.gen_range(0..self.vowels.len())] as char);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psl_core::MatchOpts;
    use psl_history::{generate, GeneratorConfig};

    fn history() -> History {
        generate(&GeneratorConfig::small(61))
    }

    #[test]
    fn corpus_is_generated_and_deterministic() {
        let h = history();
        let cfg = CorpusConfig::small(1);
        let a = generate_corpus(&h, &cfg);
        let c = generate_corpus(&h, &cfg);
        assert!(a.host_count() > 500, "{}", a.host_count());
        assert!(a.request_count() > 2000, "{}", a.request_count());
        assert_eq!(a.host_count(), c.host_count());
        assert_eq!(a.request_count(), c.request_count());
        assert_eq!(a.hosts()[17].as_str(), c.hosts()[17].as_str());
        let d = generate_corpus(&h, &CorpusConfig::small(2));
        assert_ne!(a.hosts()[5].as_str(), d.hosts()[5].as_str());
    }

    #[test]
    fn table2_suffixes_carry_scaled_populations() {
        let h = history();
        let cfg = CorpusConfig::small(3);
        let corpus = generate_corpus(&h, &cfg);
        for (i, &etld) in seeds::TABLE2_ETLDS.iter().enumerate() {
            let expect = ((seeds::TABLE2_HOSTNAMES[i] as f64 * cfg.scale).round() as usize).max(2);
            let count = corpus
                .hosts()
                .iter()
                .filter(|host| {
                    host.as_str().len() > etld.len() + 1
                        && host.as_str().ends_with(etld)
                        && host.as_str().as_bytes()[host.as_str().len() - etld.len() - 1] == b'.'
                })
                .count();
            assert_eq!(count, expect, "population under {etld}");
        }
    }

    #[test]
    fn hostnames_are_valid_and_unique() {
        let h = history();
        let corpus = generate_corpus(&h, &CorpusConfig::small(5));
        let mut seen = std::collections::HashSet::new();
        for host in corpus.hosts() {
            assert!(seen.insert(host.as_str()), "duplicate {host}");
            // Re-parse must succeed (canonical form).
            assert!(DomainName::parse(host.as_str()).is_ok());
        }
    }

    #[test]
    fn old_list_collapses_platform_customers() {
        let h = history();
        let corpus = generate_corpus(&h, &CorpusConfig::small(7));
        let old = h.snapshot_at(h.first_version());
        let new = h.latest_snapshot();
        let opts = MatchOpts::default();
        // Count distinct sites among hosts under myshopify.com.
        let shopify_hosts: Vec<&DomainName> = corpus
            .hosts()
            .iter()
            .filter(|host| host.as_str().ends_with(".myshopify.com"))
            .collect();
        assert!(shopify_hosts.len() >= 2);
        let sites = |list: &psl_core::List| -> std::collections::HashSet<String> {
            shopify_hosts.iter().map(|h| list.site(h, opts).as_str().to_string()).collect()
        };
        assert_eq!(sites(&old).len(), 1, "old list should merge all customers");
        assert_eq!(sites(&new).len(), shopify_hosts.len());
    }

    #[test]
    fn exception_city_pairs_exist() {
        let h = history();
        let corpus = generate_corpus(&h, &CorpusConfig::small(9));
        // At least one request pair between two distinct hosts in an
        // excepted city (both endpoints share their 3-label parent).
        let mut found = false;
        for r in corpus.requests() {
            if r.page == r.request {
                continue;
            }
            let p = corpus.host(r.page);
            let q = corpus.host(r.request);
            let ps: Vec<&str> = p.labels().collect();
            let qs: Vec<&str> = q.labels().collect();
            if ps.len() == 4 && qs.len() == 4 && ps[1..] == qs[1..] && ps.last() == Some(&"jp") {
                found = true;
                break;
            }
        }
        assert!(found, "no exception-city sibling request pairs");
    }

    #[test]
    fn requests_reference_valid_hosts() {
        let h = history();
        let corpus = generate_corpus(&h, &CorpusConfig::small(11));
        let n = corpus.host_count() as u32;
        for r in corpus.requests() {
            assert!(r.page < n && r.request < n);
        }
    }
}
