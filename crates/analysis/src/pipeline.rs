//! End-to-end pipeline: generate every substrate, run every experiment.
//!
//! [`run_all`] is what the CLI and the integration tests drive: one seed in,
//! the full set of paper artifacts out.

use crate::sweep::resolved_threads;
use crate::sweep_stream::{sweep_walked, StreamSweepConfig};
use crate::walker::{census, walk};
use crate::{
    browser_replay, category_shift, cookie_harm, dbound_exp, fig2, fig3, fig4, figs567, table1,
    table2, table3, update_failure,
};
use psl_history::{GeneratorConfig, History};
use psl_iana::RootZoneDb;
use psl_repocorpus::{RepoCorpus, RepoGenConfig, RepoScan};
use psl_webcorpus::{CorpusConfig, StreamCorpus};
use serde::Serialize;

/// Top-level pipeline configuration.
#[derive(Debug, Clone, Default)]
pub struct PipelineConfig {
    /// History generator config.
    pub history: GeneratorConfig,
    /// Web corpus config.
    pub corpus: CorpusConfig,
    /// Repository corpus config.
    pub repos: RepoGenConfig,
    /// Sweep options (Figures 5–7); their match options are every
    /// host-level experiment's.
    pub sweep: StreamSweepConfig,
}

impl PipelineConfig {
    /// Small configuration for tests and quick runs.
    pub fn small(seed: u64) -> Self {
        PipelineConfig {
            history: GeneratorConfig::small(seed),
            corpus: CorpusConfig::small(seed.wrapping_add(1)),
            repos: RepoGenConfig { seed: seed.wrapping_add(2), ..Default::default() },
            ..Default::default()
        }
    }
}

/// The generated substrates, reusable across experiments.
pub struct Substrates {
    /// The versioned list history.
    pub history: History,
    /// The web request corpus as a stream: its hosts, and its requests
    /// generated on demand.
    pub stream: StreamCorpus,
    /// The repository corpus.
    pub repos: RepoCorpus,
    /// IANA snapshot.
    pub iana: RootZoneDb,
}

/// Generate all substrates for a pipeline config.
pub fn build_substrates(config: &PipelineConfig) -> Substrates {
    let history = psl_history::generate(&config.history);
    let stream = psl_webcorpus::build_stream(&history, &config.corpus);
    let repos = psl_repocorpus::generate_repos(&history, &config.repos);
    Substrates { history, stream, repos, iana: RootZoneDb::embedded() }
}

/// Every paper artifact in one bundle.
#[derive(Debug, Clone, Serialize)]
pub struct FullReport {
    /// Figure 2.
    pub fig2: fig2::Fig2Report,
    /// Table 1.
    pub table1: table1::Table1Report,
    /// Figure 3.
    pub fig3: fig3::Fig3Report,
    /// Figure 4.
    pub fig4: fig4::Fig4Report,
    /// Figures 5–7.
    pub figs567: figs567::SweepReport,
    /// Table 2.
    pub table2: table2::Table2Report,
    /// Table 3.
    pub table3: table3::Table3Report,
    /// Extension: supercookie acceptance per version.
    pub cookie_harm: cookie_harm::CookieHarmReport,
    /// Extension: DBOUND vs. stale lists.
    pub dbound: dbound_exp::DboundReport,
    /// Extension: wildcard mis-issuance per version.
    pub cert_harm: cookie_harm::CertHarmReport,
    /// Extension: expected harm of failing update strategies.
    pub update_failure: update_failure::UpdateFailureReport,
    /// Extension: browser decision divergence per (sampled) version.
    pub browser_replay: browser_replay::BrowserReplayReport,
    /// Extension: Figure 7 by IANA suffix class.
    pub category_shift: category_shift::CategoryShiftReport,
}

/// Run every experiment over prebuilt substrates.
pub fn run_all(subs: &Substrates, config: &PipelineConfig) -> FullReport {
    // One scan serves every repository experiment. One walk of the corpus
    // hosts serves every host-level one: the Figures 5-7 sweep (joined at
    // each copy's dated version by Table 3 and the update-failure
    // extension), the suffix census behind Table 2 and the cookie and
    // certificate harms, DBOUND and the category shift.
    let scan = RepoScan::build(&subs.repos, &subs.history);
    let (history, hosts, opts) = (&subs.history, subs.stream.hosts(), config.sweep.opts);
    let walked = walk(history, hosts, opts, resolved_threads(config.sweep.threads, usize::MAX));
    let sweep = sweep_walked(history, &subs.stream, &walked, &config.sweep);
    let stats = &sweep.stats;
    let census = census(&walked, hosts);
    let (cookie_harm, cert_harm) = cookie_harm::run(history, &census, opts);
    FullReport {
        fig2: fig2::run(history, &subs.iana),
        table1: table1::run(&scan),
        fig3: fig3::run(&scan),
        fig4: fig4::run(&scan),
        figs567: figs567::package(stats, hosts.len(), sweep.total_requests as usize),
        table2: table2::run(history, &census, &scan),
        table3: table3::run(&scan, stats),
        cookie_harm,
        dbound: dbound_exp::run(history, hosts, &walked, stats),
        cert_harm,
        update_failure: update_failure::run(
            &scan,
            stats,
            &update_failure::FallbackModel::default(),
        ),
        browser_replay: browser_replay::run(history, &subs.stream, 16, 120, opts),
        category_shift: category_shift::run(history, hosts, &walked, &subs.iana, 20, opts),
    }
}

impl FullReport {
    /// JSON export for EXPERIMENTS.md bookkeeping.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psl_repocorpus::UsageClass;

    #[test]
    fn full_pipeline_produces_every_artifact() {
        let config = PipelineConfig::small(201);
        let subs = build_substrates(&config);
        let report = run_all(&subs, &config);

        assert!(!report.fig2.series.is_empty());
        assert_eq!(report.table1.classified, 273);
        assert!(report.fig3.median_of("all").is_some());
        assert_eq!(report.fig4.points.len(), 68);
        assert_eq!(report.figs567.rows.len(), subs.history.version_count());
        assert!(!report.table2.rows.is_empty());
        assert_eq!(report.table3.rows.len(), 68);
        assert_eq!(report.cookie_harm.rows.last().unwrap().accepted, 0);
        assert_eq!(report.dbound.dbound_misgrouped, 0);
        assert_eq!(report.cert_harm.rows.last().unwrap().misissued, 0);
        assert!(!report.update_failure.rows.is_empty());
        assert_eq!(report.browser_replay.rows.last().unwrap().divergent_decisions, 0);
        assert_eq!(report.category_shift.rows.last().unwrap().total, 0);

        let json = report.to_json();
        assert!(json.contains("myshopify.com"));
        assert!(json.contains("bitwarden/server"));
    }

    /// Table 3 and the update-failure extension read each copy's harm off
    /// the sweep row at its dated version, under the sweep's match
    /// options. Every scanned copy's count must equal the rebuild oracle:
    /// the dated version's full snapshot matched against the latest list.
    #[test]
    fn repo_tables_join_the_sweep_under_every_match_option() {
        use crate::sweep::stats_for_single_list;
        use crate::sweep_stream::sweep_stream;
        use psl_core::{Date, MatchOpts};
        use std::collections::{BTreeMap, HashMap};

        // A small world in which the TLD most corpus hosts sit under joins
        // the list only in its latest version, so that embedded copies lack
        // it and the implicit `*` option changes which hosts they move.
        let generated = psl_history::generate(&GeneratorConfig::small(211));
        let stream = psl_webcorpus::build_stream(&generated, &CorpusConfig::small(212));
        let corpus = stream.materialize();
        let mut per_tld: BTreeMap<&str, usize> = BTreeMap::new();
        for host in corpus.hosts() {
            *per_tld.entry(host.as_str().rsplit('.').next().unwrap()).or_default() += 1;
        }
        let (&tld, _) = per_tld.iter().max_by_key(|&(_, n)| *n).unwrap();
        let spans = generated
            .spans()
            .iter()
            .cloned()
            .map(|mut s| {
                if s.rule.as_text() == tld {
                    s.added = generated.latest_version();
                }
                s
            })
            .collect();
        let history = History::new(spans, generated.versions().to_vec());
        let repos = psl_repocorpus::generate_repos(&history, &RepoGenConfig::default());
        let scan = RepoScan::build(&repos, &history);
        let latest = history.latest_snapshot();
        let model = update_failure::FallbackModel::default();
        for opts in [
            MatchOpts::default(),
            MatchOpts { include_private: false, implicit_wildcard: true },
            MatchOpts { include_private: true, implicit_wildcard: false },
        ] {
            let mut oracle: HashMap<Date, usize> = HashMap::new();
            let mut moved = |version: Date| {
                *oracle.entry(version).or_insert_with(|| {
                    let embedded = history.snapshot_at(version);
                    stats_for_single_list(&corpus, &embedded, &latest, opts)
                        .hosts_in_different_site_vs_latest
                })
            };
            let sweep =
                sweep_stream(&history, &stream, &StreamSweepConfig { opts, ..Default::default() });
            let table3 = table3::run(&scan, &sweep.stats);
            let failure = update_failure::run(&scan, &sweep.stats, &model);

            let mut harms: BTreeMap<String, Vec<f64>> = BTreeMap::new();
            let mut fixed = 0;
            for (repo, class, dated) in scan.dated() {
                let want = moved(dated.version);
                if let UsageClass::Fixed(_) = class {
                    fixed += 1;
                    let row = table3.rows.iter().find(|r| r.name == repo.name).unwrap();
                    assert_eq!(row.missing_hostnames, want, "{} under {opts:?}", repo.name);
                }
                let label = match class {
                    UsageClass::Updated(kind) => format!("Updated/{kind:?}"),
                    _ if class.is_fixed_production() => "Fixed/Production (baseline)".into(),
                    _ => continue,
                };
                harms.entry(label).or_default().push(want as f64);
            }
            assert_eq!(table3.rows.len(), fixed);
            assert_eq!(failure.rows.len(), harms.len());
            for row in &failure.rows {
                let want = &harms[&row.strategy];
                assert_eq!(row.projects, want.len(), "{} under {opts:?}", row.strategy);
                assert_eq!(
                    row.mean_misgrouped_on_fallback,
                    psl_stats::mean(want).unwrap(),
                    "{} under {opts:?}",
                    row.strategy
                );
            }
        }
    }
}
