//! End-to-end pipeline: generate every substrate, run every experiment.
//!
//! [`run_all`] is what the CLI and the integration tests drive: one seed in,
//! the full set of paper artifacts out.

use crate::sweep_stream::{sweep_stream, StreamSweepConfig};
use crate::{
    browser_replay, category_shift, cert_harm, cookie_harm, dbound_exp, fig2, fig3, fig4, figs567,
    table1, table2, table3, update_failure,
};
use psl_history::{DatingIndex, GeneratorConfig, History};
use psl_iana::RootZoneDb;
use psl_repocorpus::{DetectorConfig, RepoCorpus, RepoGenConfig};
use psl_webcorpus::{CorpusConfig, StreamCorpus, WebCorpus};
use serde::Serialize;

/// Top-level pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// History generator config.
    pub history: GeneratorConfig,
    /// Web corpus config.
    pub corpus: CorpusConfig,
    /// Repository corpus config.
    pub repos: RepoGenConfig,
    /// Detector thresholds.
    pub detector: DetectorConfig,
    /// Sweep options (Figures 5–7).
    pub sweep: StreamSweepConfig,
    /// Rows reported in Table 2.
    pub table2_top: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            history: GeneratorConfig::default(),
            corpus: CorpusConfig::default(),
            repos: RepoGenConfig::default(),
            detector: DetectorConfig::default(),
            sweep: StreamSweepConfig::default(),
            table2_top: 15,
        }
    }
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
    /// The web request corpus as a stream (what the sweep reads).
    pub stream: StreamCorpus,
    /// The same corpus materialized.
    pub corpus: WebCorpus,
    /// The repository corpus.
    pub repos: RepoCorpus,
    /// IANA snapshot.
    pub iana: RootZoneDb,
}

/// Generate all substrates for a pipeline config.
pub fn build_substrates(config: &PipelineConfig) -> Substrates {
    let history = psl_history::generate(&config.history);
    let stream = psl_webcorpus::build_stream(&history, &config.corpus);
    let corpus = stream.materialize();
    let repos = psl_repocorpus::generate_repos(&history, &config.repos);
    Substrates { history, stream, corpus, repos, iana: RootZoneDb::embedded() }
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
    pub cert_harm: cert_harm::CertHarmReport,
    /// Extension: expected harm of failing update strategies.
    pub update_failure: update_failure::UpdateFailureReport,
    /// Extension: browser decision divergence per (sampled) version.
    pub browser_replay: browser_replay::BrowserReplayReport,
    /// Extension: Figure 7 by IANA suffix class.
    pub category_shift: category_shift::CategoryShiftReport,
}

/// Run every experiment over prebuilt substrates.
pub fn run_all(subs: &Substrates, config: &PipelineConfig) -> FullReport {
    let index = DatingIndex::build(&subs.history);
    let reference = subs.history.latest_snapshot();
    // One sweep serves Figures 5-7 and the DBOUND baseline.
    let sweep = sweep_stream(&subs.history, &subs.stream, &config.sweep);
    let stats = &sweep.stats;
    FullReport {
        fig2: fig2::run(&subs.history, &subs.iana),
        table1: table1::run(&subs.repos, &reference, &index, &config.detector),
        fig3: fig3::run(&subs.repos, &reference, &index, &config.detector),
        fig4: fig4::run(&subs.repos, &reference, &index, &config.detector),
        figs567: figs567::package(stats, subs.stream.host_count(), sweep.total_requests as usize),
        table2: table2::run(
            &subs.history,
            &subs.corpus,
            &subs.repos,
            &index,
            &config.detector,
            config.table2_top,
        ),
        table3: table3::run(&subs.history, &subs.corpus, &subs.repos, &index, &config.detector),
        cookie_harm: cookie_harm::run(&subs.history, &subs.corpus, config.sweep.opts),
        dbound: dbound_exp::run(&subs.history, &subs.corpus, stats, config.sweep.opts),
        cert_harm: cert_harm::run(&subs.history, &subs.corpus, config.sweep.opts),
        update_failure: update_failure::run(
            &subs.history,
            &subs.corpus,
            &subs.repos,
            &index,
            &config.detector,
            &update_failure::FallbackModel::default(),
            config.sweep.opts,
        ),
        browser_replay: browser_replay::run(
            &subs.history,
            &subs.corpus,
            16,
            120,
            config.sweep.opts,
        ),
        category_shift: category_shift::run(
            &subs.history,
            &subs.corpus,
            &subs.iana,
            20,
            config.sweep.opts,
        ),
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
}
