//! Extension experiment: browser decision divergence per list version.
//!
//! Replays an interaction script derived from the corpus — visit a page,
//! receive a session cookie, load its subresources — in two browsers: one
//! on the latest list, one pinned to an older version. Every
//! privacy-relevant decision (cookie accepted/attached, same-site
//! judgement, referrer trimming) is logged, and the per-version count of
//! *divergent* decisions is reported. This turns the paper's abstract
//! "incorrect privacy decisions" into a concrete decision stream diff.

use psl_browser::{decision_divergence, Browser};
use psl_core::{List, MatchOpts};
use psl_history::History;
use psl_webcorpus::StreamCorpus;
use serde::Serialize;

/// One replayed interaction: a page visit with its subresource loads.
#[derive(Debug, Clone)]
struct Interaction {
    page: String,
    set_cookie_host: psl_core::DomainName,
    set_cookie: String,
    subresources: Vec<String>,
}

/// Per-version divergence.
#[derive(Debug, Clone, Serialize)]
pub struct ReplayRow {
    /// Version date (ISO).
    pub date: String,
    /// Decisions that differ from the latest-list browser.
    pub divergent_decisions: usize,
}

/// The extension report.
#[derive(Debug, Clone, Serialize)]
pub struct BrowserReplayReport {
    /// One row per sampled version.
    pub rows: Vec<ReplayRow>,
    /// Total decisions per replay (constant across versions).
    pub decisions_per_replay: usize,
    /// Interactions in the script.
    pub interactions: usize,
}

/// Build the interaction script: one interaction per corpus page that has
/// requests, capped at `max_interactions` (spread across the corpus).
fn build_script(corpus: &StreamCorpus, max_interactions: usize) -> Vec<Interaction> {
    use std::collections::BTreeMap;
    let mut by_page: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for r in corpus.shard_requests(0, 1) {
        by_page.entry(r.page).or_default().push(r.request);
    }
    let step = (by_page.len() / max_interactions.max(1)).max(1);
    by_page
        .into_iter()
        .step_by(step)
        .take(max_interactions)
        .map(|(page, reqs)| {
            let page_host = corpus.host(page);
            // The page sets a session cookie scoped one label up (its
            // parent) — the realistic `Domain=` usage whose validity
            // depends on the list.
            let scope = page_host.parent().unwrap_or_else(|| page_host.clone());
            Interaction {
                page: format!("https://{page_host}/index?session=1"),
                set_cookie_host: page_host.clone(),
                set_cookie: format!("sid=s; Domain={scope}"),
                subresources: reqs
                    .iter()
                    .take(6)
                    .map(|&r| format!("https://{}/asset.js", corpus.host(r)))
                    .collect(),
            }
        })
        .collect()
}

/// Replay the script in a browser pinned to `list`.
fn replay<'l>(list: &'l List, script: &[Interaction], opts: MatchOpts) -> Browser<'l> {
    let mut browser = Browser::new(list, opts);
    for interaction in script {
        let Some((ctx, page_url)) = browser.navigate(&interaction.page) else {
            continue;
        };
        browser.receive_set_cookie(&interaction.set_cookie_host, &interaction.set_cookie);
        for sub in &interaction.subresources {
            browser.load_subresource(&ctx, &page_url, sub);
        }
    }
    browser
}

/// Run the experiment over `sampled_versions` evenly-spaced versions.
pub fn run(
    history: &History,
    corpus: &StreamCorpus,
    sampled_versions: usize,
    max_interactions: usize,
    opts: MatchOpts,
) -> BrowserReplayReport {
    let script = build_script(corpus, max_interactions);
    let latest = history.latest_snapshot();
    let reference = replay(&latest, &script, opts);

    let versions = crate::report::downsample(history.versions(), sampled_versions);
    let rows = versions
        .iter()
        .map(|&v| {
            let list = history.snapshot_at(v);
            let browser = replay(&list, &script, opts);
            ReplayRow {
                date: v.to_string(),
                divergent_decisions: decision_divergence(&reference, &browser),
            }
        })
        .collect();

    BrowserReplayReport {
        rows,
        decisions_per_replay: reference.decisions().len(),
        interactions: script.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psl_history::{generate, GeneratorConfig};
    use psl_webcorpus::{build_stream, CorpusConfig};

    #[test]
    fn divergence_shrinks_toward_the_latest_version() {
        let h = generate(&GeneratorConfig::small(441));
        let c = build_stream(&h, &CorpusConfig::small(71));
        let report = run(&h, &c, 12, 150, MatchOpts::default());

        assert_eq!(report.rows.len(), 12);
        assert!(report.interactions > 50);
        assert!(report.decisions_per_replay > 100);
        let first = report.rows.first().unwrap().divergent_decisions;
        let last = report.rows.last().unwrap().divergent_decisions;
        assert_eq!(last, 0, "latest vs latest must not diverge");
        assert!(first > 0, "the 2007 list must flip some decisions");
        // Broad trend: early-era divergence exceeds late-era divergence.
        let mid = report.rows[report.rows.len() / 2].divergent_decisions;
        assert!(first >= mid);
    }
}
