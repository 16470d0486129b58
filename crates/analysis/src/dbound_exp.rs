//! Extension experiment: DBOUND (DNS-advertised boundaries) vs. a stale
//! client-shipped list.
//!
//! The paper's conclusion argues the staleness risk is "inherent to any
//! list-based approach" and motivates DNS-advertised boundaries
//! (ref \[21\]). This experiment makes the comparison concrete: boundary
//! assertions for the *current* list are published into DNS zones; a
//! DBOUND client derives sites by querying them, so its accuracy does not
//! depend on client-side freshness. We compare, per list version, the
//! hostnames a stale-list client misgroups against the (constant) DBOUND
//! error, and report the query cost DBOUND pays for it.

use crate::walker::{self, Walk};
use psl_core::DomainName;
use psl_dns::{publish_list, site_of, ZoneStore};
use psl_history::History;
use serde::Serialize;

/// Per-version comparison row.
#[derive(Debug, Clone, Serialize)]
pub struct DboundRow {
    /// Version date (ISO) — the stale client's list version.
    pub date: String,
    /// Hostnames the stale-list client puts in the wrong site.
    pub stale_list_misgrouped: usize,
}

/// The extension report.
#[derive(Debug, Clone, Serialize)]
pub struct DboundReport {
    /// Stale-list misgrouping per version (Figure 7's series, re-used as
    /// the list-based baseline).
    pub rows: Vec<DboundRow>,
    /// Hostnames the DBOUND client misgroups (constant across client
    /// age; nonzero only if publication is incomplete).
    pub dbound_misgrouped: usize,
    /// Boundary records published.
    pub published_records: usize,
    /// Total DNS queries the DBOUND client issued for the whole corpus.
    pub total_queries: u64,
    /// Mean queries per hostname.
    pub queries_per_host: f64,
}

/// Run the experiment. `walked` is a walk of `hosts`, and `stale_stats`
/// the per-version sweep over it (reuse the Figures 5–7 sweep to avoid
/// recomputation).
pub fn run(
    history: &History,
    hosts: &[DomainName],
    walked: &Walk,
    stale_stats: &[crate::sweep::VersionStats],
) -> DboundReport {
    // Publish the current list into DNS.
    let mut zones = ZoneStore::new();
    let published_records = publish_list(&mut zones, &history.latest_snapshot());

    // DBOUND client: derive every host's site by querying, and compare it
    // with the site under the latest list, the walk's last step.
    let mut dbound_misgrouped = 0;
    let mut total_queries = 0u64;
    for (h, host) in hosts.iter().enumerate() {
        let (site, cost) = site_of(&zones, host);
        total_queries += cost.queries as u64;
        let latest_len = walked.suffix_lens.latest(h).map(|l| l as usize);
        if site.as_str() != walker::site_of(host, latest_len) {
            dbound_misgrouped += 1;
        }
    }

    let rows = stale_stats
        .iter()
        .map(|s| DboundRow {
            date: s.date.to_string(),
            stale_list_misgrouped: s.hosts_in_different_site_vs_latest,
        })
        .collect();

    DboundReport {
        rows,
        dbound_misgrouped,
        published_records,
        total_queries,
        queries_per_host: total_queries as f64 / hosts.len().max(1) as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep_stream::{sweep_stream, StreamSweepConfig};
    use crate::walker::walk;
    use psl_core::MatchOpts;
    use psl_history::{generate, GeneratorConfig};
    use psl_webcorpus::{build_stream, CorpusConfig};

    #[test]
    fn dbound_beats_every_stale_list() {
        let h = generate(&GeneratorConfig::small(411));
        let stream = build_stream(&h, &CorpusConfig::small(41));
        let stats = sweep_stream(&h, &stream, &StreamSweepConfig::default()).stats;
        let walked = walk(&h, stream.hosts(), MatchOpts::default());
        let report = run(&h, stream.hosts(), &walked, &stats);

        assert_eq!(report.rows.len(), h.version_count());
        // DBOUND against the live zone agrees with the latest list
        // exactly (full publication coverage).
        assert_eq!(report.dbound_misgrouped, 0);
        // Every stale list older than ~a year does worse.
        let early = &report.rows[0];
        assert!(early.stale_list_misgrouped > 0);
        // Cost accounting is sane: >=2 queries per host (TLD + one more),
        // bounded by max label depth.
        assert!(report.queries_per_host >= 2.0);
        assert!(report.queries_per_host <= 8.0);
        assert_eq!(report.published_records, h.latest_snapshot().len());
    }
}
