//! Figures 5–7: per-version site formation, third-party classification,
//! and hostname misclassification — thin serialisable views over the
//! [`crate::sweep_stream::sweep_stream`] results.

use crate::sweep::VersionStats;
use serde::Serialize;

/// One per-version row shared by Figures 5, 6 and 7.
#[derive(Debug, Clone, Serialize)]
pub struct SweepRow {
    /// Version date (ISO).
    pub date: String,
    /// Fractional year for plotting.
    pub year: f64,
    /// Rules live at the version.
    pub rules: usize,
    /// Figure 5: sites formed from the corpus.
    pub sites: usize,
    /// Figure 6: requests classified third-party.
    pub third_party_requests: u64,
    /// Figure 7: hostnames in a different site vs. the latest list.
    pub hosts_moved_vs_latest: usize,
}

/// The combined Figures 5–7 report.
#[derive(Debug, Clone, Serialize)]
pub struct SweepReport {
    /// One row per version.
    pub rows: Vec<SweepRow>,
    /// Sites formed by the latest version minus the first — the paper's
    /// "additional 359,966 sites" headline, at our corpus scale.
    pub extra_sites_latest_vs_first: i64,
    /// Corpus size context.
    pub unique_hostnames: usize,
    /// Total requests in the corpus.
    pub total_requests: usize,
}

/// Package per-version sweep stats with the corpus totals (one sweep
/// serves all three figures).
pub fn package(
    stats: &[VersionStats],
    unique_hostnames: usize,
    total_requests: usize,
) -> SweepReport {
    let rows: Vec<SweepRow> = stats
        .iter()
        .map(|s| SweepRow {
            date: s.date.to_string(),
            year: s.date.year_fraction(),
            rules: s.rule_count,
            sites: s.sites,
            third_party_requests: s.third_party_requests,
            hosts_moved_vs_latest: s.hosts_in_different_site_vs_latest,
        })
        .collect();
    let extra = match (stats.first(), stats.last()) {
        (Some(f), Some(l)) => l.sites as i64 - f.sites as i64,
        _ => 0,
    };
    SweepReport { rows, extra_sites_latest_vs_first: extra, unique_hostnames, total_requests }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep_stream::{sweep_stream, StreamSweepConfig};
    use psl_history::{generate, GeneratorConfig};
    use psl_webcorpus::{build_stream, CorpusConfig};

    #[test]
    fn report_shapes_match_paper() {
        let h = generate(&GeneratorConfig::small(151));
        let stream = build_stream(&h, &CorpusConfig::small(15));
        let out = sweep_stream(&h, &stream, &StreamSweepConfig::default());
        let report = package(&out.stats, stream.host_count(), out.total_requests as usize);
        let c = stream.materialize();

        assert_eq!(report.rows.len(), h.version_count());
        // Figure 5 headline: the latest list forms many more sites than
        // the first.
        assert!(report.extra_sites_latest_vs_first > 100);
        // Figure 7: zero moved hosts at the latest version; positive at
        // the first.
        assert_eq!(report.rows.last().unwrap().hosts_moved_vs_latest, 0);
        assert!(report.rows[0].hosts_moved_vs_latest > 0);
        assert_eq!(report.unique_hostnames, c.host_count());
        assert_eq!(report.total_requests, c.request_count());
    }
}
