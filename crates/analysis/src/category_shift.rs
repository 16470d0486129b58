//! Extension experiment: which suffix categories drive the boundary
//! shifts of Figure 7.
//!
//! For each (sampled) version, hostnames in a different site than under
//! the latest list are attributed to the IANA class of their
//! latest-list public suffix. The expected pattern: country-code
//! registry rules (and the 2012 JP spike) drive early-era shifts, while
//! PRIVATE-section platform suffixes dominate the recent ones — the
//! paper's Table 2 story, resolved over time.

use crate::report::downsample;
use crate::walker::{site_len, Walk};
use psl_core::{DomainName, MatchOpts, Section};
use psl_history::History;
use psl_iana::{RootZoneDb, TldCategory};
use serde::Serialize;

/// Moved-host counts per suffix class for one version.
#[derive(Debug, Clone, Serialize)]
pub struct CategoryShiftRow {
    /// Version date (ISO).
    pub date: String,
    /// Hosts whose latest suffix is a generic TLD rule.
    pub generic: usize,
    /// Country-code TLD rules.
    pub country_code: usize,
    /// Sponsored + infrastructure + test TLD rules.
    pub other_tld: usize,
    /// PRIVATE-section rules.
    pub private: usize,
    /// Total moved hosts (must equal Figure 7's value at this version).
    pub total: usize,
}

/// The extension report.
#[derive(Debug, Clone, Serialize)]
pub struct CategoryShiftReport {
    /// One row per sampled version.
    pub rows: Vec<CategoryShiftRow>,
}

/// Run the experiment over `sampled_versions` evenly-spaced versions of
/// `walked`, a walk of `hosts` under `opts`. The latest list only sorts
/// the hosts into its ICANN and PRIVATE sections.
pub fn run(
    history: &History,
    hosts: &[DomainName],
    walked: &Walk,
    db: &RootZoneDb,
    sampled_versions: usize,
    opts: MatchOpts,
) -> CategoryShiftReport {
    let latest = history.latest_snapshot();

    // Per-host: the class of the latest suffix.
    #[derive(Clone, Copy, PartialEq)]
    enum Class {
        Generic,
        CountryCode,
        OtherTld,
        Private,
    }
    let classes: Vec<Class> = hosts
        .iter()
        .map(|host| {
            let labels = host.labels_reversed();
            match latest.disposition_reversed(&labels, opts).and_then(|d| d.section) {
                Some(Section::Private) => Class::Private,
                _ => match db.category(labels.first().copied().unwrap_or("")) {
                    TldCategory::Generic => Class::Generic,
                    TldCategory::CountryCode => Class::CountryCode,
                    _ => Class::OtherTld,
                },
            }
        })
        .collect();

    let suffix_lens = &walked.suffix_lens;
    let site_len_of =
        |h: usize, len: Option<u32>| site_len(len.map(|l| l as usize), hosts[h].label_count());
    let versions: Vec<usize> = (0..history.version_count()).collect();
    let rows = downsample(&versions, sampled_versions)
        .into_iter()
        .map(|v| {
            let mut row = CategoryShiftRow {
                date: history.versions()[v].to_string(),
                generic: 0,
                country_code: 0,
                other_tld: 0,
                private: 0,
                total: 0,
            };
            for (h, &class) in classes.iter().enumerate() {
                let now = site_len_of(h, suffix_lens.at(h, v));
                if now != site_len_of(h, suffix_lens.latest(h)) {
                    row.total += 1;
                    match class {
                        Class::Generic => row.generic += 1,
                        Class::CountryCode => row.country_code += 1,
                        Class::OtherTld => row.other_tld += 1,
                        Class::Private => row.private += 1,
                    }
                }
            }
            row
        })
        .collect();
    CategoryShiftReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep_stream::{sweep_stream, StreamSweepConfig};
    use crate::walker::walk;
    use psl_history::{generate, GeneratorConfig};
    use psl_webcorpus::{build_stream, generate_corpus, CorpusConfig};

    /// The report over a generated world's corpus, 15 sampled versions.
    fn report(history_seed: u64, corpus_seed: u64) -> CategoryShiftReport {
        let h = generate(&GeneratorConfig::small(history_seed));
        let hosts = generate_corpus(&h, &CorpusConfig::small(corpus_seed)).hosts().to_vec();
        let opts = MatchOpts::default();
        run(&h, &hosts, &walk(&h, &hosts, opts), &RootZoneDb::embedded(), 15, opts)
    }

    #[test]
    fn categories_partition_the_moved_hosts() {
        let report = report(531, 91);

        assert_eq!(report.rows.len(), 15);
        for row in &report.rows {
            assert_eq!(
                row.generic + row.country_code + row.other_tld + row.private,
                row.total,
                "at {}",
                row.date
            );
        }
        // Latest version: no movement at all.
        assert_eq!(report.rows.last().unwrap().total, 0);
    }

    #[test]
    fn private_suffixes_dominate_recent_shifts() {
        let report = report(533, 93);

        // In a 2016-era row, private-section platforms should account for
        // the majority of remaining movement (the Table 2 story).
        let late = report
            .rows
            .iter()
            .find(|r| r.date.starts_with("2016") || r.date.starts_with("2017"))
            .expect("a 2016/17 sample exists");
        assert!(
            late.private * 2 >= late.total,
            "private {} of {} at {}",
            late.private,
            late.total,
            late.date
        );
        // In the first (2007) row, non-private classes contribute too.
        let first = &report.rows[0];
        assert!(first.country_code + first.generic + first.other_tld > 0);
    }

    /// Each sampled row's total is Figure 7's moved-host count at its
    /// version, under every match option.
    #[test]
    fn totals_equal_figure_7_at_every_sampled_version() {
        let h = generate(&GeneratorConfig::small(531));
        let stream = build_stream(&h, &CorpusConfig::small(91));
        let db = RootZoneDb::embedded();
        for opts in [
            MatchOpts::default(),
            MatchOpts { include_private: false, implicit_wildcard: true },
            MatchOpts { include_private: true, implicit_wildcard: false },
        ] {
            let hosts = stream.hosts();
            let report = run(&h, hosts, &walk(&h, hosts, opts), &db, 20, opts);
            let stats =
                sweep_stream(&h, &stream, &StreamSweepConfig { opts, ..Default::default() }).stats;
            assert_eq!(report.rows.len(), 20);
            for row in &report.rows {
                let fig7 = stats.iter().find(|s| s.date.to_string() == row.date).unwrap();
                assert_eq!(
                    row.total, fig7.hosts_in_different_site_vs_latest,
                    "{} under {opts:?}",
                    row.date
                );
            }
            assert!(report.rows[0].total > 0, "{opts:?}");
        }
    }
}
