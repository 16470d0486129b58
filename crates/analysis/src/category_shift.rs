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
use crate::walker::{site_len, walk};
use psl_core::{MatchOpts, Section};
use psl_history::History;
use psl_iana::{RootZoneDb, TldCategory};
use psl_webcorpus::WebCorpus;
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

/// Run the experiment over `sampled_versions` evenly-spaced versions.
pub fn run(
    history: &History,
    corpus: &WebCorpus,
    db: &RootZoneDb,
    sampled_versions: usize,
    opts: MatchOpts,
) -> CategoryShiftReport {
    let latest = history.latest_snapshot();
    let hosts = corpus.hosts();

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

    let suffix_lens = walk(history, hosts, opts).suffix_lens;
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
    use psl_history::{generate, GeneratorConfig};
    use psl_webcorpus::{generate_corpus, CorpusConfig};

    #[test]
    fn categories_partition_the_moved_hosts() {
        let h = generate(&GeneratorConfig::small(531));
        let c = generate_corpus(&h, &CorpusConfig::small(91));
        let db = RootZoneDb::embedded();
        let report = run(&h, &c, &db, 15, MatchOpts::default());

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
        let h = generate(&GeneratorConfig::small(533));
        let c = generate_corpus(&h, &CorpusConfig::small(93));
        let db = RootZoneDb::embedded();
        let report = run(&h, &c, &db, 15, MatchOpts::default());

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
}
