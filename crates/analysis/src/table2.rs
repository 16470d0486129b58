//! Table 2: the largest eTLDs created by subsequent rule additions that at
//! least one fixed/production project is missing.
//!
//! For every suffix in the latest list that was added after the first
//! version, we count (i) the corpus hostnames living strictly under it,
//! read off the walk's suffix census, and (ii) how many projects of each
//! class embed a list copy lacking the rule: a copy lacks it when none of
//! the rule's spans is live at the copy's dated version. Rows are ranked
//! by impacted hostnames; the paper reports the top 15 of 1,313 eTLDs
//! affecting 50,750 hostnames (ours scale with the corpus).

use psl_history::{History, RuleSpan};
use psl_repocorpus::{RepoScan, UsageClass};
use serde::Serialize;
use std::collections::HashMap;

/// Rows reported, as in the paper.
const TOP: usize = 15;

/// One Table 2 row.
#[derive(Debug, Clone, Serialize)]
pub struct Table2Row {
    /// The eTLD (rule text).
    pub etld: String,
    /// Corpus hostnames strictly under it.
    pub hostnames: usize,
    /// Dependency projects missing the rule.
    pub dependency: usize,
    /// Fixed/production projects missing the rule.
    pub fixed_production: usize,
    /// Fixed test-or-other projects missing the rule.
    pub fixed_test_other: usize,
    /// Updated projects missing the rule.
    pub updated: usize,
}

/// The Table 2 report.
#[derive(Debug, Clone, Serialize)]
pub struct Table2Report {
    /// Top rows, ranked by impacted hostnames.
    pub rows: Vec<Table2Row>,
    /// Total eTLDs missing from at least one fixed/production project.
    pub total_etlds: usize,
    /// Total hostnames under those eTLDs.
    pub total_hostnames: usize,
}

/// Run the Table 2 experiment over `census`, the corpus hosts' latest
/// public suffixes with their host counts ([`crate::walker::census`] of a
/// walk under the sweep's match options).
pub fn run(history: &History, census: &[(&str, usize)], scan: &RepoScan<'_>) -> Table2Report {
    // ---- Every span of each rule text. ------------------------------------
    // A text is late-added if a span still live at the latest version
    // began after the first version; a removed and re-added rule has
    // several spans.
    let first = history.first_version();
    let mut spans_of: HashMap<String, Vec<&RuleSpan>> = HashMap::new();
    for span in history.spans() {
        spans_of.entry(span.rule.as_text()).or_default().push(span);
    }

    // ---- Assemble rows. -----------------------------------------------------
    let mut rows = Vec::new();
    for &(suffix, hostnames) in census {
        let Some(spans) = spans_of.get(suffix) else {
            continue;
        };
        if !spans.iter().any(|s| s.added > first && s.removed.is_none()) {
            continue;
        }
        let mut row = Table2Row {
            etld: suffix.to_string(),
            hostnames,
            dependency: 0,
            fixed_production: 0,
            fixed_test_other: 0,
            updated: 0,
        };
        for (_, class, dated) in scan.dated() {
            if spans.iter().any(|s| s.live_at(dated.version)) {
                continue;
            }
            match class {
                UsageClass::Dependency(_) => row.dependency += 1,
                UsageClass::Fixed(_) if class.is_fixed_production() => row.fixed_production += 1,
                UsageClass::Fixed(_) => row.fixed_test_other += 1,
                UsageClass::Updated(_) => row.updated += 1,
            }
        }
        // Paper inclusion criterion: at least one fixed/production
        // project is missing the rule.
        if row.fixed_production > 0 {
            rows.push(row);
        }
    }
    rows.sort_by(|a, b| b.hostnames.cmp(&a.hostnames).then(a.etld.cmp(&b.etld)));
    let total_etlds = rows.len();
    let total_hostnames = rows.iter().map(|r| r.hostnames).sum();
    rows.truncate(TOP);

    Table2Report { rows, total_etlds, total_hostnames }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walker::{census, walk};
    use psl_core::{DomainName, MatchOpts};
    use psl_history::{generate, GeneratorConfig};
    use psl_repocorpus::{generate_repos, RepoGenConfig};
    use psl_webcorpus::{generate_corpus, CorpusConfig};

    /// Table 2 over the census of a walk over `hosts`.
    fn table2(history: &History, hosts: &[DomainName], scan: &RepoScan<'_>) -> Table2Report {
        run(history, &census(&walk(history, hosts, MatchOpts::default()), hosts), scan)
    }

    #[test]
    fn table2_ranks_platform_etlds() {
        let h = generate(&GeneratorConfig::small(161));
        let corpus = generate_corpus(&h, &CorpusConfig::small(17));
        let repos = generate_repos(&h, &RepoGenConfig::default());
        let report = table2(&h, corpus.hosts(), &RepoScan::build(&repos, &h));

        assert!(!report.rows.is_empty());
        assert!(report.rows.len() <= 15);
        assert!(report.total_etlds >= report.rows.len());
        assert!(report.total_hostnames > 0);

        // Rows are sorted by hostname impact.
        for w in report.rows.windows(2) {
            assert!(w[0].hostnames >= w[1].hostnames);
        }
        // The headline platforms appear (they carry the paper-calibrated
        // hostname populations and are missing from old embedded lists).
        let etlds: Vec<&str> = report.rows.iter().map(|r| r.etld.as_str()).collect();
        assert!(etlds.contains(&"myshopify.com"), "{etlds:?}");
        assert!(etlds.contains(&"digitaloceanspaces.com"), "{etlds:?}");
        // myshopify.com (largest paper row) ranks first among Table 2
        // seeds at any scale.
        let shopify_rank = etlds.iter().position(|&e| e == "myshopify.com").unwrap();
        let docean_rank = etlds.iter().position(|&e| e == "digitaloceanspaces.com").unwrap();
        assert!(shopify_rank < docean_rank);

        // Every row has at least one fixed/production project missing it.
        for row in &report.rows {
            assert!(row.fixed_production > 0, "{}", row.etld);
        }
    }

    /// A late-added suffix that was removed and re-added has one span per
    /// stay in the list; a project lacks it only when none of them is live
    /// at the copy's dated version. Projects dated before, inside, between
    /// and after its spans are counted exactly as per-project `rules_at`
    /// sets count them.
    #[test]
    fn re_added_suffix_counts_projects_by_every_span() {
        use psl_core::{write_dat, Date, Rule, Section};
        use psl_repocorpus::{FileEntry, RepoCorpus, Repository};
        use std::collections::HashSet;

        let versions: Vec<Date> =
            (0..7).map(|i| Date::parse(&format!("{}-01-01", 2010 + 2 * i)).unwrap()).collect();
        let span = |text: &str, section, added: usize, removed: Option<usize>| RuleSpan {
            rule: Rule::parse(text, section).unwrap(),
            added: versions[added],
            removed: removed.map(|r| versions[r]),
        };
        // One filler rule per version keeps every version's rule set
        // distinct, so each copy dates exactly.
        let mut spans: Vec<RuleSpan> =
            (0..7).map(|v| span(&format!("v{v}.com"), Section::Icann, v, None)).collect();
        spans.push(span("com", Section::Icann, 0, None));
        // myshop.com is live in [v1, v2), [v3, v4) and from v5 on.
        for (added, removed) in [(1, Some(2)), (3, Some(4)), (5, None)] {
            spans.push(span("myshop.com", Section::Private, added, removed));
        }
        let history = History::new(spans, versions.clone());

        let hosts = ["alice.myshop.com", "bob.myshop.com", "www.example.com"];
        let hosts = hosts.map(|h| DomainName::parse(h).unwrap());

        // (list path, companion files, dated version, class): fixed,
        // in-production copies before, inside, between and after the
        // spans, plus a test, a vendored and a build-updated copy.
        let production: &[(&str, &str)] = &[("src/main.py", "open('public_suffix_list.dat')")];
        let build: &[(&str, &str)] = &[("Makefile", "curl https://publicsuffix.org/list")];
        let layouts = [
            ("data/public_suffix_list.dat", production, 0, "Fixed/Production"),
            ("data/public_suffix_list.dat", production, 1, "Fixed/Production"),
            ("data/public_suffix_list.dat", production, 2, "Fixed/Production"),
            ("data/public_suffix_list.dat", production, 3, "Fixed/Production"),
            ("data/public_suffix_list.dat", production, 4, "Fixed/Production"),
            ("data/public_suffix_list.dat", production, 6, "Fixed/Production"),
            ("tests/public_suffix_list.dat", &[], 4, "Fixed/Test"),
            ("vendor/jre/public_suffix_list.dat", &[], 2, "Dependency/jre"),
            ("data/public_suffix_list.dat", build, 3, "Updated/Build"),
        ];
        let repos = layouts
            .iter()
            .enumerate()
            .map(|(i, &(path, companions, v, _))| {
                let copy = write_dat(&history.rules_at(versions[v]));
                let mut files = vec![FileEntry { path: path.into(), content: copy }];
                files.extend(companions.iter().map(|&(path, content)| FileEntry {
                    path: path.into(),
                    content: content.into(),
                }));
                Repository {
                    name: format!("project/{i}"),
                    stars: 1,
                    forks: 0,
                    last_commit: versions[6],
                    files,
                    ground_truth: None,
                }
            })
            .collect();
        let repos = RepoCorpus { observed_at: versions[6], repos };
        let scan = RepoScan::build(&repos, &history);
        let scanned: Vec<(Date, String)> =
            scan.dated().map(|(_, class, dated)| (dated.version, class.to_string())).collect();
        let laid_out: Vec<(Date, String)> =
            layouts.iter().map(|&(_, _, v, class)| (versions[v], class.to_string())).collect();
        assert_eq!(scanned, laid_out);

        let report = table2(&history, &hosts, &scan);
        assert_eq!(report.rows.len(), 1);
        let row = &report.rows[0];
        assert_eq!((row.etld.as_str(), row.hostnames), ("myshop.com", 2));

        // The per-project rule-text sets the spans replace.
        let (mut production, mut test_other, mut dependency, mut updated) = (0, 0, 0, 0);
        for (_, class, dated) in scan.dated() {
            let texts: HashSet<String> =
                history.rules_at(dated.version).iter().map(Rule::as_text).collect();
            if texts.contains("myshop.com") {
                continue;
            }
            match class {
                UsageClass::Dependency(_) => dependency += 1,
                UsageClass::Fixed(_) if class.is_fixed_production() => production += 1,
                UsageClass::Fixed(_) => test_other += 1,
                UsageClass::Updated(_) => updated += 1,
            }
        }
        let counts = (row.fixed_production, row.fixed_test_other, row.dependency, row.updated);
        assert_eq!(counts, (production, test_other, dependency, updated));
        assert_eq!(counts, (3, 1, 1, 0));
    }
}
