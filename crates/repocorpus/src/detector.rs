//! The PSL detector: find, date, and classify embedded list copies.
//!
//! This is the executable version of the paper's methodology (§3–§4): the
//! Sourcegraph file-name search becomes [`find_psl_files`] (which also does
//! content sniffing, closing the "different filename" gap the paper notes
//! as a limitation); dating against the git history becomes the
//! [`DatingIndex`] lookup; and the manual usage classification becomes the
//! [`classify`] heuristics over the repository's file tree. [`RepoScan`]
//! runs all three once per corpus, and every repository experiment reads
//! its verdicts.

use crate::repo::{FileEntry, RepoCorpus, Repository};
use crate::taxonomy::{DependencyLib, FixedKind, UpdatedKind, UsageClass};
use psl_core::{parse_dat, Rule};
use psl_history::{DatedCopy, DatingIndex, History};
use serde::Serialize;
use std::collections::HashSet;

/// Filenames recognised as PSL copies without content inspection.
pub const KNOWN_NAMES: &[&str] = &["public_suffix_list.dat", "effective_tld_names.dat"];

/// Minimum valid rules for a content-sniffed file to count.
const MIN_RULES: usize = 50;

/// Minimum fraction of a sniffed file's rules that must appear in the
/// reference (latest) list.
const MIN_OVERLAP: f64 = 0.25;

/// A list copy found in a repository.
#[derive(Debug, Clone)]
pub struct FoundList<'r> {
    /// The file it lives in.
    pub file: &'r FileEntry,
    /// How it was found.
    pub via: FoundVia,
    /// Parsed rule count.
    pub rule_count: usize,
    /// The parsed rules, so dating the copy needs no second parse.
    pub rules: Vec<Rule>,
}

/// How a list copy was identified.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum FoundVia {
    /// Matched a well-known filename.
    Filename,
    /// Matched by content sniffing (rule-overlap score).
    Content,
}

/// Find embedded PSL copies in a repository.
///
/// Well-known filenames are accepted if they parse at all; any other file
/// is sniffed: it counts if it parses to at least 50 rules and at least a
/// quarter of them appear in `reference` (the latest list's rule texts).
pub fn find_psl_files<'r>(repo: &'r Repository, reference: &HashSet<String>) -> Vec<FoundList<'r>> {
    let mut found = Vec::new();
    for file in &repo.files {
        let basename = file.path.rsplit('/').next().unwrap_or(&file.path);
        let known = KNOWN_NAMES.contains(&basename);
        let rules = parse_dat(&file.content).rules;
        if known {
            if !rules.is_empty() {
                found.push(FoundList {
                    file,
                    via: FoundVia::Filename,
                    rule_count: rules.len(),
                    rules,
                });
            }
            continue;
        }
        // Content sniffing. Skip files that are mostly unparsable (source
        // code lines fail rule validation).
        if rules.len() < MIN_RULES {
            continue;
        }
        let total_lines = file
            .content
            .lines()
            .filter(|l| !l.trim().is_empty() && !l.trim_start().starts_with("//"))
            .count()
            .max(1);
        if (rules.len() as f64) < 0.8 * total_lines as f64 {
            continue;
        }
        let overlap = rules.iter().filter(|r| reference.contains(&r.as_text())).count();
        if overlap as f64 / rules.len() as f64 >= MIN_OVERLAP {
            found.push(FoundList { file, via: FoundVia::Content, rule_count: rules.len(), rules });
        }
    }
    found
}

/// One repository's detector verdict: found copies, the dated primary
/// copy, and the inferred usage class.
#[derive(Debug, Clone)]
pub struct Detection<'c> {
    /// The repository.
    pub repo: &'c Repository,
    /// Paths of the found list copies.
    pub list_paths: Vec<String>,
    /// The dated primary copy (the largest found copy), if datable.
    pub dated: Option<DatedCopy>,
    /// The inferred usage class, if any copy was found.
    pub class: Option<UsageClass>,
}

/// The detector run once over a repository corpus.
///
/// Building the scan makes the latest list's rule-text set and the
/// [`DatingIndex`] once, parses every file once, and dates each primary
/// copy from the rules it already parsed. Tables 1–3, Figs. 3–4, the
/// update-failure extension and the notifications all read it.
#[derive(Debug, Clone)]
pub struct RepoScan<'c> {
    /// The scanned corpus.
    pub corpus: &'c RepoCorpus,
    /// One detection per repository, in corpus order.
    pub detections: Vec<Detection<'c>>,
}

impl<'c> RepoScan<'c> {
    /// Detect, date and classify every repository of `corpus` against
    /// `history`.
    pub fn build(corpus: &'c RepoCorpus, history: &History) -> Self {
        let reference: HashSet<String> =
            history.rules_at(history.latest_version()).iter().map(Rule::as_text).collect();
        let index = DatingIndex::build(history);
        let detections = corpus
            .repos
            .iter()
            .map(|repo| {
                let found = find_psl_files(repo, &reference);
                // The primary copy is the largest (vendored stubs and
                // fixtures are usually truncated).
                let primary = found.iter().max_by_key(|f| f.rule_count);
                Detection {
                    repo,
                    list_paths: found.iter().map(|f| f.file.path.clone()).collect(),
                    dated: primary.and_then(|p| index.date_rules(&p.rules)),
                    class: primary.map(|_| classify(repo, &found)),
                }
            })
            .collect();
        RepoScan { corpus, detections }
    }

    /// Repositories with both a usage class and a dated primary copy, in
    /// corpus order.
    pub fn dated(&self) -> impl Iterator<Item = (&'c Repository, UsageClass, DatedCopy)> + '_ {
        self.detections.iter().filter_map(|d| Some((d.repo, d.class?, d.dated?)))
    }
}

/// Classify how a repository integrates the list, from its file tree.
pub fn classify(repo: &Repository, found: &[FoundList<'_>]) -> UsageClass {
    let primary = found
        .iter()
        .max_by_key(|f| f.rule_count)
        .expect("classify requires at least one found copy");
    let path = primary.file.path.as_str();

    // 1. Vendored copies → dependency, classified by vendor directory.
    if let Some(rest) =
        path.strip_prefix("vendor/").or_else(|| path.split_once("/vendor/").map(|(_, rest)| rest))
    {
        let lib = rest.split('/').next().unwrap_or("");
        return UsageClass::Dependency(DependencyLib::from_vendor_name(lib));
    }
    if path.starts_with("jre/") {
        return UsageClass::Dependency(DependencyLib::JavaJre);
    }

    // 2. Update mechanisms: a build file or source file that fetches from
    // publicsuffix.org.
    let is_build_file = |f: &FileEntry| {
        let base = f.path.rsplit('/').next().unwrap_or("");
        matches!(base, "Makefile" | "build.sh" | "CMakeLists.txt" | "justfile")
            || base.ends_with(".mk")
    };
    let fetches = |f: &FileEntry| f.content.contains("publicsuffix.org");
    if repo.files.iter().any(|f| is_build_file(f) && fetches(f)) {
        return UsageClass::Updated(UpdatedKind::Build);
    }
    if repo.files.iter().any(|f| !is_build_file(f) && fetches(f)) {
        let daemonish =
            repo.any_content_contains("daemon") || repo.any_content_contains("serve_forever");
        return if daemonish {
            UsageClass::Updated(UpdatedKind::Server)
        } else {
            UsageClass::Updated(UpdatedKind::User)
        };
    }

    // 3. Fixed: sub-classify by where the copy sits and whether anything
    // references it.
    if path.starts_with("test") || path.contains("/test") || path.contains("fixtures/") {
        return UsageClass::Fixed(FixedKind::Test);
    }
    let basename = path.rsplit('/').next().unwrap_or(path);
    let referenced =
        repo.files.iter().filter(|f| f.path != path).any(|f| f.content.contains(basename));
    if referenced {
        UsageClass::Fixed(FixedKind::Production)
    } else {
        UsageClass::Fixed(FixedKind::Other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_repos, RepoGenConfig};
    use psl_history::{generate, GeneratorConfig};

    /// The latest list's rule texts, as [`RepoScan::build`] scores against.
    fn reference_texts(h: &History) -> HashSet<String> {
        h.latest_snapshot().rules().iter().map(Rule::as_text).collect()
    }

    #[test]
    fn detector_recovers_ground_truth_for_whole_corpus() {
        let h = generate(&GeneratorConfig::small(81));
        let corpus = generate_repos(&h, &RepoGenConfig { seed: 9, ..Default::default() });
        let scan = RepoScan::build(&corpus, &h);
        let mut correct = 0;
        let mut total = 0;
        for det in &scan.detections {
            let repo = det.repo;
            total += 1;
            let truth = repo.ground_truth.unwrap();
            if det.class == Some(truth) {
                correct += 1;
            } else {
                panic!("{}: detected {:?}, truth {}", repo.name, det.class, truth);
            }
        }
        assert_eq!(correct, total);
    }

    #[test]
    fn every_repo_is_datable() {
        let h = generate(&GeneratorConfig::small(83));
        let corpus = generate_repos(&h, &RepoGenConfig { seed: 10, ..Default::default() });
        let scan = RepoScan::build(&corpus, &h);
        for det in &scan.detections {
            let repo = det.repo;
            assert!(det.dated.is_some(), "{} not datable", repo.name);
            assert!(!det.list_paths.is_empty());
        }
    }

    #[test]
    fn sniffing_finds_renamed_copies() {
        let h = generate(&GeneratorConfig::small(85));
        let corpus = generate_repos(
            &h,
            &RepoGenConfig {
                seed: 11,
                renamed_fraction: 1.0,
                include_named: false,
                ..Default::default()
            },
        );
        let reference = reference_texts(&h);
        let mut sniffed = 0;
        for repo in &corpus.repos {
            let found = find_psl_files(repo, &reference);
            if found.iter().any(|f| f.via == FoundVia::Content) {
                sniffed += 1;
            }
        }
        assert!(sniffed > 0, "no content-sniffed copies found");
    }

    #[test]
    fn source_files_are_not_sniffed_as_lists() {
        let h = generate(&GeneratorConfig::small(87));
        let reference = reference_texts(&h);
        let repo = Repository {
            name: "x/y".into(),
            stars: 0,
            forks: 0,
            last_commit: psl_core::Date::parse("2022-01-01").unwrap(),
            files: vec![FileEntry {
                path: "src/huge.py".into(),
                content: (0..200)
                    .map(|i| format!("def f{i}(): pass"))
                    .collect::<Vec<_>>()
                    .join("\n"),
            }],
            ground_truth: None,
        };
        let found = find_psl_files(&repo, &reference);
        assert!(found.is_empty());
    }

    #[test]
    fn no_copy_means_no_class() {
        let h = generate(&GeneratorConfig::small(89));
        let repo = Repository {
            name: "empty/repo".into(),
            stars: 1,
            forks: 0,
            last_commit: psl_core::Date::parse("2022-01-01").unwrap(),
            files: vec![],
            ground_truth: None,
        };
        let corpus = RepoCorpus { observed_at: repo.last_commit, repos: vec![repo] };
        let scan = RepoScan::build(&corpus, &h);
        let det = &scan.detections[0];
        assert!(det.class.is_none());
        assert!(det.dated.is_none());
    }
}
