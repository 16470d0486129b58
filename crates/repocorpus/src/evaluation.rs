//! Detector evaluation: confusion matrix against ground truth, plus
//! adversarial corpora for false-positive measurement.
//!
//! The paper classified repositories manually; our detector is automated,
//! so it needs an evaluation harness. Besides the generated corpus (whose
//! ground truth it must recover exactly), the harness builds *adversarial*
//! repositories containing PSL-shaped-but-not-PSL files — sorted word
//! lists, adblock filter lists, CSV data — that a sloppy content sniffer
//! would misreport.

use crate::detector::RepoScan;
use crate::repo::{FileEntry, RepoCorpus, Repository};
use crate::taxonomy::UsageClass;
use psl_core::Date;
use serde::Serialize;
use std::collections::BTreeMap;

/// Evaluation results over a corpus with ground truth.
#[derive(Debug, Clone, Serialize)]
pub struct Evaluation {
    /// Repositories evaluated.
    pub total: usize,
    /// Exactly-correct classifications.
    pub correct: usize,
    /// Misclassifications: (truth, detected) -> count.
    pub confusion: BTreeMap<(String, String), usize>,
    /// Repos with ground truth where no copy was found (false
    /// negatives).
    pub missed: usize,
    /// Accuracy over repos with ground truth.
    pub accuracy: f64,
}

/// Evaluate a scan's verdicts against its corpus's ground truth.
pub fn evaluate(scan: &RepoScan<'_>) -> Evaluation {
    let mut total = 0;
    let mut correct = 0;
    let mut missed = 0;
    let mut confusion: BTreeMap<(String, String), usize> = BTreeMap::new();
    for det in &scan.detections {
        let Some(truth) = det.repo.ground_truth else {
            continue;
        };
        total += 1;
        match det.class {
            Some(found) if found == truth => correct += 1,
            Some(found) => {
                *confusion.entry((truth.to_string(), found.to_string())).or_insert(0) += 1;
            }
            None => missed += 1,
        }
    }
    Evaluation { total, correct, confusion, missed, accuracy: correct as f64 / total.max(1) as f64 }
}

/// Build adversarial repositories: files that look list-like but are not
/// PSL copies. A correct detector finds **no** PSL file in any of them.
pub fn adversarial_repos() -> Vec<Repository> {
    let date = Date::from_days_since_epoch(19000);
    let f = |path: &str, content: String| FileEntry { path: path.into(), content };
    let repo = |name: &str, files: Vec<FileEntry>| Repository {
        name: name.into(),
        stars: 1,
        forks: 0,
        last_commit: date,
        files,
        ground_truth: None,
    };

    vec![
        // A dictionary word list: single tokens, parse as 1-label rules,
        // but with essentially no overlap with real suffixes.
        repo(
            "adversarial/wordlist",
            vec![f(
                "data/words.txt",
                (0..400).map(|i| format!("wordnumber{i}")).collect::<Vec<_>>().join("\n"),
            )],
        ),
        // An adblock filter list: `||domain^` syntax fails rule parsing.
        repo(
            "adversarial/filterlist",
            vec![f(
                "lists/ads.txt",
                (0..400)
                    .map(|i| format!("||tracker{i}.com^$third-party"))
                    .collect::<Vec<_>>()
                    .join("\n"),
            )],
        ),
        // CSV data: commas fail rule parsing.
        repo(
            "adversarial/csv",
            vec![f(
                "data/metrics.csv",
                (0..400).map(|i| format!("row{i},value{i},10")).collect::<Vec<_>>().join("\n"),
            )],
        ),
        // A hosts file: "0.0.0.0 domain" lines; the parser takes the
        // first token (an IP-ish string) which fails label validation.
        repo(
            "adversarial/hostsfile",
            vec![f(
                "config/hosts",
                (0..400)
                    .map(|i| format!("0.0.0.0 blocked{i}.example.com"))
                    .collect::<Vec<_>>()
                    .join("\n"),
            )],
        ),
        // A crontab-like config where lines parse as odd multi-label
        // names but overlap with nothing.
        repo(
            "adversarial/config",
            vec![f(
                "etc/service.conf",
                (0..300)
                    .map(|i| format!("option{i}.section{i}.internal"))
                    .collect::<Vec<_>>()
                    .join("\n"),
            )],
        ),
    ]
}

/// Count the scanned repositories in which the detector found a PSL copy
/// (over [`adversarial_repos`], every one is a false positive).
pub fn false_positives(scan: &RepoScan<'_>) -> usize {
    scan.detections.iter().filter(|d| !d.list_paths.is_empty()).count()
}

/// A sanity check that the evaluation's classes cover the taxonomy: the
/// number of distinct truth classes seen.
pub fn distinct_truth_classes(corpus: &RepoCorpus) -> usize {
    let set: std::collections::HashSet<UsageClass> =
        corpus.repos.iter().filter_map(|r| r.ground_truth).collect();
    set.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_repos, RepoGenConfig};
    use psl_history::{generate, GeneratorConfig};

    /// A corpus holding just `repos`.
    fn corpus_of(repos: Vec<Repository>) -> RepoCorpus {
        RepoCorpus { observed_at: Date::from_days_since_epoch(19000), repos }
    }

    #[test]
    fn generated_corpus_evaluates_perfectly() {
        let h = generate(&GeneratorConfig::small(521));
        let corpus = generate_repos(&h, &RepoGenConfig::default());
        let eval = evaluate(&RepoScan::build(&corpus, &h));
        assert_eq!(eval.total, 273);
        assert_eq!(eval.correct, 273);
        assert_eq!(eval.missed, 0);
        assert!(eval.confusion.is_empty());
        assert_eq!(eval.accuracy, 1.0);
        assert_eq!(distinct_truth_classes(&corpus), 12);
    }

    #[test]
    fn adversarial_repos_produce_no_false_positives() {
        let h = generate(&GeneratorConfig::small(523));
        let repos = adversarial_repos();
        assert_eq!(repos.len(), 5);
        let fp = false_positives(&RepoScan::build(&corpus_of(repos), &h));
        assert_eq!(fp, 0, "detector sniffed a non-PSL file as a PSL copy");
    }

    #[test]
    fn a_real_copy_hidden_in_an_adversarial_repo_is_still_found() {
        let h = generate(&GeneratorConfig::small(525));
        let mut repos = adversarial_repos();
        // Plant a genuine (renamed) copy among the decoys.
        repos[0].files.push(FileEntry {
            path: "assets/tld_data.txt".into(),
            content: psl_core::write_dat(&h.rules_at(h.versions()[50])),
        });
        let fp = false_positives(&RepoScan::build(&corpus_of(repos), &h));
        assert_eq!(fp, 1, "the planted copy must be detected");
    }
}
