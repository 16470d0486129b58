//! Table 1: the usage taxonomy of repositories embedding the PSL.
//!
//! Runs the detector over the whole repository corpus and tabulates the
//! inferred classes — the executable version of the paper's manual
//! classification. When ground truth is available the report also carries
//! the detector's confusion count.

use psl_repocorpus::{RepoScan, UsageClass};
use serde::Serialize;
use std::collections::BTreeMap;

/// One taxonomy row.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Row {
    /// Class label (e.g. `Fixed/Production`).
    pub class: String,
    /// Number of projects.
    pub projects: usize,
    /// Share of all classified projects.
    pub percent: f64,
}

/// The Table 1 report.
#[derive(Debug, Clone, Serialize)]
pub struct Table1Report {
    /// Rows in taxonomy order.
    pub rows: Vec<Table1Row>,
    /// Top-level rollups: (label, count, percent).
    pub top_level: Vec<(String, usize, f64)>,
    /// Projects in which the detector found a list copy.
    pub classified: usize,
    /// Projects with no detectable copy.
    pub unclassified: usize,
    /// Detector errors vs. ground truth (repos where the generator's
    /// intent differs from the detector's verdict).
    pub ground_truth_mismatches: usize,
}

/// Run the Table 1 experiment.
pub fn run(scan: &RepoScan<'_>) -> Table1Report {
    let mut counts: BTreeMap<UsageClass, usize> = BTreeMap::new();
    let mut unclassified = 0;
    let mut mismatches = 0;
    for detection in &scan.detections {
        match detection.class {
            Some(class) => {
                *counts.entry(class).or_insert(0) += 1;
                if let Some(truth) = detection.repo.ground_truth {
                    if truth != class {
                        mismatches += 1;
                    }
                }
            }
            None => unclassified += 1,
        }
    }
    let classified: usize = counts.values().sum();
    let denom = classified.max(1) as f64;
    let rows = counts
        .iter()
        .map(|(class, &n)| Table1Row {
            class: class.to_string(),
            projects: n,
            percent: 100.0 * n as f64 / denom,
        })
        .collect();

    let mut top: BTreeMap<&'static str, usize> = BTreeMap::new();
    for (class, &n) in &counts {
        *top.entry(class.top_level()).or_insert(0) += n;
    }
    let top_level = top
        .into_iter()
        .map(|(label, n)| (label.to_string(), n, 100.0 * n as f64 / denom))
        .collect();

    Table1Report { rows, top_level, classified, unclassified, ground_truth_mismatches: mismatches }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psl_history::{generate, GeneratorConfig};
    use psl_repocorpus::{generate_repos, RepoGenConfig};

    #[test]
    fn taxonomy_reproduces_table1() {
        let h = generate(&GeneratorConfig::small(121));
        let corpus = generate_repos(&h, &RepoGenConfig::default());
        let report = run(&RepoScan::build(&corpus, &h));

        assert_eq!(report.classified, 273);
        assert_eq!(report.unclassified, 0);
        assert_eq!(report.ground_truth_mismatches, 0);

        let by_label: std::collections::HashMap<&str, usize> =
            report.top_level.iter().map(|(l, n, _)| (l.as_str(), *n)).collect();
        assert_eq!(by_label["Fixed"], 68);
        assert_eq!(by_label["Updated"], 35);
        assert_eq!(by_label["Dependency"], 170);

        // Paper percentages: 24.9% / 12.8% / 62.3%.
        let pct: std::collections::HashMap<&str, f64> =
            report.top_level.iter().map(|(l, _, p)| (l.as_str(), *p)).collect();
        assert!((pct["Fixed"] - 24.9).abs() < 0.2, "{}", pct["Fixed"]);
        assert!((pct["Updated"] - 12.8).abs() < 0.2);
        assert!((pct["Dependency"] - 62.3).abs() < 0.2);

        // Sub-category spot checks.
        let row = |label: &str| {
            report
                .rows
                .iter()
                .find(|r| r.class == label)
                .unwrap_or_else(|| panic!("{label} missing"))
                .projects
        };
        assert_eq!(row("Fixed/Production"), 43);
        assert_eq!(row("Fixed/Test"), 24);
        assert_eq!(row("Fixed/Other"), 1);
        assert_eq!(row("Dependency/jre"), 113);
    }
}
