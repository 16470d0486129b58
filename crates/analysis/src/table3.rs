//! Table 3: per-project harm — fixed-usage repositories with their
//! popularity, embedded-list age, and the number of corpus hostnames their
//! copy misclassifies relative to the latest list.
//!
//! That number is Figure 7's row at the copy's dated version, so the table
//! reads it from the sweep's per-version rows.

use crate::sweep::{row_at, VersionStats};
use psl_repocorpus::{FixedKind, RepoScan, UsageClass};
use serde::Serialize;

/// One Table 3 row.
#[derive(Debug, Clone, Serialize)]
pub struct Table3Row {
    /// Repository slug.
    pub name: String,
    /// Stars.
    pub stars: u32,
    /// Forks.
    pub forks: u32,
    /// Embedded-list age (days at t).
    pub list_age_days: i32,
    /// Corpus hostnames whose site differs under the embedded copy vs. the
    /// latest list.
    pub missing_hostnames: usize,
    /// Fixed sub-category (`Production` / `Test` / `Other`).
    pub block: String,
}

/// The Table 3 report.
#[derive(Debug, Clone, Serialize)]
pub struct Table3Report {
    /// Rows grouped by block (production first), stars descending within.
    pub rows: Vec<Table3Row>,
}

/// Run the Table 3 experiment over a scan and the sweep's per-version
/// rows (`stats`, one per history version).
pub fn run(scan: &RepoScan<'_>, stats: &[VersionStats]) -> Table3Report {
    let t = scan.corpus.observed_at;
    let mut rows = Vec::new();
    for (repo, class, dated) in scan.dated() {
        let UsageClass::Fixed(kind) = class else {
            continue;
        };
        rows.push(Table3Row {
            name: repo.name.clone(),
            stars: repo.stars,
            forks: repo.forks,
            list_age_days: dated.age_days(t),
            missing_hostnames: row_at(stats, dated.version).hosts_in_different_site_vs_latest,
            block: match kind {
                FixedKind::Production => "Production".to_string(),
                FixedKind::Test => "Test".to_string(),
                FixedKind::Other => "Other".to_string(),
            },
        });
    }
    let block_order = |b: &str| match b {
        "Production" => 0,
        "Test" => 1,
        _ => 2,
    };
    rows.sort_by(|a, b| {
        block_order(&a.block)
            .cmp(&block_order(&b.block))
            .then(b.stars.cmp(&a.stars))
            .then(a.name.cmp(&b.name))
    });
    Table3Report { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep_stream::{sweep_stream, StreamSweepConfig};
    use psl_history::{generate, GeneratorConfig};
    use psl_repocorpus::{generate_repos, RepoGenConfig};
    use psl_webcorpus::{build_stream, CorpusConfig};

    #[test]
    fn table3_reproduces_named_rows_and_age_harm_relation() {
        let h = generate(&GeneratorConfig::small(171));
        let stream = build_stream(&h, &CorpusConfig::small(19));
        let repos = generate_repos(&h, &RepoGenConfig::default());
        let sweep = sweep_stream(&h, &stream, &StreamSweepConfig::default());
        let report = run(&RepoScan::build(&repos, &h), &sweep.stats);

        // All 68 fixed repos appear.
        assert_eq!(report.rows.len(), 68);
        // Production block first, stars descending.
        assert_eq!(report.rows[0].name, "bitwarden/server");
        assert_eq!(report.rows[0].stars, 10959);
        assert_eq!(report.rows[0].block, "Production");

        // bitwarden's old copy (≈1596 days) misses more hostnames than
        // Yubico/python-fido2's fresh copy (≈188 days).
        let get = |n: &str| report.rows.iter().find(|r| r.name == n).unwrap();
        let bw = get("bitwarden/server");
        let fido = get("Yubico/python-fido2");
        assert!(bw.list_age_days > fido.list_age_days);
        assert!(
            bw.missing_hostnames > fido.missing_hostnames,
            "bitwarden {} vs fido {}",
            bw.missing_hostnames,
            fido.missing_hostnames
        );
        // bitwarden/server and bitwarden/mobile share a list age, so they
        // miss the same hostnames (paper: both 36,326).
        let mobile = get("bitwarden/mobile");
        assert!((bw.list_age_days - mobile.list_age_days).abs() <= 60);
    }

    #[test]
    fn older_lists_miss_weakly_more_hostnames() {
        let h = generate(&GeneratorConfig::small(173));
        let stream = build_stream(&h, &CorpusConfig::small(21));
        let repos = generate_repos(&h, &RepoGenConfig::default());
        let sweep = sweep_stream(&h, &stream, &StreamSweepConfig::default());
        let report = run(&RepoScan::build(&repos, &h), &sweep.stats);
        // Rank correlation between age and missing hostnames should be
        // strongly positive.
        let ages: Vec<f64> = report.rows.iter().map(|r| r.list_age_days as f64).collect();
        let missing: Vec<f64> = report.rows.iter().map(|r| r.missing_hostnames as f64).collect();
        let rho = psl_stats::spearman(&ages, &missing).unwrap();
        assert!(rho > 0.8, "spearman {rho}");
    }
}
