//! Extension experiment: expected harm of the *updated* strategies when
//! updates fail.
//!
//! The paper (§4) notes that updated-strategy projects "are also exposed:
//! these updates might fail, resulting in the use of the out-of-date
//! versions of the list that they incorporate", and that server projects
//! (refreshed only at bootstrap, rarely restarted) "are most at risk". We
//! quantify that: each updated sub-strategy gets a fallback probability —
//! the chance the software is actually running on its embedded copy — and
//! its expected harm is that probability times the embedded copy's
//! misgrouped-hostname count, read from the sweep's Figure 7 row at the
//! copy's dated version.

use crate::sweep::{row_at, VersionStats};
use psl_repocorpus::{RepoScan, UpdatedKind, UsageClass};
use serde::Serialize;

/// Fallback probabilities per sub-strategy.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct FallbackModel {
    /// Build-time refresh: the artifact is frozen at build; between
    /// releases it is effectively fixed. Probability the *deployed*
    /// artifact predates the latest list changes.
    pub build: f64,
    /// User applications restart (and refresh) often; fallback only on
    /// fetch failure.
    pub user: f64,
    /// Server daemons refresh at bootstrap and run for months.
    pub server: f64,
}

impl Default for FallbackModel {
    fn default() -> Self {
        // Build artifacts are commonly months old; user apps rarely miss
        // a fetch; servers sit between (the paper: "most at risk" of the
        // updated kinds relative to their refresh cadence).
        FallbackModel { build: 0.60, user: 0.05, server: 0.45 }
    }
}

impl FallbackModel {
    fn for_kind(&self, kind: UpdatedKind) -> f64 {
        match kind {
            UpdatedKind::Build => self.build,
            UpdatedKind::User => self.user,
            UpdatedKind::Server => self.server,
        }
    }
}

/// Per-strategy expected harm.
#[derive(Debug, Clone, Serialize)]
pub struct UpdateFailureRow {
    /// Strategy label.
    pub strategy: String,
    /// Projects in the strategy.
    pub projects: usize,
    /// Fallback probability used.
    pub fallback_probability: f64,
    /// Mean misgrouped hostnames *if* the fallback copy is in use.
    pub mean_misgrouped_on_fallback: f64,
    /// Expected misgrouped hostnames (probability × conditional harm).
    pub expected_misgrouped: f64,
}

/// The extension report.
#[derive(Debug, Clone, Serialize)]
pub struct UpdateFailureReport {
    /// One row per updated sub-strategy, plus a fixed/production baseline
    /// row (probability 1.0).
    pub rows: Vec<UpdateFailureRow>,
}

/// Run the experiment over a scan and the sweep's per-version rows
/// (`stats`, one per history version).
pub fn run(
    scan: &RepoScan<'_>,
    stats: &[VersionStats],
    model: &FallbackModel,
) -> UpdateFailureReport {
    // Collect per-repo conditional harms by class.
    let mut per_kind: std::collections::BTreeMap<String, (f64, Vec<f64>)> = Default::default();
    for (_, class, dated) in scan.dated() {
        let (label, p) = match class {
            UsageClass::Updated(kind) => (format!("Updated/{kind:?}"), model.for_kind(kind)),
            UsageClass::Fixed(_) if class.is_fixed_production() => {
                ("Fixed/Production (baseline)".to_string(), 1.0)
            }
            _ => continue,
        };
        let moved = row_at(stats, dated.version).hosts_in_different_site_vs_latest;
        per_kind.entry(label).or_insert((p, Vec::new())).1.push(moved as f64);
    }

    let rows = per_kind
        .into_iter()
        .map(|(strategy, (p, harms))| {
            let mean = psl_stats::mean(&harms).unwrap_or(0.0);
            UpdateFailureRow {
                strategy,
                projects: harms.len(),
                fallback_probability: p,
                mean_misgrouped_on_fallback: mean,
                expected_misgrouped: p * mean,
            }
        })
        .collect();
    UpdateFailureReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep_stream::{sweep_stream, StreamSweepConfig};
    use psl_history::{generate, GeneratorConfig};
    use psl_repocorpus::{generate_repos, RepoGenConfig};
    use psl_webcorpus::{build_stream, CorpusConfig};

    #[test]
    fn strategies_rank_as_the_paper_argues() {
        let h = generate(&GeneratorConfig::small(431));
        let c = build_stream(&h, &CorpusConfig::small(61));
        let repos = generate_repos(&h, &RepoGenConfig::default());
        let sweep = sweep_stream(&h, &c, &StreamSweepConfig::default());
        let report = run(&RepoScan::build(&repos, &h), &sweep.stats, &FallbackModel::default());

        let get = |label: &str| {
            report
                .rows
                .iter()
                .find(|r| r.strategy == label)
                .unwrap_or_else(|| panic!("{label} missing"))
        };
        let fixed = get("Fixed/Production (baseline)");
        let build = get("Updated/Build");
        let user = get("Updated/User");
        let server = get("Updated/Server");

        // Table 1 counts carry over.
        assert_eq!(fixed.projects, 43);
        assert_eq!(build.projects, 24);
        assert_eq!(user.projects, 8);
        assert_eq!(server.projects, 3);

        // Fixed/production is the worst; among updated kinds, servers
        // beat users in expected harm (the paper's "most at risk").
        assert!(fixed.expected_misgrouped > build.expected_misgrouped);
        assert!(server.expected_misgrouped > user.expected_misgrouped);
        // Conditional harm is positive everywhere (every embedded copy is
        // behind the latest list).
        for row in &report.rows {
            assert!(row.mean_misgrouped_on_fallback > 0.0, "{}", row.strategy);
        }
    }
}
