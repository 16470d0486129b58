//! Figure 4: PSL age vs. repository activity, sized by popularity.
//!
//! A scatter of projects with fixed, in-production list copies: x = days
//! since last commit, y = embedded-list age, point size = stars. Also
//! reports the stars–forks Pearson correlation the paper uses to justify
//! stars as a popularity proxy (0.96), and the "only 5 repositories with
//! 500+ stars, median 60" observations.

use psl_repocorpus::{RepoScan, UsageClass};
use serde::Serialize;

/// One scatter point.
#[derive(Debug, Clone, Serialize)]
pub struct Fig4Point {
    /// Repository slug.
    pub name: String,
    /// Embedded-list age in days at t.
    pub list_age_days: i32,
    /// Days since the last commit at t.
    pub days_since_commit: i32,
    /// Stars (point size).
    pub stars: u32,
    /// Usage class label (color).
    pub class: String,
}

/// The Figure 4 report.
#[derive(Debug, Clone, Serialize)]
pub struct Fig4Report {
    /// Scatter points for fixed-usage projects.
    pub points: Vec<Fig4Point>,
    /// Pearson correlation of stars vs. forks over the corpus.
    pub stars_forks_pearson: f64,
    /// Fixed/production repositories with >= 500 stars.
    pub production_over_500_stars: usize,
    /// Median star count among fixed/production repositories.
    pub production_median_stars: f64,
}

/// Run the Figure 4 experiment.
pub fn run(scan: &RepoScan<'_>) -> Fig4Report {
    let corpus = scan.corpus;
    let t = corpus.observed_at;
    let mut points = Vec::new();
    let mut production_stars = Vec::new();
    for (repo, class, dated) in scan.dated() {
        if !matches!(class, UsageClass::Fixed(_)) {
            continue;
        }
        if class.is_fixed_production() {
            production_stars.push(repo.stars as f64);
        }
        points.push(Fig4Point {
            name: repo.name.clone(),
            list_age_days: dated.age_days(t),
            days_since_commit: repo.days_since_last_commit(t),
            stars: repo.stars,
            class: class.to_string(),
        });
    }
    let xs: Vec<f64> = corpus.repos.iter().map(|r| r.stars as f64).collect();
    let ys: Vec<f64> = corpus.repos.iter().map(|r| r.forks as f64).collect();
    Fig4Report {
        points,
        stars_forks_pearson: psl_stats::pearson(&xs, &ys).unwrap_or(f64::NAN),
        production_over_500_stars: production_stars.iter().filter(|&&s| s >= 500.0).count(),
        production_median_stars: psl_stats::median(&production_stars).unwrap_or(f64::NAN),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psl_history::{generate, GeneratorConfig};
    use psl_repocorpus::{generate_repos, RepoGenConfig};

    #[test]
    fn scatter_covers_fixed_repos_with_paper_statistics() {
        let h = generate(&GeneratorConfig::small(141));
        let corpus = generate_repos(&h, &RepoGenConfig::default());
        let report = run(&RepoScan::build(&corpus, &h));

        // 68 fixed repos in Table 1.
        assert_eq!(report.points.len(), 68);
        // Paper: Pearson 0.96 between stars and forks.
        assert!(report.stars_forks_pearson > 0.9, "{}", report.stars_forks_pearson);
        // Paper: "only 5 repositories have 500 or more stars" among fixed
        // production... our named production block has 3, synthetic tails
        // may add a few.
        assert!(
            (2..=8).contains(&report.production_over_500_stars),
            "{}",
            report.production_over_500_stars
        );
        // Paper: median of 60 stars.
        assert!(
            (20.0..=150.0).contains(&report.production_median_stars),
            "{}",
            report.production_median_stars
        );
        // bitwarden/server must appear with its real metadata.
        let bw = report.points.iter().find(|p| p.name == "bitwarden/server").unwrap();
        assert_eq!(bw.stars, 10959);
        assert!((bw.list_age_days - 1596).abs() < 120, "{}", bw.list_age_days);
    }
}
