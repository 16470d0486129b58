//! End-to-end integration: substrates → experiments → reports, spanning
//! every crate in the workspace.

use psl_analysis::{build_substrates, run_all, PipelineConfig};

#[test]
fn full_small_pipeline_runs_and_reports_are_consistent() {
    let config = PipelineConfig::small(4242);
    let subs = build_substrates(&config);
    let report = run_all(&subs, &config);

    // Figure 2 series covers every version and grows.
    assert_eq!(report.fig2.series.len(), subs.history.version_count());
    let f2_first = &report.fig2.series[0];
    let f2_last = report.fig2.series.last().unwrap();
    assert!(f2_last.total > f2_first.total);

    // Table 1: exact paper taxonomy, perfect detector recovery.
    assert_eq!(report.table1.classified, 273);
    assert_eq!(report.table1.ground_truth_mismatches, 0);

    // Figure 3 medians are ordered like the paper's: updated > fixed.
    let fixed = report.fig3.median_of("fixed").unwrap();
    let updated = report.fig3.median_of("updated").unwrap();
    assert!(updated > fixed - 120.0, "updated {updated} should not be far below fixed {fixed}");

    // Figures 5–7 internal consistency.
    let rows = &report.figs567.rows;
    assert_eq!(rows.last().unwrap().hosts_moved_vs_latest, 0);
    assert!(rows[0].hosts_moved_vs_latest > 0);
    assert!(report.figs567.extra_sites_latest_vs_first > 0);

    // Figure 7 is weakly decreasing in trend: compare era averages.
    let third = rows.len() / 3;
    let avg = |s: &[psl_analysis::figs567::SweepRow]| {
        s.iter().map(|r| r.hosts_moved_vs_latest as f64).sum::<f64>() / s.len() as f64
    };
    let early = avg(&rows[..third]);
    let late = avg(&rows[2 * third..]);
    assert!(early > late, "moved-hosts early {early} late {late}");

    // Table 2 totals include every row.
    assert!(report.table2.total_etlds >= report.table2.rows.len());
    let shown: usize = report.table2.rows.iter().map(|r| r.hostnames).sum();
    assert!(report.table2.total_hostnames >= shown);

    // Table 3 covers all 68 fixed repos and agrees with Table 1's count.
    assert_eq!(report.table3.rows.len(), 68);

    // The JSON export is parseable and complete.
    let json = report.to_json();
    let value: serde_json::Value = serde_json::from_str(&json).unwrap();
    for key in ["fig2", "table1", "fig3", "fig4", "figs567", "table2", "table3"] {
        assert!(value.get(key).is_some(), "{key} missing from JSON export");
    }
}

#[test]
fn pipeline_is_deterministic_per_seed() {
    let config = PipelineConfig::small(777);
    let a = run_all(&build_substrates(&config), &config);
    let b = run_all(&build_substrates(&config), &config);
    assert_eq!(a.to_json(), b.to_json());

    let other = PipelineConfig::small(778);
    let c = run_all(&build_substrates(&other), &other);
    assert_ne!(a.to_json(), c.to_json());
}

#[test]
fn detector_dates_agree_with_table3_ages() {
    use psl_repocorpus::RepoScan;

    let config = PipelineConfig::small(1234);
    let subs = build_substrates(&config);
    let report = run_all(&subs, &config);
    let scan = RepoScan::build(&subs.repos, &subs.history);

    for row in report.table3.rows.iter().take(10) {
        let repo = subs.repos.repo(&row.name).unwrap();
        let det = scan.detections.iter().find(|d| std::ptr::eq(d.repo, repo)).unwrap();
        let age = det.dated.unwrap().age_days(subs.repos.observed_at);
        assert_eq!(age, row.list_age_days, "{}", row.name);
    }
}
