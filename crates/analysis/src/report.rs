//! How every report is shown: the [`Table`] model, its terminal layout,
//! and the one table per report.
//!
//! Each [`FullReport`] section ([`SECTIONS`], in `pslharm all`'s order),
//! the streamed Figures 5–7 ([`SweepReport::table`]) and the browser
//! fleet ([`FleetOutcome::table`]) build one [`Table`]. Its `Display` is
//! the terminal layout; [`crate::markdown`] renders the same tables as
//! Markdown.

use crate::figs567::SweepReport;
use crate::fleet::FleetOutcome;
use crate::pipeline::FullReport;
use std::fmt;

/// A row of cells from `Display` values.
macro_rules! cells {
    ($($cell:expr),* $(,)?) => {
        vec![$($cell.to_string()),*]
    };
}

/// One report table: a title, column headers, one row of cells per line,
/// and note lines shown under the table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Section title.
    pub title: String,
    /// Column headers.
    pub headers: &'static [&'static str],
    /// Rows, each as wide as `headers`.
    pub rows: Vec<Vec<String>>,
    /// Lines shown after the table.
    pub notes: Vec<String>,
}

/// The terminal layout: a blank line, `== title ==`, the aligned table, a
/// blank line, then one line per note.
impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "\n== {} ==", self.title)?;
        writeln!(f, "{}", render_table(self.headers, &self.rows))?;
        self.notes.iter().try_for_each(|note| writeln!(f, "{note}"))
    }
}

/// Render an aligned text table.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate().take(cols) {
            if i > 0 {
                line.push_str("  ");
            }
            line.push_str(&format!("{cell:<width$}", width = widths[i]));
        }
        line.trim_end().to_string()
    };
    let hdr: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    out.push_str(&fmt_row(&hdr, &widths));
    out.push('\n');
    let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Downsample a long series to at most `n` evenly-spaced rows, keeping the
/// first and the last; `n == 1` keeps only the last, the latest version
/// every report compares against. Reports print per-version series;
/// 1,142 rows is too many for a terminal.
pub fn downsample<T: Clone>(items: &[T], n: usize) -> Vec<T> {
    if items.len() <= n {
        return items.to_vec();
    }
    match n {
        0 => Vec::new(),
        1 => items[items.len() - 1..].to_vec(),
        _ => (0..n).map(|i| items[i * (items.len() - 1) / (n - 1)].clone()).collect(),
    }
}

/// A [`FullReport`] section: the artifact subcommands that print it alone,
/// and its table.
pub type Section = (&'static [&'static str], fn(&FullReport) -> Table);

/// Every [`FullReport`] section, in the order `pslharm all` prints them.
pub const SECTIONS: [Section; 13] = [
    (&["fig2"], fig2),
    (&["table1"], table1),
    (&["fig3"], fig3),
    (&["fig4"], fig4),
    (&["fig5", "fig6", "fig7"], figs567),
    (&["table2"], table2),
    (&["table3"], table3),
    (&["cookieharm"], cookie_harm),
    (&["dbound"], dbound),
    (&["certharm"], cert_harm),
    (&["updatefail"], update_failure),
    (&["replay"], browser_replay),
    (&["categories"], category_shift),
];

/// The table an artifact subcommand prints, if `command` is one.
pub fn section(command: &str) -> Option<fn(&FullReport) -> Table> {
    SECTIONS.iter().find(|(commands, _)| commands.contains(&command)).map(|&(_, table)| table)
}

impl FullReport {
    /// Every section's table, in [`SECTIONS`] order.
    pub fn tables(&self) -> Vec<Table> {
        SECTIONS.iter().map(|(_, table)| table(self)).collect()
    }
}

impl SweepReport {
    /// Figures 5–7 under `title`: 18 evenly spaced versions and the
    /// latest-vs-first headline.
    pub fn table(&self, title: impl Into<String>) -> Table {
        let headline = format!(
            "latest vs first: +{} sites over {} hostnames / {} requests (paper: +359,966 sites on 498M requests)",
            self.extra_sites_latest_vs_first, self.unique_hostnames, self.total_requests,
        );
        Table {
            title: title.into(),
            headers: &["version", "rules", "sites (F5)", "3rd-party reqs (F6)", "hosts moved (F7)"],
            rows: downsample(&self.rows, 18)
                .iter()
                .map(|r| {
                    cells![
                        r.date,
                        r.rules,
                        r.sites,
                        r.third_party_requests,
                        r.hosts_moved_vs_latest
                    ]
                })
                .collect(),
            notes: vec![headline],
        }
    }
}

impl FleetOutcome {
    /// The harm-divergence table, one row per sampled version.
    pub fn table(&self) -> Table {
        Table {
            title: format!(
                "Browser fleet: {} sessions x {} versions over {} hosts",
                self.sessions, self.versions_sampled, self.hosts
            ),
            headers: &[
                "version",
                "age (d)",
                "set flips",
                "leaked cookies",
                "same-site flips",
                "wrong autofill",
                "merged parts",
                "split parts",
                "victims",
            ],
            rows: self
                .rows
                .iter()
                .map(|r| {
                    cells![
                        r.date,
                        r.age_days,
                        r.cookie_set_flips,
                        r.leaked_cookies,
                        r.same_site_flips,
                        r.wrong_autofill,
                        r.merged_partitions,
                        r.split_partitions,
                        r.distinct_victims
                    ]
                })
                .collect(),
            notes: Vec::new(),
        }
    }
}

fn fig2(report: &FullReport) -> Table {
    let f = &report.fig2;
    let s = f.final_shares;
    let mut notes = vec![format!(
        "final shares: 1-comp {:.1}%  2-comp {:.1}%  3-comp {:.1}%  4+ {:.2}%  (paper: 17 / 57.5 / 25.3 / ~0.1)",
        100.0 * s[0],
        100.0 * s[1],
        100.0 * s[2],
        100.0 * s[3]
    )];
    notes.extend(f.largest_jump.iter().map(|(date, delta)| {
        format!("largest jump: +{delta} rules at {date} (paper: ~1623 mid-2012 JP registrations)")
    }));
    Table {
        title: "Figure 2: PSL growth and suffix components over time".into(),
        headers: &["date", "total", "1-comp", "2-comp", "3-comp", "4+"],
        rows: downsample(&f.series, 18)
            .iter()
            .map(|r| cells![r.date, r.total, r.c1, r.c2, r.c3, r.c4])
            .collect(),
        notes,
    }
}

fn table1(report: &FullReport) -> Table {
    let t = &report.table1;
    let mut notes: Vec<String> =
        t.top_level.iter().map(|(label, n, pct)| format!("{label}: {n} ({pct:.1}%)")).collect();
    notes.push(format!(
        "classified {} / unclassified {} / detector mismatches {}",
        t.classified, t.unclassified, t.ground_truth_mismatches
    ));
    Table {
        title: "Table 1: projects by usage type".into(),
        headers: &["category", "projects", "share"],
        rows: t
            .rows
            .iter()
            .map(|r| cells![r.class, r.projects, format!("{:.1}%", r.percent)])
            .collect(),
        notes,
    }
}

fn fig3(report: &FullReport) -> Table {
    Table {
        title: "Figure 3: age of embedded lists (ECDF medians)".into(),
        headers: &["strategy", "repos", "median age"],
        rows: report
            .fig3
            .groups
            .iter()
            .map(|g| cells![g.label, g.n, format!("{:.0} days", g.median_days)])
            .collect(),
        notes: vec!["(paper medians: all 871, fixed 825, updated 915)".into()],
    }
}

fn fig4(report: &FullReport) -> Table {
    let f = &report.fig4;
    let mut points: Vec<_> = f.points.iter().collect();
    points.sort_by_key(|p| std::cmp::Reverse(p.stars));
    points.truncate(15);
    let popularity = format!(
        "stars-forks Pearson {:.3} (paper 0.96); fixed/production >=500 stars: {} (paper 5); median stars {:.0} (paper 60)",
        f.stars_forks_pearson, f.production_over_500_stars, f.production_median_stars,
    );
    Table {
        title: "Figure 4: list age vs. activity (fixed projects)".into(),
        headers: &["repository", "stars", "list age (d)", "since commit (d)", "class"],
        rows: points
            .iter()
            .map(|p| cells![p.name, p.stars, p.list_age_days, p.days_since_commit, p.class])
            .collect(),
        notes: vec![popularity],
    }
}

fn figs567(report: &FullReport) -> Table {
    report.figs567.table("Figures 5-7: corpus interpreted under every PSL version")
}

fn table2(report: &FullReport) -> Table {
    let t = &report.table2;
    Table {
        title: "Table 2: largest eTLDs missing from fixed/production lists".into(),
        headers: &["eTLD", "hostnames", "D", "F/Prd", "F/T+O", "U"],
        rows: t
            .rows
            .iter()
            .map(|r| {
                cells![
                    r.etld,
                    r.hostnames,
                    r.dependency,
                    r.fixed_production,
                    r.fixed_test_other,
                    r.updated
                ]
            })
            .collect(),
        notes: vec![format!(
            "total: {} eTLDs affecting {} hostnames (paper: 1,313 eTLDs / 50,750 hostnames)",
            t.total_etlds, t.total_hostnames
        )],
    }
}

fn table3(report: &FullReport) -> Table {
    Table {
        title: "Table 3: fixed-usage projects".into(),
        headers: &["block", "repository", "stars", "forks", "list age (d)", "missing hostnames"],
        rows: report
            .table3
            .rows
            .iter()
            .map(|r| {
                cells![r.block, r.name, r.stars, r.forks, r.list_age_days, r.missing_hostnames]
            })
            .collect(),
        notes: Vec::new(),
    }
}

fn cookie_harm(report: &FullReport) -> Table {
    let c = &report.cookie_harm;
    Table {
        title: "Extension: supercookies accepted per list version".into(),
        headers: &["version", "accepted supercookies", "exposed hostnames"],
        rows: downsample(&c.rows, 14)
            .iter()
            .map(|r| cells![r.date, r.accepted, r.exposed_hostnames])
            .collect(),
        notes: vec![format!(
            "{} attempts derived from the corpus; the latest list rejects all of them",
            c.attempts
        )],
    }
}

fn dbound(report: &FullReport) -> Table {
    let d = &report.dbound;
    let live = format!(
        "DBOUND client against live zones: {} misgrouped ({} records published, {:.1} DNS queries/host)",
        d.dbound_misgrouped, d.published_records, d.queries_per_host,
    );
    Table {
        title: "Extension: DBOUND (DNS boundaries) vs. stale client lists".into(),
        headers: &["stale list version", "misgrouped hostnames"],
        rows: downsample(&d.rows, 14)
            .iter()
            .map(|r| cells![r.date, r.stale_list_misgrouped])
            .collect(),
        notes: vec![live],
    }
}

fn cert_harm(report: &FullReport) -> Table {
    let c = &report.cert_harm;
    Table {
        title: "Extension: wildcard certificates mis-issued per list version".into(),
        headers: &["CA list version", "mis-issued wildcards", "covered hostnames"],
        rows: downsample(&c.rows, 14)
            .iter()
            .map(|r| cells![r.date, r.misissued, r.covered_hostnames])
            .collect(),
        notes: vec![format!("{} wildcard requests derived from the corpus", c.requests)],
    }
}

fn update_failure(report: &FullReport) -> Table {
    Table {
        title: "Extension: expected harm when update strategies fail".into(),
        headers: &["strategy", "projects", "P(fallback)", "harm | fallback", "expected harm"],
        rows: report
            .update_failure
            .rows
            .iter()
            .map(|r| {
                cells![
                    r.strategy,
                    r.projects,
                    format!("{:.2}", r.fallback_probability),
                    format!("{:.0}", r.mean_misgrouped_on_fallback),
                    format!("{:.0}", r.expected_misgrouped)
                ]
            })
            .collect(),
        notes: Vec::new(),
    }
}

fn browser_replay(report: &FullReport) -> Table {
    let b = &report.browser_replay;
    Table {
        title: "Extension: browser decision divergence vs. latest list".into(),
        headers: &["browser list version", "divergent decisions"],
        rows: b.rows.iter().map(|r| cells![r.date, r.divergent_decisions]).collect(),
        notes: vec![format!(
            "{} interactions replayed, {} decisions per replay",
            b.interactions, b.decisions_per_replay
        )],
    }
}

fn category_shift(report: &FullReport) -> Table {
    Table {
        title: "Extension: Figure 7 by suffix category".into(),
        headers: &["version", "generic", "country-code", "other TLD", "private", "total moved"],
        rows: report
            .category_shift
            .rows
            .iter()
            .map(|r| cells![r.date, r.generic, r.country_code, r.other_tld, r.private, r.total])
            .collect(),
        notes: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = render_table(
            &["name", "n"],
            &[vec!["a".into(), "1".into()], vec!["longer-name".into(), "22".into()]],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("name"));
        assert!(lines[3].starts_with("longer-name"));
        // Number column aligned to same offset in all rows.
        let off = lines[3].find("22").unwrap();
        assert_eq!(lines[2].as_bytes()[off] as char, '1');
    }

    #[test]
    fn downsample_keeps_endpoints() {
        let xs: Vec<usize> = (0..100).collect();
        let d = downsample(&xs, 10);
        assert_eq!(d.len(), 10);
        assert_eq!(d[0], 0);
        assert_eq!(*d.last().unwrap(), 99);
        assert_eq!(downsample(&xs, 200).len(), 100);
        // At most n, always: one row is the latest, none is none.
        assert_eq!(downsample(&xs, 2), vec![0, 99]);
        assert_eq!(downsample(&xs, 1), vec![99]);
        assert!(downsample(&xs, 0).is_empty());
        assert_eq!(downsample(&[7], 1), vec![7]);
    }

    #[test]
    fn every_artifact_command_names_one_section() {
        let commands: Vec<&str> =
            SECTIONS.iter().flat_map(|(names, _)| names.iter()).copied().collect();
        let unique: std::collections::BTreeSet<&str> = commands.iter().copied().collect();
        assert_eq!(unique.len(), commands.len(), "{commands:?}");
        assert_eq!(commands.len(), 15);
        assert!(section("fig6").is_some() && section("all").is_none());
    }
}
