//! Render a [`FullReport`] as a self-contained Markdown document — the
//! terminal report in Markdown syntax, the artifact a reproduction run
//! hands to a reader.

use crate::pipeline::FullReport;
use crate::report::Table;

/// The whole report: a title, then every table `pslharm all` prints, in
/// the same order.
pub fn render_markdown(report: &FullReport) -> String {
    let mut out = String::from("# PSL privacy-harms reproduction report\n");
    for table in report.tables() {
        out.push_str(&section(&table));
    }
    out
}

/// One table as a `##` section: a pipe table, then each note as a
/// paragraph.
fn section(table: &Table) -> String {
    let mut out = format!("\n## {}\n\n", table.title);
    out.push_str(&row(table.headers.iter().copied()));
    out.push_str(&format!("|{}|\n", vec!["---"; table.headers.len()].join("|")));
    for cells in &table.rows {
        out.push_str(&row(cells.iter().map(String::as_str)));
    }
    for note in &table.notes {
        out.push_str(&format!("\n{note}\n"));
    }
    out
}

/// One pipe-table line; a `|` inside a cell is escaped so it stays text.
fn row<'a>(cells: impl Iterator<Item = &'a str>) -> String {
    let cells: Vec<String> = cells.map(|cell| cell.replace('|', "\\|")).collect();
    format!("| {} |\n", cells.join(" | "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{build_substrates, run_all, PipelineConfig};
    use crate::report::SECTIONS;
    use std::sync::OnceLock;

    fn markdown() -> &'static str {
        static CELL: OnceLock<String> = OnceLock::new();
        CELL.get_or_init(|| {
            let config = PipelineConfig::small(801);
            let subs = build_substrates(&config);
            render_markdown(&run_all(&subs, &config))
        })
    }

    #[test]
    fn markdown_renders_every_section() {
        let md = markdown();
        for heading in [
            "# PSL privacy-harms reproduction report",
            "## Figure 2",
            "## Table 1",
            "## Figure 3",
            "## Figure 4",
            "## Figures 5-7",
            "## Table 2",
            "## Table 3",
        ] {
            assert!(md.contains(heading), "missing {heading}");
        }
        assert_eq!(md.matches("\n## Extension: ").count(), 6);
        assert!(md.contains("myshopify.com"));
        assert!(md.contains("bitwarden/server"));
        // Tables are well-formed: every table line starts and ends with a
        // pipe.
        for line in md.lines().filter(|l| l.starts_with('|')) {
            assert!(line.ends_with('|'), "bad table row: {line}");
        }
    }

    #[test]
    fn every_table_row_has_as_many_cells_as_its_header() {
        // Unescaped pipes delimit cells; the update-failure header
        // `harm | fallback` must stay one cell.
        let cells = |line: &str| line.replace("\\|", "").matches('|').count() - 1;
        let (mut tables, mut header) = (0, None);
        for line in markdown().lines() {
            if !line.starts_with('|') {
                header = None;
            } else if let Some(width) = header {
                assert_eq!(cells(line), width, "{line}");
            } else {
                header = Some(cells(line));
                tables += 1;
            }
        }
        assert_eq!(tables, SECTIONS.len());
        assert!(markdown().contains("| harm \\| fallback |"));
    }
}
