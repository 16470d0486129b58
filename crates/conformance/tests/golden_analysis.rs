//! Golden snapshots of `psl-analysis` outputs.
//!
//! The fixtures under `tests/golden/` pin the exact JSON produced by the
//! deterministic small-scale pipeline. Any intentional change to the
//! generators or experiments shows up as a readable fixture diff and is
//! re-blessed with:
//!
//! ```text
//! PSL_BLESS=1 cargo test -p psl-conformance --test golden_analysis
//! ```

use psl_analysis::{build_substrates, run_all, FullReport, PipelineConfig};
use psl_conformance::assert_golden;
use std::path::PathBuf;
use std::sync::OnceLock;

fn report() -> &'static FullReport {
    static CELL: OnceLock<FullReport> = OnceLock::new();
    CELL.get_or_init(|| {
        let config = PipelineConfig::small(2023);
        let subs = build_substrates(&config);
        run_all(&subs, &config)
    })
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.json"))
}

#[test]
fn golden_table1_taxonomy() {
    assert_golden(&fixture("table1"), &report().table1);
}

#[test]
fn golden_table2_missed_etlds() {
    assert_golden(&fixture("table2"), &report().table2);
}

#[test]
fn golden_table3_project_rows() {
    assert_golden(&fixture("table3"), &report().table3);
}

#[test]
fn golden_fig2_growth() {
    assert_golden(&fixture("fig2"), &report().fig2);
}

#[test]
fn golden_update_failure() {
    assert_golden(&fixture("update_failure"), &report().update_failure);
}

#[test]
fn golden_figs567_sweep() {
    assert_golden(&fixture("figs567"), &report().figs567);
}

#[test]
fn golden_cookie_harm() {
    assert_golden(&fixture("cookie_harm"), &report().cookie_harm);
}

#[test]
fn golden_cert_harm() {
    assert_golden(&fixture("cert_harm"), &report().cert_harm);
}

#[test]
fn golden_dbound() {
    assert_golden(&fixture("dbound"), &report().dbound);
}

#[test]
fn golden_category_shift() {
    assert_golden(&fixture("category_shift"), &report().category_shift);
}
