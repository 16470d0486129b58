//! Golden snapshot of the Figures 5–7 rows in the paper-scale sweep world.
//!
//! The world is the benchmark's `sweep` workload at seed 7: the paper
//! configuration with history seed 7 and corpus seed 8, streamed to about
//! 500,000 requests. All 1,142 per-version rows are pinned, so any change
//! to the version walk, the site ids or the request pass that moves one
//! count shows up as a readable fixture diff. Re-bless intentional
//! changes with:
//!
//! ```text
//! PSL_BLESS=1 cargo test -p psl-conformance --test golden_sweep
//! ```

use psl_analysis::{figs567, sweep_stream, PipelineConfig};
use psl_conformance::assert_golden;
use std::path::PathBuf;

#[test]
fn golden_figs567_paper_scale_seed7() {
    let mut config = PipelineConfig::default();
    config.history.seed = 7;
    config.corpus.seed = 8;
    let history = psl_history::generate(&config.history);
    let stream =
        psl_webcorpus::build_stream(&history, &config.corpus.clone().with_target_requests(500_000));
    let out = sweep_stream(&history, &stream, &config.sweep);
    let report = figs567::package(&out.stats, stream.host_count(), out.total_requests as usize);
    assert_eq!(report.rows.len(), 1_142);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/figs567_paper_scale_seed7.json");
    assert_golden(&path, &report);
}
