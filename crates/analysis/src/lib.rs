//! # psl-analysis — the paper's experiments
//!
//! Reproduces every table and figure of *"A First Look at the Privacy Harms
//! of the Public Suffix List"* (IMC 2023) over the synthetic substrates:
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`fig2`] | Figure 2 — list growth + component breakdown |
//! | [`table1`] | Table 1 — usage taxonomy of 273 repositories |
//! | [`fig3`] | Figure 3 — embedded-list age ECDFs (medians 871/915/825) |
//! | [`fig4`] | Figure 4 — list age vs. activity, sized by stars |
//! | [`figs567`] | Figures 5–7 — per-version sites / third-party / moved hosts |
//! | [`table2`] | Table 2 — largest missing eTLDs |
//! | [`table3`] | Table 3 — per-project harm |
//!
//! [`walker`] is the shared hot path: one walk over the list versions
//! gives every hostname's disposition timeline, which the Figs. 5–7
//! engine ([`sweep_stream()`]), the fleet and the harm extensions read;
//! [`pipeline`] glues substrate generation and all experiments together,
//! walking the corpus hosts once for every host-level experiment;
//! [`report`] turns each report into a [`report::Table`], printed as text
//! or, by [`markdown`], as Markdown.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod browser_replay;
pub mod category_shift;
pub mod cookie_harm;
pub mod dbound_exp;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod figs567;
pub mod fleet;
pub mod markdown;
pub mod pipeline;
pub mod report;
pub mod sweep;
pub mod sweep_stream;
pub mod table1;
pub mod table2;
pub mod table3;
pub mod update_failure;
pub mod walker;

pub use fleet::{
    execute_session, run_fleet, FleetAccumulator, FleetConfig, FleetOutcome, FleetRow,
};
pub use markdown::render_markdown;
pub use pipeline::{build_substrates, run_all, FullReport, PipelineConfig, Substrates};
pub use sweep::{resolved_threads, stats_for_single_list, sweep_rebuild, VersionStats};
pub use sweep_stream::{
    sweep_stream, ShardAccumulator, SiteCounter, SiteSet, StreamSweepConfig, StreamSweepOutcome,
};
