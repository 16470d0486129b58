//! # psl-history — the versioned Public Suffix List substrate
//!
//! The paper's pipeline consumes *all 1,142 dated versions* of the PSL
//! (2007-03-22 → 2022-10-20). This crate provides:
//!
//! - [`History`]: rule lifespans + publication dates, with snapshots,
//!   diffs, O(spans + versions) growth series, and
//!   [`History::versioned_list`]: every version in one
//!   [`psl_core::VersionedList`] arena, which answers "as of" questions
//!   without a rebuild;
//! - [`generator`]: a synthetic history calibrated to the paper's Figure 2
//!   (growth 2,447 → 9,368 rules, the mid-2012 JP spike, the final
//!   component mix), with analysis-critical real suffixes pinned at real
//!   dates by [`seeds`];
//! - [`dating::DatingIndex`]: exact-fingerprint and best-subset dating of
//!   embedded list copies — the tooling the paper's repository study needs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blame;
pub mod compile;
pub mod dating;
pub mod export;
pub mod generator;
pub mod growth;
pub mod history;
pub mod seeds;

pub use blame::{blame, churn_by_year, publication_cadence_days, removed_rule_lifetimes, Blame};
pub use compile::CompiledHistory;
pub use dating::{fingerprint, DatedCopy, DatingIndex, MatchQuality};
pub use export::{all_versions_dat, from_json, to_json, version_dat};
pub use generator::{generate, GeneratorConfig};
pub use growth::{GrowthPoint, GrowthSeries};
pub use history::{Changes, Diff, History, RuleSpan};
