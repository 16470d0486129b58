//! # psl-conformance
//!
//! Correctness subsystem for the workspace's PSL engine, with three
//! pillars:
//!
//! - **Test vectors** ([`vectors`], [`generate`]): parse and evaluate the
//!   upstream `checkPublicSuffix(host, expected)` format, ship a curated
//!   vector file for the embedded mini PSL, and derive fresh vectors from
//!   any [`psl_core::List`] using the linear reference matcher.
//! - **Differential oracle** ([`differential`]): answer every probe
//!   hostname by the production walk over an owned list and by the same
//!   walk over the history's versioned arena at that version, and compare
//!   both with the one oracle, the linear scan, across all versions of a
//!   history, reporting the first divergence with a minimized reproducer.
//! - **Golden snapshots** ([`golden`]): byte-exact JSON and text fixtures
//!   for analysis outputs and printed reports, re-blessed with
//!   `PSL_BLESS=1`.

#![forbid(unsafe_code)]

pub mod differential;
pub mod generate;
pub mod golden;
pub mod vectors;

pub use differential::{
    check_list, first_divergence, list_probes, one_version, probe_corpus, sweep_history,
    Divergence, ProductionMatcher, SweepOutcome, WALK_SHAPES,
};
pub use generate::{generate_vectors, GenerateConfig};
pub use golden::{
    assert_golden, assert_golden_bytes, assert_golden_text, blessing, check_golden,
    check_golden_bytes, check_golden_text, GoldenError, GoldenStatus,
};
pub use vectors::{
    parse_vectors, registrable_for, run_vectors, ParseVectorError, TestVector, VectorFailure,
    VectorOutcome, SHIPPED_VECTORS,
};
