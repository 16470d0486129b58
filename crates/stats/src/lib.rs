//! # psl-stats — statistics substrate for the PSL privacy-harms pipeline
//!
//! Small, dependency-light statistics used across the reproduction:
//! descriptive summaries and percentiles (list-age medians), ECDFs
//! (Figure 3), histograms, Pearson/Spearman correlation (the stars–forks
//! calibration), and deterministic heavy-tailed samplers (Zipf traffic,
//! log-normal popularity) for the synthetic substrates.
//!
//! Everything is driven by explicit `&mut impl Rng` so a single seeded
//! [`rand::rngs::StdRng`] makes the whole pipeline reproducible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod correlation;
pub mod descriptive;
pub mod ecdf;
pub mod histogram;
pub mod hll;
pub mod process;
pub mod sampler;

pub use correlation::{pearson, ranks, spearman};
pub use descriptive::{
    mean, median, median_i64, percentile, percentile_sorted, stddev, summarize, variance, Summary,
};
pub use ecdf::Ecdf;
pub use histogram::Histogram;
pub use hll::{hash64, mix64, HyperLogLog};
pub use process::{current_rss_bytes, peak_rss_bytes, reset_peak_rss};
pub use sampler::{
    derive_seed, exponential, index_below, log_normal, standard_normal, unit_cut, unit_f64,
    weighted_index, Zipf,
};
