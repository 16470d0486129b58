//! # psl-fuzz — deterministic structure-aware differential fuzzing
//!
//! The paper's measurements only hold if boundary computation is *exact*:
//! a mis-parsed rule or mis-canonicalised label silently shifts eTLD+1
//! groupings and corrupts every downstream harm count. The conformance
//! crate checks inputs we thought of; this crate actively hunts for inputs
//! we did not, by generating structured inputs and requiring independent
//! implementations to agree on every one of them:
//!
//! - **hostname** — canonicalisation idempotence, Unicode/punycode
//!   round-trips, and the matcher differential (the production walk and
//!   the walk over a one-version arena vs. the linear oracle) under the
//!   full option matrix;
//! - **dat** — `parse_dat → write_dat → parse_dat` preserves the rule set
//!   and `write_dat` output is a fixpoint;
//! - **cookie** — `SetCookie::parse` vs. an independently written
//!   RFC 6265 §5.2 reference parser, plus jar storage invariants;
//! - **service** — protocol sessions replayed over real TCP against a
//!   loopback server and compared byte-for-byte with a direct engine
//!   computation;
//! - **snapshot** — byte-level corruption of compiled binary snapshots
//!   fed to the loader: typed rejection or a self-consistent accept (the
//!   loaded list == its reloaded re-serialization == the linear oracle
//!   over the decompiled rules), never a panic.
//!
//! Everything is deterministic: a tiny pinned SplitMix64 stream
//! ([`rng::FuzzRng`], no external fuzzing deps) means a `(seed, iters)`
//! pair reproduces a run exactly. Failures are shrunk by a greedy
//! minimizer and land as plain-text files in `crates/fuzz/corpus/`, which
//! `cargo test` replays forever — every bug the fuzzer ever found stays
//! fixed. See DESIGN.md §9 and the README "Fuzzing" section.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod corpus;
pub mod gen;
pub mod minimize;
pub mod rng;
pub mod runner;
pub mod targets;

pub use corpus::{corpus_dir, read_corpus, write_corpus_entry, Input, Target};
pub use rng::FuzzRng;
pub use runner::{run_target, run_target_with, Finding, FuzzConfig, Outcome};
pub use targets::{ListUnderTest, MatcherFactory, TrieFactory};
