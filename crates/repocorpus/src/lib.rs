//! # psl-repocorpus — the GitHub repository corpus and PSL detector
//!
//! The paper found 273 GitHub repositories embedding the PSL, manually
//! classified how each integrates the list (Table 1), dated the embedded
//! copies (Figure 3), and seeded its harm tables with 47 named projects
//! (Table 3). This crate makes that study executable:
//!
//! - [`taxonomy`]: the Fixed / Updated / Dependency usage classes with the
//!   paper's exact Table 1 targets;
//! - [`named`]: the Table 3 repositories, verbatim;
//! - [`generator`]: a corpus generator that lays out concrete file trees
//!   (embedded `.dat` copies, Makefile fetches, vendored libraries) whose
//!   ground truth is recoverable from the files alone;
//! - [`detector`]: find (filename + content sniffing), date (via
//!   `psl_history::DatingIndex`), and classify — replacing the paper's
//!   manual labelling with tooling; [`RepoScan`] runs it once per corpus;
//! - [`notify`]: maintainer-notification text for flagged projects.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod detector;
pub mod evaluation;
pub mod generator;
pub mod named;
pub mod notify;
pub mod repo;
pub mod taxonomy;

pub use detector::{classify, find_psl_files, Detection, FoundList, FoundVia, RepoScan};
pub use evaluation::{adversarial_repos, evaluate, false_positives, Evaluation};
pub use generator::{generate_repos, RepoGenConfig};
pub use named::{all_named, NamedRepo};
pub use notify::notification;
pub use repo::{FileEntry, RepoCorpus, Repository};
pub use taxonomy::{
    DependencyLib, FixedKind, UpdatedKind, UsageClass, TABLE1_TARGETS, TOTAL_PROJECTS,
};
