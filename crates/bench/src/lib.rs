//! # psl-bench — shared fixtures for the benchmark harness
//!
//! Each Criterion bench regenerates one paper table or figure (see
//! `benches/figures.rs` and `benches/tables.rs`), with engine micro-benches
//! (`benches/engine.rs`) and design ablations (`benches/ablations.rs`).
//! Substrates are generated once per process and shared.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use psl_history::{GeneratorConfig, History};
use psl_repocorpus::{RepoCorpus, RepoGenConfig};
use psl_webcorpus::{CorpusConfig, StreamCorpus, WebCorpus};
use std::sync::OnceLock;

/// The benchmark world: a small-scale history, web corpus, and repo
/// corpus, plus IANA snapshot.
pub struct World {
    /// Versioned list history.
    pub history: History,
    /// Web request corpus as a stream (what the sweep reads).
    pub stream: StreamCorpus,
    /// The same corpus materialized.
    pub corpus: WebCorpus,
    /// Repository corpus.
    pub repos: RepoCorpus,
}

/// Lazily build (once per process) the shared bench world.
pub fn world() -> &'static World {
    static CELL: OnceLock<World> = OnceLock::new();
    CELL.get_or_init(|| {
        let history = psl_history::generate(&GeneratorConfig::small(0xBEEF));
        let stream = psl_webcorpus::build_stream(&history, &CorpusConfig::small(0xF00D));
        let corpus = stream.materialize();
        let repos = psl_repocorpus::generate_repos(
            &history,
            &RepoGenConfig { seed: 0xCAFE, ..Default::default() },
        );
        World { history, stream, corpus, repos }
    })
}

/// A larger corpus for scale ablations.
pub fn scaled_corpus(scale: f64, pages: usize) -> WebCorpus {
    let history = &world().history;
    let config = CorpusConfig { seed: 0xD00D, scale, pages, ..CorpusConfig::small(0) };
    psl_webcorpus::generate_corpus(history, &config)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_builds_once_and_is_consistent() {
        let w1 = world();
        let w2 = world();
        assert!(std::ptr::eq(w1, w2));
        assert!(w1.history.version_count() > 0);
        assert!(w1.corpus.host_count() > 0);
        assert_eq!(w1.repos.len(), 273);
    }

    #[test]
    fn scaled_corpus_scales() {
        let small = scaled_corpus(0.01, 200);
        let big = scaled_corpus(0.05, 400);
        assert!(big.host_count() > small.host_count());
    }
}
