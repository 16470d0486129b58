//! Golden digests of the raw generated streams the benchmark's worlds read.
//!
//! The Figures 5–7 and fleet fixtures pin sums: a generator that
//! reordered a page's requests, or a session's loads, would still pass
//! them. These fixtures pin the streams themselves, in order:
//!
//! - every `(page, request)` pair, page by page, of the `sweep` world
//!   (history seed N, corpus seed N+1, streamed to about 500,000
//!   requests) at seeds 7 and 23;
//! - every event of sessions `0..100,000` of the `fleet` world (the same
//!   seeds, the default paper-scale corpus) at seeds 7 and 23.
//!
//! Each digest is FNV-1a over the little-endian `u32` ids in order, with
//! each page's request count and each session's event count before its
//! ids, so it cannot drift with any hash in the library. Re-bless
//! intentional changes with:
//!
//! ```text
//! PSL_BLESS=1 cargo test -p psl-conformance --test golden_stream
//! ```

use psl_analysis::PipelineConfig;
use psl_conformance::assert_golden;
use psl_webcorpus::{build_stream, SessionEvent};
use serde::Serialize;
use std::path::PathBuf;

/// Requests of the benchmark's `sweep` stream.
const SWEEP_REQUESTS: u64 = 500_000;
/// Sessions pinned per `fleet` world.
const SESSIONS: u64 = 100_000;

/// FNV-1a over 32-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u32) {
        for byte in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// What one world's fixture pins: how many items there are and the
/// digest of the whole stream.
#[derive(Serialize)]
struct StreamPin {
    seed: u64,
    units: u64,
    items: u64,
    digest: String,
}

fn config(seed: u64) -> PipelineConfig {
    let mut config = PipelineConfig::default();
    config.history.seed = seed;
    config.corpus.seed = seed + 1;
    config
}

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(format!("{name}.json"))
}

fn page_stream_pin(seed: u64) -> StreamPin {
    let config = config(seed);
    let history = psl_history::generate(&config.history);
    let stream = build_stream(&history, &config.corpus.with_target_requests(SWEEP_REQUESTS));
    let (mut digest, mut items) = (Digest::new(), 0u64);
    let mut buf = Vec::new();
    for page in 0..stream.pages() {
        stream.page_requests(page, &mut buf);
        digest.word(buf.len() as u32);
        for r in &buf {
            digest.word(r.page);
            digest.word(r.request);
        }
        items += buf.len() as u64;
    }
    StreamPin { seed, units: stream.pages(), items, digest: digest.hex() }
}

fn session_stream_pin(seed: u64) -> StreamPin {
    let config = config(seed);
    let history = psl_history::generate(&config.history);
    let stream = build_stream(&history, &config.corpus);
    let sessions = stream.sessions(SESSIONS);
    let (mut digest, mut items) = (Digest::new(), 0u64);
    let mut buf = Vec::new();
    for i in 0..SESSIONS {
        sessions.session_events(i, &mut buf);
        digest.word(buf.len() as u32);
        for ev in &buf {
            match *ev {
                SessionEvent::Visit(h) => [0, h].into_iter().for_each(|w| digest.word(w)),
                SessionEvent::SetCookie => digest.word(1),
                SessionEvent::SaveCredential => digest.word(2),
                SessionEvent::Load(h) => [3, h].into_iter().for_each(|w| digest.word(w)),
                SessionEvent::FramedLoad { frame, target } => {
                    [4, frame, target].into_iter().for_each(|w| digest.word(w))
                }
            }
        }
        items += buf.len() as u64;
    }
    StreamPin { seed, units: SESSIONS, items, digest: digest.hex() }
}

#[test]
fn golden_page_streams_of_the_sweep_world() {
    let pins: Vec<StreamPin> = [7, 23].into_iter().map(page_stream_pin).collect();
    assert_golden(&fixture("page_streams_paper_scale"), &pins);
}

#[test]
fn golden_session_streams_of_the_fleet_world() {
    let pins: Vec<StreamPin> = [7, 23].into_iter().map(session_stream_pin).collect();
    assert_golden(&fixture("session_streams_paper_scale"), &pins);
}
