//! Deterministic per-session browsing scripts for the fleet simulator.
//!
//! A *session* is one simulated user's browsing trace: a handful of
//! top-level page visits, each with server `Set-Cookie` responses,
//! occasional password-manager saves, and a mix of first-party, sibling
//! and tracker subresource loads (some inside cross-site iframes). The
//! scripts are derived exactly like [`StreamCorpus`]'s page stream:
//! session `i` draws everything from its own RNG seeded via
//! [`psl_stats::derive_seed`], so shard `s` of `K` (owning sessions `s,
//! s+K, s+2K, …`) produces the same scripts no matter how many shards or
//! workers exist — the K-shard output-invariance contract the fleet's
//! mergeable harm accumulators rely on.
//!
//! The session mix is chosen so every paper harm class is *executed*:
//! platform-customer sessions visit sibling stores of one shared-hosting
//! platform (late-era supercookie + leak + wrong-autofill signal),
//! exception-city sessions visit sibling city hosts (the early-era
//! same-site/partition signal), and organisation sessions are the stable
//! control bulk, Zipf-weighted like the page stream.

use crate::model::HostId;
use crate::stream::StreamCorpus;
use psl_stats::derive_seed;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Stream tag separating session-script derivation from the per-page
/// request streams (both branch off the corpus stream seed).
const SESSION_STREAM_TAG: u64 = 0x7365_7373_6971; // "sessiq"

/// One scripted browsing action, in dense host ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionEvent {
    /// Navigate the tab to a top-level page.
    Visit(HostId),
    /// The current page's server sets a session cookie scoped to the
    /// page host's parent domain (`Domain=parent`) — the realistic
    /// attribute usage whose validity is exactly the PSL check.
    SetCookie,
    /// Save a credential for the current page (password manager).
    SaveCredential,
    /// Load a subresource from a host in the top-level frame.
    Load(HostId),
    /// Load a subresource inside a cross-site iframe: `frame` owns the
    /// iframe, `target` is the resource host (frame ancestry applies).
    FramedLoad {
        /// Host owning the intermediate iframe.
        frame: HostId,
        /// Host the framed request goes to.
        target: HostId,
    },
}

impl SessionEvent {
    /// The hosts this event names, as a pair: a framed load's frame owner
    /// and target, or a visited page or load target twice, so a caller
    /// treats every event that names hosts alike. Cookie and credential
    /// events name none: they act on the current page, which a `Visit`
    /// named. Over a whole script these are every host whose list facts
    /// executing it can read.
    pub fn hosts(self) -> Option<(HostId, HostId)> {
        match self {
            SessionEvent::Visit(h) | SessionEvent::Load(h) => Some((h, h)),
            SessionEvent::FramedLoad { frame, target } => Some((frame, target)),
            SessionEvent::SetCookie | SessionEvent::SaveCredential => None,
        }
    }
}

/// A deterministic stream of session scripts over a corpus's host
/// population. Sessions are derived, not stored: memory is independent
/// of the session count.
#[derive(Debug)]
pub struct SessionStream<'c> {
    corpus: &'c StreamCorpus,
    sessions: u64,
    seed: u64,
}

impl<'c> SessionStream<'c> {
    pub(crate) fn new(corpus: &'c StreamCorpus, sessions: u64) -> Self {
        SessionStream {
            corpus,
            sessions,
            seed: derive_seed(corpus.stream_seed(), SESSION_STREAM_TAG),
        }
    }

    /// Number of sessions in the stream.
    pub fn sessions(&self) -> u64 {
        self.sessions
    }

    /// The corpus whose host population the scripts reference.
    pub fn corpus(&self) -> &StreamCorpus {
        self.corpus
    }

    /// The session indices owned by shard `s` of `k`: `s, s+k, s+2k, …`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `s >= k` (a construction-time programming
    /// error in the caller's shard plan).
    pub fn shard_sessions(&self, s: u64, k: u64) -> impl Iterator<Item = u64> {
        assert!(k > 0 && s < k, "invalid shard {s} of {k}");
        (s..self.sessions).step_by(k as usize)
    }

    /// Generate session `index`'s script into `out` (cleared first).
    /// Deterministic and independent of every other session: the draws
    /// come from a per-session derived RNG stream.
    pub fn session_events(&self, index: u64, out: &mut Vec<SessionEvent>) {
        out.clear();
        let mut rng = StdRng::seed_from_u64(derive_seed(self.seed, index));
        let pools = self.corpus.pools();
        let roll: f64 = rng.gen();
        if roll < 0.30 && !pools.platforms.is_empty() {
            // Platform-customer session: sibling stores of one platform —
            // the late-era leak scenario.
            let customers = &pools.platforms[rng.gen_range(0..pools.platforms.len())];
            let n_pages = (2 + rng.gen_range(0..3usize)).min(customers.len().max(1));
            for _ in 0..n_pages {
                let page = customers[rng.gen_range(0..customers.len())];
                self.page(&mut rng, page, customers, out);
            }
        } else if roll < 0.45 && !pools.cities.is_empty() {
            // Exception-city session: sibling city hosts — the early-era
            // signal (old wildcard-only lists split what the exception
            // rule groups).
            let city = &pools.cities[rng.gen_range(0..pools.cities.len())];
            let n_pages = (2 + rng.gen_range(0..2usize)).min(city.len());
            for _ in 0..n_pages {
                let page = city[rng.gen_range(0..city.len())];
                self.page(&mut rng, page, city, out);
            }
        } else {
            // Organisation session: the Zipf-weighted stable bulk (the
            // control mass whose decisions rarely move with list age).
            let org = &pools.orgs[self.corpus.org_zipf().sample(&mut rng) - 1];
            let n_pages = 1 + rng.gen_range(0..3);
            for _ in 0..n_pages {
                let page = org[rng.gen_range(0..org.len())];
                self.page(&mut rng, page, org, out);
            }
        }
    }

    /// Emit one page visit: navigation, cookie/credential activity, and
    /// subresource loads mixing siblings and trackers.
    fn page(
        &self,
        rng: &mut StdRng,
        page: HostId,
        siblings: &[HostId],
        out: &mut Vec<SessionEvent>,
    ) {
        let pools = self.corpus.pools();
        out.push(SessionEvent::Visit(page));
        if rng.gen::<f64>() < 0.70 {
            out.push(SessionEvent::SetCookie);
        }
        if rng.gen::<f64>() < 0.15 {
            out.push(SessionEvent::SaveCredential);
        }
        let n_loads = 1 + rng.gen_range(0..4);
        for _ in 0..n_loads {
            let r: f64 = rng.gen();
            let target = if r < 0.45 && siblings.len() > 1 {
                siblings[rng.gen_range(0..siblings.len())]
            } else if r < 0.60 {
                page
            } else {
                pools.trackers[self.corpus.tracker_zipf().sample(rng) - 1]
            };
            if rng.gen::<f64>() < 0.18 {
                let frame = pools.trackers[self.corpus.tracker_zipf().sample(rng) - 1];
                out.push(SessionEvent::FramedLoad { frame, target });
            } else {
                out.push(SessionEvent::Load(target));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{build_stream, CorpusConfig};
    use psl_history::{generate, GeneratorConfig};

    fn fixture() -> StreamCorpus {
        let h = generate(&GeneratorConfig::small(61));
        build_stream(&h, &CorpusConfig::small(21))
    }

    #[test]
    fn session_scripts_are_deterministic_and_independent() {
        let sc = fixture();
        let ss = sc.sessions(1000);
        let mut a = Vec::new();
        let mut b = Vec::new();
        ss.session_events(7, &mut a);
        ss.session_events(123, &mut b);
        let mut a2 = Vec::new();
        ss.session_events(7, &mut a2);
        assert_eq!(a, a2);
        assert!(!a.is_empty());
        assert_ne!(a, b, "distinct sessions draw from distinct streams");
        // The stream length does not perturb the scripts.
        let longer = sc.sessions(1_000_000);
        let mut c = Vec::new();
        longer.session_events(7, &mut c);
        assert_eq!(a, c);
    }

    #[test]
    fn shards_partition_the_sessions_for_any_k() {
        let sc = fixture();
        let ss = sc.sessions(101);
        let whole: Vec<u64> = ss.shard_sessions(0, 1).collect();
        assert_eq!(whole.len(), 101);
        for k in [2u64, 4, 13] {
            let mut union: Vec<u64> = (0..k).flat_map(|s| ss.shard_sessions(s, k)).collect();
            union.sort_unstable();
            assert_eq!(union, whole, "k={k}");
        }
    }

    #[test]
    fn every_script_starts_with_a_visit_and_references_valid_hosts() {
        let sc = fixture();
        let n_hosts = sc.host_count() as u32;
        let ss = sc.sessions(300);
        let mut buf = Vec::new();
        for i in 0..300 {
            ss.session_events(i, &mut buf);
            assert!(matches!(buf[0], SessionEvent::Visit(_)), "session {i}");
            let valid = |(a, b): (HostId, HostId)| a < n_hosts && b < n_hosts;
            assert!(buf.iter().filter_map(|ev| ev.hosts()).all(valid), "session {i}");
        }
    }

    #[test]
    fn event_hosts_name_the_frame_and_the_target() {
        assert_eq!(SessionEvent::Visit(3).hosts(), Some((3, 3)));
        assert_eq!(SessionEvent::Load(5).hosts(), Some((5, 5)));
        assert_eq!(SessionEvent::FramedLoad { frame: 7, target: 2 }.hosts(), Some((7, 2)));
        assert_eq!(SessionEvent::SetCookie.hosts(), None);
        assert_eq!(SessionEvent::SaveCredential.hosts(), None);
    }

    #[test]
    fn the_mix_exercises_every_harm_class() {
        let sc = fixture();
        let ss = sc.sessions(2000);
        let mut buf = Vec::new();
        let (mut cookies, mut creds, mut framed, mut multi_page) = (0u32, 0u32, 0u32, 0u32);
        for i in 0..2000 {
            ss.session_events(i, &mut buf);
            let visits = buf.iter().filter(|e| matches!(e, SessionEvent::Visit(_))).count();
            if visits > 1 {
                multi_page += 1;
            }
            cookies += buf.iter().filter(|e| matches!(e, SessionEvent::SetCookie)).count() as u32;
            creds +=
                buf.iter().filter(|e| matches!(e, SessionEvent::SaveCredential)).count() as u32;
            framed +=
                buf.iter().filter(|e| matches!(e, SessionEvent::FramedLoad { .. })).count() as u32;
        }
        assert!(cookies > 1000, "cookies {cookies}");
        assert!(creds > 100, "creds {creds}");
        assert!(framed > 200, "framed {framed}");
        assert!(multi_page > 1000, "multi-page sessions {multi_page}");
    }
}
