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
use psl_stats::{derive_seed, index_below, unit_cut};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::select_unpredictable;

/// Stream tag separating session-script derivation from the per-page
/// request streams (both branch off the corpus stream seed).
const SESSION_STREAM_TAG: u64 = 0x7365_7373_6971; // "sessiq"

/// Room for the most events one script can hold: a platform session's
/// 4 pages, each a visit, a cookie, a credential save and 4 loads.
const MAX_EVENTS: usize = 32;

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
        self.session_events_with(index, out, |_| {});
    }

    /// [`SessionStream::session_events`], calling `visit` with every host
    /// an event names as the event is drawn: a visited page, a load's
    /// target, and a framed load's frame owner. Cookie and credential
    /// events name none; they act on the page a visit named. A host may
    /// be reported more than once.
    ///
    /// The generator draws first and selects after, as
    /// [`StreamCorpus::page_requests`] does, so no event branches on its
    /// draws. The session takes its roll, its pool draw and its page-count
    /// draw, maps them into every kind of session it could be and selects
    /// one. Each load takes its roll and its target draw, the target draw
    /// on a clone of the `StdRng` that it keeps only when the target used
    /// it (a load of the page itself draws nothing); its frame roll and
    /// frame draw work the same way. Cookie and credential events are
    /// written into a fixed array and kept by bumping its length with
    /// their roll. Rolls are compared as integers ([`unit_cut`]). A pool
    /// that cannot be picked gets a cut of 0, and an empty one borrows the
    /// organisations as a stand-in. The scripts are the ones the tests'
    /// branchy `reference` makes.
    pub fn session_events_with(
        &self,
        index: u64,
        out: &mut Vec<SessionEvent>,
        mut visit: impl FnMut(HostId),
    ) {
        let mut rng = StdRng::seed_from_u64(derive_seed(self.seed, index));
        let pools = self.corpus.pools();
        let roll = rng.next_u64() >> 11;
        let (pick, count) = (rng.next_u64(), rng.next_u64());
        // Platform-customer sessions visit sibling stores of one platform
        // (the late-era leak scenario); exception-city sessions visit
        // sibling city hosts (the early-era signal: old wildcard-only
        // lists split what the exception rule groups); organisation
        // sessions are the Zipf-weighted stable bulk (the control mass
        // whose decisions rarely move with list age).
        let (platforms, platform_cut) = match pools.platforms.as_slice() {
            [] => (pools.orgs.as_slice(), 0),
            platforms => (platforms, unit_cut(0.30)),
        };
        let (cities, city_cut) = match pools.cities.as_slice() {
            [] => (pools.orgs.as_slice(), 0),
            cities => (cities, unit_cut(0.45)),
        };
        let customers = platforms[index_below(pick, platforms.len())].as_slice();
        let city = cities[index_below(pick, cities.len())].as_slice();
        let org = pools.orgs[self.corpus.org_zipf().rank(pick) - 1].as_slice();
        let (pool, n_pages) = select_unpredictable(
            roll < platform_cut,
            (customers, (2 + index_below(count, 3)).min(customers.len().max(1))),
            select_unpredictable(
                roll < city_cut,
                (city, (2 + index_below(count, 2)).min(city.len())),
                (org, 1 + index_below(count, 3)),
            ),
        );
        out.clear();
        out.reserve(MAX_EVENTS);
        for _ in 0..n_pages {
            let page = pool[index_below(rng.next_u64(), pool.len())];
            self.page(&mut rng, page, pool, out, &mut visit);
        }
    }

    /// Write one page visit into `events` from `n` on and return the new
    /// length: the navigation, cookie and credential activity, and
    /// subresource loads mixing siblings, the page itself and trackers.
    fn page(
        &self,
        rng: &mut StdRng,
        page: HostId,
        siblings: &[HostId],
        out: &mut Vec<SessionEvent>,
        visit: &mut impl FnMut(HostId),
    ) {
        let trackers = &self.corpus.pools().trackers;
        let tracker = |x: u64| trackers[self.corpus.tracker_zipf().rank(x) - 1];
        out.push(SessionEvent::Visit(page));
        visit(page);
        let kept = out.len() + usize::from(rng.next_u64() >> 11 < unit_cut(0.70));
        out.push(SessionEvent::SetCookie);
        out.truncate(kept);
        let kept = out.len() + usize::from(rng.next_u64() >> 11 < unit_cut(0.15));
        out.push(SessionEvent::SaveCredential);
        out.truncate(kept);
        let sibling_cut = if siblings.len() > 1 { unit_cut(0.45) } else { 0 };
        let (own_cut, frame_cut) = (unit_cut(0.60), unit_cut(0.18));
        let n_loads = 1 + index_below(rng.next_u64(), 4);
        for _ in 0..n_loads {
            // A load of the page itself takes no target draw, and an
            // unframed load no frame draw: take each draw on a copy, and
            // keep the copy only when the draw was used.
            let r = rng.next_u64() >> 11;
            let mut ahead = rng.clone();
            let x = ahead.next_u64();
            let own = r >= sibling_cut && r < own_cut;
            let other = select_unpredictable(r < own_cut, page, tracker(x));
            let target = select_unpredictable(
                r < sibling_cut,
                siblings[index_below(x, siblings.len())],
                other,
            );
            *rng = select_unpredictable(own, rng.clone(), ahead);
            let framed = rng.next_u64() >> 11 < frame_cut;
            let mut ahead = rng.clone();
            let frame = tracker(ahead.next_u64());
            *rng = select_unpredictable(framed, ahead, rng.clone());
            out.push(select_unpredictable(
                framed,
                SessionEvent::FramedLoad { frame, target },
                SessionEvent::Load(target),
            ));
            visit(target);
            visit(select_unpredictable(framed, frame, target));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{build_stream, CorpusConfig};
    use crate::stream::Pools;
    use psl_history::{generate, GeneratorConfig};

    fn fixture() -> StreamCorpus {
        let h = generate(&GeneratorConfig::small(61));
        build_stream(&h, &CorpusConfig::small(21))
    }

    /// The branchy generator [`SessionStream::session_events`] replaced,
    /// kept as its one reference: the session and each load branch on
    /// their rolls and draw only for what they chose.
    fn reference(ss: &SessionStream<'_>, index: u64, out: &mut Vec<SessionEvent>) {
        out.clear();
        let mut rng = StdRng::seed_from_u64(derive_seed(ss.seed, index));
        let pools = ss.corpus.pools();
        let roll: f64 = rng.gen();
        if roll < 0.30 && !pools.platforms.is_empty() {
            let customers = &pools.platforms[rng.gen_range(0..pools.platforms.len())];
            let n_pages = (2 + rng.gen_range(0..3usize)).min(customers.len().max(1));
            for _ in 0..n_pages {
                let page = customers[rng.gen_range(0..customers.len())];
                reference_page(ss, &mut rng, page, customers, out);
            }
        } else if roll < 0.45 && !pools.cities.is_empty() {
            let city = &pools.cities[rng.gen_range(0..pools.cities.len())];
            let n_pages = (2 + rng.gen_range(0..2usize)).min(city.len());
            for _ in 0..n_pages {
                let page = city[rng.gen_range(0..city.len())];
                reference_page(ss, &mut rng, page, city, out);
            }
        } else {
            let org = &pools.orgs[ss.corpus.org_zipf().sample(&mut rng) - 1];
            let n_pages = 1 + rng.gen_range(0..3);
            for _ in 0..n_pages {
                let page = org[rng.gen_range(0..org.len())];
                reference_page(ss, &mut rng, page, org, out);
            }
        }
    }

    fn reference_page(
        ss: &SessionStream<'_>,
        rng: &mut StdRng,
        page: HostId,
        siblings: &[HostId],
        out: &mut Vec<SessionEvent>,
    ) {
        let pools = ss.corpus.pools();
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
                pools.trackers[ss.corpus.tracker_zipf().sample(rng) - 1]
            };
            if rng.gen::<f64>() < 0.18 {
                let frame = pools.trackers[ss.corpus.tracker_zipf().sample(rng) - 1];
                out.push(SessionEvent::FramedLoad { frame, target });
            } else {
                out.push(SessionEvent::Load(target));
            }
        }
    }

    /// The hosts `events` name, sorted and deduplicated.
    fn named_hosts(events: &[SessionEvent]) -> Vec<HostId> {
        let mut hosts: Vec<HostId> = events
            .iter()
            .flat_map(|ev| match *ev {
                SessionEvent::Visit(h) | SessionEvent::Load(h) => vec![h],
                SessionEvent::FramedLoad { frame, target } => vec![frame, target],
                SessionEvent::SetCookie | SessionEvent::SaveCredential => vec![],
            })
            .collect();
        hosts.sort_unstable();
        hosts.dedup();
        hosts
    }

    /// The first 2,000 sessions of `sc` against the reference.
    fn assert_sessions_match_reference(sc: &StreamCorpus, what: &str) {
        let ss = sc.sessions(2000);
        let (mut fast, mut slow) = (Vec::new(), Vec::new());
        for i in 0..ss.sessions() {
            ss.session_events(i, &mut fast);
            reference(&ss, i, &mut slow);
            assert_eq!(fast, slow, "{what}: session {i}");
        }
    }

    #[test]
    fn session_events_equal_the_reference_under_every_guard() {
        let h = generate(&GeneratorConfig::small(61));
        for seed in [21, 22, 5, 1234] {
            let base = CorpusConfig::small(seed);
            let cases = [
                ("small", base.clone()),
                ("one-host cities", CorpusConfig { exception_city_hosts: 1, ..base.clone() }),
                (
                    "one-host platforms",
                    CorpusConfig { platform_customers_other: 1, ..base.clone() },
                ),
                ("one tracker", CorpusConfig { trackers: 1, ..base.clone() }),
            ];
            for (what, config) in cases {
                let sc = build_stream(&h, &config);
                let p = sc.pools();
                let reached = match what {
                    "one-host cities" => p.cities.iter().all(|c| c.len() == 1),
                    "one-host platforms" => p.platforms.iter().any(|c| c.len() == 1),
                    "one tracker" => p.trackers.len() == 1,
                    _ => p.orgs.iter().any(|o| o.len() == 1),
                };
                assert!(reached, "{what}, seed {seed}: the guard is not reached");
                assert_sessions_match_reference(&sc, &format!("{what}, seed {seed}"));
            }
        }
    }

    /// Pools no generated world here has: no platforms, no cities, and
    /// organisations of one host each.
    #[test]
    fn session_events_equal_the_reference_on_degenerate_pools() {
        let h = generate(&GeneratorConfig::small(61));
        type Edit = fn(&mut Pools);
        let edits: [(&str, Edit); 3] = [
            ("no platforms", |p| p.platforms.clear()),
            ("no cities", |p| p.cities.clear()),
            ("one-host organisations", |p| p.orgs.iter_mut().for_each(|o| o.truncate(1))),
        ];
        for seed in [21, 5] {
            let sc = build_stream(&h, &CorpusConfig::small(seed));
            for (what, edit) in edits {
                let mut pools = sc.pools().clone();
                edit(&mut pools);
                let edited = sc.with_pools(pools);
                assert_sessions_match_reference(&edited, &format!("{what}, seed {seed}"));
            }
        }
    }

    /// The visitor reports exactly the hosts the script names, the frame
    /// owners of framed loads included.
    #[test]
    fn the_visitor_names_every_host_of_every_event() {
        let sc = fixture();
        let ss = sc.sessions(2000);
        let (mut events, mut framed_only) = (Vec::new(), 0);
        for i in 0..ss.sessions() {
            let mut visited = Vec::new();
            ss.session_events_with(i, &mut events, |h| visited.push(h));
            visited.sort_unstable();
            visited.dedup();
            assert_eq!(visited, named_hosts(&events), "session {i}");
            // A frame owner that no visit or load names: only the frame
            // report puts it in the set.
            framed_only += events
                .iter()
                .filter(|ev| {
                    match ev {
                    SessionEvent::FramedLoad { frame, .. } => !events.iter().any(|e| {
                        matches!(e, SessionEvent::Visit(h) | SessionEvent::Load(h) if h == frame)
                    }),
                    _ => false,
                }
                })
                .count();
        }
        assert!(framed_only > 100, "{framed_only} frame owners named by their frame alone");
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
            assert!(named_hosts(&buf).iter().all(|&h| h < n_hosts), "session {i}");
        }
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
