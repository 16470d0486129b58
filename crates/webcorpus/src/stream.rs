//! Streaming corpus: deterministic sharded request generation.
//!
//! The paper's HTTP Archive snapshot is 498M requests; materializing a
//! corpus of that size is exactly what the streaming sweep exists to
//! avoid. A [`StreamCorpus`] holds only the *host population* (which is
//! sized by the corpus configuration, not by the request count) plus the
//! sampling pools; the request stream is generated on demand, one page at
//! a time, from a per-page RNG seeded via [`psl_stats::derive_seed`].
//!
//! Because every page draws from its own seeded stream, the pairs a page
//! emits are independent of *which shard visits it and when*. Shard `s`
//! of `K` owns pages `s, s+K, s+2K, …`, so for any `K` the union of the
//! shard streams is exactly the 1-shard stream — the contract the
//! streaming sweep's mergeable accumulators rely on, and the one the
//! shard-determinism property tests in `psl-analysis` enforce.

use crate::model::{HostId, Request, WebCorpus};
use psl_core::{Date, DomainName};
use psl_stats::{derive_seed, index_below, unit_f64, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::select_unpredictable;

/// Host groups the request sampler draws from.
#[derive(Debug)]
pub(crate) struct Pools {
    /// Per-organisation host lists (first entry is the "www" page host).
    pub orgs: Vec<Vec<HostId>>,
    /// Per-platform customer host lists.
    pub platforms: Vec<Vec<HostId>>,
    /// Per-excepted-city sibling host lists.
    pub cities: Vec<Vec<HostId>>,
    /// Tracker hosts.
    pub trackers: Vec<HostId>,
    /// JP-spike hostnames (targets only; never pages).
    pub spike_hosts: Vec<HostId>,
}

/// A corpus whose request stream is generated on demand.
///
/// Holds the interned host population and the sampling pools; requests
/// are derived per page from the seed, so the memory footprint is
/// independent of how many requests are streamed.
#[derive(Debug)]
pub struct StreamCorpus {
    snapshot_date: Date,
    hosts: Vec<DomainName>,
    pools: Pools,
    org_zipf: Zipf,
    tracker_zipf: Zipf,
    pages: u64,
    requests_per_page: usize,
    page_stream_seed: u64,
}

impl StreamCorpus {
    pub(crate) fn new(
        snapshot_date: Date,
        hosts: Vec<DomainName>,
        pools: Pools,
        pages: usize,
        requests_per_page: usize,
        page_stream_seed: u64,
    ) -> Self {
        let org_zipf = Zipf::new(pools.orgs.len(), 1.05);
        let tracker_zipf = Zipf::new(pools.trackers.len(), 1.2);
        StreamCorpus {
            snapshot_date,
            hosts,
            pools,
            org_zipf,
            tracker_zipf,
            pages: pages as u64,
            requests_per_page: requests_per_page.max(1),
            page_stream_seed,
        }
    }

    /// Date of the snapshot.
    pub fn snapshot_date(&self) -> Date {
        self.snapshot_date
    }

    /// The interned hostnames (all unique); index i is host id i.
    pub fn hosts(&self) -> &[DomainName] {
        &self.hosts
    }

    /// Number of unique hostnames (fixed; does not scale with requests).
    pub fn host_count(&self) -> usize {
        self.hosts.len()
    }

    /// Resolve a host id.
    pub fn host(&self, id: HostId) -> &DomainName {
        &self.hosts[id as usize]
    }

    /// Number of pages in the stream.
    pub fn pages(&self) -> u64 {
        self.pages
    }

    /// Expected number of requests in the whole stream (each page emits
    /// `1 + uniform(0 .. 2·requests_per_page)` requests, mean `R + ½`).
    pub fn expected_requests(&self) -> f64 {
        self.pages as f64 * (self.requests_per_page as f64 + 0.5)
    }

    /// The sampling pools (session derivation draws from the same host
    /// groups as the page stream).
    pub(crate) fn pools(&self) -> &Pools {
        &self.pools
    }

    /// Zipf sampler over organisations.
    pub(crate) fn org_zipf(&self) -> &Zipf {
        &self.org_zipf
    }

    /// Zipf sampler over trackers.
    pub(crate) fn tracker_zipf(&self) -> &Zipf {
        &self.tracker_zipf
    }

    /// Base seed of the derived per-page / per-session streams.
    pub(crate) fn stream_seed(&self) -> u64 {
        self.page_stream_seed
    }

    /// A deterministic per-session event stream over this corpus's host
    /// population: `n` sessions, each derived from its own seed (see
    /// [`crate::sessions::SessionStream`]).
    pub fn sessions(&self, n: u64) -> crate::sessions::SessionStream<'_> {
        crate::sessions::SessionStream::new(self, n)
    }

    /// The page indices owned by shard `s` of `k`: `s, s+k, s+2k, …`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `s >= k` (a construction-time programming
    /// error in the caller's shard plan).
    pub fn shard_pages(&self, s: u64, k: u64) -> impl Iterator<Item = u64> {
        assert!(k > 0 && s < k, "invalid shard {s} of {k}");
        (s..self.pages).step_by(k as usize)
    }

    /// Generate the requests page `page_index` emits into `out`
    /// (cleared first), possibly none, all naming the same page host.
    /// Deterministic: the page's draws come from its own RNG stream
    /// derived from the corpus seed, independent of any other page.
    ///
    /// A request rolls `r`, then draws `x` to pick its target from the
    /// pool `r` chose; a platform request to its own page draws nothing.
    /// The loops take the draws first, map `x` into every pool it could
    /// pick from ([`index_below`] and [`Zipf::rank`] give what `gen_range`
    /// and [`Zipf::sample`] would), and choose with
    /// [`select_unpredictable`] after, so no request branches on its
    /// draws. Choosing with `if`/`else` or with bit masks lets the
    /// compiler sink each candidate back into a branch (DESIGN.md §13).
    /// The stream is the one the tests' branchy `reference` makes. A cut
    /// is the bound `r` must fall under to pick its pool, and 0 when the
    /// pool cannot be picked.
    pub fn page_requests(&self, page_index: u64, out: &mut Vec<Request>) {
        out.clear();
        let mut rng = StdRng::seed_from_u64(derive_seed(self.page_stream_seed, page_index));
        let n_requests = 1 + rng.gen_range(0..self.requests_per_page * 2);
        let pools = &self.pools;
        let tracker = |x: u64| pools.trackers[self.tracker_zipf.rank(x) - 1];
        out.reserve(n_requests);
        // Page type mix: organisations dominate; platform and city pages
        // carry the version-sensitive pairs.
        let roll: f64 = rng.gen();
        if roll < 0.62 || pools.platforms.is_empty() {
            // Organisation page.
            let org = &pools.orgs[self.org_zipf.sample(&mut rng) - 1];
            let page = org[0];
            let sibling_cut = if org.len() > 1 { 0.50 } else { 0.0 };
            // With no spike hosts the organisation stands in, never picked.
            let (spikes, spike_cut) = match pools.spike_hosts.as_slice() {
                [] => (org.as_slice(), 0.0),
                spikes => (spikes, 0.58),
            };
            for _ in 0..n_requests {
                let r = unit_f64(rng.next_u64());
                let x = rng.next_u64();
                let other = select_unpredictable(
                    r < spike_cut,
                    spikes[index_below(x, spikes.len())],
                    tracker(x),
                );
                let target =
                    select_unpredictable(r < sibling_cut, org[index_below(x, org.len())], other);
                out.push(Request { page, request: target });
            }
        } else if roll < 0.84 {
            // Platform-customer page: sibling-customer requests are the
            // late-era (rise) signal.
            let customers = &pools.platforms[rng.gen_range(0..pools.platforms.len())];
            let page = customers[rng.gen_range(0..customers.len())];
            let sibling_cut = if customers.len() > 1 { 0.40 } else { 0.0 };
            for _ in 0..n_requests {
                let r = unit_f64(rng.next_u64());
                // A request to the page itself takes no second draw: take
                // it on a copy, and keep the copy unless the page won.
                let mut ahead = rng.clone();
                let x = ahead.next_u64();
                let own = r >= sibling_cut && r < 0.70;
                let other = select_unpredictable(r < 0.70, page, tracker(x));
                let target = select_unpredictable(
                    r < sibling_cut,
                    customers[index_below(x, customers.len())],
                    other,
                );
                rng = select_unpredictable(own, rng, ahead);
                out.push(Request { page, request: target });
            }
        } else if !pools.cities.is_empty() {
            // Exception-city page: sibling requests are the early-era
            // (drop) signal.
            let city = &pools.cities[rng.gen_range(0..pools.cities.len())];
            let page = city[0];
            let sibling_cut = if city.len() > 1 { 0.55 } else { 0.0 };
            for _ in 0..n_requests {
                let r = unit_f64(rng.next_u64());
                let x = rng.next_u64();
                let target = select_unpredictable(
                    r < sibling_cut,
                    city[index_below(x, city.len())],
                    tracker(x),
                );
                out.push(Request { page, request: target });
            }
        }
    }

    /// Iterate the requests of shard `s` of `k`, page by page.
    pub fn shard_requests(&self, s: u64, k: u64) -> ShardRequests<'_> {
        assert!(k > 0 && s < k, "invalid shard {s} of {k}");
        ShardRequests { corpus: self, next_page: s, step: k, buf: Vec::new(), pos: 0 }
    }

    /// Collect the whole stream into a materialized [`WebCorpus`]
    /// (shard 0 of 1). The legacy generation path is defined as this
    /// call, so the materialized and streamed corpora agree by
    /// construction.
    pub fn materialize(&self) -> WebCorpus {
        let mut requests = Vec::with_capacity(self.expected_requests() as usize);
        let mut buf = Vec::new();
        for page in 0..self.pages {
            self.page_requests(page, &mut buf);
            requests.extend_from_slice(&buf);
        }
        WebCorpus::new(self.snapshot_date, self.hosts.clone(), requests)
    }
}

/// Iterator over one shard's request stream (see
/// [`StreamCorpus::shard_requests`]).
#[derive(Debug)]
pub struct ShardRequests<'a> {
    corpus: &'a StreamCorpus,
    next_page: u64,
    step: u64,
    buf: Vec<Request>,
    pos: usize,
}

impl Iterator for ShardRequests<'_> {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        loop {
            if self.pos < self.buf.len() {
                let r = self.buf[self.pos];
                self.pos += 1;
                return Some(r);
            }
            if self.next_page >= self.corpus.pages {
                return None;
            }
            let page = self.next_page;
            self.next_page = self.next_page.saturating_add(self.step);
            self.corpus.page_requests(page, &mut self.buf);
            self.pos = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{build_stream, generate_corpus, CorpusConfig};
    use psl_history::{generate, GeneratorConfig};

    fn fixture() -> StreamCorpus {
        let h = generate(&GeneratorConfig::small(61));
        build_stream(&h, &CorpusConfig::small(21))
    }

    /// The branchy generator [`StreamCorpus::page_requests`] replaced,
    /// kept as its one reference: each request branches on its roll and
    /// draws a second time only for the target it chose.
    fn reference(sc: &StreamCorpus, page_index: u64, out: &mut Vec<Request>) {
        out.clear();
        let mut rng = StdRng::seed_from_u64(derive_seed(sc.page_stream_seed, page_index));
        let n_requests = 1 + rng.gen_range(0..sc.requests_per_page * 2);
        let pools = &sc.pools;
        let roll: f64 = rng.gen();
        if roll < 0.62 || pools.platforms.is_empty() {
            let org = &pools.orgs[sc.org_zipf.sample(&mut rng) - 1];
            let page = org[0];
            for _ in 0..n_requests {
                let r: f64 = rng.gen();
                let target = if r < 0.50 && org.len() > 1 {
                    org[rng.gen_range(0..org.len())]
                } else if r < 0.58 && !pools.spike_hosts.is_empty() {
                    pools.spike_hosts[rng.gen_range(0..pools.spike_hosts.len())]
                } else {
                    pools.trackers[sc.tracker_zipf.sample(&mut rng) - 1]
                };
                out.push(Request { page, request: target });
            }
        } else if roll < 0.84 {
            let customers = &pools.platforms[rng.gen_range(0..pools.platforms.len())];
            let page = customers[rng.gen_range(0..customers.len())];
            for _ in 0..n_requests {
                let r: f64 = rng.gen();
                let target = if r < 0.40 && customers.len() > 1 {
                    customers[rng.gen_range(0..customers.len())]
                } else if r < 0.70 {
                    page
                } else {
                    pools.trackers[sc.tracker_zipf.sample(&mut rng) - 1]
                };
                out.push(Request { page, request: target });
            }
        } else if !pools.cities.is_empty() {
            let city = &pools.cities[rng.gen_range(0..pools.cities.len())];
            let page = city[0];
            for _ in 0..n_requests {
                let r: f64 = rng.gen();
                let target = if r < 0.55 && city.len() > 1 {
                    city[rng.gen_range(0..city.len())]
                } else {
                    pools.trackers[sc.tracker_zipf.sample(&mut rng) - 1]
                };
                out.push(Request { page, request: target });
            }
        }
    }

    /// Every page of `sc` against the reference.
    fn assert_pages_match_reference(sc: &StreamCorpus, what: &str) {
        let (mut fast, mut slow) = (Vec::new(), Vec::new());
        for page in 0..sc.pages() {
            sc.page_requests(page, &mut fast);
            reference(sc, page, &mut slow);
            assert_eq!(fast, slow, "{what}: page {page}");
        }
    }

    #[test]
    fn page_requests_equal_the_reference_under_every_guard() {
        let h = generate(&GeneratorConfig::small(61));
        for seed in [21, 22, 5, 1234] {
            let base = CorpusConfig::small(seed);
            let cases = [
                ("small", base.clone()),
                ("no spike hosts", CorpusConfig { spike_rules_populated: 0, ..base.clone() }),
                ("one-host cities", CorpusConfig { exception_city_hosts: 1, ..base.clone() }),
                (
                    "one-host platforms",
                    CorpusConfig { platform_customers_other: 1, ..base.clone() },
                ),
                ("one tracker", CorpusConfig { trackers: 1, ..base.clone() }),
                ("one request a page", CorpusConfig { requests_per_page: 1, ..base.clone() }),
            ];
            for (what, config) in cases {
                let sc = build_stream(&h, &config);
                let p = &sc.pools;
                let reached = match what {
                    "no spike hosts" => p.spike_hosts.is_empty(),
                    "one-host cities" => p.cities.iter().all(|c| c.len() == 1),
                    "one-host platforms" => p.platforms.iter().any(|c| c.len() == 1),
                    "one tracker" => p.trackers.len() == 1,
                    "one request a page" => sc.requests_per_page == 1,
                    _ => p.orgs.iter().any(|o| o.len() == 1),
                };
                assert!(reached, "{what}, seed {seed}: the guard is not reached");
                assert_pages_match_reference(&sc, &format!("{what}, seed {seed}"));
            }
        }
    }

    /// A 0 in any count field of `CorpusConfig` either makes `build_stream`
    /// refuse the config, naming the field, or leaves a stream whose first
    /// 200 pages and 200 sessions generate. Exactly three fields refuse.
    #[test]
    fn zero_counts_are_refused_or_generate() {
        let h = generate(&GeneratorConfig::small(61));
        type Zero = fn(&mut CorpusConfig);
        let fields: [(&str, Zero); 9] = [
            ("scale", |c| c.scale = 0.0),
            ("org_sites", |c| c.org_sites = 0),
            ("platform_customers_other", |c| c.platform_customers_other = 0),
            ("exception_city_hosts", |c| c.exception_city_hosts = 0),
            ("spike_rules_populated", |c| c.spike_rules_populated = 0),
            ("spike_hosts_per_rule", |c| c.spike_hosts_per_rule = 0),
            ("pages", |c| c.pages = 0),
            ("requests_per_page", |c| c.requests_per_page = 0),
            ("trackers", |c| c.trackers = 0),
        ];
        let mut refused = Vec::new();
        for (field, zero) in fields {
            let mut config = CorpusConfig::small(21);
            zero(&mut config);
            match std::panic::catch_unwind(|| build_stream(&h, &config)) {
                Err(panic) => {
                    let message = panic
                        .downcast_ref::<&str>()
                        .copied()
                        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                        .unwrap_or("");
                    assert!(message.contains(&format!("CorpusConfig::{field} is 0")), "{message}");
                    refused.push(field);
                }
                Ok(sc) => {
                    let mut requests = Vec::new();
                    for page in 0..sc.pages().min(200) {
                        sc.page_requests(page, &mut requests);
                    }
                    let (sessions, mut events) = (sc.sessions(200), Vec::new());
                    for index in 0..200 {
                        sessions.session_events(index, &mut events);
                    }
                }
            }
        }
        assert_eq!(refused, ["org_sites", "exception_city_hosts", "trackers"]);
    }

    /// Pools no generated world here has: no platforms (every page is an
    /// organisation's) and no cities (a city page emits nothing).
    #[test]
    fn page_requests_equal_the_reference_on_degenerate_pools() {
        let sc = fixture();
        type Edit = fn(&mut Pools);
        let edits: [(&str, Edit); 2] =
            [("no platforms", |p| p.platforms.clear()), ("no cities", |p| p.cities.clear())];
        for (what, edit) in edits {
            let p = &sc.pools;
            let mut pools = Pools {
                orgs: p.orgs.clone(),
                platforms: p.platforms.clone(),
                cities: p.cities.clone(),
                trackers: p.trackers.clone(),
                spike_hosts: p.spike_hosts.clone(),
            };
            edit(&mut pools);
            let edited = StreamCorpus::new(
                sc.snapshot_date,
                sc.hosts.clone(),
                pools,
                2000,
                sc.requests_per_page,
                sc.page_stream_seed,
            );
            assert_pages_match_reference(&edited, what);
        }
    }

    #[test]
    fn every_page_names_one_page_host() {
        let sc = fixture();
        let mut buf = Vec::new();
        for page in 0..sc.pages() {
            sc.page_requests(page, &mut buf);
            assert!(buf.iter().all(|r| r.page == buf[0].page), "page {page}");
        }
    }

    #[test]
    fn materialize_equals_one_shard_stream() {
        let sc = fixture();
        let corpus = sc.materialize();
        let streamed: Vec<Request> = sc.shard_requests(0, 1).collect();
        assert_eq!(corpus.requests(), streamed.as_slice());
        assert_eq!(corpus.host_count(), sc.host_count());
    }

    #[test]
    fn shards_partition_the_stream_for_any_k() {
        let sc = fixture();
        let whole: Vec<Request> = sc.shard_requests(0, 1).collect();
        for k in [2u64, 3, 5, 8] {
            let mut pieces: Vec<Vec<Request>> =
                (0..k).map(|s| sc.shard_requests(s, k).collect()).collect();
            let total: usize = pieces.iter().map(Vec::len).sum();
            assert_eq!(total, whole.len(), "k={k}");
            // Reassemble in page order: shard s holds pages s, s+k, …
            // consecutively, so a round-robin page walk restores the
            // 1-shard order.
            let mut cursors = vec![0usize; k as usize];
            let mut rebuilt = Vec::with_capacity(whole.len());
            let mut buf = Vec::new();
            for page in 0..sc.pages() {
                let s = (page % k) as usize;
                sc.page_requests(page, &mut buf);
                let end = cursors[s] + buf.len();
                rebuilt.extend_from_slice(&pieces[s][cursors[s]..end]);
                cursors[s] = end;
            }
            for (s, piece) in pieces.iter_mut().enumerate() {
                assert_eq!(cursors[s], piece.len(), "shard {s} fully consumed");
            }
            assert_eq!(rebuilt, whole, "k={k}");
        }
    }

    #[test]
    fn page_requests_are_deterministic_and_independent() {
        let sc = fixture();
        let mut a = Vec::new();
        let mut b = Vec::new();
        // Same page, any visit order: identical output.
        sc.page_requests(7, &mut a);
        sc.page_requests(123, &mut b);
        let mut a2 = Vec::new();
        sc.page_requests(7, &mut a2);
        assert_eq!(a, a2);
        assert!(!a.is_empty(), "every page emits at least one request");
        assert_ne!(a, b, "distinct pages draw from distinct streams");
    }

    #[test]
    fn generate_corpus_is_the_materialized_stream() {
        let h = generate(&GeneratorConfig::small(61));
        let cfg = CorpusConfig::small(21);
        let legacy = generate_corpus(&h, &cfg);
        let sc = build_stream(&h, &cfg);
        assert_eq!(legacy.requests(), sc.materialize().requests());
        assert_eq!(legacy.host_count(), sc.host_count());
        for (a, b) in legacy.hosts().iter().zip(sc.hosts()) {
            assert_eq!(a.as_str(), b.as_str());
        }
    }

    #[test]
    fn expected_requests_tracks_actual_count() {
        let sc = fixture();
        let actual = sc.shard_requests(0, 1).count() as f64;
        let expected = sc.expected_requests();
        let err = (actual - expected).abs() / expected;
        assert!(err < 0.05, "expected {expected}, got {actual}");
    }

    #[test]
    fn target_request_sizing_lands_near_target() {
        let h = generate(&GeneratorConfig::small(61));
        let cfg = CorpusConfig::small(21).with_target_requests(60_000);
        let sc = build_stream(&h, &cfg);
        let actual = sc.shard_requests(0, 1).count() as f64;
        let err = (actual - 60_000.0).abs() / 60_000.0;
        assert!(err < 0.05, "got {actual} requests for a 60k target");
    }
}
