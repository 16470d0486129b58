//! The Figures 5–7 sweep: one version walk plus one streamed pass over
//! the requests.
//!
//! 1. **Walk.** [`walk`] gives every host's disposition timeline across
//!    all versions in O(hosts + changes); one pass numbers the sites as
//!    [`crate::walker::site_ids`] does (equal ids iff equal site strings,
//!    across versions) and keeps one record per host: its site if it
//!    never changes, else where its site steps lie in one array of every
//!    moving host's steps.
//! 2. **Sites and moved hosts.** Per-version site counts come from one
//!    reference count per site id, moved along the moving hosts' site
//!    changes in version order (Figure 5); hosts whose site differs from
//!    the latest are a difference array over their steps (Figure 7).
//! 3. **One pass over the stream.** A [`StreamCorpus`] yields each shard's
//!    `(page, request)` pairs on demand, so the corpus is never
//!    materialized. Workers drain shards off an atomic counter; for each
//!    request they read the target's record (the page's once per page)
//!    and add the version intervals where the two sites differ to a
//!    per-version difference array (Figure 6). The arrays merge by
//!    addition, so the counts are exact and identical for any thread or
//!    shard count.
//!
//! Memory is O(hosts + changes + threads × versions), independent of the
//! request count, which only sets how long the pass runs.

use crate::sweep::{resolved_threads, VersionStats};
use crate::walker::{add_interval, prefix_sums, walk, SiteNumbers, Walk};
use psl_core::MatchOpts;
use psl_history::History;
use psl_stats::HyperLogLog;
use psl_webcorpus::{Request, StreamCorpus};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// How a [`SiteSet`] counts distinct ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteCounter {
    /// Exact: a bitset over the ids, one bit per id up to the largest
    /// observed. The ids must be dense — small integers numbering a
    /// population, as every caller's host and site ids are — since memory
    /// is the largest id / 8 bytes.
    Exact,
    /// Approximate: a HyperLogLog sketch with `2^precision` registers
    /// (fixed memory; standard error `1.04 / sqrt(2^precision)`).
    Sketch {
        /// HLL precision (register count exponent, 4..=18).
        precision: u8,
    },
}

impl SiteCounter {
    /// The default sketch mode: 0.81% standard error, 16 KiB per set.
    pub const DEFAULT_SKETCH: SiteCounter =
        SiteCounter::Sketch { precision: HyperLogLog::DEFAULT_PRECISION };
}

/// Configuration for [`sweep_stream`].
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamSweepConfig {
    /// Matching options (browsers: defaults).
    pub opts: MatchOpts,
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
    /// Shard count (0 = auto: 4 × threads, so the atomic work queue
    /// load-balances uneven shards).
    pub shards: usize,
}

/// A mergeable set of distinct dense ids (the fleet's victim sets).
#[derive(Debug, Clone, PartialEq)]
pub enum SiteSet {
    /// Exact bitset: bit `id % 64` of word `id / 64`, with no words past
    /// the one holding the largest id (so equal sets compare equal).
    Exact(Vec<u64>),
    /// HyperLogLog sketch over mixed ids.
    Sketch(HyperLogLog),
}

impl SiteSet {
    /// Empty set in the given mode.
    pub fn new(counter: SiteCounter) -> Self {
        match counter {
            SiteCounter::Exact => SiteSet::Exact(Vec::new()),
            SiteCounter::Sketch { precision } => SiteSet::Sketch(HyperLogLog::new(precision)),
        }
    }

    /// Observe a dense id. Ids must be assigned globally (not per shard),
    /// so the same element lands on the same bit, or hashes identically,
    /// in every shard — the property that makes merging count the union.
    pub fn insert(&mut self, site_id: u32) {
        match self {
            SiteSet::Exact(words) => {
                let w = site_id as usize / 64;
                if w >= words.len() {
                    words.resize(w + 1, 0);
                }
                words[w] |= 1 << (site_id % 64);
            }
            SiteSet::Sketch(hll) => hll.insert_u64(u64::from(site_id)),
        }
    }

    /// Number of distinct ids observed (exact or estimated).
    pub fn count(&self) -> usize {
        match self {
            SiteSet::Exact(words) => words.iter().map(|w| w.count_ones() as usize).sum(),
            SiteSet::Sketch(hll) => hll.count() as usize,
        }
    }

    /// Merge another set of the same mode into this one.
    ///
    /// # Panics
    ///
    /// Panics when the modes (or sketch precisions) differ — shard plans
    /// never mix modes, so a mismatch is a programming error.
    pub fn merge(&mut self, other: &SiteSet) {
        match (self, other) {
            (SiteSet::Exact(a), SiteSet::Exact(b)) => {
                if a.len() < b.len() {
                    a.resize(b.len(), 0);
                }
                for (x, y) in a.iter_mut().zip(b) {
                    *x |= y;
                }
            }
            (SiteSet::Sketch(a), SiteSet::Sketch(b)) => a.merge(b),
            _ => panic!("cannot merge site sets of different modes"),
        }
    }
}

/// Mergeable per-shard counters for one version's Figs. 5–7 metrics.
/// Its one caller is the benchmark's merge probe (`perfbench`), which
/// times [`ShardAccumulator::merge`]; [`sweep_stream`] counts with
/// difference arrays instead.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardAccumulator {
    /// Distinct sites among this shard's hosts (Figure 5).
    pub sites: SiteSet,
    /// Requests in this shard whose page and resource fall in different
    /// sites (Figure 6).
    pub third_party_requests: u64,
    /// This shard's hosts whose site differs from the latest version's
    /// (Figure 7).
    pub hosts_moved: u64,
    /// Requests this shard streamed.
    pub requests: u64,
}

impl ShardAccumulator {
    /// Empty accumulator in the given site-counting mode.
    pub fn new(counter: SiteCounter) -> Self {
        ShardAccumulator {
            sites: SiteSet::new(counter),
            third_party_requests: 0,
            hosts_moved: 0,
            requests: 0,
        }
    }

    /// Merge another shard's state into this one. Associative and
    /// commutative (set union / register max / addition).
    pub fn merge(&mut self, other: &ShardAccumulator) {
        self.sites.merge(&other.sites);
        self.third_party_requests += other.third_party_requests;
        self.hosts_moved += other.hosts_moved;
        self.requests += other.requests;
    }
}

/// Everything [`sweep_stream`] learned, plus the shape of the run.
#[derive(Debug, Clone)]
pub struct StreamSweepOutcome {
    /// Per-version stats, one row per history version.
    pub stats: Vec<VersionStats>,
    /// Total requests streamed (counted, not materialized).
    pub total_requests: u64,
    /// Worker threads actually used.
    pub threads: usize,
    /// Shards actually used.
    pub shards: usize,
    /// Passes over the request stream: always 1.
    pub version_blocks: usize,
    /// Wall time of the version walk, the site ids and the Figures 5 and
    /// 7 counts.
    pub walk_seconds: f64,
    /// Wall time of the pass over the request stream (Figure 6).
    pub pass_seconds: f64,
}

/// Run the sweep over every version of the history, streaming the corpus
/// once. The stats equal [`crate::sweep::sweep_rebuild`] over
/// `stream.materialize()` for any thread and shard count (tested below).
pub fn sweep_stream(
    history: &History,
    stream: &StreamCorpus,
    config: &StreamSweepConfig,
) -> StreamSweepOutcome {
    let started = Instant::now();
    let threads = resolved_threads(config.threads, usize::MAX);
    let walked = walk(history, stream.hosts(), config.opts, threads);
    let walk_seconds = started.elapsed().as_secs_f64();
    let mut outcome = sweep_walked(history, stream, &walked, config);
    outcome.walk_seconds += walk_seconds;
    outcome
}

/// The sweep over `walked`, a walk of `stream`'s hosts under
/// `config.opts`: the body of [`sweep_stream`], and what
/// [`crate::run_all`] runs on the walk its other experiments share. The
/// outcome's `walk_seconds` leaves out the walk itself.
pub(crate) fn sweep_walked(
    history: &History,
    stream: &StreamCorpus,
    walked: &Walk,
    config: &StreamSweepConfig,
) -> StreamSweepOutcome {
    let versions = history.version_count();
    let started = Instant::now();
    let sites = HostSites::number(walked);
    let site_counts = count_sites(&sites, versions);
    let moved = moved_hosts(&sites, versions);
    let walk_seconds = started.elapsed().as_secs_f64();

    let threads = resolved_threads(config.threads, usize::MAX);
    let shards = if config.shards == 0 { (threads * 4).max(1) } else { config.shards };
    let started = Instant::now();
    let (third_party, total_requests) = third_party_pass(&sites, stream, versions, threads, shards);
    let pass_seconds = started.elapsed().as_secs_f64();

    let stats = history
        .versions()
        .iter()
        .enumerate()
        .map(|(v, &date)| VersionStats {
            date,
            rule_count: walked.rule_counts[v],
            sites: site_counts[v],
            third_party_requests: third_party[v],
            hosts_in_different_site_vs_latest: moved[v] as usize,
        })
        .collect();
    StreamSweepOutcome {
        stats,
        total_requests,
        threads,
        shards,
        version_blocks: 1,
        walk_seconds,
        pass_seconds,
    }
}

/// Every host's site through the versions, as the request pass reads
/// it: one record per host, and one array of the steps of every host
/// whose site changes.
#[derive(Debug, Clone, Default)]
struct HostSites {
    records: Vec<HostRecord>,
    /// The moving hosts' `(first version, site id)` steps, host after
    /// host, each host's in version order with a new site at every step.
    moving: Vec<(u32, u32)>,
    /// Distinct site ids.
    count: usize,
}

/// A host's entry in [`HostSites`]: `(site, CONSTANT)` when its site never
/// changes, else the range `start..end` of its steps in the moving
/// hosts' array.
#[derive(Debug, Clone, Copy)]
struct HostRecord {
    start: u32,
    end: u32,
}

/// [`HostRecord::end`] of a host whose site never changes.
const CONSTANT: u32 = u32::MAX;

impl HostRecord {
    /// The host's site, when it never changes.
    fn constant(self) -> Option<u32> {
        (self.end == CONSTANT).then_some(self.start)
    }
}

impl HostSites {
    /// Number the sites of `walk`'s names as [`crate::walker::site_ids`]
    /// does, in the same pass that lays out each host's record.
    fn number(walk: &Walk) -> Self {
        let names = walk.suffix_lens.names();
        let mut numbers = SiteNumbers::new(walk);
        let mut sites = HostSites {
            records: Vec::with_capacity(names),
            moving: Vec::with_capacity(walk.suffix_lens.step_count()),
            count: 0,
        };
        for name in 0..names {
            let start = sites.moving.len();
            for &(v, len) in walk.suffix_lens.steps(name) {
                let site = numbers.id(name, len);
                if sites.moving[start..].last().is_none_or(|last| last.1 != site) {
                    sites.moving.push((v, site));
                }
            }
            sites.close_host(start);
        }
        sites.count = numbers.count();
        sites
    }

    /// Record the host whose steps are the moving array's past `start`:
    /// a host with one step keeps its site in its record instead.
    fn close_host(&mut self, start: usize) {
        let record = match self.moving.len() - start {
            1 => HostRecord { start: self.moving.pop().expect("one step").1, end: CONSTANT },
            _ => HostRecord { start: start as u32, end: self.moving.len() as u32 },
        };
        self.records.push(record);
    }

    /// The steps of a host whose site changes.
    fn steps(&self, record: HostRecord) -> &[(u32, u32)] {
        &self.moving[record.start as usize..record.end as usize]
    }

    /// Each moving host's steps.
    fn moving_hosts(&self) -> impl Iterator<Item = &[(u32, u32)]> + '_ {
        self.records.iter().filter(|r| r.constant().is_none()).map(|&r| self.steps(r))
    }
}

/// Distinct sites at each version: one reference count per site id,
/// moved along the moving hosts' site changes, which a counting sort
/// places by version (the order within a version does not change the
/// counts).
fn count_sites(sites: &HostSites, versions: usize) -> Vec<usize> {
    let mut refs = vec![0u32; sites.count];
    let mut live = 0usize;
    // Moves per version, then the first of each version's in `moves`.
    let mut starts = vec![0u32; versions + 1];
    for record in &sites.records {
        let first = match record.constant() {
            Some(site) => site,
            None => {
                let steps = sites.steps(*record);
                for &(v, _) in &steps[1..] {
                    starts[v as usize + 1] += 1;
                }
                steps[0].1
            }
        };
        refs[first as usize] += 1;
        live += usize::from(refs[first as usize] == 1);
    }
    for v in 0..versions {
        starts[v + 1] += starts[v];
    }
    let mut next = starts.clone();
    let mut moves = vec![(0u32, 0u32); starts[versions] as usize];
    for steps in sites.moving_hosts() {
        for w in steps.windows(2) {
            let at = &mut next[w[1].0 as usize];
            moves[*at as usize] = (w[0].1, w[1].1);
            *at += 1;
        }
    }
    (0..versions)
        .map(|v| {
            for &(from, to) in &moves[starts[v] as usize..starts[v + 1] as usize] {
                refs[from as usize] -= 1;
                live -= usize::from(refs[from as usize] == 0);
                refs[to as usize] += 1;
                live += usize::from(refs[to as usize] == 1);
            }
            live
        })
        .collect()
}

/// Hosts whose site differs from the latest version's, at each version:
/// only a moving host ever does, before its last step.
fn moved_hosts(sites: &HostSites, versions: usize) -> Vec<u64> {
    let mut diff = vec![0u64; versions + 1];
    for steps in sites.moving_hosts() {
        let latest = steps[steps.len() - 1].1;
        for w in steps.windows(2).filter(|w| w[0].1 != latest) {
            add_interval(&mut diff, w[0].0 as usize, w[1].0 as usize, 1);
        }
    }
    prefix_sums(&diff)
}

/// Third-party requests at each version and the request total, from one
/// sharded pass over the stream. Each page reads its host's record once,
/// and each request its target's. A request to the page's own host is
/// never cross-site; one between two constant hosts adds to a count of
/// requests cross-site at every version; otherwise the two hosts' steps
/// merge, a constant host's as one step.
fn third_party_pass(
    sites: &HostSites,
    stream: &StreamCorpus,
    versions: usize,
    threads: usize,
    shards: usize,
) -> (Vec<u64>, u64) {
    let next_shard = AtomicU64::new(0);
    let parts: Vec<(Vec<u64>, u64)> = crossbeam::thread::scope(|scope| {
        let workers: Vec<_> = (0..threads)
            .map(|_| {
                let next_shard = &next_shard;
                scope.spawn(move |_| {
                    let mut diff = vec![0u64; versions + 1];
                    let mut requests = 0u64;
                    let mut always = 0u64;
                    let mut buf: Vec<Request> = Vec::new();
                    loop {
                        let s = next_shard.fetch_add(1, Ordering::Relaxed);
                        if s >= shards as u64 {
                            break;
                        }
                        for page in stream.shard_pages(s, shards as u64) {
                            stream.page_requests(page, &mut buf);
                            requests += buf.len() as u64;
                            let Some(&Request { page: host, .. }) = buf.first() else {
                                continue;
                            };
                            let page_sites = sites.records[host as usize];
                            for r in &buf {
                                debug_assert_eq!(r.page, host, "one page host per page");
                                if r.request == host {
                                    continue;
                                }
                                let target = sites.records[r.request as usize];
                                match (page_sites.constant(), target.constant()) {
                                    (Some(a), Some(b)) => always += u64::from(a != b),
                                    (Some(site), None) => add_cross_site(
                                        &mut diff,
                                        &[(0, site)],
                                        sites.steps(target),
                                        versions,
                                    ),
                                    (None, Some(site)) => add_cross_site(
                                        &mut diff,
                                        sites.steps(page_sites),
                                        &[(0, site)],
                                        versions,
                                    ),
                                    (None, None) => add_cross_site(
                                        &mut diff,
                                        sites.steps(page_sites),
                                        sites.steps(target),
                                        versions,
                                    ),
                                }
                            }
                        }
                    }
                    add_interval(&mut diff, 0, versions, always);
                    (diff, requests)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("sweep worker panicked")).collect()
    })
    .expect("sweep worker panicked");

    let mut diff = vec![0u64; versions + 1];
    let mut total = 0u64;
    for (part, requests) in parts {
        for (d, p) in diff.iter_mut().zip(part) {
            *d = d.wrapping_add(p);
        }
        total += requests;
    }
    (prefix_sums(&diff), total)
}

/// Add the versions at which two hosts with site timelines `a` and `b`
/// are in different sites to a difference array.
fn add_cross_site(diff: &mut [u64], a: &[(u32, u32)], b: &[(u32, u32)], versions: usize) {
    let (mut i, mut j, mut from) = (0, 0, 0);
    loop {
        let end_a = a.get(i + 1).map_or(versions, |s| s.0 as usize);
        let end_b = b.get(j + 1).map_or(versions, |s| s.0 as usize);
        let to = end_a.min(end_b);
        if a[i].1 != b[j].1 {
            add_interval(diff, from, to, 1);
        }
        if to == versions {
            return;
        }
        from = to;
        i += usize::from(end_a == to);
        j += usize::from(end_b == to);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figs567;
    use crate::sweep::sweep_rebuild;
    use proptest::prelude::*;
    use psl_history::{generate, GeneratorConfig};
    use psl_webcorpus::{build_stream, CorpusConfig};

    /// The engine's table-driven differential test: the streamed engine in
    /// every thread × shard shape under every match-option case, on two
    /// worlds, against the rebuild oracle over the materialized corpus —
    /// the stats exactly, and the packaged Figures 5–7 rows byte for byte.
    #[test]
    fn streamed_rows_are_byte_identical_to_materialized_rows() {
        for (history_seed, corpus_seed) in [(101, 13), (601, 101)] {
            let h = generate(&GeneratorConfig::small(history_seed));
            let sc = build_stream(&h, &CorpusConfig::small(corpus_seed));
            let corpus = sc.materialize();
            for opts in [
                MatchOpts::default(),
                MatchOpts { include_private: false, implicit_wildcard: true },
                MatchOpts { include_private: true, implicit_wildcard: false },
            ] {
                let oracle = sweep_rebuild(&h, &corpus, opts);
                let rows = serde_json::to_string(&figs567::package(
                    &oracle,
                    corpus.host_count(),
                    corpus.request_count(),
                ))
                .unwrap();
                for threads in [1usize, 4, 8] {
                    for shards in [1usize, 4, 13] {
                        let shape = format!("seed {history_seed} {opts:?} {threads}x{shards}");
                        let out =
                            sweep_stream(&h, &sc, &StreamSweepConfig { opts, threads, shards });
                        assert_eq!(out.stats, oracle, "{shape}");
                        assert_eq!(out.total_requests, corpus.request_count() as u64, "{shape}");
                        assert_eq!(
                            (out.threads, out.shards, out.version_blocks),
                            (threads, shards, 1)
                        );
                        let streamed = figs567::package(
                            &out.stats,
                            sc.host_count(),
                            out.total_requests as usize,
                        );
                        assert_eq!(serde_json::to_string(&streamed).unwrap(), rows, "{shape}");
                    }
                }
            }
        }
    }

    fn fixture() -> (History, StreamCorpus) {
        let h = generate(&GeneratorConfig::small(101));
        let sc = build_stream(&h, &CorpusConfig::small(13));
        (h, sc)
    }

    /// Counts are always exact, for shard counts beyond the table's too —
    /// uneven splits and many more shards than the auto default — against
    /// the rebuild oracle (the per-version legacy sweep).
    #[test]
    fn exact_mode_matches_legacy_sweep_for_any_shard_count() {
        let (h, sc) = fixture();
        let corpus = sc.materialize();
        let legacy = sweep_rebuild(&h, &corpus, MatchOpts::default());
        for shards in [1usize, 2, 3, 7, 64] {
            let out = sweep_stream(&h, &sc, &StreamSweepConfig { shards, ..Default::default() });
            assert_eq!(out.stats, legacy, "shards={shards}");
            assert_eq!(out.total_requests, corpus.request_count() as u64, "shards={shards}");
            assert_eq!(out.shards, shards);
        }
    }

    /// One thread draining an odd shard count gives the default shape's
    /// numbers, and no shape splits the versions into blocks: every run
    /// reads the stream once.
    #[test]
    fn single_thread_and_block_splits_change_nothing() {
        let (h, sc) = fixture();
        let reference = sweep_stream(&h, &sc, &StreamSweepConfig::default());
        let one_thread = sweep_stream(
            &h,
            &sc,
            &StreamSweepConfig { threads: 1, shards: 5, ..Default::default() },
        );
        assert_eq!(one_thread.stats, reference.stats);
        assert_eq!(one_thread.total_requests, reference.total_requests);
        assert_eq!((reference.version_blocks, one_thread.version_blocks), (1, 1));
    }

    /// Host sites from hand-built steps, one list per host.
    fn host_sites(hosts: &[&[(u32, u32)]]) -> HostSites {
        let mut sites = HostSites::default();
        for steps in hosts {
            let start = sites.moving.len();
            sites.moving.extend_from_slice(steps);
            sites.close_host(start);
        }
        sites.count = hosts
            .iter()
            .flat_map(|s| s.iter())
            .map(|&(_, site)| site as usize + 1)
            .max()
            .unwrap_or(0);
        sites
    }

    /// A host's site at version `v`, from its steps.
    fn site_at(steps: &[(u32, u32)], v: u32) -> u32 {
        steps.iter().rev().find(|s| s.0 <= v).expect("a step at version 0").1
    }

    /// The site counts and moved hosts equal a brute-force count per
    /// version over hand-built timelines: three hosts move in version 2,
    /// where site 0 loses both its hosts and gains another; later hosts
    /// move in earlier versions than earlier hosts; site 5 empties for
    /// good, site 3 appears late, and site 4 loses and regains a host.
    #[test]
    fn site_counts_equal_a_distinct_count_per_version() {
        let hosts: [&[(u32, u32)]; 7] = [
            &[(0, 0), (2, 1)],
            &[(0, 0), (2, 2), (4, 0)],
            &[(0, 1), (2, 0)],
            &[(0, 4)],
            &[(0, 2), (1, 3), (3, 2)],
            &[(0, 5), (1, 4)],
            &[(0, 4), (3, 3), (4, 4)],
        ];
        let versions = 6;
        let sites = host_sites(&hosts);
        let distinct: Vec<usize> = (0..versions as u32)
            .map(|v| {
                hosts.iter().map(|s| site_at(s, v)).collect::<std::collections::HashSet<_>>().len()
            })
            .collect();
        assert_eq!(distinct, [5, 4, 5, 5, 4, 4]);
        assert_eq!(count_sites(&sites, versions), distinct);
        let moved: Vec<u64> = (0..versions as u32)
            .map(|v| hosts.iter().filter(|s| site_at(s, v) != s[s.len() - 1].1).count() as u64)
            .collect();
        assert_eq!(moved_hosts(&sites, versions), moved);
    }

    /// Each host's record holds its `site_ids` timeline: the site of a
    /// host with one step, else its steps.
    #[test]
    fn host_records_hold_the_site_timelines() {
        let (h, sc) = fixture();
        for opts in
            [MatchOpts::default(), MatchOpts { include_private: false, implicit_wildcard: true }]
        {
            let walked = walk(&h, sc.hosts(), opts, 2);
            let (timelines, count) = crate::walker::site_ids(&walked);
            let sites = HostSites::number(&walked);
            assert_eq!(sites.count, count);
            assert_eq!(sites.records.len(), sc.host_count());
            for (host, &record) in sites.records.iter().enumerate() {
                match (record.constant(), timelines.steps(host)) {
                    (Some(site), &[(0, only)]) => assert_eq!(site, only),
                    (None, steps) => assert_eq!(sites.steps(record), steps, "host {host}"),
                    (constant, steps) => panic!("host {host}: {constant:?} against {steps:?}"),
                }
            }
        }
    }

    /// Build an accumulator from scripted observations.
    fn acc_from(
        counter: SiteCounter,
        sites: &[u32],
        third_party: u64,
        moved: u64,
        requests: u64,
    ) -> ShardAccumulator {
        let mut a = ShardAccumulator::new(counter);
        for &s in sites {
            a.sites.insert(s);
        }
        a.third_party_requests = third_party;
        a.hosts_moved = moved;
        a.requests = requests;
        a
    }

    proptest! {
        #[test]
        fn accumulator_merge_is_commutative_and_associative(
            xs in proptest::collection::vec(0u32..5000, 0..100),
            ys in proptest::collection::vec(0u32..5000, 0..100),
            zs in proptest::collection::vec(0u32..5000, 0..100),
            counts in proptest::collection::vec(0u64..1_000_000, 9),
            sketch in 0u8..2,
        ) {
            let counter = if sketch == 1 {
                SiteCounter::Sketch { precision: 8 }
            } else {
                SiteCounter::Exact
            };
            let a = acc_from(counter, &xs, counts[0], counts[1], counts[2]);
            let b = acc_from(counter, &ys, counts[3], counts[4], counts[5]);
            let c = acc_from(counter, &zs, counts[6], counts[7], counts[8]);
            // Commutative.
            let mut ab = a.clone();
            ab.merge(&b);
            let mut ba = b.clone();
            ba.merge(&a);
            prop_assert_eq!(&ab, &ba);
            // Associative.
            let mut ab_c = ab.clone();
            ab_c.merge(&c);
            let mut bc = b.clone();
            bc.merge(&c);
            let mut a_bc = a.clone();
            a_bc.merge(&bc);
            prop_assert_eq!(&ab_c, &a_bc);
            // Identity: merging an empty accumulator changes nothing.
            let mut a_e = a.clone();
            a_e.merge(&ShardAccumulator::new(counter));
            prop_assert_eq!(&a_e, &a);
        }
    }
}
