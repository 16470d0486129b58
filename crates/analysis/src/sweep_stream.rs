//! The Figures 5–7 sweep: one version walk plus one streamed pass over
//! the requests.
//!
//! 1. **Walk.** [`walk`] gives every host's disposition timeline across
//!    all versions in O(hosts + changes); [`site_ids`] turns it into site
//!    timelines whose ids hold across versions (equal ids iff equal site
//!    strings).
//! 2. **Sites and moved hosts.** Per-version site counts come from one
//!    reference count per site id, moved along each host's site changes in
//!    version order (Figure 5); hosts whose site differs from the latest
//!    are a difference array over their timelines (Figure 7).
//! 3. **One pass over the stream.** A [`StreamCorpus`] yields each shard's
//!    `(page, request)` pairs on demand, so the corpus is never
//!    materialized. Workers drain shards off an atomic counter; for each
//!    request they merge the two hosts' site timelines and add the version
//!    intervals where the sites differ to a per-version difference array
//!    (Figure 6). The arrays merge by addition, so the counts are exact
//!    and identical for any thread or shard count.
//!
//! Memory is O(hosts + changes + threads × versions), independent of the
//! request count, which only sets how long the pass runs.

use crate::sweep::{resolved_threads, VersionStats};
use crate::walker::{add_interval, prefix_sums, site_ids, walk, Timelines, Walk};
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
    let (sites, site_count) = site_ids(walked);
    let site_counts = count_sites(&sites, site_count, versions);
    let moved = sites.tally(versions, |h, site| u64::from(site != sites.latest(h)));
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

/// Distinct sites at each version: one reference count per site id,
/// moved along each host's site changes in version order.
fn count_sites(sites: &Timelines<u32>, site_count: usize, versions: usize) -> Vec<usize> {
    let mut refs = vec![0u32; site_count];
    let mut live = 0usize;
    let mut moves: Vec<(u32, u32, u32)> = Vec::new();
    for h in 0..sites.names() {
        let steps = sites.steps(h);
        let first = steps[0].1 as usize;
        refs[first] += 1;
        live += usize::from(refs[first] == 1);
        moves.extend(steps.windows(2).map(|w| (w[1].0, w[0].1, w[1].1)));
    }
    moves.sort_unstable_by_key(|m| m.0);
    let mut moves = moves.into_iter().peekable();
    (0..versions as u32)
        .map(|v| {
            while let Some((_, from, to)) = moves.next_if(|m| m.0 == v) {
                refs[from as usize] -= 1;
                live -= usize::from(refs[from as usize] == 0);
                refs[to as usize] += 1;
                live += usize::from(refs[to as usize] == 1);
            }
            live
        })
        .collect()
}

/// A host whose site changes across the versions, in [`third_party_pass`]'s
/// table of constant sites.
const MOVES: u32 = u32::MAX;

/// Third-party requests at each version and the request total, from one
/// sharded pass over the stream. A request between two hosts whose sites
/// never change reads one word per host and adds to a count of requests
/// cross-site at every version; only the others merge their timelines.
fn third_party_pass(
    sites: &Timelines<u32>,
    stream: &StreamCorpus,
    versions: usize,
    threads: usize,
    shards: usize,
) -> (Vec<u64>, u64) {
    let constant: Vec<u32> = (0..sites.names())
        .map(|h| match sites.steps(h) {
            &[(_, site)] => site,
            _ => MOVES,
        })
        .collect();
    let constant = &constant;
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
                            for r in &buf {
                                let (page, target) = (r.page as usize, r.request as usize);
                                match (constant[page], constant[target]) {
                                    (MOVES, _) | (_, MOVES) => add_cross_site(
                                        &mut diff,
                                        sites.steps(page),
                                        sites.steps(target),
                                        versions,
                                    ),
                                    (a, b) => always += u64::from(a != b),
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
