//! The browser fleet: millions of scripted sessions *executed* against
//! pairs of list versions, with sharded mergeable harm accumulators.
//!
//! The sweeps count how many hosts a stale list would misjudge; the fleet
//! measures what those misjudgements *do* to simulated users. Each
//! session (a deterministic script from
//! [`psl_webcorpus::SessionStream`]) is answered for every sampled
//! version `V`, executed simultaneously under `V` and the reference
//! (latest) version `R` by the allocation-free
//! [`psl_browser::SessionEngine`]. Every divergence — a platform-wide
//! supercookie accepted, a cookie attached cross-customer, a same-site
//! judgement flipped, a credential offered to the wrong store, a storage
//! partition merged — folds into a [`SessionHarm`] as it happens; no
//! decision log is ever materialized.
//!
//! A fleet call does work in proportion to what list changes can affect:
//!
//! 1. **Precomputation.** Everything list-dependent is computed once per
//!    `(host, sampled version)` ([`ListView`]) from one version walk
//!    ([`crate::walker`]) over the hosts and their distinct parent
//!    domains: the dense site id from a host's timeline, and the
//!    parent-scope cookie verdict from its parent's (a `Domain=parent`
//!    cookie is refused exactly when the parent is a public suffix).
//!    Each host also gets two bitmasks over the sampled versions: the
//!    versions whose view differs from the reference's at that host, and
//!    the edges, the versions whose view differs from the next one's
//!    there. Session execution is then pure integer compares.
//! 2. **One replay per run.** The edges of the hosts a session touches
//!    split the sampled versions into runs that read the same values at
//!    every step, so they behave alike: a run costs one `(V, R)` replay,
//!    shared by all its versions, and none at all when its versions hold
//!    the reference's values at those hosts. Those take the reference
//!    result, which needs no replay either (see `answer_session`): no
//!    divergence, no victim, and the session's events, which every
//!    version counts alike, so a shard counts them once for all. At
//!    paper scale about a fifth of the `(session, version)` pairs are
//!    answered by a replay, and one replay answers about five of them.
//!    The script's generator reports the hosts it names as it draws them,
//!    so the touched masks are ORed in the same pass.
//! 3. **Sharded generation.** Shard `s` of `K` owns sessions `s, s+K, …`;
//!    scripts derive from per-session seeds, so any worker can run any
//!    shard and produce identical events.
//! 4. **One accumulation per run.** A replayed run adds its divergences to
//!    a per-shard difference array over the sampled versions, at its
//!    first version and, negated, after its last, and ORs its versions
//!    into each victim's mask. When the shard ends both fold into one
//!    [`FleetAccumulator`] per version — summed [`SessionHarm`], session
//!    count, and a distinct-victim [`SiteSet`] (a bitset over dense host
//!    ids, or a HyperLogLog). Sums and unions do not depend on order, and
//!    accumulators merge associatively and commutatively, so the fleet's
//!    output is byte-identical for any thread or shard count
//!    (property-tested below).
//!
//! Memory is `O(hosts × sampled versions × threads + shards)` — flat in
//! the session count, which only determines how long the fleet runs.

use crate::report::downsample;
use crate::sweep::resolved_threads;
use crate::sweep_stream::{SiteCounter, SiteSet};
use crate::walker::{site_ids, walk_with_parents};
use psl_browser::{ListView, SessionEngine, SessionHarm};
use psl_core::{Date, MatchOpts};
use psl_history::History;
use psl_webcorpus::{SessionEvent, StreamCorpus};
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Configuration for [`run_fleet`].
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Matching options (browsers: defaults).
    pub opts: MatchOpts,
    /// Sessions to execute per sampled version.
    pub sessions: u64,
    /// Worker threads (0 = available parallelism).
    pub threads: usize,
    /// Shard count (0 = auto: 4 × threads, so the atomic work queue
    /// load-balances uneven shards).
    pub shards: usize,
    /// Distinct-victim counting mode (exact host-id bitsets, or
    /// HyperLogLog for fixed memory at any population size).
    pub counter: SiteCounter,
    /// Sample at most this many history versions, evenly spaced and
    /// always including the earliest and the latest (0 = 12). The latest
    /// is the reference every other version is paired against.
    pub max_versions: usize,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            opts: MatchOpts::default(),
            sessions: 10_000,
            threads: 0,
            shards: 0,
            counter: SiteCounter::Exact,
            max_versions: 0,
        }
    }
}

const DEFAULT_MAX_VERSIONS: usize = 12;

/// Mergeable per-`(shard, version)` fleet state.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetAccumulator {
    /// Sessions this accumulator executed.
    pub sessions: u64,
    /// Summed harm over those sessions.
    pub harm: SessionHarm,
    /// Distinct harmed hosts (dense host ids — globally assigned, so the
    /// same victim sets the same bit, or hashes identically, in every
    /// shard).
    pub victims: SiteSet,
}

impl FleetAccumulator {
    /// Empty accumulator in the given victim-counting mode.
    pub fn new(counter: SiteCounter) -> Self {
        FleetAccumulator {
            sessions: 0,
            harm: SessionHarm::default(),
            victims: SiteSet::new(counter),
        }
    }

    /// Merge another shard's state into this one. Associative and
    /// commutative (addition / field sums / set union or register max),
    /// so shards can finish — and merge — in any order.
    pub fn merge(&mut self, other: &FleetAccumulator) {
        self.sessions += other.sessions;
        self.harm.absorb(&other.harm);
        self.victims.merge(&other.victims);
    }
}

/// One row of the fleet harm-divergence table: everything version `V`
/// (of the given age) did to the fleet that the reference would not have.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct FleetRow {
    /// The stale version's publication date.
    pub date: Date,
    /// Days between this version and the reference (0 for the reference
    /// itself — the control row, which must be harmless).
    pub age_days: i64,
    /// Sessions executed against this version.
    pub sessions: u64,
    /// Events those sessions executed.
    pub events: u64,
    /// Set-Cookie outcomes flipped vs. the reference.
    pub cookie_set_flips: u64,
    /// Cookies attached under `V` that the reference refused or isolated.
    pub leaked_cookies: u64,
    /// Same-site judgements flipped.
    pub same_site_flips: u64,
    /// Credentials offered on the wrong site.
    pub wrong_autofill: u64,
    /// Storage partitions merged by `V` vs. the reference.
    pub merged_partitions: u64,
    /// Storage partitions split by `V` vs. the reference.
    pub split_partitions: u64,
    /// Distinct hosts harmed (exact or HLL-estimated per
    /// [`FleetConfig::counter`]).
    pub distinct_victims: usize,
}

/// Everything [`run_fleet`] measured, plus the shape of the run.
#[derive(Debug, Clone, Serialize)]
pub struct FleetOutcome {
    /// One row per sampled version, ascending by date (descending age);
    /// the last row is the reference paired with itself.
    pub rows: Vec<FleetRow>,
    /// Sessions executed per version.
    pub sessions: u64,
    /// `(session, version)` pairs answered by a `(V, R)` replay: those
    /// whose session touches a host `V` moved. The other pairs of the
    /// `sessions × versions_sampled` answered took the reference result.
    pub replayed_pairs: u64,
    /// Engine replays executed: one per run of consecutive versions that
    /// agree at every host a session touches and moved one of them. Each
    /// answers every pair of its run, so there are never more replays
    /// than `replayed_pairs`.
    pub replays: u64,
    /// Wall time of building the views: the version walk, the site ids,
    /// the per-version views and the host masks.
    pub views_seconds: f64,
    /// Wall time of answering the sessions (the worker threads).
    pub sessions_seconds: f64,
    /// Worker threads actually used.
    pub threads: usize,
    /// Shards actually used.
    pub shards: usize,
    /// Versions sampled (including the reference).
    pub versions_sampled: usize,
    /// Host population size.
    pub hosts: usize,
}

/// Replay one scripted session through an engine under `(V, R)`.
/// Shared by the fleet driver, the conformance golden, and the bench.
pub fn execute_session(
    engine: &mut SessionEngine<'_>,
    events: &[SessionEvent],
    v: &ListView,
    r: &ListView,
) -> SessionHarm {
    engine.begin();
    for ev in events {
        match *ev {
            SessionEvent::Visit(h) => engine.visit(h, v, r),
            SessionEvent::SetCookie => engine.set_parent_cookie(v, r),
            SessionEvent::SaveCredential => engine.save_credential(),
            SessionEvent::Load(t) => engine.load(t, v, r),
            SessionEvent::FramedLoad { frame, target } => engine.framed_load(frame, target, v, r),
        }
    }
    engine.finish()
}

/// What [`execute_session`] returns for `events` under a view paired with
/// itself, such as `(R, R)`, computed without the engine: every paired
/// comparison is equal, so nothing diverges and no host is a victim. The
/// engine counts every event from the first `Visit` on and ignores the
/// ones before it, which have no current page.
fn reference_harm(events: &[SessionEvent]) -> SessionHarm {
    let first_visit = events.iter().position(|ev| matches!(ev, SessionEvent::Visit(_)));
    SessionHarm { events: first_visit.map_or(0, |i| events.len() - i) as u64, ..Default::default() }
}

/// A word of the per-host version masks: 16 versions, so the default 12
/// sampled versions take one word per mask and a host's two masks take 4
/// bytes, which keeps the whole table in a core's cache.
type Word = u16;

/// Versions per mask [`Word`].
const BITS: usize = Word::BITS as usize;

/// Everything list-dependent a session reads, per host of the population.
struct Views {
    /// One view per sampled version, ascending; the last is the reference.
    views: Vec<ListView>,
    /// Parent-domain id per host (version-independent): the walk's id of
    /// its one-label-shorter suffix.
    parents: Vec<u32>,
    /// Words per host in each mask: ⌈sampled versions / [`BITS`]⌉.
    words: usize,
    /// Host `h` owns `masks[h * 2 * words..][..2 * words]`: its moved mask,
    /// in which bit `v` is set iff view `v` differs from the reference at
    /// `h`, then its edge mask, in which bit `v` is set iff views `v` and
    /// `v + 1` differ at `h` (site id or cookie verdict, in both).
    masks: Vec<Word>,
}

impl Views {
    /// Wrap per-version views (the last is the reference) and mark, per
    /// host, the versions that differ from the reference and from the next
    /// version there.
    fn new(views: Vec<ListView>, parents: Vec<u32>) -> Self {
        let words = views.len().div_ceil(BITS);
        let mut masks = vec![0; parents.len() * 2 * words];
        let r = views.last().expect("at least one version is sampled");
        let differ = |a: &ListView, b: &ListView, h: usize| {
            a.site_id[h] != b.site_id[h] || a.scope_refused[h] != b.scope_refused[h]
        };
        for (v, view) in views.iter().enumerate() {
            let (flag, next) = (1 << (v % BITS), views.get(v + 1));
            for h in 0..parents.len() {
                let word = h * 2 * words + v / BITS;
                if differ(view, r, h) {
                    masks[word] |= flag;
                }
                if next.is_some_and(|next| differ(view, next, h)) {
                    masks[word + words] |= flag;
                }
            }
        }
        Views { views, parents, words, masks }
    }

    fn reference(&self) -> &ListView {
        self.views.last().expect("at least one version is sampled")
    }

    /// Host `host`'s moved words, then its edge words.
    fn masks(&self, host: u32) -> &[Word] {
        &self.masks[host as usize * 2 * self.words..][..2 * self.words]
    }
}

/// A worker's answers for the shard it is on: the counts every version
/// shares, the replayed runs' divergences as a difference array over the
/// sampled versions, and per host the versions at which a replayed run
/// harmed it. [`Shard::fold_into`] adds them to the accumulators when the
/// shard ends and empties them for the next; the replay statistics keep
/// counting across shards.
struct Shard {
    /// Sessions answered.
    sessions: u64,
    /// Events those sessions count: [`reference_harm`]'s, which every
    /// `(V, R)` replay counts too.
    events: u64,
    /// `(session, version)` pairs answered by a replay.
    pairs: u64,
    /// Engine replays executed.
    replays: u64,
    /// Every replayed run's [`divergences`], added at its first version
    /// and subtracted after its last, in wrapping arithmetic: the sum of
    /// `diff[..=v]` is what the runs over version `v` diverged. A run
    /// ends before the reference, so the slot after it exists.
    diff: Vec<[u64; 6]>,
    /// Words per host in `victims`: ⌈sampled versions / [`BITS`]⌉.
    words: usize,
    /// Host `h` owns `victims[h * words..][..words]`, in which bit `v` is
    /// set iff a run over version `v` harmed `h`.
    victims: Vec<Word>,
}

impl Shard {
    /// An empty shard over `versions` sampled versions, keeping its victim
    /// masks in `victims`: zeroed, ⌈versions / [`BITS`]⌉ words per host.
    fn new(versions: usize, victims: Vec<Word>) -> Self {
        Shard {
            sessions: 0,
            events: 0,
            pairs: 0,
            replays: 0,
            diff: vec![[0; 6]; versions],
            words: versions.div_ceil(BITS),
            victims,
        }
    }

    /// Record a replay that answers versions `first..=last`: its
    /// divergences at both ends of the run, and the run's versions in
    /// each victim's mask.
    fn add_run(&mut self, first: usize, last: usize, harm: &SessionHarm, victims: &[u32]) {
        self.replays += 1;
        self.pairs += (last - first + 1) as u64;
        for (d, x) in self.diff[first].iter_mut().zip(divergences(harm)) {
            *d = d.wrapping_add(x);
        }
        for (d, x) in self.diff[last + 1].iter_mut().zip(divergences(harm)) {
            *d = d.wrapping_sub(x);
        }
        for &victim in victims {
            let mask = &mut self.victims[victim as usize * self.words..][..self.words];
            for (w, word) in mask.iter_mut().enumerate().take(last / BITS + 1).skip(first / BITS) {
                // The run's versions in word `w`: bits `lo..=hi`.
                let lo = first.max(w * BITS) - w * BITS;
                let hi = last.min(w * BITS + BITS - 1) - w * BITS;
                *word |= (Word::MAX >> (BITS - 1 - hi)) & (Word::MAX << lo);
            }
        }
    }

    /// Add the shard's sessions, events, divergences and victims to
    /// every version's accumulator, and empty them.
    fn fold_into(&mut self, accs: &mut [FleetAccumulator]) {
        let mut sum = [0u64; 6];
        for (acc, diff) in accs.iter_mut().zip(&mut self.diff) {
            for (s, d) in sum.iter_mut().zip(std::mem::take(diff)) {
                *s = s.wrapping_add(d);
            }
            let [cookie_set_flips, leaked_cookies, same_site_flips, wrong_autofill, merged, split] =
                sum;
            acc.sessions += self.sessions;
            acc.harm.absorb(&SessionHarm {
                events: self.events,
                cookie_set_flips,
                leaked_cookies,
                same_site_flips,
                wrong_autofill,
                merged_partitions: merged,
                split_partitions: split,
            });
        }
        (self.sessions, self.events) = (0, 0);
        for (host, mask) in self.victims.chunks_exact_mut(self.words).enumerate() {
            for (w, word) in mask.iter_mut().enumerate() {
                let mut bits = std::mem::take(word);
                while bits != 0 {
                    accs[w * BITS + bits.trailing_zeros() as usize].victims.insert(host as u32);
                    bits &= bits - 1;
                }
            }
        }
    }
}

/// A harm's divergence counters: every count but the events, in
/// [`SessionHarm`]'s field order.
fn divergences(harm: &SessionHarm) -> [u64; 6] {
    [
        harm.cookie_set_flips,
        harm.leaked_cookies,
        harm.same_site_flips,
        harm.wrong_autofill,
        harm.merged_partitions,
        harm.split_partitions,
    ]
}

/// The first set bit of a multi-word mask at or after bit `from`.
fn next_bit(mask: &[Word], from: usize) -> Option<usize> {
    let mut w = from / BITS;
    let mut word = *mask.get(w)? & (Word::MAX << (from % BITS));
    while word == 0 {
        w += 1;
        word = *mask.get(w)?;
    }
    Some(w * BITS + word.trailing_zeros() as usize)
}

/// Build the per-version [`ListView`]s of a host population at the
/// sampled version indices, from one version walk over the hosts and
/// their distinct parent domains. Site ids hold across versions, so a
/// host whose id equals the reference's is in the same site. A
/// `Domain=parent` Set-Cookie is refused exactly when the parent is a
/// public suffix, which is `evaluate_set_cookie`'s verdict, since a host
/// always domain-matches its parent and never equals it (the string jar
/// is the test oracle). A host's parent id is the walk's id of its
/// one-label-shorter suffix.
fn build_views(
    history: &History,
    stream: &StreamCorpus,
    sampled: &[usize],
    opts: MatchOpts,
    threads: usize,
) -> Views {
    let hosts = stream.hosts();
    let (walked, parent_of) = walk_with_parents(history, hosts, opts, threads);
    let (sites, _) = site_ids(&walked);
    let public = walked.suffix_lens.map(|i, len| len == Some(walked.labels(i) as u32));
    let parents = (0..hosts.len()).map(|h| walked.suffix_id(h, walked.labels(h) - 1)).collect();
    let views = sampled
        .iter()
        .map(|&v| ListView {
            site_id: (0..hosts.len()).map(|h| sites.at(h, v)).collect(),
            // A single-label host has no parent: its cookie is refused.
            scope_refused: parent_of
                .iter()
                .map(|p| p.is_none_or(|p| public.at(p as usize, v)))
                .collect(),
        })
        .collect();
    Views::new(views, parents)
}

/// Answer one session for every sampled version into `shard`. `touched`
/// holds the OR of the masks of every host the events name (its moved
/// words, then its edge words), which the script's generator reports as
/// it draws them. The engine reads views only at those hosts, and the
/// parent ids do not depend on the version. So the edges of those hosts
/// split the versions into runs whose versions execute the same
/// comparisons and earn the same harm and victims. A run that moved none
/// of those hosts holds the reference's values there: its versions take
/// [`reference_harm`], whose only nonzero count, the events, every
/// version shares, so the shard counts it once. Any other run replays its
/// first version under `(V, R)` once and records that replay's
/// divergences and distinct victims for the whole run; its events are the
/// reference's too.
fn answer_session(
    engine: &mut SessionEngine<'_>,
    events: &[SessionEvent],
    views: &Views,
    touched: &[Word],
    shard: &mut Shard,
) {
    shard.sessions += 1;
    shard.events += reference_harm(events).events;
    let (moved, edges) = touched.split_at(views.words);
    // A moved run starts at version 0 or after a touched edge, and its
    // versions share their moved bit, so the next moved version starts
    // one. It ends at the next touched edge, which comes before the
    // reference: the reference never moves.
    let mut from = 0;
    while let Some(first) = next_bit(moved, from) {
        let last = next_bit(edges, first).expect("a moved run ends before the reference");
        let replay = execute_session(engine, events, &views.views[first], views.reference());
        shard.add_run(first, last, &replay, engine.victims());
        from = last + 1;
    }
}

/// The sampled history version indices: at most `max_versions` (0 = 12),
/// evenly spaced, the earliest and the latest included.
fn sample_versions(history: &History, max_versions: usize) -> Vec<usize> {
    let max_v = if max_versions == 0 { DEFAULT_MAX_VERSIONS } else { max_versions };
    downsample(&(0..history.version_count()).collect::<Vec<_>>(), max_v)
}

/// The harm table: one row per sampled version from its accumulator.
fn table(history: &History, sampled: &[usize], accs: &[FleetAccumulator]) -> Vec<FleetRow> {
    let date = |v: usize| history.versions()[v];
    let ref_date = date(*sampled.last().expect("at least one version is sampled"));
    sampled
        .iter()
        .zip(accs)
        .map(|(&v, acc)| FleetRow {
            date: date(v),
            age_days: i64::from(ref_date.days_since_epoch() - date(v).days_since_epoch()),
            sessions: acc.sessions,
            events: acc.harm.events,
            cookie_set_flips: acc.harm.cookie_set_flips,
            leaked_cookies: acc.harm.leaked_cookies,
            same_site_flips: acc.harm.same_site_flips,
            wrong_autofill: acc.harm.wrong_autofill,
            merged_partitions: acc.harm.merged_partitions,
            split_partitions: acc.harm.split_partitions,
            distinct_victims: acc.victims.count(),
        })
        .collect()
}

/// Execute the fleet: `config.sessions` scripted sessions per sampled
/// version, each run paired against the reference (latest) version.
///
/// Deterministic: the output is byte-identical for any thread count and
/// any shard count (the accumulator merges are order-independent and the
/// scripts derive from per-session seeds).
pub fn run_fleet(history: &History, stream: &StreamCorpus, config: &FleetConfig) -> FleetOutcome {
    let sampled = sample_versions(history, config.max_versions);
    let threads = resolved_threads(config.threads, usize::MAX);
    let started = Instant::now();
    let views = build_views(history, stream, &sampled, config.opts, threads);
    let views_seconds = started.elapsed().as_secs_f64();

    let shards = if config.shards == 0 { (threads * 4).max(1) } else { config.shards };
    let session_stream = stream.sessions(config.sessions);

    // Work queue: shards drained off one atomic counter. Each worker
    // generates a shard's scripts once, ORing the masks of the hosts a
    // script names as it is drawn, and answers every sampled version for
    // a script before moving on: one replay per run of versions that moved
    // a host the script touches. The shard's answers join the accumulators
    // when it ends. The calling thread allocates every worker's victim
    // masks, so no worker's heap holds them; each worker keeps its counts
    // on its own stack and returns its replay statistics.
    let master: Mutex<Vec<FleetAccumulator>> =
        Mutex::new(sampled.iter().map(|_| FleetAccumulator::new(config.counter)).collect());
    let masks: Vec<Vec<Word>> =
        (0..threads).map(|_| vec![0; stream.host_count() * views.words]).collect();
    let next = AtomicU64::new(0);
    let started = Instant::now();
    let (replayed_pairs, replays) = crossbeam::thread::scope(|scope| {
        let workers: Vec<_> = masks
            .into_iter()
            .map(|victims| {
                let views = &views;
                let master = &master;
                let next = &next;
                let session_stream = &session_stream;
                scope.spawn(move |_| {
                    let mut shard = Shard::new(views.views.len(), victims);
                    let mut engine = SessionEngine::new(&views.parents);
                    let mut events: Vec<SessionEvent> = Vec::new();
                    let mut touched = vec![0; 2 * views.words];
                    loop {
                        let s = next.fetch_add(1, Ordering::Relaxed);
                        if s >= shards as u64 {
                            break;
                        }
                        for i in session_stream.shard_sessions(s, shards as u64) {
                            touched.fill(0);
                            session_stream.session_events_with(i, &mut events, |h| {
                                for (t, m) in touched.iter_mut().zip(views.masks(h)) {
                                    *t |= m;
                                }
                            });
                            answer_session(&mut engine, &events, views, &touched, &mut shard);
                        }
                        shard.fold_into(&mut master.lock().expect("fleet master poisoned"));
                    }
                    (shard.pairs, shard.replays)
                })
            })
            .collect();
        workers.into_iter().fold((0, 0), |(pairs, replays), worker| {
            let (p, r) = worker.join().expect("fleet worker panicked");
            (pairs + p, replays + r)
        })
    })
    .expect("fleet worker panicked");
    let sessions_seconds = started.elapsed().as_secs_f64();

    let master = master.into_inner().expect("fleet master poisoned");
    FleetOutcome {
        rows: table(history, &sampled, &master),
        sessions: config.sessions,
        replayed_pairs,
        replays,
        views_seconds,
        sessions_seconds,
        threads,
        shards,
        versions_sampled: sampled.len(),
        hosts: stream.host_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use psl_core::cookie::{evaluate_set_cookie, CookieDecision};
    use psl_history::{generate, GeneratorConfig};
    use psl_webcorpus::{build_stream, CorpusConfig};
    use std::collections::BTreeSet;

    fn fixture() -> (History, StreamCorpus) {
        let h = generate(&GeneratorConfig::small(101));
        let sc = build_stream(&h, &CorpusConfig::small(13));
        (h, sc)
    }

    fn small_config() -> FleetConfig {
        FleetConfig { sessions: 400, max_versions: 5, ..Default::default() }
    }

    #[test]
    fn fleet_output_is_identical_for_any_thread_and_shard_count() {
        let (h, sc) = fixture();
        let reference =
            run_fleet(&h, &sc, &FleetConfig { threads: 1, shards: 1, ..small_config() });
        let ref_json = serde_json::to_string(&reference.rows).unwrap();
        for (threads, shards) in [(1usize, 4usize), (4, 1), (4, 4), (8, 13), (2, 7)] {
            let out = run_fleet(&h, &sc, &FleetConfig { threads, shards, ..small_config() });
            assert_eq!(
                serde_json::to_string(&out.rows).unwrap(),
                ref_json,
                "threads={threads} shards={shards}"
            );
            assert_eq!(out.threads, threads);
            assert_eq!(out.shards, shards);
            assert_eq!(out.replayed_pairs, reference.replayed_pairs, "{threads}x{shards}");
            assert_eq!(out.replays, reference.replays, "{threads}x{shards}");
        }
    }

    /// The reference-reuse oracle: a plain loop replaying every
    /// `(session, version)` pair on the same views.
    fn full_replay(h: &History, sc: &StreamCorpus, config: &FleetConfig) -> Vec<FleetRow> {
        let sampled = sample_versions(h, config.max_versions);
        let views = build_views(h, sc, &sampled, config.opts, 1);
        let mut accs: Vec<FleetAccumulator> =
            sampled.iter().map(|_| FleetAccumulator::new(config.counter)).collect();
        let mut engine = SessionEngine::new(&views.parents);
        let sessions = sc.sessions(config.sessions);
        let mut events = Vec::new();
        for i in 0..config.sessions {
            sessions.session_events(i, &mut events);
            for (view, acc) in views.views.iter().zip(&mut accs) {
                acc.sessions += 1;
                acc.harm.absorb(&execute_session(&mut engine, &events, view, views.reference()));
                for &victim in engine.victims() {
                    acc.victims.insert(victim);
                }
            }
        }
        table(h, &sampled, &accs)
    }

    #[test]
    fn skipping_unchanged_versions_matches_full_replay() {
        let (h, sc) = fixture();
        // 70 sampled versions need five mask words per host.
        for max_versions in [5, 70] {
            let config = FleetConfig { sessions: 600, max_versions, ..Default::default() };
            let out = run_fleet(&h, &sc, &config);
            assert_eq!(out.versions_sampled, max_versions);
            assert_eq!(out.rows, full_replay(&h, &sc, &config), "max_versions={max_versions}");
            let pairs = out.sessions * max_versions as u64;
            assert!(
                0 < out.replayed_pairs && out.replayed_pairs < pairs,
                "{} of {pairs} pairs replayed",
                out.replayed_pairs
            );
            assert!(
                0 < out.replays && out.replays < out.replayed_pairs,
                "{} replays answered {} pairs",
                out.replays,
                out.replayed_pairs
            );
            if max_versions > 64 {
                // The last word's versions carry harm, so a mask that
                // dropped them would show above.
                assert!(out.rows[64..max_versions - 1].iter().any(|r| r.leaked_cookies > 0));
            }
        }
    }

    // Hand-built population: host 0 alice.github.io, host 1
    // bob.github.io, one parent domain.

    /// A list without `github.io`: bob shares alice's site.
    fn stale() -> ListView {
        ListView { site_id: vec![0, 0], scope_refused: vec![true, true] }
    }

    /// The latest list: bob has a site of its own.
    fn latest() -> ListView {
        ListView { site_id: vec![0, 1], scope_refused: vec![true, true] }
    }

    /// Answer `script` on hand-built views: the pairs answered by a
    /// replay, the replays executed, and one accumulator per view. The
    /// touched masks are the OR over every host an event names, as the
    /// generator reports them.
    fn answer(views: &Views, script: &[SessionEvent]) -> (u64, u64, Vec<FleetAccumulator>) {
        let mut engine = SessionEngine::new(&views.parents);
        let mut shard = Shard::new(views.views.len(), vec![0; views.parents.len() * views.words]);
        let mut touched = vec![0; 2 * views.words];
        for ev in script {
            let hosts = match *ev {
                SessionEvent::Visit(h) | SessionEvent::Load(h) => vec![h],
                SessionEvent::FramedLoad { frame, target } => vec![frame, target],
                SessionEvent::SetCookie | SessionEvent::SaveCredential => vec![],
            };
            for h in hosts {
                touched.iter_mut().zip(views.masks(h)).for_each(|(t, m)| *t |= m);
            }
        }
        answer_session(&mut engine, script, views, &touched, &mut shard);
        let mut accs: Vec<FleetAccumulator> =
            views.views.iter().map(|_| FleetAccumulator::new(SiteCounter::Exact)).collect();
        shard.fold_into(&mut accs);
        (shard.pairs, shard.replays, accs)
    }

    /// `script` answered with a `(V, R)` replay for every view.
    fn every_pair(views: &Views, script: &[SessionEvent]) -> Vec<FleetAccumulator> {
        let mut engine = SessionEngine::new(&views.parents);
        let replay = |view| {
            let mut acc = FleetAccumulator::new(SiteCounter::Exact);
            acc.sessions = 1;
            acc.harm = execute_session(&mut engine, script, view, views.reference());
            for &victim in engine.victims() {
                acc.victims.insert(victim);
            }
            acc
        };
        views.views.iter().map(replay).collect()
    }

    /// Hand-built: between `V` and `R` only the owner of a framed load's
    /// iframe moves, so only the frame's bit can send `V` to a replay —
    /// and the replay matters, since the move flips the load's same-site
    /// judgement.
    #[test]
    fn a_version_moving_only_a_frame_owner_is_replayed() {
        let views = Views::new(vec![stale(), latest()], vec![0, 0]);
        // Alice never moves; bob moves at the stale version, an edge.
        assert_eq!(views.masks, [0, 0, 0b1, 0b1]);

        let framed = [SessionEvent::Visit(0), SessionEvent::FramedLoad { frame: 1, target: 0 }];
        let (replayed, _, accs) = answer(&views, &framed);
        assert_eq!(replayed, 1, "the stale version is replayed");
        let mut engine = SessionEngine::new(&views.parents);
        let full = execute_session(&mut engine, &framed, &views.views[0], views.reference());
        assert_eq!(full.same_site_flips, 1);
        assert_eq!(accs[0].harm, full);
        assert_eq!(accs[0].victims.count(), 1);
        assert!(accs[1].harm.is_harmless());

        // The same page and target without the frame touch no moved host.
        let top = [SessionEvent::Visit(0), SessionEvent::Load(0)];
        let (replayed, _, accs) = answer(&views, &top);
        assert_eq!(replayed, 0);
        assert_eq!(accs[0], accs[1]);
        assert!(accs[0].harm.is_harmless() && accs[0].harm.events == 2);
    }

    /// Alice's page sets the platform cookie and loads bob's asset.
    const ALICE_LOADS_BOB: [SessionEvent; 4] = [
        SessionEvent::Visit(0),
        SessionEvent::SetCookie,
        SessionEvent::Load(1),
        SessionEvent::Visit(1),
    ];

    #[test]
    fn two_stale_versions_in_one_run_share_one_replay() {
        let views = Views::new(vec![stale(), stale(), latest()], vec![0, 0]);
        let (pairs, replays, accs) = answer(&views, &ALICE_LOADS_BOB);
        assert_eq!((pairs, replays), (2, 1));
        assert_eq!(accs, every_pair(&views, &ALICE_LOADS_BOB));
        assert!(!accs[0].harm.is_harmless() && accs[2].harm.is_harmless());
    }

    #[test]
    fn a_host_that_moves_back_replays_only_the_moved_run() {
        // Bob's site goes A -> B -> A, and the reference is A.
        let views = Views::new(vec![latest(), stale(), latest()], vec![0, 0]);
        assert_eq!(views.masks(1), [0b010, 0b011]);
        let (pairs, replays, accs) = answer(&views, &ALICE_LOADS_BOB);
        assert_eq!((pairs, replays), (1, 1), "only the B run is replayed");
        assert_eq!(accs, every_pair(&views, &ALICE_LOADS_BOB));
        assert_eq!(accs[0], accs[2], "the first A run takes the reference result");
    }

    /// The words of a 70-version mask with the given versions' bits set.
    fn mask(versions: impl IntoIterator<Item = usize>) -> Vec<Word> {
        let mut words = vec![0; 70usize.div_ceil(BITS)];
        for v in versions {
            words[v / BITS] |= 1 << (v % BITS);
        }
        words
    }

    #[test]
    fn a_run_across_the_mask_word_boundary_is_replayed_once() {
        // Bob shares alice's site up to version 5, then has its own site
        // but accepts the platform cookie up to version 67, then refuses
        // it like the reference: edges after 5 and after 67.
        let accepting = ListView { site_id: vec![0, 1], scope_refused: vec![true, false] };
        let views = Views::new(
            (0..70)
                .map(|v| match v {
                    0..=5 => stale(),
                    6..=67 => accepting.clone(),
                    _ => latest(),
                })
                .collect(),
            vec![0, 0],
        );
        assert_eq!(views.masks(1), [mask(0..=67), mask([5, 67])].concat());
        let (pairs, replays, accs) = answer(&views, &ALICE_LOADS_BOB);
        assert_eq!((pairs, replays), (68, 2));
        assert_eq!(accs, every_pair(&views, &ALICE_LOADS_BOB));
        assert_ne!(accs[0].harm, accs[6].harm, "the two runs behave differently");

        // Bob moves only at versions 66 to 68, all in the last word.
        let views = Views::new(
            (0..70).map(|v| if (66..=68).contains(&v) { stale() } else { latest() }).collect(),
            vec![0, 0],
        );
        assert_eq!(views.masks(1), [mask(66..=68), mask([65, 68])].concat());
        let (pairs, replays, accs) = answer(&views, &ALICE_LOADS_BOB);
        assert_eq!((pairs, replays), (3, 1));
        assert_eq!(accs, every_pair(&views, &ALICE_LOADS_BOB));
    }

    /// The fixture's views at 5 sampled versions, and 600 generated
    /// scripts plus three hand-built ones: empty, no visit, and events
    /// before the first visit. Generated scripts open with a visit; the
    /// engine ignores events that come before any.
    fn views_and_scripts() -> (Views, Vec<Vec<SessionEvent>>) {
        let (h, sc) = fixture();
        let views = build_views(&h, &sc, &sample_versions(&h, 5), MatchOpts::default(), 1);
        let sessions = sc.sessions(600);
        let mut scripts: Vec<Vec<SessionEvent>> = (0..600)
            .map(|i| {
                let mut events = Vec::new();
                sessions.session_events(i, &mut events);
                events
            })
            .collect();
        let (visit, load) = (SessionEvent::Visit(1), SessionEvent::Load(0));
        let (set, save) = (SessionEvent::SetCookie, SessionEvent::SaveCredential);
        scripts.extend([vec![], vec![set, load], vec![set, save, load, visit, set, load]]);
        (views, scripts)
    }

    /// The branchy [`SessionEngine`] the flag-driven one replaced, kept as
    /// its one reference: `script` executed under `(V, R)`, returning the
    /// harm and the victims, each once, in order of first harm. Each
    /// comparison branches, a cookie enters the jar only when one version
    /// accepts it, and a victim is recorded on its harm unless it is
    /// listed already.
    fn reference_replay(
        parents: &[u32],
        script: &[SessionEvent],
        v: &ListView,
        r: &ListView,
    ) -> (SessionHarm, Vec<u32>) {
        // (scope, setter, accepted under V, accepted under R)
        let mut jar: Vec<(u32, u32, bool, bool)> = Vec::new();
        // (host, site under V, site under R)
        let (mut pages, mut creds, mut victims) = (Vec::new(), Vec::new(), Vec::new());
        let mut harm = SessionHarm::default();
        let mut current: Option<(u32, u32, u32)> = None;
        let record = |victims: &mut Vec<u32>, host: u32| {
            if !victims.contains(&host) {
                victims.push(host);
            }
        };
        for ev in script {
            let (load, same_v, same_r) = match (*ev, current) {
                (SessionEvent::Visit(page), _) => {
                    harm.events += 1;
                    let (site_v, site_r) = (v.site_id[page as usize], r.site_id[page as usize]);
                    for &saved in &creds {
                        let offered_v = v.site_id[saved as usize] == site_v;
                        let offered_r = r.site_id[saved as usize] == site_r;
                        if offered_v && !offered_r {
                            harm.wrong_autofill += 1;
                            record(&mut victims, saved);
                        }
                    }
                    pages.push((page, site_v, site_r));
                    current = Some((page, site_v, site_r));
                    continue;
                }
                (_, None) => continue,
                (SessionEvent::SetCookie, Some((host, ..))) => {
                    harm.events += 1;
                    let h = host as usize;
                    let (ok_v, ok_r) = (!v.scope_refused[h], !r.scope_refused[h]);
                    if ok_v != ok_r {
                        harm.cookie_set_flips += 1;
                        if ok_v {
                            record(&mut victims, host);
                        }
                    }
                    if ok_v || ok_r {
                        jar.push((parents[h], host, ok_v, ok_r));
                    }
                    continue;
                }
                (SessionEvent::SaveCredential, Some((host, ..))) => {
                    harm.events += 1;
                    creds.push(host);
                    continue;
                }
                (SessionEvent::Load(t), Some((_, site_v, site_r))) => {
                    (t, v.site_id[t as usize] == site_v, r.site_id[t as usize] == site_r)
                }
                (SessionEvent::FramedLoad { frame, target }, Some((_, site_v, site_r))) => {
                    let (t, f) = (target as usize, frame as usize);
                    let same_v = v.site_id[t] == site_v && v.site_id[t] == v.site_id[f];
                    let same_r = r.site_id[t] == site_r && r.site_id[t] == r.site_id[f];
                    (target, same_v, same_r)
                }
            };
            let (page, ..) = current.expect("a load has a current page");
            harm.events += 1;
            if same_v != same_r {
                harm.same_site_flips += 1;
                record(&mut victims, page);
            }
            for &(scope, setter, ok_v, ok_r) in &jar {
                if scope != parents[load as usize] {
                    continue;
                }
                if same_v && ok_v && !(same_r && ok_r) {
                    harm.leaked_cookies += 1;
                    record(&mut victims, setter);
                }
            }
        }
        let distinct = |site: fn(&(u32, u32, u32)) -> u32| {
            let mut sites: Vec<u32> = pages.iter().map(site).collect();
            sites.sort_unstable();
            sites.dedup();
            sites.len()
        };
        let (distinct_v, distinct_r) = (distinct(|p| p.1), distinct(|p| p.2));
        harm.merged_partitions = distinct_r.saturating_sub(distinct_v) as u64;
        harm.split_partitions = distinct_v.saturating_sub(distinct_r) as u64;
        (harm, victims)
    }

    /// The engine against its reference on every script under every
    /// ordered pair of sampled views: the harm, and the victims in order.
    #[test]
    fn the_engine_equals_the_branchy_reference() {
        let (views, scripts) = views_and_scripts();
        let mut engine = SessionEngine::new(&views.parents);
        let mut ordered = 0;
        for script in &scripts {
            for v in &views.views {
                for r in &views.views {
                    let harm = execute_session(&mut engine, script, v, r);
                    let (expected, victims) = reference_replay(&views.parents, script, v, r);
                    assert_eq!(harm, expected, "{script:?}");
                    assert_eq!(engine.victims(), victims, "{script:?}");
                    ordered += usize::from(victims.len() > 1);
                }
            }
        }
        assert!(ordered > 100, "{ordered} replays harmed more than one host");
    }

    #[test]
    fn the_reference_rule_equals_a_self_paired_replay() {
        let (views, scripts) = views_and_scripts();
        let mut engine = SessionEngine::new(&views.parents);
        for script in &scripts {
            for view in &views.views {
                let replayed = execute_session(&mut engine, script, view, view);
                assert_eq!(reference_harm(script), replayed, "{script:?}");
                assert!(engine.victims().is_empty());
            }
        }
    }

    /// The engine counts events alike under any views, so a shard counts
    /// every version's events once, from the reference rule.
    #[test]
    fn every_paired_replay_counts_the_reference_events() {
        let (views, scripts) = views_and_scripts();
        let mut engine = SessionEngine::new(&views.parents);
        let mut diverged = 0;
        for script in &scripts {
            let events = reference_harm(script).events;
            for v in &views.views {
                for r in &views.views {
                    let replayed = execute_session(&mut engine, script, v, r);
                    assert_eq!(replayed.events, events, "{script:?}");
                    diverged += usize::from(!replayed.is_harmless());
                }
            }
        }
        assert!(diverged > 0, "no pair of views diverged, so the pairs were all alike");
    }

    #[test]
    fn views_match_the_string_jar_at_every_sampled_version() {
        let (h, sc) = fixture();
        let all: Vec<usize> = (0..h.version_count()).collect();
        let cases: Vec<(MatchOpts, Views)> = [
            MatchOpts::default(),
            MatchOpts { include_private: false, implicit_wildcard: true },
            MatchOpts { include_private: true, implicit_wildcard: false },
        ]
        .into_iter()
        .map(|opts| (opts, build_views(&h, &sc, &all, opts, 3)))
        .collect();
        for &v in &all {
            let date = h.versions()[v];
            let list = h.snapshot_at(date);
            for (opts, views) in &cases {
                for (host, &refused) in sc.hosts().iter().zip(&views.views[v].scope_refused) {
                    let parent = host.parent().expect("corpus hosts have a parent");
                    let jar = evaluate_set_cookie(&list, host, &parent, *opts);
                    assert_eq!(
                        refused,
                        jar != CookieDecision::Allow,
                        "{host} at {date} under {opts:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_reference_row_is_harmless_and_old_versions_are_not() {
        let (h, sc) = fixture();
        let out = run_fleet(&h, &sc, &small_config());
        let last = out.rows.last().unwrap();
        assert_eq!(last.age_days, 0);
        assert_eq!(
            (
                last.cookie_set_flips,
                last.leaked_cookies,
                last.same_site_flips,
                last.wrong_autofill,
                last.merged_partitions,
                last.split_partitions,
                last.distinct_victims
            ),
            (0, 0, 0, 0, 0, 0, 0),
            "a version paired with itself diverges nowhere"
        );
        assert!(last.events > 0);
        assert!(out.rows.iter().all(|r| r.sessions == 400));
        // Ages strictly decrease down the table and some stale version
        // inflicts real, executed harm.
        assert!(out.rows.windows(2).all(|w| w[0].age_days > w[1].age_days));
        let total: u64 = out
            .rows
            .iter()
            .map(|r| r.cookie_set_flips + r.leaked_cookies + r.same_site_flips + r.wrong_autofill)
            .sum();
        assert!(total > 0, "the fleet executed no harm at all: {:?}", out.rows);
    }

    #[test]
    fn one_sampled_version_is_the_latest() {
        let (h, sc) = fixture();
        let out = run_fleet(&h, &sc, &FleetConfig { max_versions: 1, ..small_config() });
        assert_eq!(out.versions_sampled, 1);
        let rows: Vec<(Date, i64)> = out.rows.iter().map(|r| (r.date, r.age_days)).collect();
        assert_eq!(rows, [(*h.versions().last().unwrap(), 0)]);
    }

    #[test]
    fn sketch_mode_only_estimates_the_victim_column() {
        let (h, sc) = fixture();
        let exact = run_fleet(&h, &sc, &small_config());
        let sketch = run_fleet(
            &h,
            &sc,
            &FleetConfig { counter: SiteCounter::DEFAULT_SKETCH, ..small_config() },
        );
        for (e, s) in exact.rows.iter().zip(&sketch.rows) {
            assert_eq!(e.leaked_cookies, s.leaked_cookies);
            assert_eq!(e.merged_partitions, s.merged_partitions);
            assert_eq!(e.events, s.events);
            let err = (s.distinct_victims as f64 - e.distinct_victims as f64).abs()
                / e.distinct_victims.max(1) as f64;
            assert!(err <= 0.05, "exact {} sketch {}", e.distinct_victims, s.distinct_victims);
        }
    }

    /// Build an accumulator from scripted observations.
    fn acc_from(
        counter: SiteCounter,
        victims: &[u32],
        sessions: u64,
        leaks: u64,
    ) -> FleetAccumulator {
        let mut a = FleetAccumulator::new(counter);
        a.sessions = sessions;
        a.harm.events = sessions * 3;
        a.harm.leaked_cookies = leaks;
        for &v in victims {
            a.victims.insert(v);
        }
        a
    }

    proptest! {
        #[test]
        fn fleet_merge_is_commutative_and_associative(
            xs in proptest::collection::vec(0u32..5000, 0..100),
            ys in proptest::collection::vec(0u32..5000, 0..100),
            zs in proptest::collection::vec(0u32..5000, 0..100),
            counts in proptest::collection::vec(0u64..1_000_000, 6),
            sketch in 0u8..2,
        ) {
            let counter = if sketch == 1 {
                SiteCounter::Sketch { precision: 8 }
            } else {
                SiteCounter::Exact
            };
            let a = acc_from(counter, &xs, counts[0], counts[1]);
            let b = acc_from(counter, &ys, counts[2], counts[3]);
            let c = acc_from(counter, &zs, counts[4], counts[5]);
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
            // Identity.
            let mut a_e = a.clone();
            a_e.merge(&FleetAccumulator::new(counter));
            prop_assert_eq!(&a_e, &a);
            // Exact mode counts the distinct ids, merged or not.
            if counter == SiteCounter::Exact {
                let distinct = |ids: &[&[u32]]| {
                    ids.iter().flat_map(|s| s.iter()).collect::<BTreeSet<_>>().len()
                };
                prop_assert_eq!(a.victims.count(), distinct(&[&xs]));
                prop_assert_eq!(ab.victims.count(), distinct(&[&xs, &ys]));
                prop_assert_eq!(ab_c.victims.count(), distinct(&[&xs, &ys, &zs]));
            }
        }
    }
}
