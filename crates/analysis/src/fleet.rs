//! The browser fleet: millions of scripted sessions *executed* against
//! pairs of list versions, with sharded mergeable harm accumulators.
//!
//! The sweeps count how many hosts a stale list would misjudge; the fleet
//! measures what those misjudgements *do* to simulated users. Each
//! session (a deterministic script from
//! [`psl_webcorpus::SessionStream`]) is replayed once per sampled
//! version, simultaneously under that version `V` and the reference
//! (latest) version `R`, by the allocation-free
//! [`psl_browser::SessionEngine`]. Every divergence — a platform-wide
//! supercookie accepted, a cookie attached cross-customer, a same-site
//! judgement flipped, a credential offered to the wrong store, a storage
//! partition merged — folds into a [`SessionHarm`] as it happens; no
//! decision log is ever materialized.
//!
//! Scale comes from the same three ingredients as the streaming sweep:
//!
//! 1. **Precomputation.** Everything list-dependent is computed once per
//!    `(host, sampled version)`: the dense site id (read off one
//!    [`crate::walker::walk`] over all versions) and the parent-scope
//!    cookie verdict ([`ListView`]). Session execution is then pure
//!    integer compares.
//! 2. **Sharded generation.** Shard `s` of `K` owns sessions `s, s+K, …`;
//!    scripts derive from per-session seeds, so any worker can run any
//!    shard and produce identical events.
//! 3. **Mergeable accumulators.** Each `(shard, version)` owns a
//!    [`FleetAccumulator`] — summed [`SessionHarm`], session count, and a
//!    distinct-victim [`SiteSet`] (exact set or HyperLogLog). Merging is
//!    associative and commutative, so the fleet's output is byte-identical
//!    for any thread or shard count (property-tested below).
//!
//! Memory is `O(hosts × sampled versions + shards)` — flat in the session
//! count, which only determines how long the fleet runs.

use crate::report::downsample;
use crate::sweep::resolved_threads;
use crate::sweep_stream::{SiteCounter, SiteSet};
use crate::walker::{dense_ids, site_ids, walk};
use psl_browser::{ListView, SessionEngine, SessionHarm};
use psl_core::cookie::{evaluate_set_cookie, CookieDecision};
use psl_core::{Date, DomainName, MatchOpts};
use psl_history::History;
use psl_webcorpus::{SessionEvent, StreamCorpus};
use serde::Serialize;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

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
    /// Distinct-victim counting mode (exact host-id sets, or HyperLogLog
    /// for fixed memory at any population size).
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
    /// same victim hashes identically in every shard).
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

/// Build the per-version [`ListView`]s and parent-domain ids for a host
/// population: site ids at the sampled version indices from one version
/// walk (ids hold across versions, and the engine only compares ids
/// within one view), parent-scope cookie verdicts from the faithful
/// string jar (`evaluate_set_cookie` against each sampled version's
/// snapshot — hosts × versions is cheap; sessions never touch strings).
fn build_views(
    history: &History,
    stream: &StreamCorpus,
    sampled: &[usize],
    opts: MatchOpts,
    threads: usize,
) -> (Vec<ListView>, Vec<u32>) {
    let hosts = stream.hosts();
    let (sites, _) = site_ids(&walk(history, hosts, opts), hosts);
    // Parent domain: the host minus its leftmost label.
    let parents =
        dense_ids(hosts.iter().map(|h| h.suffix_of_len(h.label_count() - 1).unwrap_or("")));

    let mut views: Vec<Option<ListView>> = vec![None; sampled.len()];
    let chunk = sampled.len().div_ceil(resolved_threads(threads, sampled.len()));
    crossbeam::thread::scope(|scope| {
        for (slots, versions) in views.chunks_mut(chunk).zip(sampled.chunks(chunk)) {
            let sites = &sites;
            scope.spawn(move |_| {
                for (slot, &v) in slots.iter_mut().zip(versions) {
                    let site_id = (0..hosts.len()).map(|h| sites.at(h, v)).collect();
                    let list = history.snapshot_at(history.versions()[v]);
                    let scope_refused = hosts
                        .iter()
                        .map(|h| {
                            let n = h.label_count();
                            if n < 2 {
                                return true;
                            }
                            let parent = DomainName::parse(
                                h.suffix_of_len(n - 1).expect("n-1 labels exist"),
                            )
                            .expect("suffix of a valid name is valid");
                            !matches!(
                                evaluate_set_cookie(&list, h, &parent, opts),
                                CookieDecision::Allow
                            )
                        })
                        .collect();
                    *slot = Some(ListView { site_id, scope_refused });
                }
            });
        }
    })
    .expect("view worker panicked");

    (views.into_iter().map(|v| v.expect("every view computed")).collect(), parents)
}

/// Execute the fleet: `config.sessions` scripted sessions per sampled
/// version, each run paired against the reference (latest) version.
///
/// Deterministic: the output is byte-identical for any thread count and
/// any shard count (the accumulator merges are order-independent and the
/// scripts derive from per-session seeds).
pub fn run_fleet(history: &History, stream: &StreamCorpus, config: &FleetConfig) -> FleetOutcome {
    let max_v = if config.max_versions == 0 { DEFAULT_MAX_VERSIONS } else { config.max_versions };
    let sampled = downsample(&(0..history.version_count()).collect::<Vec<_>>(), max_v);
    let sampled_dates: Vec<Date> = sampled.iter().map(|&v| history.versions()[v]).collect();
    let ref_date = *sampled_dates.last().expect("history non-empty");

    let (views, parents) = build_views(history, stream, &sampled, config.opts, config.threads);
    let ref_view = views.last().expect("reference view exists");

    let threads = resolved_threads(config.threads, usize::MAX);
    let shards = if config.shards == 0 { (threads * 4).max(1) } else { config.shards };
    let session_stream = stream.sessions(config.sessions);

    // Work queue: shards drained off one atomic counter. Each worker
    // generates a shard's scripts once and executes every script against
    // all sampled versions before moving on — the script derivation (RNG
    // streams, Zipf draws) is the expensive part, the paired integer
    // replay is nearly free.
    let master: Mutex<Vec<FleetAccumulator>> =
        Mutex::new(views.iter().map(|_| FleetAccumulator::new(config.counter)).collect());
    let next = AtomicU64::new(0);
    crossbeam::thread::scope(|scope| {
        for _ in 0..threads {
            let views = &views;
            let parents = &parents;
            let master = &master;
            let next = &next;
            let session_stream = &session_stream;
            scope.spawn(move |_| {
                let mut engine = SessionEngine::new(parents);
                let mut events: Vec<SessionEvent> = Vec::new();
                loop {
                    let s = next.fetch_add(1, Ordering::Relaxed);
                    if s >= shards as u64 {
                        break;
                    }
                    let mut accs: Vec<FleetAccumulator> =
                        views.iter().map(|_| FleetAccumulator::new(config.counter)).collect();
                    for i in session_stream.shard_sessions(s, shards as u64) {
                        session_stream.session_events(i, &mut events);
                        for (v, acc) in views.iter().zip(&mut accs) {
                            let harm = execute_session(&mut engine, &events, v, ref_view);
                            acc.sessions += 1;
                            acc.harm.absorb(&harm);
                            for &victim in engine.victims() {
                                acc.victims.insert(victim);
                            }
                        }
                    }
                    let mut m = master.lock().expect("fleet master poisoned");
                    for (mv, a) in m.iter_mut().zip(&accs) {
                        mv.merge(a);
                    }
                }
            });
        }
    })
    .expect("fleet worker panicked");

    let master = master.into_inner().expect("fleet master poisoned");
    let rows = sampled_dates
        .iter()
        .zip(&master)
        .map(|(date, acc)| FleetRow {
            date: *date,
            age_days: i64::from(ref_date.days_since_epoch() - date.days_since_epoch()),
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
        .collect();

    FleetOutcome {
        rows,
        sessions: config.sessions,
        threads,
        shards,
        versions_sampled: sampled_dates.len(),
        hosts: stream.host_count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use psl_history::{generate, GeneratorConfig};
    use psl_webcorpus::{build_stream, CorpusConfig};

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
        }
    }
}
