//! The fleet session engine: allocation-free paired execution of one
//! browsing session under two list versions.
//!
//! [`Browser`](crate::Browser) executes one scripted session against one
//! list via string URLs — faithful, but a URL parse, an origin clone and
//! several heap strings per event put population scale out of reach. The
//! fleet path precomputes everything list-dependent *per host population*
//! once per version, then executes sessions in pure integer operations:
//!
//! - every host is a dense id (`u32`) into the population;
//! - a [`ListView`] holds, per host, the dense id of its *site* under one
//!   list version (hosts are same-site iff ids are equal — the site is a
//!   suffix of the host, so the interned reversed-label prefix is a
//!   perfect key) and whether a `Domain=parent(host)` Set-Cookie is
//!   refused at set time (the jar's `evaluate_set_cookie` verdict);
//! - the population's parent domains are dense ids too, so RFC 6265
//!   domain-matching a parent-scoped cookie against a target host is one
//!   integer compare (corpus hosts never nest below a sibling's parent).
//!
//! A session is replayed by [`SessionEngine::begin`], one call per event
//! ([`SessionEngine::visit`], [`SessionEngine::load`], …) and
//! [`SessionEngine::finish`]; `psl_analysis::execute_session` drives
//! them. Each event runs *simultaneously* under a version `V` and the
//! reference (latest) version `R`, and its paired outcome folds directly
//! into a [`SessionHarm`] summarizer — the harms are precisely the V-vs-R
//! behaviour divergences: cookies attached under `V` that `R` would have
//! refused or isolated, same-site judgements that flip, credentials
//! offered to the wrong site, storage partitions that merge. All scratch
//! (jar slab, page log, victim list) lives in the engine and is reset *by
//! capacity-keeping truncation* at session start, so a warmed engine
//! allocates nothing per session.

use serde::Serialize;

/// Per-host, per-version facts the fleet engine consumes. Index = dense
/// host id within the population.
#[derive(Debug, Clone)]
pub struct ListView {
    /// Dense site id of each host under this version: hosts share an id
    /// iff the list puts them in the same site.
    pub site_id: Vec<u32>,
    /// True when a `Domain=parent(host)` Set-Cookie from this host is
    /// refused at set time under this version (the parent is a public
    /// suffix — the supercookie check).
    pub scope_refused: Vec<bool>,
}

impl ListView {
    /// Number of hosts covered.
    pub fn host_count(&self) -> usize {
        self.site_id.len()
    }
}

/// The paired-execution harm summary of one session (or, summed, of any
/// set of sessions): every counter is "what version `V` did that the
/// reference `R` would not" (or vice versa where noted).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct SessionHarm {
    /// Events executed (visits, set-cookies, loads, credential saves).
    pub events: u64,
    /// Set-Cookie outcomes that differ between `V` and `R` (accepted by
    /// exactly one of the two).
    pub cookie_set_flips: u64,
    /// Cookie attachments that happened under `V` but not under `R`: the
    /// leaked-cookie count (refused-at-set or isolated-by-site under the
    /// reference list).
    pub leaked_cookies: u64,
    /// Subresource loads whose same-site judgement differs.
    pub same_site_flips: u64,
    /// Saved credentials offered on a visit under `V` but not under `R`
    /// — the wrong-autofill count.
    pub wrong_autofill: u64,
    /// Storage partitions merged by `V`: summed over sessions, the drop
    /// in distinct top-level partition count vs. the reference.
    pub merged_partitions: u64,
    /// Storage partitions split by `V` (the early-era exception-rule
    /// direction: `V` separates hosts the reference groups).
    pub split_partitions: u64,
}

impl SessionHarm {
    /// Accumulate another summary into this one (plain field sums —
    /// associative, commutative, identity = `Default`).
    pub fn absorb(&mut self, other: &SessionHarm) {
        self.events += other.events;
        self.cookie_set_flips += other.cookie_set_flips;
        self.leaked_cookies += other.leaked_cookies;
        self.same_site_flips += other.same_site_flips;
        self.wrong_autofill += other.wrong_autofill;
        self.merged_partitions += other.merged_partitions;
        self.split_partitions += other.split_partitions;
    }

    /// True when no divergence-class harm was recorded (events may be
    /// nonzero).
    pub fn is_harmless(&self) -> bool {
        self.cookie_set_flips == 0
            && self.leaked_cookies == 0
            && self.same_site_flips == 0
            && self.wrong_autofill == 0
            && self.merged_partitions == 0
            && self.split_partitions == 0
    }
}

/// A parent-scoped cookie in the fleet jar slab, scoped to the setter's
/// parent domain, with its set-time verdict under `V` and under `R`.
#[derive(Debug, Clone, Copy)]
struct FleetCookie {
    /// Parent-domain id the cookie is scoped to.
    scope: u32,
    /// Host that set it (the victim if it leaks).
    setter: u32,
    /// Accepted under version `V`.
    ok_v: bool,
    /// Accepted under the reference `R`.
    ok_r: bool,
}

/// One top-level page visit (current sites under both versions).
#[derive(Debug, Clone, Copy)]
struct PageVisit {
    host: u32,
    site_v: u32,
    site_r: u32,
}

/// One browser fleet worker: executes scripted sessions against pairs of
/// [`ListView`]s with reusable scratch. Create one per thread; call
/// [`SessionEngine::begin`] per (session, version) execution.
///
/// The engine does not branch on what its comparisons find. Every flip,
/// leak and wrong autofill is a 0/1 flag added to its counter, every
/// parent cookie enters the jar with both verdicts (one refused under
/// both never attaches), and every harm writes its host into the victim
/// candidates, kept by bumping their count with the flag.
/// [`SessionEngine::finish`] drops the repeated candidates.
#[derive(Debug)]
pub struct SessionEngine<'p> {
    /// Parent-domain id per host (population-wide, version-free): hosts
    /// share an id iff they share a parent domain.
    parents: &'p [u32],
    jar: Vec<FleetCookie>,
    pages: Vec<PageVisit>,
    /// Hosts on which a credential was saved this session.
    creds: Vec<u32>,
    /// `victims[..harmed]`: the host of every harm this session (cookie
    /// setters whose cookies leaked, supercookie targets, autofill
    /// victims, misjudged pages), in order; from `finish` on, each once,
    /// in order of first harm. The slots past `harmed` are room for the
    /// next candidates.
    victims: Vec<u32>,
    harmed: usize,
    harm: SessionHarm,
    current: Option<PageVisit>,
}

impl<'p> SessionEngine<'p> {
    /// An engine over a population whose host `h` has parent-domain id
    /// `parents[h]`.
    pub fn new(parents: &'p [u32]) -> Self {
        SessionEngine {
            parents,
            jar: Vec::new(),
            pages: Vec::new(),
            creds: Vec::new(),
            victims: Vec::new(),
            harmed: 0,
            harm: SessionHarm::default(),
            current: None,
        }
    }

    /// Start a session: truncate all scratch, keeping capacity.
    pub fn begin(&mut self) {
        self.jar.clear();
        self.pages.clear();
        self.creds.clear();
        self.harmed = 0;
        self.harm = SessionHarm::default();
        self.current = None;
    }

    /// Make room for `n` more victim candidates.
    fn room(&mut self, n: usize) {
        if self.victims.len() < self.harmed + n {
            self.victims.resize(self.harmed + n, 0);
        }
    }

    /// Navigate to a top-level page. Autofill for previously saved
    /// credentials is judged here: offered iff same-site with the saving
    /// host.
    pub fn visit(&mut self, page: u32, v: &ListView, r: &ListView) {
        self.harm.events += 1;
        let pv = PageVisit {
            host: page,
            site_v: v.site_id[page as usize],
            site_r: r.site_id[page as usize],
        };
        self.room(self.creds.len());
        for &saved in &self.creds {
            let offered_v = v.site_id[saved as usize] == pv.site_v;
            let offered_r = r.site_id[saved as usize] == pv.site_r;
            let wrong = offered_v & !offered_r;
            self.harm.wrong_autofill += u64::from(wrong);
            self.victims[self.harmed] = saved;
            self.harmed += usize::from(wrong);
        }
        self.pages.push(pv);
        self.current = Some(pv);
    }

    /// The current page's server sets a session cookie scoped to the
    /// page host's parent domain (the realistic `Domain=` usage whose
    /// validity is exactly the PSL check). No-op before the first visit.
    pub fn set_parent_cookie(&mut self, v: &ListView, r: &ListView) {
        let Some(cur) = self.current else { return };
        self.harm.events += 1;
        let h = cur.host as usize;
        let ok_v = !v.scope_refused[h];
        let ok_r = !r.scope_refused[h];
        self.harm.cookie_set_flips += u64::from(ok_v != ok_r);
        // Accepted under the stale version only: a supercookie.
        self.room(1);
        self.victims[self.harmed] = cur.host;
        self.harmed += usize::from(ok_v & !ok_r);
        self.jar.push(FleetCookie { scope: self.parents[h], setter: cur.host, ok_v, ok_r });
    }

    /// Save a credential for the current page (password manager). No-op
    /// before the first visit.
    pub fn save_credential(&mut self) {
        let Some(cur) = self.current else { return };
        self.harm.events += 1;
        self.creds.push(cur.host);
    }

    /// Load a subresource from `target` in the top-level frame of the
    /// current page. No-op before the first visit.
    pub fn load(&mut self, target: u32, v: &ListView, r: &ListView) {
        let Some(cur) = self.current else { return };
        let same_v = v.site_id[target as usize] == cur.site_v;
        let same_r = r.site_id[target as usize] == cur.site_r;
        self.load_inner(target, same_v, same_r, cur);
    }

    /// Load a subresource from `target` inside an iframe owned by
    /// `frame` on the current page: the request is same-site only if
    /// *every* ancestor (page and frame) is same-site with the target —
    /// one cross-site ancestor poisons the chain. No-op before the first
    /// visit.
    pub fn framed_load(&mut self, frame: u32, target: u32, v: &ListView, r: &ListView) {
        let Some(cur) = self.current else { return };
        let t = target as usize;
        let f = frame as usize;
        let same_v = (v.site_id[t] == cur.site_v) & (v.site_id[t] == v.site_id[f]);
        let same_r = (r.site_id[t] == cur.site_r) & (r.site_id[t] == r.site_id[f]);
        self.load_inner(target, same_v, same_r, cur);
    }

    fn load_inner(&mut self, target: u32, same_v: bool, same_r: bool, cur: PageVisit) {
        self.harm.events += 1;
        self.room(self.jar.len() + 1);
        let flip = same_v != same_r;
        self.harm.same_site_flips += u64::from(flip);
        self.victims[self.harmed] = cur.host;
        self.harmed += usize::from(flip);
        // Cookie attachment (conservative SameSite=Lax model, like
        // `Browser`): domain-matching cookies attach only in same-site
        // contexts. Domain match = target is inside the cookie's scope,
        // i.e. shares the parent the cookie was scoped to. A cookie leaks
        // when it attaches under `V` and not under `R`.
        let tscope = self.parents[target as usize];
        for c in &self.jar {
            let leak = (c.scope == tscope) & same_v & c.ok_v & !(same_r & c.ok_r);
            self.harm.leaked_cookies += u64::from(leak);
            self.victims[self.harmed] = c.setter;
            self.harmed += usize::from(leak);
        }
    }

    /// Finish the session: derive the storage-partition divergence from
    /// the pages visited (every page's top-level site keys a partition;
    /// `V` merging distinct reference partitions restores cross-site
    /// linkage for any embedded third party), and drop the repeated
    /// victim candidates, keeping each host's first. Returns the summary;
    /// the harmed hosts are in [`SessionEngine::victims`].
    pub fn finish(&mut self) -> SessionHarm {
        let distinct_v = distinct_count(self.pages.iter().map(|p| p.site_v));
        let distinct_r = distinct_count(self.pages.iter().map(|p| p.site_r));
        self.harm.merged_partitions += (distinct_r.saturating_sub(distinct_v)) as u64;
        self.harm.split_partitions += (distinct_v.saturating_sub(distinct_r)) as u64;
        let mut kept = 0;
        for i in 0..self.harmed {
            let host = self.victims[i];
            let first = !self.victims[..kept].contains(&host);
            self.victims[kept] = host;
            kept += usize::from(first);
        }
        self.harmed = kept;
        self.harm
    }

    /// The harm summary accumulated so far this session.
    pub fn harm(&self) -> &SessionHarm {
        &self.harm
    }

    /// Hosts harmed this session, once per harm until
    /// [`SessionEngine::finish`], and from then on each once however often
    /// it was harmed (the harm counters count every harm), in order of
    /// first harm. A session harms a handful of hosts, so a caller inserts
    /// each into its victim set once per replay.
    pub fn victims(&self) -> &[u32] {
        &self.victims[..self.harmed]
    }
}

/// Count distinct values in a tiny stream (sessions visit a handful of
/// pages; quadratic beats hashing and allocates nothing).
fn distinct_count(iter: impl Iterator<Item = u32> + Clone) -> usize {
    let mut n = 0usize;
    for (i, x) in iter.clone().enumerate() {
        if !iter.clone().take(i).any(|y| y == x) {
            n += 1;
        }
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    // Hand-built population: the github.io platform scenario.
    //   host 0: alice.github.io   parent github.io (id 0)
    //   host 1: bob.github.io     parent github.io (id 0)
    //   host 2: www.example.com   parent example.com (id 1)
    //   host 3: tracker.ads.net   parent ads.net (id 2)
    const PARENTS: [u32; 4] = [0, 0, 1, 2];

    /// Current list (github.io is a public suffix): every customer its
    /// own site; parent-scoped platform cookies refused for customers.
    fn current() -> ListView {
        ListView { site_id: vec![0, 1, 2, 3], scope_refused: vec![true, true, false, false] }
    }

    /// Stale list: all github.io customers share one site and the
    /// platform-wide cookie is accepted.
    fn stale() -> ListView {
        ListView { site_id: vec![0, 0, 2, 3], scope_refused: vec![false, false, false, false] }
    }

    #[test]
    fn paired_replay_counts_the_three_leaks() {
        let v = stale();
        let r = current();
        let mut e = SessionEngine::new(&PARENTS);
        e.begin();
        // Visit alice, set the platform cookie, save a credential, then
        // visit bob and load alice's asset from bob's page.
        e.visit(0, &v, &r);
        e.set_parent_cookie(&v, &r);
        e.save_credential();
        e.visit(1, &v, &r);
        e.load(0, &v, &r);
        let harm = e.finish();

        assert_eq!(harm.cookie_set_flips, 1, "platform cookie accepted only under stale");
        assert_eq!(harm.leaked_cookies, 1, "cookie attached cross-customer under stale");
        assert_eq!(harm.same_site_flips, 1, "bob->alice judged same-site under stale");
        assert_eq!(harm.wrong_autofill, 1, "alice's credential offered on bob's page");
        assert_eq!(harm.merged_partitions, 1, "two reference partitions collapse into one");
        assert_eq!(harm.split_partitions, 0);
        assert!(e.victims().contains(&0), "alice is the victim");
    }

    #[test]
    fn identical_views_are_harmless() {
        let r = current();
        let mut e = SessionEngine::new(&PARENTS);
        e.begin();
        e.visit(0, &r, &r);
        e.set_parent_cookie(&r, &r);
        e.save_credential();
        e.visit(1, &r, &r);
        e.load(0, &r, &r);
        e.load(3, &r, &r);
        let harm = e.finish();
        assert!(harm.is_harmless(), "{harm:?}");
        assert!(harm.events > 0);
        assert!(e.victims().is_empty());
    }

    #[test]
    fn a_cookie_attached_under_both_versions_does_not_leak() {
        let v = stale();
        let r = current();
        let mut e = SessionEngine::new(&PARENTS);
        e.begin();
        // example.com's cookie is accepted under both lists, and its own
        // page's load attaches it under both.
        e.visit(2, &v, &r);
        e.set_parent_cookie(&v, &r);
        e.load(2, &v, &r);
        let harm = e.finish();
        assert!(harm.is_harmless(), "{harm:?}");
        assert_eq!(harm.events, 3);
        assert!(e.victims().is_empty());
    }

    #[test]
    fn victims_list_each_harmed_host_once() {
        let v = stale();
        let r = current();
        let mut e = SessionEngine::new(&PARENTS);
        e.begin();
        // Alice sets the platform cookie, then bob's page loads alice's
        // asset twice: both loads flip and both attach alice's cookie.
        e.visit(0, &v, &r);
        e.set_parent_cookie(&v, &r);
        e.visit(1, &v, &r);
        e.load(0, &v, &r);
        e.load(0, &v, &r);
        let harm = e.finish();
        assert_eq!(harm.leaked_cookies, 2, "one setter's cookie leaks on two loads");
        assert_eq!(harm.same_site_flips, 2, "two loads on one page flip");
        assert_eq!(e.victims(), &[0, 1], "alice (the setter) and bob (the page), once each");
    }

    #[test]
    fn framed_load_poisons_on_cross_site_ancestor() {
        let v = stale();
        let r = current();
        let mut e = SessionEngine::new(&PARENTS);
        e.begin();
        e.visit(0, &v, &r);
        e.set_parent_cookie(&v, &r);
        // bob's widget inside a *tracker* iframe: the tracker ancestor is
        // cross-site under both versions, so nothing attaches and the
        // judgement does not flip.
        e.framed_load(3, 1, &v, &r);
        let harm = *e.harm();
        assert_eq!(harm.same_site_flips, 0);
        assert_eq!(harm.leaked_cookies, 0);
        // The same load in the top-level frame leaks under stale.
        e.load(1, &v, &r);
        assert_eq!(e.harm().leaked_cookies, 1);
        assert_eq!(e.harm().same_site_flips, 1);
    }

    #[test]
    fn framed_load_flips_when_only_the_frame_moves() {
        // Alice's page and asset keep their site in both views; only the
        // frame owner, bob, moves (same site as alice under stale, its own
        // site under current).
        let v = stale();
        let r = current();
        assert_eq!(v.site_id[0], r.site_id[0]);
        assert_ne!(v.site_id[1], r.site_id[1]);
        let mut e = SessionEngine::new(&PARENTS);
        e.begin();
        e.visit(0, &v, &r);
        e.load(0, &v, &r);
        assert_eq!(e.harm().same_site_flips, 0, "no moved host, no flip");
        e.framed_load(1, 0, &v, &r);
        assert_eq!(e.harm().same_site_flips, 1, "the frame's move alone flips the judgement");
        assert_eq!(e.victims(), &[0]);
    }

    #[test]
    fn split_partitions_count_the_other_direction() {
        // Early-era exception case inverted: V separates hosts 0 and 1,
        // the reference groups them.
        let v = current();
        let r = stale();
        let mut e = SessionEngine::new(&PARENTS);
        e.begin();
        e.visit(0, &v, &r);
        e.visit(1, &v, &r);
        let harm = e.finish();
        assert_eq!(harm.split_partitions, 1);
        assert_eq!(harm.merged_partitions, 0);
    }

    #[test]
    fn begin_resets_without_leaking_state() {
        let v = stale();
        let r = current();
        let mut e = SessionEngine::new(&PARENTS);
        for _ in 0..3 {
            e.begin();
            e.visit(0, &v, &r);
            e.set_parent_cookie(&v, &r);
            e.visit(1, &v, &r);
            e.load(0, &v, &r);
            let harm = e.finish();
            // Identical every iteration: no state crosses sessions.
            assert_eq!(harm.leaked_cookies, 1);
            assert_eq!(harm.cookie_set_flips, 1);
            assert_eq!(harm.merged_partitions, 1);
        }
    }

    #[test]
    fn events_before_first_visit_are_ignored() {
        let v = stale();
        let r = current();
        let mut e = SessionEngine::new(&PARENTS);
        e.begin();
        e.set_parent_cookie(&v, &r);
        e.save_credential();
        e.load(1, &v, &r);
        let harm = e.finish();
        assert_eq!(harm.events, 0);
        assert!(harm.is_harmless());
    }

    #[test]
    fn harm_absorb_is_field_sums() {
        let a = SessionHarm {
            events: 1,
            cookie_set_flips: 2,
            leaked_cookies: 3,
            same_site_flips: 4,
            wrong_autofill: 5,
            merged_partitions: 6,
            split_partitions: 7,
        };
        let mut s = SessionHarm::default();
        s.absorb(&a);
        s.absorb(&a);
        assert_eq!(s.leaked_cookies, 6);
        assert_eq!(s.split_partitions, 14);
        assert_eq!(s.events, 2);
    }

    #[test]
    fn distinct_count_small_streams() {
        assert_eq!(distinct_count([].iter().copied()), 0);
        assert_eq!(distinct_count([5, 5, 5].iter().copied()), 1);
        assert_eq!(distinct_count([1, 2, 1, 3, 2].iter().copied()), 3);
    }
}
