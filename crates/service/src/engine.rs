//! The query engine: protocol semantics without any I/O.
//!
//! [`Engine`] owns the shared state (snapshot store, history and its
//! versioned arena, metrics); each worker thread owns a [`WorkerState`]
//! (snapshot reader, LRU lookup cache, batch state). [`Engine::handle_line`]
//! maps one input line to one or more output lines — the TCP server, the
//! tests, and the deterministic golden harness all drive this same
//! function, so protocol behaviour is pinned in exactly one place.
//!
//! Time is injected as a microsecond clock closure so the golden harness
//! can freeze it; the server uses a monotonic [`std::time::Instant`].

use crate::cache::LruCache;
use crate::lookup;
use crate::metrics::{CommandKind, Metrics, SnapshotInfo, StatsReport};
use crate::protocol::{parse_command, Command, Limits, ProtoError};
use crate::served::{ServedList, ServedStore};
use psl_core::{Date, DomainName, List, MatchOpts, SnapshotReader, VersionedList};
use psl_history::History;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

/// Microsecond clock used for latency and age measurements.
pub type ClockFn = Arc<dyn Fn() -> u64 + Send + Sync>;

/// A monotonic wall clock anchored at its creation.
pub fn monotonic_clock() -> ClockFn {
    let start = std::time::Instant::now();
    Arc::new(move || start.elapsed().as_micros() as u64)
}

/// A frozen clock (every reading is 0) for deterministic tests/goldens.
pub fn frozen_clock() -> ClockFn {
    Arc::new(|| 0)
}

/// Engine tuning knobs. `ASOF` has none: it reads the history's one
/// versioned arena, built with the engine, and caches nothing.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Matching options applied to every lookup.
    pub opts: MatchOpts,
    /// Protocol limits.
    pub limits: Limits,
    /// Worker count (sizes the latency shards; the server spawns this many
    /// threads).
    pub workers: usize,
    /// Per-worker LRU lookup-cache capacity (0 disables caching).
    pub cache_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            opts: MatchOpts::default(),
            limits: Limits::default(),
            workers: 4,
            cache_capacity: 8192,
        }
    }
}

/// What the connection loop should do after a handled line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Control {
    /// Keep reading from this connection.
    Continue,
    /// Close this connection.
    Quit,
    /// Stop the whole server.
    Shutdown,
}

/// Per-connection protocol state. Split out of [`WorkerState`] because a
/// reactor worker multiplexes many connections over one worker state: the
/// snapshot reader and LRU cache are shareable across connections, but
/// `BATCH` progress belongs to exactly one connection.
#[derive(Debug, Default)]
pub struct ConnState {
    pending_batch: usize,
}

impl ConnState {
    /// Hosts still expected for an in-progress `BATCH`.
    pub fn pending_batch(&self) -> usize {
        self.pending_batch
    }
}

/// Per-worker connection-independent state. The lookup cache is keyed by
/// the host's interned label-id slice under the current snapshot (see
/// [`Engine::handle_line`]'s suffix path): ids are computed once and serve
/// as both the cache key and the compiled matcher's zero-allocation input.
#[derive(Debug)]
pub struct WorkerState {
    id: usize,
    reader: SnapshotReader<ServedList>,
    cache: LruCache<Box<[u32]>, u32>,
    cache_epoch: u64,
    ids_scratch: Vec<u32>,
    /// Embedded connection state for single-connection drivers
    /// ([`Engine::handle_line`]); the reactor keeps one [`ConnState`] per
    /// connection instead and calls [`Engine::handle_conn_line`].
    conn: ConnState,
}

impl WorkerState {
    /// Hosts still expected for an in-progress `BATCH` on the embedded
    /// connection state.
    pub fn pending_batch(&self) -> usize {
        self.conn.pending_batch
    }
}

/// One snapshot publication remembered by the bounded publish log (the
/// `GET /versions` timeline).
#[derive(Debug, Clone)]
struct PublishEvent {
    epoch: u64,
    label: String,
    version: Option<String>,
    rules: usize,
    at_us: u64,
}

/// How many publish events the timeline retains.
const PUBLISH_LOG_CAP: usize = 64;

/// The shared query engine.
pub struct Engine {
    store: Arc<ServedStore>,
    /// The dated history and every version of it in one arena, which
    /// answers `ASOF` in place.
    history: Option<(Arc<History>, VersionedList)>,
    publish_log: Mutex<VecDeque<PublishEvent>>,
    metrics: Metrics,
    config: EngineConfig,
    clock: ClockFn,
}

impl Engine {
    /// Build an engine over a snapshot store, optionally backed by a dated
    /// history (enables `ASOF` and `RELOAD <date>`), whose versioned arena
    /// is built here.
    pub fn new(
        store: Arc<ServedStore>,
        history: Option<Arc<History>>,
        config: EngineConfig,
        clock: ClockFn,
    ) -> Arc<Self> {
        let now = clock();
        let initial = {
            let snap = store.load();
            PublishEvent {
                epoch: snap.epoch,
                label: snap.label.clone(),
                version: snap.version.map(|v| v.to_string()),
                rules: snap.list.rules(),
                at_us: now,
            }
        };
        Arc::new(Engine {
            store,
            history: history.map(|h| {
                let arena = h.versioned_list();
                (h, arena)
            }),
            publish_log: Mutex::new(VecDeque::from([initial])),
            metrics: Metrics::new(config.workers, now),
            config,
            clock,
        })
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The snapshot store (for observing epochs in tests).
    pub fn store(&self) -> &Arc<ServedStore> {
        &self.store
    }

    /// The metrics registry.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Fresh per-worker state. `id` selects the latency shard.
    pub fn worker_state(&self, id: usize) -> WorkerState {
        let reader = self.store.reader();
        let epoch = reader.held_epoch();
        WorkerState {
            id,
            reader,
            cache: LruCache::new(self.config.cache_capacity),
            cache_epoch: epoch,
            ids_scratch: Vec::new(),
            conn: ConnState::default(),
        }
    }

    /// Count one accepted connection.
    pub fn note_connection(&self) {
        self.metrics.record_connection();
    }

    /// Handle one input line, appending response line(s) (each
    /// `\n`-terminated) to `out`, using the worker's embedded connection
    /// state. Single-connection drivers (tests, the golden harness, the
    /// fuzz differential target) use this; the reactor calls
    /// [`Engine::handle_conn_line`] with one [`ConnState`] per connection.
    pub fn handle_line(&self, ws: &mut WorkerState, line: &str, out: &mut String) -> Control {
        let mut conn = std::mem::take(&mut ws.conn);
        let control = self.handle_conn_line(ws, &mut conn, line, out);
        ws.conn = conn;
        control
    }

    /// Handle one input line for the connection whose protocol state is
    /// `conn`, appending response line(s) (each `\n`-terminated) to `out`.
    pub fn handle_conn_line(
        &self,
        ws: &mut WorkerState,
        conn: &mut ConnState,
        line: &str,
        out: &mut String,
    ) -> Control {
        if conn.pending_batch > 0 {
            conn.pending_batch -= 1;
            self.metrics.record_batch_host();
            let host = line.strip_suffix('\r').unwrap_or(line).trim();
            if host.len() > self.config.limits.max_line_bytes {
                self.err(out, &ProtoError { code: "limit", message: "batch host too long".into() });
                return Control::Continue;
            }
            match self.site_cached(ws, host) {
                Ok(site) => ok(out, &site),
                Err(e) => self.err(out, &e),
            }
            return Control::Continue;
        }

        let start = (self.clock)();
        let command = match parse_command(line, &self.config.limits) {
            Ok(c) => c,
            Err(e) => {
                self.err(out, &e);
                return Control::Continue;
            }
        };
        let (kind, control) = match command {
            Command::Suffix(host) => {
                match self.resolve_cached(ws, &host) {
                    Ok(r) => ok(out, r.suffix.as_deref().unwrap_or("-")),
                    Err(e) => self.err(out, &e),
                }
                (CommandKind::Suffix, Control::Continue)
            }
            Command::Site(host) => {
                match self.site_cached(ws, &host) {
                    Ok(site) => ok(out, &site),
                    Err(e) => self.err(out, &e),
                }
                (CommandKind::Site, Control::Continue)
            }
            Command::Asof(date, host) => {
                match self.asof(&date, &host) {
                    Ok(line) => ok(out, &line),
                    Err(e) => self.err(out, &e),
                }
                (CommandKind::Asof, Control::Continue)
            }
            Command::Batch(n) => {
                conn.pending_batch = n;
                (CommandKind::Batch, Control::Continue)
            }
            Command::Reload(target) => {
                match self.reload(&target) {
                    Ok(line) => ok(out, &line),
                    Err(e) => self.err(out, &e),
                }
                (CommandKind::Reload, Control::Continue)
            }
            Command::Stats => {
                let report = self.stats_report();
                let json = serde_json::to_string(&report)
                    .unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"));
                ok(out, &json);
                (CommandKind::Stats, Control::Continue)
            }
            Command::Ping => {
                ok(out, "pong");
                (CommandKind::Ping, Control::Continue)
            }
            Command::Quit => {
                ok(out, "bye");
                return Control::Quit;
            }
            Command::Shutdown => {
                ok(out, "shutting-down");
                return Control::Shutdown;
            }
        };
        self.metrics.record(ws.id, kind, (self.clock)().saturating_sub(start));
        control
    }

    /// The current `STATS` report.
    pub fn stats_report(&self) -> StatsReport {
        let now = (self.clock)();
        let snap = self.store.load();
        let info = SnapshotInfo {
            epoch: snap.epoch,
            label: snap.label.clone(),
            version: snap.version.map(|v| v.to_string()),
            rules: snap.list.rules(),
            age_seconds: self.metrics.snapshot_age_seconds(now),
        };
        self.metrics.report(now, info)
    }

    /// Publish an externally built list (file-watch reloads).
    pub fn publish_list(&self, label: impl Into<String>, version: Option<Date>, list: List) -> u64 {
        self.publish_served(label, version, ServedList::Owned(list))
    }

    /// Publish any served payload — owned or mmap-backed (`--mmap`
    /// file-watch reloads map the new snapshot instead of copying it).
    pub fn publish_served(
        &self,
        label: impl Into<String>,
        version: Option<Date>,
        served: ServedList,
    ) -> u64 {
        let label = label.into();
        let rules = served.rules();
        let epoch = self.store.publish(label.clone(), version, served);
        let now = (self.clock)();
        self.metrics.record_publish(now);
        let mut log = self.publish_log.lock().expect("publish log poisoned");
        log.push_back(PublishEvent {
            epoch,
            label,
            version: version.map(|v| v.to_string()),
            rules,
            at_us: now,
        });
        while log.len() > PUBLISH_LOG_CAP {
            log.pop_front();
        }
        epoch
    }

    /// The `GET /health` body: liveness plus served-snapshot identity.
    pub fn health_report(&self) -> serde_json::Value {
        let now = (self.clock)();
        let snap = self.store.load();
        serde_json::json!({
            "status": "ok",
            "epoch": snap.epoch,
            "rules": snap.list.rules(),
            "uptime_seconds": self.metrics.uptime_seconds(now),
            "snapshot_age_seconds": self.metrics.snapshot_age_seconds(now),
        })
    }

    /// The `GET /versions` body: the currently served snapshot, whether a
    /// dated history backs it, and the bounded publish timeline.
    pub fn versions_report(&self) -> serde_json::Value {
        let now = (self.clock)();
        let snap = self.store.load();
        let log = self.publish_log.lock().expect("publish log poisoned");
        let events: Vec<serde_json::Value> = log
            .iter()
            .map(|e| {
                serde_json::json!({
                    "epoch": e.epoch,
                    "label": e.label,
                    "version": e.version,
                    "rules": e.rules,
                    "age_seconds": now.saturating_sub(e.at_us) as f64 / 1e6,
                })
            })
            .collect();
        serde_json::json!({
            "current": serde_json::json!({
                "epoch": snap.epoch,
                "label": snap.label,
                "version": snap.version.map(|v| v.to_string()),
                "rules": snap.list.rules(),
            }),
            "history_versions": self.history.as_ref().map(|(h, _)| h.versions().len()),
            "events": events,
        })
    }

    /// The `GET /cache` body: per-worker LRU effectiveness and occupancy.
    pub fn cache_report(&self) -> serde_json::Value {
        serde_json::json!({
            "capacity_per_worker": self.config.cache_capacity,
            "epoch": self.store.epoch(),
            "workers": self.metrics.cache_worker_stats(),
        })
    }

    /// `POST /reload` semantics: publish the snapshot for `target`
    /// (`latest` or a date) and describe the result as JSON.
    pub fn reload_target(&self, target: &str) -> Result<serde_json::Value, ProtoError> {
        let (epoch, label, rules) = self.reload_inner(target)?;
        Ok(serde_json::json!({ "epoch": epoch, "version": label, "rules": rules }))
    }

    // ---- command implementations -----------------------------------------

    fn parse_host(&self, raw: &str) -> Result<DomainName, ProtoError> {
        DomainName::parse(raw)
            .map_err(|e| ProtoError { code: "host", message: format!("{raw:?}: {e}") })
    }

    /// Cached suffix-code lookup under the current snapshot, for a host
    /// already in canonical dotted form.
    ///
    /// The host's labels are mapped once to the snapshot list's interned
    /// ids (unknown labels share a sentinel that matches no rule, so the
    /// suffix code is a pure function of the id sequence). The id slice is
    /// probed against the LRU without allocating; only a miss pays for the
    /// boxed key, and the compiled-arena walk it keys is allocation-free.
    fn code_for_canonical(&self, ws: &mut WorkerState, host: &str) -> u32 {
        // Take the scratch buffer out of `ws` so the snapshot reference can
        // coexist with cache borrows (field borrows stay disjoint, and no
        // per-lookup `Arc` refcount traffic).
        let mut ids = std::mem::take(&mut ws.ids_scratch);
        let snap = ws.reader.current();
        if snap.epoch != ws.cache_epoch {
            ws.cache.clear();
            ws.cache_epoch = snap.epoch;
            self.metrics.set_cache_entries(ws.id, 0);
        }
        snap.list.reversed_ids_str(host, &mut ids);
        let code = match ws.cache.get(ids.as_slice()) {
            Some(code) => {
                self.metrics.record_cache(ws.id, 1, 0);
                code
            }
            None => {
                self.metrics.record_cache(ws.id, 0, 1);
                let code = snap.list.suffix_code_ids(&ids, self.config.opts);
                ws.cache.insert(ids.as_slice().into(), code);
                self.metrics.set_cache_entries(ws.id, ws.cache.len() as u64);
                code
            }
        };
        ws.ids_scratch = ids;
        code
    }

    fn resolve_cached(
        &self,
        ws: &mut WorkerState,
        raw: &str,
    ) -> Result<lookup::Resolved, ProtoError> {
        // Fast path (the DESIGN.md §11 regression repair): a host already
        // in canonical form skips `DomainName::parse` — no canonical-string
        // allocation, and its labels are interned exactly once, the id
        // slice serving as both the LRU key and the compiled matcher's
        // input. Anything the recogniser is unsure about falls back to the
        // real parser, whose canonical output re-enters the same cache
        // keyed identically (ids are a function of canonical text).
        if is_canonical_host(raw) {
            let code = self.code_for_canonical(ws, raw);
            return Ok(lookup::decode_str(raw, code));
        }
        let host = self.parse_host(raw)?;
        let code = self.code_for_canonical(ws, host.as_str());
        Ok(lookup::decode(&host, code))
    }

    fn site_cached(&self, ws: &mut WorkerState, raw: &str) -> Result<String, ProtoError> {
        Ok(self.resolve_cached(ws, raw)?.site)
    }

    fn history(&self) -> Result<&(Arc<History>, VersionedList), ProtoError> {
        self.history
            .as_ref()
            .ok_or(ProtoError { code: "state", message: "no version history loaded".into() })
    }

    /// The site of `raw_host` under the version in force at `date`, read
    /// off the versioned arena by the same walk as `SITE`: no list is
    /// built, and the per-worker LRU is not touched.
    fn asof(&self, date: &str, raw_host: &str) -> Result<String, ProtoError> {
        let (history, arena) = self.history()?;
        let date = Date::parse(date)
            .map_err(|e| ProtoError { code: "date", message: format!("{date:?}: {e}") })?;
        let versions = history.versions();
        let Some(index) = versions.partition_point(|&v| v <= date).checked_sub(1) else {
            return Err(ProtoError {
                code: "date",
                message: format!("{date} predates the first list version"),
            });
        };
        let host = self.parse_host(raw_host)?;
        let disposition = arena.at(index).disposition(&host.labels_reversed(), self.config.opts);
        let code = disposition.map_or(lookup::NO_MATCH, |d| d.suffix_len as u32);
        Ok(format!("{} version={}", lookup::decode(&host, code).site, versions[index]))
    }

    fn reload(&self, target: &str) -> Result<String, ProtoError> {
        let (epoch, label, rules) = self.reload_inner(target)?;
        Ok(format!("epoch={epoch} version={label} rules={rules}"))
    }

    fn reload_inner(&self, target: &str) -> Result<(u64, String, usize), ProtoError> {
        let (history, _) = self.history()?;
        let version = if target.eq_ignore_ascii_case("latest") {
            history.latest_version()
        } else {
            let date = Date::parse(target)
                .map_err(|e| ProtoError { code: "date", message: format!("{target:?}: {e}") })?;
            history.version_at_or_before(date).ok_or(ProtoError {
                code: "date",
                message: format!("{date} predates the first list version"),
            })?
        };
        // Build the new trie off the read path; readers keep answering on
        // the old epoch until the single Arc swap below.
        let list = history.snapshot_at(version);
        let rules = list.len();
        let epoch = self.publish_list(format!("history:{version}"), Some(version), list);
        Ok((epoch, format!("history:{version}"), rules))
    }

    fn err(&self, out: &mut String, e: &ProtoError) {
        self.metrics.record_error();
        out.push_str(&e.to_line());
        out.push('\n');
    }
}

fn ok(out: &mut String, body: &str) {
    out.push_str("OK ");
    out.push_str(body);
    out.push('\n');
}

/// Conservative recogniser for hosts already in [`DomainName`] canonical
/// form: lowercase ASCII `[a-z0-9_-]` labels, no edge hyphens, in-range
/// lengths. Anything it is unsure about — uppercase, Unicode, `xn--`
/// punycode (which needs round-trip validation), trailing dots, or
/// all-numeric names (candidate IPv4 literals) — returns `false` and takes
/// the full parser, which owns rejection semantics. A `true` here
/// guarantees `DomainName::parse(s)` would succeed and return `s`
/// unchanged, so the fast path and the parse path intern identical label
/// sequences and share cache entries.
fn is_canonical_host(s: &str) -> bool {
    if s.is_empty() || s.len() > 253 {
        return false;
    }
    let mut labels = 0usize;
    let mut all_numeric = true;
    for label in s.split('.') {
        if label.is_empty() || label.len() > 63 {
            return false;
        }
        let bytes = label.as_bytes();
        if bytes[0] == b'-' || bytes[bytes.len() - 1] == b'-' {
            return false;
        }
        if bytes.starts_with(b"xn--") {
            return false;
        }
        let mut numeric = true;
        for &b in bytes {
            match b {
                b'0'..=b'9' => {}
                b'a'..=b'z' | b'_' | b'-' => numeric = false,
                _ => return false,
            }
        }
        all_numeric &= numeric;
        labels += 1;
        if labels > 127 {
            return false;
        }
    }
    !all_numeric
}

#[cfg(test)]
mod tests {
    use super::*;
    use psl_history::GeneratorConfig;

    fn engine_with_history() -> (Arc<Engine>, Arc<History>) {
        let history = Arc::new(psl_history::generate(&GeneratorConfig::small(7)));
        let latest = history.latest_version();
        let store = crate::served::owned_store(
            format!("history:{latest}"),
            Some(latest),
            history.latest_snapshot(),
        );
        let engine = Engine::new(
            Arc::clone(&store),
            Some(Arc::clone(&history)),
            EngineConfig::default(),
            frozen_clock(),
        );
        (engine, history)
    }

    fn one(engine: &Engine, ws: &mut WorkerState, line: &str) -> String {
        let mut out = String::new();
        assert_eq!(engine.handle_line(ws, line, &mut out), Control::Continue);
        out
    }

    #[test]
    fn suffix_and_site_answer_like_the_list() {
        let (engine, history) = engine_with_history();
        let mut ws = engine.worker_state(0);
        let list = history.latest_snapshot();
        let opts = MatchOpts::default();
        let host = DomainName::parse("a.b.example.com").unwrap();
        let suffix = list.public_suffix(&host, opts).unwrap_or("-");
        let site = list.site(&host, opts);
        assert_eq!(one(&engine, &mut ws, "SUFFIX a.b.example.com"), format!("OK {suffix}\n"));
        assert_eq!(
            one(&engine, &mut ws, "SITE a.b.example.com"),
            format!("OK {}\n", site.as_str())
        );
    }

    #[test]
    fn cache_hits_on_repeat_and_clears_on_reload() {
        let (engine, _) = engine_with_history();
        let mut ws = engine.worker_state(0);
        one(&engine, &mut ws, "SITE www.example.com");
        one(&engine, &mut ws, "SITE www.example.com");
        let r = engine.stats_report();
        assert_eq!(r.cache.hits, 1);
        assert_eq!(r.cache.misses, 1);

        one(&engine, &mut ws, "RELOAD latest");
        one(&engine, &mut ws, "SITE www.example.com");
        let r = engine.stats_report();
        assert_eq!(r.cache.misses, 2, "reload must invalidate the worker cache");
    }

    #[test]
    fn batch_consumes_exactly_n_hosts() {
        let (engine, _) = engine_with_history();
        let mut ws = engine.worker_state(0);
        assert_eq!(one(&engine, &mut ws, "BATCH 2"), "");
        assert_eq!(ws.pending_batch(), 2);
        assert!(one(&engine, &mut ws, "a.example.com").starts_with("OK "));
        assert!(one(&engine, &mut ws, "!!bad host!!").starts_with("ERR host "));
        assert_eq!(ws.pending_batch(), 0);
        // The next line is a command again.
        assert_eq!(one(&engine, &mut ws, "PING"), "OK pong\n");
        // An empty batch consumes nothing.
        assert_eq!(one(&engine, &mut ws, "BATCH 0"), "");
        assert_eq!(one(&engine, &mut ws, "PING"), "OK pong\n");
    }

    /// `ASOF` at every version, and on a day before the next one, answers
    /// the site `snapshot_at` gives under the version in force, for an
    /// uppercase spelling, a Unicode name, labels no version holds, and a
    /// host under a rule the history added and later removed.
    #[test]
    fn asof_resolves_through_history() {
        let (engine, history) = engine_with_history();
        let mut ws = engine.worker_state(0);
        let versions = history.versions();
        let removed = history.spans().iter().find(|s| s.removed.is_some()).unwrap();
        let under_removed = format!("x.{}", removed.rule.labels().join("."));
        let hosts = ["deep.www.example.com", "Alice.GitHub.IO", "bücher.example.de", "x.y.zzq"];
        for (i, &v) in versions.iter().enumerate() {
            let list = history.snapshot_at(v);
            let day_before_next = versions
                .get(i + 1)
                .map(|next| Date::from_days_since_epoch(next.days_since_epoch() - 1));
            for raw in hosts.into_iter().chain([under_removed.as_str()]) {
                let site = list.site(&DomainName::parse(raw).unwrap(), MatchOpts::default());
                let want = format!("OK {} version={v}\n", site.as_str());
                assert_eq!(one(&engine, &mut ws, &format!("ASOF {v} {raw}")), want);
                if let Some(date) = day_before_next {
                    assert_eq!(one(&engine, &mut ws, &format!("ASOF {date} {raw}")), want);
                }
            }
        }
        assert_eq!(engine.stats_report().cache.misses, 0, "ASOF bypasses the lookup cache");
        // Before the first version: a date error.
        assert!(one(&engine, &mut ws, "ASOF 1999-01-01 a.com").starts_with("ERR date "));
        // Garbage date: a date error.
        assert!(one(&engine, &mut ws, "ASOF not-a-date a.com").starts_with("ERR date "));
    }

    #[test]
    fn reload_bumps_epoch_and_reports_rules() {
        let (engine, history) = engine_with_history();
        let mut ws = engine.worker_state(0);
        let first = history.first_version();
        let resp = one(&engine, &mut ws, &format!("RELOAD {first}"));
        assert!(resp.starts_with("OK epoch=2 "), "{resp}");
        assert!(resp.contains(&format!("version=history:{first}")), "{resp}");
        assert_eq!(engine.store().epoch(), 2);
        let resp = one(&engine, &mut ws, "RELOAD latest");
        assert!(resp.starts_with("OK epoch=3 "), "{resp}");
    }

    #[test]
    fn engine_without_history_rejects_time_travel() {
        let store = crate::served::owned_store("embedded", None, psl_core::embedded_list());
        let engine = Engine::new(store, None, EngineConfig::default(), frozen_clock());
        let mut ws = engine.worker_state(0);
        assert!(one(&engine, &mut ws, "ASOF 2020-01-01 a.com").starts_with("ERR state "));
        assert!(one(&engine, &mut ws, "RELOAD latest").starts_with("ERR state "));
        // Plain lookups still work.
        assert_eq!(one(&engine, &mut ws, "SUFFIX www.example.com"), "OK com\n");
    }

    #[test]
    fn quit_and_shutdown_controls() {
        let (engine, _) = engine_with_history();
        let mut ws = engine.worker_state(0);
        let mut out = String::new();
        assert_eq!(engine.handle_line(&mut ws, "QUIT", &mut out), Control::Quit);
        assert_eq!(out, "OK bye\n");
        out.clear();
        assert_eq!(engine.handle_line(&mut ws, "SHUTDOWN", &mut out), Control::Shutdown);
        assert_eq!(out, "OK shutting-down\n");
    }

    #[test]
    fn stats_is_one_json_line_with_schema() {
        let (engine, _) = engine_with_history();
        let mut ws = engine.worker_state(0);
        one(&engine, &mut ws, "SITE www.example.com");
        let resp = one(&engine, &mut ws, "STATS");
        let json = resp.strip_prefix("OK ").unwrap().trim_end();
        let report: StatsReport = serde_json::from_str(json).unwrap();
        assert_eq!(report.commands.site, 1);
        assert_eq!(report.snapshot.epoch, 1);
        assert_eq!(report.uptime_seconds, 0.0, "frozen clock");
    }

    #[test]
    fn errors_are_counted_and_do_not_drop_the_connection() {
        let (engine, _) = engine_with_history();
        let mut ws = engine.worker_state(0);
        assert!(one(&engine, &mut ws, "NOPE").starts_with("ERR verb "));
        assert!(one(&engine, &mut ws, "SUFFIX").starts_with("ERR args "));
        assert!(one(&engine, &mut ws, "SUFFIX ..bad..").starts_with("ERR host "));
        assert_eq!(engine.stats_report().commands.errors, 3);
    }

    #[test]
    fn canonical_host_recogniser_is_conservative() {
        for good in ["example.com", "a.b-c.d_e.co.uk", "single", "www.1234.com", "1digit.lead.ok"] {
            assert!(is_canonical_host(good), "{good}");
            // The guarantee the fast path relies on: parse is an identity.
            assert_eq!(DomainName::parse(good).unwrap().as_str(), good, "{good}");
        }
        for needs_parse in [
            "",
            "Example.com",      // uppercase
            "example.com.",     // trailing dot
            "a..b",             // empty label
            "-a.com",           // edge hyphen
            "a-.com",           // edge hyphen
            "xn--bcher-kva.de", // punycode needs round-trip validation
            "bücher.de",        // Unicode
            "127.0.0.1",        // IPv4 literal
            "1.2.3",            // all-numeric
            "a b.com",          // forbidden byte
            &"a".repeat(64),    // label too long
            &"a.".repeat(127),  // name too long once counted
        ] {
            assert!(!is_canonical_host(needs_parse), "{needs_parse:?}");
        }
    }

    #[test]
    fn fast_and_parse_paths_share_cache_entries() {
        let (engine, _) = engine_with_history();
        let mut ws = engine.worker_state(0);
        // Canonical spelling takes the fast path and misses once...
        one(&engine, &mut ws, "SITE www.example.com");
        // ...then a non-canonical spelling of the same host parses down to
        // the identical id key and must hit.
        assert_eq!(
            one(&engine, &mut ws, "SITE WWW.Example.COM."),
            one(&engine, &mut ws, "SITE www.example.com")
        );
        let r = engine.stats_report();
        assert_eq!(r.cache.misses, 1, "one interned key for all three spellings");
        assert_eq!(r.cache.hits, 2);
    }

    #[test]
    fn health_and_versions_and_cache_reports_are_json() {
        let (engine, _) = engine_with_history();
        let mut ws = engine.worker_state(0);
        one(&engine, &mut ws, "SITE www.example.com");

        let health = engine.health_report();
        assert_eq!(health["status"], "ok");
        assert_eq!(health["epoch"], 1);

        let versions = engine.versions_report();
        assert_eq!(versions["current"]["epoch"], 1);
        assert_eq!(versions["events"].as_array().unwrap().len(), 1, "startup publish");

        one(&engine, &mut ws, "RELOAD latest");
        let versions = engine.versions_report();
        assert_eq!(versions["current"]["epoch"], 2);
        assert_eq!(versions["events"].as_array().unwrap().len(), 2);

        let cache = engine.cache_report();
        assert_eq!(cache["capacity_per_worker"], 8192);
        let workers = cache["workers"].as_array().unwrap();
        assert_eq!(workers.len(), engine.config().workers);
    }

    #[test]
    fn reload_target_publishes_and_errors_match_line_protocol() {
        let (engine, history) = engine_with_history();
        let first = history.first_version();
        let out = engine.reload_target(&first.to_string()).unwrap();
        assert_eq!(out["epoch"], 2);
        assert_eq!(out["version"], format!("history:{first}"));
        assert!(engine.reload_target("not-a-date").is_err());

        let store = crate::served::owned_store("embedded", None, psl_core::embedded_list());
        let engine = Engine::new(store, None, EngineConfig::default(), frozen_clock());
        let err = engine.reload_target("latest").unwrap_err();
        assert_eq!(err.code, "state");
    }
}
