//! The TCP server: listener setup, worker threads, and the file watcher.
//!
//! The accept/serve machinery itself lives in [`crate::reactor`]: N worker
//! threads each run a nonblocking epoll event loop, both listeners (line
//! protocol + optional HTTP admin plane) registered with `EPOLLEXCLUSIVE`
//! in every worker so the kernel load-balances accepts without a
//! dispatcher thread. This module owns what surrounds the loops: binding
//! (with a widened accept backlog and a best-effort `RLIMIT_NOFILE`
//! raise, since the reactor's whole point is tens of thousands of
//! concurrent sockets), the crossbeam thread scope, the shared
//! [`reactor::StopState`] that makes `SHUTDOWN` a syscall-latency event
//! rather than a poll tick, and the optional list-file watcher thread.
//!
//! The watcher polls a list file's mtime and republishes the snapshot when
//! it changes — the SIGHUP-style reload path for deployments that manage
//! the list as a file. The watched file may be either `.dat` text or a
//! compiled binary snapshot ([`load_list_file`] sniffs the magic); a
//! half-written snapshot fails its checksum and is simply retried on the
//! next poll tick, so an atomic-rename deployment and a sloppy in-place
//! `cp` both converge. Its sleeps go through [`reactor::StopState::sleep`],
//! so shutdown never waits out a poll interval.

use crate::engine::Engine;
use crate::reactor::{self, epoll, ReactorOptions, StopState};
use std::net::{SocketAddr, TcpListener};
use std::os::unix::io::AsRawFd;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, SystemTime};

/// Listen backlog requested beyond the std default of 128 — a loadgen
/// opening thousands of connections at once overflows a short backlog into
/// kernel-dropped SYNs and retransmit stalls.
const LISTEN_BACKLOG: i32 = 4096;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:7378` (port 0 = ephemeral).
    pub addr: String,
    /// Optional list file to watch, `.dat` text or a compiled snapshot:
    /// `(path, poll interval)`.
    pub watch: Option<(PathBuf, Duration)>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig { addr: "127.0.0.1:7378".to_string(), watch: None }
    }
}

/// A bound (but not yet running) server.
pub struct Server {
    listener: TcpListener,
    http_listener: Option<TcpListener>,
    engine: Arc<Engine>,
    config: ServerConfig,
    options: ReactorOptions,
    stop: Arc<StopState>,
    /// Signature of the watched file as it stood at bind time — i.e. the
    /// state the caller's initial load served. Captured here (not on the
    /// watcher's first poll tick) so a replacement that lands between bind
    /// and the first tick still registers as a change.
    watch_baseline: Option<FileSignature>,
}

/// Cooperative stop handle for a running server.
#[derive(Debug, Clone)]
pub struct StopHandle(Arc<StopState>);

impl StopHandle {
    /// Ask the server to stop; every reactor worker is woken through its
    /// eventfd doorbell, so shutdown latency is bounded by a syscall, not
    /// a polling interval.
    pub fn stop(&self) {
        self.0.trigger();
    }

    /// Has a stop been requested?
    pub fn stopped(&self) -> bool {
        self.0.stopped()
    }
}

impl Server {
    /// Bind the line-protocol listener with default reactor options (no
    /// HTTP admin plane). The worker count comes from the engine config.
    pub fn bind(engine: Arc<Engine>, config: ServerConfig) -> std::io::Result<Server> {
        Server::bind_with(engine, config, ReactorOptions::default())
    }

    /// Bind with explicit reactor options, including the optional HTTP
    /// admin listener.
    pub fn bind_with(
        engine: Arc<Engine>,
        config: ServerConfig,
        options: ReactorOptions,
    ) -> std::io::Result<Server> {
        // Best-effort: every connection is one fd (plus epoll + listeners);
        // ask for headroom over the connection cap and accept what we get.
        let _ = epoll::raise_nofile_limit(options.max_conns as u64 + 512);
        let listener = bind_listener(&config.addr)?;
        let http_listener = match &options.http_addr {
            Some(addr) => Some(bind_listener(addr)?),
            None => None,
        };
        let watch_baseline = config.watch.as_ref().and_then(|(path, _)| file_signature(path).ok());
        Ok(Server {
            listener,
            http_listener,
            engine,
            config,
            options,
            stop: StopState::new(),
            watch_baseline,
        })
    }

    /// The bound line-protocol address (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The bound HTTP admin-plane address, when one was configured.
    pub fn http_local_addr(&self) -> Option<std::io::Result<SocketAddr>> {
        self.http_listener.as_ref().map(|l| l.local_addr())
    }

    /// A handle that can stop the running server from another thread.
    pub fn stop_handle(&self) -> StopHandle {
        StopHandle(Arc::clone(&self.stop))
    }

    /// Run the reactor, blocking until a stop is requested (`SHUTDOWN`
    /// command, `POST /reload` failure is non-fatal, [`StopHandle::stop`]).
    /// Worker threads are crossbeam-scoped, so this returns only after
    /// every worker tore down its connections.
    pub fn run(&self) -> std::io::Result<()> {
        let workers = self.options.workers.unwrap_or(self.engine.config().workers).max(1);
        crossbeam::thread::scope(|scope| {
            for id in 0..workers {
                let engine = Arc::clone(&self.engine);
                let listener = &self.listener;
                let http = self.http_listener.as_ref();
                let options = &self.options;
                let stop = &*self.stop;
                scope.spawn(move |_| {
                    reactor::worker_loop(id, &engine, listener, http, options, stop)
                });
            }
            if let Some((path, interval)) = self.config.watch.clone() {
                let engine = Arc::clone(&self.engine);
                let stop = &*self.stop;
                let baseline = self.watch_baseline;
                scope.spawn(move |_| watch_loop(engine, path, interval, baseline, stop));
            }
        })
        .map_err(|_| std::io::Error::other("a server worker panicked"))?;
        Ok(())
    }
}

/// Bind one nonblocking listener with the widened backlog.
fn bind_listener(addr: &str) -> std::io::Result<TcpListener> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    epoll::widen_backlog(listener.as_raw_fd(), LISTEN_BACKLOG)?;
    Ok(listener)
}

/// Load a list from `path`, sniffing the format: a file that starts with
/// the compiled-snapshot magic is loaded through the zero-copy binary
/// loader ([`psl_core::List::load_snapshot`]); anything else is parsed as
/// `.dat` text. This is the one ingestion point the server (cold start,
/// watcher, and `POST /reload` alike) uses, so text and binary deployments
/// behave identically.
pub fn load_list_file(path: &std::path::Path) -> Result<psl_core::List, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    if bytes.starts_with(&psl_core::LIST_MAGIC) {
        psl_core::List::load_snapshot(&bytes)
            .map_err(|e| format!("loading snapshot {}: {e}", path.display()))
    } else {
        Ok(psl_core::List::parse(&String::from_utf8_lossy(&bytes)))
    }
}

/// Reload-relevant identity of the watched file: (mtime, length, inode).
/// Compared for equality, not ordering, so an mtime that goes *backwards*
/// (a restore from backup, a delete/re-create that lands on an older
/// timestamp) still registers as a change whenever any component differs.
/// The inode is load-bearing: an atomic replace (write temp + rename) of a
/// same-length file can land inside the filesystem's timestamp granularity
/// (a few ms on some kernels), leaving mtime and length both unchanged —
/// but the rename always installs a fresh inode.
type FileSignature = (SystemTime, u64, u64);

fn file_signature(path: &std::path::Path) -> std::io::Result<FileSignature> {
    use std::os::unix::fs::MetadataExt as _;
    let meta = std::fs::metadata(path)?;
    Ok((meta.modified()?, meta.len(), meta.ino()))
}

fn watch_loop(
    engine: Arc<Engine>,
    path: PathBuf,
    interval: Duration,
    baseline: Option<FileSignature>,
    stop: &StopState,
) {
    // Signature of the last file state we successfully published (seeded
    // with the startup baseline captured at bind time). Committed only
    // after a successful read + publish, so a transient read failure is
    // retried on the next tick rather than being skipped until the file
    // happens to change again.
    let mut published: Option<FileSignature> = baseline;
    let mut baseline_recorded = baseline.is_some();
    // Set while the file is missing or unstatable. Forces a reload on the
    // next successful stat even if the signature matches — a delete +
    // re-create can reproduce the old mtime and length exactly.
    let mut saw_missing = false;
    // Consecutive stat/read failures; drives the bounded backoff below.
    let mut failures: u32 = 0;
    while !stop.stopped() {
        match file_signature(&path) {
            Ok(sig) => {
                if !baseline_recorded && !saw_missing {
                    // Startup: the serve command already loaded the initial
                    // list; just record where we started.
                    published = Some(sig);
                    baseline_recorded = true;
                    failures = 0;
                } else if published != Some(sig) || saw_missing {
                    match load_list_file(&path) {
                        Ok(list) => {
                            let rules = list.len();
                            let epoch = engine.publish_list(path.display().to_string(), None, list);
                            eprintln!(
                                "psl-service: reloaded {} (epoch {epoch}, {rules} rules)",
                                path.display()
                            );
                            published = Some(sig);
                            baseline_recorded = true;
                            saw_missing = false;
                            failures = 0;
                        }
                        Err(e) => {
                            failures = failures.saturating_add(1);
                            eprintln!("psl-service: watch reload {e}");
                        }
                    }
                } else {
                    failures = 0;
                }
            }
            Err(e) => {
                saw_missing = true;
                failures = failures.saturating_add(1);
                eprintln!("psl-service: watch stat {}: {e}", path.display());
            }
        }
        // Bounded exponential backoff while failing — 1, 2, 4, then 8 poll
        // intervals. The stop-aware sleep returns early (and truthfully)
        // the instant a shutdown is triggered.
        for _ in 0..(1u32 << failures.min(3)) {
            if stop.sleep(interval) {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_file(name: &str, bytes: &[u8]) -> PathBuf {
        let path = std::env::temp_dir().join(format!("psl-loadfile-{}-{name}", std::process::id()));
        std::fs::write(&path, bytes).unwrap();
        path
    }

    #[test]
    fn load_list_file_sniffs_text_vs_snapshot() {
        let text = tmp_file("text.dat", b"com\n*.uk\n");
        let loaded = load_list_file(&text).unwrap();
        assert_eq!(loaded.len(), 2);

        let snap_bytes = psl_core::List::parse("com\n*.uk\n!x.uk\n").write_snapshot();
        let snap = tmp_file("snap.bin", &snap_bytes);
        let loaded = load_list_file(&snap).unwrap();
        assert_eq!(loaded.len(), 3);

        // A half-written snapshot (right magic, truncated payload) is a
        // typed failure, not a silently empty list.
        let torn = tmp_file("torn.bin", &snap_bytes[..snap_bytes.len() / 2]);
        let err = load_list_file(&torn).unwrap_err();
        assert!(err.contains("snapshot"), "{err}");

        for p in [text, snap, torn] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn load_list_file_missing_path_is_an_error() {
        let err = load_list_file(std::path::Path::new("/nonexistent/psl.dat")).unwrap_err();
        assert!(err.contains("reading"), "{err}");
    }

    #[test]
    fn stop_handle_round_trips_through_stop_state() {
        let stop = StopState::new();
        let handle = StopHandle(Arc::clone(&stop));
        assert!(!handle.stopped());
        handle.stop();
        assert!(handle.stopped());
        assert!(stop.stopped());
    }

    #[test]
    fn stop_aware_sleep_wakes_early_on_trigger() {
        let stop = StopState::new();
        let waker = Arc::clone(&stop);
        let started = std::time::Instant::now();
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            waker.trigger();
        });
        // A 10-second sleep must return promptly once triggered.
        assert!(stop.sleep(Duration::from_secs(10)));
        assert!(started.elapsed() < Duration::from_secs(5));
        t.join().unwrap();
    }
}
