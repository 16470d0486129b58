//! File-watcher hardening: the watch loop must survive the watched `.dat`
//! being deleted and re-created — even when the re-created file reproduces
//! the old mtime and length exactly — and must retry transient read errors
//! instead of skipping the new content or tight-looping.

use psl_core::List;
use psl_service::{Engine, EngineConfig, Server, ServerConfig, StopHandle};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant, SystemTime};

const INTERVAL: Duration = Duration::from_millis(10);
const DEADLINE: Duration = Duration::from_secs(30);

struct WatchedServer {
    addr: SocketAddr,
    stop: StopHandle,
    join: Option<JoinHandle<()>>,
    engine: Arc<Engine>,
    dir: PathBuf,
    path: PathBuf,
}

impl WatchedServer {
    /// Start a server watching `<tmp>/<name>/list.dat` seeded with
    /// `initial`, its first list loaded through the server's own
    /// `load_list_file`.
    fn spawn(name: &str, initial: &str) -> WatchedServer {
        let dir = std::env::temp_dir().join(format!("psl-watch-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("list.dat");
        std::fs::write(&path, initial).unwrap();

        let list = psl_service::load_list_file(&path).expect("load initial file");
        let store = psl_service::owned_store(path.display().to_string(), None, list);
        let engine = Engine::new(
            store,
            None,
            EngineConfig { workers: 2, ..Default::default() },
            psl_service::monotonic_clock(),
        );
        let server = Server::bind(
            Arc::clone(&engine),
            ServerConfig { addr: "127.0.0.1:0".to_string(), watch: Some((path.clone(), INTERVAL)) },
        )
        .expect("bind ephemeral port");
        let addr = server.local_addr().unwrap();
        let stop = server.stop_handle();
        let join = std::thread::spawn(move || server.run().expect("server run"));
        WatchedServer { addr, stop, join: Some(join), engine, dir, path }
    }

    fn connect(&self) -> (BufReader<TcpStream>, BufWriter<TcpStream>) {
        let stream = TcpStream::connect(self.addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        (BufReader::new(stream.try_clone().unwrap()), BufWriter::new(stream))
    }

    fn epoch(&self) -> u64 {
        self.engine.stats_report().snapshot.epoch
    }
}

impl Drop for WatchedServer {
    fn drop(&mut self) {
        self.stop.stop();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn roundtrip(
    reader: &mut BufReader<TcpStream>,
    writer: &mut BufWriter<TcpStream>,
    command: &str,
) -> String {
    writer.write_all(command.as_bytes()).unwrap();
    writer.write_all(b"\n").unwrap();
    writer.flush().unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    line.trim_end().to_string()
}

/// Poll `SUFFIX host` until it answers `OK want` (the reload landed).
fn await_suffix(
    reader: &mut BufReader<TcpStream>,
    writer: &mut BufWriter<TcpStream>,
    host: &str,
    want: &str,
) {
    let deadline = Instant::now() + DEADLINE;
    loop {
        let got = roundtrip(reader, writer, &format!("SUFFIX {host}"));
        if got == format!("OK {want}") {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for SUFFIX {host} = {want}, last answer {got:?}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Write `content` to `path` atomically (temp file + rename), optionally
/// forcing the file's mtime so a re-create can reproduce an old signature.
fn write_atomic(path: &Path, content: impl AsRef<[u8]>, mtime: Option<SystemTime>) {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, content.as_ref()).unwrap();
    if let Some(m) = mtime {
        let f = std::fs::OpenOptions::new().write(true).open(&tmp).unwrap();
        f.set_modified(m).unwrap();
    }
    std::fs::rename(&tmp, path).unwrap();
}

#[test]
fn watcher_reloads_after_delete_and_recreate_even_with_identical_signature() {
    let server = WatchedServer::spawn("recreate", "alpha\n");
    let (mut reader, mut writer) = server.connect();
    assert_eq!(roundtrip(&mut reader, &mut writer, "SUFFIX x.b.alpha"), "OK alpha");
    assert_eq!(server.epoch(), 1);

    // An ordinary in-place change is picked up (and proves the watcher has
    // recorded its baseline before we start deleting things).
    write_atomic(&server.path, "alpha\nb.alpha\n", None);
    await_suffix(&mut reader, &mut writer, "x.b.alpha", "b.alpha");
    assert_eq!(server.epoch(), 2);

    // Delete the file and let the watcher observe the gap.
    let old_sig =
        std::fs::metadata(&server.path).map(|m| (m.modified().unwrap(), m.len())).unwrap();
    std::fs::remove_file(&server.path).unwrap();
    std::thread::sleep(INTERVAL * 8);

    // Re-create with different rules but the *same* mtime and length as the
    // published state — an mtime-only watcher would never reload this.
    let recreated = "alpha\nc.alpha\n";
    assert_eq!(recreated.len() as u64, old_sig.1, "test needs a same-length replacement");
    write_atomic(&server.path, recreated, Some(old_sig.0));
    await_suffix(&mut reader, &mut writer, "x.c.alpha", "c.alpha");
    assert_eq!(server.epoch(), 3);

    // The signature was committed after the successful publish: the watcher
    // settles and does not re-publish the same file in a loop.
    std::thread::sleep(INTERVAL * 10);
    assert_eq!(server.epoch(), 3);
}

#[test]
fn watcher_reloads_compiled_snapshots_and_switches_back_to_text() {
    let server = WatchedServer::spawn("snapshot", "alpha\n");
    let (mut reader, mut writer) = server.connect();
    assert_eq!(roundtrip(&mut reader, &mut writer, "SUFFIX x.b.alpha"), "OK alpha");
    assert_eq!(server.epoch(), 1);

    // Overwrite the watched file with the *binary snapshot* of a different
    // list: the watcher must sniff the magic and load it zero-copy.
    let snap = List::parse("alpha\nsnap.alpha\n").write_snapshot();
    write_atomic(&server.path, &snap, None);
    await_suffix(&mut reader, &mut writer, "x.snap.alpha", "snap.alpha");
    assert_eq!(server.epoch(), 2);

    // A corrupted snapshot (bad checksum) must be rejected and retried,
    // never published.
    let mut bad = snap.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0xff;
    write_atomic(&server.path, &bad, None);
    std::thread::sleep(INTERVAL * 12);
    assert_eq!(server.epoch(), 2, "corrupt snapshot must not publish");
    assert_eq!(roundtrip(&mut reader, &mut writer, "SUFFIX x.snap.alpha"), "OK snap.alpha");

    // A snapshot replacing a snapshot publishes the new rules and drops
    // the old ones.
    let next = List::parse("alpha\nnext.alpha\n").write_snapshot();
    write_atomic(&server.path, &next, None);
    await_suffix(&mut reader, &mut writer, "x.next.alpha", "next.alpha");
    assert_eq!(server.epoch(), 3);
    assert_eq!(roundtrip(&mut reader, &mut writer, "SUFFIX x.snap.alpha"), "OK alpha");

    // And swapping back to plain `.dat` text keeps working.
    write_atomic(&server.path, "alpha\ntext.alpha\n", None);
    await_suffix(&mut reader, &mut writer, "x.text.alpha", "text.alpha");
    assert_eq!(server.epoch(), 4);
}

#[test]
fn watcher_retries_after_transient_read_errors() {
    let server = WatchedServer::spawn("readerr", "alpha\n");
    let (mut reader, mut writer) = server.connect();
    assert_eq!(roundtrip(&mut reader, &mut writer, "PING"), "OK pong");
    assert_eq!(server.epoch(), 1);

    // Replace the file with a directory: stat succeeds (a changed
    // signature) but every read fails, so the watcher must keep retrying
    // with backoff without committing the unreadable state or exiting.
    std::fs::remove_file(&server.path).unwrap();
    std::fs::create_dir(&server.path).unwrap();
    std::thread::sleep(INTERVAL * 12);
    assert_eq!(server.epoch(), 1, "unreadable path must not publish");

    // Restore a readable file; the pending change is picked up.
    std::fs::remove_dir(&server.path).unwrap();
    write_atomic(&server.path, "alpha\nd.alpha\n", None);
    await_suffix(&mut reader, &mut writer, "x.d.alpha", "d.alpha");
    assert_eq!(server.epoch(), 2);

    // And the server is still fully alive.
    assert_eq!(roundtrip(&mut reader, &mut writer, "PING"), "OK pong");
}
