//! Epoch-based hot-swappable [`List`] snapshots.
//!
//! A long-running query server wants three things from its list state:
//! readers that never block on a reload, reloads that never observe a
//! half-built list, and a cheap way for a reader to notice that the list
//! changed. [`SnapshotStore`] provides all three with safe `std` only:
//!
//! - the current [`Snapshot`] lives behind an `Arc`; publishing builds the
//!   next list **off** the read path and swaps the `Arc` in one move, so a
//!   reader always sees either the old or the new list, never a mixture;
//! - a monotonically increasing **epoch** (`AtomicU64`) is bumped after
//!   every publish; [`SnapshotReader`] keeps a thread-local `Arc` clone and
//!   re-reads the shared slot only when the epoch moved, so the steady-state
//!   read path is one relaxed-ish atomic load — wait-free — and the brief
//!   `RwLock` read lock is only taken once per reload per reader;
//! - snapshots are immutable once published, so in-flight queries on the
//!   previous epoch keep a consistent view until their `Arc` drops.

use crate::date::Date;
use crate::list::List;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// An immutable, published list version.
#[derive(Debug)]
pub struct Snapshot {
    /// Publication counter: 1 for the snapshot the store was created with,
    /// +1 for every successful [`SnapshotStore::publish`].
    pub epoch: u64,
    /// The list-history version date this snapshot was built from, if it
    /// came from a dated history (file reloads have no version date).
    pub version: Option<Date>,
    /// Human-readable origin, e.g. `embedded`, `history:2022-10-20`, or a
    /// file path.
    pub label: String,
    /// The queryable list.
    pub list: List,
}

/// The shared slot holding the current [`Snapshot`].
#[derive(Debug)]
pub struct SnapshotStore {
    current: RwLock<Arc<Snapshot>>,
    epoch: AtomicU64,
}

impl SnapshotStore {
    /// Create a store whose first snapshot (epoch 1) wraps `list`.
    pub fn new(label: impl Into<String>, version: Option<Date>, list: List) -> Self {
        let snap = Arc::new(Snapshot { epoch: 1, version, label: label.into(), list });
        SnapshotStore { current: RwLock::new(snap), epoch: AtomicU64::new(1) }
    }

    /// The current epoch. Wait-free; use it to detect reloads cheaply.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Clone out the current snapshot (takes the read lock briefly).
    pub fn load(&self) -> Arc<Snapshot> {
        self.current.read().expect("snapshot lock poisoned").clone()
    }

    /// Publish a new snapshot, returning its epoch. The caller builds the
    /// (expensive) payload before calling, so the write lock is held only
    /// for the pointer swap.
    pub fn publish(&self, label: impl Into<String>, version: Option<Date>, list: List) -> u64 {
        let mut slot = self.current.write().expect("snapshot lock poisoned");
        let epoch = slot.epoch + 1;
        *slot = Arc::new(Snapshot { epoch, version, label: label.into(), list });
        // Release-store after the slot is updated: a reader that observes
        // the new epoch is guaranteed to find the new snapshot in the slot.
        self.epoch.store(epoch, Ordering::Release);
        epoch
    }

    /// A per-thread cached reader over this store.
    pub fn reader(self: &Arc<Self>) -> SnapshotReader {
        SnapshotReader { store: Arc::clone(self), cached: self.load() }
    }
}

/// A reader handle that caches the current snapshot and refreshes it only
/// when the store's epoch advances. One per worker thread; the hot path
/// ([`SnapshotReader::current`]) is a single atomic load plus a pointer
/// return when the epoch is unchanged.
#[derive(Debug)]
pub struct SnapshotReader {
    store: Arc<SnapshotStore>,
    cached: Arc<Snapshot>,
}

impl SnapshotReader {
    /// The current snapshot, refreshing the cached `Arc` if a reload
    /// happened since the last call.
    pub fn current(&mut self) -> &Arc<Snapshot> {
        if self.cached.epoch != self.store.epoch() {
            self.cached = self.store.load();
        }
        &self.cached
    }

    /// True if the next [`Self::current`] call will observe a new epoch.
    pub fn stale(&self) -> bool {
        self.cached.epoch != self.store.epoch()
    }

    /// The epoch of the snapshot this reader currently holds.
    pub fn held_epoch(&self) -> u64 {
        self.cached.epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::DomainName;
    use crate::trie::MatchOpts;

    fn site(list: &List, host: &str) -> String {
        let d = DomainName::parse(host).unwrap();
        list.site(&d, MatchOpts::default()).as_str().to_string()
    }

    #[test]
    fn publish_advances_epoch_and_swaps_list() {
        let store = Arc::new(SnapshotStore::new("v1", None, List::parse("uk\nco.uk\n")));
        assert_eq!(store.epoch(), 1);
        assert_eq!(site(&store.load().list, "good.example.co.uk"), "example.co.uk");

        let e = store.publish("v2", None, List::parse("uk\nco.uk\nexample.co.uk\n"));
        assert_eq!(e, 2);
        assert_eq!(store.epoch(), 2);
        assert_eq!(site(&store.load().list, "good.example.co.uk"), "good.example.co.uk");
    }

    #[test]
    fn reader_refreshes_only_on_epoch_change() {
        let store = Arc::new(SnapshotStore::new("v1", None, List::parse("com\n")));
        let mut reader = store.reader();
        assert_eq!(reader.current().epoch, 1);
        assert!(!reader.stale());

        store.publish("v2", None, List::parse("com\nnet\n"));
        assert!(reader.stale());
        assert_eq!(reader.current().epoch, 2);
        assert_eq!(reader.current().list.len(), 2);
        assert_eq!(reader.held_epoch(), 2);
    }

    #[test]
    fn old_snapshot_stays_valid_after_reload() {
        let store = Arc::new(SnapshotStore::new("v1", None, List::parse("uk\nco.uk\n")));
        let held = store.load();
        store.publish("v2", None, List::parse("uk\nco.uk\nexample.co.uk\n"));
        // The pre-reload Arc still answers under the old rules.
        assert_eq!(site(&held.list, "good.example.co.uk"), "example.co.uk");
        assert_eq!(held.epoch, 1);
        assert_eq!(store.load().epoch, 2);
    }

    #[test]
    fn concurrent_readers_never_observe_torn_state() {
        // Two lists with *different* answers for the probe host; every
        // concurrent read must equal exactly one of them.
        let store = Arc::new(SnapshotStore::new("v1", None, List::parse("uk\nco.uk\n")));
        let stop = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let store = Arc::clone(&store);
                let stop = &stop;
                scope.spawn(move || {
                    let mut reader = store.reader();
                    while stop.load(Ordering::Relaxed) == 0 {
                        let snap = reader.current();
                        let s = site(&snap.list, "good.example.co.uk");
                        match snap.epoch % 2 {
                            1 => assert_eq!(s, "example.co.uk"),
                            _ => assert_eq!(s, "good.example.co.uk"),
                        }
                    }
                });
            }
            for i in 0..200u64 {
                let list = if i % 2 == 0 {
                    List::parse("uk\nco.uk\nexample.co.uk\n")
                } else {
                    List::parse("uk\nco.uk\n")
                };
                store.publish(format!("round-{i}"), None, list);
            }
            stop.store(1, Ordering::Relaxed);
        });
        assert_eq!(store.epoch(), 201);
    }
}
