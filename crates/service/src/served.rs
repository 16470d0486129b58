//! What the engine serves: an owned [`List`] or an mmap-backed snapshot.
//!
//! The engine's hot path needs three things from the published payload:
//! map a canonical host to reversed interned label ids (the cache key),
//! resolve an id slice to a disposition, and report a rule count. Both an
//! owned `List` and a validated [`SnapshotView`] over a read-only file
//! mapping can do all three, so [`ServedList`] is the enum the generic
//! [`psl_core::SnapshotStore`] swaps — `serve --mmap` publishes the
//! [`ServedList::Mapped`] arm and queries run against page-cache bytes
//! without ever materialising a [`psl_core::FrozenList`].
//!
//! The mapped arm carries a sidecar label→id index: the snapshot format
//! stores labels as a string arena whose only reverse lookup is a linear
//! scan ([`SnapshotView::label_id`]), fine for tooling but not for a
//! per-request path. One pass at publish time builds the same FNV-hashed
//! map the owned interner uses, so both arms answer in the same time
//! complexity.

use crate::reactor::epoll::Mmap;
use psl_core::{
    Date, Disposition, FnvBuild, List, MatchOpts, SnapshotStore, SnapshotView, UNKNOWN_LABEL,
};
use std::collections::HashMap;
use std::sync::Arc;

/// The snapshot store type the service actually swaps.
pub type ServedStore = SnapshotStore<ServedList>;

/// A published list payload: owned and heap-resident, or borrowed from a
/// read-only file mapping.
#[derive(Debug)]
pub enum ServedList {
    /// A fully materialised list (parse, history snapshot, or `RELOAD`).
    Owned(List),
    /// A compiled snapshot served in place from an `mmap`ed file.
    Mapped(MappedSnapshot),
}

impl ServedList {
    /// Number of rules in the served list.
    pub fn rules(&self) -> usize {
        match self {
            ServedList::Owned(list) => list.len(),
            ServedList::Mapped(m) => m.view().rules(),
        }
    }

    /// Map a canonical dotted hostname to reversed label ids in this
    /// payload's id space (unknown labels become [`UNKNOWN_LABEL`]),
    /// reusing `out`. The id spaces of the two arms differ, but ids never
    /// cross a snapshot epoch: the engine's per-worker cache clears on
    /// every publish.
    pub fn reversed_ids_str(&self, host: &str, out: &mut Vec<u32>) {
        match self {
            ServedList::Owned(list) => list.reversed_ids_str(host, out),
            ServedList::Mapped(m) => {
                out.clear();
                out.extend(host.rsplit('.').map(|l| m.label_id(l)));
            }
        }
    }

    /// The prevailing-rule decision for reversed ids produced by
    /// [`ServedList::reversed_ids_str`] on this same payload.
    pub fn disposition_ids(&self, reversed_ids: &[u32], opts: MatchOpts) -> Option<Disposition> {
        match self {
            ServedList::Owned(list) => list.disposition_ids(reversed_ids, opts),
            ServedList::Mapped(m) => m.view().disposition_by_ids(reversed_ids, opts),
        }
    }

    /// The cacheable suffix code (see [`crate::lookup::suffix_code`]) for
    /// reversed ids from [`ServedList::reversed_ids_str`]. The engine's hot
    /// path computes the id slice once as its cache key and resolves misses
    /// here with zero further allocation.
    pub fn suffix_code_ids(&self, reversed_ids: &[u32], opts: MatchOpts) -> u32 {
        match self.disposition_ids(reversed_ids, opts) {
            Some(d) => d.suffix_len.min(reversed_ids.len()) as u32,
            None => crate::lookup::NO_MATCH,
        }
    }

    /// The site (registrable domain, or the host itself) for a canonical
    /// dotted hostname, resolved through whichever payload arm is live.
    /// One-shot twin of [`psl_core::List::site`] for checkers and tests;
    /// the server's hot path goes through [`ServedList::suffix_code_ids`]
    /// with a cache in between.
    pub fn site_str(&self, host: &str, opts: MatchOpts) -> String {
        let mut ids = Vec::new();
        self.reversed_ids_str(host, &mut ids);
        let code = self.suffix_code_ids(&ids, opts);
        crate::lookup::decode_str(host, code).site
    }
}

impl From<List> for ServedList {
    fn from(list: List) -> Self {
        ServedList::Owned(list)
    }
}

/// A validated snapshot view over a live file mapping, plus the sidecar
/// label index. The view borrows the mapping's bytes; keeping both in one
/// struct (the `Arc` field outliving the view by construction) is what
/// makes the `'static` lifetime on the view honest.
pub struct MappedSnapshot {
    /// Held only to keep the mapping alive as long as `view`.
    _map: Arc<Mmap>,
    view: SnapshotView<'static>,
    label_ids: HashMap<Box<str>, u32, FnvBuild>,
}

impl MappedSnapshot {
    /// Map `path` and validate it as a compiled list snapshot. The parse
    /// walks every section (checksums, offsets, UTF-8), so a torn write
    /// fails here and never reaches the serving path.
    pub fn open(path: &std::path::Path) -> Result<MappedSnapshot, String> {
        let map =
            Arc::new(Mmap::map_file(path).map_err(|e| format!("mapping {}: {e}", path.display()))?);
        let bytes: &'static [u8] = map.extend_slice_lifetime();
        let view = SnapshotView::parse(bytes)
            .map_err(|e| format!("parsing snapshot {}: {e}", path.display()))?;
        let mut label_ids: HashMap<Box<str>, u32, FnvBuild> = HashMap::default();
        for id in 0..view.label_count() as u32 {
            let label = view.label(id).expect("id in range");
            // First occurrence wins, mirroring the owned interner's
            // handling of duplicate arena entries.
            label_ids.entry(label.into()).or_insert(id);
        }
        Ok(MappedSnapshot { _map: map, view, label_ids })
    }

    /// The parsed snapshot view (reborrowed at `self`'s lifetime — the
    /// `'static` marker never escapes).
    pub fn view(&self) -> &SnapshotView<'_> {
        &self.view
    }

    /// The interned id of `label`, or [`UNKNOWN_LABEL`].
    pub fn label_id(&self, label: &str) -> u32 {
        self.label_ids.get(label).copied().unwrap_or(UNKNOWN_LABEL)
    }
}

impl std::fmt::Debug for MappedSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MappedSnapshot")
            .field("rules", &self.view.rules())
            .field("bytes", &self.view.byte_len())
            .finish()
    }
}

/// A one-snapshot store over an owned list — the constructor every caller
/// that does not use `--mmap` wants.
pub fn owned_store(
    label: impl Into<String>,
    version: Option<Date>,
    list: List,
) -> Arc<ServedStore> {
    Arc::new(SnapshotStore::new(label, version, ServedList::Owned(list)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use psl_core::DomainName;

    fn write_snapshot(name: &str, dat: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("psl-served-{}-{name}", std::process::id()));
        std::fs::write(&path, List::parse(dat).write_snapshot()).unwrap();
        path
    }

    #[test]
    fn mapped_and_owned_agree_on_every_lookup() {
        let dat = "com\nuk\nco.uk\n*.ck\n!www.ck\n// ===BEGIN PRIVATE DOMAINS===\ngithub.io\n";
        let path = write_snapshot("agree.bin", dat);
        let owned = ServedList::Owned(List::parse(dat));
        let mapped = ServedList::Mapped(MappedSnapshot::open(&path).unwrap());
        assert_eq!(owned.rules(), mapped.rules());

        let mut ids_a = Vec::new();
        let mut ids_b = Vec::new();
        for host in [
            "www.example.co.uk",
            "co.uk",
            "alice.github.io",
            "x.zz",
            "www.ck",
            "deep.other.ck",
            "never.interned.anywhere",
        ] {
            // Ids live in different spaces, but the dispositions they
            // resolve to must be identical.
            owned.reversed_ids_str(host, &mut ids_a);
            mapped.reversed_ids_str(host, &mut ids_b);
            assert_eq!(ids_a.len(), ids_b.len(), "{host}");
            for opts in [
                MatchOpts::default(),
                MatchOpts { include_private: false, implicit_wildcard: true },
                MatchOpts { include_private: true, implicit_wildcard: false },
            ] {
                assert_eq!(
                    owned.suffix_code_ids(&ids_a, opts),
                    mapped.suffix_code_ids(&ids_b, opts),
                    "{host} {opts:?}"
                );
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mapped_survives_source_file_replacement() {
        // MAP_PRIVATE semantics: replacing the file via rename must not
        // disturb an already-open mapping (the reload path opens a new one).
        let path = write_snapshot("replace.bin", "com\nnet\n");
        let mapped = MappedSnapshot::open(&path).unwrap();
        assert_eq!(mapped.view().rules(), 2);

        let next = write_snapshot("replace-next.bin", "com\nnet\norg\nio\n");
        std::fs::rename(&next, &path).unwrap();
        assert_eq!(mapped.view().rules(), 2, "old mapping still serves the old bytes");

        let remapped = MappedSnapshot::open(&path).unwrap();
        assert_eq!(remapped.view().rules(), 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn open_rejects_text_and_torn_files() {
        let dir = std::env::temp_dir();
        let text = dir.join(format!("psl-served-text-{}", std::process::id()));
        std::fs::write(&text, b"com\nnet\n").unwrap();
        assert!(MappedSnapshot::open(&text).is_err(), "dat text is not a snapshot");

        let torn = dir.join(format!("psl-served-torn-{}", std::process::id()));
        let bytes = List::parse("com\nnet\n").write_snapshot();
        std::fs::write(&torn, &bytes[..bytes.len() / 2]).unwrap();
        assert!(MappedSnapshot::open(&torn).is_err(), "torn snapshot fails validation");

        for p in [text, torn] {
            let _ = std::fs::remove_file(p);
        }
    }

    #[test]
    fn owned_store_publishes_and_swaps_served_lists() {
        let store = owned_store("v1", None, List::parse("com\n"));
        assert_eq!(store.load().list.rules(), 1);

        let path = write_snapshot("swap.bin", "com\nco.uk\nuk\n");
        let mapped = MappedSnapshot::open(&path).unwrap();
        let epoch = store.publish(path.display().to_string(), None, ServedList::Mapped(mapped));
        assert_eq!(epoch, 2);
        let snap = store.load();
        assert_eq!(snap.list.rules(), 3);

        // Resolve through the mapped arm end to end.
        let host = DomainName::parse("a.b.example.co.uk").unwrap();
        let mut ids = Vec::new();
        snap.list.reversed_ids_str(host.as_str(), &mut ids);
        let code = snap.list.suffix_code_ids(&ids, MatchOpts::default());
        assert_eq!(crate::lookup::decode(&host, code).site, "example.co.uk");
        let _ = std::fs::remove_file(&path);
    }
}
