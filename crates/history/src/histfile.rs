//! `CompiledHistoryFile`: the delta-compressed on-disk history arena.
//!
//! Adjacent PSL versions share almost all of their rules, so storing
//! ~1,142 independent snapshots would duplicate nearly every edge ~1,142
//! times. This format stores **one shared label interner** plus, per
//! version, a *delta* against the previous version's rule set — and a
//! periodic full **checkpoint** (every `checkpoint_every` versions) so
//! materialising version *i* replays at most `checkpoint_every` deltas
//! instead of the whole history. That gives full-history `ASOF` serving
//! with bounded memory: hold the file bytes, materialise the handful of
//! versions actually queried, and drop them when done.
//!
//! ## Byte layout (format version 1, all integers little-endian)
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------------
//!      0     8  magic             b"PSLHIST1"
//!      8     4  format_version    u32 (currently 1)
//!     12     4  flags             u32 (must be 0)
//!     16     8  total_len         u64 (whole file, including checksum)
//!     24     4  version_count     u32 (>= 1)
//!     28     4  label_count       u32 (shared interner size)
//!     32     4  checkpoint_every  u32 (>= 1)
//!     36     4  reserved          u32 (must be 0)
//!     40   112  section table     7 x { offset u64, byte_len u64 }
//!    152     -  sections          each offset 8-byte aligned, in order:
//!                 [0] label_offsets u32 x (label_count + 1)
//!                 [1] label_bytes   u8  x label_offsets.last
//!                 [2] dates         i32 x version_count   (days since epoch,
//!                                                          strictly ascending)
//!                 [3] rec_offsets   u64 x (version_count + 1)  byte offsets
//!                                   into [6], 4-aligned prefix fences
//!                 [4] del_counts    u32 x version_count
//!                 [5] add_counts    u32 x version_count
//!                 [6] records       per-version record stream (see below)
//!  len-8      8  checksum          u64 checksum64 over bytes[0 .. len-8]
//! ```
//!
//! Version *i*'s records live in `records[rec_offsets[i] ..
//! rec_offsets[i+1]]`: first `del_counts[i]` removals, then
//! `add_counts[i]` additions. A record is one `u32` word — `kind` (bits
//! 0–7: 0 normal / 1 wildcard / 2 exception), `section` (bits 8–15: 0
//! ICANN / 1 private), label count (bits 16–31) — followed by that many
//! interned label ids, TLD first. Versions where `i % checkpoint_every ==
//! 0` are checkpoints: no removals, and the additions are the complete
//! rule set in sorted `(path, kind)` order.
//!
//! The loader applies the same hostile-input discipline as
//! [`psl_core::snapfile`]: container checks (magic / version / flags /
//! pinned length / checksum), then full structural validation of dates,
//! record fences, checkpoint shape, and every record's kind, section,
//! label count, and label ids — each failure a typed
//! [`SnapshotError`], never a panic. Materialisation goes through
//! [`FrozenList::compile_ids`] on the sorted rule map, so a given version
//! always produces the same arena bytes no matter which checkpoint the
//! replay started from (the delta round-trip proptests pin this).

use crate::compile::CompiledHistory;
use crate::history::History;
use psl_core::snapfile::{checksum64, SnapshotError};
use psl_core::{Date, FrozenList, LabelInterner, RuleKind, Section};
use std::collections::BTreeMap;

/// Magic bytes opening every compiled-history file.
pub const HISTORY_MAGIC: [u8; 8] = *b"PSLHIST1";

/// Current history file format version. Bump on ANY layout change.
pub const HISTORY_FORMAT_VERSION: u32 = 1;

/// Default checkpoint cadence: a materialisation replays at most this
/// many versions' deltas. 16 keeps replay cost trivial while deltas (a
/// few records) dominate checkpoints (thousands) in between.
pub const DEFAULT_CHECKPOINT_EVERY: u32 = 16;

const SECTION_COUNT: usize = 7;
const TABLE_OFFSET: usize = 40;
const HEADER_LEN: usize = TABLE_OFFSET + SECTION_COUNT * 16;

const SECTION_NAMES: [&str; SECTION_COUNT] =
    ["label_offsets", "label_bytes", "dates", "rec_offsets", "del_counts", "add_counts", "records"];

fn u32_at(buf: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(buf[off..off + 4].try_into().expect("bounds checked"))
}

fn u64_at(buf: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(buf[off..off + 8].try_into().expect("bounds checked"))
}

fn push_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

type RuleMap = BTreeMap<(Vec<u32>, u8), u8>;

fn kind_code(kind: RuleKind) -> u8 {
    match kind {
        RuleKind::Normal => 0,
        RuleKind::Wildcard => 1,
        RuleKind::Exception => 2,
    }
}

fn code_kind(code: u8) -> RuleKind {
    match code {
        0 => RuleKind::Normal,
        1 => RuleKind::Wildcard,
        _ => RuleKind::Exception,
    }
}

fn code_section(code: u8) -> Section {
    if code == 0 {
        Section::Icann
    } else {
        Section::Private
    }
}

/// Serialise `history` into a delta-compressed compiled-history file.
///
/// The label interner is built by replaying the history's rule changes in
/// order ([`History::replay_changes`], as [`CompiledHistory::build`]
/// does), so the output is a pure function of the history contents.
/// `checkpoint_every` of 1 makes every version a checkpoint (no deltas at
/// all); the [`DEFAULT_CHECKPOINT_EVERY`] cadence is what `pslharm
/// compile --history` ships.
pub fn write_history_file(history: &History, checkpoint_every: u32) -> Vec<u8> {
    assert!(checkpoint_every >= 1, "checkpoint cadence must be >= 1");

    let mut interner = LabelInterner::new();
    let mut map: RuleMap = BTreeMap::new();

    // Per-version record payloads (kind, section, path), already split
    // into removals and additions.
    let mut dels_per_version: Vec<Vec<(u8, Vec<u32>)>> = Vec::new();
    let mut adds_per_version: Vec<Vec<(u8, u8, Vec<u32>)>> = Vec::new();

    history.replay_changes(|vi, _, changes| {
        let prev = map.clone();
        for (is_add, rule) in changes {
            let path: Vec<u32> = rule.labels().iter().rev().map(|l| interner.intern(l)).collect();
            let key = (path, kind_code(rule.kind()));
            if is_add {
                let section = if rule.section() == Section::Private { 1 } else { 0 };
                map.insert(key, section);
            } else {
                map.remove(&key);
            }
        }
        let checkpoint = (vi as u32).is_multiple_of(checkpoint_every);
        if checkpoint {
            dels_per_version.push(Vec::new());
            adds_per_version
                .push(map.iter().map(|((path, kind), &sec)| (*kind, sec, path.clone())).collect());
        } else {
            let mut dels = Vec::new();
            let mut adds = Vec::new();
            for key in prev.keys() {
                if !map.contains_key(key) {
                    dels.push((key.1, key.0.clone()));
                }
            }
            for (key, &sec) in &map {
                if prev.get(key) != Some(&sec) {
                    adds.push((key.1, sec, key.0.clone()));
                }
            }
            dels_per_version.push(dels);
            adds_per_version.push(adds);
        }
    });

    // Label string arena.
    let mut label_offsets: Vec<u32> = Vec::with_capacity(interner.len() + 1);
    let mut label_bytes: Vec<u8> = Vec::new();
    label_offsets.push(0);
    for label in interner.labels() {
        label_bytes.extend_from_slice(label.as_bytes());
        label_offsets.push(u32::try_from(label_bytes.len()).expect("label arena overflow"));
    }

    // Record stream + per-version fences.
    let mut records: Vec<u8> = Vec::new();
    let mut rec_offsets: Vec<u64> = Vec::with_capacity(history.version_count() + 1);
    let mut del_counts: Vec<u32> = Vec::with_capacity(history.version_count());
    let mut add_counts: Vec<u32> = Vec::with_capacity(history.version_count());
    let push_record = |records: &mut Vec<u8>, kind: u8, section: u8, path: &[u32]| {
        let len = u32::try_from(path.len()).expect("path length overflow");
        assert!(len < (1 << 16), "rule path too long for the record format");
        push_u32(records, (len << 16) | (u32::from(section) << 8) | u32::from(kind));
        for &id in path {
            push_u32(records, id);
        }
    };
    rec_offsets.push(0);
    for (dels, adds) in dels_per_version.iter().zip(&adds_per_version) {
        for (kind, path) in dels {
            push_record(&mut records, *kind, 0, path);
        }
        for (kind, section, path) in adds {
            push_record(&mut records, *kind, *section, path);
        }
        rec_offsets.push(records.len() as u64);
        del_counts.push(u32::try_from(dels.len()).expect("del count overflow"));
        add_counts.push(u32::try_from(adds.len()).expect("add count overflow"));
    }

    // Assemble the container.
    let mut buf = Vec::new();
    buf.extend_from_slice(&HISTORY_MAGIC);
    push_u32(&mut buf, HISTORY_FORMAT_VERSION);
    push_u32(&mut buf, 0); // flags
    push_u64(&mut buf, 0); // total_len, patched below
    push_u32(&mut buf, u32::try_from(history.version_count()).expect("version overflow"));
    push_u32(&mut buf, u32::try_from(interner.len()).expect("label overflow"));
    push_u32(&mut buf, checkpoint_every);
    push_u32(&mut buf, 0); // reserved
    let table_at = buf.len();
    buf.resize(buf.len() + SECTION_COUNT * 16, 0);
    debug_assert_eq!(buf.len(), HEADER_LEN);

    let mut table: Vec<(u64, u64)> = Vec::with_capacity(SECTION_COUNT);
    let write_section = |buf: &mut Vec<u8>, table: &mut Vec<(u64, u64)>, body: &[u8]| {
        while !buf.len().is_multiple_of(8) {
            buf.push(0);
        }
        let start = buf.len();
        buf.extend_from_slice(body);
        table.push((start as u64, body.len() as u64));
    };
    let u32_bytes = |w: &[u32]| w.iter().flat_map(|v| v.to_le_bytes()).collect::<Vec<u8>>();
    let u64_bytes = |w: &[u64]| w.iter().flat_map(|v| v.to_le_bytes()).collect::<Vec<u8>>();
    let dates_bytes = history
        .versions()
        .iter()
        .flat_map(|d| d.days_since_epoch().to_le_bytes())
        .collect::<Vec<u8>>();

    write_section(&mut buf, &mut table, &u32_bytes(&label_offsets));
    write_section(&mut buf, &mut table, &label_bytes);
    write_section(&mut buf, &mut table, &dates_bytes);
    write_section(&mut buf, &mut table, &u64_bytes(&rec_offsets));
    write_section(&mut buf, &mut table, &u32_bytes(&del_counts));
    write_section(&mut buf, &mut table, &u32_bytes(&add_counts));
    write_section(&mut buf, &mut table, &records);

    for (i, (off, len)) in table.iter().enumerate() {
        buf[table_at + i * 16..table_at + i * 16 + 8].copy_from_slice(&off.to_le_bytes());
        buf[table_at + i * 16 + 8..table_at + i * 16 + 16].copy_from_slice(&len.to_le_bytes());
    }
    while buf.len() % 8 != 0 {
        buf.push(0);
    }
    let total = (buf.len() + 8) as u64;
    buf[16..24].copy_from_slice(&total.to_le_bytes());
    let sum = checksum64(&buf);
    buf.extend_from_slice(&sum.to_le_bytes());
    buf
}

/// A loaded, validated compiled-history file: one shared interner + lazy
/// per-version delta materialisation.
#[derive(Debug, Clone)]
pub struct CompiledHistoryFile {
    bytes: Vec<u8>,
    interner: LabelInterner,
    dates: Vec<Date>,
    /// Absolute byte ranges of each version's records: `rec[i]..rec[i+1]`.
    rec_fences: Vec<usize>,
    del_counts: Vec<u32>,
    add_counts: Vec<u32>,
    checkpoint_every: u32,
}

impl CompiledHistoryFile {
    /// Validate `bytes` as a compiled-history file (hostile-input rules:
    /// every rejection is a typed [`SnapshotError`], never a panic) and
    /// take ownership of the buffer for lazy materialisation.
    pub fn load(bytes: Vec<u8>) -> Result<Self, SnapshotError> {
        let buf = &bytes[..];
        if buf.len() < 8 {
            return Err(SnapshotError::Truncated { need: 8, have: buf.len() });
        }
        if buf[..8] != HISTORY_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        if buf.len() < 12 {
            return Err(SnapshotError::Truncated { need: 12, have: buf.len() });
        }
        let version = u32_at(buf, 8);
        if version != HISTORY_FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: HISTORY_FORMAT_VERSION,
            });
        }
        if buf.len() < HEADER_LEN + 8 {
            return Err(SnapshotError::Truncated { need: HEADER_LEN + 8, have: buf.len() });
        }
        let total_len = u64_at(buf, 16);
        if total_len != buf.len() as u64 {
            return Err(SnapshotError::LengthMismatch { header: total_len, actual: buf.len() });
        }
        let data_end = buf.len() - 8;
        let stored = u64_at(buf, data_end);
        let computed = checksum64(&buf[..data_end]);
        if stored != computed {
            return Err(SnapshotError::ChecksumMismatch { computed, stored });
        }
        let flags = u32_at(buf, 12);
        if flags != 0 {
            return Err(SnapshotError::BadFlags { flags });
        }
        let reserved = u32_at(buf, 36);
        if reserved != 0 {
            return Err(SnapshotError::BadFlags { flags: reserved });
        }
        let version_count = u32_at(buf, 24);
        let label_count = u32_at(buf, 28);
        let checkpoint_every = u32_at(buf, 32);
        if version_count == 0 {
            return Err(SnapshotError::EmptyHistory);
        }
        if label_count == u32::MAX {
            return Err(SnapshotError::CountTooLarge { what: "label" });
        }
        if checkpoint_every == 0 {
            return Err(SnapshotError::BadCheckpoint { version: 0 });
        }

        // Section table.
        let expected_sizes: [Option<u64>; SECTION_COUNT] = [
            Some((u64::from(label_count) + 1) * 4),
            None, // label_bytes, checked via prefix sums
            Some(u64::from(version_count) * 4),
            Some((u64::from(version_count) + 1) * 8),
            Some(u64::from(version_count) * 4),
            Some(u64::from(version_count) * 4),
            None, // records, checked via fences
        ];
        let mut sections: [std::ops::Range<usize>; SECTION_COUNT] = Default::default();
        let mut prev_end = HEADER_LEN as u64;
        for i in 0..SECTION_COUNT {
            let name = SECTION_NAMES[i];
            let off = u64_at(buf, TABLE_OFFSET + i * 16);
            let len = u64_at(buf, TABLE_OFFSET + i * 16 + 8);
            if !off.is_multiple_of(8) {
                return Err(SnapshotError::Misaligned { section: name, offset: off });
            }
            if off < prev_end {
                return Err(SnapshotError::SectionOverlap { section: name });
            }
            if off > data_end as u64 || len > data_end as u64 - off {
                return Err(SnapshotError::SectionOutOfBounds { section: name });
            }
            if let Some(expected) = expected_sizes[i] {
                if len != expected {
                    return Err(SnapshotError::SectionSizeMismatch {
                        section: name,
                        expected,
                        found: len,
                    });
                }
            }
            prev_end = off + len;
            sections[i] = off as usize..(off + len) as usize;
        }

        // Label arena.
        let lo = &sections[0];
        let lb = &sections[1];
        let arena_len = lb.len() as u64;
        let label_offset = |i: u32| u32_at(buf, lo.start + i as usize * 4);
        if label_offset(0) != 0 {
            return Err(SnapshotError::BadLabelOffsets { index: 0 });
        }
        let mut labels: Vec<String> = Vec::with_capacity(label_count as usize);
        for i in 0..label_count {
            let (a, b) = (label_offset(i), label_offset(i + 1));
            if b < a || u64::from(b) > arena_len {
                return Err(SnapshotError::BadLabelOffsets { index: i + 1 });
            }
            let s = &buf[lb.start + a as usize..lb.start + b as usize];
            match std::str::from_utf8(s) {
                Ok(s) => labels.push(s.to_string()),
                Err(_) => return Err(SnapshotError::LabelNotUtf8 { id: i }),
            }
        }
        if u64::from(label_offset(label_count)) != arena_len {
            return Err(SnapshotError::BadLabelOffsets { index: label_count });
        }

        // Dates: strictly ascending.
        let mut dates: Vec<Date> = Vec::with_capacity(version_count as usize);
        for i in 0..version_count as usize {
            let days = i32::from_le_bytes(
                buf[sections[2].start + i * 4..sections[2].start + i * 4 + 4]
                    .try_into()
                    .expect("sized section"),
            );
            let d = Date::from_days_since_epoch(days);
            if let Some(&prev) = dates.last() {
                if d <= prev {
                    return Err(SnapshotError::BadVersionDates { index: i as u32 });
                }
            }
            dates.push(d);
        }

        // Record fences: 4-aligned monotonic prefix offsets closing at the
        // records section length.
        let records = sections[6].clone();
        let mut rec_fences: Vec<usize> = Vec::with_capacity(version_count as usize + 1);
        let mut prev_fence = 0u64;
        for i in 0..=version_count {
            let v = u64_at(buf, sections[3].start + i as usize * 8);
            if !v.is_multiple_of(4) || v > records.len() as u64 || (i > 0 && v < prev_fence) {
                return Err(SnapshotError::BadRecordIndex { index: i });
            }
            prev_fence = v;
            rec_fences.push(records.start + v as usize);
        }
        if rec_fences[0] != records.start || prev_fence != records.len() as u64 {
            return Err(SnapshotError::BadRecordIndex { index: version_count });
        }

        // Per-version counts + full record validation.
        let mut del_counts = Vec::with_capacity(version_count as usize);
        let mut add_counts = Vec::with_capacity(version_count as usize);
        for i in 0..version_count {
            let dels = u32_at(buf, sections[4].start + i as usize * 4);
            let adds = u32_at(buf, sections[5].start + i as usize * 4);
            if i % checkpoint_every == 0 && dels != 0 {
                return Err(SnapshotError::BadCheckpoint { version: i });
            }
            let mut pos = rec_fences[i as usize];
            let end = rec_fences[i as usize + 1];
            for r in 0..u64::from(dels) + u64::from(adds) {
                if pos + 4 > end {
                    return Err(SnapshotError::BadRecord {
                        version: i,
                        reason: "record stream ends mid-record",
                    });
                }
                let word = u32_at(buf, pos);
                pos += 4;
                let kind = (word & 0xff) as u8;
                let section = ((word >> 8) & 0xff) as u8;
                let len = word >> 16;
                if kind > 2 {
                    return Err(SnapshotError::BadRecord { version: i, reason: "unknown kind" });
                }
                if section > 1 {
                    return Err(SnapshotError::BadRecord { version: i, reason: "unknown section" });
                }
                if r < u64::from(dels) && section != 0 {
                    return Err(SnapshotError::BadRecord {
                        version: i,
                        reason: "removal carries a section",
                    });
                }
                if len == 0 {
                    return Err(SnapshotError::BadRecord { version: i, reason: "empty path" });
                }
                if kind == 2 && len < 2 {
                    return Err(SnapshotError::BadRecord {
                        version: i,
                        reason: "exception with fewer than two labels",
                    });
                }
                if pos + len as usize * 4 > end {
                    return Err(SnapshotError::BadRecord {
                        version: i,
                        reason: "path runs past the version's records",
                    });
                }
                for _ in 0..len {
                    let id = u32_at(buf, pos);
                    pos += 4;
                    if id >= label_count {
                        return Err(SnapshotError::BadRecord {
                            version: i,
                            reason: "label id out of range",
                        });
                    }
                }
            }
            if pos != end {
                return Err(SnapshotError::BadRecord {
                    version: i,
                    reason: "trailing bytes after the version's records",
                });
            }
            del_counts.push(dels);
            add_counts.push(adds);
        }

        let interner = LabelInterner::from_labels(labels);
        Ok(CompiledHistoryFile {
            bytes,
            interner,
            dates,
            rec_fences,
            del_counts,
            add_counts,
            checkpoint_every,
        })
    }

    /// Number of versions in the file.
    pub fn version_count(&self) -> usize {
        self.dates.len()
    }

    /// The version dates, ascending.
    pub fn dates(&self) -> &[Date] {
        &self.dates
    }

    /// The shared label interner (rebuilt from the string arena at load).
    pub fn interner(&self) -> &LabelInterner {
        &self.interner
    }

    /// The checkpoint cadence the file was written with.
    pub fn checkpoint_every(&self) -> u32 {
        self.checkpoint_every
    }

    /// Total file size in bytes.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// `(removals, additions)` record counts for one version.
    pub fn delta_counts(&self, index: usize) -> (usize, usize) {
        (self.del_counts[index] as usize, self.add_counts[index] as usize)
    }

    /// Total records across all versions (checkpoints included).
    pub fn record_count(&self) -> usize {
        self.del_counts.iter().chain(&self.add_counts).map(|&c| c as usize).sum()
    }

    /// Replay one version's records into `map` (removals, then adds).
    fn apply(&self, index: usize, map: &mut RuleMap) {
        let mut pos = self.rec_fences[index];
        let end = self.rec_fences[index + 1];
        let dels = self.del_counts[index];
        let mut r = 0u32;
        while pos < end {
            let word = u32_at(&self.bytes, pos);
            pos += 4;
            let kind = (word & 0xff) as u8;
            let section = ((word >> 8) & 0xff) as u8;
            let len = (word >> 16) as usize;
            let mut path = Vec::with_capacity(len);
            for _ in 0..len {
                path.push(u32_at(&self.bytes, pos));
                pos += 4;
            }
            if r < dels {
                map.remove(&(path, kind));
            } else {
                map.insert((path, kind), section);
            }
            r += 1;
        }
    }

    /// Materialise version `index` as a [`FrozenList`]: replay from the
    /// nearest checkpoint at or before it (at most `checkpoint_every`
    /// versions), then compile the sorted rule map through
    /// [`FrozenList::compile_ids`]. The result is a pure function of the
    /// version's rule set — independent of which checkpoint replay
    /// started from.
    pub fn materialize(&self, index: usize) -> FrozenList {
        assert!(index < self.version_count(), "version index out of range");
        let start = index - index % self.checkpoint_every as usize;
        let mut map: RuleMap = BTreeMap::new();
        for v in start..=index {
            self.apply(v, &mut map);
        }
        FrozenList::compile_ids(
            map.iter().map(|((path, kind), &sec)| (&path[..], code_kind(*kind), code_section(sec))),
        )
    }

    /// The newest version at or before `date`, materialised. `None` if the
    /// history starts after `date`.
    pub fn at(&self, date: Date) -> Option<FrozenList> {
        let idx = self.dates.partition_point(|&v| v <= date);
        idx.checked_sub(1).map(|i| self.materialize(i))
    }

    /// The latest version, materialised.
    pub fn latest(&self) -> FrozenList {
        self.materialize(self.version_count() - 1)
    }

    /// Materialise *every* version into an in-memory [`CompiledHistory`]
    /// — the load path pairing [`History::write_compiled_file`]. Replay is
    /// incremental (one sequential pass, not per-version checkpoint
    /// seeks), so this costs one compile per version like
    /// [`CompiledHistory::build`] does.
    pub fn to_compiled_history(&self) -> CompiledHistory {
        let mut map: RuleMap = BTreeMap::new();
        let mut versions = Vec::with_capacity(self.version_count());
        for i in 0..self.version_count() {
            if (i as u32).is_multiple_of(self.checkpoint_every) {
                // A checkpoint is the complete rule set, not a delta:
                // sequential replay must not carry entries across it.
                map.clear();
            }
            self.apply(i, &mut map);
            let frozen = FrozenList::compile_ids(
                map.iter()
                    .map(|((path, kind), &sec)| (&path[..], code_kind(*kind), code_section(sec))),
            );
            versions.push((self.dates[i], frozen));
        }
        CompiledHistory::from_parts(self.interner.clone(), versions)
    }
}

impl History {
    /// Serialise this history into a delta-compressed compiled-history
    /// file (see [`write_history_file`]); load it back with
    /// [`CompiledHistoryFile::load`]. This is the durable counterpart of
    /// [`History::compiled_versions`].
    pub fn write_compiled_file(&self, checkpoint_every: u32) -> Vec<u8> {
        write_history_file(self, checkpoint_every)
    }
}
