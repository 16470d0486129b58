//! Versioned zero-copy on-disk snapshot format for compiled lists.
//!
//! A snapshot is the byte-exact serial form of one [`FrozenList`] plus the
//! [`LabelInterner`] it was compiled against. The layout is designed so a
//! loader can *reinterpret* the arena sections in place: [`SnapshotView`]
//! validates the header, checksum and every structural invariant once and
//! reads counts, labels and section extents straight out of the buffer,
//! and [`FrozenList::load`] then bulk-copies the sections into an owned
//! [`FrozenList`] without any per-element decoding, hashing, or tree
//! building. Lookups run on the owned arena, by the walk in
//! [`crate::frozen`].
//!
//! ## Byte layout (format version 1, all integers little-endian)
//!
//! ```text
//! offset  size  field
//! ------  ----  -----------------------------------------------------------
//!      0     8  magic           b"PSLSNAP1"
//!      8     4  format_version  u32 (currently 1)
//!     12     4  flags           u32 (must be 0)
//!     16     8  total_len       u64 (whole file, including checksum)
//!     24     4  rules           u32 (distinct (path, kind) slots)
//!     28     4  label_count     u32 (interner size)
//!     32     4  node_count      u32 (arena nodes incl. root; >= 1)
//!     36     4  edge_count      u32 (must equal node_count - 1)
//!     40     4  root_table_len  u32
//!     44     4  reserved        u32 (must be 0)
//!     48   128  section table   8 x { offset u64, byte_len u64 }
//!    176     -  sections        each offset 8-byte aligned, in table order:
//!                 [0] label_offsets  u32 x (label_count + 1)   prefix sums
//!                 [1] label_bytes    u8  x label_offsets.last  UTF-8 arena
//!                 [2] span_start     u32 x node_count
//!                 [3] span_len       u32 x node_count
//!                 [4] slots          u8  x node_count          6-bit field
//!                 [5] edge_labels    u32 x edge_count          sorted spans
//!                 [6] edge_targets   u32 x edge_count
//!                 [7] root_table     u32 x root_table_len      NO_NODE gaps
//!  len-8      8  checksum        u64 checksum64 over bytes[0 .. len-8]
//! ```
//!
//! ## Hostile-input discipline
//!
//! The loader treats the buffer as attacker-controlled. Every structural
//! invariant the in-memory builder guarantees is re-checked here and turned
//! into a typed [`SnapshotError`] — never a panic, never a silently wrong
//! matcher: magic/version/flags, exact `total_len`, checksum, section
//! alignment/bounds/order, label-offset monotonicity and UTF-8, span
//! contiguity (spans tile the edge arrays exactly), sorted spans, in-range
//! edge labels and targets, single-parent all-reachable tree shape, slot
//! bit hygiene (no bits above 0x3f, no orphan section bits, nothing on the
//! root, no exception above depth 2), an exact rule recount, and a root
//! dispatch table that mirrors the root span entry for entry. The
//! fault-injection battery in `tests/snapshot_corruption.rs` and the
//! `snapshot` fuzz target exercise each rejection path.
//!
//! Versioning rule: any change to this layout must bump
//! [`LIST_FORMAT_VERSION`] (readers reject unknown versions with
//! [`SnapshotError::UnsupportedVersion`]); the conformance crate pins a
//! golden binary vector so an accidental layout drift fails loudly.

use crate::frozen::{
    FrozenList, LabelInterner, EXCEPTION, EXCEPTION_PRIVATE, NORMAL, NORMAL_PRIVATE, NO_NODE,
    WILDCARD, WILDCARD_PRIVATE,
};
use std::fmt;
use std::ops::Range;

/// Magic bytes opening every single-list snapshot file.
pub const LIST_MAGIC: [u8; 8] = *b"PSLSNAP1";

/// Current single-list snapshot format version. Bump on ANY layout change.
pub const LIST_FORMAT_VERSION: u32 = 1;

/// Section names, in file order (also the order of [`SnapshotView::sections`]).
pub const SECTION_NAMES: [&str; 8] = [
    "label_offsets",
    "label_bytes",
    "span_start",
    "span_len",
    "slots",
    "edge_labels",
    "edge_targets",
    "root_table",
];

const SECTION_COUNT: usize = 8;
const TABLE_OFFSET: usize = 48;

/// Fixed header size: magic + scalar fields + section table.
pub const HEADER_LEN: usize = TABLE_OFFSET + SECTION_COUNT * 16;

/// The snapshot trailer checksum: an FNV-1a-style mix folded over 8-byte
/// little-endian words (zero-padded tail, length mixed into the seed so
/// trailing-zero extensions change the digest). Word folding makes the
/// verify gate ~8x cheaper than byte-at-a-time FNV, which matters because
/// every cold start pays it. Not cryptographic: it detects corruption and
/// truncation, not forgery (the structural validation pass is what stands
/// between a forged buffer and the matcher).
pub fn checksum64(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x100_0000_01b3;
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ (bytes.len() as u64).wrapping_mul(PRIME);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h ^= u64::from_le_bytes(c.try_into().expect("chunks_exact yields 8 bytes"));
        h = h.wrapping_mul(PRIME);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h ^= u64::from_le_bytes(tail);
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// Recompute and overwrite the trailing checksum of a snapshot buffer (any
/// container format with a [`checksum64`] `u64` trailer). Used by tests and
/// the fuzzer to make structurally-mutated buffers pass the checksum gate so
/// the deeper validation layers are actually reached. No-op on buffers too
/// short to hold a trailer.
pub fn reseal(buf: &mut [u8]) {
    if buf.len() < 8 {
        return;
    }
    let end = buf.len() - 8;
    let sum = checksum64(&buf[..end]);
    buf[end..].copy_from_slice(&sum.to_le_bytes());
}

/// Why a snapshot buffer was rejected. Every variant corresponds to a
/// distinct validation gate in [`SnapshotView::parse`] or the history-file
/// loader; the fault-injection battery asserts each is reachable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// Buffer shorter than the fixed header + checksum trailer.
    Truncated {
        /// Bytes required before parsing can proceed.
        need: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// The leading magic bytes are not a known snapshot magic.
    BadMagic,
    /// Recognised magic but an unknown format version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// The single version this reader supports.
        supported: u32,
    },
    /// Reserved flag bits were set.
    BadFlags {
        /// The offending flags word.
        flags: u32,
    },
    /// The header's `total_len` disagrees with the buffer length.
    LengthMismatch {
        /// Length claimed by the header.
        header: u64,
        /// Actual buffer length.
        actual: usize,
    },
    /// The FNV-1a trailer does not match the buffer contents.
    ChecksumMismatch {
        /// Checksum recomputed over the buffer.
        computed: u64,
        /// Checksum stored in the trailer.
        stored: u64,
    },
    /// A section offset is not 8-byte aligned.
    Misaligned {
        /// Section name (see [`SECTION_NAMES`]).
        section: &'static str,
        /// The unaligned offset.
        offset: u64,
    },
    /// A section starts before the previous one ends (or inside the header).
    SectionOverlap {
        /// Section name.
        section: &'static str,
    },
    /// A section extends past the end of the buffer (minus the trailer).
    SectionOutOfBounds {
        /// Section name.
        section: &'static str,
    },
    /// A section's byte length disagrees with the header counts.
    SectionSizeMismatch {
        /// Section name.
        section: &'static str,
        /// Length implied by the header counts.
        expected: u64,
        /// Length recorded in the section table.
        found: u64,
    },
    /// A count field collides with a sentinel (`u32::MAX` is reserved).
    CountTooLarge {
        /// Which count.
        what: &'static str,
    },
    /// `node_count` of zero — even an empty list has a root node.
    EmptyNodeTable,
    /// `edge_count != node_count - 1`: the arena cannot be a tree.
    EdgeNodeMismatch {
        /// Nodes in the header.
        nodes: u32,
        /// Edges in the header.
        edges: u32,
    },
    /// Label prefix sums are non-monotonic, don't start at 0, or don't end
    /// at the string arena length.
    BadLabelOffsets {
        /// First offending prefix-sum index.
        index: u32,
    },
    /// A label's byte range is not valid UTF-8.
    LabelNotUtf8 {
        /// The offending label id.
        id: u32,
    },
    /// Node spans do not tile the edge arrays exactly (`node` of
    /// `node_count` means the running total missed `edge_count`).
    NonContiguousSpans {
        /// First offending node.
        node: u32,
    },
    /// A span's labels are not strictly increasing.
    UnsortedSpan {
        /// The offending node.
        node: u32,
    },
    /// An edge label id is out of range for the interner.
    DanglingLabel {
        /// The offending edge index.
        edge: u32,
    },
    /// An edge target is the root or out of range for the node table.
    DanglingNode {
        /// The offending edge index.
        edge: u32,
    },
    /// A node is unreachable from the root or has two parents.
    NotATree {
        /// The offending node.
        node: u32,
    },
    /// A slot byte uses bits above 0x3f or a section bit without its
    /// presence bit.
    BadSlotBits {
        /// The offending node.
        node: u32,
    },
    /// The root node carries rule slots (rules have at least one label).
    RootSlot,
    /// An exception slot at depth < 2 (exceptions strip their leftmost
    /// label, so they need at least two).
    ShallowException {
        /// The offending node.
        node: u32,
    },
    /// The root dispatch table's length or an entry disagrees with the
    /// root node's edge span.
    BadRootTable {
        /// Offending entry index (or the bad length itself).
        index: u32,
    },
    /// The header's rule count disagrees with a recount of the slot bits.
    RuleCountMismatch {
        /// Count claimed by the header.
        header: u64,
        /// Count recomputed from the slots.
        counted: u64,
    },
    /// History file: zero versions (a history always has at least one).
    EmptyHistory,
    /// History file: version dates are not strictly increasing.
    BadVersionDates {
        /// The offending version index.
        index: u32,
    },
    /// History file: the per-version record index is non-monotonic,
    /// misaligned, or out of bounds.
    BadRecordIndex {
        /// The offending version index.
        index: u32,
    },
    /// History file: a delta record is malformed.
    BadRecord {
        /// The version whose delta contains the record.
        version: u32,
        /// What was wrong with it.
        reason: &'static str,
    },
    /// History file: a checkpoint version contains removals.
    BadCheckpoint {
        /// The offending version index.
        version: u32,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use SnapshotError::*;
        match *self {
            Truncated { need, have } => {
                write!(f, "snapshot truncated: need {need} bytes, have {have}")
            }
            BadMagic => write!(f, "not a snapshot file (bad magic)"),
            UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "unsupported snapshot format version {found} (reader supports {supported})"
                )
            }
            BadFlags { flags } => write!(f, "reserved flag bits set: {flags:#x}"),
            LengthMismatch { header, actual } => {
                write!(f, "header claims {header} bytes, buffer has {actual}")
            }
            ChecksumMismatch { computed, stored } => {
                write!(f, "checksum mismatch: computed {computed:#018x}, stored {stored:#018x}")
            }
            Misaligned { section, offset } => {
                write!(f, "section {section} at unaligned offset {offset}")
            }
            SectionOverlap { section } => write!(f, "section {section} overlaps its predecessor"),
            SectionOutOfBounds { section } => {
                write!(f, "section {section} extends past the buffer")
            }
            SectionSizeMismatch { section, expected, found } => {
                write!(f, "section {section} is {found} bytes, header counts imply {expected}")
            }
            CountTooLarge { what } => write!(f, "{what} count collides with the sentinel id space"),
            EmptyNodeTable => write!(f, "node_count is zero (no root node)"),
            EdgeNodeMismatch { nodes, edges } => {
                write!(f, "{edges} edges cannot form a tree over {nodes} nodes")
            }
            BadLabelOffsets { index } => write!(f, "label prefix sums broken at index {index}"),
            LabelNotUtf8 { id } => write!(f, "label {id} is not valid UTF-8"),
            NonContiguousSpans { node } => {
                write!(f, "edge spans do not tile the edge array (node {node})")
            }
            UnsortedSpan { node } => write!(f, "edge span of node {node} is not sorted"),
            DanglingLabel { edge } => write!(f, "edge {edge} references an out-of-range label id"),
            DanglingNode { edge } => write!(f, "edge {edge} targets an invalid node"),
            NotATree { node } => write!(f, "node {node} is unreachable or has two parents"),
            BadSlotBits { node } => write!(f, "node {node} has invalid slot bits"),
            RootSlot => write!(f, "root node carries rule slots"),
            ShallowException { node } => {
                write!(f, "exception slot at node {node} above depth 2")
            }
            BadRootTable { index } => write!(f, "root dispatch table wrong at entry {index}"),
            RuleCountMismatch { header, counted } => {
                write!(f, "header claims {header} rules, slots hold {counted}")
            }
            EmptyHistory => write!(f, "history file holds zero versions"),
            BadVersionDates { index } => {
                write!(f, "history version dates not strictly increasing at index {index}")
            }
            BadRecordIndex { index } => {
                write!(f, "history record index broken at version {index}")
            }
            BadRecord { version, reason } => {
                write!(f, "malformed delta record in version {version}: {reason}")
            }
            BadCheckpoint { version } => {
                write!(f, "checkpoint version {version} contains removals")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

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

/// A validated, zero-copy view over a snapshot buffer.
///
/// [`SnapshotView::parse`] runs the full hostile-input validation pass
/// once; afterwards every accessor reads little-endian words directly out
/// of the borrowed buffer. The view answers what a snapshot holds (counts,
/// labels, section extents) for tooling, and [`SnapshotView::materialize`]
/// copies it into the owned arena every lookup runs on.
#[derive(Debug, Clone)]
pub struct SnapshotView<'a> {
    buf: &'a [u8],
    sections: [Range<usize>; SECTION_COUNT],
    rules: u32,
    label_count: u32,
    node_count: u32,
    edge_count: u32,
    root_table_len: u32,
}

// Section indices, matching SECTION_NAMES.
const SEC_LABEL_OFFSETS: usize = 0;
const SEC_LABEL_BYTES: usize = 1;
const SEC_SPAN_START: usize = 2;
const SEC_SPAN_LEN: usize = 3;
const SEC_SLOTS: usize = 4;
const SEC_EDGE_LABELS: usize = 5;
const SEC_EDGE_TARGETS: usize = 6;
const SEC_ROOT_TABLE: usize = 7;

impl<'a> SnapshotView<'a> {
    /// Validate `buf` as a single-list snapshot and return a queryable
    /// view borrowing it. Every rejection is a typed [`SnapshotError`];
    /// this function never panics on any input.
    pub fn parse(buf: &'a [u8]) -> Result<SnapshotView<'a>, SnapshotError> {
        if buf.len() < 8 {
            return Err(SnapshotError::Truncated { need: 8, have: buf.len() });
        }
        if buf[..8] != LIST_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        if buf.len() < 12 {
            return Err(SnapshotError::Truncated { need: 12, have: buf.len() });
        }
        let version = u32_at(buf, 8);
        if version != LIST_FORMAT_VERSION {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                supported: LIST_FORMAT_VERSION,
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
        let reserved = u32_at(buf, 44);
        if reserved != 0 {
            return Err(SnapshotError::BadFlags { flags: reserved });
        }
        let rules = u32_at(buf, 24);
        let label_count = u32_at(buf, 28);
        let node_count = u32_at(buf, 32);
        let edge_count = u32_at(buf, 36);
        let root_table_len = u32_at(buf, 40);
        if label_count == u32::MAX {
            return Err(SnapshotError::CountTooLarge { what: "label" });
        }
        if node_count == 0 {
            return Err(SnapshotError::EmptyNodeTable);
        }
        if node_count == u32::MAX {
            return Err(SnapshotError::CountTooLarge { what: "node" });
        }
        if edge_count != node_count - 1 {
            return Err(SnapshotError::EdgeNodeMismatch { nodes: node_count, edges: edge_count });
        }

        // Section table: aligned, in order, in bounds, sized by the counts.
        let expected_sizes: [Option<u64>; SECTION_COUNT] = [
            Some((u64::from(label_count) + 1) * 4),
            None, // label_bytes: checked against the prefix sums below
            Some(u64::from(node_count) * 4),
            Some(u64::from(node_count) * 4),
            Some(u64::from(node_count)),
            Some(u64::from(edge_count) * 4),
            Some(u64::from(edge_count) * 4),
            Some(u64::from(root_table_len) * 4),
        ];
        let mut sections: [Range<usize>; SECTION_COUNT] = Default::default();
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

        let view = SnapshotView {
            buf,
            sections,
            rules,
            label_count,
            node_count,
            edge_count,
            root_table_len,
        };

        // Label arena: monotonic prefix sums bounded by the byte arena,
        // every label valid UTF-8.
        let arena_len = view.sections[SEC_LABEL_BYTES].len() as u64;
        if view.label_offset(0) != 0 {
            return Err(SnapshotError::BadLabelOffsets { index: 0 });
        }
        for i in 0..view.label_count {
            let (a, b) = (view.label_offset(i), view.label_offset(i + 1));
            if b < a || u64::from(b) > arena_len {
                return Err(SnapshotError::BadLabelOffsets { index: i + 1 });
            }
            let bytes_range = &view.buf[view.sections[SEC_LABEL_BYTES].start + a as usize
                ..view.sections[SEC_LABEL_BYTES].start + b as usize];
            if std::str::from_utf8(bytes_range).is_err() {
                return Err(SnapshotError::LabelNotUtf8 { id: i });
            }
        }
        if u64::from(view.label_offset(view.label_count)) != arena_len {
            return Err(SnapshotError::BadLabelOffsets { index: view.label_count });
        }

        // Spans must tile the edge arrays exactly, in node order.
        let mut running = 0u64;
        for n in 0..view.node_count {
            let start = view.span_start(n);
            let len = view.span_len(n);
            if u64::from(start) != running {
                return Err(SnapshotError::NonContiguousSpans { node: n });
            }
            running += u64::from(len);
            if running > u64::from(view.edge_count) {
                return Err(SnapshotError::NonContiguousSpans { node: n });
            }
        }
        if running != u64::from(view.edge_count) {
            return Err(SnapshotError::NonContiguousSpans { node: view.node_count });
        }

        // Edges: labels in interner range, targets real non-root nodes,
        // spans sorted strictly (sorted + duplicate-free).
        for e in 0..view.edge_count {
            if view.edge_label(e) >= view.label_count {
                return Err(SnapshotError::DanglingLabel { edge: e });
            }
            let t = view.edge_target(e);
            if t == 0 || t >= view.node_count {
                return Err(SnapshotError::DanglingNode { edge: e });
            }
        }
        for n in 0..view.node_count {
            let start = view.span_start(n);
            for k in 1..view.span_len(n) {
                if view.edge_label(start + k) <= view.edge_label(start + k - 1) {
                    return Err(SnapshotError::UnsortedSpan { node: n });
                }
            }
        }

        // Tree shape + depths (single parent, all reachable). With
        // edge_count == node_count - 1 already enforced, one BFS settles
        // both; depths feed the exception-depth rule below.
        let n = view.node_count as usize;
        let mut depth = vec![u32::MAX; n];
        depth[0] = 0;
        let mut queue = std::collections::VecDeque::with_capacity(n);
        queue.push_back(0u32);
        while let Some(node) = queue.pop_front() {
            let start = view.span_start(node);
            for k in 0..view.span_len(node) {
                let t = view.edge_target(start + k);
                if depth[t as usize] != u32::MAX {
                    return Err(SnapshotError::NotATree { node: t });
                }
                depth[t as usize] = depth[node as usize] + 1;
                queue.push_back(t);
            }
        }
        if let Some(orphan) = depth.iter().position(|&d| d == u32::MAX) {
            return Err(SnapshotError::NotATree { node: orphan as u32 });
        }

        // Slots: only the six defined bits, no orphan section bits, none
        // on the root, exceptions at depth >= 2; recount must match.
        let mut counted = 0u64;
        for node in 0..view.node_count {
            let s = view.slot(node);
            if s & !0x3f != 0 {
                return Err(SnapshotError::BadSlotBits { node });
            }
            for (present, private) in [
                (NORMAL, NORMAL_PRIVATE),
                (WILDCARD, WILDCARD_PRIVATE),
                (EXCEPTION, EXCEPTION_PRIVATE),
            ] {
                if s & private != 0 && s & present == 0 {
                    return Err(SnapshotError::BadSlotBits { node });
                }
                if s & present != 0 {
                    counted += 1;
                }
            }
            if node == 0 && s != 0 {
                return Err(SnapshotError::RootSlot);
            }
            if s & EXCEPTION != 0 && depth[node as usize] < 2 {
                return Err(SnapshotError::ShallowException { node });
            }
        }
        if counted != u64::from(view.rules) {
            return Err(SnapshotError::RuleCountMismatch {
                header: u64::from(view.rules),
                counted,
            });
        }

        // Root dispatch table: exactly mirrors the root span. The root's
        // span is the first span (contiguity fixed it at edge 0).
        let root_len = view.span_len(0);
        let expected_table = if root_len == 0 {
            0
        } else {
            // Sorted span: the last label is the maximum.
            view.edge_label(root_len - 1) + 1
        };
        if view.root_table_len != expected_table {
            return Err(SnapshotError::BadRootTable { index: view.root_table_len });
        }
        let mut k = 0u32;
        for i in 0..view.root_table_len {
            let want = if k < root_len && view.edge_label(k) == i {
                let t = view.edge_target(k);
                k += 1;
                t
            } else {
                NO_NODE
            };
            if view.root_entry(i) != want {
                return Err(SnapshotError::BadRootTable { index: i });
            }
        }

        Ok(view)
    }

    fn sec_u32(&self, sec: usize, idx: u32) -> u32 {
        u32_at(self.buf, self.sections[sec].start + idx as usize * 4)
    }

    fn label_offset(&self, i: u32) -> u32 {
        self.sec_u32(SEC_LABEL_OFFSETS, i)
    }

    fn span_start(&self, node: u32) -> u32 {
        self.sec_u32(SEC_SPAN_START, node)
    }

    fn span_len(&self, node: u32) -> u32 {
        self.sec_u32(SEC_SPAN_LEN, node)
    }

    fn edge_label(&self, edge: u32) -> u32 {
        self.sec_u32(SEC_EDGE_LABELS, edge)
    }

    fn edge_target(&self, edge: u32) -> u32 {
        self.sec_u32(SEC_EDGE_TARGETS, edge)
    }

    fn root_entry(&self, i: u32) -> u32 {
        self.sec_u32(SEC_ROOT_TABLE, i)
    }

    fn slot(&self, node: u32) -> u8 {
        self.buf[self.sections[SEC_SLOTS].start + node as usize]
    }

    /// Number of compiled rules.
    pub fn rules(&self) -> usize {
        self.rules as usize
    }

    /// Number of interned labels.
    pub fn label_count(&self) -> usize {
        self.label_count as usize
    }

    /// Number of arena nodes (including the root).
    pub fn node_count(&self) -> usize {
        self.node_count as usize
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count as usize
    }

    /// Length of the root dispatch table.
    pub fn root_table_len(&self) -> usize {
        self.root_table_len as usize
    }

    /// Total snapshot size in bytes.
    pub fn byte_len(&self) -> usize {
        self.buf.len()
    }

    /// `(name, offset, byte_len)` of each section, in file order.
    pub fn sections(&self) -> [(&'static str, u64, u64); SECTION_COUNT] {
        let mut out = [("", 0u64, 0u64); SECTION_COUNT];
        for i in 0..SECTION_COUNT {
            out[i] =
                (SECTION_NAMES[i], self.sections[i].start as u64, self.sections[i].len() as u64);
        }
        out
    }

    /// The label string behind an interned id, borrowed from the buffer.
    pub fn label(&self, id: u32) -> Option<&'a str> {
        if id >= self.label_count {
            return None;
        }
        let (a, b) = (self.label_offset(id) as usize, self.label_offset(id + 1) as usize);
        let bytes = &self.buf
            [self.sections[SEC_LABEL_BYTES].start + a..self.sections[SEC_LABEL_BYTES].start + b];
        Some(std::str::from_utf8(bytes).expect("validated at parse"))
    }

    /// Bulk-copy the sections into an owned interner + arena. No decoding
    /// beyond the endian-normalising word copies.
    pub fn materialize(&self) -> (LabelInterner, FrozenList) {
        let labels: Vec<String> =
            (0..self.label_count).map(|id| self.label(id).expect("in range").to_string()).collect();
        let interner = LabelInterner::from_labels(labels);
        let frozen = FrozenList::from_parts(
            self.read_u32_section(SEC_SPAN_START),
            self.read_u32_section(SEC_SPAN_LEN),
            self.buf[self.sections[SEC_SLOTS].clone()].to_vec(),
            self.read_u32_section(SEC_EDGE_LABELS),
            self.read_u32_section(SEC_EDGE_TARGETS),
            self.read_u32_section(SEC_ROOT_TABLE),
            self.rules as usize,
        );
        (interner, frozen)
    }

    fn read_u32_section(&self, sec: usize) -> Vec<u32> {
        self.buf[self.sections[sec].clone()]
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("chunked by 4")))
            .collect()
    }
}

/// Serialise an interner + compiled arena into snapshot bytes. The output
/// is deterministic: byte-identical inputs produce byte-identical files,
/// and `write(load(bytes))` reproduces `bytes` exactly (a fixpoint the
/// fuzz target checks).
pub fn write_list_snapshot(interner: &LabelInterner, frozen: &FrozenList) -> Vec<u8> {
    let p = frozen.parts();

    let mut label_offsets: Vec<u32> = Vec::with_capacity(interner.len() + 1);
    let mut label_bytes: Vec<u8> = Vec::new();
    label_offsets.push(0);
    for label in interner.labels() {
        label_bytes.extend_from_slice(label.as_bytes());
        label_offsets.push(u32::try_from(label_bytes.len()).expect("label arena overflow"));
    }

    let mut buf = Vec::new();
    buf.extend_from_slice(&LIST_MAGIC);
    push_u32(&mut buf, LIST_FORMAT_VERSION);
    push_u32(&mut buf, 0); // flags
    push_u64(&mut buf, 0); // total_len, patched below
    push_u32(&mut buf, u32::try_from(p.rules).expect("rule count overflow"));
    push_u32(&mut buf, u32::try_from(interner.len()).expect("label count overflow"));
    push_u32(&mut buf, u32::try_from(p.slots.len()).expect("node count overflow"));
    push_u32(&mut buf, u32::try_from(p.edge_labels.len()).expect("edge count overflow"));
    push_u32(&mut buf, u32::try_from(p.root_table.len()).expect("root table overflow"));
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
    let u32_bytes = |words: &[u32]| words.iter().flat_map(|w| w.to_le_bytes()).collect::<Vec<u8>>();

    write_section(&mut buf, &mut table, &u32_bytes(&label_offsets));
    write_section(&mut buf, &mut table, &label_bytes);
    write_section(&mut buf, &mut table, &u32_bytes(p.span_start));
    write_section(&mut buf, &mut table, &u32_bytes(p.span_len));
    write_section(&mut buf, &mut table, p.slots);
    write_section(&mut buf, &mut table, &u32_bytes(p.edge_labels));
    write_section(&mut buf, &mut table, &u32_bytes(p.edge_targets));
    write_section(&mut buf, &mut table, &u32_bytes(p.root_table));

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
    push_u64(&mut buf, sum);
    buf
}

impl FrozenList {
    /// Load a snapshot produced by [`write_list_snapshot`]: validate the
    /// header, checksum, and every structural invariant, then bulk-copy
    /// the sections into an owned interner + arena. All rejection paths
    /// return typed errors; see [`SnapshotError`].
    pub fn load(bytes: &[u8]) -> Result<(LabelInterner, FrozenList), SnapshotError> {
        Ok(SnapshotView::parse(bytes)?.materialize())
    }

    /// Serialise this arena (and the interner it was compiled against)
    /// into snapshot bytes. See [`write_list_snapshot`].
    pub fn write_snapshot(&self, interner: &LabelInterner) -> Vec<u8> {
        write_list_snapshot(interner, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rule::{Rule, Section};

    fn sample() -> (LabelInterner, FrozenList) {
        let rules: Vec<Rule> = [
            ("com", Section::Icann),
            ("co.uk", Section::Icann),
            ("uk", Section::Icann),
            ("*.ck", Section::Icann),
            ("!www.ck", Section::Icann),
            ("github.io", Section::Private),
        ]
        .iter()
        .map(|(t, s)| Rule::parse(t, *s).unwrap())
        .collect();
        let mut interner = LabelInterner::new();
        let frozen = FrozenList::compile(&rules, &mut interner);
        (interner, frozen)
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let (interner, frozen) = sample();
        let bytes = write_list_snapshot(&interner, &frozen);
        let (i2, f2) = FrozenList::load(&bytes).unwrap();
        assert_eq!(f2, frozen);
        assert_eq!(i2, interner);
        // Fixpoint: re-serialising the loaded arena reproduces the bytes.
        assert_eq!(write_list_snapshot(&i2, &f2), bytes);
    }

    /// The view reads the counts and labels `inspect` prints straight out
    /// of the buffer, equal to the arena and interner that were written.
    #[test]
    fn view_answers_without_materializing() {
        let (interner, frozen) = sample();
        let bytes = write_list_snapshot(&interner, &frozen);
        let view = SnapshotView::parse(&bytes).unwrap();
        assert_eq!(view.rules(), frozen.len());
        assert_eq!(view.node_count(), frozen.node_count());
        assert_eq!(view.edge_count(), frozen.edge_count());
        assert_eq!(view.label_count(), interner.len());
        assert_eq!(view.byte_len(), bytes.len());
        for id in 0..interner.len() as u32 {
            assert_eq!(view.label(id), interner.resolve(id));
        }
        assert_eq!(view.label(interner.len() as u32), None);
    }

    #[test]
    fn empty_list_round_trips() {
        let interner = LabelInterner::new();
        let frozen = FrozenList::default();
        let bytes = write_list_snapshot(&interner, &frozen);
        let (i2, f2) = FrozenList::load(&bytes).unwrap();
        assert_eq!(f2, frozen);
        assert_eq!(i2.len(), 0);
    }

    #[test]
    fn flipped_byte_is_caught_by_checksum() {
        let (interner, frozen) = sample();
        let mut bytes = write_list_snapshot(&interner, &frozen);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        match SnapshotView::parse(&bytes) {
            Err(SnapshotError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn reseal_reaches_structural_validation() {
        let (interner, frozen) = sample();
        let mut bytes = write_list_snapshot(&interner, &frozen);
        bytes[12] = 0xff; // flags
        reseal(&mut bytes);
        match SnapshotView::parse(&bytes) {
            Err(SnapshotError::BadFlags { flags: 0xff }) => {}
            other => panic!("expected BadFlags, got {other:?}"),
        }
    }
}
