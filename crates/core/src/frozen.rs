//! Compiled, immutable matchers: interned labels, flat arena tries, and
//! the one prevailing-rule walk.
//!
//! This module compiles a rule set into a [`FrozenList`]:
//!
//! - every label string is mapped to a dense `u32` id by a [`LabelInterner`]
//!   (shared across all versions of a history, so a hostname is split and
//!   interned **once** and then matched against every version as a `&[u32]`);
//! - nodes live in one contiguous arena in struct-of-arrays layout
//!   (`span_start`/`span_len`/`slots` are indexed by node id);
//! - children are sorted `(label_id, node_idx)` spans in two parallel flat
//!   arrays, resolved by binary search — no hashing, no pointers;
//! - the three per-node rule slots (normal/wildcard/exception × section)
//!   are packed into a six-bit bitfield, one byte per node.
//!
//! A [`VersionedList`] holds every version of a history in one such
//! arena: the node layout over every suffix path any version held, and
//! each node's slot byte as a list of steps over the versions.
//!
//! The walk is written once, over a small crate-private arena trait with
//! two accessors (a node's slot byte, a node's child along a label).
//! [`FrozenList`] implements it over its vectors,
//! [`crate::SnapshotView`] over the little-endian words of a snapshot
//! buffer and [`At`] over one version of a [`VersionedList`], so an owned
//! list, a mapped snapshot and any historical version run the same code.
//! [`FrozenList::disposition_by_ids`] walks with **zero heap allocation
//! per lookup**, and [`FrozenList::disposition`] does the same for string
//! labels by interning lazily (unknown labels map to the [`UNKNOWN_LABEL`]
//! sentinel, which by construction can never equal an edge label — but
//! still gets consumed by wildcard rules, as an unlisted label is in the
//! list's algorithm). [`crate::trie::disposition_linear`] is the oracle the
//! walk is checked against.

use crate::rule::{Rule, RuleKind, Section};
use crate::trie::{Disposition, MatchKind, MatchOpts};
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;

/// Sentinel id for a label that has never been interned. Guaranteed never
/// to be issued by [`LabelInterner::intern`], so comparing it against edge
/// labels always misses — which is precisely the semantics of a label
/// string absent from every rule.
pub const UNKNOWN_LABEL: u32 = u32::MAX;

/// FNV-1a, for hot-path maps whose keys cannot be attacker-steered into
/// collision floods. The interner's key set is fixed once compilation
/// finishes (rule labels only — lookups never insert), so the
/// hash-flooding resistance of the default `SipHash` buys nothing there,
/// while its cost is paid once per label of every hostname on the service
/// and sweep hot paths. The service's bounded per-worker lookup cache uses
/// it too: a flood can at worst degrade one worker's fixed-capacity cache
/// to chain scans, never grow memory.
#[derive(Debug, Clone)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl std::hash::Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        self.0 = h;
    }

    fn write_u32(&mut self, i: u32) {
        // One multiply per 4-byte word: label ids hash in a single step
        // instead of four byte rounds.
        self.0 = (self.0 ^ u64::from(i)).wrapping_mul(0x100_0000_01b3);
    }

    fn write_usize(&mut self, i: usize) {
        self.0 = (self.0 ^ i as u64).wrapping_mul(0x100_0000_01b3);
    }
}

/// `BuildHasher` for [`FnvHasher`] (see its DoS discussion before reaching
/// for this over the default hasher).
pub type FnvBuild = std::hash::BuildHasherDefault<FnvHasher>;

/// Maps label strings to dense `u32` ids, shared across all compiled
/// versions of a history so corpus hostnames can be interned once.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LabelInterner {
    map: HashMap<Box<str>, u32, FnvBuild>,
    labels: Vec<Box<str>>,
}

impl LabelInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct labels interned.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True if no labels have been interned.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Intern `label`, returning its dense id (existing id if seen before).
    pub fn intern(&mut self, label: &str) -> u32 {
        if let Some(&id) = self.map.get(label) {
            return id;
        }
        let id = u32::try_from(self.labels.len()).expect("interner overflow");
        assert!(id < UNKNOWN_LABEL, "interner exhausted the id space");
        self.labels.push(label.into());
        self.map.insert(label.into(), id);
        id
    }

    /// The id of `label`, if it has been interned.
    pub fn id(&self, label: &str) -> Option<u32> {
        self.map.get(label).copied()
    }

    /// The id of `label`, or [`UNKNOWN_LABEL`] if never interned.
    pub fn id_or_unknown(&self, label: &str) -> u32 {
        self.map.get(label).copied().unwrap_or(UNKNOWN_LABEL)
    }

    /// The label string for an id issued by this interner.
    pub fn resolve(&self, id: u32) -> Option<&str> {
        self.labels.get(id as usize).map(|s| &**s)
    }

    /// Intern every label of a reversed hostname, returning an owned id
    /// slice suitable for sweeping against many versions.
    pub fn intern_reversed(&mut self, reversed: &[&str]) -> Box<[u32]> {
        reversed.iter().map(|l| self.intern(l)).collect()
    }

    /// Map a reversed hostname to ids without interning new labels
    /// (unknown labels become [`UNKNOWN_LABEL`]). Reuses `out` to keep the
    /// caller's hot loop allocation-free after warm-up.
    pub fn ids_reversed(&self, reversed: &[&str], out: &mut Vec<u32>) {
        out.clear();
        out.extend(reversed.iter().map(|l| self.id_or_unknown(l)));
    }

    /// As [`LabelInterner::ids_reversed`], but splitting a canonical dotted
    /// hostname on the fly — no intermediate label vector, which matters on
    /// the service's per-request path.
    pub fn ids_of_host(&self, host: &str, out: &mut Vec<u32>) {
        out.clear();
        out.extend(host.rsplit('.').map(|l| self.id_or_unknown(l)));
    }

    /// The interned label strings in id order (`labels().nth(i)` is the
    /// string behind id `i`). This is the serialization order the snapshot
    /// format's string arena uses.
    pub fn labels(&self) -> impl Iterator<Item = &str> {
        self.labels.iter().map(|s| &**s)
    }

    /// Rebuild an interner from label strings in id order, as read back
    /// from a snapshot's string arena. Duplicate strings keep their first
    /// id in the lookup map (later ids still [`LabelInterner::resolve`]),
    /// mirroring how [`LabelInterner::intern`] would have behaved.
    pub fn from_labels(labels: Vec<String>) -> Self {
        let mut map: HashMap<Box<str>, u32, FnvBuild> = HashMap::default();
        let labels: Vec<Box<str>> = labels.into_iter().map(Box::<str>::from).collect();
        for (i, label) in labels.iter().enumerate() {
            let id = u32::try_from(i).expect("interner overflow");
            assert!(id < UNKNOWN_LABEL, "interner exhausted the id space");
            map.entry(label.clone()).or_insert(id);
        }
        LabelInterner { map, labels }
    }
}

// Per-node slot bitfield: presence and section of each rule kind that
// terminates (or, for wildcards, anchors) at the node. `pub(crate)` so the
// snapshot loader can validate hostile slot bytes against the real layout.
pub(crate) const NORMAL: u8 = 1 << 0;
pub(crate) const NORMAL_PRIVATE: u8 = 1 << 1;
pub(crate) const WILDCARD: u8 = 1 << 2;
pub(crate) const WILDCARD_PRIVATE: u8 = 1 << 3;
pub(crate) const EXCEPTION: u8 = 1 << 4;
pub(crate) const EXCEPTION_PRIVATE: u8 = 1 << 5;

fn kind_bits(kind: RuleKind) -> (u8, u8) {
    match kind {
        RuleKind::Normal => (NORMAL, NORMAL_PRIVATE),
        RuleKind::Wildcard => (WILDCARD, WILDCARD_PRIVATE),
        RuleKind::Exception => (EXCEPTION, EXCEPTION_PRIVATE),
    }
}

/// The `(kind, section)` of every rule a slot byte holds, in slot order.
fn slot_rules(slot: u8) -> impl Iterator<Item = (RuleKind, Section)> {
    [RuleKind::Normal, RuleKind::Wildcard, RuleKind::Exception].into_iter().filter_map(
        move |kind| {
            let (present, private) = kind_bits(kind);
            let section = if slot & private != 0 { Section::Private } else { Section::Icann };
            (slot & present != 0).then_some((kind, section))
        },
    )
}

/// The nodes and edges of a compiled arena, without its rule slots.
///
/// Node `0` is the root. Node `n`'s children occupy
/// `edge_labels[span_start[n] .. span_start[n] + span_len[n]]` (sorted by
/// label id, with the matching node index at the same offset of
/// `edge_targets`).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Layout {
    span_start: Vec<u32>,
    span_len: Vec<u32>,
    edge_labels: Vec<u32>,
    edge_targets: Vec<u32>,
    // Direct dispatch for the root (by far the widest node: every TLD is a
    // child): `root_table[label_id]` is the child node, or `NO_NODE`.
    // Sized to the largest root edge label, so it never indexes by
    // `UNKNOWN_LABEL`.
    root_table: Vec<u32>,
}

impl Layout {
    /// The offsets of `node`'s child edges.
    fn span(&self, node: usize) -> Range<usize> {
        let start = self.span_start[node] as usize;
        start..start + self.span_len[node] as usize
    }

    #[inline(always)]
    fn child(&self, node: usize, label: u32) -> Option<usize> {
        if node == 0 {
            return match self.root_table.get(label as usize) {
                Some(&c) if c != NO_NODE => Some(c as usize),
                _ => None,
            };
        }
        let start = self.span_start[node] as usize;
        let span = &self.edge_labels[start..start + self.span_len[node] as usize];
        let pos = if span.len() <= LINEAR_SPAN {
            span.iter().position(|&l| l == label)
        } else {
            span.binary_search(&label).ok()
        }?;
        Some(self.edge_targets[start + pos] as usize)
    }
}

/// A compiled, immutable rule set: flat arena trie over interned labels,
/// one slot byte per node. The proptests in this module and the
/// conformance differential hold its walk equal to
/// [`crate::trie::disposition_linear`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrozenList {
    layout: Layout,
    slots: Vec<u8>,
    rules: usize,
}

// Absent entry in `root_table`. Distinct from any node index: nodes are
// created by a `u32::try_from` that would have to overflow first.
pub(crate) const NO_NODE: u32 = u32::MAX;

// Spans at or below this length are scanned linearly: for the tiny
// fan-outs below the root the scan stays in one cache line and beats
// binary search's branchy halving.
pub(crate) const LINEAR_SPAN: usize = 16;

/// Borrowed views of every arena array, in the order the snapshot format
/// serialises them.
pub(crate) struct FrozenParts<'a> {
    pub span_start: &'a [u32],
    pub span_len: &'a [u32],
    pub slots: &'a [u8],
    pub edge_labels: &'a [u32],
    pub edge_targets: &'a [u32],
    pub root_table: &'a [u32],
    pub rules: usize,
}

impl Default for FrozenList {
    fn default() -> Self {
        // A lone root node with no edges and no slots: matches nothing.
        Builder::new().finish()
    }
}

impl FrozenList {
    /// Compile a rule set directly (labels are interned in rule order).
    pub fn compile<'a>(
        rules: impl IntoIterator<Item = &'a Rule>,
        interner: &mut LabelInterner,
    ) -> Self {
        let mut b = Builder::new();
        for rule in rules {
            let mut node = 0u32;
            for label in rule.labels().iter().rev() {
                node = b.child(node, interner.intern(label));
            }
            b.set_slot(node, rule.kind(), rule.section());
        }
        b.finish()
    }

    /// Compile from already-interned label-id paths (TLD first, the same
    /// reversed order the walk consumes). [`At::to_frozen`] materialises a
    /// version of a [`VersionedList`] through it, feeding records in
    /// sorted `(path, kind)` order.
    pub fn compile_ids<'a, I>(records: I) -> Self
    where
        I: IntoIterator<Item = (&'a [u32], RuleKind, Section)>,
    {
        let mut b = Builder::new();
        for (path, kind, section) in records {
            let mut node = 0u32;
            for &id in path {
                node = b.child(node, id);
            }
            b.set_slot(node, kind, section);
        }
        b.finish()
    }

    /// Reconstruct the rule set from the arena (sorted depth-first order,
    /// so the output is deterministic but not necessarily the original
    /// list order). Every edge label must resolve through `interner` —
    /// true for any arena compiled against it, and for any snapshot that
    /// passed [`FrozenList::load`] validation.
    pub fn decompile_rules(&self, interner: &LabelInterner) -> Vec<Rule> {
        fn emit(
            fl: &FrozenList,
            node: usize,
            path: &mut Vec<String>,
            interner: &LabelInterner,
            out: &mut Vec<Rule>,
        ) {
            if node != 0 {
                for (kind, section) in slot_rules(fl.slots[node]) {
                    // Rule labels read leftmost-first; `path` is root-first.
                    let labels = path.iter().rev().cloned().collect();
                    out.push(match kind {
                        RuleKind::Normal => Rule::normal(labels, section),
                        RuleKind::Wildcard => Rule::wildcard(labels, section),
                        RuleKind::Exception => Rule::exception(labels, section),
                    });
                }
            }
            let layout = &fl.layout;
            for i in layout.span(node) {
                let label = interner.resolve(layout.edge_labels[i]).expect("edge label interned");
                path.push(label.to_string());
                emit(fl, layout.edge_targets[i] as usize, path, interner, out);
                path.pop();
            }
        }

        let mut out = Vec::with_capacity(self.rules);
        emit(self, 0, &mut Vec::new(), interner, &mut out);
        out
    }

    /// Borrowed views of the arena arrays, for the snapshot writer.
    pub(crate) fn parts(&self) -> FrozenParts<'_> {
        let layout = &self.layout;
        FrozenParts {
            span_start: &layout.span_start,
            span_len: &layout.span_len,
            slots: &self.slots,
            edge_labels: &layout.edge_labels,
            edge_targets: &layout.edge_targets,
            root_table: &layout.root_table,
            rules: self.rules,
        }
    }

    /// Reassemble from arrays a snapshot loader has already validated.
    pub(crate) fn from_parts(
        span_start: Vec<u32>,
        span_len: Vec<u32>,
        slots: Vec<u8>,
        edge_labels: Vec<u32>,
        edge_targets: Vec<u32>,
        root_table: Vec<u32>,
        rules: usize,
    ) -> Self {
        let layout = Layout { span_start, span_len, edge_labels, edge_targets, root_table };
        FrozenList { layout, slots, rules }
    }

    /// Number of compiled rules: distinct `(path, kind)` slots, so a rule
    /// text compiled twice counts once, as in a deduplicated list.
    pub fn len(&self) -> usize {
        self.rules
    }

    /// True if no rules were compiled in.
    pub fn is_empty(&self) -> bool {
        self.rules == 0
    }

    /// Number of arena nodes (including the root).
    pub fn node_count(&self) -> usize {
        self.slots.len()
    }

    /// Number of edges (equals `node_count() - 1`: the arena is a tree).
    pub fn edge_count(&self) -> usize {
        self.layout.edge_labels.len()
    }

    /// Approximate heap footprint of the arena arrays in bytes: 9 bytes
    /// per node, 8 per edge, plus the root dispatch table. (The shared
    /// interner is accounted separately — it is paid once per history, not
    /// per version.)
    pub fn arena_bytes(&self) -> usize {
        self.slots.len() * (4 + 4 + 1)
            + self.layout.edge_labels.len() * (4 + 4)
            + self.layout.root_table.len() * 4
    }

    /// The prevailing-rule decision for a hostname given as reversed
    /// interned label ids (TLD first), by the module's one walk. Zero heap
    /// allocation; ids unknown to the compiling interner must be passed as
    /// [`UNKNOWN_LABEL`].
    pub fn disposition_by_ids(&self, reversed: &[u32], opts: MatchOpts) -> Option<Disposition> {
        walk(self, reversed.iter().copied(), opts)
    }

    /// The prevailing-rule decision for reversed string labels, interning
    /// lazily against `interner` (read-only; unknown labels become
    /// [`UNKNOWN_LABEL`] on the fly). Zero heap allocation.
    pub fn disposition(
        &self,
        interner: &LabelInterner,
        reversed: &[&str],
        opts: MatchOpts,
    ) -> Option<Disposition> {
        walk(self, reversed.iter().map(|l| interner.id_or_unknown(l)), opts)
    }
}

/// One arena layout the prevailing-rule [`walk`] reads: [`FrozenList`]
/// over its vectors, [`crate::SnapshotView`] over the little-endian words
/// of a borrowed snapshot buffer, [`At`] over one version of a
/// [`VersionedList`]. Node `0` is the root.
pub(crate) trait Arena {
    /// The rule-slot bitfield of `node`.
    fn slot(&self, node: usize) -> u8;

    /// The child of `node` along edge label `label`, if there is one.
    fn child(&self, node: usize, label: u32) -> Option<usize>;
}

impl Arena for FrozenList {
    #[inline(always)]
    fn slot(&self, node: usize) -> u8 {
        self.slots[node]
    }

    #[inline(always)]
    fn child(&self, node: usize, label: u32) -> Option<usize> {
        self.layout.child(node, label)
    }
}

/// The prevailing-rule walk, the one implementation of the list's
/// algorithm over a compiled arena, for a hostname given as reversed label
/// ids (TLD first). A wildcard anchored at the current node consumes the
/// incoming label *before* the child edge is resolved; the child's normal
/// and exception slots are read after descending. The answer is the
/// longest exception (minus its leftmost label), else the longest match (a
/// normal rule beating a wildcard of the same length), else the implicit
/// `*` rule. [`crate::trie::disposition_linear`] reads the same algorithm
/// literally and is the oracle this walk is checked against.
#[inline(always)]
pub(crate) fn walk(
    arena: &impl Arena,
    ids: impl Iterator<Item = u32>,
    opts: MatchOpts,
) -> Option<Disposition> {
    let allowed = |private: bool| opts.include_private || !private;
    let section = |private: bool| if private { Section::Private } else { Section::Icann };

    let mut best_exception: Option<(usize, Section)> = None;
    let mut best_match: Option<(usize, RuleKind, Section)> = None;

    let mut node = 0usize;
    let mut saw_label = false;
    for (i, label) in ids.enumerate() {
        saw_label = true;
        let slot = arena.slot(node);
        if slot & WILDCARD != 0 {
            let private = slot & WILDCARD_PRIVATE != 0;
            if allowed(private) {
                best_match = Some((i + 1, RuleKind::Wildcard, section(private)));
            }
        }
        let Some(child) = arena.child(node, label) else {
            break;
        };
        let cslot = arena.slot(child);
        if cslot & NORMAL != 0 {
            let private = cslot & NORMAL_PRIVATE != 0;
            if allowed(private) {
                best_match = Some((i + 1, RuleKind::Normal, section(private)));
            }
        }
        if cslot & EXCEPTION != 0 {
            let private = cslot & EXCEPTION_PRIVATE != 0;
            if allowed(private) {
                best_exception = Some((i + 1, section(private)));
            }
        }
        node = child;
    }

    if let Some((match_len, section)) = best_exception {
        // Exception rules strip their leftmost label.
        return Some(Disposition {
            suffix_len: match_len - 1,
            kind: MatchKind::Rule(RuleKind::Exception),
            section: Some(section),
        });
    }
    if let Some((match_len, kind, section)) = best_match {
        return Some(Disposition {
            suffix_len: match_len,
            kind: MatchKind::Rule(kind),
            section: Some(section),
        });
    }
    if opts.implicit_wildcard && saw_label {
        return Some(Disposition {
            suffix_len: 1,
            kind: MatchKind::ImplicitWildcard,
            section: None,
        });
    }
    None
}

/// Every version of a history in one arena: [`FrozenList`]'s node layout
/// over every suffix path any version held, and each node's slot byte as
/// a list of steps over the versions.
///
/// Node `n`'s steps are `steps[step_start[n] .. step_start[n + 1]]`, each
/// a `(version index, slot)` pair in ascending version order: the node's
/// slot byte from that version on, 0 before its first step. [`At`] reads
/// one version through the same walk as [`FrozenList`], so an "as of"
/// question needs no rebuild. At paper scale the arena has about as many
/// steps as nodes, so a node's steps are scanned linearly.
#[derive(Debug, Clone)]
pub struct VersionedList {
    layout: Layout,
    step_start: Vec<u32>,
    steps: Vec<(u32, u8)>,
    interner: LabelInterner,
}

impl VersionedList {
    /// Build from a history's rule changes, `(version index, added, rule)`
    /// in replay order, versions ascending. An addition sets its kind's
    /// slot and section, the last write winning; a removal clears both. A
    /// node changed several times in one version gets one step, its last
    /// value, and a step equal to the one before it is dropped. Labels are
    /// interned in change order.
    pub fn build<'a>(changes: impl IntoIterator<Item = (usize, bool, &'a Rule)>) -> Self {
        let mut interner = LabelInterner::new();
        let mut b = Builder::new();
        let mut steps: Vec<Vec<(u32, u8)>> = Vec::new();
        for (version, added, rule) in changes {
            let version = u32::try_from(version).expect("version index overflow");
            let mut node = 0u32;
            for label in rule.labels().iter().rev() {
                node = b.child(node, interner.intern(label));
            }
            if added {
                b.set_slot(node, rule.kind(), rule.section());
            } else {
                b.clear_slot(node, rule.kind());
            }
            steps.resize_with(b.slots.len(), Vec::new);
            let node_steps = &mut steps[node as usize];
            debug_assert!(node_steps.last().is_none_or(|&(v, _)| v <= version));
            if node_steps.last().is_some_and(|&(v, _)| v == version) {
                node_steps.pop();
            }
            let slot = b.slots[node as usize];
            if node_steps.last().map_or(0, |&(_, s)| s) != slot {
                node_steps.push((version, slot));
            }
        }
        steps.resize_with(b.slots.len(), Vec::new);
        let mut step_start = vec![0u32];
        for node_steps in &steps {
            let end = step_start[step_start.len() - 1] as usize + node_steps.len();
            step_start.push(u32::try_from(end).expect("step overflow"));
        }
        VersionedList { layout: b.layout(), step_start, steps: steps.concat(), interner }
    }

    /// The interner of every version's labels.
    pub fn interner(&self) -> &LabelInterner {
        &self.interner
    }

    /// Number of arena nodes (including the root): every suffix path any
    /// version held.
    pub fn node_count(&self) -> usize {
        self.layout.span_start.len()
    }

    /// Number of slot steps over all nodes and versions.
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// The arena as of version index `version`. A version past the last
    /// change reads as the last.
    pub fn at(&self, version: usize) -> At<'_> {
        At { list: self, version }
    }
}

/// One version of a [`VersionedList`], read in place.
#[derive(Debug, Clone, Copy)]
pub struct At<'a> {
    list: &'a VersionedList,
    version: usize,
}

impl At<'_> {
    /// The prevailing-rule decision at this version for reversed string
    /// labels (TLD first), by the module's one walk. Labels the arena never
    /// interned become [`UNKNOWN_LABEL`]; no heap allocation.
    pub fn disposition(&self, reversed: &[&str], opts: MatchOpts) -> Option<Disposition> {
        walk(self, reversed.iter().map(|l| self.list.interner.id_or_unknown(l)), opts)
    }

    /// This version as a [`FrozenList`] over the arena's interner: a
    /// depth-first pass, children in label-id order, feeds every live slot
    /// in sorted path order to [`FrozenList::compile_ids`].
    pub fn to_frozen(&self) -> FrozenList {
        // `paths` holds the live nodes' label paths back to back, and
        // `ends` each one's end in it and its slot.
        fn visit(
            at: &At<'_>,
            node: usize,
            path: &mut Vec<u32>,
            paths: &mut Vec<u32>,
            ends: &mut Vec<(usize, u8)>,
        ) {
            let slot = at.slot(node);
            if slot != 0 {
                paths.extend_from_slice(path);
                ends.push((paths.len(), slot));
            }
            let layout = &at.list.layout;
            for e in layout.span(node) {
                path.push(layout.edge_labels[e]);
                visit(at, layout.edge_targets[e] as usize, path, paths, ends);
                path.pop();
            }
        }

        let (mut paths, mut ends) = (Vec::new(), Vec::new());
        visit(self, 0, &mut Vec::new(), &mut paths, &mut ends);
        let mut start = 0;
        FrozenList::compile_ids(ends.iter().flat_map(|&(end, slot)| {
            let path = &paths[start..end];
            start = end;
            slot_rules(slot).map(move |(kind, section)| (path, kind, section))
        }))
    }
}

impl Arena for At<'_> {
    /// The node's last step at or before this version, or 0.
    #[inline(always)]
    fn slot(&self, node: usize) -> u8 {
        let list = self.list;
        let steps = &list.steps[list.step_start[node] as usize..list.step_start[node + 1] as usize];
        steps.iter().rev().find(|&&(v, _)| v as usize <= self.version).map_or(0, |&(_, slot)| slot)
    }

    #[inline(always)]
    fn child(&self, node: usize, label: u32) -> Option<usize> {
        self.list.layout.child(node, label)
    }
}

/// Arena construction state. Nodes are created in first-visit order, which
/// makes the final arrays a function of the input order; `BTreeMap` keeps
/// each child span sorted by label id for free.
struct Builder {
    children: Vec<BTreeMap<u32, u32>>,
    slots: Vec<u8>,
    rules: usize,
}

impl Builder {
    fn new() -> Self {
        Builder { children: vec![BTreeMap::new()], slots: vec![0], rules: 0 }
    }

    /// Get or create the child of `node` along `label`.
    fn child(&mut self, node: u32, label: u32) -> u32 {
        if let Some(&c) = self.children[node as usize].get(&label) {
            return c;
        }
        let c = u32::try_from(self.children.len()).expect("arena overflow");
        self.children.push(BTreeMap::new());
        self.slots.push(0);
        self.children[node as usize].insert(label, c);
        c
    }

    /// Set one rule slot, an addition: the kind's present bit and its
    /// section, the last write winning per `(path, kind)`. Only a
    /// previously-empty slot counts as a new rule.
    fn set_slot(&mut self, node: u32, kind: RuleKind, section: Section) {
        let (present, private) = kind_bits(kind);
        let slot = &mut self.slots[node as usize];
        if *slot & present == 0 {
            self.rules += 1;
        }
        *slot |= present;
        if section == Section::Private {
            *slot |= private;
        } else {
            *slot &= !private;
        }
    }

    /// Clear one rule slot, a removal: the kind's present and section bits.
    fn clear_slot(&mut self, node: u32, kind: RuleKind) {
        let (present, private) = kind_bits(kind);
        let slot = &mut self.slots[node as usize];
        if *slot & present != 0 {
            self.rules -= 1;
        }
        *slot &= !(present | private);
    }

    /// The flat child spans and the root's dispatch table.
    fn layout(&self) -> Layout {
        let n = self.children.len();
        let mut span_start = Vec::with_capacity(n);
        let mut span_len = Vec::with_capacity(n);
        let mut edge_labels = Vec::new();
        let mut edge_targets = Vec::new();
        for kids in &self.children {
            span_start.push(u32::try_from(edge_labels.len()).expect("edge overflow"));
            span_len.push(u32::try_from(kids.len()).expect("span overflow"));
            for (&label, &target) in kids {
                edge_labels.push(label);
                edge_targets.push(target);
            }
        }
        let root = &self.children[0];
        let table_len = root.keys().next_back().map_or(0, |&max| max as usize + 1);
        let mut root_table = vec![NO_NODE; table_len];
        for (&label, &target) in root {
            root_table[label as usize] = target;
        }
        Layout { span_start, span_len, edge_labels, edge_targets, root_table }
    }

    fn finish(self) -> FrozenList {
        FrozenList { layout: self.layout(), slots: self.slots, rules: self.rules }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trie::disposition_linear;
    use proptest::prelude::*;

    fn rules(texts: &[(&str, Section)]) -> Vec<Rule> {
        texts.iter().map(|(t, s)| Rule::parse(t, *s).unwrap()).collect()
    }

    const BASIC: &[(&str, Section)] = &[
        ("com", Section::Icann),
        ("uk", Section::Icann),
        ("co.uk", Section::Icann),
        ("*.ck", Section::Icann),
        ("!www.ck", Section::Icann),
        ("github.io", Section::Private),
        ("io", Section::Icann),
    ];

    /// Every compiled path (ids, strings, a one-version arena read in place
    /// and materialised) must agree with the linear reference on every
    /// host × option combination.
    fn assert_agrees(rule_set: &[Rule], hosts: &[Vec<&str>]) {
        let mut interner = LabelInterner::new();
        let compiled = FrozenList::compile(rule_set, &mut interner);
        let arena = VersionedList::build(rule_set.iter().map(|r| (0, true, r)));
        let materialised = arena.at(0).to_frozen();
        // Dedup by text the way the arena's slots do: the last rule with a
        // given text wins.
        let mut last = HashMap::new();
        for (i, r) in rule_set.iter().enumerate() {
            last.insert(r.as_text(), i);
        }
        let mut keep: Vec<usize> = last.into_values().collect();
        keep.sort_unstable();
        let linear_rules: Vec<Rule> = keep.into_iter().map(|i| rule_set[i].clone()).collect();
        assert_eq!(compiled.len(), linear_rules.len());
        assert_eq!(materialised.len(), linear_rules.len());
        let mut ids = Vec::new();
        for host in hosts {
            for include_private in [false, true] {
                for implicit_wildcard in [false, true] {
                    let opts = MatchOpts { include_private, implicit_wildcard };
                    let want = disposition_linear(&linear_rules, host, opts);
                    assert_eq!(compiled.disposition(&interner, host, opts), want, "{host:?}");
                    assert_eq!(arena.at(0).disposition(host, opts), want, "{host:?}");
                    let got = materialised.disposition(arena.interner(), host, opts);
                    assert_eq!(got, want, "{host:?}");
                    interner.ids_reversed(host, &mut ids);
                    assert_eq!(compiled.disposition_by_ids(&ids, opts), want, "{host:?}");
                }
            }
        }
    }

    #[test]
    fn compiled_matches_trie_on_basics() {
        let rs = rules(BASIC);
        let hosts: Vec<Vec<&str>> = vec![
            vec!["com", "example", "www"],
            vec!["uk", "co", "example"],
            vec!["uk", "co"],
            vec!["ck"],
            vec!["ck", "shop"],
            vec!["ck", "www"],
            vec!["ck", "www", "deep"],
            vec!["io", "github", "alice"],
            vec!["zz", "example"],
            vec!["unknown", "labels", "everywhere"],
            vec![],
        ];
        assert_agrees(&rs, &hosts);
    }

    #[test]
    fn unknown_labels_use_sentinel_and_still_hit_wildcards() {
        let rs = rules(&[("*.ck", Section::Icann)]);
        let mut interner = LabelInterner::new();
        let frozen = FrozenList::compile(&rs, &mut interner);
        assert_eq!(interner.id("never-seen"), None);
        assert_eq!(interner.id_or_unknown("never-seen"), UNKNOWN_LABEL);
        // The sentinel must be consumed by the wildcard anchored at "ck".
        let d = frozen
            .disposition_by_ids(&[interner.id("ck").unwrap(), UNKNOWN_LABEL], MatchOpts::default())
            .unwrap();
        assert_eq!(d.suffix_len, 2);
        assert_eq!(d.kind, MatchKind::Rule(RuleKind::Wildcard));
        // But it can never follow an edge.
        let d = frozen.disposition_by_ids(&[UNKNOWN_LABEL, UNKNOWN_LABEL], MatchOpts::default());
        assert_eq!(d.unwrap().kind, MatchKind::ImplicitWildcard);
    }

    #[test]
    fn empty_and_default_lists() {
        let frozen = FrozenList::default();
        assert!(frozen.is_empty());
        assert_eq!(frozen.node_count(), 1);
        assert!(frozen.disposition_by_ids(&[], MatchOpts::default()).is_none());
        let d = frozen.disposition_by_ids(&[0], MatchOpts::default()).unwrap();
        assert_eq!(d.kind, MatchKind::ImplicitWildcard);
        let mut interner = LabelInterner::new();
        let compiled = FrozenList::compile(&[], &mut interner);
        assert_eq!(compiled, frozen);
    }

    #[test]
    fn duplicate_paths_count_once_and_last_section_wins() {
        let rs = vec![
            Rule::parse("dup.com", Section::Icann).unwrap(),
            Rule::parse("dup.com", Section::Private).unwrap(),
        ];
        let mut interner = LabelInterner::new();
        let frozen = FrozenList::compile(&rs, &mut interner);
        assert_eq!(frozen.len(), 1);
        let d = frozen.disposition(&interner, &["com", "dup"], MatchOpts::default()).unwrap();
        assert_eq!(d.section, Some(Section::Private));
        // The slot's last write wins; the rule itself still matches as a
        // normal rule.
        assert_eq!(
            d,
            Disposition {
                suffix_len: 2,
                kind: MatchKind::Rule(RuleKind::Normal),
                section: Some(Section::Private),
            }
        );
    }

    #[test]
    fn arena_is_compact() {
        let rs = rules(BASIC);
        let mut interner = LabelInterner::new();
        let frozen = FrozenList::compile(&rs, &mut interner);
        // Distinct path prefixes: com, uk, co.uk, ck, www.ck, io,
        // github.io → 7 non-root nodes. Root children are com/uk/ck/io
        // (ids 0, 1, 3, 5 in rule order), so the dispatch table spans 6
        // slots.
        assert_eq!(frozen.node_count(), 8);
        assert_eq!(frozen.edge_count(), 7);
        assert_eq!(frozen.arena_bytes(), 8 * 9 + 7 * 8 + 6 * 4);
    }

    #[test]
    fn interner_round_trips() {
        let mut interner = LabelInterner::new();
        let a = interner.intern("com");
        let b = interner.intern("uk");
        assert_eq!(interner.intern("com"), a);
        assert_eq!(interner.len(), 2);
        assert_eq!(interner.resolve(a), Some("com"));
        assert_eq!(interner.resolve(b), Some("uk"));
        assert_eq!(interner.resolve(UNKNOWN_LABEL), None);
        assert_eq!(interner.intern_reversed(&["com", "new"]).as_ref(), &[a, 2]);
    }

    /// The arena's replay semantics on a scripted change sequence: a
    /// removal and a re-addition in one version (flipping the section), a
    /// rule removed in the version after its addition, a rule added and
    /// removed in one version, and a live rule added again.
    #[test]
    fn versioned_steps_follow_the_replay() {
        let (icann, private) = (Section::Icann, Section::Private);
        let r = |text: &str, section| Rule::parse(text, section).unwrap();
        let changes = [
            (0, true, r("b", icann)),
            (0, true, r("a.b", private)),
            (0, true, r("x.b", private)),
            (0, false, r("x.b", private)),
            (1, false, r("a.b", private)),
            (1, true, r("a.b", icann)),
            (1, true, r("c.b", icann)),
            (2, false, r("c.b", icann)),
            (3, true, r("b", icann)),
        ];
        let arena = VersionedList::build(changes.iter().map(|(v, added, rule)| (*v, *added, rule)));
        // `b` one step, `a.b` two (private, then ICANN), `c.b` two (added,
        // then removed) and `x.b` none: one step per changed version, and
        // none that equals the step before it.
        assert_eq!(arena.step_count(), 5);
        let answer = |version: usize, host: &[&str]| {
            let d = arena.at(version).disposition(host, MatchOpts::default()).unwrap();
            (d.suffix_len, d.section)
        };
        assert_eq!(answer(0, &["b", "a", "w"]), (2, Some(private)));
        assert_eq!(answer(1, &["b", "a", "w"]), (2, Some(icann)));
        assert_eq!(answer(0, &["b", "x", "w"]), (1, Some(icann)));
        assert_eq!(answer(0, &["b", "c", "w"]), (1, Some(icann)));
        assert_eq!(answer(1, &["b", "c", "w"]), (2, Some(icann)));
        assert_eq!(answer(2, &["b", "c", "w"]), (1, Some(icann)));
        // A version past the last change reads as the last.
        assert_eq!(answer(9, &["b", "a", "w"]), (2, Some(icann)));
        assert_eq!(arena.at(3).to_frozen().len(), 2, "b and a.b");
        assert!(arena.at(0).disposition(&[], MatchOpts::default()).is_none());
    }

    fn small_label() -> impl Strategy<Value = String> {
        prop_oneof![Just("a".into()), Just("b".into()), Just("c".into()), Just("d".into())]
    }

    /// A rule of kind `0` normal, `1` wildcard, else exception (a normal
    /// rule when there is one label).
    fn rule_of(kind: u8, labels: &[String], section: Section) -> Rule {
        match kind {
            0 => Rule::normal(labels.to_vec(), section),
            1 => Rule::wildcard(labels.to_vec(), section),
            _ if labels.len() < 2 => Rule::normal(labels.to_vec(), section),
            _ => Rule::exception(labels.to_vec(), section),
        }
    }

    proptest! {
        /// Random change sequences over a few versions, several changes a
        /// version in random order and a small rule pool, so one version
        /// often removes and re-adds a rule, flips its section, or removes
        /// a rule absent or added the version before. At every version the
        /// arena, read in place and materialised, equals
        /// `disposition_linear` over that version's live rules (a set keyed
        /// by rule text, the last addition's section winning), and the
        /// materialised version has the rule and node counts of a fresh
        /// compile of those rules: removed paths leave no dead nodes.
        #[test]
        fn change_sequences_agree_with_linear_at_every_version(
            pool in proptest::collection::vec(
                (0u8..3, proptest::collection::vec(small_label(), 1..4)),
                1..6,
            ),
            ops in proptest::collection::vec(
                (0usize..4, proptest::bool::ANY, 0usize..6, proptest::bool::ANY),
                0..24,
            ),
            hosts in proptest::collection::vec(
                proptest::collection::vec(small_label(), 0..5),
                1..6,
            ),
        ) {
            let mut ops = ops;
            // Stable: the changes of one version keep their random order.
            ops.sort_by_key(|op| op.0);
            let changes: Vec<(usize, bool, Rule)> = ops
                .iter()
                .map(|&(version, added, i, private)| {
                    let (kind, labels) = &pool[i % pool.len()];
                    let section = if private { Section::Private } else { Section::Icann };
                    (version, added, rule_of(*kind, labels, section))
                })
                .collect();
            let arena =
                VersionedList::build(changes.iter().map(|(v, added, rule)| (*v, *added, rule)));
            let hosts: Vec<Vec<&str>> =
                hosts.iter().map(|h| h.iter().map(|s| s.as_str()).collect()).collect();
            let mut live: BTreeMap<String, Rule> = BTreeMap::new();
            let mut replay = changes.iter().peekable();
            for version in 0..5 {
                while let Some((_, added, rule)) = replay.next_if(|c| c.0 == version) {
                    if *added {
                        live.insert(rule.as_text(), rule.clone());
                    } else {
                        live.remove(&rule.as_text());
                    }
                }
                let rules: Vec<Rule> = live.values().cloned().collect();
                let at = arena.at(version);
                let materialised = at.to_frozen();
                let fresh = FrozenList::compile(&rules, &mut LabelInterner::new());
                prop_assert_eq!(materialised.len(), rules.len());
                prop_assert_eq!(materialised.node_count(), fresh.node_count());
                for host in &hosts {
                    for opts in [
                        MatchOpts::default(),
                        MatchOpts { include_private: false, implicit_wildcard: true },
                        MatchOpts { include_private: true, implicit_wildcard: false },
                    ] {
                        let want = disposition_linear(&rules, host, opts);
                        prop_assert_eq!(at.disposition(host, opts), want, "v{} {:?}", version, host);
                        prop_assert_eq!(
                            materialised.disposition(arena.interner(), host, opts),
                            want,
                            "materialised v{} {:?}",
                            version,
                            host
                        );
                    }
                }
            }
        }

        /// `FrozenList::disposition` equals `disposition_linear` for random
        /// rule sets × random hostnames × the full `MatchOpts` matrix, via
        /// the compile-from-rules path (both the string and the id entry
        /// points) and a one-version arena, read in place and materialised.
        #[test]
        fn frozen_agrees_with_trie(
            rule_specs in proptest::collection::vec(
                (0u8..3, proptest::collection::vec(small_label(), 1..4)),
                0..12,
            ),
            hosts in proptest::collection::vec(
                proptest::collection::vec(small_label(), 0..5),
                1..8,
            ),
        ) {
            let mut rs = Vec::new();
            for (kind, labels) in rule_specs {
                let section = if labels.len() % 2 == 0 { Section::Private } else { Section::Icann };
                let rule = match kind {
                    0 => Rule::normal(labels, section),
                    1 => Rule::wildcard(labels, section),
                    _ => {
                        if labels.len() < 2 { continue; }
                        Rule::exception(labels, section)
                    }
                };
                rs.push(rule);
            }
            let hosts: Vec<Vec<&str>> = hosts
                .iter()
                .map(|h| h.iter().map(|s| s.as_str()).collect())
                .collect();
            assert_agrees(&rs, &hosts);
        }
    }
}
