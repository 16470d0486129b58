//! The version walk: every name's public-suffix length through every
//! list version, in O(changes).
//!
//! Figures 5–7, the fleet's list views and the harm extensions all ask
//! "which site is this name in under version `v`?" for the history's
//! versions. Consecutive versions differ by a handful of rules, and a rule
//! can only change the disposition of the names *under* it. [`walk`]
//! builds one arena with a node for every distinct suffix of the names,
//! keyed by the suffix string, and numbers the names depth first, so the
//! names under any node are one contiguous range. Each node holds the
//! rule slots of its suffix. The walk applies each version's rule diff to
//! those slots and re-matches only the names in the changed nodes'
//! ranges, reading the slots along each name's path to the root.
//! It returns each name's disposition timeline — the versions at which
//! its suffix length changes — so a caller that needs all 1,142 versions
//! pays for the names and the changes, not for names × versions.
//!
//! The names and the rules form a forest: each lies under exactly one
//! top-level label, and a rule moves only the names under it, so no two
//! trees interact. [`walk`]'s workers hash each name's last label, and
//! each rule's, into one of many buckets, and the buckets go to one bin
//! per worker by name count, largest first, so the bins hold about as
//! many names each. Each worker takes its bin's names, builds its arena,
//! replays only its bin's rule changes from the history's change log and
//! sorts its names' steps by name; the bins then join into one [`Walk`],
//! with each bin's nodes after the shared root, every name's steps under
//! its index and the live rule counts summed per version. One worker is
//! the same code with one bin, run on the calling thread.
//!
//! [`site_len`] is the one definition of a name's site under a
//! disposition: the walk's callers and the rebuild oracle
//! ([`crate::sweep::sweep_rebuild`]) both go through it. A site is a
//! suffix of its name, so it is a node of the arena, and [`site_ids`]
//! numbers sites by node. [`census`] counts the names under each latest
//! public suffix from the names' last steps; Table 2 and the cookie and
//! certificate harms read it.

use psl_core::{DomainName, FnvBuild, MatchOpts, Rule, RuleKind, Section};
use psl_history::{History, RuleSpan};
use std::collections::HashMap;

/// Labels in the site of a name with `labels` labels whose public suffix
/// is `suffix_len` labels long: the registrable domain (the suffix plus
/// one label), clamped to the whole name, so a bare public suffix is its
/// own site — as is a name no rule matches under strict options (`None`).
pub fn site_len(suffix_len: Option<usize>, labels: usize) -> usize {
    match suffix_len {
        Some(s) => (s.min(labels.saturating_sub(1)) + 1).min(labels),
        None => labels,
    }
}

/// The site string of `host` under a public suffix of `suffix_len` labels.
pub(crate) fn site_of(host: &DomainName, suffix_len: Option<usize>) -> &str {
    host.suffix_of_len(site_len(suffix_len, host.label_count())).unwrap_or_else(|| host.as_str())
}

/// One step function over version indices per name, stored flat. Name
/// `i` holds the value of `steps(i)[k]` from that step's version up to
/// the next step's; every name's first step is at version 0, and
/// consecutive steps hold different values.
#[derive(Debug, Clone, PartialEq)]
pub struct Timelines<T> {
    starts: Vec<u32>,
    steps: Vec<(u32, T)>,
}

impl<T: Copy + PartialEq> Timelines<T> {
    /// Number of names.
    pub fn names(&self) -> usize {
        self.starts.len() - 1
    }

    /// Steps over all names.
    pub(crate) fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// Name `name`'s `(first version, value)` steps, ascending.
    pub fn steps(&self, name: usize) -> &[(u32, T)] {
        &self.steps[self.starts[name] as usize..self.starts[name + 1] as usize]
    }

    /// Name `name`'s value at version index `version`: a scan, as names
    /// have a few steps each.
    pub fn at(&self, name: usize, version: usize) -> T {
        let steps = self.steps(name);
        steps.iter().rev().find(|&&(v, _)| v as usize <= version).expect("a step at version 0").1
    }

    /// Name `name`'s value at the latest version.
    pub fn latest(&self, name: usize) -> T {
        self.steps(name).last().expect("every name has a step at version 0").1
    }

    /// The timelines under `f`, keeping only the steps where the mapped
    /// value changes.
    pub fn map<U: Copy + PartialEq>(&self, mut f: impl FnMut(usize, T) -> U) -> Timelines<U> {
        let mut starts = Vec::with_capacity(self.starts.len());
        let mut steps = Vec::with_capacity(self.steps.len());
        starts.push(0);
        for name in 0..self.names() {
            let mut last = None;
            for &(v, t) in self.steps(name) {
                let u = f(name, t);
                if last != Some(u) {
                    steps.push((v, u));
                    last = Some(u);
                }
            }
            starts.push(steps.len() as u32);
        }
        Timelines { starts, steps }
    }

    /// For each of `versions` versions, the sum over names of
    /// `value(name, t)` for the value `t` in force there: a difference
    /// array over the steps, O(names + changes + versions).
    pub fn tally(&self, versions: usize, mut value: impl FnMut(usize, T) -> u64) -> Vec<u64> {
        let mut diff = vec![0u64; versions + 1];
        for name in 0..self.names() {
            let steps = self.steps(name);
            for (k, &(from, t)) in steps.iter().enumerate() {
                let to = steps.get(k + 1).map_or(versions, |s| s.0 as usize);
                add_interval(&mut diff, from as usize, to, value(name, t));
            }
        }
        prefix_sums(&diff)
    }
}

/// Add `x` to versions `from..to` of a difference array.
pub(crate) fn add_interval(diff: &mut [u64], from: usize, to: usize, x: u64) {
    diff[from] = diff[from].wrapping_add(x);
    diff[to] = diff[to].wrapping_sub(x);
}

/// The per-version values a difference array (one slot longer than the
/// version count) encodes.
pub(crate) fn prefix_sums(diff: &[u64]) -> Vec<u64> {
    let mut sum = 0u64;
    diff[..diff.len() - 1]
        .iter()
        .map(|&d| {
            sum = sum.wrapping_add(d);
            sum
        })
        .collect()
}

/// `(name, version, value)` steps by name, where every name steps at
/// version 0: name `i`'s step there is `steps[i]`, and its later ones are
/// `steps[starts[i]..starts[i + 1]]`, in version order.
struct ByName<T> {
    starts: Vec<u32>,
    steps: Vec<(u32, u32, T)>,
}

impl<T: Copy> ByName<T> {
    /// Sort `steps` by name among `names`: they hold every name's step at
    /// version 0, in name order, then the later steps in version order.
    /// A counting pass fills `starts` (cleared first), every later step
    /// then moves once, into its name's run (an American flag sort, in
    /// place), and each run goes back into version order. `next` is
    /// working space.
    fn sort(
        names: usize,
        mut steps: Vec<(u32, u32, T)>,
        mut starts: Vec<u32>,
        next: &mut Vec<u32>,
    ) -> Self {
        starts.clear();
        starts.resize(names + 1, 0);
        starts[0] = names as u32;
        for &(name, ..) in &steps[names..] {
            starts[name as usize + 1] += 1;
        }
        for i in 0..names {
            starts[i + 1] += starts[i];
        }
        next.clear();
        next.extend_from_slice(&starts[..names]);
        for name in 0..names {
            while next[name] < starts[name + 1] {
                let at = next[name] as usize;
                let home = steps[at].0 as usize;
                if home != name {
                    steps.swap(at, next[home] as usize);
                }
                next[home] += 1;
            }
        }
        for name in 0..names {
            let run = &mut steps[starts[name] as usize..starts[name + 1] as usize];
            if run.len() > 1 {
                run.sort_unstable_by_key(|s| s.1);
            }
        }
        ByName { starts, steps }
    }

    /// Name `name`'s steps, in version order.
    fn run(&self, name: usize) -> impl Iterator<Item = &(u32, u32, T)> {
        let later = &self.steps[self.starts[name] as usize..self.starts[name + 1] as usize];
        std::iter::once(&self.steps[name]).chain(later)
    }
}

/// The arena's root: the empty suffix, above every name's top label.
const ROOT: u32 = 0;
/// No node, or no id yet.
const NONE: u32 = u32::MAX;

/// One node per distinct suffix of a set of names (`com`,
/// `example.com`, `www.example.com`, …), each numbered after its parent.
#[derive(Debug, Clone)]
struct Suffixes {
    /// Each node's parent: its suffix without the leftmost label.
    parent: Vec<u32>,
    /// Labels in each node's suffix.
    labels: Vec<u8>,
}

/// Node ids by suffix string.
type Index<'n> = HashMap<&'n str, u32, FnvBuild>;

impl Suffixes {
    fn len(&self) -> usize {
        self.parent.len()
    }

    /// The node of `name`, after adding a node for each of its suffixes
    /// that has none. `missing` is working space.
    fn insert<'n>(
        &mut self,
        index: &mut Index<'n>,
        name: &'n str,
        missing: &mut Vec<&'n str>,
    ) -> u32 {
        // The longest suffix that has a node: usually the name itself or
        // its parent.
        let mut suffix = name;
        let mut node = loop {
            if let Some(&node) = index.get(suffix) {
                break node;
            }
            missing.push(suffix);
            match suffix.split_once('.') {
                Some((_, rest)) => suffix = rest,
                None => break ROOT,
            }
        };
        for &suffix in missing.iter().rev() {
            let child = self.len() as u32;
            self.parent.push(node);
            self.labels.push(self.labels[node as usize] + 1);
            index.insert(suffix, child);
            node = child;
        }
        missing.clear();
        node
    }

    /// The node of `node`'s suffix that is `labels` labels long.
    fn ancestor(&self, mut node: u32, labels: usize) -> u32 {
        for _ in labels..usize::from(self.labels[node as usize]) {
            node = self.parent[node as usize];
        }
        node
    }

    /// Positions for `names` (a node each) in depth-first order, so the
    /// names at or under any node hold one contiguous range of positions:
    /// fills each node's range and the name at each position. `next` is
    /// working space.
    fn dfs_order(
        &self,
        names: &[u32],
        next: &mut Vec<u32>,
        ranges: &mut Vec<(u32, u32)>,
        order: &mut Vec<u32>,
    ) {
        // Names at each node, then at or under it (a child's id exceeds
        // its parent's), counted in the end of its range.
        ranges.resize(self.len(), (0, 0));
        for &node in names {
            ranges[node as usize].1 += 1;
        }
        next.extend(ranges.iter().map(|r| r.1));
        for node in (1..self.len()).rev() {
            ranges[self.parent[node] as usize].1 += ranges[node].1;
        }
        // A node's own names come first in its range, then its children's
        // ranges; `next` is the first position not yet handed out, and
        // still a node's own count when its range starts.
        for node in 1..self.len() {
            let parent = self.parent[node] as usize;
            let (start, under) = (next[parent], ranges[node].1);
            next[parent] += under;
            ranges[node] = (start, start + under);
            next[node] += start;
        }
        for (free, range) in next.iter_mut().zip(ranges.iter()) {
            *free = range.0;
        }
        order.resize(names.len(), 0);
        for (name, &node) in names.iter().enumerate() {
            order[next[node as usize] as usize] = name as u32;
            next[node as usize] += 1;
        }
    }
}

/// A node's rule slots, `[normal, wildcard, exception]`, each holding
/// its rule's section. An insert overwrites the slot (the last write
/// wins) and a remove clears it; the live rule count moves only when a
/// slot fills or empties.
type Slots = [Option<Section>; 3];

fn slot(kind: RuleKind) -> usize {
    match kind {
        RuleKind::Normal => 0,
        RuleKind::Wildcard => 1,
        RuleKind::Exception => 2,
    }
}

/// The public-suffix length of the name at `node` under the list's
/// algorithm (the longest match, unless an exception prevails), read
/// from the slots on the node's path to the root, deepest first.
fn suffix_len(arena: &Suffixes, slots: &[Slots], mut node: u32, opts: MatchOpts) -> Option<u32> {
    let allowed =
        |s: Option<Section>| s.is_some_and(|s| opts.include_private || s == Section::Icann);
    let mut longest = None;
    // Whether the name has a label below `node`, for a wildcard to match.
    let mut below = false;
    while node != ROOT {
        let [normal, wildcard, exception] = slots[node as usize];
        let labels = u32::from(arena.labels[node as usize]);
        // The deepest exception beats every match and strips one label.
        if allowed(exception) {
            return Some(labels - 1);
        }
        // Nothing matched deeper, so a wildcard here matches longest.
        if longest.is_none() {
            if below && allowed(wildcard) {
                longest = Some(labels + 1);
            } else if allowed(normal) {
                longest = Some(labels);
            }
        }
        below = true;
        node = arena.parent[node as usize];
    }
    longest.or(opts.implicit_wildcard.then_some(1))
}

/// What [`walk`] learned about a set of names.
#[derive(Debug, Clone)]
pub struct Walk {
    /// Rules live at each version.
    pub rule_counts: Vec<usize>,
    /// Each name's public-suffix length in labels through the versions
    /// (`None` while no rule matches and the implicit rule is off).
    pub suffix_lens: Timelines<Option<u32>>,
    arena: Suffixes,
    /// Each walked name's node.
    nodes: Vec<u32>,
}

impl Walk {
    /// Labels in walked name `name`.
    pub(crate) fn labels(&self, name: usize) -> usize {
        usize::from(self.arena.labels[self.nodes[name] as usize])
    }

    /// An id for walked name `name`'s suffix of `labels` labels (0 for the
    /// empty suffix, at most [`Walk::labels`]): two `(name, labels)` pairs
    /// share an id iff the suffix strings are equal.
    pub(crate) fn suffix_id(&self, name: usize, labels: usize) -> u32 {
        self.arena.ancestor(self.nodes[name], labels)
    }
}

/// Walk every version of `history` once, tracking the disposition of each
/// of `names` under `opts`, on `threads` workers: one per bin of
/// top-level labels (see the module docs).
pub fn walk(history: &History, names: &[DomainName], opts: MatchOpts, threads: usize) -> Walk {
    walk_bins(history, names, opts, threads, false).0
}

/// [`walk`] over `names` and, in the same pass, each name's parent (the
/// name without its leftmost label). The walk's first `names.len()`
/// timelines are the names'; after them come the parents that are not
/// walked names. Also returns each name's parent timeline (`None` for a
/// single-label name).
pub(crate) fn walk_with_parents(
    history: &History,
    names: &[DomainName],
    opts: MatchOpts,
    threads: usize,
) -> (Walk, Vec<Option<u32>>) {
    walk_bins(history, names, opts, threads, true)
}

/// Buckets per bin: top-level labels hash into this many buckets per
/// bin, and whole buckets go to the bins, so each label's names and rules
/// share a bin while the bins' name counts come out nearly even.
const BUCKETS_PER_BIN: usize = 64;

/// The bucket of top-level label `tld` among `buckets`.
fn bucket_of(tld: &str, buckets: usize) -> usize {
    if buckets == 1 {
        0
    } else {
        (psl_stats::hash64(tld.as_bytes()) % buckets as u64) as usize
    }
}

/// Each bucket's bin among `bins`, given the names in each bucket: the
/// buckets go largest first, each to the bin with the fewest names so
/// far.
fn balance(names: &[usize], bins: usize) -> Vec<usize> {
    let mut largest_first: Vec<usize> = (0..names.len()).collect();
    largest_first.sort_by_key(|&b| std::cmp::Reverse(names[b]));
    let mut load = vec![0; bins];
    let mut bin_of = vec![0; names.len()];
    for b in largest_first {
        let bin = (0..bins).min_by_key(|&bin| load[bin]).expect("at least one bin");
        bin_of[b] = bin;
        load[bin] += names[b];
    }
    bin_of
}

/// A name's top-level label.
fn tld(name: &DomainName) -> &str {
    let text = name.as_str();
    text.rsplit_once('.').map_or(text, |(_, tld)| tld)
}

/// Where a walk's names and rules go: each name's bucket, each rule
/// span's, and each bucket's bin.
struct Buckets {
    of_name: Vec<u32>,
    of_span: Vec<u32>,
    bin_of: Vec<usize>,
    /// Names and rule spans in each bin.
    sizes: Vec<(usize, usize)>,
}

impl Buckets {
    /// Hash every name's top-level label, and every rule span's, into one
    /// of [`BUCKETS_PER_BIN`] buckets per bin, on `bins` workers that take
    /// one run of the names and one of the spans each; [`balance`] then
    /// hands the buckets to the bins. One bin hashes nothing.
    fn new(history: &History, names: &[DomainName], bins: usize) -> Self {
        let spans = history.spans();
        let mut of_name = vec![0u32; names.len()];
        let mut of_span = vec![0u32; spans.len()];
        if bins == 1 {
            let sizes = vec![(names.len(), spans.len())];
            return Buckets { of_name, of_span, bin_of: vec![0], sizes };
        }
        let buckets = bins * BUCKETS_PER_BIN;
        // Names and spans per bucket, one table per worker.
        let mut counts = vec![(0usize, 0usize); bins * buckets];
        let (name_run, span_run) = (names.len().div_ceil(bins), spans.len().div_ceil(bins));
        let mut name_runs = names.chunks(name_run.max(1)).zip(of_name.chunks_mut(name_run.max(1)));
        let mut span_runs = spans.chunks(span_run.max(1)).zip(of_span.chunks_mut(span_run.max(1)));
        let mut runs = counts.chunks_mut(buckets).map(|counts| {
            let (names, of_name) = name_runs.next().unwrap_or_default();
            let (spans, of_span) = span_runs.next().unwrap_or_default();
            HashRun { names, of_name, spans, of_span, counts }
        });
        std::thread::scope(|scope| {
            let first = runs.next().expect("at least one worker");
            let workers: Vec<_> = runs.map(|run| scope.spawn(move || run.hash())).collect();
            first.hash();
            // Joined, not left to the scope: a joined thread's stack goes
            // back to the C library's cache before the bins' workers start.
            for worker in workers {
                worker.join().expect("hash worker panicked");
            }
        });
        let mut per_bucket = vec![(0, 0); buckets];
        for part in counts.chunks(buckets) {
            for (sum, &(names, spans)) in per_bucket.iter_mut().zip(part) {
                *sum = (sum.0 + names, sum.1 + spans);
            }
        }
        let names_in: Vec<usize> = per_bucket.iter().map(|c| c.0).collect();
        let bin_of = balance(&names_in, bins);
        let mut sizes = vec![(0, 0); bins];
        for (&bin, &(names, spans)) in bin_of.iter().zip(&per_bucket) {
            sizes[bin] = (sizes[bin].0 + names, sizes[bin].1 + spans);
        }
        Buckets { of_name, of_span, bin_of, sizes }
    }

    /// Name `name`'s bin.
    fn name_bin(&self, name: usize) -> usize {
        self.bin_of[self.of_name[name] as usize]
    }
}

/// One hashing worker's share of [`Buckets::new`]: a run of the names
/// and one of the rule spans, the buckets it fills for them, and its
/// count of names and spans per bucket.
struct HashRun<'a> {
    names: &'a [DomainName],
    of_name: &'a mut [u32],
    spans: &'a [RuleSpan],
    of_span: &'a mut [u32],
    counts: &'a mut [(usize, usize)],
}

impl HashRun<'_> {
    fn hash(self) {
        let buckets = self.counts.len();
        for (name, bucket) in self.names.iter().zip(self.of_name) {
            *bucket = bucket_of(tld(name), buckets) as u32;
            self.counts[*bucket as usize].0 += 1;
        }
        for (span, bucket) in self.spans.iter().zip(self.of_span) {
            let labels = span.rule.labels();
            *bucket = bucket_of(&labels[labels.len() - 1], buckets) as u32;
            self.counts[*bucket as usize].1 += 1;
        }
    }
}

/// Hash the names and the rules into `threads` bins by top-level label,
/// walk each bin on its own worker (the first on the calling thread), and
/// join the bins' walks.
fn walk_bins(
    history: &History,
    names: &[DomainName],
    opts: MatchOpts,
    threads: usize,
    parents: bool,
) -> (Walk, Vec<Option<u32>>) {
    let buckets = Buckets::new(history, names, threads.max(1));
    let bins: Vec<Bin<'_, '_>> = buckets
        .sizes
        .iter()
        .map(|&(names, spans)| Bin::new(names, spans, history, parents))
        .collect();
    let mut bins = bins.into_iter().enumerate();
    let (_, first) = bins.next().expect("at least one bin");
    let source = &Source { history, names, buckets: &buckets, opts, parents };
    let walked: Vec<BinWalk> = std::thread::scope(|scope| {
        let workers: Vec<_> =
            bins.map(|(b, bin)| scope.spawn(move || bin.walk(b, source))).collect();
        let mut walked = vec![first.walk(0, source)];
        walked.extend(workers.into_iter().map(|w| w.join().expect("walk worker panicked")));
        walked
    });
    join(&walked, &buckets, history.version_count(), parents)
}

/// What every bin of one walk reads.
struct Source<'a> {
    history: &'a History,
    names: &'a [DomainName],
    buckets: &'a Buckets,
    opts: MatchOpts,
    parents: bool,
}

/// One bin of a walk and every buffer its walk fills. The calling
/// thread allocates every bin's buffers before the workers start, and the
/// workers only fill them: glibc gives each thread its own heap, where
/// buffers a worker allocated would stay resident beside the caller's
/// and raise the peak.
struct Bin<'n, 'h> {
    /// The bin's names, by index, ascending.
    names: Vec<u32>,
    arena: Suffixes,
    index: Index<'n>,
    /// Nodes past the arena for rules with no name under them.
    rule_nodes: HashMap<&'h [String], u32, FnvBuild>,
    /// Each walked name's node: the bin's names, then the parents of
    /// theirs that are not names.
    nodes: Vec<u32>,
    /// Each name's parent, as a walked name (`None` for a single label).
    parents: Vec<Option<u32>>,
    /// Working space of the depth-first numbering and the step sort.
    next: Vec<u32>,
    /// Each node's range of positions.
    ranges: Vec<(u32, u32)>,
    /// The walked name at each position, and its node.
    order: Vec<u32>,
    at: Vec<u32>,
    slots: Vec<Slots>,
    /// The suffix length at each position.
    current: Vec<Option<u32>>,
    /// The ranges a version's changes touched.
    dirty: Vec<(u32, u32)>,
    missing: Vec<&'n str>,
    /// A rule's labels joined, to look up its node.
    key: String,
    /// `(walked name, version, suffix length)` at every change.
    steps: Vec<(u32, u32, Option<u32>)>,
    /// Each walked name's first step once the steps are sorted by name.
    starts: Vec<u32>,
    rule_counts: Vec<usize>,
}

/// What one bin's walk leaves for [`join`].
struct BinWalk {
    names: Vec<u32>,
    arena: Suffixes,
    nodes: Vec<u32>,
    parents: Vec<Option<u32>>,
    /// Each walked name's suffix length steps, by its index in the bin.
    steps: ByName<Option<u32>>,
    rule_counts: Vec<usize>,
}

impl<'n, 'h> Bin<'n, 'h> {
    /// Buffers for a bin of `names` names and `spans` of `history`'s rule
    /// spans, with room for the usual shapes: at paper scale a name
    /// brings about 1.2 arena nodes, a walk with parents 1.15 walked
    /// names, and a walked name 1.6 steps. A bin past that grows a buffer
    /// on its worker. Room for the worst case (a node per label) made the
    /// paper-scale walk about a quarter slower.
    fn new(names: usize, spans: usize, history: &History, parents: bool) -> Self {
        let walked = if parents { names + names / 4 } else { names };
        let nodes = names * 3 / 2 + 1;
        let versions = history.version_count();
        let most = (0..versions).map(|v| history.version_changes(v).len()).max().unwrap_or(0);
        Bin {
            names: Vec::with_capacity(names),
            arena: Suffixes {
                parent: Vec::with_capacity(nodes),
                labels: Vec::with_capacity(nodes),
            },
            index: Index::with_capacity_and_hasher(nodes, FnvBuild::default()),
            rule_nodes: HashMap::with_capacity_and_hasher(spans, FnvBuild::default()),
            nodes: Vec::with_capacity(walked),
            parents: Vec::with_capacity(if parents { names } else { 0 }),
            next: Vec::with_capacity(nodes),
            ranges: Vec::with_capacity(nodes),
            order: Vec::with_capacity(walked),
            at: Vec::with_capacity(walked),
            slots: Vec::with_capacity(nodes + spans),
            current: Vec::with_capacity(walked),
            dirty: Vec::with_capacity(most + 1),
            missing: Vec::with_capacity(128),
            key: String::with_capacity(256),
            steps: Vec::with_capacity(walked * 2),
            starts: Vec::with_capacity(walked + 1),
            rule_counts: Vec::with_capacity(versions),
        }
    }

    /// Take bin `bin`'s names, build its arena over them (and their
    /// parents), number them depth first, and replay its rule changes,
    /// re-matching only the names under each changed node; then sort the
    /// steps by walked name.
    fn walk(self, bin: usize, source: &Source<'n>) -> BinWalk
    where
        'n: 'h,
    {
        let Bin {
            mut names,
            mut arena,
            mut index,
            mut rule_nodes,
            mut nodes,
            mut parents,
            mut next,
            mut ranges,
            mut order,
            mut at,
            mut slots,
            mut current,
            mut dirty,
            mut missing,
            mut key,
            mut steps,
            starts,
            mut rule_counts,
        } = self;
        let &Source { history, names: all, buckets, opts, parents: with_parents } = source;
        let spans = history.spans();
        names.extend((0..all.len() as u32).filter(|&i| buckets.name_bin(i as usize) == bin));
        arena.parent.push(NONE);
        arena.labels.push(0);
        for &name in &names {
            nodes.push(arena.insert(&mut index, all[name as usize].as_str(), &mut missing));
        }
        if with_parents {
            // `next` maps a node to its walked name until the numbering.
            next.resize(arena.len(), NONE);
            for (name, &node) in nodes.iter().enumerate() {
                next[node as usize] = name as u32;
            }
            for name in 0..names.len() {
                let parent = arena.parent[nodes[name] as usize];
                parents.push((parent != ROOT).then(|| {
                    if next[parent as usize] == NONE {
                        next[parent as usize] = nodes.len() as u32;
                        nodes.push(parent);
                    }
                    next[parent as usize]
                }));
            }
            next.clear();
        }
        arena.dfs_order(&nodes, &mut next, &mut ranges, &mut order);
        at.extend(order.iter().map(|&name| nodes[name as usize]));
        slots.resize(arena.len(), [None; 3]);
        current.resize(at.len(), None);
        let mut live = 0;
        for vi in 0..history.version_count() {
            for &(is_add, span) in history.version_changes(vi) {
                if buckets.bin_of[buckets.of_span[span as usize] as usize] != bin {
                    continue;
                }
                let rule: &'h Rule = &spans[span as usize].rule;
                key.clear();
                for (i, label) in rule.labels().iter().enumerate() {
                    if i > 0 {
                        key.push('.');
                    }
                    key.push_str(label);
                }
                let node = match index.get(key.as_str()) {
                    Some(&node) => node,
                    None => *rule_nodes.entry(rule.labels()).or_insert_with(|| {
                        slots.push([None; 3]);
                        slots.len() as u32 - 1
                    }),
                };
                let slot = &mut slots[node as usize][slot(rule.kind())];
                if is_add {
                    live += usize::from(slot.is_none());
                    *slot = Some(rule.section());
                } else if slot.take().is_some() {
                    live -= 1;
                }
                // A rule past the arena has no name under it.
                dirty.extend(ranges.get(node as usize));
            }
            if vi == 0 {
                // Every walked name steps here, in name order, so only the
                // later steps need sorting by name.
                for (name, &node) in nodes.iter().enumerate() {
                    steps.push((name as u32, 0, suffix_len(&arena, &slots, node, opts)));
                }
                for (len, &name) in current.iter_mut().zip(&order) {
                    *len = steps[name as usize].2;
                }
            } else {
                // Ranges nest or are disjoint: visit each position once.
                dirty.sort_unstable();
                let mut done = 0;
                for &(lo, hi) in &dirty {
                    for pos in lo.max(done)..hi {
                        let len = suffix_len(&arena, &slots, at[pos as usize], opts);
                        if len != current[pos as usize] {
                            current[pos as usize] = len;
                            steps.push((order[pos as usize], vi as u32, len));
                        }
                    }
                    done = done.max(hi);
                }
            }
            dirty.clear();
            rule_counts.push(live);
        }
        let steps = ByName::sort(nodes.len(), steps, starts, &mut next);
        BinWalk { names, arena, nodes, parents, steps, rule_counts }
    }
}

/// Join the bins' walks into one: one arena with each bin's nodes after
/// the shared root, the steps of every walked name under its index (the
/// names first, then each bin's parents that are not names, bin by bin),
/// and the live rules summed per version. Each bin holds its steps
/// sorted by its own walked names, ascending with the walk's, so the
/// join lays each name's run after the last. Also returns each name's
/// parent when the bins walked `parents`.
fn join(
    bins: &[BinWalk],
    buckets: &Buckets,
    versions: usize,
    parents: bool,
) -> (Walk, Vec<Option<u32>>) {
    let names = buckets.of_name.len();
    // Bin `b`'s walked name `k` past its names is walked name
    // `firsts[b] + k`: after every name and every earlier bin's parents.
    let mut firsts = Vec::with_capacity(bins.len());
    let mut walked = names;
    for bin in bins {
        firsts.push(walked - bin.names.len());
        walked += bin.nodes.len() - bin.names.len();
    }
    let index = |b: usize, name: u32| -> u32 {
        let bin = &bins[b];
        bin.names.get(name as usize).copied().unwrap_or((firsts[b] + name as usize) as u32)
    };
    let total = 1 + bins.iter().map(|bin| bin.arena.len() - 1).sum::<usize>();
    let mut arena =
        Suffixes { parent: Vec::with_capacity(total), labels: Vec::with_capacity(total) };
    arena.parent.push(NONE);
    arena.labels.push(0);
    let mut nodes = vec![0u32; walked];
    let mut parent_of = vec![None; if parents { names } else { 0 }];
    let mut rule_counts = vec![0usize; versions];
    for (b, bin) in bins.iter().enumerate() {
        // The bin's node `n > 0` is node `n + offset`.
        let offset = arena.len() as u32 - 1;
        let moved = |n: u32| if n == ROOT { ROOT } else { n + offset };
        arena.parent.extend(bin.arena.parent[1..].iter().map(|&p| moved(p)));
        arena.labels.extend_from_slice(&bin.arena.labels[1..]);
        for (name, &node) in bin.nodes.iter().enumerate() {
            nodes[index(b, name as u32) as usize] = moved(node);
        }
        for (&name, &parent) in bin.names.iter().zip(&bin.parents) {
            parent_of[name as usize] = parent.map(|p| index(b, p));
        }
        for (sum, &count) in rule_counts.iter_mut().zip(&bin.rule_counts) {
            *sum += count;
        }
    }
    let mut starts = Vec::with_capacity(walked + 1);
    let mut steps = Vec::with_capacity(bins.iter().map(|bin| bin.steps.steps.len()).sum());
    starts.push(0);
    // Each bin's next walked name.
    let mut next = vec![0usize; bins.len()];
    let walked_names = (0..names).map(|name| buckets.name_bin(name));
    let walked_parents = bins
        .iter()
        .enumerate()
        .flat_map(|(b, bin)| std::iter::repeat_n(b, bin.nodes.len() - bin.names.len()));
    for b in walked_names.chain(walked_parents) {
        steps.extend(bins[b].steps.run(next[b]).map(|&(_, v, len)| (v, len)));
        next[b] += 1;
        starts.push(steps.len() as u32);
    }
    let suffix_lens = Timelines { starts, steps };
    (Walk { rule_counts, suffix_lens, arena, nodes }, parent_of)
}

/// The census of a walk over `hosts` (the names it walked): each latest
/// public suffix with the number of hosts strictly under it, in order of
/// first appearance. A host that is itself a public suffix, or that no
/// rule matches, is under none. Each host's suffix is its last step in
/// [`Walk::suffix_lens`], which is the latest list's under the walk's
/// options.
pub fn census<'h>(walk: &Walk, hosts: &'h [DomainName]) -> Vec<(&'h str, usize)> {
    let mut entry = vec![NONE; walk.arena.len()];
    let mut counts: Vec<(&str, usize)> = Vec::new();
    for (h, host) in hosts.iter().enumerate() {
        let Some(len) = walk.suffix_lens.latest(h).map(|l| l as usize) else {
            continue;
        };
        let strictly_under = |suffix: &&str| suffix.len() < host.as_str().len();
        let Some(suffix) = host.suffix_of_len(len).filter(strictly_under) else {
            continue;
        };
        let at = &mut entry[walk.suffix_id(h, len) as usize];
        if *at == NONE {
            *at = counts.len() as u32;
            counts.push((suffix, 0));
        }
        counts[*at as usize].1 += 1;
    }
    counts
}

/// Each walked name's site through the versions, as dense ids that hold
/// across versions: two `(name, version)` pairs share an id iff their
/// site strings are equal. A site is a suffix of its name, so ids number
/// the site nodes in order of first appearance. Returns the timelines
/// and the number of ids.
pub fn site_ids(walk: &Walk) -> (Timelines<u32>, usize) {
    let mut numbers = SiteNumbers::new(walk);
    let sites = walk.suffix_lens.map(|name, len| numbers.id(name, len));
    (sites, numbers.count())
}

/// [`site_ids`]' numbering, for a caller that reads the steps one by one:
/// asked for every step in name order, it hands out the same ids.
pub(crate) struct SiteNumbers<'w> {
    walk: &'w Walk,
    /// Each arena node's site id, once it has one.
    ids: Vec<u32>,
    count: u32,
}

impl<'w> SiteNumbers<'w> {
    pub(crate) fn new(walk: &'w Walk) -> Self {
        SiteNumbers { walk, ids: vec![NONE; walk.arena.len()], count: 0 }
    }

    /// The id of walked name `name`'s site under a public suffix of `len`
    /// labels.
    pub(crate) fn id(&mut self, name: usize, len: Option<u32>) -> u32 {
        let site = site_len(len.map(|l| l as usize), self.walk.labels(name));
        let id = &mut self.ids[self.walk.suffix_id(name, site) as usize];
        if *id == NONE {
            *id = self.count;
            self.count += 1;
        }
        *id
    }

    /// Ids handed out so far.
    pub(crate) fn count(&self) -> usize {
        self.count as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psl_core::Date;
    use psl_history::{generate, GeneratorConfig, RuleSpan};
    use psl_webcorpus::{generate_corpus, CorpusConfig};

    const ALL_OPTS: [MatchOpts; 3] = [
        MatchOpts { include_private: true, implicit_wildcard: true },
        MatchOpts { include_private: false, implicit_wildcard: true },
        MatchOpts { include_private: true, implicit_wildcard: false },
    ];

    /// One bin, two, an uneven count, and more bins than the hand-built
    /// worlds have top-level labels.
    const THREADS: [usize; 4] = [1, 2, 3, 8];

    fn names(texts: &[&str]) -> Vec<DomainName> {
        texts.iter().map(|t| DomainName::parse(t).unwrap()).collect()
    }

    fn span(text: &str, section: Section, added: &str, removed: Option<&str>) -> RuleSpan {
        RuleSpan {
            rule: Rule::parse(text, section).unwrap(),
            added: Date::parse(added).unwrap(),
            removed: removed.map(|r| Date::parse(r).unwrap()),
        }
    }

    fn history(spans: Vec<RuleSpan>, versions: &[&str]) -> History {
        History::new(spans, versions.iter().map(|v| Date::parse(v).unwrap()).collect())
    }

    /// The walk's rule counts and suffix lengths equal `snapshot_at`'s at
    /// every version, under every match option and worker count.
    fn assert_walk_matches_snapshots(h: &History, names: &[DomainName]) {
        for (opts, threads) in ALL_OPTS.into_iter().flat_map(|o| THREADS.map(|t| (o, t))) {
            let w = walk(h, names, opts, threads);
            for (v, &date) in h.versions().iter().enumerate() {
                let list = h.snapshot_at(date);
                assert_eq!(w.rule_counts[v], list.len(), "rule count at {date}, {threads} threads");
                for (i, name) in names.iter().enumerate() {
                    assert_eq!(
                        w.suffix_lens.at(i, v).map(|l| l as usize),
                        list.suffix_len(name, opts),
                        "{name} at {date} under {opts:?}, {threads} threads"
                    );
                }
            }
        }
    }

    /// Two `(name, version)` pairs share a site id iff their sites under
    /// `snapshot_at` are the same string.
    fn assert_site_ids_match_snapshots(h: &History, names: &[DomainName], opts: MatchOpts) {
        let (sites, count) = site_ids(&walk(h, names, opts, 1));
        let mut id_of: HashMap<String, u32> = HashMap::new();
        let mut site_of_id: HashMap<u32, String> = HashMap::new();
        for (v, &date) in h.versions().iter().enumerate() {
            let list = h.snapshot_at(date);
            for (i, name) in names.iter().enumerate() {
                let site = site_of(name, list.suffix_len(name, opts)).to_string();
                let id = sites.at(i, v);
                assert_eq!(*id_of.entry(site.clone()).or_insert(id), id, "{site} at {date}");
                assert_eq!(
                    *site_of_id.entry(id).or_insert(site.clone()),
                    site,
                    "id {id} at {date}"
                );
            }
        }
        assert_eq!(site_of_id.len(), count);
    }

    #[test]
    fn walker_matches_snapshots() {
        let h = generate(&GeneratorConfig::small(611));
        let corpus = generate_corpus(&h, &CorpusConfig::small(17));
        // The corpus plus a seeded late suffix and base suffixes.
        let mut names = corpus.hosts().to_vec();
        for probe in ["myshopify.com", "co.uk", "com"] {
            names.push(DomainName::parse(probe).unwrap());
        }
        let all_opts = [
            MatchOpts::default(),
            MatchOpts { include_private: false, implicit_wildcard: true },
            MatchOpts { include_private: true, implicit_wildcard: false },
        ];
        let walks: Vec<Walk> = all_opts.iter().map(|&opts| walk(&h, &names, opts, 1)).collect();
        for (v, &date) in h.versions().iter().enumerate() {
            let list = h.snapshot_at(date);
            for (w, &opts) in walks.iter().zip(&all_opts) {
                assert_eq!(w.rule_counts[v], list.len(), "rule count at {date}");
                for (i, name) in names.iter().enumerate() {
                    assert_eq!(
                        w.suffix_lens.at(i, v).map(|l| l as usize),
                        list.suffix_len(name, opts),
                        "{name} at {date} under {opts:?}"
                    );
                }
            }
        }
        // Steps only where the suffix length changes, and few of them.
        let w = &walks[0];
        for i in 0..names.len() {
            assert!(w.suffix_lens.steps(i).windows(2).all(|s| s[0].0 < s[1].0 && s[0].1 != s[1].1));
        }
        let steps: usize = (0..names.len()).map(|i| w.suffix_lens.steps(i).len()).sum();
        assert!(steps < 2 * names.len());
        // myshopify.com becomes a public suffix over the history.
        let shopify = names.len() - 3;
        assert_eq!(w.suffix_lens.at(shopify, 0), Some(1));
        assert_eq!(w.suffix_lens.latest(shopify), Some(2));
    }

    #[test]
    fn tally_sums_the_values_in_force() {
        let t = Timelines {
            starts: vec![0, 3, 5],
            steps: vec![(0, 1u32), (2, 3), (4, 1), (0, 5), (3, 7)],
        };
        assert_eq!(t.at(0, 3), 3);
        assert_eq!(t.latest(1), 7);
        assert_eq!(t.tally(5, |_, x| u64::from(x)), vec![6, 6, 8, 10, 8]);
        let parity = t.map(|_, x| x % 2);
        assert_eq!(parity.steps(0), &[(0, 1)]);
        assert_eq!(site_len(Some(2), 2), 2);
        assert_eq!(site_len(Some(1), 3), 2);
        assert_eq!(site_len(None, 3), 3);
    }

    #[test]
    fn site_ids_are_equal_iff_the_sites_are() {
        let h = generate(&GeneratorConfig::small(611));
        let hosts = generate_corpus(&h, &CorpusConfig::small(17)).hosts().to_vec();
        for opts in ALL_OPTS {
            assert_site_ids_match_snapshots(&h, &hosts, opts);
        }
    }

    /// The census equals grouping the hosts by `latest.public_suffix`, the
    /// per-host string match it replaces, under every match option.
    #[test]
    fn census_equals_latest_public_suffix_grouping() {
        let h = generate(&GeneratorConfig::small(611));
        let mut hosts = generate_corpus(&h, &CorpusConfig::small(17)).hosts().to_vec();
        hosts.extend(names(&[
            // Hosts equal to a rule, one of them single-label.
            "co.uk",
            "myshopify.com",
            "com",
            // A single-label host no rule matches.
            "localhost",
            // Matches of the seeded `*.ck` wildcard: a host equal to the
            // wildcard's suffix, and two under it.
            "foo.ck",
            "a.foo.ck",
            "b.foo.ck",
            // Hosts at and under its `!www.ck` exception.
            "www.ck",
            "a.www.ck",
        ]));
        let latest = h.latest_snapshot();
        for opts in ALL_OPTS {
            let mut want: HashMap<&str, usize> = HashMap::new();
            for host in &hosts {
                let Some(suffix) = latest.public_suffix(host, opts) else {
                    continue;
                };
                if suffix.len() < host.as_str().len() {
                    *want.entry(suffix).or_default() += 1;
                }
            }
            let counts = census(&walk(&h, &hosts, opts, 1), &hosts);
            let got: HashMap<&str, usize> = counts.iter().copied().collect();
            assert_eq!(got.len(), counts.len(), "a suffix listed twice under {opts:?}");
            assert_eq!(got, want, "{opts:?}");
            assert_eq!(got["foo.ck"], 2, "{opts:?}");
            assert!(!got.contains_key("localhost") && !got.contains_key("www.ck"));
            assert!(got["ck"] >= 2, "{opts:?}");
        }
    }

    /// Hand-built names and rules the generated worlds rarely combine.
    fn shapes() -> (History, Vec<DomainName>) {
        let h = history(
            vec![
                span("com", Section::Icann, "2007-03-22", None),
                span("io", Section::Icann, "2007-03-22", None),
                span("uk", Section::Icann, "2007-03-22", None),
                span("ck", Section::Icann, "2007-03-22", None),
                // A name nested in another, then a rule equal to the
                // shorter name.
                span("b.example.com", Section::Private, "2013-04-15", None),
                // A rule equal to a name.
                span("github.io", Section::Private, "2010-01-01", None),
                // A wildcard with an exception under it, added in one
                // version and removed in a later one.
                span("*.ck", Section::Icann, "2010-01-01", Some("2015-06-01")),
                span("!www.ck", Section::Icann, "2010-01-01", Some("2015-06-01")),
                // A longer rule under the exception, which still prevails.
                span("city.www.ck", Section::Private, "2013-04-15", None),
                // No name under it: only the rule counts move.
                span("co.uk", Section::Icann, "2013-04-15", None),
                span("gone.uk", Section::Private, "2010-01-01", Some("2013-04-15")),
            ],
            &["2007-03-22", "2010-01-01", "2013-04-15", "2015-06-01", "2022-10-20"],
        );
        let names = names(&[
            "b.example.com",
            "a.b.example.com",
            "github.io",
            "alice.github.io",
            "alice.github.io",
            "b.example.com",
            "localhost",
            "ck",
            "www.ck",
            "a.www.ck",
            "foo.ck",
            "x.foo.ck",
            "a.city.www.ck",
        ]);
        (h, names)
    }

    #[test]
    fn name_shapes_match_snapshots() {
        let (h, names) = shapes();
        assert_walk_matches_snapshots(&h, &names);
        for opts in ALL_OPTS {
            assert_site_ids_match_snapshots(&h, &names, opts);
        }
        let w = walk(&h, &names, MatchOpts::default(), 1);
        assert_eq!(w.rule_counts, [4, 8, 10, 8, 8]);
        assert_eq!(w.suffix_lens.steps(1), [(0, Some(1)), (2, Some(3))]);
        assert_eq!(w.suffix_lens.steps(4), w.suffix_lens.steps(3));
        // The exception keeps a.www.ck's suffix at `ck` throughout.
        assert_eq!(w.suffix_lens.steps(9), [(0, Some(1))]);
        assert_eq!(w.suffix_lens.steps(11), [(0, Some(1)), (1, Some(2)), (3, Some(1))]);
        assert_eq!(w.suffix_lens.steps(12), [(0, Some(1)), (3, Some(3))]);
    }

    /// A name's parent as its readers see it: the parent's steps, and its
    /// id renumbered by first appearance.
    type ParentSeen = (Option<Vec<(u32, Option<u32>)>>, u32);

    /// Each name's parent through the versions, by its parent's steps, and
    /// its parent id renumbered by first appearance (ids are arena nodes,
    /// which the bins number differently).
    fn parents_seen(w: &Walk, parents: &[Option<u32>]) -> Vec<ParentSeen> {
        let mut first: HashMap<u32, u32> = HashMap::new();
        parents
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let id = w.suffix_id(i, w.labels(i) - 1);
                let next = first.len() as u32;
                (
                    p.map(|p| w.suffix_lens.steps(p as usize).to_vec()),
                    *first.entry(id).or_insert(next),
                )
            })
            .collect()
    }

    /// Every worker count reads the same out of the walk: the suffix
    /// lengths, rule counts, site ids, census and parents of one worker.
    /// The hand-built world holds a single-label name (`localhost`), a
    /// name equal to its top-level rule (`ck`), rules under a top-level
    /// label no name is under (`uk`), rules added and later removed, and
    /// `*.ck` with `!www.ck`.
    #[test]
    fn every_thread_count_walks_alike() {
        let small = generate(&GeneratorConfig::small(611));
        let hosts = generate_corpus(&small, &CorpusConfig::small(17)).hosts().to_vec();
        let (shaped, names) = shapes();
        for (h, names) in [(&small, &hosts), (&shaped, &names)] {
            for opts in ALL_OPTS {
                let one = walk(h, names, opts, 1);
                let (with_parents, parents) = walk_with_parents(h, names, opts, 1);
                let one_parents = parents_seen(&with_parents, &parents);
                for name in 0..names.len() {
                    assert_eq!(with_parents.suffix_lens.steps(name), one.suffix_lens.steps(name));
                }
                for threads in THREADS {
                    let shape = format!("{opts:?}, {threads} threads");
                    let w = walk(h, names, opts, threads);
                    assert_eq!(w.suffix_lens, one.suffix_lens, "{shape}");
                    assert_eq!(w.rule_counts, one.rule_counts, "{shape}");
                    assert_eq!(site_ids(&w), site_ids(&one), "{shape}");
                    assert_eq!(census(&w, names), census(&one, names), "{shape}");
                    let (w, parents) = walk_with_parents(h, names, opts, threads);
                    assert_eq!(parents_seen(&w, &parents), one_parents, "{shape}");
                }
            }
        }
        // The rules under `uk` move the count with no name under them.
        assert_eq!(walk(&shaped, &names, MatchOpts::default(), 2).rule_counts, [4, 8, 10, 8, 8]);
    }

    proptest::proptest! {
        /// The sort by name keeps each name's steps in version order: its
        /// step at version 0, then its later ones.
        #[test]
        fn by_name_keeps_each_names_steps_in_version_order(
            later in proptest::collection::vec(0u32..12, 0..200),
        ) {
            let mut steps: Vec<(u32, u32, u32)> = (0..12).map(|name| (name, 0, name)).collect();
            steps.extend(later.iter().enumerate().map(|(v, &name)| (name, v as u32 + 1, v as u32)));
            let mut want: Vec<Vec<(u32, u32, u32)>> = vec![Vec::new(); 12];
            for &step in &steps {
                want[step.0 as usize].push(step);
            }
            let sorted = ByName::sort(12, steps, Vec::new(), &mut Vec::new());
            for (name, want) in want.iter().enumerate() {
                let got: Vec<(u32, u32, u32)> = sorted.run(name).copied().collect();
                proptest::prop_assert_eq!(&got, want);
            }
        }
    }

    /// The buckets go largest first to the bin with the fewest names, so
    /// the bins end within the largest bucket of each other.
    #[test]
    fn balance_hands_the_largest_buckets_out_first() {
        let names = [2055, 10, 700, 700, 5, 1400, 0, 1300];
        assert_eq!(balance(&names, 2), [0, 0, 0, 1, 0, 1, 0, 1]);
        for bins in 1..=4 {
            let mut load = vec![0; bins];
            for (b, bin) in balance(&names, bins).into_iter().enumerate() {
                load[bin] += names[b];
            }
            let (lo, hi) = (load.iter().min().unwrap(), load.iter().max().unwrap());
            assert!(hi - lo <= 2055, "{bins} bins: {load:?}");
            assert_eq!(load.iter().sum::<usize>(), names.iter().sum::<usize>());
        }
    }

    /// History's replay edge cases: a span removed before the first
    /// version, and a same-date section move with the new span listed
    /// first.
    #[test]
    fn walk_matches_snapshots_on_replay_edge_cases() {
        let removed_early = history(
            vec![
                span("com", Section::Icann, "2007-03-22", None),
                span("old.com", Section::Private, "2005-01-01", Some("2006-01-01")),
            ],
            &["2007-03-22", "2008-01-01"],
        );
        assert_walk_matches_snapshots(&removed_early, &names(&["a.old.com", "old.com"]));
        let moved = history(
            vec![
                span("com", Section::Icann, "2007-03-22", None),
                span("foo.com", Section::Private, "2010-01-01", None),
                span("foo.com", Section::Icann, "2007-03-22", Some("2010-01-01")),
            ],
            &["2007-03-22", "2010-01-01", "2011-01-01"],
        );
        assert_walk_matches_snapshots(&moved, &names(&["x.foo.com", "foo.com"]));
    }
}
