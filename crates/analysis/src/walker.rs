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
//! [`site_len`] is the one definition of a name's site under a
//! disposition: the walk's callers and the rebuild oracle
//! ([`crate::sweep::sweep_rebuild`]) both go through it. A site is a
//! suffix of its name, so it is a node of the arena, and [`site_ids`]
//! numbers sites by node. [`census`] counts the names under each latest
//! public suffix from the names' last steps; Table 2 and the cookie and
//! certificate harms read it.

use psl_core::{DomainName, FnvBuild, MatchOpts, RuleKind, Section};
use psl_history::History;
use std::borrow::Cow;
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
#[derive(Debug, Clone)]
pub struct Timelines<T> {
    starts: Vec<u32>,
    steps: Vec<(u32, T)>,
}

impl<T: Copy + PartialEq> Timelines<T> {
    /// Assemble from `(name, version, value)` changes, each name's in
    /// ascending version order: a counting sort places every change
    /// under its name, keeping that order.
    fn from_changes(names: usize, changes: Vec<(u32, u32, T)>) -> Self {
        let mut starts = vec![0u32; names + 1];
        for &(name, ..) in &changes {
            starts[name as usize + 1] += 1;
        }
        for i in 0..names {
            starts[i + 1] += starts[i];
        }
        let Some(&(_, v, t)) = changes.first() else {
            return Timelines { starts, steps: Vec::new() };
        };
        let mut steps = vec![(v, t); changes.len()];
        let mut next = starts.clone();
        for (name, v, t) in changes {
            let at = &mut next[name as usize];
            steps[*at as usize] = (v, t);
            *at += 1;
        }
        Timelines { starts, steps }
    }

    /// Number of names.
    pub fn names(&self) -> usize {
        self.starts.len() - 1
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

/// Node ids by suffix string. Rules with no name under them get owned
/// keys and ids past the arena.
type Index<'a> = HashMap<Cow<'a, str>, u32, FnvBuild>;

impl Suffixes {
    /// The arena of every suffix of `names`, its index, and each name's
    /// node.
    fn build(names: &[DomainName]) -> (Self, Index<'_>, Vec<u32>) {
        let mut arena = Suffixes { parent: vec![NONE], labels: vec![0] };
        let mut index = Index::with_capacity_and_hasher(names.len() * 3 / 2, FnvBuild::default());
        let mut missing: Vec<&str> = Vec::new();
        let nodes = names
            .iter()
            .map(|name| {
                // The longest suffix that has a node: usually the name
                // itself or its parent.
                let mut suffix = name.as_str();
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
                    let child = arena.parent.len() as u32;
                    arena.parent.push(node);
                    arena.labels.push(arena.labels[node as usize] + 1);
                    index.insert(Cow::Borrowed(suffix), child);
                    node = child;
                }
                missing.clear();
                node
            })
            .collect();
        (arena, index, nodes)
    }

    fn len(&self) -> usize {
        self.parent.len()
    }

    /// The node of `node`'s suffix that is `labels` labels long.
    fn ancestor(&self, mut node: u32, labels: usize) -> u32 {
        for _ in labels..usize::from(self.labels[node as usize]) {
            node = self.parent[node as usize];
        }
        node
    }

    /// Positions for `names` (a node each) in depth-first order, so the
    /// names at or under any node hold one contiguous range of positions.
    /// Returns each node's range and the name at each position.
    fn dfs_order(&self, names: &[u32]) -> (Vec<(u32, u32)>, Vec<u32>) {
        let mut own = vec![0u32; self.len()];
        for &node in names {
            own[node as usize] += 1;
        }
        // Names at or under each node; a child's id exceeds its parent's.
        let mut under = own.clone();
        for node in (1..self.len()).rev() {
            under[self.parent[node] as usize] += under[node];
        }
        // A node's own names come first in its range, then its children's
        // ranges; `next` is the first position not yet handed out, and
        // still a node's own count when its range starts.
        let mut ranges = vec![(0, under[0]); self.len()];
        let mut next = own;
        for node in 1..self.len() {
            let parent = self.parent[node] as usize;
            let start = next[parent];
            next[parent] += under[node];
            ranges[node] = (start, start + under[node]);
            next[node] += start;
        }
        let mut order = vec![0u32; names.len()];
        for (free, range) in next.iter_mut().zip(&ranges) {
            *free = range.0;
        }
        for (name, &node) in names.iter().enumerate() {
            order[next[node as usize] as usize] = name as u32;
            next[node as usize] += 1;
        }
        (ranges, order)
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
/// of `names` under `opts`.
pub fn walk(history: &History, names: &[DomainName], opts: MatchOpts) -> Walk {
    let (arena, index, nodes) = Suffixes::build(names);
    walk_nodes(history, arena, index, nodes, opts)
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
) -> (Walk, Vec<Option<u32>>) {
    let (arena, index, mut nodes) = Suffixes::build(names);
    let mut timeline = vec![NONE; arena.len()];
    for (name, &node) in nodes.iter().enumerate() {
        timeline[node as usize] = name as u32;
    }
    let parents = (0..names.len())
        .map(|name| {
            let parent = arena.parent[nodes[name] as usize];
            (parent != ROOT).then(|| {
                if timeline[parent as usize] == NONE {
                    timeline[parent as usize] = nodes.len() as u32;
                    nodes.push(parent);
                }
                timeline[parent as usize]
            })
        })
        .collect();
    (walk_nodes(history, arena, index, nodes, opts), parents)
}

/// The walk over names given as arena nodes.
fn walk_nodes(
    history: &History,
    arena: Suffixes,
    mut index: Index<'_>,
    nodes: Vec<u32>,
    opts: MatchOpts,
) -> Walk {
    let (ranges, order) = arena.dfs_order(&nodes);
    let at: Vec<u32> = order.iter().map(|&name| nodes[name as usize]).collect();
    let mut slots: Vec<Slots> = vec![[None; 3]; arena.len()];
    let mut live = 0;
    let mut key = String::new();
    let mut dirty: Vec<(u32, u32)> = Vec::new();
    let mut current: Vec<Option<u32>> = vec![None; at.len()];
    let mut changes: Vec<(u32, u32, Option<u32>)> = Vec::with_capacity(at.len() * 5 / 4);
    let mut rule_counts = Vec::with_capacity(history.version_count());
    history.replay_changes(|vi, _, diff| {
        for &(is_add, rule) in diff {
            key.clear();
            for (i, label) in rule.labels().iter().enumerate() {
                if i > 0 {
                    key.push('.');
                }
                key.push_str(label);
            }
            let node = match index.get(key.as_str()) {
                Some(&node) => node,
                None => {
                    slots.push([None; 3]);
                    index.insert(Cow::Owned(key.clone()), slots.len() as u32 - 1);
                    slots.len() as u32 - 1
                }
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
            dirty.clear();
            dirty.push((0, at.len() as u32));
        }
        // Ranges nest or are disjoint: visit each position once.
        dirty.sort_unstable();
        let mut done = 0;
        for &(lo, hi) in &dirty {
            for pos in lo.max(done)..hi {
                let len = suffix_len(&arena, &slots, at[pos as usize], opts);
                if vi == 0 || len != current[pos as usize] {
                    current[pos as usize] = len;
                    changes.push((order[pos as usize], vi as u32, len));
                }
            }
            done = done.max(hi);
        }
        dirty.clear();
        rule_counts.push(live);
    });
    // Free the index before the steps are placed, to lower peak memory.
    drop(index);
    let suffix_lens = Timelines::from_changes(nodes.len(), changes);
    Walk { rule_counts, suffix_lens, arena, nodes }
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
    let mut ids = vec![NONE; walk.arena.len()];
    let mut count = 0;
    let sites = walk.suffix_lens.map(|name, len| {
        let site = site_len(len.map(|l| l as usize), walk.labels(name));
        let id = &mut ids[walk.suffix_id(name, site) as usize];
        if *id == NONE {
            *id = count;
            count += 1;
        }
        *id
    });
    (sites, count as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use psl_core::{Date, Rule};
    use psl_history::{generate, GeneratorConfig, RuleSpan};
    use psl_webcorpus::{generate_corpus, CorpusConfig};

    const ALL_OPTS: [MatchOpts; 3] = [
        MatchOpts { include_private: true, implicit_wildcard: true },
        MatchOpts { include_private: false, implicit_wildcard: true },
        MatchOpts { include_private: true, implicit_wildcard: false },
    ];

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
    /// every version, under every match option.
    fn assert_walk_matches_snapshots(h: &History, names: &[DomainName]) {
        for opts in ALL_OPTS {
            let w = walk(h, names, opts);
            for (v, &date) in h.versions().iter().enumerate() {
                let list = h.snapshot_at(date);
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
    }

    /// Two `(name, version)` pairs share a site id iff their sites under
    /// `snapshot_at` are the same string.
    fn assert_site_ids_match_snapshots(h: &History, names: &[DomainName], opts: MatchOpts) {
        let (sites, count) = site_ids(&walk(h, names, opts));
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
        let walks: Vec<Walk> = all_opts.iter().map(|&opts| walk(&h, &names, opts)).collect();
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
        let t = Timelines::from_changes(
            2,
            vec![(0, 0, 1u32), (1, 0, 5), (0, 2, 3), (1, 3, 7), (0, 4, 1)],
        );
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
            let counts = census(&walk(&h, &hosts, opts), &hosts);
            let got: HashMap<&str, usize> = counts.iter().copied().collect();
            assert_eq!(got.len(), counts.len(), "a suffix listed twice under {opts:?}");
            assert_eq!(got, want, "{opts:?}");
            assert_eq!(got["foo.ck"], 2, "{opts:?}");
            assert!(!got.contains_key("localhost") && !got.contains_key("www.ck"));
            assert!(got["ck"] >= 2, "{opts:?}");
        }
    }

    /// Hand-built names and rules the generated worlds rarely combine.
    #[test]
    fn name_shapes_match_snapshots() {
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
        assert_walk_matches_snapshots(&h, &names);
        for opts in ALL_OPTS {
            assert_site_ids_match_snapshots(&h, &names, opts);
        }
        let w = walk(&h, &names, MatchOpts::default());
        assert_eq!(w.rule_counts, [4, 8, 10, 8, 8]);
        assert_eq!(w.suffix_lens.steps(1), [(0, Some(1)), (2, Some(3))]);
        assert_eq!(w.suffix_lens.steps(4), w.suffix_lens.steps(3));
        // The exception keeps a.www.ck's suffix at `ck` throughout.
        assert_eq!(w.suffix_lens.steps(9), [(0, Some(1))]);
        assert_eq!(w.suffix_lens.steps(11), [(0, Some(1)), (1, Some(2)), (3, Some(1))]);
        assert_eq!(w.suffix_lens.steps(12), [(0, Some(1)), (3, Some(3))]);
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
