//! The mutable reversed-label trie, the matching types, and the literal
//! reading of the prevailing-rule algorithm.
//!
//! [`SuffixTrie`] holds rules label by label, right to left (TLD first),
//! and takes inserts and removals in place. It is the mutable builder
//! behind [`crate::FrozenList::freeze`]: `psl-history` edits one trie
//! version by version and freezes each version. It does not match
//! hostnames; every lookup runs the compiled arena's walk
//! ([`crate::frozen`]). [`disposition_linear`] scans every rule and applies
//! the algorithm as written, and is the one oracle that walk is checked
//! against.

use crate::rule::{Rule, RuleKind, Section};
use std::collections::HashMap;

/// One node of the trie. The path from the root to a node spells a suffix
/// right-to-left. Crate-visible so `frozen` can compile the trie into its
/// arena form without an intermediate rule-list round trip.
#[derive(Debug, Default, Clone)]
pub(crate) struct Node {
    pub(crate) children: HashMap<Box<str>, Node>,
    /// A normal rule terminates at this node.
    pub(crate) normal: Option<Section>,
    /// A wildcard rule `*.<path>` is anchored at this node: it matches any
    /// hostname extending this node's path by at least one more label.
    pub(crate) wildcard: Option<Section>,
    /// An exception rule `!<path>` terminates at this node.
    pub(crate) exception: Option<Section>,
}

impl Node {
    fn is_dead(&self) -> bool {
        self.children.is_empty()
            && self.normal.is_none()
            && self.wildcard.is_none()
            && self.exception.is_none()
    }
}

/// How a matched rule was found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchKind {
    /// An explicit rule from the list.
    Rule(RuleKind),
    /// No rule matched; the implicit `*` default rule prevails.
    ImplicitWildcard,
}

/// The prevailing-rule decision for a hostname.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Disposition {
    /// Number of labels in the public suffix.
    pub suffix_len: usize,
    /// How the prevailing rule was found.
    pub kind: MatchKind,
    /// Section of the prevailing rule (`None` for the implicit rule).
    pub section: Option<Section>,
}

/// Options controlling matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MatchOpts {
    /// Consider rules in the PRIVATE section. Browsers do; some validation
    /// tools only want registry (ICANN) boundaries.
    pub include_private: bool,
    /// Apply the implicit `*` rule when nothing matches (the algorithm's
    /// step 2 default). Disabling it makes unknown TLDs return `None`,
    /// which is how "strict" consumers detect garbage input.
    pub implicit_wildcard: bool,
}

impl Default for MatchOpts {
    fn default() -> Self {
        MatchOpts { include_private: true, implicit_wildcard: true }
    }
}

/// The mutable reversed-label trie: inserts, removals and
/// [`SuffixTrie::compact`] in place, compiled for lookups by
/// [`crate::FrozenList::freeze`].
#[derive(Debug, Default, Clone)]
pub struct SuffixTrie {
    root: Node,
    len: usize,
}

impl SuffixTrie {
    /// Build a trie from rules.
    pub fn from_rules<'a>(rules: impl IntoIterator<Item = &'a Rule>) -> Self {
        let mut trie = SuffixTrie::default();
        for rule in rules {
            trie.insert(rule);
        }
        trie
    }

    /// Number of rules inserted.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the trie holds no rules.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert one rule. Re-inserting an identical suffix path overwrites
    /// the per-kind slot (last write wins), mirroring list semantics where
    /// each rule text appears once.
    pub fn insert(&mut self, rule: &Rule) {
        let mut node = &mut self.root;
        for label in rule.labels().iter().rev() {
            node = node.children.entry(label.as_str().into()).or_default();
        }
        let slot = match rule.kind() {
            RuleKind::Normal => &mut node.normal,
            RuleKind::Wildcard => &mut node.wildcard,
            RuleKind::Exception => &mut node.exception,
        };
        if slot.is_none() {
            self.len += 1;
        }
        *slot = Some(rule.section());
    }

    /// Crate-visible root accessor for [`crate::frozen::FrozenList::freeze`].
    pub(crate) fn root(&self) -> &Node {
        &self.root
    }

    /// Number of nodes in the trie, including the root. Removals leave
    /// dead empty nodes behind until [`SuffixTrie::compact`] runs, so this
    /// can exceed the node count of an equivalent freshly-built trie.
    pub fn node_count(&self) -> usize {
        fn count(node: &Node) -> usize {
            1 + node.children.values().map(count).sum::<usize>()
        }
        count(&self.root)
    }

    /// Prune dead subtrees left behind by [`SuffixTrie::remove`]: nodes
    /// with no rule slots and no live descendants. Returns the number of
    /// nodes reclaimed. Matching behaviour is unchanged (dead nodes can
    /// only ever be walked *through*, never matched), but compacting keeps
    /// long-lived incrementally-maintained tries — and anything frozen
    /// from them — from accumulating garbage across thousands of history
    /// versions.
    pub fn compact(&mut self) -> usize {
        fn prune(node: &mut Node) -> usize {
            let mut reclaimed = 0;
            node.children.retain(|_, child| {
                reclaimed += prune(child);
                if child.is_dead() {
                    reclaimed += 1;
                    false
                } else {
                    true
                }
            });
            reclaimed
        }
        prune(&mut self.root)
    }

    /// Remove one rule. Returns true if the rule's slot was occupied.
    /// Empty nodes are left behind (they are harmless for matching);
    /// callers doing bulk removals run [`SuffixTrie::compact`] afterwards
    /// to reclaim them.
    pub fn remove(&mut self, rule: &Rule) -> bool {
        let mut node = &mut self.root;
        for label in rule.labels().iter().rev() {
            match node.children.get_mut(label.as_str()) {
                Some(child) => node = child,
                None => return false,
            }
        }
        let slot = match rule.kind() {
            RuleKind::Normal => &mut node.normal,
            RuleKind::Wildcard => &mut node.wildcard,
            RuleKind::Exception => &mut node.exception,
        };
        if slot.is_some() {
            *slot = None;
            self.len -= 1;
            true
        } else {
            false
        }
    }
}

/// The prevailing-rule algorithm from <https://publicsuffix.org/list/>,
/// read literally: test every rule against the reversed labels (TLD
/// first); an exception beats everything and strips one label; otherwise
/// the longest match prevails; otherwise the implicit `*` rule. Returns
/// `None` only when nothing matches *and* the implicit wildcard is
/// disabled. The oracle for the compiled walk
/// ([`crate::FrozenList::disposition`], [`crate::SnapshotView::disposition_by_ids`]).
pub fn disposition_linear(
    rules: &[Rule],
    reversed: &[&str],
    opts: MatchOpts,
) -> Option<Disposition> {
    let allowed = |r: &Rule| opts.include_private || r.section() == Section::Icann;

    let mut best_exception: Option<&Rule> = None;
    let mut best_match: Option<&Rule> = None;
    for rule in rules.iter().filter(|r| allowed(r)) {
        if !rule.matches_reversed(reversed) {
            continue;
        }
        match rule.kind() {
            RuleKind::Exception => {
                if best_exception.is_none_or(|b| rule.match_len() > b.match_len()) {
                    best_exception = Some(rule);
                }
            }
            _ => {
                // Longest match wins; on equal length a Normal rule beats a
                // Wildcard (the public suffix is identical either way — this
                // only pins down which rule we *report*, and must agree with
                // the walk's slot order).
                let better = best_match.is_none_or(|b| {
                    rule.match_len() > b.match_len()
                        || (rule.match_len() == b.match_len()
                            && rule.kind() == RuleKind::Normal
                            && b.kind() == RuleKind::Wildcard)
                });
                if better {
                    best_match = Some(rule);
                }
            }
        }
    }
    if let Some(rule) = best_exception {
        return Some(Disposition {
            suffix_len: rule.suffix_len(),
            kind: MatchKind::Rule(RuleKind::Exception),
            section: Some(rule.section()),
        });
    }
    if let Some(rule) = best_match {
        return Some(Disposition {
            suffix_len: rule.suffix_len(),
            kind: MatchKind::Rule(rule.kind()),
            section: Some(rule.section()),
        });
    }
    if opts.implicit_wildcard && !reversed.is_empty() {
        return Some(Disposition {
            suffix_len: 1,
            kind: MatchKind::ImplicitWildcard,
            section: None,
        });
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frozen::{FrozenList, LabelInterner};
    use crate::rule::Rule;
    use crate::List;
    use proptest::prelude::*;

    fn rules(texts: &[(&str, Section)]) -> Vec<Rule> {
        texts.iter().map(|(t, s)| Rule::parse(t, *s).unwrap()).collect()
    }

    fn trie(texts: &[(&str, Section)]) -> (Vec<Rule>, SuffixTrie) {
        let rs = rules(texts);
        let t = SuffixTrie::from_rules(&rs);
        (rs, t)
    }

    /// The walk over `texts`, compiled the way every list is.
    fn walk(texts: &[(&str, Section)]) -> List {
        List::from_rules(rules(texts))
    }

    /// The mutable trie's answer, read through [`FrozenList::freeze`].
    fn frozen(t: &SuffixTrie, reversed: &[&str], opts: MatchOpts) -> Option<Disposition> {
        let mut interner = LabelInterner::new();
        FrozenList::freeze(t, &mut interner).disposition(&interner, reversed, opts)
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

    #[test]
    fn longest_match_prevails() {
        let l = walk(BASIC);
        let d = l.disposition_reversed(&["uk", "co", "example"], MatchOpts::default()).unwrap();
        assert_eq!(d.suffix_len, 2);
        assert_eq!(d.kind, MatchKind::Rule(RuleKind::Normal));
    }

    #[test]
    fn wildcard_matches_one_extra_label() {
        let l = walk(BASIC);
        let d = l.disposition_reversed(&["ck", "shop"], MatchOpts::default()).unwrap();
        assert_eq!(d.suffix_len, 2);
        assert_eq!(d.kind, MatchKind::Rule(RuleKind::Wildcard));
        // Bare "ck" has no matching rule (the wildcard needs one more
        // label), so the implicit rule applies.
        let d = l.disposition_reversed(&["ck"], MatchOpts::default()).unwrap();
        assert_eq!(d.kind, MatchKind::ImplicitWildcard);
        assert_eq!(d.suffix_len, 1);
    }

    #[test]
    fn exception_beats_wildcard() {
        let l = walk(BASIC);
        let d = l.disposition_reversed(&["ck", "www"], MatchOpts::default()).unwrap();
        assert_eq!(d.kind, MatchKind::Rule(RuleKind::Exception));
        assert_eq!(d.suffix_len, 1); // suffix is "ck"
                                     // And deeper names under the exception still hit it.
        let d = l.disposition_reversed(&["ck", "www", "deep"], MatchOpts::default()).unwrap();
        assert_eq!(d.kind, MatchKind::Rule(RuleKind::Exception));
        assert_eq!(d.suffix_len, 1);
    }

    #[test]
    fn private_section_filtering() {
        let l = walk(BASIC);
        let with = MatchOpts::default();
        let without = MatchOpts { include_private: false, ..Default::default() };
        let d = l.disposition_reversed(&["io", "github", "user"], with).unwrap();
        assert_eq!(d.suffix_len, 2);
        assert_eq!(d.section, Some(Section::Private));
        let d = l.disposition_reversed(&["io", "github", "user"], without).unwrap();
        assert_eq!(d.suffix_len, 1);
        assert_eq!(d.section, Some(Section::Icann));
    }

    #[test]
    fn implicit_wildcard_toggle() {
        let l = walk(BASIC);
        let strict = MatchOpts { implicit_wildcard: false, ..Default::default() };
        assert!(l.disposition_reversed(&["zz", "example"], strict).is_none());
        let d = l.disposition_reversed(&["zz", "example"], MatchOpts::default()).unwrap();
        assert_eq!(d.kind, MatchKind::ImplicitWildcard);
        assert_eq!(d.suffix_len, 1);
    }

    #[test]
    fn empty_input_never_matches() {
        let l = walk(BASIC);
        assert!(l.disposition_reversed(&[], MatchOpts::default()).is_none());
    }

    #[test]
    fn len_counts_distinct_rules() {
        let (rs, t) = trie(BASIC);
        assert_eq!(t.len(), rs.len());
        let mut t2 = t.clone();
        t2.insert(&rs[0]);
        assert_eq!(t2.len(), rs.len());
    }

    #[test]
    fn remove_reverses_insert() {
        let (rs, mut t) = trie(BASIC);
        let n = t.len();
        let rule = Rule::parse("co.uk", Section::Icann).unwrap();
        assert!(t.remove(&rule));
        assert_eq!(t.len(), n - 1);
        assert!(!t.remove(&rule), "second removal is a no-op");
        // co.uk no longer matches; uk (still present) prevails.
        let d = frozen(&t, &["uk", "co", "example"], MatchOpts::default()).unwrap();
        assert_eq!(d.suffix_len, 1);
        // Re-insert restores behaviour.
        t.insert(&rule);
        let d = frozen(&t, &["uk", "co", "example"], MatchOpts::default()).unwrap();
        assert_eq!(d.suffix_len, 2);
        assert_eq!(t.len(), n);
        let _ = rs;
    }

    #[test]
    fn compact_reclaims_dead_nodes_after_removal() {
        let (rs, mut t) = trie(BASIC);
        let built_nodes = t.node_count();
        // Remove the two deepest paths; their nodes become dead weight.
        assert!(t.remove(&Rule::parse("!www.ck", Section::Icann).unwrap()));
        assert!(t.remove(&Rule::parse("github.io", Section::Private).unwrap()));
        assert_eq!(t.node_count(), built_nodes, "remove leaves dead nodes in place");
        let reclaimed = t.compact();
        // www.ck and github.io die; ck survives (a wildcard anchors there)
        // and io survives (it holds its own normal rule).
        assert_eq!(reclaimed, 2);
        assert_eq!(t.node_count(), built_nodes - 2);
        // Compacting must not change matching.
        let d = frozen(&t, &["ck", "www"], MatchOpts::default()).unwrap();
        assert_eq!(d.kind, MatchKind::Rule(RuleKind::Wildcard));
        let d = frozen(&t, &["io", "github", "alice"], MatchOpts::default()).unwrap();
        assert_eq!(d.suffix_len, 1);
        // Rebuilding from the live set gives the same node count.
        let live: Vec<Rule> = rs
            .iter()
            .filter(|r| r.as_text() != "!www.ck" && r.as_text() != "github.io")
            .cloned()
            .collect();
        assert_eq!(t.node_count(), SuffixTrie::from_rules(&live).node_count());
        // Compacting again is a no-op.
        assert_eq!(t.compact(), 0);
    }

    #[test]
    fn compact_prunes_whole_dead_chains() {
        let mut t = SuffixTrie::default();
        let deep = Rule::parse("a.b.c.d.e", Section::Icann).unwrap();
        t.insert(&deep);
        assert_eq!(t.node_count(), 6);
        assert!(t.remove(&deep));
        assert_eq!(t.node_count(), 6);
        assert_eq!(t.compact(), 5);
        assert_eq!(t.node_count(), 1);
    }

    #[test]
    fn remove_missing_rule_is_false() {
        let (_, mut t) = trie(BASIC);
        let rule = Rule::parse("never.zz", Section::Icann).unwrap();
        assert!(!t.remove(&rule));
    }

    /// Strategy producing small random rule sets and hostnames over a tiny
    /// alphabet so collisions (and therefore interesting matches) are
    /// common.
    fn small_label() -> impl Strategy<Value = String> {
        prop_oneof![Just("a".into()), Just("b".into()), Just("c".into()), Just("d".into())]
    }

    proptest! {
        /// The compiled arena trie's walk against the literal algorithm.
        #[test]
        fn trie_agrees_with_linear_reference(
            rule_specs in proptest::collection::vec(
                (0u8..3, proptest::collection::vec(small_label(), 1..4)),
                0..12,
            ),
            host in proptest::collection::vec(small_label(), 0..5),
            include_private in proptest::bool::ANY,
            implicit in proptest::bool::ANY,
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
            // Dedup by text the same way the arena's slots do (last wins
            // in the arena; make the linear list match by keeping the last).
            let mut seen = std::collections::HashMap::new();
            for (i, r) in rs.iter().enumerate() {
                seen.insert(r.as_text(), i);
            }
            let mut keep: Vec<usize> = seen.into_values().collect();
            keep.sort_unstable();
            let rs: Vec<Rule> = keep.into_iter().map(|i| rs[i].clone()).collect();

            let mut interner = LabelInterner::new();
            let arena = FrozenList::compile(&rs, &mut interner);
            let reversed: Vec<&str> = host.iter().map(|s| s.as_str()).collect();
            let opts = MatchOpts { include_private, implicit_wildcard: implicit };
            let a = arena.disposition(&interner, &reversed, opts);
            let b = disposition_linear(&rs, &reversed, opts);
            prop_assert_eq!(a, b, "rules: {:?} host: {:?}", rs.iter().map(|r| r.as_text()).collect::<Vec<_>>(), reversed);
        }

        #[test]
        fn mutation_sequences_agree_with_rebuilds(
            rule_specs in proptest::collection::vec(
                (0u8..2, proptest::collection::vec(small_label(), 1..3)),
                1..10,
            ),
            ops in proptest::collection::vec((proptest::bool::ANY, 0usize..10), 1..25),
            host in proptest::collection::vec(small_label(), 1..4),
        ) {
            // A pool of candidate rules; ops insert/remove them in random
            // order. After every op, the mutable trie must agree with a
            // fresh trie built from the live set.
            let pool: Vec<Rule> = rule_specs
                .into_iter()
                .map(|(kind, labels)| match kind {
                    0 => Rule::normal(labels, Section::Icann),
                    _ => Rule::wildcard(labels, Section::Icann),
                })
                .collect();
            // Dedup pool by text to keep "live set" bookkeeping simple.
            let mut seen = std::collections::HashSet::new();
            let pool: Vec<Rule> = pool
                .into_iter()
                .filter(|r| seen.insert(r.as_text()))
                .collect();

            let mut trie = SuffixTrie::default();
            let mut live: Vec<bool> = vec![false; pool.len()];
            let reversed: Vec<&str> = host.iter().map(|s| s.as_str()).collect();
            let opts = MatchOpts::default();
            for (insert, idx) in ops {
                let idx = idx % pool.len();
                if insert {
                    trie.insert(&pool[idx]);
                    live[idx] = true;
                } else {
                    let removed = trie.remove(&pool[idx]);
                    prop_assert_eq!(removed, live[idx]);
                    live[idx] = false;
                }
                let live_rules: Vec<Rule> = pool
                    .iter()
                    .zip(&live)
                    .filter(|(_, &l)| l)
                    .map(|(r, _)| r.clone())
                    .collect();
                let rebuilt = SuffixTrie::from_rules(&live_rules);
                prop_assert_eq!(trie.len(), rebuilt.len());
                prop_assert_eq!(
                    frozen(&trie, &reversed, opts),
                    frozen(&rebuilt, &reversed, opts)
                );
            }
        }
    }
}
