//! The matching types and the literal reading of the prevailing-rule
//! algorithm.
//!
//! Every lookup runs the compiled arenas' walk ([`crate::frozen`]): a
//! [`crate::FrozenList`], a [`crate::SnapshotView`], or one version of a
//! [`crate::VersionedList`]. [`disposition_linear`] scans every rule and
//! applies the algorithm as written, and is the one oracle that walk is
//! checked against.

use crate::rule::{Rule, RuleKind, Section};

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
    use crate::frozen::{FrozenList, LabelInterner, VersionedList};
    use crate::rule::Rule;
    use crate::List;
    use proptest::prelude::*;

    fn rules(texts: &[(&str, Section)]) -> Vec<Rule> {
        texts.iter().map(|(t, s)| Rule::parse(t, *s).unwrap()).collect()
    }

    /// The walk over `texts`, compiled the way every list is.
    fn walk(texts: &[(&str, Section)]) -> List {
        List::from_rules(rules(texts))
    }

    /// A rule set changes as a new version of a [`VersionedList`]: the
    /// arena over `(version index, added, rule)` changes.
    fn versioned(changes: &[(usize, bool, Rule)]) -> VersionedList {
        VersionedList::build(changes.iter().map(|(v, added, rule)| (*v, *added, rule)))
    }

    /// Every rule of `rs` added in `version`.
    fn added(version: usize, rs: &[Rule]) -> Vec<(usize, bool, Rule)> {
        rs.iter().map(|r| (version, true, r.clone())).collect()
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
        let rs = rules(BASIC);
        let mut twice = rs.clone();
        twice.push(rs[0].clone());
        assert_eq!(FrozenList::compile(&twice, &mut LabelInterner::new()).len(), rs.len());
        // Adding a live rule again, in a later version, adds no rule.
        let mut changes = added(0, &rs);
        changes.push((1, true, rs[0].clone()));
        let arena = versioned(&changes);
        assert_eq!(arena.at(0).to_frozen().len(), rs.len());
        assert_eq!(arena.at(1).to_frozen().len(), rs.len());
    }

    #[test]
    fn remove_reverses_insert() {
        let rs = rules(BASIC);
        let n = rs.len();
        let rule = Rule::parse("co.uk", Section::Icann).unwrap();
        let mut changes = added(0, &rs);
        changes.push((1, false, rule.clone()));
        changes.push((2, false, rule.clone()));
        changes.push((3, true, rule));
        let arena = versioned(&changes);
        let host = ["uk", "co", "example"];
        let suffix_len =
            |v: usize| arena.at(v).disposition(&host, MatchOpts::default()).unwrap().suffix_len;
        assert_eq!(arena.at(1).to_frozen().len(), n - 1);
        assert_eq!(arena.at(2).to_frozen().len(), n - 1);
        // One step per rule, then co.uk's removal and re-addition: the
        // second removal is a no-op and leaves no step.
        assert_eq!(arena.step_count(), n + 2, "second removal is a no-op");
        // co.uk no longer matches; uk (still present) prevails.
        assert_eq!(suffix_len(1), 1);
        assert_eq!(suffix_len(2), 1);
        // Re-adding restores behaviour.
        assert_eq!(suffix_len(3), 2);
        assert_eq!(arena.at(3).to_frozen().len(), n);
        assert_eq!(suffix_len(0), 2);
    }

    #[test]
    fn compact_reclaims_dead_nodes_after_removal() {
        let rs = rules(BASIC);
        let built_nodes = FrozenList::compile(&rs, &mut LabelInterner::new()).node_count();
        // Remove the two deepest paths.
        let dead = ["!www.ck", "github.io"];
        let mut changes = added(0, &rs);
        changes.extend(
            rs.iter()
                .filter(|r| dead.contains(&r.as_text().as_str()))
                .map(|r| (1, false, r.clone())),
        );
        let arena = versioned(&changes);
        assert_eq!(arena.node_count(), built_nodes, "the arena keeps every path any version held");
        let v1 = arena.at(1).to_frozen();
        // www.ck and github.io die; ck survives (a wildcard anchors there)
        // and io survives (it holds its own normal rule).
        assert_eq!(v1.node_count(), built_nodes - 2);
        // Dropping the dead nodes must not change matching.
        for d in [
            arena.at(1).disposition(&["ck", "www"], MatchOpts::default()).unwrap(),
            v1.disposition(arena.interner(), &["ck", "www"], MatchOpts::default()).unwrap(),
        ] {
            assert_eq!(d.kind, MatchKind::Rule(RuleKind::Wildcard));
        }
        for d in [
            arena.at(1).disposition(&["io", "github", "alice"], MatchOpts::default()).unwrap(),
            v1.disposition(arena.interner(), &["io", "github", "alice"], MatchOpts::default())
                .unwrap(),
        ] {
            assert_eq!(d.suffix_len, 1);
        }
        // Rebuilding from the live set gives the same node count.
        let live: Vec<Rule> =
            rs.iter().filter(|r| !dead.contains(&r.as_text().as_str())).cloned().collect();
        assert_eq!(
            v1.node_count(),
            FrozenList::compile(&live, &mut LabelInterner::new()).node_count()
        );
        // Compiling the materialised version's own rules again drops nothing.
        let again =
            FrozenList::compile(&v1.decompile_rules(arena.interner()), &mut LabelInterner::new());
        assert_eq!(again.node_count(), v1.node_count());
    }

    #[test]
    fn compact_prunes_whole_dead_chains() {
        let deep = Rule::parse("a.b.c.d.e", Section::Icann).unwrap();
        let arena = versioned(&[(0, true, deep.clone()), (1, false, deep)]);
        assert_eq!(arena.node_count(), 6);
        assert_eq!(arena.at(0).to_frozen().node_count(), 6);
        let v1 = arena.at(1).to_frozen();
        assert_eq!(v1.node_count(), 1);
        assert!(v1.is_empty());
    }

    #[test]
    fn remove_missing_rule_is_false() {
        let rs = rules(BASIC);
        let rule = Rule::parse("never.zz", Section::Icann).unwrap();
        let mut changes = added(0, &rs);
        changes.push((1, false, rule));
        let arena = versioned(&changes);
        // No step, no rule, no node and no answer changes.
        assert_eq!(arena.step_count(), rs.len());
        let v1 = arena.at(1).to_frozen();
        assert_eq!(v1.len(), rs.len());
        assert_eq!(v1, arena.at(0).to_frozen());
        let host = ["zz", "never", "x"];
        let d = arena.at(1).disposition(&host, MatchOpts::default()).unwrap();
        assert_eq!(d.kind, MatchKind::ImplicitWildcard);
        assert_eq!(Some(d), arena.at(0).disposition(&host, MatchOpts::default()));
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
            // A pool of candidate rules; op `i` adds or removes one of them
            // as version `i`. Every version, read in place and materialised,
            // must agree with a fresh compile of that version's live set.
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

            let ops: Vec<(bool, usize)> =
                ops.into_iter().map(|(add, idx)| (add, idx % pool.len())).collect();
            let changes: Vec<(usize, bool, Rule)> = ops
                .iter()
                .enumerate()
                .map(|(version, &(add, idx))| (version, add, pool[idx].clone()))
                .collect();
            let arena = versioned(&changes);
            let mut live: Vec<bool> = vec![false; pool.len()];
            let reversed: Vec<&str> = host.iter().map(|s| s.as_str()).collect();
            let opts = MatchOpts::default();
            for (version, &(add, idx)) in ops.iter().enumerate() {
                live[idx] = add;
                let live_rules: Vec<Rule> = pool
                    .iter()
                    .zip(&live)
                    .filter(|(_, &l)| l)
                    .map(|(r, _)| r.clone())
                    .collect();
                let mut interner = LabelInterner::new();
                let rebuilt = FrozenList::compile(&live_rules, &mut interner);
                let at = arena.at(version);
                let materialised = at.to_frozen();
                prop_assert_eq!(materialised.len(), rebuilt.len());
                prop_assert_eq!(materialised.node_count(), rebuilt.node_count());
                let want = rebuilt.disposition(&interner, &reversed, opts);
                prop_assert_eq!(at.disposition(&reversed, opts), want);
                prop_assert_eq!(materialised.disposition(arena.interner(), &reversed, opts), want);
            }
        }
    }
}
