//! Round-trip property tests: rule list → compile → write → load.
//!
//! For arbitrary rule sets, the snapshot pipeline must be lossless at
//! three observable layers: the serialized bytes are a fixpoint
//! (`write(load(b)) == b`), the decompiled rule set is the original set,
//! and — the one that matters — the in-memory [`FrozenList`] and the
//! loaded arena, by labels and by ids, give the answer of
//! [`disposition_linear`] over the loaded rules, over generated hosts and
//! the full `MatchOpts` matrix.

use proptest::prelude::*;
use psl_core::trie::disposition_linear;
use psl_core::{FrozenList, LabelInterner, List, MatchOpts, Rule, RuleKind, Section};

fn small_label() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("a".to_string()),
        Just("b".to_string()),
        Just("cd".to_string()),
        Just("xn--p1ai".to_string()),
    ]
}

fn build_rules(specs: Vec<(u8, Vec<String>)>) -> Vec<Rule> {
    let mut rules = Vec::new();
    for (kind, labels) in specs {
        let section = if labels.len() % 2 == 0 { Section::Private } else { Section::Icann };
        let rule = match kind {
            0 => Rule::normal(labels, section),
            1 => Rule::wildcard(labels, section),
            _ => {
                if labels.len() < 2 {
                    continue;
                }
                Rule::exception(labels, section)
            }
        };
        rules.push(rule);
    }
    rules
}

fn opts_matrix() -> [MatchOpts; 4] {
    [
        MatchOpts { include_private: true, implicit_wildcard: true },
        MatchOpts { include_private: true, implicit_wildcard: false },
        MatchOpts { include_private: false, implicit_wildcard: true },
        MatchOpts { include_private: false, implicit_wildcard: false },
    ]
}

proptest! {
    #[test]
    fn snapshot_round_trip_agrees_with_trie_and_frozen(
        rule_specs in proptest::collection::vec(
            (0u8..3, proptest::collection::vec(small_label(), 1..4)),
            0..14,
        ),
        hosts in proptest::collection::vec(
            proptest::collection::vec(small_label(), 0..5),
            1..8,
        ),
    ) {
        let rules = build_rules(rule_specs);
        let list = List::from_rules(rules.clone());

        let bytes = list.write_snapshot();
        let loaded = List::load_snapshot(&bytes).expect("own snapshot must load");

        // Bytes are a fixpoint and the arena survives bit-for-bit.
        prop_assert_eq!(&loaded.write_snapshot(), &bytes);
        prop_assert_eq!(loaded.frozen(), list.frozen());
        prop_assert_eq!(loaded.len(), list.len());

        // The decompiled rule set is the original (deduplicated) set.
        let key = |r: &Rule| (r.as_text(), r.section());
        let mut want: Vec<_> = list.rules().iter().map(key).collect();
        let mut got: Vec<_> = loaded.rules().iter().map(key).collect();
        want.sort();
        got.sort();
        prop_assert_eq!(want, got);

        // Disposition agreement over hosts x the full options matrix,
        // through every entry point.
        let mut ids = Vec::new();
        for host in &hosts {
            let reversed: Vec<&str> = host.iter().map(|s| s.as_str()).collect();
            for opts in opts_matrix() {
                let expected = disposition_linear(loaded.rules(), &reversed, opts);
                prop_assert_eq!(list.disposition_reversed(&reversed, opts), expected);
                prop_assert_eq!(loaded.disposition_reversed(&reversed, opts), expected);
                loaded.reversed_ids(&reversed, &mut ids);
                prop_assert_eq!(loaded.disposition_ids(&ids, opts), expected);
            }
        }
    }

    /// An interner holding labels no rule references (the shared-history
    /// situation: corpus hostnames interned alongside rule labels) must
    /// survive the trip and keep resolving every id.
    #[test]
    fn snapshot_preserves_unreferenced_interner_labels(
        extra in proptest::collection::vec("[a-z]{1,8}", 0..6),
    ) {
        let rules = vec![
            Rule::normal(vec!["com".into()], Section::Icann),
            Rule::wildcard(vec!["ck".into()], Section::Icann),
        ];
        let mut interner = LabelInterner::new();
        let frozen = FrozenList::compile(&rules, &mut interner);
        for label in &extra {
            interner.intern(label);
        }
        let bytes = frozen.write_snapshot(&interner);
        let (i2, f2) = FrozenList::load(&bytes).unwrap();
        prop_assert_eq!(&f2, &frozen);
        prop_assert_eq!(i2.len(), interner.len());
        for id in 0..interner.len() as u32 {
            prop_assert_eq!(i2.resolve(id), interner.resolve(id));
        }
    }

    /// Decompiling and recompiling an arena reproduces it exactly — the
    /// invariant that lets `List::from_compiled` trust the decompiled
    /// rule vector to describe the matcher.
    #[test]
    fn decompile_recompile_is_identity(
        rule_specs in proptest::collection::vec(
            (0u8..3, proptest::collection::vec(small_label(), 1..4)),
            0..12,
        ),
    ) {
        let rules = build_rules(rule_specs);
        let list = List::from_rules(rules);
        let recompiled = List::from_rules(list.frozen().decompile_rules(list.interner()).to_vec());
        prop_assert_eq!(recompiled.len(), list.len());
        for host in [vec!["a"], vec!["cd", "a"], vec!["xn--p1ai", "b", "a"]] {
            for opts in opts_matrix() {
                prop_assert_eq!(
                    recompiled.disposition_reversed(&host, opts),
                    list.disposition_reversed(&host, opts)
                );
            }
        }
    }

    /// `RuleKind` coverage marker so the enum stays exercised even if the
    /// strategies above shrink: one of each kind through the full trip.
    #[test]
    fn all_rule_kinds_survive(seed in 0u8..4) {
        let _ = seed;
        let rules = vec![
            Rule::normal(vec!["jp".into()], Section::Icann),
            Rule::wildcard(vec!["kobe".into(), "jp".into()], Section::Icann),
            Rule::exception(vec!["city".into(), "kobe".into(), "jp".into()], Section::Icann),
        ];
        let list = List::from_rules(rules);
        let loaded = List::load_snapshot(&list.write_snapshot()).unwrap();
        let host = vec!["jp", "kobe", "city", "x"];
        let d = loaded.disposition_reversed(&host, MatchOpts::default()).unwrap();
        prop_assert_eq!(d.kind, psl_core::MatchKind::Rule(RuleKind::Exception));
        prop_assert_eq!(d.suffix_len, 2);
    }
}
