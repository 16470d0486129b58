//! Incremental compilation of a history into per-version [`FrozenList`]s.
//!
//! Compiling each of the ~1,142 versions from scratch would re-intern and
//! re-build nearly identical tries 1,142 times. Consecutive versions share
//! almost all of their rules, so [`CompiledHistory::build`] replays the
//! history's rule changes ([`History::replay_changes`]): one mutable
//! [`SuffixTrie`] receives each version's diff, is compacted after
//! removals (so dead nodes never leak into the compiled arenas), and is
//! frozen into a [`FrozenList`] per version — all through
//! one shared [`LabelInterner`], so a corpus hostname interned once can be
//! matched against every version as a plain `&[u32]`.

use crate::history::History;
use psl_core::{Date, FrozenList, LabelInterner, SuffixTrie};

/// Every version of a [`History`], compiled through a shared interner.
#[derive(Debug, Clone)]
pub struct CompiledHistory {
    interner: LabelInterner,
    versions: Vec<(Date, FrozenList)>,
}

impl CompiledHistory {
    /// Reassemble from an interner + versions a loader already produced
    /// (see [`crate::histfile::CompiledHistoryFile::to_compiled_history`]).
    pub(crate) fn from_parts(interner: LabelInterner, versions: Vec<(Date, FrozenList)>) -> Self {
        CompiledHistory { interner, versions }
    }

    /// Compile all versions of `history` incrementally (version *k+1* is
    /// derived from version *k*'s rule set, not rebuilt from scratch).
    pub fn build(history: &History) -> Self {
        let mut interner = LabelInterner::new();
        let mut trie = SuffixTrie::default();
        let mut versions = Vec::with_capacity(history.version_count());
        history.replay_changes(|_, v, changes| {
            let mut removed = false;
            let changed = changes.len() > 0;
            for (is_add, rule) in changes {
                if is_add {
                    trie.insert(rule);
                } else {
                    removed |= trie.remove(rule);
                }
            }
            if removed {
                trie.compact();
            }
            let frozen = if changed || versions.is_empty() {
                FrozenList::freeze(&trie, &mut interner)
            } else {
                // Identical rule set: reuse the previous arena verbatim.
                let (_, prev): &(Date, FrozenList) = versions.last().expect("non-empty");
                prev.clone()
            };
            versions.push((v, frozen));
        });
        CompiledHistory { interner, versions }
    }

    /// The shared interner (all versions' edge labels are ids from it).
    pub fn interner(&self) -> &LabelInterner {
        &self.interner
    }

    /// Intern a reversed hostname against the shared interner, returning
    /// an id slice valid for *every* compiled version.
    pub fn intern_reversed(&mut self, reversed: &[&str]) -> Box<[u32]> {
        self.interner.intern_reversed(reversed)
    }

    /// All `(version_date, compiled_list)` pairs, ascending by date.
    pub fn versions(&self) -> &[(Date, FrozenList)] {
        &self.versions
    }

    /// Number of compiled versions.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// True if the history had no versions (impossible by construction —
    /// [`History::new`] requires one — but the clippy-canonical pair to
    /// [`CompiledHistory::len`]).
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// The newest compiled version at or before `date`, if any.
    pub fn at(&self, date: Date) -> Option<&FrozenList> {
        let idx = self.versions.partition_point(|&(v, _)| v <= date);
        idx.checked_sub(1).map(|i| &self.versions[i].1)
    }

    /// The latest compiled version.
    pub fn latest(&self) -> &FrozenList {
        &self.versions.last().expect("non-empty by construction").1
    }

    /// Total arena bytes across all versions plus a node/edge census —
    /// the memory footprint the DESIGN doc's estimate is checked against.
    pub fn arena_bytes_total(&self) -> usize {
        self.versions.iter().map(|(_, f)| f.arena_bytes()).sum()
    }
}

impl History {
    /// Compile every version through a shared [`LabelInterner`]. See
    /// [`CompiledHistory`].
    pub fn compiled_versions(&self) -> CompiledHistory {
        CompiledHistory::build(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, GeneratorConfig};
    use psl_core::MatchOpts;

    #[test]
    fn compiled_versions_match_snapshots() {
        let h = generate(&GeneratorConfig::small(611));
        let compiled = h.compiled_versions();
        assert_eq!(compiled.len(), h.version_count());
        let probes: Vec<Vec<&str>> =
            vec![vec!["com", "myshopify", "shop"], vec!["uk", "co", "x"], vec!["com"], vec![]];
        let opts_matrix = [
            MatchOpts::default(),
            MatchOpts { include_private: false, implicit_wildcard: true },
            MatchOpts { include_private: true, implicit_wildcard: false },
        ];
        for (i, (v, frozen)) in compiled.versions().iter().enumerate() {
            assert_eq!(*v, h.versions()[i]);
            assert_eq!(frozen.len(), h.rule_count_at(*v), "rule count at {v}");
            if i % 13 != 0 {
                continue; // full snapshot comparison on a sample
            }
            let list = h.snapshot_at(*v);
            for probe in &probes {
                for opts in opts_matrix {
                    assert_eq!(
                        frozen.disposition(compiled.interner(), probe, opts),
                        list.disposition_reversed(probe, opts),
                        "probe {probe:?} at {v}"
                    );
                }
            }
        }
    }

    #[test]
    fn compiled_versions_match_snapshots_on_replay_edge_cases() {
        let probes: [&[&str]; 4] =
            [&["com", "old", "a"], &["com", "foo", "x"], &["com", "foo"], &["com"]];
        for h in crate::history::tests::replay_edge_cases() {
            let compiled = h.compiled_versions();
            for (v, frozen) in compiled.versions() {
                let list = h.snapshot_at(*v);
                assert_eq!(frozen.len(), list.len(), "rule count at {v}");
                for probe in probes {
                    for opts in [
                        MatchOpts::default(),
                        MatchOpts { include_private: false, implicit_wildcard: true },
                        MatchOpts { include_private: true, implicit_wildcard: false },
                    ] {
                        assert_eq!(
                            frozen.disposition(compiled.interner(), probe, opts),
                            list.disposition_reversed(probe, opts),
                            "{probe:?} at {v} under {opts:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn at_and_latest_lookup() {
        let h = generate(&GeneratorConfig::small(612));
        let compiled = h.compiled_versions();
        let day_before = Date::from_days_since_epoch(h.first_version().days_since_epoch() - 1);
        assert!(compiled.at(day_before).is_none());
        let first = compiled.at(h.first_version()).unwrap();
        assert_eq!(first.len(), h.rule_count_at(h.first_version()));
        assert_eq!(compiled.latest().len(), h.rule_count_at(h.latest_version()));
        assert!(compiled.arena_bytes_total() > 0);
        assert!(!compiled.is_empty());
    }

    /// Satellite regression: interner ids are a pure function of the
    /// history contents, so regenerating with the same seed must produce
    /// the identical id assignment (the sweep relies on this when it
    /// interns the corpus once up front).
    #[test]
    fn interner_ids_stable_across_regeneration() {
        let a = generate(&GeneratorConfig::small(613)).compiled_versions();
        let b = generate(&GeneratorConfig::small(613)).compiled_versions();
        assert_eq!(a.interner(), b.interner());
        assert_eq!(a.interner().len(), b.interner().len());
        for id in 0..a.interner().len() as u32 {
            assert_eq!(a.interner().resolve(id), b.interner().resolve(id), "id {id}");
        }
        // And the compiled arenas themselves are bit-identical.
        for ((va, fa), (vb, fb)) in a.versions().iter().zip(b.versions()) {
            assert_eq!(va, vb);
            assert_eq!(fa, fb, "arena at {va}");
        }
    }
}
