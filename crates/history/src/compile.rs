//! Every version of a history materialised as a [`FrozenList`].
//!
//! [`CompiledHistory::build`] reads each version off the history's one
//! [`psl_core::VersionedList`] ([`History::versioned_list`]): a version
//! with changes is materialised from the arena, and a version with none
//! clones the previous one. Every version's labels are ids of the arena's
//! one [`LabelInterner`], so a corpus hostname interned once can be
//! matched against every version as a plain `&[u32]`.
//!
//! Nothing in the pipeline or the service reads this type: "as of"
//! questions go to the arena itself. It is kept for perfbench's
//! `history.compile_s` and `core.intern_ns_per_host` probes until those
//! probes are retargeted.

use crate::history::History;
use psl_core::{Date, FrozenList, LabelInterner};

/// Every version of a [`History`], compiled through a shared interner.
#[derive(Debug, Clone)]
pub struct CompiledHistory {
    interner: LabelInterner,
    versions: Vec<(Date, FrozenList)>,
}

impl CompiledHistory {
    /// Materialise every version of `history` from its versioned arena.
    pub fn build(history: &History) -> Self {
        let arena = history.versioned_list();
        let mut versions: Vec<(Date, FrozenList)> = Vec::with_capacity(history.version_count());
        for (i, &date) in history.versions().iter().enumerate() {
            let frozen = match versions.last() {
                // Identical rule set: reuse the previous arena verbatim.
                Some((_, prev)) if history.version_changes(i).is_empty() => prev.clone(),
                _ => arena.at(i).to_frozen(),
            };
            versions.push((date, frozen));
        }
        CompiledHistory { interner: arena.interner().clone(), versions }
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
        assert_eq!(compiled.versions().len(), h.version_count());
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

    /// The version in force at a date, read off `versions()`, and the
    /// latest version count their versions' rules.
    #[test]
    fn at_and_latest_lookup() {
        let h = generate(&GeneratorConfig::small(612));
        let compiled = h.compiled_versions();
        let at = |date: Date| {
            let idx = compiled.versions().partition_point(|&(v, _)| v <= date);
            idx.checked_sub(1).map(|i| &compiled.versions()[i].1)
        };
        let day_before = Date::from_days_since_epoch(h.first_version().days_since_epoch() - 1);
        assert!(at(day_before).is_none());
        let first = at(h.first_version()).unwrap();
        assert_eq!(first.len(), h.rule_count_at(h.first_version()));
        let (latest_date, latest) = compiled.versions().last().unwrap();
        assert_eq!(*latest_date, h.latest_version());
        assert_eq!(latest.len(), h.rule_count_at(h.latest_version()));
        assert!(latest.arena_bytes() > 0);
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
