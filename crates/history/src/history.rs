//! The versioned Public Suffix List: rule lifespans and published versions.
//!
//! The paper extracts 1,142 dated versions of the list (2007-03-22 →
//! 2022-10-20) from its GitHub history. We model the same object as a set
//! of [`RuleSpan`]s (a rule with an addition date and an optional removal
//! date) plus a sorted vector of version (publication) dates. Every
//! analysis consumes the history through [`History::snapshot_at`] /
//! [`History::rules_at`], so a synthetic history and a real one are
//! interchangeable.

use psl_core::{Date, List, Rule};
use serde::{Deserialize, Serialize};
use std::slice;

/// A rule's lifetime within the list.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RuleSpan {
    /// The rule.
    pub rule: Rule,
    /// Date of the version that introduced the rule.
    pub added: Date,
    /// Date of the version that removed it (if ever). The rule is present
    /// in versions with `added <= v < removed`.
    pub removed: Option<Date>,
}

impl RuleSpan {
    /// Is the rule present in the version published at `date`?
    pub fn live_at(&self, date: Date) -> bool {
        self.added <= date && self.removed.is_none_or(|r| date < r)
    }
}

/// The difference between two versions of the list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Diff {
    /// Rules present in the newer version but not the older.
    pub added: Vec<Rule>,
    /// Rules present in the older version but not the newer.
    pub removed: Vec<Rule>,
}

impl Diff {
    /// True if the versions are identical.
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// A dated, versioned Public Suffix List.
#[derive(Debug, Clone)]
pub struct History {
    spans: Vec<RuleSpan>,
    /// Sorted, deduplicated publication dates.
    versions: Vec<Date>,
    /// The change log: `(added, span)` for every span's rule entering
    /// (`true`) or leaving the list, in replay order (see
    /// [`History::replay_changes`]), up to the latest version.
    log: Vec<(bool, u32)>,
    /// The end of each version's changes in `log`.
    ends: Vec<u32>,
}

impl History {
    /// Build a history from rule spans and version dates. Version dates are
    /// sorted and deduplicated; spans whose `added` date precedes the first
    /// version are clamped to it. Also builds the change log every
    /// [`History::replay_changes`] reads.
    pub fn new(spans: Vec<RuleSpan>, mut versions: Vec<Date>) -> Self {
        versions.sort_unstable();
        versions.dedup();
        assert!(!versions.is_empty(), "history needs at least one version");
        let first = versions[0];
        let spans: Vec<RuleSpan> = spans
            .into_iter()
            .map(|mut s| {
                if s.added < first {
                    s.added = first;
                }
                s
            })
            .collect();
        let mut events: Vec<(Date, bool, u32)> = Vec::with_capacity(spans.len() * 2);
        for (i, span) in spans.iter().enumerate() {
            if span.removed.is_some_and(|r| r <= span.added) {
                continue;
            }
            events.push((span.added, true, i as u32));
            if let Some(r) = span.removed {
                events.push((r, false, i as u32));
            }
        }
        // `false` (removal) sorts first on a date, span order within.
        events.sort_unstable();
        let mut ends = Vec::with_capacity(versions.len());
        let mut end = 0;
        for &v in &versions {
            end += events[end..].partition_point(|e| e.0 <= v);
            ends.push(end as u32);
        }
        let log = events[..end].iter().map(|&(_, added, span)| (added, span)).collect();
        History { spans, versions, log, ends }
    }

    /// All rule spans.
    pub fn spans(&self) -> &[RuleSpan] {
        &self.spans
    }

    /// Publication dates, ascending.
    pub fn versions(&self) -> &[Date] {
        &self.versions
    }

    /// Number of published versions.
    pub fn version_count(&self) -> usize {
        self.versions.len()
    }

    /// The first (oldest) version date.
    pub fn first_version(&self) -> Date {
        self.versions[0]
    }

    /// The latest version date.
    pub fn latest_version(&self) -> Date {
        *self.versions.last().expect("non-empty by construction")
    }

    /// The newest version published on or before `date`, if any.
    pub fn version_at_or_before(&self, date: Date) -> Option<Date> {
        let idx = self.versions.partition_point(|&v| v <= date);
        idx.checked_sub(1).map(|i| self.versions[i])
    }

    /// The rules live in the version at `date` (callers normally pass a
    /// version date; any date works and means "the list as of that day").
    pub fn rules_at(&self, date: Date) -> Vec<Rule> {
        self.spans.iter().filter(|s| s.live_at(date)).map(|s| s.rule.clone()).collect()
    }

    /// Number of rules live at `date` (cheaper than materialising them).
    pub fn rule_count_at(&self, date: Date) -> usize {
        self.spans.iter().filter(|s| s.live_at(date)).count()
    }

    /// A queryable [`List`] snapshot at `date`.
    pub fn snapshot_at(&self, date: Date) -> List {
        List::from_rules(self.rules_at(date))
    }

    /// The latest snapshot.
    pub fn latest_snapshot(&self) -> List {
        self.snapshot_at(self.latest_version())
    }

    /// Rules added to the list in `(old, new]` minus rules removed — the
    /// changes a consumer pinned at `old` is missing relative to `new`.
    pub fn diff(&self, old: Date, new: Date) -> Diff {
        let mut diff = Diff::default();
        for span in &self.spans {
            let in_old = span.live_at(old);
            let in_new = span.live_at(new);
            match (in_old, in_new) {
                (false, true) => diff.added.push(span.rule.clone()),
                (true, false) => diff.removed.push(span.rule.clone()),
                _ => {}
            }
        }
        diff
    }

    /// Iterate `(version_date, live_rule_count)` pairs, computed
    /// incrementally in O(spans + versions) — the backbone of Figure 2.
    pub fn version_sizes(&self) -> Vec<(Date, usize)> {
        let mut out = Vec::with_capacity(self.versions.len());
        let mut count: i64 = 0;
        self.replay_changes(|_, v, changes| {
            count += changes.map(|(added, _)| if added { 1 } else { -1 }).sum::<i64>();
            out.push((v, count.max(0) as usize));
        });
        out
    }

    /// Replay the list's rule changes version by version, oldest first:
    /// `f(index, date, changes)` runs once per version with `(added,
    /// rule)` for every rule that entered (`true`) or left (`false`) the
    /// list after the previous version and on or before this one (for
    /// the first version: everything dated on or before it). Changes are
    /// in date order. On one date the removals come before the additions,
    /// each group in span order, so a rule that moves between spans on
    /// that date stays live. A span that is never live (removed on or
    /// before its addition, after the clamp of [`History::new`]) yields
    /// no change. Applied in order to a set keyed by rule text, the
    /// changes rebuild [`History::rules_at`] at every version, provided
    /// no two spans of one rule overlap. The order is fixed once, by
    /// [`History::new`]; a replay only reads it.
    pub fn replay_changes<'a>(&'a self, mut f: impl FnMut(usize, Date, Changes<'a>)) {
        for (vi, &v) in self.versions.iter().enumerate() {
            f(vi, v, Changes { spans: &self.spans, log: self.version_changes(vi).iter() });
        }
    }

    /// Version `version`'s changes as [`History::replay_changes`] hands
    /// them over, by span index: `(added, span)`, the rule being
    /// `spans()[span].rule`.
    pub fn version_changes(&self, version: usize) -> &[(bool, u32)] {
        let start = version.checked_sub(1).map_or(0, |p| self.ends[p] as usize);
        &self.log[start..self.ends[version] as usize]
    }
}

/// One version's rule changes in replay order, as `(added, rule)` (see
/// [`History::replay_changes`]).
#[derive(Debug, Clone)]
pub struct Changes<'a> {
    spans: &'a [RuleSpan],
    log: slice::Iter<'a, (bool, u32)>,
}

impl<'a> Iterator for Changes<'a> {
    type Item = (bool, &'a Rule);

    fn next(&mut self) -> Option<Self::Item> {
        self.log.next().map(|&(added, span)| (added, &self.spans[span as usize].rule))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.log.size_hint()
    }
}

impl ExactSizeIterator for Changes<'_> {}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use psl_core::Section;

    fn d(s: &str) -> Date {
        Date::parse(s).unwrap()
    }

    fn span(text: &str, added: &str, removed: Option<&str>) -> RuleSpan {
        RuleSpan {
            rule: Rule::parse(text, Section::Icann).unwrap(),
            added: d(added),
            removed: removed.map(d),
        }
    }

    fn small_history() -> History {
        History::new(
            vec![
                span("com", "2007-03-22", None),
                span("co.uk", "2007-03-22", None),
                span("github.io", "2013-04-15", None),
                span("oldrule.net", "2008-01-01", Some("2015-06-01")),
            ],
            vec![
                d("2007-03-22"),
                d("2008-01-01"),
                d("2013-04-15"),
                d("2015-06-01"),
                d("2022-10-20"),
            ],
        )
    }

    #[test]
    fn rules_at_respects_spans() {
        let h = small_history();
        assert_eq!(h.rule_count_at(d("2007-03-22")), 2);
        assert_eq!(h.rule_count_at(d("2008-01-01")), 3);
        assert_eq!(h.rule_count_at(d("2013-04-15")), 4);
        // Removal takes effect at the removal version.
        assert_eq!(h.rule_count_at(d("2015-06-01")), 3);
        assert_eq!(h.rule_count_at(d("2022-10-20")), 3);
    }

    #[test]
    fn version_lookup() {
        let h = small_history();
        assert_eq!(h.version_at_or_before(d("2006-01-01")), None);
        assert_eq!(h.version_at_or_before(d("2007-03-22")), Some(d("2007-03-22")));
        assert_eq!(h.version_at_or_before(d("2010-01-01")), Some(d("2008-01-01")));
        assert_eq!(h.version_at_or_before(d("2030-01-01")), Some(d("2022-10-20")));
        assert_eq!(h.first_version(), d("2007-03-22"));
        assert_eq!(h.latest_version(), d("2022-10-20"));
    }

    #[test]
    fn diff_between_versions() {
        let h = small_history();
        let diff = h.diff(d("2008-01-01"), d("2022-10-20"));
        let added: Vec<String> = diff.added.iter().map(|r| r.as_text()).collect();
        let removed: Vec<String> = diff.removed.iter().map(|r| r.as_text()).collect();
        assert_eq!(added, ["github.io"]);
        assert_eq!(removed, ["oldrule.net"]);
        assert!(h.diff(d("2007-03-22"), d("2007-03-22")).is_empty());
    }

    #[test]
    fn snapshot_is_queryable() {
        let h = small_history();
        let old = h.snapshot_at(d("2008-01-01"));
        let new = h.latest_snapshot();
        assert_eq!(old.len(), 3);
        assert_eq!(new.len(), 3);
        let dom = psl_core::DomainName::parse("alice.github.io").unwrap();
        let opts = psl_core::MatchOpts::default();
        assert!(new.is_public_suffix(&psl_core::DomainName::parse("github.io").unwrap(), opts));
        assert_eq!(old.registrable_domain(&dom, opts).unwrap().as_str(), "github.io");
        assert_eq!(new.registrable_domain(&dom, opts).unwrap().as_str(), "alice.github.io");
    }

    #[test]
    fn version_sizes_matches_pointwise_counts() {
        let h = small_history();
        for (v, n) in h.version_sizes() {
            assert_eq!(n, h.rule_count_at(v), "at {v}");
        }
    }

    /// Apply the replayed changes to a map from rule text to section and
    /// check it against `rules_at` at every version.
    fn assert_replay_rebuilds_every_version(h: &History) {
        let mut live = std::collections::BTreeMap::new();
        let mut visited = Vec::new();
        h.replay_changes(|i, v, changes| {
            for (added, rule) in changes {
                if added {
                    live.insert(rule.as_text(), rule.section());
                } else {
                    live.remove(&rule.as_text());
                }
            }
            let expected: std::collections::BTreeMap<String, Section> =
                h.rules_at(v).iter().map(|r| (r.as_text(), r.section())).collect();
            assert_eq!(live, expected, "at {v}");
            visited.push((i, v));
        });
        assert_eq!(visited, h.versions().iter().copied().enumerate().collect::<Vec<_>>());
    }

    #[test]
    fn replayed_changes_rebuild_every_version() {
        assert_replay_rebuilds_every_version(&small_history());
    }

    /// Two hand-built histories whose replay once disagreed with
    /// `snapshot_at`: a span removed before the first version, whose
    /// addition the clamp moves past its removal; and a same-date section
    /// move with the new span listed first.
    pub(crate) fn replay_edge_cases() -> [History; 2] {
        let removed_early = History::new(
            vec![
                span("com", "2007-03-22", None),
                private(span("old.com", "2005-01-01", Some("2006-01-01"))),
            ],
            vec![d("2007-03-22"), d("2008-01-01")],
        );
        let moved = History::new(
            vec![
                span("com", "2007-03-22", None),
                private(span("foo.com", "2010-01-01", None)),
                span("foo.com", "2007-03-22", Some("2010-01-01")),
            ],
            vec![d("2007-03-22"), d("2010-01-01"), d("2011-01-01")],
        );
        [removed_early, moved]
    }

    fn private(mut span: RuleSpan) -> RuleSpan {
        span.rule = Rule::parse(&span.rule.as_text(), Section::Private).unwrap();
        span
    }

    #[test]
    fn replay_skips_never_live_spans_and_removes_before_adding() {
        let [removed_early, moved] = replay_edge_cases();
        assert_replay_rebuilds_every_version(&removed_early);
        assert_eq!(removed_early.version_sizes(), [(d("2007-03-22"), 1), (d("2008-01-01"), 1)]);
        assert_replay_rebuilds_every_version(&moved);
    }

    /// The replay as it was before the change log: every live span's
    /// events collected and stable-sorted by `(date, added)` on every
    /// call, then cut at each version. The oracle of the stored log.
    fn collected_replay(h: &History) -> Vec<Vec<(bool, String, Section)>> {
        let mut events: Vec<(Date, bool, &Rule)> = Vec::new();
        for span in h.spans().iter().filter(|s| s.removed.is_none_or(|r| s.added < r)) {
            events.push((span.added, true, &span.rule));
            if let Some(r) = span.removed {
                events.push((r, false, &span.rule));
            }
        }
        events.sort_by_key(|e| (e.0, e.1));
        let mut start = 0;
        h.versions()
            .iter()
            .map(|&v| {
                let end = start + events[start..].partition_point(|e| e.0 <= v);
                let changes = events[start..end]
                    .iter()
                    .map(|&(_, added, rule)| (added, rule.as_text(), rule.section()))
                    .collect();
                start = end;
                changes
            })
            .collect()
    }

    proptest::proptest! {
        /// The stored log replays what the collect-and-sort replay did, and
        /// `version_sizes` counts what it counted, over random spans of a
        /// few rule texts (so one text has several spans, some moving
        /// between sections on one date) on a few days: spans added
        /// before the first version (clamped), removed on or before their
        /// addition (never live), and removed on the day another is added.
        #[test]
        fn the_stored_log_replays_the_collected_changes(
            raw in proptest::collection::vec(
                (0usize..4, proptest::bool::ANY, 0i32..12, proptest::option::of(0i32..14)),
                0..40,
            ),
            days in proptest::collection::vec(2i32..13, 1..8),
        ) {
            let texts = ["com", "a.com", "*.b.com", "!x.b.com"];
            let date = |day: i32| Date::from_days_since_epoch(13_000 + day);
            let spans: Vec<RuleSpan> = raw
                .iter()
                .map(|&(text, private, added, removed)| RuleSpan {
                    rule: Rule::parse(
                        texts[text],
                        if private { Section::Private } else { Section::Icann },
                    )
                    .unwrap(),
                    added: date(added),
                    removed: removed.map(date),
                })
                .collect();
            let h = History::new(spans, days.iter().map(|&d| date(d)).collect());
            let want = collected_replay(&h);
            let mut got = Vec::new();
            h.replay_changes(|i, v, changes| {
                assert_eq!(v, h.versions()[i]);
                got.push(
                    changes
                        .map(|(added, rule)| (added, rule.as_text(), rule.section()))
                        .collect::<Vec<_>>(),
                );
            });
            proptest::prop_assert_eq!(&got, &want);
            let mut count = 0i64;
            let sizes: Vec<(Date, usize)> = h
                .versions()
                .iter()
                .zip(&want)
                .map(|(&v, changes)| {
                    count += changes.iter().map(|c| if c.0 { 1 } else { -1 }).sum::<i64>();
                    (v, count.max(0) as usize)
                })
                .collect();
            proptest::prop_assert_eq!(h.version_sizes(), sizes);
        }
    }

    #[test]
    fn early_spans_are_clamped() {
        let h = History::new(vec![span("com", "2000-01-01", None)], vec![d("2007-03-22")]);
        assert_eq!(h.spans()[0].added, d("2007-03-22"));
    }

    #[test]
    #[should_panic(expected = "at least one version")]
    fn empty_versions_panic() {
        let _ = History::new(vec![], vec![]);
    }
}
