//! Dating embedded list copies against the version history.
//!
//! Given a PSL copy found inside a repository, the pipeline must decide
//! *which version* (and therefore which date, and therefore which age) it
//! is. The paper did this against the real git history; we implement it as
//! a reusable index supporting (i) exact fingerprint lookup and (ii)
//! best-subset matching for copies that were truncated or locally edited —
//! the scoring walks all versions incrementally, so a full scan is
//! O(spans + versions) rather than O(versions × list size).

use crate::history::History;
use psl_core::{Date, Rule};
use std::collections::{HashMap, HashSet};

/// How an embedded copy was matched to a version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchQuality {
    /// The rule set is exactly some version's rule set.
    Exact,
    /// Best-effort: the version minimising the symmetric difference.
    Approximate {
        /// Rules in the embedded copy that the matched version lacks.
        extra: usize,
        /// Rules in the matched version that the copy lacks.
        missing: usize,
    },
}

/// The result of dating an embedded copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatedCopy {
    /// The matched version date.
    pub version: Date,
    /// Match quality.
    pub quality: MatchQuality,
}

impl DatedCopy {
    /// Age in days at the observation date `t` (paper: t = 2022-12-08).
    pub fn age_days(&self, t: Date) -> i32 {
        t - self.version
    }
}

/// A dating index over a [`History`].
#[derive(Debug)]
pub struct DatingIndex<'h> {
    history: &'h History,
    /// Fingerprint (order-independent hash of rule texts) → version date.
    /// Only versions whose content differs from their predecessor get an
    /// entry (identical republications share a fingerprint; first wins,
    /// which is the conservative — oldest — choice).
    by_fingerprint: HashMap<u64, Date>,
}

/// Order-independent FNV-1a-based fingerprint of a rule set.
pub fn fingerprint<'a>(texts: impl IntoIterator<Item = &'a str>) -> u64 {
    // XOR of per-text FNV hashes is order-independent; mixing each hash
    // through splitmix avoids cheap collisions from similar texts.
    let mut acc = 0u64;
    for t in texts {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in t.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        acc ^= psl_stats::derive_seed(h, 0x5eed);
    }
    acc
}

impl<'h> DatingIndex<'h> {
    /// Build the index (one pass per version over its live rules; the
    /// version rule sets are materialised incrementally).
    pub fn build(history: &'h History) -> Self {
        let mut by_fingerprint = HashMap::new();
        // Incremental fingerprint: XOR in added rules, XOR out removed.
        let mut acc = 0u64;
        history.replay_changes(|_, v, changes| {
            for (_, rule) in changes {
                acc ^= fingerprint(std::iter::once(rule.as_text().as_str()));
            }
            by_fingerprint.entry(acc).or_insert(v);
        });
        DatingIndex { history, by_fingerprint }
    }

    /// Date an embedded copy given as parsed rules.
    ///
    /// Tries an exact fingerprint match first; falls back to the version
    /// minimising |embedded Δ version| (ties broken toward the older
    /// version, the conservative choice for age estimation). Returns
    /// `None` for an empty rule set.
    pub fn date_rules(&self, rules: &[Rule]) -> Option<DatedCopy> {
        if rules.is_empty() {
            return None;
        }
        let texts: HashSet<String> = rules.iter().map(|r| r.as_text()).collect();
        let fp = fingerprint(texts.iter().map(String::as_str));
        if let Some(&version) = self.by_fingerprint.get(&fp) {
            return Some(DatedCopy { version, quality: MatchQuality::Exact });
        }

        // Best-subset scan over the replayed versions. Maintain |V|
        // (version size) and |V ∩ E| as rules enter and leave; score =
        // |V| + |E| - 2|V ∩ E|. Only a strictly lower score replaces the
        // best, so ties go to the older version.
        let e_size = texts.len() as i64;
        let (mut v_size, mut inter) = (0i64, 0i64);
        let mut best: Option<(i64, Date, i64, i64)> = None;
        self.history.replay_changes(|_, v, changes| {
            for (added, rule) in changes {
                let delta = if added { 1 } else { -1 };
                v_size += delta;
                if texts.contains(&rule.as_text()) {
                    inter += delta;
                }
            }
            let score = v_size + e_size - 2 * inter;
            if best.is_none_or(|(s, ..)| score < s) {
                best = Some((score, v, e_size - inter, v_size - inter));
            }
        });
        best.map(|(_, version, extra, missing)| DatedCopy {
            version,
            quality: MatchQuality::Approximate {
                extra: extra.max(0) as usize,
                missing: missing.max(0) as usize,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, GeneratorConfig};
    use psl_core::{parse_dat, write_dat, Section};

    #[test]
    fn exact_version_is_recovered() {
        let h = generate(&GeneratorConfig::small(31));
        let index = DatingIndex::build(&h);
        // Probe a handful of versions across the range.
        let versions = h.versions();
        for &v in versions.iter().step_by(versions.len() / 7) {
            let rules = h.rules_at(v);
            let dated = index.date_rules(&rules).unwrap();
            // Identical rule sets may span several versions; the matched
            // version must produce the same rule set.
            let matched = h.rules_at(dated.version);
            let a: HashSet<String> = rules.iter().map(|r| r.as_text()).collect();
            let b: HashSet<String> = matched.iter().map(|r| r.as_text()).collect();
            assert_eq!(a, b, "at {v}");
            assert_eq!(dated.quality, MatchQuality::Exact);
        }
    }

    #[test]
    fn dat_roundtrip_dating() {
        let h = generate(&GeneratorConfig::small(37));
        let index = DatingIndex::build(&h);
        let v = h.versions()[h.version_count() / 2];
        let text = write_dat(&h.rules_at(v));
        let dated = index.date_rules(&parse_dat(&text).rules).unwrap();
        assert_eq!(dated.quality, MatchQuality::Exact);
        let a: HashSet<String> = h.rules_at(v).iter().map(|r| r.as_text()).collect();
        let b: HashSet<String> = h.rules_at(dated.version).iter().map(|r| r.as_text()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn truncated_copy_dates_approximately() {
        let h = generate(&GeneratorConfig::small(41));
        let index = DatingIndex::build(&h);
        let versions = h.versions();
        let v = versions[versions.len() / 2];
        let mut rules = h.rules_at(v);
        // Drop 3% of rules, as a project embedding a trimmed copy would.
        let keep = rules.len() - rules.len() / 33;
        rules.truncate(keep);
        let dated = index.date_rules(&rules).unwrap();
        match dated.quality {
            MatchQuality::Exact => {
                // Possible if truncation happened to match an earlier
                // version exactly; the date must then be <= v.
                assert!(dated.version <= v);
            }
            MatchQuality::Approximate { extra, missing } => {
                assert!(extra + missing <= rules.len() / 8);
                // The matched date should be near v.
                assert!((dated.version - v).abs() < 400, "matched {}", dated.version);
            }
        }
    }

    /// The fallback against a brute-force scan of every version: a
    /// truncated or locally edited copy dates to the version minimising
    /// |copy Δ rules_at(v)|, the older one on ties, with the same
    /// extra/missing counts.
    #[test]
    fn approximate_dating_matches_brute_force() {
        let h = generate(&GeneratorConfig::small(47));
        let index = DatingIndex::build(&h);
        let versions = h.versions();
        let sets: Vec<HashSet<String>> =
            versions.iter().map(|&v| h.rules_at(v).iter().map(Rule::as_text).collect()).collect();
        let local = ["corp.internal", "intranet.example"]
            .map(|text| Rule::parse(text, Section::Private).unwrap());
        let mut approximate = 0;
        for &v in versions.iter().step_by(versions.len() / 9) {
            let live = h.rules_at(v);
            let mut truncated = live.clone();
            truncated.truncate(live.len() - live.len() / 20);
            let mut edited: Vec<Rule> = live
                .iter()
                .enumerate()
                .filter(|(i, _)| i % 50 != 7)
                .map(|(_, r)| r.clone())
                .collect();
            edited.extend(local.iter().cloned());
            for copy in [truncated, edited] {
                let texts: HashSet<String> = copy.iter().map(Rule::as_text).collect();
                let mut best = (usize::MAX, v, 0, 0);
                for (&u, at) in versions.iter().zip(&sets) {
                    let (extra, missing) =
                        (texts.difference(at).count(), at.difference(&texts).count());
                    if extra + missing < best.0 {
                        best = (extra + missing, u, extra, missing);
                    }
                }
                let (score, version, extra, missing) = best;
                let want = if score == 0 {
                    MatchQuality::Exact
                } else {
                    approximate += 1;
                    MatchQuality::Approximate { extra, missing }
                };
                let dated = index.date_rules(&copy).unwrap();
                assert_eq!((dated.version, dated.quality), (version, want), "copy of {v}");
            }
        }
        assert!(approximate >= 10, "only {approximate} copies took the fallback");
    }

    #[test]
    fn empty_rules_do_not_date() {
        let h = generate(&GeneratorConfig::small(43));
        let index = DatingIndex::build(&h);
        assert!(index.date_rules(&[]).is_none());
    }

    #[test]
    fn age_days() {
        let dated =
            DatedCopy { version: Date::parse("2020-01-01").unwrap(), quality: MatchQuality::Exact };
        let t = Date::parse("2022-12-08").unwrap();
        assert_eq!(dated.age_days(t), 1072);
    }

    #[test]
    fn fingerprint_is_order_independent() {
        let a = fingerprint(["com", "net", "org"]);
        let b = fingerprint(["org", "com", "net"]);
        assert_eq!(a, b);
        let c = fingerprint(["com", "net"]);
        assert_ne!(a, c);
    }
}
