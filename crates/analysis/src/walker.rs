//! The version walk: every name's public-suffix length through every
//! list version, in O(changes).
//!
//! Figures 5–7, the fleet's list views and the harm extensions all ask
//! "which site is this name in under version `v`?" for the history's
//! versions. Consecutive versions differ by a handful of rules, and a rule
//! can only change the disposition of the names *under* it. [`walk`]
//! keeps one mutable [`SuffixTrie`], applies each version's rule diff, and
//! re-matches only the names under a changed rule: sorted by reversed
//! labels, those names are one contiguous run, found by binary search.
//! It returns each name's disposition timeline — the versions at which
//! its suffix length changes — so a caller that needs all 1,142 versions
//! pays for the names and the changes, not for names × versions.
//!
//! [`site_len`] is the one definition of a name's site under a
//! disposition: the walk's callers and the rebuild oracle
//! ([`crate::sweep::sweep_rebuild`]) both go through it.

use psl_core::{DomainName, MatchOpts, SuffixTrie};
use psl_history::History;
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
    /// Assemble from `(name, version, value)` changes.
    fn from_changes(names: usize, mut changes: Vec<(u32, u32, T)>) -> Self {
        changes.sort_unstable_by_key(|&(name, version, _)| (name, version));
        let mut starts = vec![0u32; names + 1];
        for &(name, ..) in &changes {
            starts[name as usize + 1] += 1;
        }
        for i in 0..names {
            starts[i + 1] += starts[i];
        }
        Timelines { starts, steps: changes.into_iter().map(|(_, v, t)| (v, t)).collect() }
    }

    /// Number of names.
    pub fn names(&self) -> usize {
        self.starts.len() - 1
    }

    /// Name `name`'s `(first version, value)` steps, ascending.
    pub fn steps(&self, name: usize) -> &[(u32, T)] {
        &self.steps[self.starts[name] as usize..self.starts[name + 1] as usize]
    }

    /// Name `name`'s value at version index `version`.
    pub fn at(&self, name: usize, version: usize) -> T {
        let steps = self.steps(name);
        steps[steps.partition_point(|&(v, _)| v as usize <= version) - 1].1
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

/// What [`walk`] learned about a set of names.
#[derive(Debug, Clone)]
pub struct Walk {
    /// Rules live at each version.
    pub rule_counts: Vec<usize>,
    /// Each name's public-suffix length in labels through the versions
    /// (`None` while no rule matches and the implicit rule is off).
    pub suffix_lens: Timelines<Option<u32>>,
}

/// Walk every version of `history` once with one mutable trie, tracking
/// the disposition of each of `names` under `opts`.
pub fn walk(history: &History, names: &[DomainName], opts: MatchOpts) -> Walk {
    let reversed: Vec<Vec<&str>> = names.iter().map(DomainName::labels_reversed).collect();
    // Sorted by reversed labels, the names under any rule are one run.
    let mut order: Vec<u32> = (0..names.len() as u32).collect();
    order.sort_by(|&a, &b| reversed[a as usize].cmp(&reversed[b as usize]));

    let mut trie = SuffixTrie::default();
    let mut current: Vec<Option<u32>> = vec![None; names.len()];
    let mut marked = vec![u32::MAX; names.len()];
    let mut dirty: Vec<u32> = Vec::new();
    let mut changes: Vec<(u32, u32, Option<u32>)> = Vec::with_capacity(names.len());
    let mut rule_counts = Vec::with_capacity(history.version_count());
    history.replay_changes(|vi, _, diff| {
        let vi = vi as u32;
        for &(is_add, rule) in diff {
            if is_add {
                trie.insert(rule);
            } else {
                trie.remove(rule);
            }
            if vi == 0 {
                continue; // every name is matched below
            }
            let prefix: Vec<&str> = rule.labels().iter().rev().map(String::as_str).collect();
            let head = |i: &u32| {
                let labels = &reversed[*i as usize];
                &labels[..labels.len().min(prefix.len())]
            };
            let lo = order.partition_point(|i| head(i) < &prefix[..]);
            let hi = lo + order[lo..].partition_point(|i| head(i) == &prefix[..]);
            for &i in &order[lo..hi] {
                if marked[i as usize] != vi {
                    marked[i as usize] = vi;
                    dirty.push(i);
                }
            }
        }
        if vi == 0 {
            dirty.extend(0..names.len() as u32);
        }
        for i in dirty.drain(..) {
            let len = trie.disposition(&reversed[i as usize], opts).map(|d| d.suffix_len as u32);
            if vi == 0 || len != current[i as usize] {
                current[i as usize] = len;
                changes.push((i, vi, len));
            }
        }
        rule_counts.push(trie.len());
    });
    Walk { rule_counts, suffix_lens: Timelines::from_changes(names.len(), changes) }
}

/// Each host's site through the versions, as dense ids that hold across
/// versions: two `(host, version)` pairs share an id iff their site
/// strings are equal. Returns the timelines and the number of ids.
pub fn site_ids(walk: &Walk, hosts: &[DomainName]) -> (Timelines<u32>, usize) {
    let mut ids: HashMap<&str, u32> = HashMap::with_capacity(hosts.len());
    let sites = walk.suffix_lens.map(|h, len| {
        let next = ids.len() as u32;
        *ids.entry(site_of(&hosts[h], len.map(|l| l as usize))).or_insert(next)
    });
    (sites, ids.len())
}

/// Dense ids for string keys: equal keys share an id.
pub(crate) fn dense_ids<'a>(keys: impl IntoIterator<Item = &'a str>) -> Vec<u32> {
    let mut ids: HashMap<&str, u32> = HashMap::new();
    keys.into_iter()
        .map(|key| {
            let next = ids.len() as u32;
            *ids.entry(key).or_insert(next)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use psl_history::{generate, GeneratorConfig};
    use psl_webcorpus::{generate_corpus, CorpusConfig};

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
}
