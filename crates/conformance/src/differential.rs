//! Differential matcher oracle: one walk, two arms, one oracle.
//!
//! Every hostname is answered by the two arms the engine serves from and
//! by the literal reading of the algorithm:
//!
//! 1. the production walk: a [`List`] (its compiled [`psl_core::FrozenList`],
//!    which `SITE` and `SUFFIX` read, and which a compiled snapshot loads
//!    into), queried through the [`ProductionMatcher`] seam so tests can
//!    plant a broken matcher;
//! 2. the versioned walk: the rule set's version of a [`VersionedList`]
//!    (a history's arena, or [`one_version`] of a bare list), read in
//!    place with the host's labels, as `ASOF` reads it;
//! 3. the oracle, [`psl_core::trie::disposition_linear`], which tests
//!    every rule against the host.
//!
//! The arms run the same walk over two arena layouts; any disagreement
//! with the oracle is a bug in the walk or in one layout. The
//! sweep runs the comparison across every version of a [`History`],
//! reports the first divergence per version, and ships a label-minimized
//! reproducer so the failing case is human-readable.

use psl_core::trie::disposition_linear;
use psl_core::{At, Disposition, DomainName, List, MatchOpts, Rule, VersionedList};
use psl_history::History;
use rand::{Rng, SeedableRng};
use serde::Serialize;

/// A hostname on which an arm disagrees with the oracle.
#[derive(Debug, Clone, Serialize)]
pub struct Divergence {
    /// History version the rule set came from (`None` for a bare list).
    pub version: Option<String>,
    /// The hostname that first diverged.
    pub host: String,
    /// The shortest hostname (by label dropping) still diverging.
    pub minimized: String,
    /// The production answer (`Debug`-rendered disposition, or `panic`).
    pub production: String,
    /// The linear oracle's answer.
    pub linear: String,
    /// The versioned arena's answer at the rule set's version.
    pub versioned: String,
}

/// Result of a differential sweep.
#[derive(Debug, Clone, Serialize)]
pub struct SweepOutcome {
    /// Rule-set versions checked.
    pub versions: usize,
    /// Hostnames in the probe corpus.
    pub hosts: usize,
    /// Total (version, hostname, opts) comparisons performed.
    pub comparisons: usize,
    /// First divergence found per version (empty = all agree).
    pub divergences: Vec<Divergence>,
}

impl SweepOutcome {
    /// True when every comparison agreed.
    pub fn is_pass(&self) -> bool {
        self.divergences.is_empty()
    }
}

/// The production matcher under test. The default is the real [`List`];
/// the mutation-sensitivity tests substitute a deliberately broken variant
/// to prove the oracle actually fires.
pub trait ProductionMatcher {
    /// Same contract as [`List::disposition_reversed`].
    fn disposition(&self, reversed: &[&str], opts: MatchOpts) -> Option<Disposition>;
}

impl ProductionMatcher for List {
    fn disposition(&self, reversed: &[&str], opts: MatchOpts) -> Option<Disposition> {
        self.disposition_reversed(reversed, opts)
    }
}

/// An arm's answer, or `Err` when the arm panicked: a walk that crashes
/// on a host diverges like one that answers it wrongly.
type Answer = Result<Option<Disposition>, ()>;

fn render(answer: Answer) -> String {
    match answer {
        Err(()) => "panic".to_string(),
        Ok(None) => "None".to_string(),
        Ok(Some(d)) => format!("{d:?}"),
    }
}

fn guarded(arm: impl FnOnce() -> Option<Disposition>) -> Answer {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(arm)).map_err(drop)
}

/// The option sets every comparison is run under.
const OPTS_MATRIX: [MatchOpts; 3] = [
    MatchOpts { include_private: true, implicit_wildcard: true },
    MatchOpts { include_private: false, implicit_wildcard: true },
    MatchOpts { include_private: true, implicit_wildcard: false },
];

/// The production, linear and versioned answers for one host.
fn answers(
    production: &impl ProductionMatcher,
    rules: &[Rule],
    versioned: At<'_>,
    reversed: &[&str],
    opts: MatchOpts,
) -> [Answer; 3] {
    [
        guarded(|| production.disposition(reversed, opts)),
        guarded(|| disposition_linear(rules, reversed, opts)),
        guarded(|| versioned.disposition(reversed, opts)),
    ]
}

/// True unless every arm agrees with the linear oracle (the second answer).
fn disagree(answers: &[Answer; 3]) -> bool {
    answers.iter().any(|a| *a != answers[1])
}

/// Compare the two arms with the linear oracle over `rules` on a host
/// corpus, returning the first divergence (with a minimized reproducer).
/// `versioned` is the version of an arena that holds `rules`.
pub fn first_divergence(
    production: &impl ProductionMatcher,
    rules: &[Rule],
    versioned: At<'_>,
    hosts: &[DomainName],
    comparisons: &mut usize,
) -> Option<Divergence> {
    for host in hosts {
        let reversed = host.labels_reversed();
        for opts in OPTS_MATRIX {
            *comparisons += 1;
            let found = answers(production, rules, versioned, &reversed, opts);
            if disagree(&found) {
                let minimized = minimize(production, rules, versioned, &reversed, opts);
                let [p, l, v] = found;
                return Some(Divergence {
                    version: None,
                    host: host.as_str().to_string(),
                    minimized,
                    production: render(p),
                    linear: render(l),
                    versioned: render(v),
                });
            }
        }
    }
    None
}

/// Shrink a diverging hostname: repeatedly drop the leftmost label, then
/// try renaming each label to `a`, keeping every step that still diverges.
fn minimize(
    production: &impl ProductionMatcher,
    rules: &[Rule],
    versioned: At<'_>,
    reversed: &[&str],
    opts: MatchOpts,
) -> String {
    let diverges = |rev: &[&str]| disagree(&answers(production, rules, versioned, rev, opts));

    // Labels here are in reversed (TLD-first) order; the leftmost label of
    // the hostname is the *last* element.
    let mut current: Vec<String> = reversed.iter().map(|s| s.to_string()).collect();
    while current.len() > 1 {
        let shorter: Vec<&str> = current[..current.len() - 1].iter().map(|s| s.as_str()).collect();
        if diverges(&shorter) {
            current.pop();
        } else {
            break;
        }
    }
    for i in 0..current.len() {
        if current[i] == "a" {
            continue;
        }
        let saved = std::mem::replace(&mut current[i], "a".to_string());
        let probe: Vec<&str> = current.iter().map(|s| s.as_str()).collect();
        if !diverges(&probe) {
            current[i] = saved;
        }
    }
    let mut labels: Vec<&str> = current.iter().map(|s| s.as_str()).collect();
    labels.reverse();
    labels.join(".")
}

/// Run the comparison over every version of a history (or the `limit`
/// most recent versions when `limit > 0`), the versioned arm reading the
/// history's one arena at each version.
pub fn sweep_history(history: &History, hosts: &[DomainName], limit: usize) -> SweepOutcome {
    let all = history.versions();
    let skip = if limit > 0 { all.len().saturating_sub(limit) } else { 0 };
    let arena = history.versioned_list();
    let mut comparisons = 0;
    let mut divergences = Vec::new();
    for (index, &version) in all.iter().enumerate().skip(skip) {
        let rules = history.rules_at(version);
        let list = List::from_rules(rules.clone());
        if let Some(mut d) =
            first_divergence(&list, &rules, arena.at(index), hosts, &mut comparisons)
        {
            d.version = Some(version.to_string());
            divergences.push(d);
        }
    }
    SweepOutcome { versions: all.len() - skip, hosts: hosts.len(), comparisons, divergences }
}

/// `list`'s rules as a one-version arena: the versioned arm for a bare
/// list.
pub fn one_version(list: &List) -> VersionedList {
    VersionedList::build(list.rules().iter().map(|rule| (0, true, rule)))
}

/// Build a probe corpus of at least `n` hostnames for a history: every
/// rule that ever existed contributes its bare suffix plus hosts one and
/// two labels beneath it (wildcards get their variable label filled).
/// While the corpus is short of `n`, each label a rule has below its TLD
/// then becomes a TLD under a random label (`x.kobe` for `kobe.jp`): a
/// label the list interns but the root has no edge for, which a root
/// dispatch reading past its table answers wrongly. The remainder is
/// topped up with random unlisted-TLD probes.
pub fn probe_corpus(history: &History, seed: u64, n: usize) -> Vec<DomainName> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    let mut push = |host: String, out: &mut Vec<DomainName>| {
        if let Ok(d) = DomainName::parse(&host) {
            if seen.insert(d.as_str().to_string()) {
                out.push(d);
            }
        }
    };
    for span in history.spans() {
        let body = span.rule.labels().join(".");
        push(body.clone(), &mut out);
        let l1 = label(&mut rng);
        let l2 = label(&mut rng);
        push(format!("{l1}.{body}"), &mut out);
        push(format!("{l2}.{l1}.{body}"), &mut out);
    }
    let mut below = std::collections::HashSet::new();
    for span in history.spans() {
        let labels = span.rule.labels();
        for l in &labels[..labels.len() - 1] {
            if out.len() < n && below.insert(l.as_str()) {
                push(format!("{}.{l}", label(&mut rng)), &mut out);
            }
        }
    }
    while out.len() < n {
        let tld = format!("{}x", label(&mut rng));
        let host = match rng.gen_range(0..3u32) {
            0 => tld,
            1 => format!("{}.{tld}", label(&mut rng)),
            _ => format!("{}.{}.{tld}", label(&mut rng), label(&mut rng)),
        };
        push(host, &mut out);
    }
    out
}

fn label(rng: &mut rand::rngs::StdRng) -> String {
    const ALPHA: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    let len = 1 + rng.gen_range(0..9usize);
    (0..len).map(|_| ALPHA[rng.gen_range(0..ALPHA.len())] as char).collect()
}

/// Check a bare [`List`] over a host corpus, the list itself as the
/// production arm and [`one_version`] of it as the versioned arm.
pub fn check_list(list: &List, hosts: &[DomainName]) -> SweepOutcome {
    let arena = one_version(list);
    let mut comparisons = 0;
    let divergence = first_divergence(list, list.rules(), arena.at(0), hosts, &mut comparisons);
    SweepOutcome {
        versions: 1,
        hosts: hosts.len(),
        comparisons,
        divergences: divergence.into_iter().collect(),
    }
}

/// Rule shapes no generated history has (rules below an exception, a
/// wildcard below a wildcard, ...), as `.dat` text; see the file's header.
pub const WALK_SHAPES: &str = include_str!("../data/walk_shapes.dat");

/// Probe hostnames for every rule of `list`: its bare suffix, hosts one
/// and two labels below it (a wildcard's label filled), and, for each
/// label below the TLD, that label as a TLD with the rule's TLD under it
/// (`jp.kobe` for `kobe.jp`) — a label the list interns but the root has
/// no edge for.
pub fn list_probes(list: &List) -> Vec<DomainName> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    for rule in list.rules() {
        let labels = rule.labels();
        let body = labels.join(".");
        let tld = &labels[labels.len() - 1];
        let below = labels[..labels.len() - 1].iter().map(|l| format!("{tld}.{l}"));
        for host in
            [body.clone(), format!("x.{body}"), format!("y.x.{body}")].into_iter().chain(below)
        {
            if let Ok(d) = DomainName::parse(&host) {
                if seen.insert(d.as_str().to_string()) {
                    out.push(d);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use psl_core::embedded_list;
    use psl_core::{MatchKind, RuleKind, Section};

    #[test]
    fn embedded_list_has_no_divergence() {
        let list = embedded_list();
        assert!(check_list(&list, &list_probes(&list)).is_pass());
    }

    #[test]
    fn walk_shapes_agree_on_every_probe() {
        let shapes = List::parse(WALK_SHAPES);
        assert_eq!(shapes.len(), 18, "every curated rule parses");
        let hosts = list_probes(&shapes);
        let outcome = check_list(&shapes, &hosts);
        assert_eq!(outcome.comparisons, hosts.len() * OPTS_MATRIX.len());
        assert!(outcome.is_pass(), "{:?}", outcome.divergences.first());
        // The exception prevails over the longer rules below it.
        let below = DomainName::parse("ward.city.kobe.jp").unwrap();
        assert_eq!(shapes.public_suffix(&below, MatchOpts::default()), Some("kobe.jp"));
    }

    /// A broken "production" matcher that ignores exception rules — the
    /// classic bug class the oracle exists to catch — planted over the
    /// walk.
    struct ExceptionBlind(List);

    impl ProductionMatcher for ExceptionBlind {
        fn disposition(&self, reversed: &[&str], opts: MatchOpts) -> Option<Disposition> {
            let d = self.0.disposition_reversed(reversed, opts)?;
            match d.kind {
                MatchKind::Rule(RuleKind::Exception) => Some(Disposition {
                    suffix_len: d.suffix_len + 1,
                    kind: MatchKind::Rule(RuleKind::Wildcard),
                    section: Some(Section::Icann),
                }),
                _ => Some(d),
            }
        }
    }

    #[test]
    fn mutated_matcher_is_caught_and_minimized() {
        let list = List::parse("jp\n*.kobe.jp\n!city.kobe.jp\n");
        let rules = list.rules().to_vec();
        let broken = ExceptionBlind(list.clone());
        let arena = one_version(&list);
        let hosts = vec![DomainName::parse("deep.sub.city.kobe.jp").unwrap()];
        let mut comparisons = 0;
        let d = first_divergence(&broken, &rules, arena.at(0), &hosts, &mut comparisons)
            .expect("oracle must catch the exception-blind matcher");
        assert_eq!(d.host, "deep.sub.city.kobe.jp");
        // Minimization drops the irrelevant leading labels.
        assert_eq!(d.minimized, "city.kobe.jp");
        assert_ne!(d.production, d.linear);
        assert_eq!(d.linear, d.versioned, "the healthy versioned arm stays in agreement");
    }

    /// A production `List` whose compiled arena is skewed (loaded from the
    /// snapshot of a different rule set, as a broken loader would leave
    /// it) must trip the oracle too, with no wrapper around the walk.
    #[test]
    fn broken_frozen_executor_is_caught() {
        let list = List::parse("jp\n*.kobe.jp\n!city.kobe.jp\n");
        let rules = list.rules().to_vec();
        let skewed = List::load_snapshot(&List::parse("jp\n*.kobe.jp\n").write_snapshot()).unwrap();
        let arena = one_version(&list);
        let hosts = vec![DomainName::parse("x.city.kobe.jp").unwrap()];
        let mut comparisons = 0;
        let d = first_divergence(&skewed, &rules, arena.at(0), &hosts, &mut comparisons)
            .expect("oracle must catch the skewed arena");
        assert_ne!(d.production, d.linear);
        assert_eq!(d.linear, d.versioned);
    }

    /// A planted versioned arm that reads each node's first step instead
    /// of its last must trip the oracle too: an arena holding only version
    /// 0's changes, read at version 1, after `!city.kobe.jp` was removed.
    #[test]
    fn first_step_arena_is_caught() {
        let rule = |text: &str| Rule::parse(text, Section::Icann).unwrap();
        let changes =
            [(0, true, rule("jp")), (0, true, rule("*.kobe.jp")), (0, true, rule("!city.kobe.jp"))];
        let removal = (1, false, rule("!city.kobe.jp"));
        let healthy =
            VersionedList::build(changes.iter().chain([&removal]).map(|(v, a, r)| (*v, *a, r)));
        let planted = VersionedList::build(changes.iter().map(|(v, a, r)| (*v, *a, r)));
        let list = List::parse("jp\n*.kobe.jp\n");
        let rules = list.rules().to_vec();
        let hosts = vec![DomainName::parse("x.city.kobe.jp").unwrap()];
        let mut comparisons = 0;
        let at = healthy.at(1);
        assert!(first_divergence(&list, &rules, at, &hosts, &mut comparisons).is_none());
        let at = planted.at(1);
        let d = first_divergence(&list, &rules, at, &hosts, &mut comparisons)
            .expect("oracle must catch the first-step arena");
        assert_eq!(d.production, d.linear);
        assert_ne!(d.linear, d.versioned);
        assert_eq!(d.minimized, "city.kobe.jp");
    }

    /// A matcher that panics on a host.
    struct Panicking;

    impl ProductionMatcher for Panicking {
        fn disposition(&self, _: &[&str], _: MatchOpts) -> Option<Disposition> {
            panic!("planted panic")
        }
    }

    /// An arm that crashes on a host diverges like one that answers wrongly,
    /// so one bad host does not end the sweep unreported.
    #[test]
    fn panicking_matcher_is_a_divergence() {
        let list = List::parse("jp\n*.kobe.jp\n");
        let arena = one_version(&list);
        let hosts = vec![DomainName::parse("x.kobe.jp").unwrap()];
        let mut comparisons = 0;
        let d = first_divergence(&Panicking, list.rules(), arena.at(0), &hosts, &mut comparisons)
            .expect("a panicking arm diverges");
        assert_eq!((d.production.as_str(), d.minimized.as_str()), ("panic", "a"));
        assert_eq!(d.linear, d.versioned);
    }

    #[test]
    fn probe_corpus_reaches_requested_size_and_is_deterministic() {
        let h = psl_history::generate(&psl_history::GeneratorConfig::small(7));
        let a = probe_corpus(&h, 1, 2000);
        let b = probe_corpus(&h, 1, 2000);
        assert!(a.len() >= 2000);
        assert_eq!(
            a.iter().map(|d| d.as_str()).collect::<Vec<_>>(),
            b.iter().map(|d| d.as_str()).collect::<Vec<_>>()
        );
    }

    /// Within the budget, every label a rule has below its TLD is some
    /// probe's TLD.
    #[test]
    fn probe_corpus_puts_rule_labels_at_the_tld() {
        let h = psl_history::generate(&psl_history::GeneratorConfig::small(7));
        let hosts = probe_corpus(&h, 1, 10_000);
        assert_eq!(hosts.len(), 10_000);
        let tlds: std::collections::HashSet<&str> =
            hosts.iter().map(|d| d.labels().next_back().unwrap()).collect();
        let below: Vec<&String> =
            h.spans().iter().flat_map(|s| s.rule.labels().split_last().unwrap().1).collect();
        assert!(!below.is_empty());
        for label in below {
            assert!(tlds.contains(label.as_str()), "no probe has {label} as its TLD");
        }
    }

    #[test]
    fn sweep_covers_versions_and_agrees() {
        let h = psl_history::generate(&psl_history::GeneratorConfig::small(11));
        let hosts = probe_corpus(&h, 2, 500);
        let outcome = sweep_history(&h, &hosts, 10);
        assert_eq!(outcome.versions, 10);
        assert!(outcome.comparisons >= outcome.versions * hosts.len());
        assert!(outcome.is_pass(), "{:?}", outcome.divergences.first());
    }
}
