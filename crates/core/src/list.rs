//! The [`List`] type: a parsed Public Suffix List ready for queries.
//!
//! Wraps the rule set and its compiled [`FrozenList`] matcher, and exposes
//! the operations the paper's pipeline (and real software) needs:
//! public-suffix extraction, registrable-domain (eTLD+1) extraction, and
//! site grouping.

use crate::domain::DomainName;
use crate::frozen::{FrozenList, LabelInterner};
use crate::parser::{self, ParsedList};
use crate::rule::{Rule, RuleKind, Section};
use crate::trie::{Disposition, MatchOpts};
use std::collections::HashSet;

/// A queryable Public Suffix List.
///
/// The production matching path is the compiled [`FrozenList`] (flat arena
/// trie over interned labels); the mutable [`crate::SuffixTrie`] remains
/// the structure for incremental edits and serves as a differential
/// reference for this one in tests, conformance, and the fuzzer.
#[derive(Debug, Clone, Default)]
pub struct List {
    rules: Vec<Rule>,
    interner: LabelInterner,
    frozen: FrozenList,
}

impl List {
    /// Build from already-parsed rules. Duplicate rule texts are dropped
    /// (first occurrence wins), matching file semantics.
    pub fn from_rules(rules: Vec<Rule>) -> Self {
        let mut seen = HashSet::new();
        let mut unique = Vec::with_capacity(rules.len());
        for rule in rules {
            if seen.insert(rule.as_text()) {
                unique.push(rule);
            }
        }
        let mut interner = LabelInterner::new();
        let frozen = FrozenList::compile(&unique, &mut interner);
        List { rules: unique, interner, frozen }
    }

    /// Parse `.dat` text leniently (bad lines are dropped; see
    /// [`parser::parse_dat`]).
    pub fn parse(text: &str) -> Self {
        let ParsedList { rules, .. } = parser::parse_dat(text);
        List::from_rules(rules)
    }

    /// Rebuild a list around an already-compiled arena (typically one
    /// loaded from a snapshot): the rule vector is decompiled from the
    /// arena, so `rules()` reflects exactly what the matcher will answer.
    pub fn from_compiled(interner: LabelInterner, frozen: FrozenList) -> Self {
        let rules = frozen.decompile_rules(&interner);
        List { rules, interner, frozen }
    }

    /// Serialise the compiled matcher into snapshot bytes (see
    /// [`crate::snapfile`]). `List::load_snapshot(&list.write_snapshot())`
    /// reproduces the matcher bit for bit.
    pub fn write_snapshot(&self) -> Vec<u8> {
        crate::snapfile::write_list_snapshot(&self.interner, &self.frozen)
    }

    /// Load a list from snapshot bytes, validating them as hostile input.
    /// The rule vector is decompiled from the loaded arena.
    pub fn load_snapshot(bytes: &[u8]) -> Result<Self, crate::snapfile::SnapshotError> {
        let (interner, frozen) = FrozenList::load(bytes)?;
        Ok(List::from_compiled(interner, frozen))
    }

    /// The rules, in list order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// True if the list holds no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Serialise back to `.dat` text.
    pub fn to_dat(&self) -> String {
        parser::write_dat(&self.rules)
    }

    /// The prevailing-rule decision for reversed hostname labels (TLD
    /// first). Resolved by the compiled matcher: labels are mapped to
    /// interned ids on the fly (no allocation) and walked through the flat
    /// arena.
    pub fn disposition_reversed(&self, reversed: &[&str], opts: MatchOpts) -> Option<Disposition> {
        self.frozen.disposition(&self.interner, reversed, opts)
    }

    /// The prevailing-rule decision for reversed labels already interned
    /// via this list's interner (see [`List::reversed_ids`]). The
    /// zero-allocation hot path for callers that cache id slices, such as
    /// the service's per-worker lookup cache.
    pub fn disposition_ids(&self, reversed_ids: &[u32], opts: MatchOpts) -> Option<Disposition> {
        self.frozen.disposition_by_ids(reversed_ids, opts)
    }

    /// Map reversed labels to this list's interned ids (unknown labels
    /// become the [`crate::frozen::UNKNOWN_LABEL`] sentinel), reusing
    /// `out`. The resulting slice feeds [`List::disposition_ids`] and
    /// doubles as a cache key: the disposition depends only on the id
    /// sequence.
    pub fn reversed_ids(&self, reversed: &[&str], out: &mut Vec<u32>) {
        self.interner.ids_reversed(reversed, out);
    }

    /// As [`List::reversed_ids`], but splitting a canonical dotted hostname
    /// (e.g. [`DomainName::as_str`]) on the fly, with no intermediate label
    /// vector.
    pub fn reversed_ids_str(&self, host: &str, out: &mut Vec<u32>) {
        self.interner.ids_of_host(host, out);
    }

    /// The label interner backing the compiled matcher.
    pub fn interner(&self) -> &LabelInterner {
        &self.interner
    }

    /// The compiled matcher itself.
    pub fn frozen(&self) -> &FrozenList {
        &self.frozen
    }

    /// The public suffix (eTLD) of a domain, as a number of trailing
    /// labels. `None` only in strict mode when nothing matches.
    pub fn suffix_len(&self, domain: &DomainName, opts: MatchOpts) -> Option<usize> {
        let reversed = domain.labels_reversed();
        self.disposition_reversed(&reversed, opts).map(|d| d.suffix_len.min(domain.label_count()))
    }

    /// The public suffix (eTLD) of a domain as text, e.g. `co.uk` for
    /// `www.example.co.uk`.
    pub fn public_suffix<'d>(&self, domain: &'d DomainName, opts: MatchOpts) -> Option<&'d str> {
        let n = self.suffix_len(domain, opts)?;
        domain.suffix_of_len(n)
    }

    /// True if the domain *is* a public suffix under this list.
    pub fn is_public_suffix(&self, domain: &DomainName, opts: MatchOpts) -> bool {
        self.suffix_len(domain, opts) == Some(domain.label_count())
    }

    /// The registrable domain (eTLD+1): the public suffix plus one label.
    /// `None` if the domain is itself a public suffix (nothing was
    /// registered under it), or in strict mode when nothing matches.
    pub fn registrable_domain(&self, domain: &DomainName, opts: MatchOpts) -> Option<DomainName> {
        let n = self.suffix_len(domain, opts)?;
        if n >= domain.label_count() {
            return None;
        }
        domain.suffix_of_len(n + 1).map(|s| DomainName::from_canonical_unchecked(s.to_string()))
    }

    /// The *site* a hostname belongs to: its registrable domain, or the
    /// hostname itself when it is a bare public suffix. This is the
    /// grouping key the paper uses to form privacy boundaries ("a site is
    /// sometimes known as eTLD+1").
    pub fn site(&self, domain: &DomainName, opts: MatchOpts) -> DomainName {
        self.registrable_domain(domain, opts).unwrap_or_else(|| domain.clone())
    }

    /// Are two hostnames in the same site (same privacy boundary)?
    pub fn same_site(&self, a: &DomainName, b: &DomainName, opts: MatchOpts) -> bool {
        self.site(a, opts) == self.site(b, opts)
    }

    /// The rule texts present in this list but not in `other` — the suffix
    /// additions a consumer of `other` is missing. Used by the
    /// harm-estimation pipeline.
    pub fn rules_missing_from(&self, other: &List) -> Vec<&Rule> {
        let other_texts: HashSet<String> = other.rules.iter().map(|r| r.as_text()).collect();
        self.rules.iter().filter(|r| !other_texts.contains(&r.as_text())).collect()
    }

    /// Count rules by section.
    pub fn section_counts(&self) -> (usize, usize) {
        let icann = self.rules.iter().filter(|r| r.section() == Section::Icann).count();
        (icann, self.rules.len() - icann)
    }

    /// Histogram of rule component counts (1, 2, 3, 4+), the Figure 2
    /// breakdown.
    pub fn component_histogram(&self) -> [usize; 4] {
        let mut hist = [0usize; 4];
        for rule in &self.rules {
            if rule.kind() == RuleKind::Exception {
                // The paper counts list entries; exceptions are entries too,
                // bucketed by their own component count.
            }
            let c = rule.component_count().min(4);
            hist[c - 1] += 1;
        }
        hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const TEXT: &str = r#"
// ===BEGIN ICANN DOMAINS===
com
uk
co.uk
jp
*.kobe.jp
!city.kobe.jp
ck
*.ck
!www.ck
// ===END ICANN DOMAINS===
// ===BEGIN PRIVATE DOMAINS===
github.io
blogspot.com
digitaloceanspaces.com
// ===END PRIVATE DOMAINS===
"#;

    fn list() -> List {
        List::parse(TEXT)
    }

    fn d(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    #[test]
    fn public_suffix_basics() {
        let l = list();
        let opts = MatchOpts::default();
        assert_eq!(l.public_suffix(&d("www.example.com"), opts), Some("com"));
        assert_eq!(l.public_suffix(&d("www.example.co.uk"), opts), Some("co.uk"));
        assert_eq!(l.public_suffix(&d("example.github.io"), opts), Some("github.io"));
    }

    #[test]
    fn registrable_domain_basics() {
        let l = list();
        let opts = MatchOpts::default();
        assert_eq!(
            l.registrable_domain(&d("www.example.com"), opts).unwrap().as_str(),
            "example.com"
        );
        assert_eq!(
            l.registrable_domain(&d("a.b.example.co.uk"), opts).unwrap().as_str(),
            "example.co.uk"
        );
        // A bare suffix has no registrable domain.
        assert_eq!(l.registrable_domain(&d("co.uk"), opts), None);
        assert_eq!(l.registrable_domain(&d("github.io"), opts), None);
    }

    #[test]
    fn wildcard_and_exception_cases() {
        let l = list();
        let opts = MatchOpts::default();
        // *.kobe.jp: every direct child of kobe.jp is a suffix …
        assert_eq!(
            l.registrable_domain(&d("x.foo.kobe.jp"), opts).unwrap().as_str(),
            "x.foo.kobe.jp"
        );
        // … except !city.kobe.jp.
        assert_eq!(
            l.registrable_domain(&d("x.city.kobe.jp"), opts).unwrap().as_str(),
            "city.kobe.jp"
        );
        // The canonical RFC example: www.ck is carved out of *.ck.
        assert_eq!(l.registrable_domain(&d("www.ck"), opts).unwrap().as_str(), "www.ck");
        assert_eq!(
            l.registrable_domain(&d("shop.other.ck"), opts).unwrap().as_str(),
            "shop.other.ck"
        );
    }

    #[test]
    fn unknown_tld_uses_implicit_rule() {
        let l = list();
        let opts = MatchOpts::default();
        assert_eq!(
            l.registrable_domain(&d("www.example.zz"), opts).unwrap().as_str(),
            "example.zz"
        );
        let strict = MatchOpts { implicit_wildcard: false, ..Default::default() };
        assert_eq!(l.registrable_domain(&d("www.example.zz"), strict), None);
    }

    #[test]
    fn is_public_suffix() {
        let l = list();
        let opts = MatchOpts::default();
        assert!(l.is_public_suffix(&d("com"), opts));
        assert!(l.is_public_suffix(&d("co.uk"), opts));
        assert!(l.is_public_suffix(&d("github.io"), opts));
        assert!(!l.is_public_suffix(&d("example.com"), opts));
        assert!(l.is_public_suffix(&d("anything.kobe.jp"), opts));
        assert!(!l.is_public_suffix(&d("city.kobe.jp"), opts));
    }

    #[test]
    fn same_site_semantics() {
        let l = list();
        let opts = MatchOpts::default();
        assert!(l.same_site(&d("www.google.com"), &d("maps.google.com"), opts));
        assert!(!l.same_site(&d("google.co.uk"), &d("yahoo.co.uk"), opts));
        assert!(!l.same_site(&d("alice.github.io"), &d("bob.github.io"), opts));
        // Without the private section, github.io collapses into one site —
        // exactly the paper's Figure 1 scenario.
        let icann_only = MatchOpts { include_private: false, ..Default::default() };
        assert!(l.same_site(&d("alice.github.io"), &d("bob.github.io"), icann_only));
    }

    #[test]
    fn site_of_bare_suffix_is_itself() {
        let l = list();
        let opts = MatchOpts::default();
        assert_eq!(l.site(&d("com"), opts).as_str(), "com");
        assert_eq!(l.site(&d("github.io"), opts).as_str(), "github.io");
    }

    #[test]
    fn rules_missing_from_detects_additions() {
        let old = List::parse("com\nnet\n");
        let new = List::parse("com\nnet\ngithub.io\n");
        let missing: Vec<String> =
            new.rules_missing_from(&old).iter().map(|r| r.as_text()).collect();
        assert_eq!(missing, ["github.io"]);
        assert!(old.rules_missing_from(&new).is_empty());
    }

    #[test]
    fn section_counts_and_histogram() {
        let l = list();
        let (icann, private) = l.section_counts();
        assert_eq!(icann, 9);
        assert_eq!(private, 3);
        let hist = l.component_histogram();
        assert_eq!(hist.iter().sum::<usize>(), l.len());
        assert_eq!(hist[0], 4); // com, uk, jp, ck
    }

    #[test]
    fn old_list_merges_sites_figure1_scenario() {
        // Figure 1 of the paper: PSL v1 lacks example.co.uk as a suffix;
        // v2 adds it, splitting good./bad. into separate sites.
        let v1 = List::parse("uk\nco.uk\n");
        let v2 = List::parse("uk\nco.uk\nexample.co.uk\n");
        let good = d("good.example.co.uk");
        let bad = d("bad.example.co.uk");
        let opts = MatchOpts::default();
        assert!(v1.same_site(&good, &bad, opts));
        assert!(!v2.same_site(&good, &bad, opts));
    }

    proptest! {
        #[test]
        fn site_is_idempotent(host in "[a-z]{1,6}(\\.[a-z]{1,6}){0,4}") {
            let l = list();
            let opts = MatchOpts::default();
            let dom = d(&host);
            let site = l.site(&dom, opts);
            prop_assert_eq!(l.site(&site, opts), site.clone());
        }

        #[test]
        fn registrable_domain_is_suffix_of_input(host in "[a-z]{1,6}(\\.[a-z]{1,6}){0,4}") {
            let l = list();
            let dom = d(&host);
            if let Some(reg) = l.registrable_domain(&dom, MatchOpts::default()) {
                prop_assert!(dom.is_subdomain_of(&reg));
            }
        }

        #[test]
        fn same_site_is_equivalence_like(
            a in "[a-z]{1,4}(\\.[a-z]{1,4}){0,3}",
            b in "[a-z]{1,4}(\\.[a-z]{1,4}){0,3}",
        ) {
            let l = list();
            let opts = MatchOpts::default();
            let (da, db) = (d(&a), d(&b));
            prop_assert!(l.same_site(&da, &da, opts));
            prop_assert_eq!(l.same_site(&da, &db, opts), l.same_site(&db, &da, opts));
        }
    }
}
