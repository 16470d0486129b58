//! Suffix rules: the individual entries of the Public Suffix List.
//!
//! A rule is a dotted sequence of labels, optionally prefixed by `!`
//! (an *exception* rule) or led by a `*` label (a *wildcard* rule). Rules
//! belong to one of two sections of the list: ICANN domains (true TLD
//! delegations) or private domains (operator-submitted suffixes such as
//! `github.io`).

use crate::error::{truncate_for_error, DomainErrorKind, Error, Result, RuleErrorKind};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Which section of the list a rule belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Section {
    /// `===BEGIN ICANN DOMAINS===`: delegations in the DNS root zone and
    /// registry-controlled second-level structure.
    Icann,
    /// `===BEGIN PRIVATE DOMAINS===`: suffixes submitted by private
    /// operators that offer sub-domain registration (e.g. hosting
    /// platforms).
    Private,
}

/// The kind of a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum RuleKind {
    /// A plain suffix rule, e.g. `co.uk`.
    Normal,
    /// A wildcard rule whose leftmost label is `*`, e.g. `*.ck`: every
    /// direct child of `ck` is a public suffix.
    Wildcard,
    /// An exception rule, e.g. `!www.ck`: carves a name out of a wildcard.
    Exception,
}

/// One entry of the Public Suffix List.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Rule {
    /// Labels left-to-right, in canonical (lowercase, punycode) form. For
    /// wildcard rules the leading `*` label is **not** stored here.
    labels: Vec<String>,
    kind: RuleKind,
    section: Section,
}

impl Rule {
    /// Parse a single rule line (already stripped of comments/whitespace).
    ///
    /// Accepts the syntax used by the real list: `suffix`, `*.suffix`,
    /// `!suffix`. The wildcard label is only supported in the leftmost
    /// position, which matches every rule ever published in the real list.
    pub fn parse(line: &str, section: Section) -> Result<Self> {
        let reject = |reason| Error::InvalidRule { line: truncate_for_error(line), reason };
        let trimmed = line.trim();
        if trimmed.is_empty() {
            return Err(reject(RuleErrorKind::Empty));
        }

        let (kind, rest) = if let Some(rest) = trimmed.strip_prefix('!') {
            (RuleKind::Exception, rest)
        } else if let Some(rest) = trimmed.strip_prefix("*.") {
            (RuleKind::Wildcard, rest)
        } else if trimmed == "*" {
            // A bare `*` rule would shadow the implicit default rule; the
            // real list has never contained one, and allowing it would make
            // matching ambiguous.
            return Err(reject(RuleErrorKind::BadWildcard));
        } else {
            (RuleKind::Normal, trimmed)
        };

        if rest.contains('*') {
            return Err(reject(RuleErrorKind::BadWildcard));
        }

        let mut labels = Vec::new();
        for raw in rest.split('.') {
            let canon = canonical_rule_label(raw).map_err(|_| reject(RuleErrorKind::BadDomain))?;
            labels.push(canon);
        }

        if kind == RuleKind::Exception && labels.len() < 2 {
            // An exception strips its leftmost label to form the public
            // suffix; a one-label exception would produce an empty suffix.
            return Err(reject(RuleErrorKind::BadException));
        }

        Ok(Rule { labels, kind, section })
    }

    /// Construct a normal rule from canonical labels. Intended for
    /// generators that build rules programmatically.
    pub fn normal(labels: Vec<String>, section: Section) -> Self {
        debug_assert!(!labels.is_empty());
        Rule { labels, kind: RuleKind::Normal, section }
    }

    /// Construct a wildcard rule (`*.<labels>`).
    pub fn wildcard(labels: Vec<String>, section: Section) -> Self {
        debug_assert!(!labels.is_empty());
        Rule { labels, kind: RuleKind::Wildcard, section }
    }

    /// Construct an exception rule (`!<labels>`).
    pub fn exception(labels: Vec<String>, section: Section) -> Self {
        debug_assert!(labels.len() >= 2);
        Rule { labels, kind: RuleKind::Exception, section }
    }

    /// Labels left-to-right (without any `*`).
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// The rule kind.
    pub fn kind(&self) -> RuleKind {
        self.kind
    }

    /// The section this rule belongs to.
    pub fn section(&self) -> Section {
        self.section
    }

    /// Number of labels the rule *matches* (wildcards match one extra
    /// label). This is the quantity compared when choosing the prevailing
    /// rule.
    pub fn match_len(&self) -> usize {
        match self.kind {
            RuleKind::Normal | RuleKind::Exception => self.labels.len(),
            RuleKind::Wildcard => self.labels.len() + 1,
        }
    }

    /// Number of labels in the *public suffix* this rule produces when it
    /// prevails: exceptions strip their leftmost label.
    pub fn suffix_len(&self) -> usize {
        match self.kind {
            RuleKind::Normal => self.labels.len(),
            RuleKind::Wildcard => self.labels.len() + 1,
            RuleKind::Exception => self.labels.len() - 1,
        }
    }

    /// Number of dot-separated components in the rule's own text (the
    /// quantity Figure 2 of the paper breaks down). `*.kobe.jp` has three
    /// components.
    pub fn component_count(&self) -> usize {
        match self.kind {
            RuleKind::Normal | RuleKind::Exception => self.labels.len(),
            RuleKind::Wildcard => self.labels.len() + 1,
        }
    }

    /// Does this rule match the given hostname labels (reversed: TLD
    /// first)? Used by the linear reference matcher and tests; lookups run
    /// the compiled walk ([`crate::frozen`]).
    pub fn matches_reversed(&self, reversed: &[&str]) -> bool {
        // `*.foo` requires the labels of foo plus at least one more.
        let wildcard = usize::from(self.kind == RuleKind::Wildcard);
        reversed.len() >= self.labels.len() + wildcard
            && self.labels.iter().rev().zip(reversed).all(|(own, label)| own == label)
    }

    /// The rule rendered as list text (`co.uk`, `*.ck`, `!www.ck`).
    pub fn as_text(&self) -> String {
        let body = self.labels.join(".");
        match self.kind {
            RuleKind::Normal => body,
            RuleKind::Wildcard => format!("*.{body}"),
            RuleKind::Exception => format!("!{body}"),
        }
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.as_text())
    }
}

/// Canonicalise one rule label: the same UTS 46 fold + punycode mapping as
/// hostname labels ([`crate::domain::map_label_to_ascii`]), so a name
/// canonicalises identically whether it arrives as a hostname or as a list
/// rule. Rule labels stay laxer only about hyphen placement (`--` vendor
/// prefixes and edge hyphens appear in real list history).
fn canonical_rule_label(raw: &str) -> Result<String> {
    let ascii = crate::domain::map_label_to_ascii(raw)
        .map_err(|reason| Error::InvalidDomain { input: raw.into(), reason })?;
    if ascii.len() > crate::domain::MAX_LABEL_LEN {
        return Err(Error::InvalidDomain {
            input: raw.into(),
            reason: DomainErrorKind::LabelTooLong,
        });
    }
    for b in ascii.bytes() {
        let ok = b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-' || b == b'_';
        if !ok {
            return Err(Error::InvalidDomain {
                input: raw.into(),
                reason: DomainErrorKind::ForbiddenCharacter,
            });
        }
    }
    Ok(ascii)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_normal_rules() {
        let r = Rule::parse("co.uk", Section::Icann).unwrap();
        assert_eq!(r.kind(), RuleKind::Normal);
        assert_eq!(r.labels(), ["co", "uk"]);
        assert_eq!(r.match_len(), 2);
        assert_eq!(r.suffix_len(), 2);
        assert_eq!(r.component_count(), 2);
        assert_eq!(r.as_text(), "co.uk");
    }

    #[test]
    fn parses_wildcard_rules() {
        let r = Rule::parse("*.ck", Section::Icann).unwrap();
        assert_eq!(r.kind(), RuleKind::Wildcard);
        assert_eq!(r.labels(), ["ck"]);
        assert_eq!(r.match_len(), 2);
        assert_eq!(r.suffix_len(), 2);
        assert_eq!(r.component_count(), 2);
        assert_eq!(r.as_text(), "*.ck");
    }

    #[test]
    fn parses_exception_rules() {
        let r = Rule::parse("!www.ck", Section::Icann).unwrap();
        assert_eq!(r.kind(), RuleKind::Exception);
        assert_eq!(r.labels(), ["www", "ck"]);
        assert_eq!(r.match_len(), 2);
        assert_eq!(r.suffix_len(), 1);
        assert_eq!(r.as_text(), "!www.ck");
    }

    #[test]
    fn rejects_bad_rules() {
        assert!(Rule::parse("", Section::Icann).is_err());
        assert!(Rule::parse("  ", Section::Icann).is_err());
        assert!(Rule::parse("*", Section::Icann).is_err());
        assert!(Rule::parse("foo.*.bar", Section::Icann).is_err());
        assert!(Rule::parse("*.*.bar", Section::Icann).is_err());
        assert!(Rule::parse("!ck", Section::Icann).is_err());
        assert!(Rule::parse("a..b", Section::Icann).is_err());
        assert!(Rule::parse("ex ample", Section::Icann).is_err());
    }

    #[test]
    fn unicode_rules_are_punycoded() {
        let r = Rule::parse("гос.рф", Section::Icann).unwrap();
        assert!(r.as_text().starts_with("xn--"));
        assert_eq!(r.labels().len(), 2);
    }

    #[test]
    fn matches_reversed_semantics() {
        let normal = Rule::parse("co.uk", Section::Icann).unwrap();
        assert!(normal.matches_reversed(&["uk", "co"]));
        assert!(normal.matches_reversed(&["uk", "co", "example"]));
        assert!(!normal.matches_reversed(&["uk"]));
        assert!(!normal.matches_reversed(&["uk", "ac"]));

        let wild = Rule::parse("*.ck", Section::Icann).unwrap();
        assert!(!wild.matches_reversed(&["ck"])); // needs one more label
        assert!(wild.matches_reversed(&["ck", "www"]));
        assert!(wild.matches_reversed(&["ck", "www", "shop"]));

        let exc = Rule::parse("!www.ck", Section::Icann).unwrap();
        assert!(exc.matches_reversed(&["ck", "www"]));
        assert!(!exc.matches_reversed(&["ck", "web"]));
    }

    #[test]
    fn roundtrip_text() {
        for text in ["com", "co.uk", "*.kobe.jp", "!city.kobe.jp", "github.io"] {
            let r = Rule::parse(text, Section::Private).unwrap();
            assert_eq!(r.as_text(), text);
            let r2 = Rule::parse(&r.as_text(), Section::Private).unwrap();
            assert_eq!(r, r2);
        }
    }

    proptest! {
        #[test]
        fn parse_never_panics(s in "\\PC{0,60}") {
            let _ = Rule::parse(&s, Section::Icann);
        }

        #[test]
        fn parse_text_roundtrip(s in "[a-z]{1,6}(\\.[a-z]{1,6}){0,3}") {
            let r = Rule::parse(&s, Section::Icann).unwrap();
            let r2 = Rule::parse(&r.as_text(), Section::Icann).unwrap();
            prop_assert_eq!(r, r2);
        }

        #[test]
        fn suffix_len_vs_match_len(s in "(!|\\*\\.)?[a-z]{1,5}\\.[a-z]{1,5}") {
            if let Ok(r) = Rule::parse(&s, Section::Icann) {
                match r.kind() {
                    RuleKind::Exception => prop_assert_eq!(r.suffix_len() + 1, r.match_len()),
                    _ => prop_assert_eq!(r.suffix_len(), r.match_len()),
                }
            }
        }
    }
}
