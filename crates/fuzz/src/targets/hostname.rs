//! Hostname target: canonicalisation invariants + the matcher differential
//! (owned, mapped and versioned walk against the linear oracle) on a
//! generated rule set.

use psl_conformance::{first_divergence, one_version, ProductionMatcher};
use psl_core::{
    punycode, Disposition, DomainName, List, MatchOpts, Rule, SnapshotView, VersionedList,
};

/// Builds the production matcher under test from a rule set. The fuzzer's
/// self-test swaps in a deliberately broken build to prove the target can
/// still find a planted bug; everything else uses [`TrieFactory`].
pub trait MatcherFactory {
    /// Construct the matcher for `rules`.
    fn build(&self, rules: &[Rule]) -> Box<dyn ProductionMatcher>;
}

/// The real production walk: a [`List`] over the rules.
pub struct TrieFactory;

impl MatcherFactory for TrieFactory {
    fn build(&self, rules: &[Rule]) -> Box<dyn ProductionMatcher> {
        Box::new(List::from_rules(rules.to_vec()))
    }
}

/// `first_divergence` is generic over `impl ProductionMatcher`; this wraps
/// the factory's boxed matcher back into something it accepts.
struct DynMatcher<'a>(&'a dyn ProductionMatcher);

impl ProductionMatcher for DynMatcher<'_> {
    fn disposition(&self, reversed: &[&str], opts: MatchOpts) -> Option<Disposition> {
        self.0.disposition(reversed, opts)
    }
}

/// One generated rule set with every arm built, queried for many
/// hostnames before the next set is generated.
pub struct ListUnderTest {
    /// The `.dat` text the rule set came from (kept for corpus entries).
    pub dat: String,
    /// The parsed rules.
    pub rules: Vec<Rule>,
    production: Box<dyn ProductionMatcher>,
    /// The parsed list, whose label ids query the mapped arm.
    list: List,
    /// The mapped arm: `list`'s snapshot bytes, walked in place.
    snapshot: Vec<u8>,
    /// The versioned arm: `list` as a one-version arena.
    versioned: VersionedList,
}

impl ListUnderTest {
    /// Parse `dat` and build the production, mapped and versioned arms.
    pub fn build(dat: &str, factory: &dyn MatcherFactory) -> ListUnderTest {
        let list = List::parse(dat);
        let rules = list.rules().to_vec();
        let production = factory.build(&rules);
        let snapshot = list.write_snapshot();
        let versioned = one_version(&list);
        ListUnderTest { dat: dat.to_string(), rules, production, list, snapshot, versioned }
    }
}

/// Check one hostname against `lut`. A host the parser *rejects* is fine
/// (rejection is an answer); a host it accepts must canonicalise
/// idempotently, round-trip through Unicode and punycode, and get the
/// linear oracle's disposition from both arms under every option set.
pub fn check_host(lut: &ListUnderTest, host: &str) -> Result<(), String> {
    let parsed = match DomainName::parse(host) {
        Ok(d) => d,
        Err(_) => return Ok(()),
    };

    // Idempotence: the canonical form must survive its own parser.
    match DomainName::parse(parsed.as_str()) {
        Err(e) => {
            return Err(format!(
                "canonical form rejected on re-parse: {host:?} -> {:?} -> {e}",
                parsed.as_str()
            ));
        }
        Ok(again) if again != parsed => {
            return Err(format!(
                "canonicalisation not idempotent: {host:?} -> {:?} -> {:?}",
                parsed.as_str(),
                again.as_str()
            ));
        }
        Ok(_) => {}
    }

    // Unicode display form must parse back to the same name.
    let unicode = parsed.to_unicode();
    match DomainName::parse(&unicode) {
        Err(e) => {
            return Err(format!(
                "to_unicode form rejected: {host:?} -> {:?} -> {unicode:?} -> {e}",
                parsed.as_str()
            ));
        }
        Ok(again) if again != parsed => {
            return Err(format!(
                "unicode round-trip changed the name: {:?} -> {unicode:?} -> {:?}",
                parsed.as_str(),
                again.as_str()
            ));
        }
        Ok(_) => {}
    }

    // Every accepted ACE label must be the canonical encoding of its own
    // decode (punycode is injective, so decode-then-encode is identity
    // exactly when the label was canonical to begin with).
    for label in parsed.as_str().split('.') {
        if let Some(rest) = label.strip_prefix(punycode::ACE_PREFIX) {
            match punycode::decode(rest) {
                Err(e) => {
                    return Err(format!("accepted ACE label fails to decode: {label:?}: {e}"));
                }
                Ok(decoded) => match punycode::encode(&decoded) {
                    Err(e) => {
                        return Err(format!(
                            "decode of {label:?} not re-encodable ({decoded:?}): {e}"
                        ));
                    }
                    Ok(reencoded) if reencoded != rest => {
                        return Err(format!(
                            "non-canonical ACE label accepted: {label:?} decodes to \
                             {decoded:?} which re-encodes to xn--{reencoded}"
                        ));
                    }
                    Ok(_) => {}
                },
            }
        }
    }

    // Matcher differential (production, mapped and versioned walk vs. the
    // linear oracle) under the full option matrix; `first_divergence`
    // minimizes the host itself.
    let mapped = SnapshotView::parse(&lut.snapshot)
        .map_err(|e| format!("a list's own snapshot was rejected: {e}"))?;
    let mut comparisons = 0usize;
    if let Some(div) = first_divergence(
        &DynMatcher(&*lut.production),
        &lut.rules,
        &lut.list,
        &mapped,
        lut.versioned.at(0),
        std::slice::from_ref(&parsed),
        &mut comparisons,
    ) {
        return Err(format!(
            "matcher divergence on {:?} (minimized {:?}): production={} linear={} mapped={} \
             versioned={}",
            div.host, div.minimized, div.production, div.linear, div.mapped, div.versioned
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use psl_core::{MatchKind, RuleKind, Section};

    fn lut(dat: &str) -> ListUnderTest {
        ListUnderTest::build(dat, &TrieFactory)
    }

    #[test]
    fn clean_hosts_pass_on_a_real_list() {
        let lut = lut("com\n*.uk\n!city.uk\n// ===BEGIN PRIVATE DOMAINS===\ngithub.io\n");
        for host in ["example.com", "a.b.co.uk", "city.uk", "alice.github.io", "xn--bcher-kva.com"]
        {
            check_host(&lut, host).unwrap();
        }
        // Rejected hosts are not failures.
        check_host(&lut, "bad..host").unwrap();
        check_host(&lut, "").unwrap();
    }

    /// A walk that rewrites every Exception answer must be caught by the
    /// differential the moment a `!rule` host is queried.
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

    struct ExceptionBlindFactory;

    impl MatcherFactory for ExceptionBlindFactory {
        fn build(&self, rules: &[Rule]) -> Box<dyn ProductionMatcher> {
            Box::new(ExceptionBlind(List::from_rules(rules.to_vec())))
        }
    }

    #[test]
    fn exception_blind_matcher_is_caught() {
        let lut = ListUnderTest::build("*.uk\n!city.uk\n", &ExceptionBlindFactory);
        let err = check_host(&lut, "www.city.uk").unwrap_err();
        assert!(err.contains("matcher divergence"), "{err}");
        check_host(&lut, "plain.uk").unwrap(); // non-exception path still clean
    }
}
