//! A DBOUND prototype: DNS-advertised administrative boundaries.
//!
//! The paper's conclusion (and its reference \[21\],
//! draft-sullivan-dbound-problem-statement) motivates replacing the
//! client-shipped list with boundaries advertised *in the DNS itself*, so
//! they can never go stale on the client. This module implements a
//! concrete realisation: each public suffix publishes a TXT assertion at
//! `_bound.<suffix>`, and clients derive the registrable domain by
//! walking the name right-to-left, querying boundary assertions instead
//! of consulting a local list.
//!
//! The harm comparison (see `psl-analysis::dbound_exp`) is the point:
//! a client with a *years-old PSL* misgroups hostnames, while a DBOUND
//! client querying the *current* zones does not — its accuracy depends on
//! publication coverage, not client freshness.

use crate::record::RecordType;
use crate::zone::ZoneStore;
use psl_core::{DomainName, List, Rule, RuleKind};
use serde::{Deserialize, Serialize};

/// The TXT payload marking a boundary node.
pub const BOUND_TAG: &str = "v=DBOUND1; bound=1";
/// The TXT payload marking a *wildcard* boundary: every direct child of
/// this node is a boundary.
pub const BOUND_WILDCARD_TAG: &str = "v=DBOUND1; bound=children";
/// The TXT payload cancelling an inherited wildcard boundary (the
/// analogue of a PSL exception rule).
pub const BOUND_EXCEPTION_TAG: &str = "v=DBOUND1; bound=0";

/// What a `_bound` query asserted about a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Assertion {
    /// The node is a public suffix.
    Boundary,
    /// Every direct child of the node is a public suffix.
    ChildrenBoundaries,
    /// The node is explicitly *not* a public suffix (exception).
    NotBoundary,
}

/// Parse a `_bound` TXT payload.
pub fn parse_assertion(txt: &str) -> Option<Assertion> {
    match txt.trim() {
        t if t == BOUND_TAG => Some(Assertion::Boundary),
        t if t == BOUND_WILDCARD_TAG => Some(Assertion::ChildrenBoundaries),
        t if t == BOUND_EXCEPTION_TAG => Some(Assertion::NotBoundary),
        _ => None,
    }
}

/// Publish boundary assertions for every rule of `list` into `zones`.
/// Returns the number of records published.
pub fn publish_list(zones: &mut ZoneStore, list: &List) -> usize {
    let mut published = 0;
    for rule in list.rules() {
        if publish_rule(zones, rule) {
            published += 1;
        }
    }
    published
}

/// Publish one rule's assertion. Returns false if the owner name could
/// not be formed (never happens for canonical rules).
pub fn publish_rule(zones: &mut ZoneStore, rule: &Rule) -> bool {
    let owner = format!("_bound.{}", rule.labels().join("."));
    let Ok(name) = DomainName::parse(&owner) else {
        return false;
    };
    let tag = match rule.kind() {
        RuleKind::Normal => BOUND_TAG,
        RuleKind::Wildcard => BOUND_WILDCARD_TAG,
        RuleKind::Exception => BOUND_EXCEPTION_TAG,
    };
    zones.insert_txt(&name, 3600, tag);
    true
}

/// The combined assertions published at one node (a node may carry
/// several — e.g. a registry that is itself a suffix *and* delegates all
/// children publishes both `bound=1` and `bound=children`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeAssertions {
    /// `bound=1` present.
    pub boundary: bool,
    /// `bound=children` present.
    pub children: bool,
    /// `bound=0` present.
    pub exception: bool,
}

/// Query the boundary assertions for a node (`_bound.<node>`).
pub fn query_assertions(zones: &ZoneStore, node: &str) -> NodeAssertions {
    let Ok(name) = DomainName::parse(&format!("_bound.{node}")) else {
        return NodeAssertions::default();
    };
    let mut out = NodeAssertions::default();
    for record in zones.query(&name, RecordType::Txt).records() {
        match record.data.as_txt().and_then(parse_assertion) {
            Some(Assertion::Boundary) => out.boundary = true,
            Some(Assertion::ChildrenBoundaries) => out.children = true,
            Some(Assertion::NotBoundary) => out.exception = true,
            None => {}
        }
    }
    out
}

/// Statistics for one DBOUND site derivation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LookupCost {
    /// DNS queries issued.
    pub queries: u32,
}

/// Derive the *site* (registrable domain, or the host itself for bare
/// suffixes) of `host` by querying boundary assertions, never consulting
/// a local list.
///
/// Walk: starting at the TLD, extend leftwards. Track the deepest node
/// asserted to be a boundary (directly, or via a parent's
/// `ChildrenBoundaries` not cancelled by `NotBoundary`). The site is the
/// boundary plus one label. Nodes with no assertion inherit nothing —
/// like the PSL's implicit `*` rule, an unasserted TLD is treated as a
/// boundary.
pub fn site_of(zones: &ZoneStore, host: &DomainName) -> (DomainName, LookupCost) {
    let labels: Vec<&str> = host.labels().collect();
    let n = labels.len();
    let mut queries = 0u32;
    // suffix_len = labels in the deepest boundary found (>= 1 via the
    // implicit rule).
    let mut suffix_len = 1usize;
    let mut parent_asserts_children = false;
    for depth in 1..=n {
        let node = labels[n - depth..].join(".");
        queries += 1;
        let a = query_assertions(zones, &node);
        if a.exception {
            // Exception: this node is NOT a boundary; its parent is.
            suffix_len = depth.saturating_sub(1).max(1);
            parent_asserts_children = false;
            continue;
        }
        if a.boundary || parent_asserts_children {
            suffix_len = depth;
        }
        parent_asserts_children = a.children;
    }
    let site_len = (suffix_len + 1).min(n);
    let site = host
        .suffix_of_len(site_len)
        .map(|s| DomainName::parse(s).expect("suffix of valid domain is valid"))
        .unwrap_or_else(|| host.clone());
    (site, LookupCost { queries })
}

#[cfg(test)]
mod tests {
    use super::*;
    use psl_core::{List, MatchOpts};

    fn d(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    fn published() -> (ZoneStore, List) {
        let list = List::parse(
            "com\nuk\nco.uk\nck\n*.ck\n!www.ck\n// ===BEGIN PRIVATE DOMAINS===\ngithub.io\n",
        );
        let mut zones = ZoneStore::new();
        let n = publish_list(&mut zones, &list);
        assert_eq!(n, list.len());
        (zones, list)
    }

    #[test]
    fn assertions_roundtrip() {
        assert_eq!(parse_assertion(BOUND_TAG), Some(Assertion::Boundary));
        assert_eq!(parse_assertion(BOUND_WILDCARD_TAG), Some(Assertion::ChildrenBoundaries));
        assert_eq!(parse_assertion(BOUND_EXCEPTION_TAG), Some(Assertion::NotBoundary));
        assert_eq!(parse_assertion("v=DBOUND2; bound=1"), None);
        assert_eq!(parse_assertion("junk"), None);
    }

    #[test]
    fn dbound_agrees_with_psl_on_normal_rules() {
        let (zones, list) = published();
        let opts = MatchOpts::default();
        for host in [
            "www.example.com",
            "a.b.example.co.uk",
            "alice.github.io",
            "deep.alice.github.io",
            "example.com",
        ] {
            let h = d(host);
            let (site, _) = site_of(&zones, &h);
            assert_eq!(site, list.site(&h, opts), "host {host}");
        }
    }

    #[test]
    fn dbound_handles_wildcards_and_exceptions() {
        let (zones, list) = published();
        let opts = MatchOpts::default();
        for host in ["shop.other.ck", "x.shop.other.ck", "www.ck", "sub.www.ck"] {
            let h = d(host);
            let (site, _) = site_of(&zones, &h);
            assert_eq!(site, list.site(&h, opts), "host {host}");
        }
    }

    #[test]
    fn unpublished_tld_uses_implicit_boundary() {
        let (zones, _) = published();
        let (site, _) = site_of(&zones, &d("www.example.zz"));
        assert_eq!(site, d("example.zz"));
    }

    #[test]
    fn lookup_cost_is_linear_in_labels() {
        let (zones, _) = published();
        let (_, cost) = site_of(&zones, &d("a.b.c.example.co.uk"));
        assert_eq!(cost.queries, 6);
    }

    #[test]
    fn stale_client_list_vs_fresh_dbound_zone() {
        // The headline property: a client with an old list misgroups
        // platform customers; a DBOUND client querying the current zone
        // does not.
        let current = List::parse("com\nio\n// ===BEGIN PRIVATE DOMAINS===\ngithub.io\n");
        let stale = List::parse("com\nio\n");
        let mut zones = ZoneStore::new();
        publish_list(&mut zones, &current);
        let opts = MatchOpts::default();
        let alice = d("alice.github.io");
        let bob = d("bob.github.io");
        // Stale list: same site (wrong).
        assert_eq!(stale.site(&alice, opts), stale.site(&bob, opts));
        // DBOUND against the live zone: separate sites (right).
        let (sa, _) = site_of(&zones, &alice);
        let (sb, _) = site_of(&zones, &bob);
        assert_ne!(sa, sb);
    }
}
