//! The lookup path shared by the server, the load generator's checker, and
//! `pslharm suffix` (including its stdin batch mode).
//!
//! A lookup is split into two halves so the per-worker LRU cache can sit
//! between them: [`suffix_code`] (or [`suffix_code_ids`], over the host's
//! interned label ids) runs the arena walk and compresses the
//! disposition into a `u32`, and [`decode`] turns a code back into the
//! suffix / registrable-domain / site strings for a concrete host. The code
//! depends only on the host's labels and the list, so it is exactly the
//! value worth caching across repeated hostnames.

use psl_core::{DomainName, List, MatchOpts};

/// Encoded disposition: the public-suffix label count, or [`NO_MATCH`]
/// when strict matching found no rule.
pub const NO_MATCH: u32 = u32::MAX;

/// Compute the cacheable suffix code for `host` under `list`.
pub fn suffix_code(list: &List, host: &DomainName, opts: MatchOpts) -> u32 {
    match list.suffix_len(host, opts) {
        Some(n) => n as u32,
        None => NO_MATCH,
    }
}

/// The suffix code for reversed label ids from [`List::reversed_ids_str`]:
/// the engine computes the id slice once as its cache key and resolves a
/// miss here with no further allocation.
pub fn suffix_code_ids(list: &List, reversed_ids: &[u32], opts: MatchOpts) -> u32 {
    match list.disposition_ids(reversed_ids, opts) {
        Some(d) => d.suffix_len.min(reversed_ids.len()) as u32,
        None => NO_MATCH,
    }
}

/// A fully resolved lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resolved {
    /// The public suffix (eTLD), `None` when strict matching failed.
    pub suffix: Option<String>,
    /// The registrable domain (eTLD+1), `None` for bare public suffixes.
    pub registrable: Option<String>,
    /// The site: the registrable domain, or the host itself.
    pub site: String,
}

/// Expand a [`suffix_code`] for `host` into the three derived strings.
pub fn decode(host: &DomainName, code: u32) -> Resolved {
    decode_str(host.as_str(), code)
}

/// As [`decode`], but over a canonical dotted name that never went through
/// [`DomainName::parse`] — the engine's canonical-host fast path resolves
/// straight from the wire string, so decoding must too.
pub fn decode_str(host: &str, code: u32) -> Resolved {
    if code == NO_MATCH {
        return Resolved { suffix: None, registrable: None, site: host.to_string() };
    }
    let total = host.bytes().filter(|&b| b == b'.').count() + 1;
    let n = (code as usize).min(total);
    let suffix = suffix_of_len_str(host, n).map(str::to_string);
    let registrable =
        if n < total { suffix_of_len_str(host, n + 1).map(str::to_string) } else { None };
    let site = registrable.clone().unwrap_or_else(|| host.to_string());
    Resolved { suffix, registrable, site }
}

/// The name formed by the last `n` labels of a canonical dotted name
/// (mirrors [`DomainName::suffix_of_len`]).
fn suffix_of_len_str(host: &str, n: usize) -> Option<&str> {
    if n == 0 {
        return None;
    }
    let bytes = host.as_bytes();
    let mut idx = bytes.len();
    let mut remaining = n;
    loop {
        match bytes[..idx].iter().rposition(|&b| b == b'.') {
            Some(dot) if remaining == 1 => return Some(&host[dot + 1..]),
            Some(dot) => {
                idx = dot;
                remaining -= 1;
            }
            None if remaining == 1 => return Some(host),
            None => return None,
        }
    }
}

/// One-shot lookup (arena walk + decode), for callers without a cache.
pub fn resolve(list: &List, host: &DomainName, opts: MatchOpts) -> Resolved {
    decode(host, suffix_code(list, host, opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn list() -> List {
        List::parse("com\nuk\nco.uk\n// ===BEGIN PRIVATE DOMAINS===\ngithub.io\n")
    }

    fn d(s: &str) -> DomainName {
        DomainName::parse(s).unwrap()
    }

    #[test]
    fn resolve_matches_list_methods() {
        let l = list();
        let opts = MatchOpts::default();
        for host in ["www.example.co.uk", "example.com", "co.uk", "alice.github.io", "x.zz"] {
            let dom = d(host);
            let r = resolve(&l, &dom, opts);
            assert_eq!(r.suffix.as_deref(), l.public_suffix(&dom, opts), "{host}");
            assert_eq!(
                r.registrable.as_deref(),
                l.registrable_domain(&dom, opts).as_ref().map(|x| x.as_str()),
                "{host}"
            );
            assert_eq!(r.site, l.site(&dom, opts).as_str(), "{host}");
        }
    }

    #[test]
    fn bare_suffix_site_is_itself() {
        let r = resolve(&list(), &d("github.io"), MatchOpts::default());
        assert_eq!(r.suffix.as_deref(), Some("github.io"));
        assert_eq!(r.registrable, None);
        assert_eq!(r.site, "github.io");
    }

    #[test]
    fn strict_no_match_encodes_and_decodes() {
        let strict = MatchOpts { implicit_wildcard: false, ..Default::default() };
        let host = d("foo.nosuchtld");
        let code = suffix_code(&list(), &host, strict);
        assert_eq!(code, NO_MATCH);
        let r = decode(&host, code);
        assert_eq!(r.suffix, None);
        assert_eq!(r.registrable, None);
        assert_eq!(r.site, "foo.nosuchtld");
    }

    #[test]
    fn ids_path_codes_agree_with_string_path() {
        let l = list();
        let mut ids = Vec::new();
        for host in ["www.example.co.uk", "co.uk", "alice.github.io", "x.zz", "foo.nosuchtld"] {
            let dom = d(host);
            for opts in [
                MatchOpts::default(),
                MatchOpts { include_private: false, implicit_wildcard: true },
                MatchOpts { include_private: true, implicit_wildcard: false },
            ] {
                l.reversed_ids_str(dom.as_str(), &mut ids);
                let want = suffix_code(&l, &dom, opts);
                assert_eq!(suffix_code_ids(&l, &ids, opts), want, "{host} {opts:?}");
            }
        }
    }

    #[test]
    fn decode_str_agrees_with_decode_for_every_code() {
        for host in ["www.example.co.uk", "co.uk", "alice.github.io", "x.zz", "single"] {
            let dom = d(host);
            let max_code = dom.label_count() as u32 + 1;
            for code in (0..=max_code).chain([NO_MATCH]) {
                assert_eq!(decode_str(host, code), decode(&dom, code), "{host} code={code}");
            }
        }
    }

    #[test]
    fn code_roundtrip_equals_direct_resolution() {
        let l = list();
        let opts = MatchOpts::default();
        let host = d("deep.a.b.example.co.uk");
        let code = suffix_code(&l, &host, opts);
        assert_eq!(decode(&host, code), resolve(&l, &host, opts));
    }
}
