//! Extension experiments: supercookies accepted and wildcard certificates
//! mis-issued per list version.
//!
//! Two uses of the list guard the same boundary. The paper's §2 names
//! "filtering supercookies" as a canonical one, and §4 names SSL wildcard
//! issuance. This module quantifies both over the corpus. Every public
//! suffix of the *latest* list that carries two or more customer
//! hostnames yields one attempt of each kind:
//!
//! - an attacker on one customer sends `Set-Cookie: Domain=<suffix>`. A
//!   jar enforcing an old list accepts it whenever the suffix rule is
//!   missing, and every other customer hostname under the suffix can then
//!   read it;
//! - a subscriber requests `*.<suffix>`. A CA pinned to an old list issues
//!   it whenever the suffix rule is missing, and the certificate covers
//!   every customer hostname under the suffix.
//!
//! Both attempts succeed at a version iff the suffix is not a public
//! suffix there, so one walk over the suffixes answers both.

use crate::walker::walk;
use psl_core::{DomainName, MatchOpts};
use psl_history::History;
use serde::Serialize;

/// Per-version supercookie results.
#[derive(Debug, Clone, Serialize)]
pub struct CookieHarmRow {
    /// Version date (ISO).
    pub date: String,
    /// Supercookie set attempts accepted by a jar pinned to this version.
    pub accepted: usize,
    /// Hostnames exposed to accepted supercookies.
    pub exposed_hostnames: usize,
}

/// The supercookie report.
#[derive(Debug, Clone, Serialize)]
pub struct CookieHarmReport {
    /// One row per version.
    pub rows: Vec<CookieHarmRow>,
    /// Total attempts derived from the corpus.
    pub attempts: usize,
}

/// Per-version mis-issuance results.
#[derive(Debug, Clone, Serialize)]
pub struct CertHarmRow {
    /// Version date (ISO).
    pub date: String,
    /// Wildcard requests a CA on this version would wrongly issue.
    pub misissued: usize,
    /// Hostnames covered by those wildcards.
    pub covered_hostnames: usize,
}

/// The wildcard-certificate report.
#[derive(Debug, Clone, Serialize)]
pub struct CertHarmReport {
    /// One row per version.
    pub rows: Vec<CertHarmRow>,
    /// Wildcard requests derived from the corpus.
    pub requests: usize,
}

/// Run both experiments over `census`, the corpus hosts' latest public
/// suffixes with their host counts ([`crate::walker::census`] of a walk
/// under `opts`).
pub fn run(
    history: &History,
    census: &[(&str, usize)],
    opts: MatchOpts,
) -> (CookieHarmReport, CertHarmReport) {
    // Single-customer suffixes expose nobody else.
    let (suffixes, customers): (Vec<DomainName>, Vec<usize>) = census
        .iter()
        .filter(|&&(_, customers)| customers >= 2)
        .filter_map(|&(suffix, customers)| Some((DomainName::parse(suffix).ok()?, customers)))
        .unzip();
    let suffix_lens = walk(history, &suffixes, opts, 1).suffix_lens;
    let public = |i: usize, len: Option<u32>| len == Some(suffixes[i].label_count() as u32);
    // Only suffixes the *latest* list recognises as public suffixes are
    // attempted. (The public suffix of an exception-rule host is the
    // exception's parent — e.g. `zone.jp` above `!city.zone.jp` — which is
    // not itself a suffix: a current jar legitimately accepts cookies on
    // it, and a current CA issues wildcards for it.)
    let attempted: Vec<bool> =
        (0..suffixes.len()).map(|i| public(i, suffix_lens.latest(i))).collect();
    // The cookie's setter is a strict subdomain, so the host-only
    // carve-out never applies, and domain-matching holds by construction.
    let succeeds = |i: usize, len: Option<u32>| attempted[i] && !public(i, len);
    let versions = history.version_count();
    let accepted = suffix_lens.tally(versions, |i, len| u64::from(succeeds(i, len)));
    // Every customer under the suffix but the setter reads the cookie.
    let readers = |i: usize, len| if succeeds(i, len) { customers[i] as u64 - 1 } else { 0 };
    let exposed = suffix_lens.tally(versions, readers);
    let attempts = attempted.iter().filter(|&&a| a).count();

    let mut cookies = CookieHarmReport { rows: Vec::with_capacity(versions), attempts };
    let mut certs = CertHarmReport { rows: Vec::with_capacity(versions), requests: attempts };
    for ((date, &accepted), &exposed) in history.versions().iter().zip(&accepted).zip(&exposed) {
        let (accepted, exposed) = (accepted as usize, exposed as usize);
        cookies.rows.push(CookieHarmRow {
            date: date.to_string(),
            accepted,
            exposed_hostnames: exposed,
        });
        // A wildcard covers the setter as well as the readers.
        certs.rows.push(CertHarmRow {
            date: date.to_string(),
            misissued: accepted,
            covered_hostnames: exposed + accepted,
        });
    }
    (cookies, certs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::walker::census;
    use psl_core::{Date, Rule, Section};
    use psl_history::{generate, GeneratorConfig, RuleSpan};
    use psl_webcorpus::{generate_corpus, CorpusConfig};
    use std::collections::HashMap;

    /// Both reports over a generated world's corpus.
    fn reports(
        history_seed: u64,
        corpus_seed: u64,
        opts: MatchOpts,
    ) -> (History, CookieHarmReport, CertHarmReport) {
        let h = generate(&GeneratorConfig::small(history_seed));
        let hosts = generate_corpus(&h, &CorpusConfig::small(corpus_seed)).hosts().to_vec();
        let (cookies, certs) = run(&h, &census(&walk(&h, &hosts, opts, 1), &hosts), opts);
        (h, cookies, certs)
    }

    #[test]
    fn supercookies_decline_to_zero_under_the_latest_list() {
        let (h, report, _) = reports(401, 31, MatchOpts::default());

        assert_eq!(report.rows.len(), h.version_count());
        assert!(report.attempts > 10);
        let first = &report.rows[0];
        let last = report.rows.last().unwrap();
        // Under the latest list every targeted suffix *is* a suffix, so
        // every attempt is rejected.
        assert_eq!(last.accepted, 0, "latest list must reject all attempts");
        assert_eq!(last.exposed_hostnames, 0);
        // Under the first list, platform suffixes are missing and the
        // attempts succeed.
        assert!(first.accepted > 0);
        assert!(first.exposed_hostnames > first.accepted);
    }

    #[test]
    fn acceptance_is_weakly_decreasing_in_trend() {
        let (_, report, _) = reports(403, 33, MatchOpts::default());
        let third = report.rows.len() / 3;
        let avg = |rows: &[CookieHarmRow]| {
            rows.iter().map(|r| r.accepted as f64).sum::<f64>() / rows.len() as f64
        };
        assert!(avg(&report.rows[..third]) > avg(&report.rows[2 * third..]));
    }

    #[test]
    fn misissuance_declines_to_zero() {
        let (h, _, report) = reports(421, 51, MatchOpts::default());
        assert_eq!(report.rows.len(), h.version_count());
        assert!(report.requests > 10);
        let first = &report.rows[0];
        let last = report.rows.last().unwrap();
        assert_eq!(last.misissued, 0, "a current CA refuses every request");
        assert!(first.misissued > 0, "an ancient CA issues many");
        assert!(first.covered_hostnames > first.misissued);
    }

    #[test]
    fn cert_and_cookie_harm_track_each_other() {
        // Both experiments count "suffixes missing at version v", so the
        // accepted/misissued series must be identical in shape; a wildcard
        // covers every exposed reader and the setter.
        let (_, cookies, certs) = reports(423, 53, MatchOpts::default());
        let a: Vec<f64> = certs.rows.iter().map(|r| r.misissued as f64).collect();
        let b: Vec<f64> = cookies.rows.iter().map(|r| r.accepted as f64).collect();
        let rho = psl_stats::pearson(&a, &b).unwrap();
        assert!(rho > 0.99, "pearson {rho}");
        assert_eq!(certs.requests, cookies.attempts);
        for (cert, cookie) in certs.rows.iter().zip(&cookies.rows) {
            assert_eq!(cert.misissued, cookie.accepted, "{}", cert.date);
            assert_eq!(cert.covered_hostnames, cookie.exposed_hostnames + cookie.accepted);
        }
    }

    /// Both reports equal the per-version oracle: the hosts grouped by
    /// their latest-list public suffix, the multi-customer suffixes the
    /// latest list recognises attempted, and each attempt checked against
    /// every version's full snapshot.
    #[test]
    fn harms_equal_the_per_version_snapshot_oracle() {
        let h = generate(&GeneratorConfig::small(425));
        let hosts = generate_corpus(&h, &CorpusConfig::small(55)).hosts().to_vec();
        let lists: Vec<_> = h.versions().iter().map(|&v| h.snapshot_at(v)).collect();
        let latest = lists.last().unwrap();
        for opts in [
            MatchOpts::default(),
            MatchOpts { include_private: false, implicit_wildcard: true },
            MatchOpts { include_private: true, implicit_wildcard: false },
        ] {
            let mut by_suffix: HashMap<&str, usize> = HashMap::new();
            for host in &hosts {
                let Some(suffix) = latest.public_suffix(host, opts) else {
                    continue;
                };
                if suffix.len() < host.as_str().len() {
                    *by_suffix.entry(suffix).or_default() += 1;
                }
            }
            let targets: Vec<(DomainName, usize)> = by_suffix
                .into_iter()
                .filter(|&(_, n)| n >= 2)
                .map(|(suffix, n)| (DomainName::parse(suffix).unwrap(), n))
                .filter(|(suffix, _)| latest.is_public_suffix(suffix, opts))
                .collect();

            let (cookies, certs) = run(&h, &census(&walk(&h, &hosts, opts, 1), &hosts), opts);
            assert_eq!((cookies.attempts, certs.requests), (targets.len(), targets.len()));
            for (v, list) in lists.iter().enumerate() {
                let missing = targets.iter().filter(|(s, _)| !list.is_public_suffix(s, opts));
                let (accepted, covered) = missing.fold((0, 0), |(a, c), (_, n)| (a + 1, c + n));
                let (cookie, cert) = (&cookies.rows[v], &certs.rows[v]);
                assert_eq!(cookie.date, h.versions()[v].to_string());
                assert_eq!(
                    (cookie.accepted, cookie.exposed_hostnames),
                    (accepted, covered - accepted),
                    "{} under {opts:?}",
                    cookie.date
                );
                assert_eq!((cert.misissued, cert.covered_hostnames), (accepted, covered));
            }
        }
    }

    /// A suffix the latest list does not recognise is no attempt, however
    /// many hosts sit under it, and neither is a single-customer suffix.
    #[test]
    fn only_recognised_multi_customer_suffixes_are_attempted() {
        let versions: Vec<Date> = ["2007-03-22", "2012-01-01", "2016-01-01"]
            .iter()
            .map(|v| Date::parse(v).unwrap())
            .collect();
        let span = |text: &str, section: Section, added: usize| RuleSpan {
            rule: Rule::parse(text, section).unwrap(),
            added: versions[added],
            removed: None,
        };
        let h = History::new(
            vec![
                span("com", Section::Icann, 0),
                span("io", Section::Icann, 0),
                span("jp", Section::Icann, 0),
                // The hosts under the exception have `zone.jp`, never a
                // public suffix, as their public suffix.
                span("*.zone.jp", Section::Icann, 0),
                span("!city.zone.jp", Section::Icann, 0),
                span("myshop.com", Section::Private, 1),
                span("myapp.io", Section::Private, 2),
            ],
            versions.clone(),
        );
        let hosts: Vec<DomainName> = [
            "alice.myshop.com",
            "bob.myshop.com",
            "carol.myshop.com",
            "city.zone.jp",
            "www.city.zone.jp",
            "mail.city.zone.jp",
            "solo.myapp.io",
        ]
        .iter()
        .map(|t| DomainName::parse(t).unwrap())
        .collect();
        let opts = MatchOpts::default();
        let census = census(&walk(&h, &hosts, opts, 1), &hosts);
        let counts: HashMap<&str, usize> = census.iter().copied().collect();
        assert_eq!(counts["zone.jp"], 3);
        assert_eq!(counts["myapp.io"], 1);

        let (cookies, certs) = run(&h, &census, opts);
        assert_eq!((cookies.attempts, certs.requests), (1, 1));
        let accepted: Vec<(usize, usize)> =
            cookies.rows.iter().map(|r| (r.accepted, r.exposed_hostnames)).collect();
        assert_eq!(accepted, [(1, 2), (0, 0), (0, 0)]);
        let misissued: Vec<(usize, usize)> =
            certs.rows.iter().map(|r| (r.misissued, r.covered_hostnames)).collect();
        assert_eq!(misissued, [(1, 3), (0, 0), (0, 0)]);
    }
}
