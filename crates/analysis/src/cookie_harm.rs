//! Extension experiment: supercookies accepted per list version.
//!
//! The paper's §2 describes the cookie harm qualitatively ("filtering
//! supercookies" is a canonical PSL use). This experiment quantifies it
//! over the corpus: for every public suffix of the *latest* list that
//! carries customer hostnames, an attacker on one customer attempts
//! `Set-Cookie: Domain=<suffix>`. A jar enforcing an old list accepts
//! the cookie whenever the suffix rule is missing; every other customer
//! hostname under the suffix can then read it. We count, per version,
//! the accepted attempts and the exposed hostnames.

use crate::walker::walk;
use psl_core::{DomainName, MatchOpts};
use psl_history::History;
use psl_webcorpus::WebCorpus;
use serde::Serialize;
use std::collections::HashMap;

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

/// The extension report.
#[derive(Debug, Clone, Serialize)]
pub struct CookieHarmReport {
    /// One row per version.
    pub rows: Vec<CookieHarmRow>,
    /// Total attempts derived from the corpus.
    pub attempts: usize,
}

/// Run the experiment.
pub fn run(history: &History, corpus: &WebCorpus, opts: MatchOpts) -> CookieHarmReport {
    let latest = history.latest_snapshot();

    // Group corpus hostnames by their latest-list public suffix; each
    // multi-customer suffix yields one attempt.
    let mut by_suffix: HashMap<&str, usize> = HashMap::new();
    for host in corpus.hosts() {
        let Some(suffix) = latest.public_suffix(host, opts) else {
            continue;
        };
        if suffix.len() == host.as_str().len() {
            continue;
        }
        *by_suffix.entry(suffix).or_insert(0) += 1;
    }
    // Each attempt targets a suffix; every customer under it but the
    // setter is exposed (the setter's identity does not change the
    // decision).
    let (targets, readers): (Vec<DomainName>, Vec<usize>) = by_suffix
        .into_iter()
        .filter_map(|(suffix, count)| {
            // Single-customer suffixes expose nobody else.
            if count < 2 {
                return None;
            }
            let suffix = DomainName::parse(suffix).ok()?;
            // Only target names that the *latest* list recognises as
            // public suffixes. (The public suffix of an exception-rule
            // host is the exception's parent — e.g. `zone.jp` above
            // `!city.zone.jp` — which is not itself a suffix, and a
            // current jar legitimately accepts cookies on it.)
            if !latest.is_public_suffix(&suffix, opts) {
                return None;
            }
            Some((suffix, count - 1))
        })
        .unzip();

    // An attempt succeeds at a version iff the target is NOT a public
    // suffix there: the setter is a strict subdomain (so the host-only
    // carve-out never applies) and domain-matching holds by construction.
    let suffix_lens = walk(history, &targets, opts).suffix_lens;
    let versions = history.version_count();
    let succeeds = |i: usize, len: Option<u32>| len != Some(targets[i].label_count() as u32);
    let accepted = suffix_lens.tally(versions, |i, len| u64::from(succeeds(i, len)));
    let exposed =
        suffix_lens.tally(versions, |i, len| if succeeds(i, len) { readers[i] as u64 } else { 0 });
    let rows = history
        .versions()
        .iter()
        .zip(accepted.iter().zip(&exposed))
        .map(|(v, (&accepted, &exposed))| CookieHarmRow {
            date: v.to_string(),
            accepted: accepted as usize,
            exposed_hostnames: exposed as usize,
        })
        .collect();

    CookieHarmReport { rows, attempts: targets.len() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psl_history::{generate, GeneratorConfig};
    use psl_webcorpus::{generate_corpus, CorpusConfig};

    #[test]
    fn supercookies_decline_to_zero_under_the_latest_list() {
        let h = generate(&GeneratorConfig::small(401));
        let c = generate_corpus(&h, &CorpusConfig::small(31));
        let report = run(&h, &c, MatchOpts::default());

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
        let h = generate(&GeneratorConfig::small(403));
        let c = generate_corpus(&h, &CorpusConfig::small(33));
        let report = run(&h, &c, MatchOpts::default());
        let third = report.rows.len() / 3;
        let avg = |rows: &[CookieHarmRow]| {
            rows.iter().map(|r| r.accepted as f64).sum::<f64>() / rows.len() as f64
        };
        assert!(avg(&report.rows[..third]) > avg(&report.rows[2 * third..]));
    }
}
