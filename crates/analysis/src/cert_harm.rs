//! Extension experiment: wildcard certificates mis-issued per list
//! version.
//!
//! §4's "SSL wildcard issuance" use case, quantified: for each public
//! suffix of the latest list that carries customer hostnames, a subscriber
//! requests `*.<suffix>`. A CA pinned to an old list issues it whenever
//! the suffix rule is missing; the certificate then covers every customer
//! hostname under the suffix. We count, per version, the mis-issued
//! wildcards and the hostnames they cover.

use crate::walker::walk;
use psl_certs::CertName;
use psl_core::{DomainName, MatchOpts};
use psl_history::History;
use psl_webcorpus::WebCorpus;
use serde::Serialize;
use std::collections::HashMap;

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

/// The extension report.
#[derive(Debug, Clone, Serialize)]
pub struct CertHarmReport {
    /// One row per version.
    pub rows: Vec<CertHarmRow>,
    /// Wildcard requests derived from the corpus.
    pub requests: usize,
}

/// Run the experiment.
pub fn run(history: &History, corpus: &WebCorpus, opts: MatchOpts) -> CertHarmReport {
    let latest = history.latest_snapshot();

    // One wildcard request per latest-list public suffix with customers.
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
    let (bases, customers): (Vec<DomainName>, Vec<usize>) = by_suffix
        .into_iter()
        .filter_map(|(suffix, customers)| {
            if customers < 2 {
                return None;
            }
            let dom = DomainName::parse(suffix).ok()?;
            // Only suffixes the latest list refuses are "harm" cases.
            if !latest.is_public_suffix(&dom, opts) {
                return None;
            }
            let name = CertName::parse(&format!("*.{suffix}")).ok()?;
            Some((name.base().clone(), customers))
        })
        .unzip();

    // A wildcard `*.<base>` is issuable iff its base is not a public
    // suffix.
    let suffix_lens = walk(history, &bases, opts).suffix_lens;
    let versions = history.version_count();
    let issued = |i: usize, len: Option<u32>| len != Some(bases[i].label_count() as u32);
    let misissued = suffix_lens.tally(versions, |i, len| u64::from(issued(i, len)));
    let covered =
        suffix_lens.tally(versions, |i, len| if issued(i, len) { customers[i] as u64 } else { 0 });
    let rows = history
        .versions()
        .iter()
        .zip(misissued.iter().zip(&covered))
        .map(|(v, (&misissued, &covered))| CertHarmRow {
            date: v.to_string(),
            misissued: misissued as usize,
            covered_hostnames: covered as usize,
        })
        .collect();

    CertHarmReport { rows, requests: bases.len() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psl_history::{generate, GeneratorConfig};
    use psl_webcorpus::{generate_corpus, CorpusConfig};

    #[test]
    fn misissuance_declines_to_zero() {
        let h = generate(&GeneratorConfig::small(421));
        let c = generate_corpus(&h, &CorpusConfig::small(51));
        let report = run(&h, &c, MatchOpts::default());
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
        // accepted/misissued series must be identical in shape.
        let h = generate(&GeneratorConfig::small(423));
        let c = generate_corpus(&h, &CorpusConfig::small(53));
        let opts = MatchOpts::default();
        let certs = run(&h, &c, opts);
        let cookies = crate::cookie_harm::run(&h, &c, opts);
        let a: Vec<f64> = certs.rows.iter().map(|r| r.misissued as f64).collect();
        let b: Vec<f64> = cookies.rows.iter().map(|r| r.accepted as f64).collect();
        let rho = psl_stats::pearson(&a, &b).unwrap();
        assert!(rho > 0.99, "pearson {rho}");
    }
}
