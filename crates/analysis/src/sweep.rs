//! Per-version corpus statistics for Figures 5–7, and the slow oracle
//! the sweep engine is checked against.
//!
//! The paper's §5 methodology: "determine the suffix for each *unique*
//! domain name in the dataset using each version of the PSL", then group
//! into sites. For every published version we compute the number of sites
//! formed (Figure 5), the number of requests classified third-party
//! (Figure 6), and the number of hostnames mapped to a different site than
//! under the most recent list (Figure 7).
//!
//! The engine is [`crate::sweep_stream::sweep_stream`] (one version walk
//! plus one streamed pass). [`sweep_rebuild`] computes the same numbers
//! the obvious way — a full [`List`] snapshot per version, every hostname
//! matched as string labels — and is kept only as its oracle.

use crate::walker::{site_len, site_of};
use psl_core::{Date, List, MatchOpts};
use psl_history::History;
use psl_webcorpus::WebCorpus;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Per-version sweep results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct VersionStats {
    /// Version date.
    pub date: Date,
    /// Rules live at this version.
    pub rule_count: usize,
    /// Distinct sites formed from the corpus's unique hostnames.
    pub sites: usize,
    /// Requests whose page and resource fall in different sites.
    pub third_party_requests: u64,
    /// Hostnames whose site differs from the latest version's grouping.
    pub hosts_in_different_site_vs_latest: usize,
}

/// The row of `stats` (one per history version, in version order) for
/// the version published at `version`. Dated repository copies always
/// carry a version date, which is how Table 3 and the update-failure
/// extension read a copy's harm off the sweep.
pub(crate) fn row_at(stats: &[VersionStats], version: Date) -> &VersionStats {
    let i = stats
        .binary_search_by_key(&version, |s| s.date)
        .expect("dated copies carry a version date of the swept history");
    &stats[i]
}

/// The rebuild oracle: every version's full [`List`] snapshot through
/// [`stats_for_single_list`] against the latest list.
/// O(versions × (rules + hosts + requests)); versions run in parallel on
/// the machine's cores.
pub fn sweep_rebuild(history: &History, corpus: &WebCorpus, opts: MatchOpts) -> Vec<VersionStats> {
    let latest = history.latest_snapshot();
    let versions = history.versions();
    let threads = resolved_threads(0, versions.len());
    let mut out: Vec<Option<VersionStats>> = vec![None; versions.len()];
    let chunk = versions.len().div_ceil(threads);
    crossbeam::thread::scope(|scope| {
        for (slots, dates) in out.chunks_mut(chunk).zip(versions.chunks(chunk)) {
            let latest = &latest;
            scope.spawn(move |_| {
                for (slot, &date) in slots.iter_mut().zip(dates) {
                    let list = history.snapshot_at(date);
                    *slot = Some(VersionStats {
                        date,
                        ..stats_for_single_list(corpus, &list, latest, opts)
                    });
                }
            });
        }
    })
    .expect("sweep worker panicked");

    out.into_iter().map(|s| s.expect("every slot filled")).collect()
}

/// Resolve a `threads` setting (0 = auto) to the actual worker count: the
/// machine's available parallelism, capped by the number of work items.
/// Public so the bench harness records the worker count a sweep really
/// used instead of echoing the configured `0` placeholder.
pub fn resolved_threads(threads: usize, work_items: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4).min(work_items.max(1))
    } else {
        threads
    }
}

/// Stats for one specific list, with moved hosts counted against
/// `latest` (the benchmark's oracle, and each version of
/// [`sweep_rebuild`]). Every host is matched as string labels.
pub fn stats_for_single_list(
    corpus: &WebCorpus,
    list: &List,
    latest: &List,
    opts: MatchOpts,
) -> VersionStats {
    let reversed = corpus.reversed_labels();
    let suffix_lens = |list: &List| -> Vec<Option<usize>> {
        reversed
            .iter()
            .map(|labels| list.disposition_reversed(labels, opts).map(|d| d.suffix_len))
            .collect()
    };
    let (lens, latest_lens) = (suffix_lens(list), suffix_lens(latest));
    let hosts = corpus.hosts();
    let sites: Vec<&str> = hosts.iter().zip(&lens).map(|(h, &len)| site_of(h, len)).collect();
    let third_party = corpus
        .requests()
        .iter()
        .filter(|r| sites[r.page as usize] != sites[r.request as usize])
        .count() as u64;
    let moved = hosts
        .iter()
        .zip(lens.iter().zip(&latest_lens))
        .filter(|(h, (&a, &b))| site_len(a, h.label_count()) != site_len(b, h.label_count()))
        .count();
    VersionStats {
        date: Date::from_days_since_epoch(0),
        rule_count: list.len(),
        sites: sites.iter().collect::<HashSet<_>>().len(),
        third_party_requests: third_party,
        hosts_in_different_site_vs_latest: moved,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep_stream::{sweep_stream, StreamSweepConfig};
    use psl_history::{generate, GeneratorConfig};
    use psl_webcorpus::{build_stream, CorpusConfig, StreamCorpus};

    fn fixture() -> (History, StreamCorpus) {
        let h = generate(&GeneratorConfig::small(101));
        let c = build_stream(&h, &CorpusConfig::small(13));
        (h, c)
    }

    fn sweep(h: &History, c: &StreamCorpus) -> Vec<VersionStats> {
        sweep_stream(h, c, &StreamSweepConfig::default()).stats
    }

    #[test]
    fn sweep_covers_every_version() {
        let (h, c) = fixture();
        let stats = sweep(&h, &c);
        assert_eq!(stats.len(), h.version_count());
        for (s, &v) in stats.iter().zip(h.versions()) {
            assert_eq!(s.date, v);
        }
    }

    #[test]
    fn newer_lists_form_more_sites() {
        let (h, c) = fixture();
        let stats = sweep(&h, &c);
        let first = stats.first().unwrap();
        let last = stats.last().unwrap();
        assert!(last.sites > first.sites + 100, "sites {} -> {}", first.sites, last.sites);
    }

    #[test]
    fn latest_version_has_zero_moved_hosts() {
        let (h, c) = fixture();
        let stats = sweep(&h, &c);
        assert_eq!(stats.last().unwrap().hosts_in_different_site_vs_latest, 0);
        // And older versions move more hosts than newer ones, broadly.
        let first = stats.first().unwrap().hosts_in_different_site_vs_latest;
        let mid = stats[stats.len() / 2].hosts_in_different_site_vs_latest;
        assert!(first >= mid, "first {first} < mid {mid}");
        assert!(first > 0);
    }

    #[test]
    fn third_party_shape_is_u_curved() {
        // Figure 6: early drop (exception formalisation), later rise
        // (private-suffix splits).
        let (h, c) = fixture();
        let stats = sweep(&h, &c);
        let first = stats.first().unwrap().third_party_requests;
        let last = stats.last().unwrap().third_party_requests;
        let min = stats.iter().map(|s| s.third_party_requests).min().unwrap();
        assert!(min < first, "no early drop: first {first}, min {min}");
        assert!(last > min, "no late rise: min {min}, last {last}");
    }

    #[test]
    fn single_thread_matches_parallel() {
        let (h, c) = fixture();
        let par = sweep(&h, &c);
        let ser = sweep_stream(&h, &c, &StreamSweepConfig { threads: 1, ..Default::default() });
        assert_eq!(par, ser.stats);
    }

    /// The engine in its default shape (auto threads and shards, as
    /// `run_all` runs it) against the rebuild oracle under every
    /// match-option case.
    #[test]
    fn compiled_sweep_matches_rebuild_exactly() {
        let (h, c) = fixture();
        let corpus = c.materialize();
        for opts in [
            MatchOpts::default(),
            MatchOpts { include_private: false, implicit_wildcard: true },
            MatchOpts { include_private: true, implicit_wildcard: false },
        ] {
            let engine = sweep_stream(&h, &c, &StreamSweepConfig { opts, ..Default::default() });
            let rebuilt = sweep_rebuild(&h, &corpus, opts);
            assert_eq!(engine.stats.len(), rebuilt.len());
            for (a, b) in engine.stats.iter().zip(&rebuilt) {
                assert_eq!(a, b, "diverged at {}", a.date);
            }
        }
    }

    #[test]
    fn single_list_stats_agree_with_sweep_endpoints() {
        let (h, c) = fixture();
        let stats = sweep(&h, &c);
        let corpus = c.materialize();
        let latest = h.latest_snapshot();
        let first = h.snapshot_at(h.first_version());
        let opts = MatchOpts::default();
        let s_first = stats_for_single_list(&corpus, &first, &latest, opts);
        assert_eq!(s_first.sites, stats.first().unwrap().sites);
        assert_eq!(s_first.third_party_requests, stats.first().unwrap().third_party_requests);
        assert_eq!(
            s_first.hosts_in_different_site_vs_latest,
            stats.first().unwrap().hosts_in_different_site_vs_latest
        );
        let s_last = stats_for_single_list(&corpus, &latest, &latest, opts);
        assert_eq!(s_last.hosts_in_different_site_vs_latest, 0);
    }
}
