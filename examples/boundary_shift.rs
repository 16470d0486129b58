//! Watch privacy boundaries shift across list versions: a compact version
//! of the paper's §5 experiment. We generate a list history and a web
//! corpus, then interpret the corpus under a handful of versions and show
//! how sites form, requests re-classify, and hostnames move.
//!
//! ```sh
//! cargo run --example boundary_shift
//! ```

use psl_analysis::{stats_for_single_list, sweep_stream, StreamSweepConfig};
use psl_core::MatchOpts;
use psl_history::{generate, GeneratorConfig};
use psl_webcorpus::{build_stream, CorpusConfig};

fn main() {
    let history = generate(&GeneratorConfig::small(11));
    let stream = build_stream(&history, &CorpusConfig::small(3));
    let corpus = stream.materialize();
    println!(
        "history: {} versions ({} .. {}); corpus: {} unique hostnames, {} requests\n",
        history.version_count(),
        history.first_version(),
        history.latest_version(),
        corpus.host_count(),
        corpus.request_count(),
    );

    // Full sweep (one version walk, one pass over the requests), then
    // print a sample of versions.
    let stats = sweep_stream(&history, &stream, &StreamSweepConfig::default()).stats;
    println!(
        "{:>12} {:>7} {:>8} {:>12} {:>12}",
        "version", "rules", "sites", "3rd-party", "moved-hosts"
    );
    let step = (stats.len() / 10).max(1);
    for s in stats.iter().step_by(step) {
        println!(
            "{:>12} {:>7} {:>8} {:>12} {:>12}",
            s.date.to_string(),
            s.rule_count,
            s.sites,
            s.third_party_requests,
            s.hosts_in_different_site_vs_latest,
        );
    }
    let first = stats.first().unwrap();
    let last = stats.last().unwrap();
    println!(
        "\nusing the first list instead of the latest: {} fewer sites, {} hostnames in the wrong site",
        last.sites - first.sites,
        first.hosts_in_different_site_vs_latest,
    );

    // Zoom in: what would a project with a 2015-era copy get wrong today?
    let mid_date = history
        .version_at_or_before(psl_core::Date::parse("2015-01-01").unwrap())
        .expect("history spans 2015");
    let mid = history.snapshot_at(mid_date);
    let latest = history.latest_snapshot();
    let mid_stats = stats_for_single_list(&corpus, &mid, &latest, MatchOpts::default());
    println!(
        "a project pinned to the {mid_date} list misgroups {} of {} hostnames",
        mid_stats.hosts_in_different_site_vs_latest,
        corpus.host_count(),
    );
}
