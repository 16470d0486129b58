//! Audit a repository corpus for outdated PSL copies — the detector
//! pipeline end to end: find embedded copies (filename + content
//! sniffing), date them against the version history, classify the
//! integration strategy, and render maintainer notifications for the risky
//! ones.
//!
//! ```sh
//! cargo run --example outdated_audit
//! ```

use psl_history::{generate, GeneratorConfig};
use psl_repocorpus::{generate_repos, notification, RepoGenConfig, RepoScan, UsageClass};

fn main() {
    // Substrates: a small synthetic list history and the 273-repo corpus,
    // scanned once: every repository's copies found, dated and classified.
    let history = generate(&GeneratorConfig::small(7));
    let repos = generate_repos(&history, &RepoGenConfig::default());
    let scan = RepoScan::build(&repos, &history);

    let t = repos.observed_at;
    let mut flagged = 0;
    let mut total_found = 0;

    println!("auditing {} repositories (observed at {t}) ...\n", repos.len());
    for det in &scan.detections {
        let repo = det.repo;
        let (Some(class), Some(dated)) = (det.class, det.dated) else {
            continue;
        };
        total_found += 1;
        let age = dated.age_days(t);
        // Report the riskiest combination the paper highlights: fixed,
        // in-production copies more than two years old.
        if class.is_fixed_production() && age > 730 {
            flagged += 1;
            println!(
                "{:45} {:18} list age {:>5} days  ({} copies: {})",
                repo.name,
                class.to_string(),
                age,
                det.list_paths.len(),
                det.list_paths.join(", "),
            );
        }
    }

    println!("\n{total_found} repos with embedded copies; {flagged} fixed/production copies older than 2 years");

    // Render one notification, as the paper's disclosure process would.
    let det = scan
        .detections
        .iter()
        .find(|d| d.repo.name == "bitwarden/server")
        .expect("named repo present");
    if let Some(text) = notification(
        det.repo,
        det.class.unwrap_or(UsageClass::Fixed(psl_repocorpus::FixedKind::Production)),
        det.dated,
        t,
    ) {
        println!("\n--- example notification ---------------------------------\n{text}");
    }
}
