//! Smoke tests for the `pslharm` binary: run the real executable and check
//! its output shape, and pin the printed reports byte for byte.

use std::path::{Path, PathBuf};
use std::process::Command;

fn pslharm() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pslharm"))
}

/// The checked-in fixture `tests/golden/FILE`.
fn golden(file: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden").join(file)
}

/// Run `pslharm ARGS` and compare its stdout with the text fixture
/// `tests/golden/NAME.txt`; `PSL_BLESS=1` rewrites the fixture.
fn assert_stdout_golden(name: &str, args: &[&str]) {
    let out = pslharm().args(args).output().expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    psl_conformance::assert_golden_text(&golden(&format!("{name}.txt")), &stdout);
}

#[test]
fn all_stdout_matches_fixture() {
    assert_stdout_golden("all_seed2023", &["all", "--seed", "2023"]);
}

#[test]
fn table3_stdout_matches_fixture() {
    assert_stdout_golden("table3_seed2023", &["table3", "--seed", "2023"]);
}

#[test]
fn sweep_stdout_matches_fixture() {
    assert_stdout_golden(
        "sweep_seed2023_requests20000",
        &["sweep", "--seed", "2023", "--requests", "20000"],
    );
}

#[test]
fn fleet_stdout_matches_fixture() {
    assert_stdout_golden(
        "fleet_seed2023_sessions2000",
        &["fleet", "--seed", "2023", "--sessions", "2000"],
    );
}

/// The one pin at paper scale: the world EXPERIMENTS.md quotes. CI's
/// pipeline smoke compares the release binary's stdout with the same
/// fixture. The same run's `--json` export pins every row of the six
/// sections computed from the corpus hosts, most of which stdout shows
/// only in part.
#[test]
fn paper_scale_all_stdout_matches_fixture() {
    let json = Path::new(env!("CARGO_TARGET_TMPDIR")).join("all_paper_scale_seed42.json");
    let json_arg = json.to_str().expect("UTF-8 path");
    assert_stdout_golden(
        "all_paper_scale_seed42",
        &["all", "--paper-scale", "--seed", "42", "--json", json_arg],
    );
    let report = std::fs::read_to_string(&json).expect("--json wrote the report");
    let Ok(serde_json::Value::Map(sections)) = serde_json::value_from_str(&report) else {
        panic!("the report is a JSON object");
    };
    const HOST_SECTIONS: [&str; 6] =
        ["table2", "cookie_harm", "cert_harm", "dbound", "category_shift", "browser_replay"];
    let pinned: Vec<_> =
        sections.into_iter().filter(|(name, _)| HOST_SECTIONS.contains(&name.as_str())).collect();
    assert_eq!(pinned.len(), HOST_SECTIONS.len());
    psl_conformance::assert_golden(
        &golden("all_paper_scale_seed42_hosts.json"),
        &serde_json::Value::Map(pinned),
    );
}

#[test]
fn suffix_command_prints_lookups() {
    let out = pslharm()
        .args(["suffix", "www.example.com", "alice.github.io", "not a domain"])
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("www.example.com"));
    assert!(stdout.contains("example.com"));
    assert!(stdout.contains("github.io"));
    assert!(stdout.contains("invalid"));
}

/// The string literals that open a `match` arm (`"x" =>` or `"x" |`) in
/// the lines of `source` from the first line containing `from` up to the
/// next line containing `to`.
fn match_arm_literals<'a>(source: &'a str, from: &str, to: &str) -> Vec<&'a str> {
    let mut lines = source.lines().skip_while(|l| !l.contains(from));
    assert!(lines.next().is_some(), "no line containing {from:?} in main.rs");
    let mut names = Vec::new();
    for line in lines.take_while(|l| !l.contains(to)) {
        let pieces: Vec<&str> = line.split('"').collect();
        for (i, name) in pieces.iter().enumerate().skip(1).step_by(2) {
            let next = pieces.get(i + 1).map_or("", |s| s.trim_start());
            if next.starts_with("=>") || next.starts_with('|') {
                names.push(*name);
            }
        }
    }
    names
}

#[test]
fn help_is_printed() {
    let out = pslharm().arg("--help").output().expect("binary runs");
    assert!(out.status.success());
    let help = String::from_utf8_lossy(&out.stdout);
    assert!(help.contains("usage: pslharm"));

    // Every subcommand `main` dispatches, every artifact subcommand in
    // `report::SECTIONS`, and every flag `parse_flags` accepts is named in
    // the help text.
    let words: std::collections::HashSet<&str> =
        help.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')).collect();
    let source = include_str!("../crates/cli/src/main.rs");
    let mut commands = match_arm_literals(source, "let result = match cmd {", "unknown command");
    commands.retain(|c| !c.starts_with('-') && *c != "help");
    commands.extend(psl_analysis::report::SECTIONS.iter().flat_map(|(names, _)| names.iter()));
    let flags = match_arm_literals(source, "fn parse_flags(", "other if other.starts_with");
    assert!(commands.len() > 20 && flags.len() > 20, "{commands:?} {flags:?}");
    for name in commands.iter().chain(&flags) {
        assert!(words.contains(name), "--help does not mention {name:?}:\n{help}");
    }
}

#[test]
fn unknown_command_fails() {
    let out = pslharm().arg("frobnicate").output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn missing_command_fails() {
    let out = pslharm().output().expect("binary runs");
    assert!(!out.status.success());
}

#[test]
fn table1_runs_and_mentions_taxonomy() {
    let out = pslharm().args(["table1", "--seed", "7"]).output().expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Fixed/Production"));
    assert!(stdout.contains("Dependency/jre"));
    assert!(stdout.contains("Table 1"));
}

#[test]
fn notify_renders_dated_notifications() {
    let out = pslharm().args(["notify", "--seed", "7"]).output().expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("95 notifications rendered"), "stderr: {stderr}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("Title: Outdated Public Suffix List in ").count(), 95);
    let bitwarden = stdout
        .split("Title: ")
        .find(|text| text.starts_with("Outdated Public Suffix List in bitwarden/server\n"))
        .expect("bitwarden/server is notified");
    assert!(
        bitwarden.contains(
            "The embedded copy matches the list published on 2018-03-21, \
             which is 1723 days old as of 2022-12-08."
        ),
        "{bitwarden}"
    );
}

#[test]
fn lint_blame_and_corpus_stats_run() {
    let out = pslharm().arg("lint").output().expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("embedded snapshot"));
    assert!(stdout.contains("findings"));

    let out =
        pslharm().args(["blame", "myshopify.com", "github.io"]).output().expect("binary runs");
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("myshopify.com: added 2019"));
    assert!(stdout.contains("github.io: added 2013"));

    let out = pslharm().arg("corpus-stats").output().expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("hosts:"));
}

#[test]
fn markdown_export_writes_document() {
    let dir = std::env::temp_dir().join(format!("pslharm-md-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let md_path = dir.join("report.md");
    let out = pslharm()
        .args(["table1", "--seed", "5", "--markdown"])
        .arg(&md_path)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let md = std::fs::read_to_string(&md_path).unwrap();
    assert!(md.starts_with("# PSL privacy-harms reproduction report"));
    assert!(md.contains("## Table 2"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn all_with_json_export_writes_file() {
    let dir = std::env::temp_dir().join(format!("pslharm-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let json_path = dir.join("report.json");
    let out = pslharm()
        .args(["all", "--seed", "3", "--json"])
        .arg(&json_path)
        .output()
        .expect("binary runs");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for marker in
        ["Figure 2", "Table 1", "Figure 3", "Figure 4", "Figures 5-7", "Table 2", "Table 3"]
    {
        assert!(stdout.contains(marker), "missing {marker}");
    }
    let json = std::fs::read_to_string(&json_path).unwrap();
    let value: serde_json::Value = serde_json::from_str(&json).unwrap();
    assert!(value.get("table2").is_some());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sweep_refuses_the_removed_sketch_flag() {
    let out =
        pslharm().args(["sweep", "--requests", "1000", "--sketch"]).output().expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--sketch") && stderr.contains("exact"), "stderr: {stderr}");
}
