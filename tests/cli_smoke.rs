//! Smoke tests for the `pslharm` binary: run the real executable and check
//! its output shape.

use std::process::Command;

fn pslharm() -> Command {
    Command::new(env!("CARGO_BIN_EXE_pslharm"))
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

#[test]
fn help_is_printed() {
    let out = pslharm().arg("--help").output().expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage: pslharm"));
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
