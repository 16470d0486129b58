//! Golden snapshot harness.
//!
//! Compares text (a value rendered as pretty JSON, or a command's printed
//! report) byte-for-byte with a checked-in fixture. On mismatch the
//! assertion fails with the first differing line; setting `PSL_BLESS=1`
//! rewrites the fixture instead, so intentional output changes are
//! re-blessed with:
//!
//! ```text
//! PSL_BLESS=1 cargo test -p psl-conformance
//! ```

use serde::Serialize;
use std::fmt;
use std::path::{Path, PathBuf};

/// How a snapshot comparison went.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GoldenStatus {
    /// Fixture matched.
    Match,
    /// `PSL_BLESS` was set; the fixture was (re)written.
    Blessed,
}

/// A snapshot mismatch (or missing fixture).
#[derive(Debug, Clone)]
pub struct GoldenError {
    /// Fixture path.
    pub path: PathBuf,
    /// Human-readable explanation with the first differing line.
    pub message: String,
}

impl fmt::Display for GoldenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "golden snapshot {}: {}", self.path.display(), self.message)
    }
}

impl std::error::Error for GoldenError {}

/// True when the current process was asked to re-bless fixtures.
pub fn blessing() -> bool {
    std::env::var_os("PSL_BLESS").is_some_and(|v| !v.is_empty() && v != "0")
}

/// Compare `value`, rendered as pretty JSON, against the fixture at
/// `path` with [`check_golden_text`].
pub fn check_golden<T: Serialize>(path: &Path, value: &T) -> Result<GoldenStatus, GoldenError> {
    let rendered = serde_json::to_string_pretty(value).map_err(|e| GoldenError {
        path: path.to_path_buf(),
        message: format!("serialize: {e}"),
    })?;
    check_golden_text(path, &format!("{rendered}\n"))
}

/// Compare `text` against the fixture at `path` (creating or rewriting it
/// when [`blessing`]). Returns the status, or a [`GoldenError`] naming the
/// first differing line.
pub fn check_golden_text(path: &Path, text: &str) -> Result<GoldenStatus, GoldenError> {
    if blessing() {
        return bless(path, text.as_bytes());
    }
    let expected = std::fs::read_to_string(path).map_err(|_| missing(path))?;
    if expected == text {
        return Ok(GoldenStatus::Match);
    }
    Err(GoldenError { path: path.to_path_buf(), message: first_diff(&expected, text) })
}

/// Write `bytes` as the fixture at `path`, creating its directory.
fn bless(path: &Path, bytes: &[u8]) -> Result<GoldenStatus, GoldenError> {
    let error = |message: String| GoldenError { path: path.to_path_buf(), message };
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| error(format!("create fixture dir: {e}")))?;
    }
    std::fs::write(path, bytes).map_err(|e| error(format!("write fixture: {e}")))?;
    Ok(GoldenStatus::Blessed)
}

fn missing(path: &Path) -> GoldenError {
    GoldenError {
        path: path.to_path_buf(),
        message: "fixture missing — run with PSL_BLESS=1 to create it".to_string(),
    }
}

/// Assert-style wrapper used by tests: panics with the diff message.
pub fn assert_golden<T: Serialize>(path: &Path, value: &T) {
    settle(path, check_golden(path, value));
}

/// Assert-style wrapper around [`check_golden_text`].
pub fn assert_golden_text(path: &Path, text: &str) {
    settle(path, check_golden_text(path, text));
}

/// Compare raw `bytes` against a checked-in *binary* fixture (the golden
/// vectors for the compiled snapshot format). Semantics mirror
/// [`check_golden`]: `PSL_BLESS=1` (re)writes the fixture; a mismatch
/// reports the first differing byte offset, because for a frozen binary
/// format "what changed" is an offset, not a line.
pub fn check_golden_bytes(path: &Path, bytes: &[u8]) -> Result<GoldenStatus, GoldenError> {
    if blessing() {
        return bless(path, bytes);
    }
    let expected = std::fs::read(path).map_err(|_| missing(path))?;
    if expected == bytes {
        return Ok(GoldenStatus::Match);
    }
    Err(GoldenError { path: path.to_path_buf(), message: first_byte_diff(&expected, bytes) })
}

/// Assert-style wrapper around [`check_golden_bytes`].
pub fn assert_golden_bytes(path: &Path, bytes: &[u8]) {
    settle(path, check_golden_bytes(path, bytes));
}

fn settle(path: &Path, outcome: Result<GoldenStatus, GoldenError>) {
    match outcome {
        Ok(GoldenStatus::Match) => {}
        Ok(GoldenStatus::Blessed) => eprintln!("blessed golden fixture {}", path.display()),
        Err(e) => panic!("{e}"),
    }
}

fn first_byte_diff(expected: &[u8], actual: &[u8]) -> String {
    let n = expected.len().min(actual.len());
    for i in 0..n {
        if expected[i] != actual[i] {
            return format!(
                "first difference at byte {i}: fixture has 0x{:02x}, output has 0x{:02x} \
                 (fixture {} B, output {} B). A changed snapshot format needs a header \
                 version bump AND a deliberate PSL_BLESS=1 re-bless.",
                expected[i],
                actual[i],
                expected.len(),
                actual.len()
            );
        }
    }
    format!(
        "lengths differ: fixture has {} B, output has {} B (equal up to byte {n}). A changed \
         snapshot format needs a header version bump AND a deliberate PSL_BLESS=1 re-bless.",
        expected.len(),
        actual.len()
    )
}

fn first_diff(expected: &str, actual: &str) -> String {
    let (mut fixture, mut output) = (expected.lines(), actual.lines());
    for line in 1.. {
        match (fixture.next(), output.next()) {
            (Some(e), Some(a)) if e == a => {}
            (None, None) => break,
            (e, a) => {
                return format!(
                    "first difference at line {line}:\n  expected: {}\n  actual:   {}\n(re-bless with PSL_BLESS=1 if the change is intentional)",
                    e.unwrap_or("<end of fixture>"),
                    a.unwrap_or("<end of output>")
                )
            }
        }
    }
    "fixture and output differ only in line endings (re-bless with PSL_BLESS=1 if the change is intentional)".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("psl-golden-{}-{name}.json", std::process::id()));
        p
    }

    #[derive(Serialize)]
    struct Sample {
        name: String,
        count: usize,
    }

    #[test]
    fn missing_fixture_is_an_error_without_bless() {
        let path = tmp("missing");
        let _ = std::fs::remove_file(&path);
        let err = check_golden(&path, &Sample { name: "x".into(), count: 1 }).unwrap_err();
        assert!(err.message.contains("PSL_BLESS=1"), "{}", err.message);
    }

    #[test]
    fn roundtrip_matches_after_manual_write() {
        let path = tmp("roundtrip");
        let value = Sample { name: "x".into(), count: 2 };
        let rendered = format!("{}\n", serde_json::to_string_pretty(&value).unwrap());
        std::fs::write(&path, rendered).unwrap();
        assert_eq!(check_golden(&path, &value).unwrap(), GoldenStatus::Match);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mismatch_reports_first_differing_line() {
        let path = tmp("mismatch");
        let old = Sample { name: "x".into(), count: 2 };
        let rendered = format!("{}\n", serde_json::to_string_pretty(&old).unwrap());
        std::fs::write(&path, rendered).unwrap();
        let err = check_golden(&path, &Sample { name: "y".into(), count: 2 }).unwrap_err();
        assert!(err.message.contains("first difference"), "{}", err.message);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn text_mismatch_names_the_first_differing_line() {
        let path = tmp("text");
        std::fs::write(&path, "== title ==\nrow 1\nrow 2\n").unwrap();
        assert_eq!(
            check_golden_text(&path, "== title ==\nrow 1\nrow 2\n").unwrap(),
            GoldenStatus::Match
        );
        let err = check_golden_text(&path, "== title ==\nrow 1\nrow 3\n").unwrap_err();
        assert!(err.message.contains("line 3") && err.message.contains("row 3"), "{}", err.message);
        let err = check_golden_text(&path, "== title ==\nrow 1\n").unwrap_err();
        assert!(err.message.contains("<end of output>"), "{}", err.message);
        let _ = std::fs::remove_file(&path);
    }
}
