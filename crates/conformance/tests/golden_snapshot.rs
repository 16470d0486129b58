//! Golden binary vectors for the compiled list snapshot format.
//!
//! `tests/golden/snapshot_v1.bin` is the byte-exact snapshot of the
//! embedded mini-PSL as written by `List::write_snapshot`, and
//! `snapshot_v1_dispositions.json` pins what a loader reading that file
//! must answer, through the loaded list by labels and by label ids.
//! Together they freeze the on-disk format: any writer change shows up as
//! a byte-offset diff, any loader drift as a disposition diff — and
//! neither may ship without bumping
//! `LIST_FORMAT_VERSION` *and* deliberately re-blessing with:
//!
//! ```text
//! PSL_BLESS=1 cargo test -p psl-conformance --test golden_snapshot
//! ```

use psl_conformance::{assert_golden, assert_golden_bytes};
use psl_core::{embedded_list, Disposition, List, MatchOpts, LIST_FORMAT_VERSION, LIST_MAGIC};
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

/// Probe hostnames (reversed, TLD-first) covering normal, wildcard,
/// exception, private, implicit-wildcard, and no-match paths through the
/// embedded list.
fn probes() -> Vec<Vec<&'static str>> {
    vec![
        vec!["com"],
        vec!["com", "example"],
        vec!["com", "example", "www"],
        vec!["uk", "co"],
        vec!["uk", "co", "bbc"],
        vec!["jp", "kobe"],
        vec!["jp", "kobe", "city"],
        vec!["jp", "kobe", "city", "deep"],
        vec!["jp", "kobe", "other", "deep"],
        vec!["io", "github"],
        vec!["io", "github", "user"],
        vec!["com", "myshopify", "shop"],
        vec!["zz", "unlisted"],
        vec![],
    ]
}

fn opts_matrix() -> [MatchOpts; 4] {
    [
        MatchOpts { include_private: true, implicit_wildcard: true },
        MatchOpts { include_private: true, implicit_wildcard: false },
        MatchOpts { include_private: false, implicit_wildcard: true },
        MatchOpts { include_private: false, implicit_wildcard: false },
    ]
}

#[derive(serde::Serialize)]
struct Row {
    host: String,
    include_private: bool,
    implicit_wildcard: bool,
    disposition: String,
}

/// One row per probe and option set, answered by `answer` (reversed
/// labels, options).
fn disposition_rows(mut answer: impl FnMut(&[&str], MatchOpts) -> Option<Disposition>) -> Vec<Row> {
    let mut rows = Vec::new();
    for probe in probes() {
        for opts in opts_matrix() {
            rows.push(Row {
                host: probe.iter().rev().cloned().collect::<Vec<_>>().join("."),
                include_private: opts.include_private,
                implicit_wildcard: opts.implicit_wildcard,
                disposition: format!("{:?}", answer(&probe, opts)),
            });
        }
    }
    rows
}

#[test]
fn golden_snapshot_bytes_are_frozen() {
    assert_golden_bytes(&fixture("snapshot_v1.bin"), &embedded_list().write_snapshot());
}

#[test]
fn checked_in_snapshot_loads_and_answers_the_golden_dispositions() {
    // Read the *fixture* (not freshly written bytes): this is the loader
    // reading a file a previous build of the writer produced, which is
    // exactly the compatibility the format promises.
    let path = fixture("snapshot_v1.bin");
    let bytes = if psl_conformance::blessing() {
        let b = embedded_list().write_snapshot();
        psl_conformance::assert_golden_bytes(&path, &b);
        b
    } else {
        std::fs::read(&path)
            .unwrap_or_else(|_| panic!("fixture {} missing — run with PSL_BLESS=1", path.display()))
    };
    let loaded = List::load_snapshot(&bytes).expect("checked-in fixture must load");
    assert_eq!(loaded.len(), embedded_list().len());
    let golden = fixture("snapshot_v1_dispositions.json");
    assert_golden(&golden, &disposition_rows(|rev, opts| loaded.disposition_reversed(rev, opts)));
    // The same rows by the loaded list's ids, which come from the file's
    // label arena in its order.
    let mut ids = Vec::new();
    assert_golden(
        &golden,
        &disposition_rows(|rev, opts| {
            loaded.reversed_ids(rev, &mut ids);
            loaded.disposition_ids(&ids, opts)
        }),
    );
}

#[test]
fn format_version_is_pinned_in_the_fixture_header() {
    // A format change without a version bump would silently invalidate
    // every snapshot in the wild. The fixture's header bytes must carry
    // the magic and *current* version — and the current version must be
    // the one this vector set was built for. Bumping LIST_FORMAT_VERSION
    // therefore forces a conscious visit to this test and a re-bless.
    assert_eq!(LIST_FORMAT_VERSION, 1, "new format version: regenerate golden vectors");
    if psl_conformance::blessing() {
        return; // fixture may be mid-rewrite
    }
    let bytes = std::fs::read(fixture("snapshot_v1.bin")).expect("fixture missing");
    assert_eq!(&bytes[..8], LIST_MAGIC, "fixture magic");
    assert_eq!(
        bytes[8..12],
        LIST_FORMAT_VERSION.to_le_bytes(),
        "fixture format version != LIST_FORMAT_VERSION"
    );
}
