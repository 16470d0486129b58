//! `snapshot` target: the binary snapshot loader as hostile-input parser.
//!
//! An input is a mutation *spec* plus a `.dat` rule list. The check
//! compiles the list, serializes it with [`List::write_snapshot`], applies
//! the spec's byte-level mutations (optionally resealing the checksum so
//! the mutation reaches structural validation instead of dying at the
//! checksum gate), and feeds the result to the loader. The contract under
//! test:
//!
//! - the loader never panics (the runner's `catch_unwind` turns one into a
//!   finding) and rejects with a typed [`psl_core::SnapshotError`];
//! - anything the loader *accepts* is self-consistent: the loaded list
//!   and a reload of its own re-serialization both give the answer of
//!   [`disposition_linear`] over the decompiled rules on every
//!   disposition;
//! - with an empty spec the pipeline is exact: load succeeds and the bytes
//!   are a fixpoint.
//!
//! Spec grammar (whitespace-separated tokens, unknown tokens ignored):
//! `OFF=VAL` sets byte `OFF % len` to `VAL % 256`; `len=N` resizes the
//! buffer to `N % (2*len)` (padding with `0xa5`); `fix` recomputes the
//! trailing checksum after all other mutations, whatever its position.

use psl_core::trie::disposition_linear;
use psl_core::{reseal, List, MatchOpts};

/// Apply a mutation spec to a pristine snapshot.
pub fn apply_spec(spec: &str, pristine: &[u8]) -> Vec<u8> {
    let mut buf = pristine.to_vec();
    let mut fix = false;
    for tok in spec.split_whitespace() {
        if tok == "fix" {
            fix = true;
        } else if let Some(n) = tok.strip_prefix("len=") {
            if let Ok(n) = n.parse::<u64>() {
                let cap = (pristine.len() * 2).max(1);
                buf.resize(n as usize % cap, 0xa5);
            }
        } else if let Some((off, val)) = tok.split_once('=') {
            if let (Ok(off), Ok(val)) = (off.parse::<u64>(), val.parse::<u64>()) {
                if !buf.is_empty() {
                    let i = off as usize % buf.len();
                    buf[i] = (val % 256) as u8;
                }
            }
        }
    }
    if fix {
        reseal(&mut buf);
    }
    buf
}

fn opts_matrix() -> [MatchOpts; 4] {
    [
        MatchOpts { include_private: true, implicit_wildcard: true },
        MatchOpts { include_private: true, implicit_wildcard: false },
        MatchOpts { include_private: false, implicit_wildcard: true },
        MatchOpts { include_private: false, implicit_wildcard: false },
    ]
}

/// Probe hostnames (reversed, TLD-first) aimed at a loaded list: each
/// rule body, each body with an extra left label, and a few fixed shapes.
fn probes(list: &List) -> Vec<Vec<String>> {
    let mut out: Vec<Vec<String>> =
        vec![vec![], vec!["com".into()], vec!["zz".into(), "unlisted".into()]];
    for rule in list.rules().iter().take(16) {
        let reversed: Vec<String> = rule.labels().iter().rev().cloned().collect();
        let mut longer = reversed.clone();
        longer.push("probe".into());
        out.push(reversed);
        out.push(longer);
    }
    out
}

/// Require that an accepted snapshot is self-consistent: the loaded list
/// and a reload of its own re-serialization both answer as the linear
/// oracle over the decompiled rules.
fn check_accepted(loaded: &List) -> Result<(), String> {
    let rebytes = loaded.write_snapshot();
    let reloaded = List::load_snapshot(&rebytes)
        .map_err(|e| format!("accepted list failed to reload its own bytes: {e}"))?;

    for probe in probes(loaded) {
        let reversed: Vec<&str> = probe.iter().map(|s| s.as_str()).collect();
        for opts in opts_matrix() {
            let expected = disposition_linear(loaded.rules(), &reversed, opts);
            if loaded.disposition_reversed(&reversed, opts) != expected {
                return Err(format!(
                    "loaded arena diverges from linear-over-decompiled-rules on {reversed:?} \
                     {opts:?}"
                ));
            }
            if reloaded.disposition_reversed(&reversed, opts) != expected {
                return Err(format!(
                    "re-serialized list diverges from linear on {reversed:?} {opts:?}"
                ));
            }
        }
    }
    Ok(())
}

/// Check one `(spec, dat)` input.
pub fn check_snapshot(spec: &str, dat: &str) -> Result<(), String> {
    let list = List::parse(dat);
    let pristine = list.write_snapshot();

    // The writer's own output must always load, bit-identically.
    let loaded = List::load_snapshot(&pristine)
        .map_err(|e| format!("pristine snapshot rejected by own loader: {e}"))?;
    if loaded.write_snapshot() != pristine {
        return Err("write(load(bytes)) is not a fixpoint on pristine bytes".to_string());
    }
    if loaded.len() != list.len() {
        return Err(format!(
            "rule count changed across pristine round-trip: {} -> {}",
            list.len(),
            loaded.len()
        ));
    }

    let mutated = apply_spec(spec, &pristine);
    match List::load_snapshot(&mutated) {
        // A typed rejection is the loader doing its job.
        Err(_) => Ok(()),
        Ok(loaded) => check_accepted(&loaded),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DAT: &str = "com\n*.uk\n!city.uk\n// ===BEGIN PRIVATE DOMAINS===\ngithub.io\n";

    #[test]
    fn empty_spec_is_the_exact_pipeline() {
        check_snapshot("", DAT).unwrap();
        check_snapshot("", "").unwrap();
    }

    #[test]
    fn unresealed_flips_die_at_the_checksum() {
        // Any plain byte set without `fix` must be rejected (or be the
        // written value already) — either way the check passes.
        check_snapshot("8=99", DAT).unwrap();
        check_snapshot("100=255 101=255", DAT).unwrap();
    }

    #[test]
    fn resealed_mutations_reach_structural_validation() {
        check_snapshot("8=99 fix", DAT).unwrap(); // version skew
        check_snapshot("len=40 fix", DAT).unwrap(); // truncation
        check_snapshot("12=1 fix", DAT).unwrap(); // bad flags
        check_snapshot("fix 200=7", DAT).unwrap(); // `fix` is position-independent
    }

    #[test]
    fn spec_application_is_deterministic_and_bounded() {
        let pristine = List::parse(DAT).write_snapshot();
        let a = apply_spec("3=1 len=50 fix junk x= =5", &pristine);
        let b = apply_spec("3=1 len=50 fix junk x= =5", &pristine);
        assert_eq!(a, b);
        assert!(apply_spec("len=999999999", &pristine).len() < pristine.len() * 2);
        assert_eq!(apply_spec("", &pristine), pristine);
    }
}
