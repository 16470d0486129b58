//! Derive `checkPublicSuffix` vectors from a live [`List`].
//!
//! The expected registrable domain for each synthesized hostname is
//! computed with the *linear reference matcher*
//! ([`psl_core::trie::disposition_linear`]), never the production walk —
//! so running the generated vectors through the normal [`List`] engine
//! (which walks the compiled arena) is a genuine two-implementation
//! cross-check, not a tautology.

use crate::vectors::TestVector;
use psl_core::trie::disposition_linear;
use psl_core::{DomainName, List, MatchOpts, Rule, RuleKind};
use rand::{Rng, SeedableRng};

/// Controls for [`generate_vectors`].
#[derive(Debug, Clone)]
pub struct GenerateConfig {
    /// RNG seed.
    pub seed: u64,
    /// Hostnames synthesized per rule (before dedup).
    pub per_rule: usize,
    /// Cap on the number of vectors produced (0 = no cap).
    pub max_vectors: usize,
}

impl Default for GenerateConfig {
    fn default() -> Self {
        GenerateConfig { seed: 0x5eed, per_rule: 3, max_vectors: 0 }
    }
}

/// Synthesize vectors exercising every rule of `list`: the bare suffix,
/// hosts one and two labels below it, wildcard expansions, and exception
/// hosts — plus a handful of unlisted-TLD probes.
pub fn generate_vectors(list: &List, config: &GenerateConfig) -> Vec<TestVector> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);
    let mut out = Vec::new();
    let mut seen = std::collections::HashSet::new();
    let opts = MatchOpts::default();

    let push =
        |host: String, out: &mut Vec<TestVector>, seen: &mut std::collections::HashSet<String>| {
            if !seen.insert(host.clone()) {
                return;
            }
            let expected = reference_registrable(list.rules(), &host, opts);
            out.push(TestVector { input: Some(host), expected, line: 0 });
        };

    for rule in list.rules() {
        let body = rule.labels().join(".");
        let candidates = match rule.kind() {
            RuleKind::Normal => {
                let mut v = vec![body.clone()];
                for _ in 0..config.per_rule {
                    let l1 = synth_label(&mut rng);
                    v.push(format!("{l1}.{body}"));
                    v.push(format!("{}.{l1}.{body}", synth_label(&mut rng)));
                }
                v
            }
            RuleKind::Wildcard => {
                // `*.body`: the wildcard label position matters most.
                let mut v = vec![body.clone()];
                for _ in 0..config.per_rule {
                    let wild = synth_label(&mut rng);
                    v.push(format!("{wild}.{body}"));
                    v.push(format!("{}.{wild}.{body}", synth_label(&mut rng)));
                }
                v
            }
            RuleKind::Exception => {
                // `!body`: the host itself and one below it.
                let mut v = vec![body.clone()];
                v.push(format!("{}.{body}", synth_label(&mut rng)));
                v
            }
        };
        for host in candidates {
            push(host, &mut out, &mut seen);
        }
        if config.max_vectors > 0 && out.len() >= config.max_vectors {
            out.truncate(config.max_vectors);
            return out;
        }
    }

    // Unlisted-TLD probes: exercise the implicit `*` rule.
    for _ in 0..8 {
        let tld = format!("{}zz", synth_label(&mut rng));
        push(tld.clone(), &mut out, &mut seen);
        push(format!("{}.{tld}", synth_label(&mut rng)), &mut out, &mut seen);
    }

    if config.max_vectors > 0 && out.len() > config.max_vectors {
        out.truncate(config.max_vectors);
    }
    out
}

/// The registrable domain according to the linear reference matcher.
fn reference_registrable(rules: &[Rule], host: &str, opts: MatchOpts) -> Option<String> {
    let domain = DomainName::parse(host).ok()?;
    let reversed = domain.labels_reversed();
    let d = disposition_linear(rules, &reversed, opts)?;
    if d.suffix_len >= domain.label_count() {
        return None;
    }
    domain.suffix_of_len(d.suffix_len + 1).map(|s| s.to_string())
}

fn synth_label(rng: &mut rand::rngs::StdRng) -> String {
    const ALPHA: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    let len = 1 + rng.gen_range(0..7usize);
    (0..len).map(|_| ALPHA[rng.gen_range(0..ALPHA.len())] as char).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vectors::run_vectors;
    use psl_core::embedded_list;

    #[test]
    fn generated_vectors_pass_against_their_own_list() {
        // Linear-reference expectations must agree with the walk.
        let list = embedded_list();
        let vectors = generate_vectors(&list, &GenerateConfig::default());
        assert!(vectors.len() > 500, "{} vectors", vectors.len());
        let outcome = run_vectors(&list, &vectors, MatchOpts::default());
        assert!(
            outcome.is_pass(),
            "first failures: {:?}",
            &outcome.failures[..outcome.failures.len().min(5)]
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let list = embedded_list();
        let a = generate_vectors(&list, &GenerateConfig::default());
        let b = generate_vectors(&list, &GenerateConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn max_vectors_caps_output() {
        let list = embedded_list();
        let v = generate_vectors(&list, &GenerateConfig { max_vectors: 40, ..Default::default() });
        assert_eq!(v.len(), 40);
    }

    #[test]
    fn covers_wildcard_and_exception_rules() {
        let list = List::parse("com\n*.ck\n!www.ck\n");
        let vectors = generate_vectors(&list, &GenerateConfig::default());
        // The exception host itself must be exercised.
        assert!(vectors.iter().any(|v| v.input.as_deref() == Some("www.ck")));
        // And some wildcard expansion under .ck.
        assert!(vectors
            .iter()
            .any(|v| v.input.as_deref().is_some_and(|h| h.ends_with(".ck") && h != "www.ck")));
    }
}
