//! The fuzz loop: corpus replay, generation, mutation, checking,
//! minimization, reporting.

use crate::corpus::{read_corpus, Input, Target};
use crate::gen;
use crate::minimize::{session_blocks, shrink_blocks, shrink_chars, shrink_lines};
use crate::rng::FuzzRng;
use crate::targets::{cookie, dat, hostname, service, snapshot};
use crate::targets::{ListUnderTest, MatcherFactory, TrieFactory};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// How a fuzz run is bounded and seeded.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// RNG seed: the `(seed, iters)` pair fully determines the run.
    pub seed: u64,
    /// Generated iterations (on top of corpus replay).
    pub iters: u64,
    /// Optional wall-clock cutoff (checked between iterations; makes the
    /// run stop early but never changes what any iteration does).
    pub time_budget: Option<Duration>,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig { seed: 0, iters: 500, time_budget: None }
    }
}

/// A minimized failing input.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Why the check failed (divergence description or panic payload).
    pub reason: String,
    /// The minimized input.
    pub input: Input,
    /// True when the failure came from replaying a checked-in corpus entry
    /// (a regression) rather than a freshly generated input.
    pub from_corpus: bool,
}

/// The outcome of fuzzing one target.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Which target ran.
    pub target: Target,
    /// Corpus entries replayed before generation started.
    pub corpus_replayed: usize,
    /// Generated iterations actually executed.
    pub iters_run: u64,
    /// Failures, minimized, deduplicated by serialized input.
    pub findings: Vec<Finding>,
}

impl Outcome {
    /// True when no input failed.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }
}

/// Stop collecting after this many distinct findings per run: after the
/// first few the rest are almost always the same root cause, and every
/// additional finding costs a full minimization.
const MAX_FINDINGS: usize = 5;

/// Run `check` on an input, treating panics as failures.
fn run_check(check: impl FnOnce() -> Result<(), String>) -> Result<(), String> {
    match catch_unwind(AssertUnwindSafe(check)) {
        Ok(r) => r,
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            Err(format!("panic: {msg}"))
        }
    }
}

fn check_input(input: &Input, factory: &dyn MatcherFactory) -> Result<(), String> {
    match input {
        Input::Hostname(host, dat_text) => {
            let lut = ListUnderTest::build(dat_text, factory);
            hostname::check_host(&lut, host)
        }
        Input::Dat(text) => dat::check_dat(text),
        Input::Cookie(host, header) => cookie::check_cookie(host, header),
        Input::Service(lines) => service::check_session(lines),
        Input::Snapshot(spec, dat_text) => snapshot::check_snapshot(spec, dat_text),
    }
}

/// Shrink a failing input until no single removal keeps it failing.
fn minimize_input(input: &Input, factory: &dyn MatcherFactory) -> Input {
    let fails = |candidate: &Input| run_check(|| check_input(candidate, factory)).is_err();
    match input {
        Input::Hostname(host, dat_text) => {
            // Shrink the rule list first (it dominates the entry size),
            // then the hostname against the shrunken list.
            let dat_lines: Vec<String> = dat_text.lines().map(|l| l.to_string()).collect();
            let kept = shrink_lines(&dat_lines, |ls| {
                let mut text = ls.join("\n");
                text.push('\n');
                fails(&Input::Hostname(host.clone(), text))
            });
            let mut dat_min = kept.join("\n");
            dat_min.push('\n');
            let host_min =
                shrink_chars(host, |h| fails(&Input::Hostname(h.to_string(), dat_min.clone())));
            Input::Hostname(host_min, dat_min)
        }
        Input::Dat(text) => {
            let lines: Vec<String> = text.lines().map(|l| l.to_string()).collect();
            let kept = shrink_lines(&lines, |ls| {
                let mut t = ls.join("\n");
                t.push('\n');
                fails(&Input::Dat(t))
            });
            // Then shrink the surviving lines character by character.
            let mut current = kept;
            for i in 0..current.len() {
                let shrunk = shrink_chars(&current[i].clone(), |cand| {
                    let mut probe = current.clone();
                    probe[i] = cand.to_string();
                    let mut t = probe.join("\n");
                    t.push('\n');
                    fails(&Input::Dat(t))
                });
                current[i] = shrunk;
            }
            let mut t = current.join("\n");
            t.push('\n');
            Input::Dat(t)
        }
        Input::Cookie(host, header) => {
            // Drop whole attributes first, then shrink what remains.
            let attrs: Vec<String> = header.split(';').map(|a| a.to_string()).collect();
            let kept =
                shrink_lines(&attrs, |parts| fails(&Input::Cookie(host.clone(), parts.join(";"))));
            let header_min = shrink_chars(&kept.join(";"), |h| {
                fails(&Input::Cookie(host.clone(), h.to_string()))
            });
            let host_min =
                shrink_chars(host, |h| fails(&Input::Cookie(h.to_string(), header_min.clone())));
            Input::Cookie(host_min, header_min)
        }
        Input::Service(lines) => {
            let kept =
                shrink_blocks(&session_blocks(lines), |ls| fails(&Input::Service(ls.to_vec())));
            Input::Service(kept)
        }
        Input::Snapshot(spec, dat_text) => {
            // Drop spec tokens first (fewer mutations = clearer failure),
            // then shrink the rule list under the surviving spec.
            let toks: Vec<String> = spec.split_whitespace().map(|t| t.to_string()).collect();
            let kept_toks =
                shrink_lines(&toks, |ts| fails(&Input::Snapshot(ts.join(" "), dat_text.clone())));
            let spec_min = kept_toks.join(" ");
            let dat_lines: Vec<String> = dat_text.lines().map(|l| l.to_string()).collect();
            let kept = shrink_lines(&dat_lines, |ls| {
                let mut text = ls.join("\n");
                text.push('\n');
                fails(&Input::Snapshot(spec_min.clone(), text))
            });
            let mut dat_min = kept.join("\n");
            dat_min.push('\n');
            Input::Snapshot(spec_min, dat_min)
        }
    }
}

fn generate_input(
    target: Target,
    rng: &mut FuzzRng,
    lut_dat: &str,
    rules_for_hosts: &[psl_core::Rule],
    seeds: &[Input],
) -> Input {
    // 1-in-4 iterations mutate a corpus seed instead of generating fresh.
    if !seeds.is_empty() && rng.chance(1, 4) {
        let seed = rng.pick(seeds).clone();
        match seed {
            Input::Hostname(host, dat_text) => {
                return Input::Hostname(gen::mutate_host(rng, &host), dat_text);
            }
            Input::Dat(text) => return Input::Dat(gen::mutate_dat(rng, &text)),
            Input::Cookie(host, header) => {
                return if rng.chance(1, 2) {
                    Input::Cookie(gen::mutate_host(rng, &host), header)
                } else {
                    Input::Cookie(host.clone(), gen::gen_set_cookie(rng, &host))
                };
            }
            Input::Service(lines) => {
                // Splice a fresh frame sequence after the seed session.
                let mut out = lines;
                out.extend(gen::gen_session(rng, rules_for_hosts));
                return Input::Service(out);
            }
            Input::Snapshot(spec, dat_text) => {
                return if rng.chance(2, 3) {
                    Input::Snapshot(gen::mutate_snapshot_spec(rng, &spec), dat_text)
                } else {
                    Input::Snapshot(spec, gen::mutate_dat(rng, &dat_text))
                };
            }
        }
    }
    match target {
        Target::Hostname => {
            Input::Hostname(gen::gen_hostname(rng, rules_for_hosts), lut_dat.to_string())
        }
        Target::Dat => Input::Dat(gen::gen_dat(rng)),
        Target::Cookie => {
            let host = gen::gen_hostname(rng, rules_for_hosts);
            let header = gen::gen_set_cookie(rng, &host);
            Input::Cookie(host, header)
        }
        Target::Service => Input::Service(gen::gen_session(rng, rules_for_hosts)),
        Target::Snapshot => Input::Snapshot(gen::gen_snapshot_spec(rng), gen::gen_dat(rng)),
    }
}

/// Fuzz one target with the production matcher.
pub fn run_target(target: Target, config: &FuzzConfig) -> Outcome {
    run_target_with(target, config, &TrieFactory)
}

/// Fuzz one target with an injected matcher factory (the self-test hook:
/// a deliberately broken factory must produce findings).
pub fn run_target_with(
    target: Target,
    config: &FuzzConfig,
    factory: &dyn MatcherFactory,
) -> Outcome {
    let started = Instant::now();
    let mut outcome = Outcome { target, corpus_replayed: 0, iters_run: 0, findings: Vec::new() };
    let mut seen: Vec<String> = Vec::new();

    let record = |input: Input,
                  reason: String,
                  from_corpus: bool,
                  outcome: &mut Outcome,
                  seen: &mut Vec<String>| {
        let minimized = minimize_input(&input, factory);
        let key = minimized.serialize();
        if !seen.contains(&key) {
            seen.push(key);
            outcome.findings.push(Finding { reason, input: minimized, from_corpus });
        }
    };

    // Phase 1: replay the checked-in corpus (regressions fail fast, and
    // the entries double as mutation seeds below).
    let corpus: Vec<Input> = read_corpus(target).into_iter().map(|(_, i)| i).collect();
    for input in &corpus {
        outcome.corpus_replayed += 1;
        if let Err(reason) = run_check(|| check_input(input, factory)) {
            record(input.clone(), reason, true, &mut outcome, &mut seen);
            if outcome.findings.len() >= MAX_FINDINGS {
                return outcome;
            }
        }
    }

    // Phase 2: generate. The service target rebuilds a real TCP server per
    // input, so its effective budget is capped to keep `fuzz all` bounded.
    let iters = match target {
        Target::Service => config.iters.min(200),
        _ => config.iters,
    };
    let mut master = FuzzRng::new(config.seed);
    let mut lut = ListUnderTest::build(&gen::gen_dat(&mut master), factory);
    let service_rules: Vec<psl_core::Rule> = match target {
        Target::Service => service::shared_history().latest_snapshot().rules().to_vec(),
        Target::Cookie => cookie::shared_list().rules().to_vec(),
        _ => Vec::new(),
    };

    for i in 0..iters {
        if let Some(budget) = config.time_budget {
            if started.elapsed() > budget {
                break;
            }
        }
        let mut rng = master.fork();
        // Fresh rule set every 16 hostname iterations: matchers are built
        // once per set and queried for a batch of hosts.
        if target == Target::Hostname && i % 16 == 0 && i > 0 {
            lut = ListUnderTest::build(&gen::gen_dat(&mut rng), factory);
        }
        let rules = match target {
            Target::Hostname => lut.rules.clone(),
            _ => service_rules.clone(),
        };
        let input = generate_input(target, &mut rng, &lut.dat, &rules, &corpus);
        outcome.iters_run += 1;
        if let Err(reason) = run_check(|| check_input(&input, factory)) {
            record(input, reason, false, &mut outcome, &mut seen);
            if outcome.findings.len() >= MAX_FINDINGS {
                break;
            }
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_seed_runs_are_reproducible() {
        let config = FuzzConfig { seed: 11, iters: 40, time_budget: None };
        let a = run_target(Target::Dat, &config);
        let b = run_target(Target::Dat, &config);
        assert_eq!(a.iters_run, b.iters_run);
        assert_eq!(
            a.findings.iter().map(|f| f.input.serialize()).collect::<Vec<_>>(),
            b.findings.iter().map(|f| f.input.serialize()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn minimizer_preserves_failure() {
        // A synthetic failing input: minimize_input must return an input
        // that still fails its own check.
        struct AlwaysTrie;
        impl MatcherFactory for AlwaysTrie {
            fn build(
                &self,
                rules: &[psl_core::Rule],
            ) -> Box<dyn psl_conformance::ProductionMatcher> {
                Box::new(psl_core::List::from_rules(rules.to_vec()))
            }
        }
        let input = Input::Cookie("a.example.com".into(), "=1; Domain=example.com".into());
        if run_check(|| check_input(&input, &AlwaysTrie)).is_err() {
            let min = minimize_input(&input, &AlwaysTrie);
            assert!(run_check(|| check_input(&min, &AlwaysTrie)).is_err());
        }
    }
}
