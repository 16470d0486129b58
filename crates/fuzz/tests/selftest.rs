//! Fuzzer self-test: a fuzzer that never finds anything might be a fuzzer
//! that cannot find anything. These tests plant a bug behind the
//! [`MatcherFactory`] seam and require the hostname target to find and
//! minimize it within a small, fixed budget — and require the real
//! implementations to come up clean under the same budget.

use psl_conformance::ProductionMatcher;
use psl_core::{Disposition, List, MatchKind, MatchOpts, Rule, RuleKind, Section};
use psl_fuzz::{run_target, run_target_with, FuzzConfig, MatcherFactory, Target};

/// A production walk that silently rewrites every Exception answer into a
/// one-label-longer Wildcard answer — the classic "`!rule` support never
/// actually wired up" bug class.
struct ExceptionBlind(List);

impl ProductionMatcher for ExceptionBlind {
    fn disposition(&self, reversed: &[&str], opts: MatchOpts) -> Option<Disposition> {
        let d = self.0.disposition_reversed(reversed, opts)?;
        match d.kind {
            MatchKind::Rule(RuleKind::Exception) => Some(Disposition {
                suffix_len: d.suffix_len + 1,
                kind: MatchKind::Rule(RuleKind::Wildcard),
                section: Some(Section::Icann),
            }),
            _ => Some(d),
        }
    }
}

struct ExceptionBlindFactory;

impl MatcherFactory for ExceptionBlindFactory {
    fn build(&self, rules: &[Rule]) -> Box<dyn ProductionMatcher> {
        Box::new(ExceptionBlind(List::from_rules(rules.to_vec())))
    }
}

#[test]
fn planted_exception_bug_is_found_and_minimized_within_budget() {
    let config = FuzzConfig { seed: 2023, iters: 2000, time_budget: None };
    let outcome = run_target_with(Target::Hostname, &config, &ExceptionBlindFactory);
    let generated: Vec<_> = outcome.findings.iter().filter(|f| !f.from_corpus).collect();
    assert!(
        !generated.is_empty(),
        "self-test: the planted exception bug survived {} iterations",
        outcome.iters_run
    );
    for finding in &generated {
        assert!(finding.reason.contains("matcher divergence"), "{}", finding.reason);
        // The minimizer ran: whatever it kept still fits in a few lines.
        assert!(
            finding.input.serialize().lines().count() <= 8,
            "finding not minimized: {:?}",
            finding.input.serialize()
        );
    }
}

#[test]
fn fuzzing_is_deterministic_for_a_fixed_seed() {
    let config = FuzzConfig { seed: 99, iters: 400, time_budget: None };
    let a = run_target_with(Target::Hostname, &config, &ExceptionBlindFactory);
    let b = run_target_with(Target::Hostname, &config, &ExceptionBlindFactory);
    let ser =
        |o: &psl_fuzz::Outcome| o.findings.iter().map(|f| f.input.serialize()).collect::<Vec<_>>();
    assert_eq!(a.iters_run, b.iters_run);
    assert_eq!(ser(&a), ser(&b));
}

#[test]
fn real_implementations_survive_a_smoke_run_on_every_target() {
    for (target, iters) in [
        (Target::Hostname, 300u64),
        (Target::Dat, 300),
        (Target::Cookie, 300),
        (Target::Service, 20),
    ] {
        let outcome = run_target(target, &FuzzConfig { seed: 7, iters, time_budget: None });
        assert!(
            outcome.is_clean(),
            "{target} smoke run found {} finding(s); first: {}",
            outcome.findings.len(),
            outcome.findings[0].reason
        );
        assert_eq!(outcome.iters_run, iters);
    }
}
