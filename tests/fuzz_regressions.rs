//! Adversarial and pathological-input regression tests: every parser in
//! the workspace must degrade gracefully (typed errors, lenient skips),
//! never panic, hang, or mis-detect.

use psl_core::{parse_dat, DomainName, Rule, Section, SetCookie, Url};

#[test]
fn domain_parser_pathologies() {
    let cases: &[&str] = &[
        "",
        ".",
        "..",
        "...",
        "a.",
        ".a",
        "a..b",
        "-",
        "-.com",
        "a-.com",
        "xn--",
        "xn--a.com",
        "xn--\u{FFFD}.com",
        &"a".repeat(64),
        &format!("{}.com", "a.".repeat(130)),
        "☃.com",
        "a b.com",
        "a\tb.com",
        "a\0b.com",
        "🦀.🦀.🦀",
        "127.0.0.1",
        "::1",
        "[2001:db8::1]",
        "%2e.com",
        "a,b.com",
    ];
    for case in cases {
        // Must return (not panic); both outcomes are fine per-case.
        let _ = DomainName::parse(case);
    }
    // A few that MUST parse.
    assert!(DomainName::parse("xn--bcher-kva.example").is_ok());
    assert!(DomainName::parse("☃.com").is_ok()); // punycoded on the fly
    assert!(DomainName::parse("a.b.c.d.e.f.g.h").is_ok());
}

#[test]
fn rule_parser_pathologies() {
    for case in [
        "*", "**", "*.", ".*", "!", "!!", "!*", "*!", "*.*", "!.!", "!a", "*.a.*.b", "a*b.com",
        "! a.com", "* .com", "!!a.b",
    ] {
        let _ = Rule::parse(case, Section::Icann);
    }
    assert!(Rule::parse("*.ok.example", Section::Icann).is_ok());
    assert!(Rule::parse("!sub.ok.example", Section::Icann).is_ok());
}

#[test]
fn dat_parser_handles_hostile_files() {
    // Deeply commented, interleaved markers, mixed junk — the lenient
    // parser must produce a sane subset and collect errors.
    let hostile = format!(
        "{}\ncom\n// ===BEGIN PRIVATE DOMAINS===\n{}\nnet\n// ===END ICANN DOMAINS===\norg\n",
        "// junk\n".repeat(100),
        "!!!bad line\n*.*.worse\n"
    );
    let parsed = parse_dat(&hostile);
    assert!(parsed.len() >= 3);
    assert_eq!(parsed.errors.len(), 2);

    // A million-ish-byte single line must not blow up.
    let long_line = "a".repeat(500_000);
    let parsed = parse_dat(&long_line);
    assert_eq!(parsed.len(), 0);
    assert_eq!(parsed.errors.len(), 1);

    // Null bytes and control characters.
    let parsed = parse_dat("com\n\0\u{7}\u{1b}[31m\nnet\n");
    assert_eq!(parsed.len(), 2);
}

#[test]
fn url_parser_pathologies() {
    for case in [
        "://",
        "http://",
        "http:///path",
        "http://@",
        "http://:80",
        "http://[",
        "http://]",
        "http://[]",
        "http://[::1",
        "http://a:b:c",
        "https://example.com:-1",
        "https://example.com:999999",
        "h!tp://example.com",
        "http://%00.com",
        "http://xn--.com",
    ] {
        assert!(Url::parse(case).is_err(), "{case:?} should fail");
    }
    // Userinfo with @ in password-ish position.
    let u = Url::parse("http://user:p@ss@host.example.com/x").unwrap();
    assert_eq!(u.host.domain().unwrap().as_str(), "host.example.com");
}

#[test]
fn set_cookie_parser_pathologies() {
    for case in [
        "",
        ";",
        ";;;",
        "=v",
        "  =v",
        "a=b; domain=..",
        "a=b; domain=;",
        "a=b; path=",
        "a=b; path=relative",
        "a=b; Secure=yes-this-has-a-value",
    ] {
        let _ = SetCookie::parse(case);
    }
    let sc = SetCookie::parse("a=b; Domain=..").unwrap();
    // ".." strips one leading dot, leaving "." — kept as text; the jar
    // rejects it at DomainName::parse time.
    assert!(sc.domain.is_some());
}

#[test]
fn punycode_pathologies() {
    use psl_core::punycode::{decode, encode};
    for case in
        ["-", "--", "---", "a-", "-a", "999999999", "zzzzzzzzzz", "a-b-c-d-", &"9".repeat(100)]
    {
        let _ = decode(case);
    }
    // Encode of astral-plane and combining characters round-trips.
    for s in ["𝔭𝔰𝔩", "é́́é́́", "\u{10FFFF}"] {
        if let Ok(enc) = encode(s) {
            assert_eq!(decode(&enc).unwrap(), s);
        }
    }
}

#[test]
fn detector_survives_hostile_repositories() {
    use psl_history::{generate, GeneratorConfig};
    use psl_repocorpus::{find_psl_files, FileEntry, Repository};

    let h = generate(&GeneratorConfig::small(701));
    let reference: std::collections::HashSet<String> =
        h.latest_snapshot().rules().iter().map(|r| r.as_text()).collect();

    // A repo whose "PSL" is binary garbage under the magic filename.
    let garbage = Repository {
        name: "hostile/garbage".into(),
        stars: 0,
        forks: 0,
        last_commit: psl_core::Date::parse("2022-01-01").unwrap(),
        files: vec![FileEntry {
            path: "public_suffix_list.dat".into(),
            content: (0u8..=255u8).map(|b| b as char).collect::<String>().repeat(50),
        }],
        ground_truth: None,
    };
    // Known filename + unparsable content: parse yields few/no rules; the
    // detector must not panic and must not fabricate rule counts.
    let found = find_psl_files(&garbage, &reference);
    for f in &found {
        assert!(f.rule_count > 0);
    }

    // A repo with ten thousand tiny files.
    let many = Repository {
        name: "hostile/many-files".into(),
        stars: 0,
        forks: 0,
        last_commit: psl_core::Date::parse("2022-01-01").unwrap(),
        files: (0..10_000)
            .map(|i| FileEntry { path: format!("f{i}.txt"), content: format!("line{i}") })
            .collect(),
        ground_truth: None,
    };
    assert!(find_psl_files(&many, &reference).is_empty());
}
