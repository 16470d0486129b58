//! `pslharm` — drive the PSL privacy-harms reproduction pipeline.
//!
//! ```text
//! pslharm all     [--seed N] [--paper-scale] [--json PATH]   run everything
//! pslharm fig2|fig3|fig4|fig5|fig6|fig7                      one figure
//! pslharm table1|table2|table3                               one table
//! pslharm notify  [--seed N]                                 maintainer notifications
//! pslharm conformance [--seed N] [--json PATH]               vector suite + differential oracle
//! pslharm suffix <domain>...|-                               eTLD / eTLD+1 lookup (- = stdin batch)
//! pslharm serve   [--addr A] [--threads N] [--watch PATH]    run the query server
//! pslharm query   [--addr A] CMD [ARGS...]                   one protocol command
//! pslharm loadgen [--addr A] [--requests N] [--check]        replay load, report throughput
//! pslharm bench   [--seed N] [--json PATH]                   quick perf report + agreement gate
//! pslharm sweep   [--requests N] [--shards auto]            streaming Figs 5-7 at paper scale
//! pslharm fleet   [--sessions N] [--shards auto] [--sketch]  executed per-version-age harms
//! ```
//!
//! Scale: the default is a laptop-scale configuration (small history and
//! corpus, exact 273-repo corpus). `--paper-scale` switches the history to
//! the paper's 1,142 versions / 9,368 rules and a proportionally larger
//! corpus.

use psl_analysis::{build_substrates, report, run_all, FullReport, PipelineConfig};
use psl_core::{DomainName, MatchOpts};
use psl_history::DatingIndex;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match cmd {
        "all" => cmd_all(rest),
        "fig2" | "fig3" | "fig4" | "fig5" | "fig6" | "fig7" | "table1" | "table2" | "table3"
        | "cookieharm" | "dbound" | "certharm" | "updatefail" | "replay" | "categories" => {
            cmd_single(cmd, rest)
        }
        "notify" => cmd_notify(rest),
        "conformance" => cmd_conformance(rest),
        "suffix" => cmd_suffix(rest),
        "serve" => cmd_serve(rest),
        "query" => cmd_query(rest),
        "loadgen" => cmd_loadgen(rest),
        "bench" => cmd_bench(rest),
        "sweep" => cmd_sweep(rest),
        "fleet" => cmd_fleet(rest),
        "compile" => cmd_compile(rest),
        "inspect" => cmd_inspect(rest),
        "lint" => cmd_lint(rest),
        "blame" => cmd_blame(rest),
        "corpus-stats" => cmd_corpus_stats(rest),
        "fuzz" => cmd_fuzz(rest),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: pslharm <all|fig2..fig7|table1..table3|cookieharm|dbound|certharm|updatefail|replay|notify|conformance|suffix|serve|query|loadgen|bench|sweep|fleet|fuzz> \
[--seed N] [--paper-scale] [--threads N] [--json PATH] [--addr HOST:PORT] [domains...]
       pslharm fleet [--seed N] [--sessions N] [--shards N|auto] [--threads N] [--sketch] [--max-versions N] [--json PATH]
       pslharm serve [--addr HOST:PORT] [--http-addr HOST:PORT] [--max-conns N] [--reactor-workers N] [--watch PATH] [--mmap]
       pslharm loadgen [--addr HOST:PORT] [--requests N] [--connections N] [--batch N] [--check | --pipeline [--window N]]
       pslharm fuzz <hostname|dat|cookie|service|snapshot|all> [--seed N] [--iters N] [--time-budget SECS] [--write-corpus]
       pslharm bench [--seed N] [--threads N] [--requests N] [--scale-max E] [--json PATH]
       pslharm sweep [--seed N] [--requests N] [--shards N|auto] [--threads N] [--json PATH]
       pslharm compile [LIST.dat] --out PATH [--embedded | --history [--checkpoint-every N]] [--seed N]
       pslharm inspect PATH";

/// Common flags.
struct Flags {
    seed: u64,
    paper_scale: bool,
    threads: usize,
    json: Option<String>,
    markdown: Option<String>,
    addr: String,
    http_addr: Option<String>,
    max_conns: usize,
    reactor_workers: Option<usize>,
    watch: Option<String>,
    embedded: bool,
    requests: u64,
    connections: usize,
    batch: usize,
    pipeline: bool,
    window: usize,
    check: bool,
    iters: u64,
    time_budget: Option<u64>,
    write_corpus: bool,
    out: Option<String>,
    history: bool,
    checkpoint_every: u32,
    shards: usize,
    sketch: bool,
    scale_max: u32,
    sessions: u64,
    fleet_max: u32,
    max_versions: usize,
    mmap: bool,
    extra: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        seed: 42,
        paper_scale: false,
        threads: 0,
        json: None,
        markdown: None,
        addr: "127.0.0.1:7378".to_string(),
        http_addr: None,
        max_conns: 16_384,
        reactor_workers: None,
        watch: None,
        embedded: false,
        requests: 100_000,
        connections: 4,
        batch: 512,
        pipeline: false,
        window: 256,
        check: false,
        iters: 500,
        time_budget: None,
        write_corpus: false,
        out: None,
        history: false,
        checkpoint_every: psl_history::DEFAULT_CHECKPOINT_EVERY,
        shards: 0,
        sketch: false,
        scale_max: 6,
        sessions: 10_000,
        fleet_max: 6,
        max_versions: 0,
        mmap: false,
        extra: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                flags.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            "--paper-scale" => flags.paper_scale = true,
            "--threads" => {
                let v = it.next().ok_or("--threads needs a value")?;
                flags.threads = v.parse().map_err(|_| format!("bad thread count {v:?}"))?;
            }
            "--json" => {
                flags.json = Some(it.next().ok_or("--json needs a path")?.clone());
            }
            "--markdown" => {
                flags.markdown = Some(it.next().ok_or("--markdown needs a path")?.clone());
            }
            "--addr" => {
                flags.addr = it.next().ok_or("--addr needs host:port")?.clone();
            }
            "--http-addr" => {
                flags.http_addr = Some(it.next().ok_or("--http-addr needs host:port")?.clone());
            }
            "--max-conns" => {
                let v = it.next().ok_or("--max-conns needs a value")?;
                flags.max_conns = v.parse().map_err(|_| format!("bad --max-conns {v:?}"))?;
            }
            "--reactor-workers" => {
                let v = it.next().ok_or("--reactor-workers needs a value")?;
                flags.reactor_workers =
                    Some(v.parse().map_err(|_| format!("bad --reactor-workers {v:?}"))?);
            }
            "--pipeline" => flags.pipeline = true,
            "--window" => {
                let v = it.next().ok_or("--window needs a value")?;
                flags.window = v.parse().map_err(|_| format!("bad --window {v:?}"))?;
            }
            "--watch" => {
                flags.watch = Some(it.next().ok_or("--watch needs a path")?.clone());
            }
            "--embedded" => flags.embedded = true,
            "--requests" => {
                let v = it.next().ok_or("--requests needs a value")?;
                flags.requests = v.parse().map_err(|_| format!("bad request count {v:?}"))?;
            }
            "--connections" => {
                let v = it.next().ok_or("--connections needs a value")?;
                flags.connections = v.parse().map_err(|_| format!("bad connection count {v:?}"))?;
            }
            "--batch" => {
                let v = it.next().ok_or("--batch needs a value")?;
                flags.batch = v.parse().map_err(|_| format!("bad batch size {v:?}"))?;
            }
            "--check" => flags.check = true,
            "--iters" => {
                let v = it.next().ok_or("--iters needs a value")?;
                flags.iters = v.parse().map_err(|_| format!("bad iteration count {v:?}"))?;
            }
            "--time-budget" => {
                let v = it.next().ok_or("--time-budget needs seconds")?;
                flags.time_budget = Some(v.parse().map_err(|_| format!("bad time budget {v:?}"))?);
            }
            "--write-corpus" => flags.write_corpus = true,
            "--shards" => {
                let v = it.next().ok_or("--shards needs a value or 'auto'")?;
                flags.shards = if v == "auto" {
                    0
                } else {
                    v.parse().map_err(|_| format!("bad shard count {v:?}"))?
                };
            }
            "--sketch" => flags.sketch = true,
            "--sessions" => {
                let v = it.next().ok_or("--sessions needs a value")?;
                flags.sessions = v.parse().map_err(|_| format!("bad session count {v:?}"))?;
            }
            "--fleet-max" => {
                let v = it.next().ok_or("--fleet-max needs an exponent")?;
                flags.fleet_max = v.parse().map_err(|_| format!("bad --fleet-max {v:?}"))?;
                if !(4..=8).contains(&flags.fleet_max) {
                    return Err("--fleet-max must be in 4..=8".into());
                }
            }
            "--max-versions" => {
                let v = it.next().ok_or("--max-versions needs a value")?;
                flags.max_versions = v.parse().map_err(|_| format!("bad --max-versions {v:?}"))?;
            }
            "--scale-max" => {
                let v = it.next().ok_or("--scale-max needs an exponent")?;
                flags.scale_max = v.parse().map_err(|_| format!("bad --scale-max {v:?}"))?;
                if !(5..=9).contains(&flags.scale_max) {
                    return Err("--scale-max must be in 5..=9".into());
                }
            }
            "--mmap" => flags.mmap = true,
            "--out" => {
                flags.out = Some(it.next().ok_or("--out needs a path")?.clone());
            }
            "--history" => flags.history = true,
            "--checkpoint-every" => {
                let v = it.next().ok_or("--checkpoint-every needs a value")?;
                flags.checkpoint_every =
                    v.parse().map_err(|_| format!("bad checkpoint cadence {v:?}"))?;
                if flags.checkpoint_every == 0 {
                    return Err("--checkpoint-every must be >= 1".into());
                }
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag {other:?}"));
            }
            other => flags.extra.push(other.to_string()),
        }
    }
    Ok(flags)
}

fn config_for(flags: &Flags) -> PipelineConfig {
    let mut config = if flags.paper_scale {
        let mut config = PipelineConfig::default();
        config.history.seed = flags.seed;
        config.corpus.seed = flags.seed.wrapping_add(1);
        config.repos.seed = flags.seed.wrapping_add(2);
        config
    } else {
        PipelineConfig::small(flags.seed)
    };
    config.sweep.threads = flags.threads;
    config.sweep.shards = flags.shards;
    config
}

fn cmd_all(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let config = config_for(&flags);
    eprintln!("generating substrates (seed {}) ...", flags.seed);
    let subs = build_substrates(&config);
    eprintln!(
        "history: {} versions, {} rules latest; corpus: {} hosts, {} requests; repos: {}",
        subs.history.version_count(),
        subs.history.rule_count_at(subs.history.latest_version()),
        subs.corpus.host_count(),
        subs.corpus.request_count(),
        subs.repos.len(),
    );
    eprintln!("running experiments ...");
    let full = run_all(&subs, &config);
    print_fig2(&full);
    print_table1(&full);
    print_fig3(&full);
    print_fig4(&full);
    print_figs567(&full);
    print_table2(&full);
    print_table3(&full, 20);
    print_cookie_harm(&full);
    print_dbound(&full);
    print_cert_harm(&full);
    print_update_failure(&full);
    print_replay(&full);
    print_category_shift(&full);
    if let Some(path) = flags.json {
        std::fs::write(&path, full.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if let Some(path) = flags.markdown {
        std::fs::write(&path, psl_analysis::render_markdown(&full))
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

fn cmd_single(which: &str, args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let config = config_for(&flags);
    let subs = build_substrates(&config);
    let full = run_all(&subs, &config);
    match which {
        "fig2" => print_fig2(&full),
        "table1" => print_table1(&full),
        "fig3" => print_fig3(&full),
        "fig4" => print_fig4(&full),
        "fig5" | "fig6" | "fig7" => print_figs567(&full),
        "table2" => print_table2(&full),
        "table3" => print_table3(&full, usize::MAX),
        "cookieharm" => print_cookie_harm(&full),
        "dbound" => print_dbound(&full),
        "certharm" => print_cert_harm(&full),
        "updatefail" => print_update_failure(&full),
        "replay" => print_replay(&full),
        "categories" => print_category_shift(&full),
        _ => unreachable!("validated by caller"),
    }
    if let Some(path) = flags.json {
        std::fs::write(&path, full.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
    }
    if let Some(path) = flags.markdown {
        std::fs::write(&path, psl_analysis::render_markdown(&full))
            .map_err(|e| format!("writing {path}: {e}"))?;
    }
    Ok(())
}

fn cmd_notify(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let config = config_for(&flags);
    let subs = build_substrates(&config);
    let index = DatingIndex::build(&subs.history);
    let reference = subs.history.latest_snapshot();
    let mut sent = 0;
    for repo in &subs.repos.repos {
        let det = psl_repocorpus::detect(repo, &reference, &index, &config.detector);
        let Some(class) = det.class else { continue };
        if let Some(text) =
            psl_repocorpus::notification(repo, class, det.dated, subs.repos.observed_at)
        {
            println!("{text}");
            println!("{}", "=".repeat(72));
            sent += 1;
        }
    }
    eprintln!("{sent} notifications rendered");
    Ok(())
}

fn cmd_conformance(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let config = config_for(&flags);

    // 1. Shipped checkPublicSuffix vectors against the embedded snapshot.
    let list = psl_core::embedded_list();
    let vectors = psl_conformance::parse_vectors(psl_conformance::SHIPPED_VECTORS)
        .map_err(|e| e.to_string())?;
    let shipped = psl_conformance::run_vectors(&list, &vectors, MatchOpts::default());
    println!(
        "shipped vectors:    {}/{} pass against the embedded list",
        shipped.passed, shipped.total
    );
    for f in shipped.failures.iter().take(10) {
        println!("  FAIL {f}");
    }

    // 2. Vectors derived from the generated latest list (expectations come
    //    from the linear reference matcher, evaluation uses the trie).
    eprintln!("generating history (seed {}) ...", flags.seed);
    let history = psl_history::generate(&config.history);
    let latest = history.latest_snapshot();
    let generated_vectors = psl_conformance::generate_vectors(
        &latest,
        &psl_conformance::GenerateConfig { seed: flags.seed, ..Default::default() },
    );
    let generated = psl_conformance::run_vectors(&latest, &generated_vectors, MatchOpts::default());
    println!(
        "generated vectors:  {}/{} pass against the latest generated list",
        generated.passed, generated.total
    );
    for f in generated.failures.iter().take(10) {
        println!("  FAIL {f}");
    }

    // 3. Four-way differential sweep over every history version.
    let hosts = psl_conformance::probe_corpus(&history, flags.seed.wrapping_add(3), 10_000);
    eprintln!(
        "differential sweep: {} versions x {} hostnames x 3 option sets x 4 executors ...",
        history.version_count(),
        hosts.len()
    );
    let sweep = psl_conformance::sweep_history(&history, &hosts, 0);
    println!(
        "differential sweep: {} comparisons over {} versions, {} divergences",
        sweep.comparisons,
        sweep.versions,
        sweep.divergences.len()
    );
    for d in sweep.divergences.iter().take(10) {
        println!(
            "  DIVERGENCE at {}: {} (minimized: {}) trie={} linear={} naive={} frozen={}",
            d.version.as_deref().unwrap_or("-"),
            d.host,
            d.minimized,
            d.production,
            d.linear,
            d.naive,
            d.frozen
        );
    }

    if let Some(path) = flags.json {
        let payload = serde_json::to_string_pretty(&(&shipped, &generated, &sweep))
            .map_err(|e| e.to_string())?;
        std::fs::write(&path, payload).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }

    if !shipped.is_pass() || !generated.is_pass() || !sweep.is_pass() {
        return Err("conformance failures detected".into());
    }
    println!("conformance: PASS");
    Ok(())
}

fn cmd_suffix(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    if flags.extra.is_empty() {
        return Err("suffix: give at least one domain name (or - for stdin)".into());
    }
    // Real-world lookups use the embedded snapshot of the real list; the
    // generated history is for the experiments.
    let list = psl_core::embedded_list();
    let opts = MatchOpts::default();

    // `suffix -` streams newline-delimited hosts from stdin through the same
    // lookup path the server uses, emitting TSV (host, suffix, site).
    if flags.extra.len() == 1 && flags.extra[0] == "-" {
        use std::io::{BufRead, Write};
        let stdin = std::io::stdin();
        let stdout = std::io::stdout();
        let mut out = std::io::BufWriter::new(stdout.lock());
        for line in stdin.lock().lines() {
            let line = line.map_err(|e| format!("reading stdin: {e}"))?;
            let host = line.trim();
            if host.is_empty() {
                continue;
            }
            match DomainName::parse(host) {
                Ok(dom) => {
                    let resolved = psl_service::lookup::resolve(&list, &dom, opts);
                    writeln!(
                        out,
                        "{host}\t{}\t{}",
                        resolved.suffix.as_deref().unwrap_or("-"),
                        resolved.site
                    )
                }
                Err(e) => writeln!(out, "{host}\tinvalid: {e}\t-"),
            }
            .map_err(|e| format!("writing stdout: {e}"))?;
        }
        out.flush().map_err(|e| format!("writing stdout: {e}"))?;
        return Ok(());
    }

    let rows: Vec<Vec<String>> = flags
        .extra
        .iter()
        .map(|raw| match DomainName::parse(raw) {
            Ok(dom) => {
                let resolved = psl_service::lookup::resolve(&list, &dom, opts);
                vec![
                    raw.clone(),
                    resolved.suffix.unwrap_or_else(|| "-".into()),
                    resolved.registrable.unwrap_or_else(|| "-".into()),
                ]
            }
            Err(e) => vec![raw.clone(), format!("invalid: {e}"), "-".into()],
        })
        .collect();
    println!("{}", report::render_table(&["domain", "public suffix", "registrable domain"], &rows));
    Ok(())
}

// ---- Service commands -----------------------------------------------------

/// Build the snapshot store + engine shared by `serve`. By default the
/// server answers from the generated history's latest snapshot (so
/// `loadgen --check` can recompute expectations from the same `--seed`);
/// `--embedded` serves the real embedded list instead, and `--watch PATH`
/// loads (and hot-reloads) a `.dat` file or compiled binary snapshot
/// (format sniffed by magic, see `pslharm compile`).
fn build_engine(flags: &Flags) -> Result<std::sync::Arc<psl_service::Engine>, String> {
    use std::sync::Arc;
    let config = config_for(flags);
    eprintln!("generating history (seed {}) ...", flags.seed);
    let history = Arc::new(psl_history::generate(&config.history));
    let latest = history.latest_version();

    let store = if let Some(path) = &flags.watch {
        // --mmap serves a compiled snapshot in place from the page cache;
        // the watcher republishes new mappings on file change.
        let served = psl_service::load_served_file(std::path::Path::new(path), flags.mmap)?;
        Arc::new(psl_core::SnapshotStore::new(path.clone(), None, served))
    } else if flags.embedded {
        psl_service::owned_store("embedded", None, psl_core::embedded_list())
    } else {
        psl_service::owned_store(
            format!("history:{latest}"),
            Some(latest),
            history.latest_snapshot(),
        )
    };
    let workers = if flags.threads == 0 { 4 } else { flags.threads };
    Ok(psl_service::Engine::new(
        store,
        Some(history),
        psl_service::EngineConfig { workers, ..Default::default() },
        psl_service::monotonic_clock(),
    ))
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    if !flags.extra.is_empty() {
        return Err(format!("serve: unexpected arguments {:?}", flags.extra));
    }
    let engine = build_engine(&flags)?;
    let watch = flags
        .watch
        .as_ref()
        .map(|p| (std::path::PathBuf::from(p), std::time::Duration::from_millis(500)));
    let server = psl_service::Server::bind_with(
        std::sync::Arc::clone(&engine),
        psl_service::ServerConfig {
            addr: flags.addr.clone(),
            watch,
            mmap: flags.mmap,
            ..Default::default()
        },
        psl_service::ReactorOptions {
            http_addr: flags.http_addr.clone(),
            max_conns: flags.max_conns,
            workers: flags.reactor_workers,
            ..Default::default()
        },
    )
    .map_err(|e| format!("binding {}: {e}", flags.addr))?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let snap = engine.store().load();
    let workers = flags.reactor_workers.unwrap_or(engine.config().workers).max(1);
    println!(
        "pslharm serve: listening on {addr} ({} workers, snapshot {} / {} rules)",
        workers,
        snap.label,
        snap.list.rules()
    );
    if let Some(http) = server.http_local_addr() {
        let http = http.map_err(|e| e.to_string())?;
        println!("pslharm serve: admin plane on http://{http} (max {} conns)", flags.max_conns);
    }
    // Make sure the "listening" line is visible to anyone piping us (the CI
    // smoke step backgrounds this process and greps for it).
    use std::io::Write;
    std::io::stdout().flush().ok();
    server.run().map_err(|e| format!("server: {e}"))?;
    println!("pslharm serve: shut down cleanly");
    Ok(())
}

fn cmd_query(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    if flags.extra.is_empty() {
        return Err(
            "query: give a protocol command, e.g. `pslharm query SUFFIX example.com`".into()
        );
    }
    let command = flags.extra.join(" ");
    let response = psl_service::query_once(&flags.addr, &command)
        .map_err(|e| format!("{}: {e}", flags.addr))?;
    println!("{response}");
    Ok(())
}

fn cmd_loadgen(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    if !flags.extra.is_empty() {
        return Err(format!("loadgen: unexpected arguments {:?}", flags.extra));
    }
    let config = config_for(&flags);
    eprintln!("generating history + corpus (seed {}) ...", flags.seed);
    let history = psl_history::generate(&config.history);
    let corpus = psl_webcorpus::generate_corpus(&history, &config.corpus);
    let hosts: Vec<String> = corpus.hosts().iter().map(|h| h.as_str().to_string()).collect();

    if flags.pipeline {
        if flags.check {
            return Err("loadgen: --pipeline counts responses; it cannot --check them".into());
        }
        let report = psl_service::loadgen::run_pipelined(
            &psl_service::PipelineConfig {
                addr: flags.addr.clone(),
                connections: flags.connections,
                requests: flags.requests,
                batch: flags.batch,
                window: flags.window,
                drivers: if flags.threads == 0 { 2 } else { flags.threads },
                ..Default::default()
            },
            &hosts,
        )?;
        let payload = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
        println!("{payload}");
        if let Some(path) = &flags.json {
            std::fs::write(path, &payload).map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote {path}");
        }
        if report.errors > 0 {
            return Err(format!("loadgen: {} protocol errors", report.errors));
        }
        if report.disconnects > 0 {
            return Err(format!("loadgen: {} connections dropped mid-run", report.disconnects));
        }
        return Ok(());
    }

    // --check recomputes the expected answer for every host directly from
    // the latest generated snapshot; it is only meaningful against a server
    // started with the same --seed / --paper-scale (the default for serve).
    let expected: Option<Vec<String>> = if flags.check {
        let latest = history.latest_snapshot();
        let opts = MatchOpts::default();
        Some(
            hosts
                .iter()
                .map(|h| latest.site(&DomainName::parse(h).unwrap(), opts).as_str().to_string())
                .collect(),
        )
    } else {
        None
    };

    let report = psl_service::loadgen::run(
        &psl_service::LoadgenConfig {
            addr: flags.addr.clone(),
            requests: flags.requests,
            connections: flags.connections,
            batch: flags.batch,
            check: flags.check,
        },
        &hosts,
        expected.as_deref(),
    )?;
    let payload = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    println!("{payload}");
    if let Some(path) = &flags.json {
        std::fs::write(path, &payload).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    if report.errors > 0 {
        return Err(format!("loadgen: {} protocol errors", report.errors));
    }
    if flags.check && report.mismatches > 0 {
        return Err(format!("loadgen: {} mismatched answers", report.mismatches));
    }
    Ok(())
}

// ---- Bench ----------------------------------------------------------------

/// The machine-readable output of `pslharm bench --json`.
#[derive(serde::Serialize)]
struct BenchReport {
    seed: u64,
    environment: BenchEnv,
    engine: EngineBench,
    coldstart: ColdstartBench,
    sweep: SweepBench,
    sweep_scale: SweepScaleBench,
    fleet_scale: FleetScaleBench,
    loadgen: LoadgenBench,
    reactor: ReactorBench,
    agreement: AgreementBench,
}

/// Where the numbers came from: without this block a benchmark file is
/// uninterpretable once the machine changes.
#[derive(serde::Serialize)]
struct BenchEnv {
    /// Logical CPU count visible to the process.
    logical_cores: usize,
    /// Kernel release string (`/proc/sys/kernel/osrelease`).
    kernel: String,
    /// Compiler that produced this binary (captured at build time).
    rustc: String,
}

impl BenchEnv {
    fn capture() -> BenchEnv {
        BenchEnv {
            logical_cores: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(0),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".into()),
            rustc: env!("PSLHARM_RUSTC_VERSION").to_string(),
        }
    }
}

/// Single-host lookup latency for each matching path.
#[derive(serde::Serialize)]
struct EngineBench {
    hosts: usize,
    trie_ns_per_lookup: f64,
    frozen_str_ns_per_lookup: f64,
    frozen_ids_ns_per_lookup: f64,
    speedup_ids_vs_trie: f64,
    peak_rss_bytes: Option<u64>,
}

/// Cold start: parsing + compiling `.dat` text vs. loading the compiled
/// binary snapshot of the same list (`pslharm compile`).
#[derive(serde::Serialize)]
struct ColdstartBench {
    rules: usize,
    snapshot_bytes: usize,
    /// `.dat` text → rules → compiled arena (`List::parse`).
    parse_compile_us: f64,
    /// Snapshot bytes → validated, query-ready zero-copy view
    /// (`SnapshotView::parse` — answers dispositions straight off the
    /// mapped bytes, the cold-start fast path).
    view_parse_us: f64,
    /// Snapshot bytes → validated owned arena (`FrozenList::load`).
    arena_load_us: f64,
    /// Snapshot bytes → full `List` incl. decompiled rule text
    /// (`List::load_snapshot` — only needed when the rule set itself must
    /// be re-emitted or diffed).
    full_load_us: f64,
    /// `parse_compile_us / view_parse_us`: how much faster a process is
    /// answering its first query from a snapshot than from `.dat` text.
    speedup: f64,
    peak_rss_bytes: Option<u64>,
}

/// Full-history sweep wall clock: the per-version rebuild oracle vs. the
/// engine.
#[derive(serde::Serialize)]
struct SweepBench {
    versions: usize,
    hosts: usize,
    /// The engine's worker threads (the configured `0` placeholder is
    /// resolved to the machine's parallelism before recording).
    threads: usize,
    rebuild_ms: f64,
    engine_ms: f64,
    speedup: f64,
    peak_rss_bytes: Option<u64>,
}

/// Streaming-sweep scale curve: 10^5 → 10^`max_exponent` requests driven
/// through every list version without materializing the corpus. The host
/// population is fixed by the corpus configuration, so peak RSS must stay
/// flat as requests grow — the "scale is a non-event" criterion.
#[derive(serde::Serialize)]
struct SweepScaleBench {
    max_exponent: u32,
    points: Vec<SweepScalePoint>,
}

/// One point on the streaming-sweep scale curve.
#[derive(serde::Serialize)]
struct SweepScalePoint {
    requests_target: u64,
    requests_streamed: u64,
    versions: usize,
    threads: usize,
    shards: usize,
    wall_seconds: f64,
    requests_per_s: f64,
    peak_rss_bytes: Option<u64>,
    sites_latest: usize,
}

/// Fleet scale curve: 10^4 → 10^`max_exponent` sessions executed against
/// every sampled version paired with the latest. Sessions are derived
/// from seeds and harms fold into fixed-size accumulators, so peak RSS
/// must stay flat as the session count grows while sessions/s holds.
#[derive(serde::Serialize)]
struct FleetScaleBench {
    max_exponent: u32,
    /// The smallest point was re-run at a different thread and shard
    /// count and produced a byte-identical harm table.
    determinism_checked: bool,
    points: Vec<FleetScalePoint>,
}

/// One point on the fleet scale curve.
#[derive(serde::Serialize)]
struct FleetScalePoint {
    sessions: u64,
    versions: usize,
    threads: usize,
    shards: usize,
    wall_seconds: f64,
    sessions_per_s: f64,
    /// `sessions × versions` paired replays per second — the raw engine
    /// throughput.
    session_executions_per_s: f64,
    peak_rss_bytes: Option<u64>,
    /// Leaked-cookie count for the oldest sampled version (sanity: the
    /// fleet must execute real harm, not stream zeros quickly).
    leaked_cookies_oldest: u64,
}

/// Loopback server throughput under the replayed corpus.
#[derive(serde::Serialize)]
struct LoadgenBench {
    requests: u64,
    /// Engine worker threads the loopback server ran with.
    threads: usize,
    lookups_per_s: f64,
    cache_hit_ratio: f64,
    peak_rss_bytes: Option<u64>,
}

/// Connections-vs-throughput curve for the epoll reactor, measured with
/// the pipelined load generator (many `BATCH` frames in flight per
/// connection, a few driver threads multiplexing all sockets).
#[derive(serde::Serialize)]
struct ReactorBench {
    /// The process fd budget the top curve point was derived from.
    nofile_limit: u64,
    batch: usize,
    window: usize,
    /// Reactor worker threads the child server ran with.
    server_threads: usize,
    /// Loadgen driver threads multiplexing the client sockets.
    driver_threads: usize,
    points: Vec<ReactorPoint>,
    /// Client-side peak RSS (the server is a child process).
    peak_rss_bytes: Option<u64>,
}

/// One point on the reactor curve.
#[derive(serde::Serialize)]
struct ReactorPoint {
    connections: usize,
    established: usize,
    requests: u64,
    completed: u64,
    disconnects: u64,
    elapsed_seconds: f64,
    lookups_per_s: f64,
}

/// The four-way executor agreement gate the numbers are only valid under.
#[derive(serde::Serialize)]
struct AgreementBench {
    shipped_vectors: usize,
    sweep_comparisons: u64,
    divergences: usize,
    peak_rss_bytes: Option<u64>,
}

/// Best-of-`reps` wall clock for `f` after `warmup` discarded runs. The
/// accumulated return value is black-boxed so the work cannot be elided.
fn time_best(warmup: u32, reps: u32, mut f: impl FnMut() -> u64) -> std::time::Duration {
    let mut sink = 0u64;
    for _ in 0..warmup {
        sink = sink.wrapping_add(f());
    }
    let mut best = std::time::Duration::MAX;
    for _ in 0..reps {
        let start = std::time::Instant::now();
        sink = sink.wrapping_add(f());
        best = best.min(start.elapsed());
    }
    std::hint::black_box(sink);
    best
}

fn cmd_bench(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    if !flags.extra.is_empty() {
        return Err(format!("bench: unexpected arguments {:?}", flags.extra));
    }
    let config = config_for(&flags);
    eprintln!("generating history + corpus (seed {}) ...", flags.seed);
    let history = psl_history::generate(&config.history);
    let stream = psl_webcorpus::build_stream(&history, &config.corpus);
    let corpus = stream.materialize();
    let latest = history.latest_snapshot();

    // 1. Engine micro-bench: the same 1,000-host batch through the three
    //    lookup paths (pointer-chasing trie, compiled arena from string
    //    labels, compiled arena from pre-interned ids).
    psl_stats::reset_peak_rss();
    let trie = psl_core::SuffixTrie::from_rules(latest.rules());
    let opts = config.sweep.opts;
    let hosts_rev: Vec<Vec<&str>> =
        corpus.hosts().iter().take(1000).map(|h| h.labels_reversed()).collect();
    let host_ids: Vec<Vec<u32>> = hosts_rev
        .iter()
        .map(|h| {
            let mut ids = Vec::new();
            latest.reversed_ids(h, &mut ids);
            ids
        })
        .collect();
    let n = hosts_rev.len();
    let trie_best = time_best(3, 20, || {
        hosts_rev.iter().map(|h| trie.disposition(h, opts).map_or(0, |d| d.suffix_len as u64)).sum()
    });
    let frozen_str_best = time_best(3, 20, || {
        hosts_rev
            .iter()
            .map(|h| latest.disposition_reversed(h, opts).map_or(0, |d| d.suffix_len as u64))
            .sum()
    });
    let frozen_ids_best = time_best(3, 20, || {
        host_ids
            .iter()
            .map(|ids| latest.disposition_ids(ids, opts).map_or(0, |d| d.suffix_len as u64))
            .sum()
    });
    let per = |d: std::time::Duration| d.as_nanos() as f64 / n as f64;
    let engine = EngineBench {
        hosts: n,
        trie_ns_per_lookup: per(trie_best),
        frozen_str_ns_per_lookup: per(frozen_str_best),
        frozen_ids_ns_per_lookup: per(frozen_ids_best),
        speedup_ids_vs_trie: per(trie_best) / per(frozen_ids_best).max(f64::EPSILON),
        peak_rss_bytes: psl_stats::peak_rss_bytes(),
    };
    eprintln!(
        "engine: trie {:.1} ns/lookup, frozen(str) {:.1}, frozen(ids) {:.1} ({:.2}x vs trie)",
        engine.trie_ns_per_lookup,
        engine.frozen_str_ns_per_lookup,
        engine.frozen_ids_ns_per_lookup,
        engine.speedup_ids_vs_trie
    );

    // 2. Cold start: text parse+compile vs. binary snapshot load for the
    //    same list — the number that justifies shipping snapshots at all.
    psl_stats::reset_peak_rss();
    let dat_text = latest.to_dat();
    let snap_bytes = latest.write_snapshot();
    let parse_best = time_best(2, 10, || psl_core::List::parse(&dat_text).len() as u64);
    let view_parse_best = time_best(2, 10, || {
        // Parse + one real lookup: the timed unit is "process can answer
        // its first query", not just header validation.
        let view = psl_core::SnapshotView::parse(&snap_bytes).expect("own snapshot");
        let d = view.disposition(&["com", "example"], psl_core::MatchOpts::default());
        view.rules() as u64 + d.is_some() as u64
    });
    let arena_load_best = time_best(2, 10, || {
        let (_, frozen) = psl_core::FrozenList::load(&snap_bytes).expect("own snapshot");
        frozen.len() as u64
    });
    let full_load_best = time_best(2, 10, || {
        psl_core::List::load_snapshot(&snap_bytes).expect("own snapshot").len() as u64
    });
    let us = |d: std::time::Duration| d.as_nanos() as f64 / 1e3;
    let coldstart = ColdstartBench {
        rules: latest.len(),
        snapshot_bytes: snap_bytes.len(),
        parse_compile_us: us(parse_best),
        view_parse_us: us(view_parse_best),
        arena_load_us: us(arena_load_best),
        full_load_us: us(full_load_best),
        speedup: us(parse_best) / us(view_parse_best).max(f64::EPSILON),
        peak_rss_bytes: psl_stats::peak_rss_bytes(),
    };
    eprintln!(
        "coldstart: {} rules: parse+compile {:.0} us, snapshot view {:.0} us ({:.1}x), \
         arena load {:.0} us, full list load {:.0} us ({} KiB snapshot)",
        coldstart.rules,
        coldstart.parse_compile_us,
        coldstart.view_parse_us,
        coldstart.speedup,
        coldstart.arena_load_us,
        coldstart.full_load_us,
        coldstart.snapshot_bytes / 1024
    );

    // 3. Agreement gate: the shipped vectors plus a four-way differential
    //    sweep over every history version. Nonzero divergences fail the
    //    whole bench (numbers from a wrong matcher are worthless).
    psl_stats::reset_peak_rss();
    let vectors = psl_conformance::parse_vectors(psl_conformance::SHIPPED_VECTORS)
        .map_err(|e| e.to_string())?;
    let shipped =
        psl_conformance::run_vectors(&psl_core::embedded_list(), &vectors, MatchOpts::default());
    let probe = psl_conformance::probe_corpus(&history, flags.seed.wrapping_add(3), 2_000);
    let oracle = psl_conformance::sweep_history(&history, &probe, 0);
    let agreement = AgreementBench {
        shipped_vectors: shipped.total,
        sweep_comparisons: oracle.comparisons as u64,
        divergences: oracle.divergences.len() + shipped.failures.len(),
        peak_rss_bytes: psl_stats::peak_rss_bytes(),
    };
    eprintln!(
        "agreement: {} shipped vectors, {} differential comparisons, {} divergences",
        agreement.shipped_vectors, agreement.sweep_comparisons, agreement.divergences
    );

    // 4. Full-history sweep wall clock: the snapshot-rebuild oracle vs.
    //    the engine (version walk + one streamed pass). Any difference in
    //    the per-version stats fails the bench.
    psl_stats::reset_peak_rss();
    let t = std::time::Instant::now();
    let rebuild = psl_analysis::sweep_rebuild(&history, &corpus, config.sweep.opts);
    let rebuild_ms = t.elapsed().as_secs_f64() * 1e3;
    let t = std::time::Instant::now();
    let walked = psl_analysis::sweep_stream(&history, &stream, &config.sweep);
    let engine_ms = t.elapsed().as_secs_f64() * 1e3;
    if rebuild != walked.stats {
        return Err("bench: the sweep engine disagrees with the rebuild oracle".into());
    }
    let sweep = SweepBench {
        versions: walked.stats.len(),
        hosts: corpus.host_count(),
        threads: walked.threads,
        rebuild_ms,
        engine_ms,
        speedup: rebuild_ms / engine_ms.max(f64::EPSILON),
        peak_rss_bytes: psl_stats::peak_rss_bytes(),
    };
    eprintln!(
        "sweep: {} versions x {} hosts: rebuild {:.0} ms, engine {:.0} ms ({:.2}x)",
        sweep.versions, sweep.hosts, sweep.rebuild_ms, sweep.engine_ms, sweep.speedup
    );

    // 5. Loopback server + load generator: end-to-end lookups/s over TCP.
    psl_stats::reset_peak_rss();
    let bench_history = std::sync::Arc::new(history);
    let bench_store = psl_service::owned_store(
        format!("history:{}", bench_history.latest_version()),
        Some(bench_history.latest_version()),
        bench_history.latest_snapshot(),
    );
    let loadgen = {
        use std::sync::Arc;
        let history = Arc::clone(&bench_history);
        let store = Arc::clone(&bench_store);
        let workers = if flags.threads == 0 { 4 } else { flags.threads };
        let engine = psl_service::Engine::new(
            store,
            Some(Arc::clone(&history)),
            psl_service::EngineConfig { workers, ..Default::default() },
            psl_service::monotonic_clock(),
        );
        let server = psl_service::Server::bind(
            Arc::clone(&engine),
            psl_service::ServerConfig {
                addr: "127.0.0.1:0".to_string(),
                read_timeout: std::time::Duration::from_millis(50),
                ..Default::default()
            },
        )
        .map_err(|e| format!("bench: binding loopback server: {e}"))?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let stop = server.stop_handle();
        let join = std::thread::spawn(move || server.run());
        let hosts: Vec<String> = corpus.hosts().iter().map(|h| h.as_str().to_string()).collect();
        let report = psl_service::loadgen::run(
            &psl_service::LoadgenConfig {
                addr: addr.to_string(),
                requests: flags.requests,
                connections: flags.connections,
                batch: flags.batch,
                check: false,
            },
            &hosts,
            None,
        );
        stop.stop();
        join.join().map_err(|_| "bench: server thread panicked")?.map_err(|e| e.to_string())?;
        let report = report?;
        if report.errors > 0 {
            return Err(format!("bench: loadgen saw {} protocol errors", report.errors));
        }
        LoadgenBench {
            requests: report.requests,
            threads: workers,
            lookups_per_s: report.throughput_rps,
            cache_hit_ratio: report.cache_hit_ratio,
            peak_rss_bytes: psl_stats::peak_rss_bytes(),
        }
    };
    eprintln!(
        "loadgen: {} requests at {:.0} lookups/s (cache hit ratio {:.3})",
        loadgen.requests, loadgen.lookups_per_s, loadgen.cache_hit_ratio
    );

    // 6. Reactor curve: established-connection count vs. pipelined
    //    throughput. The server runs as a child `pslharm serve` process so
    //    client and server each get a full RLIMIT_NOFILE budget — in one
    //    process every connection costs two fds and a 20k hard cap (a
    //    common container ceiling) tops out below 10k connections.
    let reactor = {
        psl_stats::reset_peak_rss();
        let nofile_limit = psl_service::reactor::epoll::raise_nofile_limit(24_000);
        let top = 10_000.min(nofile_limit.saturating_sub(1_024) as usize).max(1);
        let exe = std::env::current_exe().map_err(|e| format!("bench: current_exe: {e}"))?;
        let mut child = std::process::Command::new(exe)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--seed",
                &flags.seed.to_string(),
                "--threads",
                &if flags.threads == 0 { 4 } else { flags.threads }.to_string(),
                "--max-conns",
                &(top + 64).to_string(),
            ])
            .stdout(std::process::Stdio::piped())
            .stderr(std::process::Stdio::null())
            .spawn()
            .map_err(|e| format!("bench: spawning reactor server: {e}"))?;
        // Kill the child on any error path below; a kill after a clean
        // shutdown is a harmless no-op.
        struct ChildGuard(std::process::Child);
        impl Drop for ChildGuard {
            fn drop(&mut self) {
                let _ = self.0.kill();
                let _ = self.0.wait();
            }
        }
        let stdout = child.stdout.take().expect("stdout piped");
        let mut guard = ChildGuard(child);
        let addr = {
            use std::io::BufRead;
            let mut lines = std::io::BufReader::new(stdout).lines();
            loop {
                let line = lines
                    .next()
                    .ok_or("bench: reactor server exited before listening")?
                    .map_err(|e| format!("bench: reading server output: {e}"))?;
                if let Some(rest) = line.split("listening on ").nth(1) {
                    break rest
                        .split_whitespace()
                        .next()
                        .ok_or("bench: malformed listening line")?
                        .to_string();
                }
            }
        };
        let hosts: Vec<String> = corpus.hosts().iter().map(|h| h.as_str().to_string()).collect();

        let (batch, window) = (64, flags.window.max(64));
        let mut points = Vec::new();
        for &connections in &[1usize, 64, 512, 2_048, top] {
            if points.iter().any(|p: &ReactorPoint| p.connections == connections) {
                continue; // top collapsed onto an existing point
            }
            let report = psl_service::loadgen::run_pipelined(
                &psl_service::PipelineConfig {
                    addr: addr.clone(),
                    connections,
                    requests: flags.requests.max(connections as u64 * 20),
                    batch,
                    window,
                    drivers: 2,
                    ..Default::default()
                },
                &hosts,
            )?;
            eprintln!(
                "reactor: {} conns ({} established): {:.0} lookups/s, {} disconnects",
                connections, report.established, report.throughput_rps, report.disconnects
            );
            points.push(ReactorPoint {
                connections,
                established: report.established,
                requests: report.requests,
                completed: report.completed,
                disconnects: report.disconnects,
                elapsed_seconds: report.elapsed_seconds,
                lookups_per_s: report.throughput_rps,
            });
        }
        psl_service::query_once(&addr, "SHUTDOWN")
            .map_err(|e| format!("bench: shutting down reactor server: {e}"))?;
        guard.0.wait().map_err(|e| format!("bench: reaping reactor server: {e}"))?;
        ReactorBench {
            nofile_limit,
            batch,
            window,
            server_threads: if flags.threads == 0 { 4 } else { flags.threads },
            driver_threads: 2,
            points,
            peak_rss_bytes: psl_stats::peak_rss_bytes(),
        }
    };

    // 7. Streaming sweep scale curve: 10^5 → 10^scale_max requests through
    //    every list version. The host population is fixed by the corpus
    //    configuration, so peak RSS must plateau as the request count
    //    grows — that flat line is the "paper scale is a non-event" claim
    //    in one number.
    let sweep_scale = {
        let mut points = Vec::new();
        for exp in 5..=flags.scale_max {
            let target = 10u64.pow(exp);
            let corpus_cfg = config.corpus.clone().with_target_requests(target);
            let stream = psl_webcorpus::build_stream(&bench_history, &corpus_cfg);
            psl_stats::reset_peak_rss();
            let t = std::time::Instant::now();
            let out = psl_analysis::sweep_stream(&bench_history, &stream, &config.sweep);
            let wall = t.elapsed().as_secs_f64();
            let point = SweepScalePoint {
                requests_target: target,
                requests_streamed: out.total_requests,
                versions: out.stats.len(),
                threads: out.threads,
                shards: out.shards,
                wall_seconds: wall,
                requests_per_s: out.total_requests as f64 / wall.max(f64::EPSILON),
                peak_rss_bytes: psl_stats::peak_rss_bytes(),
                sites_latest: out.stats.last().map_or(0, |s| s.sites),
            };
            eprintln!(
                "sweep_scale 10^{exp}: {} requests in {:.2} s ({:.2}M req/s, {} shards x {} \
                 threads{})",
                point.requests_streamed,
                point.wall_seconds,
                point.requests_per_s / 1e6,
                point.shards,
                point.threads,
                point
                    .peak_rss_bytes
                    .map(|b| format!(", peak rss {} MiB", b >> 20))
                    .unwrap_or_default()
            );
            points.push(point);
        }
        SweepScaleBench { max_exponent: flags.scale_max, points }
    };

    // 8. Fleet scale curve: 10^4 → 10^fleet_max scripted sessions executed
    //    against every sampled version paired with the latest. The host
    //    population and accumulators are fixed-size, so peak RSS must stay
    //    flat while sessions/s holds — and the harm table must be
    //    byte-identical across thread/shard counts (the merge-law gate).
    let fleet_scale = {
        let fleet_stream = psl_webcorpus::build_stream(&bench_history, &config.corpus);
        let base = psl_analysis::FleetConfig {
            opts: config.sweep.opts,
            threads: flags.threads,
            ..Default::default()
        };
        // Determinism gate at the smallest point: 1 thread x 1 shard vs. a
        // deliberately awkward 3 threads x 7 shards.
        let small = 10_000;
        let a = psl_analysis::run_fleet(
            &bench_history,
            &fleet_stream,
            &psl_analysis::FleetConfig { sessions: small, threads: 1, shards: 1, ..base },
        );
        let b = psl_analysis::run_fleet(
            &bench_history,
            &fleet_stream,
            &psl_analysis::FleetConfig { sessions: small, threads: 3, shards: 7, ..base },
        );
        let (aj, bj) = (
            serde_json::to_string(&a.rows).map_err(|e| e.to_string())?,
            serde_json::to_string(&b.rows).map_err(|e| e.to_string())?,
        );
        if aj != bj {
            return Err("bench: fleet harm table differs across thread/shard counts".into());
        }
        let mut points = Vec::new();
        for exp in 4..=flags.fleet_max {
            let sessions = 10u64.pow(exp);
            psl_stats::reset_peak_rss();
            let t = std::time::Instant::now();
            let out = psl_analysis::run_fleet(
                &bench_history,
                &fleet_stream,
                &psl_analysis::FleetConfig { sessions, ..base },
            );
            let wall = t.elapsed().as_secs_f64();
            let executions = out.sessions * out.versions_sampled as u64;
            let point = FleetScalePoint {
                sessions,
                versions: out.versions_sampled,
                threads: out.threads,
                shards: out.shards,
                wall_seconds: wall,
                sessions_per_s: sessions as f64 / wall.max(f64::EPSILON),
                session_executions_per_s: executions as f64 / wall.max(f64::EPSILON),
                peak_rss_bytes: psl_stats::peak_rss_bytes(),
                leaked_cookies_oldest: out.rows.first().map_or(0, |r| r.leaked_cookies),
            };
            if point.leaked_cookies_oldest == 0 {
                return Err("bench: fleet executed no leaked cookies at the oldest version".into());
            }
            eprintln!(
                "fleet_scale 10^{exp}: {} sessions in {:.2} s ({:.2}M sessions/min, {} versions, \
                 {} shards x {} threads{})",
                sessions,
                point.wall_seconds,
                point.sessions_per_s * 60.0 / 1e6,
                point.versions,
                point.shards,
                point.threads,
                point
                    .peak_rss_bytes
                    .map(|b| format!(", peak rss {} MiB", b >> 20))
                    .unwrap_or_default()
            );
            points.push(point);
        }
        FleetScaleBench { max_exponent: flags.fleet_max, determinism_checked: true, points }
    };

    let report = BenchReport {
        seed: flags.seed,
        environment: BenchEnv::capture(),
        engine,
        coldstart,
        sweep,
        sweep_scale,
        fleet_scale,
        loadgen,
        reactor,
        agreement,
    };
    let payload = serde_json::to_string_pretty(&report).map_err(|e| e.to_string())?;
    if let Some(path) = &flags.json {
        std::fs::write(path, &payload).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    } else {
        println!("{payload}");
    }
    if report.agreement.divergences > 0 {
        return Err(format!(
            "bench: {} executor divergences — numbers rejected",
            report.agreement.divergences
        ));
    }
    Ok(())
}

// ---- Streaming paper-scale sweep -------------------------------------------

/// JSON payload for `pslharm sweep --json`: run provenance and throughput
/// around the same Figures 5–7 report the pipeline produces.
#[derive(serde::Serialize)]
struct SweepRunReport {
    seed: u64,
    requests_target: u64,
    requests_streamed: u64,
    threads: usize,
    shards: usize,
    wall_seconds: f64,
    requests_per_s: f64,
    peak_rss_bytes: Option<u64>,
    report: psl_analysis::figs567::SweepReport,
}

/// `pslharm sweep`: the Figures 5–7 experiment at paper scale. The corpus
/// is streamed shard-by-shard — never materialized — so `--requests
/// 100000000` (the paper's 498M-request order of magnitude) runs in the
/// same peak memory as `--requests 100000`.
fn cmd_sweep(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    if !flags.extra.is_empty() {
        return Err(format!("sweep: unexpected arguments {:?}", flags.extra));
    }
    if flags.sketch {
        return Err("sweep: --sketch was removed; sweep counts are always exact".into());
    }
    let config = config_for(&flags);
    eprintln!(
        "generating history + corpus population (seed {}, target {} requests) ...",
        flags.seed, flags.requests
    );
    let history = psl_history::generate(&config.history);
    let corpus_cfg = config.corpus.clone().with_target_requests(flags.requests);
    let stream = psl_webcorpus::build_stream(&history, &corpus_cfg);
    eprintln!(
        "sweeping {} versions x {} hosts, ~{} streamed requests ...",
        history.version_count(),
        stream.host_count(),
        stream.expected_requests()
    );
    psl_stats::reset_peak_rss();
    let t = std::time::Instant::now();
    let out = psl_analysis::sweep_stream(&history, &stream, &config.sweep);
    let wall = t.elapsed().as_secs_f64();
    let peak = psl_stats::peak_rss_bytes();
    let report = psl_analysis::figs567::package(
        &out.stats,
        stream.host_count(),
        out.total_requests as usize,
    );

    println!("\n== Figures 5-7 at scale: {} streamed requests ==", out.total_requests);
    let rows: Vec<Vec<String>> = report::downsample(&report.rows, 18)
        .iter()
        .map(|r| {
            vec![
                r.date.clone(),
                r.rules.to_string(),
                r.sites.to_string(),
                r.third_party_requests.to_string(),
                r.hosts_moved_vs_latest.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        report::render_table(
            &["version", "rules", "sites (F5)", "3rd-party reqs (F6)", "hosts moved (F7)"],
            &rows
        )
    );
    println!(
        "latest vs first: +{} sites over {} hostnames / {} requests (paper: +359,966 sites on 498M requests)",
        report.extra_sites_latest_vs_first, report.unique_hostnames, report.total_requests,
    );
    let run = SweepRunReport {
        seed: flags.seed,
        requests_target: flags.requests,
        requests_streamed: out.total_requests,
        threads: out.threads,
        shards: out.shards,
        wall_seconds: wall,
        requests_per_s: out.total_requests as f64 / wall.max(f64::EPSILON),
        peak_rss_bytes: peak,
        report,
    };
    eprintln!(
        "sweep: {} requests in {:.2} s ({:.2}M req/s) on {} shards x {} threads{}",
        run.requests_streamed,
        run.wall_seconds,
        run.requests_per_s / 1e6,
        run.shards,
        run.threads,
        run.peak_rss_bytes.map(|b| format!(", peak rss {} MiB", b >> 20)).unwrap_or_default()
    );
    if let Some(path) = &flags.json {
        let payload = serde_json::to_string_pretty(&run).map_err(|e| e.to_string())?;
        std::fs::write(path, &payload).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

// ---- Browser fleet ---------------------------------------------------------

/// JSON payload for `pslharm fleet --json`: run provenance and throughput
/// around the per-version-age harm-divergence table.
#[derive(serde::Serialize)]
struct FleetRunReport {
    seed: u64,
    sessions: u64,
    versions_sampled: usize,
    hosts: usize,
    mode: &'static str,
    threads: usize,
    shards: usize,
    wall_seconds: f64,
    sessions_per_s: f64,
    session_executions_per_s: f64,
    peak_rss_bytes: Option<u64>,
    rows: Vec<psl_analysis::FleetRow>,
}

/// `pslharm fleet`: execute scripted browser sessions against sampled
/// list versions paired with the latest, and report the harms that
/// actually happened — leaked cookies, supercookie set flips, same-site
/// flips, wrong autofill, merged storage partitions — per version age.
/// Sessions are derived from seeds shard-by-shard, so memory is flat in
/// `--sessions` and the table is byte-identical for any `--threads` /
/// `--shards` choice.
fn cmd_fleet(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    if !flags.extra.is_empty() {
        return Err(format!("fleet: unexpected arguments {:?}", flags.extra));
    }
    let config = config_for(&flags);
    eprintln!(
        "generating history + host population (seed {}, {} sessions) ...",
        flags.seed, flags.sessions
    );
    let history = psl_history::generate(&config.history);
    let stream = psl_webcorpus::build_stream(&history, &config.corpus);
    let fleet_cfg = psl_analysis::FleetConfig {
        opts: config.sweep.opts,
        sessions: flags.sessions,
        threads: flags.threads,
        shards: flags.shards,
        counter: if flags.sketch {
            psl_analysis::SiteCounter::DEFAULT_SKETCH
        } else {
            psl_analysis::SiteCounter::Exact
        },
        max_versions: flags.max_versions,
    };
    psl_stats::reset_peak_rss();
    let t = std::time::Instant::now();
    let out = psl_analysis::run_fleet(&history, &stream, &fleet_cfg);
    let wall = t.elapsed().as_secs_f64();
    let peak = psl_stats::peak_rss_bytes();

    println!(
        "\n== Browser fleet: {} sessions x {} versions over {} hosts ==",
        out.sessions, out.versions_sampled, out.hosts
    );
    let rows: Vec<Vec<String>> = out
        .rows
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.date),
                r.age_days.to_string(),
                r.cookie_set_flips.to_string(),
                r.leaked_cookies.to_string(),
                r.same_site_flips.to_string(),
                r.wrong_autofill.to_string(),
                r.merged_partitions.to_string(),
                r.split_partitions.to_string(),
                r.distinct_victims.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        report::render_table(
            &[
                "version",
                "age (d)",
                "set flips",
                "leaked cookies",
                "same-site flips",
                "wrong autofill",
                "merged parts",
                "split parts",
                "victims",
            ],
            &rows
        )
    );
    let executions = out.sessions * out.versions_sampled as u64;
    let run = FleetRunReport {
        seed: flags.seed,
        sessions: out.sessions,
        versions_sampled: out.versions_sampled,
        hosts: out.hosts,
        mode: if flags.sketch { "sketch" } else { "exact" },
        threads: out.threads,
        shards: out.shards,
        wall_seconds: wall,
        sessions_per_s: out.sessions as f64 / wall.max(f64::EPSILON),
        session_executions_per_s: executions as f64 / wall.max(f64::EPSILON),
        peak_rss_bytes: peak,
        rows: out.rows,
    };
    eprintln!(
        "fleet: {} sessions ({} paired executions) in {:.2} s ({:.2}M sessions/min) on {} shards \
         x {} threads{}",
        run.sessions,
        executions,
        run.wall_seconds,
        run.sessions_per_s * 60.0 / 1e6,
        run.shards,
        run.threads,
        run.peak_rss_bytes.map(|b| format!(", peak rss {} MiB", b >> 20)).unwrap_or_default()
    );
    if let Some(path) = &flags.json {
        let payload = serde_json::to_string_pretty(&run).map_err(|e| e.to_string())?;
        std::fs::write(path, &payload).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }
    Ok(())
}

// ---- Snapshot compilation / inspection ------------------------------------

/// `pslharm compile`: produce a binary artifact that `serve --watch`,
/// `inspect`, and `List::load_snapshot` all accept. The source is, in
/// priority order: `--history` (the full generated history as one
/// delta-compressed file), an explicit list path argument (`.dat` text or
/// an existing snapshot, re-emitted canonically), `--embedded`, or the
/// generated history's latest version.
fn cmd_compile(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let out = flags.out.clone().ok_or("compile: --out PATH is required")?;
    if flags.extra.len() > 1 {
        return Err(format!("compile: unexpected arguments {:?}", &flags.extra[1..]));
    }

    let (bytes, what) = if flags.history {
        if !flags.extra.is_empty() || flags.embedded {
            return Err("compile: --history compiles the generated history; it takes no list \
                        path and no --embedded"
                .into());
        }
        eprintln!("generating history (seed {}) ...", flags.seed);
        let history = psl_history::generate(&config_for(&flags).history);
        let bytes = history.write_compiled_file(flags.checkpoint_every);
        let what = format!(
            "history file: {} versions ({} .. {}), checkpoint every {}",
            history.version_count(),
            history.first_version(),
            history.latest_version(),
            flags.checkpoint_every
        );
        (bytes, what)
    } else {
        let list = if let Some(path) = flags.extra.first() {
            psl_service::load_list_file(std::path::Path::new(path))?
        } else if flags.embedded {
            psl_core::embedded_list()
        } else {
            eprintln!("generating history (seed {}) ...", flags.seed);
            let history = psl_history::generate(&config_for(&flags).history);
            history.latest_snapshot()
        };
        let what = format!("list snapshot: {} rules", list.len());
        (list.write_snapshot(), what)
    };

    std::fs::write(&out, &bytes).map_err(|e| format!("writing {out}: {e}"))?;
    println!("pslharm compile: wrote {out} ({} B, {what})", bytes.len());
    Ok(())
}

/// `pslharm inspect`: decode a compiled artifact's header without
/// materializing anything — the debugging view of the on-disk format.
fn cmd_inspect(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let path =
        flags.extra.first().ok_or("inspect: give a compiled snapshot or history file path")?;
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;

    if bytes.starts_with(&psl_core::LIST_MAGIC) {
        let view = psl_core::SnapshotView::parse(&bytes).map_err(|e| format!("{path}: {e}"))?;
        println!("{path}: list snapshot, format v{}", psl_core::LIST_FORMAT_VERSION);
        println!(
            "  {} rules, {} labels, {} nodes, {} edges, {} root entries, {} B total",
            view.rules(),
            view.label_count(),
            view.node_count(),
            view.edge_count(),
            view.root_table_len(),
            view.byte_len()
        );
        println!("  sections:");
        for (name, offset, len) in view.sections() {
            println!("    {name:<14} offset {offset:>8}  {len:>8} B");
        }
    } else if bytes.starts_with(&psl_history::HISTORY_MAGIC) {
        let file =
            psl_history::CompiledHistoryFile::load(bytes).map_err(|e| format!("{path}: {e}"))?;
        let dates = file.dates();
        println!("{path}: compiled history, format v{}", psl_history::HISTORY_FORMAT_VERSION);
        println!(
            "  {} versions ({} .. {}), checkpoint every {}, {} interned labels, {} B total",
            file.version_count(),
            dates.first().expect("non-empty by validation"),
            dates.last().expect("non-empty by validation"),
            file.checkpoint_every(),
            file.interner().len(),
            file.byte_len()
        );
        let (mut adds, mut dels) = (0usize, 0usize);
        for i in 0..file.version_count() {
            let (d, a) = file.delta_counts(i);
            dels += d;
            adds += a;
        }
        println!(
            "  {} rule records ({adds} adds, {dels} removals); latest version: {} rules",
            file.record_count(),
            file.latest().len()
        );
    } else {
        return Err(format!(
            "{path}: not a compiled artifact (expected {:?} or {:?} magic)",
            String::from_utf8_lossy(&psl_core::LIST_MAGIC),
            String::from_utf8_lossy(&psl_history::HISTORY_MAGIC)
        ));
    }
    Ok(())
}

// ---- Printers -------------------------------------------------------------

fn print_fig2(full: &FullReport) {
    println!("\n== Figure 2: PSL growth and suffix components over time ==");
    let rows: Vec<Vec<String>> = report::downsample(&full.fig2.series, 18)
        .iter()
        .map(|r| {
            vec![
                r.date.clone(),
                r.total.to_string(),
                r.c1.to_string(),
                r.c2.to_string(),
                r.c3.to_string(),
                r.c4.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        report::render_table(&["date", "total", "1-comp", "2-comp", "3-comp", "4+"], &rows)
    );
    let s = full.fig2.final_shares;
    println!(
        "final shares: 1-comp {:.1}%  2-comp {:.1}%  3-comp {:.1}%  4+ {:.2}%  (paper: 17 / 57.5 / 25.3 / ~0.1)",
        100.0 * s[0],
        100.0 * s[1],
        100.0 * s[2],
        100.0 * s[3]
    );
    if let Some((date, delta)) = &full.fig2.largest_jump {
        println!("largest jump: +{delta} rules at {date} (paper: ~1623 mid-2012 JP registrations)");
    }
}

fn print_table1(full: &FullReport) {
    println!("\n== Table 1: projects by usage type ==");
    let rows: Vec<Vec<String>> = full
        .table1
        .rows
        .iter()
        .map(|r| vec![r.class.clone(), r.projects.to_string(), format!("{:.1}%", r.percent)])
        .collect();
    println!("{}", report::render_table(&["category", "projects", "share"], &rows));
    for (label, n, pct) in &full.table1.top_level {
        println!("{label}: {n} ({pct:.1}%)");
    }
    println!(
        "classified {} / unclassified {} / detector mismatches {}",
        full.table1.classified, full.table1.unclassified, full.table1.ground_truth_mismatches
    );
}

fn print_fig3(full: &FullReport) {
    println!("\n== Figure 3: age of embedded lists (ECDF medians) ==");
    let rows: Vec<Vec<String>> = full
        .fig3
        .groups
        .iter()
        .map(|g| vec![g.label.clone(), g.n.to_string(), format!("{:.0} days", g.median_days)])
        .collect();
    println!("{}", report::render_table(&["strategy", "repos", "median age"], &rows));
    println!("(paper medians: all 871, fixed 825, updated 915)");
}

fn print_fig4(full: &FullReport) {
    println!("\n== Figure 4: list age vs. activity (fixed projects) ==");
    let mut pts = full.fig4.points.clone();
    pts.sort_by_key(|p| std::cmp::Reverse(p.stars));
    let rows: Vec<Vec<String>> = pts
        .iter()
        .take(15)
        .map(|p| {
            vec![
                p.name.clone(),
                p.stars.to_string(),
                p.list_age_days.to_string(),
                p.days_since_commit.to_string(),
                p.class.clone(),
            ]
        })
        .collect();
    println!(
        "{}",
        report::render_table(
            &["repository", "stars", "list age (d)", "since commit (d)", "class"],
            &rows
        )
    );
    println!(
        "stars-forks Pearson {:.3} (paper 0.96); fixed/production >=500 stars: {} (paper 5); median stars {:.0} (paper 60)",
        full.fig4.stars_forks_pearson,
        full.fig4.production_over_500_stars,
        full.fig4.production_median_stars,
    );
}

fn print_figs567(full: &FullReport) {
    println!("\n== Figures 5-7: corpus interpreted under every PSL version ==");
    let rows: Vec<Vec<String>> = report::downsample(&full.figs567.rows, 18)
        .iter()
        .map(|r| {
            vec![
                r.date.clone(),
                r.rules.to_string(),
                r.sites.to_string(),
                r.third_party_requests.to_string(),
                r.hosts_moved_vs_latest.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        report::render_table(
            &["version", "rules", "sites (F5)", "3rd-party reqs (F6)", "hosts moved (F7)"],
            &rows
        )
    );
    println!(
        "latest vs first: +{} sites over {} hostnames / {} requests (paper: +359,966 sites on 498M requests)",
        full.figs567.extra_sites_latest_vs_first,
        full.figs567.unique_hostnames,
        full.figs567.total_requests,
    );
}

fn print_table2(full: &FullReport) {
    println!("\n== Table 2: largest eTLDs missing from fixed/production lists ==");
    let rows: Vec<Vec<String>> = full
        .table2
        .rows
        .iter()
        .map(|r| {
            vec![
                r.etld.clone(),
                r.hostnames.to_string(),
                r.dependency.to_string(),
                r.fixed_production.to_string(),
                r.fixed_test_other.to_string(),
                r.updated.to_string(),
            ]
        })
        .collect();
    println!("{}", report::render_table(&["eTLD", "hostnames", "D", "F/Prd", "F/T+O", "U"], &rows));
    println!(
        "total: {} eTLDs affecting {} hostnames (paper: 1,313 eTLDs / 50,750 hostnames)",
        full.table2.total_etlds, full.table2.total_hostnames
    );
}

fn print_table3(full: &FullReport, limit: usize) {
    println!("\n== Table 3: fixed-usage projects ==");
    let rows: Vec<Vec<String>> = full
        .table3
        .rows
        .iter()
        .take(limit)
        .map(|r| {
            vec![
                r.block.clone(),
                r.name.clone(),
                r.stars.to_string(),
                r.forks.to_string(),
                r.list_age_days.to_string(),
                r.missing_hostnames.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        report::render_table(
            &["block", "repository", "stars", "forks", "list age (d)", "missing hostnames"],
            &rows
        )
    );
}

fn print_cookie_harm(full: &FullReport) {
    println!("\n== Extension: supercookies accepted per list version ==");
    let rows: Vec<Vec<String>> = report::downsample(&full.cookie_harm.rows, 14)
        .iter()
        .map(|r| vec![r.date.clone(), r.accepted.to_string(), r.exposed_hostnames.to_string()])
        .collect();
    println!(
        "{}",
        report::render_table(&["version", "accepted supercookies", "exposed hostnames"], &rows)
    );
    println!(
        "{} attempts derived from the corpus; the latest list rejects all of them",
        full.cookie_harm.attempts
    );
}

fn print_dbound(full: &FullReport) {
    println!("\n== Extension: DBOUND (DNS boundaries) vs. stale client lists ==");
    let rows: Vec<Vec<String>> = report::downsample(&full.dbound.rows, 14)
        .iter()
        .map(|r| vec![r.date.clone(), r.stale_list_misgrouped.to_string()])
        .collect();
    println!("{}", report::render_table(&["stale list version", "misgrouped hostnames"], &rows));
    println!(
        "DBOUND client against live zones: {} misgrouped ({} records published, {:.1} DNS queries/host)",
        full.dbound.dbound_misgrouped,
        full.dbound.published_records,
        full.dbound.queries_per_host,
    );
}

fn print_cert_harm(full: &FullReport) {
    println!("\n== Extension: wildcard certificates mis-issued per list version ==");
    let rows: Vec<Vec<String>> = report::downsample(&full.cert_harm.rows, 14)
        .iter()
        .map(|r| vec![r.date.clone(), r.misissued.to_string(), r.covered_hostnames.to_string()])
        .collect();
    println!(
        "{}",
        report::render_table(
            &["CA list version", "mis-issued wildcards", "covered hostnames"],
            &rows
        )
    );
    println!("{} wildcard requests derived from the corpus", full.cert_harm.requests);
}

fn print_update_failure(full: &FullReport) {
    println!("\n== Extension: expected harm when update strategies fail ==");
    let rows: Vec<Vec<String>> = full
        .update_failure
        .rows
        .iter()
        .map(|r| {
            vec![
                r.strategy.clone(),
                r.projects.to_string(),
                format!("{:.2}", r.fallback_probability),
                format!("{:.0}", r.mean_misgrouped_on_fallback),
                format!("{:.0}", r.expected_misgrouped),
            ]
        })
        .collect();
    println!(
        "{}",
        report::render_table(
            &["strategy", "projects", "P(fallback)", "harm | fallback", "expected harm"],
            &rows
        )
    );
}

fn print_replay(full: &FullReport) {
    println!("\n== Extension: browser decision divergence vs. latest list ==");
    let rows: Vec<Vec<String>> = full
        .browser_replay
        .rows
        .iter()
        .map(|r| vec![r.date.clone(), r.divergent_decisions.to_string()])
        .collect();
    println!("{}", report::render_table(&["browser list version", "divergent decisions"], &rows));
    println!(
        "{} interactions replayed, {} decisions per replay",
        full.browser_replay.interactions, full.browser_replay.decisions_per_replay
    );
}

fn print_category_shift(full: &FullReport) {
    println!("\n== Extension: Figure 7 by suffix category ==");
    let rows: Vec<Vec<String>> = full
        .category_shift
        .rows
        .iter()
        .map(|r| {
            vec![
                r.date.clone(),
                r.generic.to_string(),
                r.country_code.to_string(),
                r.other_tld.to_string(),
                r.private.to_string(),
                r.total.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        report::render_table(
            &["version", "generic", "country-code", "other TLD", "private", "total moved"],
            &rows
        )
    );
}

fn cmd_lint(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    // Lint a .dat file if given, else the embedded snapshot and the
    // generated latest list.
    let targets: Vec<(String, psl_core::List)> = if flags.extra.is_empty() {
        let config = config_for(&flags);
        let history = psl_history::generate(&config.history);
        vec![
            ("embedded snapshot".to_string(), psl_core::embedded_list()),
            ("generated latest list".to_string(), history.latest_snapshot()),
        ]
    } else {
        flags
            .extra
            .iter()
            .map(|path| {
                let text =
                    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
                Ok((path.clone(), psl_core::List::parse(&text)))
            })
            .collect::<Result<_, String>>()?
    };
    for (label, list) in targets {
        let findings = psl_core::lint(&list);
        println!("{label}: {} rules, {} findings", list.len(), findings.len());
        for f in findings.iter().take(25) {
            println!("  {f}");
        }
        if findings.len() > 25 {
            println!("  ... and {} more", findings.len() - 25);
        }
    }
    Ok(())
}

fn cmd_blame(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    if flags.extra.is_empty() {
        return Err("blame: give at least one rule text (e.g. myshopify.com)".into());
    }
    let config = config_for(&flags);
    let history = psl_history::generate(&config.history);
    for rule in &flags.extra {
        match psl_history::blame(&history, rule) {
            Some(b) => {
                let removed = b.removed.map(|d| format!(", removed {d}")).unwrap_or_default();
                println!("{rule}: added {}{}", b.added, removed);
            }
            None => println!("{rule}: not found in this history"),
        }
    }
    println!(
        "(history: {} versions, mean cadence {:.1} days)",
        history.version_count(),
        psl_history::publication_cadence_days(&history),
    );
    Ok(())
}

fn cmd_corpus_stats(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let config = config_for(&flags);
    let history = psl_history::generate(&config.history);
    let corpus = psl_webcorpus::generate_corpus(&history, &config.corpus);
    let list = history.latest_snapshot();
    let s = psl_webcorpus::corpus_stats(&corpus, &list, config.sweep.opts);
    println!("hosts:                 {}", s.hosts);
    println!("requests:              {}", s.requests);
    println!("sites (latest list):   {}", s.sites);
    println!("mean hosts/site:       {:.2}", s.mean_hosts_per_site);
    println!("max hosts/site:        {}", s.max_hosts_per_site);
    println!("distinct pages:        {}", s.distinct_pages);
    println!("mean requests/page:    {:.2}", s.mean_requests_per_page);
    println!("top-1% target share:   {:.1}%", 100.0 * s.top1pct_request_share);
    Ok(())
}

fn cmd_fuzz(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let which = flags.extra.first().map(String::as_str).unwrap_or("all");
    let targets: Vec<psl_fuzz::Target> = if which == "all" {
        psl_fuzz::Target::ALL.to_vec()
    } else {
        vec![psl_fuzz::Target::from_name(which).ok_or_else(|| {
            format!("unknown fuzz target {which:?} (hostname|dat|cookie|service|snapshot|all)")
        })?]
    };
    let config = psl_fuzz::FuzzConfig {
        seed: flags.seed,
        iters: flags.iters,
        time_budget: flags.time_budget.map(std::time::Duration::from_secs),
    };

    // Expected panics inside checks are failures, not crashes: keep them
    // off the terminal while the loop runs.
    let previous_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut total_findings = 0usize;
    for target in &targets {
        let outcome = psl_fuzz::run_target(*target, &config);
        eprintln!(
            "fuzz {target}: {} corpus entries replayed, {} generated iterations, {} finding(s)",
            outcome.corpus_replayed,
            outcome.iters_run,
            outcome.findings.len()
        );
        for (i, finding) in outcome.findings.iter().enumerate() {
            total_findings += 1;
            let origin = if finding.from_corpus { "corpus regression" } else { "new" };
            eprintln!("--- {target} finding {i} ({origin}) ---");
            eprintln!("{}", finding.reason);
            eprintln!("minimized input:\n{}", finding.input.serialize());
            if flags.write_corpus && !finding.from_corpus {
                let stem = format!("found-seed{}-{i}", flags.seed);
                let path = psl_fuzz::write_corpus_entry(&finding.input, &stem)
                    .map_err(|e| format!("writing corpus entry: {e}"))?;
                eprintln!("corpus entry written: {}", path.display());
            }
        }
    }
    std::panic::set_hook(previous_hook);
    if total_findings > 0 {
        Err(format!("fuzzing found {total_findings} failing input(s)"))
    } else {
        eprintln!("all fuzz targets clean");
        Ok(())
    }
}
