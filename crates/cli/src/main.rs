//! `pslharm` — drive the PSL privacy-harms reproduction pipeline.
//!
//! ```text
//! pslharm all     [--seed N] [--paper-scale] [--json PATH] [--markdown PATH]
//!                                                            run everything
//! pslharm fig2|fig3|fig4|fig5|fig6|fig7                      one figure
//! pslharm table1|table2|table3                               one table
//! pslharm cookieharm|dbound|certharm|updatefail|replay|categories
//!                                                            one extension experiment
//! pslharm notify  [--seed N]                                 maintainer notifications
//! pslharm corpus-stats [--seed N]                            web-corpus summary
//! pslharm conformance [--seed N] [--json PATH]               vector suite + differential oracle
//! pslharm suffix <domain>...|-                               eTLD / eTLD+1 lookup (- = stdin batch)
//! pslharm serve   [--addr A] [--threads N] [--watch PATH]    run the query server
//! pslharm query   [--addr A] CMD [ARGS...]                   one protocol command
//! pslharm loadgen [--addr A] [--requests N] [--check]        replay load, report throughput
//! pslharm sweep   [--requests N] [--shards auto]             streaming Figs 5-7 at paper scale
//! pslharm fleet   [--sessions N] [--shards auto] [--sketch]  executed per-version-age harms
//! pslharm compile [LIST.dat] --out PATH                      compiled snapshot
//! pslharm inspect PATH                                       decode a snapshot's header
//! pslharm lint    [LIST.dat...]                              rule-hygiene findings
//! pslharm blame   RULE...                                    when a rule was added / removed
//! pslharm fuzz    [TARGET] [--seed N] [--iters N]            differential fuzzing
//! ```
//!
//! Scale: the default is a laptop-scale configuration (small history and
//! corpus, exact 273-repo corpus). `--paper-scale` switches the history to
//! the paper's 1,142 versions / 9,368 rules and a proportionally larger
//! corpus.

use psl_analysis::report::{self, Table};
use psl_analysis::{build_substrates, run_all, FullReport, PipelineConfig};
use psl_core::{DomainName, MatchOpts};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match cmd {
        "all" => cmd_report(None, rest),
        "notify" => cmd_notify(rest),
        "conformance" => cmd_conformance(rest),
        "suffix" => cmd_suffix(rest),
        "serve" => cmd_serve(rest),
        "query" => cmd_query(rest),
        "loadgen" => cmd_loadgen(rest),
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
        other => match report::section(other) {
            Some(table) => cmd_report(Some(table), rest),
            None => Err(format!("unknown command {other:?}\n{USAGE}")),
        },
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage: pslharm <all|fig2|fig3|fig4|fig5|fig6|fig7|table1|table2|table3|cookieharm|dbound|\
certharm|updatefail|replay|categories> [--seed N] [--paper-scale] [--threads N] [--json PATH] [--markdown PATH]
       pslharm notify|corpus-stats [--seed N] [--paper-scale]
       pslharm conformance [--seed N] [--json PATH]
       pslharm suffix <domain>...|-
       pslharm serve [--addr HOST:PORT] [--http-addr HOST:PORT] [--max-conns N] [--reactor-workers N] [--threads N] \
[--watch PATH [--mmap] | --embedded]
       pslharm query [--addr HOST:PORT] CMD [ARGS...]
       pslharm loadgen [--addr HOST:PORT] [--requests N] [--connections N] [--batch N] [--check | --pipeline [--window N]]
       pslharm sweep [--seed N] [--requests N] [--shards N|auto] [--threads N] [--json PATH]
       pslharm fleet [--seed N] [--sessions N] [--shards N|auto] [--threads N] [--sketch] [--max-versions N] [--json PATH]
       pslharm compile [LIST.dat] --out PATH [--embedded] [--seed N]
       pslharm inspect PATH
       pslharm lint [LIST.dat...]
       pslharm blame RULE...
       pslharm fuzz <hostname|dat|cookie|service|snapshot|all> [--seed N] [--iters N] [--time-budget SECS] [--write-corpus]";

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
    shards: usize,
    sketch: bool,
    sessions: u64,
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
        shards: 0,
        sketch: false,
        sessions: 10_000,
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
            "--max-versions" => {
                let v = it.next().ok_or("--max-versions needs a value")?;
                flags.max_versions = v.parse().map_err(|_| format!("bad --max-versions {v:?}"))?;
            }
            "--mmap" => flags.mmap = true,
            "--out" => {
                flags.out = Some(it.next().ok_or("--out needs a path")?.clone());
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

/// `pslharm all` and the artifact subcommands: run every experiment, print
/// every report table or only `section`'s, and write the exports.
fn cmd_report(section: Option<fn(&FullReport) -> Table>, args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let config = config_for(&flags);
    eprintln!("generating substrates (seed {}) ...", flags.seed);
    let subs = build_substrates(&config);
    eprintln!("running experiments ...");
    let full = run_all(&subs, &config);
    // The corpus is streamed, so its request count is the sweep's.
    eprintln!(
        "history: {} versions, {} rules latest; corpus: {} hosts, {} requests; repos: {}",
        subs.history.version_count(),
        subs.history.rule_count_at(subs.history.latest_version()),
        full.figs567.unique_hostnames,
        full.figs567.total_requests,
        subs.repos.len(),
    );
    let tables = match section {
        Some(table) => vec![table(&full)],
        None => full.tables(),
    };
    for table in tables {
        print!("{table}");
    }
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

fn cmd_notify(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let config = config_for(&flags);
    let subs = build_substrates(&config);
    let scan = psl_repocorpus::RepoScan::build(&subs.repos, &subs.history);
    let mut sent = 0;
    for det in &scan.detections {
        let Some(class) = det.class else { continue };
        if let Some(text) =
            psl_repocorpus::notification(det.repo, class, det.dated, subs.repos.observed_at)
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
    //    from the linear reference matcher, evaluation uses the compiled
    //    list).
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

    // 3. Differential sweep over every history version: the owned, the
    //    mapped and the versioned walk against the linear oracle.
    let hosts = psl_conformance::probe_corpus(&history, flags.seed.wrapping_add(3), 10_000);
    eprintln!(
        "differential sweep: {} versions x {} hostnames x 3 option sets x 3 walks (owned, \
         mapped, versioned) vs the linear oracle ...",
        history.version_count(),
        hosts.len()
    );
    let sweep = psl_conformance::sweep_history(&history, &hosts, 0);
    println!(
        "differential sweep: {} comparisons over {} versions, each by the owned, mapped and \
         versioned walk, {} divergences",
        sweep.comparisons,
        sweep.versions,
        sweep.divergences.len()
    );
    let arena = history.versioned_list();
    println!(
        "versioned arena:    {} nodes, {} steps over {} versions (the walk ASOF reads)",
        arena.node_count(),
        arena.step_count(),
        history.version_count()
    );
    let print_divergences = |outcome: &psl_conformance::SweepOutcome| {
        for d in outcome.divergences.iter().take(10) {
            println!(
                "  DIVERGENCE at {}: {} (minimized: {}) production={} linear={} mapped={} \
                 versioned={}",
                d.version.as_deref().unwrap_or("-"),
                d.host,
                d.minimized,
                d.production,
                d.linear,
                d.mapped,
                d.versioned
            );
        }
    };
    print_divergences(&sweep);

    // 4. Rule shapes no generated history has (rules below an exception,
    //    wildcards below wildcards, ...), through the same three walks.
    let shapes = psl_core::List::parse(psl_conformance::WALK_SHAPES);
    let shape_check = psl_conformance::check_list(&shapes, &psl_conformance::list_probes(&shapes));
    println!(
        "rule shapes:        {} comparisons over {} curated rules, {} divergences",
        shape_check.comparisons,
        shapes.len(),
        shape_check.divergences.len()
    );
    print_divergences(&shape_check);

    if let Some(path) = flags.json {
        let payload = serde_json::to_string_pretty(&(&shipped, &generated, &sweep, &shape_check))
            .map_err(|e| e.to_string())?;
        std::fs::write(&path, payload).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {path}");
    }

    if !shipped.is_pass() || !generated.is_pass() || !sweep.is_pass() || !shape_check.is_pass() {
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
        psl_service::ServerConfig { addr: flags.addr.clone(), watch, mmap: flags.mmap },
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
    /// The version walk, site ids and Figures 5 and 7 counts.
    walk_seconds: f64,
    /// The pass over the request stream (Figure 6).
    pass_seconds: f64,
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

    print!(
        "{}",
        report.table(format!("Figures 5-7 at scale: {} streamed requests", out.total_requests))
    );
    let run = SweepRunReport {
        seed: flags.seed,
        requests_target: flags.requests,
        requests_streamed: out.total_requests,
        threads: out.threads,
        shards: out.shards,
        wall_seconds: wall,
        walk_seconds: out.walk_seconds,
        pass_seconds: out.pass_seconds,
        requests_per_s: out.total_requests as f64 / wall.max(f64::EPSILON),
        peak_rss_bytes: peak,
        report,
    };
    eprintln!(
        "sweep: {} requests in {:.3} s (walk {:.3} s, pass {:.3} s; {:.2}M req/s) on {} shards x {} threads{}",
        run.requests_streamed,
        run.wall_seconds,
        run.walk_seconds,
        run.pass_seconds,
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
    /// `(session, version)` pairs answered per second (`sessions ×
    /// versions_sampled` over the wall time), replayed or not.
    session_executions_per_s: f64,
    /// Pairs answered by a `(V, R)` replay; the rest took the reference
    /// result.
    replayed_pairs: u64,
    /// Engine replays executed, each answering a run of versions that
    /// behave alike for its session (at most `replayed_pairs`).
    replays: u64,
    /// Building the views: the version walk, site ids, views and masks.
    views_seconds: f64,
    /// Answering the sessions.
    sessions_seconds: f64,
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

    print!("{}", out.table());
    let answered = out.sessions * out.versions_sampled as u64;
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
        session_executions_per_s: answered as f64 / wall.max(f64::EPSILON),
        replayed_pairs: out.replayed_pairs,
        replays: out.replays,
        views_seconds: out.views_seconds,
        sessions_seconds: out.sessions_seconds,
        peak_rss_bytes: peak,
        rows: out.rows,
    };
    eprintln!(
        "fleet: {} sessions ({} pairs answered, {} by {} replays) in {:.2} s (views {:.3} s, \
         sessions {:.3} s; {:.2}M sessions/min) on {} shards x {} threads{}",
        run.sessions,
        answered,
        run.replayed_pairs,
        run.replays,
        run.wall_seconds,
        run.views_seconds,
        run.sessions_seconds,
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

/// `pslharm compile`: produce a binary snapshot that `serve --watch`,
/// `inspect`, and `List::load_snapshot` all accept. The source is, in
/// priority order: an explicit list path argument (`.dat` text or an
/// existing snapshot, re-emitted canonically), `--embedded`, or the
/// generated history's latest version.
fn cmd_compile(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let out = flags.out.clone().ok_or("compile: --out PATH is required")?;
    if flags.extra.len() > 1 {
        return Err(format!("compile: unexpected arguments {:?}", &flags.extra[1..]));
    }

    let list = if let Some(path) = flags.extra.first() {
        psl_service::load_list_file(std::path::Path::new(path))?
    } else if flags.embedded {
        psl_core::embedded_list()
    } else {
        eprintln!("generating history (seed {}) ...", flags.seed);
        let history = psl_history::generate(&config_for(&flags).history);
        history.latest_snapshot()
    };
    let bytes = list.write_snapshot();
    std::fs::write(&out, &bytes).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "pslharm compile: wrote {out} ({} B, list snapshot: {} rules)",
        bytes.len(),
        list.len()
    );
    Ok(())
}

/// `pslharm inspect`: decode a compiled snapshot's header without
/// materializing anything — the debugging view of the on-disk format.
fn cmd_inspect(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let path = flags.extra.first().ok_or("inspect: give a compiled snapshot path")?;
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    if !bytes.starts_with(&psl_core::LIST_MAGIC) {
        return Err(format!(
            "{path}: not a compiled snapshot (expected {:?} magic)",
            String::from_utf8_lossy(&psl_core::LIST_MAGIC)
        ));
    }
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
    Ok(())
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
