//! Subcommand parsing and execution.

use hippocrates::{BugSource, Hippocrates, MarkingMode, RepairOptions};
use pmcheck::run_and_check;
use pmir::Module;
use pmvm::{Vm, VmOptions};
use std::fmt::Write as _;

/// Top-level dispatch.
///
/// # Errors
///
/// Returns a human-readable error string for usage problems, compile
/// errors, traps, and failed repairs.
pub fn dispatch(args: &[String]) -> Result<(), String> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(usage());
    };
    // `--metrics` / `--timings` arm the observability registry for every
    // subcommand; the snapshot is written even when the command fails, so a
    // red CI run still uploads its telemetry.
    let metrics_path = rest
        .windows(2)
        .find(|w| w[0] == "--metrics")
        .map(|w| w[1].clone());
    let timings = rest.iter().any(|a| a == "--timings");
    let obs = if metrics_path.is_some() || timings {
        pmobs::Obs::enabled()
    } else {
        pmobs::Obs::default()
    };
    let result = {
        let _span = obs.span(&format!("cli.{cmd}"));
        match cmd.as_str() {
            "compile" => compile_cmd(rest, &obs),
            "run" => run_cmd(rest, &obs),
            "trace" => trace_cmd(rest, &obs),
            "check" => check_cmd(rest, &obs),
            "lint" => lint_cmd(rest, &obs),
            "explore" => explore_cmd(rest, &obs),
            "fix" => fix_cmd(rest, &obs),
            "optimize" => optimize_cmd(rest, &obs),
            "faultcampaign" => faultcampaign_cmd(rest, &obs),
            "serve" => crate::serve::serve_cmd(rest, &obs),
            "submit" => crate::serve::submit_cmd(rest),
            "status" => crate::serve::status_cmd(rest),
            "cancel" => crate::serve::cancel_cmd(rest),
            "health" => crate::serve::health_cmd(rest),
            "shutdown" => crate::serve::shutdown_cmd(rest),
            "ping" => crate::serve::ping_cmd(rest),
            "help" | "--help" | "-h" => {
                println!("{}", usage());
                Ok(())
            }
            other => Err(format!("unknown command `{other}`\n{}", usage())),
        }
    };
    let snap = obs.snapshot();
    if let Some(path) = &metrics_path {
        std::fs::write(path, snap.to_json()).map_err(|e| format!("{path}: {e}"))?;
    }
    if timings {
        eprint!("{}", snap.render_timings());
    }
    result
}

fn usage() -> String {
    let mut s = String::from("usage:\n");
    for line in [
        "hippoctl compile <src>...                        emit textual IR",
        "hippoctl run     <src>... [--entry NAME]         execute and print output",
        "hippoctl trace   <src>... [--entry NAME]         emit the PM trace as JSON",
        "hippoctl check   <src>... [--entry NAME]         durability-bug report",
        "hippoctl lint    <src|dir>... [--entry NAME]     static persistency check",
        "                 [--deny warnings]                (no execution; dirs lint each .pmc)",
        "                 [--redundant] [--deny redundant]  also lint provably-redundant",
        "                                                    flushes/fences (pmredund)",
        "hippoctl explore <src>... [--entry NAME]         crash-state exploration: boot the",
        "                 [--jobs N] [--budget K]           recovery oracle on sampled crash",
        "                 [--seed S] [--recover FN]         states; report inconsistencies",
        "hippoctl fix     <src>... [--entry NAME] [-o F]  repair; write fixed IR",
        "                 [--intra-only] [--trace-aa] [--portable]",
        "                 [--bug-source dynamic|static|both|exploration]",
        "                 [--jobs N] [--budget K] [--seed S]",
        "                 [--journal F] [--resume]           write-ahead journal; replay",
        "                                                    committed rounds after a kill",
        "                 [--deadline-ms N] [--step-quota N] cooperative budget: partial-",
        "                                                    but-committed, never a hang",
        "                 [--show-quarantine]                print the quarantine ledger",
        "                 [--optimize]                       after a clean repair, strip",
        "                                                    redundant flushes/fences",
        "hippoctl optimize <src>... [--entry NAME] [-o F] strip provably-redundant flushes",
        "                 [--jobs N] [--budget K] [--seed S]  and sinkable fences; each removal",
        "                                                     is re-verified or rolled back",
        "hippoctl faultcampaign [<src>...] [--seeds N]    run the full pipeline under N",
        "                 [--entry NAME] [--jobs J]         seeded fault plans; assert it",
        "                                                   degrades, never panics or hangs",
        "hippoctl serve   --socket S | --listen H:P       repair-as-a-service daemon",
        "                 [--journal F] [--standby]          (hippo.jobs.v2 over Unix socket or",
        "                 [--workers N] [--queue N]           TCP; journaled jobs resume after",
        "                 [--cache-budget-mb N]               kill -9, a --standby takes over",
        "                 [--upload-budget-mb N]              the journal the moment the",
        "                 [--max-conns N]                     primary dies; warm caches evict",
        "                 [--io-timeout-ms N]                 LRU under the cache budget)",
        "                 [--idle-timeout-ms N]",
        "                 [--lease-ttl-ms N] [--lease-retries N] campaign shard leases: TTL,",
        "                 [--compact-threshold N]             retry budget; journal compaction",
        "                 [--fault-worker I] [--fault-net S]",
        "                 [--fault-shard S]                   arm a shard.* chaos archetype",
        "hippoctl submit  --connect E <src>... [--kind K] enqueue a lint|explore|fix|optimize",
        "                 [--entry NAME] [--wait] [-o F]     job; --wait polls and emits the",
        "                 [--budget K] [--seed S] [--jobs N]  artifact (byte-identical to a",
        "                 [--bug-source ...] [--deadline-ms N] standalone run); oversized",
        "                 [--shards N]                        sources stream as chunks; --shards",
        "                                                    fans an explore job into leased",
        "                                                    campaign shards",
        "hippoctl status  --connect E <job-id>            one job's state and summary",
        "hippoctl cancel  --connect E <job-id>            cancel a queued job",
        "hippoctl health  --connect E                     daemon liveness report (JSON)",
        "hippoctl ping    --connect E                     heartbeat (works on a standby too)",
        "hippoctl shutdown --connect E                    graceful drain and exit",
        "",
        "every subcommand also accepts:",
        "  --metrics <path.json>   write pipeline telemetry (hippo.metrics.v1)",
        "  --timings               print a per-span timing breakdown to stderr",
    ] {
        let _ = writeln!(s, "  {line}");
    }
    s
}

/// Parsed common flags.
struct Opts {
    sources: Vec<String>,
    entry: String,
    out: Option<String>,
    intra_only: bool,
    trace_aa: bool,
    portable: bool,
    deny_warnings: bool,
    deny_redundant: bool,
    lint_redundant: bool,
    optimize: bool,
    bug_source: BugSource,
    jobs: usize,
    budget: usize,
    seed: u64,
    recover: Option<String>,
    metrics: Option<String>,
    timings: bool,
    journal: Option<String>,
    resume: bool,
    show_quarantine: bool,
    deadline_ms: Option<u64>,
    step_quota: Option<u64>,
    crash_after_commit: Option<u32>,
}

fn parse(args: &[String]) -> Result<Opts, String> {
    let mut o = Opts {
        sources: vec![],
        entry: "main".to_string(),
        out: None,
        intra_only: false,
        trace_aa: false,
        portable: false,
        deny_warnings: false,
        deny_redundant: false,
        lint_redundant: false,
        optimize: false,
        bug_source: BugSource::Dynamic,
        jobs: 1,
        budget: 256,
        seed: 0,
        recover: None,
        metrics: None,
        timings: false,
        journal: None,
        resume: false,
        show_quarantine: false,
        deadline_ms: None,
        step_quota: None,
        crash_after_commit: None,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--entry" => {
                o.entry = it.next().ok_or("--entry needs a value")?.clone();
            }
            "-o" | "--out" => {
                o.out = Some(it.next().ok_or("-o needs a value")?.clone());
            }
            "--deny" => {
                let what = it.next().ok_or("--deny needs a value")?;
                match what.as_str() {
                    "warnings" => o.deny_warnings = true,
                    "redundant" => o.deny_redundant = true,
                    _ => {
                        return Err(format!(
                            "--deny supports `warnings` or `redundant`, got `{what}`"
                        ));
                    }
                }
            }
            "--bug-source" => {
                let v = it.next().ok_or("--bug-source needs a value")?;
                o.bug_source = match v.as_str() {
                    "dynamic" => BugSource::Dynamic,
                    "static" => BugSource::Static,
                    "both" => BugSource::Both,
                    "exploration" => BugSource::Exploration,
                    other => {
                        return Err(format!(
                            "--bug-source supports dynamic|static|both|exploration, got `{other}`"
                        ));
                    }
                };
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                o.jobs = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--jobs needs a positive integer, got `{v}`"))?;
            }
            "--budget" => {
                let v = it.next().ok_or("--budget needs a value")?;
                o.budget = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--budget needs a positive integer, got `{v}`"))?;
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a value")?;
                o.seed = v
                    .parse::<u64>()
                    .map_err(|_| format!("--seed needs an unsigned integer, got `{v}`"))?;
            }
            "--recover" => {
                o.recover = Some(it.next().ok_or("--recover needs a value")?.clone());
            }
            "--metrics" => {
                o.metrics = Some(it.next().ok_or("--metrics needs a value")?.clone());
            }
            "--timings" => o.timings = true,
            "--journal" => {
                o.journal = Some(it.next().ok_or("--journal needs a value")?.clone());
            }
            "--resume" => o.resume = true,
            "--show-quarantine" => o.show_quarantine = true,
            "--deadline-ms" => {
                let v = it.next().ok_or("--deadline-ms needs a value")?;
                o.deadline_ms =
                    Some(v.parse::<u64>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        format!("--deadline-ms needs a positive integer, got `{v}`")
                    })?);
            }
            "--step-quota" => {
                let v = it.next().ok_or("--step-quota needs a value")?;
                o.step_quota =
                    Some(v.parse::<u64>().ok().filter(|&n| n >= 1).ok_or_else(|| {
                        format!("--step-quota needs a positive integer, got `{v}`")
                    })?);
            }
            "--crash-after-commit" => {
                let v = it.next().ok_or("--crash-after-commit needs a value")?;
                o.crash_after_commit = Some(v.parse::<u32>().map_err(|_| {
                    format!("--crash-after-commit needs an unsigned integer, got `{v}`")
                })?);
            }
            "--redundant" => o.lint_redundant = true,
            "--optimize" => o.optimize = true,
            "--intra-only" => o.intra_only = true,
            "--trace-aa" => o.trace_aa = true,
            "--portable" => o.portable = true,
            flag if flag.starts_with('-') => {
                return Err(format!("unknown flag `{flag}`"));
            }
            src => o.sources.push(src.to_string()),
        }
    }
    if o.sources.is_empty() {
        return Err("no source files given".to_string());
    }
    Ok(o)
}

/// Loads and links the given sources: `.ir` files parse as textual pmir
/// (at most one, alone); anything else compiles as pmlang.
fn load(sources: &[String]) -> Result<Module, String> {
    if sources.iter().any(|s| s.ends_with(".ir")) {
        if sources.len() != 1 {
            return Err("an .ir module must be loaded alone".to_string());
        }
        let text =
            std::fs::read_to_string(&sources[0]).map_err(|e| format!("{}: {e}", sources[0]))?;
        let m = pmir::parse::parse_module(&text).map_err(|e| e.to_string())?;
        pmir::verify::verify_module(&m).map_err(|e| e.to_string())?;
        return Ok(m);
    }
    let mut c = pmlang::Compiler::new();
    for s in sources {
        let text = std::fs::read_to_string(s).map_err(|e| format!("{s}: {e}"))?;
        c = c.source(s.clone(), text);
    }
    c.compile().map_err(|e| e.to_string())
}

/// Loads sources under a `cli.load` span.
fn load_obs(sources: &[String], obs: &pmobs::Obs) -> Result<Module, String> {
    let _span = obs.span("cli.load");
    load(sources)
}

fn compile_cmd(args: &[String], obs: &pmobs::Obs) -> Result<(), String> {
    let o = parse(args)?;
    let m = load_obs(&o.sources, obs)?;
    let text = pmir::display::print_module(&m);
    emit(&o.out, &text)
}

fn run_cmd(args: &[String], obs: &pmobs::Obs) -> Result<(), String> {
    let o = parse(args)?;
    let m = load_obs(&o.sources, obs)?;
    let r = Vm::new(VmOptions::bench().with_obs(obs.clone()))
        .run(&m, &o.entry)
        .map_err(|e| e.to_string())?;
    for v in &r.output {
        println!("{v}");
    }
    eprintln!(
        "-- {:?} after {} steps, {} simulated cycles ({} PM stores, {} flushes, {} fences)",
        r.ended,
        r.steps,
        r.stats.cycles,
        r.stats.pm_stores,
        r.stats.total_flushes(),
        r.stats.fences
    );
    Ok(())
}

fn trace_cmd(args: &[String], obs: &pmobs::Obs) -> Result<(), String> {
    let o = parse(args)?;
    let m = load_obs(&o.sources, obs)?;
    let vm_opts = VmOptions::default().with_obs(obs.clone());
    let checked = run_and_check(&m, &o.entry, vm_opts).map_err(|e| e.to_string())?;
    let json = checked.trace.to_json().map_err(|e| e.to_string())?;
    emit(&o.out, &json)
}

fn check_cmd(args: &[String], obs: &pmobs::Obs) -> Result<(), String> {
    let o = parse(args)?;
    let m = load_obs(&o.sources, obs)?;
    let vm_opts = VmOptions::default().with_obs(obs.clone());
    let checked = run_and_check(&m, &o.entry, vm_opts).map_err(|e| e.to_string())?;
    print!("{}", checked.report.render());
    if checked.report.is_clean() {
        Ok(())
    } else {
        Err(format!(
            "{} durability bug(s) found",
            checked.report.deduped_bugs().len()
        ))
    }
}

/// `hippoctl lint`: run the static persistency checker — no execution.
///
/// Directory arguments expand to the `.pmc` files inside (each linted as
/// its own single-file program); explicitly listed files are linked into
/// one module (a lone `.ir` file parses as textual pmir — useful to
/// re-lint a repaired module). Findings render as rustc-style diagnostics
/// with source excerpts. With `--deny warnings`, any finding makes the
/// exit code nonzero.
fn lint_cmd(args: &[String], obs: &pmobs::Obs) -> Result<(), String> {
    let o = parse(args)?;
    let mut groups: Vec<Vec<String>> = vec![];
    let mut explicit: Vec<String> = vec![];
    for s in &o.sources {
        if std::path::Path::new(s).is_dir() {
            let mut found = vec![];
            let entries = std::fs::read_dir(s).map_err(|e| format!("{s}: {e}"))?;
            for entry in entries {
                let p = entry.map_err(|e| format!("{s}: {e}"))?.path();
                if p.extension().is_some_and(|x| x == "pmc") {
                    found.push(p.to_string_lossy().into_owned());
                }
            }
            if found.is_empty() {
                return Err(format!("{s}: no .pmc files in directory"));
            }
            found.sort();
            groups.extend(found.into_iter().map(|f| vec![f]));
        } else {
            explicit.push(s.clone());
        }
    }
    if !explicit.is_empty() {
        groups.insert(0, explicit);
    }
    let mut warnings = 0usize;
    let mut redundant = 0usize;
    let want_redundant = o.lint_redundant || o.deny_redundant;
    for g in &groups {
        let (w, r) = lint_group(g, &o.entry, want_redundant, obs)?;
        warnings += w;
        redundant += r;
    }
    obs.add("cli.lint.modules", groups.len() as u64);
    obs.add("cli.lint.warnings", warnings as u64);
    if want_redundant {
        obs.add("cli.lint.redundant", redundant as u64);
    }
    if o.deny_warnings && warnings > 0 {
        return Err(format!("{warnings} warning(s) denied by --deny warnings"));
    }
    if o.deny_redundant && redundant > 0 {
        return Err(format!(
            "{redundant} redundant flush/fence finding(s) denied by --deny redundant"
        ));
    }
    match (warnings, redundant) {
        (0, 0) => eprintln!("lint: clean ({} module(s))", groups.len()),
        (w, 0) => eprintln!("lint: {w} warning(s)"),
        (0, r) => eprintln!("lint: {r} redundant flush/fence finding(s)"),
        (w, r) => eprintln!("lint: {w} warning(s), {r} redundant flush/fence finding(s)"),
    }
    Ok(())
}

/// Lints one module (one or more linked sources); returns the number of
/// warnings emitted.
fn lint_group(
    sources: &[String],
    entry: &str,
    want_redundant: bool,
    obs: &pmobs::Obs,
) -> Result<(usize, usize), String> {
    let mut texts = std::collections::HashMap::new();
    for s in sources {
        if let Ok(text) = std::fs::read_to_string(s) {
            texts.insert(s.clone(), text);
        }
    }
    let m = load_obs(sources, obs)?;
    let report = pmstatic::check_module_obs(&m, entry, obs).map_err(|e| e.to_string())?;
    // An .ir module's debug locations name the original .pmc sources; pull
    // those in from disk (when present) so excerpts still render.
    for loc in report
        .bugs
        .iter()
        .filter_map(|b| b.store_loc.as_ref())
        .chain(
            report
                .redundant_flushes
                .iter()
                .filter_map(|r| r.loc.as_ref()),
        )
    {
        if !texts.contains_key(&*loc.file) && !loc.file.starts_with('<') {
            if let Ok(t) = std::fs::read_to_string(&*loc.file) {
                texts.insert(loc.file.to_string(), t);
            }
        }
    }
    print!("{}", render_lint(&report, &texts));
    let mut redundant = 0usize;
    if want_redundant {
        let findings = pmredund::analyze_module(&m, entry).map_err(|e| e.to_string())?;
        for f in &findings {
            if let Some(loc) = &f.loc {
                if !texts.contains_key(&*loc.file) && !loc.file.starts_with('<') {
                    if let Ok(t) = std::fs::read_to_string(&*loc.file) {
                        texts.insert(loc.file.to_string(), t);
                    }
                }
            }
        }
        redundant = findings.len();
        print!("{}", render_redundancy(&findings, &texts));
    }
    Ok((
        report.deduped_bugs().len() + report.redundant_flushes.len(),
        redundant,
    ))
}

/// Renders `pmredund` findings as rustc-style diagnostics, each with its
/// happens-before witness as notes.
fn render_redundancy(
    findings: &[pmredund::Finding],
    texts: &std::collections::HashMap<String, String>,
) -> String {
    let mut s = String::new();
    for f in findings {
        let what = match f.kind {
            pmredund::FindingKind::RedundantFlush => {
                "flush of a line already durable on every incoming path"
            }
            pmredund::FindingKind::CoalescableFlush => {
                "flush coalesces with another flush of the same line"
            }
            pmredund::FindingKind::SinkableFence => {
                "fence orders no persistent work on any incoming path"
            }
        };
        let _ = writeln!(s, "warning: {}: {what}", f.kind);
        excerpt(
            &mut s,
            f.loc.as_ref(),
            texts,
            &format!(
                "in `{}`, ~{} cycles per pass",
                f.function, f.est_cycles_saved
            ),
        );
        let _ = writeln!(s, "   = note: {}", f.witness.claim);
        for ev in &f.witness.events {
            let _ = writeln!(s, "   = note: witness: {ev}");
        }
        let _ = writeln!(
            s,
            "   = note: `hippoctl optimize` removes this with dynamic re-verification"
        );
    }
    s
}

/// Renders a static report as rustc-style diagnostics with source excerpts.
fn render_lint(
    report: &pmcheck::CheckReport,
    texts: &std::collections::HashMap<String, String>,
) -> String {
    let mut s = String::new();
    for bug in report.deduped_bugs() {
        let what = match bug.kind {
            pmcheck::BugKind::MissingFlush => "store is never flushed on some path",
            pmcheck::BugKind::MissingFence => "flushed store is never fenced on some path",
            pmcheck::BugKind::MissingFlushFence => {
                "store is neither flushed nor fenced on some path"
            }
        };
        let _ = writeln!(s, "warning: {}: {what}", bug.kind);
        excerpt(&mut s, bug.store_loc.as_ref(), texts, &{
            let func = bug.store_at.as_ref().map(|at| &*at.function).unwrap_or("?");
            match bug.len {
                0 => format!("store in `{func}`"),
                n => format!("store of {n} byte(s) in `{func}`"),
            }
        });
        let _ = match bug.checkpoint {
            pmcheck::Checkpoint::CrashPoint(n) => {
                writeln!(s, "   = note: audited at crash point #{n}")
            }
            pmcheck::Checkpoint::ProgramEnd => {
                writeln!(s, "   = note: audited at program end")
            }
            pmcheck::Checkpoint::Event(seq) => {
                writeln!(
                    s,
                    "   = note: audited at explored crash state (trace event #{seq})"
                )
            }
        };
    }
    for rf in &report.redundant_flushes {
        let _ = writeln!(
            s,
            "warning: redundant-flush: flush of a provably clean line or volatile memory"
        );
        excerpt(
            &mut s,
            rf.loc.as_ref(),
            texts,
            "this flush never persists anything",
        );
        let _ = writeln!(s, "   = note: statically provable; safe to remove");
    }
    s
}

/// Appends the `--> file:line:col` arrow and the quoted source line.
fn excerpt(
    s: &mut String,
    loc: Option<&pmtrace::TraceLoc>,
    texts: &std::collections::HashMap<String, String>,
    label: &str,
) {
    let Some(loc) = loc else {
        let _ = writeln!(s, "  --> <unknown location>: {label}");
        return;
    };
    let _ = writeln!(s, "  --> {}:{}:{}", loc.file, loc.line, loc.col.max(1));
    let line = texts
        .get(&*loc.file)
        .and_then(|t| t.lines().nth(loc.line.saturating_sub(1) as usize));
    if let Some(line) = line {
        let num = loc.line.to_string();
        let gut = " ".repeat(num.len());
        let pad = " ".repeat(loc.col.max(1) as usize - 1);
        let _ = writeln!(s, "{gut} |");
        let _ = writeln!(s, "{num} | {line}");
        let _ = writeln!(s, "{gut} | {pad}^ {label}");
    } else {
        let _ = writeln!(s, "   = {label}");
    }
}

/// `hippoctl explore`: crash-state exploration. Runs the entry once with
/// PM data capture, samples crash states (every subset of dirty lines at
/// every PM event, under the budget), boots the recovery oracle on each,
/// and reports the stores whose loss broke recovery. Exit code is nonzero
/// when any explored state is inconsistent.
fn explore_cmd(args: &[String], obs: &pmobs::Obs) -> Result<(), String> {
    let o = parse(args)?;
    let m = load_obs(&o.sources, obs)?;
    let opts = pmexplore::ExploreOptions {
        budget: o.budget,
        seed: o.seed,
        jobs: o.jobs,
        oracle: o.recover.as_deref().map(pmexplore::Oracle::returns_zero),
        obs: obs.clone(),
        ..pmexplore::ExploreOptions::default()
    };
    let x = pmexplore::run_and_explore(&m, &o.entry, &opts).map_err(|e| e.to_string())?;
    print!("{}", x.report.render());
    if x.report.is_clean() {
        Ok(())
    } else {
        let check = x.report.to_check_report(&x.trace);
        print!("{}", check.render());
        Err(format!(
            "{} inconsistent crash state(s) found",
            x.report.findings.len()
        ))
    }
}

fn fix_cmd(args: &[String], obs: &pmobs::Obs) -> Result<(), String> {
    let o = parse(args)?;
    let mut m = load_obs(&o.sources, obs)?;
    let opts = RepairOptions {
        hoisting: !o.intra_only,
        marking: if o.trace_aa {
            MarkingMode::TraceAa
        } else {
            MarkingMode::FullAa
        },
        portable_fixes: o.portable,
        bug_source: o.bug_source,
        explore_budget: o.budget,
        explore_seed: o.seed,
        explore_jobs: o.jobs,
        journal_path: o.journal.as_ref().map(std::path::PathBuf::from),
        resume: o.resume,
        deadline_ms: o.deadline_ms,
        step_quota: o.step_quota,
        crash_after_commit: o.crash_after_commit,
        optimize_after: o.optimize,
        obs: obs.clone(),
        ..RepairOptions::default()
    };
    let outcome = match Hippocrates::new(opts).repair_until_clean(&mut m, &o.entry) {
        Ok(outcome) => outcome,
        Err(e) => {
            // A partial outcome means committed rounds survived the failure:
            // surface them (and the quarantine ledger) before erroring, and
            // still write the partially-repaired module when `-o` was given —
            // it is exactly the committed state a resume would start from.
            if let Some(partial) = e.partial_outcome() {
                report_fix_outcome(partial, &o, false);
                if o.out.is_some() {
                    emit(&o.out, &pmir::display::print_module(&m))?;
                }
            }
            return Err(e.to_string());
        }
    };
    report_fix_outcome(&outcome, &o, true);
    let text = pmir::display::print_module(&m);
    emit(&o.out, &text)
}

/// Prints a repair outcome's fixes, round counts, diagnostics, and (on
/// request, or always for a partial outcome) the quarantine ledger.
fn report_fix_outcome(outcome: &hippocrates::RepairOutcome, o: &Opts, clean: bool) {
    for fix in &outcome.fixes {
        eprintln!("applied: {fix}");
    }
    for d in &outcome.diagnostics {
        eprintln!("note: {d}");
    }
    if o.show_quarantine || !clean {
        for q in &outcome.quarantined {
            eprintln!("quarantined: {q}");
        }
    }
    if let Some(stats) = &outcome.optimized {
        eprintln!("optimized: {stats}");
    }
    let journal_note = if outcome.replayed_rounds > 0 {
        format!(" ({} replayed from journal)", outcome.replayed_rounds)
    } else {
        String::new()
    };
    eprintln!(
        "-- {} fix(es), {} interprocedural, {} iteration(s), {} round(s) committed{}, {} quarantined; report {}",
        outcome.fixes.len(),
        outcome.interprocedural_count(),
        outcome.iterations,
        outcome.committed_rounds,
        journal_note,
        outcome.quarantined.len(),
        if clean { "clean" } else { "NOT clean" }
    );
}

/// `hippoctl optimize`: the inverse pass, standalone. Analyzes the module
/// for provably-redundant flushes, coalescable flushes, and sinkable
/// fences, then removes them in transactional rounds — each re-verified
/// with the dynamic checker and the crash-state explorer (byte-identical
/// output, no new or worsened bug site) and rolled back byte-identically
/// into quarantine otherwise. Prints every committed removal with its
/// happens-before witness.
fn optimize_cmd(args: &[String], obs: &pmobs::Obs) -> Result<(), String> {
    let o = parse(args)?;
    let mut m = load_obs(&o.sources, obs)?;
    let opts = pmredund::OptimizeOptions {
        entry: o.entry.clone(),
        explore_budget: o.budget,
        explore_seed: o.seed,
        explore_jobs: o.jobs,
        obs: obs.clone(),
    };
    let out = pmredund::optimize_module(&mut m, &opts).map_err(|e| e.to_string())?;
    for a in &out.applied {
        eprintln!("removed: {}", a.finding);
        eprintln!("   = witness: {}", a.finding.witness.claim);
        for ev in &a.finding.witness.events {
            eprintln!("   = via: {ev}");
        }
    }
    for q in &out.quarantined {
        eprintln!("quarantined: {} — {}", q.finding, q.reason);
    }
    eprintln!("-- {out}");
    let text = pmir::display::print_module(&m);
    emit(&o.out, &text)
}

/// The built-in fault-campaign workload: enough PM stores, flushes, and
/// loads for every trigger offset in the archetype catalogue to land, a
/// spin loop so a tightened fuel budget actually bites, observable output
/// for the do-no-harm equivalence check, one genuine durability bug for
/// the engine to fix, and a `recover` oracle for the exploration seeds.
const CAMPAIGN_SRC: &str = r#"
    fn main() {
        var p: ptr = pmem_map(3, 4096);
        store8(p, 0, 1);
        clwb(p);
        sfence();
        store8(p, 64, 2);
        clwb(p + 64);
        sfence();
        store8(p, 128, 3);
        clwb(p + 128);
        store8(p, 192, 4);
        var i: int = 0;
        while (i < 16) { i = i + 1; }
        print(load8(p, 0) + load8(p, 64));
        print(load8(p, 128) + load8(p, 192));
    }
    fn recover() -> int {
        var p: ptr = pmem_map(3, 4096);
        if (load8(p, 0) > 9) { return 1; }
        return 0;
    }
"#;

/// `hippoctl faultcampaign`: the robustness gate. For each seed in
/// `0..N`, arms the seeded fault plan on a full repair run and asserts
/// the hardened pipeline's contract: the injected fault surfaces as a
/// structured diagnostic or an explicit degradation (never a panic or a
/// hang), a diverging loop is ended by the watchdog, and the repaired
/// program's output matches the original's — the fault never changes
/// what the repair does to the program.
fn faultcampaign_cmd(args: &[String], obs: &pmobs::Obs) -> Result<(), String> {
    let mut seeds = 8u64;
    let mut jobs = 2usize;
    let mut entry = "main".to_string();
    let mut sources: Vec<String> = vec![];
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--metrics" => {
                // Consumed by `dispatch`; skip the value here.
                it.next().ok_or("--metrics needs a value")?;
            }
            "--timings" => {}
            "--seeds" => {
                let v = it.next().ok_or("--seeds needs a value")?;
                seeds = v
                    .parse::<u64>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--seeds needs a positive integer, got `{v}`"))?;
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                jobs = v
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("--jobs needs a positive integer, got `{v}`"))?;
            }
            "--entry" => entry = it.next().ok_or("--entry needs a value")?.clone(),
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            src => sources.push(src.to_string()),
        }
    }
    let make_module = || -> Result<Module, String> {
        if sources.is_empty() {
            pmlang::compile_one("campaign.pmc", CAMPAIGN_SRC).map_err(|e| e.to_string())
        } else {
            load(&sources)
        }
    };
    let mut failures = vec![];
    for seed in 0..seeds {
        let plan = pmfault::FaultPlan::from_seed(seed);
        let _span = obs.span("cli.campaign_seed");
        // Transport faults fire at the daemon's connection boundary and
        // shard faults inside its campaign scheduler, not in the repair
        // pipeline — those seed families each run their daemon campaign.
        let outcome = if plan.targets_net() {
            hippod::netfault::campaign_seed(seed, "campaign.pmc", CAMPAIGN_SRC, obs)
        } else if plan.targets_shard() {
            hippod::chaos::campaign_seed(seed, "campaign.pmc", CAMPAIGN_SRC, obs)
        } else {
            campaign_seed(&make_module, &entry, seed, jobs, obs)
        };
        match outcome {
            Ok(line) => {
                obs.add("cli.campaign.passed", 1);
                eprintln!("seed {seed}: [{}] → ok: {line}", plan.describe());
            }
            Err(why) => {
                obs.add("cli.campaign.failed", 1);
                eprintln!("seed {seed}: [{}] → FAILED: {why}", plan.describe());
                failures.push(seed);
            }
        }
    }
    if failures.is_empty() {
        eprintln!("faultcampaign: {seeds}/{seeds} seed(s) passed");
        Ok(())
    } else {
        Err(format!(
            "faultcampaign: {} of {seeds} seed(s) failed: {failures:?}",
            failures.len()
        ))
    }
}

/// One campaign seed. Returns a summary line on success, the violated
/// assertion on failure.
fn campaign_seed(
    make_module: &dyn Fn() -> Result<Module, String>,
    entry: &str,
    seed: u64,
    jobs: usize,
    obs: &pmobs::Obs,
) -> Result<String, String> {
    use pmfault::FaultSite;
    let plan = pmfault::FaultPlan::from_seed(seed);
    // Explore-level faults need the exploration pool in the loop; every
    // other archetype runs dynamic + static so a degraded dynamic source
    // always has a surviving partner.
    let bug_source =
        if plan.targets(FaultSite::ExploreWorker) || plan.targets(FaultSite::ExploreOracle) {
            BugSource::Exploration
        } else {
            BugSource::Both
        };
    let baseline = {
        let m = make_module()?;
        Vm::new(VmOptions::default())
            .run(&m, entry)
            .map_err(|e| format!("baseline run failed: {e}"))?
    };
    let mut m = make_module()?;
    let opts = RepairOptions {
        bug_source,
        fault: Some(plan.clone()),
        watchdog_ms: Some(50),
        source_retries: 1,
        explore_budget: 128,
        explore_seed: seed,
        explore_jobs: jobs,
        obs: obs.clone(),
        ..RepairOptions::default()
    };
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        Hippocrates::new(opts).repair_until_clean(&mut m, entry)
    }))
    .map_err(|_| "pipeline panicked — it must degrade, not die".to_string())?
    .map_err(|e| format!("no degraded path survived: {e}"))?;
    if !outcome.clean {
        return Err("outcome not clean".to_string());
    }
    if outcome.degraded.is_empty() && outcome.diagnostics.is_empty() {
        return Err("injected fault left no structured diagnostic".to_string());
    }
    for d in &outcome.degraded {
        if d.source.is_empty() || d.reason.is_empty() {
            return Err(format!(
                "degradation must name its source and reason: {d:?}"
            ));
        }
    }
    if plan.targets(FaultSite::VmDiverge) {
        let saw_watchdog = outcome
            .degraded
            .iter()
            .any(|d| d.reason.contains("watchdog"))
            || outcome.diagnostics.iter().any(|d| d.contains("watchdog"));
        if !saw_watchdog {
            return Err("diverging plan did not trip the watchdog".to_string());
        }
    }
    let after = Vm::new(VmOptions::default())
        .run(&m, entry)
        .map_err(|e| format!("repaired program failed a fault-free run: {e}"))?;
    if baseline.output != after.output {
        return Err(format!(
            "repair under fault changed output: {:?} vs {:?}",
            baseline.output, after.output
        ));
    }
    Ok(format!(
        "{} fix(es), {} degradation(s), {} diagnostic(s)",
        outcome.fixes.len(),
        outcome.degraded.len(),
        outcome.diagnostics.len()
    ))
}

fn emit(out: &Option<String>, text: &str) -> Result<(), String> {
    match out {
        Some(path) => std::fs::write(path, text).map_err(|e| format!("{path}: {e}")),
        None => {
            print!("{text}");
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_flags() {
        let args: Vec<String> = ["a.pmc", "--entry", "go", "-o", "out.ir", "--intra-only"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = parse(&args).unwrap();
        assert_eq!(o.sources, vec!["a.pmc"]);
        assert_eq!(o.entry, "go");
        assert_eq!(o.out.as_deref(), Some("out.ir"));
        assert!(o.intra_only);
        assert!(!o.trace_aa);
    }

    #[test]
    fn parse_rejects_unknown_flags_and_empty() {
        assert!(parse(&["--bogus".to_string()]).is_err());
        assert!(parse(&[]).is_err());
    }

    #[test]
    fn parse_deny_warnings() {
        let args: Vec<String> = ["a.pmc", "--deny", "warnings"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse(&args).unwrap().deny_warnings);
        let bad: Vec<String> = ["a.pmc", "--deny", "everything"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse(&bad).is_err());
    }

    #[test]
    fn parse_optimize_and_redundant_flags() {
        let args: Vec<String> = ["a.pmc", "--deny", "redundant", "--redundant", "--optimize"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let o = parse(&args).unwrap();
        assert!(o.deny_redundant);
        assert!(o.lint_redundant);
        assert!(o.optimize);
        assert!(!o.deny_warnings);
    }

    #[test]
    fn optimize_cmd_strips_redundancy_and_stays_clean() {
        let dir = scratch_dir("optimize_cmd");
        let src_path = dir.join("dup.pmc");
        std::fs::write(
            &src_path,
            "fn main() {\n    var p: ptr = pmem_map(2, 4096);\n    store8(p, 0, 1);\n    clwb(p);\n    sfence();\n    clwb(p);\n    sfence();\n    print(load8(p, 0));\n}\n",
        )
        .unwrap();
        let out_ir = dir.join("opt.ir");
        optimize_cmd(
            &[
                src_path.to_string_lossy().to_string(),
                "--budget".into(),
                "16".into(),
                "-o".into(),
                out_ir.to_string_lossy().to_string(),
            ],
            &pmobs::Obs::default(),
        )
        .unwrap();
        let m = pmir::parse::parse_module(&std::fs::read_to_string(&out_ir).unwrap()).unwrap();
        let checked = run_and_check(&m, "main", VmOptions::default()).unwrap();
        assert!(checked.report.is_clean());
        assert_eq!(checked.run.output, vec![1]);
        assert!(checked.run.stats.pm_flushes < 2 || checked.run.stats.fences < 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lint_deny_redundant_fails_on_redundant_module() {
        let dir = scratch_dir("lint_redundant");
        let src_path = dir.join("dup.pmc");
        std::fs::write(
            &src_path,
            "fn main() {\n    var p: ptr = pmem_map(2, 4096);\n    store8(p, 0, 1);\n    clwb(p);\n    sfence();\n    clwb(p);\n    sfence();\n}\n",
        )
        .unwrap();
        let err = lint_cmd(
            &[
                src_path.to_string_lossy().to_string(),
                "--deny".into(),
                "redundant".into(),
            ],
            &pmobs::Obs::default(),
        )
        .unwrap_err();
        assert!(err.contains("redundant"), "{err}");
        // Without --deny, the same module lints successfully (warnings only).
        lint_cmd(
            &[src_path.to_string_lossy().to_string(), "--redundant".into()],
            &pmobs::Obs::default(),
        )
        .unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn parse_bug_source() {
        let args: Vec<String> = ["a.pmc", "--bug-source", "static"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(parse(&args).unwrap().bug_source, BugSource::Static);
        let both: Vec<String> = ["a.pmc", "--bug-source", "both"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(parse(&both).unwrap().bug_source, BugSource::Both);
        let bad: Vec<String> = ["a.pmc", "--bug-source", "oracle"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert!(parse(&bad).is_err());
        let none = vec!["a.pmc".to_string()];
        assert_eq!(parse(&none).unwrap().bug_source, BugSource::Dynamic);
    }

    #[test]
    fn parse_explore_flags() {
        let args: Vec<String> = [
            "a.pmc",
            "--jobs",
            "4",
            "--budget",
            "128",
            "--seed",
            "7",
            "--recover",
            "chk",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = parse(&args).unwrap();
        assert_eq!(o.jobs, 4);
        assert_eq!(o.budget, 128);
        assert_eq!(o.seed, 7);
        assert_eq!(o.recover.as_deref(), Some("chk"));
        assert!(parse(&["a.pmc".into(), "--jobs".into(), "0".into()]).is_err());
        assert!(parse(&["a.pmc".into(), "--budget".into(), "x".into()]).is_err());
        let exp: Vec<String> = ["a.pmc", "--bug-source", "exploration"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(parse(&exp).unwrap().bug_source, BugSource::Exploration);
    }

    #[test]
    fn parse_transaction_flags() {
        let args: Vec<String> = [
            "a.pmc",
            "--journal",
            "r.journal",
            "--resume",
            "--show-quarantine",
            "--deadline-ms",
            "5000",
            "--step-quota",
            "12",
            "--crash-after-commit",
            "1",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let o = parse(&args).unwrap();
        assert_eq!(o.journal.as_deref(), Some("r.journal"));
        assert!(o.resume);
        assert!(o.show_quarantine);
        assert_eq!(o.deadline_ms, Some(5000));
        assert_eq!(o.step_quota, Some(12));
        assert_eq!(o.crash_after_commit, Some(1));
        assert!(parse(&["a.pmc".into(), "--deadline-ms".into(), "0".into()]).is_err());
        assert!(parse(&["a.pmc".into(), "--step-quota".into(), "x".into()]).is_err());
        assert!(parse(&["a.pmc".into(), "--journal".into()]).is_err());
    }

    #[test]
    fn fix_resume_without_journal_is_an_actionable_error() {
        let dir = scratch_dir("resume_nojournal");
        let src = dir.join("clean.pmc");
        std::fs::write(&src, CLEAN_SRC).unwrap();
        let err = fix_cmd(
            &[src.to_string_lossy().to_string(), "--resume".into()],
            &pmobs::Obs::default(),
        )
        .unwrap_err();
        assert!(err.contains("--journal"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lint_renders_rustc_style_excerpt() {
        let src = "fn main() {\n    var p: ptr = pmem_map(0, 4096);\n    store8(p, 0, 7);\n}\n";
        let m = pmlang::compile_one("demo.pmc", src).unwrap();
        let report = pmstatic::check_module(&m, "main").unwrap();
        let mut texts = std::collections::HashMap::new();
        texts.insert("demo.pmc".to_string(), src.to_string());
        let out = render_lint(&report, &texts);
        assert!(out.contains("warning: missing-flush&fence"), "{out}");
        assert!(out.contains("--> demo.pmc:3:"), "{out}");
        assert!(out.contains("store8(p, 0, 7);"), "{out}");
        assert!(out.contains("store of 8 byte(s) in `main`"), "{out}");
        assert!(out.contains("= note: audited at program end"), "{out}");
    }

    #[test]
    fn lint_renders_redundant_flush_diagnostic() {
        let src = "fn main() {\n    var h: ptr = alloc(64);\n    store8(h, 0, 1);\n    clwb(h);\n    sfence();\n}\n";
        let m = pmlang::compile_one("demo.pmc", src).unwrap();
        let report = pmstatic::check_module(&m, "main").unwrap();
        assert!(report.is_clean());
        assert_eq!(report.redundant_flushes.len(), 1);
        let mut texts = std::collections::HashMap::new();
        texts.insert("demo.pmc".to_string(), src.to_string());
        let out = render_lint(&report, &texts);
        assert!(out.contains("warning: redundant-flush"), "{out}");
        assert!(out.contains("clwb(h);"), "{out}");
    }

    #[test]
    fn dispatch_rejects_unknown_command() {
        assert!(dispatch(&["frobnicate".to_string()]).is_err());
        assert!(dispatch(&[]).is_err());
    }

    #[test]
    fn faultcampaign_rejects_bad_flags() {
        let obs = pmobs::Obs::default();
        assert!(faultcampaign_cmd(&["--seeds".into(), "0".into()], &obs).is_err());
        assert!(faultcampaign_cmd(&["--seeds".into(), "x".into()], &obs).is_err());
        assert!(faultcampaign_cmd(&["--bogus".into()], &obs).is_err());
    }

    #[test]
    fn campaign_seed_torn_store_passes() {
        let make = || pmlang::compile_one("campaign.pmc", CAMPAIGN_SRC).map_err(|e| e.to_string());
        let line = campaign_seed(&make, "main", 0, 1, &pmobs::Obs::default()).unwrap();
        assert!(line.contains("diagnostic"), "{line}");
    }

    #[test]
    fn campaign_seed_trace_truncation_passes() {
        let make = || pmlang::compile_one("campaign.pmc", CAMPAIGN_SRC).map_err(|e| e.to_string());
        campaign_seed(&make, "main", 3, 1, &pmobs::Obs::default()).unwrap();
    }

    /// A durability-clean program every subcommand can chew on.
    const CLEAN_SRC: &str = "fn main() {\n    var p: ptr = pmem_map(1, 4096);\n    store8(p, 0, 7);\n    clwb(p);\n    sfence();\n    print(load8(p, 0));\n}\n";

    fn scratch_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("hippoctl_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn every_subcommand_accepts_metrics_and_writes_valid_json() {
        let dir = scratch_dir("metrics_smoke");
        let src_path = dir.join("clean.pmc");
        std::fs::write(&src_path, CLEAN_SRC).unwrap();
        let src = src_path.to_string_lossy().to_string();
        let out_ir = dir.join("out.ir").to_string_lossy().to_string();

        let cases: Vec<(&str, Vec<String>)> = vec![
            ("compile", vec![src.clone()]),
            ("run", vec![src.clone()]),
            ("trace", vec![src.clone()]),
            ("check", vec![src.clone()]),
            ("lint", vec![src.clone()]),
            ("explore", vec![src.clone(), "--budget".into(), "16".into()]),
            ("fix", vec![src.clone(), "-o".into(), out_ir]),
            (
                "optimize",
                vec![src.clone(), "--budget".into(), "16".into()],
            ),
            ("faultcampaign", vec!["--seeds".into(), "1".into()]),
            ("help", vec![]),
        ];
        for (cmd, rest) in cases {
            let metrics = dir.join(format!("m_{cmd}.json"));
            let mut args = vec![cmd.to_string()];
            args.extend(rest);
            args.push("--metrics".into());
            args.push(metrics.to_string_lossy().to_string());
            dispatch(&args).unwrap_or_else(|e| panic!("{cmd}: {e}"));
            let text = std::fs::read_to_string(&metrics)
                .unwrap_or_else(|e| panic!("{cmd}: metrics file missing: {e}"));
            let snap = pmobs::Snapshot::from_json(&text)
                .unwrap_or_else(|e| panic!("{cmd}: invalid metrics JSON: {e}"));
            assert!(
                snap.spans.iter().any(|s| s.name == format!("cli.{cmd}")),
                "{cmd}: no cli.{cmd} span in {:?}",
                snap.span_stages()
            );
            if cmd == "explore" {
                // Recovery boots are timed apart from replay.
                assert!(
                    snap.histograms
                        .get("explore.oracle_boot_us")
                        .is_some_and(|h| h.count > 0),
                    "explore: no explore.oracle_boot_us histogram in {:?}",
                    snap.histograms.keys()
                );
            }
            if cmd == "fix" {
                // A dynamic fix times its checker as a stage of detection.
                let parent = |s: &pmobs::SpanRec| {
                    s.parent.and_then(|p| snap.spans.iter().find(|q| q.id == p))
                };
                let under_detect = |s: &pmobs::SpanRec| {
                    std::iter::successors(parent(s), |&a| parent(a))
                        .any(|a| a.name == "repair.detect")
                };
                assert!(
                    snap.spans
                        .iter()
                        .any(|s| s.name == "check.trace" && under_detect(s)),
                    "fix: no check.trace span under repair.detect in {:?}",
                    snap.spans
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn metrics_file_lands_even_when_the_command_fails() {
        let dir = scratch_dir("metrics_err");
        let metrics = dir.join("m.json");
        let args: Vec<String> = vec![
            "run".into(),
            dir.join("no_such_file.pmc").to_string_lossy().to_string(),
            "--metrics".into(),
            metrics.to_string_lossy().to_string(),
        ];
        assert!(dispatch(&args).is_err());
        let snap = pmobs::Snapshot::from_json(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        assert!(snap.spans.iter().any(|s| s.name == "cli.run"));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The ISSUE acceptance command: an exploration-sourced fix of the
    /// ordering demo must cover at least six pipeline stages and count the
    /// fences/flushes it inserted.
    #[test]
    fn exploration_fix_metrics_cover_six_stages_and_inserted_fixes() {
        let dir = scratch_dir("metrics_stages");
        let demo = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../examples/ordering_demo.pmc"
        );
        let metrics = dir.join("m.json");
        let args: Vec<String> = [
            "fix",
            demo,
            "--bug-source",
            "exploration",
            "--budget",
            "64",
            "--seed",
            "0",
            "-o",
            &dir.join("healed.ir").to_string_lossy(),
            "--metrics",
            &metrics.to_string_lossy(),
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        dispatch(&args).unwrap();
        let snap = pmobs::Snapshot::from_json(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
        let stages = snap.span_stages();
        assert!(
            stages.len() >= 6,
            "only {} stages: {stages:?}",
            stages.len()
        );
        for stage in ["cli", "repair", "explore", "vm", "check", "tx"] {
            assert!(
                stages.contains(stage),
                "missing stage `{stage}`: {stages:?}"
            );
        }
        let inserted = snap
            .counters
            .get("repair.inserted.fences")
            .copied()
            .unwrap_or(0)
            + snap
                .counters
                .get("repair.inserted.flushes")
                .copied()
                .unwrap_or(0);
        assert!(
            inserted >= 1,
            "no inserted fixes counted: {:?}",
            snap.counters
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
