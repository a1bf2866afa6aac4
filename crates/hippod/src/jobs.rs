//! Job specifications, states, and the worker body that executes them.
//!
//! A job is a self-contained request: the source files travel inline as
//! name/text pairs, so the daemon never reads the client's filesystem and the
//! compiled module carries the *original* path names in its debug
//! locations. That is what makes daemon output byte-identical to a
//! standalone `hippoctl` run over the same files — same sources, same
//! names, same deterministic pipeline, same defaults.
//!
//! Execution is pure in the spec: [`job_digest`] keys a whole-result warm
//! cache, and a hit replays the exact artifact the cold run produced.

use hippocrates::{BugSource, Hippocrates, RepairOptions, WarmCache};
use pmir::Module;
use serde::{Deserialize, Serialize};
use std::fmt;

/// What a job runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobKind {
    /// Static persistency check (`pmstatic`) — no execution.
    Lint,
    /// Crash-state exploration with the recovery oracle (`pmexplore`).
    Explore,
    /// The full detect→fix→verify repair loop; the artifact is the fixed
    /// module's textual IR.
    Fix,
    /// The inverse pass (`pmredund`): strip redundant flushes/fences with
    /// per-removal re-verification; the artifact is the optimized IR.
    Optimize,
}

impl JobKind {
    /// Parses the CLI spelling.
    ///
    /// # Errors
    ///
    /// Lists the accepted spellings.
    pub fn parse(s: &str) -> Result<JobKind, String> {
        match s {
            "lint" => Ok(JobKind::Lint),
            "explore" => Ok(JobKind::Explore),
            "fix" => Ok(JobKind::Fix),
            "optimize" => Ok(JobKind::Optimize),
            other => Err(format!(
                "job kind supports lint|explore|fix|optimize, got `{other}`"
            )),
        }
    }
}

impl fmt::Display for JobKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JobKind::Lint => "lint",
            JobKind::Explore => "explore",
            JobKind::Fix => "fix",
            JobKind::Optimize => "optimize",
        })
    }
}

/// A job's lifecycle state. Transitions only move forward:
/// `Queued → Running → {Done, Failed}`, or `Queued → Canceled`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    Queued,
    Running,
    Done,
    Failed,
    Canceled,
}

impl JobState {
    /// Terminal states never change again (and are what the journal
    /// considers finished on resume).
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed | JobState::Canceled)
    }
}

impl fmt::Display for JobState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Canceled => "canceled",
        })
    }
}

/// A complete job request. `sources` are `(name, text)` pairs; names
/// should be the client's original paths so diagnostics and debug
/// locations match a local run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    pub kind: JobKind,
    pub entry: String,
    pub sources: Vec<(String, String)>,
    /// `dynamic|static|both|exploration` — the fix loop's bug finder
    /// (ignored by other kinds). A string, not an enum, so the wire format
    /// matches the CLI flag verbatim.
    pub bug_source: String,
    /// Crash-state budget (explore/fix-with-exploration/optimize).
    pub budget: u64,
    /// Exploration sampler seed.
    pub seed: u64,
    /// Exploration worker threads. Never changes findings.
    pub jobs: u64,
    /// Per-job wall-clock budget (pmtx cooperative deadline). `None` is
    /// unlimited.
    pub deadline_ms: Option<u64>,
    /// Campaign fan-out: split an `explore` job into this many shard units
    /// scheduled independently across the worker pool (lease-based, see
    /// the `shard` module). `1` (the default, and the wire default for old
    /// clients) runs the job whole. The merged artifact is byte-identical
    /// for every value.
    #[serde(default = "default_shards")]
    pub shards: u64,
}

fn default_shards() -> u64 {
    1
}

/// The most shards one campaign may fan into — enough to saturate any
/// realistic worker pool while bounding journal and scheduler state.
pub const MAX_SHARDS: u64 = 64;

/// The most exploration worker threads one job may ask for. Each is an OS
/// thread the daemon starts on the client's behalf, so the client's
/// number is bounded like the shard count.
pub const MAX_JOBS: u64 = 64;

impl JobSpec {
    /// A spec with the same defaults as the `hippoctl` command line, so a
    /// bare submission reproduces a bare CLI run.
    pub fn new(kind: JobKind, sources: Vec<(String, String)>) -> JobSpec {
        JobSpec {
            kind,
            entry: "main".to_string(),
            sources,
            bug_source: "dynamic".to_string(),
            budget: 256,
            seed: 0,
            jobs: 1,
            deadline_ms: None,
            shards: 1,
        }
    }

    /// Validates the spec before it is journaled or queued.
    ///
    /// # Errors
    ///
    /// Returns the human-readable reason the spec is unusable.
    pub fn validate(&self) -> Result<(), String> {
        if self.sources.is_empty() {
            return Err("job has no source files".to_string());
        }
        if self.entry.is_empty() {
            return Err("job has an empty entry point".to_string());
        }
        if self.budget == 0 {
            return Err("budget must be at least 1".to_string());
        }
        if self.jobs == 0 {
            return Err("jobs must be at least 1".to_string());
        }
        if self.jobs > MAX_JOBS {
            return Err(format!("jobs must be at most {MAX_JOBS}"));
        }
        if self.deadline_ms == Some(0) {
            return Err("deadline_ms must be positive (or omitted)".to_string());
        }
        if self.shards == 0 {
            return Err("shards must be at least 1".to_string());
        }
        if self.shards > MAX_SHARDS {
            return Err(format!("shards must be at most {MAX_SHARDS}"));
        }
        if self.shards > 1 && self.kind != JobKind::Explore {
            return Err(format!(
                "only explore jobs shard (got shards={} for a {} job)",
                self.shards, self.kind
            ));
        }
        parse_bug_source(&self.bug_source).map(|_| ())
    }
}

fn parse_bug_source(s: &str) -> Result<BugSource, String> {
    match s {
        "dynamic" => Ok(BugSource::Dynamic),
        "static" => Ok(BugSource::Static),
        "both" => Ok(BugSource::Both),
        "exploration" => Ok(BugSource::Exploration),
        other => Err(format!(
            "bug_source supports dynamic|static|both|exploration, got `{other}`"
        )),
    }
}

/// Digest of everything that shapes a job's artifact — the whole-result
/// cache key. Two jobs with equal digests produce byte-identical results,
/// so a cache hit *is* the cold answer.
pub fn job_digest(spec: &JobSpec) -> u64 {
    let sources = WarmCache::source_key(&spec.sources);
    let canon = format!(
        "kind={} entry={} sources={sources:016x} bug_source={} budget={} seed={} jobs={} deadline={:?} shards={}",
        spec.kind, spec.entry, spec.bug_source, spec.budget, spec.seed, spec.jobs, spec.deadline_ms, spec.shards,
    );
    pmir::snapshot::fnv1a(canon.as_bytes())
}

/// A finished job's artifact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobResult {
    /// The deliverable: fixed/optimized module IR, or the rendered report
    /// for lint/explore. Byte-identical to the standalone CLI artifact.
    pub output: String,
    /// One human-readable summary line.
    pub summary: String,
    /// Whether the module/report came back clean.
    pub clean: bool,
    /// Served from the whole-result warm cache (no recomputation).
    pub cached: bool,
    pub duration_ms: u64,
}

/// One committed shard result — the unit the campaign scheduler journals
/// (`ShardFinished`) and the merge step concatenates. Deterministic in
/// `(spec, shard_index)`: any worker, on any attempt, commits these exact
/// bytes, which is what makes the merged campaign artifact byte-identical
/// no matter how many workers died along the way.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardDone {
    /// The shard's rendered exploration report.
    pub output: String,
    /// One human-readable summary line.
    pub summary: String,
    /// Whether this shard's frontier slice came back clean.
    pub clean: bool,
}

/// The client-visible view of a job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobView {
    pub id: String,
    pub kind: JobKind,
    pub state: JobState,
    /// Why the job failed (state `Failed`), if it did.
    pub error: Option<String>,
    /// The artifact, once the job is `Done`.
    pub result: Option<JobResult>,
}

/// Compiles the spec's sources with their original names (cache-aware).
/// A lone `.ir` source parses as textual pmir, mirroring the standalone
/// CLI — so a healed artifact can be resubmitted for lint/explore jobs.
fn compile(spec: &JobSpec, cache: &WarmCache, obs: &pmobs::Obs) -> Result<Module, String> {
    let key = WarmCache::source_key(&spec.sources);
    let m = cache.module(key, obs, || {
        if spec.sources.iter().any(|(name, _)| name.ends_with(".ir")) {
            let [(name, text)] = &spec.sources[..] else {
                return Err("an .ir module must be loaded alone".to_string());
            };
            return pmir::parse::parse_module(text).map_err(|e| format!("{name}: {e}"));
        }
        let mut c = pmlang::Compiler::new();
        for (name, text) in &spec.sources {
            c = c.source(name.clone(), text.clone());
        }
        c.compile().map_err(|e| e.to_string())
    })?;
    // Fix/optimize mutate the module; clone out of the shared cache entry.
    Ok(Module::clone(&m))
}

/// Runs one job to completion. This is the worker body: deterministic in
/// the spec, shared-cache-aware, and it never touches the filesystem.
///
/// # Errors
///
/// Returns the failure message recorded on the job (compile errors, traps,
/// failed repairs, tripped budgets).
pub fn execute(spec: &JobSpec, cache: &WarmCache, obs: &pmobs::Obs) -> Result<JobResult, String> {
    spec.validate()?;
    let started = std::time::Instant::now();
    let _span = obs.span(&format!("serve.job.{}", spec.kind));
    let m = compile(spec, cache, obs)?;
    let (output, summary, clean) = match spec.kind {
        JobKind::Lint => lint(&m, spec, cache, obs)?,
        JobKind::Explore => explore(&m, spec, obs)?,
        JobKind::Fix => fix(m, spec, cache, obs)?,
        JobKind::Optimize => optimize(m, spec, obs)?,
    };
    Ok(JobResult {
        output,
        summary,
        clean,
        cached: false,
        duration_ms: started.elapsed().as_millis() as u64,
    })
}

/// Runs one shard of a sharded explore campaign: the same deterministic
/// pipeline as [`execute`], restricted to the shard's slice of the
/// frontier set. This is the campaign worker body — pure in
/// `(spec, shard)`, so retries after worker deaths recompute identical
/// bytes.
///
/// # Errors
///
/// Returns the failure message (compile errors, traps, tripped budgets);
/// the scheduler counts it against the shard's retry budget.
pub fn execute_shard(
    spec: &JobSpec,
    shard: u64,
    cache: &WarmCache,
    obs: &pmobs::Obs,
) -> Result<ShardDone, String> {
    spec.validate()?;
    if spec.kind != JobKind::Explore {
        return Err(format!("only explore jobs shard, not {}", spec.kind));
    }
    if shard >= spec.shards {
        return Err(format!(
            "shard {shard} out of range for a {}-shard campaign",
            spec.shards
        ));
    }
    let _span = obs.span("serve.job.explore.shard");
    let m = compile(spec, cache, obs)?;
    let opts = pmexplore::ExploreOptions {
        budget: spec.budget as usize,
        seed: spec.seed,
        jobs: spec.jobs as usize,
        obs: obs.clone(),
        shard: Some((shard, spec.shards)),
        ..pmexplore::ExploreOptions::default()
    };
    let x = pmexplore::run_and_explore(&m, &spec.entry, &opts).map_err(|e| e.to_string())?;
    let clean = x.report.is_clean();
    let summary = if clean {
        format!(
            "shard {shard}/{}: {} candidate state(s) consistent",
            spec.shards, x.report.stats.candidates
        )
    } else {
        format!(
            "shard {shard}/{}: {} inconsistent crash state(s)",
            spec.shards,
            x.report.findings.len()
        )
    };
    Ok(ShardDone {
        output: x.report.render(),
        summary,
        clean,
    })
}

fn lint(
    m: &Module,
    spec: &JobSpec,
    cache: &WarmCache,
    obs: &pmobs::Obs,
) -> Result<(String, String, bool), String> {
    let budget = pmtx::Budget::new(spec.deadline_ms, None);
    let report = cache.static_report(m, &spec.entry, obs, || {
        pmstatic::check_module_budgeted(m, &spec.entry, obs, &budget).map_err(|e| e.to_string())
    })?;
    let warnings = report.deduped_bugs().len() + report.redundant_flushes.len();
    let clean = warnings == 0;
    let summary = if clean {
        "lint: clean".to_string()
    } else {
        format!("lint: {warnings} warning(s)")
    };
    Ok((report.render(), summary, clean))
}

fn explore(m: &Module, spec: &JobSpec, obs: &pmobs::Obs) -> Result<(String, String, bool), String> {
    let opts = pmexplore::ExploreOptions {
        budget: spec.budget as usize,
        seed: spec.seed,
        jobs: spec.jobs as usize,
        obs: obs.clone(),
        ..pmexplore::ExploreOptions::default()
    };
    let x = pmexplore::run_and_explore(m, &spec.entry, &opts).map_err(|e| e.to_string())?;
    let clean = x.report.is_clean();
    let summary = if clean {
        format!(
            "explore: {} candidate state(s) consistent",
            x.report.stats.candidates
        )
    } else {
        format!(
            "explore: {} inconsistent crash state(s)",
            x.report.findings.len()
        )
    };
    Ok((x.report.render(), summary, clean))
}

fn fix(
    mut m: Module,
    spec: &JobSpec,
    cache: &WarmCache,
    obs: &pmobs::Obs,
) -> Result<(String, String, bool), String> {
    let opts = RepairOptions {
        bug_source: parse_bug_source(&spec.bug_source)?,
        explore_budget: spec.budget as usize,
        explore_seed: spec.seed,
        explore_jobs: spec.jobs as usize,
        deadline_ms: spec.deadline_ms,
        obs: obs.clone(),
        cache: cache.clone(),
        ..RepairOptions::default()
    };
    let outcome = Hippocrates::new(opts)
        .repair_until_clean(&mut m, &spec.entry)
        .map_err(|e| e.to_string())?;
    let summary = format!(
        "fix: {} fix(es), {} interprocedural, {} iteration(s), {} quarantined",
        outcome.fixes.len(),
        outcome.interprocedural_count(),
        outcome.iterations,
        outcome.quarantined.len(),
    );
    Ok((pmir::display::print_module(&m), summary, outcome.clean))
}

fn optimize(
    mut m: Module,
    spec: &JobSpec,
    obs: &pmobs::Obs,
) -> Result<(String, String, bool), String> {
    let opts = pmredund::OptimizeOptions {
        entry: spec.entry.clone(),
        explore_budget: spec.budget as usize,
        explore_seed: spec.seed,
        explore_jobs: spec.jobs as usize,
        obs: obs.clone(),
    };
    let out = pmredund::optimize_module(&mut m, &opts).map_err(|e| e.to_string())?;
    let summary = format!("optimize: {out}");
    Ok((pmir::display::print_module(&m), summary, true))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BUGGY: &str = "fn main() {\n    var p: ptr = pmem_map(0, 4096);\n    store8(p, 0, 7);\n    print(load8(p, 0));\n}\n";

    fn spec(kind: JobKind) -> JobSpec {
        JobSpec::new(kind, vec![("buggy.pmc".to_string(), BUGGY.to_string())])
    }

    #[test]
    fn specs_validate_and_digest_by_content() {
        let s = spec(JobKind::Fix);
        s.validate().unwrap();
        let mut other = s.clone();
        assert_eq!(job_digest(&s), job_digest(&other));
        other.seed = 1;
        assert_ne!(job_digest(&s), job_digest(&other));
        let mut bad = s.clone();
        bad.sources.clear();
        assert!(bad.validate().is_err());
        bad = s.clone();
        bad.bug_source = "psychic".to_string();
        let msg = bad.validate().unwrap_err();
        assert!(msg.contains("dynamic|static|both|exploration"), "{msg}");
        // A client cannot make the daemon start an unbounded number of
        // explore threads.
        bad = s.clone();
        bad.jobs = MAX_JOBS;
        bad.validate().unwrap();
        bad.jobs = MAX_JOBS + 1;
        let msg = bad.validate().unwrap_err();
        assert!(msg.contains("jobs must be at most"), "{msg}");
    }

    #[test]
    fn fix_job_repairs_and_emits_module_text() {
        let cache = WarmCache::enabled();
        let obs = pmobs::Obs::default();
        let r = execute(&spec(JobKind::Fix), &cache, &obs).unwrap();
        assert!(r.clean);
        assert!(!r.cached);
        assert!(r.output.contains("clwb"), "fix must insert a flush");
        assert!(r.summary.starts_with("fix: 1 fix(es)"), "{}", r.summary);
    }

    #[test]
    fn fix_jobs_are_deterministic_across_cold_and_warm_caches() {
        // Byte-identity is the daemon's core contract: warm-cache runs must
        // produce exactly the cold artifact.
        let cold = execute(
            &spec(JobKind::Fix),
            &WarmCache::default(),
            &pmobs::Obs::default(),
        )
        .unwrap();
        let cache = WarmCache::enabled();
        let warm1 = execute(&spec(JobKind::Fix), &cache, &pmobs::Obs::default()).unwrap();
        let warm2 = execute(&spec(JobKind::Fix), &cache, &pmobs::Obs::default()).unwrap();
        assert_eq!(cold.output, warm1.output);
        assert_eq!(warm1.output, warm2.output);
        let (hits, _) = cache.stats();
        assert!(hits > 0, "second run must hit the warm cache");
    }

    #[test]
    fn lint_and_explore_jobs_report_findings() {
        let cache = WarmCache::enabled();
        let obs = pmobs::Obs::default();
        let lint = execute(&spec(JobKind::Lint), &cache, &obs).unwrap();
        assert!(!lint.clean, "the unflushed store must lint dirty");
        let explore = execute(&spec(JobKind::Explore), &cache, &obs).unwrap();
        assert!(
            explore.summary.starts_with("explore:"),
            "{}",
            explore.summary
        );
    }

    #[test]
    fn a_lone_ir_source_parses_as_textual_pmir() {
        let cache = WarmCache::enabled();
        let obs = pmobs::Obs::default();
        // Heal the buggy app, then resubmit its artifact as an .ir lint job.
        let healed = execute(&spec(JobKind::Fix), &cache, &obs).unwrap();
        let lint = JobSpec::new(
            JobKind::Lint,
            vec![("healed.ir".to_string(), healed.output.clone())],
        );
        let report = execute(&lint, &cache, &obs).unwrap();
        assert!(report.clean, "the healed artifact must lint clean");
        // An .ir source refuses company, like the standalone CLI.
        let mixed = JobSpec::new(
            JobKind::Lint,
            vec![
                ("healed.ir".to_string(), healed.output),
                ("buggy.pmc".to_string(), BUGGY.to_string()),
            ],
        );
        let err = execute(&mixed, &cache, &obs).unwrap_err();
        assert!(err.contains("loaded alone"), "{err}");
    }

    #[test]
    fn compile_errors_surface_as_job_failures() {
        let cache = WarmCache::default();
        let obs = pmobs::Obs::default();
        let bad = JobSpec::new(
            JobKind::Lint,
            vec![("bad.pmc".to_string(), "fn main( {".to_string())],
        );
        assert!(execute(&bad, &cache, &obs).is_err());
    }
}
