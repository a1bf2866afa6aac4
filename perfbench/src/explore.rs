//! `explore_clean`: one closed-loop client exploring the crash states of
//! correct modules with `pmexplore::run_and_explore`. One operation is one
//! `jobs=1` call, a window a round over the modules, and every call's
//! counts must agree with the set-up's `jobs=1` reference. Each module
//! also runs once at `jobs=2` after the timed loop, checked the same way
//! but untimed and out of set-up, whose time is reported: how fast two
//! threads run beside each other on a small shared VM moved by a quarter
//! against one thread's speed as the host's load changed, which the
//! one-thread reference kernel of [`crate::speed`] cannot follow. The
//! traced run times `jobs=2` calls too.

use crate::gen::Rng;
use crate::trace::Tracer;
use crate::{assert_obs_disabled, ms, stats, Measured, Until, Workload};
use pmexplore::{ExploreOptions, Oracle, Replayer};
use pmir::Module;
use pmvm::{Vm, VmOptions};
use std::collections::BTreeMap;
use std::time::Instant;

/// Crash-state budget per call: near P-CLHT's reachable state count, so a
/// call does a fixed, sizeable amount of work.
const BUDGET: usize = 4096;
/// Candidates booted one by one per stage drive to time the oracle.
const BOOT_PROBES: usize = 32;

pub struct Target {
    pub name: &'static str,
    pub module: Module,
    pub entry: &'static str,
    pub opts: ExploreOptions,
    /// `(candidates, distinct states, findings, rendered report)` at j1.
    pub reference: (usize, usize, usize, String),
}

impl Target {
    fn build(
        name: &'static str,
        module: Module,
        entry: &'static str,
        recover: &str,
        seed: u64,
    ) -> Result<Target, String> {
        let opts = ExploreOptions {
            budget: BUDGET,
            seed,
            oracle: Some(Oracle::returns_zero(recover)),
            ..ExploreOptions::default()
        };
        let mut t = Target {
            name,
            module,
            entry,
            opts,
            reference: (0, 0, 0, String::new()),
        };
        let x = t.explore(1)?;
        t.reference = summary(&x.report);
        Ok(t)
    }

    /// The timed call.
    pub fn explore(&self, jobs: usize) -> Result<pmexplore::Exploration, String> {
        let opts = ExploreOptions {
            jobs,
            ..self.opts.clone()
        };
        assert_obs_disabled(&opts.obs);
        pmexplore::run_and_explore(&self.module, self.entry, &opts).map_err(|e| e.to_string())
    }
}

fn summary(r: &pmexplore::ExploreReport) -> (usize, usize, usize, String) {
    (
        r.stats.candidates,
        r.stats.distinct_states,
        r.findings.len(),
        r.render(),
    )
}

/// The correct P-CLHT and memcached builds, each with its own recovery
/// oracle and a seeded sampler seed.
pub fn targets(seed: u64) -> Result<Vec<Target>, String> {
    let mut rng = Rng::new(seed, 0xE7);
    let e = |e: pmlang::LangError| e.to_string();
    Ok(vec![
        Target::build(
            "pclht",
            pmapps::pclht::build_correct().map_err(e)?,
            pmapps::pclht::ENTRY,
            pmapps::pclht::RECOVER,
            rng.next_u64(),
        )?,
        Target::build(
            "memcached",
            pmapps::memcached::build_correct().map_err(e)?,
            pmapps::memcached::ENTRY,
            pmapps::memcached::RECOVER,
            rng.next_u64(),
        )?,
    ])
}

/// Stage-by-stage figures for one exploration.
#[derive(Debug, Default, Clone, Copy)]
pub struct Stages {
    pub traced_run_ms: f64,
    pub frontiers_ms: f64,
    pub sample_ms: f64,
    pub explore_ms: f64,
    pub boot_us: f64,
    pub vm_run_ms: f64,
    pub vm_steps: f64,
}

/// Drives the exploration pipeline stage by stage: traced run with data
/// capture, frontier build, sampling, the exploration itself, and single
/// oracle boots on sampled crash images.
pub fn drive_stages(
    module: &Module,
    entry: &str,
    opts: &ExploreOptions,
    tracer: &Tracer,
    req: u64,
) -> Result<(Stages, pmexplore::ExploreReport), String> {
    let mut s = Stages::default();
    let vm_opts = VmOptions {
        capture_pm_data: true,
        ..VmOptions::default()
    };
    let c = Instant::now();
    let run = tracer
        .span("pmvm.traced_run", req, || {
            Vm::new(vm_opts).run(module, entry)
        })
        .map_err(|e| e.to_string())?;
    s.traced_run_ms = ms(c.elapsed());
    let trace = run.trace.ok_or("no trace")?;
    let data = run.pm_data.ok_or("no data log")?;
    let c = Instant::now();
    let fronts = tracer.span("pmexplore.frontiers", req, || {
        pmexplore::frontiers(&trace, &data, None)
    });
    s.frontiers_ms = ms(c.elapsed());
    let c = Instant::now();
    let cands = tracer.span("pmexplore.sample", req, || {
        pmexplore::sample(&fronts, opts.budget, opts.seed)
    });
    s.sample_ms = ms(c.elapsed());
    let c = Instant::now();
    let report = tracer.span("pmexplore.explore", req, || {
        pmexplore::explore(module, entry, &trace, &data, opts)
    });
    s.explore_ms = ms(c.elapsed());
    let oracle = opts
        .oracle
        .clone()
        .unwrap_or_else(|| Oracle::default_for(module, entry));
    let decoded = pmvm::DecodedModule::decode(module);
    let step = (cands.len() / BOOT_PROBES).max(1);
    let mut replayer = Replayer::new(&trace, &data, None);
    let (mut boots, mut boot_us, mut run_ms, mut steps) = (0u32, 0.0, 0.0, 0u64);
    for cand in cands.iter().step_by(step).take(BOOT_PROBES) {
        replayer.advance_to(cand.after_seq);
        let c = Instant::now();
        let verdict = tracer.span("pmexplore.oracle_boot", req, || {
            oracle.check_opts(
                module,
                replayer.image_with(&cand.lines),
                opts.max_recovery_steps,
                None,
                None,
                opts.tier,
                Some(&decoded),
            )
        });
        boot_us += c.elapsed().as_secs_f64() * 1e6;
        std::hint::black_box(verdict);
        let boot = VmOptions {
            trace: false,
            max_steps: opts.max_recovery_steps,
            ..VmOptions::default()
        }
        .with_media(replayer.image_with(&cand.lines).into_media());
        let c = Instant::now();
        let r = tracer
            .span("pmvm.run", req, || {
                Vm::new(boot).run_prepared(module, &oracle.entry, Some(&decoded))
            })
            .map_err(|e| e.to_string())?;
        run_ms += ms(c.elapsed());
        steps += r.steps;
        boots += 1;
    }
    let n = f64::from(boots.max(1));
    s.boot_us = boot_us / n;
    s.vm_run_ms = run_ms / n;
    s.vm_steps = steps as f64 / n;
    Ok((s, report))
}

pub struct ExploreClean {
    targets: Vec<Target>,
}

impl ExploreClean {
    /// One round: every target at each of `jobs`, each call checked
    /// against the j1 reference. Returns `(target, jobs, ms, check)` per
    /// call.
    fn round(
        &self,
        tracer: &Tracer,
        req: u64,
        jobs: &[usize],
    ) -> Vec<(usize, usize, f64, Result<(), String>)> {
        let mut calls = Vec::with_capacity(jobs.len() * self.targets.len());
        for (ti, t) in self.targets.iter().enumerate() {
            for &jobs in jobs {
                let c = Instant::now();
                let x = tracer.span("pmexplore.run_and_explore", req, || t.explore(jobs));
                let call_ms = ms(c.elapsed());
                let checked = x.and_then(|x| {
                    if summary(&x.report) == t.reference {
                        Ok(())
                    } else {
                        Err(format!(
                            "{} j{jobs}: counts or findings differ from the j1 reference",
                            t.name
                        ))
                    }
                });
                calls.push((ti, jobs, call_ms, checked));
            }
        }
        calls
    }
}

impl Workload for ExploreClean {
    const ROOT: &'static str = "explore.round";

    fn setup(seed: u64, _segment: usize) -> Result<Self, String> {
        let w = ExploreClean {
            targets: targets(seed)?,
        };
        // One untimed warm-up round.
        for (_, _, _, checked) in w.round(&Tracer::new(false), 0, &[1]) {
            checked?;
        }
        Ok(w)
    }

    fn measure(&mut self, until: Until, tracer: &Tracer) -> Measured {
        let mut out = Measured::default();
        let mut calls = Vec::with_capacity(crate::SAMPLES);
        let mut stages = Vec::new();
        let jobs: &[usize] = if tracer.is_on() { &[1, 2] } else { &[1] };
        let started = Instant::now();
        let mut i = 0u64;
        while !until.done(started, i, 1) {
            i += 1;
            for (ti, jobs, call_ms, checked) in
                tracer.span("explore.round", i, || self.round(tracer, i, jobs))
            {
                if jobs == 1 {
                    out.record(call_ms, checked);
                } else {
                    out.count(checked);
                }
                calls.push((ti, jobs, call_ms));
            }
            out.close_window();
            if tracer.is_on() {
                for t in &self.targets {
                    match drive_stages(&t.module, t.entry, &t.opts, tracer, i) {
                        Ok((s, r)) if summary(&r) == t.reference => stages.push(s),
                        Ok(_) => out.fail(format!("{}: stage-driven exploration differs", t.name)),
                        Err(e) => out.fail(e),
                    }
                }
            }
        }
        if !tracer.is_on() {
            // Untimed: j2 against the j1 reference.
            for (_, _, _, checked) in self.round(tracer, 0, &[2]) {
                out.count(checked);
            }
        }
        for t in &self.targets {
            let (c, d, f, report) = &t.reference;
            let digest = pmir::snapshot::fnv1a(report.as_bytes());
            out.exact.insert(
                format!("{}.candidates/distinct/findings", t.name),
                format!("{c}/{d}/{f}"),
            );
            out.exact.insert(
                format!("{}.report_digest", t.name),
                format!("{digest:016x}"),
            );
        }
        if tracer.is_on() {
            summarize(&mut out, &self.targets, &calls, &stages);
        }
        out
    }
}

fn summarize(
    out: &mut Measured,
    targets: &[Target],
    calls: &[(usize, usize, f64)],
    stages: &[Stages],
) {
    let l = &mut out.layers;
    l.insert(
        "pmvm.traced_run_ms",
        stats::mean(&stages.iter().map(|s| s.traced_run_ms).collect::<Vec<_>>()),
    );
    stage_layers(l, stages);
    let n = targets.len() as f64;
    let cands: f64 = targets.iter().map(|t| t.reference.0 as f64).sum();
    let distinct: f64 = targets.iter().map(|t| t.reference.1 as f64).sum();
    l.insert("pmexplore.candidates", cands / n);
    l.insert(
        "pmexplore.distinct_ratio",
        if cands > 0.0 { distinct / cands } else { 0.0 },
    );
    // States per second at each job count: all candidates explored at that
    // count over the time those calls took.
    let rate = |jobs: usize| {
        let (states, secs) = calls
            .iter()
            .filter(|c| c.1 == jobs)
            .fold((0.0, 0.0), |(s, t), &(ti, _, ms)| {
                (s + targets[ti].reference.0 as f64, t + ms / 1e3)
            });
        if secs > 0.0 {
            states / secs
        } else {
            0.0
        }
    };
    let (j1, j2) = (rate(1), rate(2));
    l.insert("pmexplore.j1_states_per_s", j1);
    l.insert("pmexplore.j2_states_per_s", j2);
    l.insert("pmexplore.j2_over_j1", if j1 > 0.0 { j2 / j1 } else { 0.0 });
    let j1_calls: Vec<f64> = calls.iter().filter(|c| c.1 == 1).map(|c| c.2).collect();
    l.insert("pmexplore.j1_call_ms", stats::mean(&j1_calls));
}

/// Inserts the per-layer means of stage-driven explorations (all but the
/// traced run, which the fix stages also report).
pub fn stage_layers(l: &mut BTreeMap<&'static str, f64>, stages: &[Stages]) {
    let mean = |f: &dyn Fn(&Stages) -> f64| stats::mean(&stages.iter().map(f).collect::<Vec<_>>());
    l.insert("pmexplore.frontiers_ms", mean(&|s| s.frontiers_ms));
    l.insert("pmexplore.sample_ms", mean(&|s| s.sample_ms));
    l.insert("pmexplore.explore_ms", mean(&|s| s.explore_ms));
    l.insert("pmexplore.oracle_boot_us", mean(&|s| s.boot_us));
    l.insert("pmvm.run_ms", mean(&|s| s.vm_run_ms));
    let (steps, run_ms) = (mean(&|s| s.vm_steps), mean(&|s| s.vm_run_ms));
    l.insert(
        "pmvm.minsn_per_s",
        if run_ms > 0.0 {
            steps / run_ms / 1e3
        } else {
            0.0
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn j1_and_j2_agree_and_seed_moves_the_sample() {
        let w = ExploreClean::setup(3, 0).expect("setup");
        let calls = w.round(&Tracer::new(false), 1, &[1, 2]);
        assert_eq!(calls.len(), 4);
        for (_, _, _, checked) in calls {
            checked.expect("j1 and j2 agree with the reference");
        }
        let again = targets(3).expect("targets");
        let other = targets(4).expect("targets");
        for ((a, b), c) in w.targets.iter().zip(&again).zip(&other) {
            assert_eq!(a.reference, b.reference, "{}", a.name);
            assert_ne!(a.opts.seed, c.opts.seed, "{}", a.name);
        }
    }
}
