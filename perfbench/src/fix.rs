//! `fix_dynamic`: one closed-loop client; each request compiles one buggy
//! module from source and heals it with `repair_until_clean` under fresh
//! default options (dynamic bug source, no warm cache), as one
//! `hippoctl fix` run pays.

use crate::gen::{redis_calibration, Publish, Rng};
use crate::trace::Tracer;
use crate::{assert_obs_disabled, ms, stats, Measured, Until, Workload};
use bugdb::Target;
use hippocrates::{Hippocrates, RepairOptions};
use pmapps::redis::{self, RedisBuild, RedisOp};
use pmir::{Module, ModuleMetrics};
use pmvm::{Vm, VmOptions};
use std::collections::BTreeMap;
use std::time::Instant;

/// Generated publish programs per deck.
const PUBLISH_PER_DECK: u64 = 24;

#[derive(Debug, Clone)]
pub enum Request {
    Corpus { id: &'static str, target: Target },
    Redis(Vec<RedisOp>),
    Publish(Publish),
}

impl Request {
    /// Compiles the buggy module from source; returns it with its entry.
    pub fn build(&self) -> Result<(Module, String), String> {
        let e = |e: pmlang::LangError| e.to_string();
        Ok(match self {
            Request::Corpus { id, target } => match target {
                Target::Pmdk => (
                    minipmdk::build_buggy(id).map_err(e)?,
                    minipmdk::entry_for(id),
                ),
                Target::Pclht => (
                    pmapps::pclht::build_buggy(id).map_err(e)?,
                    pmapps::pclht::ENTRY.to_string(),
                ),
                Target::Memcached => (
                    pmapps::memcached::build_buggy(id).map_err(e)?,
                    pmapps::memcached::ENTRY.to_string(),
                ),
            },
            Request::Redis(ops) => {
                let mut m = redis::build(RedisBuild::FlushFree).map_err(e)?;
                let entry = redis::attach_workload(&mut m, "cal", ops);
                (m, entry)
            }
            Request::Publish(p) => (
                pmlang::compile_one(&p.file_name(), &p.source()).map_err(e)?,
                "main".to_string(),
            ),
        })
    }

    pub fn label(&self) -> String {
        match self {
            Request::Corpus { id, .. } => id.to_string(),
            Request::Redis(_) => "redis".to_string(),
            Request::Publish(p) => p.file_name(),
        }
    }
}

/// The seeded request deck: the 23 corpus bugs, the flush-free Redis and
/// generated publish programs, shuffled.
pub fn deck(seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed, 0xF1);
    let mut reqs: Vec<Request> = bugdb::corpus()
        .into_iter()
        .map(|b| Request::Corpus {
            id: b.id,
            target: b.target,
        })
        .collect();
    reqs.push(Request::Redis(redis_calibration(&mut rng)));
    reqs.extend(
        Publish::stratified(&mut rng, PUBLISH_PER_DECK, 100)
            .into_iter()
            .map(Request::Publish),
    );
    rng.shuffle(&mut reqs);
    reqs
}

/// What one healed request produced, for the exact-count checks.
#[derive(Debug, Clone, PartialEq)]
pub struct Healed {
    pub fixes: usize,
    pub rounds: u32,
    pub committed: u32,
    pub interproc: usize,
    pub insts_before: usize,
    pub insts_after: usize,
    pub digest: u64,
}

impl Healed {
    pub fn growth_pct(&self) -> f64 {
        (self.insts_after as f64 - self.insts_before as f64) / self.insts_before as f64 * 100.0
    }
}

/// Heals `m` in place with fresh default options: the timed call.
pub fn heal(m: &mut Module, entry: &str) -> Result<hippocrates::RepairOutcome, String> {
    let opts = RepairOptions::default();
    assert_obs_disabled(&opts.obs);
    Hippocrates::new(opts)
        .repair_until_clean(m, entry)
        .map_err(|e| e.to_string())
}

/// Do no harm: the healed program prints what the unrepaired one prints,
/// and a fresh pmcheck run finds no bug. Returns the instructions the
/// untraced run of the unrepaired program executed.
pub fn check_healed(
    original: &Module,
    healed: &Module,
    entry: &str,
    tracer: &Tracer,
    req: u64,
) -> Result<u64, String> {
    let before = tracer
        .span("pmvm.run", req, || {
            Vm::new(VmOptions::bench()).run(original, entry)
        })
        .map_err(|e| format!("unrepaired run: {e}"))?;
    let after = pmcheck::run_and_check(healed, entry, VmOptions::default())
        .map_err(|e| format!("healed run: {e}"))?;
    if after.run.output != before.output {
        return Err("healed output differs from the unrepaired output".to_string());
    }
    if !after.report.is_clean() {
        return Err(format!(
            "pmcheck still finds {} bug(s) after healing",
            after.report.deduped_bugs().len()
        ));
    }
    Ok(before.steps)
}

/// Per-request figures from driving one detect→fix→verify round stage by
/// stage, as the traced run does.
#[derive(Debug, Default, Clone, Copy)]
pub struct Stages {
    pub traced_run_ms: f64,
    pub trace_events: f64,
    pub check_ms: f64,
    pub bugs_deduped: f64,
    pub alias_ms: f64,
    pub alias_objects: f64,
    pub repair_once_ms: f64,
    pub verify_ms: f64,
    pub digest_ms: f64,
}

/// Drives one round stage by stage on a fresh copy of the buggy module:
/// traced `Vm::run`, `check_trace`, `AliasAnalysis::analyze`,
/// `repair_once`, `verify_module`, plus the snapshot digest every
/// transactional round pays.
pub fn drive_stages(
    mut m: Module,
    entry: &str,
    tracer: &Tracer,
    req: u64,
) -> Result<Stages, String> {
    let mut s = Stages::default();
    let t = Instant::now();
    let run = tracer
        .span("pmvm.traced_run", req, || {
            Vm::new(VmOptions::default()).run(&m, entry)
        })
        .map_err(|e| e.to_string())?;
    s.traced_run_ms = ms(t.elapsed());
    let trace = run.trace.ok_or("traced run returned no trace")?;
    s.trace_events = trace.len() as f64;
    let t = Instant::now();
    let report = tracer.span("pmcheck.check_trace", req, || pmcheck::check_trace(&trace));
    s.check_ms = ms(t.elapsed());
    s.bugs_deduped = report.deduped_bugs().len() as f64;
    let t = Instant::now();
    let aa = tracer.span("pmalias.analyze", req, || {
        pmalias::AliasAnalysis::analyze(&m)
    });
    s.alias_ms = ms(t.elapsed());
    s.alias_objects = aa.object_count() as f64;
    let t = Instant::now();
    tracer
        .span("core.repair_once", req, || {
            Hippocrates::new(RepairOptions::default()).repair_once(&mut m, &trace, &report)
        })
        .map_err(|e| e.to_string())?;
    s.repair_once_ms = ms(t.elapsed());
    let t = Instant::now();
    tracer
        .span("pmir.verify", req, || pmir::verify::verify_module(&m))
        .map_err(|e| e.to_string())?;
    s.verify_ms = ms(t.elapsed());
    let t = Instant::now();
    std::hint::black_box(tracer.span("pmir.digest", req, || pmir::snapshot::digest(&m)));
    s.digest_ms = ms(t.elapsed());
    Ok(s)
}

pub struct FixDynamic {
    deck: Vec<Request>,
}

impl Workload for FixDynamic {
    const ROOT: &'static str = "fix.request";

    fn setup(seed: u64, _segment: usize) -> Result<Self, String> {
        let deck = deck(seed);
        // Warm-up is one pass over the deck, Redis, the largest request,
        // first whatever the deck order, so the heap's peak does not depend
        // on where the shuffle put it.
        let redis = deck.iter().filter(|r| matches!(r, Request::Redis(_)));
        let rest = deck.iter().filter(|r| !matches!(r, Request::Redis(_)));
        for req in redis.chain(rest) {
            let (mut m, entry) = req.build()?;
            heal(&mut m, &entry).map_err(|e| format!("warm-up {}: {e}", req.label()))?;
        }
        Ok(FixDynamic { deck })
    }

    fn measure(&mut self, until: Until, tracer: &Tracer) -> Measured {
        let mut out = Measured::default();
        // Exact figures come from the first pass over the deck, so they
        // depend on the seed alone, never on how far the run got.
        let mut first_pass: Vec<Healed> = Vec::with_capacity(self.deck.len());
        let mut stages: Vec<(Stages, u32, f64)> = Vec::new();
        let mut compile_ms = Vec::with_capacity(crate::SAMPLES);
        // Instructions the checks' untraced runs executed.
        let mut vm_steps = 0u64;
        let started = Instant::now();
        let mut i = 0usize;
        while !until.done(started, i as u64, self.deck.len() as u64) {
            if i > 0 && i.is_multiple_of(self.deck.len()) {
                out.close_window();
            }
            let req = &self.deck[i % self.deck.len()];
            let id = i as u64;
            i += 1;
            let t = Instant::now();
            let timed = tracer.span("fix.request", id, || {
                let (mut m, entry) = tracer.span("pmlang.compile", id, || req.build())?;
                let c = t.elapsed();
                let outcome =
                    tracer.span("core.repair_until_clean", id, || heal(&mut m, &entry))?;
                Ok::<_, String>((m, entry, outcome, c))
            });
            let lat = ms(t.elapsed());
            let (healed, entry, outcome, c) = match timed {
                Ok(v) => v,
                Err(e) => {
                    out.record(lat, Err(format!("{}: {e}", req.label())));
                    continue;
                }
            };
            compile_ms.push(ms(c));
            // Untimed: rebuild the unrepaired module and check do-no-harm.
            let checked = req.build().and_then(|(original, _)| {
                if !outcome.clean {
                    return Err("repair did not converge clean".to_string());
                }
                vm_steps += check_healed(&original, &healed, &entry, tracer, id)?;
                Ok(original)
            });
            let original = match checked {
                Ok(o) => o,
                Err(e) => {
                    out.record(lat, Err(format!("{}: {e}", req.label())));
                    continue;
                }
            };
            if first_pass.len() < self.deck.len() {
                first_pass.push(Healed {
                    fixes: outcome.fixes.len(),
                    rounds: outcome.iterations,
                    committed: outcome.committed_rounds,
                    interproc: outcome.interprocedural_count(),
                    insts_before: ModuleMetrics::measure(&original).insts,
                    insts_after: ModuleMetrics::measure(&healed).insts,
                    digest: pmir::snapshot::digest(&healed),
                });
            }
            if tracer.is_on() {
                match drive_stages(original, &entry, tracer, id) {
                    Ok(s) => stages.push((s, outcome.iterations, lat)),
                    Err(e) => {
                        out.record(lat, Err(format!("{}: stage drive: {e}", req.label())));
                        continue;
                    }
                }
            }
            out.record(lat, Ok(()));
        }
        if i.is_multiple_of(self.deck.len()) {
            out.close_window();
        }
        summarize(&mut out, &first_pass, &stages, &compile_ms, tracer.is_on());
        if tracer.is_on() {
            let spans = crate::trace::Spans::new(tracer.spans());
            let run_ms = spans.total_ms("pmvm.run");
            out.layers.insert("pmvm.run_ms", spans.mean_ms("pmvm.run"));
            out.layers.insert(
                "pmvm.minsn_per_s",
                if run_ms > 0.0 {
                    vm_steps as f64 / run_ms / 1e3
                } else {
                    0.0
                },
            );
        }
        out
    }
}

fn summarize(
    out: &mut Measured,
    first_pass: &[Healed],
    stages: &[(Stages, u32, f64)],
    compile_ms: &[f64],
    traced: bool,
) {
    let n = first_pass.len().max(1) as f64;
    let sum = |f: &dyn Fn(&Healed) -> f64| first_pass.iter().map(f).sum::<f64>();
    let growth = sum(&|h| h.growth_pct()) / n;
    let fixes: usize = first_pass.iter().map(|h| h.fixes).sum();
    let rounds: u32 = first_pass.iter().map(|h| h.rounds).sum();
    let committed: u32 = first_pass.iter().map(|h| h.committed).sum();
    let digests = first_pass
        .iter()
        .fold(0u64, |acc, h| acc.rotate_left(7) ^ h.digest);
    out.exact
        .insert("deck_requests".into(), first_pass.len().to_string());
    out.exact.insert("fixes".into(), fixes.to_string());
    out.exact.insert("rounds".into(), rounds.to_string());
    out.exact
        .insert("committed_rounds".into(), committed.to_string());
    out.exact
        .insert("ir_growth_pct".into(), format!("{growth:.6}"));
    out.exact
        .insert("healed_digests".into(), format!("{digests:016x}"));
    if !traced {
        return;
    }
    let l = &mut out.layers;
    l.insert("pmlang.compile_ms", stats::mean(compile_ms));
    l.insert("core.ir_growth_pct", growth);
    l.insert("core.fixes_per_request", fixes as f64 / n);
    l.insert("core.rounds_per_fix", rounds as f64 / n);
    l.insert(
        "core.rounds_committed_ratio",
        if rounds > 0 {
            committed as f64 / rounds as f64
        } else {
            0.0
        },
    );
    l.insert("core.interproc_fixes", sum(&|h| h.interproc as f64) / n);
    l.insert("pmir.insts_out", sum(&|h| h.insts_after as f64) / n);
    let only: Vec<Stages> = stages.iter().map(|(s, _, _)| *s).collect();
    stage_layers(l, &only);
    // A request runs one detection per round plus the final clean one;
    // each round plans, analyzes aliases, verifies and digests once. What
    // the scaled stages and the compile span leave of the request time is
    // the engine's own work (snapshots, quarantine, bookkeeping).
    let explained: f64 = stages
        .iter()
        .zip(compile_ms)
        .map(|((s, r, _), c)| {
            let r = f64::from(*r);
            c + (s.traced_run_ms + s.check_ms) * (r + 1.0)
                + (s.alias_ms + s.repair_once_ms + s.verify_ms + s.digest_ms) * r
        })
        .sum();
    let total: f64 = stages.iter().map(|(_, _, lat)| lat).sum();
    l.insert(
        "trace.uncovered_share",
        if total > 0.0 {
            1.0 - explained / total
        } else {
            0.0
        },
    );
}

/// Inserts the per-layer means of stage-driven rounds.
pub fn stage_layers(l: &mut BTreeMap<&'static str, f64>, stages: &[Stages]) {
    let mean = |f: &dyn Fn(&Stages) -> f64| stats::mean(&stages.iter().map(f).collect::<Vec<_>>());
    l.insert("pmvm.traced_run_ms", mean(&|s| s.traced_run_ms));
    l.insert("pmvm.trace_events", mean(&|s| s.trace_events));
    l.insert("pmcheck.check_ms", mean(&|s| s.check_ms));
    let events: f64 = stages.iter().map(|s| s.trace_events).sum();
    let check_s: f64 = stages.iter().map(|s| s.check_ms).sum::<f64>() / 1e3;
    l.insert(
        "pmcheck.events_per_s",
        if check_s > 0.0 { events / check_s } else { 0.0 },
    );
    l.insert("pmcheck.bugs_deduped", mean(&|s| s.bugs_deduped));
    l.insert("pmalias.analyze_ms", mean(&|s| s.alias_ms));
    l.insert("pmalias.objects", mean(&|s| s.alias_objects));
    l.insert("core.repair_once_ms", mean(&|s| s.repair_once_ms));
    l.insert("pmir.verify_ms", mean(&|s| s.verify_ms));
    l.insert("pmir.digest_ms", mean(&|s| s.digest_ms));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deck_is_seeded() {
        let labels = |s| deck(s).iter().map(Request::label).collect::<Vec<_>>();
        assert_eq!(labels(1), labels(1));
        assert_ne!(labels(1), labels(2));
        assert_eq!(deck(1).len(), 23 + 1 + PUBLISH_PER_DECK as usize);
    }

    #[test]
    fn two_runs_at_one_seed_repeat_exactly() {
        let run = |seed| {
            let mut w = FixDynamic::setup(seed, 0).expect("setup");
            w.deck.truncate(8);
            let m = w.measure(Until::Ops(8), &Tracer::new(false));
            assert_eq!(m.failed, 0, "{:?}", m.failures);
            m.exact
        };
        let a = run(5);
        assert_eq!(a, run(5));
        assert_ne!(a.get("healed_digests"), run(6).get("healed_digests"));
    }
}
