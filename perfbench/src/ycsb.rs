//! `ycsb_healed`: the healed code at work (the paper's Fig. 4). Set-up
//! heals the flush-free Redis once (RedisH-full). One operation is one
//! phase of seeded YCSB — Load, or Load followed by one of A–F — run on
//! the healed module in the VM without tracing, its output checked against
//! Redis-pm, the developers' own port, on the same ops; a window is one
//! pass over the seven phases.

use crate::gen::{redis_calibration, Rng};
use crate::trace::Spans;
use crate::trace::Tracer;
use crate::{ms, Measured, Until, Workload};
use pmapps::redis::{self, RedisBuild, RedisOp};
use pmem_sim::MachineStats;
use pmir::{Module, ModuleMetrics};
use pmvm::{Vm, VmOptions};
use std::time::Instant;
use ycsb::{Generator, KvOp, OpKind, Workload as Ycsb};

const RECORDS: u64 = 200;
const OPS: u64 = 200;
const VALUE_LEN: i64 = 1024;
/// Simulated clock of the cost model, as in the paper's Fig. 4.
const SIM_HZ: f64 = 2.1e9;

fn to_redis(ops: &[KvOp]) -> Vec<RedisOp> {
    ops.iter()
        .map(|op| match op.kind {
            OpKind::Insert | OpKind::Update => RedisOp::set(op.key as i64, VALUE_LEN),
            OpKind::Read => RedisOp::get(op.key as i64),
            OpKind::Scan(n) => RedisOp::scan(op.key as i64, n as i64),
            OpKind::ReadModifyWrite => RedisOp::rmw(op.key as i64, VALUE_LEN),
        })
        .collect()
}

/// One phase: an entry that runs Load alone, or Load followed by one
/// workload; a phase's cost is its run minus the Load run.
struct Phase {
    label: &'static str,
    entry: String,
    ops: u64,
    /// Redis-pm's output on the same ops.
    expected: Vec<i64>,
}

/// One phase run: host ms, and its machine stats and step count or why
/// its check failed.
type PhaseRun = (f64, Result<(MachineStats, u64), String>);

pub struct YcsbHealed {
    healed: Module,
    phases: Vec<Phase>,
    interproc: usize,
    growth_pct: f64,
    insts_out: usize,
}

fn run(m: &Module, entry: &str) -> Result<pmvm::RunResult, String> {
    let opts = VmOptions::bench();
    crate::assert_obs_disabled(&opts.obs);
    Vm::new(opts)
        .run(m, entry)
        .map_err(|e| format!("{entry}: {e}"))
}

impl YcsbHealed {
    /// One pass over every phase: per phase run, its host ms and either
    /// its machine stats and step count or why its check failed.
    fn pass(&self, tracer: &Tracer, req: u64) -> Vec<PhaseRun> {
        self.phases
            .iter()
            .map(|p| {
                let t = Instant::now();
                let r = tracer.span("pmvm.run", req, || run(&self.healed, &p.entry));
                let lat = ms(t.elapsed());
                let checked = r.and_then(|r| {
                    if r.output == p.expected {
                        Ok((r.stats, r.steps))
                    } else {
                        Err(format!(
                            "{}: healed Redis output differs from Redis-pm",
                            p.label
                        ))
                    }
                });
                (lat, checked)
            })
            .collect()
    }
}

impl Workload for YcsbHealed {
    const ROOT: &'static str = "ycsb.pass";
    /// A YCSB pass's speed differs most between processes: at eight
    /// segments a run's median latency still spread 0.30 of its median
    /// over ten seeds, as the share of fast processes moved.
    const SEGMENTS: usize = 24;

    fn setup(seed: u64, _segment: usize) -> Result<Self, String> {
        let mut rng = Rng::new(seed, 0x7C);
        let e = |e: pmlang::LangError| e.to_string();
        let mut healed = redis::build(RedisBuild::FlushFree).map_err(e)?;
        let cal = redis::attach_workload(&mut healed, "cal", &redis_calibration(&mut rng));
        let before = ModuleMetrics::measure(&healed).insts;
        let outcome = crate::fix::heal(&mut healed, &cal)?;
        if !outcome.clean {
            return Err("RedisH-full did not heal clean".to_string());
        }
        let insts_out = ModuleMetrics::measure(&healed).insts;
        let growth_pct = (insts_out as f64 - before as f64) / before as f64 * 100.0;
        let mut pm = redis::build(RedisBuild::PmPort).map_err(e)?;

        let g = Generator::new(RECORDS, OPS, VALUE_LEN as u64, rng.next_u64());
        let load = to_redis(&g.load_ops());
        let mut phases = Vec::with_capacity(7);
        let mut attach = |label: &'static str, ops: Vec<RedisOp>, count: u64| {
            let entry = redis::attach_workload(&mut healed, label, &ops);
            let pm_entry = redis::attach_workload(&mut pm, label, &ops);
            (entry, pm_entry, label, count)
        };
        let mut entries = vec![attach("load", load.clone(), RECORDS)];
        for w in Ycsb::ALL {
            let mut ops = load.clone();
            ops.extend(to_redis(&g.run_ops(w)));
            entries.push(attach(w.label(), ops, OPS));
        }
        for (entry, pm_entry, label, ops) in entries {
            let expected = run(&pm, &pm_entry)?.output;
            phases.push(Phase {
                label,
                entry,
                ops,
                expected,
            });
        }
        let w = YcsbHealed {
            healed,
            phases,
            interproc: outcome.interprocedural_count(),
            growth_pct,
            insts_out,
        };
        // Warm-up, which also checks the healed outputs once.
        for (_, checked) in w.pass(&Tracer::new(false), 0) {
            checked?;
        }
        Ok(w)
    }

    fn measure(&mut self, until: Until, tracer: &Tracer) -> Measured {
        let mut out = Measured::default();
        let mut last = Vec::new();
        let mut steps = 0u64;
        let started = Instant::now();
        let mut i = 0u64;
        while !until.done(started, i, 1) {
            i += 1;
            let mut stats = Vec::with_capacity(self.phases.len());
            for (lat, checked) in tracer.span("ycsb.pass", i, || self.pass(tracer, i)) {
                out.record(lat, checked.map(|s| stats.push(s)));
            }
            out.close_window();
            if stats.len() == self.phases.len() {
                steps += stats.iter().map(|s| s.1).sum::<u64>();
                last = stats;
            }
        }
        if last.is_empty() {
            return out;
        }
        // Phase costs are exact: the simulator is deterministic.
        let load = last[0].0;
        let (mut cycles, mut flushes, mut fences, mut ops) = (0u64, 0u64, 0u64, 0u64);
        for (p, (s, _)) in self.phases.iter().zip(&last) {
            let d = if p.label == "load" { *s } else { load.delta(s) };
            cycles += d.cycles;
            flushes += d.total_flushes();
            fences += d.fences;
            ops += p.ops;
            out.exact
                .insert(format!("cycles.{}", p.label), d.cycles.to_string());
        }
        out.exact.insert(
            "healed_digest".into(),
            format!("{:016x}", pmir::snapshot::digest(&self.healed)),
        );
        out.exact
            .insert("ir_growth_pct".into(), format!("{:.6}", self.growth_pct));
        if tracer.is_on() {
            let l = &mut out.layers;
            let ops = ops as f64;
            l.insert("pmem_sim.cycles_per_op", cycles as f64 / ops);
            l.insert("pmem_sim.flushes_per_op", flushes as f64 / ops);
            l.insert("pmem_sim.fences_per_op", fences as f64 / ops);
            l.insert(
                "pmem_sim.kops_per_sim_s",
                ops / (cycles as f64 / SIM_HZ) / 1e3,
            );
            let spans = Spans::new(tracer.spans());
            let run_ms = spans.total_ms("pmvm.run");
            l.insert("pmvm.run_ms", spans.mean_ms("pmvm.run"));
            l.insert(
                "pmvm.minsn_per_s",
                if run_ms > 0.0 {
                    steps as f64 / run_ms / 1e3
                } else {
                    0.0
                },
            );
            l.insert("core.interproc_fixes", self.interproc as f64);
            l.insert("core.ir_growth_pct", self.growth_pct);
            l.insert("pmir.insts_out", self.insts_out as f64);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_runs_at_one_seed_repeat_exactly() {
        let run = |seed| {
            let mut w = YcsbHealed::setup(seed, 0).expect("setup");
            let m = w.measure(Until::Ops(2), &Tracer::new(false));
            assert_eq!(m.failed, 0, "{:?}", m.failures);
            m.exact
        };
        let a = run(2);
        assert_eq!(a, run(2));
        assert_ne!(a.get("cycles.A"), run(3).get("cycles.A"));
    }
}
