//! Differential engine gate: the VM's engine ([`Vm::run`]) must be
//! observationally identical to the reference interpreter
//! ([`Vm::run_reference`]) on every run the pipeline makes.
//!
//! The checker, the explorer and the repair engine see a program only
//! through the [`RunResult`]s of its runs, so engines that agree on every
//! run agree end to end. For each module this compares every `RunResult`
//! field of the two (or their errors) on
//!
//! 1. the traced run with PM-data capture, which the checker and the
//!    explorer start from, and
//! 2. an untraced recovery boot on every crash image the explorer samples
//!    from that run (budget 96, seed 0), which the recovery oracle judges.
//!
//! Repair cases check the fixed module the same way. The corpus is the real
//! app corpus plus a randomized publish-pattern family. Every comparison
//! also runs the engine with the PM read log armed, which must change no
//! field, and compares its log with the reference's.

use hippocrates::{BugSource, Hippocrates, RepairOptions};
use pmexplore::{frontiers, sample, ExploreOptions, Oracle, Replayer};
use pmvm::{RunResult, Vm, VmOptions};
use proptest::prelude::*;

/// Runs `entry` under `opts` on the reference and on the engine and
/// asserts the two agree on every [`RunResult`] field, or on the error.
///
/// The engine runs twice, once with the PM read log armed: observation
/// must not change what it observes, so the two engine runs agree on every
/// field too. The reference runs with the log armed, and its log must
/// equal the armed engine's: both read the same PM lines in the same order.
fn run_both(tag: &str, m: &pmir::Module, entry: &str, opts: VmOptions) -> Option<RunResult> {
    let reference = Vm::new(opts.clone().log_pm_reads()).run_reference(m, entry);
    let engine = Vm::new(opts.clone()).run(m, entry);
    let logged = Vm::new(opts.log_pm_reads()).run(m, entry);
    let (a, b, c) = match (reference, engine, logged) {
        (Ok(a), Ok(b), Ok(c)) => (a, b, c),
        (a, b, c) => {
            assert_eq!(a.as_ref().err(), b.as_ref().err(), "{tag}: errors diverge");
            assert_eq!(b.err(), c.err(), "{tag}: the read log changes the error");
            return None;
        }
    };
    assert_same(tag, &a, &b);
    assert_same(&format!("{tag} (read log armed)"), &b, &c);
    assert_eq!(b.machine.read_log(), None, "{tag}: a read log nobody armed");
    assert_eq!(
        a.machine.read_log(),
        c.machine.read_log(),
        "{tag}: read logs diverge"
    );
    Some(b)
}

/// Asserts `a` and `b` agree on every [`RunResult`] field.
fn assert_same(tag: &str, a: &RunResult, b: &RunResult) {
    assert_eq!(a.output, b.output, "{tag}: output diverges");
    assert_eq!(
        a.return_value, b.return_value,
        "{tag}: return values diverge"
    );
    assert_eq!(a.ended, b.ended, "{tag}: end states diverge");
    assert_eq!(a.stats, b.stats, "{tag}: machine stats diverge");
    assert_eq!(a.trace, b.trace, "{tag}: traces diverge");
    assert_eq!(a.pm_data, b.pm_data, "{tag}: PM data logs diverge");
    assert_eq!(a.steps, b.steps, "{tag}: step counts diverge");
    let machine = |r: &RunResult| {
        let m = &r.machine;
        (m.crash_image(), m.dirty_pm_lines(), m.pending_pm_lines())
    };
    assert_eq!(machine(a), machine(b), "{tag}: machine states diverge");
}

/// Compares the engines on the traced run of `entry` and on a recovery
/// boot of every sampled crash image of it.
fn assert_engines_agree(tag: &str, m: &pmir::Module, entry: &str) {
    let traced = run_both(tag, m, entry, VmOptions::default().capture_pm_data())
        .unwrap_or_else(|| panic!("{tag}: the traced run trapped"));
    let trace = traced.trace.expect("tracing was on");
    let data = traced.pm_data.expect("capture was on");
    let mut candidates = sample(&frontiers(&trace, &data, None), 96, 0);
    assert!(!candidates.is_empty(), "{tag}: no crash states to boot");
    // The replayer only moves forward.
    candidates.sort_by_key(|c| c.after_seq);
    let oracle = Oracle::default_for(m, entry);
    let boot = VmOptions {
        trace: false,
        max_steps: ExploreOptions::default().max_recovery_steps,
        ..VmOptions::default()
    };
    let mut replayer = Replayer::new(&trace, &data, None);
    for c in &candidates {
        replayer.advance_to(c.after_seq);
        let image = replayer.image_with(&c.lines).into_media();
        let tag = format!("{tag}: boot after event {} with {:?}", c.after_seq, c.lines);
        run_both(&tag, m, &oracle.entry, boot.clone().with_media(image));
    }
}

/// Repairs `m` against exploration, then compares the engines on the
/// fixed module.
fn assert_repair_agrees(tag: &str, m: &pmir::Module, entry: &str) {
    let mut m = m.clone();
    Hippocrates::new(RepairOptions {
        bug_source: BugSource::Exploration,
        explore_budget: 96,
        explore_jobs: 1,
        ..RepairOptions::default()
    })
    .repair_until_clean(&mut m, entry)
    .unwrap_or_else(|e| panic!("{tag}: repair failed: {e}"));
    assert_engines_agree(&format!("{tag} (fixed)"), &m, entry);
}

#[test]
fn pclht_tiers_identical() {
    let m = pmapps::pclht::build_correct().expect("pclht builds");
    assert_engines_agree("pclht-correct", &m, pmapps::pclht::ENTRY);
    for id in pmapps::pclht::BUG_IDS {
        let m = pmapps::pclht::build_buggy(id).expect("buggy pclht builds");
        assert_engines_agree(&format!("pclht-{id}"), &m, pmapps::pclht::ENTRY);
    }
}

#[test]
fn pclht_repair_identical_across_tiers() {
    for id in pmapps::pclht::BUG_IDS {
        let m = pmapps::pclht::build_buggy(id).expect("buggy pclht builds");
        assert_repair_agrees(&format!("pclht-{id}"), &m, pmapps::pclht::ENTRY);
    }
}

#[test]
fn memcached_tiers_identical() {
    let m = pmapps::memcached::build_correct().expect("memcached builds");
    assert_engines_agree("memcached-correct", &m, pmapps::memcached::ENTRY);
    // Two representative injected bugs; the full ten run in corpus tests.
    for id in &pmapps::memcached::BUG_IDS[..2] {
        let m = pmapps::memcached::build_buggy(id).expect("buggy memcached builds");
        assert_engines_agree(&format!("memcached-{id}"), &m, pmapps::memcached::ENTRY);
    }
}

#[test]
fn pclht_recovery_boot_agrees_at_every_fuel_limit() {
    // One recovery boot, cut at every `max_steps` from 1 to its full
    // length: the engine must stop at the same step, with the same error,
    // as the reference. The watchdog is armed (and never fires) so its
    // stride shares the engine's one per-step check with the fuel.
    let m = pmapps::pclht::build_correct().expect("pclht builds");
    let traced = run_both(
        "pclht",
        &m,
        pmapps::pclht::ENTRY,
        VmOptions::default().capture_pm_data(),
    )
    .expect("the traced run completes");
    let (trace, data) = (
        traced.trace.expect("traced"),
        traced.pm_data.expect("captured"),
    );
    let candidates = sample(&frontiers(&trace, &data, None), 96, 0);
    let c = candidates
        .iter()
        .max_by_key(|c| c.after_seq)
        .expect("crash states");
    let mut replayer = Replayer::new(&trace, &data, None);
    replayer.advance_to(c.after_seq);
    let image = replayer.image_with(&c.lines).into_media();
    let entry = Oracle::default_for(&m, pmapps::pclht::ENTRY).entry;
    let boot = |max_steps| VmOptions {
        trace: false,
        max_steps,
        ..VmOptions::default()
            .watchdog(600_000)
            .with_media(image.clone())
    };
    let steps = run_both("pclht boot", &m, &entry, boot(u64::MAX))
        .expect("the boot completes")
        .steps;
    assert!(
        steps > 1024,
        "the boot must cross the watchdog stride, ran {steps} steps"
    );
    for max_steps in 1..=steps {
        let tag = format!("pclht boot at max_steps {max_steps}");
        let r = run_both(&tag, &m, &entry, boot(max_steps));
        assert_eq!(r.is_some(), max_steps == steps, "{tag}");
    }
}

/// Untraced Redis YCSB, Load then workload A, on the healed Redis: the
/// path the paper's Fig. 4 measures, whose runs nothing else above
/// compares. 1 KiB values send every SET and RMW through `memcpy`.
#[test]
fn redis_ycsb_untraced_tiers_identical() {
    let mut m = pmapps::redis::build(pmapps::redis::RedisBuild::FlushFree).expect("redis builds");
    let cal = pmapps::redis::attach_workload(&mut m, "cal", &bench::redisx::calibration_ops());
    let healed = Hippocrates::new(RepairOptions::default())
        .repair_until_clean(&mut m, &cal)
        .expect("redis heals");
    assert!(healed.clean);
    let g = ycsb::Generator::new(100, 100, 1024, 7);
    let mut ops = bench::redisx::to_redis_ops(&g.load_ops(), 1024);
    ops.extend(bench::redisx::to_redis_ops(
        &g.run_ops(ycsb::Workload::A),
        1024,
    ));
    let entry = pmapps::redis::attach_workload(&mut m, "ycsb_a", &ops);
    let r = run_both("redis ycsb A", &m, &entry, VmOptions::bench()).expect("the run completes");
    assert!(r.stats.pm_stores > 0 && r.steps > 100_000, "{:?}", r.stats);
}

/// The `explore_do_no_harm` publish-pattern family, reused as a randomized
/// differential corpus: every generated program, and its repair, must run
/// identically on both engines.
fn program(n_keys: u8, mask: u8) -> String {
    let mut body = String::new();
    for k in 0..n_keys {
        let data_off = u32::from(k) * 128;
        let flag_off = u32::from(k) * 128 + 64;
        let val = u32::from(k) * 3 + 1;
        body.push_str(&format!("    store8(p, {data_off}, {val});\n"));
        if (mask >> (2 * (k % 4))) & 1 == 1 {
            body.push_str(&format!("    clwb(p + {data_off});\n    sfence();\n"));
        }
        body.push_str(&format!("    store8(p, {flag_off}, 1);\n"));
        if (mask >> (2 * (k % 4) + 1)) & 1 == 1 {
            body.push_str(&format!("    clwb(p + {flag_off});\n    sfence();\n"));
        }
    }
    let mut checks = String::new();
    for k in 0..n_keys {
        let data_off = u32::from(k) * 128;
        let flag_off = u32::from(k) * 128 + 64;
        let val = u32::from(k) * 3 + 1;
        checks.push_str(&format!(
            "    if (load8(p, {flag_off}) == 1) {{\n        if (load8(p, {data_off}) != {val}) {{ return 1; }}\n    }}\n"
        ));
    }
    format!(
        "fn main() {{\n    var p: ptr = pmem_map(0, 8192);\n{body}    print(load8(p, 0));\n}}\n\
         fn recover() -> int {{\n    var p: ptr = pmem_map(0, 8192);\n{checks}    return 0;\n}}\n"
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn random_publish_programs_are_tier_identical(n_keys in 1u8..5, mask in 0u8..=255) {
        let src = program(n_keys, mask);
        let m = pmlang::compile_one("t.pmc", &src).expect("family compiles");
        assert_engines_agree(&format!("publish-{n_keys}-{mask:#x}"), &m, "main");
    }

    #[test]
    fn random_publish_repairs_are_tier_identical(n_keys in 1u8..4, mask in 0u8..=255) {
        let src = program(n_keys, mask);
        let m = pmlang::compile_one("t.pmc", &src).expect("family compiles");
        assert_repair_agrees(&format!("publish-{n_keys}-{mask:#x}"), &m, "main");
    }
}
