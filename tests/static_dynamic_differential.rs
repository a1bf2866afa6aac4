//! Differential harness: the static checker against the dynamic checker on
//! the whole `.pmc` corpus.
//!
//! The contract (ISSUE: static feeds repair without running the program):
//!
//! 1. On every *buggy* corpus variant, every bug the dynamic checker finds
//!    must also be found statically — same store instruction, with a
//!    kind-compatible classification (a static `missing-flush&fence` may
//!    subsume a dynamic `missing-flush`/`missing-fence` verdict and vice
//!    versa, because path joins can weaken the fence half; repair converges
//!    either way).
//! 2. On the *correct* builds, the static checker stays clean — the
//!    optimistic cover rules must not drown the repair engine in false
//!    alarms.
//! 3. Static-only extras on buggy variants are snapshotted per variant so a
//!    precision regression is a visible diff, not silent noise.

use pmcheck::{Bug, BugKind, CheckReport};
use pmvm::VmOptions;
use std::collections::BTreeSet;

/// Whether a static classification accounts for a dynamic one.
///
/// The static checker joins over *all* paths, so its fence bit can be
/// weaker (a fence on some-but-not-all paths demotes `missing-flush` to
/// `missing-flush&fence`) or stronger (a path the execution never took
/// fences). Either repair (flush, or flush+fence) heals the store; the
/// differential only requires the *flush half* to agree.
fn kind_compatible(dynamic: BugKind, stat: BugKind) -> bool {
    match dynamic {
        BugKind::MissingFlush => matches!(stat, BugKind::MissingFlush | BugKind::MissingFlushFence),
        BugKind::MissingFence => matches!(stat, BugKind::MissingFence | BugKind::MissingFlushFence),
        BugKind::MissingFlushFence => {
            matches!(stat, BugKind::MissingFlushFence | BugKind::MissingFlush)
        }
    }
}

fn store_key(b: &Bug) -> Option<(String, u32)> {
    b.store_at
        .as_ref()
        .map(|at| (at.function.to_string(), at.inst))
}

/// Asserts contract (1) for one module and returns the static-only extras
/// as stable `function:inst kind` lines.
fn differential(tag: &str, m: &pmir::Module, entry: &str) -> Vec<String> {
    let dynamic = pmcheck::run_and_check(m, entry, VmOptions::default())
        .unwrap_or_else(|e| panic!("{tag}: vm failed: {e}"))
        .report;
    let stat = pmstatic::check_module(m, entry).unwrap_or_else(|e| panic!("{tag}: {e}"));
    assert_missed_none(tag, &dynamic, &stat);
    static_only(&dynamic, &stat)
}

fn assert_missed_none(tag: &str, dynamic: &CheckReport, stat: &CheckReport) {
    for d in dynamic.deduped_bugs() {
        let key = store_key(d).unwrap_or_else(|| panic!("{tag}: dynamic bug without store_at"));
        let found = stat
            .bugs
            .iter()
            .any(|s| store_key(s).as_ref() == Some(&key) && kind_compatible(d.kind, s.kind));
        assert!(
            found,
            "{tag}: dynamic {} at {}:{} not found statically.\nstatic report:\n{}",
            d.kind,
            key.0,
            key.1,
            stat.render()
        );
    }
}

/// Static findings about *stores the dynamic checker never flagged at all*
/// (classification skew on a store both checkers flagged is covered by the
/// kind-compatibility contract, not counted as an extra). These are the
/// checker's unexecuted-path value-add — snapshotted so precision changes
/// surface as diffs.
fn static_only(dynamic: &CheckReport, stat: &CheckReport) -> Vec<String> {
    let dyn_stores: BTreeSet<_> = dynamic.bugs.iter().filter_map(store_key).collect();
    let mut extras = BTreeSet::new();
    for s in stat.deduped_bugs() {
        let Some(key) = store_key(s) else { continue };
        if !dyn_stores.contains(&key) {
            extras.insert(format!("{}:{} {}", key.0, key.1, s.kind));
        }
    }
    extras.into_iter().collect()
}

#[test]
fn correct_builds_are_statically_clean() {
    let m = pmapps::pclht::build_correct().unwrap();
    let r = pmstatic::check_module(&m, pmapps::pclht::ENTRY).unwrap();
    assert!(r.is_clean(), "pclht-correct:\n{}", r.render());

    let m = pmapps::memcached::build_correct().unwrap();
    let r = pmstatic::check_module(&m, pmapps::memcached::ENTRY).unwrap();
    assert!(r.is_clean(), "memcached-correct:\n{}", r.render());

    let ops: Vec<pmapps::redis::RedisOp> = (1..=10)
        .map(|k| pmapps::redis::RedisOp::set(k, 64))
        .collect();
    let mut m = pmapps::redis::build(pmapps::redis::RedisBuild::PmPort).unwrap();
    let entry = pmapps::redis::attach_workload(&mut m, "bench", &ops);
    let r = pmstatic::check_module(&m, &entry).unwrap();
    assert!(r.is_clean(), "redis-pmport:\n{}", r.render());
}

#[test]
fn pclht_buggy_variants_covered_statically() {
    for id in pmapps::pclht::BUG_IDS {
        let m = pmapps::pclht::build_buggy(id).unwrap();
        let extras = differential(id, &m, pmapps::pclht::ENTRY);
        assert!(
            extras.is_empty(),
            "{id}: unexpected static-only findings: {extras:#?}"
        );
    }
}

#[test]
fn memcached_buggy_variants_covered_statically() {
    for id in pmapps::memcached::BUG_IDS {
        let m = pmapps::memcached::build_buggy(id).unwrap();
        let extras = differential(id, &m, pmapps::memcached::ENTRY);
        // Snapshot: mm-10 removes both unlink persists in `mc_delete`, but
        // the workload only ever deletes the head of a bucket chain — the
        // mid-chain `store8(prev, 64, ..)` is unexecuted, so only the
        // static checker sees it.
        let expected: &[&str] = match id {
            "mm-10" => &["mc_delete:47 missing-flush"],
            _ => &[],
        };
        assert_eq!(
            extras, expected,
            "{id}: static-only findings drifted: {extras:#?}"
        );
    }
}

#[test]
fn static_source_heals_what_dynamic_cannot_see() {
    // mm-10 removes both unlink persists in `mc_delete`; the workload only
    // exercises the head-of-bucket branch. A dynamic-only repair converges
    // while the mid-chain unlink store is still unflushed — repairing
    // against both sources heals it too, verified by re-running both
    // checkers on the healed module.
    use hippocrates::{BugSource, Hippocrates, RepairOptions};

    let mut m = pmapps::memcached::build_buggy("mm-10").unwrap();
    let entry = pmapps::memcached::ENTRY;

    let mut dyn_only = m.clone();
    Hippocrates::new(RepairOptions::default())
        .repair_until_clean(&mut dyn_only, entry)
        .unwrap();
    let leftover = pmstatic::check_module(&dyn_only, entry).unwrap();
    assert!(
        leftover
            .deduped_bugs()
            .iter()
            .any(|b| store_key(b).is_some_and(|(f, _)| f == "mc_delete")),
        "dynamic-only repair should leave the unexecuted unlink store buggy:\n{}",
        leftover.render()
    );

    let outcome = Hippocrates::new(RepairOptions {
        bug_source: BugSource::Both,
        ..RepairOptions::default()
    })
    .repair_until_clean(&mut m, entry)
    .unwrap();
    assert!(outcome.clean);
    assert!(pmstatic::check_module(&m, entry).unwrap().is_clean());
    assert!(pmcheck::run_and_check(&m, entry, VmOptions::default())
        .unwrap()
        .report
        .is_clean());
}

#[test]
fn redis_flush_free_covered_statically() {
    let ops: Vec<pmapps::redis::RedisOp> = (1..=10)
        .map(|k| pmapps::redis::RedisOp::set(k, 64))
        .chain((1..=10).map(pmapps::redis::RedisOp::get))
        .collect();
    let mut m = pmapps::redis::build(pmapps::redis::RedisBuild::FlushFree).unwrap();
    let entry = pmapps::redis::attach_workload(&mut m, "bench", &ops);
    let extras = differential("redis-flush-free", &m, &entry);
    // Snapshot: the workload performs no DELs, so the delete path's stores
    // are invisible to the dynamic checker — the static checker still
    // audits them. This list changing (either way) is a precision change.
    assert_eq!(
        extras,
        vec![
            "redis_del:44 missing-flush".to_string(),
            "redis_del:49 missing-flush".to_string(),
        ],
        "redis-flush-free: static-only findings drifted"
    );
}
