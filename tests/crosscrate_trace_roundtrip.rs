//! Trace interchange across crates: the trace a VM emits survives JSON
//! serialization and still drives localization and repair — the scenario
//! where the bug finder and the fixer are separate processes, exactly how
//! pmemcheck feeds Hippocrates in the original toolchain.

use hippocrates::{Hippocrates, RepairOptions};
use pmcheck::check_trace;
use pmtrace::Trace;
use pmvm::{Vm, VmOptions};

#[test]
fn serialized_trace_drives_repair() {
    let m0 = minipmdk::build_buggy("pmdk-447").unwrap();
    let entry = minipmdk::entry_for("pmdk-447");
    let run = Vm::new(VmOptions::default()).run(&m0, &entry).unwrap();
    let trace = run.trace.unwrap();

    // Ship the trace through its wire format.
    let json = trace.to_json().unwrap();
    let trace2 = Trace::from_json(&json).unwrap();
    assert_eq!(trace, trace2);

    // Check and repair from the deserialized copy.
    let report = check_trace(&trace2);
    assert!(!report.is_clean());
    let mut m = minipmdk::build_buggy("pmdk-447").unwrap();
    let summary = Hippocrates::new(RepairOptions::default())
        .repair_once(&mut m, &trace2, &report)
        .unwrap();
    assert!(!summary.fixes.is_empty());
    let checked = pmcheck::run_and_check(&m, &entry, VmOptions::default()).unwrap();
    assert!(checked.report.is_clean(), "{}", checked.report.render());
}

#[test]
fn text_rendering_of_real_traces_is_stable() {
    let m = pmapps::pclht::build_correct().unwrap();
    let run = Vm::new(VmOptions::default())
        .run(&m, pmapps::pclht::ENTRY)
        .unwrap();
    let trace = run.trace.unwrap();
    let text = pmtrace::format::render_text(&trace);
    assert!(text.contains("REGISTER"));
    assert!(text.contains("STORE"));
    assert!(text.contains("FLUSH"));
    assert!(text.contains("FENCE"));
    // Stack frames are rendered for nested PM stores.
    assert!(
        text.contains("by clht_put") || text.contains("by pclht_main"),
        "{}",
        &text[..500]
    );
}

#[test]
fn source_loc_only_traces_still_locate() {
    // Strip structural refs from every event (a foreign bug finder that
    // only reports source lines); localization must fall back to debug info.
    let m = minipmdk::build_buggy("pmdk-452").unwrap();
    let entry = minipmdk::entry_for("pmdk-452");
    let run = Vm::new(VmOptions::default()).run(&m, &entry).unwrap();
    let trace = run.trace.unwrap();
    let mut report = check_trace(&trace);
    for bug in &mut report.bugs {
        bug.store_at = None;
    }
    let mut m2 = minipmdk::build_buggy("pmdk-452").unwrap();
    let summary = Hippocrates::new(RepairOptions::default())
        .repair_once(&mut m2, &trace, &report)
        .unwrap();
    assert!(!summary.fixes.is_empty());
    let checked = pmcheck::run_and_check(&m2, &entry, VmOptions::default()).unwrap();
    assert!(checked.report.is_clean(), "{}", checked.report.render());
}

#[test]
fn portable_log_format_drives_repair() {
    // Simulate a foreign bug finder: export the trace to the line-based
    // log, reimport it, and repair from the imported copy.
    let m0 = pmapps::memcached::build_buggy("mm-4").unwrap();
    let run = Vm::new(VmOptions::default())
        .run(&m0, pmapps::memcached::ENTRY)
        .unwrap();
    let log = pmtrace::log::to_log(run.trace.as_ref().unwrap());
    let imported = pmtrace::log::from_log(&log).unwrap();
    assert_eq!(run.trace.as_ref().unwrap(), &imported);

    let report = check_trace(&imported);
    assert!(!report.is_clean());
    let mut m = pmapps::memcached::build_buggy("mm-4").unwrap();
    let summary = Hippocrates::new(RepairOptions::default())
        .repair_once(&mut m, &imported, &report)
        .unwrap();
    assert!(!summary.fixes.is_empty());
    let checked =
        pmcheck::run_and_check(&m, pmapps::memcached::ENTRY, VmOptions::default()).unwrap();
    assert!(checked.report.is_clean(), "{}", checked.report.render());
}

#[test]
fn every_corpus_log_round_trips_through_ingest_bounds() {
    // The log parser rejects stores outside registered pools and pools
    // outside the PM window; every trace the VM emits must still pass.
    use pmapps::redis::{self, RedisBuild, RedisOp};
    let window =
        pmem_sim::layout::PM_BASE..pmem_sim::layout::PM_BASE + pmem_sim::layout::REGION_SPAN;
    assert_eq!(pmtrace::log::PM_WINDOW, window);
    let mut programs = vec![];
    for bug in bugdb::corpus() {
        let (m, entry) = match bug.target {
            bugdb::Target::Pmdk => (minipmdk::build_buggy(bug.id), minipmdk::entry_for(bug.id)),
            bugdb::Target::Pclht => (
                pmapps::pclht::build_buggy(bug.id),
                pmapps::pclht::ENTRY.to_string(),
            ),
            bugdb::Target::Memcached => (
                pmapps::memcached::build_buggy(bug.id),
                pmapps::memcached::ENTRY.to_string(),
            ),
        };
        programs.push((bug.id.to_string(), m.unwrap(), entry));
    }
    programs.push((
        "pclht-correct".into(),
        pmapps::pclht::build_correct().unwrap(),
        pmapps::pclht::ENTRY.into(),
    ));
    programs.push((
        "memcached-correct".into(),
        pmapps::memcached::build_correct().unwrap(),
        pmapps::memcached::ENTRY.into(),
    ));
    let mut m = redis::build(RedisBuild::PmPort).unwrap();
    let ops = [RedisOp::set(1, 64), RedisOp::set(2, 4096), RedisOp::get(1)];
    let entry = redis::attach_workload(&mut m, "roundtrip", &ops);
    programs.push(("redis-pmport".into(), m, entry));

    for (name, m, entry) in programs {
        let run = Vm::new(VmOptions::default()).run(&m, &entry).unwrap();
        let trace = run.trace.unwrap();
        let imported = pmtrace::log::from_log(&pmtrace::log::to_log(&trace))
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(trace, imported, "{name}");
    }
}

/// The first 48 events of buggy memcached `mm-2`: stacks up to six frames
/// deep, call sites with source locations, and the value store (event 24)
/// the bug is about. Both files were written by the trace emitters as they
/// stood before names and stacks became shared (`Arc`), so they pin the
/// wire bytes across that change.
const MM2_LOG: &str = include_str!("fixtures/memcached_mm2_trace.log");
const MM2_JSON: &str = include_str!("fixtures/memcached_mm2_trace.json");

#[test]
fn trace_bytes_match_the_fixture() {
    let m = pmapps::memcached::build_buggy("mm-2").unwrap();
    let run = Vm::new(VmOptions::default().stop_at_event(47))
        .run(&m, pmapps::memcached::ENTRY)
        .unwrap();
    let trace = run.trace.unwrap();
    assert_eq!(trace.len(), 48);
    assert!(trace.events.iter().any(|e| e.stack.len() >= 6));
    assert!(trace
        .events
        .iter()
        .any(|e| e.stack.iter().skip(1).all(|f| f.loc.is_some()) && e.stack.len() > 1));
    assert!(pmtrace::log::to_log(&trace) == MM2_LOG, "log bytes moved");
    assert!(trace.to_json().unwrap() == MM2_JSON, "JSON bytes moved");
    assert_eq!(pmtrace::log::from_log(MM2_LOG).unwrap(), trace);
    assert_eq!(Trace::from_json(MM2_JSON).unwrap(), trace);
}
