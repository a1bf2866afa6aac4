//! Golden checker fingerprints: the dynamic checker's full report on every
//! corpus bug's buggy trace and on the correct application builds must
//! match `tests/fixtures/checker_golden.txt` byte for byte.
//!
//! Each line of the fixture is `<program> <fnv1a-64 of the report's
//! serde_json rendering> <bug count>`. The fixture was written by an
//! earlier, independently implemented checker (per-store `BTreeSet` line
//! sets), so a rewrite of the state machine is judged against that
//! implementation's output, not only against itself: bug order, kinds,
//! checkpoints, `unflushed_lines`, redundant flushes and counters all feed
//! the fingerprint.

use bugdb::{corpus, Target};
use pmapps::redis::{self, RedisBuild, RedisOp};
use pmcheck::check_trace;
use pmir::Module;
use pmvm::{Vm, VmOptions};

const FIXTURE: &str = include_str!("fixtures/checker_golden.txt");

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The Redis workload both Redis builds run: short and long values, an
/// in-place overwrite, hits and misses, a scan and a read-modify-write.
fn redis_ops() -> Vec<RedisOp> {
    let mut ops: Vec<RedisOp> = (1..=6).map(|k| RedisOp::set(k, 24 + 40 * k)).collect();
    ops.push(RedisOp::set(7, 4000));
    ops.push(RedisOp::set(8, 4096));
    ops.push(RedisOp::set(2, 100));
    ops.push(RedisOp::get(1));
    ops.push(RedisOp::get(99));
    ops.push(RedisOp::del(3));
    ops.push(RedisOp::scan(1, 8));
    ops.push(RedisOp::rmw(4, 200));
    ops
}

fn programs() -> Vec<(String, Module, String)> {
    let mut v = vec![];
    for bug in corpus() {
        let (m, entry) = match bug.target {
            Target::Pmdk => (minipmdk::build_buggy(bug.id), minipmdk::entry_for(bug.id)),
            Target::Pclht => (
                pmapps::pclht::build_buggy(bug.id),
                pmapps::pclht::ENTRY.to_string(),
            ),
            Target::Memcached => (
                pmapps::memcached::build_buggy(bug.id),
                pmapps::memcached::ENTRY.to_string(),
            ),
        };
        v.push((bug.id.to_string(), m.unwrap(), entry));
    }
    v.push((
        "pclht-correct".into(),
        pmapps::pclht::build_correct().unwrap(),
        pmapps::pclht::ENTRY.into(),
    ));
    v.push((
        "memcached-correct".into(),
        pmapps::memcached::build_correct().unwrap(),
        pmapps::memcached::ENTRY.into(),
    ));
    for (name, build) in [
        ("redis-pmport", RedisBuild::PmPort),
        ("redis-flush-free", RedisBuild::FlushFree),
    ] {
        let mut m = redis::build(build).unwrap();
        let entry = redis::attach_workload(&mut m, "golden", &redis_ops());
        v.push((name.into(), m, entry));
    }
    v
}

#[test]
fn checker_reports_match_golden_fingerprints() {
    let mut got = String::new();
    for (name, m, entry) in programs() {
        let opts = VmOptions {
            trace: true,
            ..VmOptions::default()
        };
        let trace = Vm::new(opts)
            .run(&m, &entry)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .trace
            .unwrap();
        let report = check_trace(&trace);
        let json = serde_json::to_string(&report).unwrap();
        got.push_str(&format!(
            "{name} {:016x} {}\n",
            fnv1a(json.as_bytes()),
            report.bugs.len()
        ));
    }
    assert_eq!(
        got, FIXTURE,
        "checker reports drifted from the golden fixture; actual:\n{got}"
    );
}
