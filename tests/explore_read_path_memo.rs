//! Exploration's memoization must be invisible in its results.
//!
//! `explore` skips a recovery boot when the crash image is byte-identical
//! to one already booted, and also when the image agrees, on every PM line
//! an earlier boot read, with that boot's image (the read-path memo).
//! Neither may change a single report byte. This suite checks that two
//! ways:
//!
//! 1. Against an independent reference built from the public pieces:
//!    `frontiers`, `sample` and `Replayer` give the candidates, every
//!    distinct image is booted with `Oracle::check`, and lost stores are
//!    blamed by scanning the trace. `explore`'s findings and stats must
//!    equal that reference at one and at four workers, on the app corpus,
//!    the `bugdb` corpus, the publish-pattern family, and two families
//!    built to defeat a read path that misses a `memcpy` source or a pool.
//! 2. Against golden fingerprints (`tests/fixtures/explore_golden.txt`) of
//!    the rendered report, the findings JSON and the exported check report
//!    for every `bugdb` corpus bug, written by the build that booted every
//!    distinct image and blamed by scanning the trace.

use bugdb::{corpus, Target};
use pmcheck::BugKind;
use pmexplore::{
    explore, frontiers, sample, Candidate, ExploreOptions, ExploreReport, ExploreStats, Finding,
    Frontier, LostStore, Oracle, Replayer, Verdict,
};
use pmir::Module;
use pmtrace::{DataLog, EventKind, Trace};
use pmvm::{Vm, VmOptions};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};

const FIXTURE: &str = include_str!("fixtures/explore_golden.txt");

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One program to explore: name, module, entry and recovery oracle.
struct Program {
    name: String,
    module: Module,
    entry: String,
    oracle: Oracle,
}

fn pclht(name: &str, module: Module) -> Program {
    Program {
        name: name.to_string(),
        module,
        entry: pmapps::pclht::ENTRY.to_string(),
        oracle: Oracle::returns_zero(pmapps::pclht::RECOVER),
    }
}

fn memcached(name: &str, module: Module) -> Program {
    Program {
        name: name.to_string(),
        module,
        entry: pmapps::memcached::ENTRY.to_string(),
        oracle: Oracle::returns_zero(pmapps::memcached::RECOVER),
    }
}

fn compiled(name: &str, src: &str) -> Program {
    let module = pmlang::compile_one("t.pmc", src).expect("family compiles");
    let oracle = Oracle::default_for(&module, "main");
    Program {
        name: name.to_string(),
        module,
        entry: "main".to_string(),
        oracle,
    }
}

/// Every `bugdb` corpus bug, with its system's recovery oracle (the PMDK
/// unit tests have none and re-run their entry).
fn bugdb_programs() -> Vec<Program> {
    corpus()
        .into_iter()
        .map(|bug| match bug.target {
            Target::Pmdk => {
                let module = minipmdk::build_buggy(bug.id).expect("pmdk bug builds");
                let entry = minipmdk::entry_for(bug.id);
                let oracle = Oracle::default_for(&module, &entry);
                Program {
                    name: bug.id.to_string(),
                    module,
                    entry,
                    oracle,
                }
            }
            Target::Pclht => pclht(
                bug.id,
                pmapps::pclht::build_buggy(bug.id).expect("pclht bug builds"),
            ),
            Target::Memcached => memcached(
                bug.id,
                pmapps::memcached::build_buggy(bug.id).expect("memcached bug builds"),
            ),
        })
        .collect()
}

/// The publish-pattern family of `tests/explore_do_no_harm.rs`: `n_keys`
/// records, each a data line and a flag line, persisted per `mask` (bit
/// pairs: even bit = persist the data before the flag, odd bit = persist
/// the flag). Recovery reads a record's data only when its flag is set, so
/// read paths branch on the flag's value. With `via_memcpy`, recovery
/// instead copies every record's data out with `memcpy` before it looks at
/// any flag, so the data lines reach recovery only as `memcpy` sources.
fn publish(n_keys: u8, mask: u8, via_memcpy: bool) -> String {
    let mut body = String::new();
    let mut checks = String::new();
    for k in 0..n_keys {
        let data_off = u32::from(k) * 128;
        let flag_off = data_off + 64;
        let val = u32::from(k) * 3 + 1;
        body.push_str(&format!("    store8(p, {data_off}, {val});\n"));
        if (mask >> (2 * (k % 4))) & 1 == 1 {
            body.push_str(&format!("    clwb(p + {data_off});\n    sfence();\n"));
        }
        body.push_str(&format!("    store8(p, {flag_off}, 1);\n"));
        if (mask >> (2 * (k % 4) + 1)) & 1 == 1 {
            body.push_str(&format!("    clwb(p + {flag_off});\n    sfence();\n"));
        }
        let data = if via_memcpy {
            format!("load8(buf, {})", u32::from(k) * 8)
        } else {
            format!("load8(p, {data_off})")
        };
        checks.push_str(&format!(
            "    if (load8(p, {flag_off}) == 1) {{\n        if ({data} != {val}) {{ return 1; }}\n    }}\n"
        ));
    }
    let copies: String = if via_memcpy {
        (0..n_keys)
            .map(|k| {
                format!(
                    "    memcpy(buf + {}, p + {}, 8);\n",
                    u32::from(k) * 8,
                    u32::from(k) * 128
                )
            })
            .collect()
    } else {
        String::new()
    };
    format!(
        "fn main() {{\n    var p: ptr = pmem_map(0, 8192);\n{body}    print(load8(p, 0));\n}}\n\
         fn recover() -> int {{\n    var p: ptr = pmem_map(0, 8192);\n    var buf: ptr = alloc(64);\n\
         {copies}{checks}    return 0;\n}}\n"
    )
}

/// A program whose recovery outcome depends on which pools the crash image
/// holds, not only on the bytes it reads: the second pool is mapped
/// mid-run, and recovery maps it at a size that only a fresh pool accepts.
/// Before the mapping, every crash image recovers; after it, recovery traps
/// on the size mismatch, although it reads the same bytes as before.
/// `mask` persists the first store (bit 0) and the second (bit 1).
fn late_pool(mask: u8) -> String {
    let persist = |bit: u8, at: &str| {
        if mask & bit != 0 {
            format!("    clwb({at});\n    sfence();\n")
        } else {
            String::new()
        }
    };
    format!(
        "fn main() {{\n    var p: ptr = pmem_map(0, 4096);\n    store8(p, 0, 1);\n{}\
         \n    var q: ptr = pmem_map(1, 4096);\n    store8(q, 64, 2);\n{}}}\n\
         fn recover() -> int {{\n    var p: ptr = pmem_map(0, 4096);\n\
         \n    if (load8(p, 0) == 1) {{\n        var q: ptr = pmem_map(1, 8192);\n    }}\n    return 0;\n}}\n",
        persist(1, "p"),
        persist(2, "q + 64"),
    )
}

/// The families above at fixed parameters, plus the example programs:
/// unlike the `bugdb` corpus, whose recovery oracles accept every explored
/// state, these find inconsistencies, so their reports carry blame.
fn family_programs() -> Vec<Program> {
    let mut v = vec![];
    for (n_keys, mask) in [
        (1, 0x00),
        (1, 0x02),
        (2, 0x00),
        (2, 0x06),
        (3, 0x12),
        (3, 0x2d),
    ] {
        for via_memcpy in [false, true] {
            let tag = if via_memcpy {
                "publish-memcpy"
            } else {
                "publish"
            };
            v.push(compiled(
                &format!("{tag}-{n_keys}-{mask:#04x}"),
                &publish(n_keys, mask, via_memcpy),
            ));
        }
    }
    for mask in 0..4 {
        v.push(compiled(&format!("late-pool-{mask}"), &late_pool(mask)));
    }
    for name in ["ordering_demo", "append_log", "counter"] {
        let path = format!("{}/../../examples/{name}.pmc", env!("CARGO_MANIFEST_DIR"));
        let src = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
        v.push(compiled(name, &src));
    }
    v
}

fn opts(p: &Program, budget: usize, jobs: usize) -> ExploreOptions {
    ExploreOptions {
        budget,
        jobs,
        oracle: Some(p.oracle.clone()),
        ..ExploreOptions::default()
    }
}

/// The traced run with PM data capture that exploration starts from.
fn traced(p: &Program) -> (Trace, DataLog) {
    let res = Vm::new(VmOptions::default().capture_pm_data())
        .run(&p.module, &p.entry)
        .unwrap_or_else(|e| panic!("{}: the traced run trapped: {e}", p.name));
    (
        res.trace.expect("tracing was on"),
        res.pm_data.expect("capture was on"),
    )
}

/// The lost-store blame, by scanning the trace: for every lost line, the
/// last store at or before the crash that wrote it; for every blamed
/// store, whether a fence follows it before the crash.
fn reference_finding(
    trace: &Trace,
    frontier: &Frontier,
    c: &Candidate,
    image_hash: u64,
    failure: pmexplore::Failure,
) -> Finding {
    let lost: Vec<u64> = frontier
        .dirty
        .iter()
        .copied()
        .filter(|l| !c.lines.contains(l))
        .collect();
    let mut by_store: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    for &line in &lost {
        let last = trace
            .events
            .iter()
            .take_while(|e| e.seq <= c.after_seq)
            .filter(|e| match e.kind {
                EventKind::Store { addr, len } => line >= addr & !63 && line < addr + len.max(1),
                _ => false,
            })
            .last();
        if let Some(e) = last {
            by_store.entry(e.seq).or_default().push(line);
        }
    }
    let blamed = by_store
        .into_iter()
        .map(|(store_seq, lines)| {
            let unflushed: Vec<u64> = lines
                .iter()
                .copied()
                .filter(|l| !frontier.pending.contains(l))
                .collect();
            let fenced = trace.events.iter().any(|e| {
                e.seq > store_seq
                    && e.seq <= c.after_seq
                    && matches!(e.kind, EventKind::Fence { .. })
            });
            let kind = match (unflushed.is_empty(), fenced) {
                (true, _) => BugKind::MissingFence,
                (false, true) => BugKind::MissingFlush,
                (false, false) => BugKind::MissingFlushFence,
            };
            LostStore {
                store_seq,
                kind,
                lost_lines: lines,
                unflushed_lines: unflushed,
            }
        })
        .collect();
    Finding {
        after_seq: c.after_seq,
        persisted: c.lines.clone(),
        lost,
        image_hash,
        failure,
        blamed,
    }
}

/// What `explore` must report: every distinct image booted once, in
/// candidate order, with the first failing candidate of each image kept.
fn reference_report(
    p: &Program,
    trace: &Trace,
    data: &DataLog,
    o: &ExploreOptions,
) -> ExploreReport {
    let fronts = frontiers(trace, data, None);
    let candidates = sample(&fronts, o.budget, o.seed);
    let mut verdicts: HashMap<u64, Verdict> = HashMap::new();
    let mut failing = BTreeSet::new();
    let mut findings = vec![];
    let mut r = Replayer::new(trace, data, None);
    let mut at = 0;
    for c in &candidates {
        if c.after_seq < at {
            r = Replayer::new(trace, data, None);
        }
        r.advance_to(c.after_seq);
        at = c.after_seq;
        let h = r.hash_with(&c.lines);
        let verdict = verdicts
            .entry(h)
            .or_insert_with(|| {
                p.oracle
                    .check(&p.module, r.image_with(&c.lines), o.max_recovery_steps)
            })
            .clone();
        match verdict {
            Verdict::Inconsistent(failure) => {
                if failing.insert(h) {
                    findings.push(reference_finding(trace, &fronts[c.frontier], c, h, failure));
                }
            }
            Verdict::OracleCrash { what } => panic!("{}: the oracle crashed: {what}", p.name),
            Verdict::Consistent => {}
        }
    }
    ExploreReport {
        stats: ExploreStats {
            frontiers: fronts.len(),
            candidates: candidates.len(),
            distinct_states: verdicts.len(),
            inconsistent: findings.len(),
            oracle_crashes: 0,
            worker_panics: 0,
        },
        findings,
        oracle: Some(p.oracle.clone()),
        diagnostics: vec![],
    }
}

/// `explore` at one and at four workers equals the reference.
fn assert_matches_reference(p: &Program, budget: usize) {
    let (trace, data) = traced(p);
    let want = reference_report(p, &trace, &data, &opts(p, budget, 1));
    for jobs in [1, 4] {
        let got = explore(&p.module, &p.entry, &trace, &data, &opts(p, budget, jobs));
        assert_eq!(got, want, "{} at jobs {jobs}", p.name);
    }
}

#[test]
fn explore_reports_match_golden_fingerprints() {
    let mut got = String::new();
    for p in bugdb_programs().into_iter().chain(family_programs()) {
        let (trace, data) = traced(&p);
        let report = explore(&p.module, &p.entry, &trace, &data, &opts(&p, 256, 1));
        let findings = serde_json::to_string(&report.findings).expect("findings serialize");
        let check = serde_json::to_string(&report.to_check_report(&trace)).expect("serializes");
        got.push_str(&format!(
            "{} {:016x} {:016x} {:016x} {}\n",
            p.name,
            fnv1a(report.render().as_bytes()),
            fnv1a(findings.as_bytes()),
            fnv1a(check.as_bytes()),
            report.findings.len()
        ));
    }
    assert_eq!(
        got, FIXTURE,
        "exploration reports drifted from the golden fixture; actual:\n{got}"
    );
}

#[test]
fn bugdb_corpus_matches_reference() {
    for p in bugdb_programs() {
        assert_matches_reference(&p, 192);
    }
}

#[test]
fn apps_match_reference() {
    assert_matches_reference(
        &pclht(
            "pclht-correct",
            pmapps::pclht::build_correct().expect("builds"),
        ),
        512,
    );
    assert_matches_reference(
        &memcached(
            "memcached-correct",
            pmapps::memcached::build_correct().expect("builds"),
        ),
        512,
    );
}

#[test]
fn families_match_reference() {
    for p in family_programs() {
        assert_matches_reference(&p, 256);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_publish_programs_match_reference(
        n_keys in 1u8..5,
        mask in 0u8..=255,
        via_memcpy in any::<bool>(),
    ) {
        let p = compiled("publish", &publish(n_keys, mask, via_memcpy));
        assert_matches_reference(&p, 128);
    }
}
