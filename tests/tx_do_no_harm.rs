//! Property-based verification of the repair transaction's do-no-harm
//! contract: a round that fails to commit rolls the module back
//! byte-identically and quarantines its fixes, a transiently vetoed commit
//! converges to the exact module a fault-free run produces, and the
//! write-ahead journal replays committed rounds idempotently.

use hippocrates::{Hippocrates, RepairOptions};
use pmfault::{FaultKind, FaultPlan, FaultSite, Trigger};
use pmvm::{Vm, VmOptions};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Numbers the journal files of `journal_resume_replays_committed_rounds`,
/// so no two cases (nor two runs of the property) share a path.
static JOURNAL_CASE: AtomicUsize = AtomicUsize::new(0);

/// The publish-pattern program family from `explore_do_no_harm`: `n_keys`
/// records, each a data line and a flag line, with per-site persists
/// controlled by `mask`. Dense in real durability bugs, sparse in clean
/// members — both matter for the transaction properties.
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
    format!(
        "fn main() {{\n    var p: ptr = pmem_map(0, 8192);\n{body}    print(load8(p, 0));\n}}\n"
    )
}

fn veto(trigger: Trigger) -> FaultPlan {
    FaultPlan::single(FaultSite::TxCommit, trigger, FaultKind::CommitVeto)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// THE rollback property: when every commit is vetoed, no round ever
    /// lands — the module is byte-identical to the input, every planned fix
    /// sits in the quarantine ledger, and none of the quarantined fixes
    /// appear in the (empty) committed fix list.
    #[test]
    fn permanent_veto_rolls_back_byte_identically(n_keys in 1u8..4, mask in 0u8..=255) {
        let src = program(n_keys, mask);
        let mut m = pmlang::compile_one("prop.pmc", &src).unwrap();
        let before = pmir::display::print_module(&m);
        let result = Hippocrates::new(RepairOptions {
            fault: Some(veto(Trigger::Always)),
            source_retries: 0,
            ..RepairOptions::default()
        })
        .repair_until_clean(&mut m, "main");
        // Rollback is unconditional: whatever the run's verdict, the module
        // the caller holds is the module the caller passed in.
        prop_assert_eq!(pmir::display::print_module(&m), before);
        match result {
            Ok(outcome) => {
                // Only a program with nothing to fix escapes the veto.
                prop_assert!(outcome.clean);
                prop_assert!(outcome.fixes.is_empty());
                prop_assert!(outcome.quarantined.is_empty());
            }
            Err(e) => {
                let partial = e.partial_outcome();
                prop_assert!(partial.is_some(), "veto failure must carry a partial outcome: {e}");
                if let Some(partial) = partial {
                    prop_assert_eq!(partial.committed_rounds, 0);
                    prop_assert!(partial.fixes.is_empty(), "{:?}", partial.fixes);
                    prop_assert!(!partial.quarantined.is_empty());
                    for q in &partial.quarantined {
                        prop_assert!(!q.targets.is_empty());
                        prop_assert!(q.reason.contains("vetoed"), "{}", q.reason);
                    }
                }
            }
        }
    }

    /// A transient veto (one failed journal append) is retried away: the run
    /// converges clean, quarantines nothing, and produces the byte-identical
    /// module of a fault-free run — with unchanged observable output.
    #[test]
    fn transient_veto_converges_to_the_fault_free_module(n_keys in 1u8..4, mask in 0u8..=255) {
        let src = program(n_keys, mask);
        let before = {
            let m = pmlang::compile_one("prop.pmc", &src).unwrap();
            Vm::new(VmOptions::default()).run(&m, "main").unwrap().output
        };
        let mut clean_m = pmlang::compile_one("prop.pmc", &src).unwrap();
        let clean = Hippocrates::new(RepairOptions::default())
            .repair_until_clean(&mut clean_m, "main")
            .unwrap();
        let mut vetoed_m = pmlang::compile_one("prop.pmc", &src).unwrap();
        let vetoed = Hippocrates::new(RepairOptions {
            fault: Some(veto(Trigger::Nth(0))),
            ..RepairOptions::default()
        })
        .repair_until_clean(&mut vetoed_m, "main")
        .unwrap();
        prop_assert!(vetoed.clean);
        prop_assert!(vetoed.quarantined.is_empty(), "{:?}", vetoed.quarantined);
        prop_assert_eq!(vetoed.fixes.len(), clean.fixes.len());
        prop_assert_eq!(
            pmir::display::print_module(&vetoed_m),
            pmir::display::print_module(&clean_m)
        );
        let after = Vm::new(VmOptions::default()).run(&vetoed_m, "main").unwrap();
        prop_assert_eq!(before, after.output);
    }

    /// Journal round-trip: resuming a finished run's journal on a fresh copy
    /// of the input replays every committed round idempotently and converges
    /// to the byte-identical module.
    #[test]
    fn journal_resume_replays_committed_rounds(n_keys in 1u8..4, mask in 0u8..=255) {
        let dir = std::env::temp_dir().join(format!("hippo-tx-prop-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let case = JOURNAL_CASE.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("case{case}-k{n_keys}m{mask}.journal"));
        std::fs::remove_file(&path).ok();
        let src = program(n_keys, mask);
        let opts = || RepairOptions {
            journal_path: Some(path.clone()),
            ..RepairOptions::default()
        };

        let mut m1 = pmlang::compile_one("prop.pmc", &src).unwrap();
        let first = Hippocrates::new(opts())
            .repair_until_clean(&mut m1, "main")
            .unwrap();
        prop_assert_eq!(first.replayed_rounds, 0);

        let mut m2 = pmlang::compile_one("prop.pmc", &src).unwrap();
        let second = Hippocrates::new(RepairOptions { resume: true, ..opts() })
            .repair_until_clean(&mut m2, "main")
            .unwrap();
        prop_assert!(second.clean);
        prop_assert_eq!(second.replayed_rounds, first.committed_rounds);
        prop_assert_eq!(second.committed_rounds, first.committed_rounds);
        prop_assert_eq!(second.fixes.len(), first.fixes.len());
        prop_assert_eq!(
            pmir::display::print_module(&m2),
            pmir::display::print_module(&m1)
        );
        std::fs::remove_file(&path).ok();
    }
}

/// The family is not vacuous: the fully unpersisted member has bugs for the
/// veto to quarantine.
#[test]
fn family_contains_real_bugs() {
    let src = program(2, 0);
    let mut m = pmlang::compile_one("prop.pmc", &src).unwrap();
    let outcome = Hippocrates::new(RepairOptions::default())
        .repair_until_clean(&mut m, "main")
        .unwrap();
    assert!(!outcome.fixes.is_empty(), "mask 0 must need fixes");
}
