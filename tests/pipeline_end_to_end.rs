//! End-to-end pipeline test (paper Fig. 2): source → IR → execution →
//! pmemcheck trace → Hippocrates repair → re-verification, across crates.

use hippocrates::{FixKind, Hippocrates, RepairOptions};
use pmcheck::{run_and_check, BugKind};
use pmvm::{Vm, VmOptions};

/// The paper's Listing 5 program end to end: detection, heuristic hoisting,
/// the persistent-subprogram transformation, and re-verification.
#[test]
fn listing5_full_pipeline() {
    let src = r#"
        fn update(addr: ptr, idx: int, val: int) {
            store1(addr, idx, val);
        }
        fn modify(addr: ptr) {
            update(addr, 0, 1);
        }
        fn main() {
            var vol_addr: ptr = alloc(4096);
            var pm_addr: ptr = pmem_map(0, 4096);
            var i: int = 0;
            while (i < 100) {
                modify(vol_addr);
                i = i + 1;
            }
            modify(pm_addr);
            print(load1(pm_addr, 0));
        }
    "#;
    let mut m = pmlang::compile_one("listing5.pmc", src).unwrap();

    // Step 1: the bug finder reports a missing flush&fence in `update`.
    let checked = run_and_check(&m, "main", VmOptions::default()).unwrap();
    let bugs = checked.report.deduped_bugs();
    assert_eq!(bugs.len(), 1);
    assert_eq!(bugs[0].kind, BugKind::MissingFlushFence);
    assert_eq!(&*bugs[0].store_at.as_ref().unwrap().function, "update");
    assert_eq!(bugs[0].stack.len(), 3, "update <- modify <- main");

    // Steps 2-4: Hippocrates hoists two levels, creating modify_PM and
    // update_PM exactly as in Listing 5.
    let before = Vm::new(VmOptions::default()).run(&m, "main").unwrap();
    let outcome = Hippocrates::new(RepairOptions::default())
        .repair_until_clean(&mut m, "main")
        .unwrap();
    assert!(outcome.clean);
    assert_eq!(outcome.fixes.len(), 1);
    assert!(matches!(
        &outcome.fixes[0].kind,
        FixKind::Interproc { levels: 2, root_clone } if root_clone == "modify_PM"
    ));
    assert!(m.function_by_name("update_PM").is_some());
    assert!(m.function_by_name("modify_PM").is_some());

    // Do no harm: identical output; and the volatile path is untouched
    // (exactly one flush, one fence — on the PM path only).
    let after = Vm::new(VmOptions::default()).run(&m, "main").unwrap();
    assert_eq!(before.output, after.output);
    assert_eq!(after.stats.volatile_flushes, 0);
    assert_eq!(after.stats.pm_flushes, 1);
    assert_eq!(after.stats.fences, 1);

    // The repaired module still verifies and round-trips through the
    // textual IR.
    pmir::verify::verify_module(&m).unwrap();
    let printed = pmir::display::print_module(&m);
    let reparsed = pmir::parse::parse_module(&printed).unwrap();
    assert_eq!(printed, pmir::display::print_module(&reparsed));
}

/// Repair makes updates actually durable: the crash image of the repaired
/// program contains the data; the buggy one's does not.
#[test]
fn repair_changes_crash_image() {
    let src = r#"
        fn main() {
            var p: ptr = pmem_map(9, 4096);
            store8(p, 0, 4242);
        }
    "#;
    let mut m = pmlang::compile_one("t.pmc", src).unwrap();
    let buggy_run = Vm::new(VmOptions::default()).run(&m, "main").unwrap();
    assert_eq!(
        buggy_run
            .machine
            .crash_image()
            .read_int(buggy_run.machine.crash_image().pool_base(9).unwrap(), 8),
        Some(0)
    );

    Hippocrates::new(RepairOptions::default())
        .repair_until_clean(&mut m, "main")
        .unwrap();
    let fixed_run = Vm::new(VmOptions::default()).run(&m, "main").unwrap();
    let img = fixed_run.machine.crash_image();
    assert_eq!(img.read_int(img.pool_base(9).unwrap(), 8), Some(4242));
}

/// A repaired program's data survives a simulated restart.
#[test]
fn repaired_data_survives_restart() {
    let writer = r#"
        fn main() {
            var p: ptr = pmem_map(5, 4096);
            store8(p, 0, 777);
        }
    "#;
    let reader = r#"
        fn main() {
            var p: ptr = pmem_map(5, 4096);
            print(load8(p, 0));
        }
    "#;
    let mut w = pmlang::compile_one("w.pmc", writer).unwrap();
    Hippocrates::new(RepairOptions::default())
        .repair_until_clean(&mut w, "main")
        .unwrap();
    let run = Vm::new(VmOptions::default()).run(&w, "main").unwrap();
    let media = run.machine.into_media();

    let r = pmlang::compile_one("r.pmc", reader).unwrap();
    let run2 = Vm::new(VmOptions::default().with_media(media))
        .run(&r, "main")
        .unwrap();
    assert_eq!(run2.output, vec![777]);
}

/// Without repair, the same restart loses the store — the bug is real.
#[test]
fn unrepaired_data_lost_on_restart() {
    let writer = "fn main() { var p: ptr = pmem_map(5, 4096); store8(p, 0, 777); }";
    let reader = "fn main() { var p: ptr = pmem_map(5, 4096); print(load8(p, 0)); }";
    let w = pmlang::compile_one("w.pmc", writer).unwrap();
    let run = Vm::new(VmOptions::default()).run(&w, "main").unwrap();
    let media = run.machine.into_media();
    let r = pmlang::compile_one("r.pmc", reader).unwrap();
    let run2 = Vm::new(VmOptions::default().with_media(media))
        .run(&r, "main")
        .unwrap();
    assert_eq!(run2.output, vec![0]);
}
