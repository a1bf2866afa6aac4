//! Differential property test: the production checker agrees with an
//! independent, naive reference implementation of the durability state
//! machine on random event streams — the whole report, not just the bug
//! kinds — and the streaming [`OnlineChecker`] agrees with the batch
//! [`check_trace`] on every stream, report for report.

use pmcheck::{check_trace, BugKind, CheckReport, Checkpoint, OnlineChecker};
use pmtrace::{Event, EventKind, FenceKind, FlushKind, Trace};
use proptest::prelude::*;

const PM: u64 = 0x3000_0000_0000;

/// One generated operation; offsets are bytes from `PM`.
#[derive(Debug, Clone)]
enum TOp {
    Store {
        off: u64,
        len: u64,
    },
    Flush {
        off: u64,
        strong: bool,
    },
    /// One flush at the first byte of each of the first `SWEEP_LINES`
    /// lines, so that stores of more than 64 lines can become durable.
    Sweep {
        strong: bool,
    },
    /// `n` stores of `len` bytes, one at the first byte of each line from
    /// `line` on.
    StoreTrain {
        line: u64,
        n: u64,
        len: u64,
    },
    /// `n` flushes, one at byte `byte` of each line from `line` on: the
    /// flush-then-fence idiom over a whole region.
    FlushTrain {
        line: u64,
        n: u64,
        byte: u64,
        strong: bool,
    },
    Fence,
    CrashPoint,
}

const SWEEP_LINES: u64 = 80;

/// Line-aligned stores of up to 72 bytes (at most two lines) and
/// line-aligned flushes.
fn op_strategy() -> impl Strategy<Value = TOp> {
    prop_oneof![
        4 => (0u64..8, 1u64..72).prop_map(|(line, len)| TOp::Store { off: line * 64, len }),
        3 => (0u64..8, any::<bool>()).prop_map(|(line, strong)| TOp::Flush { off: line * 64, strong }),
        2 => Just(TOp::Fence),
        1 => Just(TOp::CrashPoint),
    ]
}

/// Stores at any byte of the first eight lines, from 1 byte to 70 lines
/// long (exactly 64 and 65 lines included, so both the inline line mask
/// and the spilled one run); flushes at any byte of a line.
fn wide_op_strategy() -> impl Strategy<Value = TOp> {
    let off = prop_oneof![1 => (0u64..8).prop_map(|line| line * 64), 3 => 0u64..8 * 64];
    let len = prop_oneof![
        6 => 1u64..200,
        1 => Just(64 * 64),
        1 => Just(65 * 64),
        1 => 60 * 64..70 * 64u64,
    ];
    let flush_off = prop_oneof![3 => 0u64..10 * 64, 1 => 0u64..SWEEP_LINES * 64];
    prop_oneof![
        4 => (off, len).prop_map(|(off, len)| TOp::Store { off, len }),
        3 => (flush_off, any::<bool>()).prop_map(|(off, strong)| TOp::Flush { off, strong }),
        1 => any::<bool>().prop_map(|strong| TOp::Sweep { strong }),
        2 => Just(TOp::Fence),
        1 => Just(TOp::CrashPoint),
    ]
}

/// Lines the train family spreads over.
const TRAIN_LINES: u64 = 2048;

/// Stores and flushes over `TRAIN_LINES` lines, trains of them up to 1200
/// lines long, stores of up to 200 lines (past the 64-line mask word),
/// and sparse fences and crash points.
fn train_op_strategy() -> impl Strategy<Value = TOp> {
    let len = prop_oneof![
        6 => 1u64..160,
        1 => Just(64 * 64),
        1 => Just(65 * 64),
        2 => 65 * 64..200 * 64u64,
    ];
    prop_oneof![
        4 => (0..TRAIN_LINES * 64, len).prop_map(|(off, len)| TOp::Store { off, len }),
        4 => (0..TRAIN_LINES * 64, any::<bool>()).prop_map(|(off, strong)| TOp::Flush { off, strong }),
        2 => (0..TRAIN_LINES, 1u64..1200, 1u64..72)
            .prop_map(|(line, n, len)| TOp::StoreTrain { line, n, len }),
        2 => (0..TRAIN_LINES, 1u64..1200, 0u64..64, any::<bool>())
            .prop_map(|(line, n, byte, strong)| TOp::FlushTrain { line, n, byte, strong }),
        1 => Just(TOp::Fence),
        1 => Just(TOp::CrashPoint),
    ]
}

/// `ops` with every sweep and train spelled out: one op per event.
fn expand(ops: &[TOp]) -> Vec<TOp> {
    let mut out = vec![];
    for op in ops {
        match *op {
            TOp::Sweep { strong } => out.extend((0..SWEEP_LINES).map(|line| TOp::Flush {
                off: line * 64,
                strong,
            })),
            TOp::StoreTrain { line, n, len } => {
                out.extend((line..line + n).map(|l| TOp::Store { off: l * 64, len }))
            }
            TOp::FlushTrain {
                line,
                n,
                byte,
                strong,
            } => out.extend((line..line + n).map(|l| TOp::Flush {
                off: l * 64 + byte,
                strong,
            })),
            ref op => out.push(op.clone()),
        }
    }
    out
}

fn to_trace(ops: &[TOp]) -> Trace {
    let mut t = Trace::new();
    let mut seq = 0;
    let mut push = |kind| {
        t.push(Event {
            seq,
            kind,
            at: None,
            loc: None,
            stack: [].into(),
        });
        seq += 1;
    };
    for op in expand(ops) {
        match op {
            TOp::Store { off, len } => push(EventKind::Store {
                addr: PM + off,
                len,
            }),
            TOp::Flush { off, strong } => push(EventKind::Flush {
                kind: if strong {
                    FlushKind::Clflush
                } else {
                    FlushKind::Clwb
                },
                addr: PM + off,
            }),
            TOp::Fence => push(EventKind::Fence {
                kind: FenceKind::Sfence,
            }),
            TOp::CrashPoint => push(EventKind::CrashPoint),
            TOp::Sweep { .. } | TOp::StoreTrain { .. } | TOp::FlushTrain { .. } => {
                unreachable!("expanded")
            }
        }
    }
    push(EventKind::ProgramEnd);
    t
}

/// Checks `trace` in batch and streaming form, asserts the two reports are
/// equal, and returns it.
fn check_both(trace: &Trace) -> CheckReport {
    let report = check_trace(trace);
    let mut online = OnlineChecker::new();
    for e in &trace.events {
        online.feed(e);
    }
    assert_eq!(
        online.finish(),
        report,
        "streaming and batch reports differ"
    );
    report
}

/// Everything a report says, in the form the reference produces it.
#[derive(Debug, PartialEq)]
struct Summary {
    /// `(store_seq, kind, checkpoint, unflushed_lines)` per bug, in order.
    bugs: Vec<(u64, BugKind, Checkpoint, Vec<u64>)>,
    /// Seqs of the redundant flushes, in order.
    redundant: Vec<u64>,
    stores: u64,
    flushes: u64,
    fences: u64,
}

fn summarize(r: &CheckReport) -> Summary {
    Summary {
        bugs: r
            .bugs
            .iter()
            .map(|b| (b.store_seq, b.kind, b.checkpoint, b.unflushed_lines.clone()))
            .collect(),
        redundant: r.redundant_flushes.iter().map(|f| f.seq).collect(),
        stores: r.stores_checked,
        flushes: r.flushes_seen,
        fences: r.fences_seen,
    }
}

/// The reference: simulate per-store line lists with no cleverness at all.
fn reference(ops: &[TOp]) -> Summary {
    struct St {
        seq: u64,
        unflushed: Vec<u64>,
        pending: Vec<u64>,
    }
    let mut live: Vec<St> = vec![];
    let mut out = Summary {
        bugs: vec![],
        redundant: vec![],
        stores: 0,
        flushes: 0,
        fences: 0,
    };
    let mut last_fence: Option<u64> = None;
    let mut crash_points = 0;
    let audit = |live: &[St], last_fence: Option<u64>, at: Checkpoint, out: &mut Summary| {
        for st in live {
            if st.unflushed.is_empty() && st.pending.is_empty() {
                continue;
            }
            let kind = if st.unflushed.is_empty() {
                BugKind::MissingFence
            } else if last_fence.map(|f| f > st.seq).unwrap_or(false) {
                BugKind::MissingFlush
            } else {
                BugKind::MissingFlushFence
            };
            out.bugs.push((st.seq, kind, at, st.unflushed.clone()));
        }
    };
    let ops = expand(ops);
    for (i, op) in ops.iter().enumerate() {
        let seq = i as u64;
        match *op {
            TOp::Store { off, len } => {
                out.stores += 1;
                let start = PM + off;
                let end = start + len;
                let mut lines = vec![];
                let mut l = start / 64 * 64;
                while l < end {
                    lines.push(l);
                    l += 64;
                }
                live.push(St {
                    seq,
                    unflushed: lines,
                    pending: vec![],
                });
            }
            TOp::Flush { off, strong } => {
                out.flushes += 1;
                let l = (PM + off) / 64 * 64;
                let mut hit = false;
                for st in &mut live {
                    if let Some(pos) = st.unflushed.iter().position(|&x| x == l) {
                        hit = true;
                        st.unflushed.remove(pos);
                        if !strong {
                            st.pending.push(l);
                        }
                    } else if let Some(pos) = st.pending.iter().position(|&x| x == l) {
                        hit = true;
                        if strong {
                            st.pending.remove(pos);
                        }
                    }
                }
                if !hit {
                    out.redundant.push(seq);
                }
            }
            TOp::Fence => {
                out.fences += 1;
                last_fence = Some(seq);
                for st in &mut live {
                    st.pending.clear();
                }
            }
            TOp::CrashPoint => {
                crash_points += 1;
                audit(
                    &live,
                    last_fence,
                    Checkpoint::CrashPoint(crash_points),
                    &mut out,
                );
            }
            TOp::Sweep { .. } | TOp::StoreTrain { .. } | TOp::FlushTrain { .. } => {
                unreachable!("expanded")
            }
        }
    }
    audit(&live, last_fence, Checkpoint::ProgramEnd, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn checker_matches_reference(ops in proptest::collection::vec(wide_op_strategy(), 0..60)) {
        let report = check_both(&to_trace(&ops));
        prop_assert_eq!(summarize(&report), reference(&ops), "ops: {:?}", ops);
    }

    /// Appending a full persist (flush every line + fence) before program
    /// end removes every program-end report.
    #[test]
    fn trailing_persist_silences_end_reports(
        ops in proptest::collection::vec(op_strategy(), 0..40),
    ) {
        let mut fixed = ops.clone();
        for line in 0..10u8 {
            fixed.push(TOp::Flush { off: u64::from(line) * 64, strong: false });
        }
        fixed.push(TOp::Fence);
        let report = check_trace(&to_trace(&fixed));
        let end_bugs = report
            .bugs
            .iter()
            .filter(|b| matches!(b.checkpoint, Checkpoint::ProgramEnd))
            .count();
        prop_assert_eq!(end_bugs, 0, "{}", report.render());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A train of at least 1024 stores and, later, a flush train of at
    /// least 1024 lines, between random ops from the same family: the
    /// shape of every publish loop, at a size where a per-flush scan of all
    /// live stores would be quadratic.
    #[test]
    fn long_flush_trains_match_reference(
        pre in proptest::collection::vec(train_op_strategy(), 0..6),
        stores in (0..TRAIN_LINES / 2, 1024u64..1100, 1u64..72),
        mid in proptest::collection::vec(train_op_strategy(), 0..6),
        flushes in (0..TRAIN_LINES / 2, 1024u64..1100, 0u64..64, any::<bool>()),
        post in proptest::collection::vec(train_op_strategy(), 0..6),
    ) {
        let (line, n, len) = stores;
        let mut ops = pre;
        ops.push(TOp::StoreTrain { line, n, len });
        ops.extend(mid);
        let (line, n, byte, strong) = flushes;
        ops.push(TOp::FlushTrain { line, n, byte, strong });
        ops.extend(post);
        let report = check_both(&to_trace(&ops));
        prop_assert_eq!(summarize(&report), reference(&ops), "ops: {:?}", ops);
    }
}
