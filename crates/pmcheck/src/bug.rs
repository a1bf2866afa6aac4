//! Bug reports.

use pmtrace::{Frame, IrRef, TraceLoc};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// The durability-bug taxonomy of paper §2.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BugKind {
    /// The store was never (fully) flushed, though a later fence exists; an
    /// intraprocedural flush suffices to fix it.
    MissingFlush,
    /// The store was flushed but no fence ordered the flush before the
    /// checkpoint.
    MissingFence,
    /// Neither flushed nor fenced.
    MissingFlushFence,
}

impl BugKind {
    /// Position on the repair ladder, for the repair engine's commit
    /// criterion. Repair adds the flush first and the fence second, and a
    /// checker can only report what is still missing — so a store whose
    /// flush landed but whose fence is pending (`MissingFence`, rank 1) is
    /// strictly closer to durable than one still missing its flush
    /// (`MissingFlush`, rank 2) or both (`MissingFlushFence`, rank 3). A
    /// round that moves a site *down* the ladder made progress even though
    /// the site still reports a bug; a round that moves a site up did harm.
    pub fn repair_rank(self) -> u32 {
        match self {
            BugKind::MissingFlushFence => 3,
            BugKind::MissingFlush => 2,
            BugKind::MissingFence => 1,
        }
    }
}

impl fmt::Display for BugKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BugKind::MissingFlush => "missing-flush",
            BugKind::MissingFence => "missing-fence",
            BugKind::MissingFlushFence => "missing-flush&fence",
        };
        f.write_str(s)
    }
}

/// Where the durability requirement was audited — the `I` of the paper's
/// `X -> F(X) -> M -> I` ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Checkpoint {
    /// An explicit `crashpoint` instruction (1-based occurrence index).
    CrashPoint(u64),
    /// Orderly program end.
    ProgramEnd,
    /// A hypothetical crash injected by the exploration engine right after
    /// the trace event with this sequence number — every trace position is
    /// a potential checkpoint under the persistency model, not just the
    /// hand-placed `crashpoint`s.
    Event(u64),
}

/// How a report's facts were obtained: by observing an execution (the
/// dynamic checker) or by abstract interpretation of the IR without running
/// it (the `pmstatic` checker).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Provenance {
    /// Produced by replaying/observing a trace of a concrete execution.
    #[default]
    Dynamic,
    /// Produced by the flow-sensitive static persistency checker.
    Static,
    /// Produced by the crash-state exploration engine (`pmexplore`): a
    /// recovery oracle failed on a reachable post-crash state, and the bug
    /// blames the store whose loss broke recovery.
    Exploration,
}

impl fmt::Display for Provenance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Provenance::Dynamic => "dynamic",
            Provenance::Static => "static",
            Provenance::Exploration => "exploration",
        })
    }
}

/// One durability bug: a PM store that was not durable by a checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Bug {
    /// Classification.
    pub kind: BugKind,
    /// Start address of the non-durable PM range.
    pub addr: u64,
    /// Length of the range in bytes.
    pub len: u64,
    /// The IR instruction of the offending store, when the trace carried it.
    pub store_at: Option<IrRef>,
    /// Source location of the store.
    pub store_loc: Option<TraceLoc>,
    /// Call stack at the store, innermost first (shared with the store's
    /// trace event).
    pub stack: Arc<[Frame]>,
    /// Trace sequence number of the store event.
    pub store_seq: u64,
    /// The checkpoint at which the bug was detected.
    pub checkpoint: Checkpoint,
    /// Cache lines of the store still unflushed at the checkpoint (empty for
    /// pure missing-fence bugs).
    pub unflushed_lines: Vec<u64>,
}

impl Bug {
    /// A stable identity for deduplication: the same store with the same
    /// classification at the same checkpoint is one report. The checkpoint
    /// is part of the key because each checkpoint is a *distinct* durability
    /// requirement (a distinct `I` in `X -> F(X) -> M -> I`): a store that
    /// is non-durable at two checkpoints violates two orderings, and the
    /// static/dynamic differential comparison must not conflate them.
    /// Identical-anchor fixes still collapse in fix reduction.
    pub fn dedup_key(&self) -> (Option<IrRef>, BugKind, Checkpoint) {
        (self.store_at.clone(), self.kind, self.checkpoint)
    }

    /// A finer identity than [`Bug::dedup_key`]: the same store-site bug
    /// reached through two distinct call paths is two entries. Needed by the
    /// repair engine's commit criterion because an interprocedural fix heals
    /// one call path at a time — a round that repairs one of a store's two
    /// call paths is real progress even though the store-site key survives.
    pub fn path_key(&self) -> PathKey {
        let path = self
            .stack
            .iter()
            .map(|f| (f.function.clone(), f.call_inst))
            .collect();
        (path, self.dedup_key())
    }
}

/// A bug identity refined by its call path: the stack's `(function,
/// call_inst)` spine plus the store-site [`Bug::dedup_key`].
pub type PathKey = (
    Vec<(Arc<str>, Option<u32>)>,
    (Option<IrRef>, BugKind, Checkpoint),
);

impl fmt::Display for Bug {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} bug: store of {} bytes at {:#x}",
            self.kind, self.len, self.addr
        )?;
        if let Some(loc) = &self.store_loc {
            write!(f, " ({loc})")?;
        }
        if let Some(at) = &self.store_at {
            write!(f, " in @{}", at.function)?;
        }
        Ok(())
    }
}

/// A redundant (clean-line) flush — a *performance* diagnostic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RedundantFlush {
    /// The flushed address.
    pub addr: u64,
    /// The flush's IR instruction.
    pub at: Option<IrRef>,
    /// Source location.
    pub loc: Option<TraceLoc>,
    /// Trace sequence number.
    pub seq: u64,
}

/// The checker's output.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CheckReport {
    /// All bugs, in detection order (possibly the same store at several
    /// checkpoints; see [`CheckReport::deduped_bugs`]).
    pub bugs: Vec<Bug>,
    /// Redundant flushes observed (performance diagnostics, not fixed).
    pub redundant_flushes: Vec<RedundantFlush>,
    /// Number of PM store events examined.
    pub stores_checked: u64,
    /// Number of flush events examined.
    pub flushes_seen: u64,
    /// Number of fence events examined.
    pub fences_seen: u64,
    /// Whether the report came from the dynamic checker or the static one.
    pub provenance: Provenance,
}

impl CheckReport {
    /// Whether the program is durability-clean.
    pub fn is_clean(&self) -> bool {
        self.bugs.is_empty()
    }

    /// Bugs deduplicated by store identity and kind (one entry per fix the
    /// repair engine must compute).
    pub fn deduped_bugs(&self) -> Vec<&Bug> {
        let mut seen = std::collections::HashSet::new();
        self.bugs
            .iter()
            .filter(|b| seen.insert(b.dedup_key()))
            .collect()
    }

    /// The set of deduplication keys — the report's *identity* for the
    /// repair engine's commit criterion (a round commits only when this set
    /// strictly shrinks and gains no new members).
    pub fn dedup_key_set(&self) -> std::collections::HashSet<(Option<IrRef>, BugKind, Checkpoint)> {
        self.bugs.iter().map(|b| b.dedup_key()).collect()
    }

    /// The set of call-path-refined keys (see [`Bug::path_key`]). The commit
    /// criterion's *progress* side measures this set: a round may leave the
    /// store-site key set unchanged yet strictly shrink the path set, which
    /// is exactly what an interprocedural fix of one of several call paths
    /// into the same buggy store does.
    pub fn path_key_set(&self) -> std::collections::HashSet<PathKey> {
        self.bugs.iter().map(|b| b.path_key()).collect()
    }

    /// The worst [`BugKind::repair_rank`] per store *site*. The site is the
    /// store's source location — stable across the instruction renumbering a
    /// fix's inserted flushes/fences cause and across the function cloning
    /// an interprocedural fix causes, which IR-level identities are not —
    /// falling back to `function@inst` when no location is known. The repair
    /// engine's commit criterion compares these maps: a new site (or a site
    /// moving up the ladder) is harm, a falling rank sum is progress.
    pub fn site_severities(&self) -> std::collections::HashMap<String, u32> {
        let mut sites = std::collections::HashMap::new();
        for b in &self.bugs {
            let site = b.store_loc.as_ref().map_or_else(
                || {
                    b.store_at
                        .as_ref()
                        .map_or_else(|| "?".to_string(), |r| format!("{}@{}", r.function, r.inst))
                },
                |loc| format!("{loc}"),
            );
            let rank = b.kind.repair_rank();
            let entry = sites.entry(site).or_insert(0);
            if rank > *entry {
                *entry = rank;
            }
        }
        sites
    }

    /// A stable fingerprint of the report's deduplicated findings (FNV-1a 64
    /// over the sorted rendered keys plus the provenance), as 16 lowercase
    /// hex digits. Journal records store it so a resumed run can tell that a
    /// replayed round converged to the same verdict.
    pub fn digest_hex(&self) -> String {
        let mut keys: Vec<String> = self
            .dedup_key_set()
            .into_iter()
            .map(|(at, kind, cp)| {
                let at =
                    at.map_or_else(|| "?".to_string(), |r| format!("{}@{}", r.function, r.inst));
                format!("{at}|{kind}|{cp:?}")
            })
            .collect();
        keys.sort();
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(self.provenance.to_string().as_bytes());
        for k in &keys {
            eat(b"\n");
            eat(k.as_bytes());
        }
        format!("{h:016x}")
    }

    /// Renders a human-readable summary.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "pmcheck ({}): {} stores, {} flushes, {} fences",
            self.provenance, self.stores_checked, self.flushes_seen, self.fences_seen
        );
        if self.is_clean() {
            let _ = writeln!(out, "no durability bugs found");
        } else {
            let _ = writeln!(out, "{} durability bug report(s):", self.bugs.len());
            for b in &self.bugs {
                let _ = writeln!(out, "  {b}");
                for fr in b.stack.iter().skip(1) {
                    let loc = fr
                        .loc
                        .as_ref()
                        .map(|l| format!(" at {l}"))
                        .unwrap_or_default();
                    let _ = writeln!(out, "      by {}{}", fr.function, loc);
                }
            }
        }
        if !self.redundant_flushes.is_empty() {
            let _ = writeln!(
                out,
                "{} redundant flush(es) (performance diagnostics)",
                self.redundant_flushes.len()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bug(kind: BugKind, func: &str, inst: u32, cp: Checkpoint) -> Bug {
        Bug {
            kind,
            addr: 0x3000_0000_0000,
            len: 8,
            store_at: Some(IrRef {
                function: func.into(),
                inst,
            }),
            store_loc: None,
            stack: [].into(),
            store_seq: 1,
            checkpoint: cp,
            unflushed_lines: vec![],
        }
    }

    #[test]
    fn dedup_keeps_distinct_checkpoints_apart() {
        // The same store at two checkpoints violates two distinct durability
        // requirements: both survive dedup (fix reduction still merges the
        // repairs, which share an anchor).
        let report = CheckReport {
            bugs: vec![
                bug(BugKind::MissingFlush, "f", 3, Checkpoint::CrashPoint(1)),
                bug(BugKind::MissingFlush, "f", 3, Checkpoint::ProgramEnd),
                bug(BugKind::MissingFence, "g", 4, Checkpoint::ProgramEnd),
            ],
            ..Default::default()
        };
        assert_eq!(report.deduped_bugs().len(), 3);
        assert!(!report.is_clean());
    }

    #[test]
    fn dedup_merges_exact_duplicates_at_one_checkpoint() {
        let report = CheckReport {
            bugs: vec![
                bug(BugKind::MissingFlush, "f", 3, Checkpoint::CrashPoint(1)),
                bug(BugKind::MissingFlush, "f", 3, Checkpoint::CrashPoint(1)),
            ],
            ..Default::default()
        };
        assert_eq!(report.deduped_bugs().len(), 1);
    }

    #[test]
    fn path_keys_separate_call_paths_that_dedup_keys_merge() {
        // The same buggy store reached from two call sites: one store-site
        // key, two path keys. An interprocedural fix of one path must read
        // as progress on the path set even though the dedup set is stable.
        let with_stack = |call_inst: u32| {
            let mut b = bug(BugKind::MissingFlush, "helper", 3, Checkpoint::ProgramEnd);
            b.stack = vec![
                pmtrace::Frame {
                    function: "helper".into(),
                    call_inst: None,
                    loc: None,
                },
                pmtrace::Frame {
                    function: "main".into(),
                    call_inst: Some(call_inst),
                    loc: None,
                },
            ]
            .into();
            b
        };
        let report = CheckReport {
            bugs: vec![with_stack(7), with_stack(9)],
            ..Default::default()
        };
        assert_eq!(report.dedup_key_set().len(), 1);
        assert_eq!(report.path_key_set().len(), 2);
        let one_path = CheckReport {
            bugs: vec![with_stack(9)],
            ..Default::default()
        };
        assert_eq!(one_path.dedup_key_set(), report.dedup_key_set());
        assert!(one_path.path_key_set().len() < report.path_key_set().len());
    }

    #[test]
    fn site_severities_take_the_worst_rank_per_source_location() {
        // Ladder: flush&fence > flush > fence. Two bugs at one location
        // collapse to the worse rank; location keying makes the map stable
        // under the instruction renumbering a fix would cause.
        assert!(BugKind::MissingFlushFence.repair_rank() > BugKind::MissingFlush.repair_rank());
        assert!(BugKind::MissingFlush.repair_rank() > BugKind::MissingFence.repair_rank());
        let at = |kind, inst, line| {
            let mut b = bug(kind, "f", inst, Checkpoint::ProgramEnd);
            b.store_loc = Some(TraceLoc {
                file: "a.pmc".into(),
                line,
                col: 0,
            });
            b
        };
        let report = CheckReport {
            bugs: vec![
                at(BugKind::MissingFence, 3, 7),
                at(BugKind::MissingFlushFence, 3, 7),
                at(BugKind::MissingFlush, 9, 8),
            ],
            ..Default::default()
        };
        let sev = report.site_severities();
        assert_eq!(sev.len(), 2);
        assert_eq!(sev.values().sum::<u32>(), 3 + 2);
        // Renumbering the instruction does not move the site.
        let renumbered = CheckReport {
            bugs: vec![at(BugKind::MissingFlushFence, 5, 7)],
            ..Default::default()
        };
        assert!(renumbered
            .site_severities()
            .keys()
            .all(|k| sev.contains_key(k)));
        // A location-less bug falls back to its IR site.
        let bare = CheckReport {
            bugs: vec![bug(BugKind::MissingFence, "g", 4, Checkpoint::ProgramEnd)],
            ..Default::default()
        };
        assert!(bare.site_severities().contains_key("g@4"));
    }

    #[test]
    fn provenance_defaults_to_dynamic_and_renders() {
        let report = CheckReport::default();
        assert_eq!(report.provenance, Provenance::Dynamic);
        assert!(report.render().contains("dynamic"));
        let stat = CheckReport {
            provenance: Provenance::Static,
            ..Default::default()
        };
        assert!(stat.render().contains("static"));
    }

    #[test]
    fn digest_is_order_insensitive_and_kind_sensitive() {
        let a = CheckReport {
            bugs: vec![
                bug(BugKind::MissingFlush, "f", 3, Checkpoint::ProgramEnd),
                bug(BugKind::MissingFence, "g", 4, Checkpoint::ProgramEnd),
            ],
            ..Default::default()
        };
        let b = CheckReport {
            bugs: vec![
                bug(BugKind::MissingFence, "g", 4, Checkpoint::ProgramEnd),
                bug(BugKind::MissingFlush, "f", 3, Checkpoint::ProgramEnd),
                // An exact duplicate must not change the digest.
                bug(BugKind::MissingFlush, "f", 3, Checkpoint::ProgramEnd),
            ],
            ..Default::default()
        };
        assert_eq!(a.digest_hex(), b.digest_hex());
        assert_eq!(a.dedup_key_set(), b.dedup_key_set());
        let c = CheckReport {
            bugs: vec![bug(BugKind::MissingFlush, "f", 3, Checkpoint::ProgramEnd)],
            ..Default::default()
        };
        assert_ne!(a.digest_hex(), c.digest_hex());
        assert_eq!(a.digest_hex().len(), 16);
    }

    #[test]
    fn render_mentions_kinds() {
        let report = CheckReport {
            bugs: vec![bug(
                BugKind::MissingFlushFence,
                "f",
                0,
                Checkpoint::ProgramEnd,
            )],
            ..Default::default()
        };
        let text = report.render();
        assert!(text.contains("missing-flush&fence"), "{text}");
    }
}
