//! The read-path memo: recovery verdicts keyed by the PM lines a recovery
//! boot actually read, not by the whole crash image.
//!
//! A recovery boot is a deterministic VM run. What varies between the crash
//! images of one trace is only the pool set (which pools the image holds,
//! at which base and size: `pmem_map` in recovery depends on it) and the
//! bytes the run loads. So on every image with the same pool set that
//! agrees with a booted image on the bytes of each line the boot read, the
//! run reads the same lines in the same order and ends with the same
//! verdict. Most crash images differ only in lines recovery never reads.
//!
//! The memo is one trie per pool set. The path from the root spells a read
//! path: each line the boot read, keyed by that line's version in the image
//! ([`crate::Replayer::line_version`]: equal versions mean equal bytes).
//! Runs of single-child nodes are stored compactly: a node matches a whole
//! segment of lines, stored as `u32` line ids with `u32` versions beside
//! them, and a new leaf shares its sibling's stored tail where the two are
//! equal. A node then either holds the verdict or branches on the version
//! of the next line read. A lookup follows the image's versions from the
//! root; it hits only if it reaches a verdict, and a miss says where the
//! booted image's path is to be entered.

use crate::oracle::Verdict;
use pmem_sim::layout::PM_BASE;
use pmem_sim::CACHE_LINE;

/// No node.
const NONE: u32 = u32::MAX;

/// A pool of a crash image: `(hint, base, byte length)`.
type Pool = (u64, u64, u64);

/// One trie node: a segment of a read path, then a verdict or a branch.
/// Nodes own no heap memory: segments live in the memo's arenas, and
/// children form a sibling list.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// The segment: `len` lines from `lines[line_at..]`, with their
    /// versions from `versions[ver_at..]`.
    line_at: u32,
    ver_at: u32,
    len: u32,
    /// The version of the parent's branch line that leads here.
    via: u32,
    /// The next child of the same parent, or [`NONE`].
    sibling: u32,
    /// The first child: the run reads `lines[line_at + len]` next. [`NONE`]
    /// for a leaf.
    child: u32,
    /// A leaf's verdict, as an index into `verdicts`; [`NONE`] for a
    /// branch.
    verdict: u32,
}

/// Where a lookup left the trie: at line `k` of `node`'s segment (or, for
/// `k == len`, at its branch line), after `at` lines of path above the
/// node. `node` is [`NONE`] when the pool set has no trie yet.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Miss {
    node: u32,
    k: u32,
    at: u32,
}

impl Miss {
    const NO_ROOT: Miss = Miss {
        node: NONE,
        k: 0,
        at: 0,
    };
}

/// Recovery verdicts by read path, for the crash images of one trace. See
/// the [module docs](self).
#[derive(Debug, Default)]
pub(crate) struct ReadPathMemo {
    /// `(pool set, root node)` per pool set seen.
    roots: Vec<(Vec<Pool>, u32)>,
    nodes: Vec<Node>,
    /// Leaf segments' lines as [`line_id`]s, back to back. A segment
    /// equal to its sibling's is stored once (see [`ReadPathMemo::leaf`]).
    lines: Vec<u32>,
    /// Leaf segments' versions, back to back, shared like `lines`.
    versions: Vec<u32>,
    /// Leaf verdicts, each stored once.
    verdicts: Vec<Verdict>,
    /// Scratch for a new leaf: its line ids and versions.
    scratch: (Vec<u32>, Vec<u32>),
}

/// A PM line as a `u32`: its index in the PM region. `None` for a line
/// past the first 256 GiB of it, which no read path in the memo holds.
fn line_id(line: u64) -> Option<u32> {
    u32::try_from(line.checked_sub(PM_BASE)? / CACHE_LINE).ok()
}

/// The line of a [`line_id`].
fn line_of_id(id: u32) -> u64 {
    PM_BASE + u64::from(id) * CACHE_LINE
}

impl ReadPathMemo {
    fn root(&self, pools: impl Iterator<Item = Pool> + Clone) -> Option<u32> {
        self.roots
            .iter()
            .find(|(set, _)| set.iter().copied().eq(pools.clone()))
            .map(|&(_, root)| root)
    }

    /// The segment lines of `node`, then (for a branch) its branch line.
    fn lines_of(&self, node: &Node) -> &[u32] {
        let end = node.line_at + node.len + u32::from(node.verdict == NONE);
        &self.lines[node.line_at as usize..end as usize]
    }

    fn versions_of(&self, node: &Node) -> &[u32] {
        &self.versions[node.ver_at as usize..(node.ver_at + node.len) as usize]
    }

    /// The child of branch `n` reached by version `v` of its branch line.
    fn child(&self, n: u32, v: u32) -> Option<u32> {
        let mut c = self.nodes[n as usize].child;
        while c != NONE {
            let child = &self.nodes[c as usize];
            if child.via == v {
                return Some(c);
            }
            c = child.sibling;
        }
        None
    }

    /// The verdict of the images with pool set `pools` whose lines have
    /// the versions `version` gives, if a boot of such an image is known;
    /// else where the image left the trie, for [`ReadPathMemo::insert`].
    pub(crate) fn lookup(
        &self,
        pools: impl Iterator<Item = Pool> + Clone,
        version: impl Fn(u64) -> u32,
    ) -> Result<&Verdict, Miss> {
        let mut n = self.root(pools).ok_or(Miss::NO_ROOT)?;
        let mut at = 0;
        loop {
            let node = &self.nodes[n as usize];
            let lines = self.lines_of(node);
            let mismatch = self
                .versions_of(node)
                .iter()
                .zip(lines)
                .position(|(&v, &id)| version(line_of_id(id)) != v);
            if let Some(k) = mismatch {
                return Err(Miss {
                    node: n,
                    k: k as u32,
                    at,
                });
            }
            if node.verdict != NONE {
                return Ok(&self.verdicts[node.verdict as usize]);
            }
            let v = version(line_of_id(lines[node.len as usize]));
            n = self.child(n, v).ok_or(Miss {
                node: n,
                k: node.len,
                at,
            })?;
            at += node.len + 1;
        }
    }

    /// Records that a boot of the image whose lookup missed at `miss` read
    /// `path`, whose lines have the versions `version` gives, and judged it
    /// `verdict`. The boot read what the trie holds up to the miss (the
    /// run is deterministic and the image agrees there), so only the rest
    /// of the path is new. A path that contradicts the trie at the miss
    /// (another line read there, or none) is dropped, as is one with a
    /// line past [`line_id`]'s range.
    pub(crate) fn insert(
        &mut self,
        miss: Miss,
        pools: impl Iterator<Item = Pool>,
        path: &[u64],
        version: impl Fn(u64) -> u32,
        verdict: Verdict,
    ) {
        if miss.node == NONE {
            if let Some(leaf) = self.leaf(path, &version, verdict, None) {
                self.roots.push((pools.collect(), leaf));
            }
            return;
        }
        let node = self.nodes[miss.node as usize];
        let (k, at) = (miss.k as usize, miss.at as usize);
        let Some(&line) = path.get(at + k) else {
            return;
        };
        if line_id(line) != Some(self.lines_of(&node)[k]) {
            return;
        }
        // The sibling the new leaf will have: the rest of the split
        // segment, or the branch's latest child.
        let sibling = if miss.k < node.len {
            (node.line_at + miss.k + 1, node.ver_at + miss.k + 1)
        } else {
            let child = &self.nodes[node.child as usize];
            (child.line_at, child.ver_at)
        };
        let Some(leaf) = self.leaf(&path[at + k + 1..], &version, verdict, Some(sibling)) else {
            return;
        };
        self.nodes[leaf as usize].via = version(line);
        if miss.k < node.len {
            // The image left the segment at its k-th line: split the node
            // there into a branch on that line's version.
            let rest = self.push(Node {
                line_at: node.line_at + miss.k + 1,
                ver_at: node.ver_at + miss.k + 1,
                len: node.len - miss.k - 1,
                via: self.versions_of(&node)[k],
                sibling: leaf,
                ..node
            });
            let split = &mut self.nodes[miss.node as usize];
            split.len = miss.k;
            split.child = rest;
            split.verdict = NONE;
        } else {
            // No child for this version of the branch line yet.
            let first = std::mem::replace(&mut self.nodes[miss.node as usize].child, leaf);
            self.nodes[leaf as usize].sibling = first;
        }
    }

    fn push(&mut self, node: Node) -> u32 {
        self.nodes.push(node);
        index(self.nodes.len() - 1)
    }

    /// A new leaf for `path` ending in `verdict`; `None` if a line of
    /// `path` is past [`line_id`]'s range.
    ///
    /// Its lines and versions are stored once: a run that left the trie at
    /// one line's version mostly goes on to read the same lines, at the
    /// same versions, as its sibling did, so where they equal the data at
    /// `sibling` (`(line_at, ver_at)`) the leaf shares it. This tail
    /// sharing stores a P-CLHT memo in a third of the versions.
    fn leaf(
        &mut self,
        path: &[u64],
        version: impl Fn(u64) -> u32,
        verdict: Verdict,
        sibling: Option<(u32, u32)>,
    ) -> Option<u32> {
        let (mut ids, mut versions) = std::mem::take(&mut self.scratch);
        ids.clear();
        versions.clear();
        let in_range = path.iter().all(|&line| {
            let Some(id) = line_id(line) else {
                return false;
            };
            ids.push(id);
            versions.push(version(line));
            true
        });
        let leaf = in_range.then(|| {
            let line_at = store(&mut self.lines, &ids, sibling.map(|s| s.0));
            let ver_at = store(&mut self.versions, &versions, sibling.map(|s| s.1));
            // Few distinct verdicts, most of them `Consistent`.
            let verdict = match self.verdicts.iter().rposition(|v| *v == verdict) {
                Some(i) => i,
                None => {
                    self.verdicts.push(verdict);
                    self.verdicts.len() - 1
                }
            };
            self.push(Node {
                line_at,
                ver_at,
                len: index(ids.len()),
                via: 0,
                sibling: NONE,
                child: NONE,
                verdict: index(verdict),
            })
        });
        self.scratch = (ids, versions);
        leaf
    }
}

fn index(i: usize) -> u32 {
    u32::try_from(i)
        .ok()
        .filter(|&i| i != NONE)
        .expect("a memo of fewer than 2^32 - 1 entries")
}

/// Where `items` starts in `arena`: at `near` if they are stored there
/// already, else appended.
fn store(arena: &mut Vec<u32>, items: &[u32], near: Option<u32>) -> u32 {
    if let Some(at) = near {
        if arena.get(at as usize..at as usize + items.len()) == Some(items) {
            return at;
        }
    }
    let at = index(arena.len());
    arena.extend_from_slice(items);
    at
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::Failure;

    fn bad(what: &str) -> Verdict {
        Verdict::Inconsistent(Failure {
            what: what.to_string(),
            return_value: Some(1),
        })
    }

    const POOLS: [Pool; 1] = [(7, PM_BASE, 4096)];

    /// `(line index, version)` pairs of an image.
    type Table = [(u64, u32)];

    /// The lines with these indexes in the pool.
    fn path(ids: &[u64]) -> Vec<u64> {
        ids.iter().map(|&i| PM_BASE + i * CACHE_LINE).collect()
    }

    /// Versions from a `(line index, version)` table; unlisted lines are 0.
    fn image(table: &Table) -> impl Fn(u64) -> u32 + '_ {
        move |line| {
            let id = (line - PM_BASE) / CACHE_LINE;
            table.iter().find(|e| e.0 == id).map_or(0, |e| e.1)
        }
    }

    /// Boots an image: on a lookup miss, enters its read path `ids` and
    /// `verdict`, as exploration does after the boot.
    fn boot(m: &mut ReadPathMemo, pools: &[Pool], ids: &[u64], table: &Table, verdict: Verdict) {
        let pools = || pools.iter().copied();
        if let Err(miss) = m.lookup(pools(), image(table)) {
            m.insert(miss, pools(), &path(ids), image(table), verdict);
        }
    }

    #[test]
    fn hits_only_images_that_agree_on_the_lines_read() {
        let mut m = ReadPathMemo::default();
        let pools = || POOLS.iter().copied();
        // A boot read line 1 (version 3) and then line 0 (version 1).
        boot(
            &mut m,
            &POOLS,
            &[1, 0],
            &[(1, 3), (0, 1)],
            Verdict::Consistent,
        );
        // Line 2 was not read: its version does not matter.
        let agree = [(1, 3), (0, 1), (2, 9)];
        assert_eq!(
            m.lookup(pools(), image(&agree)).ok(),
            Some(&Verdict::Consistent)
        );
        assert!(m.lookup(pools(), image(&[(1, 3), (0, 2)])).is_err());
        assert!(m.lookup(pools(), image(&[(1, 4), (0, 1)])).is_err());
        // Another pool set is another trie.
        let other = [(7, PM_BASE, 8192)];
        assert!(m.lookup(other.iter().copied(), image(&agree)).is_err());
    }

    #[test]
    fn diverging_paths_split_segments() {
        let mut m = ReadPathMemo::default();
        let pools = || POOLS.iter().copied();
        let ok = Verdict::Consistent;
        boot(&mut m, &POOLS, &[0, 1, 2], &[(0, 1), (1, 2), (2, 3)], ok);
        // Same first line, another version of the second: the run then
        // reads another line.
        boot(
            &mut m,
            &POOLS,
            &[0, 1, 3],
            &[(0, 1), (1, 5), (3, 6)],
            bad("second"),
        );
        // A third version of the first line, with a path of one line.
        boot(&mut m, &POOLS, &[0], &[(0, 7)], bad("first"));
        // Diverging again at the third line of the first path.
        boot(
            &mut m,
            &POOLS,
            &[0, 1, 2],
            &[(0, 1), (1, 2), (2, 4)],
            bad("third"),
        );
        let cases: [(&Table, Option<Verdict>); 7] = [
            (&[(0, 1), (1, 2), (2, 3)], Some(Verdict::Consistent)),
            (&[(0, 1), (1, 5), (3, 6), (2, 3)], Some(bad("second"))),
            (&[(0, 7), (1, 2)], Some(bad("first"))),
            (&[(0, 1), (1, 2), (2, 4)], Some(bad("third"))),
            (&[(0, 1), (1, 2), (2, 5)], None),
            (&[(0, 1), (1, 5), (3, 7)], None),
            (&[(0, 2)], None),
        ];
        for (table, want) in cases {
            let got = m.lookup(pools(), image(table)).ok();
            assert_eq!(got, want.as_ref(), "{table:?}");
        }
    }

    #[test]
    fn contradicting_paths_are_dropped_and_tails_shared() {
        let mut m = ReadPathMemo::default();
        let pools = || POOLS.iter().copied();
        boot(
            &mut m,
            &POOLS,
            &[0, 1],
            &[(0, 1), (1, 2)],
            Verdict::Consistent,
        );
        // Line 0 as before, yet another line read next: dropped.
        boot(
            &mut m,
            &POOLS,
            &[0, 2],
            &[(0, 1), (2, 2)],
            bad("impossible"),
        );
        assert!(m.lookup(pools(), image(&[(0, 1), (2, 2)])).is_err());
        // A line outside the PM region: dropped.
        let other = [(8, PM_BASE, 4096)];
        let miss = m.lookup(other.iter().copied(), image(&[])).unwrap_err();
        m.insert(miss, other.iter().copied(), &[0], |_| 0, bad("unmapped"));
        assert!(m.lookup(other.iter().copied(), image(&[])).is_err());
        // New branches on line 0 share their siblings' tails: line 1 for
        // both, its version 2 for the first. The verdict is stored once for
        // both leaves that reach it.
        boot(&mut m, &POOLS, &[0, 1], &[(0, 3), (1, 2)], bad("other"));
        boot(&mut m, &POOLS, &[0, 1], &[(0, 4), (1, 9)], bad("other"));
        assert_eq!(m.lines, [0, 1], "the first path's lines only");
        assert_eq!(m.versions, [1, 2, 9], "the first path's, then 9");
        assert_eq!(m.verdicts, [Verdict::Consistent, bad("other")]);
        assert_eq!(
            m.lookup(pools(), image(&[(0, 4), (1, 9)])).ok(),
            Some(&bad("other"))
        );
    }
}
