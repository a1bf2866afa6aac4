//! Epoch-numbered shard leases — the scheduling primitive behind
//! `hippod`'s self-healing campaigns.
//!
//! A campaign splits into numbered shard units; a worker may only execute
//! a shard while it holds that shard's **lease**. Leases are:
//!
//! - **epoch-numbered** — every lease carries the primary's election
//!   epoch. A deposed primary (or a worker that outlived a reclaim) holds
//!   a lease from a stale epoch; any operation with a stale epoch is
//!   refused (*fencing*), so its late writes can never clobber the
//!   successor's.
//! - **heartbeat-renewed** — a live worker extends its lease before the
//!   TTL runs out. A worker that dies (panic, kill -9) or hangs (watchdog
//!   abandoned) simply stops renewing, and the lease expires on its own.
//! - **reclaimable** — [`LeaseTable::reclaim_expired`] harvests expired
//!   leases so the reaper can reassign the shard, with a bounded retry
//!   budget: a shard that keeps failing is **quarantined** (poison-shard
//!   detection) instead of wedging the campaign forever.
//! - **first-commit-wins** — [`LeaseTable::complete`] only accepts the
//!   result from the current lease holder at the current epoch. When a
//!   reclaimed shard's original worker finishes late (the
//!   reaper-vs-finisher race), its commit is fenced off and discarded;
//!   shard execution is deterministic, so the winner's bytes are the same
//!   either way.
//!
//! The table is pure state — the caller supplies `now_ms` on every call —
//! so every schedule, expiry, and race is deterministic and unit-testable
//! without clocks or threads. `hippod` journals each transition through
//! its write-ahead job journal; this module is deliberately journal- and
//! IO-ignorant, keeping the dependency arrow pointing down into `pmtx`.

use std::collections::BTreeMap;
use std::fmt;

/// One live lease on one shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lease {
    pub shard: u64,
    /// The election epoch the lease was granted under.
    pub epoch: u64,
    /// The holder (worker) identifier.
    pub owner: String,
    /// Absolute expiry on the caller's clock, in milliseconds.
    pub expires_at_ms: u64,
    /// 0-based execution attempt this lease covers.
    pub attempt: u32,
}

/// Why a lease operation was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LeaseError {
    /// The operation carried a stale epoch (or a stale owner): the caller
    /// was deposed or reclaimed and must discard its work.
    Fenced {
        shard: u64,
        held_epoch: u64,
        offered_epoch: u64,
    },
    /// The shard has no live lease held by this owner.
    NotHeld { shard: u64 },
    /// Another worker currently holds a live lease on the shard.
    Held { shard: u64, owner: String },
    /// The shard already committed a result; late work is discarded.
    Done { shard: u64 },
    /// The shard exhausted its retry budget and is quarantined.
    Quarantined { shard: u64 },
}

impl fmt::Display for LeaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LeaseError::Fenced {
                shard,
                held_epoch,
                offered_epoch,
            } => write!(
                f,
                "shard {shard}: fenced (lease epoch {offered_epoch} is stale; table is at {held_epoch})"
            ),
            LeaseError::NotHeld { shard } => write!(f, "shard {shard}: lease not held"),
            LeaseError::Held { shard, owner } => {
                write!(f, "shard {shard}: lease held by {owner}")
            }
            LeaseError::Done { shard } => write!(f, "shard {shard}: already committed"),
            LeaseError::Quarantined { shard } => write!(f, "shard {shard}: quarantined"),
        }
    }
}

/// One reclaimed (expired) lease, as harvested by the reaper.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reclaimed {
    pub shard: u64,
    pub owner: String,
    pub epoch: u64,
    /// The attempt that just failed (0-based).
    pub attempt: u32,
    /// True when the retry budget is exhausted: the shard is now
    /// quarantined and must not be reassigned.
    pub quarantined: bool,
}

/// The lease table for one campaign: `total` shards, a TTL, and a retry
/// budget (`retries` reassignments after the first attempt).
#[derive(Debug, Clone)]
pub struct LeaseTable {
    epoch: u64,
    total: u64,
    ttl_ms: u64,
    retries: u32,
    leases: BTreeMap<u64, Lease>,
    attempts: BTreeMap<u64, u32>,
    done: BTreeMap<u64, ()>,
    quarantined: BTreeMap<u64, ()>,
}

impl LeaseTable {
    /// A table for `total` shards at election `epoch`. `ttl_ms` is the
    /// lease lifetime per grant/renewal; `retries` bounds reassignments
    /// (attempt numbers run `0..=retries`).
    pub fn new(epoch: u64, total: u64, ttl_ms: u64, retries: u32) -> LeaseTable {
        LeaseTable {
            epoch,
            total,
            ttl_ms: ttl_ms.max(1),
            retries,
            leases: BTreeMap::new(),
            attempts: BTreeMap::new(),
            done: BTreeMap::new(),
            quarantined: BTreeMap::new(),
        }
    }

    /// The table's current election epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Raises the epoch (a new primary took over). Every outstanding lease
    /// from the old epoch is dropped — its holders are fenced on their next
    /// renewal or commit.
    pub fn bump_epoch(&mut self, epoch: u64) {
        if epoch > self.epoch {
            self.epoch = epoch;
            self.leases.clear();
        }
    }

    /// Marks a shard as already committed (journal replay on resume).
    pub fn seed_done(&mut self, shard: u64) {
        self.done.insert(shard, ());
        self.leases.remove(&shard);
    }

    /// Marks a shard as quarantined (journal replay on resume).
    pub fn seed_quarantined(&mut self, shard: u64, attempts: u32) {
        self.quarantined.insert(shard, ());
        self.attempts.insert(shard, attempts);
        self.leases.remove(&shard);
    }

    /// Grants a lease on `shard` to `owner` at the table's epoch.
    ///
    /// # Errors
    ///
    /// Refused when the shard is done, quarantined, or leased to a live
    /// (non-expired) holder.
    pub fn acquire(&mut self, shard: u64, owner: &str, now_ms: u64) -> Result<Lease, LeaseError> {
        if self.done.contains_key(&shard) {
            return Err(LeaseError::Done { shard });
        }
        if self.quarantined.contains_key(&shard) {
            return Err(LeaseError::Quarantined { shard });
        }
        if let Some(l) = self.leases.get(&shard) {
            if l.expires_at_ms > now_ms {
                return Err(LeaseError::Held {
                    shard,
                    owner: l.owner.clone(),
                });
            }
        }
        let attempt = *self.attempts.entry(shard).or_insert(0);
        let lease = Lease {
            shard,
            epoch: self.epoch,
            owner: owner.to_string(),
            expires_at_ms: now_ms + self.ttl_ms,
            attempt,
        };
        self.leases.insert(shard, lease.clone());
        Ok(lease)
    }

    /// Extends the holder's lease by one TTL — the heartbeat.
    ///
    /// # Errors
    ///
    /// Fenced on a stale epoch; `NotHeld` when the lease expired and was
    /// reclaimed (or was never granted) or the owner does not match.
    pub fn renew(
        &mut self,
        shard: u64,
        owner: &str,
        epoch: u64,
        now_ms: u64,
    ) -> Result<Lease, LeaseError> {
        if epoch < self.epoch {
            return Err(LeaseError::Fenced {
                shard,
                held_epoch: self.epoch,
                offered_epoch: epoch,
            });
        }
        match self.leases.get_mut(&shard) {
            Some(l) if l.owner == owner && l.epoch == epoch => {
                l.expires_at_ms = now_ms + self.ttl_ms;
                Ok(l.clone())
            }
            _ => Err(LeaseError::NotHeld { shard }),
        }
    }

    /// Commits the shard: first-commit-wins. Only the current holder at
    /// the current epoch may commit; everyone else — a deposed primary's
    /// worker, a reclaimed worker finishing late — is fenced off.
    ///
    /// # Errors
    ///
    /// `Done` when someone already committed; `Fenced` on a stale epoch;
    /// `NotHeld` when the lease was reclaimed out from under the caller.
    pub fn complete(&mut self, shard: u64, owner: &str, epoch: u64) -> Result<(), LeaseError> {
        if self.done.contains_key(&shard) {
            return Err(LeaseError::Done { shard });
        }
        if epoch < self.epoch {
            return Err(LeaseError::Fenced {
                shard,
                held_epoch: self.epoch,
                offered_epoch: epoch,
            });
        }
        match self.leases.get(&shard) {
            Some(l) if l.owner == owner && l.epoch == epoch => {
                self.leases.remove(&shard);
                self.done.insert(shard, ());
                Ok(())
            }
            _ => Err(LeaseError::NotHeld { shard }),
        }
    }

    /// Revokes the holder's live lease (an injected reaper-vs-finisher
    /// race, or an explicit abandon), bumping the attempt counter exactly
    /// like an expiry-driven reclaim.
    ///
    /// # Errors
    ///
    /// `NotHeld` when no live lease matches the owner.
    pub fn revoke(&mut self, shard: u64, owner: &str) -> Result<Reclaimed, LeaseError> {
        match self.leases.get(&shard) {
            Some(l) if l.owner == owner => {
                let r = self.reclaim_one(shard);
                Ok(r)
            }
            _ => Err(LeaseError::NotHeld { shard }),
        }
    }

    fn reclaim_one(&mut self, shard: u64) -> Reclaimed {
        let l = self.leases.remove(&shard).expect("caller checked");
        let attempt = l.attempt;
        let next = attempt + 1;
        self.attempts.insert(shard, next);
        let quarantined = next > self.retries;
        if quarantined {
            self.quarantined.insert(shard, ());
        }
        Reclaimed {
            shard,
            owner: l.owner,
            epoch: l.epoch,
            attempt,
            quarantined,
        }
    }

    /// Harvests every expired lease: the reaper's scan. Each reclaimed
    /// shard's attempt counter advances; past the retry budget it comes
    /// back flagged `quarantined` and will never be granted again.
    pub fn reclaim_expired(&mut self, now_ms: u64) -> Vec<Reclaimed> {
        let expired: Vec<u64> = self
            .leases
            .iter()
            .filter(|(_, l)| l.expires_at_ms <= now_ms)
            .map(|(&s, _)| s)
            .collect();
        expired.into_iter().map(|s| self.reclaim_one(s)).collect()
    }

    /// Shards with neither a commit, nor a quarantine, nor a live lease —
    /// what the scheduler should (re)assign.
    pub fn assignable(&self, now_ms: u64) -> Vec<u64> {
        (0..self.total)
            .filter(|s| {
                !self.done.contains_key(s)
                    && !self.quarantined.contains_key(s)
                    && self.leases.get(s).is_none_or(|l| l.expires_at_ms <= now_ms)
            })
            .collect()
    }

    /// The attempt number the shard's next grant would carry.
    pub fn attempt(&self, shard: u64) -> u32 {
        self.attempts.get(&shard).copied().unwrap_or(0)
    }

    /// Quarantined shard numbers, ascending.
    pub fn quarantined(&self) -> Vec<u64> {
        self.quarantined.keys().copied().collect()
    }

    /// Whether the shard committed.
    pub fn is_done(&self, shard: u64) -> bool {
        self.done.contains_key(&shard)
    }

    /// The campaign is settled: every shard either committed or
    /// quarantined. A settled campaign merges and reports instead of
    /// wedging on its poison shards.
    pub fn is_settled(&self) -> bool {
        (self.done.len() + self.quarantined.len()) as u64 >= self.total
    }

    /// Total shard count.
    pub fn total(&self) -> u64 {
        self.total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_renew_complete_happy_path() {
        let mut t = LeaseTable::new(3, 2, 100, 2);
        let l = t.acquire(0, "w0", 1000).unwrap();
        assert_eq!(l.epoch, 3);
        assert_eq!(l.attempt, 0);
        assert_eq!(l.expires_at_ms, 1100);
        // A sibling cannot steal a live lease.
        assert_eq!(
            t.acquire(0, "w1", 1050),
            Err(LeaseError::Held {
                shard: 0,
                owner: "w0".to_string()
            })
        );
        // Heartbeats extend it.
        let l = t.renew(0, "w0", 3, 1080).unwrap();
        assert_eq!(l.expires_at_ms, 1180);
        t.complete(0, "w0", 3).unwrap();
        assert!(t.is_done(0));
        assert!(!t.is_settled());
        t.acquire(1, "w1", 1200).unwrap();
        t.complete(1, "w1", 3).unwrap();
        assert!(t.is_settled());
    }

    #[test]
    fn expiry_reclaim_advances_attempts_then_quarantines() {
        let mut t = LeaseTable::new(1, 1, 50, 1);
        t.acquire(0, "w0", 0).unwrap();
        assert!(t.reclaim_expired(49).is_empty(), "not expired yet");
        let r = t.reclaim_expired(50);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].attempt, 0);
        assert!(!r[0].quarantined);
        // The late finisher is fenced off: first-commit-wins.
        assert_eq!(
            t.complete(0, "w0", 1),
            Err(LeaseError::NotHeld { shard: 0 })
        );
        // Reassign; attempt advances.
        let l = t.acquire(0, "w1", 100).unwrap();
        assert_eq!(l.attempt, 1);
        // Second expiry exhausts the budget (retries = 1): quarantine.
        let r = t.reclaim_expired(200);
        assert!(r[0].quarantined);
        assert_eq!(
            t.acquire(0, "w2", 300),
            Err(LeaseError::Quarantined { shard: 0 })
        );
        assert_eq!(t.quarantined(), vec![0]);
        assert!(t.is_settled(), "quarantine settles the campaign");
    }

    #[test]
    fn stale_epoch_is_fenced_everywhere() {
        let mut t = LeaseTable::new(1, 1, 100, 2);
        t.acquire(0, "w0", 0).unwrap();
        // A new primary takes over: epoch 2. Old leases drop.
        t.bump_epoch(2);
        assert_eq!(
            t.renew(0, "w0", 1, 10),
            Err(LeaseError::Fenced {
                shard: 0,
                held_epoch: 2,
                offered_epoch: 1
            })
        );
        assert_eq!(
            t.complete(0, "w0", 1),
            Err(LeaseError::Fenced {
                shard: 0,
                held_epoch: 2,
                offered_epoch: 1
            })
        );
        // The successor's worker proceeds at the new epoch.
        let l = t.acquire(0, "w5", 20).unwrap();
        assert_eq!(l.epoch, 2);
        t.complete(0, "w5", 2).unwrap();
        // Late duplicate commits are refused.
        assert_eq!(t.complete(0, "w5", 2), Err(LeaseError::Done { shard: 0 }));
    }

    #[test]
    fn revoke_is_an_explicit_reclaim() {
        let mut t = LeaseTable::new(1, 1, 100, 3);
        t.acquire(0, "w0", 0).unwrap();
        let r = t.revoke(0, "w0").unwrap();
        assert_eq!(r.attempt, 0);
        assert!(!r.quarantined);
        assert_eq!(t.revoke(0, "w0"), Err(LeaseError::NotHeld { shard: 0 }));
        assert_eq!(t.attempt(0), 1);
    }

    #[test]
    fn assignable_tracks_the_whole_lifecycle() {
        let mut t = LeaseTable::new(1, 3, 100, 2);
        assert_eq!(t.assignable(0), vec![0, 1, 2]);
        t.acquire(0, "w0", 0).unwrap();
        assert_eq!(t.assignable(10), vec![1, 2]);
        t.complete(0, "w0", 1).unwrap();
        t.acquire(1, "w1", 10).unwrap();
        // Shard 1's lease expires at 110: assignable again.
        assert_eq!(t.assignable(110), vec![1, 2]);
        t.seed_quarantined(2, 3);
        assert_eq!(t.assignable(110), vec![1]);
    }

    #[test]
    fn seeded_resume_state_is_respected() {
        let mut t = LeaseTable::new(4, 3, 100, 2);
        t.seed_done(0);
        t.seed_quarantined(1, 3);
        assert_eq!(t.acquire(0, "w0", 0), Err(LeaseError::Done { shard: 0 }));
        assert_eq!(
            t.acquire(1, "w0", 0),
            Err(LeaseError::Quarantined { shard: 1 })
        );
        t.acquire(2, "w0", 0).unwrap();
        t.complete(2, "w0", 4).unwrap();
        assert!(t.is_settled());
    }
}
