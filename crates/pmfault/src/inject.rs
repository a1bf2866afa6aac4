//! The injector: per-site hit counters over a [`FaultPlan`].

use crate::plan::{FaultKind, FaultPlan, FaultSite, N_SITES};

/// Counts dynamic occurrences of each [`FaultSite`] and reports which fault
/// (if any) fires at each occurrence.
///
/// Counters are held *by value*: cloning an `Injector` forks them. That is
/// deliberate — a cloned `Machine` (e.g. a crash-image replica) continues
/// counting from the clone point independently, which keeps runs
/// deterministic regardless of how consumers fork state.
///
/// For sites where the dynamic occurrence order is nondeterministic (the
/// explore pool, whose workers claim candidate chunks in whatever order
/// they reach the shared cursor), use [`Injector::fires_at`] keyed by a stable
/// index (the candidate index) instead of the stateful [`Injector::fire`].
#[derive(Debug, Clone)]
pub struct Injector {
    plan: FaultPlan,
    hits: [u64; N_SITES],
    injected: Vec<String>,
    obs: pmobs::Obs,
}

impl Injector {
    pub fn new(plan: FaultPlan) -> Injector {
        Injector {
            plan,
            hits: [0; N_SITES],
            injected: Vec::new(),
            obs: pmobs::Obs::default(),
        }
    }

    /// Like [`Injector::new`], but fired faults are also counted into `obs`
    /// as `fault.fired.<site>` / `fault.fired.kind.<slug>`. Clones share the
    /// handle, so counts from forked injectors (e.g. the machine's copy)
    /// aggregate in one registry.
    pub fn with_obs(plan: FaultPlan, obs: pmobs::Obs) -> Injector {
        Injector {
            plan,
            hits: [0; N_SITES],
            injected: Vec::new(),
            obs,
        }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Count one occurrence of `site`; return the fault kind that fires, if
    /// any. At most one fault per occurrence (first planned match wins).
    pub fn fire(&mut self, site: FaultSite) -> Option<FaultKind> {
        let hit = self.hits[site.index()];
        self.hits[site.index()] += 1;
        let fired = self
            .plan
            .faults
            .iter()
            .find(|f| f.site == site && f.trigger.fires(hit))
            .map(|f| f.kind.clone());
        if let Some(kind) = &fired {
            self.obs.add(&format!("fault.fired.{site}"), 1);
            self.obs
                .add(&format!("fault.fired.kind.{}", kind.slug()), 1);
        }
        fired
    }

    /// Stateless check: does a fault fire for occurrence `index` of `site`?
    /// Used where occurrence order is scheduler-dependent but a stable index
    /// exists (explore candidates).
    pub fn fires_at(&self, site: FaultSite, index: u64) -> Option<FaultKind> {
        let fired = self
            .plan
            .faults
            .iter()
            .find(|f| f.site == site && f.trigger.fires(index))
            .map(|f| f.kind.clone());
        if let Some(kind) = &fired {
            self.obs.add(&format!("fault.fired.{site}"), 1);
            self.obs
                .add(&format!("fault.fired.kind.{}", kind.slug()), 1);
        }
        fired
    }

    /// Occurrences counted so far at `site`.
    pub fn hits(&self, site: FaultSite) -> u64 {
        self.hits[site.index()]
    }

    /// Record that a fault was actually injected (a structured one-line
    /// diagnostic). Consumers log here at the moment of injection so the
    /// campaign can assert every fired fault is observable.
    pub fn record(&mut self, what: impl Into<String>) {
        self.injected.push(what.into());
    }

    /// The injection log: one line per fault actually injected.
    pub fn injected(&self) -> &[String] {
        &self.injected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Trigger;

    #[test]
    fn nth_trigger_fires_exactly_once() {
        let plan = FaultPlan::single(
            FaultSite::SimFlush,
            Trigger::Nth(2),
            FaultKind::DroppedFlush,
        );
        let mut inj = Injector::new(plan);
        assert_eq!(inj.fire(FaultSite::SimFlush), None);
        assert_eq!(inj.fire(FaultSite::SimFlush), None);
        assert_eq!(inj.fire(FaultSite::SimFlush), Some(FaultKind::DroppedFlush));
        assert_eq!(inj.fire(FaultSite::SimFlush), None);
        // Other sites are unaffected.
        assert_eq!(inj.fire(FaultSite::SimStore), None);
    }

    #[test]
    fn clone_forks_counters() {
        let plan = FaultPlan::single(FaultSite::SimStore, Trigger::Nth(1), FaultKind::TornStore);
        let mut a = Injector::new(plan);
        assert_eq!(a.fire(FaultSite::SimStore), None);
        let mut b = a.clone();
        // Both forks see occurrence #1 as their next store.
        assert_eq!(a.fire(FaultSite::SimStore), Some(FaultKind::TornStore));
        assert_eq!(b.fire(FaultSite::SimStore), Some(FaultKind::TornStore));
    }

    #[test]
    fn fires_at_is_stateless() {
        let plan = FaultPlan::single(
            FaultSite::ExploreOracle,
            Trigger::Nth(3),
            FaultKind::OraclePanic,
        );
        let inj = Injector::new(plan);
        assert_eq!(inj.fires_at(FaultSite::ExploreOracle, 2), None);
        assert_eq!(
            inj.fires_at(FaultSite::ExploreOracle, 3),
            Some(FaultKind::OraclePanic)
        );
        assert_eq!(
            inj.fires_at(FaultSite::ExploreOracle, 3),
            Some(FaultKind::OraclePanic),
            "stateless: same answer twice"
        );
    }
}
