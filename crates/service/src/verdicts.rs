//! The daemon's one verdict store: the ESC cache ([`Verdicts`]) the last
//! finished search left, under its request's [`store_key`], so a planning
//! miss for the same document under another tenant's name starts from
//! that search's verdicts (DESIGN.md §7, "Warm persistent state").
//!
//! The entry is *lent*: taken out under the lock, adopted and searched on
//! with the lock released, and given back when the search has planned. A
//! job that fails, passes its deadline or panics never gives its loan back,
//! so the entry is gone; a concurrent miss under the same key finds nothing
//! to borrow and plans cold. The store lives in memory only: a restarted
//! daemon, journal replay included, starts empty. Only the worker path
//! reads it; `plan_document` and the controller's `run_scenario` search
//! cold on every call.

use crate::locked;
use klotski_core::migration::MigrationSpec;
use klotski_core::{Prior, Verdicts};
use klotski_npd::api::{npd_digest, PlanRequestOptions};
use klotski_npd::Npd;
use klotski_topology::Fnv1a;
use std::sync::Mutex;

/// The key a request's verdicts are stored under: the digest of its
/// document with the name blanked, mixed with the digest of the options
/// that reach the migration spec — θ, which every cached `pass` was judged
/// against, and the ensemble, whose members every verdict covers. Not α,
/// the planner or the deadline: they steer the search, not its checks.
/// Two documents that differ anywhere but their name key apart, even where
/// the difference (a switch's name, say) routes nothing; that costs a cold
/// plan, never a wrong verdict.
pub(crate) fn store_key(npd: &Npd, options: &PlanRequestOptions) -> u64 {
    let unnamed = Npd {
        name: String::new(),
        ..npd.clone()
    };
    let checked = PlanRequestOptions {
        theta: options.theta,
        ensemble: options.ensemble.clone(),
        ..PlanRequestOptions::default()
    };
    Fnv1a::new()
        .u64(npd_digest(&unnamed))
        .u64(checked.digest())
        .finish()
}

/// One slot: the last finished search's verdicts and their key. A fleet's
/// misses repeat one blueprint under many names; a miss under another key
/// plans cold and its verdicts take the slot.
#[derive(Debug, Default)]
pub(crate) struct VerdictStore {
    slot: Mutex<Option<(u64, Verdicts)>>,
}

impl VerdictStore {
    /// Takes the entry out of the store when it is under `key` and adopts
    /// it for a search of `spec` ([`Verdicts::adopt`]); `None` when the
    /// store is empty, holds another key, or its entry does not fit `spec`.
    pub fn lend(&self, key: u64, spec: &MigrationSpec) -> Option<Prior> {
        let (_, verdicts) = locked(&self.slot).take_if(|(k, _)| *k == key)?;
        verdicts.adopt(spec)
    }

    /// Puts a finished search's verdicts under `key`, in place of whatever
    /// the store holds.
    pub fn give_back(&self, key: u64, verdicts: Verdicts) {
        // The entry replaced is dropped after the lock is released.
        let _replaced = locked(&self.slot).replace((key, verdicts));
    }

    /// The key held, if any.
    #[cfg(test)]
    pub fn held(&self) -> Option<u64> {
        locked(&self.slot).as_ref().map(|(k, _)| *k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{build_instance, plan_instance};
    use klotski_core::planner::SearchBudget;
    use klotski_core::EnsembleSpec;
    use klotski_npd::convert::region_to_npd;
    use klotski_topology::presets::{self, PresetId};

    fn preset_a(name: &str) -> Npd {
        let mut npd = region_to_npd(&presets::config(PresetId::A));
        npd.name = name.into();
        npd
    }

    /// The name is the one field the key ignores; θ, a circuit capacity and
    /// the ensemble seed each key apart, and α, the planner and the
    /// deadline do not.
    #[test]
    fn the_key_ignores_the_name_and_nothing_the_checks_read() {
        let defaults = PlanRequestOptions::default();
        let base = store_key(&preset_a("one"), &defaults);
        assert_eq!(store_key(&preset_a("two"), &defaults), base);
        let steering = PlanRequestOptions {
            alpha: Some(0.5),
            planner: Some("dp".into()),
            deadline_ms: Some(5),
            ..PlanRequestOptions::default()
        };
        assert_eq!(store_key(&preset_a("two"), &steering), base);

        let theta = PlanRequestOptions {
            theta: Some(0.74),
            ..PlanRequestOptions::default()
        };
        let mut capacity = preset_a("one");
        capacity.eb.fauu_eb_gbps *= 1.5;
        let seeded = |seed| PlanRequestOptions {
            ensemble: Some(EnsembleSpec::with_k(4, seed)),
            ..PlanRequestOptions::default()
        };
        let keys = [
            store_key(&preset_a("one"), &theta),
            store_key(&capacity, &defaults),
            store_key(&preset_a("one"), &seeded(7)),
            store_key(&preset_a("one"), &seeded(8)),
        ];
        for (i, k) in keys.iter().enumerate() {
            assert_ne!(*k, base, "case {i}");
            assert!(!keys[..i].contains(k), "case {i}");
        }
    }

    /// One slot: giving back under any key replaces what it held; a loan
    /// under another key leaves it in place, and the entry lent is out.
    #[test]
    fn the_store_holds_one_entry() {
        let npd = preset_a("one");
        let instance = build_instance(&npd, &PlanRequestOptions::default()).unwrap();
        let (_, verdicts) =
            plan_instance(&npd, &instance, (0, 0), SearchBudget::default(), None, None).unwrap();
        let store = VerdictStore::default();
        assert!(store.lend(1, &instance.spec).is_none());
        for key in 0..4 {
            store.give_back(key, verdicts.clone());
            assert_eq!(store.held(), Some(key));
        }
        assert!(store.lend(2, &instance.spec).is_none());
        assert_eq!(store.held(), Some(3));
        assert!(store.lend(3, &instance.spec).is_some());
        assert_eq!(store.held(), None);
        assert!(store.lend(3, &instance.spec).is_none());
    }
}
