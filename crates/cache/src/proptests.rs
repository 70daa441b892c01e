//! Property-based tests on cache invariants, run against every policy.

use crate::policy::{ReplacementPolicy, UtilityOracle, UtilityRank};
use crate::{BufferPool, Lru, LruK, Slru, Urc};
use proptest::prelude::*;
use std::collections::HashSet;

fn policies() -> Vec<Box<dyn ReplacementPolicy<u32>>> {
    vec![
        Box::new(Lru::new()),
        Box::new(LruK::new()),
        Box::new(LruK::with_k(3)),
        Box::new(Slru::new(2)),
        Box::new(Urc::new()),
    ]
}

/// A deterministic oracle deriving a rank from the key itself, so URC gets
/// exercised with non-trivial (but reproducible) rankings.
struct KeyOracle;

impl UtilityOracle<u32> for KeyOracle {
    fn rank(&self, key: &u32) -> UtilityRank {
        UtilityRank {
            timestep_mean: (key % 7) as f64,
            atom_utility: (key % 13) as f64,
        }
    }
}

proptest! {
    /// Residency never exceeds capacity; hits+misses equals accesses; a key
    /// reported evicted really is gone, for every policy.
    #[test]
    fn pool_invariants_hold_for_every_policy(
        capacity in 1usize..12,
        accesses in proptest::collection::vec(0u32..32, 1..300),
        run_every in 5usize..40,
    ) {
        for policy in policies() {
            let name = policy.name();
            let mut pool: BufferPool<u32, u32> = BufferPool::new(capacity, policy);
            let mut shadow: HashSet<u32> = HashSet::new();
            for (i, &k) in accesses.iter().enumerate() {
                let was_resident = pool.contains(&k);
                prop_assert_eq!(was_resident, shadow.contains(&k),
                    "{}: residency model diverged at step {}", name, i);
                let outcome = pool.access_with(k, || k, &KeyOracle);
                prop_assert_eq!(outcome.is_hit(), was_resident, "{}", name);
                if let crate::AccessOutcome::Miss { evicted } = outcome {
                    shadow.insert(k);
                    if let Some(v) = evicted {
                        prop_assert!(shadow.remove(&v),
                            "{}: evicted non-resident {}", name, v);
                        prop_assert!(!pool.contains(&v), "{}", name);
                    }
                }
                prop_assert!(pool.len() <= capacity, "{}: over capacity", name);
                prop_assert_eq!(pool.len(), shadow.len(), "{}", name);
                if (i + 1) % run_every == 0 {
                    pool.end_run();
                }
            }
            let s = pool.stats();
            prop_assert_eq!(s.accesses(), accesses.len() as u64, "{}", name);
        }
    }

    /// Accessed key is always resident afterwards, for every policy.
    #[test]
    fn accessed_key_is_resident(
        capacity in 1usize..8,
        accesses in proptest::collection::vec(0u32..16, 1..120),
    ) {
        for policy in policies() {
            let name = policy.name();
            let mut pool: BufferPool<u32, ()> = BufferPool::new(capacity, policy);
            for &k in &accesses {
                pool.access_with(k, || (), &KeyOracle);
                prop_assert!(pool.contains(&k), "{}: key {} not resident", name, k);
            }
        }
    }

    /// With capacity >= distinct keys, nothing is ever evicted and every
    /// re-access hits.
    #[test]
    fn no_eviction_when_everything_fits(
        accesses in proptest::collection::vec(0u32..10, 1..100),
    ) {
        for policy in policies() {
            let name = policy.name();
            let mut pool: BufferPool<u32, ()> = BufferPool::new(10, policy);
            for &k in &accesses {
                pool.access_with(k, || (), &KeyOracle);
            }
            prop_assert_eq!(pool.stats().evictions, 0, "{}", name);
            let distinct = accesses.iter().collect::<HashSet<_>>().len() as u64;
            prop_assert_eq!(pool.stats().misses, distinct, "{}", name);
        }
    }
}
