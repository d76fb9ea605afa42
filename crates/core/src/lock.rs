//! Locked-blue-provider selection strategies (§4.1, §6.1).
//!
//! When a multi-homed AS must pick the one provider that receives its blue
//! announcement with Lock=1, the paper evaluates two policies: uniformly
//! random (the Figure 1 baseline) and "intelligent" selection at the origin
//! (§6.1, raising coverage from 92% to 97%). Both are deterministic given
//! the experiment seed, so identical scenarios are comparable across
//! protocols and runs.

use stamp_bgp::PrefixId;
use stamp_eventsim::fxhash::FxHashMap;
use stamp_eventsim::rng::splitmix64;
use stamp_topology::AsId;

/// How an AS picks its locked blue provider for a prefix.
#[derive(Debug, Clone)]
pub enum LockStrategy {
    /// Deterministic pseudo-random choice keyed by `(seed, AS, prefix)` —
    /// every AS picks uniformly among its live providers, independently.
    Random { seed: u64 },
    /// Precomputed choices (e.g. the smart origin selection computed by
    /// [`crate::phi::smart_lock_choices`]); ASes without an entry fall back
    /// to the random rule with the given seed.
    Fixed {
        choices: FxHashMap<(AsId, PrefixId), AsId>,
        fallback_seed: u64,
    },
}

impl LockStrategy {
    /// Pick the locked blue provider among `live` (non-empty, sorted)
    /// providers. `current` is the previous choice; it is kept if still
    /// live ("sticky") so route churn does not re-roll the lock.
    pub fn choose(
        &self,
        me: AsId,
        prefix: PrefixId,
        live: &[AsId],
        current: Option<AsId>,
    ) -> Option<AsId> {
        if live.is_empty() {
            return None;
        }
        if let Some(c) = current {
            if live.contains(&c) {
                return Some(c);
            }
        }
        match self {
            LockStrategy::Random { seed } => Some(pick(*seed, me, prefix, live)),
            LockStrategy::Fixed {
                choices,
                fallback_seed,
            } => match choices.get(&(me, prefix)) {
                Some(c) if live.contains(c) => Some(*c),
                _ => Some(pick(*fallback_seed, me, prefix, live)),
            },
        }
    }
}

/// Hash-based uniform pick — stable across runs and platforms.
fn pick(seed: u64, me: AsId, prefix: PrefixId, live: &[AsId]) -> AsId {
    let z = splitmix64(seed ^ (u64::from(me.0) << 32) ^ u64::from(prefix.0));
    live[(z % live.len() as u64) as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: PrefixId = PrefixId(0);

    #[test]
    fn deterministic_choice() {
        let s = LockStrategy::Random { seed: 7 };
        let live = vec![AsId(3), AsId(5), AsId(9)];
        let a = s.choose(AsId(1), P, &live, None);
        let b = s.choose(AsId(1), P, &live, None);
        assert_eq!(a, b);
        assert!(live.contains(&a.unwrap()));
    }

    #[test]
    fn sticky_keeps_live_current() {
        let s = LockStrategy::Random { seed: 7 };
        let live = vec![AsId(3), AsId(5)];
        assert_eq!(s.choose(AsId(1), P, &live, Some(AsId(5))), Some(AsId(5)));
        // Dead current is re-rolled.
        let c = s.choose(AsId(1), P, &live, Some(AsId(9))).unwrap();
        assert!(live.contains(&c));
    }

    #[test]
    fn spreads_across_ases() {
        // Different ASes should not all pick the same index.
        let s = LockStrategy::Random { seed: 42 };
        let live = vec![AsId(100), AsId(200), AsId(300)];
        let mut seen = std::collections::HashSet::new();
        for me in 0..50u32 {
            seen.insert(s.choose(AsId(me), P, &live, None).unwrap());
        }
        assert_eq!(seen.len(), 3, "random choice never picked some provider");
    }

    #[test]
    fn fixed_uses_table_then_falls_back() {
        let mut choices = FxHashMap::default();
        choices.insert((AsId(1), P), AsId(5));
        let s = LockStrategy::Fixed {
            choices,
            fallback_seed: 3,
        };
        let live = vec![AsId(3), AsId(5)];
        assert_eq!(s.choose(AsId(1), P, &live, None), Some(AsId(5)));
        // AS without a table entry still gets a live provider.
        let c = s.choose(AsId(2), P, &live, None).unwrap();
        assert!(live.contains(&c));
        // Table entry that is dead falls back too.
        let live2 = vec![AsId(3)];
        assert_eq!(s.choose(AsId(1), P, &live2, None), Some(AsId(3)));
    }

    #[test]
    fn empty_live_set_yields_none() {
        let s = LockStrategy::Random { seed: 1 };
        assert_eq!(s.choose(AsId(1), P, &[], None), None);
    }
}
