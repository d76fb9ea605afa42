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
    /// Pick the locked blue provider among the `live` providers (in
    /// session order; the caller's iterator, walked as often as needed,
    /// so a router lists them without collecting). `current` is the
    /// previous choice; it is kept if still live ("sticky") so route churn
    /// does not re-roll the lock. `None` iff `live` is empty.
    pub fn choose(
        &self,
        me: AsId,
        prefix: PrefixId,
        live: impl Iterator<Item = AsId> + Clone,
        current: Option<AsId>,
    ) -> Option<AsId> {
        let is_live = |c: AsId| live.clone().any(|p| p == c);
        if let Some(c) = current.filter(|&c| is_live(c)) {
            return Some(c);
        }
        match self {
            LockStrategy::Random { seed } => pick(*seed, me, prefix, live),
            LockStrategy::Fixed {
                choices,
                fallback_seed,
            } => match choices.get(&(me, prefix)) {
                Some(&c) if is_live(c) => Some(c),
                _ => pick(*fallback_seed, me, prefix, live),
            },
        }
    }
}

/// Hash-based uniform pick — stable across runs and platforms; `None`
/// only from an empty `live`.
fn pick(
    seed: u64,
    me: AsId,
    prefix: PrefixId,
    mut live: impl Iterator<Item = AsId> + Clone,
) -> Option<AsId> {
    let n = live.clone().count() as u64;
    let z = splitmix64(seed ^ (u64::from(me.0) << 32) ^ u64::from(prefix.0));
    live.nth(z.checked_rem(n)? as usize)
}

#[cfg(test)]
mod tests {
    use super::*;

    const P: PrefixId = PrefixId(0);

    #[test]
    fn deterministic_choice() {
        let s = LockStrategy::Random { seed: 7 };
        let live = [AsId(3), AsId(5), AsId(9)];
        let a = s.choose(AsId(1), P, live.iter().copied(), None);
        let b = s.choose(AsId(1), P, live.iter().copied(), None);
        assert_eq!(a, b);
        assert!(live.contains(&a.unwrap()));
    }

    #[test]
    fn sticky_keeps_live_current() {
        let s = LockStrategy::Random { seed: 7 };
        let live = [AsId(3), AsId(5)];
        assert_eq!(
            s.choose(AsId(1), P, live.iter().copied(), Some(AsId(5))),
            Some(AsId(5))
        );
        // Dead current is re-rolled.
        let c = s
            .choose(AsId(1), P, live.iter().copied(), Some(AsId(9)))
            .unwrap();
        assert!(live.contains(&c));
    }

    #[test]
    fn spreads_across_ases() {
        // Different ASes should not all pick the same index.
        let s = LockStrategy::Random { seed: 42 };
        let live = [AsId(100), AsId(200), AsId(300)];
        let mut seen = std::collections::HashSet::new();
        for me in 0..50u32 {
            seen.insert(s.choose(AsId(me), P, live.iter().copied(), None).unwrap());
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
        let live = [AsId(3), AsId(5)];
        assert_eq!(
            s.choose(AsId(1), P, live.iter().copied(), None),
            Some(AsId(5))
        );
        // AS without a table entry still gets a live provider.
        let c = s.choose(AsId(2), P, live.iter().copied(), None).unwrap();
        assert!(live.contains(&c));
        // Table entry that is dead falls back too.
        let live2 = [AsId(3)];
        assert_eq!(
            s.choose(AsId(1), P, live2.iter().copied(), None),
            Some(AsId(3))
        );
    }

    /// The pick is the provider at the hashed index of the live list, in
    /// the order the iterator yields it.
    #[test]
    fn the_pick_indexes_the_live_list_in_order() {
        let live: Vec<AsId> = (10..17).map(AsId).collect();
        for me in 0..40u32 {
            let z = splitmix64(9 ^ (u64::from(me) << 32) ^ u64::from(P.0));
            let want = live[(z % live.len() as u64) as usize];
            let s = LockStrategy::Random { seed: 9 };
            assert_eq!(
                s.choose(AsId(me), P, live.iter().copied(), None),
                Some(want)
            );
        }
    }

    #[test]
    fn empty_live_set_yields_none() {
        let s = LockStrategy::Random { seed: 1 };
        assert_eq!(s.choose(AsId(1), P, std::iter::empty(), None), None);
    }
}
