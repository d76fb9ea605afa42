//! Transient-problem accumulation across a convergence window.

use crate::classifier::{Classification, Classifier};
use crate::trace::Outcome;
use crate::view::{FeedCursor, ForwardingView, SelectionKey, Touched};
use stamp_bgp::types::RootCause;
use stamp_topology::AsId;

/// Exact work counts of one [`TransientTracker`]: functions of the seed
/// and the scenario only, never of the host, so a test can pin them and a
/// slide from O(touched) back to O(world) per observation fails CI where
/// wall time never could. They count what the tracker observes after its
/// baseline: classifying the baseline itself
/// ([`TransientTracker::seeded`]) is not observing, as converging is not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObserverWork {
    /// Observation points recorded.
    pub observations: u64,
    /// Forwarding rows asked of the view again (one per reported AS).
    pub rows_recompiled: u64,
    /// `(AS, ctx)` states whose outcome was recomputed (the reverse cone
    /// of the states whose successor changed).
    pub states_rewalked: u64,
    /// ASes whose loop/blackhole/delivered verdict moved.
    pub ases_folded: u64,
    /// Selection sets compared against the control-metric baseline.
    pub control_evals: u64,
}

impl std::ops::AddAssign for ObserverWork {
    fn add_assign(&mut self, w: ObserverWork) {
        self.observations += w.observations;
        self.rows_recompiled += w.rows_recompiled;
        self.states_rewalked += w.states_rewalked;
        self.ases_folded += w.ases_folded;
        self.control_evals += w.control_evals;
    }
}

/// Per-AS flags raised once and never lowered, with their count.
#[derive(Debug, Clone)]
struct Flags {
    set: Vec<bool>,
    n: usize,
}

impl Flags {
    fn new(n: usize) -> Flags {
        Flags {
            set: vec![false; n],
            n: 0,
        }
    }

    fn get(&self, i: usize) -> bool {
        self.set.get(i).copied().unwrap_or(false)
    }

    /// Raise flag `i`, counting the first time.
    #[inline]
    fn raise(&mut self, i: usize) {
        if let Some(f @ false) = self.set.get_mut(i) {
            *f = true;
            self.n += 1;
        }
    }
}

/// Who has had a forwarding problem, and of which kind.
#[derive(Debug, Clone)]
struct Affected {
    any: Flags,
    by_loop: Flags,
    by_blackhole: Flags,
}

impl Affected {
    /// AS `a`'s packets loop or blackhole (`o`) at this observation.
    #[inline]
    fn hurt(&mut self, a: usize, o: Outcome) {
        match o {
            Outcome::Delivered => return,
            Outcome::Loop => self.by_loop.raise(a),
            Outcome::Blackhole => self.by_blackhole.raise(a),
        }
        self.any.raise(a);
    }
}

/// Accumulates "ASes with transient problems" over the observation points
/// of one convergence episode, per the paper's metric (Figures 2/3):
/// an AS is affected if at any instant its traffic loops or blackholes
/// *while the post-event topology still offers it a valley-free path*.
///
/// One observation costs what changed since the last one: the tracker
/// keeps a place in the view's touched feed
/// ([`ForwardingView::touched_since`]) and a persistent classification,
/// and re-examines only the reported rows and the states that reach a
/// changed one. It therefore belongs to one view lineage — one engine and
/// destination — for its whole life. A tracker made by
/// [`TransientTracker::new`] starts from nothing, so its first
/// observation (and any after a restore) is the same routine with every
/// row reported; one made by [`TransientTracker::seeded`] starts from its
/// baseline's classification and place in the feed.
#[derive(Debug, Clone)]
pub struct TransientTracker {
    /// Whether each AS counts: it can still reach the destination after
    /// the event (set from the static solver on the surviving topology)
    /// and is not the destination itself.
    counted: Vec<bool>,
    affected: Affected,
    /// Counted ASes looping / blackholing right now.
    now_looping: usize,
    now_blackholed: usize,
    /// Counted ASes a seeded tracker found looping or blackholed at its
    /// baseline. Accounting starts from an all-delivered prior, as an
    /// unseeded tracker's does, so the first observation counts them
    /// (as whatever they are by then), not the seeding.
    unfolded: Vec<usize>,
    /// Companion control-plane metric ("affected in some ways"): ASes that
    /// adopted a selection invalidated by the event (or emptied their
    /// table) at some observation instant. Empty `causes` disables it.
    causes: Vec<RootCause>,
    /// Pre-event selection keys per AS (adoption = deviation from these);
    /// `None` where the baseline view has no control plane.
    baseline_keys: Vec<Option<SelectionKey>>,
    control_affected: Flags,
    control_evals: u64,
    /// Number of observation points recorded.
    pub observations: u64,
    /// Whether the most recent observation saw any loop or blackhole
    /// (harnesses use it to timestamp data-plane recovery).
    pub last_observation_had_problems: bool,
    /// Where this tracker last looked in the view's touched feed.
    cursor: FeedCursor,
    classifier: Classifier,
}

impl TransientTracker {
    /// Tracker for `n` ASes towards `dest`; `reachable[v]` must hold the
    /// post-event reachability of each AS. Its first observation
    /// classifies every row.
    pub fn new(dest: AsId, mut reachable: Vec<bool>) -> TransientTracker {
        let n = reachable.len();
        // The destination's own fate is not counted.
        if let Some(d) = reachable.get_mut(dest.index()) {
            *d = false;
        }
        TransientTracker {
            counted: reachable,
            affected: Affected {
                any: Flags::new(n),
                by_loop: Flags::new(n),
                by_blackhole: Flags::new(n),
            },
            now_looping: 0,
            now_blackholed: 0,
            unfolded: Vec::new(),
            causes: Vec::new(),
            baseline_keys: vec![None; n],
            control_affected: Flags::new(n),
            control_evals: 0,
            observations: 0,
            last_observation_had_problems: false,
            cursor: FeedCursor::default(),
            classifier: Classifier::default(),
        }
    }

    /// Tracker that starts at a baseline: `view` is the pre-event state and
    /// `baseline` its classification ([`Classification::of`] — computed
    /// once per converged baseline; every fork's tracker takes a copy of
    /// its classifier).
    /// `causes` enables the control-plane companion metric against the
    /// baseline's selections (empty = off), as
    /// [`TransientTracker::with_control_metric`] does for an unseeded one.
    ///
    /// It takes its place in the view's touched feed now, so its first
    /// observation re-examines only the rows touched since, and that
    /// observation accounts exactly as an unseeded tracker's first one
    /// does: an AS already looping or blackholed at the baseline is
    /// counted then, if it still is.
    pub fn seeded<V: ForwardingView + ?Sized>(
        dest: AsId,
        reachable: Vec<bool>,
        baseline: &Classification,
        view: &V,
        causes: Vec<RootCause>,
    ) -> TransientTracker {
        let mut t = TransientTracker::new(dest, reachable);
        t.classifier.clone_from(&baseline.classifier);
        view.touched_since(&mut t.cursor);
        debug_assert_eq!(
            t.classifier.verdicts(),
            crate::trace::classify_all(view),
            "the baseline classification is not this view's (a stale memo?)"
        );
        debug_assert!(
            *baseline == Classification::of(view),
            "the baseline classification is not this view's (a stale memo?)"
        );
        t.baseline_keys.clone_from(&baseline.keys);
        t.causes = causes;
        for (a, &o) in baseline.verdicts().iter().enumerate() {
            let now = match o {
                Outcome::Delivered => continue,
                Outcome::Loop => &mut t.now_looping,
                Outcome::Blackhole => &mut t.now_blackholed,
            };
            if t.counted.get(a) == Some(&true) {
                *now += 1;
                t.unfolded.push(a);
            }
        }
        t
    }

    /// Enable the control-plane companion metric: `causes` identifies the
    /// event, `baseline_view` is sampled *before* injection so only
    /// post-event adoptions count.
    pub fn with_control_metric<V: ForwardingView + ?Sized>(
        &mut self,
        causes: Vec<RootCause>,
        baseline_view: &V,
    ) {
        for (i, key) in self.baseline_keys.iter_mut().enumerate() {
            *key = baseline_view.selection_key(AsId::from_usize(i));
        }
        self.causes = causes;
    }

    /// Record one observation point (typically: after every batch of
    /// simultaneous events that changed a FIB).
    // simlint::hot
    pub fn observe<V: ForwardingView + ?Sized>(&mut self, view: &V) {
        self.observations += 1;
        let n = self.counted.len();
        assert_eq!(view.n(), n, "the tracker was sized for another topology");
        if self.classifier.ensure_shape(n, usize::from(view.n_ctx())) {
            self.cursor = FeedCursor::default();
            (self.now_looping, self.now_blackholed) = (0, 0);
        }
        match view.touched_since(&mut self.cursor) {
            Touched::All => {
                for a in 0..n {
                    self.reexamine(view, a);
                }
            }
            Touched::Rows(older, newer) => {
                for v in older.iter().chain(newer) {
                    self.reexamine(view, v.index());
                }
            }
        }
        self.classifier.settle(|a, old, new| {
            if self.counted.get(a) != Some(&true) {
                return;
            }
            match old {
                Outcome::Delivered => {}
                Outcome::Loop => self.now_looping -= 1,
                Outcome::Blackhole => self.now_blackholed -= 1,
            }
            match new {
                Outcome::Delivered => {}
                Outcome::Loop => self.now_looping += 1,
                Outcome::Blackhole => self.now_blackholed += 1,
            }
            self.affected.hurt(a, new);
        });
        // What the baseline left broken counts now, as it would have from
        // an all-delivered prior.
        for a in self.unfolded.drain(..) {
            let now = self.classifier.verdicts().get(a).copied();
            self.affected.hurt(a, now.unwrap_or(Outcome::Delivered));
        }
        debug_assert_eq!(
            self.classifier.verdicts(),
            crate::trace::classify_all(view),
            "incremental classification drifted from the from-scratch oracle"
        );
        self.last_observation_had_problems = self.now_looping + self.now_blackholed > 0;
    }

    /// AS `a` was reported touched: its forwarding row and its selection
    /// may both have changed.
    #[inline]
    fn reexamine<V: ForwardingView + ?Sized>(&mut self, view: &V, a: usize) {
        self.classifier.recompile(view, a);
        if !self.causes.is_empty() {
            self.observe_control(view, a);
        }
    }

    /// Control-plane check of one AS: it is "affected in some ways" when
    /// its selection set changed from the pre-event baseline and every
    /// selected path is invalidated by the event (or the set is empty).
    /// An AS that was not reported touched holds the selection it held at
    /// the last observation, whose verdict (not affected) still stands —
    /// causes and reachability are fixed for the tracker's lifetime.
    fn observe_control<V: ForwardingView + ?Sized>(&mut self, view: &V, i: usize) {
        if self.counted.get(i) != Some(&true) || self.control_affected.get(i) {
            return;
        }
        self.control_evals += 1;
        let v = AsId::from_usize(i);
        // Key equality is path equality, so an unchanged selection set
        // walks no path; on a mismatch the set *definitely* changed and the
        // invalidation check below needs only the current paths.
        // A view without a control plane has no key and flags nobody.
        let key = view.selection_key(v);
        if key.is_none() || self.baseline_keys.get(i) == Some(&key) {
            return;
        }
        if view.selections_invalidated(v, &self.causes) {
            self.control_affected.raise(i);
        }
    }

    /// Number of ASes that experienced a transient problem so far.
    pub fn affected_count(&self) -> usize {
        self.affected.any.n
    }

    /// Number of ASes that experienced a transient loop.
    pub fn loop_count(&self) -> usize {
        self.affected.by_loop.n
    }

    /// Number of ASes that experienced a transient blackhole.
    pub fn blackhole_count(&self) -> usize {
        self.affected.by_blackhole.n
    }

    /// Number of ASes flagged by the control-plane companion metric.
    pub fn control_affected_count(&self) -> usize {
        self.control_affected.n
    }

    /// Per-AS affected flags.
    pub fn affected(&self) -> &[bool] {
        &self.affected.any.set
    }

    /// Where each AS's traffic ends up as of the latest observation
    /// (index = AS id; the destination and unreachable ASes included).
    pub fn outcomes(&self) -> &[Outcome] {
        self.classifier.verdicts()
    }

    /// What observing has cost so far, in exact counts.
    pub fn work(&self) -> ObserverWork {
        ObserverWork {
            observations: self.observations,
            rows_recompiled: self.classifier.rows_recompiled,
            states_rewalked: self.classifier.states_rewalked,
            ases_folded: self.classifier.ases_folded,
            control_evals: self.control_evals,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::classify_all;
    use crate::view::{StaticView, Step, Touched};

    fn v(next: Vec<Option<u32>>, origin: u32) -> StaticView {
        StaticView {
            next: next.into_iter().map(|o| o.map(AsId)).collect(),
            origin: AsId(origin),
        }
    }

    #[test]
    fn accumulates_across_observations() {
        let mut t = TransientTracker::new(AsId(0), vec![true; 4]);
        // First instant: 3 blackholes, others fine.
        t.observe(&v(vec![None, Some(0), Some(1), None], 0));
        assert_eq!(t.affected_count(), 1);
        // Second instant: 3 recovered, 2 loops with 1.
        t.observe(&v(vec![None, Some(2), Some(1), Some(2)], 0));
        // 1 and 2 loop; 3 feeds the loop. All three affected now.
        assert_eq!(t.affected_count(), 3);
        // Recovery does not un-affect anyone.
        t.observe(&v(vec![None, Some(0), Some(1), Some(2)], 0));
        assert_eq!(t.affected_count(), 3);
        assert_eq!(t.observations, 3);
    }

    #[test]
    fn unreachable_ases_do_not_count() {
        // AS 2 permanently partitioned: its blackhole is not transient.
        let mut t = TransientTracker::new(AsId(0), vec![true, true, false]);
        t.observe(&v(vec![None, Some(0), None], 0));
        assert_eq!(t.affected_count(), 0);
    }

    #[test]
    fn destination_not_counted() {
        let mut t = TransientTracker::new(AsId(0), vec![true, true]);
        // Origin "blackholes" by definition in a malformed view; must not
        // count.
        t.observe(&v(vec![None, Some(0)], 0));
        assert_eq!(t.affected_count(), 0);
    }

    /// Observe a sequence of tables with one tracker; after each, its
    /// per-AS outcomes must be the from-scratch classification of that
    /// table. Returns the tracker for the caller's own assertions.
    fn replay(tables: &[Vec<Option<u32>>]) -> TransientTracker {
        let mut t = TransientTracker::new(AsId(0), vec![true; tables[0].len()]);
        for (i, next) in tables.iter().enumerate() {
            let view = v(next.clone(), 0);
            t.observe(&view);
            assert_eq!(t.outcomes(), classify_all(&view), "table {i}");
        }
        t
    }

    #[test]
    fn a_cycle_forms_and_breaks_between_ticks() {
        use Outcome::{Delivered, Loop};
        // 5 -> 4 -> 3 -> 2 -> 1 -> 0, then 2 turns back to 4: 2,3,4 cycle
        // and 5 feeds it while 1 still delivers; then 3 escapes to 1 and
        // the whole cycle, feeder included, delivers again.
        let chain = vec![None, Some(0), Some(1), Some(2), Some(3), Some(4)];
        let mut cycle = chain.clone();
        cycle[2] = Some(4);
        let mut broken = cycle.clone();
        broken[3] = Some(1);
        let t = replay(&[chain, cycle.clone(), broken.clone()]);
        assert_eq!(t.outcomes(), [Delivered; 6]);
        assert_eq!((t.affected_count(), t.loop_count()), (4, 4));
        assert!(!t.last_observation_had_problems);
        // Only the state that turned and what reaches it is re-walked:
        // 1..=5 on the all-dirty first tick (0 delivers, as a fresh
        // classifier assumes), {2,3,4,5} when the cycle forms and again
        // when it breaks.
        assert_eq!(t.work().states_rewalked, 5 + 4 + 4);
        let t = replay(&[cycle]);
        assert_eq!(t.outcomes(), [Delivered, Delivered, Loop, Loop, Loop, Loop]);
        assert!(t.last_observation_had_problems);
    }

    #[test]
    fn a_feeder_re_homes_without_disturbing_either_branch() {
        // Two branches: 1 -> 0 delivers, 2 -> (drop) blackholes; 3 feeds
        // the dead branch, then re-homes onto the live one, then back.
        let dead = vec![None, Some(0), None, Some(2), Some(3)];
        let mut live = dead.clone();
        live[3] = Some(1);
        let t = replay(&[dead.clone(), live, dead]);
        assert_eq!((t.affected_count(), t.blackhole_count()), (3, 3));
        // First tick: 1, 2, 3, 4. Then {3, 4} twice; 2 is never re-walked
        // again.
        assert_eq!(t.work().states_rewalked, 4 + 2 + 2);
        assert_eq!(t.work().ases_folded, 3 + 2 + 2);
    }

    /// A tracker seeded at a baseline that already blackholes and loops
    /// accounts like one that never saw it: of the ASes the baseline left
    /// broken, the first tick counts those still broken (as what they are
    /// then: 4 looped at the baseline and blackholes now) and not those
    /// repaired by then (1).
    #[test]
    fn a_seeded_tracker_counts_what_its_first_tick_still_sees_broken() {
        use Outcome::{Blackhole, Delivered, Loop};
        let base = v(vec![None, None, Some(0), None, Some(5), Some(4)], 0);
        let ticks = [
            vec![None, Some(0), Some(0), None, Some(5), None],
            vec![None, Some(0), Some(0), Some(2), Some(5), Some(0)],
        ];
        let baseline = Classification::of(&base);
        assert_eq!(
            baseline.verdicts(),
            [Delivered, Blackhole, Delivered, Blackhole, Loop, Loop]
        );
        for reachable in [vec![true; 6], vec![true, true, true, false, true, true]] {
            let mut cold = TransientTracker::new(AsId(0), reachable.clone());
            let mut warm = TransientTracker::seeded(AsId(0), reachable, &baseline, &base, vec![]);
            for next in &ticks {
                let view = v(next.clone(), 0);
                cold.observe(&view);
                warm.observe(&view);
                assert_eq!(warm.outcomes(), cold.outcomes());
                assert_eq!(warm.affected(), cold.affected());
                assert_eq!(
                    (warm.loop_count(), warm.blackhole_count()),
                    (cold.loop_count(), cold.blackhole_count())
                );
                assert_eq!(
                    warm.last_observation_had_problems,
                    cold.last_observation_had_problems
                );
            }
            let counted_3 = cold.affected()[3];
            assert_eq!(cold.affected_count(), 2 + usize::from(counted_3));
            assert_eq!(cold.loop_count(), 0);
        }
    }

    /// A static table whose touched feed reports nothing: the view of a
    /// baseline no event has changed yet.
    struct Untouched(StaticView);

    impl ForwardingView for Untouched {
        fn n(&self) -> usize {
            self.0.n()
        }
        fn n_ctx(&self) -> u8 {
            self.0.n_ctx()
        }
        fn start_ctx(&self, src: AsId) -> u8 {
            self.0.start_ctx(src)
        }
        fn step(&self, at: AsId, ctx: u8) -> Step {
            self.0.step(at, ctx)
        }
        fn selection_paths(&self, v: AsId) -> Vec<Vec<AsId>> {
            self.0.selection_paths(v)
        }
        fn touched_since(&self, _cursor: &mut FeedCursor) -> Touched<'_> {
            Touched::Rows(&[], &[])
        }
    }

    /// Seeding copies the baseline's classifier and no work: the tracker
    /// counts from zero, and a first tick on which nothing was touched
    /// asks the view for no row — yet still counts what the baseline left
    /// broken.
    #[test]
    fn a_seeded_tracker_starts_from_a_copy_of_the_memo_and_counts_from_zero() {
        let base = Untouched(v(vec![None, Some(0), Some(1), None], 0));
        let baseline = Classification::of(&base);
        let mut t = TransientTracker::seeded(AsId(0), vec![true; 4], &baseline, &base, vec![]);
        assert_eq!(t.classifier, baseline.classifier);
        assert_eq!(t.work(), ObserverWork::default());
        t.observe(&base);
        let work = t.work();
        assert_eq!((work.observations, work.rows_recompiled), (1, 0));
        assert_eq!(work.states_rewalked, 0);
        assert_eq!(t.outcomes(), classify_all(&base));
        assert_eq!((t.affected_count(), t.blackhole_count()), (1, 1));
    }

    /// Two packet contexts per AS: context 0 forwards along `next`,
    /// context 1 is dropped everywhere but the origin.
    struct TwoCtx {
        next: Vec<Option<AsId>>,
        start: Vec<u8>,
    }

    impl ForwardingView for TwoCtx {
        fn n(&self) -> usize {
            self.next.len()
        }
        fn n_ctx(&self) -> u8 {
            2
        }
        fn start_ctx(&self, src: AsId) -> u8 {
            self.start[src.index()]
        }
        fn step(&self, at: AsId, ctx: u8) -> Step {
            match (at.index(), ctx, self.next[at.index()]) {
                (0, _, _) => Step::Deliver,
                (_, 0, Some(to)) => Step::Hop { to, ctx: 0 },
                _ => Step::Drop,
            }
        }
        fn selection_paths(&self, _v: AsId) -> Vec<Vec<AsId>> {
            Vec::new()
        }
    }

    #[test]
    fn a_start_context_alone_moves_the_verdict() {
        let mut view = TwoCtx {
            next: vec![None, Some(AsId(0)), Some(AsId(1))],
            start: vec![0, 0, 0],
        };
        let mut t = TransientTracker::new(AsId(0), vec![true; 3]);
        t.observe(&view);
        assert_eq!(t.outcomes(), classify_all(&view));
        assert_eq!(t.affected_count(), 0);
        let walked = t.work().states_rewalked;
        // No successor changes; AS 2 merely starts its packets in the
        // dropped context.
        view.start[2] = 1;
        t.observe(&view);
        assert_eq!(t.outcomes(), classify_all(&view));
        assert_eq!(t.outcomes()[2], Outcome::Blackhole);
        assert_eq!((t.affected_count(), t.blackhole_count()), (1, 1));
        assert_eq!(t.work().states_rewalked, walked, "nothing to re-walk");
        view.start[2] = 0;
        t.observe(&view);
        assert_eq!(t.outcomes(), classify_all(&view));
        assert!(!t.last_observation_had_problems);
    }
}
