//! Transient-problem accumulation across a convergence window.

use crate::classifier::Classifier;
use crate::trace::Outcome;
use crate::view::{FeedCursor, ForwardingView, SelectionKey, Touched};
use stamp_bgp::types::RootCause;
use stamp_topology::AsId;

/// Exact work counts of one [`TransientTracker`]: functions of the seed
/// and the scenario only, never of the host, so a test can pin them and a
/// slide from O(touched) back to O(world) per observation fails CI where
/// wall time never could.
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
/// destination — for its whole life. The first observation, and any after
/// a restore, is the same routine with every row reported.
#[derive(Debug, Clone)]
pub struct TransientTracker {
    /// Whether each AS counts: it can still reach the destination after
    /// the event (set from the static solver on the surviving topology)
    /// and is not the destination itself.
    counted: Vec<bool>,
    affected: Vec<bool>,
    affected_by_loop: Vec<bool>,
    affected_by_blackhole: Vec<bool>,
    n_affected: usize,
    n_affected_by_loop: usize,
    n_affected_by_blackhole: usize,
    /// Counted ASes looping / blackholing right now.
    now_looping: usize,
    now_blackholed: usize,
    /// Companion control-plane metric ("affected in some ways"): ASes that
    /// adopted a selection invalidated by the event (or emptied their
    /// table) at some observation instant. Empty `causes` disables it.
    causes: Vec<RootCause>,
    /// Pre-event selection keys per AS (adoption = deviation from these);
    /// `None` where the baseline view has no control plane.
    baseline_keys: Vec<Option<SelectionKey>>,
    control_affected: Vec<bool>,
    n_control_affected: usize,
    control_evals: u64,
    /// Total observations in which at least one AS looped.
    pub observations_with_loops: u64,
    /// Total observations in which at least one AS blackholed.
    pub observations_with_blackholes: u64,
    /// Number of observation points recorded.
    pub observations: u64,
    /// Whether the most recent observation saw any loop or blackhole
    /// (harnesses use it to timestamp data-plane recovery).
    pub last_observation_had_problems: bool,
    /// Where this tracker last looked in the view's touched feed.
    cursor: FeedCursor,
    classifier: Classifier,
}

/// Raise `flags[i]`, counting the first time.
#[inline]
fn raise(flags: &mut [bool], i: usize, count: &mut usize) {
    if !flags[i] {
        flags[i] = true;
        *count += 1;
    }
}

impl TransientTracker {
    /// Tracker for `n` ASes towards `dest`; `reachable[v]` must hold the
    /// post-event reachability of each AS.
    pub fn new(dest: AsId, mut reachable: Vec<bool>) -> TransientTracker {
        let n = reachable.len();
        // The destination's own fate is not counted.
        if let Some(d) = reachable.get_mut(dest.index()) {
            *d = false;
        }
        TransientTracker {
            counted: reachable,
            affected: vec![false; n],
            affected_by_loop: vec![false; n],
            affected_by_blackhole: vec![false; n],
            n_affected: 0,
            n_affected_by_loop: 0,
            n_affected_by_blackhole: 0,
            now_looping: 0,
            now_blackholed: 0,
            causes: Vec::new(),
            baseline_keys: vec![None; n],
            control_affected: vec![false; n],
            n_control_affected: 0,
            control_evals: 0,
            observations_with_loops: 0,
            observations_with_blackholes: 0,
            observations: 0,
            last_observation_had_problems: false,
            cursor: FeedCursor::default(),
            classifier: Classifier::default(),
        }
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
            if !self.counted[a] {
                return;
            }
            match old {
                Outcome::Delivered => {}
                Outcome::Loop => self.now_looping -= 1,
                Outcome::Blackhole => self.now_blackholed -= 1,
            }
            match new {
                Outcome::Delivered => {}
                Outcome::Loop => {
                    self.now_looping += 1;
                    raise(&mut self.affected, a, &mut self.n_affected);
                    raise(&mut self.affected_by_loop, a, &mut self.n_affected_by_loop);
                }
                Outcome::Blackhole => {
                    self.now_blackholed += 1;
                    raise(&mut self.affected, a, &mut self.n_affected);
                    raise(
                        &mut self.affected_by_blackhole,
                        a,
                        &mut self.n_affected_by_blackhole,
                    );
                }
            }
        });
        debug_assert_eq!(
            self.classifier.verdicts(),
            crate::trace::classify_all(view),
            "incremental classification drifted from the from-scratch oracle"
        );
        self.observations_with_loops += u64::from(self.now_looping > 0);
        self.observations_with_blackholes += u64::from(self.now_blackholed > 0);
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
        if !self.counted[i] || self.control_affected[i] {
            return;
        }
        self.control_evals += 1;
        let v = AsId::from_usize(i);
        // Key equality is path equality, so an unchanged selection set
        // materialises no path; on a mismatch the set *definitely* changed
        // and the invalidation check below needs only the current paths.
        // A view without a control plane has no key and flags nobody.
        let key = view.selection_key(v);
        if key.is_none() || key == self.baseline_keys[i] {
            return;
        }
        let paths = view.selection_paths(v);
        let all_bad = paths.is_empty()
            || paths.iter().all(|p| {
                // The stored path excludes the holder itself; the first
                // hop's link is (v, path[0]).
                self.causes.iter().any(|c| c.invalidates_with_head(v, p))
            });
        if all_bad {
            raise(&mut self.control_affected, i, &mut self.n_control_affected);
        }
    }

    /// Number of ASes that experienced a transient problem so far.
    pub fn affected_count(&self) -> usize {
        self.n_affected
    }

    /// Number of ASes that experienced a transient loop.
    pub fn loop_count(&self) -> usize {
        self.n_affected_by_loop
    }

    /// Number of ASes that experienced a transient blackhole.
    pub fn blackhole_count(&self) -> usize {
        self.n_affected_by_blackhole
    }

    /// Number of ASes flagged by the control-plane companion metric.
    pub fn control_affected_count(&self) -> usize {
        self.n_control_affected
    }

    /// Per-AS affected flags.
    pub fn affected(&self) -> &[bool] {
        &self.affected
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
    use crate::view::{StaticView, Step};

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
        assert_eq!(t.observations_with_loops, 1);
        assert_eq!(t.observations_with_blackholes, 1);
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
        assert_eq!(t.observations_with_loops, 1);
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
        assert_eq!(t.observations_with_blackholes, 3);
        // First tick: 1, 2, 3, 4. Then {3, 4} twice; 2 is never re-walked
        // again.
        assert_eq!(t.work().states_rewalked, 4 + 2 + 2);
        assert_eq!(t.work().ases_folded, 3 + 2 + 2);
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
