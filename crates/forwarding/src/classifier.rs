//! The incremental classifier: a loop/blackhole verdict per AS, kept up to
//! date from the rows that changed instead of recomputed from the world.
//!
//! It holds the view's functional graph *compiled* — one successor per
//! `(AS, ctx)` state — plus the reverse edges as intrusive doubly linked
//! lists, and the outcome of every state. One update is:
//!
//! 1. [`Classifier::recompile`] each row the feed reported: ask the view
//!    for the row again and diff it against the stored one. A state whose
//!    successor really changed is relinked (O(1)) and becomes a *seed*.
//! 2. [`Classifier::settle`]: collect the reverse cone of the seeds — every
//!    state that reaches one — re-walk exactly those states with the usual
//!    on-path marking, and report each AS whose start-state outcome moved.
//!
//! Why the cone is enough: a state's outcome is a function of its forward
//! path. A state outside the cone reaches no seed, so no state on its path
//! changed successor and its stored outcome stands — which is what lets a
//! re-walk stop at the first stored outcome it meets. And a cycle that
//! passes through a cone state lies wholly inside the cone (every state on
//! it reaches that one), so a re-walk sees the whole cycle unmarked and
//! detects it exactly as a from-scratch walk would.
//!
//! A new classifier holds the graph in which every state delivers; the
//! first update, with every row reported, is the same routine as every
//! later one. That update, run once on a baseline, is a
//! [`Classification`]: the settled classifier itself, which a tracker
//! copies instead of classifying the baseline again.

use crate::trace::Outcome;
use crate::view::{ForwardingView, SelectionKey, Step};
use stamp_topology::AsId;

/// Compiled-successor sentinel: the state delivers.
const DELIVER: u32 = u32::MAX;
/// Compiled-successor sentinel: the state drops. Real states are below it.
const DROP: u32 = u32::MAX - 1;
/// End of a predecessor list.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mark {
    /// In the cone being settled, not yet re-walked.
    Unknown,
    OnPath,
    Done(Outcome),
}

/// The classification of one forwarding state, detached from its view:
/// the classifier that settled it — compiled successors, reverse edges,
/// the outcome of every `(AS, ctx)` state, the start context and verdict
/// of every AS — and every AS's selection key (the control metric's
/// baseline).
///
/// A converged baseline's classification belongs to the baseline, not to
/// a fork of it: under safe policy the stable state is unique, and every
/// fork rewinds to the same one. So it can be computed once and copied
/// into every fork's tracker ([`crate::TransientTracker::seeded`]), whose
/// first observation then costs what the event touched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Classification {
    pub(crate) classifier: Classifier,
    pub(crate) keys: Vec<Option<SelectionKey>>,
}

impl Classification {
    /// Classify `view` from scratch: a new classifier's first update, with
    /// every row reported — the routine an unseeded tracker's first
    /// observation runs.
    pub fn of<V: ForwardingView + ?Sized>(view: &V) -> Classification {
        let n = view.n();
        let mut c = Classifier::default();
        c.ensure_shape(n, usize::from(view.n_ctx()));
        for a in 0..n {
            c.recompile(view, a);
        }
        c.settle(|_, _, _| {});
        Classification {
            // Classifying a baseline is not observing it: a copy counts
            // from zero, and grows its own queues as its observations need.
            classifier: Classifier {
                cone: Vec::new(),
                restarted: Vec::new(),
                path: Vec::new(),
                rows_recompiled: 0,
                states_rewalked: 0,
                ases_folded: 0,
                ..c
            },
            keys: (0..n)
                .map(|a| view.selection_key(AsId::from_usize(a)))
                .collect(),
        }
    }

    /// The verdict per AS (index = AS id).
    pub fn verdicts(&self) -> &[Outcome] {
        self.classifier.verdicts()
    }
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct Classifier {
    n_ctx: usize,
    /// Successor of each state (`DELIVER`/`DROP`, otherwise a state index).
    succ: Vec<u32>,
    /// Start context per AS.
    starts: Vec<u8>,
    /// Outcome of each state; all `Done` between updates.
    marks: Vec<Mark>,
    /// Reverse edges: `pred_head[q]` is one state whose successor is `q`,
    /// `pred_next`/`pred_prev` chain the others.
    pred_head: Vec<u32>,
    pred_next: Vec<u32>,
    pred_prev: Vec<u32>,
    /// Outcome of each AS's start state, as last reported.
    verdict: Vec<Outcome>,
    /// Seeds, then the whole cone (the breadth-first queue in place).
    cone: Vec<u32>,
    /// ASes whose start context changed in this update.
    restarted: Vec<u32>,
    path: Vec<u32>,
    /// Rows asked of the view again.
    pub(crate) rows_recompiled: u64,
    /// States whose outcome was recomputed.
    pub(crate) states_rewalked: u64,
    /// ASes whose verdict moved.
    pub(crate) ases_folded: u64,
}

impl Classifier {
    /// Size the tables for `n` ASes of `n_ctx` contexts. Returns whether
    /// that emptied them (first use, or a view of another shape): every
    /// state then delivers and the caller must report every row.
    pub(crate) fn ensure_shape(&mut self, n: usize, n_ctx: usize) -> bool {
        let states = n * n_ctx;
        if self.n_ctx == n_ctx && self.succ.len() == states {
            return false;
        }
        assert!(
            states < DROP as usize,
            "state space too large for the compiled successor encoding"
        );
        self.n_ctx = n_ctx;
        for (v, fill) in [
            (&mut self.succ, DELIVER),
            (&mut self.pred_head, NIL),
            (&mut self.pred_next, NIL),
            (&mut self.pred_prev, NIL),
        ] {
            v.clear();
            v.resize(states, fill);
        }
        self.marks.clear();
        self.marks.resize(states, Mark::Done(Outcome::Delivered));
        self.starts.clear();
        self.starts.resize(n, 0);
        self.verdict.clear();
        self.verdict.resize(n, Outcome::Delivered);
        // The first update reports every row: size the queues for it once.
        self.cone.clear();
        self.cone.reserve(states);
        self.restarted.clear();
        self.restarted.reserve(n);
        true
    }

    /// Current verdict per AS (index = AS id).
    pub(crate) fn verdicts(&self) -> &[Outcome] {
        &self.verdict
    }

    /// Ask the view for AS `a`'s row again; states whose successor changed
    /// are relinked and queued as seeds for [`Classifier::settle`].
    // simlint::hot
    pub(crate) fn recompile<V: ForwardingView + ?Sized>(&mut self, view: &V, a: usize) {
        self.rows_recompiled += 1;
        let v = AsId::from_usize(a);
        let start = view.start_ctx(v);
        let Some(stored) = self.starts.get_mut(a) else {
            debug_assert!(false, "AS {a} is outside the classifier's shape");
            return;
        };
        if *stored != start {
            *stored = start;
            self.restarted.push(v.0);
        }
        for ctx in 0..self.n_ctx {
            let s = a * self.n_ctx + ctx;
            let new = match view.step(v, u8::try_from(ctx).unwrap_or(u8::MAX)) {
                Step::Deliver => DELIVER,
                Step::Drop => DROP,
                Step::Hop { to, ctx: nctx } => {
                    debug_assert!(nctx < view.n_ctx());
                    u32::try_from(to.index() * self.n_ctx + usize::from(nctx)).unwrap_or(DROP)
                }
            };
            let Some(&old) = self.succ.get(s) else {
                debug_assert!(false, "state {s} is outside the classifier's shape");
                return;
            };
            if new == old {
                continue;
            }
            let s32 = u32::try_from(s).unwrap_or(NIL);
            if old < DROP {
                self.unlink(s32, old);
            }
            if new < DROP {
                self.link(s32, new);
            }
            // `succ` and `marks` have a slot per state.
            let (Some(succ), Some(mark)) = (self.succ.get_mut(s), self.marks.get_mut(s)) else {
                debug_assert!(false, "state {s} has no mark");
                return;
            };
            *succ = new;
            if *mark != Mark::Unknown {
                *mark = Mark::Unknown;
                self.cone.push(s32);
            }
        }
    }

    /// Take `p` out of `q`'s predecessor list. A link that reads `NIL`
    /// (the end of a list) indexes nothing: `NIL` is above every state.
    #[inline]
    fn unlink(&mut self, p: u32, q: u32) {
        let p = p as usize;
        let (Some(&prev), Some(&next)) = (self.pred_prev.get(p), self.pred_next.get(p)) else {
            debug_assert!(false, "state {p} is outside the classifier's shape");
            return;
        };
        let before = match prev {
            NIL => self.pred_head.get_mut(q as usize),
            prev => self.pred_next.get_mut(prev as usize),
        };
        match before {
            Some(before) => *before = next,
            None => debug_assert!(false, "{p}'s predecessor link is outside the shape"),
        }
        if let Some(after) = self.pred_prev.get_mut(next as usize) {
            *after = prev;
        }
    }

    /// Put `p` at the head of `q`'s predecessor list.
    #[inline]
    fn link(&mut self, p: u32, q: u32) {
        let (Some(head), Some(p_next), Some(p_prev)) = (
            self.pred_head.get_mut(q as usize),
            self.pred_next.get_mut(p as usize),
            self.pred_prev.get_mut(p as usize),
        ) else {
            debug_assert!(false, "state {p} or {q} is outside the classifier's shape");
            return;
        };
        let next = std::mem::replace(head, p);
        (*p_next, *p_prev) = (next, NIL);
        if let Some(after) = self.pred_prev.get_mut(next as usize) {
            *after = p;
        }
    }

    /// Re-classify the reverse cone of the queued seeds and call
    /// `moved(as, old, new)` for every AS whose verdict changed.
    // simlint::hot
    pub(crate) fn settle(&mut self, mut moved: impl FnMut(usize, Outcome, Outcome)) {
        // The cone: everything that reaches a seed, breadth first over the
        // reverse edges. `Unknown` doubles as the visited flag, and a list
        // ends at `NIL`, which is above every state.
        let mut i = 0;
        while let Some(&q) = self.cone.get(i) {
            let mut p = self.pred_head.get(q as usize).copied().unwrap_or(NIL);
            while let Some(mark) = self.marks.get_mut(p as usize) {
                if *mark != Mark::Unknown {
                    *mark = Mark::Unknown;
                    self.cone.push(p);
                }
                p = self.pred_next.get(p as usize).copied().unwrap_or(NIL);
            }
            i += 1;
        }
        self.states_rewalked += self.cone.len() as u64;

        debug_assert_eq!(self.marks.len(), self.succ.len(), "a mark per state");
        for &seed in &self.cone {
            // Walk the functional graph from the state, marking the path.
            self.path.clear();
            let mut cur = seed;
            let outcome = loop {
                let Some(mark) = self.marks.get_mut(cur as usize) else {
                    debug_assert!(false, "state {cur} is outside the classifier's shape");
                    break Outcome::Blackhole;
                };
                match *mark {
                    Mark::Done(o) => break o,
                    Mark::OnPath => break Outcome::Loop,
                    Mark::Unknown => {
                        *mark = Mark::OnPath;
                        self.path.push(cur);
                        match self.succ.get(cur as usize).copied().unwrap_or(DROP) {
                            DELIVER => break Outcome::Delivered,
                            DROP => break Outcome::Blackhole,
                            next => cur = next,
                        }
                    }
                }
            };
            // Every state on the walked path shares the outcome (it leads
            // there deterministically).
            for &s in &self.path {
                if let Some(mark) = self.marks.get_mut(s as usize) {
                    *mark = Mark::Done(outcome);
                }
            }
        }

        // An AS's verdict can only have moved if its start state was
        // re-walked or it starts somewhere else now. (The order in which
        // ASes are folded is not observable: each is folded on its own.)
        while let Some(s) = self.cone.pop() {
            let s = s as usize;
            let a = s / self.n_ctx;
            if self.starts.get(a).map(|&c| usize::from(c)) == Some(s - a * self.n_ctx) {
                self.fold(a, &mut moved);
            }
        }
        while let Some(a) = self.restarted.pop() {
            self.fold(a as usize, &mut moved);
        }
    }

    #[inline]
    fn fold(&mut self, a: usize, moved: &mut impl FnMut(usize, Outcome, Outcome)) {
        let start = self.starts.get(a).map(|&c| a * self.n_ctx + usize::from(c));
        let mark = start.and_then(|s| self.marks.get(s));
        let (Some(&Mark::Done(new)), Some(verdict)) = (mark, self.verdict.get_mut(a)) else {
            debug_assert!(false, "settle leaves every state classified");
            return;
        };
        let old = std::mem::replace(verdict, new);
        if new != old {
            self.ases_folded += 1;
            moved(a, old, new);
        }
    }
}
