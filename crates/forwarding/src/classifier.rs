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
//! [`Classification`]: the tables without the view, which a classifier
//! can [`Classifier::install`] instead of classifying the baseline again.

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
/// the compiled successor and outcome of every `(AS, ctx)` state, the
/// start context and verdict of every AS, and every AS's selection key
/// (the control metric's baseline).
///
/// A converged baseline's classification belongs to the baseline, not to
/// a fork of it: under safe policy the stable state is unique, and every
/// fork rewinds to the same one. So it can be computed once and handed to
/// every fork's tracker ([`crate::TransientTracker::seeded`]), whose first
/// observation then costs what the event touched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Classification {
    n_ctx: usize,
    succ: Vec<u32>,
    outcome: Vec<Outcome>,
    starts: Vec<u8>,
    verdict: Vec<Outcome>,
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
        let outcome = c
            .marks
            .iter()
            .map(|m| match *m {
                Mark::Done(o) => o,
                Mark::Unknown | Mark::OnPath => {
                    debug_assert!(false, "settle leaves every state classified");
                    Outcome::Delivered
                }
            })
            .collect();
        Classification {
            n_ctx: c.n_ctx,
            succ: c.succ,
            outcome,
            starts: c.starts,
            verdict: c.verdict,
            keys: (0..n)
                .map(|a| view.selection_key(AsId::from_usize(a)))
                .collect(),
        }
    }

    /// The verdict per AS (index = AS id).
    pub fn verdicts(&self) -> &[Outcome] {
        &self.verdict
    }
}

#[derive(Debug, Clone, Default)]
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

    /// Take `c`'s tables as this classifier's, as if it had just settled
    /// the state `c` classifies. The view is not asked: the predecessor
    /// lists are rebuilt from the successors, in state order — the order
    /// an update that reports every row links them in, so the lists come
    /// out identical. The work counters keep counting from where they are.
    pub(crate) fn install(&mut self, c: &Classification) {
        self.n_ctx = c.n_ctx;
        self.succ.clone_from(&c.succ);
        self.marks.clear();
        self.marks.extend(c.outcome.iter().map(|&o| Mark::Done(o)));
        self.starts.clone_from(&c.starts);
        self.verdict.clone_from(&c.verdict);
        let lists = [
            &mut self.pred_head,
            &mut self.pred_next,
            &mut self.pred_prev,
        ];
        for v in lists {
            v.clear();
            v.resize(c.succ.len(), NIL);
        }
        for (s, &q) in (0u32..).zip(&c.succ) {
            if q < DROP {
                self.link(s, q);
            }
        }
        self.cone.clear();
        self.restarted.clear();
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
        if self.starts[a] != start {
            self.starts[a] = start;
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
            let old = self.succ[s];
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
            self.succ[s] = new;
            if self.marks[s] != Mark::Unknown {
                self.marks[s] = Mark::Unknown;
                self.cone.push(s32);
            }
        }
    }

    /// Take `p` out of `q`'s predecessor list.
    #[inline]
    fn unlink(&mut self, p: u32, q: u32) {
        let (prev, next) = (self.pred_prev[p as usize], self.pred_next[p as usize]);
        if prev == NIL {
            self.pred_head[q as usize] = next;
        } else {
            self.pred_next[prev as usize] = next;
        }
        if next != NIL {
            self.pred_prev[next as usize] = prev;
        }
    }

    /// Put `p` at the head of `q`'s predecessor list.
    #[inline]
    fn link(&mut self, p: u32, q: u32) {
        let next = self.pred_head[q as usize];
        self.pred_next[p as usize] = next;
        self.pred_prev[p as usize] = NIL;
        if next != NIL {
            self.pred_prev[next as usize] = p;
        }
        self.pred_head[q as usize] = p;
    }

    /// Re-classify the reverse cone of the queued seeds and call
    /// `moved(as, old, new)` for every AS whose verdict changed.
    // simlint::hot
    pub(crate) fn settle(&mut self, mut moved: impl FnMut(usize, Outcome, Outcome)) {
        // The cone: everything that reaches a seed, breadth first over the
        // reverse edges. `Unknown` doubles as the visited flag.
        let mut i = 0;
        while i < self.cone.len() {
            let mut p = self.pred_head[self.cone[i] as usize];
            while p != NIL {
                if self.marks[p as usize] != Mark::Unknown {
                    self.marks[p as usize] = Mark::Unknown;
                    self.cone.push(p);
                }
                p = self.pred_next[p as usize];
            }
            i += 1;
        }
        self.states_rewalked += self.cone.len() as u64;

        for i in 0..self.cone.len() {
            // Walk the functional graph from the state, marking the path.
            self.path.clear();
            let mut cur = self.cone[i];
            let outcome = loop {
                match self.marks[cur as usize] {
                    Mark::Done(o) => break o,
                    Mark::OnPath => break Outcome::Loop,
                    Mark::Unknown => {
                        self.marks[cur as usize] = Mark::OnPath;
                        self.path.push(cur);
                        match self.succ[cur as usize] {
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
                self.marks[s as usize] = Mark::Done(outcome);
            }
        }

        // An AS's verdict can only have moved if its start state was
        // re-walked or it starts somewhere else now.
        for i in 0..self.cone.len() {
            let s = self.cone[i] as usize;
            let a = s / self.n_ctx;
            if s - a * self.n_ctx == usize::from(self.starts[a]) {
                self.fold(a, &mut moved);
            }
        }
        for i in 0..self.restarted.len() {
            self.fold(self.restarted[i] as usize, &mut moved);
        }
        self.cone.clear();
        self.restarted.clear();
    }

    #[inline]
    fn fold(&mut self, a: usize, moved: &mut impl FnMut(usize, Outcome, Outcome)) {
        let Mark::Done(new) = self.marks[a * self.n_ctx + usize::from(self.starts[a])] else {
            debug_assert!(false, "settle leaves every state classified");
            return;
        };
        let old = self.verdict[a];
        if new != old {
            self.verdict[a] = new;
            self.ases_folded += 1;
            moved(a, old, new);
        }
    }
}
