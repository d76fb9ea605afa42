//! Exact loop/blackhole classification over a forwarding view.
//!
//! The view's `(AS, ctx)` states with their single successor form a
//! functional graph; walking it with memoisation classifies every state in
//! O(#states) total. An AS's outcome is the outcome of its start state.
//! This module is the from-scratch form, kept as the oracle for the
//! incremental classifier in [`crate::tracker`].

use crate::view::{ForwardingView, Step};
use stamp_topology::AsId;

/// Fate of packets originated at an AS.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Packets reach the destination.
    Delivered,
    /// Packets cycle forever (transient routing loop).
    Loop,
    /// Packets are dropped (transient failure / blackhole).
    Blackhole,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mark {
    Unknown,
    OnPath,
    Done(Outcome),
}

/// Classify the fate of traffic from every AS towards the view's
/// destination. Index = AS id.
///
/// Stateless and from scratch: every call asks the view for every step it
/// walks. The observation loop does not run this — [`crate::tracker`]
/// keeps a classification up to date from the engine's touched feed — but
/// checks itself against it in debug builds, which is why the two share
/// no code.
pub fn classify_all<V: ForwardingView + ?Sized>(view: &V) -> Vec<Outcome> {
    let n = view.n();
    let n_ctx = usize::from(view.n_ctx());
    let mut marks = vec![Mark::Unknown; n * n_ctx];
    let mut path = Vec::new();
    let mut out = Vec::with_capacity(n);
    for src in 0..n {
        let v = AsId::from_usize(src);
        // Walk the functional graph from the start state, marking the path.
        path.clear();
        let mut cur = (v, view.start_ctx(v));
        let outcome = loop {
            let i = cur.0.index() * n_ctx + usize::from(cur.1);
            match marks[i] {
                Mark::Done(o) => break o,
                Mark::OnPath => break Outcome::Loop,
                Mark::Unknown => {
                    marks[i] = Mark::OnPath;
                    path.push(i);
                    match view.step(cur.0, cur.1) {
                        Step::Deliver => break Outcome::Delivered,
                        Step::Drop => break Outcome::Blackhole,
                        Step::Hop { to, ctx } => cur = (to, ctx),
                    }
                }
            }
        };
        // Every state on the walked path shares the outcome (it leads
        // there deterministically).
        for &s in &path {
            marks[s] = Mark::Done(outcome);
        }
        out.push(outcome);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::view::StaticView;

    fn v(next: Vec<Option<u32>>, origin: u32) -> StaticView {
        StaticView {
            next: next.into_iter().map(|o| o.map(AsId)).collect(),
            origin: AsId(origin),
        }
    }

    #[test]
    fn chain_delivers() {
        // 3 -> 2 -> 1 -> 0 (origin)
        let view = v(vec![None, Some(0), Some(1), Some(2)], 0);
        assert_eq!(classify_all(&view), vec![Outcome::Delivered; 4]);
    }

    #[test]
    fn missing_route_blackholes() {
        // 2 -> 1 -> (drop); 0 origin.
        let view = v(vec![None, None, Some(1)], 0);
        assert_eq!(
            classify_all(&view),
            vec![Outcome::Delivered, Outcome::Blackhole, Outcome::Blackhole]
        );
    }

    #[test]
    fn cycle_loops_including_feeders() {
        // 1 -> 2 -> 3 -> 1 cycle; 4 feeds into it; 0 origin isolated.
        let view = v(vec![None, Some(2), Some(3), Some(1), Some(1)], 0);
        let got = classify_all(&view);
        assert_eq!(got[0], Outcome::Delivered);
        for (i, o) in got.iter().enumerate().skip(1) {
            assert_eq!(*o, Outcome::Loop, "state {i}");
        }
    }

    #[test]
    fn self_loop_is_a_loop() {
        let view = v(vec![None, Some(1)], 0);
        assert_eq!(classify_all(&view), vec![Outcome::Delivered, Outcome::Loop]);
    }

    #[test]
    fn memoisation_consistent_across_sources() {
        // Two feeders into the same delivered chain.
        let view = v(vec![None, Some(0), Some(1), Some(1)], 0);
        assert_eq!(classify_all(&view), vec![Outcome::Delivered; 4]);
    }

    #[test]
    fn large_functional_graph_is_linear_time() {
        // A long chain: exercises the memoised walk on 100k states.
        let n = 100_000u32;
        let mut next = vec![None];
        for i in 1..n {
            next.push(Some(i - 1));
        }
        let view = v(next, 0);
        let got = classify_all(&view);
        assert!(got.iter().all(|o| *o == Outcome::Delivered));
    }
}
