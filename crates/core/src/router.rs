//! The STAMP router: two coordinated BGP processes per AS.
//!
//! Both processes are run by one [`Speaker`] — unmodified BGP, keyed by
//! process — and this module is what STAMP adds to it: who may hear which
//! colour, the Lock and ET bits, instability flags and the active colour
//! (DESIGN.md §5.4). What it adds is one row per dense [`PrefixId`], shaped
//! like the speaker's: the active colour, the two instability flags and the
//! provider holding the lock.
//!
//! Protocol recap (§4.1):
//!
//! * The **red** (`ProcId(0)`) and **blue** (`ProcId(1)`) processes each run
//!   the standard decision process over the routes announced by neighbours'
//!   same-colour processes.
//! * Announcements to **customers and peers** proceed freely on both
//!   colours (standard valley-free export applies per process).
//! * Announcements to **providers** are selective: the two processes never
//!   announce to the same provider. An AS holding a locked blue route
//!   announces blue with Lock=1 to exactly one provider (its *locked blue
//!   provider*); red routes take precedence to every other provider; blue
//!   without Lock fills in only where no red route exists.
//! * A multi-homed **origin** seeds the split: blue+Lock to its chosen blue
//!   provider, red to the rest. A single-provider AS announces both colours
//!   to its sole provider (the "cut exemption" — see crate docs).
//! * Every update carries the **ET** bit (§5.2): `Lost` iff the update was
//!   transitively caused by a route loss. Receivers use it to flag a
//!   process unstable and to switch the *active* process their own traffic
//!   uses.

use crate::lock::LockStrategy;
use stamp_bgp::rib::row_mut;
use stamp_bgp::router::{RouterCtx, RouterLogic, Selection, StateFingerprint};
use stamp_bgp::speaker::Speaker;
use stamp_bgp::types::{
    CauseInfo, Color, EventType, PrefixId, ProcId, Route, UpdateKind, UpdateMsg,
};
use stamp_eventsim::clone_in_place;
use stamp_topology::{AsGraph, AsId, Relation, SessEntry};

/// Per-event ET classification for each colour, `[red, blue]` (`None` =
/// colour untouched).
type EtByColor = [Option<EventType>; 2];

/// Colour `c`'s element of a `[red, blue]` pair.
fn of<T>(c: Color, [red, blue]: [T; 2]) -> T {
    match c {
        Color::Red => red,
        Color::Blue => blue,
    }
}

/// Both processes touched by a benign event (start, fresh session).
const BOTH_BENIGN: [(Color, bool); 2] = [(Color::Red, false), (Color::Blue, false)];

/// A STAMP router (one per AS): a BGP [`Speaker`] running the red and the
/// blue process, plus what STAMP adds — which colour goes to which
/// provider, the Lock and ET bits, instability flags and the active colour.
#[derive(Debug)]
pub struct StampRouter {
    /// Everything that is plain BGP, for both processes.
    speaker: Speaker,
    /// Per dense prefix: the active colour, instability flags and lock.
    rows: Vec<Row>,
    /// Locked-blue-provider selection policy.
    lock_strategy: LockStrategy,
}

clone_in_place!(StampRouter {
    speaker,
    rows,
    lock_strategy
});

/// What STAMP adds for one prefix.
#[derive(Debug, Default)]
struct Row {
    /// Which process this AS's own traffic currently uses; `None` until the
    /// prefix's first event.
    active: Option<Color>,
    /// Data-plane instability flags (§5.2), `[red, blue]`.
    unstable: [bool; 2],
    /// Sticky lock choice: the provider receiving our locked blue route.
    lock: Option<AsId>,
}

clone_in_place!(Row {
    active,
    unstable,
    lock
});

impl Row {
    /// Switch the active process per §5.2: move off a process that lost its
    /// route; move off an unstable process when the other is stable.
    fn switch_active(&mut self, speaker: &Speaker, prefix: PrefixId) {
        let a = self.active.unwrap_or(Color::Blue);
        let other = a.other();
        let has_route = |c: Color| speaker.selection(prefix, c.proc()).is_some();
        let unstable = |c: Color| of(c, self.unstable);
        // Switch iff the other process holds a route and either we lost
        // ours, or ours is unstable while the other is stable.
        let switch = has_route(other) && (!has_route(a) || (unstable(a) && !unstable(other)));
        self.active = Some(if switch { other } else { a });
    }
}

impl StampRouter {
    /// Router for `me`, originating `own`, with the given lock policy.
    #[inline]
    pub fn new(me: AsId, own: Vec<PrefixId>, lock_strategy: LockStrategy) -> StampRouter {
        StampRouter {
            speaker: Speaker::new(me, own, Self::PROCS),
            rows: Vec::new(),
            lock_strategy,
        }
    }

    // ------------------------------------------------------------------
    // Read-side API (data plane, tests, experiments)
    // ------------------------------------------------------------------

    /// Current selection of one colour.
    pub fn selection(&self, prefix: PrefixId, c: Color) -> &Selection {
        self.speaker.selection(prefix, c.proc())
    }

    /// Next hop of one colour (`None` = origin or no route).
    pub fn next_hop(&self, prefix: PrefixId, c: Color) -> Option<AsId> {
        self.selection(prefix, c).next_hop()
    }

    /// Does this AS originate `prefix`?
    pub fn originates(&self, prefix: PrefixId) -> bool {
        self.speaker.originates(prefix)
    }

    /// Is colour `c` currently flagged unstable for `prefix` (§5.2)?
    pub fn is_unstable(&self, prefix: PrefixId, c: Color) -> bool {
        self.row(prefix).is_some_and(|r| of(c, r.unstable))
    }

    /// The process this AS's own traffic uses (defaults to blue — the
    /// colour whose existence the Lock attribute guarantees).
    pub fn active_color(&self, prefix: PrefixId) -> Color {
        self.row(prefix)
            .and_then(|r| r.active)
            .unwrap_or(Color::Blue)
    }

    /// The provider currently receiving our locked blue announcement.
    pub fn lock_target(&self, prefix: PrefixId) -> Option<AsId> {
        self.row(prefix)?.lock
    }

    /// Which colours `neighbor` last heard from us for `prefix` —
    /// `(red, blue)`; `g` is this router's topology. Per-provider colour
    /// exclusivity (§4.2) means a multi-provider AS never reports
    /// `(true, true)` towards a provider.
    pub fn announced_colors_to(
        &self,
        g: &AsGraph,
        neighbor: AsId,
        prefix: PrefixId,
    ) -> (bool, bool) {
        let slot = g.slot_between(self.speaker.me(), neighbor);
        let heard =
            |c: Color| slot.is_some_and(|s| self.speaker.heard(s, prefix, c.proc()).is_some());
        (heard(Color::Red), heard(Color::Blue))
    }

    /// The row of `prefix`, if it has one.
    fn row(&self, prefix: PrefixId) -> Option<&Row> {
        self.rows.get(prefix.index())
    }

    // ------------------------------------------------------------------
    // Selection and instability
    // ------------------------------------------------------------------

    /// Re-run the decision process for one colour; returns whether the
    /// selection changed, updating the instability flag per crate-doc
    /// rule 3. A loss that does not change our best (e.g. a withdrawn
    /// alternative) leaves the process stable.
    fn reselect(&mut self, ctx: &RouterCtx, prefix: PrefixId, c: Color, loss: bool) -> bool {
        let new = self.speaker.decide(ctx, prefix, c.proc());
        let changed = self.speaker.install(prefix, c.proc(), new);
        if changed {
            if let Some(row) = row_mut(&mut self.rows, prefix.index()) {
                *of(c, row.unstable.each_mut()) = loss || !new.is_some();
            }
        }
        changed
    }

    // ------------------------------------------------------------------
    // Selective announcements (§4.1)
    // ------------------------------------------------------------------

    /// The route colour `c` would announce *upward* (to a provider), if
    /// the policy's export gate allows it: own prefixes and
    /// customer-learned routes under the default (valley-free) regime.
    /// Computed once for all providers, so without a split-horizon check.
    /// The Lock bit is set per the sticky-lock rule (crate docs, rule 2).
    fn up_route(
        &self,
        ctx: &mut RouterCtx,
        prefix: PrefixId,
        c: Color,
        lock_eligible: bool,
    ) -> Option<Route> {
        let mut r = self
            .speaker
            .export_toward(ctx, prefix, c.proc(), Relation::Provider)?;
        r.attrs.lock = c == Color::Blue && lock_eligible;
        Some(r)
    }

    /// Does this AS hold the lock obligation for `prefix`? True for the
    /// origin and for any AS holding a locked blue customer route.
    fn lock_eligible(&self, nbrs: &[SessEntry], prefix: PrefixId) -> bool {
        if self.originates(prefix) {
            return true;
        }
        self.speaker
            .routes(nbrs, prefix, Color::Blue.proc())
            .any(|(_, e)| e.route.attrs.lock && e.learned_from == Relation::Customer)
    }

    /// Tell the neighbour in `slot` colour `c`'s route (`None` withdraws),
    /// stamping ET: announcements and withdrawals of a colour whose best
    /// just changed carry that change's classification; policy-swap
    /// messages carry `NotLost`. The stored route carries no ET.
    fn advertise(
        &mut self,
        ctx: &mut RouterCtx,
        slot: usize,
        prefix: PrefixId,
        c: Color,
        want: Option<Route>,
        et: EtByColor,
    ) {
        let bit = Some(of(c, et).unwrap_or(EventType::NotLost));
        let wire = |kind: &mut UpdateKind| match kind {
            UpdateKind::Announce(r) => r.attrs.et = bit,
            UpdateKind::Withdraw(w) => w.et = bit,
        };
        self.speaker
            .advertise(ctx, slot, prefix, c.proc(), want, wire);
    }

    /// Bring every live neighbour in line with both colours' selections:
    /// customers and peers first (session order, red then blue), then the
    /// providers under the selective announcement rules.
    fn reconcile(&mut self, ctx: &mut RouterCtx, prefix: PrefixId, et: EtByColor) {
        // Customers and peers hear both colours under the base BGP export
        // rule; the Lock bit travels with the route (an origin's blue is
        // born locked).
        let down_lock = Color::ALL.map(|c| match self.selection(prefix, c) {
            Selection::Own => c == Color::Blue,
            Selection::Learned(d) => d.route.attrs.lock,
            Selection::None => false,
        });
        let mut providers: Vec<AsId> = Vec::new();
        for (slot, e) in ctx.live_neighbors() {
            if e.rel == Relation::Provider {
                providers.push(e.neighbor);
                continue;
            }
            for c in Color::ALL {
                let mut want = self.speaker.export(ctx, prefix, c.proc(), slot);
                if let Some(r) = &mut want {
                    r.attrs.lock = of(c, down_lock);
                }
                self.advertise(ctx, slot, prefix, c, want, et);
            }
        }

        // Providers: the selective announcement rules.
        let lock_eligible = self.lock_eligible(ctx.neighbors, prefix);
        let red_up = self.up_route(ctx, prefix, Color::Red, false);
        let blue_up = self.up_route(ctx, prefix, Color::Blue, lock_eligible);
        let locked_blue = blue_up.filter(|r| r.attrs.lock);
        let sole = providers.len() == 1;
        let lock_target = if sole {
            providers
                .first()
                .copied()
                .filter(|_| blue_up.is_some() && lock_eligible)
        } else if locked_blue.is_some() {
            let current = self.lock_target(prefix);
            self.lock_strategy
                .choose(self.speaker.me(), prefix, &providers, current)
        } else {
            None
        };
        // The live providers again, now with their slots: the same list in
        // the same order.
        for (slot, e) in ctx.live_neighbors() {
            if e.rel != Relation::Provider {
                continue;
            }
            if sole {
                // Cut exemption: both colours to the sole provider.
                self.advertise(ctx, slot, prefix, Color::Red, red_up, et);
                self.advertise(ctx, slot, prefix, Color::Blue, blue_up, et);
                continue;
            }
            // One colour per provider: locked blue to the lock target, red
            // everywhere else, unlocked blue only where no red exists. The
            // colour that goes is told first.
            let (c, route) = if Some(e.neighbor) == lock_target {
                (Color::Blue, locked_blue)
            } else if red_up.is_some() {
                (Color::Red, red_up)
            } else if let Some(mut r) = blue_up {
                r.attrs.lock = false;
                (Color::Blue, Some(r))
            } else {
                (Color::Red, None)
            };
            self.advertise(ctx, slot, prefix, c, route, et);
            self.advertise(ctx, slot, prefix, c.other(), None, et);
        }
        if let Some(row) = row_mut(&mut self.rows, prefix.index()) {
            row.lock = lock_target;
        }
    }

    /// Shared tail of every event: reselect touched colours, reconcile,
    /// update the active process ([`Row::switch_active`]).
    fn handle_prefix_event(
        &mut self,
        ctx: &mut RouterCtx,
        prefix: PrefixId,
        touched: &[(Color, bool)],
        force_reconcile: bool,
    ) {
        let mut et: EtByColor = [None, None];
        for &(c, loss) in touched {
            if self.reselect(ctx, prefix, c, loss) {
                ctx.fib_changed = true;
                *of(c, et.each_mut()) = Some(if loss {
                    EventType::Lost
                } else {
                    EventType::NotLost
                });
            }
        }
        if force_reconcile || et != [None, None] {
            self.reconcile(ctx, prefix, et);
        }
        if let Some(row) = row_mut(&mut self.rows, prefix.index()) {
            row.switch_active(&self.speaker, prefix);
        }
    }
}

impl RouterLogic for StampRouter {
    /// Red then blue: [`Color::proc`] order.
    const PROCS: usize = 2;

    fn on_start(&mut self, ctx: &mut RouterCtx) {
        // No allocation unless this AS originates something.
        for prefix in self.speaker.own().to_vec() {
            self.handle_prefix_event(ctx, prefix, &BOTH_BENIGN, true);
        }
    }

    fn on_update(&mut self, ctx: &mut RouterCtx, from: usize, proc: ProcId, msg: UpdateMsg) {
        let loss = match msg.kind {
            UpdateKind::Announce(route) => {
                self.speaker.learn(ctx, from, proc, msg.prefix, route);
                route.attrs.et == Some(EventType::Lost)
            }
            UpdateKind::Withdraw(info) => {
                self.speaker.unlearn(from, proc, msg.prefix);
                info.is_loss()
            }
        };
        self.handle_prefix_event(ctx, msg.prefix, &[(Color::from_proc(proc), loss)], false);
    }

    fn on_link_down(&mut self, ctx: &mut RouterCtx, slot: usize, _cause: CauseInfo) {
        let lost = self.speaker.session_down(slot);
        // Prefixes whose provider set changed need reconciliation even if
        // no route was lost (the selective announcement pattern depends on
        // the live provider list). A lock target is a provider, so a dead
        // one is re-chosen there too.
        let dead = ctx.neighbors.get(slot);
        let provider_changed = dead.is_some_and(|e| e.rel == Relation::Provider);
        let mut prefixes: Vec<PrefixId> = self.speaker.known_prefixes();
        prefixes.extend(lost.iter().map(|(p, _)| *p));
        prefixes.sort_unstable();
        prefixes.dedup();
        for p in prefixes {
            let touched: Vec<(Color, bool)> = lost
                .iter()
                .filter(|(q, _)| *q == p)
                .map(|(_, proc)| (Color::from_proc(*proc), true))
                .collect();
            let force = provider_changed || !touched.is_empty();
            self.handle_prefix_event(ctx, p, &touched, force);
        }
    }

    fn on_link_up(&mut self, ctx: &mut RouterCtx, slot: usize, _cause: CauseInfo) {
        // Fresh session — the neighbour has none of our state — and
        // possibly a changed provider set: reconcile every known prefix.
        self.speaker.forget_heard(slot);
        for p in self.speaker.known_prefixes() {
            self.handle_prefix_event(ctx, p, &BOTH_BENIGN, true);
        }
    }

    fn fingerprint(&self, fp: &mut StateFingerprint) {
        self.speaker.fingerprint(fp);
        // The active colour and instability flags steer forwarding (§5.2):
        // a cycle must repeat them too, or it isn't the same state.
        let me = u64::from(self.speaker.me().0);
        let mut mix = |p: PrefixId, tag: u64, c: Color| {
            let words = [me, u64::from(p.0), tag, u64::from(c.proc().0)];
            fp.mix(StateFingerprint::digest(&words));
        };
        for (p, row) in self.rows.iter().enumerate() {
            let p = PrefixId::from_usize(p);
            if let Some(c) = row.active {
                mix(p, 5, c);
            }
            for c in Color::ALL.into_iter().filter(|&c| of(c, row.unstable)) {
                mix(p, 6, c);
            }
        }
    }

    fn speaker(&self) -> &Speaker {
        &self.speaker
    }

    /// Pre-event churn must not count against the event (§5.2). The active
    /// colour stays: every event's `switch_active` leaves it holding a route
    /// if the other does, which with no flags set is its condition to stay.
    fn reset_measurement(&mut self) -> bool {
        let held = |row: &mut Row| std::mem::take(&mut row.unstable) != [false; 2];
        self.rows.iter_mut().map(held).fold(false, |a, b| a | b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stamp_bgp::engine::{Engine, EngineConfig, ScenarioEvent};
    use stamp_eventsim::SimDuration;
    use stamp_topology::{AsGraph, GraphBuilder};

    const P: PrefixId = PrefixId(0);

    /// The diamond:
    ///
    /// ```text
    ///   0 ==== 1      tier-1 peers
    ///   |      |
    ///   2      3
    ///    \    /
    ///      4        multi-homed origin
    /// ```
    fn diamond() -> AsGraph {
        let mut b = GraphBuilder::new();
        b.preregister(5);
        b.peering(0, 1).unwrap();
        b.customer_of(2, 0).unwrap();
        b.customer_of(3, 1).unwrap();
        b.customer_of(4, 2).unwrap();
        b.customer_of(4, 3).unwrap();
        b.build().unwrap()
    }

    fn engine(g: AsGraph, origin: AsId, seed: u64) -> Engine<StampRouter> {
        Engine::new(g, EngineConfig::fast(seed), |v| {
            let own = if v == origin { vec![P] } else { vec![] };
            StampRouter::new(v, own, LockStrategy::Random { seed })
        })
    }

    fn converge(g: &AsGraph, origin: AsId, seed: u64) -> Engine<StampRouter> {
        let mut e = engine(g.clone(), origin, seed);
        e.start();
        e.run_to_quiescence(None);
        e
    }

    #[test]
    fn origin_splits_colors_across_providers() {
        let g = diamond();
        let e = converge(&g, AsId(4), 1);
        let r4 = e.router(AsId(4));
        let lock = r4.lock_target(P).expect("multi-homed origin locks blue");
        let other = if lock == AsId(2) { AsId(3) } else { AsId(2) };
        assert_eq!(r4.announced_colors_to(&g, lock, P), (false, true));
        assert_eq!(r4.announced_colors_to(&g, other, P), (true, false));
    }

    #[test]
    fn every_as_gets_both_colors_on_diamond() {
        let g = diamond();
        for seed in [1, 2, 3] {
            let e = converge(&g, AsId(4), seed);
            for v in g.ases() {
                if v == AsId(4) {
                    continue;
                }
                let r = e.router(v);
                assert!(
                    r.selection(P, Color::Red).is_some(),
                    "seed {seed}: {v} missing red"
                );
                assert!(
                    r.selection(P, Color::Blue).is_some(),
                    "seed {seed}: {v} missing blue"
                );
            }
        }
    }

    #[test]
    fn red_blue_paths_downhill_disjoint_on_diamond() {
        use stamp_topology::path::downhill_node_disjoint;
        let g = diamond();
        let e = converge(&g, AsId(4), 1);
        for v in g.ases() {
            if v == AsId(4) {
                continue;
            }
            let r = e.router(v);
            let full = |c: Color| -> Vec<AsId> {
                let mut p = vec![v];
                p.extend(e.paths().iter(r.selection(P, c).path_id().unwrap()));
                p
            };
            let red = full(Color::Red);
            let blue = full(Color::Blue);
            assert_eq!(
                downhill_node_disjoint(&g, &red, &blue),
                Some(true),
                "at {v}: red {red:?} vs blue {blue:?}"
            );
        }
    }

    #[test]
    fn per_provider_color_exclusivity() {
        let g = diamond();
        let e = converge(&g, AsId(4), 5);
        for v in g.ases() {
            let r = e.router(v);
            let providers = g.providers(v);
            if providers.len() < 2 {
                continue; // cut exemption allows both
            }
            for &p in providers {
                let (red, blue) = r.announced_colors_to(&g, p, P);
                assert!(!(red && blue), "{v} announced both colours to provider {p}");
            }
        }
    }

    #[test]
    fn single_provider_cut_exemption_carries_both() {
        let g = diamond();
        let e = converge(&g, AsId(4), 1);
        // AS 2 and 3 each have a single provider; whichever colours they
        // hold must both flow up (blue through the lock chain).
        let r4 = e.router(AsId(4));
        let lock = r4.lock_target(P).unwrap();
        let rl = e.router(lock);
        // The locked provider holds blue from its customer (the origin) and
        // passes it up. It may also hold red — but only learned *downhill*
        // from its own provider (red crossed the tier-1s and came back
        // down), which valley-free export keeps away from the uplink.
        assert!(rl.selection(P, Color::Blue).is_some());
        if let Selection::Learned(d) = rl.selection(P, Color::Red) {
            assert_eq!(
                d.learned_from,
                Relation::Provider,
                "red at the lock provider must be a downhill route"
            );
        }
        let up = g.providers(lock)[0];
        assert_eq!(rl.announced_colors_to(&g, up, P), (false, true));
    }

    #[test]
    fn blue_failure_keeps_red_working_and_flips_active() {
        let g = diamond();
        let mut e = converge(&g, AsId(4), 1);
        let lock = e.router(AsId(4)).lock_target(P).unwrap();
        // Fail the origin's blue provider link: the blue downhill path dies.
        let id = g.link_between(AsId(4), lock).unwrap();
        e.inject_after(SimDuration::from_secs(1), ScenarioEvent::FailLink(id));
        e.run_to_quiescence(None);
        // Everyone still reaches 4: the surviving provider now carries both
        // colours (4 became single-homed ⇒ cut exemption).
        for v in g.ases() {
            if v == AsId(4) {
                continue;
            }
            let r = e.router(v);
            assert!(
                r.selection(P, Color::Red).is_some() || r.selection(P, Color::Blue).is_some(),
                "{v} lost all routes"
            );
        }
        // The failed provider itself must have switched away from blue at
        // some point; after re-convergence its routes work again.
        let rl = e.router(lock);
        assert!(rl.selection(P, Color::Red).is_some() || rl.selection(P, Color::Blue).is_some());
    }

    #[test]
    fn et_lost_flags_instability_and_switches_active() {
        let g = diamond();
        let mut e = converge(&g, AsId(4), 1);
        let lock = e.router(AsId(4)).lock_target(P).unwrap();
        // Reset flags post-convergence, as the harness does.
        // (Routers are only mutable through the engine in this test; the
        // experiment harness owns engines mutably and resets them. Here we
        // check flag behaviour via a fresh failure instead.)
        let id = g.link_between(AsId(4), lock).unwrap();
        e.inject_after(SimDuration::from_secs(1), ScenarioEvent::FailLink(id));
        e.run_to_quiescence(None);
        // The tier-1 above the locked chain heard a Lost-flagged event for
        // blue during convergence; its active process must have a route.
        for v in g.ases() {
            if v == AsId(4) {
                continue;
            }
            let r = e.router(v);
            let a = r.active_color(P);
            assert!(
                r.selection(P, a).is_some(),
                "{v} active colour {a} has no route"
            );
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let g = diamond();
        let run = |seed: u64| {
            let mut e = engine(g.clone(), AsId(4), seed);
            e.start();
            e.run_to_quiescence(None);
            let s = e.stats();
            (s.announcements_sent, s.withdrawals_sent, s.delivered)
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn stamp_message_overhead_under_twice_bgp() {
        use stamp_bgp::router::BgpRouter;
        let g = diamond();
        let mut stamp = engine(g.clone(), AsId(4), 3);
        stamp.start();
        stamp.run_to_quiescence(None);
        let stamp_msgs = stamp.stats().announcements_sent + stamp.stats().withdrawals_sent;

        let mut bgp: Engine<BgpRouter> = Engine::new(g.clone(), EngineConfig::fast(3), |v| {
            let own = if v == AsId(4) { vec![P] } else { vec![] };
            BgpRouter::new(v, own)
        });
        bgp.start();
        bgp.run_to_quiescence(None);
        let bgp_msgs = bgp.stats().announcements_sent + bgp.stats().withdrawals_sent;

        assert!(
            stamp_msgs <= 2 * bgp_msgs,
            "STAMP {stamp_msgs} vs BGP {bgp_msgs}: more than twice"
        );
        assert!(stamp_msgs > bgp_msgs, "two processes should cost something");
    }
}

#[cfg(test)]
mod et_tests {
    use super::*;
    use stamp_bgp::patharena::PathArena;
    use stamp_bgp::router::SessionView;
    use stamp_bgp::types::{PathAttrs, WithdrawInfo};
    use stamp_topology::{AsGraph, GraphBuilder};

    struct AllUp;
    impl SessionView for AllUp {
        fn session_entry_up(&self, _from: AsId, _e: &SessEntry) -> bool {
            true
        }
    }

    const P: PrefixId = PrefixId(0);

    /// The slot AS `me` hears AS `n` on.
    fn slot(g: &AsGraph, me: u32, n: u32) -> usize {
        g.slot_between(AsId(me), AsId(n)).unwrap()
    }

    /// 0 with customers 1 and 2; 1 and 2 each with customer 3 (the origin
    /// side is elided — we feed routes in by hand).
    fn g() -> AsGraph {
        let mut b = GraphBuilder::new();
        b.preregister(4);
        b.customer_of(1, 0).unwrap();
        b.customer_of(2, 0).unwrap();
        b.customer_of(3, 1).unwrap();
        b.customer_of(3, 2).unwrap();
        b.build().unwrap()
    }

    fn announce(a: &mut PathArena, path: &[u32], et: EventType, lock: bool) -> UpdateMsg {
        let ids: Vec<AsId> = path.iter().map(|&x| AsId(x)).collect();
        UpdateMsg {
            prefix: P,
            kind: UpdateKind::Announce(Route {
                path: a.intern_slice(&ids),
                attrs: PathAttrs {
                    lock,
                    et: Some(et),
                    ..Default::default()
                },
            }),
        }
    }

    #[test]
    fn et_lost_announce_flags_instability_and_switches_active() {
        let g = g();
        let mut a = PathArena::new();
        let mut r = StampRouter::new(AsId(3), vec![], LockStrategy::Random { seed: 1 });
        // Learn stable blue then red routes via different providers (blue
        // first, so the default-blue active choice has a route and sticks).
        let blue = announce(&mut a, &[2, 9], EventType::NotLost, true);
        let red = announce(&mut a, &[1, 9], EventType::NotLost, false);
        let mut ctx = RouterCtx::new(AsId(3), &g, &AllUp, &mut a);
        r.on_update(&mut ctx, slot(&g, 3, 2), Color::Blue.proc(), blue);
        r.on_update(&mut ctx, slot(&g, 3, 1), Color::Red.proc(), red);
        assert!(!r.is_unstable(P, Color::Red));
        assert!(!r.is_unstable(P, Color::Blue));
        assert_eq!(r.active_color(P), Color::Blue);
        drop(ctx);
        // A Lost-flagged blue replacement arrives: blue becomes unstable
        // and the active process flips to the stable red.
        let lost = announce(&mut a, &[2, 8, 9], EventType::Lost, true);
        let mut ctx = RouterCtx::new(AsId(3), &g, &AllUp, &mut a);
        r.on_update(&mut ctx, slot(&g, 3, 2), Color::Blue.proc(), lost);
        assert!(r.is_unstable(P, Color::Blue));
        assert!(!r.is_unstable(P, Color::Red));
        assert_eq!(r.active_color(P), Color::Red);
        drop(ctx);
        // A NotLost-flagged blue update clears the flag.
        let restored = announce(&mut a, &[2, 9], EventType::NotLost, true);
        let mut ctx = RouterCtx::new(AsId(3), &g, &AllUp, &mut a);
        r.on_update(&mut ctx, slot(&g, 3, 2), Color::Blue.proc(), restored);
        assert!(!r.is_unstable(P, Color::Blue));
    }

    #[test]
    fn withdraw_of_nonbest_leaves_process_stable() {
        let g = g();
        let mut a = PathArena::new();
        let mut r = StampRouter::new(AsId(3), vec![], LockStrategy::Random { seed: 2 });
        let short = announce(&mut a, &[1, 9], EventType::NotLost, false);
        let long = announce(&mut a, &[2, 8, 9], EventType::NotLost, false);
        let mut ctx = RouterCtx::new(AsId(3), &g, &AllUp, &mut a);
        r.on_update(&mut ctx, slot(&g, 3, 1), Color::Red.proc(), short);
        r.on_update(&mut ctx, slot(&g, 3, 2), Color::Red.proc(), long);
        drop(ctx);
        // Best is via 1 (shorter). Withdrawing the alternative from 2 must
        // not destabilise the red process.
        let mut ctx = RouterCtx::new(AsId(3), &g, &AllUp, &mut a);
        r.on_update(
            &mut ctx,
            slot(&g, 3, 2),
            Color::Red.proc(),
            UpdateMsg {
                prefix: P,
                kind: UpdateKind::Withdraw(WithdrawInfo::loss()),
            },
        );
        assert!(!r.is_unstable(P, Color::Red));
        assert_eq!(r.next_hop(P, Color::Red), Some(AsId(1)));
    }

    #[test]
    fn policy_swap_withdrawal_carries_not_lost() {
        // The origin 3 (multi-homed to 1 and 2) first has only blue; the
        // non-lock provider receives blue Lock=0. When red appears (it is
        // the origin so red is Own from the start)... instead drive a
        // transit AS: it first learns only blue from a customer, announces
        // blue to both providers (lock to one, unlocked to the other);
        // when red arrives from the customer, the unlocked-blue provider
        // is switched to red — the blue withdrawal must carry ET=NotLost.
        let mut b = GraphBuilder::new();
        b.preregister(4);
        b.customer_of(1, 0).unwrap(); // providers 0... wait: 1's provider is 0
        b.customer_of(3, 1).unwrap(); // 3 is 1's customer
        b.customer_of(1, 2).unwrap(); // second provider 2 for AS 1
        let g = b.build().unwrap();
        let mut a = PathArena::new();
        let mut r = StampRouter::new(AsId(1), vec![], LockStrategy::Random { seed: 3 });
        // Blue (locked) arrives from customer 3.
        let blue = announce(&mut a, &[3], EventType::NotLost, true);
        let mut ctx = RouterCtx::new(AsId(1), &g, &AllUp, &mut a);
        r.on_update(&mut ctx, slot(&g, 1, 3), Color::Blue.proc(), blue);
        let lock = r.lock_target(P).expect("blue locked to one provider");
        let other = if lock == AsId(0) { AsId(2) } else { AsId(0) };
        // The other provider got blue unlocked (no red exists yet).
        assert_eq!(r.announced_colors_to(&g, other, P), (false, true));
        drop(ctx);
        // Red arrives from the same customer: red takes precedence at the
        // non-lock provider, so blue is withdrawn there — with ET=NotLost.
        let red = announce(&mut a, &[3], EventType::NotLost, false);
        let mut ctx = RouterCtx::new(AsId(1), &g, &AllUp, &mut a);
        r.on_update(&mut ctx, slot(&g, 1, 3), Color::Red.proc(), red);
        let withdrawal = ctx
            .out
            .iter()
            .find(|m| m.to == other && matches!(m.msg.kind, UpdateKind::Withdraw(_)))
            .expect("blue must be withdrawn from the non-lock provider");
        match &withdrawal.msg.kind {
            UpdateKind::Withdraw(info) => {
                assert_eq!(
                    info.et,
                    Some(EventType::NotLost),
                    "policy-swap withdrawals must not masquerade as loss"
                );
                assert!(!info.is_loss());
            }
            _ => unreachable!(),
        }
        assert_eq!(r.announced_colors_to(&g, other, P), (true, false));
    }

    #[test]
    fn lock_rechoice_after_provider_death() {
        let mut b = GraphBuilder::new();
        b.preregister(4);
        b.customer_of(1, 0).unwrap();
        b.customer_of(1, 2).unwrap();
        b.customer_of(3, 1).unwrap();
        let g = b.build().unwrap();
        let mut a = PathArena::new();
        let mut r = StampRouter::new(AsId(1), vec![], LockStrategy::Random { seed: 4 });
        let blue = announce(&mut a, &[3], EventType::NotLost, true);
        let mut ctx = RouterCtx::new(AsId(1), &g, &AllUp, &mut a);
        r.on_update(&mut ctx, slot(&g, 1, 3), Color::Blue.proc(), blue);
        let lock = r.lock_target(P).unwrap();
        let other = if lock == AsId(0) { AsId(2) } else { AsId(0) };
        drop(ctx);
        // The lock provider's session dies; the lock must move to the
        // surviving provider (single provider left ⇒ cut exemption).
        struct Except(AsId);
        impl SessionView for Except {
            fn session_entry_up(&self, _from: AsId, e: &SessEntry) -> bool {
                e.neighbor != self.0
            }
        }
        let sessions = Except(lock);
        let mut ctx = RouterCtx::new(AsId(1), &g, &sessions, &mut a);
        r.on_link_down(
            &mut ctx,
            slot(&g, 1, lock.0),
            CauseInfo {
                cause: stamp_bgp::types::RootCause::link(AsId(1), lock),
                seq: 1,
                up: false,
            },
        );
        assert_eq!(r.lock_target(P), Some(other));
    }

    #[test]
    fn reset_measurement_reports_then_clears() {
        let g = g();
        let mut a = PathArena::new();
        let mut r = StampRouter::new(AsId(3), vec![], LockStrategy::Random { seed: 5 });
        let red = announce(&mut a, &[1, 9], EventType::NotLost, false);
        let blue = announce(&mut a, &[2, 9], EventType::Lost, true);
        let mut ctx = RouterCtx::new(AsId(3), &g, &AllUp, &mut a);
        r.on_update(&mut ctx, slot(&g, 3, 1), Color::Red.proc(), red);
        r.on_update(&mut ctx, slot(&g, 3, 2), Color::Blue.proc(), blue);
        assert!(r.is_unstable(P, Color::Blue));
        let active = r.active_color(P);
        assert!(r.reset_measurement());
        assert!(!r.is_unstable(P, Color::Blue));
        assert!(!r.is_unstable(P, Color::Red));
        assert_eq!(r.active_color(P), active);
        // Nothing left to clear: a second reset reports so.
        assert!(!r.reset_measurement());
    }
}
