//! The vocabulary every layer of this crate shares: the measured prefix,
//! the per-run knobs ([`RunParams`]) and the per-cell measurements
//! ([`InstanceMetrics`]). Pure data — this module imports nothing from
//! its siblings, so `timeline`, `sim` and `campaign` can all point down at
//! it.

use stamp_bgp::engine::{EngineConfig, RunOutcome, SessionModel, WatchdogConfig};
use stamp_bgp::types::PrefixId;
use stamp_eventsim::SimDuration;
use stamp_policy::PolicyRegime;

/// The prefix every run converges (one destination at a time, as in the
/// paper).
pub const PREFIX: PrefixId = PrefixId(0);

/// Per-cell measurements of one protocol.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct InstanceMetrics {
    /// ASes with transient problems (the Figure 2/3 metric).
    pub affected: usize,
    /// ASes that saw a transient loop (subset of `affected`).
    pub affected_loops: usize,
    /// ASes that saw a transient blackhole (subset of `affected`).
    pub affected_blackholes: usize,
    /// Control-plane companion metric: ASes that adopted a selection
    /// invalidated by the event ("affected in some ways", see DESIGN.md).
    pub control_affected: usize,
    /// Updates sent during initial convergence (E7 baseline).
    pub updates_initial: u64,
    /// Updates sent while re-converging after the timeline started (E7).
    pub updates_failure: u64,
    /// Seconds of simulated time from the timeline's *last* event to the
    /// last FIB change (E8, control plane). For the paper's one-shot
    /// workloads the last event is the injection instant.
    pub convergence_delay_s: f64,
    /// Seconds from the timeline's last event to the last observation that
    /// still saw any forwarding problem (E8, data-plane recovery;
    /// 0 = never disrupted after the final event).
    pub data_recovery_s: f64,
    /// Distinct AS paths interned by the engine's `PathArena` over the
    /// whole run — deterministic (intern order is event order), so it
    /// participates in the byte-identical regression checks.
    pub interned_paths: usize,
    /// ASes with no path to the destination once the timeline has fully
    /// played out: the `false` entries of the cell's reachability mask
    /// (ground truth from static routing, not a protocol artifact). A
    /// property of the cell's inputs, so [`InstanceMetrics::words`] does
    /// not fold it.
    pub unreachable: usize,
    /// How the cell's run ended: the first non-`Converged` outcome of its
    /// phases (initial convergence, then the timeline phase). A diverging
    /// cell is a *result*, not an error — campaigns keep running and the
    /// outcome folds into the aggregate hash.
    pub outcome: RunOutcome,
}

impl InstanceMetrics {
    /// The nine counters as `u64` words in declaration order, f64s by bit
    /// pattern (`unreachable` and `outcome` are not counters of the run) —
    /// what aggregate hashes fold and bit-exact comparisons compare.
    pub fn words(&self) -> [u64; 9] {
        [
            self.affected as u64,
            self.affected_loops as u64,
            self.affected_blackholes as u64,
            self.control_affected as u64,
            self.updates_initial,
            self.updates_failure,
            self.convergence_delay_s.to_bits(),
            self.data_recovery_s.to_bits(),
            self.interned_paths as u64,
        ]
    }

    /// Mean of one field over a set of cells, summed in iteration order
    /// (0 for an empty set) — the one place figure bars and campaign
    /// aggregates are averaged, so both add the same floats in the same
    /// order.
    pub fn mean_of<'a>(
        cells: impl IntoIterator<Item = &'a InstanceMetrics>,
        field: impl Fn(&InstanceMetrics) -> f64,
    ) -> f64 {
        let (mut sum, mut n) = (0.0, 0usize);
        for m in cells {
            sum += field(m);
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }
}

/// Engine and measurement knobs shared by every cell of a run; defaults
/// follow §6.2 where the paper is explicit.
#[derive(Debug, Clone)]
pub struct RunParams {
    /// Delay, MRAI and loss of every session (the failover demo sets the
    /// loss).
    pub sessions: SessionModel,
    /// Delay between reaching quiescence and the timeline's epoch.
    pub inject_delay: SimDuration,
    /// Safety deadline per convergence phase (simulated time).
    pub phase_deadline: SimDuration,
    /// Policy regime every router runs (default: `gao-rexford`, the
    /// paper's hardwired prefer-customer + valley-free world). Compiled to
    /// dense tables once per cell by [`RunParams::engine_config`].
    pub policy: PolicyRegime,
    /// Convergence-watchdog thresholds (oscillation detector + per-run
    /// event budget) — see `stamp_bgp::engine::WatchdogConfig`.
    pub watchdog: WatchdogConfig,
}

impl Default for RunParams {
    fn default() -> Self {
        RunParams {
            sessions: SessionModel::paper(),
            inject_delay: SimDuration::from_secs(5),
            phase_deadline: SimDuration::from_secs(4 * 3600),
            policy: PolicyRegime::gao_rexford(),
            watchdog: WatchdogConfig::default(),
        }
    }
}

impl RunParams {
    /// The paper's §6.2 parameters — an explicit name for
    /// [`RunParams::default`].
    pub fn paper() -> RunParams {
        RunParams::default()
    }

    /// A configuration small enough for unit/integration tests: fixed 1 ms
    /// delays, no MRAI.
    pub fn fast() -> RunParams {
        RunParams {
            sessions: SessionModel::fast(),
            inject_delay: SimDuration::from_secs(1),
            phase_deadline: SimDuration::from_secs(3600),
            ..RunParams::default()
        }
    }

    /// Engine configuration for one cell.
    pub fn engine_config(&self, seed: u64) -> EngineConfig {
        EngineConfig {
            seed,
            sessions: self.sessions,
            policy: self
                .policy
                .compile()
                // simlint::allow(panic, "builtins and parse_pol both bound community counts; only a hand-built regime can exceed them")
                .expect("policy regime compiles"),
            watchdog: self.watchdog,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_of_averages_one_field_in_order() {
        let cell = |affected, convergence_delay_s| InstanceMetrics {
            affected,
            affected_loops: 0,
            affected_blackholes: 0,
            control_affected: 0,
            updates_initial: 0,
            updates_failure: 0,
            convergence_delay_s,
            data_recovery_s: 0.0,
            interned_paths: 0,
            unreachable: 0,
            outcome: RunOutcome::Converged,
        };
        let cells = [cell(2, 0.1), cell(4, 0.2), cell(9, 0.3)];
        let affected = |m: &InstanceMetrics| m.affected as f64;
        assert_eq!(InstanceMetrics::mean_of(&cells[..0], affected), 0.0);
        assert_eq!(InstanceMetrics::mean_of(&cells, affected), 5.0);
        // Left-to-right summation, the order a plain `iter().sum()` uses.
        let delay = InstanceMetrics::mean_of(&cells, |m| m.convergence_delay_s);
        assert_eq!(delay.to_bits(), (((0.1 + 0.2) + 0.3) / 3.0f64).to_bits());
    }
}
