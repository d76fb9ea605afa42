//! The failure experiments behind Figures 2, 3(a), 3(b) and §6.2.2.
//!
//! A figure is a **cell list**: `instances` independently sampled canned
//! workloads ([`stamp_workload::canned`]), each one cell — a timeline, a
//! destination and an engine seed — on which the four protocols of the
//! paper (BGP, R-BGP without RCI, R-BGP, STAMP) run the *identical*
//! scenario: same topology, same destination, same failed links, same
//! delay model and seeds. The list goes to the workspace's one cell runner
//! ([`stamp_workload::run_cells`] — validation, reachability masks, worker
//! threads and in-order merge all live there, shared with campaigns), and
//! the per-cell rows are transposed into per-protocol columns. Inside a
//! cell ([`stamp_workload::run_protocol_cell`], a thin wrapper over the
//! `sim` facade):
//!
//! 1. converge the network from cold start,
//! 2. clear measurement state (STAMP instability flags),
//! 3. play the instance's timeline (for the paper's shapes: all failures
//!    at one instant),
//! 4. observe the data plane during re-convergence (throttled to one
//!    observation per `observe_interval` of simulated time — transients
//!    shorter than the throttle can be missed, equally for all protocols),
//! 5. report the number of ASes with transient problems, message counts
//!    and convergence delay (the §6.3 metrics fall out of the same runs).

use stamp_eventsim::rng::tags;
use stamp_eventsim::rng_stream;
use stamp_topology::gen::{generate, GenConfig};
use stamp_workload::campaign::RunParams;
use stamp_workload::canned::{sample_canned, CannedWorkload};
use stamp_workload::{run_cells, Cell};

pub use stamp_workload::campaign::{InstanceMetrics, Protocol, PREFIX};
pub use stamp_workload::canned::FailureScenario;

/// Experiment configuration; defaults follow §6.2 where the paper is
/// explicit (delays, MRAI, 100 instances) and DESIGN.md where it is not.
#[derive(Debug, Clone)]
pub struct FailureConfig {
    /// Topology generator parameters (the RouteViews substitute).
    pub gen: GenConfig,
    /// Independent scenario instances (the paper uses 100).
    pub instances: usize,
    /// Master seed.
    pub seed: u64,
    /// Engine/measurement knobs shared by every instance (delay model,
    /// MRAI, injection guard, observation throttle, phase deadline).
    pub params: RunParams,
    /// Worker threads (0 = all available).
    pub threads: usize,
}

impl Default for FailureConfig {
    fn default() -> Self {
        FailureConfig {
            gen: GenConfig::sim_scale(0xBEEF),
            instances: 100,
            seed: 0xBEEF,
            params: RunParams::default(),
            threads: 0,
        }
    }
}

impl FailureConfig {
    /// A configuration small enough for unit/integration tests.
    pub fn tiny(seed: u64) -> FailureConfig {
        FailureConfig {
            gen: GenConfig::small(seed),
            instances: 3,
            seed,
            params: RunParams::fast(),
            threads: 0,
        }
    }
}

/// Aggregated per-protocol results.
#[derive(Debug, Clone, Default)]
pub struct ProtocolResult {
    pub per_instance: Vec<InstanceMetrics>,
}

impl ProtocolResult {
    fn mean(&self, field: impl Fn(&InstanceMetrics) -> f64) -> f64 {
        InstanceMetrics::mean_of(&self.per_instance, field)
    }

    /// Mean number of affected ASes (the bar heights of Figures 2/3).
    pub fn affected_mean(&self) -> f64 {
        self.mean(|m| m.affected as f64)
    }

    /// Mean ASes that saw a transient loop.
    pub fn loops_mean(&self) -> f64 {
        self.mean(|m| m.affected_loops as f64)
    }

    /// Mean ASes that saw a transient blackhole.
    pub fn blackholes_mean(&self) -> f64 {
        self.mean(|m| m.affected_blackholes as f64)
    }

    /// Mean control-plane "affected in some ways" count.
    pub fn control_affected_mean(&self) -> f64 {
        self.mean(|m| m.control_affected as f64)
    }

    /// Mean updates during failure re-convergence.
    pub fn updates_failure_mean(&self) -> f64 {
        self.mean(|m| m.updates_failure as f64)
    }

    /// Mean updates during initial convergence.
    pub fn updates_initial_mean(&self) -> f64 {
        self.mean(|m| m.updates_initial as f64)
    }

    /// Mean convergence delay in simulated seconds.
    pub fn convergence_mean_s(&self) -> f64 {
        self.mean(|m| m.convergence_delay_s)
    }

    /// Mean data-plane recovery delay in simulated seconds.
    pub fn data_recovery_mean_s(&self) -> f64 {
        self.mean(|m| m.data_recovery_s)
    }
}

/// A complete figure's worth of results.
#[derive(Debug, Clone)]
pub struct FailureReport {
    pub scenario: FailureScenario,
    pub n_ases: usize,
    pub instances: usize,
    /// `(protocol, result)` in [`Protocol::ALL`] order.
    pub results: Vec<(Protocol, ProtocolResult)>,
}

impl FailureReport {
    /// Result of one protocol.
    pub fn of(&self, p: Protocol) -> &ProtocolResult {
        &self
            .results
            .iter()
            .find(|(q, _)| *q == p)
            // simlint::allow(panic, "results holds one row per requested protocol by construction")
            .expect("protocol present")
            .1
    }
}

/// Run a full figure experiment: `instances` workloads × the protocols.
pub fn run_failure_experiment(
    cfg: &FailureConfig,
    scenario: FailureScenario,
    protocols: &[Protocol],
) -> FailureReport {
    // simlint::allow(panic, "experiment configs are validated constants")
    let g = generate(&cfg.gen).expect("valid generator config");
    // One sampled workload per instance; the instance seed draws the
    // workload and is the cell's engine seed.
    let sampled: Vec<(u64, CannedWorkload)> = (0..cfg.instances as u64)
        .map(|i| {
            let instance_seed = cfg.seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut wl_rng = rng_stream(instance_seed, tags::WORKLOAD);
            let w = sample_canned(&g, scenario, &mut wl_rng)
                // simlint::allow(panic, "the generator guarantees multi-homed hosts for every canned scenario")
                .expect("generated topologies always host the paper's scenarios");
            (instance_seed, w)
        })
        .collect();
    let cells: Vec<Cell<'_>> = sampled
        .iter()
        .map(|(seed, w)| Cell {
            timeline: &w.timeline,
            dest: w.dest,
            seed: *seed,
        })
        .collect();
    let rows = run_cells(&g, &cfg.params, protocols, cfg.threads, &cells, None)
        // simlint::allow(panic, "canned timelines are built against this same graph")
        .expect("canned timelines resolve against their own topology");

    // Transpose: per-instance rows (protocols in request order) into
    // per-protocol columns.
    let results = protocols
        .iter()
        .enumerate()
        .map(|(k, &p)| {
            let per_instance = rows.iter().map(|row| row[k].1).collect();
            (p, ProtocolResult { per_instance })
        })
        .collect();
    FailureReport {
        scenario,
        n_ases: g.n(),
        instances: cfg.instances,
        results,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_experiment_runs_all_protocols() {
        let cfg = FailureConfig::tiny(7);
        let rep = run_failure_experiment(&cfg, FailureScenario::SingleLink, &Protocol::ALL);
        assert_eq!(rep.instances, 3);
        assert_eq!(rep.results.len(), 4);
        for (p, r) in &rep.results {
            assert_eq!(r.per_instance.len(), 3, "{}", p.label());
            // Every protocol eventually converges: a converged network can
            // still have seen transients, but the counts must be bounded by
            // the AS population.
            for m in &r.per_instance {
                assert!(m.affected < rep.n_ases);
                // A converged run interned at least the origination chain.
                assert!(m.interned_paths > 0, "{}", p.label());
            }
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let cfg = FailureConfig::tiny(13);
        let a = run_failure_experiment(&cfg, FailureScenario::SingleLink, &[Protocol::Bgp]);
        let b = run_failure_experiment(&cfg, FailureScenario::SingleLink, &[Protocol::Bgp]);
        assert_eq!(
            a.of(Protocol::Bgp).per_instance,
            b.of(Protocol::Bgp).per_instance
        );
    }

    #[test]
    fn two_link_scenarios_run() {
        let cfg = FailureConfig::tiny(19);
        for s in [
            FailureScenario::TwoLinksDifferentAs,
            FailureScenario::TwoLinksSameAs,
            FailureScenario::NodeFailure,
        ] {
            let rep = run_failure_experiment(&cfg, s, &[Protocol::Bgp, Protocol::Stamp]);
            assert_eq!(rep.results.len(), 2);
        }
    }
}
