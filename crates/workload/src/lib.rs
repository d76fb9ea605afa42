//! Declarative scenario workloads: timelines, the `.scn` DSL and the
//! sharded campaign runner.
//!
//! The paper's evaluation is a handful of one-shot failure shapes; this
//! crate is the layer that turns "a scenario" into *data* and "an
//! experiment" into a *grid*:
//!
//! * [`timeline`] — the [`Timeline`] model (timestamped [`NetEvent`]s at
//!   offsets from an injection epoch) plus reusable generators: link flap
//!   trains, staggered multi-link failures, correlated node outages within
//!   a tier or provider cone, rolling maintenance windows and random
//!   background churn — all byte-reproducible from a seed via
//!   `rng_stream(seed, tags::TIMELINE)`;
//! * [`dsl`] — the `.scn` plain-text format with a round-trip
//!   `to_string`/`parse` guarantee, so campaigns live in files, not code;
//! * [`canned`] — the paper's Figure 2/3a/3b and §6.2.2 workloads expressed
//!   as canned one-shot timelines (the figure experiments sample through
//!   these);
//! * [`campaign`] — where cells run. A cell is one `(timeline, destination,
//!   engine seed)` on which every protocol replays the identical scenario;
//!   [`run_cells`] is the workspace's one cell runner (validate, compute
//!   reachability masks, fan out over scoped workers, merge in input
//!   order). [`run_campaign`] feeds it the `(timeline × destination × seed)`
//!   cross product and folds the result into an aggregate hash that is
//!   byte-identical at any worker count; the figure experiments feed it
//!   sampled canned workloads;
//! * [`params`] — the vocabulary below all of the above: [`PREFIX`],
//!   [`RunParams`], [`InstanceMetrics`];
//! * [`sim`] — the unified session facade every consumer goes through:
//!   the fluent [`sim::Sim`] builder, the closed [`sim::Protocol`]
//!   axis and the typed [`sim::Probe`] observation API (one snapshot
//!   callback, statically dispatched, allocation-free).
//!
//! See DESIGN.md §8 for the model, grammar and determinism argument, and
//! §9 for the sim facade.

#![forbid(unsafe_code)]

pub mod campaign;
pub mod canned;
pub mod dsl;
pub mod params;
pub mod sim;
pub mod timeline;

pub use campaign::{
    adversarial_families, adversarial_grid, grid_axes, populate_baselines, run_campaign,
    run_campaign_with_cache, run_cells, run_protocol_cell, run_protocol_cell_warm, smoke_grid,
    standard_families, Aggregate, BaselineCache, CacheStats, CampaignCell, CampaignConfig,
    CampaignReport, Cell, CellResult, GRID_SEED,
};
pub use canned::{destination_candidates, sample_canned, CannedWorkload, FailureScenario};
pub use dsl::{parse_scn, ScnError, ScnErrorKind};
pub use params::{InstanceMetrics, RunParams, PREFIX};
pub use sim::{
    NullProbe, ParseProtocolError, Played, Probe, Protocol, Sim, SimBuilder, SimError,
    SnapshotCause,
};
pub use stamp_bgp::engine::{RunOutcome, SessionModel, WatchdogConfig};
pub use stamp_forwarding::ObserverWork;
pub use stamp_policy::PolicyRegime;
pub use timeline::{
    background_churn, choose_k, correlated_node_outage, flap_train, maintenance_windows,
    node_drain, policy_flip, prefix_hijack, prepend_hijack, provider_cone, random_attacker,
    reachability_mask, route_leak, single_link_failure, staggered_link_failures, NetEvent,
    Timeline, TimelineError, TimelineEvent, MAX_OFFSET,
};
