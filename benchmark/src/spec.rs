//! The benchmark's vocabulary: workload names and every metric name with
//! its unit and direction. `BENCHMARK.json` at the repository root must
//! list exactly these (a unit test compares them), and the result line of
//! a run carries exactly these.
//!
//! Units name their clock: `_host` is wall time of the machine running
//! the simulator, `_sim` is simulated time or simulated work.

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// "higher" or "lower".
    pub better: &'static str,
}

const fn m(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric { name, unit, better }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    /// What one "operation" of `ops_per_s` is on this workload.
    pub op: &'static str,
    /// What one latency sample is on this workload.
    pub latency_of: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "converge_scale",
        op: "simulated event (events_per_s), the mean of the three sizes' rates",
        latency_of: "one pass over all convergences at that rate",
        why: "cold BGP/R-BGP/STAMP convergence at 500/2000/8000 ASes: engine only, no forwarding, cache or daemon; the scaling row",
    },
    Workload {
        name: "paper_figures",
        op: "failure-figure instance (instances_per_s)",
        latency_of: "one regeneration of all figures",
        why: "what a reader of the paper runs: four failure figures, four protocols, plus the phi and partial-deployment analyses, through the experiments runner",
    },
    Workload {
        name: "campaign_cold",
        op: "grid cell (cells_per_s)",
        latency_of: "one campaign",
        why: "batch user, no cache: every cell converges, replays and observes, on the sharded runner at nproc workers",
    },
    Workload {
        name: "campaign_warm",
        op: "grid cell (cells_per_s)",
        latency_of: "one campaign",
        why: "same grid with every baseline cached: restore, replay and observe with zero convergence, where a cheaper fork must show",
    },
    Workload {
        name: "query_hit",
        op: "reply (queries_per_s)",
        latency_of: "one request, client send to END line",
        why: "daemon user on loopback, unbounded cache: every what-if forks a resident baseline; read side of cache and checkpoint",
    },
    Workload {
        name: "query_churn",
        op: "reply (queries_per_s)",
        latency_of: "one request, client send to END line",
        why: "same daemon with room for 4 of 12 baselines and skewed keys: misses converge, checkpoint, put and evict beside the reads",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// End-to-end metrics, measured with tracing off. Every workload reports
/// every one; what an operation and a latency sample are is per workload
/// (see [`WORKLOADS`]).
pub const END_TO_END: [Metric; 5] = [
    m("ops_per_s", "1/s_host", "higher"),
    m("latency_p50_ms", "ms_host", "lower"),
    m("latency_p95_ms", "ms_host", "lower"),
    m("peak_rss_mb", "MB", "lower"),
    m("setup_s", "s", "lower"),
];

/// Per-layer metrics, measured by the traced run. Two kinds share the
/// list: unit costs of a layer, probed on seeded inputs that do not
/// depend on the workload (`*_ns`/`*_us`/`*_ms` without a `trace.`
/// prefix), and this workload's own traced pass (`trace.*`, counts,
/// ratios, `experiments.*`, `queryd.*` request times). A layer a workload
/// does not enter reads 0 there — that is the layer contrast.
pub const PER_LAYER: [Metric; 83] = [
    // eventsim
    m("eventsim.sched_ns_per_op", "ns_host", "lower"),
    m("eventsim.events", "events_sim", "lower"),
    // topology
    m("topology.generate_ms.500", "ms_host", "lower"),
    m("topology.generate_ms.2000", "ms_host", "lower"),
    m("topology.generate_ms.8000", "ms_host", "lower"),
    m("topology.static_routes_us", "us_host", "lower"),
    m("topology.without_links_us", "us_host", "lower"),
    m("topology.uphill_dag_us", "us_host", "lower"),
    m("topology.disjoint_us", "us_host", "lower"),
    // policy
    m("policy.compile_us", "us_host", "lower"),
    m("policy.parse_pol_us", "us_host", "lower"),
    // bgp engine, and R-BGP / STAMP routers on the same engine
    m("bgp.converge_ms.500", "ms_host", "lower"),
    m("bgp.converge_ms.2000", "ms_host", "lower"),
    m("bgp.converge_ms.8000", "ms_host", "lower"),
    m("bgp.ns_per_event.500", "ns_host", "lower"),
    m("bgp.ns_per_event.2000", "ns_host", "lower"),
    m("bgp.ns_per_event.8000", "ns_host", "lower"),
    m("bgp.events.500", "events_sim", "lower"),
    m("bgp.events.2000", "events_sim", "lower"),
    m("bgp.events.8000", "events_sim", "lower"),
    m("bgp.scaling_exponent", "ratio", "lower"),
    m("bgp.rib_decide_ns", "ns_host", "lower"),
    m("bgp.delivered", "count", "lower"),
    m("bgp.coalesced", "count", "higher"),
    m("bgp.dropped", "count", "lower"),
    m("bgp.interned_paths", "count", "lower"),
    m("rbgp.converge_ms.2000", "ms_host", "lower"),
    m("rbgp.ns_per_event.2000", "ns_host", "lower"),
    m("rbgp.events.2000", "events_sim", "lower"),
    m("core.converge_ms.2000", "ms_host", "lower"),
    m("core.ns_per_event.2000", "ns_host", "lower"),
    m("core.events.2000", "events_sim", "lower"),
    // forwarding
    m("forwarding.observe_us.bgp", "us_host", "lower"),
    m("forwarding.observe_us.rbgp", "us_host", "lower"),
    m("forwarding.observe_us.stamp", "us_host", "lower"),
    m("forwarding.observe_share", "ratio", "lower"),
    // workload (sim facade, timelines, cache, campaign runner)
    m("workload.sim_build_us", "us_host", "lower"),
    m("workload.sim_restore_us", "us_host", "lower"),
    m("workload.checkpoint_us", "us_host", "lower"),
    m("workload.cache_get_ns", "ns_host", "lower"),
    m("workload.cache_put_us", "us_host", "lower"),
    m("workload.play_null_ms", "ms_host", "lower"),
    m("workload.measure_ms", "ms_host", "lower"),
    m("workload.replay_events", "events_sim", "lower"),
    m("workload.timeline_resolve_us", "us_host", "lower"),
    m("workload.scn_parse_us", "us_host", "lower"),
    m("workload.cache_hit_ratio", "ratio", "higher"),
    m("workload.cache_evictions", "count", "lower"),
    m("workload.parallel_efficiency", "ratio", "higher"),
    // experiments (figure runner)
    m("experiments.fig1_ms", "ms_host", "lower"),
    m("experiments.fig2_ms", "ms_host", "lower"),
    m("experiments.fig3a_ms", "ms_host", "lower"),
    m("experiments.fig3b_ms", "ms_host", "lower"),
    m("experiments.node_failure_ms", "ms_host", "lower"),
    m("experiments.partial_ms", "ms_host", "lower"),
    m("experiments.parallel_efficiency", "ratio", "higher"),
    // queryd (protocol, engine, server)
    m("queryd.startup_ms", "ms_host", "lower"),
    m("queryd.parse_us", "us_host", "lower"),
    m("queryd.format_us", "us_host", "lower"),
    m("queryd.execute_ms", "ms_host", "lower"),
    m("queryd.transport_us", "us_host", "lower"),
    m("queryd.whatif_fail_link_ms", "ms_host", "lower"),
    m("queryd.whatif_drain_node_ms", "ms_host", "lower"),
    m("queryd.show_route_us", "us_host", "lower"),
    m("queryd.show_disjointness_us", "us_host", "lower"),
    m("queryd.err_frames", "count", "lower"),
    m("queryd.span_coverage", "ratio", "higher"),
    // this workload's traced pass: self time per layer, and its spans
    m("trace.topology_ms", "ms_host", "lower"),
    m("trace.bgp_converge_ms", "ms_host", "lower"),
    m("trace.forwarding_ms", "ms_host", "lower"),
    m("trace.workload_ms", "ms_host", "lower"),
    m("trace.experiments_ms", "ms_host", "lower"),
    m("trace.queryd_ms", "ms_host", "lower"),
    m("trace.transport_ms", "ms_host", "lower"),
    m("trace.sim_build_ms", "ms_host", "lower"),
    m("trace.sim_restore_ms", "ms_host", "lower"),
    m("trace.replay_ms", "ms_host", "lower"),
    m("trace.cache_ms", "ms_host", "lower"),
    m("trace.checkpoint_ms", "ms_host", "lower"),
    m("trace.spans", "count", "lower"),
    m("trace.pass_ms", "ms_host", "lower"),
    m("trace.untraced_pass_ms", "ms_host", "lower"),
    m("trace_overhead_share", "ratio", "lower"),
];

/// What each ratio is a ratio of: a report prints the base beside every
/// ratio, so a share is never read without knowing of what.
pub fn ratio_base(name: &str) -> Option<&'static str> {
    Some(match name {
        "bgp.scaling_exponent" => {
            "ln(converge_ms.8000 / converge_ms.500) / ln(16): log-slope of host time over AS count"
        }
        "forwarding.observe_share" => "(measure_ms - play_null_ms) / measure_ms",
        "workload.cache_hit_ratio" => "hits / (hits + misses) of this traced pass",
        "workload.parallel_efficiency" => {
            "cells/s at nproc workers / (nproc x cells/s at 1 worker)"
        }
        "experiments.parallel_efficiency" => {
            "Figure 2 at 1 worker / (nproc x Figure 2 at nproc workers)"
        }
        "queryd.span_coverage" => "shadow's product steps / execute span, median over the what-ifs",
        "trace_overhead_share" => "(traced pass - untraced pass) / untraced pass",
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn valid_unit(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 16
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name), "{} used twice", w.name);
        }
        for x in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(valid_name(x.name), "{}", x.name);
            assert!(valid_unit(x.unit), "{} unit {}", x.name, x.unit);
            assert!(matches!(x.better, "higher" | "lower"), "{}", x.name);
            assert!(seen.insert(x.name), "{} used twice", x.name);
        }
        assert!(PER_LAYER.len() <= 128);
        for x in PER_LAYER.iter().filter(|x| x.unit == "ratio") {
            assert!(ratio_base(x.name).is_some(), "{} has no base", x.name);
        }
        let setup = END_TO_END.iter().find(|x| x.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
    }

    /// `BENCHMARK.json` is a hand-written file the acceptance check reads;
    /// this keeps it equal to the tables the binary emits from.
    #[test]
    fn benchmark_json_lists_exactly_these() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let keys: Vec<&str> = doc.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let names = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|e| {
                    let got: Vec<&str> = e.fields().iter().map(|(k, _)| k.as_str()).collect();
                    assert_eq!(got, fields, "{key} entry keys");
                    fields
                        .iter()
                        .map(|f| match e.get(f).unwrap() {
                            Json::Str(s) => s.clone(),
                            other => other.to_string(),
                        })
                        .collect()
                })
                .collect()
        };
        let want: Vec<Vec<String>> = WORKLOADS
            .iter()
            .map(|w| vec![w.name.to_string(), w.why.to_string()])
            .collect();
        assert_eq!(names("workloads", &["name", "why"]), want);
        let got = names("end_to_end", &["name", "unit", "better", "bound"]);
        assert_eq!(got.len(), END_TO_END.len());
        for (g, x) in got.iter().zip(&END_TO_END) {
            assert_eq!(g[..3], [x.name, x.unit, x.better]);
            let bound: f64 = g[3].parse().unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{} bound {bound}", x.name);
        }
        let want: Vec<Vec<String>> = PER_LAYER
            .iter()
            .map(|x| vec![x.name.to_string(), x.unit.to_string(), x.better.to_string()])
            .collect();
        assert_eq!(names("per_layer", &["name", "unit", "better"]), want);
        let secs = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&secs) && secs.fract() == 0.0);
        assert!(text.len() <= 64 * 1024);
    }
}
