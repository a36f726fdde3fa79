//! The metric and workload registry: every name the benchmark prints,
//! with its unit, direction and (end-to-end only) regression bound.
//! `BENCHMARK.json` at the repository root states the same tables; a unit
//! test keeps the two from drifting apart.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

/// One metric definition.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before
    /// it counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// Metrics a user of the system sees; reported by every workload with
/// `--trace 0`.
pub const END_TO_END: &[MetricDef] = &[
    e2e("wall_s", "s", Lower, 0.25),
    e2e("ops_per_s", "1/s", Higher, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Metrics of single layers (layer = crate); reported by every workload
/// with `--trace 1`, 0 where the workload does not drive the layer.
pub const PER_LAYER: &[MetricDef] = &[
    // mot-net
    layer("net.graph_build_s", "s", Lower),
    layer("net.oracle_build_s", "s", Lower),
    layer("net.oracle_calls", "count", Lower),
    layer("net.oracle_busy_s", "s", Lower),
    layer("net.oracle_us_per_miss", "us", Lower),
    layer("net.oracle_hits", "count", Higher),
    layer("net.oracle_misses", "count", Lower),
    layer("net.oracle_promotions", "count", Lower),
    layer("net.oracle_evictions", "count", Lower),
    layer("net.oracle_resident_mb", "MiB", Lower),
    // mot-hierarchy
    layer("hierarchy.build_s", "s", Lower),
    layer("hierarchy.build_us_per_node", "us", Lower),
    layer("hierarchy.height", "count", Lower),
    layer("hierarchy.members_total", "count", Lower),
    layer("hierarchy.mirror_build_s", "s", Lower),
    layer("hierarchy.repair_ms_per_delta", "ms", Lower),
    layer("hierarchy.repair_units", "count", Lower),
    layer("hierarchy.membership_flips", "count", Lower),
    // mot-core
    layer("core.publish_us", "us", Lower),
    layer("core.move_ops_per_s", "1/s", Higher),
    layer("core.query_ops_per_s", "1/s", Higher),
    layer("core.move_p50_us", "us", Lower),
    layer("core.move_p99_us", "us", Lower),
    layer("core.query_p50_us", "us", Lower),
    layer("core.query_p99_us", "us", Lower),
    layer("core.move_self_us", "us", Lower),
    layer("core.query_self_us", "us", Lower),
    layer("core.tracker_publish_ns", "ns", Lower),
    layer("core.tracker_move_ns", "ns", Lower),
    layer("core.tracker_query_ns", "ns", Lower),
    layer("core.tracker_busy_s", "s", Lower),
    layer("core.ledger_admit_ns", "ns", Lower),
    layer("core.move_cost_ratio", "ratio", Lower),
    layer("core.query_cost_ratio", "ratio", Lower),
    // mot-proto
    layer("proto.publish_us", "us", Lower),
    layer("proto.move_us", "us", Lower),
    layer("proto.query_us", "us", Lower),
    layer("proto.arena_reuse_share", "share", Higher),
    // mot-sim
    layer("sim.workload_gen_s", "s", Lower),
    layer("sim.stream_ns_per_op", "ns", Lower),
    layer("sim.service_overhead_ns_per_op", "ns", Lower),
    layer("sim.service_overhead_share", "share", Lower),
    layer("sim.jobs2_ops_per_s", "1/s", Higher),
    layer("sim.jobs2_efficiency", "share", Higher),
    layer("sim.ticks", "count", Lower),
    layer("sim.retries", "count", Lower),
    layer("sim.dup_deliveries", "count", Lower),
    layer("sim.fenced", "count", Lower),
    layer("sim.crash_events", "count", Lower),
    layer("sim.replayed_ops", "count", Lower),
    layer("sim.redelivered", "count", Lower),
    layer("sim.degraded", "count", Lower),
    layer("sim.backlog_depth_p99", "count", Lower),
    layer("sim.backlog_age_p99_ticks", "count", Lower),
    // mot-baselines / mot-bench
    layer("baselines.tree_build_s", "s", Lower),
    layer("bench.fig4_s", "s", Lower),
    layer("bench.fig6_s", "s", Lower),
    layer("bench.fig12_s", "s", Lower),
    layer("bench.fig14_s", "s", Lower),
    layer("bench.fig4_mot_ratio_1024", "ratio", Lower),
    // the harness itself
    layer("trace.overhead_share", "share", Lower),
];

/// The workloads, with the one-line reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "cold_start_grid256",
        "cold start: 256x256 grid, cached oracle, doubling hierarchy, 100 publishes, first query; \
         hierarchy build is 70% of it, mot-sim is bypassed",
    ),
    (
        "replay_grid256",
        "steady-state tracker ops at 65536 nodes: 100000 moves then 500 queries, oracle-bound \
         (row cache misses); hierarchy build is in set-up, the service loop is bypassed",
    ),
    (
        "service_soak",
        "every service layer on: 32x32 grid, 200000-op stream with churn under drops, dups, \
         delays, dead links and shard crashes; oracle and hierarchy build are bypassed (dense bed)",
    ),
    (
        "service_reads",
        "the same service fault-free and read-heavy (80% Zipf queries): a move-path, coin or \
         ledger gain that costs queries or the clean path shows here",
    ),
    (
        "figures_standard",
        "figure regeneration (fig4, fig6, fig12, fig14 at the standard profile, 2 jobs): the only \
         workload driving the baselines, the concurrent engine and the parallel cell runner",
    ),
];

/// Looks up a per-layer metric.
pub fn layer_def(name: &str) -> Option<&'static MetricDef> {
    PER_LAYER.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};

    /// The spelling `BENCHMARK.json` uses.
    fn label(b: Better) -> &'static str {
        match b {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Number of members of a JSON object.
    fn members(v: &Value) -> usize {
        match v {
            Value::Object(m) => m.len(),
            _ => panic!("not an object: {v:?}"),
        }
    }

    fn name_ok(s: &str) -> bool {
        let first = s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        first
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name), "{}", m.name);
            assert!(seen.insert(m.name), "{} listed twice", m.name);
            assert!(
                m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {}",
                m.name,
                m.unit
            );
        }
        for (name, why) in WORKLOADS {
            assert!(name_ok(name), "{name}");
            assert!(seen.insert(name), "{name} listed twice");
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}: why");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
    }

    /// `BENCHMARK.json` and this registry are two statements of one
    /// contract; this fails when only one of them is edited.
    #[test]
    fn benchmark_json_states_the_same_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = parse(&std::fs::read_to_string(path).unwrap()).unwrap();

        let listed =
            |key: &str| -> Vec<Value> { doc.get(key).unwrap().as_array().unwrap().to_vec() };
        let field = |v: &Value, k: &str| v.get(k).unwrap().as_str().unwrap().to_string();

        let e2e = listed("end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (v, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(field(v, "name"), m.name);
            assert_eq!(field(v, "unit"), m.unit);
            assert_eq!(field(v, "better"), label(m.better));
            assert_eq!(v.get("bound").unwrap().as_f64(), Some(m.bound));
            assert_eq!(members(v), 4);
        }
        let layers = listed("per_layer");
        assert_eq!(layers.len(), PER_LAYER.len());
        for (v, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(field(v, "name"), m.name);
            assert_eq!(field(v, "unit"), m.unit);
            assert_eq!(field(v, "better"), label(m.better));
            assert_eq!(members(v), 3);
        }
        let workloads = listed("workloads");
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (v, (name, why)) in workloads.iter().zip(WORKLOADS) {
            assert_eq!(field(v, "name"), *name);
            assert_eq!(field(v, "why"), *why);
        }
        assert_eq!(
            doc.get("run_seconds").unwrap().as_f64(),
            Some(crate::DEFAULT_SECONDS as f64)
        );
    }
}
