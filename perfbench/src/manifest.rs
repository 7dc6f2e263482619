//! The benchmark's definition: workloads, metrics, units and bounds.  The
//! repository's `BENCHMARK.json` is this module rendered by
//! `srra-perfbench manifest`; a test keeps the two identical.

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 20;

/// `(name, why)` of every workload.
pub const WORKLOADS: [(&str, &str); 3] = [
    (
        "sweep_cold",
        "cold Explorer sweeps of the paper kernels plus seeded 8-40 reference synthetic kernels: the compiler path through ir, reuse, dfg, core and fpga, no sockets",
    ),
    (
        "get_hot",
        "closed-loop binary keep-alive gets, Zipf keys with 10% misses, over 10k stored records: codec, dispatch, sharded store reads and the socket, no engine work",
    ),
    (
        "cluster_mix",
        "open-loop JSON mget and explore batches over 2 replicated nodes, some points fresh: ring routing, evaluation, segment writes and replication beside reads",
    ),
];

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Lower => "lower",
            Self::Higher => "higher",
        }
    }
}

/// One reported metric.  `bound` is the share of the parent's median by
/// which an end-to-end metric may worsen; per-layer metrics have none.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every untraced run.
pub const END_TO_END: [Metric; 8] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("throughput_ops_s", "1/s", Higher, 0.25),
    e2e("latency_p50_us", "us", Lower, 0.25),
    e2e("latency_p99_us", "us", Lower, 0.25),
    e2e("slo_met_ratio", "ratio", Higher, 0.05),
    e2e("cpu_ms_per_kop", "ms", Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Lower, 0.25),
    e2e("design_cycles_geomean", "cycles", Lower, 0.1),
];

/// Per-layer metrics, reported by every traced run (0 where a workload
/// never enters the layer).
pub const PER_LAYER: [Metric; 47] = [
    layer("ir.build_us", "us", Lower),
    layer("reuse.analysis_us", "us", Lower),
    layer("dfg.build_us", "us", Lower),
    layer("dfg.critical_us", "us", Lower),
    layer("dfg.cuts_us", "us", Lower),
    layer("dfg.cuts_returned", "count", Lower),
    layer("dfg.cuts_capped", "count", Lower),
    layer("core.allocate_us.none", "us", Lower),
    layer("core.allocate_us.fr", "us", Lower),
    layer("core.allocate_us.pr", "us", Lower),
    layer("core.allocate_us.cpa", "us", Lower),
    layer("core.allocate_us.ks", "us", Lower),
    layer("core.allocate_us.greedy", "us", Lower),
    layer("core.infeasible_ratio", "ratio", Lower),
    layer("core.replacement_plan_us", "us", Lower),
    layer("core.memory_cost_us", "us", Lower),
    layer("fpga.evaluate_us", "us", Lower),
    layer("fpga.schedule_us", "us", Lower),
    layer("fpga.area_us", "us", Lower),
    layer("fpga.clock_us", "us", Lower),
    layer("fpga.pieces_over_evaluate", "ratio", Lower),
    layer("explore.evaluate_point_us", "us", Lower),
    layer("explore.store_get_ns", "ns", Lower),
    layer("explore.store_put_ns", "ns", Lower),
    layer("explore.wire_encode_ns", "ns", Lower),
    layer("explore.wire_decode_ns", "ns", Lower),
    layer("explore.json_render_ns", "ns", Lower),
    layer("explore.json_parse_ns", "ns", Lower),
    layer("explore.segment_append_us", "us", Lower),
    layer("serve.store_get_ns", "ns", Lower),
    layer("serve.ping_rtt_us", "us", Lower),
    layer("serve.get_rtt_us", "us", Lower),
    layer("serve.residual_us", "us", Lower),
    layer("serve.hit_ratio", "ratio", Higher),
    layer("serve.store_put_us", "us", Lower),
    layer("serve.evaluated", "count", Lower),
    layer("cluster.ring_owners_ns", "ns", Lower),
    layer("cluster.mget_rtt_us", "us", Lower),
    layer("cluster.explore_rtt_us", "us", Lower),
    layer("cluster.tee_puts_per_fresh_point", "ratio", Lower),
    layer("cluster.failures", "count", Lower),
    layer("obs.histogram_record_ns", "ns", Lower),
    layer("loadgen.request_us", "us", Lower),
    layer("loadgen.send_lag_p99_us", "us", Lower),
    layer("loadgen.max_lag_us", "us", Lower),
    layer("trace.overhead_pct", "%", Lower),
    layer("trace.spans", "count", Lower),
];

/// Per-layer metrics measured as span self times: `(metric, span, ns per
/// unit)`.  The metric is the mean self time per call.
pub const SPAN_METRICS: [(&str, &str, f64); 34] = [
    ("ir.build_us", "ir.build", 1e3),
    ("reuse.analysis_us", "reuse.analysis", 1e3),
    ("dfg.build_us", "dfg.build", 1e3),
    ("dfg.critical_us", "dfg.critical", 1e3),
    ("dfg.cuts_us", "dfg.cuts", 1e3),
    ("core.allocate_us.none", "core.allocate.none", 1e3),
    ("core.allocate_us.fr", "core.allocate.fr", 1e3),
    ("core.allocate_us.pr", "core.allocate.pr", 1e3),
    ("core.allocate_us.cpa", "core.allocate.cpa", 1e3),
    ("core.allocate_us.ks", "core.allocate.ks", 1e3),
    ("core.allocate_us.greedy", "core.allocate.greedy", 1e3),
    ("core.replacement_plan_us", "core.replacement_plan", 1e3),
    ("core.memory_cost_us", "core.memory_cost", 1e3),
    ("fpga.evaluate_us", "fpga.evaluate", 1e3),
    ("fpga.schedule_us", "fpga.schedule", 1e3),
    ("fpga.area_us", "fpga.area", 1e3),
    ("fpga.clock_us", "fpga.clock", 1e3),
    ("explore.evaluate_point_us", "explore.evaluate_point", 1e3),
    ("explore.store_get_ns", "explore.store_get", 1.0),
    ("explore.store_put_ns", "explore.store_put", 1.0),
    ("explore.wire_encode_ns", "explore.wire_encode", 1.0),
    ("explore.wire_decode_ns", "explore.wire_decode", 1.0),
    ("explore.json_render_ns", "explore.json_render", 1.0),
    ("explore.json_parse_ns", "explore.json_parse", 1.0),
    ("explore.segment_append_us", "explore.segment_append", 1e3),
    ("serve.store_get_ns", "serve.store_get", 1.0),
    ("serve.ping_rtt_us", "serve.ping_rtt", 1e3),
    ("serve.get_rtt_us", "serve.get_rtt", 1e3),
    ("serve.store_put_us", "serve.store_put", 1e3),
    ("cluster.ring_owners_ns", "cluster.ring_owners", 1.0),
    ("cluster.mget_rtt_us", "cluster.mget_rtt", 1e3),
    ("cluster.explore_rtt_us", "cluster.explore_rtt", 1e3),
    ("obs.histogram_record_ns", "obs.histogram_record", 1.0),
    ("loadgen.request_us", "loadgen.request", 1e3),
];

/// Looks a metric up by name in either list.
pub fn metric(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|metric| metric.name == name)
}

/// `BENCHMARK.json`, rendered.
pub fn render() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--offline\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n");
    out.push_str("  \"paths\": [\"perfbench\"],\n");
    out.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    out.push_str("  \"workloads\": [\n");
    for (index, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if index + 1 < WORKLOADS.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}\n"
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"end_to_end\": [\n");
    render_metrics(&mut out, &END_TO_END);
    out.push_str("  ],\n");
    out.push_str("  \"per_layer\": [\n");
    render_metrics(&mut out, &PER_LAYER);
    out.push_str("  ]\n}\n");
    out
}

fn render_metrics(out: &mut String, metrics: &[Metric]) {
    for (index, metric) in metrics.iter().enumerate() {
        let comma = if index + 1 < metrics.len() { "," } else { "" };
        let bound = metric
            .bound
            .map_or_else(String::new, |bound| format!(", \"bound\": {bound}"));
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}{comma}\n",
            metric.name,
            metric.unit,
            metric.better.as_str()
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_is_this_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        assert_eq!(
            on_disk,
            render(),
            "regenerate with `srra-perfbench manifest`"
        );
    }

    #[test]
    fn names_are_unique_and_span_metrics_are_listed() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.name)
            .collect();
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count);
        for (name, _, _) in SPAN_METRICS {
            assert!(PER_LAYER.iter().any(|m| m.name == name), "{name}");
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        let setup = metric("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
    }
}
