//! Point-in-time metric sets: merging and exposition.

use std::collections::BTreeMap;

use crate::metrics::HistogramSnapshot;

/// Whether `name` is a legal metric name (`[A-Za-z0-9_]+`, non-empty).
///
/// [`crate::Registry`] enforces this at registration; wire decoders use it
/// to validate names arriving from peers before rendering them back out.
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty() && name.bytes().all(|b| b.is_ascii_alphanumeric() || b == b'_')
}

/// A point-in-time copy of a [`crate::Registry`], sorted by name.
///
/// Snapshots merge — across the per-server and global registries of one
/// process, and across nodes when the cluster client aggregates a
/// fleet-wide scrape — and render to a Prometheus-style text exposition.
/// Their JSON form, the `metrics` op's reply body, is the field list in
/// `srra_explore::codec`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Histogram bucket sets, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// Human description of a metric, emitted as its `# HELP` exposition line.
///
/// Load-bearing names get specific text; everything else falls back on its
/// naming-convention shape, so a freshly added instrument is never left
/// without a HELP line.
fn help_for(name: &str) -> &'static str {
    match name {
        "serve_connections_total" => return "Connections accepted by the serve listener.",
        "serve_requests_total" => return "Requests handled, across every op and codec.",
        "serve_hits_total" => return "Store lookups answered from a shard.",
        "serve_misses_total" => return "Store lookups that missed every shard.",
        "serve_evaluated_total" => return "Design points evaluated on demand.",
        "serve_traced_requests_total" => return "Requests carrying a trace id.",
        "serve_pinned_traces_total" => {
            return "Slow traces pinned into the flight recorder's retained set."
        }
        "serve_slow_queries_total" => return "Requests at or over the --slow-query-us threshold.",
        "serve_idle_reaped_total" => {
            return "Connections closed after exceeding the --idle-timeout-secs deadline."
        }
        "serve_open_connections" => return "Currently open client connections.",
        "serve_codec_binary_total" => return "Requests decoded from binary wire frames.",
        "serve_codec_json_total" => return "Requests decoded from JSON lines.",
        "serve_inflight_claims_total" => {
            return "In-flight table claims taken (first evaluator of a point)."
        }
        "serve_inflight_waits_total" => {
            return "Waits behind another request's in-flight evaluation of the same point."
        }
        "serve_codec_parse_us" => return "Request parse time in microseconds.",
        "serve_codec_render_us" => return "Reply render time in microseconds.",
        "explore_evaluations_total" => return "Design points evaluated by the explore engine.",
        "explore_infeasible_total" => return "Design points found infeasible by their allocator.",
        "explore_store_reads_total" => return "Result-store lookups by the explore engine.",
        "explore_store_writes_total" => return "Result-store write-backs by the explore engine.",
        "explore_reuse_analysis_us" => return "Reuse-analysis stage time in microseconds.",
        "explore_allocation_us" => {
            return "Register-allocation time in microseconds, one sample per allocation (per run)."
        }
        "explore_cost_model_us" => {
            return "Cost-model time in microseconds, one sample per feasible design point."
        }
        "store_shard_reads_total" => return "Shard read-lock acquisitions.",
        "store_shard_writes_total" => return "Records appended to shard segment stores.",
        "store_shard_flushes_total" => {
            return "Shard flushes that wrote buffered appends to a segment file."
        }
        "store_shard_read_wait_us" => return "Shard read-lock wait in microseconds.",
        "store_shard_write_wait_us" => return "Shard write-lock wait in microseconds.",
        "store_rehydrate_us" => return "Startup shard re-hydration time in microseconds.",
        "store_torn_segments_total" => return "Torn segment tails truncated away at open.",
        "client_connects_total" => return "Sockets opened by the wire client.",
        "client_reconnect_retries_total" => return "Stale-socket reconnect-and-retry round trips.",
        "cluster_requests_routed_total" => {
            return "Node calls routed successfully by the cluster client."
        }
        "cluster_node_failures_total" => return "Nodes marked down after an I/O failure.",
        "cluster_node_recoveries_total" => return "Nodes recovered from a down mark.",
        "cluster_backoff_fastfails_total" => {
            return "Calls failed fast inside a reconnect back-off window."
        }
        "cluster_failover_requeues_total" => {
            return "Batch items re-queued to a replica successor."
        }
        "cluster_tee_stored_total" => return "Replica-tee records newly stored.",
        "cluster_tee_failures_total" => return "Replica-tee calls that failed.",
        "cluster_timeouts_total" => return "Node calls failed by an I/O deadline expiry.",
        "cluster_read_repairs_total" => {
            return "Replica-served reads teed back to their primary (read-repair)."
        }
        "cluster_repair_records_total" => return "Records copied by anti-entropy repair.",
        "cluster_nodes_down" => return "Nodes currently marked down by health tracking.",
        "obs_slo_breaches_total" => return "SLO rule evaluations that found the rule in breach.",
        "obs_slos_breached" => return "SLO rules currently in breach.",
        _ => {}
    }
    if name.starts_with("serve_op_") {
        if name.ends_with("_latency_us") {
            return "Per-op service time in microseconds.";
        }
        if name.ends_with("_total") {
            return "Per-op request count.";
        }
    }
    if name.ends_with("_us") {
        return "Latency histogram in microseconds.";
    }
    if name.ends_with("_total") {
        return "Monotone event count.";
    }
    "Instrument of the srra telemetry registry."
}

fn merge_sorted<T, F: Fn(&mut T, &T)>(mine: &mut Vec<(String, T)>, theirs: &[(String, T)], fold: F)
where
    T: Clone,
{
    let mut merged: BTreeMap<String, T> = mine.drain(..).collect();
    for (name, value) in theirs {
        match merged.get_mut(name) {
            Some(existing) => fold(existing, value),
            None => {
                merged.insert(name.clone(), value.clone());
            }
        }
    }
    mine.extend(merged);
}

impl MetricsSnapshot {
    /// True when no instrument was ever registered.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Value of the counter named `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, value)| *value)
    }

    /// Value of the gauge named `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, value)| *value)
    }

    /// Bucket set of the histogram named `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, snapshot)| snapshot)
    }

    /// Folds `other` into `self`: counters and gauges sum by name,
    /// histograms merge bucket-wise, names only one side knows are kept.
    /// The result stays sorted by name.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        merge_sorted(&mut self.counters, &other.counters, |mine, theirs| {
            *mine = mine.saturating_add(*theirs)
        });
        merge_sorted(&mut self.gauges, &other.gauges, |mine, theirs| {
            *mine = mine.saturating_add(*theirs)
        });
        merge_sorted(&mut self.histograms, &other.histograms, |mine, theirs| {
            mine.merge(theirs)
        });
    }

    /// Renders a Prometheus-style text exposition.
    ///
    /// Every family gets a `# HELP` description and a `# TYPE` line;
    /// histograms render as cumulative `name_bucket{le="..."}` samples (the
    /// `le` bounds are the buckets' inclusive upper bounds in microseconds,
    /// then `+Inf`) plus `name_count`.  No `name_sum` is emitted — the
    /// fixed-bucket histograms do not track one.  A bucket carrying an
    /// exemplar appends it in OpenMetrics syntax:
    /// `... # {trace_id="req-1"} <le-bound>`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(1024);
        let header = |out: &mut String, name: &str, kind: &str| {
            out.push_str("# HELP ");
            out.push_str(name);
            out.push(' ');
            out.push_str(help_for(name));
            out.push_str("\n# TYPE ");
            out.push_str(name);
            out.push(' ');
            out.push_str(kind);
            out.push('\n');
        };
        for (name, value) in &self.counters {
            header(&mut out, name, "counter");
            out.push_str(name);
            out.push(' ');
            out.push_str(&value.to_string());
            out.push('\n');
        }
        for (name, value) in &self.gauges {
            header(&mut out, name, "gauge");
            out.push_str(name);
            out.push(' ');
            out.push_str(&value.to_string());
            out.push('\n');
        }
        for (name, snapshot) in &self.histograms {
            header(&mut out, name, "histogram");
            let mut cumulative = 0u64;
            for (index, &count) in snapshot.buckets().iter().enumerate() {
                cumulative += count;
                out.push_str(name);
                out.push_str("_bucket{le=\"");
                let bound = (1u64 << index) - 1;
                out.push_str(&bound.to_string());
                out.push_str("\"} ");
                out.push_str(&cumulative.to_string());
                if let Some(Some(trace_id)) = snapshot.exemplars().get(index) {
                    out.push_str(" # {trace_id=\"");
                    out.push_str(trace_id);
                    out.push_str("\"} ");
                    out.push_str(&bound.to_string());
                }
                out.push('\n');
            }
            out.push_str(name);
            out.push_str("_bucket{le=\"+Inf\"} ");
            out.push_str(&cumulative.to_string());
            out.push('\n');
            out.push_str(name);
            out.push_str("_count ");
            out.push_str(&cumulative.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Registry, LATENCY_BUCKETS};

    fn sample() -> MetricsSnapshot {
        let registry = Registry::new();
        registry.counter("requests_total").add(7);
        registry.gauge("open_connections").set(-2);
        let latency = registry.histogram("get_latency_us");
        latency.record_micros(40);
        latency.record_micros(40);
        latency.record_micros(5_000);
        registry.snapshot()
    }

    #[test]
    fn prometheus_rendering_is_cumulative() {
        let text = sample().render_prometheus();
        assert!(text.contains("# TYPE requests_total counter\nrequests_total 7\n"));
        assert!(text.contains("# TYPE open_connections gauge\nopen_connections -2\n"));
        assert!(text.contains("# TYPE get_latency_us histogram\n"));
        assert!(text.contains("get_latency_us_bucket{le=\"63\"} 2\n"));
        assert!(text.contains("get_latency_us_bucket{le=\"8191\"} 3\n"));
        assert!(text.contains("get_latency_us_bucket{le=\"+Inf\"} 3\n"));
        assert!(text.contains("get_latency_us_count 3\n"));
        assert_eq!(
            text.lines()
                .filter(|line| line.starts_with("get_latency_us_bucket"))
                .count(),
            LATENCY_BUCKETS + 1
        );
    }

    #[test]
    fn prometheus_rendering_carries_help_lines() {
        let text = sample().render_prometheus();
        assert!(
            text.contains(
                "# HELP requests_total Monotone event count.\n# TYPE requests_total counter\n"
            ),
            "{text}"
        );
        assert!(
            text.contains("# HELP open_connections Instrument of the srra telemetry registry.\n")
        );
        assert!(text.contains("# HELP get_latency_us Latency histogram in microseconds.\n"));
        // Known names get their specific descriptions.
        let registry = Registry::new();
        registry.counter("serve_requests_total").inc();
        registry.counter("serve_op_get_total").inc();
        registry
            .histogram("serve_op_get_latency_us")
            .record_micros(3);
        let text = registry.snapshot().render_prometheus();
        assert!(text.contains(
            "# HELP serve_requests_total Requests handled, across every op and codec.\n"
        ));
        assert!(text.contains("# HELP serve_op_get_total Per-op request count.\n"));
        assert!(
            text.contains("# HELP serve_op_get_latency_us Per-op service time in microseconds.\n")
        );
    }

    #[test]
    fn exemplars_render_in_json_and_openmetrics_syntax() {
        let registry = Registry::new();
        let latency = registry.histogram("get_latency_us");
        latency.record_micros(40);
        latency.record_traced(std::time::Duration::from_micros(40), "req-warm");
        latency.record_traced(std::time::Duration::from_micros(5_000), "req-slow");
        let snapshot = registry.snapshot();

        let text = snapshot.render_prometheus();
        assert!(
            text.contains("get_latency_us_bucket{le=\"63\"} 2 # {trace_id=\"req-warm\"} 63\n"),
            "{text}"
        );
        assert!(
            text.contains("get_latency_us_bucket{le=\"8191\"} 3 # {trace_id=\"req-slow\"} 8191\n"),
            "{text}"
        );
        assert!(
            text.contains("get_latency_us_bucket{le=\"+Inf\"} 3\n"),
            "the +Inf bucket never carries an exemplar: {text}"
        );
    }

    #[test]
    fn merging_sums_counters_and_buckets_and_keeps_unshared_names() {
        let mut mine = sample();
        let other = Registry::new();
        other.counter("requests_total").add(3);
        other.counter("evictions_total").inc();
        other.histogram("get_latency_us").record_micros(40);
        mine.merge(&other.snapshot());
        assert_eq!(mine.counter("requests_total"), Some(10));
        assert_eq!(mine.counter("evictions_total"), Some(1));
        assert_eq!(mine.histogram("get_latency_us").map(|h| h.count()), Some(4));
        assert_eq!(mine.gauge("open_connections"), Some(-2));
        let names: Vec<&str> = mine.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["evictions_total", "requests_total"], "still sorted");
    }

    #[test]
    fn metric_name_validity() {
        assert!(valid_metric_name("serve_op_get_total"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name("bad name"));
        assert!(!valid_metric_name("bad-name"));
    }
}
