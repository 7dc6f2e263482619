//! End-to-end telemetry over a live socket: trace ids round-trip
//! client → server → reply, the `metrics` op answers structured JSON and
//! Prometheus text with non-zero counters after a mixed workload, and the
//! slow-query threshold turns requests into `serve_slow_queries_total`.

use std::path::PathBuf;

use srra_serve::{Connection, QueryPoint, Server, ServerConfig};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("srra-serve-obs-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn traces_round_trip_and_metrics_expose_the_workload() {
    let dir = scratch_dir("trace");
    let server = Server::bind(&ServerConfig {
        shards: 2,
        workers: 2,
        ..ServerConfig::ephemeral(dir.clone())
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server run"));

    let mut connection = Connection::connect(&addr).expect("connect");

    // Untraced requests echo nothing.
    connection.ping().expect("ping");
    assert_eq!(connection.last_trace(), None);

    // A traced mixed get/mexplore workload: every reply echoes the id that
    // was stamped on its request, across op shapes and the reconnecting
    // round-trip path.
    connection
        .set_trace(Some("req-alpha.1"))
        .expect("valid trace id");
    let miss = connection
        .get("kernel=fir;algo=CPA-RA;budget=32;latency=2;device=XCV1000-BG560")
        .expect("get");
    assert!(miss.is_none(), "cold shard misses");
    assert_eq!(connection.last_trace(), Some("req-alpha.1"));

    let points = vec![
        QueryPoint::new("fir", "cpa", 32),
        QueryPoint::new("fir", "fr", 32),
    ];
    connection.set_trace(Some("req-alpha.2")).expect("valid");
    let explored = connection.mexplore(&points).expect("mexplore");
    assert_eq!(explored.outcomes.len(), 2);
    assert_eq!(explored.evaluated, 2);
    assert_eq!(connection.last_trace(), Some("req-alpha.2"));

    // Clearing the trace stops the stamping (and therefore the echo).
    connection.set_trace(None).expect("clearing is fine");
    let hit = connection
        .get("kernel=fir;algo=CPA-RA;budget=32;latency=2;device=XCV1000-BG560")
        .expect("warm get");
    assert!(hit.is_some(), "evaluated above");
    assert_eq!(connection.last_trace(), None);

    // Bad ids are rejected client-side, before any bytes move, as the
    // caller's error rather than the server's.
    assert!(connection.set_trace(Some("")).is_err());
    let err = connection
        .set_trace(Some("has space"))
        .expect_err("a space is not a trace id character");
    assert!(matches!(&err, srra_serve::ClientError::InvalidTrace(id) if id == "has space"));
    assert_eq!(
        err.to_string(),
        "invalid trace id `has space`: want 1..=64 bytes of [A-Za-z0-9._-]"
    );
    assert!(connection.set_trace(Some(&"x".repeat(65))).is_err());

    // The structured metrics snapshot reflects the workload above.
    let snapshot = connection.metrics().expect("metrics");
    let counter = |name: &str| snapshot.counter(name).unwrap_or(0);
    assert!(counter("serve_requests_total") >= 4, "{snapshot:?}");
    assert!(counter("serve_op_get_total") >= 2);
    assert!(counter("serve_op_mexplore_total") >= 1);
    assert!(counter("serve_traced_requests_total") >= 2);
    assert!(counter("serve_hits_total") >= 1);
    assert!(counter("serve_misses_total") >= 1);
    assert!(counter("serve_evaluated_total") >= 2);
    // Global instruments flow through the same scrape (the in-process server
    // shares this process's global registry, so only non-zero is asserted).
    assert!(counter("explore_evaluations_total") >= 1);
    assert!(counter("store_shard_reads_total") >= 1);
    assert!(counter("client_connects_total") >= 1);
    assert!(
        snapshot.gauge("serve_open_connections").unwrap_or(0) >= 1,
        "this keep-alive connection is open"
    );
    let get_latency = snapshot
        .histogram("serve_op_get_latency_us")
        .expect("get latency histogram present");
    assert!(get_latency.count() >= 2);
    assert!(get_latency.quantile(0.5) <= get_latency.quantile(0.99));

    // The Prometheus exposition is well-formed text over the same data.
    let text = connection.metrics_text().expect("metrics --prom");
    assert!(
        text.contains("# TYPE serve_requests_total counter"),
        "{text}"
    );
    assert!(text.contains("# TYPE serve_open_connections gauge"));
    assert!(text.contains("# TYPE serve_op_get_latency_us histogram"));
    assert!(text.contains("serve_op_get_latency_us_bucket{le=\"+Inf\"}"));
    assert!(text.contains("serve_op_get_latency_us_count"));
    assert!(
        !text.contains("serve_requests_total 0\n"),
        "the workload counters are non-zero: {text}"
    );

    connection.shutdown().expect("shutdown");
    handle.join().expect("server thread");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn trace_op_round_trips_spans_over_the_binary_codec() {
    let dir = scratch_dir("binary-trace");
    let server = Server::bind(&ServerConfig {
        shards: 2,
        workers: 2,
        ..ServerConfig::ephemeral(dir.clone())
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server run"));

    let mut connection = Connection::connect_binary(&addr).expect("connect binary");
    connection.set_trace(Some("bin-sweep.1")).expect("valid");
    let explored = connection
        .explore(&[QueryPoint::new("fir", "cpa", 32)])
        .expect("explore");
    assert_eq!(explored.evaluated, 1);
    assert_eq!(connection.last_trace(), Some("bin-sweep.1"));

    // The flight recorder answers the whole span tree through the binary
    // `trace` op: one root request span, stage children parented under it.
    connection.set_trace(None).expect("clear");
    let spans = connection.trace_spans("bin-sweep.1").expect("trace op");
    let root = spans
        .iter()
        .find(|span| span.parent_id == 0)
        .expect("root span");
    assert_eq!(root.name, "explore");
    assert_eq!(root.trace_id, "bin-sweep.1");
    let names: Vec<&str> = spans.iter().map(|span| span.name.as_str()).collect();
    for stage in [
        "parse",
        "shard.lock_wait",
        "inflight.claim",
        "engine.allocation",
        "engine.cost_model",
        "render",
    ] {
        assert!(names.contains(&stage), "missing {stage}: {names:?}");
    }
    assert!(
        spans
            .iter()
            .all(|span| span.parent_id == 0 || span.parent_id == root.span_id),
        "single-level tree: every stage hangs off the root: {spans:?}"
    );
    let child_sum: u64 = spans
        .iter()
        .filter(|span| span.parent_id == root.span_id)
        .map(|span| span.dur_us)
        .sum();
    assert!(
        child_sum <= root.dur_us,
        "stage children are disjoint sub-intervals of the request: \
         {child_sum} > {}",
        root.dur_us
    );
    let parse = spans
        .iter()
        .find(|span| span.name == "parse")
        .expect("parse");
    assert_eq!(
        parse.annotations,
        [("codec".to_owned(), "binary".to_owned())]
    );

    // An unknown id answers an empty list, not an error.
    assert!(connection
        .trace_spans("never-sent")
        .expect("empty")
        .is_empty());

    // The traced request also left its id on the latency histogram bucket it
    // landed in — the Prometheus exposition renders it as an exemplar.
    let text = connection.metrics_text().expect("metrics --prom");
    assert!(text.contains("trace_id=\"bin-sweep.1\""), "{text}");

    connection.shutdown().expect("shutdown");
    handle.join().expect("server thread");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn slow_query_threshold_counts_and_logs_slow_requests() {
    let dir = scratch_dir("slow");
    // A 0 µs threshold is off; 1 µs makes effectively every evaluating
    // request "slow", so the counter must move after one cold explore.
    let server = Server::bind(&ServerConfig {
        shards: 2,
        workers: 2,
        slow_query_us: 1,
        ..ServerConfig::ephemeral(dir.clone())
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server run"));

    let mut connection = Connection::connect(&addr).expect("connect");
    connection.set_trace(Some("slow-probe")).expect("valid");
    let explored = connection
        .mexplore(&[QueryPoint::new("mat", "cpa", 16)])
        .expect("mexplore");
    assert_eq!(explored.evaluated, 1);

    let snapshot = connection.metrics().expect("metrics");
    assert!(
        snapshot.counter("serve_slow_queries_total").unwrap_or(0) >= 1,
        "a cold evaluation takes well over 1 µs: {snapshot:?}"
    );

    // A slow traced request is pinned into the flight recorder's retained
    // set, so its span tree stays answerable after ring churn.
    assert!(
        snapshot.counter("serve_pinned_traces_total").unwrap_or(0) >= 1,
        "{snapshot:?}"
    );
    connection.set_trace(None).expect("clear");
    let spans = connection.trace_spans("slow-probe").expect("trace op");
    assert!(
        spans.iter().any(|span| span.name == "mexplore"),
        "the pinned trace answers its root span: {spans:?}"
    );

    connection.shutdown().expect("shutdown");
    handle.join().expect("server thread");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn sampler_feeds_the_series_op_and_tight_slos_breach() {
    let dir = scratch_dir("series");
    let server = Server::bind(&ServerConfig {
        shards: 2,
        workers: 2,
        sample_interval_ms: 10,
        // Impossible to satisfy: any request at all breaches a 0% error
        // budget... so use a latency bound of 0-ish instead — every recorded
        // get latency is >= 0us, and a p99 < 1us over a busy window breaches.
        slos: vec!["serve_op_mexplore_latency_us p99 < 1us over 5s".to_owned()],
        ..ServerConfig::ephemeral(dir.clone())
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run().expect("server run"));

    let mut connection = Connection::connect(&addr).expect("connect");
    // A cold mexplore records a latency far above 1us, arming the SLO.
    let explored = connection
        .mexplore(&[QueryPoint::new("fir", "cpa", 32)])
        .expect("mexplore");
    assert_eq!(explored.outcomes.len(), 1);
    // Keep traffic flowing while the sampler accumulates a few ticks.
    for _ in 0..10 {
        connection.ping().expect("ping");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    let samples = connection.series_samples(64).expect("series");
    assert!(
        samples.len() >= 2,
        "a 10ms sampler produces many samples across 100ms: {}",
        samples.len()
    );
    assert!(
        samples
            .windows(2)
            .all(|pair| pair[0].at_us <= pair[1].at_us),
        "samples arrive oldest first"
    );

    // The trailing window covers the whole run: the request rate is positive
    // and the windowed request delta matches what this test sent.
    let delta = connection.series_delta(5_000_000).expect("series delta");
    assert!(delta.elapsed_us() > 0);
    let rate = delta.rate("serve_requests_total").expect("requests moved");
    assert!(rate > 0.0, "req/s across the window: {rate}");
    assert!(
        delta
            .quantile("serve_op_mexplore_latency_us", 0.99)
            .expect("windowed p99")
            >= 1,
        "the cold mexplore is far slower than 1us"
    );

    // The deliberately tight SLO breached on (at least) each armed tick.
    let metrics = connection.metrics().expect("metrics");
    assert!(
        metrics.counter("obs_slo_breaches_total").unwrap_or(0) >= 1,
        "{metrics:?}"
    );

    // The binary codec answers the same shapes.
    let mut binary = Connection::connect_binary(&addr).expect("binary connect");
    let samples_bin = binary.series_samples(4).expect("binary series");
    assert!(!samples_bin.is_empty() && samples_bin.len() <= 4);
    let delta_bin = binary.series_delta(5_000_000).expect("binary delta");
    assert!(delta_bin.rate("serve_requests_total").unwrap_or(0.0) > 0.0);

    // Window mode with an impossible window names the sampler knob.
    match connection.series_delta(1) {
        Err(srra_serve::ClientError::Server(message)) => {
            assert!(message.contains("sample-interval-ms"), "{message}");
        }
        other => panic!("expected a server error, got {other:?}"),
    }

    connection.shutdown().expect("shutdown");
    handle.join().expect("server thread");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
