//! Process-wide telemetry substrate for the `srra` workspace.
//!
//! Every layer of the system — the parallel explore engine, the sharded TCP
//! serving front end, and the consistent-hash cluster client — records into
//! the same small vocabulary of instruments:
//!
//! * [`Counter`] — a monotonically increasing `u64` (events, totals),
//! * [`Gauge`] — a signed value that can move both ways (open connections),
//! * [`Histogram`] — a fixed 26-bucket power-of-two-microsecond latency
//!   histogram (the same bucketing the serve layer's `stats` op has exposed
//!   since it existed, lifted here so every crate shares one implementation),
//! * [`SpanTimer`] — a scoped guard that records its lifetime into a
//!   [`Histogram`] on drop.
//!
//! Instruments are owned by a [`Registry`]: a name → handle map that hands
//! out `Arc` handles.  Registration (first lookup of a name) takes a lock;
//! *recording* never does — every instrument is a plain atomic, so hot paths
//! (the serve layer's warm `get`, the explore engine's inner loop) pay a few
//! `fetch_add`s and nothing else.  [`Registry::global`] is the process-wide
//! registry used by library layers that have no server to hang state off;
//! servers own a private `Registry` per instance so per-node statistics stay
//! per-node.
//!
//! A [`MetricsSnapshot`] is a point-in-time copy of a registry, mergeable
//! across registries and across nodes (histograms merge bucket-wise), and
//! renders to a Prometheus-style text exposition (its JSON form is
//! `srra_explore::codec`'s field list).  The wire semantics of the `metrics`
//! op that serves both are documented in `docs/observability.md`.
//!
//! # Example
//!
//! ```
//! use srra_obs::{Registry, SpanTimer};
//!
//! let registry = Registry::new();
//! let requests = registry.counter("requests_total");
//! let latency = registry.histogram("request_latency_us");
//!
//! requests.inc();
//! {
//!     let _span = SpanTimer::start(&latency);
//!     // ... handle the request ...
//! } // drop records the elapsed time
//!
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counter("requests_total"), Some(1));
//! assert!(snapshot.render_prometheus().contains("# TYPE requests_total counter"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod metrics;
mod registry;
mod series;
mod snapshot;
mod span;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, SpanTimer, LATENCY_BUCKETS};
pub use registry::Registry;
pub use series::{
    Sampler, SeriesBuffer, SeriesSample, SloEvaluator, SloRule, SloStatus, SnapshotDelta,
};
pub use snapshot::{valid_metric_name, MetricsSnapshot};
pub use span::{epoch_us, next_span_id, now_us, Span, TraceBuffer};
