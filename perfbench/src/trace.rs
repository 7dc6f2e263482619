//! In-memory spans recorded by the benchmark around its calls into the
//! workspace crates, and the self-time aggregation the per-layer metrics
//! come from.
//!
//! A span has a name, start, end, parent and operation id.  Spans stay in
//! memory for the whole run and are written out once, at exit.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.  `items` is the number of calls a batch span
/// covers (1 for a span around a single call).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
    pub items: u64,
}

/// One thread's span recorder.  A disabled tracer records nothing, so the
/// untraced runs pay one branch per would-be span.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Self {
            epoch,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, op: u64) -> usize {
        if !self.enabled {
            return usize::MAX;
        }
        let start_ns = self.now_ns();
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
            items: 1,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one), covering `items` calls.
    pub fn end_items(&mut self, id: usize, items: u64) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let closed = self.open.pop();
        debug_assert_eq!(closed, Some(id), "spans close innermost first");
        self.spans[id].end_ns = end_ns;
        self.spans[id].items = items;
    }

    pub fn end(&mut self, id: usize) {
        self.end_items(id, 1);
    }

    /// Runs `call` inside a span of its own.
    pub fn time<T>(&mut self, name: &'static str, op: u64, call: impl FnOnce() -> T) -> T {
        let id = self.begin(name, op);
        let value = call();
        self.end(id);
        value
    }

    /// Runs `call`, which makes `items` calls of one kind, inside one span.
    pub fn time_batch<T>(
        &mut self,
        name: &'static str,
        op: u64,
        items: u64,
        call: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, op);
        let value = call();
        self.end_items(id, items);
        value
    }
}

/// Self time and call count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerStat {
    pub self_ns: u64,
    pub calls: u64,
}

impl LayerStat {
    /// Mean self time per call in `unit_ns` units (1 for ns, 1000 for µs).
    pub fn mean(&self, unit_ns: f64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64 / unit_ns
        }
    }
}

/// Folds spans into per-name self times: each span's duration minus the
/// part covered by its direct children.
pub fn self_times<'a>(
    tracers: impl IntoIterator<Item = &'a Tracer>,
) -> BTreeMap<&'static str, LayerStat> {
    let mut stats: BTreeMap<&'static str, LayerStat> = BTreeMap::new();
    for tracer in tracers {
        let spans = tracer.spans();
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        for (span, children) in spans.iter().zip(child_ns) {
            let entry = stats.entry(span.name).or_default();
            entry.self_ns += (span.end_ns - span.start_ns).saturating_sub(children);
            entry.calls += span.items;
        }
    }
    stats
}

/// Writes every span as one tab-separated line:
/// `thread id parent op name start_ns end_ns items`.
pub fn write_spans<'a>(
    path: &Path,
    tracers: impl IntoIterator<Item = &'a Tracer>,
) -> std::io::Result<usize> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "thread\tid\tparent\top\tname\tstart_ns\tend_ns\titems")?;
    let mut written = 0;
    for (thread, tracer) in tracers.into_iter().enumerate() {
        for (id, span) in tracer.spans().iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "-".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{thread}\t{id}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                span.op, span.name, span.start_ns, span.end_ns, span.items
            )?;
            written += 1;
        }
    }
    out.flush()?;
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
            items: 1,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut tracer = Tracer::new(Instant::now(), true);
        tracer.spans = vec![
            span("request", 0, 100, None),
            span("rtt", 10, 70, Some(0)),
            span("decode", 20, 30, Some(1)),
            span("check", 75, 95, Some(0)),
        ];
        let stats = self_times([&tracer]);
        assert_eq!(
            stats["request"],
            LayerStat {
                self_ns: 20,
                calls: 1
            }
        );
        assert_eq!(
            stats["rtt"],
            LayerStat {
                self_ns: 50,
                calls: 1
            }
        );
        assert_eq!(
            stats["decode"],
            LayerStat {
                self_ns: 10,
                calls: 1
            }
        );
        assert_eq!(stats["check"].self_ns, 20);
        assert_eq!(stats["rtt"].mean(1_000.0), 0.05);
    }

    #[test]
    fn nesting_and_batches_are_recorded() {
        let mut tracer = Tracer::new(Instant::now(), true);
        let outer = tracer.begin("outer", 7);
        let sum = tracer.time_batch("inner", 7, 4, || (0..4u64).sum::<u64>());
        tracer.end(outer);
        assert_eq!(sum, 6);
        assert_eq!(tracer.spans()[1].parent, Some(0));
        assert_eq!(tracer.spans()[1].op, 7);
        assert_eq!(self_times([&tracer])["inner"].calls, 4);

        let mut off = Tracer::new(Instant::now(), false);
        let id = off.begin("x", 0);
        off.end(id);
        assert!(off.spans().is_empty());
    }
}
