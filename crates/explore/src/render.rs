//! Text and CSV rendering of exploration results.

use std::fmt::Write as _;

use crate::engine::Exploration;
use crate::pareto::{best_allocators, pareto_frontier, BestAllocator};
use crate::store::PointRecord;

fn escape_csv(field: &str) -> String {
    if field.contains(',') || field.contains('"') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_owned()
    }
}

/// Renders one kernel's Pareto frontier as an aligned text table.
pub fn render_frontier(kernel: &str, frontier: &[PointRecord]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Pareto frontier for {kernel} (minimising cycles, slices, registers):"
    );
    let _ = writeln!(
        out,
        "{:<8} {:>6} {:>7} {:<15} {:>10} {:>12} {:>8} {:>9} {:>10} {:>10} {:>5}",
        "algo",
        "budget",
        "latency",
        "device",
        "registers",
        "cycles",
        "slices",
        "blockRAMs",
        "clock(ns)",
        "time(us)",
        "fits"
    );
    for record in frontier {
        let _ = writeln!(
            out,
            "{:<8} {:>6} {:>7} {:<15} {:>10} {:>12} {:>8} {:>9} {:>10.2} {:>10.1} {:>5}",
            record.algorithm,
            record.budget,
            record.ram_latency,
            record.device,
            record.registers_used,
            record.total_cycles,
            record.slices,
            record.block_rams,
            record.clock_period_ns,
            record.execution_time_us,
            if record.fits { "yes" } else { "NO" }
        );
    }
    out
}

/// Renders every kernel's Pareto frontier followed by the best-allocator
/// summary — the default `srra explore` output.
pub fn render_exploration(run: &Exploration) -> String {
    let mut out = String::new();
    for kernel in run.kernel_names() {
        let frontier = pareto_frontier(run.kernel_records(kernel));
        out.push_str(&render_frontier(kernel, &frontier));
        out.push('\n');
    }
    out.push_str(&render_best_allocators(&best_allocators(&run.records)));
    out
}

/// Renders the per-kernel best-allocator summary.
pub fn render_best_allocators(best: &[BestAllocator]) -> String {
    let mut out = String::from("best allocator per kernel:\n");
    let _ = writeln!(
        out,
        "{:<8} {:<8} {:>6} {:>12} {:>10} {:>14} {:>5}",
        "kernel", "algo", "budget", "cycles", "registers", "vs worst", "fits"
    );
    for entry in best {
        let _ = writeln!(
            out,
            "{:<8} {:<8} {:>6} {:>12} {:>10} {:>13.1}% {:>5}",
            entry.kernel,
            entry.algorithm,
            entry.budget,
            entry.total_cycles,
            entry.registers_used,
            entry.reduction_vs_worst_pct,
            if entry.fits { "yes" } else { "NO" }
        );
    }
    out
}

/// Renders every record (not just the frontier) as CSV, one line per design
/// point, in point order.
pub fn exploration_csv(run: &Exploration) -> String {
    let mut out = String::from(
        "kernel,algorithm,version,budget,ram_latency,device,feasible,fits,registers,\
         total_cycles,compute_cycles,memory_cycles,transfer_cycles,clock_period_ns,\
         execution_time_us,slices,block_rams,distribution\n",
    );
    for r in &run.records {
        let _ = writeln!(
            out,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{:.3},{:.3},{},{},{}",
            escape_csv(&r.kernel),
            escape_csv(&r.algorithm),
            escape_csv(&r.version),
            r.budget,
            r.ram_latency,
            escape_csv(&r.device),
            r.feasible,
            r.fits,
            r.registers_used,
            r.total_cycles,
            r.compute_cycles,
            r.memory_cycles,
            r.transfer_cycles,
            r.clock_period_ns,
            r.execution_time_us,
            r.slices,
            r.block_rams,
            escape_csv(&r.distribution)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Explorer;
    use crate::space::DesignSpace;
    use crate::store::MemoryStore;
    use srra_ir::examples::paper_example;

    fn run() -> Exploration {
        let space = DesignSpace::new()
            .with_kernel(paper_example())
            .with_budgets(&[16, 64]);
        Explorer::new(1)
            .explore(&space, &mut MemoryStore::new())
            .unwrap()
    }

    #[test]
    fn text_render_covers_frontier_and_summary() {
        let text = render_exploration(&run());
        assert!(text.contains("Pareto frontier for paper_example"));
        assert!(text.contains("best allocator per kernel:"));
        assert!(text.contains("CPA-RA"));
    }

    #[test]
    fn csv_has_one_line_per_record() {
        let run = run();
        let csv = exploration_csv(&run);
        assert_eq!(csv.lines().count(), run.records.len() + 1);
        let header_fields = csv.lines().next().unwrap().split(',').count();
        for line in csv.lines().skip(1) {
            assert_eq!(line.split(',').count(), header_fields, "line: {line}");
        }
    }

    #[test]
    fn fields_with_commas_are_quoted() {
        assert_eq!(escape_csv("a,b"), "\"a,b\"");
        assert_eq!(escape_csv("plain"), "plain");
        assert_eq!(escape_csv("qu\"ote"), "\"qu\"\"ote\"");
    }

    #[test]
    fn renders_are_deterministic() {
        assert_eq!(render_exploration(&run()), render_exploration(&run()));
        assert_eq!(exploration_csv(&run()), exploration_csv(&run()));
    }
}
