//! Walk through the CPA-RA machinery on a matrix-multiply kernel: build the DFG,
//! extract the critical graph, enumerate its cuts and show how the allocation evolves.
//!
//! Run with:
//!
//! ```text
//! cargo run --example matmul_allocation
//! ```

use srra_core::{AllocatorRegistry, CompiledKernel};
use srra_dfg::find_cuts;
use srra_kernels::mat;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The CompiledKernel context memoizes the DFG, the baseline critical-path
    // analysis and the reuse analysis — each is computed once below and shared
    // with the three allocator runs.
    let kernel = CompiledKernel::new(mat::mat(16)?);
    println!("{}", kernel.kernel());

    // The data-flow graph of one iteration of the loop body.
    let dfg = kernel.dfg();
    println!(
        "DFG: {} nodes ({} references, {} operations), {} edges",
        dfg.node_count(),
        dfg.reference_nodes().len(),
        dfg.operation_nodes().len(),
        dfg.edge_count()
    );

    // Critical graph and cuts with everything still in RAM.
    let analysis = kernel.critical_path();
    println!(
        "critical path length with all references in RAM: {} cycles",
        analysis.critical_length()
    );
    let cg = analysis.critical_graph();
    println!("critical graph nodes:");
    for &node in cg.nodes() {
        println!("  {}", dfg.node(node).label());
    }
    println!("cuts of the critical graph:");
    for cut in find_cuts(dfg, cg) {
        let labels: Vec<_> = cut.iter().map(|&n| dfg.node(n).label()).collect();
        println!("  {{{}}}", labels.join(", "));
    }

    // Compare the allocations for a 32-register budget.
    println!("\nallocations with 32 registers:");
    for allocator in AllocatorRegistry::paper_versions() {
        let allocation = allocator.allocate(&kernel, 32)?;
        println!(
            "  {:<7} -> {}  ({} registers, {} fully / {} partially replaced)",
            allocator.label(),
            allocation.distribution(),
            allocation.total_registers(),
            allocation.fully_replaced(),
            allocation.partially_replaced()
        );
    }
    Ok(())
}
