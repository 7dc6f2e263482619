//! Quickstart: allocate registers for the paper's running example and inspect the
//! result of each algorithm.
//!
//! Run with:
//!
//! ```text
//! cargo run --example quickstart
//! ```

use srra_core::{memory_cost_on_dfg, AllocatorRegistry, CompiledKernel, MemoryCostModel};
use srra_ir::examples::paper_example;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build (or load) a kernel and wrap it in a CompiledKernel: the shared
    //    analysis context every pipeline stage draws from.  `paper_example()`
    //    is the loop nest of Figure 1:
    //    d[i][k] = a[k] * b[k][j];  e[i][j][k] = c[j] * d[i][k];
    let kernel = CompiledKernel::new(paper_example());
    println!("{}", kernel.kernel());

    // 2. Inspect the data-reuse analysis: how many registers does each reference
    //    need and how many memory accesses would a full replacement eliminate?
    //    The analysis is computed here, once; every allocator below reuses it.
    println!("reference          R_full   saved    gamma");
    for summary in kernel.analysis() {
        println!(
            "{:<18} {:>6} {:>7} {:>8.1}",
            summary.rendered(),
            summary.registers_full(),
            summary.saved_full(),
            summary.benefit_cost()
        );
    }

    // 3. Allocate a 64-register budget with every registered strategy and compare
    //    the memory cycles of the resulting designs.  The registry supplies the
    //    strategies — including ones, like `greedy`, that no pipeline layer
    //    names explicitly.  The cost model shares the context's memoized
    //    data-flow graph too.
    let model = MemoryCostModel::default();
    println!("\nalgorithm  registers  distribution                          Tmem/outer");
    for allocator in AllocatorRegistry::global().iter() {
        let allocation = allocator.allocate(&kernel, 64)?;
        let cost = memory_cost_on_dfg(
            kernel.kernel(),
            kernel.analysis(),
            kernel.dfg(),
            &allocation,
            &model,
        );
        println!(
            "{:<10} {:>9}  {:<36} {:>10}",
            allocator.label(),
            allocation.total_registers(),
            allocation.distribution(),
            cost.memory_cycles_per_outer_iteration
        );
    }

    Ok(())
}
