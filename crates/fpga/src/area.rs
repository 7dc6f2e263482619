//! Analytic area model: logic slices and BlockRAM usage.

use serde::{Deserialize, Serialize};
use srra_core::{RefTerms, ReplacementMode, ReplacementPlan};
use srra_dfg::{DataFlowGraph, NodeKind};
use srra_ir::{ArrayId, BinOp, Kernel};

use crate::device::DeviceModel;

/// Estimated resource usage of a design.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AreaEstimate {
    /// Logic slices occupied.
    pub slices: u64,
    /// BlockRAM primitives occupied.
    pub block_rams: u64,
    /// Flip-flops used for scalar-replaced data.
    pub data_flip_flops: u64,
}

impl AreaEstimate {
    /// Slice occupancy on the given device, as a fraction.
    pub fn occupancy(&self, device: &DeviceModel) -> f64 {
        device.slice_occupancy(self.slices)
    }

    /// Returns `true` when the estimate fits the device.
    pub fn fits(&self, device: &DeviceModel) -> bool {
        device.fits(self.slices, self.block_rams)
    }
}

/// Analytic area estimator.
///
/// Slices are charged for the datapath operators (per operator class, scaled by operand
/// width), the scalar-replacement register file (one slice per two flip-flops, plus
/// multiplexing for rotation), the loop control and the RAM address generators.
/// BlockRAMs are charged for every array that still has RAM-resident data.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AreaModel {
    /// Slices for the loop controller and iteration counters.
    pub control_slices: u64,
    /// Slices per bit of a multiplier operand (array multiplier cost).
    pub multiplier_slices_per_bit: f64,
    /// Slices per bit of an adder/comparator/logic operator.
    pub alu_slices_per_bit: f64,
    /// Slices per data flip-flop (two flip-flops per slice => 0.5), including packing
    /// overhead.
    pub slices_per_flip_flop: f64,
    /// Extra slices per register of a partially replaced reference (rotation muxes).
    pub mux_slices_per_partial_register: f64,
    /// Slices per RAM-resident array (address generation).
    pub address_gen_slices: u64,
}

impl Default for AreaModel {
    fn default() -> Self {
        Self {
            control_slices: 60,
            multiplier_slices_per_bit: 9.0,
            alu_slices_per_bit: 0.6,
            slices_per_flip_flop: 0.55,
            mux_slices_per_partial_register: 0.7,
            address_gen_slices: 25,
        }
    }
}

impl AreaModel {
    /// Estimates the area of a design implementing `plan` for `kernel`.
    ///
    /// This builds the kernel's data-flow graph; callers that already hold one use
    /// [`AreaModel::estimate_on_dfg`].
    pub fn estimate(
        &self,
        kernel: &Kernel,
        plan: &ReplacementPlan,
        device: &DeviceModel,
    ) -> AreaEstimate {
        self.estimate_on_dfg(kernel, &DataFlowGraph::from_kernel(kernel), plan, device)
    }

    /// [`AreaModel::estimate`] over the kernel's already-built data-flow graph `dfg`.
    pub fn estimate_on_dfg(
        &self,
        kernel: &Kernel,
        dfg: &DataFlowGraph,
        plan: &ReplacementPlan,
        device: &DeviceModel,
    ) -> AreaEstimate {
        self.allocation_area(kernel, self.operator_slices(dfg), plan.terms())
            .on(device)
    }

    /// Slices of the datapath operators: one instance per DFG operation (spatial
    /// implementation), summed in node order.
    pub(crate) fn operator_slices(&self, dfg: &DataFlowGraph) -> f64 {
        let mut operator_slices = 0.0f64;
        for node in dfg.nodes() {
            let bits = 16.0;
            match node.kind() {
                NodeKind::Binary { op, .. } => {
                    operator_slices += match op {
                        BinOp::Mul | BinOp::Div => self.multiplier_slices_per_bit * bits,
                        _ => self.alu_slices_per_bit * bits,
                    };
                }
                NodeKind::Unary { .. } => operator_slices += self.alu_slices_per_bit * bits,
                _ => {}
            }
        }
        operator_slices
    }

    /// The area terms no device changes, for the references' terms in
    /// reference-table order on top of `operator_slices`.
    pub(crate) fn allocation_area(
        &self,
        kernel: &Kernel,
        operator_slices: f64,
        refs: &[RefTerms],
    ) -> AllocationArea {
        // Scalar-replacement registers and their steering logic.
        let data_flip_flops: u64 = refs.iter().map(RefTerms::register_bits).sum();
        let mut register_slices = data_flip_flops as f64 * self.slices_per_flip_flop;
        for r in refs {
            if r.mode == ReplacementMode::Partial {
                register_slices += r.beta as f64 * self.mux_slices_per_partial_register;
            }
        }

        // RAM-resident arrays: BlockRAMs by capacity, plus address generators.
        let ram_array_bits: Vec<u64> = arrays_where(refs, |r| {
            r.steady_miss > 0.0 || r.prologue_loads > 0 || r.epilogue_stores > 0
        })
        .map(|id| kernel.array(id).expect("array exists").total_bits())
        .collect();
        let address_slices = ram_array_bits.len() as u64 * self.address_gen_slices;

        let slices = self.control_slices
            + address_slices
            + operator_slices.ceil() as u64
            + register_slices.ceil() as u64;
        AllocationArea {
            slices,
            data_flip_flops,
            ram_array_bits,
        }
    }
}

/// The area of one allocation before a device is chosen: only the BlockRAM count
/// depends on the device.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct AllocationArea {
    slices: u64,
    data_flip_flops: u64,
    /// Bits of every array that still needs its RAM block, in `ArrayId` order.
    ram_array_bits: Vec<u64>,
}

impl AllocationArea {
    /// Logic slices occupied.
    pub(crate) fn slices(&self) -> u64 {
        self.slices
    }

    /// The estimate on `device`.
    pub(crate) fn on(&self, device: &DeviceModel) -> AreaEstimate {
        AreaEstimate {
            slices: self.slices,
            block_rams: self
                .ram_array_bits
                .iter()
                .map(|bits| device.block_rams_for(*bits))
                .sum(),
            data_flip_flops: self.data_flip_flops,
        }
    }
}

/// The distinct arrays of the references `keep` selects, in `ArrayId` order.
pub(crate) fn arrays_where(
    refs: &[RefTerms],
    keep: impl Fn(&RefTerms) -> bool,
) -> impl Iterator<Item = ArrayId> {
    let arrays = refs.iter().map(|r| r.array.index() + 1).max().unwrap_or(0);
    let mut kept = vec![false; arrays];
    for r in refs.iter().filter(|r| keep(r)) {
        kept[r.array.index()] = true;
    }
    kept.into_iter()
        .enumerate()
        .filter(|&(_, kept)| kept)
        .map(|(index, _)| ArrayId::new(index))
}

#[cfg(test)]
mod tests {
    use super::*;
    use srra_core::{AllocatorRegistry, CompiledKernel, ReplacementPlan};
    use srra_ir::examples::paper_example;

    fn estimate(name: &str, budget: u64) -> AreaEstimate {
        let ck = CompiledKernel::new(paper_example());
        let allocator = AllocatorRegistry::global().get(name).unwrap();
        let allocation = allocator.allocate(&ck, budget).unwrap();
        let plan = ReplacementPlan::new(ck.kernel(), ck.analysis(), &allocation);
        AreaModel::default().estimate(ck.kernel(), &plan, &DeviceModel::xcv1000())
    }

    #[test]
    fn more_registers_cost_more_slices() {
        let base = estimate("none", 0);
        let fr = estimate("fr", 64);
        let cpa = estimate("cpa", 64);
        assert!(fr.slices > base.slices);
        assert!(cpa.slices > base.slices);
        assert_eq!(base.data_flip_flops, 0);
        assert_eq!(fr.data_flip_flops, 53 * 16);
        assert_eq!(cpa.data_flip_flops, 64 * 16);
    }

    #[test]
    fn fully_replaced_read_only_arrays_still_occupy_their_block_ram() {
        // Even a fully replaced reference needs its array in RAM for the prologue
        // loads, so the BlockRAM count does not drop below the number of live arrays.
        let base = estimate("none", 0);
        let fr = estimate("fr", 64);
        assert_eq!(base.block_rams, fr.block_rams);
    }

    #[test]
    fn estimates_fit_the_paper_device() {
        let device = DeviceModel::xcv1000();
        for name in ["none", "fr", "pr", "cpa"] {
            let est = estimate(name, 64);
            assert!(est.fits(&device), "{name} should fit: {est:?}");
            assert!(est.occupancy(&device) < 0.5);
        }
    }
}
