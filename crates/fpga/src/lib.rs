//! FPGA device, scheduling, clock and area models.
//!
//! The paper evaluates its register allocation algorithms by synthesising behavioural
//! VHDL with Mentor Monet, Synplify and Xilinx ISE and running place-and-route for a
//! Virtex XCV1000 BG560 part.  That tool chain (and the device) is not available here,
//! so this crate provides the documented substitution described in `DESIGN.md`:
//!
//! * [`DeviceModel`] — the target part's resource envelope (slices, flip-flops,
//!   BlockRAMs), with an XCV1000 preset,
//! * [`ListScheduler`] — a resource-constrained list scheduler that executes the loop
//!   body DFG with RAM-port constraints and produces the steady-state iteration
//!   latency,
//! * [`ClockModel`] — an analytic estimate of the achievable clock period, including
//!   the control/mux degradation that more registers and partial replacement cause
//!   (the effect behind the paper's "clock period" column),
//! * [`AreaModel`] — slice and BlockRAM usage estimates,
//! * [`HardwareDesign`] — the combined design point (cycles, clock, wall-clock time,
//!   area), produced by [`HardwareDesign::evaluate`],
//! * [`CostTable`] — the same cost model split by what a register vector can change:
//!   a kernel's allocation-independent terms, built once per kernel and options (a
//!   table at another RAM latency keeps the list schedule and re-derives only its
//!   memory stages), then each β vector's terms ([`AllocationCost`]) once, whichever
//!   allocator chose it, then each design point's RAM latency and device terms
//!   ([`PointCost`]).  A sweep pays for each level once.
//!
//! The absolute numbers are not expected to match a 2001-era synthesis flow; the
//! *relative* behaviour (cycle-count ordering across FR-RA/PR-RA/CPA-RA, slight clock
//! degradation for the more complex designs, register/RAM trade-offs) is produced by
//! the same mechanisms and is what the Table 1 reproduction relies on.
//!
//! # Example
//!
//! ```
//! use srra_ir::examples::paper_example;
//! use srra_core::{AllocatorRegistry, CompiledKernel};
//! use srra_fpga::{DeviceModel, EvaluationOptions, HardwareDesign};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ck = CompiledKernel::new(paper_example());
//! let registry = AllocatorRegistry::global();
//! let fr = registry.get("fr").unwrap().allocate(&ck, 64)?;
//! let cpa = registry.get("cpa").unwrap().allocate(&ck, 64)?;
//! let (kernel, analysis, dfg) = (ck.kernel(), ck.analysis(), ck.dfg());
//! let options = EvaluationOptions::default();
//! let device = DeviceModel::xcv1000();
//! let fr_design = HardwareDesign::evaluate_on_dfg(kernel, analysis, dfg, &fr, &device, &options);
//! let cpa_design = HardwareDesign::evaluate_on_dfg(kernel, analysis, dfg, &cpa, &device, &options);
//! assert!(cpa_design.total_cycles < fr_design.total_cycles);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod area;
mod clock;
mod design;
mod device;
mod execute;
mod schedule;
mod table;

pub use area::{AreaEstimate, AreaModel};
pub use clock::ClockModel;
pub use design::{EvaluationOptions, HardwareDesign};
pub use device::DeviceModel;
pub use execute::{simulate, RefTraffic, SimulationResult};
pub use schedule::{IterationSchedule, ListScheduler, ResourceLimits};
pub use table::{AllocationCost, CostTable, PointCost};
