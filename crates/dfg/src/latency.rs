use std::collections::HashMap;

use serde::{Deserialize, Serialize};
use srra_ir::{BinOp, RefId, UnOp};

use crate::graph::{Node, NodeKind};

/// Where the elements of a reference group live during execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Storage {
    /// The elements are held in discrete registers: accesses cost
    /// [`LatencyModel::register_latency`] cycles.
    Register,
    /// The elements stay in a RAM block: accesses cost [`LatencyModel::ram_latency`]
    /// cycles.
    Ram,
}

/// Assignment of a [`Storage`] class to each reference group of a kernel.
///
/// The default ([`StorageMap::all_ram`]) keeps every reference in RAM, which is the
/// state of the computation before any register allocation.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct StorageMap {
    placements: HashMap<RefId, Storage>,
}

impl StorageMap {
    /// A map that keeps every reference in RAM (the `v0` baseline).
    pub fn all_ram() -> Self {
        Self::default()
    }

    /// Sets the storage class of a reference.
    pub fn set(&mut self, ref_id: RefId, storage: Storage) {
        self.placements.insert(ref_id, storage);
    }

    /// Returns a copy with the given reference placed in registers.
    #[must_use]
    pub fn with_register(mut self, ref_id: RefId) -> Self {
        self.set(ref_id, Storage::Register);
        self
    }

    /// The storage class of a reference ([`Storage::Ram`] when never set).
    pub fn storage(&self, ref_id: RefId) -> Storage {
        self.placements
            .get(&ref_id)
            .copied()
            .unwrap_or(Storage::Ram)
    }
}

/// Latencies (in clock cycles) of operations and memory accesses.
///
/// The defaults follow the paper's abstraction: numeric operation latencies are known
/// constants, register accesses are free (the value is already in a flip-flop next to
/// the datapath) and a RAM-block access costs one cycle.  The FPGA model in `srra-fpga`
/// uses the same table for its scheduler, with a configurable RAM latency to explore
/// the paper's "latency of a single access" concurrency argument.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyModel {
    add_like: u64,
    mul: u64,
    div: u64,
    compare: u64,
    logic: u64,
    unary: u64,
    register_latency: u64,
    ram_latency: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self {
            add_like: 1,
            mul: 2,
            div: 8,
            compare: 1,
            logic: 1,
            unary: 1,
            register_latency: 0,
            ram_latency: 1,
        }
    }
}

impl LatencyModel {
    /// Creates the default model (see the type-level documentation).
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a copy with a different RAM access latency.
    #[must_use]
    pub fn with_ram_latency(mut self, cycles: u64) -> Self {
        self.ram_latency = cycles;
        self
    }

    /// Returns a copy with a different register access latency.
    #[must_use]
    pub fn with_register_latency(mut self, cycles: u64) -> Self {
        self.register_latency = cycles;
        self
    }

    /// Returns a copy with a different multiplier latency.
    #[must_use]
    pub fn with_mul_latency(mut self, cycles: u64) -> Self {
        self.mul = cycles;
        self
    }

    /// Latency of a RAM-block access.
    pub fn ram_latency(&self) -> u64 {
        self.ram_latency
    }

    /// Latency of a register access.
    pub fn register_latency(&self) -> u64 {
        self.register_latency
    }

    /// Latency of a binary operator.
    pub fn binary_latency(&self, op: BinOp) -> u64 {
        match op {
            BinOp::Add | BinOp::Sub | BinOp::Min | BinOp::Max => self.add_like,
            BinOp::Mul => self.mul,
            BinOp::Div => self.div,
            BinOp::CmpEq | BinOp::CmpNe | BinOp::CmpLt | BinOp::CmpGt => self.compare,
            BinOp::And | BinOp::Or | BinOp::Xor => self.logic,
            _ => self.add_like,
        }
    }

    /// Latency of a unary operator.
    pub fn unary_latency(&self, _op: UnOp) -> u64 {
        self.unary
    }

    /// Latency of a memory access given the storage class of its reference.
    pub fn access_latency(&self, storage: Storage) -> u64 {
        match storage {
            Storage::Register => self.register_latency,
            Storage::Ram => self.ram_latency,
        }
    }

    /// Latency of an arbitrary DFG node under the given storage assignment.
    pub fn node_latency(&self, node: &Node, storage: &StorageMap) -> u64 {
        match node.kind() {
            NodeKind::Reference { ref_id, .. } => self.access_latency(storage.storage(*ref_id)),
            NodeKind::Binary { op, .. } => self.binary_latency(*op),
            NodeKind::Unary { op, .. } => self.unary_latency(*op),
            NodeKind::Input => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_latencies() {
        let m = LatencyModel::default();
        assert_eq!(m.binary_latency(BinOp::Add), 1);
        assert_eq!(m.binary_latency(BinOp::Mul), 2);
        assert_eq!(m.binary_latency(BinOp::Div), 8);
        assert_eq!(m.binary_latency(BinOp::CmpLt), 1);
        assert_eq!(m.binary_latency(BinOp::Xor), 1);
        assert_eq!(m.unary_latency(UnOp::Neg), 1);
        assert_eq!(m.access_latency(Storage::Ram), 1);
        assert_eq!(m.access_latency(Storage::Register), 0);
    }

    #[test]
    fn builders_override_fields() {
        let m = LatencyModel::new()
            .with_ram_latency(3)
            .with_register_latency(1)
            .with_mul_latency(4);
        assert_eq!(m.ram_latency(), 3);
        assert_eq!(m.register_latency(), 1);
        assert_eq!(m.binary_latency(BinOp::Mul), 4);
    }

    #[test]
    fn storage_map_defaults_to_ram() {
        let map = StorageMap::all_ram();
        assert_eq!(map.storage(RefId::new(0)), Storage::Ram);
        let map = map.with_register(RefId::new(2));
        assert_eq!(map.storage(RefId::new(2)), Storage::Register);
        assert_eq!(map.storage(RefId::new(1)), Storage::Ram);
    }

    #[test]
    fn set_overwrites_previous_placement() {
        let mut map = StorageMap::all_ram();
        map.set(RefId::new(0), Storage::Register);
        map.set(RefId::new(0), Storage::Ram);
        assert_eq!(map.storage(RefId::new(0)), Storage::Ram);
    }
}
