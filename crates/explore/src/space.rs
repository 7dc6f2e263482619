//! The design-space specification: which (kernel, allocator, budget, RAM
//! latency, device) combinations an exploration covers.

use std::fmt::Write as _;

use srra_core::{AllocatorRef, AllocatorRegistry, CompiledKernel};
use srra_fpga::DeviceModel;

/// 64-bit FNV-1a hash, used to content-address design points.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A cross-product design space over kernels, allocation algorithms, register
/// budgets, RAM latencies and target devices.
///
/// The defaults mirror the paper's single evaluation point — the three Table 1
/// algorithms at 32 registers on an XCV1000 with the default hardware RAM
/// latency — so a space is useful as soon as it has one kernel:
///
/// ```
/// use srra_explore::DesignSpace;
/// use srra_ir::examples::paper_example;
///
/// let space = DesignSpace::new()
///     .with_kernel(paper_example())
///     .with_budgets(&[16, 32, 64]);
/// assert_eq!(space.len(), 3 * 3); // 3 algorithms x 3 budgets
/// ```
#[derive(Debug, Clone)]
pub struct DesignSpace {
    kernels: Vec<CompiledKernel>,
    allocators: Vec<AllocatorRef>,
    budgets: Vec<u64>,
    ram_latencies: Vec<u64>,
    devices: Vec<DeviceModel>,
}

impl DesignSpace {
    /// An empty space with the paper's defaults on every other axis: the three
    /// Table 1 algorithms, a 32-register budget, RAM latency 2 (the
    /// `srra_fpga::EvaluationOptions` hardware default) and the XCV1000.
    pub fn new() -> Self {
        Self {
            kernels: Vec::new(),
            allocators: AllocatorRegistry::paper_versions().to_vec(),
            budgets: vec![32],
            ram_latencies: vec![2],
            devices: vec![DeviceModel::xcv1000()],
        }
    }

    /// A space over the given kernels with the default axes.
    pub fn for_kernels<K>(kernels: impl IntoIterator<Item = K>) -> Self
    where
        K: Into<CompiledKernel>,
    {
        Self::new().with_kernels(kernels)
    }

    /// Adds one kernel (a plain `Kernel` or an already-shared
    /// [`CompiledKernel`] whose memoized analyses carry over).
    #[must_use]
    pub fn with_kernel(mut self, kernel: impl Into<CompiledKernel>) -> Self {
        self.kernels.push(kernel.into());
        self
    }

    /// Adds several kernels.
    #[must_use]
    pub fn with_kernels<K>(mut self, kernels: impl IntoIterator<Item = K>) -> Self
    where
        K: Into<CompiledKernel>,
    {
        self.kernels.extend(kernels.into_iter().map(Into::into));
        self
    }

    /// Replaces the allocator axis with registry handles ([`AllocatorRef`]).
    #[must_use]
    pub fn with_allocators(mut self, allocators: &[AllocatorRef]) -> Self {
        self.allocators = allocators.to_vec();
        self
    }

    /// Replaces the register-budget axis.
    #[must_use]
    pub fn with_budgets(mut self, budgets: &[u64]) -> Self {
        self.budgets = budgets.to_vec();
        self
    }

    /// Replaces the RAM-latency axis (cycles per RAM access, applied to both
    /// the memory-cycle metric and the hardware evaluation).
    #[must_use]
    pub fn with_ram_latencies(mut self, latencies: &[u64]) -> Self {
        self.ram_latencies = latencies.to_vec();
        self
    }

    /// Replaces the device axis.
    #[must_use]
    pub fn with_devices(mut self, devices: Vec<DeviceModel>) -> Self {
        self.devices = devices;
        self
    }

    /// The kernels on the kernel axis, with their shared analysis contexts.
    pub fn kernels(&self) -> &[CompiledKernel] {
        &self.kernels
    }

    /// Number of design points in the cross product.
    pub fn len(&self) -> usize {
        self.kernels.len()
            * self.allocators.len()
            * self.budgets.len()
            * self.ram_latencies.len()
            * self.devices.len()
    }

    /// Whether the cross product is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Materialises every design point, in a deterministic order (kernel-major,
    /// then allocator, budget, latency, device).
    pub fn points(&self) -> Vec<DesignPoint> {
        let mut points = Vec::with_capacity(self.len());
        for (kernel_index, kernel) in self.kernels.iter().enumerate() {
            for &allocator in &self.allocators {
                for &budget in &self.budgets {
                    for &ram_latency in &self.ram_latencies {
                        for device in &self.devices {
                            points.push(DesignPoint {
                                kernel_index,
                                kernel: kernel.name().to_owned(),
                                allocator,
                                budget,
                                ram_latency,
                                device: device.clone(),
                            });
                        }
                    }
                }
            }
        }
        points
    }
}

impl Default for DesignSpace {
    fn default() -> Self {
        Self::new()
    }
}

/// One point of a [`DesignSpace`]: a fully specified evaluation request.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// Index of the kernel in the owning space's kernel list.
    pub kernel_index: usize,
    /// Kernel name (also part of the content address).
    pub kernel: String,
    /// Allocation strategy to run, resolved from the registry.
    pub allocator: AllocatorRef,
    /// Register budget `N_R`.
    pub budget: u64,
    /// RAM access latency in cycles.
    pub ram_latency: u64,
    /// Target device.
    pub device: DeviceModel,
}

impl DesignPoint {
    /// The canonical key string this point is content-addressed by:
    /// `kernel=K;algo=A;budget=N;latency=L;device=D`.
    pub fn canonical(&self) -> String {
        let (label, device) = (self.allocator.label(), self.device.name());
        // The field names and separators, the three names, and two u64s of
        // at most 20 digits each.
        let names = self.kernel.len() + label.len() + device.len();
        let mut canonical = String::with_capacity(38 + names + 2 * 20);
        canonical.push_str("kernel=");
        canonical.push_str(&self.kernel);
        canonical.push_str(";algo=");
        canonical.push_str(label);
        let _ = write!(
            canonical,
            ";budget={};latency={};device=",
            self.budget, self.ram_latency
        );
        canonical.push_str(device);
        canonical
    }

    /// The FNV-1a hash of [`DesignPoint::canonical`], the store key.
    pub fn key(&self) -> u64 {
        fnv1a_64(self.canonical().as_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srra_core::AllocatorRegistry;
    use srra_ir::examples::paper_example;

    #[test]
    fn cross_product_is_exhaustive_and_ordered() {
        let registry = AllocatorRegistry::global();
        let space = DesignSpace::new()
            .with_kernel(paper_example())
            .with_allocators(&[registry.get("fr").unwrap(), registry.get("cpa").unwrap()])
            .with_budgets(&[16, 32])
            .with_ram_latencies(&[1, 2])
            .with_devices(vec![DeviceModel::xcv1000(), DeviceModel::xcv300()]);
        let points = space.points();
        assert_eq!(points.len(), space.len());
        assert_eq!(points.len(), 2 * 2 * 2 * 2);
        // Deterministic order: repeated materialisation matches.
        assert_eq!(points, space.points());
        // Every canonical key is distinct.
        let mut keys: Vec<String> = points.iter().map(DesignPoint::canonical).collect();
        keys.sort();
        keys.dedup();
        assert_eq!(keys.len(), points.len());
    }

    #[test]
    fn keys_are_stable_content_addresses() {
        let space = DesignSpace::new().with_kernel(paper_example());
        let points = space.points();
        for point in &points {
            assert_eq!(point.key(), fnv1a_64(point.canonical().as_bytes()));
        }
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
    }
}
