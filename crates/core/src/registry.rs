//! The open allocator registry: strategies as trait objects instead of enum arms.
//!
//! The paper compares register-allocation strategies over one shared reuse
//! analysis.  The registry makes that comparison extensible: an allocation
//! strategy is anything implementing [`Allocator`], and the pipeline layers
//! (exploration engine, bench harness, CLI) resolve strategies through an
//! [`AllocatorRegistry`] instead of naming them.  Adding a strategy is one
//! trait impl plus one registry entry — no cross-crate edits.
//!
//! ```
//! use srra_core::{AllocatorRegistry, CompiledKernel};
//! use srra_ir::examples::paper_example;
//!
//! let ck = CompiledKernel::new(paper_example());
//! let cpa = AllocatorRegistry::global().get("cpa").unwrap();
//! let allocation = cpa.allocate(&ck, 64).unwrap();
//! assert_eq!(allocation.by_name("d").unwrap().beta(), 30);
//! // Iteration order is deterministic (registration order).
//! let names: Vec<&str> = AllocatorRegistry::global().names().collect();
//! assert_eq!(names, ["none", "fr", "pr", "cpa", "ks", "greedy"]);
//! ```

use std::sync::OnceLock;

use crate::allocation::RegisterAllocation;
use crate::context::CompiledKernel;
use crate::error::AllocError;

/// A register-allocation strategy, resolvable through the [`AllocatorRegistry`].
///
/// Implementations receive a [`CompiledKernel`] — the kernel plus its memoized
/// reuse analysis, DFG and baseline critical path — so every strategy in a
/// sweep shares one analysis instead of re-deriving it per call.
pub trait Allocator: Send + Sync {
    /// Canonical registry name, lower-case, e.g. `cpa`.  Unique per registry.
    fn name(&self) -> &'static str;

    /// The short algorithm label used in reports, e.g. `CPA-RA`.
    fn label(&self) -> &'static str;

    /// The design-version label of the paper's Table 1 (`v1`, `v2`, `v3`) or a
    /// descriptive version for strategies the paper does not evaluate.
    fn version_name(&self) -> &'static str;

    /// Extra lookup aliases accepted by [`AllocatorRegistry::get`] (the
    /// canonical name, label and version name always match).
    fn aliases(&self) -> &'static [&'static str] {
        &[]
    }

    /// Computes the register allocation for `kernel` under `budget` registers.
    ///
    /// # Errors
    ///
    /// Strategy-specific; the built-in strategies return
    /// [`AllocError::EmptyKernel`] and [`AllocError::BudgetTooSmall`].
    fn allocate(
        &self,
        kernel: &CompiledKernel,
        budget: u64,
    ) -> Result<RegisterAllocation, AllocError>;
}

/// A copyable handle to a registered [`Allocator`].
///
/// This is the value type the rest of the pipeline carries around (design
/// points, allocations, CLI arguments): `Copy`, comparable and hashable by the
/// allocator's canonical name, and forwarding the trait's accessors.
#[derive(Clone, Copy)]
pub struct AllocatorRef {
    inner: &'static dyn Allocator,
}

impl AllocatorRef {
    /// Wraps a static allocator instance.
    pub fn of(allocator: &'static dyn Allocator) -> Self {
        Self { inner: allocator }
    }

    /// Canonical registry name, e.g. `cpa`.
    pub fn name(self) -> &'static str {
        self.inner.name()
    }

    /// The short algorithm label, e.g. `CPA-RA`.
    pub fn label(self) -> &'static str {
        self.inner.label()
    }

    /// The design-version label, e.g. `v3`.
    pub fn version_name(self) -> &'static str {
        self.inner.version_name()
    }

    /// Runs the strategy; see [`Allocator::allocate`].
    ///
    /// # Errors
    ///
    /// Strategy-specific; the built-ins return [`AllocError::EmptyKernel`] and
    /// [`AllocError::BudgetTooSmall`].
    pub fn allocate(
        self,
        kernel: &CompiledKernel,
        budget: u64,
    ) -> Result<RegisterAllocation, AllocError> {
        self.inner.allocate(kernel, budget)
    }

    /// Every string [`AllocatorRegistry::get`] resolves to this entry.
    fn lookup_keys(self) -> impl Iterator<Item = &'static str> {
        [self.name(), self.label(), self.version_name()]
            .into_iter()
            .chain(self.inner.aliases().iter().copied())
    }

    fn matches(self, query: &str) -> bool {
        self.lookup_keys()
            .any(|key| query.eq_ignore_ascii_case(key))
    }
}

impl std::fmt::Debug for AllocatorRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("AllocatorRef").field(&self.name()).finish()
    }
}

impl std::fmt::Display for AllocatorRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

impl PartialEq for AllocatorRef {
    fn eq(&self, other: &Self) -> bool {
        self.name() == other.name()
    }
}

impl Eq for AllocatorRef {}

impl std::hash::Hash for AllocatorRef {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.name().hash(state);
    }
}

/// A set of allocation strategies with deterministic iteration order.
///
/// [`AllocatorRegistry::global`] holds the built-in strategies; custom
/// registries (e.g. a subset for a constrained sweep, or third-party
/// strategies) are built with [`AllocatorRegistry::new`] + `register`.
#[derive(Debug, Clone, Default)]
pub struct AllocatorRegistry {
    entries: Vec<AllocatorRef>,
}

impl AllocatorRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The global registry of built-in strategies, in presentation order:
    /// `none`, `fr`, `pr`, `cpa`, `ks`, `greedy`.
    pub fn global() -> &'static AllocatorRegistry {
        static GLOBAL: OnceLock<AllocatorRegistry> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let mut registry = AllocatorRegistry::new();
            registry.register(&NO_REPLACEMENT);
            registry.register(&FULL_REUSE);
            registry.register(&PARTIAL_REUSE);
            registry.register(&CRITICAL_PATH_AWARE);
            registry.register(&KNAPSACK_OPTIMAL);
            registry.register(&GREEDY_SAVINGS);
            registry
        })
    }

    /// Adds a strategy and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics when any of the strategy's lookup keys (canonical name, label,
    /// version name, aliases) collides with an already-registered entry's —
    /// a collision would make [`AllocatorRegistry::get`] ambiguous and, worse,
    /// let two strategies share a content-address in the `srra-explore` result
    /// cache (which keys on the label), so it is treated as a programming
    /// error.
    pub fn register(&mut self, allocator: &'static dyn Allocator) -> AllocatorRef {
        let entry = AllocatorRef::of(allocator);
        for existing in &self.entries {
            if let Some(key) = entry.lookup_keys().find(|key| existing.matches(key)) {
                panic!(
                    "allocator `{}` is already registered or collides with `{}` on lookup key `{key}`",
                    entry.name(),
                    existing.name()
                );
            }
        }
        self.entries.push(entry);
        entry
    }

    /// Resolves a strategy by canonical name, label, version name or alias
    /// (all case-insensitive).
    pub fn get(&self, query: &str) -> Option<AllocatorRef> {
        self.entries.iter().copied().find(|e| e.matches(query))
    }

    /// The registered strategies, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = AllocatorRef> + '_ {
        self.entries.iter().copied()
    }

    /// The canonical names, in registration order.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.entries.iter().map(|e| e.name())
    }

    /// Number of registered strategies.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The three strategies evaluated in the paper's Table 1, in `v1`, `v2`,
    /// `v3` order.
    pub fn paper_versions() -> [AllocatorRef; 3] {
        [
            AllocatorRef::of(&FULL_REUSE),
            AllocatorRef::of(&PARTIAL_REUSE),
            AllocatorRef::of(&CRITICAL_PATH_AWARE),
        ]
    }
}

impl<'a> IntoIterator for &'a AllocatorRegistry {
    type Item = AllocatorRef;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, AllocatorRef>>;

    fn into_iter(self) -> Self::IntoIter {
        self.entries.iter().copied()
    }
}

/// Defines a built-in strategy and its `pub(crate)` static instance, which the
/// algorithm functions name as the `algorithm` of the allocations they build.
macro_rules! builtin_allocator {
    ($static_name:ident, $ty:ident, $name:literal, $label:literal, $version:literal,
     aliases: $aliases:expr, $doc:literal,
     |$kernel:ident, $budget:ident| $body:expr) => {
        #[doc = $doc]
        pub(crate) struct $ty;

        pub(crate) static $static_name: $ty = $ty;

        impl Allocator for $ty {
            fn name(&self) -> &'static str {
                $name
            }

            fn label(&self) -> &'static str {
                $label
            }

            fn version_name(&self) -> &'static str {
                $version
            }

            fn aliases(&self) -> &'static [&'static str] {
                $aliases
            }

            fn allocate(
                &self,
                $kernel: &CompiledKernel,
                $budget: u64,
            ) -> Result<RegisterAllocation, AllocError> {
                $body
            }
        }
    };
}

builtin_allocator!(
    NO_REPLACEMENT,
    NoReplacementAllocator,
    "none",
    "BASE",
    "v0",
    aliases: &["base", "no-replacement"],
    "The untransformed code: every access goes to RAM (budget ignored).",
    |kernel, _budget| Ok(crate::baseline::no_replacement(
        kernel.kernel(),
        kernel.analysis(),
    ))
);

builtin_allocator!(
    FULL_REUSE,
    FullReuseAllocator,
    "fr",
    "FR-RA",
    "v1",
    aliases: &["full-reuse"],
    "FR-RA: greedy full-reuse allocation by benefit/cost ratio.",
    |kernel, budget| crate::fr_ra::full_reuse(kernel.kernel(), kernel.analysis(), budget)
);

builtin_allocator!(
    PARTIAL_REUSE,
    PartialReuseAllocator,
    "pr",
    "PR-RA",
    "v2",
    aliases: &["partial-reuse"],
    "PR-RA: FR-RA plus partial reuse for the next reference in greedy order.",
    |kernel, budget| crate::pr_ra::partial_reuse(kernel.kernel(), kernel.analysis(), budget)
);

builtin_allocator!(
    CRITICAL_PATH_AWARE,
    CriticalPathAwareAllocator,
    "cpa",
    "CPA-RA",
    "v3",
    aliases: &["critical-path-aware"],
    "CPA-RA: the paper's allocation over cuts of the Critical Graph.",
    |kernel, budget| crate::cpa_ra::critical_path_aware_on_dfg(
        kernel.kernel(),
        kernel.analysis(),
        kernel.dfg(),
        kernel.starting_cuts(),
        budget,
    )
);

builtin_allocator!(
    KNAPSACK_OPTIMAL,
    KnapsackAllocator,
    "ks",
    "KS-OPT",
    "vk",
    aliases: &["knapsack"],
    "Exact 0/1-knapsack maximisation of eliminated memory accesses.",
    |kernel, budget| crate::knapsack::knapsack_optimal(kernel.kernel(), kernel.analysis(), budget)
);

builtin_allocator!(
    GREEDY_SAVINGS,
    GreedySavingsAllocator,
    "greedy",
    "GR-RA",
    "vg",
    aliases: &["gr", "greedy-savings"],
    "Greedy by absolute eliminated accesses (ignoring register cost) — the \
     registry's extensibility demonstration: no pipeline layer names it.",
    |kernel, budget| crate::greedy::greedy_savings(kernel.kernel(), kernel.analysis(), budget)
);

#[cfg(test)]
mod tests {
    use super::*;
    use srra_ir::examples::paper_example;

    #[test]
    fn global_registry_is_deterministic_and_complete() {
        // The labels key the explore result cache, so they are pinned here.
        let expected = [
            ("none", "BASE", "v0"),
            ("fr", "FR-RA", "v1"),
            ("pr", "PR-RA", "v2"),
            ("cpa", "CPA-RA", "v3"),
            ("ks", "KS-OPT", "vk"),
            ("greedy", "GR-RA", "vg"),
        ];
        let actual: Vec<_> = AllocatorRegistry::global()
            .iter()
            .map(|entry| (entry.name(), entry.label(), entry.version_name()))
            .collect();
        assert_eq!(actual, expected);
        for entry in AllocatorRegistry::global() {
            assert_eq!(entry.to_string(), entry.label());
        }
        let paper: Vec<&str> = AllocatorRegistry::paper_versions()
            .iter()
            .map(|entry| entry.name())
            .collect();
        assert_eq!(paper, ["fr", "pr", "cpa"]);
    }

    #[test]
    fn lookup_accepts_names_labels_versions_and_aliases() {
        let registry = AllocatorRegistry::global();
        for query in ["cpa", "CPA-RA", "v3", "critical-path-aware", "Cpa"] {
            assert_eq!(
                registry.get(query).map(|e| e.name()),
                Some("cpa"),
                "query {query}"
            );
        }
        assert_eq!(registry.get("greedy").map(|e| e.label()), Some("GR-RA"));
        assert_eq!(registry.get("vg").map(|e| e.name()), Some("greedy"));
        assert!(registry.get("frobnicate").is_none());
    }

    #[test]
    fn registry_allocation_matches_direct_calls() {
        let ck = CompiledKernel::new(paper_example());
        let fr = AllocatorRegistry::global()
            .get("fr")
            .unwrap()
            .allocate(&ck, 64)
            .unwrap();
        assert_eq!(fr.by_name("a").unwrap().beta(), 30);
        assert_eq!(fr.total_registers(), 53);
    }

    #[test]
    fn greedy_demo_is_only_reachable_through_the_registry() {
        let entry = AllocatorRegistry::global().get("greedy").unwrap();
        let ck = CompiledKernel::new(paper_example());
        let allocation = entry.allocate(&ck, 64).unwrap();
        assert!(allocation.total_registers() <= 64);
        assert_eq!(allocation.algorithm(), entry);
        assert_eq!(allocation.algorithm().label(), "GR-RA");
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn custom_registries_reject_duplicate_names() {
        let mut registry = AllocatorRegistry::new();
        assert!(registry.is_empty());
        registry.register(&GREEDY_SAVINGS);
        assert_eq!(registry.len(), 1);
        registry.register(&GREEDY_SAVINGS);
    }

    #[test]
    #[should_panic(expected = "collides with `cpa` on lookup key `CPA-RA`")]
    fn registration_rejects_any_lookup_key_collision() {
        // A distinct canonical name is not enough: the label (which also keys
        // the explore result cache) must be unique too.
        struct LabelClash;
        impl Allocator for LabelClash {
            fn name(&self) -> &'static str {
                "custom"
            }
            fn label(&self) -> &'static str {
                "CPA-RA"
            }
            fn version_name(&self) -> &'static str {
                "vc"
            }
            fn allocate(
                &self,
                kernel: &CompiledKernel,
                budget: u64,
            ) -> Result<RegisterAllocation, AllocError> {
                crate::fr_ra::full_reuse(kernel.kernel(), kernel.analysis(), budget)
            }
        }
        static LABEL_CLASH: LabelClash = LabelClash;
        let mut registry = AllocatorRegistry::new();
        registry.register(&CRITICAL_PATH_AWARE);
        registry.register(&LABEL_CLASH);
    }
}
