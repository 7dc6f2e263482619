//! Memory-access accounting for full scalar replacement of one reference.

use serde::{Deserialize, Serialize};
use srra_ir::{LoopId, LoopNest, RefInfo};

use crate::registers::{footprint, reuse_loop};

/// Memory-access counts for a reference over the whole execution of the loop nest,
/// without replacement and with full scalar replacement.
///
/// These counts are the "value" side of the paper's knapsack formulation: the value of
/// promoting a reference is the number of memory accesses the promotion eliminates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AccessCounts {
    /// Accesses performed with no scalar replacement: one per occurrence per innermost
    /// iteration.
    pub total: u64,
    /// Accesses that remain after a full scalar replacement: each distinct element is
    /// transferred between RAM and the register file exactly once per occurrence kind
    /// (a fetch for reads, a final store for writes).
    pub essential: u64,
}

impl AccessCounts {
    /// Computes the access counts for a reference group in the given nest.
    ///
    /// Read occurrences that follow a write of the same reference group earlier in the
    /// loop body are *forwarded*: the consumer receives the freshly produced value
    /// directly from the datapath (the `d[i][k]` node of the paper's Figure 2(a) sits
    /// between the two multiplies), so they never touch memory and are excluded from
    /// both counts.
    pub fn of(reference: &RefInfo, nest: &LoopNest) -> Self {
        Self::with_reuse_loop(reference, nest, reuse_loop(reference, nest))
    }

    /// [`AccessCounts::of`] given the reference's [`reuse_loop`].
    pub(crate) fn with_reuse_loop(
        reference: &RefInfo,
        nest: &LoopNest,
        reuse: Option<LoopId>,
    ) -> Self {
        let total_iterations = nest.total_iterations();
        let first_write = reference
            .occurrences()
            .iter()
            .filter(|o| o.access.is_write())
            .map(|o| o.statement)
            .min();
        let memory_occurrences = reference
            .occurrences()
            .iter()
            .filter(|o| {
                !(o.access.is_read() && first_write.map(|w| w < o.statement).unwrap_or(false))
            })
            .count() as u64;
        let total = memory_occurrences.saturating_mul(total_iterations);

        let essential = match reuse {
            None => total,
            Some(reuse) => {
                // With the working set held in registers across the reuse loop, every
                // distinct element within one traversal of that loop is transferred
                // once per direction (an initial load if the group performs a read that
                // is not forwarded, and a final store if it performs a write), and the
                // whole traversal repeats once per iteration of the loops outside the
                // reuse loop.
                let outside: u64 = nest.loops()[..reuse.index()]
                    .iter()
                    .fold(1u64, |acc, l| acc.saturating_mul(l.trip_count()));
                let distinct = footprint(reference, nest, reuse.index());
                let has_unforwarded_read = reference.occurrences().iter().any(|o| {
                    o.access.is_read() && !first_write.map(|w| w < o.statement).unwrap_or(false)
                });
                let directions =
                    (u64::from(has_unforwarded_read) + u64::from(reference.has_write())).max(1);
                outside
                    .saturating_mul(distinct)
                    .saturating_mul(directions)
                    .min(total)
            }
        };

        Self { total, essential }
    }

    /// Number of accesses a full replacement eliminates.
    pub fn saved(&self) -> u64 {
        self.total.saturating_sub(self.essential)
    }

    /// Fraction of the total accesses that a full replacement eliminates.
    pub fn saved_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.saved() as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srra_ir::examples::paper_example;

    fn counts(name: &str) -> AccessCounts {
        let kernel = paper_example();
        let table = kernel.reference_table();
        AccessCounts::of(table.find_by_name(name).unwrap(), kernel.nest())
    }

    #[test]
    fn totals_count_every_occurrence_every_iteration() {
        // 2 * 20 * 30 = 1200 innermost iterations.
        assert_eq!(counts("a").total, 1200);
        assert_eq!(counts("b").total, 1200);
        assert_eq!(counts("c").total, 1200);
        // d occurs twice per iteration, but the read in statement 1 is forwarded from
        // the write in statement 0 and never touches memory.
        assert_eq!(counts("d").total, 1200);
        assert_eq!(counts("e").total, 1200);
    }

    #[test]
    fn essential_accesses_follow_distinct_elements() {
        // a[k]: 30 distinct elements, read once each.
        assert_eq!(counts("a").essential, 30);
        // b[k][j]: 600 distinct elements.
        assert_eq!(counts("b").essential, 600);
        // c[j]: 20 distinct elements.
        assert_eq!(counts("c").essential, 20);
        // d[i][k]: 60 distinct elements, written back once each (reads come from the
        // producing statement).
        assert_eq!(counts("d").essential, 60);
        // e[i][j][k]: no reuse, nothing saved.
        assert_eq!(counts("e").essential, 1200);
    }

    #[test]
    fn saved_and_fraction_are_consistent() {
        let a = counts("a");
        assert_eq!(a.saved(), 1170);
        assert!((a.saved_fraction() - 1170.0 / 1200.0).abs() < 1e-12);
        let e = counts("e");
        assert_eq!(e.saved(), 0);
        assert_eq!(e.saved_fraction(), 0.0);
    }

    #[test]
    fn essential_never_exceeds_total() {
        for name in ["a", "b", "c", "d", "e"] {
            let c = counts(name);
            assert!(c.essential <= c.total, "reference {name}");
        }
    }
}
