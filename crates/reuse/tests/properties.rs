//! Property-based tests for the reuse analysis: footprints, register requirements and
//! the partial-replacement access model.

use proptest::prelude::*;
use srra_ir::{AffineExpr, Kernel, KernelBuilder, LoopId, RefInfo};
use srra_reuse::{
    eliminated_accesses, footprint, registers_for_full_replacement, remaining_accesses, reuse_loop,
    ReuseAnalysis,
};

/// A three-deep nest with one reference per "shape": invariant, windowed, accumulator
/// and streaming.
fn generated_kernel(ni: u64, nj: u64, nk: u64, window: bool) -> Kernel {
    let b = KernelBuilder::new("generated");
    let i = b.add_loop("i", ni);
    let j = b.add_loop("j", nj);
    let k = b.add_loop("k", nk);
    let coeff = b.add_array("coeff", &[nk], 16);
    let window_len = nj + nk;
    let stream = b.add_array("stream", &[window_len.max(1)], 16);
    let acc = b.add_array("acc", &[ni, nj], 32);
    let sink = b.add_array("sink", &[ni, nj, nk], 16);

    let stream_subscript = if window { b.idx_sum(j, k) } else { b.idx(k) };
    let product = b.mul(
        b.read(coeff, &[b.idx(k)]),
        b.read(stream, &[stream_subscript]),
    );
    let sum = b.add(b.read(acc, &[b.idx(i), b.idx(j)]), product);
    b.store(acc, &[b.idx(i), b.idx(j)], sum);
    b.store(sink, &[b.idx(i), b.idx(j), b.idx(k)], product);
    b.build().expect("generated kernel is valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn footprints_shrink_with_depth_and_requirements_are_positive(
        ni in 1u64..6,
        nj in 1u64..16,
        nk in 1u64..16,
        window in any::<bool>(),
    ) {
        let kernel = generated_kernel(ni, nj, nk, window);
        let table = kernel.reference_table();
        let nest = kernel.nest();
        for info in table.iter() {
            let mut previous = footprint(info, nest, 0);
            for depth in 1..=nest.depth() {
                let current = footprint(info, nest, depth);
                prop_assert!(current <= previous, "footprint must shrink with depth");
                prop_assert!(current >= 1);
                previous = current;
            }
            let registers = registers_for_full_replacement(info, nest);
            prop_assert!(registers >= 1);
            prop_assert!(registers <= footprint(info, nest, 0).max(1));
        }
    }

    #[test]
    fn essential_accesses_never_exceed_totals(
        ni in 1u64..6,
        nj in 1u64..16,
        nk in 1u64..16,
        window in any::<bool>(),
    ) {
        let kernel = generated_kernel(ni, nj, nk, window);
        let analysis = ReuseAnalysis::of(&kernel);
        for summary in &analysis {
            let counts = summary.access_counts();
            prop_assert!(counts.essential <= counts.total);
            prop_assert!(counts.saved() == counts.total - counts.essential);
            prop_assert!(summary.benefit_cost() >= 0.0);
        }
        prop_assert!(analysis.total_saved_full() <= analysis.total_accesses());
    }

    #[test]
    fn eliminated_accesses_are_monotone_and_bounded(
        ni in 1u64..5,
        nj in 2u64..12,
        nk in 2u64..12,
        beta_step in 1u64..7,
    ) {
        let kernel = generated_kernel(ni, nj, nk, true);
        let analysis = ReuseAnalysis::of(&kernel);
        for summary in &analysis {
            let mut previous = 0u64;
            let mut beta = 0u64;
            while beta <= summary.registers_full() + beta_step {
                let eliminated = eliminated_accesses(summary, beta);
                prop_assert!(eliminated >= previous, "monotone in beta");
                prop_assert!(eliminated <= summary.saved_full());
                prop_assert_eq!(
                    remaining_accesses(summary, beta),
                    summary.access_counts().total - eliminated
                );
                previous = eliminated;
                beta += beta_step;
            }
            prop_assert_eq!(
                eliminated_accesses(summary, summary.registers_full()),
                summary.saved_full()
            );
        }
    }

    #[test]
    fn benefit_cost_ordering_is_a_permutation_of_the_references(
        ni in 1u64..5,
        nj in 2u64..12,
        nk in 2u64..12,
        window in any::<bool>(),
    ) {
        let kernel = generated_kernel(ni, nj, nk, window);
        let analysis = ReuseAnalysis::of(&kernel);
        let sorted = analysis.sorted_by_benefit_cost();
        prop_assert_eq!(sorted.len(), analysis.len());
        let mut ids: Vec<usize> = sorted.iter().map(|s| s.ref_id().index()).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), analysis.len());
        for pair in sorted.windows(2) {
            prop_assert!(pair[0].benefit_cost() >= pair[1].benefit_cost());
        }
    }
}

/// `footprint`'s definition: the product over subscripts of `hi - lo + 1` from
/// [`AffineExpr::range`], with the trip counts at depths below `from_depth`
/// taken as 1.
fn footprint_by_definition(info: &RefInfo, trips: &[u64], from_depth: usize) -> u64 {
    let restricted: Vec<u64> = trips
        .iter()
        .enumerate()
        .map(|(depth, &trip)| if depth >= from_depth { trip } else { 1 })
        .collect();
    info.subscripts()
        .iter()
        .map(|subscript| {
            let (lo, hi) = subscript.range(&restricted);
            (hi - lo + 1) as u64
        })
        .fold(1u64, u64::saturating_mul)
}

/// A kernel reading one array per generated reference: each subscript is
/// `coefficients · loops + offset`, shifted so it never goes below the offset,
/// and each array is just large enough for its subscripts.
fn kernel_with_references(trips: &[u64], references: &[Vec<(Vec<i64>, i64)>]) -> Kernel {
    let b = KernelBuilder::new("footprints");
    let loops: Vec<LoopId> = trips
        .iter()
        .enumerate()
        .map(|(depth, &trip)| b.add_loop(format!("l{depth}"), trip))
        .collect();
    let mut sum = None;
    for (k, subscripts) in references.iter().enumerate() {
        let mut exprs = Vec::new();
        let mut dims = Vec::new();
        for (coefficients, offset) in subscripts {
            let mut expr = AffineExpr::zero();
            for (&coefficient, &loop_id) in coefficients.iter().zip(&loops) {
                expr.set_term(loop_id, coefficient);
            }
            let (lo, hi) = expr.range(trips);
            dims.push((hi - lo + offset + 1) as u64);
            exprs.push(expr.with_constant(offset - lo));
        }
        let array = b.add_array(format!("r{k}"), &dims, 16);
        let read = b.read(array, &exprs);
        sum = Some(sum.map_or(read, |acc| b.add(acc, read)));
    }
    b.define("t", sum.expect("at least one reference"));
    b.build().expect("generated references stay in bounds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn footprint_and_the_requirement_follow_their_definition(
        trips in prop::collection::vec(1u64..8, 1..5),
        references in prop::collection::vec(
            prop::collection::vec((prop::collection::vec(-2i64..=3, 4), 0i64..3), 1..4),
            1..5,
        ),
    ) {
        let kernel = kernel_with_references(&trips, &references);
        let nest = kernel.nest();
        for info in kernel.reference_table() {
            for from_depth in 0..=nest.depth() {
                prop_assert_eq!(
                    footprint(info, nest, from_depth),
                    footprint_by_definition(info, &trips, from_depth)
                );
            }
            let reuse = (0..nest.depth()).find(|&depth| {
                footprint_by_definition(info, &trips, depth)
                    < trips[depth] * footprint_by_definition(info, &trips, depth + 1)
            });
            prop_assert_eq!(reuse_loop(info, nest), reuse.map(LoopId::new));
            let registers = reuse.map_or(1, |depth| {
                footprint_by_definition(info, &trips, depth + 1).max(1)
            });
            prop_assert_eq!(registers_for_full_replacement(info, nest), registers);
        }
    }
}
