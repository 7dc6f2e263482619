//! Seeded input generation: the random streams, the synthetic kernels and
//! the Zipf key draws with their never-stored misses.  The `cluster_mix`
//! request plan, fresh-point budgets included, draws from [`Rng`] too.
//!
//! Every random input of every workload is a pure function of the run's
//! `--seed`; the program under test only ever sees the generated inputs.

use srra_ir::{ArrayId, ExprHandle, IrError, Kernel, KernelBuilder};

/// SplitMix64: a tiny, well-mixed, fully deterministic generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x5EED_5EED_5EED_5EED)
    }

    /// An independent stream for one purpose, so adding draws to one stream
    /// never shifts another.
    pub fn stream(seed: u64, purpose: u64) -> Self {
        let mut base = Self::new(seed);
        let salt = base.next_u64();
        Self(salt ^ purpose.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Zipf(s) over ranks `0..n`, sampled by inverse CDF.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cdf.push(total);
        }
        for value in &mut cdf {
            *value /= total;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Number of synthetic kernels in the `sweep_cold` suite.
pub const SYNTHETIC_KERNELS: usize = 7;

/// Reference-group count of each synthetic slot.  Fixed per slot, so every
/// seed draws kernels of the same size and the per-seed cost stays level;
/// the seed chooses taps, arrays, operators and tree shapes.
pub const SLOT_REFS: [usize; SYNTHETIC_KERNELS] = [8, 13, 19, 24, 29, 35, 40];

/// Inner tile of every synthetic kernel (the two innermost trip counts).
const TILE: u64 = 32;
/// Trip count of each outer loop of the deeper synthetic nests.
const OUTER_TRIP: u64 = 4;
/// Largest stencil offset along either inner dimension.
const HALO: u64 = 6;

/// Builds synthetic kernel `slot` (`0..SYNTHETIC_KERNELS`) for `seed` with
/// the `srra-ir` [`KernelBuilder`]: a 2-D stencil over one to three input
/// images, weighted by constant-subscript coefficients, in a nest of depth
/// 2–4, split over one to three statements that chain through scalars.
///
/// The kernel has exactly [`SLOT_REFS`]`[slot]` reference groups.
///
/// # Errors
///
/// Propagates the builder's validation error (none is expected: every
/// subscript stays inside its array by construction).
pub fn synthetic_kernel(seed: u64, slot: usize) -> Result<Kernel, IrError> {
    let mut rng = Rng::stream(seed, 100 + slot as u64);
    let refs = SLOT_REFS[slot];
    let depth = 2 + slot % 3;
    let b = KernelBuilder::new(format!("syn{slot}"));
    let mut loops = Vec::with_capacity(depth);
    let mut out_dims = Vec::with_capacity(depth);
    for level in 0..depth {
        let trip = if level + 2 < depth { OUTER_TRIP } else { TILE };
        loops.push(b.add_loop(format!("l{level}"), trip));
        out_dims.push(trip);
    }
    let (i, j) = (loops[depth - 2], loops[depth - 1]);

    // One group for `out`, a quarter constant-subscript coefficients, the
    // rest distinct stencil taps.
    let coeffs = refs / 4;
    let stencil = refs - coeffs - 1;
    let inputs = 1 + rng.below(3);
    let extent = TILE + HALO;
    let images: Vec<ArrayId> = (0..inputs)
        .map(|k| b.add_array(format!("in{k}"), &[extent, extent], 16))
        .collect();
    let w = b.add_array("w", &[coeffs as u64], 16);
    let out = b.add_array("out", &out_dims, 32);

    let mut taps: Vec<(u64, u64, u64)> = Vec::with_capacity(stencil);
    while taps.len() < stencil {
        let tap = (rng.below(inputs), rng.below(HALO + 1), rng.below(HALO + 1));
        if !taps.contains(&tap) {
            taps.push(tap);
        }
    }
    let mut terms: Vec<ExprHandle> = taps
        .iter()
        .enumerate()
        .map(|(k, &(image, di, dj))| {
            let pixel = b.read(
                images[image as usize],
                &[b.scaled_idx(i, 1, di as i64), b.scaled_idx(j, 1, dj as i64)],
            );
            if k < coeffs {
                b.mul(pixel, b.read(w, &[b.constant(k as i64)]))
            } else {
                pixel
            }
        })
        .collect();
    rng.shuffle(&mut terms);

    let statements = 1 + refs / 14;
    let chunk = terms.len().div_ceil(statements);
    let out_index: Vec<_> = loops.iter().map(|&l| b.idx(l)).collect();
    let mut scalars = Vec::new();
    let chunks: Vec<&[ExprHandle]> = terms.chunks(chunk).collect();
    for (index, part) in chunks.iter().enumerate() {
        let value = reduce(&b, part, &mut rng);
        if index + 1 < chunks.len() {
            let name = format!("t{index}");
            b.define(name.clone(), value);
            scalars.push(name);
        } else {
            let mut total = b.add(b.read(out, &out_index), value);
            for name in &scalars {
                total = b.add(total, b.scalar(name.clone()));
            }
            b.store(out, &out_index, total);
        }
    }
    b.build()
}

/// Folds `terms` with seeded operators, as a chain or a balanced tree.
fn reduce(b: &KernelBuilder, terms: &[ExprHandle], rng: &mut Rng) -> ExprHandle {
    let combine = |rng: &mut Rng, lhs, rhs| {
        if rng.below(4) == 0 {
            b.sub(lhs, rhs)
        } else {
            b.add(lhs, rhs)
        }
    };
    if rng.below(2) == 0 {
        let mut acc = terms[0];
        for &term in &terms[1..] {
            acc = combine(rng, acc, term);
        }
        acc
    } else {
        let mut level = terms.to_vec();
        while level.len() > 1 {
            let mut next = Vec::with_capacity(level.len().div_ceil(2));
            for pair in level.chunks(2) {
                next.push(match pair {
                    [lhs, rhs] => combine(rng, *lhs, *rhs),
                    [single] => *single,
                    _ => unreachable!("chunks(2) yields one or two items"),
                });
            }
            level = next;
        }
        level[0]
    }
}

/// A seeded draw of `count` indices into `0..keys`, Zipf(`s`)-distributed
/// over a seeded permutation (so which keys are hot changes with the seed),
/// where a `miss_share` of the draws is replaced by `None`: a key that was
/// never stored.
pub fn zipf_draws(
    seed: u64,
    purpose: u64,
    keys: usize,
    count: usize,
    s: f64,
    miss_share: f64,
) -> Vec<Option<usize>> {
    let mut rng = Rng::stream(seed, purpose);
    let mut order: Vec<usize> = (0..keys).collect();
    rng.shuffle(&mut order);
    let zipf = Zipf::new(keys, s);
    (0..count)
        .map(|_| {
            if rng.unit() < miss_share {
                None
            } else {
                Some(order[zipf.sample(&mut rng)])
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        for slot in 0..SYNTHETIC_KERNELS {
            assert_eq!(
                synthetic_kernel(7, slot).unwrap(),
                synthetic_kernel(7, slot).unwrap()
            );
        }
        assert_eq!(
            zipf_draws(7, 1, 100, 500, 1.0, 0.1),
            zipf_draws(7, 1, 100, 500, 1.0, 0.1)
        );
        let mut a = Rng::stream(3, 9);
        let mut b = Rng::stream(3, 9);
        assert!((0..64).all(|_| a.next_u64() == b.next_u64()));
    }

    #[test]
    fn different_seeds_give_different_inputs() {
        assert_ne!(
            zipf_draws(1, 1, 100, 500, 1.0, 0.1),
            zipf_draws(2, 1, 100, 500, 1.0, 0.1)
        );
        assert!((0..SYNTHETIC_KERNELS)
            .any(|slot| synthetic_kernel(1, slot).unwrap() != synthetic_kernel(2, slot).unwrap()));
    }

    #[test]
    fn every_synthetic_kernel_validates_with_its_reference_count() {
        for seed in 0..16 {
            for (slot, &refs) in SLOT_REFS.iter().enumerate() {
                let kernel = synthetic_kernel(seed, slot)
                    .unwrap_or_else(|err| panic!("seed {seed} slot {slot}: {err}"));
                srra_ir::validate_kernel(&kernel).unwrap();
                assert_eq!(kernel.reference_table().len(), refs);
                assert_eq!(kernel.nest().depth(), 2 + slot % 3);
            }
        }
    }

    #[test]
    fn zipf_prefers_low_ranks_and_misses_hit_their_share() {
        let draws = zipf_draws(5, 2, 1_000, 20_000, 1.0, 0.1);
        let misses = draws.iter().filter(|d| d.is_none()).count();
        assert!((1_700..2_300).contains(&misses), "{misses}");
        let zipf = Zipf::new(1_000, 1.0);
        let mut rng = Rng::new(1);
        let top = (0..10_000).filter(|_| zipf.sample(&mut rng) < 10).count();
        // The first 10 of 1000 ranks carry H(10)/H(1000) ~ 39% of the mass.
        assert!((3_500..4_300).contains(&top), "{top}");
    }
}
