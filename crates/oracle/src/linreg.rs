//! Least-squares linear regression over a synthetic dataset.
//!
//! `f(x) = (1/2m)·Σ_i (a_iᵀx − b_i)²`; the stochastic gradient samples one
//! data point uniformly: `g̃(x) = (a_iᵀx − b_i)·a_i`, the classic SGD-for-ERM
//! setting the paper's introduction describes.
//!
//! # Cost model
//!
//! Every pass over rows — the full gradient, the objective, and the
//! minibatch gradient of [`crate::MinibatchRegression`] — runs through one
//! row-blocked residual kernel. A residual `a_iᵀx − b_i` is a length-`d`
//! dot product, and summed left to right it is one chain of `d` dependent
//! floating-point adds: its speed is bounded by add *latency*, not
//! throughput. The kernel takes rows eight at a time and runs their dot
//! products interleaved over the coordinate `j`, so eight independent
//! chains keep the adder busy. It walks the coordinates two at a time and
//! the rows in pairs, so each pair's two chains share one SIMD register and
//! every product comes from a contiguous load. It then adds `r_k·a_k` into
//! the output for the whole block in one pass over it. A pass over `n` rows
//! still costs `2·n·d` multiply-adds.
//!
//! # Why the bits are unchanged
//!
//! Blocking reorders only *independent* operations. Each row's residual is
//! still its own left-to-right sum seeded with `-0.0`, exactly the fold
//! `Iterator::sum` — and so [`asgd_math::vec::dot`] — performs. Each output
//! entry still receives `r_k·a_k[j]` in row order. Row indices are drawn
//! from the RNG in the same order as before. So every result is bit for bit
//! what the one-row-at-a-time loop computes.

use crate::constants::Constants;
use crate::linalg::{min_eigenvalue_spd, solve, DenseMatrix};
use crate::oracle::GradientOracle;
use crate::synth::RegressionData;
use rand::{Rng, RngCore};

/// Rows per block of the residual kernel: enough independent add chains to
/// cover the latency × throughput of a floating-point adder on current
/// cores.
const BLOCK: usize = 8;

/// The value `Iterator::sum` folds `f64`s from. Every residual chain
/// starts here so its bits match [`asgd_math::vec::dot`].
const SUM_SEED: f64 = -0.0;

/// Least-squares workload with exact minimiser (via the normal equations)
/// and computed constants.
///
/// * `c = λ_min(AᵀA/m)` — exact strong convexity of the quadratic objective
///   (computed by inverse power iteration at construction).
/// * `L = max_i ‖a_i‖²` — under common random numbers
///   `g̃(x) − g̃(y) = (a_iᵀ(x−y))·a_i`, so `‖g̃(x)−g̃(y)‖ ≤ ‖a_i‖²·‖x−y‖`.
/// * `M²(R) = (1/m)·Σ_i ‖a_i‖²·2(‖a_i‖²R² + r_i²)` where `r_i` is the
///   residual at the minimiser — from
///   `(a_iᵀx − b_i)² ≤ 2(a_iᵀ(x−x*))² + 2·r_i²`.
#[derive(Debug, Clone, PartialEq)]
pub struct LinearRegression {
    data: RegressionData,
    minimizer: Vec<f64>,
    c: f64,
    l: f64,
    /// Per-point `‖a_i‖²`.
    feat_norms_sq: Vec<f64>,
    /// Per-point residual² at the minimiser.
    residuals_sq: Vec<f64>,
}

/// Error from [`LinearRegression::new`] when the normal equations are
/// singular (rank-deficient design matrix).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankDeficientError;

impl std::fmt::Display for RankDeficientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "design matrix is rank deficient; add samples or reduce d"
        )
    }
}

impl std::error::Error for RankDeficientError {}

impl LinearRegression {
    /// Builds the workload from a dataset, solving the normal equations for
    /// the exact minimiser and computing the §3 constants.
    ///
    /// # Errors
    ///
    /// Returns [`RankDeficientError`] if `AᵀA` is singular.
    pub fn new(data: RegressionData) -> Result<Self, RankDeficientError> {
        let m = data.len();
        let d = data.dimension();
        let flat: Vec<f64> = data.features.iter().flatten().copied().collect();
        let a = DenseMatrix::from_rows(m, d, flat);
        let hessian = a.gram_normalized(); // AᵀA/m
                                           // Normal equations: (AᵀA/m)·x = Aᵀb/m.
        let mut rhs = vec![0.0; d];
        for (row, &b) in data.features.iter().zip(&data.targets) {
            for (r, &ai) in rhs.iter_mut().zip(row) {
                *r += ai * b;
            }
        }
        for r in &mut rhs {
            *r /= m as f64;
        }
        let minimizer = solve(&hessian, &rhs).map_err(|_| RankDeficientError)?;
        let c = min_eigenvalue_spd(&hessian, 300).map_err(|_| RankDeficientError)?;
        if !(c.is_finite() && c > 0.0) {
            return Err(RankDeficientError);
        }
        let feat_norms_sq: Vec<f64> = data
            .features
            .iter()
            .map(|a| asgd_math::vec::l2_norm_sq(a))
            .collect();
        let l = feat_norms_sq.iter().copied().fold(0.0_f64, f64::max);
        let residuals_sq: Vec<f64> = data
            .features
            .iter()
            .zip(&data.targets)
            .map(|(a, &b)| {
                let r = asgd_math::vec::dot(a, &minimizer) - b;
                r * r
            })
            .collect();
        Ok(Self {
            data,
            minimizer,
            c,
            l,
            feat_norms_sq,
            residuals_sq,
        })
    }

    /// Generates a synthetic dataset and builds the workload in one call.
    ///
    /// # Errors
    ///
    /// Returns [`RankDeficientError`] if the generated design matrix is rank
    /// deficient (essentially impossible for Gaussian features with `m ≥ d`).
    pub fn synthetic(
        m: usize,
        d: usize,
        noise: f64,
        seed: u64,
    ) -> Result<Self, RankDeficientError> {
        Self::new(crate::synth::regression(m, d, noise, seed))
    }

    /// The underlying dataset.
    #[must_use]
    pub fn data(&self) -> &RegressionData {
        &self.data
    }
}

/// The least-squares kernel: for each row index `rows` yields, in order,
/// forms the residual `r_i = a_iᵀx − b_i` and, when `out` is given, adds
/// `r_i·a_i` into it. Returns `Σ r_i²` summed in row order from `0.0`.
///
/// Rows run [`BLOCK`] at a time; a ragged tail runs one row at a time. The
/// result is bit-identical to the scalar loop (see the module docs).
/// Indices are pulled from `rows` lazily and in order, so an iterator that
/// draws them from an RNG consumes the same stream.
pub(crate) fn residual_pass(
    data: &RegressionData,
    x: &[f64],
    rows: impl Iterator<Item = usize>,
    mut out: Option<&mut [f64]>,
) -> f64 {
    let mut rows = rows.fuse();
    let mut sq = 0.0;
    let mut idx = [0; BLOCK];
    loop {
        let mut n = 0;
        for (slot, i) in idx.iter_mut().zip(rows.by_ref()) {
            *slot = i;
            n += 1;
        }
        if n < BLOCK {
            for &i in &idx[..n] {
                sq = residual_block(data, [i], x, out.as_deref_mut(), sq);
            }
            return sq;
        }
        sq = residual_block(data, idx, x, out.as_deref_mut(), sq);
    }
}

/// One block of [`residual_pass`]: `N` interleaved dot products, then one
/// pass adding `r_k·a_k` (in `k` order) into each entry of `out`.
fn residual_block<const N: usize>(
    data: &RegressionData,
    idx: [usize; N],
    x: &[f64],
    out: Option<&mut [f64]>,
    mut sq: f64,
) -> f64 {
    let d = x.len();
    let a = idx.map(|i| &data.features[i][..d]);
    let mut sums = [SUM_SEED; N];
    // Rows in pairs, coordinates in pairs. The four products of a 2 × 2
    // tile come from two contiguous loads per row, and the adds alternate
    // between the pair's rows, so both rows' chains share a vector register
    // with no broadcast of `x` per coordinate. Each row still adds its
    // products in coordinate order.
    let even = d - d % 2;
    let (pair_sums, odd_sum) = sums.split_at_mut(N - N % 2);
    let (pair_rows, odd_row) = a.split_at(N - N % 2);
    for j in (0..even).step_by(2) {
        let (x0, x1) = (x[j], x[j + 1]);
        for (s, rows) in pair_sums.chunks_exact_mut(2).zip(pair_rows.chunks_exact(2)) {
            let (r0, r1) = (&rows[0][j..j + 2], &rows[1][j..j + 2]);
            let (p0, q0) = (r0[0] * x0, r0[1] * x1);
            let (p1, q1) = (r1[0] * x0, r1[1] * x1);
            s[0] += p0;
            s[1] += p1;
            s[0] += q0;
            s[1] += q1;
        }
    }
    if even < d {
        for (s, row) in pair_sums.iter_mut().zip(pair_rows) {
            *s += row[even] * x[even];
        }
    }
    for (s, row) in odd_sum.iter_mut().zip(odd_row) {
        for (&aj, &xj) in row.iter().zip(x) {
            *s += aj * xj;
        }
    }
    let mut r = [0.0; N];
    for ((r, s), &i) in r.iter_mut().zip(sums).zip(&idx) {
        *r = s - data.targets[i];
        sq += *r * *r;
    }
    if let Some(out) = out {
        for (j, o) in out[..d].iter_mut().enumerate() {
            let mut v = *o;
            for (&rk, row) in r.iter().zip(&a) {
                v += rk * row[j];
            }
            *o = v;
        }
    }
    sq
}

impl GradientOracle for LinearRegression {
    fn dimension(&self) -> usize {
        self.data.dimension()
    }

    fn sample_gradient(&self, x: &[f64], rng: &mut dyn RngCore, out: &mut [f64]) {
        assert_eq!(x.len(), self.dimension(), "x dimension mismatch");
        assert_eq!(out.len(), self.dimension(), "out dimension mismatch");
        let i = rng.gen_range(0..self.data.len());
        let a = &self.data.features[i];
        let r = asgd_math::vec::dot(a, x) - self.data.targets[i];
        for (o, &ai) in out.iter_mut().zip(a) {
            *o = r * ai;
        }
    }

    fn full_gradient(&self, x: &[f64], out: &mut [f64]) {
        assert_eq!(x.len(), self.dimension(), "x dimension mismatch");
        out.fill(0.0);
        residual_pass(&self.data, x, 0..self.data.len(), Some(out));
        let inv_m = 1.0 / self.data.len() as f64;
        for o in out.iter_mut() {
            *o *= inv_m;
        }
    }

    fn objective(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.dimension(), "x dimension mismatch");
        residual_pass(&self.data, x, 0..self.data.len(), None) / (2.0 * self.data.len() as f64)
    }

    fn minimizer(&self) -> &[f64] {
        &self.minimizer
    }

    fn constants(&self, radius: f64) -> Constants {
        assert!(radius > 0.0, "radius must be positive");
        let m = self.data.len() as f64;
        let m_sq = self
            .feat_norms_sq
            .iter()
            .zip(&self.residuals_sq)
            .map(|(&an, &rs)| an * 2.0 * (an * radius * radius + rs))
            .sum::<f64>()
            / m;
        Constants::new(self.c, self.l, m_sq.max(f64::MIN_POSITIVE), radius)
    }

    fn name(&self) -> &str {
        "linear-regression"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::unbiasedness_gap;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn workload() -> LinearRegression {
        LinearRegression::synthetic(200, 5, 0.1, 42).expect("well-conditioned")
    }

    #[test]
    fn minimizer_is_stationary() {
        let w = workload();
        let mut g = vec![0.0; 5];
        w.full_gradient(w.minimizer(), &mut g);
        assert!(
            asgd_math::vec::l2_norm(&g) < 1e-8,
            "gradient at x*: {:?}",
            g
        );
    }

    #[test]
    fn minimizer_near_ground_truth_with_low_noise() {
        let w = LinearRegression::synthetic(2000, 4, 0.01, 7).unwrap();
        let dist = asgd_math::vec::l2_dist(w.minimizer(), &w.data().ground_truth);
        assert!(dist < 0.05, "dist {dist}");
    }

    #[test]
    fn objective_minimised_at_minimizer() {
        let w = workload();
        let f_star = w.objective(w.minimizer());
        let mut perturbed = w.minimizer().to_vec();
        perturbed[0] += 0.5;
        assert!(w.objective(&perturbed) > f_star);
        perturbed[0] -= 1.0;
        assert!(w.objective(&perturbed) > f_star);
    }

    #[test]
    fn stochastic_gradient_is_unbiased() {
        let w = workload();
        let mut rng = StdRng::seed_from_u64(3);
        let x = vec![0.3, -0.2, 0.8, 0.0, -1.0];
        let gap = unbiasedness_gap(&w, &x, &mut rng, 60_000);
        assert!(gap < 0.2, "gap {gap}");
    }

    #[test]
    fn constants_are_consistent() {
        let w = workload();
        let k = w.constants(2.0);
        assert!(k.c > 0.0);
        assert!(k.c <= k.l, "strong convexity cannot exceed smoothness");
        assert!(k.m_sq > 0.0);
        // M² grows with the radius.
        assert!(w.constants(4.0).m_sq > k.m_sq);
    }

    #[test]
    fn second_moment_bound_dominates_measurement() {
        let w = workload();
        let radius = 1.5;
        let k = w.constants(radius);
        // Sample x on the sphere of the trust region and check E‖g̃‖² ≤ M².
        let mut rng = StdRng::seed_from_u64(9);
        let mut x = w.minimizer().to_vec();
        x[0] += radius; // on the boundary
        let mut g = vec![0.0; 5];
        let mut acc = 0.0;
        let trials = 20_000;
        for _ in 0..trials {
            w.sample_gradient(&x, &mut rng, &mut g);
            acc += asgd_math::vec::l2_norm_sq(&g);
        }
        let measured = acc / trials as f64;
        assert!(
            measured <= k.m_sq,
            "measured E‖g̃‖² = {measured} exceeds bound M² = {}",
            k.m_sq
        );
    }

    #[test]
    fn rank_deficient_design_is_rejected() {
        // 3 identical rows in d=2: AᵀA singular.
        let data = RegressionData {
            features: vec![vec![1.0, 2.0]; 3],
            targets: vec![1.0, 1.0, 1.0],
            ground_truth: vec![0.0, 0.0],
        };
        let err = LinearRegression::new(data).unwrap_err();
        assert!(err.to_string().contains("rank deficient"));
    }

    /// The one-row-at-a-time loop the blocked kernel replaces.
    fn scalar_reference(data: &RegressionData, x: &[f64], rows: &[usize], out: &mut [f64]) -> f64 {
        let mut sq = 0.0;
        for &i in rows {
            let a = &data.features[i];
            let r = asgd_math::vec::dot(a, x) - data.targets[i];
            for (o, &ai) in out.iter_mut().zip(a) {
                *o += r * ai;
            }
            sq += r * r;
        }
        sq
    }

    /// Mostly ordinary values, with exact zeros of both signs and tiny
    /// magnitudes mixed in so signed-zero sums and cancellations occur.
    fn awkward(rng: &mut StdRng) -> f64 {
        match rng.gen_range(0..8) {
            0 => 0.0,
            1 => -0.0,
            2 => rng.gen_range(-1e-300..1e-300),
            _ => rng.gen_range(-3.0..3.0),
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// The blocked kernel matches the scalar loop bit for bit: full
        /// blocks, ragged tails, batches under one block, and signed zeros.
        #[test]
        fn blocked_kernel_matches_scalar_loop_bitwise(
            d in 1usize..300,
            batch in 1usize..70,
            m in 1usize..12,
            seed in proptest::prelude::any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            // Every fourth case is all zeros of random sign, so every sum
            // is a signed zero. Every eighth makes every product −0.0: each
            // residual chain must then end at −0.0, as `Iterator::sum` does.
            let zeros = seed.is_multiple_of(4);
            let negative = seed.is_multiple_of(8);
            let value = |rng: &mut StdRng, sign: f64| if negative {
                sign * 0.0
            } else if zeros {
                if rng.gen_range(0..2) == 0 { 0.0 } else { -0.0 }
            } else {
                awkward(rng)
            };
            let data = RegressionData {
                features: (0..m).map(|_| (0..d).map(|_| value(&mut rng, -1.0)).collect()).collect(),
                targets: (0..m).map(|_| value(&mut rng, 1.0)).collect(),
                ground_truth: vec![0.0; d],
            };
            let x: Vec<f64> = (0..d).map(|_| value(&mut rng, 1.0)).collect();
            let rows: Vec<usize> = (0..batch).map(|_| rng.gen_range(0..m)).collect();
            let start: Vec<f64> = (0..d).map(|_| value(&mut rng, -1.0)).collect();

            let mut expected = start.clone();
            let expected_sq = scalar_reference(&data, &x, &rows, &mut expected);
            let mut got = start;
            let got_sq = residual_pass(&data, &x, rows.iter().copied(), Some(&mut got));
            proptest::prop_assert_eq!(bits(&got), bits(&expected));
            proptest::prop_assert_eq!(got_sq.to_bits(), expected_sq.to_bits());
            let sq_only = residual_pass(&data, &x, rows.iter().copied(), None);
            proptest::prop_assert_eq!(sq_only.to_bits(), expected_sq.to_bits());
        }
    }

    #[test]
    fn minibatch_rows_are_drawn_in_the_scalar_rng_order() {
        // Drawing a block of indices ahead of the arithmetic must consume
        // the RNG exactly as one draw per row would.
        let w = workload();
        let x = [0.3, -0.2, 0.8, 0.0, -1.0];
        let mut rng = StdRng::seed_from_u64(11);
        let rows: Vec<usize> = (0..21).map(|_| rng.gen_range(0..w.data.len())).collect();
        let mut expected = vec![0.0; 5];
        scalar_reference(&w.data, &x, &rows, &mut expected);
        let mut rng = StdRng::seed_from_u64(11);
        let drawn = (0..21).map(|_| rng.gen_range(0..w.data.len()));
        let mut got = vec![0.0; 5];
        residual_pass(&w.data, &x, drawn, Some(&mut got));
        assert_eq!(bits(&got), bits(&expected));
    }

    #[test]
    fn full_passes_match_the_scalar_loop_bitwise() {
        let w = workload();
        let x = [0.3, -0.2, 0.8, 0.0, -1.0];
        let all: Vec<usize> = (0..w.data.len()).collect();
        let mut expected = vec![0.0; 5];
        let sq = scalar_reference(&w.data, &x, &all, &mut expected);
        let inv_m = 1.0 / w.data.len() as f64;
        for e in &mut expected {
            *e *= inv_m;
        }
        let mut got = vec![0.0; 5];
        w.full_gradient(&x, &mut got);
        assert_eq!(bits(&got), bits(&expected));
        assert_eq!(
            w.objective(&x).to_bits(),
            (sq / (2.0 * w.data.len() as f64)).to_bits()
        );
    }

    #[test]
    fn sum_seed_matches_iterator_sum() {
        let empty: f64 = std::iter::empty::<f64>().sum();
        assert_eq!(empty.to_bits(), SUM_SEED.to_bits());
    }

    #[test]
    fn strong_convexity_verified_against_gradient_inequality() {
        // (x−y)ᵀ(∇f(x)−∇f(y)) ≥ c‖x−y‖² for the computed c.
        let w = workload();
        let k = w.constants(1.0);
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..50 {
            let x: Vec<f64> = (0..5).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let y: Vec<f64> = (0..5).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let mut gx = vec![0.0; 5];
            let mut gy = vec![0.0; 5];
            w.full_gradient(&x, &mut gx);
            w.full_gradient(&y, &mut gy);
            let diff = asgd_math::vec::sub(&x, &y);
            let gdiff = asgd_math::vec::sub(&gx, &gy);
            let lhs = asgd_math::vec::dot(&diff, &gdiff);
            let rhs = k.c * asgd_math::vec::l2_norm_sq(&diff);
            assert!(
                lhs >= rhs - 1e-9 * rhs.abs().max(1.0),
                "strong convexity violated: {lhs} < {rhs}"
            );
        }
    }
}
