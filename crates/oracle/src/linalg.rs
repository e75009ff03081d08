//! Minimal dense linear algebra for workload construction.
//!
//! Just enough to (a) solve the normal equations of least squares, and
//! (b) bracket the extreme eigenvalues of small symmetric positive-definite
//! matrices so workloads can report exact strong-convexity moduli. Matrices
//! here are tiny (`d ≤ a few hundred`), so simple `O(d³)` algorithms are the
//! right tool.
//!
//! # Cost model
//!
//! Gaussian elimination is split into a recorded elimination,
//! [`Lu::factor`] (`O(n³)`, once per matrix), and its replay on a
//! right-hand side, [`Lu::solve`] (`O(n²)` per solve). Inverse power
//! iteration ([`min_eigenvalue_spd`]) solves against the same matrix every
//! iteration, so it factors once and replays: 300 iterations at `n = 256`
//! cost one elimination plus 300 quadratic solves, not 300 eliminations.
//!
//! # Why the bits are unchanged
//!
//! Eliminating the augmented system `[A | b]` touches the `b` column only
//! through the row swaps and `b_r −= f·b_col` with the step's factor `f`;
//! neither the pivot choice nor any factor depends on `b`. [`Lu::factor`]
//! runs the matrix part with the same arithmetic in the same order and
//! records the swaps and factors; [`Lu::solve`] applies them to `b` step by
//! step in the same order, then back-substitutes exactly as before. So
//! `Lu::factor(a)?.solve(b)` is bit for bit the one-shot elimination, and
//! [`solve`] is now just that composition.

/// A dense row-major `rows × cols` matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates a zero matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    #[must_use]
    pub fn from_rows(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length mismatch");
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    #[must_use]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c]
    }

    /// Element setter.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds indices.
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        assert!(r < self.rows && c < self.cols, "index out of bounds");
        self.data[r * self.cols + c] = v;
    }

    /// Row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of bounds.
    #[must_use]
    pub fn row(&self, r: usize) -> &[f64] {
        assert!(r < self.rows, "row out of bounds");
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    #[must_use]
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec dimension mismatch");
        (0..self.rows)
            .map(|r| asgd_math::vec::dot(self.row(r), x))
            .collect()
    }

    /// Gram matrix `AᵀA / rows` (the Hessian of mean least squares).
    #[must_use]
    pub fn gram_normalized(&self) -> DenseMatrix {
        let d = self.cols;
        let mut g = DenseMatrix::zeros(d, d);
        for r in 0..self.rows {
            let row = self.row(r);
            for i in 0..d {
                for j in i..d {
                    let v = g.get(i, j) + row[i] * row[j];
                    g.set(i, j, v);
                }
            }
        }
        let scale = 1.0 / self.rows as f64;
        for i in 0..d {
            for j in i..d {
                let v = g.get(i, j) * scale;
                g.set(i, j, v);
                g.set(j, i, v);
            }
        }
        g
    }
}

/// Error from [`solve`] when the system is (numerically) singular.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingularMatrixError;

impl std::fmt::Display for SingularMatrixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "matrix is singular to working precision")
    }
}

impl std::error::Error for SingularMatrixError {}

/// Solves `A·x = b` by Gaussian elimination with partial pivoting:
/// [`Lu::factor`] followed by [`Lu::solve`].
///
/// # Errors
///
/// Returns [`SingularMatrixError`] if a pivot underflows `1e-12` in absolute
/// value.
///
/// # Panics
///
/// Panics if `a` is not square or `b.len() != a.rows()`.
pub fn solve(a: &DenseMatrix, b: &[f64]) -> Result<Vec<f64>, SingularMatrixError> {
    assert_eq!(a.rows(), a.cols(), "solve requires a square matrix");
    assert_eq!(b.len(), a.rows(), "rhs dimension mismatch");
    Ok(Lu::factor(a)?.solve(b))
}

/// A recorded Gaussian elimination with partial pivoting of a square
/// matrix: the pivot row of every step, every step's elimination factors,
/// and the resulting upper triangle `U`. Factor once, then solve for any
/// number of right-hand sides at `O(n²)` each (see the module docs for why
/// the result is bit-identical to eliminating `[A | b]` afresh).
#[derive(Debug, Clone, PartialEq)]
pub struct Lu {
    /// Step `col` swapped rows `col` and `pivots[col]` (one step per row).
    pivots: Vec<usize>,
    /// Step `col`'s factors for rows `col + 1..n`, steps concatenated.
    factors: Vec<f64>,
    /// Row-major `n × n`; `U` is the part on and above the diagonal.
    u: Vec<f64>,
}

impl Lu {
    /// Eliminates `a`, recording the swaps, factors and `U`.
    ///
    /// # Errors
    ///
    /// Returns [`SingularMatrixError`] if a pivot underflows `1e-12` in
    /// absolute value.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn factor(a: &DenseMatrix) -> Result<Self, SingularMatrixError> {
        assert_eq!(a.rows(), a.cols(), "solve requires a square matrix");
        let n = a.rows();
        let mut u = a.data.clone();
        let mut pivots = Vec::with_capacity(n);
        let mut factors = Vec::with_capacity(n * n.saturating_sub(1) / 2);
        for col in 0..n {
            // Partial pivot.
            let pivot_row = (col..n)
                .max_by(|&i, &j| {
                    u[i * n + col]
                        .abs()
                        .partial_cmp(&u[j * n + col].abs())
                        .expect("pivot comparison on finite values")
                })
                .expect("non-empty pivot range");
            if u[pivot_row * n + col].abs() < 1e-12 {
                return Err(SingularMatrixError);
            }
            if pivot_row != col {
                let (upper, lower) = u.split_at_mut(pivot_row * n);
                upper[col * n..(col + 1) * n].swap_with_slice(&mut lower[..n]);
            }
            pivots.push(pivot_row);
            let (upper, lower) = u.split_at_mut((col + 1) * n);
            let pivot = &upper[col * n..];
            for row in lower.chunks_exact_mut(n) {
                let factor = row[col] / pivot[col];
                // Column `col` itself is never read again, so only the
                // entries right of it are eliminated.
                for (cell, p) in row[col + 1..].iter_mut().zip(&pivot[col + 1..]) {
                    *cell -= factor * p;
                }
                factors.push(factor);
            }
        }
        Ok(Self { pivots, factors, u })
    }

    /// Solves `A·x = b` for the factored `A`: replays the recorded swaps
    /// and factors on `b`, then back-substitutes through `U`.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the matrix order.
    #[must_use]
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let n = self.pivots.len();
        assert_eq!(b.len(), n, "rhs dimension mismatch");
        let mut x = b.to_vec();
        let mut factors = self.factors.as_slice();
        for (col, &pivot_row) in self.pivots.iter().enumerate() {
            x.swap(col, pivot_row);
            let (step, rest) = factors.split_at(n - col - 1);
            factors = rest;
            let (head, below) = x.split_at_mut(col + 1);
            let pivot = head[col];
            for (cell, &factor) in below.iter_mut().zip(step) {
                *cell -= factor * pivot;
            }
        }
        // Back substitution, in place: entries right of `r` are solved.
        for r in (0..n).rev() {
            let row = &self.u[r * n..(r + 1) * n];
            let (head, solved) = x.split_at_mut(r + 1);
            let mut acc = head[r];
            for (&urc, &xc) in row[r + 1..].iter().zip(solved.iter()) {
                acc -= urc * xc;
            }
            head[r] = acc / row[r];
        }
        x
    }
}

/// Largest eigenvalue of a symmetric PSD matrix by power iteration.
///
/// # Panics
///
/// Panics if the matrix is not square or is empty.
#[must_use]
pub fn max_eigenvalue_sym(a: &DenseMatrix, iterations: usize) -> f64 {
    assert_eq!(a.rows(), a.cols(), "eigenvalue of non-square matrix");
    let n = a.rows();
    assert!(n > 0, "empty matrix");
    // Deterministic start vector with all components nonzero and varied.
    let mut v: Vec<f64> = (0..n).map(|i| 1.0 + (i as f64 + 1.0).sqrt()).collect();
    normalize(&mut v);
    let mut lambda = 0.0;
    for _ in 0..iterations.max(1) {
        let mut w = a.matvec(&v);
        lambda = asgd_math::vec::dot(&v, &w);
        let norm = asgd_math::vec::l2_norm(&w);
        if norm == 0.0 {
            return 0.0;
        }
        asgd_math::vec::scale(&mut w, 1.0 / norm);
        v = w;
    }
    lambda
}

/// Smallest eigenvalue of a symmetric positive-definite matrix via inverse
/// power iteration (each step solves `A·w = v` against one [`Lu`] factoring
/// of `A`, so the cost is one `O(n³)` elimination plus `O(n²)` per step).
///
/// # Errors
///
/// Returns [`SingularMatrixError`] if `A` is singular.
///
/// # Panics
///
/// Panics if the matrix is not square or is empty.
pub fn min_eigenvalue_spd(a: &DenseMatrix, iterations: usize) -> Result<f64, SingularMatrixError> {
    assert_eq!(a.rows(), a.cols(), "eigenvalue of non-square matrix");
    let n = a.rows();
    assert!(n > 0, "empty matrix");
    let mut v: Vec<f64> = (0..n)
        .map(|i| 1.0 + ((i * 7 + 3) % 11) as f64 * 0.1)
        .collect();
    normalize(&mut v);
    let lu = Lu::factor(a)?;
    let mut lambda = 0.0;
    for _ in 0..iterations.max(1) {
        let mut w = lu.solve(&v);
        // Rayleigh quotient on the un-normalised iterate: v ≈ λ_min⁻¹ w.
        let norm = asgd_math::vec::l2_norm(&w);
        if norm == 0.0 {
            return Ok(0.0);
        }
        asgd_math::vec::scale(&mut w, 1.0 / norm);
        let av = a.matvec(&w);
        lambda = asgd_math::vec::dot(&w, &av);
        v = w;
    }
    Ok(lambda)
}

fn normalize(v: &mut [f64]) {
    let n = asgd_math::vec::l2_norm(v);
    if n > 0.0 {
        asgd_math::vec::scale(v, 1.0 / n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diag(values: &[f64]) -> DenseMatrix {
        let n = values.len();
        let mut m = DenseMatrix::zeros(n, n);
        for (i, &v) in values.iter().enumerate() {
            m.set(i, i, v);
        }
        m
    }

    #[test]
    fn matrix_accessors() {
        let m = DenseMatrix::from_rows(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        assert_eq!(m.get(1, 2), 6.0);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
        assert_eq!(m.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
    }

    #[test]
    #[should_panic(expected = "data length mismatch")]
    fn from_rows_checks_length() {
        let _ = DenseMatrix::from_rows(2, 2, vec![1.0]);
    }

    #[test]
    fn gram_of_identity_rows() {
        // Rows e1, e2 → AᵀA/2 = diag(1/2, 1/2).
        let a = DenseMatrix::from_rows(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let g = a.gram_normalized();
        assert_eq!(g.get(0, 0), 0.5);
        assert_eq!(g.get(1, 1), 0.5);
        assert_eq!(g.get(0, 1), 0.0);
    }

    #[test]
    fn solve_known_system() {
        let a = DenseMatrix::from_rows(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
        let x = solve(&a, &[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the diagonal forces a row swap.
        let a = DenseMatrix::from_rows(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = solve(&a, &[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn solve_singular_errors() {
        let a = DenseMatrix::from_rows(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        let err = solve(&a, &[1.0, 2.0]).unwrap_err();
        assert!(err.to_string().contains("singular"));
    }

    /// The one-shot elimination of the augmented system `[A | b]` that
    /// [`Lu`] records and replays.
    fn eliminate_augmented(a: &DenseMatrix, b: &[f64]) -> Result<Vec<f64>, SingularMatrixError> {
        let n = a.rows();
        let mut m: Vec<Vec<f64>> = (0..n)
            .map(|r| {
                let mut row = a.row(r).to_vec();
                row.push(b[r]);
                row
            })
            .collect();
        for col in 0..n {
            let pivot_row = (col..n)
                .max_by(|&i, &j| m[i][col].abs().partial_cmp(&m[j][col].abs()).unwrap())
                .unwrap();
            if m[pivot_row][col].abs() < 1e-12 {
                return Err(SingularMatrixError);
            }
            m.swap(col, pivot_row);
            for r in col + 1..n {
                let factor = m[r][col] / m[col][col];
                let (pivot_rows, rest) = m.split_at_mut(r);
                for (cell, p) in rest[0][col..].iter_mut().zip(&pivot_rows[col][col..]) {
                    *cell -= factor * p;
                }
            }
        }
        let mut x = vec![0.0; n];
        for r in (0..n).rev() {
            let mut acc = m[r][n];
            for c in r + 1..n {
                acc -= m[r][c] * x[c];
            }
            x[r] = acc / m[r][r];
        }
        Ok(x)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(96))]

        /// One factoring replayed for many right-hand sides is bitwise the
        /// fresh elimination of each, and errors on exactly the singular
        /// inputs. Small-integer cases produce pivot ties, zero columns and
        /// rank-deficient matrices.
        #[test]
        fn factor_once_solve_many_matches_fresh_elimination(
            n in 1usize..40,
            seed in proptest::prelude::any::<u64>(),
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let small_ints = seed.is_multiple_of(3);
            let entry = |rng: &mut rand::rngs::StdRng| if small_ints {
                f64::from(rng.gen_range(-2i32..3))
            } else {
                rng.gen_range(-5.0..5.0)
            };
            let data: Vec<f64> = (0..n * n).map(|_| entry(&mut rng)).collect();
            let a = DenseMatrix::from_rows(n, n, data);
            let lu = Lu::factor(&a);
            for _ in 0..6 {
                let b: Vec<f64> = (0..n).map(|_| entry(&mut rng)).collect();
                match (&lu, eliminate_augmented(&a, &b)) {
                    (Ok(lu), Ok(expected)) => {
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        proptest::prop_assert_eq!(bits(&lu.solve(&b)), bits(&expected));
                        proptest::prop_assert_eq!(bits(&solve(&a, &b).unwrap()), bits(&expected));
                    }
                    (Err(_), Err(_)) => {
                        proptest::prop_assert!(solve(&a, &b).is_err());
                    }
                    (lu, fresh) => panic!("factor {lu:?} disagrees with elimination {fresh:?}"),
                }
            }
        }
    }

    #[test]
    fn singular_matrix_fails_to_factor() {
        let a = DenseMatrix::from_rows(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert_eq!(Lu::factor(&a), Err(SingularMatrixError));
        assert!(min_eigenvalue_spd(&a, 10).is_err());
    }

    #[test]
    #[should_panic(expected = "rhs dimension mismatch")]
    fn lu_solve_checks_rhs_length() {
        let a = DenseMatrix::from_rows(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
        let _ = Lu::factor(&a).unwrap().solve(&[1.0]);
    }

    #[test]
    fn eigenvalues_of_diagonal_matrix() {
        let m = diag(&[0.5, 2.0, 7.0]);
        let max = max_eigenvalue_sym(&m, 200);
        assert!((max - 7.0).abs() < 1e-6, "max {max}");
        let min = min_eigenvalue_spd(&m, 200).unwrap();
        assert!((min - 0.5).abs() < 1e-6, "min {min}");
    }

    #[test]
    fn eigenvalues_of_dense_spd() {
        // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
        let m = DenseMatrix::from_rows(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        assert!((max_eigenvalue_sym(&m, 200) - 3.0).abs() < 1e-6);
        assert!((min_eigenvalue_spd(&m, 200).unwrap() - 1.0).abs() < 1e-6);
    }
}
