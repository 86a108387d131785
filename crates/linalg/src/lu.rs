//! LU factorization with partial pivoting, real and complex, plus a batched
//! driver used as the cuBLAS substitute by the virtual-GPU engines.
//!
//! # Exact zeros and the value-identity contract
//!
//! The Radau and BDF iteration matrices `c/h·I − J` of reaction networks
//! are mostly exact zeros (the bundled 114-species metabolic network's
//! Jacobian fills ~4% of its entries, its factors ~38%), so the kernels do
//! only the work that can change a value:
//!
//! * the factorization leaves an exactly-zero sub-diagonal entry in place
//!   instead of dividing it by the pivot (its multiplier would be `±0`,
//!   which eliminates nothing);
//! * a row update visits only the pivot row's nonzero columns, unless that
//!   row is dense enough that the contiguous, vectorizable loop is cheaper;
//! * every factorization records the nonzero columns of each row of `L`
//!   and `U` (a `U` row is exactly its step's pivot-row list), and the
//!   substitutions accumulate over those entries only.
//!
//! The contract is **identical values to the textbook dense kernel** (full
//! row updates, full dot products) on every input: the same pivot
//! sequence, the same [`LinalgError::Singular`] pivot, the same
//! determinant, and every nonzero entry of the factor storage and of every
//! solve bit-identical, in the same accumulation order. A skipped term is
//! `x − (±0)`, which is `x` unless `x` is itself a zero, so the one
//! representational difference is the **sign of an exact zero** (in the
//! factor storage or a solution component); zeros compare equal and
//! propagate only into other zeros. The lane sparse kernel
//! ([`BatchSparseLuFactor`](crate::BatchSparseLuFactor)) carries the same
//! caveat.
//!
//! **Non-finite values keep dense semantics.** `0 · ∞` is NaN, so a zero
//! term is only skippable against a finite partner: a factorization step
//! whose pivot or multiplier is non-finite runs the dense update, and a
//! substitution switches to the dense loop once any element it has already
//! computed is non-finite. NaN and infinities count as nonzero everywhere
//! else, so they are never skipped.

use std::ops::{Div, Mul, Sub};

use crate::{CMatrix, Complex64, LinalgError, Matrix};

/// The element operations the factor and solve kernels share between `f64`
/// and [`Complex64`].
pub(crate) trait Entry:
    Copy + PartialEq + Sub<Output = Self> + Mul<Output = Self> + Div<Output = Self>
{
    const ZERO: Self;
    /// A pivot row whose nonzeros right of the diagonal reach this fraction
    /// `(num, den)` of the trailing columns is eliminated with the
    /// contiguous, vectorizable loop: from there on the indexed
    /// gather/scatter costs more than the zero terms it skips. That happens
    /// early for the 2-flop real update and late for the 8-flop complex one.
    const DENSE_ROW: (usize, usize);
    /// The partial-pivoting key: `|x|` for reals, `|x|²` for complex.
    fn magnitude(self) -> f64;
    fn is_finite(self) -> bool;
}

impl Entry for f64 {
    const ZERO: f64 = 0.0;
    const DENSE_ROW: (usize, usize) = (1, 4);
    #[inline]
    fn magnitude(self) -> f64 {
        self.abs()
    }
    #[inline]
    fn is_finite(self) -> bool {
        f64::is_finite(self)
    }
}

impl Entry for Complex64 {
    const ZERO: Complex64 = Complex64::ZERO;
    const DENSE_ROW: (usize, usize) = (3, 4);
    #[inline]
    fn magnitude(self) -> f64 {
        self.abs_sq()
    }
    #[inline]
    fn is_finite(self) -> bool {
        Complex64::is_finite(self)
    }
}

/// The index side of a factorization: its pivot sequence and the nonzero
/// pattern of `L` and `U`.
///
/// [`LuFactor::into_parts`] / [`CluFactor::into_parts`] detach it from a
/// retired factorization so the next one reuses its allocations
/// ([`LuFactor::new_reusing`]); a default value is empty storage.
#[derive(Debug, Clone, Default)]
pub struct LuPattern {
    /// Pivot rows as a swap sequence (LAPACK `ipiv` style): at step `k` row
    /// `k` was exchanged with row `pivots[k]`. Stored this way so the
    /// permutation applies to a right-hand side in place, without a scratch
    /// vector.
    pub(crate) pivots: Vec<usize>,
    /// Row `i`'s off-diagonal nonzero columns, ascending, are
    /// `cols[bounds[2i]..bounds[2i + 2]]`: those of `L` end at
    /// `bounds[2i + 1]`, where those of `U` begin.
    bounds: Vec<usize>,
    cols: Vec<u32>,
}

impl LuPattern {
    /// Empties the storage for an `n × n` factorization. `cols` only ever
    /// grows, to the worst case plus one slot for [`push_row`]'s
    /// speculative write, so a reused pattern never reallocates; the
    /// recorded length is the last bound.
    ///
    /// [`push_row`]: Self::push_row
    fn reset(&mut self, n: usize) {
        self.pivots.clear();
        self.pivots.reserve(n);
        self.bounds.clear();
        self.bounds.reserve(2 * n + 1);
        self.bounds.push(0);
        let worst = n * n.saturating_sub(1) + 1;
        if self.cols.len() < worst {
            self.cols.resize(worst, 0);
        }
    }

    /// Appends row `k` of the factor storage: its nonzero columns left of
    /// the diagonal (`L`), then right of it (`U`). Every column index is
    /// written and the cursor advances only past nonzeros, so the scan has
    /// no data-dependent branch.
    fn push_row<T: Entry>(&mut self, row: &[T], k: usize) {
        let cols = &mut self.cols[..];
        let mut end = self.bounds[self.bounds.len() - 1];
        for (j, &v) in row[..k].iter().enumerate() {
            cols[end] = j as u32;
            end += usize::from(v != T::ZERO);
        }
        self.bounds.push(end);
        for (j, &v) in row.iter().enumerate().skip(k + 1) {
            cols[end] = j as u32;
            end += usize::from(v != T::ZERO);
        }
        self.bounds.push(end);
    }

    fn lower(&self, i: usize) -> &[u32] {
        &self.cols[self.bounds[2 * i]..self.bounds[2 * i + 1]]
    }

    fn upper(&self, i: usize) -> &[u32] {
        &self.cols[self.bounds[2 * i + 1]..self.bounds[2 * i + 2]]
    }
}

/// Factorizes the row-major `n × n` matrix `a` in place (`P A = L U`),
/// recording the pivots and nonzero pattern in `pattern`. Returns whether
/// the row permutation is odd.
fn factor<T: Entry>(a: &mut [T], n: usize, pattern: &mut LuPattern) -> Result<bool, LinalgError> {
    #[cfg(any(test, feature = "dense-reference"))]
    if crate::dense_reference::forced() {
        return crate::dense_reference::factor(a, n, &mut pattern.pivots);
    }
    pattern.reset(n);
    let mut odd = false;
    for k in 0..n {
        // Partial pivoting: pick the largest magnitude in column k at or
        // below the diagonal (strict `>`, so the first maximum wins).
        let mut piv = k;
        let mut max = a[k * n + k].magnitude();
        for i in (k + 1)..n {
            let v = a[i * n + k].magnitude();
            if v > max {
                max = v;
                piv = i;
            }
        }
        if max == 0.0 {
            return Err(LinalgError::Singular { pivot: k });
        }
        pattern.pivots.push(piv);
        if piv != k {
            // Swap the full rows; the permutation acts on b at solve time.
            let (top, rest) = a.split_at_mut(piv * n);
            top[k * n..(k + 1) * n].swap_with_slice(&mut rest[..n]);
            odd = !odd;
        }
        // Row k is final from here on: record its pattern, whose U part is
        // the column list of this step's updates.
        let (head, tail) = a.split_at_mut((k + 1) * n);
        let prow = &head[k * n..];
        pattern.push_row(prow, k);
        let upper = pattern.upper(k);
        let (num, den) = T::DENSE_ROW;
        let dense_row = upper.len() * den >= (n - k - 1) * num;
        let pivot = prow[k];
        let finite_pivot = pivot.is_finite();
        for row in tail.chunks_exact_mut(n) {
            let x = row[k];
            if x == T::ZERO && finite_pivot {
                // The multiplier would be ±0: nothing to eliminate.
                continue;
            }
            let m = x / pivot;
            row[k] = m;
            if m == T::ZERO {
                continue;
            }
            // A non-finite multiplier turns the pivot row's zeros into NaN,
            // so it takes the dense update. (A non-finite pivot leaves only
            // zero or non-finite multipliers, so this covers it too.)
            if dense_row || !m.is_finite() {
                for (r, &u) in row[k + 1..].iter_mut().zip(&prow[k + 1..]) {
                    *r = *r - m * u;
                }
            } else {
                for &j in upper {
                    let j = j as usize;
                    row[j] = row[j] - m * prow[j];
                }
            }
        }
    }
    Ok(odd)
}

/// Applies the pivots to `x` and solves `L U x = P b` in place.
fn solve<T: Entry>(lu: &[T], pattern: &LuPattern, x: &mut [T]) {
    let n = x.len();
    // Replay the factorization's row exchanges on b (P b), then
    // substitute.
    for (k, &p) in pattern.pivots.iter().enumerate() {
        x.swap(k, p);
    }
    #[cfg(any(test, feature = "dense-reference"))]
    if crate::dense_reference::forced() {
        return crate::dense_reference::substitute(lu, x);
    }
    // Forward: L y = P b (unit diagonal). A skipped zero term is exact
    // only while every x[j] it would multiply is finite.
    let mut dense = x.first().is_some_and(|v| !v.is_finite());
    for i in 1..n {
        let row = &lu[i * n..i * n + i];
        let mut acc = x[i];
        if dense {
            for (&l, &xj) in row.iter().zip(&x[..i]) {
                acc = acc - l * xj;
            }
        } else {
            for &j in pattern.lower(i) {
                acc = acc - row[j as usize] * x[j as usize];
            }
        }
        x[i] = acc;
        dense |= !acc.is_finite();
    }
    // Backward: U x = y.
    let mut dense = false;
    for i in (0..n).rev() {
        let row = &lu[i * n..(i + 1) * n];
        let mut acc = x[i];
        if dense {
            for (&u, &xj) in row[i + 1..].iter().zip(&x[i + 1..]) {
                acc = acc - u * xj;
            }
        } else {
            for &j in pattern.upper(i) {
                acc = acc - row[j as usize] * x[j as usize];
            }
        }
        let xi = acc / row[i];
        x[i] = xi;
        dense |= !xi.is_finite();
    }
}

/// LU factorization (with partial pivoting) of a real square matrix.
///
/// The factorization satisfies `P A = L U` where `L` is unit lower
/// triangular, `U` upper triangular and `P` a permutation. Storage is
/// in-place: `L` (below the diagonal, implicit unit diagonal) and `U` share
/// the original matrix buffer.
///
/// The kernels skip exact zeros (sub-diagonal entries, pivot-row entries,
/// and the `L`/`U` entries the substitutions would multiply) with results
/// identical to the textbook dense kernel: the same pivots,
/// [`LinalgError::Singular`] pivot and determinant, and bit-identical
/// nonzero values. Only the sign of an exact zero may differ; NaN and
/// infinities keep dense semantics.
///
/// # Example
///
/// ```
/// use paraspace_linalg::{LuFactor, Matrix};
///
/// # fn main() -> Result<(), paraspace_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]);
/// let lu = LuFactor::new(a)?;
/// let x = lu.solve(&[3.0, 4.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 1.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuFactor {
    pub(crate) lu: Matrix,
    pub(crate) pattern: LuPattern,
    sign: f64,
}

impl LuFactor {
    /// Factorizes `a`, consuming it.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square input and
    /// [`LinalgError::Singular`] when a pivot column is exactly zero.
    pub fn new(a: Matrix) -> Result<Self, LinalgError> {
        Self::new_reusing(a, LuPattern::default())
    }

    /// [`new`](Self::new), recording the pivots and pattern into `storage`
    /// (typically detached from a retired factorization by
    /// [`into_parts`](Self::into_parts)) instead of fresh allocations.
    ///
    /// # Errors
    ///
    /// As [`new`](Self::new).
    pub fn new_reusing(mut a: Matrix, mut storage: LuPattern) -> Result<Self, LinalgError> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { rows: a.rows(), cols: a.cols() });
        }
        let n = a.rows();
        let odd = factor(a.as_mut_slice(), n, &mut storage)?;
        Ok(LuFactor { lu: a, pattern: storage, sign: if odd { -1.0 } else { 1.0 } })
    }

    /// The dimension of the factored matrix.
    #[inline]
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Consumes the factorization, returning its matrix and index storage
    /// so a caller can reuse both allocations for the next factorization.
    pub fn into_parts(self) -> (Matrix, LuPattern) {
        (self.lu, self.pattern)
    }

    /// Solves `A x = b`, returning `x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        if b.len() != self.dim() {
            return Err(LinalgError::DimensionMismatch { expected: self.dim(), actual: b.len() });
        }
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        Ok(x)
    }

    /// Solves `A x = b` in place: on entry `b` holds the right-hand side, on
    /// exit the solution. Performs no heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub fn solve_in_place(&self, b: &mut [f64]) {
        assert_eq!(b.len(), self.dim(), "right-hand side length must equal matrix dimension");
        solve(self.lu.as_slice(), &self.pattern, b);
    }

    /// The determinant of the original matrix (product of pivots, signed by
    /// the permutation parity).
    pub fn det(&self) -> f64 {
        let mut d = self.sign;
        for i in 0..self.dim() {
            d *= self.lu[(i, i)];
        }
        d
    }

    /// Number of floating-point operations an LU factorization of this size
    /// performs (≈ 2n³/3), used by the virtual-GPU cost model.
    pub fn flops(n: usize) -> u64 {
        let n = n as u64;
        2 * n * n * n / 3
    }

    /// Flops of a single triangular solve pair (≈ 2n²).
    pub fn solve_flops(n: usize) -> u64 {
        let n = n as u64;
        2 * n * n
    }
}

/// LU factorization (partial pivoting) of a complex square matrix.
///
/// Mirrors [`LuFactor`] over [`Complex64`], with the same exact-zero
/// skipping and value-identity guarantee (the pivot search compares
/// `|x|²`); used for the complex Newton system of the Radau IIA method.
///
/// # Example
///
/// ```
/// use paraspace_linalg::{CluFactor, CMatrix, Complex64};
///
/// # fn main() -> Result<(), paraspace_linalg::LinalgError> {
/// let mut a = CMatrix::zeros(2, 2);
/// a[(0, 0)] = Complex64::new(0.0, 1.0);
/// a[(0, 1)] = Complex64::ONE;
/// a[(1, 0)] = Complex64::ONE;
/// a[(1, 1)] = Complex64::new(0.0, 1.0);
/// let lu = CluFactor::new(a)?;
/// // det = i*i - 1 = -2, so the system is well posed.
/// let x = lu.solve(&[Complex64::ONE, Complex64::ZERO])?;
/// assert!((x[0] - Complex64::new(0.0, -0.5)).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CluFactor {
    pub(crate) lu: CMatrix,
    pub(crate) pattern: LuPattern,
}

impl CluFactor {
    /// Factorizes `a`, consuming it.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square input and
    /// [`LinalgError::Singular`] when a pivot column vanishes.
    pub fn new(a: CMatrix) -> Result<Self, LinalgError> {
        Self::new_reusing(a, LuPattern::default())
    }

    /// [`new`](Self::new) into reclaimed index storage; see
    /// [`LuFactor::new_reusing`].
    ///
    /// # Errors
    ///
    /// As [`new`](Self::new).
    pub fn new_reusing(mut a: CMatrix, mut storage: LuPattern) -> Result<Self, LinalgError> {
        if a.rows() != a.cols() {
            return Err(LinalgError::NotSquare { rows: a.rows(), cols: a.cols() });
        }
        let n = a.rows();
        factor(a.as_mut_slice(), n, &mut storage)?;
        Ok(CluFactor { lu: a, pattern: storage })
    }

    /// The dimension of the factored matrix.
    #[inline]
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Consumes the factorization, returning its matrix and index storage
    /// so a caller can reuse both allocations for the next factorization.
    pub fn into_parts(self) -> (CMatrix, LuPattern) {
        (self.lu, self.pattern)
    }

    /// Solves `A x = b`, returning `x`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::DimensionMismatch`] if `b.len() != dim()`.
    pub fn solve(&self, b: &[Complex64]) -> Result<Vec<Complex64>, LinalgError> {
        if b.len() != self.dim() {
            return Err(LinalgError::DimensionMismatch { expected: self.dim(), actual: b.len() });
        }
        let mut x = b.to_vec();
        self.solve_in_place(&mut x);
        Ok(x)
    }

    /// Solves `A x = b` in place. Performs no heap allocation.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != dim()`.
    pub fn solve_in_place(&self, b: &mut [Complex64]) {
        assert_eq!(b.len(), self.dim(), "right-hand side length must equal matrix dimension");
        solve(self.lu.as_slice(), &self.pattern, b);
    }
}

/// Factorizes a batch of equally sized matrices, mirroring cuBLAS's
/// `getrfBatched` interface (the virtual-GPU engines charge device time for
/// this work; the numerics happen here).
///
/// # Errors
///
/// Fails on the first singular or non-square member, reporting its error.
pub fn batched_lu(batch: Vec<Matrix>) -> Result<Vec<LuFactor>, LinalgError> {
    batch.into_iter().map(LuFactor::new).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual_inf(a: &Matrix, x: &[f64], b: &[f64]) -> f64 {
        let ax = a.mul_vec(x);
        ax.iter().zip(b).map(|(p, q)| (p - q).abs()).fold(0.0, f64::max)
    }

    #[test]
    fn solves_known_3x3_system() {
        let a = Matrix::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]);
        let b = [8.0, -11.0, -3.0];
        let lu = LuFactor::new(a.clone()).unwrap();
        let x = lu.solve(&b).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!((x[2] - -1.0).abs() < 1e-12);
        assert!(residual_inf(&a, &x, &b) < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_leading_entry() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let lu = LuFactor::new(a).unwrap();
        let x = lu.solve(&[5.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 5.0]);
    }

    #[test]
    fn singular_matrix_is_reported() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert!(matches!(LuFactor::new(a), Err(LinalgError::Singular { pivot: 1 })));
    }

    #[test]
    fn not_square_is_reported() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(LuFactor::new(a), Err(LinalgError::NotSquare { rows: 2, cols: 3 })));
    }

    #[test]
    fn det_matches_cofactor_expansion() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let lu = LuFactor::new(a).unwrap();
        assert!((lu.det() - -2.0).abs() < 1e-12);
        // Permutation sign: swapping rows flips determinant sign.
        let b = Matrix::from_rows(&[&[3.0, 4.0], &[1.0, 2.0]]);
        assert!((LuFactor::new(b).unwrap().det() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn solve_in_place_matches_solve() {
        let a =
            Matrix::from_fn(5, 5, |i, j| if i == j { 4.0 } else { 1.0 / (1.0 + (i + j) as f64) });
        let b: Vec<f64> = (0..5).map(|i| (i as f64).sin() + 1.0).collect();
        let lu = LuFactor::new(a).unwrap();
        let x1 = lu.solve(&b).unwrap();
        let mut x2 = b.clone();
        lu.solve_in_place(&mut x2);
        for (p, q) in x1.iter().zip(&x2) {
            assert!((p - q).abs() < 1e-14);
        }
    }

    #[test]
    fn wrong_rhs_length_is_dimension_mismatch() {
        let lu = LuFactor::new(Matrix::identity(3)).unwrap();
        assert!(matches!(
            lu.solve(&[1.0, 2.0]),
            Err(LinalgError::DimensionMismatch { expected: 3, actual: 2 })
        ));
    }

    #[test]
    fn random_system_has_small_residual() {
        // Deterministic pseudo-random fill to avoid a rand dependency here.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let n = 40;
        let a = Matrix::from_fn(n, n, |i, j| next() + if i == j { 2.0 } else { 0.0 });
        let b: Vec<f64> = (0..n).map(|_| next()).collect();
        let lu = LuFactor::new(a.clone()).unwrap();
        let x = lu.solve(&b).unwrap();
        assert!(residual_inf(&a, &x, &b) < 1e-10);
    }

    #[test]
    fn complex_lu_solves_complex_system() {
        // A = [[1+i, 2], [3i, 1-i]], solve against a known x.
        let mut a = CMatrix::zeros(2, 2);
        a[(0, 0)] = Complex64::new(1.0, 1.0);
        a[(0, 1)] = Complex64::new(2.0, 0.0);
        a[(1, 0)] = Complex64::new(0.0, 3.0);
        a[(1, 1)] = Complex64::new(1.0, -1.0);
        let x_true = [Complex64::new(1.0, -2.0), Complex64::new(0.5, 0.5)];
        let b = a.mul_vec(&x_true);
        let lu = CluFactor::new(a).unwrap();
        let x = lu.solve(&b).unwrap();
        for (p, q) in x.iter().zip(&x_true) {
            assert!((*p - *q).abs() < 1e-12);
        }
    }

    #[test]
    fn complex_singular_detection() {
        let a = CMatrix::zeros(3, 3);
        assert!(matches!(CluFactor::new(a), Err(LinalgError::Singular { pivot: 0 })));
    }

    #[test]
    fn complex_pivoting_zero_leading_entry() {
        let mut a = CMatrix::zeros(2, 2);
        a[(0, 1)] = Complex64::ONE;
        a[(1, 0)] = Complex64::I;
        let lu = CluFactor::new(a).unwrap();
        let x = lu.solve(&[Complex64::ONE, Complex64::ONE]).unwrap();
        // x0 = 1/i = -i, x1 = 1.
        assert!((x[0] - Complex64::new(0.0, -1.0)).abs() < 1e-14);
        assert!((x[1] - Complex64::ONE).abs() < 1e-14);
    }

    #[test]
    fn batched_lu_factors_all_members() {
        let batch: Vec<Matrix> = (1..5)
            .map(|k| Matrix::from_fn(3, 3, |i, j| if i == j { k as f64 + 1.0 } else { 0.5 }))
            .collect();
        let factors = batched_lu(batch).unwrap();
        assert_eq!(factors.len(), 4);
        for f in &factors {
            assert_eq!(f.dim(), 3);
        }
    }

    #[test]
    fn flop_counts_scale_cubically() {
        assert_eq!(LuFactor::flops(10), 2 * 1000 / 3);
        assert!(LuFactor::flops(20) > 7 * LuFactor::flops(10));
        assert_eq!(LuFactor::solve_flops(10), 200);
    }

    #[test]
    fn one_by_one_system() {
        let lu = LuFactor::new(Matrix::from_rows(&[&[4.0]])).unwrap();
        assert_eq!(lu.solve(&[8.0]).unwrap(), vec![2.0]);
        assert_eq!(lu.det(), 4.0);
    }
}
