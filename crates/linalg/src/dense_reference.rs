//! The textbook dense LU kernels — every row update over every trailing
//! column, every substitution dot product over every entry — kept as the
//! reference the exact-zero-skipping [`LuFactor`] / [`CluFactor`] kernels
//! are pinned against.
//!
//! Compiled only for this crate's tests and under the `dense-reference`
//! feature, which only test and bench targets enable: no shipped code path
//! can select these kernels.
//!
//! * [`with_dense_kernels`] runs a closure with every factorization and
//!   solve on the calling thread going through the dense kernels, so whole
//!   solvers can be compared run against run;
//! * [`assert_lu_matches`] / [`assert_clu_matches`] factor and solve one
//!   system both ways and check the module-level contract of
//!   [`lu`](crate::LuFactor): same outcome and pivot sequence, `==` on
//!   every factor entry with identical bits on every nonzero, identical
//!   determinant, and solves that agree the same way (NaN where the
//!   reference has NaN).

use std::cell::Cell;

use crate::lu::Entry;
use crate::{CMatrix, CluFactor, Complex64, LinalgError, LuFactor, Matrix};

thread_local! {
    static FORCED: Cell<bool> = const { Cell::new(false) };
}

/// Whether the calling thread is inside [`with_dense_kernels`].
pub(crate) fn forced() -> bool {
    FORCED.with(Cell::get)
}

/// Runs `f` with every [`LuFactor`] / [`CluFactor`] factorization and solve
/// on this thread using the dense reference kernels. A factorization made
/// inside must be solved inside (and vice versa): the dense factor records
/// no nonzero pattern.
pub fn with_dense_kernels<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            FORCED.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(FORCED.with(|c| c.replace(true)));
    f()
}

/// Dense in-place `P A = L U` with full row swaps; returns whether the
/// permutation is odd.
pub(crate) fn factor<T: Entry>(
    a: &mut [T],
    n: usize,
    pivots: &mut Vec<usize>,
) -> Result<bool, LinalgError> {
    pivots.clear();
    let mut odd = false;
    for k in 0..n {
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
        pivots.push(piv);
        if piv != k {
            for j in 0..n {
                a.swap(k * n + j, piv * n + j);
            }
            odd = !odd;
        }
        let pivot = a[k * n + k];
        for i in (k + 1)..n {
            let m = a[i * n + k] / pivot;
            a[i * n + k] = m;
            if m != T::ZERO {
                for j in (k + 1)..n {
                    let u = a[k * n + j];
                    a[i * n + j] = a[i * n + j] - m * u;
                }
            }
        }
    }
    Ok(odd)
}

/// Dense forward and backward substitution on an already permuted `x`.
pub(crate) fn substitute<T: Entry>(lu: &[T], x: &mut [T]) {
    let n = x.len();
    for i in 1..n {
        let mut acc = x[i];
        for j in 0..i {
            acc = acc - lu[i * n + j] * x[j];
        }
        x[i] = acc;
    }
    for i in (0..n).rev() {
        let mut acc = x[i];
        for j in (i + 1)..n {
            acc = acc - lu[i * n + j] * x[j];
        }
        x[i] = acc / lu[i * n + i];
    }
}

/// The value-identity relation of the contract: equal under `==` (so a
/// zero of either sign matches) with identical bits unless zero, or both
/// NaN.
trait Identical: Copy + std::fmt::Debug {
    fn identical(self, want: Self) -> bool;
}

impl Identical for f64 {
    fn identical(self, want: f64) -> bool {
        if want.is_nan() {
            self.is_nan()
        } else {
            self == want && (want == 0.0 || self.to_bits() == want.to_bits())
        }
    }
}

impl Identical for Complex64 {
    fn identical(self, want: Complex64) -> bool {
        self.re.identical(want.re) && self.im.identical(want.im)
    }
}

fn assert_identical<T: Identical>(label: &str, what: &str, got: &[T], want: &[T]) {
    assert_eq!(got.len(), want.len(), "{label}: {what} lengths differ");
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        assert!(g.identical(w), "{label}: {what} [{i}] is {g:?}, reference {w:?}");
    }
}

/// Both factorizations, or the shared error (which must be the same).
fn both<F: std::fmt::Debug>(
    label: &str,
    got: Result<F, LinalgError>,
    want: Result<F, LinalgError>,
) -> Result<(F, F), LinalgError> {
    match (got, want) {
        (Ok(g), Ok(w)) => Ok((g, w)),
        (Err(g), Err(w)) => {
            assert_eq!(g, w, "{label}: factorization errors differ");
            Err(g)
        }
        (g, w) => panic!("{label}: outcome differs: {g:?} vs reference {w:?}"),
    }
}

/// Factors `a` with [`LuFactor::new`] and with the dense reference, then
/// solves each of `rhs` both ways, panicking with `label` on the first
/// breach of the value-identity contract. Returns the shared error if `a`
/// does not factor.
pub fn assert_lu_matches(label: &str, a: &Matrix, rhs: &[Vec<f64>]) -> Result<(), LinalgError> {
    let (got, want) =
        both(label, LuFactor::new(a.clone()), with_dense_kernels(|| LuFactor::new(a.clone())))?;
    assert_eq!(got.pattern.pivots, want.pattern.pivots, "{label}: pivot sequence differs");
    assert_identical(label, "factor entry", got.lu.as_slice(), want.lu.as_slice());
    assert_identical(label, "det", &[got.det()], &[want.det()]);
    for b in rhs {
        let (mut x, mut y) = (b.clone(), b.clone());
        got.solve_in_place(&mut x);
        with_dense_kernels(|| want.solve_in_place(&mut y));
        assert_identical(label, "solution", &x, &y);
    }
    Ok(())
}

/// [`assert_lu_matches`] for the complex kernel.
pub fn assert_clu_matches(
    label: &str,
    a: &CMatrix,
    rhs: &[Vec<Complex64>],
) -> Result<(), LinalgError> {
    let (got, want) =
        both(label, CluFactor::new(a.clone()), with_dense_kernels(|| CluFactor::new(a.clone())))?;
    assert_eq!(got.pattern.pivots, want.pattern.pivots, "{label}: pivot sequence differs");
    assert_identical(label, "factor entry", got.lu.as_slice(), want.lu.as_slice());
    for b in rhs {
        let (mut x, mut y) = (b.clone(), b.clone());
        got.solve_in_place(&mut x);
        with_dense_kernels(|| want.solve_in_place(&mut y));
        assert_identical(label, "solution", &x, &y);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic values in [-0.5, 0.5) (no rand dependency here).
    fn rng(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        }
    }

    /// A random `n × n` matrix with about `density` of its off-diagonal
    /// entries nonzero; structural zeros alternate `+0.0` / `-0.0`, and a
    /// diagonal of `diag` (zero forces pivoting).
    fn sparse_matrix(n: usize, density: f64, diag: f64, next: &mut impl FnMut() -> f64) -> Matrix {
        let mut zero_sign = false;
        Matrix::from_fn(n, n, |i, j| {
            if i == j && diag != 0.0 {
                return diag + next();
            }
            if next() + 0.5 < density {
                next()
            } else {
                zero_sign = !zero_sign;
                if zero_sign {
                    -0.0
                } else {
                    0.0
                }
            }
        })
    }

    fn complexify(a: &Matrix, next: &mut impl FnMut() -> f64) -> CMatrix {
        let mut c = CMatrix::zeros(a.rows(), a.cols());
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                let re = a[(i, j)];
                // Keep structural zeros zero (either sign) in both parts.
                let im = if re == 0.0 { -re } else { next() };
                c[(i, j)] = Complex64::new(re, im);
            }
        }
        c
    }

    fn rhs_set(n: usize, next: &mut impl FnMut() -> f64) -> Vec<Vec<f64>> {
        let mut sparse: Vec<f64> = (0..n).map(|_| 0.0).collect();
        if n > 0 {
            sparse[n / 2] = 1.0;
        }
        vec![(0..n).map(|_| next()).collect(), sparse, vec![-0.0; n]]
    }

    fn crhs_set(n: usize, next: &mut impl FnMut() -> f64) -> Vec<Vec<Complex64>> {
        rhs_set(n, next)
            .into_iter()
            .map(|b| b.into_iter().map(|v| Complex64::new(v, 0.5 * v)).collect())
            .collect()
    }

    fn check_both(label: &str, a: &Matrix, next: &mut impl FnMut() -> f64) {
        let n = a.rows();
        let _ = assert_lu_matches(label, a, &rhs_set(n, next));
        let c = complexify(a, next);
        let _ = assert_clu_matches(&format!("{label} (complex)"), &c, &crhs_set(n, next));
    }

    #[test]
    fn random_dense_matrices_match_the_dense_kernel() {
        let mut next = rng(0x9e37_79b9_7f4a_7c15);
        for n in [0usize, 1, 2, 3, 7, 16, 33] {
            for diag in [0.0, 2.0] {
                let a = Matrix::from_fn(n, n, |i, j| next() + if i == j { diag } else { 0.0 });
                check_both(&format!("dense n={n} diag={diag}"), &a, &mut next);
            }
        }
    }

    #[test]
    fn random_sparse_patterns_with_signed_zeros_match_the_dense_kernel() {
        let mut next = rng(0x5eed_cafe);
        for n in [4usize, 12, 40, 114] {
            for density in [0.02, 0.05, 0.15, 0.4, 0.8] {
                for diag in [0.0, 1.0, 100.0] {
                    let a = sparse_matrix(n, density, diag, &mut next);
                    check_both(&format!("sparse n={n} p={density} diag={diag}"), &a, &mut next);
                }
            }
        }
    }

    #[test]
    fn singular_matrices_report_the_same_pivot() {
        let mut next = rng(0xdead_beef);
        let n = 9;
        // A zero column, two dependent rows, and an all-zero matrix.
        let mut zero_col = sparse_matrix(n, 0.3, 2.0, &mut next);
        for i in 0..n {
            zero_col[(i, 4)] = if i % 2 == 0 { 0.0 } else { -0.0 };
        }
        let mut dependent = sparse_matrix(n, 0.3, 2.0, &mut next);
        for j in 0..n {
            dependent[(6, j)] = 2.0 * dependent[(2, j)];
        }
        for (label, a, pivot) in [
            ("zero column", zero_col, Some(4)),
            ("dependent rows", dependent, None),
            ("all zero", Matrix::zeros(n, n), Some(0)),
        ] {
            let real = assert_lu_matches(label, &a, &[]);
            let cplx = assert_clu_matches(label, &complexify(&a, &mut next), &[]);
            if let Some(p) = pivot {
                assert_eq!(real.unwrap_err(), LinalgError::Singular { pivot: p }, "{label}");
                assert_eq!(cplx.unwrap_err(), LinalgError::Singular { pivot: p }, "{label}");
            }
        }
    }

    #[test]
    fn non_finite_entries_keep_dense_semantics() {
        let mut next = rng(0x0bad_f00d);
        let n = 12;
        for (s, &bad) in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY].iter().enumerate() {
            for pos in [(0, 0), (0, 5), (3, 3), (7, 2), (11, 11), (5, 9)] {
                let mut a = sparse_matrix(n, 0.2, 3.0, &mut next);
                a[pos] = bad;
                check_both(&format!("matrix {bad} at {pos:?}"), &a, &mut next);
            }
            // Non-finite right-hand sides, including at the first and last
            // element and against exact zeros of L and U.
            let a = sparse_matrix(n, 0.2, 3.0, &mut next);
            for at in [0, 4, n - 1] {
                let mut b: Vec<f64> = (0..n).map(|_| next()).collect();
                b[at] = bad;
                let mut zeros = vec![0.0; n];
                zeros[at] = bad;
                let label = format!("rhs {bad} at {at} (case {s})");
                assert_lu_matches(&label, &a, &[b.clone(), zeros.clone()]).unwrap();
                let lift = |v: &Vec<f64>| v.iter().map(|&x| Complex64::new(x, 0.0)).collect();
                let c = complexify(&a, &mut next);
                assert_clu_matches(&label, &c, &[lift(&b), lift(&zeros)]).unwrap();
            }
        }
    }

    #[test]
    fn non_finite_solution_elements_poison_through_zero_entries() {
        // No pivoting and an exact zero in L (row 1) and U (row 1): the
        // dense kernel multiplies the zero by the non-finite element
        // computed first in each sweep (x[0] forward, x[2] backward).
        let a = Matrix::from_rows(&[&[2.0, 1.0, 0.5], &[0.0, 2.0, 0.0], &[1.0, 0.5, 2.0]]);
        for bad in [f64::NAN, f64::INFINITY] {
            let (forward, backward) = (vec![bad, 1.0, 1.0], vec![0.0, 1.0, bad]);
            assert_lu_matches("non-finite x", &a, &[forward.clone(), backward.clone()]).unwrap();
            let c = complexify(&a, &mut rng(5));
            let lift = |v: Vec<f64>| v.into_iter().map(|x| Complex64::new(x, 0.0)).collect();
            assert_clu_matches("non-finite x", &c, &[lift(forward), lift(backward)]).unwrap();
        }
    }

    #[test]
    fn overflowing_elimination_keeps_dense_semantics() {
        // Finite input whose first elimination step overflows to +∞ in some
        // rows and cancels to an exact zero in another; later steps then
        // meet infinite pivots, infinite multipliers and ∞ − ∞ = NaN.
        let mut next = rng(0x0f10_0f10);
        let n = 10;
        for big in [1.5e308, f64::MAX] {
            let mut a = sparse_matrix(n, 0.2, 3.0, &mut next);
            a[(0, 0)] = 1.0;
            for (i, sign) in [(2, 1.0), (5, 1.0), (7, -1.0)] {
                a[(i, 0)] = -1.0;
                for j in [3, 6] {
                    a[(0, j)] = big;
                    a[(i, j)] = sign * big;
                }
            }
            let dense = with_dense_kernels(|| LuFactor::new(a.clone())).unwrap();
            assert!(
                dense.lu.as_slice().iter().any(|v| !v.is_finite()),
                "the elimination must overflow"
            );
            check_both(&format!("overflow big={big:e}"), &a, &mut next);
        }
    }

    #[test]
    fn reused_storage_of_any_size_factors_identically() {
        let mut next = rng(77);
        let big = sparse_matrix(30, 0.3, 2.0, &mut next);
        let small = sparse_matrix(5, 0.5, 2.0, &mut next);
        let (_, storage) = LuFactor::new(big.clone()).unwrap().into_parts();
        let reused = LuFactor::new_reusing(small.clone(), storage).unwrap();
        let fresh = LuFactor::new(small).unwrap();
        let (_, storage) = reused.clone().into_parts();
        let again = LuFactor::new_reusing(big.clone(), storage).unwrap();
        let b: Vec<f64> = (0..5).map(|_| next()).collect();
        assert_eq!(reused.solve(&b).unwrap(), fresh.solve(&b).unwrap());
        let b: Vec<f64> = (0..30).map(|_| next()).collect();
        assert_eq!(again.solve(&b).unwrap(), LuFactor::new(big).unwrap().solve(&b).unwrap());
    }

    #[test]
    fn skipping_exact_zeros_only_flips_zero_signs() {
        // The documented caveat is reachable: a zero that the dense kernel
        // writes as 0/pivot keeps the input's sign here.
        let a = Matrix::from_rows(&[&[-2.0, 1.0], &[-0.0, 3.0]]);
        let got = LuFactor::new(a.clone()).unwrap();
        let want = with_dense_kernels(|| LuFactor::new(a.clone())).unwrap();
        assert_eq!(got.lu[(1, 0)].to_bits(), (-0.0f64).to_bits());
        assert_eq!(want.lu[(1, 0)].to_bits(), 0.0f64.to_bits());
        assert_lu_matches("signed zero", &a, &[vec![1.0, -0.0]]).unwrap();
    }
}
