//! The exact-zero-skipping LU kernels against the dense reference on the
//! bundled models.
//!
//! * Kernel level: the metabolic network's Radau iteration matrices
//!   `γ/h·I − J` and `(α+iβ)/h·I − J`, at several step sizes and at states a
//!   real Radau solve visits, factor and solve with the same pivots and
//!   bit-identical nonzero values as the dense kernel.
//! * Solver level: Radau5 and Radau5Sens on metabolic members, and LSODA
//!   and VODE on stiff models, produce `==` trajectories and identical
//!   step statistics with every LU forced through the dense kernel.

use paraspace_core::{RbmOdeSystem, RbmSensSystem};
use paraspace_linalg::dense_reference::{
    assert_clu_matches, assert_lu_matches, with_dense_kernels,
};
use paraspace_linalg::{CMatrix, Complex64, Matrix};
use paraspace_models::{classic, metabolic};
use paraspace_rbm::ReactionBasedModel;
use paraspace_solvers::{
    Lsoda, OdeSolver, OdeSystem, Radau5, Radau5Sens, SolveFailure, SolverOptions, StepStats, Vode,
};

// The Radau IIA inverse eigenvalues γ and α ± iβ (radau5.f), as the solver
// puts them on the iteration matrices' diagonals.
const GAMMA: f64 = 3.6378342527444962;
const ALPHA: f64 = 2.6810828736277523;
const BETA: f64 = 3.0504301992474105;

/// Two metabolic members: the baseline and one with the 11 HK species set
/// inside the published sampling range.
fn metabolic_members(m: &ReactionBasedModel) -> Vec<Vec<f64>> {
    let hk: Vec<f64> = (0..11).map(|i| 1e-6 * (1 + i % 7) as f64).collect();
    vec![m.initial_state(), metabolic::initial_state_with_hk(m, &hk)]
}

#[test]
fn metabolic_iteration_matrices_match_the_dense_kernel() {
    let m = metabolic::model();
    let odes = m.compile().unwrap();
    let sys = RbmOdeSystem::new(&odes, m.rate_constants());
    let n = sys.dim();
    let x0 = metabolic_members(&m).remove(1);
    let times = [1e-3, 0.1, 1.0, 10.0];
    let sol = Radau5::new().solve(&sys, 0.0, &x0, &times, &SolverOptions::default()).unwrap();

    let mut jac = Matrix::zeros(n, n);
    let mut f = vec![0.0; n];
    for (s, (t, y)) in
        std::iter::once((0.0, &x0)).chain(times.into_iter().zip(&sol.states)).enumerate()
    {
        sys.jacobian(t, y, &mut jac);
        sys.rhs(t, y, &mut f);
        let mut unit = vec![0.0; n];
        unit[s * 17 % n] = 1.0;
        for h in [1e-6, 1e-3, 0.1, 10.0] {
            let label = format!("state {s}, h={h}");
            let real =
                Matrix::from_fn(n, n, |i, j| -jac[(i, j)] + if i == j { GAMMA / h } else { 0.0 });
            assert_lu_matches(&label, &real, &[f.clone(), unit.clone()])
                .unwrap_or_else(|e| panic!("{label}: {e}"));

            let mut cplx = CMatrix::zeros(n, n);
            for i in 0..n {
                for j in 0..n {
                    cplx[(i, j)] = Complex64::new(-jac[(i, j)], 0.0);
                }
                cplx[(i, i)] += Complex64::new(ALPHA / h, BETA / h);
            }
            let lift = |v: &[f64]| v.iter().map(|&x| Complex64::new(x, -0.5 * x)).collect();
            assert_clu_matches(&label, &cplx, &[lift(&f), lift(&unit)])
                .unwrap_or_else(|e| panic!("{label}: {e}"));
        }
    }
}

/// Runs `solve` as shipped and with every LU on the dense reference, and
/// requires both to succeed with `==` samples (and sensitivities) and
/// identical step statistics.
fn assert_same_as_dense<T: PartialEq>(
    label: &str,
    solve: impl Fn() -> Result<(Vec<Vec<f64>>, T, StepStats), SolveFailure>,
) {
    let (states, extra, stats) = solve().unwrap_or_else(|e| panic!("{label}: {e:?}"));
    let (ref_states, ref_extra, ref_stats) =
        with_dense_kernels(&solve).unwrap_or_else(|e| panic!("{label} (dense): {e:?}"));
    assert!(states == ref_states, "{label}: trajectories differ from the dense kernel");
    assert!(extra == ref_extra, "{label}: sensitivities differ from the dense kernel");
    assert_eq!(stats, ref_stats, "{label}: step statistics differ");
    assert!(stats.lu_decompositions > 0, "{label}: no LU was exercised");
}

#[test]
fn radau5_on_metabolic_members_matches_the_dense_kernel() {
    let m = metabolic::model();
    let odes = m.compile().unwrap();
    let sys = RbmOdeSystem::new(&odes, m.rate_constants());
    let times = [1.0, 2.0, 5.0, 10.0];
    let opts = SolverOptions::default();
    for (i, x0) in metabolic_members(&m).iter().enumerate() {
        assert_same_as_dense(&format!("radau5 member {i}"), || {
            Radau5::new().solve(&sys, 0.0, x0, &times, &opts).map(|s| (s.states, (), s.stats))
        });
    }
}

#[test]
fn radau5_sens_on_metabolic_matches_the_dense_kernel() {
    let m = metabolic::model();
    let odes = m.compile().unwrap();
    let sys = RbmSensSystem::new(&odes, m.rate_constants(), vec![0, 57, 113, 225]);
    let x0 = metabolic_members(&m).remove(1);
    let times = [0.1, 1.0];
    let opts = SolverOptions::default();
    assert_same_as_dense("radau5-sens", || {
        Radau5Sens::new()
            .solve(&sys, 0.0, &x0, &times, &opts)
            .map(|s| (s.solution.states, s.sens, s.solution.stats))
    });
}

#[test]
fn multistep_bdf_on_stiff_models_matches_the_dense_kernel() {
    let robertson = classic::robertson();
    let metabolic = metabolic::model();
    for (name, m, times) in [
        ("robertson", &robertson, vec![1e-2, 1.0, 1e2, 1e4]),
        ("metabolic", &metabolic, vec![1.0, 10.0]),
    ] {
        let odes = m.compile().unwrap();
        let sys = RbmOdeSystem::new(&odes, m.rate_constants());
        let x0 = m.initial_state();
        let opts = SolverOptions::default();
        for solver in [&Lsoda::new() as &dyn OdeSolver, &Vode::new()] {
            assert_same_as_dense(&format!("{} on {name}", solver.name()), || {
                solver.solve(&sys, 0.0, &x0, &times, &opts).map(|s| (s.states, (), s.stats))
            });
        }
    }
}
