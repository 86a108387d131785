//! Bitwise-determinism guarantees of the host-parallel executor path.
//!
//! Every engine must produce the **identical** batch result at any worker
//! count: exact f64 trajectories, exact step statistics, exact simulated
//! timelines. The reference is the default (sequential) engine; 2- and
//! 4-worker runs are compared field by field with `==`, never with
//! tolerances — a single reordered f64 accumulation or a worker-order leak
//! into the timeline fails these tests.

use paraspace_core::{
    classify_batch, AutoEngine, BatchResult, CoarseEngine, CpuEngine, CpuSolverKind,
    FineCoarseEngine, FineEngine, RbmOdeSystem, RecoveryPolicy, SimulationJob, Simulator,
    STIFFNESS_THRESHOLD,
};
use paraspace_rbm::sbgen::SbGen;
use paraspace_rbm::{perturbed_batch, Parameterization, Reaction, ReactionBasedModel};
use paraspace_solvers::{Dopri5, FaultPlan, FaultSpec, OdeSolver, Radau5, SolverOptions};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn reversible_model() -> ReactionBasedModel {
    let mut m = ReactionBasedModel::new();
    let a = m.add_species("A", 1.0);
    let b = m.add_species("B", 0.0);
    m.add_reaction(Reaction::mass_action(&[(a, 1)], &[(b, 1)], 1.5)).unwrap();
    m.add_reaction(Reaction::mass_action(&[(b, 1)], &[(a, 1)], 0.5)).unwrap();
    m
}

/// A batch that exercises every path: perturbed non-stiff members, one
/// strongly stiff member (P2 → RADAU5 in fine-coarse, lockstep RADAU5 in
/// fine), and enough members that 4 workers all get work.
fn mixed_job(m: &ReactionBasedModel) -> SimulationJob<'_> {
    let mut rng = StdRng::seed_from_u64(42);
    let mut params = perturbed_batch(m, 11, &mut rng);
    params.push(Parameterization::new().with_rate_constants(vec![2e5, 2e5]));
    SimulationJob::builder(m)
        .time_points(vec![0.25, 0.5, 1.0, 2.0])
        .parameterizations(params)
        .build()
        .unwrap()
}

/// A stiff-dominated batch: every member crosses the stiffness threshold,
/// with enough parameter spread that lanes genuinely diverge in step size
/// and Jacobian-refresh cadence.
fn stiff_job(m: &ReactionBasedModel) -> SimulationJob<'_> {
    let mut b = SimulationJob::builder(m).time_points(vec![0.25, 0.5, 1.0, 2.0]);
    for i in 0..10 {
        b = b.parameterization(
            Parameterization::new()
                .with_rate_constants(vec![1e5 + 2.5e4 * i as f64, 2e5 + 1.5e4 * i as f64]),
        );
    }
    b.build().unwrap()
}

/// Asserts two batch results are identical in every observable except host
/// wall time (which measures this process, not the modeled run).
fn assert_identical(reference: &BatchResult, parallel: &BatchResult, label: &str) {
    assert_eq!(reference.engine, parallel.engine, "{label}: engine name");
    assert_eq!(reference.outcomes.len(), parallel.outcomes.len(), "{label}: batch size");
    for (i, (r, p)) in reference.outcomes.iter().zip(&parallel.outcomes).enumerate() {
        assert_eq!(r.stiff, p.stiff, "{label}: member {i} stiffness class");
        assert_eq!(r.rerouted, p.rerouted, "{label}: member {i} reroute flag");
        assert_eq!(r.solver, p.solver, "{label}: member {i} solver");
        match (&r.solution, &p.solution) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.times, b.times, "{label}: member {i} sample times");
                assert_eq!(
                    a.states, b.states,
                    "{label}: member {i} trajectory must be bitwise identical"
                );
                assert_eq!(a.stats, b.stats, "{label}: member {i} step statistics");
            }
            (Err(a), Err(b)) => {
                assert_eq!(a.to_string(), b.to_string(), "{label}: member {i} failure");
            }
            _ => panic!("{label}: member {i} succeeded in one run and failed in the other"),
        }
    }
    assert_eq!(
        reference.timing.simulated_total_ns, parallel.timing.simulated_total_ns,
        "{label}: simulated total"
    );
    assert_eq!(
        reference.timing.simulated_integration_ns, parallel.timing.simulated_integration_ns,
        "{label}: simulated integration time"
    );
    assert_eq!(
        reference.timing.simulated_io_ns, parallel.timing.simulated_io_ns,
        "{label}: simulated I/O time"
    );
    assert_eq!(reference.health, parallel.health, "{label}: batch health");
}

#[test]
fn fine_coarse_engine_is_bitwise_deterministic_across_thread_counts() {
    let m = reversible_model();
    let job = mixed_job(&m);
    let reference = FineCoarseEngine::new().run(&job).unwrap();
    assert!(reference.outcomes.iter().any(|o| o.stiff), "batch must exercise the stiff path");
    for threads in [1, 2, 4] {
        let parallel = FineCoarseEngine::new().with_threads(threads).run(&job).unwrap();
        assert_identical(&reference, &parallel, &format!("fine-coarse, {threads} threads"));
    }
}

#[test]
fn coarse_engine_is_bitwise_deterministic_across_thread_counts() {
    let m = reversible_model();
    let job = mixed_job(&m);
    let reference = CoarseEngine::new().run(&job).unwrap();
    for threads in [1, 2, 4] {
        let parallel = CoarseEngine::new().with_threads(threads).run(&job).unwrap();
        assert_identical(&reference, &parallel, &format!("coarse, {threads} threads"));
    }
}

#[test]
fn fine_engine_is_bitwise_deterministic_across_thread_counts() {
    let m = reversible_model();
    let job = mixed_job(&m);
    let reference = FineEngine::new().run(&job).unwrap();
    assert!(
        reference.outcomes.iter().any(|o| o.solver == "radau5-lanes"),
        "batch must exercise the stiff lockstep path"
    );
    for threads in [1, 2, 4] {
        let parallel = FineEngine::new().with_threads(threads).run(&job).unwrap();
        assert_identical(&reference, &parallel, &format!("fine, {threads} threads"));
    }
}

#[test]
fn fine_engine_lane_trajectories_are_bitwise_identical_across_lane_widths() {
    // The lockstep lane path must give every member the exact trajectory it
    // would get alone: lane width (and therefore group packing) must never
    // leak into the numerics. Width 1 is excluded — it selects the scalar
    // RKF45 baseline path, a different method by design.
    let m = reversible_model();
    let job = mixed_job(&m);
    let reference = FineEngine::new().with_lane_width(2).run(&job).unwrap();
    assert!(
        reference.outcomes.iter().any(|o| o.solver == "dopri5-lanes"),
        "batch must exercise the lockstep path"
    );
    assert!(
        reference.outcomes.iter().any(|o| o.solver == "radau5-lanes"),
        "mixed batch must also exercise the stiff lockstep path"
    );
    for width in [3, 4, 8] {
        let other = FineEngine::new().with_lane_width(width).run(&job).unwrap();
        for (i, (r, p)) in reference.outcomes.iter().zip(&other.outcomes).enumerate() {
            assert_eq!(r.solver, p.solver, "width {width}: member {i} solver");
            match (&r.solution, &p.solution) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.states, b.states, "width {width}: member {i} trajectory");
                    assert_eq!(a.stats, b.stats, "width {width}: member {i} stats");
                }
                (Err(a), Err(b)) => {
                    assert_eq!(a.to_string(), b.to_string(), "width {width}: member {i}")
                }
                _ => panic!("width {width}: member {i} outcome class changed"),
            }
        }
    }
}

#[test]
fn stiff_batch_lockstep_radau_is_bitwise_identical_to_scalar_at_any_width() {
    // Every lane width × thread count must reproduce the direct scalar
    // RADAU5 solve of each member exactly — trajectories, sample times,
    // and every work counter. This is the stiff twin of the DOPRI5 lane
    // guarantee: lane packing, compaction order, and host parallelism must
    // never leak into the numerics.
    use paraspace_core::RbmOdeSystem;
    use paraspace_solvers::{OdeSolver, Radau5, SolverScratch};

    let m = reversible_model();
    let job = stiff_job(&m);
    let mut scratch = SolverScratch::new();
    let reference: Vec<_> = (0..job.batch_size())
        .map(|i| {
            let (x0, k) = job.member(i);
            let sys = RbmOdeSystem::new(job.odes(), k.to_vec());
            Radau5::new()
                .solve_pooled(&sys, 0.0, x0, job.time_points(), job.options(), &mut scratch)
                .unwrap()
        })
        .collect();

    for width in [2, 4, 8] {
        for threads in [1, 8] {
            let r =
                FineEngine::new().with_lane_width(width).with_threads(threads).run(&job).unwrap();
            for (i, expected) in reference.iter().enumerate() {
                let label = format!("width {width}, {threads} threads, member {i}");
                assert!(r.outcomes[i].stiff, "{label}: must classify stiff");
                assert_eq!(r.outcomes[i].solver, "radau5-lanes", "{label}");
                let sol = r.outcomes[i].solution.as_ref().unwrap();
                assert_eq!(sol.times, expected.times, "{label}: sample times");
                assert_eq!(sol.states, expected.states, "{label}: trajectory");
                assert_eq!(sol.stats, expected.stats, "{label}: step statistics");
            }
        }
    }
}

#[test]
fn autotuned_lane_width_leaves_stiff_rows_unchanged() {
    // With no pinned width, both lockstep engines resolve the lane width
    // through the per-model autotuner. Whatever it picks, the stiff rows
    // must stay exactly what the direct scalar RADAU5 solve produces —
    // the autotuner is a throughput decision, never a numerics change.
    use paraspace_core::RbmOdeSystem;
    use paraspace_solvers::{OdeSolver, Radau5, SolverScratch};

    let m = reversible_model();
    let job = stiff_job(&m);
    let mut scratch = SolverScratch::new();
    let reference: Vec<_> = (0..job.batch_size())
        .map(|i| {
            let (x0, k) = job.member(i);
            let sys = RbmOdeSystem::new(job.odes(), k.to_vec());
            Radau5::new()
                .solve_pooled(&sys, 0.0, x0, job.time_points(), job.options(), &mut scratch)
                .unwrap()
        })
        .collect();

    for threads in [1, 8] {
        let fine = FineEngine::new().with_threads(threads).run(&job).unwrap();
        let fine_coarse = FineCoarseEngine::new().with_threads(threads).run(&job).unwrap();
        for (i, expected) in reference.iter().enumerate() {
            for (engine, r) in [("fine", &fine), ("fine-coarse", &fine_coarse)] {
                let label = format!("{engine} autotuned, {threads} threads, member {i}");
                assert!(r.outcomes[i].stiff, "{label}: must classify stiff");
                let sol = r.outcomes[i].solution.as_ref().unwrap();
                assert_eq!(sol.times, expected.times, "{label}: sample times");
                assert_eq!(sol.states, expected.states, "{label}: trajectory");
                assert_eq!(sol.stats, expected.stats, "{label}: step statistics");
            }
        }
    }
}

#[test]
fn cpu_engines_are_bitwise_deterministic_across_thread_counts() {
    let m = reversible_model();
    let job = mixed_job(&m);
    for kind in [CpuSolverKind::Lsoda, CpuSolverKind::Vode] {
        let reference = CpuEngine::new(kind).run(&job).unwrap();
        for threads in [1, 2, 4] {
            let parallel = CpuEngine::new(kind).with_threads(threads).run(&job).unwrap();
            assert_identical(&reference, &parallel, &format!("cpu {kind:?}, {threads} threads"));
        }
    }
}

#[test]
fn auto_engine_forwards_threads_deterministically() {
    let m = reversible_model();
    // Large enough to dispatch to a GPU engine.
    let mut rng = StdRng::seed_from_u64(7);
    let job = SimulationJob::builder(&m)
        .time_points(vec![0.5, 1.0])
        .parameterizations(perturbed_batch(&m, 300, &mut rng))
        .build()
        .unwrap();
    let reference = AutoEngine::new().run(&job).unwrap();
    let parallel = AutoEngine::new().with_threads(4).run(&job).unwrap();
    assert_identical(&reference, &parallel, "auto, 4 threads");
}

#[test]
fn batches_with_failed_and_retried_members_stay_deterministic() {
    // A step cap tight enough that members fail at the default tolerances
    // and climb the relaxation ladder. The retry sequence is part of the
    // batch result, so it must also be bitwise identical at any thread
    // count (and, for the fine engine, any lane width).
    let m = reversible_model();
    let mut rng = StdRng::seed_from_u64(11);
    let job = SimulationJob::builder(&m)
        .time_points(vec![4.0])
        .parameterizations(perturbed_batch(&m, 10, &mut rng))
        .options(SolverOptions { max_steps: 40, ..SolverOptions::default() })
        .build()
        .unwrap();
    let policy = RecoveryPolicy { max_relaxations: 3, ..RecoveryPolicy::default() };

    let reference = CpuEngine::new(CpuSolverKind::Lsoda).with_recovery(policy).run(&job).unwrap();
    assert!(
        reference.health.retries_attempted > 0,
        "the step cap must force at least one retry: {:?}",
        reference.health
    );
    for threads in [1, 2, 4, 8] {
        let parallel = CpuEngine::new(CpuSolverKind::Lsoda)
            .with_recovery(policy)
            .with_threads(threads)
            .run(&job)
            .unwrap();
        assert_identical(&reference, &parallel, &format!("cpu retries, {threads} threads"));
    }

    // The scalar fine path exercises the reroute + relaxation rungs: RKF45
    // needs ~33 steps to t = 4 at the default tolerances, so a 25-step cap
    // forces the ladder (the lockstep DOPRI5 finishes under 40, hence the
    // tighter cap and the pinned width).
    let mut rng = StdRng::seed_from_u64(12);
    let fine_job = SimulationJob::builder(&m)
        .time_points(vec![4.0])
        .parameterizations(perturbed_batch(&m, 10, &mut rng))
        .options(SolverOptions { max_steps: 25, ..SolverOptions::default() })
        .build()
        .unwrap();
    let fine_ref =
        FineEngine::new().with_lane_width(1).with_recovery(policy).run(&fine_job).unwrap();
    assert!(fine_ref.health.retries_attempted > 0, "fine engine must also retry");
    for threads in [1, 2, 4, 8] {
        let parallel = FineEngine::new()
            .with_lane_width(1)
            .with_recovery(policy)
            .with_threads(threads)
            .run(&fine_job)
            .unwrap();
        assert_identical(&fine_ref, &parallel, &format!("fine retries, {threads} threads"));
    }
}

#[test]
fn repeated_parallel_runs_are_self_consistent() {
    // Dynamic self-scheduling means different claim orders run to run; the
    // observable result must still never vary.
    let m = reversible_model();
    let job = mixed_job(&m);
    let engine = FineCoarseEngine::new().with_threads(4);
    let first = engine.run(&job).unwrap();
    for _ in 0..3 {
        let again = engine.run(&job).unwrap();
        assert_identical(&first, &again, "fine-coarse, repeated 4-thread runs");
    }
}

/// An SBGen batch for the fine-coarse P3 lane path: perturbed non-stiff
/// members, one member whose constants put its dominant eigenvalue just
/// under the P2 threshold (so DOPRI5 gives up on it and P4 takes over), and
/// two fault-planned members (NaN and panic) that stay on the scalar path.
fn p3_lane_job(m: &ReactionBasedModel) -> SimulationJob<'_> {
    let mut rng = StdRng::seed_from_u64(21);
    let mut params = perturbed_batch(m, 40, &mut rng);
    let single = SimulationJob::builder(m).time_points(vec![1.0]).replicate(1).build().unwrap();
    let lambda = classify_batch(&single)[0].dominant_eigenvalue;
    let k = m.rate_constants().iter().map(|k| k * 0.8 * STIFFNESS_THRESHOLD / lambda).collect();
    params[7] = Parameterization::new().with_rate_constants(k);
    SimulationJob::builder(m)
        .time_points(vec![1.0, 2.0, 5.0, 10.0])
        .parameterizations(params)
        .fault_plan(
            FaultPlan::new()
                .with_fault(3, FaultSpec::nan_at_time(0.5))
                .with_fault(12, FaultSpec::panic_at_time(1.0)),
        )
        .build()
        .unwrap()
}

/// [`assert_identical`] plus every member's recovery log.
fn assert_identical_with_logs(reference: &BatchResult, other: &BatchResult, label: &str) {
    assert_identical(reference, other, label);
    for (i, (r, o)) in reference.outcomes.iter().zip(&other.outcomes).enumerate() {
        assert_eq!(r.log, o.log, "{label}: member {i} recovery log");
    }
}

#[test]
fn fine_coarse_p3_lanes_match_scalar_p3_at_any_width_and_thread_count() {
    let mut rng = StdRng::seed_from_u64(5);
    let m = SbGen::new(12, 16).generate(&mut rng);
    let job = p3_lane_job(&m);
    let reference = FineCoarseEngine::new().with_lane_width(1).run(&job).unwrap();
    let o = &reference.outcomes;
    assert!(o[7].rerouted && o[7].solution.is_ok(), "member 7 must be rerouted to RADAU5");
    assert!(o[3].solution.is_err() && o[12].log.panicked, "fault-planned members must fail");
    assert!(o.iter().all(|o| !o.stiff && o.solver != "radau5-lanes"), "P4 must stay scalar");
    assert!(reference.success_count() >= 38);
    for threads in [1, 4] {
        let engines = [
            (None, FineCoarseEngine::new()),
            (Some(1), FineCoarseEngine::new().with_lane_width(1)),
            (Some(2), FineCoarseEngine::new().with_lane_width(2)),
            (Some(4), FineCoarseEngine::new().with_lane_width(4)),
            (Some(8), FineCoarseEngine::new().with_lane_width(8)),
        ];
        for (width, engine) in engines {
            let result = engine.with_threads(threads).run(&job).unwrap();
            let label = format!("fine-coarse width {width:?}, {threads} threads");
            assert_identical_with_logs(&reference, &result, &label);
        }
    }
}

/// Asserts two runs gave every member the same outcome, flags and recovery
/// log (simulated time may differ: lane widths are billed differently).
fn assert_same_outcomes(reference: &BatchResult, other: &BatchResult, label: &str) {
    assert_eq!(reference.outcomes.len(), other.outcomes.len(), "{label}: batch size");
    for (i, (r, o)) in reference.outcomes.iter().zip(&other.outcomes).enumerate() {
        assert_eq!((r.stiff, r.rerouted, r.log), (o.stiff, o.rerouted, o.log), "{label}: {i}");
        match (&r.solution, &o.solution) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "{label}: member {i}"),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string(), "{label}: member {i}"),
            _ => panic!("{label}: member {i} succeeded in one run and failed in the other"),
        }
    }
    assert_eq!(reference.health, other.health, "{label}: batch health");
}

#[test]
fn member_budget_binds_lane_paths_as_it_binds_scalar_solves() {
    // A per-member step budget is part of the first attempt's options on
    // every path: lane groups must exhaust it exactly where the scalar
    // solves do, so outcomes cannot depend on the lane width.
    let m = reversible_model();
    let mut rng = StdRng::seed_from_u64(31);
    let mut params = perturbed_batch(&m, 10, &mut rng);
    for i in 0..6 {
        let k = vec![1e5 + 2.5e4 * i as f64, 2e5 + 1.5e4 * i as f64];
        params.push(Parameterization::new().with_rate_constants(k));
    }
    let job = SimulationJob::builder(&m)
        .time_points(vec![0.5, 1.0, 2.0, 4.0])
        .parameterizations(params)
        .build()
        .unwrap();
    let policy = RecoveryPolicy { step_budget: Some(12), ..RecoveryPolicy::default() };

    let reference =
        FineCoarseEngine::new().with_lane_width(1).with_recovery(policy).run(&job).unwrap();
    let budget = reference.health.failed.step_budget_exhausted;
    assert!(budget >= 6, "the budget must bind P3 and P4 members: {:?}", reference.health);
    for width in [2, 4] {
        let lanes =
            FineCoarseEngine::new().with_lane_width(width).with_recovery(policy).run(&job).unwrap();
        assert_same_outcomes(&reference, &lanes, &format!("fine-coarse width {width}"));
    }

    // The fine engine's width 1 is the RKF45 → BDF1 baseline, so its lane
    // widths are pinned against each other and against the scalar twins
    // (DOPRI5 and RADAU5) under the same budget.
    let fine2 = FineEngine::new().with_lane_width(2).with_recovery(policy).run(&job).unwrap();
    let fine4 = FineEngine::new().with_lane_width(4).with_recovery(policy).run(&job).unwrap();
    assert_same_outcomes(&fine2, &fine4, "fine, width 2 vs 4");
    assert_eq!(fine2.health.failed.step_budget_exhausted, budget, "{:?}", fine2.health);
    let opts = SolverOptions { step_budget: Some(12), ..job.options().clone() };
    for (i, o) in fine2.outcomes.iter().enumerate() {
        let (x0, k) = job.member(i);
        let sys = RbmOdeSystem::new(job.odes(), k.to_vec());
        let twin = if o.stiff {
            Radau5::new().solve(&sys, 0.0, x0, job.time_points(), &opts)
        } else {
            Dopri5::new().solve(&sys, 0.0, x0, job.time_points(), &opts)
        };
        match (&o.solution, &twin) {
            (Ok(a), Ok(b)) => assert_eq!(a.states, b.states, "fine member {i}"),
            (Err(a), Err(b)) => assert_eq!(a.to_string(), b.error.to_string(), "fine member {i}"),
            _ => panic!("fine member {i}: lane outcome differs from its scalar twin"),
        }
    }
}
