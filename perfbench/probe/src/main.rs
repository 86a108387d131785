//! In-process half of the end-to-end campaign benchmark (`perfbench/run.py`
//! drives the release CLI for the timed runs and calls this binary for the
//! rest).
//!
//! Subcommands, each printing one JSON object on stdout:
//!
//! - `gen`   materialises a workload's seeded BioSimWare input directory
//!   through the public generators (`SbGen`, `perturbed_batch`,
//!   `models::metabolic`, `biosimware::write_*`);
//! - `setup` times the campaign set-up (model and batch read, ODE compile,
//!   job validation) several times and reports the median;
//! - `trace` re-drives a workload through the layers' public functions with
//!   a span around each call, reads the counters the API returns, and
//!   microbenches every kernel on the workload's own model and states so
//!   that count × unit cost attributes the engine's wall time.
//!
//! Flags are `--key value` pairs; `run.py` is the single source of the
//! workload definitions and passes every size explicitly.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use paraspace_analysis::campaign::Checkpoint;
use paraspace_analysis::dispatch::{coordinate, DispatchConfig, TickDirective};
use paraspace_analysis::gradient::GradientConfig;
use paraspace_analysis::pe::{estimate_with, EstimationProblem, Optimizer};
use paraspace_analysis::pso::PsoConfig;
use paraspace_core::{
    auto_lane_width, auto_sens_lane_width, BatchResult, CancelToken, CpuEngine, CpuSolverKind,
    FineCoarseEngine, SimError, SimulationJob, Simulator,
};
use paraspace_journal::{CampaignManifest, Journal};
use paraspace_linalg::{CMatrix, CluFactor, Complex64, LuFactor, Matrix};
use paraspace_rbm::sbgen::SbGen;
use paraspace_rbm::{biosimware, perturb_constants, perturbed_batch, CompiledOdes};
use paraspace_rbm::{Parameterization, ReactionBasedModel};
use paraspace_solvers::{SolverOptions, StepStats};
use paraspace_transport::client::{ClientOptions, WorkerClient};
use paraspace_transport::server::{CoordinatorServer, ServerConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

type Res<T> = Result<T, String>;

/// Time points every generated model samples (the CLI `generate` default).
const TIME_POINTS: [f64; 4] = [1.0, 2.0, 5.0, 10.0];
/// Timed set-up repetitions per `setup` call (at least; see [`setup`]).
const SETUP_REPS: usize = 5;
/// Shards of the journal-commit and lease round-trip microbenches.
const BENCH_SHARDS: u64 = 256;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("gen") => Flags::parse(&args[1..]).and_then(|f| gen(&f)),
        Some("setup") => Flags::parse(&args[1..]).and_then(|f| setup(&f)),
        Some("trace") => Flags::parse(&args[1..]).and_then(|f| trace(&f)),
        _ => Err("usage: paraspace-perfprobe gen|setup|trace --key value ...".into()),
    };
    match result {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("perfprobe: {e}");
            std::process::exit(1);
        }
    }
}

struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Res<Self> {
        let mut map = BTreeMap::new();
        let mut it = args.iter();
        while let Some(k) = it.next() {
            let key = k.strip_prefix("--").ok_or_else(|| format!("expected a flag, got {k:?}"))?;
            let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            map.insert(key.to_string(), v.clone());
        }
        Ok(Flags(map))
    }

    fn str(&self, key: &str) -> Res<&str> {
        self.0.get(key).map(String::as_str).ok_or_else(|| format!("missing --{key}"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Res<T> {
        let v = self.str(key)?;
        v.parse().map_err(|_| format!("invalid --{key} {v:?}"))
    }

    fn num_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Res<T> {
        if self.0.contains_key(key) {
            self.num(key)
        } else {
            Ok(default)
        }
    }

    fn list(&self, key: &str) -> Res<Vec<usize>> {
        match self.0.get(key) {
            None => Ok(Vec::new()),
            Some(v) => v
                .split(',')
                .map(|s| s.parse().map_err(|_| format!("invalid --{key} {v:?}")))
                .collect(),
        }
    }
}

/// A flat JSON object of numeric metrics, in key order.
#[derive(Default)]
struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    fn set(&mut self, key: &str, v: f64) {
        self.0.insert(key.to_string(), v);
    }

    fn json(&self) -> Res<String> {
        let mut s = String::from("{");
        for (i, (k, v)) in self.0.iter().enumerate() {
            if !v.is_finite() {
                return Err(format!("metric {k} is not finite ({v})"));
            }
            let _ = write!(s, "{}\"{k}\": {v:e}", if i > 0 { ", " } else { "" });
        }
        s.push('}');
        Ok(s)
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

// ---------------------------------------------------------------- gen ----

/// Writes `--out` as a BioSimWare directory.
///
/// `--model sbgen:SxR:TOPOLOGY` generates an `S×R` synthetic model whose
/// network topology is drawn from the fixed `TOPOLOGY` seed (the workload's
/// shape), or `--model metabolic` takes the bundled 114×226 network. The
/// run's `--seed` then draws the inputs: `--members N` perturbed `c_matrix`
/// rows, or with `--perturb-cvector 1` the model's own constants (the
/// self-calibration ground truth).
fn gen(f: &Flags) -> Res<String> {
    let out = PathBuf::from(f.str("out")?);
    let seed: u64 = f.num("seed")?;
    let members: usize = f.num_or("members", 0)?;
    let spec = f.str("model")?;
    let mut model = if spec == "metabolic" {
        paraspace_models::metabolic::model()
    } else {
        let parts: Vec<&str> = spec.split(':').collect();
        let (dims, topo) = match parts.as_slice() {
            ["sbgen", dims, topo] => (*dims, *topo),
            _ => return Err(format!("unknown --model {spec:?}")),
        };
        let (s, r) = dims.split_once('x').ok_or_else(|| format!("bad dims {dims:?}"))?;
        let (s, r): (usize, usize) = (s.parse().map_err(err)?, r.parse().map_err(err)?);
        let topo: u64 = topo.parse().map_err(err)?;
        SbGen::new(s, r).generate(&mut StdRng::seed_from_u64(topo))
    };
    let mut rng = StdRng::seed_from_u64(seed);
    if f.num_or("perturb-cvector", 0u8)? == 1 {
        let k = perturb_constants(&model.rate_constants(), &mut rng);
        for (r, &v) in k.iter().enumerate() {
            model.reaction_mut(r).set_rate_constant(v);
        }
    }
    std::fs::remove_dir_all(&out).ok();
    biosimware::write_dir(&model, &out).map_err(err)?;
    biosimware::write_time_points(&TIME_POINTS, &out).map_err(err)?;
    if members > 0 {
        let batch = perturbed_batch(&model, members, &mut rng);
        biosimware::write_parameterizations(&model, &batch, &out).map_err(err)?;
    }
    Ok(format!(
        "{{\"species\": {}, \"reactions\": {}, \"members\": {members}}}",
        model.n_species(),
        model.n_reactions()
    ))
}

// -------------------------------------------------------------- setup ----

/// The CLI's solver options (`--rtol`/`--atol` defaults, 100 000 steps).
fn cli_options() -> SolverOptions {
    SolverOptions { rel_tol: 1e-6, abs_tol: 1e-12, max_steps: 100_000, ..SolverOptions::default() }
}

struct Inputs {
    model: ReactionBasedModel,
    times: Vec<f64>,
    params: Vec<Parameterization>,
}

/// Reads a model directory exactly as the CLI does (an absent `c_matrix`
/// means one member at the baked constants).
fn read_inputs(dir: &Path) -> Res<Inputs> {
    let model = biosimware::read_dir(dir).map_err(err)?;
    let times = biosimware::read_time_points(dir).unwrap_or_else(|_| TIME_POINTS.to_vec());
    let mut params = biosimware::read_parameterizations(&model, dir).map_err(err)?;
    if params.is_empty() {
        params.push(Parameterization::new());
    }
    Ok(Inputs { model, times, params })
}

fn build_job<'a>(inputs: &'a Inputs, params: Vec<Parameterization>) -> Res<SimulationJob<'a>> {
    SimulationJob::builder(&inputs.model)
        .time_points(inputs.times.clone())
        .parameterizations(params)
        .options(cli_options())
        .build()
        .map_err(err)
}

/// Repetitions of read → compile → validate, each in seconds: at least
/// [`SETUP_REPS`], and enough to fill 50 ms, after one untimed warm-up so that a
/// sub-millisecond set-up is not timed at the process's cold start.
fn setup(f: &Flags) -> Res<String> {
    let dir = PathBuf::from(f.str("dir")?);
    let once = || -> Res<f64> {
        let t0 = Instant::now();
        let inputs = read_inputs(&dir)?;
        let job = build_job(&inputs, inputs.params.clone())?;
        black_box(job.batch_size());
        Ok(t0.elapsed().as_secs_f64())
    };
    once()?;
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < SETUP_REPS || start.elapsed() < Duration::from_millis(50) {
        samples.push(format!("{:e}", once()?));
    }
    Ok(format!("{{\"samples\": [{}]}}", samples.join(", ")))
}

// -------------------------------------------------------------- trace ----

/// Everything the engine runs of one traced re-drive returned, summed.
#[derive(Default)]
struct EngineTally {
    wall: Duration,
    members: usize,
    stiff: usize,
    rerouted: usize,
    stats: StepStats,
    slot_steps: u64,
    lane_steps: u64,
    sim_integration_ns: f64,
    sim_io_ns: f64,
}

impl EngineTally {
    fn absorb(&mut self, r: &BatchResult, wall: Duration) {
        self.wall += wall;
        self.members += r.outcomes.len();
        self.stiff += r.outcomes.iter().filter(|o| o.stiff).count();
        self.rerouted += r.outcomes.iter().filter(|o| o.rerouted).count();
        self.stats.absorb(&r.aggregate_stats());
        if let Some(l) = &r.lanes {
            self.slot_steps += l.slot_steps;
            self.lane_steps += l.lane_steps;
        }
        self.sim_integration_ns += r.timing.simulated_integration_ns;
        self.sim_io_ns += r.timing.simulated_io_ns;
    }
}

/// A [`Simulator`] wrapper that times and tallies every batch the wrapped
/// engine runs (the swarm stage of `pe` calls it once per generation).
struct Tallied<E> {
    inner: E,
    tally: std::cell::RefCell<EngineTally>,
}

impl<E: Simulator> Simulator for Tallied<E> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&self, job: &SimulationJob) -> Result<BatchResult, SimError> {
        let t0 = Instant::now();
        let r = self.inner.run(job)?;
        self.tally.borrow_mut().absorb(&r, t0.elapsed());
        Ok(r)
    }
}

fn trace(f: &Flags) -> Res<String> {
    let dir = PathBuf::from(f.str("dir")?);
    let work = PathBuf::from(f.str("work")?);
    let threads: usize = f.num("threads")?;
    let mode = f.str("mode")?;
    let mut m = Metrics::default();
    std::fs::remove_dir_all(&work).ok();
    std::fs::create_dir_all(&work).map_err(err)?;

    let t_total = Instant::now();
    let t0 = Instant::now();
    let inputs = read_inputs(&dir)?;
    m.set("cli.read_inputs_s", t0.elapsed().as_secs_f64());
    let t0 = Instant::now();
    let odes = inputs.model.compile().map_err(err)?;
    m.set("rbm.compile_s", t0.elapsed().as_secs_f64());

    let tally = match mode {
        "sweep" => sweep(&inputs, threads, &work.join("out"), &mut m)?,
        "durable" => durable(&inputs, threads, f.num("shard-size")?, &work, &mut m)?,
        "calibrate" => calibrate(&inputs, threads, &f.list("unknown")?, &mut m)?,
        other => return Err(format!("unknown --mode {other:?}")),
    };
    m.set("trace.wall_s", t_total.elapsed().as_secs_f64());
    if mode == "sweep" {
        // The 1-thread row of the scaling pair: same job, engine only.
        let job = build_job(&inputs, inputs.params.clone())?;
        let t0 = Instant::now();
        FineCoarseEngine::new().with_threads(1).run(&job).map_err(err)?;
        let one = t0.elapsed().as_secs_f64();
        m.set("exec.scaling_eff", one / (threads as f64 * tally.wall.as_secs_f64()));
    }

    report_engine(&tally, &mut m);
    let unknown = f.list("unknown")?;
    let units = kernel_units(&inputs, &odes, &unknown)?;
    attribute(&tally, &units, threads, &mut m);

    if mode == "durable" {
        // Priced at the shard payload size the CLI journaled.
        let payload: usize = f.num("payload-bytes")?;
        m.set("journal.commit_us", commit_cost_us(&work.join("commit_bench"), payload)?);
        m.set("transport.rpc_rtt_us", rpc_cost_us(&work.join("rpc_bench"), payload)?);
    }
    std::fs::remove_dir_all(&work).ok();
    m.json()
}

/// Plain `simulate`: one engine run over the whole batch, then one
/// serialised dynamics file per member into a fresh directory.
fn sweep(inputs: &Inputs, threads: usize, out: &Path, m: &mut Metrics) -> Res<EngineTally> {
    let job = build_job(inputs, inputs.params.clone())?;
    let engine = FineCoarseEngine::new().with_threads(threads);
    let mut tally = EngineTally::default();
    let t0 = Instant::now();
    let result = engine.run(&job).map_err(err)?;
    tally.absorb(&result, t0.elapsed());

    let t0 = Instant::now();
    let bodies: Vec<Option<String>> = result
        .outcomes
        .iter()
        .map(|o| o.solution.as_ref().ok().map(|s| job.serialize_dynamics(s)))
        .collect();
    write_outputs(out, &bodies, t0.elapsed().as_secs_f64(), m)?;
    Ok(tally)
}

/// Writes one dynamics file per successful member, as the CLI does;
/// `serialize_s` is the time already spent rendering the bodies.
fn write_outputs(
    out: &Path,
    bodies: &[Option<String>],
    serialize_s: f64,
    m: &mut Metrics,
) -> Res<()> {
    let t0 = Instant::now();
    std::fs::create_dir_all(out).map_err(err)?;
    for (i, body) in bodies.iter().enumerate() {
        if let Some(body) = body {
            std::fs::write(out.join(format!("dynamics_{i:05}.tsv")), body).map_err(err)?;
        }
    }
    m.set("cli.serialize_s", serialize_s);
    m.set("cli.write_outputs_s", serialize_s + t0.elapsed().as_secs_f64());
    Ok(())
}

/// Single-process durable `simulate`: uniform shards of `shard_size`
/// members, each run, serialised, and committed to a shard journal, then
/// the artifacts written once every shard is in.
fn durable(
    inputs: &Inputs,
    threads: usize,
    shard_size: usize,
    work: &Path,
    m: &mut Metrics,
) -> Res<EngineTally> {
    let shard_size = shard_size.max(1);
    let chunks: Vec<&[Parameterization]> = inputs.params.chunks(shard_size).collect();
    let manifest = CampaignManifest::new("perfbench-durable", chunks.len() as u64);
    let (mut journal, _) = Journal::open_or_create(&work.join("ckpt"), &manifest).map_err(err)?;
    let engine = FineCoarseEngine::new().with_threads(threads);
    let mut tally = EngineTally::default();
    let mut serialize = 0.0;
    let mut outputs = Vec::with_capacity(inputs.params.len());
    for (shard, chunk) in chunks.iter().enumerate() {
        let job = build_job(inputs, chunk.to_vec())?;
        let t0 = Instant::now();
        let result = engine.run(&job).map_err(err)?;
        tally.absorb(&result, t0.elapsed());
        let t0 = Instant::now();
        let mut payload = Vec::new();
        for o in &result.outcomes {
            let body = o.solution.as_ref().ok().map(|s| job.serialize_dynamics(s));
            payload.extend_from_slice(body.as_deref().unwrap_or("").as_bytes());
            outputs.push(body);
        }
        serialize += t0.elapsed().as_secs_f64();
        journal.commit(shard as u64, &payload).map_err(err)?;
    }
    journal.sync().map_err(err)?;
    write_outputs(&work.join("out"), &outputs, serialize, m)?;
    Ok(tally)
}

/// `pe --optimizer hybrid` as the CLI configures it (LSODA swarm engine,
/// ±1.5-decade box, every species observed, self-calibration target).
fn calibrate(
    inputs: &Inputs,
    threads: usize,
    unknown: &[usize],
    m: &mut Metrics,
) -> Res<EngineTally> {
    let model = &inputs.model;
    let k = model.rate_constants();
    let unknown: Vec<usize> =
        if unknown.is_empty() { (0..model.n_reactions()).collect() } else { unknown.to_vec() };
    let log_bounds = unknown
        .iter()
        .map(|&i| {
            let c = if k[i] > 0.0 { k[i].log10() } else { 0.0 };
            (c - 1.5, c + 1.5)
        })
        .collect();
    let engine = Tallied {
        inner: CpuEngine::new(CpuSolverKind::Lsoda).with_threads(threads),
        tally: Default::default(),
    };
    let target_job = SimulationJob::builder(model)
        .time_points(inputs.times.clone())
        .replicate(1)
        .options(cli_options())
        .build()
        .map_err(err)?;
    let target = engine
        .run(&target_job)
        .map_err(err)?
        .outcomes
        .remove(0)
        .solution
        .map_err(|e| format!("self-calibration target failed: {e}"))?;
    let problem = EstimationProblem {
        model,
        unknown,
        log_bounds,
        observed: (0..model.n_species()).collect(),
        target,
        time_points: inputs.times.clone(),
        options: cli_options(),
        failed_members: Default::default(),
    };
    let optimizer = Optimizer::Hybrid {
        pso: PsoConfig { iterations: 40, swarm_size: None, seed: 42, ..PsoConfig::default() },
        gradient: GradientConfig { iterations: 60, starts: 3, seed: 42, ..Default::default() },
    };
    let t0 = Instant::now();
    let result = estimate_with(&problem, &engine, &optimizer);
    let estimate = t0.elapsed().as_secs_f64();
    let tally = engine.tally.into_inner();
    m.set("analysis.gradient_s", estimate - tally.wall.as_secs_f64());
    m.set("analysis.solves", result.simulations as f64);
    m.set("analysis.final_loss", result.optimization.best_fitness);
    Ok(tally)
}

fn report_engine(t: &EngineTally, m: &mut Metrics) {
    let s = &t.stats;
    m.set("core.engine_s", t.wall.as_secs_f64());
    m.set("core.stiff_frac", t.stiff as f64 / t.members.max(1) as f64);
    m.set("core.rerouted", t.rerouted as f64);
    m.set(
        "core.lane_occupancy",
        if t.slot_steps == 0 { 1.0 } else { t.lane_steps as f64 / t.slot_steps as f64 },
    );
    m.set("rbm.rhs_evals", s.rhs_evals as f64);
    m.set("rbm.jacobian_evals", s.jacobian_evals as f64);
    m.set("linalg.lu_factors", s.lu_decompositions as f64);
    m.set("linalg.linear_solves", s.linear_solves as f64);
    m.set("solvers.steps", s.steps as f64);
    m.set("solvers.reject_frac", s.rejected as f64 / s.steps.max(1) as f64);
    m.set("solvers.newton_per_step", s.nonlinear_iters as f64 / s.steps.max(1) as f64);
    m.set("vgpu.sim_integration_ms", t.sim_integration_ns / 1e6);
    m.set("vgpu.sim_io_ms", t.sim_io_ns / 1e6);
}

// ---------------------------------------------------- kernel unit costs ----

/// Per-evaluation kernel costs on the workload's own model, in ns.
struct Units {
    /// The lane-width autotuner's choice for this model.
    width: usize,
    rhs: f64,
    jacobian: f64,
    dfdk: f64,
    lu_real: f64,
    lu_complex: f64,
    solve_real: f64,
    solve_complex: f64,
    n: usize,
}

/// Times `f` over enough calls to fill ~`budget`, repeated five times;
/// returns the median ns per call.
fn unit_ns(budget: Duration, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().max(Duration::from_nanos(50));
    let calls = ((budget.as_nanos() / 5) / once.as_nanos()).clamp(1, 1_000_000) as usize;
    let per: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..calls {
                f();
            }
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(per)
}

/// Member states and constants the kernels are priced on: each member's
/// initial state and its constants, gathered lane-minor for `width` lanes.
fn lane_block(inputs: &Inputs, width: usize) -> Res<(Vec<f64>, Vec<f64>)> {
    let n = inputs.model.n_species();
    let r = inputs.model.n_reactions();
    let mut x = vec![0.0; n * width];
    let mut k = vec![0.0; r * width];
    for l in 0..width {
        let p = &inputs.params[l % inputs.params.len()];
        let (x0, kl) = p.resolve(&inputs.model).map_err(err)?;
        for s in 0..n {
            x[s * width + l] = x0[s];
        }
        for j in 0..r {
            k[j * width + l] = kl[j];
        }
    }
    Ok((x, k))
}

/// Prices the kernels the engines call. The fine-coarse engine's DOPRI5
/// phase and its RADAU5 phase at autotuned width 1 (and the LSODA swarm
/// engine) evaluate the scalar `rhs_with_buffer` and `jacobian_with`; the
/// DOPRI5 sensitivity lanes of the gradient stage evaluate `dfdk_batch`.
fn kernel_units(inputs: &Inputs, odes: &CompiledOdes, unknown: &[usize]) -> Res<Units> {
    let budget = Duration::from_millis(100);
    let n = odes.n_species();
    let r = odes.n_reactions();
    let (x1, k1) = lane_block(inputs, 1)?;
    let mut flux = vec![0.0; r];
    let mut dxdt = vec![0.0; n];
    let mut jac = Matrix::zeros(n, n);
    let rhs = unit_ns(budget, || {
        odes.rhs_with_buffer(black_box(&x1), &k1, &mut flux, &mut dxdt);
        black_box(&dxdt);
    });
    let jacobian = unit_ns(budget, || {
        odes.jacobian_with(black_box(&x1), &k1, &mut jac);
        black_box(&jac);
    });

    let which: Vec<usize> = if unknown.is_empty() { (0..r).collect() } else { unknown.to_vec() };
    let dfdk = if odes.supports_lane_batch() {
        let sw = auto_sens_lane_width(odes, which.len()).max(1);
        let (xs, _) = lane_block(inputs, sw)?;
        let mut g = vec![0.0; sw];
        let mut out = vec![0.0; which.len() * n * sw];
        unit_ns(budget, || {
            odes.dfdk_batch(sw, black_box(&xs), &which, &mut g, &mut out);
            black_box(&out);
        }) / sw as f64
    } else {
        let mut out = vec![0.0; which.len() * n];
        unit_ns(budget, || {
            odes.dfdk_with(black_box(&x1), &which, &mut out);
            black_box(&out);
        })
    };

    // The Radau iteration matrices γ/h·I − J and (α+iβ)/h·I − J at the
    // first member's initial state, h = 1e-3.
    let mut jac = Matrix::zeros(n, n);
    odes.jacobian_with(&x1, &k1, &mut jac);
    let h = 1e-3;
    let real = Matrix::from_fn(n, n, |i, j| -jac[(i, j)] + if i == j { 3.6378 / h } else { 0.0 });
    let mut cplx = CMatrix::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            cplx[(i, j)] = Complex64::new(-jac[(i, j)], 0.0);
        }
        cplx[(i, i)] += Complex64::new(2.6811 / h, 3.0504 / h);
    }
    let lu_real = unit_ns(budget, || {
        black_box(LuFactor::new(black_box(real.clone())).ok());
    });
    let lu_complex = unit_ns(budget, || {
        black_box(CluFactor::new(black_box(cplx.clone())).ok());
    });
    // Subtract the matrix copy the factor calls consume.
    let copy_real = unit_ns(budget, || {
        black_box(black_box(&real).clone());
    });
    let copy_complex = unit_ns(budget, || {
        black_box(black_box(&cplx).clone());
    });
    let f_real = LuFactor::new(real).map_err(err)?;
    let f_cplx = CluFactor::new(cplx).map_err(err)?;
    // Each solve starts from the same right-hand side, so repeated solves
    // never underflow into denormals.
    let mut b = x1.clone();
    let solve_real = unit_ns(budget, || {
        b.copy_from_slice(&x1);
        f_real.solve_in_place(black_box(&mut b));
    });
    let bc0: Vec<Complex64> = x1.iter().map(|&v| Complex64::new(v, 0.0)).collect();
    let mut bc = bc0.clone();
    let solve_complex = unit_ns(budget, || {
        bc.copy_from_slice(&bc0);
        f_cplx.solve_in_place(black_box(&mut bc));
    });
    Ok(Units {
        width: auto_lane_width(odes),
        rhs,
        jacobian,
        dfdk,
        lu_real: (lu_real - copy_real).max(0.0),
        lu_complex: (lu_complex - copy_complex).max(0.0),
        solve_real,
        solve_complex,
        n,
    })
}

/// Splits the engine's wall time into kernel time (count × unit cost,
/// spread over the worker threads) and the unexplained remainder.
///
/// Radau counts one real and one complex factor per refresh, one real and
/// one complex back-substitution per Newton sweep, and real
/// back-substitutions for its error estimate, so the counters split
/// exactly into the two kernel families.
fn attribute(t: &EngineTally, u: &Units, threads: usize, m: &mut Metrics) {
    let s = &t.stats;
    let refreshes = s.lu_decompositions as f64 / 2.0;
    let complex_solves = s.nonlinear_iters.min(s.linear_solves) as f64;
    let real_solves = s.linear_solves as f64 - complex_solves;
    let rbm_ns = s.rhs_evals as f64 * u.rhs + s.jacobian_evals as f64 * u.jacobian;
    let lu_ns = refreshes * (u.lu_real + u.lu_complex);
    let solve_ns = real_solves * u.solve_real + complex_solves * u.solve_complex;
    let par = threads.max(1) as f64;
    let rbm_s = rbm_ns / 1e9 / par;
    let linalg_s = (lu_ns + solve_ns) / 1e9 / par;
    m.set("core.lane_width", u.width as f64);
    m.set("rbm.rhs_eval_ns", u.rhs);
    m.set("rbm.jacobian_eval_ns", u.jacobian);
    m.set("rbm.dfdk_eval_ns", u.dfdk);
    m.set("linalg.lu_factor_ns", 0.5 * (u.lu_real + u.lu_complex));
    m.set("linalg.lu_solve_ns", 0.5 * (u.solve_real + u.solve_complex));
    // Computed, not counted: 2n³/3 real flops per real factor and 4× that
    // for a complex one, per refresh.
    let n = u.n as f64;
    m.set("linalg.lu_flops", refreshes * (2.0 * n * n * n / 3.0) * 5.0);
    m.set("rbm.kernel_s", rbm_s);
    m.set("linalg.kernel_s", linalg_s);
    m.set("core.residual_s", t.wall.as_secs_f64() - rbm_s - linalg_s);
}

// ------------------------------------------------- journal and transport ----

fn payload_of(len: usize, shard: u64) -> Vec<u8> {
    (0..len).map(|i| (i as u64 * 31 + shard * 7) as u8).collect()
}

/// Median µs of one `Journal::commit` of a `payload`-byte record.
fn commit_cost_us(dir: &Path, payload: usize) -> Res<f64> {
    let manifest = CampaignManifest::new("perfbench-commit", BENCH_SHARDS);
    let mut per = Vec::new();
    for rep in 0..3 {
        let d = dir.join(rep.to_string());
        let (mut journal, _) = Journal::open_or_create(&d, &manifest).map_err(err)?;
        let bodies: Vec<Vec<u8>> = (0..BENCH_SHARDS).map(|s| payload_of(payload, s)).collect();
        let t0 = Instant::now();
        for (s, body) in bodies.iter().enumerate() {
            journal.commit(s as u64, body).map_err(err)?;
        }
        per.push(t0.elapsed().as_secs_f64() * 1e6 / BENCH_SHARDS as f64);
        std::fs::remove_dir_all(&d).ok();
    }
    Ok(median(per))
}

/// Median µs per shard of a loopback lease cycle (stream the record,
/// commit, claim the next shard) through the public `WorkerClient` and
/// `CoordinatorServer`, while the program's `coordinate` loop merges and
/// scans leases, all at the default dispatch timing.
fn rpc_cost_us(dir: &Path, payload: usize) -> Res<f64> {
    let mut per = Vec::new();
    for rep in 0..3 {
        per.push(net_campaign(&dir.join(rep.to_string()), payload)?);
        std::fs::remove_dir_all(dir.join(rep.to_string())).ok();
    }
    Ok(median(per))
}

/// One networked campaign of [`BENCH_SHARDS`] shards and one worker; the
/// µs between the worker's first and last shard execution, per cycle. The
/// span leaves out the connect and the coordinator's final poll, which
/// are paid once per campaign.
fn net_campaign(dir: &Path, payload: usize) -> Res<f64> {
    let manifest = CampaignManifest::new("perfbench-rpc", BENCH_SHARDS);
    drop(Journal::open_or_create(dir, &manifest).map_err(err)?);
    let config = DispatchConfig::default();
    let server_config = ServerConfig {
        lease: config.lease.clone(),
        poll_ms: config.poll_ms,
        idle_disconnect_ms: None,
    };
    let mut server =
        CoordinatorServer::start("127.0.0.1:0", dir, &manifest, server_config).map_err(err)?;
    let addr = server.local_addr().to_string();
    let result = std::thread::scope(|scope| -> Res<f64> {
        let worker = scope.spawn(|| -> Res<f64> {
            let (client, _) =
                WorkerClient::connect(&addr, "perfbench", ClientOptions::default()).map_err(err)?;
            let mut span: Option<(Instant, Instant)> = None;
            client
                .run(&CancelToken::new(), |shard, _| {
                    let now = Instant::now();
                    span = Some((span.map_or(now, |(first, _)| first), now));
                    Ok::<_, std::convert::Infallible>(payload_of(payload, shard))
                })
                .map_err(err)?;
            let (first, last) = span.ok_or("the rpc worker executed no shard")?;
            Ok((last - first).as_secs_f64() * 1e6 / (BENCH_SHARDS - 1) as f64)
        });
        let deadline = Instant::now() + Duration::from_secs(60);
        let merged = coordinate(
            &Checkpoint::new(dir),
            manifest.clone(),
            &config,
            |_, _| Vec::new(),
            |_| {
                if Instant::now() < deadline {
                    TickDirective::Continue
                } else {
                    TickDirective::GiveUp
                }
            },
        );
        let cycle = worker.join().map_err(|_| "rpc worker panicked".to_string())?;
        merged.map_err(err)?;
        cycle
    });
    server.shutdown();
    result
}
