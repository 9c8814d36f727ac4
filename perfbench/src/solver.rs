//! The solver workloads, `step_large` and `step_small`: end-to-end runs
//! through the supervisor, and the traced run that steps each rank's
//! `Simulation` by hand and times every `mas-mhd` phase on a restored
//! state snapshot.

use crate::layers::{self, fold, per_parent_median, RankTrace, Snapshot};
use crate::report::Outcome;
use crate::stats::{chunk_median, median, tail_percentile};
use crate::trace::Recorder;
use crate::Args;
use gpusim::{DeviceSpec, Phase};
use mas_bench::baseline::peak_rss_kb;
use mas_config::{Deck, GridCfg, ViscSolver};
use mas_grid::{IndexSpace3, Stagger};
use mas_mhd::physics::{advect, conduct, induction, momentum};
use mas_mhd::solvers::{pcg, sts};
use mas_mhd::{progress_fn, step, MultiRankReport, ProgressEvent, RunError, Simulation};
use minimpi::{Comm, ReduceOp, World};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use stdpar::CodeVersion;

/// The highest percentile a solver workload reports as its step tail.
/// Above p75 the tail of `step_small` moves with bursts of host noise
/// more than with the program: in sets of 5 and 10 runs on a 2-vCPU host
/// its p90 spread 0.26 and 0.35 (IQR over median), against 0.15 and 0.25
/// for its steps/s.
const TAIL_CAP: f64 = 75.0;

/// One solver workload: a deck (its `n_steps` is the length of one
/// run), its decomposition and how much of each run is warm-up.
pub struct Solver {
    /// Workload name (the key of its recorded state hash).
    pub name: &'static str,
    /// The deck; `checkpoint.dir` is replaced by a fresh directory per run.
    pub deck: Deck,
    /// Ranks (φ slabs).
    pub ranks: usize,
    /// Code version.
    pub version: CodeVersion,
    /// Leading steps of every run left out of the step statistics
    /// (first touch of the work arrays, tile-plan tuning).
    pub warmup: usize,
    /// Runs every measurement makes at least, whatever `--seconds` says.
    pub min_runs: usize,
    /// Zero-step runs behind `setup_s` and `cache_hit_ms_p50`, at least.
    pub setup_reps: usize,
    /// Zero-step runs made ahead of every full run, so the set-up samples
    /// span the same stretch of host time as the step samples.
    pub setup_per_run: usize,
    /// Snapshot replays per phase in the traced run.
    pub replay_reps: usize,
    /// Time-ordered slices whose median each step statistic reports
    /// (see `stats::chunk_median`).
    pub chunks: usize,
}

impl Solver {
    /// Coronal-background physics on 96×64×128 cells: one rank, two host
    /// threads, unsupervised. Kernel bodies and memory traffic dominate.
    pub fn step_large(smoke: bool) -> Self {
        let mut d = Deck::preset_coronal_background();
        d.grid = if smoke {
            GridCfg {
                nr: 24,
                nt: 16,
                np: 32,
                rmax: 30.0,
            }
        } else {
            GridCfg {
                nr: 96,
                nt: 64,
                np: 128,
                rmax: 30.0,
            }
        };
        d.host_threads = 2;
        d.output.hist_interval = 0;
        d.time.n_steps = if smoke { 3 } else { 8 };
        Solver {
            name: "step_large",
            deck: d,
            ranks: 1,
            version: CodeVersion::D2xu,
            warmup: 1,
            min_runs: if smoke { 10 } else { 6 },
            setup_reps: 21,
            // A full run takes ~3.4 s: two per run give ~28 samples in 50 s.
            setup_per_run: 2,
            replay_reps: if smoke { 10 } else { 5 },
            // 42 guaranteed steps support one p75, not five.
            chunks: 1,
        }
    }

    /// Quickstart physics on the 20×16×24 baseline deck: two ranks of one
    /// thread, supervised, checkpointing every 20 steps. Dispatch,
    /// bookkeeping, halo and collective transport and health checks
    /// dominate; checkpoint steps form the latency tail.
    pub fn step_small(smoke: bool) -> Self {
        let mut d = Deck::preset_quickstart();
        d.grid = if smoke {
            GridCfg {
                nr: 12,
                nt: 10,
                np: 12,
                rmax: 8.0,
            }
        } else {
            GridCfg {
                nr: 20,
                nt: 16,
                np: 24,
                rmax: 10.0,
            }
        };
        d.host_threads = 1;
        d.output.hist_interval = 0;
        d.time.n_steps = if smoke { 8 } else { 120 };
        d.checkpoint.interval = if smoke { 4 } else { 20 };
        Solver {
            name: "step_small",
            deck: d,
            ranks: 2,
            version: CodeVersion::D2xu,
            warmup: 1,
            // 5 runs give five slices of >= 119 steps, enough for the
            // capped tail, p75. Checkpoint steps are 5% of the steps and
            // wait on fsync, whose latency doubles from run to run on a
            // shared disk; checkpoint I/O is timed as its own layer
            // (`ckpt.save_ms`).
            min_runs: if smoke { 3 } else { 5 },
            setup_reps: 201,
            // A full run takes ~0.6 s: three per run give ~240 in 50 s.
            setup_per_run: 3,
            replay_reps: 20,
            chunks: if smoke { 1 } else { 5 },
        }
    }

    fn supervised(&self) -> bool {
        self.deck.checkpoint.interval > 0
    }

    fn steps_per_run(&self) -> usize {
        self.deck.time.n_steps
    }

    /// Steady-state step samples every measurement collects at least.
    fn guaranteed_steps(&self) -> usize {
        self.min_runs * (self.steps_per_run() - self.warmup)
    }
}

/// One end-to-end run: its result, the wall time of every rank-0 `Step`
/// event (seconds from the call) and the call's total wall time.
struct Run {
    result: Result<MultiRankReport, RunError>,
    step_at: Vec<f64>,
    wall: f64,
}

fn run_once(w: &Solver, deck: &Deck, seed: u64) -> Run {
    let step_at = Arc::new(Mutex::new(Vec::with_capacity(deck.time.n_steps)));
    let t0 = Instant::now();
    let sink = {
        let step_at = step_at.clone();
        progress_fn(move |ev| {
            if let ProgressEvent::Step { rank: 0, .. } = ev {
                let t = t0.elapsed().as_secs_f64();
                step_at.lock().expect("step log poisoned").push(t);
            }
            true
        })
    };
    let result = mas_mhd::run_supervised_with_progress(
        deck,
        w.version,
        DeviceSpec::a100_40gb(),
        w.ranks,
        seed,
        false,
        Some(sink),
    );
    let wall = t0.elapsed().as_secs_f64();
    let step_at = std::mem::take(&mut *step_at.lock().expect("step log poisoned"));
    Run {
        result,
        step_at,
        wall,
    }
}

/// The workload deck with `n_steps` steps and, for supervised decks, a
/// fresh checkpoint directory (returned so the caller can remove it).
fn run_deck(w: &Solver, work: &Path, tag: &str, n_steps: usize) -> (Deck, Option<PathBuf>) {
    let mut d = w.deck.clone();
    d.time.n_steps = n_steps;
    if !w.supervised() {
        return (d, None);
    }
    let dir = work.join(format!("ckpt-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    d.checkpoint.dir = dir.to_string_lossy().into_owned();
    (d, Some(dir))
}

/// What the untraced measurement collects.
#[derive(Default)]
struct Measured {
    /// Zero-step run wall times, seconds.
    setup: Vec<f64>,
    /// Steady-state per-step wall times, ms, in time order.
    step_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// The last successful run's report (model counters).
    report: Option<MultiRankReport>,
}

/// Check a run against the recorded hash; `Err` says why it failed.
fn check(run: &Run, expect: &str, n_steps: usize) -> Result<(), String> {
    let rep = run.result.as_ref().map_err(|e| e.to_string())?;
    let got = fold(rep.ranks.iter().map(|r| r.state_hash));
    if got != expect {
        return Err(format!("state hash {got} != recorded {expect}"));
    }
    if run.step_at.len() != n_steps {
        return Err(format!(
            "{} step events for {n_steps} steps",
            run.step_at.len()
        ));
    }
    Ok(())
}

/// One zero-step run, its wall time added to `m.setup`.
fn setup_once(w: &Solver, args: &Args, m: &mut Measured, tag: usize) {
    let (deck, dir) = run_deck(w, &args.work, &format!("setup{tag}"), 0);
    let run = run_once(w, &deck, args.seed);
    dir.map(std::fs::remove_dir_all);
    m.attempted += 1;
    match &run.result {
        Ok(_) => m.setup.push(run.wall),
        Err(e) => {
            eprintln!("perfbench: {} zero-step run failed: {e}", w.name);
            m.failed += 1;
        }
    }
}

/// Full runs until `seconds` have passed and at least `min_runs` ran,
/// each preceded by `w.setup_per_run` zero-step runs; then more zero-step
/// runs until `setup_reps` were made. With `setup_reps` 0, no zero-step
/// runs at all.
fn measure(
    w: &Solver,
    args: &Args,
    expect: &str,
    seconds: f64,
    setup_reps: usize,
    min_runs: usize,
) -> Measured {
    let mut m = Measured::default();
    let per_run = if setup_reps == 0 { 0 } else { w.setup_per_run };
    let mut setups = 0;
    let n = w.steps_per_run();
    let t_start = Instant::now();
    let mut i = 0;
    while i < min_runs || t_start.elapsed().as_secs_f64() < seconds {
        for _ in 0..per_run {
            setup_once(w, args, &mut m, setups);
            setups += 1;
        }
        let (deck, dir) = run_deck(w, &args.work, &format!("run{i}"), n);
        let run = run_once(w, &deck, args.seed);
        dir.map(std::fs::remove_dir_all);
        m.attempted += 1;
        i += 1;
        if let Err(e) = check(&run, expect, n) {
            eprintln!("perfbench: {} run {i}: {e}", w.name);
            m.failed += 1;
            continue;
        }
        // Step s (1-based) ends at step_at[s - 1]; steps after the
        // warm-up are timed from the previous step's event.
        let t = &run.step_at;
        m.step_ms
            .extend(t[w.warmup - 1..].windows(2).map(|p| 1e3 * (p[1] - p[0])));
        m.report = run.result.ok();
    }
    for tag in setups..setup_reps {
        setup_once(w, args, &mut m, tag);
    }
    m
}

/// The untraced run: every end-to-end metric.
///
/// On a solver workload the unit of requested work is a step, so the
/// job-level metrics are the step-level ones, and a cache hit — a result
/// obtained without stepping — is a zero-step run of the same deck.
pub fn run_end_to_end(w: &Solver, args: &Args, expect: &str) -> Outcome {
    let m = measure(w, args, expect, args.seconds, w.setup_reps, w.min_runs);
    let mut out = Outcome::new(m.attempted, m.failed);
    if m.setup.is_empty() || m.step_ms.is_empty() {
        return out;
    }
    let met = &mut out.metrics;
    let chunks = w.chunks;
    // Steady steps over the wall time between their events, per slice.
    let rate = |s: &[f64]| Some(1e3 * s.len() as f64 / s.iter().sum::<f64>());
    let steps_per_s = chunk_median(&m.step_ms, chunks, rate).expect("steps were timed");
    met.put("setup_s", median(&m.setup));
    met.put("steps_per_s", steps_per_s);
    met.put_p50("step_ms_p50", &m.step_ms, chunks);
    met.put("jobs_per_s", steps_per_s);
    met.put_p50("job_ms_p50", &m.step_ms, chunks);
    if let Some(p) = tail_percentile(w.guaranteed_steps() / chunks).map(|p| p.min(TAIL_CAP)) {
        met.put_percentile("step_ms_tail", &m.step_ms, p, chunks);
        met.put_percentile("job_ms_tail", &m.step_ms, p, chunks);
    }
    let setup_ms: Vec<f64> = m.setup.iter().map(|s| 1e3 * s).collect();
    met.put_p50("cache_hit_ms_p50", &setup_ms, chunks);
    met.put("peak_rss_mb", peak_rss_kb() as f64 / 1024.0);
    out
}

// ---------------------------------------------------------------------------
// The traced run.
// ---------------------------------------------------------------------------

/// One step of `mas_mhd::step::advance`, phase by phase, each phase one
/// span. Mirrors `advance` for the PCG viscosity solver; the traced run
/// checks that a replay lands on the same state hash as `advance` from
/// the same snapshot, so the two cannot drift apart unnoticed.
fn advance_by_phase(sim: &mut Simulation, comm: &Comm, rec: &mut Recorder) {
    let physics = sim.deck.physics;
    let time_cfg = sim.deck.time;
    let solver = sim.deck.solver;
    let gamma = physics.gamma;
    let mut dt = rec.span("mhd.cfl", |_| {
        step::cfl_dt(
            &mut sim.par,
            comm,
            &sim.grid,
            &sim.state,
            gamma,
            physics.eta,
            time_cfg.cfl,
            time_cfg.dt_max,
            None,
        )
    });
    if sim.dt_scale < 1.0 {
        dt *= sim.dt_scale;
    }
    rec.span("mhd.advect", |_| {
        let st = &mut sim.state;
        advect::mass_fluxes(&mut sim.par, &sim.grid, &mut st.flux, &st.rho, &st.v);
        advect::continuity(
            &mut sim.par,
            &sim.grid,
            &sim.divg,
            &mut st.rho,
            &st.flux,
            dt,
        );
        let bufs = [st.rho.buf()];
        sim.hx_cc
            .exchange(&mut sim.par, comm, &mut [&mut st.rho.data], &bufs);
    });
    rec.span("mhd.momentum", |_| {
        let st = &mut sim.state;
        momentum::pressure(&mut sim.par, &sim.grid, &mut st.pres, &st.rho, &st.temp);
        momentum::current(&mut sim.par, &sim.grid, &mut st.j, &st.b);
        momentum::rho_to_faces(&mut sim.par, &sim.grid, &mut st.rho_face, &st.rho);
        momentum::advect_velocity(&mut sim.par, &sim.grid, &mut st.force, &st.v);
        momentum::momentum_update(
            &mut sim.par,
            &sim.grid,
            &mut st.v,
            &st.force,
            &st.pres,
            &st.j,
            &st.b,
            &st.rho_face,
            dt,
            physics.gravity,
        );
    });
    rec.span("mhd.visc", |_| {
        if physics.visc > 0.0 {
            let nu_dt = physics.visc * dt;
            let (nr, nt, np) = (sim.grid.nr, sim.grid.nt, sim.grid.np);
            let st = &mut sim.state;
            let (tol, iters) = (solver.pcg_tol, solver.pcg_max_iter);
            let space_r = IndexSpace3::interior_trimmed(Stagger::FaceR, nr, nt, np, (1, 0, 0));
            let space_t = IndexSpace3::interior_trimmed(Stagger::FaceT, nr, nt, np, (0, 1, 0));
            let space_p = IndexSpace3::interior(Stagger::FaceP, nr, nt, np);
            pcg::solve_viscosity(
                &mut sim.par,
                comm,
                &sim.lap_r,
                space_r,
                &mut st.v.r,
                &mut st.pcg_r,
                &mut sim.hx_vr,
                nu_dt,
                tol,
                iters,
            );
            pcg::solve_viscosity(
                &mut sim.par,
                comm,
                &sim.lap_t,
                space_t,
                &mut st.v.t,
                &mut st.pcg_t,
                &mut sim.hx_vt,
                nu_dt,
                tol,
                iters,
            );
            pcg::solve_viscosity(
                &mut sim.par,
                comm,
                &sim.lap_p,
                space_p,
                &mut st.v.p,
                &mut st.pcg_p,
                &mut sim.hx_vp,
                nu_dt,
                tol,
                iters,
            );
        }
        // The velocity ghost refresh that follows the viscous update.
        let st = &mut sim.state;
        let b = [st.v.r.buf()];
        sim.hx_vr
            .exchange(&mut sim.par, comm, &mut [&mut st.v.r.data], &b);
        let b = [st.v.t.buf()];
        sim.hx_vt
            .exchange(&mut sim.par, comm, &mut [&mut st.v.t.data], &b);
        let b = [st.v.p.buf()];
        sim.hx_vp
            .exchange(&mut sim.par, comm, &mut [&mut st.v.p.data], &b);
    });
    rec.span("mhd.advect", |_| {
        let st = &mut sim.state;
        advect::advect_temperature(
            &mut sim.par,
            &sim.grid,
            &sim.divg,
            &mut st.temp,
            &st.v,
            dt,
            gamma,
        );
        let bufs = [st.temp.buf()];
        sim.hx_cc
            .exchange(&mut sim.par, comm, &mut [&mut st.temp.data], &bufs);
    });
    rec.span("mhd.conduct", |_| {
        if physics.kappa0 <= 0.0 {
            return;
        }
        let st = &mut sim.state;
        conduct::kappa_faces(
            &mut sim.par,
            &sim.grid,
            &mut st.flux,
            &st.temp,
            physics.kappa0,
        );
        let dt_expl = conduct::conduction_dt_explicit(
            &mut sim.par,
            &sim.grid,
            &st.temp,
            &st.rho,
            physics.kappa0,
            gamma,
        );
        let mut v = [dt_expl];
        comm.allreduce(ReduceOp::Min, &mut v, &mut sim.par.ctx);
        let aligned = solver.aligned_conduction.then_some((&st.b, &mut st.force));
        sts::advance_conduction(
            &mut sim.par,
            comm,
            &sim.grid,
            &mut st.temp,
            &st.rho,
            &st.flux,
            &mut st.sts,
            &mut sim.hx_cc,
            dt,
            v[0],
            gamma,
            solver.sts_max_stages,
            aligned,
        );
    });
    rec.span("mhd.source", |_| {
        let st = &mut sim.state;
        conduct::radiate_and_heat(
            &mut sim.par,
            &sim.grid,
            &mut st.temp,
            &st.rho,
            dt,
            gamma,
            physics.radiation,
            physics.heating,
        );
        conduct::floors(&mut sim.par, &sim.grid, &mut st.temp, &mut st.rho);
    });
    rec.span("mhd.induction", |_| {
        let st = &mut sim.state;
        induction::emf(
            &mut sim.par,
            &sim.grid,
            &mut st.emf,
            &st.v,
            &st.b,
            &st.j,
            physics.eta,
        );
        induction::ct_update(&mut sim.par, &sim.grid, &sim.ctg, &mut st.b, &st.emf, dt);
    });
    rec.span("mhd.boundary", |_| sim.apply_boundaries(comm));
    sim.time += dt;
    sim.step += 1;
}

/// Phase spans of a replay and the metrics they feed.
const PHASES: [(&str, &str); 8] = [
    ("mhd.cfl", "mhd.cfl_ms"),
    ("mhd.advect", "mhd.advect_ms"),
    ("mhd.momentum", "mhd.momentum_ms"),
    ("mhd.visc", "mhd.visc_ms"),
    ("mhd.conduct", "mhd.conduct_ms"),
    ("mhd.source", "mhd.source_ms"),
    ("mhd.induction", "mhd.induction_ms"),
    ("mhd.boundary", "mhd.boundary_ms"),
];

/// Model counters of one rank over the steady part of the stepping loop.
#[derive(Clone, Copy, Default)]
struct ModelDelta {
    wall_us: f64,
    mpi_us: f64,
    bytes: f64,
}

impl ModelDelta {
    fn now(sim: &Simulation) -> Self {
        let p = &sim.par.ctx.prof;
        ModelDelta {
            wall_us: p.wall_us(),
            mpi_us: p.phase_total_us(Phase::Mpi),
            bytes: p.kernel_bytes,
        }
    }

    fn since(self, before: Self) -> Self {
        ModelDelta {
            wall_us: self.wall_us - before.wall_us,
            mpi_us: self.mpi_us - before.mpi_us,
            bytes: self.bytes - before.bytes,
        }
    }
}

/// What one rank of the traced world hands back.
struct RankResult {
    trace: RankTrace,
    /// State hash after the hand-stepped run.
    hash: u64,
    /// `advance` and the phase replay from one snapshot agreed bitwise.
    replay_exact: bool,
    pcg_iters: usize,
    sts_ops: usize,
    model: ModelDelta,
    ckpt_bytes: u64,
}

/// One rank of the traced world: step by hand with a span around each
/// call, then replay the phases and probe the transport, checkpoint and
/// launch layers from the resulting snapshot.
fn traced_rank(
    w: &Solver,
    args: &Args,
    comm: &Comm,
    origin: Instant,
) -> Result<RankResult, String> {
    let mut sim = Simulation::builder(&w.deck)
        .version(w.version)
        .rank(comm.rank())
        .world(w.ranks)
        .seed(args.seed)
        .try_build()?;
    let mut rec = Recorder::new(origin);
    sim.begin_compute(comm);
    let (mut pcg_iters, mut sts_ops) = (0, 0);
    let mut model_before = ModelDelta::default();
    for s in 0..w.steps_per_run() {
        if s == w.warmup {
            model_before = ModelDelta::now(&sim);
        }
        let name = if s < w.warmup { "warmup" } else { "step" };
        let info = rec.span(name, |r| {
            let info = r.span("mhd.advance", |_| step::advance(&mut sim, comm));
            // The check the run loops make after every step: a finite
            // state, agreed across ranks when supervised.
            r.span("supervisor.health", |_| {
                let bad = sim.state.find_non_finite().is_some();
                if w.supervised() {
                    let mut flag = [if bad { 1.0 } else { 0.0 }];
                    comm.allreduce(ReduceOp::Max, &mut flag, &mut sim.par.ctx);
                }
            });
            info
        });
        if s >= w.warmup {
            pcg_iters += info.pcg_iters;
            sts_ops += info.sts_ops;
        }
    }
    let model = ModelDelta::now(&sim).since(model_before);
    let hash = sim.state.content_hash();

    // Replays of one step from the same snapshot, alternating the whole
    // `advance` with the phase-by-phase version, so both time identical
    // work (solver iteration counts vary from step to step).
    let snap = Snapshot::take(&sim);
    let mut replay_exact = true;
    for _ in 0..w.replay_reps {
        snap.restore(&mut sim);
        rec.span("replay.advance", |_| step::advance(&mut sim, comm));
        let by_advance = sim.state.content_hash();
        snap.restore(&mut sim);
        rec.span("replay", |r| advance_by_phase(&mut sim, comm, r));
        replay_exact &= sim.state.content_hash() == by_advance;
    }
    snap.restore(&mut sim);
    let ckpt_bytes = layers::probe_simulation(&mut sim, comm, &mut rec, &args.work)?;
    Ok(RankResult {
        trace: RankTrace {
            rank: comm.rank(),
            rec,
        },
        hash,
        replay_exact,
        pcg_iters,
        sts_ops,
        model,
        ckpt_bytes,
    })
}

/// Every solver-side per-layer metric of `w` (mhd, stdpar, gpusim, halo,
/// minimpi, supervisor, checkpoint, trace), added to `out`.
pub fn layer_metrics(
    w: &Solver,
    args: &Args,
    expect: &str,
    out: &mut Outcome,
) -> Result<(), String> {
    if w.deck.solver.visc_solver != ViscSolver::Pcg {
        return Err("the phase replay mirrors the PCG viscosity path only".into());
    }
    // Untraced reference for trace.overhead_frac and the run-level
    // counters, over a third of the time budget.
    let base = measure(w, args, expect, args.seconds / 3.0, 0, 2);
    out.attempted += base.attempted;
    out.failed += base.failed;
    let report = base.report.ok_or("no successful untraced run")?;

    let origin = Instant::now();
    let ranks: Vec<RankResult> = World::run(w.ranks, |comm| traced_rank(w, args, &comm, origin))
        .into_iter()
        .collect::<Result<_, _>>()?;
    out.attempted += 2;
    let traced_hash = fold(ranks.iter().map(|r| r.hash));
    if traced_hash != expect {
        eprintln!("perfbench: traced run state hash {traced_hash} != recorded {expect}");
        out.failed += 1;
    }
    if !ranks.iter().all(|r| r.replay_exact) {
        eprintln!("perfbench: phase replay diverged from mas_mhd::step::advance");
        out.failed += 1;
    }
    layers::write_trace(args, "solver", ranks.iter().map(|r| &r.trace))?;

    let r0 = &ranks[0];
    let rec = &r0.trace.rec;
    let steady = (w.steps_per_run() - w.warmup) as f64;
    let met = &mut out.metrics;
    let advance_ms = layers::median_of(rec, "replay.advance") * 1e3;
    met.put("mhd.advance_ms", advance_ms);
    let mut phase_sum = 0.0;
    for (phase, metric) in PHASES {
        let ms = per_parent_median(rec, "replay", phase) * 1e3;
        phase_sum += ms;
        met.put(metric, ms);
    }
    met.put("trace.coverage", phase_sum / advance_ms);
    let step_ms: Vec<f64> = rec
        .spans()
        .iter()
        .filter(|s| s.name == "step")
        .map(|s| 1e3 * (s.end - s.start))
        .collect();
    // A ratio of two medians; the traced loop is too short for the
    // percentile helper's ten-beyond rule, so these are plain medians.
    met.put(
        "trace.overhead_frac",
        median(&step_ms) / median(&base.step_ms) - 1.0,
    );
    met.put(
        "supervisor.health_us",
        per_parent_median(rec, "step", "supervisor.health") * 1e6,
    );
    met.put("mhd.pcg_iters_per_step", r0.pcg_iters as f64 / steady);
    met.put("mhd.sts_ops_per_step", r0.sts_ops as f64 / steady);
    let rep0 = &report.ranks[0];
    met.put(
        "stdpar.launches_per_step",
        rep0.kernel_launches as f64 / rep0.steps as f64,
    );
    met.put(
        "stdpar.tiles_per_step",
        rep0.host_tiles as f64 / rep0.steps as f64,
    );
    met.put("gpusim.model_step_us", r0.model.wall_us / steady);
    met.put("gpusim.model_mpi_frac", r0.model.mpi_us / r0.model.wall_us);
    met.put("gpusim.kernel_bytes_per_step", r0.model.bytes / steady);
    layers::put_probe_metrics(met, rec, r0.ckpt_bytes);
    met.put(
        "stdpar.speedup_2t",
        layers::speedup_2t(&w.deck, w.version, args.seed, w.replay_reps)?,
    );
    Ok(())
}

/// The traced run of a solver workload: every per-layer metric.
pub fn run_traced(w: &Solver, args: &Args, expect: &str) -> Result<Outcome, String> {
    let mut out = Outcome::new(0, 0);
    layer_metrics(w, args, expect, &mut out)?;
    crate::serve::probe(args, &mut out)?;
    Ok(out)
}
