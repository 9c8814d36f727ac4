//! The deck structure and problem presets.

use crate::parse::{parse_sections, ParseError, Value};

/// Grid configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GridCfg {
    /// Radial cells.
    pub nr: usize,
    /// Colatitude cells.
    pub nt: usize,
    /// Longitude cells (global).
    pub np: usize,
    /// Outer radial boundary in solar radii.
    pub rmax: f64,
}

/// Physics configuration (normalized MAS-like units: lengths in `R_s`,
/// B in a reference field strength, density/temperature scaled to typical
/// coronal base values).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PhysicsCfg {
    /// Ratio of specific heats (MAS coronal runs often use a reduced γ).
    pub gamma: f64,
    /// Kinematic viscosity coefficient ν.
    pub visc: f64,
    /// Resistivity η.
    pub eta: f64,
    /// Field-aligned thermal conduction coefficient κ₀ (Spitzer-like
    /// `κ₀ T^{5/2}`).
    pub kappa0: f64,
    /// Enable radiative losses `n²Λ(T)`.
    pub radiation: bool,
    /// Enable the exponential coronal heating source.
    pub heating: bool,
    /// Enable solar gravity.
    pub gravity: bool,
    /// Base density at the inner boundary (normalized).
    pub rho0: f64,
    /// Base temperature at the inner boundary (normalized).
    pub t0: f64,
    /// Dipole field strength at the pole (normalized).
    pub b0: f64,
    /// Amplitude of the initial velocity perturbation (flux-rope /
    /// eruption studies; 0 for relaxation runs).
    pub perturb: f64,
}

/// Time-integration configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TimeCfg {
    /// Number of steps to run.
    pub n_steps: usize,
    /// CFL safety factor.
    pub cfl: f64,
    /// Maximum time step (normalized).
    pub dt_max: f64,
}

/// How the viscous operator is advanced (the explicit-STS-vs-Krylov
/// trade studied in the paper's ref.\[25\]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ViscSolver {
    /// Backward-Euler via matrix-free preconditioned conjugate gradients
    /// (the production choice; the solver profiled in the paper's Fig. 4).
    Pcg,
    /// RKL2 super-time-stepping (fully explicit, no global reductions
    /// beyond the stage-count setup).
    Sts,
    /// Plain explicit update (subject to the viscous CFL limit).
    Explicit,
}

impl ViscSolver {
    /// Parse from deck text.
    pub fn from_str_opt(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "pcg" => Some(ViscSolver::Pcg),
            "sts" => Some(ViscSolver::Sts),
            "explicit" => Some(ViscSolver::Explicit),
            _ => None,
        }
    }

    /// Deck-text name.
    pub fn name(self) -> &'static str {
        match self {
            ViscSolver::Pcg => "pcg",
            ViscSolver::Sts => "sts",
            ViscSolver::Explicit => "explicit",
        }
    }
}

/// Implicit/parabolic solver configuration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SolverCfg {
    /// PCG relative-residual tolerance (viscosity solve).
    pub pcg_tol: f64,
    /// PCG iteration cap.
    pub pcg_max_iter: usize,
    /// Maximum RKL2 super-time-stepping stage count (conduction).
    pub sts_max_stages: usize,
    /// Viscous-operator advance: PCG (implicit), STS, or explicit.
    pub visc_solver: ViscSolver,
    /// Field-aligned (anisotropic) thermal conduction `κ∥ b̂b̂·∇T` instead
    /// of the isotropic operator (the production MAS behaviour).
    pub aligned_conduction: bool,
}

/// Output cadence.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OutputCfg {
    /// History (diagnostics) interval in steps; 0 disables.
    pub hist_interval: usize,
}

/// Crash-safe checkpoint / restart configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct CheckpointCfg {
    /// Checkpoint interval in steps; 0 disables checkpointing to disk.
    pub interval: usize,
    /// Directory for the per-rank rotation slots (`ckpt_r{rank}_{a|b}.dump`).
    pub dir: String,
    /// Restart source: a directory of rotation slots (or a single dump
    /// file for 1-rank runs). Empty = fresh start.
    pub restart_from: String,
    /// Retry budget for the supervisor: how many rollback + dt-backoff
    /// cycles are attempted before the run is declared unrecoverable.
    pub max_recoveries: usize,
}

/// Rank-failure resilience configuration (see `mhd::supervisor` and
/// `minimpi::World::run_resilient`). Everything defaults to *off*:
/// `max_respawns = 0` makes a rank death terminal (its peers' next wait
/// fails at once naming it, and the run fails). A rank counts as dead
/// when its worker panics; a hung rank is not detected. A lost halo
/// message fails its receive at `recv_deadline_ms`; with a respawn
/// budget every rank then meets at the epoch fence and restores the
/// last committed checkpoint.
#[derive(Clone, Debug, PartialEq)]
pub struct ResilienceCfg {
    /// How many dead ranks the world will respawn before a death becomes
    /// terminal. 0 respawns none.
    pub max_respawns: usize,
    /// Receive deadline in milliseconds applied during supervised runs
    /// (0 = the supervisor's 30 s). It guards a lost message or a hung
    /// rank; a dead or returned rank fails its peers' waits without it.
    pub recv_deadline_ms: u64,
}

/// Which fault the injection harness arms (see `mhd::supervisor`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// No fault (the compiled-in hooks stay inert).
    None,
    /// Poison one interior cell of the temperature field with NaN right
    /// after the chosen step's advance — a corrupted kernel output.
    Nan,
    /// Corrupt the payload of the next halo message sent by the chosen
    /// rank (its second half becomes NaN in flight); the health check
    /// catches it and rolls back with dt halving.
    HaloCorrupt,
    /// Drop the next halo message sent by the chosen rank entirely; the
    /// peer's receive fails at its deadline as a structured timeout.
    HaloDrop,
    /// Fail the chosen rank's next checkpoint write with an I/O error,
    /// leaving a stale `.tmp` file but never the destination.
    CkptFail,
    /// Panic the chosen rank mid-step (a crashed process).
    Panic,
}

impl FaultKind {
    /// Parse from deck text.
    pub fn from_str_opt(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "none" => Some(FaultKind::None),
            "nan" => Some(FaultKind::Nan),
            "halo_corrupt" => Some(FaultKind::HaloCorrupt),
            "halo_drop" => Some(FaultKind::HaloDrop),
            "ckpt_fail" => Some(FaultKind::CkptFail),
            "panic" => Some(FaultKind::Panic),
            _ => None,
        }
    }

    /// Deck-text name.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::None => "none",
            FaultKind::Nan => "nan",
            FaultKind::HaloCorrupt => "halo_corrupt",
            FaultKind::HaloDrop => "halo_drop",
            FaultKind::CkptFail => "ckpt_fail",
            FaultKind::Panic => "panic",
        }
    }
}

/// Fault-injection configuration. Compiled in but inert unless `kind`
/// is something other than `none` **and** `step` is non-zero.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultCfg {
    /// What to break.
    pub kind: FaultKind,
    /// 1-based step during whose advance the fault fires; 0 disarms.
    pub step: usize,
    /// Which rank misbehaves.
    pub rank: usize,
    /// For `ckpt_fail`: the `std::io::ErrorKind` name to inject
    /// (e.g. `other`, `write_zero`, `interrupted`).
    pub io_error: String,
}

/// Serving policy carried with the deck when it is submitted to
/// `mas-serve` (ignored by direct CLI runs). Defaults keep the PR-8
/// behaviour: no deadline, a single attempt, no quarantine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ServeCfg {
    /// Wall-clock deadline in milliseconds, measured from submission.
    /// A job past its deadline is cancelled cooperatively at the next
    /// step boundary (or failed at claim time if it never started).
    /// 0 disables the deadline.
    pub deadline_ms: u64,
    /// How many times the scheduler will run the job before giving up.
    /// Attempts that end in a worker panic count toward the budget; the
    /// final panicking attempt quarantines the job's cache key under
    /// the crash-loop circuit breaker. Must be >= 1.
    pub max_attempts: u32,
}

/// A deck that failed validation: every problem found, as one structured
/// error. This is the canonical "bad deck" error for **every** entry
/// point — `Simulation::builder(..).try_build()`, the `mas` CLI, and a
/// `mas-serve` job submission all surface the same message instead of a
/// worker panic or an ad-hoc join of strings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeckError {
    /// The individual validation failures (never empty).
    pub problems: Vec<String>,
}

impl std::fmt::Display for DeckError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid deck: {}", self.problems.join("; "))
    }
}

impl std::error::Error for DeckError {}

/// A complete input deck.
#[derive(Clone, Debug, PartialEq)]
pub struct Deck {
    /// Problem name (reports, output file prefixes).
    pub problem: String,
    /// Paper-scale extrapolation target: the global cell count the cost
    /// model should charge for (0 disables scaling). The numerics always
    /// run on the actual `grid` dims; only the virtual-platform timing
    /// extrapolates — see DESIGN.md §2.
    pub paper_cells: usize,
    /// Host execution-engine width for the stdpar kernels (wall-clock
    /// only — model results are thread-count independent). 0 = auto:
    /// `MAS_HOST_THREADS` env if set, else the machine's available
    /// parallelism.
    pub host_threads: usize,
    /// Run the dynamic race auditor: every tiled kernel's first launch
    /// per iteration-space shape executes under instrumented views and is
    /// checked against the `do concurrent` iteration-independence
    /// contract (see `stdpar::race`). Results are bit-identical either
    /// way; default off. The `MAS_PAR_AUDIT=1` environment variable also
    /// enables it when this key is false.
    pub par_audit: bool,
    /// Grid section.
    pub grid: GridCfg,
    /// Physics section.
    pub physics: PhysicsCfg,
    /// Time-integration section.
    pub time: TimeCfg,
    /// Solver section.
    pub solver: SolverCfg,
    /// Output section.
    pub output: OutputCfg,
    /// Checkpoint / restart section.
    pub checkpoint: CheckpointCfg,
    /// Rank-failure resilience section (off by default).
    pub resilience: ResilienceCfg,
    /// Fault-injection section (inert unless armed).
    pub fault: FaultCfg,
    /// Serving policy section (`mas-serve` deadlines / retry budget).
    pub serve: ServeCfg,
}

impl Default for Deck {
    fn default() -> Self {
        Self {
            problem: "coronal_background".into(),
            paper_cells: 0,
            host_threads: 0,
            par_audit: false,
            grid: GridCfg {
                nr: 48,
                nt: 40,
                np: 64,
                rmax: 20.0,
            },
            physics: PhysicsCfg {
                gamma: 1.05,
                visc: 2.0e-3,
                eta: 4.0e-4,
                kappa0: 2.0e-2,
                radiation: true,
                heating: true,
                gravity: true,
                rho0: 1.0,
                t0: 1.0,
                b0: 1.0,
                perturb: 0.0,
            },
            time: TimeCfg {
                n_steps: 40,
                cfl: 0.4,
                dt_max: 0.5,
            },
            solver: SolverCfg {
                pcg_tol: 1.0e-9,
                pcg_max_iter: 200,
                sts_max_stages: 16,
                visc_solver: ViscSolver::Pcg,
                aligned_conduction: false,
            },
            output: OutputCfg { hist_interval: 10 },
            checkpoint: CheckpointCfg {
                interval: 0,
                dir: "ckpt".into(),
                restart_from: String::new(),
                max_recoveries: 3,
            },
            resilience: ResilienceCfg {
                max_respawns: 0,
                recv_deadline_ms: 0,
            },
            fault: FaultCfg {
                kind: FaultKind::None,
                step: 0,
                rank: 0,
                io_error: "other".into(),
            },
            serve: ServeCfg {
                deadline_ms: 0,
                max_attempts: 1,
            },
        }
    }
}

impl Deck {
    /// Parse a namelist-style deck; unspecified keys keep their defaults.
    pub fn parse(text: &str) -> Result<Self, ParseError> {
        let sections = parse_sections(text)?;
        let mut deck = Deck::default();
        for (section, entries) in &sections {
            for (key, value) in entries {
                deck.apply(section, key, value).map_err(|msg| {
                    ParseError::new(format!("&{section} {key}: {msg}"))
                })?;
            }
        }
        Ok(deck)
    }

    fn apply(&mut self, section: &str, key: &str, v: &Value) -> Result<(), String> {
        match (section, key) {
            ("run", "problem") => self.problem = v.as_str()?.to_string(),
            ("run", "paper_cells") => self.paper_cells = v.as_usize()?,
            ("run", "host_threads") => self.host_threads = v.as_usize()?,
            ("run", "par_audit") => self.par_audit = v.as_bool()?,
            ("grid", "nr") => self.grid.nr = v.as_usize()?,
            ("grid", "nt") => self.grid.nt = v.as_usize()?,
            ("grid", "np") => self.grid.np = v.as_usize()?,
            ("grid", "rmax") => self.grid.rmax = v.as_f64()?,
            ("physics", "gamma") => self.physics.gamma = v.as_f64()?,
            ("physics", "visc") => self.physics.visc = v.as_f64()?,
            ("physics", "eta") => self.physics.eta = v.as_f64()?,
            ("physics", "kappa0") => self.physics.kappa0 = v.as_f64()?,
            ("physics", "radiation") => self.physics.radiation = v.as_bool()?,
            ("physics", "heating") => self.physics.heating = v.as_bool()?,
            ("physics", "gravity") => self.physics.gravity = v.as_bool()?,
            ("physics", "rho0") => self.physics.rho0 = v.as_f64()?,
            ("physics", "t0") => self.physics.t0 = v.as_f64()?,
            ("physics", "b0") => self.physics.b0 = v.as_f64()?,
            ("physics", "perturb") => self.physics.perturb = v.as_f64()?,
            ("time", "n_steps") => self.time.n_steps = v.as_usize()?,
            ("time", "cfl") => self.time.cfl = v.as_f64()?,
            ("time", "dt_max") => self.time.dt_max = v.as_f64()?,
            ("solver", "pcg_tol") => self.solver.pcg_tol = v.as_f64()?,
            ("solver", "pcg_max_iter") => self.solver.pcg_max_iter = v.as_usize()?,
            ("solver", "sts_max_stages") => self.solver.sts_max_stages = v.as_usize()?,
            ("solver", "visc_solver") => {
                self.solver.visc_solver = ViscSolver::from_str_opt(v.as_str()?)
                    .ok_or("expected pcg | sts | explicit")?
            }
            ("solver", "aligned_conduction") => {
                self.solver.aligned_conduction = v.as_bool()?
            }
            ("output", "hist_interval") => self.output.hist_interval = v.as_usize()?,
            ("checkpoint", "interval") => self.checkpoint.interval = v.as_usize()?,
            ("checkpoint", "dir") => self.checkpoint.dir = v.as_str()?.to_string(),
            ("checkpoint", "restart_from") => {
                self.checkpoint.restart_from = v.as_str()?.to_string()
            }
            ("checkpoint", "max_recoveries") => {
                self.checkpoint.max_recoveries = v.as_usize()?
            }
            ("fault", "kind") => {
                self.fault.kind = FaultKind::from_str_opt(v.as_str()?).ok_or(
                    "expected none | nan | halo_corrupt | halo_drop | ckpt_fail | panic",
                )?
            }
            ("fault", "step") => self.fault.step = v.as_usize()?,
            ("fault", "rank") => self.fault.rank = v.as_usize()?,
            ("fault", "io_error") => self.fault.io_error = v.as_str()?.to_string(),
            ("resilience", "max_respawns") => {
                self.resilience.max_respawns = v.as_usize()?
            }
            ("resilience", "recv_deadline_ms") => {
                self.resilience.recv_deadline_ms = v.as_usize()? as u64
            }
            ("serve", "deadline_ms") => self.serve.deadline_ms = v.as_usize()? as u64,
            ("serve", "max_attempts") => {
                self.serve.max_attempts = v.as_usize()? as u32
            }
            _ => return Err("unknown key".into()),
        }
        Ok(())
    }

    /// Serialize back to deck text (round-trips through [`Deck::parse`]).
    pub fn to_deck_string(&self) -> String {
        format!(
            "{}&serve\n  deadline_ms = {}\n  max_attempts = {}\n/\n",
            self.identity_text(),
            self.serve.deadline_ms,
            self.serve.max_attempts,
        )
    }

    /// Canonical text of everything that determines the run's *result*:
    /// every section except `&serve`. Deadlines and retry budgets are
    /// scheduling policy — two decks differing only there produce
    /// bit-identical physics, so this (not [`Deck::to_deck_string`]) is
    /// what [`Deck::content_hash`] digests.
    fn identity_text(&self) -> String {
        let b = |x: bool| if x { ".true." } else { ".false." };
        format!(
            "&run\n  problem = '{}'\n  paper_cells = {}\n  host_threads = {}\n  par_audit = {}\n/\n\
             &grid\n  nr = {}\n  nt = {}\n  np = {}\n  rmax = {}\n/\n\
             &physics\n  gamma = {}\n  visc = {}\n  eta = {}\n  kappa0 = {}\n  \
             radiation = {}\n  heating = {}\n  gravity = {}\n  rho0 = {}\n  \
             t0 = {}\n  b0 = {}\n  perturb = {}\n/\n\
             &time\n  n_steps = {}\n  cfl = {}\n  dt_max = {}\n/\n\
             &solver\n  pcg_tol = {}\n  pcg_max_iter = {}\n  sts_max_stages = {}\n  \
             visc_solver = '{}'\n  aligned_conduction = {}\n/\n\
             &output\n  hist_interval = {}\n/\n\
             &checkpoint\n  interval = {}\n  dir = '{}'\n  restart_from = '{}'\n  \
             max_recoveries = {}\n/\n\
             &resilience\n  max_respawns = {}\n  recv_deadline_ms = {}\n/\n\
             &fault\n  kind = '{}'\n  step = {}\n  rank = {}\n  io_error = '{}'\n/\n",
            self.problem,
            self.paper_cells,
            self.host_threads,
            b(self.par_audit),
            self.grid.nr,
            self.grid.nt,
            self.grid.np,
            self.grid.rmax,
            self.physics.gamma,
            self.physics.visc,
            self.physics.eta,
            self.physics.kappa0,
            b(self.physics.radiation),
            b(self.physics.heating),
            b(self.physics.gravity),
            self.physics.rho0,
            self.physics.t0,
            self.physics.b0,
            self.physics.perturb,
            self.time.n_steps,
            self.time.cfl,
            self.time.dt_max,
            self.solver.pcg_tol,
            self.solver.pcg_max_iter,
            self.solver.sts_max_stages,
            self.solver.visc_solver.name(),
            b(self.solver.aligned_conduction),
            self.output.hist_interval,
            self.checkpoint.interval,
            self.checkpoint.dir,
            self.checkpoint.restart_from,
            self.checkpoint.max_recoveries,
            self.resilience.max_respawns,
            self.resilience.recv_deadline_ms,
            self.fault.kind.name(),
            self.fault.step,
            self.fault.rank,
            self.fault.io_error,
        )
    }

    /// Tiny problem for doc examples and smoke tests (runs in well under a
    /// second).
    #[allow(clippy::field_reassign_with_default)]
    pub fn preset_quickstart() -> Self {
        let mut d = Deck::default();
        d.problem = "quickstart".into();
        d.grid = GridCfg {
            nr: 16,
            nt: 12,
            np: 16,
            rmax: 10.0,
        };
        d.time.n_steps = 5;
        d.output.hist_interval = 1;
        d
    }

    /// The scaled coronal-background relaxation: our stand-in for the
    /// paper's 36M-cell production test case (Reeves et al. 2019 setup).
    /// ~300k cells so the whole 6-version × 4-GPU-count sweep runs on a
    /// laptop; the benchmark harness extrapolates model timings to the
    /// paper scale from the kernel census.
    #[allow(clippy::field_reassign_with_default)]
    pub fn preset_coronal_background() -> Self {
        let mut d = Deck::default();
        d.problem = "coronal_background".into();
        d.grid = GridCfg {
            nr: 64,
            nt: 48,
            np: 96,
            rmax: 30.0,
        };
        d.time.n_steps = 25;
        d
    }

    /// Flux-rope-style eruption: the coronal background plus a strong
    /// velocity shear perturbation at the inner boundary (the kind of
    /// CME-driver study MAS/CORHEL runs in production).
    pub fn preset_flux_rope() -> Self {
        let mut d = Deck::preset_coronal_background();
        d.problem = "flux_rope".into();
        d.grid = GridCfg {
            nr: 48,
            nt: 40,
            np: 72,
            rmax: 20.0,
        };
        d.physics.perturb = 0.08;
        d.time.n_steps = 30;
        d
    }

    /// Number of cells in the global grid.
    pub fn n_cells(&self) -> usize {
        self.grid.nr * self.grid.nt * self.grid.np
    }

    /// Cost-model volume scale (≥ 1): `paper_cells / n_cells`.
    pub fn volume_scale(&self) -> f64 {
        if self.paper_cells == 0 {
            1.0
        } else {
            (self.paper_cells as f64 / self.n_cells() as f64).max(1.0)
        }
    }

    /// Cost-model surface scale: `volume_scale^(2/3)` (halo planes).
    pub fn area_scale(&self) -> f64 {
        self.volume_scale().powf(2.0 / 3.0)
    }

    /// Cost-model linear scale: `volume_scale^(1/3)` (1-D metric arrays).
    pub fn linear_scale(&self) -> f64 {
        self.volume_scale().powf(1.0 / 3.0)
    }

    /// Sanity-check the deck; returns a list of problems (empty = valid).
    pub fn validate(&self) -> Vec<String> {
        let mut errs = vec![];
        if self.grid.nr < 4 || self.grid.nt < 4 || self.grid.np < 4 {
            errs.push("grid must be at least 4 cells in every direction".into());
        }
        if self.grid.rmax <= 1.0 {
            errs.push("rmax must exceed the solar surface (r = 1)".into());
        }
        if !(1.0..=2.0).contains(&self.physics.gamma) {
            errs.push(format!("gamma {} outside [1, 2]", self.physics.gamma));
        }
        if self.time.cfl <= 0.0 || self.time.cfl > 1.0 {
            errs.push(format!("cfl {} outside (0, 1]", self.time.cfl));
        }
        if self.physics.visc < 0.0 || self.physics.eta < 0.0 || self.physics.kappa0 < 0.0 {
            errs.push("dissipation coefficients must be non-negative".into());
        }
        if self.solver.pcg_tol <= 0.0 || self.solver.pcg_tol >= 1.0 {
            errs.push(format!("pcg_tol {} outside (0, 1)", self.solver.pcg_tol));
        }
        if self.solver.sts_max_stages < 1 {
            errs.push("sts_max_stages must be >= 1".into());
        }
        if self.checkpoint.interval > 0 && self.checkpoint.dir.is_empty() {
            errs.push("checkpoint dir must be non-empty when interval > 0".into());
        }
        if self.fault.kind != FaultKind::None
            && self.fault.step > 0
            && self.fault.step > self.time.n_steps
        {
            errs.push(format!(
                "fault step {} beyond n_steps {}",
                self.fault.step, self.time.n_steps
            ));
        }
        if self.serve.max_attempts == 0 {
            errs.push("serve max_attempts must be >= 1".into());
        }
        errs
    }

    /// [`Deck::validate`] as a `Result`: `Err` carries every problem as a
    /// structured [`DeckError`]. Use this at API boundaries (CLI, job
    /// submission, builder) so all of them reject a bad deck identically.
    pub fn validated(&self) -> Result<(), DeckError> {
        let problems = self.validate();
        if problems.is_empty() {
            Ok(())
        } else {
            Err(DeckError { problems })
        }
    }

    /// Content hash of the deck: FNV-1a 64 over the canonical text of
    /// every result-determining section, so two decks hash equal exactly
    /// when every effective key matches — regardless of comment/ordering
    /// differences in the original files. The `&serve` section (deadline
    /// / retry policy) is deliberately excluded: it cannot change the
    /// physics, so it must not fragment the `mas-serve` result cache.
    pub fn content_hash(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf29ce484222325;
        const FNV_PRIME: u64 = 0x100000001b3;
        let mut h = FNV_OFFSET;
        for b in self.identity_text().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
        h
    }

    /// True when the fault section will actually fire (kind armed and a
    /// target step chosen).
    pub fn fault_armed(&self) -> bool {
        self.fault.kind != FaultKind::None && self.fault.step > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_valid() {
        assert!(Deck::default().validate().is_empty());
        assert!(Deck::preset_quickstart().validate().is_empty());
        assert!(Deck::preset_coronal_background().validate().is_empty());
        assert!(Deck::preset_flux_rope().validate().is_empty());
    }

    #[test]
    fn parse_overrides_defaults() {
        let text = "&grid\n nr = 8\n nt = 8\n np = 8\n/\n&time\n n_steps = 3\n/\n";
        let d = Deck::parse(text).unwrap();
        assert_eq!(d.grid.nr, 8);
        assert_eq!(d.time.n_steps, 3);
        // untouched key keeps default
        assert_eq!(d.physics.gamma, 1.05);
    }

    #[test]
    fn roundtrip_through_text() {
        let d0 = Deck::preset_flux_rope();
        let text = d0.to_deck_string();
        let d1 = Deck::parse(&text).unwrap();
        assert_eq!(d0, d1);
    }

    #[test]
    fn unknown_key_is_an_error() {
        let e = Deck::parse("&grid\n bogus = 3\n/\n").unwrap_err();
        assert!(e.to_string().contains("bogus"));
    }

    #[test]
    fn validation_catches_bad_values() {
        let mut d = Deck::default();
        d.physics.gamma = 3.0;
        d.time.cfl = 0.0;
        let errs = d.validate();
        assert_eq!(errs.len(), 2);
    }

    #[test]
    fn checkpoint_and_fault_sections_parse() {
        let text = "&checkpoint\n interval = 5\n dir = 'out/ck'\n \
                    restart_from = 'out/ck'\n max_recoveries = 2\n/\n\
                    &fault\n kind = 'nan'\n step = 3\n rank = 1\n io_error = 'write_zero'\n/\n";
        let d = Deck::parse(text).unwrap();
        assert_eq!(d.checkpoint.interval, 5);
        assert_eq!(d.checkpoint.dir, "out/ck");
        assert_eq!(d.checkpoint.restart_from, "out/ck");
        assert_eq!(d.checkpoint.max_recoveries, 2);
        assert_eq!(d.fault.kind, FaultKind::Nan);
        assert_eq!(d.fault.step, 3);
        assert_eq!(d.fault.rank, 1);
        assert_eq!(d.fault.io_error, "write_zero");
        assert!(d.fault_armed());
        assert!(!Deck::default().fault_armed());
    }

    #[test]
    fn fault_kind_roundtrips_and_rejects_unknown() {
        for k in [
            FaultKind::None,
            FaultKind::Nan,
            FaultKind::HaloCorrupt,
            FaultKind::HaloDrop,
            FaultKind::CkptFail,
            FaultKind::Panic,
        ] {
            assert_eq!(FaultKind::from_str_opt(k.name()), Some(k));
        }
        assert_eq!(FaultKind::from_str_opt("meteor"), None);
        let e = Deck::parse("&fault\n kind = 'meteor'\n/\n").unwrap_err();
        assert!(e.to_string().contains("halo_corrupt"));
    }

    #[test]
    fn validate_checks_fault_and_checkpoint() {
        let mut d = Deck::default();
        d.checkpoint.interval = 5;
        d.checkpoint.dir.clear();
        d.fault.kind = FaultKind::Nan;
        d.fault.step = d.time.n_steps + 1;
        let errs = d.validate();
        assert_eq!(errs.len(), 2, "{errs:?}");
    }

    #[test]
    fn resilience_section_parses_and_defaults_off() {
        let d = Deck::default();
        assert_eq!(d.resilience.max_respawns, 0, "resilience must default off");
        assert_eq!(d.resilience.recv_deadline_ms, 0);
        let text = "&resilience\n max_respawns = 2\n recv_deadline_ms = 1500\n/\n\
                    &fault\n kind = 'halo_drop'\n step = 2\n/\n";
        let d = Deck::parse(text).unwrap();
        assert_eq!(d.resilience.max_respawns, 2);
        assert_eq!(d.resilience.recv_deadline_ms, 1500);
        assert_eq!(d.fault.kind, FaultKind::HaloDrop);
        assert!(d.validate().is_empty(), "{:?}", d.validate());
    }

    #[test]
    fn validate_checks_resilience_and_fault_count() {
        let mut d = Deck::default();
        d.resilience.max_respawns = 1;
        assert!(d.validate().is_empty(), "{:?}", d.validate());
        // A fault hits exactly one message: the burst `count` key and the
        // halo retry budget it exhausted are refused at parse.
        for retired in [
            "&resilience\n halo_retries = 3\n/\n",
            "&fault\n count = 4\n/\n",
        ] {
            let err = Deck::parse(retired).unwrap_err().to_string();
            assert!(err.contains("unknown key"), "{retired:?}: {err}");
        }
    }

    #[test]
    fn validated_returns_structured_error() {
        assert!(Deck::default().validated().is_ok());
        let mut d = Deck::default();
        d.physics.gamma = 3.0;
        d.time.cfl = 0.0;
        let err = d.validated().unwrap_err();
        assert_eq!(err.problems.len(), 2);
        let msg = err.to_string();
        assert!(msg.starts_with("invalid deck: "), "{msg}");
        assert!(msg.contains("gamma") && msg.contains("cfl"), "{msg}");
    }

    #[test]
    fn content_hash_tracks_effective_keys_only() {
        let a = Deck::preset_quickstart();
        let mut b = Deck::preset_quickstart();
        assert_eq!(a.content_hash(), b.content_hash());
        // Textual noise (comments, spacing, key order) does not change
        // the hash: parse normalizes to the same effective deck.
        let noisy = format!("! a comment\n\n{}", a.to_deck_string());
        assert_eq!(Deck::parse(&noisy).unwrap().content_hash(), a.content_hash());
        // Any effective change does.
        b.time.n_steps += 1;
        assert_ne!(a.content_hash(), b.content_hash());
        // Serving policy is not part of the result identity: decks
        // differing only in &serve hash equal (same cache entry).
        let mut c = Deck::preset_quickstart();
        c.serve.deadline_ms = 5000;
        c.serve.max_attempts = 3;
        assert_eq!(a.content_hash(), c.content_hash());
    }

    #[test]
    fn serve_section_parses_and_defaults_off() {
        let d = Deck::default();
        assert_eq!(d.serve.deadline_ms, 0, "deadline must default off");
        assert_eq!(d.serve.max_attempts, 1, "single attempt by default");
        let text = "&serve\n deadline_ms = 2500\n max_attempts = 3\n/\n";
        let d = Deck::parse(text).unwrap();
        assert_eq!(d.serve.deadline_ms, 2500);
        assert_eq!(d.serve.max_attempts, 3);
        assert!(d.validate().is_empty(), "{:?}", d.validate());
        // Round-trips through the canonical text form.
        assert_eq!(Deck::parse(&d.to_deck_string()).unwrap(), d);
    }

    #[test]
    fn validate_rejects_zero_max_attempts() {
        let mut d = Deck::default();
        d.serve.max_attempts = 0;
        let errs = d.validate();
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].contains("max_attempts"));
    }

    #[test]
    fn flux_rope_has_perturbation() {
        assert!(Deck::preset_flux_rope().physics.perturb > 0.0);
        assert_eq!(Deck::preset_coronal_background().physics.perturb, 0.0);
    }
}
