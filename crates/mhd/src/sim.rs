//! The `Simulation` driver: setup (grid, state, initial conditions,
//! device registration) and boundary orchestration. Stepping lives in
//! the one step loop, [`crate::supervisor`]'s; [`Simulation::run`] calls
//! it with supervision off.

use crate::bc;
use crate::diag::{self, HistRecord};
use crate::halo::HaloExchanger;
use crate::ops::deriv::{CtGeom, DivGeom, LapStencil};
use crate::physics::momentum::G0;
use crate::state::State;
use crate::step::StepInfo;
use crate::supervisor::RecoveryLog;
use gpusim::{DeviceSpec, Phase};
use mas_config::Deck;
use mas_grid::{SphericalGrid, Stagger, NGHOST};
use minimpi::Comm;
use std::sync::atomic::AtomicBool;
use stdpar::{CodeVersion, Par};

/// One rank's simulation: local grid, state, executor, halo machinery.
pub struct Simulation {
    /// The input deck.
    pub deck: Deck,
    /// Local (φ-slab) grid.
    pub grid: SphericalGrid,
    /// The executor (virtual device + policy + registry).
    pub par: Par,
    /// The MHD state.
    pub state: State,
    /// Flux-divergence geometry.
    pub divg: DivGeom,
    /// Constrained-transport geometry.
    pub ctg: CtGeom,
    /// Viscous Laplacian stencil for `v_r` (r-face staggering).
    pub lap_r: LapStencil,
    /// Viscous Laplacian stencil for `v_θ`.
    pub lap_t: LapStencil,
    /// Viscous Laplacian stencil for `v_φ`.
    pub lap_p: LapStencil,
    /// Halo exchanger for the full 8-array state.
    pub hx_state: HaloExchanger,
    /// Single-array halo exchanger for `v_r`-shaped arrays.
    pub hx_vr: HaloExchanger,
    /// Single-array halo exchanger for `v_θ`-shaped arrays.
    pub hx_vt: HaloExchanger,
    /// Single-array halo exchanger for `v_φ`-shaped arrays.
    pub hx_vp: HaloExchanger,
    /// Single-array halo exchanger for cell-centered arrays (PCG/STS
    /// stage variables, ρ, T).
    pub hx_cc: HaloExchanger,
    /// Geometric explicit viscous stability limit (∞ when ν = 0).
    pub visc_dt_expl: f64,
    /// Physical time.
    pub time: f64,
    /// Step counter.
    pub step: usize,
    /// History records.
    pub hist: Vec<HistRecord>,
    /// Time-step back-off factor applied on top of the CFL limit
    /// (halved by the run supervisor after each rollback; 1.0 — the
    /// default — is bitwise inert, so unsupervised runs are unaffected).
    pub dt_scale: f64,
    /// Communicator epoch this simulation is running under: 0 for a fresh
    /// world, bumped by the resilient supervisor after every rank respawn
    /// (the value is stamped into checkpoint headers so a dump records
    /// which incarnation of the world wrote it).
    pub epoch: u64,
    /// True when the state was restored from a checkpoint: the dump holds
    /// the post-boundary-exchange state (ghosts included), so the run
    /// loop must **not** re-apply boundaries before the first step — the
    /// polar φ-average is not bitwise idempotent, and skipping it makes a
    /// restart reproduce the uninterrupted run bit-for-bit.
    pub resumed: bool,
}

/// Builder for [`Simulation`]: construction decoupled from the CLI's
/// positional-argument shape. Defaults are a fresh rank-0 run of a
/// 1-rank world under version `A` on an A100-40GB device with seed 1;
/// override what differs and finish with [`SimulationBuilder::build`]
/// (or [`SimulationBuilder::try_build`] to get errors instead of
/// panics, e.g. for deck validation or a restart load).
pub struct SimulationBuilder<'a> {
    deck: &'a Deck,
    version: CodeVersion,
    spec: DeviceSpec,
    rank: usize,
    n_ranks: usize,
    seed: u64,
    restart_from: Option<std::path::PathBuf>,
}

impl SimulationBuilder<'_> {
    /// Code version (paper port) to run under.
    pub fn version(mut self, version: CodeVersion) -> Self {
        self.version = version;
        self
    }

    /// Virtual device the executor charges.
    pub fn device(mut self, spec: DeviceSpec) -> Self {
        self.spec = spec;
        self
    }

    /// This rank's index within the φ-slab decomposition.
    pub fn rank(mut self, rank: usize) -> Self {
        self.rank = rank;
        self
    }

    /// World size (number of φ slabs).
    pub fn world(mut self, n_ranks: usize) -> Self {
        self.n_ranks = n_ranks;
        self
    }

    /// Launch-jitter seed (vary per "run" for the paper-style min/max
    /// error bars).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Restore the state from a checkpoint dump at `path` right after
    /// construction (equivalent to [`crate::checkpoint::load`]); the
    /// built simulation resumes mid-run with [`Simulation::resumed`] set.
    pub fn restart_slot(mut self, path: impl Into<std::path::PathBuf>) -> Self {
        self.restart_from = Some(path.into());
        self
    }

    /// Build, returning an error for an invalid deck, an out-of-range
    /// rank, or a failed restart load.
    pub fn try_build(self) -> Result<Simulation, String> {
        // The canonical validation path: the CLI, the run supervisor, and
        // a `mas-serve` job submission all reject a bad deck with the
        // same structured `DeckError` message.
        self.deck.validated().map_err(|e| e.to_string())?;
        if self.rank >= self.n_ranks {
            return Err(format!(
                "rank {} outside the {}-rank world",
                self.rank, self.n_ranks
            ));
        }
        let mut sim = Simulation::construct(
            self.deck, self.version, self.spec, self.rank, self.n_ranks, self.seed,
        );
        if let Some(path) = &self.restart_from {
            crate::checkpoint::load(&mut sim, path)
                .map_err(|e| format!("restart from {}: {e}", path.display()))?;
        }
        Ok(sim)
    }

    /// Build, panicking on the error cases of
    /// [`SimulationBuilder::try_build`].
    pub fn build(self) -> Simulation {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }
}

impl Simulation {
    /// Start building a rank-local simulation from `deck` (see
    /// [`SimulationBuilder`] for the defaults).
    pub fn builder(deck: &Deck) -> SimulationBuilder<'_> {
        SimulationBuilder {
            deck,
            version: CodeVersion::A,
            spec: DeviceSpec::a100_40gb(),
            rank: 0,
            n_ranks: 1,
            seed: 1,
            restart_from: None,
        }
    }

    fn construct(
        deck: &Deck,
        version: CodeVersion,
        spec: DeviceSpec,
        rank: usize,
        n_ranks: usize,
        seed: u64,
    ) -> Self {
        let global = SphericalGrid::coronal(deck.grid.nr, deck.grid.nt, deck.grid.np, deck.grid.rmax);
        let (k0, len) = SphericalGrid::phi_partition(deck.grid.np, n_ranks, rank);
        let grid = global.subgrid_phi(k0, len);

        // Paper-scale extrapolation factors (1.0 when paper_cells = 0).
        let vol_scale = deck.volume_scale();
        // The production code decomposes in all three dimensions, so its
        // per-rank halo surface shrinks as (V/P)^(2/3); the slab
        // decomposition's plane is P-independent. Fold the ratio into the
        // halo cost scale so communication volumes extrapolate to the
        // paper's decomposition (DESIGN.md §6).
        let area_scale = (deck.area_scale() / (n_ranks as f64).powf(2.0 / 3.0)).max(1.0);
        let lin_scale = deck.linear_scale();

        let mut builder = Par::builder(spec)
            .version(version)
            .rank(rank)
            .seed(seed.wrapping_mul(1000 + rank as u64 * 7 + 1))
            .scales(stdpar::CostScales::new(vol_scale, area_scale));
        if deck.host_threads > 0 {
            builder = builder.threads(deck.host_threads);
        }
        if deck.par_audit {
            // Only force audit mode *on*: leaving the builder untouched
            // when the key is false lets MAS_PAR_AUDIT=1 enable it too.
            builder = builder.audit(true);
        }
        let mut par = builder.build();
        par.ctx.set_phase(Phase::Setup);

        let mut state = State::new(&grid);
        init_conditions(&mut state, &grid, deck);
        state.register(&mut par, &grid, vol_scale, lin_scale);

        let divg = DivGeom::new(&grid);
        let ctg = CtGeom::new(&grid);
        let lap_r = LapStencil::new(&grid, Stagger::FaceR);
        let lap_t = LapStencil::new(&grid, Stagger::FaceT);
        let lap_p = LapStencil::new(&grid, Stagger::FaceP);

        let hx_state = {
            let arrays = state.halo_arrays();
            HaloExchanger::new_scaled(&mut par, &arrays, "halo_state", area_scale)
        };
        let hx_vr = HaloExchanger::new_scaled(&mut par, &[&state.v.r.data], "halo_vr", area_scale);
        let hx_vt = HaloExchanger::new_scaled(&mut par, &[&state.v.t.data], "halo_vt", area_scale);
        let hx_vp = HaloExchanger::new_scaled(&mut par, &[&state.v.p.data], "halo_vp", area_scale);
        let hx_cc = HaloExchanger::new_scaled(&mut par, &[&state.temp.data], "halo_cc", area_scale);

        let visc_dt_expl = if deck.physics.visc > 0.0 {
            crate::solvers::sts::viscosity_dt_explicit(&grid, deck.physics.visc)
        } else {
            f64::INFINITY
        };

        // Unified-memory runs page the whole working set onto the device
        // during setup (first-touch); a production run amortizes this over
        // hours, so it belongs to the untimed setup phase (DESIGN.md §6).
        par.ctx.prefault_all();

        Self {
            deck: deck.clone(),
            grid,
            par,
            state,
            divg,
            ctg,
            lap_r,
            lap_t,
            lap_p,
            hx_state,
            hx_vr,
            hx_vt,
            hx_vp,
            hx_cc,
            visc_dt_expl,
            time: 0.0,
            step: 0,
            hist: Vec::new(),
            dt_scale: 1.0,
            epoch: 0,
            resumed: false,
        }
    }

    /// Apply all boundary machinery: physical BCs, polar regularization,
    /// and the φ halo exchange of the full state.
    pub fn apply_boundaries(&mut self, comm: &Comm) {
        bc::apply_physical(&mut self.par, &self.grid, &mut self.state, &self.deck.physics, self.time);
        bc::polar_regularization(&mut self.par, comm, &self.grid, &mut self.state);
        let st = &mut self.state;
        let bufs = [
            st.rho.buf(), st.temp.buf(),
            st.v.r.buf(), st.v.t.buf(), st.v.p.buf(),
            st.b.r.buf(), st.b.t.buf(), st.b.p.buf(),
        ];
        let mut arrays = [
            &mut st.rho.data, &mut st.temp.data,
            &mut st.v.r.data, &mut st.v.t.data, &mut st.v.p.data,
            &mut st.b.r.data, &mut st.b.t.data, &mut st.b.p.data,
        ];
        self.hx_state.exchange(&mut self.par, comm, &mut arrays, &bufs);
    }

    /// Begin the timed solve: switch the profiler into the compute phase
    /// and apply boundaries — unless the state was [`Self::resumed`] from
    /// a checkpoint, whose dump already holds the exchanged ghosts.
    pub fn begin_compute(&mut self, comm: &Comm) {
        // Setup ends; the timed solve begins (the paper times the solver
        // portion, not setup).
        self.par.ctx.set_phase(Phase::Compute);
        if !self.resumed {
            self.apply_boundaries(comm);
        }
    }

    /// Record a history entry for the step just taken, at the deck's
    /// cadence (called by the step loop after every healthy step).
    pub fn record_hist(&mut self, comm: &Comm, info: &StepInfo) {
        let hist_int = self.deck.output.hist_interval;
        if hist_int == 0 || !self.step.is_multiple_of(hist_int) {
            return;
        }
        let d = diag::compute(&mut self.par, comm, &self.grid, &self.ctg, &self.state, self.deck.physics.gamma);
        // History/plot output: fields come back to the host
        // (`!$acc update host` sites; page migrations under UM).
        let hist_temp = self.par.site_id("hist_temp");
        self.par.update_host(hist_temp, self.state.temp.buf());
        self.par.host_access(self.state.temp.buf(), false);
        let hist_vr = self.par.site_id("hist_vr");
        self.par.update_host(hist_vr, self.state.v.r.buf());
        self.par.host_access(self.state.v.r.buf(), false);
        self.hist.push(HistRecord {
            step: self.step,
            time: self.time,
            dt: info.dt,
            pcg_iters: info.pcg_iters,
            sts_ops: info.sts_ops,
            diag: d,
        });
    }

    /// Run until the deck's `n_steps` **total** steps are reached,
    /// recording history. A simulation restored from a step-`S` checkpoint
    /// therefore takes `n_steps - S` further steps (and a restart at or
    /// past `n_steps` is a graceful no-op).
    ///
    /// This is the step loop with supervision off, whatever the deck
    /// says: no checkpoint, no health allreduce, and a non-finite state
    /// panics naming the field and the step. For detection + rollback +
    /// dt-backoff instead, see [`crate::supervisor::run_supervised`].
    pub fn run(&mut self, comm: &Comm) {
        let unsupervised = &mut RecoveryLog::default();
        crate::supervisor::supervise(self, comm, None, unsupervised, &AtomicBool::new(false), None)
            .unwrap_or_else(|e| panic!("{e}"));
    }
}

/// Initial conditions: gravitationally-stratified atmosphere at uniform
/// temperature, zero flow, and an exactly divergence-free dipole built
/// from the vector potential `A_φ = B₀ sinθ / r²` via the discrete curl
/// (so `∇·B = 0` holds to round-off from step zero).
pub fn init_conditions(st: &mut State, grid: &SphericalGrid, deck: &Deck) {
    let phys = &deck.physics;
    // Hydrostatic stratification balances gravity; without gravity the
    // equilibrium is a uniform atmosphere.
    let scale = if phys.gravity { G0 / phys.t0.max(1e-12) } else { 0.0 };
    st.rho.init_with(grid, |r, _, _| phys.rho0 * (-scale * (1.0 - 1.0 / r)).exp());
    st.temp.init_with(grid, |_, _, _| phys.t0);
    for c in st.v.comps_mut() {
        c.data.fill(0.0);
    }

    // Vector potential on φ-edges (r-face, θ-face, φ-cell positions).
    let mut a_phi = mas_field::Field::zeros("a_phi", Stagger::EdgeP, grid);
    a_phi.init_with(grid, |r, t, _| phys.b0 * t.sin() / (r * r));
    let ct = CtGeom::new(grid);

    // B_r = +circ_r(A)/A_r over ALL r-faces (ghosts included where areas
    // exist) so the initial field is globally consistent.
    let br = &mut st.b.r.data;
    for k in NGHOST..NGHOST + grid.np {
        for j in NGHOST..NGHOST + grid.nt {
            for i in 0..br.s1 {
                let area = ct.area_r(i, j, k);
                if area > 0.0 {
                    let c = ct.len_ep(i, j + 1, k) * a_phi.data.get(i, j + 1, k)
                        - ct.len_ep(i, j, k) * a_phi.data.get(i, j, k);
                    br.set(i, j, k, c / area);
                }
            }
        }
    }
    let bt = &mut st.b.t.data;
    for k in NGHOST..NGHOST + grid.np {
        for j in 0..bt.s2 {
            for i in NGHOST..NGHOST + grid.nr {
                let area = ct.area_t(i, j, k);
                if area > 0.0 {
                    let c = -(ct.len_ep(i + 1, j, k) * a_phi.data.get(i + 1, j, k)
                        - ct.len_ep(i, j, k) * a_phi.data.get(i, j, k));
                    bt.set(i, j, k, c / area);
                }
            }
        }
    }
    st.b.p.data.fill(0.0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use mas_grid::IndexSpace3;

    #[test]
    fn initial_field_is_divergence_free() {
        let deck = Deck::preset_quickstart();
        let grid = SphericalGrid::coronal(deck.grid.nr, deck.grid.nt, deck.grid.np, deck.grid.rmax);
        let mut st = State::new(&grid);
        init_conditions(&mut st, &grid, &deck);
        let ct = CtGeom::new(&grid);
        let blk = IndexSpace3::interior(Stagger::CellCenter, grid.nr, grid.nt, grid.np);
        let mut max_div: f64 = 0.0;
        blk.for_each(|i, j, k| {
            max_div = max_div.max(ct.divb(&st.b.r.data, &st.b.t.data, &st.b.p.data, i, j, k).abs());
        });
        assert!(max_div < 1e-11, "initial |divB| = {max_div}");
    }

    #[test]
    fn initial_dipole_has_expected_polarity() {
        let deck = Deck::preset_quickstart();
        let grid = SphericalGrid::coronal(deck.grid.nr, deck.grid.nt, deck.grid.np, deck.grid.rmax);
        let mut st = State::new(&grid);
        init_conditions(&mut st, &grid, &deck);
        // Br > 0 near the north pole, < 0 near the south pole.
        let g = NGHOST;
        assert!(st.b.r.data.get(g + 1, g + 1, g + 2) > 0.0);
        assert!(st.b.r.data.get(g + 1, g + grid.nt - 2, g + 2) < 0.0);
        // Stratified density decreases outward.
        assert!(st.rho.data.get(g, g + 3, g + 2) > st.rho.data.get(g + grid.nr - 1, g + 3, g + 2));
    }

    #[test]
    fn quickstart_simulation_runs_and_stays_finite() {
        minimpi::World::run(1, |comm| {
            let deck = Deck::preset_quickstart();
            let mut sim = Simulation::builder(&deck)
                .version(CodeVersion::Ad)
                .seed(42)
                .build();
            sim.run(&comm);
            assert_eq!(sim.hist.len(), deck.time.n_steps);
            assert!(sim.state.find_non_finite().is_none());
            assert!(sim.time > 0.0);
            for h in &sim.hist {
                assert!(h.dt > 0.0);
            }
        });
    }

    #[test]
    fn unsupervised_run_fails_naming_the_non_finite_field() {
        // One rank, so the only failure is the non-finite state itself
        // (at two ranks the healthy peer would fail too, naming this one).
        let res = minimpi::World::run_resilient(1, 0, |comm| {
            let deck = Deck::preset_quickstart();
            let mut sim = Simulation::builder(&deck).build();
            sim.state.temp.data.set(NGHOST + 1, NGHOST + 1, NGHOST + 1, f64::NAN);
            sim.run(&comm);
        })
        .results;
        let p = res[0].as_ref().expect_err("a NaN in the state must end the run");
        assert_eq!(p.message, "non-finite values in field 'v_r' at step 1 (version A)");
    }
}
