//! One full time step: the operator-split advance mirroring MAS's
//! predictor/corrector split-step structure.

use crate::physics::{advect, conduct, induction, momentum};
use crate::sim::Simulation;
use crate::sites;
use crate::solvers::{pcg, sts};
use mas_config::ViscSolver;
use gpusim::Traffic;
use mas_grid::{IndexSpace3, Stagger};
use minimpi::{Comm, ReduceOp};
use stdpar::Par;

/// One explicit viscous Euler update of a velocity component:
/// `L ← ν-free ∇²v` into the PCG `ap` workspace, then `v += dt ν L`.
fn explicit_viscosity_update(
    par: &mut Par,
    comp: &mut mas_field::Field,
    work: &mut crate::state::PcgWork,
    lap: &crate::ops::deriv::LapStencil,
    space: IndexSpace3,
    dt: f64,
    nu: f64,
) {
    let (i0, i1) = (space.i0, space.i1);
    {
        let reads = [comp.buf()];
        let writes = [work.ap.buf()];
        let od = work.ap.data.par_view();
        let yd = &comp.data;
        par.loop3_rows(&sites::VISC_APPLY, space, Traffic::new(8, 1, 24), &reads, &writes, |j, k| {
            let out = od.row_mut(i0, i1, j, k);
            lap.apply_row(yd, i0, i1, j, k, |n, l| out[n] = l);
        });
    }
    {
        let reads = [work.ap.buf(), comp.buf()];
        let writes = [comp.buf()];
        let vd = comp.data.par_view();
        let ld = &work.ap.data;
        par.loop3_rows(&sites::PCG_APPLY_DX, space, Traffic::new(2, 1, 3), &reads, &writes, |j, k| {
            let l_row = ld.row(i0, i1, j, k);
            let out = vd.row_mut(i0, i1, j, k);
            for n in 0..out.len() {
                out[n] += dt * nu * l_row[n];
            }
        });
    }
}

/// Per-step record.
#[derive(Clone, Copy, Debug)]
pub struct StepInfo {
    /// Time step taken.
    pub dt: f64,
    /// Viscosity PCG iterations (sum over the three components).
    pub pcg_iters: usize,
    /// Conduction-operator applications (RKL2 stages × substeps).
    pub sts_ops: usize,
}

/// Global CFL time step: flow + fast-mode + explicit resistive limits,
/// scaled by the deck's CFL factor and capped by `dt_max`.
#[allow(clippy::too_many_arguments)]
pub fn cfl_dt(par: &mut Par, comm: &Comm, sim_grid: &mas_grid::SphericalGrid, st: &crate::state::State, gamma: f64, eta: f64, cfl: f64, dt_max: f64, visc_explicit: Option<f64>) -> f64 {
    let grid = sim_grid;
    let space = IndexSpace3::interior(Stagger::CellCenter, grid.nr, grid.nt, grid.np);
    let reads = [
        st.rho.buf(), st.temp.buf(), st.v.r.buf(), st.v.t.buf(), st.v.p.buf(),
        st.b.r.buf(), st.b.t.buf(), st.b.p.buf(),
    ];
    let (rd, td) = (&st.rho.data, &st.temp.data);
    let (vr, vt, vp) = (&st.v.r.data, &st.v.t.data, &st.v.p.data);
    let (br, bt, bp) = (&st.b.r.data, &st.b.t.data, &st.b.p.data);
    let mut dt_local = par.reduce_scalar(
        &sites::CFL_MIN,
        space,
        Traffic::new(14, 0, 40),
        &reads,
        ReduceOp::Min,
        f64::INFINITY,
        |i, j, k| {
            let rho = rd.get(i, j, k).max(conduct::RHO_FLOOR);
            let a = 0.5 * (vr.get(i, j, k) + vr.get(i + 1, j, k));
            let b = 0.5 * (vt.get(i, j, k) + vt.get(i, j + 1, k));
            let c = 0.5 * (vp.get(i, j, k) + vp.get(i, j, k + 1));
            let v2 = a * a + b * b + c * c;
            let ba = 0.5 * (br.get(i, j, k) + br.get(i + 1, j, k));
            let bb = 0.5 * (bt.get(i, j, k) + bt.get(i, j + 1, k));
            let bc_ = 0.5 * (bp.get(i, j, k) + bp.get(i, j, k + 1));
            let b2 = ba * ba + bb * bb + bc_ * bc_;
            // Fast-mode + flow speed.
            let cf = (gamma * td.get(i, j, k).max(0.0) + b2 / rho).sqrt();
            let speed = v2.sqrt() + cf;
            // Local cell extent.
            let mut dx = grid.r.dc[i];
            dx = dx.min(grid.rc[i] * grid.t.dc[j]);
            let rs = grid.rc[i] * grid.st_c[j];
            if rs > 1e-10 {
                dx = dx.min(rs * grid.p.dc[k]);
            }
            let mut dt = dx / speed.max(1e-12);
            if eta > 0.0 {
                dt = dt.min(0.25 * dx * dx / eta);
            }
            if let Some(nu) = visc_explicit {
                // Plain explicit viscosity is CFL-limited too.
                dt = dt.min(0.25 * dx * dx / nu);
            }
            dt
        },
    );
    dt_local *= cfl;
    let mut v = [dt_local];
    comm.allreduce(ReduceOp::Min, &mut v, &mut par.ctx);
    v[0].min(dt_max)
}

/// Advance the simulation by one step.
pub fn advance(sim: &mut Simulation, comm: &Comm) -> StepInfo {
    let physics = sim.deck.physics;
    let time_cfg = sim.deck.time;
    let solver = sim.deck.solver;
    let gamma = physics.gamma;

    // 1. Global CFL (plus the viscous limit when viscosity is explicit).
    let visc_explicit = if solver.visc_solver == ViscSolver::Explicit && physics.visc > 0.0 {
        Some(physics.visc)
    } else {
        None
    };
    let mut dt = cfl_dt(
        &mut sim.par, comm, &sim.grid, &sim.state,
        gamma, physics.eta, time_cfg.cfl, time_cfg.dt_max, visc_explicit,
    );
    // Supervisor back-off: after a rollback the retry runs with a halved
    // time step. Guarded so the common dt_scale == 1.0 path leaves the
    // bit pattern strictly untouched.
    if sim.dt_scale < 1.0 {
        dt *= sim.dt_scale;
    }

    // 2. Continuity (upwind flux form), then refresh ρ's φ ghosts — the
    //    EOS and face-averaging kernels below read them.
    {
        let st = &mut sim.state;
        advect::mass_fluxes(&mut sim.par, &sim.grid, &mut st.flux, &st.rho, &st.v);
        advect::continuity(&mut sim.par, &sim.grid, &sim.divg, &mut st.rho, &st.flux, dt);
        let bufs = [st.rho.buf()];
        let mut arrays = [&mut st.rho.data];
        sim.hx_cc.exchange(&mut sim.par, comm, &mut arrays, &bufs);
    }

    // 3. Momentum: p, J, ρ_face, advection tendency, update.
    {
        let st = &mut sim.state;
        momentum::pressure(&mut sim.par, &sim.grid, &mut st.pres, &st.rho, &st.temp);
        momentum::current(&mut sim.par, &sim.grid, &mut st.j, &st.b);
        momentum::rho_to_faces(&mut sim.par, &sim.grid, &mut st.rho_face, &st.rho);
        momentum::advect_velocity(&mut sim.par, &sim.grid, &mut st.force, &st.v);
        momentum::momentum_update(
            &mut sim.par, &sim.grid, &mut st.v, &st.force, &st.pres, &st.j, &st.b,
            &st.rho_face, dt, physics.gravity,
        );
    }

    // 4. Viscous advance: PCG (implicit), RKL2 super-time-stepping, or
    //    plain explicit — the parabolic-operator trade of the paper's
    //    ref.\[25\]. `pcg_iters` records the solver work either way.
    let mut pcg_iters = 0;
    if physics.visc > 0.0 {
        let nu = physics.visc;
        let (nr, nt, np) = (sim.grid.nr, sim.grid.nt, sim.grid.np);
        let space_r = IndexSpace3::interior_trimmed(Stagger::FaceR, nr, nt, np, (1, 0, 0));
        let space_t = IndexSpace3::interior_trimmed(Stagger::FaceT, nr, nt, np, (0, 1, 0));
        let space_p = IndexSpace3::interior(Stagger::FaceP, nr, nt, np);
        match solver.visc_solver {
            ViscSolver::Pcg => {
                let nu_dt = nu * dt;
                let r = pcg::solve_viscosity(
                    &mut sim.par, comm, &sim.lap_r, space_r, &mut sim.state.v.r,
                    &mut sim.state.pcg_r, &mut sim.hx_vr, nu_dt,
                    solver.pcg_tol, solver.pcg_max_iter,
                );
                pcg_iters += r.iters;
                let r = pcg::solve_viscosity(
                    &mut sim.par, comm, &sim.lap_t, space_t, &mut sim.state.v.t,
                    &mut sim.state.pcg_t, &mut sim.hx_vt, nu_dt,
                    solver.pcg_tol, solver.pcg_max_iter,
                );
                pcg_iters += r.iters;
                let r = pcg::solve_viscosity(
                    &mut sim.par, comm, &sim.lap_p, space_p, &mut sim.state.v.p,
                    &mut sim.state.pcg_p, &mut sim.hx_vp, nu_dt,
                    solver.pcg_tol, solver.pcg_max_iter,
                );
                pcg_iters += r.iters;
            }
            ViscSolver::Sts => {
                let dt_expl = sim.visc_dt_expl;
                pcg_iters += sts::advance_viscosity_sts(
                    &mut sim.par, comm, &sim.grid, &mut sim.state.v.r, &sim.lap_r,
                    &mut sim.state.pcg_r, &mut sim.hx_vr, space_r, nu, dt, dt_expl,
                    solver.sts_max_stages,
                );
                pcg_iters += sts::advance_viscosity_sts(
                    &mut sim.par, comm, &sim.grid, &mut sim.state.v.t, &sim.lap_t,
                    &mut sim.state.pcg_t, &mut sim.hx_vt, space_t, nu, dt, dt_expl,
                    solver.sts_max_stages,
                );
                pcg_iters += sts::advance_viscosity_sts(
                    &mut sim.par, comm, &sim.grid, &mut sim.state.v.p, &sim.lap_p,
                    &mut sim.state.pcg_p, &mut sim.hx_vp, space_p, nu, dt, dt_expl,
                    solver.sts_max_stages,
                );
            }
            ViscSolver::Explicit => {
                // dt is already viscous-CFL limited; one operator kernel
                // plus one update kernel per component.
                let st = &mut sim.state;
                for (comp, work, lap, hx, space) in [
                    (&mut st.v.r, &mut st.pcg_r, &sim.lap_r, &mut sim.hx_vr, space_r),
                    (&mut st.v.t, &mut st.pcg_t, &sim.lap_t, &mut sim.hx_vt, space_t),
                    (&mut st.v.p, &mut st.pcg_p, &sim.lap_p, &mut sim.hx_vp, space_p),
                ] {
                    {
                        let bufs = [comp.buf()];
                        let mut arrays = [&mut comp.data];
                        hx.exchange(&mut sim.par, comm, &mut arrays, &bufs);
                    }
                    explicit_viscosity_update(&mut sim.par, comp, work, lap, space, dt, nu);
                    pcg_iters += 1;
                }
            }
        }
    }

    // 4b. The EMF and energy kernels read v's φ ghosts; refresh them after
    //     the momentum/viscosity updates.
    {
        let st = &mut sim.state;
        let bufs = [st.v.r.buf()];
        let mut arrays = [&mut st.v.r.data];
        sim.hx_vr.exchange(&mut sim.par, comm, &mut arrays, &bufs);
        let bufs = [st.v.t.buf()];
        let mut arrays = [&mut st.v.t.data];
        sim.hx_vt.exchange(&mut sim.par, comm, &mut arrays, &bufs);
        let bufs = [st.v.p.buf()];
        let mut arrays = [&mut st.v.p.data];
        sim.hx_vp.exchange(&mut sim.par, comm, &mut arrays, &bufs);
    }

    // 5. Energy: advection + compression, conduction (STS), radiation,
    //    heating, floors. Conduction's face-κ kernel reads T's φ ghosts,
    //    so refresh them after the advection update.
    {
        let st = &mut sim.state;
        advect::advect_temperature(&mut sim.par, &sim.grid, &sim.divg, &mut st.temp, &st.v, dt, gamma);
        let bufs = [st.temp.buf()];
        let mut arrays = [&mut st.temp.data];
        sim.hx_cc.exchange(&mut sim.par, comm, &mut arrays, &bufs);
    }
    let mut sts_ops = 0;
    if physics.kappa0 > 0.0 {
        let st = &mut sim.state;
        conduct::kappa_faces(&mut sim.par, &sim.grid, &mut st.flux, &st.temp, physics.kappa0);
        let dt_expl = conduct::conduction_dt_explicit(
            &mut sim.par, &sim.grid, &st.temp, &st.rho, physics.kappa0, gamma,
        );
        // The explicit limit must be globally consistent.
        let mut v = [dt_expl];
        comm.allreduce(ReduceOp::Min, &mut v, &mut sim.par.ctx);
        let aligned = if solver.aligned_conduction {
            Some((&st.b, &mut st.force))
        } else {
            None
        };
        sts_ops = sts::advance_conduction(
            &mut sim.par, comm, &sim.grid, &mut st.temp, &st.rho, &st.flux,
            &mut st.sts, &mut sim.hx_cc, dt, v[0], gamma, solver.sts_max_stages,
            aligned,
        );
    }
    {
        let st = &mut sim.state;
        conduct::radiate_and_heat(
            &mut sim.par, &sim.grid, &mut st.temp, &st.rho, dt, gamma,
            physics.radiation, physics.heating,
        );
        conduct::floors(&mut sim.par, &sim.grid, &mut st.temp, &mut st.rho);
    }

    // 6. Induction: E on edges, constrained-transport B update.
    {
        let st = &mut sim.state;
        induction::emf(&mut sim.par, &sim.grid, &mut st.emf, &st.v, &st.b, &st.j, physics.eta);
        induction::ct_update(&mut sim.par, &sim.grid, &sim.ctg, &mut st.b, &st.emf, dt);
    }

    // 7. Boundaries, polar regularization, halo exchange of the state.
    sim.apply_boundaries(comm);

    sim.time += dt;
    sim.step += 1;
    StepInfo { dt, pcg_iters, sts_ops }
}
