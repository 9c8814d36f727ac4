//! One full time step: the operator-split advance mirroring MAS's
//! predictor/corrector split-step structure.

use crate::ops::deriv::LapStencil;
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
    lap: &LapStencil,
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
        let carry_len = LapStencil::plane_carry_len(space);
        par.loop3_planes(&sites::VISC_APPLY, space, Traffic::new(8, 1, 24), &reads, &writes, carry_len, |k, carry, first| {
            lap.apply_plane(yd, space, k, carry, first, |j, l| {
                od.row_mut(i0, i1, j, k).copy_from_slice(l);
            });
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

/// Points per stack block of the row-form limit reductions: a block's
/// values are computed first (the loop that vectorizes), then folded in
/// ascending `i`.
pub(crate) const LIMIT_BLOCK: usize = 64;

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
    let (i0, i1) = (space.i0, space.i1);
    let (dr, rc) = (&grid.r.dc[i0..i1], &grid.rc[i0..i1]);
    let mut dt_local = par.reduce_scalar_rows(
        &sites::CFL_MIN,
        space,
        Traffic::new(14, 0, 40),
        &reads,
        ReduceOp::Min,
        f64::INFINITY,
        |mut acc, j, k| {
            let (rho_r, t_r) = (rd.row(i0, i1, j, k), td.row(i0, i1, j, k));
            let vr_r = vr.row(i0, i1 + 1, j, k);
            let (vt_lo, vt_hi) = (vt.row(i0, i1, j, k), vt.row(i0, i1, j + 1, k));
            let (vp_lo, vp_hi) = (vp.row(i0, i1, j, k), vp.row(i0, i1, j, k + 1));
            let br_r = br.row(i0, i1 + 1, j, k);
            let (bt_lo, bt_hi) = (bt.row(i0, i1, j, k), bt.row(i0, i1, j + 1, k));
            let (bp_lo, bp_hi) = (bp.row(i0, i1, j, k), bp.row(i0, i1, j, k + 1));
            let (dth_j, st_j, dph_k) = (grid.t.dc[j], grid.st_c[j], grid.p.dc[k]);
            let mut block = [0.0; LIMIT_BLOCK];
            for n0 in (0..i1 - i0).step_by(LIMIT_BLOCK) {
                let len = LIMIT_BLOCK.min(i1 - i0 - n0);
                for (m, out) in block[..len].iter_mut().enumerate() {
                    let n = n0 + m;
                    let rho = rho_r[n].max(conduct::RHO_FLOOR);
                    let a = 0.5 * (vr_r[n] + vr_r[n + 1]);
                    let b = 0.5 * (vt_lo[n] + vt_hi[n]);
                    let c = 0.5 * (vp_lo[n] + vp_hi[n]);
                    let v2 = a * a + b * b + c * c;
                    let ba = 0.5 * (br_r[n] + br_r[n + 1]);
                    let bb = 0.5 * (bt_lo[n] + bt_hi[n]);
                    let bc_ = 0.5 * (bp_lo[n] + bp_hi[n]);
                    let b2 = ba * ba + bb * bb + bc_ * bc_;
                    // Fast-mode + flow speed.
                    let cf = (gamma * t_r[n].max(0.0) + b2 / rho).sqrt();
                    let speed = v2.sqrt() + cf;
                    // Local cell extent.
                    let mut dx = dr[n];
                    dx = dx.min(rc[n] * dth_j);
                    let rs = rc[n] * st_j;
                    if rs > 1e-10 {
                        dx = dx.min(rs * dph_k);
                    }
                    let mut dt = dx / speed.max(1e-12);
                    if eta > 0.0 {
                        dt = dt.min(0.25 * dx * dx / eta);
                    }
                    if let Some(nu) = visc_explicit {
                        // Plain explicit viscosity is CFL-limited too.
                        dt = dt.min(0.25 * dx * dx / nu);
                    }
                    *out = dt;
                }
                for &dt in &block[..len] {
                    acc = acc.min(dt);
                }
            }
            acc
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::interp::{boost, radloss};
    use crate::physics::conduct::{HEATING_LAMBDA_INV, HEAT_COEF, RAD_COEF, RHO_FLOOR, TEMP_FLOOR};
    use crate::state::State;
    use gpusim::DeviceSpec;
    use mas_grid::{SphericalGrid, NGHOST};
    use minimpi::World;
    use stdpar::CodeVersion;

    /// A coronal grid whose first interior θ row has `sin θ = 0`, so its
    /// cells take the `rs ≤ 1e-10` branch of the limits, and a state
    /// with structure in every field the limits and the source read.
    fn setup(threads: usize) -> (SphericalGrid, State, Par) {
        let mut g = SphericalGrid::coronal(24, 16, 20, 8.0);
        g.st_c[NGHOST] = 0.0;
        let mut par = Par::builder(DeviceSpec::a100_40gb())
            .version(CodeVersion::D2xu)
            .threads(threads)
            .build();
        par.ctx.set_phase(gpusim::Phase::Compute);
        let mut st = State::new(&g);
        st.rho.init_with(&g, |r, t, p| (1.0 + 0.3 * (2.0 * p).sin() * t.sin()) / (r * r));
        st.temp.init_with(&g, |r, t, p| 0.9 + 0.4 * (3.0 * r + t).sin() * p.cos());
        st.v.r.init_with(&g, |r, t, _| 0.2 * r * t.cos());
        st.v.t.init_with(&g, |r, t, p| 0.05 * (r + p).sin() * t.sin());
        st.v.p.init_with(&g, |_, t, p| 0.1 * (t - p).cos());
        st.b.r.init_with(&g, |r, t, _| t.cos() / (r * r));
        st.b.t.init_with(&g, |r, t, p| 0.3 * t.sin() / (r * r * r) + 0.01 * p.sin());
        st.b.p.init_with(&g, |r, _, p| 0.02 * p.cos() / r);
        st.register(&mut par, &g, 1.0, 1.0);
        (g, st, par)
    }

    /// The CFL limit as a point-form reduction, the body kept verbatim
    /// from before the row form.
    #[allow(clippy::too_many_arguments)]
    fn cfl_point_form(par: &mut Par, grid: &SphericalGrid, st: &State, gamma: f64, eta: f64, visc_explicit: Option<f64>) -> f64 {
        let space = IndexSpace3::interior(Stagger::CellCenter, grid.nr, grid.nt, grid.np);
        let (rd, td) = (&st.rho.data, &st.temp.data);
        let (vr, vt, vp) = (&st.v.r.data, &st.v.t.data, &st.v.p.data);
        let (br, bt, bp) = (&st.b.r.data, &st.b.t.data, &st.b.p.data);
        par.reduce_scalar(
            &sites::CFL_MIN,
            space,
            Traffic::new(14, 0, 40),
            &[],
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
        )
    }

    /// The conduction limit as a point-form reduction, the body kept
    /// verbatim from before the row form.
    fn cond_dt_point_form(par: &mut Par, grid: &SphericalGrid, st: &State, kappa0: f64, gamma: f64) -> f64 {
        let blk = IndexSpace3::interior(Stagger::CellCenter, grid.nr, grid.nt, grid.np);
        let (td, rd) = (&st.temp.data, &st.rho.data);
        par.reduce_scalar(
            &sites::COND_DT,
            blk,
            Traffic::new(2, 0, 20),
            &[],
            ReduceOp::Min,
            f64::INFINITY,
            |i, j, k| {
                let t = td.get(i, j, k).max(TEMP_FLOOR);
                let kappa = kappa0 * t * t * t.sqrt();
                let chi = (gamma - 1.0) * kappa / rd.get(i, j, k).max(RHO_FLOOR);
                if chi <= 0.0 {
                    return f64::INFINITY;
                }
                // Smallest local extent.
                let mut dx = grid.r.dc[i];
                dx = dx.min(grid.rc[i] * grid.t.dc[j]);
                let rs = grid.rc[i] * grid.st_c[j];
                if rs > 1e-10 {
                    dx = dx.min(rs * grid.p.dc[k]);
                }
                0.25 * dx * dx / chi
            },
        )
    }

    /// Radiation and heating with `boost` evaluated at every point, the
    /// row body kept verbatim from before the plane form.
    #[allow(clippy::too_many_arguments)]
    fn radiate_point_form(par: &mut Par, grid: &SphericalGrid, st: &mut State, dt: f64, gamma: f64, radiation: bool, heating: bool) {
        let space = IndexSpace3::interior(Stagger::CellCenter, grid.nr, grid.nt, grid.np);
        let td = st.temp.data.par_view();
        let rd = &st.rho.data;
        let rc = &grid.rc;
        let st_c = &grid.st_c;
        let gm1 = gamma - 1.0;
        let (c_rad, c_heat) = (
            if radiation { RAD_COEF } else { 0.0 },
            if heating { HEAT_COEF } else { 0.0 },
        );
        let (i0, i1) = (space.i0, space.i1);
        let rc_s = &rc[i0..i1];
        par.loop3_rows(&sites::RADIATE_HEAT, space, Traffic::new(3, 1, 20), &[], &[], |j, k| {
            let r_row = rd.row(i0, i1, j, k);
            let lat = 0.55 + 0.9 * st_c[j] * st_c[j];
            let out = td.row_mut(i0, i1, j, k);
            for n in 0..out.len() {
                let t = out[n];
                let rho_c = r_row[n].max(RHO_FLOOR);
                let heat = c_heat * lat * boost(rc_s[n], HEATING_LAMBDA_INV);
                let rad = c_rad * rho_c * rho_c * radloss(t);
                // Limit the sink so one step cannot overshoot below zero.
                let dtemp = dt * gm1 * (heat - rad) / rho_c;
                out[n] = (t + dtemp).max(0.5 * t.min(TEMP_FLOOR * 2.0));
            }
        });
    }

    /// The row-form limits and the plane-form heating equal their
    /// point-form references bit for bit: every limit term on and off
    /// (the resistive and explicit-viscous limits, `chi ≤ 0`), a pole
    /// row on the `rs ≤ 1e-10` branch, and radiation and heating in
    /// every combination at one and two threads (several chunks each).
    #[test]
    fn row_form_limits_and_heating_match_point_forms_bitwise() {
        World::run(1, |comm| {
            let gamma = 5.0 / 3.0;
            let (g, st, mut par) = setup(1);
            let (_, _, mut reference) = setup(1);
            for (eta, visc) in [(0.0, None), (0.02, None), (0.0, Some(0.004)), (0.02, Some(0.004)), (1e-4, Some(2e-5))] {
                let got = cfl_dt(&mut par, &comm, &g, &st, gamma, eta, 0.4, 1e9, visc);
                let want = cfl_point_form(&mut reference, &g, &st, gamma, eta, visc) * 0.4;
                assert_eq!(got.to_bits(), want.to_bits(), "cfl_dt eta={eta} visc={visc:?}");
            }
            // The pole row takes the `rs ≤ 1e-10` branch: a φ extent of 0
            // there, or none elsewhere, would move the minimum.
            assert!(g.rc[NGHOST] * g.st_c[NGHOST] <= 1e-10);
            for kappa0 in [0.0, 0.003, 0.05] {
                let got = conduct::conduction_dt_explicit(&mut par, &g, &st.temp, &st.rho, kappa0, gamma);
                let want = cond_dt_point_form(&mut reference, &g, &st, kappa0, gamma);
                assert_eq!(got.to_bits(), want.to_bits(), "conduction_dt_explicit kappa0={kappa0}");
            }
            assert_eq!(
                conduct::conduction_dt_explicit(&mut par, &g, &st.temp, &st.rho, 0.0, gamma),
                f64::INFINITY,
                "chi <= 0 everywhere"
            );
        });
        for threads in [1, 2] {
            for (radiation, heating) in [(true, true), (true, false), (false, true)] {
                let (g, mut st, mut par) = setup(threads);
                let (_, mut st_ref, mut reference) = setup(threads);
                for _ in 0..2 {
                    conduct::radiate_and_heat(&mut par, &g, &mut st.temp, &st.rho, 0.05, 5.0 / 3.0, radiation, heating);
                    radiate_point_form(&mut reference, &g, &mut st_ref, 0.05, 5.0 / 3.0, radiation, heating);
                }
                let bits = |s: &State| s.temp.data.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&st), bits(&st_ref), "radiate_and_heat t={threads} rad={radiation} heat={heating}");
            }
        }
    }
}
