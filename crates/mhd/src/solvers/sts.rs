//! RKL2 super-time-stepping for stiff parabolic operators.
//!
//! The Runge–Kutta–Legendre scheme of Meyer, Balsara & Aslam (2012/2014),
//! as used by MAS/POT3D (the paper's ref.\[25\], which studies exactly the
//! trade implemented here: *explicit super time-stepping versus implicit
//! schemes with Krylov solvers* for parabolic operators): an `s`-stage
//! recurrence stable up to `Δt ≤ Δt_expl (s² + s − 2)/4`, so a handful of
//! stages replaces hundreds of explicit sub-steps while staying fully
//! explicit (each stage is one operator kernel plus one halo exchange).
//!
//! [`rkl2_advance`] is the generic driver; [`advance_conduction`] applies
//! it to the (isotropic or field-aligned) thermal-conduction operator and
//! [`advance_viscosity_sts`] to the componentwise viscous Laplacian — the
//! STS alternative to the PCG solve of [`crate::solvers::pcg`].

use crate::bc;
use crate::halo::HaloExchanger;
use crate::ops::deriv::LapStencil;
use crate::physics::conduct;
use crate::sites;
use crate::state::{PcgWork, StsWork};
use gpusim::Traffic;
use mas_field::{Field, VecField};
use mas_grid::{IndexSpace3, SphericalGrid, Stagger};
use minimpi::Comm;
use stdpar::Par;

/// Legendre weight `b_j`.
fn b_coef(j: usize) -> f64 {
    if j <= 2 {
        1.0 / 3.0
    } else {
        let jf = j as f64;
        (jf * jf + jf - 2.0) / (2.0 * jf * (jf + 1.0))
    }
}

/// Smallest odd stage count `s ≥ 3` such that RKL2 is stable for `dt`
/// given the explicit limit `dt_expl`, capped at `max_stages`
/// (sub-cycling handles the overflow). Returns `(s, substeps)`.
pub fn rkl2_stage_count(dt: f64, dt_expl: f64, max_stages: usize) -> (usize, usize) {
    assert!(dt > 0.0 && dt_expl > 0.0);
    let max_stages = max_stages.max(3);
    let stages_for = |dtt: f64| -> usize {
        let ratio = dtt / dt_expl;
        let s = ((-1.0 + (9.0 + 16.0 * ratio).sqrt()) / 2.0).ceil() as usize;
        let s = s.max(3);
        // Odd stage counts are the standard choice for RKL2.
        if s.is_multiple_of(2) {
            s + 1
        } else {
            s
        }
    };
    let mut substeps = 1;
    loop {
        let s = stages_for(dt / substeps as f64);
        if s <= max_stages {
            return (s, substeps);
        }
        substeps += 1;
    }
}

/// Generic RKL2 advance of `target` by `dt` under the operator evaluated
/// by `apply_op(par, y, out)` (which must refresh `y`'s ghosts itself).
/// The five work fields must share `target`'s shape. Returns the number
/// of operator applications.
#[allow(clippy::too_many_arguments)]
pub fn rkl2_advance<F>(
    par: &mut Par,
    space: IndexSpace3,
    target: &mut Field,
    y_prev: &mut Field,
    y_prev2: &mut Field,
    y0: &mut Field,
    ly0: &mut Field,
    ly: &mut Field,
    dt: f64,
    dt_expl: f64,
    max_stages: usize,
    mut apply_op: F,
) -> usize
where
    F: FnMut(&mut Par, &mut Field, &mut Field),
{
    let (s, substeps) = rkl2_stage_count(dt, dt_expl, max_stages);
    let dt_sub = dt / substeps as f64;
    let mut op_count = 0;
    let (i0, i1) = (space.i0, space.i1);

    for _ in 0..substeps {
        let w1 = 4.0 / (s as f64 * s as f64 + s as f64 - 2.0);
        let mu1t = b_coef(1) * w1;

        // Y0 ← target;  L0 ← L(Y0);  Y1 ← Y0 + μ̃₁ dt L0.
        y0.data.copy_from(&target.data);
        apply_op(par, y0, ly0);
        op_count += 1;
        {
            let reads = [y0.buf(), ly0.buf()];
            let writes = [y_prev.buf()];
            let yp = y_prev.data.par_view();
            let (y0d, l0) = (&y0.data, &ly0.data);
            par.loop3_rows(&sites::STS_STAGE, space, Traffic::new(2, 1, 3), &reads, &writes, |j, k| {
                let y0_row = y0d.row(i0, i1, j, k);
                let l0_row = l0.row(i0, i1, j, k);
                let out = yp.row_mut(i0, i1, j, k);
                for n in 0..out.len() {
                    out[n] = y0_row[n] + mu1t * dt_sub * l0_row[n];
                }
            });
        }
        y_prev2.data.copy_from(&y0.data);

        for j_stage in 2..=s {
            let bj = b_coef(j_stage);
            let bj1 = b_coef(j_stage - 1);
            let bj2 = b_coef(j_stage - 2);
            let jf = j_stage as f64;
            let mu = (2.0 * jf - 1.0) / jf * bj / bj1;
            let nu = -(jf - 1.0) / jf * bj / bj2;
            let mut_ = mu * w1;
            let a_prev = 1.0 - bj1;
            let gt = -a_prev * mut_;

            apply_op(par, y_prev, ly);
            op_count += 1;
            // Y_j stored into y_prev2 (which holds Y_{j-2}, being retired).
            {
                let reads = [y_prev.buf(), y_prev2.buf(), y0.buf(), ly.buf(), ly0.buf()];
                let writes = [y_prev2.buf()];
                let yp2 = y_prev2.data.par_view();
                let (yp, y0d, lyd, ly0d) = (
                    &y_prev.data,
                    &y0.data,
                    &ly.data,
                    &ly0.data,
                );
                par.loop3_rows(&sites::STS_STAGE, space, Traffic::new(5, 1, 10), &reads, &writes, |j, k| {
                    let yp_row = yp.row(i0, i1, j, k);
                    let y0_row = y0d.row(i0, i1, j, k);
                    let ly_row = lyd.row(i0, i1, j, k);
                    let ly0_row = ly0d.row(i0, i1, j, k);
                    let out = yp2.row_mut(i0, i1, j, k);
                    for n in 0..out.len() {
                        out[n] = mu * yp_row[n]
                            + nu * out[n]
                            + (1.0 - mu - nu) * y0_row[n]
                            + mut_ * dt_sub * ly_row[n]
                            + gt * dt_sub * ly0_row[n];
                    }
                });
            }
            // Rotate: Y_{j-1} ↔ Y_j for the next stage.
            std::mem::swap(&mut y_prev.data, &mut y_prev2.data);
            std::mem::swap(&mut y_prev.buf, &mut y_prev2.buf);
        }
        target.data.copy_from(&y_prev.data);
    }
    op_count
}

/// Advance thermal conduction by `dt` with RKL2. `kface` must hold κ(Tⁿ)
/// on faces. When `aligned` is `Some((b, flux_work))` the field-aligned
/// operator `∇·(κ∥ b̂ b̂·∇T)` is used (`flux_work` provides face storage
/// for the anisotropic fluxes); otherwise the isotropic operator.
/// Returns the number of operator applications.
#[allow(clippy::too_many_arguments)]
pub fn advance_conduction(
    par: &mut Par,
    comm: &Comm,
    grid: &SphericalGrid,
    temp: &mut Field,
    rho: &Field,
    kface: &VecField,
    sts: &mut StsWork,
    hx_cc: &mut HaloExchanger,
    dt: f64,
    dt_expl: f64,
    gamma: f64,
    max_stages: usize,
    mut aligned: Option<(&VecField, &mut VecField)>,
) -> usize {
    let space = IndexSpace3::interior(Stagger::CellCenter, grid.nr, grid.nt, grid.np);

    // Code 6 (D2XAd): stage temporaries come from zero-initializing
    // wrapper routines. The host needs no fill: y0 and y_prev2 are
    // whole-array copies, y_prev, ly0 and ly are written over the whole
    // interior, and the operator refreshes y's ghosts itself.
    for f in sts.fields_mut() {
        par.wrapper_alloc("sts_work_init", f.buf(), f.data.len());
    }

    let StsWork {
        y_prev,
        y_prev2,
        y0,
        ly0,
        ly,
    } = sts;

    rkl2_advance(
        par,
        space,
        temp,
        y_prev,
        y_prev2,
        y0,
        ly0,
        ly,
        dt,
        dt_expl,
        max_stages,
        |par, y, out| {
            bc::neumann_ghosts_rt(par, grid, y);
            {
                let bufs = [y.buf()];
                let mut arrays = [&mut y.data];
                hx_cc.exchange(par, comm, &mut arrays, &bufs);
            }
            match &mut aligned {
                Some((b, flux_work)) => {
                    conduct::aligned_flux(par, grid, flux_work, y, kface, b);
                    conduct::conduction_div(par, grid, out, flux_work, rho, gamma);
                }
                None => conduct::conduction_op(par, grid, out, y, kface, rho, gamma),
            }
        },
    )
}

/// Advance one velocity component's viscous diffusion `∂v/∂t = ν ∇²v`
/// by `dt` with RKL2 — the explicit-STS alternative to the PCG solve
/// (the comparison of the paper's ref.\[25\]). Uses the component's PCG
/// workspace as stage storage. Returns operator applications.
#[allow(clippy::too_many_arguments)]
pub fn advance_viscosity_sts(
    par: &mut Par,
    comm: &Comm,
    grid: &SphericalGrid,
    v_comp: &mut Field,
    lap: &LapStencil,
    work: &mut PcgWork,
    hx: &mut HaloExchanger,
    space: IndexSpace3,
    nu: f64,
    dt: f64,
    dt_expl: f64,
    max_stages: usize,
) -> usize {
    let PcgWork { r, z, p, ap, rhs } = work;
    rkl2_advance(
        par,
        space,
        v_comp,
        r,
        z,
        p,
        ap,
        rhs,
        dt,
        dt_expl,
        max_stages,
        |par, y, out| {
            bc::neumann_ghosts_rt(par, grid, y);
            {
                let bufs = [y.buf()];
                let mut arrays = [&mut y.data];
                hx.exchange(par, comm, &mut arrays, &bufs);
            }
            let reads = [y.buf()];
            let writes = [out.buf()];
            let od = out.data.par_view();
            let yd = &y.data;
            let (i0, i1) = (space.i0, space.i1);
            let carry_len = LapStencil::plane_carry_len(space);
            par.loop3_planes(&sites::VISC_APPLY, space, Traffic::new(8, 1, 24), &reads, &writes, carry_len, |k, carry, first| {
                lap.apply_plane(yd, space, k, carry, first, |j, l| {
                    let out = od.row_mut(i0, i1, j, k);
                    for n in 0..out.len() {
                        out[n] = nu * l[n];
                    }
                });
            });
        },
    )
}

/// Geometric explicit stability limit of the viscous operator,
/// `Δt ≤ 0.25 min(Δx)²/ν` (field-independent; computed once at setup).
pub fn viscosity_dt_explicit(grid: &SphericalGrid, nu: f64) -> f64 {
    assert!(nu > 0.0);
    let dx = grid.min_extent();
    0.25 * dx * dx / nu
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::DeviceSpec;
    use mas_grid::{Mesh1d, NGHOST};
    use minimpi::World;
    use stdpar::CodeVersion;

    #[test]
    fn stage_count_grows_with_stiffness() {
        let (s1, m1) = rkl2_stage_count(1.0, 1.0, 99);
        let (s2, m2) = rkl2_stage_count(10.0, 1.0, 99);
        let (s3, m3) = rkl2_stage_count(100.0, 1.0, 99);
        assert!(s1 <= s2 && s2 <= s3);
        assert_eq!((m1, m2, m3), (1, 1, 1));
        assert_eq!(s1 % 2, 1);
        assert_eq!(s3 % 2, 1);
        // Stability: s²+s-2 >= 4·ratio.
        let check = |s: usize, ratio: f64| {
            let sf = s as f64;
            assert!(sf * sf + sf - 2.0 >= 4.0 * ratio, "s={s} ratio={ratio}");
        };
        check(s2, 10.0);
        check(s3, 100.0);
    }

    #[test]
    fn stage_cap_triggers_subcycling() {
        let (s, m) = rkl2_stage_count(1000.0, 1.0, 15);
        assert!(s <= 15);
        assert!(m > 1, "must sub-cycle under a stage cap");
    }

    #[test]
    fn viscous_dt_scales_inversely_with_nu() {
        let g = SphericalGrid::coronal(8, 8, 8, 5.0);
        let a = viscosity_dt_explicit(&g, 0.01);
        let b = viscosity_dt_explicit(&g, 0.02);
        assert!((a / b - 2.0).abs() < 1e-12);
    }

    fn band_grid() -> SphericalGrid {
        let r = Mesh1d::uniform(12, 1.0, 2.0, NGHOST, false);
        let t = Mesh1d::uniform(10, 0.9, std::f64::consts::PI - 0.9, NGHOST, false);
        let p = Mesh1d::uniform(8, 0.0, std::f64::consts::TAU, NGHOST, true);
        SphericalGrid::new(r, t, p)
    }

    fn reg(par: &mut Par, f: &mut Field) {
        let id = par.ctx.mem.register(f.data.bytes(), f.name);
        f.buf = Some(id);
        par.ctx.enter_data(id);
    }

    #[test]
    fn rkl2_matches_subcycled_explicit_euler() {
        // Diffuse a hot spot: RKL2 with one big step vs many explicit
        // Euler steps; results must agree to a few percent.
        World::run(1, |comm| {
            let g = band_grid();
            let gamma = 5.0 / 3.0;
            let kappa0 = 0.02;

            let mk_temp = |g: &SphericalGrid| {
                let mut temp = Field::constant("temp", Stagger::CellCenter, g, 1.0);
                temp.data.set(6, 5, 4, 1.5);
                temp.data.set(7, 5, 4, 1.4);
                temp
            };
            let setup = |g: &SphericalGrid| -> (Par, Field, Field, VecField) {
                let mut par = Par::builder(DeviceSpec::a100_40gb()).version(CodeVersion::Ad).build();
                par.ctx.set_phase(gpusim::Phase::Compute);
                let mut temp = mk_temp(g);
                let mut rho = Field::constant("rho", Stagger::CellCenter, g, 1.0);
                reg(&mut par, &mut temp);
                reg(&mut par, &mut rho);
                let mut kface = VecField::zeros_faces("kf", g);
                for c in kface.comps_mut() {
                    reg(&mut par, c);
                }
                (par, temp, rho, kface)
            };

            let dt = 0.4;

            // RKL2 path.
            let (mut par, mut temp, rho, mut kface) = setup(&g);
            let mut sts = StsWork::new(&g);
            for f in sts.fields_mut() {
                reg(&mut par, f);
            }
            let mut hx = HaloExchanger::new(&mut par, &[&temp.data], "sts_halo");
            conduct::kappa_faces(&mut par, &g, &mut kface, &temp, kappa0);
            let dt_expl =
                conduct::conduction_dt_explicit(&mut par, &g, &temp, &rho, kappa0, gamma);
            let stages = advance_conduction(
                &mut par, &comm, &g, &mut temp, &rho, &kface, &mut sts, &mut hx, dt, dt_expl,
                gamma, 64, None,
            );
            assert!(stages >= 3);
            let t_rkl = temp;

            // Sub-cycled explicit Euler path.
            let (mut par, mut temp, rho, mut kface) = setup(&g);
            let mut out = Field::zeros("out", Stagger::CellCenter, &g);
            reg(&mut par, &mut out);
            let mut hx = HaloExchanger::new(&mut par, &[&temp.data], "euler_halo");
            conduct::kappa_faces(&mut par, &g, &mut kface, &temp, kappa0);
            let dt_expl =
                conduct::conduction_dt_explicit(&mut par, &g, &temp, &rho, kappa0, gamma);
            let n = (dt / dt_expl).ceil() as usize;
            let dt_s = dt / n as f64;
            for _ in 0..n {
                bc::neumann_ghosts_rt(&mut par, &g, &mut temp);
                let bufs = [temp.buf()];
                let mut arrays = [&mut temp.data];
                hx.exchange(&mut par, &comm, &mut arrays, &bufs);
                conduct::conduction_op(&mut par, &g, &mut out, &temp, &kface, &rho, gamma);
                temp.data.axpy(dt_s, &out.data);
            }
            let t_eul = temp;

            let blk = t_rkl.interior();
            let diff = mas_field::rel_l2_diff(&t_rkl.data, &t_eul.data, &blk);
            assert!(diff < 0.02, "RKL2 vs explicit Euler rel L2 = {diff}");
        });
    }

    #[test]
    fn viscosity_sts_matches_pcg_solution() {
        // The two viscous advances solve different discretizations of the
        // same PDE over one step (explicit STS vs backward Euler); for a
        // mildly-stiff step they must agree closely.
        World::run(1, |comm| {
            let g = band_grid();
            let nu = 2e-3;
            let dt = 0.05;
            let space = IndexSpace3::interior_trimmed(Stagger::FaceR, g.nr, g.nt, g.np, (1, 0, 0));
            let lap = LapStencil::new(&g, Stagger::FaceR);

            let init = |par: &mut Par| -> (Field, PcgWork, HaloExchanger) {
                let mut x = Field::zeros("vr", Stagger::FaceR, &g);
                x.init_with(&g, |r, t, p| (2.0 * r + t).sin() * p.cos());
                let mut work = PcgWork::new(Stagger::FaceR, &g, "vsts");
                reg(par, &mut x);
                for f in work.fields_mut() {
                    reg(par, f);
                }
                let hx = HaloExchanger::new(par, &[&x.data], "v_halo");
                (x, work, hx)
            };

            let mut par = Par::builder(DeviceSpec::a100_40gb()).version(CodeVersion::Ad).build();
            par.ctx.set_phase(gpusim::Phase::Compute);
            let (mut x_sts, mut work, mut hx) = init(&mut par);
            let dt_expl = viscosity_dt_explicit(&g, nu);
            advance_viscosity_sts(
                &mut par, &comm, &g, &mut x_sts, &lap, &mut work, &mut hx, space, nu, dt,
                dt_expl, 64,
            );

            let mut par2 = Par::builder(DeviceSpec::a100_40gb()).version(CodeVersion::Ad).build();
            par2.ctx.set_phase(gpusim::Phase::Compute);
            let (mut x_pcg, mut work2, mut hx2) = init(&mut par2);
            crate::solvers::pcg::solve_viscosity(
                &mut par2, &comm, &lap, space, &mut x_pcg, &mut work2, &mut hx2, nu * dt,
                1e-12, 500,
            );

            let diff = mas_field::rel_l2_diff(&x_sts.data, &x_pcg.data, &space);
            assert!(diff < 0.01, "STS vs PCG viscous advance rel L2 = {diff}");
        });
    }
}
