//! Thermal conduction operator, radiative losses, coronal heating, floors.
//!
//! Conduction uses a Spitzer-like nonlinear conductivity
//! `κ(T) = κ₀ T^{5/2}` frozen at the step's initial temperature (standard
//! linearization), advanced by the RKL2 super-time-stepper in
//! `solvers::sts`. The production MAS conducts along the magnetic field
//! (`κ∥ b̂b̂·∇T`); the isotropic simplification is documented in DESIGN.md
//! and does not change the performance structure (same stencil shape,
//! same halo traffic).

use crate::ops::interp::{boost, radloss, s2c};
use crate::sites;
use gpusim::Traffic;
use mas_field::{Array3, Field, VecField};
use mas_grid::{IndexSpace3, SphericalGrid, Stagger};
use minimpi::ReduceOp;
use stdpar::Par;

/// Decay length of the exponential coronal heating profile (1/λ in R_s).
pub const HEATING_LAMBDA_INV: f64 = 1.4;
/// Radiative-loss coefficient scale (normalized units).
pub const RAD_COEF: f64 = 1.0;
/// Heating amplitude (normalized units).
pub const HEAT_COEF: f64 = 0.35;
/// Temperature floor (normalized; ~chromospheric).
pub const TEMP_FLOOR: f64 = 0.02;
/// Density floor.
pub const RHO_FLOOR: f64 = 1.0e-8;

/// Face conductivities `κ_face = κ₀ T_face^{5/2}` into `kface` (the
/// `interp` routine sites). One loop per face family, fusable region.
pub fn kappa_faces(par: &mut Par, grid: &SphericalGrid, kface: &mut VecField, temp: &Field, kappa0: f64) {
    let (nr, nt, np) = (grid.nr, grid.nt, grid.np);
    par.region(|par| {
        let space = IndexSpace3::interior_trimmed(Stagger::FaceR, nr, nt, np, (1, 0, 0));
        let reads = [temp.buf()];
        let writes = [kface.r.buf()];
        let o = kface.r.data.par_view();
        let td = &temp.data;
        let (i0, i1) = (space.i0, space.i1);
        par.loop3_rows(&sites::KAPPA_FACE, space, Traffic::new(2, 1, 6), &reads, &writes, |j, k| {
            let t_lo = td.row(i0 - 1, i1 - 1, j, k);
            let t_hi = td.row(i0, i1, j, k);
            let out = o.row_mut(i0, i1, j, k);
            for n in 0..out.len() {
                let tf = s2c(t_lo[n], t_hi[n]).max(0.0);
                out[n] = kappa0 * tf * tf * tf.sqrt();
            }
        });
        let space = IndexSpace3::interior_trimmed(Stagger::FaceT, nr, nt, np, (0, 1, 0));
        let reads = [temp.buf()];
        let writes = [kface.t.buf()];
        let o = kface.t.data.par_view();
        let td = &temp.data;
        let (i0, i1) = (space.i0, space.i1);
        par.loop3_rows(&sites::KAPPA_FACE, space, Traffic::new(2, 1, 6), &reads, &writes, |j, k| {
            let t_lo = td.row(i0, i1, j - 1, k);
            let t_hi = td.row(i0, i1, j, k);
            let out = o.row_mut(i0, i1, j, k);
            for n in 0..out.len() {
                let tf = s2c(t_lo[n], t_hi[n]).max(0.0);
                out[n] = kappa0 * tf * tf * tf.sqrt();
            }
        });
        let space = IndexSpace3::interior(Stagger::FaceP, nr, nt, np);
        let reads = [temp.buf()];
        let writes = [kface.p.buf()];
        let o = kface.p.data.par_view();
        let td = &temp.data;
        let (i0, i1) = (space.i0, space.i1);
        par.loop3_rows(&sites::KAPPA_FACE, space, Traffic::new(2, 1, 6), &reads, &writes, |j, k| {
            let t_lo = td.row(i0, i1, j, k - 1);
            let t_hi = td.row(i0, i1, j, k);
            let out = o.row_mut(i0, i1, j, k);
            for n in 0..out.len() {
                let tf = s2c(t_lo[n], t_hi[n]).max(0.0);
                out[n] = kappa0 * tf * tf * tf.sqrt();
            }
        });
    });
}

/// Apply the conduction operator
/// `L(y) = (γ−1)/ρ · ∇·(κ_face ∇y)` into `out` — the RKL2 stage operator
/// (flux form, exact metric).
#[allow(clippy::too_many_arguments)]
pub fn conduction_op(
    par: &mut Par,
    grid: &SphericalGrid,
    out: &mut Field,
    y: &Field,
    kface: &VecField,
    rho: &Field,
    gamma: f64,
) {
    let space = IndexSpace3::interior(Stagger::CellCenter, grid.nr, grid.nt, grid.np);
    let reads = [y.buf(), kface.r.buf(), kface.t.buf(), kface.p.buf(), rho.buf()];
    let writes = [out.buf()];
    let od = out.data.par_view();
    let (yd, kr, kt, kp, rd) = (
        &y.data, &kface.r.data, &kface.t.data, &kface.p.data, &rho.data,
    );
    let (rf2, rc_inv, st_f, st_c_inv) = (&grid.rf2, &grid.rc_inv, &grid.st_f, &grid.st_c_inv);
    let (dfr_inv, dft_inv, dfp_inv) = (&grid.r.df_inv, &grid.t.df_inv, &grid.p.df_inv);
    // Exact flux-divergence coefficients (see DivGeom), precomputed on
    // the grid.
    let (dr3_inv, drr2, dcos_inv) = (&grid.dr3_inv, &grid.drr2, &grid.dcos_inv);
    let (dtc, dpc_inv) = (&grid.t.dc, &grid.p.dc_inv);
    let gm1 = gamma - 1.0;
    let (i0, i1) = (space.i0, space.i1);
    let rf2_s = &rf2[i0..i1 + 1];
    let dfr_inv_s = &dfr_inv[i0..i1 + 1];
    let rc_inv_s = &rc_inv[i0..i1];
    let dr3_inv_s = &dr3_inv[i0..i1];
    let drr2_s = &drr2[i0..i1];
    par.loop3_rows(&sites::CONDUCT_OP, space, Traffic::new(12, 1, 34), &reads, &writes, |j, k| {
        let y_c = yd.row(i0, i1, j, k);
        let y_im = yd.row(i0 - 1, i1 - 1, j, k);
        let y_ip = yd.row(i0 + 1, i1 + 1, j, k);
        let y_jm = yd.row(i0, i1, j - 1, k);
        let y_jp = yd.row(i0, i1, j + 1, k);
        let y_km = yd.row(i0, i1, j, k - 1);
        let y_kp = yd.row(i0, i1, j, k + 1);
        let kr_c = kr.row(i0, i1, j, k);
        let kr_p = kr.row(i0 + 1, i1 + 1, j, k);
        let kt_c = kt.row(i0, i1, j, k);
        let kt_jp = kt.row(i0, i1, j + 1, k);
        let kp_c = kp.row(i0, i1, j, k);
        let kp_kp = kp.row(i0, i1, j, k + 1);
        let r_row = rd.row(i0, i1, j, k);
        let (st_lo, st_hi) = (st_f[j], st_f[j + 1]);
        let st_c_inv_j = st_c_inv[j];
        let (dft_lo, dft_hi) = (dft_inv[j], dft_inv[j + 1]);
        let (dfp_lo, dfp_hi) = (dfp_inv[k], dfp_inv[k + 1]);
        let dcos_inv_j = dcos_inv[j];
        let dtc_j = dtc[j];
        let dpc_inv_k = dpc_inv[k];
        let out = od.row_mut(i0, i1, j, k);
        for n in 0..out.len() {
            // Conductive fluxes at the six faces (κ ∂y/∂n).
            let fr_hi = kr_p[n] * (y_ip[n] - y_c[n]) * dfr_inv_s[n + 1];
            let fr_lo = kr_c[n] * (y_c[n] - y_im[n]) * dfr_inv_s[n];
            let ft_hi = kt_jp[n] * rc_inv_s[n] * (y_jp[n] - y_c[n]) * dft_hi;
            let ft_lo = kt_c[n] * rc_inv_s[n] * (y_c[n] - y_jm[n]) * dft_lo;
            let fp_hi = kp_kp[n] * rc_inv_s[n] * st_c_inv_j * (y_kp[n] - y_c[n]) * dfp_hi;
            let fp_lo = kp_c[n] * rc_inv_s[n] * st_c_inv_j * (y_c[n] - y_km[n]) * dfp_lo;
            let div = (rf2_s[n + 1] * fr_hi - rf2_s[n] * fr_lo) * dr3_inv_s[n]
                + (st_hi * ft_hi - st_lo * ft_lo) * drr2_s[n] * dr3_inv_s[n] * dcos_inv_j
                + (fp_hi - fp_lo) * drr2_s[n] * dtc_j * dr3_inv_s[n] * dcos_inv_j * dpc_inv_k;
            out[n] = gm1 * div / r_row[n].max(RHO_FLOOR);
        }
    });
}

/// Residual isotropic conductivity fraction in the field-aligned
/// operator (keeps the operator parabolic across magnetic nulls, where
/// `b̂` is undefined).
pub const ALIGNED_ISO_FRACTION: f64 = 0.01;

/// Field-aligned conductive fluxes `F = κ∥ b̂ (b̂·∇T) + ε κ∥ ∇T` on the
/// three face families, written into `flux_out` — the production-MAS
/// anisotropic operator (`CallsRoutine` sites: `b` and the tangential
/// gradients are averaged to the faces with `sv2cv`/`interp`).
pub fn aligned_flux(
    par: &mut Par,
    grid: &SphericalGrid,
    flux_out: &mut VecField,
    temp: &Field,
    kface: &VecField,
    b: &VecField,
) {
    use crate::ops::interp::{avg2, sv2cv};
    let (nr, nt, np) = (grid.nr, grid.nt, grid.np);
    let (rc_inv, rf_inv) = (&grid.rc_inv, &grid.rf_inv);
    let (st_c_inv, st_f_inv) = (&grid.st_c_inv, &grid.st_f_inv);
    let (dfr, dft, dfp) = (&grid.r.df, &grid.t.df, &grid.p.df);
    let (dfr_inv, dft_inv, dfp_inv) = (&grid.r.df_inv, &grid.t.df_inv, &grid.p.df_inv);
    const EPS_B2: f64 = 1e-30;

    par.region(|par| {
        // ---- r-faces ----
        let space = IndexSpace3::interior_trimmed(Stagger::FaceR, nr, nt, np, (1, 0, 0));
        let reads = [temp.buf(), kface.r.buf(), b.r.buf(), b.t.buf(), b.p.buf()];
        let writes = [flux_out.r.buf()];
        let o = flux_out.r.data.par_view();
        let (td, kr, br, bt, bp) = (
            &temp.data, &kface.r.data, &b.r.data, &b.t.data, &b.p.data,
        );
        par.loop3(&sites::CONDUCT_FLUX_R, space, Traffic::new(14, 1, 40), &reads, &writes, |i, j, k| {
            let b_r = br.get(i, j, k);
            let b_t = sv2cv(bt.get(i - 1, j, k), bt.get(i, j, k), bt.get(i - 1, j + 1, k), bt.get(i, j + 1, k));
            let b_p = sv2cv(bp.get(i - 1, j, k), bp.get(i, j, k), bp.get(i - 1, j, k + 1), bp.get(i, j, k + 1));
            let b2 = b_r * b_r + b_t * b_t + b_p * b_p + EPS_B2;
            let dtr = (td.get(i, j, k) - td.get(i - 1, j, k)) * dfr_inv[i];
            // Tangential gradients: centered at the two adjacent cells,
            // averaged to the face.
            let gth = |ii: usize| {
                (td.get(ii, j + 1, k) - td.get(ii, j - 1, k)) / (dft[j] + dft[j + 1])
            };
            let dtt = rf_inv[i] * avg2(gth(i - 1), gth(i));
            let gph = |ii: usize| {
                (td.get(ii, j, k + 1) - td.get(ii, j, k - 1)) / (dfp[k] + dfp[k + 1])
            };
            let dtp = rf_inv[i] * st_c_inv[j] * avg2(gph(i - 1), gph(i));
            let bdot = (b_r * dtr + b_t * dtt + b_p * dtp) / b2;
            o.set(i, j, k, kr.get(i, j, k) * (b_r * bdot + ALIGNED_ISO_FRACTION * dtr));
        });

        // ---- θ-faces ----
        let space = IndexSpace3::interior_trimmed(Stagger::FaceT, nr, nt, np, (0, 1, 0));
        let reads = [temp.buf(), kface.t.buf(), b.r.buf(), b.t.buf(), b.p.buf()];
        let writes = [flux_out.t.buf()];
        let o = flux_out.t.data.par_view();
        let (td, kt, br, bt, bp) = (
            &temp.data, &kface.t.data, &b.r.data, &b.t.data, &b.p.data,
        );
        par.loop3(&sites::CONDUCT_FLUX_T, space, Traffic::new(14, 1, 40), &reads, &writes, |i, j, k| {
            let b_t = bt.get(i, j, k);
            let b_r = sv2cv(br.get(i, j - 1, k), br.get(i, j, k), br.get(i + 1, j - 1, k), br.get(i + 1, j, k));
            let b_p = sv2cv(bp.get(i, j - 1, k), bp.get(i, j, k), bp.get(i, j - 1, k + 1), bp.get(i, j, k + 1));
            let b2 = b_r * b_r + b_t * b_t + b_p * b_p + EPS_B2;
            let dtt = rc_inv[i] * (td.get(i, j, k) - td.get(i, j - 1, k)) * dft_inv[j];
            let grd = |jj: usize| {
                (td.get(i + 1, jj, k) - td.get(i - 1, jj, k)) / (dfr[i] + dfr[i + 1])
            };
            let dtr = avg2(grd(j - 1), grd(j));
            let gph = |jj: usize| {
                (td.get(i, jj, k + 1) - td.get(i, jj, k - 1)) / (dfp[k] + dfp[k + 1])
            };
            let dtp = rc_inv[i] * st_f_inv[j] * avg2(gph(j - 1), gph(j));
            let bdot = (b_r * dtr + b_t * dtt + b_p * dtp) / b2;
            o.set(i, j, k, kt.get(i, j, k) * (b_t * bdot + ALIGNED_ISO_FRACTION * dtt));
        });

        // ---- φ-faces ----
        let space = IndexSpace3::interior(Stagger::FaceP, nr, nt, np);
        let reads = [temp.buf(), kface.p.buf(), b.r.buf(), b.t.buf(), b.p.buf()];
        let writes = [flux_out.p.buf()];
        let o = flux_out.p.data.par_view();
        let (td, kp, br, bt, bp) = (
            &temp.data, &kface.p.data, &b.r.data, &b.t.data, &b.p.data,
        );
        par.loop3(&sites::CONDUCT_FLUX_P, space, Traffic::new(14, 1, 40), &reads, &writes, |i, j, k| {
            let b_p = bp.get(i, j, k);
            let b_r = sv2cv(br.get(i, j, k - 1), br.get(i, j, k), br.get(i + 1, j, k - 1), br.get(i + 1, j, k));
            let b_t = sv2cv(bt.get(i, j, k - 1), bt.get(i, j, k), bt.get(i, j + 1, k - 1), bt.get(i, j + 1, k));
            let b2 = b_r * b_r + b_t * b_t + b_p * b_p + EPS_B2;
            let dtp = rc_inv[i] * st_c_inv[j] * (td.get(i, j, k) - td.get(i, j, k - 1)) * dfp_inv[k];
            let grd = |kk: usize| {
                (td.get(i + 1, j, kk) - td.get(i - 1, j, kk)) / (dfr[i] + dfr[i + 1])
            };
            let dtr = avg2(grd(k - 1), grd(k));
            let gth = |kk: usize| {
                (td.get(i, j + 1, kk) - td.get(i, j - 1, kk)) / (dft[j] + dft[j + 1])
            };
            let dtt = rc_inv[i] * avg2(gth(k - 1), gth(k));
            let bdot = (b_r * dtr + b_t * dtt + b_p * dtp) / b2;
            o.set(i, j, k, kp.get(i, j, k) * (b_p * bdot + ALIGNED_ISO_FRACTION * dtp));
        });
    });
}

/// Divergence of precomputed conductive fluxes:
/// `out = (γ−1)/ρ · ∇·F` (exact flux form; partner of [`aligned_flux`]).
pub fn conduction_div(
    par: &mut Par,
    grid: &SphericalGrid,
    out: &mut Field,
    flux: &VecField,
    rho: &Field,
    gamma: f64,
) {
    let space = IndexSpace3::interior(Stagger::CellCenter, grid.nr, grid.nt, grid.np);
    let reads = [flux.r.buf(), flux.t.buf(), flux.p.buf(), rho.buf()];
    let writes = [out.buf()];
    let od = out.data.par_view();
    let (fr, ft, fp, rd) = (
        &flux.r.data, &flux.t.data, &flux.p.data, &rho.data,
    );
    let (rf2, st_f) = (&grid.rf2, &grid.st_f);
    let (dr3_inv, drr2, dcos_inv) = (&grid.dr3_inv, &grid.drr2, &grid.dcos_inv);
    let (dtc, dpc_inv) = (&grid.t.dc, &grid.p.dc_inv);
    let gm1 = gamma - 1.0;
    let (i0, i1) = (space.i0, space.i1);
    let rf2_s = &rf2[i0..i1 + 1];
    let dr3_inv_s = &dr3_inv[i0..i1];
    let drr2_s = &drr2[i0..i1];
    par.loop3_rows(&sites::CONDUCT_DIV, space, Traffic::new(8, 1, 20), &reads, &writes, |j, k| {
        let fr_c = fr.row(i0, i1, j, k);
        let fr_ip = fr.row(i0 + 1, i1 + 1, j, k);
        let ft_c = ft.row(i0, i1, j, k);
        let ft_jp = ft.row(i0, i1, j + 1, k);
        let fp_c = fp.row(i0, i1, j, k);
        let fp_kp = fp.row(i0, i1, j, k + 1);
        let r_row = rd.row(i0, i1, j, k);
        let (st_lo, st_hi) = (st_f[j], st_f[j + 1]);
        let dcos_inv_j = dcos_inv[j];
        let dtc_j = dtc[j];
        let dpc_inv_k = dpc_inv[k];
        let out = od.row_mut(i0, i1, j, k);
        for n in 0..out.len() {
            let div = (rf2_s[n + 1] * fr_ip[n] - rf2_s[n] * fr_c[n]) * dr3_inv_s[n]
                + (st_hi * ft_jp[n] - st_lo * ft_c[n]) * drr2_s[n] * dr3_inv_s[n] * dcos_inv_j
                + (fp_kp[n] - fp_c[n]) * drr2_s[n] * dtc_j * dr3_inv_s[n] * dcos_inv_j * dpc_inv_k;
            out[n] = gm1 * div / r_row[n].max(RHO_FLOOR);
        }
    });
}

/// Explicit stability limit of the conduction operator (the time step an
/// unaccelerated explicit update would need; RKL2 extends it by
/// `(s²+s−2)/4`). A scalar-reduction kernel, like the CFL loop.
pub fn conduction_dt_explicit(
    par: &mut Par,
    grid: &SphericalGrid,
    temp: &Field,
    rho: &Field,
    kappa0: f64,
    gamma: f64,
) -> f64 {
    let blk = IndexSpace3::interior(Stagger::CellCenter, grid.nr, grid.nt, grid.np);
    let reads = [temp.buf(), rho.buf()];
    let (td, rd) = (&temp.data, &rho.data);
    par.reduce_scalar(
        &sites::COND_DT,
        blk,
        Traffic::new(2, 0, 20),
        &reads,
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

/// Radiative losses and coronal heating:
/// `T ← T + Δt (γ−1)/ρ [ H₀ e^{−(r−1)/λ} − ρ² Λ(T) ]` (the `radloss` /
/// `boost` routine site), followed by nothing — floors are separate.
#[allow(clippy::too_many_arguments)]
pub fn radiate_and_heat(
    par: &mut Par,
    grid: &SphericalGrid,
    temp: &mut Field,
    rho: &Field,
    dt: f64,
    gamma: f64,
    radiation: bool,
    heating: bool,
) {
    if !radiation && !heating {
        return;
    }
    let space = IndexSpace3::interior(Stagger::CellCenter, grid.nr, grid.nt, grid.np);
    let reads = [temp.buf(), rho.buf()];
    let writes = [temp.buf()];
    let td = temp.data.par_view();
    let rd = &rho.data;
    let rc = &grid.rc;
    let st_c = &grid.st_c;
    let gm1 = gamma - 1.0;
    let (c_rad, c_heat) = (
        if radiation { RAD_COEF } else { 0.0 },
        if heating { HEAT_COEF } else { 0.0 },
    );
    let (i0, i1) = (space.i0, space.i1);
    let rc_s = &rc[i0..i1];
    par.loop3_rows(&sites::RADIATE_HEAT, space, Traffic::new(3, 1, 20), &reads, &writes, |j, k| {
        let r_row = rd.row(i0, i1, j, k);
        // Streamer-weighted heating: stronger above the (closed-field)
        // equatorial belt, weaker over the polar coronal holes — the
        // latitude structure MAS heating models carry.
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

/// Apply temperature and density floors.
pub fn floors(par: &mut Par, grid: &SphericalGrid, temp: &mut Field, rho: &mut Field) {
    let space = IndexSpace3::interior(Stagger::CellCenter, grid.nr, grid.nt, grid.np);
    let reads = [temp.buf(), rho.buf()];
    let writes = [temp.buf(), rho.buf()];
    let (td, rd) = (temp.data.par_view(), rho.data.par_view());
    let (i0, i1) = (space.i0, space.i1);
    par.loop3_rows(&sites::FLOORS, space, Traffic::new(2, 2, 2), &reads, &writes, |j, k| {
        let out_t = td.row_mut(i0, i1, j, k);
        let out_r = rd.row_mut(i0, i1, j, k);
        // Branch form (not `.max`): a NaN fails the comparison and stays
        // NaN, so the supervisor's non-finite check still sees it.
        for n in 0..out_t.len() {
            if out_t[n] < TEMP_FLOOR {
                out_t[n] = TEMP_FLOOR;
            }
            if out_r[n] < RHO_FLOOR {
                out_r[n] = RHO_FLOOR;
            }
        }
    });
}

/// `MINVAL(T)` — the `kernels`-intrinsic diagnostic (paper §IV-B's
/// example of array-syntax regions Codes 5–6 must expand by hand).
pub fn minval_temp(par: &mut Par, grid: &SphericalGrid, temp: &Field) -> f64 {
    let space = IndexSpace3::interior(Stagger::CellCenter, grid.nr, grid.nt, grid.np);
    let reads = [temp.buf()];
    let td = &temp.data;
    par.kernels_intrinsic(
        &sites::MINVAL_TEMP,
        space,
        Traffic::new(1, 0, 1),
        &reads,
        ReduceOp::Min,
        f64::INFINITY,
        |i, j, k| td.get(i, j, k),
    )
}

/// `MAXVAL(|v|)` over cell centers (second `kernels` intrinsic).
pub fn maxval_speed(par: &mut Par, grid: &SphericalGrid, v: &VecField) -> f64 {
    let space = IndexSpace3::interior(Stagger::CellCenter, grid.nr, grid.nt, grid.np);
    let reads = [v.r.buf(), v.t.buf(), v.p.buf()];
    let (vr, vt, vp): (&Array3, &Array3, &Array3) = (&v.r.data, &v.t.data, &v.p.data);
    par.kernels_intrinsic(
        &sites::MAXVAL_SPEED,
        space,
        Traffic::new(6, 0, 10),
        &reads,
        ReduceOp::Max,
        0.0,
        |i, j, k| {
            let a = 0.5 * (vr.get(i, j, k) + vr.get(i + 1, j, k));
            let b = 0.5 * (vt.get(i, j, k) + vt.get(i, j + 1, k));
            let c = 0.5 * (vp.get(i, j, k) + vp.get(i, j, k + 1));
            (a * a + b * b + c * c).sqrt()
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::DeviceSpec;
    use stdpar::CodeVersion;

    fn setup() -> (SphericalGrid, Par) {
        let g = SphericalGrid::coronal(12, 10, 8, 8.0);
        let mut p = Par::builder(DeviceSpec::a100_40gb())
            .version(CodeVersion::Ad)
            .seed(7)
            .build();
        p.ctx.set_phase(gpusim::Phase::Compute);
        (g, p)
    }

    fn reg(par: &mut Par, f: &mut Field) {
        let id = par.ctx.mem.register(f.data.bytes(), f.name);
        f.buf = Some(id);
        par.ctx.enter_data(id);
    }

    #[test]
    fn conduction_smooths_a_hot_spot() {
        let (g, mut par) = setup();
        let mut temp = Field::constant("temp", Stagger::CellCenter, &g, 1.0);
        temp.data.set(6, 5, 4, 2.0);
        let mut rho = Field::constant("rho", Stagger::CellCenter, &g, 1.0);
        let mut kface = VecField::zeros_faces("kface", &g);
        let mut out = Field::zeros("out", Stagger::CellCenter, &g);
        reg(&mut par, &mut temp);
        reg(&mut par, &mut rho);
        reg(&mut par, &mut out);
        for c in kface.comps_mut() {
            reg(&mut par, c);
        }
        kappa_faces(&mut par, &g, &mut kface, &temp, 0.01);
        conduction_op(&mut par, &g, &mut out, &temp, &kface, &rho, 5.0 / 3.0);
        // Heat flows away from the hot cell (L < 0 there) and into the
        // neighbours (L > 0).
        assert!(out.data.get(6, 5, 4) < 0.0);
        assert!(out.data.get(5, 5, 4) > 0.0);
        assert!(out.data.get(7, 5, 4) > 0.0);
        // Conservation: volume-weighted sum of L·ρ/(γ-1) over the interior
        // is zero up to boundary fluxes (hot spot far from boundaries).
        let mut s = 0.0;
        out.interior().for_each(|i, j, k| {
            s += out.data.get(i, j, k) * rho.data.get(i, j, k) * g.cell_volume(i, j, k);
        });
        assert!(s.abs() < 1e-12, "conductive energy not conserved: {s}");
    }

    #[test]
    fn conduction_of_uniform_temp_is_zero() {
        let (g, mut par) = setup();
        let mut temp = Field::constant("temp", Stagger::CellCenter, &g, 1.3);
        let mut rho = Field::constant("rho", Stagger::CellCenter, &g, 1.0);
        let mut kface = VecField::zeros_faces("kf", &g);
        let mut out = Field::zeros("out", Stagger::CellCenter, &g);
        reg(&mut par, &mut temp);
        reg(&mut par, &mut rho);
        reg(&mut par, &mut out);
        for c in kface.comps_mut() {
            reg(&mut par, c);
        }
        kappa_faces(&mut par, &g, &mut kface, &temp, 0.01);
        conduction_op(&mut par, &g, &mut out, &temp, &kface, &rho, 5.0 / 3.0);
        assert_eq!(out.data.max_abs(&out.interior()), 0.0);
    }

    #[test]
    fn heating_beats_radiation_in_low_density_corona() {
        let (g, mut par) = setup();
        let mut temp = Field::constant("temp", Stagger::CellCenter, &g, 1.0);
        let mut rho = Field::constant("rho", Stagger::CellCenter, &g, 0.01);
        reg(&mut par, &mut temp);
        reg(&mut par, &mut rho);
        let t0 = temp.data.get(2, 5, 4);
        radiate_and_heat(&mut par, &g, &mut temp, &rho, 0.01, 5.0 / 3.0, true, true);
        assert!(temp.data.get(2, 5, 4) > t0, "low density => net heating");
    }

    #[test]
    fn radiation_cools_dense_plasma() {
        let (g, mut par) = setup();
        let mut temp = Field::constant("temp", Stagger::CellCenter, &g, 1.0);
        let mut rho = Field::constant("rho", Stagger::CellCenter, &g, 10.0);
        reg(&mut par, &mut temp);
        reg(&mut par, &mut rho);
        let t0 = temp.data.get(6, 5, 4);
        radiate_and_heat(&mut par, &g, &mut temp, &rho, 0.01, 5.0 / 3.0, true, false);
        assert!(temp.data.get(6, 5, 4) < t0, "dense plasma must cool");
    }

    #[test]
    fn floors_clamp() {
        let (g, mut par) = setup();
        let mut temp = Field::constant("temp", Stagger::CellCenter, &g, 1.0);
        let mut rho = Field::constant("rho", Stagger::CellCenter, &g, 1.0);
        temp.data.set(3, 3, 3, -0.5);
        rho.data.set(3, 3, 3, 0.0);
        reg(&mut par, &mut temp);
        reg(&mut par, &mut rho);
        floors(&mut par, &g, &mut temp, &mut rho);
        assert_eq!(temp.data.get(3, 3, 3), TEMP_FLOOR);
        assert_eq!(rho.data.get(3, 3, 3), RHO_FLOOR);
    }

    #[test]
    fn minval_maxval_intrinsics() {
        let (g, mut par) = setup();
        let mut temp = Field::constant("temp", Stagger::CellCenter, &g, 1.0);
        temp.data.set(4, 4, 4, 0.25);
        reg(&mut par, &mut temp);
        assert_eq!(minval_temp(&mut par, &g, &temp), 0.25);
        let mut v = VecField::zeros_faces("v", &g);
        v.r.data.fill(3.0);
        for c in v.comps_mut() {
            reg(&mut par, c);
        }
        let s = maxval_speed(&mut par, &g, &v);
        assert!((s - 3.0).abs() < 1e-12);
    }

    #[test]
    fn aligned_flux_vanishes_across_field_lines() {
        // B along φ, T varying only in r: b̂·∇T = 0, so the aligned flux
        // through r-faces is only the tiny isotropic residual.
        let (g, mut par) = setup();
        let mut temp = Field::zeros("temp", Stagger::CellCenter, &g);
        temp.init_with(&g, |r, _, _| 1.0 / r);
        let mut rho = Field::constant("rho", Stagger::CellCenter, &g, 1.0);
        let mut b = VecField::zeros_faces("b", &g);
        b.p.data.fill(1.0);
        let mut kface = VecField::zeros_faces("kf", &g);
        let mut flux = VecField::zeros_faces("fx", &g);
        reg(&mut par, &mut temp);
        reg(&mut par, &mut rho);
        for vf in [&mut b, &mut kface, &mut flux] {
            for c in vf.comps_mut() {
                reg(&mut par, c);
            }
        }
        kappa_faces(&mut par, &g, &mut kface, &temp, 1.0);
        aligned_flux(&mut par, &g, &mut flux, &temp, &kface, &b);

        // Isotropic comparison flux through the same faces.
        let blk = IndexSpace3::interior_trimmed(Stagger::FaceR, g.nr, g.nt, g.np, (2, 2, 0));
        let mut max_ratio: f64 = 0.0;
        blk.for_each(|i, j, k| {
            let iso = kface.r.data.get(i, j, k)
                * (temp.data.get(i, j, k) - temp.data.get(i - 1, j, k))
                * g.r.df_inv[i];
            if iso.abs() > 1e-12 {
                max_ratio = max_ratio.max((flux.r.data.get(i, j, k) / iso).abs());
            }
        });
        assert!(
            max_ratio < 2.0 * ALIGNED_ISO_FRACTION,
            "cross-field flux must be suppressed to the isotropic residual              (ratio {max_ratio})"
        );
    }

    #[test]
    fn aligned_flux_full_along_field_lines() {
        // B along r, T varying in r: the aligned flux equals the
        // isotropic flux (times 1 + ε).
        let (g, mut par) = setup();
        let mut temp = Field::zeros("temp", Stagger::CellCenter, &g);
        temp.init_with(&g, |r, _, _| 1.0 / r);
        let mut rho = Field::constant("rho", Stagger::CellCenter, &g, 1.0);
        let mut b = VecField::zeros_faces("b", &g);
        b.r.data.fill(1.0);
        let mut kface = VecField::zeros_faces("kf", &g);
        let mut flux = VecField::zeros_faces("fx", &g);
        reg(&mut par, &mut temp);
        reg(&mut par, &mut rho);
        for vf in [&mut b, &mut kface, &mut flux] {
            for c in vf.comps_mut() {
                reg(&mut par, c);
            }
        }
        kappa_faces(&mut par, &g, &mut kface, &temp, 1.0);
        aligned_flux(&mut par, &g, &mut flux, &temp, &kface, &b);
        let blk = IndexSpace3::interior_trimmed(Stagger::FaceR, g.nr, g.nt, g.np, (2, 2, 0));
        blk.for_each(|i, j, k| {
            let iso = kface.r.data.get(i, j, k)
                * (temp.data.get(i, j, k) - temp.data.get(i - 1, j, k))
                * g.r.df_inv[i];
            let al = flux.r.data.get(i, j, k);
            let expect = iso * (1.0 + ALIGNED_ISO_FRACTION);
            assert!(
                (al - expect).abs() <= 1e-12 + 1e-9 * expect.abs(),
                "aligned ({al}) vs isotropic (1+ε) ({expect}) at ({i},{j},{k})"
            );
        });
    }

    #[test]
    fn aligned_divergence_conserves_energy() {
        // Volume-weighted sum of ρ·L/(γ−1) vanishes for interior-supported
        // fluxes (exact flux form).
        let (g, mut par) = setup();
        let mut temp = Field::constant("temp", Stagger::CellCenter, &g, 1.0);
        temp.data.set(6, 5, 4, 1.5);
        let mut rho = Field::constant("rho", Stagger::CellCenter, &g, 1.0);
        let mut b = VecField::zeros_faces("b", &g);
        b.r.init_with(&g, |r, t, _| t.cos() / (r * r));
        b.t.init_with(&g, |r, t, _| 0.5 * t.sin() / (r * r * r));
        let mut kface = VecField::zeros_faces("kf", &g);
        let mut flux = VecField::zeros_faces("fx", &g);
        let mut out = Field::zeros("out", Stagger::CellCenter, &g);
        reg(&mut par, &mut temp);
        reg(&mut par, &mut rho);
        reg(&mut par, &mut out);
        for vf in [&mut b, &mut kface, &mut flux] {
            for c in vf.comps_mut() {
                reg(&mut par, c);
            }
        }
        kappa_faces(&mut par, &g, &mut kface, &temp, 0.02);
        aligned_flux(&mut par, &g, &mut flux, &temp, &kface, &b);
        conduction_div(&mut par, &g, &mut out, &flux, &rho, 5.0 / 3.0);
        let mut sum = 0.0;
        out.interior().for_each(|i, j, k| {
            sum += out.data.get(i, j, k) * rho.data.get(i, j, k) * g.cell_volume(i, j, k);
        });
        assert!(sum.abs() < 1e-12, "aligned conduction energy drift {sum}");
    }

    #[test]
    fn explicit_conduction_dt_scales_inversely_with_kappa() {
        let (g, mut par) = setup();
        let mut temp = Field::constant("temp", Stagger::CellCenter, &g, 1.0);
        let mut rho = Field::constant("rho", Stagger::CellCenter, &g, 1.0);
        reg(&mut par, &mut temp);
        reg(&mut par, &mut rho);
        let d1 = conduction_dt_explicit(&mut par, &g, &temp, &rho, 0.01, 5.0 / 3.0);
        let d2 = conduction_dt_explicit(&mut par, &g, &temp, &rho, 0.02, 5.0 / 3.0);
        assert!(d1 > 0.0 && d2 > 0.0);
        assert!((d1 / d2 - 2.0).abs() < 1e-12);
    }
}
