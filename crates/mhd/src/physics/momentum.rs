//! The momentum equation: pressure gradient, Lorentz force `J×B`,
//! gravity, and upwind advection of velocity.

use crate::ops::interp::{avg2, s2c, sv2cv};
use crate::sites;
use gpusim::Traffic;
use mas_field::{Field, VecField};
use mas_grid::{IndexSpace3, SphericalGrid, Stagger};
use stdpar::Par;

/// Normalized solar gravitational parameter (`g(r) = −G₀/r²`).
pub const G0: f64 = 2.0;

/// Equation of state: `p = ρT` at cell centers, including the φ-ghost
/// planes (ρ and T ghosts are current at this point, and the φ-face
/// pressure gradient needs p in the ghosts — this saves a halo exchange,
/// exactly as MAS computes EOS quantities over the extended mesh).
pub fn pressure(par: &mut Par, grid: &SphericalGrid, pres: &mut Field, rho: &Field, temp: &Field) {
    let mut space = IndexSpace3::interior(Stagger::CellCenter, grid.nr, grid.nt, grid.np);
    space.k0 -= 1;
    space.k1 += 1;
    let reads = [rho.buf(), temp.buf()];
    let writes = [pres.buf()];
    let pd = pres.data.par_view();
    let (rd, td) = (&rho.data, &temp.data);
    let (i0, i1) = (space.i0, space.i1);
    par.loop3_rows(&sites::PRESSURE, space, Traffic::new(2, 1, 1), &reads, &writes, |j, k| {
        let r_row = rd.row(i0, i1, j, k);
        let t_row = td.row(i0, i1, j, k);
        let out = pd.row_mut(i0, i1, j, k);
        for n in 0..out.len() {
            out[n] = r_row[n] * t_row[n];
        }
    });
}

/// Current density `J = ∇×B` on edges (differential form with metric
/// factors; the CT *update* uses the exact circulation form instead).
pub fn current(par: &mut Par, grid: &SphericalGrid, j_out: &mut VecField, b: &VecField) {
    let (nr, nt, np) = (grid.nr, grid.nt, grid.np);
    let (rc, rc_inv, rf_inv) = (&grid.rc, &grid.rc_inv, &grid.rf_inv);
    let (st_c, st_f_inv, st_c_inv) = (&grid.st_c, &grid.st_f_inv, &grid.st_c_inv);
    let (dtf_inv, dpf_inv, drf_inv) = (&grid.t.df_inv, &grid.p.df_inv, &grid.r.df_inv);
    par.region(|par| {
        // J_r on r-edges (r-cell i, θ-face j, φ-face k).
        let space = IndexSpace3::interior_trimmed(Stagger::EdgeR, nr, nt, np, (0, 1, 0));
        let reads = [b.t.buf(), b.p.buf()];
        let writes = [j_out.r.buf()];
        let jr = j_out.r.data.par_view();
        let (bt, bp) = (&b.t.data, &b.p.data);
        let (i0, i1) = (space.i0, space.i1);
        let rc_inv_s = &rc_inv[i0..i1];
        par.loop3_rows(&sites::CURL_B_R, space, Traffic::new(5, 1, 10), &reads, &writes, |j, k| {
            let bp_c = bp.row(i0, i1, j, k);
            let bp_jm = bp.row(i0, i1, j - 1, k);
            let bt_c = bt.row(i0, i1, j, k);
            let bt_km = bt.row(i0, i1, j, k - 1);
            let (st_jm, st_j) = (st_c[j - 1], st_c[j]);
            let (dtf_j, dpf_k, stf_j) = (dtf_inv[j], dpf_inv[k], st_f_inv[j]);
            let out = jr.row_mut(i0, i1, j, k);
            for n in 0..out.len() {
                let dsin_bp = (st_j * bp_c[n] - st_jm * bp_jm[n]) * dtf_j;
                let dbt = (bt_c[n] - bt_km[n]) * dpf_k;
                out[n] = rc_inv_s[n] * stf_j * (dsin_bp - dbt);
            }
        });

        // J_θ on θ-edges (r-face i, θ-cell j, φ-face k).
        let space = IndexSpace3::interior_trimmed(Stagger::EdgeT, nr, nt, np, (1, 0, 0));
        let reads = [b.r.buf(), b.p.buf()];
        let writes = [j_out.t.buf()];
        let jt = j_out.t.data.par_view();
        let (br, bp) = (&b.r.data, &b.p.data);
        let (i0, i1) = (space.i0, space.i1);
        // rc_s[n] = rc[i-1], rc_s[n+1] = rc[i].
        let rc_s = &rc[i0 - 1..i1];
        let drf_s = &drf_inv[i0..i1];
        let rf_inv_s = &rf_inv[i0..i1];
        par.loop3_rows(&sites::CURL_B_T, space, Traffic::new(5, 1, 10), &reads, &writes, |j, k| {
            let br_c = br.row(i0, i1, j, k);
            let br_km = br.row(i0, i1, j, k - 1);
            let bp_c = bp.row(i0, i1, j, k);
            let bp_im = bp.row(i0 - 1, i1 - 1, j, k);
            let (dpf_k, stc_j) = (dpf_inv[k], st_c_inv[j]);
            let out = jt.row_mut(i0, i1, j, k);
            for n in 0..out.len() {
                let dbr = (br_c[n] - br_km[n]) * dpf_k;
                let drbp = (rc_s[n + 1] * bp_c[n] - rc_s[n] * bp_im[n]) * drf_s[n];
                out[n] = rf_inv_s[n] * (stc_j * dbr - drbp);
            }
        });

        // J_φ on φ-edges (r-face i, θ-face j, φ-cell k).
        let space = IndexSpace3::interior_trimmed(Stagger::EdgeP, nr, nt, np, (1, 1, 0));
        let reads = [b.r.buf(), b.t.buf()];
        let writes = [j_out.p.buf()];
        let jp = j_out.p.data.par_view();
        let (br, bt) = (&b.r.data, &b.t.data);
        let (i0, i1) = (space.i0, space.i1);
        let rc_s = &rc[i0 - 1..i1];
        let drf_s = &drf_inv[i0..i1];
        let rf_inv_s = &rf_inv[i0..i1];
        par.loop3_rows(&sites::CURL_B_P, space, Traffic::new(5, 1, 10), &reads, &writes, |j, k| {
            let bt_c = bt.row(i0, i1, j, k);
            let bt_im = bt.row(i0 - 1, i1 - 1, j, k);
            let br_c = br.row(i0, i1, j, k);
            let br_jm = br.row(i0, i1, j - 1, k);
            let dtf_j = dtf_inv[j];
            let out = jp.row_mut(i0, i1, j, k);
            for n in 0..out.len() {
                let drbt = (rc_s[n + 1] * bt_c[n] - rc_s[n] * bt_im[n]) * drf_s[n];
                let dbr = (br_c[n] - br_jm[n]) * dtf_j;
                out[n] = rf_inv_s[n] * (drbt - dbr);
            }
        });
    });
}

/// Density averaged to the three face families (`s2c` routine sites).
pub fn rho_to_faces(par: &mut Par, grid: &SphericalGrid, rho_face: &mut VecField, rho: &Field) {
    let (nr, nt, np) = (grid.nr, grid.nt, grid.np);
    par.region(|par| {
        let space = IndexSpace3::interior_trimmed(Stagger::FaceR, nr, nt, np, (1, 0, 0));
        let reads = [rho.buf()];
        let writes = [rho_face.r.buf()];
        let o = rho_face.r.data.par_view();
        let rd = &rho.data;
        let (i0, i1) = (space.i0, space.i1);
        par.loop3_rows(&sites::RHO_FACE_R, space, Traffic::new(2, 1, 2), &reads, &writes, |j, k| {
            let r_lo = rd.row(i0 - 1, i1 - 1, j, k);
            let r_hi = rd.row(i0, i1, j, k);
            let out = o.row_mut(i0, i1, j, k);
            for n in 0..out.len() {
                out[n] = s2c(r_lo[n], r_hi[n]);
            }
        });
        let space = IndexSpace3::interior_trimmed(Stagger::FaceT, nr, nt, np, (0, 1, 0));
        let reads = [rho.buf()];
        let writes = [rho_face.t.buf()];
        let o = rho_face.t.data.par_view();
        let rd = &rho.data;
        let (i0, i1) = (space.i0, space.i1);
        par.loop3_rows(&sites::RHO_FACE_T, space, Traffic::new(2, 1, 2), &reads, &writes, |j, k| {
            let r_lo = rd.row(i0, i1, j - 1, k);
            let r_hi = rd.row(i0, i1, j, k);
            let out = o.row_mut(i0, i1, j, k);
            for n in 0..out.len() {
                out[n] = s2c(r_lo[n], r_hi[n]);
            }
        });
        let space = IndexSpace3::interior(Stagger::FaceP, nr, nt, np);
        let reads = [rho.buf()];
        let writes = [rho_face.p.buf()];
        let o = rho_face.p.data.par_view();
        let rd = &rho.data;
        let (i0, i1) = (space.i0, space.i1);
        par.loop3_rows(&sites::RHO_FACE_P, space, Traffic::new(2, 1, 2), &reads, &writes, |j, k| {
            let r_lo = rd.row(i0, i1, j, k - 1);
            let r_hi = rd.row(i0, i1, j, k);
            let out = o.row_mut(i0, i1, j, k);
            for n in 0..out.len() {
                out[n] = s2c(r_lo[n], r_hi[n]);
            }
        });
    });
}

/// Upwind advective tendency `−(v·∇)v` per component, written into
/// `force` (each component advected as a scalar on its own staggering —
/// curvature cross-terms are absorbed by the documented simplification).
pub fn advect_velocity(par: &mut Par, grid: &SphericalGrid, force: &mut VecField, v: &VecField) {
    let (nr, nt, np) = (grid.nr, grid.nt, grid.np);
    let (rf_inv, rc_inv) = (&grid.rf_inv, &grid.rc_inv);
    let (st_c_inv, st_f_inv) = (&grid.st_c_inv, &grid.st_f_inv);
    let (dcr, dfr) = (&grid.r.dc, &grid.r.df);
    let (dct, dft) = (&grid.t.dc, &grid.t.df);
    let (dcp, dfp) = (&grid.p.dc, &grid.p.df);
    par.region(|par| {
        // --- v_r on r-faces ---
        let space = IndexSpace3::interior_trimmed(Stagger::FaceR, nr, nt, np, (1, 0, 0));
        let reads = [v.r.buf(), v.t.buf(), v.p.buf()];
        let writes = [force.r.buf()];
        let o = force.r.data.par_view();
        let (vr, vt, vp) = (&v.r.data, &v.t.data, &v.p.data);
        let (i0, i1) = (space.i0, space.i1);
        // dcr_s[n] = dcr[i-1], dcr_s[n+1] = dcr[i].
        let dcr_s = &dcr[i0 - 1..i1];
        let rf_inv_s = &rf_inv[i0..i1];
        par.loop3_rows(&sites::ADVECT_V_R, space, Traffic::new(12, 1, 30), &reads, &writes, |j, k| {
            let vr_c = vr.row(i0, i1, j, k);
            let vr_im = vr.row(i0 - 1, i1 - 1, j, k);
            let vr_ip = vr.row(i0 + 1, i1 + 1, j, k);
            let vr_jm = vr.row(i0, i1, j - 1, k);
            let vr_jp = vr.row(i0, i1, j + 1, k);
            let vr_km = vr.row(i0, i1, j, k - 1);
            let vr_kp = vr.row(i0, i1, j, k + 1);
            let vt_im_j = vt.row(i0 - 1, i1 - 1, j, k);
            let vt_i_j = vt.row(i0, i1, j, k);
            let vt_im_jp = vt.row(i0 - 1, i1 - 1, j + 1, k);
            let vt_i_jp = vt.row(i0, i1, j + 1, k);
            let vp_im_k = vp.row(i0 - 1, i1 - 1, j, k);
            let vp_i_k = vp.row(i0, i1, j, k);
            let vp_im_kp = vp.row(i0 - 1, i1 - 1, j, k + 1);
            let vp_i_kp = vp.row(i0, i1, j, k + 1);
            let (dft_j, dft_jp) = (dft[j], dft[j + 1]);
            let (dfp_k, dfp_kp) = (dfp[k], dfp[k + 1]);
            let stc_j = st_c_inv[j];
            let out = o.row_mut(i0, i1, j, k);
            for n in 0..out.len() {
                let f0 = vr_c[n];
                // Advecting velocity at the r-face.
                let ur = f0;
                let ut = sv2cv(vt_im_j[n], vt_i_j[n], vt_im_jp[n], vt_i_jp[n]);
                let up = sv2cv(vp_im_k[n], vp_i_k[n], vp_im_kp[n], vp_i_kp[n]);
                // Upwind gradients on the r-face lattice (spacing between
                // r-faces along r is the cell width).
                let gr = if ur >= 0.0 {
                    (f0 - vr_im[n]) / dcr_s[n]
                } else {
                    (vr_ip[n] - f0) / dcr_s[n + 1]
                };
                let gt = rf_inv_s[n]
                    * if ut >= 0.0 {
                        (f0 - vr_jm[n]) / dft_j
                    } else {
                        (vr_jp[n] - f0) / dft_jp
                    };
                let gp = rf_inv_s[n]
                    * stc_j
                    * if up >= 0.0 {
                        (f0 - vr_km[n]) / dfp_k
                    } else {
                        (vr_kp[n] - f0) / dfp_kp
                    };
                out[n] = -(ur * gr + ut * gt + up * gp);
            }
        });

        // --- v_θ on θ-faces ---
        let space = IndexSpace3::interior_trimmed(Stagger::FaceT, nr, nt, np, (0, 1, 0));
        let reads = [v.r.buf(), v.t.buf(), v.p.buf()];
        let writes = [force.t.buf()];
        let o = force.t.data.par_view();
        let (vr, vt, vp) = (&v.r.data, &v.t.data, &v.p.data);
        let (i0, i1) = (space.i0, space.i1);
        // dfr_s[n] = dfr[i], dfr_s[n+1] = dfr[i+1].
        let dfr_s = &dfr[i0..i1 + 1];
        let rc_inv_s = &rc_inv[i0..i1];
        par.loop3_rows(&sites::ADVECT_V_T, space, Traffic::new(12, 1, 30), &reads, &writes, |j, k| {
            let vt_c = vt.row(i0, i1, j, k);
            let vt_im = vt.row(i0 - 1, i1 - 1, j, k);
            let vt_ip = vt.row(i0 + 1, i1 + 1, j, k);
            let vt_jm = vt.row(i0, i1, j - 1, k);
            let vt_jp = vt.row(i0, i1, j + 1, k);
            let vt_km = vt.row(i0, i1, j, k - 1);
            let vt_kp = vt.row(i0, i1, j, k + 1);
            let vr_i_jm = vr.row(i0, i1, j - 1, k);
            let vr_i_j = vr.row(i0, i1, j, k);
            let vr_ip_jm = vr.row(i0 + 1, i1 + 1, j - 1, k);
            let vr_ip_j = vr.row(i0 + 1, i1 + 1, j, k);
            let vp_jm_k = vp.row(i0, i1, j - 1, k);
            let vp_j_k = vp.row(i0, i1, j, k);
            let vp_jm_kp = vp.row(i0, i1, j - 1, k + 1);
            let vp_j_kp = vp.row(i0, i1, j, k + 1);
            let (dct_jm, dct_j) = (dct[j - 1], dct[j]);
            let (dfp_k, dfp_kp) = (dfp[k], dfp[k + 1]);
            let stf_j = st_f_inv[j];
            let out = o.row_mut(i0, i1, j, k);
            for n in 0..out.len() {
                let f0 = vt_c[n];
                let ur = sv2cv(vr_i_jm[n], vr_i_j[n], vr_ip_jm[n], vr_ip_j[n]);
                let ut = f0;
                let up = sv2cv(vp_jm_k[n], vp_j_k[n], vp_jm_kp[n], vp_j_kp[n]);
                let gr = if ur >= 0.0 {
                    (f0 - vt_im[n]) / dfr_s[n]
                } else {
                    (vt_ip[n] - f0) / dfr_s[n + 1]
                };
                let gt = rc_inv_s[n]
                    * if ut >= 0.0 {
                        (f0 - vt_jm[n]) / dct_jm
                    } else {
                        (vt_jp[n] - f0) / dct_j
                    };
                let gp = rc_inv_s[n]
                    * stf_j
                    * if up >= 0.0 {
                        (f0 - vt_km[n]) / dfp_k
                    } else {
                        (vt_kp[n] - f0) / dfp_kp
                    };
                out[n] = -(ur * gr + ut * gt + up * gp);
            }
        });

        // --- v_φ on φ-faces ---
        let space = IndexSpace3::interior(Stagger::FaceP, nr, nt, np);
        let reads = [v.r.buf(), v.t.buf(), v.p.buf()];
        let writes = [force.p.buf()];
        let o = force.p.data.par_view();
        let (vr, vt, vp) = (&v.r.data, &v.t.data, &v.p.data);
        let (i0, i1) = (space.i0, space.i1);
        let dfr_s = &dfr[i0..i1 + 1];
        let rc_inv_s = &rc_inv[i0..i1];
        par.loop3_rows(&sites::ADVECT_V_P, space, Traffic::new(12, 1, 30), &reads, &writes, |j, k| {
            let vp_c = vp.row(i0, i1, j, k);
            let vp_im = vp.row(i0 - 1, i1 - 1, j, k);
            let vp_ip = vp.row(i0 + 1, i1 + 1, j, k);
            let vp_jm = vp.row(i0, i1, j - 1, k);
            let vp_jp = vp.row(i0, i1, j + 1, k);
            let vp_km = vp.row(i0, i1, j, k - 1);
            let vp_kp = vp.row(i0, i1, j, k + 1);
            let vr_i_km = vr.row(i0, i1, j, k - 1);
            let vr_i_k = vr.row(i0, i1, j, k);
            let vr_ip_km = vr.row(i0 + 1, i1 + 1, j, k - 1);
            let vr_ip_k = vr.row(i0 + 1, i1 + 1, j, k);
            let vt_j_km = vt.row(i0, i1, j, k - 1);
            let vt_j_k = vt.row(i0, i1, j, k);
            let vt_jp_km = vt.row(i0, i1, j + 1, k - 1);
            let vt_jp_k = vt.row(i0, i1, j + 1, k);
            let (dft_j, dft_jp) = (dft[j], dft[j + 1]);
            let (dcp_km, dcp_k) = (dcp[k - 1], dcp[k]);
            let stc_j = st_c_inv[j];
            let out = o.row_mut(i0, i1, j, k);
            for n in 0..out.len() {
                let f0 = vp_c[n];
                let ur = sv2cv(vr_i_km[n], vr_i_k[n], vr_ip_km[n], vr_ip_k[n]);
                let ut = sv2cv(vt_j_km[n], vt_j_k[n], vt_jp_km[n], vt_jp_k[n]);
                let up = f0;
                let gr = if ur >= 0.0 {
                    (f0 - vp_im[n]) / dfr_s[n]
                } else {
                    (vp_ip[n] - f0) / dfr_s[n + 1]
                };
                let gt = rc_inv_s[n]
                    * if ut >= 0.0 {
                        (f0 - vp_jm[n]) / dft_j
                    } else {
                        (vp_jp[n] - f0) / dft_jp
                    };
                let gp = rc_inv_s[n]
                    * stc_j
                    * if up >= 0.0 {
                        (f0 - vp_km[n]) / dcp_km
                    } else {
                        (vp_kp[n] - f0) / dcp_k
                    };
                out[n] = -(ur * gr + ut * gt + up * gp);
            }
        });
    });
}

/// Momentum update:
/// `v ← v + Δt [ (−∇p + J×B)/ρ_face + g + adv ]` where `adv` is the
/// advective tendency prepared by [`advect_velocity`] (stored in `force`),
/// `g` acts on the radial component only, and `J×B` is averaged from
/// edges to faces (`sv2cv`/`interp` routine sites).
#[allow(clippy::too_many_arguments)]
pub fn momentum_update(
    par: &mut Par,
    grid: &SphericalGrid,
    v: &mut VecField,
    force: &VecField,
    pres: &Field,
    jf: &VecField,
    b: &VecField,
    rho_face: &VecField,
    dt: f64,
    gravity: bool,
) {
    let (nr, nt, np) = (grid.nr, grid.nt, grid.np);
    let (rf, rc_inv) = (&grid.rf, &grid.rc_inv);
    let st_c_inv = &grid.st_c_inv;
    let (dfr_inv, dft_inv, dfp_inv) = (&grid.r.df_inv, &grid.t.df_inv, &grid.p.df_inv);
    let g0 = if gravity { G0 } else { 0.0 };
    par.region(|par| {
        // --- r-component ---
        let space = IndexSpace3::interior_trimmed(Stagger::FaceR, nr, nt, np, (1, 0, 0));
        let reads = [
            pres.buf(), jf.t.buf(), jf.p.buf(), b.t.buf(), b.p.buf(),
            rho_face.r.buf(), force.r.buf(), v.r.buf(),
        ];
        let writes = [v.r.buf()];
        let vr = v.r.data.par_view();
        let (pd, jt, jp, bt, bp, rf_r, adv) = (
            &pres.data, &jf.t.data, &jf.p.data,
            &b.t.data, &b.p.data, &rho_face.r.data, &force.r.data,
        );
        let (i0, i1) = (space.i0, space.i1);
        let dfr_inv_s = &dfr_inv[i0..i1];
        let rf_s = &rf[i0..i1];
        par.loop3_rows(&sites::MOMENTUM_R, space, Traffic::new(16, 1, 36), &reads, &writes, |j, k| {
            let pd_c = pd.row(i0, i1, j, k);
            let pd_im = pd.row(i0 - 1, i1 - 1, j, k);
            let jt_k = jt.row(i0, i1, j, k);
            let jt_kp = jt.row(i0, i1, j, k + 1);
            let jp_j = jp.row(i0, i1, j, k);
            let jp_jp = jp.row(i0, i1, j + 1, k);
            let bp_im_k = bp.row(i0 - 1, i1 - 1, j, k);
            let bp_i_k = bp.row(i0, i1, j, k);
            let bp_im_kp = bp.row(i0 - 1, i1 - 1, j, k + 1);
            let bp_i_kp = bp.row(i0, i1, j, k + 1);
            let bt_im_j = bt.row(i0 - 1, i1 - 1, j, k);
            let bt_i_j = bt.row(i0, i1, j, k);
            let bt_im_jp = bt.row(i0 - 1, i1 - 1, j + 1, k);
            let bt_i_jp = bt.row(i0, i1, j + 1, k);
            let rho_row = rf_r.row(i0, i1, j, k);
            let adv_row = adv.row(i0, i1, j, k);
            let out = vr.row_mut(i0, i1, j, k);
            for n in 0..out.len() {
                let gradp = (pd_c[n] - pd_im[n]) * dfr_inv_s[n];
                // J×B r-component on the r-face: J_θ B̄_φ − J_φ B̄_θ.
                let jt_f = avg2(jt_k[n], jt_kp[n]);
                let jp_f = avg2(jp_j[n], jp_jp[n]);
                let bp_f = sv2cv(bp_im_k[n], bp_i_k[n], bp_im_kp[n], bp_i_kp[n]);
                let bt_f = sv2cv(bt_im_j[n], bt_i_j[n], bt_im_jp[n], bt_i_jp[n]);
                let lorentz = jt_f * bp_f - jp_f * bt_f;
                let rho_f = rho_row[n].max(1e-10);
                let grav = -g0 / (rf_s[n] * rf_s[n]);
                let dv = dt * ((lorentz - gradp) / rho_f + grav + adv_row[n]);
                out[n] += dv;
            }
        });

        // --- θ-component ---
        let space = IndexSpace3::interior_trimmed(Stagger::FaceT, nr, nt, np, (0, 1, 0));
        let reads = [
            pres.buf(), jf.r.buf(), jf.p.buf(), b.r.buf(), b.p.buf(),
            rho_face.t.buf(), force.t.buf(), v.t.buf(),
        ];
        let writes = [v.t.buf()];
        let vt = v.t.data.par_view();
        let (pd, jr, jp, br, bp, rf_t, adv) = (
            &pres.data, &jf.r.data, &jf.p.data,
            &b.r.data, &b.p.data, &rho_face.t.data, &force.t.data,
        );
        let (i0, i1) = (space.i0, space.i1);
        let rc_inv_s = &rc_inv[i0..i1];
        par.loop3_rows(&sites::MOMENTUM_T, space, Traffic::new(16, 1, 36), &reads, &writes, |j, k| {
            let pd_c = pd.row(i0, i1, j, k);
            let pd_jm = pd.row(i0, i1, j - 1, k);
            let jp_i = jp.row(i0, i1, j, k);
            let jp_ip = jp.row(i0 + 1, i1 + 1, j, k);
            let jr_k = jr.row(i0, i1, j, k);
            let jr_kp = jr.row(i0, i1, j, k + 1);
            let br_jm_i = br.row(i0, i1, j - 1, k);
            let br_j_i = br.row(i0, i1, j, k);
            let br_jm_ip = br.row(i0 + 1, i1 + 1, j - 1, k);
            let br_j_ip = br.row(i0 + 1, i1 + 1, j, k);
            let bp_jm_k = bp.row(i0, i1, j - 1, k);
            let bp_j_k = bp.row(i0, i1, j, k);
            let bp_jm_kp = bp.row(i0, i1, j - 1, k + 1);
            let bp_j_kp = bp.row(i0, i1, j, k + 1);
            let rho_row = rf_t.row(i0, i1, j, k);
            let adv_row = adv.row(i0, i1, j, k);
            let dft_j = dft_inv[j];
            let out = vt.row_mut(i0, i1, j, k);
            for n in 0..out.len() {
                let gradp = rc_inv_s[n] * (pd_c[n] - pd_jm[n]) * dft_j;
                // (J×B)_θ = J_φ B̄_r − J_r B̄_φ on the θ-face.
                let jp_f = avg2(jp_i[n], jp_ip[n]);
                let jr_f = avg2(jr_k[n], jr_kp[n]);
                let br_f = sv2cv(br_jm_i[n], br_j_i[n], br_jm_ip[n], br_j_ip[n]);
                let bp_f = sv2cv(bp_jm_k[n], bp_j_k[n], bp_jm_kp[n], bp_j_kp[n]);
                let lorentz = jp_f * br_f - jr_f * bp_f;
                let rho_f = rho_row[n].max(1e-10);
                let dv = dt * ((lorentz - gradp) / rho_f + adv_row[n]);
                out[n] += dv;
            }
        });

        // --- φ-component ---
        let space = IndexSpace3::interior(Stagger::FaceP, nr, nt, np);
        let reads = [
            pres.buf(), jf.r.buf(), jf.t.buf(), b.r.buf(), b.t.buf(),
            rho_face.p.buf(), force.p.buf(), v.p.buf(),
        ];
        let writes = [v.p.buf()];
        let vp = v.p.data.par_view();
        let (pd, jr, jt, br, bt, rf_p, adv) = (
            &pres.data, &jf.r.data, &jf.t.data,
            &b.r.data, &b.t.data, &rho_face.p.data, &force.p.data,
        );
        let (i0, i1) = (space.i0, space.i1);
        let rc_inv_s = &rc_inv[i0..i1];
        par.loop3_rows(&sites::MOMENTUM_P, space, Traffic::new(16, 1, 36), &reads, &writes, |j, k| {
            let pd_c = pd.row(i0, i1, j, k);
            let pd_km = pd.row(i0, i1, j, k - 1);
            let jr_j = jr.row(i0, i1, j, k);
            let jr_jp = jr.row(i0, i1, j + 1, k);
            let jt_i = jt.row(i0, i1, j, k);
            let jt_ip = jt.row(i0 + 1, i1 + 1, j, k);
            let bt_j_km = bt.row(i0, i1, j, k - 1);
            let bt_j_k = bt.row(i0, i1, j, k);
            let bt_jp_km = bt.row(i0, i1, j + 1, k - 1);
            let bt_jp_k = bt.row(i0, i1, j + 1, k);
            let br_i_km = br.row(i0, i1, j, k - 1);
            let br_i_k = br.row(i0, i1, j, k);
            let br_ip_km = br.row(i0 + 1, i1 + 1, j, k - 1);
            let br_ip_k = br.row(i0 + 1, i1 + 1, j, k);
            let rho_row = rf_p.row(i0, i1, j, k);
            let adv_row = adv.row(i0, i1, j, k);
            let (stc_j, dfp_k) = (st_c_inv[j], dfp_inv[k]);
            let out = vp.row_mut(i0, i1, j, k);
            for n in 0..out.len() {
                let gradp = rc_inv_s[n] * stc_j * (pd_c[n] - pd_km[n]) * dfp_k;
                // (J×B)_φ = J_r B̄_θ − J_θ B̄_r on the φ-face.
                let jr_f = avg2(jr_j[n], jr_jp[n]);
                let jt_f = avg2(jt_i[n], jt_ip[n]);
                let bt_f = sv2cv(bt_j_km[n], bt_j_k[n], bt_jp_km[n], bt_jp_k[n]);
                let br_f = sv2cv(br_i_km[n], br_i_k[n], br_ip_km[n], br_ip_k[n]);
                let lorentz = jr_f * bt_f - jt_f * br_f;
                let rho_f = rho_row[n].max(1e-10);
                let dv = dt * ((lorentz - gradp) / rho_f + adv_row[n]);
                out[n] += dv;
            }
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::DeviceSpec;
    use stdpar::CodeVersion;

    fn setup() -> (SphericalGrid, Par) {
        let g = SphericalGrid::coronal(12, 10, 8, 8.0);
        let mut p = Par::builder(DeviceSpec::a100_40gb()).version(CodeVersion::Ad).build();
        p.ctx.set_phase(gpusim::Phase::Compute);
        (g, p)
    }

    fn reg(par: &mut Par, f: &mut Field) {
        let id = par.ctx.mem.register(f.data.bytes(), f.name);
        f.buf = Some(id);
        par.ctx.enter_data(id);
    }

    fn reg_vec(par: &mut Par, v: &mut VecField) {
        for c in v.comps_mut() {
            reg(par, c);
        }
    }

    #[test]
    fn pressure_is_rho_t() {
        let (g, mut par) = setup();
        let mut rho = Field::constant("rho", Stagger::CellCenter, &g, 2.0);
        let mut temp = Field::constant("temp", Stagger::CellCenter, &g, 3.0);
        let mut pres = Field::zeros("pres", Stagger::CellCenter, &g);
        reg(&mut par, &mut rho);
        reg(&mut par, &mut temp);
        reg(&mut par, &mut pres);
        pressure(&mut par, &g, &mut pres, &rho, &temp);
        assert_eq!(pres.data.get(4, 4, 4), 6.0);
    }

    #[test]
    fn current_of_uniform_bz_like_field() {
        // A curl-free field (dipole from a potential) gives small J; a
        // toroidal Bφ ∝ 1/(r sinθ) gives J_r = J_θ = 0 analytically... use
        // simplest smoke check: B = 0 => J = 0.
        let (g, mut par) = setup();
        let mut b = VecField::zeros_faces("b", &g);
        let mut j = VecField::zeros_edges("j", &g);
        reg_vec(&mut par, &mut b);
        reg_vec(&mut par, &mut j);
        current(&mut par, &g, &mut j, &b);
        for c in j.comps() {
            assert_eq!(c.data.max_abs(&c.interior()), 0.0);
        }
    }

    #[test]
    fn pressure_gradient_accelerates_toward_low_pressure() {
        let (g, mut par) = setup();
        let mut rho = Field::constant("rho", Stagger::CellCenter, &g, 1.0);
        let mut temp = Field::zeros("temp", Stagger::CellCenter, &g);
        // Pressure decreasing with radius: force should push outward.
        temp.init_with(&g, |r, _, _| 2.0 / r);
        let mut pres = Field::zeros("pres", Stagger::CellCenter, &g);
        let mut v = VecField::zeros_faces("v", &g);
        let mut force = VecField::zeros_faces("force", &g);
        let mut jf = VecField::zeros_edges("j", &g);
        let mut b = VecField::zeros_faces("b", &g);
        let mut rho_face = VecField::zeros_faces("rho_face", &g);
        reg(&mut par, &mut rho);
        reg(&mut par, &mut temp);
        reg(&mut par, &mut pres);
        reg_vec(&mut par, &mut v);
        reg_vec(&mut par, &mut force);
        reg_vec(&mut par, &mut jf);
        reg_vec(&mut par, &mut b);
        reg_vec(&mut par, &mut rho_face);
        pressure(&mut par, &g, &mut pres, &rho, &temp);
        rho_to_faces(&mut par, &g, &mut rho_face, &rho);
        momentum_update(
            &mut par, &g, &mut v, &force, &pres, &jf, &b, &rho_face, 0.01, false,
        );
        // Interior r-face velocity must be positive (outward).
        let val = v.r.data.get(5, 5, 4);
        assert!(val > 0.0, "outward acceleration expected, got {val}");
    }

    #[test]
    fn gravity_pulls_inward() {
        let (g, mut par) = setup();
        let mut rho = Field::constant("rho", Stagger::CellCenter, &g, 1.0);
        let mut pres = Field::zeros("pres", Stagger::CellCenter, &g);
        let mut v = VecField::zeros_faces("v", &g);
        let mut force = VecField::zeros_faces("force", &g);
        let mut jf = VecField::zeros_edges("j", &g);
        let mut b = VecField::zeros_faces("b", &g);
        let mut rho_face = VecField::zeros_faces("rho_face", &g);
        reg(&mut par, &mut rho);
        reg(&mut par, &mut pres);
        reg_vec(&mut par, &mut v);
        reg_vec(&mut par, &mut force);
        reg_vec(&mut par, &mut jf);
        reg_vec(&mut par, &mut b);
        reg_vec(&mut par, &mut rho_face);
        rho_to_faces(&mut par, &g, &mut rho_face, &rho);
        momentum_update(
            &mut par, &g, &mut v, &force, &pres, &jf, &b, &rho_face, 0.01, true,
        );
        assert!(v.r.data.get(5, 5, 4) < 0.0, "gravity must pull inward");
    }

    #[test]
    fn advect_velocity_zero_for_uniform_flow() {
        let (g, mut par) = setup();
        let mut v = VecField::zeros_faces("v", &g);
        // Uniform vr: advection of a constant field is zero.
        v.r.data.fill(0.7);
        let mut force = VecField::zeros_faces("force", &g);
        reg_vec(&mut par, &mut v);
        reg_vec(&mut par, &mut force);
        advect_velocity(&mut par, &g, &mut force, &v);
        let blk = IndexSpace3::interior_trimmed(Stagger::FaceR, g.nr, g.nt, g.np, (1, 1, 1));
        blk.for_each(|i, j, k| {
            let a = force.r.data.get(i, j, k);
            assert!(a.abs() < 1e-12, "uniform flow advection at ({i},{j},{k}) = {a}");
        });
    }
}
