//! Resistive induction: EMF assembly on edges and the constrained-
//! transport update of the face magnetic field.

use crate::ops::deriv::CtGeom;
use crate::ops::interp::{avg2, c2s};
use crate::sites;
use gpusim::Traffic;
use mas_field::VecField;
use mas_grid::{IndexSpace3, SphericalGrid, Stagger};
use stdpar::Par;

/// Assemble the electromotive force `E = −v×B + ηJ` on all three edge
/// families. The `v` and `B` face components are averaged to the edges
/// with the `c2s`/`sv2cv` routine calls the paper's Codes 5–6 must inline.
pub fn emf(
    par: &mut Par,
    grid: &SphericalGrid,
    e_out: &mut VecField,
    v: &VecField,
    b: &VecField,
    j: &VecField,
    eta: f64,
) {
    let (nr, nt, np) = (grid.nr, grid.nt, grid.np);
    par.region(|par| {
        // E_r on r-edges (r-cell i, θ-face j, φ-face k):
        // E_r = −(v̄_θ B̄_φ − v̄_φ B̄_θ) + η J_r.
        let space = IndexSpace3::interior_trimmed(Stagger::EdgeR, nr, nt, np, (0, 1, 0));
        let reads = [v.t.buf(), v.p.buf(), b.t.buf(), b.p.buf(), j.r.buf()];
        let writes = [e_out.r.buf()];
        let er = e_out.r.data.par_view();
        let (vt, vp, bt, bp, jr) = (
            &v.t.data, &v.p.data, &b.t.data, &b.p.data, &j.r.data,
        );
        let (i0, i1) = (space.i0, space.i1);
        par.loop3_rows(&sites::EMF_R, space, Traffic::new(9, 1, 16), &reads, &writes, |jx, k| {
            let vt_km = vt.row(i0, i1, jx, k - 1);
            let vt_c = vt.row(i0, i1, jx, k);
            let vp_jm = vp.row(i0, i1, jx - 1, k);
            let vp_c = vp.row(i0, i1, jx, k);
            let bt_km = bt.row(i0, i1, jx, k - 1);
            let bt_c = bt.row(i0, i1, jx, k);
            let bp_jm = bp.row(i0, i1, jx - 1, k);
            let bp_c = bp.row(i0, i1, jx, k);
            let jr_row = jr.row(i0, i1, jx, k);
            let out = er.row_mut(i0, i1, jx, k);
            for n in 0..out.len() {
                let vt_e = avg2(vt_km[n], vt_c[n]);
                let vp_e = avg2(vp_jm[n], vp_c[n]);
                let bt_e = c2s(bt_km[n], bt_c[n]);
                let bp_e = c2s(bp_jm[n], bp_c[n]);
                out[n] = -(vt_e * bp_e - vp_e * bt_e) + eta * jr_row[n];
            }
        });

        // E_θ on θ-edges (r-face i, θ-cell j, φ-face k):
        // E_θ = −(v̄_φ B̄_r − v̄_r B̄_φ) + η J_θ.
        let space = IndexSpace3::interior_trimmed(Stagger::EdgeT, nr, nt, np, (1, 0, 0));
        let reads = [v.p.buf(), v.r.buf(), b.r.buf(), b.p.buf(), j.t.buf()];
        let writes = [e_out.t.buf()];
        let et = e_out.t.data.par_view();
        let (vp, vr, br, bp, jt) = (
            &v.p.data, &v.r.data, &b.r.data, &b.p.data, &j.t.data,
        );
        let (i0, i1) = (space.i0, space.i1);
        par.loop3_rows(&sites::EMF_T, space, Traffic::new(9, 1, 16), &reads, &writes, |jx, k| {
            let vp_im = vp.row(i0 - 1, i1 - 1, jx, k);
            let vp_c = vp.row(i0, i1, jx, k);
            let vr_km = vr.row(i0, i1, jx, k - 1);
            let vr_c = vr.row(i0, i1, jx, k);
            let br_km = br.row(i0, i1, jx, k - 1);
            let br_c = br.row(i0, i1, jx, k);
            let bp_im = bp.row(i0 - 1, i1 - 1, jx, k);
            let bp_c = bp.row(i0, i1, jx, k);
            let jt_row = jt.row(i0, i1, jx, k);
            let out = et.row_mut(i0, i1, jx, k);
            for n in 0..out.len() {
                let vp_e = avg2(vp_im[n], vp_c[n]);
                let vr_e = avg2(vr_km[n], vr_c[n]);
                let br_e = c2s(br_km[n], br_c[n]);
                let bp_e = c2s(bp_im[n], bp_c[n]);
                out[n] = -(vp_e * br_e - vr_e * bp_e) + eta * jt_row[n];
            }
        });

        // E_φ on φ-edges (r-face i, θ-face j, φ-cell k):
        // E_φ = −(v̄_r B̄_θ − v̄_θ B̄_r) + η J_φ.
        let space = IndexSpace3::interior_trimmed(Stagger::EdgeP, nr, nt, np, (1, 1, 0));
        let reads = [v.r.buf(), v.t.buf(), b.r.buf(), b.t.buf(), j.p.buf()];
        let writes = [e_out.p.buf()];
        let ep = e_out.p.data.par_view();
        let (vr, vt, br, bt, jp) = (
            &v.r.data, &v.t.data, &b.r.data, &b.t.data, &j.p.data,
        );
        let (i0, i1) = (space.i0, space.i1);
        par.loop3_rows(&sites::EMF_P, space, Traffic::new(9, 1, 16), &reads, &writes, |jx, k| {
            let vr_jm = vr.row(i0, i1, jx - 1, k);
            let vr_c = vr.row(i0, i1, jx, k);
            let vt_im = vt.row(i0 - 1, i1 - 1, jx, k);
            let vt_c = vt.row(i0, i1, jx, k);
            let br_jm = br.row(i0, i1, jx - 1, k);
            let br_c = br.row(i0, i1, jx, k);
            let bt_im = bt.row(i0 - 1, i1 - 1, jx, k);
            let bt_c = bt.row(i0, i1, jx, k);
            let jp_row = jp.row(i0, i1, jx, k);
            let out = ep.row_mut(i0, i1, jx, k);
            for n in 0..out.len() {
                let vr_e = avg2(vr_jm[n], vr_c[n]);
                let vt_e = avg2(vt_im[n], vt_c[n]);
                let br_e = c2s(br_jm[n], br_c[n]);
                let bt_e = c2s(bt_im[n], bt_c[n]);
                out[n] = -(vr_e * bt_e - vt_e * br_e) + eta * jp_row[n];
            }
        });
    });
}

/// Constrained-transport update `B ← B − Δt (∇×E)` in exact circulation
/// form. Boundary faces (and zero-area polar faces) are skipped; they are
/// governed by the boundary conditions.
pub fn ct_update(par: &mut Par, grid: &SphericalGrid, ct: &CtGeom, b: &mut VecField, e: &VecField, dt: f64) {
    let (nr, nt, np) = (grid.nr, grid.nt, grid.np);
    par.region(|par| {
        let space = IndexSpace3::interior_trimmed(Stagger::FaceR, nr, nt, np, (1, 0, 0));
        let reads = [e.t.buf(), e.p.buf(), b.r.buf()];
        let writes = [b.r.buf()];
        let br = b.r.data.par_view();
        let (et, ep) = (&e.t.data, &e.p.data);
        let (i0, i1) = (space.i0, space.i1);
        par.loop3_rows(&sites::CT_BR, space, Traffic::new(6, 1, 14), &reads, &writes, |j, k| {
            let out = br.row_mut(i0, i1, j, k);
            ct.circ_r_row(et, ep, i0, i1, j, k, |n, c| {
                let a = ct.area_r(i0 + n, j, k);
                out[n] += -dt * c / a;
            });
        });

        // θ-faces: skip polar faces (zero area) — trim one face at each
        // θ end (the local slab always carries the polar faces).
        let trim_t = 1;
        let space = IndexSpace3::interior_trimmed(Stagger::FaceT, nr, nt, np, (0, trim_t, 0));
        let reads = [e.r.buf(), e.p.buf(), b.t.buf()];
        let writes = [b.t.buf()];
        let bt = b.t.data.par_view();
        let (er, ep) = (&e.r.data, &e.p.data);
        let (i0, i1) = (space.i0, space.i1);
        par.loop3_rows(&sites::CT_BT, space, Traffic::new(6, 1, 14), &reads, &writes, |j, k| {
            let out = bt.row_mut(i0, i1, j, k);
            ct.circ_t_row(er, ep, i0, i1, j, k, |n, c| {
                let a = ct.area_t(i0 + n, j, k);
                if a > 0.0 {
                    out[n] += -dt * c / a;
                }
            });
        });

        let space = IndexSpace3::interior(Stagger::FaceP, nr, nt, np);
        let reads = [e.r.buf(), e.t.buf(), b.p.buf()];
        let writes = [b.p.buf()];
        let bp = b.p.data.par_view();
        let (er, et) = (&e.r.data, &e.t.data);
        let (i0, i1) = (space.i0, space.i1);
        par.loop3_rows(&sites::CT_BP, space, Traffic::new(6, 1, 14), &reads, &writes, |j, k| {
            let out = bp.row_mut(i0, i1, j, k);
            ct.circ_p_row(er, et, i0, i1, j, k, |n, c| {
                let a = ct.area_p(i0 + n, j);
                out[n] += -dt * c / a;
            });
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::DeviceSpec;
    use mas_grid::{Mesh1d, NGHOST};
    use stdpar::CodeVersion;

    fn band_grid() -> SphericalGrid {
        let r = Mesh1d::uniform(10, 1.0, 3.0, NGHOST, false);
        let t = Mesh1d::uniform(8, 0.7, std::f64::consts::PI - 0.7, NGHOST, false);
        let p = Mesh1d::uniform(8, 0.0, std::f64::consts::TAU, NGHOST, true);
        SphericalGrid::new(r, t, p)
    }

    fn par() -> Par {
        let mut p = Par::builder(DeviceSpec::a100_40gb()).version(CodeVersion::Ad).build();
        p.ctx.set_phase(gpusim::Phase::Compute);
        p
    }

    fn reg_vec(par: &mut Par, v: &mut VecField) {
        for c in v.comps_mut() {
            let id = par.ctx.mem.register(c.data.bytes(), c.name);
            c.buf = Some(id);
            par.ctx.enter_data(id);
        }
    }

    #[test]
    fn no_flow_no_eta_means_no_emf() {
        let g = band_grid();
        let mut p = par();
        let mut e = VecField::zeros_edges("e", &g);
        let v = {
            let mut v = VecField::zeros_faces("v", &g);
            reg_vec(&mut p, &mut v);
            v
        };
        let mut b = VecField::zeros_faces("b", &g);
        b.r.init_with(&g, |r, t, _| t.cos() / (r * r));
        reg_vec(&mut p, &mut b);
        let mut j = VecField::zeros_edges("j", &g);
        reg_vec(&mut p, &mut j);
        reg_vec(&mut p, &mut e);
        emf(&mut p, &g, &mut e, &v, &b, &j, 0.0);
        for c in e.comps() {
            assert_eq!(c.data.max_abs(&c.interior()), 0.0, "{}", c.name);
        }
    }

    #[test]
    fn ct_step_preserves_divb_from_emf_kernels() {
        // Full pipeline: random-ish v, B; E from the EMF kernels; CT
        // update; ∇·B in the trimmed interior must be unchanged.
        let g = band_grid();
        let ct = CtGeom::new(&g);
        let mut v = VecField::zeros_faces("v", &g);
        v.r.init_with(&g, |r, t, pp| 0.1 * (r + t + pp).sin());
        v.t.init_with(&g, |r, t, pp| 0.1 * (r * t).cos() * pp.sin());
        v.p.init_with(&g, |r, _, pp| 0.1 * (r + 2.0 * pp).cos());
        let mut b = VecField::zeros_faces("b", &g);
        b.r.init_with(&g, |r, t, _| t.cos() / (r * r));
        b.t.init_with(&g, |r, t, pp| t.sin() / r + 0.05 * pp.cos());
        b.p.init_with(&g, |_, t, pp| 0.2 * (t - pp).sin());
        let mut jf = VecField::zeros_edges("j", &g);
        jf.r.init_with(&g, |r, t, pp| 0.03 * (r * t * pp).sin());
        let mut e = VecField::zeros_edges("e", &g);
        let mut pp = par();
        reg_vec(&mut pp, &mut v);
        reg_vec(&mut pp, &mut b);
        reg_vec(&mut pp, &mut jf);
        reg_vec(&mut pp, &mut e);
        emf(&mut pp, &g, &mut e, &v, &b, &jf, 3.0e-3);

        let cells = IndexSpace3::interior_trimmed(Stagger::CellCenter, g.nr, g.nt, g.np, (1, 1, 1));
        let mut div0 = vec![];
        cells.for_each(|i, j, k| div0.push(ct.divb(&b.r.data, &b.t.data, &b.p.data, i, j, k)));
        ct_update(&mut pp, &g, &ct, &mut b, &e, 0.21);
        let mut n = 0;
        cells.for_each(|i, j, k| {
            let d = ct.divb(&b.r.data, &b.t.data, &b.p.data, i, j, k);
            assert!(
                (d - div0[n]).abs() < 1e-9,
                "divB changed at ({i},{j},{k}): {} -> {}",
                div0[n],
                d
            );
            n += 1;
        });
    }

    #[test]
    fn uniform_rotation_of_dipole_preserves_divb_on_full_sphere() {
        // Full-sphere grid including the poles: polar faces are skipped by
        // the CT update; div B in cells away from the axis stays fixed.
        let g = SphericalGrid::coronal(10, 10, 8, 6.0);
        let ct = CtGeom::new(&g);
        let mut pp = par();
        let mut v = VecField::zeros_faces("v", &g);
        v.p.init_with(&g, |r, t, _| r * t.sin() * 0.05); // solid-body rotation
        let mut b = VecField::zeros_faces("b", &g);
        b.r.init_with(&g, |r, t, _| 2.0 * t.cos() / (r * r * r));
        b.t.init_with(&g, |r, t, _| t.sin() / (r * r * r));
        let mut jf = VecField::zeros_edges("j", &g);
        let mut e = VecField::zeros_edges("e", &g);
        reg_vec(&mut pp, &mut v);
        reg_vec(&mut pp, &mut b);
        reg_vec(&mut pp, &mut jf);
        reg_vec(&mut pp, &mut e);
        emf(&mut pp, &g, &mut e, &v, &b, &jf, 0.0);
        let cells = IndexSpace3::interior_trimmed(Stagger::CellCenter, g.nr, g.nt, g.np, (1, 2, 1));
        let mut div0 = vec![];
        cells.for_each(|i, j, k| div0.push(ct.divb(&b.r.data, &b.t.data, &b.p.data, i, j, k)));
        ct_update(&mut pp, &g, &ct, &mut b, &e, 0.1);
        let mut n = 0;
        cells.for_each(|i, j, k| {
            let d = ct.divb(&b.r.data, &b.t.data, &b.p.data, i, j, k);
            assert!((d - div0[n]).abs() < 1e-9, "({i},{j},{k})");
            n += 1;
        });
    }
}
