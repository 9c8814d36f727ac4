//! Upwind (donor-cell) advection of mass and temperature.
//!
//! Gradients at a staggered point use the spacing between that point and
//! its neighbour *on the same lattice* (faces ↔ `dc`, centers ↔ `df`).

use crate::ops::deriv::DivGeom;
use crate::ops::interp::{avg2, upwind};
use crate::sites;
use gpusim::Traffic;
use mas_field::{Field, VecField};
use mas_grid::{IndexSpace3, SphericalGrid, Stagger};
use stdpar::Par;

/// Compute the upwind mass fluxes `F = ρ_up v` on all three face families
/// into `flux`. The three loops are data-independent, so the OpenACC
/// version fuses them into one kernel (one `parallel` region).
pub fn mass_fluxes(par: &mut Par, grid: &SphericalGrid, flux: &mut VecField, rho: &Field, v: &VecField) {
    let (nr, nt, np) = (grid.nr, grid.nt, grid.np);
    par.region(|par| {
        // r-faces: interior faces only (boundary faces handled by BCs).
        let space = IndexSpace3::interior_trimmed(Stagger::FaceR, nr, nt, np, (1, 0, 0));
        let reads = [rho.buf(), v.r.buf()];
        let writes = [flux.r.buf()];
        let fr = flux.r.data.par_view();
        let (rd, vr) = (&rho.data, &v.r.data);
        let (i0, i1) = (space.i0, space.i1);
        par.loop3_rows(&sites::MASS_FLUX_R, space, Traffic::new(3, 1, 3), &reads, &writes, |j, k| {
            let vel = vr.row(i0, i1, j, k);
            let r_up = rd.row(i0 - 1, i1 - 1, j, k);
            let r_dn = rd.row(i0, i1, j, k);
            let out = fr.row_mut(i0, i1, j, k);
            for n in 0..out.len() {
                out[n] = vel[n] * upwind(vel[n], r_up[n], r_dn[n]);
            }
        });

        let space = IndexSpace3::interior_trimmed(Stagger::FaceT, nr, nt, np, (0, 1, 0));
        let reads = [rho.buf(), v.t.buf()];
        let writes = [flux.t.buf()];
        let ft = flux.t.data.par_view();
        let (rd, vt) = (&rho.data, &v.t.data);
        let (i0, i1) = (space.i0, space.i1);
        par.loop3_rows(&sites::MASS_FLUX_T, space, Traffic::new(3, 1, 3), &reads, &writes, |j, k| {
            let vel = vt.row(i0, i1, j, k);
            let r_up = rd.row(i0, i1, j - 1, k);
            let r_dn = rd.row(i0, i1, j, k);
            let out = ft.row_mut(i0, i1, j, k);
            for n in 0..out.len() {
                out[n] = vel[n] * upwind(vel[n], r_up[n], r_dn[n]);
            }
        });

        // φ-faces: all faces are interior (periodic; ghosts filled by halo).
        let space = IndexSpace3::interior(Stagger::FaceP, nr, nt, np);
        let reads = [rho.buf(), v.p.buf()];
        let writes = [flux.p.buf()];
        let fp = flux.p.data.par_view();
        let (rd, vp) = (&rho.data, &v.p.data);
        let (i0, i1) = (space.i0, space.i1);
        par.loop3_rows(&sites::MASS_FLUX_P, space, Traffic::new(3, 1, 3), &reads, &writes, |j, k| {
            let vel = vp.row(i0, i1, j, k);
            let r_up = rd.row(i0, i1, j, k - 1);
            let r_dn = rd.row(i0, i1, j, k);
            let out = fp.row_mut(i0, i1, j, k);
            for n in 0..out.len() {
                out[n] = vel[n] * upwind(vel[n], r_up[n], r_dn[n]);
            }
        });
    });
}

/// Conservative continuity update `ρ ← ρ − Δt ∇·F`.
pub fn continuity(par: &mut Par, grid: &SphericalGrid, geom: &DivGeom, rho: &mut Field, flux: &VecField, dt: f64) {
    let space = IndexSpace3::interior(Stagger::CellCenter, grid.nr, grid.nt, grid.np);
    let reads = [flux.r.buf(), flux.t.buf(), flux.p.buf(), rho.buf()];
    let writes = [rho.buf()];
    let rd = rho.data.par_view();
    let (fr, ft, fp) = (&flux.r.data, &flux.t.data, &flux.p.data);
    let (i0, i1) = (space.i0, space.i1);
    par.loop3_rows(&sites::DIV_MASS_FLUX, space, Traffic::new(7, 1, 14), &reads, &writes, |j, k| {
        let out = rd.row_mut(i0, i1, j, k);
        geom.div_row(fr, ft, fp, i0, i1, j, k, |n, d| out[n] += -dt * d);
    });
}

/// Temperature advection and adiabatic compression:
/// `T ← T − Δt (v·∇T + (γ−1) T ∇·v)` with upwind gradients.
pub fn advect_temperature(
    par: &mut Par,
    grid: &SphericalGrid,
    geom: &DivGeom,
    temp: &mut Field,
    v: &VecField,
    dt: f64,
    gamma: f64,
) {
    advect_temperature_at(par, &sites::TEMP_ADVECT, grid, geom, temp, v, dt, gamma);
}

/// [`advect_temperature`] with an explicit site declaration.
///
/// The production site is [`sites::TEMP_ADVECT`], which is declared
/// [`Site::serial`](stdpar::Site::serial) because the upwind φ gradient
/// reads the written array at `k ± 1` — a k-neighbour recurrence that is
/// not `do concurrent`-legal over k-tiles. Exposing the site lets the
/// race-audit tests re-declare the *same physics body* as
/// `Tiling::Outer` (the pre-PR-1 mistake) and assert the dynamic auditor
/// flags it; production code should always call [`advect_temperature`].
#[allow(clippy::too_many_arguments)]
pub fn advect_temperature_at(
    par: &mut Par,
    site: &stdpar::Site,
    grid: &SphericalGrid,
    geom: &DivGeom,
    temp: &mut Field,
    v: &VecField,
    dt: f64,
    gamma: f64,
) {
    let space = IndexSpace3::interior(Stagger::CellCenter, grid.nr, grid.nt, grid.np);
    let reads = [temp.buf(), v.r.buf(), v.t.buf(), v.p.buf()];
    let writes = [temp.buf()];
    // `td` is both read (at j ± 1, k ± 1) and written: sites::TEMP_ADVECT
    // is declared `serial()`, so the engine runs the rows in Fortran order
    // on one thread, and rows j - 1 and k - 1 already hold new values.
    let td = temp.data.par_view();
    let (vr, vt, vp) = (&v.r.data, &v.t.data, &v.p.data);
    let (rc_inv, st_c_inv) = (&grid.rc_inv, &grid.st_c_inv);
    let (dfr, dft, dfp) = (&grid.r.df, &grid.t.df, &grid.p.df);
    let gm1 = gamma - 1.0;
    let (i0, i1) = (space.i0, space.i1);
    par.loop3_rows(site, space, Traffic::new(12, 1, 30), &reads, &writes, |j, k| {
        // One window over the row and its two r ghosts: `w[n + 1]` is T
        // at `i0 + n`. Updating it in place in ascending i makes the
        // `i - 1` read see the new value and the `i + 1` read the old
        // one, as a point-by-point sweep does.
        let w = td.row_mut(i0 - 1, i1 + 1, j, k);
        let (t_jm, t_jp) = (td.row(i0, i1, j - 1, k), td.row(i0, i1, j + 1, k));
        let (t_km, t_kp) = (td.row(i0, i1, j, k - 1), td.row(i0, i1, j, k + 1));
        let (vr_c, vr_p) = (vr.row(i0, i1, j, k), vr.row(i0 + 1, i1 + 1, j, k));
        let (vt_c, vt_p) = (vt.row(i0, i1, j, k), vt.row(i0, i1, j + 1, k));
        let (vp_c, vp_p) = (vp.row(i0, i1, j, k), vp.row(i0, i1, j, k + 1));
        geom.div_row(vr, vt, vp, i0, i1, j, k, |n, divv| {
            let i = i0 + n;
            let t0 = w[n + 1];
            // Cell-centered advecting velocity.
            let vrc = avg2(vr_c[n], vr_p[n]);
            let vtc = avg2(vt_c[n], vt_p[n]);
            let vpc = avg2(vp_c[n], vp_p[n]);
            // Upwind one-sided gradients.
            let dtr = if vrc >= 0.0 {
                (t0 - w[n]) / dfr[i]
            } else {
                (w[n + 2] - t0) / dfr[i + 1]
            };
            let dtt = rc_inv[i]
                * if vtc >= 0.0 {
                    (t0 - t_jm[n]) / dft[j]
                } else {
                    (t_jp[n] - t0) / dft[j + 1]
                };
            let dtp = rc_inv[i]
                * st_c_inv[j]
                * if vpc >= 0.0 {
                    (t0 - t_km[n]) / dfp[k]
                } else {
                    (t_kp[n] - t0) / dfp[k + 1]
                };
            w[n + 1] = t0 - dt * (vrc * dtr + vtc * dtt + vpc * dtp + gm1 * t0 * divv);
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::DeviceSpec;
    use mas_grid::NGHOST;
    use stdpar::CodeVersion;

    fn setup() -> (SphericalGrid, Par) {
        let g = SphericalGrid::coronal(12, 10, 8, 8.0);
        let mut p = Par::builder(DeviceSpec::a100_40gb()).version(CodeVersion::Ad).build();
        p.ctx.set_phase(gpusim::Phase::Compute);
        (g, p)
    }

    fn register(par: &mut Par, f: &mut Field) {
        let id = par.ctx.mem.register(f.data.bytes(), f.name);
        f.buf = Some(id);
        par.ctx.enter_data(id);
    }

    #[test]
    fn uniform_rho_zero_v_is_steady() {
        let (g, mut par) = setup();
        let mut rho = Field::constant("rho", Stagger::CellCenter, &g, 2.0);
        let mut v = VecField::zeros_faces("v", &g);
        let mut flux = VecField::zeros_faces("flux", &g);
        register(&mut par, &mut rho);
        for c in v.comps_mut() {
            register(&mut par, c);
        }
        for c in flux.comps_mut() {
            register(&mut par, c);
        }
        let geom = DivGeom::new(&g);
        mass_fluxes(&mut par, &g, &mut flux, &rho, &v);
        continuity(&mut par, &g, &geom, &mut rho, &flux, 0.1);
        let blk = rho.interior();
        blk.for_each(|i, j, k| assert_eq!(rho.data.get(i, j, k), 2.0));
    }

    #[test]
    fn continuity_conserves_mass_with_closed_boundaries() {
        let (g, mut par) = setup();
        let mut rho = Field::zeros("rho", Stagger::CellCenter, &g);
        rho.init_with(&g, |r, t, p| 1.0 + 0.3 * (t.sin() * p.cos()) / r);
        let mut v = VecField::zeros_faces("v", &g);
        // Random-ish interior velocity; boundary faces left at zero, and
        // the flux kernels don't touch the boundary faces => closed box
        // except in φ (periodic; handled by ghost copy below).
        v.r.init_with(&g, |r, t, p| 0.05 * (r + t + p).sin());
        v.t.init_with(&g, |r, t, p| 0.04 * (r * t - p).cos());
        v.p.init_with(&g, |r, t, p| 0.03 * (r - t + 2.0 * p).sin());
        // Zero the boundary r/θ faces explicitly (closed box).
        let gn = NGHOST;
        for k in 0..v.r.data.s3 {
            for j in 0..v.r.data.s2 {
                v.r.data.set(gn, j, k, 0.0);
                v.r.data.set(gn + g.nr, j, k, 0.0);
            }
        }
        for k in 0..v.t.data.s3 {
            for i in 0..v.t.data.s1 {
                v.t.data.set(i, gn, k, 0.0);
                v.t.data.set(i, gn + g.nt, k, 0.0);
            }
        }
        let mut flux = VecField::zeros_faces("flux", &g);
        register(&mut par, &mut rho);
        for c in v.comps_mut() {
            register(&mut par, c);
        }
        for c in flux.comps_mut() {
            register(&mut par, c);
        }
        // Periodic wrap of ρ ghosts so φ upwinding is consistent.
        let wrap = |a: &mut mas_field::Array3| {
            let n3 = a.n3;
            let mut buf = vec![0.0; a.k_plane_len()];
            a.pack_k(gn + n3 - 1, &mut buf);
            a.unpack_k(gn - 1, &buf);
            let mut buf2 = vec![0.0; a.k_plane_len()];
            a.pack_k(gn, &mut buf2);
            a.unpack_k(gn + n3, &buf2);
        };
        wrap(&mut rho.data);
        // φ boundary *faces* of v_p must match periodically: face at k=g
        // and k=g+np are the same physical face.
        for j in 0..v.p.data.s2 {
            for i in 0..v.p.data.s1 {
                let lo = v.p.data.get(i, j, gn);
                v.p.data.set(i, j, gn + g.np, lo);
            }
        }

        let geom = DivGeom::new(&g);
        let mass0: f64 = {
            let mut m = 0.0;
            rho.interior().for_each(|i, j, k| m += rho.data.get(i, j, k) * g.cell_volume(i, j, k));
            m
        };
        mass_fluxes(&mut par, &g, &mut flux, &rho, &v);
        continuity(&mut par, &g, &geom, &mut rho, &flux, 0.05);
        let mass1: f64 = {
            let mut m = 0.0;
            rho.interior().for_each(|i, j, k| m += rho.data.get(i, j, k) * g.cell_volume(i, j, k));
            m
        };
        assert!(
            ((mass1 - mass0) / mass0).abs() < 1e-12,
            "mass drifted: {mass0} -> {mass1}"
        );
    }

    #[test]
    fn temperature_compression_heats_converging_flow() {
        let (g, mut par) = setup();
        let mut temp = Field::constant("temp", Stagger::CellCenter, &g, 1.0);
        let mut v = VecField::zeros_faces("v", &g);
        // Converging radial flow: vr < 0 increasing inward => div v < 0.
        v.r.init_with(&g, |r, _, _| -0.1 * (r - 1.0));
        register(&mut par, &mut temp);
        for c in v.comps_mut() {
            register(&mut par, c);
        }
        let geom = DivGeom::new(&g);
        let t_before = temp.data.get(5, 5, 5);
        advect_temperature(&mut par, &g, &geom, &mut temp, &v, 0.1, 5.0 / 3.0);
        let t_after = temp.data.get(5, 5, 5);
        assert!(
            t_after > t_before,
            "compression must heat: {t_before} -> {t_after}"
        );
    }
}
