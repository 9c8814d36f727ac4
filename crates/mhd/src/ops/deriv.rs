//! Metric-aware finite-difference stencils.
//!
//! Everything here is *geometry*: precomputed 1-D coefficient combinations
//! and `#[inline]` evaluation helpers called inside kernel bodies. The
//! flux/circulation forms are exact for the spherical metric, which is
//! what makes the constrained-transport induction update preserve `∇·B`
//! to round-off (verified in the induction tests).

use mas_field::Array3;
use mas_grid::{SphericalGrid, Stagger};

/// Divergence of a face-staggered vector field at cell centers, in exact
/// flux form: `div F = ΣA·F / V`.
#[derive(Clone, Debug)]
pub struct DivGeom {
    /// `1 / ((r_f³ difference)/3)` per r-cell.
    pub dr3_inv: Vec<f64>,
    /// `r_f²` at r-faces.
    pub rf2: Vec<f64>,
    /// `(r_f² difference)/2` per r-cell (θ/φ face area radial factor).
    pub drr2: Vec<f64>,
    /// `sin θ_f` at θ-faces.
    pub st_f: Vec<f64>,
    /// `1 / (cos θ_f[j] − cos θ_f[j+1])` per θ-cell.
    pub dcos_inv: Vec<f64>,
    /// `Δθ` per θ-cell.
    pub dtc: Vec<f64>,
    /// `1/Δφ` per φ-cell.
    pub dpc_inv: Vec<f64>,
}

impl DivGeom {
    /// Precompute from the grid.
    pub fn new(g: &SphericalGrid) -> Self {
        let nrc = g.rc.len();
        let dr3_inv = (0..nrc)
            .map(|i| 3.0 / (g.rf[i + 1].powi(3) - g.rf[i].powi(3)))
            .collect();
        let drr2 = (0..nrc).map(|i| 0.5 * (g.rf2[i + 1] - g.rf2[i])).collect();
        let dcos_inv = g
            .dcos
            .iter()
            .map(|&d| if d.abs() < 1e-300 { 0.0 } else { 1.0 / d })
            .collect();
        Self {
            dr3_inv,
            rf2: g.rf2.clone(),
            drr2,
            st_f: g.st_f.clone(),
            dcos_inv,
            dtc: g.t.dc.clone(),
            dpc_inv: g.p.dc_inv.to_vec(),
        }
    }

    /// Divergence at cell `(i, j, k)` of the face vector `(fr, ft, fp)`.
    #[inline(always)]
    pub fn div(&self, fr: &Array3, ft: &Array3, fp: &Array3, i: usize, j: usize, k: usize) -> f64 {
        let term_r =
            (self.rf2[i + 1] * fr.get(i + 1, j, k) - self.rf2[i] * fr.get(i, j, k)) * self.dr3_inv[i];
        let term_t = (self.st_f[j + 1] * ft.get(i, j + 1, k) - self.st_f[j] * ft.get(i, j, k))
            * self.drr2[i]
            * self.dr3_inv[i]
            * self.dcos_inv[j];
        let term_p = (fp.get(i, j, k + 1) - fp.get(i, j, k))
            * self.drr2[i]
            * self.dtc[j]
            * self.dr3_inv[i]
            * self.dcos_inv[j]
            * self.dpc_inv[k];
        term_r + term_t + term_p
    }

    /// Row form of [`Self::div`]: evaluate the divergence over the
    /// contiguous i-window `i0..i1` at `(j, k)` and hand each value to
    /// `emit(n, div)` with `n = i - i0`. The per-point expression is the
    /// same, term for term, as `div` — row and scalar paths must stay
    /// bit-identical — but the operands come from contiguous row slices,
    /// so the loop autovectorizes.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn div_row(
        &self,
        fr: &Array3,
        ft: &Array3,
        fp: &Array3,
        i0: usize,
        i1: usize,
        j: usize,
        k: usize,
        mut emit: impl FnMut(usize, f64),
    ) {
        let w = i1 - i0;
        let fr_c = fr.row(i0, i1, j, k);
        let fr_p = fr.row(i0 + 1, i1 + 1, j, k);
        let ft_c = ft.row(i0, i1, j, k);
        let ft_p = ft.row(i0, i1, j + 1, k);
        let fp_c = fp.row(i0, i1, j, k);
        let fp_p = fp.row(i0, i1, j, k + 1);
        let rf2 = &self.rf2[i0..i1 + 1];
        let dr3_inv = &self.dr3_inv[i0..i1];
        let drr2 = &self.drr2[i0..i1];
        let (st_lo, st_hi) = (self.st_f[j], self.st_f[j + 1]);
        let (dcos_inv_j, dtc_j, dpc_inv_k) = (self.dcos_inv[j], self.dtc[j], self.dpc_inv[k]);
        for n in 0..w {
            let term_r = (rf2[n + 1] * fr_p[n] - rf2[n] * fr_c[n]) * dr3_inv[n];
            let term_t = (st_hi * ft_p[n] - st_lo * ft_c[n]) * drr2[n] * dr3_inv[n] * dcos_inv_j;
            let term_p =
                (fp_p[n] - fp_c[n]) * drr2[n] * dtc_j * dr3_inv[n] * dcos_inv_j * dpc_inv_k;
            emit(n, term_r + term_t + term_p);
        }
    }
}

/// Constrained-transport geometry: edge lengths, face areas, circulation
/// and face-flux divergence.
#[derive(Clone, Debug)]
pub struct CtGeom {
    /// Edge length along r per r-cell: `Δr`.
    pub l_er: Vec<f64>,
    /// `r_f` at r-faces (θ-edge length factor; multiply by `Δθ`).
    pub rf: Vec<f64>,
    /// `Δθ` per θ-cell.
    pub dtc: Vec<f64>,
    /// `sin θ_f` at θ-faces (φ-edge length factor; multiply by `r_f Δφ`).
    pub st_f: Vec<f64>,
    /// `Δφ` per φ-cell.
    pub dpc: Vec<f64>,
    /// `r_f²` at r-faces.
    pub rf2: Vec<f64>,
    /// `cosθ_f[j] − cosθ_f[j+1]` per θ-cell.
    pub dcos: Vec<f64>,
    /// `(r_f² difference)/2` per r-cell.
    pub drr2: Vec<f64>,
    /// `1/((r_f³ difference)/3)` per r-cell (for div B).
    pub dr3_inv: Vec<f64>,
}

impl CtGeom {
    /// Precompute from the grid.
    pub fn new(g: &SphericalGrid) -> Self {
        let nrc = g.rc.len();
        Self {
            l_er: g.r.dc.clone(),
            rf: g.rf.clone(),
            dtc: g.t.dc.clone(),
            st_f: g.st_f.clone(),
            dpc: g.p.dc.clone(),
            rf2: g.rf2.clone(),
            dcos: g.dcos.clone(),
            drr2: (0..nrc).map(|i| 0.5 * (g.rf2[i + 1] - g.rf2[i])).collect(),
            dr3_inv: (0..nrc)
                .map(|i| 3.0 / (g.rf[i + 1].powi(3) - g.rf[i].powi(3)))
                .collect(),
        }
    }

    /// Length of the φ-edge at `(r-face i, θ-face j, φ-cell k)`.
    #[inline(always)]
    pub fn len_ep(&self, i: usize, j: usize, k: usize) -> f64 {
        self.rf[i] * self.st_f[j] * self.dpc[k]
    }

    /// Length of the θ-edge at `(r-face i, θ-cell j)`.
    #[inline(always)]
    pub fn len_et(&self, i: usize, j: usize) -> f64 {
        self.rf[i] * self.dtc[j]
    }

    /// Length of the r-edge at r-cell `i`.
    #[inline(always)]
    pub fn len_er(&self, i: usize) -> f64 {
        self.l_er[i]
    }

    /// Area of the r-face at `(i, j, k)`.
    #[inline(always)]
    pub fn area_r(&self, i: usize, j: usize, k: usize) -> f64 {
        self.rf2[i] * self.dcos[j] * self.dpc[k]
    }

    /// Area of the θ-face at `(i, j, k)`.
    #[inline(always)]
    pub fn area_t(&self, i: usize, j: usize, k: usize) -> f64 {
        self.drr2[i] * self.st_f[j] * self.dpc[k]
    }

    /// Area of the φ-face at `(i, j)`.
    #[inline(always)]
    pub fn area_p(&self, i: usize, j: usize) -> f64 {
        self.drr2[i] * self.dtc[j]
    }

    /// Circulation of E around the r-face at `(i, j, k)`
    /// (`= (∇×E)_r · A_r`).
    #[inline(always)]
    pub fn circ_r(&self, et: &Array3, ep: &Array3, i: usize, j: usize, k: usize) -> f64 {
        self.len_ep(i, j + 1, k) * ep.get(i, j + 1, k) - self.len_ep(i, j, k) * ep.get(i, j, k)
            - self.len_et(i, j) * (et.get(i, j, k + 1) - et.get(i, j, k))
    }

    /// Circulation of E around the θ-face at `(i, j, k)`.
    #[inline(always)]
    pub fn circ_t(&self, er: &Array3, ep: &Array3, i: usize, j: usize, k: usize) -> f64 {
        self.len_er(i) * (er.get(i, j, k + 1) - er.get(i, j, k))
            - (self.len_ep(i + 1, j, k) * ep.get(i + 1, j, k)
                - self.len_ep(i, j, k) * ep.get(i, j, k))
    }

    /// Circulation of E around the φ-face at `(i, j, k)`.
    #[inline(always)]
    pub fn circ_p(&self, er: &Array3, et: &Array3, i: usize, j: usize, k: usize) -> f64 {
        self.len_et(i + 1, j) * et.get(i + 1, j, k) - self.len_et(i, j) * et.get(i, j, k)
            - self.len_er(i) * (er.get(i, j + 1, k) - er.get(i, j, k))
    }

    /// Row form of [`Self::circ_r`]: circulations over the i-window
    /// `i0..i1` at `(j, k)`, emitted as `emit(n, circ)`. Expression order
    /// matches the scalar form exactly (bit-identical results).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn circ_r_row(
        &self,
        et: &Array3,
        ep: &Array3,
        i0: usize,
        i1: usize,
        j: usize,
        k: usize,
        mut emit: impl FnMut(usize, f64),
    ) {
        let w = i1 - i0;
        let ep_hi = ep.row(i0, i1, j + 1, k);
        let ep_lo = ep.row(i0, i1, j, k);
        let et_hi = et.row(i0, i1, j, k + 1);
        let et_lo = et.row(i0, i1, j, k);
        let rf = &self.rf[i0..i1];
        let (st_hi, st_lo, dpc_k, dtc_j) = (self.st_f[j + 1], self.st_f[j], self.dpc[k], self.dtc[j]);
        for n in 0..w {
            let c = rf[n] * st_hi * dpc_k * ep_hi[n] - rf[n] * st_lo * dpc_k * ep_lo[n]
                - rf[n] * dtc_j * (et_hi[n] - et_lo[n]);
            emit(n, c);
        }
    }

    /// Row form of [`Self::circ_t`] (bit-identical to the scalar form).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn circ_t_row(
        &self,
        er: &Array3,
        ep: &Array3,
        i0: usize,
        i1: usize,
        j: usize,
        k: usize,
        mut emit: impl FnMut(usize, f64),
    ) {
        let w = i1 - i0;
        let er_hi = er.row(i0, i1, j, k + 1);
        let er_lo = er.row(i0, i1, j, k);
        let ep_hi = ep.row(i0 + 1, i1 + 1, j, k);
        let ep_lo = ep.row(i0, i1, j, k);
        let l_er = &self.l_er[i0..i1];
        let rf = &self.rf[i0..i1 + 1];
        let (st_j, dpc_k) = (self.st_f[j], self.dpc[k]);
        for n in 0..w {
            let c = l_er[n] * (er_hi[n] - er_lo[n])
                - (rf[n + 1] * st_j * dpc_k * ep_hi[n] - rf[n] * st_j * dpc_k * ep_lo[n]);
            emit(n, c);
        }
    }

    /// Row form of [`Self::circ_p`] (bit-identical to the scalar form).
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn circ_p_row(
        &self,
        er: &Array3,
        et: &Array3,
        i0: usize,
        i1: usize,
        j: usize,
        k: usize,
        mut emit: impl FnMut(usize, f64),
    ) {
        let w = i1 - i0;
        let et_hi = et.row(i0 + 1, i1 + 1, j, k);
        let et_lo = et.row(i0, i1, j, k);
        let er_hi = er.row(i0, i1, j + 1, k);
        let er_lo = er.row(i0, i1, j, k);
        let l_er = &self.l_er[i0..i1];
        let rf = &self.rf[i0..i1 + 1];
        let dtc_j = self.dtc[j];
        for n in 0..w {
            let c = rf[n + 1] * dtc_j * et_hi[n] - rf[n] * dtc_j * et_lo[n]
                - l_er[n] * (er_hi[n] - er_lo[n]);
            emit(n, c);
        }
    }

    /// `∇·B` at cell `(i, j, k)` from face fields, in the exact flux form
    /// conjugate to the circulation updates.
    #[inline(always)]
    pub fn divb(&self, br: &Array3, bt: &Array3, bp: &Array3, i: usize, j: usize, k: usize) -> f64 {
        let vol = self.dcos[j] * self.dpc[k] / self.dr3_inv[i];
        let s = self.area_r(i + 1, j, k) * br.get(i + 1, j, k)
            - self.area_r(i, j, k) * br.get(i, j, k)
            + self.area_t(i, j + 1, k) * bt.get(i, j + 1, k)
            - self.area_t(i, j, k) * bt.get(i, j, k)
            + self.area_p(i, j) * (bp.get(i, j, k + 1) - bp.get(i, j, k));
        s / vol
    }
}

/// Scalar spherical Laplacian at an arbitrary staggered location —
/// the viscosity/conduction stencil.
#[derive(Clone, Debug)]
pub struct LapStencil {
    stagger: Stagger,
    // r-axis coefficients
    r_pt2_inv: Vec<f64>, // 1/r² at the point positions
    r_mid2: Vec<f64>,    // r² at the in-between positions
    w_r_mid: Vec<f64>,   // spacing between adjacent points (indexed by mid)
    w_r_pt: Vec<f64>,    // control width at the point
    // θ-axis coefficients
    st_pt_inv: Vec<f64>,
    st_mid: Vec<f64>,
    w_t_mid: Vec<f64>,
    w_t_pt: Vec<f64>,
    // φ-axis
    w_p_mid: Vec<f64>,
    w_p_pt: Vec<f64>,
    st_pt2_inv: Vec<f64>,
    // Grid-static pieces of `diagonal`, tabulated for `diagonal_row`
    // (2-D tables are indexed `i + n_r * j`).
    n_r: usize,
    diag_r: Vec<f64>,     // r-term, per i
    diag_t: Vec<f64>,     // θ-term, per (i, j)
    diag_p_pre: Vec<f64>, // φ-term prefix `-1/r² · 1/sin²θ`, per (i, j)
}

impl LapStencil {
    /// Build the stencil coefficients for fields staggered as `s`.
    pub fn new(g: &SphericalGrid, s: Stagger) -> Self {
        let half_r = s.on_half_mesh(0);
        let half_t = s.on_half_mesh(1);
        let half_p = s.on_half_mesh(2);

        // Point and mid positions swap between the main and half meshes.
        let (r_pt2_inv, r_mid2, w_r_mid, w_r_pt) = if half_r {
            (
                g.rf2.iter().map(|&x| 1.0 / x.max(1e-300)).collect::<Vec<_>>(),
                g.rc2.clone(),
                g.r.dc.clone(),
                g.r.df.clone(),
            )
        } else {
            (
                g.rc2.iter().map(|&x| 1.0 / x.max(1e-300)).collect::<Vec<_>>(),
                g.rf2.clone(),
                g.r.df.clone(),
                g.r.dc.clone(),
            )
        };
        let clamp_inv = |v: &[f64]| -> Vec<f64> {
            v.iter()
                .map(|&x| if x.abs() < 1e-12 { 0.0 } else { 1.0 / x })
                .collect()
        };
        let (st_pt_inv, st_mid, w_t_mid, w_t_pt) = if half_t {
            (
                clamp_inv(&g.st_f),
                g.st_c.clone(),
                g.t.dc.clone(),
                g.t.df.clone(),
            )
        } else {
            (
                clamp_inv(&g.st_c),
                g.st_f.clone(),
                g.t.df.clone(),
                g.t.dc.clone(),
            )
        };
        let (w_p_mid, w_p_pt) = if half_p {
            (g.p.dc.clone(), g.p.df.clone())
        } else {
            (g.p.df.clone(), g.p.dc.clone())
        };
        let st_pt2_inv: Vec<f64> = st_pt_inv.iter().map(|&x| x * x).collect();

        // The static diagonal tables, with the exact expressions and
        // operand order of `diagonal` (NaN where a point lacks a mid pair,
        // i.e. outside the stencil's reach).
        let mids = |half: bool, i: usize, n_mid: usize| {
            let (lo, hi) = if half {
                (i.checked_sub(1)?, i)
            } else {
                (i, i + 1)
            };
            (hi < n_mid).then_some((lo, hi))
        };
        let (n_r, n_t) = (r_pt2_inv.len(), st_pt_inv.len());
        let diag_r = (0..n_r)
            .map(|i| match mids(half_r, i, r_mid2.len()) {
                Some((lo, hi)) => {
                    -r_pt2_inv[i] * (r_mid2[hi] / w_r_mid[hi] + r_mid2[lo] / w_r_mid[lo])
                        / w_r_pt[i]
                }
                None => f64::NAN,
            })
            .collect();
        let mut diag_t = Vec::with_capacity(n_r * n_t);
        let mut diag_p_pre = Vec::with_capacity(n_r * n_t);
        for j in 0..n_t {
            let t_sum = match mids(half_t, j, st_mid.len()) {
                Some((lo, hi)) => st_mid[hi] / w_t_mid[hi] + st_mid[lo] / w_t_mid[lo],
                None => f64::NAN,
            };
            for &r2_inv in &r_pt2_inv {
                diag_t.push(-r2_inv * st_pt_inv[j] * t_sum / w_t_pt[j]);
                diag_p_pre.push(-r2_inv * st_pt2_inv[j]);
            }
        }
        Self {
            stagger: s,
            r_pt2_inv,
            r_mid2,
            w_r_mid,
            w_r_pt,
            st_pt_inv,
            st_mid,
            w_t_mid,
            w_t_pt,
            w_p_mid,
            w_p_pt,
            st_pt2_inv,
            n_r,
            diag_r,
            diag_t,
            diag_p_pre,
        }
    }

    /// The staggering this stencil was built for.
    pub fn stagger(&self) -> Stagger {
        self.stagger
    }

    /// Diagonal (self-coefficient) of the Laplacian at `(i, j, k)` — used
    /// by the Jacobi preconditioner of the viscosity PCG.
    #[inline]
    pub fn diagonal(&self, i: usize, j: usize, k: usize) -> f64 {
        let half_r = self.stagger.on_half_mesh(0);
        let (mr_lo, mr_hi) = mid_indices(half_r, i);
        let dr = -self.r_pt2_inv[i]
            * (self.r_mid2[mr_hi] / self.w_r_mid[mr_hi] + self.r_mid2[mr_lo] / self.w_r_mid[mr_lo])
            / self.w_r_pt[i];
        let half_t = self.stagger.on_half_mesh(1);
        let (mt_lo, mt_hi) = mid_indices(half_t, j);
        let dt = -self.r_pt2_inv[i]
            * self.st_pt_inv[j]
            * (self.st_mid[mt_hi] / self.w_t_mid[mt_hi] + self.st_mid[mt_lo] / self.w_t_mid[mt_lo])
            / self.w_t_pt[j];
        let half_p = self.stagger.on_half_mesh(2);
        let (mp_lo, mp_hi) = mid_indices(half_p, k);
        let dp = -self.r_pt2_inv[i]
            * self.st_pt2_inv[j]
            * (1.0 / self.w_p_mid[mp_hi] + 1.0 / self.w_p_mid[mp_lo])
            / self.w_p_pt[k];
        dr + dt + dp
    }

    /// Apply the Laplacian to `f` at `(i, j, k)`.
    #[inline]
    pub fn apply(&self, f: &Array3, i: usize, j: usize, k: usize) -> f64 {
        let half_r = self.stagger.on_half_mesh(0);
        let (mr_lo, mr_hi) = mid_indices(half_r, i);
        let flux_r_hi = self.r_mid2[mr_hi] * (f.get(i + 1, j, k) - f.get(i, j, k)) / self.w_r_mid[mr_hi];
        let flux_r_lo = self.r_mid2[mr_lo] * (f.get(i, j, k) - f.get(i - 1, j, k)) / self.w_r_mid[mr_lo];
        let lr = self.r_pt2_inv[i] * (flux_r_hi - flux_r_lo) / self.w_r_pt[i];

        let half_t = self.stagger.on_half_mesh(1);
        let (mt_lo, mt_hi) = mid_indices(half_t, j);
        let flux_t_hi = self.st_mid[mt_hi] * (f.get(i, j + 1, k) - f.get(i, j, k)) / self.w_t_mid[mt_hi];
        let flux_t_lo = self.st_mid[mt_lo] * (f.get(i, j, k) - f.get(i, j - 1, k)) / self.w_t_mid[mt_lo];
        let lt = self.r_pt2_inv[i] * self.st_pt_inv[j] * (flux_t_hi - flux_t_lo) / self.w_t_pt[j];

        let half_p = self.stagger.on_half_mesh(2);
        let (mp_lo, mp_hi) = mid_indices(half_p, k);
        let flux_p_hi = (f.get(i, j, k + 1) - f.get(i, j, k)) / self.w_p_mid[mp_hi];
        let flux_p_lo = (f.get(i, j, k) - f.get(i, j, k - 1)) / self.w_p_mid[mp_lo];
        let lp = self.r_pt2_inv[i] * self.st_pt2_inv[j] * (flux_p_hi - flux_p_lo) / self.w_p_pt[k];

        lr + lt + lp
    }

    /// Row form of [`Self::apply`]: Laplacian of `f` over the i-window
    /// `i0..i1` at `(j, k)`, emitted as `emit(n, lap)`. Same expressions,
    /// same order as the scalar form — bit-identical results — over
    /// contiguous row slices. The hi r-face flux of point `n` is the lo
    /// r-face flux of point `n + 1` (same operands, same order), so each
    /// r-face flux is computed once, a block of faces at a time.
    #[inline]
    pub fn apply_row(
        &self,
        f: &Array3,
        i0: usize,
        i1: usize,
        j: usize,
        k: usize,
        mut emit: impl FnMut(usize, f64),
    ) {
        /// Points per block of r-face fluxes (a stack buffer).
        const BLOCK: usize = 64;
        let w = i1 - i0;
        // The r-line with one neighbour each side: point n is fr[n + 1].
        let fr = f.row(i0 - 1, i1 + 1, j, k);
        let c = &fr[1..w + 1];
        let t_lo = f.row(i0, i1, j - 1, k);
        let t_hi = f.row(i0, i1, j + 1, k);
        let p_lo = f.row(i0, i1, j, k - 1);
        let p_hi = f.row(i0, i1, j, k + 1);

        let half_r = self.stagger.on_half_mesh(0);
        // mid_indices(half_r, i): (i-1, i) on the half mesh, (i, i+1) on
        // the main mesh — both are i-contiguous, so slice with an offset.
        // Face m lies between points m - 1 and m.
        let m_off = if half_r { i0 - 1 } else { i0 };
        let r_mid2 = &self.r_mid2[m_off..m_off + w + 1];
        let w_r_mid = &self.w_r_mid[m_off..m_off + w + 1];
        let face_r = |m: usize| r_mid2[m] * (fr[m + 1] - fr[m]) / w_r_mid[m];
        let r_pt2_inv = &self.r_pt2_inv[i0..i1];
        let w_r_pt = &self.w_r_pt[i0..i1];

        let half_t = self.stagger.on_half_mesh(1);
        let (mt_lo, mt_hi) = mid_indices(half_t, j);
        let (st_mid_hi, w_t_mid_hi) = (self.st_mid[mt_hi], self.w_t_mid[mt_hi]);
        let (st_mid_lo, w_t_mid_lo) = (self.st_mid[mt_lo], self.w_t_mid[mt_lo]);
        let (st_pt_inv_j, w_t_pt_j) = (self.st_pt_inv[j], self.w_t_pt[j]);

        let half_p = self.stagger.on_half_mesh(2);
        let (mp_lo, mp_hi) = mid_indices(half_p, k);
        let (w_p_mid_hi, w_p_mid_lo) = (self.w_p_mid[mp_hi], self.w_p_mid[mp_lo]);
        let (st_pt2_inv_j, w_p_pt_k) = (self.st_pt2_inv[j], self.w_p_pt[k]);

        // flux[b] is the face below point n0 + b; the block's last face
        // carries over as the next block's first.
        let mut flux = [0.0; BLOCK + 1];
        flux[0] = face_r(0);
        for n0 in (0..w).step_by(BLOCK) {
            let len = BLOCK.min(w - n0);
            for (b, f) in flux[1..=len].iter_mut().enumerate() {
                *f = face_r(n0 + 1 + b);
            }
            for b in 0..len {
                let n = n0 + b;
                let lr = r_pt2_inv[n] * (flux[b + 1] - flux[b]) / w_r_pt[n];

                let flux_t_hi = st_mid_hi * (t_hi[n] - c[n]) / w_t_mid_hi;
                let flux_t_lo = st_mid_lo * (c[n] - t_lo[n]) / w_t_mid_lo;
                let lt = r_pt2_inv[n] * st_pt_inv_j * (flux_t_hi - flux_t_lo) / w_t_pt_j;

                let flux_p_hi = (p_hi[n] - c[n]) / w_p_mid_hi;
                let flux_p_lo = (c[n] - p_lo[n]) / w_p_mid_lo;
                let lp = r_pt2_inv[n] * st_pt2_inv_j * (flux_p_hi - flux_p_lo) / w_p_pt_k;

                emit(n, lr + lt + lp);
            }
            flux[0] = flux[len];
        }
    }

    /// Row form of [`Self::diagonal`] (bit-identical to the scalar form).
    /// The r- and θ-terms and the φ-term's grid prefix come from the
    /// tables `new` precomputed, so a point costs one division here.
    #[inline]
    pub fn diagonal_row(
        &self,
        i0: usize,
        i1: usize,
        j: usize,
        k: usize,
        mut emit: impl FnMut(usize, f64),
    ) {
        let w = i1 - i0;
        let at = self.n_r * j;
        let dr = &self.diag_r[i0..i1];
        let dt = &self.diag_t[at + i0..at + i1];
        let dp_pre = &self.diag_p_pre[at + i0..at + i1];
        let half_p = self.stagger.on_half_mesh(2);
        let (mp_lo, mp_hi) = mid_indices(half_p, k);
        let p_sum = 1.0 / self.w_p_mid[mp_hi] + 1.0 / self.w_p_mid[mp_lo];
        let w_p_pt_k = self.w_p_pt[k];
        for n in 0..w {
            let dp = dp_pre[n] * p_sum / w_p_pt_k;
            emit(n, dr[n] + dt[n] + dp);
        }
    }
}

/// Index of the low/high in-between positions for point `i`:
/// half-mesh points (faces) have mids at centers `i-1`, `i`; main-mesh
/// points (centers) have mids at faces `i`, `i+1`.
#[inline(always)]
fn mid_indices(half: bool, i: usize) -> (usize, usize) {
    if half {
        (i - 1, i)
    } else {
        (i, i + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mas_field::Field;
    use mas_grid::{IndexSpace3, NGHOST};

    /// A θ-band grid away from the poles, so all metric factors are
    /// nonzero and operator identities hold everywhere.
    fn band_grid() -> SphericalGrid {
        use mas_grid::Mesh1d;
        let r = Mesh1d::uniform(12, 1.0, 3.0, NGHOST, false);
        let t = Mesh1d::uniform(10, 0.6, std::f64::consts::PI - 0.6, NGHOST, false);
        let p = Mesh1d::uniform(8, 0.0, std::f64::consts::TAU, NGHOST, true);
        SphericalGrid::new(r, t, p)
    }

    #[test]
    fn div_of_inverse_square_field_vanishes() {
        // F = r̂/r² is exactly divergence-free; the flux form is exact.
        let g = band_grid();
        let dg = DivGeom::new(&g);
        let mut fr = Field::zeros("fr", Stagger::FaceR, &g);
        fr.init_with(&g, |r, _, _| 1.0 / (r * r));
        let ft = Field::zeros("ft", Stagger::FaceT, &g);
        let fp = Field::zeros("fp", Stagger::FaceP, &g);
        let blk = IndexSpace3::interior(Stagger::CellCenter, g.nr, g.nt, g.np);
        blk.for_each(|i, j, k| {
            let d = dg.div(&fr.data, &ft.data, &fp.data, i, j, k);
            assert!(d.abs() < 1e-12, "div at ({i},{j},{k}) = {d}");
        });
    }

    #[test]
    fn div_of_radial_field_matches_analytic() {
        // F = r r̂ has div = 3 exactly (and the flux form reproduces it
        // exactly for any mesh).
        let g = band_grid();
        let dg = DivGeom::new(&g);
        let mut fr = Field::zeros("fr", Stagger::FaceR, &g);
        fr.init_with(&g, |r, _, _| r);
        let ft = Field::zeros("ft", Stagger::FaceT, &g);
        let fp = Field::zeros("fp", Stagger::FaceP, &g);
        let blk = IndexSpace3::interior(Stagger::CellCenter, g.nr, g.nt, g.np);
        blk.for_each(|i, j, k| {
            let d = dg.div(&fr.data, &ft.data, &fp.data, i, j, k);
            assert!((d - 3.0).abs() < 1e-11, "div at ({i},{j},{k}) = {d}");
        });
    }

    #[test]
    fn ct_circulation_of_gradient_vanishes() {
        // E = ∇ψ (edge values from differences of a vertex potential) has
        // zero circulation around every face — discrete curl(grad) = 0.
        let g = band_grid();
        let ct = CtGeom::new(&g);
        // ψ on vertices.
        let mut psi = Field::zeros("psi", Stagger::Vertex, &g);
        psi.init_with(&g, |r, t, p| r * r + (2.0 * t).sin() + (3.0 * p).cos() * t);
        // Edge fields: E_along = Δψ / edge length.
        let mut er = Field::zeros("er", Stagger::EdgeR, &g);
        let mut et = Field::zeros("et", Stagger::EdgeT, &g);
        let mut ep = Field::zeros("ep", Stagger::EdgeP, &g);
        // r-edge (r-cell i, θ-face j, φ-face k): vertices i, i+1.
        er.interior().for_each(|i, j, k| {
            let d = (psi.data.get(i + 1, j, k) - psi.data.get(i, j, k)) / ct.len_er(i);
            er.data.set(i, j, k, d);
        });
        et.interior().for_each(|i, j, k| {
            let d = (psi.data.get(i, j + 1, k) - psi.data.get(i, j, k)) / ct.len_et(i, j);
            et.data.set(i, j, k, d);
        });
        ep.interior().for_each(|i, j, k| {
            let len = ct.len_ep(i, j, k);
            let d = if len == 0.0 {
                0.0
            } else {
                (psi.data.get(i, j, k + 1) - psi.data.get(i, j, k)) / len
            };
            ep.data.set(i, j, k, d);
        });
        // Circulations on interior faces away from edges of the block.
        let blk = IndexSpace3::interior_trimmed(Stagger::FaceR, g.nr, g.nt, g.np, (1, 1, 1));
        blk.for_each(|i, j, k| {
            let c = ct.circ_r(&et.data, &ep.data, i, j, k);
            assert!(c.abs() < 1e-10, "circ_r({i},{j},{k}) = {c}");
        });
        let blk = IndexSpace3::interior_trimmed(Stagger::FaceT, g.nr, g.nt, g.np, (1, 1, 1));
        blk.for_each(|i, j, k| {
            let c = ct.circ_t(&er.data, &ep.data, i, j, k);
            assert!(c.abs() < 1e-10, "circ_t({i},{j},{k}) = {c}");
        });
        let blk = IndexSpace3::interior_trimmed(Stagger::FaceP, g.nr, g.nt, g.np, (1, 1, 1));
        blk.for_each(|i, j, k| {
            let c = ct.circ_p(&er.data, &et.data, i, j, k);
            assert!(c.abs() < 1e-10, "circ_p({i},{j},{k}) = {c}");
        });
    }

    #[test]
    fn ct_update_preserves_divb_exactly() {
        // Start from any face field, apply dB = -dt·circ/A with an
        // arbitrary edge E; div B must not change (to round-off).
        let g = band_grid();
        let ct = CtGeom::new(&g);
        let mut br = Field::zeros("br", Stagger::FaceR, &g);
        let mut bt = Field::zeros("bt", Stagger::FaceT, &g);
        let mut bp = Field::zeros("bp", Stagger::FaceP, &g);
        br.init_with(&g, |r, t, _| (2.0 * t).cos() / (r * r));
        bt.init_with(&g, |r, t, p| t.sin() / r + 0.1 * p.sin());
        bp.init_with(&g, |_, t, p| 0.3 * (t + p).cos());
        let mut er = Field::zeros("er", Stagger::EdgeR, &g);
        let mut et = Field::zeros("et", Stagger::EdgeT, &g);
        let mut ep = Field::zeros("ep", Stagger::EdgeP, &g);
        er.init_with(&g, |r, t, p| r * t.sin() * (2.0 * p).cos());
        et.init_with(&g, |r, t, p| (r + t + p).sin());
        ep.init_with(&g, |r, t, p| r * (t - p).cos());

        let cells = IndexSpace3::interior_trimmed(Stagger::CellCenter, g.nr, g.nt, g.np, (1, 1, 1));
        let mut div0 = vec![];
        cells.for_each(|i, j, k| div0.push(ct.divb(&br.data, &bt.data, &bp.data, i, j, k)));

        let dt = 0.37;
        br.interior().for_each(|i, j, k| {
            let a = ct.area_r(i, j, k);
            br.data.add(i, j, k, -dt * ct.circ_r(&et.data, &ep.data, i, j, k) / a);
        });
        bt.interior().for_each(|i, j, k| {
            let a = ct.area_t(i, j, k);
            bt.data.add(i, j, k, -dt * ct.circ_t(&er.data, &ep.data, i, j, k) / a);
        });
        bp.interior().for_each(|i, j, k| {
            let a = ct.area_p(i, j);
            bp.data.add(i, j, k, -dt * ct.circ_p(&er.data, &et.data, i, j, k) / a);
        });

        let mut n = 0;
        cells.for_each(|i, j, k| {
            let d = ct.divb(&br.data, &bt.data, &bp.data, i, j, k);
            assert!(
                (d - div0[n]).abs() < 1e-9,
                "div B changed at ({i},{j},{k}): {} -> {d}",
                div0[n]
            );
            n += 1;
        });
    }

    #[test]
    fn laplacian_of_inverse_r_vanishes() {
        // ∇²(1/r) = 0 away from the origin; second-order stencil.
        let g = band_grid();
        for s in [Stagger::CellCenter, Stagger::FaceR, Stagger::FaceT, Stagger::FaceP] {
            let lap = LapStencil::new(&g, s);
            let mut f = Field::zeros("f", s, &g);
            f.init_with(&g, |r, _, _| 1.0 / r);
            let blk = IndexSpace3::interior_trimmed(
                s,
                g.nr,
                g.nt,
                g.np,
                (1, 1, 0),
            );
            blk.for_each(|i, j, k| {
                let l = lap.apply(&f.data, i, j, k);
                assert!(l.abs() < 2e-2, "{s:?}: lap(1/r) at ({i},{j},{k}) = {l}");
            });
        }
    }

    #[test]
    fn laplacian_of_r_squared_approaches_six() {
        // ∇²(r²) = 6; the flux-form stencil carries an O(Δr²/r²) metric
        // truncation term, so check second-order convergence rather than
        // exactness.
        use mas_grid::Mesh1d;
        let err_for = |nr: usize| -> f64 {
            let r = Mesh1d::uniform(nr, 1.0, 3.0, NGHOST, false);
            let t = Mesh1d::uniform(10, 0.6, std::f64::consts::PI - 0.6, NGHOST, false);
            let p = Mesh1d::uniform(8, 0.0, std::f64::consts::TAU, NGHOST, true);
            let g = SphericalGrid::new(r, t, p);
            let lap = LapStencil::new(&g, Stagger::CellCenter);
            let mut f = Field::zeros("f", Stagger::CellCenter, &g);
            f.init_with(&g, |r, _, _| r * r);
            let blk = IndexSpace3::interior_trimmed(Stagger::CellCenter, g.nr, g.nt, g.np, (1, 0, 0));
            let mut e: f64 = 0.0;
            blk.for_each(|i, j, k| e = e.max((lap.apply(&f.data, i, j, k) - 6.0).abs()));
            e
        };
        let e12 = err_for(12);
        let e48 = err_for(48);
        assert!(e12 < 0.05, "coarse error {e12}");
        let rate = e12 / e48;
        // Ideal is 16×; the max-error cell sits closer to r = 1 on the
        // fine mesh (error ∝ Δr²/r²), which knocks the observed rate down
        // to ≈ 16·(1.0625/1.25)² ≈ 11.6.
        assert!(rate > 10.0, "expected ≳11x error drop for 4x cells, got {rate}");
    }

    /// The row forms — static diagonal tables, r-face fluxes computed once
    /// per face in blocks — equal the scalar forms bit for bit at every
    /// point of a non-uniform coronal grid, for all four staggerings,
    /// over windows that span several flux blocks and start anywhere.
    #[test]
    fn row_forms_match_scalar_forms_bitwise() {
        let g = SphericalGrid::coronal(150, 12, 8, 10.0);
        for s in [
            Stagger::CellCenter,
            Stagger::FaceR,
            Stagger::FaceT,
            Stagger::FaceP,
        ] {
            let lap = LapStencil::new(&g, s);
            let mut f = Field::zeros("f", s, &g);
            f.init_with(&g, |r, t, p| {
                (3.0 * r).sin() * t.cos() + (2.0 * p).sin() / r
            });
            let a = &f.data;
            let n = a.s1;
            for (i0, i1) in [(1, n - 1), (2, n - 1), (1, 66), (5, 70)] {
                for k in 1..a.s3 - 1 {
                    for j in 1..a.s2 - 1 {
                        lap.apply_row(a, i0, i1, j, k, |m, l| {
                            let want = lap.apply(a, i0 + m, j, k);
                            assert_eq!(
                                l.to_bits(),
                                want.to_bits(),
                                "{s:?} apply at ({}, {j}, {k})",
                                i0 + m
                            );
                        });
                        lap.diagonal_row(i0, i1, j, k, |m, d| {
                            let want = lap.diagonal(i0 + m, j, k);
                            assert_eq!(
                                d.to_bits(),
                                want.to_bits(),
                                "{s:?} diagonal at ({}, {j}, {k})",
                                i0 + m
                            );
                        });
                    }
                }
            }
        }
    }

    #[test]
    fn laplacian_diagonal_matches_apply_on_delta() {
        // The diagonal entry equals L(δ) at the delta's location.
        let g = band_grid();
        let lap = LapStencil::new(&g, Stagger::FaceT);
        let mut f = Field::zeros("f", Stagger::FaceT, &g);
        let (i, j, k) = (4, 5, 3);
        f.data.set(i, j, k, 1.0);
        let l = lap.apply(&f.data, i, j, k);
        let d = lap.diagonal(i, j, k);
        assert!((l - d).abs() < 1e-12, "apply {l} vs diagonal {d}");
    }
}
