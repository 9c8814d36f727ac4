//! The MHD state and work arrays, plus device registration.

use gpusim::BufferId;
use mas_field::{Array3, Field, VecField};
use mas_grid::{SphericalGrid, Stagger};
use stdpar::Par;

/// PCG workspace for one velocity component (arrays share the component's
/// staggering).
#[derive(Clone, Debug)]
pub struct PcgWork {
    /// Residual.
    pub r: Field,
    /// Preconditioned residual.
    pub z: Field,
    /// Search direction.
    pub p: Field,
    /// Operator application `A·p`.
    pub ap: Field,
    /// Right-hand side copy.
    pub rhs: Field,
}

impl PcgWork {
    /// Fresh workspace for one component.
    pub fn new(stagger: Stagger, grid: &SphericalGrid, tag: &'static str) -> Self {
        let mk = |suffix: &str| -> Field {
            let name: &'static str = Box::leak(format!("pcg_{tag}_{suffix}").into_boxed_str());
            Field::zeros(name, stagger, grid)
        };
        Self {
            r: mk("r"),
            z: mk("z"),
            p: mk("p"),
            ap: mk("ap"),
            rhs: mk("rhs"),
        }
    }

    /// All fields, for registration.
    pub fn fields_mut(&mut self) -> [&mut Field; 5] {
        [
            &mut self.r,
            &mut self.z,
            &mut self.p,
            &mut self.ap,
            &mut self.rhs,
        ]
    }
}

/// RKL2 super-time-stepping workspace (cell-centered).
#[derive(Clone, Debug)]
pub struct StsWork {
    /// Stage value `Y_{j-1}`.
    pub y_prev: Field,
    /// Stage value `Y_{j-2}`.
    pub y_prev2: Field,
    /// Initial value `Y_0`.
    pub y0: Field,
    /// Operator at the initial value, `L(Y_0)`.
    pub ly0: Field,
    /// Operator at the previous stage, `L(Y_{j-1})`.
    pub ly: Field,
}

impl StsWork {
    /// Fresh conduction workspace.
    pub fn new(grid: &SphericalGrid) -> Self {
        Self {
            y_prev: Field::zeros("sts_y_prev", Stagger::CellCenter, grid),
            y_prev2: Field::zeros("sts_y_prev2", Stagger::CellCenter, grid),
            y0: Field::zeros("sts_y0", Stagger::CellCenter, grid),
            ly0: Field::zeros("sts_ly0", Stagger::CellCenter, grid),
            ly: Field::zeros("sts_ly", Stagger::CellCenter, grid),
        }
    }

    /// All fields, for registration.
    pub fn fields_mut(&mut self) -> [&mut Field; 5] {
        [
            &mut self.y_prev,
            &mut self.y_prev2,
            &mut self.y0,
            &mut self.ly0,
            &mut self.ly,
        ]
    }
}

/// The complete per-rank MHD state.
#[derive(Clone, Debug)]
pub struct State {
    /// Mass density at cell centers.
    pub rho: Field,
    /// Temperature at cell centers.
    pub temp: Field,
    /// Velocity on faces.
    pub v: VecField,
    /// Magnetic field on faces.
    pub b: VecField,
    /// Pressure work array (cell centers).
    pub pres: Field,
    /// Current density on edges.
    pub j: VecField,
    /// Electromotive force on edges.
    pub emf: VecField,
    /// Momentum right-hand side on faces.
    pub force: VecField,
    /// Density averaged to faces.
    pub rho_face: VecField,
    /// Mass fluxes (and, reused, conductive fluxes) on faces.
    pub flux: VecField,
    /// Generic cell-centered work array 1 (∇·v, conduction divergence…).
    pub w1: Field,
    /// Generic cell-centered work array 2.
    pub w2: Field,
    /// Viscosity PCG workspace for `v_r`.
    pub pcg_r: PcgWork,
    /// Viscosity PCG workspace for `v_θ`.
    pub pcg_t: PcgWork,
    /// Viscosity PCG workspace for `v_φ`.
    pub pcg_p: PcgWork,
    /// Conduction STS workspace.
    pub sts: StsWork,
    /// Metric-array buffer ids (registered grid coefficient arrays).
    pub metric_bufs: Vec<BufferId>,
}

impl State {
    /// Allocate all fields on `grid` (no device registration yet).
    pub fn new(grid: &SphericalGrid) -> Self {
        Self {
            rho: Field::zeros("rho", Stagger::CellCenter, grid),
            temp: Field::zeros("temp", Stagger::CellCenter, grid),
            v: VecField::zeros_faces("v", grid),
            b: VecField::zeros_faces("b", grid),
            pres: Field::zeros("pres", Stagger::CellCenter, grid),
            j: VecField::zeros_edges("j", grid),
            emf: VecField::zeros_edges("emf", grid),
            force: VecField::zeros_faces("force", grid),
            rho_face: VecField::zeros_faces("rho_face", grid),
            flux: VecField::zeros_faces("flux", grid),
            w1: Field::zeros("w1", Stagger::CellCenter, grid),
            w2: Field::zeros("w2", Stagger::CellCenter, grid),
            pcg_r: PcgWork::new(Stagger::FaceR, grid, "vr"),
            pcg_t: PcgWork::new(Stagger::FaceT, grid, "vt"),
            pcg_p: PcgWork::new(Stagger::FaceP, grid, "vp"),
            sts: StsWork::new(grid),
            metric_bufs: Vec::new(),
        }
    }

    /// Register every array with the device model and issue the manual
    /// data regions (no-ops under unified memory, but always recorded for
    /// the directive audit).
    /// `byte_scale_vol`/`byte_scale_lin` are the paper-scale extrapolation
    /// factors for 3-D arrays and 1-D metric tables respectively (1.0 for
    /// unscaled runs) — the model buffer sizes drive transfer and paging
    /// costs, so they must reflect the production problem.
    pub fn register(&mut self, par: &mut Par, grid: &SphericalGrid, byte_scale_vol: f64, byte_scale_lin: f64) {
        let reg = |par: &mut Par, f: &mut Field| -> BufferId {
            let bytes = (f.data.bytes() as f64 * byte_scale_vol) as usize;
            let id = par.ctx.mem.register(bytes, f.name);
            f.buf = Some(id);
            id
        };

        // Primary state.
        let mut state_bufs = vec![
            reg(par, &mut self.rho),
            reg(par, &mut self.temp),
        ];
        for c in self.v.comps_mut() {
            state_bufs.push(reg(par, c));
        }
        for c in self.b.comps_mut() {
            state_bufs.push(reg(par, c));
        }
        let rid = par.region_id("state_fields");
        par.data_region(rid, &state_bufs);

        // Auxiliary fields.
        let mut aux = vec![reg(par, &mut self.pres)];
        for vf in [
            &mut self.j,
            &mut self.emf,
            &mut self.force,
            &mut self.rho_face,
            &mut self.flux,
        ] {
            for c in vf.comps_mut() {
                aux.push(reg(par, c));
            }
        }
        aux.push(reg(par, &mut self.w1));
        aux.push(reg(par, &mut self.w2));
        let rid = par.region_id("aux_fields");
        par.data_region(rid, &aux);

        // Solver workspaces — created through the wrapper routines in
        // Code 6 (D2XAd), which zero-initializes them (extra kernels).
        let mut work = vec![];
        for pw in [&mut self.pcg_r, &mut self.pcg_t, &mut self.pcg_p] {
            for f in pw.fields_mut() {
                let id = reg(par, f);
                work.push((id, f.data.len(), f.name));
            }
        }
        for f in self.sts.fields_mut() {
            let id = reg(par, f);
            work.push((id, f.data.len(), f.name));
        }
        let work_ids: Vec<BufferId> = work.iter().map(|&(id, _, _)| id).collect();
        let rid = par.region_id("solver_work");
        par.data_region(rid, &work_ids);
        for (id, len, name) in work {
            par.wrapper_alloc(name, id, len);
        }

        // Grid metric arrays (1-D coefficient tables). In MAS these live in
        // module derived types, which must be placed on the device even
        // under UM (§IV-C).
        let metric_sizes: Vec<(&'static str, usize)> = vec![
            ("m_rc", grid.rc.len()),
            ("m_rf", grid.rf.len()),
            ("m_rc2", grid.rc2.len()),
            ("m_rf2", grid.rf2.len()),
            ("m_rc_inv", grid.rc_inv.len()),
            ("m_rf_inv", grid.rf_inv.len()),
            ("m_st_c", grid.st_c.len()),
            ("m_st_f", grid.st_f.len()),
            ("m_ct_f", grid.ct_f.len()),
            ("m_st_c_inv", grid.st_c_inv.len()),
            ("m_st_f_inv", grid.st_f_inv.len()),
            ("m_dcos", grid.dcos.len()),
            ("m_dr_c", grid.r.dc.len()),
            ("m_dr_f", grid.r.df.len()),
            ("m_dt_c", grid.t.dc.len()),
            ("m_dt_f", grid.t.df.len()),
            ("m_dp_c", grid.p.dc.len()),
            ("m_dp_f", grid.p.df.len()),
        ];
        self.metric_bufs = metric_sizes
            .iter()
            .map(|&(name, len)| {
                let bytes = (len as f64 * 8.0 * byte_scale_lin) as usize;
                par.ctx.mem.register(bytes, name)
            })
            .collect();
        let ids = self.metric_bufs.clone();
        let rid = par.region_id("grid_metrics");
        par.data_region(rid, &ids);
        par.derived_type_region("grid_metrics_struct");
        par.derived_type_region("solver_workspace_struct");
        // Module tables used inside device routines need `declare`.
        par.declare_site("radloss_table");
    }

    /// Buffer ids of the primary state (for halo registration etc.).
    pub fn state_buf_ids(&self) -> [BufferId; 8] {
        [
            self.rho.buf(),
            self.temp.buf(),
            self.v.r.buf(),
            self.v.t.buf(),
            self.v.p.buf(),
            self.b.r.buf(),
            self.b.t.buf(),
            self.b.p.buf(),
        ]
    }

    /// The primary state arrays exchanged in the halo, in a fixed order.
    pub fn halo_arrays(&self) -> [&Array3; 8] {
        [
            &self.rho.data,
            &self.temp.data,
            &self.v.r.data,
            &self.v.t.data,
            &self.v.p.data,
            &self.b.r.data,
            &self.b.t.data,
            &self.b.p.data,
        ]
    }

    /// Bitwise FNV-1a fingerprint of the primary state arrays (ghosts
    /// included, fixed field order). Two runs produce the same hash iff
    /// every stored `f64` is bit-identical — the determinism check used
    /// by the cross-version/thread-count matrix.
    pub fn content_hash(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        for a in self.halo_arrays() {
            for &v in a.as_slice() {
                let bits = v.to_bits();
                for shift in [0u32, 8, 16, 24, 32, 40, 48, 56] {
                    h ^= (bits >> shift) & 0xff;
                    h = h.wrapping_mul(FNV_PRIME);
                }
            }
        }
        h
    }

    /// Check the entire state for NaN/Inf (returns offending field name).
    pub fn find_non_finite(&self) -> Option<&'static str> {
        let check = |f: &Field| -> Option<&'static str> {
            if f.data.has_non_finite(&f.interior()) {
                Some(f.name)
            } else {
                None
            }
        };
        check(&self.rho)
            .or_else(|| check(&self.temp))
            .or_else(|| self.v.comps().iter().find_map(|f| check(f)))
            .or_else(|| self.b.comps().iter().find_map(|f| check(f)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::DeviceSpec;
    use stdpar::CodeVersion;

    fn grid() -> SphericalGrid {
        SphericalGrid::coronal(10, 8, 6, 10.0)
    }

    #[test]
    fn allocation_shapes() {
        let g = grid();
        let s = State::new(&g);
        assert_eq!(s.rho.data.n1, 10);
        assert_eq!(s.v.r.data.n1, 11);
        assert_eq!(s.j.r.data.n2, 9, "r-edges staggered in θ");
        assert_eq!(s.pcg_t.r.stagger, Stagger::FaceT);
    }

    #[test]
    fn registration_assigns_all_buffers() {
        let g = grid();
        let mut s = State::new(&g);
        let mut par = Par::builder(DeviceSpec::a100_40gb()).version(CodeVersion::A).build();
        s.register(&mut par, &g, 1.0, 1.0);
        assert!(s.rho.buf.is_some());
        assert!(s.b.p.buf.is_some());
        assert!(s.pcg_p.ap.buf.is_some());
        assert!(s.sts.ly.buf.is_some());
        assert_eq!(s.metric_bufs.len(), 18);
        assert_eq!(s.state_buf_ids().len(), 8);
        // Audit saw the data regions and derived types.
        assert_eq!(par.registry.data_regions().len(), 4);
        assert_eq!(par.registry.n_derived_types(), 2);
        assert_eq!(par.registry.n_declares(), 1);
    }

    #[test]
    fn d2xad_registration_fires_wrapper_kernels() {
        let g = grid();
        let mut par = Par::builder(DeviceSpec::a100_40gb()).version(CodeVersion::D2xad).build();
        par.ctx.set_phase(gpusim::Phase::Compute);
        let mut s = State::new(&g);
        let k0 = par.ctx.prof.kernel_launches;
        s.register(&mut par, &g, 1.0, 1.0);
        // 15 PCG + 5 STS arrays zero-initialized by wrappers.
        assert_eq!(par.ctx.prof.kernel_launches - k0, 20);
        // Version A does not launch wrapper kernels.
        let mut par_a = Par::builder(DeviceSpec::a100_40gb()).version(CodeVersion::A).build();
        par_a.ctx.set_phase(gpusim::Phase::Compute);
        let mut s2 = State::new(&g);
        let k0 = par_a.ctx.prof.kernel_launches;
        s2.register(&mut par_a, &g, 1.0, 1.0);
        assert_eq!(par_a.ctx.prof.kernel_launches, k0);
    }

    #[test]
    fn non_finite_detection_names_field() {
        let g = grid();
        let mut s = State::new(&g);
        assert!(s.find_non_finite().is_none());
        s.temp.data.set(2, 2, 2, f64::NAN);
        assert_eq!(s.find_non_finite(), Some("temp"));
    }
}
