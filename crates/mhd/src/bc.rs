//! Boundary conditions: line-tied inner boundary, characteristic outer
//! boundary, reflective θ ghosts, and the polar-axis regularization whose
//! φ-ring averages are the paper's array-reduction loops (Listings 3–5).

use crate::sites;
use crate::state::State;
use gpusim::Traffic;
use mas_config::PhysicsCfg;
use mas_field::Field;
use mas_grid::{IndexSpace3, SphericalGrid, NGHOST};
use minimpi::{Comm, ReduceOp};
use stdpar::Par;

/// Fill the r/θ ghost layers of a cell-centered field with zero-gradient
/// (Neumann) values — used for solver stage variables.
pub fn neumann_ghosts_rt(par: &mut Par, _grid: &SphericalGrid, f: &mut Field) {
    let g = NGHOST;
    let (s1, s2, s3) = (f.data.s1, f.data.s2, f.data.s3);
    let buf = [f.buf()];
    let d = f.data.par_view();
    // Plane kernels are charged at the surface scale.
    par.with_area_scale(|par| {
        // r ghosts (two j-k planes).
        let space = IndexSpace3 { i0: 0, i1: 1, j0: 0, j1: s2, k0: 0, k1: s3 };
        par.loop3(&sites::BC_INNER, space, Traffic::new(1, 1, 0), &buf, &buf, |_, j, k| {
            let v = d.get(g, j, k);
            d.set(g - 1, j, k, v);
        });
        let space = IndexSpace3 { i0: 0, i1: 1, j0: 0, j1: s2, k0: 0, k1: s3 };
        par.loop3(&sites::BC_OUTER, space, Traffic::new(1, 1, 0), &buf, &buf, |_, j, k| {
            let v = d.get(s1 - 2, j, k);
            d.set(s1 - 1, j, k, v);
        });
        // θ ghosts.
        let space = IndexSpace3 { i0: 0, i1: s1, j0: 0, j1: 1, k0: 0, k1: s3 };
        par.loop3(&sites::BC_THETA, space, Traffic::new(2, 2, 0), &buf, &buf, |i, _, k| {
            let lo = d.get(i, g, k);
            d.set(i, g - 1, k, lo);
            let hi = d.get(i, s2 - 2, k);
            d.set(i, s2 - 1, k, hi);
        });
    });
}

/// Apply all physical boundary conditions to the state:
///
/// * inner radius (solar surface): line-tied — fixed `ρ`, `T`, zero flow
///   through and along the surface, `B_r` held at the boundary flux
///   distribution (dipole), with an optional rotational shear driving
///   (`perturb`) for eruption studies;
/// * outer radius: zero-gradient (characteristic outflow), no inflow;
/// * θ boundaries: reflective ghosts; θ-face vectors pinned to zero on
///   the axis faces.
pub fn apply_physical(par: &mut Par, grid: &SphericalGrid, st: &mut State, phys: &PhysicsCfg, time: f64) {
    // All boundary kernels are plane-sized: charge at the surface scale.
    par.with_area_scale(|par| apply_physical_inner(par, grid, st, phys, time));
}

fn apply_physical_inner(
    par: &mut Par,
    grid: &SphericalGrid,
    st: &mut State,
    phys: &PhysicsCfg,
    time: f64,
) {
    let g = NGHOST;
    let (rho0, t0, b0) = (phys.rho0, phys.t0, phys.b0);
    let perturb = phys.perturb;

    // ---- inner radial boundary ----
    {
        let s2 = st.rho.data.s2;
        let s3 = st.rho.data.s3;
        let space = IndexSpace3 { i0: 0, i1: 1, j0: 0, j1: s2, k0: 0, k1: s3 };
        let reads = [st.rho.buf(), st.temp.buf()];
        let writes = [st.rho.buf(), st.temp.buf()];
        let (rd, td) = (st.rho.data.par_view(), st.temp.data.par_view());
        par.loop3(&sites::BC_INNER, space, Traffic::new(2, 2, 2), &reads, &writes, |_, j, k| {
            rd.set(g - 1, j, k, rho0);
            td.set(g - 1, j, k, t0);
        });

        // Velocity: no flow through the surface; tangential components
        // reflected (line-tied), except an imposed azimuthal shear ring
        // when `perturb` is active (flux-rope driver).
        let space_v = IndexSpace3 { i0: 0, i1: 1, j0: 0, j1: st.v.t.data.s2.min(s2), k0: 0, k1: s3 };
        let reads = [st.v.r.buf(), st.v.t.buf(), st.v.p.buf()];
        let writes = reads;
        let theta_c: &[f64] = &grid.t.centers;
        let (vr, vt, vp) = (
            st.v.r.data.par_view(),
            st.v.t.data.par_view(),
            st.v.p.data.par_view(),
        );
        let ramp = (time / 0.05).min(1.0); // smooth spin-up of the driver
        par.loop3(&sites::BC_INNER, space_v, Traffic::new(3, 3, 6), &reads, &writes, |_, j, k| {
            vr.set(g, j, k, 0.0);
            vr.set(g - 1, j, k, 0.0);
            let t_in = vt.get(g, j, k);
            vt.set(g - 1, j, k, -t_in);
            if perturb > 0.0 && j < theta_c.len() {
                // Driving layer: impose the azimuthal shear band on the
                // boundary ring itself (how MAS applies boundary flows).
                let th = theta_c[j];
                let prof = (-((th - 1.0) / 0.2).powi(2)).exp();
                let shear = perturb * ramp * prof;
                vp.set(g, j, k, shear);
                vp.set(g - 1, j, k, shear);
            } else {
                let p_in = vp.get(g, j, k);
                vp.set(g - 1, j, k, -p_in);
            }
        });

        // Magnetic field: B_r at the boundary face is line-tied — the CT
        // update never touches boundary faces, so the photospheric flux
        // distribution (set by the initial condition) is preserved
        // automatically and ∇·B stays at round-off; only the ghost layers
        // are filled here (zero-gradient).
        let reads = [st.b.r.buf(), st.b.t.buf(), st.b.p.buf()];
        let writes = reads;
        let (br, bt, bp) = (
            st.b.r.data.par_view(),
            st.b.t.data.par_view(),
            st.b.p.data.par_view(),
        );
        par.loop3(&sites::BC_INNER, space, Traffic::new(3, 3, 0), &reads, &writes, |_, j, k| {
            let r_in = br.get(g, j, k);
            br.set(g - 1, j, k, r_in);
            let t_in = bt.get(g, j, k);
            bt.set(g - 1, j, k, t_in);
            let p_in = bp.get(g, j, k);
            bp.set(g - 1, j, k, p_in);
        });
        let _ = b0;
    }

    // ---- outer radial boundary ----
    {
        let s1c = st.rho.data.s1;
        let s1f = st.v.r.data.s1;
        let s2 = st.rho.data.s2;
        let s3 = st.rho.data.s3;
        let space = IndexSpace3 { i0: 0, i1: 1, j0: 0, j1: s2, k0: 0, k1: s3 };
        let reads = [
            st.rho.buf(), st.temp.buf(), st.v.r.buf(), st.v.t.buf(), st.v.p.buf(),
            st.b.r.buf(), st.b.t.buf(), st.b.p.buf(),
        ];
        let writes = reads;
        let (rd, td) = (st.rho.data.par_view(), st.temp.data.par_view());
        let (vr, vt, vp) = (
            st.v.r.data.par_view(),
            st.v.t.data.par_view(),
            st.v.p.data.par_view(),
        );
        let (br, bt, bp) = (
            st.b.r.data.par_view(),
            st.b.t.data.par_view(),
            st.b.p.data.par_view(),
        );
        par.loop3(&sites::BC_OUTER, space, Traffic::new(8, 8, 6), &reads, &writes, |_, j, k| {
            let v = rd.get(s1c - 2, j, k);
            rd.set(s1c - 1, j, k, v);
            let v = td.get(s1c - 2, j, k);
            td.set(s1c - 1, j, k, v);
            // Outflow only through the outer face.
            let vout = vr.get(s1f - 2, j, k).max(0.0);
            vr.set(s1f - 1, j, k, vout);
            let v = vt.get(s1c - 2, j, k);
            vt.set(s1c - 1, j, k, v);
            let v = vp.get(s1c - 2, j, k);
            vp.set(s1c - 1, j, k, v);
            let v = br.get(s1f - 2, j, k);
            br.set(s1f - 1, j, k, v);
            let v = bt.get(s1c - 2, j, k);
            bt.set(s1c - 1, j, k, v);
            let v = bp.get(s1c - 2, j, k);
            bp.set(s1c - 1, j, k, v);
        });
    }

    // ---- θ boundaries (reflective ghosts; axis faces pinned) ----
    {
        let s1 = st.rho.data.s1;
        let s3 = st.rho.data.s3;
        let s2c = st.rho.data.s2;
        let s2f = st.v.t.data.s2;
        let space = IndexSpace3 { i0: 0, i1: s1, j0: 0, j1: 1, k0: 0, k1: s3 };
        let reads = [
            st.rho.buf(), st.temp.buf(), st.v.r.buf(), st.v.t.buf(), st.v.p.buf(),
            st.b.r.buf(), st.b.t.buf(), st.b.p.buf(),
        ];
        let writes = reads;
        let (rd, td) = (st.rho.data.par_view(), st.temp.data.par_view());
        let (vr, vt, vp) = (
            st.v.r.data.par_view(),
            st.v.t.data.par_view(),
            st.v.p.data.par_view(),
        );
        let (br, bt, bp) = (
            st.b.r.data.par_view(),
            st.b.t.data.par_view(),
            st.b.p.data.par_view(),
        );
        let pin_axis = grid.has_poles;
        par.loop3(&sites::BC_THETA, space, Traffic::new(12, 14, 0), &reads, &writes, |i, _, k| {
            for (d, s2x) in [
                (rd, s2c), (td, s2c), (vr, s2c), (vp, s2c),
                (br, s2c), (bp, s2c),
            ] {
                if i < d.s1() && k < d.s3() {
                    let lo = d.get(i, NGHOST, k);
                    d.set(i, NGHOST - 1, k, lo);
                    let hi = d.get(i, s2x - 2, k);
                    d.set(i, s2x - 1, k, hi);
                }
            }
            // θ-face vectors: zero through the axis, reflective ghosts.
            for d in [vt, bt] {
                if i < d.s1() && k < d.s3() {
                    if pin_axis {
                        d.set(i, NGHOST, k, 0.0);
                        d.set(i, s2f - 1 - NGHOST, k, 0.0);
                    }
                    let lo = d.get(i, NGHOST + 1, k);
                    d.set(i, NGHOST - 1, k, -lo);
                    let hi = d.get(i, s2f - 2 - NGHOST, k);
                    d.set(i, s2f - 1, k, -hi);
                }
            }
        });
    }
}

/// Polar-axis regularization: replace the cell values on the two polar
/// rings with their global φ-average — the array-reduction pattern of the
/// paper's Listings 3–5 (with an `allreduce` because the rings are
/// distributed over the φ ranks).
pub fn polar_regularization(par: &mut Par, comm: &Comm, grid: &SphericalGrid, st: &mut State) {
    if !grid.has_poles {
        return;
    }
    par.with_area_scale(|par| polar_regularization_inner(par, comm, grid, st));
}

// Per-rank scratch for the polar ring sums (ranks are threads, so a
// thread-local gives each rank its own buffer). Reused across rings and
// steps: steady-state polar regularization allocates nothing.
thread_local! {
    static POLAR_SUMS: std::cell::RefCell<Vec<f64>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

fn polar_regularization_inner(
    par: &mut Par,
    comm: &Comm,
    grid: &SphericalGrid,
    st: &mut State,
) {
    let g = NGHOST;
    let np_global = grid.np_global as f64;
    let nr = grid.nr;
    let rings = [g, g + grid.nt - 1];

    for ring in rings {
        POLAR_SUMS.with(|cell| {
        let mut guard = cell.borrow_mut();
        // --- accumulate Σ_φ for ρ, T, v_φ per radius (array reductions) ---
        // Layout of the sums buffer: [rho(nr) | temp(nr) | vp(nr)].
        let sums: &mut Vec<f64> = &mut guard;
        sums.clear();
        sums.resize(3 * nr, 0.0);
        {
            let space = IndexSpace3 {
                i0: g,
                i1: g + nr,
                j0: ring,
                j1: ring + 1,
                k0: g,
                k1: g + grid.np,
            };
            let reads = [st.rho.buf(), st.temp.buf()];
            let writes: [gpusim::BufferId; 0] = [];
            let rd = &st.rho.data;
            par.reduce_array(
                &sites::POLAR_AVG_CC,
                space,
                Traffic::new(1, 1, 1),
                &reads,
                &writes,
                &mut sums[..nr],
                |i, j, k| (i - g, rd.get(i, j, k)),
            );
            let reads = [st.temp.buf()];
            let td = &st.temp.data;
            par.reduce_array(
                &sites::POLAR_AVG_CC,
                space,
                Traffic::new(1, 1, 1),
                &reads,
                &writes,
                &mut sums[nr..2 * nr],
                |i, j, k| (i - g, td.get(i, j, k)),
            );
            let reads = [st.v.p.buf()];
            let vp = &st.v.p.data;
            par.reduce_array(
                &sites::POLAR_AVG_VP,
                space,
                Traffic::new(1, 1, 1),
                &reads,
                &writes,
                &mut sums[2 * nr..],
                |i, j, k| (i - g, vp.get(i, j, k)),
            );
        }
        comm.allreduce(ReduceOp::Sum, sums, &mut par.ctx);
        for v in sums.iter_mut() {
            *v /= np_global;
        }

        // --- scatter the averages back onto the ring (atomic-update loop
        // in the OpenACC classification) ---
        {
            let space = IndexSpace3 {
                i0: g,
                i1: g + nr,
                j0: ring,
                j1: ring + 1,
                k0: g,
                k1: g + grid.np,
            };
            let reads = [st.rho.buf(), st.temp.buf(), st.v.p.buf()];
            let writes = reads;
            let (rd, td, vp) = (
                st.rho.data.par_view(),
                st.temp.data.par_view(),
                st.v.p.data.par_view(),
            );
            let sums: &[f64] = sums;
            par.loop3(&sites::POLAR_SCATTER, space, Traffic::new(1, 3, 0), &reads, &writes, |i, j, k| {
                rd.set(i, j, k, sums[i - g]);
                td.set(i, j, k, sums[nr + i - g]);
                vp.set(i, j, k, sums[2 * nr + i - g]);
            });
        }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpusim::DeviceSpec;
    use mas_config::Deck;
    use minimpi::World;
    use stdpar::CodeVersion;

    fn setup() -> (SphericalGrid, Par, State) {
        let g = SphericalGrid::coronal(10, 8, 6, 8.0);
        let mut par = Par::builder(DeviceSpec::a100_40gb()).version(CodeVersion::Ad).build();
        par.ctx.set_phase(gpusim::Phase::Compute);
        let mut st = State::new(&g);
        st.register(&mut par, &g, 1.0, 1.0);
        (g, par, st)
    }

    #[test]
    fn neumann_ghosts_copy_interior() {
        let (g, mut par, mut st) = setup();
        st.temp.data.fill(0.0);
        st.temp.interior().for_each(|i, j, k| st.temp.data.set(i, j, k, (i + j + k) as f64));
        neumann_ghosts_rt(&mut par, &g, &mut st.temp);
        let s1 = st.temp.data.s1;
        assert_eq!(st.temp.data.get(0, 3, 3), st.temp.data.get(1, 3, 3));
        assert_eq!(st.temp.data.get(s1 - 1, 3, 3), st.temp.data.get(s1 - 2, 3, 3));
        assert_eq!(st.temp.data.get(4, 0, 3), st.temp.data.get(4, 1, 3));
    }

    #[test]
    fn inner_bc_fixes_surface_values() {
        let (g, mut par, mut st) = setup();
        st.rho.data.fill(5.0);
        st.temp.data.fill(5.0);
        st.v.r.data.fill(1.0);
        let deck = Deck::default();
        apply_physical(&mut par, &g, &mut st, &deck.physics, 0.0);
        assert_eq!(st.rho.data.get(0, 4, 3), deck.physics.rho0);
        assert_eq!(st.temp.data.get(0, 4, 3), deck.physics.t0);
        assert_eq!(st.v.r.data.get(NGHOST, 4, 3), 0.0, "no flow through the surface");
        // Br ghost mirrors the (line-tied) boundary face.
        let j = 4;
        assert_eq!(
            st.b.r.data.get(NGHOST - 1, j, 3),
            st.b.r.data.get(NGHOST, j, 3)
        );
    }

    #[test]
    fn outer_bc_blocks_inflow() {
        let (g, mut par, mut st) = setup();
        st.v.r.data.fill(-2.0); // inflow everywhere
        let deck = Deck::default();
        apply_physical(&mut par, &g, &mut st, &deck.physics, 0.0);
        let s1f = st.v.r.data.s1;
        assert_eq!(st.v.r.data.get(s1f - 1, 4, 3), 0.0, "inflow clipped at outer face");
    }

    #[test]
    fn polar_average_flattens_rings_globally() {
        // Two ranks: ring values depend on global φ index; after
        // regularization every ring cell holds the global mean.
        let res = World::run(2, |comm| {
            let g_global = SphericalGrid::coronal(6, 6, 8, 6.0);
            let (k0, len) = SphericalGrid::phi_partition(8, 2, comm.rank());
            let g = g_global.subgrid_phi(k0, len);
            let mut par = Par::builder(DeviceSpec::a100_40gb()).version(CodeVersion::Ad).rank(comm.rank()).build();
            par.ctx.set_phase(gpusim::Phase::Compute);
            let mut st = State::new(&g);
            // Ring (j = NGHOST) values = global φ index.
            st.rho.interior().for_each(|i, j, k| {
                let gk = k0 + (k - NGHOST);
                st.rho.data.set(i, j, k, if j == NGHOST { gk as f64 } else { 1.0 });
            });
            st.register(&mut par, &g, 1.0, 1.0);
            polar_regularization(&mut par, &comm, &g, &mut st);
            st.rho.data.get(NGHOST + 2, NGHOST, NGHOST)
        });
        let mean = (0..8).sum::<usize>() as f64 / 8.0;
        for v in res {
            assert!((v - mean).abs() < 1e-12, "{v} vs {mean}");
        }
    }
}
