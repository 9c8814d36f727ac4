//! Matrix-free preconditioned conjugate gradients for the implicit
//! viscosity solve `(I − Δt·ν∇²) v = v*`.
//!
//! The solve is reformulated for the correction `δ = v − v*`:
//! `A δ = Δt·ν ∇²(v*)`, which has homogeneous boundary conditions — the
//! correction's r/θ ghosts stay zero and only the periodic-φ ghosts are
//! exchanged, keeping the operator symmetric positive definite.
//!
//! Every iteration performs one halo exchange (the peer-to-peer vs
//! unified-memory transfer the paper's Fig. 4 profiles), two global dot
//! products (allreduce), and three streaming kernels.
//!
//! On the host, the operator and the preconditioner each run in one
//! sweep with the dot product that reads their output
//! ([`Par::fused_rows`]), so an iteration makes three host sweeps for
//! five modeled launches; the modeled device still books every launch.

use crate::halo::HaloExchanger;
use crate::ops::deriv::LapStencil;
use crate::sites;
use crate::state::PcgWork;
use gpusim::Traffic;
use mas_field::Field;
use mas_grid::IndexSpace3;
use minimpi::{Comm, ReduceOp};
use stdpar::{Launch, Par};

/// Outcome of one PCG solve.
#[derive(Clone, Copy, Debug)]
pub struct PcgResult {
    /// Iterations taken.
    pub iters: usize,
    /// Final relative residual.
    pub rel_res: f64,
    /// Whether the tolerance was met within the iteration cap.
    pub converged: bool,
}

/// Solve `(I − ν·Δt ∇²) x = x_in` in place over `space` (the component's
/// updatable interior). Returns the iteration record.
#[allow(clippy::too_many_arguments)]
pub fn solve_viscosity(
    par: &mut Par,
    comm: &Comm,
    lap: &LapStencil,
    space: IndexSpace3,
    x: &mut Field,
    work: &mut PcgWork,
    hx: &mut HaloExchanger,
    nu_dt: f64,
    tol: f64,
    max_iter: usize,
) -> PcgResult {
    // Code 6 (D2XAd): solver temporaries are created through wrapper
    // routines that zero-initialize them — extra kernels per solve
    // (paper §IV-F).
    for f in work.fields_mut() {
        par.wrapper_alloc("pcg_work_init", f.buf(), f.data.len());
    }

    let (i0, i1) = (space.i0, space.i1);

    // Ghosts of x must be current for the initial operator application.
    {
        let xb = [x.buf()];
        let mut arrays = [&mut x.data];
        hx.exchange(par, comm, &mut arrays, &xb);
    }

    // r ← ν·Δt ∇²(x), fused with its norm ⟨r, r⟩ for the relative
    // tolerance; δ (work.rhs) and p start at zero. r, z and ap are
    // written over `space` before they are read. Outside `space` the
    // correction system's boundaries and r/θ ghosts stay zero from
    // `PcgWork::new`: nothing writes them but p's φ halo, which copies
    // the partner's p, zero there too.
    let mut rr = {
        let reads = [x.buf()];
        let writes = [work.r.buf(), work.rhs.buf(), work.p.buf()];
        let norm_reads = [work.r.buf()];
        let launches = [
            Launch::rows(&sites::PCG_SETUP, Traffic::new(8, 3, 20), &reads, &writes),
            Launch::reduce(&sites::PCG_NORM, Traffic::new(1, 0, 2), &norm_reads),
        ];
        let rd = work.r.data.par_view();
        let dd = work.rhs.data.par_view();
        let pd = work.p.data.par_view();
        let xd = &x.data;
        par.fused_rows(space, &launches, ReduceOp::Sum, 0.0, |mut acc, j, k| {
            dd.row_mut(i0, i1, j, k).fill(0.0);
            pd.row_mut(i0, i1, j, k).fill(0.0);
            let out = rd.row_mut(i0, i1, j, k);
            lap.apply_row(xd, i0, i1, j, k, |n, l| out[n] = nu_dt * l);
            for &v in out.iter() {
                acc += v * v;
            }
            acc
        })
    };
    {
        let mut v = [rr];
        comm.allreduce(ReduceOp::Sum, &mut v, &mut par.ctx);
        rr = v[0];
    }
    let rhs_norm = rr.sqrt();
    if rhs_norm == 0.0 || !rhs_norm.is_finite() {
        return PcgResult {
            iters: 0,
            rel_res: 0.0,
            converged: rhs_norm == 0.0,
        };
    }

    let mut rz_old = 0.0;
    let mut rel_res = 1.0;
    let mut iters = 0;
    for it in 0..max_iter {
        // z ← M⁻¹ r (Jacobi), fused with rz = ⟨r, z⟩ (global).
        let mut rz = {
            let reads = [work.r.buf()];
            let writes = [work.z.buf()];
            let dot_reads = [work.r.buf(), work.z.buf()];
            let launches = [
                Launch::rows(&sites::PCG_PRECOND, Traffic::new(1, 1, 4), &reads, &writes),
                Launch::reduce(&sites::PCG_DOT_RZ, Traffic::new(2, 0, 2), &dot_reads),
            ];
            let zd = work.z.data.par_view();
            let rd = &work.r.data;
            par.fused_rows(space, &launches, ReduceOp::Sum, 0.0, |mut acc, j, k| {
                let r_row = rd.row(i0, i1, j, k);
                let out = zd.row_mut(i0, i1, j, k);
                lap.diagonal_row(i0, i1, j, k, |n, d| {
                    let diag = 1.0 - nu_dt * d;
                    out[n] = r_row[n] / diag;
                });
                for n in 0..r_row.len() {
                    acc += r_row[n] * out[n];
                }
                acc
            })
        };
        {
            let mut v = [rz];
            comm.allreduce(ReduceOp::Sum, &mut v, &mut par.ctx);
            rz = v[0];
        }
        // p ← z + β p.
        let beta = if it == 0 { 0.0 } else { rz / rz_old };
        rz_old = rz;
        {
            let reads = [work.z.buf(), work.p.buf()];
            let writes = [work.p.buf()];
            let pd = work.p.data.par_view();
            let zd = &work.z.data;
            par.loop3_rows(&sites::PCG_UPDATE_P, space, Traffic::new(2, 1, 2), &reads, &writes, |j, k| {
                let z_row = zd.row(i0, i1, j, k);
                let out = pd.row_mut(i0, i1, j, k);
                for n in 0..out.len() {
                    out[n] = z_row[n] + beta * out[n];
                }
            });
        }
        // Halo exchange of the search direction (Fig. 4's transfers).
        {
            let bufs = [work.p.buf()];
            let mut arrays = [&mut work.p.data];
            hx.exchange(par, comm, &mut arrays, &bufs);
        }
        // ap ← A p = p − ν·Δt ∇² p, fused with pap = ⟨p, Ap⟩ (global).
        let mut pap = {
            let reads = [work.p.buf()];
            let writes = [work.ap.buf()];
            let dot_reads = [work.p.buf(), work.ap.buf()];
            let launches = [
                Launch::rows(&sites::VISC_APPLY, Traffic::new(8, 1, 24), &reads, &writes),
                Launch::reduce(&sites::PCG_DOT_PAP, Traffic::new(2, 0, 2), &dot_reads),
            ];
            let apd = work.ap.data.par_view();
            let pd = &work.p.data;
            par.fused_rows(space, &launches, ReduceOp::Sum, 0.0, |mut acc, j, k| {
                let p_row = pd.row(i0, i1, j, k);
                let out = apd.row_mut(i0, i1, j, k);
                lap.apply_row(pd, i0, i1, j, k, |n, l| out[n] = p_row[n] - nu_dt * l);
                for n in 0..p_row.len() {
                    acc += p_row[n] * out[n];
                }
                acc
            })
        };
        {
            let mut v = [pap];
            comm.allreduce(ReduceOp::Sum, &mut v, &mut par.ctx);
            pap = v[0];
        }
        debug_assert!(pap > 0.0, "viscous operator must be SPD (pap = {pap})");
        let alpha = rz / pap;
        // δ ← δ + α p;  r ← r − α Ap;  and accumulate ⟨r,r⟩ on the fly.
        let mut rr_new = {
            let reads = [work.p.buf(), work.ap.buf(), work.rhs.buf(), work.r.buf()];
            // Fused axpy: the reduction body also writes δ and r at its
            // own point — tile-safe, so the site stays parallel.
            let (dd, rd) = (work.rhs.data.par_view(), work.r.data.par_view());
            let (pd, apd) = (&work.p.data, &work.ap.data);
            par.reduce_scalar_rows(
                &sites::PCG_AXPY_XR,
                space,
                Traffic::new(4, 2, 6),
                &reads,
                ReduceOp::Sum,
                0.0,
                |mut acc, j, k| {
                    let p_row = pd.row(i0, i1, j, k);
                    let ap_row = apd.row(i0, i1, j, k);
                    let d_row = dd.row_mut(i0, i1, j, k);
                    let r_row = rd.row_mut(i0, i1, j, k);
                    for n in 0..p_row.len() {
                        d_row[n] += alpha * p_row[n];
                        let rv = r_row[n] - alpha * ap_row[n];
                        r_row[n] = rv;
                        acc += rv * rv;
                    }
                    acc
                },
            )
        };
        {
            let mut v = [rr_new];
            comm.allreduce(ReduceOp::Sum, &mut v, &mut par.ctx);
            rr_new = v[0];
        }
        iters = it + 1;
        rel_res = rr_new.sqrt() / rhs_norm;
        if rel_res < tol {
            break;
        }
    }

    // x ← x + δ.
    {
        let reads = [work.rhs.buf(), x.buf()];
        let writes = [x.buf()];
        let xd = x.data.par_view();
        let dd = &work.rhs.data;
        par.loop3_rows(&sites::PCG_APPLY_DX, space, Traffic::new(2, 1, 2), &reads, &writes, |j, k| {
            let d_row = dd.row(i0, i1, j, k);
            let out = xd.row_mut(i0, i1, j, k);
            for n in 0..out.len() {
                out[n] += d_row[n];
            }
        });
    }

    PcgResult {
        iters,
        rel_res,
        converged: rel_res < tol,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::PcgWork;
    use gpusim::DeviceSpec;
    use mas_grid::{Mesh1d, SphericalGrid, Stagger, NGHOST};
    use minimpi::World;
    use stdpar::CodeVersion;

    fn band_grid(np: usize) -> SphericalGrid {
        let r = Mesh1d::uniform(10, 1.0, 2.0, NGHOST, false);
        let t = Mesh1d::uniform(8, 0.8, std::f64::consts::PI - 0.8, NGHOST, false);
        let p = Mesh1d::uniform(np, 0.0, std::f64::consts::TAU, NGHOST, true);
        SphericalGrid::new(r, t, p)
    }

    fn reg(par: &mut Par, f: &mut Field) {
        let id = par.ctx.mem.register(f.data.bytes(), f.name);
        f.buf = Some(id);
        if par.policy.data_mode == gpusim::DataMode::Manual {
            par.ctx.enter_data(id);
        }
    }

    /// The viscous solve must (a) converge, (b) reproduce `x = b` when
    /// ν = 0, and (c) smooth the field when ν > 0.
    #[test]
    fn solves_identity_when_nu_zero() {
        World::run(1, |comm| {
            let g = band_grid(8);
            let mut par = Par::builder(DeviceSpec::a100_40gb()).version(CodeVersion::Ad).build();
            par.ctx.set_phase(gpusim::Phase::Compute);
            let lap = LapStencil::new(&g, Stagger::FaceR);
            let mut x = Field::zeros("vr", Stagger::FaceR, &g);
            x.init_with(&g, |r, t, p| (3.0 * r + t).sin() + p.cos());
            let x0 = x.data.clone();
            let mut work = PcgWork::new(Stagger::FaceR, &g, "t1");
            reg(&mut par, &mut x);
            for f in work.fields_mut() {
                reg(&mut par, f);
            }
            let mut hx = HaloExchanger::new(&mut par, &[&x.data], "pcg_halo_t1");
            let space = IndexSpace3::interior_trimmed(Stagger::FaceR, g.nr, g.nt, g.np, (1, 0, 0));
            let res = solve_viscosity(
                &mut par, &comm, &lap, space, &mut x, &mut work, &mut hx, 0.0, 1e-10, 50,
            );
            assert!(res.converged);
            assert_eq!(res.iters, 0, "zero rhs => no iterations");
            space.for_each(|i, j, k| {
                assert_eq!(x.data.get(i, j, k), x0.get(i, j, k));
            });
        });
    }

    #[test]
    fn converges_and_smooths() {
        World::run(1, |comm| {
            let g = band_grid(8);
            let mut par = Par::builder(DeviceSpec::a100_40gb()).version(CodeVersion::Ad).build();
            par.ctx.set_phase(gpusim::Phase::Compute);
            let lap = LapStencil::new(&g, Stagger::FaceT);
            let mut x = Field::zeros("vt", Stagger::FaceT, &g);
            // A spike to be diffused.
            x.data.set(5, 4, 4, 1.0);
            let mut work = PcgWork::new(Stagger::FaceT, &g, "t2");
            reg(&mut par, &mut x);
            for f in work.fields_mut() {
                reg(&mut par, f);
            }
            let mut hx = HaloExchanger::new(&mut par, &[&x.data], "pcg_halo_t2");
            let space = IndexSpace3::interior_trimmed(Stagger::FaceT, g.nr, g.nt, g.np, (0, 1, 0));
            let res = solve_viscosity(
                &mut par, &comm, &lap, space, &mut x, &mut work, &mut hx, 5e-4, 1e-9, 200,
            );
            assert!(res.converged, "rel_res = {}", res.rel_res);
            assert!(res.iters > 1);
            // Implicit diffusion: peak decreases, neighbours rise.
            let peak = x.data.get(5, 4, 4);
            assert!(peak < 1.0 && peak > 0.0, "peak = {peak}");
            assert!(x.data.get(4, 4, 4) > 0.0);
            // Verify the solve: (I − νΔt L)x ≈ b.
            let mut linf: f64 = 0.0;
            space.for_each(|i, j, k| {
                let ax = x.data.get(i, j, k) - 5e-4 * lap.apply(&x.data, i, j, k);
                let b = if (i, j, k) == (5, 4, 4) { 1.0 } else { 0.0 };
                linf = linf.max((ax - b).abs());
            });
            assert!(linf < 1e-6, "residual check linf = {linf}");
        });
    }

    #[test]
    fn multirank_solution_matches_single_rank() {
        // 2-rank decomposed solve must agree with the 1-rank solve.
        let single = World::run(1, |comm| run_case(&comm, 1)).pop().unwrap();
        let multi = World::run(2, |comm| run_case(&comm, 2));
        // Compare rank 0's slab against the matching φ planes.
        let (vals0, _) = &multi[0];
        let (ref_vals, _) = &single;
        for (a, b) in vals0.iter().zip(ref_vals.iter()) {
            assert!((a - b).abs() < 1e-8, "{a} vs {b}");
        }
        // Iteration counts identical (same operator, same reductions).
        assert_eq!(single.1, multi[0].1);

        fn run_case(comm: &Comm, nranks: usize) -> (Vec<f64>, usize) {
            let np_global = 8;
            let g_global = band_grid(np_global);
            let (k0, len) = SphericalGrid::phi_partition(np_global, nranks, comm.rank());
            let g = g_global.subgrid_phi(k0, len);
            let mut par = Par::builder(DeviceSpec::a100_40gb()).version(CodeVersion::Ad).rank(comm.rank()).build();
            par.ctx.set_phase(gpusim::Phase::Compute);
            let lap = LapStencil::new(&g, Stagger::FaceR);
            let mut x = Field::zeros("vr", Stagger::FaceR, &g);
            x.init_with(&g, |r, t, p| (r * 2.0 + t).sin() * (2.0 * p).cos());
            let mut work = PcgWork::new(Stagger::FaceR, &g, "t3");
            reg(&mut par, &mut x);
            for f in work.fields_mut() {
                reg(&mut par, f);
            }
            let mut hx = HaloExchanger::new(&mut par, &[&x.data], "pcg_halo_t3");
            let space = IndexSpace3::interior_trimmed(Stagger::FaceR, g.nr, g.nt, g.np, (1, 0, 0));
            let res = solve_viscosity(
                &mut par, comm, &lap, space, &mut x, &mut work, &mut hx, 2e-4, 1e-10, 100,
            );
            assert!(res.converged);
            // Sample a line of values in the first local φ plane.
            let mut out = vec![];
            for i in NGHOST..NGHOST + g.nr + 1 {
                out.push(x.data.get(i, 4, NGHOST));
            }
            (out, res.iters)
        }
    }

    /// The solve reads no workspace value it has not written in the same
    /// call: NaN left in r, z, ap, δ and p over `space` and in p's φ ghost
    /// planes changes no bit of the result, at 1 and 2 ranks, also when
    /// no iteration runs (x ← x + δ then reads only the setup's δ = 0).
    #[test]
    fn stale_workspace_leaves_the_solve_bit_exact() {
        for nranks in [1, 2] {
            for max_iter in [0, 100] {
                let fresh = World::run(nranks, |comm| run_case(&comm, nranks, max_iter, false));
                let stale = World::run(nranks, |comm| run_case(&comm, nranks, max_iter, true));
                assert_eq!(fresh, stale, "{nranks} rank(s), max_iter {max_iter}");
            }
        }

        fn run_case(
            comm: &Comm,
            nranks: usize,
            max_iter: usize,
            scribble: bool,
        ) -> (Vec<u64>, usize, u64) {
            let g_global = band_grid(8);
            let (k0, len) = SphericalGrid::phi_partition(8, nranks, comm.rank());
            let g = g_global.subgrid_phi(k0, len);
            let mut par = Par::builder(DeviceSpec::a100_40gb())
                .version(CodeVersion::Ad)
                .rank(comm.rank())
                .build();
            par.ctx.set_phase(gpusim::Phase::Compute);
            let lap = LapStencil::new(&g, Stagger::FaceT);
            let mut x = Field::zeros("vt", Stagger::FaceT, &g);
            x.init_with(&g, |r, t, p| (r * 2.0 + t).sin() * (2.0 * p).cos());
            let mut work = PcgWork::new(Stagger::FaceT, &g, "t4");
            reg(&mut par, &mut x);
            for f in work.fields_mut() {
                reg(&mut par, f);
            }
            let mut hx = HaloExchanger::new(&mut par, &[&x.data], "pcg_halo_t4");
            let space = IndexSpace3::interior_trimmed(Stagger::FaceT, g.nr, g.nt, g.np, (0, 1, 0));
            if scribble {
                for f in work.fields_mut() {
                    space.for_each(|i, j, k| f.data.set(i, j, k, f64::NAN));
                }
                let p = &mut work.p.data;
                for k in (0..NGHOST).chain(p.s3 - NGHOST..p.s3) {
                    for j in 0..p.s2 {
                        for i in 0..p.s1 {
                            p.set(i, j, k, f64::NAN);
                        }
                    }
                }
            }
            let res = solve_viscosity(
                &mut par, comm, &lap, space, &mut x, &mut work, &mut hx, 2e-4, 1e-10, max_iter,
            );
            let bits = x.data.as_slice().iter().map(|v| v.to_bits()).collect();
            (bits, res.iters, res.rel_res.to_bits())
        }
    }
}
