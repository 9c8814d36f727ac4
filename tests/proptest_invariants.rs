//! Property-based tests (proptest) of the core data structures and
//! numerical invariants across the workspace.

use mas::field::{Array3, PhiHalo};
use mas::grid::{IndexSpace3, Mesh1d, Segment, SphericalGrid, Stagger, NGHOST};
use mas::gpusim::{DeviceSpec, Traffic};
use mas::prelude::*;
use mas::stdpar::{Par, Site};
use proptest::prelude::*;

// ---------------------------------------------------------------- meshes

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Stretched meshes are strictly monotone and exactly tile the domain
    /// for any admissible segment specification.
    #[test]
    fn mesh_tiles_domain(
        n in 4usize..64,
        split in 0.2f64..0.8,
        r1 in 0.3f64..6.0,
        r2 in 0.3f64..6.0,
        len1 in 0.5f64..4.0,
        len2 in 0.5f64..4.0,
    ) {
        let segs = [
            Segment::new(1.0 + len1, split, r1),
            Segment::new(1.0 + len1 + len2, 1.0 - split, r2),
        ];
        let m = Mesh1d::stretched(n, 1.0, &segs, NGHOST, false);
        for w in m.faces.windows(2) {
            prop_assert!(w[1] > w[0]);
        }
        let total: f64 = m.dc[NGHOST..NGHOST + n].iter().sum();
        prop_assert!((total - m.length()).abs() < 1e-9 * m.length());
        // df midpoints consistent: centers lie strictly between faces.
        for i in 0..n {
            prop_assert!(m.centers[NGHOST + i] > m.faces[NGHOST + i]);
            prop_assert!(m.centers[NGHOST + i] < m.faces[NGHOST + i + 1]);
        }
    }

    /// Cell volumes always sum to the analytic shell volume.
    #[test]
    fn grid_volume_exact(nr in 4usize..16, nt in 4usize..14, np in 4usize..12, rmax in 2.0f64..40.0) {
        let g = SphericalGrid::coronal(nr, nt, np, rmax);
        let exact = 4.0 / 3.0 * std::f64::consts::PI * (rmax.powi(3) - 1.0);
        let v = g.total_volume();
        prop_assert!((v - exact).abs() / exact < 1e-10, "{v} vs {exact}");
    }

    /// φ-partitions are contiguous, exhaustive and near-balanced.
    #[test]
    fn phi_partition_properties(np in 8usize..128, ranks in 1usize..8) {
        prop_assume!(np >= ranks);
        let mut next = 0;
        let mut sizes = vec![];
        for r in 0..ranks {
            let (k0, len) = SphericalGrid::phi_partition(np, ranks, r);
            prop_assert_eq!(k0, next);
            next = k0 + len;
            sizes.push(len);
        }
        prop_assert_eq!(next, np);
        let (mn, mx) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
        prop_assert!(mx - mn <= 1, "imbalanced: {sizes:?}");
    }
}

// ---------------------------------------------------------------- arrays

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Halo pack/unpack round-trips arbitrary plane contents.
    #[test]
    fn halo_roundtrip(n1 in 2usize..6, n2 in 2usize..6, n3 in 2usize..6, vals in prop::collection::vec(-1e6f64..1e6, 16)) {
        let mut a = Array3::zeros(n1, n2, n3);
        for (idx, v) in vals.iter().enumerate() {
            let i = idx % a.s1;
            let j = (idx / a.s1) % a.s2;
            a.set(i, j, NGHOST, *v);
            a.set(i, j, NGHOST + n3 - 1, -*v);
        }
        let mut h = PhiHalo::for_arrays(&[&a]);
        h.pack(&[&a]);
        h.recv_low.copy_from_slice(&h.send_high);
        h.recv_high.copy_from_slice(&h.send_low);
        {
            let mut arr = [&mut a];
            h.unpack(&mut arr);
        }
        for j in 0..a.s2 {
            for i in 0..a.s1 {
                prop_assert_eq!(a.get(i, j, 0), a.get(i, j, NGHOST + n3 - 1));
                prop_assert_eq!(a.get(i, j, NGHOST + n3), a.get(i, j, NGHOST));
            }
        }
    }

    /// axpy satisfies its algebraic definition pointwise.
    #[test]
    fn array_algebra(a in -5.0f64..5.0, x0 in -10.0f64..10.0, y0 in -10.0f64..10.0) {
        let mut z = Array3::constant(3, 3, 3, x0);
        let y = Array3::constant(3, 3, 3, y0);
        z.axpy(a, &y);
        prop_assert!((z.get(2, 2, 2) - (x0 + a * y0)).abs() < 1e-12);
    }
}

// ------------------------------------------------------- programming model

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Scalar and array reductions return identical results under every
    /// code version, for arbitrary inputs (the §V-A validation as a law).
    #[test]
    fn reductions_version_independent(vals in prop::collection::vec(-100.0f64..100.0, 27)) {
        static RED: Site = Site::new("prop_red", mas::stdpar::LoopClass::ScalarReduction, 3);
        static ARED: Site = Site::new("prop_ared", mas::stdpar::LoopClass::ArrayReduction, 2);
        let space = IndexSpace3 { i0: 0, i1: 3, j0: 0, j1: 3, k0: 0, k1: 3 };
        let run = |v: CodeVersion| -> (f64, Vec<f64>) {
            let mut spec = DeviceSpec::a100_40gb();
            spec.jitter_sigma = 0.0;
            let mut par = Par::builder(spec).version(v).build();
            par.ctx.set_phase(mas::gpusim::Phase::Compute);
            let b = par.ctx.mem.register(8 * 27, "x");
            if par.policy.data_mode == mas::gpusim::DataMode::Manual {
                par.ctx.enter_data(b);
            }
            let vals = vals.clone();
            let s = par.reduce_scalar(
                &RED, space, Traffic::new(1, 0, 1), &[b],
                mas::minimpi::ReduceOp::Sum, 0.0,
                |i, j, k| vals[i + 3 * j + 9 * k],
            );
            let mut out = vec![0.0; 3];
            let vals2 = vals.clone();
            par.reduce_array(
                &ARED, space, Traffic::new(1, 1, 1), &[b], &[b], &mut out,
                |i, j, k| (i, vals2[i + 3 * j + 9 * k]),
            );
            (s, out)
        };
        let reference = run(CodeVersion::A);
        for v in CodeVersion::ALL {
            let got = run(v);
            prop_assert_eq!(got.0, reference.0, "{:?} scalar", v);
            prop_assert_eq!(&got.1, &reference.1, "{:?} array", v);
        }
    }
}

// ------------------------------------------------------------ deck parsing

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Decks round-trip through their text form for arbitrary field values.
    #[test]
    fn deck_roundtrip(
        nr in 4usize..128, nt in 4usize..128, np in 4usize..256,
        rmax in 1.5f64..50.0, gamma in 1.01f64..1.9,
        visc in 0.0f64..0.1, eta in 0.0f64..0.1, kappa in 0.0f64..0.1,
        steps in 1usize..1000, cfl in 0.05f64..1.0,
        radiation: bool, heating: bool, gravity: bool,
    ) {
        let mut d = Deck {
            grid: mas::config::GridCfg { nr, nt, np, rmax },
            ..Deck::default()
        };
        d.physics.gamma = gamma;
        d.physics.visc = visc;
        d.physics.eta = eta;
        d.physics.kappa0 = kappa;
        d.physics.radiation = radiation;
        d.physics.heating = heating;
        d.physics.gravity = gravity;
        d.time.n_steps = steps;
        d.time.cfl = cfl;
        let text = d.to_deck_string();
        let parsed = Deck::parse(&text).unwrap();
        prop_assert_eq!(parsed, d);
    }
}

// --------------------------------------------------------------- operators

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Constrained transport preserves ∇·B for random fields and EMFs.
    #[test]
    fn ct_preserves_divb_for_random_fields(seed in 0u64..1000, dt in 0.01f64..1.0) {
        use mas::mhd::ops::deriv::CtGeom;
        let r = Mesh1d::uniform(6, 1.0, 2.0, NGHOST, false);
        let t = Mesh1d::uniform(6, 0.8, std::f64::consts::PI - 0.8, NGHOST, false);
        let p = Mesh1d::uniform(6, 0.0, std::f64::consts::TAU, NGHOST, true);
        let g = SphericalGrid::new(r, t, p);
        let ct = CtGeom::new(&g);
        // Deterministic pseudo-random fill from the seed.
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut rand = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let mut mk = |s: Stagger| {
            let mut f = mas::field::Field::zeros("f", s, &g);
            for v in f.data.as_mut_slice() {
                *v = rand();
            }
            f
        };
        let mut br = mk(Stagger::FaceR);
        let mut bt = mk(Stagger::FaceT);
        let mut bp = mk(Stagger::FaceP);
        let er = mk(Stagger::EdgeR);
        let et = mk(Stagger::EdgeT);
        let ep = mk(Stagger::EdgeP);

        let cells = IndexSpace3::interior_trimmed(Stagger::CellCenter, g.nr, g.nt, g.np, (1, 1, 1));
        let mut before = vec![];
        cells.for_each(|i, j, k| before.push(ct.divb(&br.data, &bt.data, &bp.data, i, j, k)));

        br.interior().for_each(|i, j, k| {
            let a = ct.area_r(i, j, k);
            br.data.add(i, j, k, -dt * ct.circ_r(&et.data, &ep.data, i, j, k) / a);
        });
        bt.interior().for_each(|i, j, k| {
            let a = ct.area_t(i, j, k);
            if a > 0.0 {
                bt.data.add(i, j, k, -dt * ct.circ_t(&er.data, &ep.data, i, j, k) / a);
            }
        });
        bp.interior().for_each(|i, j, k| {
            let a = ct.area_p(i, j);
            bp.data.add(i, j, k, -dt * ct.circ_p(&er.data, &et.data, i, j, k) / a);
        });

        let mut n = 0;
        cells.for_each(|i, j, k| {
            let d = ct.divb(&br.data, &bt.data, &bp.data, i, j, k);
            assert!((d - before[n]).abs() < 1e-8, "divB changed at ({i},{j},{k})");
            n += 1;
        });
    }
}
