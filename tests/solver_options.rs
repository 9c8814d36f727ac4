//! Integration: the optional solver paths — PCG vs STS vs explicit
//! viscosity (the ref.-\[25\] trade) and isotropic vs field-aligned
//! conduction — produce consistent physics on the full solver.

mod common;

use common::Scratch;
use mas::config::ViscSolver;
use mas::prelude::*;

fn base_deck() -> Deck {
    let mut d = Deck::preset_quickstart();
    d.time.n_steps = 8;
    d.output.hist_interval = 8;
    d
}

#[test]
fn viscosity_solvers_agree_on_physics() {
    let run = |vs: ViscSolver| {
        let mut d = base_deck();
        d.solver.visc_solver = vs;
        mas::mhd::run_single_rank(&d, CodeVersion::A)
            .hist
            .last()
            .unwrap()
            .diag
    };
    let pcg = run(ViscSolver::Pcg);
    let sts = run(ViscSolver::Sts);
    let exp = run(ViscSolver::Explicit);
    let rel = |a: f64, b: f64| ((a - b) / b.abs().max(1e-300)).abs();
    // Different discretizations of the same mildly-stiff operator: tight
    // but not bitwise agreement.
    for (label, d) in [("sts", sts), ("explicit", exp)] {
        assert!(rel(d.mass, pcg.mass) < 1e-10, "{label} mass");
        assert!(rel(d.etherm, pcg.etherm) < 1e-8, "{label} etherm");
        assert!(
            rel(d.ekin, pcg.ekin) < 1e-2,
            "{label} ekin {} vs pcg {}",
            d.ekin,
            pcg.ekin
        );
        assert!(d.divb_max < 1e-11, "{label} divB");
    }
}

#[test]
fn sts_viscosity_avoids_global_reductions() {
    // PCG issues 2+ allreduces per iteration; STS none inside the stages.
    // Compare the Collective category totals.
    let coll = |vs: ViscSolver| {
        let mut d = base_deck();
        d.solver.visc_solver = vs;
        let r = mas::mhd::run_single_rank(&d, CodeVersion::A);
        r.cat_us
            .iter()
            .find(|(n, _)| *n == "COLL")
            .map(|&(_, t)| t)
            .unwrap_or(0.0)
    };
    let pcg = coll(ViscSolver::Pcg);
    let sts = coll(ViscSolver::Sts);
    assert!(
        pcg > 1.5 * sts,
        "PCG must spend more on collectives: {pcg} vs {sts}"
    );
}

#[test]
fn aligned_conduction_runs_and_differs_physically() {
    // Start from a temperature hot spot so conduction matters from step 1
    // (the quickstart IC is isothermal, where both operators are inert).
    let run = |aligned: bool| {
        let mut d = base_deck();
        d.solver.aligned_conduction = aligned;
        d.physics.kappa0 = 0.05;
        mas::minimpi::World::run(1, move |comm| {
            let mut sim = mas::mhd::Simulation::builder(&d)
                .version(CodeVersion::A)
                .build();
            // Hot blob off-axis.
            for di in 0..3 {
                for dj in 0..3 {
                    sim.state.temp.data.set(5 + di, 5 + dj, 6, 1.8);
                }
            }
            sim.run(&comm);
            let flux_kernels = sim
                .par
                .registry
                .sites()
                .any(|s| s.site.name == "conduct_flux_r");
            (sim.hist.last().unwrap().diag, flux_kernels)
        })
        .pop()
        .unwrap()
    };
    let (di, iso_flux) = run(false);
    let (da, ani_flux) = run(true);
    // Both stable and finite, divB unaffected.
    assert!(da.temp_min > 0.0 && da.etherm.is_finite());
    assert!(da.divb_max < 1e-11);
    // The anisotropic operator transports measurably differently
    // (suppressed cross-field flux), but conserves the same global mass.
    let rel = |a: f64, b: f64| ((a - b) / b.abs().max(1e-300)).abs();
    assert!(rel(da.mass, di.mass) < 1e-8);
    assert!(
        rel(da.etherm, di.etherm) > 1e-9,
        "aligned conduction should change the thermal evolution: {} vs {}",
        da.etherm,
        di.etherm
    );
    assert!(ani_flux, "aligned run must launch the flux kernels");
    assert!(!iso_flux, "isotropic run must not");
}

#[test]
fn aligned_conduction_under_all_code_versions() {
    // The new kernels (CallsRoutine class) must behave under every policy.
    let mut d = base_deck();
    d.time.n_steps = 3;
    d.output.hist_interval = 3;
    d.solver.aligned_conduction = true;
    let reference = mas::mhd::run_single_rank(&d, CodeVersion::A)
        .hist
        .last()
        .unwrap()
        .diag;
    for v in [CodeVersion::Ad, CodeVersion::D2xu] {
        let got = mas::mhd::run_single_rank(&d, v).hist.last().unwrap().diag;
        let rel = |a: f64, b: f64| ((a - b) / b.abs().max(1e-300)).abs();
        assert!(rel(got.etherm, reference.etherm) < 1e-12, "{v:?}");
    }
}

#[test]
fn checkpoint_roundtrip_through_cli_level_api() {
    // End-to-end: run, save, restore into a new sim, continue; history
    // stays sane and time advances monotonically.
    let dir = Scratch::new("solver_options_ckpt");
    let path = dir.0.join("ck.dump");
    let deck = base_deck();
    mas::minimpi::World::run(1, |comm| {
        let mut sim = mas::mhd::Simulation::builder(&deck).version(CodeVersion::A).build();
        sim.run(&comm);
        let t_mid = sim.time;
        mas::mhd::checkpoint::save(&mut sim, &path).unwrap();
        // `n_steps` is the TOTAL step count: restoring a finished run and
        // calling `run` again is a graceful no-op... (`restart_slot` wires
        // the checkpoint load through the builder.)
        let mut sim2 = mas::mhd::Simulation::builder(&deck)
            .version(CodeVersion::A)
            .restart_slot(&path)
            .build();
        assert_eq!(sim2.time, t_mid);
        assert_eq!(sim2.step, deck.time.n_steps);
        assert!(sim2.resumed);
        sim2.run(&comm);
        assert_eq!(sim2.time, t_mid, "already at the target step");
        // ...while a raised target continues the trajectory.
        let mut d2 = deck.clone();
        d2.time.n_steps = deck.time.n_steps + 2;
        let mut sim3 = mas::mhd::Simulation::builder(&d2)
            .version(CodeVersion::A)
            .restart_slot(&path)
            .build();
        sim3.run(&comm);
        assert_eq!(sim3.step, d2.time.n_steps);
        assert!(sim3.time > t_mid);
        assert!(sim3.state.find_non_finite().is_none());
    });
}
