//! Integration: the dynamic race auditor — the runtime check of the
//! `do concurrent` iteration-independence contract that the paper's DC
//! ports rely on (§IV; every DC body must be iteration-independent or
//! the port is a silent miscompile on some compiler).
//!
//! Three claims are exercised here:
//!
//! 1. **The auditor catches the real historical hazard.** `temp_advect`'s
//!    upwind φ sweep reads the written temperature at `k ± 1` and is the
//!    one kernel PR 1's *manual* audit had to declare `Site::serial()`.
//!    Re-declaring the same physics body as `Tiling::Outer` (the mutant)
//!    must produce a structured violation report naming the site and the
//!    conflicting (buffer, k) pairs.
//! 2. **Every shipped kernel is clean in every code version.** A full
//!    quickstart run under `par_audit` across all six versions reports
//!    zero violations — the mechanized version of PR 1's hand audit.
//! 3. **Audit mode observes without perturbing.** Audit-on and audit-off
//!    runs produce bit-identical state and identical censuses.

use mas::field::{Field, VecField};
use mas::grid::SphericalGrid;
use mas::gpusim::DeviceSpec;
use mas::mhd::ops::deriv::DivGeom;
use mas::mhd::physics::advect;
use mas::prelude::*;
use mas::stdpar::{LoopClass, Par, RaceKind, Site};

/// The deliberately mis-tiled mutant: the exact `temp_advect` body, but
/// claiming the `do concurrent` contract (`Tiling::Outer`, the default)
/// instead of the correct `Site::serial()` declaration.
static TEMP_ADVECT_MUTANT: Site =
    Site::new("temp_advect_mutant", LoopClass::Parallel, 3).heavy();

fn advect_setup(audit: bool) -> (SphericalGrid, Par, Field, VecField, DivGeom) {
    let g = SphericalGrid::coronal(12, 10, 8, 8.0);
    let mut spec = DeviceSpec::a100_40gb();
    spec.jitter_sigma = 0.0;
    let mut par = Par::builder(spec)
        .version(CodeVersion::D2xu)
        .threads(2)
        .audit(audit)
        .build();
    par.ctx.set_phase(mas::gpusim::Phase::Compute);
    let mut temp = Field::zeros("temp", Stagger::CellCenter, &g);
    temp.init_with(&g, |r, t, p| 1.0 + 0.2 * (r * t).sin() + 0.1 * p.cos());
    let mut v = VecField::zeros_faces("v", &g);
    v.r.init_with(&g, |r, t, p| 0.05 * (r + t + p).sin());
    v.t.init_with(&g, |r, t, p| 0.04 * (r * t - p).cos());
    v.p.init_with(&g, |r, t, p| 0.03 * (r - t + 2.0 * p).sin());
    for f in std::iter::once(&mut temp).chain(v.comps_mut()) {
        let id = par.ctx.mem.register(f.data.bytes(), f.name);
        f.buf = Some(id);
        par.ctx.enter_data(id);
    }
    let geom = DivGeom::new(&g);
    (g, par, temp, v, geom)
}

/// Claim 1: the mutation test. The auditor must flag the mis-tiled
/// upwind sweep with a read/write violation across distinct k-planes and
/// a report naming the site and suggesting `Site::serial()`.
#[test]
fn auditor_flags_mis_tiled_temp_advect() {
    let (g, mut par, mut temp, v, geom) = advect_setup(true);
    advect::advect_temperature_at(
        &mut par,
        &TEMP_ADVECT_MUTANT,
        &g,
        &geom,
        &mut temp,
        &v,
        0.1,
        5.0 / 3.0,
    );
    let audit = par.race_audit();
    assert!(audit.enabled);
    assert_eq!(audit.launches_audited, 1);
    assert!(!audit.is_clean(), "the k-neighbour recurrence must be flagged");
    assert!(
        audit.violations.iter().all(|vi| vi.site == "temp_advect_mutant"),
        "only the mutant site may appear: {:?}",
        audit.violations
    );
    // The upwind φ gradient reads the written temperature at k-1/k+1:
    // every violation is a cross-tile read with distinct k planes.
    for vi in &audit.violations {
        assert_eq!(vi.kind, RaceKind::ReadWrite, "{vi:?}");
        assert_ne!(vi.k_a, vi.k_b, "conflicting tiles must differ: {vi:?}");
        assert_eq!(
            vi.k_a.abs_diff(vi.k_b),
            1,
            "the recurrence is nearest-neighbour in k: {vi:?}"
        );
    }
    let report = audit.report();
    assert!(report.contains("FAILED"));
    assert!(report.contains("temp_advect_mutant"));
    assert!(report.contains("Site::serial"), "report must suggest the fix:\n{report}");
}

/// The correctly declared production site passes the same physics clean:
/// `Site::serial()` sites are exempt from tiling, hence from the audit.
#[test]
fn correctly_declared_temp_advect_is_clean() {
    let (g, mut par, mut temp, v, geom) = advect_setup(true);
    advect::advect_temperature(&mut par, &g, &geom, &mut temp, &v, 0.1, 5.0 / 3.0);
    let audit = par.race_audit();
    assert!(audit.enabled);
    assert_eq!(
        audit.launches_audited, 0,
        "serial sites bypass tiling and need no audit"
    );
    assert!(audit.is_clean());
}

/// The mutant and the production kernel compute the same physics when
/// both run serially (audit mode serializes the mutant's tiles), which
/// is what makes the mutation test a pure *declaration* mutation.
#[test]
fn mutant_body_matches_production_body_under_audit() {
    let (g, mut par_a, mut temp_a, v_a, geom_a) = advect_setup(true);
    advect::advect_temperature(&mut par_a, &g, &geom_a, &mut temp_a, &v_a, 0.1, 5.0 / 3.0);
    let (g2, mut par_b, mut temp_b, v_b, geom_b) = advect_setup(true);
    advect::advect_temperature_at(
        &mut par_b,
        &TEMP_ADVECT_MUTANT,
        &g2,
        &geom_b,
        &mut temp_b,
        &v_b,
        0.1,
        5.0 / 3.0,
    );
    assert_eq!(
        temp_a.data.as_slice(), temp_b.data.as_slice(),
        "audited (serialized) mutant must reproduce the serial site bitwise"
    );
}

/// The row-sliced path is auditable at the same element granularity as
/// the scalar path: a `loop3_rows` kernel whose `(j, k)` iteration
/// writes its own row window but *reads* the same buffer's row in the
/// next k-plane violates the iteration-independence contract across k
/// tiles, and the auditor must flag it just as it flags the
/// `temp_advect` mutant.
#[test]
fn auditor_flags_overlapping_row_windows() {
    use mas::field::Array3;
    use mas::gpusim::Traffic;
    use mas::grid::IndexSpace3;

    static ROW_OVERLAP_MUTANT: Site =
        Site::new("row_overlap_mutant", LoopClass::Parallel, 3).heavy();

    let mut spec = DeviceSpec::a100_40gb();
    spec.jitter_sigma = 0.0;
    let mut par = Par::builder(spec)
        .version(CodeVersion::D2xu)
        .threads(2)
        .audit(true)
        .build();
    par.ctx.set_phase(mas::gpusim::Phase::Compute);
    let mut a = Array3::zeros(8, 6, 8);
    let b = par.ctx.mem.register(a.bytes(), "rowbuf");
    par.ctx.enter_data(b);
    let sp = IndexSpace3 { i0: 1, i1: 7, j0: 1, j1: 5, k0: 1, k1: 7 };
    let v = a.par_view();
    par.loop3_rows(&ROW_OVERLAP_MUTANT, sp, Traffic::new(1, 1, 1), &[b], &[b], |j, k| {
        // Deliberate contract violation: read the row another k-plane
        // owns (k+1, or k-1 at the top edge) while writing our own.
        let k_src = if k + 1 < sp.k1 { k + 1 } else { k - 1 };
        let src: Vec<f64> = v.row(sp.i0, sp.i1, j, k_src).to_vec();
        let out = v.row_mut(sp.i0, sp.i1, j, k);
        for n in 0..out.len() {
            out[n] += 0.5 * src[n] + 1.0;
        }
    });
    let audit = par.race_audit();
    assert!(audit.enabled);
    assert_eq!(audit.launches_audited, 1);
    assert!(
        !audit.is_clean(),
        "the cross-plane row read must be flagged:\n{}",
        audit.report()
    );
    assert!(
        audit.violations.iter().all(|vi| vi.site == "row_overlap_mutant"),
        "only the mutant site may appear: {:?}",
        audit.violations
    );
    for vi in &audit.violations {
        assert_eq!(vi.kind, RaceKind::ReadWrite, "{vi:?}");
        assert_eq!(
            vi.k_a.abs_diff(vi.k_b),
            1,
            "the overlap is nearest-neighbour in k: {vi:?}"
        );
    }
    assert!(audit.report().contains("row_overlap_mutant"));
}

/// Claim 2: the clean pass. Every shipped kernel in a full solver run —
/// advection, momentum, induction, conduction (STS), viscosity (PCG),
/// boundary conditions, polar fixes, halo pack/unpack — satisfies the
/// iteration-independence contract under all six code versions.
#[test]
fn all_shipped_sites_audit_clean_in_all_six_versions() {
    let mut deck = Deck::preset_quickstart();
    deck.time.n_steps = 3;
    deck.output.hist_interval = 3;
    deck.par_audit = true;
    for &v in CodeVersion::ALL.iter() {
        let r = mas::mhd::run_single_rank(&deck, v);
        let a = &r.race_audit;
        assert!(a.enabled, "{v:?}: deck key must arm the auditor");
        assert!(
            a.is_clean(),
            "{v:?}: shipped kernels must be race-free:\n{}",
            a.report()
        );
        assert!(
            a.sites_audited >= 20,
            "{v:?}: expected most solver sites audited, got {}",
            a.sites_audited
        );
        assert!(a.launches_audited >= a.sites_audited as u64);
        assert!(
            a.launches_skipped > 0,
            "{v:?}: steady-state relaunches should be audit-once-skipped"
        );
        assert!(a.report().contains("CLEAN"));
    }
}

/// Claim 3: audit mode is observation-only — state hash, diagnostics,
/// kernel census and host-tile census are identical with it on or off.
#[test]
fn audit_mode_does_not_perturb_the_run() {
    let mut deck = Deck::preset_quickstart();
    deck.time.n_steps = 3;
    deck.output.hist_interval = 3;
    let run = |audit: bool, version| {
        let mut d = deck.clone();
        d.par_audit = audit;
        mas::mhd::run_single_rank(&d, version)
    };
    for &v in &[CodeVersion::A, CodeVersion::Ad2xu, CodeVersion::D2xad] {
        let off = run(false, v);
        let on = run(true, v);
        assert!(!off.race_audit.enabled);
        assert_eq!(off.race_audit.launches_audited, 0);
        assert!(on.race_audit.enabled);
        assert!(on.race_audit.launches_audited > 0);
        assert_eq!(off.state_hash, on.state_hash, "{v:?}: bit-identical state");
        assert_eq!(off.kernel_launches, on.kernel_launches, "{v:?}");
        assert_eq!(off.host_tiles, on.host_tiles, "{v:?}: census unchanged");
        let d_off = off.hist.last().unwrap().diag;
        let d_on = on.hist.last().unwrap().diag;
        assert_eq!(d_off.mass.to_bits(), d_on.mass.to_bits(), "{v:?}");
        assert_eq!(d_off.etherm.to_bits(), d_on.etherm.to_bits(), "{v:?}");
    }
}

/// The auditor also rides along on multi-rank runs (each rank audits its
/// own executor) without changing the physics.
#[test]
fn audit_mode_works_across_ranks() {
    let mut deck = Deck::preset_quickstart();
    deck.time.n_steps = 2;
    deck.output.hist_interval = 2;
    deck.par_audit = true;
    let rep = mas::mhd::run_multi_rank(
        &deck,
        CodeVersion::Ad,
        DeviceSpec::a100_40gb(),
        2,
        1,
        false,
    );
    for r in &rep.ranks {
        assert!(r.race_audit.enabled, "rank {}", r.rank);
        assert!(r.race_audit.is_clean(), "rank {}:\n{}", r.rank, r.race_audit.report());
        assert!(r.race_audit.launches_audited > 0, "rank {}", r.rank);
    }
}
