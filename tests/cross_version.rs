//! Integration: the paper's §V-A validation — all six code versions
//! produce the same physical solution, while the virtual-platform
//! performance model orders them the way the paper measures.

use mas::config::{GridCfg, ViscSolver};
use mas::mhd::MultiRankReport;
use mas::prelude::*;
use mas_bench::baseline::fold_hashes;

fn run_all() -> Vec<RunReport> {
    let mut deck = Deck::preset_quickstart();
    deck.time.n_steps = 4;
    deck.output.hist_interval = 4;
    deck.paper_cells = 36_000_000;
    CodeVersion::ALL
        .iter()
        .map(|&v| mas::mhd::run_single_rank(&deck, v))
        .collect()
}

#[test]
fn all_versions_produce_identical_physics() {
    let reports = run_all();
    let r0 = reports[0].hist.last().unwrap().diag;
    for r in &reports {
        let d = r.hist.last().unwrap().diag;
        let rel = |a: f64, b: f64| ((a - b) / b.abs().max(1e-300)).abs();
        assert!(rel(d.mass, r0.mass) < 1e-12, "{:?} mass", r.version);
        assert!(rel(d.etherm, r0.etherm) < 1e-12, "{:?} etherm", r.version);
        assert!(rel(d.emag, r0.emag) < 1e-12, "{:?} emag", r.version);
        assert!(
            (d.divb_max - r0.divb_max).abs() < 1e-12,
            "{:?} divb",
            r.version
        );
    }
}

/// The determinism matrix: for every code version, runs at host-engine
/// widths 1, 2 and 4 must agree *bitwise* — final-state hash, model wall
/// clock, kernel census, host-tile census, and the directive-audit census
/// are all thread-count independent. The engine only changes who executes
/// the numerics, never what is computed or charged.
#[test]
fn determinism_matrix_across_thread_counts() {
    let mut deck = Deck::preset_quickstart();
    deck.time.n_steps = 3;
    deck.output.hist_interval = 3;
    for &v in CodeVersion::ALL.iter() {
        let mut reference = None;
        for threads in [1usize, 2, 4] {
            let mut d = deck.clone();
            d.host_threads = threads;
            let r = mas::mhd::run_single_rank(&d, v);
            let audit = mas::stdpar::DirectiveAudit::new(&r.registry);
            let census = audit.census(v).total();
            let key = (
                r.state_hash,
                r.wall_us.to_bits(),
                r.kernel_launches,
                r.host_tiles,
                census,
                r.hist
                    .last()
                    .map(|h| (h.diag.mass.to_bits(), h.diag.etherm.to_bits(), h.diag.emag.to_bits())),
            );
            match &reference {
                None => reference = Some(key),
                Some(base) => assert_eq!(
                    &key, base,
                    "{v:?} at {threads} host threads diverged from the 1-thread run"
                ),
            }
        }
    }
}

/// The golden-hash anchor for the one-body hot kernels: `BENCH_7.json`'s
/// deck (quickstart physics on a 20×16×24 grid, 10 steps, seed 1) must
/// reproduce the folded state hashes committed there, under every code
/// version, at 1 rank × 1 thread and at 2 ranks × 2 threads.
///
/// The same runs also pin the modeled program: every rank's model clock
/// and kernel census must equal [`GOLDEN_MODEL`], so a host-only change
/// shows "modeled counters unchanged" here.
#[test]
fn golden_state_hashes_match_bench_7() {
    let runs =
        assert_golden_on_bench_7_deck("pcg", |_| {}, ["9b8592cc36c27c36", "2b32f96fdc8359f1"]);
    assert_model(&runs, GOLDEN_MODEL);
}

/// [`golden_state_hashes_match_bench_7`]'s model per version, layout
/// (ranks x threads) and rank: `wall_us`, `mpi_us` and `kernel_bytes` as
/// `f64` bits, then the launch and host-tile censuses.
const GOLDEN_MODEL: &str = "\
A 1x1 r0 wall_us=40d68b7c381246cc mpi_us=40ccc5ba9af05f6a kernel_bytes=41b8126e40000000 launches=1975 tiles=28782
AD 1x1 r0 wall_us=40e37236d39a17ca mpi_us=40d3dfe5019ab226 kernel_bytes=41b8126e40000000 launches=1975 tiles=28782
ADU 1x1 r0 wall_us=41146cf24413e5a4 mpi_us=4112fa76e39c4123 kernel_bytes=41b8126e40000000 launches=1975 tiles=28782
AD2XU 1x1 r0 wall_us=41146cfca21199fd mpi_us=4112fa76e39c4123 kernel_bytes=41b8126e40000000 launches=1975 tiles=28782
D2XU 1x1 r0 wall_us=41146cfca21199fd mpi_us=4112fa76e39c4123 kernel_bytes=41b8126e40000000 launches=1975 tiles=28782
D2XAd 1x1 r0 wall_us=40e4b954b33a4f90 mpi_us=40d3dfd669d5a802 kernel_bytes=41b9309360000000 launches=2195 tiles=28782
A 2x2 r0 wall_us=40d66c1b1aeb747d mpi_us=40ccd7718d74dd31 kernel_bytes=41a8edf780000000 launches=1975 tiles=14706
A 2x2 r1 wall_us=40d66c19529c2f90 mpi_us=40ccd5b490a0a740 kernel_bytes=41a8edf780000000 launches=1975 tiles=14706
AD 2x2 r0 wall_us=40e3659b886bd544 mpi_us=40d3efb6386abbe8 kernel_bytes=41a8edf780000000 launches=1975 tiles=14706
AD 2x2 r1 wall_us=40e36591dfd55b08 mpi_us=40d3eca20f0ecca9 kernel_bytes=41a8edf780000000 launches=1975 tiles=14706
ADU 2x2 r0 wall_us=41146ab4a8b53122 mpi_us=4112fbaa793cfdfa kernel_bytes=41a8edf780000000 launches=1975 tiles=14706
ADU 2x2 r1 wall_us=41146ab331108bda mpi_us=4112fb6e9a86fe44 kernel_bytes=41a8edf780000000 launches=1975 tiles=14706
AD2XU 2x2 r0 wall_us=41146ab9eab31f76 mpi_us=4112fbaa793cfdf8 kernel_bytes=41a8edf780000000 launches=1975 tiles=14706
AD2XU 2x2 r1 wall_us=41146ab8730e7a31 mpi_us=4112fb6e9a86fe44 kernel_bytes=41a8edf780000000 launches=1975 tiles=14706
D2XU 2x2 r0 wall_us=41146ab9eab31f76 mpi_us=4112fbaa793cfdf8 kernel_bytes=41a8edf780000000 launches=1975 tiles=14706
D2XU 2x2 r1 wall_us=41146ab8730e7a31 mpi_us=4112fb6e9a86fe44 kernel_bytes=41a8edf780000000 launches=1975 tiles=14706
D2XAd 2x2 r0 wall_us=40e4ababf67d8c38 mpi_us=40d3ef708b43945d kernel_bytes=41aa2493c0000000 launches=2195 tiles=14706
D2XAd 2x2 r1 wall_us=40e4abbc9cb2e886 mpi_us=40d3ec082ec827bf kernel_bytes=41aa2493c0000000 launches=2195 tiles=14706
";

/// The supervised path's anchor: the same deck, checkpointed every 5
/// steps at 2 ranks × 1 thread (`step_small`'s layout), lands on the
/// 2-rank golden hash, commits a checkpoint at steps 5 and 10 on every
/// rank, and books [`GOLDEN_SUPERVISED_MODEL`]: the health allreduce,
/// the rollback snapshots and the checkpoint saves on top of the plain
/// run's model.
#[test]
fn supervised_run_keeps_the_golden_hash_and_model() {
    let dir = std::env::temp_dir().join(format!("mas_cross_version_ckpt_{}", std::process::id()));
    let mut deck = bench_7_deck();
    deck.host_threads = 1;
    deck.checkpoint.interval = 5;
    deck.checkpoint.dir = dir.to_string_lossy().into_owned();
    let mut runs = Vec::new();
    for v in CodeVersion::ALL {
        let _ = std::fs::remove_dir_all(&dir);
        let report = mas::mhd::run_multi_rank(&deck, v, DeviceSpec::a100_40gb(), 2, 1, false);
        let hashes: Vec<u64> = report.ranks.iter().map(|r| r.state_hash).collect();
        assert_eq!(fold_hashes(&hashes), "2b32f96fdc8359f1", "{v:?} supervised at 2 x 1");
        for r in &report.ranks {
            assert_eq!(r.recovery.checkpoints_written, 2, "{v:?} rank {}", r.rank);
        }
        runs.push(("2x1".to_string(), v, report));
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_model(&runs, GOLDEN_SUPERVISED_MODEL);
}

/// [`supervised_run_keeps_the_golden_hash_and_model`]'s model, in
/// [`GOLDEN_MODEL`]'s format.
const GOLDEN_SUPERVISED_MODEL: &str = "\
A 2x1 r0 wall_us=40d6c6c04d20f2fd mpi_us=40ccfb7fcedf4b33 kernel_bytes=41a8edf780000000 launches=1975 tiles=14706
A 2x1 r1 wall_us=40d6c6c04d20f30d mpi_us=40ccf9c662a99f39 kernel_bytes=41a8edf780000000 launches=1975 tiles=14706
AD 2x1 r0 wall_us=40e392f832244e9f mpi_us=40d401d17a5b671d kernel_bytes=41a8edf780000000 launches=1975 tiles=14706
AD 2x1 r1 wall_us=40e392f832244eb4 mpi_us=40d3fed0a22c6c80 kernel_bytes=41a8edf780000000 launches=1975 tiles=14706
ADU 2x1 r0 wall_us=41147ee1e4b65201 mpi_us=4112fccc8a3c128f kernel_bytes=41a8edf780000000 launches=1975 tiles=14706
ADU 2x1 r1 wall_us=41147ee1e4b65204 mpi_us=4112fc92232ab824 kernel_bytes=41a8edf780000000 launches=1975 tiles=14706
AD2XU 2x1 r0 wall_us=41147ee726b44057 mpi_us=4112fccc8a3c128f kernel_bytes=41a8edf780000000 launches=1975 tiles=14706
AD2XU 2x1 r1 wall_us=41147ee726b4405a mpi_us=4112fc92232ab824 kernel_bytes=41a8edf780000000 launches=1975 tiles=14706
D2XU 2x1 r0 wall_us=41147ee726b44057 mpi_us=4112fccc8a3c128f kernel_bytes=41a8edf780000000 launches=1975 tiles=14706
D2XU 2x1 r1 wall_us=41147ee726b4405a mpi_us=4112fc92232ab824 kernel_bytes=41a8edf780000000 launches=1975 tiles=14706
D2XAd 2x1 r0 wall_us=40e4d904770b704d mpi_us=40d401837adf1505 kernel_bytes=41aa2493c0000000 launches=2195 tiles=14706
D2XAd 2x1 r1 wall_us=40e4d9237775f636 mpi_us=40d3fe37d2cdfba0 kernel_bytes=41aa2493c0000000 launches=2195 tiles=14706
";

/// Compare every rank's model clock and kernel census in `runs` with
/// `golden`, one line per version, layout and rank: `wall_us`, `mpi_us`
/// and `kernel_bytes` as `f64` bits, then the launch and host-tile
/// censuses. A mismatch prints every row, in bits and in decimal.
fn assert_model(runs: &[(String, CodeVersion, MultiRankReport)], golden: &str) {
    let mut model = Vec::new();
    let mut decimal = Vec::new();
    for (layout, v, report) in runs {
        for r in &report.ranks {
            let at = format!("{} {layout} r{}", v.tag(), r.rank);
            model.push(format!(
                "{at} wall_us={:016x} mpi_us={:016x} kernel_bytes={:016x} launches={} tiles={}",
                r.wall_us.to_bits(),
                r.mpi_us.to_bits(),
                r.kernel_bytes.to_bits(),
                r.kernel_launches,
                r.host_tiles
            ));
            decimal.push(format!(
                "{at}: wall_us {} mpi_us {} kernel_bytes {}",
                r.wall_us, r.mpi_us, r.kernel_bytes
            ));
        }
    }
    assert!(
        model.iter().map(String::as_str).eq(golden.lines()),
        "the modeled program changed; this run reads:\n{}\n\nthat is, in decimal:\n{}",
        model.join("\n"),
        decimal.join("\n")
    );
}

/// The same anchor for the solver paths the default deck does not take:
/// RKL2 super-time-stepped viscosity, explicit viscosity, and PCG
/// viscosity with field-aligned conduction. Hashes recorded before the
/// PCG host fusion and the static Jacobi diagonal; they must not move.
#[test]
fn golden_state_hashes_for_sts_explicit_and_aligned_paths() {
    assert_golden_on_bench_7_deck(
        "sts",
        |d| d.solver.visc_solver = ViscSolver::Sts,
        ["4940b88af34e905e", "b6b570b42ea5addd"],
    );
    assert_golden_on_bench_7_deck(
        "explicit",
        |d| d.solver.visc_solver = ViscSolver::Explicit,
        ["b500167557d30978", "7750e165b1bddb07"],
    );
    assert_golden_on_bench_7_deck(
        "pcg + aligned conduction",
        |d| d.solver.aligned_conduction = true,
        ["34d2b11b9e65c6c8", "717d6f68f360d3f7"],
    );
}

/// Run the `BENCH_7` deck, adjusted by `tweak`, under every code version
/// at 1 rank × 1 thread and 2 ranks × 2 threads, and compare the folded
/// state hashes with `golden` (in that order). Returns every report with
/// its layout (`"1x1"`, `"2x2"`) and version.
fn assert_golden_on_bench_7_deck(
    label: &str,
    tweak: impl Fn(&mut Deck),
    golden: [&str; 2],
) -> Vec<(String, CodeVersion, MultiRankReport)> {
    let mut deck = bench_7_deck();
    tweak(&mut deck);
    let mut runs = Vec::new();
    for ((ranks, threads), golden) in [(1, 1), (2, 2)].into_iter().zip(golden) {
        deck.host_threads = threads;
        for v in CodeVersion::ALL {
            let report =
                mas::mhd::run_multi_rank(&deck, v, DeviceSpec::a100_40gb(), ranks, 1, false);
            let hashes: Vec<u64> = report.ranks.iter().map(|r| r.state_hash).collect();
            assert_eq!(
                fold_hashes(&hashes),
                golden,
                "{label}: {v:?} at {ranks} rank(s) x {threads} thread(s)"
            );
            runs.push((format!("{ranks}x{threads}"), v, report));
        }
    }
    runs
}

/// `BENCH_7.json`'s deck: quickstart physics on a 20×16×24 grid, 10
/// steps, no history.
fn bench_7_deck() -> Deck {
    let mut deck = Deck::preset_quickstart();
    deck.grid = GridCfg { nr: 20, nt: 16, np: 24, rmax: 10.0 };
    deck.time.n_steps = 10;
    deck.output.hist_interval = 0;
    deck
}

/// The host engine actually tiles: a multi-thread run dispatches the same
/// tile census as a serial run (tiles are per-k-plane, not per-thread).
#[test]
fn host_tile_census_is_positive_and_width_independent() {
    let mut deck = Deck::preset_quickstart();
    deck.time.n_steps = 2;
    let mut d1 = deck.clone();
    d1.host_threads = 1;
    deck.host_threads = 4;
    let serial = mas::mhd::run_single_rank(&d1, CodeVersion::Ad);
    let wide = mas::mhd::run_single_rank(&deck, CodeVersion::Ad);
    assert!(serial.host_tiles > 0, "bulk kernels must dispatch tiles");
    assert_eq!(serial.host_tiles, wide.host_tiles);
}

#[test]
fn performance_ordering_matches_paper() {
    let reports = run_all();
    let wall = |v: CodeVersion| {
        reports
            .iter()
            .find(|r| r.version == v)
            .map(|r| r.wall_us)
            .unwrap()
    };
    // Code 1 (A) is the fastest version (fusion + async + manual memory).
    for v in CodeVersion::ALL {
        assert!(wall(CodeVersion::A) <= wall(v), "A must be fastest, {v:?}");
    }
    // The unified-memory versions are the slow group.
    for um in [CodeVersion::Adu, CodeVersion::Ad2xu, CodeVersion::D2xu] {
        for manual in [CodeVersion::A, CodeVersion::Ad, CodeVersion::D2xad] {
            assert!(
                wall(um) > 1.15 * wall(manual),
                "{um:?} must be well slower than {manual:?}"
            );
        }
    }
    // AD is within a modest factor of A (the paper's 'performance nearly
    // as good as Code 1' statement), and D2XAd close behind AD.
    assert!(wall(CodeVersion::Ad) < 1.15 * wall(CodeVersion::A));
    assert!(wall(CodeVersion::D2xad) < 1.25 * wall(CodeVersion::A));
    // The full-UM slowdown lands in the paper's 1.25x–3x window.
    let slow = wall(CodeVersion::D2xu) / wall(CodeVersion::A);
    assert!(
        (1.25..=3.2).contains(&slow),
        "D2XU/A slowdown {slow} outside the paper's reported band"
    );
}

#[test]
fn um_versions_lose_time_to_page_migration() {
    let reports = run_all();
    let mig = |v: CodeVersion| {
        reports
            .iter()
            .find(|r| r.version == v)
            .unwrap()
            .cat_us
            .iter()
            .find(|(n, _)| *n == "UM-PAGE")
            .map(|&(_, t)| t)
            .unwrap_or(0.0)
    };
    assert_eq!(mig(CodeVersion::A), 0.0);
    assert_eq!(mig(CodeVersion::Ad), 0.0);
    assert!(mig(CodeVersion::Adu) > 0.0);
    assert!(mig(CodeVersion::D2xu) > 0.0);
}

#[test]
fn directive_counts_decrease_along_the_port() {
    let reports = run_all();
    let audit = mas::stdpar::DirectiveAudit::new(&reports[0].registry);
    let totals: Vec<usize> = CodeVersion::ALL
        .iter()
        .map(|&v| audit.census(v).total())
        .collect();
    assert!(totals[0] > totals[1], "A > AD");
    assert!(totals[1] > totals[2], "AD > ADU");
    assert!(totals[2] > totals[3], "ADU > AD2XU");
    assert_eq!(totals[4], 0, "D2XU reaches zero directives");
    assert!(totals[5] > 0 && totals[5] < totals[1], "D2XAd between");
    // The A -> AD reduction is the big one (paper: 2.7x; ours is solver-
    // mix dependent but must exceed 1.8x).
    assert!(
        totals[0] as f64 / totals[1] as f64 > 1.8,
        "A->AD reduction too small: {totals:?}"
    );
}
