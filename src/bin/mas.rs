//! `mas` — the command-line driver: read a namelist deck, run the solver
//! under a chosen code version / device / rank count, and report.
//!
//! ```text
//! mas <deck-file> [--version A|AD|ADU|AD2XU|D2XU|D2XAd]
//!                 [--ranks N] [--device gpu|cpu] [--seed N]
//!                 [--paper-cells N] [--audit] [--profile] [--hist-csv PATH]
//!                 [--restart PATH]
//! mas --preset quickstart|coronal_background|flux_rope [same options]
//! ```
//!
//! `--audit` (or `MAS_PAR_AUDIT=1`, or `par_audit = .true.` in the deck)
//! runs the dynamic race auditor: every tiled kernel is checked against
//! the `do concurrent` iteration-independence contract and the run exits
//! non-zero if any kernel violates it.
//!
//! `--restart PATH` resumes from a checkpoint: either a single `.dump`
//! file or a checkpoint directory (the per-rank two-slot rotation written
//! by `checkpoint_interval > 0` in the deck's `&checkpoint` section).
//!
//! Exit codes: 0 success, 1 race-audit violation, 2 usage/deck error,
//! 3 unrecoverable run failure (rank panic, lost message, exhausted
//! rollback budget), 4 respawn budget exhausted (a rank died more times
//! than `&resilience max_respawns` allows).

use gpusim::DeviceSpec;
use mas::prelude::*;
use std::process::ExitCode;

struct Args {
    deck: Deck,
    version: CodeVersion,
    ranks: usize,
    spec: DeviceSpec,
    seed: u64,
    profile: bool,
    hist_csv: Option<String>,
}

fn usage() -> ! {
    eprintln!(
        "usage: mas <deck-file | --preset NAME> [options]\n\
         \n\
         options:\n\
           --preset NAME        quickstart | coronal_background | flux_rope\n\
           --version V          A | AD | ADU | AD2XU | D2XU | D2XAd   (default A)\n\
           --ranks N            MPI ranks / GPUs (default 1)\n\
           --device gpu|cpu|mi250  A100 node, EPYC node, or modeled MI250X (default gpu)\n\
           --seed N             jitter seed (default 1)\n\
           --paper-cells N      cost-model extrapolation target (overrides deck)\n\
           --audit              check every tiled kernel against the do-concurrent\n\
                                iteration-independence contract (MAS_PAR_AUDIT=1)\n\
           --profile            record and print a profiler timeline\n\
           --hist-csv PATH      write the diagnostic history as CSV\n\
           --restart PATH       resume from a checkpoint dump file or directory\n\
         \n\
         exit codes: 0 ok | 1 race audit failed | 2 usage | 3 run failed |\n\
                     4 respawn budget exhausted"
    );
    std::process::exit(2);
}

fn parse_version(s: &str) -> Option<CodeVersion> {
    CodeVersion::ALL
        .into_iter()
        .find(|v| v.tag().eq_ignore_ascii_case(s))
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1).peekable();
    let mut deck: Option<Deck> = None;
    let mut version = CodeVersion::A;
    let mut ranks = 1usize;
    let mut spec = DeviceSpec::a100_40gb();
    let mut seed = 1u64;
    let mut audit = false;
    let mut profile = false;
    let mut hist_csv = None;
    let mut paper_cells: Option<usize> = None;
    let mut restart: Option<String> = None;

    let next_val = |argv: &mut std::iter::Peekable<std::iter::Skip<std::env::Args>>,
                        flag: &str|
     -> Result<String, String> {
        argv.next().ok_or_else(|| format!("{flag} needs a value"))
    };

    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--preset" => {
                let name = next_val(&mut argv, "--preset")?;
                deck = Some(match name.as_str() {
                    "quickstart" => Deck::preset_quickstart(),
                    "coronal_background" => Deck::preset_coronal_background(),
                    "flux_rope" => Deck::preset_flux_rope(),
                    other => return Err(format!("unknown preset '{other}'")),
                });
            }
            "--version" => {
                let v = next_val(&mut argv, "--version")?;
                version = parse_version(&v).ok_or(format!("unknown version '{v}'"))?;
            }
            "--ranks" => {
                ranks = next_val(&mut argv, "--ranks")?
                    .parse()
                    .map_err(|e| format!("--ranks: {e}"))?;
            }
            "--device" => match next_val(&mut argv, "--device")?.as_str() {
                "gpu" | "a100" => spec = DeviceSpec::a100_40gb(),
                "cpu" => spec = DeviceSpec::epyc_7742_node(),
                "mi250" => spec = DeviceSpec::mi250x_gcd(),
                other => return Err(format!("unknown device '{other}'")),
            },
            "--seed" => {
                seed = next_val(&mut argv, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--paper-cells" => {
                paper_cells = Some(
                    next_val(&mut argv, "--paper-cells")?
                        .parse()
                        .map_err(|e| format!("--paper-cells: {e}"))?,
                );
            }
            "--audit" => audit = true,
            "--profile" => profile = true,
            "--hist-csv" => hist_csv = Some(next_val(&mut argv, "--hist-csv")?),
            "--restart" => restart = Some(next_val(&mut argv, "--restart")?),
            "--help" | "-h" => usage(),
            path if !path.starts_with('-') => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read deck '{path}': {e}"))?;
                deck = Some(Deck::parse(&text).map_err(|e| e.to_string())?);
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }

    let mut deck = deck.ok_or("no deck file or --preset given".to_string())?;
    if let Some(pc) = paper_cells {
        deck.paper_cells = pc;
    }
    if audit {
        deck.par_audit = true;
    }
    if let Some(r) = restart {
        deck.checkpoint.restart_from = r;
    }
    deck.validated().map_err(|e| e.to_string())?;
    Ok(Args {
        deck,
        version,
        ranks,
        spec,
        seed,
        profile,
        hist_csv,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("mas: {e}\n");
            usage();
        }
    };

    println!(
        "mas-rs: '{}' | {}x{}x{} cells | {} steps | {} | {} rank(s) on {}",
        args.deck.problem,
        args.deck.grid.nr,
        args.deck.grid.nt,
        args.deck.grid.np,
        args.deck.time.n_steps,
        args.version.label(),
        args.ranks,
        args.spec.name,
    );
    if args.deck.paper_cells > 0 {
        println!(
            "cost model extrapolates to {} cells (x{:.0} volume scale)",
            args.deck.paper_cells,
            args.deck.volume_scale()
        );
    }

    if args.deck.fault_armed() {
        println!(
            "fault armed: {} at step {} on rank {}",
            args.deck.fault.kind.name(),
            args.deck.fault.step,
            args.deck.fault.rank
        );
    }
    if args.deck.resilience.max_respawns > 0 {
        println!(
            "resilience: up to {} respawn(s)",
            args.deck.resilience.max_respawns
        );
    }

    let t_real = std::time::Instant::now();
    let report = match mas::mhd::run_supervised(
        &args.deck,
        args.version,
        args.spec.clone(),
        args.ranks,
        args.seed,
        args.profile,
    ) {
        Ok(r) => r,
        Err(e) => {
            // Unrecoverable: rank panic, lost message, exhausted recovery
            // budget, failed restart. Distinct exit codes so job scripts
            // can tell "physics failed" (3) from "bad invocation" (2)
            // from "rank kept dying past the respawn budget" (4).
            eprintln!("mas: run FAILED — {e}");
            return ExitCode::from(if e.respawns_exhausted { 4 } else { 3 });
        }
    };
    let elapsed = t_real.elapsed();

    let r0 = &report.ranks[0];
    println!("\nrun complete in {:.2} s (host):", elapsed.as_secs_f64());
    println!(
        "  model wall  : {:>10.3} s  ({:.2} model minutes)",
        report.wall_us() / 1e6,
        report.wall_us() / 60.0e6
    );
    println!(
        "  model MPI   : {:>10.3} s  ({:.1}% of wall)",
        report.mean_mpi_us() / 1e6,
        100.0 * report.mean_mpi_us() / report.wall_us()
    );
    println!("  kernel launches (all ranks): {}", report.total_launches());
    println!("  state hash  : {:016x}", r0.state_hash);
    println!("  recovery    : {}", r0.recovery.summary());
    if let Some(h) = r0.hist.last() {
        println!("\nfinal diagnostics:");
        println!("  t = {:.5}, dt = {:.3e}", h.time, h.dt);
        println!(
            "  mass {:.6e} | E_kin {:.4e} | E_mag {:.4e} | E_therm {:.4e}",
            h.diag.mass, h.diag.ekin, h.diag.emag, h.diag.etherm
        );
        println!(
            "  max|divB| {:.2e} | T_min {:.4} | |v|_max {:.4}",
            h.diag.divb_max, h.diag.temp_min, h.diag.speed_max
        );
    }

    if let Some(path) = &args.hist_csv {
        let mut csv = mas::io::CsvWriter::create(
            path,
            &["step", "time", "dt", "mass", "ekin", "emag", "etherm", "divb_max"],
        )
        .expect("csv");
        for h in &r0.hist {
            csv.row(&[
                h.step.to_string(),
                format!("{}", h.time),
                format!("{}", h.dt),
                format!("{}", h.diag.mass),
                format!("{}", h.diag.ekin),
                format!("{}", h.diag.emag),
                format!("{}", h.diag.etherm),
                format!("{}", h.diag.divb_max),
            ])
            .unwrap();
        }
        csv.flush().unwrap();
        println!("\nwrote {path}");
    }

    if args.profile {
        // nsys-stats-style kernel census from the site registry.
        let top = r0.registry.top_sites();
        let total = r0.registry.total_model_us().max(1e-300);
        println!("\ntop kernels by modeled GPU time (rank 0):");
        println!("{:>26} {:>10} {:>12} {:>7}", "kernel", "launches", "time (ms)", "share");
        for st in top.iter().take(12) {
            println!(
                "{:>26} {:>10} {:>12.3} {:>6.1}%",
                st.site.name,
                st.invocations,
                st.model_us / 1e3,
                100.0 * st.model_us / total
            );
        }

        let spans = &r0.spans;
        if let (Some(first), Some(last)) = (spans.first(), spans.last()) {
            let (t0, t1) = (first.t0, last.t1);
            let w0 = t0 + 0.4 * (t1 - t0);
            let w1 = t0 + 0.5 * (t1 - t0);
            println!("\n{}", mas::io::render_timeline(spans, w0, w1, 100, "rank 0"));
        }
    }

    // Race-audit verdict: report every rank; any violation fails the run.
    if report.ranks.iter().any(|r| r.race_audit.enabled) {
        let mut dirty = false;
        for r in &report.ranks {
            let a = &r.race_audit;
            if !a.is_clean() {
                dirty = true;
                println!("\nrank {}:", r.rank);
                print!("{}", a.report());
            }
        }
        if dirty {
            eprintln!("mas: race audit FAILED — see report above");
            return ExitCode::FAILURE;
        }
        print!("\n{}", r0.race_audit.report());
    }

    ExitCode::SUCCESS
}
