//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <step_large|step_small|serve_mix> --seed N
//!           --seconds S --trace <0|1> [--smoke] [--serve-bin PATH]
//! ```
//!
//! Usually started through `python3 perfbench/run.py`, which builds the
//! release binaries first. One invocation runs one workload and prints,
//! as the last line of standard output, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end table of `report.rs`; with `--trace 1`,
//! the per-layer table. Every solver run and every served result is
//! checked bit-exactly against a recorded state hash; any mismatch makes
//! the exit code non-zero. See `perfbench/README.md`.

pub mod layers;
pub mod report;
pub mod serve;
pub mod solver;
pub mod stats;
pub mod trace;

use mas_bench::baseline::{git_sha, machine_fingerprint};
use mas_bench::json::Json;
use report::{result_line, Outcome, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;

/// Environment overrides that silently change the program measured.
const FORBIDDEN_ENV: [&str; 4] = [
    "MAS_HOST_THREADS",
    "MAS_TILE_K",
    "MAS_PAR_AUDIT",
    "MAS_TEST_TIME_SCALE",
];

/// Recorded folded state hashes, keyed by workload (and `.smoke`).
const STATE_HASHES: &str = include_str!("../state_hashes.json");

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement length.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Shrunk sizes that finish in seconds.
    pub smoke: bool,
    /// The `mas_serve` executable (serve_mix and the serve layer).
    pub serve_bin: Option<PathBuf>,
    /// This run's scratch directory (checkpoints, server state), under
    /// `.perfbench_work/`, which also keeps the span traces.
    pub work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        smoke: false,
        serve_bin: None,
        work: PathBuf::from(".perfbench_work"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut val = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--smoke" => a.smoke = true,
            "--serve-bin" => a.serve_bin = Some(PathBuf::from(val()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(a.seconds > 0.0 && a.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// The recorded hash for `key`, or an error naming the missing key.
fn recorded_hash(key: &str) -> Result<String, String> {
    let doc = Json::parse(STATE_HASHES).map_err(|e| format!("state_hashes.json: {e}"))?;
    doc.get(key)
        .and_then(Json::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("state_hashes.json has no entry {key:?}"))
}

/// Hash-table key for a workload in the current mode.
fn hash_key(args: &Args, name: &str) -> String {
    if args.smoke {
        format!("{name}.smoke")
    } else {
        name.to_string()
    }
}

/// The host tag printed ahead of the result line.
fn host_tag(args: &Args) -> String {
    let m = machine_fingerprint();
    Json::Obj(vec![
        ("workload".into(), Json::Str(args.workload.clone())),
        ("seed".into(), Json::Num(args.seed as f64)),
        ("trace".into(), Json::Bool(args.trace)),
        ("smoke".into(), Json::Bool(args.smoke)),
        ("git_sha".into(), Json::Str(git_sha())),
        ("cpu".into(), Json::Str(m.cpu)),
        ("nproc".into(), Json::Num(m.ncpu as f64)),
        ("hostname".into(), Json::Str(m.hostname)),
    ])
    .pretty()
    .split_whitespace()
    .collect::<Vec<_>>()
    .join(" ")
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "step_large" | "step_small" => {
            let w = if args.workload == "step_large" {
                solver::Solver::step_large(args.smoke)
            } else {
                solver::Solver::step_small(args.smoke)
            };
            let expect = recorded_hash(&hash_key(args, w.name))?;
            Ok(if args.trace {
                solver::run_traced(&w, args, &expect)?
            } else {
                solver::run_end_to_end(&w, args, &expect)
            })
        }
        "serve_mix" => serve::run(args),
        other => Err(format!(
            "unknown workload {other:?} (step_large | step_small | serve_mix)"
        )),
    }
}

/// The command-line entry point: parse, guard, run, print, exit code.
pub fn cli_main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: refusing to run with {var} set: it changes the program measured");
        return ExitCode::from(2);
    }
    let work = args
        .work
        .join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return ExitCode::from(2);
    }
    let args = Args { work, ..args };
    println!("{}", host_tag(&args));
    let outcome = run(&args);
    let _ = std::fs::remove_dir_all(&args.work);
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let (line, problems) = result_line(&outcome, table);
    for p in &problems {
        eprintln!("perfbench: {p}");
    }
    println!("{line}");
    if outcome.failed > 0 || !problems.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
