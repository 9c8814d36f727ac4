//! Smoke runs of every workload at shrunk sizes, end-to-end and traced:
//! each must exit 0 and end with a result line that names every metric
//! of its table with the declared unit and parses back strictly.
//!
//! `serve_mix` and the serve layer need the `mas_serve` executable; run
//! the suite with `python3 perfbench/run.py --selftest`, which builds it
//! and passes its path in `MAS_SERVE_BIN`.

use mas_bench::json::Json;
use perfbench::report::{parse_result_line, END_TO_END, PER_LAYER};
use std::process::Command;

fn serve_bin() -> String {
    std::env::var("MAS_SERVE_BIN").expect(
        "MAS_SERVE_BIN must name the mas_serve executable \
         (run the suite through `python3 perfbench/run.py --selftest`)",
    )
}

fn smoke(workload: &str, trace: bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(["--serve-bin", &serve_bin()])
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace}: exit {:?}\nstdout:\n{stdout}\nstderr:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    let table = if trace { PER_LAYER } else { END_TO_END };
    let doc = parse_result_line(last, table).unwrap_or_else(|e| panic!("{workload}: {e}\n{last}"));
    assert_eq!(
        doc.get("correct"),
        Some(&Json::Bool(true)),
        "{workload}: {last}"
    );
}

#[test]
fn step_large_smoke() {
    smoke("step_large", false);
    smoke("step_large", true);
}

#[test]
fn step_small_smoke() {
    smoke("step_small", false);
    smoke("step_small", true);
}

#[test]
fn serve_mix_smoke() {
    smoke("serve_mix", false);
    smoke("serve_mix", true);
}

#[test]
fn env_overrides_are_refused() {
    for var in [
        "MAS_HOST_THREADS",
        "MAS_TILE_K",
        "MAS_PAR_AUDIT",
        "MAS_TEST_TIME_SCALE",
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args([
                "--workload",
                "step_small",
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                "0",
                "--smoke",
            ])
            .env(var, "1")
            .output()
            .expect("run perfbench");
        assert_eq!(out.status.code(), Some(2), "{var}");
        assert!(
            out.stdout.is_empty(),
            "{var}: no result line may be printed"
        );
    }
}
