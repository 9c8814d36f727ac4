//! The `mas` binary end to end, on one checkpointed two-rank deck: a
//! clean run, a restart over a torn newest checkpoint slot, a rank panic
//! with no respawns, and a rank panic with one respawn. A last case runs
//! the race auditor over the quickstart preset under every code version.
//!
//! The clean run's state hash is the reference. A run that recovers must
//! print it again, bit for bit; a run that cannot recover must exit with
//! the documented code (3) and name the failed rank.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::sync::OnceLock;

/// The drill deck: 16x12x16 cells, `n_steps` steps, a checkpoint every
/// second step into `ckpt`, followed by the `extra` sections.
fn deck(n_steps: usize, ckpt: &Path, extra: &str) -> String {
    format!(
        "&run\n  problem = 'cli_drill'\n/\n\
         &grid\n  nr = 16\n  nt = 12\n  np = 16\n  rmax = 10.0\n/\n\
         &time\n  n_steps = {n_steps}\n/\n\
         &output\n  hist_interval = 0\n/\n\
         &checkpoint\n  interval = 2\n  dir = '{}'\n  max_recoveries = 3\n/\n\
         {extra}",
        ckpt.display()
    )
}

/// An empty directory for one case, removed again on drop. The process
/// id keeps concurrent runs of the suite apart.
struct Scratch(PathBuf);

impl Scratch {
    fn new(case: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("mas_cli_{case}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Write `text` to `dir/name` and run `mas` on it with two ranks.
fn run_mas(dir: &Path, name: &str, text: &str, args: &[&str]) -> Output {
    let path = dir.join(name);
    std::fs::write(&path, text).expect("write deck");
    Command::new(env!("CARGO_BIN_EXE_mas"))
        .arg(&path)
        .args(["--ranks", "2"])
        .args(args)
        .output()
        .expect("spawn mas")
}

/// Assert the exit code and return stdout (both streams shown on failure).
fn expect_exit(out: &Output, code: i32) -> String {
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert_eq!(
        out.status.code(),
        Some(code),
        "stdout:\n{stdout}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

/// The hash on the run's one `state hash  : <16 hex>` line.
fn state_hash(stdout: &str) -> String {
    let hashes: Vec<&str> = stdout
        .lines()
        .filter_map(|l| l.trim_start().strip_prefix("state hash  : "))
        .collect();
    assert_eq!(hashes.len(), 1, "want one state-hash line:\n{stdout}");
    let h = hashes[0];
    assert!(
        h.len() == 16 && h.bytes().all(|b| b.is_ascii_hexdigit()),
        "not 16 hex digits: {h:?}"
    );
    h.to_string()
}

/// Case (a): the clean six-step run exits 0; its hash is the reference.
fn reference_hash() -> &'static str {
    static REFERENCE: OnceLock<String> = OnceLock::new();
    REFERENCE.get_or_init(|| {
        let Scratch(dir) = &Scratch::new("clean");
        let out = run_mas(dir, "clean.deck", &deck(6, &dir.join("ckpt"), ""), &[]);
        state_hash(&expect_exit(&out, 0))
    })
}

#[test]
fn clean_run_prints_one_state_hash() {
    reference_hash();
}

#[test]
fn restart_skips_a_torn_newest_slot_and_reproduces_the_clean_hash() {
    let Scratch(dir) = &Scratch::new("restart");
    let ckpt = dir.join("ckpt");
    expect_exit(&run_mas(dir, "short.deck", &deck(4, &ckpt, ""), &[]), 0);

    // Slot b holds the step-4 checkpoint. Flip one byte near the end of
    // each rank's copy so the restart must fall back to slot a (step 2).
    let mut torn = 0;
    for entry in std::fs::read_dir(&ckpt).expect("checkpoint dir") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if name.starts_with("ckpt_r") && name.ends_with("_b.dump") {
            let mut bytes = std::fs::read(&path).expect("read slot");
            let at = bytes.len() - 10;
            bytes[at] ^= 0xff;
            std::fs::write(&path, bytes).expect("tear slot");
            torn += 1;
        }
    }
    assert_eq!(torn, 2, "one newest slot per rank");

    let ckpt_arg = ckpt.to_string_lossy().into_owned();
    let out = run_mas(dir, "full.deck", &deck(6, &ckpt, ""), &["--restart", &ckpt_arg]);
    let stdout = expect_exit(&out, 0);
    let restored = stdout
        .lines()
        .find(|l| l.contains("restored from"))
        .unwrap_or_else(|| panic!("no restore line:\n{stdout}"));
    assert!(restored.contains("(step 2)"), "{restored}");
    assert_eq!(state_hash(&stdout), reference_hash());
}

#[test]
fn rank_panic_without_respawns_exits_3_naming_the_rank() {
    let Scratch(dir) = &Scratch::new("panic");
    let extra = "&fault\n  kind = 'panic'\n  step = 2\n  rank = 1\n/\n";
    let out = run_mas(dir, "panic.deck", &deck(6, &dir.join("ckpt"), extra), &[]);
    expect_exit(&out, 3);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("rank 1: injected fault"), "{stderr}");
    // Each failure is printed once, in words: no opaque payload at the
    // failure site, no doubled rank prefix in the summary.
    assert!(!stderr.contains("Box<dyn Any>"), "{stderr}");
    assert!(!stderr.contains("rank 0: rank 0:"), "{stderr}");
    let line_of = |prefix: &str| {
        let lines: Vec<&str> = stderr.lines().map(str::trim_start).collect();
        let at = lines.iter().position(|l| l.starts_with(prefix));
        at.map(|at| (at, lines[at])).unwrap_or_else(|| panic!("no {prefix:?} line:\n{stderr}"))
    };
    let (survivor_at, survivor) = line_of("rank 0: ");
    assert!(survivor.contains("rank 1"), "{survivor}");
    // The summary lists the cause first.
    let (cause_at, _) = line_of("rank 1: injected fault");
    assert!(cause_at < survivor_at, "{stderr}");
}

#[test]
fn rank_panic_with_one_respawn_reproduces_the_clean_hash() {
    let Scratch(dir) = &Scratch::new("respawn");
    let extra = "&resilience\n  max_respawns = 1\n/\n\
                 &fault\n  kind = 'panic'\n  step = 3\n  rank = 1\n/\n";
    let out = run_mas(dir, "respawn.deck", &deck(6, &dir.join("ckpt"), extra), &[]);
    let stdout = expect_exit(&out, 0);
    assert!(stdout.contains("1 respawn(s)"), "{stdout}");
    assert_eq!(state_hash(&stdout), reference_hash());
}

#[test]
fn race_audit_is_clean_under_every_version() {
    // `MAS_PAR_AUDIT=1` checks every tiled kernel against the
    // iteration-independence contract; a violation exits 1. The six
    // children run at once.
    let children: Vec<_> = ["A", "AD", "ADU", "AD2XU", "D2XU", "D2XAd"]
        .into_iter()
        .map(|v| {
            let child = Command::new(env!("CARGO_BIN_EXE_mas"))
                .args(["--preset", "quickstart", "--version", v])
                .env("MAS_PAR_AUDIT", "1")
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn mas");
            (v, child)
        })
        .collect();
    // Reap every child before the first assertion can fail.
    let outputs: Vec<_> = children
        .into_iter()
        .map(|(v, child)| (v, child.wait_with_output().expect("wait for mas")))
        .collect();
    for (v, out) in outputs {
        let stdout = expect_exit(&out, 0);
        assert!(stdout.contains("race audit: CLEAN"), "{v}:\n{stdout}");
        assert_eq!(state_hash(&stdout), "7269324283b3f515", "{v}");
    }
}
