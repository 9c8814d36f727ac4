//! Host probes shared by the benchmarks: the machine fingerprint, the
//! git SHA, the folded state hash and the peak resident set that tag
//! every `perfbench` result.

/// Machine fingerprint so a result is never compared across hosts.
#[derive(Clone, Debug, PartialEq)]
pub struct Machine {
    /// CPU model string from `/proc/cpuinfo`.
    pub cpu: String,
    /// Logical CPU count.
    pub ncpu: u64,
    /// Kernel hostname.
    pub hostname: String,
}

/// Peak resident set (`VmHWM`) of this process in kB, from
/// `/proc/self/status`; 0 where the file is unavailable.
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
        }
    }
    0
}

/// Fingerprint the host: CPU model, logical CPU count, hostname.
///
/// The CPU count comes from counting `processor` entries in
/// `/proc/cpuinfo` — `available_parallelism` reflects the affinity
/// mask / cgroup quota of *this process*, which under a constrained
/// runner reports 1 even on a many-core host (the `ncpu: 1` bug in
/// the original `BENCH_6.json`). The affinity-mask value is kept only
/// as a fallback when `/proc/cpuinfo` is unavailable.
pub fn machine_fingerprint() -> Machine {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").ok();
    let cpu = cpuinfo
        .as_deref()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let ncpu_cpuinfo = cpuinfo
        .as_deref()
        .map(|s| {
            s.lines()
                .filter(|l| {
                    l.strip_prefix("processor")
                        .is_some_and(|rest| rest.trim_start().starts_with(':'))
                })
                .count() as u64
        })
        .unwrap_or(0);
    let ncpu = if ncpu_cpuinfo > 0 {
        ncpu_cpuinfo
    } else {
        std::thread::available_parallelism()
            .map(|n| n.get() as u64)
            .unwrap_or(1)
    };
    let hostname = std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".into());
    Machine { cpu, ncpu, hostname }
}

/// `git rev-parse HEAD`, with `-dirty` appended when `git status
/// --porcelain` reports any change (untracked files included), so a run
/// of uncommitted code never carries its parent's SHA; `"unknown"` when
/// git is unavailable.
pub fn git_sha() -> String {
    git_sha_in(std::path::Path::new("."))
}

/// [`git_sha`] of the working tree at `dir`.
fn git_sha_in(dir: &std::path::Path) -> String {
    let git = |args: &[&str]| {
        std::process::Command::new("git")
            .arg("-C")
            .arg(dir)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_owned())
    };
    match git(&["rev-parse", "HEAD"]).filter(|s| !s.is_empty()) {
        None => "unknown".into(),
        Some(sha) if git(&["status", "--porcelain"]).is_some_and(|s| !s.is_empty()) => {
            format!("{sha}-dirty")
        }
        Some(sha) => sha,
    }
}

/// Fold per-rank state hashes into one FNV-1a value, rendered as hex.
pub fn fold_hashes(hashes: &[u64]) -> String {
    let mut acc: u64 = 0xcbf29ce484222325;
    for &h in hashes {
        for byte in h.to_le_bytes() {
            acc ^= byte as u64;
            acc = acc.wrapping_mul(0x100000001b3);
        }
    }
    format!("{acc:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ncpu_fingerprint_counts_processors() {
        let m = machine_fingerprint();
        // On any Linux host /proc/cpuinfo lists every logical CPU; the
        // affinity-mask fallback also guarantees >= 1.
        assert!(m.ncpu >= 1);
        if let Ok(s) = std::fs::read_to_string("/proc/cpuinfo") {
            let n = s
                .lines()
                .filter(|l| {
                    l.strip_prefix("processor")
                        .is_some_and(|rest| rest.trim_start().starts_with(':'))
                })
                .count() as u64;
            if n > 0 {
                assert_eq!(m.ncpu, n);
            }
        }
    }

    #[test]
    fn probes_do_not_panic() {
        let m = machine_fingerprint();
        assert!(m.ncpu >= 1);
        let _ = peak_rss_kb();
        let sha = git_sha();
        assert!(!sha.is_empty());
        assert_eq!(fold_hashes(&[1, 2]).len(), 16);
    }

    #[test]
    fn git_sha_is_marked_dirty_by_any_working_tree_change() {
        let dir = std::env::temp_dir().join(format!("mas_git_sha_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let git = |args: &[&str]| {
            let out = std::process::Command::new("git")
                .arg("-C")
                .arg(&dir)
                .args(["-c", "user.name=bench", "-c", "user.email=bench@localhost"])
                .args(["-c", "commit.gpgsign=false"])
                .args(args)
                .output()
                .expect("git runs");
            assert!(out.status.success(), "git {args:?}: {out:?}");
        };
        git(&["init", "-q"]);
        std::fs::write(dir.join("deck.nml"), "one\n").unwrap();
        git(&["add", "deck.nml"]);
        git(&["commit", "-q", "-m", "first"]);
        let sha = git_sha_in(&dir);
        assert!(sha.len() >= 40 && sha.chars().all(|c| c.is_ascii_hexdigit()), "{sha}");

        std::fs::write(dir.join("deck.nml"), "two\n").unwrap();
        assert_eq!(git_sha_in(&dir), format!("{sha}-dirty"), "modified file");
        std::fs::write(dir.join("deck.nml"), "one\n").unwrap();
        assert_eq!(git_sha_in(&dir), sha, "restored file");
        std::fs::write(dir.join("new.txt"), "untracked\n").unwrap();
        assert_eq!(git_sha_in(&dir), format!("{sha}-dirty"), "untracked file");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
