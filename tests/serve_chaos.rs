//! The seeded chaos soak: every serving failure domain of `mas_serve`,
//! driven over real TCP against child server processes.
//!
//! A fixed seed draws the whole schedule up front, so a failure replays
//! exactly. In order, the soak runs:
//!
//! * physics jobs disturbed by rank kills and halo drops, with
//!   half-written connections dropped before some submissions;
//! * a crash-looping deck driven to quarantine and refused on resubmit;
//! * a deadline overrun;
//! * a SIGKILL while two jobs run, then a restart over the journal, a
//!   wire `drain`, and a `--drain` boot over the recovered state;
//! * every completed job again on an undisturbed baseline server.
//!
//! Invariants: no acknowledged job is lost, every completed result is
//! bit-exact against the baseline, the device ledger balances, the
//! quarantine (and its clear) survives the kill, and a result finished
//! before the kill is a zero-step cache hit after it.

mod common;

use common::ChildServer;
use mas_config::{Deck, FaultKind};
use mas_serve::{wire, JobSpec, RemoteClient};
use std::path::Path;
use std::time::Duration;

/// The schedule seed. It draws every [`ChaosKind`], which the test
/// asserts before anything runs.
const SEED: u64 = 2;

/// Steps of each job the SIGKILL interrupts: long enough that the kill
/// lands mid-run, short enough that their reruns keep the soak quick.
const KILLED_JOB_STEPS: usize = 150;

/// xorshift64 (Marsaglia): the soak's only randomness source, fully
/// determined by [`SEED`].
struct ChaosRng(u64);

impl ChaosRng {
    fn new(seed: u64) -> Self {
        ChaosRng(if seed == 0 {
            0x9E37_79B9_7F4A_7C15
        } else {
            seed
        })
    }
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
    /// Uniform-ish draw in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo)
    }
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum ChaosKind {
    /// An undisturbed run.
    Clean,
    /// Rank 1 panics mid-step; the supervisor respawns and restores it.
    RankKill,
    /// Rank 1 drops a halo message; the peer diagnoses the timeout and
    /// the supervisor rolls back.
    HaloDrop,
}

#[derive(Debug)]
struct ChaosJob {
    kind: ChaosKind,
    seed: u64,
    n_steps: usize,
    /// Drop a half-written connection on the server right before this
    /// submission (the wire edge must shrug it off).
    drop_before: bool,
}

/// Everything random about the soak, drawn up front and fingerprinted
/// before anything executes.
#[derive(Debug)]
struct ChaosSchedule {
    jobs: Vec<ChaosJob>,
    panic_seed: u64,
    deadline_seed: u64,
    killed_seeds: [u64; 2],
    fingerprint: u64,
}

impl ChaosSchedule {
    fn draw(seed: u64) -> Self {
        let mut rng = ChaosRng::new(seed);
        let mut fp = ChaosRng::new(seed ^ 0xC4A5);
        let mut note = |v: u64| {
            fp.0 ^= v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            fp.next();
        };
        let mut jobs = Vec::new();
        for _ in 0..4 {
            let kind = match rng.range(0, 3) {
                0 => ChaosKind::Clean,
                1 => ChaosKind::RankKill,
                _ => ChaosKind::HaloDrop,
            };
            let job = ChaosJob {
                kind,
                seed: rng.range(1, 1000),
                n_steps: rng.range(6, 12) as usize,
                drop_before: rng.next() & 1 == 1,
            };
            note(match kind {
                ChaosKind::Clean => 0,
                ChaosKind::RankKill => 1,
                ChaosKind::HaloDrop => 2,
            });
            note(job.seed);
            note(job.n_steps as u64);
            note(u64::from(job.drop_before));
            jobs.push(job);
        }
        let panic_seed = rng.range(1, 1000);
        let deadline_seed = rng.range(1, 1000);
        let killed_seeds = [rng.range(1, 1000), rng.range(1, 1000)];
        note(panic_seed);
        note(deadline_seed);
        note(killed_seeds[0]);
        note(killed_seeds[1]);
        let fingerprint = fp.next();
        ChaosSchedule {
            jobs,
            panic_seed,
            deadline_seed,
            killed_seeds,
            fingerprint,
        }
    }
}

fn deck(n_steps: usize) -> Deck {
    let mut d = Deck::preset_quickstart();
    d.time.n_steps = n_steps;
    d.output.hist_interval = 0;
    d
}

/// The deck for one scheduled chaos job, and its rank count.
fn chaos_deck(job: &ChaosJob, ckpt_root: &Path, i: usize) -> (Deck, usize) {
    let mut d = deck(job.n_steps);
    if job.kind == ChaosKind::Clean {
        return (d, 1);
    }
    let dir = ckpt_root.join(format!("job{i}"));
    std::fs::create_dir_all(&dir).expect("create checkpoint dir");
    d.checkpoint.interval = 2;
    d.checkpoint.dir = dir.to_string_lossy().into_owned();
    d.resilience.max_respawns = 1;
    d.fault.kind = match job.kind {
        ChaosKind::RankKill => FaultKind::Panic,
        // A dropped halo message with no transport retry is lost for
        // good: only the receive deadline ends the wait for it.
        ChaosKind::HaloDrop => {
            d.resilience.recv_deadline_ms = 500;
            FaultKind::HaloDrop
        }
        ChaosKind::Clean => unreachable!(),
    };
    d.fault.step = 3;
    d.fault.rank = 1;
    (d, 2)
}

/// One request line on a fresh connection; the one reply line.
fn request(addr: &str, line: &str) -> String {
    RemoteClient::connect(addr)
        .request(line)
        .unwrap_or_else(|e| panic!("request {line:?}: {e}"))
}

/// Block until job `id` is terminal; its final status line.
fn wait(addr: &str, id: u64) -> String {
    RemoteClient::connect(addr)
        .wait(id)
        .unwrap_or_else(|e| panic!("wait id={id}: {e}"))
}

fn field(reply: &str, key: &str) -> Option<String> {
    RemoteClient::field(reply, key).ok()
}

fn count(reply: &str, key: &str) -> u64 {
    field(reply, key)
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no numeric {key}= in {reply:?}"))
}

fn hashes(addr: &str, id: u64) -> String {
    let r = request(addr, &format!("result id={id}"));
    field(&r, "hashes").unwrap_or_else(|| panic!("no hashes for job {id}: {r}"))
}

/// Open a connection, write a partial or garbage request, and drop it
/// without ever finishing the line — the modelled flaky client.
fn drop_connection(addr: &str, garbage: bool) {
    use std::io::Write;
    if let Ok(mut s) = std::net::TcpStream::connect(addr) {
        let _ = if garbage {
            s.write_all(b"\x00\xff\xfe half a request that never ends")
        } else {
            s.write_all(b"submit tenant=chaos version=A ranks=1")
        };
    }
}

/// A completed job to replay on the baseline server: its undisturbed
/// spec and the hashes the chaos run produced.
struct Completed {
    id: u64,
    clean: JobSpec,
    hashes: String,
}

#[test]
fn seeded_chaos_soak_loses_nothing_and_stays_bit_exact() {
    let sched = ChaosSchedule::draw(SEED);
    println!("seed={SEED} schedule={sched:?}");
    assert_eq!(
        ChaosSchedule::draw(SEED).fingerprint,
        sched.fingerprint,
        "the same seed must draw the same schedule"
    );
    for kind in [ChaosKind::Clean, ChaosKind::RankKill, ChaosKind::HaloDrop] {
        assert!(
            sched.jobs.iter().any(|j| j.kind == kind),
            "seed {SEED} never draws {kind:?}"
        );
    }

    let tmp = std::env::temp_dir();
    let pid = std::process::id();
    let state = tmp.join(format!("mas_serve_chaos_{pid}"));
    let baseline_state = tmp.join(format!("mas_serve_chaos_base_{pid}"));
    let ckpt_root = tmp.join(format!("mas_serve_chaos_ckpt_{pid}"));
    for dir in [&state, &baseline_state, &ckpt_root] {
        let _ = std::fs::remove_dir_all(dir);
    }
    let state_arg = state.to_string_lossy().into_owned();
    let journaled = [
        "--devices",
        "2",
        "--workers",
        "2",
        "--state-dir",
        &state_arg,
    ];

    let server_a = ChildServer::spawn(&journaled);
    let addr = server_a.addr.clone();
    // Every id the first incarnation acknowledged; each must resolve to
    // a terminal state after the restart.
    let mut acked: Vec<u64> = Vec::new();
    let mut submit = |spec: &JobSpec| -> u64 {
        let r = request(&addr, &wire::encode_submit(spec));
        let id = field(&r, "id")
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| panic!("submit rejected: {r}"));
        acked.push(id);
        id
    };

    // -- Scene A: disturbed physics under connection chaos ------------
    let mut completed: Vec<Completed> = Vec::new();
    let mut scene_a = Vec::new();
    let mut first_spec = None;
    for (i, job) in sched.jobs.iter().enumerate() {
        if job.drop_before {
            drop_connection(&addr, i % 2 == 0);
        }
        let (deck, ranks) = chaos_deck(job, &ckpt_root, i);
        let spec = JobSpec::new(deck.clone())
            .tenant("chaos")
            .ranks(ranks)
            .seed(job.seed)
            .max_attempts(3);
        let mut clean_deck = deck;
        clean_deck.fault.kind = FaultKind::None;
        let clean = JobSpec::new(clean_deck).ranks(ranks).seed(job.seed);
        scene_a.push((submit(&spec), clean));
        first_spec.get_or_insert(spec);
    }
    for (id, clean) in scene_a {
        let r = wait(&addr, id);
        assert_eq!(
            field(&r, "state").as_deref(),
            Some("done"),
            "chaos job {id}: {r}"
        );
        let hashes = hashes(&addr, id);
        completed.push(Completed { id, clean, hashes });
    }

    // -- Scene B: a crash-looping deck is quarantined ------------------
    let mut panic_deck = deck(4);
    panic_deck.problem = "chaos-panic".into();
    let panic_spec = JobSpec::new(panic_deck)
        .tenant("chaos")
        .seed(sched.panic_seed)
        .max_attempts(2);
    let pid_job = submit(&panic_spec);
    let r = wait(&addr, pid_job);
    assert_eq!(field(&r, "state").as_deref(), Some("quarantined"), "{r}");
    let r = request(&addr, &wire::encode_submit(&panic_spec));
    assert!(
        r.starts_with("err ") && r.contains("quarantined"),
        "quarantined resubmission refused: {r}"
    );
    let r = request(&addr, "quarantine list");
    assert_eq!(field(&r, "n").as_deref(), Some("1"), "{r}");
    // Both panicking attempts were contained; the server still serves.
    let r = request(&addr, "stats");
    assert!(count(&r, "worker_panics") >= 2, "{r}");

    // -- Scene B2: a deadline fails a job cooperatively ----------------
    let deadline_spec = JobSpec::new(deck(3000))
        .tenant("chaos")
        .seed(sched.deadline_seed)
        .deadline_ms(250);
    let r = wait(&addr, submit(&deadline_spec));
    assert!(
        field(&r, "state").as_deref() == Some("failed")
            && field(&r, "error").is_some_and(|e| e.contains("deadline")),
        "over-deadline job fails with a deadline error: {r}"
    );

    // -- Scene C: SIGKILL mid-run, recover, verify ---------------------
    let killed: Vec<(u64, JobSpec)> = sched
        .killed_seeds
        .iter()
        .map(|&seed| {
            let spec = JobSpec::new(deck(KILLED_JOB_STEPS))
                .tenant("chaos")
                .seed(seed);
            (submit(&spec), spec)
        })
        .collect();
    let mut mid_run = false;
    for _ in 0..2000 {
        let r = request(&addr, &format!("status id={}", killed[0].0));
        let steps: usize = field(&r, "steps")
            .and_then(|s| s.split('/').next().and_then(|s| s.parse().ok()))
            .unwrap_or(0);
        match field(&r, "state").as_deref() {
            Some("running") if steps > 5 => {
                mid_run = true;
                break;
            }
            Some("done") => break,
            _ => std::thread::sleep(Duration::from_millis(2)),
        }
    }
    assert!(mid_run, "caught a killed-to-be job mid-run");
    let done_before_kill = count(&request(&addr, "stats"), "done");
    drop(server_a); // SIGKILL

    let mut server_b = ChildServer::spawn(&journaled);
    let addr = server_b.addr.clone();
    let recovery = server_b.recovery.clone().expect("recovery summary line");
    assert_eq!(
        field(&recovery, "quarantine_keys").as_deref(),
        Some("1"),
        "{recovery}"
    );
    assert_eq!(
        field(&recovery, "requeued").as_deref(),
        Some("2"),
        "{recovery}"
    );
    assert_eq!(
        count(&recovery, "done"),
        done_before_kill,
        "every job done before the kill is restored: {recovery}"
    );
    for (id, spec) in killed {
        let r = wait(&addr, id);
        assert_eq!(
            field(&r, "state").as_deref(),
            Some("done"),
            "requeued job {id}: {r}"
        );
        let hashes = hashes(&addr, id);
        completed.push(Completed {
            id,
            clean: spec,
            hashes,
        });
    }

    // A result finished before the kill survives as a zero-step cache
    // hit with the identical report.
    let first_spec = first_spec.expect("scene A submitted a job");
    let steps_before = count(&request(&addr, "stats"), "total_steps");
    let r = request(&addr, &wire::encode_submit(&first_spec));
    let resubmitted: u64 = field(&r, "id")
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("resubmit rejected: {r}"));
    let r = wait(&addr, resubmitted);
    assert_eq!(field(&r, "cached").as_deref(), Some("true"), "{r}");
    assert_eq!(count(&request(&addr, "stats"), "total_steps"), steps_before);
    assert_eq!(hashes(&addr, resubmitted), completed[0].hashes);

    // The quarantine is still enforced after the restart, then cleared.
    let r = request(&addr, &wire::encode_submit(&panic_spec));
    assert!(
        r.starts_with("err ") && r.contains("quarantined"),
        "quarantine enforced after recovery: {r}"
    );
    let r = request(&addr, "quarantine clear");
    assert_eq!(field(&r, "cleared").as_deref(), Some("1"), "{r}");
    let r = request(&addr, "quarantine list");
    assert_eq!(field(&r, "n").as_deref(), Some("0"), "{r}");

    // No acknowledged job was lost.
    for &id in &acked {
        let r = request(&addr, &format!("status id={id}"));
        let state_now = field(&r, "state").unwrap_or_default();
        assert!(
            ["done", "failed", "cancelled", "quarantined"].contains(&state_now.as_str()),
            "acknowledged job {id} is terminal after recovery: {r}"
        );
    }
    let r = request(&addr, "stats");
    assert!(
        field(&r, "busy").as_deref() == Some("0")
            && field(&r, "running").as_deref() == Some("0")
            && field(&r, "queued").as_deref() == Some("0"),
        "pool idle and ledger balanced after the soak: {r}"
    );
    let r = RemoteClient::connect(addr.as_str()).drain().expect("drain");
    assert_eq!(r, "ok drained");
    let status = server_b.wait();
    assert!(status.success(), "drained server exited with {status}");

    // A headless --drain boot over the recovered state exits 0.
    let status = std::process::Command::new(env!("CARGO_BIN_EXE_mas_serve"))
        .args(["--devices", "2", "--state-dir", &state_arg, "--drain"])
        .stdout(std::process::Stdio::null())
        .status()
        .expect("run mas_serve --drain");
    assert!(status.success(), "--drain boot exited with {status}");

    // -- Scene D: bit-exactness vs an undisturbed baseline -------------
    let mut server_c = ChildServer::spawn(&[
        "--devices",
        "2",
        "--workers",
        "2",
        "--state-dir",
        &baseline_state.to_string_lossy(),
    ]);
    let addr = server_c.addr.clone();
    let baseline_ids: Vec<u64> = completed
        .iter()
        .map(|c| {
            let r = request(
                &addr,
                &wire::encode_submit(&c.clean.clone().tenant("baseline")),
            );
            field(&r, "id")
                .and_then(|s| s.parse().ok())
                .unwrap_or_else(|| panic!("baseline submit rejected: {r}"))
        })
        .collect();
    for (c, bid) in completed.iter().zip(baseline_ids) {
        let r = wait(&addr, bid);
        assert_eq!(
            field(&r, "state").as_deref(),
            Some("done"),
            "baseline job {bid}: {r}"
        );
        assert_eq!(
            c.hashes,
            hashes(&addr, bid),
            "chaos job {} hashes bit-exact vs the undisturbed baseline",
            c.id
        );
    }
    assert_eq!(request(&addr, "shutdown"), "ok shutting-down");
    assert!(server_c.wait().success());

    for dir in [&state, &baseline_state, &ckpt_root] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
