//! The `serve_mix` workload and the `serve` layer probes.
//!
//! A `mas_serve --state-dir <fresh dir> --devices 2` child on an
//! ephemeral port, driven over TCP by `mas_serve::RemoteClient` in a
//! closed loop: two connections, each submitting a job and waiting for
//! it before the next. Jobs are a seeded mix of tiny 1- and 2-rank runs
//! across all six code versions; about two thirds are fresh specs (cache
//! misses) and one third resubmit a spec the same connection finished
//! earlier (zero-step cache hits). Every served result is checked
//! against a reference hash computed in-process during set-up.

use crate::layers::fold;
use crate::report::Outcome;
use crate::solver::{self, Solver};
use crate::stats::{chunk_ranges, median};
use crate::trace::Recorder;
use crate::Args;
use gpusim::DeviceSpec;
use mas_config::{Deck, GridCfg};
use mas_serve::journal::{Journal, Record};
use mas_serve::{JobSpec, RemoteClient, RetryPolicy};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};
use stdpar::CodeVersion;

/// Server spawns behind `setup_s`.
const SETUP_REPS: usize = 21;
/// Closed-loop connections (= the host's two CPUs).
const CONNECTIONS: usize = 2;
/// Calls per serve-layer probe.
const RTT_REPS: usize = 200;
const APPEND_REPS: usize = 50;
const RUN_REPS: usize = 5;
/// Time-ordered slices behind each serve_mix statistic.
const CHUNKS: usize = 5;
/// Resubmissions pick among this many of the connection's latest
/// finished specs.
const RESUBMIT_WINDOW: usize = 48;

/// Job grid shapes, indexed by `Shape`.
fn shape_grid(shape: usize) -> GridCfg {
    [
        GridCfg {
            nr: 12,
            nt: 10,
            np: 12,
            rmax: 8.0,
        },
        GridCfg {
            nr: 16,
            nt: 12,
            np: 16,
            rmax: 10.0,
        },
    ][shape]
}

const SHAPES: usize = 2;

/// A tiny job deck of grid `shape`.
fn job_deck(shape: usize) -> Deck {
    let mut d = Deck::preset_quickstart();
    d.grid = shape_grid(shape);
    d.time.n_steps = 3;
    d.output.hist_interval = 0;
    d.host_threads = 1;
    d
}

/// Reference folded hash per (shape, ranks). Hashes depend on neither
/// the code version nor the seed, so one run each is the reference.
type References = BTreeMap<(usize, usize), String>;

fn references() -> Result<References, String> {
    let mut refs = BTreeMap::new();
    for shape in 0..SHAPES {
        for ranks in 1..=2 {
            let rep = mas_mhd::run_supervised(
                &job_deck(shape),
                CodeVersion::A,
                DeviceSpec::a100_40gb(),
                ranks,
                1,
                false,
            )
            .map_err(|e| format!("reference run: {e}"))?;
            refs.insert((shape, ranks), fold(rep.ranks.iter().map(|r| r.state_hash)));
        }
    }
    Ok(refs)
}

/// xorshift64: a dependency-free, seedable job stream.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// One submitted job as the generator made it.
#[derive(Clone)]
struct Job {
    spec: JobSpec,
    shape: usize,
}

/// One connection's seeded job stream: fresh specs, plus resubmissions
/// of specs this connection already finished.
struct JobStream {
    rng: Rng,
    conn: u64,
    seed: u64,
    made: u64,
    finished: Vec<Job>,
}

impl JobStream {
    fn new(seed: u64, conn: usize) -> Self {
        JobStream {
            rng: Rng::new(seed ^ (conn as u64 + 1) << 32),
            conn: conn as u64,
            seed,
            made: 0,
            finished: Vec::new(),
        }
    }

    fn next(&mut self) -> Job {
        self.made += 1;
        if !self.finished.is_empty() && self.rng.below(3) == 0 {
            // Only recent specs, which the bounded result cache still holds.
            let recent = self.finished.len().min(RESUBMIT_WINDOW);
            let i = self.finished.len() - 1 - self.rng.below(recent as u64) as usize;
            return self.finished[i].clone();
        }
        let shape = self.rng.below(SHAPES as u64) as usize;
        let ranks = 1 + self.rng.below(2) as usize;
        let version = CodeVersion::ALL[self.rng.below(6) as usize];
        // A fresh run identity: unique per (run seed, connection, job).
        let seed = (self.seed << 24) ^ (self.conn << 20) ^ self.made;
        let spec = JobSpec::new(job_deck(shape))
            .version(version)
            .ranks(ranks)
            .seed(seed)
            .tenant(&format!("conn{}", self.conn));
        Job { spec, shape }
    }
}

/// A running `mas_serve` child. Dropping it kills and reaps the process
/// and joins the thread that drains its standard output.
pub struct ServeChild {
    child: Child,
    drain: Option<std::thread::JoinHandle<()>>,
    /// `host:port` the child listens on.
    pub addr: String,
}

impl ServeChild {
    /// Spawn `bin` over a fresh state directory and wait until it
    /// answers `stats`.
    fn spawn(bin: &Path, state_dir: &Path) -> Result<ServeChild, String> {
        let _ = std::fs::remove_dir_all(state_dir);
        let mut child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0", "--devices", "2", "--state-dir"])
            .arg(state_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut out = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match out.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("mas_serve exited before announcing its address".into());
                }
                Ok(_) => {}
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                break rest
                    .split_whitespace()
                    .next()
                    .unwrap_or_default()
                    .to_string();
            }
        };
        let drain = std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(out.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        });
        let me = ServeChild {
            child,
            drain: Some(drain),
            addr,
        };
        me.client()
            .stats()
            .map_err(|e| format!("first stats: {e}"))?;
        Ok(me)
    }

    fn client(&self) -> RemoteClient {
        RemoteClient::connect(self.addr.clone())
    }

    /// `key=` of a fresh `stats` reply, as a number.
    fn stat(&self, key: &str) -> Result<f64, String> {
        let reply = self.client().stats()?;
        RemoteClient::field(&reply, key)?
            .parse()
            .map_err(|e| format!("stats {key}: {e}"))
    }

    /// Peak resident set of the child, MB (`VmHWM`).
    fn peak_rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("child status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmHWM for the child".into())
    }
}

impl Drop for ServeChild {
    fn drop(&mut self) {
        let _ = self
            .client()
            .with_policy(RetryPolicy {
                max_attempts: 1,
                ..Default::default()
            })
            .shutdown();
        let deadline = Instant::now() + Duration::from_secs(10);
        while matches!(self.child.try_wait(), Ok(None)) && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(t) = self.drain.take() {
            let _ = t.join();
        }
    }
}

/// One finished job as the client saw it.
struct Done {
    /// Server job id.
    id: u64,
    /// (shape, ranks): which reference hash the result must match.
    key: (usize, usize),
    /// Completion time, seconds from the start of the loop.
    end: f64,
    /// Submit → `wait` reply, ms.
    ms: f64,
    cached: bool,
    steps: usize,
}

/// Shared tallies of the closed loop.
#[derive(Default)]
struct Tally {
    jobs: AtomicUsize,
    hits: AtomicUsize,
    misses: AtomicUsize,
    failed: AtomicUsize,
    /// The child's `VmHWM` when the guaranteed job count had finished:
    /// a fixed amount of work, so the figure does not grow with speed.
    rss_mb: Mutex<Option<f64>>,
}

/// How long the closed loop runs: at least `seconds`, and until it has
/// at least the given job counts; `warmup` leading jobs (empty cache, no
/// resubmissions yet) are left out of the statistics.
#[derive(Clone, Copy)]
struct Until {
    seconds: f64,
    jobs: usize,
    hits: usize,
    misses: usize,
    warmup: usize,
}

impl Until {
    fn reached(&self, t0: Instant, t: &Tally) -> bool {
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed < self.seconds {
            return false;
        }
        // A failing server never reaches the counts: stop once the time
        // is up and a job failed, and in any case well inside the run's
        // time limit.
        if t.failed.load(Ordering::SeqCst) > 0 || elapsed > 2.0 * self.seconds + 30.0 {
            return true;
        }
        t.jobs.load(Ordering::SeqCst) >= self.jobs
            && t.hits.load(Ordering::SeqCst) >= self.hits
            && t.misses.load(Ordering::SeqCst) >= self.misses
    }

    /// The serve_mix measurement: enough jobs, misses and hits for each
    /// percentile it reports.
    fn workload(args: &Args, seconds: f64) -> Self {
        if args.smoke {
            Until {
                seconds: seconds.min(2.0),
                jobs: 50,
                hits: 20,
                misses: 30,
                warmup: 10,
            }
        } else {
            // 1,500 jobs and 1,000 misses after the warm-up: five slices
            // of >= 300 and >= 200, so both tails are p95.
            Until {
                seconds,
                jobs: 1600,
                hits: 300,
                misses: 1100,
                warmup: 100,
            }
        }
    }
}

/// One submit → wait cycle; `Err` when the job failed or was rejected.
fn one_job(
    client: &RemoteClient,
    job: &Job,
    rec: Option<&mut Recorder>,
    t_loop: Instant,
) -> Result<Done, String> {
    let t0 = Instant::now();
    let spans = |rec: &mut Recorder| -> Result<(u64, String), String> {
        rec.span("job", |r| {
            let id = r.span("serve.submit", |_| client.submit(&job.spec))?;
            let status = r.span("serve.wait", |_| client.wait(id))?;
            Ok((id, status))
        })
    };
    let (id, status) = match rec {
        Some(rec) => spans(rec)?,
        None => {
            let id = client.submit(&job.spec)?;
            (id, client.wait(id)?)
        }
    };
    let ms = 1e3 * t0.elapsed().as_secs_f64();
    let field = |key| RemoteClient::field(&status, key);
    if field("state")? != "done" {
        return Err(format!("job {id}: {status}"));
    }
    Ok(Done {
        id,
        key: (job.shape, job.spec.n_ranks),
        end: t_loop.elapsed().as_secs_f64(),
        ms,
        cached: field("cached")? == "true",
        steps: job.spec.deck.time.n_steps,
    })
}

/// Check every finished job's served result against its reference;
/// returns how many did not match. Runs after the timed loop, so the
/// extra `result` requests do not load the system being measured.
fn verify(child: &ServeChild, done: &[Done], refs: &References) -> usize {
    let client = child.client();
    let check = |d: &Done| -> Result<(), String> {
        let result = client.result(d.id)?;
        let hashes: Vec<u64> = RemoteClient::field(&result, "hashes")?
            .split(',')
            .map(|h| u64::from_str_radix(h, 16).map_err(|e| format!("hash {h}: {e}")))
            .collect::<Result<_, _>>()?;
        let got = fold(hashes.into_iter());
        let want = &refs[&d.key];
        if &got != want {
            return Err(format!("state hash {got} != reference {want}"));
        }
        Ok(())
    };
    done.iter()
        .filter(|d| match check(d) {
            Ok(()) => false,
            Err(e) => {
                eprintln!("perfbench: serve_mix: job {}: {e}", d.id);
                true
            }
        })
        .count()
}

/// What one closed loop left behind.
struct Served {
    /// Finished jobs in completion order.
    done: Vec<Done>,
    /// Jobs that failed, were rejected, or served a wrong result.
    failed: usize,
    /// Jobs submitted.
    attempted: usize,
    /// Each connection's spans, when tracing.
    recs: Vec<Recorder>,
    /// See [`Tally::rss_mb`].
    rss_mb: Option<f64>,
}

/// Drive `child` with the closed loop until `until`, then verify every
/// served result.
fn serve_loop(
    child: &ServeChild,
    refs: &References,
    seed: u64,
    until: Until,
    origin: Option<Instant>,
) -> Served {
    let tally = Tally::default();
    let done = Mutex::new(Vec::new());
    let recs = Mutex::new(Vec::new());
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for conn in 0..CONNECTIONS {
            let (done, recs, tally) = (&done, &recs, &tally);
            s.spawn(move || {
                let client = child.client();
                let mut stream = JobStream::new(seed, conn);
                let mut rec = origin.map(Recorder::new);
                let mut mine = Vec::new();
                while !until.reached(t0, tally) {
                    let job = stream.next();
                    tally.jobs.fetch_add(1, Ordering::SeqCst);
                    match one_job(&client, &job, rec.as_mut(), t0) {
                        Ok(d) => {
                            let n = if d.cached { &tally.hits } else { &tally.misses };
                            n.fetch_add(1, Ordering::SeqCst);
                            let finished = tally.hits.load(Ordering::SeqCst)
                                + tally.misses.load(Ordering::SeqCst);
                            if finished == until.jobs {
                                *tally.rss_mb.lock().expect("rss poisoned") =
                                    child.peak_rss_mb().ok();
                            }
                            stream.finished.push(job);
                            mine.push(d);
                        }
                        Err(e) => {
                            eprintln!("perfbench: serve_mix: {e}");
                            tally.failed.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                }
                done.lock().expect("job log poisoned").extend(mine);
                if let Some(r) = rec {
                    recs.lock().expect("span log poisoned").push(r);
                }
            });
        }
    });
    let mut done = done.into_inner().expect("job log poisoned");
    done.sort_by(|a, b| a.end.total_cmp(&b.end));
    let wrong = verify(child, &done, refs);
    Served {
        failed: tally.failed.load(Ordering::SeqCst) + wrong,
        attempted: tally.jobs.load(Ordering::SeqCst),
        done,
        recs: recs.into_inner().expect("span log poisoned"),
        rss_mb: tally.rss_mb.into_inner().expect("rss poisoned"),
    }
}

fn serve_bin(args: &Args) -> Result<&Path, String> {
    args.serve_bin
        .as_deref()
        .ok_or_else(|| "the serve layer needs --serve-bin <path to mas_serve>".into())
}

/// Spawn the measured child, timing each spawn up to its first `stats`
/// reply; all but the last are shut down again.
fn setup(args: &Args) -> Result<(Vec<f64>, ServeChild), String> {
    let bin = serve_bin(args)?;
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for i in 0..SETUP_REPS {
        let dir = args.work.join(format!("state{i}"));
        let t0 = Instant::now();
        let child = ServeChild::spawn(bin, &dir)?;
        times.push(t0.elapsed().as_secs_f64());
        last = Some(child);
    }
    Ok((times, last.expect("SETUP_REPS > 0")))
}

/// The serve_mix workload.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let refs = references()?;
    if args.trace {
        return run_traced(args, &refs);
    }
    let (setup, child) = setup(args)?;
    let until = Until::workload(args, args.seconds);
    let served = serve_loop(&child, &refs, args.seed, until, None);
    drop(child);
    let rss = served.rss_mb.ok_or("no peak RSS reading")?;
    let mut out = Outcome::new(served.attempted as u64, served.failed as u64);

    // Statistics skip the warm-up jobs and report the median over
    // time-ordered slices (`stats::chunk_median`).
    let chunks = if args.smoke { 1 } else { CHUNKS };
    let warm = until.warmup.min(served.done.len());
    let (warmup, timed) = served.done.split_at(warm);
    let mut since = warmup.last().map_or(0.0, |d| d.end);
    let (mut jobs_rate, mut steps_rate) = (Vec::new(), Vec::new());
    for r in chunk_ranges(timed.len(), chunks) {
        let slice = &timed[r];
        let Some(last) = slice.last() else { continue };
        let span = last.end - since;
        since = last.end;
        let steps: usize = slice.iter().filter(|d| !d.cached).map(|d| d.steps).sum();
        jobs_rate.push(slice.len() as f64 / span);
        steps_rate.push(steps as f64 / span);
    }
    let all: Vec<f64> = timed.iter().map(|d| d.ms).collect();
    let hits: Vec<f64> = timed.iter().filter(|d| d.cached).map(|d| d.ms).collect();
    // Served cost per step: a miss's submit → done time over its steps.
    let per_step: Vec<f64> = timed
        .iter()
        .filter(|d| !d.cached)
        .map(|d| d.ms / d.steps as f64)
        .collect();
    let met = &mut out.metrics;
    met.put("setup_s", median(&setup));
    if !jobs_rate.is_empty() {
        met.put("steps_per_s", median(&steps_rate));
        met.put("jobs_per_s", median(&jobs_rate));
    }
    met.put_p50("step_ms_p50", &per_step, chunks);
    met.put_tail(
        "step_ms_tail",
        &per_step,
        until.misses - until.warmup,
        chunks,
    );
    met.put_p50("job_ms_p50", &all, chunks);
    met.put_tail("job_ms_tail", &all, until.jobs - until.warmup, chunks);
    met.put_p50("cache_hit_ms_p50", &hits, chunks);
    met.put("peak_rss_mb", rss);
    Ok(out)
}

/// The traced serve_mix run: the closed loop with a span per call, the
/// serve-layer probes on the same child, and the solver layers on a
/// job deck.
fn run_traced(args: &Args, refs: &References) -> Result<Outcome, String> {
    let child = ServeChild::spawn(serve_bin(args)?, &args.work.join("state"))?;
    let until = Until {
        seconds: args.seconds / 3.0,
        ..Until::workload(args, 0.0)
    };
    let served = serve_loop(&child, refs, args.seed, until, Some(Instant::now()));
    let mut out = Outcome::new(served.attempted as u64, served.failed as u64);
    let traces: Vec<crate::layers::RankTrace> = served
        .recs
        .into_iter()
        .enumerate()
        .map(|(rank, rec)| crate::layers::RankTrace { rank, rec })
        .collect();
    crate::layers::write_trace(args, "serve", traces.iter())?;
    probe_with(&child, args, &mut out)?;
    drop(child);

    // The solver layers on the larger job shape over two ranks, with a
    // longer run so the stepping loop has steady steps to time.
    let mut deck = job_deck(SHAPES - 1);
    deck.time.n_steps = 24;
    let w = Solver {
        name: "serve_mix",
        deck,
        ranks: 2,
        version: CodeVersion::D2xu,
        warmup: 1,
        min_runs: 2,
        setup_reps: 0,
        setup_per_run: 0,
        replay_reps: 20,
        chunks: 1,
    };
    let rep = mas_mhd::run_supervised(
        &w.deck,
        w.version,
        DeviceSpec::a100_40gb(),
        w.ranks,
        args.seed,
        false,
    )
    .map_err(|e| format!("reference run: {e}"))?;
    let expect = fold(rep.ranks.iter().map(|r| r.state_hash));
    solver::layer_metrics(&w, args, &expect, &mut out)?;
    Ok(out)
}

/// The serve-layer probes for a solver workload's traced run: a fresh
/// child, a short closed loop so the cache has hits, then the probes.
pub fn probe(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let refs = references()?;
    let child = ServeChild::spawn(serve_bin(args)?, &args.work.join("state"))?;
    let until = Until {
        seconds: 0.0,
        jobs: 24,
        hits: 4,
        misses: 4,
        warmup: 0,
    };
    let served = serve_loop(&child, &refs, args.seed, until, None);
    out.attempted += served.attempted as u64;
    out.failed += served.failed as u64;
    probe_with(&child, args, out)
}

/// `serve.*` metrics against a child that has served a mix.
fn probe_with(child: &ServeChild, args: &Args, out: &mut Outcome) -> Result<(), String> {
    let met = &mut out.metrics;
    let (hits, misses) = (child.stat("cache_hits")?, child.stat("cache_misses")?);
    met.put("serve.cache_hit_ratio", hits / (hits + misses));
    met.put("serve.steps_executed", child.stat("total_steps")?);

    let client = child.client();
    let mut rtt = Vec::with_capacity(RTT_REPS);
    for _ in 0..RTT_REPS {
        let t0 = Instant::now();
        client.stats()?;
        rtt.push(t0.elapsed().as_secs_f64());
    }
    met.put("serve.stats_rtt_us", 1e6 * median(&rtt));

    let mut stream = JobStream::new(args.seed, CONNECTIONS);
    let job = stream.next();
    let path: PathBuf = args.work.join("probe-journal.log");
    let (mut journal, _) = Journal::open(&path).map_err(|e| format!("journal: {e}"))?;
    let mut append = Vec::with_capacity(APPEND_REPS);
    for id in 0..APPEND_REPS as u64 {
        let rec = Record::submitted(id, &job.spec);
        let t0 = Instant::now();
        journal
            .append(1, &rec)
            .map_err(|e| format!("journal append: {e}"))?;
        append.push(t0.elapsed().as_secs_f64());
    }
    drop(journal);
    let _ = std::fs::remove_file(&path);
    met.put("serve.journal_append_us", 1e6 * median(&append));

    let spec = &job.spec;
    let mut run = Vec::with_capacity(RUN_REPS);
    for _ in 0..RUN_REPS {
        let t0 = Instant::now();
        mas_mhd::run_supervised(
            &spec.deck,
            spec.version,
            DeviceSpec::a100_40gb(),
            spec.n_ranks,
            spec.seed,
            false,
        )
        .map_err(|e| format!("in-process run: {e}"))?;
        run.push(t0.elapsed().as_secs_f64());
    }
    met.put("serve.run_ms", 1e3 * median(&run));
    Ok(())
}
