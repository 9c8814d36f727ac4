//! `mas_serve` — the simulation-as-a-service daemon.
//!
//! Usage:
//!
//! ```text
//! mas_serve [--listen ADDR] [--devices N] [--workers N] [--queue N] [--quota N]
//!           [--state-dir DIR] [--wire-deadline-ms MS] [--drain]
//! mas_serve --drill
//! mas_serve --restart-drill
//! ```
//!
//! The default mode binds a TCP listener and speaks the `mas-serve` line
//! protocol (one request line, one response line — see
//! `mas_serve::wire`): `submit`, `status`, `wait`, `cancel`, `result`,
//! `stats`, `drain`, `shutdown`.
//!
//! With `--state-dir DIR` the server is **crash-only**: every state
//! transition is journaled durably under `DIR` and a restart with the
//! same directory replays it — completed results survive as cache
//! entries, interrupted jobs re-enter the queue, and a torn journal
//! tail is truncated. The recovery outcome is printed as a single
//! greppable `recovery:` line.
//!
//! `--drain` boots (recovering state if `--state-dir` is given), runs
//! every queued and recovered job to completion without accepting new
//! work, journals the terminal states, and exits 0 — the graceful
//! counterpart of kill -9. The same wind-down is reachable over the
//! wire with the `drain` request.
//!
//! `--drill` is the self-contained smoke sequence CI runs: boot a
//! 2-device server on an ephemeral port, then over real TCP submit a
//! tiny deck and wait for it, resubmit it and require a cache hit with
//! zero additional steps executed, and run a rank-death job to require
//! the supervisor's respawn recovery works under the scheduler.
//!
//! `--restart-drill` is the crash-recovery end-to-end check: spawn a
//! journaled child server, submit jobs, SIGKILL it mid-run, restart
//! over the same state directory, and require that nothing submitted
//! was lost, completed results survive as zero-step cache hits, and
//! jobs finished after the restart hash bit-identically to an
//! uninterrupted run. Both drills exit non-zero on any violation.

use mas_config::Deck;
use mas_serve::wire::{self, Request, WireRead};
use mas_serve::{JobId, RemoteClient, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ! {
    eprintln!(
        "usage: mas_serve [--listen ADDR] [--devices N] [--workers N] [--queue N] [--quota N]\n\
         \x20                [--state-dir DIR] [--wire-deadline-ms MS]\n\
         \x20                [--shed-depth N] [--shed-age-ms MS] [--drain]\n\
         \x20      mas_serve --drill | --restart-drill | --chaos-drill [--chaos-seed N]\n\
         \n\
         --listen ADDR         bind address               (default 127.0.0.1:4333)\n\
         --devices N           virtual device pool size   (default 4)\n\
         --workers N           concurrent jobs            (default = devices)\n\
         --queue N             queued-job backpressure cap (default 32)\n\
         --quota N             per-tenant live-job quota  (default 8)\n\
         --state-dir DIR       journal state transitions under DIR and\n\
         \x20                     recover them on restart (crash-only mode)\n\
         --wire-deadline-ms MS idle-connection read deadline (default 30000; 0 = none)\n\
         --shed-depth N        shed low-priority queued work past this queue depth (0 = off)\n\
         --shed-age-ms MS      shed when the oldest queued job is older than MS (0 = off)\n\
         --drain               finish all queued/recovered jobs, journal, exit 0\n\
         --drill               run the self-test smoke sequence and exit\n\
         --restart-drill       run the kill -9 / recovery sequence and exit\n\
         --chaos-drill         run the seeded chaos soak and exit\n\
         --chaos-seed N        schedule seed for --chaos-drill (default 42)"
    );
    std::process::exit(2);
}

struct Opts {
    listen: String,
    devices: usize,
    workers: Option<usize>,
    queue: usize,
    quota: usize,
    state_dir: Option<String>,
    wire_deadline_ms: u64,
    shed_depth: usize,
    shed_age_ms: u64,
    drain: bool,
    drill: bool,
    restart_drill: bool,
    chaos_drill: bool,
    chaos_seed: u64,
}

impl Opts {
    fn defaults() -> Self {
        Opts {
            listen: "127.0.0.1:4333".into(),
            devices: 4,
            workers: None,
            queue: 32,
            quota: 8,
            state_dir: None,
            wire_deadline_ms: 30_000,
            shed_depth: 0,
            shed_age_ms: 0,
            drain: false,
            drill: false,
            restart_drill: false,
            chaos_drill: false,
            chaos_seed: 42,
        }
    }
}

fn parse_opts() -> Result<Opts, String> {
    let mut o = Opts::defaults();
    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        let mut val = |name: &str| argv.next().ok_or(format!("{name} needs a value"));
        match arg.as_str() {
            "--listen" => o.listen = val("--listen")?,
            "--devices" => o.devices = val("--devices")?.parse().map_err(|e| format!("{e}"))?,
            "--workers" => {
                o.workers = Some(val("--workers")?.parse().map_err(|e| format!("{e}"))?)
            }
            "--queue" => o.queue = val("--queue")?.parse().map_err(|e| format!("{e}"))?,
            "--quota" => o.quota = val("--quota")?.parse().map_err(|e| format!("{e}"))?,
            "--state-dir" => o.state_dir = Some(val("--state-dir")?),
            "--wire-deadline-ms" => {
                o.wire_deadline_ms = val("--wire-deadline-ms")?
                    .parse()
                    .map_err(|e| format!("{e}"))?
            }
            "--shed-depth" => {
                o.shed_depth = val("--shed-depth")?.parse().map_err(|e| format!("{e}"))?
            }
            "--shed-age-ms" => {
                o.shed_age_ms = val("--shed-age-ms")?.parse().map_err(|e| format!("{e}"))?
            }
            "--drain" => o.drain = true,
            "--drill" => o.drill = true,
            "--restart-drill" => o.restart_drill = true,
            "--chaos-drill" => o.chaos_drill = true,
            "--chaos-seed" => {
                o.chaos_seed = val("--chaos-seed")?.parse().map_err(|e| format!("{e}"))?
            }
            "--help" | "-h" => usage(),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(o)
}

/// Boot the server the options describe: journaled (with a recovery
/// summary printed) when `--state-dir` is given, in-memory otherwise.
fn server_from(o: &Opts) -> Result<Arc<Server>, String> {
    let mut cfg = ServerConfig::new(gpusim::DeviceSpec::a100_40gb(), o.devices);
    cfg.n_workers = o.workers.unwrap_or(o.devices);
    cfg.max_queue = o.queue;
    cfg.tenant_quota = o.quota;
    cfg.shed_queue_depth = o.shed_depth;
    cfg.shed_oldest_ms = o.shed_age_ms;
    match &o.state_dir {
        Some(dir) => {
            let (server, summary) = Server::recover(cfg, dir)
                .map_err(|e| format!("cannot recover state dir '{dir}': {e}"))?;
            println!("mas_serve: recovery: {summary}");
            Ok(server)
        }
        None => Ok(Server::start(cfg)),
    }
}

/// One response line for one request line (the blocking control verbs —
/// `drain`, `shutdown` — are handled by the connection loop instead).
fn respond(server: &Arc<Server>, req: Request) -> String {
    match req {
        Request::Submit(spec) => match server.submit(*spec) {
            Ok(id) => format!("ok id={}", id.0),
            // The overload rejection carries a machine-readable hint the
            // RemoteClient's retry loop honors.
            Err(e @ mas_serve::SubmitError::Overloaded { retry_after_ms }) => format!(
                "err {} retry_after_ms={retry_after_ms}",
                wire::escape(&e.to_string())
            ),
            Err(e) => format!("err {}", wire::escape(&e.to_string())),
        },
        Request::Status(id) => match server.status(JobId(id)) {
            Some(s) => wire::encode_status(&s),
            None => format!("err unknown job id {id}"),
        },
        Request::Wait(id) => match server.wait(JobId(id)) {
            Some(s) => wire::encode_status(&s),
            None => format!("err unknown job id {id}"),
        },
        Request::Cancel(id) => match server.cancel(JobId(id)) {
            Ok(()) => format!("ok id={id}"),
            Err(e) => format!("err {}", wire::escape(&e)),
        },
        Request::Result(id) => match server.result(JobId(id)) {
            Some(Ok(report)) => {
                let hashes: Vec<String> = report
                    .ranks
                    .iter()
                    .map(|r| format!("{:016x}", r.state_hash))
                    .collect();
                let steps: usize = report.ranks.first().map_or(0, |r| r.steps);
                format!(
                    "ok id={id} ranks={} steps={steps} hashes={}",
                    report.ranks.len(),
                    hashes.join(",")
                )
            }
            Some(Err(e)) => format!("err {}", wire::escape(&e)),
            None => format!("err job {id} is not finished (use 'wait id={id}')"),
        },
        Request::Stats => {
            let s = server.stats();
            let tenants = if s.tenants_queued.is_empty() {
                "-".to_string()
            } else {
                s.tenants_queued
                    .iter()
                    .map(|(t, n)| format!("{t}:{n}"))
                    .collect::<Vec<_>>()
                    .join(",")
            };
            let health = s
                .devices
                .iter()
                .map(|d| {
                    format!(
                        "{}:{}:{}:{}",
                        d.id,
                        if d.suspect { "suspect" } else { "ok" },
                        d.consecutive_failures,
                        d.total_failures
                    )
                })
                .collect::<Vec<_>>()
                .join(",");
            format!(
                "ok devices={} free={} busy={} suspect={} queued={} running={} done={} \
                 failed={} cancelled={} quarantined={} cache_hits={} cache_misses={} \
                 cache_entries={} cache_evictions={} total_steps={} oldest_queued_ms={} \
                 shed_total={} deadline_exceeded={} worker_panics={} quarantine_keys={} \
                 reinstated={} tenants={} health={}",
                s.pool.total,
                s.pool.free,
                s.pool.busy,
                s.pool.suspect,
                s.queued,
                s.running,
                s.done,
                s.failed,
                s.cancelled,
                s.quarantined,
                s.cache_hits,
                s.cache_misses,
                s.cache_entries,
                s.cache_evictions,
                s.total_steps,
                s.oldest_queued_ms,
                s.shed_total,
                s.deadline_exceeded,
                s.worker_panics,
                s.quarantine_keys,
                s.pool.reinstated,
                tenants,
                health
            )
        }
        Request::QuarantineList => {
            let list = server.quarantine_list();
            let keys = if list.is_empty() {
                "-".to_string()
            } else {
                list.iter()
                    .map(|(k, _)| {
                        format!("{}:{}:{}:{}", k.deck_hash, k.version.tag(), k.n_ranks, k.seed)
                    })
                    .collect::<Vec<_>>()
                    .join(",")
            };
            format!("ok n={} keys={keys}", list.len())
        }
        Request::QuarantineClear(hash) => {
            format!("ok cleared={}", server.quarantine_clear(hash))
        }
        Request::Inject { device, count } => match server.pool().inject_fault(device, count) {
            Ok(()) => format!("ok device={device} injected={count}"),
            Err(e) => format!("err {}", wire::escape(&e)),
        },
        Request::Drain | Request::Shutdown => unreachable!("handled by the connection loop"),
    }
}

/// Send `line` and its newline in a single write. Two writes would leave
/// as two segments, and on a persistent connection Nagle's algorithm
/// then holds the second until the peer's delayed ACK — tens of
/// milliseconds per reply.
fn send_line(out: &mut TcpStream, line: &str) -> std::io::Result<()> {
    let mut buf = String::with_capacity(line.len() + 1);
    buf.push_str(line);
    buf.push('\n');
    out.write_all(buf.as_bytes())
}

/// Accept loop: one thread per connection, one response line per
/// request line, every read bounded in both size and time. Returns when
/// a `shutdown` or `drain` request arrives (after honouring it).
fn serve(listener: TcpListener, server: Arc<Server>, deadline: Option<Duration>) {
    let stop = Arc::new(AtomicBool::new(false));
    let addr = listener.local_addr().expect("listener address");
    let mut conns = Vec::new();
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let server = server.clone();
        let stop = stop.clone();
        conns.push(std::thread::spawn(move || {
            // A silent peer may not pin this thread forever: reads time
            // out after the wire deadline and the connection closes.
            let _ = stream.set_read_timeout(deadline);
            let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
            let mut out = stream;
            loop {
                let line = match wire::read_request_line(&mut reader) {
                    Ok(WireRead::Line(l)) => l,
                    Ok(WireRead::Eof) => return,
                    Ok(WireRead::TooLong) => {
                        // The stream may be mid-line garbage: answer and
                        // close rather than trying to resynchronise.
                        let _ = send_line(
                            &mut out,
                            &format!("err request line exceeds {} bytes", wire::MAX_LINE),
                        );
                        return;
                    }
                    Ok(WireRead::BadUtf8) => {
                        // The line boundary is intact; the connection
                        // can continue.
                        let _ = send_line(&mut out, "err request is not valid UTF-8");
                        continue;
                    }
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        let _ = send_line(&mut out, "err idle timeout; closing connection");
                        return;
                    }
                    Err(_) => return,
                };
                if line.trim().is_empty() {
                    continue;
                }
                let req = match wire::parse_request(&line) {
                    Ok(req) => req,
                    Err(e) => {
                        if send_line(&mut out, &format!("err {}", wire::escape(&e))).is_err() {
                            return;
                        }
                        continue;
                    }
                };
                let (reply, stops) = match req {
                    Request::Shutdown => {
                        server.shutdown();
                        ("ok shutting-down".to_string(), true)
                    }
                    Request::Drain => {
                        // Blocks until every queued and running job has
                        // finished and journaled; the reply is the
                        // completion signal.
                        server.drain();
                        ("ok drained".to_string(), true)
                    }
                    req => (respond(&server, req), false),
                };
                if send_line(&mut out, &reply).is_err() {
                    return;
                }
                if stops {
                    stop.store(true, Ordering::SeqCst);
                    // Unblock the accept loop with a throwaway connection.
                    let _ = TcpStream::connect(addr);
                    return;
                }
            }
        }));
    }
    for c in conns {
        let _ = c.join();
    }
    server.join();
}

// -- drill mode -------------------------------------------------------------

/// Send one request line on a fresh connection, return the response line.
fn request(addr: &str, line: &str) -> Result<String, String> {
    RemoteClient::connect(addr).request(line)
}

fn expect(cond: bool, what: &str) -> Result<(), String> {
    if cond {
        println!("drill: PASS {what}");
        Ok(())
    } else {
        Err(format!("FAIL {what}"))
    }
}

fn field_of(reply: &str, key: &str) -> Option<String> {
    RemoteClient::field(reply, key).ok()
}

fn tiny_deck() -> Deck {
    let mut d = Deck::preset_quickstart();
    d.time.n_steps = 4;
    d.output.hist_interval = 0;
    d
}

fn drill() -> Result<(), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?.to_string();
    let server = server_from(&Opts {
        listen: addr.clone(),
        devices: 2,
        workers: Some(2),
        queue: 8,
        ..Opts::defaults()
    })?;
    let srv = std::thread::spawn(move || serve(listener, server, None));
    println!("drill: serving on {addr}");

    // 1. A tiny deck runs to completion over the wire.
    let spec = mas_serve::JobSpec::new(tiny_deck()).tenant("drill").seed(7);
    let r = request(&addr, &wire::encode_submit(&spec))?;
    expect(r == "ok id=1", &format!("submit accepted ({r})"))?;
    let r = request(&addr, "wait id=1")?;
    expect(
        field_of(&r, "state").as_deref() == Some("done"),
        &format!("job 1 done ({r})"),
    )?;
    let r = request(&addr, "stats")?;
    let steps_after_first: u64 = field_of(&r, "total_steps")
        .and_then(|s| s.parse().ok())
        .ok_or(format!("no total_steps in '{r}'"))?;
    expect(steps_after_first > 0, "first run executed steps")?;
    let hashes1 = field_of(&request(&addr, "result id=1")?, "hashes");

    // 2. Resubmission is a cache hit: done instantly, zero new steps,
    //    identical result.
    let r = request(&addr, &wire::encode_submit(&spec))?;
    expect(r == "ok id=2", &format!("resubmit accepted ({r})"))?;
    let r = request(&addr, "wait id=2")?;
    expect(
        field_of(&r, "cached").as_deref() == Some("true"),
        &format!("resubmission served from cache ({r})"),
    )?;
    let r = request(&addr, "stats")?;
    expect(
        field_of(&r, "cache_hits").as_deref() == Some("1"),
        &format!("cache hit counted ({r})"),
    )?;
    let steps_after_second: u64 = field_of(&r, "total_steps")
        .and_then(|s| s.parse().ok())
        .ok_or(format!("no total_steps in '{r}'"))?;
    expect(
        steps_after_second == steps_after_first,
        "cache hit executed zero steps",
    )?;
    let hashes2 = field_of(&request(&addr, "result id=2")?, "hashes");
    expect(
        hashes1.is_some() && hashes1 == hashes2,
        "cached result is bit-identical",
    )?;

    // 3. Hostile wire input answers structurally, never with a hang or
    //    a dead thread.
    let r = request(&addr, "explode please")?;
    expect(r.starts_with("err "), &format!("unknown verb answered ({r})"))?;
    {
        let stream = TcpStream::connect(&addr).map_err(|e| e.to_string())?;
        let mut w = &stream;
        w.write_all(b"\xff\xfe not utf8\nstats\n")
            .map_err(|e| e.to_string())?;
        let mut reader = BufReader::new(&stream);
        let mut l1 = String::new();
        reader.read_line(&mut l1).map_err(|e| e.to_string())?;
        expect(
            l1.starts_with("err "),
            &format!("invalid UTF-8 answered structurally ({})", l1.trim_end()),
        )?;
        let mut l2 = String::new();
        reader.read_line(&mut l2).map_err(|e| e.to_string())?;
        expect(
            l2.starts_with("ok "),
            "connection survives a bad-UTF-8 line",
        )?;
    }

    // 4. Kill a rank mid-job: the supervisor's respawn recovery must
    //    work underneath the scheduler.
    let dir = std::env::temp_dir().join("mas_serve_drill");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let mut deck = tiny_deck();
    deck.checkpoint.interval = 2;
    deck.checkpoint.dir = dir.to_string_lossy().into_owned();
    deck.resilience.max_respawns = 1;
    deck.resilience.heartbeat_ms = 10;
    deck.resilience.miss_budget = 5;
    deck.resilience.recv_deadline_ms = 500;
    deck.fault.kind = mas_config::FaultKind::Panic;
    // Step 3: past the step-2 checkpoint commit, so the respawned rank
    // restores from disk rather than replaying from scratch.
    deck.fault.step = 3;
    deck.fault.rank = 1;
    deck.fault.count = 1;
    let spec = mas_serve::JobSpec::new(deck).tenant("drill").ranks(2).seed(7);
    let r = request(&addr, &wire::encode_submit(&spec))?;
    expect(r == "ok id=3", &format!("rank-death job accepted ({r})"))?;
    let r = request(&addr, "wait id=3")?;
    expect(
        field_of(&r, "state").as_deref() == Some("done"),
        &format!("rank-death job recovered to completion ({r})"),
    )?;
    let recoveries: usize = field_of(&r, "recovery")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    expect(recoveries > 0, "recovery events were streamed")?;

    // 5. Clean shutdown over the wire.
    let r = request(&addr, "shutdown")?;
    expect(r == "ok shutting-down", &format!("shutdown accepted ({r})"))?;
    srv.join().map_err(|_| "server thread panicked".to_string())?;
    println!("drill: all checks passed");
    Ok(())
}

// -- restart drill (kill -9 / recovery) -------------------------------------

/// A journaled child server process plus the address it bound.
struct ChildServer {
    child: std::process::Child,
    addr: String,
    recovery: Option<String>,
}

/// Spawn this same binary as a journaled server on an ephemeral port
/// and parse its startup lines for the bound address (and the recovery
/// summary, when a state dir is recovered).
fn spawn_server(state_dir: &std::path::Path, workers: usize) -> Result<ChildServer, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut child = std::process::Command::new(exe)
        .args([
            "--listen",
            "127.0.0.1:0",
            "--devices",
            "2",
            "--workers",
            &workers.to_string(),
            "--state-dir",
            &state_dir.to_string_lossy(),
        ])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn server: {e}"))?;
    let stdout = child.stdout.take().expect("piped stdout");
    let mut reader = BufReader::new(stdout);
    let mut addr = None;
    let mut recovery = None;
    let mut line = String::new();
    while addr.is_none() {
        line.clear();
        if reader.read_line(&mut line).map_err(|e| e.to_string())? == 0 {
            let _ = child.kill();
            return Err("server exited before announcing its address".into());
        }
        print!("restart-drill: child: {line}");
        if let Some(rest) = line.split("recovery: ").nth(1) {
            recovery = Some(rest.trim_end().to_string());
        }
        if let Some(rest) = line.split("listening on ").nth(1) {
            addr = rest.split_whitespace().next().map(str::to_string);
        }
    }
    // Keep draining child stdout in the background so it can't block on
    // a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while let Ok(n) = reader.read_line(&mut sink) {
            if n == 0 {
                break;
            }
            print!("restart-drill: child: {sink}");
            sink.clear();
        }
    });
    Ok(ChildServer {
        child,
        addr: addr.expect("address parsed"),
        recovery,
    })
}

/// A deck big enough to give the kill a wide mid-run window.
fn slow_deck(n_steps: usize) -> Deck {
    let mut d = Deck::preset_quickstart();
    d.time.n_steps = n_steps;
    d.output.hist_interval = 0;
    d
}

fn restart_drill() -> Result<(), String> {
    let state = std::env::temp_dir().join("mas_serve_restart_drill");
    let baseline = std::env::temp_dir().join("mas_serve_restart_drill_baseline");
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_dir_all(&baseline);

    // -- Phase 1: a journaled server takes one fast and two slow jobs -
    let a = spawn_server(&state, 1)?;
    let addr = a.addr.clone();
    let mut a_child = a.child;

    let fast = mas_serve::JobSpec::new(tiny_deck()).tenant("drill").seed(7);
    let slow1 = mas_serve::JobSpec::new(slow_deck(1500)).tenant("drill").seed(11);
    let slow2 = mas_serve::JobSpec::new(slow_deck(1500)).tenant("drill").seed(12);

    let r = request(&addr, &wire::encode_submit(&fast))?;
    expect(r == "ok id=1", &format!("fast job accepted ({r})"))?;
    let r = request(&addr, "wait id=1")?;
    expect(
        field_of(&r, "state").as_deref() == Some("done"),
        &format!("fast job done before the crash ({r})"),
    )?;
    let hashes_fast = field_of(&request(&addr, "result id=1")?, "hashes")
        .ok_or("no hashes for the fast job")?;

    // With one worker, slow1 runs while slow2 is pinned in the queue.
    let r = request(&addr, &wire::encode_submit(&slow1))?;
    expect(r == "ok id=2", &format!("slow job accepted ({r})"))?;
    let r = request(&addr, &wire::encode_submit(&slow2))?;
    expect(r == "ok id=3", &format!("queued job accepted ({r})"))?;

    // -- Phase 2: SIGKILL mid-run ---------------------------------
    let mut mid_run = false;
    for _ in 0..2000 {
        let r = request(&addr, "status id=2")?;
        let state_now = field_of(&r, "state").unwrap_or_default();
        let steps: usize = field_of(&r, "steps")
            .and_then(|s| s.split('/').next().map(str::to_string))
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        if state_now == "running" && steps > 5 {
            mid_run = true;
            break;
        }
        if state_now == "done" {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    expect(mid_run, "caught the slow job mid-run")?;
    a_child.kill().map_err(|e| format!("kill server: {e}"))?;
    let _ = a_child.wait();
    println!("restart-drill: server killed (SIGKILL) mid-job");

    // -- Phase 3: restart over the same state dir -----------------
    let b = spawn_server(&state, 1)?;
    let addr = b.addr.clone();
    let mut b_child = b.child;
    let recovery = b.recovery.ok_or("no recovery summary line printed")?;
    expect(
        field_of(&recovery, "requeued").as_deref() == Some("2"),
        &format!("both interrupted jobs requeued ({recovery})"),
    )?;
    expect(
        field_of(&recovery, "done").as_deref() == Some("1"),
        &format!("completed job restored ({recovery})"),
    )?;

    // Interrupted jobs finish after the restart — nothing was lost.
    // (`wait` goes through the deadline-free path: it blocks by design.)
    for id in [2u64, 3] {
        let r = RemoteClient::connect(addr.clone()).wait(id)?;
        expect(
            field_of(&r, "state").as_deref() == Some("done"),
            &format!("requeued job {id} completed after restart ({r})"),
        )?;
    }
    let hashes_slow1 = field_of(&request(&addr, "result id=2")?, "hashes")
        .ok_or("no hashes for requeued job 2")?;
    let hashes_slow2 = field_of(&request(&addr, "result id=3")?, "hashes")
        .ok_or("no hashes for requeued job 3")?;

    // The pre-crash result survived: resubmitting the fast deck is a
    // zero-step cache hit with the identical report.
    let r = request(&addr, "stats")?;
    let steps_before: u64 = field_of(&r, "total_steps")
        .and_then(|s| s.parse().ok())
        .ok_or(format!("no total_steps in '{r}'"))?;
    let r = request(&addr, &wire::encode_submit(&fast))?;
    let id4 = field_of(&r, "id").ok_or(format!("resubmit failed: {r}"))?;
    let r = request(&addr, &format!("wait id={id4}"))?;
    expect(
        field_of(&r, "cached").as_deref() == Some("true"),
        &format!("pre-crash result survived as a cache hit ({r})"),
    )?;
    let r = request(&addr, "stats")?;
    let steps_after: u64 = field_of(&r, "total_steps")
        .and_then(|s| s.parse().ok())
        .ok_or(format!("no total_steps in '{r}'"))?;
    expect(
        steps_after == steps_before,
        "cache hit after restart executed zero steps",
    )?;
    let hashes_fast_again = field_of(&request(&addr, &format!("result id={id4}"))?, "hashes")
        .ok_or("no hashes for the resubmitted fast job")?;
    expect(
        hashes_fast_again == hashes_fast,
        "recovered cache serves the bit-identical report",
    )?;

    // -- Phase 4: drain exits 0 -----------------------------------
    let r = RemoteClient::connect(addr.clone()).drain()?;
    expect(r == "ok drained", &format!("drain acknowledged ({r})"))?;
    let status = b_child.wait().map_err(|e| e.to_string())?;
    expect(status.success(), "drained server exited 0")?;

    // -- Phase 5: bit-exactness vs a never-crashed server ---------
    let c = spawn_server(&baseline, 1)?;
    let addr = c.addr.clone();
    let mut c_child = c.child;
    let r = request(&addr, &wire::encode_submit(&slow1))?;
    expect(r == "ok id=1", &format!("baseline slow job accepted ({r})"))?;
    let r = request(&addr, &wire::encode_submit(&slow2))?;
    expect(r == "ok id=2", &format!("baseline queued job accepted ({r})"))?;
    RemoteClient::connect(addr.clone()).wait(1)?;
    RemoteClient::connect(addr.clone()).wait(2)?;
    let base1 = field_of(&request(&addr, "result id=1")?, "hashes")
        .ok_or("no baseline hashes (job 1)")?;
    let base2 = field_of(&request(&addr, "result id=2")?, "hashes")
        .ok_or("no baseline hashes (job 2)")?;
    expect(
        hashes_slow1 == base1 && hashes_slow2 == base2,
        "post-crash completions hash bit-exact vs the uninterrupted run",
    )?;
    let _ = RemoteClient::connect(addr).shutdown();
    let _ = c_child.wait();

    // -- Phase 6: --drain boots, recovers, finishes, exits 0 ------
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = std::process::Command::new(exe)
        .args([
            "--listen",
            "127.0.0.1:0",
            "--devices",
            "2",
            "--state-dir",
            &state.to_string_lossy(),
            "--drain",
        ])
        .status()
        .map_err(|e| e.to_string())?;
    expect(status.success(), "--drain boot over recovered state exits 0")?;

    println!("restart-drill: all checks passed");
    Ok(())
}

// -- chaos drill (seeded failure soak) --------------------------------------

/// xorshift64 (Marsaglia): the drill's only randomness source, fully
/// determined by `--chaos-seed` — the same seed replays the exact same
/// schedule, byte for byte (what the CI reproducibility check pins).
struct ChaosRng(u64);

impl ChaosRng {
    fn new(seed: u64) -> Self {
        ChaosRng(if seed == 0 { 0x9E37_79B9_7F4A_7C15 } else { seed })
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

struct ChaosJob {
    kind: ChaosKind,
    seed: u64,
    n_steps: usize,
    /// Drop a half-written connection on the server right before this
    /// submission (the wire edge must shrug it off).
    drop_before: bool,
}

/// Everything random about the drill, drawn up front so the schedule
/// can be fingerprinted (and compared across runs) before anything
/// executes.
struct ChaosSchedule {
    jobs: Vec<ChaosJob>,
    panic_seed: u64,
    fault_seed: u64,
    deadline_seed: u64,
    slow_seeds: [u64; 2],
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
        let fault_seed = rng.range(1, 1000);
        let deadline_seed = rng.range(1, 1000);
        let slow_seeds = [rng.range(1, 1000), rng.range(1, 1000)];
        note(panic_seed);
        note(fault_seed);
        note(deadline_seed);
        note(slow_seeds[0]);
        note(slow_seeds[1]);
        let fingerprint = fp.next();
        ChaosSchedule {
            jobs,
            panic_seed,
            fault_seed,
            deadline_seed,
            slow_seeds,
            fingerprint,
        }
    }
}

/// Open a connection, write a partial or garbage request, and drop it
/// without ever finishing the line — the modelled flaky client.
fn drop_connection(addr: &str, garbage: bool) {
    if let Ok(mut s) = TcpStream::connect(addr) {
        let _ = if garbage {
            s.write_all(b"\x00\xff\xfe half a request that never ends")
        } else {
            s.write_all(b"submit tenant=chaos version=A ranks=1")
        };
        // Dropped here: no newline, no read.
    }
}

/// The deck for one scheduled chaos job (plus its rank count).
fn chaos_deck(job: &ChaosJob, ckpt_root: &std::path::Path, i: usize) -> (Deck, usize) {
    let mut d = tiny_deck();
    d.time.n_steps = job.n_steps;
    if job.kind == ChaosKind::Clean {
        return (d, 1);
    }
    let dir = ckpt_root.join(format!("job{i}"));
    let _ = std::fs::create_dir_all(&dir);
    d.checkpoint.interval = 2;
    d.checkpoint.dir = dir.to_string_lossy().into_owned();
    d.resilience.max_respawns = 1;
    d.resilience.heartbeat_ms = 10;
    d.resilience.miss_budget = 5;
    d.resilience.recv_deadline_ms = 500;
    d.fault.kind = match job.kind {
        ChaosKind::RankKill => mas_config::FaultKind::Panic,
        ChaosKind::HaloDrop => mas_config::FaultKind::HaloDrop,
        ChaosKind::Clean => unreachable!(),
    };
    d.fault.step = 3;
    d.fault.rank = 1;
    d.fault.count = 1;
    (d, 2)
}

/// The same physics with the disturbance removed — what the baseline
/// server runs to pin bit-exactness.
fn undisturbed(deck: &Deck) -> Deck {
    let mut d = deck.clone();
    d.fault.kind = mas_config::FaultKind::None;
    d
}

fn chaos_drill(seed: u64) -> Result<(), String> {
    let sched = ChaosSchedule::draw(seed);
    println!("chaos-drill: seed={seed} fingerprint={:016x}", sched.fingerprint);
    for (i, j) in sched.jobs.iter().enumerate() {
        println!(
            "chaos-drill: schedule[{i}] kind={:?} seed={} steps={} drop_before={}",
            j.kind, j.seed, j.n_steps, j.drop_before
        );
    }
    println!(
        "chaos-drill: schedule[panic] seed={} | schedule[device-fault] seed={} | \
         schedule[deadline] seed={} | schedule[sigkill] seeds={},{}",
        sched.panic_seed,
        sched.fault_seed,
        sched.deadline_seed,
        sched.slow_seeds[0],
        sched.slow_seeds[1]
    );

    let state = std::env::temp_dir().join(format!("mas_serve_chaos_{seed}"));
    let baseline_state = std::env::temp_dir().join(format!("mas_serve_chaos_base_{seed}"));
    let ckpt_root = std::env::temp_dir().join(format!("mas_serve_chaos_ckpt_{seed}"));
    let _ = std::fs::remove_dir_all(&state);
    let _ = std::fs::remove_dir_all(&baseline_state);
    let _ = std::fs::remove_dir_all(&ckpt_root);

    let a = spawn_server(&state, 2)?;
    let addr = a.addr.clone();
    let mut a_child = a.child;
    // Every id the server ever acknowledged; the no-lost-jobs invariant
    // checks each one resolves to a terminal state at the end.
    let mut acked: Vec<u64> = Vec::new();
    let submit = |spec: &mas_serve::JobSpec, acked: &mut Vec<u64>| -> Result<u64, String> {
        let r = request(&addr, &wire::encode_submit(spec))?;
        let id: u64 = field_of(&r, "id")
            .and_then(|s| s.parse().ok())
            .ok_or(format!("submit rejected: {r}"))?;
        acked.push(id);
        Ok(id)
    };

    // -- Scene A: disturbed physics under connection chaos ------------
    let mut physics: Vec<(u64, Deck, usize, u64)> = Vec::new(); // (id, clean deck, ranks, seed)
    for (i, job) in sched.jobs.iter().enumerate() {
        if job.drop_before {
            drop_connection(&addr, i % 2 == 0);
        }
        let (deck, ranks) = chaos_deck(job, &ckpt_root, i);
        let spec = mas_serve::JobSpec::new(deck.clone())
            .tenant("chaos")
            .ranks(ranks)
            .seed(job.seed)
            .max_attempts(3);
        let id = submit(&spec, &mut acked)?;
        physics.push((id, undisturbed(&deck), ranks, job.seed));
    }
    let mut result_hashes: Vec<(u64, String)> = Vec::new();
    for &(id, ..) in &physics {
        let r = RemoteClient::connect(addr.clone()).wait(id)?;
        expect(
            field_of(&r, "state").as_deref() == Some("done"),
            &format!("chaos job {id} completed ({r})"),
        )?;
        let h = field_of(&request(&addr, &format!("result id={id}"))?, "hashes")
            .ok_or(format!("no hashes for job {id}"))?;
        result_hashes.push((id, h));
    }

    // -- Scene B: a crash-looping deck is quarantined ------------------
    let mut panic_deck = tiny_deck();
    panic_deck.problem = "chaos-panic".into();
    let panic_spec = mas_serve::JobSpec::new(panic_deck.clone())
        .tenant("chaos")
        .seed(sched.panic_seed)
        .max_attempts(2);
    let pid = submit(&panic_spec, &mut acked)?;
    let r = RemoteClient::connect(addr.clone()).wait(pid)?;
    expect(
        field_of(&r, "state").as_deref() == Some("quarantined"),
        &format!("panicking deck quarantined after its attempt budget ({r})"),
    )?;
    let r = request(&addr, &wire::encode_submit(&panic_spec))?;
    expect(
        r.starts_with("err ") && r.contains("quarantined"),
        &format!("quarantined resubmission refused ({r})"),
    )?;
    let r = request(&addr, "quarantine list")?;
    expect(
        field_of(&r, "n").as_deref() == Some("1"),
        &format!("quarantine lists one key ({r})"),
    )?;
    // The server is still serving everyone else.
    let r = request(&addr, "stats")?;
    expect(
        field_of(&r, "worker_panics").and_then(|s| s.parse::<u64>().ok()) >= Some(2),
        &format!("both panicking attempts were contained ({r})"),
    )?;

    // -- Scene B2: a deadline fails a job cooperatively ----------------
    let deadline_spec = mas_serve::JobSpec::new(slow_deck(3000))
        .tenant("chaos")
        .seed(sched.deadline_seed)
        .deadline_ms(250);
    let did = submit(&deadline_spec, &mut acked)?;
    let r = RemoteClient::connect(addr.clone()).wait(did)?;
    expect(
        field_of(&r, "state").as_deref() == Some("failed")
            && field_of(&r, "error").is_some_and(|e| e.contains("deadline")),
        &format!("over-deadline job failed with a deadline error ({r})"),
    )?;

    // -- Scene C: a sick device is pulled, probed, reinstated ----------
    let r = request(&addr, "inject device=0 count=3")?;
    expect(r.starts_with("ok "), &format!("fault injection accepted ({r})"))?;
    let fault_spec = mas_serve::JobSpec::new(tiny_deck())
        .tenant("chaos")
        .seed(sched.fault_seed)
        .max_attempts(6);
    let fid = submit(&fault_spec, &mut acked)?;
    let r = RemoteClient::connect(addr.clone()).wait(fid)?;
    expect(
        field_of(&r, "state").as_deref() == Some("done"),
        &format!("job survived the sick device via retries ({r})"),
    )?;
    let fh = field_of(&request(&addr, &format!("result id={fid}"))?, "hashes")
        .ok_or("no hashes for the device-fault job")?;
    result_hashes.push((fid, fh));
    physics.push((fid, tiny_deck(), 1, sched.fault_seed));
    // The canary must reinstate device 0 once its faults are exhausted.
    let mut reinstated = false;
    for _ in 0..400 {
        let r = request(&addr, "stats")?;
        let suspect: usize = field_of(&r, "suspect").and_then(|s| s.parse().ok()).unwrap_or(9);
        let reins: u64 = field_of(&r, "reinstated").and_then(|s| s.parse().ok()).unwrap_or(0);
        if suspect == 0 && reins >= 1 {
            reinstated = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    expect(reinstated, "suspect device probed by canary and reinstated")?;

    // -- Scene D: SIGKILL mid-run, recover, verify ---------------------
    let slow1 = mas_serve::JobSpec::new(slow_deck(1500))
        .tenant("chaos")
        .seed(sched.slow_seeds[0]);
    let slow2 = mas_serve::JobSpec::new(slow_deck(1500))
        .tenant("chaos")
        .seed(sched.slow_seeds[1]);
    let s1 = submit(&slow1, &mut acked)?;
    let s2 = submit(&slow2, &mut acked)?;
    let mut mid_run = false;
    for _ in 0..2000 {
        let r = request(&addr, &format!("status id={s1}"))?;
        let state_now = field_of(&r, "state").unwrap_or_default();
        let steps: usize = field_of(&r, "steps")
            .and_then(|s| s.split('/').next().map(str::to_string))
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        if state_now == "running" && steps > 5 {
            mid_run = true;
            break;
        }
        if state_now == "done" {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    expect(mid_run, "caught a slow job mid-run")?;
    a_child.kill().map_err(|e| format!("kill server: {e}"))?;
    let _ = a_child.wait();
    println!("chaos-drill: server killed (SIGKILL) mid-job");

    let b = spawn_server(&state, 2)?;
    let addr = b.addr.clone();
    let mut b_child = b.child;
    let recovery = b.recovery.ok_or("no recovery summary line printed")?;
    // The quarantine survived the kill (journaled), and the pool-ledger
    // invariant held (the recovering server asserts it or dies).
    expect(
        field_of(&recovery, "quarantine_keys").as_deref() == Some("1"),
        &format!("quarantine survived SIGKILL ({recovery})"),
    )?;
    expect(
        field_of(&recovery, "requeued").as_deref() == Some("2"),
        &format!("both interrupted jobs requeued ({recovery})"),
    )?;
    for id in [s1, s2] {
        let r = RemoteClient::connect(addr.clone()).wait(id)?;
        expect(
            field_of(&r, "state").as_deref() == Some("done"),
            &format!("requeued job {id} completed after restart ({r})"),
        )?;
    }
    // Quarantine still enforced post-restart, then cleared.
    let r = request(&addr, &wire::encode_submit(&panic_spec))?;
    expect(
        r.starts_with("err ") && r.contains("quarantined"),
        &format!("quarantine enforced after recovery ({r})"),
    )?;
    let r = request(&addr, "quarantine clear")?;
    expect(
        field_of(&r, "cleared").as_deref() == Some("1"),
        &format!("quarantine cleared ({r})"),
    )?;
    let r = request(&addr, "quarantine list")?;
    expect(
        field_of(&r, "n").as_deref() == Some("0"),
        &format!("quarantine empty after clear ({r})"),
    )?;

    // No acknowledged job was lost: every id the first incarnation
    // acknowledged resolves to a state here, and none is stuck.
    for &id in &acked {
        let r = request(&addr, &format!("status id={id}"))?;
        let state_now = field_of(&r, "state").unwrap_or_default();
        expect(
            ["done", "failed", "cancelled", "quarantined"].contains(&state_now.as_str()),
            &format!("acknowledged job {id} is terminal after recovery ({r})"),
        )?;
    }
    // Ledger balanced, nothing leaked.
    let r = request(&addr, "stats")?;
    expect(
        field_of(&r, "busy").as_deref() == Some("0")
            && field_of(&r, "running").as_deref() == Some("0")
            && field_of(&r, "queued").as_deref() == Some("0"),
        &format!("pool idle and ledger balanced after the soak ({r})"),
    )?;
    let r = RemoteClient::connect(addr.clone()).drain()?;
    expect(r == "ok drained", &format!("drain acknowledged ({r})"))?;
    let status = b_child.wait().map_err(|e| e.to_string())?;
    expect(status.success(), "drained server exited 0")?;

    // -- Scene E: bit-exactness vs an undisturbed baseline -------------
    let c = spawn_server(&baseline_state, 2)?;
    let addr = c.addr.clone();
    let mut c_child = c.child;
    for (chaos_id, clean_deck, ranks, job_seed) in &physics {
        let spec = mas_serve::JobSpec::new(clean_deck.clone())
            .tenant("baseline")
            .ranks(*ranks)
            .seed(*job_seed);
        let r = request(&addr, &wire::encode_submit(&spec))?;
        let bid = field_of(&r, "id").ok_or(format!("baseline submit rejected: {r}"))?;
        RemoteClient::connect(addr.clone()).wait(bid.parse().map_err(|e| format!("{e}"))?)?;
        let bh = field_of(&request(&addr, &format!("result id={bid}"))?, "hashes")
            .ok_or(format!("no baseline hashes for job {bid}"))?;
        let ch = &result_hashes
            .iter()
            .find(|(id, _)| id == chaos_id)
            .ok_or(format!("missing chaos hashes for job {chaos_id}"))?
            .1;
        expect(
            ch == &bh,
            &format!("chaos job {chaos_id} hashes bit-exact vs undisturbed baseline"),
        )?;
    }
    let _ = RemoteClient::connect(addr).shutdown();
    let _ = c_child.wait();

    println!("chaos-drill: all checks passed (seed={seed} fingerprint={:016x})", sched.fingerprint);
    Ok(())
}

fn main() -> ExitCode {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("mas_serve: {e}\n");
            usage();
        }
    };
    if opts.drill {
        return match drill() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("drill: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if opts.restart_drill {
        return match restart_drill() {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("restart-drill: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if opts.chaos_drill {
        return match chaos_drill(opts.chaos_seed) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("chaos-drill: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let server = match server_from(&opts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("mas_serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    if opts.drain {
        // Headless wind-down: finish everything recovered/queued,
        // journal the terminal states, exit 0. No listener.
        server.drain();
        server.join();
        let s = server.stats();
        println!(
            "mas_serve: drained | done={} failed={} cancelled={}",
            s.done, s.failed, s.cancelled
        );
        return ExitCode::SUCCESS;
    }
    let listener = match TcpListener::bind(&opts.listen) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("mas_serve: cannot bind {}: {e}", opts.listen);
            return ExitCode::FAILURE;
        }
    };
    let bound = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| opts.listen.clone());
    println!(
        "mas_serve: listening on {bound} | {} device(s), {} worker(s), queue {}, quota {}{}",
        opts.devices,
        opts.workers.unwrap_or(opts.devices),
        opts.queue,
        opts.quota,
        match &opts.state_dir {
            Some(d) => format!(", journal {d}/journal.log"),
            None => ", in-memory (no --state-dir)".into(),
        }
    );
    let deadline = match opts.wire_deadline_ms {
        0 => None,
        ms => Some(Duration::from_millis(ms)),
    };
    serve(listener, server, deadline);
    ExitCode::SUCCESS
}
