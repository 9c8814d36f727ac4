//! `mas_serve` — the simulation-as-a-service daemon.
//!
//! Usage:
//!
//! ```text
//! mas_serve [--listen ADDR] [--devices N] [--workers N] [--queue N] [--quota N]
//!           [--state-dir DIR] [--wire-deadline-ms MS]
//!           [--shed-depth N] [--shed-age-ms MS] [--drain]
//! ```
//!
//! The default mode binds a TCP listener and speaks the `mas-serve` line
//! protocol (one request line, one response line — see
//! `mas_serve::wire`): `submit`, `status`, `wait`, `cancel`, `result`,
//! `stats`, `quarantine list|clear`, `drain`, `shutdown`.
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
//! The end-to-end checks of this binary — SIGKILL mid-job and journal
//! recovery, a seeded chaos soak, hostile wire input — live in the
//! root package's `tests/serve_chaos.rs` and `tests/serve_wire.rs`,
//! which drive it as a child process.

use mas_serve::wire::{self, Request, WireRead};
use mas_serve::{JobId, Server, ServerConfig};
use std::io::{BufReader, Write};
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
         --drain               finish all queued/recovered jobs, journal, exit 0"
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
            format!(
                "ok devices={} free={} busy={} queued={} running={} done={} \
                 failed={} cancelled={} quarantined={} cache_hits={} cache_misses={} \
                 cache_entries={} cache_evictions={} total_steps={} oldest_queued_ms={} \
                 shed_total={} deadline_exceeded={} worker_panics={} quarantine_keys={} \
                 tenants={}",
                s.pool.total,
                s.pool.free,
                s.pool.busy,
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
                tenants
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

fn main() -> ExitCode {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("mas_serve: {e}\n");
            usage();
        }
    };
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
