//! The scheduler: queue, quotas, worker pool, device leasing, progress
//! streaming, cancellation, and the result cache — glued to the
//! fault-tolerant supervisor that actually executes each job.
//!
//! Concurrency shape: one `Mutex<Sched>` guards the queue, the job
//! table, the cache **and the journal** (so journal write order equals
//! state-transition order by construction); a single `Condvar` is
//! notified on every event (submission, completion, cancellation,
//! drain, shutdown) and woken by both idle workers and blocked
//! status-waiters. Per-job live counters (step progress, recovery
//! count, the cancel flag) are atomics outside the lock, because every
//! rank thread of a running job updates them on every step — they must
//! not serialise the physics on the scheduler lock.
//!
//! Failure: a job runs once. Its body runs under `catch_unwind`, so an
//! error returned by the run and a panic of the worker body alike end
//! the job `Failed` with their message, and the worker goes on to the
//! next job. Runs are deterministic: rerunning a failed deck would only
//! repeat its failure, so recovery from a fault inside a run belongs to
//! the supervisor (rollback, respawn), not to the scheduler.
//!
//! Durability: a server booted with [`Server::recover`] appends every
//! state transition to the write-ahead journal *before* releasing the
//! scheduler lock, each record fsync'd — SIGKILL at any instant loses
//! no acknowledged submission and no completed result (see
//! [`crate::journal`]). A server booted with [`Server::start`] runs
//! in-memory only, the pre-journal behaviour.

use crate::cache::{CacheKey, ResultCache};
use crate::job::{JobId, JobSpec, JobState, JobStatus};
use crate::journal::{self, Journal, Record};
use gpusim::{DevicePool, DeviceSpec, PoolStats};
use mas_config::DeckError;
use mas_mhd::{progress_fn, MultiRankReport, ProgressEvent};
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Lock a mutex, recovering the guard if a panicking thread poisoned
/// it. Scheduler state is transitioned only in complete units (journal
/// append + in-memory mutation happen before anything that can panic),
/// so the data under a poisoned lock is consistent — recovering it
/// contains the panic to the job that caused it instead of cascading
/// `PoisonError` panics through every worker and the accept loop (the
/// poisoned-mutex death spiral).
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// Render a `catch_unwind` payload as the failure message a panicking
/// job reports (panics almost always carry a `&str` or `String`).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("worker panicked: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("worker panicked: {s}")
    } else {
        "worker panicked".into()
    }
}

/// Sizing and policy knobs for a [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Spec of every device in the pool (homogeneous fleet).
    pub device: DeviceSpec,
    /// Pool size. A job needing more ranks than this is rejected at
    /// submission as infeasible.
    pub n_devices: usize,
    /// Worker threads — the maximum number of jobs in flight at once.
    pub n_workers: usize,
    /// Backpressure bound: submissions beyond this many queued jobs are
    /// rejected with [`SubmitError::QueueFull`].
    pub max_queue: usize,
    /// Per-tenant cap on live (queued + running) jobs.
    pub tenant_quota: usize,
    /// Result-cache entry bound (LRU eviction beyond it; evictions are
    /// journaled so the persisted cache stays bounded too).
    pub cache_max_entries: usize,
    /// Optional result TTL: entries older than this expire at the next
    /// sweep regardless of use. `None` (the default) never expires.
    pub cache_ttl: Option<Duration>,
    /// Compact the journal after this many appended records (snapshot
    /// of live state replaces the historical tail). Only meaningful for
    /// journaled servers.
    pub compact_every: usize,
    /// Load-shedding watermark on queue depth: while more than this many
    /// jobs are queued, the lowest-priority queued work is shed (or the
    /// newcomer rejected with a retry-after hint). 0 disables.
    pub shed_queue_depth: usize,
    /// Load-shedding watermark on the oldest queued job's age in
    /// milliseconds. 0 disables.
    pub shed_oldest_ms: u64,
    /// The retry-after hint (milliseconds) carried by overload
    /// rejections and shed notices.
    pub retry_after_ms: u64,
}

impl ServerConfig {
    /// A config for `n_devices` slots of `device`, with one worker per
    /// device and moderate queue/quota/cache bounds.
    pub fn new(device: DeviceSpec, n_devices: usize) -> Self {
        Self {
            device,
            n_devices,
            n_workers: n_devices,
            max_queue: 32,
            tenant_quota: 8,
            cache_max_entries: 256,
            cache_ttl: None,
            compact_every: 512,
            shed_queue_depth: 0,
            shed_oldest_ms: 0,
            retry_after_ms: 500,
        }
    }
}

/// Why a submission was rejected. Every variant is a *submission-time*
/// answer — once accepted, a job fails through its own status, never by
/// panicking a worker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The queue is at capacity (backpressure: retry later).
    QueueFull {
        /// The configured bound that was hit.
        capacity: usize,
    },
    /// The tenant already has `quota` live jobs.
    QuotaExceeded {
        /// The tenant over budget.
        tenant: String,
        /// The configured per-tenant cap.
        quota: usize,
    },
    /// The job can never run on this pool: zero ranks, or more ranks
    /// than the fleet has devices.
    Infeasible {
        /// Devices the job would need.
        needed: usize,
        /// Devices the pool has.
        pool: usize,
    },
    /// The deck failed validation (same structured error the `mas` CLI
    /// reports).
    InvalidDeck(DeckError),
    /// The server is shedding load (queue depth or queue age over its
    /// watermark) and this submission lost the priority comparison.
    Overloaded {
        /// Client-honored hint: retry no sooner than this many ms.
        retry_after_ms: u64,
    },
    /// The server is shutting down or draining.
    ShuttingDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { capacity } => {
                write!(f, "queue full ({capacity} jobs queued); retry later")
            }
            SubmitError::QuotaExceeded { tenant, quota } => {
                write!(f, "tenant '{tenant}' is at its quota of {quota} live jobs")
            }
            SubmitError::Infeasible { needed, pool } => {
                write!(f, "job needs {needed} device(s) but the pool holds {pool}")
            }
            SubmitError::InvalidDeck(e) => write!(f, "{e}"),
            SubmitError::Overloaded { retry_after_ms } => {
                write!(f, "server overloaded; retry after {retry_after_ms}ms")
            }
            SubmitError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// Live per-job counters, updated from rank threads without the
/// scheduler lock (see the module docs).
#[derive(Default)]
struct JobProgress {
    /// Max step completed over all ranks.
    steps_done: AtomicUsize,
    /// Rollbacks + restores observed.
    recovery_count: AtomicUsize,
    /// Human-readable recovery event log.
    recovery_log: Mutex<Vec<String>>,
    /// Cooperative cancel: the progress sink returns `false` once set.
    cancel: AtomicBool,
    /// The deadline fired mid-run: the sink stops the job at the next
    /// step boundary, and the outcome is classified `Failed` (deadline
    /// exceeded), not `Cancelled` — distinct from a user cancel.
    deadline_hit: AtomicBool,
}

impl JobProgress {
    fn log(&self, line: String) {
        relock(&self.recovery_log).push(line);
    }
}

struct JobRecord {
    spec: JobSpec,
    key: CacheKey,
    state: JobState,
    cached: bool,
    progress: Arc<JobProgress>,
    result: Option<Arc<MultiRankReport>>,
    error: Option<String>,
    /// When the job was accepted — deadlines are measured from here.
    /// Reset to boot time for jobs re-enqueued by recovery (the clock
    /// that anchored the original deadline died with the old process).
    submitted_at: Instant,
}

impl JobRecord {
    /// The instant this job's deadline expires, if it has one.
    fn deadline(&self) -> Option<Instant> {
        let ms = self.spec.deck.serve.deadline_ms;
        (ms > 0).then(|| self.submitted_at + Duration::from_millis(ms))
    }
}

impl JobRecord {
    fn status(&self, id: JobId) -> JobStatus {
        JobStatus {
            id,
            tenant: self.spec.tenant.clone(),
            state: self.state,
            steps_done: self.progress.steps_done.load(Ordering::SeqCst),
            n_steps: self.spec.deck.time.n_steps,
            recovery_events: self.progress.recovery_count.load(Ordering::SeqCst),
            cached: self.cached,
            error: self.error.clone(),
        }
    }
}

struct Sched {
    /// Pending job ids, submission-ordered (selection scans it).
    queue: Vec<u64>,
    jobs: HashMap<u64, JobRecord>,
    cache: ResultCache,
    next_id: u64,
    running: usize,
    shutting_down: bool,
    /// Intake closed; running and queued jobs finish (see
    /// [`Server::drain`]).
    draining: bool,
    /// The write-ahead journal, when durability is on. Living inside
    /// the scheduler lock makes journal order identical to transition
    /// order with no extra synchronisation.
    journal: Option<Journal>,
    /// This boot's epoch stamp (max replayed epoch + 1; 0 in-memory).
    epoch: u64,
    /// Queued jobs shed under overload since boot.
    shed_total: u64,
    /// Jobs failed by their deadline since boot.
    deadline_exceeded: u64,
    /// Worker-body panics contained by `catch_unwind` since boot.
    worker_panics: u64,
}

/// Aggregate server counters (see [`Server::stats`]).
#[derive(Clone, Debug)]
pub struct ServerStats {
    /// Device-pool ledger snapshot.
    pub pool: PoolStats,
    /// Jobs waiting for devices.
    pub queued: usize,
    /// Jobs executing now.
    pub running: usize,
    /// Jobs finished successfully (cache hits included).
    pub done: usize,
    /// Jobs that failed.
    pub failed: usize,
    /// Jobs cancelled.
    pub cancelled: usize,
    /// Cache lookups served.
    pub cache_hits: u64,
    /// Cache lookups missed.
    pub cache_misses: u64,
    /// Results currently cached.
    pub cache_entries: usize,
    /// Cache entries evicted (capacity bound or TTL) since boot.
    pub cache_evictions: u64,
    /// Simulation steps executed across all jobs since boot — the
    /// counter the cache-hit tests pin to zero growth.
    pub total_steps: u64,
    /// Age of the oldest queued job, milliseconds (0 when idle) — one of
    /// the two shedding watermarks, surfaced so operators see pressure
    /// building before the shed fires.
    pub oldest_queued_ms: u64,
    /// Queued-job count per tenant, tenant-sorted.
    pub tenants_queued: Vec<(String, usize)>,
    /// Queued jobs shed under overload since boot.
    pub shed_total: u64,
    /// Jobs failed by their deadline since boot.
    pub deadline_exceeded: u64,
    /// Worker-body panics contained since boot.
    pub worker_panics: u64,
}

/// What [`Server::recover`] found in the journal — printed by the
/// `mas_serve` binary as a single greppable `recovery:` line.
#[derive(Clone, Debug, Default)]
pub struct RecoverySummary {
    /// This boot's epoch (previous max + 1).
    pub epoch: u64,
    /// Valid records replayed.
    pub records: usize,
    /// Interrupted (queued or running at crash) jobs re-enqueued.
    pub requeued: usize,
    /// Jobs restored in `Done` state.
    pub done: usize,
    /// Jobs restored in `Failed` state.
    pub failed: usize,
    /// Jobs restored in `Cancelled` state.
    pub cancelled: usize,
    /// Results rehydrated into the cache.
    pub cache_entries: usize,
    /// Persisted cache entries dropped because they were computed by a
    /// different build (stale physics is never served).
    pub dropped_stale_cache: usize,
    /// Jobs dropped because their deck text no longer parses under this
    /// build's config grammar.
    pub dropped_unparseable: usize,
    /// Torn-tail bytes truncated off the journal.
    pub truncated_bytes: u64,
    /// Why replay stopped early, when it did.
    pub torn: Option<String>,
}

impl fmt::Display for RecoverySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "epoch={} records={} requeued={} done={} failed={} cancelled={} \
             cache={} stale_dropped={} unparseable={} truncated_bytes={}",
            self.epoch,
            self.records,
            self.requeued,
            self.done,
            self.failed,
            self.cancelled,
            self.cache_entries,
            self.dropped_stale_cache,
            self.dropped_unparseable,
            self.truncated_bytes,
        )?;
        if let Some(t) = &self.torn {
            write!(f, " torn=\"{t}\"")?;
        }
        Ok(())
    }
}

/// The long-running scheduler. Create with [`Server::start`] (in-memory)
/// or [`Server::recover`] (journaled, crash-only); submit through it;
/// stop with [`Server::shutdown`] + [`Server::join`], or gracefully with
/// [`Server::drain`].
pub struct Server {
    cfg: ServerConfig,
    pool: DevicePool,
    sched: Mutex<Sched>,
    event: Condvar,
    /// Steps executed server-wide (every rank's every step). Behind an
    /// `Arc` so a job's progress sink can hold it without borrowing the
    /// server.
    total_steps: Arc<AtomicU64>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Server {
    /// Boot an in-memory server: build the device pool and spawn the
    /// worker pool. Nothing is persisted — a crash loses queue and
    /// cache (use [`Server::recover`] for the crash-only variant).
    pub fn start(cfg: ServerConfig) -> Arc<Server> {
        let cache = ResultCache::new(cfg.cache_max_entries, cfg.cache_ttl);
        Self::spawn(
            cfg,
            Sched {
                queue: Vec::new(),
                jobs: HashMap::new(),
                cache,
                next_id: 1,
                running: 0,
                shutting_down: false,
                draining: false,
                journal: None,
                epoch: 0,
                shed_total: 0,
                deadline_exceeded: 0,
                worker_panics: 0,
            },
        )
    }

    /// Boot a journaled server over `dir`, replaying any journal found
    /// there first: completed results rehydrate the cache, jobs that
    /// were queued or running when the previous incarnation died are
    /// re-enqueued at their original priority, and a torn journal tail
    /// is truncated, not fatal. Every subsequent state transition is
    /// journaled durably. Idempotent: recovering the same directory
    /// twice in a row reconstructs identical state.
    pub fn recover(
        cfg: ServerConfig,
        dir: impl AsRef<Path>,
    ) -> io::Result<(Arc<Server>, RecoverySummary)> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let (mut jrn, replayed) = Journal::open(dir.join("journal.log"))?;

        // -- Fold the record stream into final job states + cache -----
        struct RJob {
            rec: Record,
            state: JobState,
            cached: bool,
            message: Option<String>,
        }
        let mut epoch_max = 0u64;
        let mut folded: BTreeMap<u64, RJob> = BTreeMap::new();
        let mut cache = ResultCache::new(cfg.cache_max_entries, cfg.cache_ttl);
        let mut overflow_evicted: Vec<CacheKey> = Vec::new();
        let mut summary = RecoverySummary {
            records: replayed.records.len(),
            truncated_bytes: replayed.truncated_bytes,
            torn: replayed.torn.clone(),
            ..Default::default()
        };
        for (epoch, rec) in &replayed.records {
            epoch_max = epoch_max.max(*epoch);
            match rec {
                Record::Boot => {}
                Record::Submitted { id, .. } => {
                    folded.insert(
                        *id,
                        RJob {
                            rec: rec.clone(),
                            state: JobState::Queued,
                            cached: false,
                            message: None,
                        },
                    );
                }
                Record::Started { id } => {
                    if let Some(j) = folded.get_mut(id) {
                        j.state = JobState::Running;
                    }
                }
                Record::Done { id, cached } => {
                    if let Some(j) = folded.get_mut(id) {
                        j.state = JobState::Done;
                        j.cached = *cached;
                    }
                }
                Record::Failed { id, message } => {
                    if let Some(j) = folded.get_mut(id) {
                        j.state = JobState::Failed;
                        j.message = Some(message.clone());
                    }
                }
                Record::Cancelled { id, message } => {
                    if let Some(j) = folded.get_mut(id) {
                        j.state = JobState::Cancelled;
                        j.message = Some(message.clone());
                    }
                }
                Record::CacheInsert {
                    deck_hash,
                    version_tag,
                    code_rev,
                    n_ranks,
                    seed,
                    report,
                } => {
                    // A result computed by another build is stale
                    // physics: drop it rather than serve it.
                    if code_rev != journal::CODE_REV {
                        summary.dropped_stale_cache += 1;
                        continue;
                    }
                    let (Ok(version), Ok(full)) =
                        (crate::wire::parse_version(version_tag), report.to_report())
                    else {
                        summary.dropped_stale_cache += 1;
                        continue;
                    };
                    let key = CacheKey {
                        deck_hash: *deck_hash,
                        version,
                        code_rev: journal::CODE_REV,
                        n_ranks: *n_ranks as usize,
                        seed: *seed,
                    };
                    overflow_evicted.extend(cache.insert(key, Arc::new(full)));
                }
                Record::Evicted {
                    deck_hash,
                    version_tag,
                    n_ranks,
                    seed,
                    ..
                } => {
                    if let Ok(version) = crate::wire::parse_version(version_tag) {
                        // Replaying an eviction the previous incarnation
                        // already performed and counted.
                        cache.remove(&CacheKey {
                            deck_hash: *deck_hash,
                            version,
                            code_rev: journal::CODE_REV,
                            n_ranks: *n_ranks as usize,
                            seed: *seed,
                        });
                    }
                }
            }
        }

        // -- Rebuild the job table and queue --------------------------
        let mut jobs = HashMap::new();
        let mut queue = Vec::new();
        let mut next_id = 1u64;
        for (id, rj) in &folded {
            next_id = next_id.max(id + 1);
            let spec = match journal::spec_of_submitted(&rj.rec) {
                Ok(s) => s,
                Err(_) => {
                    // The deck no longer parses under this build: the
                    // job cannot be reconstructed, so it is dropped (and
                    // counted). Replay stays idempotent — the next boot
                    // reaches the same verdict.
                    summary.dropped_unparseable += 1;
                    continue;
                }
            };
            let key = CacheKey::for_spec(&spec);
            let progress = Arc::new(JobProgress::default());
            let (state, result, error) = match rj.state {
                // Interrupted jobs (queued or mid-run at crash time)
                // re-enter the queue; their original priority lives in
                // the spec, so scheduling order is preserved.
                JobState::Queued | JobState::Running => {
                    queue.push(*id);
                    summary.requeued += 1;
                    (JobState::Queued, None, None)
                }
                JobState::Done => {
                    summary.done += 1;
                    progress
                        .steps_done
                        .store(spec.deck.time.n_steps, Ordering::SeqCst);
                    // The result comes back from the rehydrated cache;
                    // if it was evicted before the crash the job stays
                    // Done but its report is gone (result() reports
                    // that, structurally).
                    (JobState::Done, cache.peek(&key), None)
                }
                JobState::Failed => {
                    summary.failed += 1;
                    (
                        JobState::Failed,
                        None,
                        Some(rj.message.clone().unwrap_or_else(|| "failed".into())),
                    )
                }
                JobState::Cancelled => {
                    summary.cancelled += 1;
                    (
                        JobState::Cancelled,
                        None,
                        Some(rj.message.clone().unwrap_or_else(|| "cancelled".into())),
                    )
                }
            };
            jobs.insert(
                *id,
                JobRecord {
                    cached: rj.cached,
                    spec,
                    key,
                    state,
                    progress,
                    result,
                    error,
                    submitted_at: Instant::now(),
                },
            );
        }
        summary.cache_entries = cache.len();
        summary.epoch = epoch_max + 1;

        // -- Stamp the new epoch and journal recovery-time evictions --
        if let Err(e) = jrn.append(summary.epoch, &Record::Boot) {
            return Err(io::Error::new(
                e.kind(),
                format!("journal boot record: {e}"),
            ));
        }
        for k in &overflow_evicted {
            let _ = jrn.append(summary.epoch, &Record::evicted(k));
        }

        let epoch = summary.epoch;
        let server = Self::spawn(
            cfg,
            Sched {
                queue,
                jobs,
                cache,
                next_id,
                running: 0,
                shutting_down: false,
                draining: false,
                journal: Some(jrn),
                epoch,
                shed_total: 0,
                deadline_exceeded: 0,
                worker_panics: 0,
            },
        );
        Ok((server, summary))
    }

    fn spawn(cfg: ServerConfig, sched: Sched) -> Arc<Server> {
        assert!(cfg.n_workers > 0, "server needs at least one worker");
        let pool = DevicePool::new(cfg.device.clone(), cfg.n_devices);
        // Lease-ledger invariant: the pool is a fresh incarnation, so
        // every lease a dead predecessor held is gone — nothing may be
        // busy, and grant/release counters must balance at zero. Checked
        // before any worker starts: a worker that claims a recovered job
        // takes a *new* lease at once. A stale lease from the previous
        // incarnation can never be released into this pool (gpusim
        // rejects cross-incarnation releases).
        let ps = pool.stats();
        assert_eq!(
            (ps.busy, ps.leases_granted - ps.leases_released),
            (0, 0),
            "recovered pool must start with a balanced, empty lease ledger"
        );
        let server = Arc::new(Server {
            cfg,
            pool,
            sched: Mutex::new(sched),
            event: Condvar::new(),
            total_steps: Arc::new(AtomicU64::new(0)),
            workers: Mutex::new(Vec::new()),
        });
        let mut workers = relock(&server.workers);
        for i in 0..server.cfg.n_workers {
            let s = server.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || s.worker_loop())
                    .expect("spawn worker"),
            );
        }
        drop(workers);
        server
    }

    /// Append a record to the journal, if there is one. An append
    /// failure is logged and survived: a full disk degrades durability,
    /// it does not take the service down.
    fn jappend(sched: &mut Sched, rec: &Record) {
        let epoch = sched.epoch;
        if let Some(j) = sched.journal.as_mut() {
            if let Err(e) = j.append(epoch, rec) {
                eprintln!("mas-serve: journal append failed: {e}");
            }
        }
    }

    /// Compact the journal into a snapshot of live state once enough
    /// records have accumulated since the last compaction.
    fn maybe_compact(&self, sched: &mut Sched) {
        let due = sched
            .journal
            .as_ref()
            .is_some_and(|j| j.appended_since_compaction() >= self.cfg.compact_every);
        if !due {
            return;
        }
        let recs = Self::snapshot_records(sched);
        let epoch = sched.epoch;
        if let Some(j) = sched.journal.as_mut() {
            if let Err(e) = j.compact(epoch, &recs) {
                eprintln!("mas-serve: journal compaction failed: {e}");
            }
        }
    }

    /// Serialise live state as a record stream — a compacted journal is
    /// just a journal whose history happens to be minimal.
    fn snapshot_records(sched: &Sched) -> Vec<Record> {
        let mut recs = vec![Record::Boot];
        for (key, report) in sched.cache.entries() {
            recs.push(Record::cache_insert(key, report));
        }
        let mut ids: Vec<u64> = sched.jobs.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let job = &sched.jobs[&id];
            recs.push(Record::submitted(id, &job.spec));
            match job.state {
                JobState::Queued => {}
                // Replayed as interrupted → re-enqueued, which is
                // exactly right for a job running at snapshot time.
                JobState::Running => recs.push(Record::Started { id }),
                JobState::Done => recs.push(Record::Done {
                    id,
                    cached: job.cached,
                }),
                JobState::Failed => recs.push(Record::Failed {
                    id,
                    message: job.error.clone().unwrap_or_default(),
                }),
                JobState::Cancelled => recs.push(Record::Cancelled {
                    id,
                    message: job.error.clone().unwrap_or_default(),
                }),
            }
        }
        recs
    }

    /// Submit a job. Returns its id, or a structured rejection; a
    /// resubmission of an already-computed run completes instantly from
    /// the cache (status shows `cached`, zero steps execute).
    pub fn submit(&self, spec: JobSpec) -> Result<JobId, SubmitError> {
        // Feasibility and deck validity are answered before touching the
        // scheduler at all.
        let pool_size = self.cfg.n_devices;
        if spec.n_ranks == 0 || spec.n_ranks > pool_size {
            return Err(SubmitError::Infeasible {
                needed: spec.n_ranks,
                pool: pool_size,
            });
        }
        spec.deck.validated().map_err(SubmitError::InvalidDeck)?;

        let key = CacheKey::for_spec(&spec);
        let mut sched = relock(&self.sched);
        if sched.shutting_down || sched.draining {
            return Err(SubmitError::ShuttingDown);
        }
        // Expire TTL-stale results before consulting the cache, so an
        // expired entry reads as a miss (and its eviction is journaled).
        let expired = sched.cache.sweep(Instant::now());
        for k in &expired {
            Self::jappend(&mut sched, &Record::evicted(k));
        }
        let id = sched.next_id;

        // Cache hit: the job is born terminal. It consumes no queue
        // slot, no quota and no devices — serving a cached result is
        // free, so it is exempt from backpressure.
        if let Some(report) = sched.cache.lookup(&key) {
            sched.next_id += 1;
            Self::jappend(&mut sched, &Record::submitted(id, &spec));
            Self::jappend(&mut sched, &Record::Done { id, cached: true });
            let rec = JobRecord {
                spec,
                key,
                state: JobState::Done,
                cached: true,
                progress: Arc::new(JobProgress::default()),
                result: Some(report),
                error: None,
                submitted_at: Instant::now(),
            };
            rec.progress
                .steps_done
                .store(rec.spec.deck.time.n_steps, Ordering::SeqCst);
            sched.jobs.insert(id, rec);
            self.maybe_compact(&mut sched);
            drop(sched);
            self.event.notify_all();
            return Ok(JobId(id));
        }

        let live = sched
            .jobs
            .values()
            .filter(|j| j.spec.tenant == spec.tenant && !j.state.is_terminal())
            .count();
        if live >= self.cfg.tenant_quota {
            return Err(SubmitError::QuotaExceeded {
                tenant: spec.tenant,
                quota: self.cfg.tenant_quota,
            });
        }
        // Priority-aware load shedding: past either watermark the queue
        // only accepts work that outranks something already waiting — and
        // makes room by shedding the lowest-priority queued job with a
        // retry-after notice. Equal-or-lower-priority newcomers are the
        // ones turned away, so high-priority work still lands under
        // overload.
        let depth_over = self.cfg.shed_queue_depth > 0
            && sched.queue.len() >= self.cfg.shed_queue_depth;
        let now = Instant::now();
        let age_over = self.cfg.shed_oldest_ms > 0
            && sched
                .queue
                .iter()
                .filter_map(|qid| sched.jobs.get(qid))
                .map(|j| now.saturating_duration_since(j.submitted_at).as_millis() as u64)
                .max()
                .unwrap_or(0)
                >= self.cfg.shed_oldest_ms;
        if (depth_over || age_over) && !sched.queue.is_empty() {
            // Victim: lowest priority; newest submission breaks ties (it
            // has waited least).
            let &victim = sched
                .queue
                .iter()
                .min_by_key(|qid| (sched.jobs[qid].spec.priority, std::cmp::Reverse(**qid)))
                .expect("queue non-empty");
            let victim_priority = sched.jobs[&victim].spec.priority;
            if spec.priority <= victim_priority {
                return Err(SubmitError::Overloaded {
                    retry_after_ms: self.cfg.retry_after_ms,
                });
            }
            let message = format!(
                "shed under overload (priority {victim_priority}); retry after {}ms",
                self.cfg.retry_after_ms
            );
            sched.queue.retain(|&q| q != victim);
            sched.shed_total += 1;
            if let Some(job) = sched.jobs.get_mut(&victim) {
                job.state = JobState::Cancelled;
                job.error = Some(message.clone());
            }
            Self::jappend(
                &mut sched,
                &Record::Cancelled {
                    id: victim,
                    message,
                },
            );
        }

        if sched.queue.len() >= self.cfg.max_queue {
            return Err(SubmitError::QueueFull {
                capacity: self.cfg.max_queue,
            });
        }

        sched.next_id += 1;
        // Journal before acknowledging: once `Ok(id)` is returned the
        // submission must survive SIGKILL.
        Self::jappend(&mut sched, &Record::submitted(id, &spec));
        sched.jobs.insert(
            id,
            JobRecord {
                spec,
                key,
                state: JobState::Queued,
                cached: false,
                progress: Arc::new(JobProgress::default()),
                result: None,
                error: None,
                submitted_at: Instant::now(),
            },
        );
        sched.queue.push(id);
        self.maybe_compact(&mut sched);
        drop(sched);
        self.event.notify_all();
        Ok(JobId(id))
    }

    /// Status snapshot of a job (`None` for an unknown id).
    pub fn status(&self, id: JobId) -> Option<JobStatus> {
        let sched = relock(&self.sched);
        sched.jobs.get(&id.0).map(|j| j.status(id))
    }

    /// The recovery event log streamed so far (`None` for unknown id).
    pub fn recovery_log(&self, id: JobId) -> Option<Vec<String>> {
        let sched = relock(&self.sched);
        sched
            .jobs
            .get(&id.0)
            .map(|j| relock(&j.progress.recovery_log).clone())
    }

    /// Block until the job reaches a terminal state; returns the final
    /// status (`None` for an unknown id).
    pub fn wait(&self, id: JobId) -> Option<JobStatus> {
        let mut sched = relock(&self.sched);
        loop {
            let status = sched.jobs.get(&id.0)?.status(id);
            if status.state.is_terminal() {
                return Some(status);
            }
            sched = self.event.wait(sched).unwrap_or_else(|p| p.into_inner());
        }
    }

    /// Fetch a finished job's result: `Ok` with the report for `Done`,
    /// `Err` with the failure message otherwise. `None` while the job is
    /// still queued/running, or for an unknown id. A job restored as
    /// `Done` whose result had been evicted from the cache before the
    /// restart answers `Err` here — the completion survived, the report
    /// did not, and the caller can resubmit (which recomputes).
    #[allow(clippy::type_complexity)]
    pub fn result(&self, id: JobId) -> Option<Result<Arc<MultiRankReport>, String>> {
        let sched = relock(&self.sched);
        let job = sched.jobs.get(&id.0)?;
        match job.state {
            JobState::Done => Some(match &job.result {
                Some(r) => Ok(r.clone()),
                None => Err(format!(
                    "{} completed, but its result was evicted from the cache \
                     before the last restart; resubmit to recompute",
                    JobId(id.0)
                )),
            }),
            JobState::Failed | JobState::Cancelled => Some(Err(job
                .error
                .clone()
                .unwrap_or_else(|| job.state.name().into()))),
            JobState::Queued | JobState::Running => None,
        }
    }

    /// Cancel a job. Queued jobs cancel immediately; running jobs are
    /// asked to stop cooperatively at the next step boundary. Terminal
    /// jobs and unknown ids are an error.
    pub fn cancel(&self, id: JobId) -> Result<(), String> {
        let mut sched = relock(&self.sched);
        let Some(job) = sched.jobs.get_mut(&id.0) else {
            return Err(format!("unknown job id {}", id.0));
        };
        match job.state {
            JobState::Queued => {
                job.state = JobState::Cancelled;
                job.error = Some("cancelled before start".into());
                sched.queue.retain(|&q| q != id.0);
                Self::jappend(
                    &mut sched,
                    &Record::Cancelled {
                        id: id.0,
                        message: "cancelled before start".into(),
                    },
                );
                drop(sched);
                self.event.notify_all();
                Ok(())
            }
            JobState::Running => {
                job.progress.cancel.store(true, Ordering::SeqCst);
                Ok(())
            }
            s => Err(format!("{id} is already {s}")),
        }
    }

    /// Aggregate counters.
    pub fn stats(&self) -> ServerStats {
        let sched = relock(&self.sched);
        let mut done = 0;
        let mut failed = 0;
        let mut cancelled = 0;
        for j in sched.jobs.values() {
            match j.state {
                JobState::Done => done += 1,
                JobState::Failed => failed += 1,
                JobState::Cancelled => cancelled += 1,
                _ => {}
            }
        }
        let now = Instant::now();
        let mut oldest_queued_ms = 0u64;
        let mut tenants: BTreeMap<String, usize> = BTreeMap::new();
        for qid in &sched.queue {
            let Some(job) = sched.jobs.get(qid) else {
                continue;
            };
            oldest_queued_ms = oldest_queued_ms
                .max(now.saturating_duration_since(job.submitted_at).as_millis() as u64);
            *tenants.entry(job.spec.tenant.clone()).or_insert(0) += 1;
        }
        ServerStats {
            pool: self.pool.stats(),
            queued: sched.queue.len(),
            running: sched.running,
            done,
            failed,
            cancelled,
            cache_hits: sched.cache.hits(),
            cache_misses: sched.cache.misses(),
            cache_entries: sched.cache.len(),
            cache_evictions: sched.cache.evictions(),
            total_steps: self.total_steps.load(Ordering::SeqCst),
            oldest_queued_ms,
            tenants_queued: tenants.into_iter().collect(),
            shed_total: sched.shed_total,
            deadline_exceeded: sched.deadline_exceeded,
            worker_panics: sched.worker_panics,
        }
    }

    /// Steps executed server-wide since boot (the cache-hit invariant:
    /// a resubmission leaves this unchanged).
    pub fn total_steps(&self) -> u64 {
        self.total_steps.load(Ordering::SeqCst)
    }

    /// Graceful wind-down: close intake (submissions answer
    /// [`SubmitError::ShuttingDown`]), let every queued and running job
    /// finish and journal its terminal state, then shut down. Blocks
    /// until the queue is empty and nothing is running; call
    /// [`Server::join`] afterwards. The complement of the crash path:
    /// drain loses nothing *without* needing recovery.
    pub fn drain(&self) {
        let mut sched = relock(&self.sched);
        sched.draining = true;
        drop(sched);
        self.event.notify_all();
        let mut sched = relock(&self.sched);
        while !(sched.queue.is_empty() && sched.running == 0) {
            sched = self.event.wait(sched).unwrap_or_else(|p| p.into_inner());
        }
        drop(sched);
        self.shutdown();
    }

    /// Begin shutdown: reject new submissions, cancel every queued job,
    /// ask running jobs to stop cooperatively, and wake everyone.
    pub fn shutdown(&self) {
        let mut sched = relock(&self.sched);
        sched.shutting_down = true;
        let queued: Vec<u64> = sched.queue.drain(..).collect();
        for id in queued {
            if let Some(job) = sched.jobs.get_mut(&id) {
                job.state = JobState::Cancelled;
                job.error = Some("server shutdown".into());
            }
            Self::jappend(
                &mut sched,
                &Record::Cancelled {
                    id,
                    message: "server shutdown".into(),
                },
            );
        }
        for job in sched.jobs.values() {
            if job.state == JobState::Running {
                job.progress.cancel.store(true, Ordering::SeqCst);
            }
        }
        drop(sched);
        self.pool.close();
        self.event.notify_all();
    }

    /// Wait for every worker to exit (call after [`Server::shutdown`]).
    pub fn join(&self) {
        let handles: Vec<_> = relock(&self.workers).drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }

    // -- scheduling internals ------------------------------------------------

    /// Pick the best runnable queued job: among jobs whose rank count
    /// fits the currently free devices, the highest priority wins and
    /// submission order breaks ties. Returns its queue position.
    fn pick(&self, sched: &Sched) -> Option<usize> {
        let free = self.pool.n_free();
        let mut best: Option<(usize, i32, u64)> = None;
        for (pos, &id) in sched.queue.iter().enumerate() {
            let job = &sched.jobs[&id];
            if job.spec.n_ranks > free {
                continue;
            }
            let cand = (pos, job.spec.priority, id);
            best = match best {
                // Higher priority first; earlier submission (smaller id)
                // breaks ties.
                Some((_, p, i)) if (cand.1, std::cmp::Reverse(cand.2)) <= (p, std::cmp::Reverse(i)) => best,
                _ => Some(cand),
            };
        }
        best.map(|(pos, _, _)| pos)
    }

    /// Fail every queued job whose deadline has already passed — it will
    /// never run, so it should not hold a queue slot or ever lease a
    /// device. Called from the worker claim loop under the lock.
    fn expire_queued(&self, sched: &mut Sched, now: Instant) {
        let expired: Vec<u64> = sched
            .queue
            .iter()
            .copied()
            .filter(|qid| sched.jobs[qid].deadline().is_some_and(|d| now >= d))
            .collect();
        for id in expired {
            sched.queue.retain(|&q| q != id);
            sched.deadline_exceeded += 1;
            let message = {
                let job = sched.jobs.get_mut(&id).expect("queued job exists");
                job.state = JobState::Failed;
                let m = format!(
                    "deadline exceeded ({}ms) before the job could start",
                    job.spec.deck.serve.deadline_ms
                );
                job.error = Some(m.clone());
                m
            };
            Self::jappend(&mut *sched, &Record::Failed { id, message });
            self.event.notify_all();
        }
    }

    fn worker_loop(self: Arc<Self>) {
        loop {
            // Claim a job and its devices atomically under the scheduler
            // lock: the feasibility check and the lease cannot race
            // another worker.
            let (id, spec, progress, deadline, lease) = {
                let mut sched = relock(&self.sched);
                let (id, lease) = loop {
                    if sched.shutting_down {
                        return;
                    }
                    self.expire_queued(&mut sched, Instant::now());
                    if let Some(pos) = self.pick(&sched) {
                        let id = sched.queue[pos];
                        let key = sched.jobs[&id].key.clone();
                        // Claim-time cache collapse: a queued job whose
                        // result already exists (typically a recovered
                        // duplicate of a job that completed in a prior
                        // epoch) finishes here — zero steps, zero
                        // leases. `claim_hit` counts the hit but never a
                        // miss, so ordinary runs don't distort counters.
                        if let Some(report) = sched.cache.claim_hit(&key) {
                            sched.queue.remove(pos);
                            let n_steps = {
                                let job =
                                    sched.jobs.get_mut(&id).expect("picked job exists");
                                job.state = JobState::Done;
                                job.cached = true;
                                job.result = Some(report);
                                job.spec.deck.time.n_steps
                            };
                            sched.jobs[&id]
                                .progress
                                .steps_done
                                .store(n_steps, Ordering::SeqCst);
                            Self::jappend(&mut sched, &Record::Done { id, cached: true });
                            self.event.notify_all();
                            continue;
                        }
                        let n = sched.jobs[&id].spec.n_ranks;
                        match self.pool.try_lease(n) {
                            Ok(Some(lease)) => {
                                sched.queue.remove(pos);
                                break (id, lease);
                            }
                            // Raced or closed: leave it queued and
                            // retry. With leases granted only under this
                            // lock the None arm is unreachable, but
                            // waiting is the safe answer if that ever
                            // changes.
                            Ok(None) => {}
                            Err(_) => return, // pool closed: shutdown
                        }
                    }
                    // Sleep — with a timeout while any queued job has a
                    // deadline, so expiry fires even on an idle server.
                    let deadline_pending = sched
                        .queue
                        .iter()
                        .any(|qid| sched.jobs[qid].deadline().is_some());
                    sched = if deadline_pending {
                        self.event
                            .wait_timeout(sched, Duration::from_millis(20))
                            .unwrap_or_else(|p| p.into_inner())
                            .0
                    } else {
                        self.event.wait(sched).unwrap_or_else(|p| p.into_inner())
                    };
                };
                sched.running += 1;
                let (spec, progress, deadline) = {
                    let job = sched.jobs.get_mut(&id).expect("picked job exists");
                    job.state = JobState::Running;
                    (job.spec.clone(), job.progress.clone(), job.deadline())
                };
                Self::jappend(&mut sched, &Record::Started { id });
                (id, spec, progress, deadline, lease)
            };
            self.event.notify_all(); // status waiters see Running

            // The job body runs under `catch_unwind`: a panicking deck
            // fails *this job*, never a dead worker thread and a poisoned
            // scheduler. The job runs once; its outcome is final.
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                self.execute(&spec, &progress, deadline)
            }));

            if let Err(e) = self.pool.release(lease) {
                // A ledger bug must surface in stats/logs, not corrupt
                // the pool silently.
                eprintln!("mas-serve: lease release failed for {}: {e}", JobId(id));
            }

            let cancelled = progress.cancel.load(Ordering::SeqCst);
            let deadline_hit = progress.deadline_hit.load(Ordering::SeqCst);

            let mut sched = relock(&self.sched);
            sched.running -= 1;
            let outcome = outcome.unwrap_or_else(|payload| {
                sched.worker_panics += 1;
                Err(panic_message(payload))
            });
            match outcome {
                Ok(report) => {
                    let report = Arc::new(report);
                    let key = {
                        let job = sched.jobs.get_mut(&id).expect("running job exists");
                        job.state = JobState::Done;
                        job.result = Some(report.clone());
                        job.key.clone()
                    };
                    // Write order matters: the result must be durable
                    // before the Done that references it, so a replay
                    // never sees a completed job with no result through
                    // any crash point.
                    Self::jappend(&mut sched, &Record::cache_insert(&key, &report));
                    let evicted = sched.cache.insert(key, report);
                    for k in &evicted {
                        Self::jappend(&mut sched, &Record::evicted(k));
                    }
                    Self::jappend(&mut sched, &Record::Done { id, cached: false });
                }
                Err(message) => {
                    let (state, message) = if deadline_hit && !cancelled {
                        sched.deadline_exceeded += 1;
                        let ms = spec.deck.serve.deadline_ms;
                        (JobState::Failed, format!("deadline exceeded after {ms}ms"))
                    } else if cancelled {
                        (JobState::Cancelled, message)
                    } else {
                        (JobState::Failed, message)
                    };
                    let job = sched.jobs.get_mut(&id).expect("running job exists");
                    job.state = state;
                    job.error = Some(message.clone());
                    let rec = if state == JobState::Cancelled {
                        Record::Cancelled { id, message }
                    } else {
                        Record::Failed { id, message }
                    };
                    Self::jappend(&mut sched, &rec);
                }
            }
            self.maybe_compact(&mut sched);
            drop(sched);
            self.event.notify_all();
        }
    }

    /// Run one job under the supervisor, streaming progress into its
    /// live counters. Inherits checkpointing, rollback and rank-respawn
    /// recovery wholesale — this is just the observation plumbing. The
    /// deadline rides the same cooperative channel as cancellation: the
    /// sink answers `false` at the first step boundary past it.
    fn execute(
        &self,
        spec: &JobSpec,
        progress: &Arc<JobProgress>,
        deadline: Option<Instant>,
    ) -> Result<MultiRankReport, String> {
        // Deliberate failpoint: a deck whose problem is named
        // `chaos-panic` panics the worker body on purpose. Physics runs
        // in rank threads whose panics the supervisor already turns into
        // a `RunError`, so no real deck reaches the worker's
        // `catch_unwind`; this is the deterministic way to drive that
        // containment end-to-end (over the wire, through journal replay,
        // in the chaos soak).
        if spec.deck.problem == "chaos-panic" {
            panic!("injected worker panic (problem = 'chaos-panic')");
        }
        let sink = {
            let progress = progress.clone();
            // The sink must be 'static (it crosses into rank threads),
            // so it holds the counter by Arc, not by borrowing `self`.
            let steps = self.total_steps.clone();
            progress_fn(move |e: &ProgressEvent| {
                match e {
                    ProgressEvent::Step { step, .. } => {
                        progress.steps_done.fetch_max(*step, Ordering::SeqCst);
                        steps.fetch_add(1, Ordering::SeqCst);
                    }
                    ProgressEvent::Rollback { rank, to_step } => {
                        progress.recovery_count.fetch_add(1, Ordering::SeqCst);
                        progress.log(format!("rank {rank}: rollback to step {to_step}"));
                    }
                    ProgressEvent::Restored { rank, step } => {
                        progress.recovery_count.fetch_add(1, Ordering::SeqCst);
                        progress.log(format!("rank {rank}: restored at step {step}"));
                    }
                    ProgressEvent::CheckpointCommitted { .. } => {}
                }
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    progress.deadline_hit.store(true, Ordering::SeqCst);
                    return false;
                }
                !progress.cancel.load(Ordering::SeqCst)
            })
        };
        mas_mhd::run_supervised_with_progress(
            &spec.deck,
            spec.version,
            self.pool.spec().clone(),
            spec.n_ranks,
            spec.seed,
            false,
            Some(sink),
        )
        .map_err(|e| e.to_string())
    }
}
