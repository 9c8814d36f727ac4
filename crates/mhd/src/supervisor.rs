//! The fault-tolerant run supervisor: crash-safe checkpointing, fault
//! injection, health monitoring, and automatic rollback + dt-backoff
//! recovery.
//!
//! Production MAS runs live for days across many job allocations; nodes
//! die, file systems hiccup, and a bad time step can blow a run up hours
//! after launch. This module reproduces that operational layer on the
//! virtual platform:
//!
//! * **checkpointing** — at the deck's `checkpoint.interval` every rank
//!   writes its state into a two-slot latest/previous rotation
//!   ([`crate::checkpoint::Rotation`]); writes are crash-safe (temp +
//!   fsync + atomic rename) and committed only when **all** ranks
//!   succeeded (collective agreement), so a rollback point is always
//!   globally consistent;
//! * **fault injection** — a [`FaultPlan`] (deck `&fault` section or
//!   programmatic) arms exactly one fault: NaN-poisoned kernel output, a
//!   corrupted or dropped halo message, a failed checkpoint write, or a
//!   rank panic. The hooks are compiled in but cost one branch per step
//!   when disarmed;
//! * **health monitoring** — after every step the ranks agree (allreduce
//!   Max of a bad-state flag) on whether any state is non-finite or the
//!   time step collapsed; detection triggers a synchronized rollback to
//!   the last valid checkpoint and halves the time step
//!   ([`crate::sim::Simulation::dt_scale`]) under a bounded
//!   `checkpoint.max_recoveries` budget;
//! * **reporting** — every decision lands in a [`RecoveryLog`] carried by
//!   the run report; unrecoverable faults surface as a structured
//!   [`RunError`] with one [`RankFailure`] per lost rank instead of a
//!   poisoned-mutex panic cascade.
//!
//! Every run steps through this module's one loop, supervised when the
//! deck checkpoints, restarts, sets a respawn budget or arms a fault
//! (and never for [`Simulation::run`]). Physics is never perturbed: a
//! supervised zero-fault run produces the same `state_hash` as an
//! unsupervised one (the health flag rides a separate allreduce).

use crate::checkpoint::{self, Rotation};
use crate::progress::{ProgressEvent, ProgressFn};
use crate::run::{report_from, MultiRankReport};
use crate::sim::Simulation;
use crate::step;
use gpusim::DeviceSpec;
use mas_config::{Deck, FaultKind};
use mas_field::Array3;
use mas_grid::NGHOST;
use minimpi::{scaled_ms, Comm, CommFailure, NetFault, ReduceOp, World};
use std::fmt;
use std::io;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;
use stdpar::CodeVersion;

/// The supervised receive deadline: the deck's
/// `resilience.recv_deadline_ms` key, else 30 s. A dead or returned peer
/// ends a wait at once (the world records every rank's exit), so this
/// guards only a lost message and a hung rank.
fn recv_deadline(deck: &Deck) -> Duration {
    match deck.resilience.recv_deadline_ms {
        0 => Duration::from_secs(30),
        ms => Duration::from_millis(ms),
    }
}

/// How long a recovery fence may wait for all participants: a survivor
/// can be a receive deadline away from noticing a lost message, and the
/// replacement the world spawned for a panicked rank must build its
/// simulation and reach the fence. A returned rank or a death with no
/// replacement coming fails the fence at once.
fn fence_timeout(recv_deadline: Duration) -> Duration {
    recv_deadline * 4 + scaled_ms(5_000)
}

// ---------------------------------------------------------------------------
// Fault plan.
// ---------------------------------------------------------------------------

/// One armed fault: what breaks, when, and where. It fires once per
/// run; a halo fault hits the rank's next point-to-point send. Built
/// from the deck's `&fault` section ([`FaultPlan::from_deck`]) or
/// programmatically by tests.
#[derive(Clone, Copy, Debug)]
pub struct FaultPlan {
    /// What to break.
    pub kind: FaultKind,
    /// 1-based step during whose advance the fault fires.
    pub step: usize,
    /// The misbehaving rank.
    pub rank: usize,
    /// For [`FaultKind::CkptFail`]: the injected I/O error kind.
    pub io_error: io::ErrorKind,
}

impl FaultPlan {
    /// Build from the deck's `&fault` section; `None` when disarmed
    /// (kind `none` or step 0) — the inert default.
    pub fn from_deck(deck: &Deck) -> Option<Self> {
        if !deck.fault_armed() {
            return None;
        }
        Some(Self {
            kind: deck.fault.kind,
            step: deck.fault.step,
            rank: deck.fault.rank,
            io_error: parse_error_kind(&deck.fault.io_error),
        })
    }
}

/// Deck-text name → `io::ErrorKind` (unknown names map to `Other`).
fn parse_error_kind(name: &str) -> io::ErrorKind {
    match name.to_ascii_lowercase().as_str() {
        "not_found" => io::ErrorKind::NotFound,
        "permission_denied" => io::ErrorKind::PermissionDenied,
        "write_zero" => io::ErrorKind::WriteZero,
        "interrupted" => io::ErrorKind::Interrupted,
        "unexpected_eof" => io::ErrorKind::UnexpectedEof,
        _ => io::ErrorKind::Other,
    }
}

// ---------------------------------------------------------------------------
// Recovery log + structured errors.
// ---------------------------------------------------------------------------

/// What the supervisor did during a run; part of the run report.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RecoveryLog {
    /// Whether the supervised loop (health checks + rollback machinery)
    /// was active at all.
    pub supervised: bool,
    /// Faults this rank injected.
    pub faults_injected: usize,
    /// Health-check failures observed (collective — every rank counts
    /// the same detections).
    pub detections: usize,
    /// Rollbacks to the last valid checkpoint.
    pub rollbacks: usize,
    /// Time-step halvings applied after rollbacks.
    pub dt_reductions: usize,
    /// Checkpoints this rank wrote successfully.
    pub checkpoints_written: usize,
    /// Checkpoints that passed post-write CRC validation.
    pub checkpoints_validated: usize,
    /// Checkpoint writes that failed (locally or on any rank — a failed
    /// collective commit keeps the previous rollback point).
    pub checkpoint_failures: usize,
    /// Rank respawns the world performed (world total).
    pub respawns: usize,
    /// Stale-epoch envelopes rejected or drained after respawn fences
    /// (world total).
    pub stale_rejected: usize,
    /// Where the state was restored from at startup, if restarting.
    pub restored_from: Option<String>,
}

impl RecoveryLog {
    /// One-line human summary (the `mas` binary prints this). Counters
    /// appear only when they fired: a clean supervised run reads
    /// "supervised: clean run", not a row of "0 fault(s) injected" noise.
    pub fn summary(&self) -> String {
        if !self.supervised {
            return "unsupervised".into();
        }
        let mut parts: Vec<String> = Vec::new();
        if self.checkpoints_written > 0 || self.checkpoint_failures > 0 {
            let mut s = format!(
                "{} checkpoint(s) written ({} validated",
                self.checkpoints_written, self.checkpoints_validated
            );
            if self.checkpoint_failures > 0 {
                s.push_str(&format!(", {} failed", self.checkpoint_failures));
            }
            s.push(')');
            parts.push(s);
        }
        if self.faults_injected > 0 {
            parts.push(format!("{} fault(s) injected", self.faults_injected));
        }
        if self.detections > 0 {
            parts.push(format!("{} detection(s)", self.detections));
        }
        if self.rollbacks > 0 {
            parts.push(format!("{} rollback(s)", self.rollbacks));
        }
        if self.dt_reductions > 0 {
            parts.push(format!("{} dt halving(s)", self.dt_reductions));
        }
        if self.respawns > 0 {
            parts.push(format!("{} respawn(s)", self.respawns));
        }
        if self.stale_rejected > 0 {
            parts.push(format!("{} stale envelope(s) rejected", self.stale_rejected));
        }
        let mut s = if parts.is_empty() {
            "supervised: clean run".to_string()
        } else {
            format!("supervised: {}", parts.join(", "))
        };
        if let Some(from) = &self.restored_from {
            s.push_str(&format!("; restored from {from}"));
        }
        s
    }
}

/// One rank's failure: the worker hit a bug or an unrecoverable error
/// (an injected panic, a lost peer, an exhausted recovery budget, a
/// failed restart).
#[derive(Clone, Debug)]
pub struct RankFailure {
    /// The failed rank.
    pub rank: usize,
    /// What killed it.
    pub message: String,
}

/// A run that could not complete: the structured error carrying every
/// rank failure (a rank death fails its peers' next wait; all of them
/// are recorded here rather than cascading an opaque poisoned-mutex
/// panic).
#[derive(Clone, Debug)]
pub struct RunError {
    /// The cause first: the failure of the rank whose death the world
    /// recorded first ([`minimpi::ResilientReport::first_death`]), if a
    /// rank died; then the rest in rank order.
    pub failures: Vec<RankFailure>,
    /// True when the world's respawn budget ran out: a rank
    /// died and could no longer be replaced. The `mas` binary maps this
    /// to its own exit code (4) so job scripts can tell "raise
    /// `max_respawns`" from "fix the physics".
    pub respawns_exhausted: bool,
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} rank(s) failed:", self.failures.len())?;
        for RankFailure { rank, message } in &self.failures {
            write!(f, "\n  rank {rank}: {message}")?;
        }
        Ok(())
    }
}

impl std::error::Error for RunError {}

// ---------------------------------------------------------------------------
// In-memory rollback snapshot.
// ---------------------------------------------------------------------------

/// A bitwise copy of the primary state plus the clock — the in-memory
/// mirror of the last valid checkpoint (and the step-0 fallback when
/// disk checkpointing is disabled). Restoring replays the model costs of
/// a device upload, like a checkpoint load.
struct Snapshot {
    step: usize,
    time: f64,
    fields: [Array3; 8],
}

fn state_arrays(sim: &Simulation) -> [&Array3; 8] {
    let st = &sim.state;
    [
        &st.rho.data, &st.temp.data,
        &st.v.r.data, &st.v.t.data, &st.v.p.data,
        &st.b.r.data, &st.b.t.data, &st.b.p.data,
    ]
}

impl Snapshot {
    /// A snapshot of the current state, in buffers of its own.
    fn new(sim: &mut Simulation) -> Self {
        let fields = state_arrays(sim).map(Array3::clone);
        let mut snapshot = Snapshot { step: 0, time: 0.0, fields };
        snapshot.capture(sim);
        snapshot
    }

    /// Copy the current state into this snapshot's buffers (a host-side
    /// copy: `update host` model accounting, like a checkpoint save).
    fn capture(&mut self, sim: &mut Simulation) {
        let bufs = sim.state.state_buf_ids();
        let site = sim.par.site_id("supervisor_snapshot");
        for &b in &bufs {
            sim.par.update_host(site, b);
            sim.par.host_access(b, false);
        }
        for (dst, src) in self.fields.iter_mut().zip(state_arrays(sim)) {
            dst.copy_from(src);
        }
        self.step = sim.step;
        self.time = sim.time;
    }

    /// Roll the simulation back to this snapshot (an `update device`
    /// upload in the model, like a checkpoint load).
    fn restore(&self, sim: &mut Simulation) {
        {
            let st = &mut sim.state;
            let dsts: [&mut Array3; 8] = [
                &mut st.rho.data, &mut st.temp.data,
                &mut st.v.r.data, &mut st.v.t.data, &mut st.v.p.data,
                &mut st.b.r.data, &mut st.b.t.data, &mut st.b.p.data,
            ];
            for (dst, src) in dsts.into_iter().zip(&self.fields) {
                dst.as_mut_slice().copy_from_slice(src.as_slice());
            }
        }
        let bufs = sim.state.state_buf_ids();
        let site = sim.par.site_id("supervisor_rollback");
        for &b in &bufs {
            // The failed step left these buffers device-only; bring them
            // to `synced` before the host-side overwrite — the model
            // (correctly) treats any host touch of device-only data as a
            // missing `update host`. A real recovery pays the same D2H it
            // models here.
            sim.par.update_host(site, b);
            sim.par.host_access(b, true);
            sim.par.update_device(site, b);
        }
        sim.step = self.step;
        sim.time = self.time;
    }
}

// ---------------------------------------------------------------------------
// Restart.
// ---------------------------------------------------------------------------

/// Restore `sim` from `from`: either a single dump file or a directory of
/// rotation slots. In the directory case the ranks **agree** (allreduce
/// Min) on the newest step every rank has a valid slot for, so a rank
/// whose latest write was torn pulls everyone back to the last globally
/// consistent checkpoint.
fn restore_for_restart(
    sim: &mut Simulation,
    comm: &Comm,
    from: &str,
) -> Result<(PathBuf, u64), String> {
    let p = Path::new(from);
    if p.is_file() {
        let h = checkpoint::load(sim, p)
            .map_err(|e| format!("restart from '{from}' failed: {e}"))?;
        return Ok((p.to_path_buf(), h.step));
    }
    match try_restore_committed(sim, comm, from)? {
        Some(ok) => Ok(ok),
        None => Err(format!(
            "restart from '{from}': no valid checkpoint slot common to all ranks"
        )),
    }
}

/// Collectively restore the newest committed rotation slot under `dir`,
/// if every rank has one: the ranks agree (allreduce Min) on the newest
/// step common to all, so a torn local slot pulls everyone back to the
/// last globally consistent checkpoint. `Ok(None)` when no common slot
/// exists — the caller decides whether that is an error (explicit
/// restart) or a step-0 replay (post-death recovery before the first
/// checkpoint).
fn try_restore_committed(
    sim: &mut Simulation,
    comm: &Comm,
    dir: &str,
) -> Result<Option<(PathBuf, u64)>, String> {
    let p = Path::new(dir);
    let best = checkpoint::latest_valid_slot(p, comm.rank());
    let local = best.as_ref().map_or(-1.0, |(_, h)| h.step as f64);
    let mut v = [local];
    comm.allreduce(ReduceOp::Min, &mut v, &mut sim.par.ctx);
    if v[0] < 0.0 {
        return Ok(None);
    }
    let want = v[0] as u64;
    for slot in 0..2 {
        let path = checkpoint::slot_path(p, comm.rank(), slot);
        if mas_io::validate_dump(&path).map(|h| h.step).ok() == Some(want) {
            let h = checkpoint::load(sim, &path)
                .map_err(|e| format!("restart from '{}' failed: {e}", path.display()))?;
            return Ok(Some((path, h.step)));
        }
    }
    Err(format!(
        "restart from '{dir}': rank {} holds no valid slot at the agreed step {want}",
        comm.rank()
    ))
}

// ---------------------------------------------------------------------------
// The supervised loop.
// ---------------------------------------------------------------------------

/// Poison one interior temperature cell with NaN — the model of a
/// corrupted kernel output escaping onto the device.
fn poison_state(sim: &mut Simulation) {
    sim.state
        .temp
        .data
        .set(NGHOST + 1, NGHOST + 1, NGHOST + 1, f64::NAN);
}

/// Feed one event to the progress sink; `false` means a cooperative
/// cancel was requested (every rank shares the sink, so all of them see
/// the request at the same step boundary).
fn emit(progress: Option<&ProgressFn>, ev: ProgressEvent) -> bool {
    progress.is_none_or(|p| p(&ev))
}

/// The step loop: every run's, supervised or not. Returns `Err` with a
/// structured message when the run cannot finish (a non-finite state, an
/// exhausted recovery budget, or a cancel from the progress sink).
///
/// `log.supervised` is the policy. Off, the loop books the steps and
/// their history and nothing else: no receive deadline, no rollback
/// snapshot, no health allreduce and no checkpoint, and a non-finite
/// state on this rank ends the run. On, the ranks agree on their health
/// after every step, roll back and halve the time step when any rank is
/// bad, and checkpoint at the deck's cadence.
pub(crate) fn supervise(
    sim: &mut Simulation,
    comm: &Comm,
    plan: Option<&FaultPlan>,
    log: &mut RecoveryLog,
    fired: &AtomicBool,
    progress: Option<&ProgressFn>,
) -> Result<(), String> {
    sim.begin_compute(comm);
    let ckpt_int = sim.deck.checkpoint.interval;
    let max_recoveries = sim.deck.checkpoint.max_recoveries;
    let n_steps = sim.deck.time.n_steps;

    // Supervised only: the checkpoint rotation, and the rollback point,
    // which starts as the loop-entry state (step 0, or the restart point)
    // and advances with every committed checkpoint.
    let mut guard = None;
    if log.supervised {
        comm.set_recv_deadline(Some(recv_deadline(&sim.deck)));
        let rot = Rotation::new(Path::new(&sim.deck.checkpoint.dir), comm.rank());
        guard = Some((rot, Snapshot::new(sim)));
    }
    let mut recoveries = 0usize;

    while sim.step < n_steps {
        let stepping = sim.step + 1; // 1-based step being computed

        // --- pre-advance fault arming -----------------------------------
        if let Some(f) = plan {
            if !fired.load(Ordering::SeqCst) && stepping == f.step && comm.rank() == f.rank {
                match f.kind {
                    FaultKind::HaloCorrupt => {
                        comm.arm_net_fault(NetFault::Corrupt);
                        fired.store(true, Ordering::SeqCst);
                        log.faults_injected += 1;
                    }
                    FaultKind::HaloDrop => {
                        comm.arm_net_fault(NetFault::Drop);
                        fired.store(true, Ordering::SeqCst);
                        log.faults_injected += 1;
                    }
                    FaultKind::Panic => {
                        // Mark fired *before* dying so a respawned
                        // incarnation replays this step cleanly.
                        fired.store(true, Ordering::SeqCst);
                        panic!(
                            "injected fault: rank {} lost at step {}",
                            comm.rank(),
                            stepping
                        );
                    }
                    _ => {}
                }
            }
        }

        let info = step::advance(sim, comm);

        // --- post-advance NaN poisoning ----------------------------------
        if let Some(f) = plan {
            if !fired.load(Ordering::SeqCst)
                && f.kind == FaultKind::Nan
                && stepping == f.step
                && comm.rank() == f.rank
            {
                poison_state(sim);
                fired.store(true, Ordering::SeqCst);
                log.faults_injected += 1;
            }
        }

        // --- health check -------------------------------------------------
        let non_finite = sim.state.find_non_finite();
        if let Some((_, snapshot)) = &mut guard {
            let bad_local = non_finite.is_some() || !info.dt.is_finite() || info.dt <= 0.0;
            let mut flag = [if bad_local { 1.0 } else { 0.0 }];
            comm.allreduce(ReduceOp::Max, &mut flag, &mut sim.par.ctx);
            if flag[0] > 0.0 {
                log.detections += 1;
                if recoveries >= max_recoveries {
                    return Err(format!(
                        "unrecoverable: health check failed at step {} with the recovery \
                         budget exhausted ({recoveries} of {max_recoveries} attempts used)",
                        sim.step
                    ));
                }
                recoveries += 1;
                // Synchronized rollback: every rank restores the same
                // (collectively committed) snapshot, so the retry is
                // globally consistent; then back off the time step.
                snapshot.restore(sim);
                let restored_step = sim.step;
                sim.hist.retain(|h| h.step <= restored_step);
                log.rollbacks += 1;
                sim.dt_scale *= 0.5;
                log.dt_reductions += 1;
                if !emit(
                    progress,
                    ProgressEvent::Rollback { rank: comm.rank(), to_step: restored_step },
                ) {
                    return Err(format!("run cancelled during recovery at step {restored_step}"));
                }
                continue;
            }
        } else if let Some(bad) = non_finite {
            // Unsupervised: nothing to roll back to, so the run ends.
            return Err(format!(
                "non-finite values in field '{bad}' at step {} (version {:?})",
                sim.step,
                sim.par.version()
            ));
        }

        sim.record_hist(comm, &info);
        if !emit(
            progress,
            ProgressEvent::Step { rank: comm.rank(), step: sim.step, n_steps },
        ) {
            return Err(format!("run cancelled at step {} of {n_steps}", sim.step));
        }

        // --- crash-safe checkpoint at the deck cadence --------------------
        let Some((rot, snapshot)) = &mut guard else { continue };
        if ckpt_int > 0 && sim.step.is_multiple_of(ckpt_int) {
            let mut ck_fault = None;
            if let Some(f) = plan {
                if f.kind == FaultKind::CkptFail
                    && !fired.load(Ordering::SeqCst)
                    && stepping >= f.step
                    && comm.rank() == f.rank
                {
                    ck_fault = Some(f.io_error);
                    fired.store(true, Ordering::SeqCst);
                    log.faults_injected += 1;
                }
            }
            let res = rot.save(sim, ck_fault);
            // A checkpoint is a rollback point only if EVERY rank wrote
            // and validated it — agree collectively before committing.
            let ok_local = match &res {
                Ok(path) => {
                    log.checkpoints_written += 1;
                    match mas_io::validate_dump(path) {
                        Ok(_) => {
                            log.checkpoints_validated += 1;
                            1.0
                        }
                        Err(_) => 0.0,
                    }
                }
                Err(_) => 0.0,
            };
            let mut v = [ok_local];
            comm.allreduce(ReduceOp::Min, &mut v, &mut sim.par.ctx);
            if v[0] > 0.5 {
                snapshot.capture(sim);
                // Observation only — a commit is not a cancellation
                // point, so ignore the sink's verdict here; the next
                // step boundary honors it.
                let _ = emit(
                    progress,
                    ProgressEvent::CheckpointCommitted { rank: comm.rank(), step: sim.step },
                );
            } else {
                // Keep the previous rollback point; the run continues.
                log.checkpoint_failures += 1;
            }
        }
    }

    Ok(())
}

// ---------------------------------------------------------------------------
// Entry point.
// ---------------------------------------------------------------------------

/// Run the deck under the fault-tolerant supervisor. When the deck asks
/// for no checkpointing, no restart and no respawns, and arms no fault,
/// the step loop runs unsupervised (no health allreduce, no snapshot, no
/// checkpoint); otherwise it adds per-step health checks, periodic
/// crash-safe checkpoints, and rollback + dt-backoff recovery.
///
/// Unrecoverable runs (injected rank panic, lost halo message, exhausted
/// recovery budget) return a structured [`RunError`] listing every lost
/// rank instead of panicking the caller.
pub fn run_supervised(
    deck: &Deck,
    version: CodeVersion,
    spec: DeviceSpec,
    n_ranks: usize,
    seed: u64,
    record_spans: bool,
) -> Result<MultiRankReport, RunError> {
    run_supervised_with_progress(deck, version, spec, n_ranks, seed, record_spans, None)
}

/// [`run_supervised`] with an optional progress sink: every rank streams
/// [`ProgressEvent`]s (step counters, rollbacks, checkpoint commits,
/// restores) to the sink as they happen, and the sink may return `false`
/// to cancel the run cooperatively at the next step boundary — the
/// cancellation surfaces as a structured [`RunError`], never a panic.
/// The sink is observation-only: physics and model timings are
/// bit-identical with or without one.
///
/// Every run is one [`World::run_resilient`] with the deck's
/// `resilience.max_respawns` budget: a rank whose worker panics is
/// respawned while the budget lasts, survivors quiesce at a collective
/// epoch fence, and every rank then rolls back to the last committed
/// checkpoint and resumes — bit-exact with an undisturbed run. With a
/// budget of 0 a death is terminal and fails its peers' next wait.
pub fn run_supervised_with_progress(
    deck: &Deck,
    version: CodeVersion,
    spec: DeviceSpec,
    n_ranks: usize,
    seed: u64,
    record_spans: bool,
    progress: Option<ProgressFn>,
) -> Result<MultiRankReport, RunError> {
    let plan = FaultPlan::from_deck(deck);
    // Shared across ranks (only `plan.rank` arms anything): a fault fires
    // once per run, not once per rank or incarnation.
    let fired = AtomicBool::new(false);
    let max_fences = deck.resilience.max_respawns;
    let deadline = recv_deadline(deck);

    let report = World::run_resilient(n_ranks, max_fences, |comm: Comm| {
        // A replacement incarnation first joins the survivors at the
        // recovery fence that supersedes its dead predecessor.
        if comm.incarnation() > 0 {
            comm.epoch_fence(fence_timeout(deadline))
                .map_err(|e| format!("respawned, but the recovery fence failed: {e}"))?;
        }
        // One log per incarnation: a survivor that re-enters the body
        // after a fence keeps what it did before, and a replacement
        // starts fresh.
        let mut log = RecoveryLog::default();
        let mut fences = 0usize;
        loop {
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                run_segment(
                    deck,
                    version,
                    spec.clone(),
                    &comm,
                    n_ranks,
                    seed,
                    record_spans,
                    plan.as_ref(),
                    &fired,
                    progress.as_ref(),
                    &mut log,
                )
            }));
            let payload = match attempt {
                Ok(done) => return done,
                Err(payload) => payload,
            };
            // Our own crash (injected panic, genuine bug), or a comm
            // failure with no fence left to meet at: die for real — the
            // monitor respawns us while its budget lasts.
            fences += 1;
            if !payload.is::<CommFailure>() || fences > max_fences {
                resume_unwind(payload);
            }
            // A peer died (or a message was lost) under us: quiesce at
            // the fence with the other survivors and the replacement, then
            // rebuild from the last committed checkpoint. A fence that can
            // never form (a peer returned) fails at once.
            if let Err(e) = comm.epoch_fence(fence_timeout(deadline)) {
                return Err(format!("recovery fence failed: {e}"));
            }
        }
    });

    let respawns = report.respawns.len();
    let stale = report.stale_rejected as usize;
    let mut ranks = Vec::with_capacity(n_ranks);
    let mut failures = Vec::new();
    let mut respawns_exhausted = false;
    for (rank, res) in report.results.into_iter().enumerate() {
        match res {
            Ok(Ok(mut r)) => {
                r.recovery.respawns = respawns;
                r.recovery.stale_rejected = stale;
                ranks.push(r);
            }
            Ok(Err(message)) => failures.push(RankFailure { rank, message }),
            Err(p) => {
                // A death the world did not respawn: with a budget, the
                // budget ran out.
                respawns_exhausted = max_fences > 0;
                failures.push(RankFailure {
                    rank: p.rank,
                    message: p.message,
                });
            }
        }
    }
    // The first death is the cause; the later ones may be its peers
    // failing on it. Move it to the front, keeping the rest in rank order.
    let cause = report.first_death.and_then(|r| failures.iter().position(|f| f.rank == r));
    if let Some(pos) = cause {
        failures[..=pos].rotate_right(1);
    }
    if failures.is_empty() {
        Ok(MultiRankReport { ranks })
    } else {
        Err(RunError {
            failures,
            respawns_exhausted,
        })
    }
}

/// The rank body: one attempt at running the whole deck to completion on
/// one rank. Builds the simulation, restores the collectively agreed
/// state (the last committed checkpoint after a death, or the user's
/// restart point), and runs the step loop, supervised unless the deck
/// sets no respawn budget, no checkpointing, no restart and no fault.
/// Called once per incarnation *and* re-entered by survivors after every
/// recovery fence; `log` is the incarnation's, so each entry adds to it.
#[allow(clippy::too_many_arguments)]
fn run_segment(
    deck: &Deck,
    version: CodeVersion,
    spec: DeviceSpec,
    comm: &Comm,
    n_ranks: usize,
    seed: u64,
    record_spans: bool,
    plan: Option<&FaultPlan>,
    fired: &AtomicBool,
    progress: Option<&ProgressFn>,
    log: &mut RecoveryLog,
) -> Result<crate::run::RunReport, String> {
    let mut sim = Simulation::builder(deck)
        .version(version)
        .device(spec)
        .rank(comm.rank())
        .world(n_ranks)
        .seed(seed)
        .try_build()?;
    if record_spans {
        sim.par.ctx.prof.set_record_spans(true);
    }
    sim.epoch = comm.epoch();

    // Post-death recovery (epoch > 0): every rank rolls back to the last
    // collectively committed rotation slot; if nobody checkpointed yet,
    // the run replays from step 0 — both bit-exact with an undisturbed
    // run. First entries honor the user's restart point as usual.
    let mut restored = None;
    if sim.epoch > 0 && deck.checkpoint.interval > 0 {
        restored = try_restore_committed(&mut sim, comm, &deck.checkpoint.dir)?;
    }
    if restored.is_none() && !deck.checkpoint.restart_from.is_empty() {
        let from = &deck.checkpoint.restart_from;
        restored = Some(restore_for_restart(&mut sim, comm, from)?);
    }
    if let Some((path, step)) = &restored {
        log.restored_from = Some(format!("{} (step {step})", path.display()));
    }
    // Post-death recovery with nothing committed on disk replays from a
    // fresh step-0 state. Still a recovery event — observers must see
    // that forward progress was thrown away.
    if restored.is_some() || sim.epoch > 0 {
        let step = restored.as_ref().map_or(0, |(_, step)| *step);
        let _ = emit(
            progress,
            ProgressEvent::Restored {
                rank: comm.rank(),
                step,
            },
        );
    }

    log.supervised = deck.resilience.max_respawns > 0
        || deck.checkpoint.interval > 0
        || plan.is_some()
        || log.restored_from.is_some();
    supervise(&mut sim, comm, plan, log, fired, progress)?;
    Ok(report_from(sim, n_ranks, std::mem::take(log)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::Scratch;
    use mas_config::FaultCfg;
    use std::sync::Arc;

    fn small_deck() -> Deck {
        let mut d = Deck::preset_quickstart();
        d.time.n_steps = 4;
        d.output.hist_interval = 0;
        d
    }

    fn spec() -> DeviceSpec {
        DeviceSpec::a100_40gb()
    }

    #[test]
    fn nan_fault_recovers_on_all_six_versions() {
        // The headline acceptance test: a NaN poisoned into a kernel
        // output at step 2 is detected, rolled back, and the run
        // completes with a halved dt — on every code version.
        for version in CodeVersion::ALL {
            let mut deck = small_deck();
            deck.fault = FaultCfg {
                kind: FaultKind::Nan,
                step: 2,
                rank: 0,
                io_error: "other".into(),
            };
            let rep = run_supervised(&deck, version, spec(), 1, 7, false)
                .unwrap_or_else(|e| panic!("{version:?}: {e}"));
            let r = &rep.ranks[0];
            assert_eq!(r.steps, 4, "{version:?}");
            let log = &r.recovery;
            assert!(log.supervised, "{version:?}");
            assert_eq!(log.faults_injected, 1, "{version:?}");
            assert_eq!(log.detections, 1, "{version:?}");
            assert_eq!(log.rollbacks, 1, "{version:?}");
            assert_eq!(log.dt_reductions, 1, "{version:?}");
        }
    }

    #[test]
    fn nan_fault_recovers_on_two_ranks_from_mid_run_checkpoint() {
        // With checkpointing on, the rollback lands on the last committed
        // checkpoint (step 2), not step 0.
        let mut deck = small_deck();
        deck.checkpoint.interval = 2;
        let scratch = Scratch::new("supervisor_nan2r");
        deck.checkpoint.dir = scratch.deck_text();
        deck.fault = FaultCfg {
            kind: FaultKind::Nan,
            step: 3,
            rank: 1,
            io_error: "other".into(),
        };
        let rep = run_supervised(&deck, CodeVersion::Ad, spec(), 2, 5, false).unwrap();
        for r in &rep.ranks {
            assert_eq!(r.steps, 4);
            assert_eq!(r.recovery.rollbacks, 1, "rank {}", r.rank);
            assert_eq!(r.recovery.detections, 1, "rank {}", r.rank);
            // Step-2 and step-4 checkpoints (the step-4 one is written on
            // the retry path after the rollback too — at least 2 writes).
            assert!(r.recovery.checkpoints_written >= 2, "rank {}", r.rank);
            assert_eq!(
                r.recovery.checkpoints_written, r.recovery.checkpoints_validated,
                "rank {}",
                r.rank
            );
        }
        // Only rank 1 injected the fault.
        assert_eq!(rep.ranks[0].recovery.faults_injected, 0);
        assert_eq!(rep.ranks[1].recovery.faults_injected, 1);
        // Both ranks see the same (recovered) physics state hashes as a
        // rerun without the fault but with the same dt backoff? Cheaper
        // invariant: the final state is finite and steps completed.
    }

    #[test]
    fn halo_corrupt_fault_recovers() {
        let mut deck = small_deck();
        deck.fault = FaultCfg {
            kind: FaultKind::HaloCorrupt,
            step: 2,
            rank: 0,
            io_error: "other".into(),
        };
        let rep = run_supervised(&deck, CodeVersion::A, spec(), 2, 3, false).unwrap();
        for r in &rep.ranks {
            assert_eq!(r.steps, 4, "rank {}", r.rank);
            assert!(r.recovery.detections >= 1, "rank {}", r.rank);
            assert!(r.recovery.rollbacks >= 1, "rank {}", r.rank);
        }
    }

    #[test]
    fn supervision_does_not_perturb_physics() {
        // Zero-fault checkpointed run: state_hash identical to the plain
        // unsupervised run (the acceptance criterion for inertness).
        let mut plain = small_deck();
        plain.output.hist_interval = 2;
        let base = crate::run_multi_rank(&plain, CodeVersion::A, spec(), 2, 11, false);

        let mut ck = plain.clone();
        ck.checkpoint.interval = 2;
        let scratch = Scratch::new("supervisor_noperturb");
        ck.checkpoint.dir = scratch.deck_text();
        let sup = run_supervised(&ck, CodeVersion::A, spec(), 2, 11, false).unwrap();

        for (a, b) in base.ranks.iter().zip(&sup.ranks) {
            assert_eq!(
                a.state_hash, b.state_hash,
                "rank {}: checkpointing must not change the physics",
                a.rank
            );
            assert_eq!(a.hist.len(), b.hist.len());
        }
        assert!(sup.ranks[0].recovery.supervised);
        assert_eq!(sup.ranks[0].recovery.checkpoints_written, 2);
        assert_eq!(sup.ranks[0].recovery.rollbacks, 0);
    }

    #[test]
    fn kill_mid_checkpoint_restart_is_bitwise_identical() {
        // Simulate a job killed while writing its newest checkpoint: the
        // newest slot is torn (CRC fails), a stale .tmp litters the
        // directory. The restart must fall back to the previous valid
        // slot and reproduce the uninterrupted run bit-for-bit.
        let scratch = Scratch::new("supervisor_killresume");
        let dir = &scratch.0;
        let mut deck = small_deck();
        deck.time.n_steps = 6;
        deck.checkpoint.interval = 2;
        deck.checkpoint.dir = scratch.deck_text();

        let full = run_supervised(&deck, CodeVersion::A, spec(), 2, 9, false).unwrap();

        // Tear the newest slot on every rank (the step-6 checkpoint) —
        // truncation, exactly what a mid-write death produces if the
        // rename already happened for a previous write... here we emulate
        // the torn-latest scenario directly.
        for rank in 0..2 {
            let (newest, h) = checkpoint::latest_valid_slot(dir, rank).unwrap();
            assert_eq!(h.step, 6);
            let bytes = std::fs::read(&newest).unwrap();
            std::fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
            // Stale temp litter from the interrupted write.
            std::fs::write(newest.with_extension("dump.tmp"), b"torn").unwrap();
        }

        // Resume: the agreed rollback point is step 4 (the surviving
        // slot), and the rerun of steps 5..6 must be byte-identical.
        let mut resume = deck.clone();
        resume.checkpoint.restart_from = scratch.deck_text();
        let resumed = run_supervised(&resume, CodeVersion::A, spec(), 2, 9, false).unwrap();

        for (a, b) in full.ranks.iter().zip(&resumed.ranks) {
            assert_eq!(b.steps, 6, "rank {}", b.rank);
            assert_eq!(
                a.state_hash, b.state_hash,
                "rank {}: resumed run must be bit-identical",
                a.rank
            );
            assert_eq!(a.time.to_bits(), b.time.to_bits(), "rank {}", a.rank);
        }
        let log = &resumed.ranks[0].recovery;
        assert!(
            log.restored_from.as_deref().unwrap_or("").contains("step 4"),
            "must restore the surviving step-4 slot: {:?}",
            log.restored_from
        );
    }

    #[test]
    fn restart_at_or_past_n_steps_is_graceful() {
        // Restarting a finished run takes zero further steps and reports
        // cleanly instead of panicking.
        let scratch = Scratch::new("supervisor_done");
        let mut deck = small_deck();
        deck.checkpoint.interval = 4; // checkpoint exactly at the end
        deck.checkpoint.dir = scratch.deck_text();
        run_supervised(&deck, CodeVersion::A, spec(), 1, 2, false).unwrap();

        let mut resume = deck.clone();
        resume.checkpoint.restart_from = scratch.deck_text();
        let rep = run_supervised(&resume, CodeVersion::A, spec(), 1, 2, false).unwrap();
        assert_eq!(rep.ranks[0].steps, 4);
        assert!(rep.ranks[0].recovery.restored_from.is_some());
        assert!(rep.hist().is_empty());
    }

    #[test]
    fn ckpt_fail_fault_keeps_run_alive_with_previous_rollback_point() {
        let scratch = Scratch::new("supervisor_ckfail");
        let mut deck = small_deck();
        deck.time.n_steps = 6;
        deck.checkpoint.interval = 2;
        deck.checkpoint.dir = scratch.deck_text();
        deck.fault = FaultCfg {
            kind: FaultKind::CkptFail,
            step: 4,
            rank: 0,
            io_error: "write_zero".into(),
        };
        let rep = run_supervised(&deck, CodeVersion::A, spec(), 1, 4, false).unwrap();
        let log = &rep.ranks[0].recovery;
        assert_eq!(rep.ranks[0].steps, 6);
        assert_eq!(log.faults_injected, 1);
        assert_eq!(log.checkpoint_failures, 1);
        // Checkpoints at steps 2 and 6 succeeded; step 4 died mid-write.
        assert_eq!(log.checkpoints_written, 2);
        assert_eq!(log.checkpoints_validated, 2);
        // The failed write left a torn .tmp but never a torn slot: both
        // slots on disk still validate.
        let (newest, h) = checkpoint::latest_valid_slot(&scratch.0, 0).unwrap();
        assert_eq!(h.step, 6);
        mas_io::validate_dump(&newest).unwrap();
    }

    #[test]
    fn rank_panic_fault_returns_structured_error() {
        let mut deck = small_deck();
        deck.fault = FaultCfg {
            kind: FaultKind::Panic,
            step: 2,
            rank: 1,
            io_error: "other".into(),
        };
        let err = run_supervised(&deck, CodeVersion::A, spec(), 2, 6, false).unwrap_err();
        // The cause comes first: rank 1's injected death, then its peer
        // failing on it.
        let cause = &err.failures[0];
        assert_eq!(cause.rank, 1, "{err}");
        assert!(cause.message.contains("injected fault"), "{err}");
        // Display formats every failure.
        let s = err.to_string();
        assert!(s.contains("rank 1"), "{s}");
    }

    #[test]
    fn halo_drop_fault_times_out_as_structured_error() {
        let mut deck = small_deck();
        deck.time.n_steps = 3;
        // A lost message from a live peer is what the deadline is for.
        deck.resilience.recv_deadline_ms = 500;
        deck.fault = FaultCfg {
            kind: FaultKind::HaloDrop,
            step: 2,
            rank: 0,
            io_error: "other".into(),
        };
        let err = run_supervised(&deck, CodeVersion::A, spec(), 2, 8, false).unwrap_err();
        // Per-pair FIFO means the loss shows up either as a receive
        // timeout (nothing else in flight) or as a tag mismatch (the next
        // message arrives in the dropped one's place); the peer then sees
        // that rank die. All three are diagnosable, none is a deadlock.
        assert!(
            err.failures.iter().any(|f| {
                f.message.contains("timed out")
                    || f.message.contains("tag mismatch")
                    || f.message.contains("died")
            }),
            "a dropped message must surface as a diagnosable failure: {err}"
        );
    }

    #[test]
    fn recovery_budget_exhaustion_terminates_cleanly() {
        // A fault at step 1 with max_recoveries = 0: the first detection
        // exhausts the budget — structured error, not a panic or hang.
        let mut deck = small_deck();
        deck.checkpoint.max_recoveries = 0;
        deck.fault = FaultCfg {
            kind: FaultKind::Nan,
            step: 1,
            rank: 0,
            io_error: "other".into(),
        };
        let err = run_supervised(&deck, CodeVersion::A, spec(), 1, 1, false).unwrap_err();
        assert_eq!(err.failures.len(), 1);
        assert!(
            err.failures[0].message.contains("recovery budget exhausted"),
            "{}",
            err.failures[0].message
        );
    }

    #[test]
    fn recovery_log_summary_is_quiet_for_zero_event_runs() {
        // Satellite: no "0 fault(s) injected" noise — counters only
        // appear once they fire.
        assert_eq!(RecoveryLog::default().summary(), "unsupervised");
        let clean = RecoveryLog {
            supervised: true,
            ..RecoveryLog::default()
        };
        assert_eq!(clean.summary(), "supervised: clean run");

        let eventful = RecoveryLog {
            supervised: true,
            checkpoints_written: 2,
            checkpoints_validated: 2,
            faults_injected: 1,
            detections: 1,
            rollbacks: 1,
            dt_reductions: 1,
            restored_from: Some("ckpt (step 4)".into()),
            ..RecoveryLog::default()
        };
        let s = eventful.summary();
        // The substrings a fault drill reads off `mas`'s recovery line.
        assert!(s.contains("1 rollback(s)"), "{s}");
        assert!(s.contains("1 dt halving(s)"), "{s}");
        assert!(s.contains("restored from ckpt (step 4)"), "{s}");
        assert!(!s.contains("0 "), "zero counters must be omitted: {s}");

        let respawned = RecoveryLog {
            supervised: true,
            respawns: 1,
            stale_rejected: 2,
            ..RecoveryLog::default()
        };
        let s = respawned.summary();
        assert!(s.contains("1 respawn(s)"), "{s}");
        assert!(s.contains("2 stale envelope(s) rejected"), "{s}");
    }

    #[test]
    fn halo_drop_recovers_at_the_epoch_fence() {
        // A lost halo plane fails its receive (at the deadline, or as a
        // tag mismatch when the next plane arrives in its place); with a
        // respawn budget every rank meets at the epoch fence and restores
        // the committed step-2 checkpoint. No rank dies, and the finished
        // state is bit-identical to an undisturbed run.
        let scratch = Scratch::new("supervisor_halo_drop_fence");
        let mut deck = small_deck();
        deck.time.n_steps = 6;
        deck.checkpoint.interval = 2;
        deck.checkpoint.dir = scratch.deck_text();
        deck.resilience.max_respawns = 1;
        deck.resilience.recv_deadline_ms = 500;

        let base_scratch = Scratch::new("supervisor_halo_drop_fence_base");
        let mut undisturbed = deck.clone();
        undisturbed.checkpoint.dir = base_scratch.deck_text();
        let base = run_supervised(&undisturbed, CodeVersion::A, spec(), 2, 8, false).unwrap();

        deck.fault = FaultCfg {
            kind: FaultKind::HaloDrop,
            step: 3,
            rank: 1,
            io_error: "other".into(),
        };
        let rep = run_supervised(&deck, CodeVersion::A, spec(), 2, 8, false)
            .unwrap_or_else(|e| panic!("a lost halo plane must recover at the fence: {e}"));
        for (a, b) in base.ranks.iter().zip(&rep.ranks) {
            assert_eq!(b.steps, 6, "rank {}", b.rank);
            assert_eq!(a.state_hash, b.state_hash, "rank {}", a.rank);
            assert_eq!(a.time.to_bits(), b.time.to_bits(), "rank {}", a.rank);
            let log = &b.recovery;
            assert_eq!(log.respawns, 0, "rank {}: nobody died", b.rank);
            let from = log.restored_from.as_deref().unwrap_or("");
            assert!(from.contains("step 2"), "rank {}: restored from {from:?}", b.rank);
            // The log survives the fence: the step-2 checkpoint written
            // before it counts with the two written after it.
            assert_eq!(
                log.checkpoints_written, a.recovery.checkpoints_written,
                "rank {}",
                b.rank
            );
        }
        assert_eq!(
            rep.ranks[1].recovery.faults_injected, 1,
            "rank 1 dropped the plane"
        );
    }

    fn resilient_deck(scratch: &Scratch) -> Deck {
        let mut d = small_deck();
        d.checkpoint.interval = 2;
        d.checkpoint.dir = scratch.deck_text();
        d.resilience.max_respawns = 1;
        d
    }

    #[test]
    fn rank_death_respawn_resumes_bit_exact_on_all_six_versions() {
        // The tentpole acceptance test: kill a rank mid-run; the world
        // respawns it under a bumped epoch, survivors quiesce at the
        // recovery fence, everyone rolls back to the last committed
        // checkpoint, and the finished state is bitwise identical to an
        // undisturbed run — on every code version.
        for version in CodeVersion::ALL {
            let scratch = Scratch::new(&format!("supervisor_respawn_{version:?}"));
            let mut deck = resilient_deck(&scratch);
            deck.fault = FaultCfg {
                kind: FaultKind::Panic,
                step: 3,
                rank: 1,
                io_error: "other".into(),
            };

            let mut undisturbed = deck.clone();
            undisturbed.fault.kind = FaultKind::None;
            let base_scratch = Scratch::new(&format!("supervisor_respawn_{version:?}_base"));
            undisturbed.checkpoint.dir = base_scratch.deck_text();
            let base = run_supervised(&undisturbed, version, spec(), 2, 13, false)
                .unwrap_or_else(|e| panic!("{version:?} undisturbed: {e}"));

            let rep = run_supervised(&deck, version, spec(), 2, 13, false)
                .unwrap_or_else(|e| panic!("{version:?} killed run must recover: {e}"));

            for (a, b) in base.ranks.iter().zip(&rep.ranks) {
                assert_eq!(b.steps, 4, "{version:?} rank {}", b.rank);
                assert_eq!(
                    a.state_hash, b.state_hash,
                    "{version:?} rank {}: recovered run must be bit-identical",
                    a.rank
                );
                assert_eq!(
                    a.time.to_bits(),
                    b.time.to_bits(),
                    "{version:?} rank {}",
                    a.rank
                );
            }
            assert_eq!(rep.ranks[0].recovery.respawns, 1, "{version:?}");
            assert!(
                rep.ranks[0]
                    .recovery
                    .restored_from
                    .as_deref()
                    .unwrap_or("")
                    .contains("step 2"),
                "{version:?}: recovery must restore the committed step-2 slot: {:?}",
                rep.ranks[0].recovery.restored_from
            );
        }
    }

    #[test]
    fn rank_death_without_checkpoints_replays_from_step_zero() {
        // Death before any checkpoint was committed (interval 0): the
        // recovery replays the whole run from a fresh step-0 state —
        // still bit-exact against the undisturbed run, on four ranks.
        let mut deck = small_deck();
        deck.resilience.max_respawns = 1;
        deck.fault = FaultCfg {
            kind: FaultKind::Panic,
            step: 2,
            rank: 2,
            io_error: "other".into(),
        };

        let plain = small_deck();
        let base = crate::run_multi_rank(&plain, CodeVersion::Ad, spec(), 4, 17, false);

        let rep = run_supervised(&deck, CodeVersion::Ad, spec(), 4, 17, false)
            .unwrap_or_else(|e| panic!("4-rank killed run must recover: {e}"));
        for (a, b) in base.ranks.iter().zip(&rep.ranks) {
            assert_eq!(b.steps, 4, "rank {}", b.rank);
            assert_eq!(a.state_hash, b.state_hash, "rank {}", a.rank);
        }
        let log = &rep.ranks[0].recovery;
        assert_eq!(log.respawns, 1);
        assert!(log.restored_from.is_none(), "{:?}", log.restored_from);
    }

    #[test]
    fn fault_plan_parses_io_error_kinds() {
        assert_eq!(parse_error_kind("write_zero"), io::ErrorKind::WriteZero);
        assert_eq!(parse_error_kind("NOT_FOUND"), io::ErrorKind::NotFound);
        assert_eq!(parse_error_kind("bogus"), io::ErrorKind::Other);
        let deck = Deck::default();
        assert!(FaultPlan::from_deck(&deck).is_none(), "default deck is inert");
    }

    #[test]
    fn progress_streams_steps_checkpoints_and_rollbacks() {
        use crate::progress::progress_fn;
        let mut deck = small_deck();
        deck.checkpoint.interval = 2;
        let scratch = Scratch::new("supervisor_progress_stream");
        deck.checkpoint.dir = scratch.deck_text();
        deck.fault = FaultCfg {
            kind: FaultKind::Nan,
            step: 2,
            rank: 0,
            io_error: "other".into(),
        };
        let events = Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink = {
            let events = events.clone();
            progress_fn(move |e: &ProgressEvent| {
                events.lock().unwrap().push(e.clone());
                true
            })
        };
        let rep =
            run_supervised_with_progress(&deck, CodeVersion::A, spec(), 2, 7, false, Some(sink))
                .unwrap();
        assert_eq!(rep.ranks[0].steps, 4);
        let events = events.lock().unwrap();
        for rank in 0..2usize {
            assert!(
                events.iter().any(|e| matches!(e,
                    ProgressEvent::Step { rank: r, step: 4, n_steps: 4 } if *r == rank)),
                "rank {rank} never reported its final step: {events:?}"
            );
            assert!(
                events.iter().any(|e| matches!(e,
                    ProgressEvent::CheckpointCommitted { rank: r, .. } if *r == rank)),
                "rank {rank} never reported a checkpoint commit"
            );
            assert!(
                events.iter().any(|e| matches!(e,
                    ProgressEvent::Rollback { rank: r, .. } if *r == rank)),
                "rank {rank} never reported the NaN rollback"
            );
        }
        assert!(events.iter().any(ProgressEvent::is_recovery));
    }

    #[test]
    fn progress_sink_is_observation_only_and_cancels_cooperatively() {
        use crate::progress::progress_fn;
        use std::sync::atomic::AtomicUsize;
        // Plain deck, no supervision: the sink rides the unsupervised
        // step loop and the state hash matches the sink-free run.
        let deck = small_deck();
        let base = crate::run_multi_rank(&deck, CodeVersion::A, spec(), 2, 9, false);
        let steps_seen = Arc::new(AtomicUsize::new(0));
        let sink = {
            let steps_seen = steps_seen.clone();
            progress_fn(move |e: &ProgressEvent| {
                if matches!(e, ProgressEvent::Step { .. }) {
                    steps_seen.fetch_add(1, Ordering::SeqCst);
                }
                true
            })
        };
        let rep =
            run_supervised_with_progress(&deck, CodeVersion::A, spec(), 2, 9, false, Some(sink))
                .unwrap();
        for (a, b) in base.ranks.iter().zip(&rep.ranks) {
            assert_eq!(
                a.state_hash, b.state_hash,
                "rank {}: a progress sink must not change the physics",
                a.rank
            );
        }
        assert_eq!(steps_seen.load(Ordering::SeqCst), 2 * 4, "2 ranks x 4 steps");

        // Returning false aborts every rank at the next step boundary and
        // surfaces as a structured error, not a panic.
        let sink = progress_fn(|e: &ProgressEvent| {
            !matches!(e, ProgressEvent::Step { step, .. } if *step >= 2)
        });
        let err =
            run_supervised_with_progress(&deck, CodeVersion::A, spec(), 2, 9, false, Some(sink))
                .expect_err("a false-returning sink must cancel the run");
        assert_eq!(err.failures.len(), 2, "{err}");
        for f in &err.failures {
            assert!(f.message.contains("cancelled"), "{}", f.message);
        }
    }

    #[test]
    fn a_rank_that_returns_early_fails_its_peer_at_once() {
        use crate::progress::progress_fn;
        use std::sync::Mutex;
        use std::time::Instant;
        // Each rank reads the sink's verdict on its own, as a served job's
        // cancel or deadline reaches it. Here only `quitter` cancels, at
        // step 2; its peer then waits on a rank that has returned and
        // fails at once naming it, with no receive deadline set.
        for quitter in [1usize, 0] {
            let mut deck = small_deck();
            deck.checkpoint.interval = 2;
            let scratch = Scratch::new(&format!("supervisor_early_return_{quitter}"));
            deck.checkpoint.dir = scratch.deck_text();
            let cancelled_at = Arc::new(Mutex::new(None));
            let sink = {
                let cancelled_at = cancelled_at.clone();
                progress_fn(move |e: &ProgressEvent| {
                    let quit = matches!(e,
                        ProgressEvent::Step { rank, step: 2, .. } if *rank == quitter);
                    if quit {
                        *cancelled_at.lock().unwrap() = Some(Instant::now());
                    }
                    !quit
                })
            };
            let err =
                run_supervised_with_progress(&deck, CodeVersion::A, spec(), 2, 9, false, Some(sink))
                    .expect_err("a cancelled rank fails the run");
            let since_cancel = cancelled_at.lock().unwrap().expect("the sink cancelled").elapsed();
            assert!(since_cancel < scaled_ms(1000), "rank {quitter} quit: {since_cancel:?}");
            let message =
                |rank| &err.failures.iter().find(|f| f.rank == rank).expect("a failure").message;
            assert!(message(quitter).contains("cancelled at step 2"), "{err}");
            let peer = message(1 - quitter);
            assert!(peer.contains(&format!("peer rank {quitter} has returned")), "{err}");
        }
    }
}
