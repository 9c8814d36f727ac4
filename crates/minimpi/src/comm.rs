//! The per-rank communicator: point-to-point and collective operations.
//!
//! Every message travels in an **envelope** stamped with the
//! communicator epoch it was sent under. The epoch is the ULFM-style
//! fencing device — after a rank death and respawn the world advances
//! its epoch at a collective [`Comm::epoch_fence`], and anything still
//! in flight from the dead incarnation is discarded instead of
//! corrupting state. Payloads are delivered as sent: the in-process
//! channel cannot garble them, and an injected [`NetFault::Corrupt`]
//! (NaN) is left to the run supervisor's health check to catch.

use crate::chan::{Receiver, Sender};
use gpusim::{DeviceContext, Phase, TimeCategory};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Message tag (the solver uses a small fixed set; tags are asserted, not
/// matched out of order — all communication patterns in MAS are
/// deterministic per-pair FIFO).
pub type Tag = u32;

/// Reduction operator for [`Comm::allreduce`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    /// Elementwise sum.
    Sum,
    /// Elementwise minimum.
    Min,
    /// Elementwise maximum.
    Max,
}

impl ReduceOp {
    fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }
}

/// Which hardware path a point-to-point transfer takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetPath {
    /// GPU peer-to-peer DMA (CUDA-aware MPI + manual data management).
    DeviceP2P,
    /// Through host memory (what unified memory forces; also the CPU-run
    /// path, where it is simply the interconnect).
    Host,
}

/// An armed point-to-point fault: applied to the **next** point-to-point
/// send ([`Comm::arm_net_fault`]), then cleared. Fault injection is
/// compiled in but completely inert until armed — an unarmed
/// `Cell<Option<…>>` check is one branch per send.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetFault {
    /// Corrupt the payload in flight: its second half becomes NaN (the
    /// bad-DMA / truncated-packet failure mode).
    Corrupt,
    /// Silently drop the message (lost packet / dead NIC). The matching
    /// receive will only terminate if a receive deadline is armed via
    /// [`Comm::set_recv_deadline`].
    Drop,
}

/// Why a communication did not complete. Every blocking `Comm` path that
/// fails raises it inside a [`CommFailure`] ([`Comm::fail`]), and a
/// fence returns it. This is the structured vocabulary the run
/// supervisor acts on — kind, not string matching.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecvFailure {
    /// The deadline elapsed with no (fresh) message — lost packet or
    /// dead/slow peer.
    Timeout {
        /// Source rank that never delivered.
        src: usize,
        /// Tag that was awaited.
        tag: Tag,
        /// How long the receiver waited.
        waited: Duration,
    },
    /// A rank died, which revokes the world: every receive that would
    /// park fails with this until the fence that admits the rank's
    /// replacement.
    PeerDied {
        /// The dead rank.
        rank: usize,
        /// The communicator epoch it died in.
        epoch: u64,
    },
    /// A rank this wait needs has returned, so what it waits for can no
    /// longer come. Messages the rank sent before it returned are still
    /// delivered.
    PeerLeft {
        /// The rank that returned.
        rank: usize,
    },
    /// A message arrived with an unexpected tag (consumed, not delivered).
    TagMismatch {
        /// Source rank.
        src: usize,
        /// Tag found on the message.
        got: Tag,
        /// Tag that was awaited.
        want: Tag,
    },
    /// A collective ([`Comm::allreduce`]'s gather or broadcast), which has
    /// no single source rank, did not complete.
    Collective {
        /// Which stage of which collective.
        what: &'static str,
        /// How long the rank waited before its deadline ran out.
        waited: Duration,
    },
    /// A collective epoch fence timed out with a participant missing
    /// that neither died nor returned: a hung rank.
    FenceTimeout {
        /// How long the rank waited at the fence.
        waited: Duration,
    },
}

impl std::fmt::Display for RecvFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvFailure::Timeout { src, tag, waited } => write!(
                f,
                "timed out after {waited:?} waiting for tag {tag} from rank {src} — message lost?"
            ),
            RecvFailure::PeerDied { rank, .. } => write!(f, "peer rank {rank} died"),
            RecvFailure::PeerLeft { rank } => write!(f, "peer rank {rank} has returned"),
            RecvFailure::TagMismatch { src, got, want } => {
                write!(f, "tag mismatch from rank {src}: got {got}, want {want}")
            }
            RecvFailure::Collective { what, waited } => {
                write!(f, "timed out after {waited:?} in {what} — peer rank lost?")
            }
            RecvFailure::FenceTimeout { waited } => {
                write!(f, "epoch fence timed out after {waited:?} — peer missing")
            }
        }
    }
}

/// The panic payload of every communication failure ([`Comm::fail`]):
/// carries the failing rank, the epoch it failed under, and the
/// structured failure. The resilient run supervisor downcasts it to tell
/// "a peer died under me" from "this rank hit a bug". Its `Display`
/// leaves the rank out: whoever reports a rank's failure names the rank.
#[derive(Clone, Debug)]
pub struct CommFailure {
    /// The rank that observed (or suffered) the failure.
    pub rank: usize,
    /// Communicator epoch at failure time.
    pub epoch: u64,
    /// What went wrong.
    pub failure: RecvFailure,
}

impl std::fmt::Display for CommFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (epoch {})", self.failure, self.epoch)
    }
}

/// A message in flight: payload plus the virtual time at which the data
/// becomes available at the destination, wrapped in the resilience
/// envelope (its epoch).
pub(crate) struct Msg {
    pub tag: Tag,
    /// Payload. `Arc`-backed so a pooled sender (the halo exchanger, the
    /// collective buffer pool) can put a buffer on the wire without
    /// copying it; the slot becomes reusable when the receiver drops its
    /// reference.
    pub data: Arc<Vec<f64>>,
    /// Sender's virtual send time, µs.
    pub t_send: f64,
    /// Payload bytes (for the receiver-side transfer-time computation).
    pub bytes: f64,
    /// Transfer path chosen by the sender.
    pub path: NetPath,
    /// Communicator epoch the sender lived in.
    pub epoch: u64,
}

/// Payload of a rank→root collective message:
/// (rank, values, send time, epoch).
pub(crate) type RootMsg = (usize, Arc<Vec<f64>>, f64, u64);
/// Root→rank broadcast payload: (values, sync time, epoch).
pub(crate) type BcastMsg = (Arc<Vec<f64>>, f64, u64);
/// Root-side receiver of rank→root collective traffic (shared by root).
pub(crate) type FromRanks = Option<Arc<Receiver<RootMsg>>>;

/// Two-phase drain barrier used by [`Comm::epoch_fence`]: phase 1
/// quiesces every live incarnation, phase 2 (after each rank drained its
/// own inboxes) releases them into the next epoch.
pub(crate) struct Fence {
    state: Mutex<FenceState>,
    cv: Condvar,
}

struct FenceState {
    count: usize,
    gen: u64,
}

impl Fence {
    fn new() -> Self {
        Self {
            state: Mutex::new(FenceState { count: 0, gen: 0 }),
            cv: Condvar::new(),
        }
    }

    /// Generation barrier over `n` participants; the last arriver runs
    /// `leader` before releasing the rest. Before each park a waiter asks
    /// `stop` whether the barrier can still form, and fails with its
    /// answer, or with [`RecvFailure::FenceTimeout`] once `timeout`
    /// passes; either way its arrival is rolled back so a later fence
    /// can still form.
    fn wait(
        &self,
        n: usize,
        timeout: Duration,
        stop: impl Fn() -> Option<RecvFailure>,
        leader: impl FnOnce(),
    ) -> Result<(), RecvFailure> {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let my_gen = st.gen;
        st.count += 1;
        if st.count == n {
            st.count = 0;
            leader();
            st.gen += 1;
            drop(st);
            self.cv.notify_all();
            return Ok(());
        }
        while st.gen == my_gen {
            let now = Instant::now();
            let timed_out = now >= deadline;
            let failure = timed_out.then_some(RecvFailure::FenceTimeout { waited: timeout });
            if let Some(failure) = failure.or_else(&stop) {
                st.count -= 1;
                return Err(failure);
            }
            st = self.cv.wait_timeout(st, deadline - now).unwrap_or_else(|e| e.into_inner()).0;
        }
        Ok(())
    }

    /// Wake every parked waiter so it re-runs its `stop` check (under the
    /// fence lock, so none is between its check and its park).
    pub(crate) fn wake(&self) {
        let _st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        self.cv.notify_all();
    }
}

/// One rank's allreduce contribution as gathered at the root: the shared
/// payload plus the contributor's sync time.
type Contribution = (Arc<Vec<f64>>, f64);

/// How a rank's closure ended, as the world monitor recorded it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Exit {
    /// No exit recorded, or a replacement that a fence has admitted.
    Running,
    /// Panicked in `epoch`. `replaced` when the monitor spawned a
    /// replacement, which the next fence admits.
    Died { epoch: u64, replaced: bool },
    /// Returned.
    Left,
}

/// World-level shared control block: the communicator epoch, the
/// stale-envelope counter, the fence, and every rank's exit. One per
/// world, shared by every `Comm` through an `Arc`.
pub(crate) struct WorldCtl {
    pub(crate) epoch: AtomicU64,
    pub(crate) stale_rejected: AtomicU64,
    pub(crate) fence: Fence,
    /// Written by the world monitor; read by a wait only when it is
    /// about to park.
    exits: Mutex<Vec<Exit>>,
}

impl WorldCtl {
    pub(crate) fn new(n: usize) -> Arc<Self> {
        Arc::new(Self {
            epoch: AtomicU64::new(0),
            stale_rejected: AtomicU64::new(0),
            fence: Fence::new(),
            exits: Mutex::new(vec![Exit::Running; n]),
        })
    }

    /// The exit record, recovering from poisoning like every lock here.
    pub(crate) fn exits(&self) -> MutexGuard<'_, Vec<Exit>> {
        self.exits.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Why a wait can no longer complete, if it cannot. A receive
    /// (`fencing = false`) fails on any death, which revokes the world,
    /// and on a returned rank that `waits_on` selects. A fence waits on
    /// every rank and fails on a returned rank or on a death with no
    /// replacement coming.
    fn gone(&self, fencing: bool, waits_on: impl Fn(usize) -> bool) -> Option<RecvFailure> {
        let exits = self.exits();
        let died = exits.iter().enumerate().find_map(|(rank, &exit)| match exit {
            Exit::Died { epoch, replaced } if !(fencing && replaced) => {
                Some(RecvFailure::PeerDied { rank, epoch })
            }
            _ => None,
        });
        died.or_else(|| {
            let left = (0..exits.len()).find(|&r| exits[r] == Exit::Left && waits_on(r));
            left.map(|rank| RecvFailure::PeerLeft { rank })
        })
    }
}

/// One rank's handle into the world.
pub struct Comm {
    rank: usize,
    size: usize,
    /// Which incarnation of the rank this handle belongs to (0 for the
    /// original worker; bumped on every respawn).
    incarnation: usize,
    /// `to[d]` sends to rank d (None at `d == rank` is avoided by using a
    /// real channel to self — self-sends are how the periodic wrap works
    /// on one rank).
    to: Vec<Sender<Msg>>,
    /// `from[s]` receives from rank s.
    from: Vec<Receiver<Msg>>,
    /// Shared collective scratchpad channels: every rank → root, root → every rank.
    pub(crate) to_root: Sender<RootMsg>,
    pub(crate) from_ranks: FromRanks,
    pub(crate) from_root: Receiver<BcastMsg>,
    pub(crate) to_ranks: Vec<Sender<BcastMsg>>,
    /// World-shared control block (epoch, stale counter, fence, exits).
    pub(crate) ctl: Arc<WorldCtl>,
    /// Collective latency per tree stage, µs.
    pub coll_latency_us: f64,
    /// Collective bandwidth, bytes/µs.
    pub coll_bw: f64,
    /// Armed point-to-point fault (consumed by the next send).
    armed_fault: Cell<Option<NetFault>>,
    /// Next send is stamped with this epoch instead of the current one —
    /// test hook for proving stale-envelope rejection.
    forced_epoch: Cell<Option<u64>>,
    /// Wall-clock receive deadline; `None` = no deadline (the default).
    /// A dead or returned peer ends a wait without one; the supervisor
    /// arms it so that a lost message or a hung rank does too.
    recv_deadline: Cell<Option<Duration>>,
    /// This rank's reusable [`Comm::allreduce`] contribution buffer.
    contrib_buf: RefCell<Arc<Vec<f64>>>,
    /// Root-side reusable [`Comm::allreduce`] broadcast buffer.
    bcast_buf: RefCell<Arc<Vec<f64>>>,
    /// Root-side gather scratch for [`Comm::allreduce`], reused per call.
    contribs_scratch: RefCell<Vec<Option<Contribution>>>,
    /// Root-side fold accumulator for [`Comm::allreduce`], reused per call.
    reduce_scratch: RefCell<Vec<f64>>,
}

impl Comm {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        rank: usize,
        size: usize,
        incarnation: usize,
        to: Vec<Sender<Msg>>,
        from: Vec<Receiver<Msg>>,
        to_root: Sender<RootMsg>,
        from_ranks: FromRanks,
        from_root: Receiver<BcastMsg>,
        to_ranks: Vec<Sender<BcastMsg>>,
        ctl: Arc<WorldCtl>,
    ) -> Self {
        Self {
            rank,
            size,
            incarnation,
            to,
            from,
            to_root,
            from_ranks,
            from_root,
            to_ranks,
            ctl,
            coll_latency_us: 6.0,
            coll_bw: 20.0e3, // 20 GB/s effective for small collectives
            armed_fault: Cell::new(None),
            forced_epoch: Cell::new(None),
            recv_deadline: Cell::new(None),
            contrib_buf: RefCell::new(Arc::new(Vec::new())),
            bcast_buf: RefCell::new(Arc::new(Vec::new())),
            contribs_scratch: RefCell::new(Vec::new()),
            reduce_scratch: RefCell::new(Vec::new()),
        }
    }

    /// Fill the reusable payload buffer in `slot` with `vals` and return a
    /// shared handle to it. The buffer is refilled in place when every
    /// receiver has dropped its `Arc` (only the slot's own reference
    /// left) and replaced by a fresh one otherwise.
    ///
    /// [`Comm::allreduce`] keeps one slot per role, and each is free again
    /// by the time it is refilled: the root drops every contribution
    /// before it broadcasts, and a rank enters the next allreduce only
    /// after it has copied and dropped the previous broadcast. So steady
    /// state never replaces a buffer, and a buffer grows only when a
    /// payload is larger than any before it in that role — the same calls
    /// in the same order on every run, whatever the thread timing.
    fn fill_shared(slot: &RefCell<Arc<Vec<f64>>>, vals: &[f64]) -> Arc<Vec<f64>> {
        let mut slot = slot.borrow_mut();
        match Arc::get_mut(&mut slot) {
            Some(buf) => {
                buf.clear();
                buf.extend_from_slice(vals);
            }
            None => *slot = Arc::new(vals.to_vec()),
        }
        Arc::clone(&slot)
    }

    /// Arm `fault` for the next point-to-point send from this rank; it
    /// disarms once that send has taken it. Used by the fault-injection
    /// plan.
    pub fn arm_net_fault(&self, fault: NetFault) {
        self.armed_fault.set(Some(fault));
    }

    /// Bound every subsequent [`Comm::recv`] and collective by a
    /// wall-clock `deadline` (`None` removes the bound). With a deadline
    /// armed, a message that never arrives from a live peer fails as a
    /// [`RecvFailure::Timeout`] instead of blocking the rank forever.
    pub fn set_recv_deadline(&self, deadline: Option<Duration>) {
        self.recv_deadline.set(deadline);
    }

    /// Current communicator epoch (0 until the first respawn fence).
    pub fn epoch(&self) -> u64 {
        self.ctl.epoch.load(Ordering::SeqCst)
    }

    /// Which incarnation of this rank the handle belongs to (0 = the
    /// original worker, `n` = the n-th respawn).
    pub fn incarnation(&self) -> usize {
        self.incarnation
    }

    /// Messages rejected for carrying a pre-fence epoch (world total).
    pub fn stale_rejected(&self) -> u64 {
        self.ctl.stale_rejected.load(Ordering::SeqCst)
    }

    /// Test hook: advance the world epoch without a fence. Returns the
    /// new epoch. Real recovery advances the epoch inside
    /// [`Comm::epoch_fence`], where every rank is quiesced.
    pub fn advance_epoch(&self) -> u64 {
        self.ctl.epoch.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Test hook: stamp the **next** send with `epoch` instead of the
    /// current one — forges a straggler from a dead incarnation.
    pub fn force_send_epoch(&self, epoch: u64) {
        self.forced_epoch.set(Some(epoch));
    }

    /// Collective recovery point. All `size` live incarnations must call
    /// this; the barrier quiesces the world, every rank drains its own
    /// inboxes of dead-incarnation traffic, and the last arriver advances
    /// the epoch and admits the replacements, which lifts the revocation
    /// their deaths caused. Returns the new epoch, or a structured
    /// failure: at once when some participant can never arrive (a rank
    /// has returned, or died with no replacement coming), after `timeout`
    /// when one is merely missing.
    pub fn epoch_fence(&self, timeout: Duration) -> Result<u64, RecvFailure> {
        let n = self.size;
        let ctl = &self.ctl;
        let unreachable = || ctl.gone(true, |_| true);
        // Phase 1: arrive. Once all n are here nothing is in flight.
        ctl.fence.wait(n, timeout, unreachable, || {})?;
        // Drain own inboxes: everything still queued was sent by (or to)
        // a dead incarnation under the old epoch.
        let mut drained = 0u64;
        for rx in &self.from {
            while rx.try_recv().is_some() {
                drained += 1;
            }
        }
        if let Some(rx) = &self.from_ranks {
            while rx.try_recv().is_some() {
                drained += 1;
            }
        }
        while self.from_root.try_recv().is_some() {
            drained += 1;
        }
        if drained > 0 {
            self.ctl.stale_rejected.fetch_add(drained, Ordering::SeqCst);
        }
        // Phase 2: the last arriver bumps the epoch and turns every
        // replaced death back into a running rank; all resume in it.
        ctl.fence.wait(n, timeout, unreachable, || {
            ctl.epoch.fetch_add(1, Ordering::SeqCst);
            for exit in ctl.exits().iter_mut() {
                if matches!(exit, Exit::Died { replaced: true, .. }) {
                    *exit = Exit::Running;
                }
            }
        })?;
        Ok(self.epoch())
    }

    /// Raise `failure` on this rank: the one way a `Comm` path (or a
    /// transport built on one) fails, as a [`CommFailure`] payload that
    /// names this rank and the current epoch. It unwinds without the
    /// panic hook, so nothing is printed here: whoever catches it (the
    /// world, the supervisor) reports it, once.
    pub fn fail(&self, failure: RecvFailure) -> ! {
        let epoch = self.epoch();
        std::panic::resume_unwind(Box::new(CommFailure { rank: self.rank, epoch, failure }))
    }

    /// Take a message from `rx`, which delivers what the ranks `waits_on`
    /// selects send. Fails at once when the world's exit record shows the
    /// message cannot come, and with `timeout(deadline)` when `deadline`
    /// passes first.
    fn wait<T>(
        &self,
        rx: &Receiver<T>,
        deadline: Option<Duration>,
        waits_on: impl Fn(usize) -> bool,
        timeout: impl FnOnce(Duration) -> RecvFailure,
    ) -> Result<T, RecvFailure> {
        rx.recv(deadline, || self.ctl.gone(false, &waits_on))
            .map_err(|gone| gone.unwrap_or_else(|| timeout(deadline.unwrap_or_default())))
    }

    /// Receive on a collective star channel from the ranks `waits_on`
    /// selects, honouring the armed [`Comm::set_recv_deadline`] and
    /// discarding stale-epoch envelopes; a timeout fails as a
    /// [`RecvFailure::Collective`].
    fn recv_collective<T>(
        &self,
        rx: &Receiver<T>,
        what: &'static str,
        epoch_of: impl Fn(&T) -> u64,
        waits_on: impl Fn(usize) -> bool,
    ) -> T {
        loop {
            let m = self
                .wait(rx, self.recv_deadline.get(), &waits_on, |waited| {
                    RecvFailure::Collective { what, waited }
                })
                .unwrap_or_else(|f| self.fail(f));
            if epoch_of(&m) < self.epoch() {
                self.ctl.stale_rejected.fetch_add(1, Ordering::SeqCst);
                continue;
            }
            return m;
        }
    }

    /// This rank's id.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Neighbour ranks for the periodic 1-D φ decomposition:
    /// `(low, high)` = `(rank-1 mod P, rank+1 mod P)`.
    pub fn phi_neighbors(&self) -> (usize, usize) {
        let p = self.size;
        ((self.rank + p - 1) % p, (self.rank + 1) % p)
    }

    /// Non-blocking send of `data` to `dst`. The sender's current virtual
    /// time stamps the message; P2P DMA costs the sender nothing (the
    /// transfer time is accounted on the receive side, where it can
    /// overlap the receiver's other work).
    pub fn send(&self, dst: usize, tag: Tag, data: Vec<f64>, path: NetPath, ctx: &DeviceContext) {
        let bytes = (data.len() * 8) as f64;
        self.send_pooled(dst, tag, Arc::new(data), path, ctx, bytes);
    }

    /// Zero-copy send of an `Arc`-backed payload — the pooled-buffer fast
    /// path used by the halo exchanger. The caller keeps its reference;
    /// the buffer goes on the wire without a copy and the caller can
    /// detect the receiver finishing with it via `Arc::get_mut` (the
    /// strong count drops back when the receiver drops the message).
    pub fn send_pooled(
        &self,
        dst: usize,
        tag: Tag,
        mut data: Arc<Vec<f64>>,
        path: NetPath,
        ctx: &DeviceContext,
        cost_bytes: f64,
    ) {
        let epoch = self.forced_epoch.take().unwrap_or_else(|| self.epoch());
        if let Some(fault) = self.armed_fault.take() {
            match fault {
                NetFault::Corrupt => {
                    // Bad DMA / truncated packet: the payload arrives
                    // with its second half garbled. (Not just one corner
                    // element — a halo pack's element 0 is a ghost-ghost
                    // corner no interior stencil reads, so a single
                    // corrupted value there would be invisible.)
                    // `make_mut` clones only if the sender still holds the
                    // buffer — the corruption happens in flight, the
                    // sender's pooled copy stays pristine.
                    let buf = Arc::make_mut(&mut data);
                    let n = buf.len();
                    for v in &mut buf[n / 2..] {
                        *v = f64::NAN;
                    }
                }
                NetFault::Drop => {
                    // Lost packet: the message never enters the channel.
                    return;
                }
            }
        }
        let msg = Msg {
            tag,
            data,
            t_send: ctx.clock.now_us(),
            bytes: cost_bytes,
            path,
            epoch,
        };
        self.to[dst].send(msg);
    }

    /// Charge the receive-side wait + transfer time into the MPI phase.
    fn book_transfer(&self, msg: &Msg, ctx: &mut DeviceContext) {
        let transfer_us = match msg.path {
            NetPath::DeviceP2P => ctx.spec.p2p_time_us(msg.bytes),
            // Host path uses the same physical link but adds the staging
            // copy latency on both ends; under UM the page-migration costs
            // are charged separately by the memory manager.
            NetPath::Host => ctx.spec.p2p_time_us(msg.bytes) + 2.0 * ctx.spec.h2d_latency_us,
        };
        let t_avail = msg.t_send + transfer_us;
        let now = ctx.clock.now_us();
        let prev = ctx.set_phase(Phase::Mpi);
        if t_avail > now {
            // Receiver idles until the data lands: split into the wire time
            // (categorized by path) and pure waiting (sender imbalance).
            let wire = transfer_us.min(t_avail - now);
            let wait = (t_avail - now) - wire;
            if wait > 0.0 {
                ctx.charge(wait, TimeCategory::MpiWait, "recv_wait");
            }
            let cat = match msg.path {
                NetPath::DeviceP2P => TimeCategory::P2P,
                NetPath::Host => TimeCategory::MemcpyD2H,
            };
            ctx.charge(wire, cat, "recv_transfer");
        }
        ctx.set_phase(prev);
    }

    /// Blocking receive from `src`; reconciles the virtual clock and books
    /// the wait + transfer into the MPI phase.
    ///
    /// Stale-epoch envelopes are discarded (counted in
    /// [`Comm::stale_rejected`]) without delivery; everything else is
    /// delivered as sent, so an injected [`NetFault::Corrupt`] reaches the
    /// caller as NaN. A message that never comes fails the rank with
    /// [`RecvFailure::Timeout`] once the armed [`Comm::set_recv_deadline`]
    /// passes, and at once when the world's exit record shows the source
    /// has died or returned.
    ///
    /// Returns the payload.
    pub fn recv(&self, src: usize, tag: Tag, ctx: &mut DeviceContext) -> Vec<f64> {
        let data = self.recv_shared(src, tag, ctx);
        // Fresh (non-pooled) sends keep no reference, so this is a move,
        // not a copy — recv stays zero-cost for the common case.
        Arc::try_unwrap(data).unwrap_or_else(|a| (*a).clone())
    }

    /// Like [`Comm::recv`] (same envelope checks and failures), but hands
    /// back the `Arc`-backed payload without unwrapping it. The halo
    /// exchange uses this: copy out of the shared buffer, then drop it so
    /// the sender's pool slot frees.
    pub fn recv_shared(&self, src: usize, tag: Tag, ctx: &mut DeviceContext) -> Arc<Vec<f64>> {
        let msg = loop {
            let m = self
                .wait(&self.from[src], self.recv_deadline.get(), |r| r == src, |waited| {
                    RecvFailure::Timeout { src, tag, waited }
                })
                .unwrap_or_else(|f| self.fail(f));
            if m.epoch < self.epoch() {
                self.ctl.stale_rejected.fetch_add(1, Ordering::SeqCst);
                continue;
            }
            break m;
        };
        if msg.tag != tag {
            self.fail(RecvFailure::TagMismatch { src, got: msg.tag, want: tag });
        }
        self.book_transfer(&msg, ctx);
        msg.data
    }

    /// Barrier: synchronize data-free; all clocks advance to the max plus
    /// one collective latency.
    pub fn barrier(&self, ctx: &mut DeviceContext) {
        let mut none: [f64; 0] = [];
        self.allreduce(ReduceOp::Max, &mut none, ctx);
    }

    /// In-place allreduce over `vals` (deterministic rank-order reduction
    /// at rank 0, then broadcast). Clock rule: every rank ends at
    /// `max_i(t_i) + cost(P, bytes)`.
    ///
    /// Steady state is allocation-free: contributions and the broadcast
    /// result ride reusable `Arc` buffers (see [`Comm::fill_shared`]), and
    /// the root folds into reusable scratch.
    pub fn allreduce(&self, op: ReduceOp, vals: &mut [f64], ctx: &mut DeviceContext) {
        let t_now = ctx.clock.now_us();
        let epoch = self.epoch();
        let contribution = Self::fill_shared(&self.contrib_buf, vals);
        self.to_root.send((self.rank, contribution, t_now, epoch));
        if let Some(rx) = &self.from_ranks {
            // I am root: gather into reusable scratch, fold in rank order
            // into the reusable accumulator, broadcast one reusable buffer
            // shared by every rank.
            let mut contribs = self.contribs_scratch.borrow_mut();
            contribs.clear();
            contribs.resize_with(self.size, || None);
            let mut got = 0;
            while got < self.size {
                let (r, v, t, _e) = self.recv_collective(rx, "allreduce(gather)", |m| m.3, |r| {
                    contribs[r].is_none()
                });
                if contribs[r].is_none() {
                    got += 1;
                }
                contribs[r] = Some((v, t));
            }
            let mut acc = self.reduce_scratch.borrow_mut();
            acc.clear();
            let mut t_sync = 0.0_f64;
            for (i, c) in contribs.iter().enumerate() {
                let (v, t) = c.as_ref().expect("missing contribution");
                t_sync = t_sync.max(*t);
                if i == 0 {
                    acc.extend_from_slice(v);
                } else {
                    for (ai, &vi) in acc.iter_mut().zip(v.iter()) {
                        *ai = op.apply(*ai, vi);
                    }
                }
            }
            // Release the contribution Arcs before broadcasting, so every
            // rank's contribution buffer is free for its next call.
            contribs.clear();
            let out = Self::fill_shared(&self.bcast_buf, &acc);
            for s in &self.to_ranks {
                s.send((Arc::clone(&out), t_sync, epoch));
            }
        }
        let (result, t_sync, _e) =
            self.recv_collective(&self.from_root, "allreduce(bcast)", |m| m.2, |r| r == 0);
        vals.copy_from_slice(&result);
        drop(result);

        // Timing: wait to the sync point, then pay the tree cost.
        let stages = (self.size as f64).log2().ceil().max(1.0);
        let bytes = (vals.len() * 8) as f64;
        let cost = stages * (self.coll_latency_us + bytes / self.coll_bw);
        let now = ctx.clock.now_us();
        let prev = ctx.set_phase(Phase::Mpi);
        if t_sync > now {
            ctx.charge(t_sync - now, TimeCategory::MpiWait, "allreduce_wait");
        }
        ctx.charge(cost, TimeCategory::Collective, "allreduce");
        ctx.set_phase(prev);
    }
}

#[cfg(test)]
mod tests {
    // Comm is only constructible through World; its behaviour is tested in
    // `world.rs` where ranks exist.
    #[test]
    fn reduce_op_semantics() {
        use super::ReduceOp::*;
        assert_eq!(Sum.apply(1.0, 2.0), 3.0);
        assert_eq!(Min.apply(1.0, 2.0), 1.0);
        assert_eq!(Max.apply(1.0, 2.0), 2.0);
    }

    #[test]
    fn fence_releases_all_and_runs_leader_once() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let fence = std::sync::Arc::new(super::Fence::new());
        let bumps = std::sync::Arc::new(AtomicU32::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let f = fence.clone();
                let b = bumps.clone();
                s.spawn(move || {
                    f.wait(4, std::time::Duration::from_secs(5), || None, || {
                        b.fetch_add(1, Ordering::SeqCst);
                    })
                    .expect("fence forms");
                });
            }
        });
        assert_eq!(bumps.load(Ordering::SeqCst), 1, "exactly one leader");
    }

    #[test]
    fn fence_times_out_when_short_handed() {
        let fence = super::Fence::new();
        let r = fence.wait(2, std::time::Duration::from_millis(20), || None, || {});
        assert!(
            matches!(r, Err(super::RecvFailure::FenceTimeout { .. })),
            "lone participant must time out: {r:?}"
        );
    }
}
