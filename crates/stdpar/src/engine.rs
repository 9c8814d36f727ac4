//! Host-parallel kernel execution engine.
//!
//! The paper's subject is how the *same* physics loops execute under
//! different parallel programming models; this module is the host-side
//! analogue of the compiler's `do concurrent` backend. [`Par::loop3`]
//! (and the reductions) hand the engine a **tile plan** — the iteration
//! space cut into k-plane slabs along the outermost (φ) axis, matching
//! the Fortran memory order — and the engine executes the tiles on a
//! persistent worker pool.
//!
//! Two properties are load-bearing:
//!
//! * **Fixed decomposition.** The tile plan depends only on the
//!   iteration space and the site's [`Tiling`](crate::site::Tiling)
//!   attribute — never on the thread count. Reductions accumulate one
//!   partial per tile and combine the partials in tile order on the
//!   calling thread, so `reduce_scalar`/`reduce_array` results are
//!   **bit-identical for any `MAS_HOST_THREADS`** (the deterministic
//!   counterpart of the paper's DC2X `reduce`-clause discussion, where
//!   atomic orderings make the real code's array reductions only
//!   round-off reproducible).
//! * **Virtual time is untouched.** The engine changes who executes the
//!   numerics, not what the device model charges; `gpusim` cost is
//!   booked per launch by the caller exactly as in serial execution, so
//!   every table/figure output is independent of the host thread count.
//!
//! The pool uses plain `std` primitives (the workspace builds offline):
//! workers park on a condvar, a submitted job is a lifetime-erased
//! `&dyn Fn(usize)` over tile indices claimed from an atomic counter,
//! and the submitting thread participates in the work before waiting on
//! the completion latch — a fork-join no worker outlives, which is what
//! makes the lifetime erasure sound.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// Default environment variable controlling the worker count.
pub const HOST_THREADS_ENV: &str = "MAS_HOST_THREADS";

/// Resolve the engine width: `MAS_HOST_THREADS` if set (clamped to ≥ 1),
/// else the machine's available parallelism.
pub fn default_host_threads() -> usize {
    if let Ok(v) = std::env::var(HOST_THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Below this many iteration points a parallel dispatch costs more than
/// it saves; the engine runs the (identical) tile plan on the caller.
/// Execution-side only — the tile decomposition and reduction order are
/// unaffected, so results do not change across the threshold.
pub(crate) const PAR_DISPATCH_MIN_POINTS: usize = 4096;

/// A job in flight: tile-claim counter + the erased tile function.
struct Job {
    /// `fn(tile_index)`; lifetime-erased by `run_tiles` (sound because
    /// the submitter blocks on the latch until every worker is done).
    task: &'static (dyn Fn(usize) + Sync),
    /// Next unclaimed tile.
    next: Arc<AtomicUsize>,
    /// Number of tiles in the plan.
    n_tiles: usize,
}

struct PoolState {
    job: Option<Job>,
    /// Incremented per submitted job so sleeping workers can tell a new
    /// job from the one they just finished.
    epoch: u64,
    /// Workers still inside the current job.
    active: usize,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    work_cv: Condvar,
    done_cv: Condvar,
}

/// Persistent fork-join worker pool (spawned lazily on first use).
struct Pool {
    shared: Arc<PoolShared>,
    workers: Vec<JoinHandle<()>>,
    /// Persistent tile-claim counter, reset and reused for every job —
    /// jobs are strictly fork-join (the submitter drains the pool before
    /// returning), so no two jobs ever share it concurrently.
    claim: Arc<AtomicUsize>,
}

impl Pool {
    /// Spawn `n_workers` parked worker threads.
    fn new(n_workers: usize) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                job: None,
                epoch: 0,
                active: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let workers = (0..n_workers)
            .map(|w| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("mas-engine-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn engine worker")
            })
            .collect();
        Pool {
            shared,
            workers,
            claim: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// Run `task(tile)` for every tile in `0..n_tiles` across the pool
    /// plus the calling thread; returns when all tiles are done.
    fn run(&self, n_tiles: usize, task: &(dyn Fn(usize) + Sync)) {
        // SAFETY: the job only lives inside this call — we wait on the
        // completion latch below before returning, and workers drop the
        // erased reference before decrementing `active`.
        let task: &'static (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), _>(task) };
        // Reuse the persistent claim counter (an `Arc` clone is a refcount
        // bump, not an allocation).
        self.claim.store(0, Ordering::SeqCst);
        let next = Arc::clone(&self.claim);
        {
            let mut st = self.shared.state.lock().expect("engine poisoned");
            debug_assert!(st.job.is_none(), "engine jobs do not nest");
            st.job = Some(Job {
                task,
                next: next.clone(),
                n_tiles,
            });
            st.epoch += 1;
            st.active = self.workers.len();
        }
        self.shared.work_cv.notify_all();

        // The submitter claims tiles too — with one worker-thread this
        // still halves latency, and it keeps tiny jobs from sleeping.
        run_claimed(task, &next, n_tiles);

        let mut st = self.shared.state.lock().expect("engine poisoned");
        while st.active > 0 {
            st = self.shared.done_cv.wait(st).expect("engine poisoned");
        }
        st.job = None;
    }
}

fn run_claimed(task: &(dyn Fn(usize) + Sync), next: &AtomicUsize, n_tiles: usize) {
    loop {
        let t = next.fetch_add(1, Ordering::Relaxed);
        if t >= n_tiles {
            break;
        }
        task(t);
    }
}

fn worker_loop(shared: &PoolShared) {
    let mut seen_epoch = 0u64;
    loop {
        let (task, next, n_tiles) = {
            let mut st = shared.state.lock().expect("engine poisoned");
            loop {
                if st.shutdown {
                    return;
                }
                if st.epoch != seen_epoch {
                    if let Some(job) = &st.job {
                        seen_epoch = st.epoch;
                        break (job.task, job.next.clone(), job.n_tiles);
                    }
                }
                st = shared.work_cv.wait(st).expect("engine poisoned");
            }
        };
        run_claimed(task, &next, n_tiles);
        let remaining = {
            let mut st = shared.state.lock().expect("engine poisoned");
            st.active -= 1;
            st.active
        };
        if remaining == 0 {
            shared.done_cv.notify_all();
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("engine poisoned");
            st.shutdown = true;
        }
        self.work_cv_notify();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Pool {
    fn work_cv_notify(&self) {
        self.shared.work_cv.notify_all();
    }
}

/// One rank's host execution engine: a configured width plus a lazily
/// spawned [`Pool`]. Owned by [`Par`](crate::Par); see
/// [`ParBuilder::threads`](crate::ParBuilder::threads).
pub struct Engine {
    threads: usize,
    pool: Option<Pool>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("threads", &self.threads)
            .field("pool_live", &self.pool.is_some())
            .finish()
    }
}

impl Engine {
    /// Engine of width `threads` (≥ 1). No threads are spawned until the
    /// first parallel dispatch.
    pub fn new(threads: usize) -> Self {
        Engine {
            threads: threads.max(1),
            pool: None,
        }
    }

    /// Configured width (1 = serial execution).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether a dispatch of `n_points` over `n_tiles` should go to the
    /// pool. Purely an execution decision: results are identical either
    /// way because the tile plan is fixed.
    pub(crate) fn wants_parallel(&self, n_tiles: usize, n_points: usize) -> bool {
        self.threads > 1 && n_tiles > 1 && n_points >= PAR_DISPATCH_MIN_POINTS
    }

    /// Execute `task(tile)` for `0..n_tiles`; concurrently when
    /// [`Engine::wants_parallel`] said so, else inline on the caller.
    ///
    /// Callers in `exec.rs` take their own serial fast path for
    /// `n_tiles <= 1` (and the race auditor bypasses the engine entirely
    /// for instrumented launches — see `stdpar::race`), so a parallel
    /// dispatch here always has work to spread; the inline branch below
    /// remains correct for any `n_tiles` regardless.
    pub(crate) fn run_tiles(
        &mut self,
        n_tiles: usize,
        n_points: usize,
        task: &(dyn Fn(usize) + Sync),
    ) {
        if n_tiles <= 1 || !self.wants_parallel(n_tiles, n_points) {
            for t in 0..n_tiles {
                task(t);
            }
            return;
        }
        let workers = self.threads - 1; // caller participates
        let pool = self.pool.get_or_insert_with(|| Pool::new(workers));
        pool.run(n_tiles, task);
    }
}

/// Shared-write view of an `f64` slice for per-tile reduction partials
/// and per-chunk plane scratch.
///
/// # Safety contract
/// Each tile must write only its own disjoint index range (tile `t`
/// owns row `t`, chunk `c` owns chunk `c`); the engine's fork-join
/// completes before the slice is read back, so no access overlaps.
pub(crate) struct SyncSlice<'a> {
    ptr: *mut f64,
    len: usize,
    _marker: std::marker::PhantomData<&'a mut [f64]>,
}

// SAFETY: see the contract above — tiles touch disjoint elements and the
// borrow outlives the join.
unsafe impl Send for SyncSlice<'_> {}
unsafe impl Sync for SyncSlice<'_> {}

impl<'a> SyncSlice<'a> {
    pub(crate) fn new(s: &'a mut [f64]) -> Self {
        SyncSlice {
            ptr: s.as_mut_ptr(),
            len: s.len(),
            _marker: std::marker::PhantomData,
        }
    }

    #[inline(always)]
    pub(crate) fn set(&self, i: usize, v: f64) {
        debug_assert!(i < self.len);
        // SAFETY: bounds asserted in debug; caller upholds disjointness.
        unsafe { *self.ptr.add(i) = v }
    }

    #[inline(always)]
    pub(crate) fn add(&self, i: usize, dv: f64) {
        debug_assert!(i < self.len);
        // SAFETY: as above; the read-modify-write races with nothing
        // because the element belongs to exactly one tile.
        unsafe { *self.ptr.add(i) += dv }
    }

    /// Chunk `c` of the slice cut into chunks of `len` values, as a
    /// mutable slice. Panics if the chunk runs past the end.
    ///
    /// # Safety
    /// No other reference into chunk `c` may be live while the returned
    /// one is: the caller gives each chunk index one owner at a time.
    #[inline(always)]
    pub(crate) unsafe fn chunk_mut(&self, c: usize, len: usize) -> &'a mut [f64] {
        let start = c.saturating_mul(len);
        assert!(
            start <= self.len && len <= self.len - start,
            "chunk {c} of {len} values runs past a {}-value slice",
            self.len
        );
        // SAFETY: in bounds (asserted above); exclusivity is the
        // caller's contract.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), len) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn serial_engine_runs_inline() {
        let mut e = Engine::new(1);
        let hits = AtomicUsize::new(0);
        e.run_tiles(7, usize::MAX, &|_t| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 7);
        assert!(e.pool.is_none(), "width-1 engine never spawns");
    }

    #[test]
    fn parallel_engine_covers_every_tile_exactly_once() {
        let mut e = Engine::new(4);
        let n = 64;
        let marks: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        e.run_tiles(n, usize::MAX, &|t| {
            marks[t].fetch_add(1, Ordering::Relaxed);
        });
        for (t, m) in marks.iter().enumerate() {
            assert_eq!(m.load(Ordering::Relaxed), 1, "tile {t}");
        }
    }

    #[test]
    fn pool_is_reused_across_jobs() {
        let mut e = Engine::new(3);
        let sum = AtomicU64::new(0);
        for _ in 0..50 {
            e.run_tiles(16, usize::MAX, &|t| {
                sum.fetch_add(t as u64, Ordering::Relaxed);
            });
        }
        assert_eq!(sum.load(Ordering::Relaxed), 50 * (0..16u64).sum::<u64>());
        assert!(e.pool.is_some());
    }

    #[test]
    fn small_jobs_stay_on_caller() {
        let mut e = Engine::new(8);
        e.run_tiles(4, PAR_DISPATCH_MIN_POINTS - 1, &|_t| {});
        assert!(e.pool.is_none(), "below threshold no pool is spawned");
    }

    #[test]
    fn threads_are_clamped_to_one() {
        assert_eq!(Engine::new(0).threads(), 1);
    }

    #[test]
    fn default_host_threads_is_positive() {
        assert!(default_host_threads() >= 1);
    }
}
