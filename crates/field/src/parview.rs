//! [`ParView3`]: a shared-write view of an [`Array3`] for
//! `do concurrent`-style kernel bodies.
//!
//! The `stdpar` host engine executes `Par::loop3` bodies as `Fn + Sync`
//! closures on multiple threads, so a body can no longer capture
//! `&mut Array3`. A `ParView3` is the escape hatch: it is created from a
//! unique borrow of the array (so no other access can exist for its
//! lifetime), is `Sync`, and allows writes through `&self` under the
//! same contract Fortran's `do concurrent` imposes on the real code:
//!
//! * distinct iterations must not write the same element, and
//! * an iteration must not read an element that another *concurrent*
//!   iteration writes. The engine tiles the outermost (k) axis and runs
//!   each k-plane in-order on one thread, so reads of the written array
//!   at i/j offsets (same k) stay well-defined; bodies that read at
//!   k-offsets must declare their site `Site::serial()`.
//!
//! Violating the contract on a parallel site is a data race in the
//! model's semantics just as it is undefined behaviour in the Fortran
//! original — the tiling audit in `mas-mhd` exists to prevent it.

use crate::Array3;
use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicUsize, Ordering};

/// One recorded element access made through a [`ParView3`] while a
/// capture is active on the current thread (see [`capture_begin`]).
///
/// `base` is an opaque buffer identity (stable for the lifetime of the
/// underlying allocation); consumers should map it to a small ordinal
/// before reporting rather than surfacing the raw value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ViewAccess {
    /// Opaque identity of the buffer the view points into.
    pub base: usize,
    /// Storage index along the fastest axis.
    pub i: usize,
    /// Storage index along the middle axis.
    pub j: usize,
    /// Storage index along the slowest (tiled) axis.
    pub k: usize,
    /// `true` for a write (or the write half of `add`), `false` for a read.
    pub write: bool,
}

/// Process-wide count of threads with an active capture. Consulted
/// per-access only by *instrumented* views (see [`arm_captures`]).
static CAPTURES_ACTIVE: AtomicUsize = AtomicUsize::new(0);

/// Process-wide count of armed auditors (see [`arm_captures`]). While
/// nonzero, newly constructed views are instrumented even before any
/// capture begins — this is how the `stdpar` race auditor observes
/// kernel bodies whose views are built before the audited launch.
static CAPTURES_ARMED: AtomicUsize = AtomicUsize::new(0);

/// Arm access capture: views constructed from now until the matching
/// [`disarm_captures`] are *instrumented* — each access checks for an
/// active capture on its thread. Views constructed while nothing is
/// armed and no capture is live skip that check: they pay one
/// predictable `bool` test per `row`/`row_mut` call and one per
/// `get`/`set`/`add`. Arming nests (refcounted).
pub fn arm_captures() {
    CAPTURES_ARMED.fetch_add(1, Ordering::Relaxed);
}

/// Undo one [`arm_captures`]. Views already constructed keep whatever
/// instrumentation decision they were built with.
pub fn disarm_captures() {
    CAPTURES_ARMED.fetch_sub(1, Ordering::Relaxed);
}

/// Whether a view built now should be instrumented: an auditor is armed
/// or a capture is live somewhere. [`Array3::par_view`] consults this
/// once per view, and the view keeps the answer for its lifetime.
fn instrumentation_requested() -> bool {
    CAPTURES_ARMED.load(Ordering::Relaxed) != 0 || CAPTURES_ACTIVE.load(Ordering::Relaxed) != 0
}

thread_local! {
    /// The current thread's capture log, if one is active.
    static CAPTURE_LOG: RefCell<Option<Vec<ViewAccess>>> = const { RefCell::new(None) };
}

/// Begin recording [`ParView3`] accesses made *on the current thread*
/// into a fresh log. Nesting is not supported: a second `capture_begin`
/// without an intervening [`capture_end`] replaces the log.
///
/// Only *instrumented* views record: a view is instrumented if, at its
/// construction, an auditor was armed ([`arm_captures`]) or a capture was
/// already live anywhere. This is the hook
/// the `stdpar` race auditor uses to observe kernel bodies; production
/// runs never call it, and uninstrumented views never consult it.
pub fn capture_begin() {
    CAPTURE_LOG.with(|log| {
        let mut slot = log.borrow_mut();
        if slot.is_none() {
            CAPTURES_ACTIVE.fetch_add(1, Ordering::Relaxed);
        }
        *slot = Some(Vec::new());
    });
}

/// Stop recording on the current thread and return the accesses seen
/// since the matching [`capture_begin`]. Returns an empty vector if no
/// capture was active.
pub fn capture_end() -> Vec<ViewAccess> {
    CAPTURE_LOG.with(|log| {
        let mut slot = log.borrow_mut();
        match slot.take() {
            Some(v) => {
                CAPTURES_ACTIVE.fetch_sub(1, Ordering::Relaxed);
                v
            }
            None => Vec::new(),
        }
    })
}

/// Record one access if this thread has an active capture. Called only
/// from instrumented views; the capture-off path is a single relaxed
/// load and a fall-through branch (the historical cost every access
/// paid before the construction-time gate existed).
#[inline(always)]
fn maybe_record(base: usize, i: usize, j: usize, k: usize, write: bool) {
    if CAPTURES_ACTIVE.load(Ordering::Relaxed) != 0 {
        record_slow(base, i, j, k, write);
    }
}

/// Out-of-line slow path: append to the thread-local log when present.
/// Threads without a live capture (e.g. other ranks while one rank
/// audits) fall through without recording.
#[cold]
#[inline(never)]
fn record_slow(base: usize, i: usize, j: usize, k: usize, write: bool) {
    CAPTURE_LOG.with(|log| {
        if let Some(v) = log.borrow_mut().as_mut() {
            v.push(ViewAccess {
                base,
                i,
                j,
                k,
                write,
            });
        }
    });
}

/// Shared-write view over an [`Array3`]'s storage (see module docs).
///
/// Obtained from [`Array3::par_view`]; borrows the array mutably for its
/// lifetime, so all other access paths are frozen while it exists.
///
/// `rec` is the instrumentation decision, made once when the view is
/// built. An instrumented view records its accesses into the current
/// thread's capture log (if any); an uninstrumented one tests the flag
/// and goes straight to the load or store.
#[derive(Clone, Copy)]
pub struct ParView3<'a> {
    ptr: *mut f64,
    s1: usize,
    s2: usize,
    s3: usize,
    len: usize,
    rec: bool,
    _marker: PhantomData<&'a mut [f64]>,
}

// SAFETY: the view behaves like `&mut [f64]` split element-wise across
// iterations; the caller upholds the disjoint-write contract above and
// the unique borrow prevents aliasing from outside the kernel body. The
// extents and `rec` are plain values no access ever writes.
unsafe impl Send for ParView3<'_> {}
unsafe impl Sync for ParView3<'_> {}

impl<'a> ParView3<'a> {
    pub(crate) fn new(a: &'a mut Array3, rec: bool) -> Self {
        let (s1, s2, s3) = (a.s1, a.s2, a.s3);
        let s = a.as_mut_slice();
        ParView3 {
            ptr: s.as_mut_ptr(),
            s1,
            s2,
            s3,
            len: s.len(),
            rec,
            _marker: PhantomData,
        }
    }

    /// Flat index of `(i, j, k)` (storage indices, i fastest).
    #[inline(always)]
    fn idx(&self, i: usize, j: usize, k: usize) -> usize {
        debug_assert!(i < self.s1 && j < self.s2 && k < self.s3);
        i + self.s1 * (j + self.s2 * k)
    }

    /// Storage extent along `i` (fastest axis), ghosts included.
    #[inline(always)]
    pub fn s1(&self) -> usize {
        self.s1
    }

    /// Storage extent along `j`, ghosts included.
    #[inline(always)]
    pub fn s2(&self) -> usize {
        self.s2
    }

    /// Storage extent along `k` (slowest axis), ghosts included.
    #[inline(always)]
    pub fn s3(&self) -> usize {
        self.s3
    }

    /// Read element `(i, j, k)`.
    ///
    /// Under the iteration-independence contract this must not target an
    /// element written by a concurrent iteration (other k-planes on a
    /// tiled site).
    #[inline(always)]
    pub fn get(&self, i: usize, j: usize, k: usize) -> f64 {
        let ix = self.idx(i, j, k);
        debug_assert!(ix < self.len);
        if self.rec {
            maybe_record(self.ptr as usize, i, j, k, false);
        }
        // SAFETY: in-bounds (asserted in debug); caller upholds the
        // no-concurrent-writer contract.
        unsafe { *self.ptr.add(ix) }
    }

    /// Write element `(i, j, k)` — each iteration its own points only.
    #[inline(always)]
    pub fn set(&self, i: usize, j: usize, k: usize, v: f64) {
        let ix = self.idx(i, j, k);
        debug_assert!(ix < self.len);
        if self.rec {
            maybe_record(self.ptr as usize, i, j, k, true);
        }
        // SAFETY: as for `get`; the element belongs to this iteration.
        unsafe { *self.ptr.add(ix) = v }
    }

    /// Add to element `(i, j, k)` — each iteration its own points only.
    #[inline(always)]
    pub fn add(&self, i: usize, j: usize, k: usize, v: f64) {
        let ix = self.idx(i, j, k);
        debug_assert!(ix < self.len);
        // A read-modify-write is both a read and a write for the
        // iteration-independence contract.
        if self.rec {
            maybe_record(self.ptr as usize, i, j, k, false);
            maybe_record(self.ptr as usize, i, j, k, true);
        }
        // SAFETY: read-modify-write of an element no other iteration
        // touches (contract above).
        unsafe { *self.ptr.add(ix) += v }
    }

    /// Borrow the contiguous innermost-axis (i) window `i0..i1` of the
    /// row at `(j, k)` for reading — the row-sliced kernel path.
    ///
    /// Instrumented views record one read per element of the window at
    /// call time, so the race auditor sees the same element-granular
    /// footprint the scalar path produces.
    #[inline]
    pub fn row(&self, i0: usize, i1: usize, j: usize, k: usize) -> &'a [f64] {
        debug_assert!(i0 <= i1 && i1 <= self.s1 && j < self.s2 && k < self.s3);
        if self.rec {
            for i in i0..i1 {
                maybe_record(self.ptr as usize, i, j, k, false);
            }
        }
        let start = i0 + self.s1 * (j + self.s2 * k);
        debug_assert!(start + (i1 - i0) <= self.len);
        // SAFETY: in-bounds (asserted in debug); the caller upholds the
        // iteration-independence contract (no concurrent writer of these
        // elements), so the shared borrow is valid for 'a.
        unsafe { std::slice::from_raw_parts(self.ptr.add(start), i1 - i0) }
    }

    /// Borrow the contiguous innermost-axis (i) window `i0..i1` of the
    /// row at `(j, k)` for writing — the row-sliced kernel path. Each
    /// iteration of a tiled site must take only rows it owns (its own
    /// `(j, k)`), exactly as `set`/`add` allow only own-point writes;
    /// two live `row_mut` windows must never overlap.
    ///
    /// Instrumented views record a read *and* a write per element
    /// (callers may read-modify-write through the slice, so the
    /// conservative footprint is both), matching what a scalar `add`
    /// records.
    #[inline]
    #[allow(clippy::mut_from_ref)] // shared-write view; see the contract above
    pub fn row_mut(&self, i0: usize, i1: usize, j: usize, k: usize) -> &'a mut [f64] {
        debug_assert!(i0 <= i1 && i1 <= self.s1 && j < self.s2 && k < self.s3);
        if self.rec {
            for i in i0..i1 {
                maybe_record(self.ptr as usize, i, j, k, false);
                maybe_record(self.ptr as usize, i, j, k, true);
            }
        }
        let start = i0 + self.s1 * (j + self.s2 * k);
        debug_assert!(start + (i1 - i0) <= self.len);
        // SAFETY: in-bounds (asserted in debug); exclusivity over the
        // window is the caller's contract (own rows only, no overlap),
        // the same discipline `set` imposes per element.
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(start), i1 - i0) }
    }
}

impl Array3 {
    /// A [`ParView3`] over this array for a parallel kernel body. The
    /// array is mutably borrowed for the view's lifetime; see the
    /// `parview` module docs for the iteration-independence contract.
    ///
    /// The view is instrumented if an auditor is armed
    /// ([`arm_captures`]) or a capture is live ([`capture_begin`]) now,
    /// and keeps that decision for its lifetime.
    pub fn par_view(&mut self) -> ParView3<'_> {
        ParView3::new(self, instrumentation_requested())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn view_reads_and_writes_match_array() {
        let mut a = Array3::zeros(3, 4, 5);
        {
            let v = a.par_view();
            v.set(1, 2, 3, 7.5);
            v.add(1, 2, 3, 0.5);
            assert_eq!(v.get(1, 2, 3), 8.0);
        }
        assert_eq!(a.get(1, 2, 3), 8.0);
    }

    #[test]
    fn view_is_sync_and_usable_across_threads_on_disjoint_planes() {
        let mut a = Array3::zeros(4, 4, 8);
        let s3 = a.s3;
        {
            let v = a.par_view();
            std::thread::scope(|s| {
                for k in 0..s3 {
                    s.spawn(move || {
                        for j in 0..4 {
                            for i in 0..4 {
                                v.set(i, j, k, (i + 10 * j + 100 * k) as f64);
                            }
                        }
                    });
                }
            });
        }
        assert_eq!(a.get(2, 3, 5), (2 + 30 + 500) as f64);
    }

    #[test]
    fn capture_records_reads_writes_and_rmw() {
        let mut a = Array3::zeros(2, 2, 2);
        capture_begin();
        let v = a.par_view();
        v.set(0, 0, 0, 1.0);
        let _ = v.get(1, 1, 1);
        v.add(0, 1, 0, 2.0);
        let log = capture_end();
        // set -> 1 write; get -> 1 read; add -> read + write.
        assert_eq!(log.len(), 4);
        assert!(log[0].write && log[0].i == 0 && log[0].j == 0 && log[0].k == 0);
        assert!(!log[1].write && log[1].i == 1 && log[1].j == 1 && log[1].k == 1);
        assert!(!log[2].write && log[2].i == 0 && log[2].j == 1 && log[2].k == 0);
        assert!(log[3].write && log[3].i == 0 && log[3].j == 1 && log[3].k == 0);
        assert_eq!(log[0].base, log[1].base);
        // No capture active: nothing recorded, end returns empty.
        v.set(1, 0, 0, 3.0);
        assert!(capture_end().is_empty());
    }

    #[test]
    fn capture_is_thread_local() {
        let mut a = Array3::zeros(2, 2, 2);
        capture_begin();
        let v = a.par_view();
        std::thread::scope(|s| {
            s.spawn(move || {
                // Other threads see the global gate but have no log;
                // their accesses must not land in ours.
                v.set(0, 0, 1, 5.0);
            });
        });
        v.set(0, 0, 0, 1.0);
        let log = capture_end();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].k, 0);
    }

    #[test]
    fn uninstrumented_views_never_record() {
        let mut a = Array3::zeros(2, 2, 2);
        let mut b = Array3::zeros(2, 2, 2);
        {
            // Built uninstrumented: invisible to captures.
            let raw = ParView3::new(&mut a, false);
            let hot = ParView3::new(&mut b, true);
            capture_begin();
            raw.set(0, 0, 0, 1.0);
            raw.add(0, 0, 0, 0.5);
            let _ = raw.get(0, 0, 0);
            hot.set(0, 0, 1, 2.0);
            let log = capture_end();
            assert_eq!(log.len(), 1, "only the instrumented view records");
            assert_eq!(log[0].k, 1);
        }
        // The accesses themselves still happen.
        assert_eq!(a.get(0, 0, 0), 1.5);
    }

    #[test]
    fn rows_alias_the_same_storage_as_point_access() {
        let mut a = Array3::zeros(4, 3, 3);
        let s1 = a.s1;
        {
            let v = a.par_view();
            let w = v.row_mut(1, s1 - 1, 2, 3);
            for (t, x) in w.iter_mut().enumerate() {
                *x = 10.0 + t as f64;
            }
            let r = v.row(1, s1 - 1, 2, 3);
            assert_eq!(r[0], 10.0);
            // Shifted window: the stencil neighbour view of the same row.
            let shifted = v.row(2, s1, 2, 3);
            assert_eq!(shifted[0], 11.0);
        }
        assert_eq!(a.get(1, 2, 3), 10.0);
        assert_eq!(a.get(2, 2, 3), 11.0);
        assert_eq!(a.row(1, 3, 2, 3), &[10.0, 11.0]);
    }

    #[test]
    fn instrumented_rows_record_per_element_footprints() {
        let mut a = Array3::zeros(2, 2, 2);
        capture_begin();
        let v = a.par_view();
        let _ = v.row(1, 3, 0, 1);
        let _ = v.row_mut(0, 2, 1, 0);
        let log = capture_end();
        // row -> 2 reads; row_mut -> (read + write) per element.
        assert_eq!(log.len(), 6);
        assert!(log[..2].iter().all(|r| !r.write && r.j == 0 && r.k == 1));
        assert_eq!((log[0].i, log[1].i), (1, 2));
        assert_eq!(log[2..].iter().filter(|r| r.write).count(), 2);
        assert!(log[2..].iter().all(|r| r.j == 1 && r.k == 0));
    }

    #[test]
    fn instrumentation_requested_tracks_arm_and_capture() {
        // Positive assertions only: sibling tests capture concurrently,
        // so a quiet global state cannot be assumed here.
        arm_captures();
        assert!(instrumentation_requested());
        disarm_captures();
        capture_begin();
        assert!(instrumentation_requested());
        let _ = capture_end();
    }
}
