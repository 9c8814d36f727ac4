//! Allocation-count regression guard for the hot path.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! warm-up phase (lazy pools spawn, halo/scratch buffers reach their
//! high-water marks) further `step::advance` calls must perform **zero**
//! heap allocations — on one rank and one thread, and on two ranks with
//! two host threads each, where the halo exchange and the collectives
//! run their real multi-rank transport. The same holds for the whole step
//! loop around them (history cadence, health check, progress events),
//! unsupervised and supervised between checkpoints. This pins
//! allocation-free stepping as a hard invariant rather than a number that
//! only shows up as a wall-clock delta. A committed checkpoint is bounded
//! instead: its file I/O allocates, its rollback snapshot must not.
//!
//! The test lives in its own integration-test binary so no concurrently
//! running sibling test can allocate against the shared counter; the
//! configurations run one after the other inside a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use mas::config::GridCfg;
use mas::mhd::{progress_fn, run_supervised_with_progress, ProgressEvent};
use mas::prelude::*;

/// System allocator with a global allocation counter. Only allocation
/// *events* are counted (alloc / alloc_zeroed / realloc) — frees are
/// irrelevant to the invariant.
struct CountingAlloc;

static ALLOC_EVENTS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const WARMUP_STEPS: usize = 3;
const MEASURED_STEPS: usize = 5;

/// Allocation events each rank observes over `MEASURED_STEPS` steps
/// after warm-up, on a world of `ranks` ranks with `threads` host threads
/// each. The counter is process-wide, so barriers bracket the window: no
/// rank is still warming up when any rank starts counting, and no rank
/// leaves the world (and tears down) before every rank has stopped.
fn steady_state_allocations(threads: usize, ranks: usize) -> Vec<usize> {
    let mut deck = guard_deck(threads);
    deck.time.n_steps = WARMUP_STEPS + MEASURED_STEPS;

    mas::minimpi::World::run(ranks, |comm| {
        let mut sim = Simulation::builder(&deck)
            .version(CodeVersion::A)
            .rank(comm.rank())
            .world(ranks)
            .build();
        for _ in 0..WARMUP_STEPS {
            mas::mhd::step::advance(&mut sim, &comm);
        }
        comm.barrier(&mut sim.par.ctx);
        let before = ALLOC_EVENTS.load(Ordering::SeqCst);
        for _ in 0..MEASURED_STEPS {
            mas::mhd::step::advance(&mut sim, &comm);
        }
        comm.barrier(&mut sim.par.ctx);
        let delta = ALLOC_EVENTS.load(Ordering::SeqCst) - before;
        comm.barrier(&mut sim.par.ctx);
        delta
    })
}

/// Allocation events between rank 0's `Step` events 4 and 8 of a
/// 10-step run through the whole step loop (`run_supervised_with_progress`
/// with a progress sink). A nonzero `checkpoint_interval` turns
/// supervision on; one past the last step keeps every checkpoint out of
/// the window, and 6 puts one inside it. The window ends two steps before
/// the last, so no rank is tearing down inside it.
fn step_loop_allocations(threads: usize, ranks: usize, checkpoint_interval: usize) -> usize {
    let dir = std::env::temp_dir().join(format!("mas_alloc_guard_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut deck = guard_deck(threads);
    deck.time.n_steps = 10;
    deck.checkpoint.interval = checkpoint_interval;
    deck.checkpoint.dir = dir.to_string_lossy().into_owned();
    let marks = Arc::new([AtomicUsize::new(0), AtomicUsize::new(0)]);
    let sink = {
        let marks = marks.clone();
        progress_fn(move |e: &ProgressEvent| {
            let mark = match *e {
                ProgressEvent::Step { rank: 0, step: 4, .. } => &marks[0],
                ProgressEvent::Step { rank: 0, step: 8, .. } => &marks[1],
                _ => return true,
            };
            mark.store(ALLOC_EVENTS.load(Ordering::SeqCst), Ordering::SeqCst);
            true
        })
    };
    let spec = DeviceSpec::a100_40gb();
    let report = run_supervised_with_progress(&deck, CodeVersion::A, spec, ranks, 1, false, Some(sink))
        .unwrap_or_else(|e| panic!("{e}"));
    let _ = std::fs::remove_dir_all(&dir);
    let checkpoints = deck.time.n_steps.checked_div(checkpoint_interval).unwrap_or(0);
    for r in &report.ranks {
        assert_eq!(r.recovery.supervised, checkpoint_interval > 0, "rank {}", r.rank);
        assert_eq!(r.recovery.checkpoints_written, checkpoints, "rank {}", r.rank);
    }
    let [start, end] = [0, 1].map(|i| marks[i].load(Ordering::SeqCst));
    assert!(start > 0 && end >= start, "rank 0 must report steps 4 and 8");
    end - start
}

/// The 12×10×12 quickstart deck both guards step, with diagnostics off.
fn guard_deck(threads: usize) -> Deck {
    let mut deck = Deck::preset_quickstart();
    deck.grid = GridCfg { nr: 12, nt: 10, np: 12, rmax: 8.0 };
    deck.output.hist_interval = 0; // diagnostics off: pure stepping
    deck.host_threads = threads;
    deck
}

#[test]
fn lean_hot_path_is_allocation_free_after_warmup() {
    for (threads, ranks) in [(1, 1), (2, 2)] {
        let deltas = steady_state_allocations(threads, ranks);
        assert!(
            deltas.iter().all(|&d| d == 0),
            "hot path allocated over {MEASURED_STEPS} steps after warmup at \
             {ranks} rank(s) x {threads} thread(s): {deltas:?} (per rank)"
        );
    }
    for (threads, ranks, checkpoint_interval) in [(1, 1, 0), (2, 2, 0), (1, 2, 11)] {
        let delta = step_loop_allocations(threads, ranks, checkpoint_interval);
        assert_eq!(
            delta, 0,
            "the step loop allocated between steps 4 and 8 at {ranks} rank(s) x \
             {threads} thread(s), checkpoint interval {checkpoint_interval}"
        );
    }
    // One committed checkpoint (step 6) inside the window: the dump's
    // file I/O allocates, but the rollback snapshot is refilled in place
    // instead of cloning the eight state arrays (38 events when it was).
    let delta = step_loop_allocations(1, 2, 6);
    eprintln!("checkpoint window: {delta}");
    assert!(
        delta <= 20,
        "the step loop allocated {delta} times between steps 4 and 8 at 2 rank(s) x 1 \
         thread(s) around one checkpoint"
    );
}
