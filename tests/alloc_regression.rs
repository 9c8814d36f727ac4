//! Allocation-count regression guard for the hot path.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! warm-up phase (lazy pools spawn, halo/scratch buffers reach their
//! high-water marks) further `step::advance` calls must perform **zero**
//! heap allocations — on one rank and one thread, and on two ranks with
//! two host threads each, where the halo exchange and the collectives
//! run their real multi-rank transport. This pins allocation-free
//! stepping as a hard invariant rather than a number that only shows up
//! as a wall-clock delta.
//!
//! The test lives in its own integration-test binary so no concurrently
//! running sibling test can allocate against the shared counter; the
//! two configurations run one after the other inside a single test.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use mas::config::GridCfg;
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
    let mut deck = Deck::preset_quickstart();
    deck.grid = GridCfg { nr: 12, nt: 10, np: 12, rmax: 8.0 };
    deck.time.n_steps = WARMUP_STEPS + MEASURED_STEPS;
    deck.output.hist_interval = 0; // diagnostics off: pure stepping
    deck.host_threads = threads;

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
}
