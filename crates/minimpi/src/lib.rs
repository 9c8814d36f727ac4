#![warn(missing_docs)]
//! # minimpi — a thread-rank message-passing substrate with virtual time
//!
//! MAS is parallelized with MPI; the paper's multi-GPU runs place one MPI
//! rank per GPU in a single NVLink-connected node. This crate reproduces
//! that structure on threads:
//!
//! * [`World::run`] spawns one OS thread per rank and hands each a
//!   [`Comm`] handle connected to every peer by in-process channels;
//! * messages carry the **sender's virtual timestamp**; a receive
//!   reconciles the receiver's clock to
//!   `max(t_local, t_send + transfer_time)` — the LogGP-style rule that
//!   makes simulated multi-rank timings deterministic regardless of how
//!   the OS actually schedules the threads;
//! * collectives (barrier, allreduce) synchronize all virtual clocks and
//!   reduce **in rank order**, so results are bitwise deterministic;
//! * the transfer path is selectable per message: GPU peer-to-peer
//!   (CUDA-aware MPI with manual data management) or host-staged (what
//!   unified memory forces, Fig. 4 of the paper).
//!
//! The real data movement is a `Vec<f64>` through a channel — physics
//! correctness and the timing model are decoupled by design.

pub(crate) mod chan;
pub mod comm;
pub mod world;

pub use comm::{Comm, CommFailure, NetFault, NetPath, RecvFailure, ReduceOp, Tag};
pub use world::{RankPanic, ResilientReport, RespawnEvent, World};

/// A millisecond duration scaled by the `MAS_TEST_TIME_SCALE` environment
/// variable (default 1.0). Timing-sensitive tests use this for every
/// deadline so a loaded CI machine can stretch them uniformly
/// (`MAS_TEST_TIME_SCALE=4`) instead of flaking.
pub fn scaled_ms(ms: u64) -> std::time::Duration {
    let scale = std::env::var("MAS_TEST_TIME_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0)
        .unwrap_or(1.0);
    std::time::Duration::from_micros((ms as f64 * 1000.0 * scale) as u64)
}
