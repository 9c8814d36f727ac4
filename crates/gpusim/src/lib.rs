#![warn(missing_docs)]
//! # gpusim — a virtual accelerator for deterministic performance studies
//!
//! The paper this workspace reproduces measures a production Fortran MHD
//! code on NVIDIA A100 GPUs under six programming-model configurations.
//! Rust has no GPU `do concurrent` equivalent and the reproduction
//! environment has no GPU, so `gpusim` substitutes the *hardware* while the
//! physics runs for real: every kernel's closure executes on the host, and a
//! **deterministic virtual clock** advances according to a calibrated
//! first-order performance model of the device.
//!
//! The model captures exactly the mechanisms the paper identifies as the
//! sources of performance differences between its code versions:
//!
//! * **memory-bandwidth-bound kernels** — MAS performance is proportional
//!   to memory bandwidth (paper §III), so kernel time is
//!   `launch overhead + max(bytes/BW, flops/F)`;
//! * **kernel fusion** — OpenACC `parallel` regions compile many loops into
//!   one kernel (one launch overhead); `do concurrent` forces kernel
//!   fission (one overhead per loop) — paper §IV-B;
//! * **asynchronous launches** — OpenACC `async` pipelines launch overhead
//!   behind execution; DC cannot — paper §IV-B;
//! * **manual vs unified memory** — manual data directives keep arrays
//!   resident and let MPI use GPU peer-to-peer transfers; unified managed
//!   memory pages data between CPU and GPU on demand, which is catastrophic
//!   inside MPI halo exchanges — paper §V-C and Fig. 4;
//! * **CPU execution** — the same kernels can run against a CPU-node spec
//!   (dual-socket EPYC) including a cache-residency bandwidth bonus, which
//!   reproduces Table III's super-linear node scaling.
//!
//! Everything is deterministic given a seed; "run-to-run" error bars are
//! produced by a seeded log-normal jitter on launch overheads, mirroring
//! the min/max-of-three-runs bars in the paper's figures.

pub mod clock;
pub mod context;
pub mod memory;
pub mod pool;
pub mod profiler;
pub mod spec;

pub use clock::VirtualClock;
pub use context::{DeviceContext, LaunchMode};
pub use memory::{BufferId, DataMode, MemoryManager, Residency};
pub use pool::{DeviceLease, DevicePool, PoolStats};
pub use profiler::{Phase, Profiler, Span, TimeCategory};
pub use spec::{DeviceSpec, Traffic};

/// Microseconds per minute — the paper reports wall clock in minutes.
pub const US_PER_MIN: f64 = 60.0e6;
