#![warn(missing_docs)]
//! # mas-serve — a multi-run job scheduler over the virtual GPU fleet
//!
//! The paper's production context is a shared GPU cluster running many
//! MAS studies at once. This crate is that operational layer for the
//! reproduction: a long-running server that accepts deck submissions
//! from many clients, queues them with priorities and per-tenant
//! quotas, schedules them onto a fixed pool of [`gpusim`] devices, and
//! runs each job under the fault-tolerant supervisor — so checkpointing,
//! rollback and rank-respawn recovery are inherited per job, not
//! reimplemented here.
//!
//! The pieces:
//!
//! * [`job`] — what a submission is ([`JobSpec`]) and its lifecycle
//!   ([`JobState`], [`JobStatus`]);
//! * [`cache`] — the content-addressed result cache: resubmitting an
//!   identical run (same deck content hash, code version, rank layout
//!   and seed) returns the completed report instantly, running zero
//!   steps;
//! * [`server`] — the scheduler itself: queue, worker pool, device
//!   leasing, progress streaming and cooperative cancellation;
//! * [`journal`] — the write-ahead journal that makes the server
//!   crash-only: every state transition is a CRC32-framed, fsync'd
//!   record, replayed by [`Server::recover`] after a crash or restart;
//! * [`client`] — the retrying TCP [`RemoteClient`];
//! * [`wire`] — the line protocol spoken by the `mas_serve` TCP binary,
//!   including the bounded line reader the server's edge uses.
//!
//! Scheduling policy, quota semantics, the cache key and the journal
//! format are documented in `DESIGN.md` (§ mas-serve, § durable
//! serving).

pub mod cache;
pub mod client;
pub mod job;
pub mod journal;
pub mod server;
pub mod wire;

pub use cache::CacheKey;
pub use client::{RemoteClient, RetryPolicy};
pub use job::{JobId, JobSpec, JobState, JobStatus};
pub use server::{RecoverySummary, Server, ServerConfig, ServerStats, SubmitError};
