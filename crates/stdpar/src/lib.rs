#![warn(missing_docs)]
//! # stdpar — the programming-model layer (the paper's subject)
//!
//! MAS's physics loops are written once; *how* they execute — OpenACC
//! parallel regions with fusion and `async`, or `do concurrent` kernels
//! with fission, with manual or unified memory — is decided by the active
//! [`CodeVersion`], mirroring the paper's six ports:
//!
//! | Version | Loops | Reductions | Data |
//! |---|---|---|---|
//! | 1 `A`      | OpenACC (fused, async)         | ACC `reduction` / `atomic` | manual |
//! | 2 `AD`     | DC for plain loops, ACC rest   | ACC `reduction` / `atomic` | manual |
//! | 3 `ADU`    | same as AD                     | same as AD                 | unified |
//! | 4 `AD2XU`  | DC everywhere                  | DC2X `reduce` / DC+`atomic`| unified |
//! | 5 `D2XU`   | DC everywhere (+inlining)      | DC2X `reduce` / loop-flip  | unified |
//! | 6 `D2XAd`  | DC everywhere (+wrappers)      | DC2X `reduce` / loop-flip  | manual |
//!
//! Every loop in the solver is declared as a [`Site`] with a [`LoopClass`];
//! the [`Par`] executor runs the body (real numerics) and charges the
//! virtual device per the policy. The [`audit`] module walks the registry
//! of sites, data regions and device routines collected during execution
//! and regenerates the paper's Table I / Table II directive censuses from
//! the same porting rules the authors applied.

pub mod audit;
pub mod engine;
pub mod exec;
pub mod race;
pub mod site;
pub mod version;

pub use audit::{DirectiveAudit, DirectiveCensus, VersionLines};
pub use engine::{default_host_threads, HOST_THREADS_ENV};
pub use exec::{CostScales, Launch, Par, ParBuilder, PAR_AUDIT_ENV};
pub use race::{RaceAudit, RaceKind, RaceViolation};
pub use site::{LoopClass, RegionId, Site, SiteId, SiteRegistry, SiteStats, Tiling};
pub use version::{ArrayReduceStrategy, CodeVersion, LoopStyle, Policy};
