#![warn(missing_docs)]
//! # mas-mhd — the thermodynamic solar-MHD solver
//!
//! The Rust reproduction of the physics core of MAS (Magnetohydrodynamic
//! Algorithm outside a Sphere): single-fluid thermodynamic MHD on a
//! non-uniform staggered spherical grid, advanced with the same algorithm
//! family the production code uses —
//!
//! * upwind finite-volume **advection** of mass and temperature,
//! * **momentum** equation with pressure gradient, Lorentz force `J×B`
//!   (constrained-transport staggering), gravity,
//! * **implicit viscosity** solved by a matrix-free preconditioned
//!   conjugate-gradient solver (the solver profiled in the paper's Fig. 4),
//! * Spitzer-like **thermal conduction** advanced with RKL2
//!   super-time-stepping (the method of the paper's ref.\[25\]),
//! * optically-thin **radiative losses** and an exponential coronal
//!   **heating** source,
//! * **resistive induction** via constrained transport, preserving
//!   `∇·B = 0` to round-off,
//! * polar-axis regularization (the array-reduction loops of the paper's
//!   Listings 3–5) and periodic-φ **MPI halo exchange**.
//!
//! Every loop goes through the [`stdpar::Par`] executor, so the whole
//! solver runs under any of the paper's six code versions; physics results
//! are identical across versions while the virtual-platform timings differ.
//!
//! Simplifications relative to the 70k-line production code are documented
//! in `DESIGN.md` (§ substitution table): componentwise viscous operator,
//! reflective polar ghost treatment, and a φ-slab (not 3-D block) MPI
//! decomposition. Field-aligned conduction (`κ∥ b̂b̂·∇T`) and the
//! ref.-\[25\] solver options (PCG / RKL2-STS / explicit viscosity) are
//! available through the input deck.

pub mod bc;
pub mod checkpoint;
pub mod diag;
pub mod halo;
pub mod ops;
pub mod physics;
pub mod progress;
pub mod run;
pub mod sim;
pub mod sites;
pub mod solvers;
pub mod state;
pub mod step;
pub mod supervisor;

pub use progress::{progress_fn, ProgressEvent, ProgressFn};
pub use run::{run_multi_rank, run_single_rank, MultiRankReport, RunReport};
pub use sim::{Simulation, SimulationBuilder};
pub use state::State;
pub use supervisor::{
    run_supervised, run_supervised_with_progress, FaultPlan, RankFailure, RecoveryLog, RunError,
};
