#![warn(missing_docs)]
//! # mas-field
//!
//! Ghost-extended 3-D arrays and staggered fields — the data containers of
//! the `mas-rs` MHD solver.
//!
//! Design notes:
//!
//! * Storage is a single contiguous `Vec<f64>` in **Fortran order**
//!   (`i` fastest), matching MAS's memory layout — the layout matters
//!   because the performance model charges kernels by bytes streamed, and
//!   the halo pack/unpack paths slice φ-planes, which are the *slowest*
//!   index and therefore contiguous 2-D blocks.
//! * Every [`Array3`] has the same ghost width on all axes
//!   ([`mas_grid::NGHOST`]); staggered logical dimensions come from
//!   [`mas_grid::Stagger::dims`].
//! * A [`Field`] pairs an array with its staggering and (optionally) the
//!   model [`gpusim::BufferId`] assigned when the field is registered with
//!   a `gpusim` memory manager — the physics code passes those ids to the
//!   `stdpar` launch API so unified-memory paging can be modeled.

pub mod array3;
pub mod field;
pub mod halo;
pub mod norms;
pub mod parview;

pub use array3::Array3;
pub use parview::{arm_captures, capture_begin, capture_end, disarm_captures, ParView3, ViewAccess};
pub use field::{Field, VecField};
pub use halo::{pack_phi_plane, unpack_phi_plane, PhiHalo};
pub use norms::{dot, linf_diff, linf_norm, rel_l2_diff, weighted_l2};
