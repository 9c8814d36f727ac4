//! Staggered field locations on the Yee-style spherical mesh.
//!
//! MAS stores its MHD state on a staggered arrangement:
//!
//! * scalars (ρ, T, p) at **cell centers**;
//! * velocity and magnetic-field components at **face centers** normal to
//!   their component direction (`v_r`, `B_r` on r-faces, …);
//! * electric field / current density components along **edges**
//!   (`E_r` along r-edges, i.e. centered in r, staggered in θ and φ);
//! * curvilinear corner quantities at **vertices**.
//!
//! This module defines the [`Stagger`] enum plus the logical dimensions of
//! each staggering given the cell counts of the grid.

/// Staggered location of a field on the mesh.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stagger {
    /// Cell centers: dims `(nr, nt, np)`.
    CellCenter,
    /// Centers of faces normal to r: dims `(nr+1, nt, np)`.
    FaceR,
    /// Centers of faces normal to θ: dims `(nr, nt+1, np)`.
    FaceT,
    /// Centers of faces normal to φ: dims `(nr, nt, np+1)`.
    FaceP,
    /// Edges directed along r (staggered in θ and φ): dims `(nr, nt+1, np+1)`.
    EdgeR,
    /// Edges directed along θ: dims `(nr+1, nt, np+1)`.
    EdgeT,
    /// Edges directed along φ: dims `(nr+1, nt+1, np)`.
    EdgeP,
    /// Cell vertices: dims `(nr+1, nt+1, np+1)`.
    Vertex,
}

impl Stagger {
    /// All staggerings, for exhaustive tests.
    pub const ALL: [Stagger; 8] = [
        Stagger::CellCenter,
        Stagger::FaceR,
        Stagger::FaceT,
        Stagger::FaceP,
        Stagger::EdgeR,
        Stagger::EdgeT,
        Stagger::EdgeP,
        Stagger::Vertex,
    ];

    /// Logical (ghost-free) dimensions of a field with this staggering on a
    /// grid of `(nr, nt, np)` cells.
    pub fn dims(self, nr: usize, nt: usize, np: usize) -> (usize, usize, usize) {
        let (sr, st, sp) = self.offsets();
        (nr + sr, nt + st, np + sp)
    }

    /// Per-axis size increments relative to the cell-centered dims:
    /// 1 where the location sits on faces/edges of that axis.
    pub fn offsets(self) -> (usize, usize, usize) {
        match self {
            Stagger::CellCenter => (0, 0, 0),
            Stagger::FaceR => (1, 0, 0),
            Stagger::FaceT => (0, 1, 0),
            Stagger::FaceP => (0, 0, 1),
            Stagger::EdgeR => (0, 1, 1),
            Stagger::EdgeT => (1, 0, 1),
            Stagger::EdgeP => (1, 1, 0),
            Stagger::Vertex => (1, 1, 1),
        }
    }

    /// True if the location is staggered (lies on the half mesh) along the
    /// given axis (0 = r, 1 = θ, 2 = φ).
    pub fn on_half_mesh(self, axis: usize) -> bool {
        let o = self.offsets();
        match axis {
            0 => o.0 == 1,
            1 => o.1 == 1,
            2 => o.2 == 1,
            _ => panic!("axis must be 0..3"),
        }
    }

    /// The face staggering normal to `axis`.
    pub fn face(axis: usize) -> Stagger {
        match axis {
            0 => Stagger::FaceR,
            1 => Stagger::FaceT,
            2 => Stagger::FaceP,
            _ => panic!("axis must be 0..3"),
        }
    }

    /// The edge staggering along `axis`.
    pub fn edge(axis: usize) -> Stagger {
        match axis {
            0 => Stagger::EdgeR,
            1 => Stagger::EdgeT,
            2 => Stagger::EdgeP,
            _ => panic!("axis must be 0..3"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_match_offsets() {
        for s in Stagger::ALL {
            let (a, b, c) = s.dims(10, 20, 30);
            let (x, y, z) = s.offsets();
            assert_eq!((a, b, c), (10 + x, 20 + y, 30 + z));
        }
    }

    #[test]
    fn face_and_edge_constructors() {
        assert_eq!(Stagger::face(0), Stagger::FaceR);
        assert_eq!(Stagger::face(2), Stagger::FaceP);
        assert_eq!(Stagger::edge(1), Stagger::EdgeT);
    }

    #[test]
    fn half_mesh_flags() {
        assert!(Stagger::FaceR.on_half_mesh(0));
        assert!(!Stagger::FaceR.on_half_mesh(1));
        assert!(Stagger::EdgeR.on_half_mesh(1));
        assert!(Stagger::EdgeR.on_half_mesh(2));
        assert!(!Stagger::EdgeR.on_half_mesh(0));
        assert!(Stagger::Vertex.on_half_mesh(0));
    }
}
