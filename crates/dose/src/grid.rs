//! The dose grid: the voxelization shared by phantom, dose engine and
//! dose deposition matrix (matrix row = flattened voxel index).

/// A regular 3D voxel grid.
///
/// Flattened voxel index: `(z * ny + y) * nx + x` — x is the
/// fastest-varying axis, so a beam travelling along ±x deposits dose in
/// runs of consecutive indices (which is what makes the RayStation-style
/// segment format compact).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DoseGrid {
    pub nx: usize,
    pub ny: usize,
    pub nz: usize,
    /// Isotropic voxel edge length in millimetres.
    pub voxel_mm: f64,
}

impl DoseGrid {
    pub fn new(nx: usize, ny: usize, nz: usize, voxel_mm: f64) -> Self {
        assert!(nx > 0 && ny > 0 && nz > 0, "grid must be non-empty");
        assert!(voxel_mm > 0.0, "voxel size must be positive");
        DoseGrid {
            nx,
            ny,
            nz,
            voxel_mm,
        }
    }

    /// Total voxel count — the number of matrix rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        false // constructor enforces non-empty dims
    }

    /// Flattened index of voxel `(x, y, z)`.
    #[inline]
    pub fn index(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.nx && y < self.ny && z < self.nz);
        (z * self.ny + y) * self.nx + x
    }

    /// Inverse of [`DoseGrid::index`].
    #[inline]
    pub fn coords(&self, idx: usize) -> (usize, usize, usize) {
        debug_assert!(idx < self.len());
        let x = idx % self.nx;
        let y = (idx / self.nx) % self.ny;
        let z = idx / (self.nx * self.ny);
        (x, y, z)
    }

    /// Physical extent along each axis in millimetres.
    pub fn extent_mm(&self) -> (f64, f64, f64) {
        (
            self.nx as f64 * self.voxel_mm,
            self.ny as f64 * self.voxel_mm,
            self.nz as f64 * self.voxel_mm,
        )
    }

    /// Grid centre in voxel coordinates.
    pub fn center(&self) -> (f64, f64, f64) {
        (
            self.nx as f64 / 2.0,
            self.ny as f64 / 2.0,
            self.nz as f64 / 2.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_roundtrip() {
        let g = DoseGrid::new(7, 5, 3, 2.0);
        for idx in 0..g.len() {
            let (x, y, z) = g.coords(idx);
            assert_eq!(g.index(x, y, z), idx);
        }
    }

    #[test]
    fn x_is_fastest() {
        let g = DoseGrid::new(10, 4, 4, 1.0);
        assert_eq!(g.index(3, 1, 2) + 1, g.index(4, 1, 2));
    }

    #[test]
    fn extent_and_center() {
        let g = DoseGrid::new(10, 20, 30, 2.5);
        assert_eq!(g.extent_mm(), (25.0, 50.0, 75.0));
        assert_eq!(g.center(), (5.0, 10.0, 15.0));
        assert_eq!(g.len(), 6000);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn rejects_empty() {
        let _ = DoseGrid::new(0, 5, 5, 1.0);
    }
}
