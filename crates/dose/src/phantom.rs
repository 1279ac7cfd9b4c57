//! Voxelized density phantoms standing in for patient CT data.

use crate::grid::DoseGrid;

/// Tissue materials with relative (water = 1.0) stopping densities.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Material {
    Air,
    Lung,
    Adipose,
    Water,
    SoftTissue,
    Liver,
    Bone,
}

impl Material {
    /// Relative proton stopping power (water-equivalent density).
    pub fn density(self) -> f64 {
        match self {
            Material::Air => 0.001,
            Material::Lung => 0.26,
            Material::Adipose => 0.95,
            Material::Water => 1.0,
            Material::SoftTissue => 1.04,
            Material::Liver => 1.06,
            Material::Bone => 1.6,
        }
    }
}

/// An axis-aligned ellipsoid in voxel coordinates, used both for anatomy
/// and to delineate targets / organs-at-risk.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Ellipsoid {
    pub center: (f64, f64, f64),
    pub radii: (f64, f64, f64),
}

impl Ellipsoid {
    pub fn contains(&self, x: f64, y: f64, z: f64) -> bool {
        let dx = (x - self.center.0) / self.radii.0;
        let dy = (y - self.center.1) / self.radii.1;
        let dz = (z - self.center.2) / self.radii.2;
        dx * dx + dy * dy + dz * dz <= 1.0
    }
}

/// A density volume on a [`DoseGrid`].
#[derive(Clone, Debug)]
pub struct Phantom {
    grid: DoseGrid,
    density: Vec<f64>,
    /// The target (tumour) contour, if delineated.
    target: Option<Ellipsoid>,
}

impl Phantom {
    /// A uniform phantom of the given material.
    pub fn uniform(grid: DoseGrid, material: Material) -> Self {
        Phantom {
            grid,
            density: vec![material.density(); grid.len()],
            target: None,
        }
    }

    /// A water phantom — the classic commissioning geometry.
    pub fn water_box(grid: DoseGrid) -> Self {
        Phantom::uniform(grid, Material::Water)
    }

    #[inline]
    pub fn grid(&self) -> DoseGrid {
        self.grid
    }

    /// Paints an ellipsoidal region with a material.
    pub fn paint_ellipsoid(&mut self, e: Ellipsoid, material: Material) -> &mut Self {
        for z in 0..self.grid.nz {
            for y in 0..self.grid.ny {
                for x in 0..self.grid.nx {
                    if e.contains(x as f64 + 0.5, y as f64 + 0.5, z as f64 + 0.5) {
                        self.density[self.grid.index(x, y, z)] = material.density();
                    }
                }
            }
        }
        self
    }

    /// Declares the target contour (used by beam construction to aim
    /// spots, and by the optimizer to define objectives).
    pub fn set_target(&mut self, e: Ellipsoid) -> &mut Self {
        self.target = Some(e);
        self
    }

    #[inline]
    pub fn target(&self) -> Option<Ellipsoid> {
        self.target
    }

    /// Density at a voxel.
    #[inline]
    pub fn density_at(&self, x: usize, y: usize, z: usize) -> f64 {
        self.density[self.grid.index(x, y, z)]
    }

    #[inline]
    pub fn densities(&self) -> &[f64] {
        &self.density
    }

    /// Flattened indices of voxels inside the target contour.
    pub fn target_voxels(&self) -> Vec<usize> {
        let Some(t) = self.target else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for z in 0..self.grid.nz {
            for y in 0..self.grid.ny {
                for x in 0..self.grid.nx {
                    if t.contains(x as f64 + 0.5, y as f64 + 0.5, z as f64 + 0.5) {
                        out.push(self.grid.index(x, y, z));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_water() {
        let p = Phantom::water_box(DoseGrid::new(4, 4, 4, 1.0));
        assert!(p.densities().iter().all(|&d| d == 1.0));
    }

    #[test]
    fn painted_ellipsoid_changes_density() {
        let grid = DoseGrid::new(10, 10, 10, 1.0);
        let mut p = Phantom::water_box(grid);
        let e = Ellipsoid {
            center: (5.0, 5.0, 5.0),
            radii: (2.0, 2.0, 2.0),
        };
        p.paint_ellipsoid(e, Material::Bone);
        assert_eq!(p.density_at(5, 5, 5), Material::Bone.density());
        assert_eq!(p.density_at(0, 0, 0), 1.0);
    }

    #[test]
    fn target_voxels_inside_contour() {
        let grid = DoseGrid::new(10, 10, 10, 1.0);
        let mut p = Phantom::water_box(grid);
        let e = Ellipsoid {
            center: (5.0, 5.0, 5.0),
            radii: (2.5, 2.5, 2.5),
        };
        p.set_target(e);
        let tv = p.target_voxels();
        assert!(!tv.is_empty());
        // All returned voxels really are inside.
        for &idx in &tv {
            let (x, y, z) = grid.coords(idx);
            assert!(e.contains(x as f64 + 0.5, y as f64 + 0.5, z as f64 + 0.5));
        }
        // Roughly the ellipsoid volume (4/3 pi r^3 ~ 65).
        assert!((40..=90).contains(&tv.len()), "got {}", tv.len());
    }

    #[test]
    fn no_target_no_voxels() {
        let p = Phantom::water_box(DoseGrid::new(4, 4, 4, 1.0));
        assert!(p.target_voxels().is_empty());
    }

    #[test]
    fn material_densities_ordered() {
        assert!(Material::Air.density() < Material::Lung.density());
        assert!(Material::Lung.density() < Material::Water.density());
        assert!(Material::Water.density() < Material::Bone.density());
    }
}
