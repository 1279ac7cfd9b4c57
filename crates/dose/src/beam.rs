//! Beam geometry: axis-aligned proton beams with energy layers and a
//! scanned lateral spot grid (pencil beam scanning, Figure 1).

use crate::phantom::Phantom;
use crate::physics;

/// Direction the beam travels through the grid. Gantry angles are
//  quantized to the grid axes (the liver case uses all four ±x/±y
/// directions, the prostate case the two opposed ±x ones) — sufficient
/// for reproducing matrix structure, and it keeps water-equivalent depth
/// integration exact.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BeamAxis {
    /// Travelling toward +x (enters at x = 0).
    XPlus,
    /// Travelling toward -x (enters at x = nx-1).
    XMinus,
    /// Travelling toward +y.
    YPlus,
    /// Travelling toward -y.
    YMinus,
}

impl BeamAxis {
    /// Human-readable gantry label.
    pub fn label(self) -> &'static str {
        match self {
            BeamAxis::XPlus => "gantry 270",
            BeamAxis::XMinus => "gantry 90",
            BeamAxis::YPlus => "gantry 0",
            BeamAxis::YMinus => "gantry 180",
        }
    }
}

/// One pencil-beam spot: a lateral position in the beam's eye view plus a
/// beam energy (equivalently, an energy-layer range).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spot {
    /// First lateral coordinate in mm (y for x-beams, x for y-beams).
    pub u_mm: f64,
    /// Second lateral coordinate in mm (always z).
    pub v_mm: f64,
    /// Nominal range in water-equivalent mm (defines the energy layer).
    pub range_mm: f64,
}

impl Spot {
    /// Beam energy in MeV corresponding to the spot's range.
    pub fn energy_mev(&self) -> f64 {
        physics::energy_from_range(self.range_mm)
    }
}

/// A treatment beam: an axis plus its scanned spots. The spot order is
/// the scanline pattern of the paper's Figure 1 (serpentine within each
/// energy layer, layers from deep to shallow, as delivered clinically).
#[derive(Clone, Debug)]
pub struct Beam {
    pub axis: BeamAxis,
    pub spots: Vec<Spot>,
    /// Lateral spot sigma at the phantom surface, mm.
    pub sigma0_mm: f64,
}

/// Parameters for constructing a beam's spot grid over a target.
#[derive(Clone, Copy, Debug)]
pub struct SpotGridConfig {
    /// Lateral distance between neighbouring spots, mm.
    pub lateral_spacing_mm: f64,
    /// Water-equivalent distance between energy layers, mm.
    pub layer_spacing_mm: f64,
    /// Margin added around the target projection, mm.
    pub margin_mm: f64,
    /// Surface spot sigma, mm.
    pub sigma0_mm: f64,
}

impl Default for SpotGridConfig {
    fn default() -> Self {
        SpotGridConfig {
            lateral_spacing_mm: 5.0,
            layer_spacing_mm: 6.0,
            margin_mm: 6.0,
            sigma0_mm: 5.0,
        }
    }
}

impl Beam {
    /// Builds the spot grid covering the phantom's target from the given
    /// axis. Spots are placed on a regular lateral grid clipped to the
    /// target's elliptical projection (+margin), for each energy layer
    /// spanning the target's depth extent.
    ///
    /// Panics if the phantom has no target contour.
    pub fn covering_target(phantom: &Phantom, axis: BeamAxis, cfg: SpotGridConfig) -> Beam {
        let target = phantom
            .target()
            .expect("phantom must have a target contour");
        let grid = phantom.grid();
        let vox = grid.voxel_mm;

        // Target geometry in mm. Depth axis + lateral axes by beam axis.
        let (c_depth, c_u, r_depth, r_u) = match axis {
            BeamAxis::XPlus | BeamAxis::XMinus => (
                target.center.0 * vox,
                target.center.1 * vox,
                target.radii.0 * vox,
                target.radii.1 * vox,
            ),
            BeamAxis::YPlus | BeamAxis::YMinus => (
                target.center.1 * vox,
                target.center.0 * vox,
                target.radii.1 * vox,
                target.radii.0 * vox,
            ),
        };
        let c_v = target.center.2 * vox;
        let r_v = target.radii.2 * vox;

        // Entry-side depth of the target, measured along the beam.
        let depth_extent_mm = match axis {
            BeamAxis::XPlus | BeamAxis::YPlus => (c_depth - r_depth, c_depth + r_depth),
            BeamAxis::XMinus => {
                let total = grid.nx as f64 * vox;
                (total - c_depth - r_depth, total - c_depth + r_depth)
            }
            BeamAxis::YMinus => {
                let total = grid.ny as f64 * vox;
                (total - c_depth - r_depth, total - c_depth + r_depth)
            }
        };

        // Energy layers: nominal ranges spanning the depth extent. Dose
        // grids are mostly near-water density, so geometric depth is a
        // good proxy for the water-equivalent range.
        let mut spots = Vec::new();
        let mut range = depth_extent_mm.1 + cfg.margin_mm * 0.5; // deepest layer first
        let min_range = (depth_extent_mm.0 - cfg.margin_mm * 0.5).max(cfg.layer_spacing_mm);
        let mut serpentine = false;
        while range >= min_range {
            // The target's elliptical cross-section at this depth.
            let depth_frac = ((range - c_depth) / r_depth).clamp(-1.0, 1.0);
            let shrink = (1.0 - depth_frac * depth_frac).sqrt().max(0.15);
            let ru = r_u * shrink + cfg.margin_mm;
            let rv = r_v * shrink + cfg.margin_mm;

            let nu = (2.0 * ru / cfg.lateral_spacing_mm).ceil() as i64;
            let nv = (2.0 * rv / cfg.lateral_spacing_mm).ceil() as i64;
            for j in -nv / 2..=nv / 2 {
                let v = c_v + j as f64 * cfg.lateral_spacing_mm;
                let mut row: Vec<Spot> = (-nu / 2..=nu / 2)
                    .map(|i| Spot {
                        u_mm: c_u + i as f64 * cfg.lateral_spacing_mm,
                        v_mm: v,
                        range_mm: range,
                    })
                    .filter(|s| {
                        let du = (s.u_mm - c_u) / ru;
                        let dv = (s.v_mm - c_v) / rv;
                        du * du + dv * dv <= 1.0
                    })
                    .collect();
                if serpentine {
                    row.reverse();
                }
                serpentine = !serpentine;
                spots.extend(row);
            }
            range -= cfg.layer_spacing_mm;
        }

        Beam {
            axis,
            spots,
            sigma0_mm: cfg.sigma0_mm,
        }
    }

    /// Number of spots — the matrix column count contributed by this beam.
    pub fn num_spots(&self) -> usize {
        self.spots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::DoseGrid;
    use crate::phantom::{Ellipsoid, Material, Phantom};

    fn phantom() -> Phantom {
        let grid = DoseGrid::new(40, 40, 40, 2.5); // 10 cm cube
        let mut p = Phantom::uniform(grid, Material::SoftTissue);
        p.set_target(Ellipsoid {
            center: (20.0, 20.0, 20.0),
            radii: (6.0, 5.0, 4.0),
        });
        p
    }

    #[test]
    fn spots_cover_target_depth_range() {
        let p = phantom();
        let b = Beam::covering_target(&p, BeamAxis::XPlus, SpotGridConfig::default());
        assert!(b.num_spots() > 50, "got {}", b.num_spots());
        let ranges: Vec<f64> = b.spots.iter().map(|s| s.range_mm).collect();
        let min = ranges.iter().cloned().fold(f64::MAX, f64::min);
        let max = ranges.iter().cloned().fold(0.0, f64::max);
        // Target spans depth 35..65 mm (center 50, radius 15).
        assert!(min < 45.0, "min range {min}");
        assert!(max > 55.0, "max range {max}");
    }

    #[test]
    fn spots_lie_within_lateral_projection() {
        let p = phantom();
        let b = Beam::covering_target(&p, BeamAxis::XPlus, SpotGridConfig::default());
        // Lateral center: u = y = 50 mm, v = z = 50 mm; radius u = 12.5 mm
        // + margin.
        for s in &b.spots {
            assert!((s.u_mm - 50.0).abs() <= 12.5 + 7.0, "u {}", s.u_mm);
            assert!((s.v_mm - 50.0).abs() <= 10.0 + 7.0, "v {}", s.v_mm);
        }
    }

    #[test]
    fn opposed_beams_have_similar_spot_counts() {
        let p = phantom();
        let a = Beam::covering_target(&p, BeamAxis::XPlus, SpotGridConfig::default());
        let b = Beam::covering_target(&p, BeamAxis::XMinus, SpotGridConfig::default());
        let ratio = a.num_spots() as f64 / b.num_spots() as f64;
        assert!((0.8..1.25).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn y_axis_beam_swaps_lateral_coords() {
        let grid = DoseGrid::new(60, 40, 40, 2.5);
        let mut p = Phantom::uniform(grid, Material::SoftTissue);
        // Off-center target in x.
        p.set_target(Ellipsoid {
            center: (40.0, 20.0, 20.0),
            radii: (5.0, 5.0, 4.0),
        });
        let b = Beam::covering_target(&p, BeamAxis::YPlus, SpotGridConfig::default());
        // u is now the x coordinate: spots center near 100 mm.
        let mean_u: f64 = b.spots.iter().map(|s| s.u_mm).sum::<f64>() / b.num_spots() as f64;
        assert!((mean_u - 100.0).abs() < 10.0, "mean u {mean_u}");
    }

    #[test]
    fn spot_energy_is_consistent_with_range() {
        let s = Spot {
            u_mm: 0.0,
            v_mm: 0.0,
            range_mm: 100.0,
        };
        let e = s.energy_mev();
        assert!((physics::range_from_energy(e) - 100.0).abs() < 1e-9);
    }

    #[test]
    fn layer_count_scales_with_spacing() {
        let p = phantom();
        let coarse = Beam::covering_target(
            &p,
            BeamAxis::XPlus,
            SpotGridConfig {
                layer_spacing_mm: 12.0,
                ..Default::default()
            },
        );
        let fine = Beam::covering_target(
            &p,
            BeamAxis::XPlus,
            SpotGridConfig {
                layer_spacing_mm: 3.0,
                ..Default::default()
            },
        );
        assert!(fine.num_spots() > 2 * coarse.num_spots());
    }
}
