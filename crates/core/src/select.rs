//! `KernelSelect`: the per-matrix tile-width autotuner.
//!
//! Picking the tile width for [`vector_csr_spmm`]'s sub-warp tiles is a
//! classic shape-matching problem: narrow tiles cut the per-warp
//! fixed-overhead term (fewer warps launched) and waste fewer lanes on
//! short rows, but long rows then issue more, smaller L2 sector
//! transactions. Two strategies are offered:
//!
//! * **Heuristic** (the default): derive the width from
//!   [`RowStats`] alone — the smallest width
//!   covering the average non-empty row in one pass, bumped one step
//!   when the row-length distribution has a long tail (95th percentile
//!   ≥ 4× the average) so the tail rows don't serialize.
//! * **MeasuredProbe**: actually launch every candidate width once on a
//!   throwaway simulator instance and keep the fastest modeled time.
//!   Deterministic (the simulator's counters are exact), more
//!   expensive, never wrong about the model.
//!
//! Both return a [`KernelChoice`] carrying the full candidate table so
//! serving layers and the `rtdose kernels` CLI can show *why* a width
//! was picked.

use crate::bucketed::{bucket_label, vector_csr_spmm_bucketed, BucketWidths, GpuRowPlan};
use crate::error::RtError;
use crate::profile_half_double;
use crate::vector_csr::{vector_csr_spmm, GpuCsrMatrix};
use rt_f16::DoseScalar;
use rt_gpusim::{timing, DeviceSpec, Gpu, TILE_WIDTHS};
use rt_sparse::stats::RowStats;
use rt_sparse::{ColIndex, Csr, RowPlan, NUM_ROW_BUCKETS};
use std::sync::Arc;

/// How a calculator / serving plan picks its SpMV tile width.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum KernelSelect {
    /// Always use this width (32 = the paper's warp-per-row kernel).
    Fixed(u32),
    /// Pick from row statistics (no probe launches). The default.
    #[default]
    Heuristic,
    /// Launch every candidate width once on a throwaway
    /// simulator and keep the fastest modeled estimate.
    MeasuredProbe,
    /// Bucketed row-partition dispatch ([`crate::bucketed`]): empty rows
    /// are eliminated and every length bucket gets its own width, picked
    /// by the wrapped per-bucket strategy.
    Partitioned(PartitionStrategy),
}

/// How [`KernelSelect::Partitioned`] assigns each bucket's width.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PartitionStrategy {
    /// The natural width per bucket: the narrowest tile covering the
    /// bucket's longest row in one pass ([`BucketWidths::natural`]).
    /// No probe launches. The default.
    #[default]
    Heuristic,
    /// Launch the bucketed dispatch once per candidate width on a
    /// throwaway simulator and keep, per bucket, the width
    /// whose member launch modeled fastest.
    MeasuredProbe,
}

/// One probed (or statically scored) candidate width.
#[derive(Clone, Debug, PartialEq)]
pub struct TileCandidate {
    pub tile_width: u32,
    /// Warps launched at this width (fewer = less fixed overhead).
    pub warps: u64,
    /// Total L2 sector transactions (reads + writes) at this width.
    pub l2_sectors: u64,
    /// Modeled kernel seconds from the timing model.
    pub modeled_seconds: f64,
    /// Fraction of *scheduled* lane slots carrying a stored entry. For
    /// whole-matrix candidates this is
    /// [`RowStats::scheduled_lanes_active_frac`](rt_sparse::stats::RowStats::scheduled_lanes_active_frac)
    /// — empty rows still get a tile, so their padded lanes count against
    /// occupancy; per-bucket candidates use the bucket's own occupancy
    /// (empty rows are eliminated before bucketing, so they never appear
    /// as occupied slots in either figure).
    pub lanes_active_frac: f64,
}

/// One bucket's width decision within a [`KernelSelect::Partitioned`]
/// choice.
#[derive(Clone, Debug, PartialEq)]
pub struct BucketChoice {
    /// Bucket position in [`rt_sparse::ROW_BUCKET_BOUNDS`] order.
    pub bucket: usize,
    /// Inclusive row-length range of the bucket.
    pub min_len: u32,
    pub max_len: u32,
    /// Rows the bucket holds (0 = the bucket launches nothing).
    pub rows: u64,
    /// Stored entries across the bucket's rows.
    pub nnz: u64,
    /// The width the bucket's member launch will run at.
    pub tile_width: u32,
    /// Bucket lane occupancy at `tile_width`
    /// ([`rt_sparse::RowBucket::lanes_active_frac`]).
    pub lanes_active_frac: f64,
    /// Per-width evidence (empty for the heuristic strategy and for
    /// empty buckets).
    pub candidates: Vec<TileCandidate>,
}

/// The autotuner's decision for one matrix: the width plus the evidence.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelChoice {
    /// The selected tile width. For `Partitioned` this is the widest
    /// non-empty bucket's width (the width whole-matrix consumers of the
    /// same direction fall back to; the gradient path gets its own
    /// choice by running the selector on the transpose).
    pub tile_width: u32,
    /// Which strategy produced it: `"fixed"`, `"heuristic"`, `"probe"`,
    /// `"partitioned-heuristic"` or `"partitioned-probe"`.
    pub mode: &'static str,
    /// Average stored entries per non-empty row of the matrix.
    pub avg_nnz_nonempty: f64,
    /// The candidate table (empty for `Fixed`; statistics-only for
    /// `Heuristic`; fully probed for `MeasuredProbe`).
    pub candidates: Vec<TileCandidate>,
    /// Per-bucket decisions ([`KernelSelect::Partitioned`] only; empty
    /// for the whole-matrix strategies).
    pub buckets: Vec<BucketChoice>,
}

impl KernelChoice {
    /// The pinned per-bucket width table this decision implies:
    /// [`BucketWidths::natural`] overlaid with the per-bucket picks.
    /// Meaningful for the `Partitioned` strategies (otherwise it is just
    /// the natural table).
    pub fn bucket_widths(&self) -> BucketWidths {
        let mut widths = BucketWidths::natural();
        for bc in &self.buckets {
            widths.0[bc.bucket] = bc.tile_width;
        }
        widths
    }
}

impl KernelSelect {
    /// Resolves the strategy against a concrete matrix.
    ///
    /// `spec` is the device the probe (if any) is modeled on;
    /// `threads_per_block` matches the launch configuration the chosen
    /// kernel will run with.
    pub fn choose<V: DoseScalar, I: ColIndex>(
        &self,
        spec: &DeviceSpec,
        m: &Csr<V, I>,
        threads_per_block: u32,
    ) -> Result<KernelChoice, RtError> {
        let stats = RowStats::from_csr(m);
        match *self {
            KernelSelect::Fixed(w) => {
                if !TILE_WIDTHS.contains(&w) {
                    return Err(RtError::InvalidTileWidth(w));
                }
                Ok(KernelChoice {
                    tile_width: w,
                    mode: "fixed",
                    avg_nnz_nonempty: stats.avg_nnz_nonempty,
                    candidates: Vec::new(),
                    buckets: Vec::new(),
                })
            }
            KernelSelect::Heuristic => Ok(KernelChoice {
                tile_width: heuristic_width(&stats),
                mode: "heuristic",
                avg_nnz_nonempty: stats.avg_nnz_nonempty,
                candidates: Vec::new(),
                buckets: Vec::new(),
            }),
            KernelSelect::MeasuredProbe => {
                let candidates = probe_widths(spec, m, threads_per_block);
                let best = best_width(&candidates).unwrap_or(32);
                Ok(KernelChoice {
                    tile_width: best,
                    mode: "probe",
                    avg_nnz_nonempty: stats.avg_nnz_nonempty,
                    candidates,
                    buckets: Vec::new(),
                })
            }
            KernelSelect::Partitioned(strategy) => {
                let plan = RowPlan::from_csr(m);
                let buckets = match strategy {
                    PartitionStrategy::Heuristic => heuristic_bucket_choices(&plan),
                    PartitionStrategy::MeasuredProbe => {
                        probe_bucket_choices(spec, m, &plan, threads_per_block)
                    }
                };
                // Whole-matrix consumers of this direction fall back to
                // the widest width any populated bucket uses (each
                // direction runs its own selection: the gradient table
                // comes from choosing on the transpose).
                let tile_width = buckets
                    .iter()
                    .filter(|b| b.rows > 0)
                    .map(|b| b.tile_width)
                    .max()
                    .unwrap_or(32);
                Ok(KernelChoice {
                    tile_width,
                    mode: match strategy {
                        PartitionStrategy::Heuristic => "partitioned-heuristic",
                        PartitionStrategy::MeasuredProbe => "partitioned-probe",
                    },
                    avg_nnz_nonempty: stats.avg_nnz_nonempty,
                    candidates: Vec::new(),
                    buckets,
                })
            }
        }
    }
}

/// Fastest modeled time wins; ties break toward the wider
/// (paper-classic) kernel.
fn best_width(candidates: &[TileCandidate]) -> Option<u32> {
    candidates
        .iter()
        .max_by(
            |a, b| match b.modeled_seconds.partial_cmp(&a.modeled_seconds) {
                Some(core::cmp::Ordering::Equal) | None => a.tile_width.cmp(&b.tile_width),
                Some(ord) => ord,
            },
        )
        .map(|c| c.tile_width)
}

/// The statistics-only partition rule: every bucket takes its natural
/// width ([`BucketWidths::natural`]) — the narrowest tile covering the
/// bucket's longest row in one pass, which maximizes lane occupancy
/// without serializing any row over extra chunks.
fn heuristic_bucket_choices(plan: &RowPlan) -> Vec<BucketChoice> {
    let natural = BucketWidths::natural();
    plan.buckets()
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let tile_width = natural.0[i];
            BucketChoice {
                bucket: i,
                min_len: b.min_len,
                max_len: b.max_len,
                rows: b.len() as u64,
                nnz: b.nnz,
                tile_width,
                lanes_active_frac: b.lanes_active_frac(tile_width),
                candidates: Vec::new(),
            }
        })
        .collect()
}

/// Probes every candidate width with one full bucketed dispatch per
/// width on a throwaway simulator, attributes each member
/// launch's counters back to its bucket, and picks per bucket the width
/// whose member modeled fastest (same tie-break as the whole-matrix
/// probe). One launch per width — 5 total — not widths × buckets.
fn probe_bucket_choices<V: DoseScalar, I: ColIndex>(
    spec: &DeviceSpec,
    m: &Csr<V, I>,
    plan: &RowPlan,
    threads_per_block: u32,
) -> Vec<BucketChoice> {
    let profile = profile_half_double();
    let mut tables: Vec<Vec<TileCandidate>> = vec![Vec::new(); NUM_ROW_BUCKETS];
    let shared_plan = Arc::new(plan.clone());
    for &w in &TILE_WIDTHS {
        let gpu = Gpu::new(spec.clone());
        let gm = GpuCsrMatrix::upload(&gpu, m);
        let gplan = GpuRowPlan::upload(&gpu, shared_plan.clone());
        let x: Vec<f64> = vec![1.0; m.ncols()];
        let dx = gpu.upload(&x);
        let dy = gpu.alloc_out::<f64>(m.nrows());
        let group = vector_csr_spmm_bucketed(
            &gpu,
            &gm,
            &[&dx],
            &[&dy],
            threads_per_block,
            &gplan,
            BucketWidths::uniform(w),
        );
        for member in &group.members {
            let Some((i, bucket)) = plan
                .buckets()
                .iter()
                .enumerate()
                .find(|(_, b)| bucket_label(b.min_len, b.max_len) == member.label)
            else {
                continue; // the zero-fill member belongs to no bucket
            };
            let est = timing::estimate(spec, &profile, &member.stats);
            tables[i].push(TileCandidate {
                tile_width: w,
                warps: member.stats.warps,
                l2_sectors: member.stats.l2_read_hits
                    + member.stats.l2_read_misses
                    + member.stats.l2_write_sectors,
                modeled_seconds: est.seconds,
                lanes_active_frac: bucket.lanes_active_frac(w),
            });
        }
    }
    let natural = BucketWidths::natural();
    plan.buckets()
        .iter()
        .enumerate()
        .map(|(i, b)| {
            let candidates = std::mem::take(&mut tables[i]);
            let tile_width = best_width(&candidates).unwrap_or(natural.0[i]);
            BucketChoice {
                bucket: i,
                min_len: b.min_len,
                max_len: b.max_len,
                rows: b.len() as u64,
                nnz: b.nnz,
                tile_width,
                lanes_active_frac: b.lanes_active_frac(tile_width),
                candidates,
            }
        })
        .collect()
}

/// The statistics-only width rule: smallest width covering the average
/// non-empty row in one pass, bumped once for long-tailed distributions.
pub fn heuristic_width(stats: &RowStats) -> u32 {
    let avg = stats.avg_nnz_nonempty;
    let mut w = 2u32;
    while (w as f64) < avg && w < 32 {
        w *= 2;
    }
    if (stats.quantile(0.95) as f64) >= 4.0 * avg && w < 32 {
        w *= 2;
    }
    w
}

/// Launches every candidate width once on a throwaway
/// simulator (exact, deterministic counters) and returns the scored
/// table: one single-vector [`vector_csr_spmm`] launch per width.
pub fn probe_widths<V: DoseScalar, I: ColIndex>(
    spec: &DeviceSpec,
    m: &Csr<V, I>,
    threads_per_block: u32,
) -> Vec<TileCandidate> {
    let row_stats = RowStats::from_csr(m);
    let profile = profile_half_double();
    TILE_WIDTHS
        .iter()
        .map(|&w| {
            let gpu = Gpu::new(spec.clone());
            let gm = GpuCsrMatrix::upload(&gpu, m);
            let x: Vec<f64> = vec![1.0; m.ncols()];
            let dx = gpu.upload(&x);
            let dy = gpu.alloc_out::<f64>(m.nrows());
            let stats = vector_csr_spmm(&gpu, &gm, &[&dx], &[&dy], threads_per_block, w);
            let est = timing::estimate(spec, &profile, &stats);
            TileCandidate {
                tile_width: w,
                warps: stats.warps,
                l2_sectors: stats.l2_read_hits + stats.l2_read_misses + stats.l2_write_sectors,
                modeled_seconds: est.seconds,
                // Whole-matrix launches schedule a tile per row, empty or
                // not — report the occupancy of what actually launches.
                lanes_active_frac: row_stats.scheduled_lanes_active_frac(w),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rt_f16::F16;

    fn random_csr(nrows: usize, ncols: usize, max_row: usize, seed: u64) -> Csr<F16, u32> {
        let mut rng = StdRng::seed_from_u64(seed);
        let rows: Vec<Vec<(usize, f64)>> = (0..nrows)
            .map(|_| {
                if rng.gen_bool(0.3) {
                    return Vec::new();
                }
                let len = rng.gen_range(1..=max_row);
                let mut cols: Vec<usize> = (0..len).map(|_| rng.gen_range(0..ncols)).collect();
                cols.sort_unstable();
                cols.dedup();
                cols.into_iter()
                    .map(|c| (c, rng.gen_range(0.0..2.0)))
                    .collect()
            })
            .collect();
        let m: Csr<f64, u32> = Csr::from_rows(ncols, &rows).unwrap();
        m.convert_values()
    }

    #[test]
    fn fixed_validates_width() {
        let m = random_csr(50, 32, 8, 1);
        let spec = DeviceSpec::a100();
        let ok = KernelSelect::Fixed(8).choose(&spec, &m, 512).unwrap();
        assert_eq!(ok.tile_width, 8);
        assert_eq!(ok.mode, "fixed");
        let err = KernelSelect::Fixed(7).choose(&spec, &m, 512).unwrap_err();
        assert_eq!(err.kind(), "invalid_tile_width");
    }

    #[test]
    fn heuristic_tracks_row_length() {
        let spec = DeviceSpec::a100();
        // Short rows (<= 8 entries) pick a narrow width...
        let short = random_csr(500, 256, 8, 2);
        let ws = KernelSelect::Heuristic.choose(&spec, &short, 512).unwrap();
        assert!(ws.tile_width <= 8, "short rows got {}", ws.tile_width);
        // ...long rows pick the full warp.
        let long = random_csr(300, 4096, 400, 3);
        let wl = KernelSelect::Heuristic.choose(&spec, &long, 512).unwrap();
        assert_eq!(wl.tile_width, 32);
    }

    #[test]
    fn heuristic_bumps_on_long_tail() {
        // Mostly length-2 rows plus 10% length-64 outliers: the tail
        // bump must widen the pick one step beyond the average rule.
        let mut rows: Vec<Vec<(usize, f64)>> = Vec::new();
        for r in 0..200 {
            if r % 10 == 0 {
                rows.push((0..64).map(|c| (c, 1.0)).collect());
            } else {
                rows.push(vec![(0, 1.0), (1, 1.0)]);
            }
        }
        let m64: Csr<f64, u32> = Csr::from_rows(128, &rows).unwrap();
        let m: Csr<F16, u32> = m64.convert_values();
        let stats = RowStats::from_csr(&m);
        let base = {
            let avg = stats.avg_nnz_nonempty;
            let mut w = 2u32;
            while (w as f64) < avg && w < 32 {
                w *= 2;
            }
            w
        };
        assert_eq!(heuristic_width(&stats), base * 2);
    }

    #[test]
    fn probe_is_deterministic_and_prefers_narrow_on_short_rows() {
        let spec = DeviceSpec::a100();
        // Enough short rows that the warp-overhead term dominates.
        let m = random_csr(60_000, 4096, 8, 4);
        let a = KernelSelect::MeasuredProbe.choose(&spec, &m, 512).unwrap();
        let b = KernelSelect::MeasuredProbe.choose(&spec, &m, 512).unwrap();
        assert_eq!(a, b, "probe must be deterministic");
        assert_eq!(a.mode, "probe");
        assert_eq!(a.candidates.len(), TILE_WIDTHS.len());
        assert!(a.tile_width < 32, "short rows should pick a narrow width");
        // The table must actually show fewer warps at the chosen width.
        let chosen = a
            .candidates
            .iter()
            .find(|c| c.tile_width == a.tile_width)
            .unwrap();
        let classic = a.candidates.iter().find(|c| c.tile_width == 32).unwrap();
        assert!(chosen.warps < classic.warps);
        assert!(chosen.modeled_seconds <= classic.modeled_seconds);
    }

    #[test]
    fn partitioned_heuristic_assigns_natural_widths() {
        let spec = DeviceSpec::a100();
        let m = random_csr(800, 256, 40, 6);
        let c = KernelSelect::Partitioned(PartitionStrategy::Heuristic)
            .choose(&spec, &m, 512)
            .unwrap();
        assert_eq!(c.mode, "partitioned-heuristic");
        assert_eq!(c.buckets.len(), 6);
        for (b, &w) in c.buckets.iter().zip(&BucketWidths::natural().0) {
            assert_eq!(b.tile_width, w, "bucket {}", b.bucket);
            if b.rows > 0 {
                assert!(b.lanes_active_frac > 0.5, "natural width half-fills tiles");
            }
        }
        // Whole-matrix fallback width = widest populated bucket's width.
        let widest = c
            .buckets
            .iter()
            .filter(|b| b.rows > 0)
            .map(|b| b.tile_width)
            .max()
            .unwrap();
        assert_eq!(c.tile_width, widest);
    }

    #[test]
    fn partitioned_probe_is_deterministic_with_full_tables() {
        let spec = DeviceSpec::a100();
        let m = random_csr(2000, 512, 48, 7);
        let sel = KernelSelect::Partitioned(PartitionStrategy::MeasuredProbe);
        let a = sel.choose(&spec, &m, 512).unwrap();
        let b = sel.choose(&spec, &m, 512).unwrap();
        assert_eq!(a, b, "partitioned probe must be deterministic");
        assert_eq!(a.mode, "partitioned-probe");
        for bc in &a.buckets {
            if bc.rows > 0 {
                assert_eq!(
                    bc.candidates.len(),
                    TILE_WIDTHS.len(),
                    "bucket {} table",
                    bc.bucket
                );
                let chosen = bc
                    .candidates
                    .iter()
                    .find(|c| c.tile_width == bc.tile_width)
                    .unwrap();
                for c in &bc.candidates {
                    assert!(chosen.modeled_seconds <= c.modeled_seconds);
                }
            } else {
                assert!(bc.candidates.is_empty());
            }
        }
    }

    #[test]
    fn whole_matrix_candidates_report_scheduled_occupancy() {
        let spec = DeviceSpec::a100();
        let m = random_csr(400, 128, 8, 8);
        let stats = RowStats::from_csr(&m);
        let c = KernelSelect::MeasuredProbe.choose(&spec, &m, 512).unwrap();
        for cand in &c.candidates {
            assert!(
                (cand.lanes_active_frac - stats.scheduled_lanes_active_frac(cand.tile_width)).abs()
                    < 1e-12
            );
            // Empty rows' padded lanes count against occupancy.
            assert!(cand.lanes_active_frac < stats.lanes_active_frac(cand.tile_width));
        }
    }

    #[test]
    fn heuristic_and_probe_agree_on_extreme_shapes() {
        let spec = DeviceSpec::a100();
        let long = random_csr(3000, 4096, 600, 5);
        let h = KernelSelect::Heuristic.choose(&spec, &long, 512).unwrap();
        let p = KernelSelect::MeasuredProbe
            .choose(&spec, &long, 512)
            .unwrap();
        assert_eq!(h.tile_width, 32);
        assert_eq!(p.tile_width, 32, "long rows must keep the full warp");
    }
}
