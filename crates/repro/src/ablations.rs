//! Ablations of the design choices the paper calls out.
//!
//! * [`index_width`] — 16-bit vs 32-bit column indices (§V future work:
//!   "the column indices for the prostate case could be stored using 16
//!   bit unsigned integers").
//! * [`formats`] — CSR vs ELLPACK vs SELL-C-σ vs RayStation-compressed
//!   storage footprint (§II-C / §VII future work).
//! * [`row_mapping`] — warp-per-row vs thread-per-row (§III's design
//!   argument).
//! * [`value_encoding`] — binary16 vs bfloat16 vs 16-bit fixed point
//!   accuracy at equal storage (§II-D "16 bits to store the entries").
//! * [`reproducibility`] — the cost of determinism: deterministic
//!   warp-reduction kernel vs atomic baseline (§II-D requirement).

use crate::context::{Context, PreparedCase};
use crate::render::{f1, sci, TextTable};
use crate::runner::{run_baseline, run_half_double, run_scalar};
use rt_core::{profile_sell, sell_spmv, vector_csr_spmm, GpuCsrMatrix, GpuSellMatrix};
use rt_f16::{Bf16, F16};
use rt_gpusim::timing::estimate;
use rt_gpusim::{DeviceSpec, Gpu};
use rt_sparse::{Csr, Ell, QuantizedCsr, RsCompressed, SellCSigma};

/// 16-bit vs 32-bit column indices: DRAM traffic and OI.
pub struct IndexWidthRow {
    pub case: String,
    pub fits_u16: bool,
    pub dram_bytes_u32: u64,
    pub dram_bytes_u16: Option<u64>,
    pub oi_u32: f64,
    pub oi_u16: Option<f64>,
}

pub fn index_width(ctx: &Context) -> Vec<IndexWidthRow> {
    let dev = DeviceSpec::a100();
    ctx.cases
        .iter()
        .map(|c| {
            let run_u32 = run_half_double(c, &dev, 512);
            let u16_matrix: Option<Csr<F16, u16>> = c.f16.convert_indices().ok();
            let run_u16 = u16_matrix.map(|m| {
                let gpu = crate::runner::sim_gpu(c, &dev);
                let gm = GpuCsrMatrix::upload(&gpu, &m);
                let x = gpu.upload(&c.weights);
                let y = gpu.alloc_out::<f64>(m.nrows());
                vector_csr_spmm(&gpu, &gm, &[&x], &[&y], 512, 32);
                vector_csr_spmm(&gpu, &gm, &[&x], &[&y], 512, 32)
            });
            IndexWidthRow {
                case: c.name().to_string(),
                fits_u16: run_u16.is_some(),
                dram_bytes_u32: run_u32.raw.dram_total_bytes(),
                dram_bytes_u16: run_u16.as_ref().map(|s| s.dram_total_bytes()),
                oi_u32: run_u32.oi(),
                oi_u16: run_u16.as_ref().map(|s| s.operational_intensity()),
            }
        })
        .collect()
}

pub fn render_index_width(rows: &[IndexWidthRow]) -> String {
    let mut t = TextTable::new(&[
        "case",
        "fits u16",
        "DRAM bytes (u32)",
        "DRAM bytes (u16)",
        "OI u32",
        "OI u16",
        "traffic saved",
    ]);
    for r in rows {
        t.row(vec![
            r.case.clone(),
            r.fits_u16.to_string(),
            sci(r.dram_bytes_u32 as f64),
            r.dram_bytes_u16
                .map(|b| sci(b as f64))
                .unwrap_or("-".into()),
            format!("{:.3}", r.oi_u32),
            r.oi_u16.map(|o| format!("{o:.3}")).unwrap_or("-".into()),
            r.dram_bytes_u16
                .map(|b| format!("{:.0}%", 100.0 * (1.0 - b as f64 / r.dram_bytes_u32 as f64)))
                .unwrap_or("-".into()),
        ]);
    }
    format!(
        "Ablation: 16-bit column indices (paper §V future work)\n\
         note: the paper's clinical liver beams have ~68000 columns and do NOT\n\
         fit u16; at simulation scale all generated cases do.\n\n{}",
        t.render()
    )
}

/// Storage footprint of every format on one case.
pub struct FormatRow {
    pub format: String,
    pub bytes: usize,
    pub padding_factor: f64,
}

pub fn formats(case: &PreparedCase) -> Vec<FormatRow> {
    let csr = &case.f16;
    let csr_u16_bytes = csr
        .convert_indices::<u16>()
        .map(|m| m.size_bytes())
        .unwrap_or(0);
    let ell = Ell::from_csr(csr);
    let sell = SellCSigma::from_csr(csr, 32, 1024);
    let rs = RsCompressed::from_csr(csr);
    let mut rows = vec![
        FormatRow {
            format: "CSR f16/u32".into(),
            bytes: csr.size_bytes(),
            padding_factor: 1.0,
        },
        FormatRow {
            format: "ELLPACK f16/u32".into(),
            bytes: ell.size_bytes(),
            padding_factor: ell.padding_factor(),
        },
        FormatRow {
            format: "SELL-32-1024 f16/u32".into(),
            bytes: sell.size_bytes(),
            padding_factor: sell.padding_factor(),
        },
        FormatRow {
            format: "RayStation-compressed f16".into(),
            bytes: rs.size_bytes(),
            padding_factor: 1.0,
        },
    ];
    if csr_u16_bytes > 0 {
        rows.insert(
            1,
            FormatRow {
                format: "CSR f16/u16".into(),
                bytes: csr_u16_bytes,
                padding_factor: 1.0,
            },
        );
    }
    rows
}

pub fn render_formats(case_name: &str, rows: &[FormatRow]) -> String {
    let mut t = TextTable::new(&["format", "bytes", "vs CSR", "padding factor"]);
    let csr_bytes = rows[0].bytes as f64;
    for r in rows {
        t.row(vec![
            r.format.clone(),
            sci(r.bytes as f64),
            format!("{:.2}x", r.bytes as f64 / csr_bytes),
            format!("{:.2}", r.padding_factor),
        ]);
    }
    format!(
        "Ablation: storage formats on {case_name} (§II-C / §VII future work)\n\
         ELLPACK pads to the longest row; with the heavy-tailed row lengths of\n\
         dose matrices this explodes, while SELL-C-sigma recovers most of it.\n\n{}",
        t.render()
    )
}

/// CSR vector kernel vs the SELL-C-32 kernel (§VII future work,
/// implemented): modeled performance and traffic on the simulator.
pub struct SellVsCsrRow {
    pub case: String,
    pub csr_gflops: f64,
    pub sell_gflops: f64,
    pub sell_padding: f64,
    pub csr_dram: u64,
    pub sell_dram: u64,
}

pub fn sell_vs_csr(ctx: &Context) -> Vec<SellVsCsrRow> {
    let dev = DeviceSpec::a100();
    [ctx.liver1(), ctx.prostate1()]
        .into_iter()
        .map(|c| {
            let csr_run = run_half_double(c, &dev, 512);

            let sell = SellCSigma::from_csr(&c.f16, 32, 4096);
            let gpu = crate::runner::sim_gpu(c, &dev);
            let gm = GpuSellMatrix::upload(&gpu, &sell);
            let x = gpu.upload(&c.weights);
            let y = gpu.alloc_out::<f64>(c.f16.nrows());
            sell_spmv(&gpu, &gm, &x, &y, 512); // warm-up
            let raw = sell_spmv(&gpu, &gm, &x, &y, 512);
            let mut scaled = raw.scale(c.case.extrapolation());
            let row_factor = c.case.paper.rows / c.case.matrix.nrows() as f64;
            scaled.warps = (raw.warps as f64 * row_factor).round() as u64;
            scaled.blocks = ((raw.blocks as f64 * row_factor).round() as u64).max(1);
            // Report useful GFLOP/s (2*nnz), not padded FMAs.
            scaled.flops = (2.0 * c.case.paper.nnz) as u64;
            let est = estimate(&dev, &profile_sell(), &scaled);

            SellVsCsrRow {
                case: c.name().to_string(),
                csr_gflops: csr_run.gflops(),
                sell_gflops: est.gflops,
                sell_padding: sell.padding_factor(),
                csr_dram: csr_run.raw.dram_total_bytes(),
                sell_dram: raw.dram_total_bytes(),
            }
        })
        .collect()
}

pub fn render_sell_vs_csr(rows: &[SellVsCsrRow]) -> String {
    let mut t = TextTable::new(&[
        "case",
        "CSR vector GF/s",
        "SELL-C-32 GF/s",
        "SELL padding",
        "CSR DRAM",
        "SELL DRAM",
    ]);
    for r in rows {
        t.row(vec![
            r.case.clone(),
            f1(r.csr_gflops),
            f1(r.sell_gflops),
            format!("{:.2}x", r.sell_padding),
            sci(r.csr_dram as f64),
            sci(r.sell_dram as f64),
        ]);
    }
    format!(
        "Extension: SELL-C-sigma GPU kernel vs the paper's CSR vector kernel
         (the paper's §VII future work, implemented; useful flops reported
         for both). SELL trades padded traffic for zero per-row pointer
         chasing and no reduction.

{}",
        t.render()
    )
}

/// Warp-per-row vs thread-per-row.
pub struct RowMappingResult {
    pub case: String,
    pub vector_gflops: f64,
    pub scalar_gflops: f64,
    pub vector_dram: u64,
    pub scalar_dram: u64,
    /// On-chip (L2) traffic — where the thread-per-row penalty lives
    /// when the scattered sectors stay cache-resident between lockstep
    /// steps: 32 transactions per step instead of a handful.
    pub vector_l2: u64,
    pub scalar_l2: u64,
}

pub fn row_mapping(ctx: &Context) -> Vec<RowMappingResult> {
    let dev = DeviceSpec::a100();
    [ctx.liver1(), ctx.prostate1()]
        .into_iter()
        .map(|c| {
            let v = run_half_double(c, &dev, 512);
            let s = run_scalar(c, &dev, 512);
            RowMappingResult {
                case: c.name().to_string(),
                vector_gflops: v.gflops(),
                scalar_gflops: s.gflops(),
                vector_dram: v.raw.dram_total_bytes(),
                scalar_dram: s.raw.dram_total_bytes(),
                vector_l2: v.raw.l2_total_bytes(),
                scalar_l2: s.raw.l2_total_bytes(),
            }
        })
        .collect()
}

pub fn render_row_mapping(rows: &[RowMappingResult]) -> String {
    let mut t = TextTable::new(&[
        "case",
        "warp-per-row GF/s",
        "thread-per-row GF/s",
        "speedup",
        "DRAM amplification",
        "on-chip amplification",
    ]);
    for r in rows {
        t.row(vec![
            r.case.clone(),
            f1(r.vector_gflops),
            f1(r.scalar_gflops),
            format!("{:.2}x", r.vector_gflops / r.scalar_gflops),
            format!("{:.2}x", r.scalar_dram as f64 / r.vector_dram as f64),
            format!("{:.2}x", r.scalar_l2 as f64 / r.vector_l2 as f64),
        ]);
    }
    format!(
        "Ablation: row-to-thread mapping (§III design argument)\n\n{}",
        t.render()
    )
}

/// Accuracy of the three 16-bit value encodings against f64 ground truth.
pub struct EncodingRow {
    pub encoding: String,
    /// Maximum relative error of the dose vector (over voxels with
    /// non-negligible dose).
    pub max_rel_error: f64,
    /// RMS relative error.
    pub rms_rel_error: f64,
}

pub fn value_encoding(case: &PreparedCase) -> Vec<EncodingRow> {
    let exact = {
        let mut d = vec![0.0; case.case.matrix.nrows()];
        case.case.matrix.spmv_ref(&case.weights, &mut d).unwrap();
        d
    };
    let threshold = exact.iter().cloned().fold(0.0, f64::max) * 1e-3;

    let errors = |approx: &[f64]| {
        let mut max_rel = 0.0f64;
        let mut sum_sq = 0.0f64;
        let mut n = 0usize;
        for (a, e) in approx.iter().zip(exact.iter()) {
            if *e > threshold {
                let rel = (a - e).abs() / e;
                max_rel = max_rel.max(rel);
                sum_sq += rel * rel;
                n += 1;
            }
        }
        (max_rel, (sum_sq / n.max(1) as f64).sqrt())
    };

    let mut rows = Vec::new();

    let mut d = vec![0.0; exact.len()];
    case.f16.spmv_ref(&case.weights, &mut d).unwrap();
    let (max_rel, rms) = errors(&d);
    rows.push(EncodingRow {
        encoding: "binary16".into(),
        max_rel_error: max_rel,
        rms_rel_error: rms,
    });

    let bf: Csr<Bf16, u32> = case.case.matrix.convert_values();
    bf.spmv_ref(&case.weights, &mut d).unwrap();
    let (max_rel, rms) = errors(&d);
    rows.push(EncodingRow {
        encoding: "bfloat16".into(),
        max_rel_error: max_rel,
        rms_rel_error: rms,
    });

    let q = QuantizedCsr::from_csr(&case.case.matrix).expect("non-zero matrix");
    q.spmv_ref(&case.weights, &mut d).unwrap();
    let (max_rel, rms) = errors(&d);
    rows.push(EncodingRow {
        encoding: "fixed16".into(),
        max_rel_error: max_rel,
        rms_rel_error: rms,
    });

    rows
}

pub fn render_value_encoding(case_name: &str, rows: &[EncodingRow]) -> String {
    let mut t = TextTable::new(&["encoding", "max rel error", "RMS rel error"]);
    for r in rows {
        t.row(vec![
            r.encoding.clone(),
            format!("{:.2e}", r.max_rel_error),
            format!("{:.2e}", r.rms_rel_error),
        ]);
    }
    format!(
        "Ablation: 16-bit value encodings on {case_name} (all cost 2 bytes/nnz)\n\
         binary16 is the paper's choice; bfloat16 trades mantissa for range;\n\
         fixed16 concentrates error in low-dose voxels.\n\n{}",
        t.render()
    )
}

/// Reproducibility vs performance: the deterministic kernel against the
/// atomic baseline.
pub struct ReproResult {
    pub case: String,
    pub deterministic_gflops: f64,
    pub atomic_gflops: f64,
    pub deterministic_bitwise: bool,
}

pub fn reproducibility(ctx: &Context) -> Vec<ReproResult> {
    let dev = DeviceSpec::a100();
    [ctx.liver1(), ctx.prostate1()]
        .into_iter()
        .map(|c| {
            let hd = run_half_double(c, &dev, 512);
            let bl = run_baseline(c, &dev, 128);

            // Bitwise check on the deterministic kernel: two fresh runs.
            let run_once = || {
                let gpu = Gpu::new(DeviceSpec::a100());
                let gm = GpuCsrMatrix::upload(&gpu, &c.f16);
                let x = gpu.upload(&c.weights);
                let y = gpu.alloc_out::<f64>(c.f16.nrows());
                vector_csr_spmm(&gpu, &gm, &[&x], &[&y], 512, 32);
                y.to_vec().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            let deterministic_bitwise = run_once() == run_once();

            ReproResult {
                case: c.name().to_string(),
                deterministic_gflops: hd.gflops(),
                atomic_gflops: bl.gflops(),
                deterministic_bitwise,
            }
        })
        .collect()
}

pub fn render_reproducibility(rows: &[ReproResult]) -> String {
    let mut t = TextTable::new(&[
        "case",
        "deterministic GF/s",
        "atomic baseline GF/s",
        "bitwise reproducible",
    ]);
    for r in rows {
        t.row(vec![
            r.case.clone(),
            f1(r.deterministic_gflops),
            f1(r.atomic_gflops),
            r.deterministic_bitwise.to_string(),
        ]);
    }
    format!(
        "Ablation: reproducibility (§II-D) — determinism costs nothing here;\n\
         the warp-reduction kernel is both reproducible AND faster than the\n\
         atomic column-parallel port.\n\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_dose::cases::ScaleConfig;

    #[test]
    fn index_width_saves_traffic_where_it_fits() {
        let ctx = Context::generate(ScaleConfig::tiny());
        let rows = index_width(&ctx);
        assert_eq!(rows.len(), 6);
        for r in &rows {
            if let Some(u16_bytes) = r.dram_bytes_u16 {
                assert!(u16_bytes < r.dram_bytes_u32, "{}", r.case);
                assert!(r.oi_u16.unwrap() > r.oi_u32, "{}", r.case);
            }
        }
        let s = render_index_width(&rows);
        assert!(s.contains("u16"));
    }

    #[test]
    fn format_footprints_are_ordered_sanely() {
        let ctx = Context::generate(ScaleConfig::tiny());
        let rows = formats(ctx.liver1());
        let get = |name: &str| rows.iter().find(|r| r.format.starts_with(name)).unwrap();
        // ELLPACK explodes on heavy-tailed rows; SELL recovers.
        assert!(get("ELLPACK").bytes > get("CSR f16/u32").bytes);
        assert!(get("SELL").bytes < get("ELLPACK").bytes);
        // The RayStation format compresses better than CSR on these
        // run-structured matrices.
        assert!(get("RayStation").bytes < get("CSR f16/u32").bytes);
        let _ = render_formats("Liver 1", &rows);
    }

    #[test]
    fn vector_beats_scalar_mapping_on_long_rows() {
        // At tiny test scale only the liver case has rows long enough
        // for the thread-per-row pattern to diverge; the short-row
        // prostate case is checked at default scale by the ablation bin
        // (and the amplification mechanism itself is unit-tested in
        // rt-core::scalar_csr with synthetic long rows).
        let ctx = Context::generate(ScaleConfig::tiny());
        let rows = row_mapping(&ctx);
        let liver = rows.iter().find(|r| r.case.starts_with("Liver")).unwrap();
        assert!(
            liver.vector_gflops > liver.scalar_gflops,
            "{} vs {}",
            liver.vector_gflops,
            liver.scalar_gflops
        );
        // The scattered per-lane reads inflate on-chip transactions even
        // when the sectors stay resident.
        assert!(
            liver.scalar_l2 > 2 * liver.vector_l2,
            "scalar L2 {} vs vector {}",
            liver.scalar_l2,
            liver.vector_l2
        );
        let _ = render_row_mapping(&rows);
    }

    #[test]
    fn encodings_have_expected_error_profile() {
        let ctx = Context::generate(ScaleConfig::tiny());
        let rows = value_encoding(ctx.prostate1());
        let get = |name: &str| rows.iter().find(|r| r.encoding == name).unwrap();
        // binary16 (10-bit mantissa) beats bfloat16 (7-bit) on RMS.
        assert!(get("binary16").rms_rel_error < get("bfloat16").rms_rel_error);
        // All encodings stay under 5% max relative error on real doses.
        for r in &rows {
            assert!(
                r.max_rel_error < 0.05,
                "{}: {}",
                r.encoding,
                r.max_rel_error
            );
        }
        let _ = render_value_encoding("Prostate 1", &rows);
    }

    #[test]
    fn sell_kernel_is_competitive() {
        let ctx = Context::generate(ScaleConfig::tiny());
        let rows = sell_vs_csr(&ctx);
        for r in &rows {
            // Padding is modest thanks to sigma sorting...
            assert!(
                r.sell_padding < 1.6,
                "{}: padding {}",
                r.case,
                r.sell_padding
            );
            // ...and the kernel lands within 2x of CSR either way.
            let ratio = r.sell_gflops / r.csr_gflops;
            assert!((0.5..2.5).contains(&ratio), "{}: ratio {ratio}", r.case);
        }
        let _ = render_sell_vs_csr(&rows);
    }

    #[test]
    fn determinism_is_free() {
        let ctx = Context::generate(ScaleConfig::tiny());
        let rows = reproducibility(&ctx);
        for r in &rows {
            assert!(r.deterministic_bitwise, "{}", r.case);
            assert!(r.deterministic_gflops > r.atomic_gflops, "{}", r.case);
        }
        let _ = render_reproducibility(&rows);
    }
}
