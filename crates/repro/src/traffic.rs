//! Per-buffer traffic decomposition of the Half/double kernel — the §V
//! analysis ("the memory traffic caused by loading the column indices
//! ... make up a large portion of the total") made measurable: the
//! simulator attributes every sector to the array it belongs to, so the
//! `6*nnz = 2*nnz (values) + 4*nnz (indices)` split, the row-pointer
//! term and the cache-resident input vector can each be checked against
//! the model.

use crate::context::Context;
use crate::render::{sci, TextTable};
use rt_core::{vector_csr_spmm, GpuCsrMatrix};
use rt_gpusim::{BufferTraffic, DeviceSpec};

pub struct TrafficCase {
    pub case: String,
    pub nnz: usize,
    pub nrows: usize,
    pub ncols: usize,
    pub buffers: Vec<BufferTraffic>,
}

pub fn generate(ctx: &Context) -> Vec<TrafficCase> {
    let dev = DeviceSpec::a100();
    [ctx.liver1(), ctx.prostate1()]
        .into_iter()
        .map(|c| {
            let gpu = crate::runner::sim_gpu(c, &dev);
            let gm = GpuCsrMatrix::upload_named(&gpu, &c.f16);
            let x = gpu.upload_named("x (weights)", &c.weights);
            let y = gpu.alloc_out_named::<f64>("y (dose)", c.f16.nrows());
            vector_csr_spmm(&gpu, &gm, &[&x], &[&y], 512, 32); // warm-up
            gpu.reset_traffic();
            vector_csr_spmm(&gpu, &gm, &[&x], &[&y], 512, 32);
            TrafficCase {
                case: c.name().to_string(),
                nnz: c.f16.nnz(),
                nrows: c.f16.nrows(),
                ncols: c.f16.ncols(),
                buffers: gpu.traffic_report(),
            }
        })
        .collect()
}

pub fn render(cases: &[TrafficCase]) -> String {
    let mut out = String::from(
        "Per-buffer DRAM traffic of the Half/double kernel (steady state)\n\
         paper model (§V): 2B/nnz values + 4B/nnz indices + 4B/row pointers\n\
         + 8B/row output; the input vector stays cache-resident.\n",
    );
    for c in cases {
        out.push_str(&format!(
            "\n{} ({} nnz, {} rows, {} cols):\n\n",
            c.case, c.nnz, c.nrows, c.ncols
        ));
        let mut t = TextTable::new(&[
            "buffer",
            "DRAM read bytes",
            "bytes/nnz",
            "model",
            "L2 hit rate",
        ]);
        for b in &c.buffers {
            let model = match b.name.as_str() {
                "values" => "2.00".to_string(),
                "col_idx" => "4.00".to_string(),
                "row_ptr" => format!("{:.2}", 4.0 * c.nrows as f64 / c.nnz as f64),
                "x (weights)" => "~0 (resident)".to_string(),
                _ => "-".to_string(),
            };
            let hit_rate = if b.read_sectors > 0 {
                format!(
                    "{:.0}%",
                    100.0 * (1.0 - b.dram_read_sectors as f64 / b.read_sectors as f64)
                )
            } else {
                "-".to_string()
            };
            t.row(vec![
                b.name.clone(),
                sci(b.dram_read_bytes() as f64),
                format!("{:.2}", b.dram_read_bytes() as f64 / c.nnz as f64),
                model,
                hit_rate,
            ]);
        }
        out.push_str(&t.render());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_dose::cases::ScaleConfig;

    #[test]
    fn decomposition_matches_model() {
        let ctx = Context::generate(ScaleConfig::tiny());
        let cases = generate(&ctx);
        assert_eq!(cases.len(), 2);
        for c in &cases {
            let by = |name: &str| {
                c.buffers
                    .iter()
                    .find(|b| b.name == name)
                    .unwrap_or_else(|| panic!("no buffer {name}"))
            };
            let nnz = c.nnz as f64;
            let values = by("values").dram_read_bytes() as f64;
            let idx = by("col_idx").dram_read_bytes() as f64;
            assert!(
                (values / (2.0 * nnz) - 1.0).abs() < 0.35,
                "{}: values {values}",
                c.case
            );
            assert!(
                (idx / (4.0 * nnz) - 1.0).abs() < 0.35,
                "{}: idx {idx}",
                c.case
            );
            // Indices cost ~2x the values — the paper's future-work
            // motivation for 16-bit indices.
            assert!(idx > 1.5 * values, "{}: {idx} vs {values}", c.case);
            // The input vector is mostly cache-resident.
            let x = by("x (weights)");
            assert!(
                x.dram_read_sectors * 4 < x.read_sectors,
                "{}: x not resident ({} of {})",
                c.case,
                x.dram_read_sectors,
                x.read_sectors
            );
        }
        let _ = render(&cases);
    }
}
