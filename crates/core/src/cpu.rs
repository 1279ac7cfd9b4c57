//! Host CPU implementations: the clinical RayStation algorithm with
//! per-thread scratch dose arrays, and a plain row-parallel CSR SpMV.
//!
//! These run for real on the host, as the references the end-to-end
//! and reproducibility tests check the simulated kernels against;
//! [`RsCpu::traffic_model_bytes`] additionally provides the analytic
//! DRAM-traffic estimate used to place the paper's i9-7940X reference
//! row in Figure 5 via `rt_gpusim::CpuSpec::estimate`.

use rt_f16::DoseScalar;
use rt_sparse::{ColIndex, Csr, RsCompressed, SparseError};

/// The RayStation CPU dose calculation: columns are distributed over
/// worker threads; each thread scatters into its own scratch dose array
/// (no races, no atomics); scratch arrays are then summed in fixed
/// thread order. Bitwise reproducible for a fixed thread count — the
/// property the clinical implementation guarantees (§II-D).
#[derive(Clone, Debug)]
pub struct RsCpu {
    pub threads: usize,
}

impl Default for RsCpu {
    fn default() -> Self {
        RsCpu {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        }
    }
}

impl RsCpu {
    pub fn with_threads(threads: usize) -> Self {
        assert!(threads > 0);
        RsCpu { threads }
    }

    /// `dose = A w` over the compressed column format.
    pub fn spmv<V: DoseScalar>(
        &self,
        m: &RsCompressed<V>,
        weights: &[f64],
        dose: &mut [f64],
    ) -> Result<(), SparseError> {
        if weights.len() != m.ncols() {
            return Err(SparseError::DimensionMismatch {
                expected: m.ncols(),
                actual: weights.len(),
            });
        }
        if dose.len() != m.nrows() {
            return Err(SparseError::DimensionMismatch {
                expected: m.nrows(),
                actual: dose.len(),
            });
        }

        let threads = self.threads.min(m.ncols().max(1));
        let chunk = m.ncols().div_ceil(threads.max(1)).max(1);

        // Per-thread scratch arrays, merged in thread order afterwards.
        let scratches: Vec<Vec<f64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    s.spawn(move || {
                        let mut scratch = vec![0.0f64; m.nrows()];
                        let lo = t * chunk;
                        let hi = ((t + 1) * chunk).min(m.ncols());
                        #[allow(clippy::needless_range_loop)]
                        for c in lo..hi {
                            let w = weights[c];
                            if w == 0.0 {
                                continue;
                            }
                            for seg in m.column_segments(c) {
                                let base = seg.start_row as usize;
                                let vals = &m.values()
                                    [seg.value_offset..seg.value_offset + seg.len as usize];
                                for (k, v) in vals.iter().enumerate() {
                                    scratch[base + k] += v.to_f64() * w;
                                }
                            }
                        }
                        scratch
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("cpu worker panicked"))
                .collect()
        });

        // Deterministic merge: fixed thread order.
        dose.fill(0.0);
        for scratch in &scratches {
            for (d, s) in dose.iter_mut().zip(scratch.iter()) {
                *d += s;
            }
        }
        Ok(())
    }

    /// Analytic DRAM traffic (bytes) of this algorithm on a real CPU with
    /// last-level cache `llc_bytes`, used for the Figure 5 CPU row:
    ///
    /// * matrix values stream once: `V::BYTES * nnz`;
    /// * segment metadata: 8 bytes per segment + column pointers;
    /// * scratch scatter: the clinical implementation accumulates into
    ///   single-precision scratch arrays (`threads * 4 * nrows` bytes);
    ///   when they exceed the LLC each update is a read-modify-write of
    ///   a cached line — runs are contiguous, so the cost amortizes to
    ///   8 bytes per non-zero (4 read + 4 write); when everything fits,
    ///   the scatter is cache-resident and only the final merge pays;
    /// * the merge: read `threads` scratch arrays + write the result.
    pub fn traffic_model_bytes<V: DoseScalar>(&self, m: &RsCompressed<V>, llc_bytes: usize) -> f64 {
        let nnz = m.nnz() as f64;
        let nrows = m.nrows() as f64;
        let values = V::BYTES as f64 * nnz;
        let metadata = 8.0 * m.segments().len() as f64 + 8.0 * m.col_ptr().len() as f64;
        let scratch_bytes = self.threads as f64 * 4.0 * nrows;
        let scatter = if scratch_bytes > llc_bytes as f64 {
            8.0 * nnz
        } else {
            0.0
        };
        let merge = (self.threads as f64 + 1.0) * 4.0 * nrows + 8.0 * nrows;
        values + metadata + scatter + merge
    }
}

/// Plain row-parallel CSR SpMV on the host: each worker computes a
/// contiguous block of rows (deterministic: row dot products have a
/// fixed sequential order). This is the "convert to CSR first" CPU
/// reference of the end-to-end tests.
pub fn cpu_csr_spmv<V: DoseScalar, I: ColIndex>(
    m: &Csr<V, I>,
    x: &[f64],
    y: &mut [f64],
    threads: usize,
) -> Result<(), SparseError> {
    if x.len() != m.ncols() {
        return Err(SparseError::DimensionMismatch {
            expected: m.ncols(),
            actual: x.len(),
        });
    }
    if y.len() != m.nrows() {
        return Err(SparseError::DimensionMismatch {
            expected: m.nrows(),
            actual: y.len(),
        });
    }
    let threads = threads.max(1).min(m.nrows().max(1));
    let chunk = m.nrows().div_ceil(threads).max(1);
    std::thread::scope(|s| {
        for (t, block) in y.chunks_mut(chunk).enumerate() {
            let lo = t * chunk;
            s.spawn(move || {
                for (i, out) in block.iter_mut().enumerate() {
                    let (cols, vals) = m.row(lo + i);
                    let mut acc = 0.0f64;
                    for (c, v) in cols.iter().zip(vals.iter()) {
                        acc += v.to_f64() * x[c.to_usize()];
                    }
                    *out = acc;
                }
            });
        }
    });
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rt_f16::F16;

    fn random_pair(seed: u64) -> (Csr<F16, u32>, RsCompressed<F16>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (nrows, ncols) = (800, 60);
        let rows: Vec<Vec<(usize, f64)>> = (0..nrows)
            .map(|_| {
                let len = rng.gen_range(0..10);
                let mut cols: Vec<usize> = (0..len).map(|_| rng.gen_range(0..ncols)).collect();
                cols.sort_unstable();
                cols.dedup();
                cols.into_iter()
                    .map(|c| (c, rng.gen_range(0.1..2.0)))
                    .collect()
            })
            .collect();
        let csr: Csr<F16, u32> = Csr::<f64, u32>::from_rows(ncols, &rows)
            .unwrap()
            .convert_values();
        let rs = RsCompressed::from_csr(&csr);
        (csr, rs)
    }

    #[test]
    fn rs_cpu_matches_reference() {
        let (csr, rs) = random_pair(31);
        let w: Vec<f64> = (0..60).map(|i| (i % 5) as f64 * 0.3).collect();
        let mut want = vec![0.0; 800];
        csr.spmv_ref(&w, &mut want).unwrap();
        let mut got = vec![0.0; 800];
        RsCpu::with_threads(4).spmv(&rs, &w, &mut got).unwrap();
        for (g, wv) in got.iter().zip(want.iter()) {
            assert!((g - wv).abs() <= 1e-9 * (1.0 + wv.abs()));
        }
    }

    #[test]
    fn rs_cpu_bitwise_reproducible_at_fixed_thread_count() {
        let (_, rs) = random_pair(32);
        let w: Vec<f64> = (0..60).map(|i| 1.0 + (i as f64).sin()).collect();
        let run = || {
            let mut d = vec![0.0; 800];
            RsCpu::with_threads(5).spmv(&rs, &w, &mut d).unwrap();
            d.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
        // Different thread counts partition columns differently — the
        // merge changes the summation order, so only tolerance holds.
        let mut d1 = vec![0.0; 800];
        RsCpu::with_threads(1).spmv(&rs, &w, &mut d1).unwrap();
        let mut d5 = vec![0.0; 800];
        RsCpu::with_threads(5).spmv(&rs, &w, &mut d5).unwrap();
        for (a, b) in d1.iter().zip(d5.iter()) {
            assert!((a - b).abs() <= 1e-9 * (1.0 + a.abs()));
        }
    }

    #[test]
    fn cpu_csr_matches_reference_bitwise() {
        let (csr, _) = random_pair(33);
        let x: Vec<f64> = (0..60).map(|i| (i as f64 * 0.7).cos()).collect();
        let mut want = vec![0.0; 800];
        csr.spmv_ref(&x, &mut want).unwrap();
        for threads in [1, 3, 8] {
            let mut got = vec![0.0; 800];
            cpu_csr_spmv(&csr, &x, &mut got, threads).unwrap();
            assert_eq!(
                got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "threads {threads}"
            );
        }
    }

    #[test]
    fn traffic_model_scales_with_problem() {
        let (_, rs) = random_pair(34);
        let cpu = RsCpu::with_threads(14);
        // Tiny LLC: scratch arrays spill, scatter traffic counted.
        let spill = cpu.traffic_model_bytes(&rs, 1 << 10);
        // Huge LLC: everything resident, only streams + merge.
        let fit = cpu.traffic_model_bytes(&rs, 1 << 30);
        assert!(spill > fit);
        assert!(fit > (2 * rs.nnz()) as f64); // at least the value stream
    }

    #[test]
    fn dimension_errors() {
        let (csr, rs) = random_pair(35);
        let mut d = vec![0.0; 800];
        assert!(RsCpu::default().spmv(&rs, &[1.0; 3], &mut d).is_err());
        assert!(cpu_csr_spmv(&csr, &[1.0; 3], &mut d, 2).is_err());
        let w = vec![1.0; 60];
        assert!(RsCpu::default().spmv(&rs, &w, &mut [0.0; 5]).is_err());
    }
}
