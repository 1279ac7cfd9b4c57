//! CSR with 16-bit linear fixed-point values — the third candidate 16-bit
//! encoding in the value-encoding ablation (alongside binary16 and
//! bfloat16).

use crate::{ColIndex, Csr, SparseError};
use rt_f16::{Fixed16, Quantizer};

/// A CSR matrix whose values are `u16` codes under a shared [`Quantizer`].
#[derive(Clone, Debug)]
pub struct QuantizedCsr<I = u32> {
    codes: Csr<QuantCode, I>,
    quantizer: Quantizer,
}

/// Newtype so `Fixed16` codes can live inside [`Csr`] (which requires a
/// `DoseScalar`; raw codes have no intrinsic float meaning, so the scalar
/// impl treats the code as an integer count — only `QuantizedCsr` methods
/// apply the scale).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct QuantCode(pub u16);

impl rt_f16::DoseScalar for QuantCode {
    const BYTES: usize = 2;
    const NAME: &'static str = "fixed16";

    fn from_f64(x: f64) -> Self {
        QuantCode(x.clamp(0.0, u16::MAX as f64) as u16)
    }
    fn to_f64(self) -> f64 {
        self.0 as f64
    }
    fn from_f32(x: f32) -> Self {
        Self::from_f64(x as f64)
    }
    fn to_f32(self) -> f32 {
        self.0 as f32
    }
}

impl<I: ColIndex> QuantizedCsr<I> {
    /// Quantizes an `f64` CSR matrix. The scale is chosen from the largest
    /// stored value (RayStation-style: one scale per matrix). Returns
    /// `None` for an all-zero matrix (nothing to scale).
    pub fn from_csr(csr: &Csr<f64, I>) -> Option<Self> {
        let max = csr.values().iter().cloned().fold(0.0f64, f64::max);
        // Covers both the all-zero and the all-NaN case.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(max > 0.0) {
            return None;
        }
        let quantizer = Quantizer::for_max_value(max);
        let codes = Csr::try_new(
            csr.nrows(),
            csr.ncols(),
            csr.row_ptr().to_vec(),
            csr.col_idx().to_vec(),
            csr.values()
                .iter()
                .map(|&v| {
                    let Fixed16(bits) = quantizer.quantize(v);
                    QuantCode(bits)
                })
                .collect(),
        )
        .expect("structure unchanged by value quantization");
        Some(QuantizedCsr { codes, quantizer })
    }

    #[inline]
    pub fn nrows(&self) -> usize {
        self.codes.nrows()
    }

    #[inline]
    pub fn ncols(&self) -> usize {
        self.codes.ncols()
    }

    #[inline]
    pub fn nnz(&self) -> usize {
        self.codes.nnz()
    }

    #[inline]
    pub fn quantizer(&self) -> &Quantizer {
        &self.quantizer
    }

    /// Bytes: 2 per code + index + row pointer, same shape as CSR.
    pub fn size_bytes(&self) -> usize {
        self.codes.size_bytes()
    }

    /// Dequantizes into an `f64` CSR matrix.
    pub fn dequantize(&self) -> Csr<f64, I> {
        Csr::try_new(
            self.codes.nrows(),
            self.codes.ncols(),
            self.codes.row_ptr().to_vec(),
            self.codes.col_idx().to_vec(),
            self.codes
                .values()
                .iter()
                .map(|&QuantCode(bits)| self.quantizer.dequantize(Fixed16(bits)))
                .collect(),
        )
        .expect("structure unchanged by dequantization")
    }

    /// Reference SpMV applying the scale once per row (the dequantize-fold
    /// trick: sum codes * x, multiply by scale at the end — one fewer
    /// multiply per entry and identical rounding for our f64 accumulator).
    pub fn spmv_ref(&self, x: &[f64], y: &mut [f64]) -> Result<(), SparseError> {
        self.codes.spmv_ref(x, y)?;
        for v in y.iter_mut() {
            *v *= self.quantizer.scale();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr<f64, u32> {
        Csr::from_rows(
            3,
            &[
                vec![(0, 0.5), (2, 2.0)],
                vec![(1, 1.0)],
                vec![],
                vec![(0, 0.001), (1, 4.0)],
            ],
        )
        .unwrap()
    }

    #[test]
    fn quantization_error_bounded() {
        let m = sample();
        let q = QuantizedCsr::from_csr(&m).unwrap();
        let d = q.dequantize();
        let bound = q.quantizer().max_abs_error() * 1.0001;
        for ((_, _, a), (_, _, b)) in m.iter().zip(d.iter()) {
            assert!((a - b).abs() <= bound, "{a} vs {b}");
        }
    }

    #[test]
    fn spmv_close_to_exact() {
        let m = sample();
        let q = QuantizedCsr::from_csr(&m).unwrap();
        let x = [1.0, 2.0, 3.0];
        let mut want = vec![0.0; 4];
        let mut got = vec![0.0; 4];
        m.spmv_ref(&x, &mut want).unwrap();
        q.spmv_ref(&x, &mut got).unwrap();
        for (w, g) in want.iter().zip(got.iter()) {
            // Error per row bounded by row_len * max_abs_error * max|x|.
            assert!((w - g).abs() <= 2.0 * q.quantizer().max_abs_error() * 3.0);
        }
    }

    #[test]
    fn all_zero_matrix_unquantizable() {
        let m = Csr::<f64, u32>::from_rows(2, &[vec![], vec![]]).unwrap();
        assert!(QuantizedCsr::from_csr(&m).is_none());
    }

    #[test]
    fn small_values_lose_relative_accuracy() {
        // The known weakness: a value 4000x smaller than the max is
        // represented with huge relative error. The ablation bench
        // measures this on real matrices.
        let m = sample();
        let q = QuantizedCsr::from_csr(&m).unwrap();
        let d = q.dequantize();
        let tiny_in = m.iter().find(|&(_, _, v)| v == 0.001).unwrap();
        let tiny_out = d
            .iter()
            .find(|&(r, c, _)| (r, c) == (tiny_in.0, tiny_in.1))
            .unwrap();
        let rel = (tiny_out.2 - 0.001).abs() / 0.001;
        assert!(rel > 0.01, "expected visible relative error, got {rel}");
    }
}
