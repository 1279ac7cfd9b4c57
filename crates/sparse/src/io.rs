//! Binary matrix snapshots — the equivalent of the paper's export path
//! (§IV: matrices are exported from RayStation after the Monte Carlo
//! dose engine runs, then converted and loaded by the benchmark code).
//!
//! Format (little-endian throughout):
//!
//! ```text
//! magic   "RTDM"            4 bytes
//! version u32               1
//! vtag    u32               value scalar tag
//! itag    u32               index scalar tag
//! nrows   u64
//! ncols   u64
//! nnz     u64
//! row_ptr (nrows + 1) x u32
//! col_idx nnz x index
//! values  nnz x value
//! ```
//!
//! A snapshot holds the matrix only: a serving engine derives its shard
//! cuts from the matrix and its device pool at registration
//! ([`crate::ShardPlan::build_weighted`]).
//!
//! Loading validates the full CSR structure via [`Csr::try_new`], so a
//! corrupted or truncated snapshot cannot produce an inconsistent
//! matrix.

use crate::{ColIndex, Csr, SparseError};
use rt_f16::{Bf16, DoseScalar, F16};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"RTDM";
const VERSION: u32 = 1;

/// A scalar with a stable on-disk encoding.
pub trait Storable: Sized + Copy {
    /// Type tag stored in the header.
    const TAG: u32;
    const SIZE: usize;
    fn write_to(&self, out: &mut Vec<u8>);
    fn read_from(bytes: &[u8]) -> Self;
}

macro_rules! storable_prim {
    ($ty:ty, $tag:expr) => {
        impl Storable for $ty {
            const TAG: u32 = $tag;
            const SIZE: usize = core::mem::size_of::<$ty>();
            fn write_to(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn read_from(bytes: &[u8]) -> Self {
                <$ty>::from_le_bytes(bytes.try_into().expect("size checked by caller"))
            }
        }
    };
}

storable_prim!(u16, 1);
storable_prim!(u32, 2);
storable_prim!(u64, 3);
storable_prim!(f32, 4);
storable_prim!(f64, 5);

impl Storable for F16 {
    const TAG: u32 = 6;
    const SIZE: usize = 2;
    fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn read_from(bytes: &[u8]) -> Self {
        F16::from_bits(u16::from_le_bytes(bytes.try_into().expect("size checked")))
    }
}

impl Storable for Bf16 {
    const TAG: u32 = 7;
    const SIZE: usize = 2;
    fn write_to(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn read_from(bytes: &[u8]) -> Self {
        Bf16::from_bits(u16::from_le_bytes(bytes.try_into().expect("size checked")))
    }
}

/// Errors from loading a snapshot.
#[derive(Debug)]
pub enum SnapshotError {
    Io(io::Error),
    BadMagic,
    UnsupportedVersion(u32),
    /// The file's scalar tags do not match the requested types.
    TypeMismatch {
        expected: (u32, u32),
        found: (u32, u32),
    },
    Truncated,
    Structure(SparseError),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "io error: {e}"),
            SnapshotError::BadMagic => write!(f, "not an RTDM snapshot"),
            SnapshotError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            SnapshotError::TypeMismatch { expected, found } => {
                write!(
                    f,
                    "scalar type mismatch: expected {expected:?}, found {found:?}"
                )
            }
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::Structure(e) => write!(f, "invalid matrix structure: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

/// Writes a CSR snapshot.
pub fn save_csr<V, I, W>(m: &Csr<V, I>, out: &mut W) -> io::Result<()>
where
    V: DoseScalar + Storable,
    I: ColIndex + Storable,
    W: Write,
{
    let mut buf =
        Vec::with_capacity(4 + 4 * 3 + 8 * 3 + 4 * (m.nrows() + 1) + (V::SIZE + I::SIZE) * m.nnz());
    buf.extend_from_slice(MAGIC);
    buf.extend_from_slice(&VERSION.to_le_bytes());
    buf.extend_from_slice(&<V as Storable>::TAG.to_le_bytes());
    buf.extend_from_slice(&<I as Storable>::TAG.to_le_bytes());
    buf.extend_from_slice(&(m.nrows() as u64).to_le_bytes());
    buf.extend_from_slice(&(m.ncols() as u64).to_le_bytes());
    buf.extend_from_slice(&(m.nnz() as u64).to_le_bytes());
    for &p in m.row_ptr() {
        buf.extend_from_slice(&p.to_le_bytes());
    }
    for c in m.col_idx() {
        c.write_to(&mut buf);
    }
    for v in m.values() {
        v.write_to(&mut buf);
    }
    out.write_all(&buf)
}

/// Reads and validates a CSR snapshot.
pub fn load_csr<V, I, R>(input: &mut R) -> Result<Csr<V, I>, SnapshotError>
where
    V: DoseScalar + Storable,
    I: ColIndex + Storable,
    R: Read,
{
    let mut data = Vec::new();
    input.read_to_end(&mut data)?;
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8], SnapshotError> {
        if *pos + n > data.len() {
            return Err(SnapshotError::Truncated);
        }
        let s = &data[*pos..*pos + n];
        *pos += n;
        Ok(s)
    };

    if take(&mut pos, 4)? != MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let read_u32 = |pos: &mut usize| -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(take(pos, 4)?.try_into().unwrap()))
    };
    let read_u64 = |pos: &mut usize| -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(take(pos, 8)?.try_into().unwrap()))
    };

    let version = read_u32(&mut pos)?;
    if version != VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    let vtag = read_u32(&mut pos)?;
    let itag = read_u32(&mut pos)?;
    if (vtag, itag) != (<V as Storable>::TAG, <I as Storable>::TAG) {
        return Err(SnapshotError::TypeMismatch {
            expected: (<V as Storable>::TAG, <I as Storable>::TAG),
            found: (vtag, itag),
        });
    }
    let nrows = read_u64(&mut pos)? as usize;
    let ncols = read_u64(&mut pos)? as usize;
    let nnz = read_u64(&mut pos)? as usize;

    // Header counts are untrusted: each array must fit in the bytes left
    // before anything is allocated for it.
    let mut row_ptr = Vec::with_capacity(held(nrows.checked_add(1), 4, data.len() - pos)?);
    for _ in 0..=nrows {
        row_ptr.push(read_u32(&mut pos)?);
    }
    let mut col_idx = Vec::with_capacity(held(Some(nnz), I::SIZE, data.len() - pos)?);
    for _ in 0..nnz {
        col_idx.push(I::read_from(take(&mut pos, I::SIZE)?));
    }
    let mut values = Vec::with_capacity(held(Some(nnz), V::SIZE, data.len() - pos)?);
    for _ in 0..nnz {
        values.push(V::read_from(take(&mut pos, V::SIZE)?));
    }

    Csr::try_new(nrows, ncols, row_ptr, col_idx, values).map_err(SnapshotError::Structure)
}

/// `count` (`None` when computing it overflowed) if `count` elements of
/// `size` bytes fit in the `remaining` bytes of a snapshot, else
/// [`SnapshotError::Truncated`].
fn held(count: Option<usize>, size: usize, remaining: usize) -> Result<usize, SnapshotError> {
    count
        .filter(|&n| n.checked_mul(size).is_some_and(|bytes| bytes <= remaining))
        .ok_or(SnapshotError::Truncated)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr<F16, u32> {
        Csr::<f64, u32>::from_rows(
            4,
            &[
                vec![(0, 1.5), (3, 2.25)],
                vec![],
                vec![(1, 0.75)],
                vec![(0, 3.0), (2, 0.125), (3, 9.0)],
            ],
        )
        .unwrap()
        .convert_values()
    }

    #[test]
    fn round_trip_is_exact() {
        let m = sample();
        let mut buf = Vec::new();
        save_csr(&m, &mut buf).unwrap();
        let back: Csr<F16, u32> = load_csr(&mut buf.as_slice()).unwrap();
        assert_eq!(m, back);
    }

    #[test]
    fn round_trip_other_scalars() {
        let m64: Csr<f64, u32> = Csr::from_rows(2, &[vec![(0, 1.0)], vec![(1, -2.5)]]).unwrap();
        let mut buf = Vec::new();
        save_csr(&m64, &mut buf).unwrap();
        let back: Csr<f64, u32> = load_csr(&mut buf.as_slice()).unwrap();
        assert_eq!(m64, back);

        let m16: Csr<F16, u16> = m64.convert_values().convert_indices().unwrap();
        let mut buf = Vec::new();
        save_csr(&m16, &mut buf).unwrap();
        let back: Csr<F16, u16> = load_csr(&mut buf.as_slice()).unwrap();
        assert_eq!(m16, back);
    }

    #[test]
    fn rejects_bad_magic() {
        let mut buf = b"NOPE".to_vec();
        buf.extend_from_slice(&[0u8; 64]);
        assert!(matches!(
            load_csr::<F16, u32, _>(&mut buf.as_slice()),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn rejects_type_mismatch() {
        let m = sample();
        let mut buf = Vec::new();
        save_csr(&m, &mut buf).unwrap();
        assert!(matches!(
            load_csr::<f32, u32, _>(&mut buf.as_slice()),
            Err(SnapshotError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn rejects_truncation() {
        let m = sample();
        let mut buf = Vec::new();
        save_csr(&m, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        assert!(matches!(
            load_csr::<F16, u32, _>(&mut buf.as_slice()),
            Err(SnapshotError::Truncated)
        ));
    }

    #[test]
    fn rejects_corrupted_structure() {
        let m = sample();
        let mut buf = Vec::new();
        save_csr(&m, &mut buf).unwrap();
        // Corrupt a row_ptr entry (header is 4+4+4+4+8+8+8 = 40 bytes).
        buf[41] = 0xFF;
        assert!(matches!(
            load_csr::<F16, u32, _>(&mut buf.as_slice()),
            Err(SnapshotError::Structure(_))
        ));
    }

    #[test]
    fn rejects_other_versions() {
        let m = sample();
        let mut buf = Vec::new();
        save_csr(&m, &mut buf).unwrap();
        // Version 2 appended shard cut points; it is no longer read.
        for version in [0u32, 2, 3] {
            buf[4..8].copy_from_slice(&version.to_le_bytes());
            assert!(
                matches!(
                    load_csr::<F16, u32, _>(&mut buf.as_slice()),
                    Err(SnapshotError::UnsupportedVersion(v)) if v == version
                ),
                "version {version}"
            );
        }
    }

    /// A header-only snapshot (`magic`, version, tags, `nrows`, `ncols`,
    /// `nnz`) for the `F16`/`u32` matrix type.
    fn forged_header(nrows: u64, nnz: u64) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        for word in [VERSION, <F16 as Storable>::TAG, <u32 as Storable>::TAG] {
            buf.extend_from_slice(&word.to_le_bytes());
        }
        for word in [nrows, 4, nnz] {
            buf.extend_from_slice(&word.to_le_bytes());
        }
        buf
    }

    #[test]
    fn forged_counts_are_truncation_not_allocations() {
        let mut forged: Vec<Vec<u8>> = [1u64 << 36, 1 << 62, u64::MAX]
            .into_iter()
            .map(|nrows| forged_header(nrows, 0))
            .collect();
        // One row of zero length, then 2^40 non-zeros that are not there.
        let mut nnz = forged_header(1, 1 << 40);
        nnz.extend_from_slice(&[0u8; 8]);
        forged.push(nnz);

        for (i, buf) in forged.iter().enumerate() {
            assert!(
                matches!(
                    load_csr::<F16, u32, _>(&mut buf.as_slice()),
                    Err(SnapshotError::Truncated)
                ),
                "forged snapshot {i}"
            );
        }
    }

    #[test]
    fn empty_matrix_round_trips() {
        let m: Csr<F16, u32> = Csr::<f64, u32>::from_rows(3, &[vec![], vec![]])
            .unwrap()
            .convert_values();
        let mut buf = Vec::new();
        save_csr(&m, &mut buf).unwrap();
        let back: Csr<F16, u32> = load_csr(&mut buf.as_slice()).unwrap();
        assert_eq!(m, back);
    }
}
