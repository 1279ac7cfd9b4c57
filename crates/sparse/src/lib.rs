//! Sparse matrix formats for radiation-therapy dose deposition matrices.
//!
//! A dose deposition matrix maps spot weights (one column per pencil-beam
//! spot) to voxel doses (one row per dose-grid voxel). The matrices are
//! highly sparse (0.6–2% non-zeros in the paper's cases), extremely skewed
//! (40–200x more rows than columns), have ~70% empty rows, and heavy-tailed
//! row lengths — properties that drive every kernel design decision in the
//! paper. This crate provides:
//!
//! * [`Csr`] — compressed sparse row, the format the paper's kernel uses,
//!   generic over the value scalar ([`rt_f16::DoseScalar`]) *and* the column
//!   index type ([`ColIndex`]: `u16` indices are the paper's proposed
//!   future-work optimization).
//! * [`Coo`] — coordinate triplets, the assembly format.
//! * [`Ell`] — ELLPACK, padded column-major storage for SIMT machines.
//! * [`SellCSigma`] — SELL-C-σ (Kreutzer et al.), the paper's cited
//!   future-work format.
//! * [`RsCompressed`] — a reconstruction of RayStation's proprietary
//!   column-major run-length-segmented 16-bit format (see DESIGN.md).
//! * [`QuantizedCsr`] — CSR with 16-bit linear fixed-point codes, for the
//!   value-encoding ablation.
//! * [`stats`] — row-length statistics and the Table I / Figure 2 numbers.
//!
//! All formats carry exact [`size_bytes`](Csr::size_bytes) accounting used
//! by the memory-traffic model, and sequential reference SpMV routines used
//! as ground truth by the kernel tests.

mod coo;
mod csr;
mod ell;
mod error;
mod index;
pub mod io;
mod quantized;
mod rowplan;
mod rscompressed;
mod sell;
mod shardplan;
pub mod stats;

pub use coo::Coo;
pub use csr::Csr;
pub use ell::Ell;
pub use error::SparseError;
pub use index::ColIndex;
pub use io::{load_csr, save_csr, SnapshotError, Storable};
pub use quantized::QuantizedCsr;
pub use rowplan::{
    bucket_index_for_len, RowBucket, RowPlan, EMPTY_ROW_SLOT, NUM_ROW_BUCKETS, ROW_BUCKET_BOUNDS,
};
pub use rscompressed::{RsCompressed, Segment};
pub use sell::SellCSigma;
pub use shardplan::{RowShard, ShardPlan};
