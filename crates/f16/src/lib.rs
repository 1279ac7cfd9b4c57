//! Software 16-bit floating-point and fixed-point scalar types.
//!
//! RayStation stores dose deposition matrix entries in 16 bits to halve the
//! memory footprint of matrices that otherwise reach several gigabytes (the
//! liver cases in the paper are 7.7–11 GB). The paper's GPU kernel matches
//! that precision with IEEE-754 binary16 (`half` in CUDA). This crate
//! implements the required conversions **from scratch** — no hardware or
//! external `half` crate — with correct round-to-nearest-even semantics:
//!
//! * [`F16`] — IEEE-754 binary16 (1 sign, 5 exponent, 10 mantissa bits).
//! * [`Bf16`] — bfloat16 (1 sign, 8 exponent, 7 mantissa bits), used by the
//!   value-encoding ablation bench.
//! * [`Quantizer`] / scaled `u16` fixed point — the third 16-bit encoding
//!   candidate examined in the ablation.
//! * [`DoseScalar`] — the trait the sparse-matrix and kernel crates
//!   genericize over, implemented for `F16`, `Bf16`, `f32` and `f64`.
//!
//! Conversions to wider types are exact; conversions from wider types use
//! round-to-nearest, ties-to-even, including correct handling of subnormals,
//! overflow to infinity and NaN preservation. `f64 -> F16` rounds in a
//! single step (going through `f32` first can double-round).
//!
//! **Decoding `F16` is one table load.** The paper widens each stored
//! binary16 entry to binary64 at the multiply, a single hardware
//! conversion. In software the conversion branches on the exponent field
//! (zero/subnormal, normal, infinity/NaN), and dose-deposition matrices
//! are mostly subnormal: about 59% of the shrink-6 liver's stored values
//! and 64% of the shrink-32 liver's. The branch therefore mispredicts on
//! a large share of non-zeros in every simulated kernel. Instead,
//! `F16::to_f64` reads a `static` table of all 65,536 values, filled at
//! compile time by a `const fn` form of the bit-manipulation conversion,
//! which stays the one definition of a binary16 value. There is no
//! run-time set-up; the cost is 512 KiB of read-only data.
//! `F16::to_f32`, the [`DoseScalar`] methods and IEEE equality and
//! ordering read the same table; a test checks all 65,536 entries
//! against the format's definition.

mod bfloat16;
mod binary16;
mod fixed;
mod scalar;

pub use bfloat16::Bf16;
pub use binary16::F16;
pub use fixed::{Fixed16, Quantizer};
pub use scalar::DoseScalar;
