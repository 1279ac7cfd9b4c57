//! Property-based tests over random matrices and values, spanning the
//! format and kernel crates.
//!
//! Written as seeded-RNG case loops (48 cases per property, mirroring
//! the old `ProptestConfig::with_cases(48)`) so they need no external
//! property-testing framework. Failures report the offending case seed.

use rand::prelude::*;
use rtdose::f16::{Bf16, DoseScalar, F16};
use rtdose::gpusim::{DeviceSpec, Gpu};
use rtdose::kernels::{vector_csr_spmm, GpuCsrMatrix, RsCpu};
use rtdose::sparse::stats::RowStats;
use rtdose::sparse::{load_csr, save_csr, Coo, Csr, Ell, RsCompressed, SellCSigma, SnapshotError};
use std::panic::{catch_unwind, AssertUnwindSafe};

const CASES: u64 = 48;

/// Runs `body` for `CASES` deterministic cases, labelling panics with
/// the case number so a failure is reproducible in isolation.
fn for_each_case(property: &str, body: impl Fn(&mut StdRng)) {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x5eed_0000 + case);
        let result = catch_unwind(AssertUnwindSafe(|| body(&mut rng)));
        if let Err(payload) = result {
            eprintln!("property `{property}` failed at case {case}");
            std::panic::resume_unwind(payload);
        }
    }
}

/// A random sparse matrix shape: (nrows, ncols, triplets), matching the
/// old proptest strategy (2..60 rows, 2..40 cols, up to 200 triplets).
fn random_matrix(rng: &mut StdRng) -> (usize, usize, Vec<(usize, usize, f64)>) {
    let nrows = rng.gen_range(2usize..60);
    let ncols = rng.gen_range(2usize..40);
    let ntrip = rng.gen_range(0usize..200);
    let triplets = (0..ntrip)
        .map(|_| {
            (
                rng.gen_range(0..nrows),
                rng.gen_range(0..ncols),
                rng.gen_range(0.0f64..10.0),
            )
        })
        .collect();
    (nrows, ncols, triplets)
}

fn build(nrows: usize, ncols: usize, triplets: &[(usize, usize, f64)]) -> Csr<f64, u32> {
    Coo::from_triplets(nrows, ncols, triplets.to_vec())
        .unwrap()
        .to_csr()
        .unwrap()
}

#[test]
fn all_formats_compute_the_same_spmv() {
    for_each_case("all_formats_compute_the_same_spmv", |rng| {
        let (nrows, ncols, triplets) = random_matrix(rng);
        let seed = rng.gen_range(0u64..1000);
        let m = build(nrows, ncols, &triplets);
        let x: Vec<f64> = (0..ncols)
            .map(|i| ((i as u64 * 37 + seed) % 17) as f64 * 0.25)
            .collect();
        let mut want = vec![0.0; nrows];
        m.spmv_ref(&x, &mut want).unwrap();

        let mut got = vec![0.0; nrows];
        Ell::from_csr(&m).spmv_ref(&x, &mut got).unwrap();
        for (g, w) in got.iter().zip(want.iter()) {
            assert!((g - w).abs() <= 1e-9 * (1.0 + w.abs()));
        }

        SellCSigma::from_csr(&m, 8, 32)
            .spmv_ref(&x, &mut got)
            .unwrap();
        for (g, w) in got.iter().zip(want.iter()) {
            assert!((g - w).abs() <= 1e-9 * (1.0 + w.abs()));
        }

        RsCompressed::from_csr(&m).spmv_ref(&x, &mut got).unwrap();
        for (g, w) in got.iter().zip(want.iter()) {
            assert!((g - w).abs() <= 1e-9 * (1.0 + w.abs()));
        }
    });
}

#[test]
fn gpu_kernel_matches_reference_on_random_matrices() {
    for_each_case("gpu_kernel_matches_reference_on_random_matrices", |rng| {
        let (nrows, ncols, triplets) = random_matrix(rng);
        let m64 = build(nrows, ncols, &triplets);
        let m: Csr<F16, u32> = m64.convert_values();
        let x: Vec<f64> = (0..ncols).map(|i| 1.0 + (i % 5) as f64).collect();
        let gpu = Gpu::new(DeviceSpec::a100());
        let gm = GpuCsrMatrix::upload(&gpu, &m);
        let dx = gpu.upload(&x);
        let dy = gpu.alloc_out::<f64>(nrows);
        let stats = vector_csr_spmm(&gpu, &gm, &[&dx], &[&dy], 128, 32);
        assert_eq!(stats.flops, 2 * m.nnz() as u64);

        let mut want = vec![0.0; nrows];
        m.spmv_ref(&x, &mut want).unwrap();
        for (g, w) in dy.to_vec().iter().zip(want.iter()) {
            assert!((g - w).abs() <= 1e-9 * (1.0 + w.abs()), "{} vs {}", g, w);
        }
    });
}

#[test]
fn rs_cpu_agrees_with_reference_for_any_thread_count() {
    for_each_case("rs_cpu_agrees_with_reference_for_any_thread_count", |rng| {
        let (nrows, ncols, triplets) = random_matrix(rng);
        let threads = rng.gen_range(1usize..9);
        let m64 = build(nrows, ncols, &triplets);
        let m: Csr<F16, u32> = m64.convert_values();
        let rs = RsCompressed::from_csr(&m);
        let w: Vec<f64> = (0..ncols).map(|i| (i % 3) as f64).collect();
        let mut want = vec![0.0; nrows];
        m.spmv_ref(&w, &mut want).unwrap();
        let mut got = vec![0.0; nrows];
        RsCpu::with_threads(threads)
            .spmv(&rs, &w, &mut got)
            .unwrap();
        for (g, wv) in got.iter().zip(want.iter()) {
            assert!((g - wv).abs() <= 1e-9 * (1.0 + wv.abs()));
        }
    });
}

#[test]
fn transpose_is_an_involution() {
    for_each_case("transpose_is_an_involution", |rng| {
        let (nrows, ncols, triplets) = random_matrix(rng);
        let m = build(nrows, ncols, &triplets);
        let tt = m.transpose().transpose();
        // transpose() returns u32 indices; compare entry lists.
        assert_eq!(m.iter().collect::<Vec<_>>(), tt.iter().collect::<Vec<_>>());
    });
}

#[test]
fn spmv_is_linear() {
    for_each_case("spmv_is_linear", |rng| {
        let (nrows, ncols, triplets) = random_matrix(rng);
        let a = rng.gen_range(0.1f64..4.0);
        let m = build(nrows, ncols, &triplets);
        let x: Vec<f64> = (0..ncols).map(|i| (i + 1) as f64 * 0.5).collect();
        let ax: Vec<f64> = x.iter().map(|&v| a * v).collect();
        let mut y1 = vec![0.0; nrows];
        let mut y2 = vec![0.0; nrows];
        m.spmv_ref(&x, &mut y1).unwrap();
        m.spmv_ref(&ax, &mut y2).unwrap();
        for (u, v) in y1.iter().zip(y2.iter()) {
            assert!((a * u - v).abs() <= 1e-9 * (1.0 + v.abs()));
        }
    });
}

#[test]
fn row_stats_invariants() {
    for_each_case("row_stats_invariants", |rng| {
        let (nrows, ncols, triplets) = random_matrix(rng);
        let m = build(nrows, ncols, &triplets);
        let s = RowStats::from_csr(&m);
        assert_eq!(s.nnz, m.nnz());
        assert!(s.empty_fraction() >= 0.0 && s.empty_fraction() <= 1.0);
        assert!(s.cumulative_at(s.max_row_len + 1) == 1.0 || m.nnz() == 0);
        assert!(s.frac_nonempty_below_warp >= 0.0 && s.frac_nonempty_below_warp <= 1.0);
        // Quantiles are ordered.
        assert!(s.quantile(0.25) <= s.quantile(0.75));
    });
}

#[test]
fn f16_conversion_is_monotone_and_bounded() {
    for_each_case("f16_conversion_is_monotone_and_bounded", |rng| {
        let x = rng.gen_range(-65000.0f64..65000.0);
        let y = rng.gen_range(-65000.0f64..65000.0);
        let (lo, hi) = if x <= y { (x, y) } else { (y, x) };
        let a = F16::from_f64(lo);
        let b = F16::from_f64(hi);
        assert!(a.to_f64() <= b.to_f64());
        // Relative error bound for normal-range values.
        if lo.abs() > 1e-4 {
            assert!((a.to_f64() - lo).abs() <= lo.abs() * 2.0f64.powi(-11) * 1.0001);
        }
    });
}

#[test]
fn bf16_round_trip_is_idempotent() {
    for_each_case("bf16_round_trip_is_idempotent", |rng| {
        let x = rng.gen_range(-1e30f64..1e30);
        let once = Bf16::from_f64(x);
        let twice = Bf16::from_f64(once.to_f64());
        assert_eq!(once.to_bits(), twice.to_bits());
    });
}

#[test]
fn pruning_never_increases_anything() {
    for_each_case("pruning_never_increases_anything", |rng| {
        let (nrows, ncols, triplets) = random_matrix(rng);
        let threshold = rng.gen_range(0.0f64..5.0);
        let m = build(nrows, ncols, &triplets);
        let p = m.prune(threshold);
        assert!(p.nnz() <= m.nnz());
        assert!(p.values().iter().all(|v| v.to_f64().abs() >= threshold));
        assert_eq!(p.nrows(), m.nrows());
        assert_eq!(p.ncols(), m.ncols());
    });
}

/// Byte offsets of the snapshot header's count fields (`io` module docs):
/// version, value tag and index tag (u32), then nrows, ncols, nnz (u64).
const HEADER_U32S: [usize; 3] = [4, 8, 12];
const HEADER_U64S: [usize; 3] = [16, 24, 32];

/// A value worth splicing into a header field of `width` bytes: a
/// boundary, a neighbour of the field's current value, or random.
fn interesting(rng: &mut StdRng, current: u64, width: usize) -> u64 {
    let max = if width == 4 {
        u32::MAX as u64
    } else {
        u64::MAX
    };
    let v = match rng.gen_range(0..8u32) {
        0 => 0,
        1 => 1,
        2 => current.wrapping_add(1),
        3 => current.wrapping_sub(1),
        4 => max,
        5 => max / 2 + 1,
        6 => rng.gen_range(0..64),
        _ => rng.gen_range(0..u64::MAX),
    };
    v & max
}

fn splice(bytes: &mut [u8], at: usize, width: usize, rng: &mut StdRng) {
    if at + width > bytes.len() {
        return;
    }
    let mut cur = [0u8; 8];
    cur[..width].copy_from_slice(&bytes[at..at + width]);
    let v = interesting(rng, u64::from_le_bytes(cur), width);
    bytes[at..at + width].copy_from_slice(&v.to_le_bytes()[..width]);
}

/// One to three seeded mutations of a valid snapshot: byte flips, a
/// truncation, or a spliced header or row-pointer field.
fn mutate(rng: &mut StdRng, valid: &[u8]) -> Vec<u8> {
    let mut bytes = valid.to_vec();
    for _ in 0..rng.gen_range(1..=3) {
        if bytes.is_empty() {
            break;
        }
        match rng.gen_range(0..5u32) {
            0 => {
                for _ in 0..rng.gen_range(1..=4) {
                    let at = rng.gen_range(0..bytes.len());
                    bytes[at] ^= rng.gen_range(1..=255u8);
                }
            }
            1 => bytes.truncate(rng.gen_range(0..bytes.len())),
            2 => {
                let at = HEADER_U32S[rng.gen_range(0..3usize)];
                splice(&mut bytes, at, 4, rng);
            }
            3 => {
                let at = HEADER_U64S[rng.gen_range(0..3usize)];
                splice(&mut bytes, at, 8, rng);
            }
            _ => {
                // A row-pointer entry (they start right after the header).
                let at = 40 + 4 * rng.gen_range(0..8usize);
                splice(&mut bytes, at, 4, rng);
            }
        }
    }
    bytes
}

/// Snapshots are untrusted input: every mutation of a valid snapshot
/// loads as a matrix or fails with a typed `SnapshotError`, and never
/// panics. A well-formed version-2 file (the matrix followed by shard
/// cut points, a format no longer read) fails with
/// `UnsupportedVersion(2)`.
#[test]
fn mutated_snapshots_load_or_fail_typed_and_never_panic() {
    for_each_case(
        "mutated_snapshots_load_or_fail_typed_and_never_panic",
        |rng| {
            let (nrows, ncols, triplets) = random_matrix(rng);
            let m: Csr<F16, u32> = build(nrows, ncols, &triplets).convert_values();
            let mut valid = Vec::new();
            save_csr(&m, &mut valid).unwrap();
            let mut failed = 0;
            for k in 0..64 {
                let bytes = mutate(rng, &valid);
                match catch_unwind(|| load_csr::<F16, u32, _>(&mut bytes.as_slice()).is_ok()) {
                    Ok(loaded) => failed += usize::from(!loaded),
                    Err(_) => panic!("mutation {k} ({} bytes) panicked", bytes.len()),
                }
            }
            assert!(failed > 0, "no mutation was rejected");

            let mut appended = valid.clone();
            let extra = rng.gen_range(1..=16usize);
            appended.extend((0..extra).map(|_| rng.gen_range(0..=255u8)));
            assert!(matches!(
                load_csr::<F16, u32, _>(&mut appended.as_slice()),
                Err(SnapshotError::TrailingBytes(n)) if n == extra
            ));

            let cuts: Vec<u64> = (1..nrows as u64).filter(|_| rng.gen_bool(0.2)).collect();
            let mut v2 = valid.clone();
            v2[4..8].copy_from_slice(&2u32.to_le_bytes());
            v2.extend_from_slice(&(cuts.len() as u32).to_le_bytes());
            for c in cuts {
                v2.extend_from_slice(&c.to_le_bytes());
            }
            assert!(matches!(
                load_csr::<F16, u32, _>(&mut v2.as_slice()),
                Err(SnapshotError::UnsupportedVersion(2))
            ));
        },
    );
}
