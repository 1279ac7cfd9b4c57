//! Simulator throughput: how fast the warp-synchronous executor plus
//! cache model chews through the kernels (host wall-clock per simulated
//! non-zero). Useful for sizing experiment scales.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rt_core::{rs_baseline_gpu_spmv, vector_csr_spmm, GpuCsrMatrix, GpuRsMatrix};
use rt_dose::cases::{prostate_case, ScaleConfig};
use rt_f16::F16;
use rt_gpusim::{DeviceSpec, Gpu};
use rt_sparse::{Csr, RsCompressed};

fn bench_sim(c: &mut Criterion) {
    let case = prostate_case(ScaleConfig { shrink: 12.0 }).remove(0);
    let csr: Csr<F16, u32> = case.matrix.convert_values();
    let rs = RsCompressed::from_csr(&csr);
    let weights = vec![1.0f64; csr.ncols()];

    let mut g = c.benchmark_group("simulator");
    g.throughput(Throughput::Elements(csr.nnz() as u64));

    g.bench_function("vector_csr_half_double", |b| {
        let gpu = Gpu::new(DeviceSpec::a100());
        let m = GpuCsrMatrix::upload(&gpu, &csr);
        let x = gpu.upload(&weights);
        let y = gpu.alloc_out::<f64>(csr.nrows());
        b.iter(|| vector_csr_spmm(&gpu, &m, &[&x], &[&y], 512, 32).flops)
    });

    g.bench_function("baseline_segment_atomic", |b| {
        let gpu = Gpu::new(DeviceSpec::a100());
        let m = GpuRsMatrix::upload(&gpu, &rs);
        let x = gpu.upload(&weights);
        let y = gpu.alloc_out::<f64>(rs.nrows());
        b.iter(|| {
            y.clear();
            rs_baseline_gpu_spmv(&gpu, &m, &x, &y, 128).flops
        })
    });

    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_sim
}
criterion_main!(benches);
