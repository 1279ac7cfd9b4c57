//! Serving engine walkthrough: two plans, a heterogeneous device pool,
//! concurrent submitters, request batching, deadlines, and a live
//! optimization sharing the pool with ad-hoc traffic.
//!
//! ```sh
//! cargo run --release --example serving_engine
//! ```

use rtdose::dose::cases::{liver_case, prostate_case, ScaleConfig};
use rtdose::engine::{Engine, RequestKind, ServedDoseEngine};
use rtdose::gpusim::DeviceSpec;
use rtdose::optim::{optimize, Objective, ObjectiveTerm, OptimizerConfig};

fn main() {
    // 1. Two plans from the paper's case library.
    println!("generating plans ...");
    let scale = ScaleConfig { shrink: 24.0 };
    let liver = liver_case(scale).swap_remove(0).matrix;
    let prostate = prostate_case(scale).swap_remove(0).matrix;

    // 2. A pool with two device generations. One worker thread per
    //    device; plans upload to every device so any worker can serve
    //    any plan.
    let mut engine = Engine::builder()
        .device(DeviceSpec::a100())
        .device(DeviceSpec::a100())
        .device(DeviceSpec::v100())
        .queue_capacity(32)
        .build()
        .expect("non-empty pool and valid configuration");
    engine.register_plan("liver", &liver).expect("valid matrix");
    engine
        .register_plan("prostate", &prostate)
        .expect("valid matrix");

    let prostate_dims = engine.plan_dims("prostate").unwrap();
    let (_, report) = engine.serve(|client| {
        std::thread::scope(|s| {
            // 3a. A background submitter hammering the prostate plan with
            //     dose requests — compatible requests get batched into
            //     multi-vector launches that share the matrix bytes.
            s.spawn(|| {
                for i in 0..40 {
                    let w: Vec<f64> = (0..prostate_dims.1)
                        .map(|j| ((i + j) as f64 * 0.03).sin().abs())
                        .collect();
                    let r = client
                        .call("prostate", RequestKind::Dose, w)
                        .expect("request served");
                    if i == 0 {
                        println!(
                            "first prostate response: device {}, batch of {}, modeled {:.1} us",
                            r.device,
                            r.batch_size,
                            r.report.estimate.seconds * 1e6
                        );
                    }
                }
            });

            // 3b. Meanwhile, a plan optimization drives the liver plan
            //     through the same pool via the DoseEngine adapter.
            s.spawn(|| {
                let served = ServedDoseEngine::new(client, "liver").expect("liver is registered");
                let objective = Objective::new(vec![ObjectiveTerm::UniformDose {
                    voxels: (0..liver.nrows() / 4).collect(),
                    prescribed: 1.0,
                    weight: 1.0,
                }]);
                let w0 = vec![0.5; liver.ncols()];
                let cfg = OptimizerConfig {
                    max_iters: 10,
                    ..Default::default()
                };
                let result = optimize(&served, &objective, &w0, &cfg);
                println!(
                    "liver optimization: objective {:.4} after {} dose evaluations",
                    result.objective, result.dose_evals
                );
            });
        });
    });

    // 4. The engine-level report: throughput, latency, batching, per-
    //    device utilization — the same JSON `rtdose serve-demo` emits.
    println!("\nengine report:\n{}", report.to_json());
    assert_eq!(report.failed, 0);
}
