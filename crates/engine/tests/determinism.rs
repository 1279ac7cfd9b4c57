//! §II-D at serving scale: per-plan outputs must be bitwise identical
//! regardless of worker count, device mix, submission order, submitter
//! concurrency, or how requests happen to be batched.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rt_engine::{
    Engine, ExecPolicy, KernelSelect, PartitionStrategy, ReplicaSpec, RequestKind, ShardSpec,
};
use rt_gpusim::DeviceSpec;
use rt_sparse::Csr;

/// Random dose-deposition-shaped matrix: `nrows` voxels, `ncols` spots,
/// row lengths up to `max_row`.
fn random_matrix(seed: u64, nrows: usize, ncols: usize, max_row: usize) -> Csr<f64, u32> {
    let mut rng = StdRng::seed_from_u64(seed);
    let rows: Vec<Vec<(usize, f64)>> = (0..nrows)
        .map(|_| {
            let len = rng.gen_range(0..max_row);
            let mut cols: Vec<usize> = (0..len).map(|_| rng.gen_range(0..ncols)).collect();
            cols.sort_unstable();
            cols.dedup();
            cols.into_iter()
                .map(|c| (c, rng.gen_range(0.0..0.1)))
                .collect()
        })
        .collect();
    Csr::from_rows(ncols, &rows).unwrap()
}

struct Workload {
    plan: &'static str,
    kind: RequestKind,
    payload: Vec<f64>,
}

/// Deterministic mixed workload over two plans, keyed by request id.
fn workload(liver_dims: (usize, usize), prostate_dims: (usize, usize)) -> Vec<Workload> {
    (0..48)
        .map(|i| {
            let (plan, dims) = if i % 3 == 0 {
                ("prostate", prostate_dims)
            } else {
                ("liver", liver_dims)
            };
            let kind = if i % 4 == 2 {
                RequestKind::Gradient
            } else {
                RequestKind::Dose
            };
            let len = match kind {
                RequestKind::Dose => dims.1,
                RequestKind::Gradient => dims.0,
            };
            let payload = (0..len)
                .map(|j| ((i * 131 + j * 17) as f64 * 0.013).sin().abs())
                .collect();
            Workload {
                plan,
                kind,
                payload,
            }
        })
        .collect()
}

/// Runs the whole workload through a pool, submitting in `order` from
/// `submitters` concurrent threads; returns outputs indexed by request id
/// as raw bits.
fn run_pool(
    devices: Vec<DeviceSpec>,
    order: &[usize],
    submitters: usize,
    liver: &Csr<f64, u32>,
    prostate: &Csr<f64, u32>,
) -> Vec<Vec<u64>> {
    run_pool_with(
        devices,
        order,
        submitters,
        liver,
        prostate,
        ExecPolicy::default(),
    )
    .0
}

/// Shorthand for a forced placement: `k` shards per group, `r` groups.
fn placed(k: usize, r: usize) -> ExecPolicy {
    ExecPolicy::builder()
        .shards(ShardSpec::Fixed(k))
        .replicas(ReplicaSpec::Fixed(r))
        .build()
        .unwrap()
}

/// [`run_pool`] with an explicit per-plan execution policy, also
/// returning the serve report.
fn run_pool_with(
    devices: Vec<DeviceSpec>,
    order: &[usize],
    submitters: usize,
    liver: &Csr<f64, u32>,
    prostate: &Csr<f64, u32>,
    policy: ExecPolicy,
) -> (Vec<Vec<u64>>, rt_engine::EngineReport) {
    let work = workload(
        (liver.nrows(), liver.ncols()),
        (prostate.nrows(), prostate.ncols()),
    );
    let mut engine = Engine::builder().devices(devices).build().unwrap();
    engine.register_plan_with("liver", liver, policy).unwrap();
    engine
        .register_plan_with("prostate", prostate, policy)
        .unwrap();

    let (outputs, report) = engine.serve(|client| {
        let results: Vec<std::sync::Mutex<Option<Vec<f64>>>> =
            work.iter().map(|_| std::sync::Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for chunk in order.chunks(order.len().div_ceil(submitters)) {
                let results = &results;
                let work = &work;
                s.spawn(move || {
                    for &id in chunk {
                        let w = &work[id];
                        let r = client
                            .call(w.plan, w.kind, w.payload.clone())
                            .expect("request served");
                        *results[id].lock().unwrap() = Some(r.output);
                    }
                });
            }
        });
        results
            .into_iter()
            .map(|m| m.into_inner().unwrap().unwrap())
            .collect::<Vec<_>>()
    });
    assert_eq!(report.completed, order.len() as u64);
    assert_eq!(report.failed, 0);
    let bits = outputs
        .into_iter()
        .map(|v| v.into_iter().map(f64::to_bits).collect())
        .collect();
    (bits, report)
}

fn shuffled(seed: u64, n: usize) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    order
}

#[test]
fn doses_identical_across_pool_sizes_and_interleavings() {
    let liver = random_matrix(1, 900, 60, 40); // long rows
    let prostate = random_matrix(2, 700, 80, 8); // short rows
    let n = 48;

    let baseline = run_pool(
        vec![DeviceSpec::a100()],
        &(0..n).collect::<Vec<_>>(),
        1,
        &liver,
        &prostate,
    );

    // 4 homogeneous workers, shuffled submission, 4 submitter threads.
    let four = run_pool(
        vec![DeviceSpec::a100(); 4],
        &shuffled(77, n),
        4,
        &liver,
        &prostate,
    );
    assert_eq!(baseline, four, "4-worker pool changed some dose bytes");

    // 8 heterogeneous workers (mixed device generations), another order.
    let mut pool = vec![
        DeviceSpec::a100(),
        DeviceSpec::a100(),
        DeviceSpec::v100(),
        DeviceSpec::v100(),
        DeviceSpec::p100(),
        DeviceSpec::p100(),
        DeviceSpec::a100(),
        DeviceSpec::v100(),
    ];
    pool.truncate(8);
    let eight = run_pool(pool, &shuffled(991, n), 8, &liver, &prostate);
    assert_eq!(
        baseline, eight,
        "8-worker mixed pool changed some dose bytes"
    );
}

#[test]
fn two_plans_on_one_pool_run_different_tile_widths_deterministically() {
    // Long-row liver keeps the paper's warp-per-row kernel; short-row
    // prostate autotunes to a sub-warp tile. Both must stay bitwise
    // stable across pool sizes while running *different* widths on the
    // same worker pool.
    let liver = random_matrix(5, 900, 60, 40);
    let prostate = random_matrix(6, 700, 80, 8);

    let mut engine = Engine::builder()
        .device(DeviceSpec::a100())
        .build()
        .unwrap();
    engine.register_plan("liver", &liver).unwrap();
    engine.register_plan("prostate", &prostate).unwrap();
    let liver_w = engine.plan_choice("liver").unwrap().tile_width;
    let prostate_w = engine.plan_choice("prostate").unwrap().tile_width;
    assert_eq!(liver_w, 32, "long rows must keep the full warp");
    assert!(
        prostate_w < liver_w,
        "short rows must autotune narrower (got {prostate_w})"
    );

    let n = 48;
    let baseline = run_pool(
        vec![DeviceSpec::a100()],
        &(0..n).collect::<Vec<_>>(),
        1,
        &liver,
        &prostate,
    );
    let four = run_pool(
        vec![DeviceSpec::a100(); 4],
        &shuffled(31, n),
        4,
        &liver,
        &prostate,
    );
    assert_eq!(
        baseline, four,
        "mixed-width plans diverged across pool sizes"
    );

    // And the serve report carries the selection for both plans.
    let (_, report) = engine.serve(|c| {
        c.call("prostate", RequestKind::Dose, vec![0.5; prostate.ncols()])
            .unwrap()
    });
    let by_name = |n: &str| report.plans.iter().find(|p| p.name == n).unwrap();
    assert_eq!(by_name("liver").tile_width, 32);
    assert_eq!(by_name("prostate").tile_width, prostate_w);
    assert_eq!(by_name("prostate").mode, "heuristic");
}

#[test]
fn partitioned_serving_is_bitwise_identical_and_reports_buckets() {
    // Empty-heavy, short-row matrices: the partitioned path's target
    // shape. The doses must not change — bucketing only reorders which
    // tile visits which row, never a row's reduction tree.
    let liver = random_matrix(9, 900, 60, 4);
    let prostate = random_matrix(10, 700, 80, 8);
    let n = 48;
    let order: Vec<usize> = (0..n).collect();

    let run = |select: KernelSelect, devices: Vec<DeviceSpec>| {
        let policy = ExecPolicy::builder().kernel_select(select).build().unwrap();
        let mut engine = Engine::builder()
            .devices(devices)
            .default_policy(policy)
            .build()
            .unwrap();
        engine.register_plan("liver", &liver).unwrap();
        engine.register_plan("prostate", &prostate).unwrap();
        let work = workload(
            (liver.nrows(), liver.ncols()),
            (prostate.nrows(), prostate.ncols()),
        );
        engine.serve(|client| {
            order
                .iter()
                .map(|&id| {
                    let w = &work[id];
                    client
                        .call(w.plan, w.kind, w.payload.clone())
                        .unwrap()
                        .output
                        .into_iter()
                        .map(f64::to_bits)
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        })
    };

    // A partitioned strategy must be bitwise stable across pool sizes and
    // device mixes, exactly like whole-matrix dispatch. (Partitioned
    // doses are *not* compared against whole-matrix doses here: a bucket
    // running at a different tile width than the whole-matrix pick uses a
    // different — equally deterministic — truncated reduction tree. The
    // per-width bitwise equivalence against the classic kernels is
    // asserted in rt-core's bucketed tests.)
    let (base_doses, base_report) = run(KernelSelect::Heuristic, vec![DeviceSpec::a100()]);
    let (part, part_report) = run(
        KernelSelect::Partitioned(PartitionStrategy::Heuristic),
        vec![DeviceSpec::a100()],
    );
    let (part4, _) = run(
        KernelSelect::Partitioned(PartitionStrategy::Heuristic),
        vec![
            DeviceSpec::a100(),
            DeviceSpec::v100(),
            DeviceSpec::a100(),
            DeviceSpec::p100(),
        ],
    );
    assert_eq!(
        part, part4,
        "partitioned 4-device mixed pool changed some dose bytes"
    );
    let (probe, _) = run(
        KernelSelect::Partitioned(PartitionStrategy::MeasuredProbe),
        vec![DeviceSpec::a100()],
    );
    let (probe4, _) = run(
        KernelSelect::Partitioned(PartitionStrategy::MeasuredProbe),
        vec![DeviceSpec::a100(); 4],
    );
    assert_eq!(
        probe, probe4,
        "probe-partitioned 4-device pool changed some dose bytes"
    );
    // Output shapes agree with whole-matrix serving even where bits may
    // legitimately differ (different per-row widths).
    for (b, p) in base_doses.iter().zip(&part) {
        assert_eq!(b.len(), p.len());
    }

    // Whole-matrix plans report no buckets; partitioned plans report one
    // selection per populated bucket.
    assert!(base_report.plans.iter().all(|p| p.buckets.is_empty()));
    let by_name = |n: &str| part_report.plans.iter().find(|p| p.name == n).unwrap();
    let liver_sel = by_name("liver");
    assert_eq!(liver_sel.mode, "partitioned-heuristic");
    assert!(!liver_sel.buckets.is_empty());
    for b in &liver_sel.buckets {
        assert!(b.rows > 0, "unpopulated bucket leaked into the report");
        assert!(rt_gpusim::TILE_WIDTHS.contains(&b.tile_width));
        assert!(b.lanes_active_frac > 0.0 && b.lanes_active_frac <= 1.0);
    }

    // The engine caches the row plan once per partitioned plan and the
    // report's bucket rows account for exactly the non-empty rows.
    let mut engine = Engine::builder()
        .device(DeviceSpec::a100())
        .build()
        .unwrap();
    engine
        .register_plan_with(
            "liver",
            &liver,
            ExecPolicy::builder()
                .kernel_select(KernelSelect::Partitioned(PartitionStrategy::Heuristic))
                .build()
                .unwrap(),
        )
        .unwrap();
    let plan = engine.plan_row_plan("liver").expect("row plan cached");
    assert_eq!(
        liver_sel.buckets.iter().map(|b| b.rows).sum::<u64>(),
        plan.nonempty_rows() as u64
    );
}

#[test]
fn batched_and_unbatched_serving_agree() {
    let liver = random_matrix(3, 500, 40, 30);
    let prostate = random_matrix(4, 400, 50, 6);
    let n = 48;
    let order: Vec<usize> = (0..n).collect();

    // max_batch(1) disables batching entirely; the default batches up to
    // MAX_SPMM_BATCH requests per launch. Doses must not care.
    let run = |max_batch: usize| {
        let mut engine = Engine::builder()
            .device(DeviceSpec::a100())
            .device(DeviceSpec::v100())
            .max_batch(max_batch)
            .build()
            .unwrap();
        engine.register_plan("liver", &liver).unwrap();
        engine.register_plan("prostate", &prostate).unwrap();
        let work = workload(
            (liver.nrows(), liver.ncols()),
            (prostate.nrows(), prostate.ncols()),
        );
        let (out, _) = engine.serve(|client| {
            let tickets: Vec<_> = order
                .iter()
                .map(|&id| {
                    let w = &work[id];
                    client.submit(w.plan, w.kind, w.payload.clone()).unwrap()
                })
                .collect();
            tickets
                .into_iter()
                .map(|t| {
                    t.wait()
                        .unwrap()
                        .output
                        .into_iter()
                        .map(f64::to_bits)
                        .collect::<Vec<_>>()
                })
                .collect::<Vec<_>>()
        });
        out
    };
    assert_eq!(run(1), run(rt_core::MAX_SPMM_BATCH));
}

#[test]
fn placed_serving_is_bitwise_identical_to_unsharded() {
    // §II-D across the pool: placing a plan as R replica groups × K row
    // shards and executing requests cooperatively must not change a
    // single dose byte — for any R, K, pool mix, submission order, or
    // kernel selection. Pinned whole-matrix widths make each row's
    // reduction tree shard- and replica-invariant; disjoint row ranges
    // make the merge a pure scatter.
    let liver = random_matrix(1, 900, 60, 40);
    let prostate = random_matrix(2, 700, 80, 8);
    let n = 48;
    let mixed = vec![
        DeviceSpec::a100(),
        DeviceSpec::a100(),
        DeviceSpec::v100(),
        DeviceSpec::p100(),
    ];

    let baseline = run_pool(
        vec![DeviceSpec::a100()],
        &(0..n).collect::<Vec<_>>(),
        1,
        &liver,
        &prostate,
    );
    for r in 1..=2usize {
        for k in 1..=4usize {
            let (out, report) = run_pool_with(
                mixed.clone(),
                &shuffled(100 + (r * 10 + k) as u64, n),
                4,
                &liver,
                &prostate,
                placed(k, r),
            );
            assert_eq!(out, baseline, "r={r} k={k} mixed pool changed dose bytes");
            for plan in &report.plans {
                assert_eq!(plan.shards.len(), k, "plan {} shard count", plan.name);
                let pl = plan.placement.as_ref().expect("placed plan reports layout");
                assert_eq!(pl.replicas, r);
                assert_eq!(pl.shards_per_replica, k);
                assert!(!pl.auto_shards);
                // Groups partition the pool: disjoint, all devices used
                // when R divides the pool evenly.
                let member_count: usize = pl.groups.iter().map(|g| g.devices.len()).sum();
                assert_eq!(member_count, mixed.len());
            }
        }
    }

    // The break-even autotuner must preserve bitwise doses too, whatever
    // K it picks per group.
    let auto = ExecPolicy::builder()
        .shards(ShardSpec::Auto)
        .replicas(ReplicaSpec::Fixed(2))
        .build()
        .unwrap();
    let (auto_out, auto_report) =
        run_pool_with(mixed.clone(), &shuffled(400, n), 4, &liver, &prostate, auto);
    assert_eq!(auto_out, baseline, "auto-sharded pool changed dose bytes");
    for plan in &auto_report.plans {
        let pl = plan.placement.as_ref().unwrap();
        assert!(pl.auto_shards);
        assert!(
            !pl.breakeven.is_empty(),
            "auto plans must report their break-even table"
        );
        let chosen = pl
            .breakeven
            .iter()
            .min_by(|a, b| a.modeled_seconds.total_cmp(&b.modeled_seconds))
            .unwrap();
        assert_eq!(pl.shards_per_replica, chosen.k, "reported K is the argmin");
    }

    // Single-device pool still accepts placement (all shards home there).
    let (one_dev, _) = run_pool_with(
        vec![DeviceSpec::v100()],
        &shuffled(55, n),
        2,
        &liver,
        &prostate,
        placed(3, 1),
    );
    assert_eq!(one_dev, baseline, "1-device placed pool changed bytes");

    // Pinned fixed widths — the paper's warp-per-row kernel and a
    // sub-warp tile — keep every K bitwise equal to one unplaced device.
    for w in [32u32, 4] {
        let fixed = |k: usize| {
            ExecPolicy::builder()
                .tile_width(w)
                .shards(ShardSpec::Fixed(k))
                .replicas(ReplicaSpec::Fixed(1))
                .build()
                .unwrap()
        };
        let one_dev = vec![DeviceSpec::a100()];
        let in_order: Vec<usize> = (0..n).collect();
        let (fixed_base, _) = run_pool_with(one_dev, &in_order, 1, &liver, &prostate, fixed(1));
        for k in 1..=4usize {
            let order = shuffled(200 + (w as usize * 10 + k) as u64, n);
            let (out, _) = run_pool_with(mixed.clone(), &order, 4, &liver, &prostate, fixed(k));
            assert_eq!(
                out, fixed_base,
                "w={w} k={k} placed pool changed dose bytes"
            );
        }
    }

    // Partitioned (bucketed) selection: placed doses must match the
    // unplaced partitioned doses — the global bucket widths are pinned
    // before the split and applied to every shard's row plan.
    let select = KernelSelect::Partitioned(PartitionStrategy::Heuristic);
    let (part_base, _) = run_pool_with(
        vec![DeviceSpec::a100()],
        &(0..n).collect::<Vec<_>>(),
        1,
        &liver,
        &prostate,
        ExecPolicy::builder().kernel_select(select).build().unwrap(),
    );
    let (part_placed, _) = run_pool_with(
        mixed,
        &shuffled(77, n),
        4,
        &liver,
        &prostate,
        ExecPolicy::builder()
            .kernel_select(select)
            .shards(ShardSpec::Fixed(3))
            .replicas(ReplicaSpec::Fixed(1))
            .build()
            .unwrap(),
    );
    assert_eq!(
        part_placed, part_base,
        "partitioned placed pool changed dose bytes"
    );
}

#[test]
fn sharded_report_exposes_shards_and_cuts_residency() {
    let liver = random_matrix(11, 900, 60, 24);
    let payload: Vec<f64> = (0..liver.ncols())
        .map(|j| (j as f64 * 0.017).cos().abs())
        .collect();
    let pool = || vec![DeviceSpec::a100(), DeviceSpec::v100(), DeviceSpec::p100()];

    let run = |policy: ExecPolicy| {
        let mut engine = Engine::builder().devices(pool()).build().unwrap();
        engine.register_plan_with("liver", &liver, policy).unwrap();
        engine.serve(|c| c.call("liver", RequestKind::Dose, payload.clone()).unwrap())
    };

    let (full_resp, full) = run(ExecPolicy::default());
    let (sharded_resp, sharded) = run(placed(3, 1));

    // Fully-resident plans replicate matrix + transpose on every device;
    // sharded plans split one copy across the pool (~K× per-device cut).
    let full_total: u64 = full.devices.iter().map(|d| d.resident_bytes).sum();
    let sharded_total: u64 = sharded.devices.iter().map(|d| d.resident_bytes).sum();
    assert!(full.devices.iter().all(|d| d.resident_bytes > 0));
    assert!(
        sharded_total * 2 < full_total,
        "sharding kept {sharded_total} of {full_total} resident bytes"
    );
    // Across the pool the shards hold about one upload: each shard only
    // re-stores one rebased row pointer per direction.
    let one_upload = full.devices[0].resident_bytes;
    assert!(
        (one_upload..one_upload + 2 * 3 * 8).contains(&sharded_total),
        "sharded residency {sharded_total} is not about one upload ({one_upload})"
    );
    for (f, s) in full.devices.iter().zip(&sharded.devices) {
        assert!(
            s.resident_bytes < f.resident_bytes,
            "device {} residency did not shrink",
            s.name
        );
        assert!(s.resident_bytes > 0, "device {} hosts no shard", s.name);
    }

    // The report names each shard's home device and row range.
    assert_eq!(full.plans[0].shards.len(), 1);
    let shards = &sharded.plans[0].shards;
    assert_eq!(shards.len(), 3);
    assert_eq!(
        shards.iter().map(|s| s.rows).sum::<u64>(),
        liver.nrows() as u64
    );
    assert!(shards.iter().all(|s| s.nnz > 0 && s.resident_bytes > 0));
    let pool_names: Vec<String> = pool().iter().map(|d| d.name.to_string()).collect();
    for (i, s) in shards.iter().enumerate() {
        assert_eq!(s.shard, i);
        assert_eq!(s.device, pool_names[i % pool_names.len()]);
    }

    // Responses carry the per-shard breakdown only when sharded.
    assert_eq!(full_resp.shards.as_ref().map(|sh| sh.shards.len()), Some(1));
    let sh = sharded_resp.shards.as_ref().expect("sharded breakdown");
    assert_eq!(sh.shards.len(), 3);
    assert!(sh.gather_bytes > 0, "merge models inter-device gather");
    assert!(sh.modeled_seconds > 0.0);
    // Same dose either way.
    assert_eq!(
        sharded_resp
            .output
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>(),
        full_resp
            .output
            .iter()
            .map(|v| v.to_bits())
            .collect::<Vec<_>>()
    );
}

#[test]
fn deadline_shed_under_fan_out_cancels_all_shard_subtasks() {
    let liver = random_matrix(21, 900, 60, 40);
    let payload: Vec<f64> = (0..liver.ncols())
        .map(|j| (j as f64 * 0.013).sin().abs())
        .collect();

    // Unsharded golden dose for the recovery request.
    let golden: Vec<u64> = {
        let mut engine = Engine::builder()
            .device(DeviceSpec::a100())
            .build()
            .unwrap();
        engine.register_plan("liver", &liver).unwrap();
        let (r, _) = engine.serve(|c| c.call("liver", RequestKind::Dose, payload.clone()).unwrap());
        r.output.into_iter().map(f64::to_bits).collect()
    };

    // Device 2 stalls its shard far past the budget: the whole fan-out
    // must cancel as a unit — the client sees DeadlineExceeded, never a
    // partially-merged dose with the slow shard's rows missing.
    let mut engine = Engine::builder()
        .devices(vec![
            DeviceSpec::a100(),
            DeviceSpec::v100(),
            DeviceSpec::p100(),
        ])
        .debug_device_delay_ms(2, 60.0)
        .build()
        .unwrap();
    engine
        .register_plan_with("liver", &liver, placed(3, 1))
        .unwrap();
    let ((shed, ok), report) = engine.serve(|client| {
        let ticket = client
            .submit_with_deadline("liver", RequestKind::Dose, payload.clone(), 15.0)
            .unwrap();
        let shed = ticket.wait();
        // An unbudgeted request right after must still complete: shedding
        // one fan-out may not wedge the queue or leak sub-tasks.
        let ok = client
            .call("liver", RequestKind::Dose, payload.clone())
            .unwrap();
        (shed, ok)
    });

    match shed {
        Err(rt_engine::RtError::DeadlineExceeded {
            budget_ms,
            waited_ms,
        }) => {
            assert_eq!(budget_ms, 15.0);
            assert!(waited_ms >= budget_ms, "waited {waited_ms} < {budget_ms}");
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(report.shed_deadline, 1);
    assert_eq!(report.completed, 1);
    assert_eq!(report.failed, 0);
    let bits: Vec<u64> = ok.output.into_iter().map(f64::to_bits).collect();
    assert_eq!(bits, golden, "post-shed dose diverged from unsharded");
    assert!(ok.shards.is_some());
}

#[test]
fn queue_full_fan_out_sheds_at_admission_without_partial_doses() {
    let liver = random_matrix(22, 700, 50, 20);
    let payload: Vec<f64> = (0..liver.ncols())
        .map(|j| ((j * 7 + 3) % 19) as f64 * 0.05 + 0.2)
        .collect();

    let golden: Vec<u64> = {
        let mut engine = Engine::builder()
            .device(DeviceSpec::a100())
            .build()
            .unwrap();
        engine.register_plan("liver", &liver).unwrap();
        let (r, _) = engine.serve(|c| c.call("liver", RequestKind::Dose, payload.clone()).unwrap());
        r.output.into_iter().map(f64::to_bits).collect()
    };

    // Capacity 1 with workers paused: the first request fills the queue,
    // the second is shed at admission — before any sub-task exists, so
    // there is nothing to cancel. Once resumed, the first request's 3
    // shard sub-tasks bypass the capacity bound (they are continuation
    // work for an already-admitted request) and the dose completes whole.
    let mut engine = Engine::builder()
        .devices(vec![
            DeviceSpec::a100(),
            DeviceSpec::v100(),
            DeviceSpec::p100(),
        ])
        .queue_capacity(1)
        .start_paused()
        .build()
        .unwrap();
    engine
        .register_plan_with("liver", &liver, placed(3, 1))
        .unwrap();
    let ((first, rejected), report) = engine.serve(|client| {
        let ticket = client
            .submit("liver", RequestKind::Dose, payload.clone())
            .unwrap();
        let rejected = client
            .try_submit("liver", RequestKind::Dose, payload.clone())
            .expect_err("second request must shed at the full queue");
        client.resume();
        (ticket.wait(), rejected)
    });

    assert_eq!(rejected, rt_engine::RtError::QueueFull { capacity: 1 });
    assert_eq!(report.rejected_queue_full, 1);
    assert_eq!(report.completed, 1);
    assert_eq!(report.failed, 0);
    let first = first.expect("admitted request completes");
    let bits: Vec<u64> = first.output.into_iter().map(f64::to_bits).collect();
    assert_eq!(bits, golden, "admitted dose diverged from unsharded");
    assert!(first.shards.is_some());
}

#[test]
fn batching_composes_with_sharding() {
    let liver = random_matrix(23, 800, 64, 24);
    let payloads: Vec<Vec<f64>> = (0..6)
        .map(|v| {
            (0..liver.ncols())
                .map(|j| ((v * 64 + j) * 11 % 23) as f64 * 0.04 + 0.1)
                .collect()
        })
        .collect();

    let goldens: Vec<Vec<u64>> = {
        let mut engine = Engine::builder()
            .device(DeviceSpec::a100())
            .build()
            .unwrap();
        engine.register_plan("liver", &liver).unwrap();
        let (out, _) = engine.serve(|c| {
            payloads
                .iter()
                .map(|p| {
                    c.call("liver", RequestKind::Dose, p.clone())
                        .unwrap()
                        .output
                        .into_iter()
                        .map(f64::to_bits)
                        .collect()
                })
                .collect::<Vec<_>>()
        });
        out
    };

    // One device hosting all 3 shards keeps the batch composition
    // deterministic: the dispatching worker drains all 6 queued mates
    // into one fan-out, which becomes 3 shard sub-tasks of 6 vectors
    // each — 3 launches total, not 18.
    let mut engine = Engine::builder()
        .device(DeviceSpec::a100())
        .start_paused()
        .build()
        .unwrap();
    engine
        .register_plan_with("liver", &liver, placed(3, 1))
        .unwrap();
    let (responses, report) = engine.serve(|client| {
        let tickets: Vec<_> = payloads
            .iter()
            .map(|p| {
                client
                    .submit("liver", RequestKind::Dose, p.clone())
                    .unwrap()
            })
            .collect();
        client.resume();
        tickets
            .into_iter()
            .map(|t| t.wait().unwrap())
            .collect::<Vec<_>>()
    });

    assert_eq!(report.completed, 6);
    assert_eq!(
        report.launches, 3,
        "one launch per shard, shared by the batch"
    );
    // The batched gather ships one result per vector per non-empty row.
    let nonempty = liver.row_ptr().windows(2).filter(|w| w[1] > w[0]).count() as u64;
    for (r, golden) in responses.iter().zip(&goldens) {
        assert_eq!(r.batch_size, 6, "batch did not compose under fan-out");
        let sh = r.shards.as_ref().expect("sharded breakdown");
        assert_eq!(sh.shards.len(), 3);
        assert_eq!(sh.gather_bytes, nonempty * 8 * 6);
        let bits: Vec<u64> = r.output.iter().map(|v| v.to_bits()).collect();
        assert_eq!(&bits, golden, "batched sharded dose diverged");
    }
}

#[test]
fn replica_groups_share_concurrent_traffic() {
    // R=2 × K=2 on a 4-device mixed pool: least-loaded dispatch must
    // spread overlapping fan-outs across both replica groups, and every
    // dose must still be bitwise identical to the single-device path.
    let liver = random_matrix(41, 900, 60, 24);
    let payloads: Vec<Vec<f64>> = (0..8)
        .map(|v| {
            (0..liver.ncols())
                .map(|j| ((v * 31 + j * 7) % 29) as f64 * 0.03 + 0.1)
                .collect()
        })
        .collect();

    let goldens: Vec<Vec<u64>> = {
        let mut engine = Engine::builder()
            .device(DeviceSpec::a100())
            .build()
            .unwrap();
        engine.register_plan("liver", &liver).unwrap();
        let (out, _) = engine.serve(|c| {
            payloads
                .iter()
                .map(|p| {
                    c.call("liver", RequestKind::Dose, p.clone())
                        .unwrap()
                        .output
                        .into_iter()
                        .map(f64::to_bits)
                        .collect()
                })
                .collect::<Vec<_>>()
        });
        out
    };

    // max_batch(1) keeps each request its own fan-out; per-device delays
    // hold every fan in flight long enough that the 4 dispatching
    // workers overlap and the least-loaded pick alternates groups.
    let mut engine = Engine::builder()
        .devices(vec![
            DeviceSpec::a100(),
            DeviceSpec::a100(),
            DeviceSpec::v100(),
            DeviceSpec::p100(),
        ])
        .max_batch(1)
        .start_paused()
        .debug_device_delay_ms(0, 5.0)
        .debug_device_delay_ms(1, 5.0)
        .debug_device_delay_ms(2, 5.0)
        .debug_device_delay_ms(3, 5.0)
        .build()
        .unwrap();
    engine
        .register_plan_with("liver", &liver, placed(2, 2))
        .unwrap();
    assert_eq!(engine.plan_replica_count("liver"), Some(2));
    assert_eq!(engine.plan_shard_count("liver"), Some(2));

    let (responses, report) = engine.serve(|client| {
        let tickets: Vec<_> = payloads
            .iter()
            .map(|p| {
                client
                    .submit("liver", RequestKind::Dose, p.clone())
                    .unwrap()
            })
            .collect();
        client.resume();
        tickets
            .into_iter()
            .map(|t| t.wait().unwrap())
            .collect::<Vec<_>>()
    });

    assert_eq!(report.completed, 8);
    for (r, golden) in responses.iter().zip(&goldens) {
        let bits: Vec<u64> = r.output.iter().map(|v| v.to_bits()).collect();
        assert_eq!(&bits, golden, "replicated dose diverged");
    }
    let placement = report.plans[0].placement.as_ref().expect("placed plan");
    assert_eq!(placement.replicas, 2);
    let served: Vec<u64> = placement.groups.iter().map(|g| g.served).collect();
    assert_eq!(served.iter().sum::<u64>(), 8, "every fan-out accounted");
    assert!(
        served.iter().all(|&s| s > 0),
        "least-loaded dispatch left a replica group idle: {served:?}"
    );
    // Groups are disjoint subsets of the pool.
    let mut members: Vec<&String> = placement
        .groups
        .iter()
        .flat_map(|g| g.devices.iter())
        .collect();
    assert_eq!(members.len(), 4);
    members.sort();
}

#[test]
fn deadline_shed_under_replica_fan_out_cancels_only_its_group() {
    // Two budgeted requests on an R=2 pool where one group contains a
    // stalled device: the fan-out routed there sheds as a unit, the
    // other group's fan-out completes, and no partial dose escapes.
    let liver = random_matrix(42, 900, 60, 24);
    let payload: Vec<f64> = (0..liver.ncols())
        .map(|j| (j as f64 * 0.019).sin().abs())
        .collect();

    let golden: Vec<u64> = {
        let mut engine = Engine::builder()
            .device(DeviceSpec::a100())
            .build()
            .unwrap();
        engine.register_plan("liver", &liver).unwrap();
        let (r, _) = engine.serve(|c| c.call("liver", RequestKind::Dose, payload.clone()).unwrap());
        r.output.into_iter().map(f64::to_bits).collect()
    };

    // Snake-dealt groups of [A100, A100, V100, P100]: group 0 gets the
    // first A100 + the P100 (stalled), group 1 the second A100 + V100.
    let mut engine = Engine::builder()
        .devices(vec![
            DeviceSpec::a100(),
            DeviceSpec::a100(),
            DeviceSpec::v100(),
            DeviceSpec::p100(),
        ])
        .max_batch(1)
        .start_paused()
        .debug_device_delay_ms(3, 120.0)
        .build()
        .unwrap();
    engine
        .register_plan_with("liver", &liver, placed(2, 2))
        .unwrap();

    let (results, report) = engine.serve(|client| {
        let tickets: Vec<_> = (0..2)
            .map(|_| {
                client
                    .submit_with_deadline("liver", RequestKind::Dose, payload.clone(), 25.0)
                    .unwrap()
            })
            .collect();
        client.resume();
        tickets.into_iter().map(|t| t.wait()).collect::<Vec<_>>()
    });

    assert_eq!(report.shed_deadline, 1, "exactly the stalled group sheds");
    assert_eq!(report.completed, 1);
    assert_eq!(report.failed, 0);
    let mut shed = 0;
    for r in results {
        match r {
            Err(rt_engine::RtError::DeadlineExceeded { budget_ms, .. }) => {
                assert_eq!(budget_ms, 25.0);
                shed += 1;
            }
            Ok(resp) => {
                let bits: Vec<u64> = resp.output.into_iter().map(f64::to_bits).collect();
                assert_eq!(bits, golden, "surviving group's dose diverged");
            }
            Err(other) => panic!("expected DeadlineExceeded or success, got {other:?}"),
        }
    }
    assert_eq!(shed, 1);
}

#[test]
fn snapshots_place_and_serve_like_the_in_memory_matrix() {
    let liver = random_matrix(43, 900, 60, 24);
    // Saved the way `rtdose generate` writes it: binary16 values, u32
    // indices.
    let path = std::env::temp_dir().join(format!(
        "rt_engine_snapshot_placement_{}.rtdm",
        std::process::id()
    ));
    {
        let m16: Csr<rt_f16::F16, u32> = liver.convert_values();
        let mut file = std::fs::File::create(&path).unwrap();
        rt_sparse::save_csr(&m16, &mut file).unwrap();
    }
    let dose_in: Vec<f64> = (0..liver.ncols())
        .map(|j| (j as f64 * 0.011).cos().abs())
        .collect();
    let grad_in: Vec<f64> = (0..liver.nrows())
        .map(|i| (i as f64 * 0.007).sin().abs())
        .collect();

    let pool = || vec![DeviceSpec::a100(), DeviceSpec::v100(), DeviceSpec::p100()];
    let serve = |engine: &Engine| {
        let ((dose, grad), report) = engine.serve(|c| {
            let bits = |kind, payload: &Vec<f64>| {
                let r = c.call("liver", kind, payload.clone()).unwrap();
                r.output.into_iter().map(f64::to_bits).collect::<Vec<u64>>()
            };
            (
                bits(RequestKind::Dose, &dose_in),
                bits(RequestKind::Gradient, &grad_in),
            )
        });
        (dose, grad, report.plans[0].shards.clone())
    };

    let mut from_snapshot = Engine::builder().devices(pool()).build().unwrap();
    from_snapshot
        .register_plan_snapshot_with("liver", &path, placed(3, 1))
        .unwrap();
    std::fs::remove_file(&path).ok();
    let mut in_memory = Engine::builder().devices(pool()).build().unwrap();
    in_memory
        .register_plan_with("liver", &liver, placed(3, 1))
        .unwrap();

    let (dose, grad, shards) = serve(&from_snapshot);
    assert_eq!(shards.len(), 3);
    let cut = |s: &rt_engine::PlanShard| (s.row_start, s.rows, s.nnz);
    let (want_dose, want_grad, want_shards) = serve(&in_memory);
    assert_eq!(
        shards.iter().map(cut).collect::<Vec<_>>(),
        want_shards.iter().map(cut).collect::<Vec<_>>(),
        "a snapshot must cut like the in-memory matrix on the same pool"
    );
    assert_eq!(dose, want_dose);
    assert_eq!(grad, want_grad);
}

#[test]
fn breakeven_autotuner_scales_shards_to_plan_size() {
    // On a 2×P100 pool, a ~1.3M-nnz plan streams long enough that
    // splitting beats the extra launch + gather; a small plan does not.
    // ShardSpec::Auto must pick K accordingly — and keep doses bitwise.
    let big = random_matrix(44, 4000, 600, 900);
    let small = random_matrix(45, 700, 80, 8);

    let mut engine = Engine::builder()
        .devices(vec![DeviceSpec::p100(), DeviceSpec::p100()])
        .build()
        .unwrap();
    let auto = ExecPolicy::builder()
        .shards(ShardSpec::Auto)
        .replicas(ReplicaSpec::Fixed(1))
        .build()
        .unwrap();
    engine.register_plan_with("big", &big, auto).unwrap();
    engine.register_plan_with("small", &small, auto).unwrap();

    assert_eq!(
        engine.plan_shard_count("big"),
        Some(2),
        "large plan should take both devices: {:?}",
        engine.plan_breakeven("big")
    );
    assert_eq!(
        engine.plan_shard_count("small"),
        Some(1),
        "small plan must stay whole: {:?}",
        engine.plan_breakeven("small")
    );
    // The evidence tables justify both picks.
    let big_be = engine.plan_breakeven("big").unwrap();
    assert!(big_be[1].modeled_seconds < big_be[0].modeled_seconds);
    let small_be = engine.plan_breakeven("small").unwrap();
    assert!(small_be[0].modeled_seconds < small_be[1].modeled_seconds);

    // Auto-sharded dose == unsharded dose, bit for bit.
    let payload: Vec<f64> = (0..big.ncols())
        .map(|j| ((j * 13 + 5) % 17) as f64 * 0.05 + 0.1)
        .collect();
    let golden: Vec<u64> = {
        let mut one = Engine::builder()
            .device(DeviceSpec::p100())
            .build()
            .unwrap();
        one.register_plan("big", &big).unwrap();
        let (r, _) = one.serve(|c| c.call("big", RequestKind::Dose, payload.clone()).unwrap());
        r.output.into_iter().map(f64::to_bits).collect()
    };
    let (r, _) = engine.serve(|c| c.call("big", RequestKind::Dose, payload.clone()).unwrap());
    let bits: Vec<u64> = r.output.into_iter().map(f64::to_bits).collect();
    assert_eq!(bits, golden, "auto-sharded dose diverged");
}

/// The backward-pass counterpart of the R×K placement sweep: partitioned
/// gradients served through every replica/shard layout must be bitwise
/// identical to the single-device unplaced partitioned gradient, because
/// the transpose's per-bucket widths are pinned from the whole transpose
/// before any shard split.
#[test]
fn partitioned_gradients_bitwise_across_replicas_and_shards() {
    let liver = random_matrix(46, 1600, 220, 40);
    let partitioned = ExecPolicy::builder()
        .kernel_select(KernelSelect::Partitioned(PartitionStrategy::Heuristic))
        .build()
        .unwrap();
    let residual: Vec<f64> = (0..liver.nrows())
        .map(|j| ((j * 7 + 3) % 13) as f64 * 0.06 + 0.05)
        .collect();

    // Golden: one device, unplaced, grad-partitioned at the pinned
    // transpose widths.
    let golden: Vec<u64> = {
        let mut one = Engine::builder()
            .device(DeviceSpec::a100())
            .build()
            .unwrap();
        one.register_plan_with("liver", &liver, partitioned)
            .unwrap();
        assert!(
            one.plan_grad_row_plan("liver").is_some(),
            "partitioned plans must cache a transpose row plan"
        );
        let (r, _) = one.serve(|c| {
            c.call("liver", RequestKind::Gradient, residual.clone())
                .unwrap()
        });
        r.output.into_iter().map(f64::to_bits).collect()
    };

    let pool = vec![
        DeviceSpec::a100(),
        DeviceSpec::a100(),
        DeviceSpec::v100(),
        DeviceSpec::p100(),
    ];
    for r_groups in 1..=2usize {
        for k in 1..=4usize {
            if r_groups * k > pool.len() {
                continue;
            }
            let policy = ExecPolicy::builder()
                .kernel_select(KernelSelect::Partitioned(PartitionStrategy::Heuristic))
                .shards(ShardSpec::Fixed(k))
                .replicas(ReplicaSpec::Fixed(r_groups))
                .build()
                .unwrap();
            let mut engine = Engine::builder().devices(pool.clone()).build().unwrap();
            engine.register_plan_with("liver", &liver, policy).unwrap();
            let (outs, report) = engine.serve(|c| {
                (0..3)
                    .map(|_| {
                        c.call("liver", RequestKind::Gradient, residual.clone())
                            .unwrap()
                            .output
                    })
                    .collect::<Vec<_>>()
            });
            for out in outs {
                let bits: Vec<u64> = out.into_iter().map(f64::to_bits).collect();
                assert_eq!(bits, golden, "R={r_groups} K={k} gradient diverged");
            }
            // The report carries the gradient direction's own selection.
            let plan = &report.plans[0];
            assert_eq!(
                plan.grad_tile_width,
                engine.plan_grad_choice("liver").unwrap().tile_width,
                "R={r_groups} K={k}"
            );
            assert!(
                !plan.grad_buckets.is_empty(),
                "R={r_groups} K={k}: partitioned plan reports grad buckets"
            );
        }
    }

    // A pinned fixed width shards the transpose by its own rows too:
    // gradients at K=2 and K=3 match one unplaced device bit for bit.
    let fixed = |k: usize| {
        ExecPolicy::builder()
            .tile_width(8)
            .shards(ShardSpec::Fixed(k))
            .replicas(ReplicaSpec::Fixed(1))
            .build()
            .unwrap()
    };
    let gradient = |devices: Vec<DeviceSpec>, policy: ExecPolicy| -> Vec<u64> {
        let mut engine = Engine::builder().devices(devices).build().unwrap();
        engine.register_plan_with("liver", &liver, policy).unwrap();
        let (r, _) = engine.serve(|c| {
            c.call("liver", RequestKind::Gradient, residual.clone())
                .unwrap()
        });
        r.output.into_iter().map(f64::to_bits).collect()
    };
    let fixed_golden = gradient(vec![DeviceSpec::a100()], fixed(1));
    for k in [2, 3] {
        assert_eq!(
            gradient(pool[1..].to_vec(), fixed(k)),
            fixed_golden,
            "fixed-width K={k} gradient diverged"
        );
    }
}

#[test]
fn forced_shards_above_the_transpose_rows_leave_gradient_units_empty() {
    // K clamps per direction: four shards of a 4x3 matrix give four dose
    // shards but only three gradient shards (the transpose has three
    // rows), so the last shard unit holds no gradient operator. Both
    // directions must still match the single-device golden bit for bit.
    let m = Csr::from_rows(
        3,
        &[
            vec![(0, 1.0), (2, 2.0)],
            vec![(1, 0.5)],
            vec![(0, 0.25), (1, 1.5), (2, 0.125)],
            vec![(2, 3.0)],
        ],
    )
    .unwrap();
    let weights = vec![0.5, 1.25, 2.0];
    let residual = vec![1.0, -0.5, 0.25, 2.0];
    let serve = |engine: &Engine| {
        engine
            .serve(|c| {
                let d = c.call("m", RequestKind::Dose, weights.clone()).unwrap();
                let g = c
                    .call("m", RequestKind::Gradient, residual.clone())
                    .unwrap();
                (d, g)
            })
            .0
    };
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();

    let mut one = Engine::builder()
        .device(DeviceSpec::a100())
        .build()
        .unwrap();
    one.register_plan("m", &m).unwrap();
    let (golden_dose, golden_grad) = serve(&one);

    let mut engine = Engine::builder()
        .devices(vec![DeviceSpec::a100(), DeviceSpec::v100()])
        .build()
        .unwrap();
    engine.register_plan_with("m", &m, placed(4, 1)).unwrap();
    assert_eq!(engine.plan_shard_count("m"), Some(4));
    let (dose, grad) = serve(&engine);
    assert_eq!(bits(&dose.output), bits(&golden_dose.output));
    assert_eq!(bits(&grad.output), bits(&golden_grad.output));
    let shards = |r: &rt_engine::EngineResponse| r.shards.as_ref().map(|s| s.shards.len());
    assert_eq!(shards(&dose), Some(4));
    assert_eq!(shards(&grad), Some(3));
}

#[test]
fn mixed_budget_batch_binds_on_each_members_own_deadline() {
    // Regression for the fan-out shed deadline: it used to be built
    // from the *oldest* submission paired with the batch's *minimum*
    // budget, so a loose-budget request that had waited a while was
    // cancelled the moment a tight-budget mate joined its batch — even
    // though the mate's own deadline (submitted + budget) was still far
    // away. The binding deadline must be min_i(submitted_i + budget_i).
    let liver = random_matrix(61, 800, 56, 36);
    let payload: Vec<f64> = (0..liver.ncols())
        .map(|j| (j as f64 * 0.017).sin().abs())
        .collect();

    let golden: Vec<u64> = {
        let mut engine = Engine::builder()
            .device(DeviceSpec::a100())
            .build()
            .unwrap();
        engine.register_plan("liver", &liver).unwrap();
        let (r, _) = engine.serve(|c| c.call("liver", RequestKind::Dose, payload.clone()).unwrap());
        r.output.into_iter().map(f64::to_bits).collect()
    };

    let mut engine = Engine::builder()
        .devices(vec![DeviceSpec::a100(), DeviceSpec::v100()])
        .start_paused()
        .build()
        .unwrap();
    engine
        .register_plan_with("liver", &liver, placed(2, 1))
        .unwrap();

    let (results, report) = engine.serve(|client| {
        // The loose request ages 600ms in the paused queue before the
        // tight mate arrives; under the old deadline the batch would be
        // cancelled at oldest + min-budget = 500ms — already in the
        // past when the workers resume.
        let loose = client
            .submit_with_deadline("liver", RequestKind::Dose, payload.clone(), 10_000.0)
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(600));
        let tight = client
            .submit_with_deadline("liver", RequestKind::Dose, payload.clone(), 500.0)
            .unwrap();
        client.resume();
        (loose.wait(), tight.wait())
    });

    assert_eq!(report.shed_deadline, 0, "no member's real deadline expired");
    assert_eq!(report.completed, 2);
    assert_eq!(report.failed, 0);
    // One merged fan-out batch of 2, K=2 physical launches.
    assert_eq!(report.batches, 1);
    assert_eq!(report.launches, 2);
    for r in [results.0, results.1] {
        let resp = r.expect("both batch mates complete before their own deadlines");
        let bits: Vec<u64> = resp.output.into_iter().map(f64::to_bits).collect();
        assert_eq!(bits, golden, "batched dose diverged from unsharded");
    }
}

#[test]
fn shed_fan_out_fails_each_slot_with_its_own_budget() {
    // When a fan-out genuinely sheds, every slot must report *its own*
    // budget_ms (the CAS winner used to stamp the fan-wide minimum on
    // all of them).
    let liver = random_matrix(62, 900, 60, 40);
    let payload: Vec<f64> = (0..liver.ncols())
        .map(|j| (j as f64 * 0.019).cos().abs())
        .collect();

    let mut engine = Engine::builder()
        .devices(vec![
            DeviceSpec::a100(),
            DeviceSpec::v100(),
            DeviceSpec::p100(),
        ])
        .start_paused()
        .debug_device_delay_ms(2, 300.0)
        .build()
        .unwrap();
    engine
        .register_plan_with("liver", &liver, placed(3, 1))
        .unwrap();

    let (results, report) = engine.serve(|client| {
        let loose = client
            .submit_with_deadline("liver", RequestKind::Dose, payload.clone(), 2_000.0)
            .unwrap();
        let tight = client
            .submit_with_deadline("liver", RequestKind::Dose, payload.clone(), 100.0)
            .unwrap();
        client.resume();
        (loose.wait(), tight.wait())
    });

    assert_eq!(report.shed_deadline, 2, "the whole fan-out sheds as a unit");
    assert_eq!(report.completed, 0);
    assert_eq!(report.failed, 0);
    for (r, own_budget) in [(results.0, 2_000.0), (results.1, 100.0)] {
        match r {
            Err(rt_engine::RtError::DeadlineExceeded {
                budget_ms,
                waited_ms,
            }) => {
                assert_eq!(budget_ms, own_budget, "slot must carry its own budget");
                assert!(waited_ms > 0.0);
            }
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }
}

#[test]
fn drain_undrain_mid_traffic_keeps_doses_bitwise_identical() {
    // Maintenance sweep: drain and undrain devices while traffic is in
    // flight. Every re-deal swaps the placement epoch, but widths are
    // pinned from the whole matrix, so the dose bytes must match the
    // static single-device golden bit for bit at any drain timing.
    let liver = random_matrix(63, 1100, 64, 44);
    let prostate = random_matrix(64, 600, 72, 8);
    let n = 48;
    let order: Vec<usize> = (0..n).collect();

    let golden = run_pool(vec![DeviceSpec::a100()], &order, 1, &liver, &prostate);

    // The default policy (one whole-plan replica per device) re-deals on
    // every drain too: its replica count follows the live pool.
    let sweeps = [
        (0u64, 0u64, placed(2, 2)),
        (1, 2, placed(2, 2)),
        (2, 5, placed(2, 2)),
        (3, 0, ExecPolicy::default()),
        (4, 2, ExecPolicy::default()),
    ];
    for (sweep, pause_ms, policy) in sweeps {
        let work = workload(
            (liver.nrows(), liver.ncols()),
            (prostate.nrows(), prostate.ncols()),
        );
        let mut engine = Engine::builder()
            .devices(vec![
                DeviceSpec::a100(),
                DeviceSpec::a100(),
                DeviceSpec::v100(),
                DeviceSpec::p100(),
            ])
            .build()
            .unwrap();
        engine.register_plan_with("liver", &liver, policy).unwrap();
        engine
            .register_plan_with("prostate", &prostate, policy)
            .unwrap();
        let replicas = || engine.plan_replica_count("liver").unwrap();
        let per_device = policy == ExecPolicy::default();
        if per_device {
            assert_eq!(replicas(), 4, "sweep {sweep}: one replica per device");
        }

        let (outputs, report) = engine.serve(|client| {
            let results: Vec<std::sync::Mutex<Option<Vec<f64>>>> =
                work.iter().map(|_| std::sync::Mutex::new(None)).collect();
            std::thread::scope(|s| {
                for chunk in order.chunks(order.len().div_ceil(4)) {
                    let results = &results;
                    let work = &work;
                    s.spawn(move || {
                        for &id in chunk {
                            let w = &work[id];
                            let r = client
                                .call(w.plan, w.kind, w.payload.clone())
                                .expect("request served across drains");
                            *results[id].lock().unwrap() = Some(r.output);
                        }
                    });
                }
                // Maintenance from the main thread, racing the
                // submitters: take the P100 out, then an A100, bring
                // the A100 back, and leave the P100 drained.
                let nap = || std::thread::sleep(std::time::Duration::from_millis(pause_ms));
                nap();
                client.drain_device(3).unwrap();
                nap();
                client.drain_device(0).unwrap();
                nap();
                client.undrain_device(0).unwrap();
            });
            results
                .into_iter()
                .map(|m| m.into_inner().unwrap().unwrap())
                .collect::<Vec<_>>()
        });

        let bits: Vec<Vec<u64>> = outputs
            .into_iter()
            .map(|v| v.into_iter().map(f64::to_bits).collect())
            .collect();
        assert_eq!(bits, golden, "sweep {sweep}: drain changed dose bytes");
        assert_eq!(report.completed, n as u64, "sweep {sweep}");
        assert_eq!(report.failed, 0, "sweep {sweep}");
        let drained: Vec<bool> = report.devices.iter().map(|d| d.drained).collect();
        assert_eq!(drained, [false, false, false, true], "sweep {sweep}");
        for plan in &report.plans {
            let placement = plan.placement.as_ref().expect("placed plans");
            assert!(
                placement.rebalances >= 3,
                "sweep {sweep}: {} re-dealt {} times, expected one per drain event",
                plan.name,
                placement.rebalances
            );
        }
        if per_device {
            // The P100 stays drained: one replica per live device, and
            // undraining it restores the full pool.
            assert_eq!(replicas(), 3, "sweep {sweep}: drained pool");
            engine.undrain_device(3).unwrap();
            assert_eq!(replicas(), 4, "sweep {sweep}: restored pool");
        }
    }
}

#[test]
fn drain_rejects_out_of_range_and_emptying_the_pool() {
    let liver = random_matrix(66, 400, 32, 16);
    let mut engine = Engine::builder()
        .devices(vec![DeviceSpec::a100(), DeviceSpec::v100()])
        .build()
        .unwrap();
    engine
        .register_plan_with("liver", &liver, placed(1, 2))
        .unwrap();

    assert!(engine.drain_device(5).is_err(), "out-of-range drain");
    assert!(engine.undrain_device(5).is_err(), "out-of-range undrain");

    engine.drain_device(0).unwrap();
    assert!(engine.device_drained(0));
    assert_eq!(engine.plan_rebalances("liver"), Some(1));
    // Idempotent: a second drain of the same device is a no-op.
    engine.drain_device(0).unwrap();
    assert_eq!(engine.plan_rebalances("liver"), Some(1));

    // The last live device can never be drained.
    assert!(
        engine.drain_device(1).is_err(),
        "draining the last live device must fail"
    );
    assert!(!engine.device_drained(1));

    engine.undrain_device(0).unwrap();
    assert!(!engine.device_drained(0));
    assert_eq!(engine.plan_rebalances("liver"), Some(2));
    engine.drain_device(1).unwrap();
    assert!(engine.device_drained(1));
}
