//! Admission control and error-path coverage: every engine-facing
//! [`RtError`] variant is produced by a test here or in the crate's unit
//! tests — malformed input must surface as a typed error, never a panic.

use rt_engine::{Engine, RequestKind, RtError};
use rt_gpusim::DeviceSpec;
use rt_sparse::Csr;
use std::io::Write;

fn matrix() -> Csr<f64, u32> {
    Csr::from_rows(
        4,
        &[
            vec![(0, 1.0), (3, 0.5)],
            vec![(1, 2.0), (2, 0.25)],
            vec![(0, 0.125), (2, 1.5)],
        ],
    )
    .unwrap()
}

fn paused_engine(queue_capacity: usize) -> Engine {
    let mut e = Engine::builder()
        .device(DeviceSpec::a100())
        .device(DeviceSpec::v100())
        .queue_capacity(queue_capacity)
        .start_paused()
        .build()
        .unwrap();
    e.register_plan("plan", &matrix()).unwrap();
    e
}

#[test]
fn try_submit_sheds_when_queue_full() {
    let e = paused_engine(2);
    let (shed, report) = e.serve(|c| {
        // Workers are paused: the first two admissions fill the queue.
        let t1 = c
            .try_submit("plan", RequestKind::Dose, vec![1.0; 4])
            .unwrap();
        let t2 = c
            .try_submit("plan", RequestKind::Dose, vec![2.0; 4])
            .unwrap();
        let shed = c
            .try_submit("plan", RequestKind::Dose, vec![3.0; 4])
            .unwrap_err();
        c.resume();
        t1.wait().unwrap();
        t2.wait().unwrap();
        shed
    });
    assert_eq!(shed, RtError::QueueFull { capacity: 2 });
    assert_eq!(report.rejected_queue_full, 1);
    assert_eq!(report.completed, 2);
    assert_eq!(report.queue_max_depth, 2);
}

#[test]
fn expired_deadlines_are_shed_at_dispatch() {
    let e = paused_engine(8);
    let (results, report) = e.serve(|c| {
        // Workers paused: both requests sit in the queue. The first has a
        // zero wait budget and must be shed when a worker finally looks
        // at it; the second has a generous budget and completes.
        let doomed = c
            .submit_with_deadline("plan", RequestKind::Dose, vec![1.0; 4], 0.0)
            .unwrap();
        let fine = c
            .submit_with_deadline("plan", RequestKind::Dose, vec![1.0; 4], 60_000.0)
            .unwrap();
        std::thread::sleep(std::time::Duration::from_millis(5));
        c.resume();
        (doomed.wait(), fine.wait())
    });
    match results.0 {
        Err(RtError::DeadlineExceeded {
            budget_ms,
            waited_ms,
        }) => {
            assert_eq!(budget_ms, 0.0);
            assert!(waited_ms > 0.0);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert!(results.1.is_ok());
    assert_eq!(report.shed_deadline, 1);
    assert_eq!(report.completed, 1);
}

#[test]
fn default_deadline_applies_to_plain_submits() {
    let mut e = Engine::builder()
        .device(DeviceSpec::a100())
        .default_deadline_ms(0.0)
        .start_paused()
        .build()
        .unwrap();
    e.register_plan("plan", &matrix()).unwrap();
    let (outcome, report) = e.serve(|c| {
        let t = c.submit("plan", RequestKind::Dose, vec![1.0; 4]).unwrap();
        std::thread::sleep(std::time::Duration::from_millis(5));
        c.resume();
        t.wait()
    });
    assert!(matches!(outcome, Err(RtError::DeadlineExceeded { .. })));
    assert_eq!(report.shed_deadline, 1);
}

#[test]
fn snapshot_registration_maps_errors() {
    let mut e = Engine::builder()
        .device(DeviceSpec::a100())
        .build()
        .unwrap();

    // Missing file.
    let err = e
        .register_plan_snapshot("missing", "/nonexistent/rtdm-snapshot.bin")
        .unwrap_err();
    assert_eq!(err.kind(), "snapshot");

    // Malformed file (wrong magic).
    let dir = std::env::temp_dir().join("rt_engine_serving_test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad_magic.rtdm");
    std::fs::File::create(&bad)
        .unwrap()
        .write_all(b"NOPE0000")
        .unwrap();
    let err = e.register_plan_snapshot("bad", &bad).unwrap_err();
    assert_eq!(err, RtError::Snapshot("not an RTDM snapshot".to_string()));

    // A binary64 snapshot is the wrong scalar type.
    let m = matrix();
    let wide = dir.join("binary64.rtdm");
    rt_sparse::io::save_csr(&m, &mut std::fs::File::create(&wide).unwrap()).unwrap();
    let err = e.register_plan_snapshot("wide", &wide).unwrap_err();
    assert_eq!(
        err,
        RtError::Snapshot("scalar type mismatch: expected (6, 2), found (5, 2)".to_string())
    );

    // A binary16 snapshot, as `rtdose generate` writes it, round-trips
    // into a served plan (every value of `matrix()` is exact in binary16).
    let good = dir.join("good.rtdm");
    let m16: Csr<rt_f16::F16, u32> = m.convert_values();
    rt_sparse::io::save_csr(&m16, &mut std::fs::File::create(&good).unwrap()).unwrap();
    e.register_plan_snapshot("good", &good).unwrap();
    assert_eq!(e.plan_dims("good"), Some((3, 4)));
    let (out, _) = e.serve(|c| c.call("good", RequestKind::Dose, vec![1.0; 4]).unwrap());
    assert_eq!(out.output, [1.5, 2.25, 1.625]);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn degenerate_plans_are_rejected() {
    let mut e = Engine::builder()
        .device(DeviceSpec::a100())
        .build()
        .unwrap();
    let empty: Csr<f64, u32> = Csr::from_rows(0, &[]).unwrap();
    assert_eq!(
        e.register_plan("empty", &empty).unwrap_err(),
        RtError::EmptyMatrix { nrows: 0, ncols: 0 }
    );
}

#[test]
fn responses_carry_launch_reports() {
    let mut e = Engine::builder()
        .device(DeviceSpec::a100())
        .start_paused()
        .build()
        .unwrap();
    let m = matrix();
    e.register_plan("plan", &m).unwrap();
    let (resp, report) = e.serve(|c| {
        let t1 = c.submit("plan", RequestKind::Dose, vec![1.0; 4]).unwrap();
        let t2 = c.submit("plan", RequestKind::Dose, vec![2.0; 4]).unwrap();
        c.resume();
        let r1 = t1.wait().unwrap();
        let r2 = t2.wait().unwrap();
        assert_eq!(r1.report, r2.report, "batch mates share one report");
        r1
    });
    assert_eq!(resp.batch_size, 2);
    assert_eq!(resp.report.kernel, "Half/double");
    assert_eq!(resp.report.device, "A100");
    // One batched launch over 2 vectors: flops = 2 * nnz * 2.
    assert_eq!(resp.report.stats.flops, 2 * m.nnz() as u64 * 2);
    assert!(resp.report.estimate.seconds > 0.0);
    // The session report serializes with the engine-level keys.
    let json = report.to_json();
    assert!(json.contains("\"throughput_rps\""));
    assert!(json.contains("\"modeled_gpu_seconds\""));
}

#[test]
fn device_reports_count_keyed_groups_and_memo_hits() {
    let mut e = Engine::builder()
        .device(DeviceSpec::a100())
        .build()
        .unwrap();
    e.register_plan("plan", &matrix()).unwrap();
    let (_, report) = e.serve(|c| {
        for _ in 0..3 {
            c.call("plan", RequestKind::Dose, vec![1.5; 4]).unwrap();
        }
    });
    // One keyed group per request: recorded, interpreted once resident,
    // then answered from the memo.
    let d = &report.devices[0];
    assert_eq!((d.keyed_groups, d.memo_hits), (3, 1));
    let json = report.to_json();
    assert!(json.contains("\"keyed_groups\": 3, \"memo_hits\": 1"));
}
