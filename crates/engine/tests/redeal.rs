//! Re-deals keep the shard units whose placement did not change. A drain
//! or undrain that leaves a unit's home device, dose rows and gradient
//! rows as they were keeps its calculator, so the unit's simulated
//! device, L2 state and launch memo carry over into the new epoch. A
//! unit that moved is rebuilt and starts cold. Doses and gradients stay
//! bitwise golden either way.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rt_engine::{
    Engine, EngineReport, ExecPolicy, KernelSelect, PartitionStrategy, ReplicaSpec, RequestKind,
    ShardSpec,
};
use rt_gpusim::DeviceSpec;
use rt_sparse::Csr;
use std::collections::HashMap;

const KINDS: [RequestKind; 2] = [RequestKind::Dose, RequestKind::Gradient];

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

/// The optimize-drain pool: A100, A100, V100, P100.
fn hybrid_pool() -> Vec<DeviceSpec> {
    vec![
        DeviceSpec::a100(),
        DeviceSpec::a100(),
        DeviceSpec::v100(),
        DeviceSpec::p100(),
    ]
}

const SELECT: KernelSelect = KernelSelect::Partitioned(PartitionStrategy::MeasuredProbe);

/// The optimize-drain policy with `shards` per group: probe-partitioned
/// kernels, two replica groups.
fn policy(shards: ShardSpec) -> ExecPolicy {
    ExecPolicy::builder()
        .kernel_select(SELECT)
        .shards(shards)
        .replicas(ReplicaSpec::Fixed(2))
        .build()
        .unwrap()
}

/// Payload `i` of a `kind` request against `m`.
fn payload(m: &Csr<f64, u32>, kind: RequestKind, i: usize) -> Vec<f64> {
    let len = match kind {
        RequestKind::Dose => m.ncols(),
        RequestKind::Gradient => m.nrows(),
    };
    (0..len)
        .map(|j| ((i * 131 + j * 17) as f64 * 0.013).sin().abs())
        .collect()
}

/// Output bits of payloads `0..3` of each kind, served by one A100 under
/// the same kernel selection.
struct Golden {
    bits: HashMap<(bool, usize), Vec<u64>>,
}

impl Golden {
    fn new(m: &Csr<f64, u32>) -> Self {
        let mut one = Engine::builder()
            .device(DeviceSpec::a100())
            .default_policy(ExecPolicy::builder().kernel_select(SELECT).build().unwrap())
            .build()
            .unwrap();
        one.register_plan("liver", m).unwrap();
        let (bits, _) = one.serve(|c| {
            let mut bits = HashMap::new();
            for kind in KINDS {
                for i in 0..3 {
                    let r = c.call("liver", kind, payload(m, kind, i)).unwrap();
                    let out = r.output.into_iter().map(f64::to_bits).collect();
                    bits.insert((kind == RequestKind::Dose, i), out);
                }
            }
            bits
        });
        Golden { bits }
    }
}

/// The optimize-drain pool with `m` registered as "liver" under
/// `policy(shards)`. Batches hold one request, so every launch runs one
/// key per direction: (direction, batch 1).
fn engine(m: &Csr<f64, u32>, shards: ShardSpec) -> Engine {
    let mut engine = Engine::builder()
        .devices(hybrid_pool())
        .max_batch(1)
        .build()
        .unwrap();
    engine
        .register_plan_with("liver", m, policy(shards))
        .unwrap();
    engine
}

/// Serves `calls` split over `submitters` threads, each waiting for its
/// reply before sending the next, and asserts every output against the
/// golden; returns the session report. An empty `calls` reads the
/// calculators' counts without running anything. Outputs are checked
/// after the session ends: a panic inside it would leave the workers
/// waiting for a close that never comes.
fn serve(
    engine: &Engine,
    m: &Csr<f64, u32>,
    golden: &Golden,
    calls: &[(RequestKind, usize)],
    submitters: usize,
) -> EngineReport {
    let (outputs, report) = engine.serve(|c| {
        std::thread::scope(|s| {
            let threads: Vec<_> = calls
                .chunks(calls.len().div_ceil(submitters).max(1))
                .map(|chunk| {
                    s.spawn(move || {
                        chunk
                            .iter()
                            .map(|&(kind, i)| c.call("liver", kind, payload(m, kind, i)))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            threads
                .into_iter()
                .flat_map(|t| t.join().expect("submitters do not panic"))
                .collect::<Vec<_>>()
        })
    });
    for (&(kind, i), out) in calls.iter().zip(outputs) {
        let bits: Vec<u64> = out
            .expect("request served")
            .output
            .into_iter()
            .map(f64::to_bits)
            .collect();
        assert_eq!(
            bits,
            golden.bits[&(kind == RequestKind::Dose, i)],
            "{kind:?} payload {i} diverged from the single-device golden"
        );
    }
    assert_eq!(report.completed, calls.len() as u64);
    assert_eq!(report.failed, 0);
    report
}

/// `(keyed_groups, memo_hits)` per pool device.
fn memo(report: &EngineReport) -> Vec<(u64, u64)> {
    report
        .devices
        .iter()
        .map(|d| (d.keyed_groups, d.memo_hits))
        .collect()
}

/// Serves two submitters' traffic, one kind per session, until every
/// device in `devices` has run each kind twice, so each unit there has
/// recorded both launch keys. Dispatch sends a request to the less
/// loaded replica group, so two requests in flight at once use both
/// groups; which group a lone request takes depends on which worker
/// pops it. Returns the last report.
fn warm(engine: &Engine, m: &Csr<f64, u32>, golden: &Golden, devices: &[usize]) -> EngineReport {
    let mut report = serve(engine, m, golden, &[], 1);
    let mut runs = vec![[0u64; 2]; engine.devices().len()];
    for _ in 0..100 {
        for (k, kind) in KINDS.into_iter().enumerate() {
            let prev = memo(&report);
            report = serve(
                engine,
                m,
                golden,
                &[(kind, 0), (kind, 1), (kind, 2)].repeat(4),
                2,
            );
            for (d, (now, prev)) in memo(&report).iter().zip(&prev).enumerate() {
                runs[d][k] += now.0 - prev.0;
            }
        }
        if devices.iter().all(|&d| runs[d].iter().all(|&n| n >= 2)) {
            return report;
        }
    }
    panic!("two submitters never reached every unit on {devices:?}: {runs:?}");
}

/// A mix of both kinds and several payloads.
const MIX: [(RequestKind, usize); 6] = [
    (RequestKind::Dose, 1),
    (RequestKind::Gradient, 2),
    (RequestKind::Dose, 2),
    (RequestKind::Gradient, 0),
    (RequestKind::Dose, 0),
    (RequestKind::Gradient, 1),
];

#[test]
fn redeals_keep_units_that_did_not_move() {
    // The optimize-drain layout at test scale: the break-even model keeps
    // the plan whole (K = 1), so each of the two groups holds one unit,
    // homed on its A100. The V100 and the P100 are members that hold
    // nothing, and draining or undraining the P100 deals the same layout.
    let m = random_matrix(71, 1100, 64, 44);
    let golden = Golden::new(&m);
    let engine = engine(&m, ShardSpec::Auto);
    assert_eq!(
        engine.plan_shard_count("liver"),
        Some(1),
        "{:?}",
        engine.plan_breakeven("liver")
    );
    assert_eq!(engine.plan_replica_count("liver"), Some(2));

    let mut report = warm(&engine, &m, &golden, &[0, 1]);
    for (step, drain) in [("draining device 3", true), ("undraining device 3", false)] {
        let before = memo(&report);
        if drain {
            engine.drain_device(3).unwrap();
        } else {
            engine.undrain_device(3).unwrap();
        }
        // The kept units carry their counts over; rebuilt ones would
        // read zero here.
        assert_eq!(
            memo(&serve(&engine, &m, &golden, &[], 1)),
            before,
            "memo counts restarted after {step}"
        );
        // Each unit recorded both keys before the re-deal, so the first
        // request of each kind after it is a memo hit, whichever unit
        // takes it.
        for kind in KINDS {
            let prev = memo(&report);
            report = serve(&engine, &m, &golden, &[(kind, 0)], 1);
            let now = memo(&report);
            let keyed: u64 = now.iter().zip(&prev).map(|(n, p)| n.0 - p.0).sum();
            let hits: u64 = now.iter().zip(&prev).map(|(n, p)| n.1 - p.1).sum();
            assert_eq!(
                (keyed, hits),
                (1, 1),
                "the first {kind:?} after {step} was not a memo hit: {prev:?} -> {now:?}"
            );
        }
        report = serve(&engine, &m, &golden, &MIX, 2);
        let after = memo(&report);
        for d in 0..2 {
            assert!(
                after[d].0 >= before[d].0 && after[d].1 >= before[d].1,
                "device {d}'s memo counts fell after {step}: {before:?} -> {after:?}"
            );
        }
        assert!(
            after[..2].iter().map(|c| c.1).sum::<u64>() > before[..2].iter().map(|c| c.1).sum(),
            "no hits after {step}: {before:?} -> {after:?}"
        );
        assert_eq!(after[2..], [(0, 0), (0, 0)], "after {step}");
    }
    let placement = report.plans[0].placement.as_ref().expect("placed plan");
    assert_eq!(placement.rebalances, 2);
    assert_eq!(
        (placement.kept_units, placement.built_units),
        (4, 2),
        "both re-deals keep both units; registration built them"
    );
}

#[test]
fn a_moved_unit_is_rebuilt() {
    // Draining device 0 moves the unit it homes: the survivors deal into
    // {A100 1} and {V100, P100}, so the unit on device 1 is kept and
    // group 1's unit is built on the V100, cold.
    let m = random_matrix(72, 1100, 64, 44);
    let golden = Golden::new(&m);
    let whole = engine(&m, ShardSpec::Auto);
    assert_eq!(whole.plan_shard_count("liver"), Some(1));
    let before = memo(&warm(&whole, &m, &golden, &[0, 1]));
    whole.drain_device(0).unwrap();
    let now = memo(&serve(&whole, &m, &golden, &[], 1));
    assert_eq!(
        now,
        [(0, 0), before[1], (0, 0), (0, 0)],
        "device 0 holds nothing, the kept unit counts on and the rebuilt one starts at zero"
    );
    let report = warm(&whole, &m, &golden, &[1, 2]);
    let placement = report.plans[0].placement.as_ref().expect("placed plan");
    assert_eq!(placement.rebalances, 1);
    assert_eq!((placement.kept_units, placement.built_units), (1, 3));

    // With two shards per group, draining device 0 re-weights every cut:
    // device 1 still homes a unit, but with other rows, so nothing is
    // kept. A match on the home device alone would serve old rows.
    let split = engine(&m, ShardSpec::Fixed(2));
    serve(&split, &m, &golden, &MIX, 2);
    split.drain_device(0).unwrap();
    serve(&split, &m, &golden, &MIX, 2);
    split.undrain_device(0).unwrap();
    let report = serve(&split, &m, &golden, &MIX, 2);
    let placement = report.plans[0].placement.as_ref().expect("placed plan");
    assert_eq!(placement.rebalances, 2);
    assert_eq!((placement.kept_units, placement.built_units), (0, 12));
}
