//! Engine-level serving counters and the exportable JSON report.
//!
//! Workers and clients record into a shared [`Metrics`] (one mutex, one
//! batched update per launch — not per request); [`Metrics::report`]
//! snapshots it into the public [`EngineReport`], which
//! [`EngineReport::to_json`] renders through the same
//! [`rt_gpusim::json::Json`] writer as `LaunchReport` (stable keys).

use rt_core::BreakEvenPoint;
use rt_gpusim::json::Json;
use std::sync::Mutex;
use std::time::Instant;

/// Per-device tallies (one worker thread serves one device).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DeviceReport {
    pub name: String,
    /// Requests completed successfully on this device: the device whose
    /// shard landed last (for a `K = 1` plan, the one that ran it).
    pub requests: u64,
    /// Batched kernel-launch sequences executed (one per shard of a
    /// fan-out).
    pub launches: u64,
    /// Modeled GPU seconds accumulated from launch reports.
    pub modeled_seconds: f64,
    /// Plan bytes resident on this device: the dose and gradient shards
    /// homed here (the whole matrix and transpose for a `K = 1` plan).
    /// Attached by the engine after the metrics snapshot.
    pub resident_bytes: u64,
    /// Keyed launch groups run by this device's calculators (every
    /// calculator launch is keyed), and how many of them the launch memo
    /// answered without interpreting the address stream. Summed over the
    /// calculators of the current placement epoch, each over its whole
    /// life: a unit a re-deal kept carries its counts across the
    /// re-deal, and a unit a re-deal built starts at zero. Attached by
    /// the engine after the metrics snapshot.
    pub keyed_groups: u64,
    pub memo_hits: u64,
    /// Whether the device was drained (out for maintenance) when the
    /// report was taken: no new requests or shard homes land on it,
    /// though in-flight fan-outs from older placement epochs may still
    /// have executed here. Attached by the engine after the metrics
    /// snapshot.
    pub drained: bool,
}

/// One registered plan's autotuned kernel selection, carried in the
/// serve report so operators can see which tile width each plan runs at.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PlanSelection {
    pub name: String,
    /// Cooperative-group tile width the plan's dose-direction kernels
    /// run at (for partitioned plans: the widest populated bucket).
    pub tile_width: u32,
    /// Tile width the gradient (transpose) kernels run at — an
    /// independent decision made by running the same strategy on the
    /// whole transpose.
    pub grad_tile_width: u32,
    /// Selection strategy that picked it ("fixed", "heuristic", "probe",
    /// "partitioned-heuristic", "partitioned-probe").
    pub mode: String,
    /// Average stored entries per non-empty row of the plan's matrix.
    pub avg_nnz_nonempty: f64,
    /// Per-bucket width selections (partitioned plans only; empty for
    /// whole-matrix dispatch). Only populated buckets appear.
    pub buckets: Vec<BucketSelection>,
    /// Per-bucket width selections for the gradient direction, from the
    /// transpose's own row plan (partitioned plans only). Only populated
    /// buckets appear.
    pub grad_buckets: Vec<BucketSelection>,
    /// Row-range shards of the dose matrix, in row order (replica group
    /// 0's shards — other groups may cut differently when their device
    /// mix differs). One whole-matrix shard for a `K = 1` plan.
    pub shards: Vec<PlanShard>,
    /// Replica × shard placement of the plan. Every engine-built report
    /// fills it; `None` only in hand-built or default reports.
    pub placement: Option<PlacementSelection>,
}

/// How a plan was laid out across the pool and how the replica groups
/// shared the session's traffic.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PlacementSelection {
    /// Number of replica groups.
    pub replicas: usize,
    /// Shards per replica group (group 0's count; forced counts are
    /// clamped per plan to its row count).
    pub shards_per_replica: usize,
    /// Whether the shard count came from the break-even model
    /// ([`ShardSpec::Auto`]) rather than being forced.
    ///
    /// [`ShardSpec::Auto`]: crate::ShardSpec::Auto
    pub auto_shards: bool,
    /// Re-deals this plan's placement absorbed over its lifetime, one per
    /// drain or undrain that moved it, each an atomic epoch swap.
    pub rebalances: u64,
    /// Shard units the re-deals kept from the epoch each replaced (same
    /// home device, same dose and gradient rows, so the same simulated
    /// device, L2 state and launch memo), over the plan's lifetime.
    pub kept_units: u64,
    /// Shard units built over the plan's lifetime: registration's, plus
    /// every unit a re-deal could not keep.
    pub built_units: u64,
    /// Per-group membership and served-request tallies (the current
    /// placement epoch's groups; served counts are per-epoch).
    pub groups: Vec<ReplicaGroupSelection>,
    /// Break-even evidence table for group 0 (auto-sharded plans only):
    /// the modeled single-request seconds at every candidate shard
    /// count.
    pub breakeven: Vec<BreakEvenPoint>,
}

/// One replica group's membership and traffic share.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ReplicaGroupSelection {
    pub group: usize,
    /// Member device names, fastest first (absolute pool members; groups
    /// are disjoint).
    pub devices: Vec<String>,
    /// Shards this group holds.
    pub shards: usize,
    /// Fanned-out request batches this group completed during the
    /// session (dispatch picks the least-loaded group, so these should
    /// stay balanced under concurrent load).
    pub served: u64,
}

/// One row-range shard of a plan: where its rows live and what it costs
/// to keep there.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PlanShard {
    /// Shard index (also its position in the dose scatter).
    pub shard: usize,
    /// Home device of the shard's sub-matrix.
    pub device: String,
    /// First row of the shard's contiguous range.
    pub row_start: u64,
    /// Rows in the range.
    pub rows: u64,
    /// Stored entries in the sub-matrix.
    pub nnz: u64,
    /// Device bytes the shard unit pins on its home device: the dose
    /// shard plus the gradient shard of the same index.
    pub resident_bytes: u64,
}

/// One row-length bucket's width selection inside a partitioned plan.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BucketSelection {
    /// Inclusive row-length range of the bucket (`max_len == u32::MAX`
    /// renders as the open-ended ">32" bucket).
    pub min_len: u32,
    pub max_len: u32,
    /// Non-empty rows routed to this bucket.
    pub rows: u64,
    /// Tile width the bucket's launch runs at.
    pub tile_width: u32,
    /// Fraction of scheduled lanes carrying a nonzero at that width
    /// (empty rows are eliminated before bucketing, so they never count
    /// as occupied — or scheduled — lane slots here).
    pub lanes_active_frac: f64,
}

/// Snapshot of one [`Engine::serve`] session, exportable as JSON.
///
/// [`Engine::serve`]: crate::Engine::serve
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EngineReport {
    /// Wall-clock duration of the serve session in milliseconds.
    pub elapsed_ms: f64,
    /// Requests admitted into the queue.
    pub submitted: u64,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests shed at admission ([`RtError::QueueFull`]).
    ///
    /// [`RtError::QueueFull`]: rt_core::RtError::QueueFull
    pub rejected_queue_full: u64,
    /// Requests shed at dispatch because their deadline had expired.
    pub shed_deadline: u64,
    /// Requests that failed in execution with some other error.
    pub failed: u64,
    /// Physical kernel-launch sequences executed across all devices: a
    /// fan-out contributes one per shard (exactly one at `K = 1`).
    pub launches: u64,
    /// Completed request *batches*: a fanned-out batch counts once (at
    /// merge), no matter how many shards executed it — the denominator
    /// of [`EngineReport::avg_batch`], so sharding never deflates the
    /// batching win.
    pub batches: u64,
    /// Largest batch observed (requests per batch).
    pub max_batch: u64,
    /// Bounded-queue capacity.
    pub queue_capacity: usize,
    /// High-water mark of the queue depth.
    pub queue_max_depth: usize,
    /// Mean/max milliseconds requests waited in the queue.
    pub wait_ms_mean: f64,
    pub wait_ms_max: f64,
    /// Mean/max submit-to-completion latency in milliseconds.
    pub latency_ms_mean: f64,
    pub latency_ms_max: f64,
    /// Modeled GPU seconds across all devices.
    pub modeled_gpu_seconds: f64,
    /// Per-device breakdown, in pool order.
    pub devices: Vec<DeviceReport>,
    /// Per-plan kernel selection, in registration order (attached by the
    /// engine after the metrics snapshot).
    pub plans: Vec<PlanSelection>,
}

impl EngineReport {
    /// Completed requests per wall-clock second.
    pub fn throughput_rps(&self) -> f64 {
        if self.elapsed_ms <= 0.0 {
            0.0
        } else {
            self.completed as f64 / (self.elapsed_ms / 1e3)
        }
    }

    /// Mean requests per completed batch (the batching win; 1.0 = no
    /// batching). A fanned-out batch counts once here even though it
    /// ran as `K` per-shard launches.
    pub fn avg_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.completed as f64 / self.batches as f64
        }
    }

    /// Stable JSON encoding (same writer as
    /// [`rt_gpusim::LaunchReport::to_json`]).
    pub fn to_json(&self) -> String {
        let ms = |mean: f64, max: f64| {
            Json::obj()
                .field("mean", Json::fixed(mean, 3))
                .field("max", Json::fixed(max, 3))
        };
        let devices = self.devices.iter().map(|d| {
            Json::obj()
                .field("name", &d.name)
                .field("requests", d.requests)
                .field("launches", d.launches)
                .field("modeled_seconds", Json::sci(d.modeled_seconds, 6))
                .field("resident_bytes", d.resident_bytes)
                .field("keyed_groups", d.keyed_groups)
                .field("memo_hits", d.memo_hits)
                .field("drained", d.drained)
        });
        Json::obj()
            .field("elapsed_ms", Json::fixed(self.elapsed_ms, 3))
            .field("throughput_rps", Json::fixed(self.throughput_rps(), 2))
            .field("submitted", self.submitted)
            .field("completed", self.completed)
            .field("rejected_queue_full", self.rejected_queue_full)
            .field("shed_deadline", self.shed_deadline)
            .field("failed", self.failed)
            .field("launches", self.launches)
            .field("batches", self.batches)
            .field("avg_batch", Json::fixed(self.avg_batch(), 2))
            .field("max_batch", self.max_batch)
            .field(
                "queue",
                Json::obj()
                    .field("capacity", self.queue_capacity)
                    .field("max_depth", self.queue_max_depth),
            )
            .field("wait_ms", ms(self.wait_ms_mean, self.wait_ms_max))
            .field("latency_ms", ms(self.latency_ms_mean, self.latency_ms_max))
            .field(
                "modeled_gpu_seconds",
                Json::sci(self.modeled_gpu_seconds, 6),
            )
            .field("devices", Json::arr(devices))
            .field("plans", Json::arr(&self.plans))
            .render()
    }
}

impl From<&PlanSelection> for Json {
    fn from(p: &PlanSelection) -> Json {
        let shards = p.shards.iter().map(|sh| {
            Json::obj()
                .field("shard", sh.shard)
                .field("device", &sh.device)
                .field("row_start", sh.row_start)
                .field("rows", sh.rows)
                .field("nnz", sh.nnz)
                .field("resident_bytes", sh.resident_bytes)
        });
        Json::obj()
            .field("name", &p.name)
            .field("tile_width", p.tile_width)
            .field("grad_tile_width", p.grad_tile_width)
            .field("mode", &p.mode)
            .field("avg_nnz_nonempty", Json::fixed(p.avg_nnz_nonempty, 2))
            .field("buckets", Json::arr(&p.buckets))
            .field("grad_buckets", Json::arr(&p.grad_buckets))
            .field("shards", Json::arr(shards))
            .field("placement", p.placement.as_ref())
    }
}

impl From<&PlacementSelection> for Json {
    fn from(pl: &PlacementSelection) -> Json {
        let groups = pl.groups.iter().map(|g| {
            Json::obj()
                .field("group", g.group)
                .field("devices", Json::arr(&g.devices))
                .field("shards", g.shards)
                .field("served", g.served)
        });
        let breakeven = pl.breakeven.iter().map(|b| {
            Json::obj()
                .field("k", b.k)
                .field("modeled_seconds", Json::sci(b.modeled_seconds, 6))
        });
        Json::obj()
            .field("replicas", pl.replicas)
            .field("shards_per_replica", pl.shards_per_replica)
            .field("auto_shards", pl.auto_shards)
            .field("rebalances", pl.rebalances)
            .field("kept_units", pl.kept_units)
            .field("built_units", pl.built_units)
            .field("groups", Json::arr(groups))
            .field("breakeven", Json::arr(breakeven))
    }
}

impl From<&BucketSelection> for Json {
    fn from(b: &BucketSelection) -> Json {
        Json::obj()
            .field("min_len", b.min_len)
            .field("max_len", b.max_len)
            .field("rows", b.rows)
            .field("tile_width", b.tile_width)
            .field("lanes_active_frac", Json::fixed(b.lanes_active_frac, 4))
    }
}

#[derive(Default)]
struct Inner {
    submitted: u64,
    completed: u64,
    rejected_queue_full: u64,
    shed_deadline: u64,
    failed: u64,
    launches: u64,
    batches: u64,
    max_batch: u64,
    wait_ms_sum: f64,
    wait_ms_max: f64,
    latency_ms_sum: f64,
    latency_ms_max: f64,
    latency_samples: u64,
    devices: Vec<DeviceReport>,
}

/// Shared counter block for one serve session.
pub(crate) struct Metrics {
    inner: Mutex<Inner>,
    started: Instant,
}

/// One worker's deltas for one executed batch, merged under a single
/// lock acquisition.
pub(crate) struct BatchSample {
    pub device: usize,
    pub completed: u64,
    pub shed_deadline: u64,
    pub failed: u64,
    /// Physical kernel-launch sequences this worker executed (one per
    /// shard sub-task; 0 when the whole batch was shed before launch).
    pub launches: u64,
    /// Completed request batches this sample accounts for: 1 on the
    /// unsharded path and on the fan-out *merge*, 0 on every other
    /// shard sub-task — so a fan-out's batch counts exactly once.
    pub batches: u64,
    pub batch_size: u64,
    pub modeled_seconds: f64,
    /// (wait_ms, latency_ms) per completed request.
    pub timings: Vec<(f64, f64)>,
}

impl Metrics {
    pub fn new(device_names: &[&str]) -> Self {
        Metrics {
            inner: Mutex::new(Inner {
                devices: device_names
                    .iter()
                    .map(|n| DeviceReport {
                        name: n.to_string(),
                        ..Default::default()
                    })
                    .collect(),
                ..Default::default()
            }),
            started: Instant::now(),
        }
    }

    pub fn note_submitted(&self) {
        self.inner.lock().unwrap().submitted += 1;
    }

    pub fn note_rejected_full(&self) {
        self.inner.lock().unwrap().rejected_queue_full += 1;
    }

    pub fn record_batch(&self, s: BatchSample) {
        let mut g = self.inner.lock().unwrap();
        g.completed += s.completed;
        g.shed_deadline += s.shed_deadline;
        g.failed += s.failed;
        g.launches += s.launches;
        g.batches += s.batches;
        g.max_batch = g.max_batch.max(s.batch_size);
        for (wait, latency) in &s.timings {
            g.wait_ms_sum += wait;
            g.wait_ms_max = g.wait_ms_max.max(*wait);
            g.latency_ms_sum += latency;
            g.latency_ms_max = g.latency_ms_max.max(*latency);
            g.latency_samples += 1;
        }
        let d = &mut g.devices[s.device];
        d.requests += s.completed;
        d.launches += s.launches;
        d.modeled_seconds += s.modeled_seconds;
    }

    pub fn report(&self, queue_capacity: usize, queue_max_depth: usize) -> EngineReport {
        let g = self.inner.lock().unwrap();
        let n = g.latency_samples.max(1) as f64;
        EngineReport {
            elapsed_ms: self.started.elapsed().as_secs_f64() * 1e3,
            submitted: g.submitted,
            completed: g.completed,
            rejected_queue_full: g.rejected_queue_full,
            shed_deadline: g.shed_deadline,
            failed: g.failed,
            launches: g.launches,
            batches: g.batches,
            max_batch: g.max_batch,
            queue_capacity,
            queue_max_depth,
            wait_ms_mean: g.wait_ms_sum / n,
            wait_ms_max: g.wait_ms_max,
            latency_ms_mean: g.latency_ms_sum / n,
            latency_ms_max: g.latency_ms_max,
            modeled_gpu_seconds: g.devices.iter().map(|d| d.modeled_seconds).sum(),
            devices: g.devices.clone(),
            plans: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rt_gpusim::json::minify;

    /// Whether `doc` contains `needle`, both compared with whitespace
    /// outside string literals removed (layout-independent).
    fn contains(doc: &str, needle: &str) -> bool {
        minify(doc).contains(&minify(needle))
    }

    #[test]
    fn report_aggregates_batches() {
        let m = Metrics::new(&["A100", "V100"]);
        m.note_submitted();
        m.note_submitted();
        m.note_submitted();
        m.note_rejected_full();
        m.record_batch(BatchSample {
            device: 0,
            completed: 2,
            shed_deadline: 1,
            failed: 0,
            launches: 1,
            batches: 1,
            batch_size: 2,
            modeled_seconds: 0.5,
            timings: vec![(1.0, 3.0), (2.0, 5.0)],
        });
        let r = m.report(8, 3);
        assert_eq!(r.submitted, 3);
        assert_eq!(r.completed, 2);
        assert_eq!(r.rejected_queue_full, 1);
        assert_eq!(r.shed_deadline, 1);
        assert_eq!(r.launches, 1);
        assert_eq!(r.batches, 1);
        assert_eq!(r.max_batch, 2);
        assert_eq!(r.queue_capacity, 8);
        assert_eq!(r.queue_max_depth, 3);
        assert!((r.wait_ms_mean - 1.5).abs() < 1e-12);
        assert!((r.latency_ms_max - 5.0).abs() < 1e-12);
        assert!((r.modeled_gpu_seconds - 0.5).abs() < 1e-12);
        assert_eq!(r.devices[0].requests, 2);
        assert_eq!(r.devices[1].requests, 0);
        assert!((r.avg_batch() - 2.0).abs() < 1e-12);
        assert!(r.throughput_rps() >= 0.0);
    }

    #[test]
    fn fan_out_batches_count_once_but_launches_per_shard() {
        let m = Metrics::new(&["A100", "V100"]);
        // One 4-request batch fanned out as two shard sub-tasks: the
        // non-merging shard is a physical launch only...
        m.record_batch(BatchSample {
            device: 0,
            completed: 0,
            shed_deadline: 0,
            failed: 0,
            launches: 1,
            batches: 0,
            batch_size: 0,
            modeled_seconds: 0.1,
            timings: Vec::new(),
        });
        // ...and the merging shard carries the batch and completions.
        m.record_batch(BatchSample {
            device: 1,
            completed: 4,
            shed_deadline: 0,
            failed: 0,
            launches: 1,
            batches: 1,
            batch_size: 4,
            modeled_seconds: 0.1,
            timings: vec![(0.1, 0.2); 4],
        });
        let r = m.report(8, 4);
        assert_eq!(r.launches, 2, "one physical launch per shard");
        assert_eq!(r.batches, 1, "the fan-out batch counts once");
        assert!((r.avg_batch() - 4.0).abs() < 1e-12);
        assert_eq!(r.max_batch, 4);
    }

    #[test]
    fn json_has_stable_keys() {
        let m = Metrics::new(&["A100"]);
        let j = m.report(4, 0).to_json();
        for key in [
            "\"elapsed_ms\"",
            "\"throughput_rps\"",
            "\"submitted\"",
            "\"completed\"",
            "\"rejected_queue_full\"",
            "\"shed_deadline\"",
            "\"launches\"",
            "\"batches\"",
            "\"avg_batch\"",
            "\"drained\"",
            "\"queue\"",
            "\"wait_ms\"",
            "\"latency_ms\"",
            "\"modeled_gpu_seconds\"",
            "\"devices\"",
            "\"A100\"",
            "\"plans\"",
        ] {
            assert!(j.contains(key), "missing {key} in {j}");
        }
        assert!(j.starts_with('{') && j.ends_with('}'));
    }

    #[test]
    fn plan_selections_render_in_json() {
        let m = Metrics::new(&["A100"]);
        let mut r = m.report(4, 0);
        r.plans.push(PlanSelection {
            name: "prostate".into(),
            tile_width: 4,
            grad_tile_width: 8,
            mode: "heuristic".into(),
            avg_nnz_nonempty: 4.5,
            buckets: Vec::new(),
            grad_buckets: Vec::new(),
            shards: Vec::new(),
            placement: None,
        });
        let j = r.to_json();
        assert!(j.contains("\"prostate\""));
        assert!(j.contains("\"tile_width\": 4"));
        assert!(j.contains("\"grad_tile_width\": 8"));
        assert!(j.contains("\"heuristic\""));
        assert!(j.contains("\"buckets\": []"));
        assert!(j.contains("\"grad_buckets\": []"));
        assert!(j.contains("\"shards\": []"));
        assert!(j.contains("\"placement\": null"));
    }

    #[test]
    fn shard_blocks_and_resident_bytes_render_in_json() {
        let m = Metrics::new(&["A100", "V100"]);
        let mut r = m.report(4, 0);
        r.devices[0].resident_bytes = 4096;
        r.plans.push(PlanSelection {
            name: "liver".into(),
            tile_width: 32,
            grad_tile_width: 32,
            mode: "fixed".into(),
            avg_nnz_nonempty: 12.0,
            buckets: Vec::new(),
            grad_buckets: Vec::new(),
            shards: vec![
                PlanShard {
                    shard: 0,
                    device: "A100".into(),
                    row_start: 0,
                    rows: 500,
                    nnz: 9000,
                    resident_bytes: 2048,
                },
                PlanShard {
                    shard: 1,
                    device: "V100".into(),
                    row_start: 500,
                    rows: 700,
                    nnz: 8800,
                    resident_bytes: 2000,
                },
            ],
            placement: None,
        });
        let j = r.to_json();
        assert!(j.contains("\"resident_bytes\": 4096"));
        assert!(contains(&j,
            "\"shards\": [{\"shard\": 0, \"device\": \"A100\", \"row_start\": 0, \"rows\": 500, \"nnz\": 9000, \"resident_bytes\": 2048}, "
        ));
        assert!(j.contains("{\"shard\": 1, \"device\": \"V100\""));
    }

    #[test]
    fn bucket_selections_render_in_json() {
        let m = Metrics::new(&["A100"]);
        let mut r = m.report(4, 0);
        r.plans.push(PlanSelection {
            name: "liver".into(),
            tile_width: 32,
            grad_tile_width: 16,
            mode: "partitioned-heuristic".into(),
            avg_nnz_nonempty: 2.1,
            buckets: vec![
                BucketSelection {
                    min_len: 1,
                    max_len: 2,
                    rows: 1000,
                    tile_width: 2,
                    lanes_active_frac: 0.75,
                },
                BucketSelection {
                    min_len: 33,
                    max_len: u32::MAX,
                    rows: 8,
                    tile_width: 32,
                    lanes_active_frac: 0.9912,
                },
            ],
            grad_buckets: vec![BucketSelection {
                min_len: 9,
                max_len: 16,
                rows: 140,
                tile_width: 16,
                lanes_active_frac: 0.8125,
            }],
            shards: Vec::new(),
            placement: None,
        });
        r.elapsed_ms = 2.5;
        let j = r.to_json();
        assert!(j.contains("\"partitioned-heuristic\""));
        assert!(contains(&j,
            "\"buckets\": [{\"min_len\": 1, \"max_len\": 2, \"rows\": 1000, \"tile_width\": 2, \"lanes_active_frac\": 0.7500}, "
        ));
        assert!(j.contains("\"lanes_active_frac\": 0.9912"));
        assert!(contains(&j,
            "\"grad_buckets\": [{\"min_len\": 9, \"max_len\": 16, \"rows\": 140, \"tile_width\": 16, \"lanes_active_frac\": 0.8125}]"
        ));
        assert_eq!(
            minify(&j),
            r#"{"elapsed_ms":2.500,"throughput_rps":0.00,"submitted":0,"completed":0,"rejected_queue_full":0,"shed_deadline":0,"failed":0,"launches":0,"batches":0,"avg_batch":0.00,"max_batch":0,"queue":{"capacity":4,"max_depth":0},"wait_ms":{"mean":0.000,"max":0.000},"latency_ms":{"mean":0.000,"max":0.000},"modeled_gpu_seconds":0.000000e0,"devices":[{"name":"A100","requests":0,"launches":0,"modeled_seconds":0.000000e0,"resident_bytes":0,"keyed_groups":0,"memo_hits":0,"drained":false}],"plans":[{"name":"liver","tile_width":32,"grad_tile_width":16,"mode":"partitioned-heuristic","avg_nnz_nonempty":2.10,"buckets":[{"min_len":1,"max_len":2,"rows":1000,"tile_width":2,"lanes_active_frac":0.7500},{"min_len":33,"max_len":4294967295,"rows":8,"tile_width":32,"lanes_active_frac":0.9912}],"grad_buckets":[{"min_len":9,"max_len":16,"rows":140,"tile_width":16,"lanes_active_frac":0.8125}],"shards":[],"placement":null}]}"#
        );
    }

    #[test]
    fn placement_renders_in_json() {
        let m = Metrics::new(&["A100", "A100", "V100", "P100"]);
        let mut r = m.report(4, 0);
        r.plans.push(PlanSelection {
            name: "liver".into(),
            tile_width: 32,
            grad_tile_width: 32,
            mode: "heuristic".into(),
            avg_nnz_nonempty: 12.0,
            buckets: Vec::new(),
            grad_buckets: Vec::new(),
            shards: Vec::new(),
            placement: Some(PlacementSelection {
                replicas: 2,
                shards_per_replica: 2,
                auto_shards: true,
                rebalances: 3,
                kept_units: 5,
                built_units: 8,
                groups: vec![
                    ReplicaGroupSelection {
                        group: 0,
                        devices: vec!["A100".into(), "P100".into()],
                        shards: 2,
                        served: 3,
                    },
                    ReplicaGroupSelection {
                        group: 1,
                        devices: vec!["A100".into(), "V100".into()],
                        shards: 2,
                        served: 2,
                    },
                ],
                breakeven: vec![
                    BreakEvenPoint {
                        k: 1,
                        modeled_seconds: 3.3e-5,
                    },
                    BreakEvenPoint {
                        k: 2,
                        modeled_seconds: 2.1e-5,
                    },
                ],
            }),
        });
        r.elapsed_ms = 2.5;
        let j = r.to_json();
        assert!(contains(&j,
            "\"placement\": {\"replicas\": 2, \"shards_per_replica\": 2, \"auto_shards\": true, \"rebalances\": 3, \"kept_units\": 5, \"built_units\": 8, \"groups\": [{\"group\": 0, \"devices\": [\"A100\", \"P100\"], \"shards\": 2, \"served\": 3}, "
        ));
        assert!(contains(
            &j,
            "{\"group\": 1, \"devices\": [\"A100\", \"V100\"], \"shards\": 2, \"served\": 2}"
        ));
        assert!(contains(&j, "\"breakeven\": [{\"k\": 1, \"modeled_seconds\": 3.300000e-5}, {\"k\": 2, \"modeled_seconds\": 2.100000e-5}]"));
        assert_eq!(
            minify(&j),
            r#"{"elapsed_ms":2.500,"throughput_rps":0.00,"submitted":0,"completed":0,"rejected_queue_full":0,"shed_deadline":0,"failed":0,"launches":0,"batches":0,"avg_batch":0.00,"max_batch":0,"queue":{"capacity":4,"max_depth":0},"wait_ms":{"mean":0.000,"max":0.000},"latency_ms":{"mean":0.000,"max":0.000},"modeled_gpu_seconds":0.000000e0,"devices":[{"name":"A100","requests":0,"launches":0,"modeled_seconds":0.000000e0,"resident_bytes":0,"keyed_groups":0,"memo_hits":0,"drained":false},{"name":"A100","requests":0,"launches":0,"modeled_seconds":0.000000e0,"resident_bytes":0,"keyed_groups":0,"memo_hits":0,"drained":false},{"name":"V100","requests":0,"launches":0,"modeled_seconds":0.000000e0,"resident_bytes":0,"keyed_groups":0,"memo_hits":0,"drained":false},{"name":"P100","requests":0,"launches":0,"modeled_seconds":0.000000e0,"resident_bytes":0,"keyed_groups":0,"memo_hits":0,"drained":false}],"plans":[{"name":"liver","tile_width":32,"grad_tile_width":32,"mode":"heuristic","avg_nnz_nonempty":12.00,"buckets":[],"grad_buckets":[],"shards":[],"placement":{"replicas":2,"shards_per_replica":2,"auto_shards":true,"rebalances":3,"kept_units":5,"built_units":8,"groups":[{"group":0,"devices":["A100","P100"],"shards":2,"served":3},{"group":1,"devices":["A100","V100"],"shards":2,"served":2}],"breakeven":[{"k":1,"modeled_seconds":3.300000e-5},{"k":2,"modeled_seconds":2.100000e-5}]}}]}"#
        );
    }
}
