//! The serving engine: device pool, worker threads, batching dispatch.
//!
//! # Architecture
//!
//! One worker thread per simulated device, all popping from one bounded
//! FIFO ([`BoundedQueue`]). A worker pops a request together with up to
//! `max_batch - 1` queued *compatible* requests (same plan, same
//! operation) in one locked queue operation, and executes them as one
//! multi-vector launch sequence
//! ([`DoseCalculator::compute_dose_batch`]), so concurrent traffic for
//! the same matrix shares its bytes.
//!
//! Every request takes one path. Each plan is *placed* as `R` replica
//! groups × `K` row-range shards, and a shard unit is one calculator on
//! one device holding dose shard *s* and gradient shard *s*. The
//! dispatching worker picks the least-loaded group, queues the shards
//! homed on other devices as device-pinned sub-tasks, and runs the
//! shards homed on its own device in place; whichever shard lands last
//! merges the outputs and replies. The default policy resolves to `R` =
//! the live pool and `K = 1` — every device holds the whole plan — so a
//! batch runs entirely on the worker that popped it.
//!
//! Exactly one worker drives each device, and each worker owns that
//! device's calculators exclusively — launches for one device never
//! interleave, matching the one-stream-per-GPU execution model.
//!
//! # Determinism (§II-D)
//!
//! Scheduling is nondeterministic: which worker pops a request, which
//! requests share its batch, and which device executes them all vary run
//! to run. The *dose does not*: the batched kernel performs per-vector
//! arithmetic identical to the single-vector kernel (fixed reduction
//! tree, fixed traversal order), widths are pinned from the whole
//! matrix before any shard split, shards scatter disjoint row ranges,
//! and no functional result depends on the `DeviceSpec`. The
//! integration tests assert bitwise-identical doses across pool sizes,
//! placements, drains and shuffled submission orders.
//!
//! [`BoundedQueue`]: crate::queue::BoundedQueue
//! [`DoseCalculator::compute_dose_batch`]: rt_core::DoseCalculator::compute_dose_batch

use crate::metrics::{
    BatchSample, BucketSelection, EngineReport, Metrics, PlacementSelection, PlanSelection,
    PlanShard, ReplicaGroupSelection,
};
use crate::policy::{ExecPolicy, ReplicaSpec, ShardSpec};
use crate::queue::BoundedQueue;
use rt_core::{
    choose_shard_count, modeled_whole_seconds, BreakEvenPoint, BucketWidths, DoseCalculator,
    KernelChoice, KernelSelect, RtError, MAX_SPMM_BATCH,
};
use rt_f16::F16;
use rt_gpusim::{
    gather_estimate, snake_partition_subset, DeviceSpec, LaunchReport, ShardReport, ShardedReport,
};
use rt_sparse::{Csr, RowPlan, RowShard, ShardPlan};
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Which operation a request asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RequestKind {
    /// `dose = A w` — payload is a spot-weight vector (`ncols` long).
    Dose,
    /// `g = A^T r` — payload is a voxel residual (`nrows` long).
    Gradient,
}

/// A completed request: the output vector plus the launch report of the
/// batch that computed it.
#[derive(Clone, Debug)]
pub struct EngineResponse {
    /// Output vector: dose per voxel ([`RequestKind::Dose`]) or gradient
    /// per spot ([`RequestKind::Gradient`]).
    pub output: Vec<f64>,
    /// Merged launch report of the batch this request rode in (shared by
    /// every request of the batch).
    pub report: LaunchReport,
    /// Device that executed the batch.
    pub device: String,
    /// How many requests shared the batch (1 = no batching win).
    pub batch_size: usize,
    /// Milliseconds this request waited in the queue before dispatch.
    pub queue_ms: f64,
    /// Per-shard breakdown of the fan-out: per-device counters, the
    /// modeled gather cost of landing each shard's rows, and the
    /// critical-path modeled time. Every reply carries one (a `K = 1`
    /// plan reports its single shard); the `Option` is kept for
    /// existing readers of the field.
    pub shards: Option<ShardedReport>,
}

/// One request's reply slot: filled exactly once by a worker, awaited by
/// [`Ticket::wait`].
struct ReplySlot {
    state: Mutex<Option<Result<EngineResponse, RtError>>>,
    cv: Condvar,
}

impl ReplySlot {
    fn new() -> Arc<Self> {
        Arc::new(ReplySlot {
            state: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    fn complete(&self, outcome: Result<EngineResponse, RtError>) {
        *self.state.lock().unwrap() = Some(outcome);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<EngineResponse, RtError> {
        let mut g = self.state.lock().unwrap();
        loop {
            if let Some(outcome) = g.take() {
                return outcome;
            }
            g = self.cv.wait(g).unwrap();
        }
    }
}

/// Handle to an in-flight request.
pub struct Ticket {
    slot: Arc<ReplySlot>,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.slot.state.lock().unwrap();
        f.debug_struct("Ticket")
            .field("completed", &state.is_some())
            .finish()
    }
}

impl Ticket {
    /// Blocks until a worker completes (or sheds) the request.
    pub fn wait(self) -> Result<EngineResponse, RtError> {
        self.slot.wait()
    }
}

struct EngineRequest {
    plan: usize,
    kind: RequestKind,
    payload: Vec<f64>,
    submitted: Instant,
    /// Queue-wait budget; the request is shed at dispatch if exceeded.
    budget_ms: Option<f64>,
    slot: Arc<ReplySlot>,
}

/// What sits in the serve queue: an admitted request, or one shard
/// sub-task of a fanned-out batch (pinned to the shard's home device).
enum WorkItem {
    Request(EngineRequest),
    Shard(ShardTask),
}

/// One shard's slice of a fanned-out batch. Only the worker for
/// `device` may pop it — the shard's sub-matrix is resident there.
struct ShardTask {
    shard: usize,
    device: usize,
    fan: Arc<FanOut>,
}

/// Barrier-free completion tracker for one fanned-out batch: each shard
/// scatters its disjoint row range into `outputs` as it lands (any
/// completion order), and whichever shard decrements `remaining` to zero
/// merges the reports and fills every reply slot. Cancellation
/// (deadline expiry seen at shard dispatch, or a shard execution error)
/// flips `cancelled` with a CAS — the winner fails every slot, later
/// shards skip execution, and no partially-merged dose can ever escape.
struct FanOut {
    plan: usize,
    /// Replica group executing this fan-out (indexes `epoch.groups` and
    /// the per-plan, per-epoch load table).
    group: usize,
    /// The placement epoch this fan-out was dealt under. Shard indices
    /// resolve against *these* groups even if a re-deal swaps the plan's
    /// current epoch mid-flight — the `Arc` keeps the old generation's
    /// calculators alive until the last shard retires.
    epoch: Arc<PlacementEpoch>,
    kind: RequestKind,
    /// The batch members with their queue-wait at fan-out time.
    requests: Vec<(EngineRequest, f64)>,
    outputs: Mutex<Vec<Vec<f64>>>,
    remaining: AtomicUsize,
    cancelled: AtomicBool,
    /// Per-shard launch reports, pushed in completion order and sorted
    /// by shard index at merge time (the merged report is deterministic
    /// even though the landing order is not).
    reports: Mutex<Vec<ShardReport>>,
    /// Earliest true deadline in the batch — `min_i(submitted_i +
    /// budget_i)` over members that carry a budget — paired with the
    /// binding member's budget. The whole fan-out is shed as a unit
    /// when it expires before every shard has dispatched
    /// (all-or-nothing keeps the dose invariant simple), but no member
    /// is ever shed earlier than its *own* deadline: a mate's tighter
    /// budget binds only from that mate's later submission time.
    deadline: Option<(Instant, f64)>,
}

impl FanOut {
    /// Cancels the fan-out: the caller that flips `cancelled` fails every
    /// member's slot with `error(member)` and gets `true`; every later
    /// caller gets `false` and leaves the slots alone, so each slot is
    /// completed exactly once.
    fn cancel(&self, error: impl Fn(&EngineRequest) -> RtError) -> bool {
        if self
            .cancelled
            .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return false;
        }
        for (req, _) in &self.requests {
            req.slot.complete(Err(error(req)));
        }
        true
    }
}

/// Worker start gate: an engine built with `start_paused` holds its
/// workers here until [`EngineClient::resume`] (or serve teardown), which
/// makes admission-control behavior deterministic to test.
struct Gate {
    paused: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn new(paused: bool) -> Self {
        Gate {
            paused: Mutex::new(paused),
            cv: Condvar::new(),
        }
    }

    fn wait_open(&self) {
        let mut g = self.paused.lock().unwrap();
        while *g {
            g = self.cv.wait(g).unwrap();
        }
    }

    fn open(&self) {
        *self.paused.lock().unwrap() = false;
        self.cv.notify_all();
    }
}

/// Replica-group load counters for one placement epoch.
struct GroupLoads {
    /// Fan-outs currently in flight per replica group.
    outstanding: Vec<u64>,
    /// Fan-outs completed per replica group (the current epoch's row is
    /// reported as `placement.groups[].served`).
    served: Vec<u64>,
}

struct ServeState {
    queue: BoundedQueue<WorkItem>,
    gate: Gate,
    metrics: Metrics,
    /// Per-plan replica-group load tallies for this serve session, keyed
    /// by placement epoch: an in-flight fan-out retires against the
    /// epoch that dispatched it even after a re-deal swaps the plan's
    /// current generation. One mutex per plan: group selection and the
    /// outstanding increment happen in a single critical section, so two
    /// workers dispatching the same plan concurrently can never both
    /// pick the "idle" group.
    loads: Vec<Mutex<HashMap<u64, GroupLoads>>>,
}

/// One contiguous row range of one direction's matrix: where its rows
/// land in the output and what landing them costs.
struct ShardRows {
    row_start: usize,
    row_end: usize,
    nnz: u64,
    /// Result bytes one output vector of this shard ships over the
    /// interconnect at gather time (8 bytes per non-empty row; empty
    /// rows scatter nothing).
    gather_bytes: u64,
}

impl ShardRows {
    fn of(shard: &RowShard<f64, u32>) -> Self {
        ShardRows {
            row_start: shard.row_start,
            row_end: shard.row_end,
            nnz: shard.nnz() as u64,
            gather_bytes: shard.gather_bytes(),
        }
    }

    fn range(&self) -> Range<usize> {
        self.row_start..self.row_end
    }
}

/// Shard `s` of a replica group in both directions: dose shard `s` (rows
/// of the matrix) and gradient shard `s` (rows of the transpose), held
/// by one calculator on one device. With `K = 1` this is a whole-plan
/// calculator. A forced `K` above the transpose's row count leaves the
/// trailing units with no gradient shard. Units sit behind an `Arc`: a
/// re-deal that leaves a unit's home device and row ranges unchanged
/// keeps it, so the unit's simulated device, L2 state and launch memo
/// carry over into the new epoch.
struct ShardUnit {
    /// Home device index into the *pool* (shard `s` of a replica group
    /// lives on the group's `s % group_size`-th member).
    device: usize,
    dose: ShardRows,
    grad: Option<ShardRows>,
    calc: DoseCalculator,
}

impl ShardUnit {
    /// This unit's rows for `kind`, or `None` when it holds no shard of
    /// that direction.
    fn rows(&self, kind: RequestKind) -> Option<&ShardRows> {
        match kind {
            RequestKind::Dose => Some(&self.dose),
            RequestKind::Gradient => self.grad.as_ref(),
        }
    }
}

/// One replica group: a disjoint device subset holding a full copy of
/// the plan as `K` shard units.
struct ReplicaGroup {
    /// Absolute pool device indices, fastest (highest modeled bandwidth)
    /// first — `devices[0]` is the group's reference device for the
    /// break-even model.
    devices: Vec<usize>,
    /// Shard units in row order.
    units: Vec<Arc<ShardUnit>>,
    /// Break-even evidence table ([`ShardSpec::Auto`] only): the modeled
    /// single-request seconds at every candidate shard count.
    breakeven: Vec<BreakEvenPoint>,
}

impl ReplicaGroup {
    /// The units holding a shard of `kind`, with their indices.
    fn shards_for(&self, kind: RequestKind) -> impl Iterator<Item = (usize, &Arc<ShardUnit>)> {
        self.units
            .iter()
            .enumerate()
            .filter(move |(_, u)| u.rows(kind).is_some())
    }
}

/// One immutable generation of a plan's resolved placement: `R` disjoint
/// replica groups, each serving whole requests independently. Fan-outs
/// pin the epoch they were dispatched under (`Arc`), so a re-deal never
/// pulls shard calculators out from under an in-flight batch. A unit
/// kept by a re-deal belongs to both epochs; its calculator's staging
/// lock serializes the callers of either.
struct PlacementEpoch {
    /// Monotone generation counter (0 = the registration-time deal).
    epoch: u64,
    groups: Vec<ReplicaGroup>,
}

impl PlacementEpoch {
    fn units(&self) -> impl Iterator<Item = &Arc<ShardUnit>> {
        self.groups.iter().flat_map(|g| &g.units)
    }

    /// This epoch's unit homed on `device` with exactly these dose and
    /// gradient rows, if any. Widths are pinned per plan and threads per
    /// block per engine, so such a unit is the one a rebuild would make.
    fn unit_matching(
        &self,
        device: usize,
        dose: &Range<usize>,
        grad: Option<&Range<usize>>,
    ) -> Option<&Arc<ShardUnit>> {
        self.units().find(|u| {
            u.device == device
                && u.dose.range() == *dose
                && u.grad.as_ref().map(ShardRows::range).as_ref() == grad
        })
    }
}

/// One direction of a registered plan: the host matrix a re-deal
/// rebuilds shards from, and the autotuner decision pinned from it at
/// registration.
struct Direction {
    matrix: Csr<f64, u32>,
    /// Every shard calculator runs at `choice.tile_width` (or, for
    /// partitioned plans, at the per-bucket widths in `choice.buckets`).
    /// Width pinning is what keeps placed outputs bitwise identical to a
    /// single device: every shard inherits the whole-matrix decision, so
    /// each row's arithmetic is a function of its length alone, not of
    /// the shard or replica it landed in.
    choice: KernelChoice,
    /// Row-partition plan of the whole matrix (partitioned plans only).
    row_plan: Option<Arc<RowPlan>>,
}

impl Direction {
    /// Runs `select` on `matrix` against the reference device.
    fn new(
        reference: &DeviceSpec,
        matrix: Csr<f64, u32>,
        select: KernelSelect,
        tpb: u32,
    ) -> Result<Self, RtError> {
        let choice = select.choose(reference, &matrix, tpb)?;
        let row_plan = matches!(select, KernelSelect::Partitioned(_))
            .then(|| Arc::new(RowPlan::from_csr(&matrix)));
        Ok(Direction {
            matrix,
            choice,
            row_plan,
        })
    }

    /// Per-bucket widths every shard applies to its own row plan
    /// (partitioned plans only). Bucket membership is a function of row
    /// length, so sub-matrices reuse the whole matrix's widths.
    fn widths(&self) -> Option<BucketWidths> {
        self.row_plan.as_ref().map(|_| self.choice.bucket_widths())
    }
}

struct Plan {
    name: String,
    nrows: usize,
    ncols: usize,
    /// The dose direction: the matrix itself.
    dose: Direction,
    /// The gradient direction: the transpose, with its own decision —
    /// the same strategy run on the transpose, whose row-length
    /// distribution (beamlet rows) is unrelated to the dose direction's.
    grad: Direction,
    /// The policy this plan was registered under.
    policy: ExecPolicy,
    /// The current placement epoch. The lock is held only to clone or
    /// swap the pointer — never across a shard build.
    placement: Mutex<Arc<PlacementEpoch>>,
    /// Re-deals (drain or undrain) this plan's placement has absorbed.
    rebalances: AtomicU64,
    /// Shard units re-deals kept from the epoch they replaced, and units
    /// built (registration's included).
    kept_units: AtomicU64,
    built_units: AtomicU64,
}

impl Plan {
    fn direction(&self, kind: RequestKind) -> &Direction {
        match kind {
            RequestKind::Dose => &self.dose,
            RequestKind::Gradient => &self.grad,
        }
    }

    fn snapshot(&self) -> Arc<PlacementEpoch> {
        Arc::clone(&self.placement.lock().unwrap())
    }

    /// The sum of `f` over this plan's calculators on pool device `dev`
    /// under its current placement epoch. A calculator's counts cover
    /// its whole life: a unit a re-deal kept carries them over, and a
    /// unit a re-deal built starts at zero.
    fn sum_on(&self, dev: usize, f: impl Fn(&DoseCalculator) -> u64) -> u64 {
        self.snapshot()
            .units()
            .filter(|u| u.device == dev)
            .map(|u| f(&u.calc))
            .sum()
    }
}

/// Configures an [`Engine`]; obtained from [`Engine::builder`].
#[derive(Clone, Debug)]
pub struct EngineBuilder {
    devices: Vec<DeviceSpec>,
    queue_capacity: usize,
    max_batch: usize,
    threads_per_block: u32,
    default_deadline_ms: Option<f64>,
    max_request_len: Option<usize>,
    start_paused: bool,
    default_policy: ExecPolicy,
    debug_delays: Vec<(usize, f64)>,
}

impl Default for EngineBuilder {
    fn default() -> Self {
        EngineBuilder {
            devices: Vec::new(),
            queue_capacity: 64,
            max_batch: MAX_SPMM_BATCH,
            threads_per_block: 512,
            default_deadline_ms: None,
            max_request_len: None,
            start_paused: false,
            default_policy: ExecPolicy::default(),
            debug_delays: Vec::new(),
        }
    }
}

impl EngineBuilder {
    /// Adds one device to the pool (one worker thread each).
    pub fn device(mut self, spec: DeviceSpec) -> Self {
        self.devices.push(spec);
        self
    }

    /// Adds several devices at once.
    pub fn devices(mut self, specs: impl IntoIterator<Item = DeviceSpec>) -> Self {
        self.devices.extend(specs);
        self
    }

    /// Bounded request-queue capacity (default 64; minimum 1).
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Most requests a worker may merge into one launch sequence
    /// (default [`MAX_SPMM_BATCH`]; minimum 1).
    pub fn max_batch(mut self, max_batch: usize) -> Self {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Execution configuration for every plan's kernels (default 512).
    pub fn threads_per_block(mut self, tpb: u32) -> Self {
        self.threads_per_block = tpb;
        self
    }

    /// Queue-wait budget applied to requests submitted without an
    /// explicit deadline.
    pub fn default_deadline_ms(mut self, budget_ms: f64) -> Self {
        self.default_deadline_ms = Some(budget_ms);
        self
    }

    /// Rejects payloads longer than `max` at admission
    /// ([`RtError::RequestTooLarge`]).
    pub fn max_request_len(mut self, max: usize) -> Self {
        self.max_request_len = Some(max);
        self
    }

    /// Holds workers at serve start until [`EngineClient::resume`] —
    /// lets tests fill the queue deterministically.
    pub fn start_paused(mut self) -> Self {
        self.start_paused = true;
        self
    }

    /// Execution policy applied to plans registered through
    /// [`Engine::register_plan`] (default [`ExecPolicy::default`]: one
    /// whole-plan replica per device). Per-plan policies via
    /// [`Engine::register_plan_with`] override this.
    pub fn default_policy(mut self, policy: ExecPolicy) -> Self {
        self.default_policy = policy;
        self
    }

    /// Test hook: delays worker `device` by `delay_ms` before it serves
    /// each shard sub-task, simulating a slow pool member so
    /// deadline-cancellation under fan-out is deterministic to test.
    #[doc(hidden)]
    pub fn debug_device_delay_ms(mut self, device: usize, delay_ms: f64) -> Self {
        self.debug_delays.push((device, delay_ms));
        self
    }

    /// Validates the configuration.
    pub fn build(self) -> Result<Engine, RtError> {
        if self.devices.is_empty() {
            return Err(RtError::EmptyDevicePool);
        }
        let tpb = self.threads_per_block;
        if !(32..=1024).contains(&tpb) || !tpb.is_multiple_of(32) {
            return Err(RtError::InvalidThreadsPerBlock(tpb));
        }
        self.default_policy.validate()?;
        let pool = self.devices.len();
        Ok(Engine {
            devices: self.devices,
            plans: Vec::new(),
            plan_index: HashMap::new(),
            drained: (0..pool).map(|_| AtomicBool::new(false)).collect(),
            rebalance_lock: Mutex::new(()),
            queue_capacity: self.queue_capacity,
            max_batch: self.max_batch,
            threads_per_block: tpb,
            default_deadline_ms: self.default_deadline_ms,
            max_request_len: self.max_request_len,
            start_paused: self.start_paused,
            default_policy: self.default_policy,
            debug_delays: self.debug_delays,
        })
    }
}

/// A multi-plan dose-calculation serving engine over a pool of simulated
/// devices.
///
/// ```
/// use rt_engine::{Engine, RequestKind};
/// use rt_gpusim::DeviceSpec;
/// use rt_sparse::Csr;
///
/// let m = Csr::from_rows(2, &[vec![(0, 1.0)], vec![(1, 0.5)]]).unwrap();
/// let mut engine = Engine::builder()
///     .device(DeviceSpec::a100())
///     .device(DeviceSpec::v100())
///     .build()
///     .unwrap();
/// engine.register_plan("demo", &m).unwrap();
/// let (dose, report) = engine.serve(|client| {
///     client
///         .call("demo", RequestKind::Dose, vec![1.0, 1.0])
///         .unwrap()
///         .output
/// });
/// assert_eq!(dose.len(), 2);
/// assert_eq!(report.completed, 1);
/// ```
pub struct Engine {
    devices: Vec<DeviceSpec>,
    plans: Vec<Plan>,
    /// Name → index into `plans`: submits resolve plans by name on the
    /// hot path, so the lookup must not rescan the plan list.
    plan_index: HashMap<String, usize>,
    /// Per-device drain flags. A drained device takes no new requests
    /// and no shard homes in new placement epochs, but still executes
    /// shard sub-tasks pinned to it by an older epoch — in-flight
    /// fan-outs finish where they started.
    drained: Vec<AtomicBool>,
    /// Serializes drain/undrain re-deals so two triggers can never
    /// interleave their build-then-swap sequences.
    rebalance_lock: Mutex<()>,
    queue_capacity: usize,
    max_batch: usize,
    threads_per_block: u32,
    default_deadline_ms: Option<f64>,
    max_request_len: Option<usize>,
    start_paused: bool,
    default_policy: ExecPolicy,
    debug_delays: Vec<(usize, f64)>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field(
                "devices",
                &self.devices.iter().map(|d| d.name).collect::<Vec<_>>(),
            )
            .field("plans", &self.plan_names())
            .field("queue_capacity", &self.queue_capacity)
            .field("max_batch", &self.max_batch)
            .finish()
    }
}

impl Engine {
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Devices in the pool, in worker order.
    pub fn devices(&self) -> &[DeviceSpec] {
        &self.devices
    }

    /// Registered plan names, in registration order.
    pub fn plan_names(&self) -> Vec<&str> {
        self.plans.iter().map(|p| p.name.as_str()).collect()
    }

    /// `(nvoxels, nspots)` of a registered plan.
    pub fn plan_dims(&self, name: &str) -> Option<(usize, usize)> {
        self.plan(name).map(|p| (p.nrows, p.ncols))
    }

    fn plan(&self, name: &str) -> Option<&Plan> {
        self.plan_index.get(name).map(|&i| &self.plans[i])
    }

    /// The tile width a registered plan's kernels run at.
    pub fn plan_tile_width(&self, name: &str) -> Option<u32> {
        self.plan(name).map(|p| p.dose.choice.tile_width)
    }

    /// The full autotuner decision recorded for a registered plan.
    pub fn plan_choice(&self, name: &str) -> Option<&KernelChoice> {
        self.plan(name).map(|p| &p.dose.choice)
    }

    /// The row-partition plan a registered plan dispatches through, if
    /// the engine was built with [`KernelSelect::Partitioned`].
    pub fn plan_row_plan(&self, name: &str) -> Option<&Arc<RowPlan>> {
        self.plan(name).and_then(|p| p.dose.row_plan.as_ref())
    }

    /// The tile width a registered plan's gradient (transpose) kernels
    /// run at — selected independently of the dose direction.
    pub fn plan_grad_tile_width(&self, name: &str) -> Option<u32> {
        self.plan(name).map(|p| p.grad.choice.tile_width)
    }

    /// The autotuner decision recorded for a registered plan's gradient
    /// direction (the same strategy run on the transpose).
    pub fn plan_grad_choice(&self, name: &str) -> Option<&KernelChoice> {
        self.plan(name).map(|p| &p.grad.choice)
    }

    /// The transpose row-partition plan a registered plan's gradients
    /// dispatch through, if the policy selects [`KernelSelect::Partitioned`].
    pub fn plan_grad_row_plan(&self, name: &str) -> Option<&Arc<RowPlan>> {
        self.plan(name).and_then(|p| p.grad.row_plan.as_ref())
    }

    /// The default execution policy plans registered through
    /// [`Engine::register_plan`] get.
    pub fn default_policy(&self) -> ExecPolicy {
        self.default_policy
    }

    /// The execution policy a registered plan was placed under.
    pub fn plan_policy(&self, name: &str) -> Option<ExecPolicy> {
        self.plan(name).map(|p| p.policy)
    }

    /// Dose-direction shards per replica group a registered plan
    /// actually got under its current placement epoch (forced counts
    /// are clamped to the plan's rows).
    pub fn plan_shard_count(&self, name: &str) -> Option<usize> {
        self.plan(name).map(|p| p.snapshot().groups[0].units.len())
    }

    /// Replica groups a registered plan is currently dealt across.
    pub fn plan_replica_count(&self, name: &str) -> Option<usize> {
        self.plan(name).map(|p| p.snapshot().groups.len())
    }

    /// Re-deals (drain or undrain) a registered plan's placement has
    /// absorbed.
    pub fn plan_rebalances(&self, name: &str) -> Option<u64> {
        self.plan(name).map(|p| p.rebalances.load(Ordering::SeqCst))
    }

    /// The break-even evidence table recorded for a registered plan's
    /// first replica group under its current placement epoch
    /// ([`ShardSpec::Auto`] plans only; empty for other policies).
    pub fn plan_breakeven(&self, name: &str) -> Option<Vec<BreakEvenPoint>> {
        self.plan(name)
            .map(|p| p.snapshot().groups[0].breakeven.clone())
    }

    /// Registers `matrix` under the plan name `name` with the engine's
    /// default policy ([`EngineBuilder::default_policy`]); see
    /// [`Engine::register_plan_with`].
    pub fn register_plan(&mut self, name: &str, matrix: &Csr<f64, u32>) -> Result<(), RtError> {
        self.register_plan_with(name, matrix, self.default_policy)
    }

    /// Registers `matrix` under the plan name `name` with a per-plan
    /// execution policy.
    ///
    /// Registration is when the engine autotunes. The policy's
    /// [`KernelSelect`] picks the plan's tile width once per direction
    /// (from row statistics, or by probing candidate widths on the first
    /// pool device); every shard calculator is built to run at it —
    /// pinned widths are what make placed doses bitwise identical to a
    /// single device's.
    ///
    /// Every plan is *placed*: the pool is snake-dealt by modeled
    /// bandwidth into `R` disjoint replica groups, and each group holds
    /// the plan as `K` throughput-weighted row-range shards (`K` per the
    /// policy, or the break-even model under [`ShardSpec::Auto`]). The
    /// default policy (`ShardSpec::Fixed(1)` + [`ReplicaSpec::Auto`])
    /// resolves to `R` = the live pool and `K = 1`: every device holds
    /// the whole matrix and its transpose. Returns
    /// [`RtError::InvalidPlacement`] when a forced replica count exceeds
    /// the pool.
    pub fn register_plan_with(
        &mut self,
        name: &str,
        matrix: &Csr<f64, u32>,
        policy: ExecPolicy,
    ) -> Result<(), RtError> {
        if self.plan(name).is_some() {
            return Err(RtError::DuplicatePlan(name.to_string()));
        }
        policy.validate()?;
        // Both directions' decisions are pinned here, from the whole
        // matrix and the whole transpose, before any shard split.
        let reference = &self.devices[0];
        let tpb = self.threads_per_block;
        let dose = Direction::new(reference, matrix.clone(), policy.kernel_select, tpb)?;
        let grad = Direction::new(reference, matrix.transpose(), policy.kernel_select, tpb)?;
        let groups = self.place_groups(&dose, &grad, &policy, &self.live_devices(), None)?;
        let epoch = PlacementEpoch { epoch: 0, groups };
        let built = epoch.units().count() as u64;
        self.plan_index.insert(name.to_string(), self.plans.len());
        self.plans.push(Plan {
            name: name.to_string(),
            nrows: matrix.nrows(),
            ncols: matrix.ncols(),
            dose,
            grad,
            policy,
            placement: Mutex::new(Arc::new(epoch)),
            rebalances: AtomicU64::new(0),
            kept_units: AtomicU64::new(0),
            built_units: AtomicU64::new(built),
        });
        Ok(())
    }

    /// Resolves a policy into replica groups with resident shard units,
    /// dealt over the `live` device subset (the whole pool at
    /// registration; the surviving members during a drain re-deal).
    /// The break-even model re-runs against the live members, so a
    /// shrunken group may legitimately pick a smaller `K` than the full
    /// pool would have. A re-deal passes the epoch it replaces as `old`,
    /// and every unit of it that the new deal would rebuild unchanged is
    /// kept ([`Engine::build_group_units`]).
    fn place_groups(
        &self,
        dose: &Direction,
        grad: &Direction,
        policy: &ExecPolicy,
        live: &[usize],
        old: Option<&PlacementEpoch>,
    ) -> Result<Vec<ReplicaGroup>, RtError> {
        let pool = self.devices.len();
        let live_n = live.len();
        let weights: Vec<f64> = self.devices.iter().map(|d| d.effective_dram_bw()).collect();
        let nonempty = nonempty_rows(&dose.matrix);
        let r = match policy.replicas {
            ReplicaSpec::Fixed(r) => {
                if r > pool {
                    return Err(RtError::InvalidPlacement(format!(
                        "{r} replica groups requested but the pool has {pool} devices"
                    )));
                }
                // A transient drain can shrink the live pool below a
                // forced R: clamp — the undrain re-deal restores full
                // replication.
                r.min(live_n)
            }
            ReplicaSpec::Auto => {
                // Derive R from the shard count the plan would take on
                // the live pool: enough groups that each can hold a
                // complete shard set.
                let k_target = match policy.shards {
                    ShardSpec::Fixed(k) => k,
                    ShardSpec::Auto => {
                        let sorted: Vec<DeviceSpec> = snake_partition_subset(&weights, live, 1)
                            .remove(0)
                            .into_iter()
                            .map(|d| self.devices[d].clone())
                            .collect();
                        let whole = self.whole_seconds_for(&sorted[0], dose);
                        choose_shard_count(&sorted, whole, nonempty, live_n).k
                    }
                };
                (live_n / k_target.min(live_n)).max(1)
            }
        };
        // Snake-deal the live devices by modeled bandwidth so the R
        // groups are matched in strength; each group lists its members
        // fastest first.
        let memberships = snake_partition_subset(&weights, live, r);
        let mut groups = Vec::with_capacity(memberships.len());
        for members in memberships {
            let (k, breakeven) = match policy.shards {
                ShardSpec::Fixed(k) => (k, Vec::new()),
                ShardSpec::Auto => {
                    let specs: Vec<DeviceSpec> =
                        members.iter().map(|&d| self.devices[d].clone()).collect();
                    let whole = self.whole_seconds_for(&specs[0], dose);
                    let be = choose_shard_count(&specs, whole, nonempty, specs.len());
                    (be.k, be.candidates)
                }
            };
            let units = self.build_group_units(dose, grad, &members, k, old)?;
            groups.push(ReplicaGroup {
                devices: members,
                units,
                breakeven,
            });
        }
        Ok(groups)
    }

    /// Pool devices not currently drained.
    fn live_devices(&self) -> Vec<usize> {
        (0..self.devices.len())
            .filter(|&d| !self.drained[d].load(Ordering::SeqCst))
            .collect()
    }

    /// Whether pool device `d` is currently drained.
    pub fn device_drained(&self, d: usize) -> bool {
        self.drained
            .get(d)
            .is_some_and(|f| f.load(Ordering::SeqCst))
    }

    /// Marks pool device `d` ineligible for new work: its worker stops
    /// popping requests, no new placement epoch homes shards on it, and
    /// every plan with a replica group that lists `d` as a member is
    /// re-dealt over the surviving devices — including a group in which
    /// `d` holds no shard (a `K = 1` group's later members). Units whose
    /// home device and rows the re-deal leaves unchanged are kept, with
    /// their launch memos. Shard sub-tasks already pinned by an older
    /// epoch still execute, so in-flight fan-outs finish where they
    /// started — and because every epoch's widths are pinned from the
    /// whole matrix, the dose bytes are identical either way.
    ///
    /// Idempotent. Fails with [`RtError::InvalidPlacement`] when `d` is
    /// out of range or draining it would leave the pool empty.
    pub fn drain_device(&self, d: usize) -> Result<(), RtError> {
        if d >= self.devices.len() {
            return Err(RtError::InvalidPlacement(format!(
                "drain target {d} out of range for a {}-device pool",
                self.devices.len()
            )));
        }
        let _serialize = self.rebalance_lock.lock().unwrap();
        if self.drained[d].load(Ordering::SeqCst) {
            return Ok(());
        }
        let live: Vec<usize> = (0..self.devices.len())
            .filter(|&i| i != d && !self.drained[i].load(Ordering::SeqCst))
            .collect();
        if live.is_empty() {
            return Err(RtError::InvalidPlacement(format!(
                "cannot drain device {d}: it is the last live device in the pool"
            )));
        }
        self.drained[d].store(true, Ordering::SeqCst);
        for plan in &self.plans {
            if plan
                .snapshot()
                .groups
                .iter()
                .any(|g| g.devices.contains(&d))
            {
                self.redeal_plan(plan, &live)?;
            }
        }
        Ok(())
    }

    /// Returns a drained device to service and re-deals every plan over
    /// the grown pool, keeping the units of each plan's current epoch
    /// that did not move. Idempotent; fails with
    /// [`RtError::InvalidPlacement`] when `d` is out of range.
    pub fn undrain_device(&self, d: usize) -> Result<(), RtError> {
        if d >= self.devices.len() {
            return Err(RtError::InvalidPlacement(format!(
                "undrain target {d} out of range for a {}-device pool",
                self.devices.len()
            )));
        }
        let _serialize = self.rebalance_lock.lock().unwrap();
        if !self.drained[d].swap(false, Ordering::SeqCst) {
            return Ok(());
        }
        let live = self.live_devices();
        for plan in &self.plans {
            self.redeal_plan(plan, &live)?;
        }
        Ok(())
    }

    /// Re-deals one plan's replica groups over `live` and swaps the new
    /// epoch in, keeping the units of the current epoch that did not
    /// move. The shard build runs *before* the placement lock is taken,
    /// so dispatchers are never blocked behind calculator construction;
    /// callers hold `rebalance_lock`, so no other swap can land between
    /// the snapshot and the swap.
    fn redeal_plan(&self, plan: &Plan, live: &[usize]) -> Result<(), RtError> {
        let old = plan.snapshot();
        let groups = self.place_groups(&plan.dose, &plan.grad, &plan.policy, live, Some(&old))?;
        let epoch = PlacementEpoch {
            epoch: old.epoch + 1,
            groups,
        };
        let kept = epoch
            .units()
            .filter(|u| old.units().any(|o| Arc::ptr_eq(u, o)))
            .count() as u64;
        plan.kept_units.fetch_add(kept, Ordering::SeqCst);
        plan.built_units
            .fetch_add(epoch.units().count() as u64 - kept, Ordering::SeqCst);
        *plan.placement.lock().unwrap() = Arc::new(epoch);
        plan.rebalances.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// Splits both directions into `k` row-range shards weighted by each
    /// home device's modeled bandwidth (shard `s` homes on the group's
    /// `s % group_size`-th member) and builds one calculator per shard
    /// index holding dose shard `s` and gradient shard `s`. The
    /// transpose shards by its own rows, so gradient outputs stay
    /// disjoint; it gets at most as many shards as the matrix, so shard
    /// `s` of both directions always has a home. Each direction runs at
    /// its own pinned decision — for partitioned plans, through
    /// the bucketed partition of its own sub-matrix at the whole
    /// matrix's per-bucket widths.
    ///
    /// The cuts are decided before any row is copied: a shard whose home
    /// device, dose rows and gradient rows (or lack of them) equal a unit
    /// of `old` reuses that unit, and only the other shards are
    /// materialized and built.
    fn build_group_units(
        &self,
        dose: &Direction,
        grad: &Direction,
        members: &[usize],
        k: usize,
        old: Option<&PlacementEpoch>,
    ) -> Result<Vec<Arc<ShardUnit>>, RtError> {
        let n = members.len();
        let weights: Vec<f64> = (0..k)
            .map(|i| self.devices[members[i % n]].effective_dram_bw())
            .collect();
        let dose_cuts = ShardPlan::cuts(&dose.matrix, &weights);
        let grad_cuts = ShardPlan::cuts(&grad.matrix, &weights[..dose_cuts.len()]);
        dose_cuts
            .into_iter()
            .enumerate()
            .map(|(s, dose_rows)| {
                let device = members[s % n];
                let grad_rows = grad_cuts.get(s).cloned();
                if let Some(unit) =
                    old.and_then(|e| e.unit_matching(device, &dose_rows, grad_rows.as_ref()))
                {
                    return Ok(Arc::clone(unit));
                }
                let ds = RowShard::materialize(&dose.matrix, s, dose_rows);
                let gs = grad_rows.map(|rows| RowShard::materialize(&grad.matrix, s, rows));
                let mut b = DoseCalculator::builder(&ds.matrix)
                    .device(self.devices[device].clone())
                    .threads_per_block(self.threads_per_block)
                    .tile_width(dose.choice.tile_width)
                    .grad_tile_width(grad.choice.tile_width);
                if let Some(w) = dose.widths() {
                    b = b.partitioned_with_plan(ds.plan.clone(), w);
                }
                if let Some(gs) = &gs {
                    b = b.gradient_matrix(&gs.matrix);
                    if let Some(w) = grad.widths() {
                        b = b.grad_partitioned_with_plan(gs.plan.clone(), w);
                    }
                }
                Ok(Arc::new(ShardUnit {
                    device,
                    dose: ShardRows::of(&ds),
                    grad: gs.as_ref().map(ShardRows::of),
                    calc: b.build()?,
                }))
            })
            .collect()
    }

    /// Modeled seconds of one whole-matrix SpMV on `reference`, the
    /// break-even model's dominant input. A measured probe
    /// ([`KernelSelect::MeasuredProbe`]) already timed the chosen width
    /// on the first pool device, so that figure is rescaled to the
    /// reference by modeled bandwidth; other strategies fall back to the
    /// analytic traffic estimate ([`modeled_whole_seconds`], binary16
    /// values + `u32` column indices).
    fn whole_seconds_for(&self, reference: &DeviceSpec, dose: &Direction) -> f64 {
        let (matrix, choice) = (&dose.matrix, &dose.choice);
        match choice
            .candidates
            .iter()
            .find(|c| c.tile_width == choice.tile_width)
        {
            Some(c) => {
                c.modeled_seconds * self.devices[0].effective_dram_bw()
                    / reference.effective_dram_bw()
            }
            None => modeled_whole_seconds(
                reference,
                matrix.nrows(),
                matrix.ncols(),
                matrix.nnz(),
                2,
                4,
            ),
        }
    }

    /// Loads an RTDM snapshot from disk and registers it with the
    /// engine's default policy ([`RtError::Snapshot`] /
    /// [`RtError::Sparse`] on malformed files).
    pub fn register_plan_snapshot(
        &mut self,
        name: &str,
        path: impl AsRef<std::path::Path>,
    ) -> Result<(), RtError> {
        self.register_plan_snapshot_with(name, path, self.default_policy)
    }

    /// Loads an RTDM snapshot from disk and registers it with a
    /// per-plan execution policy. The snapshot holds binary16 values and
    /// `u32` indices (what `rtdose generate` writes); the values widen
    /// exactly to `f64`, so the plan serves the same bits as registering
    /// the in-memory matrix. Any other scalar pair fails with
    /// [`RtError::Snapshot`] (a type mismatch).
    pub fn register_plan_snapshot_with(
        &mut self,
        name: &str,
        path: impl AsRef<std::path::Path>,
        policy: ExecPolicy,
    ) -> Result<(), RtError> {
        let path = path.as_ref();
        let mut file = std::fs::File::open(path)
            .map_err(|e| RtError::Snapshot(format!("{}: {e}", path.display())))?;
        let matrix: Csr<F16, u32> = rt_sparse::load_csr(&mut file)?;
        self.register_plan_with(name, &matrix.convert_values(), policy)
    }

    /// Runs a serve session: spawns one worker per device, hands the
    /// closure an [`EngineClient`], and on closure return drains the
    /// queue, joins the workers and snapshots the [`EngineReport`].
    pub fn serve<R>(&self, f: impl FnOnce(&EngineClient<'_>) -> R) -> (R, EngineReport) {
        let names: Vec<&str> = self.devices.iter().map(|d| d.name).collect();
        let state = ServeState {
            queue: BoundedQueue::new(self.queue_capacity),
            gate: Gate::new(self.start_paused),
            metrics: Metrics::new(&names),
            loads: self.plans.iter().map(|_| Mutex::default()).collect(),
        };
        let out = std::thread::scope(|s| {
            for dev in 0..self.devices.len() {
                let state = &state;
                s.spawn(move || self.worker(dev, state));
            }
            let client = EngineClient {
                engine: self,
                state: &state,
            };
            let r = f(&client);
            // End of session: no more submissions; wake paused workers so
            // they drain what remains and exit.
            state.queue.close();
            state.gate.open();
            r
        });
        let mut report = state
            .metrics
            .report(self.queue_capacity, state.queue.max_depth());
        let buckets = |choice: &KernelChoice| -> Vec<BucketSelection> {
            choice
                .buckets
                .iter()
                .filter(|bc| bc.rows > 0)
                .map(|bc| BucketSelection {
                    min_len: bc.min_len,
                    max_len: bc.max_len,
                    rows: bc.rows,
                    tile_width: bc.tile_width,
                    lanes_active_frac: bc.lanes_active_frac,
                })
                .collect()
        };
        report.plans = self
            .plans
            .iter()
            .zip(&state.loads)
            .map(|(p, loads)| {
                let pl = p.snapshot();
                // Served tallies are per-epoch; the report shows the
                // current epoch's row (zeros if nothing dispatched on it
                // yet).
                let served: Vec<u64> = loads
                    .lock()
                    .unwrap()
                    .get(&pl.epoch)
                    .map(|e| e.served.clone())
                    .unwrap_or_else(|| vec![0; pl.groups.len()]);
                PlanSelection {
                    name: p.name.clone(),
                    tile_width: p.dose.choice.tile_width,
                    mode: p.dose.choice.mode.to_string(),
                    avg_nnz_nonempty: p.dose.choice.avg_nnz_nonempty,
                    grad_tile_width: p.grad.choice.tile_width,
                    buckets: buckets(&p.dose.choice),
                    grad_buckets: buckets(&p.grad.choice),
                    shards: pl.groups[0]
                        .units
                        .iter()
                        .enumerate()
                        .map(|(i, u)| PlanShard {
                            shard: i,
                            device: self.devices[u.device].name.to_string(),
                            row_start: u.dose.row_start as u64,
                            rows: (u.dose.row_end - u.dose.row_start) as u64,
                            nnz: u.dose.nnz,
                            resident_bytes: u.calc.resident_bytes(),
                        })
                        .collect(),
                    placement: Some(PlacementSelection {
                        replicas: pl.groups.len(),
                        shards_per_replica: pl.groups[0].units.len(),
                        auto_shards: p.policy.shards == ShardSpec::Auto,
                        rebalances: p.rebalances.load(Ordering::SeqCst),
                        kept_units: p.kept_units.load(Ordering::SeqCst),
                        built_units: p.built_units.load(Ordering::SeqCst),
                        groups: pl
                            .groups
                            .iter()
                            .enumerate()
                            .map(|(g, grp)| ReplicaGroupSelection {
                                group: g,
                                devices: grp
                                    .devices
                                    .iter()
                                    .map(|&d| self.devices[d].name.to_string())
                                    .collect(),
                                shards: grp.units.len(),
                                served: served[g],
                            })
                            .collect(),
                        breakeven: pl.groups[0].breakeven.clone(),
                    }),
                }
            })
            .collect();
        for (dev, d) in report.devices.iter_mut().enumerate() {
            let sum = |f: fn(&DoseCalculator) -> u64| -> u64 {
                self.plans.iter().map(|p| p.sum_on(dev, f)).sum()
            };
            d.resident_bytes = sum(|c| c.resident_bytes());
            d.keyed_groups = sum(|c| c.memo_counts().keyed);
            d.memo_hits = sum(|c| c.memo_counts().hits);
            d.drained = self.drained[dev].load(Ordering::SeqCst);
        }
        (out, report)
    }

    /// One device's worker loop: pop a batch — compatible requests (any,
    /// unless this device is drained) or a lone shard sub-task pinned to
    /// this device — then dispatch it. A drained worker still serves its
    /// pinned shard sub-tasks — older placement epochs may have homed
    /// shards here, and their in-flight fan-outs must finish where they
    /// started.
    fn worker(&self, dev: usize, state: &ServeState) {
        loop {
            state.gate.wait_open();
            // The head and its batch mates (same plan, same operation)
            // leave the queue under one lock, so no other worker can take
            // a mate in between; a shard sub-task has no mates.
            let Some(batch) = state.queue.pop_batch(
                self.max_batch,
                |it| match it {
                    WorkItem::Request(_) => !self.drained[dev].load(Ordering::SeqCst),
                    WorkItem::Shard(t) => t.device == dev,
                },
                |head, it| match (head, it) {
                    (WorkItem::Request(h), WorkItem::Request(r)) => {
                        r.plan == h.plan && r.kind == h.kind
                    }
                    _ => false,
                },
            ) else {
                return;
            };
            let mut requests = Vec::with_capacity(batch.len());
            for item in batch {
                match item {
                    WorkItem::Request(req) => requests.push(req),
                    WorkItem::Shard(task) => self.run_shard(dev, task, state),
                }
            }
            if !requests.is_empty() {
                self.dispatch_batch(dev, requests, state);
            }
        }
    }

    /// Sheds expired requests of a popped batch, picks a replica group
    /// and fans the batch out over its shards: the other devices' shard
    /// sub-tasks are queued first, then this worker runs the shards
    /// homed on its own device in place. Under the default placement
    /// (`R` = pool, `K = 1`) the group picked is this device's own, so
    /// the whole batch runs here with no queue hop.
    fn dispatch_batch(&self, dev: usize, batch: Vec<EngineRequest>, state: &ServeState) {
        let (plan_idx, kind) = (batch[0].plan, batch[0].kind);
        let dispatch = Instant::now();
        let mut sample = empty_sample(dev);
        let mut live = Vec::with_capacity(batch.len());
        for req in batch {
            let waited_ms = ms(dispatch - req.submitted);
            match req.budget_ms {
                Some(budget) if waited_ms > budget => {
                    sample.shed_deadline += 1;
                    req.slot.complete(Err(RtError::DeadlineExceeded {
                        budget_ms: budget,
                        waited_ms,
                    }));
                }
                _ => live.push((req, waited_ms)),
            }
        }
        state.metrics.record_batch(sample);
        if live.is_empty() {
            return;
        }
        let plan = &self.plans[plan_idx];
        // Pin the placement epoch for this fan-out before group
        // selection: a re-deal swapping the placement after this point
        // only affects *later* dispatches.
        let epoch = plan.snapshot();
        let r = epoch.groups.len();
        // Least-loaded replica group; ties go to a group homing a shard
        // on this device (it runs here with no queue hop), then to the
        // lowest index. Selection and the outstanding increment share one
        // critical section so concurrent dispatchers never double-book
        // the idle group.
        let group = {
            let mut loads = state.loads[plan_idx].lock().unwrap();
            let entry = loads.entry(epoch.epoch).or_insert_with(|| GroupLoads {
                outstanding: vec![0; r],
                served: vec![0; r],
            });
            let homes_here = |g: usize| {
                epoch.groups[g]
                    .shards_for(kind)
                    .any(|(_, u)| u.device == dev)
            };
            let g = (0..r)
                .min_by_key(|&g| (entry.outstanding[g], !homes_here(g)))
                .expect("a placement has at least one group");
            entry.outstanding[g] += 1;
            g
        };
        // The binding deadline is the earliest member's *true* deadline
        // (`submitted_i + budget_i`), never the oldest submission paired
        // with the batch's minimum budget — a mate's tight budget binds
        // only from that mate's own, later submission time.
        let deadline = live
            .iter()
            .filter_map(|(req, _)| {
                req.budget_ms
                    .map(|b| (req.submitted + Duration::from_secs_f64(b / 1e3), b))
            })
            .min_by(|a, b| a.0.cmp(&b.0));
        let (own, others): (Vec<_>, Vec<_>) = epoch.groups[group]
            .shards_for(kind)
            .map(|(s, u)| (s, u.device))
            .partition(|&(_, device)| device == dev);
        let out_len = match kind {
            RequestKind::Dose => plan.nrows,
            RequestKind::Gradient => plan.ncols,
        };
        let shards = own.len() + others.len();
        let fan = Arc::new(FanOut {
            plan: plan_idx,
            group,
            epoch: Arc::clone(&epoch),
            kind,
            outputs: Mutex::new(vec![vec![0.0; out_len]; live.len()]),
            remaining: AtomicUsize::new(shards),
            cancelled: AtomicBool::new(false),
            reports: Mutex::new(Vec::with_capacity(shards)),
            deadline,
            requests: live,
        });
        // Register the fan-out *before* its sub-tasks exist so no worker
        // can observe closed+empty and exit in between.
        state.queue.inflight_inc();
        let task = |(shard, device): (usize, usize)| ShardTask {
            shard,
            device,
            fan: Arc::clone(&fan),
        };
        if !others.is_empty() {
            state
                .queue
                .push_all_internal(others.into_iter().map(|t| WorkItem::Shard(task(t))));
        }
        for t in own {
            self.run_shard(dev, task(t), state);
        }
    }

    /// Executes one shard sub-task on its home device: deadline check,
    /// batched sub-SpMV, disjoint scatter, and — when this shard is the
    /// last to land — report merge and reply completion.
    fn run_shard(&self, dev: usize, task: ShardTask, state: &ServeState) {
        if let Some(&(_, delay_ms)) = self.debug_delays.iter().find(|(d, _)| *d == dev) {
            std::thread::sleep(Duration::from_secs_f64(delay_ms / 1e3));
        }
        let fan = &task.fan;
        let plan = &self.plans[fan.plan];
        let mut sample = empty_sample(dev);

        // A deadline that expired while sub-tasks sat behind a slow
        // device sheds the *whole* fan-out. Each member reports *its own*
        // budget; a mate that carried none inherits the binding member's.
        if let Some((deadline, binding_budget)) = fan.deadline {
            if Instant::now() > deadline
                && fan.cancel(|req| RtError::DeadlineExceeded {
                    budget_ms: req.budget_ms.unwrap_or(binding_budget),
                    waited_ms: ms(req.submitted.elapsed()),
                })
            {
                sample.shed_deadline = fan.requests.len() as u64;
            }
        }
        if !fan.cancelled.load(Ordering::SeqCst) {
            if let Err(e) = self.compute_shard(&task, &mut sample) {
                if fan.cancel(|_| e.clone()) {
                    sample.failed = fan.requests.len() as u64;
                }
            }
        }
        if fan.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            let completed = !fan.cancelled.load(Ordering::SeqCst);
            self.retire_fan(fan, state, completed);
            if completed {
                self.complete_fan(plan, fan, &mut sample);
            }
        }
        state.metrics.record_batch(sample);
    }

    /// Runs one shard's batched sub-SpMV, scatters its disjoint row
    /// range into the fan-out's outputs and files its shard report.
    fn compute_shard(&self, task: &ShardTask, sample: &mut BatchSample) -> Result<(), RtError> {
        let fan = &task.fan;
        // Resolve the shard against the epoch this fan-out was dealt
        // under, not the plan's current placement — a re-deal may have
        // swapped it while this sub-task sat in the queue.
        let unit = &fan.epoch.groups[fan.group].units[task.shard];
        let rows = unit
            .rows(fan.kind)
            .expect("fan-outs task only units holding their direction");
        let inputs: Vec<&[f64]> = fan
            .requests
            .iter()
            .map(|(r, _)| r.payload.as_slice())
            .collect();
        let br = match fan.kind {
            RequestKind::Dose => unit.calc.compute_dose_batch(&inputs),
            RequestKind::Gradient => unit.calc.compute_gradient_batch(&inputs),
        }?;
        {
            let mut out = fan.outputs.lock().unwrap();
            for (v, part) in br.outputs.iter().enumerate() {
                out[v][rows.row_start..rows.row_end].copy_from_slice(part);
            }
        }
        // One *physical* launch sequence on this device; the fan-out's
        // request batch is counted once, at merge time, so sharding never
        // inflates the batch metrics.
        sample.launches = 1;
        sample.modeled_seconds = br.report.estimate.seconds;
        let spec = &self.devices[unit.device];
        let gather_bytes = rows.gather_bytes * inputs.len() as u64;
        let direction = self.plans[fan.plan].direction(fan.kind);
        fan.reports.lock().unwrap().push(ShardReport {
            shard: task.shard,
            device: spec.name.to_string(),
            row_start: rows.row_start as u64,
            rows: (rows.row_end - rows.row_start) as u64,
            nnz: rows.nnz,
            dispatch: if direction.row_plan.is_some() {
                "bucketed".to_string()
            } else {
                format!("w={}", direction.choice.tile_width)
            },
            stats: br.report.stats.clone(),
            estimate: br.report.estimate.clone(),
            gather_bytes,
            gather_seconds: gather_estimate(spec, gather_bytes),
        });
        Ok(())
    }

    /// Last shard of a fan-out retired (completed, shed, or failed):
    /// release the queue's in-flight hold and return the replica group's
    /// load slot in the epoch it was dealt under, counting completed
    /// fan-outs toward its served tally.
    fn retire_fan(&self, fan: &FanOut, state: &ServeState, completed: bool) {
        state.queue.inflight_dec();
        let mut loads = state.loads[fan.plan].lock().unwrap();
        let entry = loads
            .get_mut(&fan.epoch.epoch)
            .expect("dispatch created this epoch's load row");
        entry.outstanding[fan.group] -= 1;
        if completed {
            entry.served[fan.group] += 1;
        }
    }

    /// Last shard landed: sort the per-shard reports into row order,
    /// merge counters, model the critical path (slowest compute + gather
    /// over the interconnect), and complete every reply slot.
    fn complete_fan(&self, plan: &Plan, fan: &Arc<FanOut>, sample: &mut BatchSample) {
        let mut reports = std::mem::take(&mut *fan.reports.lock().unwrap());
        reports.sort_by_key(|r| r.shard);
        // Engine calculators always run the production profile.
        let kernel = "Half/double";
        let sharded = ShardedReport::new(kernel, reports);
        // The merged LaunchReport carries accumulated counters with the
        // critical-path time, bound/frac_peak_bw taken from the shard on
        // that path.
        let critical = sharded
            .shards
            .iter()
            .max_by(|a, b| {
                (a.estimate.seconds + a.gather_seconds)
                    .total_cmp(&(b.estimate.seconds + b.gather_seconds))
            })
            .expect("a fan-out has at least one shard");
        let mut estimate = critical.estimate.clone();
        estimate.seconds = sharded.modeled_seconds;
        if estimate.seconds > 0.0 {
            estimate.gflops = sharded.stats.flops as f64 / estimate.seconds / 1e9;
            estimate.dram_bw_gbps = (sharded.stats.dram_read_bytes + sharded.stats.dram_write_bytes)
                as f64
                / estimate.seconds
                / 1e9;
        }
        let device = sharded.devices.join("+");
        // The merged report carries the direction-correct width: the
        // gradient direction runs at its own pinned decision.
        let fan_width = plan.direction(fan.kind).choice.tile_width;
        let report = LaunchReport::new(kernel, device.clone(), sharded.stats.clone(), estimate)
            .with_tile_width(fan_width);
        let outputs = std::mem::take(&mut *fan.outputs.lock().unwrap());
        sample.completed = fan.requests.len() as u64;
        // The fan-out's request batch counts once — here, at merge —
        // regardless of how many shards executed it.
        sample.batches = 1;
        sample.batch_size = fan.requests.len() as u64;
        for ((req, waited_ms), output) in fan.requests.iter().zip(outputs) {
            sample
                .timings
                .push((*waited_ms, ms(req.submitted.elapsed())));
            req.slot.complete(Ok(EngineResponse {
                output,
                report: report.clone(),
                device: device.clone(),
                batch_size: fan.requests.len(),
                queue_ms: *waited_ms,
                shards: Some(sharded.clone()),
            }));
        }
    }
}

/// A zeroed [`BatchSample`] for worker `dev`.
fn empty_sample(dev: usize) -> BatchSample {
    BatchSample {
        device: dev,
        completed: 0,
        shed_deadline: 0,
        failed: 0,
        launches: 0,
        batches: 0,
        batch_size: 0,
        modeled_seconds: 0.0,
        timings: Vec::new(),
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Rows that scatter result bytes at gather time (empty rows ship
/// nothing over the interconnect).
fn nonempty_rows(matrix: &Csr<f64, u32>) -> usize {
    matrix.row_ptr().windows(2).filter(|w| w[1] > w[0]).count()
}

/// Submission handle passed to the [`Engine::serve`] closure. Cheap to
/// share by reference across submitter threads.
pub struct EngineClient<'a> {
    engine: &'a Engine,
    state: &'a ServeState,
}

impl EngineClient<'_> {
    /// Validates a submission and builds the queue entry.
    fn prepare(
        &self,
        plan: &str,
        kind: RequestKind,
        payload: Vec<f64>,
        budget_ms: Option<f64>,
    ) -> Result<EngineRequest, RtError> {
        let idx = *self
            .engine
            .plan_index
            .get(plan)
            .ok_or_else(|| RtError::UnknownPlan(plan.to_string()))?;
        let p = &self.engine.plans[idx];
        if let Some(max) = self.engine.max_request_len {
            if payload.len() > max {
                return Err(RtError::RequestTooLarge {
                    len: payload.len(),
                    max,
                });
            }
        }
        let (what, expected) = match kind {
            RequestKind::Dose => ("weights", p.ncols),
            RequestKind::Gradient => ("residual", p.nrows),
        };
        if payload.len() != expected {
            return Err(RtError::DimensionMismatch {
                what,
                expected,
                actual: payload.len(),
            });
        }
        Ok(EngineRequest {
            plan: idx,
            kind,
            payload,
            submitted: Instant::now(),
            budget_ms: budget_ms.or(self.engine.default_deadline_ms),
            slot: ReplySlot::new(),
        })
    }

    fn enqueue(&self, req: EngineRequest, blocking: bool) -> Result<Ticket, RtError> {
        let ticket = Ticket {
            slot: Arc::clone(&req.slot),
        };
        let item = WorkItem::Request(req);
        let pushed = if blocking {
            self.state.queue.push(item)
        } else {
            self.state.queue.try_push(item)
        };
        match pushed {
            Ok(()) => {
                self.state.metrics.note_submitted();
                Ok(ticket)
            }
            Err(e) => {
                if matches!(e, RtError::QueueFull { .. }) {
                    self.state.metrics.note_rejected_full();
                }
                Err(e)
            }
        }
    }

    /// Submits a request, blocking while the queue is full
    /// (backpressure).
    pub fn submit(
        &self,
        plan: &str,
        kind: RequestKind,
        payload: Vec<f64>,
    ) -> Result<Ticket, RtError> {
        let req = self.prepare(plan, kind, payload, None)?;
        self.enqueue(req, true)
    }

    /// Like [`EngineClient::submit`] with an explicit queue-wait budget:
    /// the request is shed with [`RtError::DeadlineExceeded`] if no
    /// worker dispatches it within `budget_ms`.
    pub fn submit_with_deadline(
        &self,
        plan: &str,
        kind: RequestKind,
        payload: Vec<f64>,
        budget_ms: f64,
    ) -> Result<Ticket, RtError> {
        let req = self.prepare(plan, kind, payload, Some(budget_ms))?;
        self.enqueue(req, true)
    }

    /// Non-blocking submit: sheds with [`RtError::QueueFull`] instead of
    /// waiting for queue space.
    pub fn try_submit(
        &self,
        plan: &str,
        kind: RequestKind,
        payload: Vec<f64>,
    ) -> Result<Ticket, RtError> {
        let req = self.prepare(plan, kind, payload, None)?;
        self.enqueue(req, false)
    }

    /// Synchronous round trip: submit and wait for the response.
    pub fn call(
        &self,
        plan: &str,
        kind: RequestKind,
        payload: Vec<f64>,
    ) -> Result<EngineResponse, RtError> {
        self.submit(plan, kind, payload)?.wait()
    }

    /// Drains pool device `d` for maintenance mid-session: no new
    /// requests or shard homes land on it, every plan holding shards
    /// there is re-dealt over the surviving devices, and
    /// in-flight fan-outs finish on their old placement epoch. See
    /// [`Engine::drain_device`].
    pub fn drain_device(&self, d: usize) -> Result<(), RtError> {
        self.engine.drain_device(d)
    }

    /// Returns a drained device to service and re-deals every plan over
    /// the grown pool. See [`Engine::undrain_device`].
    pub fn undrain_device(&self, d: usize) -> Result<(), RtError> {
        self.engine.undrain_device(d)
    }

    /// Releases workers held by [`EngineBuilder::start_paused`].
    pub fn resume(&self) {
        self.state.gate.open();
    }

    /// Stops admission: subsequent submissions fail with
    /// [`RtError::EngineShutdown`]; already-queued requests still drain.
    pub fn shutdown(&self) {
        self.state.queue.close();
        self.state.gate.open();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_matrix() -> Csr<f64, u32> {
        Csr::from_rows(
            3,
            &[
                vec![(0, 1.0), (2, 2.0)],
                vec![(1, 0.5)],
                vec![(0, 0.25), (1, 1.5), (2, 0.125)],
                vec![(2, 3.0)],
            ],
        )
        .unwrap()
    }

    fn engine_one_device() -> Engine {
        let mut e = Engine::builder()
            .device(DeviceSpec::a100())
            .build()
            .unwrap();
        e.register_plan("demo", &small_matrix()).unwrap();
        e
    }

    #[test]
    fn builder_requires_devices() {
        assert_eq!(
            Engine::builder().build().unwrap_err(),
            RtError::EmptyDevicePool
        );
        assert_eq!(
            Engine::builder()
                .device(DeviceSpec::a100())
                .threads_per_block(100)
                .build()
                .unwrap_err(),
            RtError::InvalidThreadsPerBlock(100)
        );
    }

    #[test]
    fn duplicate_and_unknown_plans() {
        let mut e = engine_one_device();
        assert_eq!(
            e.register_plan("demo", &small_matrix()).unwrap_err(),
            RtError::DuplicatePlan("demo".to_string())
        );
        assert_eq!(e.plan_names(), vec!["demo"]);
        assert_eq!(e.plan_dims("demo"), Some((4, 3)));
        assert_eq!(e.plan_dims("nope"), None);
        let (err, _) = e.serve(|c| c.call("nope", RequestKind::Dose, vec![1.0; 3]).unwrap_err());
        assert_eq!(err, RtError::UnknownPlan("nope".to_string()));
    }

    #[test]
    fn dose_and_gradient_round_trip() {
        let e = engine_one_device();
        let ((dose, grad), report) = e.serve(|c| {
            let d = c
                .call("demo", RequestKind::Dose, vec![1.0, 1.0, 1.0])
                .unwrap();
            let g = c
                .call("demo", RequestKind::Gradient, vec![1.0, 0.0, 1.0, 0.0])
                .unwrap();
            assert_eq!(d.device, "A100");
            assert!(d.report.estimate.seconds > 0.0);
            assert!(d.queue_ms >= 0.0);
            (d.output, g.output)
        });
        assert_eq!(dose.len(), 4);
        assert_eq!(grad.len(), 3);
        assert_eq!(report.completed, 2);
        assert_eq!(report.submitted, 2);
        assert!(report.throughput_rps() > 0.0);
    }

    #[test]
    fn dimension_and_size_validation() {
        let mut e = Engine::builder()
            .device(DeviceSpec::a100())
            .max_request_len(3)
            .build()
            .unwrap();
        e.register_plan("demo", &small_matrix()).unwrap();
        let _ = e.serve(|c| {
            assert_eq!(
                c.submit("demo", RequestKind::Dose, vec![0.0; 2])
                    .unwrap_err(),
                RtError::DimensionMismatch {
                    what: "weights",
                    expected: 3,
                    actual: 2
                }
            );
            // The gradient payload is 4 long, over the 3-element limit.
            assert_eq!(
                c.submit("demo", RequestKind::Gradient, vec![0.0; 4])
                    .unwrap_err(),
                RtError::RequestTooLarge { len: 4, max: 3 }
            );
        });
    }

    #[test]
    fn shutdown_stops_admission_but_drains() {
        let e = engine_one_device();
        let (outcome, report) = e.serve(|c| {
            let t = c.submit("demo", RequestKind::Dose, vec![1.0; 3]).unwrap();
            c.shutdown();
            assert_eq!(
                c.submit("demo", RequestKind::Dose, vec![1.0; 3])
                    .unwrap_err(),
                RtError::EngineShutdown
            );
            t.wait()
        });
        assert!(outcome.is_ok());
        assert_eq!(report.completed, 1);
        assert_eq!(report.submitted, 1);
    }

    #[test]
    fn paused_engine_batches_deterministically() {
        let mut e = Engine::builder()
            .device(DeviceSpec::a100())
            .max_batch(8)
            .start_paused()
            .build()
            .unwrap();
        e.register_plan("demo", &small_matrix()).unwrap();
        let (outputs, report) = e.serve(|c| {
            let tickets: Vec<Ticket> = (0..8)
                .map(|i| {
                    c.submit("demo", RequestKind::Dose, vec![i as f64 * 0.1; 3])
                        .unwrap()
                })
                .collect();
            c.resume();
            tickets
                .into_iter()
                .map(|t| t.wait().unwrap())
                .collect::<Vec<_>>()
        });
        // All 8 queued before any worker ran: one launch, batch of 8.
        assert_eq!(report.launches, 1);
        assert_eq!(report.max_batch, 8);
        assert_eq!(report.completed, 8);
        assert_eq!(report.queue_max_depth, 8);
        assert!((report.avg_batch() - 8.0).abs() < 1e-12);
        for r in &outputs {
            assert_eq!(r.batch_size, 8);
        }
    }
}
