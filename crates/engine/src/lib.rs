//! `rt-engine` — a multi-plan dose-calculation serving engine.
//!
//! A clinic runs many optimizations at once: several planners iterating
//! on different patients, each issuing a forward dose SpMV and a gradient
//! back-projection per iteration. This crate serves that traffic on a
//! pool of simulated GPUs:
//!
//! * **Device pool** — one worker thread per [`DeviceSpec`]
//!   (e.g. 2×A100 + 1×V100), each owning exclusive per-plan
//!   [`DoseCalculator`]s for its device.
//! * **Multi-plan registry** — [`Engine::register_plan`] places a dose
//!   deposition matrix and its transpose on the pool (by default a whole
//!   copy on every device); requests name their plan.
//! * **Request batching** — a worker that dequeues a request gathers
//!   queued compatible requests (same plan, same operation) into one
//!   multi-vector launch, sharing the matrix bytes
//!   ([`rt_core::vector_csr_spmm`], or
//!   [`rt_core::vector_csr_spmm_bucketed`] for a partitioned plan).
//! * **Per-plan execution policy** — [`Engine::register_plan_with`]
//!   takes an [`ExecPolicy`] (kernel selection × sharding × replication),
//!   so plans on the same engine can run completely different layouts.
//! * **Replica × shard placement** — every plan is dealt across `R`
//!   disjoint replica groups of the pool (snake-dealt by modeled device
//!   bandwidth, so groups are matched in strength), each holding `K`
//!   throughput-weighted row-range shards. `K` comes from a break-even
//!   model ([`rt_core::choose_shard_count`]) under [`ShardSpec::Auto`] —
//!   small plans stay whole, large plans split until the next shard's
//!   launch + gather overhead outweighs its bandwidth. Dispatch picks
//!   the least-loaded group per request; within a group the request fans
//!   out into per-shard sub-tasks whose disjoint results scatter into
//!   one bitwise-exact dose. The default policy is `R` = the live pool
//!   and `K = 1`, so a request runs whole on the worker that popped it.
//! * **Admission control** — a bounded queue: [`EngineClient::submit`]
//!   blocks when full (backpressure), [`EngineClient::try_submit`] sheds
//!   with [`RtError::QueueFull`]; per-request deadlines shed stale work
//!   at dispatch with [`RtError::DeadlineExceeded`].
//! * **Observability** — every response carries a [`LaunchReport`]
//!   (counters + modeled time); each serve session produces an
//!   [`EngineReport`] (throughput, latency, queue depth) exportable as
//!   JSON.
//!
//! **Determinism (§II-D):** per-plan doses are bitwise identical
//! regardless of worker count, request interleaving, batch composition,
//! or device assignment — the property that makes serving clinically
//! acceptable at all. See `tests/determinism.rs`.
//!
//! Everything is `std`: scoped threads, `Mutex` + `Condvar`. No async
//! runtime, no extra dependencies.
//!
//! [`DeviceSpec`]: rt_gpusim::DeviceSpec
//! [`DoseCalculator`]: rt_core::DoseCalculator
//! [`LaunchReport`]: rt_gpusim::LaunchReport
//! [`RtError::QueueFull`]: rt_core::RtError::QueueFull
//! [`RtError::DeadlineExceeded`]: rt_core::RtError::DeadlineExceeded

mod engine;
mod metrics;
mod optim;
mod policy;
mod queue;

pub use engine::{Engine, EngineBuilder, EngineClient, EngineResponse, RequestKind, Ticket};
pub use metrics::{
    BucketSelection, DeviceReport, EngineReport, PlacementSelection, PlanSelection, PlanShard,
    ReplicaGroupSelection,
};
pub use optim::ServedDoseEngine;
pub use policy::{ExecPolicy, ExecPolicyBuilder, ReplicaSpec, ShardSpec};
pub use rt_core::{BreakEvenPoint, KernelChoice, KernelSelect, PartitionStrategy, RtError};
pub use rt_gpusim::{ShardReport, ShardedReport};
