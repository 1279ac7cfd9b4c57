//! Per-plan execution policy: every knob that decides *how* a plan runs.
//!
//! Before this module, execution configuration was scattered across the
//! engine builder (`shards`, `kernel_select`) and applied uniformly to
//! every plan. [`ExecPolicy`] collapses those knobs into one validated
//! value that travels with the plan — [`crate::Engine::register_plan_with`]
//! accepts a policy per plan, so a small prostate matrix can keep a whole
//! copy on every device while an 800k-row liver beam on the same engine
//! is split as replicas × shards.
//!
//! The three axes:
//!
//! * **kernel selection** ([`rt_core::KernelSelect`]) — how tile widths
//!   are picked at registration (fixed width, heuristic, measured probe,
//!   bucketed partition).
//! * **sharding** ([`ShardSpec`]) — whether one request is split into
//!   row-range shards executed cooperatively, and whether the shard
//!   count is forced or chosen by the break-even model
//!   ([`rt_core::choose_shard_count`]).
//! * **replication** ([`ReplicaSpec`]) — how many independent copies of
//!   the plan's residency the pool holds. Each replica group serves
//!   whole requests; more groups mean more concurrent requests, fewer
//!   mean more devices cooperating on each one.
//!
//! Construction is builder-style and `Result`-based like the engine
//! itself: [`ExecPolicy::builder`] validates tile widths and counts at
//! [`ExecPolicyBuilder::build`], so an invalid policy is unrepresentable
//! downstream.

use rt_core::{KernelSelect, RtError};

/// How (and whether) a plan is row-sharded within each replica group.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShardSpec {
    /// No sharding (`K = 1`): each replica group holds the whole plan
    /// on its first device, and each request runs on one device. The
    /// default.
    #[default]
    Off,
    /// Let the break-even model pick the shard count per replica group —
    /// small plans resolve to 1 shard, large plans split until the next
    /// shard's launch + gather overhead outweighs its bandwidth.
    Auto,
    /// Force exactly this many shards per replica group (clamped per
    /// plan to its row count). Counts above the group size stack shards
    /// round-robin on the group's devices.
    Fixed(usize),
}

/// How many replica groups a plan is dealt across.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReplicaSpec {
    /// Derive the group count from the resolved shard count: the pool is
    /// divided into `pool / K` groups so every group can hold a full
    /// shard set. With [`ShardSpec::Off`] this is one whole-plan replica
    /// per live device (`R` = live pool, `K = 1`). The default.
    #[default]
    Auto,
    /// Force exactly this many replica groups (must not exceed the
    /// pool size; checked at plan registration).
    Fixed(usize),
}

/// A validated per-plan execution policy; see the module docs.
///
/// Obtained from [`ExecPolicy::builder`]; the default policy
/// (`ExecPolicy::default()`) is heuristic width selection, no sharding,
/// auto replicas — one whole-plan replica per live device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecPolicy {
    pub(crate) kernel_select: KernelSelect,
    pub(crate) shards: ShardSpec,
    pub(crate) replicas: ReplicaSpec,
}

impl Default for ExecPolicy {
    fn default() -> Self {
        ExecPolicy {
            kernel_select: KernelSelect::Heuristic,
            shards: ShardSpec::Off,
            replicas: ReplicaSpec::Auto,
        }
    }
}

impl ExecPolicy {
    pub fn builder() -> ExecPolicyBuilder {
        ExecPolicyBuilder {
            policy: ExecPolicy::default(),
        }
    }

    /// Tile-width selection strategy applied at plan registration.
    pub fn kernel_select(&self) -> KernelSelect {
        self.kernel_select
    }

    pub fn shards(&self) -> ShardSpec {
        self.shards
    }

    pub fn replicas(&self) -> ReplicaSpec {
        self.replicas
    }

    /// Re-checks the invariants [`ExecPolicyBuilder::build`] enforces
    /// (the engine revalidates at registration so a policy constructed
    /// or mutated outside the builder cannot smuggle invalid fields
    /// through).
    pub(crate) fn validate(&self) -> Result<(), RtError> {
        if let KernelSelect::Fixed(w) = self.kernel_select {
            if !rt_gpusim::TILE_WIDTHS.contains(&w) {
                return Err(RtError::InvalidTileWidth(w));
            }
        }
        if self.shards == ShardSpec::Fixed(0) {
            return Err(RtError::InvalidPlacement(
                "shard count must be at least 1".to_string(),
            ));
        }
        if self.replicas == ReplicaSpec::Fixed(0) {
            return Err(RtError::InvalidPlacement(
                "replica count must be at least 1".to_string(),
            ));
        }
        Ok(())
    }
}

/// Builds an [`ExecPolicy`]; obtained from [`ExecPolicy::builder`].
#[derive(Clone, Debug)]
pub struct ExecPolicyBuilder {
    policy: ExecPolicy,
}

impl ExecPolicyBuilder {
    /// Tile-width selection strategy (default
    /// [`KernelSelect::Heuristic`]).
    pub fn kernel_select(mut self, select: KernelSelect) -> Self {
        self.policy.kernel_select = select;
        self
    }

    /// Pin a fixed tile width — shorthand for
    /// `kernel_select(KernelSelect::Fixed(w))`; `32` is the paper's
    /// warp-per-row kernel.
    pub fn tile_width(self, w: u32) -> Self {
        self.kernel_select(KernelSelect::Fixed(w))
    }

    /// Sharding axis (default [`ShardSpec::Off`]).
    pub fn shards(mut self, spec: ShardSpec) -> Self {
        self.policy.shards = spec;
        self
    }

    /// Replication axis (default [`ReplicaSpec::Auto`]).
    pub fn replicas(mut self, spec: ReplicaSpec) -> Self {
        self.policy.replicas = spec;
        self
    }

    /// Validates the policy: fixed tile widths must be in
    /// [`rt_gpusim::TILE_WIDTHS`], forced shard/replica counts must be
    /// at least 1 (pool-size checks happen at plan registration, where
    /// the pool is known).
    pub fn build(self) -> Result<ExecPolicy, RtError> {
        self.policy.validate()?;
        Ok(self.policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_policy_is_the_classic_engine() {
        let p = ExecPolicy::default();
        assert_eq!(p.kernel_select(), KernelSelect::Heuristic);
        assert_eq!(p.shards(), ShardSpec::Off);
        assert_eq!(p.replicas(), ReplicaSpec::Auto);
        assert!(p.validate().is_ok());
    }

    #[test]
    fn builder_validates_tile_width() {
        assert!(ExecPolicy::builder().tile_width(8).build().is_ok());
        assert_eq!(
            ExecPolicy::builder().tile_width(7).build().unwrap_err(),
            RtError::InvalidTileWidth(7)
        );
    }

    #[test]
    fn builder_rejects_zero_counts() {
        assert_eq!(
            ExecPolicy::builder()
                .shards(ShardSpec::Fixed(0))
                .build()
                .unwrap_err()
                .kind(),
            "invalid_placement"
        );
        assert_eq!(
            ExecPolicy::builder()
                .replicas(ReplicaSpec::Fixed(0))
                .build()
                .unwrap_err()
                .kind(),
            "invalid_placement"
        );
    }

    #[test]
    fn axes_compose() {
        let p = ExecPolicy::builder()
            .kernel_select(KernelSelect::MeasuredProbe)
            .shards(ShardSpec::Auto)
            .replicas(ReplicaSpec::Fixed(2))
            .build()
            .unwrap();
        assert_eq!(p.kernel_select(), KernelSelect::MeasuredProbe);
        assert_eq!(p.shards(), ShardSpec::Auto);
        assert_eq!(p.replicas(), ReplicaSpec::Fixed(2));
    }
}
