//! Device groups: how a pool of simulated devices is dealt into
//! disjoint groups of comparable strength.
//!
//! The serving engine places every plan as `R` replica groups, each a
//! disjoint subset of the pool holding a full copy of the plan as row
//! shards. [`snake_partition`] deals the pool into those groups by
//! modeled bandwidth so no group is much weaker than another, and
//! [`snake_partition_subset`] re-deals over the surviving members when
//! a device is drained. Execution itself lives in the engine: each
//! device keeps its own [`crate::Gpu`] (own L2 model and counters, as
//! a physical card has), and the gather of shard results is an analytic
//! term ([`crate::timing::gather_estimate`]) folded into the
//! [`crate::report::ShardedReport`].

/// Deals item indices into `r` disjoint groups by descending-weight
/// "snake" order: indices are sorted by weight (descending, ties keep
/// index order), then dealt `0, 1, .., r-1, r-1, .., 1, 0, 0, 1, ..` so
/// every group's aggregate weight stays as even as a greedy deal allows.
/// Used to split a heterogeneous device pool into replica groups of
/// comparable modeled throughput; each group lists its members fastest
/// first, so `group[0]` is a natural reference device.
///
/// `r` is clamped to `[1, weights.len()]` — every group gets at least
/// one member.
///
/// # Panics
/// Panics if `weights` is empty or contains a non-finite weight.
pub fn snake_partition(weights: &[f64], r: usize) -> Vec<Vec<usize>> {
    assert!(!weights.is_empty(), "snake_partition needs >= 1 weight");
    assert!(
        weights.iter().all(|w| w.is_finite()),
        "weights must be finite"
    );
    let r = r.clamp(1, weights.len());
    let mut order: Vec<usize> = (0..weights.len()).collect();
    order.sort_by(|&a, &b| weights[b].partial_cmp(&weights[a]).unwrap());
    let mut groups: Vec<Vec<usize>> = (0..r).map(|_| Vec::new()).collect();
    for (round, chunk) in order.chunks(r).enumerate() {
        for (pos, &dev) in chunk.iter().enumerate() {
            let g = if round % 2 == 0 { pos } else { r - 1 - pos };
            groups[g].push(dev);
        }
    }
    groups
}

/// [`snake_partition`] restricted to a subset of the pool: only the
/// indices in `members` are dealt, and the returned groups contain
/// *absolute* indices into `weights`. This is the live-rebalancing
/// entry point — when a device is drained the engine re-deals replica
/// groups over the surviving members without renumbering the pool.
///
/// `members` order does not matter (the deal sorts by weight); duplicate
/// members are dealt once per occurrence and out-of-range members panic
/// via the index.
///
/// # Panics
/// Panics if `members` is empty, or if any selected weight is
/// non-finite.
pub fn snake_partition_subset(weights: &[f64], members: &[usize], r: usize) -> Vec<Vec<usize>> {
    assert!(
        !members.is_empty(),
        "snake_partition_subset needs >= 1 live member"
    );
    let subset: Vec<f64> = members.iter().map(|&m| weights[m]).collect();
    snake_partition(&subset, r)
        .into_iter()
        .map(|g| g.into_iter().map(|i| members[i]).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snake_partition_deals_by_descending_weight() {
        // Two A100s, a V100, a P100 by effective bandwidth.
        let w = [1461.7, 1461.7, 843.2, 351.4];
        let groups = snake_partition(&w, 2);
        assert_eq!(groups, vec![vec![0, 3], vec![1, 2]]);
        // Each group leads with its fastest member.
        for g in &groups {
            assert!(w[g[0]] >= w[*g.last().unwrap()]);
        }
    }

    #[test]
    fn snake_partition_sorts_before_dealing() {
        let w = [1.0, 4.0, 2.0, 8.0, 3.0];
        // Desc order: 3(8), 1(4), 4(3), 2(2), 0(1); snake r=2:
        // round0 g0<-3 g1<-1, round1 g1<-4 g0<-2, round2 g0<-0.
        assert_eq!(snake_partition(&w, 2), vec![vec![3, 2, 0], vec![1, 4]]);
    }

    #[test]
    fn snake_partition_subset_returns_absolute_indices() {
        // Same hybrid pool as above, but device 1 (an A100) is drained.
        let w = [1461.7, 1461.7, 843.2, 351.4];
        let groups = snake_partition_subset(&w, &[0, 2, 3], 2);
        // Desc among live: 0(1461.7), 2(843.2), 3(351.4); snake r=2:
        // round0 g0<-0 g1<-2, round1 g1<-3.
        assert_eq!(groups, vec![vec![0], vec![2, 3]]);
        // Full-membership subset matches the plain deal.
        assert_eq!(
            snake_partition_subset(&w, &[0, 1, 2, 3], 2),
            snake_partition(&w, 2)
        );
    }

    #[test]
    fn snake_partition_subset_clamps_to_live_count() {
        let w = [2.0, 1.0, 3.0, 4.0];
        let groups = snake_partition_subset(&w, &[1, 2], 4);
        assert_eq!(groups.len(), 2);
        assert_eq!(groups, vec![vec![2], vec![1]]);
    }

    #[test]
    #[should_panic(expected = "live member")]
    fn snake_partition_subset_rejects_empty_membership() {
        let _ = snake_partition_subset(&[1.0, 2.0], &[], 1);
    }

    #[test]
    fn snake_partition_clamps_group_count() {
        let w = [2.0, 1.0, 3.0];
        let one = snake_partition(&w, 0);
        assert_eq!(one, vec![vec![2, 0, 1]]);
        let many = snake_partition(&w, 9);
        assert_eq!(many.len(), 3);
        assert!(many.iter().all(|g| g.len() == 1));
    }
}
