//! Property-based tests for the cluster substrate's structural pieces.

use c3_cluster::Ring;
use proptest::prelude::*;

proptest! {
    /// Every key maps to exactly RF distinct replicas, all in range, and
    /// the mapping is a pure function of the key.
    #[test]
    fn ring_replicas_well_formed(
        nodes in 3usize..64,
        rf_offset in 0usize..3,
        keys in proptest::collection::vec(0u64..u64::MAX, 1..50),
    ) {
        let rf = (rf_offset % nodes.min(3)) + 1;
        let ring = Ring::new(nodes, rf);
        for &key in &keys {
            let reps = ring.replicas(key);
            prop_assert_eq!(reps.len(), rf);
            let mut sorted = reps.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), rf, "replicas must be distinct");
            prop_assert!(reps.iter().all(|&r| r < nodes));
            prop_assert_eq!(ring.replicas(key), reps, "mapping must be pure");
        }
    }

    /// groups_of_node is the exact inverse of group membership.
    #[test]
    fn ring_group_membership_inverts(nodes in 3usize..40) {
        let ring = Ring::new(nodes, 3);
        for node in 0..nodes {
            for g in ring.groups_of_node(node) {
                prop_assert!(ring.group_of_primary(g).contains(&node));
            }
        }
        // And conversely: every group containing `node` is listed.
        for g in 0..nodes {
            for &member in &ring.group_of_primary(g) {
                prop_assert!(ring.groups_of_node(member).any(|gid| gid == g));
            }
        }
    }

    /// Ring ownership is balanced within a few percent for uniform keys.
    #[test]
    fn ring_ownership_balanced(nodes in 2usize..20, seed in 0u64..20) {
        let ring = Ring::new(nodes, 1);
        let mut counts = vec![0u64; nodes];
        let total = 20_000u64;
        for i in 0..total {
            counts[ring.primary(i.wrapping_mul(0x9e3779b97f4a7c15) ^ seed)] += 1;
        }
        let expect = total as f64 / nodes as f64;
        for &c in &counts {
            prop_assert!(
                (c as f64 - expect).abs() / expect < 0.15,
                "ownership skewed: {counts:?}"
            );
        }
    }
}
